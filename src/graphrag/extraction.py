"""Corpus ingestion: chunking, model-driven triple extraction, indexing.

Chunking prefers paragraph breaks over sentence breaks over hard cuts and
keeps a fixed character overlap between consecutive chunks. Extraction
composes the schema prompt with the chunk text, parses the line protocol, and
routes candidates through schema validation and renormalization. Indexing
runs chunks through a bounded worker pool but commits results in chunk-id
order so the produced graph never depends on scheduling.
"""

from __future__ import annotations

import logging
import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from abc import ABC, abstractmethod

from ._http import post_json
from .errors import ClientError, EmptyValidSetError, IndexingError
from .graph_store import Chunk, KnowledgeGraph, make_chunk_id
from .ontology import (
    CandidateTriple,
    OntologySchema,
    ValidatedTriple,
    renormalize_candidates,
    schema_to_prompt,
)

log = logging.getLogger(__name__)

_PARAGRAPH_BREAK = re.compile(r"\n[ \t]*\n+")
_SENTENCE_BREAK = re.compile(r"[.!?]+(?=\s)")


@dataclass(frozen=True)
class ChunkingConfig:
    max_chars: int = 1200
    overlap_chars: int = 200
    split_preference: tuple[str, ...] = ("paragraph", "sentence", "hard")

    def __post_init__(self) -> None:
        if self.max_chars <= 0:
            raise ValueError("max_chars must be positive")
        if not 0 <= self.overlap_chars < self.max_chars:
            raise ValueError("overlap_chars must satisfy 0 <= overlap < max_chars")
        unknown = set(self.split_preference) - {"paragraph", "sentence", "hard"}
        if unknown:
            raise ValueError(f"unknown split preference: {sorted(unknown)}")


def _boundary_in(body: str, pattern: re.Pattern, lo: int, hi: int) -> int | None:
    """End offset of the last boundary match ending in (lo, hi], or None."""
    best = None
    for m in pattern.finditer(body, 0, hi):
        end = m.end()
        if end > hi:
            break
        if end > lo:
            best = end
    return best


def chunk_document(document_id: str, body: str, cfg: ChunkingConfig | None = None) -> list[Chunk]:
    """Split a document into overlapping chunks with provenance offsets.

    Every character of the body is covered; consecutive chunks overlap by
    about ``overlap_chars``; no chunk exceeds ``max_chars``. The split point
    is the latest paragraph break in the window, else the latest sentence
    break, else a hard cut at the limit. Offsets strictly increase, so the
    walk always terminates.
    """
    cfg = cfg or ChunkingConfig()
    if not body:
        raise ValueError("document body is empty")
    chunks: list[Chunk] = []
    start = 0
    n = len(body)
    while True:
        hard_end = min(start + cfg.max_chars, n)
        end = hard_end
        if hard_end < n:
            # a usable boundary must leave the next start strictly ahead
            lo = start + cfg.overlap_chars
            for kind in cfg.split_preference:
                if kind == "paragraph":
                    pos = _boundary_in(body, _PARAGRAPH_BREAK, lo, hard_end)
                elif kind == "sentence":
                    pos = _boundary_in(body, _SENTENCE_BREAK, lo, hard_end)
                else:
                    pos = hard_end
                if pos is not None:
                    end = pos
                    break
        chunks.append(
            Chunk(
                id=make_chunk_id(document_id, start),
                document_id=document_id,
                text=body[start:end],
                char_offset=start,
            )
        )
        if end >= n:
            break
        start = max(end - cfg.overlap_chars, start + 1)
    return chunks


# -- chat clients ---------------------------------------------------------------


class ChatClient(ABC):
    """Single-turn completion interface used for extraction and summaries."""

    @abstractmethod
    def complete(self, system_prompt: str, user_prompt: str, temperature: float = 0.0) -> str:
        """Return the raw completion text."""

    def identity(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class StubRule:
    """One deterministic extraction pattern for the offline stub client.

    ``pattern`` is a regex with named groups ``head`` and ``tail``; each match
    in the prompt text emits one protocol line with the fixed types/relation.
    """

    pattern: str
    head_type: str
    relation: str
    tail_type: str
    score: float = 0.0

    def __post_init__(self) -> None:
        try:
            groups = re.compile(self.pattern).groupindex
        except re.error as exc:
            raise ValueError(f"stub rule pattern {self.pattern!r} does not compile: {exc}") from None
        if not {"head", "tail"} <= set(groups):
            raise ValueError(f"stub rule pattern {self.pattern!r} lacks a 'head' or 'tail' group")


class StubChatClient(ChatClient):
    """Rule-based offline extractor. Pure: output depends only on the prompt
    text and the rule table, never on temperature or call order."""

    def __init__(self, rules: Sequence[StubRule]):
        self.rules = list(rules)
        self._compiled = [(re.compile(r.pattern), r) for r in self.rules]

    def complete(self, system_prompt: str, user_prompt: str, temperature: float = 0.0) -> str:
        lines = []
        for regex, rule in self._compiled:
            for m in regex.finditer(user_prompt):
                head = m.group("head").strip()
                tail = m.group("tail").strip()
                lines.append(
                    f"({head} | {rule.head_type} | {rule.relation} | {tail} | {rule.tail_type} | {rule.score})"
                )
        return "\n".join(lines)

    def identity(self) -> str:
        return f"stub-chat({len(self.rules)} rules)"


class HttpChatClient(ChatClient):
    """OpenAI-compatible /chat/completions endpoint."""

    def __init__(
        self,
        endpoint: str | None = None,
        model: str = "",
        api_key: str | None = None,
        timeout: float = 60.0,
    ):
        self.endpoint = (endpoint or os.environ.get("GRAPHRAG_LLM_ENDPOINT") or "").rstrip("/")
        if not self.endpoint:
            raise ClientError("no chat endpoint configured (GRAPHRAG_LLM_ENDPOINT)")
        self.model = model
        self.api_key = api_key or os.environ.get("GRAPHRAG_LLM_KEY")
        self.timeout = timeout

    def complete(self, system_prompt: str, user_prompt: str, temperature: float = 0.0) -> str:
        body = post_json(
            f"{self.endpoint}/chat/completions",
            {
                "model": self.model,
                "messages": [
                    {"role": "system", "content": system_prompt},
                    {"role": "user", "content": user_prompt},
                ],
                "temperature": temperature,
            },
            api_key=self.api_key,
            timeout=self.timeout,
        )
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ClientError(f"malformed chat response: {exc}") from exc
        if not isinstance(content, str):
            raise ClientError("chat response content is not text")
        return content

    def identity(self) -> str:
        return f"http-chat({self.model})"


# -- parsing ---------------------------------------------------------------------


def parse_triples(output: str, source_chunk: str = "") -> tuple[list[CandidateTriple], list[str]]:
    """Parse protocol lines ``(head | head_type | relation | tail | tail_type
    | score?)``. Malformed lines are skipped with a diagnostic, never fatal.
    A missing score parses as 0.0."""
    candidates: list[CandidateTriple] = []
    diagnostics: list[str] = []
    for lineno, raw in enumerate(output.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not (line.startswith("(") and line.endswith(")")):
            diagnostics.append(f"line {lineno}: not a triple: {line[:80]!r}")
            continue
        parts = [p.strip() for p in line[1:-1].split("|")]
        if len(parts) not in (5, 6):
            diagnostics.append(f"line {lineno}: expected 5 or 6 fields, got {len(parts)}")
            continue
        score = 0.0
        if len(parts) == 6:
            try:
                score = float(parts[5])
            except ValueError:
                diagnostics.append(f"line {lineno}: unparseable score {parts[5]!r}")
                continue
            if not math.isfinite(score):
                diagnostics.append(f"line {lineno}: non-finite score {parts[5]!r}")
                continue
        try:
            candidates.append(
                CandidateTriple(
                    head_name=parts[0],
                    head_type=parts[1],
                    relation=parts[2],
                    tail_name=parts[3],
                    tail_type=parts[4],
                    lm_score=score,
                    source_chunk=source_chunk,
                )
            )
        except ValueError as exc:
            diagnostics.append(f"line {lineno}: {exc}")
    return candidates, diagnostics


def extract_chunk(
    chunk: Chunk,
    schema: OntologySchema,
    client: ChatClient,
    *,
    enforce_schema: bool = True,
) -> list[ValidatedTriple]:
    """Run one chunk through the model and the schema filter.

    An output with no parseable candidates, or whose candidates all fail
    validation, yields an empty list (logged), not an error. Transport
    failures propagate as ClientError.
    """
    system = schema_to_prompt(schema)
    output = client.complete(system, chunk.text, temperature=0.0)
    candidates, diagnostics = parse_triples(output, source_chunk=chunk.id)
    for d in diagnostics:
        log.info("chunk %s: %s", chunk.id, d)
    if not candidates:
        log.info("chunk %s: no parseable candidate triples", chunk.id)
        return []
    try:
        return renormalize_candidates(candidates, schema, enforce=enforce_schema)
    except EmptyValidSetError:
        log.info("chunk %s: all %d candidates failed schema validation", chunk.id, len(candidates))
        return []


# -- indexing ----------------------------------------------------------------------


@dataclass
class IndexingConfig:
    chunking: ChunkingConfig = field(default_factory=ChunkingConfig)
    attribute_relations: dict[str, str] = field(default_factory=dict)
    max_failure_fraction: float = 0.2
    max_workers: int = 4
    enforce_schema: bool = True


def index_corpus(
    documents: Sequence[tuple[str, str]] | Mapping[str, str],
    schema: OntologySchema,
    client: ChatClient,
    cfg: IndexingConfig | None = None,
) -> KnowledgeGraph:
    """Chunk, extract, and assemble the knowledge graph for a corpus.

    Chunks are extracted concurrently but committed in (document, offset)
    order, so the result is reproducible for any deterministic client.
    Relations named in ``attribute_relations`` additionally project the tail
    name onto the head node as an attribute value. Raises IndexingError for
    an empty corpus or when more than ``max_failure_fraction`` of chunks fail.
    """
    cfg = cfg or IndexingConfig()
    if isinstance(documents, Mapping):
        documents = sorted(documents.items())
    documents = list(documents)
    if not documents:
        raise IndexingError("corpus is empty")
    seen_docs = set()
    all_chunks: list[Chunk] = []
    for doc_id, body in documents:
        if doc_id in seen_docs:
            raise IndexingError(f"duplicate document id {doc_id!r}")
        seen_docs.add(doc_id)
        all_chunks.extend(chunk_document(doc_id, body, cfg.chunking))

    results: dict[str, list[ValidatedTriple]] = {}
    failures: dict[str, str] = {}

    def run(chunk: Chunk) -> tuple[str, list[ValidatedTriple] | None, str | None]:
        try:
            return chunk.id, extract_chunk(chunk, schema, client, enforce_schema=cfg.enforce_schema), None
        except Exception as exc:  # client/transport faults; counted against the budget
            return chunk.id, None, f"{type(exc).__name__}: {exc}"

    workers = max(1, min(cfg.max_workers, len(all_chunks)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for chunk_id, triples, err in pool.map(run, all_chunks):
            if err is None:
                results[chunk_id] = triples or []
            else:
                failures[chunk_id] = err
                log.warning("chunk %s failed: %s", chunk_id, err)

    if failures and len(failures) / len(all_chunks) > cfg.max_failure_fraction:
        sample = "; ".join(f"{k}: {v}" for k, v in sorted(failures.items())[:3])
        raise IndexingError(
            f"{len(failures)}/{len(all_chunks)} chunks failed extraction "
            f"(threshold {cfg.max_failure_fraction:.0%}): {sample}"
        )

    graph = KnowledgeGraph(
        entity_types=schema.entity_types if cfg.enforce_schema else None,
        schema_version=schema.version,
    )
    attr_map = {k.casefold(): v for k, v in cfg.attribute_relations.items()}
    for chunk in sorted(all_chunks, key=lambda c: (c.document_id, c.char_offset)):
        graph.add_chunk(chunk)
        for triple in results.get(chunk.id, ()):
            head = graph.upsert_node(triple.head_name, triple.head_type, chunk=chunk.id)
            tail = graph.upsert_node(triple.tail_name, triple.tail_type, chunk=chunk.id)
            graph.add_edge(head, triple.relation, tail, chunk=chunk.id)
            attr_key = attr_map.get(triple.relation.casefold())
            if attr_key:
                graph.upsert_node(
                    triple.head_name,
                    triple.head_type,
                    attributes={attr_key: triple.tail_name},
                    chunk=chunk.id,
                )
    return graph

