"""Orchestration for the four pipeline stages: index, cluster, retrieve, eval.

An index directory is self-contained:

    manifest.json          build record: format version, counts, artifact digests
    graph.jsonl            nodes and edges
    chunks.jsonl           chunk columns: ids, documents, offsets, text ends
    chunks.txt             every chunk text joined in chunk id order
    embeddings.npy         one float64 row per chunk, in chunk id order
    communities.jsonl      community columns: ids, dimensions, members, edges
    reports.jsonl          report columns: titles, summaries, entities, sources
    report_embeddings.npy  one float64 row per community report, in id order
    eval_report.json       benchmark metrics (written by eval, plus a .txt table)

Every ``.jsonl`` artifact is a ``meta`` record carrying
``records.FORMAT_VERSION``, which the manifest also carries, then records of
parallel columns, and ``records.read_columns`` reads all four. The
``text_end`` column of ``chunks.jsonl`` cuts ``chunks.txt``, the chunk texts
as one UTF-8 text. Both ``.npy`` files are little-endian float64 matrices in
numpy's ``.npy`` format, written without pickling by ``_embeddings_bytes``
and read by ``_load_matrix``; their rows follow
``KnowledgeGraph.chunk_ids()`` and the community ids, so they need no ids of
their own. ``load_communities`` builds the communities but no report:
retrieval reads only the report embeddings. The corpus and benchmark input
files go through ``records``' input reader. Every artifact is
byte-deterministic for a fixed config and corpus; the only run-dependent
field is the manifest's ``created_at`` timestamp. A failed build raises
before anything is written.

The manifest binds the artifacts together by sha256. ``build_index`` records
the digests of the graph, the two chunk files and the embedding file;
``run_clustering`` then rewrites the manifest with the digests of the
communities, reports and report embeddings and of the graph they were
clustered from. ``_publish`` writes both stages' files and then the
manifest. Loading checks the digest of every artifact it reads, and an
artifact without one is refused. The config hash and client identities go
to the eval report, not the manifest: the hash also covers query-time
settings such as ``fusion``, so it cannot tell a stale index from a retuned
query. The load-time guard against a changed embedder is the
``clients.embed_dim`` check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import logging
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

import numpy as np

from .community import (
    ClusterParams,
    Community,
    CommunityReport,
    attribute_cluster,
    communities_from_partition,
    complete_community,
    generate_report,
    louvain_cluster,
    multihop_subgraph,
)
from .config import ClientConfig, PipelineConfig
from .embedding import (
    EmbeddingClient,
    HashingEmbedder,
    HttpEmbeddingClient,
    HttpRerankClient,
    RerankClient,
    TokenOverlapReranker,
    VectorStore,
)
from .errors import BenchmarkError, ConfigError, GraphFormatError, IndexingError
from .evaluation import MetricsReport, aggregate, load_benchmark, score_retrieval
from .extraction import ChatClient, HttpChatClient, StubChatClient, index_corpus
from .graph_store import (
    CHUNKS_NAME,
    CHUNKS_TEXT_NAME,
    GRAPH_NAME,
    KnowledgeGraph,
    load_chunks,
    load_graph,
    save_chunks,
    save_graph,
)
from .ontology import OntologySchema, load_schema
from .records import FORMAT_VERSION, dump_jsonl, ints, lists_of, read_columns, read_input, str_lists, strs
from .retrieval import IndexBundle, RetrievalResponse, retrieve

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
EMBEDDINGS_NAME = "embeddings.npy"
COMMUNITIES_NAME = "communities.jsonl"
REPORTS_NAME = "reports.jsonl"
REPORT_EMBEDDINGS_NAME = "report_embeddings.npy"


# -- corpus ---------------------------------------------------------------------------


def read_corpus(path: Path) -> list[tuple[str, str]]:
    """Load (document_id, text) pairs from a directory of .txt/.md files or a
    JSON/JSONL file whose records carry an id (doc_id/id/title) and a text
    (text/body/passage) field."""
    path = Path(path)
    documents: list[tuple[str, str]] = []
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.suffix in (".txt", ".md"))
        for p in files:
            try:
                documents.append((p.stem, p.read_text("utf-8")))
            except UnicodeDecodeError as exc:
                raise IndexingError(f"{p}: not UTF-8 text ({exc.reason})") from exc
    elif path.is_file():
        for i, record in enumerate(read_input(path, IndexingError)):
            if not isinstance(record, dict):
                raise IndexingError(f"{path}: document {i} is not an object")
            doc_id = record.get("doc_id") or record.get("id") or record.get("title")
            text = record.get("text") or record.get("body") or record.get("passage")
            if not doc_id or not isinstance(text, str) or not text.strip():
                raise IndexingError(f"{path}: document {i} lacks an id or text field")
            doc_id = str(doc_id)
            for name, value in (("id", doc_id), ("text", text)):
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError as exc:
                    # a JSON escape such as "\ud800" decodes to a lone
                    # surrogate, which no artifact can store as UTF-8
                    raise IndexingError(
                        f"{path}: document {i} {name} holds a lone surrogate at offset {exc.start}"
                    ) from exc
            documents.append((doc_id, text))
    else:
        raise ConfigError(f"corpus not found: {path}")
    if not documents:
        raise IndexingError(f"corpus at {path} contains no documents")
    return documents


# -- clients --------------------------------------------------------------------------


@dataclass
class Clients:
    chat: ChatClient
    embed: EmbeddingClient
    rerank: RerankClient
    mode: str

    def identities(self) -> dict:
        embed_name = type(self.embed).__name__
        if isinstance(self.embed, HashingEmbedder):
            embed_name = f"hashing-{self.embed.dim}"
        return {
            "mode": self.mode,
            "chat": self.chat.identity(),
            "embed": embed_name,
            "rerank": type(self.rerank).__name__,
        }


def make_clients(cfg: ClientConfig) -> Clients:
    if cfg.mode == "http":
        chat: ChatClient = HttpChatClient(
            endpoint=cfg.chat_endpoint, model=cfg.chat_model, timeout=cfg.timeout
        )
        embed: EmbeddingClient = HttpEmbeddingClient(
            endpoint=cfg.embed_endpoint, model=cfg.embed_model,
            dim=cfg.embed_dim, timeout=cfg.timeout,
        )
        rerank: RerankClient = HttpRerankClient(
            endpoint=cfg.rerank_endpoint, timeout=cfg.timeout
        )
    else:
        chat = StubChatClient(cfg.stub_rules)
        embed = HashingEmbedder(cfg.embed_dim)
        rerank = TokenOverlapReranker()
    return Clients(chat=chat, embed=embed, rerank=rerank, mode=cfg.mode)


# -- index stage ----------------------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dump_json(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _write_atomic(path: Path, data: bytes) -> None:
    """Put ``data`` at ``path`` through a temp file in the same directory and
    ``os.replace``, so the artifact is either its old bytes or its new ones,
    never a partial write. A failed write leaves no temp file behind. The
    data is not fsynced: this guards against a crash of the process, not a
    loss of power."""
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _embeddings_bytes(texts: list[str], embed: EmbeddingClient, dim: int) -> bytes:
    """The vectors of ``texts``, embedded in one ``embed`` call, as one
    little-endian float64 ``.npy`` matrix whose row i embeds ``texts[i]``."""
    matrix = np.array(embed.embed(texts) if texts else [], dtype="<f8").reshape(len(texts), dim)
    buffer = io.BytesIO()
    np.save(buffer, matrix, allow_pickle=False)
    return buffer.getvalue()


def _publish(out: Path, files: dict[str, bytes], manifest: dict) -> dict:
    """Write ``files`` into ``out``, then ``manifest`` with their digests
    added to its artifacts, and return that manifest. The manifest goes
    last: until it lands, the digests of the old one reject a half-replaced
    index."""
    digests = {name: _sha256(data) for name, data in files.items()}
    manifest = dict(manifest, artifacts={**manifest.get("artifacts", {}), **digests})
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        _write_atomic(out / name, data)
    _write_atomic(out / MANIFEST_NAME, _dump_json(manifest))
    return manifest


def build_index(
    cfg: PipelineConfig,
    *,
    force: bool = False,
    index_dir: Path | None = None,
) -> dict:
    """Run extraction over the corpus and write the index directory.

    Refuses to overwrite an existing index unless ``force``. All artifact
    bytes are produced (and the graph audited) before the first write, so a
    failure leaves no partial index behind.
    """
    out = Path(index_dir) if index_dir is not None else cfg.index_dir
    if (out / MANIFEST_NAME).exists() and not force:
        raise ConfigError(f"index already exists at {out}; pass --force to rebuild")
    if not cfg.schema_path.is_file():
        raise ConfigError(f"schema file not found: {cfg.schema_path}")

    schema = load_schema(cfg.schema_path.read_bytes())
    documents = read_corpus(cfg.corpus_path)
    clients = make_clients(cfg.clients)
    indexing = cfg.indexing
    if "schema" in cfg.ablate:
        indexing = dataclasses.replace(indexing, enforce_schema=False)

    graph = index_corpus(documents, schema, clients.chat, indexing)
    problems = graph.audit()
    if problems:
        raise IndexingError("graph audit failed: " + "; ".join(problems))
    if graph.node_count == 0:
        raise IndexingError("extraction produced no entities; check the schema and extraction rules")

    graph_bytes = save_graph(graph)
    chunk_bytes, chunk_text_bytes = save_chunks(graph)
    texts = [graph.chunk(cid).text for cid in graph.chunk_ids()]
    files = {
        GRAPH_NAME: graph_bytes,
        CHUNKS_NAME: chunk_bytes,
        CHUNKS_TEXT_NAME: chunk_text_bytes,
        EMBEDDINGS_NAME: _embeddings_bytes(texts, clients.embed, cfg.clients.embed_dim),
    }
    manifest = {
        "format_version": FORMAT_VERSION,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "schema_version": schema.version,
        "ablate": sorted(cfg.ablate),
        "counts": {
            "documents": len(documents),
            "chunks": graph.chunk_count,
            "nodes": graph.node_count,
            "edges": graph.edge_count,
        },
    }

    if force:
        # stale derived artifacts describe the index being replaced
        for name in (COMMUNITIES_NAME, REPORTS_NAME, REPORT_EMBEDDINGS_NAME, "eval_report.json", "eval_report.txt"):
            (out / name).unlink(missing_ok=True)
    manifest = _publish(out, files, manifest)
    log.info(
        "indexed %d documents into %s: %d chunks, %d nodes, %d edges",
        len(documents), out, graph.chunk_count, graph.node_count, graph.edge_count,
    )
    return manifest


# -- index loading --------------------------------------------------------------------


def read_manifest(index_dir: Path) -> dict:
    path = Path(index_dir) / MANIFEST_NAME
    if not path.is_file():
        raise ConfigError(f"no index at {index_dir}; run `graphrag index` first")
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: corrupt manifest ({exc.msg})") from exc
    if not isinstance(manifest, dict):
        raise GraphFormatError(f"{path}: unsupported manifest format")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise GraphFormatError(
            f"{path}: index format {manifest.get('format_version')!r}, but this version reads "
            f"format {FORMAT_VERSION}; rebuild with --force"
        )
    artifacts = manifest.get("artifacts")
    if not isinstance(artifacts, dict) or not strs(artifacts.values()):
        raise GraphFormatError(f"{path}: artifacts is not a map of artifact names to digest strings")
    if type(manifest.get("clustered_from")) not in (str, type(None)):
        raise GraphFormatError(f"{path}: clustered_from is not a digest string")
    return manifest


def _verified_bytes(index_dir: Path, name: str, manifest: dict) -> bytes:
    """The bytes of artifact ``name``, which must match its digest in
    ``manifest``. Every stage that writes an artifact records its digest, so
    a missing digest is refused, not taken as a pass."""
    path = Path(index_dir) / name
    if not path.is_file():
        raise ConfigError(f"index at {index_dir} is missing {name}; rebuild with --force")
    expected = manifest["artifacts"].get(name)
    if expected is None:
        raise GraphFormatError(f"{Path(index_dir) / MANIFEST_NAME}: no digest for {name}; rebuild with --force")
    data = path.read_bytes()
    if _sha256(data) != expected:
        raise GraphFormatError(f"{path}: content does not match the manifest digest; rebuild with --force")
    return data


def load_index_graph(index_dir: Path) -> tuple[KnowledgeGraph, dict]:
    manifest = read_manifest(index_dir)
    graph = load_graph(_verified_bytes(index_dir, GRAPH_NAME, manifest))
    load_chunks(
        _verified_bytes(index_dir, CHUNKS_NAME, manifest),
        _verified_bytes(index_dir, CHUNKS_TEXT_NAME, manifest),
        into=graph,
    )
    return graph, manifest


def _load_matrix(index_dir: Path, manifest: dict, name: str, rows: int, what: str) -> np.ndarray:
    """Read the ``.npy`` artifact ``name`` as a matrix of ``rows`` rows, one
    for each of ``what`` (say, "chunks of chunks.jsonl").

    The header is checked before any data is touched: a version 1.0 file
    holding a C-ordered little-endian float64 matrix with ``rows`` rows,
    followed by exactly the bytes that shape needs. So a corrupt shape can
    never size an allocation and nothing is ever unpickled. The matrix is a
    read-only view of the file's bytes, and every value must be finite."""
    data = _verified_bytes(index_dir, name, manifest)
    buffer = io.BytesIO(data)
    try:
        version = np.lib.format.read_magic(buffer)
        if version != (1, 0):
            raise ValueError(f"format version {version}, expected (1, 0)")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(buffer)
    except ValueError as exc:
        raise GraphFormatError(f"{name}: malformed .npy header ({exc})") from exc
    if dtype != np.dtype("<f8") or fortran_order or len(shape) != 2:
        raise GraphFormatError(
            f"{name}: holds a {dtype.str} array of shape {shape}"
            f"{' in Fortran order' if fortran_order else ''}, not a C-ordered <f8 matrix"
        )
    if shape[0] != rows:
        raise GraphFormatError(f"{name}: {shape[0]} rows for the {rows} {what}; rebuild with --force")
    offset, size = buffer.tell(), shape[0] * shape[1] * dtype.itemsize
    if len(data) - offset != size:
        raise GraphFormatError(f"{name}: {len(data) - offset} data bytes where shape {shape} needs {size}")
    matrix = np.frombuffer(data, dtype=dtype, count=shape[0] * shape[1], offset=offset).reshape(shape)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise GraphFormatError(f"{name}: row {int(np.argmin(finite))} holds a non-finite value")
    return matrix


# -- cluster stage --------------------------------------------------------------------


def _resolve_root(graph: KnowledgeGraph, name: str) -> list[int]:
    ids = graph.find_nodes(name)
    if not ids:
        raise ConfigError(f"multihop root {name!r} does not name a graph node")
    return list(ids)


def build_communities(cfg: PipelineConfig, graph: KnowledgeGraph) -> list[Community]:
    """All community dimensions over one graph, with dense global ids:
    completed topology clusters first, then one batch per attribute key, then
    the configured multi-hop neighborhoods."""
    params = cfg.clustering.params
    partition = louvain_cluster(graph, params)
    communities = [
        complete_community(graph, community, params.tau)
        for community in communities_from_partition(graph, partition)
    ]
    for key in cfg.clustering.attribute_keys:
        communities.extend(attribute_cluster(graph, key, min_size=params.min_community_size))
    for spec in cfg.clustering.multihop:
        for root_id in _resolve_root(graph, spec.root):
            communities.append(
                multihop_subgraph(graph, root_id, spec.hops, spec.patterns)
            )
    return [dataclasses.replace(c, id=i) for i, c in enumerate(communities)]


def run_clustering(
    cfg: PipelineConfig,
    *,
    force: bool = False,
    index_dir: Path | None = None,
) -> dict:
    """Cluster an existing index and write communities, reports and report
    embeddings, then bind them to the index by rewriting its manifest with
    their digests and the digest of the graph they were clustered from.

    The report summaries are embedded in one batch. Embedding failures are
    not swallowed: retrieval cannot use an unembedded report."""
    out = Path(index_dir) if index_dir is not None else cfg.index_dir
    if (out / COMMUNITIES_NAME).exists() and not force:
        raise ConfigError(f"communities already exist at {out}; pass --force to recluster")
    graph, manifest = load_index_graph(out)
    clients = make_clients(cfg.clients)
    communities = build_communities(cfg, graph)

    chat = clients.chat if cfg.clients.mode == "http" else None
    reports = [generate_report(c, graph, chat) for c in communities]

    community_bytes, report_bytes = save_communities(communities, reports, cfg.clustering.params)
    files = {
        COMMUNITIES_NAME: community_bytes,
        REPORTS_NAME: report_bytes,
        REPORT_EMBEDDINGS_NAME: _embeddings_bytes([r.summary for r in reports], clients.embed, cfg.clients.embed_dim),
    }
    _publish(out, files, dict(manifest, clustered_from=manifest["artifacts"][GRAPH_NAME]))

    by_dimension: dict[str, int] = {}
    for c in communities:
        family = c.dimension.split(":", 1)[0]
        by_dimension[family] = by_dimension.get(family, 0) + 1
    summary = {"communities": len(communities), "by_dimension": by_dimension}
    log.info("wrote %d communities to %s (%s)", len(communities), out, by_dimension)
    return summary


def _edge_keys(keys: Iterable) -> bool:
    return all(type(key) is list and tuple(map(type, key)) == (int, int, str) for key in keys)


# The one record of columns in each cluster artifact, for ``records.read_columns``.
_COMMUNITY_SECTIONS = (
    ("communities", "count", (
        ("id", ints, "an integer"),
        ("dimension", strs, "a string"),
        ("label", strs, "a string"),
        ("members", lists_of(ints), "a list of integers"),
        ("completed_members", lists_of(ints), "a list of integers"),
        ("internal_edges", lists_of(_edge_keys), "a list of [head, tail, relation] edge keys"),
    )),
)
_REPORT_SECTIONS = (
    ("reports", "count", (
        ("community_id", ints, "an integer"),
        ("title", strs, "a string"),
        ("summary", strs, "a string"),
        ("dimension", strs, "a string"),
        ("entities", str_lists, "a list of strings"),
        ("relations", str_lists, "a list of strings"),
        ("source_chunks", str_lists, "a list of strings"),
    )),
)


def save_communities(communities: list[Community], reports: list[CommunityReport],
                     params: ClusterParams) -> tuple[bytes, bytes]:
    """The bytes of ``communities.jsonl`` and of ``reports.jsonl``: each a
    meta record, then one record of columns whose row i describes
    ``communities[i]`` and ``reports[i]``. The report embeddings are not
    among them; ``run_clustering`` writes them to report_embeddings.npy."""
    community_meta = {"kind": "meta", "format_version": FORMAT_VERSION, "count": len(communities),
                      "params": dataclasses.asdict(params)}
    community_columns = {
        "kind": "communities",
        "id": [c.id for c in communities],
        "dimension": [c.dimension for c in communities],
        "label": [c.label for c in communities],
        "members": [sorted(c.members) for c in communities],
        "completed_members": [sorted(c.completed_members) for c in communities],
        "internal_edges": [c.internal_edges for c in communities],
    }
    report_meta = {"kind": "meta", "format_version": FORMAT_VERSION, "count": len(reports)}
    keys = [field.name for field in dataclasses.fields(CommunityReport)]
    report_columns = {"kind": "reports", **{key: [getattr(r, key) for r in reports] for key in keys}}
    return dump_jsonl([community_meta, community_columns]), dump_jsonl([report_meta, report_columns])


def load_communities(index_dir: Path, manifest: dict) -> tuple[list[Community], np.ndarray]:
    """The communities of communities.jsonl, and the report embeddings of
    report_embeddings.npy as one ``(count, dimension)`` float64 matrix whose
    row i belongs to community i: no report is built, as retrieval reads
    only the embeddings. All three files must match their digests in
    ``manifest``, which must record that they were clustered from its
    graph.jsonl. Beyond ``records.read_columns``' checks, the community ids
    are exactly 0 to count - 1, each community's members are a non-empty
    subset of its completed members, the reports' ``community_id`` column
    equals the ``id`` column, and the matrix passes ``_load_matrix`` with a
    row per community.
    """
    out = Path(index_dir)
    if not all((out / name).is_file() for name in (COMMUNITIES_NAME, REPORTS_NAME)):
        raise ConfigError(f"no communities at {out}; run `graphrag cluster` first")
    if manifest.get("clustered_from") != manifest["artifacts"].get(GRAPH_NAME):
        raise GraphFormatError(
            f"index at {out}: {COMMUNITIES_NAME} and {REPORTS_NAME} were not clustered from its "
            f"{GRAPH_NAME}; rebuild with --force"
        )

    data = _verified_bytes(out, COMMUNITIES_NAME, manifest)
    _, [(ids, dimensions, labels, members, completed, edges)] = read_columns(
        data, COMMUNITIES_NAME, _COMMUNITY_SECTIONS
    )
    where = f"{COMMUNITIES_NAME}:2"
    if ids != list(range(len(ids))):
        raise GraphFormatError(f"{where}: column 'id' is not 0 to {len(ids) - 1} in order")
    members, completed = list(map(frozenset, members)), list(map(frozenset, completed))
    bad = next((row for row, (m, c) in enumerate(zip(members, completed)) if not m or not m <= c), None)
    if bad is not None:
        raise GraphFormatError(f"{where}: column 'members' is empty or not within 'completed_members' in row {bad}")

    data = _verified_bytes(out, REPORTS_NAME, manifest)
    _, [(community_ids, *_)] = read_columns(data, REPORTS_NAME, _REPORT_SECTIONS)
    if community_ids != ids:
        raise GraphFormatError(f"{REPORTS_NAME}:2: column 'community_id' is not the 'id' column of {COMMUNITIES_NAME}")
    matrix = _load_matrix(out, manifest, REPORT_EMBEDDINGS_NAME, len(ids), f"communities of {COMMUNITIES_NAME}")

    internal_edges = [tuple(map(tuple, keys)) for keys in edges]
    return list(map(Community, ids, dimensions, members, completed, internal_edges, labels)), matrix


# -- query stages ---------------------------------------------------------------------


def _check_provenance(out: Path, graph: KnowledgeGraph) -> None:
    """Every node's provenance must name a chunk of chunks.jsonl, so the
    chunk-store rows index every chunk the retrieval channels can reach."""
    chunk_ids = set(graph.chunk_ids())
    unknown = set().union(*(node.source_chunks for node in graph.nodes())) - chunk_ids
    if unknown:
        raise GraphFormatError(
            f"index at {out}: {GRAPH_NAME} cites {len(unknown)} chunk id(s) missing from "
            f"{CHUNKS_NAME}, e.g. {sorted(unknown)[:3]}; rebuild with --force"
        )


def _check_community_members(graph: KnowledgeGraph, communities: list[Community]) -> None:
    """Every community member must be a graph node. The communities are the
    columns on line 2 of communities.jsonl."""
    nodes = set(graph.node_ids())
    for community in communities:
        unknown = sorted(community.completed_members - nodes)
        if unknown:
            raise GraphFormatError(
                f"{COMMUNITIES_NAME}:2: community {community.id} names unknown node {unknown[0]}"
            )


def load_bundle(cfg: PipelineConfig, index_dir: Path | None = None) -> IndexBundle:
    out = Path(index_dir) if index_dir is not None else cfg.index_dir
    graph, manifest = load_index_graph(out)
    _check_provenance(out, graph)
    chunk_ids = graph.chunk_ids()
    chunk_store = VectorStore.from_matrix(
        chunk_ids, _load_matrix(out, manifest, EMBEDDINGS_NAME, len(chunk_ids), f"chunks of {CHUNKS_NAME}")
    )
    communities, report_embeddings = load_communities(out, manifest)
    dims = {chunk_store.dim, report_embeddings.shape[1]}
    if dims != {cfg.clients.embed_dim}:
        raise ConfigError(
            f"index at {out} holds {'- and '.join(map(str, sorted(dims)))}-dimensional embeddings but "
            f"clients.embed_dim is {cfg.clients.embed_dim}; rebuild the index or fix the config"
        )
    _check_community_members(graph, communities)
    return IndexBundle.assemble(graph, communities, report_embeddings, chunk_store)


def run_retrieve(
    cfg: PipelineConfig,
    query: str,
    *,
    k: int | None = None,
    index_dir: Path | None = None,
    extra_ablate: tuple[str, ...] = (),
) -> RetrievalResponse:
    ablate = set(cfg.ablate) | set(extra_ablate)
    bundle = load_bundle(cfg, index_dir)
    clients = make_clients(cfg.clients)
    return retrieve(
        query,
        bundle,
        clients.embed,
        clients.rerank,
        cfg.fusion,
        final_k=k,
        ablate_graph="graph" in ablate,
        ablate_community="community" in ablate,
    )


def run_eval(
    cfg: PipelineConfig,
    benchmark_path: str | Path,
    *,
    index_dir: Path | None = None,
    extra_ablate: tuple[str, ...] = (),
) -> MetricsReport:
    """Score every benchmark query against the index and write the report.

    Internal consistency (each F1 cell equal to the harmonic mean of its row)
    is re-verified before anything is written.
    """
    ablate = tuple(sorted(set(cfg.ablate) | set(extra_ablate)))
    out = Path(index_dir) if index_dir is not None else cfg.index_dir
    bundle = load_bundle(cfg, out)
    clients = make_clients(cfg.clients)
    _, queries, diagnostics = load_benchmark(str(benchmark_path))

    scores = []
    for query in queries:
        response = retrieve(
            query.question,
            bundle,
            clients.embed,
            clients.rerank,
            cfg.fusion,
            ablate_graph="graph" in ablate,
            ablate_community="community" in ablate,
        )
        relevancy, recall = score_retrieval(response.results, query)
        scores.append((query.query_type, relevancy, recall))

    metadata = {
        "config_hash": cfg.hash(),
        "benchmark": Path(benchmark_path).name,
        "queries": len(queries),
        "ablate": list(ablate),
        "clients": clients.identities(),
        "scorer": "evidence-containment",
    }
    report = aggregate(scores, metadata)
    report.diagnostics.extend(diagnostics)
    problems = report.verify()
    if problems:
        raise BenchmarkError("metrics failed self-check: " + "; ".join(problems))

    _write_atomic(out / "eval_report.json", _dump_json(report.to_dict()))
    table = report.render_table()
    if report.diagnostics:
        table += "\n\n" + "\n".join(f"note: {d}" for d in report.diagnostics)
    _write_atomic(out / "eval_report.txt", (table + "\n").encode("utf-8"))
    return report
