"""Orchestration for the four pipeline stages: index, cluster, retrieve, eval.

An index directory is self-contained:

    manifest.json       build record: format version, counts, artifact digests
    graph.jsonl         nodes and edges
    chunks.jsonl        chunk columns: ids, documents, offsets, text ends
    chunks.txt          every chunk text joined in chunk id order
    embeddings.npy      one float64 row per chunk, in chunk id order
    communities.jsonl   community memberships (written by cluster)
    reports.jsonl       community reports with embeddings (written by cluster)
    eval_report.json    benchmark metrics (written by eval, plus a .txt table)

Every ``.jsonl`` artifact is written and read by the one codec in
``records``: one compact JSON object per line behind a ``meta`` record that
carries ``records.FORMAT_VERSION``, the single format version, which the
manifest also carries. ``chunks.jsonl`` holds a single record of columns
whose ``text_end`` cuts ``chunks.txt``, the chunk texts as one UTF-8 text,
so a load parses one line and builds no per-chunk object.
``embeddings.npy`` is a little-endian float64 matrix in numpy's ``.npy``
format, written without pickling; its rows follow
``KnowledgeGraph.chunk_ids()``, so it needs no ids of its own. The corpus and
benchmark input files go through ``records``' input reader. Every artifact is
byte-deterministic for a fixed config and corpus; the only run-dependent
field is the manifest's ``created_at`` timestamp. A failed build raises
before anything is written.

The manifest binds the artifacts together by sha256. ``build_index`` records
the digests of the graph, the two chunk files and the embedding file;
``run_clustering`` then rewrites the manifest with the digests of the
communities and reports and of the graph they were clustered from. Loading
checks every digest the manifest holds. The config hash and client
identities go to the eval report, not the manifest: the hash also covers
query-time settings such as ``fusion``, so it cannot tell a stale index
from a retuned query. The load-time guard against a changed embedder is
the ``clients.embed_dim`` check.
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

import numpy as np

from .community import (
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
from .records import FORMAT_VERSION, dump_jsonl, read_artifact, read_input
from .retrieval import IndexBundle, RetrievalResponse, retrieve

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
EMBEDDINGS_NAME = "embeddings.npy"
COMMUNITIES_NAME = "communities.jsonl"
REPORTS_NAME = "reports.jsonl"


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
            documents.append((str(doc_id), text))
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


def _embeddings_bytes(graph: KnowledgeGraph, embed: EmbeddingClient, dim: int) -> bytes:
    """The chunk vectors as one little-endian float64 ``.npy`` matrix whose
    row i embeds ``graph.chunk_ids()[i]``."""
    texts = [graph.chunk(cid).text for cid in graph.chunk_ids()]
    matrix = np.array(embed.embed(texts) if texts else [], dtype="<f8").reshape(len(texts), dim)
    buffer = io.BytesIO()
    np.save(buffer, matrix, allow_pickle=False)
    return buffer.getvalue()


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
    embedding_bytes = _embeddings_bytes(graph, clients.embed, cfg.clients.embed_dim)

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
        "artifacts": {
            GRAPH_NAME: _sha256(graph_bytes),
            CHUNKS_NAME: _sha256(chunk_bytes),
            CHUNKS_TEXT_NAME: _sha256(chunk_text_bytes),
            EMBEDDINGS_NAME: _sha256(embedding_bytes),
        },
    }

    out.mkdir(parents=True, exist_ok=True)
    if force:
        # stale derived artifacts describe the index being replaced
        for name in (COMMUNITIES_NAME, REPORTS_NAME, "eval_report.json", "eval_report.txt"):
            stale = out / name
            if stale.exists():
                stale.unlink()
    # the manifest goes last: until it lands, the digests of the old one
    # reject a half-replaced index
    _write_atomic(out / GRAPH_NAME, graph_bytes)
    _write_atomic(out / CHUNKS_NAME, chunk_bytes)
    _write_atomic(out / CHUNKS_TEXT_NAME, chunk_text_bytes)
    _write_atomic(out / EMBEDDINGS_NAME, embedding_bytes)
    _write_atomic(out / MANIFEST_NAME, _dump_json(manifest))
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
    return manifest


def _verified_bytes(index_dir: Path, name: str, manifest: dict) -> bytes:
    path = Path(index_dir) / name
    if not path.is_file():
        raise ConfigError(f"index at {index_dir} is missing {name}; rebuild with --force")
    data = path.read_bytes()
    expected = manifest.get("artifacts", {}).get(name)
    if expected and _sha256(data) != expected:
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


def _load_embeddings(index_dir: Path, manifest: dict, chunk_ids: list[str]) -> VectorStore:
    """Read embeddings.npy into a chunk store whose row i is ``chunk_ids[i]``.

    The header is checked before any data is touched: a version 1.0 file
    holding a C-ordered little-endian float64 matrix with one row per chunk,
    followed by exactly the bytes that shape needs. So a corrupt shape can
    never size an allocation and nothing is ever unpickled. The rows are a
    read-only view of the file's bytes, and every value must be finite."""
    data = _verified_bytes(index_dir, EMBEDDINGS_NAME, manifest)
    buffer = io.BytesIO(data)
    try:
        version = np.lib.format.read_magic(buffer)
        if version != (1, 0):
            raise ValueError(f"format version {version}, expected (1, 0)")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(buffer)
    except ValueError as exc:
        raise GraphFormatError(f"{EMBEDDINGS_NAME}: malformed .npy header ({exc})") from exc
    if dtype != np.dtype("<f8") or fortran_order or len(shape) != 2:
        raise GraphFormatError(
            f"{EMBEDDINGS_NAME}: holds a {dtype.str} array of shape {shape}"
            f"{' in Fortran order' if fortran_order else ''}, not a C-ordered <f8 matrix"
        )
    if shape[0] != len(chunk_ids):
        raise GraphFormatError(
            f"{EMBEDDINGS_NAME}: {shape[0]} rows for the {len(chunk_ids)} chunks of {CHUNKS_NAME}; "
            "rebuild with --force"
        )
    offset, size = buffer.tell(), shape[0] * shape[1] * dtype.itemsize
    if len(data) - offset != size:
        raise GraphFormatError(
            f"{EMBEDDINGS_NAME}: {len(data) - offset} data bytes where shape {shape} needs {size}"
        )
    matrix = np.frombuffer(data, dtype=dtype, count=shape[0] * shape[1], offset=offset).reshape(shape)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise GraphFormatError(f"{EMBEDDINGS_NAME}: row {row} ({chunk_ids[row]}) holds a non-finite value")
    return VectorStore.from_matrix(chunk_ids, matrix)


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
    """Cluster an existing index and write communities + reports, then bind
    them to the index by rewriting its manifest with their digests and the
    digest of the graph they were clustered from."""
    out = Path(index_dir) if index_dir is not None else cfg.index_dir
    if (out / COMMUNITIES_NAME).exists() and not force:
        raise ConfigError(f"communities already exist at {out}; pass --force to recluster")
    graph, manifest = load_index_graph(out)
    clients = make_clients(cfg.clients)
    communities = build_communities(cfg, graph)

    chat = clients.chat if cfg.clients.mode == "http" else None
    reports = [generate_report(c, graph, chat, clients.embed) for c in communities]

    params = cfg.clustering.params
    community_records = [{
        "kind": "meta",
        "format_version": FORMAT_VERSION,
        "count": len(communities),
        "params": {
            "alpha": params.alpha,
            "tau": params.tau,
            "max_passes": params.max_passes,
            "min_community_size": params.min_community_size,
        },
    }]
    for c in communities:
        community_records.append({
            "kind": "community",
            "id": c.id,
            "dimension": c.dimension,
            "label": c.label,
            "members": sorted(c.members),
            "completed_members": sorted(c.completed_members),
            "internal_edges": [list(key) for key in c.internal_edges],
        })
    report_records = [{
        "kind": "meta",
        "format_version": FORMAT_VERSION,
        "count": len(reports),
        "dimension": cfg.clients.embed_dim,
    }]
    for r in reports:
        report_records.append({
            "kind": "report",
            "community_id": r.community_id,
            "title": r.title,
            "summary": r.summary,
            "dimension": r.dimension,
            "entities": list(r.entities),
            "relations": list(r.relations),
            "embedding": [float(x) for x in r.embedding],
            "source_chunks": list(r.source_chunks),
        })

    community_bytes = dump_jsonl(community_records)
    report_bytes = dump_jsonl(report_records)
    artifacts = manifest.get("artifacts", {})
    manifest = dict(
        manifest,
        artifacts={**artifacts, COMMUNITIES_NAME: _sha256(community_bytes), REPORTS_NAME: _sha256(report_bytes)},
        clustered_from=artifacts.get(GRAPH_NAME),
    )
    _write_atomic(out / COMMUNITIES_NAME, community_bytes)
    _write_atomic(out / REPORTS_NAME, report_bytes)
    # the manifest goes last: until it lands, the old one rejects the new files
    _write_atomic(out / MANIFEST_NAME, _dump_json(manifest))

    by_dimension: dict[str, int] = {}
    for c in communities:
        family = c.dimension.split(":", 1)[0]
        by_dimension[family] = by_dimension.get(family, 0) + 1
    summary = {"communities": len(communities), "by_dimension": by_dimension}
    log.info("wrote %d communities to %s (%s)", len(communities), out, by_dimension)
    return summary


def load_communities(index_dir: Path, manifest: dict) -> tuple[list[Community], dict[int, CommunityReport]]:
    """Read communities.jsonl and reports.jsonl back into their dataclasses.
    Each file must match its digest in ``manifest``, and the manifest must
    record that they were clustered from its graph.jsonl."""
    out = Path(index_dir)
    for name in (COMMUNITIES_NAME, REPORTS_NAME):
        if not (out / name).is_file():
            raise ConfigError(f"no communities at {out}; run `graphrag cluster` first")
    if manifest.get("clustered_from") != manifest.get("artifacts", {}).get(GRAPH_NAME):
        raise GraphFormatError(
            f"index at {out}: {COMMUNITIES_NAME} and {REPORTS_NAME} were not clustered from its "
            f"{GRAPH_NAME}; rebuild with --force"
        )

    communities = []
    known: set[int] = set()
    _, records = read_artifact(_verified_bytes(out, COMMUNITIES_NAME, manifest), COMMUNITIES_NAME)
    for lineno, record in enumerate(records, start=2):
        if record.get("kind") != "community":
            raise GraphFormatError(f"{COMMUNITIES_NAME}:{lineno}: unexpected record kind {record.get('kind')!r}")
        try:
            community = Community(
                id=int(record["id"]),
                dimension=str(record["dimension"]),
                members=frozenset(int(n) for n in record["members"]),
                completed_members=frozenset(int(n) for n in record["completed_members"]),
                internal_edges=tuple(
                    (int(h), int(t), str(rel)) for h, t, rel in record["internal_edges"]
                ),
                label=str(record.get("label") or ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(f"{COMMUNITIES_NAME}:{lineno}: malformed community record ({exc})") from exc
        if community.id in known:
            raise GraphFormatError(f"{COMMUNITIES_NAME}:{lineno}: repeated community id {community.id}")
        known.add(community.id)
        communities.append(community)
    reports: dict[int, CommunityReport] = {}
    meta, records = read_artifact(_verified_bytes(out, REPORTS_NAME, manifest), REPORTS_NAME)
    for lineno, record in enumerate(records, start=2):
        if record.get("kind") != "report":
            raise GraphFormatError(f"{REPORTS_NAME}:{lineno}: unexpected record kind {record.get('kind')!r}")
        try:
            report = CommunityReport(
                community_id=int(record["community_id"]),
                title=str(record["title"]),
                summary=str(record["summary"]),
                dimension=str(record["dimension"]),
                entities=tuple(record["entities"]),
                relations=tuple(record["relations"]),
                embedding=tuple(float(x) for x in record["embedding"]),
                source_chunks=tuple(record["source_chunks"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(f"{REPORTS_NAME}:{lineno}: malformed report record ({exc})") from exc
        if len(report.embedding) != meta.get("dimension"):
            raise GraphFormatError(
                f"{REPORTS_NAME}:{lineno}: embedding has {len(report.embedding)} dimensions, "
                f"meta says {meta.get('dimension')!r}"
            )
        if report.community_id in reports:
            raise GraphFormatError(f"{REPORTS_NAME}:{lineno}: repeated report for community {report.community_id}")
        reports[report.community_id] = report
    if set(reports) != known:
        raise GraphFormatError("reports.jsonl does not cover communities.jsonl exactly")
    return communities, reports


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
    """Every community member must be a graph node. ``communities`` is in
    file order, so record n of communities.jsonl sits on line n + 1."""
    nodes = set(graph.node_ids())
    for lineno, community in enumerate(communities, start=2):
        unknown = sorted(community.completed_members - nodes)
        if unknown:
            raise GraphFormatError(
                f"{COMMUNITIES_NAME}:{lineno}: community {community.id} names unknown node {unknown[0]}"
            )


def load_bundle(cfg: PipelineConfig, index_dir: Path | None = None) -> IndexBundle:
    out = Path(index_dir) if index_dir is not None else cfg.index_dir
    graph, manifest = load_index_graph(out)
    _check_provenance(out, graph)
    chunk_store = _load_embeddings(out, manifest, graph.chunk_ids())
    communities, reports = load_communities(out, manifest)
    dims = {chunk_store.dim, *(len(report.embedding) for report in reports.values())}
    if dims != {cfg.clients.embed_dim}:
        raise ConfigError(
            f"index at {out} holds {'- and '.join(map(str, sorted(dims)))}-dimensional embeddings but "
            f"clients.embed_dim is {cfg.clients.embed_dim}; rebuild the index or fix the config"
        )
    _check_community_members(graph, communities)
    return IndexBundle.assemble(graph, communities, reports, chunk_store)


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
