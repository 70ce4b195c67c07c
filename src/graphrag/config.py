"""Pipeline configuration: one YAML file drives every command.

Paths are resolved relative to the config file. The config hash covers the
pipeline-defining knobs (schema/corpus references as written, chunking,
clustering, fusion, clients, ablations) but not the index output directory,
which is a write destination, not a parameter.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .community import ClusterParams
from .errors import ConfigError
from .extraction import ChunkingConfig, IndexingConfig, StubRule
from .retrieval import FusionConfig

ABLATABLE = ("schema", "community", "graph")

_TOP_KEYS = {"schema", "corpus", "index_dir", "chunking", "indexing", "clustering",
             "fusion", "clients", "ablate"}
_CHUNK_KEYS = {"max_chars", "overlap_chars", "split_preference"}
_INDEX_KEYS = {"attribute_relations", "max_failure_fraction", "max_workers"}
_CLUSTER_KEYS = {"alpha", "tau", "max_passes", "min_community_size", "seed",
                 "attribute_scope", "attribute_keys", "multihop"}
_FUSION_KEYS = {"w1", "w2", "khop", "topk_candidates", "final_k"}
_CLIENT_KEYS = {"mode", "chat_model", "embed_model", "chat_endpoint", "embed_endpoint",
                "rerank_endpoint", "embed_dim", "timeout", "stub_rules"}
_RULE_KEYS = {"pattern", "head_type", "relation", "tail_type", "score"}
_MULTIHOP_KEYS = {"root", "hops", "patterns"}


@dataclass(frozen=True)
class MultihopSpec:
    root: str
    hops: int = 2
    patterns: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.hops < 0:
            raise ValueError(f"multihop root {self.root!r}: hops must be >= 0")


@dataclass(frozen=True)
class ClientConfig:
    mode: str = "stub"
    chat_model: str = ""
    embed_model: str = ""
    chat_endpoint: str | None = None
    embed_endpoint: str | None = None
    rerank_endpoint: str | None = None
    embed_dim: int = 256
    timeout: float = 30.0
    stub_rules: tuple[StubRule, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("stub", "http"):
            raise ConfigError(f"clients.mode must be 'stub' or 'http', got {self.mode!r}")
        if self.embed_dim <= 0:
            raise ConfigError("clients.embed_dim must be positive")


@dataclass(frozen=True)
class ClusteringConfig:
    params: ClusterParams = field(default_factory=ClusterParams)
    attribute_keys: tuple[str, ...] = ()
    multihop: tuple[MultihopSpec, ...] = ()


@dataclass
class PipelineConfig:
    schema_path: Path
    corpus_path: Path
    index_dir: Path
    indexing: IndexingConfig
    clustering: ClusteringConfig
    fusion: FusionConfig
    clients: ClientConfig
    ablate: tuple[str, ...] = ()
    raw: dict = field(default_factory=dict, repr=False)

    def hash(self) -> str:
        hashable = {k: v for k, v in self.raw.items() if k != "index_dir"}
        canonical = json.dumps(hashable, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text("utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    _require_keys(raw, _TOP_KEYS, str(path))
    base = path.parent

    def _path(key: str) -> Path:
        value = raw.get(key)
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{path}: {key!r} must be a non-empty path string")
        return (base / value).resolve()

    schema_path = _path("schema")
    corpus_path = _path("corpus")
    index_dir = _path("index_dir")

    try:
        chunk_raw = raw.get("chunking") or {}
        _require_keys(chunk_raw, _CHUNK_KEYS, "chunking")
        if "split_preference" in chunk_raw:
            chunk_raw = dict(chunk_raw, split_preference=tuple(chunk_raw["split_preference"]))
        chunking = ChunkingConfig(**chunk_raw)

        index_raw = raw.get("indexing") or {}
        _require_keys(index_raw, _INDEX_KEYS, "indexing")
        indexing = IndexingConfig(
            chunking=chunking,
            attribute_relations=dict(index_raw.get("attribute_relations") or {}),
            max_failure_fraction=float(index_raw.get("max_failure_fraction", 0.2)),
            max_workers=int(index_raw.get("max_workers", 4)),
        )

        cluster_raw = raw.get("clustering") or {}
        _require_keys(cluster_raw, _CLUSTER_KEYS, "clustering")
        params = ClusterParams(
            alpha=float(cluster_raw.get("alpha", 0.5)),
            tau=float(cluster_raw.get("tau", 0.3)),
            max_passes=int(cluster_raw.get("max_passes", 10)),
            min_community_size=int(cluster_raw.get("min_community_size", 2)),
            seed=cluster_raw.get("seed"),
            attribute_scope=str(cluster_raw.get("attribute_scope", "2hop")),
        )
        multihop = []
        for i, spec in enumerate(cluster_raw.get("multihop") or []):
            if not isinstance(spec, dict):
                raise ConfigError(f"clustering.multihop[{i}] must be a mapping")
            _require_keys(spec, _MULTIHOP_KEYS, f"clustering.multihop[{i}]")
            if not spec.get("root"):
                raise ConfigError(f"clustering.multihop[{i}]: root is required")
            multihop.append(
                MultihopSpec(
                    root=str(spec["root"]),
                    hops=int(spec.get("hops", 2)),
                    patterns=tuple(tuple(str(r) for r in p) for p in spec.get("patterns") or []),
                )
            )
        clustering = ClusteringConfig(
            params=params,
            attribute_keys=tuple(str(k) for k in cluster_raw.get("attribute_keys") or []),
            multihop=tuple(multihop),
        )

        fusion_raw = raw.get("fusion") or {}
        _require_keys(fusion_raw, _FUSION_KEYS, "fusion")
        fusion = FusionConfig(
            w1=float(fusion_raw.get("w1", 4.0)),
            w2=float(fusion_raw.get("w2", 1.0)),
            khop=int(fusion_raw.get("khop", 2)),
            topk_candidates=int(fusion_raw.get("topk_candidates", 24)),
            final_k=int(fusion_raw.get("final_k", 8)),
        )

        client_raw = raw.get("clients") or {}
        _require_keys(client_raw, _CLIENT_KEYS, "clients")
        rules = []
        for i, rule in enumerate(client_raw.get("stub_rules") or []):
            if not isinstance(rule, dict):
                raise ConfigError(f"clients.stub_rules[{i}] must be a mapping")
            _require_keys(rule, _RULE_KEYS, f"clients.stub_rules[{i}]")
            try:
                rules.append(
                    StubRule(
                        pattern=str(rule["pattern"]),
                        head_type=str(rule["head_type"]),
                        relation=str(rule["relation"]),
                        tail_type=str(rule["tail_type"]),
                        score=float(rule.get("score", 0.0)),
                    )
                )
            except KeyError as exc:
                raise ConfigError(f"clients.stub_rules[{i}]: missing {exc}") from exc
        clients = ClientConfig(
            mode=str(client_raw.get("mode", "stub")),
            chat_model=str(client_raw.get("chat_model", "")),
            embed_model=str(client_raw.get("embed_model", "")),
            chat_endpoint=client_raw.get("chat_endpoint"),
            embed_endpoint=client_raw.get("embed_endpoint"),
            rerank_endpoint=client_raw.get("rerank_endpoint"),
            embed_dim=int(client_raw.get("embed_dim", 256)),
            timeout=float(client_raw.get("timeout", 30.0)),
            stub_rules=tuple(rules),
        )

        ablate = tuple(str(a) for a in raw.get("ablate") or [])
        unknown = set(ablate) - set(ABLATABLE)
        if unknown:
            raise ConfigError(f"ablate: unknown toggles {sorted(unknown)} (known: {ABLATABLE})")
    except (TypeError, ValueError, OverflowError) as exc:  # int() of an infinity overflows
        raise ConfigError(f"{path}: {exc}") from exc

    return PipelineConfig(
        schema_path=schema_path,
        corpus_path=corpus_path,
        index_dir=index_dir,
        indexing=indexing,
        clustering=clustering,
        fusion=fusion,
        clients=clients,
        ablate=ablate,
        raw=raw,
    )
