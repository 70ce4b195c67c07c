"""Pipeline configuration: one YAML file drives every command.

Paths are resolved relative to the config file. The config hash covers the
pipeline-defining knobs (schema/corpus references as written, chunking,
clustering, fusion, clients, ablations) but not the index output directory,
which is a write destination, not a parameter.
"""

from __future__ import annotations

import hashlib
import json
import math
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
_CHUNK_KEYS = {"max_chars", "overlap_chars"}
_INDEX_KEYS = {"attribute_relations", "max_failure_fraction", "max_workers"}
# attribute_scope has one legal value, "full", yet stays a known key: the
# benchmark's config generator (perfbench/generate.py) writes it into every
# config, and an unknown key is refused
_CLUSTER_KEYS = {"alpha", "tau", "max_passes", "min_community_size", "attribute_scope",
                 "attribute_keys", "multihop"}
_FUSION_KEYS = {"w1", "w2", "khop", "topk_candidates", "final_k"}
_CLIENT_KEYS = {"mode", "chat_model", "embed_model", "chat_endpoint", "embed_endpoint",
                "rerank_endpoint", "embed_dim", "timeout", "stub_rules"}
_RULE_KEYS = {"pattern", "head_type", "relation", "tail_type", "score"}
_MULTIHOP_KEYS = {"root", "hops", "patterns"}

# libyaml's C parser where PyYAML was built with it: the same safe schema as
# yaml.safe_load, and several times faster
_SafeLoader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


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
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """One line for a YAML error: its problem (a ReaderError's reason) and
    the 1-based line of the problem when the parser marked one."""
    problem = getattr(exc, "problem", None) or getattr(exc, "reason", None) or type(exc).__name__
    mark = getattr(exc, "problem_mark", None)
    return problem if mark is None else f"{problem}, line {mark.line + 1}"


def _shown(value: object) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "infinity" if value > 0 else "-infinity"
    return repr(value)


def _int(section: dict, key: str, default: int, where: str, *, minimum: float = -math.inf) -> int:
    """``section[key]``, or ``default`` when absent, as an integer of at least
    ``minimum``. A bool, a float or any other type is an error naming the
    dotted key ``where.key``."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {_shown(value)}")
    if value < minimum:
        raise ConfigError(f"{where}.{key} must be at least {minimum}, got {value}")
    return value


def _real(
    section: dict,
    key: str,
    default: float,
    where: str,
    *,
    low: float = -math.inf,
    high: float = math.inf,
    open_low: bool = False,
) -> float:
    """``section[key]``, or ``default`` when absent, as a finite float in
    [low, high], or (low, high] when ``open_low``. An int is taken as its
    float; a bool, a string or any other type is an error naming the dotted
    key ``where.key``."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {_shown(value)}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not (math.isfinite(value) and (value > low if open_low else value >= low) and value <= high):
        if low == -math.inf:
            wanted = "a finite number"
        elif high == math.inf:
            wanted = f"a finite number {'>' if open_low else '>='} {low:g}"
        else:
            wanted = f"a number in {'(' if open_low else '['}{low:g}, {high:g}]"
        raise ConfigError(f"{where}.{key} must be {wanted}, got {_shown(value)}")
    return value


def _string(section: dict, key: str, where: str, default: str | None = None, *, nullable: bool = False) -> str | None:
    """``section[key]``, or ``default`` when absent, as a string. A
    ``nullable`` setting is null or a non-empty string; any other setting
    without a default is required. A missing required key, a number, a list
    or any other type is an error naming the dotted key ``where.key``, never
    the ``str()`` of the value."""
    if key not in section and default is None and not nullable:
        raise ConfigError(f"{where}.{key} is missing")
    value = section.get(key, default)
    if nullable and value is None:
        return None
    if not isinstance(value, str) or (nullable and not value):
        wanted = "null or a non-empty string" if nullable else "a string"
        raise ConfigError(f"{where}.{key} must be {wanted}, got {_shown(value)}")
    return value


def _mappings(value: object, where: str) -> list[dict]:
    """``value`` as a list of mappings; null (or absent) is empty. A single
    mapping or any other type is an error naming the dotted key ``where``,
    never a walk over its keys."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of mappings, got {_shown(value)}")
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise ConfigError(f"{where}[{i}] must be a mapping, got {_shown(item)}")
    return value


def _strings(value: object, where: str) -> tuple[str, ...]:
    """``value`` as a tuple of strings; null (or absent) is empty. A bare
    string or any other type is an error naming the dotted key ``where``,
    never a sequence of its characters."""
    if value is None:
        return ()
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ConfigError(f"{where} must be a list of strings, got {_shown(value)}")
    return tuple(value)


def _string_lists(value: object, where: str) -> tuple[tuple[str, ...], ...]:
    """``value`` as a tuple of string tuples; null (or absent) is empty."""
    if value is None:
        return ()
    if not isinstance(value, list) or not all(isinstance(item, list) for item in value):
        raise ConfigError(f"{where} must be a list of string lists, got {_shown(value)}")
    return tuple(_strings(item, f"{where}[{i}]") for i, item in enumerate(value))


def _string_map(value: object, where: str) -> dict[str, str]:
    """``value`` as a string-to-string dict; null (or absent) is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        raise ConfigError(f"{where} must be a mapping of strings to strings, got {_shown(value)}")
    return dict(value)


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_text("utf-8"), Loader=_SafeLoader)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({_yaml_problem(exc)})") from exc
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
        chunking = ChunkingConfig(
            max_chars=_int(chunk_raw, "max_chars", 1200, "chunking", minimum=1),
            overlap_chars=_int(chunk_raw, "overlap_chars", 200, "chunking", minimum=0),
        )

        index_raw = raw.get("indexing") or {}
        _require_keys(index_raw, _INDEX_KEYS, "indexing")
        indexing = IndexingConfig(
            chunking=chunking,
            attribute_relations=_string_map(index_raw.get("attribute_relations"), "indexing.attribute_relations"),
            max_failure_fraction=_real(index_raw, "max_failure_fraction", 0.2, "indexing", low=0.0, high=1.0),
            max_workers=_int(index_raw, "max_workers", 4, "indexing", minimum=1),
        )

        cluster_raw = raw.get("clustering") or {}
        _require_keys(cluster_raw, _CLUSTER_KEYS, "clustering")
        scope = cluster_raw.get("attribute_scope", "full")
        if scope != "full":
            raise ConfigError(f"clustering.attribute_scope must be 'full', got {_shown(scope)}")
        params = ClusterParams(
            alpha=_real(cluster_raw, "alpha", 0.5, "clustering", low=0.0),
            tau=_real(cluster_raw, "tau", 0.3, "clustering", low=0.0, high=1.0),
            max_passes=_int(cluster_raw, "max_passes", 10, "clustering", minimum=1),
            min_community_size=_int(cluster_raw, "min_community_size", 2, "clustering", minimum=1),
        )
        multihop = []
        for i, spec in enumerate(_mappings(cluster_raw.get("multihop"), "clustering.multihop")):
            where = f"clustering.multihop[{i}]"
            _require_keys(spec, _MULTIHOP_KEYS, where)
            root = spec.get("root")
            if not isinstance(root, str) or not root:
                raise ConfigError(f"{where}.root must be a non-empty string, got {_shown(root)}")
            multihop.append(
                MultihopSpec(
                    root=root,
                    hops=_int(spec, "hops", 2, where, minimum=0),
                    patterns=_string_lists(spec.get("patterns"), f"{where}.patterns"),
                )
            )
        clustering = ClusteringConfig(
            params=params,
            attribute_keys=_strings(cluster_raw.get("attribute_keys"), "clustering.attribute_keys"),
            multihop=tuple(multihop),
        )

        fusion_raw = raw.get("fusion") or {}
        _require_keys(fusion_raw, _FUSION_KEYS, "fusion")
        fusion = FusionConfig(
            w1=_real(fusion_raw, "w1", 4.0, "fusion", low=0.0, open_low=True),
            w2=_real(fusion_raw, "w2", 1.0, "fusion", low=0.0, open_low=True),
            khop=_int(fusion_raw, "khop", 2, "fusion", minimum=0),
            topk_candidates=_int(fusion_raw, "topk_candidates", 24, "fusion", minimum=1),
            final_k=_int(fusion_raw, "final_k", 8, "fusion", minimum=1),
        )

        client_raw = raw.get("clients") or {}
        _require_keys(client_raw, _CLIENT_KEYS, "clients")
        rules = []
        for i, rule in enumerate(_mappings(client_raw.get("stub_rules"), "clients.stub_rules")):
            where = f"clients.stub_rules[{i}]"
            _require_keys(rule, _RULE_KEYS, where)
            rules.append(
                StubRule(
                    pattern=_string(rule, "pattern", where),
                    head_type=_string(rule, "head_type", where),
                    relation=_string(rule, "relation", where),
                    tail_type=_string(rule, "tail_type", where),
                    score=_real(rule, "score", 0.0, where),
                )
            )
        clients = ClientConfig(
            mode=_string(client_raw, "mode", "clients", "stub"),
            chat_model=_string(client_raw, "chat_model", "clients", ""),
            embed_model=_string(client_raw, "embed_model", "clients", ""),
            chat_endpoint=_string(client_raw, "chat_endpoint", "clients", nullable=True),
            embed_endpoint=_string(client_raw, "embed_endpoint", "clients", nullable=True),
            rerank_endpoint=_string(client_raw, "rerank_endpoint", "clients", nullable=True),
            embed_dim=_int(client_raw, "embed_dim", 256, "clients", minimum=1),
            timeout=_real(client_raw, "timeout", 30.0, "clients", low=0.0, open_low=True),
            stub_rules=tuple(rules),
        )

        ablate = _strings(raw.get("ablate"), "ablate")
        unknown = set(ablate) - set(ABLATABLE)
        if unknown:
            raise ConfigError(f"ablate: unknown toggles {sorted(unknown)} (known: {ABLATABLE})")
    except (TypeError, ValueError, ConfigError) as exc:
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
