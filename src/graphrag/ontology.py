"""Ontology layer: the typed constraint space for extraction.

A schema declares entity types and relations with domain/range restrictions.
Model-proposed triples are validated against it and the surviving candidates
are renormalized into a probability distribution, so invalid proposals carry
exactly zero mass.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

from .errors import EmptyValidSetError, SchemaError
from .textnorm import collapse_ws

log = logging.getLogger(__name__)

_SCHEMA_KEYS = {"version", "entity_types", "relations"}
_ENTITY_KEYS = {"name", "description"}
_RELATION_KEYS = {"name", "domain", "range", "description"}


@dataclass(frozen=True)
class OntologySchema:
    """Immutable entity/relation type space.

    Type and relation names keep their declared casing for display; all
    membership checks fold case. ``constraints`` maps the folded relation name
    to (folded domain types, folded range types).
    """

    version: str
    entity_types: tuple[str, ...]
    relation_types: tuple[str, ...]
    constraints: dict[str, tuple[frozenset[str], frozenset[str]]]
    entity_descriptions: dict[str, str] = field(default_factory=dict)
    relation_descriptions: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.entity_types:
            raise SchemaError("schema declares no entity types")
        if not self.relation_types:
            raise SchemaError("schema declares no relations")
        folded_types = {t.casefold() for t in self.entity_types}
        folded_relations = {r.casefold() for r in self.relation_types}
        if set(self.constraints) != folded_relations:
            raise SchemaError("constraint map does not cover exactly the declared relations")
        for rel, (dom, rng) in self.constraints.items():
            if not dom or not rng:
                raise SchemaError(f"relation {rel!r} has an empty domain or range")
            for t in dom | rng:
                if t not in folded_types:
                    raise SchemaError(f"relation {rel!r} references undeclared type {t!r}")

    # -- case-insensitive lookups ------------------------------------------

    def domain_of(self, relation: str) -> frozenset[str] | None:
        entry = self.constraints.get(relation.casefold())
        return entry[0] if entry else None

    def range_of(self, relation: str) -> frozenset[str] | None:
        entry = self.constraints.get(relation.casefold())
        return entry[1] if entry else None


@dataclass(frozen=True)
class CandidateTriple:
    """A model-proposed triple before validation. Names are whitespace
    normalized but keep their casing; the score is a raw model log-score."""

    head_name: str
    head_type: str
    relation: str
    tail_name: str
    tail_type: str
    lm_score: float = 0.0
    source_chunk: str = ""

    def __post_init__(self) -> None:
        for attr in ("head_name", "tail_name"):
            cleaned = collapse_ws(getattr(self, attr))
            if not cleaned:
                raise ValueError(f"{attr} is empty after whitespace normalization")
            object.__setattr__(self, attr, cleaned)
        object.__setattr__(self, "head_type", collapse_ws(self.head_type))
        object.__setattr__(self, "tail_type", collapse_ws(self.tail_type))
        object.__setattr__(self, "relation", collapse_ws(self.relation))
        if not math.isfinite(self.lm_score):
            raise ValueError(f"lm_score must be finite, got {self.lm_score!r}")


@dataclass(frozen=True)
class ValidatedTriple(CandidateTriple):
    """A schema-valid triple carrying its renormalized probability."""

    normalized_probability: float = 0.0


def _require_utf8(value: str, field: str) -> None:
    # a JSON escape such as "\ud800" decodes to a lone surrogate, which
    # neither the prompt nor any artifact can encode as UTF-8
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SchemaError(f"{field} holds a lone surrogate at offset {exc.start}") from exc


def load_schema(serialized: bytes) -> OntologySchema:
    """Parse and validate a schema file (JSON).

    Top-level keys: ``version``, ``entity_types`` (list of {name,
    description?}), ``relations`` (list of {name, domain, range,
    description?}). Unknown keys anywhere are rejected, as are dangling type
    references, duplicate names, and empty type or relation sets.
    """
    try:
        raw = json.loads(serialized.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"schema file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("schema root must be an object")
    unknown = set(raw) - _SCHEMA_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    missing = _SCHEMA_KEYS - set(raw)
    if missing:
        raise SchemaError(f"missing top-level keys: {sorted(missing)}")
    version = raw["version"]
    if not isinstance(version, str) or not version:
        raise SchemaError("version must be a non-empty string")
    _require_utf8(version, "version")

    if not isinstance(raw["entity_types"], list) or not raw["entity_types"]:
        raise SchemaError("entity_types must be a non-empty list")
    if not isinstance(raw["relations"], list) or not raw["relations"]:
        raise SchemaError("relations must be a non-empty list")

    entity_types: list[str] = []
    entity_descriptions: dict[str, str] = {}
    seen_types: set[str] = set()
    for i, item in enumerate(raw["entity_types"]):
        if not isinstance(item, dict):
            raise SchemaError(f"entity_types[{i}] must be an object")
        unknown = set(item) - _ENTITY_KEYS
        if unknown:
            raise SchemaError(f"entity_types[{i}] has unknown keys: {sorted(unknown)}")
        name = item.get("name")
        if not isinstance(name, str) or not collapse_ws(name):
            raise SchemaError(f"entity_types[{i}] needs a non-empty name")
        _require_utf8(name, f"entity_types[{i}].name")
        name = collapse_ws(name)
        if name.casefold() in seen_types:
            raise SchemaError(f"duplicate entity type {name!r}")
        seen_types.add(name.casefold())
        entity_types.append(name)
        desc = item.get("description")
        if desc is not None:
            if not isinstance(desc, str):
                raise SchemaError(f"entity_types[{i}].description must be a string")
            _require_utf8(desc, f"entity_types[{i}].description")
            if desc.strip():
                entity_descriptions[name] = desc.strip()

    relation_types: list[str] = []
    relation_descriptions: dict[str, str] = {}
    constraints: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
    for i, item in enumerate(raw["relations"]):
        if not isinstance(item, dict):
            raise SchemaError(f"relations[{i}] must be an object")
        unknown = set(item) - _RELATION_KEYS
        if unknown:
            raise SchemaError(f"relations[{i}] has unknown keys: {sorted(unknown)}")
        name = item.get("name")
        if not isinstance(name, str) or not collapse_ws(name):
            raise SchemaError(f"relations[{i}] needs a non-empty name")
        _require_utf8(name, f"relations[{i}].name")
        name = collapse_ws(name)
        if name.casefold() in constraints:
            raise SchemaError(f"duplicate relation {name!r}")
        sides = []
        for side in ("domain", "range"):
            types = item.get(side)
            if not isinstance(types, list) or not types:
                raise SchemaError(f"relation {name!r}: {side} must be a non-empty list")
            folded = []
            for t in types:
                if not isinstance(t, str) or not collapse_ws(t):
                    raise SchemaError(f"relation {name!r}: {side} entries must be non-empty strings")
                t = collapse_ws(t)
                if t.casefold() not in seen_types:
                    raise SchemaError(f"relation {name!r}: {side} references undeclared type {t!r}")
                folded.append(t.casefold())
            sides.append(frozenset(folded))
        relation_types.append(name)
        constraints[name.casefold()] = (sides[0], sides[1])
        desc = item.get("description")
        if desc is not None:
            if not isinstance(desc, str):
                raise SchemaError(f"relations[{i}].description must be a string")
            _require_utf8(desc, f"relations[{i}].description")
            if desc.strip():
                relation_descriptions[name] = desc.strip()

    return OntologySchema(
        version=version,
        entity_types=tuple(sorted(entity_types, key=str.casefold)),
        relation_types=tuple(sorted(relation_types, key=str.casefold)),
        constraints=constraints,
        entity_descriptions=entity_descriptions,
        relation_descriptions=relation_descriptions,
    )


def validate_triple(triple: CandidateTriple, schema: OntologySchema) -> bool:
    """True iff the relation exists and head/tail types sit in its
    domain/range. Unknown relations or types answer False, never raise."""
    dom = schema.domain_of(triple.relation)
    rng = schema.range_of(triple.relation)
    if dom is None or rng is None:
        return False
    return triple.head_type.casefold() in dom and triple.tail_type.casefold() in rng


def renormalize_candidates(
    candidates: list[CandidateTriple],
    schema: OntologySchema,
    *,
    enforce: bool = True,
) -> list[ValidatedTriple]:
    """Drop schema-invalid candidates and softmax the survivors' scores.

    The result is sorted by descending probability, ties broken by
    (head_name, relation, tail_name). Raises EmptyValidSetError when nothing
    survives. ``enforce=False`` skips the validity filter (ablation mode
    only); the distribution then covers every parseable candidate.
    """
    if enforce:
        valid = [c for c in candidates if validate_triple(c, schema)]
    else:
        valid = list(candidates)
    if not valid:
        raise EmptyValidSetError(
            f"none of {len(candidates)} candidate triples passed schema validation"
        )
    peak = max(c.lm_score for c in valid)
    weights = [math.exp(c.lm_score - peak) for c in valid]
    total = sum(weights)
    out = [
        ValidatedTriple(
            head_name=c.head_name,
            head_type=c.head_type,
            relation=c.relation,
            tail_name=c.tail_name,
            tail_type=c.tail_type,
            lm_score=c.lm_score,
            source_chunk=c.source_chunk,
            normalized_probability=w / total,
        )
        for c, w in zip(valid, weights)
    ]
    out.sort(key=lambda t: (-t.normalized_probability, t.head_name, t.relation, t.tail_name))
    return out


def schema_to_prompt(schema: OntologySchema) -> str:
    """Render the schema as the extraction prompt fragment.

    Deterministic: types and relations are listed in canonical (case-folded)
    sort order, so equal schemas always produce byte-identical prompts. The
    description section is omitted entirely when no description exists.
    """
    folded_to_declared = {t.casefold(): t for t in schema.entity_types}
    lines = [
        "Extract subject-relation-object triples from the text.",
        "",
        "Entity types:",
    ]
    for t in schema.entity_types:
        lines.append(f"- {t}")
    lines.append("")
    lines.append("Relations (head type -> tail type):")
    for r in schema.relation_types:
        dom, rng = schema.constraints[r.casefold()]
        dom_s = "|".join(sorted(folded_to_declared[t] for t in dom))
        rng_s = "|".join(sorted(folded_to_declared[t] for t in rng))
        lines.append(f"{r}: {dom_s} -> {rng_s}")
    descriptions = []
    for t in schema.entity_types:
        if t in schema.entity_descriptions:
            descriptions.append(f"- {t}: {schema.entity_descriptions[t]}")
    for r in schema.relation_types:
        if r in schema.relation_descriptions:
            descriptions.append(f"- {r}: {schema.relation_descriptions[r]}")
    if descriptions:
        lines.append("")
        lines.append("Descriptions:")
        lines.extend(descriptions)
    lines.extend(
        [
            "",
            "Output one triple per line, formatted exactly as:",
            "(head | head_type | relation | tail | tail_type | score)",
            "score is an optional confidence number; omit it if unsure.",
            "Use only the listed entity types and relations.",
        ]
    )
    return "\n".join(lines)
