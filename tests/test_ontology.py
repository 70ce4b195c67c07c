"""Schema loading, triple validation, and candidate renormalization."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, strategies as st

import oracles
from graphrag.errors import EmptyValidSetError, SchemaError
from graphrag.ontology import (
    CandidateTriple,
    load_schema,
    renormalize_candidates,
    schema_to_prompt,
    validate_triple,
)

MUSEUM = {
    "version": "t-1",
    "entity_types": [
        {"name": "Artifact"},
        {"name": "Period", "description": "An era."},
        {"name": "Museum"},
    ],
    "relations": [
        {"name": "DatedTo", "domain": ["Artifact"], "range": ["Period"]},
        {"name": "HousedIn", "domain": ["Artifact"], "range": ["Museum"], "description": "Holder."},
        {"name": "Mentions", "domain": ["Artifact", "Museum"], "range": ["Artifact", "Period"]},
    ],
}


def as_bytes(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def triple(head="Sword", ht="Artifact", rel="DatedTo", tail="Han", tt="Period", score=0.0):
    return CandidateTriple(
        head_name=head, head_type=ht, relation=rel, tail_name=tail, tail_type=tt, lm_score=score
    )


@pytest.fixture()
def schema():
    return load_schema(as_bytes(MUSEUM))


class TestLoadSchema:
    def test_round_trip(self, schema):
        reordered = dict(
            MUSEUM,
            entity_types=MUSEUM["entity_types"][::-1],
            relations=MUSEUM["relations"][::-1],
        )
        again = load_schema(as_bytes(reordered))
        assert again == schema
        assert again.entity_types == ("Artifact", "Museum", "Period")
        assert again.relation_types == ("DatedTo", "HousedIn", "Mentions")

    def test_unknown_top_level_key(self):
        bad = dict(MUSEUM, extra=1)
        with pytest.raises(SchemaError, match="unknown top-level"):
            load_schema(as_bytes(bad))

    def test_missing_key(self):
        bad = {k: v for k, v in MUSEUM.items() if k != "relations"}
        with pytest.raises(SchemaError, match="missing"):
            load_schema(as_bytes(bad))

    def test_duplicate_entity_type_case_insensitive(self):
        bad = dict(MUSEUM, entity_types=MUSEUM["entity_types"] + [{"name": "ARTIFACT"}])
        with pytest.raises(SchemaError, match="duplicate"):
            load_schema(as_bytes(bad))

    def test_dangling_domain_reference(self):
        bad = dict(
            MUSEUM,
            relations=[{"name": "R", "domain": ["Ghost"], "range": ["Period"]}],
        )
        with pytest.raises(SchemaError, match="undeclared type"):
            load_schema(as_bytes(bad))

    def test_empty_relation_list(self):
        with pytest.raises(SchemaError):
            load_schema(as_bytes(dict(MUSEUM, relations=[])))

    def test_not_json(self):
        with pytest.raises(SchemaError):
            load_schema(b"not json {")

    def test_unknown_relation_key(self):
        bad = dict(
            MUSEUM,
            relations=[{"name": "R", "domain": ["Artifact"], "range": ["Period"], "weight": 3}],
        )
        with pytest.raises(SchemaError, match="unknown keys"):
            load_schema(as_bytes(bad))


class TestLookups:
    def test_case_insensitive_entity_type(self, schema):
        assert validate_triple(triple(ht="artifact", tt="PERIOD"), schema)
        assert not validate_triple(triple(ht="Ship"), schema)

    def test_domain_and_range_folded(self, schema):
        assert schema.domain_of("datedto") == frozenset({"artifact"})
        assert schema.range_of("Mentions") == frozenset({"artifact", "period"})


class TestValidateTriple:
    def test_valid(self, schema):
        assert validate_triple(triple(), schema)

    def test_relation_case_variant(self, schema):
        assert validate_triple(triple(rel="datedto"), schema)

    def test_wrong_head_type(self, schema):
        assert not validate_triple(triple(ht="Museum"), schema)

    def test_wrong_tail_type(self, schema):
        assert not validate_triple(triple(tt="Museum"), schema)

    def test_undeclared_relation(self, schema):
        assert not validate_triple(triple(rel="Eats"), schema)

    def test_undeclared_entity_type(self, schema):
        assert not validate_triple(triple(ht="Ship"), schema)

    def test_multi_type_sides(self, schema):
        assert validate_triple(triple(head="Museum A", ht="Museum", rel="Mentions"), schema)


class TestCandidateTriple:
    def test_whitespace_collapsed(self):
        t = triple(head="  Sword   of\tGoujian ")
        assert t.head_name == "Sword of Goujian"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            triple(head="   ")

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError):
            triple(score=float("nan"))


class TestRenormalize:
    def test_filters_and_sums_to_one(self, schema):
        candidates = [triple(score=0.0), triple(rel="Eats", score=9.0), triple(head="Cup", score=1.0)]
        valid = renormalize_candidates(candidates, schema)
        assert len(valid) == 2
        assert math.isclose(sum(v.normalized_probability for v in valid), 1.0, rel_tol=1e-12)

    def test_matches_softmax_oracle(self, schema):
        candidates = [triple(score=0.0), triple(head="Cup", score=1.0)]
        valid = renormalize_candidates(candidates, schema)
        probs = sorted(v.normalized_probability for v in valid)
        assert probs == sorted(oracles.softmax_ref([0.0, 1.0]))
        # frozen softmax of (0, 1)
        assert math.isclose(probs[0], 0.2689414213699951, rel_tol=1e-12)
        assert math.isclose(probs[1], 0.7310585786300049, rel_tol=1e-12)

    def test_sorted_by_probability_then_names(self, schema):
        candidates = [
            triple(head="B", score=1.0),
            triple(head="A", score=1.0),
            triple(head="C", score=2.0),
        ]
        valid = renormalize_candidates(candidates, schema)
        assert [v.head_name for v in valid] == ["C", "A", "B"]

    def test_empty_valid_set_raises(self, schema):
        with pytest.raises(EmptyValidSetError):
            renormalize_candidates([triple(rel="Eats")], schema)

    def test_no_candidates_raises(self, schema):
        with pytest.raises(EmptyValidSetError):
            renormalize_candidates([], schema)

    def test_enforce_off_keeps_invalid(self, schema):
        candidates = [triple(), triple(rel="Eats")]
        valid = renormalize_candidates(candidates, schema, enforce=False)
        assert len(valid) == 2
        assert math.isclose(sum(v.normalized_probability for v in valid), 1.0, rel_tol=1e-12)

    @given(
        scores=st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=6),
        shift=st.floats(min_value=-20, max_value=20),
    )
    def test_shift_invariance(self, scores, shift):
        schema = load_schema(as_bytes(MUSEUM))  # immutable; rebuilt to satisfy hypothesis
        base = [triple(head=f"h{i}", score=s) for i, s in enumerate(scores)]
        moved = [triple(head=f"h{i}", score=s + shift) for i, s in enumerate(scores)]
        p1 = {v.head_name: v.normalized_probability for v in renormalize_candidates(base, schema)}
        p2 = {v.head_name: v.normalized_probability for v in renormalize_candidates(moved, schema)}
        assert p1.keys() == p2.keys()
        for name in p1:
            assert math.isclose(p1[name], p2[name], rel_tol=1e-9, abs_tol=1e-9)


class TestPrompt:
    def test_contains_constraint_lines(self, schema):
        prompt = schema_to_prompt(schema)
        assert "DatedTo: Artifact -> Period" in prompt
        assert "Mentions: Artifact|Museum -> Artifact|Period" in prompt
        assert "(head | head_type | relation | tail | tail_type | score)" in prompt

    def test_descriptions_listed_once_present(self, schema):
        prompt = schema_to_prompt(schema)
        assert "An era." in prompt

    def test_no_description_section_when_absent(self):
        bare = {
            "version": "b",
            "entity_types": [{"name": "A"}],
            "relations": [{"name": "R", "domain": ["A"], "range": ["A"]}],
        }
        prompt = schema_to_prompt(load_schema(as_bytes(bare)))
        assert "Descriptions" not in prompt

    def test_deterministic(self, schema):
        assert schema_to_prompt(schema) == schema_to_prompt(schema)
