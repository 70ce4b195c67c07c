"""Chunking, protocol parsing, stub extraction, and corpus indexing."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, strategies as st

import oracles
from graphrag.errors import IndexingError
from graphrag.extraction import (
    ChatClient,
    ChunkingConfig,
    IndexingConfig,
    StubChatClient,
    StubRule,
    chunk_document,
    extract_chunk,
    index_corpus,
    parse_triples,
)
from graphrag.graph_store import Chunk, save_graph
from graphrag.ontology import load_schema

SCHEMA = load_schema(json.dumps({
    "version": "x-1",
    "entity_types": [{"name": "Artifact"}, {"name": "Period"}],
    "relations": [{"name": "DatedTo", "domain": ["Artifact"], "range": ["Period"]}],
}).encode())

DATES_RULE = StubRule(
    pattern=r"(?P<head>[A-Z][A-Za-z ]+?) dates to the (?P<tail>[A-Z][A-Za-z ]+?) period",
    head_type="Artifact",
    relation="DatedTo",
    tail_type="Period",
    score=1.0,
)


class TestChunking:
    def test_three_paragraph_fixture_frozen(self):
        body = "\n\n".join(["a" * 900, "b" * 900, "c" * 900])
        chunks = chunk_document("doc", body, ChunkingConfig(max_chars=1200, overlap_chars=200))
        assert [(c.char_offset, len(c.text)) for c in chunks] == [(0, 902), (702, 1102), (1604, 1100)]
        assert [c.id for c in chunks] == ["doc@00000000", "doc@00000702", "doc@00001604"]

    def test_short_document_single_chunk(self):
        chunks = chunk_document("d", "tiny text")
        assert len(chunks) == 1
        assert chunks[0].text == "tiny text"
        assert chunks[0].char_offset == 0

    def test_sentence_boundary_when_no_paragraph(self):
        body = "x" * 500 + ". " + "y" * 800
        chunks = chunk_document("d", body, ChunkingConfig(max_chars=600, overlap_chars=100))
        assert chunks[0].text.endswith("x.")
        assert len(chunks[0].text) == 501

    def test_paragraph_preferred_over_sentence(self):
        body = "s" * 300 + ". " + "t" * 98 + "\n\n" + "u" * 600
        chunks = chunk_document("d", body, ChunkingConfig(max_chars=500, overlap_chars=50))
        # both boundaries are in the window; the paragraph one (ending at 402,
        # separator included) wins over the sentence break at 301
        assert chunks[0].text.endswith("\n\n")
        assert len(chunks[0].text) == 402

    def test_hard_cut_without_boundaries(self):
        body = "z" * 1000
        chunks = chunk_document("d", body, ChunkingConfig(max_chars=400, overlap_chars=100))
        assert all(len(c.text) <= 400 for c in chunks)

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            chunk_document("d", "")

    def test_whitespace_body_kept_as_chunk(self):
        chunks = chunk_document("d", "   ")
        assert len(chunks) == 1 and chunks[0].text == "   "

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ChunkingConfig(max_chars=100, overlap_chars=100)

    @given(st.text(alphabet="ab .\n", min_size=1, max_size=3000))
    def test_coverage_and_bounds(self, body):
        if not body.strip():
            return
        cfg = ChunkingConfig(max_chars=120, overlap_chars=30)
        chunks = chunk_document("d", body, cfg)
        covered = set()
        last_start = -1
        for c in chunks:
            assert len(c.text) <= cfg.max_chars
            assert body[c.char_offset : c.char_offset + len(c.text)] == c.text
            assert c.char_offset > last_start  # offsets strictly increase
            last_start = c.char_offset
            covered.update(range(c.char_offset, c.char_offset + len(c.text)))
        assert covered == set(range(len(body)))


class TestParseTriples:
    def test_full_line(self):
        cands, diags = parse_triples("(Sword | Artifact | DatedTo | Han | Period | 1.5)")
        assert len(cands) == 1 and not diags
        t = cands[0]
        assert (t.head_name, t.relation, t.tail_name, t.lm_score) == ("Sword", "DatedTo", "Han", 1.5)

    def test_score_optional(self):
        cands, _ = parse_triples("(Sword | Artifact | DatedTo | Han | Period)")
        assert cands[0].lm_score == 0.0

    def test_malformed_line_skipped_with_diagnostic(self):
        cands, diags = parse_triples("(only | three | fields)\n(Sword | Artifact | DatedTo | Han | Period | 1)")
        assert len(cands) == 1
        assert len(diags) == 1

    def test_non_finite_score_skipped(self):
        cands, diags = parse_triples("(Sword | Artifact | DatedTo | Han | Period | nan)")
        assert not cands and diags

    def test_blank_output(self):
        cands, diags = parse_triples("\n\n")
        assert cands == [] and diags == []


class TestStubClient:
    def test_rules_fire_per_match(self):
        client = StubChatClient([DATES_RULE])
        text = "Sword dates to the Han period. Cup dates to the Tang period."
        out = client.complete("sys", text)
        lines = out.splitlines()
        assert len(lines) == 2
        assert "Sword | Artifact | DatedTo | Han | Period" in lines[0]
        assert "Cup | Artifact | DatedTo | Tang | Period" in lines[1]

    def test_deterministic(self):
        client = StubChatClient([DATES_RULE])
        assert client.complete("s", "Sword dates to the Han period.") == client.complete(
            "s", "Sword dates to the Han period."
        )


class TestExtractChunk:
    def chunk(self, text):
        return Chunk(id="d@00000000", document_id="d", text=text, char_offset=0)

    def test_probabilities_sum_to_one(self):
        client = StubChatClient([DATES_RULE])
        triples = extract_chunk(
            self.chunk("Sword dates to the Han period. Cup dates to the Tang period."),
            SCHEMA,
            client,
        )
        assert len(triples) == 2
        assert math.isclose(sum(t.normalized_probability for t in triples), 1.0, rel_tol=1e-12)

    def test_no_matches_returns_empty(self):
        client = StubChatClient([DATES_RULE])
        assert extract_chunk(self.chunk("nothing here"), SCHEMA, client) == []

    def test_schema_violations_dropped(self):
        bad_rule = StubRule(
            pattern=r"(?P<head>\w+) visited (?P<tail>\w+)",
            head_type="Artifact",
            relation="VisitedBy",
            tail_type="Period",
        )
        client = StubChatClient([bad_rule])
        assert extract_chunk(self.chunk("alpha visited beta"), SCHEMA, client) == []


class _FailingClient(ChatClient):
    """Raises on chunks whose text contains the trigger word."""

    def __init__(self, inner: ChatClient, trigger: str):
        self.inner = inner
        self.trigger = trigger

    def complete(self, system_prompt: str, user_prompt: str, temperature: float = 0.0) -> str:
        if self.trigger in user_prompt:
            raise RuntimeError("boom")
        return self.inner.complete(system_prompt, user_prompt, temperature)


class TestIndexCorpus:
    DOCS = [
        ("d1", "Sword dates to the Han period."),
        ("d2", "Cup dates to the Han period."),
        ("d3", "Mirror dates to the Tang period."),
    ]

    def client(self):
        return StubChatClient([DATES_RULE])

    def test_builds_expected_graph(self):
        g = index_corpus(self.DOCS, SCHEMA, self.client())
        assert g.chunk_count == 3
        assert g.node_count == 5  # 3 artifacts + 2 periods
        assert g.edge_count == 3
        (han,) = g.find_nodes("han")
        assert g.node(han).entity_type == "Period"
        assert oracles.validate_graph(g, SCHEMA) == []

    def test_attribute_projection(self):
        cfg = IndexingConfig(attribute_relations={"DatedTo": "era"})
        g = index_corpus(self.DOCS, SCHEMA, self.client(), cfg)
        (sword,) = g.find_nodes("sword")
        assert g.node(sword).attributes == {"era": ["Han"]}

    def test_duplicate_document_ids_rejected(self):
        with pytest.raises(IndexingError, match="duplicate"):
            index_corpus([("d", "x"), ("d", "y")], SCHEMA, self.client())

    def test_empty_corpus_rejected(self):
        with pytest.raises(IndexingError):
            index_corpus([], SCHEMA, self.client())

    def test_worker_count_does_not_change_output(self):
        g1 = index_corpus(self.DOCS, SCHEMA, self.client(), IndexingConfig(max_workers=1))
        g4 = index_corpus(self.DOCS, SCHEMA, self.client(), IndexingConfig(max_workers=4))
        assert save_graph(g1) == save_graph(g4)

    def test_failure_fraction_enforced(self):
        flaky = _FailingClient(self.client(), trigger="Sword")
        with pytest.raises(IndexingError, match="fail"):
            index_corpus(self.DOCS, SCHEMA, flaky, IndexingConfig(max_failure_fraction=0.2))

    def test_failures_below_threshold_tolerated(self):
        flaky = _FailingClient(self.client(), trigger="Sword")
        g = index_corpus(self.DOCS, SCHEMA, flaky, IndexingConfig(max_failure_fraction=0.5))
        assert g.chunk_count == 3  # chunk kept, triples lost
        assert g.find_nodes("sword") == ()

    def test_schema_enforcement_toggle(self):
        loose_rule = StubRule(
            pattern=r"(?P<head>\w+) visited (?P<tail>\w+)",
            head_type="Artifact",
            relation="VisitedBy",
            tail_type="Period",
        )
        docs = [("d", "alpha visited beta")]
        strict = index_corpus(docs, SCHEMA, StubChatClient([loose_rule]))
        assert strict.edge_count == 0
        loose = index_corpus(
            docs, SCHEMA, StubChatClient([loose_rule]), IndexingConfig(enforce_schema=False)
        )
        assert loose.edge_count == 1
        assert len(oracles.validate_graph(loose, SCHEMA)) > 0
