"""Graph container semantics and the on-disk JSONL format."""

from __future__ import annotations

import random

import pytest

import oracles
from conftest import random_graph
from graphrag.errors import GraphFormatError, UnknownNodeError
from graphrag.graph_store import (
    Chunk,
    KnowledgeGraph,
    load_chunks,
    load_graph,
    make_chunk_id,
    save_chunks,
    save_graph,
)


def small_graph() -> KnowledgeGraph:
    g = KnowledgeGraph()
    a = g.upsert_node("Sword", "Artifact", chunk="d@00000000")
    b = g.upsert_node("Museum", "Museum", chunk="d@00000000")
    c = g.upsert_node("Han", "Period")
    g.add_edge(a, "HousedIn", b, chunk="d@00000000")
    g.add_edge(a, "DatedTo", c)
    g.add_chunk(Chunk(id="d@00000000", document_id="d", text="Sword in Museum.", char_offset=0))
    return g


class TestChunkIds:
    def test_format(self):
        assert make_chunk_id("doc", 7) == "doc@00000007"
        assert make_chunk_id("doc", 12345678) == "doc@12345678"


class TestUpsert:
    def test_merge_by_canonical_name_and_type(self):
        g = KnowledgeGraph()
        a = g.upsert_node("Sword of Goujian", "Artifact")
        b = g.upsert_node("  sword   OF goujian ", "artifact")
        assert a == b
        assert g.node(a).name == "Sword of Goujian"
        assert "sword OF goujian" in g.node(a).aliases

    def test_same_name_different_type_is_new_node(self):
        g = KnowledgeGraph()
        a = g.upsert_node("Phoenix", "Artifact")
        b = g.upsert_node("Phoenix", "Location")
        assert a != b
        assert g.find_nodes("phoenix") == (a, b)

    def test_attribute_values_dedup_canonically(self):
        g = KnowledgeGraph()
        a = g.upsert_node("Sword", "Artifact", attributes={"Era": "Warring  States"})
        g.upsert_node("Sword", "Artifact", attributes={"era": ["warring states", "Han"]})
        attrs = g.node(a).attributes
        assert attrs == {"era": ["Warring States", "Han"]}

    def test_declared_type_validation(self):
        g = KnowledgeGraph(entity_types=["Artifact", "Period"])
        a = g.upsert_node("Sword", "artifact")
        assert g.node(a).entity_type == "Artifact"
        with pytest.raises(ValueError, match="not declared"):
            g.upsert_node("Ship", "Vehicle")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeGraph().upsert_node("  ", "Artifact")


class TestEdges:
    def test_repeat_observation_increments_weight(self):
        g = KnowledgeGraph()
        a = g.upsert_node("A", "T")
        b = g.upsert_node("B", "T")
        g.add_edge(a, "r", b, chunk="c1")
        edge = g.add_edge(a, "r", b, chunk="c2")
        assert edge.weight == 2.0
        assert edge.source_chunks == {"c1", "c2"}

    def test_same_chunk_does_not_increment(self):
        g = KnowledgeGraph()
        a = g.upsert_node("A", "T")
        b = g.upsert_node("B", "T")
        g.add_edge(a, "r", b, chunk="c1")
        edge = g.add_edge(a, "r", b, chunk="c1")
        assert edge.weight == 1.0

    def test_self_loop_stored_but_outside_degree(self):
        g = KnowledgeGraph()
        a = g.upsert_node("A", "T")
        b = g.upsert_node("B", "T")
        g.add_edge(a, "self", a)
        g.add_edge(a, "r", b)
        assert g.edge_count == 2
        assert g.degree(a) == 1
        assert oracles.weighted_degree(g, a) == 1.0
        assert g.total_weight() == 1.0
        assert a not in g.neighbors(a)

    def test_unknown_endpoint(self):
        g = KnowledgeGraph()
        a = g.upsert_node("A", "T")
        with pytest.raises(UnknownNodeError):
            g.add_edge(a, "r", 99)

    def test_undirected_adjacency_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(10):
            g, _ = random_graph(rng, 8)
            want = oracles.undirected_weights((e.head, e.tail, e.weight) for e in g.edges())
            got = g.undirected_adjacency()
            flat = {}
            for i, row in got.items():
                for j, w in row.items():
                    assert got[j][i] == w  # symmetric
                    flat[(min(i, j), max(i, j))] = w
            assert flat == want


class TestNeighborhood:
    def test_matches_bfs_oracle(self):
        rng = random.Random(11)
        for _ in range(15):
            g, ids = random_graph(rng, 10)
            pairs = [(e.head, e.tail) for e in g.edges()]
            start = rng.choice(ids)
            k = rng.randint(0, 3)
            assert g.neighborhood(start, k) == frozenset(oracles.khop_nodes(pairs, start, k))

    def test_unknown_start(self):
        with pytest.raises(UnknownNodeError):
            small_graph().neighborhood(99, 1)


def round_trip(graph: KnowledgeGraph) -> KnowledgeGraph:
    """Write a graph to its three files and load it back."""
    return load_chunks(*save_chunks(graph), into=load_graph(save_graph(graph)))


class TestSerialization:
    def test_round_trip_structural_equality(self):
        g = small_graph()
        again = round_trip(g)
        assert oracles.structurally_equal(again, g)
        assert (save_graph(again), save_chunks(again)) == (save_graph(g), save_chunks(g))

    def test_round_trip_random_graphs(self):
        rng = random.Random(13)
        for _ in range(10):
            g, _ = random_graph(rng, 9)
            assert oracles.structurally_equal(round_trip(g), g)

    def test_unicode_line_breaks_inside_records(self):
        # json leaves U+0085 and U+2028 unescaped; they must not end a line
        g = small_graph()
        g.add_chunk(Chunk(id="e@00000000", document_id="e", text="a\u2028b\x85c\u2029d", char_offset=0))
        record, text = save_chunks(g)
        assert "a\u2028b\x85c\u2029d".encode("utf-8") in text
        assert len(record.splitlines()) == 2
        again = round_trip(g)
        assert again.chunk("e@00000000").text == "a\u2028b\x85c\u2029d"
        assert oracles.structurally_equal(again, g)

    def test_chunks_split_file(self):
        g = small_graph()
        bare = load_graph(save_graph(g))
        assert bare.chunk_count == 0
        load_chunks(*save_chunks(g), into=bare)
        assert bare.chunk_count == 1
        assert bare.chunk("d@00000000").text == "Sword in Museum."

    def test_chunks_file_rejects_graph_records(self):
        g = small_graph()
        with pytest.raises(GraphFormatError, match=r"chunks\.jsonl"):
            load_chunks(save_graph(g), b"", into=KnowledgeGraph())

    def test_graph_file_rejects_chunk_records(self):
        chunk_line = save_chunks(small_graph())[0].splitlines(keepends=True)[1]
        data = save_graph(small_graph()) + chunk_line
        with pytest.raises(GraphFormatError, match=r"graph\.jsonl:7: .*'chunks'"):
            load_graph(data)

    def test_loaded_chunks_answer_from_the_columns(self):
        g = KnowledgeGraph()
        # id order ("a-b@..." < "a@...") differs from (document, offset) order
        for doc, offset, text in [("a", 0, "first"), ("a", 5, ""), ("a-b", 0, "caf\u00e9"), ("b", 3, "last")]:
            g.add_chunk(Chunk(id=make_chunk_id(doc, offset), document_id=doc, text=text, char_offset=offset))
        again = round_trip(g)
        assert again.chunk_ids() == g.chunk_ids() == sorted(g.chunk_ids())
        assert again.chunk_count == 4
        assert [again.chunk(cid) for cid in again.chunk_ids()] == list(g.chunks())
        assert again.chunk("a@00000005").text == ""
        for absent in ("", "a", "a@00000001", "zzz"):
            assert not again.has_chunk(absent)
            with pytest.raises(KeyError, match="no chunk"):
                again.chunk(absent)
        assert not again.has_chunk(5)

    def test_no_chunks_round_trip(self):
        g = KnowledgeGraph()
        record, text = save_chunks(g)
        assert text == b""
        again = round_trip(g)
        assert again.chunk_count == 0 and again.chunk_ids() == [] and list(again.chunks()) == []

    def test_missing_meta(self):
        data = save_graph(small_graph()).decode().splitlines()
        body = "\n".join(data[1:]).encode()
        with pytest.raises(GraphFormatError):
            load_graph(body)

    def test_repeated_meta(self):
        lines = save_graph(small_graph()).decode().splitlines()
        doubled = "\n".join([lines[0], lines[0], *lines[1:]]).encode()
        with pytest.raises(GraphFormatError, match="meta"):
            load_graph(doubled)

    def test_corrupt_line(self):
        data = save_graph(small_graph()) + b"{broken\n"
        with pytest.raises(GraphFormatError):
            load_graph(data)

    def test_edge_before_nodes_rejected(self):
        lines = save_graph(small_graph()).decode().splitlines()
        edge_lines = [ln for ln in lines if '"kind": "edge"' in ln or '"kind":"edge"' in ln]
        assert edge_lines
        reordered = [lines[0]] + edge_lines + [ln for ln in lines[1:] if ln not in edge_lines]
        with pytest.raises(GraphFormatError):
            load_graph("\n".join(reordered).encode())

    def test_audit_clean_after_round_trip(self):
        g = load_graph(save_graph(small_graph()))
        assert g.audit() == []
