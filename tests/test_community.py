"""Clustering metric, Louvain optimizer, completion, and the report builder."""

from __future__ import annotations

import math
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import connected_graph, random_graph
from graphrag import community
from graphrag.community import (
    ClusterParams,
    Community,
    Partition,
    attribute_cluster,
    attribute_similarity,
    boundary_affinities,
    communities_from_partition,
    complete_community,
    edges_within,
    generate_report,
    louvain_cluster,
    modularity_multi,
    multihop_subgraph,
)
from graphrag.errors import UndefinedModularityError, UnknownNodeError
from graphrag.extraction import ChatClient
from graphrag.graph_store import Chunk, KnowledgeGraph


def two_triangles(bridge: bool = False) -> tuple[KnowledgeGraph, list[int]]:
    g = KnowledgeGraph()
    ids = [g.upsert_node(f"n{i}", "Thing") for i in range(6)]
    links = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    if bridge:
        links.append((2, 3))
    for a, b in links:
        g.add_edge(ids[a], "linked", ids[b])
    return g, ids


def community_of(graph: KnowledgeGraph, members) -> Community:
    members = frozenset(members)
    return Community(
        id=0,
        dimension="topology",
        members=members,
        completed_members=members,
        internal_edges=edges_within(graph, members),
    )


class TestAttributeSimilarity:
    def test_identical(self):
        a = {"era": ["Han"], "region": ["Hubei"]}
        assert attribute_similarity(a, a) == 1.0

    def test_disjoint(self):
        assert attribute_similarity({"era": ["Han"]}, {"era": ["Tang"]}) == 0.0

    def test_partial_overlap(self):
        a = {"era": ["Han"]}
        b = {"era": ["Han"], "region": ["Hubei"]}
        assert attribute_similarity(a, b) == 0.5

    def test_empty_sides(self):
        assert attribute_similarity({}, {}) == 0.0
        assert attribute_similarity({"era": ["Han"]}, {}) == 0.0

    def test_case_and_space_insensitive(self):
        assert attribute_similarity({"Era": ["Warring  States"]}, {"era": ["warring states"]}) == 1.0


class TestModularity:
    def test_two_triangles_perfect_split_frozen(self):
        g, ids = two_triangles()
        part = Partition.from_labels({ids[i]: (0 if i < 3 else 1) for i in range(6)})
        assert math.isclose(modularity_multi(g, part, 0.0), 0.5, rel_tol=1e-12)

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(21)
        for _ in range(15):
            g, ids = connected_graph(rng, 8)
            nodes, weights, attrs = oracles.snapshot(g)
            for alpha in (0.0, 0.5, 1.0):
                labels = {nid: rng.randint(0, 3) for nid in ids}
                got = modularity_multi(g, Partition.from_labels(labels), alpha)
                want = oracles.modularity_oracle(nodes, weights, attrs, labels, alpha)
                assert abs(got - want) < 1e-9

    def test_no_edges_undefined(self):
        g = KnowledgeGraph()
        ids = [g.upsert_node(f"n{i}", "T") for i in range(3)]
        with pytest.raises(UndefinedModularityError):
            modularity_multi(g, oracles.singletons(Partition, ids), 0.5)

    def test_self_loops_do_not_count(self):
        g, ids = two_triangles()
        g.add_edge(ids[0], "self", ids[0])
        part = Partition.from_labels({ids[i]: (0 if i < 3 else 1) for i in range(6)})
        assert math.isclose(modularity_multi(g, part, 0.0), 0.5, rel_tol=1e-12)

    def test_partition_must_cover_graph(self):
        g, ids = two_triangles()
        partial = Partition.from_labels({ids[0]: 0})
        with pytest.raises(Exception):
            modularity_multi(g, partial, 0.0)


class TestLouvain:
    def test_two_triangles_with_bridge(self):
        g, ids = two_triangles(bridge=True)
        part = louvain_cluster(g, ClusterParams(alpha=0.0))
        shape = oracles.canonical_assignment(part.assignment)
        assert shape == (0, 0, 0, 1, 1, 1)

    def test_attribute_term_changes_the_answer(self):
        # bridge endpoints share an attribute; a large alpha pulls the bridge
        # tail into the left community, a zero alpha keeps the triangles
        def build():
            g, ids = two_triangles(bridge=True)
            g.upsert_node("n2", "Thing", attributes={"camp": "x"})
            g.upsert_node("n3", "Thing", attributes={"camp": "x"})
            return g, ids

        shapes = {}
        for alpha in (0.0, 2.0):
            g, ids = build()
            part = louvain_cluster(g, ClusterParams(alpha=alpha, attribute_scope="full"))
            got = modularity_multi(g, part, alpha)
            nodes, weights, attrs = oracles.snapshot(g)
            best, winners = oracles.best_partitions(nodes, weights, attrs, alpha)
            assert abs(got - best) < 1e-9
            shapes[alpha] = oracles.canonical_assignment(part.assignment)
        assert shapes[0.0] == (0, 0, 0, 1, 1, 1)
        assert shapes[2.0] == (0, 0, 0, 0, 1, 1)

    def test_never_below_singletons(self):
        rng = random.Random(23)
        for _ in range(12):
            g, ids = connected_graph(rng, 8)
            for alpha in (0.0, 0.7):
                part = louvain_cluster(g, ClusterParams(alpha=alpha, attribute_scope="full"))
                q = modularity_multi(g, part, alpha)
                q0 = modularity_multi(g, oracles.singletons(Partition, ids), alpha)
                assert q >= q0 - 1e-12

    def test_deterministic_without_seed(self):
        rng = random.Random(25)
        g, _ = connected_graph(rng, 9)
        p1 = louvain_cluster(g, ClusterParams(alpha=0.5, attribute_scope="full"))
        p2 = louvain_cluster(g, ClusterParams(alpha=0.5, attribute_scope="full"))
        assert p1.assignment == p2.assignment

    def test_seeded_runs_reproducible(self):
        rng = random.Random(27)
        g, _ = connected_graph(rng, 9)
        p1 = louvain_cluster(g, ClusterParams(alpha=0.5, seed=11, attribute_scope="full"))
        p2 = louvain_cluster(g, ClusterParams(alpha=0.5, seed=11, attribute_scope="full"))
        assert p1.assignment == p2.assignment

    def test_first_pass_matches_metric_recomputing_oracle(self):
        # every move gain must agree with the metric's own delta: one local-move
        # phase has to land where the oracle that rescores the full metric does
        rng = random.Random(29)
        checked = 0
        for _ in range(60):
            g, _ = connected_graph(rng, 8)
            nodes, weights, attrs = oracles.snapshot(g)
            for alpha in (0.5, 1.5):
                want, ambiguous = oracles.local_move_pass(nodes, weights, attrs, alpha)
                if ambiguous:
                    continue  # near-tied deltas: rounding may pick either move
                part = louvain_cluster(
                    g, ClusterParams(alpha=alpha, max_passes=1, attribute_scope="full")
                )
                got = tuple(part.assignment[n] for n in nodes)
                assert got == oracles.canonical_assignment(want)
                checked += 1
        assert checked >= 40

    def test_two_hop_scope_still_beats_singletons(self):
        rng = random.Random(31)
        for _ in range(8):
            g, ids = connected_graph(rng, 8)
            part = louvain_cluster(g, ClusterParams(alpha=0.5, attribute_scope="2hop"))
            q = modularity_multi(g, part, 0.5)
            q0 = modularity_multi(g, oracles.singletons(Partition, ids), 0.5)
            assert q >= q0 - 1e-12

    def test_empty_graph_rejected(self):
        g = KnowledgeGraph()
        g.upsert_node("a", "T")
        with pytest.raises(UndefinedModularityError):
            louvain_cluster(g, ClusterParams())


# raw key/value spellings: case, whitespace and empty variants of a few pairs
RAW_KEYS = ("era", "Era", " ERA ", "region", "re  gion")
RAW_VALUES = ("Han", "han", " HAN ", "Tang", "Warring  States", "warring states", "", "   ")


@st.composite
def attributed_graphs(draw) -> KnowledgeGraph:
    """Small graphs whose nodes carry raw, un-normalized attribute maps:
    multi-valued, spelling variants, empty values, or no attributes at all."""
    n = draw(st.integers(min_value=2, max_value=10))
    g = KnowledgeGraph()
    ids = [g.upsert_node(f"n{i}", "Thing") for i in range(n)]
    node = st.integers(min_value=0, max_value=n - 1)
    for a, b in draw(st.lists(st.tuples(node, node), max_size=3 * n)):
        g.add_edge(ids[a], "linked", ids[b])
    values = st.lists(st.sampled_from(RAW_VALUES), max_size=3)
    for nid in ids:
        g.node(nid).attributes.update(draw(st.dictionaries(st.sampled_from(RAW_KEYS), values, max_size=3)))
    return g


def brute_force_attr_adj(graph: KnowledgeGraph, scope: str) -> list[dict[int, float]]:
    nodes = graph.node_ids()
    pairs = [(i, j) for i in range(len(nodes)) for j in range(len(nodes)) if i != j]
    if scope == "2hop":
        links = [(e.head, e.tail) for e in graph.edges()]
        pairs = [(i, j) for i, j in pairs if nodes[j] in oracles.khop_nodes(links, nodes[i], 2)]
    want: list[dict[int, float]] = [{} for _ in nodes]
    for i, j in pairs:
        s = attribute_similarity(graph.node(nodes[i]).attributes, graph.node(nodes[j]).attributes)
        if s > 0.0:
            want[i][j] = s
    return want


class TestAttributePairBuild:
    @given(attributed_graphs(), st.sampled_from(("full", "2hop")))
    def test_attr_adj_matches_brute_force(self, g, scope):
        level = community._initial_level(g, scope)
        assert level.attr_adj == brute_force_attr_adj(g, scope)

    @given(attributed_graphs(), st.sampled_from(("full", "2hop")), st.sampled_from((0.5, 2.0)))
    def test_partition_matches_pairwise_build(self, g, scope, alpha):
        if g.total_weight() <= 0:
            g.add_edge(g.node_ids()[0], "linked", g.node_ids()[1])
        params = ClusterParams(alpha=alpha, attribute_scope=scope)
        got = louvain_cluster(g, params)

        def pairwise(graph, scope):
            return oracles.pairwise_initial_level(
                graph, scope, community._Level, attribute_similarity
            )

        with mock.patch.object(community, "_initial_level", pairwise):
            want = louvain_cluster(g, params)
        assert got == want


class TestCompletion:
    def test_affinity_values(self):
        g, ids = two_triangles(bridge=True)
        aff = boundary_affinities(g, frozenset(ids[:3]))
        # node 3 touches {2,4,5}; only 2 is inside
        assert aff == {ids[3]: pytest.approx(1 / 3)}

    def test_threshold_absorbs(self):
        g, ids = two_triangles(bridge=True)
        base = community_of(g, ids[:3])
        done = complete_community(g, base, tau=0.3)
        assert done.completed_members == frozenset(ids[:4])
        assert done.members == frozenset(ids[:3])

    def test_above_threshold_stays_out(self):
        g, ids = two_triangles(bridge=True)
        base = community_of(g, ids[:3])
        done = complete_community(g, base, tau=0.5)
        assert done.completed_members == frozenset(ids[:3])

    def test_single_round_no_cascade(self):
        g = KnowledgeGraph()
        a = g.upsert_node("a", "T")
        b = g.upsert_node("b", "T")
        c = g.upsert_node("c", "T")
        g.add_edge(a, "r", b)
        g.add_edge(b, "r", c)
        base = community_of(g, {a})
        done = complete_community(g, base, tau=0.4)
        # b qualifies (1 of its 2 neighbors inside); c touches no original member
        assert done.completed_members == frozenset({a, b})

    def test_tau_bounds(self):
        g, ids = two_triangles()
        base = community_of(g, ids[:3])
        with pytest.raises(ValueError):
            complete_community(g, base, tau=1.5)

    def test_internal_edges_cover_completed_set(self):
        g, ids = two_triangles(bridge=True)
        done = complete_community(g, community_of(g, ids[:3]), tau=0.3)
        touched = {n for h, t, _ in done.internal_edges for n in (h, t)}
        assert touched <= done.completed_members
        assert (ids[2], ids[3], "linked") in done.internal_edges


class TestCommunityShapes:
    def test_from_partition_dense_ids(self):
        g, ids = two_triangles()
        part = Partition.from_labels({ids[i]: (0 if i < 3 else 7) for i in range(6)})
        comms = communities_from_partition(g, part)
        assert [c.id for c in comms] == [0, 1]
        assert comms[0].dimension == "topology"

    def test_attribute_groups(self):
        g, ids = two_triangles()
        for i in (0, 1):
            g.upsert_node(f"n{i}", "Thing", attributes={"era": "Han"})
        g.upsert_node("n3", "Thing", attributes={"era": "Tang"})
        comms = attribute_cluster(g, "era", min_size=2)
        assert len(comms) == 1  # the Tang singleton is dropped
        assert comms[0].dimension == "attribute:era"
        assert comms[0].label == "han"
        assert comms[0].members == frozenset(ids[:2])

    def test_attribute_multi_valued_node_in_both(self):
        g, ids = two_triangles()
        g.upsert_node("n0", "Thing", attributes={"era": ["Han", "Tang"]})
        g.upsert_node("n1", "Thing", attributes={"era": "Han"})
        g.upsert_node("n2", "Thing", attributes={"era": "Tang"})
        comms = attribute_cluster(g, "era", min_size=2)
        assert [c.label for c in comms] == ["han", "tang"]
        assert all(ids[0] in c.members for c in comms)


class TestMultihop:
    def test_matches_enumeration_oracle(self):
        rng = random.Random(33)
        for _ in range(20):
            g, ids = random_graph(rng, 10, edge_p=0.3)
            root = rng.choice(ids)
            hops = rng.randint(0, 3)
            patterns = [("r1",), ("r2", "r1")] if rng.random() < 0.5 else []
            got = multihop_subgraph(g, root, hops, patterns)
            out_edges = {}
            for e in g.edges():
                out_edges.setdefault(e.head, []).append((e.relation.casefold(), e.tail))
            want = oracles.reachable_by_simple_paths(out_edges, root, hops, patterns)
            assert got.members == frozenset(want)

    def test_zero_hops_is_root_only(self):
        g, ids = two_triangles()
        got = multihop_subgraph(g, ids[0], 0)
        assert got.members == {ids[0]}

    def test_pattern_prunes(self):
        g = KnowledgeGraph()
        a, b, c = (g.upsert_node(n, "T") for n in "abc")
        g.add_edge(a, "likes", b)
        g.add_edge(a, "hates", c)
        got = multihop_subgraph(g, a, 2, [("likes",)])
        assert got.members == {a, b}

    def test_pattern_case_folded(self):
        g = KnowledgeGraph()
        a, b = (g.upsert_node(n, "T") for n in "ab")
        g.add_edge(a, "Likes", b)
        assert multihop_subgraph(g, a, 1, [("likes",)]).members == {a, b}

    def test_hops_monotone(self):
        rng = random.Random(35)
        for _ in range(10):
            g, ids = random_graph(rng, 9, edge_p=0.3)
            root = rng.choice(ids)
            prev: frozenset[int] = frozenset({root})
            for hops in range(4):
                cur = multihop_subgraph(g, root, hops).members
                assert prev <= cur
                prev = cur

    def test_unknown_root(self):
        g, _ = two_triangles()
        with pytest.raises(UnknownNodeError):
            multihop_subgraph(g, 404, 2)


class _ScriptedChat(ChatClient):
    def __init__(self, reply):
        self.reply = reply

    def complete(self, system_prompt, user_prompt, temperature=0.0):
        if isinstance(self.reply, Exception):
            raise self.reply
        return self.reply


class TestReports:
    def graph(self):
        g = KnowledgeGraph()
        a = g.upsert_node("Sword", "Artifact", attributes={"era": "Han"}, chunk="d@00000000")
        b = g.upsert_node("Museum", "Museum", chunk="d@00000000")
        g.add_edge(a, "HousedIn", b, chunk="d@00000000")
        g.add_chunk(Chunk(id="d@00000000", document_id="d", text="Sword sits in the Museum.", char_offset=0))
        return g, a, b

    def test_template_structure(self):
        g, a, b = self.graph()
        comm = Community(
            id=3,
            dimension="topology",
            members=frozenset({a}),
            completed_members=frozenset({a, b}),
            internal_edges=edges_within(g, {a, b}),
        )
        report = generate_report(comm, g)
        assert report.title.startswith("Community 3 [topology]:")
        assert "Entities:" in report.summary
        assert "- Sword (Artifact) [era=Han]" in report.summary
        assert "- Museum (Museum) (boundary)" in report.summary
        assert "- Sword -HousedIn-> Museum" in report.summary
        assert "- era=han: 1" in report.summary
        assert report.source_chunks == ("d@00000000",)
        assert len(report.embedding) > 0

    def test_chat_title_used(self):
        g, a, b = self.graph()
        comm = community_of(g, {a, b})
        report = generate_report(comm, g, client=_ScriptedChat("Title: Bronze holdings\nA fine group."))
        assert report.title == "Bronze holdings"
        assert report.summary == "A fine group."

    def test_chat_failure_falls_back_to_template(self):
        g, a, b = self.graph()
        comm = community_of(g, {a, b})
        report = generate_report(comm, g, client=_ScriptedChat(RuntimeError("down")))
        assert "Entities:" in report.summary

    def test_malformed_chat_reply_falls_back(self):
        g, a, b = self.graph()
        comm = community_of(g, {a, b})
        report = generate_report(comm, g, client=_ScriptedChat("no title line here"))
        assert "Entities:" in report.summary

    def test_deterministic(self):
        g, a, b = self.graph()
        comm = community_of(g, {a, b})
        r1 = generate_report(comm, g)
        r2 = generate_report(comm, g)
        assert r1 == r2
