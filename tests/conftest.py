"""Shared fixtures: the museum corpus pipeline (built once per session) and
random graph builders used by the oracle comparison suites."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import settings

from graphrag.config import PipelineConfig, load_config
from graphrag.graph_store import KnowledgeGraph
from graphrag.pipeline import build_index, run_clustering

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

ATTR_KEYS = ("color", "size")
ATTR_VALUES = ("red", "blue", "big")


@pytest.fixture(scope="session")
def museum_fixture() -> Path:
    return FIXTURES / "museum"


@pytest.fixture(scope="session")
def museum_cfg(museum_fixture: Path) -> PipelineConfig:
    return load_config(museum_fixture / "config.yaml")


@pytest.fixture(scope="session")
def museum_index(museum_cfg: PipelineConfig, tmp_path_factory) -> Path:
    """One fully built museum index (graph + communities) for read-only tests."""
    out = tmp_path_factory.mktemp("museum-index")
    build_index(museum_cfg, index_dir=out)
    run_clustering(museum_cfg, index_dir=out)
    return out


def set_config_value(raw: dict, section: str, key: str, value) -> None:
    """Set one key of a parsed pipeline config. ``section`` is a top-level
    section, or "multihop" / "stub_rules" for the first entry of
    ``clustering.multihop`` / ``clients.stub_rules``."""
    if section == "multihop":
        raw["clustering"]["multihop"][0][key] = value
    elif section == "stub_rules":
        raw["clients"]["stub_rules"][0][key] = value
    else:
        raw[section][key] = value


def random_graph(
    rng: random.Random,
    max_nodes: int,
    edge_p: float = 0.45,
    attr_p: float = 0.5,
    relations: tuple[str, ...] = ("r1", "r2", "r3"),
) -> tuple[KnowledgeGraph, list[int]]:
    """Random directed graph with random attribute maps; >= 3 nodes, possibly
    disconnected, no guaranteed edges."""
    graph = KnowledgeGraph()
    n = rng.randint(3, max_nodes)
    ids = [graph.upsert_node(f"node {i}", "Thing") for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < edge_p:
                graph.add_edge(ids[i], rng.choice(relations), ids[j])
    for nid in ids:
        for key in ATTR_KEYS:
            if rng.random() < attr_p:
                graph.upsert_node(f"node {nid}", "Thing", attributes={key: rng.choice(ATTR_VALUES)})
    return graph, ids


def connected_graph(rng: random.Random, max_nodes: int, **kwargs) -> tuple[KnowledgeGraph, list[int]]:
    """random_graph with at least one edge, so modularity is defined."""
    graph, ids = random_graph(rng, max_nodes, **kwargs)
    if graph.total_weight() <= 0:
        graph.add_edge(ids[0], "r1", ids[1])
    return graph, ids
