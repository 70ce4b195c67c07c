#!/usr/bin/env python3
"""Sweep the clustering knobs over the museum graph.

Builds the sample index once, then reports the attribute-aware modularity and
community count for a grid of attribute weights (alpha) and the completion
threshold's effect on membership size.

Usage: python3 scripts/sweep_clustering.py [--alphas 0,0.5,1] [--taus 0,0.3,0.7,1]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from graphrag.community import (
    ClusterParams,
    communities_from_partition,
    complete_community,
    louvain_cluster,
    modularity_multi,
)
from graphrag.config import load_config
from graphrag.pipeline import build_index, load_index_graph

REPO = Path(__file__).resolve().parent.parent
FIXTURE = REPO / "tests" / "fixtures" / "museum"


def parse_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alphas", type=parse_floats, default=[0.0, 0.25, 0.5, 1.0, 2.0])
    parser.add_argument("--taus", type=parse_floats, default=[0.0, 0.3, 0.5, 0.7, 1.0])
    args = parser.parse_args()

    cfg = load_config(FIXTURE / "config.yaml")
    with tempfile.TemporaryDirectory(prefix="sweep-") as scratch:
        index_dir = Path(scratch) / "index"
        build_index(cfg, index_dir=index_dir)
        graph, _ = load_index_graph(index_dir)

    print(f"graph: {graph.node_count} nodes, {graph.edge_count} edges\n")
    print(f"{'alpha':>6} {'Q':>14} {'communities':>12} {'sizes'}")
    partitions = {}
    for alpha in args.alphas:
        params = ClusterParams(alpha=alpha)
        partition = louvain_cluster(graph, params)
        q = modularity_multi(graph, partition, alpha)
        sizes = sorted((len(m) for m in partition.members_of()), reverse=True)
        partitions[alpha] = partition
        print(f"{alpha:>6.2f} {q:>14.9f} {partition.community_count:>12} {sizes}")

    baseline = partitions[args.alphas[0]]
    communities = communities_from_partition(graph, baseline)
    print(f"\ncompletion sweep on the alpha={args.alphas[0]:.2f} partition:")
    print(f"{'tau':>6} " + " ".join(f"c{c.id}" for c in communities))
    for tau in args.taus:
        grown = [len(complete_community(graph, c, tau).completed_members) for c in communities]
        print(f"{tau:>6.2f} " + " ".join(f"{n:>2}" for n in grown))


if __name__ == "__main__":
    main()
