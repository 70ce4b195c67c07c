#!/usr/bin/env python3
"""Regenerate the committed golden artifacts for the museum fixture.

Runs the real pipeline into a scratch directory, exhaustively verifies the
topology partition against the brute-force optimum (Bell(10) = 115975
partitions), then copies the artifacts into tests/golden/museum/ together
with a summary.json of the frozen numbers.

Usage: python3 scripts/make_goldens.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

import oracles  # noqa: E402

from graphrag.cli import _response_payload  # noqa: E402
from graphrag.config import load_config  # noqa: E402
from graphrag.pipeline import (  # noqa: E402
    build_index,
    load_communities,
    load_index_graph,
    read_manifest,
    run_clustering,
    run_eval,
    run_retrieve,
)

FIXTURE = REPO / "tests" / "fixtures" / "museum"
GOLDEN = REPO / "tests" / "golden" / "museum"
WS_QUERY = "Which artifacts date to the Warring States period?"

ARTIFACTS = (
    "graph.jsonl",
    "chunks.jsonl",
    "chunks.txt",
    "embeddings.npy",
    "communities.jsonl",
    "reports.jsonl",
    "eval_report.json",
    "eval_report.txt",
)


def exhaustive_best(graph, alpha: float) -> tuple[float, list[tuple[int, ...]]]:
    """Global optimum by enumerating every partition. The inner loop uses a
    precomputed pair-score table; the winner is re-checked against the
    literal oracle at the end."""
    nodes, weights, attrs = oracles.snapshot(graph)
    m = sum(weights.values())
    k = oracles.degrees(nodes, weights)
    jac = {
        (i, j): oracles.jaccard_attrs(attrs[i], attrs[j])
        for pos, i in enumerate(nodes)
        for j in nodes[pos + 1:]
    }
    pair_score = {
        (i, j): 2.0 * (weights.get((i, j), 0.0) - k[i] * k[j] / (2.0 * m) + alpha * jac[(i, j)])
        for (i, j) in jac
    }
    const = sum(-k[i] * k[i] / (2.0 * m) for i in nodes)
    pairs = sorted(pair_score)

    best = float("-inf")
    winners: list[dict[int, int]] = []
    for assignment in oracles.set_partitions(nodes):
        q = const
        for (i, j) in pairs:
            if assignment[i] == assignment[j]:
                q += pair_score[(i, j)]
        q /= 2.0 * m
        if q > best + 1e-12:
            best, winners = q, [dict(assignment)]
        elif q >= best - 1e-12:
            winners.append(dict(assignment))

    check = oracles.modularity_oracle(nodes, weights, attrs, winners[0], alpha)
    assert abs(check - best) < 1e-9, "fast scorer disagrees with the literal oracle"
    return best, sorted({oracles.canonical_assignment(w) for w in winners})


def main() -> int:
    cfg = load_config(FIXTURE / "config.yaml")
    scratch = Path(tempfile.mkdtemp(prefix="museum-golden-"))
    index_dir = scratch / "index"

    manifest = build_index(cfg, index_dir=index_dir)
    cluster_summary = run_clustering(cfg, index_dir=index_dir)
    report = run_eval(cfg, FIXTURE / "benchmark.json", index_dir=index_dir)
    response = run_retrieve(cfg, WS_QUERY, index_dir=index_dir)

    graph, final_manifest = load_index_graph(index_dir)
    communities, _reports = load_communities(index_dir, final_manifest)
    topology = [c for c in communities if c.dimension == "topology"]
    assignment = {
        node: community.id
        for community in topology
        for node in community.members
    }
    nodes, weights, attrs = oracles.snapshot(graph)
    alpha = cfg.clustering.params.alpha
    q_found = oracles.modularity_oracle(nodes, weights, attrs, assignment, alpha)
    q_best, winner_shapes = exhaustive_best(graph, alpha)
    found_shape = oracles.canonical_assignment(assignment)
    optimal = found_shape in winner_shapes
    print(f"louvain Q = {q_found:.12f}")
    print(f"optimal Q = {q_best:.12f} ({len(winner_shapes)} winning shape(s))")
    print(f"louvain partition is globally optimal: {optimal}")
    if not optimal:
        print("warning: freezing a non-optimal partition", file=sys.stderr)

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in ARTIFACTS:
        shutil.copyfile(index_dir / name, GOLDEN / name)
    # the manifest as the last stage left it, with the cluster digests
    normalized = dict(final_manifest)
    normalized.pop("created_at", None)
    (GOLDEN / "manifest_normalized.json").write_text(
        json.dumps(normalized, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    (GOLDEN / "retrieve_ws.json").write_text(
        json.dumps(_response_payload(response), indent=2, sort_keys=True) + "\n", "utf-8"
    )

    summary = {
        "counts": manifest["counts"],
        "communities": cluster_summary,
        "alpha": alpha,
        "topology_q": q_found,
        "optimal_q": q_best,
        "topology_is_optimal": optimal,
        "eval": report.to_dict()["rows"] | {"average": report.to_dict()["average"]},
        "ws_query": WS_QUERY,
        "ws_top_chunk": response.results[0].chunk_id if response.results else None,
    }
    (GOLDEN / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    print(f"golden artifacts written to {GOLDEN}")
    shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
