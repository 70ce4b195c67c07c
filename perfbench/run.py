"""Offline benchmark of the graphrag pipeline in stub mode.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each workload runs in fresh worker
processes (``worker.py``), one closed-loop client each, with a different
PYTHONHASHSEED per repeat. With ``--trace 0`` three repeats share the
measuring window and the end-to-end metrics are medians over all their
samples. With ``--trace 1`` one untraced and one traced repeat each do a
fixed amount of work, and the per-layer metrics come from the traced one.

The metric names and units are read from BENCHMARK.json. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Above it are a table and a JSON report with the
environment, sizes, digests and, when traced, the overhead and a per-phase
breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Sizes are chosen so that one run of each workload stays near half a
# minute on a 2-core machine while every percentile has enough samples.
WORKLOADS = {
    # write path; clustering's quadratic attribute-pair build dominates
    "build": {"docs": 400, "chunks_per_doc": 3, "queries": 40},
    # read path with a bundle loaded once: many chunks, small graph
    "query-warm": {"docs": 300, "chunks_per_doc": 10, "queries": 120},
    # read path as the retrieve CLI runs it: load_config + run_retrieve per query
    "query-cold": {"docs": 150, "chunks_per_doc": 9, "queries": 60},
}
REPEATS = 3
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_worker(spec: dict, hash_seed: int, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    command = [sys.executable, str(Path(__file__).with_name("worker.py")), json.dumps(spec)]
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {spec['workload']} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for {spec['workload']} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(results: list[dict]) -> dict[str, float]:
    op_ms = [x for r in results for x in r["op_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "index_s": statistics.median(x for r in results for x in r["index_s"]),
        "cluster_s": statistics.median(x for r in results for x in r["cluster_s"]),
        "index_mb": statistics.median(r["index_bytes"] for r in results) / 1e6,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in results) / 1024.0,
        "op_mean_ms": statistics.fmean(op_ms),
        "op_p50_ms": percentile(op_ms, 50),
        "op_p95_ms": percentile(op_ms, 95),
    }


def per_layer(traced: dict) -> dict[str, float]:
    graph = traced["graph"]
    values = {
        "evaluation.answer_f1": traced["answer_f1"],
        "graph.nodes": graph["nodes"],
        "graph.edges": graph["edges"],
        "graph.chunks": graph["chunks"],
        "communities.topology": graph["communities"].get("topology", 0),
        "communities.total": sum(graph["communities"].values()),
    }
    for layer, stats in traced["layers"].items():
        for stat, value in stats.items():
            values[f"{layer}.{stat}"] = value
    return values


def coverage(traced: dict) -> dict[str, float]:
    """Share of the traced builds' index_s + cluster_s that the traced
    layers' self times account for (pool-thread extraction excluded, since
    the build waits on it inside index_corpus)."""
    ops = traced["phases"]["ops"]
    total = sum(traced["index_s"]) + sum(traced["cluster_s"])
    roots = ("pipeline.build_index", "pipeline.run_clustering")
    self_times = {name: s["self_s"] for name, s in ops.items()
                  if "self_s" in s and name != "extraction.extract_chunk"}
    return {
        "all_layers": sum(self_times.values()) / total,
        "below_roots": sum(v for k, v in self_times.items() if k not in roots) / total,
    }


def gates(results: list[dict]) -> list[str]:
    problems = []
    records = {json.dumps(rec, sort_keys=True) for r in results for rec in r["index_records"]}
    if len(records) != 1:
        problems.append(f"index artifacts differ across {len(records)} builds (byte determinism)")
    if len({r["retrieval_digest"] for r in results}) != 1:
        problems.append("retrieval digests differ across repeats")
    if len({r["answer_f1"] for r in results}) != 1:
        problems.append("answer_f1 differs across repeats")
    for r in results:
        for key in ("nodes", "edges", "chunks"):
            if r["graph"][key] != r["sizes"][key]:
                problems.append(f"graph has {r['graph'][key]} {key}, generator expects {r['sizes'][key]}")
        if r["failed"]:
            problems.append(f"{r['failed']} of {r['attempted']} operations failed: {r['errors'][:3]}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="graphrag offline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "graphrag" / "__init__.py").is_file():
        print(f"error: no graphrag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    work_root = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    base = {"root": str(ROOT), "workload": args.workload, "seed": args.seed, **WORKLOADS[args.workload]}
    if args.trace:
        specs = [dict(base, trace=False, share_s=None), dict(base, trace=True, share_s=None)]
    else:
        specs = [dict(base, trace=False, share_s=args.seconds / REPEATS) for _ in range(REPEATS)]
    hash_seeds = [1000 * (args.seed % 1000) + k + 1 for k in range(len(specs))]
    try:
        results = []
        for k, (spec, hash_seed) in enumerate(zip(specs, hash_seeds)):
            spec["work_dir"] = str(work_root / f"repeat{k}")
            results.append(run_worker(spec, hash_seed, deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if (ROOT / ".bench_work").is_dir() and not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    problems = gates(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    op_ms = [x for r in results for x in r["op_ms"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {**results[0]["env"], "nproc": os.cpu_count(), "cpu": cpu_model()},
        "sizes": {**WORKLOADS[args.workload], **results[0]["sizes"]},
        "graph": results[0]["graph"],
        "hash_seeds": hash_seeds,
        "samples": {"ops": len(op_ms), "beyond_p95": sum(1 for x in op_ms if x > percentile(op_ms, 95)),
                    "builds": sum(len(r["index_s"]) for r in results), "setups": len(results)},
        "answer_f1": results[0]["answer_f1"],
        "error_rate": failed / attempted,
        "errors": [e for r in results for e in r["errors"]][:5],
        "index_digests": results[0]["index_records"][0],
        "retrieval_digest": results[0]["retrieval_digest"],
        "gate_problems": problems,
        "wall_s": time.monotonic() - started,
    }
    kinds = sorted({k for r in results for k in r["op_kind"]})
    if kinds:
        report["op_p50_ms_by_kind"] = {
            kind: statistics.median(ms for r in results for ms, k in zip(r["op_ms"], r["op_kind"]) if k == kind)
            for kind in kinds
        }
    if args.trace:
        untraced, traced = results
        plain, timed = end_to_end([untraced]), end_to_end([traced])
        report["end_to_end"] = plain
        report["tracing_overhead"] = {name: timed[name] - plain[name] for name in plain}
        report["absent_layers"] = traced["absent"]
        report["phases"] = traced["phases"]
        if args.workload == "build":
            report["build_coverage"] = coverage(traced)
        values = per_layer(traced)
    else:
        values = report["end_to_end"] = end_to_end(results)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    if args.trace:
        table = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    else:  # every end-to-end figure, gated or not; the unit is the name's suffix
        table = [(name, v, name.rsplit("_", 1)[1].replace("mb", "MB")) for name, v in values.items()]
    for name, value, unit in table:
        print(f"{name:<48} {value:>16.6f} {unit}")
    print(f"{'answer_f1':<48} {report['answer_f1']:>16.6f} %")
    print(f"{'error_rate':<48} {report['error_rate']:>16.6f} ({failed}/{attempted})")
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
