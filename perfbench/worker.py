"""One benchmark repeat in a fresh process; ``run.py`` starts it.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload and its sizes, the seed, a scratch directory,
whether to trace, and either a measuring window in seconds (``share_s``) or
null for a fixed amount of work (one build, or one pass over the query
set). The repeat has three phases:

    setup   generate the inputs; for the query workloads also build_index,
            run_clustering and, on query-warm, the first load_bundle
    ops     the measured closed loop: builds on ``build``, retrieve calls on
            ``query-warm``, load_config + run_retrieve on ``query-cold``
    check   ``build`` only: load the last index and score the query set once

The last line of standard output is one JSON object with the raw samples,
digests and (when traced) per-layer totals; ``run.py`` aggregates them.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _index_record(index_dir: Path, manifest: dict) -> dict:
    """What must be byte-identical across repeats: the manifest's artifact
    digests plus the sha256 of the two cluster outputs."""
    digests = dict(manifest["artifacts"])
    for name in ("communities.jsonl", "reports.jsonl"):
        digests[name] = _file_digest(index_dir / name)
    return digests


def _index_bytes(index_dir: Path) -> int:
    return sum(p.stat().st_size for p in index_dir.iterdir() if p.is_file())


class Scorer:
    """Scores the first pass over the query set: answer F1 through
    ``evaluation.aggregate`` and a digest over (query, returned chunk ids)."""

    def __init__(self, evaluation, queries):
        self.evaluation = evaluation
        self.queries = queries
        self.scores: list[tuple[str, float, float]] = []
        self.returned: list[list] = []

    @property
    def done(self) -> bool:
        return len(self.scores) == len(self.queries)

    def add(self, query, response) -> None:
        if response is None:  # failed call: scored as a miss
            self.scores.append((query.query_type, 0.0, 0.0))
            self.returned.append([query.question, None])
            return
        relevancy, recall = self.evaluation.score_retrieval(response.results, query)
        self.scores.append((query.query_type, relevancy, recall))
        self.returned.append([query.question, [r.chunk_id for r in response.results]])

    def result(self) -> dict:
        report = self.evaluation.aggregate(self.scores)
        blob = json.dumps(self.returned, separators=(",", ":")).encode("utf-8")
        return {"answer_f1": report.average.f1, "retrieval_digest": hashlib.sha256(blob).hexdigest()}


def run(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path[:0] = [str(root / "src"), str(_HERE)]
    import generate
    import numpy
    import spans

    tracer = spans.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    from graphrag import config, evaluation, pipeline, retrieval

    workload = spec["workload"]
    work = Path(spec["work_dir"])
    data = work / "data"
    sizes = generate.generate(data, spec["seed"], spec["docs"], spec["chunks_per_doc"], spec["queries"])
    config_path = data / "config.yaml"
    queries = evaluation.load_benchmark(str(data / "queries.json"))[1]
    kinds = [r["kind"] for r in json.loads((data / "queries.json").read_text("utf-8"))]
    cfg = config.load_config(config_path)

    out: dict = {"sizes": sizes, "index_s": [], "cluster_s": [], "op_ms": [], "op_kind": [],
                 "index_records": [], "errors": [], "attempted": 0, "failed": 0}
    phases = {}

    def mark(phase: str) -> None:
        if tracer is not None:
            phases[phase] = tracer.snapshot()

    def build(index_dir: Path) -> float:
        t0 = time.perf_counter()
        manifest = pipeline.build_index(cfg, index_dir=index_dir)
        t1 = time.perf_counter()
        summary = pipeline.run_clustering(cfg, index_dir=index_dir)
        t2 = time.perf_counter()
        out["index_s"].append(t1 - t0)
        out["cluster_s"].append(t2 - t1)
        out["index_records"].append(_index_record(index_dir, manifest))
        out.setdefault("index_bytes", _index_bytes(index_dir))
        out.setdefault("graph", {**manifest["counts"], "communities": summary["by_dimension"]})
        return t2 - t0

    bundle = clients = None
    if workload != "build":
        build(cfg.index_dir)
        if workload == "query-warm":
            bundle = pipeline.load_bundle(cfg)
            clients = pipeline.make_clients(cfg.clients)
    out["setup_s"] = time.perf_counter() - _T0
    mark("setup")

    scorer = Scorer(evaluation, queries)
    share = spec["share_s"]
    deadline = time.perf_counter() + (share or 0.0)
    built = None
    i = 0
    while True:
        if workload == "build":
            out["attempted"] += 1
            try:
                out["op_ms"].append(build(work / f"index{i}") * 1000.0)
                built = work / f"index{i}"
            except Exception as exc:  # counted, never dropped
                out["failed"] += 1
                out["errors"].append(f"{type(exc).__name__}: {exc}")
            i += 1
            if share is None or time.perf_counter() >= deadline:
                break
            continue
        query = queries[i % len(queries)]
        out["attempted"] += 1
        response = None
        t0 = time.perf_counter()
        try:
            if workload == "query-warm":
                response = retrieval.retrieve(query.question, bundle, clients.embed, clients.rerank, cfg.fusion)
            else:
                response = pipeline.run_retrieve(config.load_config(config_path), query.question)
            out["op_ms"].append((time.perf_counter() - t0) * 1000.0)
            out["op_kind"].append(kinds[i % len(queries)])
        except Exception as exc:  # counted, never dropped
            out["failed"] += 1
            out["errors"].append(f"{type(exc).__name__}: {exc}")
        if not scorer.done:
            scorer.add(query, response)
        i += 1
        if scorer.done and (share is None or time.perf_counter() >= deadline):
            break
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    mark("ops")

    if workload == "build":
        if built is None:
            raise RuntimeError("every build failed: " + "; ".join(out["errors"]))
        bundle = pipeline.load_bundle(cfg, built)
        clients = pipeline.make_clients(cfg.clients)
        for query in queries:
            out["attempted"] += 1
            try:
                response = retrieval.retrieve(query.question, bundle, clients.embed, clients.rerank, cfg.fusion)
            except Exception as exc:  # counted, never dropped
                out["failed"] += 1
                out["errors"].append(f"{type(exc).__name__}: {exc}")
                response = None
            scorer.add(query, response)
    mark("check")
    out.update(scorer.result())
    out["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}

    if tracer is not None:
        tracer.uninstall()
        out["absent"] = tracer.absent
        out["phases"] = {
            "setup": phases["setup"],
            "ops": spans.difference(phases["ops"], phases["setup"]),
            "check": spans.difference(phases["check"], phases["ops"]),
        }
        # The per-layer metrics describe the measured work only. The one
        # exception is query-warm's load_bundle, which runs once in set-up.
        out["layers"] = dict(out["phases"]["ops"])
        if workload == "query-warm":
            out["layers"]["pipeline.load_bundle"] = phases["setup"]["pipeline.load_bundle"]
    return out


if __name__ == "__main__":
    result = run(json.loads(sys.argv[1]))
    print(json.dumps(result, sort_keys=True))
