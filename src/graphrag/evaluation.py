"""Retrieval evaluation harness.

Deterministic mode scores a retrieved chunk against gold evidence by
normalized containment (case-folded, whitespace-collapsed substring). Per
query type the harness reports Relevancy (fraction of returned chunks
matching some evidence) and Recall (fraction of evidence covered by some
chunk) in percent, with F1 their harmonic mean. The average row takes the
arithmetic mean of the per-type relevancies and recalls and derives its F1
from those means, not by averaging the per-type F1 values.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

from .errors import BenchmarkError
from .records import read_input
from .textnorm import canonical_name

log = logging.getLogger(__name__)

QUERY_TYPES = ("inference", "comparison", "temporal")

_TYPE_ALIASES = {
    "inference": "inference",
    "inference_query": "inference",
    "comparison": "comparison",
    "comparison_query": "comparison",
    "temporal": "temporal",
    "temporal_query": "temporal",
}


@dataclass(frozen=True)
class BenchmarkQuery:
    id: str
    question: str
    query_type: str
    gold_evidence: tuple[str, ...]
    gold_answer: str = ""

    def __post_init__(self) -> None:
        if self.query_type not in QUERY_TYPES:
            raise ValueError(f"unknown query type {self.query_type!r}")
        if not self.gold_evidence:
            raise ValueError("gold_evidence must be non-empty")


def f1(relevancy: float, recall: float) -> float:
    """Harmonic mean of two percentages. Both-zero is defined as 0.0 and
    logged rather than raised, since empty retrievals do occur."""
    for name, value in (("relevancy", relevancy), ("recall", recall)):
        if not 0.0 <= value <= 100.0:
            raise ValueError(f"{name} must lie in [0, 100], got {value}")
    if relevancy == 0.0 and recall == 0.0:
        log.info("f1(0, 0) encountered; returning 0.0")
        return 0.0
    return 2.0 * relevancy * recall / (relevancy + recall)


def _matches(chunk_text: str, evidence: str) -> bool:
    return canonical_name(evidence) in canonical_name(chunk_text)


def score_retrieval(results: Sequence, query: BenchmarkQuery) -> tuple[float, float]:
    """(relevancy, recall) percentages for one query.

    ``results`` need only expose ``.text``. Relevancy: fraction of returned
    chunks containing at least one gold evidence span. Recall: fraction of
    gold evidence contained in at least one returned chunk. No results means
    (0, 0).
    """
    texts = [r.text for r in results]
    if not texts:
        return 0.0, 0.0
    hit_chunks = sum(1 for t in texts if any(_matches(t, e) for e in query.gold_evidence))
    hit_evidence = sum(1 for e in query.gold_evidence if any(_matches(t, e) for t in texts))
    relevancy = 100.0 * hit_chunks / len(texts)
    recall = 100.0 * hit_evidence / len(query.gold_evidence)
    return relevancy, recall


@dataclass(frozen=True)
class MetricsRow:
    relevancy: float
    recall: float
    f1: float

    def to_dict(self) -> dict:
        return {"relevancy": self.relevancy, "recall": self.recall, "f1": self.f1}


@dataclass
class MetricsReport:
    rows: dict[str, MetricsRow]
    average: MetricsRow | None
    metadata: dict = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)

    def verify(self) -> list[str]:
        """Check every F1 cell is the harmonic mean of its row to 0.01."""
        problems = []
        cells = dict(self.rows)
        if self.average is not None:
            cells["average"] = self.average
        for name, row in cells.items():
            expect = f1(row.relevancy, row.recall)
            if abs(expect - row.f1) > 0.01:
                problems.append(f"{name}: f1 {row.f1:.4f} != harmonic mean {expect:.4f}")
        return problems

    def to_dict(self) -> dict:
        return {
            "rows": {name: self.rows[name].to_dict() for name in sorted(self.rows)},
            "average": self.average.to_dict() if self.average else None,
            "metadata": self.metadata,
            "diagnostics": list(self.diagnostics),
        }

    def render_table(self) -> str:
        lines = [f"{'Query Type':<12} {'Relevancy':>10} {'Recall':>10} {'F1':>10}"]
        for name in QUERY_TYPES:
            if name in self.rows:
                row = self.rows[name]
                lines.append(f"{name:<12} {row.relevancy:>10.2f} {row.recall:>10.2f} {row.f1:>10.2f}")
        if self.average is not None:
            row = self.average
            lines.append(f"{'average':<12} {row.relevancy:>10.2f} {row.recall:>10.2f} {row.f1:>10.2f}")
        return "\n".join(lines)


def aggregate(
    scores: Sequence[tuple[str, float, float]],
    metadata: dict | None = None,
) -> MetricsReport:
    """Fold per-query (type, relevancy, recall) rows into the report.

    Per-type cells are arithmetic means over that type's queries; the average
    row is the mean of the three per-type values (F1-of-averages). Types with
    no queries are omitted with a diagnostic.
    """
    if not scores:
        raise ValueError("no query scores to aggregate")
    diagnostics: list[str] = []
    rows: dict[str, MetricsRow] = {}
    for qtype in QUERY_TYPES:
        rel = [r for t, r, _ in scores if t == qtype]
        rec = [r for t, _, r in scores if t == qtype]
        if not rel:
            diagnostics.append(f"no queries of type {qtype!r}; row omitted")
            continue
        mean_rel = sum(rel) / len(rel)
        mean_rec = sum(rec) / len(rec)
        rows[qtype] = MetricsRow(relevancy=mean_rel, recall=mean_rec, f1=f1(mean_rel, mean_rec))
    unknown = {t for t, _, _ in scores} - set(QUERY_TYPES)
    if unknown:
        raise ValueError(f"unknown query types in scores: {sorted(unknown)}")
    average = None
    if rows:
        mean_rel = sum(r.relevancy for r in rows.values()) / len(rows)
        mean_rec = sum(r.recall for r in rows.values()) / len(rows)
        average = MetricsRow(relevancy=mean_rel, recall=mean_rec, f1=f1(mean_rel, mean_rec))
    return MetricsReport(rows=rows, average=average, metadata=metadata or {}, diagnostics=diagnostics)


# -- benchmark loading ---------------------------------------------------------------


def load_benchmark(
    queries_path: str,
) -> tuple[list[tuple[str, str]], list[BenchmarkQuery], list[str]]:
    """Load benchmark queries from a JSON-array or JSON-lines file.

    Returns ``([], queries, diagnostics)``: the leading document list is
    always empty, since the corpus is read by ``pipeline.read_corpus``.
    Query records use the public layout: ``query``, ``question_type``,
    ``evidence_list`` (objects with a ``fact`` field, or plain strings),
    ``answer``. Unknown question types are skipped with a diagnostic; records
    without usable evidence are rejected with one.
    """
    diagnostics: list[str] = []
    queries: list[BenchmarkQuery] = []
    for i, record in enumerate(read_input(queries_path, BenchmarkError)):
        if not isinstance(record, dict):
            diagnostics.append(f"record {i}: not an object; skipped")
            continue
        question = record.get("query") or record.get("question") or ""
        if not str(question).strip():
            diagnostics.append(f"record {i}: missing query text; skipped")
            continue
        raw_type = str(record.get("question_type", "")).strip().lower()
        qtype = _TYPE_ALIASES.get(raw_type)
        if qtype is None:
            diagnostics.append(f"record {i}: unknown question type {raw_type!r}; skipped")
            continue
        raw_evidence = record.get("evidence_list")
        if not isinstance(raw_evidence, list) or not raw_evidence:
            diagnostics.append(f"record {i}: missing or empty evidence_list; rejected")
            continue
        evidence: list[str] = []
        for item in raw_evidence:
            if isinstance(item, dict):
                fact = str(item.get("fact", "")).strip()
            else:
                fact = str(item).strip()
            if fact:
                evidence.append(fact)
        if not evidence:
            diagnostics.append(f"record {i}: evidence_list has no usable text; rejected")
            continue
        queries.append(
            BenchmarkQuery(
                id=str(record.get("id", f"q{i}")),
                question=str(question).strip(),
                query_type=qtype,
                gold_evidence=tuple(evidence),
                gold_answer=str(record.get("answer", "")),
            )
        )
    if not queries:
        raise BenchmarkError(f"{queries_path}: no usable queries")
    for d in diagnostics:
        log.info("benchmark: %s", d)
    return [], queries, diagnostics
