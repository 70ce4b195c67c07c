"""Scoring, aggregation conventions, and benchmark file loading."""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass

import pytest

import oracles
from conftest import FIXTURES
from graphrag.errors import BenchmarkError, IndexingError
from graphrag.evaluation import (
    BenchmarkQuery,
    MetricsReport,
    MetricsRow,
    aggregate,
    f1,
    load_benchmark,
    score_retrieval,
)
from graphrag.pipeline import build_index


@dataclass
class FakeResult:
    text: str


def query(evidence, qtype="inference", question="q?") -> BenchmarkQuery:
    return BenchmarkQuery(
        id="q1", question=question, query_type=qtype, gold_evidence=tuple(evidence)
    )


class TestF1:
    def test_frozen_reference_cells(self):
        assert f1(46.00, 54.82) == pytest.approx(50.03, abs=0.01)
        assert f1(64.47, 81.16) == pytest.approx(71.86, abs=0.01)
        assert f1(65.4733, 81.1633) == pytest.approx(72.48, abs=0.01)

    def test_matches_oracle(self):
        for rel, rec in [(10, 90), (50, 50), (0, 30), (100, 100)]:
            assert f1(rel, rec) == pytest.approx(oracles.harmonic_f1_ref(rel, rec), abs=1e-12)

    def test_both_zero_defined(self):
        assert f1(0.0, 0.0) == 0.0

    def test_range_validated(self):
        with pytest.raises(ValueError):
            f1(-1.0, 50.0)
        with pytest.raises(ValueError):
            f1(50.0, 101.0)


class TestScoreRetrieval:
    def test_containment_is_canonical(self):
        results = [FakeResult("The  SWORD was  unearthed in Hubei."),
                   FakeResult("Unrelated text.")]
        q = query(["sword was unearthed in hubei"])
        rel, rec = score_retrieval(results, q)
        assert rel == 50.0
        assert rec == 100.0

    def test_empty_results(self):
        assert score_retrieval([], query(["x"])) == (0.0, 0.0)

    def test_partial_evidence_coverage(self):
        results = [FakeResult("alpha fact one")]
        q = query(["fact one", "fact two"])
        rel, rec = score_retrieval(results, q)
        assert rel == 100.0
        assert rec == 50.0

    def test_chunk_matching_any_evidence_counts_once(self):
        results = [FakeResult("fact one and fact two together")]
        q = query(["fact one", "fact two"])
        rel, rec = score_retrieval(results, q)
        assert rel == 100.0
        assert rec == 100.0


class TestAggregate:
    def test_per_type_means_and_average_row(self):
        scores = [
            ("inference", 100.0, 50.0),
            ("inference", 0.0, 100.0),
            ("comparison", 80.0, 60.0),
            ("temporal", 40.0, 90.0),
        ]
        report = aggregate(scores)
        assert report.rows["inference"].relevancy == 50.0
        assert report.rows["inference"].recall == 75.0
        assert report.rows["inference"].f1 == pytest.approx(f1(50.0, 75.0))
        # average row mixes the three per-type cells, then takes harmonic F1
        mean_rel = (50.0 + 80.0 + 40.0) / 3
        mean_rec = (75.0 + 60.0 + 90.0) / 3
        assert report.average.relevancy == pytest.approx(mean_rel)
        assert report.average.recall == pytest.approx(mean_rec)
        assert report.average.f1 == pytest.approx(f1(mean_rel, mean_rec))
        # F1-of-averages, not average-of-F1s
        mean_f1 = sum(report.rows[t].f1 for t in report.rows) / 3
        assert report.average.f1 != pytest.approx(mean_f1, abs=1e-6)
        assert report.verify() == []

    def test_missing_type_noted(self):
        report = aggregate([("inference", 50.0, 50.0)])
        assert "temporal" not in report.rows
        assert any("temporal" in d for d in report.diagnostics)
        assert report.average.relevancy == 50.0

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown query types"):
            aggregate([("oracular", 50.0, 50.0)])

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_verify_catches_corrupt_cell(self):
        report = aggregate([("inference", 50.0, 70.0)])
        bad = MetricsReport(
            rows={"inference": MetricsRow(relevancy=50.0, recall=70.0, f1=99.0)},
            average=report.average,
            metadata={},
        )
        problems = bad.verify()
        assert len(problems) == 1
        assert "inference" in problems[0]

    def test_render_table_layout(self):
        report = aggregate([
            ("inference", 33.33, 100.0),
            ("comparison", 83.33, 100.0),
            ("temporal", 50.0, 100.0),
        ])
        table = report.render_table()
        lines = table.splitlines()
        assert lines[0].split() == ["Query", "Type", "Relevancy", "Recall", "F1"]
        assert lines[1].startswith("inference")
        assert lines[-1].startswith("average")
        assert "100.00" in lines[1]


class TestLoadBenchmark:
    def test_museum_fixture(self):
        path = FIXTURES / "museum" / "benchmark.json"
        documents, queries, diagnostics = load_benchmark(str(path))
        assert documents == []
        assert len(queries) == 6
        assert {q.query_type for q in queries} == {"inference", "comparison", "temporal"}
        assert all(q.gold_evidence for q in queries)
        assert diagnostics == []

    def test_unknown_type_skipped_with_diagnostic(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps([
            {"query": "ok?", "question_type": "inference", "evidence_list": [{"fact": "f"}]},
            {"query": "bad?", "question_type": "rhetorical", "evidence_list": [{"fact": "f"}]},
        ]))
        _, queries, diagnostics = load_benchmark(str(path))
        assert len(queries) == 1
        assert any("rhetorical" in d for d in diagnostics)

    def test_type_aliases_accepted(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps([
            {"query": "q?", "question_type": "Temporal_Query", "evidence_list": ["f"]},
        ]))
        _, queries, _ = load_benchmark(str(path))
        assert queries[0].query_type == "temporal"

    def test_string_evidence_accepted(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps([
            {"query": "q?", "question_type": "inference", "evidence_list": ["plain string"]},
        ]))
        _, queries, _ = load_benchmark(str(path))
        assert queries[0].gold_evidence == ("plain string",)

    def test_jsonl_form(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        rows = [
            {"query": "a?", "question_type": "inference", "evidence_list": ["f1"]},
            {"query": "b?", "question_type": "comparison", "evidence_list": ["f2"]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        _, queries, _ = load_benchmark(str(path))
        assert len(queries) == 2

    def test_all_records_unusable(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps([{"query": "", "question_type": "inference"}]))
        with pytest.raises(BenchmarkError, match="no usable queries"):
            load_benchmark(str(path))

    def test_duplicate_corpus_id_rejected(self, museum_cfg, tmp_path):
        # load_benchmark reads only the queries; the benchmark's corpus goes
        # through build_index, which must refuse a repeated document id
        qpath = tmp_path / "bench.json"
        qpath.write_text(json.dumps([
            {"query": "q?", "question_type": "inference", "evidence_list": ["f"]},
        ]))
        cpath = tmp_path / "corpus.json"
        cpath.write_text(json.dumps([
            {"doc_id": "d1", "text": "x"},
            {"doc_id": "d1", "text": "y"},
        ]))
        _, queries, _ = load_benchmark(str(qpath))
        assert len(queries) == 1
        out = tmp_path / "idx"
        with pytest.raises(IndexingError, match="duplicate"):
            build_index(dataclasses.replace(museum_cfg, corpus_path=cpath), index_dir=out)
        assert not (out / "manifest.json").exists()

    def test_empty_evidence_rejected_with_diagnostic(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps([
            {"query": "ok?", "question_type": "inference", "evidence_list": ["f"]},
            {"query": "bad?", "question_type": "inference", "evidence_list": []},
        ]))
        _, queries, diagnostics = load_benchmark(str(path))
        assert len(queries) == 1
        assert any("evidence_list" in d for d in diagnostics)

    def test_one_record_jsonl(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text('{"query": "a?", "question_type": "inference", "evidence_list": ["f1"]}\n')
        _, queries, _ = load_benchmark(str(path))
        assert [q.question for q in queries] == ["a?"]

    def test_jsonl_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        rows = [
            {"query": "a?", "question_type": "inference", "evidence_list": ["f1"]},
            {"query": "b?", "question_type": "comparison", "evidence_list": ["f2"]},
        ]
        path.write_text("\n" + json.dumps(rows[0]) + "\n\n  \n" + json.dumps(rows[1]) + "\n\n")
        _, queries, _ = load_benchmark(str(path))
        assert [q.question for q in queries] == ["a?", "b?"]

    def test_unparseable_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        good = json.dumps({"query": "a?", "question_type": "inference", "evidence_list": ["f1"]})
        path.write_text(good + "\n\n{broken\n" + good + "\n")
        with pytest.raises(BenchmarkError, match=re.escape(f"{path}:3: ")):
            load_benchmark(str(path))


class TestBenchmarkQuery:
    def test_type_validated(self):
        with pytest.raises(ValueError):
            BenchmarkQuery(id="x", question="q", query_type="wild", gold_evidence=("e",))

    def test_evidence_required(self):
        with pytest.raises(ValueError):
            BenchmarkQuery(id="x", question="q", query_type="inference", gold_evidence=())
