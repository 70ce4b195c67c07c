"""Index build orchestration: corpus loading, artifact integrity, staging."""

from __future__ import annotations

import dataclasses
import json

import pytest

from graphrag.config import load_config
from graphrag.errors import BenchmarkError, ConfigError, GraphFormatError, IndexingError
from graphrag.pipeline import (
    build_communities,
    build_index,
    load_bundle,
    load_communities,
    load_index_graph,
    read_corpus,
    read_manifest,
    run_clustering,
    run_eval,
    run_retrieve,
)


class TestReadCorpus:
    def test_directory_of_text_files(self, tmp_path):
        (tmp_path / "b.txt").write_text("second doc")
        (tmp_path / "a.md").write_text("first doc")
        (tmp_path / "ignored.dat").write_text("binary-ish")
        docs = read_corpus(tmp_path)
        assert docs == [("a", "first doc"), ("b", "second doc")]

    def test_json_array(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([
            {"doc_id": "d1", "text": "one"},
            {"title": "d2", "passage": "two"},
        ]))
        assert read_corpus(path) == [("d1", "one"), ("d2", "two")]

    def test_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "body": "one"}\n{"id": "d2", "body": "two"}\n')
        assert read_corpus(path) == [("d1", "one"), ("d2", "two")]

    def test_empty_rejected(self, tmp_path):
        (tmp_path / "corpus.json").write_text("[]")
        with pytest.raises(IndexingError):
            read_corpus(tmp_path / "corpus.json")
        empty_dir = tmp_path / "docs"
        empty_dir.mkdir()
        with pytest.raises(IndexingError):
            read_corpus(empty_dir)

    def test_missing_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            read_corpus(tmp_path / "nowhere")


class TestBuildIndex:
    def test_artifacts_and_manifest(self, museum_cfg, tmp_path):
        out = tmp_path / "idx"
        build_index(museum_cfg, index_dir=out)
        for name in ("graph.jsonl", "chunks.jsonl", "embeddings.jsonl", "manifest.json"):
            assert (out / name).exists(), name
        manifest = read_manifest(out)
        assert manifest["counts"] == {"documents": 5, "chunks": 5, "nodes": 10, "edges": 15}
        assert manifest["config_hash"] == museum_cfg.hash()
        assert set(manifest["artifacts"]) == {"graph.jsonl", "chunks.jsonl", "embeddings.jsonl"}

    def test_refuses_overwrite_without_force(self, museum_cfg, tmp_path):
        out = tmp_path / "idx"
        build_index(museum_cfg, index_dir=out)
        with pytest.raises(ConfigError, match="--force"):
            build_index(museum_cfg, index_dir=out)
        build_index(museum_cfg, force=True, index_dir=out)  # force path succeeds

    def test_force_removes_stale_downstream_artifacts(self, museum_cfg, tmp_path):
        out = tmp_path / "idx"
        build_index(museum_cfg, index_dir=out)
        run_clustering(museum_cfg, index_dir=out)
        (out / "eval_report.json").write_text("{}")
        build_index(museum_cfg, force=True, index_dir=out)
        assert not (out / "communities.jsonl").exists()
        assert not (out / "reports.jsonl").exists()
        assert not (out / "eval_report.json").exists()

    def test_failed_build_writes_nothing(self, museum_fixture, tmp_path):
        cfg = load_config(museum_fixture / "config.yaml")
        # a rule set that never matches leaves the graph empty; the audit fails
        clients = dataclasses.replace(cfg.clients, stub_rules=())
        cfg = dataclasses.replace(cfg, clients=clients)
        out = tmp_path / "idx"
        with pytest.raises(IndexingError):
            build_index(cfg, index_dir=out)
        assert not (out / "manifest.json").exists()
        assert not (out / "graph.jsonl").exists()

    def test_tampered_artifact_detected(self, museum_cfg, tmp_path):
        out = tmp_path / "idx"
        build_index(museum_cfg, index_dir=out)
        graph_path = out / "graph.jsonl"
        graph_path.write_text(graph_path.read_text() + "\n")
        with pytest.raises(GraphFormatError, match="digest"):
            load_index_graph(out)

    def test_load_round_trip(self, museum_cfg, tmp_path):
        out = tmp_path / "idx"
        build_index(museum_cfg, index_dir=out)
        graph, manifest = load_index_graph(out)
        assert graph.node_count == manifest["counts"]["nodes"]
        assert graph.chunk_count == manifest["counts"]["chunks"]


class TestClustering:
    def test_artifacts_written(self, museum_cfg, museum_index):
        assert (museum_index / "communities.jsonl").exists()
        assert (museum_index / "reports.jsonl").exists()

    def test_communities_cover_expected_dimensions(self, museum_cfg, museum_index):
        communities, reports = load_communities(museum_index)
        dims = {c.dimension.split(":", 1)[0] for c in communities}
        assert dims == {"topology", "attribute", "multihop"}
        assert sorted(reports) == [c.id for c in communities]
        assert [c.id for c in communities] == list(range(len(communities)))

    def test_refuses_overwrite_without_force(self, museum_cfg, museum_index):
        with pytest.raises(ConfigError, match="--force"):
            run_clustering(museum_cfg, index_dir=museum_index)

    def test_cluster_before_index_fails(self, museum_cfg, tmp_path):
        with pytest.raises(ConfigError):
            run_clustering(museum_cfg, index_dir=tmp_path / "nothing")

    def test_load_before_cluster_fails(self, museum_cfg, tmp_path):
        out = tmp_path / "idx"
        build_index(museum_cfg, index_dir=out)
        with pytest.raises(ConfigError, match="graphrag cluster"):
            load_communities(out)

    def test_report_coverage_enforced(self, museum_cfg, museum_index, tmp_path):
        out = tmp_path / "idx"
        out.mkdir()
        for name in ("communities.jsonl", "reports.jsonl"):
            (out / name).write_text((museum_index / name).read_text())
        lines = (out / "reports.jsonl").read_text().strip().splitlines()
        (out / "reports.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(GraphFormatError, match="report"):
            load_communities(out)

    def test_unknown_multihop_root(self, museum_cfg, museum_index):
        graph, _ = load_index_graph(museum_index)
        spec = museum_cfg.clustering.multihop[0]
        bad = dataclasses.replace(
            museum_cfg.clustering,
            multihop=(dataclasses.replace(spec, root="Atlantis"),),
        )
        cfg = dataclasses.replace(museum_cfg, clustering=bad)
        with pytest.raises(ConfigError, match="Atlantis"):
            build_communities(cfg, graph)


class TestRetrieveAndEval:
    def test_retrieve_needs_communities(self, museum_cfg, tmp_path):
        out = tmp_path / "idx"
        build_index(museum_cfg, index_dir=out)
        with pytest.raises(ConfigError):
            run_retrieve(museum_cfg, "any query", index_dir=out)

    def test_retrieve_end_to_end(self, museum_cfg, museum_index):
        response = run_retrieve(
            museum_cfg, "Which artifacts date to the Warring States period?",
            index_dir=museum_index,
        )
        assert response.results
        assert "warring states" in response.results[0].text.lower()

    def test_eval_writes_reports(self, museum_cfg, museum_fixture, museum_index):
        report = run_eval(
            museum_cfg, museum_fixture / "benchmark.json", index_dir=museum_index
        )
        assert report.verify() == []
        assert set(report.rows) == {"inference", "comparison", "temporal"}
        assert (museum_index / "eval_report.json").exists()
        text = (museum_index / "eval_report.txt").read_text()
        assert "average" in text
        payload = json.loads((museum_index / "eval_report.json").read_text())
        assert payload["metadata"]["scorer"] == "evidence-containment"
        assert payload["metadata"]["queries"] == 6

    def test_eval_missing_benchmark(self, museum_cfg, museum_index, tmp_path):
        with pytest.raises((BenchmarkError, ConfigError)):
            run_eval(museum_cfg, tmp_path / "absent.json", index_dir=museum_index)

    def test_bundle_assembly(self, museum_cfg, museum_index):
        bundle = load_bundle(museum_cfg, museum_index)
        assert bundle.graph.node_count == 10
        assert len(bundle.communities) == 5
        assert len(bundle.trie) > 0
        assert set(bundle.reports) == {c.id for c in bundle.communities}
        # every member chunk is owned by at least its own community
        for chunk_id, owners in bundle.chunk_memberships.items():
            assert owners
            assert bundle.graph.has_chunk(chunk_id)
        # community_chunks is the same relation keyed the other way
        assert set(bundle.community_chunks) == {c.id for c in bundle.communities}
        pairs = {(cid, chunk) for cid, chunks in bundle.community_chunks.items() for chunk in chunks}
        assert pairs == {(cid, chunk) for chunk, owners in bundle.chunk_memberships.items() for cid in owners}
