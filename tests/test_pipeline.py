"""Index build orchestration: corpus loading, artifact integrity, staging."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest

from conftest import EMBEDDING_CORRUPTIONS, corrupt_embeddings, drop_digests
from graphrag.config import load_config
from graphrag.embedding import HashingEmbedder
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

    def test_field_variants(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps([
            {"doc_id": "d1", "text": "body one"},
            {"id": "d2", "body": "body two"},
            {"title": "d3", "passage": "body three"},
        ]))
        assert read_corpus(path) == [("d1", "body one"), ("d2", "body two"), ("d3", "body three")]

    def test_one_record_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "body": "one"}\n')
        assert read_corpus(path) == [("d1", "one")]

    def test_jsonl_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('\n{"id": "d1", "body": "one"}\n\n   \n{"id": "d2", "body": "two"}\n\n')
        assert read_corpus(path) == [("d1", "one"), ("d2", "two")]

    def test_jsonl_unicode_line_breaks_inside_text(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "body": "one\u2028two"}\n{"id": "d2", "body": "three\x85four"}\n', "utf-8")
        assert read_corpus(path) == [("d1", "one\u2028two"), ("d2", "three\x85four")]

    def test_unparseable_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "body": "one"}\n\n{"id": "d2", "body": \n')
        with pytest.raises(IndexingError, match=re.escape(f"{path}:3: ")):
            read_corpus(path)

    def test_non_utf8_file_names_the_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("first doc")
        (tmp_path / "b.txt").write_bytes("caf\u00e9 doc".encode("latin-1"))
        with pytest.raises(IndexingError, match=re.escape(str(tmp_path / "b.txt"))):
            read_corpus(tmp_path)

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
        for name in ("graph.jsonl", "chunks.jsonl", "chunks.txt", "embeddings.npy", "manifest.json"):
            assert (out / name).exists(), name
        manifest = read_manifest(out)
        assert manifest["counts"] == {"documents": 5, "chunks": 5, "nodes": 10, "edges": 15}
        assert set(manifest) == {"format_version", "created_at", "schema_version", "ablate", "counts", "artifacts"}
        assert set(manifest["artifacts"]) == {"graph.jsonl", "chunks.jsonl", "chunks.txt", "embeddings.npy"}
        assert "clustered_from" not in manifest

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
        assert "communities.jsonl" in read_manifest(out)["artifacts"]
        build_index(museum_cfg, force=True, index_dir=out)
        assert not (out / "communities.jsonl").exists()
        assert not (out / "reports.jsonl").exists()
        assert not (out / "eval_report.json").exists()
        manifest = read_manifest(out)
        assert set(manifest["artifacts"]) == {"graph.jsonl", "chunks.jsonl", "chunks.txt", "embeddings.npy"}
        assert "clustered_from" not in manifest

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

    def test_tampered_chunk_text_detected(self, museum_cfg, tmp_path):
        out = tmp_path / "idx"
        build_index(museum_cfg, index_dir=out)
        path = out / "chunks.txt"
        path.write_bytes(path.read_bytes().replace(b"a", b"e", 1))
        with pytest.raises(GraphFormatError, match=r"chunks\.txt: content does not match the manifest digest"):
            load_index_graph(out)

    def test_load_round_trip(self, museum_cfg, tmp_path):
        out = tmp_path / "idx"
        build_index(museum_cfg, index_dir=out)
        graph, manifest = load_index_graph(out)
        assert graph.node_count == manifest["counts"]["nodes"]
        assert graph.chunk_count == manifest["counts"]["chunks"]


def _drop_meta(lines):
    return lines[1:]


def _bump_version(lines):
    meta = json.loads(lines[0])
    meta["format_version"] += 1
    return [json.dumps(meta), *lines[1:]]


def _blank_line(lines):
    return [lines[0], "", *lines[1:]]


def _truncate(lines):
    return [*lines[:-1], lines[-1][: len(lines[-1]) // 2]]


def _drop_field(lines):
    record = json.loads(lines[1])
    del record[next(key for key in record if key != "kind")]
    return [lines[0], json.dumps(record), *lines[2:]]


def _repeat_record(lines):
    return [lines[0], lines[1], *lines[1:]]


def _short_vector(lines):
    record = json.loads(lines[1])
    record["embedding"] = record["embedding"][:3]
    return [lines[0], json.dumps(record), *lines[2:]]


def _chunk_record(lines):
    # a chunk record whose id collides with a chunk of chunks.jsonl
    chunk_id = next(c for line in lines[1:] for c in json.loads(line)["source_chunks"])
    record = {"kind": "chunk", "id": chunk_id, "document_id": "x", "char_offset": 1, "text": "x"}
    return [*lines, json.dumps(record)]


def _unknown_member(lines):
    record = json.loads(lines[1])
    record["completed_members"].append(9999)
    return [lines[0], json.dumps(record), *lines[2:]]


ARTIFACTS = ["graph.jsonl", "chunks.jsonl", "communities.jsonl", "reports.jsonl"]


class TestArtifactFormat:
    """Every .jsonl artifact goes through one parser: with its manifest
    digest dropped, a missing or wrong-version meta record, a blank line, a
    truncated last line, a record missing a field, a repeated record, a
    report vector of the wrong length, a chunk record in graph.jsonl or a
    community member that is not a graph node is a GraphFormatError naming
    the file (and, for a bad record, its line)."""

    @pytest.mark.parametrize(
        "name,corrupt",
        [(name, corrupt)
         for corrupt in (_drop_meta, _bump_version, _blank_line, _truncate, _drop_field, _repeat_record)
         for name in ARTIFACTS]
        + [("reports.jsonl", _short_vector),
           ("graph.jsonl", _chunk_record), ("communities.jsonl", _unknown_member)],
    )
    def test_corrupt_artifact_names_the_file(self, museum_cfg, museum_index, tmp_path, name, corrupt):
        out = tmp_path / "idx"
        shutil.copytree(museum_index, out)
        drop_digests(out, name)
        lines = (out / name).read_text("utf-8").splitlines()
        (out / name).write_text("\n".join(corrupt(lines)) + "\n", "utf-8")
        with pytest.raises(GraphFormatError, match=re.escape(name)) as info:
            load_bundle(museum_cfg, out)
        assert "digest" not in str(info.value)
        if corrupt in (_drop_field, _short_vector, _unknown_member):
            assert f"{name}:2: " in str(info.value)
        if corrupt is _chunk_record:
            assert f"{name}:{len(lines) + 1}: " in str(info.value)
        if corrupt is _unknown_member:
            assert "9999" in str(info.value)

    def test_index_without_communities_loads(self, museum_cfg, museum_index, tmp_path):
        out = tmp_path / "idx"
        shutil.copytree(museum_index, out)
        drop_digests(out, "communities.jsonl", "reports.jsonl")
        for name in ("communities.jsonl", "reports.jsonl"):
            meta = json.loads((out / name).read_text("utf-8").splitlines()[0])
            (out / name).write_text(json.dumps({**meta, "count": 0}) + "\n", "utf-8")
        bundle = load_bundle(museum_cfg, out)
        assert bundle.communities == [] and len(bundle.report_store) == 0
        response = run_retrieve(museum_cfg, "warring states bronze", index_dir=out)
        assert response.results
        assert all(r.s_comm == 0.0 and r.provenance["communities"] == [] for r in response.results)


def _chunk_text(change):
    """A corruption of chunks.txt alone: ``change`` maps its bytes."""
    return lambda record, data: (record, change(data))


def _chunk_column(change):
    """A corruption of the chunks record alone: ``change`` edits it in place."""
    def corrupt(record, data):
        change(record)
        return record, data
    return corrupt


def _swap(column, i, j):
    column[i], column[j] = column[j], column[i]


# Ways to break the chunk columns or their text, each with the file its
# error must name.
CHUNK_CORRUPTIONS = {
    "text-not-utf8": ("chunks.txt", _chunk_text(lambda data: data[:-1] + b"\xff")),
    "text-one-short": ("chunks.txt", _chunk_text(lambda data: data.decode("utf-8")[:-1].encode("utf-8"))),
    "text-one-long": ("chunks.txt", _chunk_text(lambda data: data + b"x")),
    "duplicate-id": ("chunks.jsonl:2", _chunk_column(lambda r: r["id"].__setitem__(1, r["id"][0]))),
    "unsorted-ids": ("chunks.jsonl:2", _chunk_column(lambda r: _swap(r["id"], 0, 1))),
    "unequal-columns": ("chunks.jsonl:2", _chunk_column(lambda r: r["document_id"].pop())),
    "bool-offset": ("chunks.jsonl:2", _chunk_column(lambda r: r["char_offset"].__setitem__(0, True))),
    "decreasing-text-end": ("chunks.jsonl:2", _chunk_column(lambda r: _swap(r["text_end"], 0, 1))),
    "string-text-end": ("chunks.jsonl:2", _chunk_column(lambda r: r["text_end"].__setitem__(0, "9"))),
}


class TestChunkColumns:
    """chunks.jsonl is a meta record and one record of four columns, whose
    text_end cuts chunks.txt. With both digests dropped, each way of breaking
    the pair is a GraphFormatError naming the file it broke."""

    @pytest.mark.parametrize("case", sorted(CHUNK_CORRUPTIONS))
    def test_corrupt_chunks_are_rejected(self, museum_cfg, museum_index, tmp_path, case):
        out = tmp_path / "idx"
        shutil.copytree(museum_index, out)
        drop_digests(out, "chunks.jsonl", "chunks.txt")
        meta, record = (out / "chunks.jsonl").read_text("utf-8").splitlines()
        blamed, corrupt = CHUNK_CORRUPTIONS[case]
        record, data = corrupt(json.loads(record), (out / "chunks.txt").read_bytes())
        (out / "chunks.jsonl").write_text(meta + "\n" + json.dumps(record) + "\n", "utf-8")
        (out / "chunks.txt").write_bytes(data)
        with pytest.raises(GraphFormatError, match=re.escape(blamed)) as info:
            load_bundle(museum_cfg, out)
        assert "digest" not in str(info.value)

    def test_one_record_of_columns(self, museum_index):
        meta, record = map(json.loads, (museum_index / "chunks.jsonl").read_text("utf-8").splitlines())
        assert meta == {"kind": "meta", "format_version": 3, "schema_version": "museum-1", "count": 5}
        assert sorted(record) == ["char_offset", "document_id", "id", "kind", "text_end"]
        assert record["id"] == sorted(record["id"]) and len(set(record["id"])) == 5
        text = (museum_index / "chunks.txt").read_bytes().decode("utf-8")
        assert record["text_end"][-1] == len(text)


def test_every_artifact_is_digest_bound(museum_index):
    """Every file build_index and run_clustering leave in the index is bound
    by a manifest digest, so none can skip the check at load."""
    manifest = read_manifest(museum_index)
    files = {p.name for p in museum_index.iterdir() if p.is_file()} - {"manifest.json"}
    assert files == set(manifest["artifacts"])
    for name in files:
        assert manifest["artifacts"][name] == hashlib.sha256((museum_index / name).read_bytes()).hexdigest()


class TestEmbeddingsMatrix:
    """embeddings.npy is one little-endian float64 matrix, a row per chunk in
    chunk id order. With its manifest digest dropped, each way of breaking
    it is a GraphFormatError naming the file; a matrix of another width is
    indistinguishable from a changed clients.embed_dim, so it is the
    ConfigError that names both dimensions."""

    @pytest.mark.parametrize("case", sorted(EMBEDDING_CORRUPTIONS))
    def test_corrupt_matrix_is_rejected(self, museum_cfg, museum_index, tmp_path, case):
        out = tmp_path / "idx"
        shutil.copytree(museum_index, out)
        corrupt_embeddings(out, case)
        if case == "wrong-dimension":
            with pytest.raises(ConfigError, match="3- and 64-dimensional"):
                load_bundle(museum_cfg, out)
            return
        with pytest.raises(GraphFormatError, match=re.escape("embeddings.npy")) as info:
            load_bundle(museum_cfg, out)
        assert "digest" not in str(info.value)
        if case in ("extra-row", "missing-row"):
            assert "rows for the 5 chunks" in str(info.value)
        if case in ("nan", "inf"):
            assert "row 1 " in str(info.value)

    def test_matrix_is_the_embedder_output(self, museum_cfg, museum_index):
        bundle = load_bundle(museum_cfg, museum_index)
        chunk_ids = bundle.graph.chunk_ids()
        store = bundle.chunk_store
        assert [store.ref(row) for row in range(len(store))] == chunk_ids
        want = HashingEmbedder(museum_cfg.clients.embed_dim).embed(
            [bundle.graph.chunk(cid).text for cid in chunk_ids]
        )
        assert np.array_equal(store._matrix, np.array(want))


class TestClustering:
    def test_artifacts_written(self, museum_cfg, museum_index):
        assert (museum_index / "communities.jsonl").exists()
        assert (museum_index / "reports.jsonl").exists()

    def test_communities_cover_expected_dimensions(self, museum_cfg, museum_index):
        communities, reports = load_communities(museum_index, read_manifest(museum_index))
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
            load_communities(out, read_manifest(out))

    def test_report_coverage_enforced(self, museum_cfg, museum_index, tmp_path):
        out = tmp_path / "idx"
        shutil.copytree(museum_index, out)
        manifest = read_manifest(out)
        del manifest["artifacts"]["reports.jsonl"]
        lines = (out / "reports.jsonl").read_text().strip().splitlines()
        (out / "reports.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(GraphFormatError, match="report"):
            load_communities(out, manifest)

    def test_cluster_binds_its_artifacts(self, museum_index):
        manifest = read_manifest(museum_index)
        for name in ("communities.jsonl", "reports.jsonl"):
            digest = hashlib.sha256((museum_index / name).read_bytes()).hexdigest()
            assert manifest["artifacts"][name] == digest, name
        assert manifest["clustered_from"] == manifest["artifacts"]["graph.jsonl"]

    @pytest.mark.parametrize("name", ["communities.jsonl", "reports.jsonl"])
    def test_edited_cluster_artifact_rejected(self, museum_cfg, museum_index, tmp_path, name):
        out = tmp_path / "idx"
        shutil.copytree(museum_index, out)
        lines = (out / name).read_text("utf-8").splitlines()
        (out / name).write_text("\n".join(lines[:-1]) + "\n", "utf-8")
        with pytest.raises(GraphFormatError, match="digest; rebuild with --force"):
            load_bundle(museum_cfg, out)

    def test_stale_communities_rejected(self, museum_cfg, museum_index, tmp_path):
        """Communities copied back after the index was rebuilt are not bound
        to the new manifest, even when the graph came out the same."""
        out = tmp_path / "idx"
        shutil.copytree(museum_index, out)
        build_index(museum_cfg, force=True, index_dir=out)
        for name in ("communities.jsonl", "reports.jsonl"):
            shutil.copyfile(museum_index / name, out / name)
        with pytest.raises(GraphFormatError, match="not clustered from .*rebuild with --force"):
            load_bundle(museum_cfg, out)
        run_clustering(museum_cfg, force=True, index_dir=out)
        assert load_bundle(museum_cfg, out).communities

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
        # report store row i is community i
        store = bundle.report_store
        assert [store.ref(row) for row in range(len(store))] == [str(c.id) for c in bundle.communities]
        # the flat membership arrays hold each (community, chunk) pair once:
        # every chunk with provenance in a community's completed members,
        # and every community owns at least one chunk
        chunks = bundle.chunk_store
        pairs = [
            (index, chunks.ref(row))
            for row, index in zip(bundle.member_rows.tolist(), bundle.member_communities.tolist())
        ]
        assert len(pairs) == len(set(pairs))
        want = {
            (index, chunk_id)
            for index, community in enumerate(bundle.communities)
            for node_id in community.completed_members
            for chunk_id in bundle.graph.node(node_id).source_chunks
        }
        assert set(pairs) == want
        assert {index for index, _ in pairs} == set(range(len(bundle.communities)))


class TestAtomicWrites:
    """A write that fails at any artifact leaves no temp file and every
    artifact whole (its old or its new bytes); the index then loads as
    before or is rejected with GraphFormatError."""

    REPLACES = {"index": 5, "cluster": 3, "eval": 2}

    @staticmethod
    def rerun(stage, cfg, fixture, out, tmp_path):
        """Run ``stage`` over ``out`` with inputs that change its artifacts."""
        if stage == "index":
            corpus = tmp_path / "corpus"
            if not corpus.exists():
                shutil.copytree(fixture / "corpus", corpus)
                (corpus / "jade_cup_of_chu.txt").unlink()
            build_index(dataclasses.replace(cfg, corpus_path=corpus), force=True, index_dir=out)
        elif stage == "cluster":
            clustering = dataclasses.replace(cfg.clustering, multihop=())
            run_clustering(dataclasses.replace(cfg, clustering=clustering), force=True, index_dir=out)
        else:
            run_eval(cfg, fixture / "benchmark.json", index_dir=out, extra_ablate=("graph",))

    @pytest.mark.parametrize("stage,n", [(s, n) for s, count in REPLACES.items() for n in range(1, count + 1)])
    def test_failed_replace(self, museum_cfg, museum_fixture, museum_index, tmp_path, monkeypatch, stage, n):
        out, done = tmp_path / "index", tmp_path / "done"
        shutil.copytree(museum_index, out)
        run_eval(museum_cfg, museum_fixture / "benchmark.json", index_dir=out)
        shutil.copytree(out, done)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        self.rerun(stage, museum_cfg, museum_fixture, done, tmp_path)
        after = {p.name: p.read_bytes() for p in done.iterdir()}

        real_replace, calls = os.replace, []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == n:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            self.rerun(stage, museum_cfg, museum_fixture, out, tmp_path)
        monkeypatch.undo()

        for path in out.iterdir():
            assert not path.name.endswith(".tmp")
            assert path.read_bytes() in (before.get(path.name), after.get(path.name)), path.name
        assert (out / "manifest.json").read_bytes() == before["manifest.json"]
        try:
            # --force clears the old communities before the new graph is written
            load_index_graph(out) if stage == "index" else load_bundle(museum_cfg, out)
        except GraphFormatError:
            return
        artifacts = ("graph.jsonl", "chunks.jsonl", "chunks.txt", "embeddings.npy", "communities.jsonl", "reports.jsonl")
        for name in artifacts:
            if (out / name).exists():
                assert (out / name).read_bytes() == before[name], name
