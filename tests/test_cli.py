"""Command-line entry points, run in process via main()."""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import shutil
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from conftest import FIXTURES, corrupt_embeddings, matrix_cases, redigest, set_config_value
from graphrag.cli import main

MUSEUM = FIXTURES / "museum"


@pytest.fixture()
def workspace(tmp_path):
    """A disposable copy of the museum fixture so runs can write freely."""
    dest = tmp_path / "museum"
    shutil.copytree(MUSEUM, dest, ignore=shutil.ignore_patterns("benchmark.json"))
    shutil.copy(MUSEUM / "benchmark.json", dest / "benchmark.json")
    return dest


def run(args):
    return main([str(a) for a in args])


class TestArgHandling:
    def test_no_config(self, capsys, tmp_path):
        code = run(["index", "--config", tmp_path / "missing.yaml"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_flags_accepted_before_subcommand(self, workspace, capsys):
        code = run(["--config", workspace / "config.yaml", "schema-check"])
        assert code == 0

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            run(["transmogrify"])


class TestSchemaCheck:
    def test_reports_counts(self, workspace, capsys):
        code = run(["schema-check", "--config", workspace / "config.yaml"])
        assert code == 0
        out = capsys.readouterr().out
        assert "entity types" in out
        assert "relations" in out

    def test_json_mode(self, workspace, capsys):
        code = run(["schema-check", "--config", workspace / "config.yaml", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "museum-1"
        assert payload["entity_types"] == ["Artifact", "Location", "Museum", "Period"]

    def test_bad_schema(self, workspace, capsys):
        (workspace / "schema.json").write_text('{"version": "x"}')
        code = run(["schema-check", "--config", workspace / "config.yaml"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_lone_surrogate_in_schema_is_a_clean_error(self, workspace, capsys):
        path = workspace / "schema.json"
        raw = json.loads(path.read_text("utf-8"))
        raw["entity_types"].append({"name": "Odd\ud800"})
        path.write_text(json.dumps(raw), "utf-8")  # ASCII: the surrogate stays a \u escape
        code = run(["schema-check", "--config", workspace / "config.yaml"])
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        n = len(raw["entity_types"]) - 1
        assert lines == [f"error: entity_types[{n}].name holds a lone surrogate at offset 3"], lines
        assert captured.out == ""


class TestIndexCommand:
    def test_builds_and_refuses_rebuild(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        assert run(["index", "--config", cfg]) == 0
        assert (workspace / "index" / "manifest.json").exists()
        capsys.readouterr()

        assert run(["index", "--config", cfg]) == 1
        assert "--force" in capsys.readouterr().err

        assert run(["index", "--config", cfg, "--force"]) == 0

    def test_index_dir_override(self, workspace, tmp_path, capsys):
        target = tmp_path / "elsewhere"
        assert run(["index", "--config", workspace / "config.yaml", "--index", target]) == 0
        assert (target / "manifest.json").exists()
        assert not (workspace / "index").exists()

    def test_json_summary(self, workspace, capsys):
        assert run(["index", "--config", workspace / "config.yaml", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["documents"] == 5

    def test_index_path_is_a_file(self, workspace, tmp_path, capsys):
        target = tmp_path / "not_a_dir"
        target.write_text("occupied")
        assert run(["index", "--config", workspace / "config.yaml", "--index", target]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and str(target) in lines[0]
        assert "Traceback" not in captured.err + captured.out
        assert target.read_text() == "occupied"

    @pytest.mark.parametrize("section,key,value", [
        ("indexing", "attribute_relations", {"DatedTo": ["era"]}),
        ("clustering", "attribute_keys", "era"),
        ("multihop", "patterns", ["DatedTo"]),
    ])
    def test_misshapen_setting_is_a_clean_error(self, workspace, capsys, section, key, value):
        cfg = workspace / "config.yaml"
        raw = yaml.safe_load(cfg.read_text("utf-8"))
        set_config_value(raw, section, key, value)
        cfg.write_text(yaml.safe_dump(raw), "utf-8")
        assert run(["index", "--config", cfg]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and f".{key} must be" in lines[0], lines
        assert not (workspace / "index").exists()

    def test_non_string_endpoint_is_a_clean_error(self, workspace, capsys, monkeypatch):
        sent = []
        monkeypatch.setattr("urllib.request.urlopen", lambda *args, **kwargs: sent.append(args))
        cfg = workspace / "config.yaml"
        raw = yaml.safe_load(cfg.read_text("utf-8"))
        raw["clients"].update(mode="http", chat_endpoint=5)
        cfg.write_text(yaml.safe_dump(raw), "utf-8")
        assert run(["index", "--config", cfg]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "clients.chat_endpoint" in lines[0], lines
        assert "Traceback" not in captured.err + captured.out
        assert sent == []
        assert not (workspace / "index").exists()

    @pytest.mark.parametrize("embedding", ["abc", [math.nan] * 64], ids=["string", "nan"])
    def test_malformed_embeddings_response_is_a_clean_error(self, workspace, capsys, loopback, embedding):
        def reply(path, body):
            if path.endswith("/chat/completions"):
                content = "(Sword of Goujian | Artifact | HousedIn | Hubei Provincial Museum | Museum | 1.0)"
                return 200, json.dumps({"choices": [{"message": {"content": content}}]}).encode()
            texts = json.loads(body)["input"]
            data = [{"index": i, "embedding": embedding} for i in range(len(texts))]
            return 200, json.dumps({"data": data}).encode()  # NaN goes out as a bare NaN token

        url, received = loopback(reply)
        cfg = workspace / "config.yaml"
        raw = yaml.safe_load(cfg.read_text("utf-8"))
        raw["clients"].update(mode="http", chat_endpoint=url, embed_endpoint=url, rerank_endpoint=url)
        cfg.write_text(yaml.safe_dump(raw), "utf-8")
        assert run(["index", "--config", cfg]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "embedding" in lines[0], lines
        assert "Traceback" not in captured.err + captured.out
        assert [path for path, _, _ in received][-1] == "/embeddings"
        assert not (workspace / "index").exists()

    def test_failed_replace_is_a_clean_error(self, workspace, capsys, monkeypatch):
        cfg = workspace / "config.yaml"
        assert run(["index", "--config", cfg]) == 0
        manifest = (workspace / "index" / "manifest.json").read_bytes()
        capsys.readouterr()

        def failing_replace(src, dst):
            raise OSError(f"disk full writing {dst}")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert run(["index", "--config", cfg, "--force"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: disk full")
        assert "Traceback" not in captured.err + captured.out
        assert (workspace / "index" / "manifest.json").read_bytes() == manifest
        assert not [p.name for p in (workspace / "index").iterdir() if p.name.endswith(".tmp")]

    def test_non_utf8_corpus_file_is_a_clean_error(self, workspace, capsys):
        latin = workspace / "corpus" / "latin.txt"
        latin.write_bytes("Bronze ding from the caf\u00e9 collection.".encode("latin-1"))
        assert run(["index", "--config", workspace / "config.yaml"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "latin.txt" in lines[0]
        assert "Traceback" not in captured.err + captured.out
        assert not (workspace / "index" / "manifest.json").exists()

    @pytest.mark.parametrize("text", ["", "  \n"], ids=["empty", "whitespace"])
    def test_blank_corpus_file_is_a_clean_error(self, workspace, capsys, text):
        (workspace / "corpus" / "blank.md").write_text(text, "utf-8")
        assert run(["index", "--config", workspace / "config.yaml"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "blank.md: document text is empty" in lines[0]
        assert "Traceback" not in captured.err + captured.out
        assert not (workspace / "index" / "manifest.json").exists()

    def test_lone_surrogate_in_corpus_is_a_clean_error(self, workspace, capsys):
        docs = sorted((workspace / "corpus").iterdir())
        records = [{"id": p.stem, "text": p.read_text("utf-8")} for p in docs]
        records[0]["text"] += " \ud800"
        corpus = workspace / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
        cfg = workspace / "config.yaml"
        raw = yaml.safe_load(cfg.read_text("utf-8"))
        raw["corpus"] = "corpus.jsonl"
        cfg.write_text(yaml.safe_dump(raw), "utf-8")
        assert run(["index", "--config", cfg]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "corpus.jsonl: document 0" in lines[0], lines
        assert "Traceback" not in captured.err + captured.out
        assert not (workspace / "index" / "manifest.json").exists()


class TestClusterCommand:
    def test_requires_index(self, workspace, capsys):
        assert run(["cluster", "--config", workspace / "config.yaml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_builds_communities(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        run(["index", "--config", cfg])
        assert run(["cluster", "--config", cfg]) == 0
        assert (workspace / "index" / "communities.jsonl").exists()
        capsys.readouterr()
        # second run refuses without --force
        assert run(["cluster", "--config", cfg]) == 1
        assert run(["cluster", "--config", cfg, "--force"]) == 0

    def test_json_summary(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        run(["index", "--config", cfg])
        capsys.readouterr()
        assert run(["cluster", "--config", cfg, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["communities"] == 5
        assert payload["by_dimension"] == {"attribute": 2, "multihop": 1, "topology": 2}


class TestRetrieveCommand:
    def test_requires_clustering(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        run(["index", "--config", cfg])
        capsys.readouterr()
        assert run(["retrieve", "--config", cfg, "--query", "anything"]) == 1
        assert "cluster" in capsys.readouterr().err

    def test_query_results(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        run(["index", "--config", cfg])
        run(["cluster", "--config", cfg])
        capsys.readouterr()
        code = run([
            "retrieve", "--config", cfg, "--json", "--k", "2",
            "--query", "Which artifacts date to the Warring States period?",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 2
        assert payload["results"][0]["rank"] == 1
        assert 0.0 < payload["beta"] < 1.0
        assert "warring states" in payload["results"][0]["text"].lower()

    def test_ablate_flag(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        run(["index", "--config", cfg])
        run(["cluster", "--config", cfg])
        capsys.readouterr()
        code = run([
            "retrieve", "--config", cfg, "--json",
            "--query", "warring states artifacts",
            "--ablate", "graph",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(r["scores"]["graph"] == 0.0 for r in payload["results"])

    def test_tokenless_query_is_a_clean_error(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        run(["index", "--config", cfg])
        run(["cluster", "--config", cfg])
        capsys.readouterr()
        assert run(["retrieve", "--config", cfg, "--query", "!!!"]) == 1
        err = capsys.readouterr().err
        assert err == "error: query has no tokens\n"


    def test_embed_dim_mismatch_is_a_clean_error(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        run(["index", "--config", cfg])
        run(["cluster", "--config", cfg])
        text = cfg.read_text()
        assert "embed_dim: 64" in text
        cfg.write_text(text.replace("embed_dim: 64", "embed_dim: 32"))
        capsys.readouterr()
        for args in (["retrieve", "--query", "warring states"], ["eval", workspace / "benchmark.json"]):
            assert run([*args, "--config", cfg]) == 1
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert "64" in lines[0] and "32" in lines[0] and str(workspace / "index") in lines[0]
            assert "Traceback" not in captured.err + captured.out


    def test_chunk_embedding_mismatch_is_a_clean_error(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        run(["index", "--config", cfg])
        run(["cluster", "--config", cfg])
        index = workspace / "index"
        # drop the last chunk: its entry in every column and its text
        chunks = index / "chunks.jsonl"
        meta, record = map(json.loads, chunks.read_text("utf-8").splitlines())
        dropped = record["id"][-1]
        text_end = record["text_end"]
        start = text_end[-2]
        for key in ("id", "document_id", "char_offset", "text_end"):
            del record[key][-1]
        meta["count"] -= 1
        chunks.write_text(json.dumps(meta) + "\n" + json.dumps(record) + "\n", "utf-8")
        texts = index / "chunks.txt"
        texts.write_bytes(texts.read_bytes().decode("utf-8")[:start].encode("utf-8"))
        redigest(index, "chunks.jsonl", "chunks.txt")
        capsys.readouterr()
        assert run(["retrieve", "--config", cfg, "--query", "warring states artifacts"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(index) in lines[0] and dropped in lines[0]
        assert "Traceback" not in captured.err + captured.out

    def test_community_missing_a_field_is_a_clean_error(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        run(["index", "--config", cfg])
        run(["cluster", "--config", cfg])
        path = workspace / "index" / "communities.jsonl"
        lines = path.read_text("utf-8").splitlines()
        record = json.loads(lines[1])
        del record["members"]
        path.write_text("\n".join([lines[0], json.dumps(record), *lines[2:]]) + "\n", "utf-8")
        capsys.readouterr()
        # the manifest binds communities.jsonl by digest, so the edit is caught there first
        assert run(["retrieve", "--config", cfg, "--query", "warring states artifacts"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: content does not match the manifest digest; rebuild with --force\n"
        redigest(workspace / "index", "communities.jsonl")
        assert run(["retrieve", "--config", cfg, "--query", "warring states artifacts"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: communities.jsonl:2: ")
        assert "members" in lines[0]
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize(
        "name,case",
        matrix_cases(["truncated", "bad-header", "object-dtype", "pickle", "extra-row", "wrong-dimension", "nan"]),
    )
    def test_malformed_embeddings_is_a_clean_error(self, museum_index, tmp_path, capsys, name, case):
        index = tmp_path / "index"
        shutil.copytree(museum_index, index)
        corrupt_embeddings(index, name, case)
        args = ["retrieve", "--config", MUSEUM / "config.yaml", "--index", index, "--query", "warring states"]
        assert run(args) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert ("3- and 64-dimensional" if case == "wrong-dimension" else f"error: {name}: ") in lines[0]
        assert "Traceback" not in captured.err + captured.out

    def test_format_1_index_is_a_clean_error(self, museum_index, tmp_path, capsys):
        """An index in the first format, whose chunk vectors were JSON lines
        in embeddings.jsonl, is refused with a hint to rebuild it."""
        index = tmp_path / "index"
        shutil.copytree(museum_index, index)
        chunk_ids = json.loads((index / "chunks.jsonl").read_text("utf-8").splitlines()[1])["id"]
        matrix = np.load(index / "embeddings.npy")
        records = [{"kind": "meta", "format_version": 1, "dimension": 64, "count": len(chunk_ids)}]
        records += [{"kind": "embedding", "ref": cid, "vector": row.tolist()} for cid, row in zip(chunk_ids, matrix)]
        data = "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")
        (index / "embeddings.jsonl").write_bytes(data)
        (index / "embeddings.npy").unlink()
        manifest = json.loads((index / "manifest.json").read_text("utf-8"))
        del manifest["clustered_from"]
        artifacts = manifest["artifacts"]
        artifacts["embeddings.jsonl"] = hashlib.sha256(data).hexdigest()
        for name in ("embeddings.npy", "communities.jsonl", "reports.jsonl"):
            del artifacts[name]
        manifest["format_version"] = 1
        (index / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        args = ["retrieve", "--config", MUSEUM / "config.yaml", "--index", index, "--query", "warring states"]
        assert run(args) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "index format 1" in lines[0] and lines[0].endswith("rebuild with --force")

    def test_format_2_index_is_a_clean_error(self, museum_index, tmp_path, capsys):
        """An index in the second format, with one chunks.jsonl record per
        chunk and no chunks.txt, is refused with a hint to rebuild it."""
        index = tmp_path / "index"
        shutil.copytree(museum_index, index)
        meta, record = map(json.loads, (index / "chunks.jsonl").read_text("utf-8").splitlines())
        text = (index / "chunks.txt").read_bytes().decode("utf-8")
        starts = [0, *record["text_end"][:-1]]
        records = [{"kind": "meta", "format_version": 2, "next_node_id": 0, "schema_version": meta["schema_version"]}]
        records += [
            {"kind": "chunk", "id": cid, "document_id": doc, "char_offset": offset, "text": text[start:end]}
            for cid, doc, offset, start, end in zip(
                record["id"], record["document_id"], record["char_offset"], starts, record["text_end"]
            )
        ]
        (index / "chunks.jsonl").write_bytes("".join(json.dumps(r) + "\n" for r in records).encode("utf-8"))
        (index / "chunks.txt").unlink()
        for name in ("graph.jsonl", "communities.jsonl", "reports.jsonl"):
            lines = (index / name).read_text("utf-8").splitlines()
            first = json.loads(lines[0])
            (index / name).write_text("\n".join([json.dumps({**first, "format_version": 2}), *lines[1:]]) + "\n", "utf-8")
        manifest = json.loads((index / "manifest.json").read_text("utf-8"))
        manifest["format_version"] = 2
        del manifest["artifacts"]["chunks.txt"]
        for name in manifest["artifacts"]:
            manifest["artifacts"][name] = hashlib.sha256((index / name).read_bytes()).hexdigest()
        manifest["clustered_from"] = manifest["artifacts"]["graph.jsonl"]
        (index / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        args = ["retrieve", "--config", MUSEUM / "config.yaml", "--index", index, "--query", "warring states"]
        assert run(args) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "index format 2" in lines[0] and lines[0].endswith("rebuild with --force")
        assert "Traceback" not in captured.err + captured.out


    def test_format_3_index_is_a_clean_error(self, museum_index, tmp_path, capsys):
        """An index in the third format, with one graph.jsonl record per node
        and per edge, in the fourth, with one record per community and per
        report, or in the fifth, with the report embeddings as a column of
        reports.jsonl, is refused with a hint to rebuild it."""
        # the files each format stored as one record per row, and those kinds
        row_records = {3: {"graph.jsonl": ("node", "edge")},
                       4: {"communities.jsonl": ("community",), "reports.jsonl": ("report",)},
                       5: {}}
        for version, exploded in row_records.items():
            index = tmp_path / f"index{version}"
            shutil.copytree(museum_index, index)
            # before format 6, reports.jsonl held the report embeddings
            report_embeddings = np.load(index / "report_embeddings.npy")
            (index / "report_embeddings.npy").unlink()
            for name in ("graph.jsonl", "chunks.jsonl", "communities.jsonl", "reports.jsonl"):
                meta, *tables = map(json.loads, (index / name).read_text("utf-8").splitlines())
                if name == "reports.jsonl":
                    meta["dimension"] = report_embeddings.shape[1]
                    tables[0]["embedding"] = report_embeddings.tolist()
                records = [{**meta, "format_version": version}]
                if name not in exploded:
                    records += tables
                for kind, columns in zip(exploded.get(name, ()), tables):
                    keys = [key for key in columns if key != "kind"]
                    records += [{"kind": kind, **dict(zip(keys, row))} for row in zip(*(columns[key] for key in keys))]
                (index / name).write_bytes("".join(json.dumps(r) + "\n" for r in records).encode("utf-8"))
            manifest = json.loads((index / "manifest.json").read_text("utf-8"))
            manifest["format_version"] = version
            del manifest["artifacts"]["report_embeddings.npy"]
            for name in manifest["artifacts"]:
                manifest["artifacts"][name] = hashlib.sha256((index / name).read_bytes()).hexdigest()
            manifest["clustered_from"] = manifest["artifacts"]["graph.jsonl"]
            (index / "manifest.json").write_text(json.dumps(manifest), "utf-8")
            args = ["retrieve", "--config", MUSEUM / "config.yaml", "--index", index, "--query", "warring states"]
            assert run(args) == 1
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert f"index format {version}" in lines[0] and lines[0].endswith("rebuild with --force")
            assert "Traceback" not in captured.err + captured.out

    NOT_A_MAP = "artifacts is not a map of artifact names to digest strings"

    @pytest.mark.parametrize(
        "edit,says",
        [
            (lambda m: m.update(artifacts=[]), NOT_A_MAP),
            (lambda m: m.pop("artifacts"), NOT_A_MAP),
            (lambda m: m["artifacts"].update({"graph.jsonl": 5}), NOT_A_MAP),
            (lambda m: m.update(clustered_from=5), "clustered_from is not a digest string"),
            (lambda m: m["artifacts"].pop("embeddings.npy"), "no digest for embeddings.npy; rebuild with --force"),
        ],
        ids=["artifacts-list", "artifacts-missing", "digest-int", "clustered-from-int", "digest-missing"],
    )
    def test_malformed_manifest_is_a_clean_error(self, museum_index, tmp_path, capsys, edit, says):
        index = tmp_path / "index"
        shutil.copytree(museum_index, index)
        manifest = json.loads((index / "manifest.json").read_text("utf-8"))
        edit(manifest)
        (index / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        args = ["retrieve", "--config", MUSEUM / "config.yaml", "--index", index, "--query", "warring states"]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {index / 'manifest.json'}: {says}\n"
        assert "Traceback" not in captured.out

    @pytest.mark.parametrize(
        "name,line,edit,says",
        [
            ("graph.jsonl", 3, lambda r: r["weight"].__setitem__(0, math.nan), "column 'weight'"),
            ("graph.jsonl", 2, lambda r: r["id"].__setitem__(1, True), "column 'id'"),
            ("reports.jsonl", 2, lambda r: r["entities"].__setitem__(0, "Sword"), "column 'entities'"),
            ("reports.jsonl", 2, lambda r: r["title"].__setitem__(0, 5), "column 'title'"),
        ],
        ids=["graph-weight-nan", "graph-id-bool", "report-entities-str", "report-title-int"],
    )
    def test_malformed_artifact_value_is_a_clean_error(self, museum_index, tmp_path, capsys, name, line, edit, says):
        index = tmp_path / "index"
        shutil.copytree(museum_index, index)
        lines = (index / name).read_text("utf-8").splitlines()
        record = json.loads(lines[line - 1])
        edit(record)
        lines[line - 1] = json.dumps(record)
        (index / name).write_text("\n".join(lines) + "\n", "utf-8")
        redigest(index, name)
        args = ["retrieve", "--json", "--config", MUSEUM / "config.yaml", "--index", index, "--query", "warring states"]
        assert run(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {name}:{line}: "), captured.err
        assert says in lines[0]


# (file, bytes written to it, the one error line after "error: ", where
# {path} is the broken file); the YAML cases hold only the keys a broken file
# needs, since loading stops at the first problem. A section's own checks
# name the file, then the section.
MUSEUM_YAML = (MUSEUM / "config.yaml").read_bytes()
MALFORMED_INPUTS = [
    ("config.yaml", MUSEUM_YAML + b"# \xff\n", r"{path}: not UTF-8 text \(invalid start byte\)"),
    ("config.yaml", b"schema: [1\n", r"{path}: invalid YAML \(.*',' or '\]'.*, line [12]\)"),
    ("config.yaml", b"clients:\n\tmode: stub\n",
     r"{path}: invalid YAML \(found character .*that cannot start any token, line 2\)"),
    ("config.yaml", b"schema: \x07\n", r"{path}: invalid YAML \((control|special) characters are not allowed\)"),
    ("config.yaml", b"1: a\nfoo: b\n", r"{path}: unknown keys \[1, 'foo'\]"),
    ("config.yaml", MUSEUM_YAML + b"\nchunking:\n  1: a\n  foo: b\n", r"{path}: chunking: unknown keys \[1, 'foo'\]"),
    ("config.yaml", MUSEUM_YAML + b"\nchunking: [max_chars]\n", r"{path}: chunking must be a mapping, got list"),
    ("config.yaml", MUSEUM_YAML + b"\nfusion: w1\n", r"{path}: fusion must be a mapping, got str"),
    ("config.yaml", MUSEUM_YAML + b"\nfusion: {final_k: 0}\n", r"{path}: fusion\.final_k must be .*, got 0"),
    ("config.yaml", MUSEUM_YAML + b"\nablate: [vector]\n", r"{path}: ablate: unknown toggles \['vector'\] .*"),
    ("manifest.json", b'{"format_version": \xff}', r"{path}: corrupt manifest \(not UTF-8 text: invalid start byte\)"),
    ("manifest.json", b"{", r"{path}: corrupt manifest \(Expecting property name enclosed in double quotes\)"),
]


@pytest.mark.parametrize(
    "name,data,says",
    MALFORMED_INPUTS,
    ids=["config-not-utf8", "yaml-flow-sequence", "yaml-tab-indent", "yaml-control-character",
         "config-mixed-keys", "section-mixed-keys", "section-list", "section-string", "section-value",
         "ablate-unknown", "manifest-not-utf8", "manifest-not-json"],
)
def test_malformed_config_or_manifest_is_one_error_line(museum_index, tmp_path, capsys, name, data, says):
    index = tmp_path / "index"
    shutil.copytree(museum_index, index)
    config = tmp_path / "config.yaml"
    config.write_bytes(MUSEUM_YAML)
    broken = config if name == "config.yaml" else index / name
    broken.write_bytes(data)
    assert run(["retrieve", "--config", config, "--index", index, "--query", "warring states"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert re.fullmatch("error: " + says.format(path=re.escape(str(broken))) + "\n", captured.err), captured.err


class TestEvalCommand:
    def test_full_run(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        run(["index", "--config", cfg])
        run(["cluster", "--config", cfg])
        capsys.readouterr()
        assert run(["eval", workspace / "benchmark.json", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "average" in out
        assert (workspace / "index" / "eval_report.json").exists()

    def test_json_mode(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        run(["index", "--config", cfg])
        run(["cluster", "--config", cfg])
        capsys.readouterr()
        assert run(["eval", workspace / "benchmark.json", "--config", cfg, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["rows"]) == {"inference", "comparison", "temporal"}
        assert payload["average"]["f1"] == pytest.approx(71.43, abs=0.01)

    def test_missing_benchmark(self, workspace, capsys):
        cfg = workspace / "config.yaml"
        run(["index", "--config", cfg])
        run(["cluster", "--config", cfg])
        capsys.readouterr()
        assert run(["eval", workspace / "nothere.json", "--config", cfg]) == 1
        assert "error:" in capsys.readouterr().err


# one config key at a time, each set to a value from a fixed pool
PERTURBED_KEYS = (
    [("fusion", key) for key in ("w1", "w2", "khop", "topk_candidates", "final_k")]
    + [("clustering", key) for key in
       ("alpha", "tau", "max_passes", "min_community_size", "seed", "attribute_scope")]
    + [("multihop", "hops"), ("stub_rules", "pattern"), ("stub_rules", "relation")]
    + [("clustering", "multihop"), ("clients", "chat_endpoint"), ("clients", "embed_model")]
)
VALUE_POOL = (None, -1, 0, 0.5, math.nan, math.inf, -math.inf, "x", "(", [1], {"a": 1}, True, 40)


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz") / "config.yaml"


class TestNoTraceback:
    """Whatever the query text, the --k value or one perturbed config value,
    retrieve exits 0, or exits 1 with one stderr line starting 'error: '.
    The clients stay in stub mode, so no example opens a socket."""

    @settings(max_examples=80)
    @given(
        query=st.one_of(st.just("Sword of Goujian"), st.text(max_size=30)),
        k=st.one_of(st.none(), st.integers(-2, 40)),
        perturbation=st.one_of(
            st.none(), st.tuples(st.sampled_from(PERTURBED_KEYS), st.sampled_from(VALUE_POOL))
        ),
    )
    @example(query="Sword of Goujian", k=None, perturbation=(("fusion", "w1"), 40))
    @example(query="Sword of Goujian", k=0, perturbation=None)
    @example(query="Sword of Goujian", k=None, perturbation=(("stub_rules", "pattern"), "("))
    @example(query="Sword of Goujian", k=None, perturbation=(("fusion", "khop"), math.inf))
    def test_exit_contract(self, museum_index, fuzz_config, query, k, perturbation):
        raw = yaml.safe_load((MUSEUM / "config.yaml").read_text("utf-8"))
        raw["schema"] = str(MUSEUM / "schema.json")
        raw["corpus"] = str(MUSEUM / "corpus")
        if perturbation is not None:
            (section, key), value = perturbation
            set_config_value(raw, section, key, value)
        fuzz_config.write_text(yaml.safe_dump(raw), "utf-8")
        args = ["retrieve", "--config", str(fuzz_config), "--index", str(museum_index), f"--query={query}"]
        if k is not None:
            args.append(f"--k={k}")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
        if code != 0:
            assert code == 1
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
