"""Command-line entry points, run in process via main()."""

from __future__ import annotations

import json
import shutil

import pytest

from conftest import FIXTURES
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
