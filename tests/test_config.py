"""YAML config loading: strict keys, path resolution, and the config hash."""

from __future__ import annotations

import importlib.util
import re
import shutil
from pathlib import Path

import pytest
import yaml

import graphrag.config
from conftest import FIXTURES, set_config_value
from graphrag.config import load_config
from graphrag.errors import ConfigError

MUSEUM = FIXTURES / "museum"
REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"


def rewrite(tmp_path, mutate):
    """Copy the museum config, apply a mutation, and return the new path."""
    raw = yaml.safe_load((MUSEUM / "config.yaml").read_text())
    mutate(raw)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_museum_values():
    cfg = load_config(MUSEUM / "config.yaml")
    assert cfg.schema_path == MUSEUM / "schema.json"
    assert cfg.corpus_path == MUSEUM / "corpus"
    assert cfg.indexing.chunking.max_chars == 1200
    assert cfg.indexing.chunking.overlap_chars == 200
    assert cfg.indexing.attribute_relations == {"DatedTo": "era", "UnearthedIn": "region"}
    assert cfg.clustering.params.alpha == 0.5
    assert cfg.clustering.params.tau == 0.3
    assert cfg.clustering.attribute_keys == ("era",)
    assert len(cfg.clustering.multihop) == 1
    assert cfg.clustering.multihop[0].root == "Sword of Goujian"
    assert cfg.clustering.multihop[0].hops == 2
    assert cfg.fusion.w1 == 4.0
    assert cfg.fusion.w2 == 1.0
    assert cfg.clients.mode == "stub"
    assert cfg.clients.embed_dim == 64
    assert len(cfg.clients.stub_rules) == 3
    assert cfg.ablate == ()


def test_paths_resolve_relative_to_config_dir(tmp_path):
    nested = tmp_path / "deep" / "nest"
    nested.mkdir(parents=True)
    shutil.copy(MUSEUM / "config.yaml", nested / "config.yaml")
    cfg = load_config(nested / "config.yaml")
    assert cfg.schema_path == nested / "schema.json"
    assert cfg.index_dir == nested / "index"


def test_unknown_top_level_key(tmp_path):
    path = rewrite(tmp_path, lambda raw: raw.update(mystery=1))
    with pytest.raises(ConfigError, match="mystery"):
        load_config(path)


def test_unknown_nested_keys(tmp_path):
    for section, key in [
        ("chunking", "stride"),
        ("indexing", "batchsize"),
        ("clustering", "gamma"),
        ("fusion", "w3"),
        ("clients", "retries"),
        ("clustering", "seed"),
        ("chunking", "split_preference"),
    ]:
        def mutate(raw, section=section, key=key):
            raw[section][key] = 1

        path = rewrite(tmp_path, mutate)
        with pytest.raises(ConfigError, match=key):
            load_config(path)


def test_bad_client_mode(tmp_path):
    path = rewrite(tmp_path, lambda raw: raw["clients"].update(mode="psychic"))
    with pytest.raises(ConfigError, match="mode"):
        load_config(path)


def test_bad_ablate_value(tmp_path):
    path = rewrite(tmp_path, lambda raw: raw.update(ablate=["everything"]))
    with pytest.raises(ConfigError, match="ablate"):
        load_config(path)


def test_tau_out_of_range(tmp_path):
    path = rewrite(tmp_path, lambda raw: raw["clustering"].update(tau=1.5))
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("section,key,value,message", [
    ("clustering", "alpha", float("nan"), "alpha"),
    ("clustering", "alpha", float("inf"), "alpha"),
    ("clustering", "seed", [1], "seed"),
    ("clustering", "max_passes", float("inf"), "infinity"),
    ("fusion", "w1", float("nan"), "w1"),
    ("fusion", "w2", float("inf"), "w2"),
    ("fusion", "khop", float("-inf"), "infinity"),
    ("fusion", "khop", 0.5, "fusion.khop"),
    ("clustering", "max_passes", 2.7, "clustering.max_passes"),
    ("fusion", "w1", True, "fusion.w1"),
    ("clustering", "min_community_size", -1, "clustering.min_community_size"),
    ("multihop", "hops", -1, "hops"),
    ("stub_rules", "pattern", "(unclosed", "pattern"),
    ("stub_rules", "pattern", "no groups", "group"),
    ("clustering", "attribute_keys", "era", "clustering.attribute_keys"),
    ("clustering", "attribute_keys", ["era", 7], "clustering.attribute_keys"),
    ("multihop", "patterns", ["DatedTo"], r"clustering.multihop\[0\].patterns"),
    ("multihop", "patterns", [["DatedTo", 1]], r"clustering.multihop\[0\].patterns\[0\]"),
    ("multihop", "root", ["Sword of Goujian"], r"clustering.multihop\[0\].root"),
    ("multihop", "root", 7, r"clustering.multihop\[0\].root"),
    ("indexing", "attribute_relations", {"DatedTo": ["era"]}, "indexing.attribute_relations"),
    ("indexing", "attribute_relations", ["DatedTo", "era"], "indexing.attribute_relations"),
    ("clustering", "attribute_scope", "2hop", "clustering.attribute_scope"),
])
def test_bad_value_rejected_at_load(tmp_path, section, key, value, message):
    path = rewrite(tmp_path, lambda raw: set_config_value(raw, section, key, value))
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def _bench_config(tmp_path) -> Path:
    """A config written by the benchmark's input generator."""
    spec = importlib.util.spec_from_file_location("bench_generate", REPO / "perfbench" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    generate.generate(tmp_path, 1, docs=4, chunks_per_doc=2, queries=4)
    return tmp_path / "config.yaml"


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
@pytest.mark.parametrize("which", ["museum", "bench"])
def test_libyaml_and_python_parsers_agree(tmp_path, monkeypatch, which):
    path = MUSEUM / "config.yaml" if which == "museum" else _bench_config(tmp_path)
    assert graphrag.config._SafeLoader is yaml.CSafeLoader
    fast = load_config(path)
    monkeypatch.setattr(graphrag.config, "_SafeLoader", yaml.SafeLoader)
    slow = load_config(path)
    assert fast == slow
    assert fast.raw == yaml.safe_load(path.read_text("utf-8"))


def test_multihop_requires_root(tmp_path):
    path = rewrite(tmp_path, lambda raw: raw["clustering"].update(multihop=[{"hops": 2}]))
    with pytest.raises(ConfigError, match="root"):
        load_config(path)


def test_not_a_mapping(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.yaml")


class TestConfigHash:
    def test_stable_across_locations(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            d.mkdir()
            shutil.copy(MUSEUM / "config.yaml", d / "config.yaml")
        assert load_config(a / "config.yaml").hash() == load_config(b / "config.yaml").hash()

    def test_index_dir_excluded(self, tmp_path):
        base = load_config(MUSEUM / "config.yaml")
        moved = rewrite(tmp_path, lambda raw: raw.update(index_dir="elsewhere"))
        assert load_config(moved).hash() == base.hash()

    def test_parameter_change_changes_hash(self, tmp_path):
        base = load_config(MUSEUM / "config.yaml")
        changed = rewrite(tmp_path, lambda raw: raw["clustering"].update(alpha=0.9))
        assert load_config(changed).hash() != base.hash()


def test_readme_example_loads(tmp_path):
    text = README.read_text("utf-8")
    section = text.split("## Configuration", 1)[1]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    raw = yaml.safe_load(block)
    raw["schema"] = str(MUSEUM / "schema.json")
    raw["corpus"] = str(MUSEUM / "corpus")
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    cfg = load_config(path)
    assert cfg.clustering.attribute_keys == ("era",)
