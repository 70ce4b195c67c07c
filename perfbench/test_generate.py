"""Tests for the benchmark's input generator and tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

import generate  # noqa: E402
import spans  # noqa: E402

SIZES = {"docs": 12, "chunks_per_doc": 3, "queries": 16}


def _files(tmp_path: Path, name: str, seed: int) -> dict[str, bytes]:
    out = tmp_path / name
    generate.generate(out, seed, **SIZES)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_same_seed_gives_identical_bytes(tmp_path):
    assert _files(tmp_path, "a", 7) == _files(tmp_path, "b", 7)


def test_different_seed_gives_different_bytes(tmp_path):
    first, second = _files(tmp_path, "a", 7), _files(tmp_path, "b", 8)
    for name in ("corpus.jsonl", "queries.json", "config.yaml"):
        assert first[name] != second[name], name


def test_gold_evidence_is_verbatim_in_the_corpus(tmp_path):
    generate.generate(tmp_path, 3, **SIZES)
    texts = [json.loads(line)["text"] for line in (tmp_path / "corpus.jsonl").read_text().splitlines()]
    records = json.loads((tmp_path / "queries.json").read_text())
    assert {r["kind"] for r in records} == {"inference", "comparison", "temporal", "vague"}
    for record in records:
        for evidence in record["evidence_list"]:
            assert any(evidence["fact"] in text for text in texts), evidence["fact"]


def test_index_matches_the_expected_sizes(tmp_path):
    from graphrag.config import load_config
    from graphrag.pipeline import build_index

    sizes = generate.generate(tmp_path, 5, **SIZES)
    counts = build_index(load_config(tmp_path / "config.yaml"))["counts"]
    assert counts == {"documents": sizes["documents"], "chunks": sizes["chunks"],
                      "nodes": sizes["nodes"], "edges": sizes["edges"]}


def test_tracer_patches_every_binding_and_restores_them():
    import graphrag.embedding
    import graphrag.extraction
    import graphrag.pipeline
    import graphrag.retrieval

    original = graphrag.extraction.index_corpus
    method = graphrag.retrieval.IndexBundle.__dict__["assemble"]
    layers = (spans.Layer("extraction", "index_corpus"),
              spans.Layer("retrieval", "IndexBundle.assemble"),
              spans.Layer("embedding", "cosine", count_only=True),
              spans.Layer("embedding", "no_such_function"))
    with spans.Tracer(layers) as tracer:
        assert graphrag.pipeline.index_corpus is graphrag.extraction.index_corpus
        assert graphrag.extraction.index_corpus is not original
        assert isinstance(graphrag.retrieval.IndexBundle.__dict__["assemble"], classmethod)
        graphrag.retrieval.cosine([1.0, 0.0], [1.0, 0.0])
        graphrag.embedding.cosine([1.0, 0.0], [0.0, 1.0])
    assert tracer.absent == ["embedding.no_such_function"]
    assert tracer.snapshot()["embedding.cosine"] == {"calls": 2}
    assert graphrag.pipeline.index_corpus is original
    assert graphrag.extraction.index_corpus is original
    assert graphrag.retrieval.IndexBundle.__dict__["assemble"] is method


def test_tracer_self_time_excludes_traced_children():
    import graphrag.textnorm as textnorm

    layers = (spans.Layer("textnorm", "canonical_name"), spans.Layer("textnorm", "collapse_ws"))
    with spans.Tracer(layers) as tracer:
        textnorm.canonical_name("  Jade   Cup ")
    stats = tracer.snapshot()
    outer, inner = stats["textnorm.canonical_name"], stats["textnorm.collapse_ws"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
