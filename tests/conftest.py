"""Shared fixtures: the museum corpus pipeline (built once per session),
random graph builders used by the oracle comparison suites, and a loopback
HTTP server for the http-mode clients."""

from __future__ import annotations

import io
import json
import os
import pickle
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from graphrag.config import PipelineConfig, load_config
from graphrag.graph_store import KnowledgeGraph
from graphrag.pipeline import build_index, run_clustering

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

ATTR_KEYS = ("color", "size")
ATTR_VALUES = ("red", "blue", "big")


@pytest.fixture(scope="session")
def museum_fixture() -> Path:
    return FIXTURES / "museum"


@pytest.fixture(scope="session")
def museum_cfg(museum_fixture: Path) -> PipelineConfig:
    return load_config(museum_fixture / "config.yaml")


@pytest.fixture(scope="session")
def museum_index(museum_cfg: PipelineConfig, tmp_path_factory) -> Path:
    """One fully built museum index (graph + communities) for read-only tests."""
    out = tmp_path_factory.mktemp("museum-index")
    build_index(museum_cfg, index_dir=out)
    run_clustering(museum_cfg, index_dir=out)
    return out


@pytest.fixture()
def loopback(monkeypatch):
    """Start HTTP servers on 127.0.0.1: ``start(reply)`` serves every POST
    with ``reply(path, body) -> (status, body bytes)`` and returns the base
    URL and the list of ``(path, headers, body)`` it received. A 3xx reply
    carries a ``Location`` back to the same path. The proxy variables are
    cleared, so urllib connects directly."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    # urllib's default opener keeps the proxies it saw when first built
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    servers = []

    def start(reply):
        received = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                received.append((self.path, self.headers, body))
                status, payload = reply(self.path, body)
                self.send_response(status)
                if 300 <= status < 400:
                    self.send_header("Location", self.path)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_port}", received

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def set_config_value(raw: dict, section: str, key: str, value) -> None:
    """Set one key of a parsed pipeline config. ``section`` is a top-level
    section, or "multihop" / "stub_rules" for the first entry of
    ``clustering.multihop`` / ``clients.stub_rules``."""
    if section == "multihop":
        raw["clustering"]["multihop"][0][key] = value
    elif section == "stub_rules":
        raw["clients"]["stub_rules"][0][key] = value
    else:
        raw[section][key] = value


def npy_bytes(matrix: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, matrix, allow_pickle=matrix.dtype.hasobject)
    return buffer.getvalue()


def _with_value(matrix: np.ndarray, value: float) -> np.ndarray:
    matrix = matrix.copy()
    matrix[1, 2] = value
    return matrix


# Ways to break an embeddings.npy file, each a function of the file's bytes
# and the matrix it holds.
EMBEDDING_CORRUPTIONS = {
    "truncated": lambda data, m: data[:-8],
    "trailing-bytes": lambda data, m: data + bytes(8),
    "bad-magic": lambda data, m: b"\x00" + data[1:],
    "npy-version": lambda data, m: data[:6] + b"\x03" + data[7:],
    "bad-header": lambda data, m: data.replace(b"'fortran_order': False, ", b" " * 24),
    "pickle": lambda data, m: pickle.dumps(m),
    "object-dtype": lambda data, m: npy_bytes(m.astype(object)),
    "float32": lambda data, m: npy_bytes(m.astype("<f4")),
    "big-endian": lambda data, m: npy_bytes(m.astype(">f8")),
    "fortran-order": lambda data, m: npy_bytes(np.asfortranarray(m)),
    "extra-row": lambda data, m: npy_bytes(np.vstack([m, m[:1]])),
    "missing-row": lambda data, m: npy_bytes(m[:-1]),
    "wrong-dimension": lambda data, m: npy_bytes(m[:, :3]),
    "nan": lambda data, m: npy_bytes(_with_value(m, np.nan)),
    "inf": lambda data, m: npy_bytes(_with_value(m, -np.inf)),
}


def drop_digests(index_dir: Path, *names: str) -> None:
    """Remove the manifest digests of ``names``, so an edit to those files
    meets the loader's own checks rather than the digest check."""
    manifest = json.loads((index_dir / "manifest.json").read_text("utf-8"))
    for name in names:
        del manifest["artifacts"][name]
    (index_dir / "manifest.json").write_text(json.dumps(manifest), "utf-8")


def corrupt_embeddings(index_dir: Path, case: str) -> None:
    """Break ``index_dir``'s embeddings.npy as ``case`` names and drop its
    manifest digest."""
    path = index_dir / "embeddings.npy"
    data = path.read_bytes()
    path.write_bytes(EMBEDDING_CORRUPTIONS[case](data, np.load(path)))
    drop_digests(index_dir, "embeddings.npy")


def random_graph(
    rng: random.Random,
    max_nodes: int,
    edge_p: float = 0.45,
    attr_p: float = 0.5,
    relations: tuple[str, ...] = ("r1", "r2", "r3"),
) -> tuple[KnowledgeGraph, list[int]]:
    """Random directed graph with random attribute maps; >= 3 nodes, possibly
    disconnected, no guaranteed edges."""
    graph = KnowledgeGraph()
    n = rng.randint(3, max_nodes)
    ids = [graph.upsert_node(f"node {i}", "Thing") for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < edge_p:
                graph.add_edge(ids[i], rng.choice(relations), ids[j])
    for nid in ids:
        for key in ATTR_KEYS:
            if rng.random() < attr_p:
                graph.upsert_node(f"node {nid}", "Thing", attributes={key: rng.choice(ATTR_VALUES)})
    return graph, ids


def connected_graph(rng: random.Random, max_nodes: int, **kwargs) -> tuple[KnowledgeGraph, list[int]]:
    """random_graph with at least one edge, so modularity is defined."""
    graph, ids = random_graph(rng, max_nodes, **kwargs)
    if graph.total_weight() <= 0:
        graph.add_edge(ids[0], "r1", ids[1])
    return graph, ids
