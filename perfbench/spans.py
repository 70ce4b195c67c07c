"""Per-layer timing by wrapping the package's public callables from outside.

``Tracer.install`` replaces each named callable with a timing wrapper in
every ``graphrag`` namespace that binds it: a function imported by name into
another module (``pipeline.index_corpus`` is ``extraction.index_corpus``) is
patched there too, and a method is patched on its class. ``uninstall`` puts
the originals back. A name that no longer exists is recorded as absent.

Each thread keeps its own span stack, so calls made on the extraction
pool's threads have no parent: their busy time is summed over threads and
never subtracted from the caller that waits on the pool. A layer's
``self_s`` is its inclusive time minus the time of traced calls nested in it
on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass

PACKAGE = "graphrag"


@dataclass(frozen=True)
class Layer:
    """One traced callable: ``attr`` is ``name`` or ``Class.method`` inside
    ``graphrag.<module>``. ``count_only`` layers record calls but no time
    (they are too small and too frequent to time). ``candidates`` layers
    also sum the length of their second positional argument."""

    module: str
    attr: str
    count_only: bool = False
    candidates: bool = False

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


LAYERS = (
    Layer("config", "load_config"),
    Layer("pipeline", "read_corpus"),
    Layer("pipeline", "build_index"),
    Layer("pipeline", "run_clustering"),
    Layer("pipeline", "load_index_graph"),
    Layer("pipeline", "load_communities"),
    Layer("pipeline", "load_bundle"),
    Layer("extraction", "chunk_document"),
    Layer("extraction", "extract_chunk"),
    Layer("extraction", "index_corpus"),
    Layer("graph_store", "KnowledgeGraph.audit"),
    Layer("graph_store", "KnowledgeGraph.neighborhood"),
    Layer("graph_store", "save_graph"),
    Layer("graph_store", "save_chunks"),
    Layer("graph_store", "load_graph"),
    Layer("graph_store", "load_chunks"),
    Layer("embedding", "HashingEmbedder.embed"),
    Layer("embedding", "VectorStore.top_k"),
    Layer("embedding", "VectorStore.add"),
    Layer("embedding", "VectorStore.get", count_only=True),
    Layer("embedding", "cosine", count_only=True),
    Layer("community", "louvain_cluster"),
    Layer("community", "communities_from_partition"),
    Layer("community", "complete_community"),
    Layer("community", "attribute_cluster"),
    Layer("community", "multihop_subgraph"),
    Layer("community", "generate_report"),
    Layer("retrieval", "retrieve"),
    Layer("retrieval", "compute_beta"),
    Layer("retrieval", "score_community_channel"),
    Layer("retrieval", "fuse"),
    Layer("retrieval", "rerank_select", candidates=True),
    Layer("retrieval", "IndexBundle.assemble"),
    Layer("retrieval", "build_trie"),
)


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.absent: list[str] = []
        self._stats: dict[str, dict[str, float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _add(self, name: str, **amounts: float) -> None:
        with self._lock:
            stats = self._stats.setdefault(name, {})
            for key, amount in amounts.items():
                stats[key] = stats.get(key, 0.0) + amount

    def _timed(self, layer: Layer, fn):
        name, local = layer.name, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                extra = {}
                if layer.candidates and len(args) > 1:
                    extra["candidates"] = len(args[1])
                self._add(name, s=elapsed, self_s=elapsed - children[0], calls=1, **extra)

        return wrapper

    def _counted(self, layer: Layer, fn):
        name = layer.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._add(name, calls=1)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer in self.layers:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer.module}")
            except ImportError:
                self.absent.append(layer.name)
                continue
            make = self._counted if layer.count_only else self._timed
            owner_name, _, attr = layer.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
                if raw is None:
                    self.absent.append(layer.name)
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(make(layer, raw.__func__))
                else:
                    patched = make(layer, raw)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, patched)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(layer.name)
                continue
            patched = make(layer, original)
            for namespace in self._modules():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._undo.append((namespace, key, original))
                        setattr(namespace, key, patched)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Totals so far, keyed by layer name then stat."""
        with self._lock:
            return {name: dict(stats) for name, stats in self._stats.items()}


def difference(after: dict, before: dict) -> dict:
    """Per-layer totals accumulated between two snapshots."""
    out = {}
    for name, stats in after.items():
        base = before.get(name, {})
        delta = {key: value - base.get(key, 0.0) for key, value in stats.items()}
        if any(delta.values()):
            out[name] = delta
    return out
