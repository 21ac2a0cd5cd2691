"""Spans around the calls into each kinser module, installed at run time.

``Tracer.installed()`` rebinds the public functions that ``kinser.cli``
reaches, in every ``kinser`` module namespace that holds them, to wrappers
that record a span (name, layer, start, end, parent, job) and restores the
originals on exit. No kinser source file is changed. Spans stay in memory
until the benchmark writes them out.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, attribute, layer); "Matroid.enumerate" is a method
TARGETS = [
    ("kinser.cli", "main", "cli"),
    ("kinser.fileio", "parse_matroid", "fileio"),
    ("kinser.fileio", "write_matroid", "fileio"),
    ("kinser.fileio", "write_certificate", "fileio"),
    ("kinser.core", "validate_rank_table", "core"),
    ("kinser.core", "Matroid.enumerate", "core"),
    ("kinser.engine", "membership", "engine"),
    ("kinser.engine", "evaluate", "engine"),
] + [("kinser.catalog", name, "catalog")
     for name in ("uniform", "fano_pair", "kinser_base", "kinser", "kinser_relaxed",
                  "binary_spike", "dowling", "cyclic_group")] + \
    [("kinser.transforms", name, "transforms")
     for name in ("dual", "delete", "contract", "minor", "relax", "tighten",
                  "truncate", "direct_sum")]


def _attrs(name: str, args: tuple, result) -> dict | None:
    """Counts recorded at the boundary where the work happens."""
    if name == "membership":
        return {"n": args[1], "tuples": result.tuples_examined,
                "rank_queries": result.rank_queries}
    if name == "Matroid.enumerate":
        return {"kind": args[1], "count": len(result)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.job: str | None = None
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, layer: str):
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "layer": layer,
                    "parent": self._stack[-1] if self._stack else None,
                    "job": self.job, "start": time.perf_counter_ns(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                self._stack.pop()
            attrs = _attrs(name, args, result)
            if attrs:
                span.update(attrs)
            return result
        return traced

    @contextmanager
    def installed(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "kinser" or key.startswith("kinser.")]
        undo = []
        try:
            for modname, attr, layer in TARGETS:
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(orig, attr, layer))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(owner, attr)
                wrapper = self._wrap(orig, attr, layer)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, orig))
            yield self
        finally:
            for obj, key, orig in reversed(undo):
                setattr(obj, key, orig)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover, in s."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [(s["end"] - s["start"] - c) / 1e9 for s, c in zip(spans, child)]


# per-layer time metric -> the span names whose self time it sums
TIME_METRICS = {
    "engine.search_s": ("membership",),
    "engine.evaluate_s": ("evaluate",),
    "core.enumerate_s": ("Matroid.enumerate",),
    "core.validate_s": ("validate_rank_table",),
    "fileio.parse_s": ("parse_matroid",),
    "fileio.write_s": ("write_matroid",),
    "fileio.cert_s": ("write_certificate",),
    "cli.self_s": ("main",),
}
COUNT_METRICS = ("engine.tuples", "engine.rank_queries", "core.flats")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    out = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = sum(t for s, t in zip(spans, selfs) if s["name"] in names)
    out["catalog.build_s"] = sum(t for s, t in zip(spans, selfs) if s["layer"] == "catalog")
    out["transforms.self_s"] = sum(t for s, t in zip(spans, selfs)
                                   if s["layer"] == "transforms")
    searches = [s for s in spans if s["name"] == "membership"]
    flats_of = {s["parent"]: s["count"] for s in spans
                if s["name"] == "Matroid.enumerate" and s["kind"] == "flats"}
    tuples = sum(s["tuples"] for s in searches)
    queries = sum(s["rank_queries"] for s in searches)
    space = sum(flats_of[s["id"]] ** s["n"] for s in searches)
    out["engine.tuples"] = tuples
    out["engine.rank_queries"] = queries
    out["core.flats"] = sum(s["count"] for s in spans
                            if s["name"] == "Matroid.enumerate" and s["kind"] == "flats")
    out["engine.scan_frac"] = tuples / space if space else 0.0
    out["engine.queries_per_tuple"] = queries / tuples if tuples else 0.0
    search_s = out["engine.search_s"]
    out["engine.tuples_per_s"] = tuples / search_s if search_s else 0.0
    return out
