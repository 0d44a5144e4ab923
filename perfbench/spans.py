"""Nested spans around calls into treedet, installed from outside the package.

Every target function is rebound, in each loaded treedet module that binds
it (for example both ``treedet.cli.enumerate_partitions`` and
``treedet.context.enumerate_partitions``), to a wrapper that opens a span.
Calls made inside a module go through its globals, so they are caught too.
Nothing under ``src/`` is edited.  Spans stay in memory and are written as
JSONL when the traced process ends.

A span records its name, start and end (``time.perf_counter``), its parent,
a row count where the result has one, ``ru_maxrss`` at its end, and the
tags set on the tracer when it opened (the det-stream input class).
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time


def _rows_len(args, kwargs, result):
    return len(result)


def _rows_first_arg(args, kwargs, result):
    return len(args[0])


def _rows_adjacency(args, kwargs, result):
    return int(result[0].size)


def _rows_samples(args, kwargs, result):
    return int(result.samples)


def _rows_instances(args, kwargs, result):
    return int(result.instances_checked)


# (span name, home module, attribute, row counter or None).  `_face_sweep`
# is private, but it is the only place that counts face sweeps; if a later
# version drops it, the span is reported missing instead of failing the run.
TARGETS = (
    ("enumeration.enumerate_partitions", "treedet.enumeration", "enumerate_partitions", _rows_len),
    ("context.standard_context", "treedet.context", "standard_context", None),
    ("flips.build_flip_graph", "treedet.flips", "build_flip_graph", None),
    ("flips.verify_flip_soundness", "treedet.flips", "verify_flip_soundness", None),
    ("flips.face_sweep", "treedet.flips", "_face_sweep", _rows_adjacency),
    ("flips.two_color", "treedet.flips", "two_color", _rows_first_arg),
    ("flips.check_bipartite", "treedet.flips", "check_bipartite", None),
    ("flips.check_connected", "treedet.flips", "check_connected", None),
    ("symmetry.orbit_decomposition", "treedet.symmetry", "orbit_decomposition", None),
    ("symmetry.stabilizer", "treedet.symmetry", "stabilizer", _rows_len),
    ("symmetry.match_catalog", "treedet.symmetry", "match_catalog", None),
    ("symmetry.epsilon_formula_check", "treedet.symmetry", "epsilon_formula_check", _rows_samples),
    ("algebra.det_eval", "treedet.algebra", "det_eval", None),
    ("algebra.validate_prime", "treedet.algebra", "validate_prime", None),
    ("algebra.verify_relations", "treedet.algebra", "verify_relations", _rows_instances),
    ("cli.cmd_certify_all", "treedet.cli", "cmd_certify_all", None),
)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Call `install()` after the treedet modules are imported; `uninstall()`
    puts the original functions back, so a process can alternate traced
    and untraced stretches.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.tags: dict = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._sites: list[tuple] = []  # (module, attribute, original, wrapper)
        found = []
        for name, home, attr, rows in TARGETS:
            try:
                found.append((name, getattr(importlib.import_module(home), attr), rows))
            except (ImportError, AttributeError):
                self.missing.append(name)
        # Scan only after every home module is imported, so that bindings made
        # by a module's `from ... import` are all present.
        modules = [
            mod for mod_name, mod in sys.modules.items()
            if mod is not None and (mod_name == "treedet" or mod_name.startswith("treedet."))
        ]
        for name, original, rows in found:
            wrapper = self._wrap(name, original, rows)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._sites.append((mod, key, original, wrapper))

    def install(self):
        for mod, key, _, wrapper in self._sites:
            setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original, _ in self._sites:
            setattr(mod, key, original)

    def _wrap(self, name, fn, rows):
        tracer = self

        def wrapper(*args, **kwargs):
            span = {
                "id": len(tracer.spans),
                "parent": tracer._stack[-1] if tracer._stack else None,
                "name": name,
                "start": time.perf_counter(),
            }
            span.update(tracer.tags)
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                tracer._stack.pop()
            if rows is not None:
                try:
                    span["rows"] = rows(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            if name == "enumeration.enumerate_partitions":
                span["cycle_free"] = bool(getattr(result, "cycle_free", False))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read(path) -> tuple[list[dict], list[str]]:
    """Spans and missing span names from a JSONL file written by `write`."""
    with open(path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return lines[1:], lines[0]["missing"]


class SpanSet:
    """Aggregates over the spans of one traced process."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        child_time: dict[int, float] = {}
        self.has_children: set[int] = set()
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                self.has_children.add(s["parent"])
        # Children of one span run one after another in a single thread, so
        # the time they cover is the sum of their durations.
        self.self_time = {
            s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans
        }

    def select(self, name, **match):
        return [
            s for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        ]

    def total(self, name, **match) -> float:
        return sum(s["end"] - s["start"] for s in self.select(name, **match))

    def self_total(self, name, **match) -> float:
        return sum(self.self_time[s["id"]] for s in self.select(name, **match))

    def count(self, name, **match) -> int:
        return len(self.select(name, **match))

    def rows(self, name, **match) -> int:
        return sum(s.get("rows", 0) for s in self.select(name, **match))

    def peak_mb(self, layer: str) -> float:
        """ru_maxrss at the end of the layer's last span, in MiB."""
        ended = [s for s in self.spans if s["name"].startswith(layer + ".")]
        if not ended:
            return 0.0
        return max(ended, key=lambda s: s["end"])["maxrss_kb"] / 1024.0
