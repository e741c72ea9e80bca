"""Span tracing of spheremap's layers from outside the package.

``install()`` replaces each traced function in every ``spheremap`` module
that holds it (the defining module and each module that imported it), so
calls across modules and recursive calls inside one module both record a
span.  A span is (name, start, end, parent); spans stay in memory until
``write()``.  A layer's self time is its spans' durations minus the time
their direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# (defining module, function, span name).  `_search_labelings` is the
# per-class labeling DFS behind both `exists_labeling` and `lambda_search`;
# `_vertex_splits` is the 2-sphere vertex-splitting generator.
TRACED = [
    ("complexes", "is_sphere", "complexes.is_sphere"),
    ("complexes", "canonical_form", "complexes.canonical_form"),
    ("complexes", "check_closed_pseudomanifold", "complexes.check_closed_pseudomanifold"),
    ("complexes", "coherence_failures", "complexes.coherence_failures"),
    ("complexes", "orient", "complexes.orient"),
    ("complexes", "stellar_subdivide_oriented", "complexes.stellar_subdivide_oriented"),
    ("degree", "degree", "degree.degree"),
    ("degree", "labeled_sphere", "degree.labeled_sphere"),
    ("constructions", "construct", "constructions.construct"),
    ("constructions", "insertion_step", "constructions.insertion_step"),
    ("constructions", "one_point_suspension", "constructions.one_point_suspension"),
    ("documents", "serialize", "documents.serialize"),
    ("documents", "parse_with_metadata", "documents.parse_with_metadata"),
    ("search", "enumerate_spheres", "search.enumerate_spheres"),
    ("search", "_vertex_splits", "search.vertex_splits"),
    ("search", "_search_labelings", "search.exists_labeling"),
    ("search", "lambda_search", "search.lambda_search"),
    ("cli", "main", "cli.main"),
]

# Calls the CLI makes itself, counted apart from the same layer's calls
# made elsewhere: they show `verify` redoing work `parse` already did.
CLI_COUNTED = ["is_sphere", "degree"]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.active: Counter = Counter()
        self.totals: Counter = Counter()
        self.counts: Counter = Counter()
        self.classes_by_v: dict[int, int] = {}

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.starts.append(perf_counter())
        self.ends.append(0.0)
        self.stack.append(i)
        self.active[name] += 1
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self.stack.pop()
        name = self.names[i]
        self.active[name] -= 1
        if not self.active[name]:  # outermost span of this name
            self.totals[name] += self.ends[i] - self.starts[i]

    def wrap(self, fn, name: str):
        """Span per call; for a generator, one span per resumption."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                it = fn(*args, **kwargs)
                while True:
                    i = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    self.counts[name + ".yields"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            self._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args, result) -> None:
        if name == "search.exists_labeling":
            self.counts["search.dfs_nodes"] += result[1]
        elif name == "search.lambda_search":
            self.counts["search.triangulations_examined"] += result.triangulations_examined
        elif name == "documents.serialize":
            self.counts["documents.serialize.bytes"] += len(result.encode())

    def count_classes(self, fn):
        """No span: the memoised 2-sphere class list per vertex count,
        whose time stays with `enumerate_spheres`."""

        @functools.wraps(fn)
        def counter(v):
            result = fn(v)
            self.classes_by_v[v] = len(result)
            return result

        return counter

    def count_calls(self, fn, key: str):
        @functools.wraps(fn)
        def counter(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counter

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, parent, start, end in zip(self.names, self.parents, self.starts, self.ends):
            dur = end - start
            out[name] = out.get(name, 0.0) + dur
            if parent >= 0:
                pname = self.names[parent]
                out[pname] = out.get(pname, 0.0) - dur
        return out

    def metrics(self) -> dict[str, float]:
        """Calls, self time and inclusive time per span name, plus the
        work counters.  Inclusive time counts only the outermost span of a
        name, so recursion is not counted twice."""
        selfs = self.self_times()
        out: dict[str, float] = {}
        for _, _, name in TRACED:
            out[name + ".calls"] = self.counts[name + ".calls"]
            out[name + ".self_s"] = selfs.get(name, 0.0)
            out[name + ".total_s"] = self.totals[name]
        for key in (
            "documents.serialize.bytes",
            "search.dfs_nodes",
            "search.triangulations_examined",
            *(f"cli.{fn_name}.calls" for fn_name in CLI_COUNTED),
        ):
            out[key] = self.counts[key]
        children = self.counts["search.vertex_splits.yields"]
        out["search.split_children"] = children
        for v, classes in self.classes_by_v.items():
            out[f"search.classes_v{v}"] = classes
        split_classes = sum(c for v, c in self.classes_by_v.items() if v > 4)
        out["search.dedup_ratio"] = split_classes / children if children else 0.0
        return out

    def write(self, path) -> None:
        """Spans as JSON: a name table and one [name, start, end, parent]
        row per span, times in seconds from the first span."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [index[n], round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"names": table, "spans": rows}, fh, separators=(",", ":"))


def install() -> Tracer:
    """Wrap every TRACED function wherever a spheremap module holds it."""
    tracer = Tracer()
    modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "spheremap"]

    def replace(mod_name, fn_name, make):
        original = getattr(sys.modules["spheremap." + mod_name], fn_name)
        wrapped = make(original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    for mod_name, fn_name, span_name in TRACED:
        replace(mod_name, fn_name, lambda fn: tracer.wrap(fn, span_name))
    replace("search", "_sphere_classes", tracer.count_classes)
    cli = sys.modules["spheremap.cli"]
    for fn_name in CLI_COUNTED:
        setattr(cli, fn_name, tracer.count_calls(getattr(cli, fn_name), f"cli.{fn_name}.calls"))
    return tracer
