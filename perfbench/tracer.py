"""Per-layer spans recorded from outside the library.

Between ``begin`` and ``end`` the tracer replaces each traced public function
in every ``posat`` module that binds it (so ``posat.search.iter_induced_embeddings``
is wrapped as well as ``posat.family.iter_induced_embeddings``); ``end``
restores the originals.  The library source is not touched.

A span is (name, start, end, parent).  For a generator function such as
``iter_induced_embeddings`` each ``next()`` is a span, so its seconds are the
time spent producing values, while its call count is the number of generators
created.  Spans stay in memory until ``write_spans`` at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from collections import Counter
from time import perf_counter

# Layer (posat module) -> traced public functions.
TRACED = {
    "search": ("exact_sat_star", "greedy_saturate", "digraph_lower_bound_check", "legs_lower_bound"),
    "family": ("iter_induced_embeddings", "contains_induced_copy", "is_induced_saturated",
               "singleton_difference_pairs"),
    "digraph": ("auxiliary_digraph", "has_transitive_cycle", "find_induced_oriented_cycle",
                "contract_cycle", "max_tc_free_edges_bruteforce"),
    "poset": ("has_legs", "dual"),
    "io": ("parse_family", "parse_digraph"),
}
# A "hit" is a useful outcome: an exact result, or an embedding query that
# found a copy (counted for generators on their first value).
HIT = {"search.exact_sat_star": lambda result: result.exact}


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for layer, functions in TRACED.items():
        for fn in functions:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.s"]
        names.append(f"{layer}.self_s")
    names += ["search.exact_ratio", "family.iter_induced_embeddings.hit_ratio",
              "io.bytes_parsed", "trace.overhead_frac"]
    return names


class Tracer:
    def __init__(self):
        """Builds the wrappers for the posat modules imported now."""
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack = [-1]
        self.calls: Counter[str] = Counter()
        self.hits: Counter[str] = Counter()
        self.bytes_parsed = 0
        self.executions: list[tuple[str, int, int]] = []  # (task, first span, end span)
        self._exec_start = 0
        modules = [m for key, m in sys.modules.items() if key == "posat" or key.startswith("posat.")]
        self._patches = []  # (module, attribute, original, wrapper)
        for layer, functions in TRACED.items():
            home = sys.modules[f"posat.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                if inspect.isgeneratorfunction(original):
                    wrapper = self._wrap_generator(name, original)
                else:
                    wrapper = self._wrap(name, original)
                for module in modules:
                    if vars(module).get(fn_name) is original:
                        self._patches.append((module, fn_name, original, wrapper))

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        hit = HIT.get(name)
        count_bytes = name.startswith("io.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if count_bytes:
                self.bytes_parsed += len(args[0].encode())
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hit is not None and hit(result):
                self.hits[name] += 1
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            return self._timed_next(name, fn(*args, **kwargs))

        return traced

    def _timed_next(self, name: str, it):
        first = True
        while True:
            i = self._open(name)
            try:
                value = next(it)
            except StopIteration:
                return
            finally:
                self._close(i)
            if first:
                self.hits[name] += 1
                first = False
            yield value

    # -- per execution ------------------------------------------------------

    def begin(self) -> None:
        """Reset the counters and put the wrappers in place."""
        self.calls.clear()
        self.hits.clear()
        self.bytes_parsed = 0
        self._exec_start = len(self.names)
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def end(self, task: str) -> dict[str, float]:
        """Restore the originals; layer counts and seconds of the task
        execution since ``begin``."""
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        lo, hi = self._exec_start, len(self.names)
        self.executions.append((task, lo, hi))
        out = Counter()
        children = Counter()
        for i in range(lo, hi):
            d = self.ends[i] - self.starts[i]
            out[self.names[i] + ".s"] += d
            if self.parents[i] >= lo:
                children[self.parents[i]] += d
        for i in range(lo, hi):
            layer = self.names[i].split(".", 1)[0]
            out[layer + ".self_s"] += self.ends[i] - self.starts[i] - children[i]
        for name, n in self.calls.items():
            out[name + ".calls"] = n
        for name, n in self.hits.items():
            out[name + ".hits"] = n
        out["io.bytes_parsed"] = self.bytes_parsed
        return out

    def write_spans(self, path) -> None:
        """One line per span: execution, span id, parent id, name, start, end."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as f:
            f.write("exec\tspan\tparent\tname\ttask\tstart_s\tend_s\n")
            for e, (task, lo, hi) in enumerate(self.executions):
                for i in range(lo, hi):
                    f.write(f"{e}\t{i}\t{self.parents[i]}\t{self.names[i]}\t{task}\t"
                            f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n")


def layer_metrics(per_task: list[dict[str, float]], untraced_s: float, traced_s: float) -> dict[str, float]:
    """Per-layer metrics for one pass: each value is the sum over tasks of
    the task's median, so a run's sample counts do not change the scale."""
    total = Counter()
    for profile in per_task:
        total.update(profile)
    exact_calls = total["search.exact_sat_star.calls"]
    embed_calls = total["family.iter_induced_embeddings.calls"]
    derived = {
        "search.exact_ratio": total["search.exact_sat_star.hits"] / exact_calls if exact_calls else 0.0,
        "family.iter_induced_embeddings.hit_ratio":
            total["family.iter_induced_embeddings.hits"] / embed_calls if embed_calls else 0.0,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    return {name: derived[name] if name in derived else total[name] for name in metric_names()}
