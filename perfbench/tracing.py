"""Spans around calls into ramseyforge, recorded from outside the program.

Each trace site is a module-level name that a caller inside ramseyforge
looks up at call time, for example ``ramseyforge.arrow.copy_edge_masks``:
rebinding it makes every call from that module go through a span.  A site
must still be the very function its layer names, so moving or replacing
one fails loudly instead of silently dropping a layer.

Spans are kept in memory (one list per field) and aggregated, or written
out, after the traced batch.  Self time is a span's duration minus the
durations of its child spans; spans nest, because the program is single
threaded and generator layers are timed inside each ``next()``.
"""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = "bench.batch"
MAIN = "cli.main"

# (module the caller looks the name up in, name, layer = defining module.function)
SITES = (
    ("ramseyforge.cli", "arrows", "arrow.arrows"),
    ("ramseyforge.search", "arrows", "arrow.arrows"),
    ("ramseyforge.arrow", "copy_edge_masks", "embedding.copy_edge_masks"),
    ("ramseyforge.arrow", "find_copy", "embedding.find_copy"),
    ("ramseyforge.cli", "find_copy", "embedding.find_copy"),
    ("ramseyforge.search", "are_isomorphic", "hypergraph.are_isomorphic"),
    ("ramseyforge.constructions", "are_isomorphic", "hypergraph.are_isomorphic"),
    ("ramseyforge.cli", "are_isomorphic", "hypergraph.are_isomorphic"),
    ("ramseyforge.search", "enumerate_hosts", "search.enumerate_hosts"),
    ("ramseyforge.cli", "ramsey_number_small", "search.ramsey_number_small"),
    ("ramseyforge.search", "ramsey_number_small", "search.ramsey_number_small"),
    ("ramseyforge.cli", "size_ramsey_upper", "search.size_ramsey_upper"),
    ("ramseyforge.cli", "size_ramsey_exact_tiny", "search.size_ramsey_exact_tiny"),
    ("ramseyforge.cli", "automorphism_count", "hypergraph.automorphism_count"),
    ("ramseyforge.cli", "independence_number", "hypergraph.independence_number"),
    ("ramseyforge.cli", "gadget_family", "constructions.gadget_family"),
    ("ramseyforge.cli", "clique_hypergraph", "constructions.clique_hypergraph"),
    ("ramseyforge.constructions", "enumerate_cliques", "constructions.enumerate_cliques"),
    ("ramseyforge.randomlab", "enumerate_cliques", "constructions.enumerate_cliques"),
    ("ramseyforge.cli", "gnp", "randomlab.gnp"),
    ("ramseyforge.cli", "clique_stats", "randomlab.clique_stats"),
    ("ramseyforge.cli", "iterated_procedure", "randomlab.iterated_procedure"),
)

GENERATORS = {"search.enumerate_hosts": "hosts"}  # layer -> counter of items yielded

# exact counters read off a layer's return value
COUNTERS = {
    "arrow.arrows": lambda r: {"nodes": r.nodes, "unknown": int(r.result.value == "Unknown")},
    "embedding.copy_edge_masks": lambda r: {"masks": len(r)},
    "hypergraph.are_isomorphic": lambda r: {"hits": int(bool(r))},
    "constructions.clique_hypergraph": lambda r: {"edges": r.num_edges},
    "randomlab.iterated_procedure": lambda r: {
        "rounds": len(r.rounds),
        "steps": sum(x.state.steps for x in r.rounds),
    },
}


class SiteError(RuntimeError):
    """A trace site no longer resolves to the function of its layer."""


def resolve(site: tuple[str, str, str]):
    """The function a site names, checked against its layer's definition."""
    module_name, name, layer = site
    module = importlib.import_module(module_name)
    defining, _, func = layer.rpartition(".")
    expected = getattr(importlib.import_module(f"ramseyforge.{defining}"), func, None)
    found = getattr(module, name, None)
    if expected is None or found is not expected:
        raise SiteError(f"{module_name}.{name} is not ramseyforge.{layer}")
    return module, found


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.queries: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self.query = -1
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.queries.append(self.query)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer: str):
        counter = COUNTERS.get(layer)

        def traced(*args, **kwargs):
            i = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if counter is not None:
                self.counts.update({(layer, k): v for k, v in counter(result).items()})
            return result

        return traced

    def wrap_generator(self, fn, layer: str):
        key = (layer, GENERATORS[layer])

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    i = self.open(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(i)
                    self.counts[key] += 1
                    yield item

            return steps()

        return traced

    # -- sites -----------------------------------------------------------

    def install(self) -> None:
        """Rebind every site; raises SiteError before touching any."""
        resolved = [(resolve(site), site) for site in SITES]
        wrappers: dict[str, object] = {}
        for (module, fn), (_, name, layer) in resolved:
            if layer not in wrappers:
                wrap = self.wrap_generator if layer in GENERATORS else self.wrap
                wrappers[layer] = wrap(fn, layer)
            self._installed.append((module, name, fn))
            setattr(module, name, wrappers[layer])

    def uninstall(self) -> None:
        for module, name, fn in self._installed:
            setattr(module, name, fn)
        self._installed.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def layer_totals(self, scales=()) -> tuple[dict[str, float], Counter]:
        """Per-layer self time (s) and span count.  When scales are given,
        the self time of a span of query i is multiplied by scales[i]."""
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        for name, query, own in zip(self.names, self.queries, self.self_times()):
            if scales and query >= 0:
                own *= scales[query]
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] += 1
        return self_s, calls

    def child_count(self, child: str, parent: str) -> int:
        return sum(
            1
            for name, p in zip(self.names, self.parents)
            if name == child and p >= 0 and self.names[p] == parent
        )

    def write(self, path: Path) -> None:
        """One tab-separated line per span: id, parent, query, name, start, end."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tquery\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{self.queries[i]}\t{name}\t"
                    f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n"
                )
