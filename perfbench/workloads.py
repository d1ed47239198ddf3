"""The benchmark's three workloads: seeded query lists for the ramseyforge CLI.

Every input hypergraph is built here, with no help from ramseyforge, and
handed to the program only as a JSON file.  Each query carries the
reference its answer is checked against (see checks.py).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("ramsey-search", "size-ramsey-scan", "random-hosts")

# Node budgets of the two frontier queries.  Both hosts arrow their pattern
# (R(C5) = 9, R(K4-e) = 10); the arrow search at the base commit needs far
# more nodes than this, so both come back Unknown there.
FRONTIER_BUDGET_C5 = 5_000
FRONTIER_BUDGET_K4E = 6_000


@dataclass
class Query:
    """One CLI call.  argv paths are relative to the work directory."""

    name: str
    kind: str  # ramsey | arrows | exact | upper | randomlab | gadget
    argv: list[str]
    out: str
    ref: dict = field(default_factory=dict)
    budgeted: bool = False  # an Unknown verdict is an allowed outcome


# -- hypergraphs as (k, n, edges) ------------------------------------------


def _hg(k: int, n: int, edges) -> dict:
    return {"k": k, "n": n, "edges": sorted(sorted(e) for e in edges)}


def complete(k: int, n: int) -> dict:
    return _hg(k, n, itertools.combinations(range(n), k))


def path(n: int) -> dict:
    return _hg(2, n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> dict:
    return _hg(2, n, [(i, (i + 1) % n) for i in range(n)])


def star(s: int) -> dict:
    return _hg(2, s + 1, [(0, i) for i in range(1, s + 1)])


def k4_minus_e() -> dict:
    return _hg(2, 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def k4_3_minus() -> dict:
    """K4^(3) minus one edge: three triples on four vertices."""
    return _hg(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])


def tight_path3(edges: int) -> dict:
    return _hg(3, edges + 2, [(i, i + 1, i + 2) for i in range(edges)])


def loose_path3(edges: int) -> dict:
    return _hg(3, 2 * edges + 1, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(edges)])


def relabel(h: dict, rng: random.Random) -> dict:
    perm = list(range(h["n"]))
    rng.shuffle(perm)
    return _hg(h["k"], h["n"], [[perm[v] for v in e] for e in h["edges"]])


def minus_edges(h: dict, r: int, rng: random.Random) -> dict:
    drop = set(rng.sample(range(len(h["edges"])), r))
    kept = [e for i, e in enumerate(h["edges"]) if i not in drop]
    return _hg(h["k"], h["n"], kept)


# -- workloads ---------------------------------------------------------------


class _Builder:
    def __init__(self) -> None:
        self.files: dict[str, str] = {}
        self.queries: list[Query] = []

    def file(self, name: str, h: dict) -> str:
        self.files[name] = json.dumps(h) + "\n"
        return name

    def add(self, name: str, kind: str, argv: list[str], **kw) -> None:
        out = f"{name}.report.json"
        self.queries.append(Query(name, kind, argv + ["--out", out], out, **kw))

    def arrows(self, name, host, pattern, verdict, budget=None, proof_host=None):
        h = self.file(f"{name}.host.json", host)
        p = self.file(f"{name}.pattern.json", pattern)
        argv = ["arrows", "--host", h, "--pattern", p]
        if budget is not None:
            argv += ["--budget", str(budget)]
        ref = {"verdict": verdict, "host": host, "pattern": pattern}
        if proof_host is not None:
            ref["proof_host"] = proof_host
        self.add(name, "arrows", argv, ref=ref, budgeted=budget is not None)


def _ramsey_search(rng: random.Random) -> _Builder:
    b = _Builder()
    # Ramsey numbers: R(K3) = R(C4) = R(P5) = 6, R(K1,4) = 7 (Burr-Roberts)
    # and R(K4^(3)-) = 7 (Frankl-Furedi).
    for name, pattern, value in (
        ("R-K3", complete(2, 3), 6),
        ("R-C4", cycle(4), 6),
        ("R-P5", path(5), 6),
        ("R-K1_4", star(4), 7),
        ("R-K4_3minus", k4_3_minus(), 7),
    ):
        pattern = relabel(pattern, rng)
        p = b.file(f"{name}.pattern.json", pattern)
        b.add(name, "ramsey", ["ramsey", "--pattern", p, "--cap", "8"], ref={"value": value})
    # complete hosts: R(C5) = 9 and R(P6) = R(C6) = 8, so the graph hosts
    # do not arrow.  The 3-graph hosts do, because K5^(3) already arrows
    # both paths, which the check confirms by brute force over its 2^10
    # colourings.
    b.arrows("K8-C5", complete(2, 8), relabel(cycle(5), rng), "NotArrows")
    b.arrows("K7-P6", complete(2, 7), relabel(path(6), rng), "NotArrows")
    b.arrows("K7-C6", complete(2, 7), relabel(cycle(6), rng), "NotArrows")
    k5_3 = complete(3, 5)
    b.arrows("K7_3-tight3", complete(3, 7), relabel(tight_path3(3), rng), "Arrows", proof_host=k5_3)
    b.arrows("K7_3-loose2", complete(3, 7), relabel(loose_path3(2), rng), "Arrows", proof_host=k5_3)
    # R(K4-e) = 10: the complete host K9 does not arrow K4-e
    b.arrows("K9-K4e", complete(2, 9), relabel(k4_minus_e(), rng), "NotArrows")
    # seeded near-complete hosts below the Ramsey number: never arrowing.
    # The seven P6 hosts cost about the same and straddle the median query,
    # which keeps query_p50_s from jumping between unlike queries.
    b.arrows("K8minus5-C5", minus_edges(complete(2, 8), 5, rng), cycle(5), "NotArrows")
    for i in range(7):
        b.arrows(f"K7minus2-P6-{i}", minus_edges(complete(2, 7), 2, rng), path(6), "NotArrows")
    # frontier: true verdict Arrows, Unknown within the fixed budget
    b.arrows("K9-C5-budget", complete(2, 9), cycle(5), "Arrows", FRONTIER_BUDGET_C5)
    b.arrows("K10-K4e-budget", complete(2, 10), k4_minus_e(), "Arrows", FRONTIER_BUDGET_K4E)
    return b


def _size_ramsey_scan(rng: random.Random) -> _Builder:
    b = _Builder()
    # exact size-Ramsey numbers under caps: r(P4) = 7, r(K1,3) = 5,
    # r(P3) = 3 and 3 for the loose 2-edge 3-path (a 3-edge sunflower).
    # The four K1,3 caps cost about the same and hold the median query.
    for name, pattern, caps, value in (
        ("exact-P4-v5", path(4), ("5", "7"), 7),
        ("exact-P4-v6", path(4), ("6", "7"), 7),
        ("exact-P4-v7", path(4), ("7", "7"), 7),
        ("exact-K1_3-v6", star(3), ("6", "12"), 5),
        ("exact-K1_3-v7", star(3), ("7", "12"), 5),
        ("exact-K1_3-v8", star(3), ("8", "12"), 5),
        ("exact-K1_3-v9", star(3), ("9", "12"), 5),
        ("exact-P3", path(3), ("9", "12"), 3),
        ("exact-loose2", loose_path3(2), ("9", "12"), 3),
    ):
        pattern = relabel(pattern, rng)
        p = b.file(f"{name}.pattern.json", pattern)
        argv = ["size-ramsey", "exact", "--pattern", p, "--vcap", caps[0], "--ecap", caps[1]]
        b.add(name, "exact", argv, ref={"value": value, "pattern": pattern, "vcap": int(caps[0])})
    # upper bounds from the seeded host strategies; floor is the known
    # size-Ramsey number where there is one (r(K3) = 15, r(P4) = 7)
    for name, pattern, floor in (
        ("upper-K3", complete(2, 3), 15),
        ("upper-C4", cycle(4), None),
        ("upper-P4", path(4), 7),
        ("upper-P5", path(5), None),
        ("upper-tight3", tight_path3(3), None),
        ("upper-loose2", loose_path3(2), 3),
    ):
        pattern = relabel(pattern, rng)
        p = b.file(f"{name}.pattern.json", pattern)
        argv = ["size-ramsey", "upper", "--pattern", p, "--seed", str(rng.randrange(10**6))]
        b.add(name, "upper", argv, ref={"floor": floor, "pattern": pattern})
    return b


def _random_hosts(rng: random.Random) -> _Builder:
    b = _Builder()
    m = 20
    # sparse hosts, p = 2/n^0.55, then dense ones with about 61k triangles;
    # the random colouring finds the path in round 1 for some seeds only
    # above n = 160, so larger sparse hosts use the majority colouring.
    # The seven dense hosts cost about the same and hold the median query.
    sparse = ((120, "random"), (160, "random"), (200, "majority"), (240, "majority"))
    runs = [(n, 2 / n**0.55, scheme) for n, scheme in sparse]
    runs += [(240, 0.3, scheme) for scheme in ("random", "majority") * 3 + ("random",)]
    for i, (n, p, scheme) in enumerate(runs):
        name = f"randomlab-{i}-n{n}-p{p:.3f}-{scheme}"
        argv = [
            "randomlab", "pipeline", "--n", str(n), "--k", "3", "--p", repr(p),
            "--m", str(m), "--seed", str(rng.randrange(10**6)),
            "--coloring-scheme", scheme,
        ]
        b.add(name, "randomlab", argv, ref={"n": n, "m": m})
    argv = ["gadget-audit", "--t", "3", "--q", "2", "--seed", str(rng.randrange(10**6))]
    b.add("gadget-audit-t3-q2", "gadget", argv, ref={"t": 3, "q": 2})
    return b


_BUILDERS = {
    "ramsey-search": _ramsey_search,
    "size-ramsey-scan": _size_ramsey_scan,
    "random-hosts": _random_hosts,
}


def build(workload: str, seed: int) -> tuple[list[Query], dict[str, str]]:
    """The workload's queries and input files (name -> text) for a seed."""
    b = _BUILDERS[workload](random.Random(f"{workload}/{seed}"))
    return b.queries, b.files


def write_inputs(workdir: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        (workdir / name).write_text(text)
