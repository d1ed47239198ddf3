"""Random-graph clique hosts, exact clique statistics and the
monochromatic tight-path growing procedure with its accounting.

The edge probability is either given directly or evaluated from the
asymptotic formula d*(log2(n)/n)**beta; the published constants push the
formula past 1 at any feasible n, so small runs give p directly.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, eq, ge, itemgetter
from typing import Iterable, Optional

from .constructions import clique_hypergraph, enumerate_cliques
from .hypergraph import EdgeColoring, KUniformHypergraph

TRASH_FULL = "TrashFull"
NO_SEED = "NoSeed"
PATH_FOUND = "PathFound"


def default_beta(k: int) -> float:
    return 1.0 / (math.comb(k - 1, 2) + 1)


def default_alpha(k: int) -> float:
    return (k - 2) * default_beta(k)


def _tail_pairs(k: int) -> int:
    """(k-1)(k-2), the divisor of nu and lambda; it vanishes below k = 3."""
    if k < 3:
        raise ValueError(f"nu and lambda need k >= 3, got k={k}")
    return (k - 1) * (k - 2)


def nu_constant(k: int, d: float) -> float:
    return (1.5**k) * d ** math.comb(k, 2) / _tail_pairs(k)


def lambda_constant(k: int, d: float) -> float:
    return 0.5 ** (k - 1) * d ** math.comb(k, 2) / _tail_pairs(k)


@dataclass(frozen=True)
class GnpParams:
    """G(n, p) parameters of the clique pipeline.

    p may be given directly; otherwise it is evaluated as
    d*(log2(n)/n)**default_beta(k).  Logarithms are base 2 throughout.
    """

    n: int
    p: Optional[float] = None
    seed: int = 0
    k: int = 3
    d: Optional[float] = None

    def resolved_p(self) -> float:
        if self.p is not None:
            if not 0.0 <= self.p <= 1.0:
                raise ValueError(f"p must lie in [0, 1], got {self.p}")
            return self.p
        if self.d is None:
            raise ValueError("either p or d must be given")
        if self.n < 1:
            raise ValueError(f"formula p needs n >= 1, got n={self.n}")
        p = self.d * (math.log2(self.n) / self.n) ** default_beta(self.k)
        if not 0.0 <= p <= 1.0:
            raise ValueError(
                f"formula p={p:.4g} is outside [0, 1] at n={self.n}; "
                "override p directly"
            )
        return p


def gnp(params: GnpParams) -> KUniformHypergraph:
    """Seeded G(n, p): each pair is an edge independently with probability p."""
    p = params.resolved_p()
    rng = random.Random(params.seed)
    edges = [
        e for e in itertools.combinations(range(params.n), 2) if rng.random() < p
    ]
    # combinations yields increasing pairs in lexicographic order: canonical
    return KUniformHypergraph(2, params.n, tuple(edges))


# -- exact clique statistics ----------------------------------------------


@dataclass
class CliqueStatsReport:
    t_ell: dict[int, int]  # order -> clique count, orders 1..k
    deg_k: list[int]  # per-vertex count of k-cliques through it
    t_k: int
    x_ab: int
    y_ab: int
    z_c: int
    nu: Optional[float] = None
    lam: Optional[float] = None


def clique_stats(
    g: KUniformHypergraph,
    cliques: KUniformHypergraph,
    a_set: Iterable[int] = (),
    b_family: Iterable[Iterable[int]] = (),
    c_set: Iterable[int] = (),
    d: Optional[float] = None,
) -> CliqueStatsReport:
    """Exact clique counts on a graph plus the completion statistics for a
    disjoint family of (k-1)-cliques, read off cliques = clique_hypergraph(g, k).

    x counts k-cliques made of a family member plus an outside vertex, y
    those completed inside A or the family's own vertices, z those meeting
    C.  The family members must be vertex-disjoint (k-1)-cliques and A must
    avoid their vertices.
    """
    if g.k != 2:
        raise ValueError("clique statistics are defined on graphs (k=2)")
    if cliques.n != g.n:
        raise ValueError(f"the clique host has {cliques.n} vertices, the graph {g.n}")
    k = cliques.k
    a = frozenset(a_set)
    c = frozenset(c_set)
    family = [frozenset(b) for b in b_family]
    union_b: set[int] = set()
    for b in family:
        if len(b) != k - 1:
            raise ValueError(f"family member {sorted(b)} is not a (k-1)-set")
        if union_b & b:
            raise ValueError("family members must be pairwise vertex-disjoint")
        if any(not g.is_edge(pair) for pair in itertools.combinations(sorted(b), 2)):
            raise ValueError(f"family member {sorted(b)} does not induce a clique")
        union_b |= b
    if a & union_b:
        raise ValueError("A must be disjoint from the family's vertices")

    t_ell = {1: g.n, 2: g.num_edges}
    t_ell.update((ell, len(enumerate_cliques(g, ell))) for ell in range(3, k))
    t_ell[k] = cliques.num_edges

    # the k-cliques through member b are b plus a common neighbour of b's
    # vertices; for k = 2 an edge joining two members counts for the first
    inside = a | union_b
    x = y = 0
    earlier: set[int] = set()
    for b in family:
        common = set.intersection(*(set(g.neighbors[v]) for v in b))
        if k == 2:
            common -= earlier
            earlier |= b
        completed = len(common & inside)
        y += completed
        x += len(common) - completed
    z = sum(1 for q in cliques.edges if not c.isdisjoint(q)) if c else 0
    return CliqueStatsReport(
        t_ell=t_ell,
        deg_k=cliques.degrees(),
        t_k=cliques.num_edges,
        x_ab=x,
        y_ab=y,
        z_c=z,
        nu=nu_constant(k, d) if d is not None else None,
        lam=lambda_constant(k, d) if d is not None else None,
    )


@dataclass
class PropertySample:
    a_set: tuple[int, ...]
    family: tuple[tuple[int, ...], ...]
    c_set: tuple[int, ...]
    x_ab: int
    y_ab: int
    z_c: int
    ratio_ok: bool  # (k+1) * y <= x, vacuous-pass when x = y = 0
    z_ok: bool  # 4k * z <= t_k


@dataclass
class PropertyCheckReport:
    n: int
    k: int
    c: float
    t_k: int
    samples: list[PropertySample]
    ratio_pass_fraction: float
    z_pass_fraction: float
    t_k_bound: Optional[float]  # nu * n^(k-1-alpha) * log2(n)^(1+alpha)
    t_k_ok: Optional[bool]


def _random_disjoint_family(
    cliques: list[tuple[int, ...]], size: int, rng: random.Random
) -> list[tuple[int, ...]]:
    pool = cliques[:]
    rng.shuffle(pool)
    family: list[tuple[int, ...]] = []
    used: set[int] = set()
    for q in pool:
        if len(family) == size:
            break
        if used.isdisjoint(q):
            family.append(q)
            used.update(q)
    return family


def property_check(
    g: KUniformHypergraph,
    k: int,
    c: Optional[float] = None,
    trials: int = 20,
    seed: int = 0,
    d: Optional[float] = None,
) -> PropertyCheckReport:
    """Sampled check of the completion-ratio, intersection and total-count
    properties of a clique host.

    Full quantification over (A, family, C) is infeasible, so each trial
    draws a random disjoint family and a random A; C is the greedy
    largest-degree-first representative.
    """
    if c is None:
        c = 3.0 ** (-3 * k)
    rng = random.Random(seed)
    cliques = clique_hypergraph(g, k)
    t_k = cliques.num_edges
    km1 = enumerate_cliques(g, k - 1)

    family_budget = max(1, math.floor(c * g.n))
    a_budget = max(0, math.floor(c * g.n))
    c_budget = max(0, math.floor((k - 1) * c * g.n))

    deg = g.degrees()
    greedy_c = tuple(
        sorted(
            sorted(range(g.n), key=lambda v: (-deg[v], v))[:c_budget]
        )
    )

    samples: list[PropertySample] = []
    # all families are drawn before any A: seeded reports depend on that order
    planned = [_random_disjoint_family(km1, family_budget, rng) for _ in range(trials)]
    for family in planned:
        used = {v for b in family for v in b}
        outside = [v for v in range(g.n) if v not in used]
        a_size = min(a_budget, len(outside))
        a_set = tuple(sorted(rng.sample(outside, a_size))) if a_size else ()
        st = clique_stats(g, cliques, a_set, family, greedy_c, d=d)
        samples.append(
            PropertySample(
                a_set=a_set,
                family=tuple(tuple(sorted(b)) for b in family),
                c_set=greedy_c,
                x_ab=st.x_ab,
                y_ab=st.y_ab,
                z_c=st.z_c,
                ratio_ok=(k + 1) * st.y_ab <= st.x_ab or (st.x_ab == 0 and st.y_ab == 0),
                z_ok=4 * k * st.z_c <= t_k,
            )
        )

    bound = None
    t_k_ok = None
    if d is not None:
        alpha = default_alpha(k)
        bound = nu_constant(k, d) * g.n ** (k - 1 - alpha) * math.log2(g.n) ** (
            1 + alpha
        )
        t_k_ok = t_k <= bound
    total = len(samples) or 1
    return PropertyCheckReport(
        n=g.n,
        k=k,
        c=c,
        t_k=t_k,
        samples=samples,
        ratio_pass_fraction=sum(s.ratio_ok for s in samples) / total,
        z_pass_fraction=sum(s.z_ok for s in samples) / total,
        t_k_bound=bound,
        t_k_ok=t_k_ok,
    )


# -- the path-growing procedure --------------------------------------------


@dataclass
class ProcedureState:
    status: str  # TrashFull | NoSeed | PathFound
    path: tuple[int, ...]
    trash: tuple[tuple[int, ...], ...]
    seeds: int
    extensions: int
    rewinds: int
    steps: int


def grow_monochromatic_tight_path(
    h: KUniformHypergraph,
    coloring: EdgeColoring,
    color: str,
    m: int,
) -> ProcedureState:
    """Grow a tight path in one color, retiring dead (k-1)-tails to a trash
    set of pairwise disjoint tuples.

    Stops when the trash holds m tuples (TrashFull), when no seeding edge
    remains inside the unused set (NoSeed), or when the path itself reaches
    m vertices (PathFound).  Seed edges and extension vertices are chosen
    lexicographically least, so runs are reproducible.
    """
    colored = [e for e, c in zip(h.edges, coloring.colors) if c == color]
    return _grow_path(h.k, h.n, colored, m)


def _grow_path(k: int, n: int, sought: list[tuple[int, ...]], m: int) -> ProcedureState:
    """grow_monochromatic_tight_path on the sorted edges of the sought color."""
    if m < 1:
        raise ValueError("need m >= 1")
    sought_set = set(sought)

    unused = set(range(n))
    path: list[int] = []
    trash: list[tuple[int, ...]] = []
    seeds = extensions = rewinds = steps = 0
    status = None

    while status is None:
        steps += 1
        if not path:
            seed_edge = next((e for e in sought if unused.issuperset(e)), None)
            if seed_edge is None:
                status = NO_SEED
                break
            path = list(seed_edge)
            unused -= set(seed_edge)
            seeds += 1
        else:
            tail = path[-(k - 1):]
            ext = _least_extension(sorted(tail), sorted(unused), sought_set)
            if ext is None:  # dead tail: retire it and rewind
                trash.append(tuple(sorted(tail)))
                del path[-(k - 1):]
                rewinds += 1
                if len(trash) >= m:
                    status = TRASH_FULL
                elif len(path) < k:
                    unused |= set(path)
                    path = []
                continue
            path.append(ext)
            unused.discard(ext)
            extensions += 1
        if len(path) >= m:
            status = PATH_FOUND

    return ProcedureState(
        status=status,
        path=tuple(path),
        trash=tuple(trash),
        seeds=seeds,
        extensions=extensions,
        rewinds=rewinds,
        steps=steps,
    )


def _least_extension(tail, free, edge_set) -> Optional[int]:
    """The least w in free with tail plus w, sorted, in edge_set; None if
    there is none.  tail and free are sorted and disjoint.  The tail's
    vertices split free into runs, and every w of one run takes the same
    place in the sorted edge, so each run is one pass of C-level lookups."""
    lo = 0
    for i, hi in enumerate([*(bisect_left(free, t) for t in tail), len(free)]):
        run = free[lo:hi]
        keys = zip(*map(repeat, tail[:i]), run, *map(repeat, tail[i:]))
        w = next(compress(run, map(edge_set.__contains__, keys)), None)
        if w is not None:
            return w
        lo = hi
    return None


# -- iterated procedure and red/blue accounting -----------------------------


@dataclass
class RoundRecord:
    status: str
    trash: tuple[tuple[int, ...], ...]
    a_set: tuple[int, ...]
    x: int
    y: int
    state: ProcedureState


@dataclass
class AccountingReport:
    sought_color: str
    t_sought: int  # edges of the sought color in the original host
    t_other: int
    t_k: int
    sum_x: int
    sum_y: int
    z_c: int
    c_set: tuple[int, ...]
    rounds: list[RoundRecord]
    found_path: Optional[tuple[int, ...]]
    verdict_sought_bound: Optional[bool]  # t_sought <= sum_y + z_c
    verdict_x_bound: bool  # sum_x <= k * t_other
    max_edge_x_count: int  # each edge should be x-counted at most k times
    trash_families_disjoint: bool
    round_cap: int
    round_cap_exceeded: bool


def vertex_hits(edges, k: int, marked, n: int) -> list[int]:
    """Per edge, how many of its k vertices lie in marked, summed column
    by column over the edge list."""
    if not edges:  # an edgeless host may carry any k; there is no column
        return []
    flag = [0] * n
    for v in marked:
        flag[v] = 1
    hits = [0] * len(edges)
    for i in range(k):
        hits = list(map(add, hits, map(flag.__getitem__, map(itemgetter(i), edges))))
    return hits


def iterated_procedure(
    h: KUniformHypergraph,
    coloring: EdgeColoring,
    color: str,
    m: int,
    round_cap: Optional[int] = None,
) -> AccountingReport:
    """Run the path-growing procedure round after round, stripping the
    sought-color edges through each full trash set, and collect the exact
    red/blue accounting.

    Terminates on NoSeed (normal), PathFound (a monochromatic tight path
    of order m exists) or when the round cap is exceeded, which is flagged
    as an anomaly rather than raised.
    """
    if m < 1:  # else a zero round cap reports an anomaly before any round
        raise ValueError("need m >= 1")
    k = h.k
    if round_cap is None:
        round_cap = 4 * k * m
    t_sought = coloring.colors.count(color)
    t_other = h.num_edges - t_sought

    # the current host as aligned edge and colour lists
    edges, colors = list(h.edges), list(coloring.colors)
    rounds: list[RoundRecord] = []
    x_counts: dict[tuple[int, ...], int] = {}
    sum_x = sum_y = z_c = 0
    c_final: tuple[int, ...] = ()
    found_path = None
    cap_exceeded = False

    while True:
        if len(rounds) >= round_cap:
            cap_exceeded = True
            break
        sought = list(compress(edges, map(eq, colors, repeat(color))))
        state = _grow_path(k, h.n, sought, m)

        if state.status == PATH_FOUND:
            found_path = state.path
            rounds.append(
                RoundRecord(state.status, state.trash, state.path, 0, 0, state)
            )
            break

        # count x and y, and drop the sought-color edges through the trash.
        # Only an edge with k - 1 trash vertices can hold a trash tuple.  The
        # tuples are disjoint, so for k > 2 an edge holds at most one; for
        # k = 2 the other vertex w is trash too.
        a_set = tuple(state.path)
        x = y = 0
        trash = set(state.trash)
        trash_vertices = set().union(*state.trash)
        inside = trash_vertices.union(a_set)
        hits = vertex_hits(edges, k, trash_vertices, h.n)
        keep = bytearray([1]) * len(edges)
        for i in compress(range(len(edges)), map(ge, hits, repeat(k - 1))):
            e = edges[i]
            member = next(
                (t for t in itertools.combinations(e, k - 1) if t in trash), None
            )
            if member is None:
                continue
            if colors[i] == color:
                keep[i] = 0
            (w,) = set(e) - set(member)
            if w in inside:
                y += 1
            else:
                x += 1
                x_counts[e] = x_counts.get(e, 0) + 1
        sum_x += x
        sum_y += y
        rounds.append(RoundRecord(state.status, state.trash, a_set, x, y, state))

        if state.status == NO_SEED:
            c_final = tuple(sorted(trash_vertices))
            z_c = h.num_edges - vertex_hits(h.edges, k, trash_vertices, h.n).count(0)
            break
        edges = list(compress(edges, keep))
        colors = list(compress(colors, keep))

    # the per-round families are pairwise disjoint iff no tuple repeats
    trash_tuples = [t for r in rounds for t in set(r.trash)]

    return AccountingReport(
        sought_color=color,
        t_sought=t_sought,
        t_other=t_other,
        t_k=h.num_edges,
        sum_x=sum_x,
        sum_y=sum_y,
        z_c=z_c,
        c_set=c_final,
        rounds=rounds,
        found_path=found_path,
        verdict_sought_bound=(
            None if found_path is not None or cap_exceeded
            else t_sought <= sum_y + z_c
        ),
        verdict_x_bound=sum_x <= k * t_other,
        max_edge_x_count=max(x_counts.values(), default=0),
        trash_families_disjoint=len(trash_tuples) == len(set(trash_tuples)),
        round_cap=round_cap,
        round_cap_exceeded=cap_exceeded,
    )
