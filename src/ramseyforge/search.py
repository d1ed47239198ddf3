"""Small exact Ramsey numbers and size-Ramsey bounds with verified witnesses."""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .arrow import ArrowResult, arrows
from .constructions import (
    SteinerParams,
    blowup_path_host,
    clique,
    find_ell_tree_order,
    greedy_partial_steiner,
)
from .embedding import _edge_core, stabiliser_orbits
from .errors import ARROWS_NODE_CAP, COPY_NODE_CAP, EXACT_ECAP, EXACT_VCAP, MAX_HOST_EDGES
from .errors import Budget, BudgetExceededError, CapsTooSmallError
from .hypergraph import KUniformHypergraph, are_isomorphic, components


@dataclass
class SizeRamseyBound:
    lower: int
    upper: Optional[int]
    witness_host: Optional[KUniformHypergraph]
    methods: dict = field(default_factory=dict)  # host stream -> edge count
    caps: dict = field(default_factory=dict)  # recorded search caps, exact mode

    def __post_init__(self):
        if self.upper is not None and self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


def _cliques(k: int, start: int, max_edges: int) -> Iterator[KUniformHypergraph]:
    """K_start, K_start+1, ... while C(n, k) <= max_edges, read before K_n is built."""
    n = start
    while math.comb(n, k) <= max_edges:
        yield clique(k, n)
        n += 1


def _padded(host: KUniformHypergraph, n: int) -> KUniformHypergraph:
    """host with isolated vertices added up to n vertices.  H arrows G iff H
    arrows the core of G, its edge-covered part, and has at least n_G vertices."""
    return host if host.n >= n else KUniformHypergraph(host.k, n, host.edges)


def _below_floor(host: KUniformHypergraph, pattern: KUniformHypergraph) -> bool:
    """A host with fewer edges or vertices than the pattern holds no copy
    of it: copies are injective on every pattern vertex.  Nor does a host
    whose degrees, sorted descending, fall below the pattern's at some
    position: a copy maps the pattern's vertices to distinct host vertices
    of no smaller degree."""
    if host.num_edges < pattern.num_edges or host.n < pattern.n:
        return True
    wanted = sorted(pattern.degrees(), reverse=True)
    return any(h < p for h, p in zip(sorted(host.degrees(), reverse=True), wanted))


def _first_arrowing(
    hosts: Iterable[KUniformHypergraph], pattern: KUniformHypergraph, node_cap: int
) -> Optional[KUniformHypergraph]:
    """The first of hosts that arrows pattern, or None; hosts below the floor
    are skipped.  An Unknown verdict raises BudgetExceededError: that host
    might arrow, so no later host can be called the first."""
    for host in hosts:
        if _below_floor(host, pattern):
            continue
        verdict = arrows(host, pattern, node_cap)
        if verdict.result == ArrowResult.UNKNOWN:
            raise BudgetExceededError(
                f"arrow search budget of {node_cap} nodes exceeded on a host "
                f"with {host.n} vertices and {host.num_edges} edges"
            )
        if verdict.result == ArrowResult.ARROWS:
            return host
    return None


def ramsey_number_small(
    pattern: KUniformHypergraph, cap: int, node_cap: int = ARROWS_NODE_CAP
) -> Optional[int]:
    """Least N <= cap with complete-host arrowing, or None when no N <= cap
    arrows.  Raises BudgetExceededError when the budget runs out first."""
    if cap < 0:
        raise ValueError(f"the vertex cap must be non-negative, got cap={cap}")
    if not pattern.edges:
        # K_N holds the edgeless pattern iff N >= n_G, also when N < k
        return pattern.n if pattern.n <= cap else None
    ladder = (clique(pattern.k, n) for n in range(pattern.n, cap + 1))
    host = _first_arrowing(ladder, pattern, node_cap)
    return None if host is None else host.n


def _require_edges(pattern: KUniformHypergraph) -> None:
    # an edgeless pattern is arrowed by every host with enough vertices
    if not pattern.edges:
        raise ValueError("size-Ramsey bounds need a pattern with at least one edge")


def size_ramsey_upper(
    pattern: KUniformHypergraph,
    node_cap: int = ARROWS_NODE_CAP,
    max_host_edges: int = MAX_HOST_EDGES,
    seed: int = 0,
) -> SizeRamseyBound:
    """Best verified upper bound over four host streams.

    Each stream is a lazy generator of hosts for the pattern's core, taken
    in the order clique, blow-up, Steiner, random; methods names the
    streams that set the bound.  The arrow decision is exhaustive, so no
    host over max_host_edges is decided: the clique and blow-up ladders
    stop before they build one, the Steiner stream ends at its first (a
    packing on more vertices is seldom smaller), and random hosts are
    drawn within the cap.  A host with no fewer edges than the best so far
    is skipped, and every other distinct host above the floor is decided
    exactly once.  The witness gets the pattern's isolated vertices.  When
    no stream verifies, the bound carries the lower bound only.
    """
    _require_edges(pattern)
    if max_host_edges < 0:
        raise ValueError(f"the edge cap must be non-negative, got max_host_edges={max_host_edges}")
    lower = pattern.num_edges
    if lower > max_host_edges:
        # a host with fewer edges than the pattern holds no copy of it
        return SizeRamseyBound(lower, None, None)
    best: Optional[KUniformHypergraph] = None
    methods: dict = {}
    tried: set[KUniformHypergraph] = set()
    _, core = _edge_core(pattern)
    streams = (
        ("clique-host", _cliques(core.k, core.n, max_host_edges)),
        ("blowup-host", _blowup_hosts(core, max_host_edges)),
        ("steiner-host", _steiner_hosts(core, seed)),
        ("random-host", _random_hosts(core, max_host_edges, seed)),
    )
    for name, hosts in streams:
        for host in hosts:
            if host.num_edges > max_host_edges:
                break
            if best is not None and host.num_edges >= best.num_edges:
                continue
            if host in tried or _below_floor(host, core):
                continue
            tried.add(host)
            if arrows(host, core, node_cap).result == ArrowResult.ARROWS:
                methods[name] = host.num_edges
                best = host
    if best is None:
        return SizeRamseyBound(lower, None, None, methods=methods)
    return SizeRamseyBound(lower, best.num_edges, _padded(best, pattern.n), methods=methods)


def _detect_ell_path(pattern: KUniformHypergraph) -> Optional[int]:
    """ell <= k/2 such that pattern is isomorphic to the ell-path on its
    vertices, or None; the blow-up stream has no use for a larger ell.

    With ell <= k/2 an ell-path is a chain of edges: each edge meets only
    its neighbours along the chain, in exactly ell vertices, so no vertex
    lies in three edges, and the chain covers all m(k - ell) + ell vertices.
    The pattern is checked for that shape by walking it from an end edge.
    A single edge on k vertices is the 1-path."""
    k, m = pattern.k, pattern.num_edges
    if m < 2:
        return 1 if m == 1 and pattern.n == k else None
    # shared[a][b]: how many vertices edges a and b share, for edges that meet
    shared: list[dict[int, int]] = [{} for _ in range(m)]
    for through in pattern.incident:
        if len(through) > 2:
            return None
        if len(through) == 2:
            a, b = through
            shared[a][b] = shared[b][a] = shared[a].get(b, 0) + 1
    ell = next(iter(shared[0].values()), 0)
    if not 1 <= ell <= k // 2 or pattern.n != m * (k - ell) + ell:
        return None
    if any(len(meets) > 2 or set(meets.values()) != {ell} for meets in shared):
        return None
    ends = [a for a in range(m) if len(shared[a]) == 1]
    if len(ends) != 2:
        return None
    # walk the chain from one end; it is the whole pattern when it reaches
    # every edge
    prev, cur, seen = None, ends[0], 1
    while True:
        ahead = [b for b in shared[cur] if b != prev]
        if not ahead:
            break
        prev, cur, seen = cur, ahead[0], seen + 1
    return ell if seen == m else None


def _blowup_hosts(pattern: KUniformHypergraph, max_host_edges: int) -> Iterator[KUniformHypergraph]:
    # a graph's blow-up into graphs is the graph itself, a clique stream host
    ell = None if pattern.k == 2 else _detect_ell_path(pattern)
    if ell is None:
        return
    # the blow-up of K_n holds a monochromatic ell-path exactly when K_n holds
    # a monochromatic graph path with the same edge count, so walk the graph
    # path's Ramsey ladder; a blow-up keeps K_n's edge count
    for graph in _cliques(2, pattern.num_edges + 1, max_host_edges):
        yield blowup_path_host(graph, pattern.k, ell)


def _steiner_hosts(pattern: KUniformHypergraph, seed: int) -> Iterator[KUniformHypergraph]:
    k = pattern.k
    # ell <= k - 2: a packing with t = k is K_N^(k), a clique stream host
    for ell in range(1, k - 1):
        if find_ell_tree_order(pattern, ell) is None:
            continue
        for big_n in range(k, 3 * pattern.n + 2):
            yield greedy_partial_steiner(SteinerParams(ell + 1, k, big_n, seed)).hypergraph
        break  # smallest workable ell only


def _random_hosts(
    pattern: KUniformHypergraph, max_host_edges: int, seed: int
) -> Iterator[KUniformHypergraph]:
    """Twenty seeded draws of a host at or above the pattern's floor."""
    rng = random.Random(seed)
    k = pattern.k
    for _ in range(20):
        n = rng.randint(pattern.n, pattern.n + k + 2)
        m = rng.randint(pattern.num_edges, max_host_edges)
        total = math.comb(n, k)
        if m > total or total > sys.maxsize:  # len(range(total)) must fit
            continue
        # the draw of rng.sample over the listed k-subsets, without listing them
        picks = rng.sample(range(total), m)
        yield KUniformHypergraph.from_edges(k, n, [_kth_subset(n, k, i) for i in picks])


def _kth_subset(n: int, k: int, index: int) -> tuple[int, ...]:
    """The index-th k-subset of range(n) in lexicographic order.

    Read off the combinatorial number system: the complements n-1-v of the
    members, largest first, satisfy sum comb(c_j, j) = comb(n, k) - 1 - index.
    """
    rest = math.comb(n, k) - 1 - index
    out = []
    top = n
    for j in range(k, 0, -1):
        lo, hi = j - 1, top - 1  # largest c < top with comb(c, j) <= rest
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if math.comb(mid, j) <= rest:
                lo = mid
            else:
                hi = mid - 1
        rest -= math.comb(lo, j)
        out.append(n - 1 - lo)
        top = lo
    return tuple(out)


# -- exact tiny search over non-isomorphic hosts ---------------------------


def _orbit_firsts(
    n: int, size: int, autos: Sequence[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """The first size-subset of range(n), in combinations order, of each
    orbit of the group that the vertex permutations autos generate."""
    seen: set[tuple[int, ...]] = set()
    for first in itertools.combinations(range(n), size):
        if first in seen:
            continue
        yield first
        seen.add(first)
        stack = [first]
        while stack:
            part = stack.pop()
            for a in autos:
                image = tuple(sorted([a[v] for v in part]))
                if image not in seen:
                    seen.add(image)
                    stack.append(image)


def enumerate_hosts(
    k: int, max_edges: int, vcap: int, connected: bool = False
) -> Iterator[KUniformHypergraph]:
    """One k-graph per isomorphism class with 1..max_edges edges, no
    isolated vertices and at most vcap vertices, by increasing edge count;
    with connected set, the connected classes only.

    Level m grows each class representative of level m-1 by one absent
    edge, whose new vertices take the next free indices; a child is kept
    unless a kept child of its level with the same invariant is isomorphic
    to it.  Every class is reached: dropping an edge of a host, and the
    vertices that leaves isolated, gives a host of the level below.  The
    generator stops at the first level with no child.

    For connected classes every edge after the first takes at most k - 1
    new vertices, so it meets the host it grows.  Every connected class is
    still reached: dropping the last edge of a breadth-first edge order, in
    which each edge meets an earlier one, leaves a connected host.

    Old parts in one orbit of Aut(rep) give isomorphic children, so only
    the first of each orbit is tried (McKay, Isomorph-free exhaustive
    generation, J. Algorithms 26, 1998): a later one would find the first
    one's child, or the kept child that rejected it, already in its bucket.
    The orbits are taken under the witnesses of stabiliser_orbits(rep).
    """
    level = [KUniformHypergraph(k, 0, ())]
    for _ in range(max_edges):
        # kept children bucketed by invariant: only a bucket's members
        # can be isomorphic to a new child
        kept: dict[tuple, list[KUniformHypergraph]] = {}
        next_level = []
        for rep in level:
            chain = stabiliser_orbits(rep, (), Budget(COPY_NODE_CAP))
            autos = [a for _, _, witnesses in chain for a in witnesses]
            most_fresh = k - 1 if connected and rep.edges else k
            for fresh in range(min(most_fresh, vcap - rep.n) + 1):
                new_part = tuple(range(rep.n, rep.n + fresh))
                for old_part in _orbit_firsts(rep.n, k - fresh, autos):
                    e = old_part + new_part
                    if e in rep.edges:
                        continue
                    child = KUniformHypergraph(
                        k, rep.n + fresh, tuple(sorted(rep.edges + (e,)))
                    )
                    bucket = kept.setdefault(child.invariant, [])
                    if any(are_isomorphic(child, other) for other in bucket):
                        continue
                    bucket.append(child)
                    next_level.append(child)
                    yield child
        if not next_level:
            return
        level = next_level


def size_ramsey_exact_tiny(
    pattern: KUniformHypergraph,
    vcap: int = EXACT_VCAP,
    ecap: int = EXACT_ECAP,
    node_cap: int = ARROWS_NODE_CAP,
) -> SizeRamseyBound:
    """Exact size-Ramsey number under the stated host caps.

    Scans hosts by increasing edge count and returns the first count that
    admits a host arrowing the pattern's core; the witness then gets the
    pattern's isolated vertices, within vcap since n_G <= vcap.  Hosts
    below the floor (too few edges or vertices, or sorted degrees below
    the core's) are skipped undecided.  The caps ride along in the result
    so callers cannot overclaim exactness.  An Unknown verdict on any host
    raises BudgetExceededError: that host might arrow, so no count is exact.

    A connected core gets connected hosts only.  If H arrows a connected G,
    some component of H does: good colourings of the components would
    together colour H with no monochromatic copy, since each copy lies in
    one component.  So every arrowing host with the fewest edges is
    connected (Erdős, Faudree, Rousseau and Schelp, The size Ramsey number,
    1978).  A disconnected core keeps the full scan: r̂(2K2) = 3, by 3K2.
    """
    _require_edges(pattern)
    if vcap < 0 or ecap < 0:
        raise ValueError(f"caps must be non-negative, got vcap={vcap}, ecap={ecap}")
    if pattern.n > vcap:
        raise CapsTooSmallError(f"the pattern has more than vcap={vcap} vertices")
    _, core = _edge_core(pattern)
    connected = len(components(core)) == 1
    host = _first_arrowing(enumerate_hosts(pattern.k, ecap, vcap, connected), core, node_cap)
    if host is None:
        raise CapsTooSmallError(f"no arrowing host with <= {ecap} edges on <= {vcap} vertices")
    m = host.num_edges
    return SizeRamseyBound(m, m, _padded(host, pattern.n), caps={"vcap": vcap, "ecap": ecap})
