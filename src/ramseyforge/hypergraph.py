"""Canonical k-uniform hypergraphs and two-colorings of their edge lists.

Vertices are dense integer indices 0..n-1.  Edges are stored sorted
ascending and the edge list is sorted lexicographically, so a coloring is
just an array aligned with the edge list and serialized artifacts are
reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import COPY_NODE_CAP, INDEPENDENCE_NODE_CAP, ISOMORPHISM_NODE_CAP, Budget

RED = "R"
BLUE = "B"
COLORS = (RED, BLUE)
# from_dict refuses larger vertex counts: every search here is desk-scale,
# and one vertex list per call would otherwise be a memory hazard
MAX_INPUT_VERTICES = 1 << 16


def opposite(color: str) -> str:
    return BLUE if color == RED else RED


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _well_formed(edges: tuple, k: int, n: int) -> bool:
    """The edge invariants as whole-list passes: tuples of length k, each
    strictly increasing inside range(n), the list strictly increasing."""
    try:
        if set(map(type, edges)) != {tuple} or set(map(len, edges)) != {k}:
            return False
        cols = [list(map(operator.itemgetter(i), edges)) for i in range(k)]
        return (
            all(all(map(operator.lt, a, b)) for a, b in zip(cols, cols[1:]))
            and min(cols[0]) >= 0
            and max(cols[-1]) < n
            and all(map(operator.lt, edges, itertools.islice(edges, 1, None)))
        )
    except TypeError:  # edges or vertices of other types; the edge loop decides
        return False


@dataclass(frozen=True)
class KUniformHypergraph:
    """A k-graph in canonical form.

    Invariants: every edge has exactly k distinct vertices below n; the
    edge list is strictly increasing lexicographically (no duplicates).
    k=2 gives ordinary graphs and runs through the same code paths.
    """

    k: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"uniformity k must be >= 2, got {self.k}")
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        # the whole-list passes cost about as much as 16 to 18 edges through
        # the loop, which also names the first edge that fails
        if len(self.edges) <= 16 or not _well_formed(self.edges, self.k, self.n):
            self._check_each_edge()

    def _check_each_edge(self) -> None:
        """The edge invariants one edge at a time; raises at the first break."""
        prev = None
        for e in self.edges:
            increasing = isinstance(e, tuple) and all(map(operator.lt, e, e[1:]))
            if len(e) != self.k or not increasing:
                raise ValueError(f"edge {e} is not a strictly increasing {self.k}-tuple")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError(f"edge {e} out of range for n={self.n}")
            if prev is not None and e <= prev:
                raise ValueError("edge list is not strictly increasing")
            prev = e

    @classmethod
    def from_edges(cls, k: int, n: int, edges: Iterable[Iterable[int]]) -> "KUniformHypergraph":
        """Canonicalize an arbitrary edge collection (sorts and deduplicates)."""
        canon = sorted({tuple(sorted(e)) for e in edges})
        return cls(k, n, tuple(canon))

    # -- basic queries ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_sets(self) -> tuple[frozenset, ...]:
        """The edges as frozensets, aligned with the edge list; built on first use."""
        return tuple(map(frozenset, self.edges))

    @cached_property
    def edge_index(self) -> dict[frozenset, int]:
        """Edge set -> position in the edge list, built on first use."""
        return {es: i for i, es in enumerate(self.edge_sets)}

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the vertices sharing an edge with it, ascending;
        built on first use."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for e in self.edges:
            for v in e:
                adj[v].update(e)
        return tuple(tuple(sorted(a - {v})) for v, a in enumerate(adj))

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the positions in the edge list of the edges through
        it, ascending; built on first use."""
        through: list[list[int]] = [[] for _ in range(self.n)]
        for j, e in enumerate(self.edges):
            for v in e:
                through[v].append(j)
        return tuple(map(tuple, through))

    def copy_core(
        self, node_cap: int = COPY_NODE_CAP
    ) -> tuple["KUniformHypergraph", tuple[tuple[int, int], ...]]:
        """(edge-covered core, orbit conditions of its copy search), built on
        first use and cached.  Each w in the orbit of v, from
        embedding.stabiliser_orbits on the core, gives the pair (v, w), read
        mapping[v] < mapping[w]: of the copy maps of one edge set, which
        differ by a core automorphism, only the first one the copy search
        yields meets every pair (Grochow and Kellis, RECOMB 2007).  node_cap
        bounds the orbit searches; past it, BudgetExceededError, caching nothing."""
        if "_copy_core" not in self.__dict__:
            from .embedding import _edge_core, stabiliser_orbits

            _, core = _edge_core(self)
            orbits = stabiliser_orbits(core, (), Budget(node_cap))
            less = tuple((v, w) for v, orbit, _ in orbits for w in orbit if w != v)
            self.__dict__["_copy_core"] = core, less
        return self.__dict__["_copy_core"]

    @cached_property
    def invariant(self) -> tuple:
        """(k, n, m, sorted stable refinement signatures), built on first use.

        Isomorphic hypergraphs have equal invariants, so it keys dedupe
        buckets; unequal invariants prove two hypergraphs non-isomorphic.
        """
        return (self.k, self.n, self.num_edges, tuple(sorted(_refined_colors(self))))

    def is_edge(self, vertices: Iterable[int]) -> bool:
        return frozenset(vertices) in self.edge_index

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return len(self.incident[v])

    def degrees(self) -> list[int]:
        d = [0] * self.n
        for e in self.edges:
            for v in e:
                d[v] += 1
        return d

    def set_degree(self, subset: Iterable[int]) -> int:
        """Number of edges containing the given set (1 <= |U| < k)."""
        u = frozenset(subset)
        if not 1 <= len(u) < self.k:
            raise ValueError(f"subset size must be in [1, {self.k - 1}], got {len(u)}")
        if any(v < 0 or v >= self.n for v in u):
            raise ValueError("subset members out of range")
        return sum(1 for es in self.edge_sets if u <= es)

    def min_nonzero_ell_degree(self, ell: int) -> Optional[int]:
        """Minimum set_degree over ell-subsets lying inside at least one edge.

        Returns None when the hypergraph has no edges.
        """
        if not 1 <= ell < self.k:
            raise ValueError(f"ell must be in [1, {self.k - 1}], got {ell}")
        if not self.edges:
            return None
        counts: dict[frozenset, int] = {}
        for e in self.edges:
            for u in itertools.combinations(e, ell):
                fu = frozenset(u)
                counts[fu] = counts.get(fu, 0) + 1
        return min(counts.values())

    def induced(self, subset: Iterable[int]) -> "KUniformHypergraph":
        """Induced sub-hypergraph on |S| vertices, re-indexed order-preservingly."""
        s = sorted(set(subset))
        if s and (s[0] < 0 or s[-1] >= self.n):
            raise ValueError("subset members out of range")
        rank = {v: i for i, v in enumerate(s)}
        ss = set(s)
        edges = [tuple(rank[v] for v in e) for e in self.edges if ss.issuperset(e)]
        return KUniformHypergraph.from_edges(self.k, len(s), edges)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {"k": self.k, "n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, data: dict) -> "KUniformHypergraph":
        """Inverse of to_dict; raises ValueError on mistyped fields."""
        if not isinstance(data, dict):
            raise ValueError("a hypergraph must be a JSON object")
        k, n, edges = data["k"], data["n"], data["edges"]
        if not (_is_int(k) and _is_int(n)):
            raise ValueError("k and n must be integers")
        if n > MAX_INPUT_VERTICES:
            raise ValueError(f"n={n} exceeds the limit of {MAX_INPUT_VERTICES} vertices")
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and all(_is_int(v) for v in e) for e in edges
        ):
            raise ValueError("edges must be a list of lists of integer vertices")
        return cls(k, n, tuple(tuple(e) for e in edges))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "KUniformHypergraph":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class EdgeColoring:
    """Total Red/Blue assignment over the host's canonical edge list."""

    host: KUniformHypergraph
    colors: tuple[str, ...]

    def __post_init__(self):
        if len(self.colors) != self.host.num_edges:
            raise ValueError("coloring length differs from host edge count")
        try:
            ok = set(COLORS).issuperset(self.colors)
        except TypeError:  # an unhashable colour is a bad colour too
            ok = False
        if not ok:
            raise ValueError(f"bad color {next(c for c in self.colors if c not in COLORS)!r}")

    def color_of(self, edge: Iterable[int]) -> str:
        key = frozenset(edge)
        try:
            return self.colors[self.host.edge_index[key]]
        except KeyError:
            raise ValueError(f"{sorted(key)} is not an edge of the host") from None

    def indices_of(self, color: str) -> list[int]:
        return [i for i, c in enumerate(self.colors) if c == color]

    def monochromatic_subgraph(self, color: str) -> KUniformHypergraph:
        edges = [e for e, c in zip(self.host.edges, self.colors) if c == color]
        return KUniformHypergraph(self.host.k, self.host.n, tuple(edges))

    def swapped(self) -> "EdgeColoring":
        return EdgeColoring(self.host, tuple(opposite(c) for c in self.colors))

    def to_list(self) -> list[str]:
        return list(self.colors)

    @classmethod
    def from_list(cls, host: KUniformHypergraph, colors: Iterable[str]) -> "EdgeColoring":
        return cls(host, tuple(colors))


# -- connectivity and independence number -------------------------------


def components(h: KUniformHypergraph) -> list[set[int]]:
    """The vertex sets of h's connected components, vertices joined through
    shared edges; an isolated vertex is a component of its own.  Breadth
    first, a whole frontier at a time."""
    parts = []
    rest = set(range(h.n))
    while rest:
        part, frontier = set(), {rest.pop()}
        while frontier:
            part |= frontier
            frontier = {w for v in frontier for w in h.neighbors[v]} - part
        rest -= part
        parts.append(part)
    return parts


def independence_number(h: KUniformHypergraph, node_cap: int = INDEPENDENCE_NODE_CAP) -> int:
    """Size of a largest vertex set spanning no edge (exact branch and bound).

    Sums the searches on the induced connected components of h (vertices
    joined through shared edges), all under one node budget.  Raises
    BudgetExceededError when the node cap is hit; callers should shrink
    the instance.  Intended for components of a few dozen vertices.
    """
    if h.n == 0:
        raise ValueError("independence number of an empty vertex set is undefined")
    budget = Budget(node_cap)
    return sum(_independence_search(h.induced(part), budget) for part in components(h))


def _independence_search(h: KUniformHypergraph, budget: Budget) -> int:
    """Branch and bound for independence_number, one node per budget unit.

    Depth-first on an explicit stack of (excluded, kept) vertex sets.  A
    node is pruned when keeping every vertex not excluded cannot beat the
    best set found.  Otherwise it branches on the first edge avoiding every
    excluded vertex: each of its vertices not yet kept is excluded in turn,
    with the earlier ones kept.  A node whose edges all meet the excluded
    set leaves an independent set.
    """
    edge_sets = h.edge_sets
    best = 0
    stack = [(frozenset(), frozenset())]
    while stack:
        excluded, kept = stack.pop()
        budget.spend()
        candidate = h.n - len(excluded)
        if candidate <= best:
            continue
        for es in edge_sets:
            if not es & excluded:
                break
        else:
            best = candidate
            continue
        children = []
        for v in sorted(es - kept):
            children.append((excluded | {v}, kept))
            kept = kept | {v}
        # all vertices of es kept -> infeasible, no child; least vertex on top
        stack.extend(reversed(children))
    return best


# -- isomorphism and automorphisms ---------------------------------------


def _refined_colors(h: KUniformHypergraph) -> tuple:
    """Iterated degree-style refinement; returns the stable per-vertex signatures.

    Each round replaces a vertex color by the rank of its signature
    (color, sorted multiset of incident edge color-profiles) until the
    partition stabilizes.  The signatures of that last round, as a
    multiset, are invariant under relabelling the vertices.
    """
    colors = [0] * h.n
    edges = h.edges
    while True:
        sigs = []
        for v, through in enumerate(h.incident):
            profiles = sorted(
                tuple(sorted(colors[w] for w in edges[j] if w != v)) for j in through
            )
            sigs.append((colors[v], tuple(profiles)))
        relabel = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new_colors = [relabel[sig] for sig in sigs]
        if new_colors == colors:
            return tuple(sigs)
        colors = new_colors


def find_isomorphism(
    h1: KUniformHypergraph, h2: KUniformHypergraph, node_cap: int = ISOMORPHISM_NODE_CAP
) -> Optional[dict[int, int]]:
    """Vertex bijection mapping edges onto edges, or None.

    Hypergraphs with different cached invariants (k, n, m and refinement
    signatures) are rejected without a search.  Otherwise the answer is
    the first copy of h1 in h2: with equal vertex and edge counts a copy
    is a bijection on both, so an isomorphism.  node_cap bounds the
    candidates the copy search tries.
    """
    if h1.invariant != h2.invariant:
        return None
    # imported here: embedding imports this module; most calls stop above
    from .embedding import find_copy

    copy = find_copy(h1, h2, node_cap=node_cap)
    return None if copy is None else copy.as_dict()


def are_isomorphic(h1: KUniformHypergraph, h2: KUniformHypergraph) -> bool:
    return find_isomorphism(h1, h2) is not None


def automorphism_count(
    h: KUniformHypergraph,
    fixed: Iterable[int] = (),
    node_cap: int = COPY_NODE_CAP,
) -> int:
    """Order of the automorphism group of h, or of the stabiliser of the
    vertices in fixed (e.g. a rooted construction's root).  Automorphisms
    permute the isolated vertices outside fixed freely, giving i! for i of
    them; on the edge-covered core, by orbit-stabiliser, the order is the
    product of the orbit sizes along embedding.stabiliser_orbits, so the
    group is never listed.  node_cap bounds its pinned copy searches together."""
    from .embedding import _edge_core, stabiliser_orbits

    fixed = set(fixed)
    if any(not 0 <= v < h.n for v in fixed):
        raise ValueError("fixed vertices out of range")
    covered, core = _edge_core(h)
    rank = {v: i for i, v in enumerate(covered)}
    pinned = {rank[v] for v in fixed & rank.keys()}
    orbits = stabiliser_orbits(core, pinned, Budget(node_cap))
    isolated = h.n - len(covered) - len(fixed - rank.keys())
    return math.factorial(isolated) * math.prod(len(orbit) for _, orbit, _ in orbits)
