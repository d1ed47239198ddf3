"""Generators for the pattern and host hypergraphs used across the toolkit.

Everything here is a pure function of its parameters (plus a seed for the
randomized generators), so outputs are reproducible and safe to build in
parallel.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import ELL_TREE_NODE_CAP, Budget, ExhaustedPermutationsError, UnreachableOrderError
from .hypergraph import KUniformHypergraph, are_isomorphic

# overlap sequences random_ell_tree draws before UnreachableOrderError
_ELL_TREE_RETRIES = 200
# leaf orders gadget_family draws before ExhaustedPermutationsError
_GADGET_RETRIES = 2000


def ell_path(k: int, ell: int, n: int) -> KUniformHypergraph:
    """The ell-path on [n]: interval edges with consecutive overlap exactly ell.

    Edge i (1-based) is {(i-1)(k-ell), ..., (i-1)(k-ell)+k-1}; the edge
    count is (n-ell)/(k-ell).  ell=1 is the loose path, ell=k-1 the tight
    path.
    """
    if not 1 <= ell < k:
        raise ValueError(f"need 1 <= ell < k, got ell={ell}, k={k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}")
    if (n - ell) % (k - ell) != 0:
        raise ValueError(f"need n == ell (mod k-ell): n={n}, ell={ell}, k={k}")
    m = (n - ell) // (k - ell)
    edges = [tuple(range(i * (k - ell), i * (k - ell) + k)) for i in range(m)]
    return KUniformHypergraph(k, n, tuple(edges))


def clique(k: int, n: int) -> KUniformHypergraph:
    """Complete k-graph on n vertices: all n-choose-k edges."""
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    return KUniformHypergraph(k, n, tuple(itertools.combinations(range(n), k)))


def star_tree(k: int, n: int) -> KUniformHypergraph:
    """Star-like 1-tree: (n-1)/(2k-2) two-edge arms sharing a center vertex.

    Arm i contributes {v, w_1..w_{k-1}} and {w_{k-1}, w_k..w_{2k-2}} on
    fresh vertices; the center is vertex 0.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if (n - 1) % (2 * k - 2) != 0:
        raise ValueError(f"need (2k-2) | (n-1): n={n}, k={k}")
    arms = (n - 1) // (2 * k - 2)
    edges = []
    nxt = 1
    for _ in range(arms):
        w = list(range(nxt, nxt + 2 * k - 2))
        nxt += 2 * k - 2
        edges.append(tuple([0] + w[: k - 1]))
        edges.append(tuple(w[k - 2 : 2 * k - 2]))
    return KUniformHypergraph.from_edges(k, n, edges)


def random_ell_tree(k: int, ell: int, n: int, seed: int) -> KUniformHypergraph:
    """A random ell-tree of order exactly n, built edge by edge.

    Each new edge picks a uniformly random prior edge, a uniform overlap
    size s in [0, ell] (clamped so the remaining fresh vertices still fit
    n), an s-subset of that edge and k-s fresh vertices.  Both ell-tree
    conditions hold by construction.
    """
    if not 1 <= ell < k:
        raise ValueError(f"need 1 <= ell < k, got ell={ell}, k={k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}")
    rng = random.Random(seed)
    for _ in range(_ELL_TREE_RETRIES):
        edges = [tuple(range(k))]
        used = k
        while used < n:
            remaining = n - used
            # overlap s adds k-s fresh vertices; keep the target reachable
            sizes = [s for s in range(ell + 1) if k - s <= remaining]
            if not sizes:
                break
            s = rng.choice(sizes)
            base = rng.choice(edges)
            overlap = rng.sample(base, s) if s else []
            fresh = list(range(used, used + k - s))
            used += k - s
            edges.append(tuple(sorted(overlap + fresh)))
        if used == n:
            return KUniformHypergraph.from_edges(k, n, edges)
    raise UnreachableOrderError(
        f"no overlap sequence reached order {n} for k={k}, ell={ell}"
    )


def find_ell_tree_order(
    h: KUniformHypergraph, ell: int, node_cap: int = ELL_TREE_NODE_CAP
) -> Optional[list[int]]:
    """An edge ordering witnessing that h is an ell-tree, or None.

    Searches over orderings depth-first on an explicit stack (greedy-first
    tie order), one budget unit per prefix entered; whether a prefix can be
    extended depends only on the chosen edge set, so failed subsets are
    memoized.  An edge extends a prefix when it meets the covered vertices
    in at most ell of them, all inside one chosen edge: first the edges
    that meet them, most shared vertices first, then those that miss them,
    each group in index order.
    """
    if not 1 <= ell < h.k:
        raise ValueError(f"need 1 <= ell < k, got ell={ell}, k={h.k}")
    m = h.num_edges
    if m == 0:
        return []
    budget = Budget(node_cap)
    edge_sets, incident = h.edge_sets, h.incident
    failed: set[frozenset] = set()
    chosen: list[int] = []
    covered: set[int] = set()
    added: list[set[int]] = []  # the vertices each chosen edge added to covered
    through: list[list[int]] = [[] for _ in range(h.n)]  # chosen edges per vertex
    meet = [0] * m  # meet[i]: how many vertices of edge i are covered
    touching: set[int] = set()  # the edges not chosen that meet covered

    def choose(j: int) -> None:
        chosen.append(j)
        added.append(edge_sets[j] - covered)
        covered.update(added[-1])
        touching.discard(j)
        for v in edge_sets[j]:
            through[v].append(j)
        for v in added[-1]:
            for i in incident[v]:
                meet[i] += 1
                if i != j:
                    touching.add(i)

    def unchoose() -> None:
        j = chosen.pop()
        for v in added[-1]:
            for i in incident[v]:
                meet[i] -= 1
                if not meet[i]:
                    touching.discard(i)
        for v in edge_sets[j]:
            through[v].pop()
        covered.difference_update(added.pop())
        if meet[j]:
            touching.add(j)

    # depth-first search with an explicit stack: stack[d] holds the edges
    # still to try after the first d chosen ones.  The edges that miss
    # covered are listed lazily: when stack[d] is next read, the first d
    # chosen edges are back in place, and so is meet.
    stack: list[Iterator[int]] = [iter(range(m))]
    while stack:
        j = next(stack[-1], None)
        if j is None:  # every extension of chosen failed
            stack.pop()
            if chosen:
                failed.add(frozenset(chosen))
                unchoose()
            continue
        choose(j)
        budget.spend()
        if len(chosen) == m:
            return list(chosen)
        if frozenset(chosen) in failed:
            unchoose()
            continue
        near = []
        for i in touching:
            inter = edge_sets[i] & covered
            # a chosen edge holding inter passes through each of its vertices
            if meet[i] <= ell and any(inter <= edge_sets[c] for c in through[min(inter)]):
                near.append((-meet[i], i))
        # prefer high-overlap extensions: they constrain the future least
        apart = (i for i in range(m) if not meet[i])
        stack.append(itertools.chain([i for _, i in sorted(near)], apart))
    return None


def verify_ell_tree(h: KUniformHypergraph, ell: int) -> bool:
    """True iff some ordering of E(h) satisfies both ell-tree conditions."""
    return find_ell_tree_order(h, ell) is not None


def binary_three_tree(t: int) -> KUniformHypergraph:
    """Rooted binary 3-tree of depth t: each edge is {parent, both children}.

    Vertices are indexed level by level, root is index 0; |V| = 2^(t+1)-1
    and the leaves are the last 2^t indices.  The root edge is the unique
    edge containing the root.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    edges = []
    for v in range(2**t - 1):  # internal vertices
        edges.append((v, 2 * v + 1, 2 * v + 2))
    return KUniformHypergraph.from_edges(3, 2 ** (t + 1) - 1, edges)


def binary_tree_leaves(t: int) -> list[int]:
    return list(range(2**t - 1, 2 ** (t + 1) - 1))


@dataclass(frozen=True)
class GadgetSpec:
    """Depth of the binary 3-tree plus the leaf order carrying the tight path."""

    t: int
    leaf_permutation: tuple[int, ...]

    def __post_init__(self):
        if self.t < 2:
            raise ValueError("need t >= 2 so the leaf tight path has at least one edge")
        if sorted(self.leaf_permutation) != list(range(2**self.t)):
            raise ValueError("leaf_permutation must permute the leaf index set")


def gadget(spec: GadgetSpec) -> KUniformHypergraph:
    """Binary 3-tree plus a tight path laid along the permuted leaves."""
    tree = binary_three_tree(spec.t)
    leaves = binary_tree_leaves(spec.t)
    path_vertices = [leaves[i] for i in spec.leaf_permutation]
    path_edges = [
        tuple(sorted(path_vertices[i : i + 3])) for i in range(len(path_vertices) - 2)
    ]
    return KUniformHypergraph.from_edges(3, tree.n, list(tree.edges) + path_edges)


def random_gadget(t: int, rng: random.Random) -> KUniformHypergraph:
    """The gadget on a uniformly shuffled leaf order."""
    leaves = list(range(2**t)) if t >= 0 else []  # GadgetSpec rejects t < 2
    rng.shuffle(leaves)
    return gadget(GadgetSpec(t, tuple(leaves)))


def gadget_family(
    t: int, q: int, seed: int
) -> tuple[list[KUniformHypergraph], KUniformHypergraph]:
    """q pairwise non-isomorphic gadgets plus their disjoint union.

    Samples random leaf permutations and deduplicates by exact isomorphism
    against the members with the same invariant.
    """
    rng = random.Random(seed)
    members: list[KUniformHypergraph] = []
    buckets: dict[tuple, list[KUniformHypergraph]] = {}  # members by invariant
    tries = 0
    while len(members) < q:
        tries += 1
        if tries > _GADGET_RETRIES:
            raise ExhaustedPermutationsError(
                f"found only {len(members)} non-isomorphic gadgets for t={t}, wanted {q}"
            )
        g = random_gadget(t, rng)
        bucket = buckets.setdefault(g.invariant, [])
        if any(are_isomorphic(g, other) for other in bucket):
            continue
        bucket.append(g)
        members.append(g)
    return members, disjoint_union(members)


def disjoint_union(parts: list[KUniformHypergraph]) -> KUniformHypergraph:
    if not parts:
        raise ValueError("need at least one part")
    k = parts[0].k
    if any(p.k != k for p in parts):
        raise ValueError("all parts must share the uniformity")
    edges = []
    offset = 0
    for p in parts:
        for e in p.edges:
            edges.append(tuple(v + offset for v in e))
        offset += p.n
    return KUniformHypergraph.from_edges(k, offset, edges)


def blowup_path_host(
    g: KUniformHypergraph, k_target: int, ell: int
) -> KUniformHypergraph:
    """Lift a graph host to a k-graph: vertices become ell-tuples, each graph
    edge becomes one k-edge on the two tuples plus k-2*ell private vertices.

    Edge count is preserved, so monochromatic graph paths correspond to
    monochromatic ell-paths edge for edge.
    """
    if g.k != 2:
        raise ValueError("blowup input must be a graph (k=2)")
    if not 1 <= ell <= k_target // 2:
        raise ValueError(f"need 1 <= ell <= k/2, got ell={ell}, k={k_target}")
    tuples = [tuple(range(v * ell, (v + 1) * ell)) for v in range(g.n)]
    nxt = g.n * ell
    edges = []
    for v, w in g.edges:
        private = list(range(nxt, nxt + k_target - 2 * ell))
        nxt += k_target - 2 * ell
        edges.append(tuple(sorted(tuples[v] + tuples[w] + tuple(private))))
    return KUniformHypergraph.from_edges(k_target, nxt, edges)


@dataclass(frozen=True)
class SteinerParams:
    """Parameters for greedy partial Steiner packing S(t, k, N)."""

    t: int
    k: int
    N: int
    seed: int = 0

    def __post_init__(self):
        # t = k is the complete-hypergraph degenerate case
        if not 2 <= self.t <= self.k <= self.N:
            raise ValueError(f"need 2 <= t <= k <= N, got {self}")


@dataclass
class SteinerResult:
    hypergraph: KUniformHypergraph
    density: float  # |E| / (C(N,t)/C(k,t)), measured, not asserted


def greedy_partial_steiner(params: SteinerParams) -> SteinerResult:
    """Random greedy packing: accept a k-set iff it shares no t-subset with
    the edges accepted so far.  Linearity in t-subsets holds by construction;
    the achieved density is measured and reported, not guaranteed.
    """
    t, k, N = params.t, params.k, params.N
    if t == k:
        h = clique(k, N)
        return SteinerResult(h, 1.0)
    rng = random.Random(params.seed)
    candidates = list(itertools.combinations(range(N), k))
    rng.shuffle(candidates)
    used_t: set[tuple[int, ...]] = set()
    edges = []
    for e in candidates:
        subs = list(itertools.combinations(e, t))
        if any(s in used_t for s in subs):
            continue
        edges.append(e)
        used_t.update(subs)
    h = KUniformHypergraph.from_edges(k, N, edges)
    ceiling = math.comb(N, t) / math.comb(k, t)
    return SteinerResult(h, len(edges) / ceiling)


def clique_hypergraph(g: KUniformHypergraph, k: int) -> KUniformHypergraph:
    """k-graph on V(g) whose edges are exactly the k-cliques of the graph g."""
    return KUniformHypergraph(k, g.n, tuple(enumerate_cliques(g, k)))


def enumerate_cliques(g: KUniformHypergraph, size: int) -> list[tuple[int, ...]]:
    """All cliques of the given order in a graph, in lexicographic order, by
    ordered extension (Chiba and Nishizeki 1985)."""
    if g.k != 2:
        raise ValueError("clique enumeration needs a graph (k=2)")
    if size < 1:
        return []
    later: list[set[int]] = [set() for _ in range(g.n)]  # higher neighbours
    for v, w in g.edges:
        later[v].add(w)
    out: list[tuple[int, ...]] = []
    stack = [((), set(range(g.n)))]  # (clique, its common higher neighbours)
    while stack:
        cliq, common = stack.pop()
        if len(cliq) == size - 1:
            out.extend(cliq + (w,) for w in sorted(common))
        else:  # least vertex on top, so cliques come out in lexicographic order
            stack.extend((cliq + (w,), common & later[w]) for w in sorted(common, reverse=True))
    return out
