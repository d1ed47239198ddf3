"""Exact arrow decisions and the adversarial coloring constructions.

arrows() decides H -> G as 2-colorability of the copy hypergraph: its
vertices are the host edges and its hyperedges the edge masks of the
copies of G, and H -> G holds iff no 2-coloring leaves every mask
bichromatic (Property B).  The search keeps its state bit-sliced over the
masks, the bitboard technique of San Segundo, Rodriguez-Losada and
Jimenez (Computers & OR 38, 2011): each covered edge has one int whose
bit j is set iff mask j contains it, each mask's count of uncolored edges
is held as binary digit ints, and one int per color marks the masks that
hold that color.  Coloring an edge updates every mask through it in a few
whole-int operations: a mask with all edges in one color is a conflict,
and a mask with no edge of the other color and one uncolored edge forces
that edge.  It branches on the edges in most masks first, fixes the first
one red (color-swap symmetry) and runs on an explicit stack.  Edges in no
copy stay red, and every NotArrows certificate is re-checked by the copy
search.

On a complete host K_n^(k) the search also uses the vertex symmetry, by
orbital branching (Ostrowski, Linderoth, Rossi and Smriglio, Math.
Programming 126, 2011).  Let S be the vertices of the colored edges.
Every permutation of the vertices that fixes S pointwise fixes each
colored edge and maps copies to copies, so the uncolored edges f with
f & S == e & S form one orbit of the edge e.  A node whose orbit has more
than one edge branches "e red" against "the whole orbit blue": a coloring
with some edge of the orbit red maps to one with e red.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .constructions import clique
from .errors import (
    ARROWS_NODE_CAP,
    COPY_NODE_CAP,
    Budget,
    BudgetExceededError,
    InvalidBaseColoringError,
)
from .hypergraph import (
    BLUE,
    RED,
    EdgeColoring,
    KUniformHypergraph,
    opposite,
)
from .embedding import copy_edge_masks, enumerate_copies, find_copy


class ArrowResult(enum.Enum):
    ARROWS = "Arrows"
    NOT_ARROWS = "NotArrows"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ArrowVerdict:
    result: ArrowResult
    certificate: Optional[EdgeColoring]  # verified mono-copy-free when NotArrows
    nodes: int


# masks per transpose chunk in _two_color: the chunk bounds the bin() text
# held at once; a call with at most this many masks takes one chunk
_CHUNK = 4096


def _two_color(
    masks: list[int], budget: Budget, edge_vertices: Sequence[int] = ()
) -> Optional[int]:
    """Blue edges of a coloring with no monochromatic mask, or None.

    Depth-first search over the edges that lie in some mask, on an
    explicit stack of pending decisions.  Edges are branched on in order
    of how many masks contain them, most first; the first one is fixed
    red (color-swap symmetry).  Each decision is propagated to a fixed
    point before the next edge is chosen.  budget.spend() runs once per
    decision node.

    Ties go in colex order of the edges' vertex sets on a complete host,
    which decides the edges inside the colored edges' vertices before a
    new vertex enters (K10 -> K2,3: 4,328 nodes, 9,914 in index order),
    and in index order elsewhere, where colex ties raised the counts (K9
    plus an isolated vertex -> C5: 4,263 nodes, 2,942 in index order).

    Propagation works on ints over the masks, bit j standing for
    masks[j]: by_edge[e] holds the masks through edge e, digit ints hold
    each mask's count of edges not yet propagated, and one int per color
    the masks with a propagated edge of that color.  Propagating e in
    color c subtracts by_edge[e] from the count and ORs it into c's int.
    Of the masks through e with no edge of the other color, one left at
    count 0 is a conflict, and one at count 1 has its last edge either
    uncolored (it is forced to the other color), queued in the other
    color (the mask is satisfied) or queued in c (a conflict).  A node's
    ints are never changed in place, so its children share them.

    edge_vertices, the vertex bitmask of every host edge, is given for a
    complete host only: then a node whose edge e has a vertex outside the
    colored edges' vertices S branches "e red" against "every edge f with
    f & S == e & S blue" (its orbit under the permutations fixing S).
    """
    span = max(masks, default=0).bit_length()
    if not span:
        return 0
    # transpose in C-level passes, _CHUNK masks at a time: each mask's size
    # (at most span) above its edges, as bin() text with a leading 1 for a
    # fixed width; reversed, each row reads from bit 0 up and the rows run
    # from the chunk's last mask to its first, so every (width + 3)-th
    # character from i on is column i: the chunk's masks through edge i, or
    # count digit i - span, shifted into place by the chunk's start
    width = span + span.bit_length()
    top = 1 << width
    by_edge = [0] * width
    for start in range(0, len(masks), _CHUNK):
        chunk = masks[start : start + _CHUNK]
        rows = "".join([bin(top | cm.bit_count() << span | cm) for cm in chunk])[::-1]
        by_edge = [
            column | int(rows[i :: width + 3], 2) << start
            for i, column in enumerate(by_edge)
        ]
    degree = list(map(int.bit_count, by_edge))
    tie = edge_vertices or range(span)
    order = sorted(
        filter(degree.__getitem__, range(span)), key=lambda e: (-degree[e], tie[e])
    )
    end = len(order)
    # a pending branch: the child's state [red edges, blue edges (queued
    # ones included), masks with a propagated red edge, masks with a
    # propagated blue edge, count digits from the lowest], the vertices of
    # the colored edges, the position in order of the edge branched on and
    # the queue of (edge, color) to propagate
    budget.spend()
    stack = [([1 << order[0], 0, 0, 0, *by_edge[span:]], 0, 0, [(order[0], 0)])]
    while stack:
        state, touched, pos, queue = stack.pop()
        while queue:
            edge, c = queue.pop()
            if edge_vertices:
                touched |= edge_vertices[edge]
            through = borrow = by_edge[edge]
            i = 4
            while borrow:
                state[i] = digit = state[i] ^ borrow
                borrow &= digit
                i += 1
            state[2 + c] |= through
            # x ^ x & y, not x & ~y: a negative int makes & several times slower
            live = through ^ through & state[3 - c]
            if not live:
                continue
            for digit in state[5:]:
                live ^= live & digit
            forced = live & state[4]
            if forced != live:
                break  # a mask with all its edges in color c
            while forced:
                cm = masks[forced.bit_length() - 1]
                last = cm & state[1 - c]
                if not last:
                    last = cm & ~state[c]
                    if not last:
                        break
                    state[1 - c] |= last
                    queue.append((last.bit_length() - 1, 1 - c))
                # every mask left with this last edge is settled with it
                forced ^= forced & by_edge[last.bit_length() - 1]
            if forced:
                break
        else:
            done = state[0] | state[1]
            while pos < end and done >> order[pos] & 1:
                pos += 1
            if pos == end:
                return state[1]
            budget.spend()
            edge = order[pos]
            blue = state[:]
            orbit = [(edge, 1)]
            if edge_vertices and edge_vertices[edge] & ~touched:
                # every edge meeting S as edge does is uncolored, at pos or later
                inside = edge_vertices[edge] & touched
                orbit = [
                    (f, 1) for f in order[pos:] if edge_vertices[f] & touched == inside
                ]
            for f, _ in orbit:
                blue[1] |= 1 << f
            stack.append((blue, touched, pos, orbit))
            state[0] |= 1 << edge
            stack.append((state, touched, pos, [(edge, 0)]))
    return None


def arrows(
    host: KUniformHypergraph,
    pattern: KUniformHypergraph,
    node_cap: int = ARROWS_NODE_CAP,
    copy_node_cap: int = COPY_NODE_CAP,
) -> ArrowVerdict:
    """Decide whether every 2-coloring of host contains a monochromatic
    copy of pattern; NotArrows comes with a verified certificate coloring.

    node_cap bounds the decision nodes: Budget.spend() runs once per
    decision node, that is each time the search picks an edge to branch
    on, the first edge (fixed red) included; colors forced by propagation
    cost nothing.  On a complete host the blue side of a node colors the
    edge's whole orbit (see the module docstring), so one node stands for
    every vertex relabelling of its colorings that fixes the colored
    edges.  copy_node_cap bounds each copy search, both the one
    that builds the masks and the two that verify a certificate; it also
    bounds, counted apart, the orbit searches that build the pattern's
    symmetry-breaking conditions on its first use (see copy_edge_masks).
    Either budget running out gives Unknown.
    """
    if host.k != pattern.k:
        raise ValueError("host and pattern must share the uniformity")
    budget = Budget(node_cap)
    try:
        masks = copy_edge_masks(pattern, host, copy_node_cap)
        if masks and masks[0] == 0:
            # edgeless pattern embeds regardless of colors
            return ArrowVerdict(ArrowResult.ARROWS, None, 0)
        edge_vertices = []
        if host.num_edges == comb(host.n, host.k):
            # complete: every vertex permutation maps copies to copies
            edge_vertices = [sum(1 << v for v in e) for e in host.edges]
        blue = _two_color(masks, budget, edge_vertices)
        if blue is None:
            return ArrowVerdict(ArrowResult.ARROWS, None, budget.used)
        # edges in no copy never decide anything; they stay red
        colors = tuple(BLUE if blue >> i & 1 else RED for i in range(host.num_edges))
        cert = EdgeColoring(host, colors)
        for color in (RED, BLUE):
            if find_copy(pattern, host, cert, color, copy_node_cap) is not None:
                raise AssertionError("certificate has a monochromatic copy")
    except BudgetExceededError:
        return ArrowVerdict(ArrowResult.UNKNOWN, None, budget.used)
    return ArrowVerdict(ArrowResult.NOT_ARROWS, cert, budget.used)


# -- degree-threshold coloring (star-like tree lower bound) ---------------


def degree_threshold_coloring(h: KUniformHypergraph, n: int) -> EdgeColoring:
    """Red iff every vertex of the edge has degree below (n-1)/(2k-2).

    The threshold is compared exactly as a rational, never as a float.
    """
    threshold = Fraction(n - 1, 2 * h.k - 2)
    deg = h.degrees()
    colors = tuple(
        RED if all(deg[v] < threshold for v in e) else BLUE for e in h.edges
    )
    return EdgeColoring(h, colors)


# -- pair contraction and the clique coloring lift ------------------------


@dataclass(frozen=True)
class ContractResult:
    hypergraph: KUniformHypergraph
    vertex_map: dict[int, int]  # old index -> new index (v is dropped)


def contract_pair(h: KUniformHypergraph, u: int, v: int) -> ContractResult:
    """The 3-graph on V(h) minus v: edges avoiding v are kept, edges through
    v (but not u) are rerouted through u, and edges containing both u and v
    are dropped (they would contract to 2-sets and neither rule branch
    produces them).
    """
    if h.k != 3:
        raise ValueError("pair contraction is defined for 3-graphs")
    if u == v or not (0 <= u < h.n and 0 <= v < h.n):
        raise ValueError("u and v must be distinct vertices of h")
    kept = {es for es in h.edge_sets if v not in es}
    rerouted = set()
    for es in h.edge_sets:
        if v in es and u not in es:
            candidate = frozenset((es - {v}) | {u})
            if candidate not in kept:
                rerouted.add(candidate)
    remaining = sorted(set(range(h.n)) - {v})
    vmap = {old: new for new, old in enumerate(remaining)}
    edges = [tuple(sorted(vmap[x] for x in es)) for es in kept | rerouted]
    return ContractResult(
        KUniformHypergraph.from_edges(3, h.n - 1, edges), vmap
    )


@dataclass(frozen=True)
class LiftPartition:
    """Greedy split of the co-neighborhood T of the contracted pair.

    Blocks are subsets of T of size >= n/4 whose induced link at u is
    monochromatic under the base coloring; the remainder holds what is
    left when no further block exists.  All vertex indices are in the
    original hypergraph's numbering.
    """

    t_set: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    block_colors: tuple[str, ...]
    remainder: tuple[int, ...]


@dataclass(frozen=True)
class LiftResult:
    coloring: EdgeColoring
    partition: LiftPartition
    warnings: tuple[str, ...]


def _link_color(
    base: EdgeColoring, hu: KUniformHypergraph, members: set[int]
) -> Optional[str]:
    """Common color of the edges inside members, RED when edgeless, None
    when the induced link is bichromatic."""
    seen = None
    for es, c in zip(hu.edge_sets, base.colors):
        if es <= members:
            if seen is None:
                seen = c
            elif seen != c:
                return None
    return seen if seen is not None else RED


def clique_lift_coloring(
    h: KUniformHypergraph,
    u: int,
    v: int,
    base: EdgeColoring,
    n: int,
) -> LiftResult:
    """Lift a coloring of the contracted 3-graph to the full hypergraph.

    Rules: edges avoiding v copy the base color; edges {v,x,y} take the
    base color of {u,x,y}; edges {u,v,x} take the opposite of x's block
    color, or red when x sits in the remainder.

    Raises InvalidBaseColoringError when the base already has a
    monochromatic complete 3-graph of order n (the lift's guarantee needs
    a mono-free base).  Warns, without refusing, when deg(u,v) is too
    large for the mono-freeness guarantee to apply.
    """
    contracted = contract_pair(h, u, v)
    hu, vmap = contracted.hypergraph, contracted.vertex_map
    if base.host != hu:
        raise ValueError("base coloring host differs from contract_pair(h, u, v)")

    pattern = clique(3, n)
    for color in (RED, BLUE):
        if find_copy(pattern, hu, base, color) is not None:
            raise InvalidBaseColoringError(
                f"base coloring has a monochromatic order-{n} clique"
            )

    warnings: list[str] = []
    t_set = sorted(w for w in range(h.n) if h.is_edge((u, v, w)))
    if len(t_set) > 16:
        raise ValueError(
            "co-neighborhood of (u, v) too large for exact block extraction"
        )
    if 32 * len(t_set) >= n * n:
        warnings.append(
            f"deg(u,v)={len(t_set)} is not below n^2/32; the mono-freeness "
            "guarantee does not apply"
        )

    # greedy block extraction: repeatedly the largest monochromatic-link
    # subset of size >= n/4, ties broken lexicographically
    min_block = -(-n // 4)  # ceil(n/4)
    remaining = list(t_set)
    blocks: list[tuple[int, ...]] = []
    block_colors: list[str] = []
    while len(remaining) >= min_block:
        found = None
        for size in range(len(remaining), min_block - 1, -1):
            for subset in itertools.combinations(remaining, size):
                members = {vmap[x] for x in subset} | {vmap[u]}
                c = _link_color(base, hu, members)
                if c is not None:
                    found = (subset, c)
                    break
            if found:
                break
        if not found:
            break
        subset, c = found
        blocks.append(subset)
        block_colors.append(c)
        taken = set(subset)
        remaining = [x for x in remaining if x not in taken]

    block_of = {}
    for i, blk in enumerate(blocks):
        for x in blk:
            block_of[x] = i

    colors = []
    for es in h.edge_sets:
        if v not in es:
            mapped = frozenset(vmap[x] for x in es)
            colors.append(base.color_of(mapped))
        elif u not in es:
            x, y = sorted(es - {v})
            mapped = frozenset((vmap[u], vmap[x], vmap[y]))
            colors.append(base.color_of(mapped))
        else:
            (x,) = es - {u, v}
            if x in block_of:
                colors.append(opposite(block_colors[block_of[x]]))
            else:
                colors.append(RED)  # rule for the remainder, fixed for determinism

    partition = LiftPartition(
        tuple(t_set),
        tuple(blocks),
        tuple(block_colors),
        tuple(remaining),
    )
    return LiftResult(EdgeColoring(h, tuple(colors)), partition, tuple(warnings))


# -- high/low degree coloring against a gadget family ---------------------


@dataclass(frozen=True)
class VhighVlowReport:
    v_high: tuple[int, ...]
    copy_counts: tuple[int, ...]
    selected_index: int
    root_edges: tuple[tuple[int, ...], ...]  # edges of h, original indices
    f_vertex_count: int


def vhigh_vlow_coloring(
    h: KUniformHypergraph,
    d: int,
    gadgets: list[KUniformHypergraph],
) -> tuple[EdgeColoring, VhighVlowReport]:
    """Blue = edges meeting the high-degree part plus the root edges of all
    low-part copies of the rarest gadget; red = everything else.

    Gadgets must be rooted at vertex 0 (as produced by the gadget
    constructor); a copy's root edge is the image of the unique gadget
    edge containing the root.  Copies are counted as distinct image edge
    sets: the copy search meets the orbit conditions of the gadget's
    copy_core, so it yields one map per edge set.
    """
    deg = h.degrees()
    v_high = tuple(sorted(x for x in range(h.n) if deg[x] >= d))
    v_low = sorted(set(range(h.n)) - set(v_high))
    h_low = h.induced(v_low)
    to_orig = {i: x for i, x in enumerate(v_low)}

    counts = []
    roots_per_gadget = []
    for g in gadgets:
        # the root is the least covered vertex, so vertex 0 of the core too
        core, less = g.copy_core()
        root = next(e for e in core.edges if 0 in e)
        maps = enumerate_copies(core, h_low, _less=less) if g.n <= h_low.n else ()
        count = 0
        roots: set[frozenset] = set()
        for mapping in maps:
            count += 1
            roots.add(frozenset(to_orig[mapping[x]] for x in root))
        counts.append(count)
        roots_per_gadget.append(roots)
    selected = min(range(len(gadgets)), key=lambda i: (counts[i], i))
    f_edges = roots_per_gadget[selected]

    high = set(v_high)
    colors = tuple(
        BLUE if (es & high or es in f_edges) else RED for es in h.edge_sets
    )
    report = VhighVlowReport(
        v_high=v_high,
        copy_counts=tuple(counts),
        selected_index=selected,
        root_edges=tuple(sorted(tuple(sorted(e)) for e in f_edges)),
        f_vertex_count=len({x for e in f_edges for x in e}),
    )
    return EdgeColoring(h, colors), report
