"""Copy detection, ell-degree peeling and the greedy ell-tree embedding.

Copies are not required to be induced: an injective vertex map is a copy
as soon as every pattern edge lands on a host edge (of the requested
color, when a filter is given).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass
from typing import Collection, Iterator, Mapping, Optional

from .constructions import find_ell_tree_order
from .errors import COPY_NODE_CAP, Budget
from .hypergraph import EdgeColoring, KUniformHypergraph


@dataclass(frozen=True)
class Embedding:
    """Injective vertex map from pattern to host; mapping[p] = host vertex."""

    mapping: tuple[int, ...]
    color_filter: Optional[str] = None

    def as_dict(self) -> dict[int, int]:
        return dict(enumerate(self.mapping))

    def image_edges(self, pattern: KUniformHypergraph) -> list[frozenset]:
        return [frozenset(self.mapping[v] for v in e) for e in pattern.edges]

    def is_valid(
        self,
        pattern: KUniformHypergraph,
        host: KUniformHypergraph,
        coloring: Optional[EdgeColoring] = None,
    ) -> bool:
        m = self.mapping
        if not (len(set(m)) == len(m) == pattern.n and all(0 <= x < host.n for x in m)):
            return False
        allowed = _allowed_edges(host, coloring, self.color_filter)
        return all(img in allowed for img in self.image_edges(pattern))


def _allowed_edges(
    host: KUniformHypergraph,
    coloring: Optional[EdgeColoring],
    color: Optional[str],
) -> dict[frozenset, int]:
    """The host edges a copy may use, each mapped to its bit 1 << index."""
    if color is None:
        return {es: 1 << i for es, i in host.edge_index.items()}
    if coloring is None:
        raise ValueError("a color filter requires a coloring")
    if coloring.host != host:
        raise ValueError("coloring host differs from the host searched")
    return {
        es: 1 << i
        for i, (es, c) in enumerate(zip(host.edge_sets, coloring.colors))
        if c == color
    }


def _pattern_order(pattern: KUniformHypergraph, deg: list[int]) -> list[int]:
    """Connectivity-first vertex order: each next vertex maximizes contact
    with the already placed ones (ties: higher degree deg, lower index)."""
    contact = [0] * pattern.n
    done = [False] * pattern.n
    # min-heap on (-contact, -degree, vertex); entries with a stale contact
    # are skipped when popped
    heap = [(0, -deg[v], v) for v in range(pattern.n)]
    heapq.heapify(heap)
    placed: list[int] = []
    while heap:
        c, _, v = heapq.heappop(heap)
        if done[v] or -c != contact[v]:
            continue
        done[v] = True
        placed.append(v)
        for j in pattern.incident[v]:
            for w in pattern.edges[j]:
                if not done[w]:
                    contact[w] += 1
                    heapq.heappush(heap, (-contact[w], -deg[w], w))
    return placed


def _copy_plan(pattern: KUniformHypergraph) -> tuple:
    """(order, depth, closing, anchor, need): the part of the copy search
    that depends on the pattern alone, indexed by depth, the position in
    order, and built on first use and cached on the pattern.  order is
    _pattern_order and depth its inverse, a list.  closing[i] holds, for
    each pattern edge whose last vertex in order is order[i], the depths of
    the edge's other vertices: the one depth itself when k = 2, else their
    tuple; their images are the keys the copy search looks up in the link
    of order[i]'s image (see _host_plan).  anchor[i] is the depth of the
    first placed pattern neighbour of order[i], if any, whose image the
    image of order[i] must share a host edge with.  need[i] is the degree
    of order[i], from the one degrees() pass the plan makes."""
    if "_copy_plan" not in pattern.__dict__:
        deg = pattern.degrees()
        order = _pattern_order(pattern, deg)
        depth = [0] * pattern.n
        for i, v in enumerate(order):
            depth[v] = i
        closing: list[list] = [[] for _ in range(pattern.n)]
        for e in pattern.edges:
            i = max(depth[v] for v in e)
            rest = tuple(depth[v] for v in e if depth[v] != i)
            closing[i].append(rest[0] if pattern.k == 2 else rest)
        anchor = [
            min([depth[w] for w in pattern.neighbors[u] if depth[w] < i], default=None)
            for i, u in enumerate(order)
        ]
        need = [deg[u] for u in order]
        pattern.__dict__["_copy_plan"] = order, depth, closing, anchor, need
    return pattern.__dict__["_copy_plan"]


def _host_plan(
    host: KUniformHypergraph,
    coloring: Optional[EdgeColoring],
    color: Optional[str],
) -> tuple[list[dict], list[int]]:
    """(link, degree): the link of each host vertex w, a dict that maps the
    other vertices of each allowed host edge through w to that edge's bit
    1 << index, and the allowed degree len(link[w]) of w.  A key is the one
    other vertex itself when k = 2, else the frozenset of the others.  The
    uncoloured plan is built on first use and cached on the host; a colour
    filter builds its own on each call, and raises ValueError for a
    coloring of another host."""
    if color is None and "_copy_host" in host.__dict__:
        return host.__dict__["_copy_host"]
    link: list[dict] = [{} for _ in range(host.n)]
    for es, bit in _allowed_edges(host, coloring, color).items():
        for w in es:
            rest = es - {w}
            link[w][next(iter(rest)) if host.k == 2 else rest] = bit
    plan = link, list(map(len, link))
    if color is None:
        host.__dict__["_copy_host"] = plan
    return plan


def enumerate_copies(
    pattern: KUniformHypergraph,
    host: KUniformHypergraph,
    coloring: Optional[EdgeColoring] = None,
    color: Optional[str] = None,
    node_cap: int = COPY_NODE_CAP,
    *,
    _pins: Optional[Mapping[int, int]] = None,
    _less: Collection[tuple[int, int]] = (),
    _budget: Optional[Budget] = None,
    _masks: bool = False,
) -> Iterator[tuple[int, ...] | int]:
    """Yield every injective copy of pattern in host as a mapping tuple.

    Deterministic order: candidates are tried in increasing vertex index
    along a fixed connectivity-first pattern order.  A pattern vertex with
    a placed neighbour tries only the host neighbours of that neighbour's
    image.  A candidate w of pattern vertex u is kept when it is unused,
    its allowed degree reaches u's, and the link of w holds the images of
    every edge that u closes (the plans of _copy_plan and _host_plan).
    The images are held by depth, img[i] for order[i], and the link keys of
    the edges a depth closes are built once per visit of that depth, not
    once per candidate.

    node_cap counts the candidates tried, one unit each, in map and mask
    mode alike.  The search counts them in a local int and settles the
    count with one budget.spend() before each yield, at exhaustion, and as
    soon as it passes the room the budget had left: after each yield the
    budget reads as with one spend() per candidate, and it raises at the
    same candidate.  The room is read again on each resume.

    Private keywords: _pins maps pattern vertices to the only host vertex
    each may take.  _less holds pairs (v, w), v placed before w in the
    pattern order, and keeps only the copies with mapping[v] < mapping[w]:
    w tries only candidates above the images of its pairs, and v only those
    that leave a higher host vertex for each of its pairs, so a violating
    subtree is never entered.  _budget, when given, is spent in place of a
    fresh Budget(node_cap), so that several searches share one cap.  _masks
    yields, in place of each mapping, the bitmask over host edge indices of
    its image edges, built up in the closing checks.
    """
    if pattern.k != host.k:
        raise ValueError("pattern and host must share the uniformity")
    if pattern.n > host.n:
        return
    budget = Budget(node_cap) if _budget is None else _budget
    link, degree = _host_plan(host, coloring, color)
    order, depth, closing, anchor, need = _copy_plan(pattern)
    n = pattern.n
    # below[i]: the depths whose images the image at depth i must exceed;
    # ceiling[i]: the highest image at depth i that leaves a higher one per
    # _less pair
    below: list[list[int]] = [[] for _ in range(n)]
    ceiling = [host.n - 1] * n
    for v, w in _less:
        below[depth[w]].append(depth[v])
        ceiling[depth[v]] -= 1
    if n == 0:
        yield 0 if _masks else ()
        return
    pinned: list[Optional[int]] = [None] * n
    for v, x in (_pins or {}).items():
        pinned[depth[v]] = x
    pair = pattern.k == 2
    last = n - 1
    img = [0] * n
    used = bytearray(host.n)
    # image[i]: the bits of the image edges closed before depth i
    image = [0] * (n + 1)
    adj = host.neighbors
    everyone = range(host.n)
    # todo[i]: the candidates of depth i still to try, in increasing order,
    # or None before depth i is entered; keys[i]: the link keys of the edges
    # depth i closes, set on entering it
    todo: list[Optional[Iterator[int]]] = [None] * n
    keys: list[list] = [[]] * n

    # tried: candidates since the budget was last settled; room: how many
    # the budget had left then
    tried, room = 0, budget.cap - budget.used
    i = 0
    while i >= 0:
        base = image[i]
        if todo[i] is None:
            # entering depth i: its pin, or the host neighbours of its
            # anchor's image, or every host vertex; then only those between
            # the floor and ceiling of its _less pairs
            a = anchor[i]
            if pinned[i] is not None:
                near = (pinned[i],)
            else:
                near = everyone if a is None else adj[img[a]]
            if below[i]:
                floor = max([img[d] for d in below[i]])
                near = near[bisect.bisect_right(near, floor):]
            if near and near[-1] > ceiling[i]:
                near = near[: bisect.bisect_right(near, ceiling[i])]
            if pair:
                keys[i] = [img[d] for d in closing[i]]
            else:
                keys[i] = [frozenset([img[d] for d in rest]) for rest in closing[i]]
            todo[i] = iter(near)
        need_i, keys_i = need[i], keys[i]
        for w in todo[i]:
            tried += 1
            if tried > room:
                budget.spend(tried)  # crosses the cap, so raises
            if used[w] or degree[w] < need_i:
                continue
            link_w, bits = link[w], base
            for key in keys_i:
                bit = link_w.get(key)
                if bit is None:
                    break
                bits |= bit
            else:  # every edge closed here lands on an allowed host edge
                break
        else:
            todo[i] = None
            i -= 1
            if i >= 0:
                used[img[i]] = 0  # back at depth i: release its candidate
            continue
        img[i] = w
        if i < last:
            used[w] = 1
            image[i + 1] = bits
            i += 1
            continue
        budget.spend(tried)
        yield bits if _masks else tuple(map(img.__getitem__, depth))
        tried, room = 0, budget.cap - budget.used
    budget.spend(tried)


def find_copy(
    pattern: KUniformHypergraph,
    host: KUniformHypergraph,
    coloring: Optional[EdgeColoring] = None,
    color: Optional[str] = None,
    node_cap: int = COPY_NODE_CAP,
) -> Optional[Embedding]:
    """First copy found, or None; deterministic given the inputs.

    The copy search runs on the edge-covered core; the isolated pattern
    vertices then take the least unused host vertices, in index order, as
    they would at the end of enumerate_copies(pattern, ...).
    """
    if pattern.n > host.n:
        return None
    covered, core = _edge_core(pattern)
    for core_map in enumerate_copies(core, host, coloring, color, node_cap):
        mapping = dict(zip(covered, core_map))
        used = set(core_map)
        spare = (w for w in range(host.n) if w not in used)
        full = [mapping[v] if v in mapping else next(spare) for v in range(pattern.n)]
        return Embedding(tuple(full), color)
    return None


def _edge_core(pattern: KUniformHypergraph) -> tuple[list[int], KUniformHypergraph]:
    """The edge-covered pattern vertices and the pattern induced on them; the
    isolated vertices close no edge, so any unused host vertices take them."""
    covered = sorted({v for e in pattern.edges for v in e})
    return covered, pattern if len(covered) == pattern.n else pattern.induced(covered)


def stabiliser_orbits(
    h: KUniformHypergraph, fixed: Collection[int], budget: Budget
) -> list[tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """(v, orbit of v, witnesses) for each vertex v of h outside fixed, in
    the copy search's order.  Each orbit, ascending, is taken under the
    stabiliser of fixed and of the earlier v.  A w of v's degree is in it
    iff w is v's twin, i.e. swapping v and w maps the edge set onto itself,
    or the copy search of h in itself, with those vertices pinned to
    themselves and v pinned to w, finds a copy.  witnesses holds, for each
    w != v of the orbit in turn, an automorphism of h taking v to w: the
    swap for a twin, else that copy.  Together they generate the
    stabiliser of fixed (Seress, Permutation Group Algorithms, 2003).  All
    the pinned searches spend the one budget; a twin takes none."""
    order, depth, _, _, need = _copy_plan(h)
    deg = [need[i] for i in depth]
    edges, edge_sets = h.edge_index, h.edge_sets
    pins = {v: v for v in fixed}
    orbits = []
    for v in order:
        if v in pins:
            continue
        witness = {}  # orbit member w != v -> its automorphism, by ascending w
        for w in range(h.n):
            if w == v or w in pins or deg[w] != deg[v]:
                continue
            # with equal degrees, the swap maps the edges through v and not
            # w onto those through w and not v as soon as it maps them into
            through = map(edge_sets.__getitem__, h.incident[v])
            if all(w in es or es - {v} | {w} in edges for es in through):
                swap = list(range(h.n))
                swap[v], swap[w] = w, v
                witness[w] = tuple(swap)
                continue
            auto = next(enumerate_copies(h, h, _pins={**pins, v: w}, _budget=budget), None)
            if auto is not None:
                witness[w] = auto
        orbits.append((v, tuple(sorted([v, *witness])), tuple(witness.values())))
        pins[v] = v
    return orbits


def copy_edge_masks(
    pattern: KUniformHypergraph,
    host: KUniformHypergraph,
    node_cap: int = COPY_NODE_CAP,
) -> list[int]:
    """Distinct bitmasks (over host edge indices) of the edge sets of all
    copies of pattern in host, in increasing order.

    A coloring contains a monochromatic copy iff one of these masks is
    monochromatic, which is what the arrow search checks at every node.
    Every mask has |E(pattern)| bits, since a vertex-injective map sends
    distinct edges to distinct edges, so no mask contains another.  The
    copy search meets the orbit conditions of pattern.copy_core, so it
    yields one map per copy and each mask comes out once.

    node_cap bounds the candidates of the copy search.  The orbit searches
    that build the conditions, on the pattern's first use only, are counted
    apart and bounded by node_cap too.
    """
    if pattern.n > host.n:
        return []
    core, less = pattern.copy_core(node_cap)
    return sorted(
        enumerate_copies(core, host, node_cap=node_cap, _less=less, _masks=True)
    )


@dataclass(frozen=True)
class PeelResult:
    hypergraph: KUniformHypergraph
    removed_edges: int


def peel_to_min_degree(
    h: KUniformHypergraph, ell: int, threshold: int
) -> PeelResult:
    """Delete edges through low-degree ell-sets until the minimum non-zero
    ell-degree reaches the threshold or no edges remain.

    Vertices are kept as isolates so indices stay stable.  The low ell-set
    chosen each round is the lexicographically least one; the result is
    independent of that choice but this makes runs reproducible.
    """
    if not 1 <= ell < h.k:
        raise ValueError(f"need 1 <= ell < k, got ell={ell}, k={h.k}")
    edges = list(h.edges)
    removed = 0
    while edges:
        counts: dict[tuple[int, ...], int] = {}
        for e in edges:
            for u in itertools.combinations(e, ell):
                counts[u] = counts.get(u, 0) + 1
        low = sorted(u for u, c in counts.items() if c < threshold)
        if not low:
            break
        target = set(low[0])
        before = len(edges)
        edges = [e for e in edges if not target.issubset(e)]
        removed += before - len(edges)
    return PeelResult(KUniformHypergraph.from_edges(h.k, h.n, edges), removed)


@dataclass(frozen=True)
class EmbedFailure:
    """Greedy embedding got stuck: no host edge meets the used set exactly
    in the attachment image."""

    blocking_set: tuple[int, ...]
    step: int


def greedy_tree_embed(
    tree: KUniformHypergraph,
    host: KUniformHypergraph,
    ell: int,
) -> Embedding | EmbedFailure:
    """Embed an ell-tree edge by edge into the host.

    For each new tree edge the attachment set U (its intersection with the
    already embedded part, |U| <= ell) must be hit exactly: we take the
    lexicographically least host edge f with f intersecting the used image
    precisely in the image of U.  Success is guaranteed when the host is
    linear in (ell+1)-tuples with min non-zero ell-degree >= |V(tree)|;
    otherwise a failure report carries the blocking attachment set.
    """
    if tree.k != host.k:
        raise ValueError("tree and host must share the uniformity")
    edge_order = find_ell_tree_order(tree, ell)
    if edge_order is None:
        raise ValueError(f"input is not an ell-tree for ell={ell}")

    mapping: dict[int, int] = {}
    used: set[int] = set()
    for step, idx in enumerate(edge_order):
        e = tree.edges[idx]
        attach = [v for v in e if v in mapping]
        if len(attach) > ell:
            raise ValueError("edge order violates the ell-tree overlap bound")
        u_img = {mapping[v] for v in attach}
        chosen = None
        for f in host.edges:
            fs = set(f)
            if fs & used == u_img and u_img <= fs:
                chosen = f
                break
        if chosen is None:
            return EmbedFailure(tuple(sorted(attach)), step)
        fresh_host = sorted(set(chosen) - u_img)
        fresh_tree = sorted(v for v in e if v not in mapping)
        for tv, hv in zip(fresh_tree, fresh_host):
            mapping[tv] = hv
        used.update(chosen)

    # isolated tree vertices (order n can exceed the edge span)
    spare = iter(sorted(set(range(host.n)) - used))
    full = []
    for v in range(tree.n):
        if v in mapping:
            full.append(mapping[v])
        else:
            try:
                full.append(next(spare))
            except StopIteration:
                return EmbedFailure((v,), tree.num_edges)
    emb = Embedding(tuple(full))
    if not emb.is_valid(tree, host):
        raise AssertionError("greedy embedding is not a valid copy")
    return emb
