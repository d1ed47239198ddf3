"""The copy search against a reference copy of its earlier kernel.

reference_copies is the earlier enumerate_copies, kept verbatim apart from
its plans: reference_copy_plan and reference_host_plan are the earlier
_copy_plan and _host_plan without their caches, built on the documented
vertex order of reference_pattern_order and an allowed-edge map of their
own, so that they share nothing with the kernel under test.  The kernel
must try the same candidates in the same order: the same maps or masks come
out, in the same order, and the budget counts the same candidates, reading
the same after each yield and raising at the same candidate.
"""

import bisect
import itertools
from typing import Collection, Iterator, Mapping, Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.constructions import clique, ell_path
from ramseyforge.embedding import enumerate_copies
from ramseyforge.errors import COPY_NODE_CAP, Budget, BudgetExceededError
from ramseyforge.hypergraph import BLUE, RED, EdgeColoring, KUniformHypergraph


def reference_pattern_order(pattern):
    """The documented rule, one max() per step: most contact with the placed
    vertices, then higher degree, then lower index."""
    deg = pattern.degrees()
    placed, remaining = [], set(range(pattern.n))
    contact = lambda u: sum(1 for e in pattern.edges if u in e for w in e if w in placed)
    while remaining:
        v = max(remaining, key=lambda u: (contact(u), deg[u], -u))
        placed.append(v)
        remaining.remove(v)
    return placed


def reference_copy_plan(pattern):
    order = reference_pattern_order(pattern)
    pos = {v: i for i, v in enumerate(order)}
    closing: list[list] = [[] for _ in range(pattern.n)]
    for e in pattern.edges:
        i = max(pos[v] for v in e)
        rest = tuple(v for v in e if v != order[i])
        closing[i].append(rest[0] if pattern.k == 2 else rest)
    anchor: list[Optional[int]] = []
    for i, u in enumerate(order):
        placed = [w for w in pattern.neighbors[u] if pos[w] < i]
        anchor.append(min(placed, key=pos.__getitem__) if placed else None)
    return order, pos, closing, anchor, pattern.degrees()


def reference_host_plan(host, coloring, color):
    link: list[dict] = [{} for _ in range(host.n)]
    for i, e in enumerate(host.edges):
        if color is not None and coloring.colors[i] != color:
            continue
        es, bit = frozenset(e), 1 << i
        for w in es:
            rest = es - {w}
            link[w][next(iter(rest)) if host.k == 2 else rest] = bit
    return link


def reference_copies(
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
    if pattern.k != host.k:
        raise ValueError("pattern and host must share the uniformity")
    if pattern.n > host.n:
        return
    budget = Budget(node_cap) if _budget is None else _budget
    link = reference_host_plan(host, coloring, color)
    order, pos, closing, anchor, pat_deg = reference_copy_plan(pattern)
    # below[i]: the pattern vertices whose images the image of order[i] must exceed
    below: list[list[int]] = [[] for _ in range(pattern.n)]
    # ceiling[i]: the highest image of order[i] that leaves a higher one per _less pair
    ceiling = [host.n - 1] * pattern.n
    for v, w in _less:
        below[pos[w]].append(v)
        ceiling[pos[v]] -= 1

    if pattern.n == 0:
        yield 0 if _masks else ()
        return
    pins = _pins or {}
    pair = pattern.k == 2
    mapping: dict[int, int] = {}
    image_of = mapping.__getitem__
    used: set[int] = set()
    # image[i]: the bits of the image edges closed before depth i
    image = [0] * (pattern.n + 1)
    adj = host.neighbors
    everyone = range(host.n)

    def candidates(i: int) -> Sequence[int]:
        """Host vertices order[i] may take, in increasing order: its pin, or
        the host neighbours of its anchor's image, or every host vertex;
        then only those between the floor and ceiling of its _less pairs."""
        u, a = order[i], anchor[i]
        if u in pins:
            near = (pins[u],)
        else:
            near = everyone if a is None else adj[mapping[a]]
        if below[i]:
            floor = max([mapping[v] for v in below[i]])
            near = near[bisect.bisect_right(near, floor):]
        if near and near[-1] > ceiling[i]:
            near = near[: bisect.bisect_right(near, ceiling[i])]
        return near

    # tried: candidates since the budget was last settled; room: how many
    # the budget had left then
    tried, room = 0, budget.cap - budget.used
    # depth-first search with an explicit stack: stack[i] holds the host
    # candidates still to try for order[i], in increasing index order
    stack = [iter(candidates(0))]
    while stack:
        i = len(stack) - 1
        u = order[i]
        if u in mapping:  # back at depth i: release its previous candidate
            used.discard(mapping.pop(u))
        need, closes = pat_deg[u], closing[i]
        for w in stack[i]:
            tried += 1
            if tried > room:
                budget.spend(tried)  # crosses the cap, so raises
            if w in used or len(link[w]) < need:
                continue
            link_w, bits = link[w], image[i]
            for rest in closes:
                bit = link_w.get(mapping[rest] if pair else frozenset(map(image_of, rest)))
                if bit is None:
                    break
                bits |= bit
            else:  # every edge closed here lands on an allowed host edge
                break
        else:
            stack.pop()
            continue
        mapping[u] = w
        used.add(w)
        image[i + 1] = bits
        if i + 1 < pattern.n:
            stack.append(iter(candidates(i + 1)))
            continue
        budget.spend(tried)
        yield bits if _masks else tuple(mapping[v] for v in range(pattern.n))
        tried, room = 0, budget.cap - budget.used
    budget.spend(tried)


def run(search, pattern, host, *args, cap=10**9, **kw):
    """(the trail, budget.used at the end, whether it raised); the trail
    pairs each item the search yielded with budget.used just after it."""
    budget = Budget(cap)
    out = []
    try:
        for item in search(pattern, host, *args, _budget=budget, **kw):
            out.append((item, budget.used))
    except BudgetExceededError:
        return out, budget.used, True
    return out, budget.used, False


def same_search(pattern, host, *args, **kw):
    """Both kernels on a fresh budget: the same trail, used and raise."""
    want = run(reference_copies, pattern, host, *args, **kw)
    assert run(enumerate_copies, pattern, host, *args, **kw) == want
    return want


def small_k_graphs(k, min_n, max_n, max_m):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.sampled_from(list(itertools.combinations(range(n), k))),
            max_size=max_m,
            unique=True,
        ).map(lambda es: KUniformHypergraph.from_edges(k, n, es))
    )


def instances(max_pattern_n=5, max_host_n=8):
    """(pattern, host, coloring) of uniformity 2 or 3."""
    def build(k):
        return st.tuples(
            small_k_graphs(k, k, max_pattern_n, 5),
            small_k_graphs(k, k, max_host_n, 14),
            st.randoms(use_true_random=False),
        ).map(lambda t: (t[0], t[1], EdgeColoring(
            t[1], tuple(t[2].choice((RED, BLUE)) for _ in t[1].edges))))
    return st.sampled_from((2, 3)).flatmap(build)


@settings(max_examples=120, deadline=None)
@given(instances(), st.booleans(), st.sampled_from((None, RED, BLUE)))
def test_same_maps_masks_and_count_as_the_reference(case, masks, color):
    pattern, host, coloring = case
    same_search(pattern, host, coloring if color else None, color, _masks=masks)


@settings(max_examples=120, deadline=None)
@given(instances(), st.booleans(), st.data())
def test_same_under_orbit_conditions_and_pins(case, masks, data):
    pattern, host, _ = case
    core, less = pattern.copy_core()
    same_search(core, host, _less=less, _masks=masks)
    if pattern.n <= host.n:
        pinned = data.draw(st.lists(st.integers(0, pattern.n - 1), unique=True, max_size=2))
        pins = {v: data.draw(st.integers(0, host.n - 1)) for v in pinned}
        same_search(pattern, host, _pins=pins, _masks=masks)
        core_pins = {v: x for v, x in pins.items() if v < core.n}
        same_search(core, host, _pins=core_pins, _less=less, _masks=masks)


@settings(max_examples=60, deadline=None)
@given(instances(max_pattern_n=4, max_host_n=7), st.booleans())
def test_same_raise_at_every_cap(case, masks):
    pattern, host, _ = case
    core, less = pattern.copy_core()
    for kw in ({}, {"_less": less}):
        g = core if kw else pattern
        full = run(reference_copies, g, host, _masks=masks, **kw)[1]
        for cap in range(min(full, 400) + 1):
            want = run(reference_copies, g, host, cap=cap, _masks=masks, **kw)
            assert run(enumerate_copies, g, host, cap=cap, _masks=masks, **kw) == want


def larger_instances():
    """Searches of a few thousand candidates or more, by name: (pattern,
    host, keywords); the plain P5 in K9 tries 28,881."""
    path, k9 = ell_path(2, 1, 5), clique(2, 9)
    coloring = EdgeColoring(k9, tuple(RED if (a + 2 * b) % 3 else BLUE for a, b in k9.edges))
    core, less = path.copy_core()
    cycle = KUniformHypergraph.from_edges(2, 5, [(i, (i + 1) % 5) for i in range(5)])
    c5_core, c5_less = cycle.copy_core()
    return {
        "plain": (path, k9, {}),
        "red": (path, k9, {"coloring": coloring, "color": RED}),
        "less": (core, k9, {"_less": less}),
        "c5-less": (c5_core, clique(2, 7), {"_less": c5_less}),
        "pins": (path, k9, {"_pins": {0: 4, 3: 7}}),
        "3-uniform": (ell_path(3, 1, 5), clique(3, 7), {}),
        "tight": (ell_path(3, 2, 5), clique(3, 7), {}),
    }


@pytest.mark.parametrize("masks", [False, True], ids=["maps", "masks"])
@pytest.mark.parametrize("name", sorted(larger_instances()))
def test_same_raise_at_every_cap_on_larger_searches(name, masks):
    pattern, host, kw = larger_instances()[name]
    coloring, color = kw.pop("coloring", None), kw.pop("color", None)
    out, full, raised = same_search(pattern, host, coloring, color, _masks=masks, **kw)
    assert out and not raised
    # every cap up to the full count on the smaller searches; on the larger
    # ones about 40 caps spread over it and the ten at its end
    step = 1 if full <= 1_000 else full // 40 + 1
    caps = sorted({*range(0, full + 1, step), *range(max(full - 10, 0), full + 1)})
    for cap in caps:
        want = run(reference_copies, pattern, host, coloring, color, cap=cap, _masks=masks, **kw)
        got = run(enumerate_copies, pattern, host, coloring, color, cap=cap, _masks=masks, **kw)
        assert got == want, cap
        assert got[2] == (cap < full)


@pytest.mark.parametrize("masks", [False, True], ids=["maps", "masks"])
def test_same_count_on_a_shared_budget(masks):
    # searches run one after another on one budget: each starts with the
    # room the ones before it left, and the one that crosses the cap raises
    # where it did before
    searches = larger_instances()
    names = ["plain", "red", "pins", "less"]

    def shared(search, cap):
        budget = Budget(cap)
        out = []
        try:
            for name in names:
                pattern, host, kw = searches[name]
                kw = dict(kw)
                coloring, color = kw.pop("coloring", None), kw.pop("color", None)
                found = search(pattern, host, coloring, color, _budget=budget,
                               _masks=masks, **kw)
                out.append([(item, budget.used) for item in found])
        except BudgetExceededError:
            return out, budget.used, True
        return out, budget.used, False

    whole = shared(reference_copies, 10**9)
    assert shared(enumerate_copies, 10**9) == whole
    # caps crossed in the last search, in the third, in the second, and at
    # the second's first candidate: "plain" tries 28,881, "red" 12,177 and
    # "pins" 545
    for cap in (whole[1] - 1, 41_358, 30_000, 28_881):
        assert shared(enumerate_copies, cap) == shared(reference_copies, cap), cap


def test_paused_mask_search_on_a_shared_budget():
    # a mask search paused at its first yield while a map search spends the
    # shared budget resumes with only the room that is left, and the cap is
    # crossed at the same candidate in either of them
    searches = larger_instances()

    def interleaved(search, cap):
        budget = Budget(cap)
        out = []
        try:
            pattern, host, kw = searches["plain"]
            paused = search(pattern, host, _budget=budget, _masks=True, **kw)
            out.append((next(paused), budget.used))
            pattern, host, kw = searches["pins"]
            out += [(item, budget.used) for item in search(pattern, host, _budget=budget, **kw)]
            out += [(item, budget.used) for item in paused]
        except BudgetExceededError:
            return out, budget.used, True
        return out, budget.used, False

    whole = interleaved(reference_copies, 10**9)
    assert interleaved(enumerate_copies, 10**9) == whole
    # the first mask comes after 11 candidates and "pins" tries 545: caps
    # crossed late and early in the resumed search, inside "pins", at its
    # first candidate and before the first mask
    for cap in (whole[1] - 1, 2_000, 300, 11, 10):
        assert interleaved(enumerate_copies, cap) == interleaved(reference_copies, cap), cap
