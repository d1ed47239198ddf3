import itertools
import math
import sys
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.constructions import (
    GadgetSpec,
    SteinerParams,
    binary_three_tree,
    binary_tree_leaves,
    blowup_path_host,
    clique,
    clique_hypergraph,
    disjoint_union,
    ell_path,
    enumerate_cliques,
    find_ell_tree_order,
    gadget,
    gadget_family,
    greedy_partial_steiner,
    random_ell_tree,
    star_tree,
    verify_ell_tree,
)
from ramseyforge.errors import UnreachableOrderError
from ramseyforge.hypergraph import KUniformHypergraph, are_isomorphic
from ramseyforge.randomlab import GnpParams, gnp


def test_ell_path_interval_formula():
    # edge i spans [(i-1)(k-l), (i-1)(k-l)+k-1] for every feasible (k,l,n)
    for k in range(2, 6):
        for ell in range(1, k):
            step = k - ell
            for m in range(1, 8):
                n = ell + m * step
                if n > 20:
                    continue
                h = ell_path(k, ell, n)
                assert h.num_edges == m == (n - ell) // step
                for i, e in enumerate(h.edges):
                    assert e == tuple(range(i * step, i * step + k))
                # consecutive overlap exactly ell, others smaller
                for i in range(m - 1):
                    assert len(set(h.edges[i]) & set(h.edges[i + 1])) == ell


def test_ell_path_rejects_bad_order():
    with pytest.raises(ValueError):
        ell_path(4, 2, 9)  # (9-2) % (4-2) = 1
    with pytest.raises(ValueError):
        ell_path(3, 1, 6)  # (6-1) % 2 = 1
    with pytest.raises(ValueError):
        ell_path(3, 2, 2)  # below one edge


def test_tight_and_loose_special_cases():
    tight = ell_path(3, 2, 6)
    assert tight.edges == ((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5))
    loose = ell_path(3, 1, 7)
    assert loose.edges == ((0, 1, 2), (2, 3, 4), (4, 5, 6))


def test_clique_counts():
    h = clique(3, 5)
    assert h.num_edges == math.comb(5, 3)
    g = clique(2, 4)
    assert g.num_edges == 6


def test_star_tree_structure():
    # (n-1)/(2k-2) arms of two edges each, all arms meeting only at the center
    h = star_tree(3, 9)
    assert h.n == 9 and h.num_edges == 4
    assert h.degree(0) == 2  # center lies in one edge per arm
    assert verify_ell_tree(h, 1)
    with pytest.raises(ValueError):
        star_tree(3, 8)  # (8-1) % 4 != 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.integers(0, k - 1).flatmap(
                lambda ell: st.tuples(st.just(max(ell, 1)), st.integers(1, 5))
            ),
        )
    ),
    st.integers(0, 10**6),
)
def test_random_ell_tree_verifies(params, seed):
    k, (ell, m) = params
    n = k + (m - 1) * 1  # at least this many vertices are reachable; use formula
    # order grows by k - overlap each step; max order = k + (m-1)k, pick middle
    n = k + (m - 1) * (k - ell)
    try:
        t = random_ell_tree(k, ell, n, seed)
    except UnreachableOrderError:
        return
    assert t.n == n
    assert verify_ell_tree(t, ell)
    assert find_ell_tree_order(t, ell) is not None


def test_ell_tree_order_depth_is_bounded_by_the_budget(shallow_stack):
    # leaves are stripped in a loop over a heap, so no frame is taken per
    # edge and 100 frames of stack order a 300-edge path
    order = find_ell_tree_order(ell_path(3, 1, 601), 1)
    assert sorted(order) == list(range(300))


def _old_ell_tree_order(h, ell):
    """find_ell_tree_order as it was when every node rescanned every edge
    and every chosen edge: (order or None, prefixes entered)."""
    m = h.num_edges
    if m == 0:
        return [], 0
    nodes = 0
    edge_sets = h.edge_sets
    failed, chosen, covered, added = set(), [], set(), []
    stack = [iter(range(m))]
    while stack:
        j = next(stack[-1], None)
        if j is None:
            stack.pop()
            if chosen:
                failed.add(frozenset(chosen))
                covered -= added.pop()
                chosen.pop()
            continue
        chosen.append(j)
        added.append(edge_sets[j] - covered)
        covered |= added[-1]
        nodes += 1
        if len(chosen) == m:
            return list(chosen), nodes
        key = frozenset(chosen)
        if key in failed:
            covered -= added.pop()
            chosen.pop()
            continue
        candidates = []
        for i in range(m):
            if i in key:
                continue
            inter = edge_sets[i] & covered
            if len(inter) <= ell and any(inter <= edge_sets[c] for c in chosen):
                candidates.append((-len(inter), i))
        stack.append(iter([i for _, i in sorted(candidates)]))
    return None, nodes


def _is_ell_tree_order(h, ell, order):
    """order lists every edge once, and each edge meets the union of the
    earlier ones in at most ell vertices, all inside one earlier edge."""
    if sorted(order) != list(range(h.num_edges)):
        return False
    covered = set()
    for i, j in enumerate(order):
        inter = h.edge_sets[j] & covered
        if i and (len(inter) > ell or not any(inter <= h.edge_sets[c] for c in order[:i])):
            return False
        covered |= h.edge_sets[j]
    return True


def _relabelled_ell_tree(data):
    """(k, ell, n, edges): a random ell-tree of at most seven edges, its
    vertices relabelled, or None when the generator misses its order."""
    k = data.draw(st.integers(2, 4))
    ell = data.draw(st.integers(1, k - 1))
    # each edge after the first adds at least k - ell vertices, so at most
    # seven edges: a failing reference search enters at most every subset
    n = data.draw(st.integers(k, k + 6 * (k - ell)))
    try:
        tree = random_ell_tree(k, ell, n, data.draw(st.integers(0, 10**6)))
    except UnreachableOrderError:
        return None
    perm = data.draw(st.permutations(range(n)))
    return k, ell, n, {tuple(sorted(perm[v] for v in e)) for e in tree.edges}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ell_tree_order_matches_the_full_rescan(data):
    # relabelled random ell-trees, some with one more edge, checked at every
    # ell: the same decision as the exhaustive search, and a valid order
    drawn = _relabelled_ell_tree(data)
    if drawn is None:
        return
    k, _, n, edges = drawn
    edges |= set(data.draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=k, max_size=k).map(lambda e: tuple(sorted(e))),
        max_size=1,
    )))
    h = KUniformHypergraph.from_edges(k, n, edges)
    for each in range(1, k):
        order = find_ell_tree_order(h, each)
        assert (order is None) == (_old_ell_tree_order(h, each)[0] is None)
        assert order is None or _is_ell_tree_order(h, each, order)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dropping_any_leaf_of_an_ell_tree_leaves_an_ell_tree(data):
    # the lemma that makes leaf stripping exact, checked by the exhaustive
    # search: a leaf meets the union of the other edges in at most ell
    # vertices, all inside one other edge
    drawn = _relabelled_ell_tree(data)
    if drawn is None:
        return
    k, ell, n, edges = drawn
    edges = sorted(edges)
    for f in edges:
        rest = [e for e in edges if e != f]
        inter = set(f) & set().union(*rest)
        if len(inter) <= ell and any(inter <= set(e) for e in rest):
            h = KUniformHypergraph.from_edges(k, n, rest)
            order = _old_ell_tree_order(h, ell)[0]
            assert order is not None and _is_ell_tree_order(h, ell, order)


def test_ell_tree_order_of_an_edgeless_hypergraph_is_empty():
    assert find_ell_tree_order(KUniformHypergraph.from_edges(3, 5, []), 1) == []


@pytest.mark.parametrize("k, ell, n, extra", [(3, 1, 81, (0, 40, 80)), (3, 2, 42, (0, 20, 41))])
def test_long_path_plus_a_chord_is_rejected_at_once(k, ell, n, extra):
    # a 40-edge path closed into a cycle by one chord: a search over edge
    # orders refutes more than 2,000,000 prefixes before it gives up
    h = KUniformHypergraph.from_edges(k, n, list(ell_path(k, ell, n).edges) + [extra])
    start = time.perf_counter()
    assert find_ell_tree_order(h, ell) is None
    assert time.perf_counter() - start < 1.0


def _nested_codes(code):
    """code and every function or generator expression compiled inside it."""
    codes = {code}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            codes |= _nested_codes(const)
    return codes


def test_ell_tree_order_work_grows_with_the_frontier_only():
    # stripping an edge queues again only the edges meeting it, and a leaf
    # test looks up the edge holding the shared vertices through one of
    # their rows, so the 1,200-edge loose path runs about 43 trace events
    # per edge (51,599 in all)
    codes, events = _nested_codes(find_ell_tree_order.__code__), [0]

    def count(frame, event, arg):
        events[0] += 1
        if events[0] > 150_000:
            raise AssertionError("find_ell_tree_order ran more than 150,000 trace events")
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code in codes else None)
    try:
        order = find_ell_tree_order(ell_path(3, 1, 2401), 1)
    finally:
        sys.settrace(previous)
    assert order == list(range(1200))


def test_ell_tree_order_node_count_is_pinned():
    h = KUniformHypergraph.from_edges(3, 9, [
        (0, 1, 7), (0, 5, 6), (1, 3, 7), (1, 4, 6), (2, 5, 6), (4, 5, 6), (5, 6, 8)
    ])
    assert find_ell_tree_order(h, 2) is None


def test_ell_paths_are_ell_trees():
    for k, ell, n in [(3, 1, 9), (3, 2, 7), (4, 2, 10), (5, 4, 9)]:
        assert verify_ell_tree(ell_path(k, ell, n), ell)


def test_verify_rejects_non_tree():
    k4 = clique(3, 4)
    assert not verify_ell_tree(k4, 1)
    assert not verify_ell_tree(k4, 2)


def test_binary_three_tree():
    for t in range(1, 4):
        b = binary_three_tree(t)
        assert b.n == 2 ** (t + 1) - 1
        assert b.num_edges == 2**t - 1
        assert [e for e in b.edges if 0 in e] == [(0, 1, 2)]
        leaves = binary_tree_leaves(t)
        assert len(leaves) == 2**t
        assert all(b.degree(v) == 1 for v in leaves)
        assert verify_ell_tree(b, 1)


def test_gadget_shape():
    spec = GadgetSpec(2, (2, 0, 3, 1))
    g = gadget(spec)
    b = binary_three_tree(2)
    assert g.n == b.n
    # tree edges plus a tight path over the 4 leaves (2 extra edges)
    assert g.num_edges == b.num_edges + 2
    with pytest.raises(ValueError):
        GadgetSpec(2, (0, 1, 2))  # wrong length
    with pytest.raises(ValueError):
        GadgetSpec(2, (0, 1, 2, 2))  # not a permutation


def test_gadget_family_distinct_members():
    members, union = gadget_family(3, 2, seed=0)
    assert len(members) == 2
    assert not are_isomorphic(members[0], members[1])
    assert union.n == sum(m.n for m in members)
    assert union.num_edges == sum(m.num_edges for m in members)
    # max degree 4: root of the leaf path inside the tree
    assert all(max(m.degrees()) == 4 for m in members)


def test_disjoint_union_offsets():
    a = KUniformHypergraph.from_edges(3, 3, [(0, 1, 2)])
    u = disjoint_union([a, a])
    assert u.n == 6 and u.edges == ((0, 1, 2), (3, 4, 5))


def test_greedy_partial_steiner_linear():
    for t, k, n in [(2, 3, 15), (3, 4, 20)]:
        res = greedy_partial_steiner(SteinerParams(t, k, n, seed=0))
        h = res.hypergraph
        seen = set()
        for e in h.edges:
            for sub in itertools.combinations(e, t):
                assert sub not in seen
                seen.add(sub)
        assert 0 < res.density <= 1


def test_steiner_t_equals_k_is_complete():
    res = greedy_partial_steiner(SteinerParams(3, 3, 6, seed=1))
    assert res.hypergraph.num_edges == math.comb(6, 3)
    assert res.density == 1


def test_steiner_determinism():
    a = greedy_partial_steiner(SteinerParams(2, 3, 12, seed=5))
    b = greedy_partial_steiner(SteinerParams(2, 3, 12, seed=5))
    assert a.hypergraph == b.hypergraph


def test_blowup_path_host():
    # triangle blown up to k=4, l=2: every graph edge becomes one 4-edge
    g = clique(2, 3)
    h = blowup_path_host(g, 4, 2)
    assert h.k == 4
    assert h.num_edges == g.num_edges
    # vertex count: 2 per graph vertex plus (k-2l)=0 private per edge
    assert h.n == 2 * g.n
    # a graph path with m edges lifts to an ell-path with m edges
    p = blowup_path_host(ell_path(2, 1, 4), 4, 2)
    assert are_isomorphic(p, ell_path(4, 2, 8))


def test_clique_hypergraph_and_enumeration():
    g = clique(2, 5)
    ch = clique_hypergraph(g, 3)
    assert ch.num_edges == math.comb(5, 3)
    # C5 has no triangles
    c5 = KUniformHypergraph.from_edges(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert clique_hypergraph(c5, 3).num_edges == 0
    assert len(enumerate_cliques(g, 4)) == math.comb(5, 4)
    with pytest.raises(ValueError):  # the input must be a graph
        clique_hypergraph(clique(3, 5), 3)


def test_enumerate_cliques_matches_bruteforce():
    g = KUniformHypergraph.from_edges(
        2, 7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6)]
    )
    for size in range(1, 5):
        naive = [
            c
            for c in itertools.combinations(range(7), size)
            if all(g.is_edge(p) for p in itertools.combinations(c, 2))
        ]
        assert sorted(enumerate_cliques(g, size)) == sorted(naive)


def reference_cliques(g, size):
    """enumerate_cliques before its candidates became sorted lists, verbatim."""
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


# dense hosts are smaller, so every order up to 8 stays quick
@pytest.mark.parametrize(
    "n, p", [(80, 0.1), (80, 0.3), (80, 0.5), (60, 0.6), (40, 0.7), (12, 0.7), (16, 1.0)]
)
def test_enumerate_cliques_matches_the_old_kernel_on_gnp(n, p):
    for seed in range(3):
        g = gnp(GnpParams(n=n, p=p, seed=seed))
        for size in range(9):
            assert enumerate_cliques(g, size) == reference_cliques(g, size), (seed, size)


def test_enumerate_cliques_on_empty_hosts_and_a_huge_order():
    for g in (KUniformHypergraph(2, 0, ()), KUniformHypergraph(2, 30, ())):
        for size in range(9):
            assert enumerate_cliques(g, size) == reference_cliques(g, size)
    g = gnp(GnpParams(n=80, p=0.5, seed=0))
    start = time.perf_counter()
    assert enumerate_cliques(g, 10**12) == []
    assert time.perf_counter() - start < 0.1


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return KUniformHypergraph(2, n, tuple(p for p, b in zip(pairs, keep) if b))


@settings(max_examples=150, deadline=None)
@given(g=_graphs())
def test_enumerate_cliques_is_the_ordered_bruteforce_list(g):
    # clique_hypergraph hands this list to the constructor without sorting,
    # so the order must be exactly lexicographic
    def naive(size):
        return [
            q
            for q in itertools.combinations(range(g.n), size)
            if all(g.is_edge(p) for p in itertools.combinations(q, 2))
        ]

    assert enumerate_cliques(g, 0) == []
    for size in range(1, 6):
        assert enumerate_cliques(g, size) == naive(size)
    for k in range(2, 6):
        assert clique_hypergraph(g, k) == KUniformHypergraph.from_edges(k, g.n, naive(k))
