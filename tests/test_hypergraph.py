import itertools
import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.constructions import clique, disjoint_union, ell_path, gadget_family
from ramseyforge.embedding import _pattern_order, stabiliser_orbits
from ramseyforge.errors import Budget, BudgetExceededError
from ramseyforge.hypergraph import (
    BLUE,
    RED,
    EdgeColoring,
    KUniformHypergraph,
    _well_formed,
    are_isomorphic,
    automorphism_count,
    find_isomorphism,
    independence_number,
    opposite,
)


def small_hypergraphs(k=2, min_n=2, max_n=6, max_m=6):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.frozensets(st.integers(0, n - 1), min_size=k, max_size=k),
            max_size=max_m,
            unique=True,
        ).map(lambda es: KUniformHypergraph.from_edges(k, n, [tuple(sorted(e)) for e in es]))
    )


def test_canonical_form():
    h = KUniformHypergraph.from_edges(3, 5, [(4, 2, 0), (1, 0, 2), (0, 2, 4)])
    assert h.edges == ((0, 1, 2), (0, 2, 4))
    assert h.num_edges == 2


def test_validation_rejects_bad_edges():
    with pytest.raises(ValueError):
        KUniformHypergraph(3, 4, ((0, 1),))
    with pytest.raises(ValueError):
        KUniformHypergraph(3, 3, ((0, 1, 3),))
    with pytest.raises(ValueError):
        KUniformHypergraph(3, 4, ((0, 1, 2), (0, 1, 2)))
    with pytest.raises(ValueError):
        # out of lex order
        KUniformHypergraph(3, 5, ((0, 2, 3), (0, 1, 2)))
    with pytest.raises(ValueError):
        KUniformHypergraph(3, 4, ((0, 0, 2),))  # repeated vertex
    with pytest.raises(ValueError):
        KUniformHypergraph(3, 4, ((0, 2, 1),))  # unsorted edge
    with pytest.raises(ValueError):
        KUniformHypergraph(3, 4, ((-1, 0, 1),))  # negative vertex
    with pytest.raises(ValueError):
        KUniformHypergraph(3, 4, ([0, 1, 2],))  # a list, not a tuple
    with pytest.raises(ValueError):
        KUniformHypergraph(3, 5, ((0, 1, 2), (0, 1, 3), (1, 2)))  # short edge, not first
    with pytest.raises(ValueError):
        KUniformHypergraph(3, 6, ((0, 1, 2), (0, 1, 3), (1, 2, 3), (3, 4, 5), (3, 4, 5)))


def _edge_loop_validation(k, n, edges):
    """Reference: the edge invariants checked by a plain loop, one edge at a time."""
    prev = None
    for e in edges:
        increasing = isinstance(e, tuple) and all(map(operator.lt, e, e[1:]))
        if len(e) != k or not increasing:
            raise ValueError(f"edge {e} is not a strictly increasing {k}-tuple")
        if e[0] < 0 or e[-1] >= n:
            raise ValueError(f"edge {e} out of range for n={n}")
        if prev is not None and e <= prev:
            raise ValueError("edge list is not strictly increasing")
        prev = e


def _outcome(check):
    try:
        check()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validation_accepts_what_the_edge_loop_accepts(data):
    # a sorted sample of the valid edges (short lists take the edge loop,
    # long ones the whole-list passes), then up to two possibly malformed
    # edges inserted anywhere
    k = data.draw(st.sampled_from((2, 3)))
    n = data.draw(st.integers(0, 9))
    valid = list(itertools.combinations(range(n), k))
    size = data.draw(st.integers(0, len(valid)))
    edges = sorted(data.draw(st.permutations(valid))[:size])
    vertex = st.integers(-1, n)
    raw = st.one_of(
        st.lists(vertex, min_size=1, max_size=k + 1).map(tuple),
        st.lists(vertex, min_size=k, max_size=k),
    )
    for _ in range(data.draw(st.integers(0, 2))):
        edges.insert(data.draw(st.integers(0, len(edges))), data.draw(raw))
    edges = tuple(edges)
    assert _outcome(lambda: KUniformHypergraph(k, n, edges)) == _outcome(
        lambda: _edge_loop_validation(k, n, edges)
    )


_K7_3 = tuple(itertools.combinations(range(7), 3))  # 35 edges: the whole-list path


@pytest.mark.parametrize(
    "edges",
    [
        ((-1, 0, 1),) + _K7_3[1:],  # negative vertex, first edge
        _K7_3[:-1] + ((4, 5, 7),),  # vertex n, last edge
        _K7_3[:20] + ([1, 3, 4],) + _K7_3[21:],  # a list edge
        _K7_3[:20] + ((1, 3),) + _K7_3[21:],  # short edge, not first
        _K7_3 + ((4, 5, 6, 7),),  # long edge, last
        _K7_3[:22] + ((1, 4, 4),) + _K7_3[23:],  # repeated vertex, in order
        tuple(map(list, _K7_3)),  # every edge a list
        _K7_3 + ((4, 5, 6),),  # duplicate, last
        _K7_3[:20] + (_K7_3[21], _K7_3[20]) + _K7_3[22:],  # two edges swapped
    ],
)
def test_validation_names_one_defect_in_a_long_list(edges):
    want = _outcome(lambda: _edge_loop_validation(3, 7, edges))
    assert want is not None and want[0] is ValueError
    assert _well_formed(_K7_3, 3, 7) and not _well_formed(edges, 3, 7)
    assert _outcome(lambda: KUniformHypergraph(3, 7, edges)) == want


def test_edge_sets_built_on_first_use():
    h = KUniformHypergraph(3, 5, ((0, 1, 2), (0, 2, 4)))
    assert set(vars(h)) == {"k", "n", "edges"}
    assert h.edge_sets == tuple(frozenset(e) for e in h.edges)
    assert "edge_sets" in vars(h)


def test_degrees_and_set_degree():
    # tight path on 6 vertices: middle pair {2,3} lies in 2 edges
    edges = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5)]
    h = KUniformHypergraph.from_edges(3, 6, edges)
    assert h.degree(2) == 3
    assert h.set_degree((2, 3)) == 2
    assert h.set_degree((0, 5)) == 0
    assert h.min_nonzero_ell_degree(2) == 1
    with pytest.raises(ValueError):
        h.set_degree((0, 1, 2))  # |U| must be < k


def test_induced_reindexes_in_order():
    h = KUniformHypergraph.from_edges(3, 6, [(0, 2, 4), (1, 3, 5)])
    sub = h.induced([0, 2, 4])
    assert sub.n == 3 and sub.edges == ((0, 1, 2),)


def test_json_round_trip():
    h = KUniformHypergraph.from_edges(3, 5, [(0, 1, 2), (2, 3, 4)])
    assert KUniformHypergraph.from_json(h.to_json()) == h
    d = h.to_dict()
    assert d == {"k": 3, "n": 5, "edges": [[0, 1, 2], [2, 3, 4]]}


def test_coloring_basics():
    h = KUniformHypergraph.from_edges(2, 3, [(0, 1), (0, 2), (1, 2)])
    c = EdgeColoring(h, (RED, BLUE, RED))
    assert c.color_of((1, 0)) == RED
    with pytest.raises(ValueError):
        c.color_of((0, 3))
    assert c.indices_of(BLUE) == [1]
    assert c.swapped().colors == (BLUE, RED, BLUE)
    red = c.monochromatic_subgraph(RED)
    assert red.edges == ((0, 1), (1, 2))
    assert EdgeColoring.from_list(h, c.to_list()) == c
    assert opposite(RED) == BLUE and opposite(BLUE) == RED
    with pytest.raises(ValueError):
        EdgeColoring(h, (RED, BLUE))
    with pytest.raises(ValueError):
        EdgeColoring(h, (RED, BLUE, "G"))
    k4 = clique(2, 4)
    with pytest.raises(ValueError, match="bad color 'r'"):
        EdgeColoring(k4, (RED, BLUE, RED, BLUE, RED, "r"))
    with pytest.raises(ValueError, match=r"bad color \['R'\]"):
        EdgeColoring(k4, (RED, BLUE, RED, BLUE, RED, [RED]))


def test_independence_number_known_values():
    k4 = KUniformHypergraph.from_edges(
        2, 4, list(itertools.combinations(range(4), 2))
    )
    assert independence_number(k4) == 1
    c5 = KUniformHypergraph.from_edges(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert independence_number(c5) == 2
    empty = KUniformHypergraph.from_edges(2, 7, [])
    assert independence_number(empty) == 7
    # one 3-edge on 4 vertices: drop any one vertex of the edge
    h3 = KUniformHypergraph.from_edges(3, 4, [(0, 1, 2)])
    assert independence_number(h3) == 3


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda k: small_hypergraphs(k, min_n=k)))
def test_neighbors_match_edges(h):
    for v in range(h.n):
        want = sorted({w for e in h.edges if v in e for w in e} - {v})
        assert h.neighbors[v] == tuple(want)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((2, 3, 4)).flatmap(lambda k: small_hypergraphs(k, min_n=k, max_n=k + 3)),
    st.integers(0, 3),
)
def test_incident_lists_the_edges_through_each_vertex(h, isolated):
    h = KUniformHypergraph(h.k, h.n + isolated, h.edges)
    degrees = h.degrees()
    for v in range(h.n):
        through = h.incident[v]
        assert list(through) == sorted(set(through))
        assert set(through) == {j for j, e in enumerate(h.edges) if v in e}
        assert h.degree(v) == len(through) == degrees[v]
    for v in (-1, h.n):
        with pytest.raises(ValueError):
            h.degree(v)


def independence_number_bruteforce(h):
    """Exhaustive subset enumeration; oracle for small n only."""
    edge_sets = h.edge_sets
    for size in range(h.n, -1, -1):
        for s in itertools.combinations(range(h.n), size):
            ss = set(s)
            if not any(es <= ss for es in edge_sets):
                return size
    return 0


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs())
def test_independence_matches_bruteforce(h):
    assert independence_number(h) == independence_number_bruteforce(h)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((2, 3)).flatmap(
        lambda k: st.lists(small_hypergraphs(k, min_n=k, max_n=5), min_size=2, max_size=3)
    ),
    st.integers(0, 3),
)
def test_independence_sums_over_components(parts, isolated):
    k = parts[0].k
    h = disjoint_union(parts + [KUniformHypergraph(k, isolated, ())])
    assert independence_number(h) == independence_number_bruteforce(h)


def test_independence_budget_is_shared_by_components():
    edge = clique(2, 2)
    two_edges = disjoint_union([edge, edge])
    assert independence_number(two_edges) == 2
    with pytest.raises(BudgetExceededError):
        independence_number(two_edges, node_cap=1)
    # the least cap one component fits in is too small for two of them
    cap = 1
    while True:
        try:
            independence_number(edge, node_cap=cap)
            break
        except BudgetExceededError:
            cap += 1
    with pytest.raises(BudgetExceededError):
        independence_number(two_edges, node_cap=cap)


def test_independence_search_depth_is_bounded_by_the_budget(shallow_stack):
    # 300 edges in a row: a search recursing per excluded vertex runs out
    # of stack long before it runs out of budget
    with pytest.raises(BudgetExceededError):
        independence_number(ell_path(3, 1, 601), node_cap=2000)


def test_gadget_union_independence_node_count_is_pinned():
    _, union = gadget_family(3, 2, 11)
    assert independence_number(union, node_cap=1313) == 20
    with pytest.raises(BudgetExceededError):
        independence_number(union, node_cap=1312)


def test_isomorphism_positive_and_negative():
    p4a = KUniformHypergraph.from_edges(2, 4, [(0, 1), (1, 2), (2, 3)])
    p4b = KUniformHypergraph.from_edges(2, 4, [(0, 2), (1, 3), (2, 3)])
    star = KUniformHypergraph.from_edges(2, 4, [(0, 1), (0, 2), (0, 3)])
    iso = find_isomorphism(p4a, p4b)
    assert iso is not None
    # image edges must match exactly
    mapped = {tuple(sorted((iso[u], iso[v]))) for u, v in p4a.edges}
    assert mapped == set(p4b.edges)
    assert not are_isomorphic(p4a, star)
    assert are_isomorphic(p4a, p4a)


@settings(max_examples=40, deadline=None)
@given(small_hypergraphs(), st.randoms(use_true_random=False))
def test_isomorphism_invariant_under_relabeling(h, rnd):
    perm = list(range(h.n))
    rnd.shuffle(perm)
    relabeled = KUniformHypergraph.from_edges(
        h.k, h.n, [tuple(perm[v] for v in e) for e in h.edges]
    )
    assert are_isomorphic(h, relabeled)


@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_invariant_unchanged_by_relabeling(k, data):
    h = data.draw(small_hypergraphs(k=k, min_n=k))
    perm = data.draw(st.permutations(range(h.n)))
    relabeled = KUniformHypergraph.from_edges(
        k, h.n, [tuple(perm[v] for v in e) for e in h.edges]
    )
    assert relabeled.invariant == h.invariant


def test_automorphism_count_known():
    k3 = KUniformHypergraph.from_edges(2, 3, [(0, 1), (0, 2), (1, 2)])
    assert automorphism_count(k3) == 6
    p3 = KUniformHypergraph.from_edges(2, 3, [(0, 1), (1, 2)])
    assert automorphism_count(p3) == 2
    c4 = KUniformHypergraph.from_edges(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert automorphism_count(c4) == 8
    # fixing a vertex of C4 leaves only the reflection through it
    assert automorphism_count(c4, fixed=(0,)) == 2


def test_automorphism_count_pins_inside_the_search():
    # K1,8 has 8! automorphisms; with seven leaves pinned only the identity
    # is left, and the search never enumerates the rest of the group
    star = KUniformHypergraph.from_edges(2, 9, [(0, i) for i in range(1, 9)])
    assert automorphism_count(star, fixed=range(1, 8), node_cap=1_000) == 1
    with pytest.raises(ValueError):
        automorphism_count(star, fixed=(9,))


def test_isolated_vertices_contribute_a_factorial():
    # the isolated vertices outside fixed are permuted freely and take no
    # copy search, so 85 of them stay far inside the default cap
    h = KUniformHypergraph(2, 87, ((0, 1),))
    assert automorphism_count(h) == 2 * math.factorial(85)
    assert automorphism_count(h, fixed=(2,)) == 2 * math.factorial(84)


def _isomorphisms(h1, h2):
    """Every vertex permutation mapping the edges of h1 onto those of h2."""
    target = set(h2.edge_sets)
    for perm in itertools.permutations(range(h1.n)):
        if {frozenset(perm[v] for v in e) for e in h1.edges} == target:
            yield perm


@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_automorphism_count_matches_bruteforce(k, data):
    h = data.draw(small_hypergraphs(k=k, min_n=k))
    autos = list(_isomorphisms(h, h))
    assert automorphism_count(h) == len(autos)
    assert automorphism_count(h, fixed=(0,)) == sum(a[0] == 0 for a in autos)


@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stabiliser_orbits_match_bruteforce(k, data):
    # each orbit is the set of images of its base point under the
    # automorphisms fixing `fixed` and every earlier base point, and each
    # witness is one of those automorphisms, taking the base point to its
    # orbit member
    h = data.draw(small_hypergraphs(k=k, min_n=k))
    fixed = data.draw(st.sets(st.integers(0, h.n - 1)))
    orbits = stabiliser_orbits(h, fixed, Budget(1_000_000))
    assert [v for v, _, _ in orbits] == [v for v in _pattern_order(h) if v not in fixed]
    autos = [a for a in _isomorphisms(h, h) if all(a[v] == v for v in fixed)]
    for v, orbit, witnesses in orbits:
        assert orbit == tuple(sorted({a[v] for a in autos}))
        members = [w for w in orbit if w != v]
        assert len(witnesses) == len(members)
        for w, a in zip(members, witnesses):
            assert a in autos and a[v] == w
        autos = [a for a in autos if a[v] == v]


@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_isomorphism_matches_bruteforce(k, data):
    h1 = data.draw(small_hypergraphs(k=k, min_n=k))
    h2 = data.draw(small_hypergraphs(k=k, min_n=h1.n, max_n=h1.n))
    expected = next(_isomorphisms(h1, h2), None) is not None
    assert are_isomorphic(h1, h2) == expected
    iso = find_isomorphism(h1, h2)
    assert (iso is not None) == expected
    if iso is not None:
        assert sorted(iso) == sorted(iso.values()) == list(range(h1.n))
        image = {frozenset(iso[v] for v in e) for e in h1.edges}
        assert image == set(h2.edge_sets)


def test_isomorphism_searches_respect_node_cap():
    # the vertices of K7 are twins, so its orbits need no pinned search; those
    # of C7 are not
    k7 = clique(2, 7)
    c7 = KUniformHypergraph.from_edges(2, 7, [(i, (i + 1) % 7) for i in range(7)])
    with pytest.raises(BudgetExceededError):
        automorphism_count(c7, node_cap=10)
    with pytest.raises(BudgetExceededError):
        find_isomorphism(k7, k7, node_cap=10)
    assert automorphism_count(c7) == 14
    assert automorphism_count(k7, node_cap=0) == 5040


def test_twins_take_no_pinned_search():
    # the leaves of K1,85 are twins: each orbit comes from swaps alone, so
    # the 85! automorphisms are counted under the default cap, and with none
    star = KUniformHypergraph.from_edges(2, 86, [(0, i) for i in range(1, 86)])
    assert automorphism_count(star) == math.factorial(85)
    assert automorphism_count(star, node_cap=0) == math.factorial(85)
