import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.constructions import clique
from ramseyforge.errors import BudgetExceededError
from ramseyforge.hypergraph import (
    BLUE,
    RED,
    EdgeColoring,
    KUniformHypergraph,
    are_isomorphic,
    automorphism_count,
    find_isomorphism,
    independence_number,
    independence_number_bruteforce,
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


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs())
def test_independence_matches_bruteforce(h):
    assert independence_number(h) == independence_number_bruteforce(h)


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
    k7 = clique(2, 7)
    with pytest.raises(BudgetExceededError):
        automorphism_count(k7, node_cap=10)
    with pytest.raises(BudgetExceededError):
        find_isomorphism(k7, k7, node_cap=10)
    assert automorphism_count(k7) == 5040
