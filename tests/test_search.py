import itertools

import pytest

from ramseyforge.arrow import ArrowResult, arrows
from ramseyforge.constructions import clique, ell_path
from ramseyforge.errors import BudgetExceededError, CapsTooSmallError
from ramseyforge.hypergraph import KUniformHypergraph, are_isomorphic
from ramseyforge.search import (
    SizeRamseyBound,
    enumerate_hosts,
    ramsey_number_small,
    size_ramsey_exact_tiny,
    size_ramsey_upper,
)


def test_ramsey_number_known_values():
    assert ramsey_number_small(clique(2, 3), 8) == 6
    # R(P4) = 5
    assert ramsey_number_small(ell_path(2, 1, 4), 6) == 5
    # R(P3) = 3 (two same-colored triangle edges share a vertex)
    assert ramsey_number_small(ell_path(2, 1, 3), 4) == 3
    # cap too low
    assert ramsey_number_small(clique(2, 3), 5) is None


def test_size_ramsey_upper_k3():
    bound = size_ramsey_upper(clique(2, 3))
    assert bound.upper == 15
    assert bound.witness_host is not None
    assert bound.witness_host.num_edges == 15
    assert bound.methods.get("clique-host") == 15
    assert bound.lower == 3


def test_size_ramsey_upper_unknown_strategy():
    with pytest.raises(ValueError):
        size_ramsey_upper(clique(2, 3), strategies=("bogus",))


def test_size_ramsey_upper_witness_reverifies():
    p3 = ell_path(2, 1, 3)
    bound = size_ramsey_upper(p3, max_host_edges=12)
    assert bound.upper is not None
    v = arrows(bound.witness_host, p3)
    assert v.result == ArrowResult.ARROWS


def test_bound_validation():
    with pytest.raises(ValueError):
        SizeRamseyBound(clique(2, 3), lower=5, upper=4, witness_host=None)


def test_enumerate_hosts_small_counts():
    # single k=2 edge: exactly one host
    hosts = list(enumerate_hosts(2, 1, 4))
    assert len(hosts) == 1 and hosts[0].edges == ((0, 1),)
    # two graph edges: disjoint or sharing a vertex
    hosts2 = list(enumerate_hosts(2, 2, 6))
    classes = []
    for h in hosts2:
        if not any(are_isomorphic(h, c) for c in classes):
            classes.append(h)
    assert len(classes) == 2
    # every host has no isolated vertex
    for h in hosts2:
        assert all(d > 0 for d in h.degrees())


def test_size_ramsey_exact_tiny_single_edge():
    for k in (2, 3, 4):
        single = KUniformHypergraph.from_edges(
            k, k, [tuple(range(k))]
        )
        bound = size_ramsey_exact_tiny(single, vcap=k + 1, ecap=2)
        assert bound.lower == bound.upper == 1
        assert bound.caps == {"vcap": k + 1, "ecap": 2}


def test_size_ramsey_exact_tiny_p3():
    # R-hat(P3): K3 arrows P3 with 3 edges and nothing smaller works
    p3 = ell_path(2, 1, 3)
    bound = size_ramsey_exact_tiny(p3, vcap=6, ecap=4)
    assert bound.lower == bound.upper == 3
    assert are_isomorphic(bound.witness_host, clique(2, 3))


def test_size_ramsey_exact_tiny_caps_error():
    with pytest.raises(CapsTooSmallError):
        size_ramsey_exact_tiny(clique(2, 3), vcap=4, ecap=4)


def test_size_ramsey_exact_tiny_unknown_is_not_a_miss():
    # r(K1,3) = 5 lies inside these caps; an 8-node arrow budget leaves some
    # host undecided, and skipping it would report the caps as too small
    star = KUniformHypergraph.from_edges(2, 4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(BudgetExceededError):
        size_ramsey_exact_tiny(star, vcap=6, ecap=7, node_cap=8)
    assert size_ramsey_exact_tiny(star, vcap=6, ecap=7).upper == 5


def test_lower_bound_floor():
    p3 = ell_path(2, 1, 3)
    for bound in (size_ramsey_upper(p3), size_ramsey_exact_tiny(p3, vcap=6, ecap=4)):
        assert bound.lower >= p3.num_edges
