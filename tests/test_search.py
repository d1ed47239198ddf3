import collections
import itertools
import math
import random
import sys
import time

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge import arrow, search
from ramseyforge.arrow import ArrowResult, ArrowVerdict, arrows
from ramseyforge.constructions import blowup_path_host, clique, ell_path
from ramseyforge.embedding import find_copy
from ramseyforge.errors import ARROWS_NODE_CAP, BudgetExceededError, CapsTooSmallError
from ramseyforge.hypergraph import KUniformHypergraph, are_isomorphic, components
from ramseyforge.search import (
    SizeRamseyBound,
    _kth_subset,
    _random_hosts,
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


def test_ramsey_number_small_budget_is_not_a_miss():
    # K5..K7 are NotArrows within 100 nodes, and K8 is not decided within
    # them: the search stops there instead of reading on as "not found"
    c5 = KUniformHypergraph.from_edges(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    for n in (5, 6, 7):
        assert arrows(clique(2, n), c5, 100).result == ArrowResult.NOT_ARROWS
    with pytest.raises(BudgetExceededError, match="with 8 vertices and 28 edges"):
        ramsey_number_small(c5, 9, node_cap=100)
    assert ramsey_number_small(c5, 9) == 9


def test_size_ramsey_upper_k3():
    bound = size_ramsey_upper(clique(2, 3))
    assert bound.upper == 15
    assert bound.witness_host is not None
    assert bound.witness_host.num_edges == 15
    assert bound.methods.get("clique-host") == 15
    assert bound.lower == 3


def test_size_ramsey_upper_witness_reverifies():
    p3 = ell_path(2, 1, 3)
    bound = size_ramsey_upper(p3, max_host_edges=12)
    assert bound.upper is not None
    v = arrows(bound.witness_host, p3)
    assert v.result == ArrowResult.ARROWS


def test_size_ramsey_upper_pattern_over_the_edge_cap():
    # no host within the cap holds a copy: lower bound only
    bound = size_ramsey_upper(ell_path(2, 1, 8), max_host_edges=5)
    assert (bound.lower, bound.upper, bound.witness_host) == (7, None, None)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect, ROADMAP item 13: _random_hosts draws each host's edge count "
    "from [e_G, max_host_edges], so a larger cap draws larger hosts; take this marker "
    "off when item 13 lands",
)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("pattern", [
    ell_path(2, 1, 4), ell_path(2, 1, 5), ell_path(3, 2, 5),
], ids=["P4", "P5", "tight-3-path"])
def test_size_ramsey_upper_does_not_worsen_with_a_larger_cap(pattern, seed):
    # every host the cap of 18 decides is within the cap of 40 too
    small = size_ramsey_upper(pattern, max_host_edges=18, seed=seed)
    large = size_ramsey_upper(pattern, max_host_edges=40, seed=seed)
    assert large.upper <= small.upper


def test_size_ramsey_upper_negative_caps():
    with pytest.raises(ValueError, match="max_host_edges=-1"):
        size_ramsey_upper(clique(2, 3), max_host_edges=-1)


@pytest.mark.parametrize("k, ell, n", [
    (3, 1, 5), (3, 1, 7), (3, 1, 9), (4, 1, 7), (4, 1, 10),
    (4, 2, 6), (4, 2, 8), (2, 1, 4), (2, 1, 6),
])
def test_blowup_of_clique_arrows_as_the_clique_arrows_the_graph_path(k, ell, n):
    # the blow-up host stream walks the graph path's Ramsey ladder
    pattern = ell_path(k, ell, n)
    first = next(
        (big_n for big_n in range(2, 10)
         if arrows(blowup_path_host(clique(2, big_n), k, ell), pattern).result
         == ArrowResult.ARROWS),
        None,
    )
    graph_path = ell_path(2, 1, pattern.num_edges + 1)
    assert first is not None and first == ramsey_number_small(graph_path, 9)


def _recording_arrows(monkeypatch, max_edges=None):
    """Count each host search.arrows decides; raise on one over max_edges."""
    decided = collections.Counter()
    real_arrows = search.arrows

    def recorder(host, *args):
        if max_edges is not None and host.num_edges > max_edges:
            raise AssertionError(f"decided a host with {host.num_edges} edges")
        decided[host] += 1
        return real_arrows(host, *args)

    monkeypatch.setattr(search, "arrows", recorder)
    return decided


def _capped_clique(monkeypatch, max_edges):
    """Record the n of each clique search.clique builds; raise, before
    building it, on one with more than max_edges edges."""
    built = []
    real_clique = search.clique

    def capped(k, n):
        if math.comb(n, k) > max_edges:
            raise AssertionError(f"built K_{n}^({k}), with {math.comb(n, k)} edges")
        built.append(n)
        return real_clique(k, n)

    monkeypatch.setattr(search, "clique", capped)
    return built


@pytest.mark.parametrize("pattern, first_over", [(clique(2, 4), 7), (ell_path(2, 1, 8), 8)])
def test_size_ramsey_upper_searches_no_host_over_the_edge_cap(monkeypatch, pattern, first_over):
    # K7 is the first clique with more than 18 edges; the clique and blow-up
    # streams of the 7-edge path start at K8
    decided = _recording_arrows(monkeypatch, max_edges=18)
    built = _capped_clique(monkeypatch, 18)
    bound = size_ramsey_upper(pattern)
    assert (bound.upper, bound.witness_host, bound.methods) == (None, None, {})
    assert decided
    # the ladders build every clique below the first over the cap, and no other
    assert built == list(range(pattern.n, first_over))


def _only_stream(monkeypatch, name):
    """Empty every host stream of size_ramsey_upper but the one named.  The
    clique stream shares _cliques with the blow-up stream's graph ladder,
    so it is emptied as the ladders with k >= 3: the patterns that isolate
    the blow-up stream here are 3-graphs."""
    empty = lambda *args: iter(())
    real_cliques = search._cliques
    graph_ladders = lambda k, *args: real_cliques(k, *args) if k == 2 else iter(())
    streams = {
        "clique-host": ("_cliques", graph_ladders),
        "blowup-host": ("_blowup_hosts", empty),
        "steiner-host": ("_steiner_hosts", empty),
        "random-host": ("_random_hosts", empty),
    }
    for other, (attr, replacement) in streams.items():
        if other != name:
            monkeypatch.setattr(search, attr, replacement)


@pytest.mark.parametrize("edges, stream, cap", [
    (1200, "clique-host", 1300), (20, "blowup-host", 30),
])
def test_host_ladders_stop_before_building_a_host_over_the_cap(monkeypatch, edges, stream, cap):
    # the loose 3-path with 1,200 edges has 2,401 vertices, and K_2401^(3)
    # has about 2.3e9 edges; the 20-edge path's blow-up ladder starts at K21
    # with 210 edges.  An open ladder fails here rather than hang
    _only_stream(monkeypatch, stream)
    built = _capped_clique(monkeypatch, cap)
    bound = size_ramsey_upper(ell_path(3, 1, 2 * edges + 1), max_host_edges=cap)
    assert (bound.lower, bound.upper, built) == (edges, None, [])


def test_size_ramsey_upper_clique_ladder_has_no_vertex_cap(monkeypatch):
    # R(C5) = 9, and K9 has 36 edges: the edge cap alone ends the ladder
    _only_stream(monkeypatch, "clique-host")
    c5 = KUniformHypergraph.from_edges(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    bound = size_ramsey_upper(c5, max_host_edges=40)
    assert (bound.upper, bound.methods, bound.witness_host) == (36, {"clique-host": 36}, clique(2, 9))


def test_size_ramsey_upper_goes_past_an_unknown_host(monkeypatch):
    # an Unknown verdict on K6 does not end the clique stream: K7 is decided
    # next, and only once
    _only_stream(monkeypatch, "clique-host")
    decided = []
    real_arrows = search.arrows

    def unknown_on_k6(host, *args):
        decided.append(host.n)
        if host == clique(2, 6):
            return ArrowVerdict(ArrowResult.UNKNOWN, None, 0)
        return real_arrows(host, *args)

    monkeypatch.setattr(search, "arrows", unknown_on_k6)
    bound = size_ramsey_upper(clique(2, 3), max_host_edges=21)
    assert bound.upper == 21 and bound.witness_host == clique(2, 7)
    assert bound.methods == {"clique-host": 21}
    assert decided == [3, 4, 5, 6, 7]


@pytest.mark.parametrize("pattern", [clique(2, 2), ell_path(2, 1, 4), ell_path(3, 2, 5)],
                         ids=["K2", "P4", "tight3"])
def test_steiner_stream_leaves_the_cliques_to_the_clique_stream(pattern):
    # a packing with t = k is K_N^(k), so the stream takes ell <= k - 2: a
    # graph gets no Steiner host, nor does the tight 3-path, a 2-tree only
    assert list(search._steiner_hosts(pattern, 1)) == []


@pytest.mark.parametrize("pattern", [clique(2, 2), ell_path(2, 1, 4)], ids=["K2", "P4"])
def test_blowup_stream_is_empty_for_graphs(pattern):
    # a graph's blow-up into graphs is the graph itself, a clique stream host
    assert list(search._blowup_hosts(pattern, 18)) == []


def test_ell_path_detection_tries_no_ell_over_half_k(monkeypatch):
    # the tight 3-path is the 2-path on 5 vertices, and 2 > 3/2; the chain
    # walk runs no isomorphism test
    monkeypatch.setattr(search, "are_isomorphic", None)
    assert search._detect_ell_path(ell_path(3, 2, 5)) is None
    assert search._detect_ell_path(ell_path(3, 1, 5)) == 1
    assert search._detect_ell_path(ell_path(4, 2, 8)) == 2
    assert search._detect_ell_path(ell_path(4, 3, 6)) is None


def reference_detect_ell_path(pattern):
    """The detection by isomorphism test that the chain walk replaced."""
    k = pattern.k
    for ell in range(1, k // 2 + 1):
        if pattern.n < k or (pattern.n - ell) % (k - ell):
            continue
        candidate = ell_path(k, ell, pattern.n)
        if candidate.num_edges == pattern.num_edges and are_isomorphic(pattern, candidate):
            return ell
    return None


@st.composite
def near_ell_paths(draw):
    """A relabelled ell-path with up to one edge dropped, one k-set added
    and two isolated vertices added, or a random k-graph."""
    k = draw(st.integers(2, 5))
    if draw(st.booleans()):
        n = draw(st.integers(k, 8))
        pool = list(itertools.combinations(range(n), k))
        edges = draw(st.lists(st.sampled_from(pool), max_size=5, unique=True))
        return KUniformHypergraph.from_edges(k, n, edges)
    ell = draw(st.integers(1, k - 1))
    m = draw(st.integers(1, 5))
    n = m * (k - ell) + ell + draw(st.integers(0, 2))
    edges = [tuple(range(i * (k - ell), i * (k - ell) + k)) for i in range(m)]
    if m > 1 and draw(st.booleans()):
        edges.pop(draw(st.integers(0, m - 1)))
    if draw(st.booleans()):
        extra = tuple(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))
        if set(extra) not in map(set, edges):
            edges.append(extra)
    relabel = draw(st.permutations(range(n)))
    return KUniformHypergraph.from_edges(k, n, [[relabel[v] for v in e] for e in edges])


@settings(max_examples=300, deadline=None)
@given(near_ell_paths())
def test_ell_path_walk_matches_the_isomorphism_test(pattern):
    assert search._detect_ell_path(pattern) == reference_detect_ell_path(pattern)


def test_ell_path_walk_on_the_long_loose_path():
    # the isomorphism test took 7.75 s on the 1,200-edge loose 3-path
    start = time.perf_counter()
    assert search._detect_ell_path(ell_path(3, 1, 2_401)) == 1
    assert time.perf_counter() - start < 1


_K6_EDGES = clique(2, 6).edges


@pytest.mark.parametrize("pattern, upper, methods, witness", [
    (clique(2, 3), 15, {"clique-host": 15}, _K6_EDGES),
    (KUniformHypergraph.from_edges(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
     15, {"clique-host": 15}, _K6_EDGES),
    (ell_path(2, 1, 4), 8, {"clique-host": 10, "random-host": 8},
     ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 5), (3, 4))),
    (ell_path(2, 1, 5), 13, {"clique-host": 15, "random-host": 13},
     ((0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 4), (1, 6), (2, 3),
      (2, 4), (3, 6), (4, 7), (5, 7))),
    (ell_path(3, 2, 5), 9, {"clique-host": 10, "random-host": 9},
     ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4),
      (1, 3, 4), (2, 3, 4))),
    (ell_path(3, 1, 5), 3, {"clique-host": 10, "blowup-host": 3},
     ((0, 1, 3), (0, 2, 4), (1, 2, 5))),
])
def test_size_ramsey_upper_decides_each_host_once(monkeypatch, pattern, upper, methods, witness):
    decided = _recording_arrows(monkeypatch)
    bound = size_ramsey_upper(pattern)
    assert (bound.upper, bound.methods, bound.witness_host.edges) == (upper, methods, witness)
    # every host is decided once, the witness too
    assert set(decided.values()) == {1}


def test_bound_validation():
    with pytest.raises(ValueError):
        SizeRamseyBound(lower=5, upper=4, witness_host=None)


def _below_floor(decided, pattern):
    """The decided hosts with fewer edges or vertices than the pattern,
    which hold no copy of it."""
    return [h for h in decided if h.num_edges < pattern.num_edges or h.n < pattern.n]


_STAR3 = KUniformHypergraph.from_edges(2, 4, [(0, 1), (0, 2), (0, 3)])


@pytest.mark.parametrize("pattern", [
    ell_path(2, 1, 4), ell_path(2, 1, 5), ell_path(3, 2, 5), ell_path(3, 1, 5),
    ell_path(2, 1, 8),
], ids=["P4", "P5", "tight3", "loose2", "P8"])
def test_size_ramsey_upper_decides_no_host_below_the_floor(monkeypatch, pattern):
    # the Steiner stream starts at N = k, below every one of these patterns
    decided = _recording_arrows(monkeypatch)
    size_ramsey_upper(pattern)
    assert decided and _below_floor(decided, pattern) == []


@pytest.mark.parametrize("pattern, vcap, ecap, upper", [
    (ell_path(2, 1, 4), 7, 7, 7), (_STAR3, 6, 12, 5), (ell_path(3, 1, 5), 9, 12, 3),
], ids=["P4", "K1,3", "loose2"])
def test_size_ramsey_exact_decides_no_host_below_the_floor(monkeypatch, pattern, vcap, ecap, upper):
    decided = _recording_arrows(monkeypatch)
    assert size_ramsey_exact_tiny(pattern, vcap, ecap).upper == upper
    assert decided and _below_floor(decided, pattern) == []


def _random_hypergraph(rng, k, n, fewest_edges, most_edges):
    subsets = list(itertools.combinations(range(n), k))
    m = rng.randint(fewest_edges, min(most_edges, len(subsets)))
    return KUniformHypergraph.from_edges(k, n, rng.sample(subsets, m))


def test_no_copy_in_a_host_below_the_degree_floor():
    # a copy maps the pattern's vertices to distinct host vertices of no
    # smaller degree, so a host whose sorted degrees fall below the
    # pattern's holds no copy.  Each host has at least the pattern's edges
    # and vertices, so only the degree sequence can put it below the floor
    rng = random.Random(24)
    below = 0
    for _ in range(400):
        k = rng.choice((2, 3))
        pattern = _random_hypergraph(rng, k, rng.randint(k, 6), 1, 5)
        host_n = rng.randint(pattern.n, pattern.n + 2)
        host = _random_hypergraph(rng, k, host_n, pattern.num_edges, pattern.num_edges + 3)
        if search._below_floor(host, pattern):
            assert find_copy(pattern, host) is None
            below += 1
    assert below >= 50


def test_degree_floor_skips_the_random_hosts_of_a_long_path(monkeypatch):
    # every random host of the 1,200-edge loose 3-path leaves fewer than
    # 2,401 vertices covered, so none holds the path and none is searched:
    # neither an arrow search nor a copy-mask search is started
    _only_stream(monkeypatch, "random-host")
    drawn = []
    real_random_hosts = search._random_hosts
    monkeypatch.setattr(search, "_random_hosts",
                        lambda *args: (drawn.append(h) or h for h in real_random_hosts(*args)))

    def no_search(*args, **kwargs):
        raise AssertionError("a random host was searched")

    monkeypatch.setattr(search, "arrows", no_search)
    monkeypatch.setattr(arrow, "copy_edge_masks", no_search)
    bound = size_ramsey_upper(ell_path(3, 1, 2401), max_host_edges=1300, seed=1)
    assert (bound.lower, bound.upper, len(drawn)) == (1200, None, 20)


def _classes(hosts, same):
    """Representatives of the classes of `hosts` under the relation `same`."""
    reps = []
    for h in hosts:
        if not any(same(h, r) for r in reps):
            reps.append(h)
    return reps


def _level_counts(hosts):
    counts = {}
    for h in hosts:
        counts[h.num_edges] = counts.get(h.num_edges, 0) + 1
    return counts


def test_enumerate_hosts_small_counts():
    # single k=2 edge: exactly one host
    hosts = list(enumerate_hosts(2, 1, 4))
    assert len(hosts) == 1 and hosts[0].edges == ((0, 1),)
    # graphs with m edges and no isolated vertex: 1, 2, 5, 11, 26, 68 (OEIS A000664)
    for m, count in zip(range(1, 7), (1, 2, 5, 11, 26, 68)):
        hosts = list(enumerate_hosts(2, m, 2 * m))
        assert [h.num_edges for h in hosts] == sorted(h.num_edges for h in hosts)
        assert _level_counts(hosts)[m] == count
        # every host has no isolated vertex
        for h in hosts:
            assert all(d > 0 for d in h.degrees())
    # on at most 7 vertices
    counts = _level_counts(enumerate_hosts(2, 7, 7))
    assert [counts[m] for m in range(3, 8)] == [5, 10, 21, 41, 65]


def _bounded_steps(limit):
    """A trace function that fails once the lines run inside
    enumerate_hosts exceed limit: the work is bounded by a count, not a clock."""
    code, steps = search.enumerate_hosts.__code__, [0]

    def count(frame, event, arg):
        steps[0] += 1
        if steps[0] > limit:
            raise AssertionError(f"enumerate_hosts ran more than {limit} lines")
        return count

    return lambda frame, event, arg: count if frame.f_code is code else None


def test_enumerate_hosts_stops_at_the_first_empty_level(monkeypatch):
    # at most 6 edges fit on 4 vertices, so the levels end long before 10**9
    calls = []
    real_arrows = search.arrows
    monkeypatch.setattr(search, "arrows", lambda *a: calls.append(a) or real_arrows(*a))
    previous = sys.gettrace()
    sys.settrace(_bounded_steps(5_000))
    try:
        hosts = list(enumerate_hosts(2, 10**9, 4))
        # the exact scan decides 5 of the 7 hosts with 3 or more edges once,
        # then reports the caps as too small
        with pytest.raises(CapsTooSmallError):
            size_ramsey_exact_tiny(clique(2, 3), vcap=4, ecap=10**9)
    finally:
        sys.settrace(previous)
    assert _level_counts(hosts) == {1: 1, 2: 2, 3: 3, 4: 2, 5: 1, 6: 1}
    assert len(calls) == 5
    # P4 and K1,3 have fewer than three vertices of degree 2, so they hold
    # no K3, and the degree floor skips them undecided
    decided = [args[0] for args in calls]
    skipped = [h for h in hosts if h.num_edges >= 3
               and not any(are_isomorphic(h, d) for d in decided)]
    assert sorted(sorted(h.degrees()) for h in skipped) == [[1, 1, 1, 3], [1, 1, 2, 2]]


def _incidence_graph(h):
    g = nx.Graph()
    g.add_nodes_from(range(h.n), side=0)
    for i, e in enumerate(h.edges):
        g.add_node(("e", i), side=1)
        g.add_edges_from((("e", i), v) for v in e)
    return g


def _nx_isomorphic(a, b):
    match = nx.algorithms.isomorphism.categorical_node_match("side", None)
    return nx.is_isomorphic(_incidence_graph(a), _incidence_graph(b), node_match=match)


def _nx_class_count(hosts):
    """Isomorphism classes of `hosts` by networkx, bucketed by the sorted
    degree sequence so that only same-degree hosts are compared."""
    buckets = {}
    for h in hosts:
        buckets.setdefault(tuple(sorted(h.degrees())), []).append(h)
    return sum(len(_classes(b, _nx_isomorphic)) for b in buckets.values())


def _labelled_hosts(k, m, vcap):
    """Every k-graph with m edges on the vertex set 0..n-1, n <= vcap, that
    leaves no vertex isolated: a brute-force list, one host per labelling."""
    for n in range(k, vcap + 1):
        for edges in itertools.combinations(itertools.combinations(range(n), k), m):
            if len(set().union(*edges)) == n:
                yield KUniformHypergraph(k, n, edges)


@pytest.mark.parametrize("m, vcap", [(1, 3), (2, 6), (3, 9)])
def test_enumerate_hosts_k3_classes_match_networkx(m, vcap):
    hosts = list(enumerate_hosts(3, m, vcap))
    assert {h.num_edges for h in hosts} == set(range(1, m + 1))
    for level in range(1, m + 1):
        ours = [h for h in hosts if h.num_edges == level]
        assert all(h.n <= vcap and min(h.degrees()) > 0 for h in ours)
        assert len(_classes(ours, _nx_isomorphic)) == len(ours)
        assert _nx_class_count(_labelled_hosts(3, level, vcap)) == len(ours)


def _children(h, k, vcap):
    """Edges that enumerate_hosts tries on top of host h."""
    return sum(
        math.comb(h.n, k - fresh) for fresh in range(min(k, vcap - h.n) + 1)
    ) - h.num_edges


def test_exact_dedupe_calls_at_most_one_isomorphism_test_per_host(monkeypatch):
    # each child a level grows costs at most one isomorphism test on average
    counts = {"iso": 0}
    hosts = []
    real_iso, real_enum = search.are_isomorphic, search.enumerate_hosts

    def counting_iso(h1, h2):
        counts["iso"] += 1
        return real_iso(h1, h2)

    def recording_enum(*args):
        for h in real_enum(*args):
            hosts.append(h)
            yield h

    monkeypatch.setattr(search, "are_isomorphic", counting_iso)
    monkeypatch.setattr(search, "enumerate_hosts", recording_enum)
    bound = size_ramsey_exact_tiny(ell_path(2, 1, 4), vcap=6, ecap=7)
    assert bound.upper == 7
    # the children of the empty host and of every host below the last level
    # reached; the last level is only partly grown
    last = hosts[-1].num_edges
    tried = 1 + sum(_children(h, 2, 6) for h in hosts if h.num_edges < last)
    assert 0 < counts["iso"] <= tried


def _unpruned_hosts(k, max_edges, vcap, iso):
    """enumerate_hosts as it was before orbit pruning: every absent edge of
    every representative is tried, and each child is tested with iso."""
    level = [KUniformHypergraph(k, 0, ())]
    for _ in range(max_edges):
        kept, next_level = {}, []
        for rep in level:
            for fresh in range(min(k, vcap - rep.n) + 1):
                new_part = tuple(range(rep.n, rep.n + fresh))
                for old_part in itertools.combinations(range(rep.n), k - fresh):
                    e = old_part + new_part
                    if e in rep.edges:
                        continue
                    child = KUniformHypergraph(k, rep.n + fresh, tuple(sorted(rep.edges + (e,))))
                    bucket = kept.setdefault(child.invariant, [])
                    if any(iso(child, other) for other in bucket):
                        continue
                    bucket.append(child)
                    next_level.append(child)
                    yield child
        if not next_level:
            return
        level = next_level


@pytest.mark.parametrize("k, max_edges, vcap, unpruned_calls, calls", [
    (2, 7, 6, 414, 159),
    (2, 7, 7, 943, 362),
    (2, 8, 8, 3_566, 1_506),
    (2, 6, 9, 619, 190),
    (3, 3, 9, 69, 8),
    (3, 4, 6, 138, 33),
])
def test_orbit_pruning_keeps_the_host_sequence(monkeypatch, k, max_edges, vcap, unpruned_calls, calls):
    # one absent edge per orbit of the representative's automorphisms gives
    # the same hosts, labelling included, with fewer isomorphism tests
    counts = collections.Counter()

    def counting(name):
        return lambda h1, h2: counts.update([name]) or are_isomorphic(h1, h2)

    monkeypatch.setattr(search, "are_isomorphic", counting("pruned"))
    pruned = [(h.n, h.edges) for h in enumerate_hosts(k, max_edges, vcap)]
    unpruned = [(h.n, h.edges) for h in _unpruned_hosts(k, max_edges, vcap, counting("unpruned"))]
    assert pruned == unpruned
    assert (counts["unpruned"], counts["pruned"]) == (unpruned_calls, calls)


def test_connected_hosts_count_connected_graphs():
    # connected graphs with m edges, m = 1..9 (OEIS A002905); at most 10
    # vertices is no cap for them
    hosts = list(enumerate_hosts(2, 9, 10, connected=True))
    assert all(len(components(h)) == 1 for h in hosts)
    counts = _level_counts(hosts)
    assert [counts[m] for m in range(1, 10)] == [1, 1, 3, 5, 12, 30, 79, 227, 710]


@pytest.mark.parametrize("max_edges, vcap, classes", [(4, 7, 49), (4, 9, 63), (5, 8, 304)])
def test_connected_hosts_are_the_connected_classes(max_edges, vcap, classes):
    connected = list(enumerate_hosts(3, max_edges, vcap, connected=True))
    full = [h for h in enumerate_hosts(3, max_edges, vcap) if len(components(h)) == 1]
    assert len(connected) == len(full) == classes
    buckets = collections.defaultdict(list)
    for h in full:
        buckets[h.invariant].append(h)
    # the full enumeration keeps one host per class, so a host isomorphic
    # to exactly one member of it, for every connected host, is a bijection
    for h in connected:
        assert sum(are_isomorphic(h, other) for other in buckets[h.invariant]) == 1


def test_kth_subset_matches_lexicographic_order():
    for n in range(7):
        for k in range(1, n + 1):
            subsets = list(itertools.combinations(range(n), k))
            assert [_kth_subset(n, k, i) for i in range(len(subsets))] == subsets


@pytest.mark.parametrize("pattern", [ell_path(2, 1, 4), ell_path(3, 1, 5)])
def test_random_hosts_draw_as_from_listed_subsets(pattern):
    # the draw without listing every k-subset equals rng.sample over the list
    for seed in range(5):
        rng = random.Random(seed)
        expected = []
        for _ in range(20):
            n = rng.randint(pattern.n, pattern.n + pattern.k + 2)
            m = rng.randint(pattern.num_edges, 18)
            pool = list(itertools.combinations(range(n), pattern.k))
            if m <= len(pool):
                edges = rng.sample(pool, m)
                expected.append(KUniformHypergraph.from_edges(pattern.k, n, edges))
        assert list(_random_hosts(pattern, 18, seed)) == expected


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


_P3_PLUS_5 = KUniformHypergraph(2, 8, ((0, 1), (1, 2)))  # P3 and 5 isolated vertices


def test_isolated_pattern_vertices_cost_no_edges():
    # K_{1,3} or K3 padded to 8 vertices has 3 edges and arrows the pattern:
    # the isolated pattern vertices need host vertices, not host edges
    exact = size_ramsey_exact_tiny(_P3_PLUS_5, vcap=9, ecap=8)
    upper = size_ramsey_upper(_P3_PLUS_5, seed=1)
    assert (exact.lower, upper.lower) == (3, 2)
    for bound in (exact, upper):
        assert (bound.upper, bound.witness_host.n) == (3, 8)
        assert arrows(bound.witness_host, _P3_PLUS_5).result == ArrowResult.ARROWS


def _with_isolated(pattern, t):
    return KUniformHypergraph(pattern.k, pattern.n + t, pattern.edges)


@pytest.mark.parametrize("pattern, vcap, ecap", [
    (ell_path(2, 1, 3), 6, 4), (_STAR3, 6, 7), (ell_path(2, 1, 4), 7, 7),
    (KUniformHypergraph(3, 3, ((0, 1, 2),)), 5, 2), (ell_path(3, 1, 5), 7, 3),
], ids=["P3", "K1,3", "P4", "edge3", "loose2"])
def test_exact_value_ignores_isolated_pattern_vertices(pattern, vcap, ecap):
    value = size_ramsey_exact_tiny(pattern, vcap, ecap).upper
    for t in range(1, vcap - pattern.n + 1):
        bound = size_ramsey_exact_tiny(_with_isolated(pattern, t), vcap, ecap)
        assert bound.upper == value and bound.witness_host.n >= pattern.n + t


def test_ramsey_number_of_an_edgeless_pattern_is_its_order():
    # K_N^(k) holds the edgeless pattern once N >= n_G, also when N < k
    for k, n in ((3, 1), (3, 0), (2, 1), (3, 4)):
        assert ramsey_number_small(KUniformHypergraph(k, n, ()), 5) == n
    assert ramsey_number_small(KUniformHypergraph(3, 4, ()), 3) is None
    # isolated vertices of a pattern with edges only raise the order
    assert ramsey_number_small(_with_isolated(ell_path(2, 1, 3), 2), 6) == 5
    assert ramsey_number_small(_with_isolated(ell_path(2, 1, 3), 1), 6) == 4


def _arrows_by_brute_force(host, pattern):
    """Every 2-colouring of host has a monochromatic copy of pattern."""
    copies = []
    for image in itertools.permutations(range(host.n), pattern.n):
        mapped = [tuple(sorted(image[v] for v in e)) for e in pattern.edges]
        if all(e in host.edges for e in mapped):
            copies.append([host.edges.index(e) for e in mapped])
    return all(
        any(len({colours[i] for i in c}) == 1 for c in copies)
        for colours in itertools.product((0, 1), repeat=host.num_edges)
    )


def test_size_ramsey_exact_tiny_tight_3_path():
    # the tight 3-edge 3-path: r-hat = 7 on at most 6 vertices
    path = ell_path(3, 2, 5)
    bound = size_ramsey_exact_tiny(path, vcap=6, ecap=7)
    assert bound.lower == bound.upper == 7
    assert bound.witness_host.num_edges == 7 and bound.witness_host.n <= 6
    assert _arrows_by_brute_force(bound.witness_host, path)


def _random_connected(rng, k, m, most_vertices):
    """A connected k-graph with m edges, each edge after the first meeting
    an earlier one, on at most most_vertices vertices."""
    edges, n = [tuple(range(k))], k
    while len(edges) < m:
        fresh = rng.randint(0, min(k - 1, most_vertices - n))
        e = tuple(sorted(rng.sample(range(n), k - fresh) + list(range(n, n + fresh))))
        if e not in edges:
            edges.append(e)
            n += fresh
    return KUniformHypergraph.from_edges(k, n, edges)


def test_connected_scan_matches_the_full_scan():
    # some component of a host arrowing a connected pattern arrows it, so
    # the scan over connected hosts finds the value of the full scan
    rng = random.Random(24)
    values = []
    for _ in range(16):
        k = rng.choice((2, 2, 3))
        pattern = _random_connected(rng, k, rng.randint(2, 4 if k == 2 else 3), 5)
        vcap = rng.randint(max(pattern.n, 5), 7 if k == 2 else 6)
        ecap = rng.randint(5, 8) if k == 2 else rng.randint(3, 6)
        full = search._first_arrowing(enumerate_hosts(k, ecap, vcap), pattern, ARROWS_NODE_CAP)
        try:
            value = size_ramsey_exact_tiny(pattern, vcap, ecap).upper
        except CapsTooSmallError:
            value = None
        assert value == (None if full is None else full.num_edges)
        values.append(value)
    assert None in values and len(set(values)) >= 3


def test_disconnected_pattern_gets_the_full_scan():
    # r-hat(2K2) = 3, and its only witness, 3K2, is disconnected: a scan
    # over connected hosts would miss it
    two_edges = KUniformHypergraph.from_edges(2, 4, [(0, 1), (2, 3)])
    bound = size_ramsey_exact_tiny(two_edges, vcap=8, ecap=9)
    assert bound.upper == 3 and len(components(bound.witness_host)) == 3
    assert _arrows_by_brute_force(bound.witness_host, two_edges)


def test_size_ramsey_exact_tiny_caps_error():
    with pytest.raises(CapsTooSmallError):
        size_ramsey_exact_tiny(clique(2, 3), vcap=4, ecap=4)


def test_size_ramsey_exact_tiny_unknown_is_not_a_miss():
    # r(K1,3) = 5 lies inside these caps.  Every host here that arrows K1,3
    # needs at least 3 decision nodes, so a 2-node budget leaves all of them
    # undecided, and skipping them would report the caps as too small
    star = KUniformHypergraph.from_edges(2, 4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(BudgetExceededError):
        size_ramsey_exact_tiny(star, vcap=6, ecap=7, node_cap=2)
    assert size_ramsey_exact_tiny(star, vcap=6, ecap=7).upper == 5


def test_size_ramsey_exact_tiny_pattern_wider_than_vcap(monkeypatch):
    # no host on at most vcap vertices holds a copy: nothing to enumerate
    def no_enumeration(*args):
        raise AssertionError("hosts enumerated")

    monkeypatch.setattr(search, "enumerate_hosts", no_enumeration)
    wide = KUniformHypergraph.from_edges(2, 10, [(0, 1)])
    with pytest.raises(CapsTooSmallError):
        size_ramsey_exact_tiny(wide, vcap=9, ecap=12)


def test_lower_bound_floor():
    p3 = ell_path(2, 1, 3)
    for bound in (size_ramsey_upper(p3), size_ramsey_exact_tiny(p3, vcap=6, ecap=4)):
        assert bound.lower >= p3.num_edges
