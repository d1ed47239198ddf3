import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge.constructions import (
    SteinerParams,
    clique,
    ell_path,
    greedy_partial_steiner,
    random_ell_tree,
)
from ramseyforge.embedding import (
    EmbedFailure,
    Embedding,
    _pattern_order,
    copy_edge_masks,
    enumerate_copies,
    find_copy,
    greedy_tree_embed,
    peel_to_min_degree,
)
from ramseyforge.errors import Budget, BudgetExceededError, UnreachableOrderError
from ramseyforge.hypergraph import BLUE, RED, EdgeColoring, KUniformHypergraph
from test_copy_kernel import reference_pattern_order


def bruteforce_copies(pattern, host, allowed=None):
    """All injective maps sending every pattern edge onto an allowed host edge."""
    if allowed is None:
        allowed = set(host.edge_sets)
    out = []
    for img in itertools.permutations(range(host.n), pattern.n):
        if all(frozenset(img[v] for v in e) in allowed for e in pattern.edges):
            out.append(img)
    return out


def test_enumerate_matches_bruteforce():
    cases = [
        (ell_path(2, 1, 3), clique(2, 4)),
        (clique(2, 3), clique(2, 5)),
        (ell_path(3, 2, 4), clique(3, 5)),
        (ell_path(3, 1, 5), ell_path(3, 1, 7)),
    ]
    for pattern, host in cases:
        got = sorted(enumerate_copies(pattern, host))
        want = sorted(bruteforce_copies(pattern, host))
        assert got == want


def test_no_copy_cases():
    # 4-clique needs a vertex pair in 3 edges; a tight path has none
    k4 = clique(3, 4)
    tp6 = ell_path(3, 2, 6)
    assert find_copy(k4, tp6) is None
    # pattern larger than host
    assert find_copy(clique(2, 5), clique(2, 4)) is None


def test_color_filtered_copies():
    host = clique(2, 4)
    colors = tuple(RED if 0 in e else BLUE for e in host.edges)
    coloring = EdgeColoring(host, colors)
    tri = clique(2, 3)
    assert find_copy(tri, host, coloring, RED) is None  # red part is a star
    blue = find_copy(tri, host, coloring, BLUE)
    assert blue is not None and 0 not in blue.mapping
    with pytest.raises(ValueError):
        find_copy(tri, host, None, RED)


def test_embedding_validity_and_dict():
    host = clique(2, 4)
    tri = clique(2, 3)
    emb = find_copy(tri, host)
    assert emb.is_valid(tri, host)
    assert emb.as_dict() == dict(enumerate(emb.mapping))
    bad = Embedding((0, 0, 1))
    assert not bad.is_valid(tri, host)


def test_copy_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_copies(ell_path(2, 1, 5), clique(2, 9), node_cap=10))


def test_color_filter_rejects_a_coloring_of_another_host():
    # colours were zipped to the host's edges by position, so the colouring
    # of a 3-edge path, or of K4, found a red triangle in the triangle
    tri = clique(2, 3)
    for other in (EdgeColoring(ell_path(2, 1, 4), (RED,) * 3),
                  EdgeColoring(clique(2, 4), (RED,) * 6)):
        with pytest.raises(ValueError):
            find_copy(tri, tri, other, RED)
        with pytest.raises(ValueError):
            list(enumerate_copies(tri, tri, other, RED, _masks=True))
        with pytest.raises(ValueError):
            Embedding((0, 1, 2), RED).is_valid(tri, tri, other)
    # a colouring of an equal host object is a colouring of this host
    same = EdgeColoring(clique(2, 3), (RED,) * 3)
    assert find_copy(tri, tri, same, RED) == Embedding((0, 1, 2), RED)


def k9_copy_searches():
    """Copy searches of the path P5 in K9, by name, each taking the budget
    keywords of enumerate_copies; the 3-uniform one is the loose path on 5
    vertices in K7^(3)."""
    path, k9 = ell_path(2, 1, 5), clique(2, 9)
    core, less = path.copy_core()
    coloring = EdgeColoring(k9, tuple(RED if (a + 2 * b) % 3 else BLUE for a, b in k9.edges))
    loose, k7 = ell_path(3, 1, 5), clique(3, 7)
    return {
        "plain": lambda **kw: enumerate_copies(path, k9, **kw),
        "less": lambda **kw: enumerate_copies(core, k9, _less=less, **kw),
        "pins": lambda **kw: enumerate_copies(path, k9, _pins={0: 4, 3: 7}, **kw),
        "red": lambda **kw: enumerate_copies(path, k9, coloring, RED, **kw),
        "3-uniform": lambda **kw: enumerate_copies(loose, k7, _masks=True, **kw),
    }


# candidates tried by each full search, as counted by one spend() per candidate
K9_SEARCH_COUNTS = {"plain": 28_881, "less": 14_436, "pins": 545, "red": 12_177,
                    "3-uniform": 6_601}


@pytest.mark.parametrize("name", sorted(K9_SEARCH_COUNTS))
def test_copy_budget_counts_every_candidate(name):
    search = k9_copy_searches()[name]
    budget = Budget(10**9)
    copies = list(search(_budget=budget))
    assert budget.used == K9_SEARCH_COUNTS[name]
    assert list(search(node_cap=budget.used)) == copies
    short = Budget(budget.used - 1)
    with pytest.raises(BudgetExceededError):
        list(search(_budget=short))
    assert short.used == short.cap + 1  # it raises at the first candidate over the cap


def test_shared_copy_budget_sums_its_searches():
    searches = k9_copy_searches()
    budget = Budget(10**9)
    list(searches["plain"](_budget=budget))
    list(searches["red"](_budget=budget))
    assert budget.used == K9_SEARCH_COUNTS["plain"] + K9_SEARCH_COUNTS["red"]
    # a search paused at a yield while another spends the shared budget
    # resumes with only the room that is left
    def interleaved(cap):
        budget = Budget(cap)
        paused = searches["plain"](_budget=budget)
        next(paused)
        list(searches["pins"](_budget=budget))
        list(paused)
        return budget.used

    both = K9_SEARCH_COUNTS["plain"] + K9_SEARCH_COUNTS["pins"]
    assert interleaved(both) == both
    with pytest.raises(BudgetExceededError):
        interleaved(both - 1)


def test_find_copy_is_charged_up_to_its_first_copy(monkeypatch):
    # the first red C5 takes 18 candidates and the full search 3,761
    k9 = clique(2, 9)
    coloring = EdgeColoring(k9, tuple(RED if (a * b + a) % 6 == 0 else BLUE for a, b in k9.edges))
    spent = []
    spend = Budget.spend

    def counted(self, amount=1):
        spent.append(amount)
        spend(self, amount)

    monkeypatch.setattr(Budget, "spend", counted)
    first = find_copy(cycle(5), k9, coloring, RED)
    assert first is not None and sum(spent) == 18
    assert find_copy(cycle(5), k9, coloring, RED, node_cap=18) == first
    with pytest.raises(BudgetExceededError):
        find_copy(cycle(5), k9, coloring, RED, node_cap=17)


def test_copy_edge_masks_triangle_in_k4():
    tri = clique(2, 3)
    k4 = clique(2, 4)
    masks = copy_edge_masks(tri, k4)
    assert len(masks) == 4  # one per vertex triple
    assert all(bin(m).count("1") == 3 for m in masks)


def test_copy_edge_masks_minimality_and_edge_cases():
    # pattern with an isolated vertex: masks come from the core
    pat = KUniformHypergraph.from_edges(2, 3, [(0, 1)])
    host = clique(2, 3)
    masks = copy_edge_masks(pat, host)
    assert masks == [1, 2, 4]
    # edgeless pattern fits anywhere it has room
    empty2 = KUniformHypergraph.from_edges(2, 2, [])
    assert copy_edge_masks(empty2, host) == [0]
    assert copy_edge_masks(clique(2, 5), host) == []
    # equal popcounts, so no mask contains another: P3 in a triangle-with-pendant
    p3 = ell_path(2, 1, 3)
    h = KUniformHypergraph.from_edges(2, 4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    masks = copy_edge_masks(p3, h)
    for a, b in itertools.combinations(masks, 2):
        assert a & b != a and a & b != b


def small_k_graphs(k, max_n, max_m):
    return st.integers(k, max_n).flatmap(
        lambda n: st.lists(
            st.sampled_from(list(itertools.combinations(range(n), k))),
            max_size=max_m,
            unique=True,
        ).map(lambda es: KUniformHypergraph.from_edges(k, n, es))
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(
    lambda k: st.tuples(small_k_graphs(k, 4, 3), small_k_graphs(k, 6, 8))
))
def test_copy_edge_masks_match_bruteforce(pair):
    pattern, host = pair
    index = {es: i for i, es in enumerate(host.edge_sets)}
    want = {
        sum(1 << index[frozenset(img[v] for v in e)] for e in pattern.edges)
        for img in bruteforce_copies(pattern, host)
    }
    assert copy_edge_masks(pattern, host) == sorted(want)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(
    lambda k: st.tuples(small_k_graphs(k, 5, 4), small_k_graphs(k, 7, 10))
))
def test_enumerate_copies_in_search_order(pair):
    # only neighbours of an anchor's image are tried, yet every copy comes
    # out, ordered by its images along the pattern order as when every host
    # vertex was a candidate at every depth
    pattern, host = pair
    order = _pattern_order(pattern, pattern.degrees())
    want = sorted(bruteforce_copies(pattern, host), key=lambda img: [img[v] for v in order])
    assert list(enumerate_copies(pattern, host)) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(
    lambda k: st.tuples(small_k_graphs(k, 5, 4), small_k_graphs(k, 7, 10))
))
def test_orbit_conditions_keep_the_first_map_of_each_copy(pair):
    # the maps of one copy edge set differ by an automorphism of the core;
    # under the orbit conditions the search yields only the first of them
    pattern, host = pair
    core, less = pattern.copy_core()
    firsts = {}
    for img in enumerate_copies(core, host):
        firsts.setdefault(frozenset(frozenset(img[v] for v in e) for e in core.edges), img)
    assert list(enumerate_copies(core, host, _less=less)) == list(firsts.values())
    masks = copy_edge_masks(pattern, host)
    assert len(set(masks)) == len(masks)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(
    lambda k: st.tuples(small_k_graphs(k, 5, 4), small_k_graphs(k, 7, 10))
))
def test_mask_mode_yields_the_image_bits_of_each_map(pair):
    pattern, host = pair
    core, less = pattern.copy_core()
    index = host.edge_index
    for conditions in ((), less):
        want = [
            sum(1 << index[frozenset(img[v] for v in e)] for e in core.edges)
            for img in enumerate_copies(core, host, _less=conditions)
        ]
        assert list(enumerate_copies(core, host, _less=conditions, _masks=True)) == want


def cycle(n):
    return KUniformHypergraph.from_edges(2, n, [(i, (i + 1) % n) for i in range(n)])


def star(m):
    """K1,m: centre 0, leaves 1..m."""
    return KUniformHypergraph.from_edges(2, m + 1, [(0, i) for i in range(1, m + 1)])


def test_copy_edge_masks_one_map_per_copy():
    # C5 has 10 automorphisms: one map per automorphism tries 14,568 candidates
    assert len(copy_edge_masks(cycle(5), clique(2, 8), node_cap=5_000)) == 672


def test_copy_edge_masks_never_lists_the_group():
    # K1,12 has 12! automorphisms, far too many to list or to enumerate as
    # maps; the leaves are twins, so the orbits take no pinned search, and
    # node_cap bounds the conditioned search, which the orbit conditions
    # keep to the one increasing leaf sequence
    assert copy_edge_masks(star(12), star(12), node_cap=5_000) == [4095]


def test_less_ceilings_leave_room_above_each_image():
    # leaf j of K1,12 must map below the 12 - j leaves after it, so its
    # ceiling leaves it host vertex j alone: the search tries the centre's
    # 13 candidates and one per leaf, 25 in all
    core, less = star(12).copy_core()
    masks = enumerate_copies(core, star(12), node_cap=25, _less=less, _masks=True)
    assert list(masks) == [4095]


def test_copy_plans_do_not_leak_between_searches():
    # the pattern's plan and the host's uncoloured edge map are cached on
    # the objects; every kind of search on them, in any order, must answer
    # as it does on fresh equal objects that hold no cache
    pattern, host = cycle(5), clique(2, 7)
    colors = tuple(RED if (3 * e[0] + e[1]) % 5 < 3 else BLUE for e in host.edges)

    def searches(pattern, host):
        coloring = EdgeColoring(host, colors)
        core, less = pattern.copy_core()
        return {
            "plain": lambda: list(enumerate_copies(pattern, host)),
            "red": lambda: list(enumerate_copies(pattern, host, coloring, RED)),
            "blue": lambda: list(enumerate_copies(pattern, host, coloring, BLUE)),
            "less": lambda: list(enumerate_copies(core, host, _less=less, _masks=True)),
            "pins": lambda: list(enumerate_copies(pattern, host, _pins={0: 3, 2: 6})),
            "self": lambda: list(enumerate_copies(host, host, _pins={0: 1})),
            "host-as-pattern": lambda: find_copy(host, host, coloring, RED),
        }

    shared = searches(pattern, host)
    order = ["red", "plain", "pins", "less", "blue", "self", "plain", "red",
             "host-as-pattern", "less", "pins", "blue", "plain"]
    for name in order:
        fresh = searches(cycle(5), clique(2, 7))
        assert shared[name]() == fresh[name](), name


def test_embedding_is_valid_needs_one_host_vertex_per_pattern_vertex():
    edge, k4 = clique(2, 2), clique(2, 4)
    assert Embedding((0, 1)).is_valid(edge, k4)
    for wrong_length in [(0,), (0, 1, 1), (0, 1, 2)]:
        assert not Embedding(wrong_length).is_valid(edge, k4)
    # an isolated pattern vertex closes no edge but still needs a host vertex
    pendant = KUniformHypergraph.from_edges(2, 3, [(0, 1)])
    assert Embedding((0, 1, 3)).is_valid(pendant, k4)
    for bad in [(0, 1, 4), (0, 1, -1), (0, 1, 1)]:
        assert not Embedding(bad).is_valid(pendant, k4)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(lambda k: small_k_graphs(k, 8, 8)))
def test_pattern_order_follows_the_documented_rule(pattern):
    assert _pattern_order(pattern, pattern.degrees()) == reference_pattern_order(pattern)


@st.composite
def _patterns_with_isolated_vertices(draw):
    k = draw(st.sampled_from((2, 3)))
    core = draw(small_k_graphs(k, 4, 3))
    isolated = draw(st.integers(1, 3))
    # spread the isolated vertices among the core's by a random relabelling
    perm = draw(st.permutations(range(core.n + isolated)))
    pattern = KUniformHypergraph.from_edges(
        k, core.n + isolated, [[perm[v] for v in e] for e in core.edges]
    )
    host = draw(small_k_graphs(k, 8, 10))
    colors = draw(st.lists(st.sampled_from((RED, BLUE)),
                           min_size=host.num_edges, max_size=host.num_edges))
    return pattern, host, EdgeColoring(host, tuple(colors))


@settings(max_examples=100, deadline=None)
@given(_patterns_with_isolated_vertices())
def test_find_copy_places_isolated_vertices_last(case):
    pattern, host, coloring = case
    for color in (None, RED):
        first = next(enumerate_copies(pattern, host, coloring, color), None)
        emb = find_copy(pattern, host, coloring, color)
        assert (emb and emb.mapping) == first


def test_find_copy_isolated_vertices_need_no_search():
    # each isolated vertex tried every host vertex from 0: quadratic candidates
    edge = KUniformHypergraph.from_edges(2, 65_536, [(0, 1)])
    emb = find_copy(edge, edge, node_cap=100)
    assert emb.mapping == tuple(range(65_536))


def test_sparse_host_copies_try_neighbours_only():
    # 1,200 disjoint triangles: a candidate list of every host vertex at every
    # depth would try 3600^2 pairs before the third vertex
    edges = [e for i in range(1200) for e in itertools.combinations(range(3 * i, 3 * i + 3), 2)]
    host = KUniformHypergraph.from_edges(2, 3600, edges)
    copies = list(enumerate_copies(clique(2, 3), host, node_cap=30_000))
    assert len(copies) == 6 * 1200


def test_peel_to_min_degree():
    # star plus a pendant path: peeling at threshold 2 strips the path tail
    h = KUniformHypergraph.from_edges(
        2, 6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)]
    )
    res = peel_to_min_degree(h, 1, 2)
    assert res.removed_edges == 5  # cascade kills everything here
    dense = clique(2, 5)
    res2 = peel_to_min_degree(dense, 1, 3)
    assert res2.removed_edges == 0 and res2.hypergraph == dense
    with pytest.raises(ValueError):
        peel_to_min_degree(h, 0, 2)


def test_peel_keeps_vertex_indices():
    h = KUniformHypergraph.from_edges(2, 5, [(0, 1), (2, 3), (3, 4)])
    res = peel_to_min_degree(h, 1, 2)
    assert res.hypergraph.n == 5


def test_greedy_tree_embed_into_steiner():
    host = greedy_partial_steiner(SteinerParams(2, 3, 15, seed=0)).hypergraph
    peeled = peel_to_min_degree(host, 1, 4).hypergraph
    assert peeled.num_edges > 0
    ok = 0
    for seed in range(30):
        try:
            tree = random_ell_tree(3, 1, 7, seed)
        except UnreachableOrderError:
            continue
        emb = greedy_tree_embed(tree, peeled, 1)
        assert isinstance(emb, Embedding)
        assert emb.is_valid(tree, peeled)
        ok += 1
    assert ok > 0


def test_greedy_tree_embed_failure_report():
    tree = random_ell_tree(3, 1, 5, seed=0)
    tiny = KUniformHypergraph.from_edges(3, 3, [(0, 1, 2)])
    res = greedy_tree_embed(tree, tiny, 1)
    assert isinstance(res, EmbedFailure)
    # the edge fills the host, so isolated tree vertex 3 has no spare host
    # vertex left; the failure comes after every edge is placed
    edge_and_vertex = KUniformHypergraph.from_edges(3, 4, [(0, 1, 2)])
    assert greedy_tree_embed(edge_and_vertex, tiny, 1) == EmbedFailure((3,), 1)


def test_greedy_tree_embed_rejects_non_tree():
    with pytest.raises(ValueError):
        greedy_tree_embed(clique(3, 4), clique(3, 6), 1)
