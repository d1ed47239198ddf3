import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ramseyforge.arrow as arrow_module
from ramseyforge.arrow import (
    ArrowResult,
    arrows,
    clique_lift_coloring,
    contract_pair,
    degree_threshold_coloring,
    vhigh_vlow_coloring,
)
from ramseyforge.constructions import (
    clique,
    disjoint_union,
    ell_path,
    gadget_family,
    star_tree,
)
from ramseyforge.embedding import enumerate_copies, find_copy
from ramseyforge.errors import Budget, BudgetExceededError, InvalidBaseColoringError
from ramseyforge.hypergraph import (
    BLUE,
    RED,
    EdgeColoring,
    KUniformHypergraph,
    automorphism_count,
)


def oracle_masks(host, pattern):
    """Edge bitmasks of all copies, found by trying every raw injection."""
    allowed = set(host.edge_sets)
    index = {es: i for i, es in enumerate(host.edge_sets)}
    masks = set()
    for img in itertools.permutations(range(host.n), pattern.n):
        mask = 0
        good = True
        for e in pattern.edges:
            es = frozenset(img[v] for v in e)
            if es not in allowed:
                good = False
                break
            mask |= 1 << index[es]
        if good:
            masks.add(mask)
    return masks


def oracle_arrows(host, pattern):
    """Unpruned reference decision: the copy masks of oracle_masks, then
    a walk over all 2^|E| colorings."""
    masks = oracle_masks(host, pattern)
    if not masks:
        return False
    if 0 in masks:
        return True
    m = host.num_edges
    for red in range(1 << m):
        blue = ~red
        if not any(cm & red == cm or cm & blue == cm for cm in masks):
            return False
    return True


def test_known_arrow_values():
    k3 = clique(2, 3)
    assert arrows(clique(2, 6), k3).result == ArrowResult.ARROWS
    v5 = arrows(clique(2, 5), k3)
    assert v5.result == ArrowResult.NOT_ARROWS
    assert v5.certificate is not None
    # path arrows: P3 needs more than P3 itself
    p3 = ell_path(2, 1, 3)
    assert arrows(p3, p3).result == ArrowResult.NOT_ARROWS
    # any two same-colored triangle edges share a vertex, so K3 -> P3
    assert arrows(clique(2, 3), p3).result == ArrowResult.ARROWS
    matching = KUniformHypergraph.from_edges(2, 6, [(0, 1), (2, 3), (4, 5)])
    assert arrows(matching, p3).result == ArrowResult.NOT_ARROWS


def test_empty_host_not_arrows_with_all_red_certificate():
    host = KUniformHypergraph.from_edges(3, 4, [])
    pattern = KUniformHypergraph.from_edges(3, 3, [(0, 1, 2)])
    v = arrows(host, pattern)
    assert v.result == ArrowResult.NOT_ARROWS
    assert v.certificate.colors == ()


def test_edgeless_pattern_always_arrows():
    pattern = KUniformHypergraph.from_edges(2, 2, [])
    host = clique(2, 3)
    assert arrows(host, pattern).result == ArrowResult.ARROWS


def test_uniformity_mismatch():
    with pytest.raises(ValueError):
        arrows(clique(2, 4), clique(3, 4))


def cycle(n):
    return KUniformHypergraph.from_edges(2, n, [(i, (i + 1) % n) for i in range(n)])


K4_MINUS_E = KUniformHypergraph.from_edges(2, 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
K2_3 = KUniformHypergraph.from_edges(2, 5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])


def test_unknown_on_tiny_budget():
    # orbital branching decides K6 -> K3 in 3 nodes; K10 -> K4-e needs more
    v = arrows(clique(2, 10), K4_MINUS_E, node_cap=3)
    assert v.result == ArrowResult.UNKNOWN


@pytest.mark.parametrize("n, pattern", [(9, cycle(5)), (10, K4_MINUS_E)])
def test_ramsey_hosts_decided_within_default_cap(n, pattern):
    # R(C5) = 9 and R(K4-e) = 10; the mask-scanning search left K10 -> K4-e
    # Unknown after 3M nodes
    assert arrows(clique(2, n), pattern).result == ArrowResult.ARROWS


def plain_host(host):
    """host plus one isolated vertex: the same edges in the same order, so
    the same copy masks, but not complete, so no orbital branching."""
    return KUniformHypergraph.from_edges(host.k, host.n + 1, host.edges)


def minus_edges(host, drop):
    return KUniformHypergraph.from_edges(
        host.k, host.n, [e for e in host.edges if e not in drop]
    )


@pytest.mark.parametrize("host, pattern, result, nodes, cap", [
    # complete hosts branch on orbits, ties in colex order; the counts in
    # index order follow, then the plain search's
    (clique(2, 9), cycle(5), ArrowResult.ARROWS, 335, None),  # 329; 2,942
    (clique(2, 10), K4_MINUS_E, ArrowResult.ARROWS, 538, None),  # 1,406; 31,347
    (clique(2, 8), cycle(6), ArrowResult.ARROWS, 4_508, None),  # 4,983; 23,478
    (clique(2, 9), K2_3, ArrowResult.NOT_ARROWS, 1_093, None),  # 4,297; 17,972
    (clique(2, 10), cycle(7), ArrowResult.NOT_ARROWS, 22, None),  # 1,110; 1,110
    (clique(2, 11), cycle(7), ArrowResult.NOT_ARROWS, 23, 3_000),  # 2,402
    # other hosts search node for node as without orbital branching
    (plain_host(clique(2, 9)), cycle(5), ArrowResult.ARROWS, 2_942, None),
    (minus_edges(clique(2, 9), [(0, 1)]), cycle(5), ArrowResult.ARROWS, 3_050, None),
    (
        minus_edges(clique(2, 8), [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2)]),
        cycle(5),
        ArrowResult.NOT_ARROWS,
        17,
        None,
    ),
], ids=[
    "K9-C5", "K10-K4e", "K8-C6", "K9-K23", "K10-C7", "K11-C7", "K9+1-C5", "K9-1-C5",
    "K8-5-C5",
])
def test_node_counts_are_pinned(host, pattern, result, nodes, cap):
    v = arrows(host, pattern) if cap is None else arrows(host, pattern, node_cap=cap)
    assert (v.result, v.nodes) == (result, nodes)


def seeded_arrow_corpus():
    """About 150 seeded arrows calls: complete and non-complete hosts,
    k = 2 and 3, node caps of 1 to 3 as well as the default."""
    rng = random.Random(2109)
    for i in range(150):
        k = 3 if i % 3 == 0 else 2
        host = clique(k, rng.randint(k + 2, 6 if k == 3 else 8))
        if i % 2:
            drop = rng.sample(host.edges, rng.randint(1, 3))
            host = minus_edges(host, drop)
        pn = rng.randint(k + 1, k + 3)
        ppool = list(itertools.combinations(range(pn), k))
        pattern = KUniformHypergraph.from_edges(
            k, pn, rng.sample(ppool, rng.randint(2, min(6, len(ppool))))
        )
        cap = rng.choice((1, 2, 3, None, None))
        yield host, pattern, cap


def test_seeded_corpus_is_pinned():
    # verdicts, node counts and certificates of the corpus, as one digest
    entries = []
    for host, pattern, cap in seeded_arrow_corpus():
        v = arrows(host, pattern) if cap is None else arrows(host, pattern, node_cap=cap)
        colors = v.certificate.colors if v.certificate else None
        entries.append((v.result.value, v.nodes, colors))
    assert len(entries) == 150
    assert len({e[0] for e in entries}) == 3
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()[:16]
    assert digest == "f65f049f8a43837c"


def test_k10_k4e_fits_the_frontier_budget():
    # the node budget of the benchmark's K10-K4e-budget query
    assert arrows(clique(2, 10), K4_MINUS_E, node_cap=6_000).result == ArrowResult.ARROWS


def test_k10_k23_arrows_under_the_default_caps():
    # R(K2,3) = 10; the plain search was Unknown after 300,000 nodes
    start = time.perf_counter()
    assert arrows(clique(2, 10), K2_3).result == ArrowResult.ARROWS
    assert time.perf_counter() - start < 60


def has_cycle(n, edges, length):
    """A cycle of the given length, by a plain depth-first search from each
    vertex over the larger vertices, back to the start."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for start in range(n):
        stack = [(start, (start,))]
        while stack:
            v, path = stack.pop()
            if len(path) == length:
                if start in adj[v]:
                    return True
                continue
            stack.extend((w, path + (w,)) for w in adj[v] if w > start and w not in path)
    return False


def test_k12_c7_not_arrows_under_the_default_caps():
    # with ties in index order this took 285,753 nodes; colex ties take 60
    start = time.perf_counter()
    v = arrows(clique(2, 12), cycle(7))
    assert time.perf_counter() - start < 10
    assert v.result == ArrowResult.NOT_ARROWS
    for color in (RED, BLUE):
        edges = [e for e, c in zip(v.certificate.host.edges, v.certificate.colors) if c == color]
        assert not has_cycle(12, edges, 7)
    assert has_cycle(12, v.certificate.host.edges, 7)


def test_propagation_shrinks_the_k8_c5_tree():
    # the search that scanned every mask at every node needed 23,001 nodes
    v = arrows(clique(2, 8), cycle(5))
    assert v.result == ArrowResult.NOT_ARROWS
    assert v.nodes < 23_001


def test_many_disjoint_triangles_not_arrows():
    # 1,200 components, each its own decisions: a recursive search would
    # nest about 2,400 levels deep, and a copy search trying every host
    # vertex at every depth would need over 10^7 candidates for the masks
    edges = [e for i in range(1200) for e in itertools.combinations(range(3 * i, 3 * i + 3), 2)]
    host = KUniformHypergraph.from_edges(2, 3600, edges)
    start = time.perf_counter()
    v = arrows(host, clique(2, 3), copy_node_cap=100_000)
    assert time.perf_counter() - start < 1.0
    assert v.result == ArrowResult.NOT_ARROWS
    assert find_copy(clique(2, 3), host, v.certificate, RED) is None
    assert find_copy(clique(2, 3), host, v.certificate, BLUE) is None


def test_tiny_copy_node_cap_bounds_the_orbit_searches(monkeypatch):
    # building the orbit conditions of C5 tries 48 candidates; under a cap
    # of 20 it stops at the 21st, arrows gives Unknown and nothing is
    # cached, so a later call with room for the work decides
    spent = []
    spend = Budget.spend

    def counted(self, amount=1):
        spent.append(amount)
        spend(self, amount)

    monkeypatch.setattr(Budget, "spend", counted)
    c5 = cycle(5)
    assert arrows(clique(2, 9), c5, copy_node_cap=20).result == ArrowResult.UNKNOWN
    assert sum(spent) == 21
    with pytest.raises(BudgetExceededError):
        c5.copy_core(20)
    assert arrows(clique(2, 9), c5).result == ArrowResult.ARROWS


def test_certificate_check_runs_under_copy_node_cap(monkeypatch):
    caps = []

    def exhausted(pattern, host, coloring, color, node_cap):
        caps.append(node_cap)
        raise BudgetExceededError("copy search budget exceeded")

    monkeypatch.setattr(arrow_module, "find_copy", exhausted)
    v = arrows(clique(2, 5), clique(2, 3), copy_node_cap=1234)
    assert v.result == ArrowResult.UNKNOWN
    assert caps == [1234]


@st.composite
def arrow_pairs(draw, k):
    hn = draw(st.integers(k, 6 if k == 3 else 7))
    pool = list(itertools.combinations(range(hn), k))
    host_edges = draw(st.lists(st.sampled_from(pool), max_size=12, unique=True))
    pn = draw(st.integers(k, k + 2))
    ppool = list(itertools.combinations(range(pn), k))
    pattern_edges = draw(st.lists(st.sampled_from(ppool), max_size=4, unique=True))
    return (
        KUniformHypergraph.from_edges(k, hn, host_edges),
        KUniformHypergraph.from_edges(k, pn, pattern_edges),
    )


@pytest.mark.parametrize("k", [2, 3])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_arrows_matches_exhaustive_colorings(k, data):
    host, pattern = data.draw(arrow_pairs(k))
    v = arrows(host, pattern)
    assert v.result == (
        ArrowResult.ARROWS if oracle_arrows(host, pattern) else ArrowResult.NOT_ARROWS
    )
    if v.result == ArrowResult.NOT_ARROWS:
        red = sum(1 << i for i, c in enumerate(v.certificate.colors) if c == RED)
        blue = sum(1 << i for i, c in enumerate(v.certificate.colors) if c == BLUE)
        covered = 0
        for cm in oracle_masks(host, pattern):
            assert cm & red != cm and cm & blue != cm
            covered |= cm
        assert not blue & ~covered  # edges in no copy stay red


def test_certificate_swap_is_also_valid():
    v = arrows(clique(2, 5), clique(2, 3))
    cert = v.certificate
    host, pattern = clique(2, 5), clique(2, 3)
    for c in (cert, cert.swapped()):
        assert find_copy(pattern, host, c, RED) is None
        assert find_copy(pattern, host, c, BLUE) is None


@pytest.mark.parametrize("core_n, expected", [
    (3, ArrowResult.NOT_ARROWS),
    (6, ArrowResult.ARROWS),
])
def test_sparse_host_colors_only_covered_edges(core_n, expected):
    # 1,200 isolated edges first, then a clique: a DFS over every edge
    # would recurse 1,200 levels deep before it reached the clique
    isolated = [(2 * i, 2 * i + 1) for i in range(1200)]
    core = [(2400 + a, 2400 + b) for a, b in clique(2, core_n).edges]
    host = KUniformHypergraph.from_edges(2, 2400 + core_n, isolated + core)
    v = arrows(host, clique(2, 3))
    assert v.result == expected
    if expected == ArrowResult.NOT_ARROWS:
        assert v.certificate.colors[:1200] == (RED,) * 1200
        assert find_copy(clique(2, 3), host, v.certificate, RED) is None
        assert find_copy(clique(2, 3), host, v.certificate, BLUE) is None


def test_certificate_check_survives_optimize_flag():
    # with masks dropped the search returns a colouring that still has a
    # monochromatic triangle; the certificate check must catch it under -O
    code = """
import ramseyforge.arrow as arrow
from ramseyforge.constructions import clique
full = arrow.copy_edge_masks
arrow.copy_edge_masks = lambda pattern, host, cap: full(pattern, host, cap)[:1]
arrow.arrows(clique(2, 6), clique(2, 3))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode != 0
    assert "AssertionError" in proc.stderr


def test_monotonicity_spot_check():
    # adding edges can only help the arrowing
    p3 = ell_path(2, 1, 3)
    base = clique(2, 5)
    assert arrows(base, p3).result == ArrowResult.ARROWS
    more = KUniformHypergraph.from_edges(
        2, 6, list(base.edges) + [(0, 5), (1, 5)]
    )
    assert arrows(more, p3).result == ArrowResult.ARROWS


def random_pair(rng):
    k = rng.choice((2, 2, 3))
    hn = rng.randint(k + 1, 6 if k == 3 else 7)
    hm = rng.randint(0, min(14, len(list(itertools.combinations(range(hn), k)))))
    pool = list(itertools.combinations(range(hn), k))
    host = KUniformHypergraph.from_edges(k, hn, rng.sample(pool, hm))
    pn = rng.randint(k, min(hn, k + 2))
    ppool = list(itertools.combinations(range(pn), k))
    pm = rng.randint(1, min(4, len(ppool)))
    pattern = KUniformHypergraph.from_edges(k, pn, rng.sample(ppool, pm))
    return host, pattern


def test_arrows_matches_bruteforce_oracle():
    rng = random.Random(20240817)
    for _ in range(200):
        host, pattern = random_pair(rng)
        v = arrows(host, pattern)
        assert v.result != ArrowResult.UNKNOWN
        expected = oracle_arrows(host, pattern)
        assert (v.result == ArrowResult.ARROWS) == expected, (host, pattern)
        if v.result == ArrowResult.NOT_ARROWS:
            assert find_copy(pattern, host, v.certificate, RED) is None
            assert find_copy(pattern, host, v.certificate, BLUE) is None


def random_pattern(rng, k, max_n):
    pn = rng.randint(k + 1, min(max_n, k + 3))
    ppool = list(itertools.combinations(range(pn), k))
    return KUniformHypergraph.from_edges(
        k, pn, rng.sample(ppool, rng.randint(2, min(6, len(ppool))))
    )


@pytest.mark.parametrize("host", [
    clique(2, 4), clique(2, 5), clique(2, 6), clique(3, 4), clique(3, 5),
], ids=lambda h: f"K{h.n}^{h.k}")
def test_complete_hosts_match_bruteforce_oracle(host):
    # the random hosts above are seldom complete, so seldom branch on orbits
    rng = random.Random(100 * host.n + host.k)
    for _ in range(12):
        pattern = random_pattern(rng, host.k, host.n)
        v = arrows(host, pattern)
        assert (v.result == ArrowResult.ARROWS) == oracle_arrows(host, pattern), pattern
        if v.result == ArrowResult.NOT_ARROWS:
            assert find_copy(pattern, host, v.certificate, RED) is None
            assert find_copy(pattern, host, v.certificate, BLUE) is None


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_orbital_branching_matches_the_plain_search(data):
    k = data.draw(st.sampled_from((2, 3)))
    host = clique(k, data.draw(st.integers(k + 1, 8)))
    pn = data.draw(st.integers(k, min(host.n, k + 3)))
    ppool = list(itertools.combinations(range(pn), k))
    pattern = KUniformHypergraph.from_edges(
        k, pn, data.draw(st.lists(st.sampled_from(ppool), min_size=1, max_size=5, unique=True))
    )
    orbital = arrows(host, pattern)
    plain = arrows(plain_host(host), pattern)
    assert orbital.result == plain.result != ArrowResult.UNKNOWN
    for h, v in ((host, orbital), (plain_host(host), plain)):
        if v.result == ArrowResult.NOT_ARROWS:
            assert find_copy(pattern, h, v.certificate, RED) is None
            assert find_copy(pattern, h, v.certificate, BLUE) is None


def proper_colorings(masks):
    """Every blue set over the covered edges that leaves each mask
    bichromatic, by a walk over all 2^E subsets."""
    covered = 0
    for cm in masks:
        covered |= cm
    blue = 0
    while True:
        if all(cm & blue and cm & ~blue for cm in masks):
            yield blue
        if blue == covered:
            return
        blue = (blue - covered) & covered  # the next subset of covered


@st.composite
def raw_mask_sets(draw):
    edges = draw(st.lists(st.integers(0, 15), min_size=1, max_size=12, unique=True))
    masks = draw(st.lists(
        st.sets(st.sampled_from(edges), min_size=1, max_size=5), min_size=1, max_size=20
    ))
    return [sum(1 << e for e in m) for m in masks]


@settings(max_examples=300, deadline=None)
@given(masks=raw_mask_sets(), cap=st.integers(1, 1 << 12))
def test_two_color_matches_the_exhaustive_walk(masks, cap):
    budget = Budget(cap)
    try:
        blue = arrow_module._two_color(masks, budget)
    except BudgetExceededError:
        assert budget.used == cap + 1
        return
    assert budget.used <= cap
    if blue is None:
        assert next(proper_colorings(masks), None) is None
    else:
        assert all(cm & blue and cm & ~blue for cm in masks)
        assert blue in set(proper_colorings(masks))  # no uncovered edge is blue


@settings(max_examples=100, deadline=None)
@given(masks=raw_mask_sets(), cap=st.integers(1, 1 << 12), chunk=st.integers(1, 6))
def test_two_color_is_the_same_in_any_transpose_chunks(masks, cap, chunk):
    def run():
        budget = Budget(cap)
        try:
            return arrow_module._two_color(masks, budget), budget.used
        except BudgetExceededError:
            return None, budget.used

    whole = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arrow_module, "_CHUNK", chunk)
        assert run() == whole


def test_two_color_transpose_memory_is_one_chunk():
    # 100,000 masks over 66 edges took about 20 MB of bin() text at once
    # when the transpose was one pass; a chunk of 4,096 takes about 1 MB
    rng = random.Random(7)
    masks = [rng.getrandbits(66) | 1 << 65 for _ in range(100_000)]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            arrow_module._two_color(masks, Budget(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def star_masks(n):
    """The copy masks of K1,3 in K_n, and the vertex bitmask of each edge."""
    host = clique(2, n)
    index = {e: i for i, e in enumerate(host.edges)}
    masks = [
        sum(1 << index[tuple(sorted((c, x)))] for x in leaves)
        for c in range(n)
        for leaves in itertools.combinations([x for x in range(n) if x != c], 3)
    ]
    return masks, [sum(1 << v for v in e) for e in host.edges]


def test_blue_orbit_closing_a_mask_is_a_conflict():
    # K6 -> K1,3: beside the red (0, 1), the first blue orbit is the four
    # edges (0, x), x > 1, and its own edges hold four stars, so the step
    # that queues them all blue must find those stars monochromatic
    masks, edge_vertices = star_masks(6)
    budget = Budget(100)
    assert arrow_module._two_color(masks, budget, edge_vertices) is None
    assert budget.used == 2
    assert next(proper_colorings(masks), None) is None
    # K5 does not arrow K1,3
    masks, edge_vertices = star_masks(5)
    blue = arrow_module._two_color(masks, Budget(100), edge_vertices)
    assert blue in set(proper_colorings(masks))


# -- degree threshold -------------------------------------------------------


def test_degree_threshold_all_degree_one_is_red():
    h = KUniformHypergraph.from_edges(3, 6, [(0, 1, 2), (3, 4, 5)])
    c = degree_threshold_coloring(h, 9)
    assert all(col == RED for col in c.colors)


def test_degree_threshold_blocks_red_star():
    # any red copy of the star would need a red center of degree >= (n-1)/(2k-2)
    n = 9
    tree = star_tree(3, n)
    rng = random.Random(4)
    for _ in range(20):
        hn = rng.randint(9, 12)
        pool = list(itertools.combinations(range(hn), 3))
        hm = rng.randint(0, 5)  # below ((n-1)/(2k-2))^2 / 3 = 16/3
        h = KUniformHypergraph.from_edges(3, hn, rng.sample(pool, hm))
        col = degree_threshold_coloring(h, n)
        red = col.monochromatic_subgraph(RED)
        assert find_copy(tree, red) is None


# -- contraction and lift ----------------------------------------------------


def test_contract_pair_rules():
    # edge through v only: rerouted through u
    h1 = KUniformHypergraph.from_edges(3, 4, [(1, 2, 3)])  # v=1, u=0
    r1 = contract_pair(h1, 0, 1)
    assert r1.hypergraph.edges == ((0, 1, 2),)
    # duplicate after rerouting collapses
    h2 = KUniformHypergraph.from_edges(3, 4, [(0, 2, 3), (1, 2, 3)])
    r2 = contract_pair(h2, 0, 1)
    assert r2.hypergraph.num_edges == 1
    # edge containing both endpoints is dropped
    h3 = KUniformHypergraph.from_edges(3, 4, [(0, 1, 2)])
    r3 = contract_pair(h3, 0, 1)
    assert r3.hypergraph.num_edges == 0
    with pytest.raises(ValueError):
        contract_pair(clique(2, 4), 0, 1)


def find_mono_free_base(hu, n):
    pattern = clique(3, n)
    for bits in itertools.product((RED, BLUE), repeat=hu.num_edges):
        col = EdgeColoring(hu, bits)
        if (
            find_copy(pattern, hu, col, RED) is None
            and find_copy(pattern, hu, col, BLUE) is None
        ):
            return col
    return None


def test_lift_copies_base_when_v_isolated():
    h = KUniformHypergraph.from_edges(3, 5, [(0, 1, 2), (1, 2, 3)])  # v=4 unused
    hu = contract_pair(h, 0, 4).hypergraph
    base = find_mono_free_base(hu, 4)
    res = clique_lift_coloring(h, 0, 4, base, 4)
    for es, c in zip(h.edge_sets, res.coloring.colors):
        assert c == base.color_of(es)


def test_lift_rejects_mono_base():
    h = clique(3, 6)
    hu = contract_pair(h, 0, 1).hypergraph
    bad = EdgeColoring(hu, tuple(RED for _ in hu.edges))
    with pytest.raises(InvalidBaseColoringError):
        clique_lift_coloring(h, 0, 1, bad, 4)


def test_lift_rule_iii_opposes_block_color():
    h = clique(3, 5)
    hu = contract_pair(h, 0, 1).hypergraph
    base = find_mono_free_base(hu, 4)
    assert base is not None
    res = clique_lift_coloring(h, 0, 1, base, 4)
    part = res.partition
    block_of = {}
    for i, blk in enumerate(part.blocks):
        for x in blk:
            block_of[x] = i
    for es, c in zip(h.edge_sets, res.coloring.colors):
        if {0, 1} <= es:
            (x,) = es - {0, 1}
            if x in block_of:
                assert c != part.block_colors[block_of[x]]
            else:
                assert c == RED


def test_lift_preserves_mono_freeness_small():
    # deg(u,v)=0 pairs keep the guarantee regime of the construction
    rng = random.Random(11)
    pattern = clique(3, 4)
    checked = 0
    while checked < 15:
        hn = rng.randint(5, 7)
        pool = list(itertools.combinations(range(hn), 3))
        h = KUniformHypergraph.from_edges(3, hn, rng.sample(pool, rng.randint(2, 7)))
        pairs = [
            (u, v)
            for u in range(hn)
            for v in range(u + 1, hn)
            if not any({u, v} <= es for es in h.edge_sets)
        ]
        if not pairs:
            continue
        u, v = pairs[0]
        hu = contract_pair(h, u, v).hypergraph
        base = find_mono_free_base(hu, 4)
        if base is None:
            continue
        res = clique_lift_coloring(h, u, v, base, 4)
        assert res.warnings == ()
        col = res.coloring
        assert find_copy(pattern, h, col, RED) is None
        assert find_copy(pattern, h, col, BLUE) is None
        checked += 1


# -- vhigh/vlow ---------------------------------------------------------------


def test_vhigh_vlow_partition_properties():
    members, _ = gadget_family(2, 2, seed=0)
    host = disjoint_union([members[0], members[1], members[0]])
    col, rep = vhigh_vlow_coloring(host, 4, list(members))
    high = set(rep.v_high)
    f = {tuple(sorted(e)) for e in rep.root_edges}
    for es, c in zip(host.edge_sets, col.colors):
        e = tuple(sorted(es))
        if c == BLUE:
            assert es & high or e in f
        else:
            assert not (es & high) and e not in f
    # the red part has no copy of the selected gadget
    red = col.monochromatic_subgraph(RED)
    assert find_copy(members[rep.selected_index], red) is None


def reference_vhigh_vlow(h, d, gadgets):
    """The coloring as computed before the copy search broke symmetries:
    every copy map is enumerated and repeats of an image edge set are
    dropped by a seen set."""
    deg = h.degrees()
    v_high = tuple(sorted(x for x in range(h.n) if deg[x] >= d))
    v_low = sorted(set(range(h.n)) - set(v_high))
    h_low = h.induced(v_low)
    counts = []
    roots_per_gadget = []
    for g in gadgets:
        g_root = next(e for e in g.edges if 0 in e)
        seen = set()
        roots = set()
        for mapping in enumerate_copies(g, h_low):
            image = frozenset(frozenset(mapping[x] for x in e) for e in g.edges)
            if image in seen:
                continue
            seen.add(image)
            roots.add(frozenset(v_low[mapping[x]] for x in g_root))
        counts.append(len(seen))
        roots_per_gadget.append(roots)
    selected = min(range(len(gadgets)), key=lambda i: (counts[i], i))
    f_edges = roots_per_gadget[selected]
    high = set(v_high)
    colors = tuple(BLUE if (es & high or es in f_edges) else RED for es in h.edge_sets)
    root_edges = tuple(sorted(tuple(sorted(e)) for e in f_edges))
    return colors, v_high, tuple(counts), selected, root_edges


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_vhigh_vlow_matches_seen_dedupe(seed):
    rng = random.Random(seed)
    members, _ = gadget_family(3, 2, seed)
    # one member has a non-trivial automorphism, so the seen loop drops maps
    assert max(automorphism_count(g) for g in members) == 2
    parts = [members[0], members[1], members[rng.randrange(2)]]
    base = disjoint_union(parts)
    # shuffle the labels and add a few random edges, some on high-degree vertices
    perm = list(range(base.n))
    rng.shuffle(perm)
    edges = [tuple(perm[v] for v in e) for e in base.edges]
    edges += [rng.sample(range(base.n), 3) for _ in range(8)]
    host = KUniformHypergraph.from_edges(3, base.n, edges)
    assert min(vhigh_vlow_coloring(host, 99, list(members))[1].copy_counts) >= 1
    for d in (4, 5, 6, 99):
        col, rep = vhigh_vlow_coloring(host, d, list(members))
        colors, v_high, counts, selected, root_edges = reference_vhigh_vlow(
            host, d, list(members)
        )
        assert col.colors == colors
        assert (rep.v_high, rep.copy_counts, rep.selected_index, rep.root_edges) == (
            v_high, counts, selected, root_edges
        )
