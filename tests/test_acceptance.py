"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline;
under plain -v the per-test PASSED/FAILED column carries the same signal.
"""

import itertools
import random
import time

import pytest

from ramseyforge.arrow import (
    ArrowResult,
    arrows,
    clique_lift_coloring,
    contract_pair,
    degree_threshold_coloring,
    vhigh_vlow_coloring,
)
from ramseyforge.constructions import (
    binary_three_tree,
    blowup_path_host,
    clique,
    clique_hypergraph,
    disjoint_union,
    ell_path,
    gadget_family,
    greedy_partial_steiner,
    random_ell_tree,
    star_tree,
    SteinerParams,
)
from ramseyforge.embedding import (
    Embedding,
    find_copy,
    greedy_tree_embed,
    peel_to_min_degree,
)
from ramseyforge.errors import UnreachableOrderError
from ramseyforge.hypergraph import (
    BLUE,
    RED,
    EdgeColoring,
    KUniformHypergraph,
    automorphism_count,
    independence_number,
)
from ramseyforge.randomlab import (
    NO_SEED,
    PATH_FOUND,
    GnpParams,
    clique_stats,
    gnp,
    iterated_procedure,
)
from ramseyforge.search import (
    ramsey_number_small,
    size_ramsey_exact_tiny,
    size_ramsey_upper,
)


def _line(num, desc, fn):
    t0 = time.time()
    try:
        fn()
    except BaseException:
        print(f"\ncriterion {num:2d}: FAIL  {desc}")
        raise
    print(f"\ncriterion {num:2d}: PASS  {desc}  ({time.time() - t0:.1f}s)")


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_clique_equality():
    def body():
        k3 = clique(2, 3)
        assert ramsey_number_small(k3, 8) == 6
        assert arrows(clique(2, 6), k3).result == ArrowResult.ARROWS
        v5 = arrows(clique(2, 5), k3)
        assert v5.result == ArrowResult.NOT_ARROWS
        cert = v5.certificate
        assert cert is not None
        assert find_copy(k3, clique(2, 5), cert, RED) is None
        assert find_copy(k3, clique(2, 5), cert, BLUE) is None
        bound = size_ramsey_upper(k3)
        assert bound.upper == 15  # C(6, 2)
        assert bound.witness_host.num_edges == 15

    _line(1, "R(K3)=6, K6->K3, K5-/->K3 certified, size-Ramsey upper 15", body)


# -- 2 ----------------------------------------------------------------------


def _oracle_arrows(host, pattern):
    """Unpruned reference: raw injective copy scan, then all 2^|E| colorings."""
    allowed = set(host.edge_sets)
    index = {es: i for i, es in enumerate(host.edge_sets)}
    masks = set()
    for img in itertools.permutations(range(host.n), pattern.n):
        mask = 0
        for e in pattern.edges:
            es = frozenset(img[v] for v in e)
            if es not in allowed:
                break
            mask |= 1 << index[es]
        else:
            masks.add(mask)
    if not masks:
        return False
    if 0 in masks:
        return True
    for red in range(1 << host.num_edges):
        if not any(cm & red == cm or cm & ~red == cm for cm in masks):
            return False
    return True


def test_criterion_02_arrow_oracle_equivalence():
    def body():
        rng = random.Random(73)
        for trial in range(200):
            k = rng.choice((2, 2, 3))
            hn = rng.randint(k + 1, 7 if k == 2 else 6)
            pool = list(itertools.combinations(range(hn), k))
            hm = rng.randint(0, min(14, len(pool)))
            host = KUniformHypergraph.from_edges(k, hn, rng.sample(pool, hm))
            pn = rng.randint(k, min(hn, k + 2))
            ppool = list(itertools.combinations(range(pn), k))
            pattern = KUniformHypergraph.from_edges(
                k, pn, rng.sample(ppool, rng.randint(1, min(4, len(ppool))))
            )
            v = arrows(host, pattern)
            assert v.result != ArrowResult.UNKNOWN
            assert (v.result == ArrowResult.ARROWS) == _oracle_arrows(
                host, pattern
            ), (host, pattern)

    _line(2, "arrows == unpruned 2^|E| oracle on 200 random pairs", body)


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_path_and_tree_structure():
    def body():
        from ramseyforge.constructions import verify_ell_tree

        for k in range(2, 6):
            for ell in range(1, k):
                step = k - ell
                for n in range(k, 21):
                    if (n - ell) % step:
                        continue
                    h = ell_path(k, ell, n)
                    m = (n - ell) // step
                    assert h.num_edges == m
                    for i, e in enumerate(h.edges):
                        assert e == tuple(range(i * step, i * step + k))
                    assert verify_ell_tree(h, ell)
        built = 0
        seed = 0
        while built < 40:
            k = 3 if built % 2 else 4
            ell = 1 + built % (k - 1)
            m = 2 + built % 4
            n = k + (m - 1) * (k - ell)
            try:
                t = random_ell_tree(k, ell, n, seed)
            except UnreachableOrderError:
                seed += 1
                continue
            assert verify_ell_tree(t, ell)
            built += 1
            seed += 1

    _line(3, "ell-path interval formula (k<=5, n<=20) and tree verification", body)


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_steiner_peel_embed_pipeline():
    def body():
        for t, k, big_n in [(2, 3, 15), (2, 3, 25), (3, 4, 20)]:
            host = greedy_partial_steiner(SteinerParams(t, k, big_n, 0)).hypergraph
            seen = set()
            for e in host.edges:
                for sub in itertools.combinations(e, t):
                    assert sub not in seen
                    seen.add(sub)
        # peel at threshold n, then embed trees of order < n
        host = greedy_partial_steiner(SteinerParams(2, 3, 25, 0)).hypergraph
        n = 7
        peeled = peel_to_min_degree(host, 1, n).hypergraph
        assert peeled.num_edges > 0
        succeeded = tried = 0
        seed = 0
        while tried < 100:
            order = 5 + seed % 2  # feasible loose-tree orders below n
            try:
                tree = random_ell_tree(3, 1, order, seed)
            except UnreachableOrderError:
                seed += 1
                continue
            emb = greedy_tree_embed(tree, peeled, 1)
            tried += 1
            seed += 1
            if isinstance(emb, Embedding) and emb.is_valid(tree, peeled):
                succeeded += 1
        assert succeeded == 100

    _line(4, "Steiner linearity and 100/100 greedy tree embeddings", body)


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_star_lower_bound_coloring():
    def body():
        n = 9
        tree = star_tree(3, n)
        # |E(H)| < ((n-1)/(2k-2))^2 / 3 = 4/3, so 0 or 1 edges
        max_edges = 1
        rng = random.Random(5)
        for _ in range(50):
            hn = rng.randint(n, 12)
            pool = list(itertools.combinations(range(hn), 3))
            h = KUniformHypergraph.from_edges(
                3, hn, rng.sample(pool, rng.randint(0, max_edges))
            )
            col = degree_threshold_coloring(h, n)
            red = col.monochromatic_subgraph(RED)
            assert find_copy(tree, red) is None

    _line(5, "degree-threshold coloring kills red star-tree copies", body)


# -- 6 ----------------------------------------------------------------------


def _mono_free_base(hu, n):
    pattern = clique(3, n)
    for bits in itertools.product((RED, BLUE), repeat=hu.num_edges):
        col = EdgeColoring(hu, bits)
        if (
            find_copy(pattern, hu, col, RED) is None
            and find_copy(pattern, hu, col, BLUE) is None
        ):
            return col
    return None


def test_criterion_06_coloring_lift():
    def body():
        rng = random.Random(61)
        pattern = clique(3, 4)
        checked = 0
        while checked < 50:
            hn = rng.randint(5, 8)
            pool = list(itertools.combinations(range(hn), 3))
            h = KUniformHypergraph.from_edges(
                3, hn, rng.sample(pool, rng.randint(2, 8))
            )
            # the guarantee regime needs deg(u,v) < n^2/32, i.e. 0 at n=4
            pairs = [
                (u, v)
                for u in range(hn)
                for v in range(u + 1, hn)
                if not any({u, v} <= es for es in h.edge_sets)
            ]
            if not pairs:
                continue
            u, v = pairs[rng.randrange(len(pairs))]
            hu = contract_pair(h, u, v).hypergraph
            if hu.num_edges > 10:
                continue
            base = _mono_free_base(hu, 4)
            if base is None:
                continue
            res = clique_lift_coloring(h, u, v, base, 4)
            assert res.warnings == ()
            assert find_copy(pattern, h, res.coloring, RED) is None
            assert find_copy(pattern, h, res.coloring, BLUE) is None
            checked += 1

    _line(6, "lifted colorings stay free of monochromatic K4^(3) (50 runs)", body)


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_gadget_audit():
    def body():
        for t in (1, 2, 3, 4, 5):
            b = binary_three_tree(t)
            assert b.n == 2 ** (t + 1) - 1
            # the automorphism formula counts root-preserving maps
            assert automorphism_count(b, fixed=(0,)) == 2 ** (2**t - 1)
        members, _ = gadget_family(3, 2, seed=0)
        assert all(max(m.degrees()) == 4 for m in members)
        # at t=2 only two non-isomorphic gadgets exist, so q=2 (<= 3)
        small, union = gadget_family(2, 2, seed=0)
        alpha = independence_number(union)
        assert 9 * alpha <= 8 * union.n

    _line(7, "|V(B_t)|, |Aut(B_t)|, gadget degree 4, independence bound", body)


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_vhigh_vlow_coloring():
    def body():
        members, _ = gadget_family(2, 2, seed=0)
        # low part holds gadget copies; an extra apex pushes some vertices high
        base = disjoint_union([members[0], members[0], members[1]])
        extra = [
            (0, 1, base.n),
            (0, 2, base.n),
            (1, 2, base.n),
            (0, 1, base.n + 1),
        ]
        host = KUniformHypergraph.from_edges(
            3, base.n + 2, list(base.edges) + extra
        )
        col, rep = vhigh_vlow_coloring(host, 4, list(members))
        high = set(rep.v_high)
        f = {tuple(sorted(e)) for e in rep.root_edges}
        for es, c in zip(host.edge_sets, col.colors):
            if c == BLUE:
                assert es & high or tuple(sorted(es)) in f
            else:
                assert not (es & high)
                assert tuple(sorted(es)) not in f
        red = col.monochromatic_subgraph(RED)
        assert find_copy(members[rep.selected_index], red) is None

    _line(8, "high/low coloring: no red selected-gadget copy, blue edges tagged", body)


# -- 9 ----------------------------------------------------------------------


def _naive_clique_stats(g, k):
    cliques = [
        q
        for q in itertools.combinations(range(g.n), k)
        if all(g.is_edge(p) for p in itertools.combinations(q, 2))
    ]
    return len(cliques)


def test_criterion_09_accounting_identities():
    def body():
        rng = random.Random(99)
        runs = 0
        while runs < 20:
            n = rng.randint(30, 60)
            p = 2.0 / n**0.55  # keeps triangle counts at desk scale
            graph = gnp(GnpParams(n=n, p=p, seed=runs))
            host = clique_hypergraph(graph, 3)
            if host.num_edges == 0:
                continue
            coloring = EdgeColoring(
                host, tuple(rng.choice((RED, BLUE)) for _ in host.edges)
            )
            acc = iterated_procedure(host, coloring, BLUE, 5)
            assert acc.t_sought + acc.t_other == acc.t_k == host.num_edges
            assert acc.trash_families_disjoint
            assert acc.max_edge_x_count <= host.k
            assert not acc.round_cap_exceeded
            assert acc.rounds[-1].status in (NO_SEED, PATH_FOUND)
            runs += 1
        # exact clique statistics against the all-subsets oracle
        for seed in range(5):
            g = gnp(GnpParams(n=12 + seed, p=0.5, seed=seed))
            assert clique_stats(g, clique_hypergraph(g, 3)).t_k == _naive_clique_stats(g, 3)

    _line(9, "iterated procedure identities on 20 runs; clique-stats oracle", body)


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_blowup_reduction():
    def body():
        p5 = ell_path(2, 1, 5)
        # search small hosts: K6 minus a matching of decreasing size
        found = None
        for drop in (3, 2, 1, 0):
            removed = [(2 * i, 2 * i + 1) for i in range(drop)]
            edges = [
                e
                for e in itertools.combinations(range(6), 2)
                if e not in removed
            ]
            if len(edges) > 12:
                continue
            host = KUniformHypergraph.from_edges(2, 6, edges)
            if arrows(host, p5).result == ArrowResult.ARROWS:
                found = host
                break
        assert found is not None and found.num_edges <= 12
        blown = blowup_path_host(found, 4, 2)
        assert blown.num_edges == found.num_edges
        # matched path length: 4 graph edges -> 4-edge 2-path, order 10
        pattern = ell_path(4, 2, 10)
        assert pattern.num_edges == p5.num_edges
        assert arrows(blown, pattern).result == ArrowResult.ARROWS

    _line(10, "graph host arrows P5 and its blowup arrows the 2-path", body)


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_size_ramsey_sanity():
    def body():
        for k in (2, 3, 4):
            single = KUniformHypergraph.from_edges(k, k, [tuple(range(k))])
            bound = size_ramsey_exact_tiny(single, vcap=k + 1, ecap=2)
            assert bound.lower == bound.upper == 1
            v = arrows(bound.witness_host, single)
            assert v.result == ArrowResult.ARROWS
        for pattern in (clique(2, 3), ell_path(2, 1, 3), ell_path(3, 2, 4)):
            bound = size_ramsey_upper(pattern)
            assert bound.lower >= pattern.num_edges
            if bound.upper is not None:
                v = arrows(bound.witness_host, pattern)
                assert v.result == ArrowResult.ARROWS

    _line(11, "exact tiny single-edge value and bound sanity with reverification", body)
