import itertools
import math
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from ramseyforge import randomlab
from ramseyforge.constructions import clique_hypergraph
from ramseyforge.hypergraph import BLUE, RED, EdgeColoring, KUniformHypergraph
from ramseyforge.randomlab import (
    NO_SEED,
    PATH_FOUND,
    TRASH_FULL,
    AccountingReport,
    GnpParams,
    ProcedureState,
    RoundRecord,
    clique_stats,
    default_alpha,
    default_beta,
    gnp,
    grow_monochromatic_tight_path,
    iterated_procedure,
    lambda_constant,
    nu_constant,
    property_check,
)


def naive_clique_stats(g, k, a_set=(), b_family=(), c_set=()):
    """All-subsets reference for the clique statistics: (t_ell, deg_k, t_k,
    x, y, z)."""
    a = set(a_set)
    c = set(c_set)
    family = [frozenset(b) for b in b_family]
    inside = a | {v for b in family for v in b}
    t_ell = {}
    for ell in range(1, k + 1):
        cliques = [
            set(q)
            for q in itertools.combinations(range(g.n), ell)
            if all(g.is_edge(p) for p in itertools.combinations(q, 2))
        ]
        t_ell[ell] = len(cliques)
    deg_k = [sum(1 for q in cliques if v in q) for v in range(g.n)]
    x = y = z = 0
    for q in cliques:
        if q & c:
            z += 1
        member = next((b for b in family if b <= q), None)
        if member is not None:
            (w,) = q - member
            if w in inside:
                y += 1
            else:
                x += 1
    return t_ell, deg_k, len(cliques), x, y, z


def test_gnp_params_resolution():
    p = GnpParams(n=32, d=1.0, k=3)
    assert math.isclose(default_beta(3), 1.0 / 2)
    assert math.isclose(default_alpha(3), 1.0 / 2)
    assert math.isclose(p.resolved_p(), (5 / 32) ** 0.5)
    # explicit p wins
    assert GnpParams(n=32, p=0.25, d=9.0).resolved_p() == 0.25
    with pytest.raises(ValueError):
        GnpParams(n=10).resolved_p()
    with pytest.raises(ValueError):
        GnpParams(n=4, d=50.0).resolved_p()  # formula value above 1
    with pytest.raises(ValueError):
        GnpParams(n=10, p=1.5).resolved_p()


def test_constants():
    assert math.isclose(nu_constant(3, 2.0), (1.5**3) * 8 / 2)
    assert math.isclose(lambda_constant(3, 2.0), 0.25 * 8 / 2)
    assert math.isclose(default_beta(4), 1 / 4)
    assert math.isclose(default_alpha(4), 1 / 2)


def test_gnp_is_seeded_and_plausible():
    a = gnp(GnpParams(n=25, p=0.3, seed=9))
    b = gnp(GnpParams(n=25, p=0.3, seed=9))
    assert a == b
    c = gnp(GnpParams(n=25, p=0.3, seed=10))
    assert a != c
    assert a.k == 2 and a.n == 25
    assert gnp(GnpParams(n=10, p=0.0, seed=0)).num_edges == 0
    assert gnp(GnpParams(n=10, p=1.0, seed=0)).num_edges == math.comb(10, 2)


def test_clique_stats_no_cliques():
    c5 = KUniformHypergraph.from_edges(
        2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    )
    st = clique_stats(c5, clique_hypergraph(c5, 3))
    assert st.t_k == 0 and st.x_ab == 0 and st.y_ab == 0 and st.z_c == 0
    assert st.t_ell == {1: 5, 2: 5, 3: 0}


def test_clique_stats_matches_naive_oracle():
    rng = random.Random(7)
    for k in (2, 3, 4):
        for trial in range(8):
            n = rng.randint(8, 15)
            g = gnp(GnpParams(n=n, p=0.45, seed=trial))
            if k == 2:
                # two adjacent members: the only way one clique holds two
                family = [frozenset(g.edges[0][:1]), frozenset(g.edges[0][1:])]
            else:
                pool = [frozenset(q) for q in itertools.combinations(range(n), k - 1)
                        if all(g.is_edge(p) for p in itertools.combinations(q, 2))]
                rng.shuffle(pool)
                family = []
                for b in pool:
                    if len(family) < 2 and not any(b & f for f in family):
                        family.append(b)
            assert family
            used = set().union(*family)
            outside = [v for v in range(n) if v not in used]
            a_set = rng.sample(outside, min(2, len(outside)))
            c_set = rng.sample(range(n), 3)
            st = clique_stats(g, clique_hypergraph(g, k), a_set, family, c_set)
            t_ell, deg_k, t_k, x, y, z = naive_clique_stats(g, k, a_set, family, c_set)
            assert st.t_ell == t_ell and st.deg_k == deg_k and st.t_k == t_k
            assert (st.x_ab, st.y_ab, st.z_c) == (x, y, z)
            assert st.x_ab + st.y_ab == sum(
                1
                for q in itertools.combinations(range(n), k)
                if all(g.is_edge(p) for p in itertools.combinations(q, 2))
                and any(b <= set(q) for b in family)
            )
            assert st.z_c <= st.t_k


def test_clique_stats_validation():
    g = gnp(GnpParams(n=8, p=0.9, seed=1))
    triangles = clique_hypergraph(g, 3)
    with pytest.raises(ValueError):
        clique_stats(g, triangles, b_family=[(0, 1), (1, 2)])  # overlap
    with pytest.raises(ValueError):
        clique_stats(g, triangles, a_set=(0,), b_family=[(0, 1)])  # A meets family
    with pytest.raises(ValueError):
        clique_stats(g, triangles, b_family=[(0, 1, 2)])  # wrong size
    sparse = KUniformHypergraph.from_edges(2, 4, [(0, 1)])
    with pytest.raises(ValueError):
        clique_stats(sparse, clique_hypergraph(sparse, 3), b_family=[(2, 3)])  # not a clique
    with pytest.raises(ValueError):
        clique_stats(sparse, triangles)  # cliques of another graph: 8 vertices, not 4
    with pytest.raises(ValueError):
        clique_stats(triangles, triangles)  # not a graph


def test_property_check_runs():
    g = gnp(GnpParams(n=15, p=0.5, seed=3))
    rep = property_check(g, 3, c=0.15, trials=6, seed=0, d=1.0)
    assert len(rep.samples) == 6
    assert 0.0 <= rep.ratio_pass_fraction <= 1.0
    assert rep.t_k_bound is not None


def test_property_check_builds_the_clique_host_once(monkeypatch):
    calls = []

    def counting(g, k):
        calls.append(k)
        return clique_hypergraph(g, k)

    monkeypatch.setattr(randomlab, "clique_hypergraph", counting)
    g = gnp(GnpParams(n=15, p=0.5, seed=3))
    rep = property_check(g, 3, c=0.15, trials=6, seed=0, d=1.0)
    assert len(rep.samples) == 6
    assert calls == [3]
    assert rep.t_k == clique_hypergraph(g, 3).num_edges


def make_host_and_coloring(n, p, seed, colorseed):
    g = gnp(GnpParams(n=n, p=p, seed=seed))
    host = clique_hypergraph(g, 3)
    rng = random.Random(colorseed)
    coloring = EdgeColoring(
        host, tuple(rng.choice((RED, BLUE)) for _ in host.edges)
    )
    return host, coloring


def test_grow_path_statuses_and_invariants():
    host, coloring = make_host_and_coloring(25, 0.45, 2, 5)
    st = grow_monochromatic_tight_path(host, coloring, BLUE, 5)
    assert st.status in (TRASH_FULL, NO_SEED, PATH_FOUND)
    # trash tuples are pairwise disjoint and sized k-1
    flat = [v for t in st.trash for v in t]
    assert len(flat) == len(set(flat))
    assert all(len(t) == 2 for t in st.trash)
    assert len(st.trash) <= 5
    if st.status == PATH_FOUND:
        assert len(st.path) == 5
        # consecutive triples are blue edges
        blue = {
            frozenset(e)
            for e, c in zip(host.edges, coloring.colors)
            if c == BLUE
        }
        for i in range(len(st.path) - 2):
            assert frozenset(st.path[i : i + 3]) in blue


def test_grow_path_no_seed_on_all_red():
    host, _ = make_host_and_coloring(12, 0.6, 0, 0)
    allred = EdgeColoring(host, tuple(RED for _ in host.edges))
    st = grow_monochromatic_tight_path(host, allred, BLUE, 4)
    assert st.status == NO_SEED
    assert st.path == () and st.trash == ()


def test_grow_path_found_on_all_blue():
    host, _ = make_host_and_coloring(12, 0.9, 0, 0)
    allblue = EdgeColoring(host, tuple(BLUE for _ in host.edges))
    st = grow_monochromatic_tight_path(host, allblue, BLUE, 6)
    assert st.status == PATH_FOUND
    assert len(st.path) == 6


def test_grow_path_deterministic():
    host, coloring = make_host_and_coloring(30, 0.4, 4, 9)
    a = grow_monochromatic_tight_path(host, coloring, BLUE, 6)
    b = grow_monochromatic_tight_path(host, coloring, BLUE, 6)
    assert a == b


def test_iterated_procedure_accounting_identities():
    for colorseed in range(6):
        host, coloring = make_host_and_coloring(22, 0.5, colorseed, colorseed + 50)
        acc = iterated_procedure(host, coloring, BLUE, 4)
        assert acc.t_sought + acc.t_other == acc.t_k == host.num_edges
        assert acc.trash_families_disjoint
        assert acc.max_edge_x_count <= host.k
        assert acc.verdict_x_bound  # sum_x <= k * t_other
        assert not acc.round_cap_exceeded
        last = acc.rounds[-1].status
        assert last in (NO_SEED, PATH_FOUND)
        if last == NO_SEED:
            assert acc.verdict_sought_bound is not None
        else:
            assert acc.found_path is not None


def test_iterated_procedure_round_cap():
    host, coloring = make_host_and_coloring(22, 0.5, 1, 2)
    acc = iterated_procedure(host, coloring, BLUE, 4, round_cap=0)
    assert acc.round_cap_exceeded and acc.rounds == []


def naive_grow(h, coloring, color, m):
    """Reference path growing: (status, path, trash, seeds, extensions,
    rewinds, steps), one step per seed, extension or rewind."""
    k = h.k
    colored = [e for e, c in zip(h.edges, coloring.colors) if c == color]
    unused, path, trash = set(range(h.n)), [], []
    seeds = extensions = rewinds = steps = 0
    while True:
        steps += 1
        if not path:
            seed = next((e for e in colored if unused.issuperset(e)), None)
            if seed is None:
                return NO_SEED, tuple(path), tuple(trash), seeds, extensions, rewinds, steps
            path, seeds = list(seed), seeds + 1
            unused -= set(seed)
        else:
            tail = path[-(k - 1):]
            ext = [w for w in sorted(unused) if tuple(sorted(tail + [w])) in colored]
            if not ext:
                trash.append(tuple(sorted(tail)))
                del path[-(k - 1):]
                rewinds += 1
                if len(trash) >= m:
                    return TRASH_FULL, tuple(path), tuple(trash), seeds, extensions, rewinds, steps
                if len(path) < k:
                    unused |= set(path)
                    path = []
                continue
            path.append(ext[0])
            unused.discard(ext[0])
            extensions += 1
        if len(path) >= m:
            return PATH_FOUND, tuple(path), tuple(trash), seeds, extensions, rewinds, steps


def naive_iterated_procedure(h, coloring, color, m):
    """Per-round reference for the accounting: every round rebuilds the host
    and its coloring and scans the trash tuples for the one inside an edge."""
    k = h.k
    t_sought = sum(1 for c in coloring.colors if c == color)
    current = list(zip(h.edges, coloring.colors))
    rounds, x_counts = [], {}
    found_path, c_set, z_c, cap_exceeded = None, (), 0, False
    while True:
        if len(rounds) >= 4 * k * m:
            cap_exceeded = True
            break
        sub = KUniformHypergraph(k, h.n, tuple(e for e, _ in current))
        state = naive_grow(sub, EdgeColoring(sub, tuple(c for _, c in current)), color, m)
        status, path, trash = state[:3]
        if status == PATH_FOUND:
            found_path = path
            rounds.append((status, trash, path, 0, 0, state))
            break
        inside = set(path) | {v for t in trash for v in t}
        x = y = 0
        for e, _ in current:
            member = next((t for t in trash if set(t) <= set(e)), None)
            if member is None:
                continue
            (w,) = set(e) - set(member)
            if w in inside:
                y += 1
            else:
                x += 1
                x_counts[e] = x_counts.get(e, 0) + 1
        rounds.append((status, trash, path, x, y, state))
        if status == NO_SEED:
            c_set = tuple(sorted({v for t in trash for v in t}))
            z_c = sum(1 for e in h.edges if set(e) & set(c_set))
            break
        current = [
            (e, c)
            for e, c in current
            if not (c == color and any(set(t) <= set(e) for t in trash))
        ]
    sum_x = sum(r[3] for r in rounds)
    sum_y = sum(r[4] for r in rounds)
    families = [set(r[1]) for r in rounds]
    return rounds, {
        "sought_color": color,
        "t_sought": t_sought,
        "t_other": h.num_edges - t_sought,
        "t_k": h.num_edges,
        "sum_x": sum_x,
        "sum_y": sum_y,
        "z_c": z_c,
        "c_set": c_set,
        "found_path": found_path,
        "verdict_sought_bound": (
            None if found_path is not None or cap_exceeded
            else t_sought <= sum_y + z_c
        ),
        "verdict_x_bound": sum_x <= k * (h.num_edges - t_sought),
        "max_edge_x_count": max(x_counts.values(), default=0),
        "trash_families_disjoint": all(
            not (a & b) for i, a in enumerate(families) for b in families[i + 1:]
        ),
        "round_cap": 4 * k * m,
        "round_cap_exceeded": cap_exceeded,
    }


def _state_fields(s):
    return s.status, s.path, s.trash, s.seeds, s.extensions, s.rewinds, s.steps


@pytest.mark.parametrize("k, n, p", [(2, 24, 0.12), (3, 40, 0.2), (4, 40, 0.35)])
def test_iterated_procedure_matches_per_round_reference(k, n, p):
    multi_round = 0
    for seed in range(8):
        host = clique_hypergraph(gnp(GnpParams(n=n, p=p, seed=seed)), k)
        rng = random.Random(100 + seed)
        coloring = EdgeColoring(
            host, tuple(rng.choice((RED, BLUE)) for _ in host.edges)
        )
        for m in (k + 1, k + 3, 2 * k + 2):
            acc = iterated_procedure(host, coloring, BLUE, m)
            rounds, expected = naive_iterated_procedure(host, coloring, BLUE, m)
            assert [
                (r.status, r.trash, r.a_set, r.x, r.y, _state_fields(r.state))
                for r in acc.rounds
            ] == rounds
            assert {
                f.name: getattr(acc, f.name)
                for f in fields(acc)
                if f.name != "rounds"
            } == expected
            multi_round += len(rounds) > 1
    assert multi_round >= 3  # the edge stripping between rounds is exercised


def scan_grow_path(k, n, sought, m):
    """Reference path growing with the per-candidate extension scan: every
    unused vertex, ascending, is tried by sorting the tail plus it."""
    sought_set = set(sought)
    unused = set(range(n))
    path, trash = [], []
    seeds = extensions = rewinds = steps = 0
    status = None
    while status is None:
        steps += 1
        if not path:
            seed_edge = next((e for e in sought if unused.issuperset(e)), None)
            if seed_edge is None:
                status = NO_SEED
                break
            path = list(seed_edge)
            unused -= set(seed_edge)
            seeds += 1
        else:
            tail = path[-(k - 1):]
            ext = next(
                (w for w in sorted(unused) if tuple(sorted(tail + [w])) in sought_set), None
            )
            if ext is None:
                trash.append(tuple(sorted(tail)))
                del path[-(k - 1):]
                rewinds += 1
                if len(trash) >= m:
                    status = TRASH_FULL
                elif len(path) < k:
                    unused |= set(path)
                    path = []
                continue
            path.append(ext)
            unused.discard(ext)
            extensions += 1
        if len(path) >= m:
            status = PATH_FOUND
    return ProcedureState(status, tuple(path), tuple(trash), seeds, extensions, rewinds, steps)


def pairs_iterated_procedure(h, coloring, color, m, round_cap=None):
    """Reference accounting that keeps the host as (edge, colour) pairs and
    tests every edge of every round for a trash tuple."""
    k = h.k
    if round_cap is None:
        round_cap = 4 * k * m
    t_sought = sum(1 for c in coloring.colors if c == color)
    current = list(zip(h.edges, coloring.colors))
    rounds, x_counts = [], {}
    sum_x = sum_y = z_c = 0
    c_final, found_path, cap_exceeded = (), None, False
    while True:
        if len(rounds) >= round_cap:
            cap_exceeded = True
            break
        state = scan_grow_path(k, h.n, [e for e, c in current if c == color], m)
        if state.status == PATH_FOUND:
            found_path = state.path
            rounds.append(RoundRecord(state.status, state.trash, state.path, 0, 0, state))
            break
        a_set = tuple(state.path)
        x = y = 0
        trash = set(state.trash)
        trash_vertices = set().union(*state.trash)
        inside = trash_vertices.union(a_set)
        kept = []
        for e, c in current:
            member = next(
                (t for t in itertools.combinations(e, k - 1) if t in trash), None
            )
            if member is None or c != color:
                kept.append((e, c))
            if member is None:
                continue
            (w,) = set(e) - set(member)
            if w in inside:
                y += 1
            else:
                x += 1
                x_counts[e] = x_counts.get(e, 0) + 1
        sum_x += x
        sum_y += y
        rounds.append(RoundRecord(state.status, state.trash, a_set, x, y, state))
        if state.status == NO_SEED:
            c_final = tuple(sorted(trash_vertices))
            z_c = sum(1 for e in h.edges if not trash_vertices.isdisjoint(e))
            break
        current = kept
    trash_tuples = [t for r in rounds for t in set(r.trash)]
    return AccountingReport(
        sought_color=color,
        t_sought=t_sought,
        t_other=h.num_edges - t_sought,
        t_k=h.num_edges,
        sum_x=sum_x,
        sum_y=sum_y,
        z_c=z_c,
        c_set=c_final,
        rounds=rounds,
        found_path=found_path,
        verdict_sought_bound=(
            None if found_path is not None or cap_exceeded
            else t_sought <= sum_y + z_c
        ),
        verdict_x_bound=sum_x <= k * (h.num_edges - t_sought),
        max_edge_x_count=max(x_counts.values(), default=0),
        trash_families_disjoint=len(trash_tuples) == len(set(trash_tuples)),
        round_cap=round_cap,
        round_cap_exceeded=cap_exceeded,
    )


@settings(max_examples=300, deadline=None)
@given(
    k=st.sampled_from((2, 3, 4)),
    n=st.integers(0, 30),
    density=st.integers(0, 12),
    seed=st.integers(0, 2**32),
    m=st.integers(1, 8),
    round_cap=st.sampled_from((None, 1, 2, 3)),
    color=st.sampled_from((RED, BLUE)),
)
def test_iterated_procedure_matches_the_scan_reference(
    k, n, density, seed, m, round_cap, color
):
    # random k-graphs with up to 12n edges: about one run in fifteen takes
    # more than one round
    rng = random.Random(seed)
    candidates = list(itertools.combinations(range(n), k))
    size = rng.randint(0, min(len(candidates), density * n))
    host = KUniformHypergraph(k, n, tuple(sorted(rng.sample(candidates, size))))
    coloring = EdgeColoring(host, tuple(rng.choice((RED, BLUE)) for _ in host.edges))
    # dataclass equality: every field, rounds[*].state included
    assert iterated_procedure(
        host, coloring, color, m, round_cap
    ) == pairs_iterated_procedure(host, coloring, color, m, round_cap)


def _counts_an_edge_inside_its_trash(host, coloring, color, acc):
    """Whether a round of a k = 2 run that ends without a path finds an edge
    of the round's host with both vertices in its trash."""
    dropped = set()
    for r in acc.rounds:
        if r.status == PATH_FOUND:
            return False
        trash = {v for (v,) in r.trash}
        if any(
            trash.issuperset(e) and (c != color or dropped.isdisjoint(e))
            for e, c in zip(host.edges, coloring.colors)
        ):
            return True
        dropped |= trash
    return False


def test_iterated_procedure_on_sparse_clique_hosts_matches_the_scan_reference():
    # sparse hosts take several rounds, so the rounds after the first, grown
    # and counted on the incidence rows, are compared many times over
    deep = double_trash = 0
    for k, n, p in [(2, 60, 0.03), (3, 60, 0.2), (4, 50, 0.35)]:
        for seed in range(6):
            host = clique_hypergraph(gnp(GnpParams(n=n, p=p, seed=seed)), k)
            rng = random.Random(seed)
            coloring = EdgeColoring(
                host, tuple(rng.choice((RED, BLUE)) for _ in host.edges)
            )
            for color in (RED, BLUE):
                for m in (k + 2, 2 * k + 3):
                    acc = iterated_procedure(host, coloring, color, m)
                    assert acc == pairs_iterated_procedure(host, coloring, color, m)
                    deep += len(acc.rounds) >= 3
                    if k == 2:
                        double_trash += _counts_an_edge_inside_its_trash(
                            host, coloring, color, acc
                        )
    assert deep >= 5
    assert double_trash >= 1  # a k = 2 edge counted once under its lesser vertex


def test_incidence_rows_are_built_only_after_a_round_without_a_path():
    # the first round scans the edge list; only a round that ends without a
    # path makes the later rounds read the host's rows
    host, coloring = make_host_and_coloring(30, 0.3, 1, 1)
    acc = iterated_procedure(host, coloring, BLUE, 6)
    assert [r.status for r in acc.rounds] == [PATH_FOUND]
    assert "incident" not in host.__dict__
    host, coloring = make_host_and_coloring(30, 0.3, 0, 0)
    assert "incident" not in host.__dict__
    acc = iterated_procedure(host, coloring, BLUE, 6)
    assert acc.rounds[0].status == TRASH_FULL and len(acc.rounds) > 1
    assert "incident" in host.__dict__
