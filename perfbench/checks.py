"""Answer checks that share no code with ramseyforge.

Copies are found by a plain backtracking scan written here, so a
certificate or a witness host is re-checked without ramseyforge.embedding
or ramseyforge.arrow.  Every check raises CheckError on a wrong answer.
"""

from __future__ import annotations

# the upper-bound witnesses have at most --max-host-edges (18) edges
BRUTE_FORCE_MAX_EDGES = 18


class CheckError(Exception):
    pass


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _masks(pattern: dict, host: dict) -> list[int]:
    """Bitmasks over the host's edge list of every copy of the pattern
    (the patterns here have no isolated vertices)."""
    p_edges, host_n = pattern["edges"], host["n"]
    index = {frozenset(e): i for i, e in enumerate(host["edges"])}
    order: list[int] = []
    for e in p_edges:
        order += [v for v in e if v not in order]
    pos = {v: i for i, v in enumerate(order)}
    closing: list[list[tuple]] = [[] for _ in order]
    for e in p_edges:
        closing[max(pos[v] for v in e)].append(e)
    image: dict[int, int] = {}
    used: set[int] = set()
    found: set[int] = set()

    def place(i: int, mask: int) -> None:
        if i == len(order):
            found.add(mask)
            return
        for w in range(host_n):
            if w in used:
                continue
            image[order[i]] = w
            add = 0
            for e in closing[i]:
                j = index.get(frozenset(image[v] for v in e))
                if j is None:
                    break
                add |= 1 << j
            else:
                used.add(w)
                place(i + 1, mask | add)
                used.discard(w)
        image.pop(order[i], None)

    place(0, 0)
    return sorted(found)


def check_certificate(host: dict, pattern: dict, colors: list) -> None:
    """The colouring has no copy of the pattern in a single colour."""
    _need(len(colors) == len(host["edges"]), "certificate length differs from host")
    _need(set(colors) <= {"R", "B"}, "certificate has a colour other than R, B")
    red = sum(1 << i for i, c in enumerate(colors) if c == "R")
    for m in _masks(pattern, host):
        _need(m & red not in (0, m), "certificate has a monochromatic copy")


def _arrows(pattern: dict, host: dict) -> bool:
    m = len(host["edges"])
    masks = _masks(pattern, host)
    top = 1 << (m - 1)  # colour swap symmetry: the last edge is red
    for c in range(top):
        red = c | top
        if not any(red & x in (0, x) for x in masks):
            return False
    return True


def check_arrows_bruteforce(host: dict, pattern: dict) -> None:
    """Every 2-colouring of the host has a monochromatic copy."""
    _need(0 < len(host["edges"]) <= BRUTE_FORCE_MAX_EDGES, "host too large for the brute-force check")
    _need(_arrows(pattern, host), "host does not arrow the pattern")


def _is_subgraph(sub: dict, host: dict) -> bool:
    edges = {tuple(e) for e in host["edges"]}
    return sub["k"] == host["k"] and all(tuple(e) in edges for e in sub["edges"])


def check(query, report: dict) -> None:
    """Raise CheckError unless the report answers the query correctly.

    Unknown is a correct answer only for a query with a node budget.
    """
    if report.get("result") == "Unknown":
        _need(query.budgeted, f"{query.name}: Unknown without a budget")
        return
    getattr(_CHECKS, query.kind)(query.ref, report)


class _CHECKS:
    @staticmethod
    def ramsey(ref, r):
        _need(r["result"] == "Found", f"ramsey result {r['result']}")
        _need(r["ramsey_number"] == ref["value"], f"R = {r['ramsey_number']}, expected {ref['value']}")

    @staticmethod
    def arrows(ref, r):
        result = r["result"]
        _need(result == ref["verdict"], f"verdict {result}, expected {ref['verdict']}")
        if result == "NotArrows":
            check_certificate(ref["host"], ref["pattern"], r["certificate"])
        elif "proof_host" in ref:
            _need(_is_subgraph(ref["proof_host"], ref["host"]), "proof host is not a subgraph")
            check_arrows_bruteforce(ref["proof_host"], ref["pattern"])

    @staticmethod
    def exact(ref, r):
        _need(r["lower"] == r["upper"] == ref["value"], f"r = {r['lower']}..{r['upper']}, expected {ref['value']}")
        w = r["witness_host"]
        _need(len(w["edges"]) == ref["value"], "witness edge count differs from r")
        _need(w["n"] <= ref["vcap"], "witness exceeds vcap")
        check_arrows_bruteforce(w, ref["pattern"])

    @staticmethod
    def upper(ref, r):
        upper = r["upper"]
        _need(upper is not None, "no upper bound")
        _need(r["lower"] == max(len(ref["pattern"]["edges"]), 1), "wrong edge-count floor")
        _need(r["lower"] <= upper, "lower bound above upper bound")
        if ref["floor"] is not None:
            _need(upper >= ref["floor"], f"upper {upper} below the known value {ref['floor']}")
        w = r["witness_host"]
        _need(len(w["edges"]) == upper, "witness edge count differs from upper")
        check_arrows_bruteforce(w, ref["pattern"])

    @staticmethod
    def randomlab(ref, r):
        st, acc, rounds = r["clique_stats"], r["accounting"], r["rounds"]
        _need(st["t_ell"]["1"] == ref["n"], "t_1 differs from n")
        _need(st["t_ell"]["2"] == r["graph_edges"], "t_2 differs from the graph's edges")
        _need(st["t_ell"]["3"] == st["t_k"] == acc["t_k"], "t_k differs from the triangle count")
        _need(acc["t_sought"] + acc["t_other"] == acc["t_k"], "t_sought + t_other != t_k")
        _need(not acc["round_cap_exceeded"], "round cap exceeded")
        _need(acc["sum_x"] == sum(x["x"] for x in rounds), "sum_x differs from the rounds")
        _need(acc["sum_y"] == sum(x["y"] for x in rounds), "sum_y differs from the rounds")
        families = [{tuple(t) for t in x["trash"]} for x in rounds]
        seen: set = set()
        for fam in families:
            _need(not fam & seen, "trash families are not disjoint")
            seen |= fam
            verts = [v for t in fam for v in t]
            _need(len(verts) == len(set(verts)), "trash tuples of a round share a vertex")
        _need(acc["trash_families_disjoint"], "report says trash families meet")
        if acc["found_path"] is not None:
            _need(rounds[-1]["status"] == "PathFound", "path found without PathFound")
            _need(len(acc["found_path"]) >= ref["m"], "found path shorter than m")
        else:
            _need(rounds and rounds[-1]["status"] == "NoSeed", "procedure did not end on NoSeed")

    @staticmethod
    def gadget(ref, r):
        t, q = ref["t"], ref["q"]
        _need(r["tree_vertices"] == 2 ** (t + 1) - 1, "tree vertex count")
        _need(r["tree_edges"] == 2**t - 1, "tree edge count")
        # each internal vertex may swap its two children
        _need(r["rooted_automorphisms"] == 2 ** (2**t - 1), "rooted automorphism count")
        _need(r["family_size"] == q, "family size")
        ident = [[i == j for j in range(q)] for i in range(q)]
        _need(r["pairwise_isomorphic"] == ident, "family members are not pairwise non-isomorphic")
        _need(r["union_vertices"] == q * (2 ** (t + 1) - 1), "union vertex count")
        _need(9 * r["independence_number"] <= 8 * r["union_vertices"], "independence bound")
        _need(r["independence_ok"], "report says the independence bound fails")
