"""Command line front end: seeded, reproducible runs with JSON reports.

Exit codes: 0 success, 1 bad input (usage errors too), 2 budget exhausted /
Unknown verdict.
A report embeds the tool version, the command and its config: the command's
options as parsed, minus --out and --seed. Every command that takes --seed
records it, default 0. Re-running the config reproduces the report byte for
byte apart from its timestamp field.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from dataclasses import asdict, fields
from typing import Optional

from . import __version__
from .arrow import ArrowResult, arrows, degree_threshold_coloring, vhigh_vlow_coloring
from .constructions import (
    SteinerParams,
    binary_three_tree,
    blowup_path_host,
    clique,
    clique_hypergraph,
    ell_path,
    gadget_family,
    greedy_partial_steiner,
    random_ell_tree,
    random_gadget,
    star_tree,
)
from .errors import ARROWS_NODE_CAP, COPY_NODE_CAP, EXACT_ECAP, EXACT_VCAP, MAX_HOST_EDGES
from .errors import BudgetExceededError, CapsTooSmallError
from .hypergraph import (
    BLUE,
    RED,
    EdgeColoring,
    KUniformHypergraph,
    automorphism_count,
    are_isomorphic,
    independence_number,
)
from .embedding import find_copy
from .randomlab import GnpParams, clique_stats, gnp, iterated_procedure, vertex_hits
from .search import ramsey_number_small, size_ramsey_exact_tiny, size_ramsey_upper

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2


def _load_json(path: str):
    """The JSON value in a file; nesting too deep for the decoder is bad input."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_hypergraph(path: str) -> KUniformHypergraph:
    return KUniformHypergraph.from_dict(_load_json(path))


def _load_coloring(path: str, host: KUniformHypergraph) -> EdgeColoring:
    colors = _load_json(path)
    if not isinstance(colors, list) or not all(isinstance(c, str) for c in colors):
        raise ValueError(f"{path}: a coloring must be a list of color strings")
    return EdgeColoring.from_list(host, colors)


def _parse_color(name: str) -> str:
    table = {"r": RED, "red": RED, "b": BLUE, "blue": BLUE}
    try:
        return table[name.lower()]
    except KeyError:
        raise ValueError(f"unknown color {name!r}; use red or blue")


def _write_json(path: Optional[str], payload) -> None:
    text = json.dumps(payload, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _fields_except(record, skip: str) -> dict:
    """A dataclass record's fields in order, without the one named skip;
    unlike asdict, the values are not copied."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name != skip}


# parsed names that are not options of the run a report records
_NOT_CONFIG = {"command", "mode", "func", "out", "seed"}


def _report(args, body: dict) -> dict:
    """The report of a run: command, config and seed as parsed, then body."""
    parsed = vars(args)
    out = {
        "version": __version__,
        "command": " ".join(filter(None, (args.command, parsed.get("mode")))),
        "config": {k: v for k, v in parsed.items() if k not in _NOT_CONFIG},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if "seed" in parsed:
        out["seed"] = args.seed
    out.update(body)
    return out


# -- construct --------------------------------------------------------------


def _host_graph(args) -> KUniformHypergraph:
    if args.host is None:
        raise ValueError(f"{args.kind} needs --host (a graph JSON file)")
    return _load_hypergraph(args.host)


# kind -> builder from the parsed arguments; the order is the order of the
# parser's choices
_CONSTRUCTORS = {
    "ell-path": lambda a: ell_path(a.k, a.l, a.n),
    "clique": lambda a: clique(a.k, a.n),
    "ell-tree": lambda a: random_ell_tree(a.k, a.l, a.n, a.seed),
    "star-tree": lambda a: star_tree(a.k, a.n),
    "binary-tree": lambda a: binary_three_tree(a.t),
    "gadget": lambda a: random_gadget(a.t, random.Random(a.seed)),
    "gadget-family": lambda a: gadget_family(a.t, a.q, a.seed),
    "steiner": lambda a: greedy_partial_steiner(
        SteinerParams(a.t, a.k, a.n, a.seed)
    ).hypergraph,
    "blowup": lambda a: blowup_path_host(_host_graph(a), a.k, a.l),
    "clique-hypergraph": lambda a: clique_hypergraph(_host_graph(a), a.k),
}


def _cmd_construct(args) -> int:
    built = _CONSTRUCTORS[args.kind](args)
    if args.kind == "gadget-family":
        members, union = built
        payload = {"members": [m.to_dict() for m in members], "union": union.to_dict()}
    else:
        payload = built.to_dict()
    _write_json(args.out, payload)
    return EXIT_OK


# -- arrows -----------------------------------------------------------------


def _cmd_arrows(args) -> int:
    host = _load_hypergraph(args.host)
    pattern = _load_hypergraph(args.pattern)
    verdict = arrows(host, pattern, args.budget)
    body: dict = {"result": verdict.result.value, "nodes": verdict.nodes}
    if verdict.certificate is not None:
        body["certificate"] = verdict.certificate.to_list()
    _write_json(args.out, _report(args, body))
    return EXIT_BUDGET if verdict.result == ArrowResult.UNKNOWN else EXIT_OK


# -- embed ------------------------------------------------------------------


def _cmd_embed(args) -> int:
    pattern = _load_hypergraph(args.pattern)
    host = _load_hypergraph(args.host)
    coloring = None
    color = None
    if args.coloring is not None and args.color is None:
        raise ValueError("--coloring requires --color")
    if args.color is not None:
        color = _parse_color(args.color)
        if args.coloring is None:
            raise ValueError("--color requires --coloring")
        coloring = _load_coloring(args.coloring, host)
    emb = find_copy(pattern, host, coloring, color, args.budget)
    if emb is None:
        print("none")
    else:
        print(json.dumps(list(emb.mapping)))
    return EXIT_OK


# -- color ------------------------------------------------------------------


def _majority_coloring(host: KUniformHypergraph, deg: list[int]) -> EdgeColoring:
    # Red iff the edge puts at least ceil(k/2) vertices in the top-degree
    # half; deg is the host's vertex degrees
    ranked = sorted(range(host.n), key=lambda v: (-deg[v], v))
    hits = vertex_hits(host.edges, host.k, ranked[: host.n // 2], host.n)
    need = -(-host.k // 2)
    return EdgeColoring(host, tuple(RED if c >= need else BLUE for c in hits))


# rng.choice((RED, BLUE)) is getrandbits(2), the top two bits of one 32-bit
# word, redrawn on 2 or 3; so the top byte of a word decides: below 0x40
# RED, below 0x80 BLUE, and from 0x80 a redraw, deleted by translate
_COIN = (RED * 0x40 + BLUE * 0xC0).encode()
_REDRAW = bytes(range(0x80, 0x100))


def _random_coloring(host: KUniformHypergraph, seed: int) -> EdgeColoring:
    """tuple(rng.choice((RED, BLUE)) for _ in host.edges), drawn as one
    word stream."""
    rng = random.Random(seed)
    m = host.num_edges
    picks = b""
    while len(picks) < m:
        words = 2 * (m - len(picks))
        draw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        picks += draw.translate(_COIN, _REDRAW)
    return EdgeColoring(host, tuple(picks[:m].decode()))


def _degree_threshold(host: KUniformHypergraph, args) -> EdgeColoring:
    if args.n is None:
        raise ValueError("degree-threshold needs --n (target tree order)")
    return degree_threshold_coloring(host, args.n)


# scheme -> coloring of the host from the parsed arguments
_COLOR_SCHEMES = {
    "random": lambda host, a: _random_coloring(host, a.seed),
    "majority": lambda host, a: _majority_coloring(host, host.degrees()),
    "degree-threshold": lambda host, a: _degree_threshold(host, a),
    "vhigh-vlow": lambda host, a: vhigh_vlow_coloring(
        host, a.d, gadget_family(a.t, a.q, a.seed)[0]
    )[0],
}


def _cmd_color(args) -> int:
    host = _load_hypergraph(args.host)
    coloring = _COLOR_SCHEMES[args.scheme](host, args)
    _write_json(args.out, coloring.to_list())
    return EXIT_OK


# -- ramsey / size-ramsey ----------------------------------------------------


def _cmd_ramsey(args) -> int:
    pattern = _load_hypergraph(args.pattern)
    n = ramsey_number_small(pattern, args.cap, args.budget)
    body = {"ramsey_number": n, "result": "Found" if n is not None else "Unknown"}
    _write_json(args.out, _report(args, body))
    return EXIT_OK if n is not None else EXIT_BUDGET


def _cmd_size_ramsey(args) -> int:
    pattern = _load_hypergraph(args.pattern)
    if args.mode == "upper":
        bound = size_ramsey_upper(pattern, args.budget, args.max_host_edges, args.seed)
    else:
        bound = size_ramsey_exact_tiny(pattern, args.vcap, args.ecap, args.budget)
    _write_json(args.out, _report(args, asdict(bound)))
    if bound.upper is None:  # upper mode only: exact mode raises CapsTooSmallError
        print(
            "caps too small: no host stream verified a host within "
            f"--max-host-edges {args.max_host_edges}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    return EXIT_OK


# -- randomlab ----------------------------------------------------------------


def _cmd_randomlab(args) -> int:
    params = GnpParams(n=args.n, p=args.p, seed=args.seed, k=args.k, d=args.d)
    graph = gnp(params)
    host = clique_hypergraph(graph, args.k)
    stats = clique_stats(graph, host, d=args.d)
    if args.coloring:
        coloring = _load_coloring(args.coloring, host)
    elif args.coloring_scheme == "majority":
        coloring = _majority_coloring(host, stats.deg_k)
    else:
        coloring = _random_coloring(host, args.seed)
    account = iterated_procedure(host, coloring, BLUE, args.m)
    body = {
        "graph_edges": graph.num_edges,
        "clique_stats": {
            "t_ell": stats.t_ell,
            "t_k": stats.t_k,
            "deg_k_max": max(stats.deg_k, default=0),
            "nu": stats.nu,
            "lambda": stats.lam,
        },
        "rounds": [_fields_except(r, "state") for r in account.rounds],
        "accounting": _fields_except(account, "rounds"),
    }
    _write_json(args.out, _report(args, body))
    return EXIT_BUDGET if account.round_cap_exceeded else EXIT_OK


# -- gadget audit -------------------------------------------------------------


def _cmd_gadget_audit(args) -> int:
    tree = binary_three_tree(args.t)
    members, union = gadget_family(args.t, args.q, args.seed)
    iso = [[are_isomorphic(a, b) for b in members] for a in members]
    alpha = independence_number(union)
    body = {
        "tree_vertices": tree.n,
        "tree_edges": tree.num_edges,
        "rooted_automorphisms": automorphism_count(tree, fixed=(0,)),
        "family_size": len(members),
        "pairwise_isomorphic": iso,
        "max_degree": [max(m.degrees(), default=0) for m in members],
        "union_vertices": union.n,
        "independence_number": alpha,
        "independence_bound": 8 * union.n / 9,
        "independence_ok": 9 * alpha <= 8 * union.n,
    }
    _write_json(args.out, _report(args, body))
    return EXIT_OK


# -- parser -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="ramseyforge",
        description="size-Ramsey constructions, arrow decisions and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a hypergraph and emit its JSON")
    p.add_argument("kind", choices=_CONSTRUCTORS)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--host", help="input graph JSON (blowup, clique-hypergraph)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("arrows", help="decide the arrow relation host -> pattern")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--budget", type=int, default=ARROWS_NODE_CAP)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_arrows)

    p = sub.add_parser("embed", help="find one copy of pattern in host")
    p.add_argument("--pattern", required=True)
    p.add_argument("--host", required=True)
    p.add_argument("--coloring")
    p.add_argument("--color")
    p.add_argument("--budget", type=int, default=COPY_NODE_CAP)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("color", help="emit a coloring for a host")
    p.add_argument("scheme", choices=_COLOR_SCHEMES)
    p.add_argument("--host", required=True)
    p.add_argument("--n", type=int, help="target tree order (degree-threshold)")
    p.add_argument("--d", type=int, default=3, help="degree threshold (vhigh-vlow)")
    p.add_argument("--t", type=int, default=2, help="gadget depth (vhigh-vlow)")
    p.add_argument("--q", type=int, default=2, help="gadget count (vhigh-vlow)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("ramsey", help="least N with complete-host arrowing")
    p.add_argument("--pattern", required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--budget", type=int, default=ARROWS_NODE_CAP)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("size-ramsey", help="size-Ramsey bounds with witnesses")
    modes = p.add_subparsers(dest="mode", required=True)
    upper = modes.add_parser("upper", help="best bound over the host streams")
    exact = modes.add_parser("exact", help="exact value under host caps")
    # a report's config follows this order: pattern, the mode's options, budget
    for mode in (upper, exact):
        mode.add_argument("--pattern", required=True)
    upper.add_argument("--max-host-edges", type=int, default=MAX_HOST_EDGES)
    upper.add_argument("--seed", type=int, default=0)
    exact.add_argument("--vcap", type=int, default=EXACT_VCAP)
    exact.add_argument("--ecap", type=int, default=EXACT_ECAP)
    for mode in (upper, exact):
        mode.add_argument("--budget", type=int, default=ARROWS_NODE_CAP)
        mode.add_argument("--out")
        mode.set_defaults(func=_cmd_size_ramsey)

    p = sub.add_parser("randomlab", help="random clique-host experiment pipeline")
    p.add_argument("mode", choices=("pipeline",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--p", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coloring", help="coloring JSON for the clique hypergraph")
    p.add_argument(
        "--coloring-scheme", choices=("random", "majority"), default="random"
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_randomlab)

    p = sub.add_parser("gadget-audit", help="verify the gadget family's facts")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gadget_audit)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means an exhausted budget
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CapsTooSmallError as exc:
        print(f"caps too small: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (OSError, ValueError, KeyError, OverflowError) as exc:
        # an OverflowError comes from a numeric argument too large for a float
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
