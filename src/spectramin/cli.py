"""Command-line interface: compute radii, run verifications, sweep, replay.

Exit codes are the machine contract: 0 success / all pass, 1 verification
failure, 2 bad input or unmet precondition, 3 unresolved-only verification.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .analytic import rho_analytic
from .enumeration import EXTENDED_CAP, FULL_SPACE_CAP
from .formats import from_edge_list, from_graph6
from .graphs import Graph, InvalidInputError, InvalidParameterError, is_connected
from .spectral import (
    DENSE_CAP,
    EXACT_CAP,
    NumericFailure,
    char_poly,
    perron_pair,
    rho_bracket,
    rho_numeric,
)
from .transforms import proof_replay, serialize_trace
from .verify import (
    check_orders,
    graph_from_family,
    overall_exit_code,
    reads_checkpoint,
    verify_descent_endpoint_readings,
    verify_edge_minimal_pair,
    verify_family_grids,
    verify_max_extremal,
    verify_minimum_radius_case_table,
    verify_small_order_minimizers,
    write_reports,
)

CHECKPOINT_ENV = "SPECTRA_CHECKPOINT"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def load_graph(token: str) -> tuple[Graph, str]:
    """Resolve an input token: a file path (graph6 or edge list) or a family spec.

    A file is an edge list when its first non-blank line has two tokens.
    """
    if os.path.exists(token):
        with open(token) as fh:
            text = fh.read()
        first = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
        if len(first.split()) == 2:
            return from_edge_list(text), "edge-list file"
        return from_graph6(first), "graph6 file"
    if ":" in token:
        return graph_from_family(token), "family spec"
    return from_graph6(token), "graph6 string"


def cmd_rho(args) -> int:
    g, kind = load_graph(args.input)
    if not is_connected(g):
        print("error: input graph is not connected", file=sys.stderr)
        return 2
    if args.charpoly and g.n > EXACT_CAP:
        raise InvalidParameterError(
            f"--charpoly: exact characteristic polynomial capped at n = {EXACT_CAP}, got {g.n}")
    # every route runs before the first line, so a failing one leaves no partial report
    res = perron_pair(g, tol=args.tol)
    rho_dense = rho_numeric(g)
    sol = br = poly = None
    if kind == "family spec" and args.input.startswith("B:"):
        # graph_from_family accepted the spec, so it holds three integers
        sol = rho_analytic(*(int(x) for x in args.input[2:].split(",")))
    if g.n <= EXACT_CAP:
        br = rho_bracket(g, Fraction(1, 10 ** 12))
        if args.charpoly:
            poly = char_poly(g)
    print(f"input: {args.input} ({kind}), n={g.n}, edges={g.edge_count}")
    print(f"rho (power iteration)   = {_fmt(res.rho)}   residual {res.residual:.3g}")
    print(f"rho (dense eigensolver) = {_fmt(rho_dense)}   delta {_fmt(abs(res.rho - rho_dense))}")
    if sol is not None:
        print(f"rho (analytic boundary) = {_fmt(sol.rho)}   delta {_fmt(abs(sol.rho - res.rho))}")
        print(f"hub values a={_fmt(sol.a)} b={_fmt(sol.b)} "
              f"residuals {sol.residual_a:.3g}/{sol.residual_b:.3g}")
    if br is not None:
        print(f"certified bracket       = ({br.lo}, {br.hi}]")
        print(f"bracket midpoint delta  = {_fmt(abs(float(br.midpoint()) - res.rho))}")
    if poly is not None:
        print(f"char poly (constant first): {poly.serialize()}")
    print("perron vector:")
    print("  " + " ".join(_fmt(v) for v in res.perron))
    return 0


# the options each claim reads; any other given a non-default value is an error
_CLAIM_OPTIONS = {
    "theorem-1.1": {"--n", "--extended", "--workers"},
    "small-n-remark": set(),
    "lemmas": {"--grid"},
    "max-extremal": {"--n"},
    "edge-minimal-pair": {"--n"},
}


def cmd_verify(args) -> int:
    given = {"--n": args.n is not None, "--grid": args.grid is not None,
             "--extended": args.extended, "--workers": args.workers != 1}
    unread = [flag for flag, on in given.items() if on and flag not in _CLAIM_OPTIONS[args.claim]]
    if unread:
        raise InvalidParameterError(f"verify {args.claim} does not read {', '.join(unread)}")
    if args.format != "text" and not args.out:
        raise InvalidParameterError("--format is read only with --out")
    reports = []
    ns = _parse_orders(args.n) if args.n is not None else None
    checkpoint = os.environ.get(CHECKPOINT_ENV)
    if checkpoint and not (args.claim == "theorem-1.1"
                           and any(reads_checkpoint(n, args.extended) for n in ns or [])):
        raise InvalidParameterError(
            f"{CHECKPOINT_ENV} is set, but only verify theorem-1.1 --extended reads it, "
            f"for n = {FULL_SPACE_CAP + 1}..{EXTENDED_CAP}"
        )
    if args.claim == "theorem-1.1":
        ns = ns or [7, 8, 9]
        reports = verify_minimum_radius_case_table(
            ns, extended=args.extended, workers=args.workers, checkpoint=checkpoint,
        )
    elif args.claim == "small-n-remark":
        reports = verify_small_order_minimizers()
    elif args.claim == "lemmas":
        lo, hi = _parse_grid("3..9" if args.grid is None else args.grid)
        if lo != 3:
            raise InvalidParameterError(
                f"lemma grids start at the family minimum 3: use --grid 3..{hi}"
            )
        reports = verify_family_grids(hi)
        reports += verify_descent_endpoint_readings()
    elif args.claim == "max-extremal":
        ns = ns or [5, 6, 7]
        check_orders("max-extremal", ns)
        reports = [verify_max_extremal(n) for n in ns]
    else:  # edge-minimal-pair
        ns = ns or list(range(7, 13))
        reports = verify_edge_minimal_pair(ns)
    for r in reports:
        print(r.to_text())
    if args.out:
        write_reports(reports, args.out, args.format)
        print(f"reports written to {args.out}")
    return overall_exit_code(reports)


def _parse_int(token: str, flag: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InvalidParameterError(f"{flag}: not an integer: {token!r}") from None


def _parse_grid(token: str, flag: str = "--grid") -> tuple[int, int]:
    """``a..b`` (or one integer ``a``) as the inclusive range (a, b)."""
    lo, sep, hi = token.partition("..")
    lo_i = _parse_int(lo, flag)
    hi_i = _parse_int(hi, flag) if sep else lo_i
    if lo_i > hi_i:
        raise InvalidParameterError(f"{flag}: empty range {token!r}")
    return lo_i, hi_i


def _parse_orders(text: str) -> list[int]:
    """``--n``: comma items, each an integer or an ``a..b`` range.  A range
    that passes ``DENSE_CAP``, the largest order any claim reads, is refused
    before its orders are built."""
    orders = []
    for item in text.split(","):
        lo, hi = _parse_grid(item, "--n")
        if ".." in item and hi > DENSE_CAP:
            raise InvalidParameterError(
                f"--n: range {item!r} passes n = {DENSE_CAP}, the largest order any claim reads")
        orders += range(lo, hi + 1)
    return orders


def cmd_sweep(args) -> int:
    lo, hi = _parse_grid(args.grid)
    rows = ["family,m,p,q,rho_numeric,rho_analytic,a,b,residual_a,residual_b"]
    for m in range(max(lo, 3), hi + 1):
        for p in range(max(lo, 1), hi + 1):
            for q in range(max(lo, 3), hi + 1):
                sol = rho_analytic(m, p, q)
                g = graph_from_family(f"B:{m},{p},{q}")
                rows.append(
                    f"B,{m},{p},{q},{_fmt(rho_numeric(g))},{_fmt(sol.rho)},"
                    f"{_fmt(sol.a)},{_fmt(sol.b)},{sol.residual_a:.3g},{sol.residual_b:.3g}"
                )
    for m in range(max(lo, 1), hi + 1):
        for p in range(max(lo, m), hi + 1):
            for q in range(max(lo, p), hi + 1):
                if (m, p).count(1) > 1:
                    continue
                g = graph_from_family(f"P:{m},{p},{q}")
                rows.append(f"P,{m},{p},{q},{_fmt(rho_numeric(g))},,,,,")
    for m in range(max(lo, 3), hi + 1):
        for q in range(max(lo, m), hi + 1):
            g = graph_from_family(f"Cmq:{m},{q}")
            rows.append(f"Cmq,{m},,{q},{_fmt(rho_numeric(g))},,,,,")
    body = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
        print(f"{len(rows) - 1} rows written to {args.out}")
    else:
        print(body, end="")
    return 0


def cmd_replay(args) -> int:
    g, _ = load_graph(args.input)
    steps = proof_replay(g)
    if not steps:
        print("fixed point: input already a minimal family member; empty trace")
        return 0
    text = serialize_trace(steps)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(f"{len(steps)} steps, rho {_fmt(steps[0].rho_before)} -> {_fmt(steps[-1].rho_after)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spectramin",
        description="Minimum spectral radius toolkit: families, certified "
                    "comparisons, exhaustive verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="compute the spectral radius by all applicable methods")
    p.add_argument("input", help="family spec (C:7, B:3,1,3, ...), graph6, or file path")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--charpoly", action="store_true", help="print the exact characteristic polynomial")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("verify", help="run a claim verification suite")
    p.add_argument("claim", choices=list(_CLAIM_OPTIONS))
    p.add_argument("--n", help="comma-separated orders or a..b ranges, e.g. 7,8,9 or 7..12,14")
    p.add_argument("--grid", help="parameter range 3..hi for the lemma grids")
    p.add_argument("--extended", action="store_true",
                   help="allow the long n=10 full-space run")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="write reports to this path")
    p.add_argument("--format", choices=["csv", "text"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="radius sweep over the families as CSV")
    p.add_argument("--grid", default="3..5")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", help="monotone descent trace onto a family member")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_replay)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, InvalidInputError, NumericFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
