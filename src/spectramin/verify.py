"""Minimizer searches and the claim-verification harness.

Everything here confronts a claimed extremal statement with exhaustive
computation: enumerate a graph class, filter by independence number,
order spectral radii numerically with a safety band, and settle anything
inside the band with exact certified comparisons.  Results come back as
structured reports with graph6 witnesses.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .enumeration import (
    _ROOT_ROWS,
    BRANCH_LEVEL,
    EDGE_MODE_CAP,
    EXTENDED_CAP,
    FULL_SPACE_CAP,
    _attach_forest,
    _bicyclic_classes,
    _core_specs_bicyclic,
    _root_form,
    bicyclic_graphs,  # unused here, kept patchable: perfbench/tracing.py wraps it
    branch_states,
    enumerate_connected,
    enumerate_connected_from_branch,
)
from .formats import from_graph6, to_graph6
from .graphs import (
    BicyclicSpec,
    Graph,
    InvalidInputError,
    InvalidParameterError,
    build_bicyclic,
    build_complete,
    build_cycle,
    build_join_extremal,
    canonical_form,
    double_fork_tree,
    independence_number,
    predicted_independence,
    spec_B,
    spec_C,
    spec_P,
)
from .spectral import compare_rho_certified, rho_numeric

SAFETY_BAND = 1e-7
_BATCH = 4096


@dataclass(frozen=True)
class VerificationReport:
    claim_id: str
    parameters: dict
    status: str  # pass | fail | unresolved
    witnesses: list[tuple[str, str]] = field(default_factory=list)
    detail: str = ""

    def to_text(self) -> str:
        lines = [f"[{self.status.upper()}] {self.claim_id} {self.parameters}"]
        if self.detail:
            lines.append(f"  {self.detail}")
        for g6, value in self.witnesses:
            lines.append(f"  witness {g6} {value}")
        return "\n".join(lines)


@dataclass(frozen=True)
class MinimizerResult:
    n: int
    alpha: int
    min_rho: float
    argmin: list[Graph]
    expected: str
    class_size: int
    searched: int = -1  # total classes streamed before the alpha filter
    unresolved: bool = False


def theorem_prediction(n: int) -> str:
    """Claimed minimum-radius graph in the class with alpha = ceil(n/2) - 1.

    Small orders come from the explicit table (complete graphs, the
    5-cycle, the tight dumbbell); from 7 on, odd orders give the cycle and
    even orders one of three balanced dumbbells keyed by n mod 6.
    """
    if n < 3:
        raise InvalidParameterError("prediction starts at n = 3")
    if n == 3:
        return "K:3"
    if n == 4:
        return "K:4"
    if n == 5:
        return "C:5"
    if n == 6:
        return "B:3,1,3"
    if n % 2 == 1:
        return f"C:{n}"
    k = -(-n // 3)
    if n % 6 == 0:
        return f"B:{k + 1},{k - 1},{k + 1}"
    if n % 6 == 2:
        return f"B:{k},{k},{k}"
    return f"B:{k - 1},{k + 1},{k - 1}"


def graph_from_family(spec_str: str) -> Graph:
    """Build a graph from a family string like ``B:3,1,3`` or ``C:7``.

    Grammar: ``C:n`` (cycle), ``P:m,p,q``, ``Cmq:m,q``, ``B:m,p,q``,
    ``Dtilde:n``, ``join:n,alpha``, ``K:n``.
    """
    try:
        tag, rest = spec_str.split(":", 1)
        nums = [int(x) for x in rest.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse family spec {spec_str!r}") from exc
    if tag == "C" and len(nums) == 1:
        return build_cycle(nums[0])
    if tag == "K" and len(nums) == 1:
        return build_complete(nums[0])
    if tag == "P" and len(nums) == 3:
        return build_bicyclic(spec_P(*nums))[0]
    if tag == "B" and len(nums) == 3:
        return build_bicyclic(spec_B(*nums))[0]
    if tag == "Cmq" and len(nums) == 2:
        return build_bicyclic(spec_C(*nums))[0]
    if tag == "Dtilde" and len(nums) == 1:
        return double_fork_tree(nums[0])
    if tag == "join" and len(nums) == 2:
        return build_join_extremal(*nums)
    raise InvalidParameterError(f"cannot parse family spec {spec_str!r}")


# ---------------------------------------------------------------------------
# minimizer search


def _rho_batch(mats: list[np.ndarray]) -> np.ndarray:
    stacked = np.stack(mats)
    return np.linalg.eigvalsh(stacked)[:, -1]


def _scan_stream(
    graphs: Iterable[Graph], alpha: int | None
) -> tuple[int, int, float, list[tuple[float, str]]]:
    """One pass: alpha-filter, numeric radii, candidates near the minimum.

    Returns (graphs streamed, class size, numeric min, [(rho, graph6)] for
    graphs within the safety band of the stream minimum).
    """
    seen = 0
    count = 0
    best = float("inf")
    cands: list[tuple[float, str]] = []
    mats: list[np.ndarray] = []
    keys: list[str] = []

    def flush():
        nonlocal best, cands
        if not mats:
            return
        rhos = _rho_batch(mats)
        for r, g6 in zip(rhos, keys):
            r = float(r)
            if r < best:
                best = r
                cands = [(rr, kk) for rr, kk in cands if rr <= best + SAFETY_BAND]
            if r <= best + SAFETY_BAND:
                cands.append((r, g6))
        mats.clear()
        keys.clear()

    for g in graphs:
        seen += 1
        if alpha is not None and independence_number(g) != alpha:
            continue
        count += 1
        mats.append(g.adjacency_matrix())
        keys.append(to_graph6(g))
        if len(mats) >= _BATCH:
            flush()
    flush()
    cands = [(r, k) for r, k in cands if r <= best + SAFETY_BAND]
    return seen, count, best, cands


def _resolve_argmin(cands: list[tuple[float, str]]) -> tuple[list[Graph], bool]:
    """Certified argmin set from near-minimum candidates.

    The numeric leader is the pivot; every candidate is compared exactly
    against it, swapping pivots if a certified smaller one shows up.
    """
    if not cands:
        return [], False
    order = sorted(cands, key=lambda rk: (rk[0], rk[1]))
    graphs = [from_graph6(k) for _, k in order]
    pivot = 0
    unresolved = False
    while True:
        equal = [pivot]
        swapped = False
        for i, g in enumerate(graphs):
            if i == pivot:
                continue
            verdict = compare_rho_certified(g, graphs[pivot])
            if verdict == "less":
                pivot = i
                swapped = True
                break
            if verdict == "equal":
                equal.append(i)
            elif verdict == "unresolved":
                unresolved = True
        if not swapped:
            break
    out = [graphs[i] for i in sorted(equal)]
    out.sort(key=canonical_form)
    return out, unresolved


def _minimizer_branch(args) -> tuple[int, int, float, list[tuple[float, str]]]:
    """Full-space work unit: scan the connected descendants of one state."""
    n, alpha, state = args
    return _scan_stream(enumerate_connected_from_branch(n, state), alpha)


def _bicyclic_branch(args) -> tuple[int, int, float, list[tuple[float, str]]]:
    """Bicyclic work unit: scan the graphs grown from some cores (None: all).

    Each class arrives with its alpha, so only the classes in the alpha
    class (all of them when ``alpha`` is None) are built as graphs; every
    class counts as searched.
    """
    n, alpha, cores = args
    searched = 0

    def in_class():
        nonlocal searched
        for rows, assignment, a in _bicyclic_classes(n, cores):
            searched += 1
            if alpha is None or a == alpha:
                yield Graph.from_rows(n, _attach_forest(rows, assignment))

    _, count, best, cands = _scan_stream(in_class(), None)
    return searched, count, best, cands


def _load_checkpoint(path: str | None, key: dict):
    """(last finished unit, merged scan) saved under ``key``, or None."""
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            saved = json.load(fh)
        if any(saved.get(k) != v for k, v in key.items()):
            return None
        cands = [(float(r), str(g6)) for r, g6 in saved["cands"]]
        merged = (int(saved.get("seen", 0)), int(saved["count"]), float(saved["best"]), cands)
        return int(saved["done"]), merged
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidInputError(f"unreadable checkpoint {path}: {exc}") from exc


def _save_checkpoint(path: str, state: dict) -> None:
    """Replace the checkpoint atomically: a kill leaves the old or the new file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")


def _search(
    unit,
    n: int,
    alpha: int | None,
    parts: list,
    expected: str,
    workers: int,
    checkpoint: str | None,
) -> MinimizerResult:
    """The one search driver: scan every part, merge, certify the argmin.

    ``unit((n, alpha, part))`` scans one part.  Parts run through a process
    pool when ``workers > 1`` and in this process otherwise; either way the
    results are merged in part order as they arrive, and after each one the
    finished prefix is saved to ``checkpoint`` (keyed by n, alpha and the
    number of parts), from which a later run with any worker count resumes.
    """
    _check_workers(workers)
    key = {"n": n, "alpha": alpha, "units": len(parts)}
    saved = _load_checkpoint(checkpoint, key)
    done, (seen, count, best, cands) = saved or (-1, (0, 0, float("inf"), []))
    todo = [(n, alpha, part) for part in parts[done + 1:]]
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = pool.map(unit, todo) if pool else map(unit, todo)
        for i, (s, c, b, cd) in enumerate(results, start=done + 1):
            seen += s
            count += c
            best = min(best, b)
            cands = [(r, k) for r, k in cands + cd if r <= best + SAFETY_BAND]
            if checkpoint:
                _save_checkpoint(checkpoint, {**key, "done": i, "seen": seen, "count": count,
                                              "best": best, "cands": cands})
    argmin, unresolved = _resolve_argmin(cands)
    min_rho = min((r for r, _ in cands), default=float("nan"))
    return MinimizerResult(n, -1 if alpha is None else alpha, min_rho, argmin, expected,
                           count, seen, unresolved)


def minimizer(
    n: int,
    alpha: int,
    extended: bool = False,
    workers: int = 1,
    checkpoint: str | None = None,
) -> MinimizerResult:
    """Certified minimum-radius graphs among connected graphs with the given
    independence number, by exhaustive enumeration.

    For n >= 5 the generation tree is split over its level-5 branches (a
    single root unit below that).  A branch is the unit of parallel work
    (``workers``) and of checkpointing: the ``checkpoint`` file is replaced
    atomically after every finished branch, and a run with any worker count
    resumes from it.
    """
    cap = EXTENDED_CAP if extended else FULL_SPACE_CAP
    if not 1 <= n <= cap:
        raise InvalidParameterError(f"minimizer supports n <= {cap}, got {n}")
    expected = theorem_prediction(n) if n >= 3 else "K:1"
    states = branch_states() if n >= BRANCH_LEVEL else [(_ROOT_ROWS, _root_form(), 0)]
    return _search(_minimizer_branch, n, alpha, states, expected, workers, checkpoint)


def minimizer_bicyclic(n: int, alpha: int | None = None, workers: int = 1) -> MinimizerResult:
    """Certified minimum-radius graphs among connected (n+1)-edge graphs,
    optionally filtered by independence number.

    With ``workers > 1`` each two-cycle core is a parallel unit; one worker
    streams the whole class as a single unit.
    """
    if not 4 <= n <= EDGE_MODE_CAP:
        raise InvalidParameterError(
            f"two-cycle minimizer supports 4 <= n <= {EDGE_MODE_CAP}, got {n}"
        )
    if alpha is None:
        k = -(-n // 3)
        expected = f"P:{k},{n + 1 - 2 * k},{k} and B:{k},{n + 1 - 2 * k},{k}"
    else:
        expected = theorem_prediction(n)
    parts = [[spec] for spec in _core_specs_bicyclic(n)] if workers > 1 else [None]
    return _search(_bicyclic_branch, n, alpha, parts, expected, workers, None)


# ---------------------------------------------------------------------------
# claim verifications


def _argmin_matches(result: MinimizerResult, expected_specs: list[str]) -> bool:
    want = sorted(canonical_form(graph_from_family(s)) for s in expected_specs)
    got = sorted(canonical_form(g) for g in result.argmin)
    return want == got


def verify_minimum_radius_case_table(
    n_list: Iterable[int],
    extended: bool = False,
    workers: int = 1,
    checkpoint: str | None = None,
) -> list[VerificationReport]:
    """Check the case table of minimum-radius graphs for each order.

    Full-space enumeration where feasible (n <= 9, or 10 with extended);
    even n beyond that fall back to the (n+1)-edge class with the same
    independence number, which is justified by the edge-deletion law: a
    denser graph in the class has radius above some spanning bicyclic
    subgraph's, so the bicyclic minimizer is the global one.
    """
    _check_workers(workers)
    reports = []
    for n in n_list:
        alpha = (n + 1) // 2 - 1
        expected = theorem_prediction(n)
        full = n <= FULL_SPACE_CAP or (extended and n <= EXTENDED_CAP)
        if full:
            res = minimizer(
                n, alpha, extended=extended, workers=workers,
                checkpoint=checkpoint if n > FULL_SPACE_CAP else None,
            )
            mode = "full-space"
        else:
            if n % 2 == 1:
                reports.append(
                    VerificationReport(
                        "minimum-radius-case-table", {"n": n}, "unresolved",
                        detail="odd n beyond full enumeration: cycle case not re-checked",
                    )
                )
                continue
            res = minimizer_bicyclic(n, alpha, workers=workers)
            mode = "bicyclic-mode (edge-minimal class; reduction by edge deletion)"
        ok = _argmin_matches(res, [expected]) and not res.unresolved
        reports.append(
            VerificationReport(
                "minimum-radius-case-table",
                {"n": n, "alpha": alpha, "mode": mode, "class_size": res.class_size},
                "pass" if ok else "fail",
                witnesses=[(to_graph6(g), f"rho~{rho_numeric(g):.12g}") for g in res.argmin],
                detail=f"expected {expected}, found {len(res.argmin)} argmin",
            )
        )
    return reports


def verify_small_order_minimizers() -> list[VerificationReport]:
    """The explicit minimizers for orders 3..6, plus uniqueness of the
    one-graph classes at orders 3 and 4."""
    reports = []
    table = {3: ("K:3", 1), 4: ("K:4", 1), 5: ("C:5", 2), 6: ("B:3,1,3", 2)}
    for n, (expected, alpha) in table.items():
        res = minimizer(n, alpha)
        ok = _argmin_matches(res, [expected])
        if n in (3, 4):
            ok = ok and res.class_size == 1
        reports.append(
            VerificationReport(
                "small-order-minimizers",
                {"n": n, "alpha": alpha, "class_size": res.class_size},
                "pass" if ok else "fail",
                witnesses=[(to_graph6(g), f"rho~{rho_numeric(g):.12g}") for g in res.argmin],
                detail=f"expected {expected}",
            )
        )
    return reports


def verify_edge_minimal_pair(n_list: Iterable[int]) -> list[VerificationReport]:
    """Unrestricted (n+1)-edge minimizers: the balanced theta and dumbbell pair
    with exactly-certified equal radii."""
    reports = []
    for n in n_list:
        k = -(-n // 3)
        p = n + 1 - 2 * k
        res = minimizer_bicyclic(n, None)
        want = [f"P:{k},{p},{k}", f"B:{k},{p},{k}"]
        ok = _argmin_matches(res, want) and not res.unresolved
        exact = (
            compare_rho_certified(graph_from_family(want[0]), graph_from_family(want[1]))
            == "equal"
        )
        reports.append(
            VerificationReport(
                "edge-minimal-balanced-pair",
                {"n": n, "k": k},
                "pass" if ok and exact else "fail",
                witnesses=[(to_graph6(g), f"rho~{rho_numeric(g):.12g}") for g in res.argmin],
                detail=f"expected {want}, gcd-equality={'yes' if exact else 'no'}",
            )
        )
    return reports


def verify_max_extremal(n: int) -> VerificationReport:
    """Upper bound: every graph's radius is at most the join graph's, with
    equality only at the join graph itself."""
    if n > 8:
        raise InvalidParameterError("max-extremal sweep capped at n = 8")
    failures = []
    joins = {}
    join_rho = {}
    for alpha in range(1, n):
        jg = build_join_extremal(n, alpha)
        joins[alpha] = canonical_form(jg)
        join_rho[alpha] = rho_numeric(jg)
    checked = 0
    for g in enumerate_connected(n):
        alpha = independence_number(g)
        if alpha == n:  # only the edgeless graph, never connected for n > 1
            continue
        checked += 1
        r = rho_numeric(g)
        bound = join_rho[alpha]
        if r > bound + 1e-9:
            failures.append((to_graph6(g), f"rho {r} > bound {bound}"))
        elif r > bound - 1e-9 and canonical_form(g) != joins[alpha]:
            if compare_rho_certified(g, build_join_extremal(n, alpha)) != "less":
                failures.append((to_graph6(g), f"non-join graph attains the bound {bound}"))
    return VerificationReport(
        "max-radius-join-bound",
        {"n": n, "checked": checked},
        "fail" if failures else "pass",
        witnesses=failures[:10],
        detail="radius <= join-graph bound, equality only at the join graph",
    )


# ---------------------------------------------------------------------------
# family lemma grids


def _strictly_majorizes(a, b) -> bool:
    """True iff sorted(a) strictly majorizes sorted(b) at equal totals."""
    x = sorted(a, reverse=True)
    y = sorted(b, reverse=True)
    if sum(x) != sum(y) or x == y:
        return False
    run_x = run_y = 0
    for vx, vy in zip(x, y):
        run_x += vx
        run_y += vy
        if run_x < run_y:
            return False
    return True


def _ordered_pairs(items, before):
    """Pairs (x, y) of items with equal sums and ``before(x, y)``, one sum
    at a time in increasing order."""
    groups: dict[int, list] = {}
    for item in items:
        groups.setdefault(sum(item), []).append(item)
    for _, group in sorted(groups.items()):
        for x in group:
            for y in group:
                if before(x, y):
                    yield x, y


def _grid_claims(pmax: int) -> list:
    """The family-lemma sweeps as data, all parameters at most ``pmax``.

    Each row is (claim id, parameters, detail, pairs, failure wording).
    ``pairs`` yields (label, spec a, spec b, wanted verdict of comparing
    rho(a) with rho(b)); a pair whose certified verdict differs is a
    failure witness ``(label, wording)``, with ``{verdict}`` and ``{want}``
    filled in.
    """
    top = pmax + 1
    # Theta balance: with m+p+q fixed, every balancing move (shift one unit
    # from a longer to a shorter path) strictly lowers the radius.  The
    # comparable pairs are exactly the majorization-ordered ones; triples
    # with smaller spread but incomparable under majorization can go the
    # other way (e.g. P(1,6,6) vs P(2,3,8)), so spread alone is not ordered.
    thetas = [(m, p, q) for m in range(1, top) for p in range(max(m, 2), top)
              for q in range(p, top)]
    rings = [(m, q) for m in range(3, top) for q in range(m, top)]
    balanced_rings = list(_ordered_pairs(rings, lambda x, y: x[1] - x[0] < y[1] - y[0]))
    return [
        ("theta-dumbbell-equal-radius", {"grid": f"m,p <= {pmax}"},
         "exact equality via characteristic polynomial gcd",
         ((f"P({m},{p},{m})/B({m},{p},{m})", spec_P(m, p, m), spec_B(m, p, m), "equal")
          for m in range(3, top) for p in range(1, top)),
         "{verdict}"),
        ("theta-balance-monotone", {"max_param": pmax},
         "fixed total length: balancing moves strictly lower the radius",
         ((f"P{t1} vs P{t2}", spec_P(*t1), spec_P(*t2), "less")
          for t1, t2 in _ordered_pairs(thetas, lambda x, y: _strictly_majorizes(y, x))),
         "not certified less"),
        ("figure-eight-balance-monotone", {"max_param": pmax},
         "fixed ring total: balancing the two rings lowers the radius",
         ((f"C({m1},{q1}) vs C({m2},{q2})", spec_C(m1, q1), spec_C(m2, q2), "less")
          for (m1, q1), (m2, q2) in balanced_rings),
         "not less"),
        ("dumbbell-endcycle-balance-monotone", {"max_param": pmax},
         "fixed path and cycle total: balancing the cycles lowers the radius",
         ((f"B({m1},{p},{q1}) vs B({m2},{p},{q2})", spec_B(m1, p, q1), spec_B(m2, p, q2),
           "less")
          for p in range(1, top) for (m1, q1), (m2, q2) in balanced_rings),
         "not less"),
        ("dumbbell-path-swap-strict", {"max_param": pmax},
         "middle/cycle parameter swap strictly raises the radius",
         ((f"B({m},{p},{m}) vs B({m},{m},{p})", spec_B(m, p, m), spec_B(m, m, p), "less")
          for m in range(3, top) for p in range(3, top) if m != p),
         "not less"),
        ("dumbbell-vs-figure-eight", {"max_param": pmax},
         "merging the path into one cycle raises the radius",
         ((f"B({m},{p},{q}) vs C({m + p},{q})", spec_B(m, p, q), spec_C(m + p, q), "less")
          for q in range(3, top) for m in range(q, top) for p in range(1, top)),
         "not less"),
        ("dumbbell-path-shortening", {"max_param": pmax},
         "shorten path, grow far cycle: radius never rises; equality "
         "exactly in the fully balanced case",
         ((f"B({m},{p},{q}) -> B({m},{p - 1},{q + 2})", spec_B(m, p - 1, q + 2),
           spec_B(m, p, q), "equal" if m == p == q else "less")
          for q in range(3, top) for m in range(q, top) for p in range(q, top)),
         "{verdict} != {want}"),
    ]


def verify_family_grids(pmax: int = 9) -> list[VerificationReport]:
    """Certified radius comparisons across the bicyclic families.

    Six sweeps with all parameters at most ``pmax``: the theta/dumbbell
    equal-radius identity (exact gcd), theta balance monotonicity, dumbbell
    end-cycle balance at fixed path, the path/cycle swap strict inequality,
    dumbbell versus figure-eight, and the path-shortening non-increase with
    its exact equality case.  Strict orderings use disjoint certified
    brackets; equalities use polynomial gcd certificates.
    """
    reports = []
    for claim_id, params, detail, pairs, wording in _grid_claims(pmax):
        bad = []
        total = 0
        for label, a, b, want in pairs:
            total += 1
            verdict = compare_rho_certified(build_bicyclic(a)[0], build_bicyclic(b)[0])
            if verdict != want:
                bad.append((label, wording.format(verdict=verdict, want=want)))
        reports.append(
            VerificationReport(
                claim_id, {**params, "pairs": total}, "fail" if bad else "pass",
                witnesses=bad[:10], detail=detail,
            )
        )

    # parity formulas for the independence number of all three families
    bad = []
    total = 0
    for spec in _grid_specs(pmax):
        total += 1
        g, _ = build_bicyclic(spec)
        if independence_number(g) != predicted_independence(spec):
            bad.append((str(spec), f"alpha {independence_number(g)}"))
    reports.append(
        VerificationReport(
            "family-independence-parity", {"max_param": pmax, "specs": total},
            "fail" if bad else "pass", witnesses=bad[:10],
            detail="closed-form parity case split matches exact search",
        )
    )
    return reports


def _grid_specs(pmax: int) -> list[BicyclicSpec]:
    specs = []
    for m in range(3, pmax + 1):
        for q in range(3, pmax + 1):
            specs.append(spec_C(m, q))
            for p in range(1, pmax + 1):
                specs.append(spec_B(m, p, q))
    for m in range(1, pmax + 1):
        for p in range(1, pmax + 1):
            for q in range(1, pmax + 1):
                if (m, p, q).count(1) <= 1:
                    specs.append(spec_P(m, p, q))
    return specs


def verify_descent_endpoint_readings(k_values: Iterable[int] = (4, 6, 8)) -> list[VerificationReport]:
    """Settle two ambiguous displayed comparisons in the even-order descent.

    For even k (order n = 3k - 2): (a) which theta graph attains equality
    with the dumbbell minimizer B(k-1, k+1, k-1) - the same-order candidate
    P(k-1, k+1, k-1) or the often-quoted P(k+1, k-1, k+1), whose order is
    n + 2 and therefore cannot even lie in the class; (b) the strict
    comparison rho(B(k-1, k-1, k+1)) > rho(B(k-1, k+1, k-1)), i.e. against
    the same-order balanced dumbbell rather than an order-(n+2) graph.
    Both are certified exactly and the order mismatch of the alternative
    reading is recorded in the report detail.
    """
    reports = []
    for k in k_values:
        if k % 2 == 1:
            raise InvalidParameterError("descent endpoint readings apply to even k")
        n = 3 * k - 2
        same_order = build_bicyclic(spec_P(k - 1, k + 1, k - 1))[0]
        target = build_bicyclic(spec_B(k - 1, k + 1, k - 1))[0]
        other = build_bicyclic(spec_P(k + 1, k - 1, k + 1))[0]
        eq = compare_rho_certified(same_order, target)
        ok_a = eq == "equal" and same_order.n == n and other.n == n + 2
        reports.append(
            VerificationReport(
                "descent-equality-candidate",
                {"k": k, "n": n},
                "pass" if ok_a else "fail",
                witnesses=[(to_graph6(same_order), "equal-radius theta")],
                detail=(
                    f"P({k - 1},{k + 1},{k - 1}) attains equality (certified {eq}); "
                    f"the alternative P({k + 1},{k - 1},{k + 1}) has order {other.n} != {n}"
                ),
            )
        )
        lhs = build_bicyclic(spec_B(k - 1, k - 1, k + 1))[0]
        verdict = compare_rho_certified(lhs, target)
        reports.append(
            VerificationReport(
                "descent-subcase-inequality",
                {"k": k, "n": n},
                "pass" if verdict == "greater" else "fail",
                detail=(
                    f"certified rho(B({k - 1},{k - 1},{k + 1})) > "
                    f"rho(B({k - 1},{k + 1},{k - 1})): {verdict}; the displayed "
                    f"right-hand graph B({k + 1},{k - 1},{k + 1}) has order {n + 2} != {n}"
                ),
            )
        )
    return reports


def write_reports(reports: list[VerificationReport], path: str, fmt: str = "text") -> None:
    """Dump reports as text or CSV (one row per report, witnesses joined)."""
    if fmt == "text":
        body = "\n".join(r.to_text() for r in reports) + "\n"
    elif fmt == "csv":
        lines = ["claim_id,parameters,status,detail,witnesses"]
        for r in reports:
            params = json.dumps(r.parameters, sort_keys=True).replace('"', "'")
            wit = ";".join(f"{g6} {v}" for g6, v in r.witnesses).replace('"', "'")
            detail = r.detail.replace('"', "'")
            lines.append(f'"{r.claim_id}","{params}","{r.status}","{detail}","{wit}"')
        body = "\n".join(lines) + "\n"
    else:
        raise InvalidParameterError(f"unknown report format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(body)


def overall_exit_code(reports: list[VerificationReport]) -> int:
    """0 all pass, 1 any fail, 3 unresolved-only."""
    if any(r.status == "fail" for r in reports):
        return 1
    if any(r.status == "unresolved" for r in reports):
        return 3
    return 0
