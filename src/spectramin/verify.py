"""Minimizer searches and the claim-verification harness.

Everything here confronts a claimed extremal statement with exhaustive
computation: enumerate a graph class, filter by independence number,
order spectral radii numerically with a safety band, and settle anything
inside the band with exact certified comparisons.  Results come back as
structured reports with graph6 witnesses.

A scan eigensolves only the graphs that can reach the band.  Walk counts
give each graph a lower bound on its radius (the Rayleigh quotient of
x = A^4 1, W_9 / W_8), and a graph whose bound lies above a radius already
known (the running minimum, or one graph of its batch solved first) plus
the band is dropped unsolved: its radius lies above the final minimum plus
the band, so it could never be in the band.  A batch of a few graphs, where
the bounds cost more than they save, is solved whole.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field
from itertools import accumulate
from math import isqrt
from typing import Iterable, Iterator

import numpy as np

from .analytic import hub_exceeds
from .enumeration import (
    _ROOT,
    BRANCH_LEVEL,
    EDGE_MODE_CAP,
    EXTENDED_CAP,
    FULL_SPACE_CAP,
    _bicyclic_blocks,
    _core_specs_bicyclic,
    _leaf_blocks,
    bicyclic_graphs,  # unused here, kept patchable: perfbench/tracing.py wraps it
    branch_states,
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
    is_connected,
    predicted_independence,
    spec_B,
    spec_C,
    spec_P,
)
from .spectral import DENSE_CAP, EXACT_CAP, compare_rho_certified, rho_numeric

SAFETY_BAND = 1e-7
_WALK_STEPS = 4  # the scan's lower bound is the Rayleigh quotient of A^4 1
# --n of each sweep, inclusive; max-extremal enumerates every connected graph
_ORDER_RANGES = {"edge-minimal-pair": (7, EDGE_MODE_CAP), "max-extremal": (1, 8)}
_BATCH = 4096
# Below this many graphs one eigensolve of the whole batch is cheaper than
# the walk bounds plus the pivot's solve (BENCH_forest_arrays.json).
_WALK_MIN_BATCH = 10


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
    class_size: int
    searched: int = -1  # classes generated and orbit-tested before the alpha filter
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


def target_alpha(n: int) -> int:
    """Independence number of the theorem's class on ``n`` vertices, ceil(n/2) - 1."""
    return (n + 1) // 2 - 1


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


def _rho_batch(mats: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(mats)[:, -1]


def _walk_bounds(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius bounds (lo, cw) of each adjacency matrix of a stack, from walks.

    With x = A^k 1 (k = ``_WALK_STEPS``), lo = x'Ax / x'x = W_9 / W_8 is a
    Rayleigh quotient, so lo <= rho, and cw = max_i (Ax)_i / x_i >= rho by
    Collatz-Wielandt when x > 0 (a connected graph on two or more vertices).
    The walk counts are integers below 2^53 for every class scanned, so
    both are exact up to the final division; K_1 gives NaN for both.
    """
    x = np.ones(mats.shape[:2] + (1,))
    for _ in range(_WALK_STEPS):
        x = mats @ x
    ax = (mats @ x)[..., 0]
    x = x[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return (x * ax).sum(1) / (x * x).sum(1), (ax / x).max(1)


def _band_radii(mats: np.ndarray, best: float) -> tuple[np.ndarray, np.ndarray]:
    """(indices, numeric radii) of the matrices of the stack ``mats`` that
    may reach the band, in stream order, given the running minimum ``best``.

    The graph with the least Collatz-Wielandt bound is solved alone; ``cut``
    is the smaller of ``best`` and its radius, plus the band and a 1e-9
    margin for rounding.  A graph with lo > cut has rho >= lo > cut, above
    the final minimum plus the band, so it never enters the band and never
    sets the minimum; every other graph (K_1's NaN included) is solved.  A
    stack of fewer than ``_WALK_MIN_BATCH`` graphs is solved whole, which
    the scan reads the same way.
    """
    if len(mats) < _WALK_MIN_BATCH:
        return np.arange(len(mats)), _rho_batch(mats)
    lo, cw = _walk_bounds(mats)
    pivot = int(np.argmin(cw))
    cut = min(best, float(_rho_batch(mats[pivot:pivot + 1])[0])) + SAFETY_BAND + 1e-9
    keep = np.flatnonzero(~(lo > cut))
    return keep, _rho_batch(mats[keep])


def _batches(blocks: Iterable) -> Iterator[list[tuple]]:
    """The classes of a block stream, ``_BATCH`` at a time in stream order
    (the last batch may be short), each batch a list of (block, lo, hi)
    slices."""
    parts: list[tuple] = []
    size = 0
    for block in blocks:
        lo = 0
        while lo < len(block):
            hi = min(len(block), lo + _BATCH - size)
            parts.append((block, lo, hi))
            size += hi - lo
            lo = hi
            if size == _BATCH:
                yield parts
                parts, size = [], 0
    if parts:
        yield parts


def _batch_radii(parts: list[tuple], starts: list[int], best: float):
    """``_band_radii`` of one batch, whose matrix stack lives only here."""
    mats = np.zeros((starts[-1], parts[0][0].n, parts[0][0].n))
    for (block, lo, hi), at in zip(parts, starts):
        block.fill(mats[at:at + hi - lo], lo, hi)
    return _band_radii(mats, best)


def _scan_stream(
    stream: Iterable, alpha: int | None
) -> tuple[int, int, float, list[tuple[float, str]]]:
    """One pass: alpha-filter, numeric radii, candidates near the minimum.

    ``stream`` holds blocks: ``LeafBlock``s of the orderly walk, which carry
    each leaf's alpha and are filtered here by ``alpha``, or ``ClassBlock``s
    of rank rows, which the forest pass filtered upstream and which pass as
    they are (``alpha`` None).  Returns (classes streamed, class size,
    numeric min, [(rho, graph6)] for graphs within the safety band of the
    stream minimum).  In-class graphs are taken one stream-order batch of
    ``_BATCH`` at a time.  Each batch's matrix stack is filled with one
    scatter per block, and ``_band_radii`` eigensolves only the graphs
    whose walk lower bound can reach the band (all of a small batch).  The
    result equals eigensolving every graph: the final band is the
    stream-order list of graphs with rho <= min + band, which no dropped
    graph can join, and the minimum's own bound never exceeds the cut.
    Only band members become ``Graph``s, and only the final band becomes
    graph6.
    """
    seen = 0

    def in_class():
        nonlocal seen
        for block in stream:
            seen += len(block)
            yield block if alpha is None else block.where(block.alpha == alpha)

    count = 0
    best = float("inf")
    band: list[tuple[float, Graph]] = []
    for parts in _batches(in_class()):
        starts = list(accumulate((hi - lo for _, lo, hi in parts), initial=0))
        count += starts[-1]
        keep, radii = _batch_radii(parts, starts, best)
        for i, r in zip(keep.tolist(), radii.tolist()):
            if r < best:
                best = r
                band = [(rr, gg) for rr, gg in band if rr <= best + SAFETY_BAND]
            if r <= best + SAFETY_BAND:
                k = bisect_right(starts, i) - 1
                block, lo, _ = parts[k]
                band.append((r, block.graph(lo + i - starts[k])))
    return seen, count, best, [(r, to_graph6(g)) for r, g in band]


def _resolve_argmin(cands: list[tuple[float, str]]) -> tuple[list[Graph], bool]:
    """Certified argmin set from near-minimum candidates.

    The numeric leader is the pivot; every candidate is compared exactly
    against it, swapping pivots if a certified smaller one shows up.
    """
    if not cands:
        return [], False
    order = sorted(cands, key=lambda rk: (rk[0], rk[1]))
    graphs = [from_graph6(k) for _, k in order]
    certs: dict = {}
    pivot = 0
    unresolved = False
    while True:
        equal = [pivot]
        swapped = False
        for i, g in enumerate(graphs):
            if i == pivot:
                continue
            verdict = compare_rho_certified(g, graphs[pivot], certs)
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
    """Full-space work unit: scan the connected descendants of one state,
    which come as blocks of leaves with their alphas."""
    n, alpha, state = args
    return _scan_stream(enumerate_connected_from_branch(n, state), alpha)


def _bicyclic_branch(args) -> tuple[int, int, float, list[tuple[float, str]]]:
    """Bicyclic work unit: scan the graphs grown from some cores (None: all).

    The forest pass filters by alpha and hands the scan blocks of rank rows
    of the classes in the alpha class (all of them when ``alpha`` is None);
    every class it generates counts as searched.
    """
    n, alpha, cores = args
    searched = 0

    def in_class():
        nonlocal searched
        searched = yield from _bicyclic_blocks(n, cores, alpha)

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
        done, seen, count = saved["done"], saved.get("seen", 0), saved["count"]
        cands = [(float(r), str(g6)) for r, g6 in saved["cands"]]
        best = float(saved["best"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidInputError(f"unreadable checkpoint {path}: {exc}") from exc
    # type() rather than isinstance: a JSON true or false is no count
    if type(done) is not int or not 0 <= done < key["units"]:
        raise InvalidInputError(
            f"checkpoint {path}: done = {done!r} is not a unit index 0..{key['units'] - 1}")
    for name, value in (("seen", seen), ("count", count)):
        if type(value) is not int or value < 0:
            raise InvalidInputError(
                f"checkpoint {path}: {name} = {value!r} is not a non-negative integer")
    return done, (seen, count, best, cands)


def _save_checkpoint(path: str, state: dict) -> None:
    """Replace the checkpoint atomically: a kill leaves the old or the new file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_workers(workers: int) -> None:
    """Refuse a worker count below 1 or above the usable CPUs, before any
    pool exists: a pool forks all of its workers at its first search and
    keeps them."""
    cpus = _usable_cpus()
    if not 1 <= workers <= cpus:
        raise InvalidParameterError(f"workers must be 1..{cpus} (the usable CPUs), got {workers}")


# Chunks per worker that a parallel search sends its parts in, at least one
# part each: a chunk is one round trip to a worker.  16 per worker cut a
# bicyclic pass (406 cores for n = 10, 12, 14) to 111 round trips and still
# balance cores of uneven cost, and keep the 34 full-space branches one per
# chunk, so a checkpointed search saves after its first branch.
_CHUNKS_PER_WORKER = 16

# The kept process pool as (worker count, pool); None before the first
# parallel search and after a broken one.
_POOL: tuple[int, ProcessPoolExecutor] | None = None


def _unit_results(unit, todo: list, workers: int) -> Iterator:
    """``unit`` of each item of ``todo``, in order.

    One worker runs the units in this process.  More run them in the kept
    pool, in about ``_CHUNKS_PER_WORKER`` chunks per worker.  The pool is
    made at the first parallel search and kept until the interpreter exits
    (``concurrent.futures`` joins its workers then); a search that asks for
    another worker count shuts it down and makes one of that count, so at
    most ``workers`` processes live.  Its workers are forked at its first
    search, so they keep the module attributes of that moment, and the
    tables they build (``enumeration._core_tables``) serve every later
    search.  Closing this generator cancels the chunks not yet started.  A
    pool whose worker died raises ``BrokenProcessPool`` and is dropped, so
    the next search makes a fresh one.
    """
    global _POOL
    if workers == 1 or not todo:
        yield from map(unit, todo)
        return
    if _POOL is None or _POOL[0] != workers:
        if _POOL is not None:
            _POOL[1].shutdown(cancel_futures=True)
        _POOL = workers, ProcessPoolExecutor(max_workers=workers)
    pool = _POOL[1]
    chunksize = max(1, len(todo) // (_CHUNKS_PER_WORKER * workers))
    try:
        yield from pool.map(unit, todo, chunksize=chunksize)
    except BrokenProcessPool:
        if _POOL is not None and _POOL[1] is pool:
            _POOL = None
        raise


def _search(
    unit,
    n: int,
    alpha: int | None,
    parts: list,
    workers: int,
    checkpoint: str | None,
) -> MinimizerResult:
    """The one search driver: scan every part, merge, certify the argmin.

    ``unit((n, alpha, part))`` scans one part.  Parts run through the
    process pool of ``workers`` processes, kept for the whole process (see
    ``_unit_results``), when ``workers > 1`` and in this process otherwise;
    either way the results are merged in part order as they arrive, and
    after each one the finished prefix is saved to ``checkpoint`` (keyed by
    n, alpha and the number of parts), from which a later run with any
    worker count resumes.
    """
    _check_workers(workers)
    key = {"n": n, "alpha": alpha, "units": len(parts)}
    saved = _load_checkpoint(checkpoint, key)
    done, (seen, count, best, cands) = saved or (-1, (0, 0, float("inf"), []))
    todo = [(n, alpha, part) for part in parts[done + 1:]]
    with closing(_unit_results(unit, todo, workers)) as results:
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
    return MinimizerResult(n, -1 if alpha is None else alpha, min_rho, argmin, count, seen,
                           unresolved)


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
        raise InvalidParameterError(f"minimizer supports 1 <= n <= {cap}, got {n}")
    states = branch_states() if n >= BRANCH_LEVEL else [_ROOT]
    return _search(_minimizer_branch, n, alpha, states, workers, checkpoint)


def minimizer_bicyclic(n: int, alpha: int | None = None, workers: int = 1) -> MinimizerResult:
    """Certified minimum-radius graphs among connected (n+1)-edge graphs,
    optionally filtered by independence number.

    With ``workers > 1`` each two-cycle core is a parallel unit, sent in
    chunks to a pool that lives for the whole process: its workers are
    forked at the first parallel search, so a module attribute patched after
    that does not reach them, and they keep each core's forest tables for
    every later order.  One worker streams the whole class as a single unit
    in this process.
    """
    if not 4 <= n <= EDGE_MODE_CAP:
        raise InvalidParameterError(
            f"two-cycle minimizer supports 4 <= n <= {EDGE_MODE_CAP}, got {n}"
        )
    parts = [[spec] for spec in _core_specs_bicyclic(n)] if workers > 1 else [None]
    return _search(_bicyclic_branch, n, alpha, parts, workers, None)


# ---------------------------------------------------------------------------
# claim verifications


def _argmin_report(
    claim_id: str, params: dict, res: MinimizerResult, want: list[Graph], detail: str,
    ok: bool = True,
) -> VerificationReport:
    """The row of a minimizer claim, witnessed by the argmin.  It passes when
    ``ok`` holds, no comparison was left unresolved, and the argmin equals
    ``want`` up to isomorphism."""
    same = sorted(map(canonical_form, res.argmin)) == sorted(map(canonical_form, want))
    return VerificationReport(
        claim_id, params, "pass" if ok and not res.unresolved and same else "fail",
        witnesses=_witnesses(res.argmin), detail=detail,
    )


def _witnesses(graphs: list[Graph]) -> list[tuple[str, str]]:
    return [(to_graph6(g), f"rho~{rho_numeric(g):.12g}") for g in graphs]


def reads_checkpoint(n: int, extended: bool) -> bool:
    """True when the case-table row for ``n`` runs a checkpointed search:
    a full-space row past ``FULL_SPACE_CAP``, which needs ``extended``."""
    return extended and FULL_SPACE_CAP < n <= EXTENDED_CAP


def verify_minimum_radius_case_table(
    n_list: Iterable[int],
    extended: bool = False,
    workers: int = 1,
    checkpoint: str | None = None,
) -> list[VerificationReport]:
    """Check the case table of minimum-radius graphs for each order.

    Full-space enumeration where feasible (n <= 9, or 10 with extended);
    odd n beyond that are settled by the cycle law (``_odd_cycle_law``), and
    even n fall back to the (n+1)-edge class with the same
    independence number, alpha = n/2 - 1.  That class holds the global
    minimizer by two laws:

    * Trees and unicyclic graphs have alpha >= n/2, so none is in the class:
      a tree is bipartite, and deleting a cycle vertex v of a unicyclic
      graph leaves a forest on n - 1 vertices, so alpha >= ceil((n-1)/2).
    * A graph with m >= n + 2 edges has rho^2 >= sum(d^2)/n >= 4 + 20/n
      (Hofmeister 1988; at degree sum 2n + 4 the least sum of squares puts
      degree 3 on four vertices and 2 on the rest).  When the prediction's
      radius lies below sqrt(4 + 20/n), proved in integers by
      ``_denser_graphs_exceed``, every such graph lies above the prediction.

    The premise holds for even n = 10..38 and fails from 40; an order where
    it fails is reported unresolved.  Every order is routed before any row
    runs, so an order with no route is refused up front (``_case_route``).
    """
    _check_workers(workers)
    routes = [(n, _case_route(n, extended)) for n in n_list]
    reports = []
    for n, route in routes:
        alpha = target_alpha(n)
        if route == "cycle-law":
            reports.append(_odd_cycle_law(n, alpha))
            continue
        if route == "unresolved":
            reports.append(
                VerificationReport(
                    "minimum-radius-case-table", {"n": n}, "unresolved",
                    detail="rho(prediction)^2 not certified below 4 + 20/n: "
                    "graphs with n+2 or more edges not excluded",
                )
            )
            continue
        expected = theorem_prediction(n)
        if route == "full-space":
            res = minimizer(
                n, alpha, extended=extended, workers=workers,
                checkpoint=checkpoint if reads_checkpoint(n, extended) else None,
            )
            mode = "full-space"
        else:
            res = minimizer_bicyclic(n, alpha, workers=workers)
            mode = ("bicyclic-mode (trees and unicyclic graphs have alpha >= n/2; "
                    "n+2 or more edges give rho^2 >= 4+20/n > hi^2 of the prediction)")
        reports.append(_argmin_report(
            "minimum-radius-case-table",
            {"n": n, "alpha": alpha, "mode": mode, "class_size": res.class_size},
            res, [graph_from_family(expected)],
            f"expected {expected}, found {len(res.argmin)} argmin",
        ))
    return reports


def _case_route(n: int, extended: bool) -> str:
    """How the case-table row for ``n`` is settled: "full-space", "cycle-law",
    "bicyclic" or "unresolved".  Refused: n < 3, n above ``DENSE_CAP`` (a
    row's witness takes a dense eigensolve), and an even n past
    ``EDGE_MODE_CAP`` whose premise holds."""
    if n < 3:
        raise InvalidParameterError(f"theorem-1.1 --n must be at least 3, got {n}")
    if n > DENSE_CAP:
        raise InvalidParameterError(
            f"theorem-1.1 --n {n}: the case table stops at the dense cap n = {DENSE_CAP}")
    if n <= FULL_SPACE_CAP or (extended and n <= EXTENDED_CAP):
        return "full-space"
    if n % 2 == 1:
        return "cycle-law"
    if not _denser_graphs_exceed(n):
        return "unresolved"
    if n > EDGE_MODE_CAP:
        raise InvalidParameterError(
            f"theorem-1.1 --n {n}: denser graphs are excluded, but the two-cycle "
            f"search stops at n = {EDGE_MODE_CAP}"
        )
    return "bicyclic"


def _odd_cycle_law(n: int, alpha: int) -> VerificationReport:
    """The row for an odd order past full enumeration, settled by law.

    A tree is bipartite, so its alpha is at least ceil(n/2), above the
    class's (n - 1)/2.  Every other connected graph except C_n properly
    contains a cycle C_k, so its radius exceeds rho(C_k) = 2: the radius of
    a connected graph grows strictly from a proper subgraph (Perron-
    Frobenius).  So C_n is the unique minimizer once alpha(C_n) = (n - 1)/2
    and rho(C_n) = 2 hold, both checked exactly: the radius by A 1 = 2 1 (each
    bitmask row has two bits) on the connected cycle, since a positive
    eigenvector belongs to rho (Perron-Frobenius).
    """
    cycle = build_cycle(n)
    alpha_ok = independence_number(cycle) == alpha
    rho_two = is_connected(cycle) and all(row.bit_count() == 2 for row in cycle.rows)
    mode = ("cycle-law (trees have alpha >= ceil(n/2); any other connected graph "
            "properly contains a cycle, so rho > 2 = rho(C_n))")
    return VerificationReport(
        "minimum-radius-case-table", {"n": n, "alpha": alpha, "mode": mode},
        "pass" if alpha_ok and rho_two else "fail",
        witnesses=_witnesses([cycle]),
        detail=f"expected C:{n}, alpha(C_n) = {alpha}: {'yes' if alpha_ok else 'no'}, "
        f"rho(C_n) = 2 by A1 = 2*1: {'yes' if rho_two else 'no'}",
    )


def _denser_graphs_exceed(n: int) -> bool:
    """True when every graph of order n with n + 2 or more edges has a larger
    radius than the prediction: rho <= R / 2**48 by ``hub_exceeds``, at the
    largest R with R^2 n < (4n + 20) 4**48, so rho^2 < 4 + 20/n."""
    m, p, q = (int(x) for x in theorem_prediction(n)[2:].split(","))
    R = isqrt((((4 * n + 20) << 96) - 1) // n)
    return not hub_exceeds(spec_B(m, p, q), R, 48)


def verify_small_order_minimizers() -> list[VerificationReport]:
    """The explicit minimizers for orders 3..6, plus uniqueness of the
    one-graph classes at orders 3 and 4."""
    reports = []
    for n in range(3, 7):
        expected = theorem_prediction(n)
        alpha = target_alpha(n)
        res = minimizer(n, alpha)
        reports.append(_argmin_report(
            "small-order-minimizers", {"n": n, "alpha": alpha, "class_size": res.class_size},
            res, [graph_from_family(expected)], f"expected {expected}",
            ok=n not in (3, 4) or res.class_size == 1,
        ))
    return reports


def check_orders(claim: str, n_list: Iterable[int]) -> None:
    """Refuse, before any row runs, an order outside the range of ``claim``."""
    lo, hi = _ORDER_RANGES[claim]
    bad = [n for n in n_list if not lo <= n <= hi]
    if bad:
        raise InvalidParameterError(f"{claim} --n must lie in {lo}..{hi}, got {bad[0]}")


def verify_edge_minimal_pair(n_list: Iterable[int]) -> list[VerificationReport]:
    """Unrestricted (n+1)-edge minimizers: the balanced theta and dumbbell pair
    with exactly-certified equal radii.

    Every order is checked before any class is scanned: the predicted
    dumbbell B(k,p,k) needs cycles of length k = ceil(n/3) >= 3, so n >= 7,
    and above ``EDGE_MODE_CAP`` the class is not generated.
    """
    n_list = list(n_list)
    check_orders("edge-minimal-pair", n_list)
    reports = []
    certs: dict = {}
    for n in n_list:
        k = -(-n // 3)
        p = n + 1 - 2 * k
        res = minimizer_bicyclic(n, None)
        want = [f"P:{k},{p},{k}", f"B:{k},{p},{k}"]
        pair = [graph_from_family(s) for s in want]
        exact = compare_rho_certified(*pair, certs) == "equal"
        reports.append(_argmin_report(
            "edge-minimal-balanced-pair", {"n": n, "k": k}, res, pair,
            f"expected {want}, gcd-equality={'yes' if exact else 'no'}", ok=exact,
        ))
    return reports


def verify_max_extremal(n: int) -> VerificationReport:
    """Upper bound: every graph's radius is at most the join graph's, with
    equality only at the join graph itself.

    Each connected leaf of the orderly walk (``_leaf_blocks``, which carry
    their alphas) is compared with the join graph of its alpha by a
    certified comparison, and fails when the verdict is not "less" unless
    it is that join graph (equal canonical forms)."""
    check_orders("max-extremal", [n])
    joins = {alpha: build_join_extremal(n, alpha) for alpha in range(1, n)}
    failures = []
    checked = 0
    certs: dict = {}  # the join graphs stay; a swept graph leaves after its comparison
    for block in _leaf_blocks(n, _ROOT):
        for g, alpha in zip(block.graphs(), block.alpha.tolist()):
            if alpha == n:  # only the edgeless graph, never connected for n > 1
                continue
            checked += 1
            jg = joins[alpha]
            verdict = compare_rho_certified(g, jg, certs)
            if g != jg:
                certs.pop(g, None)
            if verdict != "less" and canonical_form(g) != canonical_form(jg):
                failures.append((to_graph6(g),
                                 f"not certified below bound {rho_numeric(jg)}: {verdict}"))
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
    brackets; equalities use polynomial gcd certificates, so ``pmax`` is
    refused before any work once the equal pair B(pmax, pmax - 1, pmax + 2),
    of order 3 pmax, passes ``EXACT_CAP``.
    """
    if 3 * pmax > EXACT_CAP:
        raise InvalidParameterError(
            f"--grid 3..{pmax}: the equal pairs reach order {3 * pmax}, past the exact cap "
            f"{EXACT_CAP}; the largest grid is 3..{EXACT_CAP // 3}")
    reports = []
    certs: dict = {}
    built: dict[BicyclicSpec, Graph] = {}  # each spec is built once per call

    def graph(spec: BicyclicSpec) -> Graph:
        if spec not in built:
            built[spec] = build_bicyclic(spec)[0]
        return built[spec]

    for claim_id, params, detail, pairs, wording in _grid_claims(pmax):
        bad = []
        total = 0
        for label, a, b, want in pairs:
            total += 1
            verdict = compare_rho_certified(graph(a), graph(b), certs)
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
        g = graph(spec)
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
    k_values = list(k_values)
    for k in k_values:
        if k < 4 or k % 2:
            raise InvalidParameterError(f"descent endpoint readings need even k >= 4, got {k}")
    reports = []
    certs: dict = {}
    for k in k_values:
        n = 3 * k - 2
        same_order = build_bicyclic(spec_P(k - 1, k + 1, k - 1))[0]
        target = build_bicyclic(spec_B(k - 1, k + 1, k - 1))[0]
        other = spec_P(k + 1, k - 1, k + 1).order
        eq = compare_rho_certified(same_order, target, certs)
        ok_a = eq == "equal" and same_order.n == n and other == n + 2
        reports.append(
            VerificationReport(
                "descent-equality-candidate",
                {"k": k, "n": n},
                "pass" if ok_a else "fail",
                witnesses=[(to_graph6(same_order), "equal-radius theta")],
                detail=(
                    f"P({k - 1},{k + 1},{k - 1}) attains equality (certified {eq}); "
                    f"the alternative P({k + 1},{k - 1},{k + 1}) has order {other} != {n}"
                ),
            )
        )
        lhs = build_bicyclic(spec_B(k - 1, k - 1, k + 1))[0]
        verdict = compare_rho_certified(lhs, target, certs)
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
