"""In-memory spans and counters around spectramin's module boundaries.

The benchmark never edits the package.  It replaces module attributes
(``verify.independence_number``, ``exactpoly.sign_at``, ...) with timing or
counting wrappers for the length of a traced pass and puts the originals
back afterwards.  Each attribute is patched where the *calling* module looks
it up, so a wrapper sees exactly the calls that module makes.

A span is (name, start, end, parent); the workload is one per run and is
stored with the spans when they are written out.  Leaf functions that run
hundreds of thousands of times and whose time no metric needs are counted
instead of spanned, which keeps the overhead and the memory small.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from spectramin import analytic, enumeration, exactpoly, graphs, spectral, verify

# (module, attribute, span name): timed wrappers, one span per call
SPANNED = [
    (verify, "minimizer", "verify.minimizer"),
    (verify, "minimizer_bicyclic", "verify.minimizer_bicyclic"),
    (verify, "verify_edge_minimal_pair", "verify.verify_edge_minimal_pair"),
    (verify, "verify_family_grids", "verify.verify_family_grids"),
    (verify, "verify_descent_endpoint_readings", "verify.verify_descent_endpoint_readings"),
    (verify, "_minimizer_branch", "verify._minimizer_branch"),
    (verify, "_scan_stream", "verify._scan_stream"),
    (verify, "_resolve_argmin", "verify._resolve_argmin"),
    (verify, "independence_number", "graphs.independence_number"),
    (graphs.Graph, "adjacency_matrix", "graphs.adjacency_matrix"),
    (enumeration, "automorphisms", "graphs.automorphisms"),
    (enumeration, "build_bicyclic", "graphs.build_bicyclic"),
    (verify, "to_graph6", "formats.to_graph6"),
    (verify, "from_graph6", "formats.from_graph6"),
    (verify, "_rho_batch", "spectral.eigvalsh_batch"),
    (verify, "rho_numeric", "spectral.rho_numeric"),
    (spectral, "rho_numeric", "spectral.rho_numeric"),
    (verify, "compare_rho_certified", "spectral.compare_rho_certified"),
    (spectral, "char_poly", "spectral.char_poly"),
    (exactpoly, "poly_gcd", "exactpoly.poly_gcd"),
    (analytic, "rho_analytic", "analytic.rho_analytic"),
]

# (module, attribute, counter name): call counts only
COUNTED = [
    (enumeration, "_canon", "enumeration.canon_calls"),
    (exactpoly, "sign_at", "exactpoly.sign_evals"),
    (exactpoly, "count_roots_in", "exactpoly.sturm_counts"),
    (analytic, "boundary_det", "analytic.det_evals"),
]

# generators whose every next() is a span; what they yield are the classes
GENERATORS = [
    (verify, "enumerate_connected_from_branch", "enumeration.next"),
    (verify, "bicyclic_graphs", "enumeration.next"),
]


def _batch_size(args, result):
    return {"spectral.numeric_graphs": len(args[0])}


def _one_graph(args, result):
    return {"spectral.numeric_graphs": 1}


def _band(args, result):
    return {"verify.band_candidates": len(args[0])}


def _verdict(args, result):
    return {f"spectral.verdict_{result}": 1}


# counters derived from a spanned call's arguments or result
HOOKS = {
    "spectral.eigvalsh_batch": _batch_size,
    "spectral.rho_numeric": _one_graph,
    "verify._resolve_argmin": _band,
    "spectral.compare_rho_certified": _verdict,
}


class Tracer:
    """Spans in flat arrays plus named counters, for one traced pass."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _recorders(self, name: str):
        """Open and close functions for spans called ``name``."""
        nid = self._id(name)
        add_name, add_parent, add_start = (self.name.append, self.parent.append,
                                           self.start.append)
        start, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter

        def open_span() -> int:
            i = len(start)
            add_name(nid)
            add_parent(stack[-1])
            ends.append(0.0)
            stack.append(i)
            add_start(clock())
            return i

        def close_span(i: int) -> None:
            ends[i] = clock()
            stack.pop()

        return open_span, close_span

    def spanned(self, name: str, fn):
        open_span, close_span = self._recorders(name)
        hook = HOOKS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(i)
            if hook is not None:
                counts.update(hook(args, result))
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def generator(self, name: str, fn):
        open_span, close_span = self._recorders(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                i = open_span()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close_span(i)
                counts["enumeration.classes"] += 1
                yield item

        return wrapper

    def spans(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [i for i, k in enumerate(self.name) if k == nid]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for i, k in enumerate(self.name):
            d = self.end[i] - self.start[i]
            row = out[self.names[k]]
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        t0 = self.start[0] if self.start else 0.0
        np.savez_compressed(
            path,
            workload=np.array(self.workload),
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64) - t0,
            end=np.frombuffer(self.end, dtype=np.float64) - t0,
        )


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []
    plan = (
        [(o, a, tracer.spanned(n, getattr(o, a))) for o, a, n in SPANNED]
        + [(o, a, tracer.counted(n, getattr(o, a))) for o, a, n in COUNTED]
        + [(o, a, tracer.generator(n, getattr(o, a))) for o, a, n in GENERATORS]
    )
    try:
        for obj, attr, wrapper in plan:
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, wrapper)
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


def _branch_max_share(tr: Tracer) -> float:
    """Slowest work unit's share of the workload's largest search.

    The units are the level-5 branches (``verify._minimizer_branch``) in
    full-space mode and the bicyclic cores in structural mode, where each
    ``build_bicyclic`` call inside the generator opens the next core.  A run
    without a search is a single unit.
    """
    branches = tr.spans("verify._minimizer_branch")
    if branches:
        last_call = tr.spans("verify.minimizer")[-1]
        durations = [tr.end[i] - tr.start[i] for i in branches
                     if tr.start[i] >= tr.start[last_call]]
        return max(durations) / sum(durations)
    scans = tr.spans("verify._scan_stream")
    cores = tr.spans("graphs.build_bicyclic")
    if not scans or not cores:
        return 1.0
    scan = scans[-1]
    marks = [tr.start[i] for i in cores if tr.start[i] >= tr.start[scan]]
    marks.append(tr.end[scan])
    durations = [b - a for a, b in zip(marks, marks[1:])]
    return max(durations) / (marks[-1] - marks[0])


def layer_metrics(tr: Tracer, in_class: int, walls: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one traced pass.

    ``in_class`` is the number of classes the searches kept after the alpha
    filter; ``walls`` holds the untraced 1-worker, traced 1-worker and
    untraced 2-worker wall times of the same workload.
    """
    s = tr.summary()
    c = tr.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def total(*names):
        return sum(s.get(n, {}).get("total_s", 0.0) for n in names)

    classes = c["enumeration.classes"]
    canon = c["enumeration.canon_calls"]
    alpha_calls = calls("graphs.independence_number")
    return {
        "enumeration.gen_s": total("enumeration.next"),
        "enumeration.classes": classes,
        "enumeration.canon_calls": canon,
        "enumeration.accept_ratio": classes / canon if canon else 0.0,
        "enumeration.aut_calls": calls("graphs.automorphisms"),
        "enumeration.aut_s": total("graphs.automorphisms"),
        "enumeration.branch_max_share": _branch_max_share(tr),
        "verify.parallel_speedup": walls["untraced_1"] / walls["untraced_2"],
        "verify.band_candidates": c["verify.band_candidates"],
        "verify.resolve_s": total("verify._resolve_argmin"),
        "verify.scan_self_s": s.get("verify._scan_stream", {}).get("self_s", 0.0),
        "graphs.alpha_calls": alpha_calls,
        "graphs.alpha_s": total("graphs.independence_number"),
        "graphs.alpha_pass_ratio": in_class / alpha_calls if alpha_calls else 0.0,
        "graphs.adjmat_s": total("graphs.adjacency_matrix"),
        "formats.encode_calls": calls("formats.to_graph6"),
        "formats.encode_s": total("formats.to_graph6"),
        "formats.decode_calls": calls("formats.from_graph6"),
        "spectral.numeric_graphs": c["spectral.numeric_graphs"],
        "spectral.numeric_s": total("spectral.eigvalsh_batch", "spectral.rho_numeric"),
        "spectral.certify_calls": calls("spectral.compare_rho_certified"),
        "spectral.certify_s": total("spectral.compare_rho_certified"),
        "spectral.verdict_less": c["spectral.verdict_less"],
        "spectral.verdict_greater": c["spectral.verdict_greater"],
        "spectral.verdict_equal": c["spectral.verdict_equal"],
        "spectral.verdict_unresolved": c["spectral.verdict_unresolved"],
        "spectral.charpoly_calls": calls("spectral.char_poly"),
        "spectral.charpoly_s": total("spectral.char_poly"),
        "exactpoly.sign_evals": c["exactpoly.sign_evals"],
        "exactpoly.sturm_counts": c["exactpoly.sturm_counts"],
        "exactpoly.gcd_calls": calls("exactpoly.poly_gcd"),
        "exactpoly.gcd_s": total("exactpoly.poly_gcd"),
        "analytic.solves": calls("analytic.rho_analytic"),
        "analytic.solve_s": total("analytic.rho_analytic"),
        "analytic.det_evals": c["analytic.det_evals"],
        "trace.overhead": walls["traced_1"] / walls["untraced_1"] - 1.0,
    }
