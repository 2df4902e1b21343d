"""The benchmark's tracer patches package attributes by name: each must exist,
and the searches it reads must keep the call shape it assumes."""

import importlib.util
import sys
from pathlib import Path

import pytest

from spectramin import enumeration, exactpoly, spectral, verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_exists(monkeypatch):
    # read the tracer without leaving a bytecode cache beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = tracing.SPANNED + tracing.COUNTED + tracing.GENERATORS
    missing = [f"{getattr(obj, '__name__', obj)}.{attr}"
               for obj, attr, _ in hooks if not hasattr(obj, attr)]
    assert hooks and missing == []


@pytest.mark.parametrize("alpha, in_class", [(4, 30), (None, 2_678)])
def test_serial_bicyclic_search_is_one_scan(alpha, in_class, monkeypatch):
    # the tracer times each core as the stretch between the build_bicyclic
    # calls inside the last _scan_stream span, and the edge-minimal workload
    # sums the scans' first result: one scan must stream every core
    scans = []
    builds = []
    scan = verify._scan_stream
    build = enumeration.build_bicyclic

    def traced_scan(*args):
        scans.append(None)
        result = scan(*args)
        scans[-1] = result[0]
        return result

    def traced_build(spec):
        builds.append((spec, scans == [None]))  # True while the first scan runs
        return build(spec)

    monkeypatch.setattr(verify, "_scan_stream", traced_scan)
    monkeypatch.setattr(enumeration, "build_bicyclic", traced_build)
    res = verify.minimizer_bicyclic(10, alpha, workers=1)
    assert res.searched == 2_678 and res.class_size == in_class
    assert scans == [in_class]
    assert builds == [(spec, True) for spec in enumeration._core_specs_bicyclic(10)]


def test_filtered_bicyclic_classes_build_each_core_lazily(monkeypatch):
    # the alpha-filtered block stream still builds every core through
    # enumeration.build_bicyclic, once per spec in spec order, each only
    # after the blocks of the cores before it were yielded
    builds = []
    yielded = []
    build = enumeration.build_bicyclic

    def traced_build(spec):
        builds.append((spec, len(yielded)))
        return build(spec)

    monkeypatch.setattr(enumeration, "build_bicyclic", traced_build)
    specs = enumeration._core_specs_bicyclic(10)
    cores = [build(spec)[0] for spec in specs]
    per_core = [sum(1 for _ in enumeration._forest_blocks(core, 10 - core.n, 4))
                for core in cores]
    blocks = enumeration._bicyclic_blocks(10, alpha=4)
    while True:
        try:
            yielded.append(next(blocks))
        except StopIteration as stop:
            assert stop.value == 2_678
            break
    before = [sum(per_core[:i]) for i in range(len(specs))]
    assert builds == list(zip(specs, before))
    assert sum(map(len, yielded)) == 30


def _count_certificate_calls(monkeypatch) -> dict:
    """Patch each exact routine the tracer counts; the dict counts their calls."""
    calls = {}
    for module, attr in [(spectral, "char_poly"), (exactpoly, "sign_at"),
                         (exactpoly, "count_roots_in"), (exactpoly, "poly_gcd")]:
        def counted(*args, _real=getattr(module, attr), _name=attr):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(module, attr, counted)
    return calls


def test_certificate_hooks_fire_in_a_lemmas_pass(monkeypatch):
    # the smoke run fails when a counted wrapper fires in none of its
    # workloads.  A lemmas pass reaches the root counts and the gcd through
    # the family polynomials, and builds no graph's char poly
    calls = _count_certificate_calls(monkeypatch)
    reports = verify.verify_family_grids(4) + verify.verify_descent_endpoint_readings()
    assert all(r.status == "pass" for r in reports)
    assert {"count_roots_in", "poly_gcd"} <= set(calls) and "char_poly" not in calls


def test_certificate_hooks_fire_in_an_edge_minimal_pass(monkeypatch):
    # _resolve_argmin compares the two equal-radius graphs of the argmin,
    # so an edge-minimal pass reaches every counted exact routine
    calls = _count_certificate_calls(monkeypatch)
    reports = verify.verify_edge_minimal_pair([10])
    assert [r.status for r in reports] == ["pass"]
    assert set(calls) == {"char_poly", "sign_at", "count_roots_in", "poly_gcd"}


def test_lemma_verdicts_reach_the_traced_comparator(monkeypatch):
    # the tracer counts verdicts by wrapping verify.compare_rho_certified:
    # every lemma comparison, the strict ones included, passes through it
    seen = []
    compare = verify.compare_rho_certified

    def record(*args):
        seen.append(compare(*args))
        return seen[-1]

    monkeypatch.setattr(verify, "compare_rho_certified", record)
    reports = verify.verify_family_grids(4) + verify.verify_descent_endpoint_readings()
    assert all(r.status == "pass" for r in reports)
    assert set(seen) == {"less", "greater", "equal"}


def test_edge_minimal_10_eigensolves_pinned(monkeypatch):
    # the tracer counts spectral.numeric_graphs as len(args[0]) of each
    # _rho_batch call; the walk prefilter leaves 20 of the 2,678 graphs
    solved = []
    batch = verify._rho_batch

    def counted(mats):
        solved.append(len(mats))
        return batch(mats)

    monkeypatch.setattr(verify, "_rho_batch", counted)
    reports = verify.verify_edge_minimal_pair([10])
    assert [r.status for r in reports] == ["pass"]
    assert sum(solved) == 20 < 2_678 / 10


@pytest.mark.parametrize("search, sizes", [
    # 28,908 graphs: 7 batches of 4,096 and one of 236, each a pivot solve
    # and a solve of the graphs its walk bound keeps
    (lambda: verify.verify_edge_minimal_pair([12]),
     [1, 129, 1, 1, 1, 12, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1]),
    # the 990 graphs of the alpha class at n = 14: one batch
    (lambda: verify.minimizer_bicyclic(14, 6, workers=1), [1, 25]),
])
def test_scan_batch_boundaries_pinned(search, sizes, monkeypatch):
    # the scan fills stream-order batches of _BATCH in-class classes from
    # blocks of rank rows; the eigensolves per _rho_batch call show where
    # the batches start and end (151 and 26 eigensolves)
    solved = []
    batch = verify._rho_batch

    def counted(mats):
        solved.append(len(mats))
        return batch(mats)

    monkeypatch.setattr(verify, "_rho_batch", counted)
    search()
    assert solved == sizes


def test_edge_minimal_gate_reads_pinned(monkeypatch):
    # the edge-minimal workload wraps _scan_stream by a positional
    # (graphs, alpha) call to sum the classes seen, and its gate requires
    # "gcd-equality=yes" in the report's detail
    seen = []
    scan = verify._scan_stream

    def counting_scan(graphs, alpha):
        result = scan(graphs, alpha)
        seen.append(result[0])
        return result

    monkeypatch.setattr(verify, "_scan_stream", counting_scan)
    (report,) = verify.verify_edge_minimal_pair([10])
    assert report.status == "pass"
    assert "gcd-equality=yes" in report.detail
    assert seen == [2_678]
