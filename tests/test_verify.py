"""Minimizer search and the claim harness on small, fast instances."""

import contextlib
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import spectramin
from spectramin import enumeration, verify
from spectramin.cli import main
from spectramin.enumeration import (
    _bicyclic_blocks,
    _core_specs_bicyclic,
    _forest_blocks,
    _tree_parents,
    branch_states,
    enumerate_connected,
    enumerate_connected_from_branch,
)
from spectramin.formats import to_graph6
from spectramin.graphs import (
    Graph,
    InvalidInputError,
    InvalidParameterError,
    adjacency_matrices,
    build_bicyclic,
    build_cycle,
    canonical_form,
    independence_number,
)
from spectramin.verify import (
    MinimizerResult,
    VerificationReport,
    graph_from_family,
    minimizer,
    minimizer_bicyclic,
    overall_exit_code,
    target_alpha,
    theorem_prediction,
    verify_edge_minimal_pair,
    verify_family_grids,
    verify_max_extremal,
    verify_minimum_radius_case_table,
    verify_small_order_minimizers,
    write_reports,
)
from test_enumeration import _attach_forest, _classes

# the parallel tests use 2 workers where 2 CPUs are usable: a search refuses
# more workers than that
WORKERS = min(2, verify._usable_cpus())
needs_two_cpus = pytest.mark.skipif(WORKERS < 2, reason="a kept pool of 2 workers needs 2 usable CPUs")


# SHA-256 of the report text (``to_text`` lines joined by newlines): the
# witness graph6 strings depend on the generators' labellings
SMALL_ORDER_REPORTS_SHA256 = "53c0968cb4e48e3f509381e0141622426741a05b5ebb36b57082f56e9ffbe64a"
EDGE_PAIR_7_10_REPORTS_SHA256 = "12c581421b40088ad5250b26e66a9fd4c14bcb8e1ecd6850aa9cde65df56e5e9"
CASE_TABLE_REPORTS_SHA256 = "cc84e1c18d72557c0dc2bf495cbe9304f996609e24acf5cc4577e0a3042d3fec"
# the same table without its odd law row 11: the search rows, pinned apart so
# that a new detail on the law rows cannot hide a change to them
CASE_TABLE_SEARCH_ROWS_SHA256 = "20a410519e867cc3d28f5677951d50f1cca403105cc4eecb1c8b7c80c81db172"


def argmin_forms(res: MinimizerResult):
    return sorted(canonical_form(g) for g in res.argmin)


class TestPrediction:
    def test_case_table(self):
        assert theorem_prediction(3) == "K:3"
        assert theorem_prediction(4) == "K:4"
        assert theorem_prediction(5) == "C:5"
        assert theorem_prediction(6) == "B:3,1,3"
        assert theorem_prediction(7) == "C:7"
        assert theorem_prediction(9) == "C:9"
        assert theorem_prediction(8) == "B:3,3,3"
        assert theorem_prediction(10) == "B:3,5,3"
        assert theorem_prediction(12) == "B:5,3,5"
        assert theorem_prediction(14) == "B:5,5,5"
        assert theorem_prediction(16) == "B:5,7,5"
        assert theorem_prediction(18) == "B:7,5,7"

    def test_family_parser(self):
        assert graph_from_family("C:7").n == 7
        assert graph_from_family("B:3,1,3").edge_count == 7
        assert graph_from_family("Cmq:3,4").n == 6
        assert graph_from_family("Dtilde:8").n == 8
        assert graph_from_family("join:5,2").edge_count == 9
        with pytest.raises(Exception):
            graph_from_family("X:1")


class TestMinimizer:
    def test_small_orders(self):
        res = minimizer(5, 2)
        assert argmin_forms(res) == [canonical_form(graph_from_family("C:5"))]
        res = minimizer(6, 2)
        assert argmin_forms(res) == [canonical_form(graph_from_family("B:3,1,3"))]

    def test_star_class(self):
        res = minimizer(4, 3)  # only the star has alpha = n - 1
        assert res.class_size == 1
        assert argmin_forms(res) == [canonical_form(graph_from_family("join:4,3"))]

    def test_empty_class(self):
        res = minimizer(4, 4)  # alpha = n needs the edgeless graph: disconnected
        assert res.class_size == 0 and res.argmin == []

    @pytest.mark.parametrize("extended", [False, True])
    def test_refusal_names_the_accepted_range(self, extended):
        cap = 10 if extended else 9
        for n in (0, -1, cap + 1):
            with pytest.raises(InvalidParameterError,
                               match=f"supports 1 <= n <= {cap}, got {n}$"):
                minimizer(n, 1, extended=extended)

    def test_workers_agree(self):
        a = minimizer(7, 3, workers=1)
        b = minimizer(7, 3, workers=WORKERS)
        assert argmin_forms(a) == argmin_forms(b)
        assert a.class_size == b.class_size
        assert a.searched == b.searched
        assert a.min_rho == b.min_rho
        assert a.unresolved == b.unresolved

    def test_argmin_members_satisfy_the_class(self):
        from spectramin.graphs import independence_number, is_connected

        for n, alpha in [(6, 2), (7, 3), (6, 3)]:
            res = minimizer(n, alpha)
            for g in res.argmin:
                assert is_connected(g)
                assert independence_number(g) == alpha

    def test_checkpoint_resume(self, tmp_path):
        ck = str(tmp_path / "ck.json")
        full = minimizer(6, 2)
        import json

        from spectramin.enumeration import branch_states

        states = branch_states()
        # simulate dying after the first half of the branches
        partial = minimizer(6, 2, checkpoint=ck)
        with open(ck) as fh:
            data = json.load(fh)
        assert data["done"] == len(states) - 1
        data["done"] = len(states) // 2
        data["count"] = 0  # count only over remaining branches after resume
        data["cands"] = []
        data["best"] = float("inf")
        with open(ck, "w") as fh:
            json.dump(data, fh)
        resumed = minimizer(6, 2, checkpoint=ck)
        assert argmin_forms(resumed) == argmin_forms(full)
        assert partial.class_size == full.class_size

    @pytest.mark.parametrize(
        "field, value",
        [("done", -5), ("done", 40), ("done", 2.9), ("done", True), ("seen", -1),
         ("count", 1.5), ("count", False)],
    )
    def test_checkpoint_fields_are_validated(self, tmp_path, field, value):
        # -5 once resumed at unit -4 (searched 14), 40 past the last of the
        # 34 units (searched 0), and 2.9 was truncated to 2 (searched 684)
        ck = tmp_path / "ck.json"
        saved = {"n": 7, "alpha": 3, "units": 34, "done": 3, "seen": 10, "count": 5,
                 "best": 2.0, "cands": []}
        ck.write_text(json.dumps({**saved, field: value}))
        with pytest.raises(InvalidInputError, match=field):
            minimizer(7, 3, checkpoint=str(ck))

    def test_kill_and_resume(self, tmp_path):
        # a run killed mid-search (parallel where 2 CPUs are usable) leaves a
        # readable checkpoint, and resuming it under either worker count
        # gives the uninterrupted result
        ck = tmp_path / "ck.json"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spectramin.__file__)))
        # the child prints the monotonic clock (system-wide) as its search
        # starts, so the time to the first save leaves out its start-up
        code = (
            "import sys, time; from spectramin.verify import minimizer; "
            "print(time.monotonic(), flush=True); "
            f"minimizer(8, 3, workers={WORKERS}, checkpoint=sys.argv[1])"
        )
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", code, str(ck)], env=env,
                                stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            search_start = float(proc.stdout.readline())
            while not ck.exists() and proc.poll() is None and time.monotonic() - start < 300:
                time.sleep(0.02)
            first_save = time.monotonic() - search_start
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
            proc.stdout.close()
        assert ck.exists()
        data = json.loads(ck.read_text())
        assert data["done"] < data["units"] - 1  # the kill interrupted the search
        shutil.copy(ck, tmp_path / "ck1.json")

        start = time.monotonic()
        clean = minimizer(8, 3, workers=WORKERS)
        # the first branch is saved long before the whole search could end
        # (about a tenth of the way in); a driver that saves only after the
        # pool has drained cannot beat a clean run
        assert first_save < time.monotonic() - start
        for workers, path in [(WORKERS, ck), (1, tmp_path / "ck1.json")]:
            resumed = minimizer(8, 3, workers=workers, checkpoint=str(path))
            assert resumed.searched == clean.searched == 11117
            assert resumed.class_size == clean.class_size
            assert resumed.min_rho == clean.min_rho
            assert argmin_forms(resumed) == argmin_forms(clean)


class TestMinimizerBicyclic:
    def test_unrestricted_pair(self):
        res = minimizer_bicyclic(7)
        want = sorted(
            canonical_form(graph_from_family(s)) for s in ("P:3,2,3", "B:3,2,3")
        )
        assert argmin_forms(res) == want

    def test_alpha_filtered(self):
        res = minimizer_bicyclic(10, 4)
        assert argmin_forms(res) == [canonical_form(graph_from_family("B:3,5,3"))]

    @staticmethod
    def _assert_workers_agree(n, alpha):
        a = minimizer_bicyclic(n, alpha, workers=1)
        b = minimizer_bicyclic(n, alpha, workers=WORKERS)
        assert argmin_forms(a) == argmin_forms(b)
        assert a.searched == b.searched
        assert a.class_size == b.class_size
        assert a.min_rho == b.min_rho
        assert a.unresolved == b.unresolved

    def test_workers_agree(self):
        self._assert_workers_agree(9, None)

    def test_workers_agree_alpha_filtered(self):
        self._assert_workers_agree(12, 5)


@pytest.fixture
def own_pool(monkeypatch):
    """No kept pool at the start, and every pool the test's searches make is
    one of its children, shut down after the test."""
    made = []
    make = verify.ProcessPoolExecutor

    def tracked(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(verify, "_POOL", None)
    monkeypatch.setattr(verify, "ProcessPoolExecutor", tracked)
    yield made
    for pool in made:
        pool.shutdown()


def _same_result(a: MinimizerResult, b: MinimizerResult) -> None:
    assert argmin_forms(a) == argmin_forms(b)
    assert (a.searched, a.class_size, a.min_rho, a.unresolved) == (
        b.searched, b.class_size, b.min_rho, b.unresolved)


class TestKeptPool:
    @needs_two_cpus
    def test_pool_kept_across_orders(self, own_pool):
        # one pool serves every order, in any order, and each order's
        # result equals the serial one
        pids = []
        for n in (14, 10, 12):
            parallel = minimizer_bicyclic(n, n // 2 - 1, workers=2)
            pids.append(sorted(verify._POOL[1]._processes))
            _same_result(parallel, minimizer_bicyclic(n, n // 2 - 1, workers=1))
        assert len(own_pool) == 1
        assert len(pids[0]) == 2 and pids == [pids[0]] * 3

    @needs_two_cpus
    def test_other_worker_count_replaces_the_pool(self, own_pool, monkeypatch):
        # one pool at a time: a search with another count shuts the kept
        # pool down (its workers are joined) before it makes its own
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 3)
        minimizer(7, 3, workers=2)
        first = verify._POOL[1]
        workers = list(first._processes.values())
        minimizer(7, 3, workers=3)
        assert verify._POOL[0] == 3 and verify._POOL[1] is not first
        assert len(own_pool) == 2 and not any(w.is_alive() for w in workers)

    def test_core_tables_built_once_per_core(self, monkeypatch):
        # the n = 10 cores are among the 126 of n = 12: the second search
        # builds only the cores the first did not meet.  A replaced
        # automorphisms starts the tables afresh, so this counts them all
        # after a search that built them with the original.
        minimizer_bicyclic(10, 4, workers=1)
        built = []
        automorphisms = enumeration.automorphisms

        def counted(core):
            built.append(core.rows)
            return automorphisms(core)

        monkeypatch.setattr(enumeration, "automorphisms", counted)
        minimizer_bicyclic(10, 4, workers=1)
        assert len(built) == len(_core_specs_bicyclic(10)) == 66
        minimizer_bicyclic(12, 5, workers=1)
        assert len(built) == len(set(built)) == len(_core_specs_bicyclic(12)) == 126
        minimizer_bicyclic(12, 5, workers=1)
        assert len(built) == 126

    @needs_two_cpus
    def test_broken_pool_is_replaced(self, own_pool):
        want = minimizer_bicyclic(10, 4, workers=1)
        _same_result(minimizer_bicyclic(10, 4, workers=2), want)
        pool = verify._POOL[1]
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 60
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(BrokenProcessPool):
            minimizer_bicyclic(10, 4, workers=2)
        assert verify._POOL is None
        _same_result(minimizer_bicyclic(10, 4, workers=2), want)
        assert verify._POOL[1] is not pool and len(own_pool) == 2

    def test_more_workers_than_cpus_refused_before_any_pool(self, own_pool, monkeypatch,
                                                             capsys):
        # a pool forks all of its workers at its first search, so the count
        # is checked first; no pool may start here even if the check fails
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(verify, "ProcessPoolExecutor", no_pool)
        too_many = verify._usable_cpus() + 1
        with pytest.raises(InvalidParameterError, match="usable CPUs"):
            minimizer(7, 3, workers=too_many)
        with pytest.raises(InvalidParameterError, match="usable CPUs"):
            minimizer_bicyclic(10, 4, workers=too_many)
        assert main(["verify", "theorem-1.1", "--n", "10", "--workers", "5000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "workers must be 1.." in err and "got 5000" in err
        assert verify._POOL is None and own_pool == []


def _eigensolve_everything_scan(graphs, alpha):
    """The scan before the walk prefilter, kept as the oracle: every in-class
    graph of each batch is eigensolved."""
    seen = 0
    count = 0
    best = float("inf")
    band = []
    batch = []
    stream = iter(graphs)
    while True:
        for g in stream:
            seen += 1
            if alpha is None or independence_number(g) == alpha:
                batch.append(g)
                if len(batch) == verify._BATCH:
                    break
        if not batch:
            return seen, count, best, [(r, to_graph6(g)) for r, g in band]
        count += len(batch)
        radii = np.linalg.eigvalsh(adjacency_matrices(batch))[:, -1]
        for r, g in zip(radii.tolist(), batch):
            if r < best:
                best = r
                band = [(rr, gg) for rr, gg in band if rr <= best + verify.SAFETY_BAND]
            if r <= best + verify.SAFETY_BAND:
                band.append((r, g))
        batch = []


def _expanded_scan(blocks, alpha):
    """``_eigensolve_everything_scan`` of the graphs of a block stream."""
    return _eigensolve_everything_scan((g for b in blocks for g in b.graphs()), alpha)


@pytest.fixture(scope="module")
def scan_units():
    """(label, graphs, alpha, scan input) units, each fed as the search
    feeds it, beside its graphs: every full-space branch unit for
    n = 5..8, with alpha at the target and unfiltered, as blocks of leaves
    that the scan filters by their alphas, and the bicyclic class for
    n = 10 and 12, unfiltered and at alpha = n/2 - 1, as blocks of rank
    rows filtered upstream, scanned with alpha None."""
    units = []
    for n in range(5, 9):
        for i, state in enumerate(branch_states()):
            blocks = list(enumerate_connected_from_branch(n, state))
            graphs = [g for b in blocks for g in b.graphs()]
            units += [(f"full {n} unit {i} alpha {a}", graphs, a, blocks)
                      for a in (target_alpha(n), None)]
    for n in (10, 12):
        classes = list(_classes(_bicyclic_blocks(n)))
        for a in (None, n // 2 - 1):
            graphs = [Graph.from_rows(n, _attach_forest(rows, assignment))
                      for rows, assignment, alpha in classes if a in (None, alpha)]
            units.append((f"bicyclic {n} alpha {a}", graphs, None,
                          list(_bicyclic_blocks(n, alpha=a))))
    return units


def _walk_count(g, k):
    """1' A^k 1 in Python integers."""
    x = [1] * g.n
    for _ in range(k):
        x = [sum(x[u] for u in range(g.n) if g.rows[v] >> u & 1) for v in range(g.n)]
    return sum(x)


class TestWalkPrefilter:
    @pytest.mark.parametrize("batch", [1, 7, 16, 4096])
    def test_scan_equals_eigensolve_everything(self, batch, scan_units, monkeypatch):
        # a running best across batches, batches of one graph and K_1 included
        monkeypatch.setattr(verify, "_BATCH", batch)
        for label, graphs, alpha, stream in scan_units:
            want = _eigensolve_everything_scan(graphs, alpha)
            assert repr(verify._scan_stream(stream, alpha)) == repr(want), label
        for n in range(1, 5):
            for alpha in (None, *range(1, n + 1)):
                got = repr(minimizer(n, alpha))
                with monkeypatch.context() as m:
                    m.setattr(verify, "_scan_stream", _expanded_scan)
                    assert got == repr(minimizer(n, alpha)), (n, alpha)

    def test_small_batch_solved_whole(self, monkeypatch):
        # below _WALK_MIN_BATCH graphs one eigensolve takes the whole batch;
        # from there on the pivot is solved alone first
        solved = []
        batch = verify._rho_batch

        def counted(mats):
            solved.append(len(mats))
            return batch(mats)

        monkeypatch.setattr(verify, "_rho_batch", counted)
        mats = adjacency_matrices(list(enumerate_connected(6)))
        small = mats[:verify._WALK_MIN_BATCH - 1]
        keep, radii = verify._band_radii(small, 0.0)
        assert keep.tolist() == list(range(len(small)))
        assert radii.tolist() == np.linalg.eigvalsh(small)[:, -1].tolist()
        assert solved == [len(small)]
        solved.clear()
        verify._band_radii(mats[:verify._WALK_MIN_BATCH], float("inf"))
        assert solved[0] == 1

    def test_bounds_hold(self, scan_units):
        # every connected graph on 2..8 vertices, and the n = 12 bicyclic class
        stacks = [list(enumerate_connected(n)) for n in range(2, 5)]
        stacks += [graphs for label, graphs, _, _ in scan_units
                   if label.startswith("full") and label.endswith("alpha None")]
        assert sum(map(len, stacks)) == 12_112
        stacks += [graphs for label, graphs, _, _ in scan_units
                   if label == "bicyclic 12 alpha None"]
        assert len(stacks[-1]) == 28_908
        for graphs in (g for g in stacks if g):
            mats = adjacency_matrices(graphs)
            lo, cw = verify._walk_bounds(mats)
            rho = np.linalg.eigvalsh(mats)[:, -1]
            assert np.all(lo <= rho + 1e-12) and np.all(cw >= rho - 1e-12)

    def test_k1_bounds_are_nan(self):
        lo, cw = verify._walk_bounds(adjacency_matrices([graph_from_family("K:1")]))
        assert np.isnan(lo).all() and np.isnan(cw).all()

    def test_walk_counts_exact_in_float64(self):
        # the densest graphs scanned: K_10 (full space, extended) and the
        # 16-vertex (n+1)-edge graphs with a vertex of degree 15
        hub = [(0, v) for v in range(1, 16)]
        graphs = [graph_from_family("K:10"), Graph(16, hub + [(1, 2), (3, 4)]),
                  Graph(16, hub + [(1, 2), (2, 3)])]
        for g in graphs:
            w8, w9 = _walk_count(g, 8), _walk_count(g, 9)
            assert w9 < 2 ** 53
            lo, _ = verify._walk_bounds(adjacency_matrices([g]))
            assert lo[0] == w9 / w8


class TestClassBlockStacks:
    @pytest.mark.parametrize("n", range(4, 13))
    def test_stacks_equal_adjacency_matrices(self, n, monkeypatch):
        # the scan's batch stacks, filled block by block from rank rows,
        # against adjacency_matrices of the built graphs, bit for bit: every
        # two-cycle core and every cycle, unfiltered and at each alpha that
        # occurs, in batches of 7 so that blocks span batch boundaries
        stacks = []

        def capture(mats, best):
            stacks.append(mats)
            return np.arange(0), np.zeros(0)

        monkeypatch.setattr(verify, "_band_radii", capture)
        monkeypatch.setattr(verify, "_BATCH", 7)
        cores = [build_bicyclic(spec)[0] for spec in _core_specs_bicyclic(n)]
        cores += [build_cycle(k) for k in range(3, n + 1)]
        whole_budget = spanning = 0
        for core in cores:
            extra = n - core.n
            alphas = sorted({cls[2] for cls in _classes(_forest_blocks(core, extra))})
            for alpha in (None, *alphas):
                blocks = list(_forest_blocks(core, extra, alpha))
                graphs = [Graph.from_rows(n, _attach_forest(rows, assignment))
                          for rows, assignment, _ in _classes(iter(blocks))]
                stacks.clear()
                seen, count, _, _ = verify._scan_stream(blocks, None)
                assert seen == count == len(graphs) > 0
                assert [len(m) for m in stacks] == [7] * (count // 7) + [count % 7] * (count % 7 > 0)
                got = np.concatenate(stacks)
                want = adjacency_matrices(graphs)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
                    core.rows, alpha)
                assert [g.rows for b in blocks for g in b.graphs()] == [g.rows for g in graphs]
                ends = np.cumsum([len(b) for b in blocks])
                starts = ends - [len(b) for b in blocks]
                spanning += int(np.any(starts // 7 != (ends - 1) // 7))
                sizes = _tree_parents(extra + 1)[0]
                whole_budget += sum(int((sizes[b.ranks] == extra).sum()) for b in blocks
                                    if extra)
        assert whole_budget > 0 and (spanning > 0 or n < 7)


class TestHarness:
    def test_small_order_reports(self):
        reports = verify_small_order_minimizers()
        assert [r.status for r in reports] == ["pass"] * 4

    def test_case_table_small(self):
        reports = verify_minimum_radius_case_table([7, 8])
        assert all(r.status == "pass" for r in reports)

    def test_max_extremal(self):
        assert verify_max_extremal(5).status == "pass"
        assert verify_max_extremal(6).status == "pass"

    def test_max_extremal_band_is_certified(self, monkeypatch):
        # a float reading above the join bound is not a failure by itself:
        # the certified comparison with the join graph decides
        from spectramin import verify
        from spectramin.graphs import build_cycle, build_join_extremal

        real = verify.rho_numeric
        target = canonical_form(build_cycle(5))  # alpha 2, radius 2
        bound = real(build_join_extremal(5, 2))
        monkeypatch.setattr(
            verify, "rho_numeric",
            lambda g: bound + 1e-8 if canonical_form(g) == target else real(g),
        )
        assert verify_max_extremal(5).status == "pass"

    def test_max_extremal_needs_no_reading(self, monkeypatch):
        # every graph is cleared by a certified "less" against its join graph,
        # so readings of 0 change nothing; a forced "equal" fails C_5 although
        # it reads clearly below the join graph
        from spectramin import verify
        from spectramin.graphs import build_cycle

        monkeypatch.setattr(verify, "rho_numeric", lambda g: 0.0)
        assert verify_max_extremal(5).status == "pass"
        target = canonical_form(build_cycle(5))
        monkeypatch.setattr(verify, "rho_numeric",
                            lambda g: -1.0 if canonical_form(g) == target else 0.0)
        compare = verify.compare_rho_certified
        monkeypatch.setattr(
            verify, "compare_rho_certified",
            lambda g, jg, certs: "equal" if canonical_form(g) == target else compare(g, jg, certs),
        )
        report = verify_max_extremal(5)
        assert report.status == "fail"
        assert [w for _, w in report.witnesses] == ["not certified below bound 0.0: equal"]

    def test_max_extremal_full_n7(self):
        assert verify_max_extremal(7).status == "pass"

    def test_max_extremal_reports_pinned(self, monkeypatch):
        # the reports for n = 1..7 byte for byte, with every alpha read from
        # the walk's leaf blocks and none searched per graph
        def no_search(g):
            raise AssertionError("the sweep searched a graph's alpha")

        monkeypatch.setattr(verify, "independence_number", no_search)
        text = "\n".join(verify_max_extremal(n).to_text() for n in range(1, 8))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "fbb9672c1941264fd448c756195dfcc362e46eefd849fb6f6f9ed196c82a2b26")

    def test_max_attained_uniquely_by_join(self):
        # at n=5, alpha=2 the maximum radius belongs to K_3 joined to 2K_1 alone
        from spectramin.enumeration import enumerate_connected
        from spectramin.graphs import build_join_extremal, independence_number
        from spectramin.spectral import rho_numeric

        join = build_join_extremal(5, 2)
        bound = rho_numeric(join)
        hits = [
            g
            for g in enumerate_connected(5)
            if independence_number(g) == 2 and rho_numeric(g) > bound - 1e-9
        ]
        assert len(hits) == 1
        assert canonical_form(hits[0]) == canonical_form(join)

    def test_edge_minimal_pair(self):
        reports = verify_edge_minimal_pair([7, 8])
        assert all(r.status == "pass" for r in reports)

    def test_unresolved_argmin_fails_every_minimizer_row(self, monkeypatch):
        from spectramin import verify

        resolve = verify._resolve_argmin
        monkeypatch.setattr(verify, "_resolve_argmin", lambda cands: (resolve(cands)[0], True))
        assert [r.status for r in verify_small_order_minimizers()] == ["fail"] * 4
        assert [r.status for r in verify_minimum_radius_case_table([6, 7, 10])] == ["fail"] * 3
        assert [r.status for r in verify_edge_minimal_pair([7])] == ["fail"]

    def test_family_grids_small(self):
        reports = verify_family_grids(5)
        assert all(r.status == "pass" for r in reports)

    def test_descent_endpoint_readings(self):
        from spectramin.verify import verify_descent_endpoint_readings

        reports = verify_descent_endpoint_readings([4, 6])
        assert all(r.status == "pass" for r in reports)
        assert any("order" in r.detail for r in reports)

    @pytest.mark.parametrize("ks, bad", [((4, 5), 5), ((2,), 2), ((6, 0), 0), ((-4,), -4)])
    def test_descent_k_checked_before_any_comparison(self, ks, bad, monkeypatch):
        from spectramin import verify

        def no_compare(*args):
            raise AssertionError("a comparison ran before the bad k was refused")

        monkeypatch.setattr(verify, "compare_rho_certified", no_compare)
        with pytest.raises(InvalidParameterError, match=f"need even k >= 4, got {bad}$"):
            verify.verify_descent_endpoint_readings(ks)

    def test_exit_codes(self):
        ok = VerificationReport("x", {}, "pass")
        bad = VerificationReport("x", {}, "fail")
        unres = VerificationReport("x", {}, "unresolved")
        assert overall_exit_code([ok]) == 0
        assert overall_exit_code([ok, bad]) == 1
        assert overall_exit_code([ok, unres]) == 3

    def test_report_output(self, tmp_path):
        reports = verify_small_order_minimizers()
        txt = tmp_path / "r.txt"
        csv = tmp_path / "r.csv"
        write_reports(reports, str(txt), "text")
        write_reports(reports, str(csv), "csv")
        assert "[PASS]" in txt.read_text()
        body = csv.read_text().splitlines()
        assert body[0].startswith("claim_id,")
        assert len(body) == len(reports) + 1

    def test_report_text_pinned(self):
        def digest(reports):
            return hashlib.sha256("\n".join(r.to_text() for r in reports).encode()).hexdigest()

        assert digest(verify_small_order_minimizers()) == SMALL_ORDER_REPORTS_SHA256
        assert digest(verify_edge_minimal_pair(range(7, 11))) == EDGE_PAIR_7_10_REPORTS_SHA256
        case_table = verify_minimum_radius_case_table([3, 4, 5, 6, 7, 8, 10, 11, 12])
        assert digest(case_table) == CASE_TABLE_REPORTS_SHA256
        searched = [r for r in case_table if r.parameters["n"] != 11]
        assert digest(searched) == CASE_TABLE_SEARCH_ROWS_SHA256

    def test_reports_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_reports(verify_small_order_minimizers(), str(a), "csv")
        write_reports(verify_small_order_minimizers(), str(b), "csv")
        assert a.read_bytes() == b.read_bytes()


def _grid_pairs(pmax):
    """Every (graph a, graph b) pair that ``verify_family_grids(pmax)`` compares."""
    from spectramin.graphs import build_bicyclic
    from spectramin.verify import _grid_claims

    return [(build_bicyclic(a)[0], build_bicyclic(b)[0])
            for _, _, _, pairs, _ in _grid_claims(pmax) for _, a, b, _ in pairs]


class TestCertificatePool:
    @pytest.fixture
    def charpoly_calls(self, monkeypatch):
        from spectramin import spectral

        calls = []
        real = spectral.char_poly

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(spectral, "char_poly", counted)
        return calls

    @pytest.fixture
    def verdicts(self, monkeypatch):
        from spectramin import verify

        seen = []
        compare = verify.compare_rho_certified

        def record(a, b, certs=None):
            seen.append((a, b, compare(a, b, certs)))
            return seen[-1][2]

        monkeypatch.setattr(verify, "compare_rho_certified", record)
        return seen

    def test_one_char_poly_per_distinct_graph(self, charpoly_calls, verdicts):
        # Perron brackets settle every strict verdict, so the char polys are
        # exactly those of the graphs in equal-verdict pairs, one per graph
        # though some graph sits in two such pairs
        verify_family_grids(4)
        assert len(verdicts) == len(_grid_pairs(4))
        equal_pairs = [(a, b) for a, b, v in verdicts if v == "equal"]
        equal = {g for pair in equal_pairs for g in pair}
        assert len(equal) < 2 * len(equal_pairs)
        assert len(charpoly_calls) == len(set(charpoly_calls)) == len(equal)
        assert set(charpoly_calls) == equal

    @pytest.fixture
    def no_refine(self, monkeypatch):
        # every comparison these passes make is settled by a Perron bracket or the gcd
        from spectramin import spectral

        def refuse(cert, width):
            raise AssertionError("no comparison here needs bisection")

        monkeypatch.setattr(spectral._CertifiedRho, "refine", refuse)

    def test_lemmas_pass_verdicts_and_char_polys_pinned(self, charpoly_calls, verdicts,
                                                         no_refine):
        from spectramin.verify import verify_descent_endpoint_readings

        reports = verify_family_grids(9)
        assert len(charpoly_calls) == 133
        reports += verify_descent_endpoint_readings()
        assert len(charpoly_calls) == 139
        assert all(r.status == "pass" for r in reports)
        counts = [sum(v == want for _, _, v in verdicts)
                  for want in ("less", "greater", "equal", "unresolved")]
        assert counts == [1237, 3, 73, 0]

    def test_edge_minimal_12_needs_no_refinement(self, no_refine):
        assert [r.status for r in verify_edge_minimal_pair([12])] == ["pass"]

    def test_each_spec_built_once(self, monkeypatch):
        from spectramin import verify

        built = []
        real = verify.build_bicyclic

        def counted(spec):
            built.append(spec)
            return real(spec)

        monkeypatch.setattr(verify, "build_bicyclic", counted)
        verify_family_grids(4)
        compared = {s for _, _, _, pairs, _ in verify._grid_claims(4)
                    for _, a, b, _ in pairs for s in (a, b)}
        assert len(built) == len(set(built))
        assert set(built) == compared | set(verify._grid_specs(4))

    def test_pool_does_not_outlive_its_call(self, charpoly_calls):
        verify_family_grids(4)
        first = len(charpoly_calls)
        verify_family_grids(4)
        assert len(charpoly_calls) == 2 * first

    def test_shared_pool_matches_fresh_certificates(self):
        from spectramin.spectral import compare_rho_certified

        pairs = _grid_pairs(4)
        fresh = [compare_rho_certified(a, b) for a, b in pairs]
        certs = {}
        assert [compare_rho_certified(a, b, certs) for a, b in pairs] == fresh
        # order independence: the same pairs in reverse through one new pool
        certs = {}
        backward = [compare_rho_certified(a, b, certs) for a, b in reversed(pairs)]
        assert backward[::-1] == fresh
        assert set(fresh) == {"less", "equal"}


class TestCaseTableLaw:
    def test_hofmeister_premise_holds_to_38(self):
        # the prediction's certified hi has hi^2 < 4 + 20/n for even n = 10..38
        from spectramin.verify import _denser_graphs_exceed

        assert all(_denser_graphs_exceed(n) for n in range(10, 39, 2))
        assert not _denser_graphs_exceed(40)

    def test_bicyclic_mode_names_the_law(self):
        (report,) = verify_minimum_radius_case_table([10])
        assert report.status == "pass"
        assert "alpha >= n/2" in report.parameters["mode"]
        assert "rho^2 >= 4+20/n" in report.parameters["mode"]

    def test_unmet_premise_is_unresolved(self, monkeypatch):
        from spectramin import verify

        monkeypatch.setattr(verify, "_denser_graphs_exceed", lambda n: False)
        (report,) = verify_minimum_radius_case_table([10])
        assert report.status == "unresolved"
        assert "4 + 20/n" in report.detail

    def test_odd_rows_by_cycle_law(self):
        reports = verify_minimum_radius_case_table([11, 13, 63])
        assert [r.status for r in reports] == ["pass"] * 3
        for n, r in zip((11, 13, 63), reports):
            assert r.parameters["mode"].startswith("cycle-law")
            assert r.parameters["alpha"] == (n - 1) // 2
            assert r.detail.startswith(f"expected C:{n}")

    def test_odd_rows_past_the_exact_cap_pass(self):
        reports = verify_minimum_radius_case_table([65, 101, 257])
        assert [r.status for r in reports] == ["pass"] * 3
        assert all(r.detail.endswith("rho(C_n) = 2 by A1 = 2*1: yes") for r in reports)

    def test_odd_row_fails_without_the_identity(self, monkeypatch):
        # C_11 plus a chord has two rows of three bits; C_5 + C_6 is 2-regular
        # but not connected.  Both keep alpha = 5, so only the identity fails.
        chord = Graph(11, [(i, (i + 1) % 11) for i in range(11)] + [(0, 5)])
        split = Graph(11, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 1) % 6) for i in range(6)])
        for broken in (chord, split):
            assert independence_number(broken) == 5
            monkeypatch.setattr(verify, "build_cycle", lambda n: broken)
            (report,) = verify_minimum_radius_case_table([11])
            assert report.status == "fail"
            assert report.detail.endswith("alpha(C_n) = 5: yes, rho(C_n) = 2 by A1 = 2*1: no")

    def test_law_rows_need_no_char_poly(self, monkeypatch):
        from spectramin import spectral

        def no_exact(*args, **kwargs):
            raise AssertionError("a law row ran exact polynomial machinery")

        monkeypatch.setattr(spectral, "char_poly", no_exact)
        monkeypatch.setattr(verify, "compare_rho_certified", no_exact)
        reports = verify_minimum_radius_case_table([11, 63, 65, 101, 257, 40, 66, 512])
        assert [r.status for r in reports] == ["pass"] * 5 + ["unresolved"] * 3

    def test_hub_premise_matches_the_bracket(self):
        # the old premise: the certified hi of the prediction's char poly bracket
        from fractions import Fraction

        from spectramin.spectral import rho_bracket
        from spectramin.verify import _denser_graphs_exceed

        for n in range(10, 65, 2):
            hi = rho_bracket(graph_from_family(theorem_prediction(n))).hi
            assert _denser_graphs_exceed(n) == (hi * hi < 4 + Fraction(20, n)), n

    def test_hub_premise_fails_up_to_the_dense_cap(self):
        from spectramin.verify import _denser_graphs_exceed

        assert not any(_denser_graphs_exceed(n) for n in range(40, 513, 2))

    def test_cycle_identity_matches_the_gcd(self):
        from spectramin.spectral import compare_rho_certified

        for n in range(5, 64, 2):
            identity = verify._odd_cycle_law(n, (n - 1) // 2).detail.endswith("A1 = 2*1: yes")
            assert identity == (compare_rho_certified(build_cycle(n), build_cycle(3)) == "equal")
            assert identity, n
