"""Minimizer search and the claim harness on small, fast instances."""

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import spectramin
from spectramin.graphs import canonical_form
from spectramin.verify import (
    MinimizerResult,
    VerificationReport,
    graph_from_family,
    minimizer,
    minimizer_bicyclic,
    overall_exit_code,
    theorem_prediction,
    verify_edge_minimal_pair,
    verify_family_grids,
    verify_max_extremal,
    verify_minimum_radius_case_table,
    verify_small_order_minimizers,
    write_reports,
)


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

    def test_workers_agree(self):
        a = minimizer(7, 3, workers=1)
        b = minimizer(7, 3, workers=2)
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

    def test_kill_and_resume(self, tmp_path):
        # a parallel run killed mid-search leaves a readable checkpoint, and
        # resuming it under either worker count gives the uninterrupted result
        ck = tmp_path / "ck.json"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spectramin.__file__)))
        code = (
            "import sys; from spectramin.verify import minimizer; "
            "minimizer(8, 3, workers=2, checkpoint=sys.argv[1])"
        )
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", code, str(ck)], env=env,
                                start_new_session=True)
        try:
            while not ck.exists() and proc.poll() is None and time.monotonic() - start < 300:
                time.sleep(0.02)
            first_save = time.monotonic() - start
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        assert ck.exists()
        data = json.loads(ck.read_text())
        assert data["done"] < data["units"] - 1  # the kill interrupted the search
        shutil.copy(ck, tmp_path / "ck1.json")

        start = time.monotonic()
        clean = minimizer(8, 3, workers=2)
        # the first branch is saved long before the whole search could end
        # (about a tenth of the way in); a driver that saves only after the
        # pool has drained cannot beat a clean run
        assert first_save < time.monotonic() - start
        for workers, path in [(2, ck), (1, tmp_path / "ck1.json")]:
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
        b = minimizer_bicyclic(n, alpha, workers=2)
        assert argmin_forms(a) == argmin_forms(b)
        assert a.searched == b.searched
        assert a.class_size == b.class_size
        assert a.min_rho == b.min_rho
        assert a.unresolved == b.unresolved

    def test_workers_agree(self):
        self._assert_workers_agree(9, None)

    def test_workers_agree_alpha_filtered(self):
        self._assert_workers_agree(12, 5)


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

    def test_max_extremal_full_n7(self):
        assert verify_max_extremal(7).status == "pass"

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

    def test_family_grids_small(self):
        reports = verify_family_grids(5)
        assert all(r.status == "pass" for r in reports)

    def test_descent_endpoint_readings(self):
        from spectramin.verify import verify_descent_endpoint_readings

        reports = verify_descent_endpoint_readings([4, 6])
        assert all(r.status == "pass" for r in reports)
        assert any("order" in r.detail for r in reports)

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

    def test_reports_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_reports(verify_small_order_minimizers(), str(a), "csv")
        write_reports(verify_small_order_minimizers(), str(b), "csv")
        assert a.read_bytes() == b.read_bytes()
