"""CLI surface: parsing, exit codes, output contracts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectramin
from spectramin.cli import CHECKPOINT_ENV, _parse_orders, main
from spectramin.formats import to_graph6
from spectramin.graphs import build_bicyclic, build_cycle, spec_B


class TestRho:
    def test_cycle_prints_two(self, capsys):
        assert main(["rho", "C:7"]) == 0
        out = capsys.readouterr().out
        assert "rho (power iteration)   = 2" in out

    def test_b_family_three_methods(self, capsys):
        # B(3,17,3) has rho - lambda_2 = 1.9e-4: the analytic solve must tell them apart
        for spec in ("B:3,1,3", "B:3,17,3"):
            assert main(["rho", spec]) == 0
            out = capsys.readouterr().out
            assert "analytic boundary" in out
            assert "certified bracket" in out
            deltas = [
                float(line.rsplit("delta", 1)[1].lstrip(" ="))
                for line in out.splitlines()
                if "delta" in line
            ]
            assert all(d <= 1e-9 for d in deltas), spec

    def test_long_dumbbell_solves(self, capsys):
        assert main(["rho", "B:3,200,3"]) == 0
        values = {}
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("rho (") and "delta" in line:
                name, rest = line.split("=", 1)
                values[name.strip()] = float(rest.split("delta")[0])
        assert abs(values["rho (analytic boundary)"] - values["rho (dense eigensolver)"]) <= 1e-9

    def test_failing_route_leaves_no_report(self, monkeypatch, capsys):
        from spectramin import cli
        from spectramin.spectral import NumericFailure

        def fail(*args):
            raise NumericFailure("analytic route failed")

        monkeypatch.setattr(cli, "rho_analytic", fail)
        assert main(["rho", "B:3,1,3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: analytic route failed" in err

    def test_malformed_exits_2(self, capsys):
        assert main(["rho", "B:3,1"]) == 2
        assert main(["rho", "nonsense spec"]) == 2

    def test_graph6_input(self, capsys):
        assert main(["rho", to_graph6(build_cycle(5))]) == 0
        assert "= 2" in capsys.readouterr().out
        # B(3,30,3): rho - lambda_2 = 3.7e-7, inside the certified bracket's seed window
        assert main(["rho", to_graph6(build_bicyclic(spec_B(3, 30, 3))[0])]) == 0
        assert "certified bracket" in capsys.readouterr().out

    def test_file_inputs(self, tmp_path, capsys):
        p = tmp_path / "g.g6"
        p.write_text(to_graph6(build_cycle(6)) + "\n")
        assert main(["rho", str(p)]) == 0
        e = tmp_path / "g.edges"
        e.write_text("3 3\n0 1\n1 2\n2 0\n")
        assert main(["rho", str(e)]) == 0

    @pytest.mark.parametrize(
        "text,message",
        [
            ("3 3\n0 1\n0 1\n1 2\n", "edge list repeats an edge"),
            ("x 1\n0 1\n", "edge list lines must be two integers"),
        ],
    )
    def test_bad_edge_list_reports_itself(self, text, message, tmp_path, capsys):
        # a two-token first line makes the file an edge list: no graph6 fallback
        e = tmp_path / "g.edges"
        e.write_text(text)
        assert main(["rho", str(e)]) == 2
        err = capsys.readouterr().err
        assert message in err and "graph6" not in err

    def test_disconnected_rejected(self, tmp_path):
        e = tmp_path / "g.edges"
        e.write_text("4 2\n0 1\n2 3\n")
        assert main(["rho", str(e)]) == 2


class TestVerify:
    def test_small_n_remark(self, capsys):
        assert main(["verify", "small-n-remark"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4

    def test_lemmas_small_grid(self, capsys):
        assert main(["verify", "lemmas", "--grid", "3..4"]) == 0

    def test_max_extremal(self, capsys):
        assert main(["verify", "max-extremal", "--n", "5,6"]) == 0

    def test_theorem_small(self, capsys):
        assert main(["verify", "theorem-1.1", "--n", "7"]) == 0
        assert "'mode': 'full-space'" in capsys.readouterr().out

    @pytest.mark.parametrize("token, orders", [
        ("9", [9]), ("7..9", [7, 8, 9]), ("7,8..9", [7, 8, 9]), ("7..7,8,9..10", [7, 8, 9, 10]),
    ])
    def test_order_items(self, token, orders):
        assert _parse_orders(token) == orders

    def test_order_range_runs_every_order(self, capsys):
        assert main(["verify", "max-extremal", "--n", "1..3,5"]) == 0
        out = capsys.readouterr().out
        assert [ln.split("'n': ")[1].split(",")[0] for ln in out.splitlines()
                if ln.startswith("[PASS]")] == ["1", "2", "3", "5"]

    def test_theorem_odd_rows_past_enumeration(self, capsys):
        assert main(["verify", "theorem-1.1", "--n", "11,13"]) == 0
        assert capsys.readouterr().out.count("'mode': 'cycle-law") == 2

    def test_theorem_odd_rows_past_the_exact_cap(self, capsys):
        assert main(["verify", "theorem-1.1", "--n", "65,101,257"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == out.count("'mode': 'cycle-law") == 3

    def test_theorem_even_row_without_premise_is_unresolved(self, capsys):
        assert main(["verify", "theorem-1.1", "--n", "66"]) == 3
        out = capsys.readouterr().out
        assert out.startswith("[UNRESOLVED] minimum-radius-case-table {'n': 66}")
        assert "rho(prediction)^2 not certified below 4 + 20/n" in out

    def test_unread_checkpoint_is_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(CHECKPOINT_ENV, str(tmp_path / "ck.json"))
        assert main(["verify", "theorem-1.1", "--n", "6"]) == 2
        assert CHECKPOINT_ENV in capsys.readouterr().err
        assert not (tmp_path / "ck.json").exists()

    def test_report_files(self, tmp_path, capsys):
        out = tmp_path / "reports.csv"
        assert main(["verify", "small-n-remark", "--out", str(out), "--format", "csv"]) == 0
        assert out.read_text().startswith("claim_id,")


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, checkpoint",
        [
            (["verify", "theorem-1.1", "--n", "7", "--tol", "1e-9"], None),
            (["verify", "lemmas", "--grid", "4..9"], None),
            (["verify", "lemmas", "--grid", "7..4"], None),
            (["verify", "lemmas", "--grid", "x"], None),
            (["verify", "theorem-1.1", "--n", "7,x"], None),
            (["sweep", "--grid", "5..3"], None),
            (["sweep", "--grid", "x"], None),
            (["verify", "theorem-1.1", "--n", "10", "--extended"], '{"n": 10, "alph'),
            (["verify", "theorem-1.1", "--n", "6", "--workers", "-2"], None),
            (["verify", "theorem-1.1", "--n", "6", "--workers", "0"], None),
            (["verify", "theorem-1.1", "--n", "11", "--workers", "0"], None),
            # options a claim does not read, --format without --out, and a
            # polynomial beyond the exact cap
            (["verify", "small-n-remark", "--n", "7"], None),
            (["verify", "small-n-remark", "--grid", "3..5"], None),
            (["verify", "small-n-remark", "--extended"], None),
            (["verify", "small-n-remark", "--workers", "2"], None),
            (["verify", "max-extremal", "--n", "5", "--workers", "2"], None),
            (["verify", "max-extremal", "--n", "5", "--extended"], None),
            (["verify", "lemmas", "--grid", "3..4", "--workers", "2"], None),
            (["verify", "lemmas", "--grid", "3..4", "--n", "9"], None),
            (["verify", "edge-minimal-pair", "--n", "7", "--grid", "3..4"], None),
            (["verify", "theorem-1.1", "--n", "7", "--grid", "3..4"], None),
            (["verify", "small-n-remark", "--format", "csv"], None),
            (["rho", "C:70", "--charpoly"], None),
            # a checkpoint variable that no row of the run reads
            (["verify", "theorem-1.1", "--n", "6"], ""),
            (["verify", "theorem-1.1", "--n", "7", "--extended"], ""),
            (["verify", "small-n-remark"], ""),
            # edge-minimal-pair orders outside 7..EDGE_MODE_CAP, checked before any scan
            (["verify", "edge-minimal-pair", "--n", "6"], None),
            (["verify", "edge-minimal-pair", "--n", "5"], None),
            (["verify", "edge-minimal-pair", "--n", "7,6"], None),
            (["verify", "edge-minimal-pair", "--n", "17"], None),
            # orders outside max-extremal's 1..8 or with no theorem-1.1 route
            (["verify", "max-extremal", "--n", "0"], None),
            (["verify", "theorem-1.1", "--n", "11,38"], None),
            (["verify", "theorem-1.1", "--n", "514"], None),
            (["verify", "theorem-1.1", "--n", "11,514"], None),
            # a tolerance power iteration can never reach
            (["rho", "C:7", "--tol", "nan"], None),
            (["rho", "C:7", "--tol", "inf"], None),
            (["rho", "C:7", "--tol", "0"], None),
            # an empty order list or grid, which would otherwise run the defaults
            (["verify", "max-extremal", "--n", ""], None),
            (["verify", "edge-minimal-pair", "--n", ""], None),
            (["verify", "lemmas", "--grid", ""], None),
            (["verify", "theorem-1.1", "--n", ""], None),
            # a family graph past the exact polynomial cap
            (["rho", "B:3,200,3", "--charpoly"], None),
            # a lemma grid whose equal pairs pass the exact cap, refused before any work
            (["verify", "lemmas", "--grid", "3..22"], None),
            # an --n or --grid item that is no integer or a..b range
            (["verify", "edge-minimal-pair", "--n", "7.."], None),
            (["verify", "edge-minimal-pair", "--n", "..9"], None),
            (["verify", "edge-minimal-pair", "--n", "7..8..9"], None),
            (["verify", "max-extremal", "--n", "5..x"], None),
            (["verify", "lemmas", "--grid", "3.."], None),
            # a graph6 header cut short, which once decoded to K_1
            (["rho", "~@"], None),
        ],
    )
    def test_exits_2_with_message(self, argv, checkpoint, tmp_path, monkeypatch, capsys):
        if checkpoint is not None:
            path = tmp_path / "ck.json"
            path.write_text(checkpoint)
            monkeypatch.setenv(CHECKPOINT_ENV, str(path))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects unknown flags itself
            code = exc.code
        assert code == 2
        out, err = capsys.readouterr()
        assert "error" in err and "Traceback" not in err
        assert out == ""  # refused before any report line

    def test_unread_option_is_named(self, capsys):
        assert main(["verify", "lemmas", "--grid", "3..4", "--workers", "2", "--n", "9"]) == 2
        assert "error: verify lemmas does not read --n, --workers" in capsys.readouterr().err

    def test_order_range_limit_is_named(self, capsys):
        # refused before any of its ten billion orders is built
        assert main(["verify", "theorem-1.1", "--n", "3..10000000000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert "error: --n: range '3..10000000000' passes n = 512" in err

    def test_lemma_grid_limit_is_named(self, capsys):
        # B(22, 21, 24) has order 66: refused before any comparison runs
        assert main(["verify", "lemmas", "--grid", "3..22"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: --grid 3..22:" in err and "the largest grid is 3..21" in err

    @pytest.mark.parametrize("token", ["9..7", "7,9..7"])
    def test_empty_order_range_is_named(self, token, capsys):
        assert main(["verify", "edge-minimal-pair", "--n", token]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: --n: empty range '9..7'" in err

    def test_edge_minimal_order_range_is_named(self, capsys):
        # the n = 7 row is not scanned and printed before the bad order exits
        assert main(["verify", "edge-minimal-pair", "--n", "7,6"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: edge-minimal-pair --n must lie in 7..16, got 6" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["max-extremal", "--n", "7,9"], "max-extremal --n must lie in 1..8, got 9"),
            (["theorem-1.1", "--n", "7,2"], "theorem-1.1 --n must be at least 3, got 2"),
            (["theorem-1.1", "--n", "16,18"], "theorem-1.1 --n 18: denser graphs are excluded"),
            (["theorem-1.1", "--n", "11,514"], "theorem-1.1 --n 514: the case table stops at "
             "the dense cap n = 512"),
        ],
    )
    def test_order_refused_before_any_row(self, argv, message, monkeypatch, capsys):
        # the bad order is refused before the rows ahead of it run
        from spectramin import verify

        def no_search(*args, **kwargs):
            raise AssertionError("a row ran before the bad order was refused")

        monkeypatch.setattr(verify, "_leaf_blocks", no_search)
        monkeypatch.setattr(verify, "minimizer", no_search)
        monkeypatch.setattr(verify, "minimizer_bicyclic", no_search)
        monkeypatch.setattr(verify, "_odd_cycle_law", no_search)
        assert main(["verify", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: {message}" in err


class TestModuleEntry:
    def test_python_m_runs_the_cli(self):
        src = str(Path(spectramin.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "spectramin", "verify", "small-n-remark"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("[PASS]") == 4


class TestSweep:
    def test_grid_row_count(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "3..5", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        b_rows = [r for r in rows if r.startswith("B,")]
        assert len(b_rows) == 27

    def test_csv_round_trip_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--grid", "3..4", "--out", str(a)])
        main(["sweep", "--grid", "3..4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        header, *rows = a.read_text().splitlines()
        cols = header.split(",")
        for row in rows:
            vals = dict(zip(cols, row.split(",")))
            if vals["rho_analytic"]:
                assert abs(float(vals["rho_numeric"]) - float(vals["rho_analytic"])) < 1e-9

    def test_monotone_along_balance(self, tmp_path):
        # within the CSV, fixing p and m + q: more balance means smaller radius
        out = tmp_path / "sweep.csv"
        main(["sweep", "--grid", "3..6", "--out", str(out)])
        header, *rows = out.read_text().splitlines()
        data = {}
        for row in rows:
            vals = row.split(",")
            if vals[0] != "B":
                continue
            m, p, q = int(vals[1]), int(vals[2]), int(vals[3])
            data[(m, p, q)] = float(vals[4])
        assert data[(4, 3, 4)] < data[(3, 3, 5)]
        assert data[(4, 5, 4)] < data[(3, 5, 5)]

    def test_grid_to_19_exits_0(self, tmp_path):
        # long dumbbells such as B(3,15,8) once failed an absolute residual bound
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "3..19", "--out", str(out)]) == 0
        assert "\nB,3,15,8," in out.read_text()


class TestReplay:
    def test_fixed_point(self, capsys):
        assert main(["replay", "B:5,3,5"]) == 0
        assert "empty trace" in capsys.readouterr().out

    def test_tree_rejected(self, capsys):
        assert main(["replay", "Dtilde:8"]) == 2

    def test_descent_trace(self, tmp_path, capsys):
        from spectramin.enumeration import bicyclic_graphs
        from spectramin.graphs import independence_number

        g = next(
            h
            for h in bicyclic_graphs(10)
            if independence_number(h) == 4 and min(h.degrees()) == 1
        )
        gpath = tmp_path / "g.g6"
        gpath.write_text(to_graph6(g))
        assert main(["replay", str(gpath), "--out", str(tmp_path / "trace.log")]) == 0
        text = (tmp_path / "trace.log").read_text()
        assert text.strip()
        for line in text.strip().splitlines():
            kind, rule, rb, ra, g6 = line.split("\t")
            assert float(ra) <= float(rb) + 1e-10
