"""CLI surface: parsing, exit codes, output contracts."""

import pytest

from spectramin.cli import CHECKPOINT_ENV, main
from spectramin.formats import to_graph6
from spectramin.graphs import build_cycle


class TestRho:
    def test_cycle_prints_two(self, capsys):
        assert main(["rho", "C:7"]) == 0
        out = capsys.readouterr().out
        assert "rho (power iteration)   = 2" in out

    def test_b_family_three_methods(self, capsys):
        assert main(["rho", "B:3,1,3"]) == 0
        out = capsys.readouterr().out
        assert "analytic boundary" in out
        assert "certified bracket" in out
        deltas = [
            float(line.rsplit("delta", 1)[1].lstrip(" ="))
            for line in out.splitlines()
            if "delta" in line
        ]
        assert all(d <= 1e-9 for d in deltas)

    def test_malformed_exits_2(self, capsys):
        assert main(["rho", "B:3,1"]) == 2
        assert main(["rho", "nonsense spec"]) == 2

    def test_graph6_input(self, capsys):
        assert main(["rho", to_graph6(build_cycle(5))]) == 0
        assert "= 2" in capsys.readouterr().out

    def test_file_inputs(self, tmp_path, capsys):
        p = tmp_path / "g.g6"
        p.write_text(to_graph6(build_cycle(6)) + "\n")
        assert main(["rho", str(p)]) == 0
        e = tmp_path / "g.edges"
        e.write_text("3 3\n0 1\n1 2\n2 0\n")
        assert main(["rho", str(e)]) == 0

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
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err


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
