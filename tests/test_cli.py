"""End-to-end tests of the command-line front end."""

import json

import numpy as np
import pytest

from disclab.cli import main
from disclab.core import WeightedPointSet, save_point_set
from disclab.discrepancy import l2_discrepancy_kernel


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if "," in l]
    header = lines[0].split(",")
    rows = [[float(v) for v in l.split(",")] for l in lines[1:]]
    return header, rows


class TestDensityCommand:
    def test_p2_grid(self, capsys):
        code, out, _ = run(["density", "--p", "2", "--grid", "5"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "rho", "cdf"]
        assert rows[0][1] == pytest.approx(1.5)
        assert rows[-1][1] == pytest.approx(0.0)

    def test_p1_grid(self, capsys):
        code, out, _ = run(["density", "--p", "1", "--grid", "3"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][1] == pytest.approx(2.0, abs=1e-12)
        assert rows[1][1] == pytest.approx(1.0, abs=1e-12)
        assert rows[2][1] == pytest.approx(0.0, abs=1e-12)

    def test_p10_monotone(self, capsys):
        code, out, _ = run(["density", "--p", "10", "--grid", "33"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        rho = [r[1] for r in rows]
        assert all(a >= b for a, b in zip(rho, rho[1:]))

    def test_json_format(self, capsys):
        code, out, _ = run(
            ["density", "--p", "2", "--grid", "3", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 2.0
        assert len(payload["rows"]) == 3

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "rho.csv"
        code, _, _ = run(
            ["density", "--p", "2", "--grid", "5", "--out", str(path)], capsys
        )
        assert code == 0 and path.exists()


class TestDiscrepancyCommand:
    @pytest.fixture()
    def pointset_file(self, tmp_path):
        rng = np.random.default_rng(13)
        ps = WeightedPointSet(rng.random((5, 2)), rng.random(5) / 5.0)
        path = tmp_path / "ps.txt"
        save_point_set(ps, path)
        return path, ps

    def test_round_trip_value_bit_exact(self, pointset_file, capsys):
        path, ps = pointset_file
        code, out, _ = run(["discrepancy", str(path), "--p", "2"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == l2_discrepancy_kernel(ps).value
        assert rec["method"] == "kernel_p2"

    def test_cells_method(self, pointset_file, capsys):
        path, _ = pointset_file
        code, out, _ = run(
            ["discrepancy", str(path), "--p", "1.5", "--method", "cells"], capsys
        )
        assert code == 0
        assert json.loads(out)["method"] == "cell_quadrature"

    def test_mc_generates_and_prints_seed(self, pointset_file, capsys):
        path, _ = pointset_file
        code, out, _ = run(
            ["discrepancy", str(path), "--p", "1.5", "--method", "mc",
             "--samples", "2000"], capsys
        )
        assert code == 0
        assert "seed:" in out

    def test_mc_seed_reproducible(self, pointset_file, capsys):
        path, _ = pointset_file
        argv = ["discrepancy", str(path), "--p", "1.5", "--method", "mc",
                "--samples", "2000", "--seed", "99"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    def test_auto_runs_monte_carlo_at_d5(self, tmp_path, capsys):
        # --samples has a default and the seed is generated
        path = tmp_path / "d5.txt"
        save_point_set(WeightedPointSet(np.full((2, 5), 0.5), [0.5, 0.25]), path)
        code, out, _ = run(["discrepancy", str(path), "--p", "1.5", "--samples", "2000"],
                           capsys)
        assert code == 0
        seed_line, record = out.strip().splitlines()
        assert seed_line.startswith("seed: ")
        assert json.loads(record)["method"] == "monte_carlo"

    def test_order_reaches_auto_cells(self, pointset_file, capsys):
        path, _ = pointset_file
        evals = []
        for extra in ([], ["--order", "2"]):
            code, out, _ = run(["discrepancy", str(path), "--p", "1.5", *extra], capsys)
            assert code == 0
            rec = json.loads(out)  # no seed line when cells run
            assert rec["method"] == "cell_quadrature"
            evals.append(rec["evaluations"])
        assert evals[1] < evals[0]

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(["discrepancy", "/no/such/file", "--p", "2"], capsys)
        assert code == 2
        assert "error" in err

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--p", "2", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["bounds"], ["density", "--p", "2"], ["verify"],
    ])
    def test_seed_only_where_it_is_used(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "5"])
        assert exc.value.code == 2


class TestExperimentCommand:
    def write_config(self, tmp_path, **kw):
        cfg = dict(p=2.0, d=1, N=4, density_kind="uniform",
                   replications=50, seed=21)
        cfg.update(kw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_smoke_run(self, tmp_path, capsys):
        path = self.write_config(tmp_path, replications=2)
        code, out, _ = run(["experiment", "--config", str(path)], capsys)
        assert code == 0
        assert "seed: 21" in out
        assert "scaled" in out

    def test_byte_identical_reports(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert run(["experiment", "--config", str(cfg), "--out", str(out_a)], capsys)[0] == 0
        assert run(["experiment", "--config", str(cfg), "--out", str(out_b)], capsys)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_override(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code, out, _ = run(
            ["experiment", "--config", str(cfg), "--seed", "5"], capsys
        )
        assert code == 0
        assert "seed: 5" in out

    def test_bad_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p": 2.0}))
        code, _, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 2
        assert "bad experiment config" in err


class TestBoundsCommand:
    def test_csv_table(self, capsys):
        code, out, _ = run(
            ["bounds", "--pmin", "1", "--pmax", "10", "--steps", "10"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p", "alpha_old_sq", "alpha_new_sq"]
        assert len(rows) == 10
        assert all(r[1] > r[2] for r in rows)

    def test_bad_range_exit_2(self, capsys):
        code, _, err = run(
            ["bounds", "--pmin", "5", "--pmax", "2", "--steps", "10"], capsys
        )
        assert code == 2


class TestVerifyCommand:
    def test_all_pass(self, capsys):
        code, out, _ = run(["verify"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 10

    def test_normalization_check_runs_the_solve(self, capsys):
        code, out, _ = run(["verify", "--only", "normalization"], capsys)
        assert code == 0
        assert out.startswith("PASS  p3-normalization")

    def test_only_filter(self, capsys):
        code, out, _ = run(["verify", "--only", "p2"], capsys)
        assert code == 0
        checks = [l for l in out.splitlines() if l.startswith("PASS")]
        assert 0 < len(checks) < 10
        assert all("p2" in l for l in checks)

    def test_no_match_exit_2(self, capsys):
        code, _, err = run(["verify", "--only", "zzz"], capsys)
        assert code == 2


class TestBadInput:
    """Malformed files and arguments exit 2 with one error line; main()
    returning at all means no exception, and so no traceback, escaped."""

    @pytest.mark.parametrize("text", ["1 x\n0.5 1\n", "1 -2\n", "1 1\nabc 1\n"])
    def test_malformed_pointset_exit_2(self, text, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(["discrepancy", str(path), "--p", "2"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(path) in err

    @pytest.mark.parametrize("grid", ["-1", "0", "1"])
    def test_density_grid_below_2_exit_2(self, grid, capsys):
        code, out, err = run(["density", "--p", "2", "--grid", grid], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "grid" in err

    def test_negative_mc_seed_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ok.txt"
        save_point_set(WeightedPointSet([[0.5]], [1.0]), path)
        code, out, err = run(["discrepancy", str(path), "--p", "1.5", "--method", "mc",
                              "--seed", "-3"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "seed" in err
