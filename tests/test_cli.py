"""Command-line interface: formats, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ptscatter.cli import main


def run_cli(args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestScan:
    def test_square_well_scan(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli(["scan", "--potential", "square-well", "--v0", "1", "--v1", "0.5",
                        "--b", "1", "--kmin", "0.2", "--kmax", "4", "--kcount", "50",
                        "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert len(rows) == 50
        assert header[0] == "k" and "abs_det_s" in header and "unitarity_defect" in header
        for row in rows:
            assert abs(float(row["abs_det_s"]) - 1.0) < 1e-10

    def test_zero_potential_rows(self, tmp_path):
        out = tmp_path / "zero.csv"
        assert run_cli(["scan", "--potential", "square-well", "--v0", "0", "--v1", "0",
                        "--kcount", "5", "--kmax", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            assert abs(float(row["t_lr_re"]) - 1.0) < 1e-12
            assert abs(float(row["r_lr_re"])) < 1e-12 and abs(float(row["r_lr_im"])) < 1e-12

    def test_yamaguchi_asymmetric_transmissions_differ(self, tmp_path):
        out = tmp_path / "yam.csv"
        assert run_cli(["scan", "--potential", "yamaguchi", "--gamma", "1", "--delta", "2",
                        "--alpha", "0.3", "--beta", "0.7", "--strength", "1",
                        "--kmin", "0.5", "--kmax", "2", "--kcount", "9",
                        "--out", str(out)]) == 0
        _, rows = read_csv(out)
        diffs = [abs(complex(float(r["t_lr_re"]), float(r["t_lr_im"]))
                     - complex(float(r["t_rl_re"]), float(r["t_rl_im"]))) for r in rows]
        assert max(diffs) > 1e-3

    def test_json_format(self, tmp_path):
        out = tmp_path / "scan.json"
        assert run_cli(["scan", "--potential", "square-well", "--kcount", "3",
                        "--kmax", "1.5", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["potential"]["kind"] == "square-well"
        assert len(payload["rows"]) == 3 and "abs_det_s" in payload["rows"][0]

    def test_stdout_output(self, capsys):
        assert run_cli(["scan", "--potential", "centrifugal", "--strength", "2",
                        "--eps", "0.1", "--kcount", "2", "--kmax", "1"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("k,") and len(captured.splitlines()) == 3


class TestCompare:
    def test_square_well_defaults_pass(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = run_cli(["compare", "--potential", "square-well", "--kcount", "7",
                        "--kmax", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["max_rel_diff"] < 1e-6
        assert payload["summary"]["threshold_exceeded"] is False

    def test_degraded_scarf_truncation_exits_4(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        code = run_cli(["compare", "--potential", "scarf", "--s", "1.3",
                        "--lambda-re", "0.7", "--eps", "0", "--cutoff", "4",
                        "--kcount", "3", "--kmax", "1.5", "--out", str(out)])
        assert code == 4
        assert "threshold exceeded" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["summary"]["threshold_exceeded"] is True

    def test_double_well_lattice_vs_numeric(self, tmp_path):
        out = tmp_path / "dw.json"
        code = run_cli(["compare", "--potential", "multi-well", "--v0", "1", "--v1", "0.3",
                        "--b", "0.5", "--a", "0.5", "--n", "2", "--kcount", "4",
                        "--kmax", "2.4", "--threshold", "1e-5", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["summary"]["max_rel_diff"] < 1e-5

    def test_one_integration_sweep_for_the_whole_grid(self, tmp_path, monkeypatch):
        import ptscatter.cli as cli

        calls = []

        def counted(v, ks, cfg=None):
            calls.append(len(ks))
            return integrate_batch(v, ks, cfg)

        integrate_batch = cli.integrate_batch
        monkeypatch.setattr(cli, "integrate_batch", counted)
        out = tmp_path / "cmp.json"
        assert run_cli(["compare", "--potential", "square-well", "--kcount", "5",
                        "--kmax", "3", "--out", str(out)]) == 0
        assert calls == [5]

    def test_yamaguchi_has_no_numeric_route(self, capsys):
        code = run_cli(["compare", "--potential", "yamaguchi"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


class TestSymmetry:
    def test_complex_square_well_report(self, tmp_path):
        out = tmp_path / "sym.json"
        assert run_cli(["symmetry", "--potential", "square-well", "--v0", "1", "--v1", "0.5",
                        "--b", "1", "--kcount", "5", "--kmax", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["class"]["pt"] is True and payload["class"]["hermitian"] is False
        assert payload["suites"]["pt"] == "holds"
        assert payload["suites"]["p"] == "not-applicable"
        assert payload["suites"]["t"] == "not-applicable"
        assert all(not e["is_exact"] for e in payload["exact_asymptotic_pt"])

    def test_hermitian_scarf_unitarity_suite(self, tmp_path):
        out = tmp_path / "sym.json"
        assert run_cli(["symmetry", "--potential", "scarf", "--s", "1.3",
                        "--lambda-re", "0.7", "--eps", "0", "--kcount", "5",
                        "--kmax", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["suites"]["hermitian_t"] == "holds"

    def test_centrifugal_exact_flag(self, tmp_path):
        out = tmp_path / "sym.json"
        assert run_cli(["symmetry", "--potential", "centrifugal", "--strength", "2",
                        "--eps", "0.1", "--kcount", "3", "--kmax", "2",
                        "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert all(e["is_exact"] for e in payload["exact_asymptotic_pt"])

    def test_yamaguchi_kernel_report(self, tmp_path):
        out = tmp_path / "sym.json"
        assert run_cli(["symmetry", "--potential", "yamaguchi", "--gamma", "1",
                        "--delta", "2", "--alpha", "0.3", "--beta", "0.7",
                        "--strength", "1", "--kcount", "3", "--kmax", "2",
                        "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["class"]["pt"] is True
        assert payload["suites"]["pt"] == "holds"
        # non-local: the local equality suite must not be evaluated
        assert all(not r["name"].startswith("local_") for r in payload["relations"])


class TestLattice:
    def test_single_well_reduces_to_scan(self, tmp_path):
        lat, scan = tmp_path / "lat.csv", tmp_path / "scan.csv"
        assert run_cli(["lattice", "--v0", "1", "--v1", "0.3", "--b", "0.5", "--a", "0.5",
                        "--n", "1", "--kcount", "6", "--kmax", "3", "--out", str(lat)]) == 0
        assert run_cli(["scan", "--potential", "square-well", "--v0", "1", "--v1", "0.3",
                        "--b", "0.5", "--kcount", "6", "--kmax", "3",
                        "--out", str(scan)]) == 0
        _, lat_rows = read_csv(lat)
        _, scan_rows = read_csv(scan)
        for lr, sr in zip(lat_rows, scan_rows):
            t_scan = abs(complex(float(sr["t_lr_re"]), float(sr["t_lr_im"])))
            assert abs(float(lr["abs_t_lr"]) - t_scan) < 1e-10

    def test_hermitian_lattice_unitary_rows(self, tmp_path):
        out = tmp_path / "lat.csv"
        assert run_cli(["lattice", "--v0", "1", "--v1", "0", "--b", "0.5", "--a", "0.5",
                        "--n", "4", "--kcount", "6", "--kmax", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            total = float(row["abs_t_lr"]) ** 2 + float(row["abs_r_lr"]) ** 2
            assert abs(total - 1.0) < 1e-10

    def test_n_sweep_at_fixed_k(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["lattice", "--v0", "1", "--v1", "0.3", "--b", "0.5", "--a", "0.5",
                        "--n", "1", "--n-max", "4", "--kmin", "1.2", "--kcount", "1",
                        "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [int(r["n"]) for r in rows] == [1, 2, 3, 4]

    def test_overflow_rows_flagged_not_fatal(self, tmp_path):
        out = tmp_path / "ovf.csv"
        assert run_cli(["lattice", "--v0", "0", "--v1", "40", "--b", "1", "--a", "0.5",
                        "--n", "4096", "--kmin", "0.3", "--kcount", "1",
                        "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0]["overflow"] == "1"

    def test_strong_well_rows_finite_unless_flagged(self, tmp_path):
        # |M| passes 1e154 long before the 1e300 overflow flag, where the
        # elementwise det M = M_RR M_LL - M_RL M_LR overflows
        out = tmp_path / "strong.csv"
        assert run_cli(["lattice", "--v0", "1", "--v1", "30", "--b", "0.5", "--a", "0.5",
                        "--n", "1", "--n-max", "400", "--kmin", "0.5", "--kmax", "3",
                        "--kcount", "4", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        values = np.array([[float(r[h]) for h in header[2:8]] for r in rows])
        flagged = np.array([r["overflow"] == "1" for r in rows])
        assert len(rows) == 1600 and 0 < flagged.sum() < len(rows)
        ok = values[~flagged]
        assert np.all(np.isfinite(ok))
        # where det M comes from det(T)^n it is 1, and |T_rl| = |det M T_lr|
        huge = ok[:, 0] < 1e-160           # |M_RR| = 1/|T_lr| > 1e160
        assert huge.sum() > 0
        assert np.max(np.abs(ok[huge, 4] + 1j * ok[huge, 5] - 1)) < 1e-6
        assert np.allclose(ok[huge, 2], ok[huge, 0], rtol=1e-6, atol=0)


class TestGoldenFiles:
    """Byte-level regressions: 17-significant-digit cells, Unix newlines."""

    GOLDEN_DIR = __file__.rsplit("/", 1)[0] + "/data"

    def test_square_well_scan_matches_golden(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli(["scan", "--potential", "square-well", "--v0", "1", "--v1", "0.5",
                        "--b", "1", "--kmin", "0.5", "--kmax", "2.5", "--kcount", "9",
                        "--out", str(out)]) == 0
        golden = open(f"{self.GOLDEN_DIR}/golden_scan_square_well.csv", "rb").read()
        assert out.read_bytes() == golden

    def test_lattice_sweep_matches_golden(self, tmp_path):
        out = tmp_path / "lat.csv"
        assert run_cli(["lattice", "--v0", "1", "--v1", "0.3", "--b", "0.5", "--a", "0.5",
                        "--n", "1", "--n-max", "3", "--kmin", "1.2", "--kcount", "1",
                        "--out", str(out)]) == 0
        golden = open(f"{self.GOLDEN_DIR}/golden_lattice_sweep.csv", "rb").read()
        assert out.read_bytes() == golden

    def test_pt_square_well_symmetry_matches_golden(self, tmp_path):
        out = tmp_path / "sym.json"
        assert run_cli(["symmetry", "--potential", "square-well", "--v0", "1", "--v1", "0.5",
                        "--b", "1", "--kmin", "0.5", "--kmax", "2.5", "--kcount", "5",
                        "--out", str(out)]) == 0
        golden = open(f"{self.GOLDEN_DIR}/golden_symmetry_square_well.json", "rb").read()
        assert out.read_bytes() == golden

    def test_asymmetric_yamaguchi_symmetry_matches_golden(self, tmp_path):
        # a kernel's class block carries symmetric_xy/reality, not x0
        out = tmp_path / "sym.json"
        assert run_cli(["symmetry", "--potential", "yamaguchi", "--gamma", "1", "--delta", "2",
                        "--alpha", "0.3", "--beta", "0.7", "--strength", "1",
                        "--kmin", "0.5", "--kmax", "2", "--kcount", "3",
                        "--out", str(out)]) == 0
        golden = open(f"{self.GOLDEN_DIR}/golden_symmetry_yamaguchi.json", "rb").read()
        assert out.read_bytes() == golden

    def test_square_well_compare_matches_golden(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run_cli(["compare", "--potential", "square-well", "--v0", "1", "--v1", "0.5",
                        "--b", "1", "--kmin", "0.5", "--kmax", "2", "--kcount", "4",
                        "--out", str(out)]) == 0
        golden = open(f"{self.GOLDEN_DIR}/golden_compare_square_well.json", "rb").read()
        assert out.read_bytes() == golden


    @pytest.mark.parametrize("golden, argv", [
        ("golden_scan_scarf_hermitian.csv",
         ["--potential", "scarf", "--s", "1.3", "--lambda-re", "0.7", "--eps", "0"]),
        ("golden_scan_scarf_imaginary.csv",
         ["--potential", "scarf", "--s", "1.3", "--lambda-im", "0.6", "--eps", "0"]),
        ("golden_scan_scarf_shifted.csv",
         ["--potential", "scarf", "--s", "1.3", "--lambda-re", "0.7", "--eps", "0.25"]),
        ("golden_scan_yamaguchi.csv",
         ["--potential", "yamaguchi", "--gamma", "1", "--delta", "2", "--alpha", "0.3",
          "--beta", "0.7", "--strength", "1"]),
        ("golden_scan_centrifugal.json",
         ["--potential", "centrifugal", "--strength", "2", "--eps", "0.1", "--format", "json"]),
    ])
    def test_closed_form_scan_matches_golden(self, golden, argv, tmp_path):
        # 200 k each, written by the per-k code before the closed forms took k grids
        out = tmp_path / golden
        assert run_cli(["scan", *argv, "--kmin", "0.2", "--kmax", "4", "--kcount", "200",
                        "--out", str(out)]) == 0
        assert out.read_bytes() == open(f"{self.GOLDEN_DIR}/{golden}", "rb").read()


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": "square-well", "v0": 1.0, "v1": 0.5,
                                   "b": 1.0, "kcount": 4, "kmax": 2.0}))
        out = tmp_path / "out.csv"
        assert run_cli(["scan", "--config", str(cfg), "--kcount", "6",
                        "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 6  # flag wins over the file's 4

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wells": 3}))
        assert run_cli(["scan", "--config", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_kmin_is_config_error(self, capsys):
        assert run_cli(["scan", "--potential", "square-well", "--kmin", "-1"]) == 2

    def test_unwritable_output_is_config_error(self, capsys):
        assert run_cli(["scan", "--potential", "square-well", "--kcount", "2",
                        "--kmax", "1", "--out", "/nonexistent-dir/out.csv"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_solver_error_names_failing_k(self, capsys):
        # k large enough that the default step violates the wavelength bound
        code = run_cli(["compare", "--potential", "square-well", "--kmin", "80",
                        "--kmax", "90", "--kcount", "2", "--step", "0.05"])
        assert code == 3
        assert "k = 80" in capsys.readouterr().err

    def test_custom_sampled_scan(self, tmp_path):
        samples = tmp_path / "pot.csv"
        xs = np.linspace(-2, 2, 2001)
        v = np.where(np.abs(xs) <= 1, -1.0, 0.0)
        np.savetxt(samples, np.column_stack([xs, v, np.zeros_like(xs)]), delimiter=",")
        out = tmp_path / "scan.csv"
        assert run_cli(["scan", "--potential", "custom-sampled", "--samples-file",
                        str(samples), "--kcount", "2", "--kmax", "1.5",
                        "--out", str(out)]) == 0
        _, rows = read_csv(out)
        # real sampled well: near-unitary rows
        assert abs(float(rows[0]["unitarity_defect"])) < 1e-3

    def test_custom_sampled_scan_is_one_sweep(self, tmp_path, monkeypatch):
        import ptscatter.cli as cli
        from ptscatter import IntegrationConfig, numeric_coefficients, sampled_potential

        xs = np.linspace(-2, 2, 2001)
        v = np.where(np.abs(xs) <= 1, -1.0 + 0.3j * np.sign(xs), 0.0)
        samples = tmp_path / "pot.csv"
        np.savetxt(samples, np.column_stack([xs, v.real, v.imag]), delimiter=",")
        calls = []

        def counted(pot, ks, cfg=None):
            calls.append(len(ks))
            return integrate_batch(pot, ks, cfg)

        integrate_batch = cli.integrate_batch
        monkeypatch.setattr(cli, "integrate_batch", counted)
        out = tmp_path / "scan.csv"
        assert run_cli(["scan", "--potential", "custom-sampled", "--samples-file",
                        str(samples), "--kcount", "5", "--kmax", "2", "--out", str(out)]) == 0
        assert calls == [5]
        _, rows = read_csv(out)
        pot, cfg = sampled_potential(xs, v), IntegrationConfig(step=1e-3)
        for row in rows:
            c = numeric_coefficients(pot, float(row["k"]), cfg)
            for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
                got = complex(float(row[f"{name}_re"]), float(row[f"{name}_im"]))
                assert abs(got - getattr(c, name)) < 1e-13

    @pytest.mark.parametrize("argv", [
        ["scan", "--v1", "nan"],
        ["scan", "--b", "inf"],
        ["lattice", "--a", "inf"],
        ["scan", "--potential", "yamaguchi", "--gamma", "nan"],
        ["scan", "--potential", "yamaguchi", "--alpha", "inf"],
        ["scan", "--potential", "centrifugal", "--strength", "nan"],
        ["scan", "--potential", "scarf", "--lambda-im", "inf"],
        ["symmetry", "--potential", "scarf", "--s", "nan"],
    ])
    def test_non_finite_parameter_is_config_error(self, argv, capsys):
        assert run_cli(argv + ["--kcount", "2", "--kmax", "1"]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, k", [
        (["scan", "--potential", "square-well", "--v1", "1e4", "--b", "10"], "0.2"),
        (["lattice", "--v1", "1e4", "--b", "10"], "0.2"),
        (["compare", "--potential", "square-well", "--v1", "1e4", "--b", "10"], "0.2"),
        (["scan", "--potential", "scarf", "--kmin", "220"], "230.0"),
        (["symmetry", "--potential", "scarf", "--kmin", "220"], "230.0"),
    ])
    def test_arithmetic_error_is_solver_error_naming_k(self, argv, k, capsys):
        assert run_cli(argv + ["--kmax", "240", "--kcount", "3"]) == 3
        reported = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("solver error")]
        assert len(reported) == 1 and reported[0].startswith(f"solver error at k = {k}: ")

    def test_import_does_not_load_scipy_integrate(self):
        code = "import sys, ptscatter.cli; print('scipy.integrate' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "ptscatter.cli", "scan",
                               "--potential", "square-well", "--kcount", "2",
                               "--kmax", "1"], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.startswith("k,")
