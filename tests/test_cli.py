"""Command-line interface: formats, determinism, exit codes."""

import ctypes
import glob
import json
import os
import subprocess
import sys

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptscatter import cli
from ptscatter.cli import main
from ptscatter.core import OUT_OF_RANGE
from ptscatter.potentials import LatticeParams, SquareWellParams

# argv (before --kmax 240 --kcount 3) whose closed form leaves the float range, and the k it names
ARITHMETIC_ERRORS = [
    (["scan", "--potential", "square-well", "--v1", "1e4", "--b", "10"], "0.2"),
    (["lattice", "--v1", "1e4", "--b", "10"], "0.2"),
    (["compare", "--potential", "square-well", "--v1", "1e4", "--b", "10"], "0.2"),
    (["scan", "--potential", "scarf", "--kmin", "220"], "230.0"),
    (["symmetry", "--potential", "scarf", "--kmin", "220"], "230.0"),
]
# argv whose closed form leaves the float range, and the first k where it does
OUT_OF_RANGE_RUNS = [
    (["scan", "--potential", "scarf", "--kmin", "230", "--kmax", "231", "--kcount", "2"], "230.0"),
    (["scan", "--potential", "square-well", "--v1", "1e4", "--b", "10"], "0.2"),
    (["scan", "--potential", "scarf", "--lambda-re", "300"], "0.2"),
    (["symmetry", "--potential", "scarf", "--lambda-re", "300", "--kcount", "3"], "0.2"),
    (["lattice", "--v1", "1e4", "--b", "10", "--kcount", "3"], "0.2"),
    (["scan", "--potential", "yamaguchi", "--alpha", "1e300", "--kcount", "3"], "0.2"),
]
SPECTRAL_SINGULARITY = ["lattice", "--v0", "1", "--v1", "13.078802475944913", "--b", "1",
                        "--kmin", "4.0", "--kmax", "4.164331013127829", "--kcount", "2",
                        "--n", "1", "--n-max", "3"]


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
        """A coarse step puts the Scarf comparison past the threshold (max rel
        diff ~1e-3); a small cutoff no longer does, since the integrator is
        matched to the exact tails there."""
        out = tmp_path / "bad.json"
        code = run_cli(["compare", "--potential", "scarf", "--s", "1.3",
                        "--lambda-re", "0.7", "--eps", "0", "--step", "0.3",
                        "--kcount", "3", "--kmax", "1.5", "--out", str(out)])
        assert code == 4
        assert "threshold exceeded" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["summary"]["threshold_exceeded"] is True

    def test_scarf_matched_to_its_tails(self, tmp_path):
        out = tmp_path / "scarf.json"
        assert run_cli(["compare", "--potential", "scarf", "--s", "1.3", "--lambda-re", "0.7",
                        "--eps", "0", "--cutoff", "20", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["summary"]["max_rel_diff"] < 1e-13

    def test_scarf_cutoff_too_small_for_the_tail_series_exits_3(self, capsys):
        assert run_cli(["compare", "--potential", "scarf", "--cutoff", "0.5", "--kcount", "2",
                        "--out", os.devnull]) == 3
        err = capsys.readouterr().err
        assert "the Jost series of the left tail has not converged" in err
        assert "at the left edge x = -0.5" in err

    def test_double_well_lattice_vs_numeric(self, tmp_path):
        out = tmp_path / "dw.json"
        code = run_cli(["compare", "--potential", "multi-well", "--v0", "1", "--v1", "0.3",
                        "--b", "0.5", "--a", "0.5", "--n", "2", "--kcount", "4",
                        "--kmax", "2.4", "--threshold", "1e-5", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["summary"]["max_rel_diff"] < 1e-5

    def test_one_integration_sweep_for_the_whole_grid(self, tmp_path, monkeypatch):
        import ptscatter.numeric as numeric

        calls = []

        def counted(v, ks, cfg=None):
            calls.append(len(ks))
            return integrate_batch(v, ks, cfg)

        integrate_batch = numeric.integrate_batch
        monkeypatch.setattr(numeric, "integrate_batch", counted)
        out = tmp_path / "cmp.json"
        assert run_cli(["compare", "--potential", "square-well", "--kcount", "5",
                        "--kmax", "3", "--out", str(out)]) == 0
        assert calls == [5]

    def test_yamaguchi_has_no_numeric_route(self, capsys):
        code = run_cli(["compare", "--potential", "yamaguchi"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=40))
    def test_median_is_numpys_bit_for_bit(self, values):
        """On relative differences, which lie in [0, 2]."""
        for rels in (values, values[1:] or values):     # an odd and an even count, or one value
            assert cli._median(rels).hex() == float(np.median(rels)).hex()


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

    def test_overflow_rows_carry_no_values(self, tmp_path):
        out = tmp_path / "ovf.csv"
        assert run_cli(["lattice", "--v0", "0", "--v1", "40", "--b", "1", "--a", "0.5",
                        "--n", "4090", "--n-max", "4096", "--kmin", "0.3", "--kmax", "0.4",
                        "--kcount", "2", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 14
        assert all(r["overflow"] == "1" and {r[h] for h in header[2:8]} == {"nan"} for r in rows)

    def test_band_gap_det_from_the_cell(self, tmp_path):
        """Deep in a band gap the elementwise det M kept no digit (4.6e46);
        det(T)^n from the cell keeps det M = 1 and |T_rl| = |T_lr|."""
        out = tmp_path / "gap.csv"
        assert run_cli(["lattice", "--v0", "1", "--v1", "0.3", "--b", "0.5", "--a", "0.5",
                        "--n", "399", "--n-max", "399", "--kmin", "1.3620689655172415",
                        "--kcount", "1", "--out", str(out)]) == 0
        _, (row,) = read_csv(out)
        det = complex(float(row["det_m_re"]), float(row["det_m_im"]))
        t_lr, t_rl = float(row["abs_t_lr"]), float(row["abs_t_rl"])
        assert row["overflow"] == "0" and t_lr < 1e-30
        assert abs(det - 1) < 1e-12
        assert abs(t_rl - t_lr) < 1e-12 * t_lr

    @pytest.mark.parametrize("bounds", [["--n", "5", "--n-max", "3"], ["--n-max", "0"]])
    def test_n_max_below_n_is_config_error(self, bounds, tmp_path, capsys):
        out = tmp_path / "none.csv"
        assert run_cli(["lattice", *bounds, "--kcount", "2", "--kmax", "1", "--out", str(out)]) == 2
        assert "n-max" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["lattice", "--a", "1e308", "--b", "1e308"],
        ["scan", "--potential", "multi-well", "--a", "1e308", "--b", "1e300", "--n", "3"],
    ], ids=["lattice", "scan-multi-well"])
    def test_period_beyond_float_range_is_config_error(self, argv, tmp_path, capsys):
        out = tmp_path / "none.csv"
        assert run_cli(argv + ["--kcount", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: half-gap a = 1e+308 and half-width b = 1e+3")
        assert "beyond the float range" in err and not out.exists()

    def test_spectral_singularity_exits_3_naming_k(self, capsys):
        """M_RR of the n = 1 lattice vanishes at the second k (a located
        spectral singularity of the complex well): the first row in n, k
        order that meets the pole is named."""
        assert run_cli(SPECTRAL_SINGULARITY + ["--out", "-"]) == 3
        err = capsys.readouterr().err
        assert err == ("solver error at k = 4.164331013127829: "
                       "|M_RR| = 5.6250374417585915e-16 below 1e-12\n")

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="the lattice runs in np.longdouble, which is a plain double here")
    @pytest.mark.parametrize("k", ["0.1498", "0.14985", "0.15"])
    def test_band_edge_moduli_against_the_exact_lattice(self, k, tmp_path):
        """Near a band edge of a hermitian lattice (|tr T|/2 = 0.9995 at
        k = 0.14985) rounding grows like n^2 eps |T|^2: the moduli to n = 400
        stay within 1e-11 of an mpmath product of the interface matrices,
        |R| relative to the largest of |T_lr|, |R_lr| and |R_rl|."""
        out = tmp_path / "edge.csv"
        assert run_cli(["lattice", "--v0", "1.875", "--v1", "0", "--b", "0.453125", "--a", "1",
                        "--n", "1", "--n-max", "400", "--kmin", k, "--kcount", "1",
                        "--out", str(out)]) == 0
        _, rows = read_csv(out)
        got = np.array([[float(r[h]) for h in ("abs_t_lr", "abs_r_lr", "abs_r_rl")] for r in rows])
        p = LatticeParams(SquareWellParams(1.875, 0.0, 0.453125), a=1.0, n=1)
        want = np.array(oracle.lattice_mp(p, float(k), 400))
        assert np.max(np.abs(got[:, 0] - want[:, 0]) / want[:, 0]) < 1e-11
        assert np.max(np.abs(got[:, 1:] - want[:, 1:]) / np.max(want, axis=1, keepdims=True)) < 1e-11

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


def no_fork():
    raise AssertionError("os.fork called")


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
        # the Magnus step is exact on a piecewise-constant V: only rounding is left
        for row in json.loads(golden)["rows"]:
            for name in ("t_lr", "r_lr", "t_rl", "r_rl"):
                numeric, analytic = (complex(*row[name][side]) for side in ("numeric", "analytic"))
                assert abs(numeric - analytic) <= 1e-13 * abs(analytic)


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

    @pytest.mark.parametrize("values, key", [
        ({"kmin": "0.3"}, "kmin"), ({"v1": None}, "v1"), ({"kcount": 2.5}, "kcount"),
        ({"format": "xml"}, "format"), ({"kcount": True}, "kcount"), ({"n_max": 3.0}, "n_max"),
        ({"out": 1}, "out"), ({"kmax": 10 ** 400}, "kmax")])
    def test_config_value_of_the_wrong_type_names_its_key(self, values, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert run_cli(["scan", "--config", str(cfg), "--out", os.devnull]) == 2
        assert f"configuration error: config key {key!r} must be" in capsys.readouterr().err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run_cli(["scan", "--config", str(cfg)]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_config_integers_and_nulls_read_as_their_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kmin": 1, "kmax": 2, "kcount": 2, "eps": None, "n_max": None}))
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert run_cli(["scan", "--config", str(cfg), "--out", str(from_file)]) == 0
        assert run_cli(["scan", "--kmin", "1", "--kmax", "2", "--kcount", "2",
                        "--out", str(from_flags)]) == 0
        assert from_file.read_bytes() == from_flags.read_bytes()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1e-5"])
    def test_threshold_must_be_finite_and_not_negative(self, threshold, capsys):
        assert run_cli(["compare", "--kcount", "2", f"--threshold={threshold}",
                        "--out", os.devnull]) == 2
        assert "threshold must be finite and >= 0" in capsys.readouterr().err

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

    @pytest.mark.parametrize("row, column, value", [(3, 0, "nan"), (5, 1, "inf"), (4, 2, "-inf")])
    def test_non_finite_sample_is_config_error(self, row, column, value, tmp_path, capsys):
        xs = np.linspace(-2, 2, 11)
        data = np.column_stack([xs, np.where(np.abs(xs) <= 1, -1.0, 0.0), np.zeros_like(xs)])
        data[row, column] = float(value)
        samples = tmp_path / "pot.csv"
        np.savetxt(samples, data, delimiter=",")
        assert run_cli(["scan", "--potential", "custom-sampled", "--samples-file", str(samples),
                        "--kcount", "2", "--out", os.devnull]) == 2
        assert f"sample row {row} is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compare", "--potential", "square-well", "--kcount", "2", "--step", "1e-12"],
        ["compare", "--potential", "scarf", "--cutoff", "1e7"],
    ])
    def test_sweep_too_long_is_config_error(self, argv, capsys):
        assert run_cli(argv + ["--out", os.devnull]) == 2
        assert "steps, more than the 10000000 one sweep may take" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["scan", "--kcount", "100000000000"], "kcount"),
        (["lattice", "--n-max", "100000000000", "--kcount", "2"], "n-max"),
    ], ids=["scan-kcount", "lattice-n-max"])
    def test_table_too_large_is_config_error(self, argv, flag, capsys):
        """A grid past MAX_ROWS exits 2 before anything is allocated."""
        assert run_cli(argv + ["--out", os.devnull]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {flag}") and "1000000" in err

    def test_max_rows_is_the_largest_table(self, monkeypatch):
        import ptscatter.cli as cli

        monkeypatch.setattr(cli, "MAX_ROWS", 6)
        for argv, code in ((["scan", "--kcount", "6"], 0), (["scan", "--kcount", "7"], 2),
                           (["lattice", "--n", "2", "--n-max", "4", "--kcount", "2"], 0),
                           (["lattice", "--n", "2", "--n-max", "5", "--kcount", "2"], 2)):
            assert run_cli(argv + ["--out", os.devnull]) == code, argv

    def test_custom_sampled_scan_is_one_sweep(self, tmp_path, monkeypatch):
        import ptscatter.numeric as numeric
        from ptscatter import IntegrationConfig, numeric_coefficients, sampled_potential

        xs = np.linspace(-2, 2, 2001)
        v = np.where(np.abs(xs) <= 1, -1.0 + 0.3j * np.sign(xs), 0.0)
        samples = tmp_path / "pot.csv"
        np.savetxt(samples, np.column_stack([xs, v.real, v.imag]), delimiter=",")
        calls = []

        def counted(pot, ks, cfg=None):
            calls.append(len(ks))
            return integrate_batch(pot, ks, cfg)

        integrate_batch = numeric.integrate_batch
        monkeypatch.setattr(numeric, "integrate_batch", counted)
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

    @pytest.mark.parametrize("argv, k", ARITHMETIC_ERRORS)
    def test_arithmetic_error_is_solver_error_naming_k(self, argv, k, capsys):
        assert run_cli(argv + ["--kmax", "240", "--kcount", "3"]) == 3
        reported = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("solver error")]
        assert len(reported) == 1 and reported[0].startswith(f"solver error at k = {k}: ")

    @pytest.mark.parametrize("argv, k", OUT_OF_RANGE_RUNS)
    def test_out_of_range_is_a_named_solver_error(self, argv, k, capsys):
        assert run_cli(argv + ["--out", os.devnull]) == 3
        assert capsys.readouterr().err == f"solver error at k = {k}: {OUT_OF_RANGE}\n"

    @pytest.mark.parametrize("command", ["scan", "compare", "symmetry"])
    @pytest.mark.parametrize("v1", ["1e160", "-1e160"])
    def test_square_well_v1_squared_beyond_the_float_range(self, command, v1, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli([command, "--potential", "square-well", f"--v1={v1}", "--kcount", "3",
                        "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"solver error at k = 0.2: {OUT_OF_RANGE}\n"
        assert not out.exists()

    def test_import_does_not_load_scipy_integrate(self):
        """Every command, and a generic separable kernel through N+-,
        coefficients over a column, wavefunctions and its classification,
        runs with scipy refused at import."""
        code = """if True:
            import json, math, sys
            import numpy as np
            class Refuse:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ImportError(f"{name} refused")
            sys.meta_path.insert(0, Refuse())
            from ptscatter import separable
            from ptscatter.cli import main
            kernel = separable.SeparableKernel.from_form_factors(
                g=lambda x: math.exp(-abs(x)), h=lambda y: math.exp(-2 * abs(y)), alpha=0.3, beta=0.7)
            c = separable.nonlocal_coefficients(kernel, np.array([0.5, 1.0, 2.0]))
            n = [separable.compute_n(kernel, sign, 1.0) for sign in ("plus", "minus")]
            wf = separable.nonlocal_wavefunction(kernel, 1.0, "right", np.linspace(-3, 3, 7))
            cls = separable.kernel_symmetry_class(kernel)
            finite = all(np.all(np.isfinite(z)) for z in (c.t_lr, c.r_rl, n, wf.psi))
            print(*(main(argv) for argv in json.loads(sys.argv[1])), finite and cls.pt)"""
        runs = [[command, "--potential", potential, "--kcount", "3", "--out", os.devnull]
                for command, potentials in (("scan", ("square-well", "scarf", "yamaguchi")),
                                            ("compare", ("square-well", "scarf")),
                                            ("symmetry", ("square-well", "scarf", "yamaguchi")),
                                            ("lattice", ("square-well",)))
                for potential in potentials]
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"] * len(runs) + ["True"]

    def test_import_leaves_unused_modules_unloaded(self):
        unused = ("numeric", "specfun", "separable", "symmetry", "current", "spell")
        code = f"import sys, ptscatter.cli; print(*(f'ptscatter.{{m}}' in sys.modules for m in {unused}))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.split() == ["False"] * len(unused)

    @pytest.mark.parametrize("argv, loaded", [
        (["lattice", "--n", "1", "--n-max", "3", "--kcount", "4"], []),
        (["scan", "--potential", "square-well", "--kcount", "4"], []),
        (["scan", "--potential", "centrifugal", "--kcount", "4"], []),
        (["scan", "--potential", "scarf", "--kcount", "30"], ["specfun"]),
        (["scan", "--potential", "scarf", "--kcount", "4"], ["specfun"]),
        (["scan", "--potential", "yamaguchi", "--kcount", "4"], ["separable"]),
        (["symmetry", "--potential", "yamaguchi", "--kcount", "4"], ["separable"]),
        (["symmetry", "--potential", "square-well", "--kcount", "4"], ["numeric"]),
        (["compare", "--potential", "square-well", "--kcount", "2"], ["numeric"]),
    ], ids=["lattice", "scan-square-well", "scan-centrifugal", "scan-scarf-columns",
            "scan-scarf-per-k", "scan-yamaguchi", "symmetry-yamaguchi", "symmetry-square-well",
            "compare-square-well"])
    def test_command_loads_only_what_it_uses(self, argv, loaded, tmp_path):
        """numeric and specfun load only for a command that integrates or
        builds a profile, or evaluates a Scarf closed form, and separable only
        for a separable kernel; numpy.polynomial, which only generic separable
        kernels use, never, nor numpy.ma (compare's median is taken without
        numpy)."""
        code = ("import json, sys; from ptscatter.cli import main; "
                "code = main(json.loads(sys.argv[1])); "
                "print(code, *(m in sys.modules for m in ('ptscatter.numeric', 'ptscatter.specfun', "
                "'ptscatter.separable', 'numpy.polynomial', 'numpy.ma')))")
        argv = argv + ["--out", str(tmp_path / "out")]
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                              capture_output=True, text=True)
        assert proc.stdout.split() == ["0", str("numeric" in loaded), str("specfun" in loaded),
                                       str("separable" in loaded), "False", "False"], proc.stderr

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "ptscatter.cli", "scan",
                               "--potential", "square-well", "--kcount", "2",
                               "--kmax", "1"], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.startswith("k,")


def numpy_openblas():
    """(path, name of its thread-count function) of the OpenBLAS that numpy
    ships and has loaded, or None where numpy's BLAS is another."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                       "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, name):
                return path, name
    return None


@pytest.mark.skipif(numpy_openblas() is None, reason="numpy's BLAS is not its own OpenBLAS")
class TestBlasThreads:
    """The command line loads numpy's OpenBLAS with one thread unless the
    user has chosen a count, and leaves the environment as it found it."""

    PROBE = ("import ctypes, json, os, sys; before = dict(os.environ); {imports}; "
             "threads = getattr(ctypes.CDLL(sys.argv[1]), sys.argv[2])(); "
             "print(json.dumps([threads, dict(os.environ) == before]))")

    def threads(self, imports, **chosen):
        """OpenBLAS's thread count after ``imports`` in a fresh interpreter
        whose environment sets only the ``chosen`` thread counts, and whether
        os.environ is unchanged."""
        env = {key: value for key, value in os.environ.items() if key not in cli.BLAS_THREADS}
        proc = subprocess.run([sys.executable, "-c", self.PROBE.format(imports=imports),
                               *numpy_openblas()], env={**env, **chosen}, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_one_thread_and_the_environment_unchanged(self):
        assert self.threads("import ptscatter.cli") == [1, True]

    @pytest.mark.parametrize("name", cli.BLAS_THREADS)
    def test_a_chosen_count_is_honoured(self, name):
        chosen = self.threads("import numpy", **{name: "2"})
        assert self.threads("import ptscatter.cli", **{name: "2"}) == chosen

    def test_numpy_imported_first_keeps_its_pool(self):
        assert self.threads("import numpy, ptscatter.cli") == self.threads("import numpy")


def run_command_line(argv, code="from ptscatter.cli import main; main()"):
    """argv run in a fresh interpreter as its own command line: ``main()``
    without argv, as the console script calls it; stdout is block-buffered,
    as it is by default for a pipe, so that only a flush sends its tail."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env)


class TestCommandLineProcess:
    """``main()`` without argv ends its process at once, with the exit code,
    after flushing stdout and stderr; ``main(argv)`` returns the code."""

    @pytest.mark.parametrize("argv", [
        ["scan", "--potential", "scarf", "--kcount", "50"],
        ["scan", "--potential", "yamaguchi", "--kcount", "7", "--format", "json"],
        ["scan", "--potential", "centrifugal", "--kcount", "8000", "--format", "json"],
        ["lattice", "--n", "1", "--n-max", "5", "--kcount", "9"],
    ], ids=["scan-scarf", "scan-yamaguchi-json", "scan-centrifugal-json-8000", "lattice"])
    def test_piped_stdout_equals_the_file(self, argv, tmp_path):
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 0
        proc = run_command_line(argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == out.read_bytes()

    @pytest.mark.parametrize("argv, code, message", [
        (["scan", "--kmin", "-1"], 2, "configuration error: kmin must be > 0"),
        (["lattice", "--n", "3", "--n-max", "2"], 2, "configuration error: n-max must be >= n"),
        (["scan", "--potential", "scarf", "--s", "1e17", "--lambda-re", "0.7", "--kcount", "20"],
         3, "solver error at k = 0.2: "),
        (["compare", "--potential", "scarf", "--s", "1.3", "--lambda-re", "0.7", "--eps", "0",
          "--step", "0.3", "--kcount", "3", "--kmax", "1.5"], 4, "comparison threshold exceeded"),
    ], ids=["config", "n-max", "solver", "threshold"])
    def test_exit_codes_and_messages(self, argv, code, message, capsys):
        assert run_cli(argv) == code
        here = capsys.readouterr()
        proc = run_command_line(argv)
        assert proc.returncode == code
        assert proc.stderr.decode().startswith(message)
        assert (proc.stdout.decode(), proc.stderr.decode()) == (here.out, here.err)

    @pytest.mark.parametrize("argv", [["scan", "--no-such-flag"], ["scan", "--potential", "x"], []])
    def test_argument_error_exits_2(self, argv):
        proc = run_command_line(argv)
        assert proc.returncode == 2 and proc.stderr.startswith(b"usage: ptscatter")

    def test_exception_unwinds_through_main(self):
        code = ("from ptscatter.cli import main\n"
                "try:\n    main()\nexcept SystemExit as exc:\n    print('unwound', exc.code)")
        proc = run_command_line(["scan", "--no-such-flag"], code)
        assert (proc.returncode, proc.stdout) == (0, b"unwound 2\n")

    def test_main_with_argv_returns(self, tmp_path):
        code = ("import sys; from ptscatter.cli import main; "
                "print('returned', main(sys.argv[1:]), main(sys.argv[1:] + ['--kmin', '-1']))")
        proc = run_command_line(["scan", "--kcount", "2", "--out", str(tmp_path / "out")], code)
        assert (proc.returncode, proc.stdout) == (0, b"returned 0 2\n")

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork hooks")
    def test_no_process_is_forked(self, tmp_path):
        """A table of 8,000 rows is written by the command's own process: a
        fork would end it with 99 before the child starts."""
        argv = ["scan", "--potential", "centrifugal", "--kcount", "8000", "--format", "json"]
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 0
        code = ("import os; os.register_at_fork(before=lambda: os._exit(99)); "
                "from ptscatter.cli import main; main()")
        proc = run_command_line(argv, code)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == out.read_bytes()

    def test_failed_flush_returns_the_code(self):
        """A stdout whose flush fails (a closed pipe) leaves the exit to Python,
        which flushes it again, reports the error and exits with 120."""
        code = ("import io, sys; from ptscatter.cli import main\n"
                "class Closed(io.StringIO):\n"
                "    def flush(self):\n        raise BrokenPipeError(32, 'Broken pipe')\n"
                "sys.stdout = Closed()\n"
                "print('returned', main(), file=sys.stderr)")
        proc = run_command_line(["scan", "--kcount", "2"], code)
        assert proc.returncode == 120 and proc.stderr.startswith(b"returned 0\n")


class TestOutputProcesses:
    """A table is spelled in chunks of rows by the command's one process; the
    chunk boundaries do not move its bytes."""

    LARGE = [  # each table spans several chunks
        ["scan", "--potential", "scarf", "--kcount", "8000"],
        ["scan", "--potential", "centrifugal", "--kcount", "8000", "--format", "json"],
        ["symmetry", "--potential", "square-well", "--kcount", "5000"],
        ["lattice", "--n", "1", "--n-max", "100", "--kcount", "120"],
    ]

    @pytest.mark.parametrize("argv", LARGE, ids=lambda argv: "-".join(argv[:3]))
    def test_chunk_size_keeps_bytes(self, argv, monkeypatch, tmp_path):
        """Separators, constant texts and null fields at chunk boundaries: the
        bytes of 7-row chunks, of the default chunks and of one chunk agree."""
        monkeypatch.setattr(os, "fork", no_fork)
        outputs = []
        for rows, values in [(7, cli.CHUNK_VALUES), (cli.CHUNK_ROWS, cli.CHUNK_VALUES),
                             (cli.MAX_ROWS, cli.MAX_ROWS * 100)]:
            monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
            monkeypatch.setattr(cli, "CHUNK_VALUES", values)
            out = tmp_path / f"out-{rows}"
            assert run_cli(argv + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_small_tables_never_fork(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "fork", no_fork)
        assert run_cli(["compare", "--potential", "square-well", "--out",
                        str(tmp_path / "cmp.json")]) == 0
        assert run_cli(["scan", "--kcount", "50", "--out", str(tmp_path / "scan.csv")]) == 0

    @pytest.mark.parametrize("argv", [
        SPECTRAL_SINGULARITY,
        ["scan", "--potential", "scarf", "--s", "1e17", "--lambda-re", "0.7", "--kcount", "20"],
        *(argv + ["--kmax", "240", "--kcount", "3"] for argv, _ in ARITHMETIC_ERRORS),
    ], ids=lambda argv: "-".join(argv[:3]))
    def test_solver_error_writes_no_file(self, argv, tmp_path, capsys):
        out = tmp_path / "none"
        assert run_cli(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("solver error at k = ")
        assert not out.exists()
