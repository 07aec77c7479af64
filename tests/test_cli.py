"""End-to-end tests of the command-line interface.

Each test drives main() in-process with --out to a temp file, then parses
the emitted CSV or JSON.  stderr notices are checked through capsys.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quasigw.cli
import quasigw.kernel
import quasigw.quasispecies
import quasigw.spectral
from quasigw import ModelParams, __version__, kernel_band, lumped_kernel_entry
from quasigw.kernel import BAND_FLOOR
from quasigw.cli import main, render_csv, render_json

LN2 = math.log(2.0)


def run_csv(args, path):
    """Run the CLI writing CSV to path; return (exit code, metadata, header, rows)."""
    code = main([*args, "--out", str(path)])
    meta, header, rows = {}, None, []
    if code == 0:
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return code, meta, header, rows


def run_json(args, path):
    code = main([*args, "--format", "json", "--out", str(path)])
    doc = json.loads(path.read_text()) if code == 0 else None
    return code, doc


class TestKernelCommand:
    def test_hand_checked_row(self, tmp_path):
        code, meta, header, rows = run_csv(
            ["kernel", "--sigma", "2", "--ell", "2", "--kappa", "2", "--q", "0.5"],
            tmp_path / "k.csv",
        )
        assert code == 0
        assert header[:4] == ["b", "c0", "c1", "c2"]
        row0 = [float(x) for x in rows[0][1:4]]
        assert row0 == pytest.approx([0.25, 0.5, 0.25], abs=1e-15)

    def test_q_zero_identity(self, tmp_path):
        code, _, _, rows = run_csv(
            ["kernel", "--sigma", "2", "--ell", "3", "--kappa", "2", "--q", "0"],
            tmp_path / "k.csv",
        )
        assert code == 0
        matrix = np.array([[float(x) for x in row[1:5]] for row in rows])
        assert np.array_equal(matrix, np.eye(4))

    def test_long_sequence_row_sums(self, tmp_path):
        code, meta, header, rows = run_csv(
            ["kernel", "--sigma", "2", "--ell", "500", "--kappa", "2", "--q", "0.001"],
            tmp_path / "k.csv",
        )
        assert code == 0
        dev_col = header.index("row_sum_dev")
        assert max(abs(float(r[dev_col])) for r in rows) < 1e-10
        assert float(meta["diagnostics.max_row_sum_dev"]) < 1e-10

    def test_metadata_echoes_config(self, tmp_path):
        _, meta, _, _ = run_csv(
            ["kernel", "--sigma", "2", "--ell", "2", "--kappa", "2", "--q", "0.5"],
            tmp_path / "k.csv",
        )
        assert meta["config.command"] == "kernel"
        assert float(meta["config.sigma"]) == 2.0
        assert float(meta["config.q"]) == 0.5
        assert "config.version" in meta
        assert float(meta["diagnostics.duration_s"]) >= 0.0

    def test_csv_floats_roundtrip_against_json(self, tmp_path):
        args = ["kernel", "--sigma", "2", "--ell", "4", "--kappa", "3", "--q", "0.3"]
        _, _, header, rows = run_csv(args, tmp_path / "k.csv")
        _, doc = run_json(args, tmp_path / "k.json")
        for row, jrow in zip(rows, doc["results"]):
            for name, text in zip(header, row):
                if name.startswith("c"):
                    assert float(text) == jrow[name]


    def test_prints_the_band_scattered(self, tmp_path):
        """Every printed entry is the band's value bit for bit, and the
        entries outside the band print as 0.  Rows are log-concave, so the
        entries next to the band, which are below BAND_FLOOR, bound all of
        those further out."""
        ell = 300
        params = ModelParams(sigma=4.0, ell=ell, kappa=2, q=LN2 / ell)
        args = ["kernel", "--sigma", "4", "--ell", str(ell), "--q", repr(params.q)]
        code, _, header, rows = run_csv(args, tmp_path / "k.csv")
        assert code == 0
        cols = [header.index(f"c{c}") for c in range(ell + 1)]
        printed = np.array([[float(row[j]) for j in cols] for row in rows])
        band = kernel_band(params)
        width = band.values.shape[1]
        assert width < ell + 1
        assert np.array_equal(printed, band.block(0, band.n, 0, band.n))
        for b, c0 in enumerate(band.offsets.tolist()):
            assert not printed[b, :c0].any() and not printed[b, c0 + width :].any()
            for c in (c0 - 1, c0 + width):
                if 0 <= c <= ell:
                    assert lumped_kernel_entry(b, c, params) < BAND_FLOOR


class TestArgumentHandling:
    def test_q_and_a_mutually_exclusive(self, capsys):
        code = main(["perron", "--sigma", "2", "--ell", "10", "--q", "0.1", "--a", "0.5"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_q_or_a_required(self, capsys):
        code = main(["perron", "--sigma", "2", "--ell", "10"])
        assert code == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_missing_required_option(self, capsys):
        code = main(["perron", "--ell", "10", "--q", "0.1"])
        assert code == 2
        assert "--sigma" in capsys.readouterr().err

    def test_invalid_params_rejected(self, capsys):
        code = main(["kernel", "--sigma", "0.2", "--ell", "4", "--q", "0.1"])
        assert code == 2
        assert "sigma" in capsys.readouterr().err

    def test_a_is_translated_to_q(self, tmp_path):
        _, meta, _, _ = run_csv(
            ["kernel", "--sigma", "2", "--ell", "100", "--a", str(LN2)],
            tmp_path / "k.csv",
        )
        assert float(meta["config.q"]) == pytest.approx(LN2 / 100, rel=1e-15)
        assert float(meta["config.a"]) == pytest.approx(LN2, rel=1e-15)

    def test_bad_z0_spec(self, capsys):
        code = main(
            ["simulate", "--sigma", "2", "--ell", "4", "--q", "0.1", "--z0", "9:5"]
        )
        assert code == 2
        assert "z0" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["quasispecies", "--sigma", "1.5", "--a", "2", "--kmax", "-3"],
        ["perron", "--sigma", "4", "--a", "0.69", "--ell", "50", "--k-report", "-3"],
        ["converge", "--sigma", "4", "--a", "0.69", "--ell-grid", "100,200", "--k-report", "-1"],
        ["extinction", "--sigma", "2", "--ell", "2", "--q", "0.1", "--mc", "10",
         "--escape-cap", "0"],
        ["extinction", "--sigma", "2", "--ell", "2", "--q", "0.1", "--mc", "10",
         "--n-gens", "-3"],
        ["simulate", "--sigma", "2", "--ell", "2", "--q", "0.1", "--pop-cap", "0"],
        ["extinction", "--sigma", "2", "--ell", "5", "--q", "0.1", "--mc", "-5"],
        ["extinction", "--sigma", "2", "--ell", "2", "--q", "0.1", "--mc", "10", "--seed", "-4"],
        ["simulate", "--sigma", "2", "--ell", "2", "--q", "0.1", "--seed", "-4"],
    ], ids=["kmax", "perron-k-report", "converge-k-report", "escape-cap", "n-gens", "pop-cap",
            "mc", "extinction-seed", "simulate-seed"])
    def test_out_of_range_count_is_a_usage_error(self, capsys, args):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert re.search(args[-2][2:].replace("-", "[-_]") + " must be >= ", captured.err)

    CAPPED = {
        "pop-cap": ["simulate", "--sigma", "2", "--ell", "2", "--q", "0.1"],
        "escape-cap": ["extinction", "--sigma", "2", "--ell", "2", "--q", "0.1", "--mc", "10"],
    }

    @pytest.mark.parametrize("value", ["1e400", "inf", "1.5"])
    @pytest.mark.parametrize("option", ["pop-cap", "escape-cap"])
    def test_cap_that_is_no_integer_is_a_usage_error(self, tmp_path, capsys, option, value):
        """As a flag it exits 2 naming the option; from a config file, main returns 2."""
        args = self.CAPPED[option]
        with pytest.raises(SystemExit) as exited:
            main([*args, f"--{option}", value])
        assert exited.value.code == 2
        assert f"--{option}" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option.replace('-', '_')}={value}\n")
        assert main([*args, "--config", str(cfg)]) == 2
        assert option.replace("-", "_") in capsys.readouterr().err

    @pytest.mark.parametrize("value,echo", [("12345678901234567891", "12345678901234567891"),
                                            ("1e6", "1000000")])
    def test_cap_is_echoed_exactly(self, tmp_path, value, echo):
        code, meta, _, _ = run_csv([*self.CAPPED["pop-cap"], "--pop-cap", value],
                                   tmp_path / "s.csv")
        assert code == 0
        assert meta["config.pop_cap"] == echo


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma=4\nell=50\na=0.6931471805599453\nunused_key=1\n")
        code, meta, _, _ = run_csv(
            ["perron", "--config", str(cfg), "--sigma", "2"], tmp_path / "p.csv"
        )
        assert code == 0
        assert float(meta["config.sigma"]) == 2.0  # flag beats file
        assert int(meta["config.ell"]) == 50
        assert "unused_key" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma 4\n")
        code = main(["perron", "--config", str(cfg), "--ell", "10", "--q", "0.1"])
        assert code == 2
        assert "key=value" in capsys.readouterr().err


class TestPerronCommand:
    def test_identity_gap_and_bounds(self, tmp_path):
        code, doc = run_json(
            ["perron", "--sigma", "4", "--ell", "100", "--kappa", "2", "--a", str(LN2)],
            tmp_path / "p.json",
        )
        assert code == 0
        assert set(doc) == {"config", "results", "diagnostics"}
        d = doc["diagnostics"]
        assert 1.0 < d["lambda"] < 4.0
        assert d["identity_gap"] < 1e-8
        assert d["bounds_ok"] is True
        assert d["lambda_in_range"] is True
        rho = [row["rho"] for row in doc["results"]]
        assert len(rho) == 11
        assert all(v > 0 for v in rho)

    @pytest.mark.parametrize("args", [
        ["perron", "--sigma", "4", "--ell", "200", "--a", str(LN2)],
        ["converge", "--sigma", "4", "--a", str(LN2), "--ell-grid", "50,200"],
    ])
    def test_solves_on_the_band_alone(self, tmp_path, monkeypatch, args):
        calls = []
        for module in (quasigw.cli, quasigw.spectral):
            for name in ("lumped_kernel_matrix", "mean_matrix"):
                def counting(*a, _fn=getattr(module, name), _name=name, **kw):
                    calls.append(_name)
                    return _fn(*a, **kw)

                monkeypatch.setattr(module, name, counting)
        code, _, _, rows = run_csv(args, tmp_path / "out.csv")
        assert code == 0 and rows
        assert calls == []

    def test_closed_form_path_builds_no_band(self, tmp_path, monkeypatch):
        """At ell = 5000, lambda and rho come from the closed form, and
        bounds_ok from the kernel rows that reach classes 0..10: no band."""
        def no_band(*args, **kwargs):
            raise AssertionError("built a kernel band")

        for module in (quasigw.cli, quasigw.kernel):
            monkeypatch.setattr(module, "kernel_band", no_band)
        monkeypatch.setattr(quasigw.kernel.KernelBand, "__post_init__", no_band)
        code, meta, _, rows = run_csv(["perron", "--sigma", "4", "--ell", "5000", "--a", str(LN2)],
                                      tmp_path / "p.csv")
        assert code == 0 and len(rows) == 11
        assert meta["diagnostics.method"] == "closed form"
        assert meta["diagnostics.bounds_ok"] == "true"

    def test_lambda_in_range_where_lambda_rounds_to_one(self, tmp_path):
        """At kappa = 2, q = 0.5, ell = 600, lambda - 1 = rho_0 = 2^-600 is far
        below the spacing of floats at 1, so lambda prints as 1; it still lies
        in (1, sigma), as rho_0 in (0, 1) says."""
        code, meta, _, _ = run_csv(["perron", "--sigma", "2", "--ell", "600", "--q", "0.5"],
                                   tmp_path / "p.csv")
        assert code == 0
        assert float(meta["diagnostics.lambda"]) == 1.0
        assert meta["diagnostics.lambda_in_range"] == "true"

    @pytest.mark.parametrize("args,column", [
        (["perron", "--sigma", "1.00001", "--ell", "5", "--kappa", "4", "--q", "3e-6"], "rho"),
        (["converge", "--sigma", "1.00001", "--a", "1.5e-5", "--kappa", "4", "--ell-grid", "5,10"],
         "rho2"),
    ])
    def test_band_solve_where_the_series_is_too_slow(self, tmp_path, args, column):
        """sigma and q near 1 and 0: the closed-form series of the classes
        k >= 1 falls by a factor of about 1 - 1e-5 per term and gives up past
        its term budget, so these lengths are solved on the band."""
        code, meta, header, rows = run_csv(args, tmp_path / "out.csv")
        assert code == 0
        values = [float(r[header.index(column)]) for r in rows]
        if args[0] == "perron":
            assert meta["diagnostics.method"] == "secular Newton"
            assert meta["diagnostics.bounds_ok"] == "true"
            pair = quasigw.spectral.perron(ModelParams(sigma=1.00001, ell=5, kappa=4, q=3e-6))
            assert float(meta["diagnostics.lambda"]) == pair.lam
            np.testing.assert_allclose(values, pair.rho, rtol=1e-12)
        else:
            assert [r[header.index("method")] for r in rows] == ["secular Newton"] * 2
            assert all(0.0 < v < 1.0 for v in values)

    @pytest.mark.parametrize("sigma,ell,kappa,q", [(1.0001, 20, 2, 0.99999),
                                                   (1.00001, 5, 4, 3e-6)])
    def test_band_solve_matches_mpmath(self, tmp_path, sigma, ell, kappa, q):
        """Where the series is too slow, the printed rho_0..rho_K are within
        1e-8 relative of W's Perron vector from 50-digit mpmath, and lambda
        within 2 ulps: the band solve gives rho to about 1e-9 there, not to
        the head's 1e-16 (1.7e-9 and 2.1e-11 relative in rho_0 here)."""
        mpmath = pytest.importorskip("mpmath")
        code, meta, header, rows = run_csv(
            ["perron", "--sigma", str(sigma), "--ell", str(ell), "--kappa", str(kappa),
             "--q", str(q)], tmp_path / "p.csv")
        assert code == 0 and meta["diagnostics.method"] == "secular Newton"
        rho = np.array([float(r[header.index("rho")]) for r in rows])
        with mpmath.workdps(50):
            q_mp = mpmath.mpf(q)

            def pmf(n, k, p):
                return mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k)

            w = mpmath.matrix(ell + 1, ell + 1)
            for b in range(ell + 1):   # b + G - L, G ~ Bin(ell - b, q), L ~ Bin(b, q / (kappa - 1))
                for g in range(ell - b + 1):
                    for back in range(b + 1):
                        w[b, b + g - back] += (pmf(ell - b, g, q_mp)
                                               * pmf(b, back, q_mp / (kappa - 1)))
            for c in range(ell + 1):
                w[0, c] *= mpmath.mpf(sigma)
            values, vectors = mpmath.eig(w.T)
            top = max(range(ell + 1), key=lambda i: mpmath.re(values[i]))
            v = [mpmath.re(vectors[i, top]) for i in range(ell + 1)]
            lam = float(mpmath.re(values[top]))
            ref = np.array([float(x / sum(v)) for x in v[: rho.size]])
        np.testing.assert_allclose(rho, ref, rtol=1e-8, atol=0.0)
        assert abs(float(meta["diagnostics.lambda"]) - lam) <= 2 * math.ulp(lam)

    def test_band_solve_builds_one_band(self, tmp_path, monkeypatch):
        """Where the series is too slow, only the band solve builds a band:
        the bounds check builds none of its own."""
        bands = []

        def counting_band(params, _build=quasigw.kernel.kernel_band):
            bands.append(params)
            return _build(params)

        for module in (quasigw.cli, quasigw.kernel):
            monkeypatch.setattr(module, "kernel_band", counting_band)
        code, meta, _, _ = run_csv(
            ["perron", "--sigma", "1.00001", "--ell", "5", "--kappa", "4", "--q", "3e-6"],
            tmp_path / "p.csv")
        assert code == 0 and meta["diagnostics.method"] == "secular Newton"
        assert meta["diagnostics.bounds_ok"] == "true"
        assert len(bands) == 1

    @pytest.mark.parametrize("command", ["perron", "converge"])
    def test_zero_tolerance_ends_on_a_two_cycle(self, tmp_path, command):
        """--tol 0: the lambda solve ends where t returns to the iterate
        before it (two neighbouring long doubles), not after 100 steps."""
        grid = ["--ell", "100"] if command == "perron" else ["--ell-grid", "100,200"]
        code, meta, _, rows = run_csv(
            [command, "--sigma", "4", "--a", str(LN2), *grid, "--tol", "0"], tmp_path / "p.csv")
        assert code == 0 and rows
        if command == "perron":
            assert int(meta["diagnostics.iterations"]) <= 6

    def test_nonconvergence_exit_code(self, capsys):
        """The lambda solve needs 4 steps here; a budget of 2 runs out."""
        code = main(
            ["perron", "--sigma", "3", "--ell", "30", "--q", "0.8", "--max-iter", "2"]
        )
        assert code == 2
        assert "closed-form perron solve did not converge in 2 steps" in capsys.readouterr().err.lower()


class TestQuasispeciesCommand:
    def test_table_matches_module_values(self, tmp_path):
        code, _, header, rows = run_csv(
            ["quasispecies", "--sigma", "4", "--a", str(LN2), "--kmax", "2"],
            tmp_path / "q.csv",
        )
        assert code == 0
        assert header == ["k", "closed_form", "recurrence", "abs_diff", "running_sum"]
        closed = [float(r[1]) for r in rows]
        assert closed[0] == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert closed[1] == pytest.approx(LN2 * 4.0 / 9.0, rel=1e-13)
        assert max(float(r[3]) for r in rows) < 1e-10

    def test_builds_the_eulerian_triangle_twice(self, tmp_path, monkeypatch):
        """One pass for qs_pmf's column and one for the normalization check's
        partial sum and both tail bounds."""
        calls = []
        series = quasigw.quasispecies._log_power_series

        def counted(n, log_base):
            calls.append(n)
            return series(n, log_base)

        monkeypatch.setattr(quasigw.quasispecies, "_log_power_series", counted)
        code, _, _, _ = run_csv(["quasispecies", "--sigma", "4", "--a", str(LN2), "--kmax", "30"],
                                tmp_path / "q.csv")
        assert code == 0
        assert len(calls) == 2

    def test_disordered_regime_notice_and_zero_rows(self, tmp_path, capsys):
        code, meta, _, rows = run_csv(
            ["quasispecies", "--sigma", "2", "--a", str(LN2), "--kmax", "5"],
            tmp_path / "q.csv",
        )
        assert code == 0
        assert meta["diagnostics.regime"] == "disordered"
        assert "disordered" in capsys.readouterr().err
        assert all(float(r[1]) == 0.0 for r in rows)


class TestConvergeCommand:
    def test_gaps_shrink_down_the_grid(self, tmp_path):
        code, _, header, rows = run_csv(
            [
                "converge", "--sigma", "4", "--a", str(LN2),
                "--ell-grid", "50,100,200", "--k-report", "3",
            ],
            tmp_path / "c.csv",
        )
        assert code == 0
        lam_gap = [float(r[header.index("lambda_gap")]) for r in rows]
        assert lam_gap[2] < lam_gap[1] < lam_gap[0]
        for k in range(4):
            gaps = [float(r[header.index(f"gap{k}")]) for r in rows]
            assert gaps[2] < gaps[0]

    def test_reports_method_and_steps_per_length(self, tmp_path):
        """sigma e^-a = 0.5: each length is solved in closed form, in a few
        steps of the lambda solve on the spectral expansion of x_0, also at
        ell = 100 where lambda - 1 is 1.2e-30."""
        code, meta, header, rows = run_csv(
            ["converge", "--sigma", "2", "--a", "1.386", "--ell-grid", "10,100"],
            tmp_path / "c.csv",
        )
        assert code == 0
        assert "diagnostics.method" not in meta
        methods = [r[header.index("method")] for r in rows]
        assert methods == ["closed form", "closed form"]
        steps = [int(r[header.index("iterations")]) for r in rows]
        assert steps == [5, 3]

    def test_a_zero_grid_is_exact(self, tmp_path):
        code, _, header, rows = run_csv(
            ["converge", "--sigma", "3", "--a", "0", "--ell-grid", "10,20", "--k-report", "2"],
            tmp_path / "c.csv",
        )
        assert code == 0
        for r in rows:
            assert float(r[header.index("lambda_gap")]) < 1e-9
            for k in range(3):
                assert float(r[header.index(f"gap{k}")]) < 1e-9


class TestSimulateCommand:
    def test_trajectory_records_generations(self, tmp_path):
        code, meta, header, rows = run_csv(
            [
                "simulate", "--sigma", "4", "--ell", "5", "--q", "0.05",
                "--z0", "0:50", "--n-gens", "6", "--seed", "1",
            ],
            tmp_path / "s.csv",
        )
        assert code == 0
        assert header[:3] == ["generation", "total", "extinct"]
        assert len(rows) <= 7
        assert rows[0][0] == "0" and rows[0][1] == "50"

    def test_frequencies_mode(self, tmp_path):
        code, meta, header, rows = run_csv(
            [
                "simulate", "--sigma", "10", "--ell", "20", "--a", "0.2",
                "--mode", "frequencies", "--n-gens", "6", "--n-replicas", "20",
                "--seed", "3",
            ],
            tmp_path / "s.csv",
        )
        assert code == 0
        assert header == ["k", "mean_freq", "se"]
        assert int(meta["diagnostics.n_survivors"]) == 20
        assert int(meta["diagnostics.n_capped"]) == 0
        freqs = [float(r[1]) for r in rows]
        assert sum(freqs) == pytest.approx(1.0, abs=1e-12)

    def test_all_extinct_exit_code(self, capsys):
        code = main(
            [
                "simulate", "--sigma", "2", "--ell", "2", "--q", "0.1",
                "--mode", "frequencies", "--z0", "0:0", "--n-gens", "4",
            ]
        )
        assert code == 3
        assert "extinct" in capsys.readouterr().err

    def test_seed_reproducibility_modulo_duration(self, tmp_path):
        args = [
            "simulate", "--sigma", "4", "--ell", "10", "--q", "0.02",
            "--mode", "frequencies", "--n-gens", "5", "--n-replicas", "10",
            "--seed", "7",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        # identical up to the echoed output path and the wall-clock line
        strip = lambda p: [
            l for l in p.read_text().splitlines()
            if "duration_s" not in l and "config.out" not in l
        ]
        assert strip(out1) == strip(out2)


class TestExtinctionCommand:
    def test_fixed_point_with_mc_comparison(self, tmp_path):
        code, meta, header, rows = run_csv(
            [
                "extinction", "--sigma", "2", "--ell", "1", "--q", "0.1",
                "--mc", "4000", "--seed", "2", "--n-gens", "150",
            ],
            tmp_path / "e.csv",
        )
        assert code == 0
        assert header == ["k", "p_extinct", "mc_freq", "mc_se"]
        for r in rows:
            p_fp, p_mc, se = float(r[1]), float(r[2]), float(r[3])
            assert abs(p_fp - p_mc) < 4.0 * se

    def test_barely_supercritical_ends_at_the_step_floor(self, tmp_path):
        """lambda - 1 = 4.3e-5: the Newton steps stall at their rounding
        floor above --tol, and the solve stops there with exit 0, where it
        ran out of its 100 steps."""
        code, meta, _, rows = run_csv(
            ["extinction", "--sigma", "3.114", "--ell", "60", "--a", "1.1358980193121355"],
            tmp_path / "e.csv")
        assert code == 0 and len(rows) == 61
        assert meta["diagnostics.method"] == "extrapolated Newton, step floor"
        assert int(meta["diagnostics.newton_steps"]) <= 50
        assert float(meta["diagnostics.fixed_point_residual"]) <= 1e-12

    def test_critical_classes_solved_at_defaults(self, tmp_path):
        # at q = 0 classes k >= 1 never reach the master class: extinction is certain
        code, _, _, rows = run_csv(
            ["extinction", "--sigma", "2", "--ell", "2", "--q", "0"], tmp_path / "e.csv"
        )
        assert code == 0
        assert float(rows[0][1]) == pytest.approx(0.2031878699799799, abs=1e-12)
        assert [float(r[1]) for r in rows[1:]] == [1.0, 1.0]

    @pytest.mark.parametrize("args", [
        ["--sigma", "2", "--ell", "100", "--a", "0.69"],
        ["--sigma", "2", "--ell", "200", "--a", "0.1"],
    ])
    def test_near_threshold_at_defaults(self, tmp_path, args):
        code, meta, _, rows = run_csv(["extinction", *args], tmp_path / "e.csv")
        assert code == 0
        assert float(meta["diagnostics.fixed_point_residual"]) <= 1e-12
        assert all(0.0 < float(r[1]) <= 1.0 for r in rows)

    def test_solves_on_the_band_alone(self, tmp_path, monkeypatch):
        calls = []
        for module in (quasigw.cli, quasigw.spectral):
            for name in ("lumped_kernel_matrix", "mean_matrix"):
                def counting(*a, _fn=getattr(module, name), _name=name, **kw):
                    calls.append(_name)
                    return _fn(*a, **kw)

                monkeypatch.setattr(module, name, counting)
        code, meta, _, rows = run_csv(
            ["extinction", "--sigma", "2", "--ell", "200", "--a", "0.1"], tmp_path / "e.csv"
        )
        assert code == 0 and rows
        assert float(meta["diagnostics.fixed_point_residual"]) <= 1e-12
        assert calls == []

    def test_mc_builds_the_kernel_once(self, tmp_path, monkeypatch):
        """One band, built by the CLI: the solve and the sampler's dense mean
        matrix both take it."""
        builds, bands = [], []

        def counting(params, band=None, _build=quasigw.spectral.lumped_kernel_matrix):
            builds.append(params)
            return _build(params, band=band)

        def counting_band(params, _build=quasigw.kernel.kernel_band):
            bands.append(params)
            return _build(params)

        monkeypatch.setattr(quasigw.cli, "lumped_kernel_matrix", counting)
        monkeypatch.setattr(quasigw.spectral, "lumped_kernel_matrix", counting)
        for module in (quasigw.cli, quasigw.kernel):
            monkeypatch.setattr(module, "kernel_band", counting_band)
        code, _, header, _ = run_csv(
            ["extinction", "--sigma", "4", "--ell", "20", "--a", "0.6931",
             "--mc", "10", "--n-gens", "5"],
            tmp_path / "e.csv",
        )
        assert code == 0
        assert header == ["k", "p_extinct", "mc_freq", "mc_se"]
        assert len(builds) == 1
        assert len(bands) == 1

    def test_reports_newton_steps(self, tmp_path):
        code, meta, _, _ = run_csv(
            ["extinction", "--sigma", "2", "--ell", "200", "--a", "0.1"], tmp_path / "e.csv"
        )
        assert code == 0
        assert meta["diagnostics.method"] == "extrapolated Newton"
        assert int(meta["diagnostics.newton_steps"]) == 14
        assert 0 < int(meta["diagnostics.extrapolated_steps"]) < 14
        assert float(meta["diagnostics.fixed_point_residual"]) <= 1e-12

    def test_json_structure(self, tmp_path):
        code, doc = run_json(
            ["extinction", "--sigma", "3", "--ell", "2", "--q", "0.2"],
            tmp_path / "e.json",
        )
        assert code == 0
        assert [row["k"] for row in doc["results"]] == [0, 1, 2]
        assert all(0.0 < row["p_extinct"] < 1.0 for row in doc["results"])
        assert doc["config"]["command"] == "extinction"


def eager_parser():
    """The parser with every command's options added up front, written out
    apart from ``build_parser``: the oracle for main()'s help, version and
    usage-error output."""
    parser = argparse.ArgumentParser(prog="quasigw", description="sharp-peak quasispecies toolkit")
    parser.add_argument("--version", action="version", version=f"quasigw {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, table in quasigw.cli._TABLES.items():
        sub = subs.add_parser(command)
        for name, (conv, _default, help_text) in table.items():
            sub.add_argument("--" + name.replace("_", "-"), dest=name, type=conv, default=None,
                             help=help_text)
    return parser


def exit_output(parse, argv, capsys):
    """(exit status, stdout, stderr) of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as exited:
        parse(argv)
    captured = capsys.readouterr()
    return exited.value.code, captured.out, captured.err


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["--help"], ["--version"], [], ["bogus"], ["-5", "perron"],
        *([command, "--help"] for command in quasigw.cli._TABLES),
        ["perron", "--bogus", "3"], ["perron", "--ell"], ["perron", "--ell", "x"],
        ["converge", "--ell-grid", "a,b"], ["simulate", "--mode", "bad"],
        ["kernel", "--format", "xml"], ["perron", "-h", "--bogus"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_help_version_and_usage_errors_match_the_eager_parser(self, argv, capsys):
        assert exit_output(main, argv, capsys) == exit_output(eager_parser().parse_args, argv,
                                                              capsys)

    def test_main_builds_no_parser(self, monkeypatch, capsys, tmp_path):
        """main() parses with the parser built at import: ~200 calls of mixed
        commands, usage errors and help construct no ArgumentParser."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        out = ["--out", str(tmp_path / "out")]
        jobs = [
            ["kernel", "--sigma", "2", "--ell", "3", "--q", "0.1", *out],
            ["perron", "--sigma", "2", "--ell", "20", "--a", "0.5", "--k-report", "3", *out],
            ["quasispecies", "--sigma", "3", "--a", "0.5", "--kmax", "5", *out],
            ["converge", "--sigma", "3", "--a", "0.5", "--ell-grid", "20,40", "--format", "json",
             *out],
            ["simulate", "--sigma", "2", "--ell", "4", "--a", "0.5", "--n-gens", "3", *out],
            ["extinction", "--sigma", "2", "--ell", "4", "--a", "0.5", *out],
            ["perron", "--sigma", "2", "--ell", "10"],
        ]
        codes = [main(argv) for argv in jobs * 28]
        for argv in (["perron", "--ell", "x"], ["bogus"], ["perron", "--help"], ["--version"]):
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        assert codes == [0, 0, 0, 0, 0, 0, 2] * 28   # the last job lacks --q and --a
        assert built == []

    def test_calls_share_no_parse_state(self, tmp_path, capsys):
        """An option given in one call, or a usage error, does not carry over
        into the next call's parse: perron with no --k-report reports its
        default 11 classes."""
        out = tmp_path / "p.csv"
        args = ["perron", "--sigma", "2", "--ell", "20", "--a", "0.5"]
        code, _, _, rows = run_csv([*args, "--k-report", "3"], out)
        assert code == 0 and len(rows) == 4
        with pytest.raises(SystemExit):
            main([*args, "--k-report", "x"])
        capsys.readouterr()
        code, meta, _, rows = run_csv(args, out)
        assert code == 0
        assert meta["config.k_report"] == "10"
        assert [int(row[0]) for row in rows] == list(range(11))


class TestEntryPoints:
    def test_module_invocation(self):
        out = subprocess.run(
            [sys.executable, "-m", "quasigw", "--version"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert out.stdout.strip().startswith("quasigw ")

    def test_cli_import_leaves_scipy_stats_out(self):
        src = str(Path(quasigw.cli.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, quasigw.cli; print('scipy.stats' in sys.modules, "
             "'scipy.sparse' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0
        assert out.stdout.split() == ["False", "False"]

    def test_cli_import_loads_no_scipy(self):
        """The binomial pmfs are numpy's own, so start-up imports no scipy
        module at all (scipy.special alone took ~0.3 s of it)."""
        src = str(Path(quasigw.cli.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, quasigw.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "[]"

    def test_stdout_default(self, capsys):
        code = main(["kernel", "--sigma", "2", "--ell", "1", "--kappa", "2", "--q", "0.25"])
        assert code == 0
        body = capsys.readouterr().out
        assert "b,c0,c1" in body


def oracle_fmt(v) -> str:
    """CSV spelling of one value, as the row-dict renderer spelled it."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (list, tuple)):
        return ";".join(oracle_fmt(x) for x in v)
    return str(v)


def oracle_jsonable(v):
    if isinstance(v, (np.ndarray, list, tuple)):
        return [oracle_jsonable(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def oracle_render(config, table, diagnostics, fmt):
    """Render through one dict per row, value by value: the renderer the
    column-wise one replaces, kept as its byte-for-byte oracle."""
    columns = list(table)
    rows = [dict(zip(columns, values)) for values in zip(*(table[c].tolist() for c in columns))]
    if fmt == "csv":
        lines = [f"# config.{k}={oracle_fmt(config[k])}" for k in sorted(config)]
        lines += [f"# diagnostics.{k}={oracle_fmt(diagnostics[k])}" for k in sorted(diagnostics)]
        lines.append(",".join(columns))
        lines += [",".join(oracle_fmt(row[c]) for c in columns) for row in rows]
        return "\n".join(lines) + "\n"
    obj = {
        "config": {k: oracle_jsonable(v) for k, v in config.items()},
        "results": [{c: oracle_jsonable(r[c]) for c in columns} for r in rows],
        "diagnostics": {k: oracle_jsonable(v) for k, v in diagnostics.items()},
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def oracle_output(argv):
    """The command's table and diagnostics, rendered by the oracle, with duration_s = 0."""
    args = quasigw.cli.build_parser().parse_args(argv)
    resolved = quasigw.cli._resolve(args, quasigw.cli._TABLES[args.command])
    table, diagnostics = quasigw.cli._COMMANDS[args.command](resolved)
    diagnostics["duration_s"] = 0.0
    config = {"command": args.command, "version": __version__}
    config.update({k: v for k, v in resolved.items() if v is not None})
    return oracle_render(config, table, diagnostics, resolved["format"])


def mask_duration(text):
    return re.sub(r'(duration_s"?(=|: ))[-+.0-9eE]+', r"\1X", text)


INT_COLUMNS = re.compile(r"(b|k|generation|total|ell|iterations|count\d+)$")
BYTE_CASES = {
    "kernel": ["kernel", "--sigma", "2", "--ell", "12", "--kappa", "3", "--q", "0.3"],
    # kappa = 2: exact zeros past the band, and M(ell-b, ell-c) = M(b, c) repeats each value
    "kernel-kappa2": ["kernel", "--sigma", "4", "--ell", "100", "--a", str(LN2)],
    "perron": ["perron", "--sigma", "4", "--ell", "100", "--a", str(LN2)],
    "quasispecies": ["quasispecies", "--sigma", "4", "--a", str(LN2), "--kmax", "12"],
    "quasispecies-disordered": ["quasispecies", "--sigma", "1.5", "--a", "2", "--kmax", "4"],
    "converge": ["converge", "--sigma", "4", "--a", str(LN2), "--ell-grid", "100,200"],
    "trajectory": ["simulate", "--sigma", "1", "--ell", "5", "--q", "0.5", "--z0", "3:1",
                   "--n-gens", "30", "--seed", "1"],
    "frequencies": ["simulate", "--sigma", "4", "--ell", "10", "--a", str(LN2),
                    "--mode", "frequencies", "--n-replicas", "1", "--seed", "2"],
    "extinction": ["extinction", "--sigma", "3", "--ell", "6", "--a", "0.5", "--mc", "30",
                   "--n-gens", "20", "--seed", "4"],
}


class TestOutputBytes:
    """Column-wise rendering prints the bytes the row-dict renderer printed."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", sorted(BYTE_CASES))
    def test_matches_row_dict_renderer(self, tmp_path, case, fmt):
        argv = [*BYTE_CASES[case], "--format", fmt, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        text = (tmp_path / "out").read_text()
        assert mask_duration(text) == mask_duration(oracle_output(argv))

    def test_cases_cover_nan_bool_str_and_list_values(self, tmp_path):
        out = tmp_path / "out"
        main([*BYTE_CASES["frequencies"], "--out", str(out)])
        assert ",nan\n" in out.read_text()
        main([*BYTE_CASES["frequencies"], "--format", "json", "--out", str(out)])
        assert '"se": NaN' in out.read_text()
        main([*BYTE_CASES["trajectory"], "--out", str(out)])
        assert ",true," in out.read_text() and ",false," in out.read_text()
        main([*BYTE_CASES["converge"], "--out", str(out)])
        assert "# config.ell_grid=100;200\n" in out.read_text()
        assert ",closed form," in out.read_text()
        main([*BYTE_CASES["kernel-kappa2"], "--out", str(out)])
        m = np.loadtxt(out, delimiter=",", skiprows=1 + out.read_text().count("#"))[:, 1:-1]
        assert (m == 0).sum() > 0 and np.array_equal(m, m[::-1, ::-1])

    @pytest.mark.parametrize("case", sorted(BYTE_CASES))
    def test_column_types(self, tmp_path, case):
        """Each column keeps the JSON type its values had: int counts and
        indices, bool extinct, str method, float otherwise."""
        _, doc = run_json(BYTE_CASES[case], tmp_path / "out.json")
        for row in doc["results"]:
            for name, value in row.items():
                want = (bool if name == "extinct" else str if name == "method"
                        else int if INT_COLUMNS.match(name) else float)
                assert type(value) is want, (name, value)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table_matches_row_dict_renderer(self, fmt):
        table = {"k": np.arange(0), "x": np.zeros(0), "flag": np.zeros(0, dtype=bool)}
        config, diagnostics = {"command": "x", "kmax": 0}, {"regime": "disordered"}
        render = render_csv if fmt == "csv" else render_json
        text = render(config, table, diagnostics)
        assert text == oracle_render(config, table, diagnostics, fmt)
        assert text.endswith("k,x,flag\n" if fmt == "csv" else '"results": []\n}\n')

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_signed_zero_infinities_and_escapes(self, fmt):
        table = {
            "k": np.arange(6),
            "x%d": np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1]),
            "y": np.array([0.0, -0.0, np.nan, np.inf, -0.0, -np.nan]),  # repeats in x%d's block
            "flag": np.array([True, False, True, False, True, False]),
            "name": np.array(["a", "b%s", 'q"', "\u00e9", "tab\t", ""]),
            "big": np.array([0, -1, 2**62, 7, 8, 9]),
        }
        config = {"command": "x", "ell_grid": [1, 2], "z": -0.0}
        diagnostics = {"nan": math.nan, "inf": -math.inf, "ok": True}
        render = render_csv if fmt == "csv" else render_json
        # 12 float entries are spelled one by one; 12,000 go through the sort by bit pattern
        for repeat in (1, 1000):
            tiled = {name: np.tile(a, repeat) for name, a in table.items()}
            text = render(config, tiled, diagnostics)
            assert text == oracle_render(config, tiled, diagnostics, fmt)
            if fmt == "csv":
                assert [line.split(",")[1] for line in text.splitlines()[-6:]] == [
                    "-0", "inf", "-inf", "nan", "4.9406564584124654e-324", "0.10000000000000001"]
                assert [line.split(",")[2] for line in text.splitlines()[-6:]] == [
                    "0", "-0", "nan", "inf", "-0", "nan"]
            else:
                for spelled in ("-0.0", "Infinity", "-Infinity", "NaN", "5e-324", "0.1"):
                    assert f'"x%d": {spelled},\n' in text
                assert [text.count(f'"y": {spelled}\n') for spelled in ("0.0", "-0.0", "NaN")] == [
                    repeat, 2 * repeat, 2 * repeat]
