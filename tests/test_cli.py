"""End-to-end tests of the command-line interface.

Each test drives main() in-process with --out to a temp file, then parses
the emitted CSV or JSON.  stderr notices are checked through capsys.
"""

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
import quasigw.spectral
from quasigw import __version__
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
    ], ids=["kmax", "perron-k-report", "converge-k-report", "escape-cap", "n-gens"])
    def test_out_of_range_count_is_a_usage_error(self, capsys, args):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert re.search(args[-2][2:].replace("-", "[-_]") + " must be >= ", captured.err)


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

    def test_nonconvergence_exit_code(self, capsys):
        code = main(
            ["perron", "--sigma", "3", "--ell", "30", "--q", "0.8", "--max-iter", "2"]
        )
        assert code == 2
        assert "converge" in capsys.readouterr().err.lower()


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
        """sigma e^-a = 0.5: only the longer length needs the stationary limit."""
        code, meta, header, rows = run_csv(
            ["converge", "--sigma", "2", "--a", "1.386", "--ell-grid", "10,100"],
            tmp_path / "c.csv",
        )
        assert code == 0
        assert "diagnostics.method" not in meta
        methods = [r[header.index("method")] for r in rows]
        assert methods == ["secular Newton", "secular Newton (stationary limit)"]
        steps = [int(r[header.index("iterations")]) for r in rows]
        assert steps[0] >= 1 and steps[1] > steps[0]

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

    def test_mc_builds_the_kernel_once(self, tmp_path, monkeypatch):
        builds = []

        def counting(params, _build=quasigw.spectral.lumped_kernel_matrix):
            builds.append(params)
            return _build(params)

        monkeypatch.setattr(quasigw.cli, "lumped_kernel_matrix", counting)
        monkeypatch.setattr(quasigw.spectral, "lumped_kernel_matrix", counting)
        code, _, header, _ = run_csv(
            ["extinction", "--sigma", "4", "--ell", "20", "--a", "0.6931",
             "--mc", "10", "--n-gens", "5"],
            tmp_path / "e.csv",
        )
        assert code == 0
        assert header == ["k", "p_extinct", "mc_freq", "mc_se"]
        assert len(builds) == 1

    def test_json_structure(self, tmp_path):
        code, doc = run_json(
            ["extinction", "--sigma", "3", "--ell", "2", "--q", "0.2"],
            tmp_path / "e.json",
        )
        assert code == 0
        assert [row["k"] for row in doc["results"]] == [0, 1, 2]
        assert all(0.0 < row["p_extinct"] < 1.0 for row in doc["results"])
        assert doc["config"]["command"] == "extinction"


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
             "import sys, quasigw.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "False"

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
    table, diagnostics, _ = quasigw.cli._COMMANDS[args.command](resolved)
    diagnostics["duration_s"] = 0.0
    config = {"command": args.command, "version": __version__}
    config.update({k: v for k, v in resolved.items() if v is not None})
    return oracle_render(config, table, diagnostics, resolved["format"])


def mask_duration(text):
    return re.sub(r'(duration_s"?(=|: ))[-+.0-9eE]+', r"\1X", text)


INT_COLUMNS = re.compile(r"(b|k|generation|total|ell|iterations|count\d+)$")
BYTE_CASES = {
    "kernel": ["kernel", "--sigma", "2", "--ell", "12", "--kappa", "3", "--q", "0.3"],
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
        assert ",secular Newton," in out.read_text()

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
            "flag": np.array([True, False, True, False, True, False]),
            "name": np.array(["a", "b%s", 'q"', "\u00e9", "tab\t", ""]),
            "big": np.array([0, -1, 2**62, 7, 8, 9]),
        }
        config = {"command": "x", "ell_grid": [1, 2], "z": -0.0}
        diagnostics = {"nan": math.nan, "inf": -math.inf, "ok": True}
        render = render_csv if fmt == "csv" else render_json
        text = render(config, table, diagnostics)
        assert text == oracle_render(config, table, diagnostics, fmt)
        if fmt == "csv":
            assert [line.split(",")[1] for line in text.splitlines()[-6:]] == [
                "-0", "inf", "-inf", "nan", "4.9406564584124654e-324", "0.10000000000000001"]
        else:
            for spelled in ("-0.0", "Infinity", "-Infinity", "NaN", "5e-324", "0.1"):
                assert f'"x%d": {spelled}\n' in text
