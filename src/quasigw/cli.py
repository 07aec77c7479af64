"""Command line front end.

Subcommands::

    kernel        class transition matrix with row-sum diagnostics
    perron        growth factor and class profile of the mean matrix
    quasispecies  limiting class distribution (closed form vs recurrence)
    converge      finite-length profiles against the limiting distribution
    simulate      class-count trajectories / survivor-averaged frequencies
    extinction    per-class extinction probabilities, optionally vs Monte Carlo

Options may also come from a flat ``key=value`` config file (``--config``);
explicit flags win.  Output goes to stdout or ``--out`` as CSV (metadata in
leading ``#`` comment lines, floats with 17 significant digits) or JSON
(``{"config": ..., "results": ..., "diagnostics": ...}``).  For a fixed
config and seed the output is byte-identical across runs on one platform,
except for the recorded wall-clock duration.

Each command returns its results as a table: a dict from column name to a
1-D array, one dtype per column.  The renderers spell the floats of a
block of adjacent float columns by one ``%`` call, each distinct value
once when the block is large, and format each row of the table with one
``%`` call from those strings and the other columns' values.  Every value comes out as ``_fmt``
(CSV) or ``json.dumps`` (JSON) spells it, so the bytes match rendering
value by value; config and diagnostics go through ``_fmt`` and
``json.dumps``.

``main(argv)`` may be called any number of times in one process: it parses
with one parser, built once at import, which a parse leaves unchanged.

Exit status: 0 on success (including a disordered-regime notice), 2 on bad
usage or non-convergence, 3 when every simulation replica went extinct.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from . import __version__
from .kernel import ModelParams, kernel_band, lumped_kernel_matrix
from .quasispecies import (
    QuasispeciesParams,
    Regime,
    classify_regime,
    qs_normalization_check,
    qs_pmf,
    qs_pmf_by_recurrence,
)
from .simulate import (
    AllExtinctError,
    ResourceLimitError,
    RngSpec,
    conditioned_frequencies,
    extinction_mc,
    run_trajectory,
)
from .spectral import (
    ConvergenceError,
    SlowSeriesError,
    extinction_probabilities,
    fitness_vector,
    mean_matrix,
    perron,  # _perron_head's band solve; the benchmark's tracer wraps this name
    perron_bounds_check,
    perron_head,
)

_REQUIRED = object()


def _choice(*options):
    def conv(s):
        if s not in options:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(options)}")
        return s

    return conv


def _int_list(s):
    try:
        return [int(x) for x in s.split(",") if x.strip()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {s!r}") from e


def _big_int(s):
    """An integer, spelled exactly or as a finite integral float such as 1e6."""
    try:
        return int(s)
    except ValueError:
        pass
    try:
        x = float(s)
    except ValueError:
        x = math.nan
    if not x.is_integer():
        raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}")
    return int(x)


_OUT_OPTS = {
    "out": (str, None, "write output to this path instead of stdout"),
    "format": (_choice("csv", "json"), "csv", "output format (csv or json)"),
    "config": (str, None, "flat key=value config file; explicit flags override it"),
}

_MODEL_OPTS = {
    "sigma": (float, _REQUIRED, "master-class fitness, >= 1"),
    "ell": (int, _REQUIRED, "sequence length"),
    "kappa": (int, 2, "alphabet size, >= 2"),
    "q": (float, None, "per-locus mutation probability (exclusive with --a)"),
    "a": (float, None, "mutation pressure; sets q = a / ell (exclusive with --q)"),
}

_TABLES = {
    "kernel": {**_MODEL_OPTS, **_OUT_OPTS},
    "perron": {
        **_MODEL_OPTS,
        "tol": (float, 1e-12, "tolerance of the closed-form lambda solve: bound on its last "
                              "Newton step in log(lambda - 1), relative in lambda - 1 (and "
                              "of the band solve, where the closed form's series is too slow)"),
        "max_iter": (int, 100, "step budget of the closed-form lambda solve (or of the band "
                               "solve, in banded eliminations)"),
        "k_report": (int, 10, "report classes 0..k_report"),
        **_OUT_OPTS,
    },
    "quasispecies": {
        "sigma": (float, _REQUIRED, "master-class fitness, > 1"),
        "a": (float, _REQUIRED, "mutation pressure"),
        "kmax": (int, 30, "evaluate classes 0..kmax"),
        **_OUT_OPTS,
    },
    "converge": {
        "sigma": (float, _REQUIRED, "master-class fitness, > 1"),
        "a": (float, _REQUIRED, "mutation pressure; per length q = a / ell"),
        "kappa": (int, 2, "alphabet size, >= 2"),
        "ell_grid": (_int_list, _REQUIRED, "comma-separated sequence lengths"),
        "k_report": (int, 5, "compare classes 0..k_report"),
        "tol": (float, 1e-12, "tolerance of the closed-form lambda solve per length: bound "
                              "on its last Newton step in log(lambda - 1) (and of the band "
                              "solve, where the closed form's series is too slow)"),
        "max_iter": (int, 100, "step budget of the closed-form lambda solve per length (or "
                               "of the band solve, in banded eliminations)"),
        **_OUT_OPTS,
    },
    "simulate": {
        **_MODEL_OPTS,
        "mode": (_choice("trajectory", "frequencies"), "trajectory",
                 "single trajectory or survivor-averaged frequencies"),
        "z0": (str, "0:100", "initial counts as class:count[,class:count...]"),
        "n_gens": (int, 12, "generations to run"),
        "n_replicas": (int, 200, "replicas (frequencies mode)"),
        "pop_cap": (_big_int, 10**12, "stop a run once the population exceeds this, >= 1"),
        "seed": (int, 0, "master seed, >= 0"),
        **_OUT_OPTS,
    },
    "extinction": {
        **_MODEL_OPTS,
        "tol": (float, 1e-12, "Newton tolerance on the survival probabilities (absolute, "
                              "on both the last step and the residual); survival "
                              "probabilities are accurate to about tol in absolute terms, "
                              "so one below tol is not resolved (at sigma=4, ell=200, "
                              "a=ln 2 the far classes report p_extinct = 1, where a fit "
                              "gives a survival probability of ~7e-31)"),
        "max_iter": (int, 100, "Newton step budget"),
        "mc": (int, 0, "Monte Carlo replicas per starting class, >= 0; 0 skips the Monte Carlo run"),
        "n_gens": (int, 100, "Monte Carlo horizon"),
        "escape_cap": (_big_int, 10**6, "Monte Carlo escape size, >= 2: a replica counts as "
                                        "escaped once its total reaches it"),
        "seed": (int, 0, "master seed, >= 0"),
        **_OUT_OPTS,
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quasigw", description="sharp-peak quasispecies toolkit")
    parser.add_argument("--version", action="version", version=f"quasigw {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, table in _TABLES.items():
        sub = subs.add_parser(command)
        for name, (conv, _default, help_text) in table.items():
            sub.add_argument("--" + name.replace("_", "-"), dest=name, type=conv, default=None,
                             help=help_text)
    return parser


def _load_config_file(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(args: argparse.Namespace, table: dict) -> dict:
    cfg = _load_config_file(args.config) if args.config else {}
    ignored = set(cfg) - set(table)
    if ignored:
        print(f"notice: ignoring config keys {sorted(ignored)}", file=sys.stderr)
    resolved = {}
    for name, (conv, default, _help) in table.items():
        value = getattr(args, name)
        if value is None and name in cfg:
            try:
                value = conv(cfg[name])
            except argparse.ArgumentTypeError as e:
                raise ValueError(f"config key {name}: {e}") from e
        if value is None:
            if default is _REQUIRED:
                raise ValueError(f"missing required option --{name.replace('_', '-')}")
            value = default
        resolved[name] = value
    return resolved


def _model_params(resolved: dict) -> ModelParams:
    q, a = resolved.get("q"), resolved.get("a")
    if q is None and a is None:
        raise ValueError("provide exactly one of --q or --a")
    if q is not None and a is not None:
        raise ValueError("options --q and --a are mutually exclusive")
    if q is None:
        q = a / resolved["ell"]
    params = ModelParams(
        sigma=resolved["sigma"], ell=resolved["ell"], kappa=resolved["kappa"], q=q
    )
    resolved["q"] = params.q
    resolved["a"] = params.a
    return params


def _parse_z0(spec: str, ell: int) -> np.ndarray:
    z = np.zeros(ell + 1, dtype=np.int64)
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        k_str, sep, n_str = part.partition(":")
        if not sep:
            raise ValueError(f"z0 entries look like class:count, got {part!r}")
        k, n = int(k_str), int(n_str)
        if not 0 <= k <= ell:
            raise ValueError(f"z0 class {k} outside [0, {ell}]")
        if n < 0:
            raise ValueError(f"z0 count must be >= 0, got {n}")
        z[k] += n
    return z


def _nonnegative(resolved: dict, name: str) -> int:
    """resolved[name] (a class or replica count, or a seed), checked to be >= 0."""
    k = resolved[name]
    if k < 0:
        raise ValueError(f"--{name.replace('_', '-')} must be >= 0, got {k}")
    return k


def cmd_kernel(resolved: dict):
    params = _model_params(resolved)
    m = lumped_kernel_matrix(params)
    dev = np.abs(m.sum(axis=1) - 1.0)
    table = {"b": np.arange(params.ell + 1)}
    table.update((f"c{j}", m[:, j]) for j in range(params.ell + 1))
    table["row_sum_dev"] = dev
    diagnostics = {"max_row_sum_dev": float(dev.max())}
    return table, diagnostics


def _perron_head(params: ModelParams, k_max: int, resolved: dict, band=None):
    """lambda and rho_0..rho_k_max in closed form (``perron_head``), or from
    ``perron`` on the band where the closed form's series is too slow (sigma
    and q near 1 and 0); pass band = kernel_band(params) to reuse it."""
    try:
        return perron_head(params, k_max=k_max, tol=resolved["tol"],
                           max_iter=resolved["max_iter"])
    except SlowSeriesError:
        pair = perron(params, band=band, tol=resolved["tol"], max_iter=resolved["max_iter"])
        return replace(pair, rho=pair.rho[: min(k_max, params.ell) + 1])


def cmd_perron(resolved: dict):
    params = _model_params(resolved)
    k_report = _nonnegative(resolved, "k_report")
    # the band checks the head against the numerical kernel (bounds_ok)
    band = kernel_band(params)
    head = _perron_head(params, k_report, resolved, band=band)
    bounds = perron_bounds_check(head, params, band=band, k_max=k_report)
    identity_gap = abs(head.lam - ((params.sigma - 1.0) * float(head.rho[0]) + 1.0))
    table = {"k": np.arange(head.rho.size), "rho": head.rho}
    diagnostics = {
        "lambda": head.lam,
        "residual": head.residual,
        "method": head.method,
        "iterations": head.iterations,
        "identity_gap": identity_gap,
        # lambda - 1 = (sigma - 1) rho_0 exactly, so 1 < lambda < sigma is
        # 0 < rho_0 < 1, which holds where lambda - 1 rounds away
        "lambda_in_range": bool(params.sigma > 1.0 and 0.0 < head.rho[0] < 1.0),
        "bounds_ok": bounds.passed,
    }
    return table, diagnostics


def cmd_quasispecies(resolved: dict):
    qp = QuasispeciesParams(sigma=resolved["sigma"], a=resolved["a"])
    regime = classify_regime(qp)
    kmax = _nonnegative(resolved, "kmax")
    diagnostics = {"regime": regime.value, "threshold": qp.threshold}
    k = np.arange(kmax + 1)
    if regime is Regime.DISORDERED:
        print(
            "notice: sigma * exp(-a) <= 1, disordered regime; "
            "the limiting class distribution is identically zero",
            file=sys.stderr,
        )
        zeros = np.zeros(k.size)
        table = {"k": k, "closed_form": zeros, "recurrence": zeros, "abs_diff": zeros,
                 "running_sum": zeros}
        return table, diagnostics
    closed = qs_pmf(qp, k)
    rec = np.asarray(qs_pmf_by_recurrence(qp, kmax), dtype=float)
    abs_diff = np.abs(closed - rec)
    partial, tail = qs_normalization_check(qp, kmax)
    table = {"k": k, "closed_form": closed, "recurrence": rec, "abs_diff": abs_diff,
             "running_sum": np.cumsum(closed)}
    diagnostics.update(partial_sum=partial, tail_bound=tail, max_abs_diff=max(abs_diff.tolist()))
    return table, diagnostics


def cmd_converge(resolved: dict):
    qp = QuasispeciesParams(sigma=resolved["sigma"], a=resolved["a"])
    regime = classify_regime(qp)
    lam_limit = max(1.0, qp.threshold)
    grid = resolved["ell_grid"]
    if not grid:
        raise ValueError("--ell-grid must list at least one length")
    k_top = min(_nonnegative(resolved, "k_report"), min(grid))
    q_limit = qs_pmf(qp, np.arange(k_top + 1))
    qs, heads = [], []
    for ell in grid:
        params = ModelParams(sigma=resolved["sigma"], ell=ell, kappa=resolved["kappa"],
                             q=resolved["a"] / ell)
        qs.append(params.q)
        heads.append(_perron_head(params, k_top, resolved))
    lam = np.array([head.lam for head in heads])
    rho = np.array([head.rho for head in heads])
    gap = np.abs(rho - q_limit)
    table = {
        "ell": np.array(grid),
        "q": np.array(qs),
        "lambda": lam,
        "lambda_gap": np.abs(lam - lam_limit),
        "method": np.array([head.method for head in heads]),
        "iterations": np.array([head.iterations for head in heads]),
    }
    table.update((f"rho{k}", rho[:, k]) for k in range(k_top + 1))
    table.update((f"gap{k}", gap[:, k]) for k in range(k_top + 1))
    diagnostics = {"regime": regime.value, "threshold": qp.threshold, "lambda_limit": lam_limit}
    return table, diagnostics


def cmd_simulate(resolved: dict):
    params = _model_params(resolved)
    seed = _nonnegative(resolved, "seed")
    z0 = _parse_z0(resolved["z0"], params.ell)
    if resolved["mode"] == "trajectory":
        rng = RngSpec(seed, 0).generator()
        t = run_trajectory(z0, params, resolved["n_gens"], rng, pop_cap=resolved["pop_cap"])
        total = t.totals
        table = {"generation": np.arange(t.counts.shape[0]), "total": total,
                 "extinct": total == 0}
        table.update((f"count{k}", t.counts[:, k]) for k in range(params.ell + 1))
        diagnostics = {
            "extinct": t.extinct,
            "capped": t.capped,
            "extinct_at": -1 if t.extinct_at is None else t.extinct_at,
            "capped_at": -1 if t.capped_at is None else t.capped_at,
            "recorded_generations": int(t.counts.shape[0]),
        }
        return table, diagnostics
    est = conditioned_frequencies(
        params,
        z0,
        n_gens=resolved["n_gens"],
        n_replicas=resolved["n_replicas"],
        seed=seed,
        pop_cap=resolved["pop_cap"],
    )
    table = {"k": np.arange(params.ell + 1), "mean_freq": est.mean, "se": est.se}
    diagnostics = {
        "n_survivors": est.n_survivors,
        "n_replicas": est.n_replicas,
        "n_generations": est.n_generations,
        "n_capped": est.n_capped,
    }
    return table, diagnostics


def cmd_extinction(resolved: dict):
    params = _model_params(resolved)
    n_mc, seed = _nonnegative(resolved, "mc"), _nonnegative(resolved, "seed")
    band = kernel_band(params)
    report = extinction_probabilities(params, resolved["tol"], resolved["max_iter"], band=band)
    s = report.s
    fit = fitness_vector(params)
    residual = float(np.max(np.abs(np.exp(fit * (band.matvec(s) - 1.0)) - s)))
    table = {"k": np.arange(params.ell + 1), "p_extinct": s}
    diagnostics = {
        "fixed_point_residual": residual,
        "newton_steps": report.iterations,
        "extrapolated_steps": report.extrapolations,
    }
    if n_mc > 0:
        w = mean_matrix(params, band=band)
        reps = [
            extinction_mc(
                params,
                n_replicas=n_mc,
                start_class=k,
                n_gens=resolved["n_gens"],
                escape_cap=resolved["escape_cap"],
                seed=seed,
                stream=k,
                mean=w,
            )
            for k in range(params.ell + 1)
        ]
        table["mc_freq"] = np.array([rep.extinct_fraction for rep in reps], dtype=float)
        table["mc_se"] = np.array([rep.se for rep in reps], dtype=float)
        diagnostics["mc_replicas"] = n_mc
    return table, diagnostics


_COMMANDS = {
    "kernel": cmd_kernel,
    "perron": cmd_perron,
    "quasispecies": cmd_quasispecies,
    "converge": cmd_converge,
    "simulate": cmd_simulate,
    "extinction": cmd_extinction,
}


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (list, tuple)):
        return ";".join(_fmt(x) for x in v)
    return str(v)


def _jsonable(v):
    if isinstance(v, (np.ndarray, list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    return v


def _csv_column(a: np.ndarray) -> tuple[str, np.ndarray]:
    """printf spec and values of one non-float CSV column, as ``_fmt`` spells them."""
    if a.dtype.kind in "iu":
        return "%d", a
    if a.dtype.kind == "b":
        return "%s", np.where(a, "true", "false")
    return "%s", a.astype(str)


def _csv_floats(values: list) -> list:
    """``_fmt``'s spelling of each float in values, made by one ``%`` call."""
    return ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")


def _json_column(a: np.ndarray) -> tuple[str, np.ndarray]:
    """printf spec and values of one non-float JSON column, as ``json.dumps`` spells them."""
    if a.dtype.kind in "iu":
        return "%d", a
    if a.dtype.kind == "b":
        return "%s", np.where(a, "true", "false")
    return "%s", np.array([json.dumps(x) for x in a.tolist()], dtype=object)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: list) -> list:
    """``json.dumps``'s spelling of each float in values, made by one ``%`` call."""
    text = ("\n".join(["%r"] * len(values)) % tuple(values)).split("\n")
    return [_JSON_NONFINITE.get(word, word) for word in text]


_CHUNK = 1 << 12  # entries of a float block spelled at a time, whole rows


def _float_rows(block: np.ndarray, spell_floats):
    """Each row of a 2-D float block, as the list of its values' spellings.

    A block of at most _CHUNK entries is spelled value by value, in one
    spell_floats call.  In a larger one every distinct nonzero value is
    spelled once, in one spell_floats call that also spells 0.0, and the
    rows are assembled from those strings about _CHUNK entries at a time.
    Values are told apart by bit pattern, so -0.0, NaN and the infinities
    keep their own spellings.  Only the nonzeros are sorted, as a dense
    kernel is mostly exact zeros, and the block is released before the
    sort: no other array of its size is made.
    """
    n_rows, n_cols = block.shape
    if block.size <= _CHUNK:  # too few values for the sort to pay
        words = spell_floats(block.ravel().tolist())
        yield from (words[lo : lo + n_cols] for lo in range(0, block.size, n_cols))
        return
    bits = block.view(np.int64).ravel()
    where = np.flatnonzero(bits)
    nonzero_bits = bits[where]
    del block, bits
    distinct, which = np.unique(nonzero_bits, return_inverse=True)
    del nonzero_bits
    words = np.array(spell_floats([0.0, *distinct.view(np.float64).tolist()]), dtype=object)
    nonzero_words, zero = words[which + 1], words[0]
    del distinct, which, words  # keep only what the rows are made from
    step = max(1, _CHUNK // n_cols) * n_cols
    for lo in range(0, n_rows * n_cols, step):
        hi = min(lo + step, n_rows * n_cols)
        first, last = np.searchsorted(where, (lo, hi)).tolist()
        spelled = np.full(hi - lo, zero, dtype=object)
        spelled[where[first:last] - lo] = nonzero_words[first:last]
        yield from spelled.reshape(-1, n_cols).tolist()


def _records(table: dict, names: list, spell_column, spell_floats, layout):
    """One string per table row: the columns names, spelled by spell_column
    (one column, not float) and spell_floats (a list of floats), in the row
    template layout(specs).

    Runs of adjacent columns of one dtype are stacked into 2-D blocks.  A
    float block's rows come from ``_float_rows``, which spells each distinct
    value of a large block once; any other block's rows come out with one
    ``tolist`` each.  A row is then formatted by one ``%`` call.
    """
    specs, blocks = [], []
    for dtype, run in groupby((table[name] for name in names), key=lambda a: a.dtype):
        run = list(run)
        if dtype.kind == "f":
            specs += ["%s"] * len(run)
            block = np.column_stack(run)
            blocks.append(_float_rows(block, spell_floats))
            del block  # _float_rows releases it before the first row
        else:
            spelled = [spell_column(a) for a in run]
            specs += [spec for spec, _ in spelled]
            blocks.append(map(np.ndarray.tolist, np.column_stack([a for _, a in spelled])))
    template = layout(specs)
    for parts in zip(*blocks):
        yield template % tuple(chain.from_iterable(parts))


def render_csv(config: dict, table: dict, diagnostics: dict) -> str:
    lines = [f"# config.{k}={_fmt(config[k])}" for k in sorted(config)]
    lines += [f"# diagnostics.{k}={_fmt(diagnostics[k])}" for k in sorted(diagnostics)]
    lines.append(",".join(table))
    lines += _records(table, list(table), _csv_column, _csv_floats, ",".join)
    return "\n".join(lines) + "\n"


def render_json(config: dict, table: dict, diagnostics: dict) -> str:
    head = json.dumps(
        {
            "config": {k: _jsonable(v) for k, v in config.items()},
            "diagnostics": {k: _jsonable(v) for k, v in diagnostics.items()},
        },
        indent=2,
        sort_keys=True,
    )
    keys = sorted(table)
    labels = [f"      {json.dumps(k)}: ".replace("%", "%%") for k in keys]

    def layout(specs):
        return "    {\n" + ",\n".join(map(str.__add__, labels, specs)) + "\n    }"

    records = ",\n".join(_records(table, keys, _json_column, _json_floats, layout))
    # With sort_keys, "results" comes last: after "diagnostics", before head's closing brace.
    results = ("[\n", records, "\n  ]") if records else ("[]",)
    return "".join((head[:-2], ',\n  "results": ', *results, "\n}\n"))


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        resolved = _resolve(args, _TABLES[args.command])
        table, diagnostics = _COMMANDS[args.command](resolved)
    except AllExtinctError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, ConvergenceError, ResourceLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    diagnostics["duration_s"] = time.perf_counter() - started
    config = {"command": args.command, "version": __version__}
    config.update({k: v for k, v in resolved.items() if v is not None})
    render = render_csv if resolved["format"] == "csv" else render_json
    text = render(config, table, diagnostics)
    if resolved["out"]:
        Path(resolved["out"]).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
