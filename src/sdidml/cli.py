"""Command-line interface wiring configuration, data, pipeline, and outputs.

Subcommands: ``run`` (full five-stage estimation on a panel CSV, its
nuisances cross-fit over K >= 2 unit folds), ``simulate`` (write a
synthetic panel plus its oracle sidecar), ``benchmark`` (Monte Carlo
comparison of the cross-fitted estimator against the TWFE baseline), and
``diagnose`` (human-readable summary of a prior run's robustness reports).

Only this module formats output: it maps unit codes (such as the fold
array's) to unit ids, echoes settings from its config, and writes every
file through one JSON writer and one CSV writer. It reads every JSON file
(run config, DGP config, a prior run's artifacts) through one reader,
:func:`_read_json_object`, and leaves each check to the config it builds.

Exit codes are stable: 0 success, 2 configuration or usage error, 3 data
error, 4 estimation error. Every failure, an argparse usage error too,
ends stderr with a machine-readable JSON error line; ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import BOOTSTRAP_MODES, PipelineConfig
from .errors import (
    ConfigError,
    DataError,
    InvalidConfigError,
    MissingArtifactsError,
    SdidmlError,
    json_fields,
    json_object,
)
from .learners import LearnerSpec
from .panel import read_panel_csv, write_panel_csv
from .pipeline import run_pipeline
from .simulate import DGPConfig, SCENARIO_NAMES, generate, monte_carlo, scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ESTIMATION = 4

# JSON key -> (field, type, null allowed), read by errors.json_fields. Fields
# named "pipeline.x" are PipelineConfig fields; keys "bootstrap.x" sit inside
# the "bootstrap" object.
_CONFIG_KEYS = {
    "input_path": ("input_path", str, True),
    "output_dir": ("output_dir", str, True),
    "g_learner": ("pipeline.g_learner", LearnerSpec.from_dict, False),
    "m_learner": ("pipeline.m_learner", LearnerSpec.from_dict, False),
    "K": ("pipeline.n_folds", int, False),
    "clip_eps": ("pipeline.clip_eps", float, False),
    "control_rule": ("pipeline.control_rule", str, False),
    "anticipation": ("pipeline.anticipation", int, False),
    "bootstrap.B": ("pipeline.bootstrap_reps", int, False),
    "bootstrap.mode": ("pipeline.bootstrap_mode", str, False),
    "ci_level": ("pipeline.ci_level", float, False),
    "seed": ("pipeline.seed", int, False),
    "placebo_shift": ("pipeline.placebo_shift", int, True),
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved ``run`` settings; echoed into every results file.

    ``pipeline`` holds every estimation setting, each checked once when it
    is built; the other fields are the input and output paths. The config
    JSON is an object whose keys, all optional, and their types are those
    of ``_CONFIG_KEYS``; a learner is an object whose ``kind`` selects the
    parameters it reads (``learners._KIND_KEYS``). Any other key, or a
    value of another JSON type, raises :class:`ConfigError` (see
    :func:`sdidml.errors.json_value`).
    """

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    input_path: Optional[str] = None
    output_dir: Optional[str] = None

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        flat = dict(d)
        boot = flat.pop("bootstrap", {})
        if not isinstance(boot, dict):
            raise ConfigError("'bootstrap' must be an object like {\"B\": 199, \"mode\": \"full\"}")
        dotted = sorted(key for key in flat if "." in key)
        if dotted:
            raise ConfigError(f"unknown config key(s): {dotted}")
        flat.update({f"bootstrap.{k}": v for k, v in boot.items()})
        run, pipeline = {}, {}
        for name, value in json_fields(flat, _CONFIG_KEYS, "config key").items():
            owner, _, name = name.rpartition(".")
            (pipeline if owner else run)[name] = value
        return cls(pipeline=PipelineConfig(**pipeline), **run)

    def to_dict(self) -> dict:
        out: dict = {}
        for key, value in json_object(self, _CONFIG_KEYS).items():
            group, _, sub = key.rpartition(".")
            (out.setdefault(group, {}) if group else out)[sub] = value
        return out


def _points_json(kind: str, summaries) -> list:
    """The summaries keyed ``(kind, k)``, in order, each labelled ``{kind: k}``."""
    return [dict(asdict(p), **{kind: k})
            for (key_kind, k), p in sorted(summaries.items()) if key_kind == kind]


def _finite(x):
    """``x`` with every non-finite float in it replaced by None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return x


def _write_json(path, payload) -> None:
    """Strict JSON: a NaN or an infinity is written as null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path, rows: list, columns: list) -> None:
    """One CSV row per dict in ``rows``, its values under ``columns``; None is empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)


def _versions() -> dict:
    return {"sdidml": __version__, "numpy": np.__version__, "rng": "pcg64"}


def _output_dir(path) -> Path:
    """Make the output directory before any work, so a bad path fails fast."""
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: {exc}") from None
    return outdir


def _read_json_object(path, error: type) -> dict:
    """The JSON object in the file ``path``. A file that cannot be read, is
    not UTF-8 JSON or holds no object raises ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError covers bad JSON and bad UTF-8, RecursionError too deep a nesting
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {path}: {exc}") from None
    if not isinstance(data, dict):
        raise error(f"{path} does not hold a JSON object")
    return data


def _resolve_scenario_or_config(token: str) -> DGPConfig:
    if token.endswith(".json"):
        return DGPConfig.from_dict(_read_json_object(token, InvalidConfigError))
    return scenario(token)


# -- run ------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_dict(_read_json_object(args.config, ConfigError) if args.config else {})
    overrides = {name: value for name, value in (
        ("input_path", args.input), ("output_dir", args.output)) if value is not None}
    if args.seed is not None:
        overrides["pipeline"] = replace(cfg.pipeline, seed=args.seed)
    cfg = replace(cfg, **overrides)
    for key, flag in (("input_path", "--input"), ("output_dir", "--output")):
        if getattr(cfg, key) is None:
            raise ConfigError(f"no {key} given; set it in the config or pass {flag}")
    outdir = _output_dir(cfg.output_dir)

    panel = read_panel_csv(cfg.input_path)
    pipe = cfg.pipeline
    result = run_pipeline(panel, pipe)
    res, effects = result.results, result.artifacts.effects
    overlap = [asdict(row) for row in result.overlap]
    diagnostics = {"overlap": overlap, "pretrend": None, "placebo": None}
    if result.pretrend is not None:
        diagnostics["pretrend"] = dict(asdict(result.pretrend), approximate=True)
    if result.placebo is not None:
        plc = result.placebo
        diagnostics["placebo"] = {"pseudo_att": plc.att, "ci_low": plc.ci_low,
                                  "ci_high": plc.ci_high, "shift": pipe.placebo_shift,
                                  "ci_level": pipe.ci_level}
    cells = [{"g": g, "t": t, "event_time": t - g, "tau": tau,
              "n_treated": int(n_tr), "n_control": int(n_c)}
             for (g, t), tau, n_tr, n_c in zip(effects.keys, effects.tau.tolist(),
                                               effects.n_treated, effects.n_control)]
    event_curve = _points_json("e", res.summaries)
    payload = {
        "overall": dict(asdict(res.overall), ci_level=pipe.ci_level),
        "event_curve": event_curve,
        "groups": _points_json("g", res.summaries),
        "group_time": {"control_rule": pipe.control_rule,
                       "anticipation": pipe.anticipation,
                       "base_period_rule": f"g-1-{pipe.anticipation}",
                       "cells": cells,
                       "omitted": [asdict(cell) for cell in effects.omitted]},
        "weights": {f"{g},{t}": w
                    for (g, t), w in sorted(res.weights_used.items())},
        "bootstrap": None if not res.n_reps else {
            "B": res.n_reps,
            "mode": pipe.bootstrap_mode,
            "approximate": pipe.bootstrap_mode == "fixed_nuisance",
            "n_failed": res.n_failed,
            "seed": pipe.seed},
        "diagnostics": diagnostics,
        "folds": dict(zip(panel.units, result.artifacts.fits.folds.tolist())),
        "n_clipped": sum(row["n_clipped"] for row in overlap),
        "config_echo": cfg.to_dict(),
        "versions": _versions(),
    }
    _write_json(outdir / "results.json", payload)
    _write_csv(outdir / "group_time.csv", cells,
               ["g", "t", "event_time", "tau", "n_treated", "n_control"])
    _write_csv(outdir / "event_curve.csv", event_curve, ["e", "att", "ci_low", "ci_high"])
    _write_json(outdir / "diagnostics.json", diagnostics)

    overall, ci = res.overall, ""
    if overall.ci_low is not None:
        ci = f"  [{overall.ci_low:.4f}, {overall.ci_high:.4f}] at {pipe.ci_level:.0%}"
    print(f"overall ATT = {overall.att:.6f}{ci}")
    print(f"wrote results to {outdir}")
    return EXIT_OK


# -- simulate ---------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_scenario_or_config(args.scenario)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    outdir = _output_dir(args.out)
    oracle = generate(cfg)
    write_panel_csv(oracle.panel, outdir / "panel.csv")
    payload = {
        "generator": oracle.generator,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "true_overall_att": oracle.true_overall_att,
        "true_att": [{"g": g, "t": t, "value": v}
                     for (g, t), v in sorted(oracle.true_att.items())],
        "true_event_curve": {str(e): v
                             for e, v in sorted(oracle.true_event_curve.items())},
        "subgroup_of_unit": dict(sorted(oracle.subgroup_of_unit.items())),
        "versions": _versions(),
    }
    _write_json(outdir / "oracle.json", payload)
    print(f"wrote panel.csv and oracle.json to {outdir}")
    return EXIT_OK


# -- benchmark --------------------------------------------------------------------


def cmd_benchmark(args: argparse.Namespace) -> int:
    if args.reps < 1:
        raise ConfigError("--reps must be >= 1")
    dgp = _resolve_scenario_or_config(args.scenario)
    pipe = PipelineConfig(bootstrap_reps=args.bootstrap_reps,
                          bootstrap_mode=args.bootstrap_mode, seed=args.seed)
    outdir = _output_dir(args.out)
    results = {
        method: monte_carlo(dgp, pipe, args.reps, args.seed, method=method)
        for method in ("sdidml", "twfe")
    }
    methods = {m: asdict(r) for m, r in results.items()}
    payload = {
        "scenario": args.scenario,
        "reps": args.reps,
        "seed": args.seed,
        "bootstrap": {"B": args.bootstrap_reps, "mode": args.bootstrap_mode,
                      "approximate": args.bootstrap_mode == "fixed_nuisance"},
        "methods": methods,
        "versions": _versions(),
    }
    _write_json(outdir / "comparison.json", payload)
    _write_csv(outdir / "comparison.csv",
               [dict(row, method=m) for m, row in methods.items()],
               ["method", "bias", "rmse", "coverage"])
    for m, r in results.items():
        cov = "n/a" if r.coverage is None else f"{r.coverage:.3f}"
        print(f"{m:8s} bias={r.bias:+.4f}  rmse={r.rmse:.4f}  coverage={cov}")
    print(f"wrote comparison to {outdir}")
    return EXIT_OK


# -- diagnose ---------------------------------------------------------------------


def cmd_diagnose(args: argparse.Namespace) -> int:
    results_dir = Path(args.results_dir)
    paths = [results_dir / name for name in ("diagnostics.json", "results.json")]
    if not all(path.exists() for path in paths):
        raise MissingArtifactsError(
            f"{results_dir} lacks results.json/diagnostics.json from a prior run")
    diag, res = [_read_json_object(path, DataError) for path in paths]
    try:
        _print_diagnosis(res, diag)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{results_dir} holds malformed run artifacts: {exc!r}") from None
    return EXIT_OK


def _print_diagnosis(res: dict, diag: dict) -> None:
    overlap = diag["overlap"]
    if not isinstance(overlap, list):
        raise ValueError("'overlap' must be a list of per-cohort rows")
    overall = res.get("overall", {})
    att = overall.get("att")
    lo, hi = overall.get("ci_low"), overall.get("ci_high")
    ci = f" [{lo:.4f}, {hi:.4f}]" if lo is not None and hi is not None else ""
    print(f"overall ATT: {att:.6f}{ci}")

    pre = diag.get("pretrend")
    if pre is None:
        print("pretrend:  SKIPPED (no pre-treatment cells or no bootstrap)")
    else:
        flag = "PASS" if pre["p_value"] >= 0.05 else "FAIL"
        statistic = "null" if pre["statistic"] is None else f"{pre['statistic']:.3f}"
        print(f"pretrend:  {flag} (statistic={statistic}, "
              f"dof={pre['dof']}, p={pre['p_value']:.4f})")

    plc = diag.get("placebo")
    if plc is None:
        print("placebo:   SKIPPED (no placebo_shift configured)")
    else:
        lo, hi = plc.get("ci_low"), plc.get("ci_high")
        if lo is None or hi is None:
            print(f"placebo:   pseudo ATT={plc['pseudo_att']:+.4f} (no CI)")
        else:
            flag = "PASS" if lo <= 0.0 <= hi else "WARN"
            print(f"placebo:   {flag} (pseudo ATT={plc['pseudo_att']:+.4f}, "
                  f"CI [{lo:.4f}, {hi:.4f}])")

    if not overlap:
        print("overlap:   SKIPPED (no cohort observed at its base period)")
    for ov in overlap:
        flag = "WARN" if ov["weak_overlap"] else "PASS"
        print(f"overlap:   g={ov['g']} {flag} (share outside [0.05,0.95]="
              f"{ov['share_outside_05_95']:.3f}, clipped={ov['n_clipped']}/{ov['n_units']})")


# -- entry point ------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise :class:`ConfigError`, so that
    :func:`main` reports them like every other failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sdidml",
        description="Staggered DID estimation with machine-learned "
                    "residualization, plus synthetic-panel validation tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="estimate on a panel CSV")
    run.add_argument("--config", help="run-config JSON path")
    run.add_argument("--input", help="panel CSV path (overrides config)")
    run.add_argument("--output", help="output directory (overrides config)")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.set_defaults(func=cmd_run)

    sim = sub.add_parser("simulate", help="write a synthetic panel + oracle")
    sim.add_argument("scenario",
                     help=f"scenario name ({', '.join(SCENARIO_NAMES)} or "
                          f"S1..S5) or a DGP-config JSON path")
    sim.add_argument("--seed", type=int, help="override the scenario seed")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    bench = sub.add_parser("benchmark",
                           help="Monte Carlo comparison vs the TWFE baseline")
    bench.add_argument("scenario", help="scenario name or DGP-config JSON path")
    bench.add_argument("--reps", type=int, required=True)
    bench.add_argument("--seed", type=int, default=PipelineConfig.seed)
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument("--bootstrap-reps", type=int, default=PipelineConfig.bootstrap_reps)
    # Not PipelineConfig's "full": a Monte Carlo study runs a whole bootstrap
    # for every rep, so it defaults to the fast fixed-nuisance mode.
    bench.add_argument("--bootstrap-mode", default="fixed_nuisance",
                       choices=BOOTSTRAP_MODES)
    bench.set_defaults(func=cmd_benchmark)

    diag = sub.add_parser("diagnose", help="summarize a prior run's diagnostics")
    diag.add_argument("results_dir")
    diag.set_defaults(func=cmd_diagnose)
    return parser


def _fail(code: int, kind: str, exc: Exception) -> int:
    print(json.dumps({"error": {"code": code, "type": kind,
                                "message": str(exc)}}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits 0 after printing --help
        return int(exc.code or 0)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, type(exc).__name__, exc)
    except DataError as exc:
        return _fail(EXIT_DATA, type(exc).__name__, exc)
    except SdidmlError as exc:
        return _fail(EXIT_ESTIMATION, type(exc).__name__, exc)


if __name__ == "__main__":
    sys.exit(main())
