"""Command-line interface wiring configuration, data, pipeline, and outputs.

Subcommands: ``run`` (full five-stage estimation on a panel CSV),
``simulate`` (write a synthetic panel plus its oracle sidecar),
``benchmark`` (Monte Carlo comparison of the residualized estimator against
the TWFE baseline), and ``diagnose`` (human-readable summary of a prior
run's robustness reports).

Exit codes are stable: 0 success, 2 configuration error, 3 data error,
4 estimation error. Failures also emit a machine-readable JSON error line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .aggregate import BOOTSTRAP_MODES, DiagnosticsReport, write_event_curve_csv
from .errors import (
    ConfigError,
    DataError,
    EstimationError,
    LearnerError,
    MissingArtifactsError,
    SdidmlError,
)
from .learners import LearnerSpec
from .panel import read_panel_csv, write_panel_csv
from .pipeline import PipelineConfig, run_pipeline
from .simulate import DGPConfig, SCENARIO_NAMES, generate, monte_carlo, scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_ESTIMATION = 4

# JSON key -> (field, JSON type, null allowed). Fields named "pipeline.x" are
# PipelineConfig fields; keys "bootstrap.x" sit inside the "bootstrap" object.
_CONFIG_KEYS = {
    "input_path": ("input_path", str, True),
    "output_dir": ("output_dir", str, True),
    "g_learner": ("pipeline.g_learner", LearnerSpec, False),
    "m_learner": ("pipeline.m_learner", LearnerSpec, False),
    "K": ("pipeline.n_folds", int, False),
    "clip_eps": ("pipeline.clip_eps", float, False),
    "control_rule": ("pipeline.control_rule", str, False),
    "anticipation": ("pipeline.anticipation", int, False),
    "aggregation": ("pipeline.aggregation", list, False),
    "bootstrap.B": ("pipeline.bootstrap_reps", int, False),
    "bootstrap.mode": ("pipeline.bootstrap_mode", str, False),
    "ci_level": ("pipeline.ci_level", float, False),
    "seed": ("pipeline.seed", int, False),
    "placebo_shift": ("placebo_shift", int, True),
    "allow_no_crossfit": ("allow_no_crossfit", bool, False),
}
_JSON_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number",
                    bool: "true or false", list: "a list of strings",
                    LearnerSpec: "a learner object"}


def _from_json(key: str, value, kind: type, nullable: bool):
    """Check one config value's JSON type and convert it to the field's type."""
    if value is None and nullable:
        return None
    # bool subclasses int, but only a bool field takes true/false.
    if isinstance(value, bool) == (kind is bool):
        if kind is LearnerSpec and isinstance(value, dict):
            return LearnerSpec.from_dict(value)
        if kind is list and isinstance(value, list) and all(isinstance(v, str) for v in value):
            return tuple(value)
        if kind is float and isinstance(value, (int, float)):
            return float(value)
        if kind in (str, int, bool) and isinstance(value, kind):
            return value
    raise ConfigError(f"config key {key!r} must be {_JSON_TYPE_NAMES[kind]}"
                      f"{' or null' if nullable else ''}, got {json.dumps(value)}")


@dataclass(frozen=True)
class RunConfig:
    """Resolved ``run`` settings; echoed into every results file.

    ``pipeline`` holds the estimation settings, the other fields I/O and
    run-level ones. The config JSON is an object; every key is optional:
    ``input_path``, ``output_dir`` (string or null); ``g_learner``,
    ``m_learner`` (learner object, e.g. ``{"kind": "ridge", "lambda": 1.0}``,
    whose ``n_trees``, ``max_depth``, ``min_leaf``, ``max_iter`` are integers
    and ``lambda``, ``tol``, ``learning_rate`` numbers);
    ``K``, ``anticipation``, ``seed`` (integer); ``clip_eps``, ``ci_level``
    (number); ``control_rule`` (string); ``aggregation`` (list of
    strings); ``bootstrap`` (``{"B": integer, "mode": string}``);
    ``placebo_shift`` (integer or null); ``allow_no_crossfit`` (true or
    false). Any other key, or a value of another JSON type, raises
    :class:`ConfigError`: true/false is not an integer, nor is 2.0.
    """

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    input_path: Optional[str] = None
    output_dir: Optional[str] = None
    placebo_shift: Optional[int] = None
    allow_no_crossfit: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        flat = dict(d)
        boot = flat.pop("bootstrap", {})
        if not isinstance(boot, dict):
            raise ConfigError("'bootstrap' must be an object like {\"B\": 199, \"mode\": \"full\"}")
        flat.update({f"bootstrap.{k}": v for k, v in boot.items()})
        top_level = {key.partition(".")[0] for key in _CONFIG_KEYS}
        unknown = sorted((set(d) - top_level) | (set(flat) - set(_CONFIG_KEYS)))
        if unknown:
            raise ConfigError(f"unknown config key(s): {unknown}")
        run, pipeline = {}, {}
        for key, value in flat.items():
            name, kind, nullable = _CONFIG_KEYS[key]
            owner, _, name = name.rpartition(".")
            (pipeline if owner else run)[name] = _from_json(key, value, kind, nullable)
        return cls(pipeline=PipelineConfig(**pipeline), **run)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        out: dict = {}
        for key, (name, _, _) in _CONFIG_KEYS.items():
            owner, _, name = name.rpartition(".")
            value = getattr(self.pipeline if owner else self, name)
            if isinstance(value, LearnerSpec):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            group, _, sub = key.rpartition(".")
            (out.setdefault(group, {}) if group else out)[sub] = value
        return out


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _points_json(label: str, points) -> list:
    return [{label: k, "att": p.att, "se": _json_safe(p.se),
             "ci_low": _json_safe(p.ci_low), "ci_high": _json_safe(p.ci_high)}
            for k, p in sorted(points.items())]


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _versions() -> dict:
    return {"sdidml": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "rng": "pcg64"}


def _output_dir(path) -> Path:
    """Make the output directory before any work, so a bad path fails fast."""
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: {exc}") from None
    return outdir


def _resolve_scenario_or_config(token: str) -> DGPConfig:
    if token.endswith(".json"):
        try:
            with open(token, encoding="utf-8") as fh:
                return DGPConfig.from_dict(json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read DGP config {token}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{token} is not valid JSON: {exc}") from None
    return scenario(token)


# -- run ------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {name: value for name, value in (
        ("input_path", args.input), ("output_dir", args.output)) if value is not None}
    if args.seed is not None:
        overrides["pipeline"] = replace(cfg.pipeline, seed=args.seed)
    if args.allow_no_crossfit:
        overrides["allow_no_crossfit"] = True
    cfg = replace(cfg, **overrides)
    if cfg.input_path is None:
        raise ConfigError("no input CSV given; set input_path in the config "
                          "or pass --input")
    if cfg.output_dir is None:
        raise ConfigError("no output directory given; set output_dir in the "
                          "config or pass --output")
    if cfg.pipeline.n_folds == 1 and not cfg.allow_no_crossfit:
        raise ConfigError(
            "K=1 trains and predicts on the same sample, which defeats "
            "cross-fitting and is meant for diagnostics only; pass "
            "--allow-no-crossfit to run it anyway")
    outdir = _output_dir(cfg.output_dir)

    panel = read_panel_csv(cfg.input_path)
    result = run_pipeline(panel, cfg.pipeline, placebo_shift=cfg.placebo_shift)
    res = result.results
    diagnostics = DiagnosticsReport(pretrend=result.pretrend,
                                    placebo=result.placebo,
                                    overlap=result.overlap)
    payload = {
        "overall": {"att": res.overall_att, "se": _json_safe(res.overall_se),
                    "ci_low": _json_safe(res.overall_ci_low),
                    "ci_high": _json_safe(res.overall_ci_high),
                    "ci_level": res.ci_level},
        "event_curve": _points_json("e", res.event_curve),
        "groups": _points_json("g", res.group_atts),
        "group_time": result.artifacts.effects.to_json_dict(),
        "weights": {f"{g},{t}": w
                    for (g, t), w in sorted(res.weights_used.items())},
        "bootstrap": None if result.inference is None else {
            "B": result.inference.n_reps,
            "mode": result.inference.mode,
            "approximate": result.inference.mode == "fixed_nuisance",
            "n_failed": result.inference.n_failed,
            "seed": result.inference.seed},
        "diagnostics": diagnostics.to_json_dict(),
        "folds": dict(sorted(result.artifacts.fits.folds.fold_of_unit.items())),
        "n_clipped": result.artifacts.fits.n_clipped,
        "config_echo": cfg.to_dict(),
        "versions": _versions(),
    }
    _write_json(outdir / "results.json", payload)
    result.artifacts.effects.write_csv(outdir / "group_time.csv")
    write_event_curve_csv(res, outdir / "event_curve.csv")
    _write_json(outdir / "diagnostics.json", diagnostics.to_json_dict())

    ci = ""
    if res.overall_ci_low is not None:
        ci = f"  [{res.overall_ci_low:.4f}, {res.overall_ci_high:.4f}] at {res.ci_level:.0%}"
    print(f"overall ATT = {res.overall_att:.6f}{ci}")
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
        "true_overall_att": _json_safe(oracle.true_overall_att),
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
    outdir = _output_dir(args.out)
    pipe = PipelineConfig(bootstrap_reps=args.bootstrap_reps,
                          bootstrap_mode=args.bootstrap_mode, seed=args.seed)
    results = {
        method: monte_carlo(dgp, pipe, args.reps, args.seed, method=method)
        for method in ("sdidml", "twfe")
    }
    payload = {
        "scenario": args.scenario,
        "reps": args.reps,
        "seed": args.seed,
        "bootstrap": {"B": args.bootstrap_reps, "mode": args.bootstrap_mode,
                      "approximate": args.bootstrap_mode == "fixed_nuisance"},
        "methods": {m: r.to_json_dict() for m, r in results.items()},
        "versions": _versions(),
    }
    _write_json(outdir / "comparison.json", payload)
    with open(outdir / "comparison.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("method,bias,rmse,coverage\n")
        for m, r in results.items():
            cov = "" if r.coverage is None else repr(r.coverage)
            fh.write(f"{m},{r.bias!r},{r.rmse!r},{cov}\n")
    for m, r in results.items():
        cov = "n/a" if r.coverage is None else f"{r.coverage:.3f}"
        print(f"{m:8s} bias={r.bias:+.4f}  rmse={r.rmse:.4f}  coverage={cov}")
    print(f"wrote comparison to {outdir}")
    return EXIT_OK


# -- diagnose ---------------------------------------------------------------------


def _read_artifact(path: Path) -> dict:
    """One JSON object written by a prior run; unreadable content is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise DataError(f"cannot read {path}: {exc}") from None
    if not isinstance(data, dict):
        raise DataError(f"{path} does not hold a JSON object")
    return data


def cmd_diagnose(args: argparse.Namespace) -> int:
    results_dir = Path(args.results_dir)
    diag_path = results_dir / "diagnostics.json"
    res_path = results_dir / "results.json"
    if not diag_path.exists() or not res_path.exists():
        raise MissingArtifactsError(
            f"{results_dir} lacks results.json/diagnostics.json from a prior run")
    diag = _read_artifact(diag_path)
    res = _read_artifact(res_path)
    try:
        _print_diagnosis(res, diag)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{results_dir} holds malformed run artifacts: {exc!r}") from None
    return EXIT_OK


def _print_diagnosis(res: dict, diag: dict) -> None:
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
        print(f"pretrend:  {flag} (statistic={pre['statistic']:.3f}, "
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

    ov = diag["overlap"]
    flag = "WARN" if ov["weak_overlap"] else "PASS"
    print(f"overlap:   {flag} (share outside [0.05,0.95]={ov['share_outside_05_95']:.3f}, "
          f"clipped={ov['n_clipped']}/{ov['n_obs']})")


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdidml",
        description="Staggered DID estimation with machine-learned "
                    "residualization, plus synthetic-panel validation tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="estimate on a panel CSV")
    run.add_argument("--config", help="run-config JSON path")
    run.add_argument("--input", help="panel CSV path (overrides config)")
    run.add_argument("--output", help="output directory (overrides config)")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--allow-no-crossfit", action="store_true",
                     help="permit the K=1 diagnostic mode")
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
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument("--bootstrap-reps", type=int, default=199)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, type(exc).__name__, exc)
    except DataError as exc:
        return _fail(EXIT_DATA, type(exc).__name__, exc)
    except (EstimationError, LearnerError, SdidmlError) as exc:
        return _fail(EXIT_ESTIMATION, type(exc).__name__, exc)


if __name__ == "__main__":
    sys.exit(main())
