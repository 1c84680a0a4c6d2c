"""The four workloads: inputs made from the seed, the timed CLI call, checks.

Every input is generated with ``sdidml.simulate.generate`` from one of the
repository's oracle scenarios, re-seeded from the benchmark's ``--seed``;
the program only ever sees the generated files (or, for the Monte Carlo
workload, the scenario name and seed on its command line).
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
from dataclasses import replace

# The ROADMAP coverage gate: S1, seed 2000, fixed-nuisance B=99, 60 reps.
# Its seed is fixed so that its bias, RMSE and coverage are comparable
# across runs; the sanity limits only catch a broken estimator.
GATE = {"scenario": "S1", "seed": 2000, "reps": 60, "B": 99,
        "mode": "fixed_nuisance", "ci_level": 0.95,
        "max_rmse": 0.3, "min_coverage": 0.8}


def write_panel(panel, path):
    """Write the canonical CSV layout with ``repr(float(v))`` for every number.

    ``sdidml.write_panel_csv`` writes numpy scalars as ``np.float64(...)``,
    which ``read_panel_csv`` rejects with exit code 3, so the benchmark
    writes its inputs itself.
    """
    units = [panel.units[c] for c in panel.unit_codes]
    times = [panel.periods[c] for c in panel.time_codes]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "time", "outcome", "treatment", *panel.covariate_names])
        for i, unit in enumerate(units):
            writer.writerow([unit, times[i], repr(float(panel.outcomes[i])),
                             int(panel.treatments[i]),
                             *[repr(float(v)) for v in panel.covariates[i]]])


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _panel_file(scenario, seed, path):
    # Looked up at call time, so that a traced run sees the wrapped generate.
    simulate = importlib.import_module("sdidml.simulate")
    oracle = simulate.generate(replace(simulate.scenario(scenario), seed=seed))
    write_panel(oracle.panel, path)
    return oracle


class RunWorkload:
    """``sdidml run`` on CSV panels of one scenario with one config.

    ``tolerance`` bounds |ATT - oracle ATT|. It is about six times the
    standard deviation of that error over 60 seeds (0.24 on S3, 0.10 on
    S2), so it fails a broken estimator, not an unlucky seed.
    """

    def __init__(self, scenario, config, tolerance, spans):
        self.scenario = scenario
        self.config = config
        self.tolerance = tolerance
        self.spans = spans

    def prepare(self, seed, workdir):
        """Write the input CSV and run config; the seed drives both."""
        path = workdir / "input.csv"
        oracle = _panel_file(self.scenario, seed, path)
        with open(workdir / "config.json", "w", encoding="utf-8") as fh:
            json.dump(dict(self.config, seed=seed), fh)
        return {"csv": path.name, "config": "config.json", "scenario": self.scenario,
                "scenario_seed": seed, "sha256": sha256(path),
                "true_overall_att": oracle.true_overall_att}

    def warm_up(self, runner, workdir):
        """One call of the same command and mode on a small S1 panel, B=3."""
        path = workdir / "warmup.csv"
        _panel_file("S1", 1, path)
        config = workdir / "warmup.json"
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(dict(self.config, bootstrap=dict(self.config["bootstrap"], B=3)), fh)
        code = runner(["run", "--config", str(config), "--input", str(path),
                       "--output", str(workdir / "warmup")])
        if code != 0:
            raise RuntimeError(f"warm-up run exited {code}")

    def op_argv(self, inp, workdir, outdir):
        return ["run", "--config", str(workdir / inp["config"]),
                "--input", str(workdir / inp["csv"]), "--output", str(outdir)]

    def check(self, runner, inp, outdir, code):
        """Exit code 0, ``diagnose`` exit code 0, a sane results.json.

        Whether the reported CI covers the oracle ATT is recorded, not
        required: a 95% CI misses on about one input in twenty by design.
        """
        if code != 0:
            return {"ok": False, "why": f"run exited {code}"}
        code = runner(["diagnose", str(outdir)])
        if code != 0:
            return {"ok": False, "why": f"diagnose exited {code}"}
        with open(outdir / "results.json", encoding="utf-8") as fh:
            res = json.load(fh)
        overall, boot = res["overall"], res["bootstrap"]
        att, lo, hi = overall["att"], overall["ci_low"], overall["ci_high"]
        truth = inp["true_overall_att"]
        expected = self.config["bootstrap"]
        why = []
        if not _finite(att, lo, hi) or not lo <= hi:
            why.append(f"bad overall estimate {overall}")
        elif abs(att - truth) > self.tolerance:
            why.append(f"ATT {att} is more than {self.tolerance} from the oracle {truth}")
        if boot is None or boot["B"] != expected["B"] or boot["mode"] != expected["mode"]:
            why.append(f"bootstrap {boot} does not match {expected}")
        if "placebo_shift" in self.config and res["diagnostics"]["placebo"] is None:
            why.append("placebo report missing")
        out = {"ok": not why, "covered": _finite(lo, hi) and lo <= truth <= hi,
               "att": att, "n_failed": None if boot is None else boot["n_failed"],
               "B": None if boot is None else boot["B"]}
        if why:
            out["why"] = "; ".join(why)
        return out


class MonteCarloWorkload:
    """``sdidml benchmark``: generate-and-estimate Monte Carlo, in memory."""

    def __init__(self, scenario, reps, B, tolerance, spans):
        self.scenario = scenario
        self.reps = reps
        self.B = B
        self.tolerance = tolerance
        self.spans = spans

    def prepare(self, seed, workdir):
        """Replicate r of the study uses seed ``seed * reps + r``."""
        mc_seed = seed * self.reps
        # The study generates its panels itself; record the first one's hash.
        path = workdir / "first_panel.csv"
        _panel_file(self.scenario, mc_seed, path)
        return {"scenario": self.scenario, "mc_seed": mc_seed, "reps": self.reps,
                "first_panel_sha256": sha256(path)}

    def warm_up(self, runner, workdir):
        code = runner(self._argv("S1", 2, 1, 3, workdir / "warmup"))
        if code != 0:
            raise RuntimeError(f"warm-up benchmark exited {code}")

    def _argv(self, scenario, reps, seed, B, outdir):
        return ["benchmark", scenario, "--reps", str(reps), "--seed", str(seed),
                "--bootstrap-reps", str(B), "--bootstrap-mode", "fixed_nuisance",
                "--out", str(outdir)]

    def op_argv(self, inp, workdir, outdir):
        return self._argv(self.scenario, self.reps, inp["mc_seed"], self.B, outdir)

    def check(self, runner, inp, outdir, code):
        """Exit code 0 and a comparison.json that holds both methods."""
        if code != 0:
            return {"ok": False, "why": f"benchmark exited {code}"}
        with open(outdir / "comparison.json", encoding="utf-8") as fh:
            methods = json.load(fh)["methods"]
        why = []
        for name in ("sdidml", "twfe"):
            m = methods.get(name)
            if (m is None or m["n_reps"] != self.reps or m["coverage"] is None
                    or not _finite(m["bias"], m["rmse"])):
                why.append(f"method {name} missing or incomplete")
        if not why and abs(methods["sdidml"]["bias"]) > self.tolerance:
            why.append(f"sdidml bias {methods['sdidml']['bias']} exceeds {self.tolerance}")
        out = {"ok": not why}
        if why:
            out["why"] = "; ".join(why)
        return out


# Spans that must fire during the traced operations of each workload.
_ESTIMATION = ("cli.main", "pipeline.estimate_effects", "crossfit.crossfit_nuisance",
               "learners.fit.ridge", "learners.fit.logistic", "learners.predict",
               "didcore.estimate_group_time", "panel.PanelDataset")
_RUN = _ESTIMATION + ("pipeline.run_pipeline", "panel.read_panel_csv",
                      "aggregate.aggregate_schemes", "aggregate.pretrend_test")
_FULL = _RUN + ("aggregate.bootstrap.full", "panel.subset_units")

WORKLOADS = {
    "s3-full": RunWorkload("S3", {"bootstrap": {"B": 6, "mode": "full"}},
                           tolerance=1.5, spans=_FULL),
    "s2-full": RunWorkload("S2", {"bootstrap": {"B": 40, "mode": "full"}},
                           tolerance=0.6, spans=_FULL),
    "s3-fixed": RunWorkload(
        "S3", {"bootstrap": {"B": 199, "mode": "fixed_nuisance"}, "placebo_shift": 1},
        tolerance=1.5,
        spans=_RUN + ("aggregate.bootstrap.fixed_nuisance", "didcore.group_time_cells",
                      "aggregate.placebo_test")),
    "mc-s1": MonteCarloWorkload(
        "S1", reps=10, B=99, tolerance=0.25,
        spans=_ESTIMATION + ("simulate.monte_carlo", "simulate.generate",
                             "aggregate.bootstrap.fixed_nuisance",
                             "didcore.group_time_cells", "didcore.twfe_baseline")),
}
