import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sdidml
from sdidml import cli
from sdidml.config import PipelineConfig
from sdidml.crossfit import assign_folds
from sdidml.panel import read_panel_csv, write_panel_csv
from sdidml.simulate import generate, scenario


def strict_json(text):
    """Parse ``text`` (str or bytes) as strict JSON: NaN and Infinity are errors."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def read_json(path):
    return strict_json(path.read_bytes())


def last_error(capsys) -> dict:
    """The JSON error line a failing command printed last on stderr."""
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


OVERLAP_FIELDS = {"g", "histogram", "min", "max", "n_units", "share_outside_05_95",
                  "n_clipped", "weak_overlap"}


def test_simulate_run_diagnose_round_trip(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "S1", "--seed", "3", "--out", str(sim)]) == 0
    assert read_panel_csv(sim / "panel.csv") == generate(replace(scenario("S1"), seed=3)).panel
    assert read_json(sim / "oracle.json")["seed"] == 3

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bootstrap": {"B": 5, "mode": "full"}, "placebo_shift": 1}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--input", str(sim / "panel.csv"),
                     "--output", str(out)]) == 0
    assert cli.main(["diagnose", str(out)]) == 0
    assert "error" not in capsys.readouterr().err

    # The report schema that diagnose and downstream readers depend on.
    diagnostics = read_json(out / "diagnostics.json")
    assert diagnostics == read_json(out / "results.json")["diagnostics"]
    assert set(diagnostics) == {"overlap", "pretrend", "placebo"}
    # One overlap row per cohort with a base period: S1's cohorts 4 and 6.
    assert [row["g"] for row in diagnostics["overlap"]] == [4, 6]
    assert all(set(row) == OVERLAP_FIELDS for row in diagnostics["overlap"])
    assert read_json(out / "results.json")["n_clipped"] == sum(
        row["n_clipped"] for row in diagnostics["overlap"])
    assert set(diagnostics["pretrend"]) == {"statistic", "dof", "p_value", "approximate",
                                            "per_e"}
    assert all(set(p) == {"e", "att", "se", "z"} for p in diagnostics["pretrend"]["per_e"])
    assert set(diagnostics["placebo"]) == {"shift", "pseudo_att", "ci_low", "ci_high",
                                           "ci_level"}


def test_not_yet_treated_with_anticipation_round_trip(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "S2", "--seed", "2", "--out", str(sim)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"control_rule": "not_yet_treated", "anticipation": 1,
                                  "bootstrap": {"B": 5, "mode": "fixed_nuisance"}}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--input", str(sim / "panel.csv"),
                     "--output", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["diagnose", str(out)]) == 0
    printed = capsys.readouterr()
    assert "error" not in printed.err

    # S2's cohorts 3, 5 and 7 have base periods 1, 3 and 5. Cohort g's
    # sample is g and the units adopting after g + 1: the later cohorts and
    # the never treated.
    overlap = read_json(out / "diagnostics.json")["overlap"]
    assert [row["g"] for row in overlap] == [3, 5, 7]
    assert all(set(row) == OVERLAP_FIELDS for row in overlap)
    panel = read_panel_csv(sim / "panel.csv")
    size = {g: int((panel.cohort_times == g).sum()) for g in (3, 5, 7, np.inf)}
    assert [row["n_units"] for row in overlap] == [
        sum(size.values()), size[5] + size[7] + size[np.inf], size[7] + size[np.inf]]
    lines = [line for line in printed.out.splitlines() if line.startswith("overlap:")]
    assert [line.split()[1] for line in lines] == ["g=3", "g=5", "g=7"]


def test_a_zero_se_is_written_as_strict_json(tmp_path, capsys):
    # Four units over periods 1-5: cohorts 3, 4 and 5 and one never treated.
    # Under not_yet_treated, event time -4 is cohort 5 against the never
    # treated unit alone, so every replicate gives it the same value: its SE
    # is 0, its z-score and the pre-trend statistic infinite.
    lines = [f"{u},{t},{i * t % 3 + 2 * int(g is not None and t >= g)},"
             f"{int(g is not None and t >= g)}"
             for i, (u, g) in enumerate([("a", 3), ("b", 4), ("c", 5), ("n", None)])
             for t in range(1, 6)]
    panel = tmp_path / "panel.csv"
    panel.write_text("unit,time,outcome,treatment\n" + "\n".join(lines) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"control_rule": "not_yet_treated", "K": 2,
                                  "bootstrap": {"B": 19, "mode": "fixed_nuisance"}}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--input", str(panel),
                     "--output", str(out)]) == 0
    res, diagnostics = read_json(out / "results.json"), read_json(out / "diagnostics.json")
    pretrend = diagnostics["pretrend"]
    assert res["diagnostics"] == diagnostics
    assert [p["se"] for p in pretrend["per_e"] if p["e"] == -4] == [0.0]
    assert [p["z"] for p in pretrend["per_e"] if p["e"] == -4] == [None]
    assert pretrend["statistic"] is None
    capsys.readouterr()
    assert cli.main(["diagnose", str(out)]) == 0
    assert "statistic=null" in capsys.readouterr().out


def test_diagnose_rejects_the_per_row_overlap_block(tmp_path, capsys):
    # The overlap block before cohort propensities: one object over all rows.
    panel = tmp_path / "panel.csv"
    write_panel_csv(generate(replace(scenario("S1"), n_units=40, seed=5)).panel, panel)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bootstrap": {"B": 0}}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--input", str(panel),
                     "--output", str(out)]) == 0
    diagnostics = read_json(out / "diagnostics.json")
    diagnostics["overlap"] = {
        "histogram": [0] * 19 + [40], "bin_edges": [i / 20 for i in range(21)],
        "min": 0.01, "max": 0.99, "n_clipped": 12, "n_obs": 40,
        "share_outside_05_95": 0.3, "weak_overlap": True}
    (out / "diagnostics.json").write_text(json.dumps(diagnostics))
    assert cli.main(["diagnose", str(out)]) == 3
    error = last_error(capsys)
    assert (error["code"], error["type"]) == (3, "DataError")


@pytest.mark.parametrize("config", [
    {"K": "five"},
    {"K": 1},
    {"allow_no_crossfit": True},
    {"bootstrap": {"B": "many"}},
    {"seed": "x"},
    {"seed": 2.7},
    {"anticipation": None},
    {"allow_no_crossfit": "false", "K": 1},
    {"aggregation": "overall"},
    {"aggregation": ["overall", "event_time"]},
    {"threads": True},
    {"threads": 2},
    {"estimator": "contrast"},
    {"bootstrap.B": 5},
    {"g_learner": {"kind": "gbt", "n_trees": 2.5}},
    {"g_learner": {"kind": "ridge", "lambda": True}},
    {"g_learner": {"kind": "gbt", "max_depth": 2.0}},
    {"g_learner": {"kind": "gradient_boosted_trees"}},
    {"m_learner": {"kind": "logistic", "tol": True}},
    {"placebo_shift": 0},
    {"placebo_shift": -1},
    {"bootstrap": {"B": 1}},
    {"g_learner": {"kind": "ridge", "lambda": 1.0, "n_trees": 5}},
    {"g_learner": {"kind": "mean", "lambda": 3}},
    {"m_learner": {"kind": "logistic", "min_leaf": 2}},
    {"ci_level": 10 ** 400},
    {"g_learner": {"kind": "ridge", "lambda": math.nan}},
    {"clip_eps": math.inf},
    {"m_learner": {"kind": "logistic", "tol": -math.inf}},
], ids=["K_string", "K_one", "allow_no_crossfit", "B_string", "seed_string", "seed_float",
        "anticipation_null", "allow_no_crossfit_string", "aggregation_string",
        "aggregation_list", "threads_bool", "threads_int", "estimator", "dotted_key", "learner_n_trees_float",
        "learner_lambda_bool", "learner_max_depth_float", "learner_long_gbt_name",
        "learner_tol_bool", "placebo_shift_zero", "placebo_shift_negative", "B_one",
        "ridge_n_trees", "mean_lambda", "logistic_min_leaf", "ci_level_overflow",
        "learner_lambda_nan", "clip_eps_infinity", "learner_tol_minus_infinity"])
def test_malformed_config_exits_2(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(path), "--input", str(tmp_path / "x.csv"),
                     "--output", str(out)]) == 2
    error = last_error(capsys)
    assert (error["code"], error["type"]) == (2, "ConfigError")
    assert not out.exists()


@pytest.mark.parametrize("change", [
    {"n_units": 20.5},
    {"seed": 1.5},
    {"seed": True},
    {"n_time_varying": True},
    {"effect": {"kind": "homogeneous", "tau": "1"}},
    {"cohort_shares": [[4.5, 0.5]]},
    {"effect": {"kind": "homogeneous", "tau": 1.0, "tau_a": 2.0}},
    {"cohort_shares": {"4": 0.25, "6": 0.25}},
    {"noise_sd": 10 ** 400},
    {"noise_sd": math.nan},
    {"effect": {"kind": "homogeneous", "tau": math.inf}},
    {"effect": {"kind": "dynamic", "by_event_time": [1.0, -math.inf]}},
], ids=["n_units_float", "seed_float", "seed_bool", "n_time_varying_bool",
        "tau_string", "cohort_time_float", "homogeneous_tau_a", "cohort_shares_object",
        "noise_sd_overflow", "noise_sd_nan", "tau_infinity", "by_event_time_minus_infinity"])
def test_malformed_dgp_config_exits_2(tmp_path, capsys, change):
    path = tmp_path / "dgp.json"
    path.write_text(json.dumps(dict(scenario("S1").to_dict(), **change)))
    out = tmp_path / "sim"
    assert cli.main(["simulate", str(path), "--out", str(out)]) == 2
    error = last_error(capsys)
    assert (error["code"], error["type"]) == (2, "InvalidConfigError")
    assert not out.exists()


@pytest.mark.parametrize("text", ["[1, 2]", "null", '"S1"'], ids=["list", "null", "string"])
def test_dgp_config_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "dgp.json"
    path.write_text(text)
    out = tmp_path / "sim"
    assert cli.main(["simulate", str(path), "--out", str(out)]) == 2
    error = last_error(capsys)
    assert (error["code"], error["type"]) == (2, "InvalidConfigError")
    assert not out.exists()


NOT_UTF8 = b"\xff\xfe{}"
NEGATIVE_SEED_DGP = json.dumps(dict(scenario("S1").to_dict(), seed=-2)).encode()
SIX_UNITS_CSV = ("unit,time,outcome,treatment\n" + "".join(
    f"{u},{t},{t}.5,{int(u in 'AB' and t == 2)}\n" for u in "ABCDEF" for t in (1, 2))).encode()


# (input files, argv with @name for the path tmp_path / name, exit code, error type)
BAD_INPUTS = {
    "run_config_not_utf8": ({"c.json": NOT_UTF8, "p.csv": SIX_UNITS_CSV},
                            "run --config @c.json --input @p.csv --output @out",
                            2, "ConfigError"),
    "run_config_nested_too_deep": ({"c.json": b"[" * 100_000, "p.csv": SIX_UNITS_CSV},
                                   "run --config @c.json --input @p.csv --output @out",
                                   2, "ConfigError"),
    "simulate_dgp_not_utf8": ({"dgp.json": NOT_UTF8}, "simulate @dgp.json --out @out",
                              2, "InvalidConfigError"),
    "benchmark_dgp_not_utf8": ({"dgp.json": NOT_UTF8},
                               "benchmark @dgp.json --reps 1 --out @out",
                               2, "InvalidConfigError"),
    "run_seed_flag": ({"p.csv": SIX_UNITS_CSV}, "run --seed -1 --input @p.csv --output @out",
                      2, "ConfigError"),
    "run_config_seed": ({"c.json": b'{"seed": -1}', "p.csv": SIX_UNITS_CSV},
                        "run --config @c.json --input @p.csv --output @out",
                        2, "ConfigError"),
    "simulate_seed_flag": ({}, "simulate S1 --seed -3 --out @out", 2, "InvalidConfigError"),
    "benchmark_seed_flag": ({}, "benchmark S1 --reps 1 --seed -3 --out @out",
                            2, "ConfigError"),
    "dgp_seed": ({"dgp.json": NEGATIVE_SEED_DGP}, "simulate @dgp.json --out @out",
                 2, "InvalidConfigError"),
    "diagnose_artifact_not_utf8": ({"run/results.json": b"{}",
                                    "run/diagnostics.json": NOT_UTF8},
                                   "diagnose @run", 3, "DataError"),
}


@pytest.mark.parametrize("files, argv, code, kind", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_files_and_seeds_exit_with_the_json_error_line(tmp_path, files, argv,
                                                                 code, kind):
    # A fresh interpreter, so that an uncaught exception shows as exit code 1
    # and a traceback, as a user would see it.
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    env = dict(os.environ, PYTHONPATH=str(Path(sdidml.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-m", "sdidml.cli",
                          *(str(tmp_path / arg[1:]) if arg[0] == "@" else arg
                            for arg in argv.split())],
                         capture_output=True, text=True, env=env)
    assert out.returncode == code
    assert "Traceback" not in out.stderr
    error = json.loads(out.stderr.splitlines()[-1])["error"]
    assert (error["code"], error["type"]) == (code, kind)
    assert not (tmp_path / "out").exists()


def test_run_has_no_no_crossfit_flag(tmp_path, capsys):
    # cross-fitting always holds out a fold, so no flag lets K=1 run
    assert cli.main(["run", "--allow-no-crossfit", "--input", str(tmp_path / "x.csv"),
                     "--output", str(tmp_path / "run")]) == 2
    error = last_error(capsys)
    assert error["code"] == 2
    assert "unrecognized arguments: --allow-no-crossfit" in error["message"]
    assert not (tmp_path / "run").exists()


def test_usage_error_ends_stderr_with_the_json_error_line(tmp_path, capsys):
    assert cli.main(["benchmark", "S1", "--reps", "1", "--bootstrap-mode", "bogus",
                     "--out", str(tmp_path / "bench")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: sdidml benchmark")
    error = json.loads(err.splitlines()[-1])["error"]
    assert error["code"] == 2
    assert "invalid choice: 'bogus'" in error["message"]
    assert not (tmp_path / "bench").exists()
    assert cli.main(["benchmark", "--help"]) == 0
    assert capsys.readouterr().err == ""


def test_benchmark_csv_holds_the_rows_of_comparison_json(tmp_path):
    out = tmp_path / "bench"
    assert cli.main(["benchmark", "S1", "--reps", "2", "--bootstrap-reps", "0",
                     "--out", str(out)]) == 0
    methods = read_json(out / "comparison.json")["methods"]
    assert methods["sdidml"]["coverage"] is None  # no bootstrap, no interval
    with open(out / "comparison.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "bias", "rmse", "coverage"]
    assert rows[1:] == [[m, repr(r["bias"]), repr(r["rmse"]),
                         "" if r["coverage"] is None else repr(r["coverage"])]
                        for m, r in methods.items()]
    assert (out / "comparison.csv").read_bytes().endswith(b"\r\n")


def test_unreadable_input_csv_exits_3(tmp_path, capsys):
    assert cli.main(["run", "--input", str(tmp_path / "missing.csv"),
                     "--output", str(tmp_path / "run")]) == 3
    error = last_error(capsys)
    assert (error["code"], error["type"]) == (3, "DataError")


def test_non_utf8_input_csv_exits_3(tmp_path, capsys):
    panel = tmp_path / "panel.csv"
    panel.write_bytes(b"\xff\xfeu\x00n\x00i\x00t\x00")
    assert cli.main(["run", "--input", str(panel), "--output", str(tmp_path / "run")]) == 3
    error = last_error(capsys)
    assert (error["code"], error["type"]) == (3, "DataError")


@pytest.mark.parametrize("quote", ['"', ""], ids=["quoted", "plain"])
def test_csv_the_csv_module_cannot_tokenize_exits_3(tmp_path, capsys, quote):
    # A field longer than csv.field_size_limit() (131,072 characters).
    panel = tmp_path / "panel.csv"
    long_id = quote + "u" * 200_000 + quote
    panel.write_text(f"unit,time,outcome,treatment\nA,1,0.0,0\n{long_id},1,0.0,0\n",
                     encoding="utf-8")
    assert cli.main(["run", "--input", str(panel), "--output", str(tmp_path / "run")]) == 3
    error = last_error(capsys)
    assert (error["code"], error["type"]) == (3, "DataError")
    assert str(panel) in error["message"] and "line 3" in error["message"]


@pytest.mark.parametrize("name, content", [
    ("results.json", "{"), ("diagnostics.json", "{"),
    ("results.json", "{}"), ("diagnostics.json", "{}"), ("results.json", "[]"),
], ids=["results_truncated", "diagnostics_truncated", "results_empty_object",
        "diagnostics_empty_object", "results_list"])
def test_diagnose_malformed_artifacts_exits_3(tmp_path, capsys, name, content):
    panel = tmp_path / "panel.csv"
    write_panel_csv(generate(replace(scenario("S1"), n_units=40, seed=5)).panel, panel)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bootstrap": {"B": 0}}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--input", str(panel),
                     "--output", str(out)]) == 0
    (out / name).write_text(content)
    assert cli.main(["diagnose", str(out)]) == 3
    error = last_error(capsys)
    assert (error["code"], error["type"]) == (3, "DataError")


@pytest.mark.parametrize("command, work", [
    ("run", "run_pipeline"), ("simulate", "generate"), ("benchmark", "monte_carlo")])
def test_output_path_taken_by_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                             command, work):
    panel = tmp_path / "panel.csv"
    write_panel_csv(generate(replace(scenario("S1"), n_units=40, seed=5)).panel, panel)
    taken = tmp_path / "taken"
    taken.write_text("")

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output directory was made")

    monkeypatch.setattr(cli, work, no_work)
    argv = {"run": ["run", "--input", str(panel), "--output"],
            "simulate": ["simulate", "S1", "--out"],
            "benchmark": ["benchmark", "S1", "--reps", "1", "--out"]}[command]
    assert cli.main(argv + [str(taken)]) == 2
    error = last_error(capsys)
    assert (error["code"], error["type"]) == (2, "ConfigError")


def test_run_config_round_trips_every_key():
    d = {"input_path": "in.csv", "output_dir": "out",
         "g_learner": {"kind": "lasso", "lambda": 0.05, "max_iter": 500, "tol": 1e-6},
         "m_learner": {"kind": "logistic", "lambda": 0.5, "max_iter": 100, "tol": 1e-8},
         "K": 4, "clip_eps": 0.02, "control_rule": "not_yet_treated", "anticipation": 1,
         "bootstrap": {"B": 7, "mode": "fixed_nuisance"}, "ci_level": 0.9, "seed": 11,
         "placebo_shift": 2}
    cfg = cli.RunConfig.from_dict(d)
    assert cfg.to_dict() == d
    assert cli.RunConfig.from_dict(cfg.to_dict()) == cfg


def test_config_echo_reproduces_results(tmp_path):
    panel = tmp_path / "panel.csv"
    write_panel_csv(generate(replace(scenario("S1"), n_units=40, seed=5)).panel, panel)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"anticipation": 1, "bootstrap": {"B": 3, "mode": "full"},
                                  "seed": 4}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--input", str(panel),
                     "--output", str(out)]) == 0
    first = (out / "results.json").read_bytes()
    echo = strict_json(first)["config_echo"]
    config.write_text(json.dumps(echo))
    assert cli.main(["run", "--config", str(config)]) == 0
    assert (out / "results.json").read_bytes() == first


def test_csv_files_hold_the_rows_of_results_json(tmp_path):
    # group_time.csv and event_curve.csv are written from the rows that
    # results.json holds, and its folds are the run seed's fold array keyed
    # by unit id.
    panel = generate(replace(scenario("S2"), n_units=60, seed=4)).panel
    write_panel_csv(panel, tmp_path / "panel.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"control_rule": "not_yet_treated", "seed": 8,
                                  "bootstrap": {"B": 5, "mode": "fixed_nuisance"}}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--input", str(tmp_path / "panel.csv"),
                     "--output", str(out)]) == 0
    res = read_json(out / "results.json")

    def rows(name, floats):
        with open(out / name, newline="", encoding="utf-8") as fh:
            return [{k: (None if v == "" else float(v) if k in floats else int(v))
                     for k, v in row.items()} for row in csv.DictReader(fh)]

    cells = res["group_time"]["cells"]
    assert cells and rows("group_time.csv", {"tau"}) == cells
    curve = [{k: v for k, v in point.items() if k != "se"} for point in res["event_curve"]]
    assert curve and rows("event_curve.csv", {"att", "ci_low", "ci_high"}) == curve
    folds = assign_folds(panel, PipelineConfig().n_folds, 8)
    assert res["folds"] == dict(zip(panel.units, folds.tolist()))
