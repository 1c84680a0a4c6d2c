import json
from dataclasses import replace

import pytest

from sdidml import cli
from sdidml.panel import read_panel_csv, write_panel_csv
from sdidml.simulate import generate, scenario


def last_error(capsys) -> dict:
    """The JSON error line a failing command printed last on stderr."""
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def test_simulate_run_diagnose_round_trip(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "S1", "--seed", "3", "--out", str(sim)]) == 0
    assert read_panel_csv(sim / "panel.csv") == generate(replace(scenario("S1"), seed=3)).panel

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bootstrap": {"B": 5, "mode": "full"}}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--input", str(sim / "panel.csv"),
                     "--output", str(out)]) == 0
    assert cli.main(["diagnose", str(out)]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"K": "five"},
    {"bootstrap": {"B": "many"}},
    {"seed": "x"},
    {"seed": 2.7},
    {"anticipation": None},
    {"allow_no_crossfit": "false", "K": 1},
    {"aggregation": "overall"},
    {"threads": True},
    {"threads": 2},
    {"estimator": "contrast"},
    {"bootstrap.B": 5},
    {"g_learner": {"kind": "gbt", "n_trees": 2.5}},
    {"g_learner": {"kind": "ridge", "lambda": True}},
    {"g_learner": {"kind": "gbt", "max_depth": 2.0}},
    {"m_learner": {"kind": "logistic", "tol": True}},
], ids=["K_string", "B_string", "seed_string", "seed_float", "anticipation_null",
        "allow_no_crossfit_string", "aggregation_string", "threads_bool",
        "threads_int", "estimator", "dotted_key", "learner_n_trees_float", "learner_lambda_bool",
        "learner_max_depth_float", "learner_tol_bool"])
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
], ids=["n_units_float", "seed_float", "seed_bool", "n_time_varying_bool",
        "tau_string", "cohort_time_float"])
def test_malformed_dgp_config_exits_2(tmp_path, capsys, change):
    path = tmp_path / "dgp.json"
    path.write_text(json.dumps(dict(scenario("S1").to_dict(), **change)))
    out = tmp_path / "sim"
    assert cli.main(["simulate", str(path), "--out", str(out)]) == 2
    error = last_error(capsys)
    assert (error["code"], error["type"]) == (2, "InvalidConfigError")
    assert not out.exists()


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
         "aggregation": ["overall", "by_group"],
         "bootstrap": {"B": 7, "mode": "fixed_nuisance"}, "ci_level": 0.9, "seed": 11,
         "placebo_shift": 2, "allow_no_crossfit": True}
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
    echo = json.loads(first)["config_echo"]
    config.write_text(json.dumps(echo))
    assert cli.main(["run", "--config", str(config)]) == 0
    assert (out / "results.json").read_bytes() == first
