import json
from dataclasses import replace

import pytest

from sdidml import cli
from sdidml.panel import read_panel_csv, write_panel_csv
from sdidml.simulate import generate, scenario


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
    {"bootstrap.B": 5},
    {"g_learner": {"kind": "gbt", "n_trees": 2.5}},
    {"g_learner": {"kind": "ridge", "lambda": True}},
    {"g_learner": {"kind": "gbt", "max_depth": 2.0}},
    {"m_learner": {"kind": "logistic", "tol": True}},
], ids=["K_string", "B_string", "seed_string", "seed_float", "anticipation_null",
        "allow_no_crossfit_string", "aggregation_string", "threads_bool",
        "dotted_key", "learner_n_trees_float", "learner_lambda_bool",
        "learner_max_depth_float", "learner_tol_bool"])
def test_malformed_config_exits_2(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(path), "--input", str(tmp_path / "x.csv"),
                     "--output", str(out)]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert (error["code"], error["type"]) == (2, "ConfigError")
    assert not out.exists()


def test_run_config_round_trips_every_key():
    d = {"input_path": "in.csv", "output_dir": "out",
         "g_learner": {"kind": "lasso", "lambda": 0.05, "max_iter": 500, "tol": 1e-6},
         "m_learner": {"kind": "logistic", "lambda": 0.5, "max_iter": 100, "tol": 1e-8},
         "K": 4, "clip_eps": 0.02, "control_rule": "not_yet_treated", "anticipation": 1,
         "estimator": "interacted_regression", "aggregation": ["overall", "by_group"],
         "bootstrap": {"B": 7, "mode": "fixed_nuisance"}, "ci_level": 0.9, "seed": 11,
         "placebo_shift": 2, "threads": 3, "allow_no_crossfit": True}
    cfg = cli.RunConfig.from_dict(d)
    assert cfg.to_dict() == d
    assert cli.RunConfig.from_dict(cfg.to_dict()) == cfg


def test_config_echo_reproduces_results(tmp_path):
    panel = tmp_path / "panel.csv"
    write_panel_csv(generate(replace(scenario("S1"), n_units=40, seed=5)).panel, panel)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"estimator": "interacted", "anticipation": 1,
                                  "bootstrap": {"B": 3, "mode": "full"}, "seed": 4}))
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(config), "--input", str(panel),
                     "--output", str(out)]) == 0
    first = (out / "results.json").read_bytes()
    echo = json.loads(first)["config_echo"]
    assert echo["estimator"] == "interacted_regression"
    config.write_text(json.dumps(echo))
    assert cli.main(["run", "--config", str(config)]) == 0
    assert (out / "results.json").read_bytes() == first
