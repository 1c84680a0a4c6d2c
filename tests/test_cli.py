import json
from dataclasses import replace

from sdidml import cli
from sdidml.panel import read_panel_csv
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
