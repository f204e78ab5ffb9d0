"""Smoke runs of the scripts in scripts/ on small inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# script: (arguments, files it must write into --out)
RUNS = {
    "demo_blobs": (["--per-class", "30", "--k", "6"], ["layout.svg", "selection.csv"]),
    "run_spatial_benchmark": (
        ["--train-per-class", "4", "--test-per-class", "4", "--pool-size", "40",
         "--dict-size", "8", "--random-draws", "1"],
        ["predictions_aware.csv", "report_aware.txt", "predictions_blind.csv", "report_blind.txt"],
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_runs(tmp_path, capsys, name):
    args, outputs = RUNS[name]
    assert load_script(name).main([*args, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out
    for output in outputs:
        assert (tmp_path / output).stat().st_size > 0, output
