"""Smoke test of the sharpness probe script: scalar table plus matrix fuzz."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "sharpness_probe.py"


def load_script():
    spec = importlib.util.spec_from_file_location("sharpness_probe", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_runs_table_and_fuzz(capsys):
    probe = load_script()
    assert probe.main(["--fuzz-trials", "5", "--alphas", "0.8", "--rs", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "smallest scalar headroom" in out
    assert "C12 at alpha=1.2: min normalized margin" in out
    assert "over 5 trials" in out
