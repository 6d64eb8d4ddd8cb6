"""Smoke test of the sharpness probe script: scalar table plus matrix fuzz."""

from conftest import load_script


def test_probe_runs_table_and_fuzz(capsys):
    probe = load_script("sharpness_probe")
    assert probe.main(["--fuzz-trials", "5", "--alphas", "0.8", "--rs", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "smallest scalar headroom" in out
    assert "C12 at alpha=1.2: min normalized margin" in out
    assert "over 5 trials" in out
