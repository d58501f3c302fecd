"""The scale ladder's first rung: one capped child process running `oil spectrum`."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("scale_ladder", ROOT / "scripts" / "scale_ladder.py")
ladder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ladder)


def test_first_spectrum_rung(tmp_path):
    name = next(iter(ladder.COMMANDS))
    assert name.startswith("spectrum")
    rung = ladder.run_rung(name, ladder.RUNGS[0], str(tmp_path))
    assert rung["exit"] == 0 and rung["last_line"] == "spectrum: PASS"
    assert 0 < rung["wall_s"] < ladder.LIMIT_S and rung["maxrss_mb"] > 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["params"]["lo"] == -512 and report["params"]["hi"] == 512
    assert len(rung["sha256"]) == 64
