"""The experiment scripts run to completion on tiny inputs."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knowgrow

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["ba_baseline.py", "--sizes", "1000"],
    ["disruption_demo.py", "--papers", "500", "--set-size", "50"],
    ["growth_projections.py", "--until-year", "2024"],
], ids=lambda argv: argv[0])
def test_script_exits_zero(argv):
    src = str(Path(knowgrow.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
