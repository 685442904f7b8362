"""The scripts under scripts/ run end to end, from the repository root and from elsewhere."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv, line",
    [
        (["scripts/fixpoint_growth.py", "12"], "== sqrt13 Salem unit on g=4"),
        (["scripts/salem_scan.py", "2", "2"], "x^4 - 1 x^3 + -1 x^2 - 1 x + 1 <- published construction"),
    ],
)
def test_script_runs(argv, line):
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert any(line in row for row in done.stdout.splitlines()), done.stdout


@pytest.mark.parametrize(
    "argv, line",
    [
        (["scripts/fixpoint_growth.py", "6"], "== sqrt13 Salem unit on g=4"),
        (["scripts/salem_scan.py", "1", "1"], "x^4 - 1 x^3 + -1 x^2 - 1 x + 1 <- published construction"),
    ],
)
def test_script_runs_outside_the_repository(tmp_path, argv, line):
    argv = [sys.executable, str(ROOT / argv[0]), *argv[1:]]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert any(line in row for row in done.stdout.splitlines()), done.stdout
