"""Every narrative script under ``demos/`` runs to the end against the
library in ``src/``, so a change of the public API cannot leave a demo
broken, and prints the bytes of its golden file
``tests/golden/demo-<name>.txt``, so a change of the library cannot move
what a demo reports. Regenerate those files with the others (see
``tests/test_golden.py``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


def demo_golden(demo: Path) -> Path:
    return GOLDEN / f"demo-{demo.stem}.txt"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """The demo run against ``src/``, its stdout as bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    result = run_demo(demo)
    stderr = result.stderr.decode(errors="replace")
    assert result.returncode == 0, stderr
    assert "Traceback" not in stderr
    assert result.stdout == demo_golden(demo).read_bytes()
