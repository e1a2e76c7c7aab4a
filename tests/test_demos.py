import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env():
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # run from a scratch directory so an optional plot lands there
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs(tmp_path):
    # README's python blocks, as one script, so the documented API is run by the suite
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.DOTALL)
    assert blocks
    script = tmp_path / "readme_example.py"
    script.write_text("\n".join(blocks))
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)], cwd=tmp_path,
                            env=_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 3, result.stdout
