"""The report-only line-coverage plugin (``tests/linecov.py``)."""

import os
import subprocess
import sys

from tests.linecov import spans

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pytest(directory, *args):
    """Run pytest with the plugin loaded in ``directory``; its stdout."""
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join([REPO, str(directory)])
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "tests.linecov", *args],
        cwd=directory, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_spans_collapse_runs():
    assert spans([9, 3, 5, 4]) == "3-5, 9"
    assert spans([]) == ""


def test_plugin_lists_the_function_lines_no_test_ran(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def unused():\n    value = 2\n    return value\n"
    )
    (tmp_path / "test_mod.py").write_text(
        "from pkg.mod import used\n\n\n"
        "def test_used():\n    assert used() == 1\n"
    )
    out = _pytest(tmp_path, "--linecov", str(package), "test_mod.py")
    assert "mod.py: 2 unexecuted: 6-7" in out
    assert "linecov: 2 of 3 function-body lines unexecuted" in out


def test_plugin_is_off_without_its_flag(tmp_path):
    (tmp_path / "test_one.py").write_text("def test_one():\n    pass\n")
    assert "linecov" not in _pytest(tmp_path, "test_one.py")
