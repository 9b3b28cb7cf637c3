"""The test suite's own configuration, checked by running pytest on a temporary test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    # every warning is an error here; hypothesis's failure report once
    # raised a DeprecationWarning from mypy_extensions inside pytest's
    # report hook, so pytest stopped with INTERNALERROR (exit 3) and never
    # showed the failure or ran the rest of the suite
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "\n"
        "@settings(max_examples=5, database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x != x\n"
    )
    argv = ["-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *argv, "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_fails.py::test_fails" in proc.stdout
