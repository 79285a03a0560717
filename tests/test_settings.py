"""The repository's pytest settings: under its warning filters a failing
property test is reported as a failure, not as an INTERNALERROR (the
hypothesis plugin's report hook warns about mypy_extensions.TypedDict)."""

import os
import subprocess
import sys
import tomllib

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n != n
'''


def test_failing_property_test_is_a_failure(tmp_path):
    with open(os.path.join(_ROOT, "pyproject.toml"), "rb") as fh:
        ini = tomllib.load(fh)["tool"]["pytest"]["ini_options"]
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nfilterwarnings =\n"
        + "".join(f"    {f}\n" for f in ini["filterwarnings"]))
    (tmp_path / "test_failing.py").write_text(_FAILING)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                          "no:cacheprovider", "test_failing.py"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
