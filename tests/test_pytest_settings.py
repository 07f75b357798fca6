"""The suite's own pytest settings: a failing property still reports its example."""

from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_FAILING_PROPERTY = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_below_five(x):
    assert x < 5
"""


def test_a_failing_property_prints_its_falsifying_example(pytester):
    # under the repo's `filterwarnings = error`, a warning raised while hypothesis
    # reports the failure would end the run in INTERNALERROR (exit 3)
    test_file = pytester.makepyfile(test_property=_FAILING_PROPERTY)
    result = pytester.runpytest_subprocess(
        "-c", str(_PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider", test_file
    )
    assert result.ret == 1
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
