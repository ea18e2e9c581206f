"""Every script under ``examples/`` runs end to end.

Each one runs as ``__main__`` through ``runpy`` with stdout captured, so a
change that breaks a documented flow fails here rather than in a reader's
terminal.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def test_examples_found():
    assert EXAMPLES  # an empty parameter set would skip silently


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
