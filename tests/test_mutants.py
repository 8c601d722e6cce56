"""Each mutant of ``tools/mutants.py`` still finds the text it changes:
its old text occurs exactly once in its file, so an edit of ``src/`` that
moves that text shows here, not only when the mutants next run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name, path, old, new", [m[:4] for m in mutants.MUTANTS],
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_text_occurs_once(name, path, old, new):
    assert old != new
    assert (ROOT / path).read_text().count(old) == 1
