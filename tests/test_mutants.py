"""scripts/mutants.py's table against the code it mutates; running the
mutants is the script's own job, not this module's."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

MUTANTS = {mutant.name: mutant for mutant in mutants.MUTANTS}


def test_mutant_names_are_distinct():
    assert len(MUTANTS) == len(mutants.MUTANTS)


@pytest.mark.parametrize("name", list(MUTANTS))
def test_each_old_text_occurs_exactly_once(name):
    # A change that moves the code updates its mutant in the same diff.
    mutant = MUTANTS[name]
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1


@pytest.mark.parametrize("name", list(MUTANTS))
def test_each_test_named_is_defined(name):
    assert MUTANTS[name].tests
    for test in MUTANTS[name].tests:
        path, *names = re.sub(r"\[.*\]$", "", test).split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        for found in names:
            assert re.search(rf"^\s*(class|def) {found}\b", source, re.M), test
