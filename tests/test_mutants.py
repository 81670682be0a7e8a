"""`scripts/mutants.py`'s catalogue still points at the code it mutates."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import mutants  # noqa: E402


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_old_text_occurs_exactly_once(mutant):
    assert mutant.edits
    assert all(old != new for old, new in mutant.edits)
    assert mutants.occurrences(mutant) == [1] * len(mutant.edits)
    for test in mutant.tests:
        assert (mutants.ROOT / test.split("::")[0]).is_file(), test


def test_catalogue_names_are_unique_and_cover_the_hop_tables():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 8
    assert sum(name.startswith(("hop-", "white-")) for name in names) >= 4
