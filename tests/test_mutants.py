"""The mutation ledger of tests/mutants.py: every mutant applies to the
source as it is, and its listed tests kill it."""

import pytest

import mutants


def test_each_mutant_applies_once_and_lists_its_killers():
    for name, m in mutants.MUTANTS.items():
        path = mutants.ROOT / "src" / "sftstring" / m.file
        assert mutants.mutate(path.read_text(encoding="utf-8"), m) != \
            path.read_text(encoding="utf-8"), name
        assert m.nodes and all(node.startswith("tests/test_")
                               for node in m.nodes), name


@pytest.mark.parametrize("name", list(mutants.MUTANTS))
def test_mutant_is_killed(name):
    assert mutants.run(name) == "killed"
