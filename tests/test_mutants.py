"""The mutation catalogue of tests/mutants.py cannot rot unseen."""

from mutants import MUTANTS, ROOT


def test_every_catalogued_text_occurs_once_in_src():
    for mutant in MUTANTS:
        assert mutant.path.startswith("src/"), mutant.name
        assert (ROOT / mutant.path).read_text().count(mutant.text) == 1, mutant.name
        assert mutant.replacement != mutant.text, mutant.name
        assert all((ROOT / test.split("::")[0]).is_file() for test in mutant.tests), mutant.name


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names))
