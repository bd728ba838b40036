from mutants import MUTANTS, occurrences


def test_every_mutant_fragment_occurs_exactly_once():
    # the table names source text; an edit that moves or duplicates it
    # must update the row, or the runner would mutate nothing or guess
    assert {m.name: occurrences(m) for m in MUTANTS if occurrences(m) != 1} == {}
