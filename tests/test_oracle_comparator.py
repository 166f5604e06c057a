"""The dev oracle-gate comparator (tools/check_oracles.py): rank
tie-swap tolerance (ADVICE r3 low #4) must absorb a single float-tie
swap but still fail real ordering or membership bugs."""


import pandas as pd

from check_oracles import compare  # noqa: E402


def _frame(rows):
    return pd.DataFrame(rows, columns=["query_id", "vec_id", "rank"])


BASE = _frame([(0, 10, 1), (0, 11, 2), (0, 12, 3), (1, 20, 1), (1, 21, 2)])


def test_exact_match_passes():
    assert compare("t", BASE.copy(), BASE.copy()) == []


def test_single_tie_swap_tolerated(capsys):
    # vec 11 and 12 have near-identical scores: engines swap ranks 2/3
    swapped = _frame([(0, 10, 1), (0, 11, 3), (0, 12, 2), (1, 20, 1), (1, 21, 2)])
    assert compare("t", BASE.copy(), swapped) == []
    assert "tie-swap tolerated" in capsys.readouterr().out


def test_membership_difference_still_fails():
    other = _frame([(0, 10, 1), (0, 11, 2), (0, 99, 3), (1, 20, 1), (1, 21, 2)])
    assert compare("t", BASE.copy(), other) != []


def test_rank_multiset_difference_still_fails():
    other = _frame([(0, 10, 1), (0, 11, 2), (0, 12, 4), (1, 20, 1), (1, 21, 2)])
    assert compare("t", BASE.copy(), other) != []


def test_systematic_reversal_still_fails():
    a = _frame([(0, v, r) for r, v in enumerate(range(10, 20), 1)])
    rev = _frame([(0, v, 11 - r) for r, v in enumerate(range(10, 20), 1)])
    assert compare("t", a, rev) != []


def test_row_count_difference_still_fails():
    assert compare("t", BASE.copy(), BASE.iloc[:-1].copy()) != []
