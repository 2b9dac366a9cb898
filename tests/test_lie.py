import pytest

from qcw.lie import hall_basis, witt_rank


def test_witt_rank_small_values():
    assert witt_rank(1, 2) == 0
    assert witt_rank(2, 2) == 1  # (4 - 2) / 2
    assert witt_rank(2, 3) == 2  # (8 - 2) / 3
    assert witt_rank(3, 3) == 8  # (27 - 3) / 3
    assert witt_rank(6, 3) == 70


def test_witt_rank_weight_one_is_n():
    for n in range(7):
        assert witt_rank(n, 1) == n


def test_hall_basis_examples():
    assert [e.tree for e in hall_basis(2, 1)] == [0, 1]
    assert [e.tree for e in hall_basis(2, 2)] == [(1, 0)]
    assert [e.tree for e in hall_basis(2, 3)] == [((1, 0), 0), ((1, 0), 1)]
    assert str(hall_basis(2, 3)[0]) == "[[x2,x1],x1]"


def test_hall_basis_counts_match_witt():
    for n in range(7):
        for w in (1, 2, 3):
            assert len(hall_basis(n, w)) == witt_rank(n, w)


def test_hall_basis_rejects_weight_four():
    with pytest.raises(ValueError):
        hall_basis(2, 4)


def test_relation_rank_free_class2():
    assert witt_rank(1, 3) == 0
    assert witt_rank(2, 3) == 2
    assert witt_rank(3, 3) == 8


def test_total_rank_monotone():
    totals = [sum(witt_rank(n, w) for w in (1, 2, 3)) for n in range(8)]
    assert all(a <= b for a, b in zip(totals, totals[1:]))
