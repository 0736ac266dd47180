from math import comb, factorial

import pytest

import isotypic.partitions as partitions
from isotypic.partitions import (
    Partition,
    partitions_of,
    syt_count,
    weyl_dimension,
)
from oracles import (
    brute_partitions,
    brute_ssyt_count,
    brute_standard_tableaux,
    is_vertical_strip,
    vertical_strips,
)


def P(*parts):
    return Partition(parts)


def test_partitions_of_small():
    assert [p.parts for p in partitions_of(1)] == [(1,)]
    assert [p.parts for p in partitions_of(0)] == [()]


def test_partitions_of_builds_each_shape_once():
    # every call returns the cached Partitions in a list of its own
    first, second = partitions_of(5), partitions_of(5)
    assert first is not second
    assert all(a is b for a, b in zip(first, second)) and len(first) == 7
    first.clear()
    assert [p.parts for p in partitions_of(5)] == brute_partitions(5)


def test_partitions_of_four_matches_brute_enumeration():
    got = [p.parts for p in partitions_of(4)]
    assert got == brute_partitions(4)
    assert len(got) == 5


def test_partitions_of_matches_brute_enumeration_up_to_nine():
    for n in range(10):
        assert [p.parts for p in partitions_of(n)] == brute_partitions(n)


def test_conjugate_examples():
    assert P(5).conjugate() == P(1, 1, 1, 1, 1)
    assert P(2, 2, 1).conjugate() == P(3, 2)
    assert P().conjugate() == P()


def test_conjugate_validates_nothing(monkeypatch):
    # the conjugate of valid parts is valid, so conjugating builds no checked
    # Partition, and each shape's column lengths are counted once
    shapes = [lam for n in range(9) for lam in partitions_of(n)]
    partitions._conjugate_parts.cache_clear()
    validated = []
    checked = partitions._integers
    monkeypatch.setattr(partitions, "_integers", lambda e: validated.append(e) or checked(e))
    for _ in range(3):
        for lam in shapes:
            conj = lam.conjugate()
            cells = {(j, i) for i, part in enumerate(lam) for j in range(part)}
            assert type(conj) is Partition
            assert cells == {(i, j) for i, part in enumerate(conj) for j in range(part)}
    assert validated == []
    assert partitions._conjugate_parts.cache_info().misses == len(shapes)


def test_conjugate_involution_exhaustive():
    for n in range(13):
        for lam in partitions_of(n):
            assert lam.conjugate().conjugate() == lam


def test_dominates_examples():
    assert P(2, 1).dominates(P(1, 1, 1))
    assert not P(3, 3).dominates(P(4, 1, 1))
    assert not P(4, 1, 1).dominates(P(3, 3))
    assert P(3, 2).dominates(P(3, 2))


def test_dominates_rejects_unequal_sizes():
    assert not P(2).dominates(P(1))
    assert not P(1).dominates(P(2))
    assert not P(2, 1).dominates(P())


def test_dominance_is_a_partial_order():
    for n in range(9):
        shapes = partitions_of(n)
        for a in shapes:
            assert a.dominates(a)
            for b in shapes:
                if a.dominates(b) and b.dominates(a):
                    assert a == b
                for c in shapes:
                    if a.dominates(b) and b.dominates(c):
                        assert a.dominates(c)


def test_conjugation_reverses_dominance():
    for n in range(9):
        shapes = partitions_of(n)
        for a in shapes:
            for b in shapes:
                assert a.dominates(b) == b.conjugate().dominates(a.conjugate())


def test_syt_count_examples():
    assert syt_count(P(6)) == 1
    assert syt_count(P(1, 1, 1, 1)) == 1
    assert syt_count(P(2, 1)) == len(brute_standard_tableaux((2, 1))) == 2


def test_syt_count_matches_enumeration():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert syt_count(lam) == len(brute_standard_tableaux(lam.parts))


def test_syt_squares_sum_to_factorial():
    for n in range(1, 11):
        assert sum(syt_count(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_weyl_dimension_examples():
    assert weyl_dimension(P(1, 1, 1), 3) == 1  # the determinant representation
    assert weyl_dimension(P(2, 1, 1), 2) == 0  # too many rows
    assert weyl_dimension(P(2, 1), 2) == brute_ssyt_count((2, 1), 2) == 2


def test_weyl_dimension_matches_enumeration_and_product_formula():
    for n in range(0, 7):
        for lam in partitions_of(n):
            for d in range(1, 5):
                want = brute_ssyt_count(lam.parts, d)
                assert weyl_dimension(lam, d) == want


def test_vertical_strips_examples():
    assert [p.parts for p in vertical_strips(P(), 3, 5)] == [(1, 1, 1)]
    assert [p.parts for p in vertical_strips(P(1), 1, 5)] == [(2,), (1, 1)]
    got = {p.parts for p in vertical_strips(P(2, 1), 2, 9)}
    assert got == {(3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)}


def test_vertical_strips_match_brute_filter():
    for mu_n in range(0, 5):
        for mu in partitions_of(mu_n):
            for k in range(0, 4):
                for max_rows in (2, 3, 9):
                    want = [
                        lam
                        for lam in brute_partitions(mu_n + k)
                        if len(lam) <= max_rows and is_vertical_strip(mu.parts, lam)
                    ]
                    got = [p.parts for p in vertical_strips(mu, k, max_rows)]
                    assert sorted(got, reverse=True) == sorted(want, reverse=True)
                    assert got == sorted(got, reverse=True)


def test_pieri_dimension_identity():
    # adding a vertical k-strip tensors with the k-th exterior power
    for mu_n in range(0, 6):
        for mu in partitions_of(mu_n):
            for d in range(1, 5):
                for k in range(0, d + 1):
                    total = sum(
                        weyl_dimension(lam, d)
                        for lam in vertical_strips(mu, k, d)
                    )
                    assert total == weyl_dimension(mu, d) * comb(d, k)


def test_remove_first_column_examples():
    assert P(2, 2, 1).remove_first_column() == P(1, 1)
    assert P(1, 1, 1).remove_first_column() == P()
    assert P(3).remove_first_column() == P(2)


def test_remove_first_column_is_conjugate_first_part_drop():
    for n in range(11):
        for lam in partitions_of(n):
            conj = lam.conjugate().parts
            assert lam.remove_first_column().conjugate().parts == conj[1:]


def test_text_forms():
    assert Partition.from_text("3,2,2") == P(3, 2, 2)
    assert Partition.from_text("") == P()
    assert P(3, 2, 2).to_text() == "3,2,2"
    assert P().to_text() == ""


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])
    with pytest.raises(ValueError):
        Partition([-1])
