import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isotypic.symgroup as symgroup
from isotypic.characters import central_idempotent
from isotypic.partitions import Partition, partitions_of
from isotypic.symgroup import (
    DEGREE_CAP,
    GroupAlgebraElement,
    Permutation,
    Tableau,
    _moved_sums,
    algebra_multiply,
    column_antisymmetrizer,
    compose,
    row_symmetrizer,
    subset_antisymmetrizer,
)
from oracles import all_permutations, reference_algebra_multiply, reference_block_sum


def perm_strategy(n):
    return st.permutations(list(range(1, n + 1))).map(Permutation)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, cycles)


def test_compose_identity():
    tau = cyc(4, (1, 3, 2))
    assert compose(Permutation.identity(4), tau) == tau
    assert compose(tau, Permutation.identity(4)) == tau


def test_compose_inverse():
    sigma = cyc(5, (1, 4), (2, 5, 3))
    assert compose(sigma, sigma.inverse()) == Permutation.identity(5)


def test_compose_convention():
    # (1 2) after (2 3) maps 1->2, 2->3, 3->1
    assert compose(cyc(3, (1, 2)), cyc(3, (2, 3))) == Permutation([2, 3, 1])


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation.identity(3), Permutation.identity(4))


def test_degree_zero_products():
    empty = Permutation(())
    assert compose(empty, empty) == empty
    one = GroupAlgebraElement.one(0)
    assert one * one == one == reference_algebra_multiply(one, one)


def test_sign_and_cycle_type_examples():
    p = Permutation.identity(4)
    assert (p.sign, p.cycle_type()) == (1, Partition([1, 1, 1, 1]))
    p = cyc(3, (1, 2))
    assert (p.sign, p.cycle_type()) == (-1, Partition([2, 1]))
    p = cyc(5, (1, 2, 3), (4, 5))
    assert (p.sign, p.cycle_type()) == (-1, Partition([3, 2]))


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(perm_strategy(n), perm_strategy(n), perm_strategy(n))))
@settings(max_examples=150, deadline=None)
def test_compose_associative_and_sign_homomorphism(triple):
    a, b, c = triple
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert compose(a, b).sign == a.sign * b.sign


def test_all_permutations_small():
    assert list(all_permutations(1)) == [Permutation([1])]
    perms3 = list(all_permutations(3))
    assert len(perms3) == 6
    assert len(set(perms3)) == 6
    # deterministic lexicographic order by image tuple
    assert perms3[0] == Permutation([1, 2, 3])
    assert perms3[-1] == Permutation([3, 2, 1])


def test_all_permutations_five_cycle_count():
    # n!/z with z = 5 for the class of 5-cycles
    count = sum(
        1 for p in all_permutations(5) if p.cycle_type() == Partition([5])
    )
    assert count == 24


def test_conjugacy_class_census():
    for n in range(1, 8):
        census = {}
        for p in all_permutations(n):
            key = p.cycle_type()
            census[key] = census.get(key, 0) + 1
        assert sum(census.values()) == factorial(n)
        for rho, size in census.items():
            z = 1
            mult = {}
            for part in rho:
                mult[part] = mult.get(part, 0) + 1
            for part, m in mult.items():
                z *= part**m * factorial(m)
            assert size == factorial(n) // z


def test_cycle_notation():
    assert str(Permutation.identity(3)) == "()"
    assert str(cyc(5, (1, 2), (3, 5))) == "(1 2)(3 5)"


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([0, 1])


def test_from_cycles_refuses_a_repeated_entry():
    # a repeat within a cycle or across cycles names no permutation
    for cycles, entry in (([[1, 1]], 1), ([[1, 2], [2, 3]], 2), ([[1, 2, 3, 1]], 1)):
        with pytest.raises(ValueError, match=f"cycle entry {entry} repeats"):
            Permutation.from_cycles(3, cycles)
    with pytest.raises(ValueError, match="out of range"):
        Permutation.from_cycles(3, [[1, 4]])
    assert Permutation.from_cycles(3, [[1], [2, 3]]) == Permutation([1, 3, 2])


def test_algebra_element_keys_are_permutations():
    with pytest.raises(ValueError, match="a key must be a Permutation"):
        GroupAlgebraElement(2, {(1, 2): 1})
    with pytest.raises(ValueError, match="does not match"):
        GroupAlgebraElement(2, {Permutation([1, 2, 3]): 1})


def test_algebra_identity_element():
    x = GroupAlgebraElement(3, {cyc(3, (1, 2)): Fraction(2), cyc(3, (1, 2, 3)): Fraction(-1, 3)})
    one = GroupAlgebraElement.one(3)
    assert x * one == x
    assert one * x == x


def test_algebra_antisymmetrizer_square():
    x = GroupAlgebraElement(2, {Permutation.identity(2): 1, cyc(2, (1, 2)): -1})
    assert x * x == x + x


def test_paper_column_antisymmetrizer():
    # tableau with rows {2,3,4} and {1,5}: columns {2,1}, {3,5}, {4}
    tableau = Tableau([[2, 3, 4], [1, 5]])
    left = GroupAlgebraElement(5, {Permutation.identity(5): 1, cyc(5, (1, 2)): -1})
    right = GroupAlgebraElement(5, {Permutation.identity(5): 1, cyc(5, (3, 5)): -1})
    b = column_antisymmetrizer(tableau)
    assert b == left * right
    assert len(b.terms) == 4
    assert b.terms.get(Permutation.identity(5), 0) == 1
    assert b.terms.get(cyc(5, (1, 2)), 0) == -1
    assert b.terms.get(cyc(5, (3, 5)), 0) == -1
    assert b.terms.get(cyc(5, (1, 2), (3, 5)), 0) == 1


def test_paper_row_symmetrizer():
    tableau = Tableau([[2, 3, 4], [1, 5]])
    a = row_symmetrizer(tableau)
    assert len(a.terms) == 12
    assert all(coeff == 1 for coeff in a.terms.values())
    top = GroupAlgebraElement(
        5,
        {
            Permutation.identity(5): 1,
            cyc(5, (2, 3)): 1,
            cyc(5, (2, 4)): 1,
            cyc(5, (3, 4)): 1,
            cyc(5, (2, 3, 4)): 1,
            cyc(5, (2, 4, 3)): 1,
        },
    )
    bottom = GroupAlgebraElement(5, {Permutation.identity(5): 1, cyc(5, (1, 5)): 1})
    assert a == top * bottom


def test_symmetrizer_extremes():
    single_column = Tableau([[1], [2], [3]])
    assert row_symmetrizer(single_column) == GroupAlgebraElement.one(3)
    assert len(column_antisymmetrizer(single_column).terms) == 6
    single_row = Tableau([[1, 2, 3]])
    assert column_antisymmetrizer(single_row) == GroupAlgebraElement.one(3)
    assert len(row_symmetrizer(single_row).terms) == 6
    pair_column = Tableau([[1], [2]])
    assert column_antisymmetrizer(pair_column) == GroupAlgebraElement(
        2, {Permutation.identity(2): 1, cyc(2, (1, 2)): -1}
    )


def _random_tableau(rng, n):
    shapes = partitions_of(n)
    return _random_filling(rng, shapes[rng.randrange(len(shapes))])


def _random_filling(rng, shape):
    entries = list(range(1, shape.size + 1))
    rng.shuffle(entries)
    rows, at = [], 0
    for part in shape:
        rows.append(entries[at : at + part])
        at += part
    return Tableau(rows)


def test_symmetrizer_term_counts_and_quasi_idempotence():
    rng = random.Random(20240811)
    for _ in range(25):
        n = rng.randrange(2, 7)
        tableau = _random_tableau(rng, n)
        a = row_symmetrizer(tableau)
        b = column_antisymmetrizer(tableau)
        rows_order = 1
        for part in tableau.shape:
            rows_order *= factorial(part)
        cols_order = 1
        for part in tableau.shape.conjugate():
            cols_order *= factorial(part)
        assert len(a.terms) == rows_order
        assert len(b.terms) == cols_order
        assert a * a == GroupAlgebraElement(n, {p: rows_order * c for p, c in a.terms.items()})
        assert b * b == GroupAlgebraElement(n, {p: cols_order * c for p, c in b.terms.items()})


def test_subset_antisymmetrizer():
    b = subset_antisymmetrizer(4, [1, 2])
    assert b == GroupAlgebraElement(
        4, {Permutation.identity(4): 1, cyc(4, (1, 2)): -1}
    )
    assert subset_antisymmetrizer(4, [3]) == GroupAlgebraElement.one(4)
    # a repeated entry or one outside 1..n is named, not walked
    for n, block in [(3, [1, 1]), (3, [1, 5]), (2, [1, 2, 3]), (3, [0, 1])]:
        with pytest.raises(ValueError, match=re.escape(f"block {block}")):
            subset_antisymmetrizer(n, block)


def test_symmetrizers_match_reference_block_sum():
    rng = random.Random(20261018)
    for n in range(8):
        for shape in partitions_of(n):
            tableau = _random_filling(rng, shape)
            block = rng.sample(range(1, n + 1), rng.randint(0, n))
            pairs = [
                (row_symmetrizer(tableau), reference_block_sum(n, tableau.rows, False)),
                (column_antisymmetrizer(tableau), reference_block_sum(n, tableau.columns(), True)),
                (subset_antisymmetrizer(n, block), reference_block_sum(n, [block], True)),
            ]
            for got, want in pairs:
                assert got == want
                # the same terms in the same order, so every later sum over
                # them accumulates as before
                assert list(got.numerators.items()) == list(want.numerators.items())


def test_entries_are_integers_not_truncated():
    for build in [
        lambda: Partition([2.5, 1]),
        lambda: Partition([True]),
        lambda: Permutation([1.5, 2]),
        lambda: Permutation([True]),
        lambda: Tableau([[1.9, 2]]),
        lambda: Tableau([[1], [False]]),
        lambda: subset_antisymmetrizer(3, [1.0, 2]),
    ]:
        with pytest.raises(ValueError, match="not an integer"):
            build()


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau([[1, 2], [3, 4, 5]])  # shape not weakly decreasing
    with pytest.raises(ValueError):
        Tableau([[1, 2], [2]])  # repeated entry


def test_algebra_multiply_size_mismatch():
    with pytest.raises(ValueError):
        algebra_multiply(GroupAlgebraElement.one(2), GroupAlgebraElement.one(3))


def test_algebra_multiply_matches_reference_on_rationals():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        perms = list(all_permutations(n))
        x, y = (
            GroupAlgebraElement(
                n,
                {
                    rng.choice(perms): Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 4, 7]))
                    for _ in range(rng.randint(0, 6))
                },
            )
            for _ in range(2)
        )
        assert algebra_multiply(x, y) == reference_algebra_multiply(x, y)
    # degree 1, where the place action is the 1-tuple map
    half = GroupAlgebraElement(1, {Permutation([1]): Fraction(1, 2)})
    third = GroupAlgebraElement(1, {Permutation([1]): Fraction(-1, 3)})
    assert algebra_multiply(half, third) == reference_algebra_multiply(half, third)
    assert algebra_multiply(half, third).terms.get(Permutation([1]), 0) == Fraction(-1, 6)


def test_idempotent_products_match_reference():
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                x, y = central_idempotent(lam), central_idempotent(mu)
                assert algebra_multiply(x, y) == reference_algebra_multiply(x, y)


def test_moved_sums_sum_every_term_in_one_dict():
    identity, swap = (1, 2), (2, 1)
    support = {(1, 2): 3, (1, 1): 4}
    # every term's moved support is summed in int into one dict, zeros included
    sums = _moved_sums(support, [(identity, 1), (swap, 2), (swap, -1)])
    assert sums == {(1, 2): 3, (1, 1): 8, (2, 1): 3}
    assert _moved_sums(support, [(identity, 1), (identity, -1)]) == {(1, 2): 0, (1, 1): 0}
    assert _moved_sums(support, []) == {}


@pytest.mark.parametrize(
    "call",
    [
        lambda n: row_symmetrizer(Tableau([range(1, n + 1)])),
        lambda n: column_antisymmetrizer(Tableau([[i] for i in range(1, n + 1)])),
        lambda n: subset_antisymmetrizer(n, range(1, n + 1)),
    ],
    ids=["row", "column", "subset"],
)
def test_block_sums_stop_past_the_degree_cap(monkeypatch, call):
    # a one-row tableau past the cap would be (DEGREE_CAP + 1)! terms; the
    # check comes before the first one is built
    def no_terms(*blocks):
        raise AssertionError("a block permutation was built past the cap")

    monkeypatch.setattr(symgroup.itertools, "product", no_terms)
    with pytest.raises(ValueError, match=f"degree {DEGREE_CAP + 1} exceeds cap {DEGREE_CAP}"):
        call(DEGREE_CAP + 1)
