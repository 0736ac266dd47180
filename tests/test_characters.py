import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

import isotypic.characters as characters
from isotypic.brute import nonzero_after_symmetrize, symmetrize
from isotypic.characters import (
    CharacterTable,
    central_idempotent,
    character_row,
    character_table,
    character_value,
    class_size,
    permutations_with_class,
)
from isotypic.gram import generalized_matrix_function
from isotypic.linalg import Matrix, VectorConfiguration
from isotypic.partitions import Partition, partitions_of, syt_count
from isotypic.symgroup import DEGREE_CAP, GroupAlgebraElement, Permutation
from oracles import (
    _lexicographic_classes,
    all_permutations,
    character_fault,
    character_walk,
)


def P(*parts):
    return Partition(parts)


def test_trivial_character():
    for n in range(1, 7):
        for rho in partitions_of(n):
            assert character_value(P(n), rho) == 1


def test_sign_character():
    for n in range(1, 7):
        for rho in partitions_of(n):
            assert character_value(Partition([1] * n), rho) == (-1) ** (n - len(rho))


def test_standard_character_row():
    # forced by column orthogonality against the trivial and sign rows
    assert character_value(P(2, 1), P(1, 1, 1)) == 2
    assert character_value(P(2, 1), P(2, 1)) == 0
    assert character_value(P(2, 1), P(3)) == -1


def test_character_value_size_mismatch():
    with pytest.raises(ValueError):
        character_value(P(2, 1), P(2))


def test_character_table_small():
    t1 = character_table(1)
    assert t1.rows[P(1)] == (1,)
    t2 = character_table(2)
    assert t2.classes == (P(2), P(1, 1))
    assert t2.rows[P(2)] == (1, 1)
    assert t2.rows[P(1, 1)] == (-1, 1)
    t3 = character_table(3)
    assert t3.rows[P(2, 1)] == (-1, 0, 2)


def test_character_table_record():
    # repr and equality are those of the former frozen dataclass, and the
    # rows dict still makes the table unhashable
    table = character_table(3)
    assert repr(table) == (
        "CharacterTable(n=3, classes=(Partition([3]), Partition([2, 1]), "
        "Partition([1, 1, 1])), class_sizes=(2, 3, 1), rows={Partition([3]): (1, 1, 1), "
        "Partition([2, 1]): (-1, 0, 2), Partition([1, 1, 1]): (1, -1, 1)})"
    )
    assert table == CharacterTable(3, table.classes, table.class_sizes, dict(table.rows))
    assert table != character_table(2)
    with pytest.raises(TypeError):
        hash(table)


def test_character_table_cap_and_validation():
    with pytest.raises(ValueError):
        character_table(0)
    with pytest.raises(ValueError):
        character_table(DEGREE_CAP + 1)


def test_character_row_is_the_table_row():
    for n in range(1, 9):
        table = character_table(n)
        for lam in partitions_of(n):
            assert character_row(lam) == table.rows[lam]


@pytest.mark.parametrize(
    "n, message", [(0, "n must be at least 1"), (DEGREE_CAP + 1, "degree 11 exceeds cap 10")]
)
def test_character_row_checks_the_degree_as_the_table_does(n, message):
    with pytest.raises(ValueError) as table_error:
        character_table(n)
    with pytest.raises(ValueError) as row_error:
        character_row(Partition([1] * n))
    assert str(row_error.value) == str(table_error.value) == message


def test_first_column_is_tableau_count():
    for n in range(1, 11):
        ones = Partition([1] * n)
        for lam in partitions_of(n):
            assert character_value(lam, ones) == syt_count(lam)


def test_characters_constant_on_inverse_classes():
    rng = random.Random(5)
    for n in range(2, 7):
        perms = list(all_permutations(n))
        for _ in range(10):
            sigma = perms[rng.randrange(len(perms))]
            for lam in partitions_of(n):
                assert character_value(lam, sigma.cycle_type()) == character_value(
                    lam, sigma.inverse().cycle_type()
                )


def test_row_orthogonality():
    for n in range(1, 9):
        table = character_table(n)
        shapes = list(table.rows)
        for a in shapes:
            for b in shapes:
                total = sum(
                    size * x * y
                    for size, x, y in zip(table.class_sizes, table.rows[a], table.rows[b])
                )
                assert total == (factorial(n) if a == b else 0)


def test_column_orthogonality():
    for n in range(1, 9):
        table = character_table(n)
        for i in range(len(table.classes)):
            for j in range(len(table.classes)):
                total = sum(row[i] * row[j] for row in table.rows.values())
                want = factorial(n) // table.class_sizes[i] if i == j else 0
                assert total == want


def test_class_sizes_sum_to_group_order():
    for n in range(1, 9):
        assert sum(class_size(rho) for rho in partitions_of(n)) == factorial(n)


def test_central_idempotent_examples():
    id2 = Permutation.identity(2)
    swap = Permutation([2, 1])
    assert central_idempotent(P(2)) == GroupAlgebraElement(
        2, {id2: Fraction(1, 2), swap: Fraction(1, 2)}
    )
    assert central_idempotent(P(1, 1)) == GroupAlgebraElement(
        2, {id2: Fraction(1, 2), swap: Fraction(-1, 2)}
    )
    assert central_idempotent(P(2, 1)) == GroupAlgebraElement(
        3,
        {
            Permutation.identity(3): Fraction(2, 3),
            Permutation([2, 3, 1]): Fraction(-1, 3),
            Permutation([3, 1, 2]): Fraction(-1, 3),
        },
    )


def test_idempotent_system_exhaustive():
    for n in range(1, 6):
        shapes = partitions_of(n)
        es = {lam: central_idempotent(lam) for lam in shapes}
        total = GroupAlgebraElement(n)
        for lam in shapes:
            total = total + es[lam]
            for mu in shapes:
                product = es[lam] * es[mu]
                if lam == mu:
                    assert product == es[lam]
                else:
                    assert product.is_zero()
        assert total == GroupAlgebraElement.one(n)


def test_idempotent_spot_checks_degree_six():
    e_a = central_idempotent(P(6))
    e_b = central_idempotent(P(3, 2, 1))
    assert e_a * e_a == e_a
    assert e_b * e_b == e_b
    assert (e_a * e_b).is_zero()
    assert (e_b * e_a).is_zero()


def test_idempotents_are_central():
    rng = random.Random(99)
    for n in range(2, 7):
        perms = list(all_permutations(n))
        sigma = GroupAlgebraElement(n, {perms[rng.randrange(len(perms))]: 1})
        for lam in (partitions_of(n)[0], partitions_of(n)[-1], partitions_of(n)[len(partitions_of(n)) // 2]):
            e = central_idempotent(lam)
            assert e * sigma == sigma * e


def test_permutations_with_class_indexing():
    for n in range(1, 6):
        classes = partitions_of(n)
        for images, cls in permutations_with_class(n):
            assert classes[cls] == Permutation(images).cycle_type()


def test_permutations_with_class_order_and_cap():
    for n in range(1, 5):
        images = [images for images, _ in permutations_with_class(n)]
        assert images == [perm.images for perm in all_permutations(n)]
    with pytest.raises(ValueError):
        permutations_with_class(DEGREE_CAP + 1)


def test_permutations_with_class_matches_prefix_state_oracle():
    for n in range(0, 9):
        classes = _lexicographic_classes(n)
        assert len(classes) == factorial(n)
        assert tuple(permutations_with_class(n)) == tuple(
            zip(permutations(range(1, n + 1)), classes)
        )


def test_permutations_with_class_counts_each_class_by_its_size():
    # the class sizes n!/z_rho, from neither the cycle walk nor the prefix
    # states
    for n in range(1, 9):
        counts = Counter(c for _, c in permutations_with_class(n))
        assert [counts[c] for c in range(len(partitions_of(n)))] == [
            class_size(rho) for rho in partitions_of(n)
        ]


def test_permutations_with_class_caches_no_tuples():
    # nothing may stay behind: start from empty caches, so that a cache of
    # (images, class) pairs or of a class sequence would be built here
    for value in list(vars(characters).values()):
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    character_table(8)
    tracemalloc.start()
    try:
        count = sum(1 for _ in permutations_with_class(8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == factorial(8)
    # 3 kB with nothing cached; 0.38 MB with the cached n!-byte class
    # sequence of the prefix-state recursion; 6.5 MB with 8! cached tuples
    assert peak < 1.5e6


def test_central_idempotent_keeps_nothing_once_dropped():
    # build a neighbouring shape's element first: the interpreter keeps up
    # to 2000 freed tuples of each length for reuse (0.2 MB of 8-tuples
    # here), so only the element itself could stay behind
    central_idempotent(P(7, 1))
    character_row(P(8))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        e = central_idempotent(P(8))
        held, _ = tracemalloc.get_traced_memory()
        del e
        end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 8!-term element holds 5.3 MB while referenced
    assert held - start > 4e6
    assert end - start < 1e5


def test_character_walk_is_the_class_slot_stream():
    # the walk that the reference routes of both deciders share
    rng = random.Random(20)
    for n in range(1, 7):
        table = character_table(n)
        pairs = tuple(permutations_with_class(n))
        shapes = partitions_of(n)
        lists = [[lam] for lam in shapes] + [shapes, shapes[::-1]]
        lists += [rng.sample(shapes, rng.randint(1, len(shapes))) for _ in range(4)]
        for listed in lists:
            rows = [table.rows[lam] for lam in listed]
            walked = [c for c in range(len(table.classes)) if any(row[c] for row in rows)]
            degrees, values, walk = character_walk(listed)
            assert degrees == tuple(syt_count(lam) for lam in listed)
            assert values == tuple(tuple(row[c] for c in walked) for row in rows)
            assert list(walk) == [
                (images, walked.index(c)) for images, c in pairs if c in walked
            ]
        # one shape walks exactly the permutations where its character is nonzero
        for lam in shapes:
            _, (row,), walk = character_walk([lam])
            assert all(row) and len(list(walk)) == sum(
                size for size, chi in zip(table.class_sizes, table.rows[lam]) if chi
            )
    with pytest.raises(ValueError, match="at least one shape"):
        character_walk([])
    with pytest.raises(ValueError, match="different sizes"):
        character_walk([P(2), P(1)])


_PAST_CAP = DEGREE_CAP + 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: symmetrize(VectorConfiguration(1, [[1]] * _PAST_CAP), P(_PAST_CAP)),
        lambda: nonzero_after_symmetrize(VectorConfiguration(1, [[1]] * _PAST_CAP), P(_PAST_CAP)),
        lambda: generalized_matrix_function(
            Matrix([[1] * _PAST_CAP] * _PAST_CAP), P(_PAST_CAP)
        ),
        lambda: central_idempotent(P(_PAST_CAP)),
    ],
    ids=["symmetrize", "nonzero_after_symmetrize", "generalized_matrix_function",
         "central_idempotent"],
)
def test_degree_cap_stops_sums_before_the_walk(monkeypatch, call):
    def no_walk(n):
        raise AssertionError(f"permutations_with_class({n}) called past the cap")

    monkeypatch.setattr(characters, "permutations_with_class", no_walk)
    with pytest.raises(ValueError, match=f"degree {_PAST_CAP} exceeds cap {DEGREE_CAP}"):
        call()


def test_character_fault_is_scoped():
    # the fault patches the module attribute, so look it up there
    clean = characters.character_value(P(2), P(2))
    with character_fault(P(2), P(2)):
        assert characters.character_value(P(2), P(2)) == -clean
        assert character_table(2).rows[P(2)] == (-1, 1)
    assert characters.character_value(P(2), P(2)) == clean
    assert character_table(2).rows[P(2)] == (1, 1)


def test_character_fault_reaches_a_row_cached_before_it():
    # chi^(2,1) is (-1, 0, 2) on the classes (3), (2,1), (1,1,1); the gram
    # route reads the row, so the fault must not leave a clean cached row
    lam, a = P(2, 1), Matrix([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    clean = generalized_matrix_function(a, lam)
    assert character_row(lam) == (-1, 0, 2)
    with character_fault(lam, P(3)):
        assert character_row(lam) == (1, 0, 2)
        assert generalized_matrix_function(a, lam) != clean
    assert character_row(lam) == (-1, 0, 2)
    assert generalized_matrix_function(a, lam) == clean
