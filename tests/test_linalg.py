from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isotypic.linalg
from isotypic.linalg import (
    Matrix,
    SparseTensor,
    VectorConfiguration,
    _independent_rows,
    is_independent,
    parse_rational,
    rank_of_rows,
)
from oracles import fraction_rank

rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(rationals, min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def rank(m):
    return rank_of_rows(m.rows)


def test_rank_identity():
    assert rank(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_zero_matrix():
    assert rank(Matrix([[0, 0, 0], [0, 0, 0]])) == 0


def test_rank_proportional_rows():
    assert rank(Matrix([[1, 2], [2, 4]])) == 1


def test_is_independent_basis():
    assert is_independent([(1, 0), (0, 1)])


def test_is_independent_repeat():
    assert not is_independent([(1, 0), (1, 0)])


def test_is_independent_empty():
    assert is_independent([])


def test_is_independent_zero_vector():
    assert not is_independent([(0, 0)])


def test_is_independent_too_many():
    assert not is_independent([(1, 0), (0, 1), (1, 1)])


def test_is_independent_dimension_mismatch():
    with pytest.raises(ValueError):
        is_independent([(1, 0), (1, 0, 0)])


@pytest.mark.parametrize(
    "vectors", [[[0.5, 1]], [[True, False]], [[1, 0], [0, 1.0]], [["1/2", None]]]
)
def test_is_independent_takes_exact_entries_only(vectors):
    # as in integer_scaled: a float or a bool is refused, not read as a binary
    # fraction or as 0 and 1
    with pytest.raises(ValueError):
        is_independent(vectors)


def test_int_entries_build_no_fraction(monkeypatch):
    # int entries are already the integer form: a configuration, a matrix
    # and a tensor built from them keep the ints over scale 1
    class CountingFraction(Fraction):
        built = 0

        def __new__(cls, *args, **kwargs):
            CountingFraction.built += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(isotypic.linalg, "Fraction", CountingFraction)
    configuration = VectorConfiguration(3, [[1, 0, -2], [0, 0, 0], [4, 5, 6]])
    matrix = Matrix([[1, 2], [-3, 4]])
    tensor = SparseTensor(2, 2, {(1, 2): 3, (2, 1): -6})
    assert CountingFraction.built == 0
    assert configuration.rows == ((1, 0, -2), (0, 0, 0), (4, 5, 6))
    assert configuration.scales == (1, 1, 1)
    assert matrix.numerators == ((1, 2), (-3, 4))
    assert matrix.scales == (1, 1)
    assert (tensor.numerators, tensor.divisor) == ({(1, 2): 3, (2, 1): -6}, 1)


def test_is_independent_parses_rational_literals():
    assert is_independent([["1/2", "1"]])
    assert not is_independent([["1/2", "1"], [1, "2"]])
    assert is_independent([[Fraction(1, 2), 1], ["0", "-3/4"]])


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rank_bounded(rows):
    m = Matrix(rows)
    assert rank(m) <= min(m.nrows, m.ncols)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rank_matches_plain_elimination(rows):
    assert rank(Matrix(rows)) == fraction_rank(rows)


@given(st.integers(2, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_rank_matches_plain_elimination_low_rank(k, data):
    # products of thin matrices force rank deficiency
    m = data.draw(st.integers(k, 5))
    n = data.draw(st.integers(k, 5))
    left = data.draw(
        st.lists(st.lists(rationals, min_size=k, max_size=k), min_size=m, max_size=m)
    )
    right = data.draw(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=k, max_size=k)
    )
    product = [
        [sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
        for i in range(m)
    ]
    r = rank(Matrix(product))
    assert r == fraction_rank(product)
    assert r <= k


@given(matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_rank_row_operations_invariant(rows, data):
    m = Matrix(rows)
    base = rank(m)
    i = data.draw(st.integers(0, m.nrows - 1))
    j = data.draw(st.integers(0, m.nrows - 1))
    swapped = list(list(r) for r in m.rows)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert rank(Matrix(swapped)) == base
    c = data.draw(rationals.filter(lambda x: x != 0))
    scaled = list(list(r) for r in m.rows)
    scaled[i] = [c * x for x in scaled[i]]
    assert rank(Matrix(scaled)) == base


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_independence_iff_full_rank(vectors):
    assert is_independent(vectors) == (rank_of_rows(vectors) == len(vectors))


integer_rows = st.integers(0, 4).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(-3, 3) | st.integers(), min_size=width, max_size=width),
        max_size=6,
    )
)


@given(integer_rows)
@example([])
@example([[0, 0]])
@example([[1, 2], [0, 0]])
@example([[1, 0], [0, 1], [1, 1]])
@example([[]])
@settings(max_examples=300, deadline=None)
def test_independent_rows_answers_as_is_independent(rows):
    # the integer kernel that the harness and the certificate check call
    # skips the parsing and scaling of the rational front door, and nothing
    # else
    assert _independent_rows(rows) == is_independent(rows)


def test_parse_rational():
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("4") == Fraction(4)
    assert parse_rational("+2/4") == Fraction(1, 2)
    assert parse_rational(5) == Fraction(5)


@pytest.mark.parametrize("bad", ["3/0", "1.5", "a", "1/2/3", "", "2 /3", True])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_round_trip():
    # str(Fraction) is the interchange form every to_json_obj writes
    for text in ["-3/7", "4", "0", "22/7"]:
        assert str(parse_rational(text)) == text


def test_matrix_rejects_ragged():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
