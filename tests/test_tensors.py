import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, lcm, prod
from types import SimpleNamespace

import pytest

import isotypic.brute as brute
import isotypic.characters as characters
import isotypic.symgroup as symgroup
from isotypic.brute import decomposable, nonzero_after_symmetrize, symmetrize
from isotypic.characters import central_idempotent, character_table
from isotypic.gram import generalized_matrix_function, gram_matrix, matrix_function_sums
from isotypic.linalg import Matrix, SparseTensor, VectorConfiguration, is_independent
from isotypic.matroid import gamas_condition
from isotypic.partitions import Partition, partitions_of, syt_count, weyl_dimension
from isotypic.symgroup import (
    OPERATOR_DIMENSION_CAP,
    GroupAlgebraElement,
    Permutation,
    Tableau,
    algebra_multiply,
    apply_algebra_element,
    column_antisymmetrizer,
    compose,
    operator_rank,
    row_symmetrizer,
    subset_antisymmetrizer,
)
from oracles import (
    all_permutations,
    brute_determinant,
    per_shape_generalized_matrix_function,
    per_shape_symmetrize,
    permuted,
    reference_apply_algebra_element,
    reference_generalized_matrix_function,
    reference_matrix_function_sums,
    reference_operator_rank,
    reference_symmetrized_sums,
    reference_transposition_maps,
    tensor_inner,
    tensor_sum,
)

E1 = (1, 0)
E2 = (0, 1)


def P(*parts):
    return Partition(parts)


def cfg(d, *vectors):
    return VectorConfiguration(d, vectors)


def identity_matrix(n):
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def act(w, sigma):
    """The place action of one permutation, through the library's only route."""
    return apply_algebra_element(w, GroupAlgebraElement(sigma.n, {sigma: 1}))


def random_vector(rng, d, lo=-3, hi=3):
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(d))


def random_config(rng, n, d):
    return VectorConfiguration(d, [random_vector(rng, d) for _ in range(n)])


def random_tensor(rng, n, d, terms=4):
    entries = {}
    for _ in range(terms):
        idx = tuple(rng.randint(1, d) for _ in range(n))
        entries[idx] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return SparseTensor(n, d, entries)


def random_algebra_element(rng, n, terms=3):
    perms = [list(range(1, n + 1)) for _ in range(terms)]
    for images in perms:
        rng.shuffle(images)
    out = {}
    for images in perms:
        out[Permutation(images)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return GroupAlgebraElement(n, out)


def test_decomposable_examples():
    assert decomposable(cfg(2, E1, E2)).entries == {(1, 2): 1}
    assert decomposable(cfg(2, E1, (0, 0), E2)).is_zero()
    assert decomposable(cfg(2, (1, 1), E1)).entries == {(1, 1): 1, (2, 1): 1}


def test_decomposable_requires_vectors():
    with pytest.raises(ValueError):
        decomposable(VectorConfiguration(2, []))


def test_act_identity():
    rng = random.Random(0)
    w = random_tensor(rng, 3, 2)
    assert act(w, Permutation.identity(3)) == w


def test_act_swap_on_pure_tensor():
    swapped = act(decomposable(cfg(2, E1, E2)), Permutation([2, 1]))
    assert swapped == decomposable(cfg(2, E2, E1))
    assert swapped.entries == {(2, 1): 1}


def test_act_matches_configuration_permutation():
    rng = random.Random(1)
    for _ in range(30):
        n, d = rng.randint(1, 5), rng.randint(1, 3)
        configuration = random_config(rng, n, d)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        sigma = Permutation(images)
        assert act(decomposable(configuration), sigma) == decomposable(
            permuted(configuration, sigma)
        )


def test_action_axiom_explicit_instance():
    w = decomposable(cfg(2, E1, E2, (1, 1)))
    sigma = Permutation.from_cycles(3, [(1, 2, 3)])
    tau = Permutation.from_cycles(3, [(1, 2)])
    assert act(act(w, sigma), tau) == act(w, compose(sigma, tau))


def test_action_axiom_randomized():
    rng = random.Random(2)
    for _ in range(40):
        n, d = rng.randint(1, 6), rng.randint(1, 3)
        w = random_tensor(rng, n, d)
        a, b = list(range(1, n + 1)), list(range(1, n + 1))
        rng.shuffle(a)
        rng.shuffle(b)
        sigma, tau = Permutation(a), Permutation(b)
        assert act(act(w, sigma), tau) == act(w, compose(sigma, tau))


def test_act_degree_mismatch():
    with pytest.raises(ValueError):
        act(SparseTensor(2, 2, {}), Permutation.identity(3))


def test_apply_algebra_identity():
    rng = random.Random(3)
    w = random_tensor(rng, 4, 2)
    assert apply_algebra_element(w, GroupAlgebraElement.one(4)) == w


def test_apply_algebra_antisymmetrizes_repeat_to_zero():
    for v in [(1, 2), (0, 3), (5, 5)]:
        w = decomposable(cfg(2, v, v))
        x = GroupAlgebraElement(
            2, {Permutation.identity(2): 1, Permutation([2, 1]): -1}
        )
        assert apply_algebra_element(w, x).is_zero()


def _antisymmetrizer_inputs(rng, n, d):
    """The zero tensor, a nonzero pure tensor with zero coordinates and a
    non-pure tensor with rational entries."""
    vectors = []
    for _ in range(n):
        v = [rng.choice((0, 0, 1, -2)) for _ in range(d)]
        v[rng.randrange(d)] = rng.choice((1, -2, 3))
        vectors.append(v)
    return [SparseTensor(n, d), decomposable(cfg(d, *vectors)), random_tensor(rng, n, d, terms=8)]


def _antisymmetrized_entries(w, positions):
    """The rational entries of w acted on by brute._antisymmetrized_blocks,
    for increasing lists of disjoint positions, on w's weight blocks."""
    split = _position_blocks(w.numerators, partitions_of(w.n))
    blocks = brute._antisymmetrized_blocks(split, positions)
    return {
        idx: Fraction(c, w.divisor)
        for _, space, v in blocks
        for idx, c in zip(space.tuples, v)
        if c
    }


def test_antisymmetrized_matches_subset_antisymmetrizer():
    # (1 - X_2) ... (1 - X_h) over the positions of a block is its signed
    # block sum, for every block of positions up to n = 7
    rng = random.Random(61)
    for n in range(1, 8):
        d = 3 if n <= 4 else 2
        for w in _antisymmetrizer_inputs(rng, n, d):
            for h in range(n + 1):
                for block in combinations(range(1, n + 1), h):
                    want = apply_algebra_element(w, subset_antisymmetrizer(n, block))
                    assert _antisymmetrized_entries(w, [block]) == want.entries, (n, block)


def test_antisymmetrized_matches_column_antisymmetrizer():
    rng = random.Random(62)
    for _ in range(30):
        n, d = rng.randint(1, 6), rng.randint(1, 3)
        entries = rng.sample(range(1, n + 1), n)
        rows, at = [], 0
        for part in rng.choice(partitions_of(n)):
            rows.append(entries[at : at + part])
            at += part
        tableau = Tableau(rows)
        for w in _antisymmetrizer_inputs(rng, n, d):
            want = apply_algebra_element(w, column_antisymmetrizer(tableau))
            columns = [sorted(column) for column in tableau.columns()]
            assert _antisymmetrized_entries(w, columns) == want.entries, tableau


def test_antisymmetrized_rejects_bad_blocks():
    for block in ([1, 1], [0, 2], [1, 4]):
        with pytest.raises(ValueError):
            subset_antisymmetrizer(3, block)


def test_paper_wedge_identity():
    rng = random.Random(4)
    v1, v2 = (Fraction(1), Fraction(2)), (Fraction(3), Fraction(1))
    assert is_independent([v1, v2])
    rest = [random_vector(rng, 2) for _ in range(3)]
    full = cfg(2, v1, v2, *rest)
    lhs = apply_algebra_element(decomposable(full), subset_antisymmetrizer(5, [1, 2]))
    rhs = tensor_sum(
        5, 2, [(1, decomposable(cfg(2, v1, v2, *rest))), (-1, decomposable(cfg(2, v2, v1, *rest)))]
    )
    assert lhs == rhs


def test_module_map_compatibility():
    # applying x then y equals applying x*y: pins the composition convention
    rng = random.Random(5)
    for _ in range(30):
        n, d = rng.randint(2, 4), rng.randint(1, 3)
        w = random_tensor(rng, n, d)
        x = random_algebra_element(rng, n)
        y = random_algebra_element(rng, n)
        composite = apply_algebra_element(w, x * y)
        stepwise = apply_algebra_element(apply_algebra_element(w, x), y)
        assert composite == stepwise


def test_symmetrize_degree_two():
    v, w = (Fraction(1), Fraction(2)), (Fraction(-1), Fraction(3))
    sym = symmetrize(cfg(2, v, w), P(2))
    half = Fraction(1, 2)
    expected = tensor_sum(
        2, 2, [(half, decomposable(cfg(2, v, w))), (half, decomposable(cfg(2, w, v)))]
    )
    assert sym == expected
    assert symmetrize(cfg(2, v, v), P(1, 1)).is_zero()


def test_symmetrize_standard_shape_frozen():
    # six-term character sum with row (2, 0, -1) collapses to three entries
    got = symmetrize(cfg(2, E1, E1, E2), P(2, 1))
    assert got.entries == {
        (1, 1, 2): Fraction(2, 3),
        (1, 2, 1): Fraction(-1, 3),
        (2, 1, 1): Fraction(-1, 3),
    }
    assert not got.is_zero()


def test_symmetrize_equals_idempotent_application():
    rng = random.Random(6)
    for _ in range(25):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        configuration = random_config(rng, n, d)
        shapes = partitions_of(n)
        lam = shapes[rng.randrange(len(shapes))]
        direct = symmetrize(configuration, lam)
        via_algebra = apply_algebra_element(
            decomposable(configuration), central_idempotent(lam)
        )
        assert direct == via_algebra
    # vectors with their own denominators (and zero entries) scale differently
    for _ in range(15):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        configuration = VectorConfiguration(
            d,
            [
                [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3, 4, 5])) for _ in range(d)]
                for _ in range(n)
            ],
        )
        for lam in partitions_of(n):
            via_algebra = apply_algebra_element(
                decomposable(configuration), central_idempotent(lam)
            )
            assert symmetrize(configuration, lam) == via_algebra


def test_algebra_multiply_is_the_place_action():
    # the product x * y is y acting by place permutations on the image
    # tuples of x: the right regular representation inside the n-th
    # tensor power of Q^n
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(1, 4)
        x = random_algebra_element(rng, n, terms=rng.randint(0, 5))
        y = random_algebra_element(rng, n, terms=rng.randint(0, 5))
        w = SparseTensor(n, n, {sigma.images: c for sigma, c in x.terms.items()})
        moved = apply_algebra_element(w, y).entries
        assert algebra_multiply(x, y) == GroupAlgebraElement(
            n, {Permutation(images): c for images, c in moved.items()}
        )


def test_apply_algebra_element_matches_reference_on_rationals():
    rng = random.Random(44)
    # entries and coefficients draw their own denominators
    cases = []
    for _ in range(30):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        cases.append((random_tensor(rng, n, d), random_algebra_element(rng, n)))
    # central idempotents carry Fraction coefficients
    for n in range(1, 5):
        w = random_tensor(rng, n, 2)
        cases += [(w, central_idempotent(lam)) for lam in partitions_of(n)]
    # the zero tensor and the zero element
    rational = SparseTensor(3, 2, {(1, 2, 1): Fraction(2, 3), (2, 2, 1): Fraction(-1, 5)})
    cases += [
        (SparseTensor(3, 2), central_idempotent(P(2, 1))),
        (rational, GroupAlgebraElement(3)),
        (SparseTensor(3, 2), GroupAlgebraElement(3)),
    ]
    for w, x in cases:
        assert apply_algebra_element(w, x) == reference_apply_algebra_element(w, x)
    assert apply_algebra_element(rational, GroupAlgebraElement(3)).is_zero()
    # degree 1, where the place action is the 1-tuple map
    w = SparseTensor(1, 2, {(1,): Fraction(1, 2), (2,): Fraction(-2, 3)})
    x = GroupAlgebraElement(1, {Permutation([1]): Fraction(3, 4)})
    want = SparseTensor(1, 2, {(1,): Fraction(3, 8), (2,): Fraction(-1, 2)})
    assert apply_algebra_element(w, x) == reference_apply_algebra_element(w, x) == want


def test_apply_algebra_element_returns_only_nonzero_entries():
    identity, swap = Permutation([1, 2]), Permutation([2, 1])

    def antisymmetric(c):
        return GroupAlgebraElement(2, {identity: c, swap: -c})

    # antisymmetrizing a support that the swap fixes cancels every entry
    w = SparseTensor(2, 2, {(1, 1): Fraction(1, 2)})
    cancelled = apply_algebra_element(w, antisymmetric(1))
    assert cancelled.numerators == {}
    cancelled = apply_algebra_element(
        SparseTensor(2, 2, {(1, 2): 1, (2, 1): 1}), antisymmetric(Fraction(3, 5))
    )
    assert cancelled.numerators == {}
    # (1, 1) cancels; the rest is halved
    w = SparseTensor(2, 2, {(1, 2): Fraction(1, 2), (1, 1): Fraction(2, 3)})
    assert apply_algebra_element(w, antisymmetric(Fraction(1, 2))).entries == {
        (1, 2): Fraction(1, 4), (2, 1): Fraction(-1, 4)
    }


def test_equal_values_have_one_integer_form():
    # a tensor and an element keep integer numerators over one divisor in
    # lowest terms, so the same value built any way compares and hashes
    # alike: here (e1 x e2 - e2 x e1) / 2 and (id - swap) / 2
    identity, swap = Permutation([1, 2]), Permutation([2, 1])
    half_wedge = GroupAlgebraElement(2, {identity: Fraction(3, 6), swap: Fraction(-2, 4)})
    tensors_built = [
        SparseTensor(2, 2, {(1, 2): Fraction(2, 4), (2, 1): Fraction(-3, 6)}),
        apply_algebra_element(decomposable(cfg(2, E1, E2)), half_wedge),
        symmetrize(cfg(2, E1, E2), P(1, 1)),
    ]
    elements_built = [
        half_wedge,
        central_idempotent(P(1, 1)),
        algebra_multiply(half_wedge, half_wedge),
        algebra_multiply(
            subset_antisymmetrizer(2, [1, 2]), GroupAlgebraElement(2, {identity: Fraction(2, 4)})
        ),
    ]
    for built in (tensors_built, elements_built):
        for value in built:
            assert value.numerators == {(1, 2): 1, (2, 1): -1}
            assert value.divisor == 2
            assert value == built[0]
            assert hash(value) == hash(built[0])
    # a configuration keeps each vector as ints over the lcm of its
    # denominators, so ints, Fractions and literals give one form
    configurations_built = [
        VectorConfiguration(2, [[1, "2/4"], [0, 0], ["-6/4", 3]]),
        VectorConfiguration(
            2, [[Fraction(2, 2), Fraction(1, 2)], ["0", "0/5"], [Fraction(-3, 2), "3"]]
        ),
    ]
    for value in configurations_built:
        assert (value.rows, value.scales) == (((2, 1), (0, 0), (-3, 6)), (2, 1, 2))
        assert value == configurations_built[0]
        assert hash(value) == hash(configurations_built[0])
        assert value.to_json_obj()["vectors"] == [["1", "1/2"], ["0", "0"], ["-3/2", "3"]]
    assert configurations_built[0] != VectorConfiguration(2, [[2, 1], [0, 0], [-3, 6]])


def test_zero_tensor_and_zero_element_have_divisor_one():
    identity, swap = Permutation([1, 2]), Permutation([2, 1])
    zeros = [
        SparseTensor(3, 2),
        SparseTensor(2, 2, {(1, 2): Fraction(0, 5)}),
        decomposable(cfg(2, E1, (0, 0))),
        apply_algebra_element(
            SparseTensor(2, 2, {(1, 1): Fraction(1, 3)}), subset_antisymmetrizer(2, [1, 2])
        ),
        GroupAlgebraElement(2),
        GroupAlgebraElement(2, {identity: 0, swap: Fraction(0, 7)}),
        algebra_multiply(central_idempotent(P(2)), central_idempotent(P(1, 1))),
    ]
    for zero in zeros:
        assert zero.is_zero()
        assert (zero.numerators, zero.divisor) == ({}, 1)


def test_an_element_is_the_tensor_of_its_image_tuples_but_not_equal_to_it():
    # an element is a SparseTensor of degree n over Q^n; the type takes
    # part in equality, so the plain tensor of the same numbers is unequal
    identity, swap = Permutation([1, 2, 3]), Permutation([2, 1, 3])
    x = GroupAlgebraElement(3, {identity: Fraction(1, 2), swap: Fraction(-3, 4)})
    assert isinstance(x, SparseTensor)
    assert (x.n, x.d, x.numerators, x.divisor) == (3, 3, {(1, 2, 3): 2, (2, 1, 3): -3}, 4)
    y = GroupAlgebraElement._from_integers(3, {(1, 2, 3): 4, (2, 1, 3): -6}, 8)
    assert type(y) is GroupAlgebraElement
    assert y.d == y.n == 3
    assert y == x and hash(y) == hash(x)
    w = SparseTensor(3, 3, {(1, 2, 3): Fraction(1, 2), (2, 1, 3): Fraction(-3, 4)})
    assert (w.numerators, w.divisor) == (x.numerators, x.divisor)
    assert w != x and x != w


def test_tensors_and_elements_take_exact_scalars_only():
    # a float would be stored as its binary fraction, and a bool as 0 or 1
    with pytest.raises(ValueError, match="not an exact scalar"):
        SparseTensor(1, 1, {(1,): 0.1})
    with pytest.raises(ValueError, match="not an exact scalar"):
        SparseTensor(1, 1, {(1,): True})
    with pytest.raises(ValueError, match="not an exact scalar"):
        GroupAlgebraElement(1, {Permutation([1]): 0.5})


def test_symmetrize_size_mismatch():
    with pytest.raises(ValueError):
        symmetrize(cfg(2, E1, E2), P(3))


def test_nonzero_after_symmetrize_examples():
    rng = random.Random(7)
    # single-row shape never vanishes on nonzero vectors
    for _ in range(10):
        n, d = rng.randint(1, 5), rng.randint(1, 3)
        vectors = []
        while len(vectors) < n:
            v = random_vector(rng, d)
            if any(v):
                vectors.append(v)
        assert nonzero_after_symmetrize(VectorConfiguration(d, vectors), P(n))
    # a zero vector kills every shape
    zero_cfg = cfg(2, E1, (0, 0), E2)
    for lam in partitions_of(3):
        assert not nonzero_after_symmetrize(zero_cfg, lam)
    assert not nonzero_after_symmetrize(cfg(2, E1, E1, E2), P(1, 1, 1))


def test_projector_idempotence_on_arbitrary_tensors():
    rng = random.Random(8)
    for _ in range(20):
        n, d = rng.randint(1, 5), rng.randint(1, 3)
        w = random_tensor(rng, n, d)
        shapes = partitions_of(n)
        lam = shapes[rng.randrange(len(shapes))]
        e = central_idempotent(lam)
        once = apply_algebra_element(w, e)
        assert apply_algebra_element(once, e) == once


def test_isotypic_completeness():
    rng = random.Random(9)
    for _ in range(20):
        n, d = rng.randint(1, 5), rng.randint(1, 3)
        w = random_tensor(rng, n, d)
        total = tensor_sum(
            n, d, [(1, apply_algebra_element(w, central_idempotent(lam))) for lam in partitions_of(n)]
        )
        assert total == w


def test_gram_matrix_examples():
    assert gram_matrix(cfg(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))) == identity_matrix(3)
    assert gram_matrix(cfg(2, E1, E1)) == Matrix([[1, 1], [1, 1]])
    assert gram_matrix(cfg(2, (1, 1), E1)) == Matrix([[2, 1], [1, 1]])


def random_rational_rows(rng, n):
    # each row draws its own denominators, so the rows scale differently
    return [
        [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 5, 9])) for _ in range(n)]
        for _ in range(n)
    ]


def test_gmf_single_column_is_determinant():
    rng = random.Random(10)
    for _ in range(15):
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        got = generalized_matrix_function(Matrix(rows), P(1, 1, 1))
        assert got == brute_determinant(rows)
    for _ in range(15):
        rows = random_rational_rows(rng, rng.randint(1, 4))
        got = generalized_matrix_function(Matrix(rows), P(*[1] * len(rows)))
        assert got == brute_determinant(rows)


def test_gmf_matches_reference_on_rationals():
    rng = random.Random(12)
    matrices = []
    for _ in range(12):
        matrices.append(random_rational_rows(rng, rng.randint(1, 5)))
    zero_row = random_rational_rows(rng, 4)
    zero_row[2] = [Fraction(0)] * 4
    zero_entry = [[Fraction(1, 2), Fraction(2, 3)], [Fraction(0), Fraction(5, 7)]]
    matrices += [zero_row, zero_entry, [[Fraction(-3, 4)]], [[Fraction(0)]]]
    for rows in matrices:
        m = Matrix(rows)
        for lam in partitions_of(len(rows)):
            got = generalized_matrix_function(m, lam)
            assert isinstance(got, Fraction)
            assert got == reference_generalized_matrix_function(m, lam)
    assert generalized_matrix_function(Matrix([[Fraction(-3, 4)]]), P(1)) == Fraction(-3, 4)


def test_gmf_identity_gives_dimension():
    for n in range(1, 6):
        for lam in partitions_of(n):
            got = generalized_matrix_function(identity_matrix(n), lam)
            assert got == syt_count(lam)


def test_gmf_all_ones_standard_shape():
    # 2*1 + 0*3 + (-1)*2 over the three classes of degree 3
    assert generalized_matrix_function(Matrix([[1] * 3] * 3), P(2, 1)) == 0


def test_gmf_shape_mismatch():
    with pytest.raises(ValueError):
        generalized_matrix_function(Matrix([[1, 2]]), P(1))
    with pytest.raises(ValueError):
        generalized_matrix_function(identity_matrix(2), P(3))


def test_gram_identity_randomized():
    rng = random.Random(11)
    for _ in range(60):
        n, d = rng.randint(1, 5), rng.randint(1, 3)
        configuration = random_config(rng, n, d)
        gram = gram_matrix(configuration)
        for lam in partitions_of(n):
            value = generalized_matrix_function(gram, lam)
            sym = symmetrize(configuration, lam)
            assert tensor_inner(sym, sym) == Fraction(syt_count(lam), factorial(n)) * value
            assert value >= 0


def test_operator_rank_examples():
    assert operator_rank(central_idempotent(P(2)), 2) == 3
    assert operator_rank(central_idempotent(P(1, 1)), 2) == 1
    tableau = Tableau([[1, 2], [3]])
    young = column_antisymmetrizer(tableau) * row_symmetrizer(tableau)
    assert operator_rank(young, 2) == 2 == weyl_dimension(P(2, 1), 2)


def test_operator_rank_zero_and_identity():
    assert operator_rank(GroupAlgebraElement(3), 2) == 0
    assert operator_rank(GroupAlgebraElement.one(2), 3) == 9


def test_operator_rank_cap():
    with pytest.raises(ValueError):
        operator_rank(GroupAlgebraElement.one(7), 4)  # 4^7 > 4096


def test_schur_weyl_rank_law_small():
    # d = 4 reaches the multiplicity patterns (2, 1, 1, 1) and (1, 1, 1, 1)
    for n in range(1, 6):
        for d in (2, 3, 4):
            for lam in partitions_of(n):
                assert operator_rank(central_idempotent(lam), d) == syt_count(
                    lam
                ) * weyl_dimension(lam, d)


def _random_elements(rng, n):
    """Elements of degree n, mostly not central: the zero element, sparse
    integer combinations of permutations, a transposition and a 3-cycle
    alone and in the rank-deficient sums 1 - (i j) and 1 + c + c^2, and the
    Young symmetrizer of a random tableau."""
    perms = list(permutations(range(1, n + 1)))
    one = Permutation.identity(n)
    elements = [GroupAlgebraElement(n)]
    for _ in range(3):
        chosen = rng.sample(perms, min(len(perms), rng.randint(1, 4)))
        coefficients = {Permutation(p): rng.choice([-3, -2, -1, 1, 2, 3]) for p in chosen}
        elements.append(GroupAlgebraElement(n, coefficients))
    if n >= 2:
        swap = Permutation.from_cycles(n, [rng.sample(range(1, n + 1), 2)])
        elements.append(GroupAlgebraElement(n, {swap: 1}))
        elements.append(GroupAlgebraElement(n, {one: 1, swap: -1}))
    if n >= 3:
        cycle = Permutation.from_cycles(n, [rng.sample(range(1, n + 1), 3)])
        elements.append(GroupAlgebraElement(n, {cycle: 1}))
        elements.append(GroupAlgebraElement(n, {one: 1, cycle: 1, cycle * cycle: 1}))
    shape = rng.choice(partitions_of(n))
    entries = rng.sample(range(1, n + 1), n)
    rows, at = [], 0
    for part in shape:
        rows.append(entries[at : at + part])
        at += part
    tableau = Tableau(rows)
    elements.append(column_antisymmetrizer(tableau) * row_symmetrizer(tableau))
    return elements


def test_operator_rank_matches_the_all_blocks_route():
    # renaming the letters carries a weight block onto one of equal rank
    # for every element, central or not, so one block per multiplicity
    # pattern gives the rank that eliminating every block gives
    rng = random.Random(33)
    for n in range(1, 6):
        for x in _random_elements(rng, n):
            for d in range(1, 5):
                if d**n <= OPERATOR_DIMENSION_CAP:
                    assert operator_rank(x, d) == reference_operator_rank(x, d), (x, d)


def test_operator_rank_eliminates_one_block_per_multiplicity_pattern(monkeypatch):
    # the patterns of n into at most d parts: 1, 3 and 5 of the 1, 6 and 21
    # weights at n = 5, and 5 of the 35 at n = 4, d = 4
    bareiss, eliminated = symgroup._int_rank, []

    def counted(rows):
        eliminated.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(symgroup, "_int_rank", counted)
    counts = {}
    for n, d in [(5, 1), (5, 2), (5, 3), (4, 4)]:
        eliminated.clear()
        assert operator_rank(GroupAlgebraElement.one(n), d) == d**n
        counts[n, d] = len(eliminated)
    assert counts == {(5, 1): 1, (5, 2): 3, (5, 3): 5, (4, 4): 5}


def test_column_criterion_randomized():
    rng = random.Random(12)
    for _ in range(40):
        n, d = rng.randint(1, 5), rng.randint(1, 3)
        configuration = random_config(rng, n, d)
        shapes = partitions_of(n)
        shape = shapes[rng.randrange(len(shapes))]
        entries = list(range(1, n + 1))
        rng.shuffle(entries)
        rows, at = [], 0
        for part in shape:
            rows.append(entries[at : at + part])
            at += part
        tableau = Tableau(rows)
        image = apply_algebra_element(
            decomposable(configuration), column_antisymmetrizer(tableau)
        )
        independent = all(
            is_independent([configuration.vectors[i - 1] for i in column])
            for column in tableau.columns()
        )
        assert (not image.is_zero()) == independent


def test_dimension_invariance_zero_padding():
    rng = random.Random(13)
    for trial in range(25):
        if trial % 5 == 0:
            n, d = 6, rng.randint(1, 2)
        else:
            n, d = rng.randint(1, 5), rng.randint(1, 3)
        configuration = random_config(rng, n, d)
        padded = VectorConfiguration(
            d + 1, [v + (Fraction(0),) for v in configuration.vectors]
        )
        for lam in partitions_of(n):
            assert nonzero_after_symmetrize(configuration, lam) == (
                nonzero_after_symmetrize(padded, lam)
            )


def test_det_twist_reduction():
    rng = random.Random(14)
    checked = 0
    while checked < 25:
        n, d = rng.randint(1, 5), rng.randint(1, 3)
        if n < d:
            continue
        configuration = random_config(rng, n, d)
        if not is_independent(configuration.vectors[:d]):
            continue
        w = decomposable(configuration)
        wedge = apply_algebra_element(w, subset_antisymmetrizer(n, range(1, d + 1)))
        rest = VectorConfiguration(d, configuration.vectors[d:])
        for lam in partitions_of(n):
            if len(lam) != d:
                continue
            lhs = not apply_algebra_element(wedge, central_idempotent(lam)).is_zero()
            reduced = lam.remove_first_column()
            rhs = True if rest.n == 0 else nonzero_after_symmetrize(rest, reduced)
            assert lhs == rhs
        checked += 1


def test_tensor_json_sorted():
    tensor = SparseTensor(2, 2, {(2, 1): Fraction(1, 3), (1, 2): 2})
    obj = tensor.to_json_obj()
    assert obj == {
        "n": 2,
        "dim": 2,
        "entries": [
            {"index": [1, 2], "value": "2"},
            {"index": [2, 1], "value": "1/3"},
        ],
    }


def test_sparse_tensor_validation():
    with pytest.raises(ValueError):
        SparseTensor(2, 2, {(1, 3): 1})
    with pytest.raises(ValueError):
        SparseTensor(2, 2, {(1,): 1})
    # a float or a bool index entry would be printed, or summed, as a key
    for entries in ({(1.5,): 1}, {(True,): 1}, {(2.0,): 1}):
        with pytest.raises(ValueError, match="not an integer entry"):
            SparseTensor(1, 2, entries)
    with pytest.raises(ValueError, match="not an integer entry"):
        SparseTensor(2, 2, {(1.5, 2): 1, (2, 1): 1})


def test_exact_scalars_only():
    with pytest.raises(ValueError):
        VectorConfiguration(2, [(0.5, 1)])
    with pytest.raises(ValueError):
        VectorConfiguration(2, [(True, 1)])


def test_configuration_dimension_must_be_nonnegative_int():
    for dim in (2.9, 2.0, "2", -3, True, False, None):
        with pytest.raises(ValueError, match="dimension"):
            VectorConfiguration(dim, [])
    with pytest.raises(ValueError, match="dimension"):
        VectorConfiguration.from_json_obj({"dim": 2.9, "vectors": [["1", "0"]]})
    assert VectorConfiguration(0, [(), ()]).n == 2


def test_character_sum_skips_vanishing_classes_consistently():
    # symmetrize must agree with the fully naive character sum
    rng = random.Random(15)
    for _ in range(10):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        configuration = random_config(rng, n, d)
        table = character_table(n)
        for lam in partitions_of(n):
            scale, terms = Fraction(syt_count(lam), factorial(n)), []
            for sigma in all_permutations(n):
                chi = table.rows[lam][table.classes.index(sigma.cycle_type())]
                if chi:
                    terms.append((scale * chi, decomposable(permuted(configuration, sigma))))
            naive = tensor_sum(n, d, terms)
            assert symmetrize(configuration, lam) == naive


def degenerate_config(rng, n, d):
    """The configuration of `degenerate_vectors`."""
    return VectorConfiguration(d, degenerate_vectors(rng, n, d))


def degenerate_vectors(rng, n, d):
    """Rational vectors with zero vectors, repeats and rational multiples of
    earlier vectors mixed in."""
    vectors = []
    for i in range(n):
        u = rng.random()
        if u < 0.1:
            vectors.append([0] * d)
        elif i and u < 0.4:
            vectors.append(vectors[rng.randrange(i)])
        elif i and u < 0.7:
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            vectors.append([c * e for e in vectors[rng.randrange(i)]])
        else:
            vectors.append([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)])
    return vectors


def test_class_sums_match_per_shape_oracles():
    # one walk for every shape gives each shape's tensor and d_lam exactly
    # as the one-walk-per-shape routes did
    rng = random.Random(41)
    for n in range(1, 7):
        shapes = partitions_of(n)
        for d in range(1, 4):
            for _ in range(4 if n < 6 else 1):
                configuration = degenerate_config(rng, n, d)
                gram = gram_matrix(configuration)
                matrices = [gram, Matrix(random_rational_rows(rng, n))]
                for lam in shapes:
                    expected = per_shape_symmetrize(configuration, lam)
                    assert symmetrize(configuration, lam) == expected
                for m in matrices:
                    values, value_divisor = matrix_function_sums(m, shapes)
                    for lam, value in zip(shapes, values):
                        expected = per_shape_generalized_matrix_function(m, lam)
                        assert Fraction(value, value_divisor) == expected
                        assert generalized_matrix_function(m, lam) == expected
    # each listed shape in any order and number gets its own result
    configuration = degenerate_config(random.Random(3), 4, 2)
    listed = [P(2, 1, 1), P(4), P(2, 1, 1)]
    tensors, divisor = _projector_sums(decomposable(configuration), listed)
    for lam, entries in zip(listed, tensors):
        assert SparseTensor(4, 2, {i: Fraction(c, divisor) for i, c in entries.items()}) == (
            per_shape_symmetrize(configuration, lam)
        )
    with pytest.raises(ValueError, match="does not match"):
        symmetrize(configuration, P(3))
    with pytest.raises(ValueError, match="does not match"):
        matrix_function_sums(identity_matrix(3), [P(3), P(2)])


def _with_zeros(rows, rng):
    """rows with one zero row, with one zero column and with a zero diagonal."""
    n = len(rows)
    i, j = rng.randrange(n), rng.randrange(n)
    zero_row = [r if k != i else [0] * n for k, r in enumerate(rows)]
    zero_column = [[e if c != j else 0 for c, e in enumerate(r)] for r in rows]
    zero_diagonal = [[e if c != k else 0 for c, e in enumerate(r)] for k, r in enumerate(rows)]
    return [zero_row, zero_column, zero_diagonal]


def test_matrix_function_sums_match_the_walk():
    # the class sums over subsets of the rows give the walk's integers on
    # non-symmetric integer and rational matrices, sparse or with a zero
    # row, column or diagonal, for shape lists of every length; the
    # Permutation walk in Fraction arithmetic (27 s for one shape at n = 8)
    # checks every shape up to n = 4 and one shape on two matrices at 5 and 6
    rng = random.Random(23)
    for n in range(1, 9):
        shapes = partitions_of(n)
        integer = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)]
                   for _ in range(n)]
        for rows in [integer, random_rational_rows(rng, n)]:
            variants = [rows, *_with_zeros(rows, rng)]
            for k, m in enumerate(map(Matrix, variants)):
                lists = [shapes, [rng.choice(shapes)]]
                if n < 7:
                    lists.append(rng.sample(shapes, rng.randint(1, len(shapes))) + [shapes[-1]])
                for listed in lists:
                    values, divisor = matrix_function_sums(m, listed)
                    assert all(isinstance(v, int) for v in values)
                    assert (values, divisor) == reference_matrix_function_sums(m, listed)
                if n <= 4 or (n <= 6 and k == n - 4):
                    checked = shapes if n <= 4 else [rng.choice(shapes)]
                    values, divisor = matrix_function_sums(m, checked)
                    for lam, value in zip(checked, values):
                        assert Fraction(value, divisor) == (
                            reference_generalized_matrix_function(m, lam)
                        )


def _fraction_determinant(rows):
    rows = [[Fraction(e) for e in row] for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return det


def test_dense_matrix_functions_walk_no_permutations(monkeypatch):
    # at n = 10 the walk would be 10! terms; the subset recursion walks no
    # permutation at all
    def no_walk(n):
        raise AssertionError(f"permutations_with_class({n}) walked")

    monkeypatch.setattr(characters, "permutations_with_class", no_walk)
    n = 10
    shapes = partitions_of(n)
    rng = random.Random(10)
    dense = [[rng.randint(1, 9) * rng.choice([-1, 1]) for _ in range(n)] for _ in range(n)]
    values, divisor = matrix_function_sums(Matrix(dense), shapes)
    assert divisor == 1
    # the one-column shape is the determinant
    assert values[-1] == _fraction_determinant(dense)
    # at the identity each shape gives chi(1), and at the all-ones matrix
    # n! <chi, 1>: n! for (n), else 0
    assert matrix_function_sums(identity_matrix(n), shapes) == (
        [syt_count(lam) for lam in shapes], 1
    )
    assert matrix_function_sums(Matrix([[1] * n] * n), shapes) == (
        [factorial(n)] + [0] * (len(shapes) - 1), 1
    )


def test_configuration_rows_are_the_vectors_over_their_scales():
    rng = random.Random(42)
    for _ in range(60):
        n, d = rng.randint(1, 6), rng.randint(0, 3)
        vectors = degenerate_vectors(rng, n, d)
        configuration = VectorConfiguration(d, vectors)
        rows, scales = configuration.rows, configuration.scales
        assert len(rows) == len(scales) == n
        for row, scale, vector in zip(rows, scales, vectors):
            assert all(isinstance(c, int) for c in row)
            assert scale == lcm(*(e.denominator for e in vector))
            assert [Fraction(c, scale) for c in row] == list(vector)


def test_projector_parts_match_idempotent_application():
    # the projector's parts for many shapes at once give each shape what
    # applying its central idempotent on its own gives, on tensors that are
    # not pure
    rng = random.Random(43)
    for n in range(1, 6):
        shapes = partitions_of(n)
        for d in range(1, 4):
            configuration = degenerate_config(rng, n, d)
            pure = decomposable(configuration)
            wedge = apply_algebra_element(
                pure, subset_antisymmetrizer(n, range(1, min(n, d) + 1))
            )
            for w in (random_tensor(rng, n, d, terms=6), wedge, SparseTensor(n, d)):
                sums, divisor = _projector_sums(w, shapes)
                for lam, entries in zip(shapes, sums):
                    assert {idx: Fraction(c, divisor) for idx, c in entries.items()} == (
                        apply_algebra_element(w, central_idempotent(lam)).entries
                    )


def test_symmetrize_checks_the_shape_and_degree_before_the_pure_tensor(monkeypatch):
    # both brute entry points refuse before the rows are multiplied out:
    # neither a weight block nor the whole pure tensor is built first
    def no_tensor(rows, keep=None):
        raise AssertionError("the pure tensor was built before the checks")

    monkeypatch.setattr(brute, "_pure_blocks", no_tensor)
    monkeypatch.setattr(brute, "_pure_numerators", no_tensor)
    wide = VectorConfiguration(40, [[1] * 40] * 11)  # 40^11 entries in C(50, 11) blocks
    for route in (symmetrize, nonzero_after_symmetrize):
        with pytest.raises(ValueError, match="shape size 10 does not match 11 vectors"):
            route(wide, P(10))
        with pytest.raises(ValueError, match="degree 11 exceeds cap"):
            route(wide, P(11))
        with pytest.raises(ValueError, match="n must be at least 1"):
            route(VectorConfiguration(2, []), P())


def _position_blocks(numerators, shapes):
    """For each weight block of a tensor (the numerators with one sorted
    index tuple) where some listed shape can occur, before its space is
    built: the weight, its brute._block_space and the block as an int list
    over the space's positions, as the brute kernels take them."""
    listed = set(shapes)
    blocks = {}
    for idx, c in numerators.items():
        blocks.setdefault(tuple(sorted(idx)), {})[idx] = c
    for weight, block in blocks.items():
        if not listed.isdisjoint(brute._young_candidates(weight)):
            space = brute._block_space(weight)
            v = [0] * len(space.tuples)
            for idx, c in block.items():
                v[space.positions[idx]] = c
            yield weight, space, v


def _projector_sums(w, shapes):
    """The projector's part of w for each shape, as nonzero integer entries
    over one divisor common to all: the parts of each weight block where a
    listed shape can occur (brute._weight_block_parts) brought to that
    divisor."""
    split = _position_blocks(w.numerators, shapes)
    blocks = list(brute._weight_block_parts(split, shapes))
    divisor = lcm(*(q for parts in blocks for _, q in parts))
    out = [{} for _ in shapes]
    for parts in blocks:
        for total, (entries, q) in zip(out, parts):
            total.update((idx, c * (divisor // q)) for idx, c in entries.items())
    return out, divisor * w.divisor


def _rational_parts(sums, divisor):
    return [{idx: Fraction(c, divisor) for idx, c in entries.items()} for entries in sums]


def test_pure_blocks_are_the_weight_blocks_of_the_pure_tensor():
    # the blocks built from the rows are, weight by weight in lexicographic
    # order, the blocks of the pure tensor multiplied out by index tuple, on
    # configurations with zero vectors, repeats and rational multiples, and
    # on sparse rows of Q^200 whose one or two entries sit at indices near
    # 200, so that the weights hold high indices
    rng = random.Random(64)
    configurations = [
        degenerate_config(rng, n, d) for n in range(1, 8) for d in range(1, 5) for _ in range(3)
    ]
    for n in range(1, 7):
        for _ in range(4):
            vectors = [[0] * 200 for _ in range(n)]
            for row in vectors:
                for i in rng.sample(range(190, 200), rng.randint(1, 2)):
                    row[i] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            configurations.append(VectorConfiguration(200, vectors))
    nonzero = 0
    for configuration in configurations:
        w, scale = decomposable(configuration), prod(configuration.scales)
        shapes = partitions_of(configuration.n)
        built = [
            (weight, space, [Fraction(c, scale) for c in v])
            for weight, space, v in brute._pure_blocks(configuration.rows, shapes)
        ]
        split = {
            weight: (space, [Fraction(c, w.divisor) for c in v])
            for weight, space, v in _position_blocks(w.numerators, shapes)
        }
        assert [weight for weight, _, _ in built] == sorted(split)
        assert {weight: (space, v) for weight, space, v in built} == split
        nonzero += bool(split)
    assert nonzero > 60


def test_projector_matches_reference_symmetrized_sums():
    # the Jucys-Murphy projector gives every shape the tensor of the n!-term
    # walk, on pure tensors with zero vectors, repeats and rational
    # multiples, on the det-twist wedge, which is not pure, and on zero
    rng = random.Random(47)
    for n in range(1, 8):
        shapes = partitions_of(n)
        for d in range(1, 4):
            # configurations until two (at n = 7 one) have a nonzero pure tensor
            nonzero = 0
            while nonzero < (2 if n < 7 else 1):
                configuration = degenerate_config(rng, n, d)
                pure = decomposable(configuration)
                nonzero += not pure.is_zero()
                wedge = apply_algebra_element(
                    pure, subset_antisymmetrizer(n, range(1, min(n, d) + 1))
                )
                expected = _rational_parts(*reference_symmetrized_sums(pure, shapes))
                for lam, entries in zip(shapes, expected):
                    assert symmetrize(configuration, lam).entries == entries
                for w in (wedge, SparseTensor(n, d)):
                    sums, divisor = _projector_sums(w, shapes)
                    assert all(all(entries.values()) for entries in sums)
                    assert _rational_parts(sums, divisor) == _rational_parts(
                        *reference_symmetrized_sums(w, shapes)
                    )
    # listed shapes in any order and number, and a divisor shared by all
    configuration = degenerate_config(random.Random(5), 5, 3)
    w = decomposable(configuration)
    listed = [P(3, 1, 1), P(5), P(3, 1, 1), P(2, 2, 1)]
    expected = _rational_parts(*reference_symmetrized_sums(w, listed))
    assert _rational_parts(*_projector_sums(w, listed)) == expected
    assert [symmetrize(configuration, lam).entries for lam in listed] == expected


def test_shapes_dominating_no_weight_are_zero():
    # Young's rule, which lets the projector skip weight blocks: a shape
    # that dominates no weight (sorted multiplicities of an index tuple) of
    # the support gets zero from the walk
    rng = random.Random(48)
    for n in range(1, 7):
        shapes = partitions_of(n)
        for d in range(1, 4):
            w = random_tensor(rng, n, d, terms=3)
            weights = {
                Partition(sorted((idx.count(i) for i in set(idx)), reverse=True))
                for idx in w.numerators
            }
            sums, _ = reference_symmetrized_sums(w, shapes)
            for lam, entries in zip(shapes, sums):
                if not any(lam.dominates(mu) for mu in weights):
                    assert entries == {}


def test_projector_skips_levels_where_the_power_sum_is_one_value():
    # p_1 and p_2 of the contents separate every pair of shapes up to n = 14;
    # these two of 15 share p_1 = 15 and p_2 = 115, and p_3 is 405 against 225
    g = (P(7, 4, 2, 2), P(6, 6, 1, 1, 1))
    assert brute._lagrange(g, 1) is None
    assert brute._lagrange(g, 2) is None
    assert brute._lagrange(g, 3) == (((g[0],), (-225, 1), 180), ((g[1],), (405, -1), 180))
    # _separate goes on to level 3; with no transpositions in the space, Z
    # acts as zero, so each part is its constant coefficient times v
    out = {}
    brute._separate([1, 2], g, set(g), 1, 1, SimpleNamespace(maps=()), out)
    assert out == {g[0]: ([-225, -450], 180), g[1]: ([405, 810], 180)}
    # p_1, ..., p_n determine a shape of n, so a level past n is a fault
    with pytest.raises(RuntimeError, match=r"share 4 power sums"):
        brute._lagrange((P(2, 1), P(2, 1)), 4)


def _squared_norms(sums, divisor):
    return [Fraction(sum(c * c for c in entries.values()), divisor**2) for entries in sums]


def _split_norms(w, shapes):
    """brute._block_norms on the weight blocks of w where a listed shape
    can occur."""
    return brute._block_norms(_position_blocks(w.numerators, shapes), shapes)


def _rational_norms(w, shapes):
    norms, divisor = _split_norms(w, shapes)
    assert divisor > 0 and all(isinstance(c, int) for c in norms)
    return [Fraction(c, divisor * w.divisor**2) for c in norms]


def test_norms_from_moments_match_the_formed_parts():
    # _block_norms reads each shape's squared norm from Krylov moments,
    # and gives the squared norm of the projector's part for every shape,
    # on pure tensors with zero vectors, repeats and rational multiples
    rng = random.Random(53)
    for n in range(1, 9):
        shapes = partitions_of(n)
        for d in range(1, 4):
            # configurations until three (at n >= 7 one) have a nonzero pure tensor
            nonzero = 0
            while nonzero < (3 if n < 7 else 1):
                w = decomposable(degenerate_config(rng, n, d))
                nonzero += not w.is_zero()
                assert _rational_norms(w, shapes) == _squared_norms(*_projector_sums(w, shapes))


def test_norms_of_tensors_that_are_not_pure():
    # the det-twist wedge, the identity tuple (1, ..., n) over Q^n, whose
    # block is the regular representation, and the zero tensor
    rng = random.Random(54)
    for n in range(1, 6):
        shapes = partitions_of(n)
        identity = SparseTensor(n, n, {tuple(range(1, n + 1)): 1})
        tensors = [identity, SparseTensor(n, 2)]
        for d in range(1, 4):
            pure = decomposable(degenerate_config(rng, n, d))
            tensors.append(
                apply_algebra_element(pure, subset_antisymmetrizer(n, range(1, min(n, d) + 1)))
            )
        for w in tensors:
            assert _rational_norms(w, shapes) == _squared_norms(*_projector_sums(w, shapes))
        # the identity's lam-part is e_lam, of squared norm chi(1)^2 / n!
        assert _rational_norms(identity, shapes) == [
            Fraction(syt_count(lam) ** 2, factorial(n)) for lam in shapes
        ]
        assert _split_norms(SparseTensor(n, 2), shapes) == ([0] * len(shapes), 1)


def test_norms_of_shapes_in_no_block_are_zero(monkeypatch):
    # (1, 1, 1) dominates no weight of two letters and (2, 1) not the weight
    # (3): such a shape's norm is 0, and a list of only such shapes builds no
    # block space
    built, moved = _counted_kernel(monkeypatch)
    constant = SparseTensor(3, 2, {(1, 1, 1): 1, (2, 2, 2): 3})
    assert _split_norms(constant, [P(2, 1), P(1, 1, 1)]) == ([0, 0], 1)
    assert built == [] and moved == []
    assert _split_norms(constant, [P(2, 1), P(3)]) == ([0, 10], 1)
    w = decomposable(cfg(2, E1, (1, 1), E2))
    listed = [P(1, 1, 1), P(2, 1), P(3), P(1, 1, 1)]
    norms, _ = _split_norms(w, listed)
    assert norms[0] == norms[3] == 0 and norms[1] != 0
    assert _rational_norms(w, listed) == _squared_norms(*_projector_sums(w, listed))


def test_norms_skip_levels_as_the_parts_do():
    # the shapes of test_projector_skips_levels_where_the_power_sum_is_one_value
    # split at level 3, with p_3 405 and 225; on two positions with position
    # maps whose Z = p_3(X_2, X_3, X_4) is 405 on (1, 1) and 225 on (1, -1)
    # (X = 3 + 2s, 3 + s and 6 for the swap s), the moments give the squared
    # norms of the formed parts, 9/2 and 1/2 for v = (1, 2)
    g = (P(7, 4, 2, 2), P(6, 6, 1, 1, 1))
    fixed, swap = (0, 1), (1, 0)
    space = SimpleNamespace(maps=((fixed,) * 3 + (swap,) * 2, (fixed,) * 3 + (swap,), (fixed,) * 6))
    parts, norms = {}, {}
    brute._separate([1, 2], g, set(g), 1, 1, space, parts)
    brute._separate([1, 2], g, set(g), 1, 1, space, norms, norms=True)
    assert parts == {g[0]: ([270, 270], 180), g[1]: ([-90, 90], 180)}
    assert norms == {g[0]: (810, 180), g[1]: (90, 180)}


def test_projector_moves_a_small_share_of_the_walk(monkeypatch):
    # 8 dense vectors in Q^3: the walk would move 8! * 3^8 entries; the
    # projector moves at most 1% of that, one position per position map
    # applied
    position_sum, moved = brute._transposition_sum, []

    def counted(x, maps):
        moved.append(len(x) * len(maps))
        return position_sum(x, maps)

    monkeypatch.setattr(brute, "_transposition_sum", counted)
    rng = random.Random(8)
    dense = VectorConfiguration(3, [[rng.randint(1, 5) for _ in range(3)] for _ in range(8)])
    support = len(decomposable(dense).numerators)
    assert support == 3**8
    symmetrized = symmetrize(dense, P(4, 2, 2))
    assert not symmetrized.is_zero()
    assert 0 < sum(moved) <= factorial(8) * support // 100


def test_brute_decider_stops_at_the_first_nonzero_block(monkeypatch):
    # the pure tensor of e1, e1 + e2, e2, e2 has the weight blocks (1,1,2,2)
    # and (1,2,2,2), both where (3, 1) can occur; the first block's part is
    # nonzero, so the decider projects no second block
    separate, blocks = brute._separate, []

    def counted(v, group, wanted, m, divisor, space, out, norms=False):
        if m == 1:
            blocks.append(space)
        return separate(v, group, wanted, m, divisor, space, out, norms)

    monkeypatch.setattr(brute, "_separate", counted)
    configuration = cfg(2, E1, (1, 1), E2, E2)
    assert nonzero_after_symmetrize(configuration, P(3, 1))
    assert blocks == [brute._block_space((1, 1, 2, 2))]
    blocks.clear()
    assert not symmetrize(configuration, P(3, 1)).is_zero()
    assert len(blocks) == 2


def test_brute_decider_answers_past_its_first_block():
    # the decider answers from every block it keeps, as Gamas's theorem
    # does: the first kept block of v1 = (-1, 1, 1, 1), v2 = (1, -1, 0, 0)
    # has a zero (1, 1)-part, yet (1, 1) appears; then every shape of 300
    # seeded sparse configurations
    pair = cfg(4, (-1, 1, 1, 1), (1, -1, 0, 0))
    blocks = brute._pure_blocks(pair.rows, [P(1, 1)])
    [(norm, _)] = next(brute._weight_block_parts(blocks, [P(1, 1)], norms=True))
    assert norm == 0
    assert nonzero_after_symmetrize(pair, P(1, 1))
    rng = random.Random(41)
    configurations = [pair]
    for _ in range(300):
        n, d = rng.randint(2, 5), rng.randint(2, 4)
        rows = [[rng.choice((-1, 0, 0, 1, 2)) for _ in range(d)] for _ in range(n)]
        configurations.append(VectorConfiguration(d, rows))
    for configuration in configurations:
        for lam in partitions_of(configuration.n):
            appears = gamas_condition(configuration, lam) is not None
            assert nonzero_after_symmetrize(configuration, lam) == appears, (
                configuration.rows, lam)


def _counted_spaces(monkeypatch):
    # a record of the weights whose _block_space is asked for, once for
    # each weight block built
    space, weights = brute._block_space, []

    def counted(weight):
        weights.append(weight)
        return space(weight)

    monkeypatch.setattr(brute, "_block_space", counted)
    return weights


def test_blocks_come_from_the_row_supports(monkeypatch):
    # the weights of a pure tensor are read off the rows' supports: 8
    # standard basis vectors of Q^40 have one weight, where a walk over
    # every sorted index tuple would try C(47, 8), about 3 * 10^8; each
    # route builds that one block, and symmetrize forms the tensor from it
    e = [[int(i == j) for j in range(40)] for i in range(40)]
    basis = VectorConfiguration(40, [e[i] for i in (36, 37, 38, 39)] * 2)
    weight = (37, 37, 38, 38, 39, 39, 40, 40)
    weights = _counted_spaces(monkeypatch)
    for route in (nonzero_after_symmetrize, symmetrize):
        weights.clear()
        assert route(basis, P(4, 2, 2))
        assert weights == [weight]
    (entries,), divisor = _projector_sums(decomposable(basis), [P(4, 2, 2)])
    assert symmetrize(basis, P(4, 2, 2)) == SparseTensor._from_integers(8, 40, entries, divisor)


def test_a_brute_yes_builds_the_blocks_up_to_the_first_nonzero_one(monkeypatch):
    # the blocks are built one at a time as the decider reads them, in
    # lexicographic order of their weights: where the first block,
    # (1, 1, 2, 2), has a nonzero (3, 1)-part, (1, 2, 2, 2) is never built
    weights = _counted_spaces(monkeypatch)
    assert nonzero_after_symmetrize(cfg(2, E1, (1, 1), E2, E2), P(3, 1))
    assert weights == [(1, 1, 2, 2)]
    # of the seven weights here, (2, 2) dominates three; the (2, 2)-part is
    # zero on the first of those and nonzero on the second, so the decider
    # builds two blocks, and symmetrize builds all three
    weights.clear()
    configuration = cfg(3, (1, 1, 0), (1, 1, -2), (0, 1, 0), (1, 1, 0))
    assert nonzero_after_symmetrize(configuration, P(2, 2))
    assert weights == [(1, 1, 2, 2), (1, 1, 2, 3)]
    weights.clear()
    assert not symmetrize(configuration, P(2, 2)).is_zero()
    assert weights == [(1, 1, 2, 2), (1, 1, 2, 3), (1, 2, 2, 3)]


def test_brute_decider_forms_no_part(monkeypatch):
    # the CLI's brute decider reads each block's squared norm from Krylov
    # moments, the projector mode every trial suite runs, and answers as
    # _block_norms does, on configurations with zero and repeated vectors
    separate, modes = brute._separate, []

    def recorded(v, group, wanted, m, divisor, space, out, norms=False):
        modes.append(norms)
        return separate(v, group, wanted, m, divisor, space, out, norms)

    monkeypatch.setattr(brute, "_separate", recorded)
    rng = random.Random(59)
    decided = 0
    for n in range(1, 8):
        for d in range(1, 4):
            for _ in range(3 if n < 6 else 1):
                configuration = degenerate_config(rng, n, d)
                for lam in partitions_of(n):
                    modes.clear()
                    answer = nonzero_after_symmetrize(configuration, lam)
                    assert all(modes), (configuration.vectors, lam)
                    decided += bool(modes)
                    norms, _ = _split_norms(decomposable(configuration), [lam])
                    assert answer == (norms[0] != 0)
    assert decided > 0


def _counted_kernel(monkeypatch):
    # a fresh block-space cache, and a record of the position maps built
    # and of the position moves made
    built, moved = [], []
    build, position_sum = brute._transposition_maps, brute._transposition_sum

    def counted_build(tuples, positions):
        built.append(tuples[0])
        return build(tuples, positions)

    def counted_sum(x, maps):
        moved.append(len(x) * len(maps))
        return position_sum(x, maps)

    monkeypatch.setattr(brute, "_transposition_maps", counted_build)
    monkeypatch.setattr(brute, "_transposition_sum", counted_sum)
    brute._block_space.cache_clear()
    return built, moved


def test_blocks_with_one_candidate_shape_build_no_maps(monkeypatch):
    # a block whose weight is (n), as every block at d = 1 is, has one
    # candidate shape, (n), and is its own part: no map is built and no
    # position moved
    built, moved = _counted_kernel(monkeypatch)
    for n in range(1, 6):
        line = cfg(1, *[(k,) for k in range(1, n + 1)])
        assert nonzero_after_symmetrize(line, P(n))
        assert symmetrize(line, P(n)) == decomposable(line)
        single = SparseTensor(n, 3, {(2,) * n: 5, (3,) * n: -1})
        (entries,), divisor = _projector_sums(single, [P(n)])
        assert SparseTensor._from_integers(n, 3, entries, divisor) == single
    assert built == [] and moved == []
    # a block of weight (1, 1, 2), where (3) and (2, 1) can occur, is split
    symmetrize(cfg(2, E1, E1, E2), P(2, 1))
    assert built == [(1, 1, 2)] and sum(moved) > 0


def test_blocks_with_no_listed_shape_build_no_maps(monkeypatch):
    # (1, 1, 1) dominates no weight of two letters, and (2, 1) not the weight
    # (3): the projector skips such blocks before it places them
    built, moved = _counted_kernel(monkeypatch)
    configuration = cfg(2, E1, (1, 1), E2)
    assert symmetrize(configuration, P(1, 1, 1)).is_zero()
    assert not nonzero_after_symmetrize(configuration, P(1, 1, 1))
    constant = SparseTensor(3, 2, {(1, 1, 1): 1, (2, 2, 2): 3})
    assert _projector_sums(constant, [P(2, 1)]) == ([{}], 1)
    assert built == [] and moved == []
    assert brute._block_space.cache_info().currsize == 0


def test_block_space_lists_each_arrangement_once_in_order():
    for weight in [(), (1,), (1, 1, 2), (1, 2, 2, 3), (2, 2, 2), (1, 1, 2, 2, 3)]:
        space = brute._block_space(weight)
        assert space.tuples == sorted(set(permutations(weight)))
        assert space.positions == {idx: p for p, idx in enumerate(space.tuples)}
    # each map is the transposition's place action on positions, an involution
    space = brute._block_space((1, 1, 2, 3))
    assert [len(maps) for maps in space.maps] == [1, 2, 3]
    for k, maps in enumerate(space.maps, start=2):
        for i, g in enumerate(maps, start=1):
            for p, idx in enumerate(space.tuples):
                moved = list(idx)
                moved[i - 1], moved[k - 1] = idx[k - 1], idx[i - 1]
                assert space.tuples[g[p]] == tuple(moved)
                assert g[g[p]] == p


def test_transposition_maps_match_the_place_action_route():
    # the maps swap two entries of each index tuple; the earlier route moved
    # the tuples by the place action of each transposition's image tuple
    weights = [
        weight
        for n in range(2, 9)
        for d in range(1, 4)
        for weight in combinations_with_replacement(range(1, d + 1), n)
    ]
    assert len(weights) == 210
    for weight in weights:
        space = brute._block_space(weight)
        assert brute._transposition_maps(space.tuples, space.positions) == (
            reference_transposition_maps(space.tuples, space.positions)
        ), weight


def _count_tables(monkeypatch) -> list:
    """Record every character_table call, by its degree, in the list returned."""
    built, table = [], characters.character_table

    def counted(n):
        built.append(n)
        return table(n)

    monkeypatch.setattr(characters, "character_table", counted)
    return built


def test_symmetrize_builds_no_character_table(monkeypatch):
    # the projector reads contents, not characters, and the degree cap is
    # checked without the table
    built = _count_tables(monkeypatch)
    configuration = cfg(2, E1, (1, 1), E2, E2)
    symmetrize(configuration, P(3, 1))
    nonzero_after_symmetrize(configuration, P(3, 1))
    assert built == []


def test_matrix_functions_build_no_character_table(monkeypatch):
    # the gram route reads one character row per listed shape, so no decide
    # route builds the p(n) x p(n) table on the way to a verdict
    built = _count_tables(monkeypatch)
    configuration = cfg(3, (1, 0, 0), (1, 1, 0), (0, 1, 1), (1, 2, 3), (2, 0, 1))
    gram = gram_matrix(configuration)
    assert generalized_matrix_function(gram, P(3, 1, 1)) != 0
    assert matrix_function_sums(gram, [P(5), P(2, 2, 1), P(1, 1, 1, 1, 1)])
    assert built == []
