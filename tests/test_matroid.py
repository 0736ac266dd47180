import hashlib
import json
import random
from fractions import Fraction

import pytest

import isotypic.matroid as matroid_module
from isotypic.linalg import VectorConfiguration, is_independent
from isotypic.matroid import (
    ORACLE_SIZE_CAP,
    BlockCertificate,
    LinearMatroid,
    RankPartition,
    _color_classes,
    decide_appears,
    gamas_condition,
    rank_partition,
    rank_partition_oracle,
    validate_certificate,
)
from isotypic.partitions import Partition, partitions_of
from oracles import reference_gamas_condition, reference_rank_partition

E1 = (1, 0)
E2 = (0, 1)


def P(*parts):
    return Partition(parts)


def cfg(d, *vectors):
    return VectorConfiguration(d, vectors)


def random_config(rng, n, d, p_dup=0.3, p_zero=0.1):
    vectors = []
    for i in range(n):
        roll = rng.random()
        if roll < p_zero:
            vectors.append(tuple(Fraction(0) for _ in range(d)))
        elif i > 0 and roll < p_zero + p_dup:
            vectors.append(vectors[rng.randrange(i)])
        else:
            vectors.append(tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)))
    return VectorConfiguration(d, vectors)


def test_rank_partition_independent_vectors():
    configuration = cfg(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert rank_partition(configuration).rho == (3,)


def test_rank_partition_repeated_vector():
    assert rank_partition(cfg(2, E1, E1, E1)).rho == (1, 1, 1)


def test_rank_partition_mixed():
    assert rank_partition(cfg(2, E1, E1, E2)).rho == (2, 1)
    assert rank_partition_oracle(cfg(2, E1, E1, E2)).rho == (2, 1)


def test_rank_partition_with_zero_vector():
    got = rank_partition_oracle(cfg(2, (0, 0), E1))
    assert got.rho == (1,)
    assert got.size == 1
    assert rank_partition(cfg(2, (0, 0), E1)).rho == (1,)


def test_rank_partition_triangle():
    configuration = cfg(2, E1, E2, (1, 1))
    assert rank_partition(configuration).rho == (2, 1)
    assert rank_partition_oracle(configuration).rho == (2, 1)


def test_rank_partition_all_zero():
    configuration = cfg(2, (0, 0), (0, 0))
    assert rank_partition(configuration).rho == ()
    assert rank_partition(configuration).size == 0


def test_rank_partition_matches_oracle_randomized():
    rng = random.Random(20240809)
    for trial in range(120):
        n = rng.randint(1, 12)
        d = rng.randint(1, 4)
        configuration = random_config(rng, n, d)
        fast = rank_partition(configuration)
        slow = rank_partition_oracle(configuration)
        assert fast.rho == slow.rho, configuration.to_json_obj()
        nonzero = sum(1 for v in configuration.vectors if any(v))
        assert fast.size == nonzero


def test_pruned_search_ends_with_reference_classes():
    # zero vectors, repeats and rational multiples of earlier vectors
    rng = random.Random(5150)
    for trial in range(500):
        n = rng.randint(1, 12)
        d = rng.randint(1, 5)
        vectors = []
        for i in range(n):
            roll = rng.random()
            if roll < 0.1:
                vectors.append((Fraction(0),) * d)
            elif i > 0 and roll < 0.3:
                vectors.append(vectors[rng.randrange(i)])
            elif i > 0 and roll < 0.5:
                c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                vectors.append(tuple(c * e for e in vectors[rng.randrange(i)]))
            else:
                vectors.append(
                    tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d))
                )
        configuration = VectorConfiguration(d, vectors)
        rho, classes = _color_classes(LinearMatroid(configuration))
        ref_rho, ref_classes = reference_rank_partition(configuration)
        assert classes == ref_classes, configuration.to_json_obj()
        assert tuple(rho) == ref_rho
        assert rank_partition(configuration).rho == ref_rho
        assert rank_partition_oracle(configuration).rho == ref_rho


MOMENT_POINTS = [tuple(t**k for k in range(5)) for t in range(1, 31)]


@pytest.mark.parametrize(
    "vectors, rho, factor",
    [
        # 30 moment-curve points in Q^5, each used twice: every round fills
        # all its classes, after which the unpruned search re-explores the
        # whole exchange graph for each remaining element
        (MOMENT_POINTS * 2, (5,) * 12, 200),
        # 10 of them and one more point 30 times: from the fourth round on,
        # each round covers one copy and every other copy fails
        (MOMENT_POINTS[:10] + MOMENT_POINTS[10:11] * 30, (5, 5, 3) + (1,) * 27, 4),
    ],
    ids=["moment-pairs", "one-point-thirty-times"],
)
def test_rank_partition_work_bound(vectors, rho, factor):
    # at most 1/factor of the reference route's rank-oracle calls; the
    # factors sit at least 1.5x below the measured ratios (339x, 5.9x)
    configuration = VectorConfiguration(5, vectors)
    calls = 0
    rank = LinearMatroid.rank

    def counted(self, subset):
        nonlocal calls
        calls += 1
        return rank(self, subset)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinearMatroid, "rank", counted)
        assert reference_rank_partition(configuration)[0] == rho
        reference_calls, calls = calls, 0
        assert rank_partition(configuration).rho == rho
    assert calls * factor <= reference_calls, (calls, reference_calls)


def test_rank_partition_achievable_by_certificate():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 10)
        d = rng.randint(1, 4)
        configuration = random_config(rng, n, d, p_zero=0.0)
        if any(not any(v) for v in configuration.vectors):
            continue  # a fresh draw can still be the zero vector
        rho = rank_partition(configuration)
        lam = rho.conjugate()
        certificate = gamas_condition(configuration, lam)
        assert certificate is not None
        assert validate_certificate(configuration, certificate, lam)


def test_rank_partition_constructor_rejects_increasing():
    with pytest.raises(ValueError):
        RankPartition((1, 2))
    with pytest.raises(ValueError):
        RankPartition((2, 0))


def test_rank_partition_is_a_partition():
    configuration = cfg(2, E1, E1, E2, (1, 1))
    fast = rank_partition(configuration)
    slow = rank_partition_oracle(configuration)
    assert isinstance(fast, Partition) and isinstance(slow, Partition)
    assert fast == slow == Partition([2, 2])
    assert fast.rho is fast.parts
    assert fast.to_json_obj() == {"rho": [2, 2], "covered": 4}


def test_block_certificate_record():
    # repr, equality and hash are those of the former frozen dataclass
    empty = BlockCertificate(())
    assert repr(empty) == "BlockCertificate(blocks=())"
    assert empty == BlockCertificate(()) != BlockCertificate(((1,),))
    assert hash(empty) == hash(((),))


def test_oracle_cap():
    configuration = VectorConfiguration(1, [(1,)] * (ORACLE_SIZE_CAP + 1))
    with pytest.raises(ValueError):
        rank_partition_oracle(configuration)


def test_matroid_rank_properties():
    rng = random.Random(3)
    configuration = random_config(rng, 8, 3)
    matroid = LinearMatroid(configuration)
    ground = frozenset(range(1, 9))
    assert matroid.rank(frozenset()) == 0
    for _ in range(30):
        a = frozenset(e for e in ground if rng.random() < 0.5)
        b = frozenset(e for e in ground if rng.random() < 0.5)
        # monotone and submodular
        assert matroid.rank(a) <= matroid.rank(a | b)
        assert matroid.rank(a | b) + matroid.rank(a & b) <= matroid.rank(a) + matroid.rank(b)
        assert matroid.rank(a) <= len(a)


def test_gamas_condition_examples():
    configuration = cfg(2, E1, E1, E2)
    certificate = gamas_condition(configuration, P(2, 1))
    assert certificate is not None
    assert validate_certificate(configuration, certificate, P(2, 1))
    assert gamas_condition(configuration, P(1, 1, 1)) is None
    for lam in partitions_of(3):
        assert gamas_condition(cfg(2, E1, (0, 0), E2), lam) is None


def test_gamas_condition_raises_on_a_certificate_that_fails_validation(monkeypatch):
    # the engine's own check is the only one: selfcheck trusts what it returns
    monkeypatch.setattr(matroid_module, "validate_certificate", lambda *args: False)
    with pytest.raises(RuntimeError, match="invalid certificate"):
        gamas_condition(cfg(2, E1, E1, E2), P(2, 1))  # the README example


def test_validate_certificate_reads_no_engine_rank(monkeypatch):
    # the re-check eliminates through linalg's kernel, so a broken engine
    # elimination (as rank_fault and the tracer's miss counter patch it)
    # and the configuration's rank memo cannot sway it
    configuration = cfg(2, E1, E1, E2)
    certificate = gamas_condition(configuration, P(2, 1))
    memo = configuration.rank_memo
    memo.update({key: len(key) - 1 for key in memo if key})  # every memo rank wrong

    def broken(rows):
        raise AssertionError("validate_certificate called the engine's elimination")

    monkeypatch.setattr(matroid_module, "_int_rank", broken)
    assert validate_certificate(configuration, certificate, P(2, 1))
    dependent = BlockCertificate(((1, 2), (3,)))
    assert not validate_certificate(configuration, dependent, P(2, 1))


def test_gamas_condition_size_mismatch():
    with pytest.raises(ValueError):
        gamas_condition(cfg(2, E1, E2), P(3))


def test_gamas_condition_tall_shapes_fail_in_low_dimension():
    # a block larger than the ambient dimension can never be independent
    configuration = cfg(2, E1, E2, (1, 1))
    assert gamas_condition(configuration, P(1, 1, 1)) is None


def test_gamas_condition_refuses_without_a_search(monkeypatch):
    # a zero vector lies in no independent block, and a column of three
    # needs rank 3: both are settled before any augmenting path
    def search(*args):
        raise AssertionError("gamas_condition ran an augmenting search")

    monkeypatch.setattr(matroid_module, "_augment", search)
    for lam in partitions_of(3):
        assert gamas_condition(cfg(2, E1, (0, 0), E2), lam) is None
    assert gamas_condition(cfg(2, E1, E2, (1, 1)), P(1, 1, 1)) is None


def test_certificates_validate_randomized():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 7)
        d = rng.randint(1, 3)
        configuration = random_config(rng, n, d)
        for lam in partitions_of(n):
            certificate = gamas_condition(configuration, lam)
            if certificate is not None:
                assert validate_certificate(configuration, certificate, lam)


def mixed_config(rng, n, d):
    """Zero vectors, repeats and rational multiples of earlier vectors."""
    vectors = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.1:
            vectors.append((Fraction(0),) * d)
        elif i > 0 and roll < 0.3:
            vectors.append(vectors[rng.randrange(i)])
        elif i > 0 and roll < 0.5:
            c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            vectors.append(tuple(c * e for e in vectors[rng.randrange(i)]))
        else:
            vectors.append(tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d)))
    return VectorConfiguration(d, vectors)


def is_canonical(certificate):
    # blocks by size descending, then by smallest index; indices ascending
    blocks = list(certificate.blocks)
    return all(list(b) == sorted(b) for b in blocks) and blocks == sorted(
        blocks, key=lambda b: (-len(b), b)
    )


def test_gamas_condition_matches_backtracking_reference():
    rng = random.Random(6161)
    pairs = 0
    while pairs < 2000:
        n = rng.randint(1, 9)
        d = rng.randint(1, 4)
        configuration = mixed_config(rng, n, d)
        for lam in partitions_of(n):
            certificate = gamas_condition(configuration, lam)
            reference = reference_gamas_condition(configuration, lam)
            assert (certificate is None) == (reference is None), (
                configuration.to_json_obj(), lam.parts,
            )
            if certificate is not None:
                assert validate_certificate(configuration, certificate, lam)
                assert is_canonical(certificate)
            pairs += 1
    empty = VectorConfiguration(2, [])
    assert gamas_condition(empty, P()) == reference_gamas_condition(empty, P())
    assert gamas_condition(empty, P()) == BlockCertificate(())
    assert gamas_condition(cfg(2, (0, 0)), P(1)) is None
    assert reference_gamas_condition(cfg(2, (0, 0)), P(1)) is None
    # the README example
    assert gamas_condition(cfg(2, E1, E1, E2), P(2, 1)).blocks == ((1, 3), (2,))


def plane_crowd(n):
    # n - 2 vectors in general position in the plane z = 0 of Q^3, then two
    # off it whose span holds none of them: each of the three blocks of
    # size 3 that the shape (n - 6, 3, 3) asks for needs a vector off the
    # plane, so there is no certificate
    vectors = [(1, t, 0) for t in range(1, n - 1)] + [(0, 0, 1), (1, 0, 1)]
    return VectorConfiguration(3, vectors), P(n - 6, 3, 3)


def count_rank_calls(run):
    calls = 0
    rank = LinearMatroid.rank

    def counted(self, subset):
        nonlocal calls
        calls += 1
        return rank(self, subset)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LinearMatroid, "rank", counted)
        assert run() is None
    return calls


def test_gamas_condition_work_bound():
    # the engine's rank-oracle calls on a plane crowd: at most 1/100 of the
    # backtracking reference's at n = 16, and at most 1000 at n = 30
    configuration, lam = plane_crowd(16)
    engine = count_rank_calls(lambda: gamas_condition(configuration, lam))
    reference = count_rank_calls(lambda: reference_gamas_condition(configuration, lam))
    assert engine * 100 <= reference, (engine, reference)
    configuration, lam = plane_crowd(30)
    engine = count_rank_calls(lambda: gamas_condition(configuration, lam))
    assert engine <= 1000, engine


def test_engine_capacities_never_exceed_the_full_rank(monkeypatch):
    # the engine caps a class by its capacity alone, which is the
    # truncated matroid's rank only while no capacity exceeds r(E)
    fill, filled = matroid_module._fill, []

    def checked(matroid, classes, caps, elements):
        assert max(caps, default=0) <= matroid.full_rank, (caps, matroid.full_rank)
        filled.append(caps)
        return fill(matroid, classes, caps, elements)

    monkeypatch.setattr(matroid_module, "_fill", checked)
    rng = random.Random(4200)
    for _ in range(150):
        configuration = mixed_config(rng, rng.randint(1, 8), rng.randint(1, 4))
        rank_partition(configuration)
        for lam in partitions_of(configuration.n):
            gamas_condition(configuration, lam)
    assert filled


def golden_configs():
    """Seeded configurations at n = 8..16, with zero vectors, repeats and
    rational multiples of earlier vectors.  Indices from 8 on wrap around
    the smallest set table, so a small color class no longer iterates in
    ascending order there: two of these end with other certificates when
    the search builds its arcs in ascending index order."""
    rng = random.Random(0)
    configs = []
    for n in range(8, 17):
        for _ in range(5):
            d = rng.randint(2, 5)
            vectors = []
            for i in range(n):
                roll = rng.random()
                if roll < 0.04:
                    vectors.append((0,) * d)
                elif i > 0 and roll < 0.2:
                    vectors.append(vectors[rng.randrange(i)])
                elif i > 0 and roll < 0.35:
                    c = Fraction(rng.choice([-3, -2, -1, 2, 3]), rng.randint(1, 4))
                    vectors.append(tuple(c * e for e in vectors[rng.randrange(i)]))
                else:
                    vectors.append(tuple(rng.randint(-2, 2) for _ in range(d)))
            configs.append(VectorConfiguration(d, vectors))
    return configs


def test_rank_partitions_and_certificates_are_pinned():
    # rho and the certificate of every shape, tall ones included: a change
    # to the engine's verdicts or to its augmenting paths moves these bytes
    records, certified = [], 0
    for configuration in golden_configs():
        shapes = partitions_of(configuration.n)
        certificates = [gamas_condition(configuration, lam) for lam in shapes]
        certified += sum(c is not None for c in certificates)
        records.append([
            list(rank_partition(configuration).rho),
            [None if c is None else c.to_json_obj() for c in certificates],
        ])
    assert certified
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "0ec073e6fb3b058287b32edb1e952b307a9e681609027c2c479d3ded2c195f55"


def test_decide_appears_examples():
    configuration = cfg(2, E1, E1, E2)
    assert decide_appears(configuration, P(3))
    assert decide_appears(configuration, P(2, 1))
    assert not decide_appears(configuration, P(1, 1, 1))


def test_decide_appears_independent_accepts_everything():
    configuration = cfg(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    for lam in partitions_of(3):
        assert decide_appears(configuration, lam)


def test_decide_appears_repeated_vector_only_single_row():
    configuration = cfg(2, (2, 1), (2, 1), (2, 1), (2, 1))
    for lam in partitions_of(4):
        assert decide_appears(configuration, lam) == (lam == P(4))


def test_decide_appears_zero_vector_rejects_everything():
    configuration = cfg(2, E1, (0, 0), E2)
    for lam in partitions_of(3):
        assert not decide_appears(configuration, lam)


def test_dominance_upward_closure():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(1, 6)
        d = rng.randint(1, 3)
        configuration = random_config(rng, n, d)
        shapes = partitions_of(n)
        appearing = {lam: decide_appears(configuration, lam) for lam in shapes}
        for lam in shapes:
            if not appearing[lam]:
                continue
            for mu in shapes:
                if mu.dominates(lam):
                    assert appearing[mu]


def test_scaling_invariance_of_all_deciders():
    from isotypic.brute import nonzero_after_symmetrize
    from isotypic.gram import generalized_matrix_function, gram_matrix

    rng = random.Random(66)
    for _ in range(25):
        n = rng.randint(1, 5)
        d = rng.randint(1, 3)
        configuration = random_config(rng, n, d)
        i = rng.randrange(n)
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        scaled_vectors = list(configuration.vectors)
        scaled_vectors[i] = tuple(c * e for e in scaled_vectors[i])
        scaled = VectorConfiguration(d, scaled_vectors)
        shapes = partitions_of(n)
        lam = shapes[rng.randrange(len(shapes))]
        assert nonzero_after_symmetrize(configuration, lam) == nonzero_after_symmetrize(
            scaled, lam
        )
        assert (generalized_matrix_function(gram_matrix(configuration), lam) != 0) == (
            generalized_matrix_function(gram_matrix(scaled), lam) != 0
        )
        assert (gamas_condition(configuration, lam) is not None) == (
            gamas_condition(scaled, lam) is not None
        )
        assert decide_appears(configuration, lam) == decide_appears(scaled, lam)
