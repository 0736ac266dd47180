"""Acceptance criteria, one test per criterion, zero tolerance throughout.

Everything here is exact arithmetic; a criterion passes only if every
instance agrees bit for bit.  Run with `pytest -v tests/test_acceptance.py`
(add `-s` to see the per-criterion pass lines).
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from isotypic.brute import decomposable, nonzero_after_symmetrize, symmetrize
from isotypic.characters import (
    central_idempotent,
    character_table,
    character_value,
)
from isotypic.gram import generalized_matrix_function, gram_matrix
from isotypic.linalg import VectorConfiguration, is_independent
from isotypic.matroid import (
    decide_appears,
    gamas_condition,
    rank_partition,
    rank_partition_oracle,
    validate_certificate,
)
from isotypic.partitions import Partition, partitions_of, syt_count, weyl_dimension
from isotypic.selfcheck import (
    SplitMix64,
    TrialSpec,
    generate_configuration,
    run_verification,
)
from isotypic.symgroup import (
    GroupAlgebraElement,
    Permutation,
    Tableau,
    apply_algebra_element,
    column_antisymmetrizer,
    operator_rank,
    row_symmetrizer,
    subset_antisymmetrizer,
)
from oracles import character_fault, tensor_inner, tensor_sum


def P(*parts):
    return Partition(parts)


def _report(line):
    print(f"PASS {line}")


def test_criterion_1_four_decider_agreement_default():
    spec = TrialSpec(
        seed=0, n_max=5, dims=(1, 2, 3), trials_per_cell=50,
        p_duplicate=0.3, p_scale=0.3, p_zero=0.05,
    )
    report = run_verification(spec)
    assert report.violations == [], report.violations[:3]
    assert report.trials_run == 5 * 3 * 50
    _report(
        "criterion 1a: selfcheck(seed=0, n_max=5, dims=1-3, 50 trials) "
        f"ran {report.trials_run} trials with zero violations"
    )


@pytest.mark.slow
def test_criterion_1_four_decider_agreement_extended():
    spec = TrialSpec(
        seed=0, n_max=6, dims=(1, 2, 3), trials_per_cell=50,
        p_duplicate=0.3, p_scale=0.3, p_zero=0.05,
    )
    report = run_verification(spec)
    assert report.violations == [], report.violations[:3]
    _report(
        "criterion 1b: extended selfcheck with n_max=6 "
        f"ran {report.trials_run} trials with zero violations"
    )


def test_criterion_2_character_algebra():
    for n in range(1, 9):
        table = character_table(n)
        shapes = list(table.rows)
        for a in shapes:
            for b in shapes:
                row_sum = sum(
                    size * x * y
                    for size, x, y in zip(
                        table.class_sizes, table.rows[a], table.rows[b]
                    )
                )
                assert row_sum == (factorial(n) if a == b else 0)
        for i in range(len(table.classes)):
            for j in range(len(table.classes)):
                col_sum = sum(row[i] * row[j] for row in table.rows.values())
                want = factorial(n) // table.class_sizes[i] if i == j else 0
                assert col_sum == want

    for n in range(1, 6):
        shapes = partitions_of(n)
        es = {lam: central_idempotent(lam) for lam in shapes}
        total = GroupAlgebraElement(n)
        for lam in shapes:
            total = total + es[lam]
            for mu in shapes:
                product = es[lam] * es[mu]
                assert product == (es[lam] if lam == mu else GroupAlgebraElement(n))
        assert total == GroupAlgebraElement.one(n)

    for n in range(1, 11):
        ones = Partition([1] * n)
        for lam in partitions_of(n):
            assert character_value(lam, ones) == syt_count(lam)

    _report(
        "criterion 2: orthogonality exact for n<=8, idempotent system exact "
        "for n<=5, first column equals hook-length count for n<=10"
    )


def test_criterion_3_schur_weyl_rank_law():
    checked = 0
    for n in range(1, 6):
        for d in (2, 3):
            if d**n > 4096:
                continue
            for lam in partitions_of(n):
                got = operator_rank(central_idempotent(lam), d)
                assert got == syt_count(lam) * weyl_dimension(lam, d), (lam, d)
                checked += 1
    _report(
        f"criterion 3: operator rank equals f * weyl dimension "
        f"on {checked} (shape, dimension) pairs"
    )


def test_criterion_4_gram_identity():
    rng = SplitMix64(2024)
    pairs = 0
    while pairs < 500:
        n = rng.randint(1, 6)
        d = rng.randint(1, 3)
        cfg = VectorConfiguration(
            d,
            [
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
                for _ in range(n)
            ],
        )
        shapes = partitions_of(n)
        lam = shapes[rng.randint(0, len(shapes) - 1)]
        value = generalized_matrix_function(gram_matrix(cfg), lam)
        sym = symmetrize(cfg, lam)
        assert tensor_inner(sym, sym) == Fraction(syt_count(lam), factorial(n)) * value
        assert value >= 0
        pairs += 1
    _report(f"criterion 4: Gram identity and nonnegativity exact on {pairs} pairs")


def test_criterion_5_worked_examples():
    def cycle(*cycles):
        return Permutation.from_cycles(5, cycles)

    tableau = Tableau([[2, 3, 4], [1, 5]])
    b = column_antisymmetrizer(tableau)
    expected_b = GroupAlgebraElement(
        5, {Permutation.identity(5): 1, cycle((1, 2)): -1}
    ) * GroupAlgebraElement(5, {Permutation.identity(5): 1, cycle((3, 5)): -1})
    assert b == expected_b

    a = row_symmetrizer(tableau)
    expected_a = GroupAlgebraElement(
        5,
        {
            Permutation.identity(5): 1,
            cycle((2, 3)): 1,
            cycle((2, 4)): 1,
            cycle((3, 4)): 1,
            cycle((2, 3, 4)): 1,
            cycle((2, 4, 3)): 1,
        },
    ) * GroupAlgebraElement(5, {Permutation.identity(5): 1, cycle((1, 5)): 1})
    assert a == expected_a
    assert len(a.terms) == 12

    rng = random.Random(20260809)
    while True:
        v1 = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2))
        v2 = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2))
        if is_independent([v1, v2]):
            break
    v3, v4, v5 = (
        tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2))
        for _ in range(3)
    )
    full = VectorConfiguration(2, [v1, v2, v3, v4, v5])
    wedge = apply_algebra_element(decomposable(full), subset_antisymmetrizer(5, [1, 2]))
    direct = tensor_sum(
        5,
        2,
        [
            (1, decomposable(VectorConfiguration(2, [v1, v2, v3, v4, v5]))),
            (-1, decomposable(VectorConfiguration(2, [v2, v1, v3, v4, v5]))),
        ],
    )
    assert wedge == direct
    assert not wedge.is_zero()

    _report(
        "criterion 5: displayed symmetrizers and the degree-5 wedge identity "
        "reproduced bit-exactly"
    )


def test_criterion_6_matroid_union_correctness():
    spec = TrialSpec(
        seed=97, n_max=5, dims=(1, 2, 3, 4), trials_per_cell=1,
        p_duplicate=0.35, p_scale=0.2, p_zero=0.12, entry_range=2,
    )
    rng = SplitMix64(97)
    checked = zero_free = 0
    while checked < 300:
        n = rng.randint(1, 12)
        d = rng.randint(1, 4)
        cfg = generate_configuration(spec, n, d, checked)
        fast = rank_partition(cfg)
        slow = rank_partition_oracle(cfg)
        assert fast.rho == slow.rho, cfg.to_json_obj()
        assert all(a >= b for a, b in zip(fast.rho, fast.rho[1:]))
        nonzero = sum(1 for v in cfg.vectors if any(v))
        assert fast.size == nonzero
        if nonzero == cfg.n and cfg.n > 0:
            lam = fast.conjugate()
            certificate = gamas_condition(cfg, lam)
            assert certificate is not None
            assert validate_certificate(cfg, certificate, lam)
            zero_free += 1
        checked += 1
    assert zero_free >= 100  # the achievability half ran on a real sample
    _report(
        f"criterion 6: rank partition matched the 2^n oracle on {checked} "
        f"configurations ({zero_free} with achievability certificates)"
    )


def _structural_configs(seed, count, n_range=(1, 5), d_range=(1, 3)):
    spec = TrialSpec(
        seed=seed, n_max=5, dims=(1, 2, 3), trials_per_cell=1,
        p_duplicate=0.3, p_scale=0.3, p_zero=0.05,
    )
    rng = SplitMix64(seed)
    for index in range(count):
        n = rng.randint(*n_range)
        d = rng.randint(*d_range)
        yield rng, generate_configuration(spec, n, d, index)


def test_criterion_7_structural_properties():
    # column criterion
    count = 0
    for rng, cfg in _structural_configs(701, 200):
        n = cfg.n
        shapes = partitions_of(n)
        shape = shapes[rng.randint(0, len(shapes) - 1)]
        entries = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            j = rng.randint(0, i)
            entries[i], entries[j] = entries[j], entries[i]
        rows, at = [], 0
        for part in shape:
            rows.append(entries[at : at + part])
            at += part
        tableau = Tableau(rows)
        image = apply_algebra_element(
            decomposable(cfg), column_antisymmetrizer(tableau)
        )
        independent = all(
            is_independent([cfg.vectors[i - 1] for i in column])
            for column in tableau.columns()
        )
        assert (not image.is_zero()) == independent
        count += 1
    _report(f"criterion 7a: column criterion on {count} instances")

    # dimension invariance under zero padding
    count = 0
    for rng, cfg in _structural_configs(702, 200):
        padded = VectorConfiguration(
            cfg.dim + 1, [v + (Fraction(0),) for v in cfg.vectors]
        )
        for lam in partitions_of(cfg.n):
            assert nonzero_after_symmetrize(cfg, lam) == nonzero_after_symmetrize(
                padded, lam
            )
        count += 1
    _report(f"criterion 7b: dimension invariance on {count} instances")

    # scaling invariance of all four decisions
    count = 0
    for rng, cfg in _structural_configs(703, 200):
        i = rng.randint(0, cfg.n - 1)
        c = Fraction(
            rng.randint(1, 3) * (1 if rng.uniform() < 0.5 else -1),
            rng.randint(1, 3),
        )
        scaled_vectors = list(cfg.vectors)
        scaled_vectors[i] = tuple(c * e for e in scaled_vectors[i])
        scaled = VectorConfiguration(cfg.dim, scaled_vectors)
        shapes = partitions_of(cfg.n)
        lam = shapes[rng.randint(0, len(shapes) - 1)]
        assert nonzero_after_symmetrize(cfg, lam) == nonzero_after_symmetrize(
            scaled, lam
        )
        assert (generalized_matrix_function(gram_matrix(cfg), lam) != 0) == (
            generalized_matrix_function(gram_matrix(scaled), lam) != 0
        )
        assert (gamas_condition(cfg, lam) is not None) == (
            gamas_condition(scaled, lam) is not None
        )
        assert decide_appears(cfg, lam) == decide_appears(scaled, lam)
        count += 1
    _report(f"criterion 7c: scaling invariance on {count} instances")

    # dominance upward closure
    count = 0
    for rng, cfg in _structural_configs(704, 200):
        shapes = partitions_of(cfg.n)
        appearing = {lam: decide_appears(cfg, lam) for lam in shapes}
        for lam in shapes:
            if not appearing[lam]:
                continue
            for mu in shapes:
                if mu.dominates(lam):
                    assert appearing[mu]
        count += 1
    _report(f"criterion 7d: dominance upward closure on {count} instances")

    # det-twist reduction
    count = 0
    seed_index = 0
    rng = SplitMix64(705)
    spec = TrialSpec(seed=705, p_zero=0.05)
    while count < 200:
        n = rng.randint(1, 5)
        d = rng.randint(1, 3)
        seed_index += 1
        if n < d:
            continue
        cfg = generate_configuration(spec, n, d, seed_index)
        if not is_independent(cfg.vectors[:d]):
            continue
        w = decomposable(cfg)
        wedge = apply_algebra_element(w, subset_antisymmetrizer(n, range(1, d + 1)))
        rest = VectorConfiguration(d, cfg.vectors[d:])
        for lam in partitions_of(n):
            if len(lam) != d:
                continue
            lhs = not apply_algebra_element(wedge, central_idempotent(lam)).is_zero()
            reduced = lam.remove_first_column()
            rhs = True if rest.n == 0 else nonzero_after_symmetrize(rest, reduced)
            assert lhs == rhs, (cfg.to_json_obj(), lam.parts)
        count += 1
    _report(f"criterion 7e: det-twist reduction on {count} instances")


def test_criterion_8_harness_sensitivity():
    spec = TrialSpec(n_max=3, dims=(2,), trials_per_cell=8)
    assert run_verification(spec).ok
    with character_fault(Partition([3]), Partition([1, 1, 1])):
        broken = run_verification(spec)
    assert len(broken.violations) >= 1
    sample = broken.violations[0]
    assert sample["suite"]
    assert sample["expected"] and sample["actual"]
    _report(
        f"criterion 8: one flipped character value produced "
        f"{len(broken.violations)} reported violations"
    )
