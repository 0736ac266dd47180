import concurrent.futures
import hashlib
import json
import time
from collections import Counter

import pytest

import isotypic.brute as brute
import isotypic.characters as characters
import isotypic.matroid as matroid
import isotypic.partitions as partitions
import isotypic.symgroup as symgroup
import isotypic.selfcheck as selfcheck
import oracles
from isotypic.brute import symmetrize
from isotypic.characters import character_table
from isotypic.cli import main
from isotypic.gram import generalized_matrix_function, gram_matrix
from isotypic.linalg import is_independent
from isotypic.partitions import Partition, partitions_of
from isotypic.selfcheck import (
    SplitMix64,
    TrialSpec,
    check_trial,
    generate_configuration,
    run_verification,
)
from oracles import (
    character_fault,
    class_sum_fault,
    content_fault,
    cycle_sum_fault,
    engine_fault,
    position_map_fault,
    rank_fault,
    strip_sign_fault,
)


def test_splitmix_reference_stream():
    # frozen values: the generator is part of the external contract
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    rng = SplitMix64(1234567)
    first = rng.uniform()
    assert 0.0 <= first < 1.0
    rng2 = SplitMix64(1234567)
    assert rng2.uniform() == first


def test_randint_bounds_and_determinism():
    rng = SplitMix64(42)
    values = [rng.randint(-3, 3) for _ in range(500)]
    assert all(-3 <= v <= 3 for v in values)
    assert set(values) == set(range(-3, 4))
    rng2 = SplitMix64(42)
    assert [rng2.randint(-3, 3) for _ in range(500)] == values
    # one 64-bit draw covers at most 2**64 values; past that the rejection
    # limit would be 0 and the loop would never end, so it refuses to draw
    state = rng2.state
    for lo, hi in [(-(2**63), 2**63), (0, 2**64), (1, 0)]:
        with pytest.raises(ValueError, match="span"):
            rng2.randint(lo, hi)
    assert rng2.state == state


def test_generate_configuration_deterministic():
    spec = TrialSpec()
    a = generate_configuration(spec, 4, 2, 7)
    b = generate_configuration(spec, 4, 2, 7)
    assert a == b
    c = generate_configuration(spec, 4, 2, 8)
    assert a != c  # different trials give different instances (generic)


@pytest.mark.parametrize(
    "spec, digest",
    [
        (TrialSpec(), "8fafd0fbb6020364cd283bc88eaf74330cd9fb01844f0093633fc86a18b8570a"),
        (
            TrialSpec(seed=7, n_max=8, dims=(1, 2, 3, 4)),
            "9277cee66b678d0338d6cebaaeeb661b7f5214214a5267a9a4ca2b11cb1d36d2",
        ),
    ],
    ids=["default", "seed-7-n-max-8"],
)
def test_seed_to_instance_map_is_pinned(spec, digest):
    # a report without violations holds no configuration, so its bytes
    # cannot see a moved instance: pin every instance of the spec instead
    instances = [
        generate_configuration(spec, n, d, t).to_json_obj()
        for n in range(1, spec.n_max + 1)
        for d in spec.dims
        for t in range(spec.trials_per_cell)
    ]
    assert hashlib.sha256(json.dumps(instances).encode()).hexdigest() == digest


def test_generate_configuration_entry_range():
    spec = TrialSpec(p_duplicate=0.0, p_scale=0.0, p_zero=0.0, entry_range=2)
    for t in range(20):
        configuration = generate_configuration(spec, 5, 3, t)
        for v in configuration.vectors:
            assert all(-2 <= e <= 2 for e in v)


def test_generate_configuration_forced_zero():
    spec = TrialSpec(p_zero=1.0)
    configuration = generate_configuration(spec, 3, 2, 0)
    assert all(not any(v) for v in configuration.vectors)


def test_generate_configuration_forced_duplicates():
    spec = TrialSpec(p_zero=0.0, p_duplicate=1.0)
    configuration = generate_configuration(spec, 3, 2, 0)
    v = configuration.vectors
    assert v[1] == v[0]
    assert v[2] in (v[0], v[1])


def test_trial_spec_validation():
    with pytest.raises(ValueError):
        TrialSpec(p_zero=1.5)
    with pytest.raises(ValueError):
        TrialSpec(n_max=0)
    with pytest.raises(ValueError):
        TrialSpec(n_max=99)
    with pytest.raises(ValueError):
        TrialSpec(dims=())
    # a repeated dim would run each of its trials twice and list every violation twice
    with pytest.raises(ValueError, match="dims must be distinct; repeated: 2, 3$"):
        TrialSpec(dims=(3, 2, 1, 2, 3))
    with pytest.raises(ValueError):
        TrialSpec(entry_range=0)
    # randint(-r, r) spans 2r + 1 values, which one draw covers up to r = 2**63 - 1
    assert TrialSpec(entry_range=2**63 - 1).entry_range == 2**63 - 1
    with pytest.raises(ValueError, match="entry_range"):
        TrialSpec(entry_range=2**63)
    with pytest.raises(ValueError):
        TrialSpec(trials_per_cell=-1)


def test_many_dims_validate_in_linear_time():
    # repeats are counted once over the dims, not once per dim: 200000
    # distinct dims took minutes when each counted itself in the tuple
    start = time.perf_counter()
    assert len(TrialSpec(dims=tuple(range(1, 200001))).dims) == 200000
    assert time.perf_counter() - start < 0.5


def test_repeated_dims_error_line_is_bounded():
    # the repeated dims are listed as far as a bounded repr shows a list
    with pytest.raises(ValueError) as error:
        TrialSpec(dims=tuple(range(1, 100001)) * 2)
    assert str(error.value) == "dims must be distinct; repeated: 1, 2, 3, 4, 5, 6, ..."
    with pytest.raises(ValueError) as error:
        TrialSpec(dims=(10**1000,) * 200000)
    assert str(error.value).startswith("dims must be distinct; repeated: 1000")
    assert len(str(error.value)) < 100


def test_error_lines_bound_an_int_past_the_digit_limit():
    # repr refuses an int of over 4300 digits, Python's default limit; an
    # error line shows it by its last digits and its bit length instead
    huge, tail = 10**5000, "...0000000000000000000 (16610 bits)"
    for build, expected in [
        (lambda: TrialSpec(dims=(huge,) * 2), f"dims must be distinct; repeated: {tail}"),
        (lambda: Partition([1, huge]), f"parts not weakly decreasing: (1, {tail})"),
        (lambda: Partition([-huge]), f"parts must be positive: (-{tail},)"),
    ]:
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == expected and len(expected.encode()) < 300
    assert partitions._brief([huge]) == f"[{tail}]"
    # an int within the limit keeps reprlib's text
    assert partitions._brief(10**4300 - 1) == "9" * 18 + "..." + "9" * 19


@pytest.mark.parametrize(
    "fields, expected",
    [
        ({"seed": True}, "seed must be an integer"),
        ({"n_max": "3"}, "n_max must be an integer"),
        ({"trials_per_cell": 2.0}, "trials_per_cell must be an integer"),
        ({"entry_range": 2.5}, "entry_range must be an integer"),
        ({"dims": (1.5,)}, "dims must be integers"),
        ({"dims": (2, False)}, "dims must be integers"),
        ({"p_scale": "0.3"}, "p_scale must be a number"),
        ({"p_duplicate": False}, "p_duplicate must be a number"),
    ],
    ids=[
        "seed-bool", "n_max-str", "trials-float", "entry_range-float", "dim-float",
        "dim-bool", "p_scale-str", "p_duplicate-bool",
    ],
)
def test_trial_spec_rejects_wrong_types(fields, expected):
    with pytest.raises(ValueError, match=expected):
        TrialSpec(**fields)
    obj = dict(TrialSpec().to_json_obj(), **fields)
    obj["dims"] = list(obj["dims"])
    with pytest.raises(ValueError, match=expected):
        TrialSpec.from_json_obj(obj)


def test_trial_spec_accepts_integral_probabilities():
    assert TrialSpec(p_zero=0, p_scale=1).p_scale == 1


def test_spec_json_dims_must_be_a_list():
    obj = TrialSpec().to_json_obj()
    for dims in (5, "1,2", {"1": 1}):
        with pytest.raises(ValueError, match="dims must be a list of integers"):
            TrialSpec.from_json_obj(dict(obj, dims=dims))


def test_zero_trials_report():
    report = run_verification(TrialSpec(trials_per_cell=0, n_max=2, dims=(2,)))
    assert report.trials_run == 0
    assert report.violations == []
    assert report.ok


def test_small_run_clean_and_deterministic():
    spec = TrialSpec(n_max=3, trials_per_cell=6)
    first = run_verification(spec)
    second = run_verification(spec)
    assert first.ok
    assert json.dumps(first.to_json_obj()) == json.dumps(second.to_json_obj())
    assert first.trials_run == 3 * 3 * 6
    assert first.cells_run == 9


def test_parallel_run_matches_serial():
    spec = TrialSpec(n_max=3, trials_per_cell=5)
    serial = run_verification(spec, jobs=1)
    parallel = run_verification(spec, jobs=4)
    assert json.dumps(serial.to_json_obj()) == json.dumps(parallel.to_json_obj())


@pytest.fixture
def recording_pool(monkeypatch):
    """Put in place of the process pool a stand-in that runs the tasks in
    process and records each pool's max_workers and the tasks of its map."""
    log = {"requested": [], "mapped": []}

    class RecordingPool:
        def __init__(self, max_workers):
            log["requested"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            items = list(items)
            log["mapped"].extend(items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return log


def test_workers_capped_by_cells_and_cpus(monkeypatch, recording_pool):
    # the executor starts every worker up front, so the cap must come
    # before it; the cap counts tasks, the cells and the standalone suites
    three_cells = TrialSpec(n_max=3, dims=(2,), trials_per_cell=2)
    six_cells = TrialSpec(n_max=3, dims=(1, 2), trials_per_cell=2)
    serial = json.dumps(run_verification(three_cells).to_json_obj())

    # the CPUs the process may run on cap the workers, not the host's count
    monkeypatch.setattr(selfcheck.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(selfcheck.os, "cpu_count", lambda: 64)
    for jobs in (2, 5000):
        report = run_verification(three_cells, jobs=jobs)
        assert json.dumps(report.to_json_obj()) == serial
    run_verification(six_cells, jobs=5000)
    # where the platform does not tell them, the host's count, at least one
    monkeypatch.delattr(selfcheck.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(selfcheck.os, "cpu_count", lambda: None)
    run_verification(six_cells, jobs=5000)
    assert recording_pool["requested"] == [2, 4, 4]

    for jobs in (0, -1):
        with pytest.raises(ValueError):
            run_verification(three_cells, jobs=jobs)


def test_standalone_suites_run_in_the_pool(monkeypatch, recording_pool):
    # one task list: the standalone suites go through the pool's map first,
    # then the cells, costliest first, and the report equals the serial one
    monkeypatch.setattr(selfcheck.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    spec = TrialSpec(n_max=3, dims=(2,), trials_per_cell=2)
    serial = json.dumps(run_verification(spec).to_json_obj())
    assert recording_pool["mapped"] == []
    assert json.dumps(run_verification(spec, jobs=2).to_json_obj()) == serial
    suites = [(spec, suite) for suite in selfcheck.STANDALONE_SUITES]
    assert recording_pool["mapped"] == suites + [(spec, n, 2) for n in (3, 2, 1)]


def test_cells_are_queued_by_decreasing_n_then_d(monkeypatch, recording_pool):
    # the costliest cells start first, so none is left alone at the end of
    # a parallel run, whatever the order of the dims
    monkeypatch.setattr(selfcheck.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    spec = TrialSpec(n_max=2, dims=(1, 3, 2), trials_per_cell=0)
    run_verification(spec, jobs=2)
    cells = [task for task in recording_pool["mapped"] if len(task) == 3]
    assert cells == [(spec, n, d) for n in (2, 1) for d in (3, 2, 1)]


def test_fault_injection_is_detected():
    spec = TrialSpec(n_max=2, dims=(2,), trials_per_cell=6)
    with character_fault(Partition([2]), Partition([2])):
        broken = run_verification(spec)
    assert not broken.ok
    # violation records carry enough to replay: config echo and shape
    agreement = [
        v for v in broken.violations if v["suite"] == "four_decider_agreement"
    ]
    assert agreement
    for record in agreement:
        assert record["config"] is not None
        assert record["shape"] is not None
        assert "detail" in record
    # and the harness is clean again outside the fault
    assert run_verification(spec).ok


def test_engine_fault_is_detected():
    # a greedy engine, with no exchanges, misses certificates and rank
    # partitions; the harness must report it, not raise
    with engine_fault():
        broken = run_verification(TrialSpec())
    suites = Counter(v["suite"] for v in broken.violations)
    assert suites["four_decider_agreement"] >= 1
    assert suites["matroid_oracle"] >= 1


def test_rank_fault_is_detected():
    # with every rank 3 read as 2 the engine holds no block of three, so
    # gamas and dominance disagree with brute and gram; the min-formula
    # oracle reads the same ranks as the engine and the certificates stay
    # independent, so only the agreement suite sees it
    with rank_fault():
        broken = run_verification(TrialSpec())
    suites = Counter(v["suite"] for v in broken.violations)
    assert suites == {"four_decider_agreement": 78}
    assert run_verification(TrialSpec(n_max=3, trials_per_cell=5)).ok


def test_projector_fault_is_detected():
    # every brute answer of the harness comes from the projector, so a wrong
    # eigenvalue in it shows as a brute-gram disagreement, a wrong <wT, wT>,
    # a wedge decided unlike its reduced side and, at n = 3, three wrong
    # parts of the identity; gram walks the characters and does not see it.
    # The trial reads each norm as <w, Pw> from Krylov moments, which under
    # the fault, where P is no orthogonal projection, is not |Pw|^2
    with content_fault(Partition([2, 1])):
        broken = run_verification(TrialSpec())
    suites = Counter(v["suite"] for v in broken.violations)
    assert suites == {
        "four_decider_agreement": 23,
        "gram_identity": 158,
        "det_twist": 2,
        "idempotent_system": 3,
    }
    assert run_verification(TrialSpec(n_max=3, trials_per_cell=5)).ok


def test_position_map_fault_is_detected():
    # with the identity's position map for (1 2), X_2 acts as the identity
    # and the projector's parts are wrong on every block it splits: brute
    # disagrees with gram, <wT, wT> is wrong, the parts of the identity are
    # not the central idempotents, and the antisymmetrizers over a column
    # holding positions 1 and 2 are wrong, so the column criterion and the
    # det-twist reduction fail; the harness is clean again outside the fault.
    # The trial's norms are <w, Pw> from Krylov moments, with P no
    # orthogonal projection here
    with position_map_fault():
        broken = run_verification(TrialSpec())
    suites = Counter(v["suite"] for v in broken.violations)
    assert suites == {
        "four_decider_agreement": 87,
        "gram_identity": 496,
        "det_twist": 114,
        "column_criterion": 38,
        "idempotent_system": 17,
    }
    assert run_verification(TrialSpec(n_max=3, trials_per_cell=5)).ok


def test_class_sum_fault_is_detected():
    # without the double transpositions' class sum, every generalized matrix
    # function of degree 4 is wrong: gram disagrees with the other three
    # deciders and <wT, wT> is wrong, and nothing else moves
    with class_sum_fault(Partition([2, 2])):
        broken = run_verification(TrialSpec())
    suites = Counter(v["suite"] for v in broken.violations)
    assert suites == {"four_decider_agreement": 275, "gram_identity": 672}
    assert {v["n"] for v in broken.violations} == {4}
    assert run_verification(TrialSpec(n_max=4, trials_per_cell=5)).ok


def test_cycle_sum_fault_is_detected():
    # one wrong cycle sum puts one term of the class sums off: gram disagrees
    # with the other three deciders and <wT, wT> is wrong, from n = 3 on
    with cycle_sum_fault():
        broken = run_verification(TrialSpec())
    suites = Counter(v["suite"] for v in broken.violations)
    assert suites == {"four_decider_agreement": 760, "gram_identity": 1588}
    assert run_verification(TrialSpec(n_max=4, trials_per_cell=5)).ok


def test_strip_sign_fault_is_detected():
    # a wrong sign for tall border strips breaks the character values on
    # long cycles: the tables lose orthogonality, the gram route and the
    # central idempotents read wrong rows, and the ranks of the idempotents
    # move off the Schur-Weyl law
    with strip_sign_fault():
        broken = run_verification(TrialSpec())
    suites = Counter(v["suite"] for v in broken.violations)
    assert suites == {
        "character_orthogonality": 72,
        "four_decider_agreement": 611,
        "gram_identity": 1266,
        "idempotent_system": 7,
        "schur_weyl_rank": 21,
    }
    assert run_verification(TrialSpec(n_max=4, trials_per_cell=5)).ok


def test_character_fault_is_reported_through_gram():
    # brute reads no character, so a flipped character value reaches the
    # agreement suite only through gram's weighting of the class sums
    spec = TrialSpec(n_max=3, dims=(2,), trials_per_cell=6)
    with character_fault(Partition([2, 1]), Partition([1, 1, 1])):
        broken = run_verification(spec)
    agreement = [v for v in broken.violations if v["suite"] == "four_decider_agreement"]
    assert agreement
    for record in agreement:
        detail = record["detail"]
        assert detail["gram"] != detail["brute"] == detail["gamas"] == detail["dominance"]
    assert run_verification(spec).ok


def test_idempotent_suite_names_the_wrong_idempotent():
    # a flipped character value of (3, 1) makes its central idempotent wrong
    with character_fault(Partition([3, 1]), Partition([2, 2])):
        broken = selfcheck.run_standalone_suite("idempotent_system", TrialSpec())
    assert {v["n"] for v in broken} == {4}
    assert "3,1" in {v["shape"] for v in broken}
    assert selfcheck.run_standalone_suite("idempotent_system", TrialSpec()) == []


def test_check_trial_builds_no_group_algebra_element(monkeypatch):
    # the per-trial suites move the pure tensor by the projector's position
    # maps; the group-algebra routes are only the oracle of that route
    def refuse(self, *args):
        raise AssertionError("check_trial built a GroupAlgebraElement")

    monkeypatch.setattr(symgroup.GroupAlgebraElement, "__init__", refuse)
    spec = TrialSpec(trials_per_cell=4)
    twisted = 0
    for n in range(1, spec.n_max + 1):
        for d in spec.dims:
            for t in range(spec.trials_per_cell):
                assert check_trial(spec, n, d, t) == []
                cfg = generate_configuration(spec, n, d, t)
                twisted += n >= d and is_independent(cfg.rows[:d])
    # the det-twist suite, which antisymmetrizes its wedge, ran too
    assert twisted


# the trial records, by suite, of a default spec with n_max = 4 under a fault
FOUND_AT_N_MAX_4 = {
    position_map_fault: {
        "four_decider_agreement": 83, "gram_identity": 352, "column_criterion": 35, "det_twist": 81
    },
    engine_fault: {"matroid_oracle": 1, "four_decider_agreement": 4},
}


@pytest.mark.parametrize("fault", list(FOUND_AT_N_MAX_4), ids=["position-map", "engine"])
def test_each_trial_suite_stands_alone(fault):
    # replay re-runs a whole trial and keeps one suite's records, which are
    # that suite's own only if no suite depends on another having run: each
    # suite alone on a fresh trial, and the table run in reverse order on
    # one, give the records check_trial gives for that suite
    spec = TrialSpec(n_max=4)
    found = Counter()

    def records(suite, trial):
        return [
            selfcheck._violation(suite, trial.n, trial.d, trial.trial_index, trial.cfg, *finding)
            for finding in selfcheck.TRIAL_SUITES[suite](trial)
        ]

    with fault():
        for n in range(1, spec.n_max + 1):
            for d in spec.dims:
                for t in range(spec.trials_per_cell):
                    whole = check_trial(spec, n, d, t)
                    backwards = selfcheck._Trial(spec, n, d, t)
                    reverse = {suite: records(suite, backwards)
                               for suite in reversed(selfcheck.TRIAL_SUITES)}
                    for suite in selfcheck.TRIAL_SUITES:
                        own = [record for record in whole if record["suite"] == suite]
                        assert records(suite, selfcheck._Trial(spec, n, d, t)) == own
                        assert reverse[suite] == own
                        found[suite] += len(own)
    assert found == Counter(FOUND_AT_N_MAX_4[fault])


def test_violations_sorted():
    spec = TrialSpec(n_max=3, dims=(2,), trials_per_cell=6)
    with character_fault(Partition([2, 1]), Partition([1, 1, 1])):
        broken = run_verification(spec)
    assert broken.violations
    keys = [
        (
            v["suite"],
            v["n"] if v["n"] is not None else -1,
            v["d"] if v["d"] is not None else -1,
            v["trial_index"] if v["trial_index"] is not None else -1,
            v["shape"] or "",
        )
        for v in broken.violations
    ]
    assert keys == sorted(keys)


def test_spec_json_round_trip():
    spec = TrialSpec(seed=9, n_max=4, dims=(2, 3), trials_per_cell=7, p_zero=0.2)
    obj = spec.to_json_obj()
    assert TrialSpec.from_json_obj(obj) == spec
    # the report's key order, and dims as a JSON list
    assert list(obj) == [
        "seed", "n_max", "dims", "trials_per_cell", "entry_range",
        "p_duplicate", "p_scale", "p_zero",
    ]
    assert obj["dims"] == [2, 3]
    assert TrialSpec.from_json_obj(dict(obj, extra=1)) == spec
    for key in obj:
        with pytest.raises(ValueError, match=f"missing: {key}$"):
            TrialSpec.from_json_obj({k: v for k, v in obj.items() if k != key})
    with pytest.raises(ValueError, match="missing: seed, n_max, dims"):
        TrialSpec.from_json_obj([obj])


def _counted(pairs, counts):
    counts.append(0)
    for pair in pairs:
        counts[-1] += 1
        yield pair


def test_one_walk_per_route_per_configuration(monkeypatch):
    # the permutations each character sum walks: none for the library's
    # routes (brute projects with Jucys-Murphy elements, gram sums cycle
    # covers over subsets of the rows), and the one-shape walk of the
    # per-shape oracles
    stream, terms = characters.permutations_with_class, oracles.character_terms
    walked, per_shape = [], []

    def counting_terms(lam):
        chi_1, pairs = terms(lam)
        return chi_1, _counted(pairs, per_shape)

    monkeypatch.setattr(characters, "permutations_with_class", lambda n: _counted(stream(n), walked))
    monkeypatch.setattr(oracles, "character_terms", counting_terms)
    n, d = 5, 2
    spec = TrialSpec(n_max=n, dims=(d,), trials_per_cell=1)
    assert check_trial(spec, n, d, 0) == []
    assert walked == []

    table = character_table(n)
    nonzero = {
        lam: sum(size for size, chi in zip(table.class_sizes, table.rows[lam]) if chi)
        for lam in partitions_of(n)
    }
    cfg = generate_configuration(spec, n, d, 0)
    gram = gram_matrix(cfg)
    for lam in partitions_of(n):
        assert symmetrize(cfg, lam) == oracles.per_shape_symmetrize(cfg, lam)
        assert generalized_matrix_function(gram, lam) == (
            oracles.per_shape_generalized_matrix_function(gram, lam)
        )
    # the per-shape routes walk every shape's nonzero classes, out of one
    # stream of n! permutations each, and the library's one-shape views
    # walk nothing
    assert sum(per_shape) == 2 * sum(nonzero.values()) == 2 * 622
    assert walked == [120] * len(per_shape) == [120] * 2 * len(nonzero)


def test_one_walk_per_tensor_per_trial(monkeypatch):
    # every suite of a trial whose det-twist runs walks no permutation: gram
    # sums over subsets of the rows, and the brute route, the wedge and the
    # reduced side read norms of the weight blocks of the pure tensors of
    # all n vectors and of the last n - d, built from the rows, through the
    # position maps.  The suites share one configuration, one build of its
    # blocks, one rank partition, one gmf and one all-shape norm call; the
    # det-twist reads the norms of its two sides
    stream, pure = characters.permutations_with_class, selfcheck._pure_blocks
    walked, built, calls = [], [], Counter()

    def counting_pure(rows):
        built.append(len(rows))
        return pure(rows)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    norms = selfcheck._block_norms

    def counting_norms(blocks, shapes):
        calls["all-shape norms" if list(shapes) == partitions_of(5) else "other norms"] += 1
        return norms(blocks, shapes)

    monkeypatch.setattr(characters, "permutations_with_class", lambda n: _counted(stream(n), walked))
    monkeypatch.setattr(selfcheck, "_pure_blocks", counting_pure)
    for name in ("generate_configuration", "rank_partition", "matrix_function_sums"):
        monkeypatch.setattr(selfcheck, name, counting(name, getattr(selfcheck, name)))
    monkeypatch.setattr(selfcheck, "_block_norms", counting_norms)
    spec = TrialSpec(n_max=5, dims=(2,), trials_per_cell=3)
    assert check_trial(spec, 5, 2, 0) == []
    assert walked == []
    assert built == [5, 3]
    assert calls == {
        "generate_configuration": 1,
        "rank_partition": 1,
        "matrix_function_sums": 1,
        "all-shape norms": 1,
        "other norms": 2,
    }


def test_trials_and_brute_decides_split_no_tensor(monkeypatch, tmp_path):
    # a trial's suites and a brute decide take the pure tensor's weight
    # blocks straight from the integer rows: neither builds the dict of the
    # pure tensor's index tuples
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in ("_pure_numerators", "_pure_blocks"):
        monkeypatch.setattr(brute, name, counting(name, getattr(brute, name)))
    monkeypatch.setattr(selfcheck, "_pure_blocks", counting("trial", selfcheck._pure_blocks))
    spec = TrialSpec(trials_per_cell=4)
    for n in range(1, spec.n_max + 1):
        for d in spec.dims:
            for t in range(spec.trials_per_cell):
                assert check_trial(spec, n, d, t) == []
    # one build per trial, and one more per det-twist with a reduced side
    assert calls.keys() == {"trial"} and calls["trial"] > 60
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dim": 2, "vectors": [["1", "0"], ["1", "1"], ["0", "1"]]}))
    assert main(["decide", "--method", "brute", "--config", str(config), "--shape", "2,1"]) == 0
    assert calls.keys() == {"trial", "_pure_blocks"} and calls["_pure_blocks"] == 1


def test_each_subset_is_eliminated_once_per_configuration(monkeypatch):
    # rank_partition, the min-formula oracle and every gamas_condition of a
    # trial share the configuration's rank memo, so the trial eliminates
    # each nonempty index subset at most once (1040 here; 3217 when each
    # built its own matroid)
    generate, sizes = selfcheck.generate_configuration, []

    def recorded(spec, n, d, trial_index):
        sizes.append(n)
        return generate(spec, n, d, trial_index)

    bareiss, eliminations = matroid._int_rank, []

    def counted(rows):
        eliminations.append(rows)
        return bareiss(rows)

    monkeypatch.setattr(selfcheck, "generate_configuration", recorded)
    monkeypatch.setattr(matroid, "_int_rank", counted)
    assert run_verification(TrialSpec(n_max=4, dims=(2, 3), trials_per_cell=20), jobs=1).ok
    assert sizes and eliminations
    assert len(eliminations) <= sum(2**n - 1 for n in sizes)


def test_one_certificate_per_trial_and_shape(monkeypatch):
    # the oracle suite's certificate of rho' is the one the agreement suite
    # reads for lam = rho'; a default run asked 3275 questions, 575 of them
    # repeats, when each suite asked the engine on its own
    engine, asked = selfcheck.gamas_condition, []

    def counted(cfg, lam):
        asked.append((cfg, lam))
        return engine(cfg, lam)

    monkeypatch.setattr(selfcheck, "gamas_condition", counted)
    assert run_verification(TrialSpec(), jobs=1).ok
    assert len(asked) == 2700
