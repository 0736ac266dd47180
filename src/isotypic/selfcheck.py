"""Seeded random instances and the cross-decider verification harness.

Instance generation uses SplitMix64, a fixed 64-bit generator, so the
map from (seed, n, d, trial_index) to a configuration is part of the
external contract: the same spec always produces the same instances, the
same report, and the same violation records, on any platform.

`TRIAL_SUITES` maps each per-configuration suite, in run order, to its
function of one `_Trial`: the matroid-union oracle cross-check, the
four-decider agreement and the Gram-matrix identity over every shape, the
column criterion for a random tableau and the det-twist reduction.  Every
suite runs on every trial, so `_Trial` computes what they share when it is
built.  The character-table, idempotent and operator-rank suites run once
per report (`STANDALONE_SUITES`).  `check_trial` writes every trial record
and `run_standalone_suite` every standalone one.

A trial's pure tensor is never formed as index tuples: its weight blocks
are built once, straight from the integer rows (`brute._pure_blocks`),
and the all-shape norms, the column antisymmetrizer and the det-twist
wedge take those blocks through brute's block kernels, as the det-twist's
reduced side takes the blocks of the rows of the last n - d vectors.
Tensors move only by the brute projector's position maps: only the
idempotent suite forms parts, by the CLI's `symmetrize`.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import accumulate
from math import factorial, prod

from .brute import _antisymmetrized_blocks, _block_norms, _pure_blocks, symmetrize
from .characters import central_idempotent, character_table
from .gram import gram_matrix, matrix_function_sums
from .linalg import VectorConfiguration, _independent_rows
from .matroid import gamas_condition, rank_partition, rank_partition_oracle
from .partitions import DEGREE_CAP, _brief, partitions_of, syt_count, weyl_dimension
from .symgroup import OPERATOR_DIMENSION_CAP, Tableau, operator_rank

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """The SplitMix64 generator (Steele-Lea-Flood finalizer), fixed forever."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return _scramble(self.state)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled to avoid modulo bias;
        one 64-bit draw covers at most 2**64 values."""
        span = hi - lo + 1
        if not 1 <= span <= 1 << 64:
            raise ValueError(f"randint span {span} is outside 1..2**64")
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            x = self.next_u64()
            if x < limit:
                return lo + x % span


def _scramble(x: int) -> int:
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix(*parts: int) -> int:
    h = 0x243F6A8885A308D3  # first 64 bits of pi
    for p in parts:
        h = _scramble((h ^ (p & _MASK)) * _GAMMA & _MASK)
    return h


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class TrialSpec:
    """Deterministic description of a verification run."""

    seed: int = 0
    n_max: int = 5
    dims: tuple[int, ...] = (1, 2, 3)
    trials_per_cell: int = 50
    entry_range: int = 3
    p_duplicate: float = 0.3
    p_scale: float = 0.3
    p_zero: float = 0.05

    def __post_init__(self):
        for name in ("seed", "n_max", "trials_per_cell", "entry_range"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {_brief(value)}")
        if not all(_is_int(d) for d in self.dims):
            raise ValueError(f"dims must be integers, got {_brief(list(self.dims))}")
        if not 1 <= self.n_max <= DEGREE_CAP:
            raise ValueError(f"n_max must be in 1..{DEGREE_CAP}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")
        repeated = sorted(d for d, count in Counter(self.dims).items() if count > 1)
        if repeated:
            # the bounded repr of the list, without its brackets
            raise ValueError(f"dims must be distinct; repeated: {_brief(repeated)[1:-1]}")
        if self.trials_per_cell < 0:
            raise ValueError("trials_per_cell must be nonnegative")
        if not 1 <= self.entry_range < 2**63:
            raise ValueError("entry_range must be in 1..2**63 - 1")
        for name in ("p_duplicate", "p_scale", "p_zero"):
            p = getattr(self, name)
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise ValueError(f"{name} must be a number, got {_brief(p)}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    def to_json_obj(self) -> dict:
        """The fields in declaration order, which fixes the report's key order."""
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["dims"] = list(self.dims)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TrialSpec":
        """Every field is required (ValueError if missing); other keys are ignored."""
        names = [f.name for f in fields(cls)]
        missing = [n for n in names if n not in obj] if isinstance(obj, dict) else names
        if missing:
            raise ValueError(f"a trial spec is a JSON object; missing: {', '.join(missing)}")
        values = {name: obj[name] for name in names}
        if not isinstance(values["dims"], list):
            raise ValueError(f"dims must be a list of integers, got {_brief(values['dims'])}")
        values["dims"] = tuple(values["dims"])
        return cls(**values)


def generate_configuration(
    spec: TrialSpec, n: int, d: int, trial_index: int
) -> VectorConfiguration:
    """Deterministic instance for the given cell and trial.

    Each vector starts as fresh uniform integer entries in
    [-entry_range, entry_range]; with probability p_zero it is replaced
    by the zero vector, otherwise (for non-first vectors) with
    probability p_duplicate by a copy of an earlier vector, otherwise
    with probability p_scale by a nonzero rational multiple of an
    earlier one.  The degenerate strata those injections force are where
    the deciders actually disagree when one of them is wrong.
    """
    rng = SplitMix64(_mix(spec.seed, n, d, trial_index))
    r = spec.entry_range
    vectors: list[tuple[int | Fraction, ...]] = []
    for i in range(n):
        u_zero, u_dup, u_scale = rng.uniform(), rng.uniform(), rng.uniform()
        if u_zero < spec.p_zero:
            vectors.append((0,) * d)
            continue
        if i > 0 and u_dup < spec.p_duplicate:
            vectors.append(vectors[rng.randint(0, i - 1)])
            continue
        if i > 0 and u_scale < spec.p_scale:
            num = rng.randint(1, r) * (1 if rng.uniform() < 0.5 else -1)
            den = rng.randint(1, r)
            c = Fraction(num, den)
            base = vectors[rng.randint(0, i - 1)]
            vectors.append(tuple(c * e for e in base))
            continue
        vectors.append(tuple(rng.randint(-r, r) for _ in range(d)))
    return VectorConfiguration(d, vectors)


@dataclass
class VerificationReport:
    spec: TrialSpec
    cells_run: int
    trials_run: int
    violations: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        # elapsed is deliberately left out: report bytes must be identical
        # across runs of the same spec.
        return {
            "spec": self.spec.to_json_obj(),
            "cells_run": self.cells_run,
            "trials_run": self.trials_run,
            "violations": self.violations,
        }


_RECORD_KEYS = ("suite", "n", "d", "trial_index", "shape")


def _violation(suite, n, d, trial_index, cfg, shape, expected, actual, detail=None):
    record = {
        "suite": suite,
        "n": n,
        "d": d,
        "trial_index": trial_index,
        "shape": shape.to_text() if shape is not None else None,
        "config": cfg.to_json_obj() if cfg is not None else None,
        "expected": expected,
        "actual": actual,
    }
    if detail is not None:
        record["detail"] = detail
    return record


def check_record(spec: TrialSpec, i: int, record) -> None:
    """Raise ValueError, naming the field, unless record has the keys and
    shape type that `_violation` writes and either, if it is a trial record
    (one with a config), a per-trial suite and a cell and trial of the spec,
    or else a standalone suite."""
    keys = record.keys() if isinstance(record, dict) else ()
    missing = [key for key in _RECORD_KEYS if key not in keys]
    if missing:
        raise ValueError(
            f"violation #{i} is a JSON object with keys {', '.join(_RECORD_KEYS)}; "
            f"missing: {', '.join(missing)}"
        )
    suite, shape = record["suite"], record["shape"]
    if shape is not None and not isinstance(shape, str):
        raise ValueError(f"violation #{i}: shape must be a string or null, got {_brief(shape)}")
    if record.get("config") is None:
        # a standalone record; its suite may be any JSON value, hashable or not
        if not isinstance(suite, str) or suite not in STANDALONE_SUITES:
            raise ValueError(
                f"violation #{i}: unknown suite {_brief(suite)} for a standalone record; "
                f"known: {', '.join(STANDALONE_SUITES)}"
            )
        return
    if suite not in TRIAL_SUITES:
        raise ValueError(
            f"violation #{i}: unknown suite {_brief(suite)} for a trial record; "
            f"known: {', '.join(TRIAL_SUITES)}"
        )
    ranges = {
        "n": (range(1, spec.n_max + 1), f"an integer in 1..{spec.n_max}"),
        "d": (spec.dims, f"one of the dims {', '.join(map(str, spec.dims))}"),
        "trial_index": (
            range(spec.trials_per_cell), f"an integer in 0..{spec.trials_per_cell - 1}"
        ),
    }
    for key, (allowed, text) in ranges.items():
        value = record[key]
        if not _is_int(value) or value not in allowed:
            raise ValueError(f"violation #{i}: {key} must be {text}, got {_brief(value)}")


def _sort_key(record: dict):
    n, d, t = (-1 if record[key] is None else record[key] for key in ("n", "d", "trial_index"))
    return record["suite"], n, d, t, record["shape"] or ""


class _Trial:
    """One generated configuration and the values its suites share, each
    computed once, when the trial is built: the weight blocks of its pure
    tensor, built from the rows, its rank partition, the certificate of
    each shape, and the all-shape norms and gmf values."""

    def __init__(self, spec: TrialSpec, n: int, d: int, trial_index: int):
        self.spec, self.n, self.d, self.trial_index = spec, n, d, trial_index
        self.cfg = cfg = generate_configuration(spec, n, d, trial_index)
        self.shapes = partitions_of(n)
        # every shape is listed, and (n) can occur in every block
        self.blocks = list(_pure_blocks(cfg.rows))
        self.rho = rank_partition(cfg)
        # the oracle and agreement suites share one engine run per shape
        self.certificates = {lam: gamas_condition(cfg, lam) for lam in self.shapes}
        # one call per route serves every shape: the squared norms <wT, wT>
        # and the gmf values, as integers over one positive divisor per route
        norms, divisor = _block_norms(self.blocks, self.shapes)
        self.symmetrized_norms = norms, divisor * prod(cfg.scales) ** 2
        self.matrix_function_sums = matrix_function_sums(gram_matrix(cfg), self.shapes)


def _matroid_oracle_suite(trial: _Trial):
    rho, oracle = trial.rho, rank_partition_oracle(trial.cfg)
    if rho != oracle:
        yield None, f"rho={list(oracle.rho)}", f"rho={list(rho.rho)}"
    rho_conjugate = rho.conjugate()
    # gamas_condition validates its certificate before returning it
    if all(map(any, trial.cfg.rows)) and trial.certificates[rho_conjugate] is None:
        yield (
            rho_conjugate, "rank partition achieved by a valid certificate", "no valid certificate"
        )


def _agreement_suite(trial: _Trial):
    rho_conjugate = trial.rho.conjugate()
    norms, _ = trial.symmetrized_norms
    values, _ = trial.matrix_function_sums
    for lam, norm, value in zip(trial.shapes, norms, values):
        certificate = trial.certificates[lam]
        answers = {
            "brute": norm != 0,
            "gram": value != 0,
            "gamas": certificate is not None,
            "dominance": lam.dominates(rho_conjugate),
        }
        if len(set(answers.values())) != 1:
            detail = dict(answers, certificate=certificate.to_json_obj() if certificate else None)
            yield lam, "all four deciders agree", str(answers), detail


def _gram_identity_suite(trial: _Trial):
    """<wT, wT> = f^lam / n! * d_chi(G), cross-multiplied, and d_chi(G) >= 0."""
    scale = factorial(trial.n)
    norms, norm_divisor = trial.symmetrized_norms
    values, value_divisor = trial.matrix_function_sums
    for lam, norm, value in zip(trial.shapes, norms, values):
        if norm * scale * value_divisor != syt_count(lam) * value * norm_divisor:
            rhs = Fraction(syt_count(lam) * value, scale * value_divisor)
            yield lam, f"<wT,wT> = {rhs}", str(Fraction(norm, norm_divisor))
        if value < 0:
            yield lam, "gmf of a Gram matrix is nonnegative", str(Fraction(value, value_divisor))


def _column_suite(trial: _Trial):
    n, cfg = trial.n, trial.cfg
    rng = SplitMix64(_mix(trial.spec.seed, 0xC0111, n, trial.d, trial.trial_index))
    shape = trial.shapes[rng.randint(0, len(trial.shapes) - 1)]
    entries = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):  # Fisher-Yates on the fixed generator
        j = rng.randint(0, i)
        entries[i], entries[j] = entries[j], entries[i]
    tableau = Tableau([entries[end - part : end] for part, end in zip(shape, accumulate(shape))])
    columns = [sorted(column) for column in tableau.columns()]
    # any stops at the first block that the antisymmetrizer leaves nonzero
    symmetrized_nonzero = any(_antisymmetrized_blocks(trial.blocks, columns))
    columns_independent = all(
        _independent_rows([cfg.rows[i - 1] for i in column]) for column in columns
    )
    if symmetrized_nonzero != columns_independent:
        yield (
            shape,
            f"columns independent = {columns_independent}",
            f"nonzero after column antisymmetrization = {symmetrized_nonzero}",
            {"tableau": [list(r) for r in tableau.rows]},
        )


def _det_twist_suite(trial: _Trial):
    n, d, cfg = trial.n, trial.d, trial.cfg
    if n < d or not _independent_rows(cfg.rows[:d]):
        return
    wedge = _antisymmetrized_blocks(trial.blocks, [range(1, d + 1)])
    # one call per side reads the squared norm of every d-row shape's
    # part: of the wedge, and with its first column removed of the pure
    # tensor of the other vectors (nothing is left when n = d)
    d_row_shapes = [lam for lam in trial.shapes if len(lam) == d]
    wedged, _ = _block_norms(wedge, d_row_shapes)
    if n == d:
        reduced = [True] * len(d_row_shapes)
    else:
        sums, _ = _block_norms(
            _pure_blocks(cfg.rows[d:]), [lam.remove_first_column() for lam in d_row_shapes]
        )
        reduced = [norm != 0 for norm in sums]
    for lam, norm, rhs in zip(d_row_shapes, wedged, reduced):
        if (norm != 0) != rhs:
            yield lam, f"reduced-shape decision = {rhs}", f"wedge decision = {norm != 0}"


# suite name -> the suite, in the order check_trial runs them on a trial;
# a suite yields (shape, expected, actual[, detail]) per violation
TRIAL_SUITES = {
    "matroid_oracle": _matroid_oracle_suite,
    "four_decider_agreement": _agreement_suite,
    "gram_identity": _gram_identity_suite,
    "column_criterion": _column_suite,
    "det_twist": _det_twist_suite,
}


def check_trial(spec: TrialSpec, n: int, d: int, trial_index: int) -> list[dict]:
    """Run each suite of TRIAL_SUITES, in order, on one trial; write its records."""
    trial = _Trial(spec, n, d, trial_index)
    return [
        _violation(suite, n, d, trial_index, trial.cfg, *found)
        for suite, run in TRIAL_SUITES.items()
        for found in run(trial)
    ]


def _run_cell(args: tuple[TrialSpec, int, int]) -> list[dict]:
    spec, n, d = args
    return [record for t in range(spec.trials_per_cell) for record in check_trial(spec, n, d, t)]


def _character_suite(n_top: int) -> list[tuple]:
    """Exact row and column orthogonality of the character tables."""
    out = []
    for n in range(1, n_top + 1):
        table = character_table(n)
        shapes = list(table.rows)
        for a in shapes:
            for b in shapes:
                total = sum(
                    size * x * y
                    for size, x, y in zip(
                        table.class_sizes, table.rows[a], table.rows[b]
                    )
                )
                want = factorial(n) if a == b else 0
                if total != want:
                    expected = f"row <{a.to_text()},{b.to_text()}> = {want}"
                    out.append((n, None, a, expected, str(total)))
        for i, rho in enumerate(table.classes):
            for j, rho2 in enumerate(table.classes):
                total = sum(
                    table.rows[lam][i] * table.rows[lam][j] for lam in shapes
                )
                want = factorial(n) // table.class_sizes[i] if i == j else 0
                if total != want:
                    expected = f"column <{rho.to_text()},{rho2.to_text()}> = {want}"
                    out.append((n, None, rho, expected, str(total)))
    return out


def _idempotent_suite(n_top: int) -> list[tuple]:
    """e_lam is symmetrize's lam-part of the standard basis of Q^n, whose
    pure tensor is the identity tuple (1, ..., n), a weight block that is
    the regular representation; so e_lam * e_mu = delta * e_lam, and the
    e_lam sum to the identity."""
    out = []
    for n in range(1, n_top + 1):
        basis = VectorConfiguration(n, [[int(i == j) for j in range(n)] for i in range(n)])
        for lam in partitions_of(n):
            part, e = symmetrize(basis, lam), central_idempotent(lam)
            if (part.numerators, part.divisor) != (e.numerators, e.divisor):
                expected = f"e_{lam.to_text()} is the {lam.to_text()}-part of the identity"
                out.append((n, None, lam, expected, "wrong idempotent"))
    return out


def _rank_law_suite(n_top: int, dims: tuple[int, ...]) -> list[tuple]:
    """operator rank of e_lam = (standard tableaux) x (Weyl dimension).

    Each e_lam is built once and ranked for every d with d^n within the
    operator cap; `operator_rank` eliminates one weight block per pattern of
    multiplicities (on the lam-part, block mu has dimension f^lam times the
    Kostka number K_(lam, mu), which no reordering of mu changes), so at
    n = 5 it ranks 1, 3 and 5 blocks for d = 1, 2, 3.  The report sorts the
    violations."""
    out = []
    for n in range(1, n_top + 1):
        ranked = [d for d in dims if d**n <= OPERATOR_DIMENSION_CAP]
        if not ranked:
            continue
        for lam in partitions_of(n):
            e = central_idempotent(lam)
            for d in ranked:
                got = operator_rank(e, d)
                want = syt_count(lam) * weyl_dimension(lam, d)
                if got != want:
                    out.append((n, d, lam, f"rank = {want}", str(got)))
    return out


# suite name -> (runner taking n_top and dims, degree cap) for the suites
# that run once per report; each returns a list of (n, d, shape, expected,
# actual), so its work is done in its call, and the runners look it up when
# called, so a wrapper put on the module attribute sees the call
STANDALONE_SUITES = {
    "character_orthogonality": (lambda n_top, dims: _character_suite(n_top), 8),
    "idempotent_system": (lambda n_top, dims: _idempotent_suite(n_top), 5),
    "schur_weyl_rank": (lambda n_top, dims: _rank_law_suite(n_top, dims), 5),
}


def run_standalone_suite(suite: str, spec: TrialSpec) -> list[dict]:
    """Run one standalone suite up to its degree cap and n_max; write its records."""
    if suite not in STANDALONE_SUITES:
        raise ValueError(f"unknown suite {_brief(suite)}")
    runner, cap = STANDALONE_SUITES[suite]
    return [
        _violation(suite, n, d, None, None, shape, expected, actual)
        for n, d, shape, expected, actual in runner(min(spec.n_max, cap), spec.dims)
    ]


def _run_task(task: tuple) -> list[dict]:
    return _run_cell(task) if len(task) == 3 else run_standalone_suite(task[1], task[0])


def run_verification(spec: TrialSpec, jobs: int = 1) -> VerificationReport:
    """Run every suite; deterministic given the spec, regardless of jobs.

    One task list, (spec, suite) for each standalone suite and then (spec, n,
    d) for each cell, costliest first (by n, then d, decreasing), goes to at
    most jobs worker processes, and never more than there are tasks or CPUs,
    since the pool starts all of them at once.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    dims = sorted(spec.dims, reverse=True)
    cells = [(n, d) for n in range(spec.n_max, 0, -1) for d in dims]
    tasks = [(spec, suite) for suite in STANDALONE_SUITES] + [(spec, n, d) for n, d in cells]
    # the CPUs this process may run on, where the platform tells them
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(tasks), cpus or 1)
    with ExitStack() as stack:
        mapper = map
        if workers > 1:
            # imported here: multiprocessing costs every other CLI process its import
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        violations = [record for result in mapper(_run_task, tasks) for record in result]
    violations.sort(key=_sort_key)
    return VerificationReport(
        spec=spec,
        cells_run=len(cells),
        trials_run=len(cells) * spec.trials_per_cell,
        violations=violations,
        elapsed=time.perf_counter() - start,
    )
