"""Seeded random instances and the cross-decider verification harness.

Instance generation uses SplitMix64, a fixed 64-bit generator, so the
map from (seed, n, d, trial_index) to a configuration is part of the
external contract: the same spec always produces the same instances, the
same report, and the same violation records, on any platform.

The harness runs, per generated configuration: the four-decider
agreement over every shape of the matching size, the Gram-matrix
identity, the column criterion for a random tableau, the det-twist
reduction when the leading vectors form a basis, and the matroid-union
oracle cross-check; plus standalone character-table, idempotent, and
operator-rank suites per report.  Its tensors move only by the brute
projector's position maps (`brute.symmetrized_sums`, `antisymmetrized`).
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from functools import cache
from fractions import Fraction
from math import factorial

from .brute import antisymmetrized, decomposable, symmetrized_sums
from .characters import central_idempotent, character_table
from .gram import gram_matrix, matrix_function_sums
from .linalg import SparseTensor, VectorConfiguration, is_independent, lowest_terms
from .matroid import gamas_condition, rank_partition, rank_partition_oracle
from .partitions import DEGREE_CAP, Partition, partitions_of, syt_count, weyl_dimension
from .symgroup import Tableau
from .tensors import OPERATOR_DIMENSION_CAP, operator_rank

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
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not all(_is_int(d) for d in self.dims):
            raise ValueError(f"dims must be integers, got {list(self.dims)!r}")
        if not 1 <= self.n_max <= DEGREE_CAP:
            raise ValueError(f"n_max must be in 1..{DEGREE_CAP}")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")
        repeated = sorted({d for d in self.dims if self.dims.count(d) > 1})
        if repeated:
            raise ValueError(f"dims must be distinct; repeated: {', '.join(map(str, repeated))}")
        if self.trials_per_cell < 0:
            raise ValueError("trials_per_cell must be nonnegative")
        if not 1 <= self.entry_range < 2**63:
            raise ValueError("entry_range must be in 1..2**63 - 1")
        for name in ("p_duplicate", "p_scale", "p_zero"):
            p = getattr(self, name)
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise ValueError(f"{name} must be a number, got {p!r}")
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
            raise ValueError(f"dims must be a list of integers, got {values['dims']!r}")
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
    vectors: list[tuple[Fraction, ...]] = []
    for i in range(n):
        u_zero, u_dup, u_scale = rng.uniform(), rng.uniform(), rng.uniform()
        if u_zero < spec.p_zero:
            vectors.append(tuple(Fraction(0) for _ in range(d)))
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
        vectors.append(tuple(Fraction(rng.randint(-r, r)) for _ in range(d)))
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


# the suites that check_trial runs on each configuration, in its order
TRIAL_SUITES = (
    "matroid_oracle", "four_decider_agreement", "gram_identity", "column_criterion", "det_twist"
)

_RECORD_KEYS = ("suite", "n", "d", "trial_index", "shape")


def _violation(suite, n, d, trial_index, shape, cfg, expected, actual, detail=None):
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
    if record["shape"] is not None and not isinstance(record["shape"], str):
        raise ValueError(f"violation #{i}: shape must be a string or null, got {record['shape']!r}")
    if record.get("config") is None:
        # a standalone record; its suite may be any JSON value, hashable or not
        if not isinstance(record["suite"], str) or record["suite"] not in STANDALONE_SUITES:
            raise ValueError(
                f"violation #{i}: unknown suite {record['suite']!r} for a standalone record; "
                f"known: {', '.join(STANDALONE_SUITES)}"
            )
        return
    if record["suite"] not in TRIAL_SUITES:
        raise ValueError(
            f"violation #{i}: unknown suite {record['suite']!r} for a trial record; "
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
            raise ValueError(f"violation #{i}: {key} must be {text}, got {value!r}")


def _sort_key(record: dict):
    return (
        record["suite"],
        record["n"] if record["n"] is not None else -1,
        record["d"] if record["d"] is not None else -1,
        record["trial_index"] if record["trial_index"] is not None else -1,
        record["shape"] or "",
    )


def check_trial(spec: TrialSpec, n: int, d: int, trial_index: int) -> list[dict]:
    """Run every per-configuration suite, in TRIAL_SUITES order, for one
    generated trial."""
    cfg = generate_configuration(spec, n, d, trial_index)
    oracle_suite, agreement_suite, gram_suite, column_suite, twist_suite = TRIAL_SUITES
    out: list[dict] = []
    shapes = partitions_of(n)
    w = decomposable(cfg)

    rho = rank_partition(cfg)
    rho_conjugate = rho.conjugate()
    # the oracle and agreement suites share one engine run per shape
    certificate_of = cache(lambda lam: gamas_condition(cfg, lam))
    oracle = rank_partition_oracle(cfg)
    if rho != oracle:
        out.append(
            _violation(
                oracle_suite, n, d, trial_index, None, cfg,
                f"rho={list(oracle.rho)}", f"rho={list(rho.rho)}",
            )
        )
    has_zero_vector = any(not any(v) for v in cfg.vectors)
    # gamas_condition validates its certificate before returning it
    if not has_zero_vector and certificate_of(rho_conjugate) is None:
        out.append(
            _violation(
                oracle_suite, n, d, trial_index, rho_conjugate, cfg,
                "rank partition achieved by a valid certificate",
                "no valid certificate",
            )
        )

    # one walk per route serves every shape; the tensors and values come
    # as integers over one positive divisor per route, compared cross-multiplied
    symmetrized, tensor_divisor = symmetrized_sums(w, shapes)
    values, value_divisor = matrix_function_sums(gram_matrix(cfg), shapes)
    for lam, entries, value in zip(shapes, symmetrized, values):
        certificate = certificate_of(lam)
        answers = {
            "brute": bool(entries),
            "gram": value != 0,
            "gamas": certificate is not None,
            "dominance": lam.dominates(rho_conjugate),
        }
        if len(set(answers.values())) != 1:
            detail = dict(answers)
            detail["certificate"] = certificate.to_json_obj() if certificate else None
            out.append(
                _violation(
                    agreement_suite, n, d, trial_index, lam, cfg,
                    "all four deciders agree", str(answers), detail,
                )
            )
        norm = sum(c * c for c in entries.values())
        if norm * factorial(n) * value_divisor != syt_count(lam) * value * tensor_divisor**2:
            rhs = Fraction(syt_count(lam) * value, factorial(n) * value_divisor)
            out.append(
                _violation(
                    gram_suite, n, d, trial_index, lam, cfg,
                    f"<wT,wT> = {rhs}", str(Fraction(norm, tensor_divisor**2)),
                )
            )
        if value < 0:
            out.append(
                _violation(
                    gram_suite, n, d, trial_index, lam, cfg,
                    "gmf of a Gram matrix is nonnegative",
                    str(Fraction(value, value_divisor)),
                )
            )

    rng = SplitMix64(_mix(spec.seed, 0xC0111, n, d, trial_index))
    shape = shapes[rng.randint(0, len(shapes) - 1)]
    entries = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):  # Fisher-Yates on the fixed generator
        j = rng.randint(0, i)
        entries[i], entries[j] = entries[j], entries[i]
    rows, at = [], 0
    for part in shape:
        rows.append(entries[at : at + part])
        at += part
    tableau = Tableau(rows)
    symmetrized_nonzero = not antisymmetrized(w, tableau.columns()).is_zero()
    columns_independent = all(
        is_independent([cfg.rows[i - 1] for i in column]) for column in tableau.columns()
    )
    if symmetrized_nonzero != columns_independent:
        out.append(
            _violation(
                column_suite, n, d, trial_index, shape, cfg,
                f"columns independent = {columns_independent}",
                f"nonzero after column antisymmetrization = {symmetrized_nonzero}",
                {"tableau": [list(r) for r in tableau.rows]},
            )
        )

    if n >= d and is_independent(cfg.rows[:d]):
        wedge = antisymmetrized(w, [range(1, d + 1)])
        # one call per side applies the central idempotent of every shape
        # with d rows: to the wedge, and with its first column removed to the
        # pure tensor of the other vectors (nothing is left when n = d)
        d_row_shapes = [lam for lam in shapes if len(lam) == d]
        wedged, _ = symmetrized_sums(wedge, d_row_shapes)
        if n == d:
            reduced = [True] * len(d_row_shapes)
        else:
            rest = VectorConfiguration(d, cfg.vectors[d:])
            sums, _ = symmetrized_sums(
                decomposable(rest), [lam.remove_first_column() for lam in d_row_shapes]
            )
            reduced = [bool(entries) for entries in sums]
        for lam, entries, rhs in zip(d_row_shapes, wedged, reduced):
            lhs = bool(entries)
            if lhs != rhs:
                out.append(
                    _violation(
                        twist_suite, n, d, trial_index, lam, cfg,
                        f"reduced-shape decision = {rhs}",
                        f"wedge decision = {lhs}",
                    )
                )

    return out


def _run_cell(args: tuple[TrialSpec, int, int]) -> list[dict]:
    spec, n, d = args
    out: list[dict] = []
    for t in range(spec.trials_per_cell):
        out.extend(check_trial(spec, n, d, t))
    return out


def _character_suite(n_top: int) -> list[dict]:
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
                    out.append(
                        _violation(
                            "character_orthogonality", n, None, None, a, None,
                            f"row <{a.to_text()},{b.to_text()}> = {want}", str(total),
                        )
                    )
        for i, rho in enumerate(table.classes):
            for j, rho2 in enumerate(table.classes):
                total = sum(
                    table.rows[lam][i] * table.rows[lam][j] for lam in shapes
                )
                want = factorial(n) // table.class_sizes[i] if i == j else 0
                if total != want:
                    out.append(
                        _violation(
                            "character_orthogonality", n, None, None, rho, None,
                            f"column <{rho.to_text()},{rho2.to_text()}> = {want}",
                            str(total),
                        )
                    )
    return out


def _idempotent_suite(n_top: int) -> list[dict]:
    """e_lam is the projector's lam-part of the identity (1, ..., n), a
    degree-n tensor over Q^n whose weight block is the regular
    representation; so e_lam * e_mu = delta * e_lam, and the e_lam sum to
    the identity."""
    out = []
    for n in range(1, n_top + 1):
        shapes = partitions_of(n)
        identity = SparseTensor(n, n, {tuple(range(1, n + 1)): 1})
        parts, divisor = symmetrized_sums(identity, shapes)
        for lam, entries in zip(shapes, parts):
            e = central_idempotent(lam)
            if lowest_terms(entries, divisor) != (e.numerators, e.divisor):
                out.append(
                    _violation(
                        "idempotent_system", n, None, None, lam, None,
                        f"e_{lam.to_text()} is the {lam.to_text()}-part of the identity",
                        "wrong idempotent",
                    )
                )
    return out


def _rank_law_suite(n_top: int, dims: tuple[int, ...]) -> list[dict]:
    """operator rank of e_lam = (standard tableaux) x (Weyl dimension).

    Each e_lam is built once and ranked for every d with d^n within the
    operator cap; the report sorts the violations."""
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
                    out.append(
                        _violation(
                            "schur_weyl_rank", n, d, None, lam, None,
                            f"rank = {want}", str(got),
                        )
                    )
    return out


# suite name -> (runner taking n_top and dims, degree cap) for the suites
# that run once per report; the runners look each suite up when called, so
# a wrapper put on the module attribute sees the call
STANDALONE_SUITES = {
    "character_orthogonality": (lambda n_top, dims: _character_suite(n_top), 8),
    "idempotent_system": (lambda n_top, dims: _idempotent_suite(n_top), 5),
    "schur_weyl_rank": (lambda n_top, dims: _rank_law_suite(n_top, dims), 5),
}


def run_standalone_suite(suite: str, spec: TrialSpec) -> list[dict]:
    """Run one standalone suite for n up to its degree cap and the spec's n_max."""
    if suite not in STANDALONE_SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    runner, cap = STANDALONE_SUITES[suite]
    return runner(min(spec.n_max, cap), spec.dims)


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
