"""Tensor powers of Q^d, the place-permutation action, and symmetrization.

A SparseTensor maps index tuples over {1..d} to rationals.  The group of
degree n acts on the right by permuting tensor positions: on a pure
tensor, acting by sigma reorders the factors to v_{sigma(1)} x ... x
v_{sigma(n)}, and the general action is the linear extension (entry at
index tuple t moves to the tuple k -> t[sigma(k)]).

Every function that moves index tuples under sigma gets the move from
`symgroup._place_action`, and the moved tensors are added up in
`symgroup._moved_sums`.  The n!-term character sums take a list of
shapes and walk `characters.character_walk` once for all of them:
`symmetrized_sums(w, shapes)` sums the moved tensor w over each walked
class and `matrix_function_sums(a, shapes)` the products
prod_i a[i][sigma(i)], and each shape is the combination of those class
sums weighted by its character.  The two share only the walk.
`symmetrize` (on the pure tensor) and `generalized_matrix_function` are
their one-shape views, whose walk skips the classes where the character
vanishes.

A configuration becomes integers in one place, `linalg.VectorConfiguration`:
its `rows` are the vectors scaled by the lcm of their denominators, its
`scales`.  A tensor keeps the integer form its sums use, as an algebra
element does: `decomposable` multiplies the rows over the product of the
scales, and the kernels sum numerators in `int` and multiply divisors.
Only `gram_matrix` divides, and `matrix_function_sums` scales back.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from typing import Mapping, Sequence

from .characters import character_table, character_walk
from .linalg import Matrix, VectorConfiguration, as_vector, integer_scaled, lowest_terms
from .linalg import rank_of_rows
from .partitions import Partition
from .symgroup import GroupAlgebraElement, _moved_sums, _place_action

# operator_rank builds the full d^n-dimensional space; past this it refuses.
OPERATOR_DIMENSION_CAP = 4096


class SparseTensor:
    """Element of the n-th tensor power of Q^d: the nonzero entries as int
    `numerators` by index tuple over one positive `divisor`, in lowest
    terms; `entries` is the rational view."""

    __slots__ = ("n", "d", "numerators", "divisor")

    def __init__(self, n: int, d: int, entries: Mapping[tuple[int, ...], Fraction] | None = None):
        entries = entries or {}
        keys = [tuple(idx) for idx in entries]
        for idx in keys:
            if len(idx) != n or any(not 1 <= i <= d for i in idx):
                raise ValueError(f"bad index {idx} for degree {n}, dimension {d}")
        values, scale = integer_scaled(as_vector(entries.values()))
        self.n, self.d = n, d
        self.numerators, self.divisor = lowest_terms(dict(zip(keys, values)), scale)

    @classmethod
    def _from_integers(cls, n: int, d: int, numerators: dict, divisor: int) -> "SparseTensor":
        """The tensor with the entries numerators / divisor by index tuple."""
        w = cls(n, d)
        w.numerators, w.divisor = lowest_terms(numerators, divisor)
        return w

    @property
    def entries(self) -> dict[tuple[int, ...], Fraction]:
        return {idx: Fraction(c, self.divisor) for idx, c in self.numerators.items()}

    def is_zero(self) -> bool:
        return not self.numerators

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseTensor)
            and (self.n, self.d, self.divisor) == (other.n, other.d, other.divisor)
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.n, self.d, self.divisor, frozenset(self.numerators.items())))

    def __repr__(self):
        return f"SparseTensor(n={self.n}, d={self.d}, {len(self.numerators)} entries)"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "dim": self.d,
            "entries": [
                {"index": list(idx), "value": str(val)} for idx, val in sorted(self.entries.items())
            ],
        }


def decomposable(cfg: VectorConfiguration) -> SparseTensor:
    """The pure tensor of the configuration, zero iff some vector is zero: the
    products of the integer rows over the product of the scales."""
    if cfg.n < 1:
        raise ValueError("need at least one vector")
    entries: dict[tuple[int, ...], int] = {(): 1}
    for row in cfg.rows:
        support = [(i + 1, c) for i, c in enumerate(row) if c]
        if not support:
            return SparseTensor(cfg.n, cfg.dim)
        entries = {
            idx + (i,): val * c for idx, val in entries.items() for i, c in support
        }
    return SparseTensor._from_integers(cfg.n, cfg.dim, entries, prod(cfg.scales))


def apply_algebra_element(w: SparseTensor, x: GroupAlgebraElement) -> SparseTensor:
    """Linear extension: the sum of x(sigma) * (w acted on by sigma)."""
    if x.n != w.n:
        raise ValueError(f"degree mismatch: {x.n} vs {w.n}")
    (total,) = _moved_sums(w.numerators, ((im, 0, c) for im, c in x.numerators.items()), 1)
    return SparseTensor._from_integers(w.n, w.d, total, w.divisor * x.divisor)


def symmetrized_sums(
    w: SparseTensor, shapes: Sequence[Partition]
) -> tuple[list[dict[tuple[int, ...], int]], int]:
    """The central idempotents of the shapes applied to w, from one walk: for
    each shape its nonzero integer entries, and one divisor common to all,
    so that entries / divisor is apply_algebra_element(w,
    central_idempotent(shape)).

    Each walked class C gets its class sum T_C of the moved tensor, and a
    shape's tensor is chi(1)/n! * sum over C of chi(C) * T_C.
    """
    for lam in shapes:
        if lam.size != w.n:
            raise ValueError(f"shape size {lam.size} does not match degree {w.n}")
    degrees, values, walk = character_walk(shapes)
    class_sums = _moved_sums(
        w.numerators, ((images, s, 1) for images, s in walk), len(values[0])
    )
    out = []
    for chi_1, row in zip(degrees, values):
        total: dict[tuple[int, ...], int] = {}
        for chi, sums in zip(row, class_sums):
            if chi:
                for idx, c in sums.items():
                    total[idx] = total.get(idx, 0) + chi * c
        out.append({idx: chi_1 * c for idx, c in total.items() if c})
    return out, factorial(w.n) * w.divisor


def symmetrize(cfg: VectorConfiguration, lam: Partition) -> SparseTensor:
    """Apply the character projector for lam to the pure tensor of cfg.

    Equals apply_algebra_element(decomposable(cfg), central_idempotent(lam));
    the one-shape view of symmetrized_sums, whose walk skips the classes
    where the character vanishes.
    """
    if lam.size != cfg.n:
        raise ValueError(f"shape size {lam.size} does not match {cfg.n} vectors")
    # the degree is checked (1..DEGREE_CAP) before the d^n-entry pure tensor
    # is built
    character_table(cfg.n)
    (entries,), divisor = symmetrized_sums(decomposable(cfg), [lam])
    return SparseTensor._from_integers(cfg.n, cfg.dim, entries, divisor)


def nonzero_after_symmetrize(cfg: VectorConfiguration, lam: Partition) -> bool:
    """Exact zero test of the symmetrized pure tensor (the brute-force decider)."""
    return not symmetrize(cfg, lam).is_zero()


def gram_matrix(cfg: VectorConfiguration) -> Matrix:
    """Pairwise dot products; symmetric positive semidefinite.  Each is an
    int dot product of the integer rows, divided by the two rows' scales."""
    rows, scales = cfg.rows, cfg.scales
    return Matrix(
        [
            [
                Fraction(sum(a * b for a, b in zip(rows[i], rows[j])), scales[i] * scales[j])
                for j in range(cfg.n)
            ]
            for i in range(cfg.n)
        ]
    )


def matrix_function_sums(a: Matrix, shapes: Sequence[Partition]) -> tuple[list[int], int]:
    """The generalized matrix functions of the shapes at a square matrix, from
    one walk: for each shape an integer, and one divisor common to all, so
    that integer / divisor is the shape's value.

    Each walked class C gets its class sum P_C of prod_i a[i][sigma(i)], and
    a shape's value is the sum over C of chi(C) * P_C.
    """
    n = a.nrows
    if a.ncols != n:
        raise ValueError(f"matrix must be square, got {a.nrows}x{a.ncols}")
    for lam in shapes:
        if lam.size != n:
            raise ValueError(f"shape size {lam.size} does not match matrix size {n}")
    _, values, walk = character_walk(shapes)
    # d_chi(DA) = det(D) d_chi(A) for diagonal D, as each term takes one
    # entry from every row; a leading 0 makes columns 1-based like images
    scaled = [integer_scaled(r) for r in a.rows]
    rows = [(0, *ints) for ints, _ in scaled]
    class_sums = [0] * len(values[0])
    for images, s in walk:
        term = 1
        for r, img in zip(rows, images):
            term *= r[img]
            if not term:
                break
        class_sums[s] += term
    divisor = prod(scale for _, scale in scaled)
    return [sum(chi * p for chi, p in zip(row, class_sums)) for row in values], divisor


def generalized_matrix_function(a: Matrix, lam: Partition) -> Fraction:
    """The character-weighted permanent-like sum over all permutations.

    Specializes to the determinant for the single-column shape and the
    permanent for the single-row shape.  The one-shape view of
    matrix_function_sums.
    """
    (total,), divisor = matrix_function_sums(a, [lam])
    return Fraction(total, divisor)


def operator_rank(x: GroupAlgebraElement, d: int) -> int:
    """Rank of w -> apply_algebra_element(w, x) on the full tensor power.

    The position action preserves the multiset of indices, so the operator
    is block-diagonal over index contents; the rank is computed block by
    block with exact elimination.
    """
    n = x.n
    dimension = d**n
    if dimension > OPERATOR_DIMENSION_CAP:
        raise ValueError(
            f"d^n = {dimension} exceeds operator cap {OPERATOR_DIMENSION_CAP}"
        )
    if x.is_zero():
        return 0
    blocks: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for idx in itertools.product(range(1, d + 1), repeat=n):
        blocks.setdefault(tuple(sorted(idx)), []).append(idx)
    # rank is unchanged by the positive divisor of the integer coefficients
    terms = [(_place_action(images), c) for images, c in x.numerators.items()]
    total = 0
    for basis in blocks.values():
        index = {idx: i for i, idx in enumerate(basis)}
        rows = []
        for idx in basis:
            dense = [0] * len(basis)
            for move, coeff in terms:
                dense[index[move(idx)]] += coeff
            rows.append(dense)
        total += rank_of_rows(rows)
    return total
