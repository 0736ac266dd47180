"""Tensor powers of Q^d, the place-permutation action, and symmetrization.

A SparseTensor maps index tuples over {1..d} to rationals.  The group of
degree n acts on the right by permuting tensor positions: on a pure
tensor, acting by sigma reorders the factors to v_{sigma(1)} x ... x
v_{sigma(n)}, and the general action is the linear extension (entry at
index tuple t moves to the tuple k -> t[sigma(k)]).

Every function that moves index tuples under sigma gets the move from
`symgroup._place_action`, and the moved tensors are added up in
`symgroup._moved_sums`.  The n!-term character sums take a list of
shapes and walk `characters.character_walk` once for all of them: the
brute route sums the moved pure tensor over each walked class
(`symmetrized_sums`) and the gram route the products
prod_i a[i][sigma(i)] (`matrix_function_sums`), and each shape is the
combination of those class sums weighted by its character.  The two
routes share only the walk.  `symmetrize` and
`generalized_matrix_function` are their one-shape views, whose walk
skips the classes where the character vanishes.  Every sum runs in
`int`: each row, tensor or coefficient list is scaled by the lcm of its
denominators on the way in, and the exact result divided by those
scales on the way out.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Mapping, Sequence

from .characters import character_walk
from .linalg import Matrix, as_vector, integer_scaled, rank_of_rows
from .partitions import Partition
from .symgroup import GroupAlgebraElement, _normalize
from .symgroup import _integer_terms, _moved_sum, _moved_sums, _place_action

# operator_rank builds the full d^n-dimensional space; past this it refuses.
OPERATOR_DIMENSION_CAP = 4096


class VectorConfiguration:
    """An ordered list of vectors in Q^dim; zero vectors are permitted."""

    __slots__ = ("dim", "vectors")

    def __init__(self, dim: int, vectors: Iterable[Iterable]):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise ValueError(f"dimension must be a nonnegative integer, got {dim!r}")
        self.dim = dim
        self.vectors = tuple(as_vector(v) for v in vectors)
        for v in self.vectors:
            if len(v) != self.dim:
                raise ValueError(f"vector of length {len(v)} in dimension {self.dim}")

    @property
    def n(self) -> int:
        return len(self.vectors)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorConfiguration)
            and self.dim == other.dim
            and self.vectors == other.vectors
        )

    def __hash__(self):
        return hash((self.dim, self.vectors))

    def __repr__(self):
        return f"VectorConfiguration(dim={self.dim}, n={self.n})"

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "vectors": [[str(Fraction(e)) for e in v] for v in self.vectors],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "VectorConfiguration":
        if not isinstance(obj, dict) or not {"dim", "vectors"} <= obj.keys():
            raise ValueError('a configuration is a JSON object with keys "dim" and "vectors"')
        return cls(obj["dim"], obj["vectors"])


class SparseTensor:
    """Element of the n-th tensor power of Q^d, as a pruned index->value map."""

    __slots__ = ("n", "d", "entries")

    def __init__(self, n: int, d: int, entries: Mapping[tuple[int, ...], Fraction] | None = None):
        self.n = n
        self.d = d
        pruned: dict[tuple[int, ...], Fraction | int] = {}
        for idx, val in (entries or {}).items():
            idx = tuple(idx)
            if len(idx) != n or any(not 1 <= i <= d for i in idx):
                raise ValueError(f"bad index {idx} for degree {n}, dimension {d}")
            val = _normalize(val)
            if val:
                pruned[idx] = val
        self.entries = pruned

    @classmethod
    def zero(cls, n: int, d: int) -> "SparseTensor":
        return cls(n, d, {})

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseTensor)
            and (self.n, self.d) == (other.n, other.d)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.n, self.d, frozenset(self.entries.items())))

    def __repr__(self):
        return f"SparseTensor(n={self.n}, d={self.d}, {len(self.entries)} entries)"

    def _check(self, other: "SparseTensor") -> None:
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError(
                f"tensor mismatch: ({self.n},{self.d}) vs ({other.n},{other.d})"
            )

    def __add__(self, other: "SparseTensor") -> "SparseTensor":
        self._check(other)
        total = dict(self.entries)
        for idx, val in other.entries.items():
            total[idx] = total.get(idx, 0) + val
        return SparseTensor(self.n, self.d, total)

    def __sub__(self, other: "SparseTensor") -> "SparseTensor":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "SparseTensor":
        scalar = Fraction(scalar)
        return SparseTensor(
            self.n, self.d, {idx: scalar * val for idx, val in self.entries.items()}
        )

    def inner(self, other: "SparseTensor") -> Fraction:
        """Standard dot product extended multiplicatively to tensors."""
        self._check(other)
        small, large = self.entries, other.entries
        if len(small) > len(large):
            small, large = large, small
        return Fraction(
            sum(val * large[idx] for idx, val in small.items() if idx in large)
        )

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "dim": self.d,
            "entries": [
                {"index": list(idx), "value": str(Fraction(val))}
                for idx, val in sorted(self.entries.items())
            ],
        }


def decomposable(cfg: VectorConfiguration) -> SparseTensor:
    """The pure tensor of the configuration; zero iff some vector is zero."""
    if cfg.n < 1:
        raise ValueError("need at least one vector")
    entries: dict[tuple[int, ...], Fraction | int] = {(): 1}
    for v in cfg.vectors:
        support = [(i + 1, _normalize(c)) for i, c in enumerate(v) if c]
        if not support:
            return SparseTensor.zero(cfg.n, cfg.dim)
        entries = {
            idx + (i,): val * c for idx, val in entries.items() for i, c in support
        }
    return SparseTensor(cfg.n, cfg.dim, entries)


def apply_algebra_element(w: SparseTensor, x: GroupAlgebraElement) -> SparseTensor:
    """Linear extension: the sum of x(sigma) * (w acted on by sigma)."""
    if x.n != w.n:
        raise ValueError(f"degree mismatch: {x.n} vs {w.n}")
    return SparseTensor(w.n, w.d, _moved_sum(w.entries, *_integer_terms(x)))


def symmetrized_sums(
    cfg: VectorConfiguration, shapes: Sequence[Partition]
) -> tuple[list[dict[tuple[int, ...], int]], int]:
    """The character projectors of the shapes applied to the pure tensor of
    cfg, from one walk: for each shape its nonzero integer entries, and one
    divisor common to all, so that entries / divisor is the shape's
    symmetrized tensor.

    Each walked class C gets its class sum T_C of the moved pure tensor, and
    a shape's tensor is chi(1)/n! * sum over C of chi(C) * T_C.
    """
    for lam in shapes:
        if lam.size != cfg.n:
            raise ValueError(f"shape size {lam.size} does not match {cfg.n} vectors")
    degrees, values, walk = character_walk(shapes)
    class_sums, scale = _moved_sums(
        decomposable(cfg).entries, ((images, s, 1) for images, s in walk), len(values[0])
    )
    out = []
    for chi_1, row in zip(degrees, values):
        total: dict[tuple[int, ...], int] = {}
        for chi, sums in zip(row, class_sums):
            if chi:
                for idx, c in sums.items():
                    total[idx] = total.get(idx, 0) + chi * c
        out.append({idx: chi_1 * c for idx, c in total.items() if c})
    return out, factorial(cfg.n) * scale


def symmetrize(cfg: VectorConfiguration, lam: Partition) -> SparseTensor:
    """Apply the character projector for lam to the pure tensor of cfg.

    Equals apply_algebra_element(decomposable(cfg), central_idempotent(lam));
    the one-shape view of symmetrized_sums, whose walk skips the classes
    where the character vanishes.
    """
    (entries,), divisor = symmetrized_sums(cfg, [lam])
    return SparseTensor(
        cfg.n, cfg.dim, {idx: Fraction(c, divisor) for idx, c in entries.items()}
    )


def nonzero_after_symmetrize(cfg: VectorConfiguration, lam: Partition) -> bool:
    """Exact zero test of the symmetrized pure tensor (the brute-force decider)."""
    return not symmetrize(cfg, lam).is_zero()


def gram_matrix(cfg: VectorConfiguration) -> Matrix:
    """Pairwise dot products; symmetric positive semidefinite."""
    vs = cfg.vectors
    return Matrix(
        [[sum(a * b for a, b in zip(vs[i], vs[j])) for j in range(cfg.n)] for i in range(cfg.n)]
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
    # rank is unchanged by the nonzero scale that makes the coefficients integers
    terms, _ = _integer_terms(x)
    terms = [(_place_action(images), c) for images, c in terms]
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
