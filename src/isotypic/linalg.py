"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction`, ints or rational literals, each parsed
once by `integer_scaled`; matrices are immutable and keep integer rows
over row scales, and rank is computed by fraction-free (Bareiss)
elimination on integer rows, so nothing here is approximate.
`VectorConfiguration`, the input of every decider, keeps the same form
here, so that the matroid deciders load no tensor or character code.
So does `SparseTensor`, the one integer form of a sparse exact array,
which a group-algebra element subclasses: no object here stores a
`Fraction`, and the brute and gram routes test integers for zero.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .partitions import _brief, _integers

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str | int) -> Fraction:
    """Parse the interchange form: optional sign, integer, optional '/denominator'."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {_brief(text)}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {_brief(text)}") from None


def _exact(e) -> Fraction | int:
    """An int or a Fraction as it is, a rational literal parsed; a float or a
    bool raises ValueError."""
    if isinstance(e, str):
        return parse_rational(e)
    if isinstance(e, (Fraction, int)) and not isinstance(e, bool):
        return e
    raise ValueError(f"not an exact scalar: {_brief(e)}")


def _rational_rows(rows, scales) -> tuple[Vector, ...]:
    """The rational view of integer rows over their scales."""
    return tuple(tuple(Fraction(e, scale) for e in row) for row, scale in zip(rows, scales))


def _json_rows(rows, name: str, items: str) -> list:
    """`rows`, refused unless it is a JSON list of JSON lists."""
    if not isinstance(rows, list):
        raise ValueError(f"{name} must be a JSON list of {items}, got {_brief(rows)}")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"{name}[{i}] must be a JSON list, got {_brief(row)}")
    return rows


class Matrix:
    """Immutable dense rational matrix: row i is the int `numerators[i]` over
    the positive `scales[i]`, as in a configuration; `rows` is the rational view."""

    __slots__ = ("numerators", "scales")

    def __init__(self, rows: Iterable[Iterable]):
        scaled = [integer_scaled(row) for row in rows]
        widths = {len(ints) for ints, _ in scaled}
        if len(widths) > 1:
            raise ValueError("ragged rows in matrix")
        self.numerators = tuple(tuple(ints) for ints, _ in scaled)
        self.scales = tuple(scale for _, scale in scaled)

    @classmethod
    def _from_integers(cls, numerators, scales) -> "Matrix":
        """The matrix whose row i is numerators[i] / scales[i] (scales > 0)."""
        a = cls.__new__(cls)
        a.numerators = tuple(tuple(row) for row in numerators)
        a.scales = tuple(scales)
        return a

    @property
    def rows(self) -> tuple[Vector, ...]:
        return _rational_rows(self.numerators, self.scales)

    @property
    def nrows(self) -> int:
        return len(self.numerators)

    @property
    def ncols(self) -> int:
        return len(self.numerators[0]) if self.numerators else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[[str(e) for e in row] for row in self.rows]})"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Matrix":
        if not isinstance(obj, dict) or "entries" not in obj:
            raise ValueError('a matrix is a JSON object with the key "entries"')
        return cls(_json_rows(obj["entries"], "entries", "rows"))


def integer_scaled(entries: Iterable) -> tuple[list[int], int]:
    """The exact entries, each parsed by `_exact`, times the lcm of their
    denominators, as ints, and that lcm (1 for ints)."""
    row = [_exact(e) for e in entries]
    scale = lcm(*(e.denominator for e in row))
    return [e.numerator * (scale // e.denominator) for e in row], scale


def lowest_terms(numerators: dict, divisor: int) -> tuple[dict, int]:
    """numerators / divisor (divisor > 0) with the zeros pruned and the common
    gcd divided out: equal rational maps get equal forms, zero gets divisor 1."""
    g = gcd(divisor, *numerators.values())  # a zero leaves the gcd as it is
    return {key: c // g for key, c in numerators.items() if c}, divisor // g


class VectorConfiguration:
    """An ordered list of vectors in Q^dim; zero vectors are permitted.

    One integer form: vector i is the int row `rows[i]` over `scales[i]`,
    the lcm of its entries' denominators; `vectors` is the rational view.
    `rank_memo`, the ranks by frozenset of 1-based indices, is shared by
    every `matroid.LinearMatroid` on the configuration.
    """

    __slots__ = ("dim", "rows", "scales", "rank_memo")

    def __init__(self, dim: int, vectors: Iterable[Iterable]):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise ValueError(f"dimension must be a nonnegative integer, got {_brief(dim)}")
        self.dim = dim
        scaled = [integer_scaled(v) for v in vectors]
        for row, _ in scaled:
            if len(row) != dim:
                raise ValueError(f"vector of length {len(row)} in dimension {dim}")
        self.rows = tuple(tuple(row) for row, _ in scaled)
        self.scales = tuple(scale for _, scale in scaled)
        self.rank_memo: dict[frozenset[int], int] = {frozenset(): 0}

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def vectors(self) -> tuple[Vector, ...]:
        return _rational_rows(self.rows, self.scales)

    # canonical: integer_scaled gives gcd(scale, *row) = 1, so equal vectors give equal forms
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorConfiguration)
            and (self.dim, self.rows, self.scales) == (other.dim, other.rows, other.scales)
        )

    def __hash__(self):
        return hash((self.dim, self.rows, self.scales))

    def __repr__(self):
        return f"VectorConfiguration(dim={self.dim}, n={self.n})"

    def to_json_obj(self) -> dict:
        return {
            "dim": self.dim,
            "vectors": [[str(e) for e in v] for v in _rational_rows(self.rows, self.scales)],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "VectorConfiguration":
        if not isinstance(obj, dict) or not {"dim", "vectors"} <= obj.keys():
            raise ValueError('a configuration is a JSON object with keys "dim" and "vectors"')
        return cls(obj["dim"], _json_rows(obj["vectors"], "vectors", "vectors"))


class SparseTensor:
    """Element of the n-th tensor power of Q^d: the nonzero entries as int
    `numerators` by index tuple over one positive `divisor`, in lowest
    terms; `entries` is the rational view."""

    __slots__ = ("n", "d", "numerators", "divisor")

    def __init__(self, n: int, d: int, entries: Mapping[tuple[int, ...], Fraction] | None = None):
        entries = entries or {}
        keys = [_integers(idx) for idx in entries]
        for idx in keys:
            if len(idx) != n or any(not 1 <= i <= d for i in idx):
                raise ValueError(f"bad index {idx} for degree {n}, dimension {d}")
        values, scale = integer_scaled(entries.values())
        self.n, self.d = n, d
        self.numerators, self.divisor = lowest_terms(dict(zip(keys, values)), scale)

    @classmethod
    def _from_integers(cls, n: int, d: int, numerators: dict, divisor: int) -> "SparseTensor":
        """The tensor with the entries numerators / divisor by index tuple."""
        w = cls.__new__(cls)
        w.n, w.d = n, d
        w.numerators, w.divisor = lowest_terms(numerators, divisor)
        return w

    @property
    def entries(self) -> dict[tuple[int, ...], Fraction]:
        return {idx: Fraction(c, self.divisor) for idx, c in self.numerators.items()}

    def is_zero(self) -> bool:
        return not self.numerators

    def __eq__(self, other) -> bool:
        # the type is part of the value: an element never equals a plain tensor
        return (
            type(other) is type(self)
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


def _int_rank(rows: list[list[int]]) -> int:
    """Rank via one-step Bareiss elimination; all intermediate values stay integral."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, len(rows)):
            ric = rows[i][c]
            row_i, row_r = rows[i], rows[r]
            for j in range(c + 1, ncols):
                num = row_i[j] * piv - ric * row_r[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise RuntimeError("fraction-free elimination left the integers")
                row_i[j] = q
            row_i[c] = 0
        prev = piv
        r += 1
        if r == len(rows):
            break
    return r


def rank_of_rows(rows: Sequence[Sequence]) -> int:
    """Rank of a list of equal-length rational rows (no Matrix wrapper needed);
    scaling a row to integers does not change the rank."""
    return _int_rank([integer_scaled(r)[0] for r in rows])


def is_independent(vectors: Sequence[Sequence]) -> bool:
    """True iff the vectors are linearly independent over the rationals.

    Each vector is parsed once, by `integer_scaled`, and the integer rows
    are tested by `_independent_rows`.  The empty family is independent;
    any family longer than the ambient dimension, or containing the zero
    vector, is dependent.
    """
    rows = [integer_scaled(v)[0] for v in vectors]
    dims = {len(row) for row in rows}
    if len(dims) > 1:
        raise ValueError(f"vectors of mixed dimension: {sorted(dims)}")
    return _independent_rows(rows)


def _independent_rows(rows: Sequence[Sequence[int]]) -> bool:
    """`is_independent` for integer rows of one length, which need no parsing
    or scaling: no more rows than columns, and full rank."""
    if rows and len(rows) > len(rows[0]):
        return False
    return _int_rank(rows) == len(rows)
