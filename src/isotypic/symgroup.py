"""Permutations, the rational group algebra of S_n, and Young symmetrizers.

Composition convention, fixed once for the whole package:

    (sigma * tau)(i) = sigma(tau(i))

With the place-permutation action in `tensors`, this makes the group act
on tensors on the right: acting by sigma and then by tau equals acting by
sigma * tau.  Every order-sensitive identity is tested under this single
convention.

An element keeps the integer form its sums use, integer `numerators` by
image tuple over one `divisor`; `_moved_sums`, the place-action kernel of
`algebra_multiply` and `tensors.apply_algebra_element`, sums such integers
by tuple, and `algebra_multiply` multiplies the divisors.  The symmetrizers
are one signed block walk over image tuples, `_block_sum`; only `inverse`,
`compose` and the rational `terms` view build a `Permutation`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, Mapping

from .linalg import as_vector, integer_scaled, lowest_terms
from .partitions import DEGREE_CAP, Partition, _integers


class Permutation:
    """A bijection of {1..n}, stored as the tuple of images (1-based)."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = _integers(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        seen = set()
        for cycle in cycles:
            cycle = _integers(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not 1 <= a <= n:
                    raise ValueError(f"cycle entry {a} out of range 1..{n}")
                if a in seen:
                    raise ValueError(f"cycle entry {a} repeats")
                seen.add(a)
                images[a - 1] = b
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return Permutation(inv)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point, sorted by it."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self(j)
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def __str__(self):
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cycles)

    def cycle_type(self) -> Partition:
        return Partition(_cycle_lengths(self.images))

    @property
    def sign(self) -> int:
        return -1 if (self.n - len(self.cycle_type())) % 2 else 1


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """(sigma o tau)(i) = sigma(tau(i))."""
    if sigma.n != tau.n:
        raise ValueError(f"degree mismatch: {sigma.n} vs {tau.n}")
    return Permutation(_place_action(tau.images)(sigma.images))


def _cycle_lengths(images: tuple[int, ...]) -> tuple[int, ...]:
    """The parts of the cycle type of a 1-based image tuple, longest first."""
    unseen = set(images)
    lengths = []
    while unseen:
        start = j = unseen.pop()
        length = 1
        while (j := images[j - 1]) != start:
            unseen.discard(j)
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _place_action(images: tuple[int, ...]):
    """The index-tuple map t -> (t[images[k] - 1])_k of the right action;
    on image tuples, _place_action(t.images)(s.images) == (s * t).images."""
    if len(images) <= 1:
        # itemgetter with one index returns the item, not a 1-tuple, and
        # takes no zero indices; permutations of degree 0 or 1 fix every tuple
        return tuple
    return itemgetter(*(i - 1 for i in images))


def _moved_sums(support: Mapping[tuple, int], terms) -> dict[tuple, int]:
    """The sum over the integer (images, c) terms of c * (the integer support
    moved by the place action of images), summed in int, zeros included."""
    pairs = list(support.items())
    acc: dict[tuple, int] = {}
    for images, c in terms:
        move = _place_action(images)
        for idx, val in pairs:
            moved = move(idx)
            acc[moved] = acc.get(moved, 0) + c * val
    return acc


class Tableau:
    """A bijective filling of a Young diagram with 1..n (not necessarily standard)."""

    __slots__ = ("shape", "rows")

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = tuple(_integers(row) for row in rows)
        shape = Partition(len(row) for row in rows)
        n = shape.size
        if sorted(e for row in rows for e in row) != list(range(1, n + 1)):
            raise ValueError(f"entries must be exactly 1..{n}")
        self.shape = shape
        self.rows = rows

    @property
    def n(self) -> int:
        return self.shape.size

    def columns(self) -> list[tuple[int, ...]]:
        width = self.shape[0] if len(self.shape) else 0
        return [
            tuple(row[j] for row in self.rows if len(row) > j) for j in range(width)
        ]

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Tableau({[list(r) for r in self.rows]})"


class GroupAlgebraElement:
    """A finite formal rational combination of permutations of {1..n}: the
    nonzero coefficients as int `numerators` by image tuple over one positive
    `divisor`, in lowest terms; `terms` is the rational view by Permutation."""

    __slots__ = ("n", "numerators", "divisor")

    def __init__(self, n: int, terms: Mapping[Permutation, Fraction] | None = None):
        terms = terms or {}
        for perm in terms:
            if not isinstance(perm, Permutation):
                raise ValueError(f"a key must be a Permutation, got {perm!r}")
            if perm.n != n:
                raise ValueError(f"term degree {perm.n} does not match {n}")
        coeffs, scale = integer_scaled(as_vector(terms.values()))
        self.n = n
        images = (perm.images for perm in terms)
        self.numerators, self.divisor = lowest_terms(dict(zip(images, coeffs)), scale)

    @classmethod
    def _from_integers(cls, n: int, numerators: dict, divisor: int) -> "GroupAlgebraElement":
        """The element with the coefficients numerators / divisor by image tuple."""
        x = cls(n)
        x.numerators, x.divisor = lowest_terms(numerators, divisor)
        return x

    @classmethod
    def one(cls, n: int) -> "GroupAlgebraElement":
        return cls._from_integers(n, {tuple(range(1, n + 1)): 1}, 1)

    @property
    def terms(self) -> dict[Permutation, Fraction]:
        return {Permutation(im): Fraction(c, self.divisor) for im, c in self.numerators.items()}

    def is_zero(self) -> bool:
        return not self.numerators

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        divisor = lcm(self.divisor, other.divisor)
        total = {im: c * (divisor // self.divisor) for im, c in self.numerators.items()}
        for im, c in other.numerators.items():
            total[im] = total.get(im, 0) + c * (divisor // other.divisor)
        return GroupAlgebraElement._from_integers(self.n, total, divisor)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return algebra_multiply(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupAlgebraElement)
            and (self.n, self.divisor) == (other.n, other.divisor)
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.n, self.divisor, frozenset(self.numerators.items())))

    def __repr__(self):
        body = " + ".join(
            f"{coeff}*{perm}" for perm, coeff in sorted(
                self.terms.items(), key=lambda kv: kv[0].images
            )
        )
        return f"GroupAlgebraElement({self.n}, {body or '0'})"

    def _check(self, other: "GroupAlgebraElement") -> None:
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")


def algebra_multiply(
    x: GroupAlgebraElement, y: GroupAlgebraElement
) -> GroupAlgebraElement:
    """Convolution product: the coefficient of pi collects x(s)*y(t) over s*t = pi,
    the place action of y on the image tuples of x."""
    x._check(y)
    total = _moved_sums(x.numerators, y.numerators.items())
    return GroupAlgebraElement._from_integers(x.n, total, x.divisor * y.divisor)


def _block_sum(n: int, blocks: Iterable[Iterable[int]], signed: bool) -> GroupAlgebraElement:
    """Sum over the permutations of {1..n} preserving each disjoint block, with
    coefficient 1 or, if signed, the sign: the parity of the blocks' inversions."""
    if n > DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds cap {DEGREE_CAP}")
    blocks = [b for b in map(tuple, blocks) if len(b) >= 2]
    numerators = {}
    for orders in itertools.product(*(itertools.permutations(range(len(b))) for b in blocks)):
        images = list(range(1, n + 1))
        inversions = 0
        for block, order in zip(blocks, orders):
            for src, k in zip(block, order):
                images[src - 1] = block[k]
            if signed:
                inversions += sum(a > b for a, b in itertools.combinations(order, 2))
        numerators[tuple(images)] = -1 if inversions % 2 else 1
    return GroupAlgebraElement._from_integers(n, numerators, 1)


def row_symmetrizer(tableau: Tableau) -> GroupAlgebraElement:
    """Sum, coefficient 1, over permutations preserving each row setwise."""
    return _block_sum(tableau.n, tableau.rows, signed=False)


def column_antisymmetrizer(tableau: Tableau) -> GroupAlgebraElement:
    """Signed sum over permutations preserving each column setwise."""
    return _block_sum(tableau.n, tableau.columns(), signed=True)


def subset_antisymmetrizer(n: int, block: Iterable[int]) -> GroupAlgebraElement:
    """Signed sum over permutations of the given block, fixing everything else."""
    block = _integers(block)
    if len(set(block)) < len(block) or not all(1 <= i <= n for i in block):
        raise ValueError(f"block {list(block)} is not a set of distinct entries of 1..{n}")
    return _block_sum(n, [block], signed=True)
