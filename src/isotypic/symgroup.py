"""Permutations, the rational group algebra of S_n and its action on
tensors, and Young symmetrizers.

Composition convention, fixed once for the whole package:

    (sigma * tau)(i) = sigma(tau(i))

The group acts on degree-n tensors on the right by permuting positions:
sigma moves the entry at index tuple t to the tuple k -> t[sigma(k)], so
acting by sigma and then by tau equals acting by sigma * tau.  Every
order-sensitive identity is tested under this single convention.

An element is the degree-n tensor over Q^n of its image tuples, a
`linalg.SparseTensor` with d = n: integer `numerators` by image tuple over
one `divisor`.  The place action of tau on sigma's image tuple gives
sigma * tau, so `_moved_sums` is the kernel of both `algebra_multiply` and
`apply_algebra_element`; it sums the integers by tuple, and the callers
multiply the divisors.  `apply_algebra_element` and `operator_rank` are
the oracles of the brute route.  The symmetrizers are one signed block
walk over image tuples, `_block_sum`; only `inverse`, `compose` and the
rational `terms` view build a `Permutation`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, Mapping

from .linalg import SparseTensor, _int_rank
from .partitions import DEGREE_CAP, Partition, _cycle_lengths, _integers


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


class GroupAlgebraElement(SparseTensor):
    """A finite formal rational combination of permutations of {1..n}: the
    degree-n tensor over Q^n of the image tuples, whose nonzero entries are
    int `numerators` by image tuple over one positive `divisor`, in lowest
    terms; `terms` is the rational view by Permutation."""

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping[Permutation, Fraction] | None = None):
        terms = terms or {}
        for perm in terms:
            if not isinstance(perm, Permutation):
                raise ValueError(f"a key must be a Permutation, got {perm!r}")
            if perm.n != n:
                raise ValueError(f"term degree {perm.n} does not match {n}")
        super().__init__(n, n, {perm.images: c for perm, c in terms.items()})

    @classmethod
    def _from_integers(cls, n: int, numerators: dict, divisor: int) -> "GroupAlgebraElement":
        """The element with the coefficients numerators / divisor by image tuple."""
        return super()._from_integers(n, n, numerators, divisor)

    @classmethod
    def one(cls, n: int) -> "GroupAlgebraElement":
        return cls._from_integers(n, {tuple(range(1, n + 1)): 1}, 1)

    @property
    def terms(self) -> dict[Permutation, Fraction]:
        return {Permutation(im): Fraction(c, self.divisor) for im, c in self.numerators.items()}

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        divisor = lcm(self.divisor, other.divisor)
        total = {im: c * (divisor // self.divisor) for im, c in self.numerators.items()}
        for im, c in other.numerators.items():
            total[im] = total.get(im, 0) + c * (divisor // other.divisor)
        return GroupAlgebraElement._from_integers(self.n, total, divisor)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return algebra_multiply(self, other)

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


# operator_rank builds the full d^n-dimensional space; past this it refuses.
OPERATOR_DIMENSION_CAP = 4096


def apply_algebra_element(w: SparseTensor, x: GroupAlgebraElement) -> SparseTensor:
    """Linear extension: the sum of x(sigma) * (w acted on by sigma)."""
    if x.n != w.n:
        raise ValueError(f"degree mismatch: {x.n} vs {w.n}")
    total = _moved_sums(w.numerators, x.numerators.items())
    return SparseTensor._from_integers(w.n, w.d, total, w.divisor * x.divisor)


def operator_rank(x: GroupAlgebraElement, d: int) -> int:
    """Rank of w -> apply_algebra_element(w, x) on the full tensor power.

    The position action preserves the multiset of indices, so the operator
    is block-diagonal over weights (sorted index tuples).  A renaming pi of
    the letters 1..d commutes with every place action, which moves positions
    and not letters, so the block of pi(weight) is the block of weight with
    its rows and columns renamed: weights with the same sorted multiplicities
    have blocks of equal rank, for every element, central or not.  The block
    of the first weight of each pattern is eliminated exactly, in integers
    over the positions of its _block_space, and its rank counted once per
    weight of the pattern.
    """
    from .brute import _block_space  # only here: loading symgroup loads no brute
    n = x.n
    dimension = d**n
    if dimension > OPERATOR_DIMENSION_CAP:
        raise ValueError(f"d^n = {dimension} exceeds operator cap {OPERATOR_DIMENSION_CAP}")
    if x.is_zero():
        return 0
    # rank is unchanged by the positive divisor of the integer coefficients
    terms = [(_place_action(images), c) for images, c in x.numerators.items()]
    ranks: dict[tuple[int, ...], int] = {}
    total = 0
    for weight in itertools.combinations_with_replacement(range(1, d + 1), n):
        pattern = tuple(sorted(Counter(weight).values()))
        if pattern not in ranks:
            space = _block_space(weight)
            index = space.positions
            rows = []
            for idx in space.tuples:
                dense = [0] * len(index)
                for move, coeff in terms:
                    dense[index[move(idx)]] += coeff
                rows.append(dense)
            ranks[pattern] = _int_rank(rows)
        total += ranks[pattern]
    return total


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
