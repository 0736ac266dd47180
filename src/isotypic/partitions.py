"""Integer partitions and their combinatorics.

Conjugation, dominance order, hook lengths, standard and semistandard
tableau counts, first-column removal and the cycle type of an image tuple
(`_cycle_lengths`).  Enumeration order is reverse-lexicographic everywhere,
so output is reproducible.  The module also holds `DEGREE_CAP`, which the
character code reads without loading the permutation code, the refusals
the deciders share (a degree outside 1..DEGREE_CAP, `_check_degree`, and a
shape whose size is not the number of vectors, `_check_shape_size`) and
`_brief`, the bounded text of an input value that error messages echo.
"""

from __future__ import annotations

import reprlib
from functools import cache
from itertools import islice
from math import factorial
from typing import Iterable, Iterator

# n! enumerations (permutation streams, central idempotents, block symmetrizers),
# character rows and full symmetrizations refuse to run past this degree
# rather than silently truncating.
DEGREE_CAP = 10


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds cap {DEGREE_CAP}")


def _check_shape_size(lam: Partition, n: int) -> None:
    if lam.size != n:
        raise ValueError(f"shape size {lam.size} does not match {n} vectors")


class _BoundedRepr(reprlib.Repr):
    """reprlib's repr, keeping a dict's keys in their order, as repr does."""

    def repr_dict(self, x, level):
        items = islice(x.items(), self.maxdict if level > 0 else 0)
        pieces = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}" for k, v in items]
        return "{" + ", ".join(pieces + ["..."] * (len(x) > len(pieces))) + "}"

    def repr_int(self, x, level):
        if abs(x) < 10**4300:  # repr refuses an int past Python's default digit limit
            return super().repr_int(x, level)
        return f"{'-' * (x < 0)}...{abs(x) % 10**19:019d} ({x.bit_length()} bits)"


_brief = _BoundedRepr().repr  # bounds the input value an error message echoes


def _integers(entries: Iterable) -> tuple[int, ...]:
    """The entries as a tuple of ints; a float or a bool raises ValueError
    rather than being truncated or read as 0 or 1."""
    entries = tuple(entries)
    for e in entries:
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"not an integer entry: {_brief(e)}")
    return entries


class Partition:
    """A weakly decreasing tuple of positive integers; () is the empty partition."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = _integers(parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {_brief(parts)}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {_brief(parts)}")
        self.parts = parts

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the CLI form '3,2,2'; the empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            parts = [int(p) for p in text.split(",")]
        except ValueError:
            raise ValueError(f"a shape is comma-separated integers, got {_brief(text)}") from None
        return cls(parts)

    def to_text(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram: column lengths become parts."""
        conj = Partition.__new__(Partition)
        # the conjugate of valid parts is valid, so it is not checked again
        conj.parts = _conjugate_parts(self.parts)
        return conj

    def dominates(self, other: "Partition") -> bool:
        """True iff sizes agree and every prefix sum of self is >= other's.

        Partitions of different sizes are never comparable (returns False);
        rank partitions of configurations with zero vectors rely on this.
        """
        if self.size != other.size:
            return False
        a = b = 0
        for i in range(max(len(self.parts), len(other.parts))):
            a += self.parts[i] if i < len(self.parts) else 0
            b += other.parts[i] if i < len(other.parts) else 0
            if a < b:
                return False
        return True

    def remove_first_column(self) -> "Partition":
        """Drop one box from every row (rows of length 1 disappear)."""
        return Partition(p - 1 for p in self.parts if p >= 2)

    def hook_lengths(self) -> list[list[int]]:
        conj = self.conjugate().parts
        return [
            [self.parts[i] - j + conj[j] - i - 1 for j in range(self.parts[i])]
            for i in range(len(self.parts))
        ]


@cache
def _conjugate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0))


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


@cache
def _partitions_of(n: int) -> tuple[Partition, ...]:
    out: list[Partition] = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        for p in range(min(largest, remaining), 0, -1):
            rec(remaining - p, p, prefix + (p,))

    rec(n, n, ())
    return tuple(out)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, reverse-lexicographic: (n) first, (1,...,1) last."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_partitions_of(n))


def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of this shape (hook length formula)."""
    n = lam.size
    product = 1
    for row in lam.hook_lengths():
        for h in row:
            product *= h
    count, rem = divmod(factorial(n), product)
    if rem:
        raise RuntimeError(f"hook length formula gave a fraction for {lam.parts}")
    return count


def weyl_dimension(lam: Partition, d: int) -> int:
    """Dimension of the Schur functor applied to a d-dimensional space.

    The number of semistandard tableaux with entries in 1..d, by the hook
    content formula: the product of (d + content) over the product of hook
    lengths; zero when the shape has more than d rows.
    """
    if len(lam) > d:
        return 0
    num = den = 1
    hooks = lam.hook_lengths()
    for i, row in enumerate(hooks):
        for j, h in enumerate(row):
            num *= d + j - i
            den *= h
    count, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"hook content formula gave a fraction for {lam.parts}")
    return count

