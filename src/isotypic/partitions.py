"""Integer partitions and their combinatorics.

Conjugation, dominance order, hook lengths, standard and semistandard
tableau counts, and first-column removal.  Enumeration order is
reverse-lexicographic everywhere, so output is reproducible.  The module
also holds `DEGREE_CAP`, which the character code reads without loading
the permutation code.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Iterable, Iterator

# n! enumerations (permutation streams, central idempotents, block symmetrizers),
# character rows and full symmetrizations refuse to run past this degree
# rather than silently truncating.
DEGREE_CAP = 10


def _integers(entries: Iterable) -> tuple[int, ...]:
    """The entries as a tuple of ints; a float or a bool raises ValueError
    rather than being truncated or read as 0 or 1."""
    entries = tuple(entries)
    for e in entries:
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"not an integer entry: {e!r}")
    return entries


class Partition:
    """A weakly decreasing tuple of positive integers; () is the empty partition."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = _integers(parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
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
            raise ValueError(f"a shape is comma-separated integers, got {text!r}") from None
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


@cache
def _partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for p in range(min(largest, remaining), 0, -1):
            rec(remaining - p, p, prefix + (p,))

    rec(n, n, ())
    return tuple(out)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, reverse-lexicographic: (n) first, (1,...,1) last."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [Partition(p) for p in _partitions_of(n)]


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

