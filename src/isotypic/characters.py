"""Irreducible characters of the symmetric group and central idempotents.

Character values are computed by the Murnaghan-Nakayama border-strip
recursion on beta-numbers: removing a strip of length k from a shape is
subtracting k from one beta-number so that the result is again a set of
distinct nonnegative integers; the sign is (-1)^(number of beta-numbers
jumped over), which equals (-1)^(strip height).  Everything is integer
arithmetic, memoized by (shape, cycle type).

`character_row(lam)` is chi^lam on every class of its degree, in the
order of `partitions_of`: the one row a generalized matrix function
(`gram.matrix_function_sums`) or a central idempotent reads.
`character_table` builds its rows from it.  Both check the degree cap.

The library's one n!-term walk is `central_idempotent`'s, over
`permutations_with_class`, which checks the degree cap when called and
pairs `itertools.permutations` with the class of each permutation, read
by one cycle walk (`partitions._cycle_lengths`).  Neither keeps anything
n!-sized once it returns: only the character values (`_mn`) and rows
(`character_row`) are cached.  Only `central_idempotent` loads the
permutation code (`symgroup`), so a gram process never loads it.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .partitions import DEGREE_CAP, Partition, _check_degree, _cycle_lengths, partitions_of

if TYPE_CHECKING:
    from .symgroup import GroupAlgebraElement


@cache
def _mn(lam_parts: tuple[int, ...], rho_parts: tuple[int, ...]) -> int:
    if not rho_parts:
        return 1 if not lam_parts else 0
    k = rho_parts[0]
    rest = rho_parts[1:]
    nrows = len(lam_parts)
    beta = [lam_parts[i] + (nrows - 1 - i) for i in range(nrows)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        jumped = sum(1 for other in beta if nb < other < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        m = len(new_beta)
        mu = tuple(
            part
            for j, x in enumerate(new_beta)
            if (part := x - (m - 1 - j)) > 0
        )
        total += (-1) ** jumped * _mn(mu, rest)
    return total


def character_value(lam: Partition, rho: Partition) -> int:
    """The irreducible character indexed by lam, on the class of cycle type rho."""
    if lam.size != rho.size:
        raise ValueError(f"size mismatch: |{lam.parts}| != |{rho.parts}|")
    return _mn(lam.parts, rho.parts)


def class_size(rho: Partition) -> int:
    """Number of permutations with the given cycle type: n!/z_rho."""
    z = 1
    multiplicity: dict[int, int] = {}
    for part in rho:
        multiplicity[part] = multiplicity.get(part, 0) + 1
    for part, m in multiplicity.items():
        z *= part**m * factorial(m)
    count, rem = divmod(factorial(rho.size), z)
    if rem:
        raise RuntimeError(f"class size of {rho.parts} is not an integer")
    return count


class CharacterTable(NamedTuple):
    """Full character table of S_n; classes and rows in reverse-lex order."""

    n: int
    classes: tuple[Partition, ...]
    class_sizes: tuple[int, ...]
    rows: dict[Partition, tuple[int, ...]]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "classes": [rho.to_text() for rho in self.classes],
            "class_sizes": list(self.class_sizes),
            "rows": {lam.to_text(): list(vals) for lam, vals in self.rows.items()},
        }


@cache
def character_row(lam: Partition) -> tuple[int, ...]:
    """The character indexed by lam on every cycle type of its degree, in the
    order of partitions_of: one row of character_table(lam.size)."""
    _check_degree(lam.size)
    return tuple(character_value(lam, rho) for rho in partitions_of(lam.size))


def character_table(n: int) -> CharacterTable:
    _check_degree(n)
    classes = tuple(partitions_of(n))
    sizes = tuple(class_size(rho) for rho in classes)
    rows = {lam: character_row(lam) for lam in classes}
    return CharacterTable(n, classes, sizes, rows)


def permutations_with_class(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All permutations of {1..n} as 1-based image tuples, lexicographic by
    image tuple, each paired with the index of its cycle type in
    partitions_of(n): a one-pass iterator that keeps nothing it has
    yielded.  Each class is read by one cycle walk of the image tuple
    (partitions._cycle_lengths); no Permutation is built and symgroup is not
    loaded.  The degree cap is checked at the call.
    """
    if n > DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds cap {DEGREE_CAP}")
    index = {rho.parts: i for i, rho in enumerate(partitions_of(n))}
    perms = itertools.permutations(range(1, n + 1))
    return ((images, index[_cycle_lengths(images)]) for images in perms)


def central_idempotent(lam: Partition) -> GroupAlgebraElement:
    """(chi(1)/n!) * sum of chi(sigma) sigma: the projector onto the
    lam-isotypic two-sided ideal of the rational group algebra, from one walk
    of permutations_with_class that skips the classes where chi vanishes.
    The element is built anew on each call; nothing of it is cached.  The
    degree cap is checked by character_row."""
    from .symgroup import GroupAlgebraElement  # only here: a gram process never loads it

    n = lam.size
    row = character_row(lam)
    # class (1,...,1) is last in reverse-lex order
    chi_1 = row[-1]
    pairs = permutations_with_class(n)
    return GroupAlgebraElement._from_integers(
        n, {images: chi_1 * row[c] for images, c in pairs if row[c]}, factorial(n)
    )
