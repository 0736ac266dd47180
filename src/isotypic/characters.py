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
pairs `itertools.permutations` with the class of each permutation.  The
classes are not found by walking cycles: `_lexicographic_classes` builds
them by a memoized recursion over prefix states (closed cycle lengths and
open chains), and only that sequence, n! bytes, is cached.  The module
loads the permutation code (`symgroup`) only when an idempotent is
built, so a gram process never loads it.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .partitions import DEGREE_CAP, Partition, partitions_of

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


def _check_degree(n: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds cap {DEGREE_CAP}")


@cache
def character_row(lam: Partition) -> tuple[int, ...]:
    """The character indexed by lam on every cycle type of its degree, in the
    order of partitions_of: one row of character_table(lam.size)."""
    _check_degree(lam.size)
    return tuple(character_value(lam, rho) for rho in partitions_of(lam.size))


@cache
def character_table(n: int) -> CharacterTable:
    _check_degree(n)
    classes = tuple(partitions_of(n))
    sizes = tuple(class_size(rho) for rho in classes)
    rows = {lam: character_row(lam) for lam in classes}
    return CharacterTable(n, classes, sizes, rows)


def permutations_with_class(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All permutations of {1..n} as 1-based image tuples, lexicographic by
    image tuple, each paired with the index of its cycle type in
    partitions_of(n): a one-pass iterator.  No Permutation is built and no
    cycle is walked: the n!-term sums only move index tuples and read the
    class, and the classes come from _lexicographic_classes.  The degree
    cap is checked at the call.
    """
    if n > DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds cap {DEGREE_CAP}")
    return zip(itertools.permutations(range(1, n + 1)), _lexicographic_classes(n))


@cache
def _lexicographic_classes(n: int) -> bytes:
    """The class index of every permutation of {1..n}, in lexicographic
    order of image tuples, one byte each (p(DEGREE_CAP) < 256).

    Images are chosen position by position, smallest free value first, so
    the completions of a prefix are one contiguous run of the order.  Their
    classes depend only on the cycle lengths the prefix has closed and on
    its open chains: for each free value, in increasing order, the rank
    among the free positions of the position where its chain ends, and the
    chain's length.  The next position has rank 0; giving it the free
    value of its own chain closes a cycle, any other free value joins the
    two chains.  Each state's run is found once.
    """
    index = {rho.parts: i for i, rho in enumerate(partitions_of(n))}

    @cache
    def run(closed: tuple[int, ...], chains: tuple[tuple[int, int], ...]) -> bytes:
        if not chains:
            return bytes((index[closed],))
        head = next(i for i, (end, _) in enumerate(chains) if end == 0)
        head_length = chains[head][1]
        shifted = [(end - 1, length) for end, length in chains]
        runs = []
        for j, (end, length) in enumerate(chains):
            rest = shifted.copy()
            if j == head:
                cycles = tuple(sorted(closed + (length,), reverse=True))
            else:
                # the head chain now runs on through chain j, to where j ended
                cycles = closed
                rest[head] = (end - 1, head_length + length)
            del rest[j]
            runs.append(run(cycles, tuple(rest)))
        return b"".join(runs)

    classes = run((), tuple((v, 1) for v in range(n)))
    # run's closure refers to run, so free the memo now, not at the next
    # garbage collection
    run.cache_clear()
    return classes


@cache
def central_idempotent(lam: Partition) -> GroupAlgebraElement:
    """(chi(1)/n!) * sum of chi(sigma) sigma: the projector onto the
    lam-isotypic two-sided ideal of the rational group algebra, from one walk
    of permutations_with_class that skips the classes where chi vanishes.
    The degree cap is checked by character_row."""
    from .symgroup import GroupAlgebraElement  # only here: a gram process never loads it

    n = lam.size
    row = character_row(lam)
    # class (1,...,1) is last in reverse-lex order
    chi_1 = row[-1]
    pairs = permutations_with_class(n)
    return GroupAlgebraElement._from_integers(
        n, {images: chi_1 * row[c] for images, c in pairs if row[c]}, factorial(n)
    )
