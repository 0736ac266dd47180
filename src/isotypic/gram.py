"""The gram route: the Gram matrix and its generalized matrix functions.

The character-symmetrized pure tensor of v_1, ..., v_n is nonzero exactly
when d_chi(G) is, for G the Gram matrix of the vectors and d_chi the
generalized matrix function of the shape's character.  d_chi is linear in
the character: d_chi(A) = sum over the cycle types mu of chi(mu) * P_mu,
where P_mu sums prod_i a[i][sigma(i)] over the permutations of type mu.
`matrix_function_sums(a, shapes)` walks no permutation: it finds every
P_mu from the cycle sums of the subsets of the rows (Held-Karp path sums,
`_cycle_sums`), combined over set partitions (`_class_sums`), in about
2^n n^2 + 3^n integer steps, and weights them by one character row per
listed shape, `characters.character_row`.  `generalized_matrix_function`
is its one-shape view.

The module loads only `linalg` and `partitions`, and `characters` when
the sums are first asked for, so a gram process loads no tensor or
permutation code; the brute route, `brute`, shares none of it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Sequence

from .linalg import Matrix, VectorConfiguration
from .partitions import Partition, partitions_of


def gram_matrix(cfg: VectorConfiguration) -> Matrix:
    """Pairwise dot products; symmetric positive semidefinite.  Entry (i, j)
    is the int dot product of the integer rows i and j over scales[i] *
    scales[j], so row i is kept over scales[i] times the lcm of the scales."""
    rows, scales = cfg.rows, cfg.scales
    common = lcm(*scales)
    numerators = [
        [sum(a * b for a, b in zip(u, v)) * (common // scale) for v, scale in zip(rows, scales)]
        for u in rows
    ]
    return Matrix._from_integers(numerators, [scale * common for scale in scales])


def matrix_function_sums(a: Matrix, shapes: Sequence[Partition]) -> tuple[list[int], int]:
    """The generalized matrix functions of the shapes at a square matrix: for
    each shape an integer, and one divisor common to all, so that integer /
    divisor is the shape's value.

    A shape's value is the sum over the cycle types mu of chi(mu) * P_mu,
    where P_mu sums prod_i a[i][sigma(i)] over the permutations of type mu;
    _class_sums gets every P_mu from the cycle sums of _cycle_sums, over
    subsets of the rows, and no permutation is walked.  The shapes'
    character rows, which check the degree, are read before any sum starts.
    """
    n = a.nrows
    if a.ncols != n:
        raise ValueError(f"matrix must be square, got {a.nrows}x{a.ncols}")
    for lam in shapes:
        if lam.size != n:
            raise ValueError(f"shape size {lam.size} does not match matrix size {n}")
    if not shapes:
        raise ValueError("need at least one shape")
    from .characters import character_row  # only when summing: gram_matrix alone never loads it

    rows = [character_row(lam) for lam in shapes]
    # d_chi(DA) = det(D) d_chi(A) for diagonal D, as each term takes one
    # entry from every row
    class_sums = _class_sums(_cycle_sums(a.numerators))
    sums = [class_sums.get(rho.parts, 0) for rho in partitions_of(n)]
    values = [sum(chi * p for chi, p in zip(row, sums) if p) for row in rows]
    return values, prod(a.scales)


def _cycle_sums(rows: Sequence[Sequence[int]]) -> list[int]:
    """By bit mask of a nonempty set S of rows, c(S): the sum over the single
    cycles sigma on S of prod over i in S of rows[i][sigma(i)].

    Each cycle is read from s = min S.  The sums of the paths from s through
    every element of S, by their last element, are built mask by mask from
    those of S minus that element (Held-Karp), and each path closes back to s.
    """
    paths: list[dict[int, int]] = [{}] * (1 << len(rows))
    cycles = [0] * len(paths)
    for mask in range(1, len(paths)):
        low = mask & -mask
        s = low.bit_length() - 1
        ends = {s: 1} if mask == low else {}
        rest = mask ^ low
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            total = sum(p * rows[u][v] for u, p in paths[mask ^ bit].items())
            if total:
                ends[v] = total
        paths[mask] = ends
        cycles[mask] = sum(p * rows[v][s] for v, p in ends.items())
    return cycles


def _class_sums(cycles: list[int]) -> dict[tuple[int, ...], int]:
    """P_mu by cycle type mu (decreasing parts) from the cycle sums by bit
    mask: the sum over the set partitions of the rows into blocks with sizes
    mu of the product of the blocks' cycle sums; a type that no product of
    nonzero cycle sums reaches is missing.

    The partial sums, by covered mask and type so far, are built mask by
    mask from the empty set; each new block holds the least row not yet
    covered, so each set partition is built once, and a block whose cycle
    sum is zero is skipped.
    """
    full = len(cycles) - 1
    states: list[dict | None] = [None] * len(cycles)
    states[0] = {(): 1}
    merged: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    for mask in range(full):
        found = states[mask]
        if not found:
            continue
        states[mask] = None
        free = full ^ mask
        low = free & -free
        rest = chosen = free ^ low
        while True:
            block = chosen | low
            c = cycles[block]
            if c:
                size = block.bit_count()
                target = states[mask | block]
                if target is None:
                    target = states[mask | block] = {}
                for parts, p in found.items():
                    key = merged.get((parts, size))
                    if key is None:
                        key = merged[parts, size] = tuple(sorted((*parts, size), reverse=True))
                    target[key] = target.get(key, 0) + p * c
            if not chosen:
                break
            chosen = (chosen - 1) & rest
    return states[full] or {}


def generalized_matrix_function(a: Matrix, lam: Partition) -> Fraction:
    """The character-weighted permanent-like sum over all permutations.

    Specializes to the determinant for the single-column shape and the
    permanent for the single-row shape.  The one-shape view of
    matrix_function_sums.
    """
    (total,), divisor = matrix_function_sums(a, [lam])
    return Fraction(total, divisor)
