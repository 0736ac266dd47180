"""The brute route: the pure tensor projected onto the shape's isotypic part.

`symmetrized_sums(w, shapes)` applies the central idempotents of a list of
shapes to a tensor w without walking the permutations.  w is split into
weight blocks (one sorted index tuple each), whose shapes are those that
dominate the weight (Young's rule).  Each block is an int list over the
positions of `_block_space(weight)`, the weight's index tuples, which
`_separate` splits into isotypic parts by the power sums of the
Jucys-Murphy elements.  Every move is a transposition, applied as a
position map (two entries of each index tuple swapped) that is built once
per weight, on first use.  `antisymmetrized` applies column
antisymmetrizers on the same maps, and `nonzero_after_symmetrize` stops at
the first weight block with a nonzero part.  `decomposable` is the pure
tensor of a configuration, and `symmetrize` its one-shape view of
`symmetrized_sums`.  The module loads only `partitions` and `linalg`, home
of `SparseTensor`, so a brute decide or `symmetrize` loads no
tensor-action or permutation code.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property
from itertools import compress
from math import gcd, lcm, prod
from operator import add, itemgetter, sub
from typing import Iterable, Sequence

from .linalg import SparseTensor, VectorConfiguration
from .partitions import DEGREE_CAP, Partition, _integers, partitions_of


def _pure_numerators(rows) -> dict[tuple[int, ...], int]:
    """The pure tensor of the integer rows: the product of the rows' entries
    by index tuple, nonzero only, and empty when some row is zero."""
    entries: dict[tuple[int, ...], int] = {(): 1}
    for row in rows:
        support = [(i + 1, c) for i, c in enumerate(row) if c]
        if not support:
            return {}
        entries = {idx + (i,): val * c for idx, val in entries.items() for i, c in support}
    return entries


def _check_pure_tensor(cfg: VectorConfiguration, lam: Partition) -> None:
    """Refuse a shape of another size and a degree outside 1..DEGREE_CAP."""
    if lam.size != cfg.n:
        raise ValueError(f"shape size {lam.size} does not match {cfg.n} vectors")
    if cfg.n < 1:
        raise ValueError("n must be at least 1")
    if cfg.n > DEGREE_CAP:
        raise ValueError(f"degree {cfg.n} exceeds cap {DEGREE_CAP}")


def decomposable(cfg: VectorConfiguration) -> SparseTensor:
    """The pure tensor of the configuration, zero iff some vector is zero: the
    products of the integer rows over the product of the scales."""
    if cfg.n < 1:
        raise ValueError("need at least one vector")
    return SparseTensor._from_integers(cfg.n, cfg.dim, _pure_numerators(cfg.rows), prod(cfg.scales))


def symmetrize(cfg: VectorConfiguration, lam: Partition) -> SparseTensor:
    """Apply the character projector for lam to the pure tensor of cfg:
    apply_algebra_element(decomposable(cfg), central_idempotent(lam)), as
    the one-shape view of symmetrized_sums."""
    _check_pure_tensor(cfg, lam)
    (entries,), divisor = symmetrized_sums(decomposable(cfg), [lam])
    return SparseTensor._from_integers(cfg.n, cfg.dim, entries, divisor)


def nonzero_after_symmetrize(cfg: VectorConfiguration, lam: Partition) -> bool:
    """Exact zero test of the symmetrized pure tensor (the brute-force
    decider): True at the first weight block with a nonzero part."""
    _check_pure_tensor(cfg, lam)
    return any(entries for (entries, _), in _weight_block_parts(_pure_numerators(cfg.rows), [lam]))


def symmetrized_sums(
    w: SparseTensor, shapes: Sequence[Partition]
) -> tuple[list[dict[tuple[int, ...], int]], int]:
    """The central idempotents of the shapes applied to w: for each shape its
    nonzero integer entries, and one divisor common to all, so that entries
    / divisor is apply_algebra_element(w, central_idempotent(shape)); each
    weight block's parts (_weight_block_parts) are brought to that divisor."""
    for lam in shapes:
        if lam.size != w.n:
            raise ValueError(f"shape size {lam.size} does not match degree {w.n}")
    blocks = list(_weight_block_parts(w.numerators, shapes))
    divisor = lcm(*(q for parts in blocks for _, q in parts))
    out: list[dict[tuple[int, ...], int]] = [{} for _ in shapes]
    for parts in blocks:
        for total, (entries, q) in zip(out, parts):
            scale = divisor // q
            for idx, c in entries.items():
                total[idx] = c * scale
    return out, divisor * w.divisor


def _weight_block_parts(numerators: dict, shapes: Sequence[Partition]):
    """For each weight block of the numerators where some listed shape can
    occur (by _young_candidates), each listed shape's part of the block,
    found by _separate level by level, as nonzero integer entries over a
    positive divisor."""
    listed = set(shapes)
    occurs = lambda weight: not listed.isdisjoint(_young_candidates(weight))
    for weight, space, v in _position_blocks(numerators, occurs):
        candidates = _young_candidates(weight)
        parts: dict[Partition, tuple[list[int], int]] = {}
        _separate(v, candidates, listed.intersection(candidates), 1, 1, space, parts)
        entries = {
            lam: (dict(compress(zip(space.tuples, part), part)), q)
            for lam, (part, q) in parts.items()
        }
        yield [entries.get(lam, ({}, 1)) for lam in shapes]


def antisymmetrized(w: SparseTensor, blocks: Iterable[Iterable[int]]) -> SparseTensor:
    """w acted on by the signed sum over the permutations that preserve each
    of the disjoint blocks of positions, as apply_algebra_element(w,
    column_antisymmetrizer(T)) is for the columns of a tableau T: for a block
    b_1 < ... < b_h, (1 - X_2) ... (1 - X_h) with X_k = sum over i < k of
    (b_i b_k), applied by the position maps of each weight's _block_space."""
    blocks = [sorted(_integers(block)) for block in blocks]
    positions = [i for block in blocks for i in block]
    if len(set(positions)) < len(positions) or not all(1 <= i <= w.n for i in positions):
        raise ValueError(f"blocks {blocks} are not disjoint sets of entries of 1..{w.n}")
    total: dict[tuple[int, ...], int] = {}
    for _, space, v in _position_blocks(w.numerators):
        for block in blocks:
            for k in range(1, len(block)):
                x_k = [space.maps[block[k] - 2][a - 1] for a in block[:k]]
                v = list(map(sub, v, _transposition_sum(v, x_k)))
        total.update(compress(zip(space.tuples, v), v))
    return SparseTensor._from_integers(w.n, w.d, total, w.divisor)


def _position_blocks(numerators: dict, keep=lambda weight: True):
    """For each weight block (the numerators with one sorted index tuple)
    whose weight keep accepts, before its _block_space is built: the
    weight, the space and the block as an int list over its positions."""
    blocks: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for idx, c in numerators.items():
        blocks.setdefault(tuple(sorted(idx)), {})[idx] = c
    for weight, block in blocks.items():
        if keep(weight):
            space = _block_space(weight)
            v = [0] * len(space.tuples)
            for idx, c in block.items():
                v[space.positions[idx]] = c
            yield weight, space, v


@cache
def _young_candidates(weight: tuple[int, ...]) -> tuple[Partition, ...]:
    """The shapes of the permutation module of a sorted index tuple: those
    that dominate its multiplicities (Young's rule), so at most d rows."""
    mu = Partition(sorted(Counter(weight).values(), reverse=True))
    return tuple(lam for lam in partitions_of(len(weight)) if lam.dominates(mu))


class _BlockSpace:
    """The index tuples of one weight on fixed positions: `tuples`, the
    weight's arrangements in lexicographic order, `positions` by tuple,
    and `maps`, built on first use by _transposition_maps."""

    def __init__(self, weight: tuple[int, ...]):
        counts = Counter(weight)
        tuples = [()]
        for _ in weight:
            tuples = [t + (i,) for t in tuples for i in counts if t.count(i) < counts[i]]
        self.tuples = tuples
        self.positions = {idx: p for p, idx in enumerate(tuples)}

    @cached_property
    def maps(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return _transposition_maps(self.tuples, self.positions)


@cache
def _block_space(weight: tuple[int, ...]) -> _BlockSpace:
    """The positions of the index tuples of a sorted index tuple's weight."""
    return _BlockSpace(weight)


def _transposition_maps(tuples: list, positions: dict) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For k = 2, ..., n, the position maps of the transpositions (i k),
    i < k, of X_k: at each position, the position of its tuple with entries
    i and k swapped, the place action of (i k) (an involution)."""
    n = len(tuples[0])
    out = []
    for k in range(1, n):
        maps = []
        for i in range(k):
            order = list(range(n))
            order[i], order[k] = k, i
            moved = map(itemgetter(*order), tuples)
            maps.append(tuple(map(positions.__getitem__, moved)))
        out.append(tuple(maps))
    return tuple(out)


def _separate(v: list[int], group: tuple[Partition, ...], wanted: set, m: int, divisor: int,
              space: _BlockSpace, out: dict) -> None:
    """Put in out, for each wanted shape of group, its part of v / divisor as
    (values over the positions of space, divisor), where v lies in the
    isotypic parts of the shapes of group, which share their content power
    sums p_1, ..., p_(m-1).

    p_m(X_2, ..., X_n), for the Jucys-Murphy elements X_k = sum over i < k
    of (i k), is central and acts on the lam-isotypic part by
    p_m(contents of lam).  With k distinct values z_j on group, the part of
    value z_j is prod over i != j of (Z - z_i) / (z_j - z_i) applied to v,
    a combination of the Krylov vectors v, Zv, ..., Z^(k-1)v.  A value held
    by two or more shapes is split again at level m + 1.
    """
    if len(group) == 1:
        out[group[0]] = (v, divisor)
        return
    steps = _lagrange(group, m)
    if steps is None:
        _separate(v, group, wanted, m + 1, divisor, space, out)
        return
    krylov = [v]
    for _ in steps[1:]:
        krylov.append(_power_sum_action(krylov[-1], m, space.maps))
    for shapes, coefficients, q in steps:
        if wanted.isdisjoint(shapes):
            continue
        part = [0] * len(v)
        for a, x in zip(coefficients, krylov):
            if a:
                part = list(map(add, part, map(a.__mul__, x)))
        if any(part):
            _separate(part, shapes, wanted, m + 1, divisor * q, space, out)


def _content_power_sum(lam: Partition, m: int) -> int:
    """p_m of the contents j - i of the boxes (i, j) of lam."""
    return sum((j - i) ** m for i, part in enumerate(lam) for j in range(part))


@cache
def _lagrange(group: tuple[Partition, ...], m: int):
    """The level-m split of a group of shapes of n: None when p_m is one
    value on all of them, else for each value z_j, in order of first
    appearance, its shapes, the coefficients (lowest degree first) of
    prod over i != j of (x - z_i) and their positive common divisor,
    prod over i != j of (z_j - z_i), both divided by their gcd."""
    by_value: dict[int, list[Partition]] = {}
    for lam in group:
        by_value.setdefault(_content_power_sum(lam, m), []).append(lam)
    if len(by_value) == 1:
        if m > group[0].size:
            # p_1, ..., p_n of the n contents determine them, and so the shape
            raise RuntimeError(f"shapes {[lam.parts for lam in group]} share {m} power sums")
        return None
    steps = []
    for z, shapes in by_value.items():
        coefficients, q = [1], 1
        for y in by_value:
            if y != z:
                coefficients = [a - y * b for a, b in zip([0, *coefficients], [*coefficients, 0])]
                q *= z - y
        g = gcd(q, *coefficients) * (1 if q > 0 else -1)
        steps.append((tuple(shapes), tuple(a // g for a in coefficients), q // g))
    return tuple(steps)


def _power_sum_action(v: list[int], m: int, maps) -> list[int]:
    """v acted on by p_m(X_2, ..., X_n): m moves of v by X_k for each k,
    given the position maps of each X_k's transpositions."""
    total = [0] * len(v)
    for x_k in maps:
        x = v
        for _ in range(m):
            x = _transposition_sum(x, x_k)
        total = list(map(add, total, x))
    return total


def _transposition_sum(x: list[int], maps) -> list[int]:
    """The sum of x moved by each position map."""
    get = x.__getitem__
    total = list(map(get, maps[0]))
    for g in maps[1:]:
        total = list(map(add, total, map(get, g)))
    return total
