"""The brute route: the pure tensor projected onto the shape's isotypic part.

The route works on weight blocks, a tensor's entries on the arrangements
of one sorted index tuple, its weight, which every permutation of
positions keeps: a block is an int list over the positions of
`_block_space(weight)`.  `_pure_blocks` builds a pure tensor's blocks
straight from the integer rows, each weight the sorted tuple of one index
from each row's support; a caller skips a weight where no listed shape
can occur (Young's rule) before its block is built.  Three kernels take
blocks: `_weight_block_parts` splits each into isotypic parts by the power
sums of the Jucys-Murphy elements (`_separate`), or reads their squared
norms from Krylov moments, `_block_norms` sums those norms over the
blocks, and `_antisymmetrized_blocks` applies column antisymmetrizers.
Every move is a transposition, applied as a position map (two entries of
each index tuple swapped) that is built once per weight, on first use.

`symmetrize(cfg, lam)` and `nonzero_after_symmetrize`, the brute decider,
build lam's blocks from the rows; the decider builds none past the first
with a nonzero norm.  The harness holds a trial's blocks and calls the
kernels on them; no route splits a tensor into blocks.  `decomposable`
is the pure tensor as a `SparseTensor`, multiplied out by index tuple
(`_pure_numerators`).  The module loads only `partitions` and `linalg`,
home of `SparseTensor`, so a brute decide or `symmetrize` loads no
tensor-action or permutation code.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property
from itertools import compress
from math import gcd, lcm, prod
from operator import add, itemgetter, mul, sub
from typing import Sequence

from .linalg import SparseTensor, VectorConfiguration
from .partitions import Partition, _check_degree, _check_shape_size, partitions_of


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
    _check_shape_size(lam, cfg.n)
    _check_degree(cfg.n)


def decomposable(cfg: VectorConfiguration) -> SparseTensor:
    """The pure tensor of the configuration, zero iff some vector is zero: the
    products of the integer rows over the product of the scales."""
    if cfg.n < 1:
        raise ValueError("need at least one vector")
    return SparseTensor._from_integers(cfg.n, cfg.dim, _pure_numerators(cfg.rows), prod(cfg.scales))


def symmetrize(cfg: VectorConfiguration, lam: Partition) -> SparseTensor:
    """Apply the character projector for lam to the pure tensor of cfg:
    apply_algebra_element(decomposable(cfg), central_idempotent(lam)), each
    weight block's lam-part (_weight_block_parts) brought to one divisor."""
    _check_pure_tensor(cfg, lam)
    blocks = _pure_blocks(cfg.rows, _occurs([lam]))
    parts = [part for part, in _weight_block_parts(blocks, [lam])]
    divisor = lcm(*(q for _, q in parts))
    entries = {idx: c * (divisor // q) for part, q in parts for idx, c in part.items()}
    return SparseTensor._from_integers(cfg.n, cfg.dim, entries, divisor * prod(cfg.scales))


def nonzero_after_symmetrize(cfg: VectorConfiguration, lam: Partition) -> bool:
    """Exact zero test of the symmetrized pure tensor (the brute-force
    decider): True at the first weight block whose part has a nonzero
    squared norm, read as _block_norms reads it."""
    _check_pure_tensor(cfg, lam)
    blocks = _pure_blocks(cfg.rows, _occurs([lam]))
    return any(norm for (norm, _), in _weight_block_parts(blocks, [lam], norms=True))


def _block_norms(blocks, shapes: Sequence[Partition]) -> tuple[list[int], int]:
    """The squared norms of the parts of the tensor with these weight blocks,
    by _weight_block_parts: for each shape an integer, and one positive
    divisor common to all.  The blocks are orthogonal, so each shape's norm
    sums its blocks' norms."""
    norms = list(_weight_block_parts(blocks, shapes, norms=True))
    divisor = lcm(*(q for parts in norms for _, q in parts))
    out = [sum(c * (divisor // q) for c, q in column) for column in zip(*norms)]
    return out or [0] * len(shapes), divisor


def _weight_block_parts(blocks, shapes: Sequence[Partition], norms: bool = False):
    """For each (weight, space, block) of blocks where some listed shape can
    occur (by _young_candidates), each listed shape's part of the block,
    found by _separate level by level, as nonzero integer entries over a
    positive divisor, or with norms its squared norm over a divisor."""
    listed = set(shapes)
    for weight, space, v in blocks:
        candidates = _young_candidates(weight)
        wanted = listed.intersection(candidates)
        if not wanted:
            continue
        parts: dict[Partition, tuple] = {}
        _separate(v, candidates, wanted, 1, 1, space, parts, norms)
        if not norms:
            parts = {
                lam: (dict(compress(zip(space.tuples, part), part)), q)
                for lam, (part, q) in parts.items()
            }
        yield [parts.get(lam, (0 if norms else {}, 1)) for lam in shapes]


def _antisymmetrized_blocks(blocks, positions: Sequence[Sequence[int]]):
    """The nonzero (weight, space, block) of blocks, each block acted on, for
    each increasing list b_1 < ... < b_h of disjoint positions, by
    (1 - X_2) ... (1 - X_h) with X_k = sum over i < k of (b_i b_k): the
    signed sum over the permutations of the positions, applied by the
    position maps of the block's space."""
    for weight, space, v in blocks:
        for block in positions:
            for k in range(1, len(block)):
                x_k = [space.maps[block[k] - 2][a - 1] for a in block[:k]]
                v = list(map(sub, v, _transposition_sum(v, x_k)))
        if any(v):
            yield weight, space, v


def _occurs(shapes: Sequence[Partition]):
    """The test whether some listed shape can occur in a weight's block."""
    listed = set(shapes)
    return lambda weight: not listed.isdisjoint(_young_candidates(weight))


def _pure_blocks(rows, keep=lambda weight: True):
    """For each weight of the pure tensor of the integer rows that keep
    accepts, in lexicographic order and before its _block_space is built:
    the weight, the space and the block, the product of the rows' entries
    at each arrangement.  The weights are the sorted tuples of one index
    from each row's support, so no block is zero, and there is none when
    some row is zero."""
    weights = {()}
    for row in rows:
        support = [i + 1 for i, c in enumerate(row) if c]
        weights = {tuple(sorted((*w, i))) for w in weights for i in support}
    for weight in sorted(weights):
        if keep(weight):
            space = _block_space(weight)
            entries = zip(*(read(row) for read, row in zip(space.readers, rows)))
            yield weight, space, list(map(prod, entries))


@cache
def _young_candidates(weight: tuple[int, ...]) -> tuple[Partition, ...]:
    """The shapes of the permutation module of a sorted index tuple: those
    that dominate its multiplicities (Young's rule), so at most d rows."""
    mu = Partition(sorted(Counter(weight).values(), reverse=True))
    return tuple(lam for lam in partitions_of(len(weight)) if lam.dominates(mu))


class _BlockSpace:
    """The index tuples of one weight on fixed positions: `tuples`, the
    weight's arrangements in lexicographic order, `positions` by tuple,
    and, built on first use, `maps` by _transposition_maps and `readers`,
    for each position p, the map from an integer row to its entries at the
    p-th index of each arrangement."""

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

    @cached_property
    def readers(self) -> tuple:
        if len(self.tuples) == 1:
            # itemgetter with one index returns the item, not a 1-tuple
            return tuple(itemgetter(slice(i - 1, i)) for i in self.tuples[0])
        return tuple(itemgetter(*(i - 1 for i in column)) for column in zip(*self.tuples))


_block_space = cache(_BlockSpace)  # the space of a sorted index tuple, built once


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
              space: _BlockSpace, out: dict, norms: bool = False) -> None:
    """Put in out, for each wanted shape of group, its part of v / divisor as
    (values over the positions of space, divisor), or with norms as (its
    squared norm, a divisor), where v lies in the isotypic parts of the
    shapes of group, which share their content power sums p_1, ..., p_(m-1).

    p_m(X_2, ..., X_n), for the Jucys-Murphy elements X_k = sum over i < k
    of (i k), is central and acts on the lam-isotypic part by
    p_m(contents of lam).  With k distinct values z_j on group, the part of
    value z_j is P_j v, for P_j = prod over i != j of (Z - z_i) / (z_j - z_i),
    a combination of the Krylov vectors v, Zv, ..., Z^(k-1)v.  A value held
    by two or more shapes is split again at level m + 1.  Z is a sum of
    involutions' position maps, so self-adjoint, and P_j an orthogonal
    projection: a norm is <v, P_j v>, read from the moments <v, Z^a v> =
    <Z^(a//2) v, Z^(a - a//2) v>, which need only k//2 Krylov steps when no
    wanted value is split again.
    """
    if len(group) == 1:
        out[group[0]] = (sum(map(mul, v, v)), divisor * divisor) if norms else (v, divisor)
        return
    steps = _lagrange(group, m)
    if steps is None:
        _separate(v, group, wanted, m + 1, divisor, space, out, norms)
        return
    formed = any(len(s) > 1 or not norms for s, _, _ in steps if not wanted.isdisjoint(s))
    krylov = [v]
    for _ in range(len(steps) - 1 if formed else len(steps) // 2):
        krylov.append(_power_sum_action(krylov[-1], m, space.maps))
    if norms:
        moments = [sum(map(mul, krylov[a // 2], krylov[a - a // 2])) for a in range(len(steps))]
    for shapes, coefficients, q in steps:
        if wanted.isdisjoint(shapes):
            continue
        if norms and len(shapes) == 1:
            out[shapes[0]] = (sum(map(mul, coefficients, moments)), q * divisor * divisor)
            continue
        part = [0] * len(v)
        for a, x in zip(coefficients, krylov):
            if a:
                part = list(map(add, part, map(a.__mul__, x)))
        if any(part):
            _separate(part, shapes, wanted, m + 1, divisor * q, space, out, norms)


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
