"""Tensor powers of Q^d, the place-permutation action, and symmetrization.

A SparseTensor maps index tuples over {1..d} to rationals.  The group of
degree n acts on the right by permuting tensor positions: on a pure
tensor, acting by sigma reorders the factors to v_{sigma(1)} x ... x
v_{sigma(n)}, and the general action is the linear extension (entry at
index tuple t moves to the tuple k -> t[sigma(k)]).

Every function that moves index tuples under sigma gets the move from
`symgroup._place_action`.  `apply_algebra_element` adds the moved tensors
up in `symgroup._moved_sums`.  `symmetrized_sums(w, shapes)` applies the
central idempotents of a list of shapes to w without walking the
permutations: the power sums p_m(X_2, ..., X_n) of the Jucys-Murphy
elements X_k = sum over i < k of (i k) are central and act on the
lam-isotypic part by p_m(contents of lam), and the contents determine
lam.  w is split into weight blocks (one sorted index tuple each), whose
shapes are those that dominate the weight (Young's rule).  Each block is
written as an int list over the fixed positions of `_block_space(weight)`,
the weight's index tuples, and split into its isotypic parts by Lagrange
combinations of the Krylov vectors v, Zv, Z^2 v, ... for Z = p_1(X), then
p_2(X), ..., until every listed shape stands alone.  Every move is a
transposition, applied as a position map that the block space builds
once, on first use, with `_place_action`; the parts become index-tuple
entries again only at the end.  `antisymmetrized`, which applies column
antisymmetrizers as products (1 - X_2) ... (1 - X_h) over each column's
positions, and `operator_rank` take their blocks from the same spaces.
`matrix_function_sums(a, shapes)` walks no permutations either: it sums
the products prod_i a[i][sigma(i)] by cycle type from the cycle sums of
the subsets of the rows (Held-Karp path sums, `_cycle_sums`), combined
over set partitions (`_class_sums`), in about 2^n n^2 + 3^n integer
steps, and weights the class sums by every shape's character from
`characters.character_table`.  The two routes share no code.
`symmetrize` (on the pure tensor) and `generalized_matrix_function` are
their one-shape views.

A configuration becomes integers in one place, `linalg.VectorConfiguration`:
its `rows` are the vectors scaled by the lcm of their denominators, its
`scales`.  A tensor, an algebra element and a `linalg.Matrix` keep the
integer form their sums use: `decomposable` multiplies the rows over the
product of the scales, `gram_matrix` keeps their int dot products, and
the kernels sum numerators in `int` and multiply divisors.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations_with_replacement, compress
from math import gcd, lcm, prod
from operator import add, sub
from typing import Iterable, Mapping, Sequence

from .linalg import Matrix, VectorConfiguration, as_vector, integer_scaled, lowest_terms
from .linalg import rank_of_rows
from .partitions import Partition, _integers, partitions_of
from .symgroup import DEGREE_CAP, GroupAlgebraElement, _moved_sums, _place_action

# operator_rank builds the full d^n-dimensional space; past this it refuses.
OPERATOR_DIMENSION_CAP = 4096


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
        values, scale = integer_scaled(as_vector(entries.values()))
        self.n, self.d = n, d
        self.numerators, self.divisor = lowest_terms(dict(zip(keys, values)), scale)

    @classmethod
    def _from_integers(cls, n: int, d: int, numerators: dict, divisor: int) -> "SparseTensor":
        """The tensor with the entries numerators / divisor by index tuple."""
        w = cls(n, d)
        w.numerators, w.divisor = lowest_terms(numerators, divisor)
        return w

    @property
    def entries(self) -> dict[tuple[int, ...], Fraction]:
        return {idx: Fraction(c, self.divisor) for idx, c in self.numerators.items()}

    def is_zero(self) -> bool:
        return not self.numerators

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseTensor)
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


def decomposable(cfg: VectorConfiguration) -> SparseTensor:
    """The pure tensor of the configuration, zero iff some vector is zero: the
    products of the integer rows over the product of the scales."""
    if cfg.n < 1:
        raise ValueError("need at least one vector")
    entries: dict[tuple[int, ...], int] = {(): 1}
    for row in cfg.rows:
        support = [(i + 1, c) for i, c in enumerate(row) if c]
        if not support:
            return SparseTensor(cfg.n, cfg.dim)
        entries = {
            idx + (i,): val * c for idx, val in entries.items() for i, c in support
        }
    return SparseTensor._from_integers(cfg.n, cfg.dim, entries, prod(cfg.scales))


def apply_algebra_element(w: SparseTensor, x: GroupAlgebraElement) -> SparseTensor:
    """Linear extension: the sum of x(sigma) * (w acted on by sigma)."""
    if x.n != w.n:
        raise ValueError(f"degree mismatch: {x.n} vs {w.n}")
    total = _moved_sums(w.numerators, x.numerators.items())
    return SparseTensor._from_integers(w.n, w.d, total, w.divisor * x.divisor)


def symmetrized_sums(
    w: SparseTensor, shapes: Sequence[Partition]
) -> tuple[list[dict[tuple[int, ...], int]], int]:
    """The central idempotents of the shapes applied to w: for each shape its
    nonzero integer entries, and one divisor common to all, so that entries
    / divisor is apply_algebra_element(w, central_idempotent(shape)).

    Each weight block of w is split into its isotypic parts by
    _weight_block_parts, and each shape's parts are brought to one divisor.
    """
    for lam in shapes:
        if lam.size != w.n:
            raise ValueError(f"shape size {lam.size} does not match degree {w.n}")
    blocks = list(_weight_block_parts(w, shapes))
    divisor = lcm(*(q for parts in blocks for _, q in parts))
    out: list[dict[tuple[int, ...], int]] = [{} for _ in shapes]
    for parts in blocks:
        for total, (entries, q) in zip(out, parts):
            scale = divisor // q
            for idx, c in entries.items():
                total[idx] = c * scale
    return out, divisor * w.divisor


def _weight_block_parts(w: SparseTensor, shapes: Sequence[Partition]):
    """For each weight block of w where some listed shape can occur (by
    _young_candidates), each listed shape's part of the block's numerators,
    found by _separate level by level, as nonzero integer entries over a
    positive divisor."""
    listed = set(shapes)
    occurs = lambda weight: not listed.isdisjoint(_young_candidates(weight))
    for weight, space, v in _position_blocks(w, occurs):
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
    for _, space, v in _position_blocks(w):
        for block in blocks:
            for k in range(1, len(block)):
                x_k = [space.maps[block[k] - 2][a - 1] for a in block[:k]]
                v = list(map(sub, v, _transposition_sum(v, x_k)))
        total.update(compress(zip(space.tuples, v), v))
    return SparseTensor._from_integers(w.n, w.d, total, w.divisor)


def _position_blocks(w: SparseTensor, keep=lambda weight: True):
    """For each weight block of w (its entries with one sorted index tuple)
    whose weight keep accepts, before its _block_space is built: the weight,
    the space and the block's numerators as an int list over its positions."""
    blocks: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for idx, c in w.numerators.items():
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
    i < k, of X_k: at each position, the position of its tuple moved by
    the place action (an involution, so either direction)."""
    n = len(tuples[0])
    out = []
    for k in range(2, n + 1):
        maps = []
        for i in range(1, k):
            images = list(range(1, n + 1))
            images[i - 1], images[k - 1] = k, i
            moved = map(_place_action(tuple(images)), tuples)
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


def _pure_tensor(cfg: VectorConfiguration, lam: Partition) -> SparseTensor:
    """decomposable(cfg), after the shape size and the degree (1..DEGREE_CAP)
    are checked, before the d^n-entry tensor is built."""
    if lam.size != cfg.n:
        raise ValueError(f"shape size {lam.size} does not match {cfg.n} vectors")
    if cfg.n < 1:
        raise ValueError("n must be at least 1")
    if cfg.n > DEGREE_CAP:
        raise ValueError(f"degree {cfg.n} exceeds cap {DEGREE_CAP}")
    return decomposable(cfg)


def symmetrize(cfg: VectorConfiguration, lam: Partition) -> SparseTensor:
    """Apply the character projector for lam to the pure tensor of cfg.

    Equals apply_algebra_element(decomposable(cfg), central_idempotent(lam));
    the one-shape view of symmetrized_sums.
    """
    (entries,), divisor = symmetrized_sums(_pure_tensor(cfg, lam), [lam])
    return SparseTensor._from_integers(cfg.n, cfg.dim, entries, divisor)


def nonzero_after_symmetrize(cfg: VectorConfiguration, lam: Partition) -> bool:
    """Exact zero test of the symmetrized pure tensor (the brute-force
    decider): True at the first weight block with a nonzero part."""
    return any(entries for (entries, _), in _weight_block_parts(_pure_tensor(cfg, lam), [lam]))


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
    subsets of the rows, and no permutation is walked.
    """
    n = a.nrows
    if a.ncols != n:
        raise ValueError(f"matrix must be square, got {a.nrows}x{a.ncols}")
    for lam in shapes:
        if lam.size != n:
            raise ValueError(f"shape size {lam.size} does not match matrix size {n}")
    if not shapes:
        raise ValueError("need at least one shape")
    from .characters import character_table  # gram only: brute processes never load it

    table = character_table(n)
    # d_chi(DA) = det(D) d_chi(A) for diagonal D, as each term takes one
    # entry from every row
    class_sums = _class_sums(_cycle_sums(a.numerators))
    sums = [class_sums.get(rho.parts, 0) for rho in table.classes]
    values = [sum(chi * p for chi, p in zip(table.rows[lam], sums) if p) for lam in shapes]
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


def operator_rank(x: GroupAlgebraElement, d: int) -> int:
    """Rank of w -> apply_algebra_element(w, x) on the full tensor power.

    The position action preserves the multiset of indices, so the operator
    is block-diagonal over index contents; the rank is computed block by
    block, over the positions of each weight's _block_space, with exact
    elimination.
    """
    n = x.n
    dimension = d**n
    if dimension > OPERATOR_DIMENSION_CAP:
        raise ValueError(
            f"d^n = {dimension} exceeds operator cap {OPERATOR_DIMENSION_CAP}"
        )
    if x.is_zero():
        return 0
    # rank is unchanged by the positive divisor of the integer coefficients
    terms = [(_place_action(images), c) for images, c in x.numerators.items()]
    total = 0
    for weight in combinations_with_replacement(range(1, d + 1), n):
        space = _block_space(weight)
        index = space.positions
        rows = []
        for idx in space.tuples:
            dense = [0] * len(index)
            for move, coeff in terms:
                dense[index[move(idx)]] += coeff
            rows.append(dense)
        total += rank_of_rows(rows)
    return total
