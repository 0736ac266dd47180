"""Seeded decide inputs whose answers are known by construction.

The generator never calls the library, so a library change can move
neither the inputs nor the expected verdicts.

Every configuration is a list of points in general position (any d
distinct points are linearly independent), each repeated with a chosen
multiplicity, each copy scaled by its own nonzero rational.  For such a
configuration the largest union of k independent sets has size

    f(k) = min(k*d, n - sum over the d-1 largest multiplicities m of max(0, m-k))

by the matroid-union min-formula: a flat of rank r < d holds the copies of
exactly r points, so only the whole set or the copies of at most d-1
points can attain the minimum.  The rank partition is rho_k = f(k) - f(k-1)
and a shape appears iff it dominates the conjugate of rho (Dias da Silva).

Plane crowds are the exception: all but two vectors lie in a plane of Q^3,
and the shape (n-6, 3, 3) needs three independent blocks of size three,
each of which must hold a vector off the plane, so it never appears.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Case:
    """One decide call: method, configuration, shape and expected verdict."""

    label: str
    method: str
    dim: int
    vectors: tuple[tuple[Fraction, ...], ...]
    shape: tuple[int, ...]
    expected: bool
    rho: tuple[int, ...] | None = None  # the rank partition, where known

    def config_json(self) -> dict:
        return {"dim": self.dim, "vectors": [[str(e) for e in v] for v in self.vectors]}

    def shape_text(self) -> str:
        return ",".join(str(p) for p in self.shape)


# Each row: method, n, d, kind, parameter, expected verdict, copies.
#   kind "sparse": basis vectors plus `parameter` copies of dense points, so
#     the pure tensor has support d**parameter and the n!-term sum has a
#     fixed size on every seed;
#   kind "moment": `parameter` distinct moment-curve points;
#   kind "crowd": a plane crowd with shape (n-6, 3, 3).
# The factorial grid has three tiers: eight gram calls at n=7 (about 0.3 s
# each), two brute calls at n=7, d=3 (0.5-0.7 s), and twelve calls of
# 1.1-1.5 s (gram at n=8, brute at n=7, d=2 and n=8, d=2).  Both the median
# and the tail rank (the 12th of 22) fall at the bottom of the third tier,
# among calls of nearly equal cost, so they do not jump between tiers.
FACTORIAL_GRID = (
    ("brute", 7, 2, "sparse", 3, True, 1),
    ("brute", 7, 2, "sparse", 3, False, 1),
    ("brute", 7, 3, "sparse", 2, True, 1),
    ("brute", 7, 3, "sparse", 3, False, 1),
    ("brute", 8, 2, "sparse", 2, True, 1),
    ("brute", 8, 2, "sparse", 2, False, 1),
    ("gram", 7, 2, "sparse", 7, True, 2),
    ("gram", 7, 2, "sparse", 7, False, 2),
    ("gram", 7, 3, "sparse", 7, True, 2),
    ("gram", 7, 3, "sparse", 7, False, 2),
    ("gram", 8, 2, "sparse", 8, True, 2),
    ("gram", 8, 2, "sparse", 8, False, 2),
    ("gram", 8, 3, "sparse", 8, True, 2),
    ("gram", 8, 3, "sparse", 8, False, 2),
)

MATROID_GRID = (
    ("dominance", 40, 4, "moment", 20, True, 2),
    ("dominance", 40, 4, "moment", 20, False, 1),
    ("dominance", 60, 5, "moment", 30, True, 1),
    ("dominance", 60, 5, "moment", 30, False, 2),
    ("dominance", 80, 6, "moment", 40, True, 2),
    ("dominance", 80, 6, "moment", 40, False, 1),
    ("dominance", 100, 7, "moment", 50, True, 1),
    ("dominance", 100, 7, "moment", 50, False, 1),
    ("dominance", 120, 8, "moment", 60, False, 1),
    ("dominance", 160, 8, "moment", 80, True, 1),
    ("gamas", 14, 3, "moment", 10, True, 1),
    ("gamas", 16, 3, "moment", 12, True, 1),
    ("gamas", 18, 3, "moment", 13, True, 1),
    ("gamas", 20, 3, "moment", 15, True, 1),
    ("gamas", 20, 3, "moment", 16, True, 1),
    ("gamas", 13, 3, "crowd", 0, False, 1),
    ("gamas", 14, 3, "crowd", 0, False, 2),
    ("gamas", 15, 3, "crowd", 0, False, 1),
    ("gamas", 16, 3, "crowd", 0, False, 1),
    ("gamas", 17, 3, "crowd", 0, False, 1),
)


def rank(rows) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(e) for e in r] for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def conjugate(parts) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0))


def dominates(lam, mu) -> bool:
    """lam >= mu in dominance order (equal sizes assumed)."""
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def rank_partition(multiplicities, d: int) -> tuple[int, ...]:
    """rho for copies of points in general position in Q^d (module docstring)."""
    m = sorted(multiplicities, reverse=True)
    n = sum(m)
    rho, covered, k = [], 0, 0
    while covered < n:
        k += 1
        f = min(k * d, n - sum(max(0, x - k) for x in m[: d - 1]))
        rho.append(f - covered)
        covered = f
    return tuple(rho)


def _move_box(rng: random.Random, parts, down: bool) -> tuple[int, ...]:
    """Move one box to a lower row (down) or a higher row (up), keeping a
    partition; down gives a shape strictly below in dominance order."""
    moves = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts) + 1) if down else range(i):
            new = list(parts) + [0]
            new[i] -= 1
            new[j] += 1
            if all(a >= b for a, b in zip(new, new[1:])):
                moves.append(tuple(p for p in new if p))
    return rng.choice(moves) if moves else tuple(parts)


def _shape(rng: random.Random, rho, appears: bool) -> tuple[int, ...]:
    """A shape that dominates conj(rho) (appears) or lies strictly below it."""
    base = conjugate(rho)
    shape = base
    for _ in range(rng.randint(0 if appears else 1, 2)):
        shape = _move_box(rng, shape, down=not appears)
    if dominates(shape, base) != appears:
        raise ValueError(f"no shape with verdict {appears} against {base}")
    return shape


def _scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 3))


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _general_points(rng: random.Random, fixed, count: int, d: int):
    """count points with no zero entry, in general position together with fixed."""
    points = list(fixed)
    while len(points) < len(fixed) + count:
        candidate = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(d))
        k = min(d, len(points) + 1)
        if all(rank(s + (candidate,)) == k for s in itertools.combinations(points, k - 1)):
            points.append(candidate)
    return points[len(fixed):]


def _layout(rng: random.Random, mults) -> list[int]:
    """The point behind each position: every point's copies, shuffled."""
    order = [i for i, m in enumerate(mults) for _ in range(m)]
    rng.shuffle(order)
    return order


def _vectors(rng: random.Random, points, order) -> tuple[tuple[Fraction, ...], ...]:
    """Each position gets its point times a nonzero rational of its own."""
    return tuple(tuple(c * e for e in points[i])
                 for i, c in zip(order, [_scalar(rng) for _ in order]))


def _crowd_points(rng: random.Random, n: int):
    """n - 2 points in general position in a plane of Q^3, then two off it,
    such that no plane point lies in the span of the two."""
    while True:
        u, w, a, b = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(4))
        if rank([u, w]) != 2 or rank([u, w, a]) != 3 or rank([u, w, b]) != 3:
            continue
        ts = rng.sample(range(-3 * n, 3 * n + 1), n - 2)
        plane = [tuple(x + t * y for x, y in zip(u, w)) for t in ts]
        if all(rank([a, b, p]) == 3 for p in plane):
            return plane + [tuple(a), tuple(b)]


def _case(layout_rng, value_rng, method, n, d, kind, param, expected, label) -> Case:
    if kind == "crowd":
        order = _layout(layout_rng, [1] * n)
        return Case(label, method, d, _vectors(value_rng, _crowd_points(value_rng, n), order),
                    (n - 6, 3, 3), expected)
    if kind == "sparse":
        # basis points carry n - param copies, dense points the other param
        dense = min(param, layout_rng.randint(d, d + 3))
        on_basis = n - param
        mults = _composition(layout_rng, on_basis, min(d, on_basis)) if on_basis else []
        mults += _composition(layout_rng, param, dense)
        basis = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        points = basis[: len(mults) - dense] + _general_points(value_rng, basis, dense, d)
    else:
        mults = _composition(layout_rng, n, param)
        ts = value_rng.sample([t for t in range(-2 * param, 2 * param + 1) if t], param)
        points = [tuple(t**i for i in range(d)) for t in ts]
    order = _layout(layout_rng, mults)
    rho = rank_partition(mults, d)
    shape = _shape(layout_rng, rho, expected)
    return Case(label, method, d, _vectors(value_rng, points, order), shape, expected, rho)


def cases(grid, seed: int) -> list[Case]:
    """The grid's decide calls for this seed; the same seed gives the same list.

    The seed draws the numbers only.  Multiplicities, the order of the
    copies and the shapes are the same on every seed, and the points are in
    general position, so every seed poses the same combinatorial problem
    (the same matroid, the same search tree) and a run's work does not
    depend on the seed.
    """
    layout_rng = random.Random("isotypic-bench-layout")
    value_rng = random.Random(f"isotypic-bench:{seed}")
    out = []
    for method, n, d, kind, param, expected, copies in grid:
        for _ in range(copies):
            label = f"{len(out):02d}-{method}-n{n}-d{d}-{kind}-{'yes' if expected else 'no'}"
            out.append(_case(layout_rng, value_rng, method, n, d, kind, param, expected, label))
    return out


def certificate_ok(case: Case, blocks) -> bool:
    """Disjoint independent blocks covering 1..n with the conjugate size profile."""
    n = len(case.vectors)
    flat = sorted(i for block in blocks for i in block)
    if flat != list(range(1, n + 1)):
        return False
    if tuple(sorted((len(b) for b in blocks), reverse=True)) != conjugate(case.shape):
        return False
    return all(rank([case.vectors[i - 1] for i in b]) == len(b) for b in blocks)


def scaling_ladder(kind: str):
    """Fixed inputs of the scaling probe, one per rung: (n, case), independent
    of the run's seed.

    rank_partition: moment-curve points in Q^8, n/2 distinct points.
    gamas_condition: plane crowds with shape (n-6, 3, 3), which have no
    certificate, so the backtracking search explores its whole tree.
    """
    rng = random.Random(f"isotypic-bench-ladder:{kind}")
    if kind == "rank_partition":
        for n in (40, 60, 80, 100, 120, 140, 160, 200, 240, 320):
            yield n, _case(rng, rng, "dominance", n, 8, "moment", n // 2, True, f"ladder-{n}")
    else:
        for n in range(10, 31):
            yield n, _case(rng, rng, "gamas", n, 3, "crowd", 0, False, f"ladder-{n}")
