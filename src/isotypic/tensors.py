"""Tensor powers of Q^d, the place-permutation action, and symmetrization.

A SparseTensor (defined in `linalg`, bound here) maps index tuples over
{1..d} to rationals; a group-algebra element is the degree-n tensor over
Q^n of its image tuples.  The group of degree n acts on the right by
permuting tensor positions: on a pure tensor, acting by sigma reorders
the factors to v_{sigma(1)} x ... x v_{sigma(n)}, and the general action
is the linear extension (entry at index tuple t moves to the tuple
k -> t[sigma(k)]).

`apply_algebra_element` and `operator_rank` (on the blocks of
`brute._block_space`) move index tuples by `symgroup._place_action`: they
are the group-algebra routes that the brute route is checked against.
`symmetrize` is the pure tensor's view of `brute.symmetrized_sums`.
`nonzero_after_symmetrize`, `gram_matrix` and `generalized_matrix_function`
are re-exported here as the `brute` and `gram` modules' own objects, which
the benchmark's tracer wraps.

Rationals become integers only in `linalg`: a configuration's `rows` are
the vectors scaled by the lcm of their denominators, its `scales`, and a
tensor keeps int numerators over one divisor.  `decomposable` multiplies
the rows over the product of the scales, and the kernels sum numerators
in `int` and multiply divisors.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import prod

from .brute import _block_space, _check_pure_tensor, _pure_numerators, symmetrized_sums
from .brute import nonzero_after_symmetrize  # noqa: F401  (re-exported)
from .gram import generalized_matrix_function, gram_matrix  # noqa: F401  (re-exported)
from .linalg import SparseTensor, VectorConfiguration, rank_of_rows
from .partitions import Partition
from .symgroup import GroupAlgebraElement, _moved_sums, _place_action

# operator_rank builds the full d^n-dimensional space; past this it refuses.
OPERATOR_DIMENSION_CAP = 4096


def decomposable(cfg: VectorConfiguration) -> SparseTensor:
    """The pure tensor of the configuration, zero iff some vector is zero: the
    products of the integer rows over the product of the scales."""
    if cfg.n < 1:
        raise ValueError("need at least one vector")
    return SparseTensor._from_integers(cfg.n, cfg.dim, _pure_numerators(cfg.rows), prod(cfg.scales))


def apply_algebra_element(w: SparseTensor, x: GroupAlgebraElement) -> SparseTensor:
    """Linear extension: the sum of x(sigma) * (w acted on by sigma)."""
    if x.n != w.n:
        raise ValueError(f"degree mismatch: {x.n} vs {w.n}")
    total = _moved_sums(w.numerators, x.numerators.items())
    return SparseTensor._from_integers(w.n, w.d, total, w.divisor * x.divisor)


def symmetrize(cfg: VectorConfiguration, lam: Partition) -> SparseTensor:
    """Apply the character projector for lam to the pure tensor of cfg:
    apply_algebra_element(decomposable(cfg), central_idempotent(lam)), as
    the one-shape view of brute.symmetrized_sums."""
    _check_pure_tensor(cfg, lam)
    (entries,), divisor = symmetrized_sums(decomposable(cfg), [lam])
    return SparseTensor._from_integers(cfg.n, cfg.dim, entries, divisor)


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
        raise ValueError(f"d^n = {dimension} exceeds operator cap {OPERATOR_DIMENSION_CAP}")
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
