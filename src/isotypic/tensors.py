"""The group-algebra oracles: the place-permutation action on tensors.

A SparseTensor (from `linalg`) maps index tuples over {1..d} to
rationals; a group-algebra element is the degree-n tensor over Q^n of its
image tuples.  The group of degree n acts on the right by permuting
tensor positions: on a pure tensor, acting by sigma reorders the factors
to v_{sigma(1)} x ... x v_{sigma(n)}, and the general action is the linear
extension (entry at index tuple t moves to the tuple k -> t[sigma(k)]).

`apply_algebra_element` and `operator_rank` (on the blocks of
`brute._block_space`) move index tuples by `symgroup._place_action`: they
are the group-algebra routes that the brute route is checked against.
`operator_rank` eliminates one weight block per multiplicity pattern,
since renaming the letters 1..d carries a block onto a block of equal rank.

The module also binds `symmetrize`, `decomposable`,
`nonzero_after_symmetrize`, `gram_matrix`, `generalized_matrix_function`
and `VectorConfiguration` as their home modules' own objects: the
benchmark's tracer wraps the first five by their names here, and the
acceptance tests import all six from here.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement

from .brute import _block_space
from .brute import decomposable, nonzero_after_symmetrize, symmetrize  # noqa: F401  (bound here)
from .gram import generalized_matrix_function, gram_matrix  # noqa: F401  (bound here)
from .linalg import SparseTensor, _int_rank
from .linalg import VectorConfiguration  # noqa: F401  (bound here)
from .symgroup import GroupAlgebraElement, _moved_sums, _place_action

# operator_rank builds the full d^n-dimensional space; past this it refuses.
OPERATOR_DIMENSION_CAP = 4096


def apply_algebra_element(w: SparseTensor, x: GroupAlgebraElement) -> SparseTensor:
    """Linear extension: the sum of x(sigma) * (w acted on by sigma)."""
    if x.n != w.n:
        raise ValueError(f"degree mismatch: {x.n} vs {w.n}")
    total = _moved_sums(w.numerators, x.numerators.items())
    return SparseTensor._from_integers(w.n, w.d, total, w.divisor * x.divisor)


def operator_rank(x: GroupAlgebraElement, d: int) -> int:
    """Rank of w -> apply_algebra_element(w, x) on the full tensor power.

    The position action preserves the multiset of indices, so the operator
    is block-diagonal over weights (sorted index tuples).  A renaming pi of
    the letters 1..d commutes with every place action, which moves positions
    and not letters, so the block of pi(weight) is the block of weight with
    its rows and columns renamed: weights with the same sorted multiplicities
    have blocks of equal rank, for every element, central or not.  The block
    of the first weight of each pattern is eliminated exactly, in integers
    over the positions of its _block_space, and its rank counted once per
    weight of the pattern.
    """
    n = x.n
    dimension = d**n
    if dimension > OPERATOR_DIMENSION_CAP:
        raise ValueError(f"d^n = {dimension} exceeds operator cap {OPERATOR_DIMENSION_CAP}")
    if x.is_zero():
        return 0
    # rank is unchanged by the positive divisor of the integer coefficients
    terms = [(_place_action(images), c) for images, c in x.numerators.items()]
    ranks: dict[tuple[int, ...], int] = {}
    total = 0
    for weight in combinations_with_replacement(range(1, d + 1), n):
        pattern = tuple(sorted(Counter(weight).values()))
        if pattern not in ranks:
            space = _block_space(weight)
            index = space.positions
            rows = []
            for idx in space.tuples:
                dense = [0] * len(index)
                for move, coeff in terms:
                    dense[index[move(idx)]] += coeff
                rows.append(dense)
            ranks[pattern] = _int_rank(rows)
        total += ranks[pattern]
    return total
