"""Brute-force reference implementations used to derive expected values.

Everything here is deliberately naive and independent of the library's
code paths: enumeration instead of formulas, plain rational Gaussian
elimination instead of fraction-free pivoting.  `reference_algebra_multiply`,
`reference_generalized_matrix_function` and `reference_apply_algebra_element`
are the library's earlier routes, kept as references: they sum `Fraction`
values, where the library sums integer numerators in `int` over one divisor.
`per_shape_symmetrize` and `per_shape_generalized_matrix_function` are
the earlier one-shape-per-walk routes, walking `character_terms`, which
the library's class sums shared by every shape are checked against.
`character_walk` is the library's earlier multi-shape walk over
`permutations_with_class`, by class slot (listed once per degree by
`class_stream`), and the earlier routes of both
deciders for every shape at once walk it once:
`reference_symmetrized_sums` sums the moved tensor per walked class (the
multi-slot loop `_slot_sums`), where the library now projects each weight
block with Jucys-Murphy elements, and `reference_matrix_function_sums`
sums prod_i a[i][sigma(i)] per walked class, where the library now finds
the class sums over subsets of the rows; both weight the class sums by
each shape's character.
`reference_rank_partition` is the earlier matroid-partition route, which
explores the whole exchange graph on every augmenting search, and
`reference_gamas_condition` the earlier backtracking search for Gamas's
certificate, which the library now gets from the same engine.
`vertical_strips` serves the Pieri check of the Weyl dimension,
`all_permutations` is the order reference for the library's permutation
stream, `_lexicographic_classes` the library's earlier route to the class
of each permutation, a memoized recursion over prefix states that walks
no cycles, which the library's one cycle walk per permutation is checked
against, and `permuted` reorders vector lists without the place-action
kernel, the independent route the action tests compare against.
`reference_transposition_maps` is the brute route's earlier route to its
position maps, one `_place_action` per transposition, which the library's
swap of two entries of each index tuple is checked against.
`reference_operator_rank` is the earlier route of `operator_rank`, which
eliminates every weight block, where the library eliminates one block per
pattern of multiplicities.
`reference_block_sum` is the earlier route of the row, column and subset
symmetrizers: a `Permutation` per block permutation, its sign read by
`perm.sign` (a cycle walk and a `Partition`), and the rational constructor.
`tensor_sum` and `tensor_inner` are the linear combinations and the dot
product of tensors, which the library no longer offers.
`character_fault`, `engine_fault`, `rank_fault`, `content_fault`,
`position_map_fault`, `class_sum_fault`, `cycle_sum_fault` and
`strip_sign_fault` are the deliberate breakages: they flip a character
value, take the exchanges out of the matroid-partition engine, read every
rank 3 of the engine's rank oracle as 2, put one shape's content power
sums off by one in the brute route's projector, give the projector the
identity's position map for the transposition (1 2), drop one cycle
type's class sum from the gram route, put one cycle sum of the gram route
off by one, or flip the sign of every border strip of height 3 or more,
so tests can see the harness notice.
"""

from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial, prod
from typing import Optional

import isotypic.brute as brute_module
import isotypic.characters as characters
import isotypic.gram as gram_module
import isotypic.matroid as matroid_module
from isotypic.brute import _block_space, decomposable
from isotypic.linalg import (
    Matrix,
    SparseTensor,
    VectorConfiguration,
    integer_scaled,
    rank_of_rows,
)
from isotypic.matroid import BlockCertificate, LinearMatroid, validate_certificate
from isotypic.partitions import Partition, partitions_of
from isotypic.symgroup import (
    OPERATOR_DIMENSION_CAP,
    GroupAlgebraElement,
    Permutation,
    _moved_sums,
    _place_action,
    compose,
)


def brute_partitions(n):
    """All weakly decreasing positive tuples summing to n, by filtering
    compositions."""
    if n == 0:
        return [()]
    found = set()

    def compositions(remaining, prefix):
        if remaining == 0:
            if all(a >= b for a, b in zip(prefix, prefix[1:])):
                found.add(prefix)
            return
        for first in range(1, remaining + 1):
            compositions(remaining - first, prefix + (first,))

    compositions(n, ())
    return sorted(found, reverse=True)


def brute_standard_tableaux(shape):
    """All standard fillings of the shape, grown cell by cell."""
    shape = tuple(shape)
    n = sum(shape)
    results = []

    def grow(filled, value):
        if value > n:
            results.append(tuple(tuple(row) for row in filled))
            return
        for i, width in enumerate(shape):
            row = filled[i]
            j = len(row)
            if j >= width:
                continue
            if i > 0 and len(filled[i - 1]) <= j:
                continue
            row.append(value)
            grow(filled, value + 1)
            row.pop()

    grow([[] for _ in shape], 1)
    return results


def brute_ssyt_count(shape, d):
    """Count semistandard fillings with entries at most d, by brute filling."""
    shape = tuple(shape)
    if not shape:
        return 1
    count = 0

    def grow(rows, i, j):
        nonlocal count
        if i == len(shape):
            count += 1
            return
        lo = 1
        if j > 0:
            lo = rows[i][j - 1]
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, d + 1):
            rows[i].append(v)
            if j + 1 == shape[i]:
                grow(rows, i + 1, 0)
            else:
                grow(rows, i, j + 1)
            rows[i].pop()

    grow([[] for _ in shape], 0, 0)
    return count


def is_vertical_strip(mu, lam):
    """lam/mu adds at most one box per row (lam, mu plain tuples)."""
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    if len(lam) < len(tuple(p for p in mu if p)):
        return False
    lam = tuple(lam) + (0,) * (len(mu) - len(lam))
    return all(0 <= a - b <= 1 for a, b in zip(lam, mu))


def vertical_strips(mu: Partition, k: int, max_rows: int) -> list[Partition]:
    """Shapes obtained from mu by adding k boxes, at most one per row.

    Results have at most max_rows rows and are returned in
    reverse-lexicographic order.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if len(mu) > max_rows:
        return []
    nrows = min(max_rows, len(mu) + k)
    padded = list(mu.parts) + [0] * (nrows - len(mu))
    found = []
    for rows in combinations(range(nrows), k):
        parts = padded[:]
        for i in rows:
            parts[i] += 1
        if all(a >= b for a, b in zip(parts, parts[1:])):
            found.append(tuple(p for p in parts if p > 0))
    found.sort(reverse=True)
    return [Partition(p) for p in found]


def all_permutations(n):
    """All n! permutations, lexicographic by image tuple."""
    return (Permutation(images) for images in permutations(range(1, n + 1)))


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


def reference_transposition_maps(tuples: list, positions: dict) -> tuple[tuple[tuple[int, ...], ...], ...]:
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


def reference_block_sum(n, blocks, signed):
    """The sum over the permutations of {1..n} preserving each block
    setwise, with coefficient 1 or perm.sign, through the rational
    constructor."""
    blocks = [tuple(b) for b in blocks if len(tuple(b)) >= 2]
    terms = {}
    for choice in product(*(permutations(b) for b in blocks)):
        images = list(range(1, n + 1))
        for block, dsts in zip(blocks, choice):
            for src, dst in zip(block, dsts):
                images[src - 1] = dst
        perm = Permutation(images)
        terms[perm] = perm.sign if signed else 1
    return GroupAlgebraElement(n, terms)


def permuted(cfg, sigma):
    """The configuration (v o sigma) with i-th vector v_{sigma(i)}."""
    if sigma.n != cfg.n:
        raise ValueError(f"degree mismatch: {sigma.n} vs {cfg.n}")
    return VectorConfiguration(cfg.dim, (cfg.vectors[j - 1] for j in sigma.images))


def tensor_sum(n, d, terms):
    """The tensor sum of c * t over the (c, t) pairs, entry by entry."""
    total = {}
    for c, t in terms:
        for idx, val in t.entries.items():
            total[idx] = total.get(idx, 0) + c * val
    return SparseTensor(n, d, total)


def tensor_inner(a, b):
    """The standard dot product extended multiplicatively to tensors."""
    # entries is a view rebuilt on each read, so read it once
    other = b.entries
    return Fraction(sum(val * other.get(idx, 0) for idx, val in a.entries.items()))


def fraction_rank(rows):
    """Plain rational Gaussian elimination, no fraction-free tricks."""
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                factor = rows[i][c] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def brute_determinant(rows):
    """Leibniz expansion over all permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                length += 1
                j = perm[j]
            if length % 2 == 0:
                sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def reference_algebra_multiply(x, y):
    """Convolution product in Fraction arithmetic over composed Permutations."""
    if x.n != y.n:
        raise ValueError(f"degree mismatch: {x.n} vs {y.n}")
    total = {}
    for sigma, a in x.terms.items():
        for tau, b in y.terms.items():
            pi = compose(sigma, tau)
            total[pi] = total.get(pi, 0) + Fraction(a) * Fraction(b)
    return GroupAlgebraElement(x.n, total)


def reference_generalized_matrix_function(a, lam):
    """Sum of chi(sigma) * prod_i a[i][sigma(i)] over Permutation objects, in
    Fraction arithmetic, with each class looked up by its cycle type."""
    n = len(a.rows)
    table = characters.character_table(n)
    total = Fraction(0)
    for sigma in all_permutations(n):
        chi = table.rows[lam][table.classes.index(sigma.cycle_type())]
        prod = Fraction(chi)
        for i, img in enumerate(sigma.images):
            prod *= a.rows[i][img - 1]
        total += prod
    return total


def reference_apply_algebra_element(w, x):
    """Sum of x(sigma) * (w acted on by sigma), accumulating the products of
    the stored coefficients and entries (Fraction where rational); the entry
    at index tuple t moves to k -> t[sigma(k)], written out here rather than
    taken from the library's place-action kernel."""
    if x.n != w.n:
        raise ValueError(f"degree mismatch: {x.n} vs {w.n}")
    total = {}
    for sigma, coeff in x.terms.items():
        for idx, val in w.entries.items():
            moved = tuple(idx[i - 1] for i in sigma.images)
            total[moved] = total.get(moved, 0) + coeff * val
    return SparseTensor(w.n, w.d, total)


def reference_operator_rank(x: GroupAlgebraElement, d: int) -> int:
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


def character_terms(lam):
    """chi(1) and the (images, chi(sigma)) pairs with chi(sigma) != 0, in the
    order of permutations_with_class: the one-shape walk of the per-shape
    routes below."""
    row = characters.character_table(lam.size).rows[lam]
    pairs = characters.permutations_with_class(lam.size)
    # class (1,...,1) is last in reverse-lex order
    return row[-1], ((images, row[c]) for images, c in pairs if row[c])


def per_shape_symmetrize(cfg: VectorConfiguration, lam: Partition) -> SparseTensor:
    """Apply the character projector for lam to the pure tensor of cfg.

    Equals apply_algebra_element(decomposable(cfg), central_idempotent(lam));
    computed directly from the character sum, skipping classes where the
    character vanishes.
    """
    if lam.size != cfg.n:
        raise ValueError(f"shape size {lam.size} does not match {cfg.n} vectors")
    chi_1, terms = character_terms(lam)
    w = decomposable(cfg)
    entries = _moved_sums(w.numerators, ((images, chi_1 * chi) for images, chi in terms))
    divisor = factorial(cfg.n) * w.divisor
    return SparseTensor(cfg.n, cfg.dim, {idx: Fraction(c, divisor) for idx, c in entries.items()})


def _slot_sums(support, terms, slots):
    """Slot by slot, the sum over the integer (images, slot, c) terms of c *
    (the integer support moved by the place action of images), summed in
    int, zeros included."""
    pairs = list(support.items())
    sums = [{} for _ in range(slots)]
    for images, s, c in terms:
        acc = sums[s]
        move = _place_action(images)
        for idx, val in pairs:
            moved = move(idx)
            acc[moved] = acc.get(moved, 0) + c * val
    return sums


@cache
def class_stream(n):
    """permutations_with_class(n) as a tuple, listed once per test session:
    the walk oracles read it on every call, and each of its n! classes
    costs the library a cycle walk."""
    return tuple(characters.permutations_with_class(n))


def character_walk(shapes):
    """One walk over the permutations for a list of shapes of one size n: the
    library's earlier walk behind every n!-term character sum.

    A class is walked when at least one listed shape has a nonzero character
    on it, and the walked classes get the slots 0, 1, ... in the order of
    partitions_of(n).  Returns each shape's chi(1), each shape's chi on the
    walked classes by slot, and the (images, slot) pairs of the permutations
    in walked classes, in the order of permutations_with_class, as a
    one-pass iterator.  With one shape, the walk skips exactly the
    permutations where its character vanishes.  The degree cap is checked
    by character_table.
    """
    if not shapes:
        raise ValueError("need at least one shape")
    n = shapes[0].size
    if any(lam.size != n for lam in shapes):
        raise ValueError(f"shapes of different sizes: {[lam.parts for lam in shapes]}")
    table = characters.character_table(n)
    rows = [table.rows[lam] for lam in shapes]
    walked = [c for c in range(len(table.classes)) if any(row[c] for row in rows)]
    slot_of = [None] * len(table.classes)
    for s, c in enumerate(walked):
        slot_of[c] = s
    # class (1,...,1) is last in reverse-lex order
    degrees = tuple(row[-1] for row in rows)
    values = tuple(tuple(row[c] for c in walked) for row in rows)
    pairs = class_stream(n)
    return degrees, values, (
        (images, s) for images, c in pairs if (s := slot_of[c]) is not None
    )


def reference_matrix_function_sums(a, shapes):
    """The generalized matrix functions of the shapes at a square matrix, from
    one walk: for each shape an integer, and one divisor common to all, so
    that integer / divisor is the shape's value.

    Each walked class C gets its class sum P_C of prod_i a[i][sigma(i)], and
    a shape's value is the sum over C of chi(C) * P_C.
    """
    n = a.nrows
    if a.ncols != n:
        raise ValueError(f"matrix must be square, got {a.nrows}x{a.ncols}")
    for lam in shapes:
        if lam.size != n:
            raise ValueError(f"shape size {lam.size} does not match matrix size {n}")
    _, values, walk = character_walk(shapes)
    # d_chi(DA) = det(D) d_chi(A) for diagonal D, as each term takes one
    # entry from every row; a leading 0 makes columns 1-based like images
    rows = [(0, *ints) for ints in a.numerators]
    class_sums = [0] * len(values[0])
    for images, s in walk:
        term = 1
        for r, img in zip(rows, images):
            term *= r[img]
            if not term:
                break
        class_sums[s] += term
    divisor = prod(a.scales)
    return [sum(chi * p for chi, p in zip(row, class_sums)) for row in values], divisor


def reference_symmetrized_sums(w, shapes):
    """The central idempotents of the shapes applied to w from one n!-term
    walk, as integer entries per shape over one divisor: each walked class
    C gets its class sum T_C of the moved tensor, and a shape's tensor is
    chi(1)/n! * sum over C of chi(C) * T_C."""
    for lam in shapes:
        if lam.size != w.n:
            raise ValueError(f"shape size {lam.size} does not match degree {w.n}")
    degrees, values, walk = character_walk(shapes)
    class_sums = _slot_sums(w.numerators, ((images, s, 1) for images, s in walk), len(values[0]))
    out = []
    for chi_1, row in zip(degrees, values):
        total = {}
        for chi, sums in zip(row, class_sums):
            if chi:
                for idx, c in sums.items():
                    total[idx] = total.get(idx, 0) + chi * c
        out.append({idx: chi_1 * c for idx, c in total.items() if c})
    return out, factorial(w.n) * w.divisor


def per_shape_generalized_matrix_function(a: Matrix, lam: Partition) -> Fraction:
    """The character-weighted permanent-like sum over all permutations.

    Specializes to the determinant for the single-column shape and the
    permanent for the single-row shape.
    """
    n = a.nrows
    if a.ncols != n:
        raise ValueError(f"matrix must be square, got {a.nrows}x{a.ncols}")
    if lam.size != n:
        raise ValueError(f"shape size {lam.size} does not match matrix size {n}")
    _, terms = character_terms(lam)
    # d_chi(DA) = det(D) d_chi(A) for diagonal D, as each term takes one
    # entry from every row; a leading 0 makes columns 1-based like images
    scaled = [integer_scaled(r) for r in a.rows]
    rows = [(0, *ints) for ints, _ in scaled]
    total = 0
    for images, term in terms:
        for r, img in zip(rows, images):
            if not term:
                break
            term *= r[img]
        total += term
    return Fraction(total, prod(scale for _, scale in scaled))


def _reference_augment(matroid, classes, e):
    """Breadth-first augmenting search that, for each popped node, tries the
    classes in index order, testing acceptance and then building that
    class's exchange arcs, with no pruning."""
    frozen = [frozenset(c) for c in classes]
    parent = {}
    visited = {e}
    queue = deque([e])
    while queue:
        a = queue.popleft()
        for j, cls in enumerate(frozen):
            if a in cls:
                continue
            if matroid.rank(cls | {a}) == len(cls) + 1:
                node, target = a, j
                while True:
                    classes[target].add(node)
                    if node not in parent:
                        return True
                    replacer, source = parent[node]
                    classes[source].remove(node)
                    node, target = replacer, source
            for y in cls:
                if y not in visited and matroid.rank((cls - {y}) | {a}) == len(cls):
                    visited.add(y)
                    parent[y] = (a, j)
                    queue.append(y)
    return False


def reference_rank_partition(cfg):
    """(rho, final color classes) of matroid partition by augmenting paths:
    one new class per round, every uncovered nonzero element tried in
    index order in every round."""
    matroid = LinearMatroid(cfg)
    targets = [i for i in range(1, cfg.n + 1) if i not in matroid.zero_indices]
    classes = []
    covered = set()
    rho = []
    while len(covered) < len(targets):
        classes.append(set())
        gained = 0
        for e in targets:
            if e not in covered and _reference_augment(matroid, classes, e):
                covered.add(e)
                gained += 1
        if not gained:
            raise RuntimeError("an empty class accepted no nonzero vector")
        if not all(matroid.is_independent_set(c) for c in classes):
            raise RuntimeError("augmentation broke a color class")
        rho.append(gained)
    return tuple(rho), classes


def reference_gamas_condition(
    cfg: VectorConfiguration, lam: Partition
) -> Optional[BlockCertificate]:
    """Search for a partition of the indices into independent blocks whose
    sizes are the parts of the conjugate shape.

    Backtracking fills the largest blocks first, trying indices in
    increasing order and pruning by independence; blocks of equal size
    are canonicalized by increasing smallest element.  Returns a
    certificate or None.
    """
    if lam.size != cfg.n:
        raise ValueError(f"shape size {lam.size} does not match {cfg.n} vectors")
    profile = lam.conjugate().parts
    if not profile:
        return BlockCertificate(())
    matroid = LinearMatroid(cfg)
    if matroid.zero_indices:
        return None
    if profile[0] > matroid.full_rank:
        return None

    blocks: list[tuple[int, ...]] = []

    def fill_block(block_idx: int, remaining: tuple[int, ...], min_first: int) -> bool:
        if block_idx == len(profile):
            return True
        size = profile[block_idx]

        def extend(chosen: tuple[int, ...], pool: tuple[int, ...], need: int) -> bool:
            if need == 0:
                blocks.append(chosen)
                same_size_next = (
                    block_idx + 1 < len(profile) and profile[block_idx + 1] == size
                )
                rest = tuple(x for x in remaining if x not in chosen)
                if fill_block(
                    block_idx + 1, rest, chosen[0] if same_size_next else 0
                ):
                    return True
                blocks.pop()
                return False
            for i, e in enumerate(pool):
                if len(pool) - i < need:
                    break
                if not chosen and e <= min_first:
                    continue
                if matroid.is_independent_set(chosen + (e,)):
                    if extend(chosen + (e,), pool[i + 1 :], need - 1):
                        return True
            return False

        return extend((), remaining, size)

    if fill_block(0, tuple(range(1, cfg.n + 1)), 0):
        certificate = BlockCertificate(tuple(blocks))
        if not validate_certificate(cfg, certificate, lam):
            raise RuntimeError(f"backtracking built an invalid certificate {blocks}")
        return certificate
    return None


@contextmanager
def character_fault(lam, rho):
    """Flip the sign of one character value for the duration of the block.

    Patches isotypic.characters.character_value, which character_row
    looks up at call time, and clears the rows cached from it on entry and
    exit, so that a row cached before the block cannot hide the flipped
    value from the gram route.  The patch is installed inside the try, so
    whatever fails after it, the finally puts the clean value back.
    In-process only: worker processes spawned by run_verification(jobs>1)
    import a clean module and do not see the fault.
    """
    clean = characters.character_value

    def flipped(mu, nu):
        value = clean(mu, nu)
        return -value if (mu, nu) == (lam, rho) else value

    try:
        characters.character_value = flipped
        characters.character_row.cache_clear()
        yield
    finally:
        characters.character_value = clean
        characters.character_row.cache_clear()


@contextmanager
def engine_fault():
    """Start every augmenting search with all other nodes dead, for the
    duration of the block.

    The engine then covers an element only where some class accepts it
    outright: a greedy partition with no exchanges, which can fall short
    of the rank partition and miss certificates.  Patches
    isotypic.matroid._augment, which the engine looks up at call time;
    in-process only, like character_fault.
    """
    clean = matroid_module._augment

    def greedy(matroid, classes, caps, e, dead):
        return clean(matroid, classes, caps, e, set(range(1, matroid.n + 1)) - {e})

    matroid_module._augment = greedy
    try:
        yield
    finally:
        matroid_module._augment = clean


@contextmanager
def rank_fault():
    """Read every rank 3 as 2 in the matroid engine's rank oracle, for the
    duration of the block.

    The engine then never holds three vectors in one class, so it misses
    the certificates of shapes with a column of three or more and reads
    rank partitions of rank at most 2.  Patches isotypic.matroid._int_rank,
    which LinearMatroid.rank looks up at call time, so the engine and the
    min-formula oracle read the same wrong ranks, while is_independent,
    which re-checks certificates, does not.  A configuration built inside
    the block keeps the wrong ranks in its memo; in-process only, like
    character_fault.
    """
    clean = matroid_module._int_rank

    def off_by_one(rows):
        rank = clean(rows)
        return 2 if rank == 3 else rank

    matroid_module._int_rank = off_by_one
    try:
        yield
    finally:
        matroid_module._int_rank = clean


@contextmanager
def content_fault(lam):
    """Put lam's content power sums p_m off by one at every level m, for the
    duration of the block.

    The brute route's projector then takes the wrong eigenvalue of
    p_m(X_2, ..., X_n) for lam, and the parts it splits off a weight block
    where lam can occur leave some of lam's part in the others.  Patches
    isotypic.brute._content_power_sum, which the projector's cached
    _lagrange looks up at call time, and clears that cache on entry and
    exit; in-process only, like character_fault.
    """
    clean = brute_module._content_power_sum

    def shifted(mu, m):
        return clean(mu, m) + (mu == lam)

    try:
        brute_module._content_power_sum = shifted
        brute_module._lagrange.cache_clear()
        yield
    finally:
        brute_module._content_power_sum = clean
        brute_module._lagrange.cache_clear()


@contextmanager
def position_map_fault():
    """Replace the position map of the transposition (1 2) by the identity's
    in every block space built during the block.

    X_2 = (1 2) then acts as the identity, so the projector takes wrong
    eigenvalues of p_m(X_2, ..., X_n) on every block it splits, and the
    parts it splits off leave some of each shape's part in the others.
    Patches isotypic.brute._transposition_maps, which the cached
    _block_space's maps look up at call time, and clears that cache on
    entry and exit; in-process only, like character_fault.
    """
    clean = brute_module._transposition_maps

    def broken(tuples, positions):
        (_, *rest), *higher = clean(tuples, positions)
        return (tuple(range(len(tuples))), *rest), *higher

    try:
        brute_module._transposition_maps = broken
        brute_module._block_space.cache_clear()
        yield
    finally:
        brute_module._transposition_maps = clean
        brute_module._block_space.cache_clear()


@contextmanager
def class_sum_fault(rho):
    """Drop the class sum P_rho from the gram route's kernel, for the
    duration of the block.

    Every generalized matrix function of degree |rho| then misses the
    terms of the permutations of cycle type rho.  Patches
    isotypic.gram._class_sums, which matrix_function_sums looks up at call
    time; in-process only, like character_fault.
    """
    clean = gram_module._class_sums

    def dropped(cycles):
        sums = clean(cycles)
        sums.pop(rho.parts, None)
        return sums

    gram_module._class_sums = dropped
    try:
        yield
    finally:
        gram_module._class_sums = clean


@contextmanager
def cycle_sum_fault():
    """Put the gram route's cycle sum of rows 1-3 (mask 7) off by one
    whenever there are at least three rows, for the duration of the block.

    One term of the class sums P_mu is then wrong, where class_sum_fault
    drops a whole type.  Patches isotypic.gram._cycle_sums, which
    matrix_function_sums looks up at call time; in-process only, like
    character_fault.
    """
    clean = gram_module._cycle_sums

    def shifted(rows):
        cycles = clean(rows)
        if len(rows) >= 3:
            cycles[7] += 1
        return cycles

    try:
        gram_module._cycle_sums = shifted
        yield
    finally:
        gram_module._cycle_sums = clean


@contextmanager
def strip_sign_fault():
    """Give every border strip of height 3 or more the opposite sign in the
    Murnaghan-Nakayama recursion, for the duration of the block.

    A removal that jumps two or more beta-numbers then counts with the
    wrong sign, so characters on classes with long cycles go wrong.
    Patches isotypic.characters._mn, which character_value looks up at call
    time, with a copy that recurses into itself, and clears character_row's
    cache on entry and exit; in-process only, like character_fault.
    """
    clean = characters._mn

    @cache
    def flipped(lam_parts, rho_parts):
        if not rho_parts:
            return 1 if not lam_parts else 0
        k, rest = rho_parts[0], rho_parts[1:]
        m = len(lam_parts)
        beta = [part + (m - 1 - i) for i, part in enumerate(lam_parts)]
        total = 0
        for b in beta:
            nb = b - k
            if nb < 0 or nb in beta:
                continue
            jumped = sum(1 for other in beta if nb < other < b)
            new_beta = sorted([x for x in beta if x != b] + [nb], reverse=True)
            mu = tuple(part for j, x in enumerate(new_beta) if (part := x - (m - 1 - j)) > 0)
            sign = (-1) ** jumped * (-1 if jumped >= 2 else 1)
            total += sign * flipped(mu, rest)
        return total

    try:
        characters._mn = flipped
        characters.character_row.cache_clear()
        yield
    finally:
        characters._mn = clean
        characters.character_row.cache_clear()
