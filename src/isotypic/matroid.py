"""Rank partitions and independent-partition certificates for vector lists.

The combinatorial side of the package: a configuration of vectors is a
linear matroid on the index set {1..n}; its rank partition rho satisfies
rho_1 + ... + rho_k = size of the largest union of k independent subsets.
`rank_partition` computes it with the matroid-partition augmenting-path
algorithm; `rank_partition_oracle` recomputes it from the exponential
min-formula  min over S of (k * rank(S) + |E - S|)  as an independent
cross-check; `gamas_condition` searches for an explicit partition of the
indices into independent blocks with a prescribed size profile; and
`decide_appears` is the polynomial-time dominance decider built on the
rank partition.

The augmenting-path search skips work by four exact matroid facts, so it
finds the same paths and ends with the same color classes as the plain
search would:
1. a class with r(E) elements is a basis and accepts no element;
2. acceptance is tested in every class before any exchange arc is built,
   and the first accepting class in index order is the one the plain
   search, which interleaves the two, would have reached first;
3. while the classes are unchanged, a node visited by a failed search
   reaches no sink, and neither does anything it has arcs to, so later
   searches of the round never enter it;
4. once every class is a basis, nothing more can be covered that round.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .linalg import _int_rank, integer_scaled, is_independent
from .partitions import Partition
from .tensors import VectorConfiguration

# the 2^n min-formula oracle refuses past this ground-set size
ORACLE_SIZE_CAP = 14


class LinearMatroid:
    """Exact rank oracle over index subsets of a vector configuration.

    Ranks are cached per frozenset; vectors are scaled to integer form
    once, so subset ranks run in pure integer arithmetic.
    """

    def __init__(self, cfg: VectorConfiguration):
        self.cfg = cfg
        self.n = cfg.n
        self._rows = {i + 1: integer_scaled(v)[0] for i, v in enumerate(cfg.vectors)}
        self.zero_indices = frozenset(
            i for i, row in self._rows.items() if not any(row)
        )
        self._cache: dict[frozenset[int], int] = {frozenset(): 0}

    def rank(self, subset: Iterable[int]) -> int:
        key = frozenset(subset)
        cached = self._cache.get(key)
        if cached is None:
            cached = _int_rank([self._rows[i] for i in sorted(key)])
            self._cache[key] = cached
        return cached

    def is_independent_set(self, subset: Iterable[int]) -> bool:
        key = frozenset(subset)
        return self.rank(key) == len(key)

    @cached_property
    def full_rank(self) -> int:
        """r(E): the size of every basis."""
        return self.rank(range(1, self.n + 1))


@dataclass(frozen=True)
class RankPartition:
    """The sequence rho; weakly decreasing by Dias da Silva's theorem."""

    rho: tuple[int, ...]

    def __post_init__(self):
        if any(a < b for a, b in zip(self.rho, self.rho[1:])) or any(
            p < 1 for p in self.rho
        ):
            raise ValueError(f"rank partition not weakly decreasing: {self.rho}")

    @property
    def covered(self) -> int:
        return sum(self.rho)

    def as_partition(self) -> Partition:
        return Partition(self.rho)

    def to_json_obj(self) -> dict:
        return {"rho": list(self.rho), "covered": self.covered}


@dataclass(frozen=True)
class BlockCertificate:
    """Disjoint index blocks, each naming an independent set of vectors."""

    blocks: tuple[tuple[int, ...], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def to_json_obj(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]


def _augment(
    matroid: LinearMatroid, classes: list[set[int]], e: int, dead: set[int]
) -> bool:
    """Try to cover e, possibly shuffling elements between classes.

    Breadth-first search in the exchange digraph: an arc a -> y labelled j
    means y sits in class j and replacing y by a keeps that class
    independent; a node a is terminal when some class accepts a outright.
    Along a shortest (BFS) path the chain of replacements, executed from
    the terminal node back to e, keeps every class independent.

    Full classes (bases) are never asked to accept, and a popped node's
    arcs are built only when no class accepts it; neither changes which
    node is terminal first or through which class.  `dead` holds the nodes
    visited by failed searches since the classes last changed: they start
    out visited here, and since every arc out of a dead node ends at a dead
    node, no live node is reached through one and the live nodes are
    queued in the same order.  A failure adds its visited nodes to `dead`;
    a success clears it.
    """
    full = matroid.full_rank
    frozen = [frozenset(c) for c in classes]
    open_classes = [(j, cls) for j, cls in enumerate(frozen) if len(cls) < full]
    parent: dict[int, tuple[int, int]] = {}
    visited = dead | {e}
    queue = deque([e])
    while queue:
        a = queue.popleft()
        for j, cls in open_classes:
            if a not in cls and matroid.rank(cls | {a}) == len(cls) + 1:
                node, target = a, j
                while True:
                    classes[target].add(node)
                    if node not in parent:
                        dead.clear()
                        return True
                    replacer, source = parent[node]
                    classes[source].remove(node)
                    node, target = replacer, source
        for j, cls in enumerate(frozen):
            if a in cls:
                continue
            for y in cls:
                if y not in visited and matroid.rank((cls - {y}) | {a}) == len(cls):
                    visited.add(y)
                    parent[y] = (a, j)
                    queue.append(y)
    dead |= visited
    return False


def _color_classes(matroid: LinearMatroid) -> tuple[list[int], list[set[int]]]:
    """rho and the final color classes of the matroid-partition rounds.

    Round k adds an empty class and tries to cover each uncovered nonzero
    element in index order; rho_k is the number it covers.  The round ends
    early once every class holds r(E) elements, since no class can then
    accept anything.
    """
    targets = [i for i in range(1, matroid.n + 1) if i not in matroid.zero_indices]
    classes: list[set[int]] = []
    covered: set[int] = set()
    rho: list[int] = []
    while len(covered) < len(targets):
        classes.append(set())
        dead: set[int] = set()
        gained = 0
        for e in targets:
            if len(covered) == len(classes) * matroid.full_rank:
                break
            if e not in covered and _augment(matroid, classes, e, dead):
                covered.add(e)
                gained += 1
        if not gained:
            raise RuntimeError("an empty class accepted no nonzero vector")
        if not all(matroid.is_independent_set(c) for c in classes):
            raise RuntimeError("augmentation broke a color class")
        rho.append(gained)
    return rho, classes


def rank_partition(cfg: VectorConfiguration) -> RankPartition:
    """Rank partition by matroid partition with augmenting paths.

    Color classes are added one at a time; rho_k is the number of new
    elements covered once k classes are available.  Zero vectors belong
    to no independent set and are never covered, so the parts sum to the
    number of nonzero vectors.  The search skips full classes, tests
    acceptance before building arcs, never re-enters nodes of a failed
    search while the classes stand still, and ends a round once every
    class is a basis (see `_augment`); each is exact, so the paths and
    the classes are those of the plain search.
    """
    rho, _ = _color_classes(LinearMatroid(cfg))
    return RankPartition(tuple(rho))


def rank_partition_oracle(cfg: VectorConfiguration) -> RankPartition:
    """Recompute the rank partition from the matroid-union min-formula.

    Exponential-time reference: for each k, the largest union of k
    independent sets has size min over subsets S of k*rank(S) + |E - S|.
    Must agree with rank_partition on every input.
    """
    n = cfg.n
    if n > ORACLE_SIZE_CAP:
        raise ValueError(f"ground set of {n} exceeds oracle cap {ORACLE_SIZE_CAP}")
    matroid = LinearMatroid(cfg)
    elements = list(range(1, n + 1))
    profiles = set()
    for mask in range(1 << n):
        subset = frozenset(e for i, e in enumerate(elements) if mask >> i & 1)
        profiles.add((matroid.rank(subset), n - len(subset)))
    rho: list[int] = []
    previous = 0
    for k in range(1, n + 1):
        best = min(k * r + outside for r, outside in profiles)
        if best == previous:
            break
        rho.append(best - previous)
        previous = best
    return RankPartition(tuple(rho))


def gamas_condition(
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


def validate_certificate(
    cfg: VectorConfiguration, certificate: BlockCertificate, lam: Partition
) -> bool:
    """Independent re-validation: disjoint blocks covering every index, with
    the conjugate size profile, each block linearly independent."""
    indices = [i for block in certificate.blocks for i in block]
    if sorted(indices) != list(range(1, cfg.n + 1)):
        return False
    if certificate.sizes() != lam.conjugate().parts:
        return False
    return all(
        is_independent([cfg.vectors[i - 1] for i in block])
        for block in certificate.blocks
    )


def decide_appears(cfg: VectorConfiguration, lam: Partition) -> bool:
    """Dominance decider: lam appears iff it dominates the conjugate of the
    rank partition (never, when some vector is zero, since the sizes then
    differ)."""
    if lam.size != cfg.n:
        raise ValueError(f"shape size {lam.size} does not match {cfg.n} vectors")
    return lam.dominates(rank_partition(cfg).as_partition().conjugate())
