"""Rank partitions and independent-partition certificates for vector lists.

The combinatorial side of the package: a configuration of vectors is a
linear matroid on the index set {1..n}; its rank partition rho satisfies
rho_1 + ... + rho_k = size of the largest union of k independent subsets.
One matroid-partition engine answers both questions asked of it: it
covers elements with color classes by augmenting paths, class j staying
independent with at most caps[j] elements (matroid union over truncated
matroids; Edmonds 1965, Dias da Silva 1990).  `rank_partition` adds one
class of capacity r(E) per round; `gamas_condition` gives one class per
part of the conjugate shape, with that part as its capacity, and returns
the classes as an explicit partition of the indices into independent
blocks; `decide_appears` is the dominance decider built on the rank
partition.  `rank_partition_oracle` recomputes rho from the exponential
min-formula  min over S of (k * rank(S) + |E - S|)  as an independent
cross-check.  All of them share the configuration's rank memo.

The augmenting-path search skips work by four exact matroid facts, so it
finds the same paths and ends with the same color classes as the plain
search would.  Call class j full when it holds caps[j] elements:
1. a class at its capacity accepts no element;
2. acceptance is tested in every class before any exchange arc is built,
   and the first accepting class in index order is the one the plain
   search, which interleaves the two, would have reached first;
3. while the classes are unchanged, a node visited by a failed search
   reaches no sink, and neither does anything it has arcs to, so later
   searches never enter it;
4. once every class is full, nothing more can be covered.
No capacity exceeds r(E) (`gamas_condition` refuses a larger part), so
capacities change only which classes are full: an exchange keeps a
class's size, so the arcs are those of the uncapped search.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Optional

from .linalg import VectorConfiguration, _independent_rows, _int_rank
from .partitions import Partition, _check_shape_size

# the 2^n min-formula oracle refuses past this ground-set size
ORACLE_SIZE_CAP = 14


class LinearMatroid:
    """Exact rank oracle over index subsets of a vector configuration.

    Ranks run on the configuration's integer rows, in pure integer
    arithmetic, and are kept per frozenset in its shared `rank_memo`,
    which is the one cache of `full_rank` too.
    """

    def __init__(self, cfg: VectorConfiguration):
        self.n = cfg.n
        self._rows = cfg.rows
        self.zero_indices = frozenset(
            i for i, row in enumerate(self._rows, 1) if not any(row)
        )
        self._memo = cfg.rank_memo

    def rank(self, subset: Iterable[int]) -> int:
        key = frozenset(subset)
        cached = self._memo.get(key)
        if cached is None:
            cached = _int_rank([self._rows[i - 1] for i in sorted(key)])
            self._memo[key] = cached
        return cached

    def is_independent_set(self, subset: Iterable[int]) -> bool:
        key = frozenset(subset)
        return self.rank(key) == len(key)

    @property
    def full_rank(self) -> int:
        """r(E): the size of every basis."""
        return self.rank(range(1, self.n + 1))


class RankPartition(Partition):
    """The sequence rho, a partition by Dias da Silva's theorem: its size is
    the number of nonzero vectors."""

    __slots__ = ()

    @property
    def rho(self) -> tuple[int, ...]:
        """The parts, under the name that the rank-partition JSON uses."""
        return self.parts

    def to_json_obj(self) -> dict:
        return {"rho": list(self.parts), "covered": self.size}


class BlockCertificate(NamedTuple):
    """Disjoint index blocks, each naming an independent set of vectors."""

    blocks: tuple[tuple[int, ...], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted((len(b) for b in self.blocks), reverse=True))

    def to_json_obj(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]


def _augment(
    matroid: LinearMatroid, classes: list[set[int]], caps: list[int], e: int, dead: set[int]
) -> bool:
    """Try to cover e, possibly shuffling elements between classes.

    Breadth-first search in the exchange digraph: an arc a -> y labelled j
    means y sits in class j and replacing y by a keeps that class
    independent; a node a is terminal when some class accepts a outright.
    Along a shortest (BFS) path the chain of replacements, executed from
    the terminal node back to e, keeps every class independent.

    Full classes, those holding caps[j] elements, are never asked to accept,
    and a popped node's arcs are built only when no class accepts it;
    neither changes which node is terminal first or through which class.
    `dead` holds the nodes visited by failed searches since the classes last
    changed: they start out visited here, and since every arc out of a dead
    node ends at a dead node, no live node is reached through one and the
    live nodes are queued in the same order.  A failure adds its visited
    nodes to `dead`; a success clears it.
    """
    frozen = [frozenset(c) for c in classes]
    open_classes = [(j, c) for j, c in enumerate(frozen) if len(c) < caps[j]]
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


def _fill(
    matroid: LinearMatroid, classes: list[set[int]], caps: list[int], elements: Iterable[int]
) -> list[int]:
    """Cover what it can of `elements` in order, and return what it covered.

    Class j stays independent with at most caps[j] <= r(E) elements: the
    classes are an independent set of the union of the truncated matroids,
    so an element whose search fails stays uncovered by them (Edmonds
    1965).  The pruning stays exact with capacities, which only decide
    which classes are full; the loop stops once every class is.
    """
    room = sum(caps)
    held = sum(len(c) for c in classes)
    dead: set[int] = set()
    covered: list[int] = []
    for e in elements:
        if held == room:
            break
        if _augment(matroid, classes, caps, e, dead):
            covered.append(e)
            held += 1
    if not all(matroid.is_independent_set(c) for c in classes):
        raise RuntimeError("augmentation broke a color class")
    return covered


def _color_classes(matroid: LinearMatroid) -> tuple[list[int], list[set[int]]]:
    """rho and the final color classes of the matroid-partition rounds.

    Round k adds an empty class of capacity r(E) and fills the classes
    from the uncovered nonzero elements in index order; rho_k is the
    number it covers.
    """
    targets = [i for i in range(1, matroid.n + 1) if i not in matroid.zero_indices]
    classes: list[set[int]] = []
    covered: set[int] = set()
    rho: list[int] = []
    while len(covered) < len(targets):
        classes.append(set())
        caps = [matroid.full_rank] * len(classes)
        gained = _fill(matroid, classes, caps, [e for e in targets if e not in covered])
        if not gained:
            raise RuntimeError("an empty class accepted no nonzero vector")
        covered.update(gained)
        rho.append(len(gained))
    return rho, classes


def rank_partition(cfg: VectorConfiguration) -> RankPartition:
    """Rank partition by matroid partition with augmenting paths.

    Color classes are added one at a time; rho_k is the number of new
    elements covered once k classes are available.  Zero vectors belong
    to no independent set and are never covered, so the parts sum to the
    number of nonzero vectors.  The four pruning rules of the search (see
    the module docstring) are exact, so the paths and the classes are
    those of the plain search.
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
    subsets = [frozenset()]
    for e in range(1, n + 1):
        subsets += [s | {e} for s in subsets]
    profiles = {(matroid.rank(s), n - len(s)) for s in subsets}
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
    """A partition of the indices into independent blocks whose sizes are
    the parts of the conjugate shape, or None when there is none.

    A zero vector, or a part of lam' above r(E), is refused before the
    engine runs: no independent block holds a zero vector or more than
    r(E) vectors.  Otherwise one class per part of lam', with that part as
    its capacity, is filled by the matroid-partition engine.  The
    capacities sum to n, so covering all n indices fills every class
    exactly; and since a failed augmenting search is exact, an index left
    uncovered means no such partition exists.  Blocks come by size
    descending, then by smallest index.
    """
    _check_shape_size(lam, cfg.n)
    caps = list(lam.conjugate().parts)
    matroid = LinearMatroid(cfg)
    if matroid.zero_indices or max(caps, default=0) > matroid.full_rank:
        return None
    classes: list[set[int]] = [set() for _ in caps]
    if len(_fill(matroid, classes, caps, range(1, cfg.n + 1))) < cfg.n:
        return None
    blocks = sorted((tuple(sorted(c)) for c in classes), key=lambda b: (-len(b), b))
    certificate = BlockCertificate(tuple(blocks))
    if not validate_certificate(cfg, certificate, lam):
        raise RuntimeError(f"the engine built an invalid certificate {blocks}")
    return certificate


def validate_certificate(
    cfg: VectorConfiguration, certificate: BlockCertificate, lam: Partition
) -> bool:
    """Independent re-validation: disjoint blocks covering every index, with
    the conjugate size profile, each block linearly independent.  The blocks
    are eliminated by `linalg`'s own kernel, so this check reads neither the
    rank memo nor this module's `_int_rank`, the engine's."""
    indices = [i for block in certificate.blocks for i in block]
    if sorted(indices) != list(range(1, cfg.n + 1)):
        return False
    if certificate.sizes() != lam.conjugate().parts:
        return False
    return all(
        _independent_rows([cfg.rows[i - 1] for i in block])
        for block in certificate.blocks
    )


def decide_appears(cfg: VectorConfiguration, lam: Partition) -> bool:
    """Dominance decider: lam appears iff it dominates the conjugate of the
    rank partition (never, when some vector is zero, since the sizes then
    differ)."""
    _check_shape_size(lam, cfg.n)
    return lam.dominates(rank_partition(cfg).conjugate())
