"""Layer spans and work counters, installed on the library from outside.

Each traced function is replaced by a wrapper at every module attribute
of the package that holds it, which is where callers look it up (for
example `isotypic.selfcheck.symmetrize` and `isotypic.matroid._int_rank`),
so no library source changes.  Spans nest strictly (one thread), so a
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  The span names are the per-layer metric
# prefixes; the unreported ones exist so that self times add up to the
# wall time instead of piling up in the caller.
SPANS = (
    ("tensors", "symmetrize", "tensors.symmetrize"),
    ("tensors", "generalized_matrix_function", "tensors.generalized_matrix_function"),
    ("tensors", "apply_algebra_element", "tensors.apply_algebra_element"),
    ("tensors", "operator_rank", "tensors.operator_rank"),
    ("tensors", "nonzero_after_symmetrize", "tensors.nonzero_after_symmetrize"),
    ("tensors", "gram_matrix", "tensors.gram_matrix"),
    ("tensors", "decomposable", "tensors.decomposable"),
    ("symgroup", "algebra_multiply", "symgroup.algebra_multiply"),
    ("symgroup", "column_antisymmetrizer", "symgroup.column_antisymmetrizer"),
    ("symgroup", "subset_antisymmetrizer", "symgroup.subset_antisymmetrizer"),
    ("characters", "character_table", "characters.character_table"),
    ("characters", "central_idempotent", "characters.central_idempotent"),
    ("characters", "permutations_with_class", "characters.permutations_with_class"),
    ("matroid", "rank_partition", "matroid.rank_partition"),
    ("matroid", "gamas_condition", "matroid.gamas_condition"),
    ("matroid", "rank_partition_oracle", "matroid.rank_partition_oracle"),
    ("matroid", "decide_appears", "matroid.decide_appears"),
    ("matroid", "validate_certificate", "matroid.validate_certificate"),
    ("linalg", "_int_rank", "linalg.int_rank"),
    ("linalg", "rank_of_rows", "linalg.rank_of_rows"),
    ("linalg", "is_independent", "linalg.is_independent"),
    ("selfcheck", "generate_configuration", "selfcheck.generate_configuration"),
    ("selfcheck", "_run_cell", "selfcheck.cell"),
    ("selfcheck", "_character_suite", "selfcheck.suite.character"),
    ("selfcheck", "_idempotent_suite", "selfcheck.suite.idempotent"),
    ("selfcheck", "_rank_law_suite", "selfcheck.suite.rank_law"),
)

LAYERS = ("tensors", "symgroup", "characters", "matroid", "linalg", "selfcheck", "cli")
PACKAGE = "isotypic"


class Tracer:
    """Span stack, per-name aggregates, raw spans and work counters."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [name, start, child seconds, span id]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.longest: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, end)
        self.request = 0

    def enter(self, name: str) -> None:
        self.active[name] += 1
        self.stack.append([name, time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, children, span_id = self.stack.pop()
        duration = end - start
        self.active[name] -= 1
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - children
        self.longest[name] = max(self.longest[name], duration)
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[span_id] = (
            span_id, parent[3] if parent else None, self.request, name, start, end
        )

    def work_counts(self) -> dict:
        """Counts that must repeat exactly for the same inputs."""
        out = {f"{name}.calls": c for name, c in sorted(self.calls.items())}
        out.update(sorted(self.counts.items()))
        return out


def _timed(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, result)
        return result

    for attr in ("cache_clear", "cache_info"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def _package_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


def _replace_everywhere(modules, original, replacement, undo: list) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> tuple[list[str], list]:
    """Wrap every traced function: (hooks that could not be found, undo list
    for uninstall)."""
    modules = _package_modules()
    undo: list = []
    missing = []
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    table = getattr(by_name.get("characters"), "character_table", None)
    if table is None:
        missing.append("characters.character_table (for tensors.symmetrize.terms)")

    def symmetrize_terms(args, result):
        # permutations with a nonzero character value times the support of
        # the pure tensor: the size of the n!-term sum the call performs
        cfg, lam = args[0], args[1]
        t = table(cfg.n)
        row = t.rows[lam]
        perms = sum(size for size, chi in zip(t.class_sizes, row) if chi)
        support = math.prod(sum(1 for e in v if e) for v in cfg.vectors)
        tracer.counts["tensors.symmetrize.terms"] += perms * support

    def multiply_pairs(args, result):
        tracer.counts["symgroup.algebra_multiply.pairs"] += len(args[0].terms) * len(args[1].terms)

    after = {
        "tensors.symmetrize": symmetrize_terms if table else None,
        "symgroup.algebra_multiply": multiply_pairs,
    }
    for module_name, attr, name in SPANS:
        module = by_name.get(module_name)
        original = getattr(module, attr, None) if module else None
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        _replace_everywhere(modules, original, _timed(tracer, name, original, after.get(name)), undo)

    matroid_cls = getattr(by_name.get("matroid"), "LinearMatroid", None)
    if matroid_cls is None or not hasattr(matroid_cls, "rank"):
        missing.append("matroid.LinearMatroid.rank")
    else:
        oracle_rank = matroid_cls.rank

        def counted_rank(self, subset):
            tracer.counts["matroid.rank_oracle.calls"] += 1
            return oracle_rank(self, subset)

        undo.append((matroid_cls, "rank", oracle_rank))
        matroid_cls.rank = counted_rank
    if matroid_cls is None or not hasattr(matroid_cls, "is_independent_set"):
        missing.append("matroid.LinearMatroid.is_independent_set")
    else:
        independent = matroid_cls.is_independent_set

        def counted_independent(self, subset):
            if tracer.active["matroid.gamas_condition"]:
                tracer.counts["matroid.gamas.nodes"] += 1
            return independent(self, subset)

        undo.append((matroid_cls, "is_independent_set", independent))
        matroid_cls.is_independent_set = counted_independent

    # the rank oracle is the only caller of the matroid module's Bareiss
    # elimination, which it runs on a cache miss
    bareiss = getattr(by_name.get("matroid"), "_int_rank", None)
    if bareiss is None:
        missing.append("matroid._int_rank")
    else:
        def counted_bareiss(rows):
            tracer.counts["matroid.rank_oracle.misses"] += 1
            return bareiss(rows)

        undo.append((by_name["matroid"], "_int_rank", bareiss))
        by_name["matroid"]._int_rank = counted_bareiss
    return missing, undo


def uninstall(undo: list) -> None:
    """Put back what install replaced, last replacement first."""
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)


def clear_caches() -> None:
    """Empty every functools cache of the package, as a fresh process has."""
    for module in _package_modules():
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
