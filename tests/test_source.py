import ast
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import isotypic.selfcheck  # noqa: F401  (imports every library module the tracer wraps)
import isotypic.tensors
from isotypic.cli import main
from isotypic.partitions import Partition
from isotypic.symgroup import GroupAlgebraElement, Permutation, subset_antisymmetrizer
from fresh_process import modules_after, package_submodules

REPO = Path(__file__).resolve().parents[1]
SOURCE_DIR = REPO / "src" / "isotypic"


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so invariants in the library
    # must be explicit raises
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_the_harness_imports_dataclasses():
    # dataclasses costs a cold process its import and that of inspect; the
    # other records are named tuples or slotted classes
    importers = {
        path.name
        for path in SOURCE_DIR.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    }
    assert importers == {"selfcheck.py"}


def _bench_tracing():
    """bench/tracing.py, loaded without leaving a __pycache__ under bench/."""
    spec = importlib.util.spec_from_file_location("bench_tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return tracing


def test_benchmark_hooks_resolve():
    # bench/tracing.py wraps library functions by name; a rename or a
    # deletion would otherwise surface only in a traced benchmark run
    tracing = _bench_tracing()
    tracer = tracing.Tracer()
    missing, undo = tracing.install(tracer)
    try:
        assert missing == []
        # the after-hook on symmetrize reads its arguments as (cfg, lam): the
        # character of (2, 1) is nonzero on 3 permutations of degree 3, and
        # the pure tensor has 1 * 2 * 1 nonzero entries
        cfg = isotypic.linalg.VectorConfiguration(2, [[1, 0], [1, 1], [0, 1]])
        assert not isotypic.brute.symmetrize(cfg, Partition([2, 1])).is_zero()
        assert tracer.calls["tensors.symmetrize"] == 1
        assert tracer.counts["tensors.symmetrize.terms"] == 3 * 2
        # the after-hook on algebra_multiply reads the terms views: 2 * 6
        # pairs of terms
        x = GroupAlgebraElement(
            3, {Permutation([1, 2, 3]): 1, Permutation([2, 1, 3]): Fraction(1, 2)}
        )
        assert not (x * subset_antisymmetrizer(3, [1, 2, 3])).is_zero()
        assert tracer.calls["symgroup.algebra_multiply"] == 1
        assert tracer.counts["symgroup.algebra_multiply.pairs"] == 2 * 6
    finally:
        tracing.uninstall(undo)


@pytest.mark.parametrize(
    "argv, calls",
    [
        ("symmetrize", {"tensors.symmetrize": 1, "tensors.decomposable": 1}),
        ("decide --method brute", {"tensors.nonzero_after_symmetrize": 1}),
        ("decide --method gram",
         {"tensors.gram_matrix": 1, "tensors.generalized_matrix_function": 1}),
    ],
)
def test_tracer_counts_the_cli_calls(tmp_path, argv, calls):
    # the CLI looks these up at brute and gram, and the tracer hooks them at
    # tensors.*, where they are bound as the same objects, so it replaces
    # the home modules' attributes too and a traced command is counted
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dim": 2, "vectors": [["1", "0"], ["1", "1"], ["0", "1"]]}))
    tracing = _bench_tracing()
    tracer = tracing.Tracer()
    missing, undo = tracing.install(tracer)
    try:
        assert missing == []
        assert main([*argv.split(), "--config", str(config), "--shape", "2,1"]) == 0
    finally:
        tracing.uninstall(undo)
    traced = {name: c for name, c in tracer.calls.items() if name.startswith("tensors.")}
    assert traced == calls


def test_traced_rank_oracle_misses_are_at_most_its_calls():
    # bench/tracing.py counts a miss per matroid._int_rank call and a call
    # per LinearMatroid.rank; with the rank the only caller of the
    # elimination, the traced hit ratio stays within [0, 1]
    tracing = _bench_tracing()
    tracer = tracing.Tracer()
    missing, undo = tracing.install(tracer)
    try:
        assert missing == []
        small = isotypic.selfcheck.TrialSpec(n_max=4, dims=(2, 3), trials_per_cell=5)
        assert isotypic.selfcheck.run_verification(small, jobs=1).ok
    finally:
        tracing.uninstall(undo)
    calls = tracer.counts["matroid.rank_oracle.calls"]
    assert 0 < tracer.counts["matroid.rank_oracle.misses"] <= calls


def _callers(function: str, paths) -> set[str]:
    """The dotted scopes (module.class.function) that call function by name."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name == function:
                    callers.add(".".join(scope))
            visit(child, scope)

    for path in paths:
        visit(ast.parse(path.read_text(), filename=str(path)), [path.stem])
    return callers


def test_integer_scaled_has_one_home_per_input():
    # rationals become integers only in linalg, once per input: rows for
    # the rank, a matrix's rows, a configuration's vectors and a tensor's
    # entries, which are an element's coefficients too
    homes = {
        "linalg.rank_of_rows",
        "linalg.Matrix.__init__",
        "linalg.VectorConfiguration.__init__",
        "linalg.SparseTensor.__init__",
    }
    assert _callers("integer_scaled", sorted(SOURCE_DIR.glob("*.py"))) == homes


def test_tensor_and_element_kernels_build_no_fraction():
    # tensors, group-algebra elements and matrices keep integer numerators,
    # and the kernels pass those on; a rational appears only in linalg, the
    # elements' rational view and the one-shape matrix function
    allowed = {
        "symgroup.GroupAlgebraElement.terms",
        "gram.generalized_matrix_function",
    }
    stems = ("symgroup", "tensors", "brute", "characters", "gram")
    paths = [SOURCE_DIR / f"{stem}.py" for stem in stems]
    assert _callers("Fraction", paths) <= allowed


def test_cycles_are_walked_only_by_the_cycle_type_and_the_walk():
    # a Permutation reads its cycle type, and the one permutation walk reads
    # each permutation's class, by the same cycle walk
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert _callers("_cycle_lengths", sources) == {
        "symgroup.Permutation.cycle_type",
        "characters.permutations_with_class",
    }


def test_characters_caches_only_the_character_values_and_rows():
    # the tables, the permutation stream and the idempotents are n!- or
    # p(n)^2-sized and read by few callers, so they are rebuilt per call
    # and nothing of them stays resident
    def name(decorator):
        # cache, functools.cache or lru_cache(...)
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None))

    tree = ast.parse((SOURCE_DIR / "characters.py").read_text())
    cached = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(name(d) in {"cache", "lru_cache", "cached_property"} for d in node.decorator_list)
    }
    assert cached == {"_mn", "character_row"}


def test_only_central_idempotent_walks_permutations():
    # the brute route projects with Jucys-Murphy elements and the gram route
    # sums cycle covers over subsets of the rows, so the n! permutations are
    # walked only to write out a central idempotent
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert _callers("permutations_with_class", sources) == {"characters.central_idempotent"}


def test_no_decide_route_builds_the_character_table():
    # a generalized matrix function reads one character row per shape and the
    # brute projector reads contents, so neither route falls back to the
    # p(n) x p(n) table on the way to a verdict
    routes = [SOURCE_DIR / "gram.py", SOURCE_DIR / "brute.py", SOURCE_DIR / "tensors.py"]
    assert _callers("character_table", routes) == set()
    assert _callers("character_row", routes) == {"gram.matrix_function_sums"}


def test_the_harness_moves_tensors_only_by_position_maps():
    # the harness antisymmetrizes and projects through the brute route's
    # transposition maps; the group-algebra routes are that route's oracle,
    # and the dict kernel serves only them
    harness = [SOURCE_DIR / "selfcheck.py"]
    for route in (
        "apply_algebra_element",
        "algebra_multiply",
        "column_antisymmetrizer",
        "subset_antisymmetrizer",
        "_block_sum",
    ):
        assert _callers(route, harness) == set(), route
    assert _callers("_moved_sums", sorted(SOURCE_DIR.glob("*.py"))) == {
        "tensors.apply_algebra_element",
        "symgroup.algebra_multiply",
    }


def test_permutations_are_built_only_where_one_is_returned():
    # the symmetrizers and GroupAlgebraElement.one write image tuples and
    # integer signs; a Permutation is built only by the methods that return
    # one and by the rational terms view
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert _callers("Permutation", sources) == {
        "symgroup.Permutation.inverse",
        "symgroup.compose",
        "symgroup.GroupAlgebraElement.terms",
    }
    assert _callers("identity", sources) == set()
    assert _callers("from_cycles", sources) == set()


def test_brute_loads_only_partitions_and_linalg():
    # a brute decide loads the projector, the shapes and linalg, which the
    # CLI loads anyway and which holds the tensor type; nothing is imported
    # inside a function
    imports = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and (
                child.level or (child.module or "").startswith("isotypic")
            ):
                imports.add((scope, child.module))
            if isinstance(child, ast.Import):
                imports.update((scope, a.name) for a in child.names if a.name.startswith("isotypic"))
            visit(child, getattr(child, "name", scope))

    source = (SOURCE_DIR / "brute.py").read_text()
    visit(ast.parse(source), "brute")
    assert imports == {("brute", "partitions"), ("brute", "linalg")}
    # the position maps swap two entries of each tuple; the place action
    # moves tuples for the group-algebra routes only
    assert "_place_action" not in source
    assert _callers("_place_action", sorted(SOURCE_DIR.glob("*.py"))) == {
        "symgroup.compose",
        "symgroup._moved_sums",
        "tensors.operator_rank",
    }


# every name `import isotypic` exports, by the module that defines it
EXPORTS = {
    "brute": "decomposable nonzero_after_symmetrize symmetrize",
    "characters": "CharacterTable central_idempotent character_table character_value class_size",
    "gram": "generalized_matrix_function gram_matrix",
    "linalg": "Matrix SparseTensor VectorConfiguration is_independent parse_rational",
    "matroid": "BlockCertificate LinearMatroid RankPartition decide_appears gamas_condition "
    "rank_partition rank_partition_oracle validate_certificate",
    "partitions": "Partition partitions_of syt_count weyl_dimension",
    "selfcheck": "SplitMix64 TrialSpec VerificationReport generate_configuration run_verification",
    "symgroup": "DEGREE_CAP GroupAlgebraElement Permutation Tableau algebra_multiply "
    "column_antisymmetrizer compose row_symmetrizer subset_antisymmetrizer",
    "tensors": "OPERATOR_DIMENSION_CAP apply_algebra_element operator_rank",
}


def test_package_import_loads_no_submodule():
    assert package_submodules(modules_after("import isotypic")) == set()


@pytest.mark.parametrize("name", ["VectorConfiguration", "tensors"])
def test_first_package_lookup_loads_every_library_module(name):
    # bench/tracing.install wraps only modules already in sys.modules, and
    # the traced benchmark reaches them through one lookup on the package
    loaded = modules_after(f"import isotypic; isotypic.{name}")
    assert package_submodules(loaded) == set(EXPORTS)


def test_exports_are_their_home_module_objects():
    assert len(isotypic.__all__) == 44
    assert sorted(isotypic.__all__) == sorted(
        name for names in EXPORTS.values() for name in names.split()
    )
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"isotypic.{module}")
        for name in names.split():
            assert getattr(isotypic, name) is getattr(home, name), name
    assert isotypic.tensors.VectorConfiguration is isotypic.linalg.VectorConfiguration
    assert isotypic.tensors.SparseTensor is isotypic.linalg.SparseTensor
    assert isotypic.symgroup.DEGREE_CAP is isotypic.partitions.DEGREE_CAP


@pytest.mark.parametrize(
    "name, home",
    [
        ("symmetrize", "brute"),
        ("decomposable", "brute"),
        ("nonzero_after_symmetrize", "brute"),
        ("gram_matrix", "gram"),
        ("generalized_matrix_function", "gram"),
    ],
)
def test_tensors_binds_the_traced_names_to_their_home_objects(name, home):
    # bench/tracing.py wraps these at tensors.* and replaces every module
    # attribute holding the same object, so each must be its home module's
    # own object, which the CLI and the harness call
    home = importlib.import_module(f"isotypic.{home}")
    assert getattr(isotypic.tensors, name) is getattr(home, name)


def test_only_brute_names_the_pure_tensor_helpers():
    # the pure tensor and its shape check have one home; tensors keeps only
    # the group-algebra oracles, which read brute's weight blocks
    helpers = {"_check_pure_tensor", "_pure_numerators"}
    named = {
        path.stem
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Name) and node.id in helpers
        or isinstance(node, ast.Attribute) and node.attr in helpers
        or isinstance(node, ast.alias) and node.name in helpers
    }
    assert named == {"brute"}
    tree = ast.parse((SOURCE_DIR / "tensors.py").read_text())
    private = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "brute"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == {"_block_space"}


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        isotypic.no_such_name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from isotypic import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {
        name: getattr(isotypic, name) for name in isotypic.__all__
    }
