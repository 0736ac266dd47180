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
        ("symmetrize", {"tensors.symmetrize": 1}),
        ("decide --method brute", {"tensors.nonzero_after_symmetrize": 1}),
        ("decide --method gram",
         {"tensors.gram_matrix": 1, "tensors.generalized_matrix_function": 1}),
    ],
)
def test_tracer_counts_the_cli_calls(tmp_path, argv, calls):
    # the CLI looks these up at brute and gram, and the tracer hooks them at
    # tensors.*, where they are bound as the same objects, so it replaces
    # the home modules' attributes too and a traced command is counted;
    # symmetrize builds the pure tensor's weight blocks from the rows, so
    # no decomposable runs under it
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
        "linalg.is_independent",
        "linalg.Matrix.__init__",
        "linalg.VectorConfiguration.__init__",
        "linalg.SparseTensor.__init__",
    }
    assert _callers("integer_scaled", sorted(SOURCE_DIR.glob("*.py"))) == homes


def test_no_default_argument_is_a_lambda():
    # a library function takes what it filters by as data, not a callable
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for default in node.args.defaults + node.args.kw_defaults
        if isinstance(default, ast.Lambda)
    ]
    assert found == []


def test_no_library_module_reads_the_rational_view_of_a_configuration():
    # the library reads a configuration by dim, n, rows and scales; the
    # rational view `vectors` is for callers outside it
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "vectors"
    ]
    assert readers == []


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


_CACHES = {"cache", "lru_cache", "cached_property"}


def _cache_decorated(decorator) -> bool:
    # cache, functools.cache or lru_cache(...)
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) in _CACHES


def _caches(path: Path) -> set[str]:
    """The module-qualified name of every cache in one source file: each
    function or class decorated with cache, lru_cache or cached_property,
    and each name bound to a cache(...) or lru_cache(...) call, named by
    its scope and target."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
            if any(map(_cache_decorated, node.decorator_list)):
                found.add(scope)
            children = node.body
        else:
            if isinstance(node, ast.Assign):
                targets = [getattr(t, "id", getattr(t, "attr", "?")) for t in node.targets]
                scope = f"{scope}.{','.join(targets)}"
            elif isinstance(node, ast.Call) and _cache_decorated(node.func):
                found.add(scope)
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_characters_caches_only_the_character_values_and_rows():
    # the tables, the permutation stream and the idempotents are n!- or
    # p(n)^2-sized and read by few callers, so they are rebuilt per call
    # and nothing of them stays resident
    tree = ast.parse((SOURCE_DIR / "characters.py").read_text())
    cached = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(_cache_decorated, node.decorator_list))
    }
    assert cached == {"_mn", "character_row"}


def test_every_cache_in_the_library_is_pinned():
    # a cache keeps what it holds for the life of the process, so each one
    # is a decision: brute keeps the block spaces, the Young candidates and
    # the Lagrange steps of each weight or group of shapes, characters the
    # character values and rows, and partitions the partitions and
    # conjugates; the harness computes a trial's shared values once, in
    # plain attributes, and caches nothing
    caches = set().union(*map(_caches, sorted(SOURCE_DIR.glob("*.py"))))
    assert caches == {
        "brute._young_candidates",
        "brute._BlockSpace.maps",
        "brute._BlockSpace.readers",
        "brute._block_space",
        "brute._lagrange",
        "characters._mn",
        "characters.character_row",
        "partitions._conjugate_parts",
        "partitions._partitions_of",
    }


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
    routes = [SOURCE_DIR / "gram.py", SOURCE_DIR / "brute.py", SOURCE_DIR / "symgroup.py"]
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
        "symgroup.apply_algebra_element",
        "symgroup.algebra_multiply",
    }


def test_a_trial_forms_no_part():
    # the brute route has two entries, each run as the CLI runs it: a trial
    # (its shared all-shape norms and the det-twist suite, on weight blocks
    # built from the rows) and the brute decider read squared norms from
    # Krylov moments, and parts are formed only by symmetrize, for the CLI
    # and for the parts of the identity; no multi-shape entry forms parts
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert _callers("symmetrize", sources) == {
        "cli._cmd_symmetrize",
        "selfcheck._idempotent_suite",
    }
    assert _callers("_block_norms", sources) == {
        "selfcheck._Trial.__init__",
        "selfcheck._det_twist_suite",
    }
    assert _callers("_antisymmetrized_blocks", sources) == {
        "selfcheck._column_suite",
        "selfcheck._det_twist_suite",
    }
    assert _callers("_weight_block_parts", sources) == {
        "brute.symmetrize",
        "brute._block_norms",
        "brute.nonzero_after_symmetrize",
    }
    defined = {
        path.stem
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "symmetrized_sums"
    }
    assert defined == set()


def test_brute_defines_only_its_exports_as_public_functions():
    # the kernels take weight blocks from the three entries alone: a public
    # function beside them would be a second way in
    tree = ast.parse((SOURCE_DIR / "brute.py").read_text())
    public = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public == set(isotypic._EXPORTS["brute"])


def test_no_library_module_imports_a_name_it_never_uses():
    # tensors binds names only for the tracer (noqa: F401)
    unused = set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        if path.name == "tensors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.add(f"{path.name}:{node.lineno} {name}")
    assert unused == set()


def test_one_place_writes_each_kind_of_violation_record():
    # a trial suite yields its findings and a standalone suite returns them;
    # check_trial writes every trial record and run_standalone_suite every
    # standalone one, and each entry of the trial-suite table, in run order,
    # is a module-level function
    assert _callers("_violation", sorted(SOURCE_DIR.glob("*.py"))) == {
        "selfcheck.check_trial",
        "selfcheck.run_standalone_suite",
    }
    tree = ast.parse((SOURCE_DIR / "selfcheck.py").read_text())
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["TRIAL_SUITES"]
    ]
    assert isinstance(table, ast.Dict)
    assert [key.value for key in table.keys] == [
        "matroid_oracle", "four_decider_agreement", "gram_identity", "column_criterion", "det_twist"
    ]
    assert all(isinstance(value, ast.Name) and value.id in functions for value in table.values)


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
        "symgroup.operator_rank",
    }


def test_only_symgroup_names_the_place_action_kernels():
    # the group acts on tensors from one module: no other library module
    # knows how a permutation moves an index tuple
    kernels = {"_place_action", "_moved_sums"}
    named = {
        path.stem
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Name) and node.id in kernels
        or isinstance(node, ast.Attribute) and node.attr in kernels
        or isinstance(node, ast.alias) and node.name in kernels
    }
    assert named == {"symgroup"}


def test_tensors_defines_nothing_of_its_own():
    # tensors only binds names for the tracer's tensors.* hooks: no
    # function, class or constant
    tree = ast.parse((SOURCE_DIR / "tensors.py").read_text())
    docstring, *body = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert body and all(isinstance(node, ast.ImportFrom) and node.level == 1 for node in body)
    for node in body:
        home = importlib.import_module(f"isotypic.{node.module}")
        for alias in node.names:
            assert alias.asname is None
            assert getattr(isotypic.tensors, alias.name) is getattr(home, alias.name)


def test_library_parses_at_the_declared_python_floor():
    # pyproject declares requires-python >= 3.10, so no module may use
    # syntax that a 3.10 parser rejects
    for path in sorted(SOURCE_DIR.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


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
    "symgroup": "DEGREE_CAP GroupAlgebraElement OPERATOR_DIMENSION_CAP Permutation Tableau "
    "algebra_multiply apply_algebra_element column_antisymmetrizer compose operator_rank "
    "row_symmetrizer subset_antisymmetrizer",
    "tensors": "",
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
    assert isotypic.symgroup.SparseTensor is isotypic.linalg.SparseTensor
    assert isotypic.symgroup.DEGREE_CAP is isotypic.partitions.DEGREE_CAP


@pytest.mark.parametrize(
    "name, home",
    [
        ("symmetrize", "brute"),
        ("decomposable", "brute"),
        ("nonzero_after_symmetrize", "brute"),
        ("gram_matrix", "gram"),
        ("generalized_matrix_function", "gram"),
        ("apply_algebra_element", "symgroup"),
        ("operator_rank", "symgroup"),
    ],
)
def test_tensors_binds_the_traced_names_to_their_home_objects(name, home):
    # bench/tracing.py wraps these at tensors.* and replaces every module
    # attribute holding the same object, so each must be its home module's
    # own object, which the CLI and the harness call
    home = importlib.import_module(f"isotypic.{home}")
    assert getattr(isotypic.tensors, name) is getattr(home, name)


def test_tensors_binds_exactly_the_tracer_names():
    # tensors exists for bench/tracing.py's tensors.* spans alone: a name
    # bound there and hooked nowhere is a second way in for callers;
    # test_tensors_defines_nothing_of_its_own checks that each bound name is
    # its home module's object
    traced = {attr for module, attr, _ in _bench_tracing().SPANS if module == "tensors"}
    tree = ast.parse((SOURCE_DIR / "tensors.py").read_text())
    bound = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert bound == traced


def test_only_brute_names_the_pure_tensor_helpers():
    # the pure tensor and its weight blocks have one home,
    # and only the harness's trial builds blocks from outside it; the
    # group-algebra oracles in symgroup read only brute's weight blocks
    helpers = {"_pure_numerators", "_pure_blocks"}
    named = {}
    for path in sorted(SOURCE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in helpers:
                named.setdefault(path.stem, set()).add(name)
    assert named == {"brute": helpers, "selfcheck": {"_pure_blocks"}}
    tree = ast.parse((SOURCE_DIR / "symgroup.py").read_text())
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
