"""Exact deciders for nonvanishing of character-symmetrized pure tensors.

Four routes decide, for a list of rational vectors and a partition-shaped
symmetrization, whether the symmetrized tensor is nonzero: direct
symmetrization, the Gram-matrix generalized matrix function, an explicit
independent-partition certificate, and dominance against the transposed
rank partition; the last two share one matroid-partition engine.  The
`selfcheck` harness cross-verifies that all four agree on seeded random
instances.

Importing the package loads no submodule, so a CLI process loads only the
modules its command uses.  The first lookup on the package of an exported
name or of a library submodule (PEP 562 `__getattr__`) imports every
library submodule and binds every exported name.
"""

import importlib

# home module -> the names the package exports from it
_EXPORTS = {
    "brute": (
        "decomposable",
        "nonzero_after_symmetrize",
        "symmetrize",
    ),
    "characters": (
        "CharacterTable",
        "central_idempotent",
        "character_table",
        "character_value",
        "class_size",
    ),
    "gram": (
        "generalized_matrix_function",
        "gram_matrix",
    ),
    "linalg": (
        "Matrix",
        "SparseTensor",
        "VectorConfiguration",
        "is_independent",
        "parse_rational",
    ),
    "matroid": (
        "BlockCertificate",
        "LinearMatroid",
        "RankPartition",
        "decide_appears",
        "gamas_condition",
        "rank_partition",
        "rank_partition_oracle",
        "validate_certificate",
    ),
    "partitions": (
        "Partition",
        "partitions_of",
        "syt_count",
        "weyl_dimension",
    ),
    "selfcheck": (
        "SplitMix64",
        "TrialSpec",
        "VerificationReport",
        "generate_configuration",
        "run_verification",
    ),
    "symgroup": (
        "DEGREE_CAP",
        "GroupAlgebraElement",
        "OPERATOR_DIMENSION_CAP",
        "Permutation",
        "Tableau",
        "algebra_multiply",
        "apply_algebra_element",
        "column_antisymmetrizer",
        "compose",
        "operator_rank",
        "row_symmetrizer",
        "subset_antisymmetrizer",
    ),
    "tensors": (),  # binds names only; listed so that the first lookup loads it
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module_name, names in _EXPORTS.items():
        module = importlib.import_module(f"{__name__}.{module_name}")
        for export in names:
            globals()[export] = getattr(module, export)
    return globals()[name]
