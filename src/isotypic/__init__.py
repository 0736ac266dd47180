"""Exact deciders for nonvanishing of character-symmetrized pure tensors.

Four routes decide, for a list of rational vectors and a partition-shaped
symmetrization, whether the symmetrized tensor is nonzero: direct
symmetrization, the Gram-matrix generalized matrix function, an explicit
independent-partition certificate, and dominance against the transposed
rank partition; the last two share one matroid-partition engine.  The
`selfcheck` harness cross-verifies that all four agree on seeded random
instances.
"""

from .characters import (
    CharacterTable,
    central_idempotent,
    character_table,
    character_value,
    class_size,
)
from .linalg import (
    Matrix,
    is_independent,
    parse_rational,
)
from .matroid import (
    BlockCertificate,
    LinearMatroid,
    RankPartition,
    decide_appears,
    gamas_condition,
    rank_partition,
    rank_partition_oracle,
    validate_certificate,
)
from .partitions import (
    Partition,
    partitions_of,
    syt_count,
    weyl_dimension,
)
from .selfcheck import (
    SplitMix64,
    TrialSpec,
    VerificationReport,
    generate_configuration,
    run_verification,
)
from .symgroup import (
    DEGREE_CAP,
    GroupAlgebraElement,
    Permutation,
    Tableau,
    algebra_multiply,
    column_antisymmetrizer,
    compose,
    row_symmetrizer,
    subset_antisymmetrizer,
)
from .tensors import (
    OPERATOR_DIMENSION_CAP,
    SparseTensor,
    VectorConfiguration,
    apply_algebra_element,
    decomposable,
    generalized_matrix_function,
    gram_matrix,
    nonzero_after_symmetrize,
    operator_rank,
    symmetrize,
)

__version__ = "0.1.0"
