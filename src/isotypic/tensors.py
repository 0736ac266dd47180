"""Bindings only: the names the benchmark's tracer hooks at `tensors.*` and
the tests import from here, each its home module's own object."""

from .brute import decomposable, nonzero_after_symmetrize, symmetrize  # noqa: F401
from .gram import generalized_matrix_function, gram_matrix  # noqa: F401
from .linalg import VectorConfiguration  # noqa: F401
from .symgroup import OPERATOR_DIMENSION_CAP, apply_algebra_element, operator_rank  # noqa: F401
