"""Bindings for the tracer only: the seven names the benchmark's tracer hooks
at `tensors.*`, each its home module's own object."""

from .brute import decomposable, nonzero_after_symmetrize, symmetrize  # noqa: F401
from .gram import generalized_matrix_function, gram_matrix  # noqa: F401
from .symgroup import apply_algebra_element, operator_rank  # noqa: F401
