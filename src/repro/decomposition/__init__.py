"""Graph decomposition for very large instances (Section 6.4)."""

from .dual_decomposition import DualDecompositionSolver, DualDecompositionResult

__all__ = [
    "DualDecompositionSolver",
    "DualDecompositionResult",
]
