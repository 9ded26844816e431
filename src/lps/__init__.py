"""Computer algebra for rational first and second order ODEs: polynomial
inverse integrating factors, inverse Jacobi multipliers, Darboux
polynomials, and elementary first integrals, all computed exactly."""

from .poly import MPoly, Rat, SquareFreeDecomposition, mpoly_gcd, squarefree_decompose

__all__ = [
    "MPoly",
    "Rat",
    "SquareFreeDecomposition",
    "mpoly_gcd",
    "squarefree_decompose",
]
__version__ = "0.1.0"
