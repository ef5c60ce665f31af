"""Products of single algebra elements, for the tests and their oracles.
The package multiplies whole matrices and has no use for it."""
from __future__ import annotations

from gpmorita.algebra import Algebra
from gpmorita.linalg import Mat


def multiply(alg: Algebra, a: list, b: list) -> list:
    """The product of two elements, (a (x) b) @ consts."""
    F, n = alg.field, alg.dim
    return (Mat.from_rows(F, [a], n).kron(Mat.from_rows(F, [b], n))
            @ alg.consts).row(0)
