"""Scalar quaternion algebra.

A quaternion ``q = r + x*i + y*j + z*k`` is stored as four floats. The
module also provides the 4x4 real-matrix representation of a quaternion,
which the test suite uses as an independent oracle for the Hamilton
product: the matrix is a ring homomorphism, so products of quaternions
can be checked against products of plain real matrices.

Everything here is double precision and pure value semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "hamilton_product",
    "conjugate",
    "norm",
    "to_real_matrix",
    "from_matrix_column",
]

@dataclass(frozen=True)
class Quaternion:
    """Quaternion with real part ``r`` and imaginary parts ``x, y, z``."""

    r: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.r, -self.x, -self.y, -self.z)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.r, self.x, self.y, self.z)


def hamilton_product(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product ``a * b`` (non-commutative)."""
    return Quaternion(
        a.r * b.r - a.x * b.x - a.y * b.y - a.z * b.z,
        a.r * b.x + a.x * b.r + a.y * b.z - a.z * b.y,
        a.r * b.y - a.x * b.z + a.y * b.r + a.z * b.x,
        a.r * b.z + a.x * b.y - a.y * b.x + a.z * b.r,
    )


def conjugate(q: Quaternion) -> Quaternion:
    """Conjugate ``r - x*i - y*j - z*k``."""
    return Quaternion(q.r, -q.x, -q.y, -q.z)


def norm(q: Quaternion) -> float:
    """Euclidean norm of the component 4-vector.

    ``math.hypot`` scales internally, so tiny components whose squares
    would be subnormal (or huge ones whose squares overflow) keep their
    precision.
    """
    return math.hypot(q.r, q.x, q.y, q.z)


def to_real_matrix(q: Quaternion) -> np.ndarray:
    """4x4 real-matrix representation of ``q``.

    Layout::

        [  r   x   y   z ]
        [ -x   r  -z   y ]
        [ -y   z   r  -x ]
        [ -z  -y   x   r ]

    This map is a ring homomorphism: ``M(a) @ M(b) == M(a*b)``. Note the
    coordinate convention it induces: the first *column* of ``M(q)`` is
    ``(r, -x, -y, -z)``, so ``M(a)`` acts as left Hamilton multiplication
    on vectors written in those (conjugated) coordinates. See
    ``from_matrix_column``.
    """
    r, x, y, z = q.r, q.x, q.y, q.z
    return np.array(
        [
            [r, x, y, z],
            [-x, r, -z, y],
            [-y, z, r, -x],
            [-z, -y, x, r],
        ],
        dtype=np.float64,
    )


def from_matrix_column(col: np.ndarray) -> Quaternion:
    """Recover a quaternion from a first-column vector ``(r, -x, -y, -z)``."""
    c = np.asarray(col, dtype=np.float64).reshape(4)
    return Quaternion(float(c[0]), float(-c[1]), float(-c[2]), float(-c[3]))


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
