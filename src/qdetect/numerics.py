"""Dense complex linear algebra primitives.

Thin, validating layer over numpy: an immutable square-matrix type, a shared
comparison floor, and the handful of operations the rest of the toolkit is
allowed to use (tensor products, Hermitian eigendecomposition, kernel
projectors). Dimensions are capped so a typo cannot allocate gigabytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, PreconditionError, ValidationError

# Largest dimension of any matrix. Desk scale, not HPC scale.
MAX_DIM = 4096

# Eigenvalues within this of a target count as equal to it: zero for kernel
# projectors and joint atoms, 2 for the top cluster of a common-detector claim.
EIG_CUT = 1e-8


@dataclass(frozen=True)
class Tolerance:
    """The one numerical setting: atol, the absolute comparison floor for
    matrix entries and traces. Thresholds for dimension-dependent comparisons
    come from gate(), which scales atol linearly with the dimension.
    """

    atol: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.atol < 1.0):
            raise ValidationError(f"atol must lie in (0, 1), got {self.atol}")

    def gate(self, dim: int) -> float:
        """Comparison threshold for a dim-dimensional quantity."""
        return self.atol * dim


DEFAULT_TOL = Tolerance()


class CMatrix:
    """Immutable square complex matrix.

    Wraps a read-only complex128 array. Construction validates squareness,
    the MAX_DIM cap and finiteness; everything downstream may then assume
    all three. The shape is checked before any entry is copied.
    """

    __slots__ = ("_a",)

    def __init__(self, entries) -> None:
        a = np.asarray(entries)  # no copy for an array
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] == 0:
            raise DimensionError("empty matrices are not allowed")
        if a.shape[0] > MAX_DIM:
            raise DimensionError(f"matrix dimension {a.shape[0]} exceeds the {MAX_DIM} limit")
        a = np.array(a, dtype=np.complex128, copy=True)
        if not np.all(np.isfinite(a)):
            raise ValidationError("matrix entries must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "_a", a)

    @classmethod
    def _trusted(cls, a: np.ndarray) -> "CMatrix":
        """Wrap a fresh square complex128 array, finite by construction.

        Takes ownership of `a` without copying or checking it.
        """
        a.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "_a", a)
        return m

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only ndarray."""
        return self._a

    @property
    def dim(self) -> int:
        return self._a.shape[0]

    def __setattr__(self, name, value) -> None:
        raise AttributeError("CMatrix is immutable")

    def __repr__(self) -> str:
        return f"CMatrix(dim={self.dim})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, CMatrix):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self._a, other._a))

    def __hash__(self) -> int:
        return hash((self.dim, self._a.tobytes()))

    def _same_dim(self, other: "CMatrix") -> None:
        if not isinstance(other, CMatrix):
            raise TypeError(f"expected CMatrix, got {type(other).__name__}")
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "CMatrix") -> "CMatrix":
        self._same_dim(other)
        return CMatrix(self._a + other._a)

    def __sub__(self, other: "CMatrix") -> "CMatrix":
        self._same_dim(other)
        return CMatrix(self._a - other._a)

    def __mul__(self, scalar: complex) -> "CMatrix":
        return CMatrix(self._a * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        self._same_dim(other)
        # A product of finite matrices can still overflow; the fresh array
        # needs no copy.
        out = self._a @ other._a
        if not np.all(np.isfinite(out)):
            raise ValidationError("matrix entries must be finite")
        return CMatrix._trusted(out)


def identity(dim: int) -> CMatrix:
    if dim < 1:
        raise DimensionError(f"dimension must be positive, got {dim}")
    return CMatrix(np.eye(dim, dtype=np.complex128))


def zeros(dim: int) -> CMatrix:
    if dim < 1:
        raise DimensionError(f"dimension must be positive, got {dim}")
    return CMatrix(np.zeros((dim, dim), dtype=np.complex128))


def kron(*factors: CMatrix) -> CMatrix:
    """Tensor product of one or more matrices, leftmost factor most significant.

    The product dimension may not exceed MAX_DIM.
    """
    if not factors:
        raise DimensionError("kron needs at least one factor")
    total = 1
    for f in factors:
        total *= f.dim
        if total > MAX_DIM:
            raise DimensionError(
                f"tensor product dimension exceeds the {MAX_DIM} limit"
            )
    out = factors[0].array
    for f in factors[1:]:
        out = np.kron(out, f.array)
    return CMatrix(out)


def mul(*factors: CMatrix) -> CMatrix:
    """Ordinary matrix product, left to right."""
    if not factors:
        raise DimensionError("mul needs at least one factor")
    out = factors[0]
    for f in factors[1:]:
        out = out @ f
    return out


def trace(a: CMatrix) -> complex:
    return complex(np.trace(a.array))


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-abs size of an array: the one measure of every residual."""
    return float(np.max(np.abs(a)))


def dist(a: CMatrix, b: CMatrix) -> float:
    """Entrywise max-abs distance between two matrices of the same dimension."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return max_abs(a.array - b.array)


def hermiticity_defect(a: CMatrix) -> float:
    """Max-abs size of a - a^dagger; for a = x.y with Hermitian x, y, of [x, y].

    Entries of a - a^dagger mirror each other in magnitude, so only those on
    and right of the diagonal are read, in 64-row bands that stay in cache: a
    third of the time of a full adjoint copy at dim 512.
    """
    m, bands = a.array, range(0, a.dim, 64)
    return max(max_abs(m[i : i + 64, i:] - m[i:, i : i + 64].conj().T) for i in bands)


def eigh(a: CMatrix, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (values, vectors) with real eigenvalues in ascending order and
    orthonormal eigenvectors in the columns of `vectors`. Rejects inputs whose
    Hermiticity defect exceeds the tolerance gate.
    """
    defect = hermiticity_defect(a)
    if defect > tol.gate(a.dim):
        raise PreconditionError(
            f"eigh needs a Hermitian input, defect {defect:.3e} at dim {a.dim}"
        )
    w, v = np.linalg.eigh(a.array)
    return w, v


def kernel_projector(a: CMatrix, tol: Tolerance = DEFAULT_TOL) -> CMatrix:
    """Orthogonal projector onto the kernel of a Hermitian matrix.

    Eigenvalues with |value| <= EIG_CUT are treated as zero. An invertible
    input yields the zero matrix; the zero matrix yields the identity.
    """
    w, v = eigh(a, tol)
    cols = v[:, np.abs(w) <= EIG_CUT]
    if cols.shape[1] == 0:
        return zeros(a.dim)
    return CMatrix(cols @ cols.conj().T)


def outer(u: Sequence[complex] | np.ndarray) -> CMatrix:
    """Rank-one matrix |u><u|."""
    uu = np.asarray(u, dtype=np.complex128).reshape(-1)
    return CMatrix(np.outer(uu, uu.conj()))
