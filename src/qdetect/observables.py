"""Projections, density operators, and two-valued observables.

A yes/no property is an orthogonal projection; a state is a density operator;
a +-1 valued observable is carried by the projection onto its +1 eigenspace.
This module owns the algebra on those objects: complements, commutators, the
projector measuring where two properties are jointly decided, and the
half-sum construction that turns a signed product of +-1 observables back
into a projection.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .errors import (
    LemmaViolationError,
    PreconditionError,
    ToolkitError,
    ValidationError,
)
from .numerics import (
    DEFAULT_TOL,
    CMatrix,
    Tolerance,
    dist,
    hermiticity_defect,
    identity,
    kernel_projector,
    mul,
    outer,
    trace,
)


def _gate(op, tol: Tolerance) -> float:
    """The gate of op's matrix, which must be a CMatrix."""
    if not isinstance(op.matrix, CMatrix):
        got = type(op.matrix).__name__
        raise ValidationError(f"{type(op).__name__} needs a CMatrix, got {got}: wrap it in CMatrix")
    return tol.gate(op.matrix.dim)


def _store_hermitian_part(op, gate: float) -> float:
    """Hermiticity defect of op.matrix; a defect within the gate is removed.

    The one-product routes (commutator defect, last-factor traces,
    discordances) assume exactly Hermitian operands. A matrix that is
    Hermitian only up to the gate is therefore replaced by its Hermitian
    part (M + M^dagger) / 2, which is exactly Hermitian in floating point.
    Exactly Hermitian input is kept as it is, and a defect above the gate is
    left for the caller to reject.
    """
    herm = hermiticity_defect(op.matrix)
    if 0.0 < herm <= gate:
        a = op.matrix.array
        object.__setattr__(op, "matrix", CMatrix._trusted(0.5 * (a + a.conj().T)))
    return herm


@dataclass(frozen=True)
class Projection:
    """An orthogonal projection with an optional display name.

    Validation measures both defining defects (Hermiticity and idempotency)
    and reports whichever exceed the gate, so a broken input names every
    violated invariant at once. An admitted input that is not exactly
    Hermitian is stored as its Hermitian part.
    """

    matrix: CMatrix
    name: str = ""
    tol: InitVar[Tolerance] = DEFAULT_TOL  # sets the gate; not stored

    def __post_init__(self, tol: Tolerance) -> None:
        gate = _gate(self, tol)
        herm = _store_hermitian_part(self, gate)
        idem = dist(self.matrix @ self.matrix, self.matrix)
        problems = []
        if herm > gate:
            problems.append(f"hermiticity defect {herm:.3e}")
        if idem > gate:
            problems.append(f"idempotency defect {idem:.3e}")
        if problems:
            label = self.name or "projection"
            raise ValidationError(f"{label}: " + ", ".join(problems))

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @classmethod
    def _trusted(cls, matrix: CMatrix, name: str) -> "Projection":
        """A projection valid by construction; skips the O(d^3) validation."""
        p = object.__new__(cls)
        p.__dict__.update(matrix=matrix, name=name)
        return p

    def rank(self) -> int:
        # Eigenvalues of a valid projection cluster at 0 and 1.
        return int(round(trace(self.matrix).real))

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"Projection({label}, dim={self.dim}, rank={self.rank()})"


def _unit_vector(vector) -> np.ndarray:
    """`vector` as a read-only complex unit vector, by the rule of `pure`.

    The norm is taken of `vector` scaled by 2**-e, where 2**e is the power
    of two just above its largest entry, so it cannot overflow. Scaling by
    a power of two is exact, so the norm and the quotients are those of the
    unscaled vector wherever that did not overflow.
    """
    v = np.array(vector, dtype=np.complex128, copy=True).reshape(-1)
    if not np.isfinite(v).all():
        raise ValidationError("pure state vector entries must be finite")
    top = float(np.abs(v).max(initial=0.0))
    if top == 0.0:
        raise ValidationError("pure state vector must be nonzero")
    e = math.frexp(top)[1]
    scaled = np.ldexp(v.view(np.float64), -e).view(np.complex128)
    norm = float(np.linalg.norm(scaled))
    # |vector| = norm * 2**e can lie near 1 only for small e, where ldexp is finite.
    if abs(e) > 64 or abs(math.ldexp(norm, e) - 1.0) > 1e-12:
        v = scaled / norm
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class DensityOperator:
    """A state: Hermitian, unit-trace, positive semidefinite.

    Eigenvalues may dip below zero by at most the gate; anything worse is
    rejected rather than silently clipped. As with Projection, an admitted
    input that is not exactly Hermitian is stored as its Hermitian part.
    A state built by `pure` also keeps its unit vector as `vector`.
    """

    matrix: CMatrix
    name: str = ""
    tol: InitVar[Tolerance] = DEFAULT_TOL  # sets the gate; not stored
    # The read-only unit vector of a state built by `pure`; None otherwise.
    vector: Optional[np.ndarray] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self, tol: Tolerance) -> None:
        self._validate(tol)

    def _validate(self, tol: Tolerance) -> None:
        gate = _gate(self, tol)
        problems = []
        herm = _store_hermitian_part(self, gate)
        if herm > gate:
            problems.append(f"hermiticity defect {herm:.3e}")
        tr_defect = abs(trace(self.matrix) - 1.0)
        if tr_defect > gate:
            problems.append(f"trace defect {tr_defect:.3e}")
        # |v><v| is positive semidefinite for every v, so `pure` skips this.
        if self.vector is None and herm <= gate:
            lo = float(np.min(np.linalg.eigvalsh(self.matrix.array)))
            if lo < -gate:
                problems.append(f"negative eigenvalue {lo:.3e}")
        if problems:
            label = self.name or "state"
            raise ValidationError(f"{label}: " + ", ".join(problems))

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @classmethod
    def pure(
        cls, vector, name: str = "", tol: Tolerance = DEFAULT_TOL
    ) -> "DensityOperator":
        """The rank-one state |v><v|, which keeps v read-only as `vector`.

        v is `vector` itself if its norm lies within 1e-12 of 1, so a pure
        state saved and loaded again is the same state bit for bit; any other
        nonzero vector is divided by its norm once. |v><v| is positive
        semidefinite for every v, so the O(d^3) eigenvalue check is skipped;
        Hermiticity and trace are checked as for any state, and the stored
        matrix is the one the full validation would store.
        """
        unit = _unit_vector(vector)
        rho = object.__new__(cls)
        rho.__dict__.update(matrix=outer(unit), name=name, vector=unit)
        rho._validate(tol)
        return rho

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"DensityOperator({label}, dim={self.dim})"


# Each `tol` default stays with its __init__; as a class attribute it would
# read as the tolerance an instance was validated with.
del Projection.tol, DensityOperator.tol


def complement(p: Projection) -> Projection:
    """The negation 1 - P of a property; it inherits the defects of P."""
    name = f"{p.name}'" if p.name else ""
    m = np.eye(p.dim, dtype=np.complex128)
    m -= p.matrix.array  # finite because P is
    return Projection._trusted(CMatrix._trusted(m), name=name)


def commutator_defect(a: CMatrix, b: CMatrix) -> float:
    """Max-abs size of [a, b] for Hermitian a and b; zero means compatible.

    For Hermitian inputs b.a = (a.b)^dagger, so the commutator costs one
    product. Every caller passes validated projections or +-1 observables;
    for non-Hermitian inputs this is not the size of a.b - b.a.
    """
    return hermiticity_defect(a @ b)


def commutes(a: Projection, b: Projection, tol: Tolerance = DEFAULT_TOL) -> bool:
    return commutator_defect(a.matrix, b.matrix) <= tol.gate(a.dim)


def _require_pairwise_commuting(
    labels: Sequence[str], mats: Sequence[CMatrix], gate: float, error: type[ToolkitError]
) -> None:
    """Raise `error` naming the first pair of mats whose commutator exceeds gate."""
    for i, j in combinations(range(len(mats)), 2):
        defect = commutator_defect(mats[i], mats[j])
        if defect > gate:
            raise error(
                f"observables {labels[i]} and {labels[j]} do not commute (defect {defect:.3e})"
            )


def _require_commute_with(fs: Sequence[Projection], gate: float, **fixed: Projection) -> None:
    """Raise PreconditionError unless every F commutes with each named projection."""
    for i, f in enumerate(fs):
        for role, other in fixed.items():
            labels = (f.name or f"F{i}", f"the {role}")
            _require_pairwise_commuting(labels, (f.matrix, other.matrix), gate, PreconditionError)


def _rho_trace(rho: CMatrix, *ops: CMatrix) -> complex:
    """Tr(rho . ops[0] . ops[1] ...), the product taken left to right.

    The last factor B must be Hermitian: it enters through
    Tr(M.B) = sum of M o B^T = vdot(B, M), so k factors after rho cost k - 1
    products and Tr(rho.F) costs none. Every caller's last factor is a
    validated projection; `rho` itself may be any matrix.
    """
    if not ops:
        return trace(rho)
    m = mul(rho, *ops[:-1]).array
    return complex(np.vdot(ops[-1].array, m))


def _real(what: str, gate: float, value: complex) -> float:
    """The real part of a trace that is real by construction; raises if not."""
    if abs(value.imag) > gate:
        raise LemmaViolationError(
            f"{what} has imaginary part {value.imag:.3e}; "
            "this trace is real by construction, so something upstream broke"
        )
    return value.real


def _real_trace(what: str, gate: float, rho: CMatrix, *ops: CMatrix) -> float:
    """Tr(rho.ops...), which must be real up to float noise; raises if not."""
    return _real(what, gate, _rho_trace(rho, *ops))


def commutation_projection(
    a: Projection, b: Projection, tol: Tolerance = DEFAULT_TOL
) -> Projection:
    """Projector onto the subspace where the two properties are co-decided.

    This is the kernel projector of i[A, B] (Hermitian, same kernel as the
    commutator). It equals the identity exactly when the pair commutes, and is
    the zero matrix for maximally incompatible pairs.
    """
    # i(AB - (AB)^dagger) from one product: exactly Hermitian in floating point.
    ab = (a.matrix @ b.matrix).array
    c = CMatrix._trusted(1j * (ab - ab.conj().T))
    name = ""
    if a.name and b.name:
        name = f"C({a.name},{b.name})"
    return _eigh_projector(kernel_projector(c, tol).array, name)


def _eigh_projector(k: np.ndarray, name: str) -> Projection:
    """The projection k, built from eigh's orthonormal columns, unvalidated.

    Such a projector needs no idempotency check (a d^3 product), and its
    Hermiticity defect is rounding: it is stored as validation stores it.
    """
    p = Projection._trusted(CMatrix._trusted(k), name=name)
    _store_hermitian_part(p, math.inf)
    return p


def derived_projection(
    coeff: int,
    factors: Sequence[Projection],
    tol: Tolerance = DEFAULT_TOL,
    name: str = "",
) -> Projection:
    """Projection (1 + coeff * A_1 ... A_k) / 2 with A_i = 2 P_i - 1.

    Each +-1 observable A_i is fixed by its +1 projection P_i, and the
    product of commuting +-1 observables is again one, so the half-sum is a
    projection. coeff must be +1 or -1; the A_i must commute pairwise or the
    half-sum would not even be Hermitian.
    """
    if coeff not in (1, -1):
        raise ValidationError(f"coefficient must be +1 or -1, got {coeff}")
    if not factors:
        raise ValidationError("derived_projection needs at least one factor")
    dim = factors[0].dim
    ops = [2.0 * p.matrix - identity(dim) for p in factors]
    labels = [p.name or str(i) for i, p in enumerate(factors)]
    _require_pairwise_commuting(labels, ops, tol.gate(dim), PreconditionError)
    matrix = 0.5 * (identity(dim) + float(coeff) * mul(*ops))
    if not name:
        sign = "+" if coeff == 1 else "-"
        body = "*".join(f"(2{p.name or '?'}-1)" for p in factors)
        name = f"(1{sign}{body})/2"
    return Projection(matrix, name=name, tol=tol)
