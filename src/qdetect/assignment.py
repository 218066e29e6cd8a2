"""Conditional probabilities and consistent joint value assignment.

For a projection E and any projection F (commuting or not), the sandwich
value Tr(rho.E.F.E) is the unique consistent probability for "E and F both
hold". This module computes those assignment probabilities, the conditional
probabilities they induce, the complement sum rule, the simulation
equalities that make a detector statistically indistinguishable from what it
detects, and the joint-outcome atoms of commuting families, read off one
Hermitian eigendecomposition, that serve as an independent oracle for all of
the above. The paper's other statements about one state (additivity, the
detection form equality and the conditional functional) are claim kinds of
qdetect.scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CoMeasurabilityError,
    DimensionError,
    LemmaViolationError,
    PreconditionError,
    UndefinedConditionalError,
    ValidationError,
)
from .numerics import CMatrix, DEFAULT_TOL, EIG_CUT, Tolerance, eigh
from .observables import (
    DensityOperator,
    Projection,
    _real,
    _real_trace,
    _require_commute_with,
    _require_pairwise_commuting,
    _rho_trace,
    complement,
)
from .detection import detects

# Hard cap on commuting-family size: the atom count is 2**n.
MAX_FAMILY = 12


def _sandwich(x: CMatrix, e: CMatrix, f: CMatrix, gate: float) -> float:
    """The sandwich Tr(rho.E.F.E) from x = rho.E, real for Hermitian rho, E
    and F: one product, X.F."""
    return _real_trace("Tr(rho.E.F.E)", gate, x, f, e)


def _assert_probability(p: float, gate: float, what: str) -> float:
    """Range-check a would-be probability, then clamp it to [0, 1]."""
    if p < -gate or p > 1.0 + gate:
        raise LemmaViolationError(f"{what} = {p!r} lies outside [0, 1]")
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class AssignmentProbabilities:
    """The two sandwich probabilities for F against E and its complement.

    c3_residual measures how far Tr(rho.F) is from the sum of the two, and is
    computed from unclamped traces, as 2 |Re Tr(rho.E.F) - Tr(rho.E.F.E)|.
    """

    p_e_and_f: float
    p_eprime_and_f: float
    tr_rho_f: float
    c3_residual: float


def assignment_probs(
    e: Projection,
    f: Projection,
    rho: DensityOperator,
    tol: Tolerance = DEFAULT_TOL,
) -> AssignmentProbabilities:
    """Sandwich probabilities Tr(rho.E.F.E) and Tr(rho.E'.F.E').

    f need not commute with e; that is the whole point. Takes two dense
    products, X = rho.E and X.F. Since (1-E).F.(1-E) = F - E.F - F.E + E.F.E
    for any E and F, Tr(rho.E'.F.E') = Tr(rho.F) - 2 Re Tr(rho.E.F) +
    Tr(rho.E.F.E), and the sum-rule residual is 2 |Re Tr(rho.E.F) - Tr(rho.E.F.E)|.
    Every trace reads its last factor as an O(d^2) sum, which needs E and F
    Hermitian; the Projection constructor stores them exactly so.
    """
    if not (e.dim == f.dim == rho.dim):
        raise DimensionError(
            f"dimension mismatch: e={e.dim}, f={f.dim}, rho={rho.dim}"
        )
    gate = tol.gate(e.dim)
    x = rho.matrix @ e.matrix
    raw_ef = _sandwich(x, e.matrix, f.matrix, gate)
    re_ef = _rho_trace(x, f.matrix).real
    raw_f = _real_trace("Tr(rho.F)", gate, rho.matrix, f.matrix)
    raw_epf = raw_f - 2.0 * re_ef + raw_ef
    return AssignmentProbabilities(
        p_e_and_f=_assert_probability(raw_ef, gate, "Tr(rho.E.F.E)"),
        p_eprime_and_f=_assert_probability(raw_epf, gate, "Tr(rho.E'.F.E')"),
        tr_rho_f=_assert_probability(raw_f, gate, "Tr(rho.F)"),
        c3_residual=2.0 * abs(re_ef - raw_ef),
    )


def cond_prob(
    f: Projection,
    g: Projection,
    rho: DensityOperator,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Conditional probability P(F | G) = Tr(rho.F.G) / Tr(rho.G)."""
    if f.dim != g.dim or f.dim != rho.dim:
        raise DimensionError(
            f"dimension mismatch: f={f.dim}, g={g.dim}, rho={rho.dim}"
        )
    gate = tol.gate(f.dim)
    labels = [f.name or "F", g.name or "G"]
    _require_pairwise_commuting(labels, [f.matrix, g.matrix], gate, CoMeasurabilityError)
    return _conditional(rho.matrix @ f.matrix, g, rho, gate)


def _conditional(rho_f: CMatrix, g: Projection, rho: DensityOperator, gate: float) -> float:
    """P(F | G) from rho_f = rho.F, for F and G already known to commute."""
    den = _real_trace("Tr(rho.G)", gate, rho.matrix, g.matrix)
    if den <= gate:
        raise UndefinedConditionalError(
            f"conditioning on {g.name or 'G'} with probability {den!r}"
        )
    num = _real_trace("Tr(rho.F.G)", gate, rho_f, g.matrix)
    return _assert_probability(num / den, gate, "P(F|G)")


@dataclass(frozen=True)
class SimulationEquality:
    """Comparison of conditionals given the detector vs. the detected.

    A defect of None means both conditionals in that pairing were undefined
    (probability-zero conditioning event), so there is nothing to compare.
    """

    f_name: str
    defect_outcome1: Optional[float]
    defect_outcome0: Optional[float]
    passed: bool
    note: str = ""


def simulation_equalities(
    t: Projection,
    e: Projection,
    rho: DensityOperator,
    f_list: Sequence[Projection],
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[SimulationEquality, ...]:
    """P(F|T) = P(F|E) and P(F|T') = P(F|E') for every F compatible with both.

    Requires the detection to hold; each F must commute with t and with e.
    Under detection, Tr(rho.T) = Tr(rho.E), so each pairing is either defined
    on both sides or undefined on both.
    """
    _require_commute_with(f_list, tol.gate(t.dim), detector=t, detected=e)
    check = detects(t, e, rho, tol)
    if not check.holds:
        raise PreconditionError(
            "simulation equalities are only claimed under detection; "
            f"commutes={check.commutes}, "
            f"state defect={check.state_equal_defect:.3e}"
        )
    return _simulation_equalities(t, e, rho, f_list, tol)


def _simulation_equalities(
    t: Projection,
    e: Projection,
    rho: DensityOperator,
    f_list: Sequence[Projection],
    tol: Tolerance,
) -> tuple[SimulationEquality, ...]:
    """simulation_equalities for a detecting pair and F known to commute with both."""
    gate = tol.gate(t.dim)
    pairings = ((t, e), (complement(t), complement(e)))
    results = []
    for i, f in enumerate(f_list):
        rho_f = rho.matrix @ f.matrix
        notes = []
        defects: list[Optional[float]] = []
        for a, b in pairings:
            try:
                lhs = _conditional(rho_f, a, rho, gate)
                rhs = _conditional(rho_f, b, rho, gate)
                defects.append(abs(lhs - rhs))
            except UndefinedConditionalError:
                defects.append(None)
                which = "1" if a is t else "0"
                notes.append(f"conditionals given outcome {which} undefined")
        passed = all(d <= gate for d in defects if d is not None)
        results.append(
            SimulationEquality(
                f_name=f.name or f"F{i}",
                defect_outcome1=defects[0],
                defect_outcome0=defects[1],
                passed=passed,
                note="; ".join(notes),
            )
        )
    return tuple(results)


def check_C3(
    e: Projection,
    f: Projection,
    rho: DensityOperator,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Complement sum rule: Tr(rho.F) = p(E & F) + p(E' & F)."""
    return assignment_probs(e, f, rho, tol).c3_residual <= tol.gate(e.dim)


def outcome_bits(n: int) -> np.ndarray:
    """The outcome vectors of an n-member family as a (2^n, n) uint8 array.

    Row c holds the bits of the outcome code c, first member most
    significant. This is the one map between codes and outcome vectors: a
    code's probability is probs[c], and the mass of an event is probs[mask]
    summed over the rows it selects.
    """
    return ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint outcome distribution of a commuting projection family.

    `probs` is a read-only float64 array indexed by outcome code: probs[c] is
    the probability of the outcome vector outcome_bits(n)[c]. Atoms whose raw
    probability is at most EIG_CUT are clamped to exactly zero and the rest
    renormalized; `renormalization` records the divisor (1.0 when nothing
    was clamped). The constructor copies `probs` and raises ValidationError
    unless the family has at most MAX_FAMILY names and `probs` holds 2^n
    finite, nonnegative numbers summing to 1 within 1e-9.
    """

    names: tuple[str, ...]
    probs: np.ndarray
    renormalization: float

    def __post_init__(self) -> None:
        if self.n > MAX_FAMILY:
            raise ValidationError(
                f"distribution family has {self.n} members; the limit is {MAX_FAMILY}"
            )
        probs = np.asarray(self.probs)
        if probs.shape != (2**self.n,) or probs.dtype.kind not in "iuf":
            raise ValidationError(
                f"atom probabilities must be 2^{self.n} = {2**self.n} real numbers, "
                f"got shape {probs.shape} of {probs.dtype}"
            )
        probs = probs.astype(np.float64)
        if not np.isfinite(probs).all() or probs.min() < 0.0:
            raise ValidationError("atom probabilities must be finite and nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"atom distribution sums to {total!r}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def atoms(self) -> dict[tuple[int, ...], float]:
        """`probs` keyed by outcome vector, in code order."""
        omegas = map(tuple, outcome_bits(self.n).tolist())
        return dict(zip(omegas, self.probs.tolist()))


def joint_distribution(
    observables: Sequence[Projection],
    rho: DensityOperator,
    tol: Tolerance = DEFAULT_TOL,
) -> JointDistribution:
    """Joint distribution over all 2^n outcome vectors.

    The atom for outcome vector omega is Tr(rho . prod_i E_i^(omega_i)) with
    E^1 = E and E^0 = I - E. Everything must commute pairwise, so each atom
    is a genuine probability. Then H = sum_i 2^(n-1-i) E_i has integer
    eigenvalues, and on each eigenvector the members' outcomes are the bits
    of its eigenvalue, first member most significant. One eigh of H gives
    the atoms as per-code sums of diag(V^dagger.rho.V): with the pairwise
    commutation check, n(n-1)/2 + 1 dense products whatever the support.
    An eigenvalue farther than gate * 2^n from a code in [0, 2^n) raises.
    """
    if not observables:
        raise PreconditionError("joint distribution needs at least one observable")
    n = len(observables)
    if n > MAX_FAMILY:
        raise PreconditionError(
            f"family of {n} observables would need 2^{n} atoms; the limit is {MAX_FAMILY}"
        )
    dim = rho.dim
    for i, p in enumerate(observables):
        if p.dim != dim:
            raise DimensionError(f"dimension mismatch: {p.name or '?'}={p.dim}, rho={dim}")
        if not p.name:
            raise ValidationError(f"observable {i} of the family has no name")
    gate = tol.gate(dim)
    bound = gate * 2**n
    names = tuple(p.name for p in observables)
    if len(set(names)) != len(names):
        raise ValidationError(f"observable names must be unique, got {names}")
    mats = [p.matrix for p in observables]
    _require_pairwise_commuting(names, mats, gate, CoMeasurabilityError)

    # Validation stores every member exactly Hermitian, so H is too and the
    # one triangle eigh reads stands for the whole matrix.
    h = sum(2.0 ** (n - 1 - i) * m.array for i, m in enumerate(mats))
    w, v = eigh(CMatrix._trusted(h), tol)
    codes = np.rint(w)
    bad = (np.abs(w - codes) > bound) | (codes < 0) | (codes >= 2**n)
    if bad.any():
        raise LemmaViolationError(
            f"eigenvalue {float(w[bad][0])!r} of sum_i 2^(n-1-i) E_i is no outcome "
            f"code in [0, {2**n}) within {bound:.3e}"
        )
    codes = codes.astype(np.intp)
    diag = np.einsum("ij,ij->j", v.conj(), (rho.matrix @ CMatrix._trusted(v)).array)
    re = np.bincount(codes, weights=diag.real, minlength=2**n)
    im = np.bincount(codes, weights=diag.imag, minlength=2**n)
    bits = outcome_bits(n).tolist()

    worst = int(np.argmax(np.abs(im)))
    _real(f"joint atom {tuple(bits[worst])}", bound, complex(re[worst], im[worst]))
    low = int(np.argmin(re))
    if re[low] < -gate:
        raise LemmaViolationError(f"joint atom {tuple(bits[low])} came out {float(re[low])!r}")
    total = float(re.sum())
    if abs(total - 1.0) > bound:
        raise LemmaViolationError(f"joint atoms sum to {total!r}, not 1")

    # Above dim 100 the gate exceeds EIG_CUT, so an atom in [-gate, -EIG_CUT)
    # gets here; it is clamped like every other atom at or below EIG_CUT.
    clamped = np.where(re <= EIG_CUT, 0.0, re)
    mass = float(clamped.sum())
    if mass <= 0.0:
        raise LemmaViolationError("all joint atoms were clamped to zero")
    return JointDistribution(names=names, probs=clamped / mass, renormalization=mass)
