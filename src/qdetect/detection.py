"""The detection relation between a detector property and a detected one.

A projection T detects a projection E at the state rho when the two commute
and E.rho = T.rho. Equivalently (for commuting pairs) the joint outcomes
(1,0) and (0,1) both carry zero probability. This module implements both
routes, the lemma that detection transfers to complements, the theorem that
detection survives convex refinement of the state, and the constructive
search for a rank-one detector shared by two non-commuting projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    CoMeasurabilityError,
    DimensionError,
    LemmaViolationError,
    PreconditionError,
)
from .numerics import CMatrix, DEFAULT_TOL, Tolerance, eigh, hermiticity_defect, max_abs
from .observables import (
    DensityOperator,
    Projection,
    _eigh_projector,
    _real,
    _rho_trace,
    complement,
)


@dataclass(frozen=True)
class DetectionCheck:
    """Outcome of a single detection test.

    state_equal_defect is the max-abs distance between E.rho and T.rho; the
    discordance fields are the probabilities of the mismatched outcome pairs
    (1,0) and (0,1). When the pair fails to commute those joint outcomes have
    no meaning, and the magnitudes of the corresponding traces are reported
    purely as diagnostics.
    """

    commutes: bool
    commutator_defect: float
    state_equal_defect: float
    discord_10: float
    discord_01: float
    outcome1_probability: float
    holds: bool
    note: str = ""


def detects(
    t: Projection,
    e: Projection,
    rho: DensityOperator,
    tol: Tolerance = DEFAULT_TOL,
) -> DetectionCheck:
    """Operator-level detection test: commutation plus E.rho = T.rho.

    Takes two dense products, T.E and (E - T).rho. Every trace reads its
    last factor as an O(d^2) sum, which needs T, E and rho Hermitian; the
    Projection and DensityOperator constructors store them exactly so.
    """
    if not (t.dim == e.dim == rho.dim):
        raise DimensionError(
            f"dimension mismatch: t={t.dim}, e={e.dim}, rho={rho.dim}"
        )
    return _detects(t, e, rho, tol, t.matrix @ e.matrix)


def _detects(
    t: Projection, e: Projection, rho: DensityOperator, tol: Tolerance, te: CMatrix
) -> DetectionCheck:
    """detects(t, e, rho) given the product te = T.E of same-dimension operands."""
    gate = tol.gate(t.dim)
    # [T, E] = T.E - (T.E)^dagger for Hermitian T and E.
    c_defect = hermiticity_defect(te)
    commutes = c_defect <= gate
    # E - T is finite and bounded by 2 entrywise, since T and E are projections.
    e_minus_t = CMatrix._trusted(e.matrix.array - t.matrix.array)
    s_defect = max_abs((e_minus_t @ rho.matrix).array)
    holds = commutes and s_defect <= gate

    # With E' = 1 - E and T' = 1 - T, the discordances are
    # Tr(rho.T.E') = Tr(rho.T) - Tr(rho.T.E) and Tr(rho.T'.E) = Tr(rho.E) - Tr(rho.T.E),
    # all three O(d^2) sums; Tr(rho.T.E) = vdot(rho, T.E) for Hermitian rho.
    tr_t = _rho_trace(rho.matrix, t.matrix)
    tr_e = _rho_trace(rho.matrix, e.matrix)
    tr_te = complex(np.vdot(rho.matrix.array, te.array))
    raw_10 = tr_t - tr_te
    raw_01 = tr_e - tr_te
    if commutes:
        # Traces of rho against genuine projections: real up to float noise.
        d10 = min(max(_real("Tr(rho.T.E')", gate, raw_10), 0.0), 1.0)
        d01 = min(max(_real("Tr(rho.T'.E)", gate, raw_01), 0.0), 1.0)
    else:
        d10 = abs(raw_10)
        d01 = abs(raw_01)

    p1 = tr_t.real
    note = ""
    vacuous = "has probability ~0; the probability reading is vacuous on that side"
    if holds and p1 <= gate:
        note = f"outcome 1 {vacuous}"
    # Tr(rho.T') is read as its own trace, not as 1 - Tr(rho.T): the state's
    # trace is 1 only up to the gate, the scale it is judged against here.
    elif holds and _rho_trace(rho.matrix, complement(t).matrix).real <= gate:
        note = f"outcome 0 {vacuous}"
    return DetectionCheck(
        commutes=commutes,
        commutator_defect=c_defect,
        state_equal_defect=s_defect,
        discord_10=d10,
        discord_01=d01,
        outcome1_probability=min(max(p1, 0.0), 1.0),
        holds=holds,
        note=note,
    )


def detects_via_probability(
    t: Projection,
    e: Projection,
    rho: DensityOperator,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Probability-level detection test: both discordance traces vanish.

    Only defined for commuting pairs, where the joint outcomes exist.
    """
    check = detects(t, e, rho, tol)
    if not check.commutes:
        raise CoMeasurabilityError(
            "joint outcome probabilities are undefined for a non-commuting "
            f"pair (commutator defect {check.commutator_defect:.3e})"
        )
    gate = tol.gate(t.dim)
    return check.discord_10 <= gate and check.discord_01 <= gate


def complement_lemma_check(
    t: Projection,
    e: Projection,
    rho: DensityOperator,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Detection holds for (T, E) exactly when it holds for (T', E').

    Returns the shared truth value; a disagreement between the two sides
    would be a numerics bug and raises instead of returning.
    """
    return _complement_lemma(t, e, rho, tol, detects(t, e, rho, tol).holds)


def _complement_lemma(
    t: Projection, e: Projection, rho: DensityOperator, tol: Tolerance, direct: bool
) -> bool:
    """complement_lemma_check given the verdict `direct` of detects(t, e, rho)."""
    complemented = detects(complement(t), complement(e), rho, tol).holds
    if direct != complemented:
        raise LemmaViolationError(
            f"complement lemma violated: (T,E) gives {direct}, "
            f"(T',E') gives {complemented}"
        )
    return direct


def refinement_check(
    t: Projection,
    e: Projection,
    rho1: DensityOperator,
    rho2: DensityOperator,
    lambda1: float,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Detection at a mixture persists at its components.

    Verifies detects(t, e, rho1).holds given that detection holds at
    lambda1*rho1 + (1-lambda1)*rho2. The theorem says the result is always
    true; returning it rather than asserting keeps counterexample hunting
    honest.
    """
    if not (0.0 < lambda1 <= 1.0):
        raise PreconditionError(f"lambda1 must lie in (0, 1], got {lambda1}")
    mixture = DensityOperator(
        lambda1 * rho1.matrix + (1.0 - lambda1) * rho2.matrix,
        name="mixture",
        tol=tol,
    )
    at_mixture = detects(t, e, mixture, tol)
    if not at_mixture.holds:
        raise PreconditionError(
            "refinement check needs a detecting mixture; state-equality "
            f"defect {at_mixture.state_equal_defect:.3e}, "
            f"commutes={at_mixture.commutes}"
        )
    return detects(t, e, rho1, tol).holds


def rank_one_detector(
    e: Projection,
    f: Projection,
    tol: Tolerance = DEFAULT_TOL,
) -> Optional[Projection]:
    """Rank-one projection detecting both e and f at its own pure state.

    Looks for a unit vector inside range(e) & range(f) by diagonalizing
    e + f and keeping eigenvalue-2 eigenvectors (the spectrum lives in
    [0, 2] and the top cluster is exactly the intersection). Returns the
    projector onto one such vector, or None when the ranges meet trivially.
    The construction works whether or not e and f commute.
    """
    if e.dim != f.dim:
        raise DimensionError(f"dimension mismatch: {e.dim} vs {f.dim}")
    w, v = eigh(e.matrix + f.matrix, tol)
    top = np.flatnonzero(w >= 2.0 - tol.eig_cut)
    if top.size == 0:
        return None
    psi = v[:, int(top[-1])]
    name = f"[{e.name}&{f.name}]" if e.name and f.name else "rank-one detector"
    return _eigh_projector(np.outer(psi, psi.conj()), name, tol)
