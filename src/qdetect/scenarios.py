"""Named concrete constructions and scenario files.

Three built-in scenarios:

* a four-qubit GHSZ-style setup whose four detection relations, combined
  with a sign-constraint system that has no joint +-1 solution, rule out
  reading detector outcomes as pre-existing measured values;
* a two-dimensional counterexample where the complement sum rule fails for
  two pure states yet holds for their even mixture;
* a four-dimensional pair of non-commuting rank-two projections sharing a
  common unit eigenvector, giving a rank-one detector for both.

Scenarios serialize to JSON with each complex entry an [re, im] number pair,
written by one encoder and read by one decoder (ScenarioFormatError for bad
nesting or leaves, DimensionError for a wrong size); loading decodes each
array as soon as it is parsed, so it holds one array's lists at a time, and
re-validates all.
A pure state (one built by DensityOperator.pure) is written as its vector,
any other state as its matrix.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import MISSING, dataclass, fields
from functools import cache
from itertools import combinations
from typing import Optional, Union

import numpy as np

from .errors import (
    DimensionError,
    PreconditionError,
    ScenarioFormatError,
    UnknownObservableError,
    ValidationError,
)
from .numerics import (
    CMatrix, DEFAULT_TOL, EIG_CUT, MAX_DIM, Tolerance, dist, eigh, hermiticity_defect, identity,
    kron, max_abs, outer,
)
from .observables import (
    DensityOperator, Projection, _eigh_projector, _real_trace, _unit_vector, derived_projection,
)
from .detection import DetectionCheck, _detects
from .assignment import _sandwich, assignment_probs
from .reporting import CheckResult, Report

# The seven outcome symbols of the sign-constraint system, in display order.
CONSTRAINT_SYMBOLS = (
    "a_alpha",
    "a_beta",
    "b",
    "c_alpha",
    "c_beta",
    "d_alpha",
    "d_beta",
)

# Most symbols a constraint set may declare. Solutions are counted by
# elimination, so the cap bounds the size of the counts (2^64 at most, still
# exact as a float residual and short as a detail string), not the work.
MAX_SYMBOLS = 64


@dataclass(frozen=True)
class SignEquation:
    """left product = sign * right product, over +-1 symbols."""

    left: tuple[str, ...]
    right: tuple[str, ...]
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValidationError(f"equation sign must be +1 or -1, got {self.sign}")
        if not self.left or not self.right:
            raise ValidationError("equation monomials must be nonempty")


@dataclass(frozen=True)
class ConstraintSet:
    """A conjunction of sign equations over a fixed symbol list."""

    symbols: tuple[str, ...]
    equations: tuple[SignEquation, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) > MAX_SYMBOLS:
            raise ValidationError(
                f"constraint set declares {len(self.symbols)} symbols; "
                f"at most {MAX_SYMBOLS} are allowed"
            )
        known = set(self.symbols)
        if len(known) != len(self.symbols):
            raise ValidationError(f"constraint symbols must be unique, got {self.symbols}")
        for eq in self.equations:
            for s in eq.left + eq.right:
                if s not in known:
                    raise ValidationError(f"equation uses undeclared symbol {s!r}")


def ghsz_sign_constraints() -> ConstraintSet:
    """The four product constraints of the GHSZ-style scenario."""
    def eq(left, right, sign):
        return SignEquation(tuple(left), tuple(right), sign)

    return ConstraintSet(
        symbols=CONSTRAINT_SYMBOLS,
        equations=(
            eq(("a_alpha", "b"), ("c_alpha", "d_alpha"), -1),
            eq(("a_beta", "b"), ("c_beta", "d_alpha"), -1),
            eq(("a_beta", "b"), ("c_alpha", "d_beta"), -1),
            eq(("a_alpha", "b"), ("c_beta", "d_beta"), 1),
        ),
    )


def _solution_count(cs: ConstraintSet) -> tuple[int, list[int]]:
    """Number of +-1 assignments satisfying cs, by elimination over GF(2), and
    for a count of 0 the indices of equations that together refute cs.

    With s = (-1)**x each equation is one row: XOR of x over left and right
    (a repeated symbol cancels) = [sign == -1]. A consistent system of rank
    r over k symbols has 2**(k - r) solutions, an inconsistent one none.
    A row also carries the set of pivots it was reduced by (at most k), so a
    row reduced to the bare sign bit names the equations it is the sum of.
    The tests check the count against a brute force over all 2**k signs.
    """
    bit = {s: 2 << i for i, s in enumerate(cs.symbols)}  # bit 0 holds the sign
    sources: list[int] = []  # the equation each pivot row started from
    pivots: dict[int, tuple[int, int]] = {}  # bit length -> (row, bits of `sources` summed)
    for i, eq in enumerate(cs.equations):
        row, used = int(eq.sign == -1), 0
        for s in eq.left + eq.right:
            row ^= bit[s]
        while row.bit_length() in pivots:
            pivot, pivot_used = pivots[row.bit_length()]
            row ^= pivot
            used ^= pivot_used
        if row == 1:
            return 0, [j for p, j in enumerate(sources) if used >> p & 1] + [i]
        if row:
            pivots[row.bit_length()] = (row, used | 1 << len(sources))
            sources.append(i)
    return 2 ** (len(cs.symbols) - len(pivots)), []


# A claim kind is one class and one _CLAIM_KINDS entry. Its fields are the
# fields of its file entry (a ConstraintSet as symbols and equations, a
# tuple[str, ...] as an array of names), and `judge` makes its report line
# from product(a, b), a memoized A.B. A claim whose precondition fails gives
# a failing line that names the failure.


@dataclass(frozen=True)
class CommutationClaim:
    a: str
    b: str
    expected: bool = True

    kind = "commute"

    def judge(self, scn: Scenario, tol: Tolerance, product) -> CheckResult:
        # The commutator of Hermitian A and B is A.B - (A.B)^dagger.
        defect = hermiticity_defect(product(self.a, self.b))
        passed = (defect <= tol.gate(scn.dim)) == self.expected
        detail = "" if self.expected else "expected non-commuting"
        name = f"commutation:{self.a}~{self.b}"
        return CheckResult(name, passed, defect, "claim:commute", detail)


@dataclass(frozen=True)
class DetectionClaim:
    t: str
    e: str

    kind = "detect"

    def judge(self, scn: Scenario, tol: Tolerance, product) -> CheckResult:
        t, e = scn.observable(self.t), scn.observable(self.e)
        check = _detects(t, e, scn.state, tol, product(self.t, self.e))
        residual, detail = _detection_account(check, tol.gate(scn.dim))
        name = f"detection:{self.t}->{self.e}"
        return CheckResult(name, check.holds, residual, "claim:detect", detail)


def _detection_account(check: DetectionCheck, gate: float) -> tuple[float, str]:
    """The residual of a detection line, the largest judged value, and its
    detail: each judged value over the gate (a passing check has none), else
    the check's note. A non-commuting pair has no joint outcomes to be discordant."""
    residual = max(
        check.commutator_defect, check.state_equal_defect, check.discord_10, check.discord_01
    )
    judged = {"commutator [T,E]": check.commutator_defect}
    if check.commutes:
        judged = {
            "state defect (E-T).rho": check.state_equal_defect,
            "Tr(rho.T.E')": check.discord_10,
            "Tr(rho.T'.E)": check.discord_01,
        }
    over = [f"{what} = {v:.3e} > gate {gate:.3e}" for what, v in judged.items() if v > gate]
    return residual, "; ".join(over) or check.note


@dataclass(frozen=True)
class CommonDetectorClaim:
    """Some rank-one T = |psi><psi| detects both E and F at its own pure state
    psi, whether or not E and F commute. The spectrum of E + F lies in [0, 2]
    and its top cluster spans range(E) & range(F); psi is one of its vectors.
    The line does not read the scenario's state."""

    e: str
    f: str

    kind = "common-detector"

    def judge(self, scn: Scenario, tol: Tolerance, product) -> CheckResult:
        name = f"common-detector:{self.e}~{self.f}"
        meet = f"range({self.e}) & range({self.f})"
        w, v = eigh(scn.observable(self.e).matrix + scn.observable(self.f).matrix, tol)
        top = np.flatnonzero(w >= 2.0 - EIG_CUT)
        if top.size == 0:
            gap = float(2.0 - w[-1])
            detail = f"{meet} = 0: {self.e}+{self.f} has top eigenvalue 2 - {gap:.3e}"
            return CheckResult(name, False, gap, "claim:common-detector", detail)
        psi = v[:, int(top[-1])]
        t = _eigh_projector(np.outer(psi, psi.conj()), f"[{self.e}&{self.f}]")
        rho = DensityOperator.pure(psi, tol=tol)
        gate = tol.gate(scn.dim)
        residual, failing = 0.0, []
        for x in (self.e, self.f):
            p = scn.observable(x)
            check = _detects(t, p, rho, tol, t.matrix @ p.matrix)
            value, account = _detection_account(check, gate)
            residual = max(residual, value)
            if not check.holds:
                failing.append(f"|psi><psi| does not detect {x}: {account}")
        detail = "; ".join(failing) or f"{meet} has dimension {top.size}"
        return CheckResult(name, not failing, float(residual), "claim:common-detector", detail)


@dataclass(frozen=True)
class ConstraintClaim:
    constraints: ConstraintSet
    satisfiable: bool = False

    kind = "constraints"

    def judge(self, scn: Scenario, tol: Tolerance, product) -> CheckResult:
        count, refuting = _solution_count(self.constraints)
        passed = (count > 0) == self.satisfiable
        detail = f"{count} of {2 ** len(self.constraints.symbols)} sign assignments satisfy"
        if refuting:
            label = "equations" if len(refuting) > 1 else "equation"
            numbers = ", ".join(str(i + 1) for i in refuting)
            detail += f"; {label} {numbers}: every symbol cancels and the signs multiply to -1"
        name = "constraints:satisfiable"
        return CheckResult(name, passed, float(count), "claim:constraints", detail)


@dataclass(frozen=True)
class SumRuleClaim:
    e: str
    f: str

    kind = "sum-rule"

    def judge(self, scn: Scenario, tol: Tolerance, product) -> CheckResult:
        probs = assignment_probs(scn.observable(self.e), scn.observable(self.f), scn.state, tol)
        passed = probs.c3_residual <= tol.gate(scn.dim)
        detail = (
            f"p(E&F)={probs.p_e_and_f!r} p(E'&F)={probs.p_eprime_and_f!r} "
            f"Tr(rho.F)={probs.tr_rho_f!r}"
        )
        name = f"sum-rule:{self.e}~{self.f}"
        return CheckResult(name, passed, probs.c3_residual, "claim:sum-rule", detail)


def _unmet_detection(scn: Scenario, tol: Tolerance, product, t: str, e: str, fs) -> Optional[tuple]:
    """The value and account of the first unmet precondition of a claim made under
    the detection of e by t about observables fs that commute with t, if any."""
    detection = DetectionClaim(t, e).judge(scn, tol, product)
    if not detection.passed:
        return detection.residual, f"{detection.name} fails: {detection.detail}"
    gate = tol.gate(scn.dim)
    for f in fs:
        defect = hermiticity_defect(product(f, t))
        if defect > gate:
            return defect, f"commutator [{f},{t}] = {defect:.3e} > gate {gate:.3e}"
    return None


@dataclass(frozen=True)
class AdditivityClaim:
    """p(E & F_1 + ... + F_k) = p(E & F_1) + ... + p(E & F_k), p(E & F) being
    Tr(rho.E.F.E), for pairwise orthogonal F_j; E need commute with none."""

    e: str
    fs: tuple[str, ...]

    kind = "additivity"

    def judge(self, scn: Scenario, tol: Tolerance, product) -> CheckResult:
        name = f"additivity:{self.e}~{'+'.join(self.fs)}"
        gate = tol.gate(scn.dim)
        for a, b in combinations(self.fs, 2):
            overlap = max_abs(product(a, b).array)
            if overlap > gate:
                detail = f"overlap {a}.{b} = {overlap:.3e} > gate {gate:.3e}"
                return CheckResult(name, False, overlap, "claim:additivity", detail)
        e = scn.observable(self.e).matrix
        x = scn.state.matrix @ e
        mats = [scn.observable(f).matrix for f in self.fs]
        parts = sum((_sandwich(x, e, m, gate) for m in mats), 0.0)
        # A sum of orthogonal projections is a projection.
        total = CMatrix._trusted(sum((m.array for m in mats), np.zeros_like(e.array)))
        whole = _sandwich(x, e, total, gate)
        residual = abs(whole - parts)
        passed = residual <= gate * max(1, len(mats))
        detail = f"p(E&sum F)={whole!r} sum p(E&F)={parts!r}"
        return CheckResult(name, passed, residual, "claim:additivity", detail)


@dataclass(frozen=True)
class FormEqualityClaim:
    """Under the detection of E by T, Tr(rho.E.F.E) = Tr(rho.F.T) for an F
    that commutes with T."""

    t: str
    e: str
    f: str

    kind = "form-equality"

    def judge(self, scn: Scenario, tol: Tolerance, product) -> CheckResult:
        name = f"form-equality:{self.t}->{self.e}~{self.f}"
        unmet = _unmet_detection(scn, tol, product, self.t, self.e, [self.f])
        if unmet:
            return CheckResult(name, False, unmet[0], "claim:form-equality", unmet[1])
        gate = tol.gate(scn.dim)
        rho, e = scn.state.matrix, scn.observable(self.e).matrix
        sandwich = _sandwich(rho @ e, e, scn.observable(self.f).matrix, gate)
        # Tr(F.T.rho) from the F.T the commutation check formed.
        joint = _real_trace("Tr(rho.F.T)", gate, product(self.f, self.t), rho)
        residual = abs(sandwich - joint)
        detail = f"Tr(rho.E.F.E)={sandwich!r} Tr(rho.F.T)={joint!r}"
        return CheckResult(name, residual <= gate, residual, "claim:form-equality", detail)


@dataclass(frozen=True)
class CzClaim:
    """Under the detection of E by T, the conditional functional
    P(F|E) = Tr(rho.E.F.E) / Tr(rho.E) on observables fs that commute with T
    is a conditional probability: P(I|E) = 1, P(F+G|E) = P(F|E) + P(G|E) for
    each orthogonal pair of fs, and P(F|E) = Tr(rho.F) / Tr(rho.E) for each
    F <= E of fs."""

    t: str
    e: str
    fs: tuple[str, ...]

    kind = "cz"

    def judge(self, scn: Scenario, tol: Tolerance, product) -> CheckResult:
        name = f"cz:{self.t}->{self.e}~{','.join(self.fs)}"
        unmet = _unmet_detection(scn, tol, product, self.t, self.e, self.fs)
        gate = tol.gate(scn.dim)
        rho, e = scn.state.matrix, scn.observable(self.e).matrix
        den = _real_trace("Tr(rho.E)", gate, rho, e)
        if not unmet and den <= gate:
            unmet = den, f"Tr(rho.E) = {den:.3e} <= gate {gate:.3e}, so P(F|E) is undefined"
        if unmet:
            return CheckResult(name, False, unmet[0], "claim:cz", unmet[1])
        x = rho @ e
        mats = {f: scn.observable(f).matrix for f in self.fs}
        p = {f: _sandwich(x, e, m, gate) / den for f, m in mats.items()}
        off = {"P(I|E) = 1": abs(_sandwich(x, e, identity(scn.dim), gate) / den - 1.0)}
        for a, b in combinations(mats, 2):
            if max_abs(product(a, b).array) <= gate:
                both = _sandwich(x, e, mats[a] + mats[b], gate) / den
                off[f"P({a}+{b}|E) additive"] = abs(both - p[a] - p[b])
        for f, m in mats.items():
            if dist(product(self.e, f), m) <= gate:  # F <= E: E absorbs F
                ratio = _real_trace("Tr(rho.F)", gate, rho, m) / den
                off[f"P({f}|E) = Tr(rho.{f})/Tr(rho.E)"] = abs(p[f] - ratio)
        over = [f"{what} off by {v:.3e} > gate {gate:.3e}" for what, v in off.items() if v > gate]
        lines = over or ["holds: " + ", ".join(off)]
        if p:
            lines.append(" ".join(f"P({f}|E)={v!r}" for f, v in p.items()))
        detail = "; ".join(lines)
        return CheckResult(name, not over, max(off.values()), "claim:cz", detail)


_CLAIM_KINDS = {cls.kind: cls for cls in (
    CommutationClaim, DetectionClaim, ConstraintClaim, SumRuleClaim,
    AdditivityClaim, FormEqualityClaim, CzClaim, CommonDetectorClaim,
)}
_CLAIM_CLASSES = tuple(_CLAIM_KINDS.values())
Claim = Union[_CLAIM_CLASSES]


@dataclass(frozen=True, eq=False)
class Scenario:
    """A named state, named projections, and the claims made about them.

    Equality compares the scenario name, the dimension, the state and
    observable matrices and a pure state's vector bit for bit, and the
    claims; display names of individual operators are not part of equality.
    """

    name: str
    dim: int
    state: DensityOperator
    observables: dict[str, Projection]
    declared_claims: tuple[Claim, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ScenarioFormatError(f"name: expected a string, got {self.name!r}")
        _check_dim(self.dim)
        if self.state.dim != self.dim:
            raise DimensionError(
                f"state dimension {self.state.dim} does not match scenario dim {self.dim}"
            )
        for key, p in self.observables.items():
            if not isinstance(key, str):
                raise ScenarioFormatError(f"observables: a name must be a string, got {key!r}")
            if not key:
                raise ScenarioFormatError("observables: an observable name must not be empty")
            if p.dim != self.dim:
                raise DimensionError(
                    f"observable {key!r} has dimension {p.dim}, expected {self.dim}"
                )
        # Own copies (the caller may edit its dict or list later, and a
        # generator is read once); claims compare as a tuple.
        object.__setattr__(self, "observables", dict(self.observables))
        object.__setattr__(self, "declared_claims", tuple(self.declared_claims))
        # Every string field of a claim names an observable, as does each
        # entry of a list field, which must have one.
        referenced = set()
        for i, c in enumerate(self.declared_claims):
            if not isinstance(c, _CLAIM_CLASSES):
                raise ValidationError(f"declared_claims[{i}]: a {type(c).__name__}, not a claim")
            for f in fields(c):
                if f.type == "str":
                    referenced.add(getattr(c, f.name))
                elif f.type == "tuple[str, ...]":
                    names = getattr(c, f.name)
                    if not isinstance(names, tuple):  # a list would not equal the loaded tuple
                        raise ValidationError(f"{c.kind} claim: {f.name} is {names}, not a tuple")
                    if not names:
                        raise ValidationError(f"{c.kind} claim: {f.name} is empty")
                    referenced.update(names)
        for name in sorted(referenced):
            self.observable(name)

    def observable(self, name: str) -> Projection:
        try:
            return self.observables[name]
        except KeyError:
            known = ", ".join(sorted(self.observables))
            raise UnknownObservableError(
                f"no observable named {name!r}; scenario declares: {known}"
            ) from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        if (
            self.name != other.name
            or self.dim != other.dim
            or self.declared_claims != other.declared_claims
            or set(self.observables) != set(other.observables)
        ):
            return False
        u, v = self.state.vector, other.state.vector
        if (u is None) != (v is None) or (u is not None and not np.array_equal(u, v)):
            return False
        if not np.array_equal(self.state.matrix.array, other.state.matrix.array):
            return False
        for key, p in self.observables.items():
            if not np.array_equal(p.matrix.array, other.observables[key].matrix.array):
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"Scenario({self.name!r}, dim={self.dim}, "
            f"observables={sorted(self.observables)})"
        )


def _check_dim(dim) -> None:
    """Raise unless dim is a positive int (not a bool) within MAX_DIM."""
    if type(dim) is not int or dim < 1:
        raise ScenarioFormatError(f"dim must be a positive integer, got {dim!r}")
    if dim > MAX_DIM:
        raise DimensionError(f"dim {dim} exceeds the {MAX_DIM} limit")


# Single-qubit blocks: projectors onto (|0>+|1>)/sqrt(2) and (|0>+i|1>)/sqrt(2).
_HALF_ONES = CMatrix([[0.5, 0.5], [0.5, 0.5]])
_HALF_I = CMatrix([[0.5, -0.5j], [0.5j, 0.5]])
_I2 = CMatrix([[1.0, 0.0], [0.0, 1.0]])


def _one_qubit_lift(block: CMatrix, factor: int, name: str) -> Projection:
    """Place a 2x2 block on one of four qubits, identity elsewhere."""
    factors = [_I2, _I2, _I2, _I2]
    factors[factor] = block
    return Projection(kron(*factors), name=name)


def build_ghsz() -> Scenario:
    """The four-qubit no-go scenario.

    Seven single-qubit projections (two orientations on qubits 1, 3, 4 and
    one on qubit 2), the singlet-like state across qubits (1,2) vs (3,4),
    four derived projections built from signed products of the associated
    +-1 observables, the detection claims tying each derived projection to a
    single-qubit one, and the sign-constraint system those detections imply.
    """
    e_alpha = _one_qubit_lift(_HALF_ONES, 0, "E_alpha")
    e_beta = _one_qubit_lift(_HALF_I, 0, "E_beta")
    f = _one_qubit_lift(_HALF_ONES, 1, "F")
    g_alpha = _one_qubit_lift(_HALF_ONES, 2, "G_alpha")
    g_beta = _one_qubit_lift(_HALF_I, 2, "G_beta")
    l_alpha = _one_qubit_lift(_HALF_ONES, 3, "L_alpha")
    l_beta = _one_qubit_lift(_HALF_I, 3, "L_beta")

    m = derived_projection(-1, [e_alpha, f, l_alpha], name="M")
    n = derived_projection(-1, [f, g_beta, l_alpha], name="N")
    r = derived_projection(-1, [e_beta, f, g_alpha], name="R")
    s = derived_projection(+1, [e_alpha, f, g_beta], name="S")

    # |0011> - |1100>, qubit 1 most significant: indices 3 and 12.
    raw = np.zeros(16, dtype=np.complex128)
    raw[3] = 1.0
    raw[12] = -1.0
    rho0 = DensityOperator.pure(raw, name="rho0")

    quadruple = ("E_alpha", "F", "G_beta", "L_alpha")
    claims: list[Claim] = [
        CommutationClaim(x, y) for x, y in combinations(quadruple, 2)
    ]
    pairs = (("M", "G_alpha"), ("N", "E_beta"), ("R", "L_beta"), ("S", "L_beta"))
    claims.extend(CommutationClaim(t, e) for t, e in pairs)
    claims.extend(DetectionClaim(t, e) for t, e in pairs)
    claims.append(ConstraintClaim(ghsz_sign_constraints(), satisfiable=False))

    observables = (e_alpha, e_beta, f, g_alpha, g_beta, l_alpha, l_beta, m, n, r, s)
    return Scenario("ghsz", 16, rho0, {p.name: p for p in observables}, claims)


def verify_scenario(scn: Scenario, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Check every declared claim of a scenario; one report entry per claim."""
    report = Report(command="verify", inputs={"scenario": scn.name})
    # A commutation claim and a detection claim on the same ordered pair
    # share its product.
    @cache
    def product(a: str, b: str) -> CMatrix:
        return scn.observable(a).matrix @ scn.observable(b).matrix

    report.checks.extend(claim.judge(scn, tol, product) for claim in scn.declared_claims)
    return report


def verify_ghsz(scn: Scenario, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Verify the no-go scenario's claims and draw the combined conclusion.

    All commutation and detection claims must pass, and the sign-constraint
    system must have no satisfying assignment; together these rule out
    identifying the detector outcomes with jointly assigned measured values.
    """
    if not any(isinstance(c, DetectionClaim) for c in scn.declared_claims):
        raise PreconditionError("scenario declares no detection claims")
    report = verify_scenario(scn, tol)
    report.command = "ghsz"
    lines = list(zip(scn.declared_claims, report.checks))
    # Other kinds of claim may ride along; they are no part of the argument.
    premises = [c for claim, c in lines if isinstance(claim, (CommutationClaim, DetectionClaim))]
    signs = [c for claim, c in lines if isinstance(claim, ConstraintClaim)]
    failing = [c.name for c in premises + signs if not c.passed]
    why = [f"failing lines: {', '.join(failing)}"] if failing else []
    if not signs:
        why.append("no sign-constraint system is declared")
    why.extend(f"the sign system has solutions: {c.detail}" for c in signs if c.residual != 0.0)
    detail = "; ".join(why) or (
        "detections hold but no joint sign assignment satisfies the "
        "constraints; outcome identification is inconsistent"
    )
    report.add("no-go:identification", not why, None, "conclusion", detail)
    return report


def _example_44_angle(theta: float) -> float:
    """theta as a finite float; warns, at the line that called the public
    function that called this one, if it lies outside (0, pi/4)."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise PreconditionError(f"theta must be a finite angle, got {theta!r}")
    if not 0.0 < theta < math.pi / 4.0:
        warnings.warn(
            f"theta={theta!r} lies outside the open interval (0, pi/4); "
            "the construction still works but the sum-rule failure may vanish",
            stacklevel=3,
        )
    return theta


def build_example_44(theta: float) -> Scenario:
    """Two-dimensional hidden-inconsistency counterexample at angle theta.

    E projects onto (|0>+|1>)/sqrt(2); F projects onto cos(theta)|0> +
    i sin(theta)|1>. The scenario state is the even mixture of |0><0| and
    |1><1| (the two pure states for which the complement sum rule fails).
    """
    return _example_44(_example_44_angle(theta))


def _example_44(theta: float) -> Scenario:
    e = Projection(_HALF_ONES, name="E")
    f = Projection(outer(_unit_vector([math.cos(theta), 1j * math.sin(theta)])), name="F")
    p1 = Projection(CMatrix([[1.0, 0.0], [0.0, 0.0]]), name="P1")
    p2 = Projection(CMatrix([[0.0, 0.0], [0.0, 1.0]]), name="P2")
    mixture = DensityOperator(CMatrix([[0.5, 0.0], [0.0, 0.5]]), name="mixture")
    return Scenario(
        name=f"example44-theta={theta!r}",
        dim=2,
        state=mixture,
        observables={"E": e, "F": f, "P1": p1, "P2": p2},
        declared_claims=[CommutationClaim("E", "F", expected=False)],
    )


def verify_example_44(theta: float, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Check the predicted sum-rule residuals at angle theta.

    The complement sum rule for (E, F) must miss by |cos^2(theta) - 1/2| at
    the first pure state, by |sin^2(theta) - 1/2| at the second, and must
    hold exactly at their even mixture.
    """
    theta = _example_44_angle(theta)
    scn = _example_44(theta)
    e, f = scn.observable("E"), scn.observable("F")
    gate = tol.gate(scn.dim)
    report = Report(command="example44", inputs={"theta": theta})
    predicted = {"rho1": abs(math.cos(theta) ** 2 - 0.5), "rho2": abs(math.sin(theta) ** 2 - 0.5)}
    measured = {}
    for label, projection in (("rho1", "P1"), ("rho2", "P2")):
        rho = DensityOperator(scn.observable(projection).matrix, name=label)
        measured[label] = residual = assignment_probs(e, f, rho, tol).c3_residual
        passed = abs(residual - predicted[label]) <= gate
        detail = f"predicted residual {predicted[label]!r}"
        report.add(f"sum-rule-residual:{label}", passed, residual, "claim:sum-rule", detail)
    mixture = assignment_probs(e, f, scn.state, tol).c3_residual
    detail = "must hold at the even mixture"
    report.add("sum-rule:mixture", mixture <= gate, mixture, "claim:sum-rule", detail)
    predicted_hidden = predicted["rho1"] > gate and predicted["rho2"] > gate
    observed_hidden = measured["rho1"] > gate and measured["rho2"] > gate and mixture <= gate
    detail = (
        "sum rule fails for both pure components yet holds for their mixture"
        if observed_hidden
        else "no hidden-inconsistency pattern at this angle"
    )
    passed = predicted_hidden == observed_hidden
    report.add("hidden-inconsistency", passed, None, "conclusion", detail)
    return report


def build_rt_analogue() -> Scenario:
    """Non-commuting rank-two projections with a designed common eigenvector.

    In dimension four: E spans {psi, u}, F spans {psi, v}, with u and v unit
    vectors orthogonal to psi and overlapping by 1/2. The scenario state is
    |psi><psi|, which is detected by the rank-one T = |psi><psi| for both;
    the common-detector claim finds that T from E and F alone.
    """
    state = DensityOperator.pure([1.0, 0.0, 0.0, 0.0], name="psi")
    psi = state.vector
    u = np.array([0.0, 1.0, 0.0, 0.0], dtype=np.complex128)
    v = np.array([0.0, 0.5, math.sqrt(3.0) / 2.0, 0.0], dtype=np.complex128)
    e = Projection(outer(psi) + outer(u), name="E")
    f = Projection(outer(psi) + outer(v), name="F")
    t = Projection(outer(psi), name="T")
    return Scenario(
        name="rt-analogue",
        dim=4,
        state=state,
        observables={"E": e, "F": f, "T": t},
        declared_claims=[
            CommutationClaim("E", "F", expected=False),
            DetectionClaim("T", "E"),
            DetectionClaim("T", "F"),
            CommonDetectorClaim("E", "F"),
        ],
    )


# ---------------------------------------------------------------------------
# Serialization


def _encode(a: np.ndarray) -> list:
    """A complex array as nested lists with one [re, im] pair per entry."""
    return np.stack((a.real, a.imag), -1).tolist()


def _claim_to_json(claim: Claim) -> dict:
    doc = {"kind": claim.kind}
    for f in fields(claim):
        value = getattr(claim, f.name)
        if f.type == "ConstraintSet":
            doc["symbols"] = list(value.symbols)
            doc["equations"] = [
                {"left": list(eq.left), "right": list(eq.right), "sign": eq.sign}
                for eq in value.equations
            ]
        else:
            doc[f.name] = value
    return doc


def save_scenario(scn: Scenario, path) -> None:
    """Write a scenario as JSON; floats serialize round-trip exactly."""
    if scn.state.vector is not None:
        state_json = {"type": "pure", "vector": _encode(scn.state.vector)}
    else:
        state_json = {"type": "density", "matrix": _encode(scn.state.matrix.array)}
    doc = {
        "name": scn.name,
        "dim": scn.dim,
        "state": state_json,
        "observables": {
            key: _encode(p.matrix.array) for key, p in scn.observables.items()
        },
        "claims": [_claim_to_json(c) for c in scn.declared_claims],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ScenarioFormatError(f"duplicate key {key!r} in scenario file")
        seen[key] = value
    return seen


# The objects of a scenario file that _parse reads key by key ("*" stands for
# any key); an int is the ndim of an array of [re, im] pairs there. Every
# other value is parsed whole by _JSON, the standard library's scanner, which
# refuses duplicate keys at any depth.
_LAYOUT = {"state": {"vector": 1, "matrix": 2}, "observables": {"*": 2}}
_JSON = json.JSONDecoder(object_pairs_hook=_reject_duplicate_keys)


def _skip(s: str, idx: int) -> int:
    """The index after the JSON whitespace at s[idx:]."""
    return json.decoder.WHITESPACE.match(s, idx).end()


def _parse(text: str):
    """json.loads(text, object_pairs_hook=_reject_duplicate_keys), except that
    a well-formed array at an int of _LAYOUT comes back as its _floats array.

    Each array's lists are dropped as soon as it is parsed, so a load holds
    one array as Python objects, not the whole file. Faults raise the same
    exception with the same message, at the same point of the text.
    """
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    doc, end = _read(text, _skip(text, 0), _LAYOUT)
    end = _skip(text, end)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return doc


def _read(s: str, idx: int, layout):
    """The JSON value at s[idx] and the index after it (see _parse)."""
    if isinstance(layout, dict) and s[idx:idx + 1] == "{":
        return _read_object(s, idx, layout)
    value, end = _JSON.raw_decode(s, idx)
    if isinstance(layout, int) and isinstance(value, list) and value:
        array = _floats(value, (len(value),) * layout + (2,))
        if array is not None:  # else _decode names the fault later in the load
            value = array
    return value, end


def _read_object(s: str, start: int, layout) -> tuple[dict, int]:
    """The object whose "{" is s[start], read pair by pair as
    json.decoder.JSONObject reads it, duplicate keys refused on closing.

    Where the text stops being a well-formed object, _JSON reads the whole
    object again and so raises the standard library's own error for it.
    """
    pairs = []
    end = _skip(s, start + 1)
    if s[end:end + 1] == "}":
        return _reject_duplicate_keys(pairs), end + 1
    while s[end:end + 1] == '"':
        key, end = json.decoder.scanstring(s, end + 1)
        end = _skip(s, end)
        if s[end:end + 1] != ":":
            break
        value, end = _read(s, _skip(s, end + 1), layout.get(key, layout.get("*")))
        pairs.append((key, value))
        end = _skip(s, end)
        if s[end:end + 1] == "}":
            return _reject_duplicate_keys(pairs), end + 1
        if s[end:end + 1] != ",":
            break
        end = _skip(s, end + 1)
    return _JSON.raw_decode(s, start)


def _floats(doc, shape: tuple[int, ...]) -> Optional[np.ndarray]:
    """doc as a float64 array of exactly this shape, or None if it is not one."""
    leaves = np.array(doc, dtype=object)
    if leaves.shape == shape and {int, float}.issuperset(map(type, leaves.flat)):
        try:
            return leaves.astype(np.float64)
        except OverflowError:  # an integer beyond the float range
            pass
    return None


def _decode(doc, dim: int, where: str, ndim: int) -> np.ndarray:
    """The complex vector (ndim 1) or square matrix (ndim 2) written in doc.

    _parse makes a float array of each well-formed array, so a list is empty
    or has a fault: ScenarioFormatError names its first bad row or entry.
    DimensionError means a well-formed array (an empty vector, but not an
    empty matrix) whose size is not dim.
    """
    if not isinstance(doc, (list, np.ndarray)) or (ndim == 2 and len(doc) == 0):
        raise ScenarioFormatError(f"{where}: expected a nested array of [re, im] pairs")
    n = len(doc)
    if isinstance(doc, list):  # find the first fault, in row-major order
        for i, row in enumerate(doc if ndim == 2 else [doc]):
            if ndim == 2 and (not isinstance(row, list) or len(row) != n):
                raise ScenarioFormatError(f"{where}: row {i} is not square")
            for j, entry in enumerate(row):
                if _floats(entry, (2,)) is None:
                    at = f"[{i}][{j}]" if ndim == 2 else f"[{j}]"
                    raise ScenarioFormatError(
                        f"{where}{at}: expected a [re, im] number pair, got {entry!r}"
                    )
    if n != dim:
        raise DimensionError(f"{where}: size {n} does not match scenario dim {dim}")
    return doc.view(np.complex128)[..., 0]


# The JSON types of scenario fields, by the name error messages give them.
_JSON_TYPES = {
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
    "the integer 1 or -1": lambda v: type(v) is int and v in (1, -1),
    "an array of strings": lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
    "an array of objects": lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v),
}


# The JSON type of each type of claim field but ConstraintSet.
_CLAIM_FIELD_TYPES = {
    "str": "a string", "bool": "true or false", "tuple[str, ...]": "an array of strings"
}


def _field(doc: dict, key: str, where: str, want: str, default=None):
    """doc[key] of JSON type `want` (an array as a tuple), or `default` if missing.

    Anything else raises ScenarioFormatError naming the field after `where`.
    """
    path = f"{where}.{key}"
    if key not in doc:
        if default is None:
            raise ScenarioFormatError(f"{path}: missing required field")
        return default
    if not _JSON_TYPES[want](doc[key]):
        raise ScenarioFormatError(f"{path}: expected {want}, got {doc[key]!r}")
    return tuple(doc[key]) if isinstance(doc[key], list) else doc[key]


def _known_keys(doc: dict, keys, where: str) -> None:
    """Raise ScenarioFormatError naming the first key of doc not in keys."""
    for key in doc:
        if key not in keys:
            raise ScenarioFormatError(f"{where}: unknown field {key!r}")


def _constraint_set(entry: dict, at: str) -> ConstraintSet:
    equations = []
    for j, eq in enumerate(_field(entry, "equations", at, "an array of objects")):
        where = f"{at}.equations[{j}]"
        _known_keys(eq, ("left", "right", "sign"), where)
        left = _field(eq, "left", where, "an array of strings")
        right = _field(eq, "right", where, "an array of strings")
        sign = _field(eq, "sign", where, "the integer 1 or -1")
        equations.append(SignEquation(left, right, sign))
    return ConstraintSet(_field(entry, "symbols", at, "an array of strings"), tuple(equations))


def _parse_claim(entry, index: int) -> Claim:
    at = f"claims[{index}]"
    if not isinstance(entry, dict):
        raise ScenarioFormatError(f"{at}: expected an object")
    kind = entry.get("kind")
    cls = _CLAIM_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ScenarioFormatError(f"{at}: unknown claim kind {kind!r}")
    set_keys = ("symbols", "equations")
    keys = [k for f in fields(cls) for k in (set_keys if f.type == "ConstraintSet" else [f.name])]
    _known_keys(entry, ["kind", *keys], at)
    values = []
    for f in fields(cls):
        if f.type == "ConstraintSet":
            values.append(_constraint_set(entry, at))
        else:
            want = _CLAIM_FIELD_TYPES[f.type]
            default = None if f.default is MISSING else f.default
            values.append(_field(entry, f.name, at, want, default))
    return cls(*values)


def load_scenario(path, tol: Tolerance = DEFAULT_TOL) -> Scenario:
    """Read and fully validate a scenario file.

    Every matrix is re-validated as a Projection or DensityOperator, so a
    hand-edited file with a broken invariant fails here with the invariant
    named, not deep inside a later computation. A pure state is built by
    DensityOperator.pure, which checks the Hermiticity and trace of |v><v|
    but not its eigenvalues: it is positive semidefinite by construction.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ScenarioFormatError(f"scenario file {path} is not UTF-8 text: {err}") from err
    try:
        doc = _parse(text)
    except ScenarioFormatError:  # a duplicate key
        raise
    except (ValueError, RecursionError) as err:  # also a too-long integer or too-deep nesting
        raise ScenarioFormatError(f"scenario file {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario file must contain a JSON object")
    for key in ("name", "dim", "state", "observables", "claims"):
        if key not in doc:
            raise ScenarioFormatError(f"scenario file missing required key {key!r}")
    dim = doc["dim"]
    _check_dim(dim)  # before any array is sized against it

    state_doc = doc["state"]
    if not isinstance(state_doc, dict) or "type" not in state_doc:
        raise ScenarioFormatError("state must be an object with a 'type' field")
    if state_doc["type"] == "pure":
        vector = _decode(state_doc.get("vector"), dim, "state.vector", 1)
        state = DensityOperator.pure(vector, name="state", tol=tol)
    elif state_doc["type"] == "density":
        matrix = CMatrix(_decode(state_doc.get("matrix"), dim, "state.matrix", 2))
        state = DensityOperator(matrix, name="state", tol=tol)
    else:
        raise ScenarioFormatError(
            f"state type must be 'pure' or 'density', got {state_doc['type']!r}"
        )

    obs_doc = doc["observables"]
    if not isinstance(obs_doc, dict):
        raise ScenarioFormatError("observables must be a name->matrix object")
    observables = {}
    for key, rows in obs_doc.items():
        matrix = CMatrix(_decode(rows, dim, f"observables[{key}]", 2))
        observables[key] = Projection(matrix, name=key, tol=tol)

    claims_doc = doc["claims"]
    if not isinstance(claims_doc, list):
        raise ScenarioFormatError("claims must be an array")
    claims = [_parse_claim(entry, i) for i, entry in enumerate(claims_doc)]

    return Scenario(doc["name"], dim, state, observables, claims)
