"""Named concrete constructions and scenario files.

Three built-in scenarios:

* a four-qubit GHSZ-style setup whose four detection relations, combined
  with an exhaustively enumerable set of sign constraints, rule out reading
  detector outcomes as pre-existing measured values;
* a two-dimensional counterexample where the complement sum rule fails for
  two pure states yet holds for their even mixture;
* a four-dimensional pair of non-commuting rank-two projections sharing a
  common unit eigenvector, giving a rank-one detector for both.

Scenarios serialize to JSON with each complex entry an [re, im] number pair,
written by one encoder and read by one decoder (ScenarioFormatError for bad
nesting or leaves, DimensionError for a wrong size); loading re-validates all.
A pure state (one built by DensityOperator.pure) is written as its vector,
any other state as its matrix.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product as cartesian
from typing import Optional, Union

import numpy as np

from .errors import (
    DimensionError,
    PreconditionError,
    ScenarioFormatError,
    UnknownObservableError,
    ValidationError,
)
from .numerics import CMatrix, DEFAULT_TOL, MAX_DIM, Tolerance, hermiticity_defect, kron, outer
from .observables import DensityOperator, PMObservable, Projection, _unit_vector, derived_projection
from .detection import _detects
from .assignment import assignment_probs
from .reporting import Report

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


@dataclass(frozen=True)
class SignAssignment:
    """One choice of +-1 value for every constraint symbol."""

    values: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        for symbol, value in self.values:
            if value not in (1, -1):
                raise ValidationError(
                    f"sign for {symbol} must be +1 or -1, got {value}"
                )
        names = [s for s, _ in self.values]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate symbol in sign assignment")

    def __getitem__(self, symbol: str) -> int:
        for s, v in self.values:
            if s == symbol:
                return v
        raise UnknownObservableError(f"no sign recorded for {symbol!r}")

    def as_dict(self) -> dict[str, int]:
        return dict(self.values)


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

    def satisfied_by(self, assignment: SignAssignment) -> bool:
        lhs = math.prod(assignment[s] for s in self.left)
        rhs = math.prod(assignment[s] for s in self.right)
        return lhs == self.sign * rhs


@dataclass(frozen=True)
class ConstraintSet:
    """A conjunction of sign equations over a fixed symbol list."""

    symbols: tuple[str, ...]
    equations: tuple[SignEquation, ...]

    def __post_init__(self) -> None:
        known = set(self.symbols)
        if len(known) != len(self.symbols):
            raise ValidationError(f"constraint symbols must be unique, got {self.symbols}")
        for eq in self.equations:
            for s in eq.left + eq.right:
                if s not in known:
                    raise ValidationError(f"equation uses undeclared symbol {s!r}")

    def satisfied_by(self, assignment: SignAssignment) -> bool:
        return all(eq.satisfied_by(assignment) for eq in self.equations)


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


def enumerate_constraints(
    cs: ConstraintSet,
) -> tuple[list[SignAssignment], int]:
    """Exhaustive check of every +-1 assignment against the constraint set.

    Returns the satisfying assignments and the total number tried (2^k for
    k symbols). verify_scenario counts by elimination instead; this is the
    reference it is tested against.
    """
    satisfying = []
    total = 0
    for signs in cartesian((1, -1), repeat=len(cs.symbols)):
        total += 1
        assignment = SignAssignment(tuple(zip(cs.symbols, signs)))
        if cs.satisfied_by(assignment):
            satisfying.append(assignment)
    return satisfying, total


def _solution_count(cs: ConstraintSet) -> int:
    """Number of +-1 assignments satisfying cs, by elimination over GF(2).

    With s = (-1)**x each equation is one row: XOR of x over left and right
    (a repeated symbol cancels) = [sign == -1]. A consistent system of rank
    r over k symbols has 2**(k - r) solutions, an inconsistent one none.
    """
    bit = {s: 2 << i for i, s in enumerate(cs.symbols)}  # bit 0 holds the sign
    pivots: dict[int, int] = {}  # bit length -> reduced row with that leading bit
    for eq in cs.equations:
        row = int(eq.sign == -1)
        for s in eq.left + eq.right:
            row ^= bit[s]
        while row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row == 1:
            return 0
        if row:
            pivots[row.bit_length()] = row
    return 2 ** (len(cs.symbols) - len(pivots))


@dataclass(frozen=True)
class CommutationClaim:
    a: str
    b: str
    expected: bool = True


@dataclass(frozen=True)
class DetectionClaim:
    t: str
    e: str


@dataclass(frozen=True)
class ConstraintClaim:
    constraints: ConstraintSet
    satisfiable: bool = False


Claim = Union[CommutationClaim, DetectionClaim, ConstraintClaim]


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
        if self.state.dim != self.dim:
            raise DimensionError(
                f"state dimension {self.state.dim} does not match scenario dim {self.dim}"
            )
        for key, p in self.observables.items():
            if p.dim != self.dim:
                raise DimensionError(
                    f"observable {key!r} has dimension {p.dim}, expected {self.dim}"
                )
        referenced = set()
        for claim in self.declared_claims:
            if isinstance(claim, CommutationClaim):
                referenced.update((claim.a, claim.b))
            elif isinstance(claim, DetectionClaim):
                referenced.update((claim.t, claim.e))
        missing = sorted(referenced - set(self.observables))
        if missing:
            raise UnknownObservableError(
                f"claims reference undeclared observables: {', '.join(missing)}"
            )
        # Own copies (the caller may edit its dict or list later); claims compare as a tuple.
        object.__setattr__(self, "observables", dict(self.observables))
        object.__setattr__(self, "declared_claims", tuple(self.declared_claims))

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

    a_alpha = PMObservable(e_alpha, "A_alpha")
    a_beta = PMObservable(e_beta, "A_beta")
    b = PMObservable(f, "B")
    c_alpha = PMObservable(g_alpha, "C_alpha")
    c_beta = PMObservable(g_beta, "C_beta")
    d_alpha = PMObservable(l_alpha, "D_alpha")
    d_beta = PMObservable(l_beta, "D_beta")

    m = derived_projection(-1, [a_alpha, b, d_alpha], name="M")
    n = derived_projection(-1, [b, c_beta, d_alpha], name="N")
    r = derived_projection(-1, [a_beta, b, c_alpha], name="R")
    s = derived_projection(+1, [a_alpha, b, c_beta], name="S")

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

    return Scenario(
        name="ghsz",
        dim=16,
        state=rho0,
        observables={
            "E_alpha": e_alpha,
            "E_beta": e_beta,
            "F": f,
            "G_alpha": g_alpha,
            "G_beta": g_beta,
            "L_alpha": l_alpha,
            "L_beta": l_beta,
            "M": m,
            "N": n,
            "R": r,
            "S": s,
        },
        declared_claims=claims,
    )


def verify_scenario(scn: Scenario, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Check every declared claim of a scenario; one report entry per claim."""
    report = Report(command="verify", inputs={"scenario": scn.name})
    gate = tol.gate(scn.dim)
    # A commutation claim and a detection claim on the same ordered pair
    # share its product.
    @cache
    def product(a: str, b: str) -> CMatrix:
        return scn.observable(a).matrix @ scn.observable(b).matrix

    for claim in scn.declared_claims:
        if isinstance(claim, CommutationClaim):
            # The commutator of Hermitian A and B is A.B - (A.B)^dagger.
            defect = hermiticity_defect(product(claim.a, claim.b))
            observed = defect <= gate
            report.add(
                name=f"commutation:{claim.a}~{claim.b}",
                passed=observed == claim.expected,
                residual=defect,
                ref="claim:commute",
                detail="" if claim.expected else "expected non-commuting",
            )
        elif isinstance(claim, DetectionClaim):
            check = _detects(
                scn.observable(claim.t),
                scn.observable(claim.e),
                scn.state,
                tol,
                product(claim.t, claim.e),
            )
            report.add(
                name=f"detection:{claim.t}->{claim.e}",
                passed=check.holds,
                residual=max(check.commutator_defect, check.state_equal_defect),
                ref="claim:detect",
                detail=check.note,
            )
        elif isinstance(claim, ConstraintClaim):
            count = _solution_count(claim.constraints)
            total = 2 ** len(claim.constraints.symbols)
            report.add(
                name="constraints:satisfiable",
                passed=(count > 0) == claim.satisfiable,
                residual=float(count),
                ref="claim:constraints",
                detail=f"{count} of {total} sign assignments satisfy",
            )
        else:
            raise ValidationError(f"unknown claim type {type(claim).__name__}")
    return report


def verify_ghsz(scn: Scenario, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Verify the no-go scenario's claims and draw the combined conclusion.

    All commutation and detection claims must pass, and the sign-constraint
    system must have no satisfying assignment; together these rule out
    identifying the detector outcomes with jointly assigned measured values.
    """
    if not scn.declared_claims:
        raise PreconditionError("scenario declares no claims to verify")
    if not any(isinstance(c, DetectionClaim) for c in scn.declared_claims):
        raise PreconditionError("scenario declares no detection claims")
    report = verify_scenario(scn, tol)
    report.command = "ghsz"
    constraint_checks = [
        c for c in report.checks if c.ref == "claim:constraints"
    ]
    physics = [c for c in report.checks if c.ref != "claim:constraints"]
    no_go = (
        all(c.passed for c in physics)
        and len(constraint_checks) > 0
        and all(c.passed and c.residual == 0.0 for c in constraint_checks)
    )
    report.add(
        name="no-go:identification",
        passed=no_go,
        residual=None,
        ref="conclusion",
        detail=(
            "detections hold but no joint sign assignment satisfies the "
            "constraints; outcome identification is inconsistent"
        ),
    )
    return report


def build_example_44(theta: float) -> Scenario:
    """Two-dimensional hidden-inconsistency counterexample at angle theta.

    E projects onto (|0>+|1>)/sqrt(2); F projects onto cos(theta)|0> +
    i sin(theta)|1>. The scenario state is the even mixture of |0><0| and
    |1><1| (the two pure states for which the complement sum rule fails).
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise PreconditionError(f"theta must be a finite angle, got {theta!r}")
    if not 0.0 < theta < math.pi / 4.0:
        warnings.warn(
            f"theta={theta!r} lies outside the open interval (0, pi/4); "
            "the construction still works but the sum-rule failure may vanish",
            stacklevel=2,
        )
    e = Projection(_HALF_ONES, name="E")
    f = Projection(outer(_unit_vector([math.cos(theta), 1j * math.sin(theta)])), name="F")
    p1 = Projection(CMatrix([[1.0, 0.0], [0.0, 0.0]]), name="P1")
    p2 = Projection(CMatrix([[0.0, 0.0], [0.0, 1.0]]), name="P2")
    mixture = DensityOperator(
        CMatrix([[0.5, 0.0], [0.0, 0.5]]), name="mixture"
    )
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
    scn = build_example_44(theta)
    e = scn.observable("E")
    f = scn.observable("F")
    rho1 = DensityOperator(scn.observable("P1").matrix, name="rho1")
    rho2 = DensityOperator(scn.observable("P2").matrix, name="rho2")
    gate = tol.gate(scn.dim)

    report = Report(command="example44", inputs={"theta": float(theta)})
    predicted = {
        "rho1": abs(math.cos(theta) ** 2 - 0.5),
        "rho2": abs(math.sin(theta) ** 2 - 0.5),
    }
    measured = {}
    for label, rho in (("rho1", rho1), ("rho2", rho2), ("mixture", scn.state)):
        residual = assignment_probs(e, f, rho, tol).c3_residual
        measured[label] = residual
        if label == "mixture":
            report.add(
                name="sum-rule:mixture",
                passed=residual <= gate,
                residual=residual,
                ref="claim:sum-rule",
                detail="must hold at the even mixture",
            )
        else:
            deviation = abs(residual - predicted[label])
            report.add(
                name=f"sum-rule-residual:{label}",
                passed=deviation <= gate,
                residual=residual,
                ref="claim:sum-rule",
                detail=f"predicted residual {predicted[label]!r}",
            )
    predicted_hidden = predicted["rho1"] > gate and predicted["rho2"] > gate
    observed_hidden = (
        measured["rho1"] > gate
        and measured["rho2"] > gate
        and measured["mixture"] <= gate
    )
    report.add(
        name="hidden-inconsistency",
        passed=predicted_hidden == observed_hidden,
        residual=None,
        ref="conclusion",
        detail=(
            "sum rule fails for both pure components yet holds for their "
            "mixture"
            if observed_hidden
            else "no hidden-inconsistency pattern at this angle"
        ),
    )
    return report


def build_rt_analogue() -> Scenario:
    """Non-commuting rank-two projections with a designed common eigenvector.

    In dimension four: E spans {psi, u}, F spans {psi, v}, with u and v unit
    vectors orthogonal to psi and overlapping by 1/2. The scenario state is
    |psi><psi|, which is detected by the rank-one T = |psi><psi| for both.
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
        ],
    )


# ---------------------------------------------------------------------------
# Serialization


def _encode(a: np.ndarray) -> list:
    """A complex array as nested lists with one [re, im] pair per entry."""
    return np.stack((a.real, a.imag), -1).tolist()


def _claim_to_json(claim: Claim) -> dict:
    if isinstance(claim, CommutationClaim):
        return {"kind": "commute", "a": claim.a, "b": claim.b, "expected": claim.expected}
    if isinstance(claim, DetectionClaim):
        return {"kind": "detect", "t": claim.t, "e": claim.e}
    if isinstance(claim, ConstraintClaim):
        return {
            "kind": "constraints",
            "symbols": list(claim.constraints.symbols),
            "equations": [
                {"left": list(eq.left), "right": list(eq.right), "sign": eq.sign}
                for eq in claim.constraints.equations
            ],
            "satisfiable": claim.satisfiable,
        }
    raise ValidationError(f"unknown claim type {type(claim).__name__}")


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

    Leaves must be JSON ints or floats in the float range. ScenarioFormatError
    names the first bad row or entry; DimensionError means a well-formed array
    (an empty vector, but not an empty matrix) whose size is not dim.
    """
    if not isinstance(doc, list) or (ndim == 2 and not doc):
        raise ScenarioFormatError(f"{where}: expected a nested array of [re, im] pairs")
    n = len(doc)
    shape = (n,) * ndim + (2,)
    values = _floats(doc, shape) if n else np.empty(shape)
    if values is None:  # find the first fault, in row-major order
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
    return values.view(np.complex128)[..., 0]


# The JSON types of scenario fields, by the name error messages give them.
_JSON_TYPES = {
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
    "the integer 1 or -1": lambda v: type(v) is int and v in (1, -1),
    "an array of strings": lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
    "an array of objects": lambda v: isinstance(v, list) and all(isinstance(x, dict) for x in v),
}


def _field(doc: dict, key: str, where: str, want: str, default=None):
    """doc[key] of JSON type `want` (an array as a tuple), or `default` if missing.

    Anything else raises ScenarioFormatError naming the field after `where`.
    """
    if key not in doc:
        if default is None:
            raise ScenarioFormatError(f"{where}: missing {key!r}")
        return default
    if not _JSON_TYPES[want](doc[key]):
        path = f"{where}.{key}" if where else key
        raise ScenarioFormatError(f"{path}: expected {want}, got {doc[key]!r}")
    return tuple(doc[key]) if isinstance(doc[key], list) else doc[key]


def _parse_claim(entry, index: int) -> Claim:
    at = f"claims[{index}]"
    if not isinstance(entry, dict):
        raise ScenarioFormatError(f"{at}: expected an object")
    kind = entry.get("kind")
    if kind == "commute":
        return CommutationClaim(
            a=_field(entry, "a", at, "a string"),
            b=_field(entry, "b", at, "a string"),
            expected=_field(entry, "expected", at, "true or false", True),
        )
    if kind == "detect":
        return DetectionClaim(t=_field(entry, "t", at, "a string"), e=_field(entry, "e", at, "a string"))
    if kind == "constraints":
        equations = []
        for j, eq in enumerate(_field(entry, "equations", at, "an array of objects")):
            where = f"{at}.equations[{j}]"
            equations.append(
                SignEquation(
                    left=_field(eq, "left", where, "an array of strings"),
                    right=_field(eq, "right", where, "an array of strings"),
                    sign=_field(eq, "sign", where, "the integer 1 or -1"),
                )
            )
        return ConstraintClaim(
            ConstraintSet(_field(entry, "symbols", at, "an array of strings"), tuple(equations)),
            _field(entry, "satisfiable", at, "true or false", False),
        )
    raise ScenarioFormatError(f"{at}: unknown claim kind {kind!r}")


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
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except ScenarioFormatError:  # a duplicate key
        raise
    except (ValueError, RecursionError) as err:  # also a too-long integer or too-deep nesting
        raise ScenarioFormatError(f"scenario file {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario file must contain a JSON object")
    for key in ("name", "dim", "state", "observables", "claims"):
        if key not in doc:
            raise ScenarioFormatError(f"scenario file missing required key {key!r}")
    name = _field(doc, "name", "", "a string")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ScenarioFormatError(f"dim must be a positive integer, got {dim!r}")
    if dim > MAX_DIM:
        raise DimensionError(f"dim {dim} exceeds the {MAX_DIM} limit")

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
        observables[str(key)] = Projection(matrix, name=str(key), tol=tol)

    claims_doc = doc["claims"]
    if not isinstance(claims_doc, list):
        raise ScenarioFormatError("claims must be an array")
    claims = [_parse_claim(entry, i) for i, entry in enumerate(claims_doc)]

    return Scenario(
        name=name,
        dim=dim,
        state=state,
        observables=observables,
        declared_claims=claims,
    )
