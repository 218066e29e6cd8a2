import json
import math
import re
from itertools import product as cartesian

import numpy as np
import pytest

from qdetect import (
    CMatrix,
    CommutationClaim,
    ConstraintClaim,
    ConstraintSet,
    DensityOperator,
    DetectionClaim,
    DimensionError,
    MAX_DIM,
    PreconditionError,
    Projection,
    Scenario,
    ScenarioFormatError,
    SignAssignment,
    SignEquation,
    UnknownObservableError,
    ValidationError,
    build_example_44,
    build_ghsz,
    build_rt_analogue,
    check_C3,
    commutation_projection,
    complement,
    enumerate_constraints,
    ghsz_sign_constraints,
    load_scenario,
    save_scenario,
    verify_example_44,
    verify_ghsz,
    verify_scenario,
)
from qdetect.cli import main
from qdetect.scenarios import CONSTRAINT_SYMBOLS, _decode, _encode

from support import (
    count_products,
    ghz_vector,
    outer_oracle_state,
    random_detecting_triple,
    random_projection,
    reference_decode_pairs,
    reference_encode_pairs,
)


# ---------------------------------------------------------------------------
# Sign-constraint system


def test_sign_assignment_validation():
    SignAssignment((("p", 1), ("q", -1)))
    with pytest.raises(ValidationError):
        SignAssignment((("p", 0),))
    with pytest.raises(ValidationError):
        SignAssignment((("p", 1), ("p", -1)))
    a = SignAssignment((("p", 1), ("q", -1)))
    assert a["q"] == -1
    assert a.as_dict() == {"p": 1, "q": -1}
    with pytest.raises(UnknownObservableError):
        a["r"]


def test_sign_equation_validation_and_semantics():
    with pytest.raises(ValidationError):
        SignEquation(("p",), ("q",), 2)
    with pytest.raises(ValidationError):
        SignEquation((), ("q",), 1)
    eq = SignEquation(("p", "q"), ("r",), -1)
    assert eq.satisfied_by(SignAssignment((("p", 1), ("q", 1), ("r", -1))))
    assert not eq.satisfied_by(SignAssignment((("p", 1), ("q", 1), ("r", 1))))


def test_constraint_set_rejects_undeclared_symbol():
    with pytest.raises(ValidationError):
        ConstraintSet(("p",), (SignEquation(("p",), ("q",), 1),))


def test_enumerate_two_symbol_set():
    cs = ConstraintSet(("p", "q"), (SignEquation(("p",), ("q",), 1),))
    satisfying, total = enumerate_constraints(cs)
    assert total == 4
    assert len(satisfying) == 2
    for a in satisfying:
        assert a["p"] == a["q"]


def _brute_force_count(fourth_sign: int) -> int:
    # Written out longhand, independent of the SignEquation machinery.
    count = 0
    for a_al, a_be, b, c_al, c_be, d_al, d_be in cartesian((1, -1), repeat=7):
        if (
            a_al * b == -c_al * d_al
            and a_be * b == -c_be * d_al
            and a_be * b == -c_al * d_be
            and a_al * b == fourth_sign * c_be * d_be
        ):
            count += 1
    return count


def test_ghsz_constraints_unsatisfiable():
    satisfying, total = enumerate_constraints(ghsz_sign_constraints())
    assert total == 128
    assert len(satisfying) == 0
    assert _brute_force_count(+1) == 0
    # Multiplying all four equations gives +1 = -1, so emptiness is forced;
    # the brute count just confirms the parity argument numerically.


def test_flipping_fourth_sign_restores_satisfiability():
    base = ghsz_sign_constraints()
    eqs = list(base.equations)
    last = eqs[-1]
    eqs[-1] = SignEquation(last.left, last.right, -last.sign)
    flipped = ConstraintSet(base.symbols, tuple(eqs))
    satisfying, total = enumerate_constraints(flipped)
    assert total == 128
    assert len(satisfying) == 16
    assert _brute_force_count(-1) == 16
    for a in satisfying:
        assert flipped.satisfied_by(a)
        assert set(a.as_dict()) == set(CONSTRAINT_SYMBOLS)


def _constraint_report(cs: ConstraintSet, satisfiable: bool = True):
    state = DensityOperator(CMatrix([[1.0]]))
    scn = Scenario("signs", 1, state, {}, [ConstraintClaim(cs, satisfiable)])
    (check,) = verify_scenario(scn).checks
    return check


def test_verify_counts_match_enumeration():
    rng = np.random.default_rng(59)
    for _ in range(60):
        k = int(rng.integers(1, 13))
        symbols = tuple(f"s{i}" for i in range(k))

        def monomial():
            # With replacement, so a symbol may occur twice and cancel.
            return tuple(rng.choice(symbols, size=int(rng.integers(1, 4))).tolist())

        eqs = tuple(
            SignEquation(monomial(), monomial(), int(rng.choice([1, -1])))
            for _ in range(int(rng.integers(0, k + 2)))
        )
        cs = ConstraintSet(symbols, eqs)
        satisfying, total = enumerate_constraints(cs)
        check = _constraint_report(cs)
        assert check.residual == float(len(satisfying))
        assert check.detail == f"{len(satisfying)} of {total} sign assignments satisfy"
        assert check.passed == (len(satisfying) > 0)
    assert _constraint_report(ghsz_sign_constraints(), False).detail == (
        "0 of 128 sign assignments satisfy"
    )


def test_verify_counts_forty_symbols_without_enumeration(monkeypatch):
    def refuse(cs):
        raise AssertionError("verify_scenario enumerated 2^k assignments")

    monkeypatch.setattr("qdetect.scenarios.enumerate_constraints", refuse)
    symbols = tuple(f"s{i:02d}" for i in range(40))
    # s00 = s01 = ... = s30: rank 30, so 2^10 of the 2^40 assignments.
    chain = tuple(SignEquation((a,), (b,), 1) for a, b in zip(symbols[:30], symbols[1:31]))
    check = _constraint_report(ConstraintSet(symbols, chain))
    assert check.residual == 1024.0
    assert check.detail == f"1024 of {2**40} sign assignments satisfy"
    # s00 = -s30 contradicts the chain.
    contradiction = chain + (SignEquation(("s00",), ("s30",), -1),)
    check = _constraint_report(ConstraintSet(symbols, contradiction), False)
    assert check.passed and check.residual == 0.0


def test_verify_rejects_duplicate_symbols():
    with pytest.raises(ValidationError):
        _constraint_report(ConstraintSet(("p", "p"), ()))


def test_load_rejects_duplicate_constraint_symbols(tmp_path, ghsz):
    # A repeated symbol is refused when the file is read, not first by
    # verify_scenario; the CLI reports it as an input error.
    path = tmp_path / "ghsz.json"
    save_scenario(ghsz, path)
    doc = json.loads(path.read_text())
    doc["claims"][-1]["symbols"].append("b")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="unique"):
        load_scenario(path)
    assert main(["detect", str(path), "M", "G_alpha"]) == 2


# ---------------------------------------------------------------------------
# Scenario container


def test_scenario_validation():
    rho = DensityOperator(CMatrix(np.diag([0.5, 0.5])))
    e = Projection(CMatrix(np.diag([1.0, 0.0])), name="E")
    with pytest.raises(DimensionError):
        Scenario("x", 3, rho, {"E": e})
    with pytest.raises(DimensionError):
        Scenario("x", 2, rho, {"E": Projection(CMatrix(np.eye(3)))})
    with pytest.raises(UnknownObservableError):
        Scenario("x", 2, rho, {"E": e}, [DetectionClaim("E", "nope")])


def test_unnormalized_vector_stands_for_its_normalized_projector(tmp_path):
    e = Projection(CMatrix(np.diag([1.0, 0.0])), name="E")
    with pytest.raises(ValidationError, match="nonzero"):
        DensityOperator.pure([0, 0])
    scn = Scenario("x", 2, DensityOperator.pure([2, 0]), {"E": e})
    assert scn.state.vector.tolist() == [1, 0]
    save_scenario(scn, tmp_path / "pure.json")
    loaded = load_scenario(tmp_path / "pure.json")
    assert loaded == scn
    assert loaded.state.expectation(e) == 1.0


def test_pure_rebuilds_the_ghsz_state_bit_for_bit(ghsz):
    again = DensityOperator.pure(ghsz.state.vector)
    assert again.vector.tobytes() == ghsz.state.vector.tobytes()
    assert again.matrix.array.tobytes() == ghsz.state.matrix.array.tobytes()
    rebuilt = Scenario(ghsz.name, ghsz.dim, again, ghsz.observables, ghsz.declared_claims)
    assert rebuilt == ghsz


@pytest.mark.parametrize("offset", [1e-13, -1e-13, 1e-9, -1e-9])
def test_near_unit_vector_round_trips_byte_for_byte(tmp_path, offset):
    # Within 1e-12 of unit norm a vector is kept as given; farther off it is
    # divided by its norm once. Either way the saved vector loads unchanged.
    rng = np.random.default_rng(17)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v *= (1.0 + offset) / np.linalg.norm(v)
    state = DensityOperator.pure(v)
    if abs(offset) < 1e-12:
        assert state.vector.tobytes() == v.tobytes()
    else:
        assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-15
    e = Projection(CMatrix(np.diag([1.0] * 4 + [0.0] * 4)), name="E")
    scn = Scenario("near-unit", 8, state, {"E": e})
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(scn, first)
    loaded = load_scenario(first)
    save_scenario(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded == scn


def test_state_vector_is_fixed_by_construction():
    rho = DensityOperator.pure([1.0, 1.0])
    assert not rho.vector.flags.writeable
    assert DensityOperator(rho.matrix).vector is None
    with pytest.raises(TypeError):
        DensityOperator(rho.matrix, vector=rho.vector)


def test_scenario_immutable_and_lookup(ghsz):
    with pytest.raises(AttributeError):
        ghsz.name = "other"
    with pytest.raises(UnknownObservableError) as err:
        ghsz.observable("Q")
    assert "declares" in str(err.value)
    assert ghsz.observable("M").name == "M"


def test_scenario_equality_ignores_display_names():
    rho = DensityOperator(CMatrix(np.diag([0.5, 0.5])))
    one = Scenario("x", 2, rho, {"E": Projection(CMatrix(np.diag([1.0, 0.0])), name="E")})
    two = Scenario("x", 2, rho, {"E": Projection(CMatrix(np.diag([1.0, 0.0])), name="renamed")})
    assert one == two
    three = Scenario("x", 2, rho, {"E": Projection(CMatrix(np.diag([0.0, 1.0])))})
    assert one != three
    assert one != "not a scenario"


def test_build_ghsz_structure(ghsz):
    assert ghsz.dim == 16
    assert len(ghsz.observables) == 11
    assert len(ghsz.declared_claims) == 15
    assert ghsz.state.vector is not None
    np.testing.assert_array_equal(ghsz.state.vector, ghz_vector())
    assert np.max(np.abs(ghsz.state.matrix.array - outer_oracle_state())) < 1e-15


def test_verify_ghsz_all_pass(ghsz):
    report = verify_ghsz(ghsz)
    assert len(report.checks) == 16
    assert report.all_passed
    assert report.exit_code == 0
    by_name = {c.name: c for c in report.checks}
    constraint = by_name["constraints:satisfiable"]
    assert constraint.passed and constraint.residual == 0.0
    assert "0 of 128" in constraint.detail
    assert by_name["no-go:identification"].passed
    assert by_name["detection:M->G_alpha"].residual <= 1e-12


def test_verify_ghsz_preconditions():
    rho = DensityOperator(CMatrix(np.diag([0.5, 0.5])))
    e = Projection(CMatrix(np.diag([1.0, 0.0])), name="E")
    bare = Scenario("x", 2, rho, {"E": e})
    with pytest.raises(PreconditionError):
        verify_ghsz(bare)
    no_detect = Scenario("x", 2, rho, {"E": e}, [CommutationClaim("E", "E")])
    with pytest.raises(PreconditionError):
        verify_ghsz(no_detect)


def test_verify_ghsz_conclusion_needs_zero_count(ghsz):
    # Satisfiable constraints sink the conclusion even when every individual
    # claim (including "this system IS satisfiable") checks out.
    base = ghsz_sign_constraints()
    eqs = list(base.equations)
    eqs[-1] = SignEquation(eqs[-1].left, eqs[-1].right, -eqs[-1].sign)
    flipped = ConstraintSet(base.symbols, tuple(eqs))
    claims = [
        c for c in ghsz.declared_claims if not isinstance(c, ConstraintClaim)
    ] + [ConstraintClaim(flipped, satisfiable=True)]
    scn = Scenario("ghsz-flipped", 16, ghsz.state, ghsz.observables, claims)
    report = verify_ghsz(scn)
    by_name = {c.name: c for c in report.checks}
    assert by_name["constraints:satisfiable"].passed
    assert by_name["constraints:satisfiable"].residual == 16.0
    assert not by_name["no-go:identification"].passed
    assert report.exit_code == 1


def test_verify_scenario_flags_false_claim():
    e = Projection(CMatrix([[0.5, 0.5], [0.5, 0.5]]), name="E")
    b = Projection(CMatrix([[0.5, -0.5j], [0.5j, 0.5]]), name="B")
    rho = DensityOperator(CMatrix(np.diag([0.5, 0.5])))
    scn = Scenario("bad", 2, rho, {"E": e, "B": b}, [CommutationClaim("E", "B")])
    report = verify_scenario(scn)
    assert not report.all_passed
    assert report.exit_code == 1
    assert report.checks[0].name == "commutation:E~B"


# ---------------------------------------------------------------------------
# Angle-family counterexample


def test_dense_verify_claims_take_seven_products(monkeypatch):
    # One product per commutation claim; the detection claim on the same
    # pair reuses T.E and adds (E - T).rho, the other detection takes both;
    # check_C3 takes rho.E and rho.E.G.
    rng = np.random.default_rng(163)
    t, e, rho = random_detecting_triple(rng, 16)
    scn = Scenario(
        name="dense",
        dim=16,
        state=rho,
        observables={"T": t, "E": e, "F": complement(t), "G": random_projection(rng, 16)},
        declared_claims=[
            CommutationClaim("T", "E", expected=True),
            CommutationClaim("T", "G", expected=False),
            DetectionClaim("T", "E"),
            DetectionClaim("T", "F"),
            ConstraintClaim(ghsz_sign_constraints(), satisfiable=False),
        ],
    )
    products = count_products(monkeypatch)
    report = verify_scenario(scn)
    check_C3(scn.observable("E"), scn.observable("G"), scn.state)
    assert len(products) == 7
    monkeypatch.undo()
    assert [c.passed for c in report.checks] == [True, True, True, False, True]


def test_example_44_structure():
    scn = build_example_44(math.pi / 6.0)
    assert scn.dim == 2
    assert set(scn.observables) == {"E", "F", "P1", "P2"}
    claim = scn.declared_claims[0]
    assert isinstance(claim, CommutationClaim) and claim.expected is False


def test_example_44_warns_outside_working_range():
    with pytest.warns(UserWarning):
        build_example_44(1.0)
    with pytest.warns(UserWarning):
        build_example_44(0.0)


@pytest.mark.filterwarnings("error::UserWarning")
def test_example_44_refuses_a_non_finite_angle():
    # Refused before the range warning, which would otherwise fire first.
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match="theta"):
            build_example_44(theta)


def test_verify_example_44_at_pi_sixth():
    report = verify_example_44(math.pi / 6.0)
    assert report.all_passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["sum-rule-residual:rho1"].residual == pytest.approx(0.25, abs=1e-12)
    assert by_name["sum-rule-residual:rho2"].residual == pytest.approx(0.25, abs=1e-12)
    assert by_name["sum-rule:mixture"].residual <= 1e-12
    assert by_name["hidden-inconsistency"].passed
    assert "mixture" in by_name["hidden-inconsistency"].detail


def test_verify_example_44_at_pi_twelfth():
    report = verify_example_44(math.pi / 12.0)
    by_name = {c.name: c for c in report.checks}
    want = math.sqrt(3.0) / 4.0
    assert by_name["sum-rule-residual:rho1"].residual == pytest.approx(want, abs=1e-12)
    assert report.all_passed


def test_verify_example_44_degenerate_angle():
    # At pi/4 both pure-state residuals vanish, so the hidden pattern is
    # absent; the report still passes because absence was predicted.
    with pytest.warns(UserWarning):
        report = verify_example_44(math.pi / 4.0)
    by_name = {c.name: c for c in report.checks}
    assert by_name["sum-rule-residual:rho1"].residual <= 1e-12
    assert by_name["hidden-inconsistency"].passed
    assert "no hidden-inconsistency" in by_name["hidden-inconsistency"].detail


# ---------------------------------------------------------------------------
# Overlapping-subspace analogue


def test_rt_analogue_structure(rt):
    assert rt.dim == 4
    assert set(rt.observables) == {"E", "F", "T"}
    report = verify_scenario(rt)
    assert report.all_passed
    cp = commutation_projection(rt.observable("E"), rt.observable("F"))
    assert cp.rank() == 2
    psi = rt.state.vector
    assert np.max(np.abs(cp.matrix.array @ psi - psi)) < 1e-10
    e3 = np.eye(4)[3]
    assert np.max(np.abs(cp.matrix.array @ e3 - e3)) < 1e-10


# ---------------------------------------------------------------------------
# Serialization


def test_round_trip_all_builtin_scenarios(tmp_path):
    for scn in (build_ghsz(), build_rt_analogue(), build_example_44(math.pi / 6.0)):
        path = tmp_path / f"{scn.name.replace('/', '_')}.json"
        save_scenario(scn, path)
        loaded = load_scenario(path)
        assert loaded == scn


def test_round_trip_is_byte_stable(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    scn = build_ghsz()
    save_scenario(scn, first)
    save_scenario(load_scenario(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_round_trip_preserves_state_kind(tmp_path):
    path = tmp_path / "mix.json"
    scn = build_example_44(math.pi / 6.0)
    assert scn.state.vector is None
    save_scenario(scn, path)
    assert load_scenario(path).state.vector is None
    path2 = tmp_path / "pure.json"
    save_scenario(build_rt_analogue(), path2)
    again = load_scenario(path2)
    assert again.state.vector is not None
    assert json.loads(path2.read_text())["state"]["type"] == "pure"


def _base_doc() -> dict:
    zero = [0.0, 0.0]
    one = [1.0, 0.0]
    return {
        "name": "tiny",
        "dim": 2,
        "state": {"type": "pure", "vector": [one, zero]},
        "observables": {"E": [[one, zero], [zero, zero]]},
        "claims": [],
    }


def _write(tmp_path, doc, filename="bad.json") -> str:
    path = tmp_path / filename
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def test_load_accepts_base_doc(tmp_path):
    scn = load_scenario(_write(tmp_path, _base_doc()))
    assert scn.dim == 2 and set(scn.observables) == {"E"}


def test_pure_state_load_runs_no_eigenvalue_check(tmp_path, monkeypatch):
    # |v><v| is positive semidefinite by construction, so a pure-state load
    # skips eigvalsh; the state it builds is the fully validated one, bit for
    # bit. A density-state file is still checked for negative eigenvalues.
    rng = np.random.default_rng(12)
    dim = 64
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    e = Projection(CMatrix(np.diag([1.0] * 32 + [0.0] * 32)), name="E")
    scn = Scenario("pure", dim, DensityOperator.pure(v), {"E": e})
    path = tmp_path / "pure.json"
    save_scenario(scn, path)

    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a, *rest: calls.append(a.shape) or eigvalsh(a, *rest)
    )
    loaded = load_scenario(path)
    assert calls == []
    u = loaded.state.vector
    full = DensityOperator(CMatrix(np.outer(u, u.conj())), name="state")
    assert calls == [(dim, dim)]
    assert loaded == scn
    assert loaded.state.matrix.array.tobytes() == full.matrix.array.tobytes()

    doc = _base_doc()
    zero, one = [0.0, 0.0], [1.0, 0.0]
    doc["state"] = {"type": "density", "matrix": [[[1.5, 0.0], zero], [zero, [-0.5, 0.0]]]}
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        load_scenario(_write(tmp_path, doc, "negative.json"))
    assert len(calls) == 2
    doc["state"] = {"type": "density", "matrix": [[one, zero], [zero, zero]]}
    assert load_scenario(_write(tmp_path, doc, "density.json")).state.vector is None
    assert len(calls) == 3


def test_load_rejects_malformed_files(tmp_path):
    with pytest.raises(ScenarioFormatError):
        load_scenario(str(tmp_path / "does-not-exist.json"))
    with pytest.raises(ScenarioFormatError):
        load_scenario(_write(tmp_path, "{not json"))
    with pytest.raises(ScenarioFormatError):
        load_scenario(_write(tmp_path, "[1, 2]"))
    with pytest.raises(ScenarioFormatError, match="^duplicate key"):
        load_scenario(_write(tmp_path, '{"name": "x", "name": "y"}'))

    doc = _base_doc()
    del doc["claims"]
    with pytest.raises(ScenarioFormatError):
        load_scenario(_write(tmp_path, doc))

    doc = _base_doc()
    doc["dim"] = "2"
    with pytest.raises(ScenarioFormatError):
        load_scenario(_write(tmp_path, doc))

    doc = _base_doc()
    doc["state"] = {"type": "spooky"}
    with pytest.raises(ScenarioFormatError):
        load_scenario(_write(tmp_path, doc))

    doc = _base_doc()
    doc["state"]["vector"] = [[1.0, 0.0, 9.9], [0.0, 0.0]]
    with pytest.raises(ScenarioFormatError):
        load_scenario(_write(tmp_path, doc))

    doc = _base_doc()
    doc["state"]["vector"] = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValidationError):
        load_scenario(_write(tmp_path, doc))

    doc = _base_doc()
    doc["observables"]["E"] = [[[1.0, 0.0]], [[0.0, 0.0]]]
    with pytest.raises(ScenarioFormatError):
        load_scenario(_write(tmp_path, doc))

    doc = _base_doc()
    doc["observables"]["E"] = []
    with pytest.raises(ScenarioFormatError):
        load_scenario(_write(tmp_path, doc))

    # Leaves must be JSON ints or floats inside the float range; the message
    # locates the first bad entry by row and column, or by index.
    for leaf in (True, "1", None, {}, 10**400):
        doc = _base_doc()
        doc["observables"]["E"][1][0] = [0.0, leaf]
        with pytest.raises(ScenarioFormatError, match=r"observables\[E\]\[1\]\[0\]"):
            load_scenario(_write(tmp_path, doc))
        doc = _base_doc()
        doc["state"]["vector"][1] = [leaf, 0.0]
        with pytest.raises(ScenarioFormatError, match=r"state\.vector\[1\]"):
            load_scenario(_write(tmp_path, doc))

    doc = _base_doc()
    doc["observables"]["E"][0][1] = [0.0, 0.0, 1.0]
    with pytest.raises(ScenarioFormatError, match=r"observables\[E\]\[0\]\[1\]"):
        load_scenario(_write(tmp_path, doc))

    # Python's json refuses integers of more than 4300 digits with a
    # ValueError that is not a JSONDecodeError.
    text = json.dumps(_base_doc()).replace('"claims": []', '"claims": [], "x": 1' + "0" * 5000)
    with pytest.raises(ScenarioFormatError, match="not valid JSON"):
        load_scenario(_write(tmp_path, text))
    # Nesting too deep for the parser is a RecursionError, also not one.
    text = json.dumps(_base_doc()).replace('"claims": []', '"claims": ' + "[" * 10**5 + "]" * 10**5)
    with pytest.raises(ScenarioFormatError, match="not valid JSON"):
        load_scenario(_write(tmp_path, text))

    doc = _base_doc()
    doc["claims"] = [{"kind": "teleport"}]
    with pytest.raises(ScenarioFormatError):
        load_scenario(_write(tmp_path, doc))

    doc = _base_doc()
    doc["claims"] = [{"kind": "detect", "t": "E"}]
    with pytest.raises(ScenarioFormatError):
        load_scenario(_write(tmp_path, doc))


def _typed_claims() -> list:
    return [
        {"kind": "commute", "a": "E", "b": "E", "expected": False},
        {"kind": "detect", "t": "E", "e": "E"},
        {
            "kind": "constraints",
            "symbols": ["p", "q"],
            "equations": [{"left": ["p"], "right": ["q"], "sign": -1}],
            "satisfiable": True,
        },
    ]


@pytest.mark.parametrize(
    "path, value",
    [
        (("name",), 3),
        (("claims", 0, "a"), 3),
        (("claims", 0, "expected"), "false"),
        (("claims", 0, "expected"), 0),
        (("claims", 1, "t"), None),
        (("claims", 1, "e"), ["E"]),
        (("claims", 2, "satisfiable"), "false"),
        (("claims", 2, "symbols"), "pq"),
        (("claims", 2, "symbols"), ["p", 1]),
        (("claims", 2, "equations"), {"left": ["p"]}),
        (("claims", 2, "equations"), [["p"]]),
        (("claims", 2, "equations", 0, "left"), "p"),
        (("claims", 2, "equations", 0, "right"), [None]),
        (("claims", 2, "equations", 0, "sign"), 1.7),
        (("claims", 2, "equations", 0, "sign"), 1.0),
        (("claims", 2, "equations", 0, "sign"), True),
        (("claims", 2, "equations", 0, "sign"), 2),
    ],
)
def test_load_rejects_mistyped_fields(tmp_path, path, value):
    # A coerced value could invert a claim ("false" is truthy); the message
    # names the field, as claims[i].field for a claim.
    doc = _base_doc()
    doc["claims"] = _typed_claims()
    scn = load_scenario(_write(tmp_path, doc))
    assert scn.declared_claims[0].expected is False
    assert scn.declared_claims[2].satisfiable is True
    assert scn.declared_claims[2].constraints.equations[0].sign == -1
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    with pytest.raises(ScenarioFormatError, match="^" + re.escape(where.lstrip(".") + ": expected")):
        load_scenario(_write(tmp_path, doc))


def test_load_rejects_wrong_dimension(tmp_path):
    doc = _base_doc()
    doc["dim"] = 3
    with pytest.raises(DimensionError):
        load_scenario(_write(tmp_path, doc))
    # An empty vector is well formed, only of the wrong size.
    doc = _base_doc()
    doc["state"]["vector"] = []
    with pytest.raises(DimensionError, match="does not match"):
        load_scenario(_write(tmp_path, doc))


def test_load_caps_dim_before_parsing(tmp_path):
    doc = _base_doc()
    doc["dim"] = MAX_DIM + 1
    with pytest.raises(DimensionError, match="limit"):
        load_scenario(_write(tmp_path, doc))
    # At the cap itself loading goes on and fails on the 2-entry vector.
    doc["dim"] = MAX_DIM
    with pytest.raises(DimensionError, match="does not match"):
        load_scenario(_write(tmp_path, doc))


def test_load_revalidates_operator_invariants(tmp_path):
    doc = _base_doc()
    doc["observables"]["E"] = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(ValidationError) as err:
        load_scenario(_write(tmp_path, doc))
    assert "idempotency" in str(err.value)


def _random_pair_doc(rng, shape) -> list:
    """Nested [re, im] pairs mixing floats, -0.0, 0.0 and ints of every size."""
    pool = [0, -0.0, 0.0, 1, -7, 2**53 + 1, -(2**63) - 5, 10**300 + 3, 1e-300, -1.5e308]
    size = int(np.prod(shape))
    picks = rng.integers(0, 2 * len(pool), size)
    flat = [pool[k] if k < len(pool) else x for k, x in zip(picks, rng.normal(size=size).tolist())]
    return np.array(flat, dtype=object).reshape(shape).tolist()


def test_decode_matches_per_entry_reference():
    rng = np.random.default_rng(404)
    for dim in (1, 2, 3, 8, 17):
        for ndim in (1, 2):
            doc = _random_pair_doc(rng, (dim,) * ndim + (2,))
            got = _decode(doc, dim, "m", ndim)
            want = reference_decode_pairs(doc, ndim)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_encode_matches_per_entry_reference():
    rng = np.random.default_rng(405)
    arrays = [p.matrix.array for p in build_ghsz().observables.values()]
    arrays.append(build_ghsz().state.vector)
    for dim in (1, 2, 5, 16):
        for shape in ((dim,), (dim, dim)):
            doc = _random_pair_doc(rng, shape + (2,))
            arrays.append(reference_decode_pairs(doc, len(shape)))
    for a in arrays:
        # json.dumps tells -0.0 from 0.0 and 1 from 1.0, which == does not.
        assert json.dumps(_encode(a)) == json.dumps(reference_encode_pairs(a))
