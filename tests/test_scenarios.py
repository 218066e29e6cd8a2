import json
import math
import random
import re
import time
import tracemalloc
from dataclasses import MISSING, fields, replace
from itertools import permutations, product as cartesian

import numpy as np
import pytest

from qdetect import (
    AdditivityClaim,
    CMatrix,
    CommonDetectorClaim,
    CommutationClaim,
    ConstraintClaim,
    ConstraintSet,
    CzClaim,
    DensityOperator,
    DetectionClaim,
    DimensionError,
    MAX_DIM,
    PreconditionError,
    Projection,
    Scenario,
    ScenarioFormatError,
    SignEquation,
    UnknownObservableError,
    ValidationError,
    build_example_44,
    build_ghsz,
    build_rt_analogue,
    check_C3,
    commutation_projection,
    complement,
    ghsz_sign_constraints,
    load_scenario,
    save_scenario,
    verify_example_44,
    verify_ghsz,
    verify_scenario,
)
from qdetect.cli import main
from qdetect.observables import _rho_trace
from qdetect.scenarios import (
    _CLAIM_KINDS,
    CONSTRAINT_SYMBOLS,
    MAX_SYMBOLS,
    _decode,
    _encode,
    _parse,
    _read_flat,
    _reject_duplicate_keys,
)

from support import (
    brute_force_constraints,
    count_products,
    ghz_vector,
    haar_unitary,
    outer_oracle_state,
    projection_in_basis,
    random_density,
    random_detecting_triple,
    random_projection,
    reference_decode_pairs,
    reference_encode_pairs,
    reference_floats,
)


# ---------------------------------------------------------------------------
# Sign-constraint system


def test_sign_equation_validation_and_semantics():
    with pytest.raises(ValidationError):
        SignEquation(("p",), ("q",), 2)
    with pytest.raises(ValidationError):
        SignEquation((), ("q",), 1)
    eq = SignEquation(("p", "q"), ("r",), -1)
    satisfying, _ = brute_force_constraints(ConstraintSet(("p", "q", "r"), (eq,)))
    assert {"p": 1, "q": 1, "r": -1} in satisfying
    assert {"p": 1, "q": 1, "r": 1} not in satisfying


def test_constraint_set_rejects_undeclared_symbol():
    with pytest.raises(ValidationError):
        ConstraintSet(("p",), (SignEquation(("p",), ("q",), 1),))


def test_enumerate_two_symbol_set():
    cs = ConstraintSet(("p", "q"), (SignEquation(("p",), ("q",), 1),))
    satisfying, total = brute_force_constraints(cs)
    assert total == 4
    assert len(satisfying) == 2
    for a in satisfying:
        assert a["p"] == a["q"]


def _longhand_holds(signs, fourth_sign: int) -> bool:
    # Written out longhand, independent of the SignEquation machinery.
    a_al, a_be, b, c_al, c_be, d_al, d_be = signs
    return (
        a_al * b == -c_al * d_al
        and a_be * b == -c_be * d_al
        and a_be * b == -c_al * d_be
        and a_al * b == fourth_sign * c_be * d_be
    )


def _brute_force_count(fourth_sign: int) -> int:
    return sum(_longhand_holds(signs, fourth_sign) for signs in cartesian((1, -1), repeat=7))


def test_ghsz_constraints_unsatisfiable():
    satisfying, total = brute_force_constraints(ghsz_sign_constraints())
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
    satisfying, total = brute_force_constraints(flipped)
    assert total == 128
    assert len(satisfying) == 16
    assert _brute_force_count(-1) == 16
    for a in satisfying:
        assert _longhand_holds([a[s] for s in CONSTRAINT_SYMBOLS], -1)
        assert set(a) == set(CONSTRAINT_SYMBOLS)


def _constraint_report(cs: ConstraintSet, satisfiable: bool = True):
    state = DensityOperator(CMatrix([[1.0]]))
    scn = Scenario("signs", 1, state, {}, [ConstraintClaim(cs, satisfiable)])
    (check,) = verify_scenario(scn).checks
    return check


_REFUTED = re.compile(
    r"; equations? ([0-9, ]+): every symbol cancels and the signs multiply to -1$"
)


def _assert_refutes(cs: ConstraintSet, detail: str) -> None:
    """The equations a count-0 detail names, taken together, read 1 = -1.

    Multiplies them out directly, with no elimination: every symbol must
    occur an even number of times and the signs must multiply to -1.
    """
    named = _REFUTED.search(detail)
    assert named, detail
    numbers = [int(n) for n in named.group(1).split(", ")]
    assert numbers == sorted(set(numbers)) and 1 <= numbers[0] and numbers[-1] <= len(cs.equations)
    odd, sign = set(), 1
    for n in numbers:
        eq = cs.equations[n - 1]
        sign *= eq.sign
        odd ^= {s for s in cs.symbols if (eq.left + eq.right).count(s) % 2}
    assert odd == set() and sign == -1


def test_verify_counts_match_enumeration():
    rng = np.random.default_rng(59)
    # 60 random sizes up to 12 symbols, then systems of dense-verify's 13 and
    # 14, and one each of 15 and 16.
    for k in [0] * 60 + [13, 14, 13, 14, 15, 16]:
        k = k or int(rng.integers(1, 13))
        symbols = tuple(f"s{i}" for i in range(k))

        def monomial():
            # With replacement, so a symbol may occur twice and cancel.
            return tuple(rng.choice(symbols, size=int(rng.integers(1, 4))).tolist())

        eqs = tuple(
            SignEquation(monomial(), monomial(), int(rng.choice([1, -1])))
            for _ in range(int(rng.integers(0, k + 2)))
        )
        cs = ConstraintSet(symbols, eqs)
        satisfying, total = brute_force_constraints(cs)
        check = _constraint_report(cs)
        assert check.residual == float(len(satisfying))
        counted = f"{len(satisfying)} of {total} sign assignments satisfy"
        if satisfying:
            assert check.detail == counted
        else:
            assert check.detail.startswith(counted + "; equation")
            _assert_refutes(cs, check.detail)
        assert check.passed == (len(satisfying) > 0)
    assert _constraint_report(ghsz_sign_constraints(), False).detail == (
        "0 of 128 sign assignments satisfy; equations 1, 2, 3, 4: "
        "every symbol cancels and the signs multiply to -1"
    )


def test_unsatisfiable_detail_names_a_refuting_subset():
    rng = np.random.default_rng(61)
    for _ in range(200):
        k = int(rng.integers(1, MAX_SYMBOLS + 1))
        symbols = tuple(f"s{i}" for i in range(k))

        def monomial():
            return tuple(rng.choice(symbols, size=int(rng.integers(1, 4))).tolist())

        eqs = [
            SignEquation(monomial(), monomial(), int(rng.choice([1, -1])))
            for _ in range(int(rng.integers(1, k + 2)))
        ]
        # The product of a random subset with its sign flipped contradicts
        # that subset; shuffled in, it may be found through other rows.
        subset = [eqs[j] for j in rng.choice(len(eqs), int(rng.integers(1, len(eqs) + 1)), False)]
        eqs.append(
            SignEquation(
                sum((eq.left for eq in subset), ()),
                sum((eq.right for eq in subset), ()),
                -math.prod(eq.sign for eq in subset),
            )
        )
        cs = ConstraintSet(symbols, tuple(eqs[j] for j in rng.permutation(len(eqs))))
        check = _constraint_report(cs, False)
        assert check.passed and check.residual == 0.0
        assert check.detail.startswith(f"0 of {2**k} sign assignments satisfy; equation")
        _assert_refutes(cs, check.detail)
    # One equation can refute itself.
    equal = SignEquation(("p",), ("q",), 1)
    cs = ConstraintSet(("p", "q"), (equal, SignEquation(("p", "q"), ("q", "p"), -1)))
    assert _constraint_report(cs, False).detail == (
        "0 of 4 sign assignments satisfy; equation 2: "
        "every symbol cancels and the signs multiply to -1"
    )


def test_verify_counts_forty_symbols_without_enumeration():
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
    numbers = ", ".join(str(n) for n in range(1, 32))
    assert f"; equations {numbers}: every symbol cancels" in check.detail


def test_constraint_sets_cap_their_symbols(ghsz_file, tmp_path):
    # 64 free symbols: every one of the 2^64 assignments satisfies, counted
    # exactly in the residual and the detail.
    check = _constraint_report(_free_symbols(MAX_SYMBOLS))
    assert check.residual == float(2**64)
    assert check.detail == (
        "18446744073709551616 of 18446744073709551616 sign assignments satisfy"
    )
    with pytest.raises(ValidationError, match="65 symbols; at most 64"):
        _free_symbols(MAX_SYMBOLS + 1)
    # A file carrying such a claim is an input error for any command.
    with open(ghsz_file) as handle:
        doc = json.load(handle)
    doc["claims"].append(_claim_doc(MAX_SYMBOLS + 1))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["detect", str(path), "M", "G_alpha"]) == 2


def _free_symbols(k: int) -> ConstraintSet:
    return ConstraintSet(tuple(f"s{i:02d}" for i in range(k)), ())


def _claim_doc(k: int) -> dict:
    symbols = [f"s{i:02d}" for i in range(k)]
    return {"kind": "constraints", "symbols": symbols, "equations": [], "satisfiable": True}


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
    # Each entry of a list field names an observable too.
    with pytest.raises(UnknownObservableError, match="^no observable named 'nope'"):
        Scenario("x", 2, rho, {"E": e}, [AdditivityClaim("E", ("E", "nope"))])
    with pytest.raises(ValidationError, match=r"^additivity claim: fs is \['E'\], not a tuple$"):
        Scenario("x", 2, rho, {"E": e}, [AdditivityClaim("E", ["E"])])


def test_scenario_refuses_an_empty_list_field(tmp_path, ghsz_file):
    # An empty fs would pass as additivity:E~ with residual 0.
    rho = DensityOperator.pure([1.0, 0.0])
    e = Projection(CMatrix(np.diag([1.0, 0.0])), name="E")
    for claim in (AdditivityClaim("E", ()), CzClaim("E", "E", ())):
        with pytest.raises(ValidationError, match=f"^{claim.kind} claim: fs is empty$"):
            Scenario("x", 2, rho, {"E": e}, [claim])
    with open(ghsz_file) as handle:
        doc = json.load(handle)
    doc["claims"].append({"kind": "additivity", "e": "E_alpha", "fs": []})
    path = _write(tmp_path, doc)
    with pytest.raises(ValidationError, match="^additivity claim: fs is empty$"):
        load_scenario(path)
    assert main(["detect", path, "M", "G_alpha"]) == 2


def test_scenario_refuses_a_declared_non_claim(ghsz):
    with pytest.raises(ValidationError, match=r"^declared_claims\[1\]: a str, not a claim$"):
        replace(ghsz, declared_claims=[ghsz.declared_claims[0], "commute E_alpha F"])
    with pytest.raises(ValidationError, match=r"^declared_claims\[0\]: a tuple, not a claim$"):
        replace(ghsz, declared_claims=[("E_alpha", "F")])


def test_scenario_refuses_operands_of_the_wrong_type():
    # A CMatrix observable used to build, and verify_scenario then raised
    # AttributeError: 'CMatrix' object has no attribute 'matrix'.
    rho = DensityOperator.pure([1.0, 0.0])
    e = Projection(CMatrix(np.eye(2)), name="A")
    with pytest.raises(ValidationError, match=r"^observables\['A'\]: a CMatrix, not a Projection$"):
        Scenario("x", 2, rho, {"A": CMatrix(np.eye(2))}, [DetectionClaim("A", "A")])
    with pytest.raises(ValidationError, match=r"^state: a CMatrix, not a DensityOperator$"):
        Scenario("x", 2, CMatrix(np.eye(2) / 2), {"A": e})
    assert verify_scenario(Scenario("x", 2, rho, {"A": e}, [DetectionClaim("A", "A")])).exit_code == 0


def test_scenario_names_observables_that_are_not_a_mapping(ghsz):
    # Each used to raise a bare AttributeError: no attribute 'items'.
    pairs = list(ghsz.observables.items())
    for value, kind in ((pairs, "list"), ((kv for kv in pairs), "generator")):
        with pytest.raises(ScenarioFormatError, match=f"^observables: a {kind}, not a name->"):
            replace(ghsz, observables=value)
    assert replace(ghsz, observables=dict(pairs)) == ghsz


def test_scenario_keeps_claims_given_as_a_generator(ghsz):
    # Validation used to read the generator, leaving no claims to store.
    scn = replace(ghsz, declared_claims=(c for c in ghsz.declared_claims))
    assert scn.declared_claims == ghsz.declared_claims
    assert len(verify_scenario(scn).checks) == 15


def test_scenario_refuses_what_load_scenario_refuses(tmp_path):
    # Each of these used to build and save a file that load_scenario refused.
    rho = DensityOperator.pure([1.0, 0.0])
    e = Projection(CMatrix(np.diag([1.0, 0.0])), name="E")
    empty = "observables: an observable name must not be empty"
    with pytest.raises(ScenarioFormatError, match=f"^{empty}$"):
        Scenario("x", 2, rho, {"": e}, [DetectionClaim("", "")])
    with pytest.raises(ScenarioFormatError, match="^observables: a name must be a string, got 3$"):
        Scenario("x", 2, rho, {3: e})
    with pytest.raises(ScenarioFormatError, match="^name: expected a string, got 3$"):
        Scenario(3, 2, rho, {"E": e})
    for dim in (True, 0, -2, 2.0, "2", None):
        with pytest.raises(ScenarioFormatError, match=r"^dim must be a positive integer, got "):
            Scenario("x", dim, rho, {"E": e})
    # The loader's messages are the constructor's.
    save_scenario(Scenario("x", 2, rho, {"E": e}), tmp_path / "x.json")
    good = json.loads((tmp_path / "x.json").read_text())
    for key, value, message in (
        ("observables", {"": good["observables"]["E"]}, empty),
        ("name", 3, "name: expected a string, got 3"),
        ("dim", True, "dim must be a positive integer, got True"),
    ):
        (tmp_path / "bad.json").write_text(json.dumps({**good, key: value}))
        with pytest.raises(ScenarioFormatError, match=f"^{re.escape(message)}$"):
            load_scenario(tmp_path / "bad.json")


def test_unnormalized_vector_stands_for_its_normalized_projector(tmp_path):
    e = Projection(CMatrix(np.diag([1.0, 0.0])), name="E")
    with pytest.raises(ValidationError, match="nonzero"):
        DensityOperator.pure([0, 0])
    scn = Scenario("x", 2, DensityOperator.pure([2, 0]), {"E": e})
    assert scn.state.vector.tolist() == [1, 0]
    save_scenario(scn, tmp_path / "pure.json")
    loaded = load_scenario(tmp_path / "pure.json")
    assert loaded == scn
    assert _rho_trace(loaded.state.matrix, e.matrix).real == 1.0
    save_scenario(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "pure.json").read_bytes()


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
    assert report.exit_code == 0
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
    assert by_name["no-go:identification"].detail == (
        "the sign system has solutions: 16 of 128 sign assignments satisfy"
    )
    assert report.exit_code == 1


def test_verify_ghsz_reads_premises_by_kind(ghsz):
    # A failing claim of another kind is no premise of the no-go, which
    # keeps its passing line byte for byte.
    ride = [AdditivityClaim("E_alpha", ("F", "G_alpha")), CommonDetectorClaim("E_alpha", "E_beta")]
    report = verify_ghsz(replace(ghsz, declared_claims=[*ghsz.declared_claims, *ride]))
    *lines, no_go = report.checks
    assert [c.passed for c in lines[-2:]] == [False, False]
    assert no_go == verify_ghsz(ghsz).checks[-1] and no_go.passed


def test_verify_ghsz_failing_conclusion_says_why(ghsz):
    bad = [DetectionClaim("F", "G_alpha"), CommutationClaim("E_alpha", "E_beta")]
    report = verify_ghsz(replace(ghsz, declared_claims=[*ghsz.declared_claims, *bad]))
    no_go = report.checks[-1]
    assert not no_go.passed
    assert no_go.detail == "failing lines: detection:F->G_alpha, commutation:E_alpha~E_beta"
    premises = [c for c in ghsz.declared_claims if not isinstance(c, ConstraintClaim)]
    no_go = verify_ghsz(replace(ghsz, declared_claims=premises)).checks[-1]
    assert (no_go.passed, no_go.detail) == (False, "no sign-constraint system is declared")


def test_verify_scenario_flags_false_claim():
    e = Projection(CMatrix([[0.5, 0.5], [0.5, 0.5]]), name="E")
    b = Projection(CMatrix([[0.5, -0.5j], [0.5j, 0.5]]), name="B")
    rho = DensityOperator(CMatrix(np.diag([0.5, 0.5])))
    scn = Scenario("bad", 2, rho, {"E": e, "B": b}, [CommutationClaim("E", "B")])
    report = verify_scenario(scn)
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
    # Each public call warns at its caller's line, not at a library line.
    for call in (build_example_44, verify_example_44):
        with pytest.warns(UserWarning) as record:
            call(1.0)
        assert [w.filename for w in record] == [__file__]


@pytest.mark.filterwarnings("error::UserWarning")
def test_example_44_refuses_a_non_finite_angle():
    # Refused before the range warning, which would otherwise fire first.
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(PreconditionError, match="theta"):
            build_example_44(theta)


def test_verify_example_44_at_pi_sixth():
    report = verify_example_44(math.pi / 6.0)
    assert report.exit_code == 0
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
    assert report.exit_code == 0


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
    assert report.exit_code == 0
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
    ghsz = build_ghsz()
    wide = ConstraintClaim(_free_symbols(MAX_SYMBOLS), satisfiable=True)
    for scn in (ghsz, Scenario("wide", 16, ghsz.state, {}, [wide])):
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


# Built from a claim kind's field annotations alone, so every kind in the
# table gets the two tests below; a new field type needs one entry here.
_FIELD_SAMPLES = {
    "str": lambda default: "E",
    "bool": lambda default: default is MISSING or not default,
    "tuple[str, ...]": lambda default: ("E", "E"),
    "ConstraintSet": lambda default: ConstraintSet(
        ("p", "q"), (SignEquation(("p",), ("q", "q"), -1), SignEquation(("q",), ("p",), 1))
    ),
}


def _saved_claims(tmp_path, kind: str):
    """A scenario whose claims[1] is a sample of `kind`, that sample, and the path written."""
    cls = _CLAIM_KINDS[kind]
    claim = cls(*(_FIELD_SAMPLES[f.type](f.default) for f in fields(cls)))
    base = load_scenario(_write(tmp_path, _base_doc()))
    claims = [CommutationClaim("E", "E"), claim]
    scn = Scenario(base.name, base.dim, base.state, base.observables, claims)
    path = tmp_path / f"{kind}.json"
    save_scenario(scn, path)
    return scn, claim, path


@pytest.mark.parametrize("kind", sorted(_CLAIM_KINDS))
def test_claim_kind_survives_save_load_save(tmp_path, kind):
    scn, claim, path = _saved_claims(tmp_path, kind)
    assert json.loads(path.read_text())["claims"][1]["kind"] == kind
    loaded = load_scenario(path)
    assert loaded == scn and loaded.declared_claims[1] == claim
    save_scenario(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("kind", sorted(_CLAIM_KINDS))
def test_claim_kind_names_each_missing_or_mistyped_field(tmp_path, kind):
    _, claim, path = _saved_claims(tmp_path, kind)
    doc = json.loads(path.read_text())
    defaults = {f.name: f.default for f in fields(claim) if f.default is not MISSING}
    keys = [key for key in doc["claims"][1] if key != "kind"]
    assert keys
    for key in keys:
        entry = doc["claims"][1]
        value = entry.pop(key)
        if key in defaults:
            loaded = load_scenario(_write(tmp_path, doc)).declared_claims[1]
            assert loaded == replace(claim, **{key: defaults[key]})
        else:
            with pytest.raises(ScenarioFormatError, match=rf"^claims\[1\]\.{key}: missing"):
                load_scenario(_write(tmp_path, doc))
        # 3 is none of a string, a boolean, an array or an object.
        entry[key] = 3
        with pytest.raises(ScenarioFormatError, match=rf"^claims\[1\]\.{key}: expected"):
            load_scenario(_write(tmp_path, doc))
        entry[key] = value
    for bogus in ("bogus", [kind], None):
        doc["claims"][1]["kind"] = bogus
        with pytest.raises(ScenarioFormatError, match=r"^claims\[1\]: unknown claim kind"):
            load_scenario(_write(tmp_path, doc))


@pytest.mark.parametrize("kind", sorted(_CLAIM_KINDS))
def test_claim_kind_refuses_unknown_fields(tmp_path, kind):
    # A key that is no field of the kind, such as a misspelled one, is an
    # error naming the claim and the key, in a claim and in an equation:
    # dropped, a misspelled "expected" would load as its default, true.
    _, _, path = _saved_claims(tmp_path, kind)
    doc = json.loads(path.read_text())
    entry = doc["claims"][1]
    for key in [key for key in entry if key != "kind"]:
        entry[key + "x"] = entry.pop(key)  # misspelled
        with pytest.raises(ScenarioFormatError, match=rf"^claims\[1\]: unknown field '{key}x'$"):
            load_scenario(_write(tmp_path, doc))
        entry[key] = entry.pop(key + "x")
    entry["bogus"] = 3
    with pytest.raises(ScenarioFormatError, match=r"^claims\[1\]: unknown field 'bogus'$"):
        load_scenario(_write(tmp_path, doc))
    del entry["bogus"]
    for j, equation in enumerate(entry.get("equations", [])):
        equation["sgn"] = equation["sign"]
        where = rf"claims\[1\]\.equations\[{j}\]"
        with pytest.raises(ScenarioFormatError, match=rf"^{where}: unknown field 'sgn'$"):
            load_scenario(_write(tmp_path, doc))
        del equation["sgn"]
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


@pytest.mark.parametrize("where", ["observables[E]", "state.matrix"])
def test_load_names_the_matrix_with_a_non_finite_entry(tmp_path, where):
    doc = _base_doc()
    doc["state"] = {"type": "density", "matrix": [list(row) for row in doc["observables"]["E"]]}
    matrix = doc["observables"]["E"] if where.startswith("observables") else doc["state"]["matrix"]
    for leaf in (math.nan, math.inf, -math.inf):
        matrix[1][0] = [0.0, leaf]  # json.dumps writes NaN, Infinity, -Infinity
        with pytest.raises(ValidationError, match=rf"^{re.escape(where)}: matrix entries must be finite$"):
            load_scenario(_write(tmp_path, doc))


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
            shape = (dim,) * ndim + (2,)
            doc = _random_pair_doc(rng, shape)
            # _decode takes the array _parse makes of a well-formed array.
            got = _decode(reference_floats(doc, shape), dim, "m", ndim)
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


def test_load_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xff"}')
    with pytest.raises(ScenarioFormatError, match="is not UTF-8 text: 'utf-8' codec can't decode"):
        load_scenario(path)


# ---------------------------------------------------------------------------
# The reader against json.loads


def _array_slots(doc) -> list:
    """(object, key, ndim) for each array path of a parsed scenario document."""
    slots = []
    if isinstance(doc, dict) and isinstance(doc.get("state"), dict):
        slots += [(doc["state"], "vector", 1), (doc["state"], "matrix", 2)]
    if isinstance(doc, dict) and isinstance(doc.get("observables"), dict):
        slots += [(doc["observables"], key, 2) for key in doc["observables"]]
    return slots


def _loads_then_floats(text: str):
    """What _parse must give: json.loads, then reference_floats on each array path."""
    doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    for obj, key, ndim in _array_slots(doc):
        value = obj.get(key)
        if isinstance(value, list) and value:
            array = reference_floats(value, (len(value),) * ndim + (2,))
            if array is not None:
                obj[key] = array
    return doc


def _check_kept_lists_are_faults(tmp_path, text: str) -> None:
    """A list that the reference keeps at an array path has a fault for
    load_scenario to name, so _decode never views a list as an array."""
    doc = _loads_then_floats(text)
    if any(isinstance(obj.get(key), list) for obj, key, _ in _array_slots(doc)):
        with pytest.raises((ScenarioFormatError, DimensionError)):
            load_scenario(_write(tmp_path, text))


def _canonical(x):
    """x in a form == compares exactly: types kept, floats by bits, arrays by bytes."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return ("object", [(key, _canonical(value)) for key, value in x.items()])
    if isinstance(x, list):
        return ("list", [_canonical(value) for value in x])
    if isinstance(x, float):
        return ("float", x.hex())
    return (type(x).__name__, x)


def _outcome(route, text: str):
    try:
        return _canonical(route(text))
    except (ValueError, RecursionError) as err:  # ScenarioFormatError is a ValueError
        return type(err), str(err)


def _object_text(pairs) -> str:
    """A JSON object from (key, value text) pairs, duplicate keys allowed."""
    return "{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in pairs) + "}"


def _reordered_texts(doc: dict):
    """doc's text with its top-level keys and its state keys in every order."""
    for state in permutations(doc["state"].items()):
        state_text = _object_text((key, json.dumps(value)) for key, value in state)
        top = [(k, state_text if k == "state" else json.dumps(v)) for k, v in doc.items()]
        yield from (_object_text(order) for order in permutations(top))


def _duplicated_texts(text: str):
    """Compact scenario text with a key repeated in the top level, the state,
    the observables or the first claim."""
    for key in ("dim", "type", "E", "kind"):
        anchor = f'"{key}": '
        assert anchor in text
        yield text.replace(anchor, f"{anchor}[], {anchor}", 1)


def test_parse_matches_json_loads_on_edited_files(tmp_path):
    scenarios = (build_ghsz(), build_rt_analogue(), build_example_44(math.pi / 6.0))
    saved = []
    for scn in scenarios:
        path = tmp_path / "saved.json"
        save_scenario(scn, path)
        saved.append(path.read_text())
    docs = [json.loads(text) for text in saved]
    assert docs[2]["state"]["type"] == "density"
    # Both forms of whitespace: save_scenario's indented text and a compact one.
    bases = saved + [json.dumps(doc) for doc in docs]
    for doc in docs[1:]:
        bases.extend(_duplicated_texts(json.dumps(doc)))

    # A byte-order mark before each text and a second value after it.
    texts = bases + ["\ufeff" + text for text in bases] + [text + " []" for text in bases]
    for scn, doc in zip(scenarios[1:], docs[1:]):
        for text in _reordered_texts(doc):
            # dim and type may come after the arrays they size.
            assert load_scenario(_write(tmp_path, text)) == scn
            texts.append(text)

    rng = random.Random(2206)
    alphabet = list('{}[]:,"\\ \n\t0123456789-+.eEtfnNaI\x00\ufeff') + ['"x"', '"dim"', "[]", "{}"]
    for _ in range(2400):
        text = rng.choice(bases)
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(4)
        if edit == 0:
            texts.append(text[:at])
        elif edit == 1:
            texts.append(text[:at] + text[at + 1:])
        elif edit == 2:
            texts.append(text[:at] + rng.choice(alphabet) + text[at + 1:])
        else:
            texts.append(text[:at] + rng.choice(alphabet) + text[at:])
    kinds = set()
    for text in texts:
        want = _outcome(_loads_then_floats, text)
        assert _outcome(_parse, text) == want, text
        kinds.add(want[1].partition(": line ")[0] if isinstance(want[0], type) else "parsed")
        if not isinstance(want[0], type):
            _check_kept_lists_are_faults(tmp_path, text)
    # The set reaches every way the reader itself can stop, not only the scanner's.
    for kind in (
        "parsed",
        "Expecting property name enclosed in double quotes",
        "Expecting ':' delimiter",
        "Expecting ',' delimiter",
        "Expecting value",
        "Extra data",
        "Unexpected UTF-8 BOM (decode using utf-8-sig)",
        "Unterminated string starting at",
    ):
        assert kind in kinds
    assert any(kind.startswith("duplicate key") for kind in kinds)


_NUMBER = r"-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][-+]?\d+)?"
_PAIR = re.compile(rf"\[\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\]")


def _edited_arrays(text: str, ndim: int):
    """The text of an array of [re, im] pairs, edited at its leaves, its
    whitespace and its nesting."""
    first = _PAIR.search(text)
    (a0, a1), (b0, b1), end = first.span(1), first.span(2), first.end()
    leaves = [
        "0", "-0", str(2**53 + 1), str(10**400), "1" * 4301, "NaN", "Infinity", "-Infinity",
        "\u0663", "1 2", "01", ".5", "+5", "1e", "-", "",
    ]
    for leaf in leaves:
        yield text[:a0] + leaf + text[a1:]
        yield text[:b0] + leaf + text[b1:]
    for space in ("\t", "\r", "\r\n", "\x0c", "\u00a0"):
        yield text[:a1] + space + text[a1:]
        yield text.replace(" ", space).replace("\n", space)
    # A number moved across a bracket into an empty place: a flat list
    # without the brackets could not tell these from the well-formed text.
    yield text[: first.start()] + text[a0:a1] + text[first.start():a0] + text[a1:]
    yield text[:b0] + text[b1:end] + text[b0:b1] + text[end:]
    yield text[:b1] + ", 0.0" + text[b1:]  # a 3-number "pair"
    yield text[: first.start()] + "[" + first.group(0) + "]" + text[end:]
    yield text[: first.start()] + text[end:].lstrip(", \n")
    yield "[" + text + "]"
    yield text[1:-1]
    yield "[]"
    if ndim == 2:
        start = text.index("[", 1)
        row_end = json.JSONDecoder().raw_decode(text, start)[1]
        yield text[:start] + "[]" + text[row_end:]  # an empty row
        yield text[:start] + text[row_end:].lstrip(", \n")  # a missing row
        *_, before, last = _PAIR.finditer(text, 0, row_end)
        yield text[: before.end()] + text[last.end():]  # a ragged row
    for stray in ('"', "}", "]", ",", "5"):
        yield text + stray


def test_parse_matches_json_loads_on_edited_arrays(tmp_path):
    # The flat reader must give json.loads' document and _floats' arrays, or
    # raise its exception, for every array path in both whitespace forms.
    saved = []
    for scn in (build_rt_analogue(), build_example_44(math.pi / 6.0)):
        save_scenario(scn, tmp_path / "saved.json")
        saved.append((tmp_path / "saved.json").read_text())
    texts = saved + [json.dumps(json.loads(text)) for text in saved]
    kinds = set()
    for text in texts:
        doc = json.loads(text)
        slots = [("vector", 1) if "vector" in doc["state"] else ("matrix", 2)]
        slots += [(key, 2) for key in doc["observables"]]
        for key, ndim in slots:
            start = re.search(rf'"{key}":\s*', text).end()
            end = json.JSONDecoder().raw_decode(text, start)[1]
            for edited in _edited_arrays(text[start:end], ndim):
                case = text[:start] + edited + text[end:]
                want = _outcome(_loads_then_floats, case)
                assert _outcome(_parse, case) == want, case
                kinds.add(want[0] if isinstance(want[0], type) else "parsed")
                if not isinstance(want[0], type):
                    _check_kept_lists_are_faults(tmp_path, case)
    assert kinds == {"parsed", json.JSONDecodeError, ValueError}


def test_flat_reader_reads_non_finite_leaves(tmp_path):
    # NaN, Infinity and -Infinity are numbers to the flat reader: canonical
    # text holding them takes the flat route at every array path, in both
    # whitespace forms, and reads to the reference's bits.
    saved = []
    for scn in (build_rt_analogue(), build_example_44(math.pi / 6.0)):
        save_scenario(scn, tmp_path / "saved.json")
        saved.append((tmp_path / "saved.json").read_text())
    for text in saved + [json.dumps(json.loads(text)) for text in saved]:
        doc = json.loads(text)
        slots = [("vector", 1) if "vector" in doc["state"] else ("matrix", 2)]
        slots += [(key, 2) for key in doc["observables"]]
        for key, ndim in slots:
            start = re.search(rf'"{key}":\s*', text).end()
            end = json.JSONDecoder().raw_decode(text, start)[1]
            *_, last = pairs = list(_PAIR.finditer(text, start, end))
            spans = [pairs[0].span(1), pairs[0].span(2), last.span(1)]
            case = text
            for (a, b), leaf in sorted(zip(spans, ("NaN", "Infinity", "-Infinity")), reverse=True):
                case = case[:a] + leaf + case[b:]
            case_end = end + len(case) - len(text)
            got = _read_flat(case, start, ndim)
            assert got is not None and got[1] == case_end, case
            value = json.loads(case[start:case_end])
            want = reference_floats(value, (len(value),) * ndim + (2,))
            assert np.isnan(want.flat[0]) and want.flat[1] == math.inf and want.flat[-2] == -math.inf
            assert got[0].shape == want.shape and got[0].tobytes() == want.tobytes()


def test_load_refuses_many_tiny_arrays_in_linear_time(tmp_path):
    # The flat reader scans each array only up to the next '"'; a search for
    # a pair array's closing brackets would scan to the end of the file for
    # each of these, so the time would grow with the square of their count.
    names = ", ".join(f'"E{i}": [1]' for i in range(100_000))
    text = json.dumps(_base_doc()).replace('"observables": {', '"observables": {' + names + ", ", 1)
    path = _write(tmp_path, text)
    start = time.perf_counter()
    with pytest.raises(ScenarioFormatError, match=r"^observables\[E0\]: row 0 is not square$"):
        load_scenario(path)
    assert time.perf_counter() - start < 2.0


def test_load_peak_memory_stays_near_file_size(tmp_path):
    # The shape of the simulate-family benchmark: a dim-64 density state and
    # 12 observables diagonal in one Haar basis, written without indentation.
    rng = np.random.default_rng(64)
    dim = 64
    basis = haar_unitary(rng, dim)
    observables = {
        f"X{j:02d}": projection_in_basis(basis, rng.integers(0, 2, dim)) for j in range(12)
    }
    scn = Scenario("family", dim, random_density(rng, dim), observables)
    path = tmp_path / "family.json"
    save_scenario(scn, path)
    path.write_text(json.dumps(json.loads(path.read_text())))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = load_scenario(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == scn
    # Reading the file holds its bytes and its text; parsing adds one
    # matrix's lists at a time.
    assert peak < 2.5 * size
