
import re

import numpy as np
import pytest

from qdetect import (
    AdditivityClaim,
    CMatrix,
    CoMeasurabilityError,
    CzClaim,
    DensityOperator,
    DEFAULT_TOL,
    DimensionError,
    FormEqualityClaim,
    LemmaViolationError,
    PreconditionError,
    Projection,
    SumRuleClaim,
    UndefinedConditionalError,
    Tolerance,
    ValidationError,
    assignment_probs,
    check_C3,
    complement,
    cond_prob,
    joint_distribution,
    outer,
    simulation_equalities,
)
from qdetect.assignment import MAX_FAMILY, outcome_bits

from support import (
    haar_unitary,
    projection_in_basis,
    random_commuting_family,
    random_commuting_nondetecting_triple,
    random_commuting_pair,
    random_density,
    random_detecting_quad,
    random_detecting_triple,
    random_projection,
    ROUTE_TOL,
    count_commutation_checks,
    count_products,
    pair_library,
    one_claim_line,
    reference_chain_trace,
    reference_commutator_defect,
    reference_conditional,
    reference_joint_atoms,
    refine_inside,
    spectral_atoms,
)


def _theta_pair(theta: float):
    # Plus-direction projection against a rank-one tilted by theta into the
    # imaginary axis; they commute only at the degenerate angles.
    e = Projection(CMatrix(0.5 * np.ones((2, 2))), name="E")
    f = Projection(outer([np.cos(theta), 1j * np.sin(theta)]), name="F")
    return e, f


def test_assignment_probs_frozen_single_site(ghsz):
    probs = assignment_probs(ghsz.observable("E_alpha"), ghsz.observable("F"), ghsz.state)
    assert probs.p_e_and_f == pytest.approx(0.25, abs=1e-12)
    assert probs.p_eprime_and_f == pytest.approx(0.25, abs=1e-12)
    assert probs.tr_rho_f == pytest.approx(0.5, abs=1e-12)
    assert probs.c3_residual <= 1e-12


def test_assignment_probs_dimension_mismatch():
    e = Projection(CMatrix(np.eye(2)))
    f = Projection(CMatrix(np.eye(3)))
    with pytest.raises(DimensionError):
        assignment_probs(e, f, DensityOperator(CMatrix(np.diag([0.5, 0.5]))))


def test_sandwich_is_probability_for_any_pair():
    rng = np.random.default_rng(61)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        e = random_projection(rng, dim)
        f = random_projection(rng, dim)
        rho = random_density(rng, dim)
        probs = assignment_probs(e, f, rho)
        assert 0.0 <= probs.p_e_and_f <= 1.0
        assert 0.0 <= probs.p_eprime_and_f <= 1.0
        assert probs.c3_residual >= 0.0


def test_cond_prob_frozen(ghsz):
    got = cond_prob(ghsz.observable("E_alpha"), ghsz.observable("F"), ghsz.state)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_cond_prob_refuses_non_commuting(rt):
    with pytest.raises(CoMeasurabilityError):
        cond_prob(rt.observable("E"), rt.observable("F"), rt.state)


def test_cond_prob_undefined_on_null_event():
    rho = DensityOperator.pure([1.0, 0.0, 0.0])
    f = Projection(CMatrix(np.diag([0.0, 0.0, 1.0])))
    g = Projection(CMatrix(np.diag([0.0, 1.0, 0.0])))
    with pytest.raises(UndefinedConditionalError):
        cond_prob(f, g, rho)


def test_sum_rule_claim_extension_sweep():
    # For a commuting pair the sandwich Tr(rho.E.F.E) extends the joint trace
    # Tr(rho.E.F): the sum-rule line passes, and its residual is twice their
    # distance on the full chains.
    rng = np.random.default_rng(67)
    for _ in range(40):
        dim = int(rng.integers(2, 9))
        e, f = random_commuting_pair(rng, dim)
        rho = random_density(rng, dim)
        line = one_claim_line(SumRuleClaim("E", "F"), rho, {"E": e, "F": f})
        em, fm, rm = e.matrix.array, f.matrix.array, rho.matrix.array
        gap = abs(reference_chain_trace(rm, em, fm, em) - reference_chain_trace(rm, em, fm))
        assert line.passed and abs(line.residual - 2.0 * gap) <= ROUTE_TOL * dim


def _additivity_values(line) -> tuple[float, float]:
    pattern = r"p\(E&sum F\)=(\S+) sum p\(E&F\)=(\S+)"
    whole, parts = re.fullmatch(pattern, line.detail).groups()
    return float(whole), float(parts)


def test_additivity_claim_any_e():
    # Additivity of the sandwich needs no compatibility between e and the
    # family; linearity in the middle slot does all the work. Both sides
    # match the full chains.
    rng = np.random.default_rng(71)
    for _ in range(30):
        dim = int(rng.integers(3, 9))
        v = haar_unitary(rng, dim)
        family = {f"F{j}": Projection(outer(v[:, j])) for j in range(int(rng.integers(2, dim)))}
        e, rho = random_projection(rng, dim), random_density(rng, dim)
        line = one_claim_line(AdditivityClaim("E", tuple(family)), rho, {"E": e, **family})
        assert line.passed and line.name == "additivity:E~" + "+".join(family)
        whole, parts = _additivity_values(line)
        em, rm = e.matrix.array, rho.matrix.array
        total = sum(f.matrix.array for f in family.values())
        each = [reference_chain_trace(rm, em, f.matrix.array, em).real for f in family.values()]
        assert abs(whole - reference_chain_trace(rm, em, total, em).real) <= ROUTE_TOL * dim
        assert abs(parts - sum(each)) <= ROUTE_TOL * dim * len(each)
        assert line.residual == abs(whole - parts)


def test_additivity_claim_fails_on_an_overlapping_family(ghsz):
    # F and its complement are orthogonal, F and G_alpha are not: the failing
    # line names the first overlapping pair and nothing raises.
    observables = {**ghsz.observables, "F'": complement(ghsz.observable("F"))}
    good = one_claim_line(AdditivityClaim("E_beta", ("F", "F'")), ghsz.state, observables)
    assert good.passed and good.residual == 0.0
    assert _additivity_values(good)[0] == pytest.approx(0.5, abs=1e-15)
    claim = AdditivityClaim("E_alpha", ("F'", "F", "G_alpha"))
    bad = one_claim_line(claim, ghsz.state, observables)
    assert (bad.passed, bad.residual) == (False, 0.25)
    assert bad.detail == "overlap F'.G_alpha = 2.500e-01 > gate 1.600e-09"
    rng = np.random.default_rng(73)
    for dim in (3, 8):
        obs = {name: random_projection(rng, dim) for name in ("E", "F", "G")}
        line = one_claim_line(AdditivityClaim("E", ("F", "G")), random_density(rng, dim), obs)
        assert not line.passed and line.detail.startswith("overlap F.G = ")
        line = one_claim_line(AdditivityClaim("E", ("F", "F")), random_density(rng, dim), obs)
        assert not line.passed and line.detail.startswith("overlap F.F = ")


def test_check_C3_commuting_sweep():
    rng = np.random.default_rng(73)
    for _ in range(40):
        dim = int(rng.integers(2, 9))
        e, f = random_commuting_pair(rng, dim)
        assert check_C3(e, f, random_density(rng, dim))


def test_check_C3_fails_at_pure_components():
    # Non-commuting rank-one pair: both sandwiches equal 1/4 regardless of the
    # angle, so the sum rule misses Tr(rho.F) by |cos^2 - 1/2| at the first
    # basis state and by |sin^2 - 1/2| at the second, yet balances at their
    # even mixture.
    theta = np.pi / 6.0
    e, f = _theta_pair(theta)
    rho1 = DensityOperator.pure([1.0, 0.0])
    rho2 = DensityOperator.pure([0.0, 1.0])
    mix = DensityOperator(CMatrix(0.5 * np.eye(2)))
    assert assignment_probs(e, f, rho1).c3_residual == pytest.approx(0.25, abs=1e-12)
    assert assignment_probs(e, f, rho2).c3_residual == pytest.approx(0.25, abs=1e-12)
    assert assignment_probs(e, f, mix).c3_residual <= 1e-15
    assert not check_C3(e, f, rho1)
    assert not check_C3(e, f, rho2)
    assert check_C3(e, f, mix)


def test_form_equality_claim_sweep():
    # Under detection the sandwich against E is the joint trace with T, and
    # both values match the full chains.
    rng = np.random.default_rng(79)
    for _ in range(40):
        dim = int(rng.integers(2, 9))
        t, e, rho = random_detecting_triple(rng, dim)
        f = refine_inside(rng, t)
        line = one_claim_line(FormEqualityClaim("T", "E", "F"), rho, {"T": t, "E": e, "F": f})
        assert line.passed and line.name == "form-equality:T->E~F"
        pattern = r"Tr\(rho\.E\.F\.E\)=(\S+) Tr\(rho\.F\.T\)=(\S+)"
        sandwich, joint = map(float, re.fullmatch(pattern, line.detail).groups())
        tm, em, fm, rm = (x.matrix.array for x in (t, e, f, rho))
        assert abs(sandwich - reference_chain_trace(rm, em, fm, em).real) <= ROUTE_TOL * dim
        assert abs(joint - reference_chain_trace(rm, fm, tm).real) <= ROUTE_TOL * dim
        assert line.residual == abs(sandwich - joint)


def test_form_equality_claim_preconditions(ghsz):
    # A pair that does not detect, or an F that does not commute with T,
    # gives a failing line that names the failure.
    rng = np.random.default_rng(83)
    t, e, rho = random_commuting_nondetecting_triple(rng, 4)
    obs = {"T": t, "E": e, "F": refine_inside(rng, t)}
    line = one_claim_line(FormEqualityClaim("T", "E", "F"), rho, obs)
    assert not line.passed and line.detail.startswith("detection:T->E fails: state defect")
    t, e, rho = random_detecting_triple(rng, 6)
    obs = {"T": t, "E": e, "F": random_projection(rng, 6)}
    assert reference_commutator_defect(t.matrix.array, obs["F"].matrix.array) > 1e-3
    line = one_claim_line(FormEqualityClaim("T", "E", "F"), rho, obs)
    assert not line.passed and line.detail.startswith("commutator [F,T] = ")
    # E_beta fails to commute with the composite detector M; E_alpha does.
    line = one_claim_line(FormEqualityClaim("M", "G_alpha", "E_beta"), ghsz.state, ghsz.observables)
    assert (line.passed, line.residual) == (False, 0.5)
    assert line.detail == "commutator [E_beta,M] = 5.000e-01 > gate 1.600e-09"
    claim = FormEqualityClaim("M", "G_alpha", "E_alpha")
    line = one_claim_line(claim, ghsz.state, ghsz.observables)
    assert line.passed and line.residual == 0.0
    claim = FormEqualityClaim("F", "G_alpha", "E_alpha")
    line = one_claim_line(claim, ghsz.state, ghsz.observables)
    assert not line.passed and line.detail.startswith("detection:F->G_alpha fails: ")


def test_simulation_equalities_on_scenario(ghsz):
    results = simulation_equalities(
        ghsz.observable("M"),
        ghsz.observable("G_alpha"),
        ghsz.state,
        [ghsz.observable("E_alpha"), ghsz.observable("F"), ghsz.observable("L_alpha")],
    )
    assert len(results) == 3
    for r in results:
        assert r.passed
        assert r.defect_outcome1 == pytest.approx(0.0, abs=1e-12)
        assert r.defect_outcome0 == pytest.approx(0.0, abs=1e-12)
        assert r.note == ""
    assert [r.f_name for r in results] == ["E_alpha", "F", "L_alpha"]


def test_simulation_equalities_checks_each_commutation_once(ghsz, monkeypatch):
    # One check inside detects plus F against T and E for each of k = 3 F:
    # 2k + 1 = 7, with conditionals bit-identical to the public cond_prob.
    t, e = ghsz.observable("M"), ghsz.observable("G_alpha")
    fs = [ghsz.observable(n) for n in ("E_alpha", "F", "L_alpha")]
    calls = count_commutation_checks(monkeypatch)
    results = simulation_equalities(t, e, ghsz.state, fs)
    assert len(calls) == 7
    monkeypatch.undo()
    for f, r in zip(fs, results):
        want1 = abs(cond_prob(f, t, ghsz.state) - cond_prob(f, e, ghsz.state))
        tc, ec = complement(t), complement(e)
        want0 = abs(cond_prob(f, tc, ghsz.state) - cond_prob(f, ec, ghsz.state))
        assert (r.defect_outcome1, r.defect_outcome0) == (want1, want0)


def test_simulation_equalities_take_one_product_per_f(ghsz, monkeypatch):
    # Two products in detects, F.T and F.E for each commutation check, and
    # one rho.F shared by the four conditionals of each F: 3k + 2 = 11.
    t, e = ghsz.observable("M"), ghsz.observable("G_alpha")
    fs = [ghsz.observable(n) for n in ("E_alpha", "F", "L_alpha")]
    products = count_products(monkeypatch)
    simulation_equalities(t, e, ghsz.state, fs)
    assert len(products) == 11


def test_simulation_equalities_random_triples():
    rng = np.random.default_rng(89)
    for _ in range(25):
        dim = int(rng.integers(2, 9))
        t, e, rho, v = random_detecting_quad(rng, dim)
        f = projection_in_basis(v, rng.integers(0, 2, dim))
        results = simulation_equalities(t, e, rho, [f])
        assert results[0].passed


def test_simulation_equalities_preconditions(ghsz):
    with pytest.raises(PreconditionError):
        simulation_equalities(
            ghsz.observable("F"), ghsz.observable("G_alpha"), ghsz.state, []
        )
    with pytest.raises(PreconditionError):
        simulation_equalities(
            ghsz.observable("M"),
            ghsz.observable("G_alpha"),
            ghsz.state,
            [ghsz.observable("E_beta")],
        )


# An orthogonal pair (F, F') and a member under the conditioning projection
# (G_alpha itself), so every property of the conditional functional is judged.
_CZ_SAMPLE = ("F", "F'", "L_alpha", "G_alpha")


def _conditionals(line) -> dict:
    """The P(F|E) values a cz line's detail reports, by name."""
    values = line.detail.rsplit("; ", 1)[1]
    return {name: float(v) for name, v in re.findall(r"P\((\S+)\|E\)=(\S+)", values)}


def test_cz_claim_on_scenario(ghsz):
    observables = {**ghsz.observables, "F'": complement(ghsz.observable("F"))}
    line = one_claim_line(CzClaim("M", "G_alpha", _CZ_SAMPLE), ghsz.state, observables)
    assert line.passed and line.name == "cz:M->G_alpha~F,F',L_alpha,G_alpha"
    assert line.detail.startswith(
        "holds: P(I|E) = 1, P(F+F'|E) additive, P(G_alpha|E) = Tr(rho.G_alpha)/Tr(rho.E); "
    )
    e, rho = ghsz.observable("G_alpha").matrix.array, ghsz.state.matrix.array
    got = _conditionals(line)
    assert list(got) == list(_CZ_SAMPLE)
    for name, value in got.items():
        want = reference_conditional(rho, e, observables[name].matrix.array)
        assert abs(value - want) <= ROUTE_TOL * 16


def test_cz_claim_random_quads():
    # Members diagonal in the pair's shared basis commute with T: an
    # orthogonal pair (A, B = A') and E itself; P(F|E) matches the full chains.
    rng = np.random.default_rng(89)
    for _ in range(30):
        dim = int(rng.integers(2, 9))
        t, e, rho, v = random_detecting_quad(rng, dim)
        bits = rng.integers(0, 2, dim)
        a, b = projection_in_basis(v, bits), projection_in_basis(v, 1 - bits)
        obs = {"T": t, "E": e, "A": a, "B": b}
        line = one_claim_line(CzClaim("T", "E", ("A", "B", "E")), rho, obs)
        rm, em = rho.matrix.array, e.matrix.array
        den = reference_chain_trace(rm, em).real
        if den <= DEFAULT_TOL.gate(dim):
            assert not line.passed and line.detail.startswith("Tr(rho.E) = ")
            continue
        assert line.passed, line.detail
        assert "P(A+B|E) additive" in line.detail and "P(E|E) = Tr(rho.E)/Tr(rho.E)" in line.detail
        for name, value in _conditionals(line).items():
            want = reference_conditional(rm, em, obs[name].matrix.array)
            assert abs(value - want) <= ROUTE_TOL * dim / den


def test_cz_claim_forms_rho_e_once(ghsz, monkeypatch):
    # The detection's 2 products and F.T for each of the 4 members, rho.E
    # once, one X.F per conditional (I, the 4 members and the orthogonal sum
    # F + F'), the 6 pair products and E.F for each member.
    observables = {**ghsz.observables, "F'": complement(ghsz.observable("F"))}
    claim = CzClaim("M", "G_alpha", _CZ_SAMPLE)
    products = count_products(monkeypatch)
    assert one_claim_line(claim, ghsz.state, observables).passed
    assert len(products) == 2 + 4 + 1 + 6 + 6 + 4


def test_cz_claim_preconditions(ghsz):
    line = one_claim_line(CzClaim("M", "G_alpha", ("E_beta",)), ghsz.state, ghsz.observables)
    assert (line.passed, line.residual) == (False, 0.5)
    assert line.detail == "commutator [E_beta,M] = 5.000e-01 > gate 1.600e-09"
    line = one_claim_line(CzClaim("F", "G_alpha", ("F",)), ghsz.state, ghsz.observables)
    assert not line.passed and line.detail.startswith("detection:F->G_alpha fails: ")
    rng = np.random.default_rng(97)
    t, e, rho = random_commuting_nondetecting_triple(rng, 5)
    line = one_claim_line(CzClaim("T", "E", ("T",)), rho, {"T": t, "E": e})
    assert not line.passed and line.detail.startswith("detection:T->E fails: state defect")
    t, e, rho = random_detecting_triple(rng, 6)
    obs = {"T": t, "E": e, "F": random_projection(rng, 6)}
    assert reference_commutator_defect(t.matrix.array, obs["F"].matrix.array) > 1e-3
    line = one_claim_line(CzClaim("T", "E", ("E", "F")), rho, obs)
    assert not line.passed and line.detail.startswith("commutator [F,T] = ")
    t = Projection(CMatrix(np.diag([0.0, 1.0])))
    rho = DensityOperator.pure([1.0, 0.0])
    line = one_claim_line(CzClaim("T", "T", ("T",)), rho, {"T": t})
    assert (line.passed, line.residual) == (False, 0.0)
    assert line.detail == "Tr(rho.E) = 0.000e+00 <= gate 2.000e-10, so P(F|E) is undefined"


def test_joint_distribution_single_site_pair(ghsz):
    dist = joint_distribution([ghsz.observable("E_alpha"), ghsz.observable("F")], ghsz.state)
    assert dist.n == 2
    assert set(dist.atoms) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert dist.probs == pytest.approx(np.full(4, 0.25), abs=1e-12)
    assert dist.renormalization == pytest.approx(1.0, abs=1e-12)
    e_alpha_holds = outcome_bits(2)[:, dist.names.index("E_alpha")] == 1
    assert dist.probs[e_alpha_holds].sum() == pytest.approx(0.5, abs=1e-12)
    assert dist.probs[0b10] == pytest.approx(0.25, abs=1e-12)


def test_joint_distribution_detecting_pair_has_exact_zero_discordance(ghsz):
    dist = joint_distribution([ghsz.observable("M"), ghsz.observable("G_alpha")], ghsz.state)
    assert dist.names == ("M", "G_alpha")
    assert dist.probs[0b10] == 0.0
    assert dist.probs[0b01] == 0.0
    assert dist.probs[0b11] == pytest.approx(0.5, abs=1e-12)
    assert dist.probs[0b00] == pytest.approx(0.5, abs=1e-12)


def test_outcome_bits_rows_are_the_bits_of_their_codes():
    for n in range(1, MAX_FAMILY + 1):
        rows = outcome_bits(n)
        assert rows.shape == (2**n, n) and rows.dtype == np.uint8
        weights = 2 ** np.arange(n - 1, -1, -1)
        np.testing.assert_array_equal(rows.astype(np.int64) @ weights, np.arange(2**n))
    assert outcome_bits(3)[0b110].tolist() == [1, 1, 0]


def test_joint_distribution_matches_spectral_oracle():
    rng = np.random.default_rng(97)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        n = int(rng.integers(2, 5))
        v = haar_unitary(rng, dim)
        family = [
            projection_in_basis(v, rng.integers(0, 2, dim), name=f"P{i}")
            for i in range(n)
        ]
        rho = random_density(rng, dim)
        dist = joint_distribution(family, rho)
        oracle = spectral_atoms([p.matrix.array for p in family], rho.matrix.array)
        for omega, p in dist.atoms.items():
            want = oracle.get(omega, 0.0)
            # Clamping may zero an atom the oracle keeps at ~eig_cut size.
            assert abs(p * dist.renormalization - want) < 1e-8 + 1e-10 * dim


def test_joint_distribution_clamps_and_renormalizes():
    eps = 1e-9
    rho = DensityOperator(CMatrix(np.diag([1.0 - eps, eps])))
    e = Projection(CMatrix(np.diag([1.0, 0.0])), name="E")
    dist = joint_distribution([e], rho)
    assert dist.probs[0b1] == 1.0
    assert dist.probs[0b0] == 0.0
    assert dist.renormalization == pytest.approx(1.0 - eps, rel=1e-12)


def test_joint_distribution_validations(rt):
    rho2 = DensityOperator(CMatrix(np.diag([0.5, 0.5])))
    e = Projection(CMatrix(np.diag([1.0, 0.0])), name="E")
    with pytest.raises(PreconditionError):
        joint_distribution([], rho2)
    too_many = [
        Projection(CMatrix(np.diag([1.0, 0.0])), name=f"E{i}")
        for i in range(MAX_FAMILY + 1)
    ]
    with pytest.raises(PreconditionError):
        joint_distribution(too_many, rho2)
    with pytest.raises(CoMeasurabilityError):
        joint_distribution([rt.observable("E"), rt.observable("F")], rt.state)
    with pytest.raises(ValidationError):
        joint_distribution([e, e], rho2)
    with pytest.raises(DimensionError):
        joint_distribution([Projection(CMatrix(np.eye(3)))], rho2)


def test_joint_distribution_refuses_an_unnamed_member(ghsz, monkeypatch):
    # Outcomes are keyed by name, so no name is invented for a member.
    family = [ghsz.observable("E_alpha"), Projection(ghsz.observable("F").matrix)]
    products = count_products(monkeypatch)
    with pytest.raises(ValidationError, match="^observable 1 of the family has no name$"):
        joint_distribution(family, ghsz.state)
    assert products == []


def test_joint_distribution_refuses_duplicate_names_before_any_product(ghsz, monkeypatch):
    family = [ghsz.observable(name) for name in ("E_alpha", "F", "E_alpha")]
    products = count_products(monkeypatch)
    with pytest.raises(ValidationError, match="unique"):
        joint_distribution(family, ghsz.state)
    assert products == []


def test_joint_distribution_equals_per_atom_chain():
    # The eigendecomposition route agrees with the per-atom chain up to
    # rounding, and both clamp exactly the same atoms to zero.
    rng = np.random.default_rng(101)
    for k in range(1, 8):
        for support in (1, 3, 8):
            family, rho = random_commuting_family(rng, 8, k, support)
            dist = joint_distribution(family, rho)
            atoms, mass = reference_joint_atoms(family, rho)
            bound = ROUTE_TOL * rho.dim
            assert list(dist.atoms) == list(atoms)
            for omega, p in dist.atoms.items():
                assert (p == 0.0) == (atoms[omega] == 0.0)
                assert abs(p - atoms[omega]) <= bound
            assert abs(dist.renormalization - mass) <= bound
            if k >= 4:
                assert 0.0 in dist.atoms.values()


def _joint_with_products(monkeypatch, family, rho):
    # Runs joint_distribution under count_products: n(n-1)/2 commutator
    # products and rho.V are expected, whatever the support; the atoms must
    # lie within ROUTE_TOL * dim of the reference chain.
    products = count_products(monkeypatch)
    dist = joint_distribution(family, rho)
    monkeypatch.undo()
    n = len(family)
    assert len(products) == n * (n - 1) // 2 + 1
    atoms, mass = reference_joint_atoms(family, rho)
    bound = ROUTE_TOL * rho.dim
    assert max(abs(p - atoms[o]) for o, p in dist.atoms.items()) <= bound
    assert abs(dist.renormalization - mass) <= bound
    return dist


def test_joint_distribution_shares_prefix_products(monkeypatch):
    # Every atom is a per-code sum over the one rho.V product, also on a
    # family whose state leaves most atoms empty.
    family, rho = random_commuting_family(np.random.default_rng(103), 8, 6, 3)
    dist = _joint_with_products(monkeypatch, family, rho)
    assert 0.0 in dist.atoms.values()


def test_joint_distribution_full_support_expands_every_node(monkeypatch):
    # Basis vector j carries the bits of j and every one has weight, so all
    # 2^n atoms are nonzero: still the one rho.V product past commutation.
    n, dim = 6, 64
    rng = np.random.default_rng(107)
    v = haar_unitary(rng, dim)
    family = [
        projection_in_basis(v, (np.arange(dim) >> (n - 1 - i)) & 1, name=f"A{i}")
        for i in range(n)
    ]
    w = 1.0 + rng.random(dim)
    rho = DensityOperator(CMatrix((v * (w / w.sum())) @ v.conj().T))
    dist = _joint_with_products(monkeypatch, family, rho)
    assert len(dist.atoms) == 2**n
    assert 0.0 not in dist.atoms.values()


def test_joint_distribution_checks_pruned_prefixes():
    # A is a projection up to 4e-9 (trusted, so unvalidated): H = 2A + B has
    # the eigenvalue 3 + 8e-9, off its code by more than gate * 2^n = 8e-10.
    # Eigenvalues outside [0, 2^n) are no outcome codes either.
    a = Projection._trusted(CMatrix(np.diag([1.0 + 4e-9, 1.0])), "A")
    b = Projection(CMatrix(np.diag([1.0, 0.0])), name="B")
    rho = DensityOperator(CMatrix(0.5 * np.eye(2)))
    with pytest.raises(LemmaViolationError, match=r"eigenvalue 3\.000000008 .* no outcome code"):
        joint_distribution([a, b], rho)
    for diag in ([2.0, 0.0], [-1.0, 1.0]):
        c = Projection._trusted(CMatrix(np.diag(diag)), "C")
        with pytest.raises(LemmaViolationError, match="no outcome code"):
            joint_distribution([c], rho)


def test_joint_distribution_checks_each_atom():
    # States validated under a looser tolerance reach the default-tolerance
    # atom checks: a negative atom and a total off one.
    loose = Tolerance(atol=1e-3)
    e = Projection(CMatrix(np.diag([1.0, 0.0])), name="E")
    cases = [
        ([1.0 + 1e-4, -1e-4], r"joint atom \(0,\) came out -0\.0001"),
        ([0.5 + 1e-4, 0.5], "joint atoms sum to"),
    ]
    for diag, message in cases:
        rho = DensityOperator(CMatrix(np.diag(diag)), tol=loose)
        with pytest.raises(LemmaViolationError, match=message):
            joint_distribution([e], rho)
    # Validation stores a near-Hermitian state's Hermitian part, so an
    # imaginary atom needs a state that skipped validation.
    skewed = CMatrix(np.diag([0.5 + 1e-4j, 0.5 - 1e-4j]))
    assert DensityOperator(skewed, tol=loose).matrix == CMatrix(0.5 * np.eye(2))
    rho = object.__new__(DensityOperator)
    rho.__dict__.update(matrix=skewed, name="", tol=loose)
    with pytest.raises(LemmaViolationError, match=r"joint atom \(0,\) has imaginary part -1\.000e-04"):
        joint_distribution([e], rho)


def test_joint_distribution_accepts_near_gate_non_hermitian_members():
    # Validation admits a Hermiticity defect up to the gate per member, and
    # H = 2A + B would double A's: A is stored as its Hermitian part, so the
    # decomposition neither refuses H nor reads only one of its triangles.
    delta = 0.9 * DEFAULT_TOL.gate(2)
    a = Projection(CMatrix(np.array([[1.0, 1j * delta], [0.0, 0.0]])), name="A")
    b = Projection(CMatrix(np.diag([0.0, 1.0])), name="B")
    rho = DensityOperator(CMatrix(0.5 * np.eye(2)))
    dist = joint_distribution([a, b], rho)
    atoms, mass = reference_joint_atoms([a, b], rho)
    assert dist.atoms == pytest.approx(atoms, abs=ROUTE_TOL * 2)
    assert dist.probs[0b10] == pytest.approx(0.5, abs=1e-15)


def test_assignment_probs_takes_two_products(monkeypatch):
    rng = np.random.default_rng(109)
    e, f, rho = random_projection(rng, 16), random_projection(rng, 16), random_density(rng, 16)
    products = count_products(monkeypatch)
    assignment_probs(e, f, rho)
    assert len(products) == 2


def test_assignment_probs_matches_full_chain_references():
    # Sandwiches and Tr(rho.F) against full-chain traces: the same C3 verdict
    # and every value within ROUTE_TOL * dim.
    for t, e, f, rho in pair_library(np.random.default_rng(113)):
        dim = t.dim
        gate, bound = 1e-10 * dim, ROUTE_TOL * dim
        for a, b in ((e, f), (t, e)):
            am, bm, rm = a.matrix.array, b.matrix.array, rho.matrix.array
            ac = np.eye(dim) - am
            ef = reference_chain_trace(rm, am, bm, am).real
            epf = reference_chain_trace(rm, ac, bm, ac).real
            tr_f = reference_chain_trace(rm, bm).real
            probs = assignment_probs(a, b, rho)
            got = (probs.p_e_and_f, probs.p_eprime_and_f, probs.tr_rho_f, probs.c3_residual)
            clamp = lambda x: min(max(x, 0.0), 1.0)  # noqa: E731
            want = (clamp(ef), clamp(epf), clamp(tr_f), abs(tr_f - ef - epf))
            for value, w in zip(got, want):
                assert abs(value - w) <= bound
            assert (probs.c3_residual <= gate) == (want[3] <= gate)
