import numpy as np
import pytest

from qdetect import (
    CMatrix,
    CoMeasurabilityError,
    DensityOperator,
    DimensionError,
    PreconditionError,
    Projection,
    assignment_probs,
    complement,
    complement_lemma_check,
    detects,
    detects_via_probability,
    dist,
    outer,
    rank_one_detector,
    refinement_check,
)
from qdetect.numerics import DEFAULT_TOL, eigh, hermiticity_defect
from qdetect.observables import commutator_defect

from support import (
    ROUTE_TOL,
    count_products,
    pair_library,
    random_commuting_nondetecting_triple,
    random_decomposition,
    random_density,
    random_detecting_triple,
    random_projection,
    reference_chain_trace,
    reference_commutator_defect,
)


def test_declared_detections_hold(ghsz):
    rho = ghsz.state
    for t_name, e_name in [("M", "G_alpha"), ("N", "E_beta"), ("R", "L_beta"), ("S", "L_beta")]:
        check = detects(ghsz.observable(t_name), ghsz.observable(e_name), rho)
        assert check.holds, (t_name, e_name, check)
        assert check.commutes
        assert check.state_equal_defect <= 1e-12
        assert check.discord_10 <= 1e-12 and check.discord_01 <= 1e-12
        assert check.note == ""


def test_detecting_pair_discordance_is_exact_zero(ghsz):
    # The block entries are all +-1/2 and +-i/2, so the mismatched-outcome
    # traces cancel without rounding.
    check = detects(ghsz.observable("M"), ghsz.observable("G_alpha"), ghsz.state)
    assert check.discord_10 == 0.0
    assert check.discord_01 == 0.0
    assert check.outcome1_probability == pytest.approx(0.5, abs=1e-12)


def test_commuting_non_detecting_pair_frozen_values(ghsz):
    # Single-site projections on different qubits commute but do not detect
    # each other at the entangled state. All three residuals come out to 1/4:
    # each is a sum of two (1/2)*(1/2)*(1/2) contributions.
    check = detects(ghsz.observable("F"), ghsz.observable("G_alpha"), ghsz.state)
    assert check.commutes
    assert not check.holds
    assert check.state_equal_defect == pytest.approx(0.25, abs=1e-12)
    assert check.discord_10 == pytest.approx(0.25, abs=1e-12)
    assert check.discord_01 == pytest.approx(0.25, abs=1e-12)
    assert detects_via_probability(
        ghsz.observable("F"), ghsz.observable("G_alpha"), ghsz.state
    ) is False


def test_non_commuting_pair_reports_without_holding(rt):
    check = detects(rt.observable("E"), rt.observable("F"), rt.state)
    assert not check.commutes
    assert not check.holds
    assert check.commutator_defect == pytest.approx(np.sqrt(3.0) / 4.0, abs=1e-12)


def test_probability_route_refuses_non_commuting(rt):
    with pytest.raises(CoMeasurabilityError):
        detects_via_probability(rt.observable("E"), rt.observable("F"), rt.state)


def test_dimension_mismatch():
    t = Projection(CMatrix(np.eye(2)))
    e = Projection(CMatrix(np.eye(3)))
    rho = DensityOperator(CMatrix(np.diag([0.5, 0.5])))
    with pytest.raises(DimensionError):
        detects(t, e, rho)


def test_vacuous_note_when_outcome1_unreachable():
    t = Projection(CMatrix(np.diag([0.0, 1.0, 0.0])), name="T")
    rho = DensityOperator.pure([1.0, 0.0, 0.0])
    check = detects(t, t, rho)
    assert check.holds
    assert check.outcome1_probability == 0.0
    assert "vacuous" in check.note


def test_vacuous_note_when_outcome0_unreachable():
    # The state lies in the range of T, so the T = 0 side never occurs.
    gate = 1e-10 * 3
    t = Projection(CMatrix(np.diag([1.0, 1.0, 0.0])), name="T")
    check = detects(t, t, DensityOperator(CMatrix(np.diag([0.5, 0.5, 0.0]))))
    assert check.holds
    assert check.note.startswith("outcome 0 ") and "vacuous" in check.note
    # Outcome 0 at 1.2 gate, with the trace 0.5 gate over 1 (admitted):
    # 1 - Tr(rho.T) reads 0.7 gate, but the outcome is not vacuous.
    rho = DensityOperator(CMatrix(np.diag([0.5, 0.5 - 0.7 * gate, 1.2 * gate])))
    check = detects(t, t, rho)
    assert check.holds and 1.0 - check.outcome1_probability <= gate
    assert check.note == ""


def test_probability_route_equivalence_sweep():
    rng = np.random.default_rng(41)
    for _ in range(60):
        dim = int(rng.integers(2, 10))
        t, e, rho = random_detecting_triple(rng, dim)
        check = detects(t, e, rho)
        assert check.holds
        assert detects_via_probability(t, e, rho)
    for _ in range(60):
        dim = int(rng.integers(2, 10))
        t, e, rho = random_commuting_nondetecting_triple(rng, dim)
        check = detects(t, e, rho)
        assert check.commutes and not check.holds
        assert not detects_via_probability(t, e, rho)


def test_complement_lemma_check_agrees_both_ways():
    rng = np.random.default_rng(43)
    for _ in range(30):
        dim = int(rng.integers(2, 10))
        t, e, rho = random_detecting_triple(rng, dim)
        assert complement_lemma_check(t, e, rho) is True
        assert detects(complement(t), complement(e), rho).holds
    for _ in range(30):
        dim = int(rng.integers(2, 10))
        t, e, rho = random_commuting_nondetecting_triple(rng, dim)
        assert complement_lemma_check(t, e, rho) is False


def test_refinement_check_on_random_decompositions():
    rng = np.random.default_rng(47)
    for _ in range(40):
        dim = int(rng.integers(2, 10))
        t, e, rho = random_detecting_triple(rng, dim)
        rho1, rho2, lam1 = random_decomposition(rng, rho)
        assert refinement_check(t, e, rho1, rho2, lam1) is True
        # The theorem applies symmetrically to the co-component.
        assert detects(t, e, rho2).holds or lam1 == 1.0


def test_refinement_check_rejects_bad_weight():
    rng = np.random.default_rng(53)
    t, e, rho = random_detecting_triple(rng, 4)
    rho1, rho2, _ = random_decomposition(rng, rho)
    for bad in (0.0, -0.2, 1.0001):
        with pytest.raises(PreconditionError):
            refinement_check(t, e, rho1, rho2, bad)


def test_refinement_check_requires_detecting_mixture():
    rng = np.random.default_rng(59)
    t, e, rho = random_commuting_nondetecting_triple(rng, 4)
    rho1, rho2, lam1 = random_decomposition(rng, rho)
    with pytest.raises(PreconditionError):
        refinement_check(t, e, rho1, rho2, lam1)


def test_rank_one_detector_on_overlapping_subspaces(rt):
    e = rt.observable("E")
    f = rt.observable("F")
    detector = rank_one_detector(e, f)
    assert detector is not None
    assert detector.rank() == 1
    # The two ranges were built to share exactly the first basis direction.
    assert dist(detector.matrix, outer(np.eye(4)[0])) < 1e-7
    assert detects(detector, e, rt.state).holds
    assert detects(detector, f, rt.state).holds


def test_rank_one_detector_trusts_its_eigh_projector(ghsz, rt, monkeypatch):
    # No product re-checks idempotency; the matrix is bit for bit the one
    # validation would store for the same eigh column.
    pairs = [(rt.observable("E"), rt.observable("F")), (rt.observable("F"), rt.observable("E"))]
    pairs += [(ghsz.observable(a), ghsz.observable(b)) for a, b in (("E_alpha", "F"), ("M", "G_alpha"))]
    for e, f in pairs:
        w, v = eigh(e.matrix + f.matrix, DEFAULT_TOL)
        psi = v[:, int(np.flatnonzero(w >= 2.0 - DEFAULT_TOL.eig_cut)[-1])]
        want = Projection(CMatrix(np.outer(psi, psi.conj()))).matrix.array
        products = count_products(monkeypatch)
        got = rank_one_detector(e, f).matrix.array
        monkeypatch.undo()
        assert products == []
        assert got.tobytes() == want.tobytes()


def test_rank_one_detector_none_when_ranges_disjoint():
    e = Projection(CMatrix(np.diag([1.0, 0.0])))
    f = Projection(CMatrix(np.diag([0.0, 1.0])))
    assert rank_one_detector(e, f) is None
    with pytest.raises(DimensionError):
        rank_one_detector(e, Projection(CMatrix(np.eye(3))))


def test_detects_takes_two_products(monkeypatch):
    rng = np.random.default_rng(131)
    cases = [
        random_detecting_triple(rng, 16),
        random_commuting_nondetecting_triple(rng, 16),
        (random_projection(rng, 16), random_projection(rng, 16), random_density(rng, 16)),
    ]
    for t, e, rho in cases:
        products = count_products(monkeypatch)
        detects(t, e, rho)
        monkeypatch.undo()
        assert len(products) == 2


def test_detects_matches_full_chain_references():
    # Each field against the two-product commutator and full-chain traces:
    # the same verdict at the gate, and within ROUTE_TOL * dim.
    for t, e, _, rho in pair_library(np.random.default_rng(137)):
        dim = t.dim
        gate, bound = 1e-10 * dim, ROUTE_TOL * dim
        tm, em, rm = t.matrix.array, e.matrix.array, rho.matrix.array
        one = np.eye(dim)
        comm = reference_commutator_defect(tm, em)
        state = float(np.max(np.abs(em @ rm - tm @ rm)))
        r10 = reference_chain_trace(rm, tm, one - em)
        r01 = reference_chain_trace(rm, one - tm, em)
        if comm <= gate:
            d10, d01 = (min(max(r.real, 0.0), 1.0) for r in (r10, r01))
        else:
            d10, d01 = abs(r10), abs(r01)
        p1 = min(max(reference_chain_trace(rm, tm).real, 0.0), 1.0)
        check = detects(t, e, rho)
        got = (
            check.commutator_defect,
            check.state_equal_defect,
            check.discord_10,
            check.discord_01,
            check.outcome1_probability,
        )
        for value, want in zip(got, (comm, state, d10, d01, p1)):
            assert abs(value - want) <= bound
            assert (value <= gate) == (want <= gate)
        assert check.commutes == (comm <= gate)
        assert check.holds == (comm <= gate and state <= gate)


def test_near_gate_non_hermitian_inputs_are_stored_hermitian():
    # Validation admits a Hermiticity defect up to the gate, which the
    # one-product routes cannot absorb: on the raw matrices the one-product
    # commutator misses the two-product one by far more than rounding. The
    # constructors store the Hermitian part, and every value then matches the
    # full-chain references on what was stored.
    dim = 64
    gate, bound = 1e-10 * dim, ROUTE_TOL * dim
    rng = np.random.default_rng(167)
    t0, e0, rho0 = random_detecting_triple(rng, dim)
    f0 = random_projection(rng, dim)

    def skewed(m, i, j):
        # One entry off its mirror by 0.9 gate: Hermiticity defect 0.9 gate,
        # idempotency defect at most that.
        a = m.matrix.array.copy()
        a[i, j] += 0.9 * gate * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        return CMatrix(a)

    raw = {
        "t": skewed(t0, 0, 5),
        "e": skewed(e0, 7, 2),
        "f": skewed(f0, 9, 11),
        "rho": skewed(rho0, 3, 13),
    }
    one_product = commutator_defect(raw["t"], raw["e"])
    two_product = reference_commutator_defect(raw["t"].array, raw["e"].array)
    assert abs(one_product - two_product) > 100 * bound

    t, e, f = (Projection(raw[k]) for k in ("t", "e", "f"))
    rho = DensityOperator(raw["rho"])
    for stored, m in ((t, raw["t"]), (e, raw["e"]), (f, raw["f"]), (rho, raw["rho"])):
        assert hermiticity_defect(stored.matrix) == 0.0
        assert 0.0 < dist(stored.matrix, m) <= 0.5 * gate
    assert Projection(t.matrix).matrix is t.matrix  # Hermitian input is kept

    tm, em, fm, rm = (x.matrix.array for x in (t, e, f, rho))
    one = np.eye(dim)
    check = detects(t, e, rho)
    assert check.holds
    assert abs(check.commutator_defect - reference_commutator_defect(tm, em)) <= bound
    want_10 = reference_chain_trace(rm, tm, one - em).real
    want_01 = reference_chain_trace(rm, one - tm, em).real
    want_p1 = reference_chain_trace(rm, tm).real
    assert abs(check.discord_10 - min(max(want_10, 0.0), 1.0)) <= bound
    assert abs(check.discord_01 - min(max(want_01, 0.0), 1.0)) <= bound
    assert abs(check.outcome1_probability - want_p1) <= bound

    probs = assignment_probs(e, f, rho)
    ef = reference_chain_trace(rm, em, fm, em).real
    epf = reference_chain_trace(rm, one - em, fm, one - em).real
    tr_f = reference_chain_trace(rm, fm).real
    assert abs(probs.p_e_and_f - ef) <= bound
    assert abs(probs.p_eprime_and_f - epf) <= bound
    assert abs(probs.tr_rho_f - tr_f) <= bound
    assert abs(probs.c3_residual - abs(tr_f - ef - epf)) <= bound
