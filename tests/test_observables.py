import math
import re
import warnings

import numpy as np
import pytest

from qdetect import (
    CMatrix,
    DensityOperator,
    PreconditionError,
    Projection,
    Tolerance,
    ValidationError,
    commutation_projection,
    commutes,
    complement,
    derived_projection,
    dist,
    identity,
    outer,
    zeros,
)
from qdetect.numerics import kernel_projector
from qdetect.observables import _rho_trace, commutator_defect

from support import (
    ROUTE_TOL,
    _I2,
    _P_I,
    _P_PLUS,
    _SX,
    _SY,
    count_products,
    haar_unitary,
    outer_oracle_state,
    projection_in_basis,
    random_commuting_pair,
    random_density,
    random_projection,
    reference_commutator_defect,
    tensor4,
)


def test_projection_accepts_valid():
    Projection(CMatrix(_P_PLUS))
    Projection(identity(3))
    Projection(zeros(3))


def test_projection_reports_idempotency_defect():
    with pytest.raises(ValidationError) as err:
        Projection(CMatrix([[0.5, 0.0], [0.0, 1.0]]), name="bad")
    assert "idempotency" in str(err.value)
    assert "bad" in str(err.value)


def test_projection_reports_both_defects_at_once():
    with pytest.raises(ValidationError) as err:
        Projection(CMatrix([[0.0, 1.0], [0.0, 0.0]]))
    message = str(err.value)
    assert "hermiticity" in message and "idempotency" in message


def test_operators_need_a_cmatrix():
    # A bare array or list is refused by name, not with an AttributeError.
    for build, entries in (
        (Projection, np.eye(2)),
        (DensityOperator, np.eye(2) / 2),
        (Projection, [[1.0, 0.0], [0.0, 0.0]]),
    ):
        kind = type(entries).__name__
        with pytest.raises(ValidationError, match=f"^{build.__name__} needs a CMatrix, got {kind}"):
            build(entries)


def test_tolerance_validates_and_is_not_stored():
    # A loose tolerance admits what the default refuses; no operator keeps it.
    loose = Tolerance(atol=1e-4)
    near = CMatrix(np.diag([1.0 + 1e-5, 0.0]))
    with pytest.raises(ValidationError):
        Projection(near)
    p = Projection(near, name="P", tol=loose)
    rho = DensityOperator(CMatrix(np.diag([0.5 + 1e-5, 0.5])), tol=loose)
    pure = DensityOperator.pure([1.0, 0.0], tol=loose)
    for op in (p, complement(p), commutation_projection(p, p, loose), rho, pure):
        assert not hasattr(op, "tol")


@pytest.mark.parametrize("build, label", [(Projection, "projection"), (DensityOperator, "state")])
def test_huge_entries_are_refused_before_any_arithmetic(build, label):
    # A product or trace of 1e308 entries would overflow with a RuntimeWarning;
    # the entry bound refuses the matrix first and names the entry. The second
    # matrix has an entry whose modulus is beyond the float range.
    big = 1.5e308 * (1 + 1j)
    for entries, at, size in (
        (np.diag([1e308, 1e308]), r"\[0\]\[0\]", r"1\.000e\+308"),
        ([[0.5, big], [big.conjugate(), 0.5]], r"\[0\]\[1\]", "inf"),
    ):
        for name in ("", "X"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError) as err:
                    build(CMatrix(entries), name=name)
            want = rf"{name or label}: entry {at} has modulus {size} > bound 2\.000e\+00"
            assert re.fullmatch(want, str(err.value))


@pytest.mark.parametrize("atol", [1e-10, 0.5])
def test_operators_at_the_edge_of_the_gate_pass_the_entry_bound(atol):
    # Defects just inside the gate: the largest entries an admitted projection
    # or state can have still lie under the bound 2 * (1 + dim * gate).
    tol, dim = Tolerance(atol=atol), 4
    gate = tol.gate(dim)
    top = (1.0 + math.sqrt(1.0 + 4.0 * 0.99 * gate)) / 2.0  # top^2 - top = 0.99 gate
    skew = np.zeros((dim, dim), dtype=np.complex128)
    skew[0, 1], skew[1, 0] = 0.49 * gate, -0.49 * gate  # Hermiticity defect 0.98 gate
    p = Projection(CMatrix(np.diag([top, 1.0, 0.0, 0.0]) + skew), tol=tol)
    assert p.matrix.array[0, 0] == top and p.matrix.array[0, 1] == 0.0
    spectrum = [1.0 + 0.99 * gate * (dim - 1)] + [-0.99 * gate] * (dim - 1)
    rho = DensityOperator(CMatrix(np.diag(spectrum)), tol=tol)
    assert rho.matrix.array[0, 0] == spectrum[0]
    for m in (p.matrix, rho.matrix):
        assert np.abs(m.array).max() < 1.0 + (dim + 0.5) * gate < 2.0 * (1.0 + dim * gate)


def test_projection_rank():
    assert Projection(CMatrix(np.diag([1.0, 1.0, 0.0]))).rank() == 2


def test_density_operator_validation():
    DensityOperator(CMatrix(np.diag([0.5, 0.5])))
    with pytest.raises(ValidationError) as err:
        DensityOperator(CMatrix(np.diag([0.45, 0.45])))
    assert "trace" in str(err.value)
    with pytest.raises(ValidationError) as err:
        DensityOperator(CMatrix(np.diag([1.5, -0.5])))
    assert "negative eigenvalue" in str(err.value)
    with pytest.raises(ValidationError):
        DensityOperator(CMatrix([[0.5, 0.5], [0.0, 0.5]]))


def test_density_pure_normalizes():
    rho = DensityOperator.pure([2.0, 0.0])
    assert dist(rho.matrix, CMatrix(np.diag([1.0, 0.0]))) == 0.0
    assert rho.vector.tolist() == [1.0, 0.0]
    with pytest.raises(ValidationError):
        DensityOperator.pure([0.0, 0.0])
    # The norm of a huge finite vector does not overflow; a non-finite entry
    # is refused by name before any arithmetic.
    huge, unit = DensityOperator.pure([1e308, 1e308]), DensityOperator.pure([1.0, 1.0])
    assert dist(huge.matrix, unit.matrix) <= 1e-15
    for bad in ([math.inf, 0.0], [1.0, complex(0.0, math.nan)]):
        with pytest.raises(ValidationError, match="finite"):
            DensityOperator.pure(bad)


def test_expectation():
    rho = DensityOperator.pure([1.0, 0.0])
    p = Projection(CMatrix(_P_PLUS))
    assert _rho_trace(rho.matrix, p.matrix).real == pytest.approx(0.5)


def test_complement_matches_bit_index_oracle(ghsz):
    got = complement(ghsz.observable("E_alpha"))
    oracle = tensor4([np.eye(2) - _P_PLUS, _I2, _I2, _I2])
    assert np.max(np.abs(got.matrix.array - oracle)) < 1e-14
    assert got.name == "E_alpha'"


def test_complement_is_not_revalidated(monkeypatch):
    # 1 - P inherits the defects of P, so complement skips validation.
    e = Projection(CMatrix(_P_PLUS), name="E")

    def refuse(self, tol):
        raise AssertionError("complement re-validated its result")

    monkeypatch.setattr(Projection, "__post_init__", refuse)
    got = complement(e)
    assert got.name == "E'"
    assert np.array_equal(got.matrix.array, np.eye(2) - _P_PLUS)
    assert not got.matrix.array.flags.writeable
    assert complement(complement(e)).name == "E''"


def test_complement_involution():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_projection(rng, 6)
        assert dist(complement(complement(p)).matrix, p.matrix) < 1e-12
        assert dist(complement(p).matrix + p.matrix, identity(6)) < 6e-10


def test_commutes_on_scenario_pairs(ghsz):
    assert commutes(ghsz.observable("E_alpha"), ghsz.observable("F"))
    assert not commutes(ghsz.observable("E_alpha"), ghsz.observable("E_beta"))
    assert commutes(ghsz.observable("M"), ghsz.observable("G_alpha"))


def test_commutator_defect_takes_one_product(monkeypatch):
    rng = np.random.default_rng(149)
    a, b = random_projection(rng, 16), random_projection(rng, 16)
    want = reference_commutator_defect(a.matrix.array, b.matrix.array)
    products = count_products(monkeypatch)
    got = commutator_defect(a.matrix, b.matrix)
    assert len(products) == 1
    assert abs(got - want) <= ROUTE_TOL * 16


def test_commutator_defect_reads_every_strip():
    # A commutator living only in the last two rows and columns, at dims
    # that end on, just past and inside a row strip.
    for dim in (2, 64, 65, 100, 130):
        last = np.zeros(dim)
        last[-1] = 1.0
        tilted = np.zeros(dim)
        tilted[-2:] = 1.0
        a = Projection(outer(last)).matrix
        b = Projection(outer(tilted / np.sqrt(2.0))).matrix
        want = reference_commutator_defect(a.array, b.array)
        assert want == pytest.approx(0.5)
        assert abs(commutator_defect(a, b) - want) <= ROUTE_TOL * dim
        assert abs(commutator_defect(b, a) - want) <= ROUTE_TOL * dim


def test_expectation_matches_full_chain_trace(ghsz):
    rho = ghsz.state
    for p in ghsz.observables.values():
        want = np.trace(outer_oracle_state() @ p.matrix.array).real
        assert abs(_rho_trace(rho.matrix, p.matrix).real - want) <= ROUTE_TOL * 16


def test_disjoint_factor_commutators_vanish_exactly(ghsz):
    a, b = ghsz.observable("E_alpha").matrix.array, ghsz.observable("F").matrix.array
    assert reference_commutator_defect(a, b) == 0.0


def test_commutation_projection_self_is_identity():
    p = Projection(CMatrix(_P_PLUS))
    assert dist(commutation_projection(p, p).matrix, identity(2)) < 1e-12


def test_commutation_projection_of_conjugate_orientations_is_zero():
    # The two single-qubit orientations are maximally incompatible: the
    # commutator has eigenvalues +-1/2 and an empty kernel.
    cp = commutation_projection(Projection(CMatrix(_P_PLUS)), Projection(CMatrix(_P_I)))
    assert cp.rank() == 0
    assert dist(cp.matrix, zeros(2)) < 1e-12


def test_commutation_projection_lifted_pair_still_zero(ghsz):
    # Lifting with identities scales the commutator's eigenvalue multiplicity
    # but adds nothing to its kernel.
    cp = commutation_projection(ghsz.observable("E_alpha"), ghsz.observable("E_beta"))
    assert cp.rank() == 0
    assert dist(cp.matrix, zeros(16)) < 1e-12


def _validated_commutation_projection(a: Projection, b: Projection) -> np.ndarray:
    # The kernel projector of i[A, B], validated as any Projection is.
    ab = a.matrix.array @ b.matrix.array
    return Projection(kernel_projector(CMatrix(1j * (ab - ab.conj().T)))).matrix.array


def _pair_sharing_subspace(rng, dim: int) -> tuple[Projection, Projection]:
    """Non-commuting projections that agree on a random common subspace."""
    k = int(rng.integers(1, dim // 2))
    v = haar_unitary(rng, dim)

    def member() -> Projection:
        block = np.zeros((dim, dim), dtype=complex)
        block[:k, :k] = np.eye(k)
        block[k:, k:] = random_projection(rng, dim - k).matrix.array
        return Projection(CMatrix(v @ block @ v.conj().T))

    return member(), member()


def test_commutation_projection_trusts_its_kernel_projector(ghsz, rt, monkeypatch):
    # One product for the commutator and none to re-check idempotency; the
    # matrix is bit for bit the one validation would store.
    pairs = [(a, b) for s in (ghsz, rt) for a in s.observables.values() for b in s.observables.values()]
    rng = np.random.default_rng(5)
    for i in range(16):
        dim = int(rng.integers(8, 131))
        pairs.append(_pair_sharing_subspace(rng, dim) if i % 2 else random_commuting_pair(rng, dim))
    for a, b in pairs:
        want = _validated_commutation_projection(a, b)
        products = count_products(monkeypatch)
        got = commutation_projection(a, b).matrix.array
        monkeypatch.undo()
        assert len(products) == 1
        assert got.tobytes() == want.tobytes()


def test_commutation_projection_is_identity_iff_commuting():
    rng = np.random.default_rng(17)
    for _ in range(25):
        dim = int(rng.integers(2, 9))
        e, f = random_commuting_pair(rng, dim)
        cp = commutation_projection(e, f)
        assert dist(cp.matrix, identity(dim)) < 1e-8 * dim
    for _ in range(25):
        dim = int(rng.integers(2, 9))
        e = random_projection(rng, dim)
        f = random_projection(rng, dim)
        if commutes(e, f):
            continue
        cp = commutation_projection(e, f)
        assert dist(cp.matrix, identity(dim)) > 1e-6


def test_derived_projection_reproduces_scenario_operators(ghsz):
    # M = (1 - sx x sx x 1 x sx)/2 and S = (1 + sx x sx x sy x 1)/2 in the
    # four-qubit layout, checked against the independent tensor build.
    m_oracle = 0.5 * (np.eye(16) - tensor4([_SX, _SX, _I2, _SX]))
    s_oracle = 0.5 * (np.eye(16) + tensor4([_SX, _SX, _SY, _I2]))
    assert np.max(np.abs(ghsz.observable("M").matrix.array - m_oracle)) < 1e-14
    assert np.max(np.abs(ghsz.observable("S").matrix.array - s_oracle)) < 1e-14


def test_derived_projection_single_factor_gives_complement():
    e = Projection(CMatrix(_P_PLUS), name="E")
    got = derived_projection(-1, [e])
    assert dist(got.matrix, complement(e).matrix) < 1e-12
    assert got.name == "(1-(2E-1))/2"


def test_derived_projection_rejects_bad_coefficient():
    e = Projection(CMatrix(_P_PLUS))
    with pytest.raises(ValidationError):
        derived_projection(2, [e])
    with pytest.raises(ValidationError):
        derived_projection(1, [])


def test_derived_projection_rejects_non_commuting_factors():
    a = Projection(CMatrix(_P_PLUS), "A")
    b = Projection(CMatrix(_P_I), "B")
    with pytest.raises(PreconditionError):
        derived_projection(1, [a, b])


def test_derived_projection_commutes_with_factors():
    rng = np.random.default_rng(23)
    for _ in range(20):
        dim = int(rng.integers(2, 9))
        v = haar_unitary(rng, dim)
        factors = [
            projection_in_basis(v, rng.integers(0, 2, dim), f"X{i}") for i in range(3)
        ]
        coeff = int(rng.choice([1, -1]))
        p = derived_projection(coeff, factors)
        assert dist(p.matrix @ p.matrix, p.matrix) < 1e-10 * dim
        for x in factors:
            a = 2.0 * x.matrix - identity(dim)
            assert commutator_defect(p.matrix, a) < 1e-10 * dim


def test_affine_images_share_spectral_projectors():
    # A +-1 observable pushed through an affine map keeps the same spectral
    # projectors; the degenerate map collapses them to the full identity.
    rng = np.random.default_rng(31)
    for _ in range(25):
        dim = int(rng.integers(2, 9))
        e = random_projection(rng, dim)
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.normal())
        op = 2.0 * e.matrix - identity(dim)
        image = CMatrix(a * op.array + b * np.eye(dim))
        w, v = np.linalg.eigh(image.array)
        top = v[:, w > b]
        proj_top = top @ top.conj().T
        assert np.max(np.abs(proj_top - e.matrix.array)) < 1e-9 * dim
    # a = 0: the image is b*I and its single spectral projector is E + E'.
    e = Projection(CMatrix(_P_PLUS))
    degenerate = CMatrix(0.0 * (2.0 * e.matrix - identity(2)).array + 1.5 * np.eye(2))
    w, _ = np.linalg.eigh(degenerate.array)
    assert np.allclose(w, [1.5, 1.5])
    assert dist(CMatrix(e.matrix.array + complement(e).matrix.array), identity(2)) < 1e-12
