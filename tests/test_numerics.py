import dataclasses
import tracemalloc

import numpy as np
import pytest

from qdetect import (
    CMatrix,
    DimensionError,
    PreconditionError,
    Tolerance,
    ValidationError,
    dist,
    eigh,
    identity,
    kernel_projector,
    kron,
    mul,
    outer,
    trace,
    zeros,
)
from qdetect.numerics import EIG_CUT, MAX_DIM, hermiticity_defect

from support import ghz_vector, tensor4, _P_PLUS, _I2


def test_cmatrix_rejects_non_square():
    with pytest.raises(DimensionError):
        CMatrix([[1, 2, 3], [4, 5, 6]])


def test_cmatrix_rejects_empty():
    with pytest.raises(DimensionError):
        CMatrix(np.zeros((0, 0)))


def test_cmatrix_rejects_nan_and_inf():
    with pytest.raises(ValidationError):
        CMatrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValidationError):
        CMatrix([[1, 0], [0, np.inf * 1j]])


def test_cmatrix_is_immutable():
    m = CMatrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0
    with pytest.raises(AttributeError):
        m.dim = 3


def test_cmatrix_equality_and_hash():
    a = CMatrix([[1, 2], [3, 4]])
    b = CMatrix([[1, 2], [3, 4]])
    c = CMatrix([[1, 2], [3, 5]])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_cmatrix_arithmetic_dimension_mismatch():
    with pytest.raises(DimensionError):
        CMatrix([[1]]) + CMatrix([[1, 0], [0, 1]])
    with pytest.raises(DimensionError):
        CMatrix([[1]]) @ CMatrix([[1, 0], [0, 1]])


def test_tolerance_validation():
    Tolerance()
    with pytest.raises(ValidationError):
        Tolerance(atol=0.0)
    with pytest.raises(ValidationError):
        Tolerance(atol=2.0)
    # The eigenvalue cut is the constant EIG_CUT, not a setting.
    assert [f.name for f in dataclasses.fields(Tolerance)] == ["atol"]
    with pytest.raises(TypeError):
        Tolerance(eig_cut=1e-8)


def test_tolerance_gate_scales_with_dimension():
    tol = Tolerance(atol=1e-10)
    assert tol.gate(16) == pytest.approx(1.6e-9)


def test_kron_identities():
    assert dist(kron(identity(2), identity(2)), identity(4)) == 0.0


def test_kron_block_pattern():
    got = kron(CMatrix(_P_PLUS), identity(2))
    expected = np.zeros((4, 4), dtype=np.complex128)
    for bi in range(2):
        for bj in range(2):
            expected[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2] = 0.5 * np.eye(2)
    assert dist(got, CMatrix(expected)) == 0.0


def test_kron_matches_bit_index_oracle():
    # <psi0| P+ x P+ x I x I |psi0> = 1/4, against an independent tensor build.
    psi = ghz_vector()
    op = kron(CMatrix(_P_PLUS), CMatrix(_P_PLUS), identity(2), identity(2))
    oracle = tensor4([_P_PLUS, _P_PLUS, _I2, _I2])
    assert np.max(np.abs(op.array - oracle)) < 1e-14
    value = np.real(psi.conj() @ op.array @ psi)
    assert value == pytest.approx(0.25, abs=1e-12)


def test_kron_dimension_cap():
    with pytest.raises(DimensionError):
        kron(identity(MAX_DIM // 2), identity(4))


def test_cmatrix_dimension_cap():
    # A zero-stride view: the cap must reject it before copying any entry.
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="exceeds"):
            CMatrix(np.broadcast_to(0j, (MAX_DIM + 1,) * 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert CMatrix(np.broadcast_to(0j, (MAX_DIM,) * 2)).dim == MAX_DIM


def test_kron_associative_and_bilinear():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a, b, c = (
            CMatrix(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            for _ in range(3)
        )
        assert dist(kron(kron(a, b), c), kron(a, kron(b, c))) < 1e-12
        s = complex(rng.normal(), rng.normal())
        assert dist(kron(s * a + b, c), s * kron(a, c) + kron(b, c)) < 1e-12


def test_mul_and_trace_basics():
    assert trace(identity(4)) == 4.0
    a = CMatrix([[1, 2], [3, 4]])
    assert dist(a, a) == 0.0
    assert dist(mul(a, identity(2)), a) == 0.0
    with pytest.raises(DimensionError):
        mul(a, identity(3))


def test_trace_cyclicity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = CMatrix(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        b = CMatrix(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        assert abs(trace(a @ b) - trace(b @ a)) < 1e-10


def test_trace_of_ghz_state_against_first_qubit_projector():
    psi = ghz_vector()
    rho = CMatrix(np.outer(psi, psi.conj()))
    e_alpha = CMatrix(tensor4([_P_PLUS, _I2, _I2, _I2]))
    assert trace(rho @ e_alpha).real == pytest.approx(0.5, abs=1e-12)


def test_adjoint():
    a = CMatrix([[1, 1j], [0, 2]])
    assert dist(CMatrix(a.array.conj().T), CMatrix([[1, 0], [-1j, 2]])) == 0.0


def test_hermiticity_defect_matches_full_adjoint_bit_for_bit():
    # Dims below, on, just past and inside a row band; the last case plants
    # its only defect in the bottom-right corner.
    rng = np.random.default_rng(211)
    for dim in (1, 2, 63, 64, 65, 130):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        near = g + g.conj().T + 1e-12 * g
        corner = g + g.conj().T
        corner[-1, -1] += 1e-9j
        for m in (g, near, corner):
            want = float(np.max(np.abs(m - m.conj().T)))
            assert hermiticity_defect(CMatrix(m)) == want
        assert hermiticity_defect(CMatrix(g + g.conj().T)) == 0.0


def test_eigh_identity_and_projector_spectra():
    w, _ = eigh(identity(2))
    assert np.allclose(w, [1.0, 1.0])
    w, _ = eigh(CMatrix(_P_PLUS))
    assert np.allclose(w, [0.0, 1.0], atol=1e-12)


def test_eigh_sorts_ascending():
    w, _ = eigh(CMatrix(np.diag([3.0, 1.0, 2.0])))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_eigh_rejects_non_hermitian():
    with pytest.raises(PreconditionError):
        eigh(CMatrix([[0, 1], [0, 0]]))


def test_eigh_reconstruction_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = CMatrix(g + g.conj().T)
        w, v = eigh(h)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h.array)) < 1e-10 * dim
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10 * dim


def test_kernel_projector_extremes():
    assert dist(kernel_projector(zeros(3)), identity(3)) == 0.0
    assert dist(kernel_projector(identity(3)), zeros(3)) == 0.0


def test_kernel_projector_annihilates_input():
    rng = np.random.default_rng(7)
    tol = Tolerance()
    for _ in range(50):
        dim = int(rng.integers(2, 10))
        rank = int(rng.integers(1, dim))
        g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        a = CMatrix(g @ g.conj().T)
        k = kernel_projector(a, tol)
        assert dist(k @ k, k) < 1e-10 * dim
        assert dist(k, CMatrix(k.array.conj().T)) < 1e-10 * dim
        scale = float(np.max(np.abs(a.array)))
        assert dist(a @ k, zeros(dim)) <= 10 * EIG_CUT * max(scale, 1.0)


def test_basis_vector_and_outer():
    e1 = np.eye(4)[1]
    assert e1[1] == 1.0 and np.sum(np.abs(e1)) == 1.0
    p = outer([1.0, 1j])
    assert dist(p, CMatrix([[1.0, -1j], [1j, 1.0]])) == 0.0
