"""Shared random constructors and independent oracles.

Everything here deliberately avoids the package's own linear algebra where
an oracle is needed: tensor products are built by explicit bit indexing and
joint distributions by direct spectral decomposition, so agreement between
these values and the package is evidence, not tautology.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

import qdetect.detection
import qdetect.numerics
import qdetect.observables
import qdetect.scenarios
from qdetect import CMatrix, DensityOperator, Projection, Scenario, verify_scenario


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def projection_in_basis(v: np.ndarray, bits: np.ndarray, name: str = "") -> Projection:
    cols = v[:, np.flatnonzero(bits)]
    if cols.shape[1] == 0:
        return Projection(CMatrix(np.zeros((v.shape[0], v.shape[0]))), name=name)
    return Projection(CMatrix(cols @ cols.conj().T), name=name)


def random_projection(
    rng: np.random.Generator, dim: int, rank: int | None = None
) -> Projection:
    if rank is None:
        rank = int(rng.integers(1, dim))
    v = haar_unitary(rng, dim)
    bits = np.zeros(dim, dtype=int)
    bits[:rank] = 1
    return projection_in_basis(v, bits)


def random_density(
    rng: np.random.Generator, dim: int, rank: int | None = None
) -> DensityOperator:
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    v = haar_unitary(rng, dim)
    w = rng.dirichlet(np.ones(rank))
    cols = v[:, :rank]
    return DensityOperator(CMatrix((cols * w) @ cols.conj().T))


def random_commuting_pair(
    rng: np.random.Generator, dim: int
) -> tuple[Projection, Projection]:
    """Two projections diagonal in one shared Haar basis."""
    v = haar_unitary(rng, dim)
    be = rng.integers(0, 2, dim)
    bf = rng.integers(0, 2, dim)
    return projection_in_basis(v, be), projection_in_basis(v, bf)


def random_detecting_triple(
    rng: np.random.Generator, dim: int
) -> tuple[Projection, Projection, DensityOperator]:
    """Commuting (T, E) with rho supported where their eigenvalues agree."""
    t, e, rho, _ = random_detecting_quad(rng, dim)
    return t, e, rho


def random_detecting_quad(
    rng: np.random.Generator, dim: int
) -> tuple[Projection, Projection, DensityOperator, np.ndarray]:
    """Like random_detecting_triple, plus the shared eigenbasis.

    The basis lets callers build further observables compatible with both
    members of the pair.
    """
    v = haar_unitary(rng, dim)
    bt = rng.integers(0, 2, dim)
    be = bt.copy()
    flips = rng.random(dim) < 0.35
    be[flips] ^= 1
    agree = np.flatnonzero(bt == be)
    if agree.size == 0:
        be[0] = bt[0]
        agree = np.array([0])
    t = projection_in_basis(v, bt)
    e = projection_in_basis(v, be)
    w = rng.dirichlet(np.ones(agree.size))
    cols = v[:, agree]
    rho = DensityOperator(CMatrix((cols * w) @ cols.conj().T))
    return t, e, rho, v


def random_commuting_nondetecting_triple(
    rng: np.random.Generator, dim: int
) -> tuple[Projection, Projection, DensityOperator]:
    """Commuting (T, E) with rho giving weight to a disagreement direction."""
    v = haar_unitary(rng, dim)
    bt = rng.integers(0, 2, dim)
    be = bt.copy()
    k = int(rng.integers(0, dim))
    be[k] ^= 1
    t = projection_in_basis(v, bt)
    e = projection_in_basis(v, be)
    w = rng.dirichlet(np.ones(dim)) + 0.01
    w /= w.sum()
    rho = DensityOperator(CMatrix((v * w) @ v.conj().T))
    return t, e, rho


def planted_discordance(
    rng: np.random.Generator, dim: int, k: float
) -> tuple[Projection, Projection, DensityOperator]:
    """Commuting (T, E), E = T plus one rank-one projector, in a Haar basis.

    rho puts mass k * gate on that extra direction, so Tr(rho.T'.E) = k * gate,
    and spreads the rest evenly over range(T). The state defect
    max|(E - T).rho| is only about k * gate * ln(dim) / dim.
    """
    gate = qdetect.numerics.DEFAULT_TOL.gate(dim)
    v = haar_unitary(rng, dim)
    half = dim // 2
    t_bits = np.zeros(dim)
    t_bits[:half] = 1.0
    e_bits = t_bits.copy()
    e_bits[half] = 1.0
    weights = np.zeros(dim)
    weights[half] = k * gate
    weights[:half] = (1.0 - k * gate) / half
    rho = DensityOperator(CMatrix((v * weights) @ v.conj().T), name="rho")
    return projection_in_basis(v, t_bits, "T"), projection_in_basis(v, e_bits, "E"), rho


def refine_inside(
    rng: np.random.Generator, t: Projection, rank: int | None = None
) -> Projection:
    """A projection commuting with t (block-rotated inside t's eigenspaces)."""
    dim = t.dim
    w, v = np.linalg.eigh(t.matrix.array)
    bits = np.zeros(dim, dtype=int)
    for value in (0.0, 1.0):
        idx = np.flatnonzero(np.abs(w - value) < 0.5)
        if idx.size:
            u = haar_unitary(rng, idx.size)
            v[:, idx] = v[:, idx] @ u
            bits[idx] = rng.integers(0, 2, idx.size)
    if rank is not None:
        order = rng.permutation(dim)
        bits[:] = 0
        bits[order[:rank]] = 1
    return projection_in_basis(v, bits)


def sub_projection(
    rng: np.random.Generator, e: Projection, rank: int
) -> Projection:
    """A projection f with f <= e, spanned inside range(e)."""
    w, v = np.linalg.eigh(e.matrix.array)
    inside = np.flatnonzero(w > 0.5)
    assert rank <= inside.size
    u = haar_unitary(rng, inside.size)
    cols = v[:, inside] @ u[:, :rank]
    return Projection(CMatrix(cols @ cols.conj().T))


def random_decomposition(
    rng: np.random.Generator, rho: DensityOperator
) -> tuple[DensityOperator, DensityOperator, float]:
    """rho = lam1*rho1 + (1-lam1)*rho2 with both components genuine states."""
    dim = rho.dim
    w, v = np.linalg.eigh(rho.matrix.array)
    # Noise-level eigenvalues must become exactly zero: sqrt turns a 1e-16
    # residue into 1e-8 of support outside range(rho), ruining refinement.
    w[w < 1e-12] = 0.0
    b = (v * np.sqrt(w)) @ v.conj().T
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    big_w = g @ g.conj().T
    x = b @ big_w @ b.conj().T
    s = float(np.real(np.trace(x)))
    rho1 = DensityOperator(CMatrix(x / s))
    # rho - lam1*rho1 stays PSD for lam1 up to s / max-eig of the weight.
    cap = s / float(np.max(np.linalg.eigvalsh(big_w)))
    lam1 = float(min(0.9, rng.uniform(0.15, 0.95) * cap))
    rho2 = DensityOperator(
        CMatrix((rho.matrix.array - lam1 * rho1.matrix.array) / (1.0 - lam1))
    )
    return rho1, rho2, lam1


def random_commuting_family(
    rng: np.random.Generator, dim: int, k: int, support: int
) -> tuple[list[Projection], DensityOperator]:
    """k projections diagonal in one Haar basis, and a state of rank `support`.

    With few basis vectors carrying weight most outcome vectors get no mass,
    so the joint distribution has zero-mass atoms.
    """
    v = haar_unitary(rng, dim)
    family = [
        projection_in_basis(v, rng.integers(0, 2, dim), name=f"A{i}") for i in range(k)
    ]
    w = np.zeros(dim)
    w[rng.choice(dim, size=support, replace=False)] = rng.dirichlet(np.ones(support))
    return family, DensityOperator(CMatrix((v * w) @ v.conj().T))


# ---------------------------------------------------------------------------
# Independent oracles


_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)
_P_PLUS = 0.5 * np.array([[1, 1], [1, 1]], dtype=np.complex128)
_P_I = 0.5 * np.array([[1, -1j], [1j, 1]], dtype=np.complex128)


def tensor4(blocks) -> np.ndarray:
    """16x16 four-factor tensor product by explicit bit indexing (no kron)."""
    assert len(blocks) == 4
    out = np.zeros((16, 16), dtype=np.complex128)
    for i in range(16):
        for j in range(16):
            value = 1.0 + 0.0j
            for q in range(4):
                bi = (i >> (3 - q)) & 1
                bj = (j >> (3 - q)) & 1
                value *= blocks[q][bi, bj]
            out[i, j] = value
    return out


def ghz_vector() -> np.ndarray:
    """(|0011> - |1100>)/sqrt(2), qubit 1 most significant."""
    psi = np.zeros(16, dtype=np.complex128)
    psi[0b0011] = 1.0 / np.sqrt(2.0)
    psi[0b1100] = -1.0 / np.sqrt(2.0)
    return psi


def outer_oracle_state() -> np.ndarray:
    """Density matrix of ghz_vector, built directly with np.outer."""
    psi = ghz_vector()
    return np.outer(psi, psi.conj())


def spectral_atoms(mats, rho, bit_tol: float = 1e-6) -> dict:
    """Joint outcome distribution via one simultaneous eigenbasis.

    Diagonalizes sum_i 3^i E_i; distinct outcome vectors land on distinct
    integer eigenvalues, so every eigenvector of the sum is a simultaneous
    eigenvector and its bit pattern can be read off one projection at a time.
    """
    total = sum((3.0**i) * m for i, m in enumerate(mats))
    _, v = np.linalg.eigh(total)
    atoms: dict = {}
    for k in range(v.shape[1]):
        vec = v[:, k]
        bits = []
        for m in mats:
            x = float(np.real(vec.conj() @ (m @ vec)))
            assert x < bit_tol or x > 1.0 - bit_tol, f"ambiguous eigenbit {x}"
            bits.append(1 if x > 0.5 else 0)
        p = float(np.real(vec.conj() @ (rho @ vec)))
        key = tuple(bits)
        atoms[key] = atoms.get(key, 0.0) + p
    return atoms


# Per-record reference implementations of the ensemble layer: one Python
# object per record, the way the columnar code must behave.


def reference_records(dist, n: int, seed: int) -> list:
    """(id, {name: bit}) records drawn one by one: first Philox word per
    block, inverse CDF."""
    u = np.random.Generator(np.random.Philox(key=seed)).random(4 * n)[::4]
    keys = list(dist.atoms)
    cum = np.cumsum([dist.atoms[k] for k in keys])
    cum[-1] = 1.0
    records = []
    for i in range(n):
        atom = keys[int(np.searchsorted(cum, u[i], side="right"))]
        records.append((i, {name: int(b) for name, b in zip(dist.names, atom)}))
    return records


def reference_csv_bytes(family, records) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["id", *family])
    for i, outcomes in records:
        writer.writerow([i, *(outcomes[name] for name in family)])
    return out.getvalue().encode("utf-8")


def reference_count_outcome(records, name: str, bit: int) -> int:
    return sum(1 for _, outcomes in records if outcomes[name] == bit)


def reference_count_atom(records, family, omega) -> int:
    key = tuple(int(w) for w in omega)
    return sum(
        1 for _, outcomes in records if tuple(outcomes[name] for name in family) == key
    )


def reference_audit(records, t_name: str, e_name: str) -> tuple[int, int]:
    discordant = sum(1 for _, outcomes in records if outcomes[t_name] != outcomes[e_name])
    return discordant, len(records) - discordant


def reference_joint_atoms(observables, rho, eig_cut: float = 1e-8) -> tuple[dict, float]:
    """Joint atoms with one full n-factor chain per atom, in plain numpy.

    Returns (atoms, renormalization) computed the way joint_distribution
    must: rho . E_1^(w_1) ... E_n^(w_n) left to right for every outcome
    vector, atoms within eig_cut of zero clamped, the rest renormalized.
    """
    one = [p.matrix.array for p in observables]
    zero = [np.eye(p.dim, dtype=np.complex128) - p.matrix.array for p in observables]
    raw = {}
    for omega in itertools.product((0, 1), repeat=len(observables)):
        m = rho.matrix.array
        for i, w in enumerate(omega):
            m = m @ (one[i] if w else zero[i])
        raw[omega] = complex(np.trace(m)).real
    clamped = {omega: (0.0 if abs(p) <= eig_cut else p) for omega, p in raw.items()}
    mass = sum(clamped.values())
    return {omega: p / mass for omega, p in clamped.items()}, mass


def brute_force_constraints(cs) -> tuple[list[dict], int]:
    """Every +-1 assignment of cs.symbols that satisfies each equation of cs,
    as a symbol -> sign dict, and the number tried (2^k for k symbols): the
    reference for the elimination count of verify_scenario."""
    satisfying = []
    tried = 0
    for signs in itertools.product((1, -1), repeat=len(cs.symbols)):
        tried += 1
        a = dict(zip(cs.symbols, signs))
        if all(
            math.prod(a[s] for s in eq.left) == eq.sign * math.prod(a[s] for s in eq.right)
            for eq in cs.equations
        ):
            satisfying.append(a)
    return satisfying, tried


# Per-entry reference of the scenario-file array codec: one Python complex
# per [re, im] pair, the way the vectorized encoder and decoder must behave.


def reference_encode_pairs(a: np.ndarray) -> list:
    """[float(re), float(im)] for each entry of a complex vector or matrix."""
    pair = lambda z: [float(z.real), float(z.imag)]  # noqa: E731
    if a.ndim == 1:
        return [pair(z) for z in a.tolist()]
    return [[pair(z) for z in row] for row in a.tolist()]


def reference_decode_pairs(doc: list, ndim: int) -> np.ndarray:
    """complex(float(re), float(im)) for each pair of a well-formed array."""
    pair = lambda z: complex(float(z[0]), float(z[1]))  # noqa: E731
    if ndim == 1:
        return np.array([pair(z) for z in doc], dtype=np.complex128)
    return np.array([[pair(z) for z in row] for row in doc], dtype=np.complex128)


# Plain-numpy references for the product-saving routes: the two-product
# commutator and every trace as the trace of its full left-to-right chain.
# The package's values may differ from them by rounding only: at most
# ROUTE_TOL * dim, four decades under the default gate of 1e-10 * dim (the
# largest difference seen on pair_library is about 1e-16 * dim).

ROUTE_TOL = 1e-14


def reference_commutator_defect(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a @ b - b @ a)))


def reference_chain_trace(*mats: np.ndarray) -> complex:
    m = mats[0]
    for x in mats[1:]:
        m = m @ x
    return complex(np.trace(m))


def reference_conditional(rho: np.ndarray, e: np.ndarray, f: np.ndarray) -> float:
    """P(F|E) = Tr(rho.E.F.E) / Tr(rho.E), each trace of its full chain."""
    return reference_chain_trace(rho, e, f, e).real / reference_chain_trace(rho, e).real


def one_claim_line(claim, rho: DensityOperator, observables: dict):
    """The one line verify_scenario gives a scenario declaring only `claim`."""
    scn = Scenario("one-claim", rho.dim, rho, observables, [claim])
    (line,) = verify_scenario(scn).checks
    return line


def pair_library(rng: np.random.Generator, dims=(2, 3, 4, 7, 16, 33, 64, 100, 128, 256)):
    """(T, E, F, rho) cases at each dim: detecting, commuting but not
    detecting, self-detecting and non-commuting pairs, with F a random
    projection that commutes with neither."""
    for dim in dims:
        cases = [
            random_detecting_triple(rng, dim),
            random_commuting_nondetecting_triple(rng, dim),
            (*random_commuting_pair(rng, dim), random_density(rng, dim)),
            (random_projection(rng, dim), random_projection(rng, dim), random_density(rng, dim)),
        ]
        t = random_projection(rng, dim)
        cases.append((t, t, random_density(rng, dim)))
        for t, e, rho in cases:
            yield t, e, random_projection(rng, dim), rho


def count_products(monkeypatch) -> list:
    """Record the left factor of every CMatrix product from now on.

    numerics.mul multiplies through CMatrix.__matmul__ too, so this counts
    every dense product the package makes.
    """
    products = []
    matmul = CMatrix.__matmul__

    def counting(self, other):
        products.append(self)
        return matmul(self, other)

    monkeypatch.setattr(CMatrix, "__matmul__", counting)
    return products


def count_commutation_checks(monkeypatch) -> list:
    """Record every commutation check from now on.

    A check sizes the product A.B of Hermitian A and B with
    numerics.hermiticity_defect. observables.commutator_defect makes the
    product itself (pairwise checks and `commutes`); detection and
    scenarios reuse a product they share with another test. Projection
    validation calls hermiticity_defect on its own matrix and is not
    counted.
    """
    calls = []

    def counted(fn):
        def counting(*args):
            calls.append(1)
            return fn(*args)

        return counting

    monkeypatch.setattr(
        qdetect.observables, "commutator_defect", counted(qdetect.observables.commutator_defect)
    )
    for module in (qdetect.detection, qdetect.scenarios):
        monkeypatch.setattr(
            module, "hermiticity_defect", counted(qdetect.numerics.hermiticity_defect)
        )
    return calls
