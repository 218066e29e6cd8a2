"""Seeded benchmark inputs and the oracles that judge the program's outputs.

Everything here uses numpy only and never imports qdetect, so a change to the
package can change neither the inputs nor the expected answers. Constructions
follow tests/support.py: a Haar basis, projections diagonal in it, a detecting
pair whose state lives where the two agree, a Haar projection that commutes
with nothing, and a sign system with a planted solution.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

# The CLI's default --tol; every qdetect gate is this floor times the dimension.
ATOL = 1e-10


def gate(dim: int) -> float:
    return ATOL * dim


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def basis_projection(v: np.ndarray, bits: np.ndarray) -> np.ndarray:
    cols = v[:, np.flatnonzero(bits)]
    return cols @ cols.conj().T


@dataclass
class Planted:
    """Matrices of one scenario plus what is known about them by construction.

    `bits` holds, for each observable diagonal in the scenario's Haar basis,
    its 0/1 eigenvalue per basis vector; `weights` is the state's diagonal in
    that basis, which fixes every joint outcome probability of those
    observables.
    `commuting` lists the basis-diagonal observables other than T and E.
    """

    dim: int
    rho: np.ndarray
    weights: np.ndarray
    bits: dict[str, np.ndarray]
    observables: dict[str, np.ndarray]
    commuting: tuple[str, ...]


def _finish(rng, v, rho, weights, bits) -> Planted:
    dim = v.shape[0]
    observables = {name: basis_projection(v, b) for name, b in bits.items()}
    # A half-rank projection in an independent Haar basis: commutes with none
    # of the basis-diagonal observables.
    observables["G"] = basis_projection(haar_unitary(rng, dim), np.arange(dim) < dim // 2)
    return Planted(
        dim=dim,
        rho=rho,
        weights=weights,
        bits=bits,
        observables=observables,
        commuting=tuple(n for n in bits if n not in ("T", "E")),
    )


def _diagonal(rng, v, weights, bits) -> Planted:
    """Scenario whose state is diagonal in v, with exactly these weights."""
    return _finish(rng, v, (v * weights) @ v.conj().T, weights, bits)


def detection_scenario(rng: np.random.Generator, dim: int) -> Planted:
    """T detects E; T does not detect F; F and H commute with T and E; G commutes with neither.

    The state is a full-rank mixed state on the subspace where T and E agree,
    with coherences between their 0 and 1 eigenspaces: E.rho = T.rho, the
    joint outcomes (1,0) and (0,1) of (T, E) carry zero mass, and rho does
    not commute with E, so the sum rule for (E, G) misses by a finite amount.
    F is T with the bit of rho's heaviest basis vector flipped.
    """
    v = haar_unitary(rng, dim)
    t = rng.integers(0, 2, dim)
    e = t.copy()
    e[rng.random(dim) < 0.35] ^= 1
    e[:2] = [0, 1]
    t[:2] = [0, 1]  # the state spans both outcomes of the pair
    agree = np.flatnonzero(t == e)
    a = agree.size
    w = v[:, agree] @ (rng.normal(size=(a, a)) + 1j * rng.normal(size=(a, a)))
    rho = w @ w.conj().T
    rho /= np.trace(rho).real
    weights = np.einsum("ij,ik,kj->j", v.conj(), rho, v).real
    f = t.copy()
    f[int(np.argmax(weights))] ^= 1
    h = rng.integers(0, 2, dim)
    return _finish(rng, v, rho, weights, {"T": t, "E": e, "F": f, "H": h})


def records_scenario(rng: np.random.Generator, dim: int) -> Planted:
    """Family (T, E, F, H) with 16 atoms, exactly the 8 with t != e empty.

    The first eight basis vectors carry the eight agreeing outcome patterns,
    so every atom with t == e has mass.
    """
    patterns = rng.integers(0, 2, (dim, 3))
    patterns[:8] = [[(k >> 2) & 1, (k >> 1) & 1, k & 1] for k in range(8)]
    t, f, h = patterns.T
    e = t.copy()
    flips = rng.random(dim) < 0.35
    flips[:8] = False
    e[flips] ^= 1
    agree = np.flatnonzero(t == e)
    weights = np.zeros(dim)
    weights[agree] = 0.5 * rng.dirichlet(np.ones(agree.size)) + 0.5 / agree.size
    v = haar_unitary(rng, dim)
    return _diagonal(rng, v, weights, {"T": t, "E": e, "F": f, "H": h})


def family_scenario(rng: np.random.Generator, dim: int, size: int) -> Planted:
    """`size` commuting observables; every basis vector gets its own pattern.

    Requires dim <= 2**size. The state has full support, so exactly `dim` of
    the 2**size atoms carry mass.
    """
    codes = rng.choice(2**size, size=dim, replace=False)
    bits = {
        f"X{j:02d}": (codes >> (size - 1 - j)) & 1 for j in range(size)
    }
    weights = 0.5 * rng.dirichlet(np.ones(dim)) + 0.5 / dim
    v = haar_unitary(rng, dim)
    return _diagonal(rng, v, weights, bits)


# ---------------------------------------------------------------------------
# Scenario files, written here rather than by the package's serializer.


def _matrix_json(m: np.ndarray) -> str:
    return json.dumps(np.stack([m.real, m.imag], axis=-1).tolist())


def write_scenario(path, name: str, planted: Planted, claims: list[dict]) -> int:
    """Write a density-state scenario file with [re, im] pairs; returns its size."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"name": {json.dumps(name)}, "dim": {planted.dim}, ')
        fh.write('"state": {"type": "density", "matrix": ')
        fh.write(_matrix_json(planted.rho))
        fh.write('}, "observables": {')
        for i, (key, m) in enumerate(planted.observables.items()):
            fh.write((", " if i else "") + json.dumps(key) + ": " + _matrix_json(m))
        fh.write('}, "claims": ' + json.dumps(claims) + "}\n")
        return fh.tell()


# ---------------------------------------------------------------------------
# Oracles


def c3_residual(rho: np.ndarray, e: np.ndarray, f: np.ndarray) -> float:
    """|Tr(rho.F) - Tr(rho.E.F.E) - Tr(rho.E'.F.E')| by plain matrix products."""
    ep = np.eye(e.shape[0]) - e
    total = np.trace(rho @ f) - np.trace(rho @ e @ f @ e) - np.trace(rho @ ep @ f @ ep)
    return float(abs(total.real))


def sign_system(rng: np.random.Generator, symbols: int, equations: int):
    """Random sign equations left = sign * right, satisfied by a planted assignment."""
    names = [f"s{i:02d}" for i in range(symbols)]
    planted = rng.choice([1, -1], symbols)
    eqs = []
    for _ in range(equations):
        left = rng.choice(symbols, size=int(rng.integers(1, 4)), replace=False)
        right = rng.choice(symbols, size=int(rng.integers(1, 4)), replace=False)
        sign = int(np.prod(planted[left]) * np.prod(planted[right]))
        eqs.append(([names[i] for i in left], [names[i] for i in right], sign))
    return names, eqs


def gf2_solution_count(names: list[str], eqs) -> int:
    """Number of +-1 assignments satisfying every equation, by GF(2) rank.

    With s = (-1)**x, `prod(left) = sign * prod(right)` is the linear equation
    sum of x over left and right (mod 2) = [sign == -1]. A consistent system
    of rank r over k symbols has 2**(k - r) solutions, an inconsistent one 0.
    """
    index = {n: i for i, n in enumerate(names)}
    rows = []
    for left, right, sign in eqs:
        mask = 0
        for s in list(left) + list(right):
            mask ^= 1 << index[s]
        rows.append((mask, 1 if sign == -1 else 0))
    rank = 0
    for bit in range(len(names)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][0] >> bit & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pm, pr = rows[rank]
        rows = [
            (m ^ pm, r ^ pr) if i != rank and m >> bit & 1 else (m, r)
            for i, (m, r) in enumerate(rows)
        ]
        rank += 1
    if any(m == 0 and r == 1 for m, r in rows):
        return 0
    return 2 ** (len(names) - rank)


def atom_probabilities(planted: Planted, family: list[str]) -> np.ndarray:
    """Exact atom masses, indexed by outcome code (first member most significant)."""
    codes = np.zeros(planted.dim, dtype=np.int64)
    for name in family:
        codes = 2 * codes + planted.bits[name]
    p = np.bincount(codes, weights=planted.weights, minlength=2 ** len(family))
    return p / p.sum()


def reference_atoms(seed: int, probs: np.ndarray, n: int) -> np.ndarray:
    """Atom index of each record: first word of Philox block i through the inverse CDF.

    The word becomes a double as Generator.random does it, (x >> 11) * 2**-53.
    Zero-mass atoms have zero-width bins and are never picked.
    """
    words = np.random.Philox(key=seed).random_raw(4 * n)[::4]
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


def reference_csv_digest(family: list[str], atoms: np.ndarray) -> str:
    """sha256 of the ensemble CSV the program must write for these records."""
    size = len(family)
    labels = [
        ",".join(str(code >> (size - 1 - j) & 1) for j in range(size))
        for code in range(2**size)
    ]
    rows = ["id," + ",".join(family)]
    rows.extend(f"{i},{labels[a]}" for i, a in enumerate(atoms.tolist()))
    return hashlib.sha256(("\r\n".join(rows) + "\r\n").encode()).hexdigest()
