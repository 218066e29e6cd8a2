"""End-to-end acceptance suite.

One test per advertised guarantee, each printing a single verdict line. The
tolerances here are the public contract: loosening them is not a fix.
"""

import math
import time

import numpy as np

from qdetect import (
    AdditivityClaim,
    assignment_probs,
    build_example_44,
    build_ghsz,
    build_rt_analogue,
    commutation_projection,
    detects,
    joint_distribution,
    refinement_check,
    sample_ensemble,
    verify_ghsz,
)
from qdetect.ensemble import detection_frequency_audit
from qdetect.numerics import outer
from qdetect.observables import DensityOperator, Projection, commutes

from support import (
    haar_unitary,
    one_claim_line,
    projection_in_basis,
    random_commuting_nondetecting_triple,
    random_commuting_pair,
    random_decomposition,
    random_density,
    random_detecting_triple,
    random_projection,
    reference_commutator_defect,
    spectral_atoms,
)


def _verdict(number: int, description: str, problems: list) -> None:
    ok = not problems
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {description}")
    assert ok, f"acceptance {number} ({description}): " + "; ".join(
        str(p) for p in problems[:10]
    )


def test_acceptance_1_no_go_end_to_end():
    problems = []
    started = time.perf_counter()
    report = verify_ghsz(build_ghsz())
    elapsed = time.perf_counter() - started

    claim_checks = [c for c in report.checks if c.ref in ("claim:commute", "claim:detect")]
    if len(claim_checks) != 14:
        problems.append(f"expected 14 physics checks, saw {len(claim_checks)}")
    for c in claim_checks:
        if not c.passed or c.residual > 1e-12:
            problems.append(f"{c.name}: residual {c.residual!r}")
    constraint = next(c for c in report.checks if c.ref == "claim:constraints")
    if not (constraint.passed and constraint.residual == 0.0 and "0 of 128" in constraint.detail):
        problems.append(f"constraint enumeration: {constraint}")
    if report.exit_code != 0:
        problems.append("report has failures")
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 1s")
    _verdict(1, "four-qubit no-go: residuals <= 1e-12, 0/128 assignments, < 1s", problems)


def test_acceptance_2_sum_rule_counterexample_family():
    problems = []

    def check_angle(theta: float) -> None:
        scn = build_example_44(theta)
        e, f = scn.observable("E"), scn.observable("F")
        rho1 = DensityOperator(scn.observable("P1").matrix)
        rho2 = DensityOperator(scn.observable("P2").matrix)
        p1 = assignment_probs(e, f, rho1)
        p2 = assignment_probs(e, f, rho2)
        pm = assignment_probs(e, f, scn.state)
        cos2 = math.cos(theta) ** 2
        for label, got, want in (
            ("Tr(rho1.F)", p1.tr_rho_f, cos2),
            ("p1(E&F)", p1.p_e_and_f, 0.25),
            ("p1(E'&F)", p1.p_eprime_and_f, 0.25),
            ("rho1 residual", p1.c3_residual, abs(cos2 - 0.5)),
            ("rho2 residual", p2.c3_residual, abs(math.sin(theta) ** 2 - 0.5)),
            ("mixture residual", pm.c3_residual, 0.0),
        ):
            if abs(got - want) > 1e-12:
                problems.append(f"theta={theta!r} {label}: {got!r} vs {want!r}")

    check_angle(math.pi / 6.0)
    scn = build_example_44(math.pi / 6.0)
    probs = assignment_probs(
        scn.observable("E"),
        scn.observable("F"),
        DensityOperator(scn.observable("P1").matrix),
    )
    if abs(probs.tr_rho_f - 0.75) > 1e-12:
        problems.append(f"Tr(rho1.F) at pi/6 is {probs.tr_rho_f!r}, not 0.75")

    rng = np.random.default_rng(2024)
    for _ in range(100):
        check_angle(float(rng.uniform(1e-6, math.pi / 4.0 - 1e-6)))
    _verdict(2, "angle-family sum-rule values exact at pi/6 and 100 random angles", problems)


def test_acceptance_3_predicate_equivalence():
    problems = []
    rng = np.random.default_rng(31337)
    cases = 0

    def compare(t, e, rho) -> None:
        # The operator route reads E.rho = T.rho, the probability route that
        # both discordances vanish; only a commuting pair has the latter.
        nonlocal cases
        cases += 1
        check = detects(t, e, rho)
        gate = 1e-10 * t.dim
        operator = check.commutes and check.state_equal_defect <= gate
        probability = check.discord_10 <= gate and check.discord_01 <= gate
        if check.commutes and operator != probability:
            problems.append(
                f"case {cases}: operator route {operator}, probability route {probability}"
            )
        if check.holds != (operator and probability):
            problems.append(f"case {cases}: holds {check.holds}, routes {operator}, {probability}")

    for _ in range(400):
        dim = int(rng.integers(2, 17))
        compare(*random_detecting_triple(rng, dim))
    for _ in range(400):
        dim = int(rng.integers(2, 17))
        compare(*random_commuting_nondetecting_triple(rng, dim))
    for _ in range(250):
        dim = int(rng.integers(2, 17))
        compare(
            random_projection(rng, dim),
            random_projection(rng, dim),
            random_density(rng, dim),
        )
    if cases < 1000:
        problems.append(f"only {cases} triples exercised")
    _verdict(3, "operator and zero-discordance predicates agree on 1050 triples", problems)


def test_acceptance_4_sandwich_matches_spectral_oracle():
    problems = []
    rng = np.random.default_rng(9001)
    for case in range(1000):
        dim = int(rng.integers(2, 17))
        e, f = random_commuting_pair(rng, dim)
        rho = random_density(rng, dim)
        got = assignment_probs(e, f, rho).p_e_and_f
        atoms = spectral_atoms([e.matrix.array, f.matrix.array], rho.matrix.array)
        want = atoms.get((1, 1), 0.0)
        if abs(got - want) > 4e-10:
            problems.append(f"case {case}: sandwich {got!r} vs atom mass {want!r}")
    for case in range(200):
        dim = int(rng.integers(3, 17))
        v = haar_unitary(rng, dim)
        count = int(rng.integers(2, min(dim, 5)))
        family = [Projection(outer(v[:, j]), name=f"F{j}") for j in range(count)]
        e = random_projection(rng, dim)
        rho = random_density(rng, dim)
        names = {f"F{j}": f for j, f in enumerate(family)}
        claim = AdditivityClaim("E", tuple(names))
        if not one_claim_line(claim, rho, {"E": e, **names}).passed:
            problems.append(f"additivity case {case} failed")
        total = Projection(sum((g.matrix for g in family[1:]), family[0].matrix))
        whole = assignment_probs(e, total, rho).p_e_and_f
        parts = sum(assignment_probs(e, g, rho).p_e_and_f for g in family)
        if abs(whole - parts) > 4e-10:
            problems.append(f"additivity case {case}: gap {abs(whole - parts)!r}")
    _verdict(4, "sandwich equals joint-spectral atom mass within 4e-10 on 1200 cases", problems)


def test_acceptance_5_refinement_components():
    problems = []
    rng = np.random.default_rng(271828)
    for case in range(500):
        dim = int(rng.integers(2, 13))
        t, e, rho = random_detecting_triple(rng, dim)
        rho1, rho2, lam1 = random_decomposition(rng, rho)
        if not refinement_check(t, e, rho1, rho2, lam1):
            problems.append(f"case {case}: refinement check rejected")
        for label, component in (("rho1", rho1), ("rho2", rho2)):
            defect = detects(t, e, component).state_equal_defect
            if defect > 1e-10:
                problems.append(f"case {case} {label}: defect {defect!r}")
    _verdict(5, "detection persists on 500 random convex decompositions", problems)


def test_acceptance_6_simulator_certification():
    problems = []
    scn = build_ghsz()
    n = 100_000
    started = time.perf_counter()

    detect_dist = joint_distribution(
        [scn.observable("M"), scn.observable("G_alpha")], scn.state
    )
    detect_ens = sample_ensemble(detect_dist, n, seed=0)
    discordant, concordant = detection_frequency_audit("M", "G_alpha", detect_ens)
    if discordant != 0 or concordant != n:
        problems.append(f"discordant={discordant}, concordant={concordant}")

    pair_dist = joint_distribution(
        [scn.observable("E_alpha"), scn.observable("F")], scn.state
    )
    pair_ens = sample_ensemble(pair_dist, n, seed=0)
    band = 3.0 * math.sqrt(0.25 * 0.75 / n)
    for omega, count in zip(((0, 0), (0, 1), (1, 0), (1, 1)), pair_ens.atom_counts.tolist()):
        freq = count / n
        if abs(freq - 0.25) > band:
            problems.append(f"atom {omega}: frequency {freq!r} outside 3-sigma band")

    for workers in (2, 5):
        again = sample_ensemble(pair_dist, n, seed=0, workers=workers)
        if not (
            np.array_equal(again.index, pair_ens.index)
            and np.array_equal(again.table, pair_ens.table)
        ):
            problems.append(f"workers={workers} changed the ensemble")

    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _verdict(
        6,
        "simulator: exact zero discordance, 3-sigma frequencies, "
        "worker-invariant, < 5s",
        problems,
    )


def test_acceptance_7_common_eigenvector_analogue():
    problems = []
    scn = build_rt_analogue()
    e, f, t = scn.observable("E"), scn.observable("F"), scn.observable("T")
    c_max = reference_commutator_defect(e.matrix.array, f.matrix.array)
    if c_max < 0.1:
        problems.append(f"commutator max entry {c_max!r} below 0.1")
    if commutes(e, f):
        problems.append("pair unexpectedly commutes")
    cp = commutation_projection(e, f)
    if not 0 < cp.rank() < scn.dim:
        problems.append(f"commutation projection rank {cp.rank()} not strictly between")
    for name, target in (("E", e), ("F", f)):
        check = detects(t, target, scn.state)
        if not check.holds or check.state_equal_defect > 1e-12:
            problems.append(f"detection of {name}: {check}")
    _verdict(
        7,
        "non-commuting rank-two pair: strict commutation projection, "
        "rank-one detections hold",
        problems,
    )
