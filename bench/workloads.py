"""The benchmark's workloads: inputs, one op, and the per-op correctness gate.

The `simulate` workloads call `qdetect.cli.main` with the arguments a user
would type; `dense-verify` calls the documented library API. Every call goes through a
module attribute looked up at call time, so the traced run's wrappers see it.
An op fails when it raises, exits 2, or gets an exact property wrong; the
z-sigma frequency band of `simulate` is statistical and never fails an op.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import qdetect
import qdetect.cli


@dataclass
class Prepared:
    """Generated inputs of one workload and the answers they must produce."""

    planted: inputs.Planted
    expect: dict
    argv: list = field(default_factory=list)  # the command line of a CLI workload
    scenario: object = None  # in-memory input of a library workload
    probe: dict = field(default_factory=dict)  # observable names for layer probes
    file_bytes: int = 0


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = qdetect.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class DenseVerify:
    """`verify_scenario(scn)` then `check_C3(E, G, rho)` on an in-memory scenario."""

    name = "dense-verify"

    def __init__(self, dim: int = 512, symbols: int = 14, equations: int = 10):
        self.dim, self.symbols, self.equations = dim, symbols, equations

    def setup(self, seed: int, workdir: Path) -> Prepared:
        rng = np.random.default_rng(seed)
        p = inputs.detection_scenario(rng, self.dim)
        names, eqs = inputs.sign_system(rng, self.symbols, self.equations)
        count = inputs.gf2_solution_count(names, eqs)
        qd = qdetect
        observables = {
            n: qd.Projection(qd.CMatrix(m), name=n) for n, m in p.observables.items()
        }
        constraints = qd.ConstraintSet(
            tuple(names),
            tuple(qd.SignEquation(tuple(l), tuple(r), s) for l, r, s in eqs),
        )
        scn = qd.Scenario(
            name=f"dense-{seed}",
            dim=self.dim,
            state=qd.DensityOperator(qd.CMatrix(p.rho), name="rho"),
            observables=observables,
            declared_claims=[
                qd.CommutationClaim("T", "E", expected=True),
                qd.CommutationClaim("T", "G", expected=False),
                qd.DetectionClaim("T", "E"),
                qd.DetectionClaim("T", "F"),
                qd.ConstraintClaim(constraints, satisfiable=count > 0),
            ],
        )
        residual = inputs.c3_residual(p.rho, p.observables["E"], p.observables["G"])
        return Prepared(
            planted=p,
            expect={
                "verdicts": [
                    ("commutation:T~E", True),
                    ("commutation:T~G", True),
                    ("detection:T->E", True),
                    ("detection:T->F", False),
                    ("constraints:satisfiable", True),
                ],
                "satisfying": count,
                "c3_holds": residual <= inputs.gate(self.dim),
            },
            scenario=scn,
            probe={"t": "T", "e": "E", "g": "G", "f_list": list(p.commuting)},
        )

    def op(self, prep: Prepared):
        scn = prep.scenario
        report = qdetect.verify_scenario(scn)
        holds = qdetect.check_C3(scn.observable("E"), scn.observable("G"), scn.state)
        return report, holds

    def check(self, prep: Prepared, result) -> list[str]:
        report, holds = result
        exp = prep.expect
        problems = []
        got = [(c.name, c.passed) for c in report.checks]
        if got != exp["verdicts"]:
            problems.append(f"verdicts {got}, expected {exp['verdicts']}")
        counts = [c.residual for c in report.checks if c.ref == "claim:constraints"]
        if counts != [float(exp["satisfying"])]:
            problems.append(f"satisfying count {counts}, oracle {exp['satisfying']}")
        if holds != exp["c3_holds"]:
            problems.append(f"check_C3 gave {holds}, expected {exp['c3_holds']}")
        return problems


# Report refs whose checks are exact; support:frequency and support:nonempty
# are statistical and only counted.
EXACT_SUPPORT = ("support:partition", "support:zero-mass", "support:exclusive", "support:detection")


class Simulate:
    """`qdetect simulate` of a commuting family with --workers 2.

    `make(rng, dim)` builds the scenario; every basis-diagonal observable it
    returns is in the family, and a pair named T, E is declared as detecting.
    """

    def __init__(self, name: str, make, samples: int, dim: int = 64):
        self.name, self.make, self.samples, self.dim = name, make, samples, dim

    def setup(self, seed: int, workdir: Path) -> Prepared:
        rng = np.random.default_rng(seed)
        p = self.make(rng, self.dim)
        family = list(p.bits)
        if {"T", "E"} <= set(family):
            claims = [{"kind": "detect", "t": "T", "e": "E"}]
            probe = {"t": "T", "e": "E", "g": "G", "f_list": list(p.commuting)}
        else:
            claims = []
            # No detecting pair exists at a full-rank state; a projection
            # detects itself, which the detection probes use instead.
            probe = {"t": family[0], "e": family[0], "g": "G", "f_list": family[1:3]}
        path = str(workdir / f"{self.name}.json")
        csv_path = workdir / f"{self.name}.csv"
        size = inputs.write_scenario(path, f"{self.name}-{seed}", p, claims)
        probs = inputs.atom_probabilities(p, family)
        atoms = inputs.reference_atoms(seed, probs, self.samples)
        if np.any(probs[atoms] == 0.0):
            raise AssertionError("reference stream drew a zero-mass atom")
        return Prepared(
            planted=p,
            expect={
                "digest": inputs.reference_csv_digest(family, atoms),
                "zero_mass": int(np.sum(probs == 0.0)),
                "audit": [f"discordant:{c['t']}~{c['e']}" for c in claims],
                "csv": csv_path,
            },
            argv=[
                "simulate", path, *family,
                "--samples", str(self.samples), "--seed", str(seed),
                "--workers", "2", "--csv-out", str(csv_path), "--output", "json",
            ],
            probe={**probe, "family": family, "samples": self.samples, "seed": seed},
            file_bytes=size,
        )

    def op(self, prep: Prepared):
        return run_cli(prep.argv)

    def check(self, prep: Prepared, result) -> list[str]:
        code, out = result
        if code == 2:
            return ["exit code 2"]
        exp = prep.expect
        problems = []
        data = exp["csv"].read_bytes()
        if hashlib.sha256(data).hexdigest() != exp["digest"]:
            problems.append("ensemble CSV differs from the reference stream")
        rows = data.count(b"\n") - 1
        if rows != self.samples:
            problems.append(f"CSV has {rows} records, expected {self.samples}")
        checks = json.loads(out)["checks"]
        problems.extend(
            f"{c['name']} failed" for c in checks if c["ref"] in EXACT_SUPPORT and not c["pass"]
        )
        empty = sum(1 for c in checks if c["ref"] == "support:zero-mass")
        if empty != exp["zero_mass"]:
            problems.append(f"{empty} zero-mass checks, oracle has {exp['zero_mass']}")
        audits = {c["name"]: c for c in checks if c["ref"] == "support:detection"}
        if sorted(audits) != exp["audit"] or any(c["residual"] != 0.0 for c in audits.values()):
            problems.append(f"discordance audit {audits}, expected zero for {exp['audit']}")
        if code != (0 if all(c["pass"] for c in checks) else 1):
            problems.append(f"exit code {code} disagrees with the report")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        DenseVerify(),
        Simulate("simulate-records", inputs.records_scenario, samples=200_000),
        Simulate("simulate-family", functools.partial(inputs.family_scenario, size=11), samples=20_000),
    )
}
