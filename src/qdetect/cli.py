"""Command-line front end.

Subcommands map one-to-one onto the library verifiers:

* ghsz       build and verify the four-qubit no-go scenario
* detect     judge one detection claim between two named observables of a file
* example44  verify the two-state sum-rule counterexample at an angle
* c3         judge one sum-rule claim for a named pair of observables of a file
* simulate   sample a specimen ensemble for a commuting family, write CSV

Exit codes: 0 all checks matched expectations, 1 at least one check failed,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import fields, replace
from typing import Optional, Sequence

from .assignment import _simulation_equalities, joint_distribution
from .ensemble import (
    check_request, check_support_statements, check_z, detection_frequency_audit, sample_ensemble
)
from .errors import ToolkitError
from .numerics import DEFAULT_TOL, EIG_CUT, Tolerance
from .observables import commutes
from .reporting import Report
from .scenarios import (
    DetectionClaim,
    Scenario,
    SumRuleClaim,
    build_ghsz,
    load_scenario,
    verify_example_44,
    verify_ghsz,
    verify_scenario,
)


def _verify_claim(args: argparse.Namespace, tol: Tolerance, cls) -> tuple[Scenario, Report]:
    """The file's scenario, and verify_scenario of it with one claim of kind
    cls in place of its own, the claim's fields read from the arguments of
    the same names (an unknown name raises, listing the declared ones)."""
    scn = load_scenario(args.scenario, tol)
    names = {f.name: getattr(args, f.name) for f in fields(cls)}
    report = verify_scenario(replace(scn, declared_claims=[cls(**names)]), tol)
    report.command = args.command
    report.inputs.update(names)
    return scn, report


def cmd_detect(args: argparse.Namespace, tol: Tolerance) -> Report:
    scn, report = _verify_claim(args, tol, DetectionClaim)
    if report.checks[0].passed:
        t, e = scn.observable(args.t), scn.observable(args.e)
        others = (p for name, p in scn.observables.items() if name not in (args.t, args.e))
        compatible = [p for p in others if commutes(p, t, tol) and commutes(p, e, tol)]
        # The passing detection line and the filter above are the
        # preconditions simulation_equalities checks.
        for sim in _simulation_equalities(t, e, scn.state, compatible, tol):
            defined = [d for d in (sim.defect_outcome1, sim.defect_outcome0) if d is not None]
            report.add(
                name=f"simulation:{sim.f_name}",
                passed=sim.passed,
                residual=max(defined) if defined else None,
                ref="detection:simulation",
                detail=sim.note,
            )
    return report


def cmd_simulate(args: argparse.Namespace, tol: Tolerance) -> Report:
    # Every flag is checked before the scenario file is read, except that
    # --csv-out is only opened once the ensemble is drawn.
    check_z(args.z)
    check_request(args.samples, args.seed, args.workers)
    scn = load_scenario(args.scenario, tol)
    projections = [scn.observable(name) for name in args.family]
    dist = joint_distribution(projections, scn.state, tol)
    ens = sample_ensemble(
        dist, args.samples, args.seed, rho_name=scn.name, workers=args.workers
    )
    report = check_support_statements(ens, dist, args.z)
    ens.to_csv(args.csv_out)
    report.command = "simulate"
    report.inputs.update(
        scenario=scn.name,
        family=list(args.family),
        samples=int(args.samples),
        workers=int(args.workers),
        csv=str(args.csv_out),
    )
    for claim in scn.declared_claims:
        if isinstance(claim, DetectionClaim) and {claim.t, claim.e} <= set(args.family):
            discordant, concordant = detection_frequency_audit(claim.t, claim.e, ens)
            name, detail = f"discordant:{claim.t}~{claim.e}", f"{concordant} concordant records"
            report.add(name, discordant == 0, float(discordant), "support:detection", detail)
    return report


def _build_parser() -> argparse.ArgumentParser:
    """The command table: each subcommand binds its handler as `run`.

    Handlers are looked up when the parser is built, so a wrapper installed
    on a module-level name is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="qdetect",
        description="Verify detection relations, value-assignment consistency, "
        "and the associated no-go construction.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL.atol,
        help="absolute tolerance floor (default %(default)g)",
    )
    common.add_argument(
        "--output",
        choices=("json", "csv", "text"),
        default="text",
        help="report format (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(run=run)
        return p

    command(
        "ghsz",
        lambda args, tol: verify_ghsz(build_ghsz(), tol),
        "verify the four-qubit no-go scenario end to end",
    )

    p_detect = command(
        "detect",
        cmd_detect,
        "check whether observable T detects observable E at the scenario state",
    )
    p_detect.add_argument("scenario", help="scenario JSON file")
    p_detect.add_argument("t", help="detector observable name")
    p_detect.add_argument("e", help="detected observable name")

    p_ex = command(
        "example44",
        lambda args, tol: verify_example_44(args.theta, tol),
        "verify the two-state sum-rule counterexample",
    )
    p_ex.add_argument(
        "--theta",
        type=float,
        default=math.pi / 6.0,
        help="angle in (0, pi/4) (default %(default).10f)",
    )

    p_c3 = command(
        "c3",
        lambda args, tol: _verify_claim(args, tol, SumRuleClaim)[1],
        "evaluate the complement sum rule for a pair of observables",
    )
    p_c3.add_argument("scenario", help="scenario JSON file")
    p_c3.add_argument("e", help="conditioning observable name")
    p_c3.add_argument("f", help="target observable name")

    p_sim = command(
        "simulate", cmd_simulate, "sample a specimen ensemble for a commuting family"
    )
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("family", nargs="+", help="observable names to measure jointly")
    p_sim.add_argument(
        "--samples", type=int, default=10000, help="ensemble size (default %(default)s)"
    )
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed (default %(default)s)")
    p_sim.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility, must be at least 1; never changes "
        "the ensemble and starts no threads (default %(default)s)",
    )
    p_sim.add_argument(
        "--csv-out",
        default="ensemble.csv",
        help="where to write the ensemble CSV (default %(default)s)",
    )
    p_sim.add_argument(
        "--z",
        type=float,
        default=3.0,
        help="width of the frequency acceptance band in sigmas (default %(default)s)",
    )
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        tol = Tolerance(atol=args.tol)
        # The filters stay the user's; only the display drops the source line.
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            report = args.run(args, tol)
    except (ToolkitError, Warning, OSError) as err:
        # An OSError is a path the user named that cannot be read or written.
        print(f"error: {err}", file=sys.stderr)
        return 2
    report.inputs.update({"tol": tol.atol, "eig_cut": EIG_CUT})
    rendered = {
        "json": report.to_json,
        "csv": report.to_csv_text,
        "text": report.to_text,
    }[args.output]()
    sys.stdout.write(rendered if rendered.endswith("\n") else rendered + "\n")
    return report.exit_code
