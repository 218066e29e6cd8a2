"""Check results and reports shared by the verifiers and the CLI.

A report is a named list of pass/fail checks with residuals. Serialization
is deterministic (sorted JSON keys, fixed row order) so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from math import isfinite
from typing import Optional


@dataclass(frozen=True)
class CheckResult:
    """One verified claim: a name, a verdict, and how close it was.

    residual is the claim's own scale (a defect, a deviation, a count);
    None when the check is purely boolean. ref is a stable slug tying the
    check to the claim it verifies.
    """

    name: str
    passed: bool
    residual: Optional[float] = None
    ref: str = ""
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "residual": self.residual,
            "ref": self.ref,
            "detail": self.detail,
        }


# How json.dumps(..., indent=2, sort_keys=True) opens a report with no
# checks, and writes each check of a report that has some.
_NO_CHECKS = '{\n  "checks": []'
_CHECK_JSON = """\
    {
      "detail": %s,
      "name": %s,
      "pass": %s,
      "ref": %s,
      "residual": %s
    }"""


def _json_number(x) -> str:
    """x as json.dumps writes it; a finite float is its repr."""
    return float.__repr__(x) if isinstance(x, float) and isfinite(x) else json.dumps(x)


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    def add(
        self,
        name: str,
        passed: bool,
        residual: Optional[float] = None,
        ref: str = "",
        detail: str = "",
    ) -> CheckResult:
        result = CheckResult(
            name=name,
            passed=bool(passed),
            residual=None if residual is None else float(residual),
            ref=ref,
            detail=detail,
        )
        self.checks.append(result)
        return result

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed_count(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def exit_code(self) -> int:
        return 0 if self.failed_count == 0 else 1

    def to_dict(self, checks: Optional[list] = None) -> dict:
        """The report as JSON values, with `checks` in place of the checks' dicts if given."""
        return {
            "command": self.command,
            "inputs": self.inputs,
            "checks": [c.to_dict() for c in self.checks] if checks is None else checks,
            "summary": {"passed": self.passed_count, "failed": self.failed_count},
        }

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), indent=2, sort_keys=True), byte for byte.

        indent puts json on its pure-Python encoder, so the checks, the bulk
        of a report, are written from one template instead.
        """
        rest = json.dumps(self.to_dict(checks=[]), indent=2, sort_keys=True)[len(_NO_CHECKS):]
        q = json.encoder.encode_basestring_ascii
        checks = ",\n".join(
            _CHECK_JSON
            % (q(c.detail), q(c.name), str(c.passed).lower(), q(c.ref), _json_number(c.residual))
            for c in self.checks
        )
        return '{\n  "checks": [\n' + checks + "\n  ]" + rest if checks else _NO_CHECKS + rest

    def to_csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["name", "pass", "residual", "ref", "detail"])
        for c in self.checks:
            residual = "" if c.residual is None else repr(c.residual)
            writer.writerow([c.name, str(c.passed).lower(), residual, c.ref, c.detail])
        return out.getvalue()

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key in sorted(self.inputs):
            lines.append(f"  {key} = {self.inputs[key]}")
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            residual = "" if c.residual is None else f"  residual={c.residual:.3e}"
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"[{mark}] {c.name}{residual}{detail}")
        lines.append(
            f"summary: {self.passed_count} passed, {self.failed_count} failed"
        )
        return "\n".join(lines) + "\n"
