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

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "checks": [c.to_dict() for c in self.checks],
            "summary": {"passed": self.passed_count, "failed": self.failed_count},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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
