"""Pass/fail reports produced by the theorem-checker harness."""

from __future__ import annotations

import json
from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CheckReport:
    """One verification outcome.

    ``status`` is one of pass/fail/skipped/inconclusive; anything other than a
    pass carries a witness (the two sides of a failed equality, or the reason
    the instance was skipped or inconclusive).
    """

    statement_id: str
    instance_description: str
    status: str
    seeds: tuple = ()
    witness: dict | None = None

    def __post_init__(self):
        if self.status not in (PASS, FAIL, SKIPPED, INCONCLUSIVE):
            raise ValueError("unknown status %r" % self.status)
        if self.status != PASS and self.witness is None:
            raise ValueError("non-pass reports must carry a witness")

    @property
    def passed(self) -> bool:
        return self.status == PASS


def report_line(report: CheckReport) -> str:
    """One-line structured text form, consumed by the command-line verifier."""
    fields = {
        "statement": report.statement_id,
        "status": report.status,
        "seeds": list(report.seeds),
        "instance": report.instance_description,
    }
    if report.witness is not None:
        fields["witness"] = report.witness
    return json.dumps(fields, default=str)


def worst_status(reports) -> str:
    """fail > inconclusive > skipped > pass, for exit-code aggregation."""
    order = {FAIL: 3, INCONCLUSIVE: 2, SKIPPED: 1, PASS: 0}
    worst = PASS
    for r in reports:
        if order[r.status] > order[worst]:
            worst = r.status
    return worst
