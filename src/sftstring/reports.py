"""Check reports shared by all master-equation and axiom checkers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class CheckReport:
    name: str
    status: str = PASS
    witnesses: List[Tuple[str, str]] = field(default_factory=list)
    caps: dict = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    missing_cap: Optional[str] = None
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def add_witness(self, monomial: str, coefficient) -> None:
        self.witnesses.append((monomial, str(coefficient)))
        self.status = FAIL

    def mark_inconclusive(self, missing_cap: str) -> None:
        self.status = INCONCLUSIVE
        self.missing_cap = missing_cap

    def to_json(self) -> dict:
        data = {
            "schema": 1,
            "check": self.name,
            "status": self.status,
            "witnesses": [
                {"monomial": m, "coefficient": c} for m, c in self.witnesses
            ],
            "caps": self.caps,
            "notes": list(self.notes),
            "seconds": round(self.seconds, 6),
        }
        if self.missing_cap is not None:
            data["missing_cap"] = self.missing_cap
        return data

    def render(self) -> str:
        lines = ["[%s] %s" % (self.status.upper(), self.name)]
        for m, c in self.witnesses:
            lines.append("  witness: %s  coefficient %s" % (m, c))
        if self.missing_cap:
            lines.append("  missing cap: %s" % self.missing_cap)
        for n in self.notes:
            lines.append("  note: %s" % n)
        return "\n".join(lines)


class timed:
    """Context manager adding the elapsed seconds to a report's."""

    def __init__(self, report: CheckReport):
        self.report = report

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self.report

    def __exit__(self, *exc):
        self.report.seconds += time.perf_counter() - self._t0
        return False


def series_witnesses(report: CheckReport, series) -> CheckReport:
    """Record every nonzero term of `series` as a failure witness."""
    from .algebra import format_monomial

    for m, c in series.iter_terms():
        report.add_witness(format_monomial(m), c)
    return report
