"""Verdict reports shared by every verifier.

A report is a flat list of named checks; the overall verdict passes only
when every check does, and a failing check always carries a witness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    passed: bool
    witness: str = ""


class VerificationError(ValueError):
    """A precondition verdict failed; carries the offending report."""

    def __init__(self, message, report=None):
        if report is not None and report.failures():
            message = "%s: %s" % (message, report.failures()[0].witness or report.failures()[0].name)
        super().__init__(message)
        self.report = report


@dataclass
class VerdictReport:
    checks: list[Check] = field(default_factory=list)
    started: float = field(default_factory=time.monotonic)
    timing_ms: float = 0.0

    def add(self, name, passed, witness=""):
        """Append one check.  ``witness`` is its text, or a zero-argument
        callable that returns it; the callable runs only when the check
        fails, so passing checks render nothing, and it is never stored."""
        if passed:
            witness = ""
        else:
            witness = (witness() if callable(witness) else witness) or "condition violated"
        self.checks.append(Check(name, bool(passed), witness))
        self.timing_ms = (time.monotonic() - self.started) * 1000.0
        return passed

    def fold(self, name, sub):
        """One check that passes exactly when ``sub`` does, with its witnesses joined."""
        return self.add(name, sub.verdict, "; ".join(c.witness for c in sub.failures()))

    def merge(self, other, prefix=""):
        for check in other.checks:
            name = "%s%s" % (prefix, check.name)
            self.checks.append(Check(name, check.passed, check.witness))
        self.timing_ms = (time.monotonic() - self.started) * 1000.0

    @property
    def verdict(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def require(self, message):
        if not self.verdict:
            raise VerificationError(message, self)
        return self

    def render_text(self):
        lines = ["verdict: %s" % ("pass" if self.verdict else "fail")]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            line = "  [%s] %s" % (mark, c.name)
            if c.witness:
                line += " -- %s" % c.witness
            lines.append(line)
        lines.append("  checks: %d, time: %.1f ms" % (len(self.checks), self.timing_ms))
        return "\n".join(lines)

    def to_json_dict(self):
        return {
            "verdict": "pass" if self.verdict else "fail",
            "checks": [
                {"name": c.name, "status": "pass" if c.passed else "fail", "witness": c.witness}
                for c in self.checks
            ],
            "timing_ms": round(self.timing_ms, 3),
        }
