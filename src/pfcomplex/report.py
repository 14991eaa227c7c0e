"""Structured pass/fail verdicts and the error root shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass, field


PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
CONTRADICTION = "contradiction"

# process exit status of a check command, per verdict
EXIT_STATUS = {PASS: 0, FAIL: 1, INCONCLUSIVE: 3, CONTRADICTION: 1}


class PfcError(ValueError):
    """Bad input or an impossible request; the command line exits 2 on it.

    Every error this package raises on purpose is a PfcError.  Subclasses
    exist only where a caller tells them apart.
    """


@dataclass(frozen=True)
class CheckItem:
    """One measured quantity at one location, with a witness on failure."""

    location: str
    measured: float | int | bool
    threshold: float | int | bool | None = None
    witness: object = None

    def to_json(self):
        w = self.witness
        if isinstance(w, tuple):
            w = list(w)
        return {
            "location": self.location,
            "measured": self.measured,
            "threshold": self.threshold,
            "witness": w,
        }


@dataclass(frozen=True)
class CheckReport:
    verdict: str
    items: tuple = ()
    metadata: dict = field(default_factory=dict, compare=False)

    def to_json(self):
        return {
            "verdict": self.verdict,
            "items": [i.to_json() for i in self.items],
            "metadata": dict(sorted(self.metadata.items())),
        }
