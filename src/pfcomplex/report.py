"""Structured pass/fail verdicts shared by the checking operations."""

from __future__ import annotations

from dataclasses import dataclass, field


PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
CONTRADICTION = "contradiction"


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

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json(self):
        return {
            "verdict": self.verdict,
            "items": [i.to_json() for i in self.items],
            "metadata": dict(sorted(self.metadata.items())),
        }
