"""Shared report containers and deterministic JSON serialization.

Every harness in the package reports results through small dataclasses that
serialize to the same JSON-shaped schema.  Serialization is deterministic:
sorted keys, repr floats, no timestamps, so identical runs produce identical
bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass


class VerificationError(RuntimeError):
    """A result failed its independent re-check, so it is not returned."""


@dataclass
class AxiomCheck:
    """Verdict on one axiom: ``proof``, the one-line reduction that proves
    it, or ``counterexample``, the exact point where it fails."""

    name: str
    passed: bool
    counterexample: dict | None = None
    proof: str | None = None


@dataclass
class AxiomReport:
    """Bundle of axiom checks for one subject (a t-norm or a fuzzy metric)."""

    subject: str
    checks: tuple[AxiomCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "all_passed": self.all_passed,
            "checks": [asdict(c) for c in self.checks],
        }


def json_text(payload: dict) -> str:
    """Render a payload as canonical JSON text (sorted keys, trailing newline)."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
