"""Shared report containers and deterministic JSON serialization.

Every harness in the package reports results through small dataclasses that
serialize to the same JSON-shaped schema.  Serialization is deterministic:
sorted keys, repr floats, no timestamps, so identical runs produce identical
bytes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class AxiomCheck:
    """Outcome of one axiom sweep: pass flag plus the first counterexample."""

    name: str
    passed: bool
    counterexample: dict | None = None


@dataclass
class AxiomReport:
    """Bundle of axiom checks for one subject (a t-norm or a fuzzy metric)."""

    subject: str
    samples: int
    seed: int
    checks: tuple[AxiomCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "samples": self.samples,
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": [asdict(c) for c in self.checks],
        }


#: Most samples an axiom harness draws, the bound grids have too
#: (``fuzzy_metric.MAX_GRID_POINTS``): each sample column takes 80 MB.
MAX_SAMPLES = 10**7


def require_samples(samples: int) -> None:
    """Reject a sample count above MAX_SAMPLES before anything is allocated."""
    if not samples <= MAX_SAMPLES:
        raise ValueError(f"too many samples: {samples}, more than {MAX_SAMPLES}")


# Samples per chunk of an axiom sweep.  A chunk's float arrays (96 KiB) stay
# under glibc's default mmap threshold (128 KiB), so their temporaries are
# reused from the heap.  Whole-sample arrays would each be mapped and faulted
# in afresh unless an earlier large allocation had raised the threshold, so a
# sweep's cost would depend on what the process ran before it.
SWEEP_CHUNK = 12288


def sweep_chunks(sweeps, *columns) -> dict:
    """Run ``sweeps(*chunk)``, which maps names to elementwise pass masks,
    on consecutive chunks of the equal-length sample columns, and join the
    masks of each name."""
    n = len(columns[0])
    parts = [sweeps(*(c[k:k + SWEEP_CHUNK] for c in columns))
             for k in range(0, max(n, 1), SWEEP_CHUNK)]
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def record(checks: list, name: str, ok_mask, witness) -> None:
    """Append the outcome of one axiom sweep to ``checks``; a failure carries
    ``witness(i)`` for the lowest failing index i."""
    ok_mask = np.asarray(ok_mask)
    if ok_mask.all():
        checks.append(AxiomCheck(name, True))
    else:
        checks.append(AxiomCheck(name, False, witness(int(np.argmax(~ok_mask)))))


def json_text(payload: dict) -> str:
    """Render a payload as canonical JSON text (sorted keys, trailing newline)."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
