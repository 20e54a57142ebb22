"""Continuous t-norms on the unit interval and their residuation solvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reports import AxiomReport, record, require_samples, sweep_chunks

TOLERANCE = 1e-12
_BISECTION_STEPS = 64

KINDS = ("product", "minimum", "lukasiewicz")


@dataclass(frozen=True)
class TNorm:
    """One of the three classical continuous t-norms, selected by name.

    All operations accept scalars or numpy arrays (broadcast) and are pure,
    so instances are freely shareable.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown t-norm {self.kind!r}; expected one of {KINDS}")

    def apply(self, a, b):
        """Aggregate two membership degrees in [0, 1]."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        # Reductions build no bool temporaries, and a NaN fails every comparison;
        # ``initial`` keeps empty arrays valid.
        if not (a.min(initial=0.0) >= 0.0 and a.max(initial=1.0) <= 1.0
                and b.min(initial=0.0) >= 0.0 and b.max(initial=1.0) <= 1.0):
            raise ValueError("t-norm arguments must lie in [0, 1]")
        if self.kind == "product":
            out = a * b
        elif self.kind == "minimum":
            out = np.minimum(a, b)
        else:
            # a - (1 - b) instead of a + b - 1: keeps apply(a, 1.0) == a exact.
            out = np.maximum(a - (1.0 - b), 0.0)
        return out if out.ndim else float(out)

    def residuate(self, r1, r2):
        """Smallest b with apply(r1, b) >= r2, given 1 > r1 > r2 > 0.

        Bisection on the monotone map b -> apply(r1, b); the returned value
        satisfies the inequality and is within 2**-64 of the infimum.
        """
        r1 = np.asarray(r1, dtype=float)
        r2 = np.asarray(r2, dtype=float)
        if not (np.all(r1 < 1.0) and np.all(r2 > 0.0) and np.all(r1 > r2)):
            raise ValueError("residuation requires 1 > r1 > r2 > 0")
        return self._bisect(lambda b: self.apply(r1, b) >= r2, np.broadcast(r1, r2).shape)

    def square_root(self, r4):
        """Smallest b with apply(b, b) >= r4, given r4 in (0, 1)."""
        r4 = np.asarray(r4, dtype=float)
        if not (np.all(r4 > 0.0) and np.all(r4 < 1.0)):
            raise ValueError("square_root requires r4 in (0, 1)")
        return self._bisect(lambda b: self.apply(b, b) >= r4, r4.shape)

    def _bisect(self, satisfied, shape):
        lo = np.zeros(shape)
        hi = np.ones(shape)
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            ok = satisfied(mid)
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid)
        hi = np.asarray(hi)
        return hi if hi.ndim else float(hi)


def check_axioms(t: TNorm, samples: int = 10_000, seed: int = 0) -> AxiomReport:
    """Sampled verification of the four t-norm axioms.

    Draws seeded uniform quadruples and checks commutativity/associativity
    within TOLERANCE, identity and monotonicity exactly, and continuity via
    the 1-Lipschitz bound all three kinds satisfy.  The sample range is
    evaluated vectorized, a chunk at a time (``sweep_chunks``); the reported
    counterexample is the lowest-index one.  At most ``reports.MAX_SAMPLES`` samples.
    """
    require_samples(samples)
    rng = np.random.default_rng(seed)
    a, b, c, d = rng.uniform(0.0, 1.0, size=(4, samples))
    h = 1e-7

    def sweeps(a, b, c, d):
        lo_a, hi_a = np.minimum(a, c), np.maximum(a, c)
        lo_b, hi_b = np.minimum(b, d), np.maximum(b, d)
        a_clip = np.minimum(a, 1.0 - h)
        return {
            "commutative": np.abs(t.apply(a, b) - t.apply(b, a)) <= TOLERANCE,
            "associative": (np.abs(t.apply(t.apply(a, b), c) - t.apply(a, t.apply(b, c)))
                            <= TOLERANCE),
            "identity": t.apply(a, np.ones_like(a)) == a,
            "monotone": t.apply(lo_a, lo_b) <= t.apply(hi_a, hi_b),
            "continuous": (np.abs(t.apply(a_clip + h, b) - t.apply(a_clip, b))
                           <= h + TOLERANCE),
        }

    witnesses = {
        "commutative": lambda i: {"a": float(a[i]), "b": float(b[i])},
        "associative": lambda i: {"a": float(a[i]), "b": float(b[i]), "c": float(c[i])},
        "identity": lambda i: {"a": float(a[i])},
        "monotone": lambda i: {"a": float(min(a[i], c[i])), "b": float(min(b[i], d[i])),
                               "c": float(max(a[i], c[i])), "d": float(max(b[i], d[i]))},
        "continuous": lambda i: {"a": float(min(a[i], 1.0 - h)), "b": float(b[i]), "h": h},
    }
    checks = []
    for name, ok in sweep_chunks(sweeps, a, b, c, d).items():
        record(checks, name, ok, witnesses[name])

    return AxiomReport(subject=f"tnorm:{t.kind}", samples=samples, seed=seed, checks=tuple(checks))
