"""Continuous t-norms on the unit interval and their residuation solvers.

The three kinds form a closed set, so their axioms are decided from a proof
table, not sampled (``check_axioms``).  The residuation solvers are closed
forms, each moved to the least float that satisfies its float inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reports import AxiomCheck, AxiomReport

TOLERANCE = 1e-12

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
        """Least float b with apply(r1, b) >= r2, given 1 > r1 > r2 > 0.

        The real solutions r2/r1 (product), r2 (minimum) and r2 + 1 - r1
        (Lukasiewicz) are taken where the float inequality flips, a few
        floats from the answer, and ``_least`` steps them there.
        """
        r1, r2 = np.broadcast_arrays(np.asarray(r1, dtype=float), np.asarray(r2, dtype=float))
        if not (np.all(r1 < 1.0) and np.all(r2 > 0.0) and np.all(r1 > r2)):
            raise ValueError("residuation requires 1 > r1 > r2 > 0")
        if self.kind == "product":
            # fl(v) >= r2 iff v reaches the midpoint of r2 and the float
            # below it (ties aside); r2/r1 is up to 2**51 floats off when r2
            # is subnormal, and so is sqrt(r4) in square_root
            b = (r2 + np.nextafter(r2, 0.0)) / (2.0 * r1)
        elif self.kind == "minimum":
            b = r2
        else:
            # fl(1 - b) is constant on runs of floats b < 1/2 that are 2**-53
            # wide, so start at the least b with fl(1 - b) <= c, where c is
            # the greatest float with r1 - c >= r2 (exact for c >= 1/2):
            # (1 - c) less half the gap above c
            c = r1 - r2
            c = np.where(r1 - c >= r2, c, np.nextafter(c, 0.0))
            b = (1.0 - c) - (np.nextafter(c, 1.0) - c) / 2.0
        return _least(b, lambda b: self.apply(r1, b) >= r2)

    def square_root(self, r4):
        """Least float b with apply(b, b) >= r4, given r4 in (0, 1): the real
        solutions sqrt(r4) (product), r4 (minimum) and (r4 + 1)/2
        (Lukasiewicz), moved as in ``residuate``."""
        r4 = np.asarray(r4, dtype=float)
        if not (np.all(r4 > 0.0) and np.all(r4 < 1.0)):
            raise ValueError("square_root requires r4 in (0, 1)")
        if self.kind == "product":
            b = np.sqrt(r4 + np.nextafter(r4, 0.0)) * np.sqrt(0.5)
        elif self.kind == "minimum":
            b = r4
        else:
            b = (r4 + 1.0) / 2.0
        return _least(b, lambda b: self.apply(b, b) >= r4)


def _least(b, satisfied):
    """The least float at which ``satisfied``, a test nondecreasing in b
    that holds at 1 and fails at 0, holds: b, which lies a few floats from
    it, steps up while the test fails, then down while it holds below."""
    b = np.asarray(b, dtype=float)
    while not (ok := satisfied(b)).all():
        b = np.where(ok, b, np.nextafter(b, 1.0))
    while (ok := satisfied(below := np.nextafter(b, 0.0))).any():
        b = np.where(ok, below, b)
    return b if b.ndim else float(b)


_AXIOMS = ("commutative", "associative", "identity", "monotone", "continuous")
#: One-line proofs of _AXIOMS per kind (Klement, Mesiar and Pap, *Triangular
#: Norms*, 2000); continuity is the 1-Lipschitz bound in each argument.
_AXIOM_PROOFS = {
    "product": ("ab = ba", "(ab)c = a(bc)", "a * 1 = a", "ab <= cb <= cd for 0 <= a <= c, b <= d",
                "|ab - a'b| = |a - a'| b <= |a - a'|"),
    "minimum": ("min is symmetric", "both sides are min(a, b, c)", "min(a, 1) = a for a <= 1",
                "min is nondecreasing in each argument", "|min(a, b) - min(a', b)| <= |a - a'|"),
    "lukasiewicz": ("max(a + b - 1, 0) is symmetric", "both sides are max(a + b + c - 2, 0)",
                    "max(a + 1 - 1, 0) = a for a >= 0", "a + b - 1 and max(., 0) are nondecreasing",
                    "|max(a + b - 1, 0) - max(a' + b - 1, 0)| <= |a - a'|"),
}


def check_axioms(t: TNorm) -> AxiomReport:
    """The five t-norm axioms, each proved for every kind by its line of the
    proof table.  A class other than TNorm raises ValueError."""
    if type(t) is not TNorm:
        raise ValueError(f"no axiom proofs for {type(t).__name__}")
    return AxiomReport(f"tnorm:{t.kind}", tuple(
        AxiomCheck(name, True, proof=proof) for name, proof in zip(_AXIOMS, _AXIOM_PROOFS[t.kind])))
