"""Fuzzy metrics on a bounded real interval: degree-of-nearness evaluators.

Three constructions are provided, all with the product t-norm by default:

* ``standard``  -- t / (t + |x - y|) on a closed or half-open interval;
* ``ratio-phi`` -- min/max ratio damped by the horizon weight min(t, 1),
  on (0, 1]; its balls of radius 1/2 at horizon 1/2 are singletons;
* ``ratio``     -- bare min/max ratio on (0, 1], horizon-independent.

A metric evaluates M(x, y, t) in (0, 1]: 1 means indistinguishable at
horizon t, and nearness never decreases as the horizon grows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .reports import AxiomReport, record
from .tnorm import TNorm

TOLERANCE = 1e-12

# spacing of the floats in [1, 2)
_ULP = Fraction(2.0**-52)

#: Geometric horizon candidates used by the uniform-horizon and continuity
#: searches: 2**-20 .. 2**40.
HORIZON_LADDER = tuple(2.0**k for k in range(-20, 41))

METRIC_NAMES = ("standard", "ratio-phi", "ratio")


def interval_grid(lo: float, hi: float, lo_open: bool, resolution: float) -> np.ndarray:
    """Uniform grid over an interval; open lower endpoints start one step up."""
    if not resolution > 0.0:
        raise ValueError("grid resolution must be positive")
    steps = int(round((hi - lo) / resolution))
    if steps < 1:
        raise ValueError("resolution too coarse for the interval")
    if lo_open:
        return np.linspace(lo + resolution, hi, steps)
    return np.linspace(lo, hi, steps + 1)


def require_in_domain(f, states: np.ndarray) -> np.ndarray:
    """Return states unchanged after checking that they lie in the domain of
    f; the domain is an interval, so the least and the greatest state decide."""
    for v in (states.min(), states.max()):
        if not f.contains(v):
            raise ValueError(f"state {float(v)!r} outside domain of {f.name}")
    return states


@dataclass(frozen=True)
class Interval:
    """Interval of reals with exact rational ends, each one open or closed;
    it is empty when lo > hi, or when lo == hi and an end is open."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    @classmethod
    def point(cls, x) -> "Interval":
        v = Fraction(x)
        return cls(v, v)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi or (self.lo == self.hi and not (self.lo_closed and self.hi_closed))

    def __contains__(self, x) -> bool:
        return not (self & Interval.point(x)).is_empty

    def __and__(self, other: "Interval") -> "Interval":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi,
                        all(i.lo_closed for i in (self, other) if i.lo == lo),
                        all(i.hi_closed for i in (self, other) if i.hi == hi))


class FuzzyMetric:
    """Base evaluator over states in a real interval.

    Subclasses implement ``_kernel`` on raw arrays; ``ball_interval``, the
    exact union of the open balls {z : M(u, z, t) > 1 - radius} over the u of
    a nonempty Interval; and ``float_slack(f, t)``, a bound, in units of the
    radius, on how far float errors in evaluating a piecewise-linear map f or
    in rounding a state move a ball's edge.  This class owns domain
    validation, grids, and seeded state sampling.
    """

    name = "base"

    def __init__(self, tnorm: TNorm, lo: float, hi: float, lo_open: bool):
        if not lo < hi:
            raise ValueError("interval requires lo < hi")
        self.tnorm = tnorm
        self.lo = float(lo)
        self.hi = float(hi)
        self.lo_open = bool(lo_open)

    # -- evaluation ---------------------------------------------------------

    def eval(self, x: float, y: float, t: float) -> float:
        """M(x, y, t) for validated scalar states and horizon t > 0."""
        self._require_state(x)
        self._require_state(y)
        self._require_horizon(t)
        return float(self._kernel(np.asarray(x, float), np.asarray(y, float), t))

    def eval_array(self, x, y, t):
        """Broadcast evaluation (including the horizon); states are assumed
        to lie in the space."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise ValueError("horizons must be positive")
        return self._kernel(np.asarray(x, float), np.asarray(y, float), t)

    def _kernel(self, x, y, t):  # pragma: no cover - overridden
        raise NotImplementedError

    # -- domain helpers -----------------------------------------------------

    def contains(self, x: float) -> bool:
        if self.lo_open:
            return self.lo < x <= self.hi
        return self.lo <= x <= self.hi

    def _require_state(self, x: float) -> None:
        if not self.contains(x):
            raise ValueError(f"state {x!r} outside {self.describe_space()}")

    def _require_horizon(self, t: float) -> None:
        if not t > 0.0:
            raise ValueError(f"horizon must be positive, got {t!r}")

    @property
    def space(self) -> Interval:
        return Interval(Fraction(self.lo), Fraction(self.hi), not self.lo_open, True)

    def describe_space(self) -> str:
        left = "(" if self.lo_open else "["
        return f"{left}{self.lo:g}, {self.hi:g}]"

    def grid(self, resolution: float) -> np.ndarray:
        return interval_grid(self.lo, self.hi, self.lo_open, resolution)

    def sample_states(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # hi - uniform[0, hi-lo) lands in (lo, hi], valid for open lower ends.
        return self.hi - rng.uniform(0.0, self.hi - self.lo, size=n)


class StandardFuzzyMetric(FuzzyMetric):
    """t / (t + |x - y|) over an interval with the absolute-difference base."""

    name = "standard"

    def __init__(self, tnorm: TNorm | None = None, lo: float = 0.0, hi: float = 1.0,
                 lo_open: bool = False):
        super().__init__(tnorm or TNorm("product"), lo, hi, lo_open)

    def _kernel(self, x, y, t):
        return t / (t + np.abs(x - y))

    def ball_interval(self, iv: Interval, radius: float, t: float) -> Interval:
        # t/(t + d) > 1 - radius  iff  d < t*radius/(1 - radius), the bridge threshold
        r = Fraction(t) * Fraction(radius) / (1 - Fraction(radius))
        return Interval(iv.lo - r, iv.hi + r, False, False)

    def float_slack(self, f, t: float) -> Fraction:
        # a state error e moves t/(t + d) by less than e/t; evaluating f, or
        # rounding its argument to a float, errs by under
        # 2 ulp(1) * (|slope * x| + |intercept| + |x|)
        scale = max(abs(p.slope * x) + abs(p.intercept) + abs(x)
                    for p in f.pieces for x in (p.lo, p.hi))
        return 2 * _ULP * scale / Fraction(t)


class _RatioBase(FuzzyMetric):
    """min/max ratio on (0, 1], damped by the horizon weight min(t, 1) when
    ``damped``."""

    damped = False

    def __init__(self, tnorm: TNorm | None = None):
        super().__init__(tnorm or TNorm("product"), 0.0, 1.0, lo_open=True)

    def _kernel(self, x, y, t):
        ratio = np.minimum(x, y) / np.maximum(x, y)
        if self.damped:
            ratio = ratio * np.minimum(t, 1.0)
        return np.where(x == y, 1.0, ratio)

    def ball_interval(self, iv: Interval, radius: float, t: float) -> Interval:
        # a distinct z is near u > 0 iff min/max > q, i.e. u*q < z < u/q; with
        # q >= 1 no distinct point is near, so every ball is a singleton
        q = (1 - Fraction(radius)) / (min(Fraction(t), 1) if self.damped else 1)
        if q >= 1:
            return iv
        return Interval(iv.lo * q, iv.hi / q, False, False)

    def float_slack(self, f, t: float) -> Fraction:
        # a state's relative error e moves min/max by a factor within 1 +- 2e;
        # evaluating f at a normal float, or rounding its argument to one,
        # errs relatively by under ulp(1) * (cond + 1)
        cond = max((abs(p.slope) * x + abs(p.intercept)) / p.value(x)
                   for p in f.pieces for x in (p.lo, p.hi) if p.value(x) > 0)
        return 4 * _ULP * (cond + 1)


class RatioPhiFuzzyMetric(_RatioBase):
    """min/max ratio scaled by min(t, 1); distinct points are never closer
    than the horizon weight allows, so small-horizon balls are singletons."""

    name = "ratio-phi"
    damped = True


class RatioFuzzyMetric(_RatioBase):
    """Bare min/max ratio; the horizon plays no role."""

    name = "ratio"


def metric_from_name(name: str, tnorm: TNorm | None = None, lo: float = 0.0,
                     hi: float = 1.0, lo_open: bool = False) -> FuzzyMetric:
    """Build a metric by CLI name; interval bounds apply to ``standard`` only."""
    if name == "standard":
        return StandardFuzzyMetric(tnorm, lo, hi, lo_open)
    if name == "ratio-phi":
        return RatioPhiFuzzyMetric(tnorm)
    if name == "ratio":
        return RatioFuzzyMetric(tnorm)
    raise ValueError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")


def require_map_in_space(f, m: FuzzyMetric) -> None:
    """Check that the domain of f lies inside the space of m, so that no state
    the map reaches falls outside the metric (0 under a ratio metric, say)."""
    # an open lower end of the domain is never reached, so it may sit on the
    # metric's lower end whether that end is open or closed
    low_inside = m.lo <= f.domain_lo if f.lo_open else m.contains(f.domain_lo)
    if not (low_inside and m.contains(f.domain_hi)):
        raise ValueError(f"domain of {f.name} is not inside the {m.name} "
                         f"space {m.describe_space()}")


def bridge_threshold(delta: float, t0: float) -> float:
    """Classical distance threshold equivalent to a standard-metric bound.

    t0/(t0+d) > 1-delta  iff  d < t0*delta/(1-delta), so fuzzy validators at
    (delta, t0) and classical validators at this threshold agree exactly.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return t0 * delta / (1.0 - delta)


# -- balls -------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """Fuzzy ball: states y with M(center, y, t) above 1 - radius."""

    center: float
    radius: float
    t: float
    closed: bool = False

    def __post_init__(self):
        if not 0.0 < self.radius < 1.0:
            raise ValueError("ball radius must lie in (0, 1)")
        if not self.t > 0.0:
            raise ValueError("ball horizon must be positive")


def ball_members(m: FuzzyMetric, ball: Ball, ys: np.ndarray) -> np.ndarray:
    """Exact membership mask; open balls compare strictly, closed ones do not."""
    values = m.eval_array(np.asarray(ball.center, float), np.asarray(ys, float), ball.t)
    threshold = 1.0 - ball.radius
    return values >= threshold if ball.closed else values > threshold


# -- axiom harness -----------------------------------------------------------


def check_axioms(m: FuzzyMetric, samples: int = 10_000, seed: int = 0) -> AxiomReport:
    """Seeded sampling harness for the five fuzzy-metric axioms.

    Checks, per sampled triple (x, y, z) and horizons (t, s):

    1. positivity, 2. nearness-1 exactly on the diagonal and strictly below 1
    off it, 3. symmetry, 4. the t-norm triangle inequality at horizon t + s,
    5. continuity in the horizon (Lipschitz bound (1 + 1/t) * h), plus the
    nondecreasing-in-horizon property as a sixth sweep.

    The sample range is scanned vectorized; failures report the lowest-index
    counterexample, which is the same merge rule a sharded scan would use.
    """
    rng = np.random.default_rng(seed)
    x = m.sample_states(rng, samples)
    y = m.sample_states(rng, samples)
    z = m.sample_states(rng, samples)
    t = rng.uniform(0.05, 2.0, size=samples)
    s = rng.uniform(0.05, 2.0, size=samples)

    m_xy_t = m.eval_array(x, y, t)
    m_yx_t = m.eval_array(y, x, t)
    m_yz_s = m.eval_array(y, z, s)
    m_xz_ts = m.eval_array(x, z, t + s)

    checks = []

    def triple(i):
        return {"x": float(x[i]), "y": float(y[i]), "z": float(z[i]),
                "t": float(t[i]), "s": float(s[i])}

    record(checks, "positive", m_xy_t > 0.0, triple)

    diag = m.eval_array(x, x, t)
    off_diag_ok = np.where(x == y, True, m_xy_t < 1.0)
    record(checks, "identity_of_indiscernibles", (diag == 1.0) & off_diag_ok, triple)

    record(checks, "symmetric", np.abs(m_xy_t - m_yx_t) <= TOLERANCE, triple)

    rhs = m.tnorm.apply(m_xy_t, m_yz_s)
    record(checks, "triangle", m_xz_ts >= rhs - TOLERANCE, triple)

    h = 1e-7
    m_xy_th = m.eval_array(x, y, t + h)
    cont_bound = (1.0 + 1.0 / t) * h + TOLERANCE
    record(checks, "horizon_continuous", np.abs(m_xy_th - m_xy_t) <= cont_bound, triple)

    t_lo, t_hi = np.minimum(t, s), np.maximum(t, s)
    m_lo = m.eval_array(x, y, t_lo)
    m_hi = m.eval_array(x, y, t_hi)
    record(checks, "horizon_nondecreasing", m_lo <= m_hi + TOLERANCE, triple)

    return AxiomReport(subject=f"metric:{m.name}", samples=samples, seed=seed,
                       checks=tuple(checks))


# -- horizon search ----------------------------------------------------------


def uniform_horizon(m: FuzzyMetric, eps: float, resolution: float = 1e-2) -> float | None:
    """Least horizon making every grid pair closer than 1 - eps, if one exists.

    Scans the geometric ladder for a bracketing rung, then bisects down to the
    boundary; returns a horizon satisfying the strict bound, or None when even
    the largest rung fails (horizon-independent metrics with spread-out grids).

    Every metric here is monotone in the spread of a pair (|x - y|, or the
    min/max ratio), and so is its float evaluation, so the least nearness over
    the grid pairs is exactly that of the diameter pair, the only one checked.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    pts = m.grid(resolution)
    first, last = pts[0], pts[-1]
    target = 1.0 - eps

    def passes(t: float) -> bool:
        return bool(m.eval_array(first, last, t) > target)

    lo = 0.0
    hi = None
    for rung in HORIZON_LADDER:
        if passes(rung):
            hi = rung
            break
        lo = rung
    if hi is None:
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


# -- continuity certification --------------------------------------------------


@dataclass
class ContinuityCertificate:
    """Grid-verified continuity modulus: premise radius delta at horizon t_prime."""

    holds: bool
    eps: float
    t: float
    delta: float | None
    t_prime: float | None
    resolution: float
    pairs: int
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def certify_fuzzy_continuity(m: FuzzyMetric, f, eps: float, t: float,
                             resolution: float = 1e-2) -> ContinuityCertificate:
    """Search a (delta, t') modulus such that on the grid, source pairs closer
    than 1 - delta at horizon t' map to image pairs closer than 1 - eps at t.

    For each candidate t' (the requested t first, then the ladder) the maximal
    admissible delta is 1 minus the closest offending source pair; the first
    feasible candidate wins.  A failure returns the offending pair instead.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    pts = require_in_domain(f, m.grid(resolution))
    imgs = np.asarray(f.eval_array(pts), dtype=float)
    pairs = pts.size * pts.size

    image_near = m.eval_array(imgs[:, None], imgs[None, :], t)
    bad = image_near <= 1.0 - eps
    if not bad.any():
        return ContinuityCertificate(True, eps, t, eps, t, resolution, pairs)

    worst_pair = None
    for t_prime in (t, *HORIZON_LADDER):
        source_near = m.eval_array(pts[:, None], pts[None, :], t_prime)
        worst = float(source_near[bad].max())
        if worst < 1.0:
            delta = min(eps, 1.0 - worst)
            return ContinuityCertificate(True, eps, t, delta, t_prime, resolution, pairs)
        if worst_pair is None:
            flat = np.where(bad.ravel(), source_near.ravel(), -np.inf)
            i, j = np.unravel_index(int(np.argmax(flat)), bad.shape)
            worst_pair = {
                "x": float(pts[i]), "x0": float(pts[j]),
                "source_nearness": float(source_near[i, j]),
                "image_nearness": float(image_near[i, j]),
            }
    return ContinuityCertificate(False, eps, t, None, None, resolution, pairs,
                                 counterexample=worst_pair)


# -- direct modulus checks ------------------------------------------------------


@dataclass
class ModulusReport:
    """Grid sweep of a strict domination inequality between two pair statistics."""

    passed: bool
    pairs: int
    factor: float
    worst_margin: float
    worst_pair: dict

    def to_dict(self) -> dict:
        return asdict(self)


def check_ratio_modulus(f, factor: float, resolution: float = 1e-3) -> ModulusReport:
    """Verify min/max ratio of images strictly dominates factor times the
    source ratio, over the full grid-pair square; the domain of f must lie in
    the ratio space (0, 1]."""
    require_map_in_space(f, RatioFuzzyMetric())
    pts = f.grid(resolution)
    img = np.asarray(f.eval_array(pts), dtype=float)
    lhs = np.minimum.outer(img, img) / np.maximum.outer(img, img)
    rhs = np.minimum.outer(pts, pts) / np.maximum.outer(pts, pts)
    return _modulus_report(pts, lhs, rhs, factor)


def check_metric_domination(m: FuzzyMetric, g, f, factor: float, t: float,
                            resolution: float = 1e-3) -> ModulusReport:
    """Verify M(g(x), g(y), t) strictly dominates factor * M(f(x), f(y), t)
    over the full grid-pair square of f; the grid must lie in the domain of
    g, and both domains in the space of m."""
    require_map_in_space(f, m)
    require_map_in_space(g, m)
    pts = require_in_domain(g, f.grid(resolution))
    gi = np.asarray(g.eval_array(pts), dtype=float)
    fi = np.asarray(f.eval_array(pts), dtype=float)
    lhs = m.eval_array(gi[:, None], gi[None, :], t)
    rhs = m.eval_array(fi[:, None], fi[None, :], t)
    return _modulus_report(pts, lhs, rhs, factor)


def _modulus_report(pts: np.ndarray, lhs: np.ndarray, rhs: np.ndarray,
                    factor: float) -> ModulusReport:
    margin = lhs - factor * rhs
    i, j = np.unravel_index(int(np.argmin(margin)), margin.shape)
    return ModulusReport(
        passed=bool(margin[i, j] > 0.0),
        pairs=int(margin.size),
        factor=factor,
        worst_margin=float(margin[i, j]),
        worst_pair={"x": float(pts[i]), "y": float(pts[j])},
    )
