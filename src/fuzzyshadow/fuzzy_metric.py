"""Fuzzy metrics on a bounded real interval: degree-of-nearness evaluators.

Three constructions are provided, all with the product t-norm by default:

* ``standard``  -- t / (t + |x - y|) on a closed or half-open interval;
* ``ratio-phi`` -- min/max ratio damped by the horizon weight min(t, 1),
  on (0, 1]; its balls of radius 1/2 at horizon 1/2 are singletons;
* ``ratio``     -- bare min/max ratio on (0, 1], horizon-independent.

A metric evaluates M(x, y, t) in (0, 1]: 1 means indistinguishable at
horizon t, and nearness never decreases as the horizon grows.

The axioms of the three families under the three t-norms are decided from a
proof table (``check_axioms``), not sampled: ratio and ratio-phi break the
triangle under minimum, at one exact rational triple, and all else holds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .reports import AxiomCheck, AxiomReport, VerificationError
from .tnorm import TNorm

TOLERANCE = 1e-12

# spacing of the floats in [1, 2)
_ULP = Fraction(2.0**-52)
_ZERO, _ONE = Fraction(0), Fraction(1)

#: Geometric horizons 2**-20 .. 2**40, which no search here uses: kept for
#: the benchmark's horizon check and the tests' grid-reference horizon.
HORIZON_LADDER = tuple(2.0**k for k in range(-20, 41))

METRIC_NAMES = ("standard", "ratio-phi", "ratio")

#: Most points a grid may hold: 80 MB of floats, 100 times the finest grid
#: the reproduced cases use.
MAX_GRID_POINTS = 10**7


def interval_grid(lo: float, hi: float, lo_open: bool, resolution: float) -> np.ndarray:
    """Uniform grid over an interval; open lower endpoints start one step up."""
    if not resolution > 0.0:
        raise ValueError("grid resolution must be positive")
    steps = (hi - lo) / resolution
    points = steps + (not lo_open)
    if not points <= MAX_GRID_POINTS:  # an infinite count fails too
        raise ValueError(f"too many grid steps for the interval: {points:.6g} points, "
                         f"more than {MAX_GRID_POINTS}")
    steps = int(round(steps))
    if steps < 1:
        raise ValueError("resolution too coarse for the interval")
    if lo_open:
        return np.linspace(lo + resolution, hi, steps)
    return np.linspace(lo, hi, steps + 1)


def require_resolved(name: str, radius: float, least: Fraction, what: str) -> None:
    """Raise ValueError unless radius exceeds least, the narrowest radius a
    float predicate decides (``what`` says whose); the message names the
    greatest float at or below least by _float_inside, at most the largest
    float, which every accepted radius exceeds."""
    if radius <= least:
        bound = _float_inside(least.numerator << 1074, least.denominator, False, True)
        raise ValueError(f"{name} {radius!r} is too small to decide in floats: it must "
                         f"exceed {bound!r}, {what}")


def _require_finite_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _require_unit(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def require_in_domain(f, states: np.ndarray) -> np.ndarray:
    """Return states unchanged after checking that they lie in the domain of
    f; the domain is an interval, so the least and the greatest state decide."""
    for v in (states.min(), states.max()):
        if not f.contains(v):
            raise ValueError(f"state {float(v)!r} outside domain of {f.name}")
    return states


def _numerator(v: float) -> int:
    """The integer v * 2**1074, exact for every finite float."""
    n, d = v.as_integer_ratio()
    return n << (1075 - d.bit_length())


def _float_inside(n: int, unit: int, up: bool, closed: bool = False) -> float:
    """The float on or inside the bound n / (unit * 2**1074), unit > 0: the
    least float above it when up, else the greatest below, and the bound
    itself when it is a float and closed; every exact bound here becomes a
    float by this rule.  The correctly rounded quotient is stepped one float
    inward when one cross-multiplied comparison puts it outside the bound,
    or on an open one.  Past the largest float the answer is that float
    inward and an infinity outward.  It is never -0.0."""
    try:
        v = n / (unit << 1074)
    except OverflowError:  # the quotient is past the largest float
        v = math.inf if up == (n > 0) else sys.float_info.max
        return v if n > 0 else -v
    k = _numerator(v) * unit
    if (k < n if up else k > n) or (k == n and not closed):
        v = math.nextafter(v, math.inf if up else -math.inf)
    return v + 0.0


@dataclass(frozen=True)
class Interval:
    """Interval of reals with exact rational ends, each one open or closed;
    it is empty when lo > hi, or when lo == hi and an end is open."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi or (self.lo == self.hi and not (self.lo_closed and self.hi_closed))

    def __str__(self) -> str:
        return f"{'(['[self.lo_closed]}{self.lo}, {self.hi}{')]'[self.hi_closed]}"

    def floats(self) -> tuple[float, float]:
        """Its least and greatest float, by _float_inside; least > greatest when it has none."""
        lo, hi = self.lo, self.hi
        return (_float_inside(lo.numerator << 1074, lo.denominator, True, self.lo_closed),
                _float_inside(hi.numerator << 1074, hi.denominator, False, self.hi_closed))

    def __and__(self, other: "Interval") -> "Interval":
        # the greater lower end and the lesser upper end, closed where every
        # interval that has that end holds it; a tie keeps self's end
        if self.lo < other.lo:
            lo, lo_closed = other.lo, other.lo_closed
        elif other.lo < self.lo:
            lo, lo_closed = self.lo, self.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed and other.lo_closed
        if other.hi < self.hi:
            hi, hi_closed = other.hi, other.hi_closed
        elif self.hi < other.hi:
            hi, hi_closed = self.hi, self.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed and other.hi_closed
        return Interval(lo, hi, lo_closed, hi_closed)


class FuzzyMetric:
    """Base evaluator over states in a real interval.

    Subclasses implement ``_kernel`` on raw arrays; ``ball_rule(radius,
    t)``, the exact rationals (q, r) such that the open ball
    {z : M(u, z, t) > 1 - radius} of every u of the space is the interval
    (u q - r, u / q + r), or None when every such ball is {u}, the one
    place a ball is defined, which the chain steps, the validators and
    ns_set read through ``orbits._integer_ball``; ``float_slack(f, t)``, a bound, in units of
    the radius, on how far float errors in evaluating a map f (k strides of
    its base for a power map) or in rounding a state move a ball's edge;
    ``continuity_delta(f, eps, t)``, an exact radius delta such that f maps
    every pair nearer than 1 - delta at horizon t to one nearer than
    1 - eps at t, for eps in (0, 1); and ``horizon_bound(eps)``, the least
    horizon above which every pair of floats of the space, at its float
    distance, is nearer than 1 - eps, or None.  This class owns domain
    validation, grids, and seeded state sampling (for the tests).
    """

    name = "base"

    def __init__(self, tnorm: TNorm, lo: float, hi: float, lo_open: bool):
        if not lo < hi:
            raise ValueError("interval requires lo < hi")
        self.tnorm = tnorm
        self.lo, self.hi, self.lo_open = float(lo), float(hi), bool(lo_open)
        self.least = _float_inside(_numerator(self.lo), 1, True, not self.lo_open)
        self.greatest = _float_inside(_numerator(self.hi), 1, False, True)

    # -- evaluation ---------------------------------------------------------

    def eval(self, x: float, y: float, t: float) -> float:
        """M(x, y, t) for validated scalar states and horizon t > 0."""
        self._require_state(x)
        self._require_state(y)
        _require_finite_positive("horizon", t)
        return float(self._kernel(np.asarray(x, float), np.asarray(y, float), t))

    def eval_array(self, x, y, t):
        """Broadcast evaluation (including the horizon); states are assumed
        to lie in the space."""
        t = np.asarray(t, dtype=float)
        # the method skips np.any's dispatch, which costs more than a small
        # kernel call
        if not (t > 0.0).all():
            raise ValueError("horizons must be positive")
        return self._kernel(np.asarray(x, float), np.asarray(y, float), t)

    def _kernel(self, x, y, t):  # pragma: no cover - overridden
        raise NotImplementedError

    # -- domain helpers -----------------------------------------------------

    def contains(self, x: float) -> bool:
        return self.least <= x <= self.greatest

    def _require_state(self, x: float) -> None:
        if not self.contains(x):
            raise ValueError(f"state {x!r} outside {self.describe_space()}")

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

    def ball_rule(self, radius: float, t: float) -> tuple[Fraction, Fraction]:
        # t/(t + d) > 1 - radius  iff  d < t*radius/(1 - radius), the bridge
        # threshold; one Fraction built from integer ratios, as in float_slack
        (n, d), (tn, td) = radius.as_integer_ratio(), t.as_integer_ratio()
        return _ONE, Fraction(tn * n, td * (d - n))

    def float_slack(self, f, t: float) -> Fraction:
        # a state error e moves t/(t + d) by less than e/t; evaluating f, or
        # rounding its argument to a float, errs by under 2 ulp(1) eval_scale,
        # max(|slope * x| + |intercept| + |x|) (compounded for a power map);
        # 2**-51 scale / t is one Fraction of integer ratios, a few times
        # cheaper than Fraction arithmetic
        (n, d), (tn, td) = f.eval_scale.as_integer_ratio(), t.as_integer_ratio()
        return Fraction(n * td, d * tn << 51)

    def continuity_delta(self, f, eps: Fraction, t: float) -> Fraction:
        # |f(x) - f(y)| <= L|x - y| with L the largest |slope|, and a pair is
        # near at radius r iff |x - y| < t*r/(1 - r): L*d/(1 - d) = e/(1 - e)
        return eps / (eps + f.lipschitz * (1 - eps))

    def horizon_bound(self, eps: Fraction) -> Fraction | None:
        # rounding is monotone, so no two floats of the space are farther
        # apart in floats than d = fl(greatest - least), and t/(t + d) >
        # 1 - eps iff t > d(1 - eps)/eps; the kernel forms t + d = d/eps,
        # which must stay a float with room to spare (half the largest)
        d = self.greatest - self.least
        if not d / float(eps) < 2.0**1023:
            return None
        return Fraction(d) * (1 - eps) / eps


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

    def ball_rule(self, radius: float, t: float) -> tuple[Fraction, Fraction] | None:
        # a distinct z is near u > 0 iff min/max > q, i.e. u*q < z < u/q; with
        # q >= 1 no distinct point is near, so every ball is a singleton.
        # q = (1 - radius) / min(t, 1), or 1 - radius undamped, is one
        # Fraction of integer ratios
        n, d = radius.as_integer_ratio()
        if self.damped and t < 1:
            tn, td = t.as_integer_ratio()
            q = Fraction((d - n) * td, d * tn)
        else:
            q = Fraction(d - n, d)
        return None if q >= 1 else (q, _ZERO)

    def float_slack(self, f, t: float) -> Fraction:
        # a state's relative error e moves min/max by a factor within 1 +- 2e;
        # evaluating f at a normal float, or rounding its argument to one, errs
        # relatively by under ulp(1) (cond + 1), cond = relative_eval_scale (max
        # (|slope| x + |intercept|) / f(x), compounded for a power map): 2**-50 (cond + 1)
        n, d = f.relative_eval_scale.as_integer_ratio()
        return Fraction(n + d, d << 50)

    def continuity_delta(self, f, eps: Fraction, t: float) -> Fraction:
        # distinct points are near at radius r iff phi*min/max > 1 - r; with
        # phi <= 1 - eps no distinct pair is near at radius eps, images or not
        phi = min(Fraction(t), 1) if self.damped else 1
        if phi <= 1 - eps:
            return eps
        # log f is K-Lipschitz in log x, so the images' min/max is at least
        # r**K for sources at r, and r**K >= 1 - K(1 - r) for K >= 1
        # (Bernoulli), r**K >= r for K <= 1
        return (phi - 1 + eps) / max(f.log_lipschitz, 1) + 1 - phi

    def horizon_bound(self, eps: Fraction) -> None:
        # (0, 1] holds the floats 5e-324 and 1, and distinct points have
        # M <= min/max, so no horizon makes every pair near
        return None


class RatioPhiFuzzyMetric(_RatioBase):
    """min/max ratio scaled by min(t, 1); distinct points are never closer
    than the horizon weight allows, so small-horizon balls are singletons."""

    name = "ratio-phi"
    damped = True


class RatioFuzzyMetric(_RatioBase):
    """Bare min/max ratio; the horizon plays no role."""

    name = "ratio"


def metric_from_name(name: str, tnorm: TNorm | None = None) -> FuzzyMetric:
    """Build a metric by CLI name, on its default space."""
    if name == "standard":
        return StandardFuzzyMetric(tnorm)
    if name == "ratio-phi":
        return RatioPhiFuzzyMetric(tnorm)
    if name == "ratio":
        return RatioFuzzyMetric(tnorm)
    raise ValueError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")


def require_map_in_space(f, m: FuzzyMetric) -> None:
    """Check that the floats of the domain of f lie inside the space of m, so
    that no state the map reaches falls outside the metric (0 under a ratio
    metric, say); both are intervals, so their least and greatest floats
    decide."""
    if not (m.least <= f.least and f.greatest <= m.greatest):
        raise ValueError(f"domain of {f.name} is not inside the {m.name} "
                         f"space {m.describe_space()}")


def bridge_threshold(delta: float, t0: float) -> float:
    """Classical distance threshold equivalent to a standard-metric bound.

    t0/(t0+d) > 1-delta  iff  d < t0*delta/(1-delta).  Both validators are
    exact, so fuzzy ones at (delta, t0) and classical ones at this float agree
    unless a distance lies between the threshold and its float.
    """
    _require_unit("delta", delta)
    return t0 * delta / (1.0 - delta)


#: The standard metric on the whole float line, whose open ball of radius
#: 1/2 at horizon eps is the classical ball d < eps.
CLASSICAL = StandardFuzzyMetric(lo=-sys.float_info.max, hi=sys.float_info.max)


# -- balls -------------------------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """Fuzzy ball: states y with M(center, y, t) above 1 - radius."""

    center: float
    radius: float
    t: float

    def __post_init__(self):
        _require_unit("ball radius", self.radius)
        _require_finite_positive("ball horizon", self.t)


def ball_members(m: FuzzyMetric, ball: Ball, ys: np.ndarray) -> np.ndarray:
    """Exact membership mask: balls are open, so the comparison is strict."""
    values = m.eval_array(np.asarray(ball.center, float), np.asarray(ys, float), ball.t)
    return values > 1.0 - ball.radius


# -- axiom proof table ---------------------------------------------------------

_BELOW_PRODUCT = "max(u + v - 1, 0) <= uv, so the product triangle gives it"
_RATIO_PROOFS = {  # phi is min(t, 1) under ratio-phi and 1 under ratio
    "positive": "x, y > 0 give phi min/max > 0",
    "identity_of_indiscernibles": "M = 1 on the diagonal and M <= min/max < 1 off it",
    "symmetric": "min/max is symmetric",
    "triangle": {"product": "phi(t + s) >= phi(t) phi(s), and r = min/max has r(x, z) >= "
                            "r(x, y) r(y, z): the triangle inequality for |log x - log z|",
                 "minimum": None, "lukasiewicz": _BELOW_PRODUCT},
    "horizon_continuous": "phi is 1-Lipschitz in t",
    "horizon_nondecreasing": "phi is nondecreasing in t",
}
#: Per metric class, each axiom's one-line proof; the triangle's depends on
#: the t-norm, and None marks one refuted at _TRIANGLE_COUNTEREXAMPLE.
_AXIOM_PROOFS = {
    StandardFuzzyMetric: {
        "positive": "t > 0 and d = |x - y| finite give t/(t + d) > 0",
        "identity_of_indiscernibles": "t/(t + d) = 1 iff d = 0 iff x = y",
        "symmetric": "|x - y| = |y - x|",
        "triangle": {  # a = d(x, y) and b = d(y, z), so d(x, z) <= a + b
            "product": "(t+s)(t+a)(s+b) - ts(t+s+a+b) = t^2 b + tab + as^2 + sab >= 0",
            "minimum": "the mediant inequality (a + b)/(t + s) <= max(a/t, b/s)",
            "lukasiewicz": _BELOW_PRODUCT},
        "horizon_continuous": "t/(t + d) has slope d/(t + d)^2 <= 1/(4t) in t",
        "horizon_nondecreasing": "the slope d/(t + d)^2 is >= 0",
    },
    RatioPhiFuzzyMetric: _RATIO_PROOFS,
    RatioFuzzyMetric: _RATIO_PROOFS,
}
_TRIANGLE_COUNTEREXAMPLE = {"x": 0.25, "y": 0.5, "z": 1.0, "t": 1.0, "s": 1.0}


def check_axioms(m: FuzzyMetric) -> AxiomReport:
    """The six axiom checks, decided from the proof table: positivity,
    nearness 1 exactly on the diagonal, symmetry, the triangle
    M(x, z, t + s) >= T(M(x, y, t), M(y, z, s)), and continuity and
    monotonicity in t.  With a = d(x, y) and b = d(y, z), the triangle
    under product is (t+s)(t+a)(s+b) - ts(t+s+a+b) = t^2 b + tab + as^2 +
    sab >= 0 (standard), or the triangle inequality for |log x - log z|
    (ratio), with min(t + s, 1) >= min(t, 1) min(s, 1) (ratio-phi); under
    minimum the mediant inequality (a + b)/(t + s) <= max(a/t, b/s)
    (standard); under Lukasiewicz, which lies below product, the product
    one.  Ratio and ratio-phi fail it under minimum at x, y, z = 1/4, 1/2,
    1 and t = s = 1, where M(x, z, 2) = 1/4 < 1/2; that is evaluated in
    Fraction and in the float kernel, and VerificationError is raised
    unless both fail.  A metric or t-norm class outside the table raises
    ValueError.
    """
    proofs = _AXIOM_PROOFS.get(type(m))
    if proofs is None or type(m.tnorm) is not TNorm:
        raise ValueError(f"no axiom proofs for {type(m).__name__} under {type(m.tnorm).__name__}")
    checks = []
    for name, proof in proofs.items():
        if isinstance(proof, dict):
            proof = proof[m.tnorm.kind]
        checks.append(AxiomCheck(name, True, proof=proof) if proof
                      else AxiomCheck(name, False, _triangle_counterexample(m)))
    return AxiomReport(subject=f"metric:{m.name}", checks=tuple(checks))


def _triangle_counterexample(m: _RatioBase) -> dict:
    w = _TRIANGLE_COUNTEREXAMPLE
    x, y, z, t, s = (Fraction(w[k]) for k in "xyzts")

    def exact(u, v, h):  # u != v
        return (min(h, 1) if m.damped else 1) * min(u, v) / max(u, v)

    lhs, rhs = exact(x, z, t + s), min(exact(x, y, t), exact(y, z, s))
    float_lhs = m.eval(w["x"], w["z"], w["t"] + w["s"])
    float_rhs = m.tnorm.apply(m.eval(w["x"], w["y"], w["t"]), m.eval(w["y"], w["z"], w["s"]))
    if not (lhs < rhs and float_lhs < float_rhs - TOLERANCE):
        raise VerificationError(f"triangle counterexample not confirmed: exact {lhs} < {rhs}, "
                                f"float {float_lhs!r} < {float_rhs!r}")
    return {**w, "lhs": str(lhs), "rhs": str(rhs)}


# -- uniform horizon -----------------------------------------------------------


def uniform_horizon(m: FuzzyMetric, eps: float, resolution: float = 1e-2) -> float | None:
    """A horizon at which the float kernel puts every pair of floats of the
    space of m above 1 - eps, in closed form (see ``horizon_bound``): under
    the standard metric d (1 - eps) / eps, with d = fl(hi - least) and least
    the least float of the space; under the ratio metrics None.

    It is float-safe: the bound is taken at e = eps less 4 ulp(1) and
    rounded up to t, so t/(t + d) >= 1 - e.  The kernel rounds t + d and the
    quotient, each by a relative 2**-53, so it gives at least
    (1 - e)(1 - 2**-52) > 1 - eps + 2**-52, above fl(1 - eps); every other
    pair is nearer, as the kernel is monotone in the distance.  So t exceeds
    d (1 - eps) / eps by a relative 4 ulp(1) / (e (1 - eps)), besides the
    rounding up.  None also when e <= 0, when the space is too wide, or when
    it holds one float.
    ``resolution`` is unused: perfbench/ passes grids there.
    """
    _require_unit("eps", eps)
    e = Fraction(eps) - 4 * _ULP
    bound = m.horizon_bound(e) if e > 0 else None
    if not bound:  # None, or 0 on a space of one float
        return None
    return _float_inside(bound.numerator << 1074, bound.denominator, True, True)


# -- continuity certification --------------------------------------------------


@dataclass
class ContinuityCertificate:
    """Continuity modulus on the whole domain: when holds, every pair x, y of
    the domain with M(x, y, t_prime) > 1 - delta maps to a pair with
    M(f(x), f(y), t) > 1 - eps, in exact arithmetic and in float evaluation
    alike; t_prime is t."""

    holds: bool
    eps: float
    t: float
    delta: float | None
    t_prime: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def certify_fuzzy_continuity(m: FuzzyMetric, f, eps: float, t: float,
                             resolution: float = 1e-2) -> ContinuityCertificate:
    """A premise radius delta at horizon t for the image radius eps at t, in
    closed form from one exact constant of the piecewise-linear map f (see
    ``continuity_delta``): L = max |slope| under the standard metric,
    delta = eps / (eps + L (1 - eps)); under the ratio metrics, with
    phi = min(t, 1) (ratio-phi) or 1 (ratio) and K = max |slope| x / f(x),
    delta = eps when phi <= 1 - eps, else
    (phi - 1 + eps) / max(K, 1) + 1 - phi.  delta is capped at eps.

    It is float-safe: the formula is applied to eps less 4 ulp(1) and twice
    the metric's float slack, which cover rounding the image kernel and
    1 - eps and evaluating f at both points of a pair, and the result is
    lowered by 4 ulp(1), which covers rounding the source kernel, 1 - delta
    and delta; the source states are floats, so they carry no error of
    their own.  holds is False only when that leaves no positive delta, at
    horizons so small that float errors in f swamp eps.
    ``resolution`` is unused: perfbench/ passes grids there.
    """
    _require_unit("eps", eps)
    _require_finite_positive("horizon", t)
    require_map_in_space(f, m)
    inner = Fraction(eps) - 4 * _ULP - 2 * m.float_slack(f, t)
    delta = min(eps, float(m.continuity_delta(f, inner, t) - 4 * _ULP)) if inner > 0 else 0.0
    holds = delta > 0.0
    return ContinuityCertificate(holds, eps, t, delta if holds else None, t if holds else None)


# -- direct modulus checks ------------------------------------------------------

# margin entries a row block of the modulus scan holds at once
_BLOCK_POINTS = 2**18


@dataclass
class ModulusReport:
    """A strict domination inequality between two pair statistics over all
    ``pairs`` = N x N grid pairs: ``worst_margin`` is the least margin and
    ``worst_pair`` its row-major first pair, as the full scan gives them,
    though only the rows that may hold the least margin are scanned (see
    ``_modulus_report``)."""

    passed: bool
    pairs: int
    factor: float
    worst_margin: float
    worst_pair: dict

    def to_dict(self) -> dict:
        return asdict(self)


def check_ratio_modulus(f, factor: float, resolution: float = 1e-3) -> ModulusReport:
    """Verify min/max ratio of images strictly dominates factor times the
    source ratio on every grid pair (see ``_modulus_report`` for which pairs
    are evaluated); the domain of f must lie in the ratio space (0, 1]."""
    _require_finite_positive("factor", factor)
    m = RatioFuzzyMetric()
    require_map_in_space(f, m)
    pts = f.grid(resolution)
    return _modulus_report(m, 1.0, factor, pts, (f.eval_array(pts), f), (pts, None))


def check_metric_domination(m: FuzzyMetric, g, f, factor: float, t: float,
                            resolution: float = 1e-3) -> ModulusReport:
    """Verify M(g(x), g(y), t) strictly dominates factor * M(f(x), f(y), t)
    on every pair of the grid of f (see ``_modulus_report`` for which pairs
    are evaluated); the grid must lie in the domain of g, and both domains
    in the space of m."""
    _require_finite_positive("factor", factor)
    _require_finite_positive("horizon", t)
    require_map_in_space(f, m)
    require_map_in_space(g, m)
    pts = require_in_domain(g, f.grid(resolution))
    return _modulus_report(m, t, factor, pts, (g.eval_array(pts), g), (f.eval_array(pts), f))


def _modulus_report(m: FuzzyMetric, t: float, factor: float, pts: np.ndarray,
                    upper: tuple, lower: tuple) -> ModulusReport:
    """Least margin M(u_i, u_j, t) - factor * M(v_i, v_j, t) over all grid
    pairs, for the states ``upper = (u, map)`` and ``lower = (v, map)``; a
    map of None is the identity.

    The margin is bitwise symmetric, so its minimum is the least over the
    rows j and columns i <= j, and the row-major first minimiser of the full
    square is the least (i, j) among them.  Rows are scanned in blocks of at
    most _BLOCK_POINTS entries; ``_margin_lower_bounds`` leaves out the rows
    whose every margin provably exceeds a margin already evaluated, which
    therefore hold no minimiser.
    """
    (u, _), (v, _) = upper, lower
    n = pts.size

    def margins(rows, cols):
        return m.eval_array(u[rows], u[cols], t) - factor * m.eval_array(v[rows], v[cols], t)

    rows = np.arange(n)
    bounds = _margin_lower_bounds(m, pts, upper, lower, factor, margins)
    if bounds is not None:
        lowest, least = bounds
        rows = rows[lowest <= least]
    values, firsts = np.empty(rows.size), np.empty(rows.size, dtype=int)
    block = max(1, _BLOCK_POINTS // n)
    for start in range(0, rows.size, block):
        rj = rows[start:start + block, None]
        cols = np.arange(rj[-1, 0] + 1)
        margin = margins(rj, cols)
        margin[cols > rj] = np.inf
        first = np.argmin(margin, axis=1)
        firsts[start:start + block] = first
        values[start:start + block] = margin[np.arange(first.size), first]
    worst = values.min()
    tied = np.flatnonzero(values == worst)
    k = tied[np.argmin(firsts[tied])]
    return ModulusReport(
        passed=bool(worst > 0.0),
        pairs=n * n,
        factor=factor,
        worst_margin=float(worst),
        worst_pair={"x": float(pts[firsts[k]]), "y": float(pts[rows[k]])},
    )


def _margin_lower_bounds(m, pts, upper, lower, factor, margins):
    """Per-row lower bounds on the margins of columns i <= j, and the least
    margin evaluated to get them; None when no bound is known.

    With a min/max ratio kernel and positive nondecreasing states u, row j
    pairs column i with M = 1 where u_i == u_j and with
    M = phi * fl(u_i / u_j) elsewhere, phi = min(t, 1) or 1; while the map
    keeps one piece, that is affine in x_i up to float error, and so is the
    margin.  So a row's columns split into runs at the piece changes of
    either map and at the first column tied with the row, and on each run
    the least margin is within 2E of the least at the run's two ends.

    E bounds the float error of a margin against that affine function.  Let
    e = 2**-53 be the unit roundoff and S >= |slope * x| + |intercept| over
    a map's pieces (0 for the identity, which is exact).  Evaluating the map
    errs by under 3eS, so fl(u_i / u_j) <= 1 errs by under e + 3eS/u_j and
    phi times it by under 2e + 3eS/u_j; factor * M adds e * factor and the
    subtraction e * (1 + factor).  In all, for states u over v,
        E <= e * (3 + 4 * factor + 3 * S_u / u_j + 3 * factor * S_v / v_j),
    and the E below is twice that (8e = 4 * _ULP), which also covers
    rounding E and the bound.  A loose E only means more rows are scanned.
    """
    if not isinstance(m, _RatioBase):
        return None
    n = pts.size
    pieces, splits, scales = [], [], []
    for states, f in (upper, lower):
        if not (states[0] > 0.0 and np.all(np.diff(states) >= 0.0)):
            return None
        if f is None:
            pieces.append(np.zeros(n, dtype=int))
            scales.append(0.0)
        elif hasattr(f, "piece_index"):
            pieces.append(f.piece_index(pts))
            scales.append(float(max(abs(p.slope * x) + abs(p.intercept)
                                    for p in f.pieces for x in (p.lo, p.hi))))
        else:
            return None
        # first column tied with each row: the states are sorted
        splits.append(np.searchsorted(states, states, side="left"))
    changes = np.flatnonzero((np.diff(pieces[0]) != 0) | (np.diff(pieces[1]) != 0)) + 1
    # each row's run ends: column 0, the row itself, and both sides of every
    # run start, evaluated a block of rows at a time
    lowest = np.empty(n)
    block = max(1, _BLOCK_POINTS // (2 * changes.size + 6))
    for start in range(0, n, block):
        j = np.arange(start, min(n, start + block))[:, None]
        starts = np.column_stack([*(split[j[:, 0]] for split in splits),
                                  np.broadcast_to(changes, (j.size, changes.size))])
        cols = np.clip(np.column_stack([0 * j, j, starts - 1, starts]), 0, j)
        lowest[start:start + block] = margins(j, cols).min(axis=1)
    (u, _), (v, _) = upper, lower
    error = 4 * float(_ULP) * (1 + factor) * (1 + scales[0] / u + scales[1] / v)
    return lowest - 2 * error, lowest.min()
