import math
import struct
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fuzzyshadow import fuzzy_metric as fm
from fuzzyshadow import tnorm
from fuzzyshadow.reports import VerificationError
from fuzzyshadow.systems import (IntervalMap, IteratedMap, Piece, example43_map,
                                 perturbation_g, tent)
from fuzzyshadow.tnorm import TNorm
from exact_reference import ball_union, point, reference_contains


def test_eval_examples(standard_metric, ratio_phi_metric, ratio_metric):
    assert standard_metric.eval(0.0, 0.5, 1.0) == pytest.approx(2.0 / 3.0)
    assert ratio_phi_metric.eval(0.25, 0.5, 0.5) == pytest.approx(0.25)
    for x in (0.1, 0.5, 1.0):
        for t in (0.2, 1.0, 7.0):
            assert ratio_metric.eval(x, x, t) == 1.0


def test_eval_domain_errors(standard_metric, ratio_metric):
    with pytest.raises(ValueError):
        standard_metric.eval(0.2, 0.3, 0.0)
    # inf / (inf + d) is nan, and a nan horizon gives nan nearness
    with pytest.raises(ValueError, match="horizon must be finite and positive"):
        standard_metric.eval(0.1, 0.2, math.inf)
    with pytest.raises(ValueError, match="horizons must be positive"):
        standard_metric.eval_array(0.1, 0.2, [1.0, math.nan])
    with pytest.raises(ValueError):
        standard_metric.eval(1.5, 0.3, 1.0)
    with pytest.raises(ValueError):
        ratio_metric.eval(0.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        ratio_metric.eval(-0.2, 0.3, 1.0)


def test_metric_from_name():
    assert fm.metric_from_name("standard").name == "standard"
    assert fm.metric_from_name("ratio-phi").name == "ratio-phi"
    assert fm.metric_from_name("ratio").name == "ratio"
    with pytest.raises(ValueError):
        fm.metric_from_name("euclid")


@pytest.mark.parametrize("name", fm.METRIC_NAMES)
def test_axiom_suite_passes(name):
    report = fm.check_axioms(fm.metric_from_name(name))
    assert report.all_passed, report.failing()


def test_broken_metric_fails_triangle():
    # the ratio construction needs the product t-norm; the minimum t-norm
    # demands more than multiplicative ratios can deliver
    broken = fm.RatioFuzzyMetric(TNorm("minimum"))
    report = fm.check_axioms(broken)
    assert not report.all_passed
    assert "triangle" in report.failing()
    failing = [c for c in report.checks if c.name == "triangle"][0]
    w = failing.counterexample
    assert w is not None
    lhs = broken.eval(w["x"], w["z"], w["t"] + w["s"])
    rhs = min(broken.eval(w["x"], w["y"], w["t"]), broken.eval(w["y"], w["z"], w["s"]))
    assert lhs < rhs


def _float_checks(m, x, y, z, t, s):
    """The sampled harness's float predicates for each axiom of the table."""
    m_xy_t = m.eval_array(x, y, t)
    h = 1e-7
    return {
        "positive": m_xy_t > 0.0,
        # the standard kernel gives 1.0 for floats much nearer than t ulp,
        # such as 0.5 and its neighbour at t = 2; uniform draws never are
        "identity_of_indiscernibles": (m.eval_array(x, x, t) == 1.0)
        & np.where(x == y, True, m_xy_t < 1.0),
        "symmetric": np.abs(m_xy_t - m.eval_array(y, x, t)) <= fm.TOLERANCE,
        "triangle": m.eval_array(x, z, t + s)
        >= m.tnorm.apply(m_xy_t, m.eval_array(y, z, s)) - fm.TOLERANCE,
        "horizon_continuous": np.abs(m.eval_array(x, y, t + h) - m_xy_t)
        <= (1.0 + 1.0 / t) * h + fm.TOLERANCE,
        "horizon_nondecreasing": m.eval_array(x, y, np.minimum(t, s))
        <= m.eval_array(x, y, np.maximum(t, s)) + fm.TOLERANCE,
    }


@given(name=st.sampled_from(fm.METRIC_NAMES), kind=st.sampled_from(tnorm.KINDS),
       seed=st.integers(0, 2**32 - 1))
def test_float_kernels_agree_with_the_proof_table(name, kind, seed):
    # the draw ranges of the sampled harness: states of the space, t and s
    # in [0.05, 2]
    m = fm.metric_from_name(name, TNorm(kind))
    rng = np.random.default_rng(seed)
    x, y, z = (m.sample_states(rng, 1000) for _ in range(3))
    t, s = rng.uniform(0.05, 2.0, size=(2, 1000))
    floats = _float_checks(m, x, y, z, t, s)
    checks = fm.check_axioms(m).checks
    assert [c.name for c in checks] == list(floats)
    for check in checks:
        if check.passed:
            assert check.proof and floats[check.name].all(), check.name


def test_check_axioms_rejects_classes_outside_the_table():
    class Shifted(fm.StandardFuzzyMetric):
        pass

    class Drastic(TNorm):
        pass

    with pytest.raises(ValueError, match="no axiom proofs for Shifted under TNorm"):
        fm.check_axioms(Shifted())
    with pytest.raises(ValueError, match="no axiom proofs for StandardFuzzyMetric under Drastic"):
        fm.check_axioms(fm.StandardFuzzyMetric(Drastic("product")))


def test_a_counterexample_the_float_kernel_misses_raises(monkeypatch):
    # exact arithmetic refutes the triangle, so a float kernel that passes
    # it is a fault, never a pass
    monkeypatch.setattr(fm.RatioFuzzyMetric, "_kernel", lambda self, x, y, t: np.ones(np.shape(x)))
    with pytest.raises(VerificationError, match="triangle counterexample not confirmed"):
        fm.check_axioms(fm.RatioFuzzyMetric(TNorm("minimum")))


def test_horizon_monotonicity_bulk(standard_metric, ratio_phi_metric):
    rng = np.random.default_rng(5)
    for m in (standard_metric, ratio_phi_metric):
        x = m.sample_states(rng, 10_000)
        y = m.sample_states(rng, 10_000)
        t1 = rng.uniform(0.01, 3.0, size=10_000)
        t2 = t1 + rng.uniform(0.0, 3.0, size=10_000)
        assert np.all(m.eval_array(x, y, t1) <= m.eval_array(x, y, t2) + 1e-12)


def test_ratio_phi_discreteness(ratio_phi_metric):
    rng = np.random.default_rng(9)
    x = ratio_phi_metric.sample_states(rng, 1_000)
    y = ratio_phi_metric.sample_states(rng, 1_000)
    distinct = x != y
    vals = ratio_phi_metric.eval_array(x[distinct], y[distinct], 0.5)
    assert np.all(vals <= 0.5)
    ball = fm.Ball(float(x[0]), 0.5, 0.5)
    others = y[:50][y[:50] != ball.center]
    assert not fm.ball_members(ratio_phi_metric, ball, others).any()


def test_ball_membership_cases(standard_metric):
    ball = fm.Ball(0.5, 0.1, 1.0)
    assert fm.ball_members(standard_metric, ball, 0.5)
    assert fm.ball_members(standard_metric, ball, 0.6)
    assert fm.ball_members(standard_metric, ball, 0.59)
    # nearness at 0.5 + 1/9 evaluates to 0.8999999999999999, not above 1 - r
    assert not fm.ball_members(standard_metric, ball, 0.5 + 1.0 / 9.0)
    # exact boundary: M(0, 1, 1) = 0.5, excluded from the open ball
    assert not fm.ball_members(standard_metric, fm.Ball(0.0, 0.5, 1.0), 1.0)


def test_ball_validation():
    with pytest.raises(ValueError):
        fm.Ball(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        fm.Ball(0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="ball horizon must be finite and positive"):
        fm.Ball(0.2, 0.1, math.inf)


def test_uniform_horizon_standard(standard_metric):
    # solve t/(t + diameter) = 1 - eps: t = 9 for eps = 0.1, t = 1 for eps = 0.5
    t_01 = fm.uniform_horizon(standard_metric, 0.1)
    assert t_01 == pytest.approx(9.0, abs=1e-6)
    assert np.min(standard_metric.eval_array(0.0, 1.0, t_01)) > 0.9
    t_05 = fm.uniform_horizon(standard_metric, 0.5)
    assert t_05 == pytest.approx(1.0, abs=1e-6)


def test_uniform_horizon_covers_the_whole_space():
    # the diameter 1 of (0, 1] is not attained, but in floats the pair
    # (5e-324, 1) is as far apart as 0 and 1, so the horizon at eps 1/5 is
    # at least 4, and pairs that a grid leaves out, such as (1e-9, 1), are
    # near too
    m = fm.StandardFuzzyMetric(lo_open=True)
    t = fm.uniform_horizon(m, 0.2)
    assert 4.0 <= t <= 4.0 * (1 + 1e-12)
    assert t == fm.uniform_horizon(fm.StandardFuzzyMetric(), 0.2)
    assert m.eval(5e-324, 1.0, t) > 0.8 and m.eval(1e-9, 1.0, t) > 0.8


@st.composite
def _standard_spaces(draw):
    lo = draw(st.floats(-3.0, 1.0))
    hi = lo + draw(st.floats(0.25, 4.0))
    return fm.StandardFuzzyMetric(lo=lo, hi=hi, lo_open=draw(st.booleans()))


@given(m=_standard_spaces(), eps=st.floats(1e-12, 0.995), seed=st.integers(0, 2**32 - 1))
def test_uniform_horizon_is_float_safe_on_the_whole_space(m, eps, seed):
    t = fm.uniform_horizon(m, eps)
    least = math.nextafter(m.lo, math.inf) if m.lo_open else m.lo
    # the extreme float pair, and random pairs of the space
    rng = np.random.default_rng(seed)
    xs = np.concatenate([[least], m.sample_states(rng, 50)])
    ys = np.concatenate([[m.hi], m.sample_states(rng, 50)])
    assert np.all(m.eval_array(xs, ys, t) > 1.0 - eps)
    # at or above the exact bound, by at most the margin's relative slack
    # 4 ulp(1) / (e (1 - eps)) and the rounding up
    ulp, eps = Fraction(2.0**-52), Fraction(eps)
    d, e = Fraction(m.hi - least), eps - 4 * ulp
    exact = d * (1 - eps) / eps
    assert exact <= t <= exact * (1 + 4 * ulp / (e * (1 - eps))) * (1 + ulp)


def test_grid_point_count_is_capped(tent2):
    # 1e12 points, which numpy would refuse to allocate at once
    with pytest.raises(ValueError, match=r"1e\+12 points, more than 10000000"):
        tent2.grid(1e-12)


@pytest.mark.parametrize("lo, hi, resolution", [
    (-1e308, 1e308, 0.1),  # hi - lo overflows
    (0.0, 1e300, 1e-10),  # the step count overflows
])
def test_grid_step_count_must_be_finite(lo, hi, resolution):
    metric = fm.StandardFuzzyMetric(lo=lo, hi=hi)
    with pytest.raises(ValueError, match="too many grid steps"):
        metric.grid(resolution)


@pytest.mark.parametrize("lo, hi, eps", [
    (-1e308, 1e308, 0.1),  # hi - lo overflows
    (0.0, 1e308, 0.5),  # t + (hi - lo) overflows in the kernel
    (0.0, 1.0, 4 * 2.0**-52),  # nothing is left of eps after the margin
])
def test_uniform_horizon_none_when_no_float_horizon(lo, hi, eps):
    assert fm.uniform_horizon(fm.StandardFuzzyMetric(lo=lo, hi=hi), eps) is None


def test_uniform_horizon_rounds_up():
    # d(1 - e)/e is just above 5e-324 here; its nearest float, 5e-324, would
    # put the pair at exactly 1/2
    m = fm.StandardFuzzyMetric(lo=0.0, hi=5e-324)
    t = fm.uniform_horizon(m, 0.5)
    assert t == 1e-323 and m.eval(0.0, 5e-324, t) > 0.5


def test_uniform_horizon_ratio_none(ratio_metric, ratio_phi_metric):
    # at eps 0.995 the pair (0.01, 1) is near at every horizon, but the
    # pair (5e-324, 1) is near at none
    for eps in (0.1, 0.995):
        assert fm.uniform_horizon(ratio_metric, eps) is None
        assert fm.uniform_horizon(ratio_phi_metric, eps) is None


def test_bridge_threshold_matches_predicate(standard_metric):
    # the standard-metric bound and the classical distance bound pick out the
    # same pairs, checked over an exhaustive value/parameter lattice
    xs = np.linspace(0.0, 1.0, 101)
    for delta in (0.05, 0.3, 0.7):
        for t0 in (0.5, 1.0, 9.0):
            thr = fm.bridge_threshold(delta, t0)
            fuzzy = standard_metric.eval_array(xs[:, None], xs[None, :], t0) > 1 - delta
            classical = np.abs(xs[:, None] - xs[None, :]) < thr
            assert np.array_equal(fuzzy, classical)


@given(
    delta=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    t0=st.floats(min_value=1e-3, max_value=100.0),
    d=st.floats(min_value=0.0, max_value=1.0),
)
def test_bridge_threshold_pointwise(delta, t0, d):
    thr = fm.bridge_threshold(delta, t0)
    lhs = t0 / (t0 + d) > 1 - delta
    # guard the float boundary: the two predicates are equivalent in exact
    # arithmetic, so only compare off the knife edge
    if abs(d - thr) > 1e-12 * max(1.0, thr):
        assert lhs == (d < thr)


def _exactly_near(m, u, z, radius, t) -> bool:
    """M(u, z, t) > 1 - radius in exact arithmetic on the float inputs."""
    u, z, radius, t = map(Fraction, (u, z, radius, t))
    if m.name == "standard":
        value = t / (t + abs(u - z))
    elif u == z:
        value = Fraction(1)
    else:
        value = min(u, z) / max(u, z) * (min(t, 1) if m.name == "ratio-phi" else 1)
    return value > 1 - radius


@given(name=st.sampled_from(fm.METRIC_NAMES), u=st.floats(1e-3, 1.0),
       radius=st.floats(1e-3, 0.999), t=st.floats(0.01, 4.0))
def test_ball_rule_matches_exact_predicate(name, u, radius, t):
    m = (fm.StandardFuzzyMetric(lo=-4.0, hi=5.0) if name == "standard"
         else fm.metric_from_name(name))
    ball = ball_union(m, point(u), radius, t)
    zs = [u]
    for end in (ball.lo, ball.hi):
        e = float(end)
        zs += [np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)]
    for z in zs:
        if m.contains(z):
            assert reference_contains(ball, z) == _exactly_near(m, u, z, radius, t)


def test_certify_identity(standard_metric):
    identity = IntervalMap([Piece(Fraction(0), Fraction(1), Fraction(1), Fraction(0))],
                           name="identity")
    cert = fm.certify_fuzzy_continuity(standard_metric, identity, eps=0.3, t=1.0)
    assert cert.holds
    assert cert.delta == pytest.approx(0.3)
    assert cert.t_prime == 1.0


@pytest.mark.parametrize("f", [tent(2.0), tent(math.sqrt(2)), tent(1.6), example43_map(),
                               perturbation_g(1 / 256)], ids=lambda f: f.name)
def test_map_constants_are_exact_piece_end_maxima_kept_once(f):
    ends = [(p, x) for p in f.pieces for x in (p.lo, p.hi)]
    positive = [(p, x) for p, x in ends if p.value(x) > 0]
    want = {
        "lipschitz": max(abs(p.slope) for p in f.pieces),
        "log_lipschitz": max(abs(p.slope) * x / p.value(x) for p, x in positive),
        "eval_scale": max(abs(p.slope * x) + abs(p.intercept) + abs(x) for p, x in ends),
        "relative_eval_scale": max((abs(p.slope) * x + abs(p.intercept)) / p.value(x)
                                   for p, x in positive),
    }
    for name, value in want.items():
        got = getattr(f, name)
        assert type(got) is Fraction and got == value
        assert getattr(f, name) is got  # computed on first use, then kept


_ULP = Fraction(2.0**-52)


@given(f=st.sampled_from([tent(2.0), tent(math.sqrt(2)), tent(1.6), example43_map(),
                          perturbation_g(1 / 256)]),
       radius=st.floats(1e-12, 0.999) | st.fractions(Fraction(1, 10**15), Fraction(999, 1000)),
       t=st.floats(1e-3, 2.0) | st.floats(2.0, 1e300) | st.sampled_from([1.0, 0.5]))
def test_ball_rules_and_slacks_equal_their_fraction_forms(f, radius, t):
    # built from integer ratios, each is the exact rational of the closed
    # form in Fraction arithmetic
    standard = fm.StandardFuzzyMetric()
    r = Fraction(radius)
    assert standard.ball_rule(radius, t) == (1, Fraction(t) * r / (1 - r))
    assert standard.float_slack(f, t) == 2 * _ULP * f.eval_scale / Fraction(t)
    for m in (fm.RatioPhiFuzzyMetric(), fm.RatioFuzzyMetric()):
        q = (1 - r) / (min(Fraction(t), 1) if m.damped else 1)
        assert m.ball_rule(radius, t) == (None if q >= 1 else (q, 0))
        if f.lo_open:
            assert m.float_slack(f, t) == 4 * _ULP * (f.relative_eval_scale + 1)


def test_certify_concrete_maps(ratio_phi_metric, ratio_metric, three_piece):
    cert = fm.certify_fuzzy_continuity(ratio_phi_metric, three_piece, eps=0.2, t=1.0)
    assert cert.holds and cert.delta > 0
    cert = fm.certify_fuzzy_continuity(ratio_metric, three_piece, eps=0.2, t=1.0)
    assert cert.holds and cert.delta > 0


@pytest.mark.parametrize("check, message", [
    # the tent grid starts at 0, and tent:2 maps 1 to 0
    (lambda: fm.check_ratio_modulus(tent(2.0), 0.1, 1e-2),
     "domain of tent:2 is not inside the ratio space"),
    (lambda: fm.check_metric_domination(fm.RatioFuzzyMetric(), tent(2.0), example43_map(),
                                        0.5, 1.0, 1e-2),
     "domain of tent:2 is not inside the ratio space"),
    (lambda: fm.check_metric_domination(fm.StandardFuzzyMetric(), example43_map(), tent(2.0),
                                        0.5, 1.0, 1e-2),
     "state 0.0 outside domain of example43"),
    # tent:2 maps 1 to 0, outside the ratio space
    (lambda: fm.certify_fuzzy_continuity(fm.RatioFuzzyMetric(), tent(2.0), 0.2, 1.0, 1e-2),
     "domain of tent:2 is not inside the ratio space"),
], ids=["ratio-modulus-tent", "domination-tent-image", "domination-grid-outside-g",
        "certify-tent-image"])
def test_modulus_checks_reject_states_outside_the_space(check, message):
    # the first two divided 0 by 0 and reported a nan margin, and the
    # certificate divided 0 by 0 and certified continuity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            check()


@pytest.mark.parametrize("metric, f", [
    (fm.StandardFuzzyMetric(), IteratedMap(tent(2.0), 2)),
    (fm.StandardFuzzyMetric(), IteratedMap(tent(math.sqrt(2)), 3)),
    (fm.StandardFuzzyMetric(lo_open=True), IteratedMap(example43_map(), 3)),
    (fm.RatioPhiFuzzyMetric(), IteratedMap(example43_map(), 3)),
    (fm.RatioFuzzyMetric(), IteratedMap(example43_map(), 2)),
], ids=lambda v: getattr(v, "name", None))
@pytest.mark.parametrize("eps, t", [(0.2, 1.0), (0.05, 0.3)])
def test_certify_a_power_map_admits_no_offending_grid_pair(metric, f, eps, t):
    # the composition's Lipschitz constants give delta, and its strided
    # floats are checked on every pair of a 1e-3 grid
    cert = fm.certify_fuzzy_continuity(metric, f, eps, t)
    assert cert.holds and cert.t_prime == t
    pts = metric.grid(1e-3)
    imgs = f.eval_array(pts)
    offending = metric.eval_array(imgs[:, None], imgs[None, :], t) <= 1.0 - eps
    admitted = metric.eval_array(pts[:, None], pts[None, :], t) > 1.0 - cert.delta
    assert not (offending & admitted).any()


_NOT_FINITE_POSITIVE = [math.nan, math.inf, -math.inf, 0.0, -1.0]


@pytest.mark.parametrize("value", _NOT_FINITE_POSITIVE)
@pytest.mark.parametrize("check", [
    lambda v: fm.certify_fuzzy_continuity(fm.StandardFuzzyMetric(), tent(2.0), 0.2, v, 1e-2),
    lambda v: fm.check_ratio_modulus(example43_map(), v, 1e-2),
    lambda v: fm.check_metric_domination(fm.RatioFuzzyMetric(), perturbation_g(1 / 256),
                                         example43_map(), v, 1.0, 1e-2),
    lambda v: fm.check_metric_domination(fm.RatioFuzzyMetric(), perturbation_g(1 / 256),
                                         example43_map(), 0.5, v, 1e-2),
], ids=["certify-t", "ratio-modulus-factor", "domination-factor", "domination-t"])
def test_pair_checks_reject_nonfinite_or_nonpositive_parameters(check, value):
    # a nan horizon certified continuity with t_prime nan, an infinite one
    # divided inf by inf, and a nan or infinite factor gave a nan or -inf margin
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite and positive"):
            check(value)


def test_pair_checks_hold_memory_bounded():
    # the full scans held N x N matrices: 800 MB each for the domination
    # check at N = 1e4, 80 GB for the certificate at N = 1e5
    tracemalloc.start()
    try:
        report = fm.check_metric_domination(fm.StandardFuzzyMetric(lo_open=True),
                                            perturbation_g(1 / 256), example43_map(),
                                            0.5, 1.0, 1e-4)
        domination_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cert = fm.certify_fuzzy_continuity(fm.StandardFuzzyMetric(), tent(2.0), 0.2, 1.0, 1e-5)
        certificate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.pairs == 10_000**2
    assert cert.holds
    assert domination_peak < 64 * 2**20 and certificate_peak < 64 * 2**20


def test_ratio_modulus_three_piece(three_piece):
    report = fm.check_ratio_modulus(three_piece, factor=0.1, resolution=1e-3)
    assert report.passed
    assert report.pairs == 1_000_000
    assert report.worst_margin > 0


def test_ratio_modulus_of_a_power_map_is_the_dense_minimum():
    # a power map has no piece_index, so every row is scanned, and the
    # report is that of the full N x N scan to the bit
    f = IteratedMap(example43_map(), 2)
    report = fm.check_ratio_modulus(f, 0.1, 1e-3)
    pts = f.grid(1e-3)
    img = f.eval_array(pts)
    margin = (np.minimum.outer(img, img) / np.maximum.outer(img, img)
              - 0.1 * (np.minimum.outer(pts, pts) / np.maximum.outer(pts, pts)))
    i, j = np.unravel_index(int(np.argmin(margin)), margin.shape)
    assert report.worst_margin.hex() == float(margin[i, j]).hex()
    assert report.worst_pair == {"x": float(pts[i]), "y": float(pts[j])}


def test_metric_domination_perturbation(ratio_metric, three_piece):
    g = perturbation_g(1.0 / 256.0)
    report = fm.check_metric_domination(
        ratio_metric, g, three_piece, factor=0.5, t=1.0, resolution=1e-3
    )
    assert report.passed
    assert report.pairs == 1_000_000


def test_grid_respects_open_endpoint(ratio_metric, standard_metric):
    g = ratio_metric.grid(1e-3)
    assert g[0] == pytest.approx(1e-3)
    assert g[-1] == 1.0
    assert g.size == 1000
    h = standard_metric.grid(1e-3)
    assert h[0] == 0.0 and h[-1] == 1.0 and h.size == 1001


def test_sample_states_stay_in_space(ratio_metric):
    rng = np.random.default_rng(0)
    xs = ratio_metric.sample_states(rng, 10_000)
    assert np.all(xs > 0.0) and np.all(xs <= 1.0)


# -- the one rule by which an exact bound becomes a float ------------------------

# the floats in increasing order, -inf and inf included, are the signed bit
# patterns 0 ... 0x7FF0000000000000 (inf) mirrored about 0.0
_INF_BITS = 0x7FF0000000000000


def _nth_float(i):
    v = struct.unpack("<d", struct.pack("<q", abs(i)))[0]
    return -v if i < 0 else v


def _least_float_above(bound, strict):
    """The least float, infinities included, at or above the rational bound,
    strictly above it when strict, found by bisecting the float order."""
    def inside(v):
        if math.isinf(v):
            return v > 0
        return Fraction(v) > bound if strict else Fraction(v) >= bound

    lo, hi = -_INF_BITS, _INF_BITS  # inside(hi), and every float above
    while lo < hi:
        mid = (lo + hi) // 2
        if inside(_nth_float(mid)):
            hi = mid
        else:
            lo = mid + 1
    return _nth_float(lo)


def _greatest_float_below(bound, strict):
    return -_least_float_above(-bound, strict) + 0.0


@st.composite
def _bounds(draw):
    """A rational bound from subnormal to beyond the largest float, with
    either sign, as an unreduced numerator and unit of the rule."""
    mantissa = draw(st.integers(-2**64, 2**64))
    scale = Fraction(2) ** draw(st.integers(-1200, 1100))
    bound = mantissa * scale / draw(st.integers(1, 2**40))
    common = draw(st.integers(1, 1000))
    return bound.numerator * common << 1074, bound.denominator * common


_HUGE = Fraction(2**1024)  # above the largest float, 2**1024 - 2**971


@example(case=(Fraction(5e-324).numerator << 1074, Fraction(5e-324).denominator),
         up=True, closed=True)
@example(case=(Fraction(5e-324).numerator << 1074, Fraction(5e-324).denominator),
         up=False, closed=False)
@example(case=(-1, 3 << 1), up=True, closed=False)  # -2**-1075/3 reads 0.0, not -0.0
@example(case=(_HUGE.numerator << 1074, 1), up=False, closed=True)
@example(case=(_HUGE.numerator << 1074, 1), up=True, closed=True)
@example(case=(-_HUGE.numerator << 1074, 1), up=True, closed=False)
@given(case=_bounds(), up=st.booleans(), closed=st.booleans())
def test_float_inside_is_the_least_or_greatest_float_past_the_bound(case, up, closed):
    n, unit = case
    bound = Fraction(n, unit << 1074)
    want = (_least_float_above if up else _greatest_float_below)(bound, not closed)
    got = fm._float_inside(n, unit, up, closed)
    assert got.hex() == want.hex()


@given(lo=_bounds(), hi=_bounds(), lo_closed=st.booleans(), hi_closed=st.booleans())
def test_interval_floats_are_its_least_and_greatest_float(lo, hi, lo_closed, hi_closed):
    a, b = Fraction(lo[0], lo[1] << 1074), Fraction(hi[0], hi[1] << 1074)
    iv = fm.Interval(a, b, lo_closed, hi_closed)
    assert iv.floats() == (_least_float_above(a, not lo_closed),
                           _greatest_float_below(b, not hi_closed))


@pytest.mark.parametrize("m", [fm.StandardFuzzyMetric(), fm.StandardFuzzyMetric(lo_open=True),
                               fm.StandardFuzzyMetric(lo=-0.5, hi=2.0), fm.RatioFuzzyMetric()],
                         ids=["closed", "open", "wide", "ratio"])
def test_metric_least_and_greatest_floats_decide_membership(m):
    iv = fm.Interval(Fraction(m.lo), Fraction(m.hi), not m.lo_open)
    assert (m.least, m.greatest) == iv.floats()
    assert m.contains(m.least) and m.contains(m.greatest)
    assert not m.contains(math.nextafter(m.least, -math.inf))
    assert not m.contains(math.nextafter(m.greatest, math.inf))


def test_a_map_open_one_float_below_a_closed_space_end_lies_inside():
    # every float state of f is at least 0.25, the space's closed end, so
    # the pair is accepted though the map's open end lies below it
    below = Fraction(math.nextafter(0.25, 0.0))
    f = IntervalMap([Piece(below, Fraction(1), Fraction(0), Fraction(1, 2))], lo_open=True)
    m = fm.StandardFuzzyMetric(lo=0.25)
    assert f.least == m.least == 0.25
    fm.require_map_in_space(f, m)
    closed = IntervalMap([Piece(below, Fraction(1), Fraction(0), Fraction(1, 2))])
    with pytest.raises(ValueError, match="is not inside the standard space"):
        fm.require_map_in_space(closed, m)


def test_require_resolved_names_the_largest_float_past_it():
    with pytest.raises(ValueError, match=r"it must exceed 1\.7976931348623157e\+308, why"):
        fm.require_resolved("eps", 0.1, _HUGE, "why")
    with pytest.raises(ValueError, match=r"it must exceed 0\.3333333333333333, why"):
        fm.require_resolved("eps", 0.1, Fraction(1, 3), "why")
