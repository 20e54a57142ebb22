import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyshadow import fuzzy_metric as fm
from fuzzyshadow import reports, tnorm
from fuzzyshadow.systems import IntervalMap, Piece, example43_map, perturbation_g, tent
from fuzzyshadow.tnorm import TNorm


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
    report = fm.check_axioms(fm.metric_from_name(name), samples=10_000, seed=0)
    assert report.all_passed, report.failing()


def test_broken_metric_fails_triangle():
    # the ratio construction needs the product t-norm; the minimum t-norm
    # demands more than multiplicative ratios can deliver
    broken = fm.RatioFuzzyMetric(TNorm("minimum"))
    report = fm.check_axioms(broken, samples=10_000, seed=0)
    assert not report.all_passed
    assert "triangle" in report.failing()
    failing = [c for c in report.checks if c.name == "triangle"][0]
    w = failing.counterexample
    assert w is not None
    lhs = broken.eval(w["x"], w["z"], w["t"] + w["s"])
    rhs = min(broken.eval(w["x"], w["y"], w["t"]), broken.eval(w["y"], w["z"], w["s"]))
    assert lhs < rhs


@pytest.mark.parametrize("chunk", [7, 4096])
@pytest.mark.parametrize("harness", [
    lambda: fm.check_axioms(fm.RatioFuzzyMetric(TNorm("minimum")), samples=10_000, seed=3),
    lambda: fm.check_axioms(fm.StandardFuzzyMetric(), samples=10_000, seed=3),
    lambda: tnorm.check_axioms(TNorm("lukasiewicz"), samples=10_000, seed=3),
], ids=["broken-ratio", "standard", "lukasiewicz"])
def test_axiom_sweeps_do_not_depend_on_the_chunk(monkeypatch, harness, chunk):
    whole = harness().to_dict()
    monkeypatch.setattr(reports, "SWEEP_CHUNK", chunk)
    assert harness().to_dict() == whole


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
    # exact boundary: M(0, 1, 1) = 0.5, excluded open, included closed
    assert not fm.ball_members(standard_metric, fm.Ball(0.0, 0.5, 1.0), 1.0)
    assert fm.ball_members(standard_metric, fm.Ball(0.0, 0.5, 1.0, closed=True), 1.0)


def test_ball_validation():
    with pytest.raises(ValueError):
        fm.Ball(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        fm.Ball(0.5, 0.5, 0.0)
    with pytest.raises(ValueError, match="ball horizon must be finite and positive"):
        fm.Ball(0.2, 0.1, math.inf)


def test_uniform_horizon_standard(standard_metric):
    # solve t/(t + diameter) = 1 - eps: t = 9 for eps = 0.1, t = 1 for eps = 0.5
    t_01 = fm.uniform_horizon(standard_metric, 0.1, resolution=1e-2)
    assert t_01 == pytest.approx(9.0, abs=1e-6)
    assert np.min(standard_metric.eval_array(0.0, 1.0, t_01)) > 0.9
    t_05 = fm.uniform_horizon(standard_metric, 0.5, resolution=1e-2)
    assert t_05 == pytest.approx(1.0, abs=1e-6)


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
        fm.uniform_horizon(metric, 0.1, resolution=resolution)
    with pytest.raises(ValueError, match="too many grid steps"):
        metric.grid(resolution)


def test_uniform_horizon_ratio_none(ratio_metric, ratio_phi_metric):
    assert fm.uniform_horizon(ratio_metric, 0.1, resolution=1e-2) is None
    assert fm.uniform_horizon(ratio_phi_metric, 0.1, resolution=1e-2) is None


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
def test_ball_interval_matches_exact_predicate(name, u, radius, t):
    m = (fm.StandardFuzzyMetric(lo=-4.0, hi=5.0) if name == "standard"
         else fm.metric_from_name(name))
    ball = m.ball_interval(fm.Interval.point(u), radius, t)
    zs = [u]
    for end in (ball.lo, ball.hi):
        e = float(end)
        zs += [np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)]
    for z in zs:
        if m.contains(z):
            assert (z in ball) == _exactly_near(m, u, z, radius, t)


def test_certify_identity(standard_metric):
    identity = IntervalMap([Piece(Fraction(0), Fraction(1), Fraction(1), Fraction(0))],
                           name="identity")
    cert = fm.certify_fuzzy_continuity(standard_metric, identity, eps=0.3, t=1.0)
    assert cert.holds
    assert cert.delta == pytest.approx(0.3)
    assert cert.t_prime == 1.0


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
    assert cert.holds and cert.pairs == 100_001**2
    assert domination_peak < 64 * 2**20 and certificate_peak < 64 * 2**20


def test_ratio_modulus_three_piece(three_piece):
    report = fm.check_ratio_modulus(three_piece, factor=0.1, resolution=1e-3)
    assert report.passed
    assert report.pairs == 1_000_000
    assert report.worst_margin > 0


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
