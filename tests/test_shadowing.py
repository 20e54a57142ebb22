import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyshadow import fuzzy_metric as fm
from fuzzyshadow import shadowing
from fuzzyshadow.orbits import (
    OrbitSequence,
    build_transitivity_orbit,
    chain_mixing_check,
    chain_search,
    npo_set,
    ns_set,
    perturbed_orbit,
    validate_f_pseudo_orbit,
)
from fuzzyshadow.shadowing import (
    EmptyBallError,
    build_nonshadowable_orbit,
    classical_shadow_search,
    ergodic_shadow_search,
    shadow_search,
    topological_mixing_probe,
)
from fuzzyshadow.systems import ConstructionError, IntervalMap, map_from_spec, perturbation_g, tent


def test_true_orbit_traced_by_its_start(tent2, standard_metric):
    # start on the candidate grid so the exact trajectory is among candidates
    x0 = 0.3
    orb = tent2.orbit(x0, 100)
    verdict = shadow_search(orb, tent2, standard_metric, eps=0.01, t0=0.1,
                            resolution=1e-3)
    assert verdict.witness == x0
    assert verdict.worst_value > 1 - 0.01


def test_flat_horizon_makes_first_grid_point_a_witness(tent2, standard_metric):
    horizon = fm.uniform_horizon(standard_metric, 0.1, resolution=1e-2)
    seq = perturbed_orbit(tent2, 0.3, 100, noise=0.05, seed=0)
    verdict = shadow_search(seq, tent2, standard_metric, eps=0.1, t0=horizon,
                            resolution=1e-3)
    assert verdict.witness == 0.0


def test_crossing_orbit_construction(three_piece, ratio_phi_metric, ratio_metric):
    seq = build_nonshadowable_orbit(0.01)
    assert 0.25 in seq.states
    assert 1.0 in seq.states
    assert validate_f_pseudo_orbit(seq, three_piece, ratio_phi_metric, 0.01, 1.0).is_empty
    assert validate_f_pseudo_orbit(seq, three_piece, ratio_metric, 0.01, 1.0).is_empty
    with pytest.raises(ConstructionError):
        build_nonshadowable_orbit(0.5)


def test_crossing_orbit_rides_are_bounded():
    # the float tent:1.5 orbit never nears 1, so the second ride once looped
    # forever
    with pytest.raises(ConstructionError, match="does not reach 1 within 1000000 steps"):
        build_nonshadowable_orbit(0.01, tent(1.5))


def test_crossing_orbit_classical_bridge(three_piece):
    from fuzzyshadow.orbits import classical_validate

    seq = build_nonshadowable_orbit(0.4)
    assert classical_validate(seq, three_piece, 0.4).is_empty


def test_crossing_orbit_not_fuzzy_traceable(three_piece, ratio_phi_metric):
    seq = build_nonshadowable_orbit(0.01)
    verdict = shadow_search(seq, three_piece, ratio_phi_metric, eps=0.2, t0=1.0,
                            resolution=1e-3)
    assert not verdict.found
    # the near-miss value is the running minimum at elimination time, so it
    # can never exceed the kill threshold
    assert verdict.worst_value <= 1 - 0.2 + 1e-12
    assert verdict.near_miss is not None


def test_monotonicity_in_eps_and_horizon(three_piece, ratio_phi_metric,
                                         tent2, standard_metric):
    seq = build_nonshadowable_orbit(0.01)
    at_half = shadow_search(seq, three_piece, ratio_phi_metric, eps=0.55, t0=1.0,
                            resolution=1e-3)
    assert at_half.found  # nearness caps at 1/2, so eps above 1/2 succeeds
    wider = shadow_search(seq, three_piece, ratio_phi_metric, eps=0.7, t0=1.0,
                          resolution=1e-3)
    assert wider.found

    orb = tent2.orbit(0.3, 60)
    base = shadow_search(orb, tent2, standard_metric, eps=0.05, t0=1.0,
                         resolution=1e-3)
    assert base.found
    # a found witness stays valid at any larger horizon
    later = standard_metric.eval_array(
        tent2.orbit(base.witness, 60).states, orb.states, 5.0)
    assert np.all(later > 1 - 0.05)


def test_classical_search_short_noisy_orbit(tent2):
    seq = perturbed_orbit(tent2, 0.34, 8, noise=1e-4, seed=3)
    verdict = classical_shadow_search(seq, tent2, eps=0.05, resolution=1e-5)
    assert verdict.found
    assert abs(verdict.witness - 0.34) < 0.01


def test_classical_search_true_orbit_on_grid(tent2):
    orb = tent2.orbit(0.3, 60)
    verdict = classical_shadow_search(orb, tent2, eps=0.01, resolution=1e-3)
    assert verdict.witness == 0.3


def test_classical_crossing_orbit_has_no_witness(three_piece):
    seq = build_nonshadowable_orbit(0.01)
    verdict = classical_shadow_search(seq, three_piece, eps=0.125, resolution=1e-4)
    assert not verdict.found
    # a nearness of at most 1/2 at horizon 1/8: a distance of at least 1/8
    assert verdict.eps == 0.5 and verdict.t0 == 0.125 and verdict.worst_value <= 0.5


def test_ergodic_true_orbit(tent2, standard_metric):
    orb = tent2.orbit(0.3, 200)
    candidate, report = ergodic_shadow_search(orb, tent2, standard_metric,
                                              eps=0.05, t0=1.0, resolution=1e-2)
    assert candidate == 0.3
    assert report.final_density == 0.0
    assert report.plausibly_zero


def test_ergodic_interleaved_orbit(tent2, standard_metric):
    horizon = fm.uniform_horizon(standard_metric, 0.1, resolution=1e-2)
    seq = build_transitivity_orbit(0.3, 0.7, tent2, 2_000)
    _, report = ergodic_shadow_search(seq, tent2, standard_metric, eps=0.1,
                                      t0=horizon, resolution=1e-2)
    assert report.plausibly_zero


def test_ergodic_adversarial_alternation(three_piece, ratio_metric):
    n = 10_000
    states = np.where(np.arange(n) % 2 == 0, 0.05, 0.95)
    seq = OrbitSequence(states)
    _, report = ergodic_shadow_search(seq, three_piece, ratio_metric, eps=0.2,
                                      t0=1.0, resolution=1e-2)
    assert report.final_density >= 0.4
    assert not report.plausibly_zero


def test_probe_tent_cofinite(tent2, standard_metric):
    report = topological_mixing_probe(
        tent2, fm.Ball(0.2, 0.1, 1.0), fm.Ball(0.8, 0.1, 1.0), standard_metric,
        n_max=48, resolution=1e-3)
    assert report.n0 is not None and report.n0 <= 8


def test_probe_fixed_point_all_steps(three_piece, ratio_metric):
    ball = fm.Ball(0.5, 0.1, 1.0)
    report = topological_mixing_probe(three_piece, ball, ball, ratio_metric,
                                      n_max=16, resolution=1e-3)
    assert report.present == tuple(range(1, 17))


def test_probe_monotone_dynamics_never_descend(three_piece, ratio_metric):
    report = topological_mixing_probe(
        three_piece, fm.Ball(0.9, 0.05, 1.0), fm.Ball(0.1, 0.05, 1.0), ratio_metric,
        n_max=48, resolution=1e-3)
    assert report.present == ()


def test_probe_empty_ball_error(three_piece, ratio_phi_metric):
    # ratio-phi balls of radius 1/2 at horizon 1/2 hold only their center,
    # which is off-grid here
    with pytest.raises(EmptyBallError):
        topological_mixing_probe(
            three_piece, fm.Ball(0.12345678, 0.5, 0.5), fm.Ball(0.5, 0.5, 1.0),
            ratio_phi_metric, n_max=4, resolution=1e-3)


@pytest.mark.parametrize("spec, u, v, message", [
    ("tent:2", 5.0, 0.8, "U center 5.0 outside domain of tent:2"),
    ("tent:2", 0.2, -3.0, "V center -3.0 outside domain of tent:2"),
    ("example43", 0.0, 0.5, "U center 0.0 outside domain of example43"),
])
def test_probe_rejects_a_center_outside_the_domain(standard_metric, spec, u, v, message):
    # wide balls centred off the domain still capture grid points of it
    with pytest.raises(ValueError, match=f"^{message}$"):
        topological_mixing_probe(map_from_spec(spec), fm.Ball(u, 0.9, 1.0),
                                 fm.Ball(v, 0.9, 1.0), standard_metric, n_max=4,
                                 resolution=1e-2)


@pytest.mark.parametrize("n_max", [-3, 0, 10**6 + 1])
def test_probe_rejects_step_counts_out_of_range(standard_metric, n_max):
    # unchecked, -3 gave an empty report and 10**6 + 1 ran that many steps
    with pytest.raises(ValueError, match=r"^n_max must lie in \[1, 1000000\], got "):
        topological_mixing_probe(map_from_spec("tent:2"), fm.Ball(0.3, 0.1, 1.0),
                                 fm.Ball(0.6, 0.1, 1.0), standard_metric, n_max=n_max)


_ENTRY_POINTS = {
    "shadow_search": lambda f, m: shadow_search(f.orbit(0.3, 5), f, m, 0.1, 1.0, 1e-2),
    "ergodic_shadow_search": lambda f, m: ergodic_shadow_search(f.orbit(0.3, 5), f, m,
                                                                0.1, 1.0, 1e-2),
    "validate_f_pseudo_orbit": lambda f, m: validate_f_pseudo_orbit(f.orbit(0.3, 5), f, m,
                                                                    0.1, 1.0),
    "npo_set": lambda f, m: npo_set(f.orbit(0.3, 5), f, m, 0.1, 1.0),
    "ns_set": lambda f, m: ns_set(f.orbit(0.3, 5), 0.3, f, m, 0.1, 1.0),
    "topological_mixing_probe": lambda f, m: topological_mixing_probe(
        f, fm.Ball(0.3, 0.1, 1.0), fm.Ball(0.6, 0.1, 1.0), m, 8, 1e-2),
    "chain_search": lambda f, m: chain_search(0.3, 0.6, f, m, 0.1, 1.0),
    "chain_mixing_check": lambda f, m: chain_mixing_check(0.3, 0.6, f, m, 0.1, 1.0, n_max=8),
}


@pytest.mark.parametrize("metric", [fm.RatioFuzzyMetric(), fm.StandardFuzzyMetric(lo=0.2, hi=0.8)],
                         ids=["ratio", "narrow-standard"])
@pytest.mark.parametrize("call", _ENTRY_POINTS.values(), ids=_ENTRY_POINTS.keys())
def test_entry_points_reject_a_map_outside_the_space(tent2, metric, call):
    # tent orbits reach 0, where a ratio metric divides 0 by 0; a space
    # narrower than the domain would leave the metric at the domain's ends
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"is not inside the {metric.name} space"):
            call(tent2, metric)


class _SpyMetric(fm.StandardFuzzyMetric):
    """The standard metric on a wider space, recording every state it
    compares."""

    def __init__(self, lo, hi, lo_open):
        super().__init__(lo=lo, hi=hi, lo_open=lo_open)
        self.seen = []

    def eval_array(self, x, y, t):
        self.seen += [np.asarray(x, float).ravel(), np.asarray(y, float).ravel()]
        return super().eval_array(x, y, t)


class _SpyMap(IntervalMap):
    """A map recording every state its batch evaluation steps."""

    def __init__(self, f):
        super().__init__(f.pieces, f.lo_open, f.name)
        self.seen = []

    def eval_array(self, xs):
        self.seen.append(np.asarray(xs, float).ravel())
        return super().eval_array(xs)


def _outcome(call):
    """A comparable result: the verdict's dict, or the error it raised."""
    try:
        result = call()
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):  # the ergodic search's (candidate, report)
        return result[0], result[1].to_dict()
    return result.to_dict()


@st.composite
def _wide_spaces(draw):
    f = map_from_spec(draw(st.sampled_from(["tent:2", "tent:sqrt2", "tent:1.6", "example43",
                                            "g:1/512"])))
    below, above = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    # an open lower end of the space must stay below a closed domain's end
    lo_open = draw(st.booleans()) and (below > 0.0 or f.lo_open)
    return f, f.domain_lo - below, f.domain_hi + above, lo_open


_IN_DOMAIN = st.floats(0.05, 1.0)


@settings(max_examples=60, deadline=None)
@given(space=_wide_spaces(), eps=st.floats(0.05, 0.5), t0=st.floats(0.05, 4.0),
       steps=st.integers(8, 60), x=_IN_DOMAIN, y=_IN_DOMAIN, radius=st.floats(0.05, 0.5),
       noise=st.sampled_from([0.0, 1e-3, 0.05]))
def test_every_verdict_lives_in_the_map_domain(space, eps, t0, steps, x, y, radius, noise):
    f, lo, hi, lo_open = space
    exact = fm.StandardFuzzyMetric(lo=f.domain_lo, hi=f.domain_hi, lo_open=f.lo_open)
    seq = perturbed_orbit(f, x, 40, noise, seed=steps)
    grid = 1.0 / steps
    spy_f, spy_m = _SpyMap(f), _SpyMetric(lo, hi, lo_open)
    for name, call in {
        "shadow": lambda f, m: shadow_search(seq, f, m, eps, t0, grid),
        "ergodic": lambda f, m: ergodic_shadow_search(seq, f, m, eps, t0, grid),
        "probe": lambda f, m: topological_mixing_probe(
            f, fm.Ball(x, radius, t0), fm.Ball(y, radius, t0), m, 16, grid),
        "certificate": lambda f, m: fm.certify_fuzzy_continuity(m, f, eps, t0, grid),
        "chain": lambda f, m: chain_mixing_check(x, y, f, m, eps, t0, n_max=16),
    }.items():
        assert _outcome(lambda: call(spy_f, spy_m)) == _outcome(lambda: call(f, exact)), name
    for states in spy_f.seen + spy_m.seen:
        if states.size:
            assert f.contains(states.min()) and f.contains(states.max())


@pytest.mark.parametrize("search", [
    lambda seq, f, m: shadow_search(seq, f, m, eps=0.1, t0=1.0, resolution=1e-2),
    lambda seq, f, m: classical_shadow_search(seq, f, eps=0.1, resolution=1e-2),
    lambda seq, f, m: ergodic_shadow_search(seq, f, m, eps=0.1, t0=1.0, resolution=1e-2),
], ids=["fuzzy", "classical", "ergodic"])
def test_search_orbit_outside_map_domain(tent2, standard_metric, search):
    seq = OrbitSequence(np.array([0.3, 0.6, 1.7, -1.4, 0.5]))
    with pytest.raises(ValueError, match=r"state -1\.4 outside domain of tent:2"):
        search(seq, tent2, standard_metric)


def test_tracing_and_mixing_hold_together(tent2, standard_metric):
    # on the same instance, the flat-horizon tracing succeeds AND both mixing
    # probes are cofinite: premises and conclusion of the implication chain
    # all hold at desk scale
    from fuzzyshadow.orbits import chain_mixing_check

    horizon = fm.uniform_horizon(standard_metric, 0.1, resolution=1e-2)
    seq = perturbed_orbit(tent2, 0.3, 300, noise=0.05, seed=7)
    assert shadow_search(seq, tent2, standard_metric, eps=0.1, t0=horizon,
                         resolution=1e-3).found
    chain = chain_mixing_check(0.2, 0.8, tent2, standard_metric, 0.1, 1.0,
                               1e-3, n_max=48)
    assert chain.n0 is not None
    probe = topological_mixing_probe(
        tent2, fm.Ball(0.2, 0.1, 1.0), fm.Ball(0.8, 0.1, 1.0), standard_metric,
        n_max=48, resolution=1e-3)
    assert probe.n0 is not None


def test_verdict_serialization(tent2, standard_metric):
    orb = tent2.orbit(0.3, 20)
    verdict = shadow_search(orb, tent2, standard_metric, eps=0.05, t0=1.0,
                            resolution=1e-2)
    payload = verdict.to_dict()
    assert payload["verdict"] in ("witness-found", "no-witness")
    assert set(payload) == {"verdict", "witness", "worst_index", "worst_value", "grid",
                            "candidates", "eps", "t0", "near_miss"}
    classical = classical_shadow_search(orb, tent2, eps=0.05, resolution=1e-2).to_dict()
    assert set(classical) == set(payload)
    assert (classical["eps"], classical["t0"]) == (0.5, 0.05)


def test_shadow_search_eps_validation(tent2, standard_metric):
    orb = tent2.orbit(0.3, 5)
    with pytest.raises(ValueError):
        shadow_search(orb, tent2, standard_metric, eps=1.5, t0=1.0)
    with pytest.raises(ValueError):
        classical_shadow_search(orb, tent2, eps=0.0)
    with pytest.raises(ValueError, match="eps must be finite and positive, got inf"):
        classical_shadow_search(orb, tent2, eps=math.inf)


@pytest.mark.parametrize("t0", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda seq, f, m, t0: shadow_search(seq, f, m, eps=0.1, t0=t0, resolution=1e-2),
    lambda seq, f, m, t0: ergodic_shadow_search(seq, f, m, eps=0.1, t0=t0, resolution=1e-2),
    lambda seq, f, m, t0: validate_f_pseudo_orbit(seq, f, m, 0.1, t0),
    lambda seq, f, m, t0: ns_set(seq, 0.3, f, m, 0.1, t0),
], ids=["shadow", "ergodic", "validate", "ns_set"])
def test_fuzzy_verdicts_need_a_finite_positive_horizon(tent2, standard_metric, call, t0):
    # a nan horizon used to slip past the t <= 0 check and give a witness
    with pytest.raises(ValueError, match="horizon must be finite and positive"):
        call(tent2.orbit(0.3, 20), tent2, standard_metric, t0)


@pytest.mark.parametrize("eps", [-0.5, 0.0, 1.0, 1.5, float("nan")])
def test_ergodic_search_eps_validation(tent2, standard_metric, eps):
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\)"):
        ergodic_shadow_search(tent2.orbit(0.3, 20), tent2, standard_metric, eps=eps, t0=1.0)


def test_perturbation_crossing_orbit(ratio_metric):
    g = perturbation_g(1.0 / 256.0)
    seq = build_nonshadowable_orbit(0.01, g)
    assert validate_f_pseudo_orbit(seq, g, ratio_metric, 0.01, 1.0).is_empty
    verdict = shadow_search(seq, g, ratio_metric, eps=0.2, t0=1.0, resolution=1e-3)
    assert not verdict.found
