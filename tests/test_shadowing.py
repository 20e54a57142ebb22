import numpy as np
import pytest

from fuzzyshadow import fuzzy_metric as fm
from fuzzyshadow import shadowing
from fuzzyshadow.orbits import (
    OrbitSequence,
    build_transitivity_orbit,
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
from fuzzyshadow.systems import ConstructionError, perturbation_g


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
    assert verdict.worst_value >= 0.125


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


def test_probe_grid_outside_map_domain(tent2, three_piece):
    wide = fm.StandardFuzzyMetric(lo=-2.0, hi=3.0)
    with pytest.raises(ValueError, match="outside domain of tent:2"):
        topological_mixing_probe(tent2, fm.Ball(0.05, 0.3, 1.0), fm.Ball(-1.5, 0.1, 1.0),
                                 wide, n_max=8, resolution=1e-2)
    # the closed unit grid holds 0, which example43's domain (0, 1] excludes
    with pytest.raises(ValueError, match="0.0 outside domain of example43"):
        topological_mixing_probe(three_piece, fm.Ball(0.2, 0.1, 1.0), fm.Ball(0.8, 0.1, 1.0),
                                 fm.StandardFuzzyMetric(), n_max=8, resolution=1e-2)


def test_search_grid_outside_map_domain(tent2):
    # the orbit's own start traces it, but a grid on [-2, 3] would be stepped
    # by extrapolating tent:2's pieces
    orb = tent2.orbit(0.3, 5)
    wide = fm.StandardFuzzyMetric(lo=-2.0, hi=3.0)
    with pytest.raises(ValueError, match=r"state -2\.0 outside domain of tent:2"):
        shadow_search(orb, tent2, wide, eps=0.9, t0=10.0, resolution=1e-2)
    with pytest.raises(ValueError, match=r"state -2\.0 outside domain of tent:2"):
        ergodic_shadow_search(orb, tent2, wide, eps=0.9, t0=10.0, resolution=1e-2)


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
    assert set(payload) >= {"witness", "worst_index", "worst_value", "grid",
                            "candidates", "eps", "t0", "mode"}


def test_shadow_search_eps_validation(tent2, standard_metric):
    orb = tent2.orbit(0.3, 5)
    with pytest.raises(ValueError):
        shadow_search(orb, tent2, standard_metric, eps=1.5, t0=1.0)
    with pytest.raises(ValueError):
        classical_shadow_search(orb, tent2, eps=0.0)


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
