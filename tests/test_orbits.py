import csv
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fuzzyshadow import orbits
from fuzzyshadow.fuzzy_metric import (
    Interval,
    RatioPhiFuzzyMetric,
    StandardFuzzyMetric,
    bridge_threshold,
    metric_from_name,
)
from fuzzyshadow.orbits import (
    IndexSet,
    OrbitFileError,
    OrbitSequence,
    build_transitivity_orbit,
    chain_mixing_check,
    chain_search,
    classical_validate,
    density,
    interleave_for_power,
    npo_set,
    ns_set,
    perturbed_orbit,
    transitivity_skeleton,
    validate_f_pseudo_orbit,
)
from fuzzyshadow.systems import example43_map, map_from_spec, tent


def brute_force_skeleton(n):
    """Unroll the recurrence directly; oracle for the closed-form version."""
    out = []
    a, b, k = 0, 1, 0
    while a < n or b < n:
        out.extend(v for v in (a, b) if v < n)
        k += 1
        a = b + k
        b = a + k + 1
    return sorted(set(out))


def test_index_set_validation():
    IndexSet(np.array([0, 3, 7]), universe=10)
    with pytest.raises(ValueError):
        IndexSet(np.array([3, 3]), universe=10)
    with pytest.raises(ValueError):
        IndexSet(np.array([10]), universe=10)
    with pytest.raises(ValueError):
        IndexSet(np.array([0]), universe=0)


def test_true_orbit_is_valid_everywhere(tent2, standard_metric, ratio_phi_metric):
    orb = tent2.orbit(0.3, 100)
    for delta in (0.001, 0.1, 0.9):
        for t0 in (0.1, 1.0, 10.0):
            assert validate_f_pseudo_orbit(orb, tent2, standard_metric, delta, t0).is_empty

    e = example43_map()
    orb_e = e.orbit(0.3, 100)
    assert validate_f_pseudo_orbit(orb_e, e, ratio_phi_metric, 0.01, 1.0).is_empty


def test_constant_fixed_point_sequence(three_piece, ratio_phi_metric):
    seq = OrbitSequence(np.full(50, 0.5))
    assert validate_f_pseudo_orbit(seq, three_piece, ratio_phi_metric, 0.01, 1.0).is_empty


def test_single_replaced_entry_flags_one_transition(tent2, standard_metric):
    # swap one entry for its mirror preimage: the image is unchanged, so only
    # the transition INTO the swapped entry can fail
    orb = tent2.orbit(0.3, 60).states.copy()
    j = 25
    orb[j] = 1.0 - orb[j]
    seq = OrbitSequence(orb)
    v = validate_f_pseudo_orbit(seq, tent2, standard_metric, 0.01, 1.0)
    assert v.indices.tolist() == [j - 1]


def test_classical_validator(tent2):
    orb = tent2.orbit(0.3, 40)
    assert classical_validate(orb, tent2, 1e-9).is_empty
    bumped = orb.states.copy()
    bumped[-1] += 0.02
    v = classical_validate(OrbitSequence(bumped), tent2, 0.01)
    assert v.indices.tolist() == [len(bumped) - 2]


def test_npo_matches_validator(tent2, standard_metric):
    seq = perturbed_orbit(tent2, 0.3, 50, 0.02, seed=2)
    a = validate_f_pseudo_orbit(seq, tent2, standard_metric, 0.05, 1.0)
    b = npo_set(seq, tent2, standard_metric, 0.05, 1.0)
    assert np.array_equal(a.indices, b.indices)


def test_ns_set_of_true_orbit_is_empty(tent2, standard_metric):
    orb = tent2.orbit(0.3, 80)
    assert ns_set(orb, 0.3, tent2, standard_metric, 0.01, 1.0).is_empty


@given(
    delta=st.floats(min_value=0.01, max_value=0.6),
    t0=st.sampled_from([0.5, 1.0, 9.0]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_bridge_validators_agree(delta, t0, seed):
    f = tent(2.0)
    m = StandardFuzzyMetric()
    rng = np.random.default_rng(seed)
    seq = OrbitSequence(rng.uniform(0.0, 1.0, size=30))
    fuzzy = validate_f_pseudo_orbit(seq, f, m, delta, t0)
    classical = classical_validate(seq, f, bridge_threshold(delta, t0))
    assert np.array_equal(fuzzy.indices, classical.indices)


def test_skeleton_matches_brute_force():
    for n in (1, 10, 100, 1234, 50_000):
        assert transitivity_skeleton(n).tolist() == brute_force_skeleton(n)


def test_skeleton_density_values():
    sk = transitivity_skeleton(100)
    assert sk.tolist() == [0, 1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36, 42, 49, 56, 64, 72, 81, 90]
    assert len(sk) / 100 == 0.19
    sk6 = transitivity_skeleton(10**6)
    assert len(sk6) / 10**6 == pytest.approx(0.002, abs=1e-3)
    # quantified sparsity bound: at most 2*(isqrt(n)+1) members below n
    for n in (100, 10_000, 10**6):
        count = len(transitivity_skeleton(n))
        assert count <= 2 * (int(np.sqrt(n)) + 1)


def test_density_report_shapes():
    iset = IndexSet(transitivity_skeleton(10**6), universe=10**6)
    rep = density(iset)
    assert [n for n, _ in rep.points] == [100, 1000, 10_000, 100_000, 10**6]
    assert rep.points[0][1] == 0.19
    assert rep.final_density <= 0.003
    assert rep.plausibly_zero

    empty = density(IndexSet(np.array([], dtype=int), universe=500))
    assert empty.plausibly_zero and empty.final_density == 0.0

    dense = density(IndexSet(np.arange(500), universe=500))
    assert not dense.plausibly_zero


def test_transitivity_orbit_violations_confined(tent2, standard_metric):
    for x, y in ((0.3, 0.7), (0.1, 0.9), (0.55, 0.2)):
        seq = build_transitivity_orbit(x, y, tent2, 20_000)
        skeleton = transitivity_skeleton(len(seq))
        v = npo_set(seq, tent2, standard_metric, 0.01, 1.0)
        assert v.issubset(skeleton)


def test_transitivity_orbit_density_vanishes(tent2, standard_metric):
    # the skeleton thins out like 2/sqrt(n), crossing the 0.01 verdict
    # threshold around n = 4e4; judge at 1e5
    seq = build_transitivity_orbit(0.3, 0.7, tent2, 10**5)
    v = npo_set(seq, tent2, standard_metric, 0.01, 1.0)
    assert density(v).plausibly_zero


def test_transitivity_orbit_degenerate(three_piece, standard_metric):
    seq = build_transitivity_orbit(0.5, 0.5, three_piece, 100)
    assert np.all(seq.states == 0.5)
    assert npo_set(seq, three_piece, standard_metric, 0.5, 1.0).is_empty


def test_interleave_examples(tent2):
    seq = OrbitSequence(np.array([0.2, 0.7]))
    same = interleave_for_power(seq, 1, tent2)
    assert np.array_equal(same.states, seq.states)
    two = interleave_for_power(seq, 2, tent2)
    assert two.states.tolist() == [0.2, tent2.eval(0.2), 0.7, tent2.eval(0.7)]


@given(
    k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=30),
    n=st.integers(min_value=1, max_value=40),
)
def test_interleave_downsample_roundtrip(k, seed, n):
    f = tent(2.0)
    rng = np.random.default_rng(seed)
    seq = OrbitSequence(rng.uniform(0.0, 1.0, size=n))
    expanded = interleave_for_power(seq, k, f)
    assert len(expanded) == k * n
    assert np.array_equal(expanded.states[::k], seq.states)


def test_perturbed_orbit_validity(tent2, standard_metric):
    seq = perturbed_orbit(tent2, 0.3, 300, noise=0.005, seed=4)
    assert seq.provenance == "perturbed"
    assert np.all((seq.states >= 0.0) & (seq.states <= 1.0))
    assert classical_validate(seq, tent2, 0.0051).is_empty
    # fuzzy validity at the bridged delta
    assert validate_f_pseudo_orbit(seq, tent2, standard_metric, 0.01, 1.0).is_empty


# SHA-256 of states.tobytes(), recorded from the per-step loop that drew one
# scalar kick at a time; noise 0.5 and 0.3 clip at hi and at example43's and
# g's open floor
@pytest.mark.parametrize("spec, x0, noise, seed, digest", [
    ("tent:2", 0.3, 0.5, 0, "b70ffc1fe5e0121033b5fff43e517c83177b9f611089da4063c8186b86acc13f"),
    ("tent:2", 0.7, 0.01, 1, "2412f4ae51750ee82fe64e25e7593db8da3cd4299c8bb3900c27c6b0b8728e77"),
    ("tent:2", 0.45, 0.2, 2, "377c0bca84e4d765a6c6f302b4ced8e2019350a3ca6111b4542731824981a167"),
    ("tent:sqrt2", 0.3, 0.5, 0, "43b57dc0143352a0c9854389354330a58ab5aa26d2eff4b62a889d64d6da9408"),
    ("tent:sqrt2", 0.6, 0.01, 1, "3f3572c9e7f38a02138d0702544882c2ccd5cfcdd6289b194e3f4414b06c05d5"),
    ("tent:sqrt2", 0.2, 0.2, 2, "124e21144d07dff6ab9141831f0444bfc2c5e3b4e68f102bd1a35cdca830371a"),
    ("example43", 0.3, 0.5, 0, "34a46eb1d17569b567ec87705cee1eb74286307fd73c8c823293e73307127cd4"),
    ("example43", 0.6, 0.01, 1, "c64da49bcbdfbe3437994520994d1077944fc62a558914e8e6c6424cf9a11a7b"),
    ("example43", 0.05, 0.3, 2, "346f0cec518877b0e1bdcdc2f877e2f04314d1f4878f5fee1c1e37817098a739"),
    ("g:1/256", 0.3, 0.5, 0, "263f1a1de5c50ae8da041a8a56ada20d5d3105cb3ab266508d59b5fb2c3063e3"),
    ("g:1/256", 0.9, 0.01, 1, "61d559ef07e4358b37b7a1baa98f6340ee7c12822b4aefbcc87282c007c4e8e0"),
    ("g:1/256", 0.1, 0.3, 2, "635d04dc9944d29e83c1bc3b5ac401c26cd7600f2c2afa1b2e8d7a3cb4950892"),
])
def test_perturbed_orbit_pinned(spec, x0, noise, seed, digest):
    f = map_from_spec(spec)
    states = perturbed_orbit(f, x0, 200, noise, seed).states
    assert hashlib.sha256(states.tobytes()).hexdigest() == digest
    if noise >= 0.3:
        floor = 1e-12 if f.lo_open else 0.0
        assert (states == 1.0).any() and (states == floor).any()


@pytest.mark.parametrize("call, message", [
    (lambda f: perturbed_orbit(f, 1.5, 0, 0.01), r"^1\.5 outside domain of tent:2$"),
    (lambda f: perturbed_orbit(f, -0.1, 5, 0.01), r"^-0\.1 outside domain of tent:2$"),
    (lambda f: perturbed_orbit(f, 0.3, 5, float("nan")), "noise must be finite"),
    (lambda f: perturbed_orbit(f, 0.3, 5, float("inf")), "noise must be finite"),
    (lambda f: perturbed_orbit(f, 0.3, 5, -0.01), "noise must be finite and nonnegative"),
    (lambda f: perturbed_orbit(f, 0.3, -1, 0.01), "n must be nonnegative"),
    (lambda f: orbits.orbit_states(f, 0.3, -1), "n must be nonnegative"),
], ids=["x0-above", "x0-below", "noise-nan", "noise-inf", "noise-negative", "n-negative",
        "orbit-states-n-negative"])
def test_orbit_inputs_rejected(tent2, call, message):
    with pytest.raises(ValueError, match=message):
        call(tent2)


def test_perturbed_orbit_without_steps(tent2):
    assert perturbed_orbit(tent2, 0.3, 0, 0.01).states.tolist() == [0.3]
    quiet = perturbed_orbit(tent2, 0.3, 10, 0.0).states
    assert np.array_equal(quiet, orbits.orbit_states(tent2, 0.3, 11))


def _reference_orbit(f, x, n):
    """x, f(x), ..., f^(n-1)(x), one eval_array call per step."""
    out = []
    v = np.array([float(x)])
    for _ in range(n):
        out.append(float(v[0]))
        v = f.eval_array(v)
    return np.array(out, dtype=float)


@pytest.mark.parametrize("spec", ["tent:2", "tent:sqrt2", "example43", "g:1/256"])
@pytest.mark.parametrize("n", [0, 1, 2, 500])
def test_orbit_states_matches_reference(spec, n):
    f = map_from_spec(spec)
    for x in (0.5, 0.3, 1.0, np.float64(0.77)):
        got = orbits.orbit_states(f, x, n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == _reference_orbit(f, x, n).tobytes()


def test_chain_trivial_and_found(tent2, standard_metric):
    e = example43_map()
    rp = RatioPhiFuzzyMetric()
    trivial = chain_search(0.5, 0.5, e, rp, 0.1, 1.0)
    assert len(trivial) == 1 and trivial[0] == 0.5

    for x, y in ((0.2, 0.8), (0.9, 0.1), (0.05, 0.95)):
        chain = chain_search(x, y, tent2, standard_metric, 0.1, 1.0, 1e-3)
        assert chain is not None
        assert chain[0] == x and chain[len(chain) - 1] == y
        assert validate_f_pseudo_orbit(chain, tent2, standard_metric, 0.1, 1.0).is_empty


def test_chain_none_downhill(three_piece, ratio_phi_metric):
    assert chain_search(0.9, 0.1, three_piece, ratio_phi_metric, 0.05, 1.0, 1e-3) is None


def test_chain_mixing_tent(tent2, standard_metric):
    rep = chain_mixing_check(0.2, 0.8, tent2, standard_metric, 0.1, 1.0, 1e-3, n_max=64)
    assert rep.n0 is not None and rep.n0 <= 16


def test_chain_mixing_fixed_point(three_piece, ratio_phi_metric):
    rep = chain_mixing_check(0.5, 0.5, three_piece, ratio_phi_metric, 0.1, 1.0, 1e-2, n_max=16)
    assert rep.present == tuple(range(1, 17))
    assert rep.n0 == 1


def test_chain_mixing_unreachable(three_piece, ratio_phi_metric):
    rep = chain_mixing_check(0.9, 0.1, three_piece, ratio_phi_metric, 0.05, 1.0, 1e-3, n_max=32)
    assert rep.present == ()
    assert rep.n0 is None


def test_chain_nodes_outside_map_domain(tent2, standard_metric):
    for x, y in ((1.5, 0.2), (0.2, 1.5), (1.5, 1.5)):
        with pytest.raises(ValueError, match="1.5 outside domain"):
            chain_search(x, y, tent2, standard_metric, 0.1, 1.0, 1e-2)


def test_chain_with_singleton_balls_is_the_true_orbit(three_piece, ratio_phi_metric):
    # ratio-phi at t0 = 1/2 and delta = 0.05: every ball is one point
    orbit = orbits.orbit_states(three_piece, 0.25, 6)
    chain = chain_search(0.25, orbit[-1], three_piece, ratio_phi_metric, 0.05, 0.5)
    assert chain.states.tolist() == orbit.tolist()
    rep = chain_mixing_check(0.25, orbit[-1], three_piece, ratio_phi_metric, 0.05, 0.5,
                             n_max=10)
    assert rep.present == (6,) and rep.n0 is None


def test_chain_length_bounded_by_n_max(tent2, standard_metric):
    # the shortest chain 0.3 -> 0.7 at delta 0.01, t0 0.1 has 9 states
    args = (0.3, 0.7, tent2, standard_metric, 0.01, 0.1)
    assert chain_search(*args, n_max=8) is None
    assert chain_mixing_check(*args, n_max=8).present == ()
    assert len(chain_search(*args, n_max=9)) == 9
    assert chain_mixing_check(*args, n_max=9).present == (9,)


def test_chain_skips_a_float_tie(tent2, standard_metric):
    # y sits just inside the exact ball of f(0.2) = 0.4 (|0.4 - y| < 1/9), but
    # in floats 1/(1 + |0.4 - y|) is exactly 0.9, so [0.2, y] is no float chain
    y = 0.5111111111111111
    assert chain_mixing_check(0.2, y, tent2, standard_metric, 0.1, 1.0, n_max=3).present == (3,)
    chain = chain_search(0.2, y, tent2, standard_metric, 0.1, 1.0)
    assert len(chain) == 3 and chain[0] == 0.2 and chain[2] == y
    assert validate_f_pseudo_orbit(chain, tent2, standard_metric, 0.1, 1.0).is_empty


class _NoSlackMetric(StandardFuzzyMetric):
    """Claims float errors that cancel the kernel's rounding margin, so its
    reach radius is delta itself and the float tie above looks like a chain."""

    def float_slack(self, f, t):
        return Fraction(-2, 2**52)


def test_chain_that_fails_reverification_raises(tent2):
    y = 0.5111111111111111
    assert chain_mixing_check(0.2, y, tent2, _NoSlackMetric(), 0.1, 1.0, n_max=2).present == (2,)
    with pytest.raises(orbits.VerificationError, match="re-verification failed at index 0"):
        chain_search(0.2, y, tent2, _NoSlackMetric(), 0.1, 1.0)


def test_ratio_chain_reach_ends_stay_floats(three_piece, ratio_phi_metric):
    # exact ends under a ratio metric grow ~55 bits a step and never settle;
    # float ends keep each step small and settle on a float within ~90 steps
    radius, _ = orbits._chain_radii(0.2, 0.8, three_piece, ratio_phi_metric, 0.1, 1.0, 2048)
    sets = list(orbits._reach_sets(0.2, three_piece, ratio_phi_metric, radius, 1.0, 2048))
    assert len(sets) == 2048
    assert all(Fraction(float(end)) == end for reach in sets for end in (reach.lo, reach.hi))
    assert sets[200:] == [sets[-1]] * (2048 - 200)
    rep = chain_mixing_check(0.2, 0.8, three_piece, ratio_phi_metric, 0.1, 1.0, n_max=2048)
    assert rep.n0 is not None and rep.present[-1] == 2048


@example(spec="g:1/256", name="standard", x=0.001, delta=0.5, t0=0.001, ulps=0)
@given(spec=st.sampled_from(["tent:2", "tent:sqrt2", "example43", "g:1/256"]),
       name=st.sampled_from(["standard", "ratio-phi", "ratio"]),
       x=st.floats(0.0, 1.0, exclude_min=True), delta=st.floats(1e-6, 0.999),
       t0=st.floats(1e-3, 10.0), ulps=st.integers(0, 3))
def test_walk_back_balls_hold_only_float_valid_steps(spec, name, x, delta, t0, ulps):
    # a float state z within ulps floats of the edge of the walk-back ball
    # around the exact image f(x), and inside it, is near f(x) in floats too
    f = map_from_spec(spec)
    if name != "standard" and not spec.startswith(("example43", "g:")):
        return
    m = (StandardFuzzyMetric(lo_open=f.lo_open) if name == "standard"
         else metric_from_name(name))
    _, walk = orbits._chain_radii(x, x, f, m, delta, t0, 1)
    image = f.image(Interval.point(x))
    ball = m.ball_interval(image, walk, t0)
    if ball == image:
        return
    for end, inward in ((ball.lo, math.inf), (ball.hi, -math.inf)):
        z = float(end)
        for _ in range(ulps):
            z = math.nextafter(z, inward)
        if z in ball and m.contains(z):
            seq = OrbitSequence(np.array([x, z]))
            assert validate_f_pseudo_orbit(seq, f, m, delta, t0).is_empty


@pytest.mark.parametrize("kwargs", [{"delta": 0.0}, {"delta": 1.0}, {"t0": 0.0},
                                    {"t0": float("inf")}, {"t0": float("nan")},
                                    {"n_max": 0}])
def test_chain_parameters_checked(tent2, standard_metric, kwargs):
    args = {"delta": 0.1, "t0": 1.0, **kwargs}
    for check in (chain_search, chain_mixing_check):
        with pytest.raises(ValueError, match="chains need delta in"):
            check(0.2, 0.8, tent2, standard_metric, **args)


@pytest.mark.parametrize("validate", [
    lambda seq, f, m: validate_f_pseudo_orbit(seq, f, m, 0.1, 1.0),
    lambda seq, f, m: npo_set(seq, f, m, 0.1, 1.0),
    lambda seq, f, m: classical_validate(seq, f, 0.1),
    lambda seq, f, m: ns_set(seq, 0.3, f, m, 0.1, 1.0),
    lambda seq, f, m: orbits.classical_ns_set(seq, 0.3, f, 0.1),
], ids=["validate", "npo", "classical-validate", "ns", "classical-ns"])
def test_validators_reject_states_outside_map_domain(tent2, standard_metric, validate):
    # f(1.7) = -1.4 extrapolates tent:2's pieces, so transition 2 would pass
    seq = OrbitSequence(np.array([0.3, 0.6, 1.7, -1.4, 0.5]))
    with pytest.raises(ValueError, match=r"state -1\.4 outside domain of tent:2"):
        validate(seq, tent2, standard_metric)
    # an open lower end excludes 0 itself
    with pytest.raises(ValueError, match="state 0.0 outside domain of example43"):
        validate(OrbitSequence(np.array([0.3, 0.0, 0.3])), example43_map(), standard_metric)


def test_csv_roundtrip(tmp_path, tent2):
    seq = tent2.orbit(0.3, 20)
    path = tmp_path / "orbit.csv"
    seq.to_csv(path)
    back = OrbitSequence.from_csv(path)
    assert back.provenance == "file"
    assert np.array_equal(back.states, seq.states)


def test_csv_bytes_match_csv_writer(tmp_path, tent2):
    seq = OrbitSequence(np.concatenate([perturbed_orbit(tent2, 0.3, 50, 0.05).states,
                                        [1e-300, 5e-324, 1e22, -0.0, 0.1]]))
    path = tmp_path / "orbit.csv"
    seq.to_csv(path)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "value"])
        for i, v in enumerate(seq.states):
            writer.writerow([i, repr(float(v))])
    assert path.read_bytes() == reference.read_bytes()


def test_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("i,v\n0,0.5\n")
    with pytest.raises(OrbitFileError, match="line 1"):
        OrbitSequence.from_csv(bad_header)

    bad_row = tmp_path / "b.csv"
    bad_row.write_text("index,value\n0,0.5\n1,abc\n")
    with pytest.raises(OrbitFileError, match="line 3"):
        OrbitSequence.from_csv(bad_row)

    out_of_order = tmp_path / "c.csv"
    out_of_order.write_text("index,value\n0,0.5\n2,0.25\n")
    with pytest.raises(OrbitFileError, match="line 3"):
        OrbitSequence.from_csv(out_of_order)


def _row_loop(path):
    """The reference reading: the csv.reader row loop alone."""
    with open(path, newline="") as fh:
        return orbits._read_rows(fh)


def _reading(read, path):
    """A comparable result of a reader: the bits of its states, or its error
    and line."""
    try:
        return np.asarray(read(path), dtype=float).tobytes()
    except OrbitFileError as exc:
        return str(exc), exc.line


_EDGE_STATES = [-0.0, 5e-324, 1e-300, 0.0, 1.0]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pattern=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
       n=st.integers(20_000, 30_000))
def test_csv_roundtrip_is_bit_exact_across_blocks(tmp_path, pattern, n):
    # even 9-character lines ("0,1.0\r\n" and up) fill more than two blocks
    states = np.resize(np.array(_EDGE_STATES + pattern), n)
    path = tmp_path / "orbit.csv"
    OrbitSequence(states).to_csv(path)
    assert path.stat().st_size > 2 * orbits._CSV_BLOCK
    with open(path, newline="") as fh:
        bulk = orbits._read_bulk(fh)
    assert bulk is not None, "the bulk reader refused to_csv's own layout"
    assert np.array(bulk).tobytes() == states.tobytes()
    assert OrbitSequence.from_csv(path).states.tobytes() == states.tobytes()
    assert _row_loop(path) == bulk


_DEFECT_ROW = 5000  # past the first block of the file below


@pytest.mark.parametrize("line, fault", [
    ("5000,abc\r\n", "could not convert string to float: 'abc'"),
    ("5000,1e\r\n", "could not convert string to float: '1e'"),
    ("5000,\r\n", "could not convert string to float: ''"),
    ("5001,0.5\r\n", "index 5001 out of order"),
    ("5000.0,0.5\r\n", "invalid literal for int()"),
    ("5000,0.5,1\r\n", "expected 2 fields, got 3"),
    ("5000,0." + "1" * 140_000 + "\r\n", "field larger than field limit (131072)"),
    ("\r\n5000,0.5\r\n", None),
    ('5000,"0.5"\r\n', None),
    ("5000,0.5\n", None),
    ("5000, 0.5\r\n", None),
    ("+5000,0.5\r\n", None),
    ("05000,0.5\r\n", None),
    ("5_000,0.5\r\n", None),
], ids=["bad-value", "bad-exponent", "empty-value", "out-of-order", "float-index", "3-fields",
        "over-long-field", "blank-line", "quoted", "bare-LF", "space", "plus-index",
        "leading-zero-index", "underscore-index"])
def test_bulk_reader_agrees_with_the_row_loop(tmp_path, line, fault):
    states = perturbed_orbit(tent(math.sqrt(2)), 0.4, 8000, 0.01, seed=5).states
    rows = [f"{i},{v!r}\r\n" for i, v in enumerate(states.tolist())]
    assert len("".join(rows[:_DEFECT_ROW])) > orbits._CSV_BLOCK
    rows[_DEFECT_ROW] = line
    path = tmp_path / "defect.csv"
    path.write_bytes(("index,value\r\n" + "".join(rows)).encode())
    expected = _reading(_row_loop, path)
    assert _reading(OrbitSequence.from_csv, path) == expected
    if fault is None:  # the row loop reads the defect as the value it replaced
        assert expected == np.concatenate([states[:_DEFECT_ROW], [0.5],
                                           states[_DEFECT_ROW + 1:]]).tobytes()
    else:
        message, lineno = expected
        assert fault in message and lineno == _DEFECT_ROW + 2


def test_bulk_reader_pairs_fields_line_by_line(tmp_path):
    # 3 fields on one line and 1 on the next average 2 per line; paired
    # across the line end they would read as indices 5000 and 5001
    rows = [f"{i},0.5\r\n" for i in range(8000)]
    rows[_DEFECT_ROW:_DEFECT_ROW + 2] = ["5000,0.5,5001\r\n", "0.25\r\n"]
    path = tmp_path / "shifted.csv"
    path.write_bytes(("index,value\r\n" + "".join(rows)).encode())
    with pytest.raises(OrbitFileError, match="^line 5002: expected 2 fields, got 3$"):
        OrbitSequence.from_csv(path)


@pytest.mark.parametrize("newline", ["\r\n", "\n"])
def test_overlong_field_is_an_orbit_file_error(tmp_path, newline):
    path = tmp_path / "big.csv"
    path.write_bytes(f"index,value{newline}0,0.{'1' * 140_000}{newline}".encode())
    with pytest.raises(OrbitFileError, match=r"line 2: field larger than field limit"):
        OrbitSequence.from_csv(path)


def test_empty_sequence_rejected():
    with pytest.raises(ValueError):
        OrbitSequence(np.array([]))
