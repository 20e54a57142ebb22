import csv
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fuzzyshadow import orbits
from fuzzyshadow.fuzzy_metric import (
    Interval,
    RatioPhiFuzzyMetric,
    StandardFuzzyMetric,
    bridge_threshold,
    metric_from_name,
    require_in_domain,
)
from fuzzyshadow.orbits import (
    IndexSet,
    OrbitFileError,
    OrbitSequence,
    build_transitivity_orbit,
    chain_mixing_check,
    chain_search,
    chain_with_lengths,
    classical_validate,
    density,
    interleave_for_power,
    npo_set,
    ns_set,
    perturbed_orbit,
    transitivity_skeleton,
    validate_f_pseudo_orbit,
)
from fuzzyshadow.systems import (IntervalMap, IteratedMap, Piece, example43_map, map_from_spec,
                                 tent)
from exact_reference import ball_union, pl_map, point, reference_contains, reference_preimage


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


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 10**5, 10**8])
def test_skeleton_length_counts_both_families(n):
    # a_k = k(k+1) < n for the k counted here, b_k = (k+1)**2 < n for k < isqrt(n - 1)
    a_count = sum(1 for k in range(math.isqrt(n) + 2) if k * (k + 1) < n)
    assert len(transitivity_skeleton(n)) == a_count + math.isqrt(n - 1)


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


_B = orbits._BLOCK
_BLOCK_EDGE_LENGTHS = (1, 2, _B - 1, _B, _B + 1, 2 * _B + 1)
_VALIDATOR_CASES = {
    "standard": ("tent:sqrt2", "standard"),
    "ratio": ("example43", "ratio"),
    "ratio-phi": ("example43", "ratio-phi"),
    "classical": ("tent:sqrt2", None),
}


def _whole_array_violations(states, f, name, delta, t0):
    """The transition violations of one pass over the whole sequence."""
    mapped, nxt = f.eval_array(states[:-1]), states[1:]
    if name is None:
        return np.flatnonzero(-np.abs(mapped - nxt) <= -delta)
    return np.flatnonzero(metric_from_name(name).eval_array(mapped, nxt, t0) <= 1.0 - delta)


def _sequence(f, transitions, noise, seed, bump):
    """A perturbed orbit with the given number of transitions; replacing
    state bump puts violations at transitions bump - 1 and bump."""
    states = perturbed_orbit(f, 0.3, transitions, noise, seed=seed).states
    if 0 < bump < states.size:
        states[bump] = 0.9 if states[bump] < 0.6 else 0.2
    return OrbitSequence(states)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(_VALIDATOR_CASES)),
       transitions=st.one_of(st.sampled_from(_BLOCK_EDGE_LENGTHS),
                             st.integers(min_value=1, max_value=2 * _B + 2)),
       noise=st.sampled_from([0.0, 0.005, 0.02]),
       seed=st.integers(min_value=0, max_value=2**16),
       bump=st.integers(min_value=0, max_value=2 * _B + 2))
@example(case="standard", transitions=_B - 1, noise=0.0, seed=0, bump=0)
@example(case="standard", transitions=_B + 1, noise=0.0, seed=0, bump=_B - 1)
@example(case="standard", transitions=2 * _B + 1, noise=0.0, seed=0, bump=_B + 1)
@example(case="classical", transitions=2 * _B + 1, noise=0.0, seed=0, bump=_B)
@example(case="ratio", transitions=_B, noise=0.005, seed=1, bump=_B - 1)
@example(case="ratio-phi", transitions=2 * _B + 1, noise=0.0, seed=2, bump=2 * _B + 1)
@example(case="classical", transitions=1, noise=0.02, seed=3, bump=1)
@example(case="ratio", transitions=2, noise=0.0, seed=4, bump=2)
def test_blocked_validators_match_one_whole_array_pass(case, transitions, noise, seed, bump):
    spec, name = _VALIDATOR_CASES[case]
    f, delta, t0 = map_from_spec(spec), 0.01, 1.0
    seq = _sequence(f, transitions, noise, seed, bump)
    if name is None:
        got = classical_validate(seq, f, delta)
    else:
        got = validate_f_pseudo_orbit(seq, f, metric_from_name(name), delta, t0)
    want = _whole_array_violations(seq.states, f, name, delta, t0)
    assert got.universe == transitions
    assert got.indices.dtype == np.int64 and np.array_equal(got.indices, want)
    if noise == 0.0 and 0 < bump <= transitions:
        assert {bump - 1, bump} & set(got.indices.tolist())


@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=1, max_value=5),
       n=st.one_of(st.sampled_from(_BLOCK_EDGE_LENGTHS),
                   st.integers(min_value=1, max_value=2 * _B + 2)),
       seed=st.integers(min_value=0, max_value=2**16))
@example(k=4, n=2 * _B + 1, seed=0)
@example(k=3, n=_B + 1, seed=1)
@example(k=2, n=_B, seed=2)
@example(k=5, n=_B - 1, seed=3)
@example(k=2, n=1, seed=4)
def test_blocked_interleave_matches_one_whole_array_pass(k, n, seed):
    f = tent(math.sqrt(2))
    seq = OrbitSequence(np.random.default_rng(seed).uniform(0.0, 1.0, n))
    want = np.empty(k * n)
    cur = seq.states
    for l in range(k):
        want[l::k] = cur
        cur = f.eval_array(cur)
    got = interleave_for_power(seq, k, f).states
    assert got.tobytes() == want.tobytes()


def test_validation_memory_stays_blocked(tent2, standard_metric):
    # one pass over the whole sequence holds 22.9 MB of temporaries here
    seq = build_transitivity_orbit(0.3, 0.7, tent2, 10**6)
    tracemalloc.start()
    try:
        bad = validate_f_pseudo_orbit(seq, tent2, standard_metric, 0.01, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bad.issubset(transitivity_skeleton(len(seq)))
    assert peak < 3 * 2**20


# the whole-list formulas the blocked passes replaced, kept as references


def _whole_perturbed(f, x0, n, noise, seed):
    kicks = np.random.default_rng(seed).uniform(-noise, noise, n).tolist()
    return np.array(f.perturbed_states(x0, kicks))


def _whole_tracing(states, x, f, score, floor):
    return np.flatnonzero(score(np.array(f.states(x, states.size)), states) <= floor)


def _whole_csv(states):
    rows = "".join(f"{i},{v!r}\r\n" for i, v in enumerate(states.tolist()))
    return ("index,value\r\n" + rows).encode()


@pytest.mark.parametrize("n", _BLOCK_EDGE_LENGTHS)
@pytest.mark.parametrize("spec", ["tent:sqrt2", "example43", "g:1/256"])
def test_blocked_perturbed_orbit_matches_one_whole_draw(spec, n):
    f = map_from_spec(spec)
    got = perturbed_orbit(f, 0.3, n, 0.3, seed=n).states
    assert got.tobytes() == _whole_perturbed(f, 0.3, n, 0.3, n).tobytes()


@pytest.mark.parametrize("n", _BLOCK_EDGE_LENGTHS)
def test_blocked_tracing_sets_match_one_whole_orbit(n):
    # the true orbit of x0 tracks the noisy sequence for a while, then
    # leaves it, so violations start inside the first block
    f, m = tent(math.sqrt(2)), metric_from_name("standard")
    power = IteratedMap(f, 2)
    seq = perturbed_orbit(f, 0.3, n - 1, 1e-9, seed=n)
    fuzzy = orbits.fuzzy_score(f, m, 1.0)
    for x in (0.3, 0.31):
        got = ns_set(seq, x, f, m, 0.01, 1.0)
        assert got.universe == n
        assert np.array_equal(got.indices, _whole_tracing(seq.states, x, f, fuzzy, 0.99))
        for g in (f, power):
            got = orbits.classical_ns_set(seq, x, g, 0.001)
            want = _whole_tracing(seq.states, x, g, orbits.classical_score, -0.001)
            assert got.indices.dtype == np.int64 and np.array_equal(got.indices, want)


# steps of 2**-17 and the first state of the leaky piece, (_B + 9) 2**-17
_STEP, _TOP = Fraction(1, 2**17), _B + 9


def _step_then_leak():
    """A map of [0, 1] whose float orbit of k 2**-17 steps up by 2**-17
    exactly, reaches its leaky piece at (_B + 9) 2**-17 and next leaves the
    domain, below 0 by float rounding alone."""
    top = _TOP * _STEP
    knots = [Fraction(0), top - _STEP, top - _STEP + _STEP * Fraction(2, 201), top, Fraction(1)]
    values = [_STEP, top, Fraction(1, 3), Fraction(0), Fraction(1, 2)]
    return pl_map(knots, values, name="leaky")


def _outcome(call):
    """The bits a call returns, or the message of the ValueError it raises."""
    try:
        return np.asarray(call()).tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("leak_at", [_B - 1, _B, _B + 1])
def test_an_orbit_leaving_the_domain_in_a_later_block_raises_as_before(leak_at):
    f, m = _step_then_leak(), metric_from_name("standard")
    x = float((_TOP + 1 - leak_at) * _STEP)  # state leak_at is the first outside
    assert f.states(x, leak_at + 1)[-1] < 0.0
    for n in (leak_at, leak_at + 1, leak_at + 2, 2 * _B + 1):
        seq = OrbitSequence(np.full(n, 0.5))
        got = _outcome(lambda: ns_set(seq, x, f, m, 0.01, 1.0).indices)
        want = _outcome(lambda: _whole_tracing(seq.states, x, f, orbits.fuzzy_score(f, m, 1.0),
                                               0.99))
        assert got == want
        # the last state of the orbit is not checked, as in IntervalMap.states
        assert isinstance(got, bytes) == (n <= leak_at + 1)
    assert "outside domain of leaky" in got


@pytest.mark.parametrize("n", _BLOCK_EDGE_LENGTHS)
def test_blocked_csv_matches_the_whole_file(tmp_path, n):
    states = perturbed_orbit(tent(math.sqrt(2)), 0.3, n - 1, 0.01, seed=n).states
    path = tmp_path / "orbit.csv"
    OrbitSequence(states).to_csv(path)
    assert path.read_bytes() == _whole_csv(states)
    back = OrbitSequence.from_csv(path).states
    assert back.tobytes() == states.tobytes() == np.array(_row_loop(path)).tobytes()


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


_LONG = 10**6  # states: the whole-list passes traced 39-111 MB here


def test_tracing_memory_stays_blocked(tent2, standard_metric):
    seq = tent2.orbit(0.3, _LONG - 1)
    peak, bad = _traced_peak(lambda: ns_set(seq, 0.3, tent2, standard_metric, 0.01, 1.0))
    assert bad.is_empty and bad.universe == _LONG
    assert peak < 3 * 2**20  # 38.6 MB whole


def test_generation_memory_stays_blocked():
    # the result alone takes 7.6 MB
    f = tent(math.sqrt(2))
    peak, seq = _traced_peak(lambda: perturbed_orbit(f, 0.3, _LONG - 1, 0.01))
    assert len(seq) == _LONG
    assert peak < 12 * 2**20  # 70.0 MB whole


def test_csv_memory_stays_blocked(tmp_path):
    states = np.random.default_rng(0).uniform(0.0, 1.0, _LONG)
    path = tmp_path / "long.csv"
    peak, _ = _traced_peak(lambda: OrbitSequence(states).to_csv(path))
    assert peak < 5 * 2**20  # 110.9 MB whole
    peak, back = _traced_peak(lambda: OrbitSequence.from_csv(path))
    assert back.states.tobytes() == states.tobytes()
    assert peak < 11 * 2**20  # 39.5 MB whole, 15.5 MB concatenating blocks


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
    (lambda f: f.states(0.3, -1), "n must be nonnegative"),
], ids=["x0-above", "x0-below", "noise-nan", "noise-inf", "noise-negative", "n-negative",
        "orbit-states-n-negative"])
def test_orbit_inputs_rejected(tent2, call, message):
    with pytest.raises(ValueError, match=message):
        call(tent2)


def test_perturbed_orbit_without_steps(tent2):
    assert perturbed_orbit(tent2, 0.3, 0, 0.01).states.tolist() == [0.3]
    quiet = perturbed_orbit(tent2, 0.3, 10, 0.0).states
    assert np.array_equal(quiet, tent2.states(0.3, 11))


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
        got = np.array(f.states(x, n))
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
    orbit = np.array(three_piece.states(0.25, 6))
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
    sets = [Interval(Fraction(a), Fraction(b))
            for a, b in orbits._reach_sets(0.2, three_piece, ratio_phi_metric, radius, 1.0, 2048)]
    assert len(sets) == 2048
    assert all(Fraction(float(end)) == end for reach in sets for end in (reach.lo, reach.hi))
    assert sets[200:] == [sets[-1]] * (2048 - 200)
    rep = chain_mixing_check(0.2, 0.8, three_piece, ratio_phi_metric, 0.1, 1.0, n_max=2048)
    assert rep.n0 is not None and rep.present[-1] == 2048



class _CountingImages(IntervalMap):
    """Counts exact interval images, one per reach step that is taken."""

    images = 0

    def integer_image(self, a, b):
        self.images += 1
        return super().integer_image(a, b)


@pytest.mark.parametrize("spec, metric, steps", [("tent:2", "standard", 4),
                                                 ("example43", "ratio-phi", 90)])
@pytest.mark.parametrize("n_max", [256, 2048])
def test_a_stationary_reach_set_is_not_imaged_again(spec, metric, steps, n_max):
    # the reach sets settle after a fixed number of steps, so the work of a
    # spectrum does not grow with n_max past them
    base = map_from_spec(spec)
    f = _CountingImages(base.pieces, base.lo_open, base.name)
    f.images = 0  # construction images the domain once
    chain_mixing_check(0.2, 0.8, f, metric_from_name(metric), 0.1, 1.0, n_max=n_max)
    assert f.images == steps


@st.composite
def _rational_maps(draw):
    """The paper's maps, and continuous maps of [0, 1] or (0, 1] with knots
    and values on 1/1000, values at the domain's ends often."""
    if draw(st.booleans()):
        return map_from_spec(draw(st.sampled_from(
            ["tent:2", "tent:sqrt2", "tent:1.6", "example43", "g:1/256", "g:0.001"])))
    lo_open = draw(st.booleans())
    cuts = sorted(draw(st.sets(st.integers(1, 999), max_size=4)))
    value = st.one_of(st.sampled_from([int(lo_open), 1000]), st.integers(int(lo_open), 1000))
    values = draw(st.lists(value, min_size=len(cuts) + 2, max_size=len(cuts) + 2))
    return pl_map([Fraction(k, 1000) for k in (0, *cuts, 1000)],
                  [Fraction(v, 1000) for v in values], lo_open)


def _round_in(iv: Interval) -> Interval:
    """The closed interval from the least to the greatest float of iv (empty
    when iv holds none)."""
    a, b = float(iv.lo), float(iv.hi)
    # each float end converted once, so the tests compare fractions
    lo, hi = Fraction(a), Fraction(b)
    if lo < iv.lo or (lo == iv.lo and not iv.lo_closed):
        lo = Fraction(math.nextafter(a, math.inf))
    if hi > iv.hi or (hi == iv.hi and not iv.hi_closed):
        hi = Fraction(math.nextafter(b, -math.inf))
    return Interval(lo, hi)


def _fraction_reach_step(a, b, f, m, radius, t0) -> Interval:
    """The reach step in Fractions: the floats of B(f([a, b])) & X."""
    exact = getattr(f, "_power", f)  # a power map's composition
    reach = Interval(Fraction(a), Fraction(b))
    image = exact.image(reach)
    ball = ball_union(m, image, radius, t0)
    if ball == image:  # singleton balls: step the float orbit
        ball = point(f.eval(float(reach.lo)))
    return _round_in(ball & exact.domain)


@given(f=_rational_maps(), name=st.sampled_from(["standard", "ratio-phi", "ratio"]),
       big_v=st.integers(-2**1100, 2**1100),
       radius=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
       | st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)]),
       t0=st.floats(1e-3, 1.0) | st.floats(1.0, 1e300))
def test_integer_ball_ends_are_the_ball_rules(f, name, big_v, radius, t0):
    # about V / D, D = unit 2**1074, the ends are V q / D - r and
    # V / (q D) + r exactly, with (q, r) = ball_rule; None under singletons
    m = metric_from_name(name)
    ball, rule = orbits._integer_ball(f, m, radius, t0), m.ball_rule(radius, t0)
    if rule is None:
        assert ball is None
        return
    (q, r), big_d = rule, f.integer_table.unit << 1074
    lo_mul, lo_add, lo_den, hi_mul, hi_add, hi_den = ball
    assert Fraction(big_v * lo_mul + lo_add, big_d * lo_den) == big_v * q / big_d - r
    assert Fraction(big_v * hi_mul + hi_add, big_d * hi_den) == big_v / (q * big_d) + r


# in floats f(0.8680000000000001) = 1.0000000000000002, outside the domain
_PEAK = pl_map([Fraction(0), Fraction(868, 1000), Fraction(1)],
               [Fraction(822, 1000), Fraction(1), Fraction(822, 1000)], lo_open=True)
# in floats f(5e-324) = 0.0, outside the domain
_QUARTER = pl_map([Fraction(0), Fraction(1)], [Fraction(0), Fraction(1, 4)], lo_open=True)
# f(1/2) = 1/4 - 2**-1074: the ball of radius 1/4 about it starts at
# -2**-1074, whose least float above is -0.0
_HALF_DOWN = pl_map([Fraction(-1), Fraction(1)],
                    [Fraction(-1, 2) - Fraction(5e-324), Fraction(1, 2) - Fraction(5e-324)])


@example(f=_PEAK, name="ratio-phi", ends=[0.8680000000000001] * 2, delta=0.05, floor_ulps=None,
         radius=None, t0=0.5)  # a singleton-ball float step that leaves the domain
@example(f=_QUARTER, name="ratio-phi", ends=[5e-324] * 2, delta=0.05, floor_ulps=None,
         radius=None, t0=0.5)  # the set empties
@example(f=example43_map(), name="ratio", ends=[5e-324] * 2, delta=0.1, floor_ulps=None,
         radius=None, t0=1.0)
@example(f=tent(2.0), name="standard", ends=[0.2, 0.3], delta=0.9999999999, floor_ulps=None,
         radius=None, t0=1e300)  # the ball's offset t0 rho / (1 - rho) exceeds every float
@example(f=tent(2.0), name="standard", ends=[0.25, 0.25], delta=0.5, floor_ulps=None,
         radius=Fraction(1, 3), t0=1.0)  # the ball (0, 1): both ends on the domain's
@example(f=_HALF_DOWN, name="standard", ends=[0.5, 0.5], delta=0.5, floor_ulps=None,
         radius=Fraction(1, 5), t0=1.0)  # a lower end of -0.0
@given(f=_rational_maps(), name=st.sampled_from(["standard", "ratio-phi", "ratio"]),
       ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       delta=st.floats(0.0, 0.999, exclude_min=True), floor_ulps=st.none() | st.integers(1, 3),
       radius=st.none() | st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)]),
       t0=st.floats(1e-3, 1.0) | st.floats(1.0, 1e300))
def test_integer_reach_step_matches_the_fraction_step(f, name, ends, delta, floor_ulps, radius,
                                                      t0):
    # set for set and bit for bit, over six steps or until the set empties;
    # the radius is a chain's reach radius at delta, or at floor_ulps floats
    # above the least delta chains accept, or given, when ball ends are
    # often floats
    m = StandardFuzzyMetric(lo=-1.0) if name == "standard" else metric_from_name(name)
    a, b = sorted(ends)
    assume(f.contains(a) and f.contains(b) and (name == "standard" or f.lo_open))
    if floor_ulps is not None:
        least = 4 * Fraction(2.0**-52) + 2 * m.float_slack(f, t0)
        delta = float(least)
        for _ in range(floor_ulps if delta > least else floor_ulps + 1):
            delta = math.nextafter(delta, math.inf)
    if radius is None:
        try:
            radius, _ = orbits._chain_radii(a, b, f, m, delta, t0, 1)
        except ValueError:  # delta at or below the floor, or delta >= 1
            assume(False)
    step = orbits._reach_step(f, m, radius, t0)
    for _ in range(6):
        expected = _fraction_reach_step(a, b, f, m, radius, t0)
        got = step(a, b)
        if expected.is_empty:
            assert got[0] > got[1]
            return
        assert [v.hex() for v in got] == [float(e).hex() for e in (expected.lo, expected.hi)]
        a, b = got


def _fraction_walk_step(a, b, s, f, m, walk, t0):
    """The walk-back step in Fractions: the float midpoint of the floats of
    the widest part of [a, b] & f^-1(B(s)), the leftmost on ties, or None
    when no part holds a float."""
    ball = ball_union(m, point(s), walk, t0)
    parts = [_round_in(part)
             for part in reference_preimage(f, ball, Interval(Fraction(a), Fraction(b)))]
    part = max((p for p in parts if not p.is_empty), key=lambda p: p.hi - p.lo, default=None)
    return None if part is None else float((part.lo + part.hi) / 2)


def _fraction_chain(x, y, f, m, delta, t0, n_max):
    """chain_search's states with the walk-back done in Fractions, or None."""
    radius, walk = orbits._chain_radii(x, y, f, m, delta, t0, n_max)
    path = []
    for a, b in orbits._reach_sets(x, f, m, radius, t0, n_max):
        if a <= y <= b:
            break
        path.append((a, b))
    else:
        return None
    states = [float(y)]
    for a, b in reversed(path):
        states.append(a if a == b else _fraction_walk_step(a, b, states[-1], f, m, walk, t0))
    return states[::-1]


# 1/4 on [0, 3/5], then up to 1: at s = 1/2 the ball (1/4, 3/4) of radius
# 1/5 at t0 = 1 has the flat value on its lower end, and the flat piece
# would be the widest part
_FLAT_ON_END = pl_map([Fraction(0), Fraction(3, 5), Fraction(1)],
                      [Fraction(1, 4), Fraction(1, 4), Fraction(1)])
# 1/2 on (0, 1/2], then up to 1: under singleton balls {1/2} pulls back to
# the whole flat piece
_FLAT_ON_POINT = pl_map([Fraction(0), Fraction(1, 2), Fraction(1)],
                        [Fraction(1, 2), Fraction(1, 2), Fraction(1)], lo_open=True)
# up by slope 4 on [1/2, 3/4] and down on [3/4, 1]: the parts over the ball
# (1/4, 3/4) are (9/16, 11/16) and (13/16, 15/16), float intervals of one
# binade and equal width
_TWIN_PARTS = pl_map([Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1)],
                     [Fraction(0), Fraction(0), Fraction(1), Fraction(0)])
# slope 2**-1100: a ball's preimage ends lie beyond every float (slope
# 2**-1000 puts them near 1e300, still floats)
_NEARLY_FLAT = IntervalMap([Piece(Fraction(0), Fraction(1), Fraction(1, 2**1100),
                                  Fraction(1, 2))])


@example(f=_FLAT_ON_END, name="standard", ends=[0.0, 1.0], succ=0.5, image=False, delta=0.5,
         floor_ulps=None, walk=Fraction(1, 5), t0=1.0)  # a flat value on a ball end
@example(f=_FLAT_ON_POINT, name="ratio-phi", ends=[0.25, 0.75], succ=0.5, image=False,
         delta=0.05, floor_ulps=None, walk=None, t0=0.5)  # a flat value on {s}
@example(f=example43_map(), name="ratio-phi", ends=[0.25, 0.75], succ=0.5, image=False,
         delta=0.05, floor_ulps=None, walk=None, t0=0.5)  # {1/2} pulls back to one knot
@example(f=_TWIN_PARTS, name="standard", ends=[0.5, 1.0], succ=0.5, image=False, delta=0.5,
         floor_ulps=None, walk=Fraction(1, 5), t0=1.0)  # a tie: the leftmost part wins
@example(f=_TWIN_PARTS, name="standard", ends=[0.5, 0.9375], succ=0.5, image=False, delta=0.5,
         floor_ulps=None, walk=Fraction(1, 5), t0=1.0)  # b on an open end of the preimage
@example(f=_QUARTER, name="ratio", ends=[5e-324, 0.001], succ=5e-324, image=False, delta=0.1,
         floor_ulps=None, walk=None, t0=1.0)
@example(f=_NEARLY_FLAT, name="standard", ends=[0.0, 1.0], succ=0.5, image=False, delta=0.5,
         floor_ulps=None, walk=Fraction(1, 5), t0=1.0)  # both ends beyond every float
@example(f=_NEARLY_FLAT, name="standard", ends=[0.0, 1.0], succ=0.9, image=False, delta=0.5,
         floor_ulps=None, walk=Fraction(1, 5), t0=1.0)  # the lower end above every float
@example(f=_NEARLY_FLAT, name="standard", ends=[0.0, 1.0], succ=0.1, image=False, delta=0.5,
         floor_ulps=None, walk=Fraction(1, 5), t0=1.0)  # the upper end below every float
@example(f=tent(2.0), name="standard", ends=[0.2, 0.3], succ=0.5, image=False,
         delta=0.9999999999, floor_ulps=None, walk=None, t0=1e300)
@given(f=_rational_maps(), name=st.sampled_from(["standard", "ratio-phi", "ratio"]),
       ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), succ=st.floats(0.0, 1.0),
       image=st.booleans(), delta=st.floats(0.0, 0.9999999999, exclude_min=True),
       floor_ulps=st.none() | st.integers(1, 3),
       walk=st.none() | st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)]),
       t0=st.floats(1e-3, 1.0) | st.floats(1.0, 1e300))
def test_integer_walk_back_step_matches_the_fraction_step(f, name, ends, succ, image, delta,
                                                          floor_ulps, walk, t0):
    # bit for bit, None for None; the successor is a random float, or the
    # image of a point of the pair, and the radius a chain's walk-back
    # radius at delta, or at floor_ulps floats above the least delta chains
    # accept, or given, when ball ends are often floats
    m = StandardFuzzyMetric(lo=-1.0) if name == "standard" else metric_from_name(name)
    a, b = sorted(ends)
    assume(f.contains(a) and f.contains(b) and (name == "standard" or f.lo_open))
    if image:
        succ = f.eval(min(max(a + succ * (b - a), a), b))
    if floor_ulps is not None:
        least = 4 * Fraction(2.0**-52) + 2 * m.float_slack(f, t0)
        delta = float(least)
        for _ in range(floor_ulps if delta > least else floor_ulps + 1):
            delta = math.nextafter(delta, math.inf)
    if walk is None:
        try:
            _, walk = orbits._chain_radii(a, b, f, m, delta, t0, 1)
        except ValueError:  # delta at or below the floor, or delta >= 1
            assume(False)
    got = orbits._walk_step(f, m, walk, t0)(a, b, succ)
    expected = _fraction_walk_step(a, b, succ, f, m, walk, t0)
    assert (got if got is None else got.hex()) == (expected if expected is None
                                                   else expected.hex())


@settings(max_examples=60, deadline=None)
@given(f=_rational_maps(), name=st.sampled_from(["standard", "ratio-phi", "ratio"]),
       ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       delta=st.floats(1e-6, 0.9), t0=st.floats(1e-3, 10.0))
def test_chain_search_matches_a_fraction_walk_back(f, name, ends, delta, t0):
    m = StandardFuzzyMetric(lo=-1.0) if name == "standard" else metric_from_name(name)
    x, y = ends
    assume(f.contains(x) and f.contains(y) and (name == "standard" or f.lo_open))
    try:
        expected = _fraction_chain(x, y, f, m, delta, t0, 64)
    except ValueError:  # delta at or below the floor
        assume(False)
    chain = chain_search(x, y, f, m, delta, t0)
    assert (None if chain is None else [v.hex() for v in chain.states.tolist()]) == (
        None if expected is None else [v.hex() for v in expected])


def test_the_walk_back_makes_no_fraction(monkeypatch):
    # the walk-back steps run in integers: a step builds no Fraction
    def forbidden(*args, **kwargs):
        raise AssertionError("called in the walk-back")

    f, m = example43_map(), RatioPhiFuzzyMetric()
    expected = chain_search(0.26, 0.74, f, m, 0.1, 1.0)
    assert len(expected) > 2
    radius, walk = orbits._chain_radii(0.26, 0.74, f, m, 0.1, 1.0, 64)
    path = list(orbits._reach_sets(0.26, f, m, radius, 1.0, len(expected)))[:-1]
    step = orbits._walk_step(f, m, walk, 1.0)
    states = [0.74]
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", forbidden)
        for a, b in reversed(path):
            states.append(step(a, b, states[-1]))
    assert states[::-1] == expected.states.tolist()


@pytest.mark.parametrize("x, y", [(math.nan, 1.5), (1.5, math.nan), (math.nan, 0.5),
                                  (0.5, math.nan), (2.0, 1.5), (1.5, 2.0), (-0.5, 2.0),
                                  (0.0, 0.5), (0.5, 0.0), (np.float64(1.25), 0.5)])
def test_chain_domain_errors_match_the_array_check(x, y):
    # the least state, then the greatest, named as require_in_domain names
    # them on the pair as an array; NaN is both
    f = example43_map()
    with pytest.raises(ValueError) as expected:
        require_in_domain(f, np.array([x, y], dtype=float))
    for check in (chain_search, chain_mixing_check):
        with pytest.raises(ValueError) as got:
            check(x, y, f, RatioPhiFuzzyMetric(), 0.1, 1.0)
        assert str(got.value) == str(expected.value)


def test_a_chain_from_minus_zero_starts_at_zero(tent2, standard_metric):
    # the exact reach sets read -0.0 as 0, so the chain's first state is 0.0
    chain = chain_search(-0.0, 0.8, tent2, standard_metric, 0.1, 1.0)
    assert math.copysign(1.0, chain[0]) == 1.0 and chain[len(chain) - 1] == 0.8


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
    image = f.image(point(x))
    ball = ball_union(m, image, walk, t0)
    if ball == image:
        return
    for end, inward in ((ball.lo, math.inf), (ball.hi, -math.inf)):
        z = float(end)
        for _ in range(ulps):
            z = math.nextafter(z, inward)
        if reference_contains(ball, z) and m.contains(z):
            seq = OrbitSequence(np.array([x, z]))
            assert validate_f_pseudo_orbit(seq, f, m, delta, t0).is_empty


_POWERS = {g.name: g for g in (IteratedMap(tent(2.0), 2), IteratedMap(tent(math.sqrt(2)), 3),
                                IteratedMap(example43_map(), 3))}


@example(name="tent:2^2", metric="standard", ends=[0.2, 0.8], delta=0.1, t0=1.0)
@example(name="example43^3", metric="ratio-phi", ends=[0.2, 0.8], delta=0.1, t0=1.0)
@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_POWERS)),
       metric=st.sampled_from(["standard", "ratio-phi", "ratio"]),
       ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       delta=st.floats(1e-6, 0.9), t0=st.floats(1e-3, 10.0))
def test_power_map_chains_pass_their_rechecks(name, metric, ends, delta, t0):
    # a power map's chains read its composition's exact pieces and are
    # re-checked with its strided floats, as the benchmark re-checks chains
    f = _POWERS[name]
    m = StandardFuzzyMetric() if metric == "standard" else metric_from_name(metric)
    x, y = ends
    assume(f.contains(x) and f.contains(y) and (metric == "standard" or f.lo_open))
    try:
        chain = chain_search(x, y, f, m, delta, t0)
    except ValueError:  # delta at or below the floor
        assume(False)
    found, report = chain_with_lengths(x, y, f, m, delta, t0)
    assert chain_mixing_check(x, y, f, m, delta, t0) == report
    assert (chain is None) == (found is None) == (not report.present)
    if chain is not None:
        assert chain.states.tolist() == found.states.tolist()
        assert (chain[0], chain[len(chain) - 1], report.present[0]) == (x, y, len(chain))
        assert len(chain) == 1 or validate_f_pseudo_orbit(chain, f, m, delta, t0).is_empty
    radius, _ = orbits._chain_radii(x, y, f, m, delta, t0, 1)
    reach = orbits._reach_sets(x, f, m, radius, t0, 8)
    a, b = next(reach)
    for got in reach:
        expected = _fraction_reach_step(a, b, f, m, radius, t0)
        if expected.is_empty:
            assert got[0] > got[1]
            break
        assert [v.hex() for v in got] == [float(e).hex() for e in (expected.lo, expected.hi)]
        a, b = got


@pytest.mark.parametrize("kwargs", [{"delta": 0.0}, {"delta": 1.0}, {"t0": 0.0},
                                    {"t0": float("inf")}, {"t0": float("nan")},
                                    {"n_max": 0}, {"n_max": 10**6 + 1}])
def test_chain_parameters_checked(tent2, standard_metric, kwargs):
    args = {"delta": 0.1, "t0": 1.0, **kwargs}
    for check in (chain_search, chain_mixing_check):
        with pytest.raises(ValueError, match="chains need delta in"):
            check(0.2, 0.8, tent2, standard_metric, **args)


def test_chain_radius_below_float_resolution_raises(standard_metric):
    # f(0.3) is one float step from 0.3, yet at delta 1e-17 the reach radius
    # was negative and the search answered "none"
    f = tent(math.sqrt(2))
    y = f.eval(0.3)
    least = 4 * Fraction(2.0**-52) + 2 * standard_metric.float_slack(f, 1.0)
    bound = float(least)
    if bound > least:
        bound = math.nextafter(bound, -math.inf)
    for check in (chain_search, chain_mixing_check):
        for delta in (1e-17, bound):
            with pytest.raises(ValueError, match=rf"^delta {delta!r} is too small to decide in "
                                                 rf"floats: it must exceed {bound!r}, 4 ulp\(1\)"):
                check(0.3, y, f, standard_metric, delta, 1.0)
        check(0.3, y, f, standard_metric, math.nextafter(bound, math.inf), 1.0)
    assert len(chain_search(0.3, y, f, standard_metric, 1e-14, 1.0)) == 2


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


_BAD_UNIT = [float("nan"), 0.0, 1.0, 1.5, -0.1]
_BAD_RADIUS = [float("nan"), float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("validate, radius", [
    *((lambda seq, f, m, r: validate_f_pseudo_orbit(seq, f, m, r, 1.0), r) for r in _BAD_UNIT),
    *((lambda seq, f, m, r: npo_set(seq, f, m, r, 1.0), r) for r in _BAD_UNIT),
    *((lambda seq, f, m, r: ns_set(seq, 0.3, f, m, r, 1.0), r) for r in _BAD_UNIT),
    *((lambda seq, f, m, r: classical_validate(seq, f, r), r) for r in _BAD_RADIUS),
    *((lambda seq, f, m, r: orbits.classical_ns_set(seq, 0.3, f, r), r) for r in _BAD_RADIUS),
], ids=[f"{name}-{r}" for name, rs in (("validate", _BAD_UNIT), ("npo", _BAD_UNIT),
                                       ("ns", _BAD_UNIT), ("classical-validate", _BAD_RADIUS),
                                       ("classical-ns", _BAD_RADIUS)) for r in rs])
def test_validators_reject_radii_out_of_range(tent2, standard_metric, validate, radius):
    # unchecked, nan and 1.5 passed every index and -1.0 flagged all of them
    seq = perturbed_orbit(tent2, 0.3, 50, 0.3, seed=1)
    with pytest.raises(ValueError, match=r"(delta|eps) must (lie in \(0, 1\)|be finite and "
                                         r"positive), got"):
        validate(seq, tent2, standard_metric, radius)


def test_skeleton_universe_capped():
    # unchecked, 10**18 would allocate 8 GB index arrays
    with pytest.raises(ValueError, match="^universe too long: 1000000000001, more than "):
        transitivity_skeleton(orbits.MAX_UNIVERSE + 1)


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
    assert _row_loop(path) == bulk.tolist()


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, _B + 7, 3 * _B - 1])
def test_a_nonfinite_state_in_any_block_is_rejected(bad, at):
    states = np.full(3 * _B, 0.5)
    states[at] = bad
    with pytest.raises(ValueError, match="^orbit states must be finite$"):
        OrbitSequence(states)


@pytest.mark.parametrize("indices", [[3, 3], [0, 5, 5, 9], [4, 2], [0, 1, 7, 6, 8],
                                     [*range(_B), _B - 1]],
                         ids=["duplicate", "inner-duplicate", "unsorted", "inner-unsorted",
                              "long-duplicate-at-end"])
def test_index_sets_must_strictly_increase(indices):
    with pytest.raises(ValueError, match="^indices must be strictly increasing$"):
        IndexSet(np.array(indices), universe=2 * _B)


def test_chains_refuse_a_float_below_the_domain_and_a_subnormal_horizon(standard_metric):
    # 0.3333333333333333, the nearest float of 1/3, lies below the domain
    # [1/3, 2/3]; at t0 = 5e-324 the float slack passes the largest float
    f = IntervalMap([Piece(Fraction(1, 3), Fraction(2, 3), Fraction(-1), Fraction(1))],
                    name="thirds")
    for check in (chain_search, chain_mixing_check):
        with pytest.raises(ValueError, match=r"state 0\.3333333333333333 outside domain of thirds"):
            check(0.3333333333333333, 0.5, f, standard_metric, 0.1, 1.0)
    assert chain_search(0.33333333333333337, 0.5, f, standard_metric, 0.1, 1.0) is not None
    with pytest.raises(ValueError, match=r"it must exceed 1\.7976931348623157e\+308"):
        chain_search(0.2, 0.8, map_from_spec("tent:2"), standard_metric, 0.1, 5e-324)
