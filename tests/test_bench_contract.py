"""The benchmark under perfbench/ wraps named functions and methods of the
package; a refactor that drops or moves one breaks every traced run, and one
that changes how often a wrapped method is called per unit of work makes its
traced counts incomparable with earlier runs."""

import inspect
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyshadow import fuzzy_metric, orbits
from fuzzyshadow.fuzzy_metric import StandardFuzzyMetric
from fuzzyshadow.systems import IteratedMap, example43_map, tent
from exact_reference import pl_map

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import trace, workloads  # noqa: E402
from perfbench.trace import TARGETS  # noqa: E402

_CHAIN_OPS = ("chain_search", "chain_mixing_check")


def test_traced_names_exist_on_their_owners():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in TARGETS if attr not in vars(owner)]
    assert not missing, f"traced names missing: {missing}"


# in floats f(0.233) = -1.1e-16, outside the domain
_LEAKY = pl_map([Fraction(0), Fraction(233, 1000), Fraction(241, 250), Fraction(1)],
                [Fraction(2, 3), Fraction(0), Fraction(2, 3), Fraction(1, 3)], name="leaky")


@st.composite
def _cut_maps(draw):
    """Continuous maps of [0, 1] or (0, 1] with knots and values on 1/1000."""
    lo_open = draw(st.booleans())
    cuts = sorted(draw(st.sets(st.integers(1, 999), max_size=5)))
    # values at the domain's ends often, where float images can leave it
    value = st.one_of(st.sampled_from([int(lo_open), 1000]), st.integers(int(lo_open), 1000))
    values = draw(st.lists(value, min_size=len(cuts) + 2, max_size=len(cuts) + 2))
    return pl_map([Fraction(k, 1000) for k in (0, *cuts, 1000)],
                  [Fraction(v, 1000) for v in values], lo_open)


@st.composite
def _orbit_cases(draw):
    """(map, start, count): the leaky map, example43 with its open end,
    tent:2 and random maps, with starts anywhere in the domain, at or next
    to a breakpoint, at a domain end or just outside."""
    f = draw(st.one_of(st.sampled_from([_LEAKY, example43_map(), tent(2.0)]), _cut_maps()))
    breaks = [float(p.hi) for p in f.pieces[:-1]]
    special = [f.domain_lo, f.domain_hi, math.nextafter(f.domain_lo, math.inf),
               math.nextafter(f.domain_hi, math.inf), -0.0, *breaks,
               *(math.nextafter(b, side) for b in breaks for side in (-math.inf, math.inf))]
    x = draw(st.one_of(st.sampled_from(special), st.floats(f.domain_lo, f.domain_hi)))
    return f, x, draw(st.one_of(st.integers(0, 12), st.integers(13, 300)))


def _reference_states(f, x, n, k=1):
    """x, f^k(x), ..., f^((n-1)k)(x), stepped by IntervalMap.eval, with the
    start checked as eval checks a state."""
    v = float(x)
    if not f.contains(v):
        raise ValueError(f"{v!r} outside domain of {f.name}")
    out = [v]
    for _ in range(n - 1):
        for _ in range(k):
            v = f.eval(v)
        out.append(v)
    return out[:n]


def _reference_perturbed(f, x, n, noise, seed):
    # the clamp floor above an open end is 1e-12 of the way up from the
    # least float, not from the end rounded to nearest
    lo, hi = f.least, f.greatest
    floor = lo + (hi - lo) * 1e-12 if f.lo_open else lo
    out = _reference_states(f, x, 1)
    for kick in np.random.default_rng(seed).uniform(-noise, noise, n).tolist():
        out.append(min(hi, max(floor, f.eval(out[-1]) + kick)))
    return out


def _outcome(call):
    """The bits of the states a call returns, or the message it raises."""
    try:
        result = call()
    except ValueError as exc:
        return str(exc)
    states = np.atleast_1d(np.asarray(getattr(result, "states", result), dtype=float))
    return [v.hex() for v in states.tolist()]


def test_the_last_state_is_not_checked():
    # f(0.233) leaves the domain in floats: it may end an orbit, but the map
    # is not applied to it
    assert _LEAKY.states(0.233, 2) == [0.233, -2.0**-53]
    with pytest.raises(ValueError, match=r"^-1\.1102230246251565e-16 outside domain of leaky$"):
        _LEAKY.states(0.233, 3)


# the benchmark re-checks orbits with IntervalMap.eval: every orbit loop
# gives its bits and raises its error at the same state


@example(case=(_LEAKY, 0.233, 2), k=1)
@example(case=(_LEAKY, 0.233, 3), k=1)
@example(case=(_LEAKY, 0.233, 2), k=2)
# f(x) = 0.233 in floats, so the power map's orbit ends outside the domain
@example(case=(_LEAKY, 0.48848450000000004, 2), k=2)
@example(case=(example43_map(), 0.0, 5), k=2)
# tent:2 sends -0.0 to 0.0: equal, but not the same bits, so not yet settled
@example(case=(tent(2.0), -0.0, 3), k=1)
@settings(max_examples=300, deadline=None)
@given(case=_orbit_cases(), k=st.integers(1, 4))
def test_true_orbits_match_the_eval_reference(case, k):
    f, x, n = case
    ref = _outcome(lambda: _reference_states(f, x, n))
    assert _outcome(lambda: f.states(x, n)) == ref
    if n:
        assert _outcome(lambda: f.orbit(x, n - 1)) == ref
        last = ref[-1:] if isinstance(ref, list) else ref
        assert _outcome(lambda: f.iterate(x, n - 1)) == last
    assert _outcome(lambda: IteratedMap(f, k).states(x, n)) == _outcome(
        lambda: _reference_states(f, x, n, k))


_TENTS = (tent(2.0), tent(math.sqrt(2)), tent(1.6))


def _edge_points(f):
    """Each breakpoint and both its float neighbours, the signed zeros, the
    least subnormal, finite points outside the domain and the infinities."""
    breaks = f._break_list
    return [*breaks, *(math.nextafter(b, side) for b in breaks for side in (-math.inf, math.inf)),
            0.0, -0.0, 5e-324, -0.25, 1.5, -1e300, 1e300, math.inf, -math.inf]


@st.composite
def _point_cases(draw):
    f = draw(st.one_of(st.sampled_from([_LEAKY, example43_map(), *_TENTS]), _cut_maps()))
    point = st.one_of(st.sampled_from(_edge_points(f)), st.floats(allow_nan=False))
    return f, draw(st.lists(point, max_size=20))


def _searchsorted_eval(f, xs):
    idx = np.searchsorted(f._breaks, xs, side="left")
    return f._slopes[idx] * xs + f._icepts[idx]


@example(case=(_LEAKY, _edge_points(_LEAKY)), k=2)
@example(case=(example43_map(), _edge_points(example43_map())), k=2)
@example(case=(_TENTS[0], _edge_points(_TENTS[0])), k=3)
@example(case=(_TENTS[1], _edge_points(_TENTS[1])), k=2)
@example(case=(_TENTS[2], _edge_points(_TENTS[2])), k=2)
@settings(max_examples=300, deadline=None)
@given(case=_point_cases(), k=st.integers(1, 4))
def test_piece_index_counts_the_breaks_below(case, k):
    # eval_array picks pieces by comparing with each break; a binary search
    # over the breaks is the reference, and the values match it bit for bit
    f, xs = case
    xs = np.array(xs, dtype=float)
    assert np.array_equal(f.piece_index(xs), np.searchsorted(f._breaks, xs, side="left"))
    # far outside the domain a value may overflow, and a flat piece sends
    # the infinities to NaN, alike in both
    with np.errstate(over="ignore", invalid="ignore"):
        want = _searchsorted_eval(f, xs)
        assert np.array_equal(f.eval_array(xs).view(np.int64), want.view(np.int64))
        for _ in range(k - 1):
            want = _searchsorted_eval(f, want)
        assert np.array_equal(IteratedMap(f, k).eval_array(xs).view(np.int64),
                              want.view(np.int64))


class _CountedCoeffs(tuple):
    """A map's coefficient table that counts its lookups, one per orbit step."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


def _counted(f):
    f._coeffs = _CountedCoeffs(f._coeffs)
    return f


def _seeded_starts(f, count=200):
    return np.random.default_rng(0).uniform(f.domain_lo, f.domain_hi, count).tolist()


@pytest.mark.parametrize("make, bound", [(lambda: tent(2.0), 60), (example43_map, 130)],
                         ids=["tent:2", "example43"])
def test_settled_orbits_stop_stepping(make, bound):
    # float orbits of the paper's maps reach a float fixed point, where the
    # rest of the orbit is filled in without stepping
    f = _counted(make())
    for x in _seeded_starts(f):
        f._coeffs.lookups = 0
        out = f.states(x, 10**5)
        assert f._coeffs.lookups <= bound
        assert len(out) == 10**5 and out[-1] == out[bound]
    x = _seeded_starts(f, 1)[0]
    assert f.states(x, 300) == _reference_states(f, x, 300)


def test_orbits_that_never_settle_step_every_state():
    f = _counted(tent(math.sqrt(2)))
    for x in _seeded_starts(f, 5):
        f._coeffs.lookups = 0
        f.states(x, 10**4)
        assert f._coeffs.lookups == 10**4 - 1


def test_settling_compares_bits_not_values():
    assert [v.hex() for v in tent(2.0).states(-0.0, 3)] == ["-0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]


def test_power_maps_of_settling_orbits_match_the_reference():
    f = tent(2.0)
    g = IteratedMap(f, 3)
    for x in _seeded_starts(f, 20):
        assert g.states(x, 100) == _reference_states(f, x, 100, 3)
        assert g.iterate(x, 30) == _reference_states(f, x, 91)[-1]


# (1, 1.0001] is so narrow that a clamp floor measured from the open end
# rounded to nearest, 1.0, would be that end
_NARROW = pl_map([Fraction(1), Fraction(10001, 10000)], [Fraction(1), Fraction(10001, 10000)],
                 lo_open=True, name="narrow")


@example(case=(example43_map(), 5e-324, 50), noise=0.5, seed=1)
@example(case=(_NARROW, 1.00005, 5), noise=0.5, seed=0)
@settings(max_examples=300, deadline=None)
@given(case=_orbit_cases(), noise=st.sampled_from([0.0, 1e-3, 0.1, 0.5]),
       seed=st.integers(0, 99))
def test_perturbed_orbits_match_the_eval_reference(case, noise, seed):
    f, x, n = case
    assert _outcome(lambda: orbits.perturbed_orbit(f, x, n, noise, seed)) == _outcome(
        lambda: _reference_perturbed(f, x, n, noise, seed))


def test_perturbed_orbit_clamps_above_an_excluded_open_end():
    # the floor is 1e-12 of the floats' span above the least float, 1 + 2**-52;
    # measured from the open end rounded to nearest it would be 1.0, outside
    got = orbits.perturbed_orbit(_NARROW, 1.00005, 5, 0.5, 0).states.tolist()
    assert got == [1.00005, 1.0001, 1 + 2**-52, 1 + 2**-52, 1 + 2**-52, 1.0001]


@pytest.mark.parametrize("name", _CHAIN_OPS)
def test_chain_functions_keep_resolution_seventh(name):
    # the benchmark passes chain grids positionally, and its chain-node hook
    # builds the metric grid at the bound resolution
    param = list(inspect.signature(getattr(orbits, name)).parameters.values())[6]
    assert param.name == "resolution"
    assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert StandardFuzzyMetric().grid(param.default).size > 1


def test_certificate_keeps_resolution_fifth_and_the_fields_the_benchmark_reads():
    # the benchmark passes certificate grids positionally, and its check
    # reads these fields of the result
    param = list(inspect.signature(fuzzy_metric.certify_fuzzy_continuity).parameters.values())[4]
    assert param.name == "resolution"
    assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    cert = fuzzy_metric.certify_fuzzy_continuity(StandardFuzzyMetric(), tent(2.0), 0.2, 1.0, 1e-3)
    assert {"holds", "eps", "t", "delta", "t_prime"} <= set(cert.to_dict())
    assert cert.holds and cert.t_prime == cert.t == 1.0 and 0.0 < cert.delta < cert.eps == 0.2


def test_chain_nodes_hook_binds_a_cli_style_call():
    bound = inspect.signature(orbits.chain_search).bind(
        0.2, 0.8, tent(2.0), StandardFuzzyMetric(), delta=0.1, t0=1.0, n_max=64)
    bound.apply_defaults()
    assert trace._chain_nodes(bound.arguments, None)["nodes"] >= 1001


def _chain_reach_failures(prefixes) -> dict:
    ops = [op for op in workloads.build("chain-reach", 7, quick=True).ops
           if op.label.startswith(prefixes)]
    assert ops
    results = {op.label: op.run() for op in ops}
    return {op.label: op.check(results[op.label], results) for op in ops}


def test_chain_reach_ops_pass_their_checks():
    failures = _chain_reach_failures(_CHAIN_OPS)
    assert not any(failures.values()), failures


def test_chain_reach_pair_checks_pass_their_checks():
    # the workload recomputes each certificate and margin with a full scan
    failures = _chain_reach_failures(("certify_fuzzy_continuity", "check_ratio_modulus",
                                      "check_metric_domination"))
    assert not any(failures.values()), failures


def test_tracing_sweep_ops_pass_their_checks():
    # each witness search is re-traced in floats by its check, and the ns_set
    # that follows it must find no violation
    queue = list(workloads.build("tracing-sweep", 7, quick=True).ops)
    ran, results = [], {}
    while queue:
        op = queue.pop(0)
        results[op.label] = op.run()
        ran.append(op)
        extra = op.follow(results[op.label])
        if extra is not None:
            queue.insert(0, extra)
    assert any(label.startswith("ns_set") for label in results)
    assert any(label.startswith("classical_ns_set") for label in results)
    failures = {op.label: op.check(results[op.label], results) for op in ran}
    assert not any(failures.values()), failures
