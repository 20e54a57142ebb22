import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyshadow import orbits, systems
from fuzzyshadow.fuzzy_metric import Interval, StandardFuzzyMetric
from fuzzyshadow.systems import (
    ConstructionError,
    IntervalMap,
    IteratedMap,
    Piece,
    example43_map,
    map_from_spec,
    perturbation_g,
    tent,
)
from exact_reference import pl_map, reference_and, reference_contains, reference_preimage


def test_tent_evals(tent2):
    assert tent2.eval(0.25) == 0.5
    assert tent2.eval(0.5) == 1.0
    assert tent2.eval(0.75) == 0.5
    assert tent2.iterate(0.25, 2) == 1.0


def test_tent_sqrt2():
    f = tent(math.sqrt(2))
    assert f.eval(0.5) == pytest.approx(math.sqrt(2) / 2)


def test_tent_parameter_range():
    with pytest.raises(ValueError):
        tent(1.2)
    with pytest.raises(ValueError):
        tent(2.1)
    tent(math.sqrt(2))
    tent(2.0)


def test_three_piece_evals(three_piece):
    assert three_piece.eval(0.5) == 0.5
    assert three_piece.eval(0.75) == 0.875
    assert three_piece.eval(1.0) == 1.0
    assert three_piece.eval(0.25) == pytest.approx(5.0 / 16.0)


def test_three_piece_fixed_points(three_piece):
    assert three_piece.fixed_points() == (0.5, 1.0)


def test_three_piece_contracts_to_one(three_piece):
    assert abs(three_piece.iterate(0.9, 50) - 1.0) < 1e-6


def test_iterate_zero_is_identity(tent2, three_piece):
    for f, x in ((tent2, 0.37), (three_piece, 0.37)):
        assert f.iterate(x, 0) == x
        orb = f.orbit(x, 0)
        assert len(orb) == 1 and orb[0] == x


def test_orbit_provenance_and_conjugacy(tent2):
    orb = tent2.orbit(0.3, 200)
    assert orb.provenance == "true-orbit"
    stepped = tent2.eval_array(orb.states[:-1])
    assert np.array_equal(stepped, orb.states[1:])


def test_discontinuous_pieces_rejected():
    with pytest.raises(ValueError, match="discontinuity"):
        IntervalMap(
            (
                Piece(Fraction(0), Fraction(1, 2), Fraction(1), Fraction(0)),
                Piece(Fraction(1, 2), Fraction(1), Fraction(1), Fraction(1, 4)),
            )
        )


def test_escaping_image_rejected():
    with pytest.raises(ValueError, match=r"^image \[0, 3\] of map leaves its domain \[0, 1\]$"):
        IntervalMap((Piece(Fraction(0), Fraction(1), Fraction(3), Fraction(0)),))


@pytest.mark.parametrize("knots, values, image", [
    ((0, 1), (1, 0), "[0, 1)"),  # 1 - x attains 0 at 1
    ((0, "1/2", 1), (0, 0, 1), "[0, 1]"),  # flat at 0 on (0, 1/2]
])
def test_image_touching_the_open_end_rejected(knots, values, image):
    with pytest.raises(ValueError) as err:
        pl_map(knots, values, lo_open=True)
    assert str(err.value) == f"image {image} of map leaves its domain (0, 1]"


def test_open_end_limit_allowed():
    # x on (0, 1] only tends to the excluded 0
    assert pl_map((0, 1), (0, 1), lo_open=True).image(
        Interval(Fraction(0), Fraction(1), False)) == Interval(Fraction(0), Fraction(1), False)


def test_gap_between_pieces_rejected():
    with pytest.raises(ValueError, match="tile"):
        IntervalMap(
            (
                Piece(Fraction(0), Fraction(1, 4), Fraction(1), Fraction(0)),
                Piece(Fraction(1, 2), Fraction(1), Fraction(0), Fraction(1, 2)),
            )
        )


def test_self_map_on_grid(tent2, three_piece):
    g = perturbation_g(1.0 / 256.0)
    for f in (tent2, three_piece, g):
        xs = f.grid(1e-5)
        ys = f.eval_array(xs)
        assert np.all(ys <= f.domain_hi)
        assert np.all(ys > f.domain_lo) if f.lo_open else np.all(ys >= f.domain_lo)


def test_domain_membership(three_piece, tent2):
    assert not three_piece.contains(0.0)
    assert three_piece.contains(1e-9)
    assert tent2.contains(0.0)
    with pytest.raises(ValueError):
        three_piece.eval(0.0)
    assert (tent2.domain_lo, tent2.domain_hi) == (0.0, 1.0)
    cube = IteratedMap(three_piece, 3)
    assert (cube.domain_lo, cube.domain_hi, cube.lo_open) == (0.0, 1.0, True)
    # messages print the float, not a numpy scalar's repr
    for call in (lambda x: tent2.eval(x), lambda x: tent2.iterate(x, 2),
                 lambda x: tent2.orbit(x, 2)):
        with pytest.raises(ValueError, match=r"^1\.5 outside domain of tent:2$"):
            call(np.float64(1.5))


# x on [0, 1/3], (1 - x)/2 above: at float(1/3) the right piece rounds one
# ulp above the left, so picking the wrong piece there shows in the bits,
# which it does not on the dyadic breakpoints of the paper's maps
_KINK = IntervalMap((Piece(Fraction(0), Fraction(1, 3), Fraction(1), Fraction(0)),
                     Piece(Fraction(1, 3), Fraction(1), Fraction(-1, 2), Fraction(1, 2))),
                    name="kink:1/3")
_EVAL_MAPS = tuple(map_from_spec(spec) for spec in ("tent:2", "tent:sqrt2", "example43",
                                                    "g:1/256")) + (_KINK,)


@st.composite
def _map_and_state(draw):
    """A map with a state of its domain: any state, or one at a breakpoint, a
    domain end or one ulp either side of a breakpoint."""
    f = draw(st.sampled_from(_EVAL_MAPS))
    lo = math.nextafter(f.domain_lo, math.inf) if f.lo_open else f.domain_lo
    breaks = [float(p.hi) for p in f.pieces[:-1]]
    special = [lo, f.domain_hi, *breaks,
               *(math.nextafter(b, side) for b in breaks for side in (-math.inf, math.inf))]
    if not f.lo_open:
        special.append(-0.0)
    x = draw(st.one_of(st.sampled_from(special),
                       st.floats(lo, f.domain_hi, allow_nan=False)))
    return f, x


@given(_map_and_state())
def test_scalar_eval_matches_eval_array_bits(case):
    f, x = case
    y = f.eval(x)
    assert type(y) is float
    assert y.hex() == float(f.eval_array([x])[0]).hex()


def test_perturbation_g_properties(three_piece):
    alpha = 1.0 / 256.0
    g = perturbation_g(alpha)
    assert g.eval(0.5) == 0.5
    assert g.eval(1.0) == 1.0
    assert g.eval(0.25) > 0.25
    xs = g.grid(1e-5)
    gap = np.max(np.abs(three_piece.eval_array(xs) - g.eval_array(xs)))
    assert gap < alpha
    # strictly increasing
    ys = g.eval_array(xs)
    assert np.all(np.diff(ys) > 0)


@pytest.mark.parametrize("alpha", [0.0, 1.0 / 128.0, 0.5, -1e-3, math.inf, -math.inf,
                                   math.nan, float("1e400")])
def test_perturbation_g_range(alpha):
    with pytest.raises(ValueError, match=r"must lie in \(0, 1/128\)"):
        perturbation_g(alpha)


@st.composite
def _map_pair(draw):
    """Two continuous maps of [0, 1] (or (0, 1]) with knots and values on 1/64."""
    lo_open = draw(st.booleans())

    def one_map():
        inner = draw(st.sets(st.integers(1, 63), max_size=6))
        knots = [0, *sorted(inner), 64]
        values = draw(st.lists(st.integers(int(lo_open), 64), min_size=len(knots),
                               max_size=len(knots)))
        return pl_map([Fraction(k, 64) for k in knots], [Fraction(v, 64) for v in values],
                      lo_open)

    return one_map(), one_map()


@given(_map_pair(), st.lists(st.integers(1, 4096), min_size=1, max_size=20))
def test_sup_distance_is_attained_at_a_breakpoint(pair, probes):
    f, g = pair
    d = systems.sup_distance(f, g)
    assert isinstance(d, Fraction)
    cuts = {p.lo for p in f.pieces + g.pieces} | {Fraction(1)}
    assert any(abs(f.value(x) - g.value(x)) == d for x in cuts)
    assert all(abs(f.value(x) - g.value(x)) <= d
               for x in (Fraction(k, 4096) for k in probes))
    # the dense float grid exceeds it by rounding at most, and on a closed
    # domain the grid holds every breakpoint, so it reaches it too
    xs = f.grid(1 / 1024)
    dense = float(np.max(np.abs(f.eval_array(xs) - g.eval_array(xs))))
    assert dense <= float(d) + 1e-12
    if not f.lo_open:
        assert dense >= float(d) - 1e-12


def test_sup_distance_needs_a_shared_domain(tent2, three_piece):
    assert systems.sup_distance(three_piece, perturbation_g(1 / 256)) == Fraction(1, 512)
    with pytest.raises(ValueError, match="do not share a domain"):
        systems.sup_distance(tent2, three_piece)
    with pytest.raises(ValueError, match="do not share a domain"):
        systems.sup_distance(tent2, pl_map([0, "1/2"], [0, "1/2"]))


_E43_KNOTS = (0, "1/2", "3/4", 1)
_E43_VALUES = ("1/8", "1/2", "7/8", 1)


@pytest.mark.parametrize("knots, values, message", [
    # the diagonal itself: 1/8 away from the base map at the open end
    ([0, 1], [0, 1], "sup-distance 1/8 not below 1/256"),
    # 1/2 moves up by 1/1024
    (_E43_KNOTS, ("1/8", "513/1024", "7/8", 1), "must fix 1/2 and 1"),
    # flat on its last 1/512
    ((*_E43_KNOTS[:3], "511/512", 1), (*_E43_VALUES[:3], 1, 1), "strictly increasing"),
    # touches the diagonal at 255/256 only, between grid points 1e-5 apart
    ((*_E43_KNOTS[:3], "255/256", "511/512", 1),
     (*_E43_VALUES[:3], "255/256", "1023/1024", 1), "above the diagonal"),
    # crosses below it inside (1/2, 3/4)
    ((0, "1/2", "129/256", "3/4", 1), ("1/8", "1/2", "515/1024", "7/8", 1),
     "above the diagonal"),
], ids=["sup-gap", "fixed-points", "slope", "touch", "cross"])
def test_verify_perturbation_rejects(three_piece, knots, values, message):
    g = pl_map(knots, values, lo_open=True)
    with pytest.raises(ConstructionError, match=message):
        systems._verify_perturbation(three_piece, g, Fraction(1, 256))


def test_verify_perturbation_rejects_a_piece_on_the_diagonal():
    # g = id on [1/2, 1]: positive at every knot but 1/2 and 1, yet 0 in between
    g = pl_map((0, "1/2", 1), ("1/8", "1/2", 1), lo_open=True)
    with pytest.raises(ConstructionError, match="above the diagonal"):
        systems._verify_perturbation(g, g, Fraction(1, 256))


def test_map_svg_draws_exact_breakpoints(three_piece):
    from fuzzyshadow.cli import render_map_svg

    g = perturbation_g(1 / 256)
    svg = render_map_svg([("example43", three_piece), ("g", g), ("tent:2", tent(2.0))])
    drawn = re.findall(r'<polyline points="([^"]*)"', svg)
    assert len(drawn) == 3
    # unit box of 430 px with a 45 px margin; y grows downward
    for m, points in zip((three_piece, g, tent(2.0)), drawn):
        xs = [p.lo for p in m.pieces] + [m.pieces[-1].hi]
        want = " ".join(f"{45 + 430 * float(x):.2f},{475 - 430 * float(m.value(x)):.2f}"
                        for x in xs)
        assert points == want
    # example43 starts at its limit 1/8 at the open end 0
    assert drawn[0].split()[0] == "45.00,421.25"


def test_power_map_matches_composition(tent2):
    f2 = IteratedMap(tent2, 2)
    xs = np.linspace(0.0, 1.0, 257)
    assert np.array_equal(f2.eval_array(xs), tent2.eval_array(tent2.eval_array(xs)))
    assert f2.eval(0.25) == 1.0
    assert f2.iterate(0.25, 1) == tent2.iterate(0.25, 2)


@st.composite
def _power_maps(draw):
    """tent:2, tent:sqrt2 or example43 to a power k <= 8, or a continuous map
    of [0, 1] or (0, 1] with knots and values on 1/1000 to a power k <= 4."""
    if draw(st.booleans()):
        f = map_from_spec(draw(st.sampled_from(["tent:2", "tent:sqrt2", "example43"])))
        return IteratedMap(f, draw(st.integers(1, 8)))
    lo_open = draw(st.booleans())
    cuts = sorted(draw(st.sets(st.integers(1, 999), max_size=5)))
    value = st.one_of(st.sampled_from([int(lo_open), 1000]), st.integers(int(lo_open), 1000))
    values = draw(st.lists(value, min_size=len(cuts) + 2, max_size=len(cuts) + 2))
    f = pl_map([Fraction(k, 1000) for k in (0, *cuts, 1000)],
               [Fraction(v, 1000) for v in values], lo_open)
    return IteratedMap(f, draw(st.integers(1, 4)))


def _k_fold(step, x, k):
    for _ in range(k):
        x = step(x)
    return x


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_power_map_value_and_image_are_the_k_fold_ones(data):
    power = data.draw(_power_maps())
    f, k, g = power.base, power.k, power._power
    lo, hi = g.knots[0], g.knots[-1]
    assert (g.knots[0], g.knots[-1], g.lo_open) == (f.knots[0], f.knots[-1], f.lo_open)
    rationals = st.integers(0, 10**6).map(lambda n: lo + (hi - lo) * Fraction(n, 10**6))
    for x in [*g.knots, *data.draw(st.lists(rationals, min_size=20, max_size=20))]:
        assert g.value(x) == _k_fold(f.value, x, k)
    a, b = sorted(data.draw(st.lists(rationals, min_size=2, max_size=2)))
    iv = Interval(a, b, a > lo or not g.lo_open, data.draw(st.booleans()))
    assert g.image(iv) == _k_fold(f.image, iv, k)


@pytest.mark.parametrize("spec, counts", [
    ("tent:2", [2, 4, 8, 16, 32, 64, 128, 256]),
    ("tent:sqrt2", [2, 4, 8, 14, 24, 38, 60, 90]),
    ("example43", [3, 4, 5, 6, 7, 8, 9, 10]),
])
def test_power_map_piece_counts(spec, counts):
    # collinear neighbours are merged: example43^k has k + 2 pieces
    f = map_from_spec(spec)
    assert [len(IteratedMap(f, k)._power.pieces) for k in range(1, 9)] == counts


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_power_map_floats_stay_within_their_error_scales(data):
    # k strides of the base map against the exact composition: absolutely
    # within 2**-51 eval_scale, and on (0, 1] relatively within
    # 2**-52 (relative_eval_scale + 1), the errors float_slack reads
    g = data.draw(_power_maps())
    inner = [v for v in map(float, g._power.knots) if g.contains(v)]
    x = data.draw(st.sampled_from(inner) | st.floats(g.least, g.greatest))
    try:
        y = Fraction(g.eval(x))
    except ValueError:  # a stride left the domain in floats
        return
    exact = g._power.value(Fraction(x))
    assert abs(y - exact) < Fraction(2.0**-51) * g.eval_scale
    if g.lo_open:
        assert abs(y - exact) < Fraction(2.0**-52) * (g.relative_eval_scale + 1) * exact


def test_power_map_error_scales_compound_the_base_ones(three_piece):
    cube = IteratedMap(three_piece, 3)
    L, K = three_piece.lipschitz, three_piece.log_lipschitz
    assert cube.eval_scale == three_piece.eval_scale * (1 + L + L**2)
    assert cube.relative_eval_scale + 1 == (three_piece.relative_eval_scale + 1) * (1 + K + K**2)
    # the Lipschitz constants are the composition's own: slopes 3/4, 3/2, 1/2
    assert (cube.lipschitz, IteratedMap(three_piece, 1).eval_scale) == (
        Fraction(27, 8), three_piece.eval_scale)


def test_power_map_composes_on_first_exact_use_only(tent2):
    g = IteratedMap(tent2, 50)  # 2**50 pieces: never built by float use
    assert g.eval(0.1) == tent2.iterate(0.1, 50)
    g.eval_array(np.linspace(0.0, 1.0, 9))
    g.states(0.3, 4)
    assert "_power" not in vars(g)
    assert not hasattr(g, "piece_index") and not hasattr(g, "perturbed_states")


def test_power_map_piece_count_is_capped(tent2, monkeypatch):
    monkeypatch.setattr(IteratedMap, "MAX_PIECES", 16)
    assert len(IteratedMap(tent2, 4)._power.pieces) == 16
    with pytest.raises(ValueError, match=r"^tent:2\^5 has 32 pieces, more than the 16 a power "
                                         r"map may have$"):
        IteratedMap(tent2, 7).integer_table


def test_map_from_spec():
    assert map_from_spec("example43").name == "example43"
    assert map_from_spec("tent:2").eval(0.5) == 1.0
    assert map_from_spec("tent:sqrt2").eval(0.5) == pytest.approx(math.sqrt(2) / 2)
    assert map_from_spec("g:1/256").eval(0.5) == 0.5
    with pytest.raises(ValueError):
        map_from_spec("logistic:4")
    with pytest.raises(ValueError):
        map_from_spec("tent:abc")


def _iv(lo, hi, lo_closed=True, hi_closed=True):
    return Interval(Fraction(lo), Fraction(hi), lo_closed, hi_closed)


@pytest.mark.parametrize("iv, image", [
    (_iv("1/4", "3/4"), _iv("1/2", 1)),  # the peak is an interior breakpoint
    (_iv(0, "1/2", False, False), _iv(0, 1, False, False)),  # open ends stay open
    (_iv("1/4", "1/4"), _iv("1/2", "1/2")),
    (_iv("1/2", 1, False, True), _iv(0, 1, True, False)),  # slope -2 swaps the ends
    (_iv("1/4", "3/4", False, True), _iv("1/2", 1)),  # 1/2 is attained at 3/4
])
def test_image_of_interval(tent2, iv, image):
    assert tent2.image(iv) == image


def test_image_detects_flat_pieces():
    # f = 1/2 on [0, 1/2], the identity above; the open interval (0, 1/2)
    # attains 1/2 inside, not only at its open ends
    half = Fraction(1, 2)
    f = IntervalMap([Piece(Fraction(0), half, Fraction(0), half),
                     Piece(half, Fraction(1), Fraction(1), Fraction(0))])
    assert f.image(_iv(0, "1/2", False, False)) == _iv("1/2", "1/2")


def _float_midpoint(part):
    """The float midpoint of the floats of part."""
    lo = float(part.lo) if part.lo_closed else math.nextafter(float(part.lo), math.inf)
    hi = float(part.hi) if part.hi_closed else math.nextafter(float(part.hi), -math.inf)
    return float((Fraction(lo) + Fraction(hi)) / 2)


def test_preimage_of_interval(tent2):
    # tent:2 maps (1/8, 3/8) and (5/8, 7/8) onto (1/4, 3/4), the standard
    # ball of radius 1/5 at t = 1 about 1/2; the walk-back step takes the
    # float midpoint of the widest part
    step = orbits._walk_step(tent2, StandardFuzzyMetric(), Fraction(1, 5), 1.0)
    ball = _iv("1/4", "3/4", False, False)
    left, right = _iv("1/8", "3/8", False, False), _iv("5/8", "7/8", False, False)
    assert reference_preimage(tent2, ball, _iv(0, 1)) == [left, right]
    # the floats of (1/8, 3/8) span 5 * 2**-55 more than those of (5/8, 7/8),
    # whose spacing is wider
    assert step(0.0, 1.0, 0.5) == _float_midpoint(left)
    cut = _iv("1/4", "3/8", True, False)
    assert reference_preimage(tent2, ball, _iv("1/4", 1)) == [cut, right]
    assert step(0.25, 1.0, 0.5) == _float_midpoint(right) == 0.75
    # the ball (9/4, 11/4) about 5/2 lies above the range [0, 1]
    assert reference_preimage(tent2, _iv("9/4", "11/4", False, False), _iv(0, 1)) == []
    assert step(0.0, 1.0, 2.5) is None


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from(["tent:2", "tent:sqrt2", "tent:1.6"]))
def test_image_bounds_dense_evaluation(a, b, spec):
    f = map_from_spec(spec)
    lo, hi = min(a, b), max(a, b)
    image = f.image(_iv(lo, hi))
    xs = np.linspace(lo, hi, 257)
    # exact values at the float samples lie inside the exact image, and the
    # float evaluation misses its ends by a rounding at most
    assert all(reference_contains(image, f.value(Fraction(x))) for x in xs.tolist())
    ys = f.eval_array(np.concatenate([xs, [float(p.hi) for p in f.pieces
                                           if lo < p.hi < hi]]))
    assert float(image.lo) == pytest.approx(ys.min(), abs=1e-15)
    assert float(image.hi) == pytest.approx(ys.max(), abs=1e-15)


@pytest.mark.parametrize("call, end", [
    (lambda f: f.value(Fraction(2)), "2"),
    (lambda f: f.value(Fraction(-1)), "-1"),
    (lambda f: f.image(_iv(0, 2)), "2"),
    (lambda f: f.image(_iv(-1, "1/2")), "-1"),
    (lambda f: f.image(_iv("3/2", 2)), "3/2"),
])
def test_exact_evaluation_outside_the_domain_rejected(tent2, call, end):
    with pytest.raises(ValueError, match=rf"^{end} outside domain of tent:2$"):
        call(tent2)


def test_exact_evaluation_at_an_open_end_is_the_limit(three_piece):
    # example43 lives on (0, 1]; at 0 value and image give the limit 1/8
    assert three_piece.value(Fraction(0)) == Fraction(1, 8)
    assert three_piece.image(_iv(0, 0)) == _iv("1/8", "1/8")
    assert three_piece.image(_iv(0, "1/2", False, True)) == _iv("1/8", "1/2", False, True)
    with pytest.raises(ValueError, match=r"^-1/4 outside domain of example43$"):
        three_piece.value(Fraction(-1, 4))


# -- the exact interval kernel against plain reference definitions -------------


def _reference_value(f, x):
    """f(x) on the first piece whose upper end is at least x."""
    return next(p for p in f.pieces if x <= p.hi).value(x)


def _reference_image(f, iv):
    """The image from f at both ends, at every breakpoint inside iv, and at
    the middle of every piece of iv (which finds a flat piece at an open end)."""
    cuts = [iv.lo, *(b for b in f.knots if iv.lo < b < iv.hi), iv.hi]
    seen = [(_reference_value(f, iv.lo), iv.lo_closed), (_reference_value(f, iv.hi), iv.hi_closed)]
    seen += [(_reference_value(f, b), True) for b in cuts[1:-1]]
    seen += [(_reference_value(f, (a + b) / 2), True) for a, b in zip(cuts, cuts[1:])]
    lo, hi = min(v for v, _ in seen), max(v for v, _ in seen)
    return Interval(lo, hi, any(c for v, c in seen if v == lo),
                    any(c for v, c in seen if v == hi))


_UNIT_RATIONALS = st.fractions(0, 1, max_denominator=24)


@st.composite
def _pl_maps(draw):
    """Continuous PL self-maps of [0, 1] or (0, 1] with rational knots; few
    levels make flat pieces common."""
    inner = draw(st.sets(_UNIT_RATIONALS.filter(lambda v: 0 < v < 1), max_size=4))
    knots = [Fraction(0), *sorted(inner), Fraction(1)]
    lo_open = draw(st.booleans())
    # a map on (0, 1] must not attain 0, but may tend to it at the open end
    levels = st.integers(1 if lo_open else 0, 6).map(lambda k: Fraction(k, 6))
    values = draw(st.lists(levels, min_size=len(knots), max_size=len(knots)))
    if lo_open and draw(st.booleans()):
        values[0] = Fraction(0)
    return pl_map(knots, values, lo_open)


def _ends(f):
    return st.one_of(st.sampled_from(f.knots), _UNIT_RATIONALS,
                     st.floats(0.0, 1.0).map(Fraction))


@st.composite
def _nonempty_intervals(draw, f):
    a, b = sorted([draw(_ends(f)), draw(_ends(f))])
    if a == b or draw(st.booleans()) and draw(st.booleans()):
        return Interval(a, a)
    return Interval(a, b, draw(st.booleans()), draw(st.booleans()))


@st.composite
def _intervals(draw):
    """Any interval of [-1, 2], empty ones included; ends often shared."""
    ends = st.sampled_from([Fraction(k, 4) for k in range(-4, 9)]) | st.fractions(-1, 2, max_denominator=12)
    return Interval(draw(ends), draw(ends), draw(st.booleans()), draw(st.booleans()))


@settings(deadline=None)
@given(st.data())
def test_image_matches_the_knot_and_midpoint_reference(data):
    f = data.draw(_pl_maps())
    iv = data.draw(_nonempty_intervals(f))
    image, reference = f.image(iv), _reference_image(f, iv)
    assert image == reference and str(image) == str(reference)
    assert f.value(iv.lo) == _reference_value(f, iv.lo)


@settings(deadline=None)
@given(_intervals(), _intervals())
def test_interval_meet_matches_the_reference(a, b):
    assert a & b == reference_and(a, b)
    assert str(a & b) == str(reference_and(a, b))


def _least_float(k, strict):
    """The least float at or above k (above it when strict), stepped one
    float at a time from float(k)."""
    v = float(k)
    while Fraction(v) < k or (strict and Fraction(v) == k):
        v = math.nextafter(v, math.inf)
    while Fraction(math.nextafter(v, -math.inf)) > k or (
            not strict and Fraction(math.nextafter(v, -math.inf)) == k):
        v = math.nextafter(v, -math.inf)
    return v + 0.0


@pytest.mark.parametrize("knots, lo_open", [
    ((Fraction(0), Fraction(1, 2), Fraction(1)), False),
    ((Fraction(0), Fraction(1, 3), Fraction(3, 4), Fraction(1)), True),
    ((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)), True),
    ((Fraction(-1, 2**1100), Fraction(1, 10**400), Fraction(1, 2)), False),
    ((Fraction(0), Fraction(1, 10**400), Fraction(1)), True),
], ids=["dyadic", "thirds-open", "thirds-domain", "tiny-ends", "tiny-piece"])
def test_piece_floats_are_each_piece_rounded_inward(knots, lo_open):
    # identity pieces on the knots: each piece's least and greatest float,
    # the first one's above an open lower end, with no -0.0
    f = IntervalMap([Piece(a, b, Fraction(1), Fraction(0)) for a, b in zip(knots, knots[1:])],
                    lo_open=lo_open)
    want = [(_least_float(a, lo_open and i == 0),
             -_least_float(-b, False) + 0.0) for i, (a, b) in enumerate(zip(knots, knots[1:]))]
    assert [(lo.hex(), hi.hex()) for lo, hi in f.piece_floats] == [
        (lo.hex(), hi.hex()) for lo, hi in want]
    assert f.piece_floats is f.piece_floats  # built once


# 1 - x on [1/3, 2/3]: the nearest floats of its ends, 0.3333333333333333 and
# 0.6666666666666666, both lie below 1/3 and 2/3, so the first is outside
_THIRDS = IntervalMap([Piece(Fraction(1, 3), Fraction(2, 3), Fraction(-1), Fraction(1))],
                      name="thirds")


def test_a_domain_holds_exactly_the_floats_between_its_least_and_greatest():
    f = _THIRDS
    assert (f.least, f.greatest) == (0.33333333333333337, 0.6666666666666666)
    assert (f.least, f.greatest) == (f.piece_floats[0][0], f.piece_floats[-1][1])
    assert not f.contains(0.3333333333333333) and f.contains(0.33333333333333337)
    assert f.contains(0.6666666666666666) and not f.contains(0.6666666666666667)
    for call in (f.eval, lambda x: f.states(x, 3), lambda x: f.perturbed_states(x, [0.0])):
        with pytest.raises(ValueError, match=r"0\.3333333333333333 outside domain of thirds"):
            call(0.3333333333333333)
    cube = IteratedMap(f, 3)
    assert (cube.least, cube.greatest) == (f.least, f.greatest)
    assert not cube.contains(0.3333333333333333)
    assert all(map(f.contains, f.grid(1e-3)))
