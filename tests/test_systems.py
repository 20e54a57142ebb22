import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyshadow import systems
from fuzzyshadow.fuzzy_metric import Interval
from fuzzyshadow.systems import (
    ConstructionError,
    IntervalMap,
    Piece,
    example43_map,
    map_from_spec,
    perturbation_g,
    power_map,
    tent,
)


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
    with pytest.raises(ValueError, match="image"):
        IntervalMap((Piece(Fraction(0), Fraction(1), Fraction(3), Fraction(0)),))


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
    cube = power_map(three_piece, 3)
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


def test_perturbation_g_range():
    with pytest.raises(ValueError):
        perturbation_g(0.0)
    with pytest.raises(ValueError):
        perturbation_g(1.0 / 128.0)
    with pytest.raises(ValueError):
        perturbation_g(0.5)


def test_power_map_matches_composition(tent2):
    f2 = power_map(tent2, 2)
    xs = np.linspace(0.0, 1.0, 257)
    assert np.array_equal(f2.eval_array(xs), tent2.eval_array(tent2.eval_array(xs)))
    assert f2.eval(0.25) == 1.0
    assert f2.iterate(0.25, 1) == tent2.iterate(0.25, 2)


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
    assert f.preimage(_iv("1/2", "1/2"), _iv(0, 1)) == [_iv(0, "1/2"), _iv("1/2", "1/2")]


def test_preimage_of_interval(tent2):
    # tent:2 maps (1/8, 3/8) and (5/8, 7/8) onto (1/4, 3/4)
    assert tent2.preimage(_iv("1/4", "3/4", False, False), _iv(0, 1)) == [
        _iv("1/8", "3/8", False, False), _iv("5/8", "7/8", False, False)]
    assert tent2.preimage(_iv("1/4", "3/4"), _iv("1/4", 1, False, True)) == [
        _iv("1/4", "3/8", False, True), _iv("5/8", "7/8")]
    assert tent2.preimage(_iv(2, 3), _iv(0, 1)) == []


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from(["tent:2", "tent:sqrt2", "tent:1.6"]))
def test_image_bounds_dense_evaluation(a, b, spec):
    f = map_from_spec(spec)
    lo, hi = min(a, b), max(a, b)
    image = f.image(_iv(lo, hi))
    xs = np.linspace(lo, hi, 257)
    # exact values at the float samples lie inside the exact image, and the
    # float evaluation misses its ends by a rounding at most
    assert all(f._exact(Fraction(x)) in image for x in xs.tolist())
    ys = f.eval_array(np.concatenate([xs, [float(p.hi) for p in f.pieces
                                           if lo < p.hi < hi]]))
    assert float(image.lo) == pytest.approx(ys.min(), abs=1e-15)
    assert float(image.hi) == pytest.approx(ys.max(), abs=1e-15)
