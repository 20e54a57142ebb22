import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyshadow.reports import MAX_SAMPLES
from fuzzyshadow.tnorm import KINDS, TOLERANCE, TNorm, check_axioms

ALL = [TNorm(k) for k in KINDS]


def test_apply_examples():
    assert TNorm("product").apply(0.5, 0.8) == pytest.approx(0.4)
    assert TNorm("minimum").apply(0.3, 0.7) == 0.3
    assert TNorm("lukasiewicz").apply(0.7, 0.5) == pytest.approx(0.2)


@pytest.mark.parametrize("t", ALL, ids=KINDS)
def test_identity_exact(t):
    for a in (0.0, 1e-17, 0.42, 0.9999999, 1.0):
        assert t.apply(a, 1.0) == a


@pytest.mark.parametrize("t", ALL, ids=KINDS)
def test_apply_domain_errors(t):
    with pytest.raises(ValueError):
        t.apply(-0.1, 0.5)
    with pytest.raises(ValueError):
        t.apply(0.5, 1.2)


@pytest.mark.parametrize("t", ALL, ids=KINDS)
def test_nan_arguments_rejected(t):
    nan = float("nan")
    with pytest.raises(ValueError, match="must lie in"):
        t.apply(nan, 0.5)
    with pytest.raises(ValueError, match="must lie in"):
        t.apply(np.array([0.2, 0.4]), np.array([0.5, nan]))
    with pytest.raises(ValueError, match="residuation requires"):
        t.residuate(nan, 0.5)
    with pytest.raises(ValueError, match="residuation requires"):
        t.residuate(0.9, np.array([0.5, nan]))
    with pytest.raises(ValueError, match="square_root requires"):
        t.square_root(nan)


def test_apply_accepts_empty_arrays():
    assert TNorm("product").apply(np.array([]), np.array([])).shape == (0,)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        TNorm("hamacher")


def test_residuate_frozen_values():
    # product: apply(r1, b) = r1*b, so the least solution is r2/r1
    assert TNorm("product").residuate(0.9, 0.45) == pytest.approx(0.5, abs=1e-9)
    # minimum: min(0.9, b) >= 0.45 first holds at b = 0.45
    assert TNorm("minimum").residuate(0.9, 0.45) == pytest.approx(0.45, abs=1e-9)
    # lukasiewicz: solve r1 + b - 1 = r2
    assert TNorm("lukasiewicz").residuate(0.9, 0.45) == pytest.approx(0.55, abs=1e-9)


def test_square_root_frozen_values():
    assert TNorm("product").square_root(0.81) == pytest.approx(0.9, abs=1e-9)
    assert TNorm("minimum").square_root(0.81) == pytest.approx(0.81, abs=1e-9)
    # lukasiewicz: solve 2b - 1 = r4
    assert TNorm("lukasiewicz").square_root(0.8) == pytest.approx(0.9, abs=1e-9)


def test_residuate_preconditions():
    t = TNorm("product")
    with pytest.raises(ValueError):
        t.residuate(0.4, 0.5)
    with pytest.raises(ValueError):
        t.residuate(0.5, 0.5)
    with pytest.raises(ValueError):
        t.residuate(1.0, 0.5)
    with pytest.raises(ValueError):
        TNorm("minimum").square_root(1.0)
    with pytest.raises(ValueError):
        TNorm("minimum").square_root(0.0)


@given(
    kind=st.sampled_from(KINDS),
    r1=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    frac=st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_residuate_postcondition(kind, r1, frac):
    t = TNorm(kind)
    r2 = r1 * frac
    if not 0.0 < r2 < r1:
        return
    r3 = t.residuate(r1, r2)
    assert 0.0 < r3 <= 1.0
    assert t.apply(r1, r3) >= r2 - TOLERANCE


@given(kind=st.sampled_from(KINDS), r4=st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_square_root_postcondition(kind, r4):
    t = TNorm(kind)
    r5 = t.square_root(r4)
    assert 0.0 < r5 <= 1.0
    assert t.apply(r5, r5) >= r4 - TOLERANCE


@pytest.mark.parametrize("t", ALL, ids=KINDS)
def test_bulk_axioms(t):
    rng = np.random.default_rng(7)
    a, b, c, d = rng.uniform(0.0, 1.0, size=(4, 10_000))
    assert np.all(np.abs(t.apply(a, b) - t.apply(b, a)) <= TOLERANCE)
    assert np.all(
        np.abs(t.apply(t.apply(a, b), c) - t.apply(a, t.apply(b, c))) <= TOLERANCE
    )
    assert np.all(t.apply(a, np.ones_like(a)) == a)
    lo_a, hi_a = np.minimum(a, c), np.maximum(a, c)
    lo_b, hi_b = np.minimum(b, d), np.maximum(b, d)
    assert np.all(t.apply(lo_a, lo_b) <= t.apply(hi_a, hi_b))


@pytest.mark.parametrize("t", ALL, ids=KINDS)
def test_bulk_solver_postconditions(t):
    rng = np.random.default_rng(11)
    r1 = rng.uniform(1e-6, 1.0 - 1e-6, size=10_000)
    r2 = r1 * rng.uniform(1e-6, 1.0 - 1e-6, size=10_000)
    r3 = t.residuate(r1, r2)
    assert np.all(t.apply(r1, r3) >= r2 - TOLERANCE)
    r4 = rng.uniform(1e-6, 1.0 - 1e-6, size=10_000)
    r5 = t.square_root(r4)
    assert np.all(t.apply(r5, r5) >= r4 - TOLERANCE)


@pytest.mark.parametrize("kind", KINDS)
def test_check_axioms_report(kind):
    report = check_axioms(TNorm(kind), samples=5_000, seed=3)
    assert report.all_passed, report.failing()
    assert report.subject == f"tnorm:{kind}"
    payload = report.to_dict()
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 5


def test_check_axioms_sample_count_is_capped():
    # fails before any sample is drawn
    with pytest.raises(ValueError, match="too many samples"):
        check_axioms(TNorm("product"), samples=MAX_SAMPLES + 1)
