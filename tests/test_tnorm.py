import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    assert np.all(t.apply(r1, np.nextafter(r3, 0.0)) < r2)  # the least float
    r4 = rng.uniform(1e-6, 1.0 - 1e-6, size=10_000)
    r5 = t.square_root(r4)
    assert np.all(t.apply(r5, r5) >= r4 - TOLERANCE)
    assert np.all(t.apply(np.nextafter(r5, 0.0), np.nextafter(r5, 0.0)) < r4)


@pytest.mark.parametrize("kind", KINDS)
def test_check_axioms_report(kind):
    report = check_axioms(TNorm(kind))
    assert report.all_passed, report.failing()
    assert report.subject == f"tnorm:{kind}"
    payload = report.to_dict()
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 5


def test_check_axioms_rejects_classes_outside_the_table():
    class Drastic(TNorm):
        pass

    with pytest.raises(ValueError, match="no axiom proofs for Drastic"):
        check_axioms(Drastic("product"))


# the float apply of every kind against each proof in the table, over the
# draw ranges the sampled harness used: uniform quadruples in [0, 1]
_FLOAT_CHECKS = {
    "commutative": lambda t, a, b, c, d: np.abs(t.apply(a, b) - t.apply(b, a)) <= TOLERANCE,
    "associative": lambda t, a, b, c, d: np.abs(
        t.apply(t.apply(a, b), c) - t.apply(a, t.apply(b, c))) <= TOLERANCE,
    "identity": lambda t, a, b, c, d: t.apply(a, np.ones_like(a)) == a,
    "monotone": lambda t, a, b, c, d: t.apply(np.minimum(a, c), np.minimum(b, d))
    <= t.apply(np.maximum(a, c), np.maximum(b, d)),
    "continuous": lambda t, a, b, c, d: np.abs(
        t.apply(np.minimum(a, 1.0 - 1e-7) + 1e-7, b) - t.apply(np.minimum(a, 1.0 - 1e-7), b))
    <= 1e-7 + TOLERANCE,
}


@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
def test_float_apply_agrees_with_the_proof_table(kind, seed):
    t = TNorm(kind)
    a, b, c, d = np.random.default_rng(seed).uniform(0.0, 1.0, size=(4, 1000))
    checks = check_axioms(t).checks
    assert [c.name for c in checks] == list(_FLOAT_CHECKS)
    for check in checks:
        assert check.passed and check.proof, check.name
        assert _FLOAT_CHECKS[check.name](t, a, b, c, d).all(), check.name


# each solution is the least float that satisfies its float inequality, so
# the float below it fails: product residuate(0.5, 1e-7) is 2e-07, not
# 2.0000000000000486e-07
_UNIT = st.floats(min_value=5e-324, max_value=1.0, exclude_max=True)


@given(kind=st.sampled_from(KINDS), r=st.tuples(_UNIT, _UNIT).filter(lambda r: r[0] != r[1]))
@example(kind="product", r=(0.5, 1e-7))
@example(kind="product", r=(1e-300, 5e-324))
@example(kind="lukasiewicz", r=(1.0 - 1e-6, 1e-9))
def test_residuate_returns_the_least_float(kind, r):
    t, (r2, r1) = TNorm(kind), sorted(r)
    b = t.residuate(r1, r2)
    assert t.apply(r1, b) >= r2 > t.apply(r1, np.nextafter(b, 0.0))


@given(kind=st.sampled_from(KINDS), r4=_UNIT)
@example(kind="product", r4=5e-324)
def test_square_root_returns_the_least_float(kind, r4):
    t = TNorm(kind)
    b = t.square_root(r4)
    below = np.nextafter(b, 0.0)
    assert t.apply(b, b) >= r4 > t.apply(below, below)
