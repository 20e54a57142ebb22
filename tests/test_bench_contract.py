"""The benchmark under perfbench/ wraps named functions and methods of the
package; a refactor that drops or moves one breaks every traced run, and one
that changes how often a wrapped method is called per unit of work makes its
traced counts incomparable with earlier runs."""

import sys
from pathlib import Path

import pytest

from fuzzyshadow import orbits
from fuzzyshadow.systems import IntervalMap, tent

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.trace import TARGETS  # noqa: E402


def test_traced_names_exist_on_their_owners():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in TARGETS if attr not in vars(owner)]
    assert not missing, f"traced names missing: {missing}"


class _CountingMap(IntervalMap):
    """Counts scalar evaluations, the calls the traced systems.eval span sees."""

    calls = 0

    def eval(self, x):
        self.calls += 1
        return super().eval(x)


def _counting_tent():
    base = tent(2.0)
    return _CountingMap(base.pieces, base.lo_open, base.name)


@pytest.mark.parametrize("n", [0, 1, 7, 300])
def test_scalar_orbits_evaluate_once_per_step(n):
    f = _counting_tent()
    orbits.orbit_states(f, 0.3, n)
    assert f.calls == max(n - 1, 0)
    f = _counting_tent()
    orbits.perturbed_orbit(f, 0.3, n, 0.01, seed=2)
    assert f.calls == n
