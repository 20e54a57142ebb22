"""The benchmark under perfbench/ wraps named functions and methods of the
package; a refactor that drops or moves one breaks every traced run, and one
that changes how often a wrapped method is called per unit of work makes its
traced counts incomparable with earlier runs."""

import inspect
import sys
from pathlib import Path

import pytest

from fuzzyshadow import orbits
from fuzzyshadow.fuzzy_metric import StandardFuzzyMetric
from fuzzyshadow.systems import IntervalMap, tent

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import trace, workloads  # noqa: E402
from perfbench.trace import TARGETS  # noqa: E402

_CHAIN_OPS = ("chain_search", "chain_mixing_check")


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


@pytest.mark.parametrize("name", _CHAIN_OPS)
def test_chain_functions_keep_resolution_seventh(name):
    # the benchmark passes chain grids positionally, and its chain-node hook
    # builds the metric grid at the bound resolution
    param = list(inspect.signature(getattr(orbits, name)).parameters.values())[6]
    assert param.name == "resolution"
    assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert StandardFuzzyMetric().grid(param.default).size > 1


def test_chain_nodes_hook_binds_a_cli_style_call():
    bound = inspect.signature(orbits.chain_search).bind(
        0.2, 0.8, tent(2.0), StandardFuzzyMetric(), delta=0.1, t0=1.0, n_max=64)
    bound.apply_defaults()
    assert trace._chain_nodes(bound.arguments, None)["nodes"] >= 1001


def test_chain_reach_ops_pass_their_checks():
    ops = [op for op in workloads.build("chain-reach", 7, quick=True).ops
           if op.label.startswith(_CHAIN_OPS)]
    assert ops
    results = {op.label: op.run() for op in ops}
    failures = {op.label: op.check(results[op.label], results) for op in ops}
    assert not any(failures.values()), failures
