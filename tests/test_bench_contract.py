"""The benchmark under perfbench/ wraps named functions and methods of the
package; a refactor that drops or moves one breaks every traced run, and one
that changes how often a wrapped method is called per unit of work makes its
traced counts incomparable with earlier runs."""

import inspect
import sys
from pathlib import Path

import pytest

from fuzzyshadow import fuzzy_metric, orbits
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
