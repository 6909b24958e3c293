"""Tests of the benchmark's own arithmetic and tracing (not of dysonprop)."""

import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

import ddprobe
import run
import spantrace
import worker

ROOT = Path(__file__).resolve().parent.parent


def _namespaces():
    return {n: m for n, m in sys.modules.items()
            if n == "dysonprop" or n.startswith("dysonprop.")}


def _snapshot():
    """Identity of every attribute (and module-level dict item) of every
    loaded dysonprop namespace."""
    snap = {}
    for n, mod in _namespaces().items():
        for attr, val in vars(mod).items():
            snap[(n, attr)] = id(val)
            if isinstance(val, dict) and not attr.startswith("__"):
                for key, item in val.items():
                    snap[(n, attr, key)] = id(item)
    return snap


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 9]
    spans = [
        ["a.root", 0.0, 10.0, -1, None],
        ["b.child", 1.0, 4.0, 0, None],
        ["c.leaf", 2.0, 3.0, 1, None],
        ["b.child", 5.0, 9.0, 0, None],
    ]
    agg = spantrace.aggregate(spans)
    assert agg["a.root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert agg["b.child"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert agg["c.leaf"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(10.0)


def test_summarize_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    s = run.summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert s == {"median": 3.5, "q1": q1, "q3": q3, "n": 6}
    assert run.summarize([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}


def test_digits_takes_the_worst_finite_deviation_with_a_floor():
    assert run.digits([1e-3, 1e-9]) == pytest.approx(3.0)
    assert run.digits([0.0]) == pytest.approx(-math.log10(run.DEV_FLOOR))
    assert run.digits([math.nan, 1e-6]) == pytest.approx(6.0)
    assert run.digits([]) == 0.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    a = run.make_inputs(workload, 7)
    assert a == run.make_inputs(workload, 7)
    assert json.loads(json.dumps(a)) == a
    assert a != run.make_inputs(workload, 8)


def test_tracer_rebinds_every_namespace_and_restores_it():
    import dysonprop
    from dysonprop import cli, divdiff, propagator
    from dysonprop.model import random_model

    m = random_model(3, 0, 0.2)
    dd_phase, selftest = divdiff.dd_phase, cli.cmd_selftest
    before = _snapshot()
    with spantrace.Tracer() as tracer:
        assert propagator.dd_phase is not dd_phase
        assert propagator.dd_phase.__wrapped__ is dd_phase
        assert divdiff.dd_phase is propagator.dd_phase is dysonprop.dd_phase
        assert cli._DISPATCH["selftest"] is cli.cmd_selftest is not selftest
        propagator.truncated_evolution(m, 2, 1.0)
        propagator.truncated_evolution(m, 2, 1.0)
    assert _snapshot() == before
    names = [s[0] for s in tracer.spans]
    assert names.count("propagator.truncated_evolution") == 2
    assert names.count("propagator.a_matrix") == 6
    for name, _start, end, parent, _extra in tracer.spans:
        if name == "divdiff.dd_phase":
            assert tracer.spans[parent][0] == "propagator.a_matrix"
        assert end >= _start

    ratios = spantrace.derived_ratios(tracer.spans)
    assert ratios["propagator.truncated_evolution.repeat_share"] == {"num": 1, "den": 2, "value": 0.5}
    dd = ratios["propagator.a_matrix.dd_per_tuple"]
    assert dd["den"] == 2 * (3**2 + 3**3)
    assert dd["num"] == names.count("divdiff.dd_phase")


def test_tracer_counts_nodes_and_solves_of_the_fourier_routes():
    from dysonprop import green
    from dysonprop.model import two_level_model

    m = two_level_model(1.0, 0.3)
    with spantrace.Tracer() as tracer:
        green.inverse_fourier_check(m, 1, 0.37, "+", 0.1, green.QuadratureSpec((0.0, 200.0), 40))
        green.forward_fourier(m, green.QuadratureSpec((-40.0, 41.0), 30), 1.5, 0.0, "+", 0.1)
    ratios = spantrace.derived_ratios(tracer.spans)
    assert ratios["green.inverse_fourier_check.evals_per_node"] == {"num": 40, "den": 40, "value": 1.0}
    assert ratios["green.forward_fourier.solves_per_node"] == {"num": 30, "den": 30, "value": 1.0}


def test_mp_oracle_matches_closed_forms():
    a, b, t = 0.7, 1.9, 1.3
    assert ddprobe.mp_dd_phase([a, a], t) == pytest.approx(-1j * t * np.exp(-1j * a * t), abs=1e-15)
    want = (np.exp(-1j * a * t) - np.exp(-1j * b * t)) / (a - b)
    assert ddprobe.mp_dd_phase([b, a], t) == pytest.approx(want, abs=1e-15)
    assert ddprobe.probe_nodes("confluent", 5) == [0.0, 0.0, 0.11, 0.11, 0.22]


def test_benchmark_json_lists_every_metric_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.per_layer_units()


def test_reference_loop_is_timed_and_touches_no_dysonprop_code():
    import dysonprop  # noqa: F401  (so the tracer has functions to wrap)

    with spantrace.Tracer() as tracer:
        elapsed = worker.reference_s()
    assert 0.0 < elapsed < 60.0
    assert tracer.spans == []
