"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import sys

import pytest

import run
import spans
from spans import NO_PARENT, Span


def span(name, parent, start, end, facts=None):
    layer = name.split(".")[0]
    return Span(name, layer, parent, start, end, facts)


def test_self_time_subtracts_nested_children():
    trace = [
        span("cli.main", NO_PARENT, 0.0, 10.0),
        span("experiments.run", 0, 1.0, 4.0),
        span("landscape.f1", 1, 2.0, 3.0),
        span("storage.save", 0, 5.0, 7.0),
    ]
    assert spans.self_times(trace) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    trace = [
        span("cli.main", NO_PARENT, 0.0, 10.0),
        span("landscape.a", 0, 1.0, 5.0),
        span("landscape.b", 0, 3.0, 7.0),
        span("landscape.c", 0, 9.0, 12.0),  # clipped to the parent
    ]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_same_layer_spans_charge_their_entry_span():
    trace = [
        span("cli.main", NO_PARENT, 0.0, 20.0),
        span("landscape.grid", 0, 1.0, 11.0, ("grid", 100)),
        span("landscape.helper", 1, 2.0, 5.0, ("grid", 7)),  # nested: not a second grid
        span("kernels.pairwise_profiles", 1, 6.0, 8.0, ("pairwise", 4, 3)),
        span("landscape.f1_closed", 0, 12.0, 13.0, ("point",)),
    ]
    assert spans.entry_spans(trace) == [0, 1, 1, 3, 4]
    m = spans.layer_metrics(trace, wall_s=20.0)
    assert m["landscape.self_s"] == pytest.approx(10.0 - 2.0 + 1.0)
    assert m["landscape.calls"] == 2
    assert m["landscape.grid_s"] == pytest.approx(5.0 + 3.0)
    assert m["landscape.grid_points"] == 100
    assert m["landscape.point_s"] == pytest.approx(1.0)
    assert m["landscape.point_evals"] == 1
    assert m["kernels.pairwise_s"] == pytest.approx(2.0)
    assert m["kernels.pairwise_pairs"] == 16
    assert m["cli.self_s"] == pytest.approx(20.0 - 10.0 - 1.0)
    assert m["trace.self_share"] == pytest.approx(1.0)


def test_counts_read_at_boundaries():
    trace = [
        span("cli.main", NO_PARENT, 0.0, 10.0),
        span("problems.build_ensemble", 0, 0.0, 4.0, ("instances", 2)),
        span("problems.enumerate_sat", 1, 0.0, 1.0, ("enumerate", 0)),
        span("problems.enumerate_sat", 1, 1.0, 2.0, ("enumerate", 1)),
        span("problems.enumerate_sat", 1, 2.0, 3.0, ("enumerate", 1)),
        span("kernels.apply_mixer", 0, 4.0, 5.0, ("mixer", 3)),  # not under landscape
        span("storage.load_ensemble", 0, 5.0, 6.0, ("read", 400)),
        span("storage.save_report", 0, 6.0, 8.0, ("write", 300)),
        span("storage.report_to_csv", 7, 6.0, 7.0, ("write", 200)),  # nested: counted once
    ]
    m = spans.layer_metrics(trace, wall_s=10.0)
    assert m["problems.instances"] == 2
    assert m["problems.accept_ratio"] == pytest.approx(2 / 3)
    assert m["kernels.mixer_updates"] == 3 * 8
    assert m["landscape.statevectors"] == 0
    assert (m["storage.read_bytes"], m["storage.write_bytes"]) == (400, 300)
    assert m["storage.write_s"] == pytest.approx(2.0)
    assert spans.layer_metrics([], wall_s=1.0)["problems.accept_ratio"] == 1.0


@pytest.mark.parametrize(
    "count, expected",
    [(1, None), (19, None), (20, (50.0, 10)), (99, (50.0, 50)), (100, (90.0, 90)),
     (1000, (99.0, 990)), (10_000, (99.9, 9990))],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert spans.tail_percentile(range(count, 0, -1)) == expected


def test_computed_bytes():
    m, n = 5, 4
    states, distances, profiles = 8 * m, 8 * m * m, 8 * m * (n + 1)  # uint64, int64, int64
    assert spans.pairwise_bytes(m, n) == states + distances + profiles == 440
    assert spans.mixer_updates(20) == 20 * 2**20
    assert spans.mixer_bytes(3) == 3 * 8 * 16 * 2  # 3 passes, 8 complex128 in and out


def test_tracer_wraps_binding_sites_and_restores_them():
    sys.path.insert(0, str(run.SRC))
    from qaoa_landscape import experiments, landscape, optimize
    from qaoa_landscape.core import TargetSpace

    original = landscape.f1_closed
    tracer = spans.Tracer()
    assert tracer.install() > 0
    try:
        assert optimize.f1_closed is landscape.f1_closed is experiments.f1_closed
        assert optimize.f1_closed is not original
        config = optimize.OptConfig(coarse_beta=4, coarse_gamma=4, refine_starts=1, max_evals=40)
        optimize.optimize_instance(TargetSpace(3, (1, 6)), config)
    finally:
        tracer.uninstall()
    assert landscape.f1_closed is original and optimize.f1_closed is original

    names = {s.name for s in tracer.spans}
    assert {"optimize.optimize_instance", "optimize.maximize", "landscape.f1_closed"} <= names
    m = spans.layer_metrics(tracer.spans, tracer.spans[0].end - tracer.spans[0].start)
    assert m["optimize.searches"] == 1 and m["optimize.calls"] == 1
    assert m["optimize.objective_evals"] == m["landscape.point_evals"] > 16
    assert m["kernels.pairwise_pairs"] == 4


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(e["name"], e["unit"], e["better"], e["bound"]) for e in spec["end_to_end"]] == [
        (name, unit, better, bound) for name, (unit, better, bound) in run.END_TO_END.items()
    ]
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in run.per_layer_spec().items()
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
