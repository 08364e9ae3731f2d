"""Self-test of the benchmark harness (not of quickwake).

Run from the repository root:

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    """Returns the queued instants in order, so span edges are exact."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_subtracts_nested_children():
    tracer = Tracer(True, clock=FakeClock(0.0, 1.0, 3.0, 4.0, 8.0, 10.0))
    with tracer.span("bench.timed"):
        with tracer.span("dp.operator"):
            pass
        with tracer.span("dp.bellman", "control_m"):
            pass
    assert [s.duration for s in tracer.spans] == [10.0, 2.0, 4.0]
    assert tracer.self_times() == [4.0, 2.0, 4.0]
    assert tracer.spans[1].parent == 0 and tracer.spans[2].parent == 0


def test_self_time_of_a_leaf_is_its_duration_and_grandchildren_count_once():
    tracer = Tracer(True)
    tracer.spans = [
        Span("bench.timed", "", 0.0, 10.0),
        Span("cli", "sweep-q", 1.0, 7.0, parent=0),
        Span("dp.bellman", "open_loop", 2.0, 5.0, parent=1),
    ]
    assert tracer.self_times() == [4.0, 3.0, 3.0]


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("dp.operator") as counts:
        counts["bytes"] = 1
    assert tracer.spans == []


def test_medians_and_counts_select_by_layer_and_label():
    tracer = Tracer(True, clock=FakeClock(0.0, 1.0, 1.0, 4.0, 4.0, 9.0))
    for label in ("control_m", "control_m", "control_q"):
        with tracer.span("dp.bellman", label) as counts:
            counts["sweeps"] = 7
    assert tracer.median_duration("dp.bellman", "control_m") == 2.0
    assert tracer.median_duration("dp.bellman") == 3.0
    assert tracer.median_duration("sim") == 0.0
    assert tracer.first_counts("dp.bellman", "control_q") == {"sweeps": 7}


def test_end_to_end_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.UNITS
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in BENCHMARK["end_to_end"])


def test_per_layer_names_units_and_direction_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == workloads.LAYER_UNITS


def test_every_per_layer_metric_is_reported_even_when_a_layer_is_idle():
    assert set(workloads.layer_metrics(Tracer(True), 1e-6)) == set(workloads.LAYER_UNITS)


def test_workload_names_match_benchmark_json():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert declared == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_moved_by_uses_the_longest_matching_prefix():
    w = workloads.WORKLOADS["solve-reference"]
    assert w.moved_by("dp.bellman.control_q.solve_s") == "wall_s (largest share)"
    assert w.moved_by("dp.bellman.residual") == "value_error"
    assert w.moved_by("sim.control_m.run_s") is None
