"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import harness
import inputs
import layers
import spans
import workloads


@pytest.fixture(scope="module")
def setup():
    return harness.Setup()


def test_generators_are_deterministic():
    (a, probe_a), (b, probe_b) = inputs.noise_frame(3, 5), inputs.noise_frame(3, 5)
    assert a.tobytes() == b.tobytes() and probe_a == probe_b
    assert a.shape == (600, 450, 3) and a.dtype == np.uint8
    assert inputs.noise_frame(3, 6)[0].tobytes() != a.tobytes()
    assert inputs.noise_frame(4, 5)[0].tobytes() != a.tobytes()
    (a, edge_a), (b, edge_b) = inputs.scene_frame(3, 0), inputs.scene_frame(3, 0)
    assert a.tobytes() == b.tobytes() and edge_a == edge_b
    assert a.shape == (1080, 1920, 3) and a.dtype == np.uint8
    assert inputs.scene_frame(3, 1)[0].tobytes() != a.tobytes()
    assert inputs.surrogate_text(7, 40, 60) == inputs.surrogate_text(7, 40, 60)
    assert inputs.surrogate_text(7, 40, 60) != inputs.surrogate_text(8, 40, 60)


def test_distinct_colour_frac():
    pixels = np.array([[[1, 2, 3], [1, 2, 3]], [[3, 2, 1], [0, 0, 0]]], dtype=np.uint8)
    assert inputs.distinct_colour_frac(pixels) == 0.75
    assert inputs.rows_distinct_colour_frac("1\t2\t3\t1\n1\t2\t3\t2\n4\t5\t6\t2\n") == 2 / 3


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, op=0)


def test_self_time_arithmetic_on_a_synthetic_tree():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("a", 9.5, 10.0, 0),
    ]
    assert spans.self_times(tree) == [2.5, 2.0, 1.0, 4.0, 0.5]
    totals = spans.totals(tree)
    assert (totals["a"].calls, totals["a"].inclusive, totals["a"].self_time) == (2, 3.5, 2.5)
    assert sum(t.self_time for t in totals.values()) == 10.0


def test_tracer_patches_every_caller_and_restores():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    home = types.ModuleType("home")
    home.f = lambda x: x + 1
    caller = types.ModuleType("caller")
    caller.g = home.f
    tracer.install([("home.f", home, "f", lambda a, k, r: r),
                    ("home.gone", home, "gone", None)], [home, caller])
    assert tracer.missing == {"home.gone"}
    assert caller.g(1) == 2  # no op open: not recorded
    tracer.begin_op(7)
    assert caller.g(1) == 2 and home.f(2) == 3
    assert tracer.end_op() == 5.0
    tracer.uninstall()
    assert caller.g is home.f and not hasattr(caller.g, "__wrapped__")
    op_spans = tracer.take()
    assert [(s.name, s.parent, s.op, s.capture) for s in op_spans] == [
        (spans.ROOT, None, 7, None), ("home.f", 0, 7, 2), ("home.f", 0, 7, 3)]
    totals = spans.totals(op_spans)
    calls = dict((name, fn) for name, _, fn in layers.PER_LAYER)["nn.adam_steps"]
    assert calls(totals, {}) == 0  # a span that never fired reports zero


def _one_op(wl, setup):
    records, _ = harness.run_loop(wl, setup, seconds=0.0, tracer=None)
    assert len(records) == 1
    return records[0]["failed"]


def test_planted_mask_digest_counts_as_failed_op(setup, tmp_path):
    lib, model = setup.lib, setup.saved.model
    recorded = json.loads(harness.EXPECTED.read_text())
    seed = recorded["seed"]
    good = harness.make_workload("segment_noise", lib, model, seed, tmp_path, recorded)
    assert not _one_op(good, setup)
    planted = {"segment_noise": ["0" * 64]}
    bad = harness.make_workload("segment_noise", lib, model, seed, tmp_path, planted)
    assert _one_op(bad, setup)


def test_planted_model_digest_counts_as_failed_op(setup, tmp_path, monkeypatch):
    lib = setup.lib
    monkeypatch.setattr(inputs, "SURROGATE_SKIN", 300)
    monkeypatch.setattr(inputs, "SURROGATE_NON_SKIN", 700)
    monkeypatch.setattr(workloads, "EPOCHS", 1)
    first = workloads.TrainEvalWorkload(lib, 5, tmp_path)
    assert not _one_op(first, setup)
    planted = dict(first.first_digests, **{"mlp.model": "0" * 64})
    again = workloads.TrainEvalWorkload(lib, 5, tmp_path, expected=planted)
    assert _one_op(again, setup)


def test_traced_op_self_times_sum_to_op_time(setup, tmp_path):
    wl = harness.make_workload("segment_noise", setup.lib, setup.saved.model, 9, tmp_path, {})
    records, archive = harness.run_loop(wl, setup, seconds=0.0, tracer=spans.Tracer())
    traced = [r for r in records if r["traced"]]
    assert len(traced) == 1 and not any(r["failed"] for r in records)
    values = traced[0]["layers"]
    self_metrics = ("nn.mlp_predict_batch_s", "colorspace.rgb_to_hsv_array_s",
                    "segment.stage1_probabilities_self_s", "neighbourhood.refine_s",
                    "segment.segment_image_self_s", "raster.read_ppm_s",
                    "raster.write_pgm_s", "bench.op_self_s")
    assert sum(values[m] for m in self_metrics) == pytest.approx(values["trace.op_s"], rel=1e-9)
    assert values["nn.rows_scored_per_pixel"] == 1.0
    assert {s.name for s in archive} >= {spans.ROOT, "neighbourhood.refine"}


def test_a_run_makes_every_setup_and_keeps_the_first_library(setup, tmp_path):
    wl = harness.make_workload("segment_noise", setup.lib, setup.saved.model, 9, tmp_path, {})
    assert not _one_op(wl, setup)
    assert len(setup.times) == harness.SETUP_REPS
    assert sys.modules["skinseg.segment"] is setup.lib.segment


def test_trace_overhead_pairs_each_traced_op_with_its_neighbour():
    layer = {name: 0.0 for name, _, _ in layers.PER_LAYER}
    seconds = [9.0, 1.1, 1.0, 2.2, 2.0, 2.2]  # drift between pairs, +10% within each
    records = [{"seconds": t, "traced": i % 2 == 1, "layers": layer} for i, t in enumerate(seconds)]
    assert harness.per_layer(records)["trace.overhead_frac"] == pytest.approx(0.1)


def test_benchmark_json_matches_the_code():
    spec = json.loads((harness.CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(harness.CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "segment_noise", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
