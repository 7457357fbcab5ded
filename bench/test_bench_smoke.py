"""Toy-size smoke tests of the benchmark plumbing.

The full-size runs are `python3 bench/run.py`; these only check, in a few
seconds, that every workload's rounds pass their own output checks, that
every probe reports its metric, and that BENCHMARK.json names what run.py
prints.
"""

import dataclasses
import json

import pytest

import run
from harness import Expect, OpRecorder, SpeedGauge, Tracer
from probes import run_probes
from workloads import (WORKLOADS, AbSize, BigSize, LossSize, derive_seeds,
                       loss_oracle)

TOY_SIZES = {
    "ab-small": AbSize(train_count=8, val_count=4, dim=12, epochs=40),
    "big-grid": BigSize(dim=16, train_count=2, val_count=1, lesions=3,
                        radius=(1.3, 3.0), epochs=2),
    "loss-api": LossSize(dim=16, cases=3, lesions=2, radius=(1.3, 3.0),
                         gradcheck_voxels=4),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_rounds_pass_their_checks_at_toy_size(name, tmp_path):
    wl = WORKLOADS[name](0, tmp_path, Expect(None), threads=1, size=TOY_SIZES[name])
    wl.setup()
    wl.warmup()
    tracer = Tracer("smoke", enabled=True)
    gauge = SpeedGauge()
    rec = OpRecorder(tracer, gauge)
    inputs = dataclasses.replace(wl.probe_inputs(tmp_path), min_seconds=0.0)
    layer, counts = run_probes(inputs, tracer, gauge)
    for i in range(2):
        wl.run_round(rec, i)
    assert rec.failures == []
    assert rec.attempted == 2 * wl.counts()["ops_per_round"]
    assert set(layer) == set(run.PER_LAYER) - {"trace.overhead_ms"}
    assert counts["synth.lesions"] > 0
    assert tracer.self_times_ms()["probe.synth"] > 0.0


def test_expect_flags_drift_between_rounds_and_from_the_reference():
    fresh = Expect(None)
    assert fresh("x", 1.0) is None
    assert fresh("x", 1.0) is None
    assert fresh("x", 1.5) is not None
    ref = Expect({"x": 1.0, "n": [3, 4]})
    assert ref("x", 1.0 + 1e-12, 1e-9) is None
    assert ref("n", [3, 5]) is not None
    assert ref("missing", 0) is not None


def test_seeds_are_derived_deterministically():
    assert derive_seeds(5, "ab-small", 2) == derive_seeds(5, "ab-small", 2)
    assert derive_seeds(5, "ab-small", 2) != derive_seeds(6, "ab-small", 2)
    assert derive_seeds(5, "ab-small", 2) != derive_seeds(5, "loss-api", 2)


def test_loss_oracle_matches_the_engine(tmp_path):
    wl = WORKLOADS["loss-api"](3, tmp_path, Expect(None), threads=1,
                               size=TOY_SIZES["loss-api"])
    wl.setup()
    from lesionloss import loss
    want = loss_oracle(wl.gts, wl.preds)
    for kind in loss.LOSS_KINDS:
        got = loss.evaluate_loss(kind, wl.gts, wl.preds).value
        assert got == pytest.approx(want[kind], rel=1e-12)


def test_references_cover_the_default_and_held_out_seeds():
    refs = json.loads(run.REFERENCES.read_text())
    for name in WORKLOADS:
        assert set(refs[name]) == {str(run.DEFAULT_SEED), str(run.HELD_OUT_SEED)}


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
