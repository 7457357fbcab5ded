"""Run one lesionloss benchmark workload and print its metrics.

    python3 bench/run.py --workload ab-small --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # each workload in turn

Run from the repository root; the package is imported from ./src.  Load
model: one process, a closed loop, one operation at a time, BLAS/OpenMP
pinned to one thread.  The timed phase runs whole rounds of the workload
until --seconds have passed; round_s is the median over rounds of the
summed op times of one round (output checks run outside the timed calls).
Times and rates are stated in reference seconds using harness.SpeedGauge
samples taken beside the work, because this host's speed drifts by tens
of percent between CPUs and over a minute; the raw values are printed too
('.raw' lines and the detail file).

--trace 0 measures the end-to-end metrics.  --trace 1 first times every
layer probe (see probes.py), then runs the rounds alternately with and
without spans, and reports the per-layer metrics, span self times and the
tracing overhead.  Human-readable lines start with '#'; the last line of
stdout is the JSON result.  A detail file with every number, the exact
counts, the environment and (traced) the spans goes to bench/out/.

--record stores this run's checked outputs as the reference for its seed
in bench/references.json.  References exist for DEFAULT_SEED and for the
held-out HELD_OUT_SEED; on other seeds the checks compare rounds with each
other and with the oracles only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCES = BENCH / "references.json"
OUT = BENCH / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5

# The metrics of the last stdout line; BENCHMARK.json lists the same names.
END_TO_END = ("setup_s", "round_s", "peak_rss_mb")
PER_LAYER = (
    "synth.generate_vox_per_s",
    "trainer.features_vox_per_s", "trainer.train_prep_ms",
    "trainer.epoch_ms.tversky", "trainer.epoch_ms.wlt-combined",
    "trainer.score_vox_per_s", "trainer.eval_lesionwise_ms",
    "components.label_vox_per_s",
    "weighting.weight_map_vox_per_s",
    *(f"loss.{k}.{m}_vox_per_s" for k in ("tversky", "ce", "wlt", "combined")
      for m in ("value", "grad")),
    "loss.gradcheck_evals_per_s",
    "reduction.pairwise_sum_vox_per_s", "reduction.np_sum_vox_per_s",
    "metrics.dice_ms", "metrics.hausdorff_ms", "metrics.hd95_ms",
    "volume.load_MBps", "volume.save_MBps",
    "cli.loss_overhead_ms",
    "trace.overhead_ms",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("ab-small", "big-grid", "loss-api", "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this run's checked outputs as the seed's reference")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def l3_bytes() -> int | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size.rstrip("KMG")) * {"K": 1 << 10, "M": 1 << 20,
                                                   "G": 1 << 30}[size[-1]]
        except (OSError, ValueError, KeyError):
            return None
    return None


def import_seconds() -> tuple[float, float]:
    """`import lesionloss` in a fresh interpreter, as a user's process pays it.

    Returns the time and a SpeedGauge factor sampled in that interpreter,
    which may run on another CPU than this one.
    """
    code = ("import time; t = time.perf_counter(); import lesionloss; "
            "dt = time.perf_counter() - t; from harness import SpeedGauge; "
            "g = SpeedGauge(); g.sample(); print(dt, g.NOMINAL_S / g.samples[0])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout.split()
    return float(out[0]), float(out[1])


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    failed = 0
    for name in ("ab-small", "big-grid", "loss-api"):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        failed += subprocess.run(cmd, check=False).returncode != 0
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "lesionloss").is_dir():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # numpy is first imported after this point, with the thread variables set
    sys.path.insert(0, str(ROOT / "src"))

    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    reference = None if args.record else refs.get(args.workload, {}).get(str(args.seed))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"work-{args.workload}-", dir=OUT) as tmp:
        result, seen = run_workload(args, Path(tmp), reference, nproc)
    if args.record:
        refs.setdefault(args.workload, {})[str(args.seed)] = seen
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_workload(args, workdir: Path, reference, nproc: int) -> tuple[dict, dict]:
    """Set up, time and check one workload; the result line and the checked outputs."""
    import numpy
    import scipy

    from harness import (Expect, OpRecorder, SpeedGauge, Tracer, median,
                         peak_rss_mb, timed_loop)
    from probes import run_probes
    from workloads import WORKLOADS

    expect = Expect(reference)
    wl = WORKLOADS[args.workload](args.seed, workdir, expect, threads=nproc)

    gauge = SpeedGauge()
    imports, builds, raw_setups = [], [], []
    for _ in range(SETUP_REPEATS):
        dt_import, f_import = import_seconds()
        dt_build, f_build = gauge.timed(wl.setup)
        raw_setups.append(dt_import + dt_build)
        imports.append(dt_import * f_import)
        builds.append(dt_build * f_build)

    wl.warmup()

    tracer = Tracer(uuid.uuid4().hex[:12], enabled=bool(args.trace))
    rec = OpRecorder(tracer, gauge)
    layer, counts = {}, {}
    if args.trace:
        mark = gauge.mark()
        layer, counts = run_probes(wl.probe_inputs(workdir), tracer, gauge)
        gauge.sample()
        f = gauge.factor(mark)   # ms scale with it, every other unit is a rate
        layer = {k: (v * f if u == "ms" else v / f, u) for k, (v, u) in layer.items()}
    loop_mark = gauge.mark()
    raw_rounds, traced_flags, round_walls = [], [], []

    def run_round(i):
        """One round; its summed op time as reported."""
        tracer.enabled = bool(args.trace) and i % 2 == 0
        traced_flags.append(tracer.enabled)
        busy0, raw0, t0 = rec.busy_s, rec.busy_raw_s, time.perf_counter()
        with tracer.span("round"):
            wl.run_round(rec, i)
        round_walls.append(time.perf_counter() - t0)
        raw_rounds.append(rec.busy_raw_s - raw0)
        return rec.busy_s - busy0

    rounds, wall_s = timed_loop(run_round, args.seconds,
                                min_rounds=2 if args.trace else 1)
    gauge.sample()
    loop_factor = gauge.factor(loop_mark)
    problem = expect.all((f"count.{k}", v) for k, v in wl.counts().items())
    if problem:
        rec.fail("exact counts", problem)
    counts.update(wl.counts())
    counts["ops_attempted"] = rec.attempted

    e2e = {"setup_s": (median(imports) + median(builds), "s", SETUP_REPEATS),
           "round_s": (median(rounds), "s", len(rounds))}
    for name, value, unit, n in wl.summary(rec):
        e2e[name] = (value, unit, n)
    e2e["wall_s"] = (wall_s, "s", 1)
    e2e["round_s.raw"] = (median(raw_rounds), "s", len(raw_rounds))
    e2e["setup_s.raw"] = (median(raw_setups), "s", SETUP_REPEATS)
    e2e["speed_factor"] = (loop_factor, "ratio", len(gauge.samples) - loop_mark)
    e2e["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    e2e["ops_failed_frac"] = (rec.failed / max(rec.attempted, 1), "ratio", rec.attempted)

    if args.trace:
        traced = [w for w, f in zip(round_walls, traced_flags) if f]
        plain = [w for w, f in zip(round_walls, traced_flags) if not f]
        layer["trace.overhead_ms"] = (
            (median(traced) - median(plain)) * 1e3 * loop_factor, "ms")
        for name, value, unit, _n in wl.extra_layer_metrics():
            layer[name] = (value * loop_factor, unit)

    env = {"threads_env": {v: os.environ[v] for v in THREAD_VARS},
           "threads_flag": nproc, "nproc": nproc, "l3_bytes": l3_bytes(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "seconds": args.seconds, "seed": args.seed,
           "reference": "stored" if reference is not None else "none"}
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# counts {json.dumps(counts, sort_keys=True)}")
    for name, (value, unit, n) in e2e.items():
        if not args.trace or name == "ops_failed_frac":   # e2e only from untraced runs
            print(f"# e2e {name} = {value:.6g} {unit} (n={n})")
    self_ms = tracer.self_times_ms()
    for name, (value, unit) in layer.items():
        print(f"# layer {name} = {value:.6g} {unit}")
    for name, value in self_ms.items():
        print(f"# self_ms {name} = {value:.6g}")
    for problem in rec.failures:
        print(f"bench: FAILED {problem}", file=sys.stderr)

    detail = {"workload": args.workload, "env": env, "counts": counts,
              "end_to_end": e2e, "per_layer": layer,
              "self_ms": self_ms, "failures": rec.failures, "rounds_s": rounds,
              "raw_rounds_s": raw_rounds, "gauge_s": gauge.samples,
              "spans": tracer.spans}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str))

    names = PER_LAYER if args.trace else END_TO_END
    source = layer if args.trace else e2e
    result = {"correct": rec.failed == 0, "attempted": rec.attempted,
              "failed": rec.failed,
              "metrics": {n: {"value": source[n][0], "unit": source[n][1]}
                          for n in names}}
    return result, expect.seen


if __name__ == "__main__":
    sys.exit(main())
