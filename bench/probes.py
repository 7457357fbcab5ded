"""Per-layer probes: time calls into the public functions of each package module.

Every workload runs the same probes on its own inputs, so each per-layer
metric exists on every workload and is measured at that workload's grid
size.  The probes call only public names; the private `_*_core` functions
are left free to change.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from harness import median, perf, repeat
from lesionloss import cli, components, loss, metrics, reduction, synth, trainer
from lesionloss import volume, weighting

# q = expit(6 * mean3 - 1.8): a fixed, untrained scorer whose outputs stay well
# inside (0, 1), so grad_check's +/- step and the CE clamp are never reached,
# and whose 0.5 threshold (mean3 > 0.3) is never empty on a noisy phantom.
FIXED_SCORER_WEIGHTS = (0.0, 6.0, 0.0, 0.0, -1.8)
TRAIN_KINDS = ("tversky", "wlt-combined")


def fixed_scorer() -> trainer.VoxelScorer:
    return trainer.VoxelScorer(np.array(FIXED_SCORER_WEIGHTS))


@dataclass(frozen=True)
class ProbeInputs:
    specs: tuple          # phantoms the synth/features/labeling probes build
    train_cfg: trainer.TrainConfig   # corpus and epoch count E of the trainer probes
    loss_cases: int       # leading phantoms that form the loss/metrics/I-O batch
    workdir: Path
    gradcheck_voxels: int = 16
    min_seconds: float = 0.2   # repeat each timed call for at least this long


def run_probes(inp: ProbeInputs, tracer, gauge) -> tuple[dict, dict]:
    """Returns ({metric: (value, unit)}, {count name: exact count})."""
    out: dict[str, tuple[float, str]] = {}
    counts: dict[str, int] = {}

    def rep(fn):
        return repeat(fn, min_s=inp.min_seconds)

    def section(name):
        gauge.sample()
        return tracer.span(name)

    def rate(name, vox, times, unit="vox/s"):
        out[name] = (vox / median(times), unit)

    def ms(name, times, calls=1):
        out[name] = (median(times) * 1e3 / calls, "ms")

    vox_all = sum(s.shape.voxel_count for s in inp.specs)
    with section("probe.synth"):
        t, phantoms = rep(lambda: [synth.generate(s) for s in inp.specs])
    rate("synth.generate_vox_per_s", vox_all, t)
    counts["synth.lesions"] = sum(len(ph.lesions) for ph in phantoms)
    counts["synth.fragments"] = sum(
        len(g.fragments) for ph in phantoms for g in ph.lesions if g.fragments)

    with section("probe.trainer.features"):
        t, feats = rep(lambda: [trainer.extract_features(ph.image) for ph in phantoms])
    rate("trainer.features_vox_per_s", vox_all, t)
    counts["trainer.epoch_feature_bytes"] = sum(f.nbytes for f in feats)
    del feats

    with section("probe.components"):
        t, labelings = rep(
            lambda: [components.label_components(ph.truth) for ph in phantoms])
    rate("components.label_vox_per_s", vox_all, t)
    counts["components.lesions"] = sum(lab.lesion_count for lab in labelings)

    with section("probe.weighting"):
        t, _ = rep(lambda: [weighting.build_weight_map(lab) for lab in labelings])
    rate("weighting.weight_map_vox_per_s", vox_all, t)

    cfg = inp.train_cfg
    for kind in TRAIN_KINDS:
        runs = {0: [], cfg.epochs: []}
        with section(f"probe.trainer.train.{kind}"):
            for epochs in (0, cfg.epochs, cfg.epochs, 0):
                t0 = perf()
                trainer.train(replace(cfg, loss_kind=kind, epochs=epochs))
                runs[epochs].append(perf() - t0)
        out[f"trainer.epoch_ms.{kind}"] = (
            (median(runs[cfg.epochs]) - median(runs[0])) * 1e3 / cfg.epochs, "ms")
        if kind == "wlt-combined":
            ms("trainer.train_prep_ms", runs[0])

    model = fixed_scorer()
    with section("probe.trainer.score"):
        t, preds = rep(lambda: [model.score_volume(ph.image) for ph in phantoms])
    rate("trainer.score_vox_per_s", vox_all, t)

    batch = phantoms[:inp.loss_cases]
    gts = [ph.truth for ph in batch]
    preds = preds[:inp.loss_cases]
    vox_batch = sum(g.shape.voxel_count for g in gts)
    with section("probe.trainer.evaluate_lesionwise"):
        t, _ = rep(lambda: trainer.evaluate_lesionwise(model, batch))
    ms("trainer.eval_lesionwise_ms", t)

    with section("probe.loss"):
        for kind in loss.LOSS_KINDS:
            for grad, label in ((False, "value"), (True, "grad")):
                t, _ = rep(lambda: loss.evaluate_loss(kind, gts, preds, want_grad=grad))
                rate(f"loss.{kind}.{label}_vox_per_s", vox_batch, t)
        m = inp.gradcheck_voxels
        t, _ = repeat(lambda: [loss.grad_check(k, gts[0], preds[0], max_voxels=m)
                               for k in loss.LOSS_KINDS], min_s=0.0)
        rate("loss.gradcheck_evals_per_s", 2 * m * len(loss.LOSS_KINDS), t, "1/s")

    with section("probe.reduction"):
        terms = [g.data.ravel(order="F") * q.data.ravel(order="F").astype(np.float64)
                 for g, q in zip(gts, preds)]
        t, _ = rep(lambda: [reduction.pairwise_sum(a) for a in terms])
        rate("reduction.pairwise_sum_vox_per_s", vox_batch, t)
        t, _ = rep(lambda: [float(np.sum(a)) for a in terms])
        rate("reduction.np_sum_vox_per_s", vox_batch, t)

    with section("probe.metrics"):
        pmasks = [volume.threshold(q, 0.5) for q in preds]
        pairs = list(zip(gts, pmasks))
        n = len(pairs)
        t, _ = rep(lambda: [metrics.dice(a, b) for a, b in pairs])
        ms("metrics.dice_ms", t, n)
        t, _ = rep(lambda: [metrics.hausdorff(a, b) for a, b in pairs])
        ms("metrics.hausdorff_ms", t, n)
        t, _ = rep(lambda: [metrics.hausdorff(a, b, percentile=95.0) for a, b in pairs])
        ms("metrics.hd95_ms", t, n)

    paths = [(inp.workdir / f"probe{i}.gt", inp.workdir / f"probe{i}.pred")
             for i in range(len(gts))]
    mbytes = vox_batch * (1 + 4) / 1e6   # u8 mask + f32 prediction payloads

    def save_all():
        for (gp, pp), g, q in zip(paths, gts, preds):
            volume.save_mask(g, gp)
            volume.save_volume(q, pp)

    with section("probe.volume"):
        t, _ = rep(save_all)
        out["volume.save_MBps"] = (mbytes / median(t), "MB/s")
        t, _ = rep(lambda: [(volume.load_mask(gp), volume.load_volume(pp))
                               for gp, pp in paths])
        out["volume.load_MBps"] = (mbytes / median(t), "MB/s")

    gp, pp = paths[0]

    def via_cli():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["loss", "--kind", "combined", "--gt", str(gp), "--pred", str(pp)])
        if rc != 0:
            raise RuntimeError(f"lesionloss loss exited {rc}")

    def direct():
        loss.evaluate_loss("combined", volume.load_mask(gp), volume.load_volume(pp))

    with section("probe.cli"):
        t_cli, _ = rep(via_cli)
        t_direct, _ = rep(direct)
    out["cli.loss_overhead_ms"] = ((median(t_cli) - median(t_direct)) * 1e3, "ms")
    return out, counts
