"""The three benchmark workloads: inputs from a seed, rounds of ops, checks.

ab-small   the paper's A/B experiment, one CLI `train` per objective at the
           criterion-7 corpus shape (40 train + 20 validation phantoms of 24^3)
           for 50 epochs, where the small-lesion recall gap already shows;
           the trainer epoch is >98% of the time and the features fit in L3.
big-grid   library `train` then `evaluate_lesionwise` on large fragmented
           phantoms; phantom generation and feature passes over data larger
           than L3 dominate.
loss-api   the loss engine called one request at a time on saved volume
           pairs, with no reuse between calls; the only workload that uses
           `metrics` and the volume reader and writer.

Every corpus and phantom seed derives from the workload seed; the package
only ever sees the generated inputs.  Each op's output is checked against
an earlier round of the same run (bit-exact) and, for the seeds that have
one, against the stored reference (stated tolerance).
"""

from __future__ import annotations

import contextlib
import io
import math
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

from harness import Expect, median, percentile_with_tail, perf
from lesionloss import cli, loss, metrics, synth, trainer, volume, weighting
from lesionloss.volume import GridShape
from probes import TRAIN_KINDS, ProbeInputs, fixed_scorer

GRADCHECK_GATE = 1e-4    # acceptance criterion 2
LOSS_RTOL = 1e-9         # loss values against the numpy oracle and references
TRAINED_RTOL = 1e-6      # trained losses may drift in their last bits
CLI_RTOL = 1e-5          # the CLI prints 6 significant digits
LARGE_GAP_MAX = 0.1      # acceptance criterion 7


def derive_seeds(seed: int, tag: str, n: int) -> list[int]:
    ss = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return [int(x) % 1_000_000 for x in ss.generate_state(n)]


def expected_components(phantoms) -> int:
    """Lesions never touch and fragments are grown apart, so every intact
    lesion is one 26-connected component and every fragment another."""
    return sum(len(g.fragments) if g.fragments else 1
               for ph in phantoms for g in ph.lesions)


def _parse_report(text: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


def _recall_counts(rep: trainer.LesionRecallReport) -> list[int]:
    return [n for b in (rep.small, rep.medium, rep.large)
            for n in (b.lesions_total, b.lesions_detected)]


def _metric(name, values, unit, scale=1.0):
    return (name, median(values) * scale, unit, len(values))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbSize:
    train_count: int = 40
    val_count: int = 20
    dim: int = 24
    epochs: int = 50


class AbSmall:
    name = "ab-small"

    def __init__(self, seed: int, workdir: Path, expect: Expect, threads: int,
                 size: AbSize = AbSize()):
        self.size = size
        self.expect = expect
        self.threads = threads
        self.corpus_seed, self.init_seed = derive_seeds(seed, self.name, 2)
        self._round: dict[str, dict] = {}

    def setup(self) -> None:
        s = self.size
        self.argv = {
            kind: ["train", "--loss", kind, "--epochs", str(s.epochs),
                   "--train-count", str(s.train_count),
                   "--val-count", str(s.val_count),
                   "--dims", f"{s.dim} {s.dim} {s.dim}",
                   "--corpus-seed", str(self.corpus_seed),
                   "--seed", str(self.init_seed), "--threads", str(self.threads)]
            for kind in TRAIN_KINDS
        }
        self.train_specs = trainer.make_corpus(s.train_count, self.corpus_seed,
                                               dims=(s.dim,) * 3)
        self.val_specs = trainer.make_corpus(
            s.val_count, self.corpus_seed + s.train_count, dims=(s.dim,) * 3)
        self.val_lesions = sum(spec.n_lesions for spec in self.val_specs)
        self.cfg = trainer.TrainConfig(epochs=s.epochs, seed=self.init_seed,
                                       train_specs=self.train_specs)

    def warmup(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["train", "--epochs", "1", "--train-count", "2",
                      "--val-count", "2", "--dims", "12 12 12"])

    def counts(self) -> dict[str, int]:
        s = self.size
        vox = s.train_count * s.dim ** 3
        return {"train_voxels": vox,
                "voxel_epochs_per_round": vox * s.epochs * len(TRAIN_KINDS),
                "feature_bytes_per_op": vox * len(trainer.FEATURE_NAMES) * 8,
                "val_lesions": self.val_lesions,
                "ops_per_round": len(TRAIN_KINDS)}

    @staticmethod
    def _train(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def _check(self, kind: str, result) -> str | None:
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        f = _parse_report(text)
        try:
            epochs = int(f["epochs"])
            first, last = float(f["initial_loss"]), float(f["final_loss"])
            counts = [int(f[f"{b}_{c}"]) for b in ("small", "medium", "large")
                      for c in ("total", "detected")]
        except (KeyError, ValueError) as exc:
            return f"unparsable report ({exc!r}): {text!r}"
        self._round[kind] = f
        if epochs != self.size.epochs:
            return f"epochs={epochs}"
        if not (math.isfinite(last) and last < first):
            return f"loss did not decrease: {first} -> {last}"
        if sum(counts[0::2]) != self.val_lesions:
            return f"{sum(counts[0::2])} validation lesions, expected {self.val_lesions}"
        problem = self.expect.all([(f"{kind}.initial_loss", first, CLI_RTOL),
                                   (f"{kind}.final_loss", last, CLI_RTOL),
                                   (f"{kind}.recall_counts", counts)])
        if problem or kind != "wlt-combined":
            return problem
        tv, wl = self._round.get("tversky"), f
        if tv is None:
            return "no tversky result to compare with"
        if not float(wl["small_recall"]) > float(tv["small_recall"]):
            return (f"small recall wlt {wl['small_recall']} not above "
                    f"tversky {tv['small_recall']}")
        gap = float(tv["large_recall"]) - float(wl["large_recall"])
        if gap > LARGE_GAP_MAX:
            return f"large recall gap {gap} > {LARGE_GAP_MAX}"
        return None

    def run_round(self, rec, i: int) -> None:
        self._round = {}
        for kind in TRAIN_KINDS:
            rec.op(f"cli.train.{kind}", lambda: self._train(self.argv[kind]),
                   lambda r: self._check(kind, r))

    def summary(self, rec) -> list[tuple]:
        s = self.size
        times = [t for k in TRAIN_KINDS for t in rec.times[f"cli.train.{k}"]]
        vox_epochs = len(times) * s.train_count * s.dim ** 3 * s.epochs
        rows = [_metric(f"train_s.{k}", rec.times[f"cli.train.{k}"], "s")
                for k in TRAIN_KINDS if rec.times[f"cli.train.{k}"]]
        if times:
            rows.append(("vox_epochs_per_s", vox_epochs / sum(times),
                         "voxel-epoch/s", len(times)))
        return rows

    def probe_inputs(self, workdir: Path) -> ProbeInputs:
        return ProbeInputs(self.train_specs, self.cfg, len(self.train_specs), workdir)

    def extra_layer_metrics(self) -> list[tuple]:
        """cli.train_overhead_ms: the CLI wlt-combined op minus the same work
        done directly, timed back to back in the order cli, direct, direct, cli."""
        def direct():
            model, _ = trainer.train(self.cfg)   # the CLI's wlt-combined config
            trainer.evaluate_lesionwise(model, [synth.generate(s) for s in self.val_specs])

        times = {"cli": [], "direct": []}
        for which in ("cli", "direct", "direct", "cli"):
            t0 = perf()
            if which == "cli":
                self._train(self.argv["wlt-combined"])
            else:
                direct()
            times[which].append(perf() - t0)
        overhead = median(times["cli"]) - median(times["direct"])
        return [("cli.train_overhead_ms", overhead * 1e3, "ms", 2)]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BigSize:
    dim: int = 96
    train_count: int = 4
    val_count: int = 2
    lesions: int = 24
    radius: tuple = (1.3, 6.0)
    fragmentation: float = 0.3
    epochs: int = 3


class BigGrid:
    name = "big-grid"

    def __init__(self, seed: int, workdir: Path, expect: Expect, threads: int,
                 size: BigSize = BigSize()):
        self.size = size
        self.expect = expect
        self.phantom_seed, self.init_seed = derive_seeds(seed, self.name, 2)

    def _specs(self, count, first_seed):
        s = self.size
        return tuple(
            synth.PhantomSpec(shape=GridShape((s.dim,) * 3), n_lesions=s.lesions,
                              radius_range_vox=s.radius,
                              fragmentation_prob=s.fragmentation,
                              noise_sigma=0.6, seed=first_seed + i)
            for i in range(count))

    def setup(self) -> None:
        s = self.size
        self.train_specs = self._specs(s.train_count, self.phantom_seed)
        self.val_specs = self._specs(s.val_count, self.phantom_seed + s.train_count)
        self.cfg = trainer.TrainConfig(loss_kind="wlt-combined", epochs=s.epochs,
                                       seed=self.init_seed,
                                       train_specs=self.train_specs)

    def warmup(self) -> None:
        spec = synth.PhantomSpec(GridShape((12, 12, 12)), 2, (1.3, 2.0),
                                 fragmentation_prob=1.0)
        cfg = trainer.TrainConfig(epochs=1, train_specs=(spec,))
        model, _ = trainer.train(cfg)
        trainer.evaluate_lesionwise(model, [synth.generate(spec)])

    def counts(self) -> dict[str, int]:
        s = self.size
        vox = s.train_count * s.dim ** 3
        return {"train_voxels": vox,
                "voxel_epochs_per_round": vox * s.epochs,
                "feature_bytes_per_op": vox * len(trainer.FEATURE_NAMES) * 8,
                "val_voxels": s.val_count * s.dim ** 3,
                "val_components": self.expect.seen.get("val.components"),
                "val_fragments": self.expect.seen.get("val.fragments"),
                "ops_per_round": 3}

    def _check_train(self, result) -> str | None:
        _model, curve = result
        if len(curve) != self.size.epochs + 1:
            return f"{len(curve)} loss values for {self.size.epochs} epochs"
        if not all(math.isfinite(v) for v in curve):
            return f"non-finite loss curve {curve}"
        if not curve[-1] < curve[0]:
            return f"loss did not decrease: {curve[0]} -> {curve[-1]}"
        return self.expect("train.loss_curve", list(curve), TRAINED_RTOL)

    def _check_generate(self, phantoms) -> str | None:
        got = [len(ph.lesions) for ph in phantoms]
        if got != [spec.n_lesions for spec in self.val_specs]:
            return f"lesion counts {got}"
        frags = sum(len(g.fragments) for ph in phantoms for g in ph.lesions
                    if g.fragments)
        return self.expect.all([("val.components", expected_components(phantoms)),
                                ("val.fragments", frags)])

    def _check_eval(self, rep, phantoms) -> str | None:
        counts = _recall_counts(rep)
        want = expected_components(phantoms)
        if sum(counts[0::2]) != want:
            return f"{sum(counts[0::2])} lesions evaluated, expected {want}"
        return self.expect("eval.recall_counts", counts)

    def run_round(self, rec, i: int) -> None:
        trained = rec.op("trainer.train", lambda: trainer.train(self.cfg),
                         self._check_train)
        val = rec.op("synth.generate",
                     lambda: [synth.generate(spec) for spec in self.val_specs],
                     self._check_generate)
        if trained is not None and val is not None:
            rec.op("trainer.evaluate_lesionwise",
                   lambda: trainer.evaluate_lesionwise(trained[0], val),
                   lambda rep: self._check_eval(rep, val))

    def summary(self, rec) -> list[tuple]:
        s = self.size
        rows = []
        train = rec.times["trainer.train"]
        if train:
            rows.append(_metric("train_s.wlt-combined", train, "s"))
            vox_epochs = len(train) * s.train_count * s.dim ** 3 * s.epochs
            rows.append(("vox_epochs_per_s", vox_epochs / sum(train),
                         "voxel-epoch/s", len(train)))
        if rec.times["trainer.evaluate_lesionwise"]:
            rows.append(_metric("eval_s", rec.times["trainer.evaluate_lesionwise"], "s"))
        return rows

    def probe_inputs(self, workdir: Path) -> ProbeInputs:
        # one 96^3 case keeps the float64 loss temporaries near 300 MB, and
        # 10 epochs on it stand out from the time of generating it
        one = replace(self.cfg, train_specs=self.train_specs[:1], epochs=10)
        return ProbeInputs(self.train_specs, one, 1, workdir)

    def extra_layer_metrics(self) -> list[tuple]:
        return []


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossSize:
    dim: int = 48
    cases: int = 16
    lesions: int = 8
    radius: tuple = (1.3, 5.0)
    fragmentation: float = 0.3
    gradcheck_voxels: int = 16


def _weights_oracle(gt: volume.Mask) -> np.ndarray:
    """omega of each voxel's lesion volume, labeled by scipy directly."""
    lab, _n = ndimage.label(gt.data, structure=np.ones((3, 3, 3), bool))
    vols = np.bincount(lab.ravel())
    lut = np.array([weighting.WeightCurveParams().w_min]
                   + [weighting.omega(v) for v in vols[1:]])
    return lut[lab].ravel()


def loss_oracle(gts, preds) -> dict[str, float]:
    """Default-parameter batch losses from their global-sum definitions."""
    p = np.concatenate([g.data.ravel().astype(np.float64) for g in gts])
    q = np.concatenate([v.data.ravel().astype(np.float64) for v in preds])
    w = np.concatenate([_weights_oracle(g) for g in gts])
    tp, fp, fn = np.sum(p * q), np.sum((1 - p) * q), np.sum(p * (1 - q))
    tv = loss.TverskyParams()
    tversky = 1.0 - (tv.smooth + tp) / (tv.smooth + tp + tv.alpha * fp + tv.beta * fn)
    lo = loss.CE_CLAMP_DEFAULT
    ce = np.mean(-(p * np.log(np.clip(q, lo, 1 - lo))
                   + (1 - p) * np.log(np.clip(1 - q, lo, 1 - lo))))
    eps = loss.WLT_SMOOTH_DEFAULT
    tpw, fnw = np.sum(p * q * w), np.sum(p * (1 - q) * w)
    wlt = -(eps + tpw) / (eps + tp + tv.alpha * fp + tv.beta * fnw)
    lam = loss.CombinedParams().ce_weight
    return {"tversky": float(tversky), "ce": float(ce), "wlt": float(wlt),
            "combined": float(lam * ce + (1 - lam) * wlt)}


class LossApi:
    name = "loss-api"

    def __init__(self, seed: int, workdir: Path, expect: Expect, threads: int,
                 size: LossSize = LossSize()):
        self.size = size
        self.expect = expect
        self.workdir = workdir
        self.phantom_seed, self.sample_seed = derive_seeds(seed, self.name, 2)
        self._oracle = None

    def setup(self) -> None:
        s = self.size
        self.specs = tuple(
            synth.PhantomSpec(shape=GridShape((s.dim,) * 3), n_lesions=s.lesions,
                              radius_range_vox=s.radius,
                              fragmentation_prob=s.fragmentation,
                              noise_sigma=0.6, seed=self.phantom_seed + i)
            for i in range(s.cases))
        phantoms = [synth.generate(spec) for spec in self.specs]
        scorer = fixed_scorer()
        self.gts = [ph.truth for ph in phantoms]
        self.preds = [scorer.score_volume(ph.image) for ph in phantoms]
        self.pmasks = [volume.threshold(q, 0.5) for q in self.preds]
        self.lesions = sum(len(ph.lesions) for ph in phantoms)
        self.components = expected_components(phantoms)
        self.paths = []
        for i, (g, q) in enumerate(zip(self.gts, self.preds)):
            gp, pp = self.workdir / f"case{i}.gt", self.workdir / f"case{i}.pred"
            volume.save_mask(g, gp)
            volume.save_volume(q, pp)
            self.paths.append((gp, pp))

    def warmup(self) -> None:
        g, q = self.gts[0], self.preds[0]
        loss.evaluate_loss("combined", g, q, want_grad=True)
        metrics.hausdorff(g, self.pmasks[0], percentile=95.0)
        self.oracle()

    def counts(self) -> dict[str, int]:
        s = self.size
        vox = s.cases * s.dim ** 3
        return {"voxels": vox,
                "loss_voxels_per_round": vox * 2 * len(loss.LOSS_KINDS) + vox,
                "bytes_loaded_per_round": vox * 5,
                "bytes_saved_per_round": vox * 4,
                "lesions": self.lesions,
                "components": self.components,
                "ops_per_round": s.cases * 6 + 2 * len(loss.LOSS_KINDS)
                + len(loss.LOSS_KINDS)}

    def oracle(self):
        if self._oracle is None:
            self._oracle = (loss_oracle(self.gts, self.preds),
                            [loss_oracle([g], [q])["combined"]
                             for g, q in zip(self.gts, self.preds)])
        return self._oracle

    def _check_load(self, i, pair) -> str | None:
        g, q = pair
        if not (np.array_equal(g.data, self.gts[i].data)
                and np.array_equal(q.data.view(np.uint32),
                                   self.preds[i].data.view(np.uint32))):
            return f"case {i} did not load back bit-identical"
        return None

    def _check_loss(self, key, want, rep, grad_cases) -> str | None:
        if not math.isclose(rep.value, want, rel_tol=LOSS_RTOL):
            return f"{key}={rep.value!r}, oracle {want!r}"
        if grad_cases:
            grads = rep.gradient if isinstance(rep.gradient, list) else [rep.gradient]
            if len(grads) != grad_cases or not all(
                    np.isfinite(v.data).all() for v in grads):
                return f"{key}: bad gradient"
        return self.expect(key, rep.value, LOSS_RTOL)

    def _check_saved(self, path) -> str | None:
        size = Path(str(path) + volume.RAW_SUFFIX).stat().st_size
        want = 4 * self.size.dim ** 3
        return None if size == want else f"{path}: {size} raw bytes, expected {want}"

    def _check_dice(self, i, value) -> str | None:
        a, b = self.gts[i].data, self.pmasks[i].data
        want = 2 * int(np.count_nonzero(a & b)) / (int(a.sum()) + int(b.sum()))
        return None if value == want else f"dice {value!r}, oracle {want!r}"

    def _check_distance(self, key, value) -> str | None:
        if not (math.isfinite(value) and value >= 0.0):
            return f"{key}={value!r}"
        return self.expect(key, value, LOSS_RTOL)

    def run_round(self, rec, i: int) -> None:
        batch, per_case = self.oracle()
        gts, preds = list(self.gts), list(self.preds)
        for c, (gp, pp) in enumerate(self.paths):
            pair = rec.op("volume.load",
                          lambda: (volume.load_mask(gp), volume.load_volume(pp)),
                          lambda r: self._check_load(c, r))
            if pair is not None:
                gts[c], preds[c] = pair
        grads = None
        for kind in loss.LOSS_KINDS:
            for want_grad in (False, True):
                key = f"loss.{kind}.{'grad' if want_grad else 'value'}"
                rep = rec.op(key, lambda: loss.evaluate_loss(
                    kind, gts, preds, want_grad=want_grad),
                    lambda r: self._check_loss(key, batch[kind], r,
                                               len(gts) if want_grad else 0))
                if rep is not None and kind == "combined" and want_grad:
                    grads = rep.gradient
        for c in range(len(gts)):
            rec.op("loss.combined.case", lambda: loss.evaluate_loss(
                "combined", gts[c], preds[c], want_grad=True),
                lambda r: self._check_loss(f"case{c}.combined", per_case[c], r, 1))
        for c in range(len(gts)):
            path = self.workdir / f"grad{c}"
            rec.op("volume.save", lambda: _save_gradient(grads, c, path),
                   lambda _r: self._check_saved(path))
        for kind in loss.LOSS_KINDS:
            rec.op(f"loss.grad_check.{kind}", lambda: loss.grad_check(
                kind, gts[0], preds[0], max_voxels=self.size.gradcheck_voxels,
                seed=self.sample_seed),
                lambda err: None if err < GRADCHECK_GATE else
                f"{kind} grad_check error {err} >= {GRADCHECK_GATE}")
        for c in range(len(gts)):
            a, b = gts[c], self.pmasks[c]
            rec.op("metrics.dice", lambda: metrics.dice(a, b),
                   lambda v: self._check_dice(c, v))
            hd = rec.op("metrics.hausdorff", lambda: metrics.hausdorff(a, b),
                        lambda v: self._check_distance(f"hd.{c}", v))
            rec.op("metrics.hd95", lambda: metrics.hausdorff(a, b, percentile=95.0),
                   lambda v: self._check_distance(f"hd95.{c}", v) or (
                       None if hd is None or v <= hd else f"hd95 {v} > hd {hd}"))

    def summary(self, rec) -> list[tuple]:
        calls = [t for name, ts in rec.times.items() if name.startswith("loss.")
                 and not name.startswith("loss.grad_check") for t in ts]
        if not calls:
            return []
        rows = [_metric("loss_call_ms.p50", calls, "ms", 1e3)]
        p90 = percentile_with_tail(calls, 90)
        if p90 is not None:
            rows.append(("loss_call_ms.p90", p90 * 1e3, "ms", len(calls)))
        return rows

    def probe_inputs(self, workdir: Path) -> ProbeInputs:
        cfg = trainer.TrainConfig(epochs=10, seed=self.sample_seed,
                                  train_specs=self.specs)
        return ProbeInputs(self.specs, cfg, len(self.specs), workdir,
                           self.size.gradcheck_voxels)

    def extra_layer_metrics(self) -> list[tuple]:
        return []


def _save_gradient(grads, c: int, path) -> None:
    if grads is None:
        raise RuntimeError("no combined-loss gradient to save")
    volume.save_volume(grads[c], path)


WORKLOADS = {w.name: w for w in (AbSmall, BigGrid, LossApi)}
