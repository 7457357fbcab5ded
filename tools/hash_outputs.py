"""Hash the numeric outputs of lesionloss, one digest per group.

    python3 tools/hash_outputs.py                      # the package in ./src
    python3 tools/hash_outputs.py --src OTHER/src      # another tree's package
    python3 tools/hash_outputs.py --against OTHER/src  # ./src against another
    python3 tools/hash_outputs.py --against OTHER/src --expect-moved loss train

Prints one "group count sha256" line per group, where count is the number
of outputs hashed.  Two trees whose lines are equal produce bit-identical
outputs on every case below, so a refactor that must not move a bit is
checked by comparing each tree's lines.  --against does that in one run:
it hashes the other tree in a subprocess, with this file's cases, while
hashing its own, and compares the two output by output.  It prints each
group that differs, with how many of its outputs differ and the largest
relative difference over their numeric entries by kind (loss values,
gradients, grad_check errors, other numbers), and exits 1 if any does.
With --expect-moved it exits 0 only when the groups that differ are
exactly the named ones, so a deliberate bit move is a checked statement.

    loss       evaluate_loss values and float32 gradients: every kind, the
               weighted-TP-denominator switch off and on, three Tversky
               settings (one with alpha = 0), single, 5-case mixed-size and
               3-case batches, and with log-uniform predictions a 48^3 and
               41x43x47 batch and a batch of cases that end at and around
               the loss phases' chunk boundaries (2^16 voxels and 2^16 + 1,
               1.5 * 2^16 - 1, + 0 and + 1), each also case by case
    gradcheck  grad_check over the same kinds and batches, 6 voxels per case
               (2 in the log-uniform ones, and every voxel of the 5-case
               mixed batch, whose global sums span its cases); of every
               kind, 8 voxels of a 2^16 + 2^14 and of a 2^16 + 2^15 + 2^13
               voxel case, whose last chunk piece is padded and is not, and
               every voxel of a 5x6x7 case
    degenerate evaluate_loss values and gradients on all-empty and
               all-foreground truth with predictions of exactly 0.0, -0.0,
               1.0 or a mix of them (a 4^3, a 3x4x5 and a one-voxel case,
               alone and as a batch), every kind, the switch off and on;
               grad_check of every kind on empty and full truth; and
               evaluate_loss values and gradients of a 64x32x40 case (2^16
               + 2^14 voxels, its last chunk piece padded) on empty, full
               and 5% truth with predictions of 0.0, -0.0 or a mix of 0.0,
               -0.0 and 1.0, every kind, the switch off and on
    train      train weights and loss curves, and scorer_loss with its
               gradient: every train kind, an equal-size, a mixed-size,
               the 40-phantom 24^3 A/B corpus and a 48^3, 41x43x47, 48^3
               corpus, threads 1, 2 and 3
    recall     evaluate_lesionwise text at three thresholds on fragmented
               phantoms
    synth      generate and shrink image and truth bytes
    phantoms   generate and one shrink of 128 seeded random specs (grid
               sides 10-40, random radius ranges, fragmentation 0, 0.5 or
               1, 1-6 fragments per lesion; the message when placement
               fails) and of five specs shaped like the benchmark's: two
               96^3 with 24 lesions, three 48^3 with 8
    labels     label_components ids and volumes and build_weight_map bytes
               (unit volume scale, and mm^3 scale on an anisotropic
               spacing) for every connectivity, on 120 seeded random masks
               of 1-16 voxels per axis, 1-voxel-thick slabs and lines,
               single voxels, empty and full grids, a fragmented 48^3
               phantom truth, sparse 64^3 blobs, runs across row ends, a
               3-D serpentine and 32^3 noise at 30%
    scores     extract_features values and score_volume float32 bytes for
               fixed weights and for weights trained on a small corpus, on
               the recall group's fragmented phantoms, the phantoms
               group's benchmark-shaped 96^3 and 48^3 specs and a
               near-constant 12^3 image (one value, 5% of its voxels one
               float32 step above it), whose 3^3 variance is clipped at 0
    files      the exact bytes save_volume, save_mask, save_phantom (both
               grids and the .spec sidecar) and save_scorer write, for
               C-ordered, F-ordered and strided inputs, and what load_volume,
               load_mask, read_phantom_sidecar and load_scorer read back;
               and the type and message of the error each of load_volume
               and load_mask raises on 13 malformed header+raw pairs (the
               temporary directory replaced by a fixed token)
    metrics    dice, and hausdorff at percentiles 100, 95 and 50, at unit
               and (0.5, 1.25, 3.0) spacing on seeded same-shape mask
               pairs (random masks, thin slabs, single voxels; the message
               for an empty mask); auc, and kappa at thresholds 0, 0.5 and
               1, on seeded outcome lists with tied scores; the bytes
               write_outcomes writes and what read_outcomes reads back
    help       the top-level and every subcommand's --help text, formatted
               at COLUMNS=80

Runs in well under a minute on two cores.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np


def _canon(x):
    """An output item as it is hashed and compared: an array or a float as
    itself, anything else as bytes (its repr, unless it is bytes)."""
    if isinstance(x, (np.ndarray, float, bytes)):
        return x
    return repr(x).encode()


def _encode(x) -> bytes:
    """The bytes a canonical item (_canon) is hashed and compared by."""
    if isinstance(x, np.ndarray):
        return x.dtype.str.encode() + repr(x.shape).encode() + x.tobytes()
    if isinstance(x, float):
        return x.hex().encode()
    return x


def _numbers(x):
    """A canonical item's numeric entries as a flat float64 array, or None
    for an item that is not numeric."""
    if isinstance(x, float):
        return np.array([x])
    if isinstance(x, np.ndarray) and x.dtype.kind in "biuf":
        return x.astype(np.float64).ravel()
    return None


def _relative_difference(a, b) -> float | None:
    """The largest relative difference over the numeric entries of two
    canonical items: |a - b| / max(|a|, |b|), 0 where the two are equal
    (either zero, or both NaN) and inf where a non-finite entry differs or
    the two differ in shape; None when either is not numeric."""
    a, b = _numbers(a), _numbers(b)
    if a is None or b is None:
        return None
    if a.shape != b.shape:
        return np.inf
    with np.errstate(all="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    return float(np.nan_to_num(rel, nan=np.inf).max(initial=0.0))


class _Group:
    """One group's digest over its outputs, one per add call.

    Given send, each output also goes to it, as ("out", items), and line
    is sent as ("end", line) by the caller; given peer (a connection that
    recv()s what another tree's group sent), each output is compared with
    the peer's, counting the ones that differ (differ) and, by kind of
    numeric entry, the largest relative difference over them (worst: kind
    -> difference, 0 for a kind the group adds that no differing output
    moved).  close() reads the peer's group to its end and keeps the
    peer's line (theirs; "" if the peer ended early)."""

    def __init__(self, name, send=None, peer=None):
        self.name, self.count, self.h = name, 0, hashlib.sha256()
        self.send, self.peer, self.theirs = send, peer, None
        self.differ, self.worst = 0, {}

    def add(self, *items, **kinds):
        """One output: items of kind "other", then each keyword's item or
        list of items of that kind (value, gradient or error, for a
        grad_check error), hashed in that order."""
        tags = ["other"] * len(items)
        items = list(items)
        for kind, xs in kinds.items():
            xs = xs if isinstance(xs, list) else [xs]
            items += xs
            tags += [kind] * len(xs)
        items = [_canon(x) for x in items]
        codes = [_encode(x) for x in items]
        for kind, x in zip(tags, items):
            if _numbers(x) is not None:
                self.worst.setdefault(kind, 0.0)
        for x in codes:
            self.h.update(len(x).to_bytes(8, "little") + x)
        self.count += 1
        if self.send is not None:
            self.send(("out", items))
        if self.peer is None:
            return
        theirs = self._next()
        if theirs is None:    # the peer's group has fewer outputs
            self.differ += 1
        elif codes != [_encode(x) for x in theirs]:
            self.differ += 1
            for kind, a, b in zip(tags, items, theirs):
                rel = _relative_difference(a, b)
                if rel is not None:
                    self.worst[kind] = max(self.worst[kind], rel)

    def _next(self):
        """The peer's next output, or None once its group has ended."""
        if self.theirs is not None:
            return None
        try:
            kind, got = self.peer.recv()
        except EOFError:    # the other process ended early
            kind, got = "end", ""
        if kind == "out":
            return got
        self.theirs = got
        return None

    def close(self):
        while self.peer is not None and self.theirs is None:
            if self._next() is not None:    # the peer's group has more outputs
                self.differ += 1

    def line(self):
        return f"{self.name} {self.count} {self.h.hexdigest()}"


def _verdict(groups, src, other, expected=()) -> int:
    """Print each closed group (_Group.close) whose line differs from its
    peer's, with how many of its outputs differ and the largest relative
    difference over their numeric entries by kind, and a summary; 0 when
    the groups that differ are exactly the expected ones, else 1."""
    moved = []
    for g in groups:
        if g.line() == g.theirs:
            continue
        moved.append(g.name)
        count = max(g.count, int(g.theirs.split()[1]))
        worst = ", ".join(f"{k} {v:.3g}" for k, v in g.worst.items()) or "none"
        print(f"differs: {g.name}\n  {src}: {g.line()}\n  {other}: {g.theirs}\n"
              f"  {g.differ} of {count} outputs differ, largest relative "
              f"difference: {worst}")
    print(f"{len(moved)} of {len(groups)} groups differ from {other}")
    if set(moved) == set(expected):
        return 0
    if expected:
        print(f"expected to move: {' '.join(expected)}; moved: {' '.join(moved)}")
    return 1


def _cases(ll, rng, dims_list, wide=False):
    """Random truth and predictions, uniform in [0.02, 0.98] or, wide,
    log-uniform in [1e-3, 0.98]: the float64 sums of float32 values of
    one magnitude are exact, so only wide values make a sum's bits depend
    on its tree."""
    gts, preds = [], []
    for dims in dims_list:
        gts.append(ll.volume.Mask.from_array(rng.random(dims) < 0.25))
        q = (10.0 ** rng.uniform(-3.0, -0.01, dims) if wide
             else rng.uniform(0.02, 0.98, dims))
        preds.append(ll.volume.Volume.from_array(q.astype(np.float32)))
    return gts, preds


# the default chunk of the loss phases is 2^16 voxels: cases of a chunk,
# a chunk + 1 and 1.5 chunks - 1, + 0 and + 1, where a last piece's tree
# node starts to take "+ 0.0"
_CHUNK_EDGES = [(65536, 1, 1), (65537, 1, 1), (98303, 1, 1), (98304, 1, 1),
                (98305, 1, 1)]


def _batches(ll):
    rng = np.random.default_rng(20240)
    single = _cases(ll, rng, [(9, 8, 7)])
    mixed = _cases(ll, rng, [(12, 12, 12), (9, 9, 9), (12, 12, 12),
                             (7, 8, 9), (12, 12, 12)])
    three = _cases(ll, rng, [(10, 10, 10)] * 3)
    large = _cases(ll, rng, [(48, 48, 48), (41, 43, 47)], wide=True)
    edges = _cases(ll, rng, _CHUNK_EDGES, wide=True)
    batches = {"single": (single[0][0], single[1][0]), "mixed": mixed,
               "three": three, "large": large, "edges": edges}
    # and each of their cases alone: a batch's exact sum over its cases can
    # round one case sum's last bit away
    for name, (gts, preds) in (("large", large), ("edges", edges)):
        for i, case in enumerate(zip(gts, preds)):
            batches[f"{name}{i}"] = case
    return batches


def _loss(ll, g):
    params = [ll.loss.TverskyParams(), ll.loss.TverskyParams(0.0, 1.0, 1e-6),
              ll.loss.TverskyParams(0.7, 0.4, 0.5)]
    for name, (gt, pred) in _batches(ll).items():
        for kind in ll.loss.LOSS_KINDS:
            for wtd in (False, True):
                for p in params:
                    for want_grad in (False, True):
                        rep = ll.loss.evaluate_loss(
                            kind, gt, pred, tversky=p, want_grad=want_grad,
                            weight_tp_denominator=wtd)
                        grads = rep.gradient
                        if grads is not None and not isinstance(grads, list):
                            grads = [grads]
                        g.add(name, kind, wtd, p, value=rep.value,
                              gradient=[v.data for v in grads or ()])


def _gradcheck(ll, g):
    for name, (gt, pred) in _batches(ll).items():
        # few voxels, so a tree whose grad_check evaluates the whole batch
        # twice per checked voxel stays cheap under --against; every voxel
        # of the mixed batch, whose perturbed global sums span five cases
        voxels = (None if name == "mixed" else
                  2 if name.startswith(("large", "edges")) else 6)
        for kind in ll.loss.LOSS_KINDS:
            for wtd in (False, True):
                err = ll.loss.grad_check(kind, gt, pred, max_voxels=voxels,
                                         weight_tp_denominator=wtd)
                g.add(name, kind, wtd, error=err)
    # cases over the chunk boundary, their last piece of 2^14 voxels padded
    # with "+ 0.0" and of 2^15 + 2^13 not, and every voxel of a small case
    rng = np.random.default_rng(20246)
    across = _cases(ll, rng, [(65536 + 16384, 1, 1), (65536 + 32768 + 8192, 1, 1)],
                    wide=True)
    small = _cases(ll, rng, [(5, 6, 7)], wide=True)
    for name, (gts, preds), voxels in (("across", across, 8), ("all", small, None)):
        for gt, pred in zip(gts, preds):
            for kind in ll.loss.LOSS_KINDS:
                g.add(name, kind, error=ll.loss.grad_check(
                    kind, gt, pred, max_voxels=voxels))


def _degenerate(ll, g):
    rng = np.random.default_rng(20241)
    dims = [(4, 4, 4), (3, 4, 5), (1, 1, 1)]
    preds = {"0.0": [np.full(d, 0.0) for d in dims],
             "-0.0": [np.full(d, -0.0) for d in dims],
             "1.0": [np.full(d, 1.0) for d in dims],
             "mixed": [rng.choice([0.0, -0.0, 1.0], d) for d in dims]}
    inside = [ll.volume.Volume.from_array(rng.uniform(0.05, 0.95, d)
                                          .astype(np.float32)) for d in dims]
    for truth in ("empty", "full"):
        gts = [ll.volume.Mask.from_array(np.full(d, truth == "full")) for d in dims]
        for n in (1, len(dims)):
            for kind in ll.loss.LOSS_KINDS:
                for name, qs in preds.items():
                    vols = [ll.volume.Volume.from_array(q.astype(np.float32))
                            for q in qs[:n]]
                    for wtd in (False, True):
                        rep = ll.loss.evaluate_loss(
                            kind, gts[:n], vols, want_grad=True,
                            weight_tp_denominator=wtd)
                        g.add(truth, name, n, kind, wtd, value=rep.value,
                              gradient=[v.data for v in rep.gradient])
                g.add(truth, n, kind,
                      error=ll.loss.grad_check(kind, gts[:n], inside[:n]))
    # a case of 2^16 + 2^14 voxels, whose last chunk piece is padded
    dims = (64, 32, 40)
    truths = {"empty": np.zeros(dims, bool), "full": np.ones(dims, bool),
              "5%": rng.random(dims) < 0.05}
    preds = {"0.0": np.full(dims, 0.0), "-0.0": np.full(dims, -0.0),
             "mixed": rng.choice([0.0, -0.0, 1.0], dims)}
    for truth, fg in truths.items():
        gt = ll.volume.Mask.from_array(fg)
        for name, q in preds.items():
            pred = ll.volume.Volume.from_array(q.astype(np.float32))
            for kind in ll.loss.LOSS_KINDS:
                for wtd in (False, True):
                    rep = ll.loss.evaluate_loss(kind, gt, pred, want_grad=True,
                                                weight_tp_denominator=wtd)
                    g.add(truth, name, kind, wtd, value=rep.value,
                          gradient=rep.gradient.data)


def _corpora(ll):
    equal = ll.trainer.make_corpus(6, 300, dims=(16, 16, 16))
    dims = [(16, 16, 16), (9, 9, 9), (18, 17, 15), (7, 8, 9), (16, 16, 16)]
    mixed = tuple(
        ll.synth.PhantomSpec(ll.volume.GridShape(d), 2, (1.3, 2.0),
                             noise_sigma=0.6, seed=400 + i)
        for i, d in enumerate(dims))
    large = tuple(
        ll.synth.PhantomSpec(ll.volume.GridShape(d), 6, (1.3, 4.0),
                             fragmentation_prob=0.3, noise_sigma=0.6, seed=450 + i)
        for i, d in enumerate([(48, 48, 48), (41, 43, 47), (48, 48, 48)]))
    return {"equal": equal, "mixed": mixed,
            "criterion7": ll.trainer.make_corpus(40, 100), "large": large}


def _train(ll, g):
    for name, specs in _corpora(ll).items():
        phantoms = [ll.synth.generate(s) for s in specs]
        for kind in ll.trainer.TRAIN_LOSS_KINDS:
            for threads in (1, 2, 3):
                cfg = ll.trainer.TrainConfig(loss_kind=kind, epochs=20, seed=3,
                                             train_specs=specs, threads=threads)
                model, curve = ll.trainer.train(cfg)
                g.add(name, kind, threads, model.weights, value=np.array(curve))
                value, grad = ll.trainer.scorer_loss(
                    replace(cfg, epochs=0), model.weights, phantoms, True)
                g.add(name, kind, threads, value=value, gradient=grad)


def _fragmented(ll):
    """Four 32^3 phantoms, alternately of large and of small lesions, most
    broken up: every recall bucket holds lesions."""
    return [ll.synth.generate(ll.synth.PhantomSpec(
        ll.volume.GridShape((32, 32, 32)), 6, (1.0, 1.7) if i % 2 else (2.5, 5.5),
        fragmentation_prob=0.6, fragments_per_lesion=(2, 6), noise_sigma=0.5,
        seed=500 + i))
        for i in range(4)]


def _recall(ll, g):
    phantoms = _fragmented(ll)
    model = ll.trainer.VoxelScorer(np.array([1.1, 2.3, -0.4, 0.2, -2.0]))
    for thresh in (0.3, 0.5, 0.7):
        g.add(thresh, ll.trainer.evaluate_lesionwise(model, phantoms, thresh)
              .to_text())


def _synth(ll, g):
    for ph in _fragmented(ll):
        for p in (ph, ll.synth.shrink(ph, 0.6), ll.synth.shrink(ph, 0.2)):
            g.add(p.image.data, p.truth.data, p.shrink_factors)


def _bench_specs(ll):
    """Five specs shaped like the benchmark's: two 96^3 with 24 lesions,
    three 48^3 with 8."""
    return [ll.synth.PhantomSpec(ll.volume.GridShape((dim,) * 3), lesions,
                                 (1.3, rmax), fragmentation_prob=0.3,
                                 noise_sigma=0.6, seed=s)
            for dim, lesions, rmax, seeds in ((96, 24, 6.0, (0, 1)),
                                              (48, 8, 5.0, (0, 1, 2)))
            for s in seeds]


def _phantoms(ll, g):
    rng = np.random.default_rng(20242)
    specs = []
    for _ in range(128):
        side = rng.integers(10, 41, 3)
        rmax = float(rng.uniform(0.8, (side.min() - 1) / 2.0))
        fmin = int(rng.integers(1, 7))
        specs.append(ll.synth.PhantomSpec(
            ll.volume.GridShape(tuple(int(d) for d in side)),
            int(rng.integers(0, 7)), (float(rng.uniform(0.6, rmax)), rmax),
            fragmentation_prob=float(rng.choice([0.0, 0.5, 1.0])),
            fragments_per_lesion=(fmin, int(rng.integers(fmin, 7))),
            noise_sigma=0.3, seed=int(rng.integers(2**32))))
    for spec in specs + _bench_specs(ll):
        factor = float(rng.uniform(0.05, 1.0))
        try:
            ph = ll.synth.generate(spec)
        except RuntimeError as exc:
            g.add(spec, str(exc))
            continue
        for p in (ph, ll.synth.shrink(ph, factor)):
            g.add(spec, p.image.data, p.truth.data, p.shrink_factors)


def _label_masks(ll, rng):
    masks = []
    for _ in range(120):
        dims = tuple(int(d) for d in rng.integers(1, 17, 3))
        masks.append(rng.random(dims) < rng.choice([0.05, 0.2, 0.35, 0.6, 0.9]))
    for thin in ((1, 9, 11), (7, 1, 12), (13, 10, 1), (1, 1, 14), (1, 15, 1),
                 (16, 1, 1), (1, 1, 1)):
        for density in (0.3, 0.7):
            masks.append(rng.random(thin) < density)
    masks += [np.ones((1, 1, 1), bool), np.zeros((5, 6, 7), bool),
              np.ones((6, 5, 4), bool)]
    masks.append(ll.synth.generate(ll.synth.PhantomSpec(
        ll.volume.GridShape((48, 48, 48)), 10, (1.0, 4.0),
        fragmentation_prob=0.5, fragments_per_lesion=(2, 5), seed=600)
        ).truth.data)
    # many small runs, runs that cross row ends, one deep run graph and
    # dense noise, for the run labeler
    blobs = np.zeros((64, 64, 64), bool)
    x, y, z = np.ogrid[:64, :64, :64]
    for _ in range(40):
        c, r = rng.integers(0, 64, 3), rng.uniform(0.8, 3.5)
        blobs |= (x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2 <= r * r
    masks.append(blobs)
    wrap = np.zeros(9 * 8 * 30, bool)    # runs across 25 row ends
    for row in rng.choice(8 * 30 - 1, 25, replace=False):
        end = (row + 1) * 9
        wrap[end - rng.integers(1, 5):end + rng.integers(1, 5)] = True
    masks.append(wrap.reshape((9, 8, 30), order="F"))
    masks.append(_serpentine((15, 13, 11)))
    masks.append(rng.random((32, 32, 32)) < 0.3)    # dense noise
    return masks


def _serpentine(dims):
    """One thin lesion winding through the grid: every other row of every
    other plane, rows joined at alternate x ends, planes at alternate y
    ends.  (tests/oracles.serpentine draws the same mask; the tool keeps
    its own copy so that it runs on a bare src tree, without the tests.)"""
    nx, ny, nz = dims
    data = np.zeros(dims, bool)
    for i, z in enumerate(range(0, nz, 2)):
        for j, y in enumerate(range(0, ny, 2)):
            data[:, y, z] = True
            if y + 2 < ny:
                data[nx - 1 if j % 2 == 0 else 0, y + 1, z] = True
        if z + 2 < nz:
            data[:, (ny - 1) // 2 * 2 if i % 2 == 0 else 0, z + 1] = True
    return data


def _labels(ll, g):
    rng = np.random.default_rng(20243)
    spacing = (0.5, 1.25, 3.0)
    for data in _label_masks(ll, rng):
        for conn in ll.components.Connectivity:
            for sp in ((1.0, 1.0, 1.0), spacing):
                m = ll.volume.Mask.from_array(data, spacing=sp)
                lab = ll.components.label_components(m, conn)
                unit = ll.weighting.build_weight_map(lab)
                mm3 = ll.weighting.build_weight_map(
                    lab, volume_scale=m.shape.voxel_volume_mm3)
                g.add(conn.value, sp, lab.labels, lab.volumes, unit.weights,
                      mm3.weights)


def _scores(ll, g):
    cfg = ll.trainer.TrainConfig(epochs=20, seed=3, train_specs=ll.trainer
                                 .make_corpus(6, 300, dims=(16, 16, 16)))
    models = [ll.trainer.VoxelScorer(np.array([1.1, 2.3, -0.4, 0.2, -2.0])),
              ll.trainer.initial_scorer(0), ll.trainer.train(cfg)[0]]
    # a near-constant image: one value, 5% of its voxels one float32 step
    # above it, whose 3^3 variance cancels to a few ulps of either sign
    near = np.full((12, 12, 12), 7.0, np.float32)
    step = np.random.default_rng(20247).random(near.shape) < 0.05
    near[step] *= np.float32(1.0000001)
    images = [ph.image for ph in _fragmented(ll)] + [
        ll.synth.generate(s).image for s in _bench_specs(ll)] + [
        ll.volume.Volume.from_array(near)]
    for image in images:
        g.add(ll.trainer.extract_features(image))
        for model in models:
            g.add(model.weights, model.score_volume(image).data)


def _file_bytes(g, prefix):
    """Every file written under the path prefix, by name."""
    for path in sorted(prefix.parent.glob(prefix.name + ".*")):
        g.add(path.name, path.read_bytes())


def _header(*extra, **fields):
    """The text of a valid 2^3 f32 header with fields replaced (None drops
    one), then the lines extra."""
    base = {"dims": "2 2 2", "spacing": "1 1 1", "dtype": "f32",
            "order": "x-fastest-le", **fields}
    lines = [f"{k}={v}" for k, v in base.items() if v is not None]
    return "".join(f"{x}\n" for x in lines + list(extra))


_F32 = np.zeros(8, "<f4").tobytes()

# malformed pairs: case -> (header text, raw bytes)
_BAD_PAIRS = {
    "no =": (_header("junk"), _F32),
    "duplicate key": (_header("dims=2 2 2"), _F32),
    "unknown key": (_header("extra=1"), _F32),
    "missing key": (_header(spacing=None), _F32),
    "order": (_header(order="z-fastest-be"), _F32),
    "f64": (_header(dtype="f64"), _F32),
    "two dims": (_header(dims="2 4"), _F32),
    "zero dim": (_header(dims="2 0 2"), _F32),
    "nan spacing": (_header(spacing="1 nan 1"), _F32),
    "u8 with f32 bytes": (_header(dtype="u8"), _F32),
    "short raw": (_header(), _F32[:-4]),
    "inf payload": (_header(), np.array([0, np.inf] * 4, "<f4").tobytes()),
    "mask byte 7": (_header(dtype="u8"), bytes(7) + b"\x07"),
}


def _load_errors(ll, g, tmp):
    """The type and message of each loader's error on each malformed pair,
    with tmp replaced by a fixed token, since each tree hashes in its own."""
    for i, (case, (header, raw)) in enumerate(_BAD_PAIRS.items()):
        (tmp / f"bad{i}.vhdr").write_text(header)
        (tmp / f"bad{i}.vraw").write_bytes(raw)
        for load in (ll.volume.load_volume, ll.volume.load_mask):
            try:
                load(tmp / f"bad{i}")
            except ValueError as exc:
                g.add(case, load.__name__, type(exc).__name__,
                      str(exc).replace(str(tmp), "<tmp>"))
            else:
                g.add(case, load.__name__, "no error")


def _files(ll, g):
    rng = np.random.default_rng(20244)
    vol, syn = ll.volume, ll.synth
    grids = []
    for dims in ((9, 8, 7), (1, 1, 1), (3, 4, 5), (16, 1, 6), (12, 12, 12)):
        vals = rng.normal(0.0, 3.0, dims).astype(np.float32)
        vals.flat[::5] = -0.0
        vals.flat[1::7] = np.float32(1e-40)
        grids.append((vals, rng.random(dims) < 0.3))
    big_v = rng.random((20, 18, 16)).astype(np.float32)
    big_m = rng.random((20, 18, 16)) < 0.5
    grids += [(np.asfortranarray(big_v), np.asfortranarray(big_m)),
              (big_v[::2, 1::3, ::-1], big_m[::2, 1::3, ::-1]),
              (big_v.transpose(2, 0, 1), big_m.transpose(2, 0, 1).astype(np.uint8))]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, (vals, bits) in enumerate(grids):
            for sp in ((1.0, 1.0, 1.0), (0.5, 1.25, 3.0)):
                v = vol.Volume.from_array(vals, spacing=sp)
                m = vol.Mask.from_array(bits, spacing=sp)
                vol.save_volume(v, tmp / f"v{i}")
                vol.save_mask(m, tmp / f"m{i}.vhdr")
                _file_bytes(g, tmp / f"v{i}")
                _file_bytes(g, tmp / f"m{i}")
                back_v = vol.load_volume(tmp / f"v{i}.vraw")
                back_m = vol.load_mask(tmp / f"m{i}")
                assert back_v.shape == v.shape and back_m.shape == m.shape
                assert np.array_equal(back_v.data.view(np.uint32),
                                      v.data.view(np.uint32))
                assert np.array_equal(back_m.data, m.data)
                g.add(back_v.shape, back_v.data, back_m.shape, back_m.data)
        for i, ph in enumerate(_fragmented(ll)[:2]):
            for p in (ph, syn.shrink(syn.shrink(ph, 0.7), 0.5)):
                prefix = tmp / f"ph{i}_{len(p.shrink_factors)}"
                syn.save_phantom(p, prefix)
                _file_bytes(g, prefix)
                spec, factors = syn.read_phantom_sidecar(str(prefix) + ".spec")
                again = syn.regenerate_phantom(spec, factors)
                g.add(spec, factors, again.image.data, again.truth.data,
                      vol.load_volume(str(prefix) + ".image").data,
                      vol.load_mask(str(prefix) + ".truth").data)
        for i, w in enumerate(([1.1, 2.3, -0.4, 0.2, -2.0],
                               [0.0, -0.0, 1e-40, 3e38, -7.25])):
            for model in (ll.trainer.VoxelScorer(np.array(w)),
                          ll.trainer.initial_scorer(i)):
                path = tmp / f"scorer{i}.f32"
                ll.trainer.save_scorer(model, path)
                g.add(path.read_bytes(), ll.trainer.load_scorer(path).weights)
        _load_errors(ll, g, tmp)


def _mask_pairs(rng):
    """Same-shape mask pairs: random masks, 1-voxel-thick slabs, single
    voxels, and pairs with empty masks."""
    pairs = []
    for _ in range(40):
        dims = tuple(int(d) for d in rng.integers(1, 17, 3))
        density = rng.choice([0.05, 0.3, 0.7])
        pairs.append((rng.random(dims) < density, rng.random(dims) < density))
    for thin in ((1, 9, 11), (7, 1, 12), (13, 10, 1)):
        pairs.append((rng.random(thin) < 0.5, rng.random(thin) < 0.5))
    one, other = np.zeros((6, 5, 4), bool), np.zeros((6, 5, 4), bool)
    one[1, 2, 3] = other[4, 0, 1] = True
    empty = np.zeros((6, 5, 4), bool)
    pairs += [(one, other), (one, one), (empty, one), (empty, empty)]
    return pairs


def _metrics(ll, g):
    rng = np.random.default_rng(20245)
    m = ll.metrics
    for a, b in _mask_pairs(rng):
        for sp in ((1.0, 1.0, 1.0), (0.5, 1.25, 3.0)):
            ma = ll.volume.Mask.from_array(a, spacing=sp)
            mb = ll.volume.Mask.from_array(b, spacing=sp)
            g.add(sp, m.dice(ma, mb))
            for pct in (100.0, 95.0, 50.0):
                try:
                    g.add(sp, pct, m.hausdorff(ma, mb, pct))
                except m.UndefinedMetricError as exc:
                    g.add(sp, pct, str(exc))
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(12):
            n = int(rng.integers(2, 30))
            # few distinct scores, so ties across the classes are common
            scores = rng.choice([0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 1 / 3], n)
            labels = rng.integers(0, 2, n)
            labels[:2] = (0, 1)
            outcomes = [m.CaseOutcome(f"case{i}_{j}", float(s), int(y),
                                      empty_segmentation=bool(s == 0.0 and j % 2))
                        for j, (s, y) in enumerate(zip(scores, labels))]
            g.add(m.auc(outcomes), *[m.kappa(outcomes, t) for t in (0.0, 0.5, 1.0)])
            path = Path(tmp) / f"outcomes{i}.csv"
            m.write_outcomes(outcomes, path)
            g.add(path.read_bytes(), m.read_outcomes(path))


def _help(ll, g):
    parser = ll.cli.build_parser()
    g.add(parser.format_help())
    for name, sub in parser.commands.items():
        g.add(name, sub.format_help())


GROUPS = {"loss": _loss, "gradcheck": _gradcheck, "degenerate": _degenerate,
          "train": _train, "recall": _recall, "synth": _synth,
          "phantoms": _phantoms, "labels": _labels, "scores": _scores,
          "files": _files, "metrics": _metrics, "help": _help}


def _load(src):
    """The lesionloss package in src, every submodule loaded."""
    os.environ["COLUMNS"] = "80"    # argparse wraps help to the terminal width
    sys.path.insert(0, os.path.abspath(src))
    import lesionloss as ll
    import lesionloss.cli  # noqa: F401  (loads every submodule)
    print(f"# lesionloss from {os.path.dirname(ll.__file__)}", file=sys.stderr)
    return ll


def _hash_tree(src, conn):
    """--against's other process: hash the package in src with this
    file's cases, sending every output and each group's line to conn."""
    ll = _load(src)
    for name, fn in GROUPS.items():
        g = _Group(name, send=conn.send)
        fn(ll, g)
        conn.send(("end", g.line()))
    conn.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src",
                    help="directory holding the lesionloss package (default src)")
    ap.add_argument("--against", metavar="OTHER_SRC",
                    help="also hash the package in OTHER_SRC and report the "
                         "groups whose outputs differ (exit 1 if any)")
    ap.add_argument("--expect-moved", nargs="*", default=[], metavar="GROUP",
                    choices=list(GROUPS),
                    help="with --against: exit 0 only when the groups that "
                         "differ are exactly these")
    args = ap.parse_args(argv)
    if args.expect_moved and not args.against:
        ap.error("--expect-moved needs --against")
    other = peer = None
    if args.against:
        ctx = multiprocessing.get_context("spawn")
        peer, send = ctx.Pipe(duplex=False)
        other = ctx.Process(target=_hash_tree, args=(args.against, send))
        other.start()
        send.close()
    ll = _load(args.src)
    groups = []
    for name, fn in GROUPS.items():
        g = _Group(name, peer=peer)
        fn(ll, g)
        g.close()
        groups.append(g)
        print(g.line(), flush=True)
    if other is None:
        return 0
    other.join()
    if other.exitcode != 0:
        print(f"hashing {args.against} failed with exit {other.exitcode}",
              file=sys.stderr)
        return 2
    return _verdict(groups, args.src, args.against, args.expect_moved)


if __name__ == "__main__":
    sys.exit(main())
