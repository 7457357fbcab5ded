"""Command-line entry point; every pipeline stage as a thin subcommand.

Exit codes: 0 success, 1 usage error, 2 data error.  Numeric output is
printed with 6 significant digits.  A --config file (flat key=value
lines, # comments allowed) supplies parameter defaults; explicit flags
win.  --threads is validated (>= 1) and has no effect while the engine
computes serially, so results never depend on it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import components, loss, metrics, synth, trainer, volume, weighting

PROG = "lesionloss"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


_CONNECTIVITY = {
    6: components.Connectivity.SIX,
    18: components.Connectivity.EIGHTEEN,
    26: components.Connectivity.TWENTY_SIX,
}

# every overridable parameter: config-file key -> (parser, builtin default)
_PARAMS = {
    "threads": (int, 1),
    "connectivity": (int, 26),
    "w_max": (float, 10.0),
    "w_min": (float, 1.0),
    "vrange": (float, 350.0),
    "k": (float, 7.0),
    "a_shift": (float, weighting.DEFAULT_A_SHIFT),
    "alpha": (float, 0.3),
    "beta": (float, 1.0),
    "smooth": (float, None),           # per-kind default from the loss table
    "ce_weight": (float, 0.5),
    "clamp": (float, loss.CE_CLAMP_DEFAULT),
    "step": (float, 1e-4),
    "max_voxels": (int, None),
    "sample_seed": (int, 0),
    "hd_percentile": (float, 100.0),
    "kappa_threshold": (float, 0.5),
    "units": (str, "vox"),
    "threshold": (float, 0.5),
    "seed": (int, 0),
    "learning_rate": (float, 3.0),
    "epochs": (int, 300),
    "loss": (str, "wlt-combined"),
    "kind": (str, None),
    "weight_tp_denominator": (int, 0),
    "dims": (str, "24 24 24"),
    "spacing": (str, "1.0 1.0 1.0"),
    "n_lesions": (int, 2),
    "radius_range": (str, "1.5 4.0"),
    "fragmentation_prob": (float, 0.0),
    "fragments_per_lesion": (str, "2 4"),
    "noise_sigma": (float, 0.6),
    "contrast": (float, 1.0),
    "factor": (float, None),
    "train_count": (int, 40),
    "val_count": (int, 0),
    "corpus_seed": (int, 100),
    "small_radius": (str, "1.3 1.7"),
    "large_radius": (str, "3.8 4.4"),
    "small_lesions": (int, 3),
    "large_lesions": (int, 1),
}


def _read_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config: malformed line {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _PARAMS:
            raise ValueError(f"config: unknown parameter {key!r}")
        out[key] = value.strip()
    return out


def _resolve(args, key, override_default=None):
    """Flag value if given, else config value, else the builtin default."""
    parse, default = _PARAMS[key]
    if override_default is not None:
        default = override_default
    flag_val = getattr(args, key, None)
    if flag_val is not None and flag_val is not False:
        return flag_val
    cfg = getattr(args, "_config", {})
    if key in cfg:
        return parse(cfg[key])
    return default


def _triple(text, parse):
    parts = [parse(x) for x in str(text).split()]
    if len(parts) != 3:
        raise ValueError(f"expected three values, got {text!r}")
    return tuple(parts)


def _pair(text, parse):
    parts = [parse(x) for x in str(text).split()]
    if len(parts) != 2:
        raise ValueError(f"expected two values, got {text!r}")
    return tuple(parts)


def _connectivity(args):
    c = _resolve(args, "connectivity")
    if c not in _CONNECTIVITY:
        raise ValueError(f"connectivity must be 6, 18 or 26, got {c}")
    return _CONNECTIVITY[c]


def _curve(args) -> weighting.WeightCurveParams:
    return weighting.WeightCurveParams(
        w_max=_resolve(args, "w_max"),
        w_min=_resolve(args, "w_min"),
        vrange=_resolve(args, "vrange"),
        k=_resolve(args, "k"),
        a_shift=_resolve(args, "a_shift"),
    )


def _tversky(args, kind: str, kinds=loss.LOSS_KINDS) -> loss.TverskyParams:
    """Tversky flags over kind's defaults; rejects a kind outside kinds."""
    default = loss.objective(kind, kinds).tversky
    return loss.TverskyParams(
        alpha=_resolve(args, "alpha"),
        beta=_resolve(args, "beta"),
        smooth=_resolve(args, "smooth", default.smooth),
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_label(args) -> int:
    mask = volume.load_mask(args.mask)
    labeling = components.label_components(mask, _connectivity(args))
    print(f"lesions={labeling.lesion_count}")
    print("volumes=" + " ".join(str(v) for v in labeling.volumes))
    if args.labels_out:
        volume.save_volume(components.labeling_to_volume(labeling), args.labels_out)
    if args.volumes_out:
        with open(args.volumes_out, "w", encoding="utf-8") as fh:
            fh.write("lesion_id,voxels,mm3\n")
            for i, v in enumerate(labeling.volumes, start=1):
                mm3 = components.lesion_volume_mm3(labeling, i)
                fh.write(f"{i},{v},{mm3!r}\n")
    return 0


def _cmd_weights(args) -> int:
    mask = volume.load_mask(args.gt)
    labeling = components.label_components(mask, _connectivity(args))
    units = _resolve(args, "units")
    if units not in ("vox", "mm3"):
        raise ValueError(f"units must be vox or mm3, got {units!r}")
    scale = mask.shape.voxel_volume_mm3 if units == "mm3" else 1.0
    wm = weighting.build_weight_map(labeling, _curve(args), volume_scale=scale)
    print(f"lesions={labeling.lesion_count}")
    print(f"min_weight={_fmt(wm.weights.min())}")
    print(f"max_weight={_fmt(wm.weights.max())}")
    volume.save_volume(weighting.weight_map_to_volume(wm), args.out)
    return 0


def _cmd_loss(args) -> int:
    kind = _resolve(args, "kind")
    tversky = _tversky(args, kind)
    gt = volume.load_mask(args.gt)
    pred = volume.load_volume(args.pred)
    report = loss.evaluate_loss(
        kind, gt, pred,
        tversky=tversky,
        curve=_curve(args),
        ce_weight=_resolve(args, "ce_weight"),
        want_grad=bool(args.grad_out),
        connectivity=_connectivity(args),
        clamp=_resolve(args, "clamp"),
        weight_tp_denominator=bool(_resolve(args, "weight_tp_denominator")),
    )
    print(f"value={_fmt(report.value)}")
    if args.grad_out:
        volume.save_volume(report.gradient, args.grad_out)
    return 0


def _cmd_gradcheck(args) -> int:
    kind = _resolve(args, "kind")
    tversky = _tversky(args, kind)
    gt = volume.load_mask(args.gt)
    pred = volume.load_volume(args.pred)
    err = loss.grad_check(
        kind, gt, pred,
        step=_resolve(args, "step"),
        tversky=tversky,
        curve=_curve(args),
        ce_weight=_resolve(args, "ce_weight"),
        connectivity=_connectivity(args),
        clamp=_resolve(args, "clamp"),
        weight_tp_denominator=bool(_resolve(args, "weight_tp_denominator")),
        max_voxels=_resolve(args, "max_voxels"),
        seed=_resolve(args, "sample_seed"),
    )
    print(f"max_rel_error={_fmt(err)}")
    return 0


def _cmd_metrics(args) -> int:
    dice_v = hd_v = auc_v = kappa_v = None
    if (args.gt_mask is None) != (args.pred_mask is None):
        raise ValueError("provide --gt-mask and --pred-mask together")
    if args.gt_mask:
        a = volume.load_mask(args.gt_mask)
        b = volume.load_mask(args.pred_mask)
        dice_v = metrics.dice(a, b)
        hd_v = metrics.hausdorff(a, b, percentile=_resolve(args, "hd_percentile"))
    if args.outcomes:
        outcomes = metrics.read_outcomes(args.outcomes)
        auc_v = metrics.auc(outcomes)
        kappa_v = metrics.kappa(outcomes, _resolve(args, "kappa_threshold"))
    if dice_v is None and auc_v is None:
        raise ValueError("nothing to compute: pass mask pair and/or --outcomes")
    report = metrics.MetricReport(dice=dice_v, hausdorff_mm=hd_v,
                                  auc=auc_v, kappa=kappa_v)
    sys.stdout.write(report.to_text())
    if args.report_out:
        Path(args.report_out).write_text(report.to_text(), encoding="utf-8")
    if args.json_out:
        Path(args.json_out).write_text(report.to_json() + "\n", encoding="utf-8")
    return 0


def _phantom_spec(args) -> synth.PhantomSpec:
    return synth.PhantomSpec(
        shape=volume.GridShape(
            _triple(_resolve(args, "dims"), int),
            _triple(_resolve(args, "spacing"), float),
        ),
        n_lesions=_resolve(args, "n_lesions"),
        radius_range_vox=_pair(_resolve(args, "radius_range"), float),
        fragmentation_prob=_resolve(args, "fragmentation_prob"),
        fragments_per_lesion=_pair(_resolve(args, "fragments_per_lesion"), int),
        noise_sigma=_resolve(args, "noise_sigma"),
        contrast=_resolve(args, "contrast"),
        seed=_resolve(args, "seed"),
    )


def _cmd_synth(args) -> int:
    ph = synth.generate(_phantom_spec(args))
    synth.save_phantom(ph, args.out)
    print(f"lesions={ph.spec.n_lesions}")
    print(f"truth_voxels={ph.truth.foreground_count}")
    return 0


def _cmd_shrink(args) -> int:
    factor = _resolve(args, "factor")
    if factor is None:
        raise _UsageError("--factor is required")
    spec, factors = synth.read_phantom_sidecar(str(args.input) + ".spec")
    ph = synth.regenerate_phantom(spec, factors)
    print(f"truth_voxels_before={ph.truth.foreground_count}")
    ph = synth.shrink(ph, factor)
    synth.save_phantom(ph, args.out)
    print(f"truth_voxels_after={ph.truth.foreground_count}")
    return 0


def _corpus(args, count, start_seed):
    return trainer.make_corpus(
        count, start_seed,
        dims=_triple(_resolve(args, "dims"), int),
        small_radius=_pair(_resolve(args, "small_radius"), float),
        large_radius=_pair(_resolve(args, "large_radius"), float),
        small_lesions=_resolve(args, "small_lesions"),
        large_lesions=_resolve(args, "large_lesions"),
        noise_sigma=_resolve(args, "noise_sigma"),
        contrast=_resolve(args, "contrast"),
        spacing=_triple(_resolve(args, "spacing"), float),
    )


def _cmd_train(args) -> int:
    kind = _resolve(args, "loss")
    corpus_seed = _resolve(args, "corpus_seed")
    train_count = _resolve(args, "train_count")
    val_count = _resolve(args, "val_count")
    cfg = trainer.TrainConfig(
        loss_kind=kind,
        tversky=_tversky(args, kind, trainer.TRAIN_LOSS_KINDS),
        curve=_curve(args),
        ce_weight=_resolve(args, "ce_weight"),
        learning_rate=_resolve(args, "learning_rate"),
        epochs=_resolve(args, "epochs"),
        seed=_resolve(args, "seed"),
        train_specs=_corpus(args, train_count, corpus_seed),
        val_specs=_corpus(args, val_count, corpus_seed + train_count),
        clamp=_resolve(args, "clamp"),
        connectivity=_connectivity(args),
    )
    model, curve = trainer.train(cfg)
    print(f"epochs={cfg.epochs}")
    print(f"initial_loss={_fmt(curve[0])}")
    print(f"final_loss={_fmt(curve[-1])}")
    if args.model_out:
        trainer.save_scorer(model, args.model_out)
    if args.log_out:
        with open(args.log_out, "w", encoding="utf-8") as fh:
            fh.write("epoch,loss\n")
            for e, v in enumerate(curve):
                fh.write(f"{e},{v!r}\n")
    if val_count > 0:
        phantoms = [synth.generate(s) for s in cfg.val_specs]
        rep = trainer.evaluate_lesionwise(
            model, phantoms, _resolve(args, "threshold"), cfg.connectivity
        )
        sys.stdout.write(rep.to_text())
    return 0


def _cmd_eval(args) -> int:
    model = trainer.load_scorer(args.model)
    cases = []
    for prefix in args.phantom:
        cases.append(
            (volume.load_volume(prefix + ".image"),
             volume.load_mask(prefix + ".truth"))
        )
    rep = trainer.evaluate_lesionwise(
        model, cases, _resolve(args, "threshold"), _connectivity(args)
    )
    sys.stdout.write(rep.to_text())
    if args.report_out:
        Path(args.report_out).write_text(rep.to_text(), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="flat key=value parameter file; flags win")
    p.add_argument("--threads", type=int, default=None,
                   help="validated (>= 1); no effect while the engine runs "
                        "serially")


def _add_curve_flags(p):
    p.add_argument("--w-max", dest="w_max", type=float, default=None,
                   help="weight-curve maximum (default 10)")
    p.add_argument("--w-min", dest="w_min", type=float, default=None,
                   help="weight-curve minimum (default 1)")
    p.add_argument("--vrange", type=float, default=None,
                   help="lesion-volume range of the curve (default 350)")
    p.add_argument("--k", type=float, default=None,
                   help="curve steepness (default 7)")
    p.add_argument("--a-shift", dest="a_shift", type=float, default=None,
                   help="curve x-translation (default sqrt(e^7))")


def _add_tversky_flags(p):
    p.add_argument("--alpha", type=float, default=None,
                   help="false-positive coefficient (default 0.3)")
    p.add_argument("--beta", type=float, default=None,
                   help="false-negative coefficient (default 1)")
    p.add_argument("--smooth", type=float, default=None,
                   help="smoothing constant (default 1 plain, 1e-6 weighted)")
    p.add_argument("--ce-weight", dest="ce_weight", type=float, default=None,
                   help="cross-entropy share of the combined loss "
                        "(default 0.5 (assumed))")
    p.add_argument("--clamp", type=float, default=None,
                   help="cross-entropy probability clamp (default 1e-7)")
    p.add_argument("--weight-tp-denominator", action="store_true",
                   help="also weight the denominator TP sum (sensitivity study)")


def _add_connectivity_flag(p):
    p.add_argument("--connectivity", type=int, choices=(6, 18, 26), default=None,
                   help="lesion adjacency (default 26)")


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("label", help="label connected lesions in a mask")
    p.add_argument("--mask", required=True, help="input mask .vhdr")
    p.add_argument("--labels-out", help="write label ids as f32 volume")
    p.add_argument("--volumes-out", help="write per-lesion CSV")
    _add_connectivity_flag(p)
    _add_common(p)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("weights", help="build the per-voxel lesion weight map")
    p.add_argument("--gt", required=True, help="ground-truth mask .vhdr")
    p.add_argument("--out", required=True, help="output weight volume")
    p.add_argument("--units", choices=("vox", "mm3"), default=None,
                   help="lesion volume units fed to the curve (default vox)")
    _add_curve_flags(p)
    _add_connectivity_flag(p)
    _add_common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("loss", help="evaluate a loss on a gt/pred pair")
    p.add_argument("--kind", choices=loss.LOSS_KINDS, default=None,
                   help="loss to evaluate")
    p.add_argument("--gt", required=True, help="ground-truth mask .vhdr")
    p.add_argument("--pred", required=True, help="prediction volume .vhdr")
    p.add_argument("--grad-out", help="write d(loss)/d(pred) as f32 volume")
    _add_tversky_flags(p)
    _add_curve_flags(p)
    _add_connectivity_flag(p)
    _add_common(p)
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("gradcheck",
                       help="compare analytic and finite-difference gradients")
    p.add_argument("--kind", choices=loss.LOSS_KINDS, default=None)
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--step", type=float, default=None,
                   help="central-difference step (default 1e-4)")
    p.add_argument("--max-voxels", dest="max_voxels", type=int, default=None,
                   help="sample at most this many voxels per case")
    p.add_argument("--sample-seed", dest="sample_seed", type=int, default=None)
    _add_tversky_flags(p)
    _add_curve_flags(p)
    _add_connectivity_flag(p)
    _add_common(p)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("metrics", help="segmentation and case-level metrics")
    p.add_argument("--gt-mask", help="reference mask .vhdr")
    p.add_argument("--pred-mask", help="predicted mask .vhdr")
    p.add_argument("--outcomes", help="case outcome CSV")
    p.add_argument("--hd-percentile", dest="hd_percentile", type=float,
                   default=None, help="Hausdorff percentile (default 100)")
    p.add_argument("--kappa-threshold", dest="kappa_threshold", type=float,
                   default=None, help="score binarization point (default 0.5)")
    p.add_argument("--report-out", help="write key=value metric block")
    p.add_argument("--json-out", help="write metrics as JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("synth", help="generate a phantom")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--dims", default=None, help='e.g. "24 24 24"')
    p.add_argument("--spacing", default=None, help='e.g. "1.0 1.0 1.0"')
    p.add_argument("--n-lesions", dest="n_lesions", type=int, default=None)
    p.add_argument("--radius-range", dest="radius_range", default=None,
                   help='lesion radius range in voxels, e.g. "1.5 4.0"')
    p.add_argument("--fragmentation-prob", dest="fragmentation_prob",
                   type=float, default=None)
    p.add_argument("--fragments-per-lesion", dest="fragments_per_lesion",
                   default=None, help='e.g. "2 4"')
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
    p.add_argument("--contrast", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("shrink", help="shrink a saved phantom's lesions")
    p.add_argument("--in", dest="input", required=True, help="phantom prefix")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--factor", type=float, default=None,
                   help="radius scale factor in (0, 1]")
    _add_common(p)
    p.set_defaults(func=_cmd_shrink)

    p = sub.add_parser("train", help="train the voxel scorer on phantoms")
    p.add_argument("--loss", choices=trainer.TRAIN_LOSS_KINDS, default=None,
                   help="training objective (default wlt-combined)")
    p.add_argument("--learning-rate", dest="learning_rate", type=float,
                   default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="scorer initialization seed")
    p.add_argument("--corpus-seed", dest="corpus_seed", type=int, default=None)
    p.add_argument("--train-count", dest="train_count", type=int, default=None)
    p.add_argument("--val-count", dest="val_count", type=int, default=None)
    p.add_argument("--dims", default=None)
    p.add_argument("--spacing", default=None)
    p.add_argument("--small-radius", dest="small_radius", default=None)
    p.add_argument("--large-radius", dest="large_radius", default=None)
    p.add_argument("--small-lesions", dest="small_lesions", type=int, default=None)
    p.add_argument("--large-lesions", dest="large_lesions", type=int, default=None)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
    p.add_argument("--contrast", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None,
                   help="validation detection threshold (default 0.5)")
    p.add_argument("--model-out", help="write trained weights (f32 vector)")
    p.add_argument("--log-out", help="write epoch,loss CSV")
    _add_tversky_flags(p)
    _add_curve_flags(p)
    _add_connectivity_flag(p)
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="lesion-wise recall of a saved scorer")
    p.add_argument("--model", required=True, help="f32 vector scorer file")
    p.add_argument("--phantom", action="append", required=True,
                   help="phantom prefix (repeatable)")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--report-out", help="write the recall report")
    _add_connectivity_flag(p)
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        args._config = _read_config(args.config) if args.config else {}
        threads = _resolve(args, "threads")
        if threads < 1:
            raise ValueError("--threads must be >= 1")
        return args.func(args)
    except _UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
