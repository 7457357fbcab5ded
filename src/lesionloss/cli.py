"""Command-line entry point; every pipeline stage as a thin subcommand.

Exit codes: 0 success, 1 usage error, 2 data error.  Numeric output is
printed with 6 significant digits.  Every parameter is one row of
``_PARAMS``: its flag (``--key``, with ``-`` for ``_``), its --config key,
parser, default, choices and help text come from that row alone, and
``--help`` shows each default.  A --config file (flat key=value lines,
# comments allowed) supplies parameter values; explicit flags win.
--threads is validated (>= 1) and has no effect while the engine computes
serially, so results never depend on it.
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
    """Flags must be spelled in full: a prefix such as --e is a usage error,
    so a later flag sharing the prefix cannot change what a call means."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _switch(text: str) -> int:
    """Config parser of an on/off parameter (nonzero is on); its flag
    takes no value."""
    return int(text)


_CONNECTIVITY = {
    6: components.Connectivity.SIX,
    18: components.Connectivity.EIGHTEEN,
    26: components.Connectivity.TWENTY_SIX,
}

# every parameter: config key -> (parser, default, choices, help); the flag
# is --key with "-" for "_".  A None default means unset: the subcommand
# derives the value, or requires it.
_PARAMS = {
    "threads": (int, 1, None,
                "validated (>= 1); no effect while the engine runs serially"),
    "connectivity": (int, 26, tuple(_CONNECTIVITY), "lesion adjacency"),
    "w_max": (float, 10.0, None, "weight-curve maximum"),
    "w_min": (float, 1.0, None, "weight-curve minimum"),
    "vrange": (float, 350.0, None, "lesion-volume range of the curve"),
    "k": (float, 7.0, None, "curve steepness"),
    "a_shift": (float, weighting.DEFAULT_A_SHIFT, None,
                "curve x-translation, sqrt(e^7)"),
    "alpha": (float, 0.3, None, "false-positive coefficient"),
    "beta": (float, 1.0, None, "false-negative coefficient"),
    "smooth": (float, None, None, "smoothing constant; unset, the loss "
               "kind's own (1 plain, 1e-6 weighted)"),
    "ce_weight": (float, 0.5, None, "cross-entropy share of the combined "
                  "loss, an assumed value"),
    "clamp": (float, loss.CE_CLAMP_DEFAULT, None,
              "cross-entropy probability clamp"),
    "weight_tp_denominator": (_switch, 0, None, "also weight the denominator "
                              "TP sum (sensitivity study)"),
    "step": (float, 1e-4, None, "central-difference step"),
    "max_voxels": (int, None, None,
                   "sample at most this many voxels per case (>= 1); unset, all"),
    "sample_seed": (int, 0, None, "seed of the voxel sample"),
    "hd_percentile": (float, 100.0, None, "Hausdorff percentile"),
    "kappa_threshold": (float, 0.5, None, "score binarization point"),
    "units": (str, "vox", ("vox", "mm3"),
              "lesion volume units fed to the curve"),
    "threshold": (float, 0.5, None, "lesion detection threshold on scores"),
    "seed": (int, 0, None,
             "phantom seed (synth); scorer initialization seed (train)"),
    "learning_rate": (float, 3.0, None, "gradient-descent step size"),
    "epochs": (int, 300, None, "full-batch training epochs"),
    "loss": (str, "wlt-combined", loss.TRAIN_LOSS_KINDS, "training objective"),
    "kind": (str, None, loss.LOSS_KINDS, "loss to evaluate (required)"),
    "dims": (str, "24 24 24", None, "voxels per axis"),
    "spacing": (str, "1.0 1.0 1.0", None, "mm per voxel along each axis"),
    "n_lesions": (int, 2, None, "lesions in the phantom"),
    "radius_range": (str, "1.5 4.0", None, "lesion radius range in voxels"),
    "fragmentation_prob": (float, 0.0, None,
                           "probability that a lesion breaks up"),
    "fragments_per_lesion": (str, "2 4", None,
                             "fragment count range of a broken-up lesion"),
    "noise_sigma": (float, 0.6, None, "background noise standard deviation"),
    "contrast": (float, 1.0, None, "image contrast on the lesion support"),
    "factor": (float, None, None, "radius scale factor in (0, 1] (required)"),
    "train_count": (int, 40, None, "training phantoms"),
    "val_count": (int, 0, None,
                  "validation phantoms; above 0, recall is reported"),
    "corpus_seed": (int, 100, None, "seed of the first corpus phantom"),
    "small_radius": (str, "1.3 1.7", None,
                     "lesion radius range of small-lesion phantoms"),
    "large_radius": (str, "3.8 4.4", None,
                     "lesion radius range of large-lesion phantoms"),
    "small_lesions": (int, 3, None, "lesions per small-lesion phantom"),
    "large_lesions": (int, 1, None, "lesions per large-lesion phantom"),
}

_CURVE = ("w_max", "w_min", "vrange", "k", "a_shift")
_OBJECTIVE = ("alpha", "beta", "smooth", "ce_weight", "clamp")
_IMAGE = ("dims", "spacing", "noise_sigma", "contrast")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_config(path) -> dict[str, str]:
    out = volume.read_fields(path, "config", comments=True)
    for key in out:
        if key not in _PARAMS:
            raise ValueError(f"config: unknown parameter {key!r}")
    return out


def _fill_params(args) -> None:
    """Give each parameter the subcommand declares and the command line
    left unset its --config value, else its default."""
    cfg = _read_config(args.config) if args.config else {}
    for key, (parse, default, choices, _) in _PARAMS.items():
        if key not in vars(args) or getattr(args, key) is not None:
            continue
        value = parse(cfg[key]) if key in cfg else default
        if key in cfg and choices is not None and value not in choices:
            raise ValueError(
                f"config: {key} must be one of "
                f"{', '.join(map(str, choices))}, got {cfg[key]!r}"
            )
        setattr(args, key, value)


def _require(args, key):
    value = getattr(args, key)
    if value is None:
        raise _UsageError(f"{_flag(key)} is required")
    return value


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


def _curve(args) -> weighting.WeightCurveParams:
    return weighting.WeightCurveParams(
        w_max=args.w_max, w_min=args.w_min, vrange=args.vrange, k=args.k,
        a_shift=args.a_shift,
    )


def _tversky(args, kind: str, kinds=loss.LOSS_KINDS) -> loss.TverskyParams:
    """Tversky flags over kind's defaults; rejects a kind outside kinds."""
    default = loss.objective(kind, kinds).tversky
    smooth = default.smooth if args.smooth is None else args.smooth
    return loss.TverskyParams(alpha=args.alpha, beta=args.beta, smooth=smooth)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_label(args) -> int:
    mask = volume.load_mask(args.mask)
    labeling = components.label_components(mask, _CONNECTIVITY[args.connectivity])
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
    labeling = components.label_components(mask, _CONNECTIVITY[args.connectivity])
    scale = mask.shape.voxel_volume_mm3 if args.units == "mm3" else 1.0
    wm = weighting.build_weight_map(labeling, _curve(args), volume_scale=scale)
    print(f"lesions={labeling.lesion_count}")
    print(f"min_weight={_fmt(wm.weights.min())}")
    print(f"max_weight={_fmt(wm.weights.max())}")
    volume.save_volume(weighting.weight_map_to_volume(wm), args.out)
    return 0


def _cmd_loss(args) -> int:
    kind = _require(args, "kind")
    tversky = _tversky(args, kind)
    gt = volume.load_mask(args.gt)
    pred = volume.load_volume(args.pred)
    report = loss.evaluate_loss(
        kind, gt, pred,
        tversky=tversky,
        curve=_curve(args),
        ce_weight=args.ce_weight,
        want_grad=bool(args.grad_out),
        connectivity=_CONNECTIVITY[args.connectivity],
        clamp=args.clamp,
        weight_tp_denominator=bool(args.weight_tp_denominator),
    )
    print(f"value={_fmt(report.value)}")
    if args.grad_out:
        volume.save_volume(report.gradient, args.grad_out)
    return 0


def _cmd_gradcheck(args) -> int:
    kind = _require(args, "kind")
    tversky = _tversky(args, kind)
    gt = volume.load_mask(args.gt)
    pred = volume.load_volume(args.pred)
    err = loss.grad_check(
        kind, gt, pred,
        step=args.step,
        tversky=tversky,
        curve=_curve(args),
        ce_weight=args.ce_weight,
        connectivity=_CONNECTIVITY[args.connectivity],
        clamp=args.clamp,
        weight_tp_denominator=bool(args.weight_tp_denominator),
        max_voxels=args.max_voxels,
        seed=args.sample_seed,
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
        hd_v = metrics.hausdorff(a, b, percentile=args.hd_percentile)
    if args.outcomes:
        outcomes = metrics.read_outcomes(args.outcomes)
        auc_v = metrics.auc(outcomes)
        kappa_v = metrics.kappa(outcomes, args.kappa_threshold)
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
            _triple(args.dims, int), _triple(args.spacing, float)
        ),
        n_lesions=args.n_lesions,
        radius_range_vox=_pair(args.radius_range, float),
        fragmentation_prob=args.fragmentation_prob,
        fragments_per_lesion=_pair(args.fragments_per_lesion, int),
        noise_sigma=args.noise_sigma,
        contrast=args.contrast,
        seed=args.seed,
    )


def _cmd_synth(args) -> int:
    ph = synth.generate(_phantom_spec(args))
    synth.save_phantom(ph, args.out)
    print(f"lesions={ph.spec.n_lesions}")
    print(f"truth_voxels={ph.truth.foreground_count}")
    return 0


def _cmd_shrink(args) -> int:
    factor = _require(args, "factor")
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
        dims=_triple(args.dims, int),
        small_radius=_pair(args.small_radius, float),
        large_radius=_pair(args.large_radius, float),
        small_lesions=args.small_lesions,
        large_lesions=args.large_lesions,
        noise_sigma=args.noise_sigma,
        contrast=args.contrast,
        spacing=_triple(args.spacing, float),
    )


def _cmd_train(args) -> int:
    val_specs = _corpus(args, args.val_count, args.corpus_seed + args.train_count)
    cfg = trainer.TrainConfig(
        loss_kind=args.loss,
        tversky=_tversky(args, args.loss, trainer.TRAIN_LOSS_KINDS),
        curve=_curve(args),
        ce_weight=args.ce_weight,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        seed=args.seed,
        train_specs=_corpus(args, args.train_count, args.corpus_seed),
        clamp=args.clamp,
        connectivity=_CONNECTIVITY[args.connectivity],
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
    if val_specs:
        phantoms = [synth.generate(s) for s in val_specs]
        rep = trainer.evaluate_lesionwise(
            model, phantoms, args.threshold, cfg.connectivity
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
        model, cases, args.threshold, _CONNECTIVITY[args.connectivity]
    )
    sys.stdout.write(rep.to_text())
    if args.report_out:
        Path(args.report_out).write_text(rep.to_text(), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_params(p, *keys):
    """Add --config, --threads and the flags of the listed parameters."""
    p.add_argument("--config", help="flat key=value parameter file; flags win")
    for key in ("threads",) + keys:
        parse, default, choices, text = _PARAMS[key]
        if default is not None:
            text += f" (default {default!r})"
        if parse is _switch:
            p.add_argument(_flag(key), action="store_true", default=None,
                           help=text)
        else:
            p.add_argument(_flag(key), type=parse, choices=choices,
                           default=None, help=text)


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("label", help="label connected lesions in a mask")
    p.add_argument("--mask", required=True, help="input mask .vhdr")
    p.add_argument("--labels-out", help="write label ids as f32 volume")
    p.add_argument("--volumes-out", help="write per-lesion CSV")
    _add_params(p, "connectivity")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("weights", help="build the per-voxel lesion weight map")
    p.add_argument("--gt", required=True, help="ground-truth mask .vhdr")
    p.add_argument("--out", required=True, help="output weight volume")
    _add_params(p, "units", *_CURVE, "connectivity")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("loss", help="evaluate a loss on a gt/pred pair")
    p.add_argument("--gt", required=True, help="ground-truth mask .vhdr")
    p.add_argument("--pred", required=True, help="prediction volume .vhdr")
    p.add_argument("--grad-out", help="write d(loss)/d(pred) as f32 volume")
    _add_params(p, "kind", *_OBJECTIVE, "weight_tp_denominator", *_CURVE,
                "connectivity")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("gradcheck",
                       help="compare analytic and finite-difference gradients")
    p.add_argument("--gt", required=True, help="ground-truth mask .vhdr")
    p.add_argument("--pred", required=True, help="prediction volume .vhdr")
    _add_params(p, "kind", "step", "max_voxels", "sample_seed", *_OBJECTIVE,
                "weight_tp_denominator", *_CURVE, "connectivity")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("metrics", help="segmentation and case-level metrics")
    p.add_argument("--gt-mask", help="reference mask .vhdr")
    p.add_argument("--pred-mask", help="predicted mask .vhdr")
    p.add_argument("--outcomes", help="case outcome CSV")
    p.add_argument("--report-out", help="write key=value metric block")
    p.add_argument("--json-out", help="write metrics as JSON")
    _add_params(p, "hd_percentile", "kappa_threshold")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("synth", help="generate a phantom")
    p.add_argument("--out", required=True, help="output prefix")
    _add_params(p, *_IMAGE, "n_lesions", "radius_range", "fragmentation_prob",
                "fragments_per_lesion", "seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("shrink", help="shrink a saved phantom's lesions")
    p.add_argument("--in", dest="input", required=True, help="phantom prefix")
    p.add_argument("--out", required=True, help="output prefix")
    _add_params(p, "factor")
    p.set_defaults(func=_cmd_shrink)

    p = sub.add_parser("train", help="train the voxel scorer on phantoms")
    p.add_argument("--model-out", help="write trained weights (f32 vector)")
    p.add_argument("--log-out", help="write epoch,loss CSV")
    _add_params(p, "loss", "learning_rate", "epochs", "seed", "corpus_seed",
                "train_count", "val_count", *_IMAGE, "small_radius",
                "large_radius", "small_lesions", "large_lesions", "threshold",
                *_OBJECTIVE, *_CURVE, "connectivity")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="lesion-wise recall of a saved scorer")
    p.add_argument("--model", required=True, help="f32 vector scorer file")
    p.add_argument("--phantom", action="append", required=True,
                   help="phantom prefix (repeatable)")
    p.add_argument("--report-out", help="write the recall report")
    _add_params(p, "threshold", "connectivity")
    p.set_defaults(func=_cmd_eval)

    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        # the usage of the subcommand named in argv, else the program's
        named = parser.commands.get(argv[0]) if argv else None
        (named or parser).print_usage(sys.stderr)
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        _fill_params(args)
        if args.threads < 1:
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
