"""Command-line entry point; every pipeline stage as a thin subcommand.

Exit codes: 0 success, 1 usage error, 2 data error.  Numeric output is
printed with 6 significant digits.  Every parameter is one row of
``_PARAMS``: its flag (``--key``, with ``-`` for ``_``), its --config key,
parser, default, choices and help text come from that row alone, and
``--help`` shows each default.  A --config file (flat key=value lines,
# comments allowed) supplies parameter values; explicit flags win.
--threads (>= 1) is the number of threads ``train`` splits each epoch
over, as contiguous case shards; results never depend on it.  The other
subcommands validate the flag and ignore it.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
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


# every parameter: config key -> (parser, default, choices, help); the flag
# is --key with "-" for "_".  A default is given as the parser's input (a
# number tuple in its text form).  A None default means unset: the
# subcommand derives the value, or requires it.
_PARAMS = {
    "threads": (int, 1, None,
                "train: threads sharing each epoch (results do not depend on "
                "it); other subcommands ignore it"),
    "connectivity": (int, 26, tuple(c.value for c in components.Connectivity),
                     "lesion adjacency"),
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
    "dims": (volume._values(int, 3), "24 24 24", None, "voxels per axis"),
    "spacing": (volume._values(float, 3), "1.0 1.0 1.0", None,
                "mm per voxel along each axis"),
    "n_lesions": (int, 2, None, "lesions in the phantom"),
    "radius_range": (volume._values(float, 2), "1.5 4.0", None,
                     "lesion radius range in voxels"),
    "fragmentation_prob": (float, 0.0, None,
                           "probability that a lesion breaks up"),
    "fragments_per_lesion": (volume._values(int, 2), "2 4", None,
                             "fragment count range of a broken-up lesion"),
    "noise_sigma": (float, 0.6, None, "background noise standard deviation"),
    "contrast": (float, 1.0, None, "image contrast on the lesion support"),
    "factor": (float, None, None, "radius scale factor in (0, 1] (required)"),
    "train_count": (int, 40, None, "training phantoms"),
    "val_count": (int, 0, None,
                  "validation phantoms; above 0, recall is reported"),
    "corpus_seed": (int, 100, None, "seed of the first corpus phantom"),
    "small_radius": (volume._values(float, 2), "1.3 1.7", None,
                     "lesion radius range of small-lesion phantoms"),
    "large_radius": (volume._values(float, 2), "3.8 4.4", None,
                     "lesion radius range of large-lesion phantoms"),
    "small_lesions": (int, 3, None, "lesions per small-lesion phantom"),
    "large_lesions": (int, 1, None, "lesions per large-lesion phantom"),
}

# config keys whose value the library checks under another name: key ->
# the starts of the library's messages for a rejected value.  A check of
# several values (w_max >= w_min, a corpus's seed range) is named after
# the first of them that the config file gave, the key itself first and
# then in this order.  make_corpus names its small_* and large_* parameters
# itself, and _cmd_train names the validation corpus.
_LIBRARY_NAMES = {
    "sample_seed": ("seed ",),
    "hd_percentile": ("percentile ",),
    "kappa_threshold": ("threshold ",),
    "radius_range": ("radius_range_vox ",),
    "w_min": ("w_max must be >= w_min",),
    "corpus_seed": ("corpus seeds ", "validation corpus seeds "),
    "train_count": ("corpus count ", "corpus seeds ", "validation corpus seeds "),
    "val_count": ("validation corpus ",),
}

# WeightCurveParams' fields, in order; _curve reads each from its flag
_CURVE = ("w_max", "w_min", "vrange", "k", "a_shift")
_OBJECTIVE = ("alpha", "beta", "smooth", "ce_weight", "clamp")
_IMAGE = ("dims", "spacing", "noise_sigma", "contrast")
# make_corpus's keyword parameters, each read from its flag of the same name
_CORPUS = _IMAGE + ("small_radius", "large_radius", "small_lesions",
                    "large_lesions")
# PhantomSpec's fields, with dims and spacing for its shape and
# radius_range for radius_range_vox; _phantom_spec reads each from its flag
_SPEC = _IMAGE + ("n_lesions", "radius_range", "fragmentation_prob",
                  "fragments_per_lesion", "seed")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _fill_params(args) -> set[str]:
    """Give each parameter the subcommand declares its value, in one pass:
    the flag's, else the --config file's, else its parsed default.  A
    config value is parsed and checked, and an error names the file, and
    the key of a bad value.  Returns the keys the config file gave."""
    unset = {key for key, value in vars(args).items()
             if key in _PARAMS and value is None}
    given = set()
    if args.config:
        with volume._naming(args.config):
            fields = volume.read_fields(args.config, "config", comments=True)
            for key in fields:
                if key not in _PARAMS:
                    raise ValueError(f"config: unknown parameter {key!r}")
                if key not in unset:
                    continue
                parse, _, choices, _ = _PARAMS[key]
                value = volume._field(fields, key, parse)
                if choices is not None and value not in choices:
                    raise ValueError(
                        f"config: {key} must be one of "
                        f"{', '.join(map(str, choices))}, got {fields[key]!r}"
                    )
                if key == "threads" and value < 1:
                    raise ValueError("threads must be >= 1")
                setattr(args, key, value)
                given.add(key)
    for key, (parse, default, _, _) in _PARAMS.items():
        if key in unset and key not in given and default is not None:
            setattr(args, key, parse(default))
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    return given


@contextmanager
def _naming_config(path, keys):
    """Name the config file and the key in front of a ValueError raised in
    the block for a value that the file gave (keys).  The library's checks
    name the parameter first: by the key ("noise_sigma must be ..."), by
    the key and a colon where the library says which of its parameters
    the value was ("small_lesions: n_lesions must be ..."), or by a start
    that _LIBRARY_NAMES lists for the key.  Values given by flag keep the
    library's message."""
    try:
        yield
    except ValueError as exc:
        message = str(exc)
        lead = message.partition(" ")[0]
        named = [lead.removesuffix(":")] + [
            k for k, starts in _LIBRARY_NAMES.items() if message.startswith(starts)]
        key = next((k for k in named if k in keys), None)
        if key is None:
            raise
        where = path if lead == f"{key}:" else f"{path}: {key}"
        raise ValueError(f"{where}: {message}") from exc


def _require(args, key):
    value = getattr(args, key)
    if value is None:
        raise _UsageError(f"{_flag(key)} is required")
    return value


def _curve(args) -> weighting.WeightCurveParams:
    return weighting.WeightCurveParams(**{k: getattr(args, k) for k in _CURVE})


def _objective_options(args, kind: str, kinds=loss.LOSS_KINDS) -> dict:
    """The loss keyword options that evaluate_loss, grad_check, objective()
    and TrainConfig share: the Tversky flags over kind's default smoothing,
    the curve, ce_weight, clamp and connectivity.  Rejects a kind outside
    kinds."""
    default = loss.objective(kind, kinds).tversky
    smooth = default.smooth if args.smooth is None else args.smooth
    return dict(
        tversky=loss.TverskyParams(alpha=args.alpha, beta=args.beta,
                                   smooth=smooth),
        curve=_curve(args),
        ce_weight=args.ce_weight,
        clamp=args.clamp,
        connectivity=args.connectivity,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_label(args) -> int:
    mask = volume.load_mask(args.mask)
    labeling = components.label_components(mask, args.connectivity)
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
    labeling = components.label_components(mask, args.connectivity)
    scale = mask.shape.voxel_volume_mm3 if args.units == "mm3" else 1.0
    wm = weighting.build_weight_map(labeling, _curve(args), volume_scale=scale)
    print(f"lesions={labeling.lesion_count}")
    print(f"min_weight={_fmt(wm.weights.min())}")
    print(f"max_weight={_fmt(wm.weights.max())}")
    volume.save_volume(weighting.weight_map_to_volume(wm), args.out)
    return 0


def _loss_inputs(args) -> tuple:
    """The kind, truth and prediction of loss and gradcheck, and the
    keyword options of their objective; the kind and options are checked
    before any file is read."""
    kind = _require(args, "kind")
    options = _objective_options(args, kind)
    options["weight_tp_denominator"] = bool(args.weight_tp_denominator)
    return kind, volume.load_mask(args.gt), volume.load_volume(args.pred), options


def _cmd_loss(args) -> int:
    kind, gt, pred, options = _loss_inputs(args)
    report = loss.evaluate_loss(kind, gt, pred, want_grad=bool(args.grad_out),
                                **options)
    print(f"value={_fmt(report.value)}")
    if args.grad_out:
        volume.save_volume(report.gradient, args.grad_out)
    return 0


def _cmd_gradcheck(args) -> int:
    kind, gt, pred, options = _loss_inputs(args)
    err = loss.grad_check(kind, gt, pred, step=args.step,
                          max_voxels=args.max_voxels, seed=args.sample_seed,
                          **options)
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
        volume.check_threshold(args.kappa_threshold)    # not the file's error
        outcomes = metrics.read_outcomes(args.outcomes)
        with volume._naming(args.outcomes):    # its cases must define both
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
    spec = {k: getattr(args, k) for k in _SPEC}
    return synth.PhantomSpec(
        shape=volume.GridShape(spec.pop("dims"), spec.pop("spacing")),
        radius_range_vox=spec.pop("radius_range"), **spec)


def _cmd_synth(args) -> int:
    ph = synth.generate(_phantom_spec(args))
    synth.save_phantom(ph, args.out)
    print(f"lesions={ph.spec.n_lesions}")
    print(f"truth_voxels={ph.truth.foreground_count}")
    return 0


def _cmd_shrink(args) -> int:
    factor = _require(args, "factor")
    path = str(args.input) + ".spec"
    spec, factors = synth.read_phantom_sidecar(path)
    with volume._naming(path):    # the sidecar's phantom must replay
        ph = synth.regenerate_phantom(spec, factors)
    print(f"truth_voxels_before={ph.truth.foreground_count}")
    ph = synth.shrink(ph, factor)
    synth.save_phantom(ph, args.out)
    print(f"truth_voxels_after={ph.truth.foreground_count}")
    return 0


def _corpus(args, count, start_seed):
    return trainer.make_corpus(count, start_seed,
                               **{k: getattr(args, k) for k in _CORPUS})


def _cmd_train(args) -> int:
    volume.check_threshold(args.threshold)    # before any training
    try:
        val_specs = _corpus(args, args.val_count,
                            args.corpus_seed + args.train_count)
    except ValueError as exc:    # its count or seed range
        if not str(exc).startswith("corpus "):
            raise
        raise ValueError(f"validation {exc}") from exc
    options = _objective_options(args, args.loss, trainer.TRAIN_LOSS_KINDS)
    cfg = trainer.TrainConfig(
        loss_kind=args.loss,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        seed=args.seed,
        train_specs=_corpus(args, args.train_count, args.corpus_seed),
        threads=args.threads,
        **options,
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
        rep = trainer.evaluate_lesionwise(
            model, (synth.generate(s) for s in val_specs), args.threshold,
            cfg.connectivity
        )
        sys.stdout.write(rep.to_text())
    return 0


def _cmd_eval(args) -> int:
    model = trainer.load_scorer(args.model)
    cases = ((volume.load_volume(prefix + ".image"),
              volume.load_mask(prefix + ".truth")) for prefix in args.phantom)
    rep = trainer.evaluate_lesionwise(model, cases, args.threshold,
                                      args.connectivity)
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
    _add_params(p, *_SPEC)
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
                "train_count", "val_count", *_CORPUS, "threshold",
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
        with _naming_config(args.config, _fill_params(args)):
            return args.func(args)
    except _UsageError as exc:
        # the usage of the subcommand named in argv, else the program's
        named = parser.commands.get(argv[0]) if argv else None
        (named or parser).print_usage(sys.stderr)
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"{PROG}: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
