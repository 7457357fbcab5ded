import contextlib
import dataclasses
import enum
import inspect
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lesionloss.cli as cli_mod
from lesionloss.cli import _PARAMS, _flag, _switch, build_parser, main
from lesionloss.components import label_components
from lesionloss.loss import (LOSS_KINDS, CombinedParams, TverskyParams,
                             grad_check, objective)
from lesionloss.metrics import hausdorff, kappa
from lesionloss.synth import PhantomSpec, generate, save_phantom
from lesionloss.trainer import (TrainConfig, VoxelScorer, evaluate_lesionwise,
                                make_corpus, save_scorer)
from lesionloss.volume import (GridShape, Mask, Volume, load_volume, save_mask,
                               save_volume)
from lesionloss.weighting import WeightCurveParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_worked_example(tmp_path):
    """The 4-voxel-lesion case: prediction covers 2 of it plus one FP."""
    gt = np.zeros((6, 6, 6), np.uint8)
    gt[1:3, 1:3, 1] = 1
    pred = np.zeros((6, 6, 6), np.float32)
    pred[1, 1, 1] = 1.0
    pred[2, 1, 1] = 1.0
    pred[5, 5, 5] = 1.0
    save_mask(Mask.from_array(gt), tmp_path / "gt")
    save_volume(Volume.from_array(pred), tmp_path / "pred")
    return tmp_path / "gt.vhdr", tmp_path / "pred.vhdr"


def write_eight_voxel_lesion(tmp_path):
    gt = np.zeros((8, 8, 8), np.uint8)
    gt[1:3, 1:3, 1:3] = 1
    save_mask(Mask.from_array(gt), tmp_path / "cube")
    return tmp_path / "cube.vhdr"


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "label", "--nope")
        assert code == 1

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "label", "--mask", str(tmp_path / "no.vhdr"))
        assert code == 2
        assert "error:" in err

    def test_shape_mismatch_is_data_error(self, capsys, tmp_path):
        save_mask(Mask.from_array(np.zeros((3, 3, 3), np.uint8)), tmp_path / "g")
        save_volume(
            Volume.from_array(np.zeros((4, 4, 4), np.float32)), tmp_path / "p"
        )
        code, _, err = run(capsys, "loss", "--kind", "tversky",
                           "--gt", str(tmp_path / "g.vhdr"),
                           "--pred", str(tmp_path / "p.vhdr"))
        assert code == 2
        assert "shapes differ" in err

    def test_corrupt_header_is_data_error(self, capsys, tmp_path):
        p = write_eight_voxel_lesion(tmp_path)
        p.write_text(p.read_text().replace("u8", "u16"))
        code, _, err = run(capsys, "label", "--mask", str(p))
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0

    def test_bad_threads_rejected(self, capsys, tmp_path):
        p = write_eight_voxel_lesion(tmp_path)
        code, _, err = run(capsys, "label", "--mask", str(p), "--threads", "0")
        assert code == 2

    @pytest.mark.parametrize("command", ["loss", "gradcheck"])
    def test_missing_kind_is_usage_error(self, capsys, tmp_path, command):
        gt, pred = write_worked_example(tmp_path)
        code, _, err = run(capsys, command, "--gt", str(gt), "--pred", str(pred))
        assert code == 1
        assert err.startswith(f"usage: lesionloss {command} [-h]")
        assert "--kind is required" in err

    def test_choices_bind_flags_and_config(self, capsys, tmp_path):
        p = write_eight_voxel_lesion(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("connectivity=7\n")
        code, _, _ = run(capsys, "label", "--mask", str(p), "--connectivity", "7")
        assert code == 1
        code, _, err = run(capsys, "label", "--mask", str(p), "--config", str(cfg))
        assert code == 2
        assert "connectivity must be one of 6, 18, 26" in err

    def test_flag_prefix_is_usage_error(self, capsys):
        code, out, err = run(capsys, "train", "--e", "3")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --e 3" in err

    @pytest.mark.parametrize("argv,usage", [
        (["train", "--e", "3"], "usage: lesionloss train [-h]"),
        (["loss", "--bogus"], "usage: lesionloss loss [-h]"),
        (["frobnicate"], "usage: lesionloss [-h] command"),
        ([], "usage: lesionloss [-h] command"),
    ])
    def test_usage_error_prints_the_named_subcommand_usage(self, capsys, argv,
                                                           usage):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(usage)

    @pytest.mark.parametrize("max_voxels", ["0", "-1"])
    def test_gradcheck_empty_sample_is_data_error(self, capsys, tmp_path,
                                                  max_voxels):
        gt, pred = write_worked_example(tmp_path)
        code, out, err = run(capsys, "gradcheck", "--kind", "ce", "--gt", str(gt),
                             "--pred", str(pred), "--max-voxels", max_voxels)
        assert code == 2 and out == ""
        assert "max_voxels must be >= 1" in err

    def test_gradcheck_negative_sample_seed_is_data_error(self, capsys,
                                                          tmp_path):
        gt, pred = write_worked_example(tmp_path)
        code, out, err = run(capsys, "gradcheck", "--kind", "ce", "--gt", str(gt),
                             "--pred", str(pred), "--max-voxels", "3",
                             "--sample-seed", "-1")
        assert code == 2 and out == ""
        assert "seed must be >= 0" in err

    @pytest.mark.parametrize("command", ["gradcheck", "loss"])
    def test_overflowing_loss_is_a_one_line_data_error(self, capsys, tmp_path,
                                                       command):
        gt = np.zeros((6, 6, 6), np.uint8)
        gt[1:4, 1:4, 1:4] = 1
        save_mask(Mask.from_array(gt), tmp_path / "gt")
        save_volume(Volume.from_array((0.1 + 0.7 * gt).astype(np.float32)),
                    tmp_path / "pred")
        extra = (["--max-voxels", "3"] if command == "gradcheck"
                 else ["--grad-out", str(tmp_path / "g")])
        code, out, err = run(capsys, command, "--kind", "combined",
                             "--gt", str(tmp_path / "gt.vhdr"),
                             "--pred", str(tmp_path / "pred.vhdr"),
                             "--w-max", "1e308", *extra)
        assert code == 2 and out == ""
        assert err == "lesionloss: error: loss value is non-finite\n"

    def test_gradcheck_cancelled_denominator_is_a_one_line_data_error(
            self, capsys, tmp_path):
        # moving the lesion voxel of 0.5 by -1 cancels the ratio's
        # numerator and denominator to 0 at beta = 0
        save_mask(Mask.from_array(np.array([1, 0], bool).reshape(2, 1, 1)),
                  tmp_path / "gt")
        save_volume(Volume.from_array(np.array([0.5, 0.0], np.float32)
                                      .reshape(2, 1, 1)), tmp_path / "pred")
        code, out, err = run(capsys, "gradcheck", "--kind", "tversky",
                             "--gt", str(tmp_path / "gt.vhdr"),
                             "--pred", str(tmp_path / "pred.vhdr"),
                             "--step", "1", "--alpha", "1", "--beta", "0",
                             "--smooth", "0.5")
        assert code == 2 and out == ""
        assert err == "lesionloss: error: loss value is non-finite\n"

    @pytest.mark.parametrize("argv, message", [
        (["loss", "--kind", "tversky", "--grad-out", "g"],
         "loss gradient is non-finite"),
        (["gradcheck", "--kind", "tversky"], "loss gradient is non-finite"),
        (["loss", "--kind", "combined", "--grad-out", "g"],
         "loss gradient is non-finite"),
        (["train", "--loss", "tversky", "--alpha", "0", "--small-lesions", "0",
          "--large-lesions", "0", "--train-count", "2", "--epochs", "1"],
         "training diverged at epoch 0: loss=0.0, gradient is non-finite"),
    ])
    def test_underflowing_squared_denominator_is_a_one_line_data_error(
            self, tmp_path, argv, message):
        # empty truth and zero predictions leave the ratio's denominator at
        # the smoothing, whose square underflows to 0
        save_mask(Mask.from_array(np.zeros((4, 4, 4), bool)), tmp_path / "gt")
        save_volume(Volume.from_array(np.zeros((4, 4, 4), np.float32)),
                    tmp_path / "pred")
        argv = [str(tmp_path / a) if a == "g" else a for a in argv]
        if argv[0] != "train":
            argv += ["--gt", str(tmp_path / "gt.vhdr"),
                     "--pred", str(tmp_path / "pred.vhdr")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_quiet(argv + ["--smooth", "1e-200"]) == (
                2, f"lesionloss: error: {message}\n")

    def test_gradient_past_float32_range_is_a_one_line_data_error(self, tmp_path):
        # empty truth, zero predictions: the background gradient
        # 0.3 * s / s**2 is finite in float64 but past float32's range
        save_mask(Mask.from_array(np.zeros((4, 4, 4), bool)), tmp_path / "gt")
        save_volume(Volume.from_array(np.zeros((4, 4, 4), np.float32)),
                    tmp_path / "pred")
        argv = ["loss", "--kind", "tversky", "--smooth", "1e-150",
                "--gt", str(tmp_path / "gt.vhdr"),
                "--pred", str(tmp_path / "pred.vhdr")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_quiet(argv + ["--grad-out", str(tmp_path / "g")]) == (
                2, "lesionloss: error: loss gradient is non-finite\n")
        assert not (tmp_path / "g.vhdr").exists()
        assert run_quiet(argv)[0] == 0    # the value alone is finite

    def test_train_has_no_tp_denominator_switch(self, capsys, tmp_path):
        small = ["train", "--epochs", "1", "--train-count", "2",
                 "--dims", "10 10 10", "--small-radius", "1.2 1.5",
                 "--large-radius", "1.8 2.2"]
        code, _, err = run(capsys, *small, "--weight-tp-denominator")
        assert code == 1
        assert "unrecognized arguments: --weight-tp-denominator" in err
        # a config line for it is ignored, as for any key train does not declare
        cfg = tmp_path / "run.cfg"
        cfg.write_text("weight_tp_denominator=1\n")
        assert run(capsys, *small, "--config", str(cfg)) == run(capsys, *small)

    @pytest.mark.parametrize("exc,message", [
        (MemoryError("Unable to allocate 7.11 PiB for an array"),
         "Unable to allocate 7.11 PiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    def test_allocation_failure_is_data_error(self, capsys, monkeypatch, exc,
                                              message):
        def fail(args):
            raise exc
        monkeypatch.setattr(cli_mod, "_cmd_synth", fail)
        code, out, err = run(capsys, "synth", "--out", "x",
                             "--dims", "2000000 2000000 2000")
        assert code == 2 and out == ""
        assert err == f"lesionloss: error: {message}\n"

    def test_negative_corpus_count_is_data_error(self, capsys):
        code, out, err = run(capsys, "train", "--epochs", "1", "--train-count", "2",
                             "--dims", "10 10 10", "--val-count", "-2")
        assert code == 2 and out == ""
        assert "corpus count must be >= 0, got -2" in err

    @pytest.mark.parametrize("argv, seeds", [
        (["--corpus-seed", "-5", "--train-count", "2", "--epochs", "1",
          "--dims", "10 10 10"], "-5..-4"),
        (["--corpus-seed", str(2**64 - 1), "--train-count", "2"],
         f"{2**64 - 1}..{2**64}"),
    ], ids=["negative", "overflowing"])
    def test_bad_corpus_seed_names_the_corpus_seeds(self, capsys, argv, seeds):
        code, out, err = run(capsys, "train", *argv)
        assert code == 2 and out == ""
        assert err == (f"lesionloss: error: corpus seeds {seeds} must lie in "
                       "[0, 2**64)\n")


class TestLabelWeights:
    def test_label_output(self, capsys, tmp_path):
        p = write_eight_voxel_lesion(tmp_path)
        code, out, _ = run(capsys, "label", "--mask", str(p),
                           "--labels-out", str(tmp_path / "lab.vhdr"),
                           "--volumes-out", str(tmp_path / "vol.csv"))
        assert code == 0
        assert "lesions=1" in out and "volumes=8" in out
        lab = load_volume(tmp_path / "lab.vhdr")
        assert lab.data.max() == 1.0
        assert "lesion_id,voxels,mm3" in (tmp_path / "vol.csv").read_text()

    def test_weight_map_peak_value(self, capsys, tmp_path):
        p = write_eight_voxel_lesion(tmp_path)
        code, out, _ = run(capsys, "weights", "--gt", str(p),
                           "--out", str(tmp_path / "omega.vhdr"))
        assert code == 0
        assert "max_weight=9.69198" in out
        assert "min_weight=1" in out
        om = load_volume(tmp_path / "omega.vhdr")
        assert om.data.max() == pytest.approx(9.691982580768437, rel=1e-6)

    def test_weight_units_switch(self, capsys, tmp_path):
        gt = np.zeros((8, 8, 8), np.uint8)
        gt[1:3, 1:3, 1:3] = 1
        save_mask(Mask.from_array(gt, spacing=(2.0, 2.0, 2.0)), tmp_path / "m")
        code, out, _ = run(capsys, "weights", "--gt", str(tmp_path / "m.vhdr"),
                           "--out", str(tmp_path / "o.vhdr"),
                           "--units", "mm3")
        assert code == 0
        om = load_volume(tmp_path / "o.vhdr")
        # 8 voxels * 8 mm^3 = 64 mm^3 fed to the curve
        from lesionloss.weighting import omega
        assert om.data.max() == pytest.approx(omega(64.0), rel=1e-6)


class TestLossCommands:
    def test_wlt_worked_example_prints_six_digits(self, capsys, tmp_path):
        gt, pred = write_worked_example(tmp_path)
        code, out, _ = run(capsys, "loss", "--kind", "wlt",
                           "--gt", str(gt), "--pred", str(pred))
        assert code == 0
        assert "value=-0.894155" in out

    def test_gradient_artifact(self, capsys, tmp_path):
        gt, pred = write_worked_example(tmp_path)
        code, out, _ = run(capsys, "loss", "--kind", "tversky",
                           "--gt", str(gt), "--pred", str(pred),
                           "--grad-out", str(tmp_path / "grad.vhdr"))
        assert code == 0
        grad = load_volume(tmp_path / "grad.vhdr")
        assert grad.shape.dims == (6, 6, 6)
        assert np.isfinite(grad.data).all()

    def test_gradcheck_reports_small_error(self, capsys, tmp_path):
        rng = np.random.default_rng(40)
        save_mask(
            Mask.from_array(rng.random((5, 5, 5)) < 0.3), tmp_path / "g"
        )
        save_volume(
            Volume.from_array(rng.uniform(0.1, 0.9, (5, 5, 5)).astype(np.float32)),
            tmp_path / "p",
        )
        code, out, _ = run(capsys, "gradcheck", "--kind", "combined",
                           "--gt", str(tmp_path / "g.vhdr"),
                           "--pred", str(tmp_path / "p.vhdr"))
        assert code == 0
        value = float(out.split("max_rel_error=")[1].split()[0])
        assert value < 1e-4

    def test_config_file_defaults_and_flag_override(self, capsys, tmp_path):
        gt, pred = write_worked_example(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.5\nbeta=0.5\n# comment\n")
        code_cfg, out_cfg, _ = run(capsys, "loss", "--kind", "tversky",
                                   "--gt", str(gt), "--pred", str(pred),
                                   "--config", str(cfg))
        code_flag, out_flag, _ = run(capsys, "loss", "--kind", "tversky",
                                     "--gt", str(gt), "--pred", str(pred),
                                     "--config", str(cfg), "--alpha", "0.3",
                                     "--beta", "1.0")
        code_plain, out_plain, _ = run(capsys, "loss", "--kind", "tversky",
                                       "--gt", str(gt), "--pred", str(pred))
        assert code_cfg == code_flag == code_plain == 0
        assert out_cfg != out_plain       # config changed the result
        assert out_flag == out_plain      # flags win over config

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        gt, pred = write_worked_example(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alhpa=0.5\n")
        code, _, err = run(capsys, "loss", "--kind", "tversky",
                           "--gt", str(gt), "--pred", str(pred),
                           "--config", str(cfg))
        assert code == 2
        assert "unknown parameter" in err

    def test_duplicate_config_key_rejected(self, capsys, tmp_path):
        gt, pred = write_worked_example(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.5\n# comment\nalpha=0.6\n")
        code, out, err = run(capsys, "loss", "--kind", "tversky",
                             "--gt", str(gt), "--pred", str(pred),
                             "--config", str(cfg))
        assert code == 2 and out == ""
        assert "duplicate config field: alpha" in err

    @pytest.mark.parametrize("name", [
        *(f"loss-{kind}" for kind in LOSS_KINDS),
        "gradcheck", "weights", "label", "metrics", "synth", "train",
    ])
    def test_table_defaults_are_the_defaults_that_run(self, capsys, tmp_path,
                                                      monkeypatch, name):
        """Passing a row's default explicitly, as a flag or as a config
        line, changes no byte of stdout or of the written artifacts."""
        gt, pred = write_worked_example(tmp_path)
        pair = ["--gt", str(gt), "--pred", str(pred)]
        outcomes = tmp_path / "cases.csv"
        outcomes.write_text("case_id,score,label,empty_seg\n"
                            "a,0.9,1,0\nb,0.2,0,0\nc,0.6,1,0\nd,0.4,0,0\n")
        base = {
            **{f"loss-{kind}": ["loss", "--kind", kind, *pair,
                                "--grad-out", "grad"] for kind in LOSS_KINDS},
            "gradcheck": ["gradcheck", "--kind", "combined", *pair,
                          "--max-voxels", "20"],
            "weights": ["weights", "--gt", str(gt), "--out", "omega"],
            "label": ["label", "--mask", str(gt), "--volumes-out", "vol.csv"],
            "metrics": ["metrics", "--gt-mask", str(gt), "--pred-mask", str(gt),
                        "--outcomes", str(outcomes), "--json-out", "m.json"],
            "synth": ["synth", "--out", "ph"],
            "train": ["train", "--epochs", "1", "--train-count", "2",
                      "--val-count", "1", "--dims", "10 10 10",
                      "--small-radius", "1.2 1.5", "--large-radius", "1.8 2.2",
                      "--model-out", "model.vec", "--log-out", "log.csv"],
        }[name]

        def outputs(tag, *extra):
            d = tmp_path / tag
            d.mkdir()
            monkeypatch.chdir(d)
            code, out, _ = run(capsys, *base, *extra)
            assert code == 0, (tag, extra)
            return out, artifact_bytes(d)

        reference = outputs("unset")
        declared = vars(build_parser().parse_args(base))
        checked = 0
        for key, (parse, default, _, _) in _PARAMS.items():
            if key not in declared or default is None or _flag(key) in base:
                continue
            text = default if isinstance(default, str) else repr(default)
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key}={text}\n")
            assert outputs(f"{key}-config", "--config", str(cfg)) == reference
            if parse is not _switch:  # a switch flag takes no value
                assert outputs(f"{key}-flag", _flag(key), text) == reference
            checked += 1
        assert checked >= 2


# each _PARAMS row that restates a library default -> the (owner, parameter)
# pairs whose default it feeds.  The CLI's noise_sigma is make_corpus's 0.6,
# which synth uses too, not PhantomSpec's 0.1.
MIRRORED = {
    "connectivity": [(objective, "connectivity"), (TrainConfig, "connectivity"),
                     (evaluate_lesionwise, "connectivity"),
                     (label_components, "connectivity")],
    **{key: [(WeightCurveParams, key)]
       for key in ("w_max", "w_min", "vrange", "k", "a_shift")},
    "alpha": [(TverskyParams, "alpha")],
    "beta": [(TverskyParams, "beta")],
    "ce_weight": [(objective, "ce_weight"), (TrainConfig, "ce_weight"),
                  (CombinedParams, "ce_weight")],
    "clamp": [(objective, "clamp"), (TrainConfig, "clamp")],
    "weight_tp_denominator": [(objective, "weight_tp_denominator")],
    "step": [(grad_check, "step")],
    "max_voxels": [(grad_check, "max_voxels")],
    "sample_seed": [(grad_check, "seed")],
    "hd_percentile": [(hausdorff, "percentile")],
    "kappa_threshold": [(kappa, "threshold")],
    "threshold": [(evaluate_lesionwise, "thresh")],
    "seed": [(TrainConfig, "seed"), (PhantomSpec, "seed")],
    "learning_rate": [(TrainConfig, "learning_rate")],
    "epochs": [(TrainConfig, "epochs")],
    "loss": [(TrainConfig, "loss_kind")],
    "threads": [(TrainConfig, "threads")],
    "dims": [(make_corpus, "dims")],
    "spacing": [(make_corpus, "spacing"), (GridShape, "spacing")],
    "fragmentation_prob": [(PhantomSpec, "fragmentation_prob")],
    "fragments_per_lesion": [(PhantomSpec, "fragments_per_lesion")],
    "noise_sigma": [(make_corpus, "noise_sigma")],
    "contrast": [(make_corpus, "contrast"), (PhantomSpec, "contrast")],
    **{key: [(make_corpus, key)] for key in ("small_radius", "large_radius",
                                             "small_lesions", "large_lesions")},
}
# rows whose default no library function or field states
CLI_ONLY = {"smooth", "units", "kind", "n_lesions", "radius_range", "factor",
            "train_count", "val_count", "corpus_seed"}


def test_mirrored_defaults_are_the_library_defaults():
    """Each parsed _PARAMS default that restates a library default equals
    it, and every row is either mirrored or the CLI's own."""
    assert MIRRORED.keys() | CLI_ONLY == _PARAMS.keys()
    assert not MIRRORED.keys() & CLI_ONLY
    for key, owners in MIRRORED.items():
        parse, default = _PARAMS[key][:2]
        mine = None if default is None else parse(default)
        if parse is _switch:
            mine = bool(mine)
        for owner, name in owners:
            theirs = inspect.signature(owner).parameters[name].default
            if isinstance(theirs, enum.Enum):
                theirs = theirs.value
            assert (type(mine), mine) == (type(theirs), theirs), \
                (key, owner.__name__, name)


def test_corpus_flags_are_make_corpus_keywords():
    """train passes make_corpus each of its keyword parameters from the
    flag of the same name, and nothing else."""
    params = list(inspect.signature(make_corpus).parameters)
    assert params[:2] == ["count", "start_seed"]
    assert sorted(cli_mod._CORPUS) == sorted(params[2:])


def test_curve_flags_are_the_curve_fields_in_order():
    assert cli_mod._CURVE == tuple(f.name for f in
                                   dataclasses.fields(WeightCurveParams))


class TestMetricsCommand:
    def test_mask_pair_and_outcomes(self, capsys, tmp_path):
        a = np.zeros((5, 5, 5), np.uint8)
        b = np.zeros((5, 5, 5), np.uint8)
        a[1:3, 1, 1] = 1
        b[2:4, 1, 1] = 1
        save_mask(Mask.from_array(a), tmp_path / "a")
        save_mask(Mask.from_array(b), tmp_path / "b")
        csv = tmp_path / "cases.csv"
        csv.write_text(
            "case_id,score,label,empty_seg\n"
            "c1,0.9,1,0\nc2,0.4,1,0\nc3,0.5,0,0\nc4,0.1,0,0\n"
        )
        code, out, _ = run(capsys, "metrics",
                           "--gt-mask", str(tmp_path / "a.vhdr"),
                           "--pred-mask", str(tmp_path / "b.vhdr"),
                           "--outcomes", str(csv),
                           "--json-out", str(tmp_path / "m.json"),
                           "--report-out", str(tmp_path / "m.txt"))
        assert code == 0
        assert "dice=0.5" in out
        assert "hausdorff_mm=1" in out
        assert "auc=0.75" in out
        assert "kappa=" in out
        assert (tmp_path / "m.json").exists()
        assert (tmp_path / "m.txt").read_text() == out

    def test_empty_mask_hd_is_data_error(self, capsys, tmp_path):
        save_mask(Mask.from_array(np.zeros((4, 4, 4), np.uint8)), tmp_path / "e")
        m = np.zeros((4, 4, 4), np.uint8)
        m[0, 0, 0] = 1
        save_mask(Mask.from_array(m), tmp_path / "m")
        code, _, err = run(capsys, "metrics",
                           "--gt-mask", str(tmp_path / "e.vhdr"),
                           "--pred-mask", str(tmp_path / "m.vhdr"))
        assert code == 2
        assert "undefined" in err

    def test_kappa_threshold_checked_before_the_outcome_file(self, capsys,
                                                             tmp_path):
        csv = tmp_path / "cases.csv"
        csv.write_text("case_id,score,label,empty_seg\nc1,0.9,1,0\nc2,0.1,0,0\n")
        code, out, err = run(capsys, "metrics", "--outcomes", str(csv),
                             "--kappa-threshold", "2")
        assert code == 2 and out == ""
        assert "threshold must lie in [0, 1], got 2.0" in err
        assert str(csv) not in err

    @pytest.mark.parametrize("flags,message", [
        (["--gt-mask", "a"], "provide --gt-mask and --pred-mask together"),
        (["--pred-mask", "a"], "provide --gt-mask and --pred-mask together"),
        (["--gt-mask", "a", "--pred-mask", "a", "--hd-percentile", "0"],
         "percentile must lie in (0, 100]"),
        (["--gt-mask", "a", "--pred-mask", "a", "--hd-percentile", "100.5"],
         "percentile must lie in (0, 100]"),
    ], ids=["gt_only", "pred_only", "percentile_0", "percentile_100.5"])
    def test_mask_pair_and_percentile_checked(self, capsys, tmp_path, flags,
                                              message):
        m = np.zeros((4, 4, 4), np.uint8)
        m[1, 1, 1] = 1
        save_mask(Mask.from_array(m), tmp_path / "a")
        argv = [str(tmp_path / "a.vhdr") if f == "a" else f for f in flags]
        code, out, err = run(capsys, "metrics", *argv)
        assert code == 2 and out == ""
        assert err == f"lesionloss: error: {message}\n"

    def test_nothing_to_compute(self, capsys):
        code, _, err = run(capsys, "metrics")
        assert code == 2

    @pytest.mark.parametrize("row,message", [
        ("c1,0.0,1,2", "empty_seg must be 0 or 1"),
        ("c" * 131073 + ",0.5,1,0", "field larger than field limit"),
        ("c1,abc,1,0", "row 2: score must be a number, got 'abc'"),
        ("c1,0.5, 1,0", "row 2: label must be 0 or 1, got ' 1'"),
    ], ids=["empty_seg_2", "oversized_field", "score_abc", "label_space_1"])
    def test_bad_outcome_csv_is_data_error(self, capsys, tmp_path, row, message):
        csv = tmp_path / "cases.csv"
        csv.write_text("case_id,score,label,empty_seg\n" + row + "\n")
        code, out, err = run(capsys, "metrics", "--outcomes", str(csv))
        assert code == 2 and out == ""
        assert message in err and str(csv) in err
        assert "Traceback" not in err


class TestSynthShrinkEval:
    def test_eval_rejects_image_and_truth_of_different_grids(self, capsys,
                                                             tmp_path):
        save_scorer(VoxelScorer(np.zeros(5)), tmp_path / "m.vec")
        save_volume(Volume.from_array(np.zeros((10, 10, 10), np.float32)),
                    tmp_path / "a.image")
        save_mask(Mask.from_array(np.zeros((12, 12, 12), np.uint8)),
                  tmp_path / "a.truth")
        code, out, err = run(capsys, "eval", "--model", str(tmp_path / "m.vec"),
                             "--phantom", str(tmp_path / "a"))
        assert code == 2 and out == ""
        assert "grid shapes differ" in err and "Traceback" not in err

    def test_train_checks_threshold_before_training(self, capsys, tmp_path):
        model, log = tmp_path / "m.vec", tmp_path / "l.csv"
        code, out, err = run(capsys, "train", "--epochs", "3",
                             "--train-count", "4", "--val-count", "2",
                             "--threshold", "2", "--model-out", str(model),
                             "--log-out", str(log))
        assert code == 2 and out == ""
        assert "threshold must lie in [0, 1], got 2.0" in err
        assert not model.exists() and not log.exists()

    def test_synth_writes_triplet(self, capsys, tmp_path):
        code, out, _ = run(capsys, "synth", "--out", str(tmp_path / "ph"),
                           "--dims", "16 16 16", "--n-lesions", "2",
                           "--radius-range", "2.0 3.0", "--seed", "5")
        assert code == 0
        for suffix in (".image.vhdr", ".image.vraw", ".truth.vhdr",
                       ".truth.vraw", ".spec"):
            assert (tmp_path / ("ph" + suffix)).exists()
        assert "truth_voxels=" in out

    def test_shrink_pipeline(self, capsys, tmp_path):
        run(capsys, "synth", "--out", str(tmp_path / "ph"),
            "--dims", "20 20 20", "--n-lesions", "1",
            "--radius-range", "4.0 4.0", "--seed", "6")
        code, out, _ = run(capsys, "shrink", "--in", str(tmp_path / "ph"),
                           "--factor", "0.5", "--out", str(tmp_path / "sm"))
        assert code == 0
        before = int(out.split("truth_voxels_before=")[1].split()[0])
        after = int(out.split("truth_voxels_after=")[1].split()[0])
        assert after < before
        assert (tmp_path / "sm.spec").read_text().find("shrink_factors=0.5") > 0

    def test_shrink_rejects_duplicate_sidecar_key(self, capsys, tmp_path):
        run(capsys, "synth", "--out", str(tmp_path / "ph"),
            "--dims", "16 16 16", "--seed", "6")
        with open(tmp_path / "ph.spec", "a", encoding="utf-8") as fh:
            fh.write("seed=99\n")
        code, out, err = run(capsys, "shrink", "--in", str(tmp_path / "ph"),
                             "--factor", "0.5", "--out", str(tmp_path / "sm"))
        assert code == 2 and out == ""
        assert "duplicate sidecar field: seed" in err
        assert not (tmp_path / "sm.spec").exists()

    def test_train_eval_pipeline(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "train", "--loss", "wlt-combined",
            "--dims", "12 12 12", "--train-count", "4", "--val-count", "2",
            "--small-radius", "1.2 1.5", "--large-radius", "2.0 2.6",
            "--small-lesions", "1", "--large-lesions", "1",
            "--epochs", "10", "--corpus-seed", "55",
            "--model-out", str(tmp_path / "model.vec"),
            "--log-out", str(tmp_path / "log.csv"),
        )
        assert code == 0
        assert "final_loss=" in out and "small_recall=" in out
        log = (tmp_path / "log.csv").read_text().splitlines()
        assert log[0] == "epoch,loss"
        assert len(log) == 12  # header + epochs + final

        run(capsys, "synth", "--out", str(tmp_path / "t0"),
            "--dims", "12 12 12", "--n-lesions", "1",
            "--radius-range", "2.0 2.6", "--seed", "77")
        code, out, _ = run(capsys, "eval", "--model", str(tmp_path / "model.vec"),
                           "--phantom", str(tmp_path / "t0"),
                           "--report-out", str(tmp_path / "recall.txt"))
        assert code == 0
        assert "medium_total=1" in out  # radius ~2.3 lesion is ~50 voxels
        assert (tmp_path / "recall.txt").read_text() == out


def write_inputs(root: Path) -> dict[str, tuple[Path, list[str]]]:
    """A valid file of each kind the CLI reads, with the arguments of a run
    that reads it: name -> (file, argv)."""
    save_mask(Mask.from_array(np.arange(64).reshape(4, 4, 4) % 3 == 0),
              root / "m")
    save_phantom(generate(PhantomSpec(GridShape((6, 6, 6)), 1, (1.0, 1.2),
                                      noise_sigma=0.5, seed=2)), root / "ph")
    (root / "run.cfg").write_text("connectivity=18\nthreads=1\n"
                                  "# a comment\nseed=3\n")
    save_scorer(VoxelScorer(np.array([1.1, 2.3, -0.4, 0.2, -2.0])),
                root / "s.vec")
    (root / "o.csv").write_text("case_id,score,label,empty_seg\nc1,0.9,1,0\n"
                                "c2,0.25,0,0\nc3,0,0,1\nc4,0.75,1,0\n")
    return {
        "vhdr": (root / "m.vhdr", ["label", "--mask", str(root / "m.vhdr")]),
        "vraw": (root / "m.vraw", ["label", "--mask", str(root / "m.vhdr")]),
        "f32raw": (root / "ph.image.vraw", ["eval", "--model", str(root / "s.vec"),
                                            "--phantom", str(root / "ph")]),
        "spec": (root / "ph.spec", ["shrink", "--in", str(root / "ph"),
                                    "--factor", "0.5", "--out",
                                    str(root / "out")]),
        "config": (root / "run.cfg", ["label", "--mask", str(root / "m.vhdr"),
                                      "--config", str(root / "run.cfg")]),
        "f32vec": (root / "s.vec", ["eval", "--model", str(root / "s.vec"),
                                    "--phantom", str(root / "ph")]),
        "csv": (root / "o.csv", ["metrics", "--outcomes", str(root / "o.csv")]),
    }


def run_quiet(argv) -> tuple[int, str]:
    """main(argv)'s exit code and stderr, without pytest's capture."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestFileErrorsNameTheFile:
    @pytest.mark.parametrize("kind, edit, message", [
        ("vhdr", lambda b: b.replace(b"dtype", b"dty\xffpe"), "codec can't decode"),
        ("vhdr", lambda b: b + b"junk\n", "malformed header line: 'junk'"),
        ("vhdr", lambda b: b.replace(b"dims=4 4 4", b"dims=8 8 x"),
         "invalid header geometry: dims: invalid literal for int()"),
        ("f32raw", lambda b: np.float32(np.nan).tobytes() + b[4:],
         "non-finite values"),
        ("config", lambda b: b + b"seed=x\n", "duplicate config field: seed"),
        ("config", lambda b: b.replace(b"connectivity=18", b"connectivity=x"),
         "connectivity: invalid literal for int()"),
        ("config", lambda b: b.replace(b"threads=1", b"threads=0"),
         "threads must be >= 1"),
        ("spec", lambda b: b.replace(b"seed=2", b"seed=abc"),
         "seed: invalid literal for int() with base 10: 'abc'"),
        ("spec", lambda b: b.replace(b"radius_range_vox=1.0", b"radius_range_vox="),
         "radius_range_vox: expected 2 values, got '1.2'"),
        ("spec", lambda b: b.replace(b"dims=6 6 6", b"dims=8 8"),
         "dims: expected 3 values, got '8 8'"),
        # numpy refuses the 909 TiB grid up front, so nothing is allocated
        ("spec", lambda b: b.replace(b"dims=6 6 6",
                                     b"dims=100000 100000 100000"),
         "Unable to allocate"),
        ("spec", lambda b: b.replace(b"n_lesions=1", b"n_lesions=40"),
         "could not place lesion"),
        ("spec", lambda b: b.replace(b"shrink_factors=", b"shrink_factors=2"),
         "factor must lie in (0, 1]"),
        ("f32vec", lambda b: b.replace(b"f32vec 5", b"f32vec abc"),
         "invalid literal for int() with base 10: b'abc'"),
        ("f32vec", lambda b: b.replace(b"f32vec 5", b"f32vec 0")[:9],
         "expected 5 weights, got (0,)"),
        ("csv", lambda b: b.replace(b"c2", b"c\xff2"), "codec can't decode"),
        ("csv", lambda b: b.replace(b"1,0\n", b"0,0\n"),
         "auc needs at least one case of each class"),
    ])
    def test_named(self, tmp_path, kind, edit, message):
        path, argv = write_inputs(tmp_path)[kind]
        path.write_bytes(edit(path.read_bytes()))
        code, err = run_quiet(argv)
        assert code == 2
        assert err.startswith(f"lesionloss: error: {path}: ")
        if message is not None:
            assert message in err

    def test_config_value_names_file_and_key(self, tmp_path):
        # neither is a label parameter; synth reads both
        path = tmp_path / "run.cfg"
        for line, message in [
            ("seed=x", "seed: invalid literal for int() with base 10: 'x'"),
            ("dims=8 8", "dims: expected 3 values, got '8 8'"),
        ]:
            path.write_text(line + "\n")
            code, err = run_quiet(["synth", "--out", str(tmp_path / "ph"),
                                   "--config", str(path)])
            assert code == 2
            assert err == f"lesionloss: error: {path}: {message}\n"

    @pytest.mark.parametrize("command, line, message", [
        ("synth", "noise_sigma=-1", "noise_sigma must be >= 0 and finite"),
        ("train", "learning_rate=inf", "learning_rate must be positive and finite"),
        ("loss", "w_max=inf", "w_max must be finite"),
        ("weights", "w_min=-1", "w_min must be positive"),
        ("gradcheck", "vrange=-1", "vrange must be positive"),
        ("train", "k=0", "k must be positive"),
        ("weights", "a_shift=-2", "a_shift must be positive"),
        ("gradcheck", "step=0", "step must be positive and finite, got 0.0"),
        ("shrink", "factor=2", "factor must lie in (0, 1], got 2.0"),
    ])
    def test_config_value_a_constructor_rejects_names_file_and_key(
            self, tmp_path, command, line, message):
        # the value parses; the library's check rejects it in the
        # subcommand.  Given by flag, it keeps the library's message.
        write_inputs(tmp_path)
        save_volume(Volume.from_array(np.full((4, 4, 4), 0.5, np.float32)),
                    tmp_path / "p")
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        pair = ["--gt", str(tmp_path / "m.vhdr"), "--pred", str(tmp_path / "p.vhdr"),
                "--kind", "tversky"]
        argv = [command] + {
            "synth": ["--out", str(tmp_path / "out")],
            "weights": ["--gt", str(tmp_path / "m.vhdr"), "--out", str(tmp_path / "w")],
            "loss": pair, "gradcheck": pair,
            "shrink": ["--in", str(tmp_path / "ph"), "--out", str(tmp_path / "out")],
        }.get(command, [])
        key, value = line.split("=")
        assert run_quiet(argv + ["--config", str(path)]) == (
            2, f"lesionloss: error: {path}: {key}: {message}\n")
        assert run_quiet(argv + ["--" + key.replace("_", "-"), value]) == (
            2, f"lesionloss: error: {message}\n")

    @pytest.mark.parametrize("command, line, message, library_names_key", [
        ("gradcheck", "sample_seed=-1", "seed must be >= 0, got -1", False),
        ("metrics", "hd_percentile=200", "percentile must lie in (0, 100]", False),
        ("metrics", "kappa_threshold=2", "threshold must lie in [0, 1], got 2.0",
         False),
        ("train", "corpus_seed=-1", "corpus seeds -1..38 must lie in [0, 2**64)",
         False),
        ("train", "train_count=-1", "corpus count must be >= 0, got -1", False),
        ("train", "val_count=-1",
         "validation corpus count must be >= 0, got -1", False),
        ("synth", "radius_range=0 1",
         "radius_range_vox must satisfy 0 < min <= max, got 0.0, 1.0", False),
        ("train", "small_radius=0 1",
         "radius_range_vox must satisfy 0 < min <= max, got 0.0, 1.0", True),
        ("train", "large_radius=5 4",
         "radius_range_vox must satisfy 0 < min <= max, got 5.0, 4.0", True),
        ("train", "small_lesions=-1", "n_lesions must be >= 0", True),
        ("train", "large_lesions=-1", "n_lesions must be >= 0", True),
        ("weights", "w_min=20", "w_max must be >= w_min", False),
    ])
    def test_config_value_checked_under_another_name_names_file_and_key(
            self, tmp_path, command, line, message, library_names_key):
        # the library checks the value under another name, or names it
        # itself (make_corpus's size classes); the config file and the key
        # are named all the same.  Given by flag, the value keeps the
        # library's message.
        write_inputs(tmp_path)
        save_volume(Volume.from_array(np.full((4, 4, 4), 0.5, np.float32)),
                    tmp_path / "p")
        m = str(tmp_path / "m.vhdr")
        argv = [command] + {
            "gradcheck": ["--gt", m, "--pred", str(tmp_path / "p.vhdr"),
                          "--kind", "tversky"],
            "metrics": ["--gt-mask", m, "--pred-mask", m,
                        "--outcomes", str(tmp_path / "o.csv")],
            "synth": ["--out", str(tmp_path / "out")],
            "weights": ["--gt", m, "--out", str(tmp_path / "w")],
        }.get(command, ["--epochs", "0"])
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        key, value = line.split("=")
        assert run_quiet(argv + ["--config", str(path)]) == (
            2, f"lesionloss: error: {path}: {key}: {message}\n")
        flag_message = f"{key}: {message}" if library_names_key else message
        assert run_quiet(argv + ["--" + key.replace("_", "-"), value]) == (
            2, f"lesionloss: error: {flag_message}\n")

    def test_wrong_count_flag_is_usage_error_naming_it(self, tmp_path):
        code, err = run_quiet(["synth", "--out", str(tmp_path / "ph"),
                               "--dims", "8 8"])
        assert code == 1
        assert err.endswith("lesionloss: error: argument --dims: invalid "
                            "3-int value: '8 8'\n")

    def test_short_raw_names_the_raw_file(self, tmp_path):
        path, argv = write_inputs(tmp_path)["vhdr"]
        raw = path.with_suffix(".vraw")
        raw.write_bytes(raw.read_bytes()[:-1])
        code, err = run_quiet(argv)
        assert code == 2
        assert err.startswith(f"lesionloss: error: {raw}: raw size mismatch")

    @settings(max_examples=160, deadline=None)
    @given(kind=st.sampled_from(["vhdr", "vraw", "spec", "config", "f32vec",
                                 "csv"]),
           edits=st.lists(st.tuples(
               st.sampled_from(["replace", "insert", "delete"]),
               st.integers(0, 2**16),
               st.one_of(st.sampled_from(b"0123456789 .-=e#x\n"),
                         st.integers(0, 255))), min_size=1, max_size=3))
    def test_fuzzed_file_runs_or_fails_naming_it(self, kind, edits):
        """Up to three byte edits of a valid file: the run exits 0, or exits
        2 naming the file (for a header, the file or its raw partner);
        no other exception leaves main."""
        with tempfile.TemporaryDirectory() as tmp:
            path, argv = write_inputs(Path(tmp))[kind]
            data = bytearray(path.read_bytes())
            for op, at, byte in edits:
                i = at % (len(data) + (op == "insert"))
                if op == "insert":
                    data[i:i] = bytes([byte])
                elif op == "replace":
                    data[i] = byte
                else:
                    del data[i]
            path.write_bytes(bytes(data))
            code, err = run_quiet(argv)
            names = {str(path), str(path.with_suffix(".vraw"))}
            assert code == 0 or (code == 2 and any(n in err for n in names)), err

    def test_signalling_nan_weight_is_a_one_line_data_error(self, tmp_path):
        """A float32 signalling NaN among a scorer file's weights is
        rejected as non-finite, with no numpy warning on the way."""
        path, argv = write_inputs(tmp_path)["f32vec"]
        path.write_bytes(b"f32vec 5\n" + bytes([1, 0, 0x80, 0x7f]) + bytes(16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_quiet(argv) == (
                2, f"lesionloss: error: {path}: scorer weights must be finite\n")


def artifact_bytes(root):
    return {
        p.name: p.read_bytes()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


class TestDeterminism:
    def test_synth_rerun_and_threads_byte_identical(self, capsys, tmp_path):
        outs = []
        for sub, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            d = tmp_path / sub
            d.mkdir()
            code, out, _ = run(capsys, "synth", "--out", str(d / "ph"),
                               "--dims", "14 14 14", "--n-lesions", "2",
                               "--radius-range", "1.5 2.5", "--seed", "9",
                               "--threads", threads)
            assert code == 0
            outs.append((artifact_bytes(d), out))
        assert outs[0][0] == outs[1][0] == outs[2][0]
        assert outs[0][1] == outs[1][1] == outs[2][1]

    def test_train_rerun_byte_identical(self, capsys, tmp_path):
        results = []
        for sub, threads in (("a", "1"), ("b", "3")):
            d = tmp_path / sub
            d.mkdir()
            code, out, _ = run(
                capsys, "train", "--loss", "tversky",
                "--dims", "10 10 10", "--train-count", "2", "--val-count", "0",
                "--small-radius", "1.2 1.5", "--large-radius", "1.8 2.2",
                "--small-lesions", "1", "--large-lesions", "1",
                "--epochs", "5", "--corpus-seed", "66", "--threads", threads,
                "--model-out", str(d / "m.vec"), "--log-out", str(d / "l.csv"),
            )
            assert code == 0
            results.append((artifact_bytes(d), out))
        assert results[0] == results[1]
