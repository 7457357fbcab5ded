import numpy as np
import pytest

from lesionloss.cli import _PARAMS, _flag, _switch, build_parser, main
from lesionloss.loss import LOSS_KINDS
from lesionloss.volume import Mask, Volume, load_volume, save_mask, save_volume


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

    def test_negative_corpus_count_is_data_error(self, capsys):
        code, out, err = run(capsys, "train", "--epochs", "1", "--train-count", "2",
                             "--dims", "10 10 10", "--val-count", "-2")
        assert code == 2 and out == ""
        assert "corpus count must be >= 0, got -2" in err


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

    def test_nothing_to_compute(self, capsys):
        code, _, err = run(capsys, "metrics")
        assert code == 2


class TestSynthShrinkEval:
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
