import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import auc_reference, dice_reference, hausdorff_reference, kappa_reference

import lesionloss
from lesionloss.loss import TverskyParams, tversky_loss
from lesionloss.metrics import (
    CaseOutcome,
    MetricReport,
    UndefinedMetricError,
    apply_empty_fallback,
    auc,
    dice,
    hausdorff,
    kappa,
    read_outcomes,
    write_outcomes,
)
from lesionloss.volume import Mask, ShapeMismatchError, Volume


def mask(arr, spacing=(1.0, 1.0, 1.0)):
    return Mask.from_array(np.asarray(arr), spacing)


def random_mask(rng, dims=(6, 6, 6), fg=0.3, spacing=(1.0, 1.0, 1.0)):
    return mask(rng.random(dims) < fg, spacing)


def outcomes_from(scores, labels):
    return [
        CaseOutcome(f"case{i}", float(s), int(l))
        for i, (s, l) in enumerate(zip(scores, labels))
    ]


class TestDice:
    def test_identical(self):
        rng = np.random.default_rng(1)
        m = random_mask(rng)
        assert dice(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4), bool)
        b = np.zeros((4, 4, 4), bool)
        a[0, 0, 0] = True
        b[3, 3, 3] = True
        assert dice(mask(a), mask(b)) == 0.0

    def test_worked_example(self):
        a = np.zeros((4, 4, 4), bool)
        b = np.zeros((4, 4, 4), bool)
        a.flat[:4] = True       # |A| = 4
        b.flat[2:5] = True      # |B| = 3, overlap 2
        assert dice(mask(a), mask(b)) == pytest.approx(4.0 / 7.0, abs=0.0)

    def test_both_empty(self):
        z = mask(np.zeros((3, 3, 3), bool))
        assert dice(z, z) == 1.0

    def test_symmetric_and_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = random_mask(rng, dims=(5, 5, 5))
            b = random_mask(rng, dims=(5, 5, 5))
            d = dice(a, b)
            assert d == dice(b, a)
            assert d == dice_reference(a.data, b.data)  # exact

    def test_consistent_with_balanced_tversky(self):
        # dice equals the Tversky index at alpha = beta = 0.5 on crisp masks
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_mask(rng)
            b = random_mask(rng)
            if not (a.data.any() or b.data.any()):
                continue
            tv = tversky_loss(
                a, Volume.from_array(b.data.astype(np.float32)),
                TverskyParams(alpha=0.5, beta=0.5, smooth=1e-12),
            ).value
            assert dice(a, b) == pytest.approx(1.0 - tv, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            dice(mask(np.zeros((2, 2, 2))), mask(np.zeros((3, 2, 2))))


class TestHausdorff:
    def test_import_leaves_scipy_spatial_out(self):
        # only hausdorff needs scipy.spatial, so importing the package (as
        # train and loss do) must not pay for it
        env = dict(os.environ, PYTHONPATH=str(Path(lesionloss.__file__).parents[1]))
        code = "import sys, lesionloss; print('scipy.spatial' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert out.strip() == "False"

    def test_identical(self):
        rng = np.random.default_rng(4)
        m = random_mask(rng)
        assert hausdorff(m, m) == 0.0

    def test_two_single_voxels(self):
        a = np.zeros((6, 4, 4), bool)
        b = np.zeros((6, 4, 4), bool)
        a[1, 2, 2] = True
        b[4, 2, 2] = True
        assert hausdorff(mask(a), mask(b)) == 3.0

    def test_empty_is_undefined(self):
        rng = np.random.default_rng(5)
        m = random_mask(rng)
        empty = mask(np.zeros((6, 6, 6), bool))
        with pytest.raises(UndefinedMetricError):
            hausdorff(m, empty)
        with pytest.raises(UndefinedMetricError):
            hausdorff(empty, m)

    def test_spacing_scales_distances(self):
        a = np.zeros((6, 4, 4), bool)
        b = np.zeros((6, 4, 4), bool)
        a[1, 2, 2] = True
        b[4, 2, 2] = True
        assert hausdorff(mask(a, (2.0, 1.0, 1.0)), mask(b, (2.0, 1.0, 1.0))) == 6.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 100:
            sp = tuple(rng.uniform(0.5, 2.0, 3))
            a = random_mask(rng, dims=(5, 5, 5), spacing=sp)
            b = random_mask(rng, dims=(5, 5, 5), spacing=sp)
            if not (a.data.any() and b.data.any()):
                continue
            got = hausdorff(a, b)
            ref = hausdorff_reference(a.data, b.data, sp)
            assert got == pytest.approx(ref, abs=1e-9)
            checked += 1

    @given(data=st.data(), dims=st.tuples(*[st.integers(1, 6)] * 3),
           percentile=st.sampled_from([100.0, 95.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_at_anisotropic_spacing(self, data, dims,
                                                        percentile):
        sp = (0.7, 1.1, 2.2)
        n = int(np.prod(dims))
        a, b = (np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                         bool).reshape(dims) for _ in range(2))
        assume(a.any() and b.any())
        got = hausdorff(mask(a, sp), mask(b, sp), percentile)
        ref = hausdorff_reference(a, b, sp, percentile)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(7)
        trials = 0
        while trials < 30:
            a = random_mask(rng)
            b = random_mask(rng)
            c = random_mask(rng)
            if not (a.data.any() and b.data.any() and c.data.any()):
                continue
            hab = hausdorff(a, b)
            assert hab == hausdorff(b, a)
            assert hausdorff(a, c) <= hab + hausdorff(b, c) + 1e-12
            trials += 1

    def test_percentile_variant_is_bounded_by_full(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = random_mask(rng)
            b = random_mask(rng)
            if not (a.data.any() and b.data.any()):
                continue
            assert hausdorff(a, b, percentile=95.0) <= hausdorff(a, b) + 1e-12


class TestAuc:
    def test_perfect_separation(self):
        o = outcomes_from([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc(o) == 1.0

    def test_worked_example(self):
        o = outcomes_from([0.9, 0.4, 0.5, 0.1], [1, 1, 0, 0])
        assert auc(o) == 0.75

    def test_all_ties(self):
        o = outcomes_from([0.5] * 6, [1, 1, 1, 0, 0, 0])
        assert auc(o) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc(outcomes_from([0.4, 0.6], [1, 1]))

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            scores = np.round(rng.random(n), 2)  # force some ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            got = auc(outcomes_from(scores, labels))
            assert got == auc_reference(list(scores), list(labels))

    @given(st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_monotone_transform(self, power):
        rng = np.random.default_rng(10)
        scores = rng.random(30)
        labels = rng.integers(0, 2, 30)
        if labels.min() == labels.max():
            return
        base = auc(outcomes_from(scores, labels))
        transformed = auc(outcomes_from(scores**power, labels))
        assert base == transformed


class TestKappa:
    def test_perfect_agreement(self):
        o = outcomes_from([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert kappa(o) == 1.0

    def test_worked_table(self):
        # TP=20, TN=40, FP=10, FN=4 -> (po - pe) / (1 - pe) = 1520/2556
        o = (
            outcomes_from([0.9] * 20, [1] * 20)
            + outcomes_from([0.1] * 40, [0] * 40)
            + outcomes_from([0.9] * 10, [0] * 10)
            + outcomes_from([0.1] * 4, [1] * 4)
        )
        assert kappa(o) == pytest.approx(0.5946791862284821, abs=1e-12)
        assert kappa(o) == float(Fraction(1520, 2556))

    def test_independent_predictions_near_zero(self):
        rng = np.random.default_rng(11)
        scores = rng.random(10000)
        labels = rng.integers(0, 2, 10000)
        assert abs(kappa(outcomes_from(scores, labels))) < 0.1

    def test_class_swap_invariance(self):
        rng = np.random.default_rng(12)
        scores = rng.random(40)
        labels = rng.integers(0, 2, 40)
        base = kappa(outcomes_from(scores, labels))
        # swap both the labels and the prediction direction; with the
        # inclusive >= threshold rule the mirrored threshold must exclude
        # equality, so nudge scores off the boundary first
        swapped = kappa(
            outcomes_from([1.0 - s if s != 0.5 else s for s in scores],
                          1 - labels)
        )
        assert base == pytest.approx(swapped, abs=1e-12)

    def test_degenerate_table_returns_zero(self):
        o = outcomes_from([0.9, 0.8], [1, 1])
        assert kappa(o) == 0.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, n)
            t = float(rng.random())
            got = kappa(outcomes_from(scores, labels), t)
            assert got == kappa_reference(list(scores), list(labels), t)

    def test_empty_undefined(self):
        with pytest.raises(UndefinedMetricError):
            kappa([])

    @pytest.mark.parametrize("t", [2.0, -1.0, float("nan"), float("inf")])
    def test_threshold_outside_unit_interval_rejected(self, t):
        with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\]"):
            kappa(outcomes_from([0.9, 0.1], [1, 0]), t)


class TestEmptyFallback:
    def test_forces_score_to_zero(self):
        seg = mask(np.zeros((3, 3, 3), bool))
        out = apply_empty_fallback(seg, CaseOutcome("c", 0.8, 1))
        assert out.score == 0.0 and out.empty_segmentation

    def test_nonempty_unchanged(self):
        data = np.zeros((3, 3, 3), bool)
        data[1, 1, 1] = True
        out = apply_empty_fallback(mask(data), CaseOutcome("c", 0.8, 1))
        assert out.score == 0.8 and not out.empty_segmentation

    def test_idempotent_on_zero_score(self):
        seg = mask(np.zeros((3, 3, 3), bool))
        out = apply_empty_fallback(seg, CaseOutcome("c", 0.0, 0))
        assert out.score == 0.0 and out.empty_segmentation

    def test_fallback_reflected_in_auc(self):
        # a confident wrong score on an empty segmentation gets zeroed,
        # which must change downstream ranking
        outs = [
            CaseOutcome("p1", 0.9, 1),
            CaseOutcome("n1", 0.95, 0),
            CaseOutcome("n2", 0.1, 0),
        ]
        before = auc(outs)
        assert before == 0.5
        seg = mask(np.zeros((3, 3, 3), bool))
        outs[1] = apply_empty_fallback(seg, outs[1])
        after = auc(outs)
        assert after == 1.0

    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            CaseOutcome("c", 1.2, 1)
        with pytest.raises(ValueError):
            CaseOutcome("c", 0.3, 2)
        with pytest.raises(ValueError):
            CaseOutcome("c", 0.3, 1, empty_segmentation=True)


class TestOutcomeCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        outs = outcomes_from(rng.random(10), rng.integers(0, 2, 10))
        outs[3] = apply_empty_fallback(
            mask(np.zeros((2, 2, 2), bool)), outs[3]
        )
        path = tmp_path / "cases.csv"
        write_outcomes(outs, path)
        back = read_outcomes(path)
        assert back == outs
        header = path.read_text().splitlines()[0]
        assert header == "case_id,score,label,empty_seg"

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,score\n1,0.5\n")
        with pytest.raises(ValueError, match="header"):
            read_outcomes(p)

    @pytest.mark.parametrize("flag", ["2", "-1", "true", "", " 1", "01"],
                             ids=["2", "-1", "true", "empty", "space-1", "01"])
    def test_empty_seg_must_be_zero_or_one(self, tmp_path, flag):
        p = tmp_path / "cases.csv"
        p.write_text(f"case_id,score,label,empty_seg\nc1,0.0,1,{flag}\n")
        with pytest.raises(ValueError, match="empty_seg must be 0 or 1"):
            read_outcomes(p)

    @pytest.mark.parametrize("label", ["2", "-1", "true", "", " 1", "1 ", "01",
                                       "1.0"])
    def test_label_must_be_zero_or_one(self, tmp_path, label):
        p = tmp_path / "cases.csv"
        p.write_text(f"case_id,score,label,empty_seg\nc1,0.5,{label},0\n")
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            read_outcomes(p)

    @pytest.mark.parametrize("row,message", [
        ("c3,abc,1,0", "score must be a number, got 'abc'"),
        ("c3,0.5,x,0", "label must be 0 or 1, got 'x'"),
        ("c3,1.5,1,0", "score must lie in"),
        ("c3,nan,0,0", "score must lie in"),
        ("c3,0.5,1", "malformed row"),
    ], ids=["score", "label", "range", "nan", "short"])
    def test_bad_row_names_the_file_and_the_row(self, tmp_path, row, message):
        # the header is row 1, so the third case sits on row 4
        p = tmp_path / "cases.csv"
        p.write_text("case_id,score,label,empty_seg\nc1,0.5,1,0\nc2,0.25,0,0\n"
                     + row + "\n")
        with pytest.raises(ValueError) as info:
            read_outcomes(p)
        assert str(info.value).startswith(f"{p}: row 4: ")
        assert message in str(info.value)

    def test_oversized_field_names_the_file(self, tmp_path):
        # the csv module refuses a field above its 131072-character limit
        p = tmp_path / "huge.csv"
        p.write_text("case_id,score,label,empty_seg\n"
                     + "c" * 131073 + ",0.5,1,0\n")
        with pytest.raises(ValueError, match="huge.csv"):
            read_outcomes(p)


class TestMetricReport:
    def test_text_block(self):
        r = MetricReport(dice=0.5, hausdorff_mm=3.25, auc=0.75, kappa=0.25)
        text = r.to_text()
        assert "dice=0.5" in text and "hausdorff_mm=3.25" in text

    def test_text_and_json_of_a_full_and_an_empty_report(self):
        r = MetricReport(dice=0.5, hausdorff_mm=3.25, auc=0.75, kappa=0.25)
        assert r.to_text() == ("dice=0.5\nhausdorff_mm=3.25\nauc=0.75\n"
                               "kappa=0.25\n")
        assert r.to_json() == ('{"auc": 0.75, "dice": 0.5, '
                               '"hausdorff_mm": 3.25, "kappa": 0.25}')
        assert MetricReport().to_text() == "\n"
        assert MetricReport().to_json() == "{}"

    def test_partial_report(self):
        r = MetricReport(auc=0.9)
        assert r.to_text() == "auc=0.9\n"
        assert r.to_json() == '{"auc": 0.9}'

    def test_range_validation(self):
        with pytest.raises(ValueError):
            MetricReport(dice=1.5)
        with pytest.raises(ValueError):
            MetricReport(hausdorff_mm=-1.0)
        with pytest.raises(ValueError):
            MetricReport(kappa=-2.0)
