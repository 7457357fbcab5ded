import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lesionloss.cli import main
from lesionloss.components import label_components
from lesionloss.loss import (
    CE_CLAMP_DEFAULT,
    LOSS_KINDS,
    CombinedParams,
    TverskyParams,
    combined_loss,
    confusion_terms,
    cross_entropy_loss,
    default_wlt_params,
    evaluate_loss,
    grad_check,
    tversky_loss,
    wlt_loss,
)
from lesionloss.trainer import TrainConfig
from lesionloss.volume import Mask, ShapeMismatchError, Volume, save_mask, save_volume
from lesionloss.weighting import WeightMap, build_weight_map

from oracles import loss_reference

# frozen scalar oracles, each recomputed by hand-evaluating the printed
# formulas before the implementation existed (see test bodies for the
# defining arithmetic)
TVERSKY_ORACLE = 4.0 / 9.0
WLT_ORACLE = -0.8941547118603604
CE_HALF_ORACLE = math.log(2.0)
CE_CLAMP_ORACLE = 16.11809565095832  # -ln(1e-7)


def vol(arr, spacing=(1.0, 1.0, 1.0)):
    return Volume.from_array(np.asarray(arr, np.float32), spacing)


def mask(arr, spacing=(1.0, 1.0, 1.0)):
    return Mask.from_array(np.asarray(arr), spacing)


def random_case(rng, dims=(6, 6, 6), fg=0.2, lo=0.05, hi=0.95):
    gt = mask(rng.random(dims) < fg)
    pred = vol(rng.uniform(lo, hi, dims))
    return gt, pred


def uniform_weight_map(shape, value=1.0):
    return WeightMap(shape, np.full(shape.dims, value, np.float64))


class TestConfusionTerms:
    def test_pointwise_definitions(self):
        gt = mask(np.array([1, 0, 1], np.uint8).reshape(3, 1, 1))
        pred = vol(np.array([1.0, 0.4, 0.25], np.float32).reshape(3, 1, 1))
        tp, fp, fn = confusion_terms(gt, pred)
        assert tp.data.ravel().tolist() == pytest.approx([1.0, 0.0, 0.25])
        assert fp.data.ravel().tolist() == pytest.approx([0.0, 0.4, 0.0])
        assert fn.data.ravel().tolist() == pytest.approx([0.0, 0.0, 0.75])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            confusion_terms(mask(np.zeros((2, 2, 2))), vol(np.zeros((2, 2, 3))))


class TestTversky:
    def test_perfect_prediction_is_zero(self):
        rng = np.random.default_rng(1)
        gt = mask(rng.random((5, 5, 5)) < 0.3)
        assert tversky_loss(gt, vol(gt.data.astype(np.float32))).value == 0.0

    def test_worked_example(self):
        # 8 foreground voxels, prediction hits exactly 4 and nothing else:
        # 1 - (1 + 4) / (1 + 4 + 0.3*0 + 1*4) = 4/9
        data = np.zeros((4, 4, 4), np.uint8)
        data.flat[:8] = 1
        pred = np.zeros((4, 4, 4), np.float32)
        pred.flat[:4] = 1.0
        r = tversky_loss(mask(data), vol(pred))
        assert r.value == pytest.approx(TVERSKY_ORACLE, abs=1e-12)

    def test_both_empty(self):
        z = np.zeros((3, 3, 3))
        assert tversky_loss(mask(z), vol(z)).value == 0.0

    def test_batch_is_global_ratio_not_mean(self):
        rng = np.random.default_rng(2)
        g1, p1 = random_case(rng)
        g2, p2 = random_case(rng)
        batch = tversky_loss([g1, g2], [p1, p2]).value
        per_case = 0.5 * (tversky_loss(g1, p1).value + tversky_loss(g2, p2).value)
        params = TverskyParams()
        gs = [g.data.astype(np.float64) for g in (g1, g2)]
        ps = [p.data.astype(np.float64) for p in (p1, p2)]
        tp = sum(float((g * p).sum()) for g, p in zip(gs, ps))
        fp = sum(float(((1 - g) * p).sum()) for g, p in zip(gs, ps))
        fn = sum(float((g * (1 - p)).sum()) for g, p in zip(gs, ps))
        expected = 1.0 - (params.smooth + tp) / (
            params.smooth + tp + params.alpha * fp + params.beta * fn
        )
        assert batch == pytest.approx(expected, rel=1e-9)
        assert batch != pytest.approx(per_case, rel=1e-6)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TverskyParams(alpha=-0.1)
        with pytest.raises(ValueError):
            TverskyParams(alpha=0.0, beta=0.0)
        with pytest.raises(ValueError):
            TverskyParams(smooth=0.0)


class TestCrossEntropy:
    def test_uniform_half(self):
        rng = np.random.default_rng(3)
        gt = mask(rng.random((4, 4, 4)) < 0.5)
        pred = vol(np.full((4, 4, 4), 0.5, np.float32))
        assert cross_entropy_loss(gt, pred).value == pytest.approx(
            CE_HALF_ORACLE, abs=1e-7
        )

    def test_perfect_prediction_hits_clamp_floor(self):
        rng = np.random.default_rng(4)
        gt = mask(rng.random((4, 4, 4)) < 0.5)
        pred = vol(gt.data.astype(np.float32))
        assert cross_entropy_loss(gt, pred).value <= 1e-6

    def test_inverted_prediction_clamped(self):
        rng = np.random.default_rng(5)
        gt = mask(rng.random((4, 4, 4)) < 0.5)
        pred = vol(1.0 - gt.data.astype(np.float32))
        assert cross_entropy_loss(gt, pred).value == pytest.approx(
            CE_CLAMP_ORACLE, rel=1e-6
        )


class TestWlt:
    def worked_case(self):
        # one 4-voxel lesion; prediction covers 2 of it at 1.0 plus one
        # background voxel at 1.0
        gt = np.zeros((6, 6, 6), np.uint8)
        gt[1:3, 1:3, 1] = 1
        pred = np.zeros((6, 6, 6), np.float32)
        pred[1, 1, 1] = 1.0
        pred[2, 1, 1] = 1.0
        pred[5, 5, 5] = 1.0
        return mask(gt), vol(pred)

    def test_worked_example(self):
        # omega(4) = 9.714913944588492; eps = 1e-6
        # -(eps + 2*w) / (eps + 2 + 0.3*1 + 1*2*w) = -0.8941547118603604
        gt, pred = self.worked_case()
        wm = build_weight_map(label_components(gt))
        r = wlt_loss(gt, pred, wm)
        assert r.value == pytest.approx(WLT_ORACLE, abs=1e-12)
        # and within the coarser published rounding
        assert r.value == pytest.approx(-0.89416, abs=1e-5)

    def test_unit_weights_perfect_prediction(self):
        rng = np.random.default_rng(6)
        gt = mask(rng.random((5, 5, 5)) < 0.3)
        pred = vol(gt.data.astype(np.float32))
        wm = uniform_weight_map(gt.shape)
        assert wlt_loss(gt, pred, wm).value == pytest.approx(-1.0, abs=1e-5)

    def test_both_empty_scores_minus_one(self):
        z = np.zeros((3, 3, 3))
        gt, pred = mask(z), vol(z)
        wm = uniform_weight_map(gt.shape)
        assert wlt_loss(gt, pred, wm).value == -1.0

    def test_equivalent_to_negative_tversky_index_with_unit_weights(self):
        rng = np.random.default_rng(7)
        eps = 1e-6
        for _ in range(50):
            gt, pred = random_case(rng, lo=0.0, hi=1.0)
            wm = uniform_weight_map(gt.shape)
            wlt = wlt_loss(gt, pred, wm).value
            tv = tversky_loss(gt, pred, TverskyParams(smooth=eps)).value
            index = 1.0 - tv
            assert wlt == pytest.approx(-index, abs=1e-9)

    def test_background_weights_never_matter(self):
        rng = np.random.default_rng(8)
        gt, pred = random_case(rng)
        lab = label_components(gt)
        wm = build_weight_map(lab)
        perturbed = wm.weights.copy()
        perturbed[lab.labels == 0] = rng.uniform(0.5, 50.0, (lab.labels == 0).sum())
        wm2 = WeightMap(gt.shape, perturbed)
        a = wlt_loss(gt, pred, wm, want_grad=True)
        b = wlt_loss(gt, pred, wm2, want_grad=True)
        assert abs(a.value - b.value) <= 1e-12
        assert np.array_equal(a.gradient.data, b.gradient.data)

    def test_monotone_improving_in_tp(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            gt, pred = random_case(rng, lo=0.1, hi=0.8)
            if not gt.data.any():
                continue
            wm = build_weight_map(label_components(gt))
            base = wlt_loss(gt, pred, wm).value
            fg = np.argwhere(gt.data)
            pick = fg[rng.integers(len(fg))]
            bumped = pred.data.copy()
            bumped[tuple(pick)] += 0.1
            assert wlt_loss(gt, vol(bumped), wm).value <= base + 1e-15

    def test_denominator_tp_weighting_flag(self):
        gt, pred = self.worked_case()
        wm = build_weight_map(label_components(gt))
        w4 = 9.714913944588492
        eps = 1e-6
        expected = -(eps + 2 * w4) / (eps + 2 * w4 + 0.3 * 1 + 2 * w4)
        r = wlt_loss(gt, pred, wm, weight_tp_denominator=True)
        assert r.value == pytest.approx(expected, abs=1e-12)

    def test_omega_shape_mismatch(self):
        gt, pred = self.worked_case()
        wm = uniform_weight_map(Volume.from_array(np.zeros((3, 3, 3), np.float32)).shape)
        with pytest.raises(ShapeMismatchError):
            wlt_loss(gt, pred, wm)


class TestCombined:
    def test_endpoints(self):
        rng = np.random.default_rng(10)
        gt, pred = random_case(rng)
        ce = cross_entropy_loss(gt, pred).value
        wm = build_weight_map(label_components(gt))
        wlt = wlt_loss(gt, pred, wm).value
        assert combined_loss(gt, pred, CombinedParams(ce_weight=1.0)).value == ce
        assert combined_loss(gt, pred, CombinedParams(ce_weight=0.0)).value == wlt

    def test_half_mix_on_worked_example(self):
        gt, pred = TestWlt().worked_case()
        ce = cross_entropy_loss(gt, pred).value
        expected = 0.5 * ce + 0.5 * WLT_ORACLE
        got = combined_loss(gt, pred, CombinedParams(ce_weight=0.5)).value
        assert got == pytest.approx(expected, abs=1e-12)

    def test_affine_in_mixing_weight(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            gt, pred = random_case(rng)
            lams = sorted(rng.uniform(0.0, 1.0, 3))
            vals = [
                combined_loss(gt, pred, CombinedParams(ce_weight=l)).value
                for l in lams
            ]
            if lams[2] == lams[0]:
                continue
            t = (lams[1] - lams[0]) / (lams[2] - lams[0])
            interp = (1.0 - t) * vals[0] + t * vals[2]
            assert vals[1] == pytest.approx(interp, abs=1e-12)

    def test_gradient_is_affine_combination(self):
        rng = np.random.default_rng(12)
        gt, pred = random_case(rng)
        lam = 0.3
        combo = combined_loss(gt, pred, CombinedParams(ce_weight=lam), want_grad=True)
        ce = cross_entropy_loss(gt, pred, want_grad=True)
        wm = build_weight_map(label_components(gt))
        wlt = wlt_loss(gt, pred, wm, want_grad=True)
        expected = lam * ce.gradient.data.astype(np.float64) + (
            1 - lam
        ) * wlt.gradient.data.astype(np.float64)
        np.testing.assert_allclose(combo.gradient.data, expected, atol=1e-7)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            CombinedParams(ce_weight=1.5)


class TestGradients:
    @pytest.mark.parametrize("kind", ["tversky", "ce", "wlt", "combined"])
    def test_analytic_matches_central_differences(self, kind):
        rng = np.random.default_rng(13)
        for _ in range(5):
            gt, pred = random_case(rng)
            assert grad_check(kind, gt, pred) < 1e-4

    def test_wlt_with_two_lesions(self):
        data = np.zeros((6, 6, 6), np.uint8)
        data[0:2, 0:2, 0:2] = 1
        data[4:6, 4:6, 4:6] = 1
        rng = np.random.default_rng(14)
        pred = vol(rng.uniform(0.05, 0.95, (6, 6, 6)))
        assert grad_check("wlt", mask(data), pred) < 1e-4

    def test_constant_region_zero_gradient(self):
        # empty gt and alpha=0: loss ignores the prediction entirely
        gt = mask(np.zeros((4, 4, 4)))
        rng = np.random.default_rng(15)
        pred = vol(rng.uniform(0.2, 0.8, (4, 4, 4)))
        params = TverskyParams(alpha=0.0, beta=1.0)
        r = tversky_loss(gt, pred, params, want_grad=True)
        assert (r.gradient.data == 0.0).all()
        assert grad_check("tversky", gt, pred, tversky=params) < 1e-4

    def test_degenerate_step_rejected(self):
        rng = np.random.default_rng(16)
        gt, pred = random_case(rng)
        with pytest.raises(ValueError, match="degenerate step"):
            grad_check("tversky", gt, pred, step=0.0)

    @pytest.mark.parametrize("max_voxels", [0, -1])
    def test_sample_must_hold_a_voxel(self, max_voxels):
        rng = np.random.default_rng(18)
        gt, pred = random_case(rng)
        # a wrong step would fail the check; an empty sample must not pass it
        with pytest.raises(ValueError, match="max_voxels must be >= 1"):
            grad_check("ce", gt, pred, step=0.4, max_voxels=max_voxels)

    def test_voxel_sampling_is_deterministic(self):
        rng = np.random.default_rng(17)
        gt, pred = random_case(rng, dims=(8, 8, 8))
        a = grad_check("tversky", gt, pred, max_voxels=20, seed=5)
        b = grad_check("tversky", gt, pred, max_voxels=20, seed=5)
        assert a == b


class TestStructuralInvariances:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(18)
        gt, pred = random_case(rng)
        lab = label_components(gt)
        wm = build_weight_map(lab)
        perm = rng.permutation(gt.shape.voxel_count)

        def permute_grid(grid):
            flat = grid.ravel(order="F")[perm]
            return flat.reshape(gt.shape.dims, order="F")

        gt2 = mask(permute_grid(gt.data))
        pred2 = vol(permute_grid(pred.data))
        wm2 = WeightMap(gt.shape, permute_grid(wm.weights))
        for fn in (
            lambda g, p: tversky_loss(g, p).value,
            lambda g, p: cross_entropy_loss(g, p).value,
        ):
            assert fn(gt2, pred2) == pytest.approx(fn(gt, pred), rel=1e-12)
        assert wlt_loss(gt2, pred2, wm2).value == pytest.approx(
            wlt_loss(gt, pred, wm).value, rel=1e-12
        )

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_batch_case_order_is_exact(self, kind):
        rng = np.random.default_rng(21)
        cases = [random_case(rng, dims=d) for d in ((6, 6, 6), (4, 5, 6), (7, 3, 5))]
        gts = [g for g, _ in cases]
        preds = [p for _, p in cases]
        fwd = evaluate_loss(kind, gts, preds, want_grad=True)
        rev = evaluate_loss(kind, gts[::-1], preds[::-1], want_grad=True)
        assert fwd.value == rev.value
        for a, b in zip(fwd.gradient, rev.gradient[::-1]):
            assert np.array_equal(a.data, b.data)

    def test_batch_gradient_structure(self):
        rng = np.random.default_rng(19)
        g1, p1 = random_case(rng)
        g2, p2 = random_case(rng, dims=(4, 5, 6))
        r = tversky_loss([g1, g2], [p1, p2], want_grad=True)
        assert isinstance(r.gradient, list) and len(r.gradient) == 2
        assert r.gradient[0].shape == p1.shape
        assert r.gradient[1].shape == p2.shape

    def test_evaluate_loss_dispatch(self):
        rng = np.random.default_rng(20)
        gt, pred = random_case(rng)
        assert evaluate_loss("tversky", gt, pred).value == tversky_loss(gt, pred).value
        assert evaluate_loss("ce", gt, pred).value == cross_entropy_loss(gt, pred).value
        wm = build_weight_map(label_components(gt))
        assert evaluate_loss("wlt", gt, pred).value == wlt_loss(gt, pred, wm).value
        assert (
            evaluate_loss("combined", gt, pred).value
            == combined_loss(gt, pred).value
        )
        with pytest.raises(ValueError, match="unknown loss kind"):
            evaluate_loss("dice", gt, pred)

    def test_shape_mismatch_rejected(self):
        g = mask(np.zeros((2, 2, 2)))
        p = vol(np.zeros((2, 2, 3)))
        for fn in (tversky_loss, cross_entropy_loss):
            with pytest.raises(ShapeMismatchError):
                fn(g, p)

    def test_non_probability_pred_rejected(self):
        g = mask(np.zeros((2, 2, 2)))
        p = vol(np.full((2, 2, 2), 1.5, np.float32))
        with pytest.raises(ValueError):
            tversky_loss(g, p)

    def test_default_wlt_smoothing(self):
        assert default_wlt_params().smooth == 1e-6
        assert TverskyParams().smooth == 1.0

    @pytest.mark.parametrize("kind", ["wlt", "combined"])
    @pytest.mark.parametrize("weight_tp_denominator", [False, True])
    def test_background_weights_change_no_bit(self, kind, weight_tp_denominator):
        rng = np.random.default_rng(23)
        cases = [random_case(rng, dims=d) for d in ((6, 6, 6), (4, 5, 6))]
        gts = [g for g, _ in cases]
        preds = [p for _, p in cases]
        maps = [build_weight_map(label_components(g)) for g in gts]
        noisy = [WeightMap(g.shape, np.where(g.data, w.weights,
                                             rng.uniform(1e-3, 1e3, g.shape.dims)))
                 for g, w in zip(gts, maps)]
        a, b = (evaluate_loss(kind, gts, preds, omega=om, want_grad=True,
                              weight_tp_denominator=weight_tp_denominator)
                for om in (maps, noisy))
        assert a.value == b.value
        for ga, gb in zip(a.gradient, b.gradient):
            assert ga.data.tobytes() == gb.data.tobytes()


# predictions at 0 (both signs), 1, one half, the default clamp and its
# complement, and 2**-20, a clamp that float32 holds exactly
_EDGE_PREDS = np.array([0.0, -0.0, 1.0, 0.5, CE_CLAMP_DEFAULT, 1.0 - CE_CLAMP_DEFAULT,
                        2.0 ** -20, 1.0 - 2.0 ** -20], np.float32)


@st.composite
def _batches(draw, runs=False):
    """1-3 cases of random dims; truth random, empty or full; predictions
    uniform, on the edge values, or a mix of both.  With runs, 2-6 cases
    whose dims repeat from a pool of one or two, so runs of equal-size
    cases go through the reductions together."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gts, preds = [], []
    pool = [tuple(draw(st.integers(1, 5)) for _ in range(3))
            for _ in range(draw(st.integers(1, 2)))] if runs else None
    for _ in range(draw(st.integers(2, 6) if runs else st.integers(1, 3))):
        dims = (draw(st.sampled_from(pool)) if runs
                else tuple(draw(st.integers(1, 5)) for _ in range(3)))
        truth = draw(st.sampled_from(["random", "empty", "full"]))
        fg = {"random": rng.random(dims) < draw(st.floats(0.0, 1.0)),
              "empty": np.zeros(dims, bool),
              "full": np.ones(dims, bool)}[truth]
        uniform = rng.uniform(0.0, 1.0, dims).astype(np.float32)
        edge = rng.choice(_EDGE_PREDS, dims)
        q = {"uniform": uniform, "edge": edge,
             "mixed": np.where(rng.random(dims) < 0.5, uniform, edge)}[
            draw(st.sampled_from(["uniform", "edge", "mixed"]))]
        gts.append(mask(fg))
        preds.append(vol(q))
    return gts, preds


class TestFloatProductOracle:
    """The engine's selections against the float-product cores of
    oracles.loss_reference, byte for byte."""

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @given(batch=_batches(),
           alpha=st.floats(0.0, 2.0), beta=st.floats(0.0, 2.0),
           smooth=st.sampled_from([1e-6, 0.5, 1.0]),
           ce_weight=st.floats(0.0, 1.0),
           clamp=st.sampled_from([CE_CLAMP_DEFAULT, 2.0 ** -20, 0.01, 0.2]),
           weight_tp_denominator=st.booleans(),
           omega=st.sampled_from(["built", "explicit"]),
           single=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_value_and_gradient_bytes(self, kind, batch, alpha, beta, smooth,
                                      ce_weight, clamp, weight_tp_denominator,
                                      omega, single):
        assume(alpha + beta > 0.0)
        gts, preds = batch
        if single:
            gts, preds = gts[:1], preds[:1]
        rng = np.random.default_rng(len(gts))
        maps = [build_weight_map(label_components(g)) if omega == "built"
                else WeightMap(g.shape, rng.uniform(0.1, 30.0, g.shape.dims))
                for g in gts]

        def arg(xs):  # a single case goes in unwrapped
            return xs[0] if single and xs is not None else xs

        got = evaluate_loss(
            kind, arg(gts), arg(preds), tversky=TverskyParams(alpha, beta, smooth),
            ce_weight=ce_weight, clamp=clamp,
            weight_tp_denominator=weight_tp_denominator,
            omega=arg(None if omega == "built" else maps), want_grad=True)

        def flat(x):
            return x.ravel(order="F").astype(np.float64)

        value, grads = loss_reference(
            kind, [flat(g.data) for g in gts], [flat(p.data) for p in preds],
            [w.weights.ravel(order="F") for w in maps], alpha=alpha, beta=beta,
            smooth=smooth, ce_weight=ce_weight, clamp=clamp,
            weight_tp_denominator=weight_tp_denominator)
        assert float(value).hex() == got.value.hex()
        vols = [got.gradient] if single else got.gradient
        for v, g in zip(vols, grads):
            want = g.reshape(v.shape.dims, order="F").astype(np.float32)
            assert v.data.tobytes() == want.tobytes()


    @pytest.mark.parametrize("kind", LOSS_KINDS)
    @given(batch=_batches(runs=True), weight_tp_denominator=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_equal_size_runs_bytes(self, kind, batch, weight_tp_denominator):
        gts, preds = batch
        params = TverskyParams(0.3, 1.0, 1e-6)
        got = evaluate_loss(kind, gts, preds, tversky=params, want_grad=True,
                            weight_tp_denominator=weight_tp_denominator)
        value, grads = loss_reference(
            kind, [g.data.ravel(order="F").astype(np.float64) for g in gts],
            [p.data.ravel(order="F").astype(np.float64) for p in preds],
            [build_weight_map(label_components(g)).weights.ravel(order="F")
             for g in gts],
            alpha=0.3, beta=1.0, smooth=1e-6, ce_weight=0.5,
            clamp=CE_CLAMP_DEFAULT, weight_tp_denominator=weight_tp_denominator)
        assert float(value).hex() == got.value.hex()
        for v, g in zip(got.gradient, grads):
            want = g.reshape(v.shape.dims, order="F").astype(np.float32)
            assert v.data.tobytes() == want.tobytes()


_CASE = random_case(np.random.default_rng(22), dims=(4, 4, 4))


def _lib_entry(call):
    def check(tmp_path, capsys, key, value):
        with pytest.raises(ValueError, match="must lie in"):
            call(**{key: value})
    return check


def _cli_entry(*argv):
    def check(tmp_path, capsys, key, value):
        files = []
        if argv[0] != "train":
            save_mask(_CASE[0], tmp_path / "gt")
            save_volume(_CASE[1], tmp_path / "pred")
            files = ["--gt", str(tmp_path / "gt.vhdr"),
                     "--pred", str(tmp_path / "pred.vhdr")]
        code = main([*argv, *files, "--" + key.replace("_", "-"), str(value)])
        assert code == 2
        assert "must lie in" in capsys.readouterr().err
    return check


ENTRY_POINTS = {
    "evaluate_loss": _lib_entry(lambda **kw: evaluate_loss("combined", *_CASE, **kw)),
    "grad_check": _lib_entry(lambda **kw: grad_check("ce", *_CASE, **kw)),
    "TrainConfig": _lib_entry(lambda **kw: TrainConfig(loss_kind="tversky+ce", **kw)),
    "cli-loss": _cli_entry("loss", "--kind", "combined"),
    "cli-gradcheck": _cli_entry("gradcheck", "--kind", "ce"),
    "cli-train": _cli_entry("train", "--loss", "tversky+ce", "--epochs", "1",
                            "--train-count", "2", "--dims", "12 12 12"),
}


@pytest.mark.parametrize("key,value", [("clamp", 0.7), ("clamp", 0.0),
                                       ("ce_weight", 1.5), ("ce_weight", -0.5)])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_clamp_and_ce_weight_rejected_at_every_entry_point(entry, key, value,
                                                           tmp_path, capsys):
    ENTRY_POINTS[entry](tmp_path, capsys, key, value)
