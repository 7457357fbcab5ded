import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lesionloss import reduction
from lesionloss.cli import main
from lesionloss.components import Connectivity, label_components
from lesionloss.loss import (
    CE_CLAMP_DEFAULT,
    LOSS_KINDS,
    TRAIN_LOSS_KINDS,
    CombinedParams,
    TverskyParams,
    combined_loss,
    cross_entropy_loss,
    default_wlt_params,
    evaluate_loss,
    _case_sums,
    _gradient,
    _gradient_at,
    _objective_core,
    _perturbed_values,
    _sample,
    _TERMS,
    _prepare,
    _totals,
    _truth,
    grad_check,
    objective,
    tversky_loss,
    wlt_loss,
)
from lesionloss.trainer import TrainConfig
from lesionloss.volume import Mask, ShapeMismatchError, Volume, save_mask, save_volume
from lesionloss.weighting import WeightCurveParams, WeightMap, build_weight_map

from oracles import grad_check_reference, loss_reference

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
        with pytest.raises(ValueError, match="beta must be >= 0"):
            TverskyParams(beta=-1.0)
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
        with pytest.raises(ValueError, match="step must be positive and finite"):
            grad_check("tversky", gt, pred, step=0.0)

    @pytest.mark.parametrize("max_voxels", [0, -1])
    def test_sample_must_hold_a_voxel(self, max_voxels):
        rng = np.random.default_rng(18)
        gt, pred = random_case(rng)
        # a wrong step would fail the check; an empty sample must not pass it
        with pytest.raises(ValueError, match="max_voxels must be >= 1"):
            grad_check("ce", gt, pred, step=0.4, max_voxels=max_voxels)

    def test_sample_seed_must_not_be_negative(self):
        # rejected before any work: the grids do not even match
        gt = mask(np.ones((3, 3, 3)))
        pred = vol(np.full((4, 4, 4), 0.5))
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            grad_check("ce", gt, pred, max_voxels=4, seed=-1)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_overflowing_lesion_sums_are_rejected(self, kind):
        # lesion weights near the float maximum overflow the weighted sums
        # (within one case at 1e308, across three cases at 5e306): the NaN
        # value must raise, not read as a max error of 0.  tversky and ce
        # never read the curve.
        data = np.zeros((6, 6, 6), np.uint8)
        data[1:4, 1:4, 1:4] = 1
        gt, pred = mask(data), vol(0.1 + 0.7 * data)
        for w_max, n in ((1e308, 1), (5e306, 3)):
            curve = WeightCurveParams(w_max=w_max)
            if kind in ("wlt", "combined"):
                with pytest.raises(ValueError, match="loss value is non-finite"):
                    grad_check(kind, [gt] * n, [pred] * n, curve=curve,
                               max_voxels=3)
                with pytest.raises(ValueError, match="loss value is non-finite"):
                    evaluate_loss(kind, [gt] * n, [pred] * n, curve=curve)
            else:
                assert grad_check(kind, [gt] * n, [pred] * n, curve=curve,
                                  max_voxels=3) < 1e-4

    def test_background_gradient_is_positive_zero_at_alpha_negative_zero(self):
        # a background voxel's d den is alpha; num * -0.0 would sign its
        # zero gradient, which the CLI's gradient file and train's chain
        # rule would carry
        rng = np.random.default_rng(23)
        gt, pred = random_case(rng, dims=(4, 4, 4), fg=0.3)
        rep = tversky_loss(gt, pred, TverskyParams(alpha=-0.0), want_grad=True)
        background = rep.gradient.data[~gt.data]
        assert background.size and (background == 0.0).all()
        assert not np.signbit(background).any()

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

    @pytest.mark.parametrize("call", [evaluate_loss, grad_check])
    @pytest.mark.parametrize("kind, option", [
        ("tversky+ce", {"kinds": TRAIN_LOSS_KINDS}),
        ("tversky", {"gamma": 0.5}),
    ], ids=["kinds", "unknown"])
    def test_options_are_objectives_keywords_only(self, call, kind, option):
        """The options go to objective() with the loss API's kinds fixed:
        neither a kinds override nor an unknown keyword gets through."""
        gt, pred = random_case(np.random.default_rng(21), dims=(3, 3, 3))
        with pytest.raises(TypeError):
            call(kind, gt, pred, **option)

    def test_defaults_restated_outside_objective_are_its_own(self):
        """CombinedParams and TrainConfig restate loss defaults; each copy
        is objective()'s default (a curve of None there is the default
        WeightCurveParams) or its table row's Tversky parameters."""
        declared = {name: p.default for name, p in
                    inspect.signature(objective).parameters.items()}
        assert declared["curve"] is None
        combined, config = CombinedParams(), TrainConfig()
        copies = [(combined.ce_weight, declared["ce_weight"]),
                  (combined.tversky, _TERMS["combined"][2]),
                  (combined.curve, WeightCurveParams()),
                  (config.ce_weight, declared["ce_weight"]),
                  (config.curve, WeightCurveParams()),
                  (config.clamp, declared["clamp"]),
                  (config.connectivity, declared["connectivity"])]
        for mine, theirs in copies:
            assert (type(mine), mine) == (type(theirs), theirs)

    def test_shape_mismatch_rejected(self):
        g = mask(np.zeros((2, 2, 2)))
        p = vol(np.zeros((2, 2, 3)))
        for fn in (tversky_loss, cross_entropy_loss):
            with pytest.raises(ShapeMismatchError):
                fn(g, p)
        q = vol(np.zeros((2, 2, 2)))
        with pytest.raises(ShapeMismatchError, match="batch lengths differ"):
            tversky_loss([g, g], [q])

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_batch_must_be_nonempty_and_of_one_type(self, kind):
        g = mask(np.zeros((2, 2, 2)))
        q = vol(np.zeros((2, 2, 2)))
        for gts, preds in (([], []), ([g, q], [q, q]), ([g], [q, g])):
            with pytest.raises(TypeError, match="nonempty sequence"):
                evaluate_loss(kind, gts, preds)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_omega_checked_for_every_kind(self, kind):
        rng = np.random.default_rng(24)
        gt, pred = random_case(rng, dims=(4, 4, 4))
        with pytest.raises(ShapeMismatchError):
            evaluate_loss(kind, gt, pred, omega=uniform_weight_map(
                mask(np.zeros((9, 9, 9))).shape))
        fits = uniform_weight_map(gt.shape)
        with pytest.raises(ShapeMismatchError, match="batch lengths"):
            evaluate_loss(kind, [gt], [pred], omega=[fits, fits])

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
def _batches(draw, runs=False, pool_dims=None):
    """1-3 cases of random dims; truth random, empty or full; predictions
    uniform, on the edge values, a mix of both, or all +0.0 or all -0.0
    (so a case sum can be a zero of either sign).  With runs, 2-6 cases
    whose dims repeat from a pool of one or two, so runs of equal-size
    cases go through the reductions together; the pool's dims are drawn
    from pool_dims when given."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gts, preds = [], []
    if pool_dims is None:
        pool_dims = st.tuples(*[st.integers(1, 5)] * 3)
    pool = ([draw(pool_dims) for _ in range(draw(st.integers(1, 2)))]
            if runs else None)
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
             "mixed": np.where(rng.random(dims) < 0.5, uniform, edge),
             "zero": np.full(dims, rng.choice([0.0, -0.0]), np.float32)}[
            draw(st.sampled_from(["uniform", "edge", "mixed", "zero"]))]
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


class TestUnitWeights:
    """Plain Tversky is WLT's unit-weight case, and unit weights leave the
    weighted-TP-denominator switch nothing to change, byte for byte."""

    @given(batch=_batches(), alpha=st.floats(0.0, 2.0),
           beta=st.floats(0.0, 2.0), smooth=st.sampled_from([1e-6, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_tversky_is_one_plus_unit_weight_wlt(self, batch, alpha, beta,
                                                 smooth):
        assume(alpha + beta > 0.0)
        gts, preds = batch
        params = TverskyParams(alpha, beta, smooth)
        ones = [uniform_weight_map(g.shape) for g in gts]
        tv = evaluate_loss("tversky", gts, preds, tversky=params,
                           want_grad=True)
        wlt = evaluate_loss("wlt", gts, preds, tversky=params, omega=ones,
                            want_grad=True)
        assert tv.value.hex() == (1.0 + wlt.value).hex()
        for a, b in zip(tv.gradient, wlt.gradient):
            assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("kind", ["wlt", "combined"])
    @given(batch=_batches(), alpha=st.floats(0.0, 2.0),
           beta=st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_unit_omega_makes_tp_denominator_switch_inert(self, kind, batch,
                                                          alpha, beta):
        assume(alpha + beta > 0.0)
        gts, preds = batch
        ones = [uniform_weight_map(g.shape) for g in gts]
        off, on = (evaluate_loss(kind, gts, preds, omega=ones, want_grad=True,
                                 tversky=TverskyParams(alpha, beta, 1e-6),
                                 weight_tp_denominator=switch)
                   for switch in (False, True))
        assert off.value.hex() == on.value.hex()
        for a, b in zip(off.gradient, on.gradient):
            assert a.data.tobytes() == b.data.tobytes()


class TestTpDenominatorDirection:
    """The switch puts TP.W in the denominator in place of TP.  Every term
    q * w >= q when w >= 1 (rounding keeps the order), and the sums, the
    ratio and the value are monotone in them, so with every lesion weight
    >= 1 (the default curve's w_min = 1) switching on never lowers a wlt or
    combined value, and with every weight <= 1 it never raises it."""

    @pytest.mark.parametrize("kind", ["wlt", "combined"])
    @given(batch=_batches(), weights=st.sampled_from(["curve", "heavy", "light"]),
           alpha=st.floats(0.0, 2.0), beta=st.floats(0.0, 2.0),
           smooth=st.sampled_from([1e-6, 0.5, 1.0]),
           ce_weight=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_direction_follows_the_weights(self, kind, batch, weights, alpha,
                                           beta, smooth, ce_weight):
        assume(alpha + beta > 0.0)
        gts, preds = batch
        omega = None
        if weights != "curve":
            rng = np.random.default_rng(len(gts))
            lo, hi = (1.0, 30.0) if weights == "heavy" else (0.05, 1.0)
            omega = [WeightMap(g.shape, rng.uniform(lo, hi, g.shape.dims))
                     for g in gts]
        off, on = (evaluate_loss(kind, gts, preds, omega=omega,
                                 tversky=TverskyParams(alpha, beta, smooth),
                                 ce_weight=ce_weight,
                                 weight_tp_denominator=switch).value
                   for switch in (False, True))
        if weights == "light":
            assert on <= off
        else:
            assert on >= off


@st.composite
def _weighted_batches(draw):
    """2-4 cases of sides 1-6, each with at least one lesion voxel, float32
    predictions inside (0, 1), and weight maps of non-unit lesion weights:
    from the truth's labeling ("built", omega=None) or drawn at random
    ("given")."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gts, preds, given_maps = [], [], []
    for _ in range(draw(st.integers(2, 4))):
        dims = draw(st.tuples(*[st.integers(1, 6)] * 3))
        fg = rng.random(dims) < draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
        fg[tuple(rng.integers(0, dims))] = True
        gts.append(mask(fg))
        preds.append(vol(rng.uniform(0.02, 0.98, dims)))
        given_maps.append(WeightMap(gts[-1].shape, rng.uniform(0.5, 9.0, dims)))
    return gts, preds, (given_maps if draw(st.booleans()) else None)


class TestBatchIsGlobalRatio:
    """With non-unit lesion weights, a wlt or combined batch is one ratio of
    the batch's summed sums (and one CE mean over all its voxels), not the
    mean of the per-case values."""

    @staticmethod
    def expected(kind, gts, preds, maps, wtd):
        tv = default_wlt_params()
        p = [g.data.ravel().astype(np.float64) for g in gts]
        q = [v.data.ravel().astype(np.float64) for v in preds]
        w = [m.weights.ravel() for m in maps]

        def total(terms):
            return math.fsum(math.fsum(t.tolist()) for t in terms)

        tp_w = total(a * b * c for a, b, c in zip(p, q, w))
        tp = total(a * b for a, b in zip(p, q))
        fp = total((1 - a) * b for a, b in zip(p, q))
        fn_w = total(a * (1 - b) * c for a, b, c in zip(p, q, w))
        wlt = -(tv.smooth + tp_w) / (tv.smooth + (tp_w if wtd else tp)
                                      + tv.alpha * fp + tv.beta * fn_w)
        if kind == "wlt":
            return wlt
        lo, hi = CE_CLAMP_DEFAULT, 1 - CE_CLAMP_DEFAULT
        ce = total(-np.log(np.clip(np.where(a == 1, b, 1 - b), lo, hi))
                   for a, b in zip(p, q)) / sum(a.size for a in p)
        return 0.5 * ce + 0.5 * wlt

    @given(batch=_weighted_batches(), kind=st.sampled_from(["wlt", "combined"]),
           wtd=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_value_is_the_ratio_of_summed_sums(self, batch, kind, wtd):
        gts, preds, omega = batch
        maps = omega or [build_weight_map(label_components(g)) for g in gts]
        global_ratio = self.expected(kind, gts, preds, maps, wtd)
        case_mean = math.fsum(self.expected(kind, [g], [v], [m], wtd)
                              for g, v, m in zip(gts, preds, maps)) / len(gts)
        assume(not math.isclose(global_ratio, case_mean, rel_tol=1e-6))
        value = evaluate_loss(kind, gts, preds, omega=omega,
                              weight_tp_denominator=wtd).value
        assert value == pytest.approx(global_ratio, rel=1e-12, abs=1e-15)
        per_case = [evaluate_loss(kind, g, v, omega=None if omega is None else m,
                                  weight_tp_denominator=wtd).value
                    for g, v, m in zip(gts, preds, maps)]
        assert not math.isclose(value, math.fsum(per_case) / len(gts),
                                rel_tol=1e-7)


# cases of one voxel among small ones, for the lesion-voxel sums
_ONE_VOXEL_OR_SMALL = st.one_of(st.just((1, 1, 1)), st.tuples(*[st.integers(1, 5)] * 3))


class TestLesionCaseSums:
    """Each lesion-voxel case sum is math.fsum of the case's terms, bit for
    bit, so a batch's value is the same bits in any case order."""

    @pytest.mark.parametrize("kind", ["tversky", "wlt", "combined"])
    @given(batch=_batches(runs=True, pool_dims=_ONE_VOXEL_OR_SMALL),
           wtd=st.booleans(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_case_sums_are_exact_and_order_free(self, kind, batch, wtd, data):
        gts, preds = batch
        obj = objective(kind, weight_tp_denominator=wtd)
        plan, _, _ = _prepare(obj, gts, preds)
        sums = _case_sums(obj, plan)
        for i, (g, p) in enumerate(zip(gts, preds)):
            fg = g.data.ravel(order="F")
            q = p.data.ravel(order="F")[fg].astype(np.float64)
            w = (build_weight_map(label_components(g)).weights.ravel(order="F")[fg]
                 if kind != "tversky" else np.ones(q.size))
            want = {"tp_w": q * w, "fn_w": (1.0 - q) * w, "tp": q}
            for key in ("tp_w", "fn_w", "tp"):
                if key in sums:
                    assert sums[key][i].hex() == math.fsum(want[key].tolist()).hex()
        assert ("tp" in sums) == (kind != "tversky" and not wtd)
        order = data.draw(st.permutations(range(len(gts))))
        got = evaluate_loss(kind, gts, preds, weight_tp_denominator=wtd,
                            want_grad=True)
        moved = evaluate_loss(kind, [gts[j] for j in order],
                              [preds[j] for j in order],
                              weight_tp_denominator=wtd, want_grad=True)
        assert moved.value.hex() == got.value.hex()
        for j, v in zip(order, moved.gradient):
            assert v.data.tobytes() == got.gradient[j].data.tobytes()


_CHUNK_SIZES = (8, 64, reduction._CHUNK)


class TestPlanBuffers:
    """A plan holds the buffers of every evaluation: the predictions q are
    its one batch-sized buffer, and its trees' leaves and spare hold
    at most one chunk each.  Phase 1 reads q and leaves it as it
    is; phase 2 yields each chunk's gradient in the leaves; the loss API
    returns a gradient of its own, never q."""

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_phases_write_into_the_plan_buffers(self, kind):
        rng = np.random.default_rng(43)
        gts, preds = zip(*(random_case(rng, dims) for dims in
                           ((5, 6, 7), (4, 4, 4), (3, 8, 2))))
        lesions = sum(int(g.data.sum()) for g in gts)
        obj = objective(kind)
        for chunk in _CHUNK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reduction, "_CHUNK", chunk)
                plan, _, _ = _prepare(obj, list(gts), list(preds))
            trees = plan.trees
            chunks, leaves, spare = trees.chunks, trees.leaves, trees.spare
            width = max(c.stop - c.start for c in chunks)
            assert width <= min(chunk, max(b - a for a, b in plan.bounds))
            assert plan.q.shape == (plan.n,)
            assert leaves.shape == spare.shape == (width,)
            assert plan.fg.size == plan.w.size == lesions < plan.n
            fg = np.concatenate([g.data.ravel(order="F") for g in gts])
            assert np.array_equal(plan.fg, np.flatnonzero(fg))
            for c, s in zip(chunks, plan.lesions):
                assert ((plan.fg[s] >= c.start) & (plan.fg[s] < c.stop)).all()
            assert sum(s.stop - s.start for s in plan.lesions) == lesions
            q = plan.q.copy()
            totals = _totals(obj, [_case_sums(obj, plan)], plan.n)
            assert plan.q.tobytes() == q.tobytes()
            yielded = []
            for c, g in _gradient(obj, plan, totals):
                assert g.size == c.stop - c.start
                assert np.shares_memory(g, leaves)
                yielded.append(c)
            assert tuple(yielded) == chunks
            assert plan.q.tobytes() == q.tobytes()
            # the whole gradient, gathered from the stream, is new memory
            grad = _gradient_at(obj, plan, _objective_core(obj, plan)[0],
                                np.arange(plan.n))
            assert grad.shape == (plan.n,)
            assert not np.shares_memory(grad, plan.q)
            assert not np.shares_memory(grad, leaves)
            assert plan.q.tobytes() == q.tobytes()


class TestGradientGrids:
    """The loss API's gradient is one new float32 x-fastest grid per case,
    cast from phase 2's chunks as they stream: no batch-sized float64
    gradient is ever held."""

    def test_peak_memory_is_q_and_the_float32_grids(self):
        # four cases: one under a chunk, three in pieces of 2^16 voxels
        rng = np.random.default_rng(5)
        dims = [(48, 48, 48), (40, 40, 40), (56, 56, 56), (30, 20, 10)]
        gts = [mask(rng.random(d) < 0.01) for d in dims]
        preds = [vol(rng.uniform(0.05, 0.95, d)) for d in dims]
        n = sum(math.prod(d) for d in dims)
        lesions = sum(g.foreground_count for g in gts)
        evaluate_loss("combined", gts, preds, want_grad=True)    # warm up
        tracemalloc.start()
        try:
            got = evaluate_loss("combined", gts, preds, want_grad=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got.gradient) == len(dims)
        # q (8 B) and the returned grids (4 B) per voxel, sixteen 8-byte
        # arrays of the lesion voxels (the plan's and the phases'), the
        # plan's two float64 chunks, and a slack of four chunk-sized
        # boolean temporaries and 64 KiB.  A batch-sized float64 gradient
        # would add 8 B per voxel (2.8 MB here) on top.
        chunk = reduction._CHUNK
        bound = 12 * n + 16 * 8 * lesions + 2 * 8 * chunk + 4 * chunk + (64 << 10)
        assert peak <= bound

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_grids_are_float32_x_fastest_read_only_and_their_own(self, kind):
        rng = np.random.default_rng(44)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "_CHUNK", 64)    # whole cases and pieces
            gts, preds = zip(*(random_case(rng, dims) for dims in
                               ((5, 6, 7), (2, 2, 3), (2, 2, 3), (4, 4, 4))))
            grads = evaluate_loss(kind, list(gts), list(preds),
                                  want_grad=True).gradient
        for g, p in zip(grads, preds):
            assert g.shape == p.shape
            assert g.data.dtype == np.float32
            assert g.data.flags.f_contiguous and not g.data.flags.writeable
            assert not np.shares_memory(g.data, p.data)
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a.data, b.data)

    def test_gradient_past_float32_range_is_rejected(self):
        # empty truth, zero predictions: the background gradient
        # 0.3 * s / s**2 = 3e149 is finite in float64 only.  No numpy
        # warning on the way, and a non-finite value is still reported
        # first.
        gt, pred = mask(np.zeros((4, 4, 4), bool)), vol(np.zeros((4, 4, 4)))
        options = dict(tversky=TverskyParams(smooth=1e-150))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(evaluate_loss("tversky", gt, pred, **options).value)
            with pytest.raises(ValueError, match="^loss gradient is non-finite$"):
                evaluate_loss("tversky", [gt, gt], [pred, pred], want_grad=True,
                              **options)
            # lesion sums that overflow make both non-finite
            data = np.zeros((6, 6, 6), np.uint8)
            data[1:4, 1:4, 1:4] = 1
            with pytest.raises(ValueError, match="^loss value is non-finite$"):
                evaluate_loss("wlt", mask(data), vol(0.1 + 0.7 * data),
                              want_grad=True, curve=WeightCurveParams(w_max=1e308))


# grid lengths at and around multiples of the chunk sizes 8 and 64: a
# chunk, a chunk + 1, and 1.5 chunks -1, 0 and +1, where a last piece's
# tree starts to stop below the chunk level
_CHUNK_DIMS = st.one_of(
    st.sampled_from([7, 8, 9, 11, 12, 13, 63, 64, 65, 95, 96, 97, 129, 200])
    .map(lambda n: (n, 1, 1)),
    st.tuples(*[st.integers(1, 6)] * 3))


class TestChunkedEvaluation:
    """The phases run chunk by chunk, and no chunk size moves a bit."""

    @given(batch=_batches(runs=True, pool_dims=_CHUNK_DIMS))
    @settings(max_examples=40, deadline=None)
    def test_loss_and_grad_check_are_the_same_at_every_chunk_size(self, batch):
        gts, preds = batch
        runs = []
        for chunk in _CHUNK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(reduction, "_CHUNK", chunk)
                out = []
                for kind in LOSS_KINDS:
                    for wtd in (False, True):
                        rep = evaluate_loss(kind, gts, preds, want_grad=True,
                                            weight_tp_denominator=wtd)
                        out += [rep.value.hex()] + [v.data.tobytes()
                                                    for v in rep.gradient]
                inside = [vol(np.clip(p.data, 0.1, 0.9)) for p in preds]
                out += [grad_check(kind, gts, inside, max_voxels=2).hex()
                        for kind in LOSS_KINDS]
            runs.append(out)
        assert runs[1] == runs[0] and runs[2] == runs[0]


# predictions at the clamps of the leaf-path test (the default and 2^-20)
# and next to them in float32, so q +/- step crosses them
_CLAMP_PREDS = np.array([c + d for c in (CE_CLAMP_DEFAULT, 2.0 ** -20)
                         for d in (-2.0 ** -25, 0.0, 2.0 ** -25)], np.float32)
_CLAMP_PREDS = np.concatenate([_CLAMP_PREDS, 1.0 - _CLAMP_PREDS])

# lines at and around multiples of the chunk sizes 8 and 16: a last piece
# of at most half a chunk, whose tree stops below the chunk level (9, 17,
# 20 and 33 at 8), and a longer one (13 and 15 at 8, 27 at 16)
_LEAF_PATH_DIMS = st.one_of(
    st.sampled_from([1, 7, 8, 9, 13, 15, 16, 17, 20, 27, 33])
    .map(lambda n: (n, 1, 1)),
    st.tuples(*[st.integers(1, 5)] * 3))


@st.composite
def _grad_check_batches(draw):
    """1-3 cases of mixed dims, truth random, empty or full; predictions
    log-uniform (so a sum's bits depend on its tree), at and next to the
    clamps, or a mix; and, when drawn, the degenerate all-foreground 4^3
    case, whose lesion-voxel sums take no "+ 0.0"."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gts, preds = [], []
    for _ in range(draw(st.integers(1, 3))):
        dims = draw(_LEAF_PATH_DIMS)
        fg = {"random": rng.random(dims) < draw(st.floats(0.0, 1.0)),
              "empty": np.zeros(dims, bool),
              "full": np.ones(dims, bool)}[
            draw(st.sampled_from(["random", "empty", "full"]))]
        wide = 10.0 ** rng.uniform(-3.0, -0.01, dims)
        edge = rng.choice(_CLAMP_PREDS, dims)
        q = {"wide": wide, "clamp": edge,
             "mixed": np.where(rng.random(dims) < 0.5, wide, edge)}[
            draw(st.sampled_from(["wide", "clamp", "mixed"]))]
        gts.append(mask(fg))
        preds.append(vol(q))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(gts)))
        gts.insert(at, mask(np.ones((4, 4, 4), bool)))
        preds.insert(at, vol(rng.uniform(0.05, 0.95, (4, 4, 4))))
    return gts, preds


def _outcome(call):
    """call()'s result, or the type and message of the ValueError it
    raised."""
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


# the kind's default, alpha = 0, beta = 0 and a non-default smooth: the
# array value formula of _perturbed_values against the scalar one of a full
# evaluation over every branch
_GRAD_CHECK_TVERSKY = [None, TverskyParams(alpha=0.0, beta=1.0, smooth=1e-6),
                       TverskyParams(alpha=0.7, beta=0.0, smooth=1.0),
                       TverskyParams(alpha=0.4, beta=0.6, smooth=0.25)]


class TestLeafPathGradCheck:
    """grad_check's perturbed values are rebuilt leaf-to-root paths, bit for
    bit the values of the brute-force loop of oracles.grad_check_reference:
    every value, the worst error and any error raised."""

    @given(batch=_grad_check_batches(), kind=st.sampled_from(LOSS_KINDS),
           chunk=st.sampled_from([8, 16, reduction._CHUNK]),
           max_voxels=st.sampled_from([None, 1, 3]), seed=st.integers(0, 3),
           step=st.sampled_from([1e-4, 2.0 ** -22]),
           clamp=st.sampled_from([CE_CLAMP_DEFAULT, 2.0 ** -20]),
           weight_tp_denominator=st.booleans(),
           connectivity=st.sampled_from(list(Connectivity)),
           tversky=st.sampled_from(_GRAD_CHECK_TVERSKY),
           ce_weight=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=120, deadline=None)
    def test_every_perturbed_value_is_the_full_evaluation(
            self, batch, kind, chunk, max_voxels, seed, step, clamp,
            weight_tp_denominator, connectivity, tversky, ce_weight):
        gts, preds = batch
        options = dict(clamp=clamp, weight_tp_denominator=weight_tp_denominator,
                       connectivity=connectivity, tversky=tversky,
                       ce_weight=ce_weight)

        def leaf_paths():
            obj = objective(kind, **options)
            plan, _, _ = _prepare(obj, gts, preds)
            totals, sums = _objective_core(obj, plan)
            samples = _sample(plan, max_voxels, seed)
            # raises as grad_check does
            _gradient_at(obj, plan, totals, np.arange(plan.n))
            got = list(_perturbed_values(obj, plan, step, samples, sums))
            return tuple(np.concatenate(x).tobytes() for x in zip(*got))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "_CHUNK", chunk)
            ref = _outcome(lambda: grad_check_reference(
                kind, gts, preds, step, max_voxels=max_voxels, seed=seed,
                **options))
            worst = _outcome(lambda: grad_check(
                kind, gts, preds, step, max_voxels=max_voxels, seed=seed,
                **options))
            values = _outcome(leaf_paths)
        if isinstance(ref[0], type):
            assert worst == values == ref
            return
        assert worst.hex() == float(ref[0]).hex()
        assert values == tuple(x.tobytes() for x in ref[1:])

    def test_ce_leaves_take_numpys_log(self):
        # a one-voxel ce case's value is its one leaf, so each perturbed
        # log's last bit shows; a scalar log would show among these 1200
        # values (math.log differs from numpy's on about 0.4% of values)
        rng = np.random.default_rng(49)
        for i, q in enumerate(rng.uniform(0.01, 0.99, 600)):
            gt, pred = mask(np.full((1, 1, 1), i % 2)), vol(np.full((1, 1, 1), q))
            obj = objective("ce")
            plan, _, _ = _prepare(obj, gt, pred)
            sums = _objective_core(obj, plan)[1]
            (_, up, down), = _perturbed_values(obj, plan, 1e-4, _sample(plan, None, 0),
                                               sums)
            _, _, ref_up, ref_down = grad_check_reference("ce", gt, pred)
            assert (up.tobytes(), down.tobytes()) == (ref_up.tobytes(),
                                                      ref_down.tobytes())

    def test_a_non_finite_perturbed_value_is_rejected(self):
        # finite at q, with a finite gradient; moving the background voxel
        # by -1 cancels s + TP + a*FP to 0, leaving den = b * FN, a
        # subnormal, and the value -inf; at beta = 0 moving the lesion voxel
        # by -1 first cancels num and den to 0, a 0 / 0
        gt, pred = mask(np.array([1, 0]).reshape(2, 1, 1)), vol(
            np.array([0.5, 0.0]).reshape(2, 1, 1))
        for beta in (1e-320, 0.0):
            options = dict(tversky=TverskyParams(alpha=1.0, beta=beta, smooth=0.5))
            rep = evaluate_loss("tversky", gt, pred, want_grad=True, **options)
            assert math.isfinite(rep.value)
            assert np.isfinite(rep.gradient.data).all()
            for check in (grad_check, grad_check_reference):
                with pytest.raises(ValueError, match="loss value is non-finite"):
                    check("tversky", gt, pred, 1.0, **options)

    def test_all_voxel_check_of_a_multi_chunk_case(self):
        # every voxel of a 20^3 case in two chunks of 2^12 (the last piece
        # unpadded), checked against the brute-force loop at the 12 voxels
        # it samples
        rng = np.random.default_rng(48)
        gt, pred = random_case(rng, dims=(20, 20, 20), fg=0.1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reduction, "_CHUNK", 1 << 12)
            for kind in LOSS_KINDS:
                obj = objective(kind)
                plan, _, _ = _prepare(obj, gt, pred)
                assert len(plan.trees.chunks) == 2
                sums = _objective_core(obj, plan)[1]
                (js, up, down), = _perturbed_values(obj, plan, 1e-4,
                                                    _sample(plan, None, 0), sums)
                assert js.tobytes() == np.arange(plan.n).tobytes()
                _, sample, ref_up, ref_down = grad_check_reference(
                    kind, gt, pred, max_voxels=12, seed=3)
                assert up[sample].tobytes() == ref_up.tobytes()
                assert down[sample].tobytes() == ref_down.tobytes()
                assert grad_check(kind, gt, pred) < 1e-4


class TestPlanWeights:
    """A plan's weights come from the lesion labeling at the lesion voxels;
    they equal the public weight map's, byte for byte."""

    @pytest.mark.parametrize("curve", [None, WeightCurveParams(
        w_max=6.0, w_min=0.5, vrange=40.0, k=3.0, a_shift=2.0)],
        ids=["default", "custom"])
    @pytest.mark.parametrize("connectivity", list(Connectivity))
    def test_plan_weights_are_the_weight_map_at_the_lesion_voxels(
            self, connectivity, curve):
        rng = np.random.default_rng(31)
        gts = [mask(rng.random((7, 8, 9)) < 0.3), mask(np.zeros((5, 5, 5))),
               mask(rng.random((6, 6, 6)) < 0.1), mask(np.ones((3, 3, 3)))]
        for batch in (gts, gts[:1], gts[1:2]):
            plan = _truth(objective("wlt", curve=curve,
                                    connectivity=connectivity), batch)
            want = np.concatenate([
                build_weight_map(label_components(g, connectivity), curve)
                .weights.ravel(order="F")[g.data.ravel(order="F")]
                for g in batch])
            assert plan.w.tobytes() == want.tobytes()

    def test_weights_that_are_not_positive_are_rejected(self):
        # w_max - (w_max - w_min) / (1 + 1e-300 * ...) rounds to 0.0
        curve = WeightCurveParams(w_max=1e308, w_min=1e-308, a_shift=1e-300)
        gt = mask(np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="positive and finite"):
            evaluate_loss("wlt", gt, vol(np.full((2, 2, 2), 0.5)), curve=curve)
        with pytest.raises(ValueError, match="positive and finite"):
            build_weight_map(label_components(gt), curve)


_DEGENERATE_DIMS = [(4, 4, 4), (3, 4, 5), (1, 1, 1)]


class TestDegenerateBatches:
    """All-empty and all-foreground truth with predictions of exactly 0.0,
    -0.0 and 1.0 (alone or mixed), on a power-of-two, an odd and a
    one-voxel case, alone and as a batch: byte-equal to the float-product
    oracle for every kind, and grad_check stays finite and small."""

    @pytest.mark.parametrize("pred", ["0.0", "-0.0", "1.0", "mixed"])
    @pytest.mark.parametrize("truth", ["empty", "full"])
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_value_and_gradient_bytes(self, kind, truth, pred):
        rng = np.random.default_rng(41)
        gts = [mask(np.full(d, truth == "full")) for d in _DEGENERATE_DIMS]
        preds = [vol(rng.choice([0.0, -0.0, 1.0], d) if pred == "mixed"
                     else np.full(d, float(pred))) for d in _DEGENERATE_DIMS]
        for n in (1, len(gts)):
            for wtd in (False, True):
                got = evaluate_loss(kind, gts[:n], preds[:n], want_grad=True,
                                    weight_tp_denominator=wtd)
                tv = default_wlt_params() if kind != "tversky" else TverskyParams()
                value, grads = loss_reference(
                    kind, [g.data.ravel(order="F").astype(np.float64) for g in gts[:n]],
                    [p.data.ravel(order="F").astype(np.float64) for p in preds[:n]],
                    [build_weight_map(label_components(g)).weights.ravel(order="F")
                     for g in gts[:n]],
                    alpha=tv.alpha, beta=tv.beta, smooth=tv.smooth, ce_weight=0.5,
                    clamp=CE_CLAMP_DEFAULT, weight_tp_denominator=wtd)
                assert float(value).hex() == got.value.hex()
                for v, g in zip(got.gradient, grads):
                    want = g.reshape(v.shape.dims, order="F").astype(np.float32)
                    assert v.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("truth", ["empty", "full"])
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_grad_check_is_finite_and_small(self, kind, truth):
        rng = np.random.default_rng(43)
        gts = [mask(np.full(d, truth == "full")) for d in _DEGENERATE_DIMS]
        preds = [vol(rng.uniform(0.05, 0.95, d)) for d in _DEGENERATE_DIMS]
        for n in (1, len(gts)):
            err = grad_check(kind, gts[:n], preds[:n])
            assert math.isfinite(err) and err < 1e-4


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
