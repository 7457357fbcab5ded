import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import omega_reference

from lesionloss.components import label_components
from lesionloss.volume import Mask, ShapeMismatchError
from lesionloss.weighting import (
    DEFAULT_A_SHIFT,
    WeightCurveParams,
    WeightMap,
    build_weight_map,
    omega,
    weight_map_to_volume,
)


class TestCurveValues:
    # frozen oracle values, computed with omega_reference before the build
    CASES = [
        (0.0, 9.736189923237793),
        (175.0, 5.5),
        (350.0, 1.2638100767622085),
        (8.0, 9.691982580768437),
        (4.0, 9.714913944588492),
    ]

    @pytest.mark.parametrize("v,expected", CASES)
    def test_default_curve(self, v, expected):
        assert omega(v) == pytest.approx(expected, abs=1e-12)
        assert omega(v) == pytest.approx(omega_reference(v), abs=1e-12)

    def test_large_volume_limit(self):
        assert omega(1e12) == pytest.approx(1.0, abs=1e-9)

    def test_midpoint_symmetry(self):
        for d in (0.0, 50.0, 100.0, 170.0):
            assert omega(175.0 - d) + omega(175.0 + d) == pytest.approx(
                11.0, abs=1e-9
            )

    @given(st.floats(0.0, 175.0))
    @settings(max_examples=80, deadline=None)
    def test_midpoint_symmetry_everywhere(self, d):
        assert omega(175.0 - d) + omega(175.0 + d) == pytest.approx(11.0, abs=1e-9)

    def test_strictly_decreasing_dense_grid(self):
        vs = np.linspace(0.0, 1400.0, 4001)
        ws = np.array([omega(float(v)) for v in vs])
        assert (np.diff(ws) < 0.0).all()

    @given(
        st.floats(0.0, 2000.0), st.floats(1e-3, 2000.0),
        st.floats(1.1, 50.0), st.floats(1e-2, 20.0), st.floats(1e-2, 60.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_for_valid_params(self, v, vrange, w_max, k, a_shift):
        # closed bounds always hold; the interval is only open while the
        # exponential stays representable (it underflows at the asymptote)
        p = WeightCurveParams(w_max=w_max, w_min=1.0, vrange=vrange, k=k,
                              a_shift=a_shift)
        w = omega(v, p)
        assert 1.0 <= w <= w_max

    def test_strict_interior_bounds_in_moderate_regime(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            v = rng.uniform(0.0, 1000.0)
            w = omega(v)
            assert 1.0 < w < 10.0

    def test_negative_volume_rejected(self):
        with pytest.raises(ValueError):
            omega(-1.0)

    def test_default_shift_is_sqrt_e7(self):
        assert DEFAULT_A_SHIFT == pytest.approx(math.sqrt(math.exp(7.0)), rel=1e-15)


class TestParamsValidation:
    def test_orderings(self):
        with pytest.raises(ValueError):
            WeightCurveParams(w_max=1.0, w_min=2.0)
        with pytest.raises(ValueError):
            WeightCurveParams(w_min=0.0)
        with pytest.raises(ValueError):
            WeightCurveParams(vrange=0.0)
        with pytest.raises(ValueError):
            WeightCurveParams(k=-1.0)
        with pytest.raises(ValueError):
            WeightCurveParams(a_shift=0.0)
        for key in ("w_max", "w_min", "vrange", "k", "a_shift"):
            with pytest.raises(ValueError, match="must be finite"):
                WeightCurveParams(**{key: math.inf})

    def test_degenerate_constant_curve_allowed(self):
        p = WeightCurveParams(w_max=3.0, w_min=3.0)
        assert omega(0.0, p) == 3.0
        assert omega(1e6, p) == 3.0


def _mask_with_blocks(blocks, dims=(10, 10, 10)):
    data = np.zeros(dims, bool)
    for sl in blocks:
        data[sl] = True
    return Mask.from_array(data)


class TestWeightMap:
    def test_empty_labeling_uniform_w_min(self):
        lab = label_components(Mask.from_array(np.zeros((4, 4, 4), bool)))
        wm = build_weight_map(lab)
        assert (wm.weights == 1.0).all()

    def test_single_lesion_values(self):
        m = _mask_with_blocks([(slice(1, 3), slice(1, 3), slice(1, 3))])
        lab = label_components(m)
        wm = build_weight_map(lab)
        inside = wm.weights[m.data]
        outside = wm.weights[~m.data]
        assert inside == pytest.approx(omega(8.0), abs=0.0)
        assert (outside == 1.0).all()

    def test_smaller_lesion_weighs_more(self):
        data = np.zeros((20, 20, 20), bool)
        data[0:2, 0:2, 0:1] = True          # 4 voxels
        data[5:15, 5:11, 5:10] = True       # 300 voxels
        lab = label_components(Mask.from_array(data))
        wm = build_weight_map(lab)
        w_small = wm.weights[0, 0, 0]
        w_large = wm.weights[6, 6, 6]
        assert w_small > w_large

    def test_constant_within_lesion_matches_scalar(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            data = rng.random((9, 9, 9)) < 0.25
            lab = label_components(Mask.from_array(data))
            wm = build_weight_map(lab)
            for lesion_id, count in enumerate(lab.volumes, start=1):
                vals = wm.weights[lab.labels == lesion_id]
                assert (vals == omega(float(count))).all()

    @pytest.mark.parametrize("params, scale", [
        (None, 1.0), (None, 0.375),
        (WeightCurveParams(w_max=6.0, w_min=0.5, vrange=40.0, k=3.0,
                           a_shift=2.0), 2.5)])
    def test_shared_volumes_weigh_as_each_lesion_alone(self, params, scale):
        # 16 lesions, one per other row, of 5 volumes in scan order 1, 2,
        # 4, 8, 12, 1, 2, ... voxels: one omega per distinct volume is the
        # per-lesion omega of every lesion
        data = np.zeros((12, 31, 2), bool)
        for i in range(16):
            data[:(1, 2, 4, 8, 12)[i % 5], 2 * i, 1] = True
        lab = label_components(Mask.from_array(data))
        assert len(set(lab.volumes)) == 5 and lab.lesion_count == 16
        wm = build_weight_map(lab, params, volume_scale=scale)
        per_lesion = {i: omega(v * scale, params)
                      for i, v in enumerate(lab.volumes, start=1)}
        want = np.array([per_lesion.get(i, (params or WeightCurveParams()).w_min)
                         for i in lab.labels.ravel(order="F")])
        assert wm.weights.ravel(order="F").tobytes() == want.tobytes()

    def test_degenerate_params_give_constant_map(self):
        m = _mask_with_blocks([(slice(0, 3), slice(0, 3), slice(0, 3))])
        lab = label_components(m)
        wm = build_weight_map(lab, WeightCurveParams(w_max=2.5, w_min=2.5))
        assert (wm.weights == 2.5).all()

    def test_volume_scale_matches_scaled_counts(self):
        m = _mask_with_blocks([(slice(1, 3), slice(1, 3), slice(1, 3))])
        lab = label_components(m)
        wm = build_weight_map(lab, volume_scale=2.0)
        assert wm.weights[1, 1, 1] == omega(16.0)

    def test_weights_within_bounds(self):
        rng = np.random.default_rng(22)
        data = rng.random((8, 8, 8)) < 0.3
        lab = label_components(Mask.from_array(data))
        wm = build_weight_map(lab)
        assert (wm.weights >= 1.0).all() and (wm.weights <= 10.0).all()

    def test_validation(self):
        from lesionloss.volume import GridShape

        with pytest.raises(ValueError):
            WeightMap(GridShape((2, 2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(ShapeMismatchError, match="does not match dims"):
            WeightMap(GridShape((2, 2, 2)), np.ones((2, 2, 3)))
        lab = label_components(_mask_with_blocks([]))
        for scale in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="volume_scale must be positive"):
                build_weight_map(lab, volume_scale=scale)

    def test_export(self):
        m = _mask_with_blocks([(slice(0, 2), slice(0, 2), slice(0, 2))])
        lab = label_components(m)
        vol = weight_map_to_volume(build_weight_map(lab))
        assert vol.data.dtype == np.float32
        assert vol.data.max() == pytest.approx(omega(8.0), rel=1e-6)
