import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import flood_fill_labels

from lesionloss.components import (
    Connectivity,
    LesionLabeling,
    label_components,
    labeling_to_volume,
    lesion_volume_mm3,
)
from lesionloss.loss import evaluate_loss, objective
from lesionloss.synth import PhantomSpec, generate
from lesionloss.trainer import TrainConfig, VoxelScorer, evaluate_lesionwise
from lesionloss.volume import GridShape, Mask, Volume


def pair_mask(a, b, dims=(4, 4, 4)):
    data = np.zeros(dims, bool)
    data[a] = True
    data[b] = True
    return Mask.from_array(data)


class TestExamples:
    def test_solid_cube(self):
        data = np.zeros((8, 8, 8), bool)
        data[2:4, 2:4, 2:4] = True
        lab = label_components(Mask.from_array(data))
        assert lab.lesion_count == 1
        assert lab.volumes == (8,)

    def test_corner_pair_by_connectivity(self):
        m = pair_mask((0, 0, 0), (1, 1, 1))
        assert label_components(m, Connectivity.TWENTY_SIX).lesion_count == 1
        assert label_components(m, Connectivity.EIGHTEEN).lesion_count == 2
        assert label_components(m, Connectivity.SIX).lesion_count == 2

    def test_edge_pair_by_connectivity(self):
        m = pair_mask((0, 0, 0), (0, 1, 1))
        assert label_components(m, Connectivity.TWENTY_SIX).lesion_count == 1
        assert label_components(m, Connectivity.EIGHTEEN).lesion_count == 1
        assert label_components(m, Connectivity.SIX).lesion_count == 2

    def test_empty_mask(self):
        lab = label_components(Mask.from_array(np.zeros((5, 5, 5), bool)))
        assert lab.lesion_count == 0
        assert not lab.labels.any()


class TestFloodFillOracle:
    @pytest.mark.parametrize(
        "connectivity",
        [Connectivity.SIX, Connectivity.EIGHTEEN, Connectivity.TWENTY_SIX],
    )
    def test_matches_oracle_on_random_masks(self, connectivity):
        rng = np.random.default_rng(7)
        for _ in range(60):
            dims = tuple(rng.integers(2, 13, size=3))
            data = rng.random(dims) < rng.uniform(0.1, 0.6)
            lab = label_components(Mask.from_array(data), connectivity)
            # the oracle also numbers components in scan order, so the
            # label grids must agree exactly, not just up to renaming
            expected = flood_fill_labels(data, connectivity)
            assert np.array_equal(lab.labels, expected)

    @given(dims=st.tuples(*[st.integers(1, 10)] * 3),
           seed=st.integers(0, 2**32 - 1),
           density=st.sampled_from([0.0, 0.05, 0.2, 0.4, 0.6, 0.9, 1.0]),
           connectivity=st.sampled_from(list(Connectivity)))
    @example(dims=(1, 1, 1), seed=0, density=1.0, connectivity=Connectivity.SIX)
    @example(dims=(10, 1, 1), seed=3, density=0.5, connectivity=Connectivity.SIX)
    @example(dims=(1, 10, 10), seed=4, density=0.4,
             connectivity=Connectivity.EIGHTEEN)
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_exactly(self, dims, seed, density, connectivity):
        """Ids and volumes equal the flood fill's, with no renaming: this
        pins the x-fastest scan order of scipy's numbering that
        components._flat_labels relies on."""
        data = np.random.default_rng(seed).random(dims) < density
        lab = label_components(Mask.from_array(data), connectivity)
        expected = flood_fill_labels(data, connectivity)
        assert lab.labels.dtype == np.int32
        assert np.array_equal(lab.labels, expected)
        assert lab.volumes == tuple(np.bincount(expected.ravel())[1:].tolist())

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        data = rng.random((10, 10, 10)) < 0.3
        a = label_components(Mask.from_array(data))
        b = label_components(Mask.from_array(data))
        assert np.array_equal(a.labels, b.labels)
        assert a.volumes == b.volumes

    def test_volumes_translation_invariant(self):
        rng = np.random.default_rng(9)
        core = rng.random((5, 5, 5)) < 0.4
        base = np.zeros((12, 12, 12), bool)
        base[0:5, 0:5, 0:5] = core
        moved = np.zeros((12, 12, 12), bool)
        moved[4:9, 5:10, 6:11] = core
        a = label_components(Mask.from_array(base))
        b = label_components(Mask.from_array(moved))
        assert a.volumes == b.volumes


class TestVolumes:
    def _eight_voxel_labeling(self, spacing):
        data = np.zeros((8, 8, 8), bool)
        data[1:3, 1:3, 1:3] = True
        return label_components(Mask.from_array(data, spacing=spacing))

    def test_unit_spacing(self):
        lab = self._eight_voxel_labeling((1.0, 1.0, 1.0))
        assert lesion_volume_mm3(lab, 1) == 8.0

    def test_anisotropic_spacing(self):
        lab = self._eight_voxel_labeling((2.0, 1.0, 1.0))
        assert lesion_volume_mm3(lab, 1) == 16.0

    def test_id_out_of_range(self):
        lab = self._eight_voxel_labeling((1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            lesion_volume_mm3(lab, 2)
        with pytest.raises(ValueError):
            lesion_volume_mm3(lab, 0)


class TestLabelingValidation:
    def test_volume_mismatch_rejected(self):
        labels = np.zeros((2, 2, 2), np.int32)
        labels[0, 0, 0] = 1
        with pytest.raises(ValueError):
            LesionLabeling(GridShape((2, 2, 2)), labels, (2,))
        with pytest.raises(ValueError, match="does not match shape dims"):
            LesionLabeling(GridShape((2, 2, 3)), labels, (1,))

    def test_gap_in_ids_rejected(self):
        labels = np.zeros((2, 2, 2), np.int32)
        labels[0, 0, 0] = 2
        with pytest.raises(ValueError):
            LesionLabeling(GridShape((2, 2, 2)), labels, (0, 1))
        for bad, volumes in ((-1, (1,)), (2, (1,))):
            labels[1, 1, 1] = bad
            with pytest.raises(ValueError, match="contiguous range 0..L"):
                LesionLabeling(GridShape((2, 2, 2)), labels, volumes)

    def test_export_as_volume(self):
        data = np.zeros((3, 3, 3), bool)
        data[0, 0, 0] = True
        lab = label_components(Mask.from_array(data))
        vol = labeling_to_volume(lab)
        assert vol.data[0, 0, 0] == 1.0
        assert vol.data.sum() == 1.0


class TestConnectivityValues:
    """A connectivity given as an int means its member, and anything that
    is not a member's value raises ValueError where it enters."""

    def test_int_labels_as_its_member(self):
        rng = np.random.default_rng(31)
        m = Mask.from_array(rng.random((9, 8, 7)) < 0.3)
        for conn in Connectivity:
            want = label_components(m, conn)
            got = label_components(m, conn.value)
            assert got.volumes == want.volumes
            assert got.labels.tobytes() == want.labels.tobytes()

    def test_int_evaluates_loss_as_its_member(self):
        rng = np.random.default_rng(32)
        gt = Mask.from_array(rng.random((8, 8, 8)) < 0.3)
        pred = Volume.from_array(rng.uniform(0.05, 0.95, (8, 8, 8))
                                 .astype(np.float32))
        for kind in ("wlt", "combined"):
            for conn in Connectivity:
                want = evaluate_loss(kind, gt, pred, want_grad=True,
                                     connectivity=conn)
                got = evaluate_loss(kind, gt, pred, want_grad=True,
                                    connectivity=conn.value)
                assert got.value.hex() == want.value.hex()
                assert got.gradient.data.tobytes() == want.gradient.data.tobytes()
        assert objective("wlt", connectivity=6).connectivity is Connectivity.SIX

    def test_int_evaluates_recall_as_its_member(self):
        phantoms = [generate(PhantomSpec(GridShape((16, 16, 16)), 4, (1.0, 2.5),
                                         fragmentation_prob=0.5, seed=700 + i))
                    for i in range(2)]
        model = VoxelScorer(np.array([1.1, 2.3, -0.4, 0.2, -2.0]))
        for conn in Connectivity:
            assert (evaluate_lesionwise(model, phantoms, 0.5, conn.value)
                    == evaluate_lesionwise(model, phantoms, 0.5, conn))

    @pytest.mark.parametrize("bad", [7, "x"])
    def test_non_member_raises_value_error(self, bad):
        m = Mask.from_array(np.ones((3, 3, 3), bool))
        match = "is not a valid Connectivity"
        with pytest.raises(ValueError, match=match):
            objective("wlt", connectivity=bad)
        with pytest.raises(ValueError, match=match):
            TrainConfig(connectivity=bad)
        with pytest.raises(ValueError, match=match):
            label_components(m, bad)
