import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import flood_fill_labels, serpentine, walk
from scipy import ndimage

from lesionloss import components
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
from lesionloss.volume import GridShape, Mask, ShapeMismatchError, Volume


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
        components._lesion_ids keeps."""
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


def scipy_labels(data, connectivity):
    """scipy's labeling of the [x, y, z] grid data, numbered in the scan
    order of its (z, y, x) transpose: x-fastest, as the library numbers."""
    rank = {6: 1, 18: 2, 26: 3}[Connectivity(connectivity).value]
    ids, _ = ndimage.label(data.T, structure=ndimage.generate_binary_structure(3, rank))
    return ids.T


def lesion_ids(data, connectivity):
    """components._lesion_ids of the [x, y, z] grid data's foreground."""
    pos = np.flatnonzero(data.ravel(order="F"))
    return components._lesion_ids(pos, data.shape, connectivity)


def assert_ids_match_oracles(data, connectivity):
    want = flood_fill_labels(data, connectivity)
    assert np.array_equal(scipy_labels(data, connectivity), want)
    at = want.ravel(order="F")[data.ravel(order="F")]
    assert lesion_ids(data, connectivity).tolist() == at.tolist()
    lab = label_components(Mask.from_array(data), connectivity)
    assert np.array_equal(lab.labels, want)
    assert lab.volumes == tuple(np.bincount(at)[1:].tolist())


def spiral(side):
    """A square spiral in a one-plane grid of side x side voxels, its arms
    one voxel apart: one lesion whose runs join from the outside in."""
    data = np.zeros((side, side, 1), bool)
    lo, hi = 0, side - 1
    while lo <= hi:
        data[lo:hi + 1, lo, 0] = True
        data[hi, lo:hi + 1, 0] = True
        data[lo:hi + 1, hi, 0] = True
        data[lo, lo + 2:hi + 1, 0] = True
        if lo + 2 <= hi:
            data[lo + 1, lo + 2, 0] = True
        lo, hi = lo + 2, hi - 2
    return data


def comb(levels):
    """2^levels one-voxel-wide teeth (y = 0, 2, ..) in a one-column grid,
    joined along the last z row; tooth k's tip sits at z = k's bit
    reversal.  Each tooth is a tree of runs rooted at its tip, and each
    round of min-label hooking joins only the roots that are smaller than
    a neighbouring root, so the teeth merge in levels + 1 rounds."""
    n = 2 ** levels
    data = np.zeros((1, 2 * n - 1, n + 1), bool)
    for k in range(n):
        data[0, 2 * k, int(format(k, f"0{levels}b")[::-1], 2):] = True
    data[0, :, n] = True
    return data


class TestRunLabeling:
    """The run labeler (components._lesion_ids) numbers every foreground
    voxel as the flood fill and scipy's own labeling do."""

    @given(dims=st.tuples(*[st.integers(1, 12)] * 3),
           seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["noise", "walk"]),
           density=st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.6, 0.9, 1.0]),
           connectivity=st.sampled_from(list(Connectivity)))
    @example(dims=(4, 3, 2), seed=0, kind="noise", density=1.0,
             connectivity=Connectivity.SIX)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_oracles(self, dims, seed, kind, density, connectivity):
        rng = np.random.default_rng(seed)
        if kind == "noise":
            data = rng.random(dims) < density
        else:
            data = walk(dims, rng, int(density * 3 * np.prod(dims)))
        assert_ids_match_oracles(data, connectivity)

    @pytest.mark.parametrize("connectivity", list(Connectivity))
    @pytest.mark.parametrize("voxels, lesions", [
        # x = nx - 1 of a row, then x = 0 of the next: consecutive flat
        # positions, 4 apart in x
        ([(4, 0, 0), (0, 1, 0)], 2),
        ([(4, 2, 0), (0, 0, 1)], 2),
        # a full row and the next row's first voxel do touch
        ([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0), (0, 1, 0)], 1),
        # y = 0 and y = ny - 1: no neighbour row, (dy, dz) = (-1, 1), (1, 0)
        # or (1, 1), wraps into another row of the plane or another plane
        ([(2, 0, 0), (2, 2, 0)], 2),
        ([(2, 2, 0), (2, 0, 1)], 2),
        ([(2, 2, 0), (2, 0, 2)], 2),
        ([(2, 2, 0), (1, 0, 1), (3, 0, 1)], 3),
        ([(2, 0, 1), (1, 2, 1), (3, 2, 0)], 3),
        # nor does the last plane's last voxel join the grid's first
        ([(4, 2, 2), (0, 0, 0)], 2),
    ])
    def test_rows_and_planes_do_not_wrap(self, voxels, lesions, connectivity):
        data = np.zeros((5, 3, 3), bool)
        for v in voxels:
            data[v] = True
        assert_ids_match_oracles(data, connectivity)
        lab = label_components(Mask.from_array(data), connectivity)
        assert lab.lesion_count == lesions

    @pytest.mark.parametrize("connectivity", list(Connectivity))
    @pytest.mark.parametrize("dims", [(1, 9, 11), (7, 1, 12), (13, 10, 1),
                                      (1, 1, 14), (1, 15, 1), (16, 1, 1),
                                      (1, 1, 1)])
    def test_one_voxel_thick_grids(self, dims, connectivity):
        rng = np.random.default_rng(sum(dims))
        for density in (0.0, 0.3, 0.7, 1.0):
            assert_ids_match_oracles(rng.random(dims) < density, connectivity)

    @pytest.mark.parametrize("connectivity", list(Connectivity))
    @pytest.mark.parametrize("dims", [(1, 1, 1), (6, 5, 4), (9, 1, 3), (2, 40, 30)])
    def test_empty_and_full_grids(self, dims, connectivity):
        for fill in (False, True):
            data = np.full(dims, fill)
            assert_ids_match_oracles(data, connectivity)
            assert lesion_ids(data, connectivity).tolist() == [1] * data.sum()

    @pytest.mark.parametrize("connectivity", list(Connectivity))
    @pytest.mark.parametrize("shapes", [
        [serpentine(d) for d in ((9, 9, 9), (10, 7, 12), (5, 12, 3))],
        [spiral(side) for side in (9, 14, 25)],
        [comb(levels) for levels in (1, 3, 5)]],
        ids=["serpentine", "spiral", "comb"])
    def test_winding_and_deep_merging_lesions_are_one(self, shapes, connectivity):
        for data in shapes:
            assert_ids_match_oracles(data, connectivity)
            assert label_components(Mask.from_array(data),
                                    connectivity).lesion_count == 1


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
    def test_shape_mismatch_rejected(self):
        labels = np.zeros((2, 2, 2), np.int32)
        labels[0, 0, 0] = 1
        with pytest.raises(ShapeMismatchError, match="does not match dims"):
            LesionLabeling(GridShape((2, 2, 3)), labels)

    def test_gap_in_ids_rejected(self):
        labels = np.zeros((2, 2, 2), np.int32)
        labels[0, 0, 0] = 2
        with pytest.raises(ValueError):
            LesionLabeling(GridShape((2, 2, 2)), labels)
        for bad in (-1, 2):
            labels[1, 1, 1] = bad
            with pytest.raises(ValueError, match="contiguous range 0..L"):
                LesionLabeling(GridShape((2, 2, 2)), labels)

    def test_ids_are_kept_exactly_or_rejected(self):
        # the int32 cast would round 1.7 to id 1 and wrap +-2**32 + 1 to 1
        shape = GridShape((2, 2, 2))
        for bad in (1.7, 2**32 + 1, -2**32 + 1):
            labels = np.zeros((2, 2, 2), np.asarray(bad).dtype)
            labels[0, 0, 0] = bad
            with pytest.raises(ValueError, match="label"):
                LesionLabeling(shape, labels)
        ids = np.zeros((2, 2, 2), np.int32)
        ids[0, 0, 0] = ids[1, 1, 1] = 1
        want = LesionLabeling(shape, ids)
        assert want.volumes == (2,)
        for dtype in (bool, np.uint8, np.int64, np.uint64):
            lab = LesionLabeling(shape, ids.astype(dtype))
            assert lab.volumes == want.volumes
            assert lab.labels.dtype == np.int32
            assert np.array_equal(lab.labels, want.labels)
        two = ids.astype(np.int64)
        two[1, 0, 0] = 2
        assert LesionLabeling(shape, two).volumes == (2, 1)

    @given(dims=st.tuples(*[st.integers(1, 8)] * 3),
           seed=st.integers(0, 2**32 - 1),
           background=st.sampled_from([0.0, 0.5, 0.95, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_volumes_are_the_label_counts(self, dims, seed, background):
        # a random grid of ids 0..k, each of 1..k at least once
        rng = np.random.default_rng(seed)
        n = int(np.prod(dims))
        k = int(rng.integers(0, n + 1))
        ids = rng.integers(0, k + 1, n)
        ids[rng.random(n) < background] = 0
        ids[rng.permutation(n)[:k]] = np.arange(1, k + 1)
        lab = LesionLabeling(GridShape(dims), ids.reshape(dims))
        assert lab.volumes == tuple(np.bincount(ids)[1:].tolist())
        assert lab.lesion_count == k

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
