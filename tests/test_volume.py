import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lesionloss.components import LesionLabeling
from lesionloss.volume import (
    GridShape,
    Mask,
    ShapeMismatchError,
    Volume,
    VolumeFormatError,
    load_mask,
    load_volume,
    save_mask,
    save_volume,
    threshold,
)
from lesionloss.weighting import WeightMap

# each grid type with an array of valid values, for its shape check
_GRIDS = {Volume: np.zeros, Mask: lambda s: np.zeros(s, bool),
          WeightMap: np.ones, LesionLabeling: lambda s: np.zeros(s, np.int32)}


class TestGridShape:
    def test_valid(self):
        s = GridShape((2, 3, 4), (1.0, 0.5, 2.0))
        assert s.voxel_count == 24
        assert s.voxel_volume_mm3 == 1.0

    @pytest.mark.parametrize("dims", [(0, 2, 2), (2, -1, 2), (2, 2, 0), (2, 2),
                                      (2**21, 2**21, 2**21)])
    def test_empty_dims_rejected(self, dims):
        with pytest.raises(ValueError):
            GridShape(dims)

    @pytest.mark.parametrize("spacing", [(0.0, 1, 1), (1, -2, 1), (1, 1, float("nan"))])
    def test_bad_spacing_rejected(self, spacing):
        with pytest.raises(ValueError):
            GridShape((2, 2, 2), spacing)


class TestVolumeType:
    def test_nonfinite_rejected(self):
        data = np.zeros((2, 2, 2), np.float32)
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            Volume.from_array(data)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            Volume(GridShape((2, 2, 2)), np.zeros((2, 2, 3), np.float32))
        with pytest.raises(ShapeMismatchError):
            Mask(GridShape((2, 2, 2)), np.zeros((2, 2, 3), bool))

    @given(kind=st.sampled_from(list(_GRIDS)),
           dims=st.tuples(*[st.integers(1, 5)] * 3),
           data_dims=st.lists(st.integers(0, 5), min_size=1, max_size=4).map(tuple))
    @settings(max_examples=200, deadline=None)
    def test_every_grid_type_checks_its_shape(self, kind, dims, data_dims):
        assume(data_dims != dims)
        message = f"data shape {data_dims} does not match dims {dims}"
        with pytest.raises(ShapeMismatchError, match=re.escape(message)):
            kind(GridShape(dims), _GRIDS[kind](data_dims))

    def test_immutable(self):
        v = Volume.from_array(np.zeros((2, 2, 2), np.float32))
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 1.0

    def test_probability_check(self):
        v = Volume.from_array(np.full((2, 2, 2), 1.5, np.float32))
        assert not v.is_probability
        with pytest.raises(ValueError):
            v.require_probability()

    def test_mask_values_checked(self):
        with pytest.raises(ValueError):
            Mask.from_array(np.full((2, 2, 2), 2, np.uint8))


class TestThreshold:
    def test_uniform_above(self):
        v = Volume.from_array(np.full((3, 3, 3), 0.7, np.float32))
        assert threshold(v, 0.5).data.all()

    def test_boundary_is_inclusive(self):
        v = Volume.from_array(np.full((3, 3, 3), 0.7, np.float32))
        assert threshold(v, 0.7).data.all()

    def test_mixed_values(self):
        v = Volume.from_array(np.array([0.2, 0.5, 0.9], np.float32).reshape(3, 1, 1))
        m = threshold(v, 0.5)
        assert m.data.ravel().tolist() == [False, True, True]

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        v = Volume.from_array(rng.random((6, 6, 6)).astype(np.float32))
        prev = threshold(v, 0.0).data
        for t in np.linspace(0.1, 1.0, 10):
            cur = threshold(v, float(t)).data
            assert not (cur & ~prev).any()  # raising t never sets a new bit
            prev = cur

    def test_rejects_bad_inputs(self):
        v = Volume.from_array(np.full((2, 2, 2), 2.0, np.float32))
        with pytest.raises(ValueError):
            threshold(v, 0.5)
        ok = Volume.from_array(np.zeros((2, 2, 2), np.float32))
        with pytest.raises(ValueError):
            threshold(ok, 1.5)


class TestFileRoundTrip:
    def test_header_and_payload_bytes(self, tmp_path):
        v = Volume.from_array(np.zeros((4, 4, 4), np.float32))
        save_volume(v, tmp_path / "zero")
        raw = (tmp_path / "zero.vraw").read_bytes()
        assert len(raw) == 256  # 64 voxels * 4 bytes
        hdr = (tmp_path / "zero.vhdr").read_text()
        assert "dims=4 4 4" in hdr and "order=x-fastest-le" in hdr

    def test_volume_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        v = Volume.from_array(
            rng.random((16, 16, 16)).astype(np.float32), spacing=(0.5, 1.0, 2.0)
        )
        save_volume(v, tmp_path / "r.vhdr")
        for path in ("r.vhdr", "r.vraw", "r"):    # every accepted form
            back = load_volume(tmp_path / path)
            assert back.shape == v.shape
            assert np.array_equal(
                back.data.view(np.uint32), v.data.view(np.uint32)
            )  # every bit

    def test_load_save_identity_on_file(self, tmp_path):
        rng = np.random.default_rng(12)
        v = Volume.from_array(rng.random((5, 7, 3)).astype(np.float32))
        save_volume(v, tmp_path / "a")
        v2 = load_volume(tmp_path / "a")
        save_volume(v2, tmp_path / "b")
        assert (tmp_path / "a.vraw").read_bytes() == (tmp_path / "b.vraw").read_bytes()
        assert (tmp_path / "a.vhdr").read_bytes() == (tmp_path / "b.vhdr").read_bytes()

    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        m = Mask.from_array((rng.random((9, 8, 7)) < 0.4))
        save_mask(m, tmp_path / "m")
        back = load_mask(tmp_path / "m")
        assert np.array_equal(back.data, m.data)

    def test_size_mismatch_detected(self, tmp_path):
        v = Volume.from_array(np.zeros((2, 2, 2), np.float32))
        save_volume(v, tmp_path / "t")
        raw = (tmp_path / "t.vraw").read_bytes()
        (tmp_path / "t.vraw").write_bytes(raw[:-4])  # drop one voxel
        with pytest.raises(VolumeFormatError, match="size mismatch"):
            load_volume(tmp_path / "t")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_volume(tmp_path / "nope.vhdr")

    def test_unknown_dtype(self, tmp_path):
        v = Volume.from_array(np.zeros((2, 2, 2), np.float32))
        save_volume(v, tmp_path / "t")
        hdr = (tmp_path / "t.vhdr").read_text().replace("f32", "f64")
        (tmp_path / "t.vhdr").write_text(hdr)
        with pytest.raises(VolumeFormatError, match="unknown dtype"):
            load_volume(tmp_path / "t")

    def test_unknown_header_field(self, tmp_path):
        v = Volume.from_array(np.zeros((2, 2, 2), np.float32))
        save_volume(v, tmp_path / "t")
        with open(tmp_path / "t.vhdr", "a") as fh:
            fh.write("extra=1\n")
        with pytest.raises(VolumeFormatError, match="unknown header field"):
            load_volume(tmp_path / "t")

    def test_duplicate_header_field(self, tmp_path):
        v = Volume.from_array(np.zeros((2, 2, 2), np.float32))
        save_volume(v, tmp_path / "t")
        with open(tmp_path / "t.vhdr", "a") as fh:
            fh.write("dtype=f32\n")
        with pytest.raises(VolumeFormatError, match="duplicate header field"):
            load_volume(tmp_path / "t")

    def test_nonfinite_payload_rejected(self, tmp_path):
        v = Volume.from_array(np.zeros((2, 2, 2), np.float32))
        save_volume(v, tmp_path / "t")
        bad = np.full(8, np.inf, dtype="<f4").tobytes()
        (tmp_path / "t.vraw").write_bytes(bad)
        with pytest.raises(VolumeFormatError, match="non-finite"):
            load_volume(tmp_path / "t")

    def test_mask_payload_values_checked(self, tmp_path):
        m = Mask.from_array(np.zeros((2, 2, 2), np.uint8))
        save_mask(m, tmp_path / "t")
        (tmp_path / "t.vraw").write_bytes(bytes([7] * 8))
        with pytest.raises(VolumeFormatError, match="outside"):
            load_mask(tmp_path / "t")

    def test_dtype_cross_loading_rejected(self, tmp_path):
        v = Volume.from_array(np.zeros((2, 2, 2), np.float32))
        save_volume(v, tmp_path / "v")
        with pytest.raises(VolumeFormatError, match="use load_volume"):
            load_mask(tmp_path / "v")
        m = Mask.from_array(np.zeros((2, 2, 2), np.uint8))
        save_mask(m, tmp_path / "m")
        with pytest.raises(VolumeFormatError, match="use load_mask"):
            load_volume(tmp_path / "m")

    def test_x_fastest_layout(self, tmp_path):
        # voxel (1,0,0) must be the second value of the raw stream
        data = np.zeros((2, 2, 2), np.float32)
        data[1, 0, 0] = 5.0
        save_volume(Volume.from_array(data), tmp_path / "t")
        flat = np.frombuffer((tmp_path / "t.vraw").read_bytes(), "<f4")
        assert flat[1] == 5.0 and flat[0] == 0.0
