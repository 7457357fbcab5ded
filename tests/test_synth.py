import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lesionloss.synth as synth_mod
from lesionloss.components import Connectivity, label_components
from lesionloss.synth import (
    LesionGeometry,
    PhantomSpec,
    _ellipsoid_voxels,
    _grow_blob,
    _halo,
    _pick_seeds,
    generate,
    read_phantom_sidecar,
    regenerate_phantom,
    save_phantom,
    shrink,
)
from lesionloss.volume import GridShape, load_mask, load_volume

from oracles import halo_reference, pick_seeds_reference


def spec(dims=(24, 24, 24), n=2, radius=(3.0, 3.0), seed=42, **kw):
    return PhantomSpec(
        shape=GridShape(dims),
        n_lesions=n,
        radius_range_vox=radius,
        seed=seed,
        **kw,
    )


class TestSpecValidation:
    def test_radius_must_fit(self):
        with pytest.raises(ValueError, match="fit"):
            spec(dims=(6, 6, 6), radius=(3.0, 3.0))

    def test_radius_ordering(self):
        with pytest.raises(ValueError):
            spec(radius=(3.0, 2.0))
        with pytest.raises(ValueError):
            spec(radius=(0.0, 2.0))
        with pytest.raises(ValueError, match="take two values each"):
            spec(radius=(1.0, 2.0, 3.0))

    def test_fragment_range(self):
        with pytest.raises(ValueError):
            spec(fragments_per_lesion=(0, 3))
        with pytest.raises(ValueError):
            spec(fragments_per_lesion=(4, 2))

    def test_probability_range(self):
        with pytest.raises(ValueError):
            spec(fragmentation_prob=1.5)

    def test_negative_lesions(self):
        with pytest.raises(ValueError):
            spec(n=-1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_is_64_bit_unsigned(self, seed):
        with pytest.raises(ValueError, match="64-bit unsigned"):
            spec(seed=seed)

    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    def test_noise_sigma_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="noise_sigma must be >= 0 and finite"):
            spec(noise_sigma=value)

    @pytest.mark.parametrize("value", [0.0, math.inf, math.nan])
    def test_contrast_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="contrast must be positive and finite"):
            spec(contrast=value)


class TestGenerate:
    def test_no_lesions_gives_pure_noise(self):
        ph = generate(spec(n=0, noise_sigma=0.5))
        assert ph.truth.foreground_count == 0
        assert ph.image.data.std() > 0.1

    def test_deterministic(self):
        s = spec(noise_sigma=0.4, seed=77)
        a = generate(s)
        b = generate(s)
        assert np.array_equal(a.image.data.view(np.uint32),
                              b.image.data.view(np.uint32))
        assert np.array_equal(a.truth.data, b.truth.data)

    def test_different_seeds_differ(self):
        a = generate(spec(seed=1))
        b = generate(spec(seed=2))
        assert not np.array_equal(a.truth.data, b.truth.data)

    def test_sphere_volume_near_analytic(self):
        ph = generate(spec(n=1, radius=(3.0, 3.0)))
        analytic = 4.0 / 3.0 * math.pi * 27.0
        count = ph.truth.foreground_count
        assert abs(count - analytic) <= 0.3 * analytic

    def test_component_count_matches_lesions(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            s = spec(dims=(30, 30, 30), n=n, radius=(1.5, 3.0),
                     seed=int(rng.integers(1 << 32)))
            ph = generate(s)
            lab = label_components(ph.truth, Connectivity.TWENTY_SIX)
            assert lab.lesion_count == n

    def test_image_is_noise_plus_contrast(self):
        s = spec(noise_sigma=0.3, contrast=2.0, seed=9)
        ph = generate(s)
        twin = generate(
            PhantomSpec(shape=s.shape, n_lesions=0, radius_range_vox=(3.0, 3.0),
                        noise_sigma=0.3, contrast=2.0, seed=9)
        )
        inside = ph.truth.data
        np.testing.assert_allclose(
            ph.image.data[~inside], twin.image.data[~inside], atol=0.0
        )
        np.testing.assert_allclose(
            ph.image.data[inside] - twin.image.data[inside], 2.0, atol=1e-5
        )

    def test_placement_failure_raises(self):
        with pytest.raises(RuntimeError, match="could not place"):
            generate(spec(dims=(9, 9, 9), n=20, radius=(3.0, 3.0)))

    def test_lesions_inside_grid(self):
        ph = generate(spec(dims=(16, 16, 16), n=2, radius=(2.0, 3.0), seed=3))
        coords = np.argwhere(ph.truth.data)
        assert coords.min() >= 0 and coords.max() <= 15


class TestFragmentation:
    def frag_phantom(self, seed=7):
        return generate(
            spec(dims=(32, 32, 32), n=2, radius=(4.0, 4.0),
                 fragmentation_prob=1.0, fragments_per_lesion=(3, 3), seed=seed)
        )

    def test_fragments_conserve_volume(self):
        ph = self.frag_phantom()
        for geom in ph.lesions:
            assert geom.fragments is not None
            ellipsoid = _ellipsoid_voxels(
                ph.spec.shape.dims, geom.center, geom.radii
            )
            total = sum(len(f) for f in geom.fragments)
            assert total == len(ellipsoid)

    def test_fragments_have_equal_sizes(self):
        ph = self.frag_phantom()
        for geom in ph.lesions:
            sizes = [len(f) for f in geom.fragments]
            assert max(sizes) - min(sizes) <= 1

    def test_fragments_are_separate_components(self):
        ph = self.frag_phantom()
        lab = label_components(ph.truth, Connectivity.TWENTY_SIX)
        assert lab.lesion_count == 6  # 2 lesions x 3 clusters

    def test_fragmented_truth_matches_geometry(self):
        ph = self.frag_phantom(seed=11)
        total = sum(
            len(g.support_voxels(ph.spec.shape.dims)) for g in ph.lesions
        )
        assert ph.truth.foreground_count == total


class TestHalo:
    """The cropped dilation, pasted into the grid, against the whole-grid one."""

    @staticmethod
    def pasted(dims, coords):
        box, mask = _halo(dims, coords)
        out = np.zeros(dims, dtype=bool)
        out[box] = mask
        return out

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 3, 1), (9, 7, 5), (20, 17, 9)])
    def test_matches_full_grid_dilation(self, dims):
        rng = np.random.default_rng(sum(dims))
        top = np.array(dims) - 1
        # single voxels at every corner, edge midpoint, face centre and the
        # middle of the grid, then random blobs that may touch any face
        anchors = [np.array([(0, t // 2, t)[c] for c, t in zip(code, top)])
                   for code in np.ndindex(3, 3, 3)]
        blobs = [a.reshape(1, 3) for a in anchors]
        for _ in range(40):
            lo = rng.integers(0, np.array(dims))
            hi = np.minimum(lo + rng.integers(1, 5, 3), dims)
            box = np.argwhere(rng.random(hi - lo) < 0.5) + lo
            blobs.append(box if len(box) else lo.reshape(1, 3))
        for coords in blobs:
            assert np.array_equal(self.pasted(dims, coords),
                                  halo_reference(dims, coords))

    def test_empty_coordinates(self):
        coords = np.empty((0, 3), np.int64)
        box, mask = _halo((4, 5, 6), coords)
        assert mask.size == 0
        assert np.array_equal(self.pasted((4, 5, 6), coords),
                              halo_reference((4, 5, 6), coords))


class TestPickSeeds:
    """The vectorized greedy pick against the voxel-by-voxel loop: the same
    seeds (or None) and the same generator state afterwards."""

    @given(side=st.integers(1, 9), density=st.sampled_from([0.05, 0.3, 0.7, 1.0]),
           k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           rng_seed=st.integers(0, 2**32 - 1))
    @example(side=1, density=1.0, k=2, seed=0, rng_seed=0)     # one voxel, k > 1
    @example(side=3, density=1.0, k=2, seed=0, rng_seed=1)     # no two 3 apart
    @example(side=4, density=1.0, k=8, seed=0, rng_seed=2)     # only the corners
    @example(side=5, density=0.0, k=1, seed=0, rng_seed=3)     # empty support
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, side, density, k, seed, rng_seed):
        support = np.argwhere(
            np.random.default_rng(seed).random((side,) * 3) < density
        ).astype(np.int64) + 7
        rng, ref_rng = (np.random.default_rng(rng_seed) for _ in range(2))
        got = _pick_seeds(rng, support, k)
        want = pick_seeds_reference(ref_rng, support, k)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(np.array(got), np.array(want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestPinnedBytes:
    """sha256 of generate and shrink image and truth bytes for two broken-up
    specs: any change to the phantom bits (placement, seed picks, growth
    draws, halos, shrink order or noise) fails here."""

    @pytest.mark.parametrize("dims, n, radius, seed, digest", [
        ((28, 24, 20), 3, (2.5, 4.0), 61,
         "1f7a70b61972a677746c98d2f84ea5e9ca3b17696df518ec16c374f4ec26a3e4"),
        ((40, 40, 40), 5, (1.5, 5.5), 62,
         "5f5858991a8d3022b3ab73902dec217b9b985fa5b9ab3b4f30eeae1f4deb6dc3"),
    ])
    def test_generate_and_shrink_bytes(self, dims, n, radius, seed, digest):
        ph = generate(spec(dims=dims, n=n, radius=radius, seed=seed,
                           fragmentation_prob=1.0, fragments_per_lesion=(1, 6),
                           noise_sigma=0.4))
        h = hashlib.sha256()
        for p in (ph, shrink(ph, 0.55)):
            h.update(p.image.data.tobytes(order="F"))
            h.update(p.truth.data.tobytes(order="F"))
        assert h.hexdigest() == digest


class TestRetries:
    """generate draws a lesion again when its ellipsoid covers no voxel
    centre and when a fragment gets boxed in; the phantom's image and
    truth bytes are pinned."""

    @staticmethod
    def digest(ph):
        h = hashlib.sha256()
        h.update(ph.image.data.tobytes(order="F"))
        h.update(ph.truth.data.tobytes(order="F"))
        return h.hexdigest()

    def test_boxed_in_blob_is_none(self):
        allowed = np.zeros((3, 3, 3), dtype=bool)
        allowed[1, 1, 1:] = True
        assert _grow_blob(np.random.default_rng(0), (1, 1, 1), 3, allowed) is None
        assert not allowed.any()

    def test_empty_support_is_drawn_again(self, monkeypatch):
        sizes = []

        def voxels(*args):
            sizes.append(len(_ellipsoid_voxels(*args)))
            return _ellipsoid_voxels(*args)

        monkeypatch.setattr(synth_mod, "_ellipsoid_voxels", voxels)
        ph = generate(spec(dims=(6, 6, 6), n=1, radius=(0.3, 0.6), seed=2))
        assert 0 in sizes
        assert ph.truth.foreground_count == 1
        assert self.digest(ph) == ("26fe23131566355c97483785b95fb0e8"
                                   "55a5465076b2d021d089c1c132a0500f")

    def test_boxed_in_fragments_are_drawn_again(self, monkeypatch):
        blobs = []

        def grow(*args):
            blobs.append(_grow_blob(*args))
            return blobs[-1]

        monkeypatch.setattr(synth_mod, "_grow_blob", grow)
        ph = generate(spec(dims=(7, 7, 7), n=1, radius=(2.8, 3.0), seed=1,
                           fragmentation_prob=1.0, fragments_per_lesion=(4, 4)))
        assert any(b is None for b in blobs)
        assert [len(f) for f in ph.lesions[0].fragments] == [23, 23, 23, 22]
        assert self.digest(ph) == ("f6abe279046b5447cd34b7a351f1c6f3"
                                   "5c4e53551b7825ed2e67fadccd0b208c")


class TestShrink:
    def test_identity_at_factor_one(self):
        ph = generate(spec(seed=13, noise_sigma=0.2))
        sh = shrink(ph, 1.0)
        assert np.array_equal(sh.truth.data, ph.truth.data)
        assert np.array_equal(sh.image.data.view(np.uint32),
                              ph.image.data.view(np.uint32))

    def test_cubic_scaling_on_radius_four_sphere(self):
        ph = generate(spec(dims=(24, 24, 24), n=1, radius=(4.0, 4.0), seed=21))
        before = ph.truth.foreground_count
        after = shrink(ph, 0.5).truth.foreground_count
        ratio = after / before
        assert abs(ratio - 0.125) <= 0.4 * 0.125

    def test_shrink_below_voxel_empties_truth(self):
        ph = generate(spec(n=2, radius=(3.0, 3.0), seed=22))
        assert shrink(ph, 0.01).truth.foreground_count == 0

    def test_factor_out_of_range(self):
        ph = generate(spec(seed=23))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                shrink(ph, bad)

    def test_never_grows_any_lesion(self):
        rng = np.random.default_rng(24)
        ph = generate(
            spec(dims=(32, 32, 32), n=3, radius=(2.0, 4.0),
                 fragmentation_prob=0.5, fragments_per_lesion=(2, 3), seed=25)
        )
        dims = ph.spec.shape.dims
        for _ in range(10):
            f = float(rng.uniform(0.05, 1.0))
            sh = shrink(ph, f)
            for g_old, g_new in zip(ph.lesions, sh.lesions):
                old = len(g_old.support_voxels(dims))
                new = len(g_new.support_voxels(dims))
                assert new <= old

    def test_noise_field_is_preserved(self):
        ph = generate(spec(seed=26, noise_sigma=0.3))
        sh = shrink(ph, 0.5)
        outside_both = ~ph.truth.data & ~sh.truth.data
        np.testing.assert_array_equal(
            ph.image.data[outside_both], sh.image.data[outside_both]
        )

    def test_chained_shrink_records_factors(self):
        ph = generate(spec(seed=27))
        sh = shrink(shrink(ph, 0.8), 0.5)
        assert sh.shrink_factors == (0.8, 0.5)

    def test_shrunk_fragments_stay_subsets(self):
        ph = generate(
            spec(dims=(32, 32, 32), n=1, radius=(4.0, 4.0),
                 fragmentation_prob=1.0, fragments_per_lesion=(3, 3), seed=28)
        )
        sh = shrink(ph, 0.7)
        assert not (sh.truth.data & ~ph.truth.data).any()


class TestPhantomFiles:
    def test_save_and_regenerate_round_trip(self, tmp_path):
        ph = generate(spec(seed=31, noise_sigma=0.4))
        prefix = tmp_path / "case"
        save_phantom(ph, prefix)
        loaded_spec, factors = read_phantom_sidecar(str(prefix) + ".spec")
        assert loaded_spec == ph.spec
        assert factors == ()
        regen = regenerate_phantom(loaded_spec, factors)
        on_disk_image = load_volume(str(prefix) + ".image")
        on_disk_truth = load_mask(str(prefix) + ".truth")
        assert np.array_equal(regen.image.data.view(np.uint32),
                              on_disk_image.data.view(np.uint32))
        assert np.array_equal(regen.truth.data, on_disk_truth.data)

    def test_shrunk_phantom_round_trip(self, tmp_path):
        ph = shrink(generate(spec(seed=32)), 0.6)
        prefix = tmp_path / "mid"
        save_phantom(ph, prefix)
        loaded_spec, factors = read_phantom_sidecar(str(prefix) + ".spec")
        assert factors == (0.6,)
        regen = regenerate_phantom(loaded_spec, factors)
        assert np.array_equal(regen.truth.data, ph.truth.data)

    def test_sidecar_text(self, tmp_path):
        # the exact lines, in this order: the key order and value forms are
        # part of the file format
        ph = generate(PhantomSpec(
            GridShape((20, 18, 16), (0.5, 1.25, 3.0)), 2, (1.5, 2.5),
            fragmentation_prob=0.5, fragments_per_lesion=(2, 3),
            noise_sigma=0.4, contrast=1.5, seed=35))
        save_phantom(shrink(shrink(ph, 0.8), 0.5), tmp_path / "x")
        assert (tmp_path / "x.spec").read_text(encoding="utf-8") == (
            "dims=20 18 16\n"
            "spacing=0.5 1.25 3.0\n"
            "n_lesions=2\n"
            "radius_range_vox=1.5 2.5\n"
            "fragmentation_prob=0.5\n"
            "fragments_per_lesion=2 3\n"
            "noise_sigma=0.4\n"
            "contrast=1.5\n"
            "seed=35\n"
            "shrink_factors=0.8 0.5\n"
        )

    def test_sidecar_missing_field(self, tmp_path):
        ph = generate(spec(seed=33))
        save_phantom(ph, tmp_path / "x")
        text = (tmp_path / "x.spec").read_text()
        (tmp_path / "x.spec").write_text(
            "\n".join(l for l in text.splitlines() if not l.startswith("seed="))
        )
        with pytest.raises(ValueError, match="missing"):
            read_phantom_sidecar(tmp_path / "x.spec")

    @pytest.mark.parametrize("extra, message", [
        ("seed=99", "duplicate sidecar field: seed"),
        ("seeds=99", r"unknown sidecar fields: \['seeds'\]"),
    ])
    def test_sidecar_rejects_duplicate_and_unknown_keys(self, tmp_path, extra,
                                                        message):
        save_phantom(generate(spec(seed=34)), tmp_path / "x")
        with open(tmp_path / "x.spec", "a", encoding="utf-8") as fh:
            fh.write(extra + "\n")
        with pytest.raises(ValueError, match=message):
            read_phantom_sidecar(tmp_path / "x.spec")


class TestGeometry:
    def test_ellipsoid_voxel_membership(self):
        coords = _ellipsoid_voxels((9, 9, 9), (4.0, 4.0, 4.0), (2.0, 1.0, 1.0))
        assert (np.array([6, 4, 4]) == coords).all(axis=1).any()
        assert not (np.array([4, 6, 4]) == coords).all(axis=1).any()

    def test_support_voxels_empty_fragments(self):
        g = LesionGeometry((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), ())
        assert g.support_voxels((4, 4, 4)).shape == (0, 3)

    @pytest.mark.parametrize("center", [(-9.0, 2.0, 2.0), (2.0, 20.0, 2.0),
                                        (2.0, 2.0, 4.5), (-5.0, -5.0, 9.0)])
    def test_support_voxels_of_an_ellipsoid_off_the_grid(self, center):
        coords = LesionGeometry(center, (1.5, 1.0, 0.5)).support_voxels((4, 4, 4))
        assert coords.shape == (0, 3) and coords.dtype == np.int64
