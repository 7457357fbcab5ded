import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from lesionloss import reduction
from lesionloss.components import Connectivity
from lesionloss.loss import TverskyParams
import lesionloss.trainer as trainer_mod
from lesionloss.synth import Phantom, PhantomSpec, generate
from lesionloss.trainer import (
    FEATURE_NAMES,
    BucketRecall,
    LesionRecallReport,
    TRAIN_LOSS_KINDS,
    TrainConfig,
    VoxelScorer,
    evaluate_lesionwise,
    extract_features,
    initial_scorer,
    load_scorer,
    make_corpus,
    save_scorer,
    scorer_loss,
    train,
)
from lesionloss.trainer import _batch_eval, _prepare_batch, _shard_bounds
from lesionloss.volume import GridShape, Mask, ShapeMismatchError, Volume
from lesionloss.weighting import WeightCurveParams

from oracles import features_reference, recall_reference, walk


def tiny_corpus(count=4, seed=70, dims=(14, 14, 14)):
    return make_corpus(count, seed, dims=dims,
                       small_radius=(1.2, 1.6), large_radius=(2.2, 3.0),
                       small_lesions=2, large_lesions=1)


def mixed_corpus():
    """Cases of three sizes, two of them (9^3, 7x8x9) not a multiple of 8
    voxels, in an order whose reverse regroups the runs of equal-size
    cases."""
    dims = [(8, 8, 8), (9, 9, 9), (8, 8, 8), (8, 8, 8), (7, 8, 9)]
    specs = make_corpus(len(dims), 60, small_radius=(1.2, 1.5),
                        large_radius=(2.0, 2.4), small_lesions=1, large_lesions=1)
    return tuple(replace(s, shape=GridShape(d)) for s, d in zip(specs, dims))


def assert_gradient_matches_finite_differences(kind, specs):
    cfg = TrainConfig(loss_kind=kind, train_specs=specs, epochs=1)
    phantoms = [generate(s) for s in specs]
    rng = np.random.default_rng(6)
    theta = rng.normal(0.0, 0.5, len(FEATURE_NAMES))
    _, g = scorer_loss(cfg, theta, phantoms, want_grad=True)
    h = 1e-5
    for j in range(len(FEATURE_NAMES)):
        up = theta.copy()
        up[j] += h
        down = theta.copy()
        down[j] -= h
        fd = (
            scorer_loss(cfg, up, phantoms)[0]
            - scorer_loss(cfg, down, phantoms)[0]
        ) / (2.0 * h)
        assert abs(fd - g[j]) / max(1.0, abs(g[j])) < 1e-3


class TestFeatures:
    def test_shape_and_bias(self):
        rng = np.random.default_rng(1)
        img = Volume.from_array(rng.random((5, 6, 7)).astype(np.float32))
        X = extract_features(img)
        assert X.shape == (5 * 6 * 7, len(FEATURE_NAMES))
        assert (X[:, -1] == 1.0).all()
        np.testing.assert_array_equal(
            X[:, 0], img.data.astype(np.float64).ravel(order="F")
        )

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(2)
        img = Volume.from_array(rng.random((6, 6, 6)).astype(np.float32))
        X = extract_features(img)
        assert (X[:, 3] >= 0.0).all()

    def test_constant_image_variance_zero(self):
        img = Volume.from_array(np.full((5, 5, 5), 0.3, np.float32))
        X = extract_features(img)
        np.testing.assert_allclose(X[:, 3], 0.0, atol=1e-12)
        np.testing.assert_allclose(X[:, 1], 0.3, atol=1e-7)


@st.composite
def feature_images(draw):
    """float32 grids of sides 1-9 (shorter than the 5^3 window or not, cubic
    or not) at a scale from 1e-30 to 1e30: seeded uniform values in
    [-scale, scale], or one such value everywhere."""
    dims = draw(st.tuples(*[st.integers(1, 9)] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-30, 1.0, 1e4, 1e30]))
    shape = () if draw(st.booleans()) else dims
    return np.broadcast_to(rng.uniform(-scale, scale, shape), dims).astype(np.float32)


class TestFeaturesOracle:
    """extract_features is ndimage.uniform_filter on the [x, y, z] grid,
    bit for bit."""

    @given(image=feature_images())
    @example(image=np.full((1, 1, 1), -1e30, np.float32))
    @example(image=np.full((9, 2, 5), 0.3, np.float32))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, image):
        X = extract_features(Volume.from_array(image))
        want = features_reference(image)
        assert np.array_equal(X.view(np.uint64), want.view(np.uint64))


class TestScorer:
    def test_output_is_probability_volume(self):
        rng = np.random.default_rng(3)
        img = Volume.from_array(rng.random((6, 6, 6)).astype(np.float32))
        model = VoxelScorer(np.array([2.0, -1.0, 0.5, 0.1, -0.2]))
        out = model.score_volume(img)
        assert out.is_probability

    def test_weight_count_enforced(self):
        with pytest.raises(ValueError):
            VoxelScorer(np.zeros(4))
        with pytest.raises(ValueError, match="must be finite"):
            VoxelScorer(np.array([0.0, 0.0, np.nan, 0.0, 0.0]))

    def test_initial_scorer_deterministic(self):
        a = initial_scorer(9)
        b = initial_scorer(9)
        assert np.array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, initial_scorer(10).weights)

    def test_save_load_round_trip(self, tmp_path):
        model = VoxelScorer(np.array([0.25, -1.5, 3.0, 0.0, 42.0]))
        save_scorer(model, tmp_path / "m.vec")
        back = load_scorer(tmp_path / "m.vec")
        np.testing.assert_array_equal(
            back.weights, model.weights.astype(np.float32).astype(np.float64)
        )

    def test_load_rejects_garbage(self, tmp_path):
        (tmp_path / "bad.vec").write_bytes(b"nope\x00\x01")
        with pytest.raises(ValueError):
            load_scorer(tmp_path / "bad.vec")


class TestTrain:
    def test_zero_epochs_returns_initial_parameters(self):
        cfg = TrainConfig(loss_kind="tversky", epochs=0, seed=4,
                          train_specs=tiny_corpus())
        model, curve = train(cfg)
        np.testing.assert_array_equal(model.weights, initial_scorer(4).weights)
        assert len(curve) == 1

    def test_deterministic(self):
        cfg = TrainConfig(loss_kind="wlt-combined", epochs=8,
                          train_specs=tiny_corpus())
        m1, c1 = train(cfg)
        m2, c2 = train(cfg)
        assert np.array_equal(m1.weights, m2.weights)
        assert c1 == c2

    def test_descent_with_small_learning_rate(self):
        cfg = TrainConfig(loss_kind="tversky", learning_rate=0.5, epochs=60,
                          seed=5, train_specs=tiny_corpus(6))
        _, curve = train(cfg)
        violations = sum(1 for a, b in zip(curve, curve[1:]) if b > a + 1e-12)
        assert violations <= 0.05 * (len(curve) - 1)
        assert curve[-1] < curve[0]

    def test_invariant_to_phantom_order(self):
        specs = tiny_corpus(5)
        cfg_fwd = TrainConfig(loss_kind="wlt-combined", epochs=6,
                              train_specs=specs)
        cfg_rev = TrainConfig(loss_kind="wlt-combined", epochs=6,
                              train_specs=tuple(reversed(specs)))
        m1, c1 = train(cfg_fwd)
        m2, c2 = train(cfg_rev)
        assert np.array_equal(m1.weights, m2.weights)
        assert c1 == c2

    @pytest.mark.parametrize("kind", ["tversky", "tversky+ce", "wlt-combined"])
    def test_invariant_to_order_of_mixed_sizes(self, kind):
        specs = mixed_corpus()
        m1, c1 = train(TrainConfig(loss_kind=kind, epochs=6, train_specs=specs))
        m2, c2 = train(TrainConfig(loss_kind=kind, epochs=6,
                                   train_specs=tuple(reversed(specs))))
        assert np.array_equal(m1.weights, m2.weights)
        assert c1 == c2

    def test_batch_loss_invariant_to_order_of_mixed_sizes(self):
        # a case's scores must not depend on where it sits in the batch;
        # among these scorers is one for which scoring the whole batch in
        # one matmul (x86-64 OpenBLAS) moves the last voxels' scores by an
        # ulp and breaks the equality
        phantoms = [generate(s) for s in mixed_corpus()]
        cfg = TrainConfig(loss_kind="wlt-combined")
        rng = np.random.default_rng(26)
        for _ in range(40):
            theta = rng.normal(0.0, 2.0, len(FEATURE_NAMES))
            v1, g1 = scorer_loss(cfg, theta, phantoms, want_grad=True)
            v2, g2 = scorer_loss(cfg, theta, phantoms[::-1], want_grad=True)
            assert v1 == v2
            assert np.array_equal(g1, g2)

    @pytest.mark.parametrize("kind", ["tversky", "tversky+ce", "wlt-combined"])
    def test_end_to_end_gradient_matches_finite_differences(self, kind):
        assert_gradient_matches_finite_differences(kind, make_corpus(
            2, 50, dims=(8, 8, 8), small_radius=(1.2, 1.6),
            large_radius=(2.0, 2.4), small_lesions=1, large_lesions=1))

    @pytest.mark.parametrize("kind", ["tversky", "tversky+ce", "wlt-combined"])
    def test_mixed_sizes_gradient_matches_finite_differences(self, kind):
        assert_gradient_matches_finite_differences(kind, mixed_corpus())

    def test_tversky_ce_at_zero_ce_weight_is_tversky(self):
        phantoms = [generate(s) for s in tiny_corpus(3)]
        theta = initial_scorer(9).weights
        params = TverskyParams(alpha=0.6, beta=0.8, smooth=0.5)
        mix = TrainConfig(loss_kind="tversky+ce", tversky=params, ce_weight=0.0)
        plain = TrainConfig(loss_kind="tversky", tversky=params)
        v1, g1 = scorer_loss(mix, theta, phantoms, want_grad=True)
        v2, g2 = scorer_loss(plain, theta, phantoms, want_grad=True)
        assert v1 == v2
        assert np.array_equal(g1, g2)

    def test_divergence_aborts_with_diagnostic(self, monkeypatch):
        # the logistic unit and clamped/ratio losses saturate instead of
        # blowing up, so force a non-finite batch loss to exercise the guard
        import lesionloss.trainer as trainer_mod

        real = trainer_mod._batch_eval
        calls = {"n": 0}

        def poisoned(prep, theta, want_grad):
            calls["n"] += 1
            if calls["n"] >= 3:
                g = np.full(len(FEATURE_NAMES), np.nan) if want_grad else None
                return float("nan"), g
            return real(prep, theta, want_grad)

        monkeypatch.setattr(trainer_mod, "_batch_eval", poisoned)
        cfg = TrainConfig(loss_kind="tversky+ce", epochs=5,
                          train_specs=tiny_corpus(2))
        with pytest.raises(RuntimeError, match="diverged at epoch 2"):
            train(cfg)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflowing_gradient_diverges_without_warnings(self, threads):
        """A weight curve near the float range overflows the ratio
        gradient while the loss stays finite: train says so in its
        RuntimeError, and no pool thread leaks a numpy warning."""
        cfg = TrainConfig(loss_kind="wlt-combined", epochs=2, threads=threads,
                          curve=WeightCurveParams(w_max=1e305),
                          train_specs=make_corpus(2, 100, dims=(12, 12, 12)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"diverged at epoch 0: "
                               r"loss=-0\.15\d*, gradient is non-finite$"):
                train(cfg)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train(TrainConfig(train_specs=()))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="dice")
        for rate in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="learning_rate must be positive"):
                TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            TrainConfig(threads=0)

    def test_negative_corpus_count_rejected(self):
        with pytest.raises(ValueError, match="corpus count must be >= 0"):
            make_corpus(-1, 0)
        assert make_corpus(0, 0) == ()


def shard_corpus():
    """Five cases of four sizes; 18x17x15 is not a multiple of 8 voxels, so
    the cases after it start off the 64-byte alignment of the batch."""
    dims = [(16, 16, 16), (18, 17, 15), (16, 16, 16), (20, 18, 16), (16, 16, 16)]
    specs = tiny_corpus(len(dims), seed=80)
    return tuple(replace(s, shape=GridShape(d)) for s, d in zip(specs, dims))


class TestShardedEpoch:
    @pytest.mark.parametrize("kind", ["tversky", "tversky+ce", "wlt-combined"])
    def test_bit_identical_for_any_thread_count(self, kind):
        specs = shard_corpus()
        phantoms = [generate(s) for s in specs]
        runs = []
        for threads in (1, 2, 3, 8):
            model, curve = train(TrainConfig(loss_kind=kind, epochs=8, seed=2,
                                             train_specs=specs, threads=threads))
            rep = evaluate_lesionwise(model, phantoms)
            runs.append((model.weights.tobytes(), np.array(curve).tobytes(),
                         rep.to_text()))
        assert all(r == runs[0] for r in runs[1:])

    @given(sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=12),
           threads=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_shards_are_contiguous_nonempty_and_cover_each_case_once(
            self, sizes, threads):
        k = min(threads, len(sizes))
        bounds = _shard_bounds(len(sizes), k)
        assert len(bounds) == k
        assert bounds[0][0] == 0 and bounds[-1][1] == len(sizes)
        assert all(first < stop for first, stop in bounds)
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_shards_balance_equal_cases(self):
        assert _shard_bounds(40, 2) == [(0, 20), (20, 40)]
        assert _shard_bounds(40, 3) == [(0, 13), (13, 27), (27, 40)]

    @pytest.mark.parametrize("kind", TRAIN_LOSS_KINDS)
    def test_each_shard_keeps_its_buffers_across_epochs(self, kind,
                                                        monkeypatch):
        """Each shard's plan, and so each buffer, is built once per batch:
        q, the shard's one batch-sized buffer, and two chunks of scratch
        (its trees' leaves and spare).  Every evaluation writes the scores
        into q, and the gradient phase yields each chunk's gradient in the
        leaves."""
        monkeypatch.setattr(reduction, "_CHUNK", 1024)
        cfg = TrainConfig(loss_kind=kind, train_specs=tiny_corpus(3), threads=2)
        phantoms = [generate(s) for s in cfg.train_specs]
        real_truth, plans = trainer_mod._truth, []
        real_gradient, grads = trainer_mod._gradient, []

        def built(*args):
            plans.append(real_truth(*args))
            return plans[-1]

        def recorded(obj, plan, totals):
            for c, g in real_gradient(obj, plan, totals):
                grads.append((plan, g))
                yield c, g

        monkeypatch.setattr(trainer_mod, "_truth", built)
        monkeypatch.setattr(trainer_mod, "_gradient", recorded)
        theta = initial_scorer(0).weights
        with _prepare_batch(cfg, phantoms) as prep:
            _obj, shards, _pool = prep
            assert [plan for _, plan in shards] == plans and len(plans) == 2
            buffers = [(plan.q, plan.trees) for plan in plans]
            for want_grad in (True, False, True):
                _batch_eval(prep, theta, want_grad)
            assert len(plans) == 2
            for plan, (q, trees) in zip(plans, buffers):
                assert plan.q is q and plan.trees is trees
                assert q.shape == (plan.n,) and len(trees.chunks) > 1
                assert trees.leaves.shape == trees.spare.shape == (1024,)
            assert len(grads) == 2 * sum(len(plan.trees.chunks) for plan in plans)
            for plan, g in grads:
                assert np.shares_memory(g, plan.trees.leaves)
                assert not np.shares_memory(g, plan.q)

    @pytest.mark.parametrize("kind", TRAIN_LOSS_KINDS)
    @pytest.mark.parametrize("corpus", [mixed_corpus, shard_corpus])
    def test_bit_identical_for_any_chunk_size(self, kind, corpus):
        """_batch_eval's value and gradient at a chunk of 8 and 64 voxels
        and at the default, each at threads 1, 2 and 3, are the same
        bytes."""
        phantoms = [generate(s) for s in corpus()]
        theta = np.random.default_rng(9).normal(0.0, 0.5, len(FEATURE_NAMES))
        runs = set()
        for chunk in (8, 64, reduction._CHUNK):
            for threads in (1, 2, 3):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(reduction, "_CHUNK", chunk)
                    cfg = TrainConfig(loss_kind=kind, threads=threads)
                    with _prepare_batch(cfg, phantoms) as prep:
                        value, grad = _batch_eval(prep, theta, True)
                runs.add((value.hex(), grad.tobytes()))
        assert len(runs) == 1

    def test_train_peaks_at_features_scores_and_phantoms(self):
        """A 1-epoch train on 4 x 64^3 phantoms holds the features (40 B
        a voxel), the scores q (8 B) and the phantoms (5 B), plus at most
        four chunks of float64 for every other buffer and temporary: a
        batch-sized scratch (8 MiB here) does not fit."""
        specs = make_corpus(4, 300, dims=(64, 64, 64))
        phantoms = [generate(s) for s in specs]
        n = sum(ph.truth.data.size for ph in phantoms)
        held = sum(ph.image.data.nbytes + ph.truth.data.nbytes for ph in phantoms)
        budget = n * (len(FEATURE_NAMES) * 8 + 8) + held + 4 * reduction._CHUNK * 8
        tracemalloc.start()
        try:
            train(TrainConfig(loss_kind="wlt-combined", epochs=1, train_specs=specs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget

    def test_no_thread_outlives_train(self, monkeypatch):
        before = threading.active_count()
        train(TrainConfig(loss_kind="wlt-combined", epochs=2,
                          train_specs=tiny_corpus(3), threads=3))
        assert threading.active_count() == before

        real = trainer_mod._batch_eval

        def poisoned(prep, theta, want_grad):
            value, g = real(prep, theta, want_grad)
            return float("nan"), g

        monkeypatch.setattr(trainer_mod, "_batch_eval", poisoned)
        with pytest.raises(RuntimeError, match="diverged at epoch 0"):
            train(TrainConfig(loss_kind="tversky", epochs=2,
                              train_specs=tiny_corpus(3), threads=3))
        assert threading.active_count() == before


class _OracleModel:
    """Duck-typed stand-in whose scores equal the ground truth."""

    def __init__(self, truth):
        self._vol = Volume(truth.shape, truth.data.astype(np.float32))

    def score_volume(self, image):
        return self._vol


class _ZeroModel:
    def score_volume(self, image):
        return Volume(image.shape, np.zeros(image.shape.dims, np.float32))


def block_truth():
    """One lesion per bucket with exact sizes: 19 (small), 20 and 200
    (medium), 216 (large)."""
    data = np.zeros((40, 24, 24), bool)
    data[0:19, 0, 0] = True                 # line of 19
    data[0:5, 4:8, 4:5] = True              # 5*4*1 = 20
    data[0:10, 10:15, 10:14] = True         # 10*5*4 = 200
    data[20:26, 16:22, 16:22] = True        # 6*6*6 = 216
    return Mask.from_array(data)


class TestEvaluateLesionwise:
    def test_oracle_model_full_recall(self):
        truth = block_truth()
        image = Volume(truth.shape, truth.data.astype(np.float32))
        rep = evaluate_lesionwise(_OracleModel(truth), [(image, truth)], 0.5)
        assert rep.small.lesions_total == 1
        assert rep.medium.lesions_total == 2
        assert rep.large.lesions_total == 1
        assert rep.small.recall == rep.medium.recall == rep.large.recall == 1.0

    def test_zero_model_zero_recall(self):
        truth = block_truth()
        image = Volume(truth.shape, truth.data.astype(np.float32))
        rep = evaluate_lesionwise(_ZeroModel(), [(image, truth)], 0.5)
        assert rep.small.lesions_detected == 0
        assert rep.large.lesions_detected == 0

    def test_detection_needs_half_overlap_in_one_component(self):
        data = np.zeros((12, 6, 6), bool)
        data[0:10, 0, 0] = True  # one 10-voxel lesion
        truth = Mask.from_array(data)

        half = np.zeros((12, 6, 6), np.float32)
        half[0:5, 0, 0] = 1.0   # exactly 50% in one component
        rep = evaluate_lesionwise(
            _FixedModel(half), [(Volume.from_array(half), truth)], 0.5
        )
        assert rep.small.lesions_detected == 1

        split = np.zeros((12, 6, 6), np.float32)
        split[0:3, 0, 0] = 1.0
        split[6:9, 0, 0] = 1.0  # 60% total but split across components
        rep = evaluate_lesionwise(
            _FixedModel(split), [(Volume.from_array(split), truth)], 0.5
        )
        assert rep.small.lesions_detected == 0

    def test_monotone_in_threshold(self):
        specs = tiny_corpus(3, seed=80)
        phantoms = [generate(s) for s in specs]
        model = VoxelScorer(np.array([1.5, 3.0, 1.0, 0.0, -2.0]))
        prev = None
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            rep = evaluate_lesionwise(model, phantoms, t)
            total_detected = (
                rep.small.lesions_detected
                + rep.medium.lesions_detected
                + rep.large.lesions_detected
            )
            if prev is not None:
                assert total_detected <= prev
            prev = total_detected

    def test_accepts_phantoms_directly(self):
        specs = tiny_corpus(2, seed=81)
        phantoms = [generate(s) for s in specs]
        rep = evaluate_lesionwise(_ZeroModel(), phantoms, 0.5)
        assert rep.small.lesions_total + rep.large.lesions_total > 0

    @pytest.mark.parametrize("image", [
        Volume.from_array(np.zeros((8, 8, 8), np.float32)),
        Volume.from_array(np.zeros((9, 9, 9), np.float32), (1.0, 1.0, 2.0)),
    ])
    def test_image_and_truth_grids_must_match(self, image):
        truth = Mask.from_array(np.ones((9, 9, 9), bool))
        with pytest.raises(ShapeMismatchError, match="grid shapes differ"):
            evaluate_lesionwise(_ZeroModel(), [(image, truth)], 0.5)

    @pytest.mark.parametrize("case", [
        (np.zeros((4, 4, 4), np.float32),
         Mask.from_array(np.ones((4, 4, 4), bool))),
        (Mask.from_array(np.ones((4, 4, 4), bool)),
         Volume.from_array(np.zeros((4, 4, 4), np.float32))),
    ], ids=["array_image", "pair_swapped"])
    def test_case_must_be_a_phantom_or_an_image_truth_pair(self, case):
        with pytest.raises(TypeError, match="Phantoms or"):
            evaluate_lesionwise(_ZeroModel(), [case], 0.5)

    @pytest.mark.parametrize("make", [
        lambda v, m: m,
        lambda v, m: (v, m, m),
        lambda v, m: (m, v),
    ], ids=["bare_mask", "three_items", "pair_swapped"])
    def test_case_is_type_checked_before_it_is_unpacked(self, make):
        v = Volume.from_array(np.zeros((4, 4, 4), np.float32))
        m = Mask.from_array(np.ones((4, 4, 4), bool))
        with pytest.raises(TypeError, match="^cases must be Phantoms or "
                                            r"\(Volume, Mask\) pairs$"):
            evaluate_lesionwise(_ZeroModel(), [make(v, m)], 0.5)

    def test_detected_count_bounded_by_total(self):
        with pytest.raises(ValueError, match="detected count must lie"):
            BucketRecall(1, 2)
        with pytest.raises(ValueError, match="detected count must lie"):
            BucketRecall(1, -1)

    def test_report_text(self):
        truth = block_truth()
        image = Volume(truth.shape, truth.data.astype(np.float32))
        rep = evaluate_lesionwise(_OracleModel(truth), [(image, truth)], 0.5)
        text = rep.to_text()
        assert "small_total=1" in text and "large_recall=1" in text

    def test_report_text_lines_in_bucket_order(self):
        rep = LesionRecallReport(BucketRecall(3, 1), BucketRecall(0, 0),
                                 BucketRecall(2, 2))
        assert rep.to_text() == (
            "small_total=3 small_detected=1 small_recall=0.333333\n"
            "medium_total=0 medium_detected=0 medium_recall=0\n"
            "large_total=2 large_detected=2 large_recall=1\n")

    @pytest.mark.parametrize("thresh", [5.0, -0.1, float("nan")])
    def test_threshold_checked_without_cases(self, thresh):
        with pytest.raises(ValueError, match="threshold must lie in"):
            evaluate_lesionwise(_ZeroModel(), [], thresh)

    @pytest.mark.parametrize("connectivity", [7, "x"])
    def test_connectivity_checked_without_cases(self, connectivity):
        with pytest.raises(ValueError, match="is not a valid Connectivity"):
            evaluate_lesionwise(_ZeroModel(), [], 0.5, connectivity)


def degenerate_batch(truth):
    """Noise images of 6^3, 5x4x7 and 3^3 with all-empty, all-foreground or
    mixed truth (one empty, one full and one random case)."""
    rng = np.random.default_rng(91)
    dims = [(6, 6, 6), (5, 4, 7), (3, 3, 3)]
    fills = {"empty": [False] * 3, "full": [True] * 3,
             "mixed": [False, True, None]}[truth]
    phantoms = []
    for i, (d, fill) in enumerate(zip(dims, fills)):
        data = rng.random(d) < 0.3 if fill is None else np.full(d, fill)
        image = Volume.from_array(rng.normal(0.0, 0.6, d).astype(np.float32))
        spec = PhantomSpec(GridShape(d), 0, (1.0, 1.0), seed=900 + i)
        phantoms.append(Phantom(image, Mask.from_array(data), spec))
    return phantoms


class TestDegenerateBatches:
    """All-empty, all-foreground and mixed truth in the trainer, with
    scores that a bias of -800 or +800 saturates to exactly 0.0 or 1.0:
    the value and gradient stay finite and bit-identical for any thread
    count."""

    @pytest.mark.parametrize("kind", TRAIN_LOSS_KINDS)
    @pytest.mark.parametrize("truth", ["empty", "full", "mixed"])
    def test_scorer_loss(self, kind, truth):
        phantoms = degenerate_batch(truth)
        specs = tuple(ph.spec for ph in phantoms)
        for bias in (-800.0, 0.0, 800.0):
            theta = np.array([0.0, 0.0, 0.0, 0.0, bias])
            assert expit(bias) in (0.0, 0.5, 1.0)
            runs = []
            for threads in (1, 2, 3):
                cfg = TrainConfig(loss_kind=kind, train_specs=specs,
                                  threads=threads)
                value, grad = scorer_loss(cfg, theta, phantoms, want_grad=True)
                assert np.isfinite(value) and np.isfinite(grad).all()
                runs.append((float(value).hex(), grad.tobytes()))
            assert runs[1:] == runs[:1] * 2

    @pytest.mark.parametrize("kind", TRAIN_LOSS_KINDS)
    @pytest.mark.parametrize("truth", ["empty", "full", "mixed"])
    def test_train(self, kind, truth, monkeypatch):
        phantoms = degenerate_batch(truth)
        monkeypatch.setattr(trainer_mod, "generate",
                            {ph.spec: ph for ph in phantoms}.__getitem__)
        runs = []
        for threads in (1, 2, 3):
            model, curve = train(TrainConfig(
                loss_kind=kind, epochs=2, seed=4, threads=threads,
                train_specs=tuple(ph.spec for ph in phantoms)))
            assert np.isfinite(curve).all()
            runs.append((model.weights.tobytes(), np.array(curve).tobytes()))
        assert runs[1:] == runs[:1] * 2

    @pytest.mark.parametrize("bias", [-800.0, 0.0, 800.0])
    def test_lesion_free_corpus_has_zero_totals(self, bias):
        phantoms = [generate(replace(s, n_lesions=0)) for s in tiny_corpus(3)]
        model = VoxelScorer(np.array([0.0, 0.0, 0.0, 0.0, bias]))
        rep = evaluate_lesionwise(model, phantoms)
        assert rep.to_text() == (
            "small_total=0 small_detected=0 small_recall=0\n"
            "medium_total=0 medium_detected=0 medium_recall=0\n"
            "large_total=0 large_detected=0 large_recall=0\n")


class _FixedModel:
    def __init__(self, scores):
        self._scores = np.asarray(scores, np.float32)

    def score_volume(self, image):
        return Volume(image.shape, self._scores)


_EMPTY = np.zeros((4, 3, 5), bool)
_BARS = np.zeros((4, 3, 5), bool)    # two lesions; a full prediction spans both
_BARS[:, 0, 0] = _BARS[:, 2, 4] = True


@st.composite
def recall_cases(draw):
    """1-3 (truth, prediction) boolean grids: noise of sides 1-9, each drawn
    at a density from empty to full, or thin random-walk lesions of sides
    6-20, one voxel in 48 at most, the prediction keeping part of each truth
    lesion and adding lesions of its own."""
    cases = []
    for _ in range(draw(st.integers(1, 3))):
        walks = draw(st.booleans())
        dims = draw(st.tuples(*[st.integers(6, 20) if walks else st.integers(1, 9)] * 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if walks:
            steps = int(np.prod(dims)) // 96
            truth = walk(dims, rng, steps, restart=1 / 16)
            keep = rng.random(dims) < draw(st.sampled_from([0.3, 0.6, 1.0]))
            cases.append((truth, truth & keep | walk(dims, rng, steps, restart=1 / 16)))
        else:
            densities = [draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 1.0]))
                         for _ in range(2)]
            cases.append(tuple(rng.random(dims) < d for d in densities))
    return cases


class _EchoModel:
    """Scores each image as itself: the image is the given prediction."""

    def score_volume(self, image):
        return image


class TestRecallOracle:
    """evaluate_lesionwise against the flood-fill recall oracle over
    random truth and prediction grids, in one call per draw."""

    @given(cases=recall_cases(), connectivity=st.sampled_from(list(Connectivity)))
    @example(cases=[(_EMPTY, _BARS)], connectivity=Connectivity.SIX)
    @example(cases=[(_BARS, _EMPTY)], connectivity=Connectivity.SIX)
    @example(cases=[(_BARS, np.ones((4, 3, 5), bool))],
             connectivity=Connectivity.TWENTY_SIX)
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, cases, connectivity):
        rep = evaluate_lesionwise(
            _EchoModel(), [(Volume.from_array(pred.astype(np.float32)),
                            Mask.from_array(truth)) for truth, pred in cases],
            0.5, connectivity)
        want = recall_reference(cases, connectivity)
        for name in ("small", "medium", "large"):
            b = getattr(rep, name)
            assert (b.lesions_total, b.lesions_detected) == want[name]


class TestMakeCorpus:
    def test_alternating_families(self):
        specs = make_corpus(6, 100)
        assert specs[0].radius_range_vox == (1.3, 1.7)
        assert specs[1].radius_range_vox == (3.8, 4.4)
        assert [s.seed for s in specs] == [100, 101, 102, 103, 104, 105]

    @pytest.mark.parametrize("count, start, seeds", [
        (2, -5, "-5..-4"),
        (2, 2**64 - 1, f"{2**64 - 1}..{2**64}"),
        (1, 2**64, f"{2**64}..{2**64}"),
    ])
    def test_seeds_outside_64_bits_rejected(self, count, start, seeds):
        with pytest.raises(ValueError, match=rf"^corpus seeds {seeds} must lie "
                                             r"in \[0, 2\*\*64\)$"):
            make_corpus(count, start)

    def test_seeds_at_the_64_bit_bounds_accepted(self):
        assert [s.seed for s in make_corpus(2, 2**64 - 2)] == [2**64 - 2,
                                                              2**64 - 1]
        assert make_corpus(0, -5) == ()

    def test_corpus_mixture_covers_both_buckets(self):
        specs = make_corpus(8, 200)
        phantoms = [generate(s) for s in specs]
        rep = evaluate_lesionwise(_ZeroModel(), phantoms, 0.5)
        assert rep.small.lesions_total > 0
        assert rep.large.lesions_total > 0
