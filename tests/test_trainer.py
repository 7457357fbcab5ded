from dataclasses import replace

import numpy as np
import pytest

from lesionloss.loss import TverskyParams
from lesionloss.synth import generate
from lesionloss.trainer import (
    FEATURE_NAMES,
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
from lesionloss.volume import GridShape, Mask, Volume


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

        def poisoned(cfg, prep, theta, want_grad):
            calls["n"] += 1
            if calls["n"] >= 3:
                g = np.full(len(FEATURE_NAMES), np.nan) if want_grad else None
                return float("nan"), g
            return real(cfg, prep, theta, want_grad)

        monkeypatch.setattr(trainer_mod, "_batch_eval", poisoned)
        cfg = TrainConfig(loss_kind="tversky+ce", epochs=5,
                          train_specs=tiny_corpus(2))
        with pytest.raises(RuntimeError, match="diverged at epoch 2"):
            train(cfg)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train(TrainConfig(train_specs=()))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="dice")
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)

    def test_negative_corpus_count_rejected(self):
        with pytest.raises(ValueError, match="corpus count must be >= 0"):
            make_corpus(-1, 0)
        assert make_corpus(0, 0) == ()


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

    def test_report_text(self):
        truth = block_truth()
        image = Volume(truth.shape, truth.data.astype(np.float32))
        rep = evaluate_lesionwise(_OracleModel(truth), [(image, truth)], 0.5)
        text = rep.to_text()
        assert "small_total=1" in text and "large_recall=1" in text


class _FixedModel:
    def __init__(self, scores):
        self._scores = np.asarray(scores, np.float32)

    def score_volume(self, image):
        return Volume(image.shape, self._scores)


class TestMakeCorpus:
    def test_alternating_families(self):
        specs = make_corpus(6, 100)
        assert specs[0].radius_range_vox == (1.3, 1.7)
        assert specs[1].radius_range_vox == (3.8, 4.4)
        assert [s.seed for s in specs] == [100, 101, 102, 103, 104, 105]

    def test_corpus_mixture_covers_both_buckets(self):
        specs = make_corpus(8, 200)
        phantoms = [generate(s) for s in specs]
        rep = evaluate_lesionwise(_ZeroModel(), phantoms, 0.5)
        assert rep.small.lesions_total > 0
        assert rep.large.lesions_total > 0
