"""Every grid is stored x-fastest, as on disk, and is scored one way.

A stored grid is F-contiguous, so its flat x-fastest view shares its
memory: the engine's flat arrays, the files and the grids are one layout.
scipy filters a grid through its C-ordered (z, y, x) view; lesions are
labeled from their flat foreground positions, with no scipy call.
score_volume applies, bit for bit, the product the trainer optimizes.
"""

import inspect

import numpy as np
import pytest
from scipy import ndimage
from scipy.special import expit

from lesionloss.components import (LesionLabeling, label_components,
                                   labeling_to_volume)
from lesionloss.loss import LOSS_KINDS, evaluate_loss
from lesionloss.synth import PhantomSpec, generate, shrink
import lesionloss.trainer as trainer_mod
from lesionloss.trainer import (
    TrainConfig,
    VoxelScorer,
    _prepare_batch,
    _scores,
    extract_features,
    initial_scorer,
)
from lesionloss.volume import (
    GridShape,
    Mask,
    Volume,
    load_mask,
    load_volume,
    save_mask,
    save_volume,
    threshold,
)
from lesionloss.weighting import WeightMap, build_weight_map, weight_map_to_volume

DIMS = (7, 5, 4)


def assert_stored(grid):
    """grid is x-fastest in memory, so its flat x-fastest view is free, and
    read-only."""
    assert grid.ndim == 3
    assert grid.flags.f_contiguous and not grid.flags.writeable
    assert np.shares_memory(grid, grid.ravel(order="F"))


@pytest.fixture
def pair():
    rng = np.random.default_rng(11)
    c_bits = np.ascontiguousarray(rng.random(DIMS) < 0.3)
    c_vals = np.ascontiguousarray(rng.uniform(0.05, 0.95, DIMS).astype(np.float32))
    assert c_bits.flags.c_contiguous and not c_bits.flags.f_contiguous
    return Mask.from_array(c_bits), Volume.from_array(c_vals)


def test_types_built_from_c_arrays(pair):
    gt, pred = pair
    assert_stored(gt.data)
    assert_stored(pred.data)


def test_loaded_grids(pair, tmp_path):
    gt, pred = pair
    save_mask(gt, tmp_path / "g")
    save_volume(pred, tmp_path / "p")
    assert_stored(load_mask(tmp_path / "g").data)
    assert_stored(load_volume(tmp_path / "p").data)


def test_phantom_image_and_truth():
    ph = generate(PhantomSpec(GridShape((12, 10, 9)), 2, (1.3, 2.0),
                              fragmentation_prob=0.5, seed=4))
    for p in (ph, shrink(ph, 0.7)):
        assert_stored(p.image.data)
        assert_stored(p.truth.data)


def test_threshold_labels_and_weights(pair):
    gt, pred = pair
    assert_stored(threshold(pred, 0.5).data)
    labeling = label_components(gt)
    weights = build_weight_map(labeling)
    assert_stored(labeling.labels)
    assert_stored(weights.weights)
    assert_stored(labeling_to_volume(labeling).data)
    assert_stored(weight_map_to_volume(weights).data)


@pytest.mark.parametrize("make, field, dtype", [
    (Volume.from_array, "data", np.float32),
    (Mask.from_array, "data", bool),
    (lambda a: WeightMap(GridShape(a.shape), a), "weights", np.float64),
    (lambda a: LesionLabeling(GridShape(a.shape), a), "labels", np.int32),
])
@pytest.mark.parametrize("order", ["C", "F"])
def test_public_constructors_keep_a_copy(make, field, dtype, order):
    """A grid built by a public constructor is its own copy, even of an
    array of its dtype and layout: changing the caller's array afterwards
    changes nothing in it.  (Only grids that the package has just made are
    handed over without a copy.)"""
    arr = np.ones(DIMS, dtype=dtype, order=order)
    grid = getattr(make(arr), field)
    assert_stored(grid)
    assert not np.shares_memory(grid, arr)
    arr[1, 2, 3] = 0
    assert (grid == 1).all()


def test_scores(pair):
    _, pred = pair
    assert_stored(initial_scorer(0).score_volume(pred).data)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_loss_gradients_single_and_batched(pair, kind):
    gt, pred = pair
    assert_stored(evaluate_loss(kind, gt, pred, want_grad=True).gradient.data)
    for g in evaluate_loss(kind, [gt, gt], [pred, pred], want_grad=True).gradient:
        assert_stored(g.data)


def test_feature_rows_are_one_c_matrix(pair):
    _, pred = pair
    X = extract_features(pred)
    assert X.shape == (pred.shape.voxel_count, 5)
    assert X.T.flags.c_contiguous


def record_calls(monkeypatch, name):
    """Replace ndimage.<name> by a wrapper that records the arguments of
    each call by parameter name; returns the list of records."""
    run = getattr(ndimage, name)
    signature = inspect.signature(run)
    seen = []

    def recorded(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments)
        return run(*args, **kwargs)

    monkeypatch.setattr(ndimage, name, recorded)
    return seen


def test_scipy_walks_contiguous_lines(pair, monkeypatch):
    """Every array extract_features hands to scipy is C-contiguous, and
    each of the three box filters has scipy run axis 2, then 1 of the
    (z, y, x) view: x, then y, as uniform_filter runs the [x, y, z] grid;
    z, axis 0, is summed whole planes at a time (_plane_sums).
    label_components hands scipy nothing."""
    gt, pred = pair
    filters = record_calls(monkeypatch, "uniform_filter1d")
    labels = record_calls(monkeypatch, "label")
    extract_features(pred)
    label_components(gt)
    assert [f["axis"] for f in filters] == [2, 1] * 3
    assert all(isinstance(f["output"], np.ndarray) for f in filters)
    assert not labels
    for args in filters:
        assert all(a.flags.c_contiguous for a in args.values()
                   if isinstance(a, np.ndarray))


@pytest.mark.parametrize("dims, lesions", [((48, 48, 48), 6), ((9, 8, 7), 1)])
def test_score_volume_runs_the_trainers_product(dims, lesions, monkeypatch):
    """The case of dims sits between two of other sizes in one shard, which
    keeps, per case, the 5 x n matrix extract_features wrote; the trainer's
    scores over each case's bounds are score_volume's, bit for bit."""
    cases = [((20, 17, 15), 3), (dims, lesions), ((11, 13, 9), 1)]
    phantoms = [generate(PhantomSpec(GridShape(d), k, (1.2, 2.0),
                                     noise_sigma=0.6, seed=12 + i))
                for i, (d, k) in enumerate(cases)]
    weights = [initial_scorer(0).weights, np.array([1.1, 2.3, -0.4, 0.2, -2.0]),
               np.random.default_rng(5).normal(0.0, 3.0, 5)]
    written = []

    def recorded(image):
        written.append(extract_features(image))
        return written[-1]

    monkeypatch.setattr(trainer_mod, "extract_features", recorded)
    with _prepare_batch(TrainConfig(), phantoms) as (_obj, shards, _pool):
        [(xs, plan)] = shards
        assert len(xs) == len(written) == len(phantoms)
        bounds = plan.bounds
        for x, feats, (a, b) in zip(xs, written, bounds):
            assert x.shape == (5, b - a) and x.flags.c_contiguous
            assert np.shares_memory(x, feats)
        for w in weights:
            z = np.empty(plan.n)
            for x, ph, (a, b) in zip(xs, phantoms, bounds):
                _scores(w, x, out=z[a:b])
                want = expit(np.matmul(w, x))
                assert np.array_equal(z[a:b].view(np.uint64),
                                      want.view(np.uint64))
                scores = VoxelScorer(w).score_volume(ph.image).data
                assert np.array_equal(scores.ravel(order="F"),
                                      z[a:b].astype(np.float32))
