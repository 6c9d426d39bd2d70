import math

import numpy as np
import pytest

from canids.detectors import KnnDetector
from canids.errors import EmptyData, KTooLarge, WrongWidth
from canids.features import FeatureMatrix
from canids.neighbors import LocalOutlierFactor, NeighborIndex


def brute_force_knn(refs, query, k):
    """Oracle: per-pair distances with plain loops, full sort by
    (distance, row id)."""
    dists = []
    for i, r in enumerate(refs):
        dists.append((math.dist(r, query), i))
    dists.sort()
    return dists[:k]


def brute_force_lof(refs, k):
    """Naive LOF straight from the definition, loops everywhere."""
    n = len(refs)
    neigh = []
    kdist = []
    for i in range(n):
        d = sorted((math.dist(refs[i], refs[j]), j)
                   for j in range(n) if j != i)[:k]
        neigh.append([j for _, j in d])
        kdist.append(d[-1][0])
    lrd = []
    for i in range(n):
        reach = [max(kdist[j], math.dist(refs[i], refs[j])) for j in neigh[i]]
        total = sum(reach)
        lrd.append(math.inf if total == 0 else k / total)
    lof = []
    for i in range(n):
        mean_lrd = sum(lrd[j] for j in neigh[i]) / k
        if math.isinf(mean_lrd) and math.isinf(lrd[i]):
            lof.append(1.0)
        else:
            lof.append(mean_lrd / lrd[i])
    return np.array(lof)


def nearest(index, x, k):
    """(distance, reference id) pairs of the k nearest references to x."""
    dists, ids = index.query(np.atleast_2d(x), k)
    return list(zip(dists[0].tolist(), ids[0].tolist()))


def lof_of_refs(refs, k):
    return LocalOutlierFactor(k).fit(refs).fit_scores()


def knn_vote(refs, labels, x, k):
    """(predictions, scores) of a KnnDetector fitted on refs."""
    det = KnnDetector(k=k).fit(FeatureMatrix(refs, labels, (0,)))
    scores = det.score(x)
    return det.decide(scores), scores


def test_query_exact_match_is_zero():
    refs = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
    index = NeighborIndex(refs)
    pairs = nearest(index, np.array([3.0, 4.0]), 1)
    assert pairs == [(0.0, 1)]


def test_query_1d_two_refs():
    index = NeighborIndex(np.array([[0.0], [10.0]]))
    pairs = nearest(index, np.array([1.0]), 2)
    assert pairs == [(1.0, 0), (9.0, 1)]


def test_query_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 6))
        refs = rng.normal(size=(n, d))
        if rng.random() < 0.3:
            # exact duplicates force distance ties
            refs[rng.integers(0, n)] = refs[rng.integers(0, n)]
        query = rng.normal(size=d)
        k = int(rng.integers(1, n + 1))
        index = NeighborIndex(refs)
        got = nearest(index, query, k)
        want = brute_force_knn(refs, query, k)
        assert [i for _, i in got] == [i for _, i in want]
        for (dg, _), (dw, _) in zip(got, want):
            assert dg == pytest.approx(dw, abs=1e-9)


def test_query_tie_break_low_row_id():
    refs = np.array([[1.0], [1.0], [1.0], [2.0]])
    index = NeighborIndex(refs)
    pairs = nearest(index, np.array([1.0]), 3)
    assert [i for _, i in pairs] == [0, 1, 2]


def test_query_k_too_large():
    index = NeighborIndex(np.ones((3, 2)))
    with pytest.raises(KTooLarge):
        index.query(np.ones((1, 2)), 4)
    with pytest.raises(KTooLarge):
        index.query(np.ones((1, 2)), 0)


def test_query_width_mismatch():
    index = NeighborIndex(np.ones((3, 2)))
    with pytest.raises(WrongWidth):
        index.query(np.ones((1, 3)), 1)


def test_empty_reference_matrix():
    with pytest.raises(EmptyData):
        NeighborIndex(np.empty((0, 2)))


def test_knn_detector_k1_nearest_label():
    refs = np.array([[0.0], [10.0]])
    labels = np.array([0, 1])
    pred, score = knn_vote(refs, labels, np.array([[1.0]]), 1)
    assert pred[0] == 0 and score[0] == 0.0
    pred, score = knn_vote(refs, labels, np.array([[9.0]]), 1)
    assert pred[0] == 1 and score[0] == 1.0


def test_knn_detector_majority_and_score():
    refs = np.array([[0.0], [1.0], [2.0]])
    labels = np.array([1, 1, 0])
    pred, score = knn_vote(refs, labels, np.array([[0.5]]), 3)
    assert pred[0] == 1
    assert score[0] == pytest.approx(2 / 3)


def test_knn_detector_tie_goes_to_anomaly():
    refs = np.array([[0.0], [2.0]])
    labels = np.array([1, 0])
    pred, score = knn_vote(refs, labels, np.array([[1.0]]), 2)
    assert score[0] == 0.5 and pred[0] == 1


# --- LOF ---------------------------------------------------------------------

def test_lof_identical_points_convention():
    refs = np.zeros((6, 2))
    lof = LocalOutlierFactor(3).fit(refs)
    assert np.all(lof.fit_scores() == 1.0)


def test_lof_uniform_grid_interior_near_one():
    refs = np.arange(30, dtype=float).reshape(-1, 1)
    scores = lof_of_refs(refs, 2)
    interior = scores[5:25]
    assert np.all(np.abs(interior - 1.0) < 0.05)


def test_lof_isolated_point_stands_out():
    rng = np.random.default_rng(1)
    cluster = rng.normal(0, 0.5, size=(20, 2))
    radius = np.linalg.norm(cluster, axis=1).max()
    outlier = np.array([[10 * radius, 0.0]])
    refs = np.vstack([cluster, outlier])
    scores = lof_of_refs(refs, 3)
    assert scores[-1] > 1.5
    assert scores[-1] > scores[:-1].max()


def test_lof_matches_naive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(8, 30))
        k = int(rng.integers(2, min(6, n - 1)))
        refs = rng.normal(size=(n, 3))
        got = lof_of_refs(refs, k)
        want = brute_force_lof(refs, k)
        assert np.allclose(got, want, rtol=1e-9)


def test_lof_translation_and_scale_invariance():
    rng = np.random.default_rng(3)
    refs = rng.normal(size=(40, 4))
    base = lof_of_refs(refs, 5)
    shifted = lof_of_refs(refs + 100.0, 5)
    scaled = lof_of_refs(refs * 7.0, 5)
    assert np.allclose(base, shifted, rtol=1e-7)
    assert np.allclose(base, scaled, rtol=1e-9)


def test_lof_reach_distance_floor():
    # reach(p, o) never drops below o's k-distance
    rng = np.random.default_rng(4)
    refs = rng.normal(size=(25, 2))
    refs[3] = refs[7]  # duplicate inside a neighborhood
    k = 4
    lof = LocalOutlierFactor(k).fit(refs)
    dists, ids = lof.index.query(refs, k, exclude_self=True)
    reach = np.maximum(lof.ref_kdist[ids], dists)
    assert np.all(reach >= lof.ref_kdist[ids] - 1e-15)


def test_lof_heldout_scoring():
    rng = np.random.default_rng(5)
    cluster = rng.normal(0, 1.0, size=(50, 2))
    lof = LocalOutlierFactor(5).fit(cluster)
    inlier = lof.score(np.array([[0.1, -0.2]]))
    outlier = lof.score(np.array([[30.0, 30.0]]))
    assert outlier[0] > 3.0
    assert inlier[0] < 1.5


def test_lof_k_too_large():
    with pytest.raises(KTooLarge):
        LocalOutlierFactor(5).fit(np.ones((5, 1)))
