import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canids import neighbors
from canids.detectors import KnnDetector, LofDetector
from canids.errors import EmptyData, KTooLarge
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


def fixed_order_knn(refs, q, k, skip=None):
    """(squared distances, ids) of the k references first by (squared
    distance, id), leaving out reference skip; each squared distance is
    sum((q - r) ** 2), the column terms added left to right."""
    sq = np.array([sum((q - r) ** 2) for r in refs])
    ids = [j for j in sorted(range(len(refs)), key=lambda j: (sq[j], j))
           if j != skip][:k]
    return sq[ids], np.array(ids)


def assert_fixed_order_neighbours(refs, queries, k, exclude_self=False):
    dists, ids = NeighborIndex(refs).query(queries, k, exclude_self)
    for i, q in enumerate(queries):
        want_sq, want_ids = fixed_order_knn(refs, q, k,
                                            i if exclude_self else None)
        assert ids[i].tolist() == want_ids.tolist()
        assert dists[i].tobytes() == np.sqrt(want_sq).tobytes()


def nearest(index, x, k):
    """(distance, reference id) pairs of the k nearest references to x."""
    dists, ids = index.query(np.atleast_2d(x), k)
    return list(zip(dists[0].tolist(), ids[0].tolist()))


def lof_of_refs(refs, k):
    return LocalOutlierFactor(k).fit(refs).ref_lof


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
        # bit for bit: distances are the square roots of the fixed-order
        # sums, and ids rank by (that sum, id)
        want_sq, want_ids = fixed_order_knn(refs, query, k)
        assert [i for _, i in got] == want_ids.tolist()
        assert np.array([d for d, _ in got]).tobytes() == \
            np.sqrt(want_sq).tobytes()


def test_exclude_self_matches_fixed_order_ranking():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(3, 40))
        d = int(rng.integers(1, 6))
        refs = rng.normal(size=(n, d))
        if rng.random() < 0.5:
            refs[rng.integers(0, n, size=n // 2)] = refs[rng.integers(0, n)]
        k = int(rng.integers(1, n))
        assert_fixed_order_neighbours(refs, refs, k, exclude_self=True)


def test_query_is_exact_far_from_the_origin():
    """References at a large common offset: the expansion ||q||^2 +
    ||r||^2 - 2 q.r loses the small distances to cancellation and
    reorders them, and the exact recomputation must not."""
    rng = np.random.default_rng(7)
    refs = 1e4 + rng.normal(scale=1e-3, size=(300, 8))
    refs[10] = refs[20]  # an exact tie as well
    queries = 1e4 + rng.normal(scale=1e-3, size=(40, 8))
    queries[0] = refs[20]
    assert_fixed_order_neighbours(refs, queries, 7)
    assert_fixed_order_neighbours(refs, refs, 5, exclude_self=True)


# --- repeated reference rows ---------------------------------------------------

# few values, so rows repeat and distinct rows tie at one distance; -0.0 and
# 0.0 make rows that differ in their bytes only
TIE_VALUES = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def repeated_rows(draw):
    """(refs, queries): references drawn from a few distinct rows, often
    more copies of one than k, and queries that are copies or new rows."""
    d = draw(st.integers(1, 4))
    row = st.lists(TIE_VALUES, min_size=d, max_size=d)
    distinct = draw(st.lists(row, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2,
                          max_size=40))
    refs = np.array([distinct[j] for j in picks])
    queries = np.array(draw(st.lists(st.one_of(row, st.sampled_from(distinct)),
                                     min_size=1, max_size=8)))
    return refs, queries


@settings(max_examples=300, deadline=None)
@given(case=repeated_rows(), data=st.data())
def test_query_over_repeated_rows_matches_fixed_order_ranking(case, data):
    refs, queries = case
    k = data.draw(st.integers(1, len(refs)))
    assert_fixed_order_neighbours(refs, queries, k)
    assert_fixed_order_neighbours(refs, refs, min(k, len(refs) - 1),
                                  exclude_self=True)


@pytest.mark.parametrize("size", ["1", "k", "k+2"])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_exclude_self_inside_a_group(size, k):
    """The query's own row repeats 1, k or k + 2 times among the
    references, around copies of other rows at one distance."""
    copies = {"1": 1, "k": k, "k+2": k + 2}[size]
    rows = [[0.0, 0.0]] * copies + [[1.0, 0.0], [0.0, 1.0]] * (k + 1)
    refs = np.array(rows)[np.random.default_rng(k).permutation(len(rows))]
    assert_fixed_order_neighbours(refs, refs, k, exclude_self=True)


def test_signed_zero_rows_are_separate_groups_at_one_distance():
    refs = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0],
                     [1.0, 1.0]])
    dists, ids = NeighborIndex(refs).query(np.array([[0.0, 1.0]]), 4)
    assert ids.tolist() == [[0, 1, 2, 3]]
    assert dists.tolist() == [[0.0, 0.0, 0.0, 0.0]]
    assert_fixed_order_neighbours(refs, refs, 3, exclude_self=True)


@pytest.mark.parametrize("exclude_self", [False, True])
@pytest.mark.parametrize("k", [5, 20])
def test_duplicate_heavy_query_matches_fixed_order_ranking(k, exclude_self):
    """CAN-like rows, most of them copies of a few patterns: the distances
    and ids are the bytes of the fixed-order ranking over every reference,
    with and without each row's own id."""
    rng = np.random.default_rng(11)
    refs = tied_features(rng, 300)
    queries = refs if exclude_self else tied_features(rng, 100)
    assert_fixed_order_neighbours(refs, queries, k, exclude_self)


# --- prefix groups ----------------------------------------------------------------

# last values: ties, -0.0 and 0.0, and floats that need not tie
LAST_VALUES = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 3.0]),
                        st.floats(-4.0, 4.0))


@st.composite
def prefix_grouped_rows(draw):
    """(refs, queries): CAN-like references of width 1, 2 or 3, drawn as a
    few prefix patterns (all columns but the last), each with 1 to 12
    last values, plus repeated rows; queries are new rows over those
    patterns or over new prefixes."""
    d = draw(st.sampled_from([1, 2, 3]))
    prefix = st.lists(TIE_VALUES, min_size=d - 1, max_size=d - 1)
    patterns = draw(st.lists(prefix, min_size=1, max_size=4))
    rows = [pattern + [last] for pattern in patterns
            for last in draw(st.lists(LAST_VALUES, min_size=1, max_size=12))]
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1),
                                            min_size=1, max_size=10))]
    refs = np.array(draw(st.permutations(rows)))
    query = st.builds(lambda p, last: p + [last],
                      st.one_of(st.sampled_from(patterns), prefix), LAST_VALUES)
    return refs, np.array(draw(st.lists(query, min_size=1, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(case=prefix_grouped_rows(), data=st.data())
def test_prefix_groups_match_fixed_order_ranking(case, data):
    """Groups of one row, groups smaller than k and groups larger: the
    distances and ids of new rows, and of the references themselves with
    their own ids left out, are the bytes of the fixed-order ranking."""
    refs, queries = case
    k = data.draw(st.integers(1, len(refs)))
    assert_fixed_order_neighbours(refs, queries, k)
    assert_fixed_order_neighbours(refs, refs, min(k, len(refs) - 1),
                                  exclude_self=True)


@pytest.mark.parametrize("exclude_self", [False, True])
@pytest.mark.parametrize("k", [1, 5, 20])
def test_exact_distances_per_row_stay_near_k(k, exclude_self):
    """On tied CAN-like rows the bounds leave few candidates: the search
    computes at most 4 k exact distances per query row on average."""
    rng = np.random.default_rng(13)
    refs = tied_features(rng, 2000)
    queries = refs if exclude_self else tied_features(rng, 200)
    evals = []
    exact_sq = NeighborIndex._exact_sq

    def spy(self, *args):
        sq = exact_sq(self, *args)
        evals.append(len(sq))
        return sq

    with mock.patch.object(NeighborIndex, "_exact_sq", spy):
        NeighborIndex(refs).query(queries, k, exclude_self)
    assert sum(evals) <= 4 * k * len(queries)


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
    assert np.all(lof.ref_lof == 1.0)


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


# --- block budget ---------------------------------------------------------------

def tied_features(rng, n, width=67):
    """CAN-like rows: a few payload bit patterns and coarse intervals, so
    that many rows are exact duplicates and distances tie."""
    patterns = (rng.random((6, width - 3)) < 0.3).astype(float)
    intervals = np.round(rng.exponential(1.0, size=(n, 3)), 1)
    return np.hstack([patterns[rng.integers(0, 6, n)], intervals])


@pytest.mark.parametrize("budget", [1, 1 << 30])
def test_scores_do_not_depend_on_the_budget(budget):
    """One-row blocks and one-pair slices, or one block for everything:
    knn scores, LOF fit scores and LOF scores stay byte-identical."""
    rng = np.random.default_rng(8)
    train = FeatureMatrix(tied_features(rng, 400),
                          (rng.random(400) < 0.3).astype(np.int8),
                          tuple(range(67)))
    test = tied_features(rng, 150)

    def scores():
        knn = KnnDetector(k=5).fit(train)
        lof = LofDetector(k=10).fit(train)
        return [knn.score(test), lof.lof.ref_lof, lof.score(test)]

    want = scores()
    with mock.patch.object(neighbors, "_BUDGET_BYTES", budget):
        got = scores()
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def traced_peak(fn):
    """(result, peak bytes traced during fn beyond what was held before)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_neighbour_search_stays_within_the_budget():
    """3000 queries and a LOF fit against 12 000 references, some of them
    duplicates with wide candidate bands, peak within the byte budget
    plus 2 MB beyond the (distances, ids) they return."""
    rng = np.random.default_rng(9)
    refs = rng.normal(size=(12_000, 67))
    refs[rng.integers(0, len(refs), 300)] = refs[0]
    queries = rng.normal(size=(3000, 67))
    queries[:100] = refs[0]
    index = NeighborIndex(refs)
    slack = neighbors._BUDGET_BYTES + (2 << 20)
    (dists, ids), peak = traced_peak(lambda: index.query(queries, 5))
    assert peak <= slack + dists.nbytes + ids.nbytes
    k = 20
    _, peak = traced_peak(lambda: LocalOutlierFactor(k).fit(refs))
    # fit's own (n, k) distances, ids and reachability arrays
    assert peak <= slack + 4 * len(refs) * k * 8


def test_search_of_a_row_repeated_50_000_times_stays_within_the_budget():
    """One row copied 50 000 times among 2000 others, queried by copies
    of itself: the query and a LOF fit peak within the byte budget plus
    2 MB beyond the arrays they return."""
    rng = np.random.default_rng(12)
    refs = rng.normal(size=(52_000, 67))
    refs[2000:] = refs[0]
    queries = np.repeat(refs[:1], 3000, axis=0)
    index = NeighborIndex(refs)
    slack = neighbors._BUDGET_BYTES + (2 << 20)
    (dists, ids), peak = traced_peak(lambda: index.query(queries, 5))
    assert peak <= slack + dists.nbytes + ids.nbytes
    assert ids.tolist() == [[0, 2000, 2001, 2002, 2003]] * len(queries)
    k = 20
    _, peak = traced_peak(lambda: LocalOutlierFactor(k).fit(refs))
    # fit's own (n, k) distances, ids and reachability arrays
    assert peak <= slack + 4 * len(refs) * k * 8
