"""The benchmark's per-model counters read fitted detectors without
failing: perfbench/workloads.py's model_counts, imported from the source
tree, returns an int for every counter of every detector."""

import sys
from pathlib import Path

import pytest

from canids.detectors import ALL_MODELS, make_detector

from test_detectors import FAST_PARAMS, fit_view, small_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", ALL_MODELS)
def test_model_counts_read_every_detector(workloads, name):
    det = make_detector(name, FAST_PARAMS[name], seed=1)
    det.fit(fit_view(det, small_dataset(seed=25)),
            val=small_dataset(seed=26, n=120))
    counts = workloads.model_counts(name, det, 50)
    assert counts
    assert all(type(v) is int for v in counts.values()), counts
