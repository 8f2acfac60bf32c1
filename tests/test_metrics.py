import numpy as np
import pytest

from mismatch.errors import DimensionError, FormatError, ParameterError
from mismatch.metrics import (MetricsRow, ReliabilityBins, binarize, ece,
                              emit_metrics_csv, emit_reliability_csv, iou,
                              read_metrics_csv, read_reliability_csv,
                              reliability_bins)
from oracles import naive_ece


# ---------------------------------------------------------------------------
# overlap

def test_iou_worked_example():
    pred = np.array([1, 1, 0, 0])
    gt = np.array([0, 1, 1, 0])
    assert iou(pred, gt) == 1.0 / 3.0  # exact: 1 and 3 are representable


def test_iou_edge_cases():
    empty = np.zeros((4, 4))
    assert iou(empty, empty) == 1.0
    full = np.ones((4, 4))
    assert iou(full, full) == 1.0
    assert iou(full, empty) == 0.0
    with pytest.raises(DimensionError):
        iou(np.zeros(3), np.zeros(4))


def test_iou_is_symmetric_and_layout_blind():
    rng = np.random.default_rng(90)
    for _ in range(10):
        a = rng.random((6, 6)) < 0.4
        b = rng.random((6, 6)) < 0.4
        assert iou(a, b) == iou(b, a)
        perm = rng.permutation(36)
        assert iou(a.ravel()[perm], b.ravel()[perm]) == iou(a, b)


def test_binarize_threshold_and_ties():
    probs = np.array([0.2, 0.5, 0.8])
    np.testing.assert_array_equal(binarize(probs), [False, True, True])


# ---------------------------------------------------------------------------
# calibration

def test_single_bin_ece_worked_example():
    # both pixels are 75% confident, half are right: |0.5 - 0.75| = 0.25
    probs = np.array([0.75, 0.25])
    gt = np.array([1.0, 1.0])
    bins = reliability_bins(probs, gt, m_bins=1)
    assert bins.counts.tolist() == [2]
    assert ece(bins) == pytest.approx(0.25, abs=1e-15)


def test_ece_from_prescribed_bins():
    # counts 40/60 with gaps 0.1/0.2 -> 0.4*0.1 + 0.6*0.2 = 0.16
    bins = ReliabilityBins(edges=np.array([0.5, 0.75, 1.0]),
                           counts=np.array([40, 60]),
                           accuracy=np.array([0.8, 0.7]),
                           confidence=np.array([0.9, 0.9]))
    assert ece(bins) == pytest.approx(0.16, abs=1e-15)


def test_perfectly_calibrated_constant_prediction():
    # 70% of pixels are foreground and every pixel says 0.7
    gt = np.zeros(100)
    gt[:70] = 1.0
    bins = reliability_bins(np.full(100, 0.7), gt, m_bins=10)
    assert ece(bins) == pytest.approx(0.0, abs=1e-12)


def test_reliability_binning_is_right_closed():
    # a confidence exactly on an interior edge joins the bin below it
    probs = np.array([0.55, 0.551])
    bins = reliability_bins(probs, np.ones(2), m_bins=10)
    assert bins.counts[0] == 1 and bins.counts[1] == 1
    # the left edge of the first bin is closed
    lowest = reliability_bins(np.array([0.5]), np.ones(1), m_bins=10)
    assert lowest.counts[0] == 1 and lowest.n == 1


def test_empty_bins_carry_no_weight():
    probs = np.array([0.99, 0.98, 0.97])
    bins = reliability_bins(probs, np.ones(3), m_bins=10)
    assert bins.counts[:9].sum() == 0
    assert np.all(bins.accuracy[:9] == 0) and np.all(bins.confidence[:9] == 0)
    assert ece(bins) == pytest.approx(abs(1.0 - probs.mean()), abs=1e-12)


def test_ece_matches_bruteforce_oracle():
    rng = np.random.default_rng(91)
    for trial in range(100):
        n = int(rng.integers(1, 400))
        probs = rng.random(n)
        gt = (rng.random(n) < 0.5).astype(float)
        m = int(rng.integers(1, 15))
        mode = "max" if trial % 2 == 0 else "raw"
        got = ece(reliability_bins(probs, gt, m_bins=m, confidence=mode))
        want = naive_ece(probs, gt, m, confidence=mode)
        assert abs(got - want) < 1e-12


def test_raw_confidence_spans_unit_interval():
    probs = np.array([0.05, 0.95])
    bins = reliability_bins(probs, np.array([0.0, 1.0]), m_bins=10,
                            confidence="raw")
    assert bins.edges[0] == 0.0 and bins.edges[-1] == 1.0
    assert bins.counts[0] == 1 and bins.counts[9] == 1


def test_reliability_validation():
    with pytest.raises(ParameterError):
        reliability_bins(np.ones(3), np.ones(3), m_bins=0)
    with pytest.raises(ParameterError):
        reliability_bins(np.ones(3), np.ones(3), confidence="softmax")
    with pytest.raises(DimensionError):
        reliability_bins(np.ones(3), np.ones(4))
    with pytest.raises(ParameterError):
        ece(ReliabilityBins(np.array([0.5, 1.0]), np.array([0]),
                            np.zeros(1), np.zeros(1)))


# ---------------------------------------------------------------------------
# CSV files

def test_reliability_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(92)
    bins = reliability_bins(rng.random(500), (rng.random(500) < 0.5), 10)
    path = tmp_path / "reliability.csv"
    emit_reliability_csv(bins, path, header_comments=("model=MM",))
    text = path.read_text()
    assert text.startswith("# model=MM\n")
    assert text.splitlines()[1] == "bin_low,bin_high,count,accuracy,confidence"
    back = read_reliability_csv(path)
    np.testing.assert_allclose(back.edges, bins.edges, atol=1e-9)
    np.testing.assert_array_equal(back.counts, bins.counts)
    np.testing.assert_allclose(back.accuracy, bins.accuracy, atol=1e-9)
    np.testing.assert_allclose(back.confidence, bins.confidence, atol=1e-9)
    assert abs(ece(back) - ece(bins)) < 1e-9


def test_metrics_csv_roundtrip(tmp_path):
    rows = [MetricsRow("tubes", 0, "MM", 0.7512345678, 0.0123456789),
            MetricsRow("tubes", 1, "Sup1", 0.6, 0.05)]
    path = tmp_path / "metrics.csv"
    emit_metrics_csv(rows, path, header_comments=("data.kind=tubes",))
    text = path.read_text()
    assert text.splitlines()[1] == "experiment,seed,model,iou,ece"
    assert read_metrics_csv(path) == rows


def test_csv_readers_reject_bad_headers(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("iou,ece\n0.5,0.1\n")
    with pytest.raises(FormatError):
        read_metrics_csv(p)
    with pytest.raises(FormatError):
        read_reliability_csv(p)
