"""Segmentation overlap and calibration metrics, and the CSV table codec.

ECE follows the binned recipe: pixels are bucketed by confidence, and the
expected calibration error is the count-weighted mean absolute gap
between per-bin accuracy and per-bin mean confidence.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import astuple, dataclass

import numpy as np

from .data import write_atomic
from .errors import DimensionError, FormatError, ParameterError

METRICS_COLUMNS = {"experiment": str, "seed": int, "model": str, "iou": float,
                   "ece": float}
RELIABILITY_COLUMNS = {"bin_low": float, "bin_high": float, "count": int,
                       "accuracy": float, "confidence": float}
RELIABILITY_SLICES_COLUMNS = {"scope": str, "head": str, **RELIABILITY_COLUMNS}


def fmt_float(v: float) -> str:
    return f"{float(v):.10g}"


def binarize(probs: np.ndarray) -> np.ndarray:
    """The foreground rule p >= 0.5; ties go to foreground."""
    return np.asarray(probs) >= 0.5


def iou(pred: np.ndarray, gt: np.ndarray) -> float:
    """Intersection over union of two binary masks; 1.0 when both are
    empty (nothing to find, nothing found)."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"iou: shapes {pred.shape} and {gt.shape} differ")
    p = pred != 0
    g = gt != 0
    union = np.logical_or(p, g).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, g).sum() / union)


@dataclass
class ReliabilityBins:
    edges: np.ndarray       # (m+1,) bin boundaries
    counts: np.ndarray      # (m,) pixels per bin
    accuracy: np.ndarray    # (m,) mean correctness, 0.0 for empty bins
    confidence: np.ndarray  # (m,) mean confidence, 0.0 for empty bins

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def reliability_bins(probs: np.ndarray, gt: np.ndarray, m_bins: int = 10,
                     confidence: str = "max") -> ReliabilityBins:
    """Bucket pixels into equal-width confidence bins; a pixel is correct
    when `binarize` agrees with its ground truth.

    confidence="max" uses max(p, 1-p) over [0.5, 1.0] (the prediction's
    own confidence); confidence="raw" uses the foreground probability over
    [0.0, 1.0]. Intervals are right-closed with the first bin left-closed,
    so every pixel lands in exactly one bin. Empty bins keep count 0 and
    zero accuracy/confidence, and weigh nothing in the ECE.
    """
    if m_bins < 1:
        raise ParameterError("m_bins must be >= 1")
    if confidence not in ("max", "raw"):
        raise ParameterError(f"unknown confidence mode {confidence!r}")
    p = np.asarray(probs, dtype=np.float64).ravel()
    g = np.asarray(gt, dtype=np.float64).ravel()
    if p.shape != g.shape:
        raise DimensionError(f"reliability_bins: {p.shape} vs {g.shape}")
    correct = (binarize(p) == (g != 0)).astype(np.float64)
    if confidence == "max":
        conf = np.maximum(p, 1.0 - p)
        lo = 0.5
    else:
        conf = p
        lo = 0.0
    edges = np.linspace(lo, 1.0, m_bins + 1)
    idx = np.clip(np.searchsorted(edges, conf, side="left") - 1, 0, m_bins - 1)
    counts = np.bincount(idx, minlength=m_bins)
    acc_sum = np.bincount(idx, weights=correct, minlength=m_bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=m_bins)
    nz = counts > 0
    accuracy = np.zeros(m_bins)
    conf_mean = np.zeros(m_bins)
    accuracy[nz] = acc_sum[nz] / counts[nz]
    conf_mean[nz] = conf_sum[nz] / counts[nz]
    return ReliabilityBins(edges=edges, counts=counts, accuracy=accuracy,
                           confidence=conf_mean)


def ece(bins: ReliabilityBins) -> float:
    """Count-weighted mean |accuracy - confidence| across bins."""
    n = bins.n
    if n == 0:
        raise ParameterError("ece is undefined over zero pixels")
    w = bins.counts / n
    return float(np.sum(w * np.abs(bins.accuracy - bins.confidence)))


# ---------------------------------------------------------------------------
# CSV tables

def write_table(path, columns: dict[str, type], rows,
                header_comments: tuple[str, ...] = ()) -> None:
    """The one CSV writer: "# " comment lines, the header, then the rows,
    float columns through fmt_float and other cells through str. A cell is
    quoted only when it holds a comma, a quote or a line break."""
    text = io.StringIO()
    text.writelines(f"# {line}\n" for line in header_comments)
    minimal = csv.writer(text, lineterminator="\n")
    # csv quotes a bare "\r" only when it is part of the line terminator
    quote_all = csv.writer(text, lineterminator="\n", quoting=csv.QUOTE_ALL)
    minimal.writerow(columns)
    fmts = [fmt_float if kind is float else str for kind in columns.values()]
    for row in rows:
        cells = [fmt(v) for fmt, v in zip(fmts, row, strict=True)]
        (quote_all if any("\r" in c for c in cells) else minimal).writerow(
            cells)
    write_atomic(path, text.getvalue().encode("utf-8"))


def read_table(path, columns: dict[str, type]) -> list[list]:
    """The one CSV reader: skips the comment lines before the header, checks
    the header, and converts each cell by its column's type. Any mismatch is
    a FormatError."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            body = itertools.dropwhile(lambda ln: ln.startswith("#"), f)
            rows = [row for row in csv.reader(body, strict=True) if row]
    except (UnicodeDecodeError, csv.Error) as e:
        raise FormatError(f"{path}: {e}") from None
    if not rows or rows[0] != list(columns):
        raise FormatError(f"bad header in {path}, expected "
                          f"{','.join(columns)}")
    try:
        return [[kind(cell) for kind, cell in
                 zip(columns.values(), row, strict=True)] for row in rows[1:]]
    except ValueError as e:  # a missing or extra field, or a bad number
        raise FormatError(f"{path}: a row does not match the columns "
                          f"{','.join(columns)}: {e}") from None


def reliability_rows(bins: ReliabilityBins, *key):
    """One diagram's rows in bin order, each led by the cells of `key`
    (reliability_slices.csv keys them by scope and head)."""
    return ((*key, *row) for row in zip(bins.edges[:-1], bins.edges[1:],
            bins.counts, bins.accuracy, bins.confidence))


def emit_reliability_csv(bins: ReliabilityBins, path,
                         header_comments: tuple[str, ...] = ()) -> None:
    write_table(path, RELIABILITY_COLUMNS, reliability_rows(bins),
                header_comments)


def read_reliability_csv(path) -> ReliabilityBins:
    rows = read_table(path, RELIABILITY_COLUMNS)
    lows, highs, counts, accs, confs = ([np.array(c) for c in zip(*rows)]
                                        or [np.array([])] * 5)
    return ReliabilityBins(edges=np.append(lows, highs[-1:]), counts=counts,
                           accuracy=accs, confidence=confs)


@dataclass
class MetricsRow:
    experiment: str
    seed: int
    model: str
    iou: float
    ece: float


def emit_metrics_csv(rows: list[MetricsRow], path,
                     header_comments: tuple[str, ...] = ()) -> None:
    write_table(path, METRICS_COLUMNS, map(astuple, rows), header_comments)


def read_metrics_csv(path) -> list[MetricsRow]:
    return [MetricsRow(*row) for row in read_table(path, METRICS_COLUMNS)]
