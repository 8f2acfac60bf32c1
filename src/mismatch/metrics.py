"""Segmentation overlap and calibration metrics, and the CSV table codec.

ECE follows the binned recipe: pixels are bucketed by confidence, and the
expected calibration error is the count-weighted mean absolute gap
between per-bin accuracy and per-bin mean confidence.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import astuple, dataclass
from types import SimpleNamespace

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
    return float(slice_ious(np.asarray(pred)[None], np.asarray(gt)[None])[0])


def slice_ious(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """`iou` of each pair of masks along the leading axis."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"iou: shapes {pred.shape} and {gt.shape} differ")
    n = pred.shape[0]
    p = (pred != 0).reshape(n, -1 if n else 0)
    g = (gt != 0).reshape(p.shape)
    union = np.logical_or(p, g).sum(axis=1)
    return np.divide(np.logical_and(p, g).sum(axis=1), union,
                     out=np.ones(n), where=union > 0)


@dataclass
class ReliabilityBins:
    edges: np.ndarray       # (m+1,) bin boundaries
    counts: np.ndarray      # (m,) pixels per bin
    accuracy: np.ndarray    # (m,) mean correctness, 0.0 for empty bins
    confidence: np.ndarray  # (m,) mean confidence, 0.0 for empty bins

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def _edges(m_bins: int, confidence: str) -> np.ndarray:
    if m_bins < 1:
        raise ParameterError("m_bins must be >= 1")
    if confidence not in ("max", "raw"):
        raise ParameterError(f"unknown confidence mode {confidence!r}")
    return np.linspace(0.5 if confidence == "max" else 0.0, 1.0, m_bins + 1)


def _bin_parts(probs, gt, edges: np.ndarray, confidence: str):
    """The float64 parts of every diagram, per pixel in ravel order: its
    bin index, its correctness (1.0 when `binarize` agrees with the ground
    truth) and its confidence."""
    p = np.asarray(probs, dtype=np.float64).ravel()
    truth = np.asarray(gt).ravel() != 0
    if p.shape != truth.shape:
        raise DimensionError(f"reliability_bins: {p.shape} vs {truth.shape}")
    correct = (binarize(p) == truth).astype(np.float64)
    conf = np.maximum(p, 1.0 - p) if confidence == "max" else p
    m_bins = len(edges) - 1
    idx = np.clip(np.searchsorted(edges, conf, side="left") - 1, 0, m_bins - 1)
    return idx, correct, conf


def _diagrams(edges, counts, acc_sum, conf_sum) -> list[ReliabilityBins]:
    """One diagram per row of the (k, m_bins) per-bin sums."""
    nz = counts > 0
    accuracy = np.zeros(counts.shape)
    conf_mean = np.zeros(counts.shape)
    accuracy[nz] = acc_sum[nz] / counts[nz]
    conf_mean[nz] = conf_sum[nz] / counts[nz]
    return [ReliabilityBins(edges, *row)
            for row in zip(counts, accuracy, conf_mean)]


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
    edges = _edges(m_bins, confidence)
    idx, correct, conf = _bin_parts(probs, gt, edges, confidence)
    return _diagrams(edges, *(np.bincount(idx, w, m_bins)[None]
                              for w in (None, correct, conf)))[0]


class PooledBins:
    """One pooled reliability diagram of max(p, 1-p) confidence, fed a
    stack of slices at a time, which also returns each fed slice's own
    diagram.

    Every pixel is binned once. Bin counts and correct-sums are exact
    integers, and each bin's confidences are added onto its running total
    in pixel order, so the pooled diagram is bitwise `reliability_bins`
    over every fed pixel concatenated, and each slice's diagram is that
    over the slice alone. Only the per-bin sums are kept between stacks.
    """

    def __init__(self, m_bins: int = 10):
        self.edges = _edges(m_bins, "max")
        self.counts = np.zeros(m_bins, dtype=np.intp)
        self.acc_sum = np.zeros(m_bins)
        self.conf_sum = np.zeros(m_bins)

    def add(self, probs: np.ndarray, gt: np.ndarray) -> list[ReliabilityBins]:
        """Pool a stack of slices (leading axis) and return their diagrams,
        from one bincount over slice * m_bins + bin keys per sum."""
        probs = np.asarray(probs)
        if probs.shape != np.shape(gt):
            raise DimensionError(f"reliability_bins: {probs.shape} vs "
                                 f"{np.shape(gt)}")
        idx, correct, conf = _bin_parts(probs, gt, self.edges, "max")
        n, m = probs.shape[0], len(self.counts)
        keys = (idx.reshape(n, -1 if n else 0)
                + np.arange(0, n * m, m)[:, None]).ravel()
        sums = [np.bincount(keys, w, n * m).reshape(n, m)
                for w in (None, correct, conf)]
        self.counts += sums[0].sum(axis=0)
        self.acc_sum += sums[1].sum(axis=0)
        np.add.at(self.conf_sum, idx, conf)  # unbuffered, in pixel order
        return _diagrams(self.edges, *sums)

    def bins(self) -> ReliabilityBins:
        return _diagrams(self.edges, self.counts[None], self.acc_sum[None],
                         self.conf_sum[None])[0]


def ece(bins: ReliabilityBins) -> float:
    """Count-weighted mean |accuracy - confidence| across bins."""
    n = bins.n
    if n == 0:
        raise ParameterError("ece is undefined over zero pixels")
    w = bins.counts / n
    return float(np.sum(w * np.abs(bins.accuracy - bins.confidence)))


# ---------------------------------------------------------------------------
# CSV tables

# Rows write_table holds as text at once: it hands the file a table's text
# a piece of this many rows at a time, so a table of any length or label
# size never holds its whole text.
TABLE_PIECE_ROWS = 1024


def write_table(path, columns: dict[str, type], rows,
                header_comments: tuple[str, ...] = ()) -> None:
    """The one CSV writer: "# " comment lines, the header, then the rows,
    float columns through fmt_float and other cells through str. A cell is
    quoted only when it holds a comma, a quote or a line break."""
    lines = [f"# {line}\n" for line in header_comments]
    sink = SimpleNamespace(write=lines.append)  # csv writes one line a row
    minimal = csv.writer(sink, lineterminator="\n")
    # csv quotes a bare "\r" only when it is part of the line terminator
    quote_all = csv.writer(sink, lineterminator="\n", quoting=csv.QUOTE_ALL)
    fmts = [fmt_float if kind is float else str for kind in columns.values()]

    def pieces():
        minimal.writerow(columns)
        for row in rows:
            cells = [fmt(v) for fmt, v in zip(fmts, row, strict=True)]
            (quote_all if any("\r" in c for c in cells) else minimal
             ).writerow(cells)
            if len(lines) >= TABLE_PIECE_ROWS:
                yield "".join(lines).encode("utf-8")
                lines.clear()
        yield "".join(lines).encode("utf-8")

    write_atomic(path, pieces())


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
