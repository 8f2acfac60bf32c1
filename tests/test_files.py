"""On-disk formats through their public readers and writers: CSV cells
with commas, quotes and a leading '#' round-trip, damaged rows are a
FormatError, and a failed write leaves the previous file in place."""

import errno
import io
import os

import pytest

from mismatch import data
from mismatch.cli import main
from mismatch.data import write_tensor
from mismatch.errors import FormatError
from mismatch.metrics import (MetricsRow, emit_metrics_csv,
                              emit_reliability_csv, read_metrics_csv,
                              read_reliability_csv, reliability_bins)
from mismatch.nets import init_params
from mismatch.training import (HistoryRow, read_history_csv, save_checkpoint,
                               write_history_csv)

ECHO = {"model.variant": "Sup1", "model.channels": "1",
        "model.in_channels": "1", "train.seed": "0"}
MODEL = init_params("Sup1", channels=1, seed=0)
BINS = reliability_bins([0.1, 0.6, 0.9], [0, 1, 1], 2)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["gen-data", "--kind", "tubes", "--cases", "4", "--slices",
                 "2", "--size", "8", "--seed", "0", "--out", str(out)]) == 0
    return str(out / "manifest.txt")


@pytest.mark.parametrize("flag,echoed", [
    ("a,b", None),
    (None, '#x,"y"'),
    ('"q", #2\nz', "default"),
])
def test_eval_metrics_csv_round_trips_experiment(dataset, tmp_path, flag,
                                                 echoed):
    ckpt = tmp_path / "m.ckpt"
    echo = ECHO if echoed is None else {**ECHO, "experiment": echoed}
    save_checkpoint(ckpt, MODEL, echo)
    argv = ["eval", "--checkpoint", str(ckpt), "--data", dataset,
            "--out", str(tmp_path / "eval")]
    assert main(argv + (["--experiment", flag] if flag else [])) == 0
    (row,) = read_metrics_csv(tmp_path / "eval" / "metrics.csv")
    assert row.experiment == (flag or echoed)
    assert (row.seed, row.model) == (0, "Sup1")


WRITERS = {
    "history": (lambda p: write_history_csv(p, [HistoryRow(0, 0, 0.5, 0.5,
                                                           0.0, 0.0, 1.0)]),
                read_history_csv),
    "metrics": (lambda p: emit_metrics_csv([MetricsRow("x", 0, "MM", 0.5,
                                                       0.1)], p),
                read_metrics_csv),
    "reliability": (lambda p: emit_reliability_csv(BINS, p),
                    read_reliability_csv),
}


def _extra_field(body):
    header, first, rest = body.split("\n", 2)
    return f"{header}\n{first},7\n{rest}"


def _open_quote(body):
    return body[:-1] + ',"\n'


def _not_a_number(body):
    return body.replace("0.5", "half", 1)


@pytest.mark.parametrize("table", sorted(WRITERS))
@pytest.mark.parametrize("damage", [_extra_field, _open_quote,
                                    _not_a_number])
def test_damaged_csv_row_is_format_error(tmp_path, table, damage):
    write, read = WRITERS[table]
    path = tmp_path / f"{table}.csv"
    write(path)
    read(path)
    path.write_text(damage(path.read_text()))
    with pytest.raises(FormatError):
        read(path)


class _HalfFile(io.FileIO):
    """A file whose write stores half the bytes, then fails."""

    def write(self, b):
        super().write(bytes(b)[:len(b) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("name,write", [
    ("m.ckpt", lambda p, v: save_checkpoint(p, MODEL, {**ECHO, "v": v})),
    ("metrics.csv", lambda p, v: emit_metrics_csv(
        [MetricsRow(v, 0, "MM", 0.5, 0.1)], p)),
    ("t.mmt", lambda p, v: write_tensor(p, [[float(len(v))]])),
])
def test_failed_write_leaves_previous_file(tmp_path, monkeypatch, name,
                                           write):
    path = tmp_path / name
    write(path, "old")
    assert os.listdir(tmp_path) == [name]
    before = path.read_bytes()
    with monkeypatch.context() as m:
        m.setattr(data, "open", _HalfFile, raising=False)
        with pytest.raises(OSError, match="No space"):
            write(path, "a new, longer value")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [name]


def test_writes_keep_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    save_checkpoint(tmp_path / "m.ckpt", MODEL, ECHO)
    emit_metrics_csv([], tmp_path / "metrics.csv")
    for name in ("m.ckpt", "metrics.csv"):
        assert (tmp_path / name).stat().st_mode == plain.stat().st_mode
