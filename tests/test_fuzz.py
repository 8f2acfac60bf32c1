"""Property tests of the file readers on arbitrary values and damaged
files. Needs `hypothesis`; without it only this module is lost."""

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mismatch.cli import DEFAULT_CONFIG
from mismatch.data import (SPLIT_NAMES, TENSOR_MAGIC, CaseSet, gen_caseset,
                           load_caseset, read_tensor, save_caseset,
                           write_tensor)
from mismatch.errors import ConfigError, FormatError
from mismatch.metrics import (MetricsRow, emit_metrics_csv, fmt_float,
                              read_metrics_csv)
from mismatch.nets import Model, init_params
from mismatch.training import echo_value, load_model, save_checkpoint

VALID_ECHO = {"model.variant": "Sup1", "model.channels": "1",
              "model.in_channels": "1", "train.seed": "0"}
MODEL = init_params("Sup1", channels=1, seed=0)
FUZZ = settings(max_examples=300, deadline=None, database=None,
                derandomize=True)

# any text save_checkpoint can encode (no lone surrogates), and numbers
text = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
values = st.one_of(text, st.integers(-2**40, 2**40).map(str),
                   st.sampled_from(sorted(VALID_ECHO.values())))
echoes = st.fixed_dictionaries({k: st.one_of(st.just(v), values)
                                for k, v in VALID_ECHO.items()})
damage = st.tuples(
    st.none() | st.floats(0.0, 1.0),                      # keep this share
    st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 255)),
             max_size=4))                                 # (where, xor)


def _damage(path, damage):
    """Truncate the file at `path` and flip bytes in it."""
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    keep, flips = damage
    if keep is not None:
        del blob[int(keep * len(blob)):]
    for where, xor in flips:
        if blob:
            blob[min(int(where * len(blob)), len(blob) - 1)] ^= xor
    with open(path, "wb") as f:
        f.write(blob)


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as d:
        yield d


@FUZZ
@given(echo=echoes, damage=damage)
@example(echo={**VALID_ECHO, "model.channels": "1" * 5000},
         damage=(None, []))
@example(echo=VALID_ECHO, damage=(None, []))
def test_load_model_returns_model_or_format_error(scratch, echo, damage):
    ckpt_path = os.path.join(scratch, "fuzz.ckpt")
    save_checkpoint(ckpt_path, MODEL, echo)
    _damage(ckpt_path, damage)
    try:
        model, loaded = load_model(ckpt_path)
        # what `mismatch eval` reads of the echo besides the model keys
        echo_value({**DEFAULT_CONFIG, **loaded}, "train.seed")
    except (FormatError, ConfigError):
        return
    assert isinstance(model, Model)


@FUZZ
@given(blob=st.one_of(st.binary(max_size=40),
                      st.binary(max_size=40).map(TENSOR_MAGIC.__add__),
                      st.none()),
       damage=damage)
@example(blob=TENSOR_MAGIC + struct.pack("<66I", 65, *[1] * 65),  # > 64 dims
         damage=(None, []))
def test_read_tensor_returns_array_or_format_error(scratch, blob, damage):
    path = os.path.join(scratch, "fuzz.mmt")
    if blob is None:  # damage a valid tensor file
        write_tensor(path, np.arange(6.0).reshape(1, 2, 3))
        _damage(path, damage)
    else:
        with open(path, "wb") as f:
            f.write(blob)
    try:
        arr = read_tensor(path)
    except FormatError:
        return
    assert isinstance(arr, np.ndarray) and arr.dtype == np.float32


@pytest.fixture(scope="module")
def case_dir(scratch):
    """A saved case set plus tensor pairs no case may be built from."""
    d = os.path.join(scratch, "cases")
    save_caseset(d, gen_caseset(0, "tubes", 4, 1, 8, 0.0))
    for case_id, image, mask in [("flat", (3,), (3,)),
                                 ("odd", (1, 1, 4, 4), (2, 1, 4, 4))]:
        write_tensor(os.path.join(d, f"{case_id}.image.mmt"), np.zeros(image))
        write_tensor(os.path.join(d, f"{case_id}.mask.mmt"), np.zeros(mask))
    return d


# well-formed lines naming good, bad and missing tensor pairs, plus at
# most one line of arbitrary text or bytes
lines = st.tuples(
    st.sampled_from(["case_0000.image.mmt", "case_0001.image.mmt",
                     "flat.image.mmt", "odd.image.mmt", "gone.image.mmt",
                     "case_0000.mask.mmt", "../cases/case_0002.image.mmt"]),
    st.sampled_from(["0", "1", "2"]),
    st.sampled_from(SPLIT_NAMES + ("holdout",))).map(" ".join).map(str.encode)
junk = st.none() | text.map(str.encode) | st.binary(max_size=12)


@FUZZ
@given(manifest=st.lists(lines, max_size=4), junk=junk, at=st.integers(0, 4))
def test_load_caseset_returns_caseset_or_error(case_dir, manifest, junk, at):
    if junk is not None:
        manifest.insert(at, junk)
    path = os.path.join(case_dir, "fuzz-manifest.txt")
    with open(path, "wb") as f:
        f.write(b"\n".join(manifest))
    try:
        caseset = load_caseset(path)
    except (FormatError, ConfigError):
        return
    assert isinstance(caseset, CaseSet)


@FUZZ
@given(experiment=text | st.sampled_from(["a,b", '"', "#x", "#,\"\n\r"]),
       model=text, seed=st.integers(0, 2**40),
       scores=st.tuples(st.floats(0, 1), st.floats(0, 1)))
def test_metrics_csv_round_trips_any_text(scratch, experiment, model, seed,
                                          scores):
    path = os.path.join(scratch, "metrics.csv")
    iou, ece = (float(fmt_float(v)) for v in scores)
    rows = [MetricsRow(experiment, seed, model, iou, ece),
            MetricsRow(model, 0, experiment, ece, iou)]
    emit_metrics_csv(rows, path, header_comments=("experiment=x",))
    assert read_metrics_csv(path) == rows
