"""Property tests of the file readers on arbitrary values and damaged
files. Needs `hypothesis`; without it only this module is lost."""

import contextlib
import io
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mismatch.cli import DEFAULT_CONFIG, main
from mismatch.data import (SPLIT_NAMES, TENSOR_MAGIC, CaseSet, gen_caseset,
                           load_caseset, read_tensor, save_caseset,
                           write_tensor)
from mismatch.errors import ConfigError, FormatError
from mismatch.metrics import (MetricsRow, emit_metrics_csv, fmt_float,
                              read_metrics_csv)
from mismatch.nets import Model, init_params
from mismatch.training import echo_value, load_model, save_checkpoint
from oracles import clone_params

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


# a non-finite value written over one parameter, or none
poison = st.none() | st.tuples(
    st.integers(0, MODEL.flat.data.size - 1),
    st.sampled_from([np.nan, np.inf, -np.inf]))


@FUZZ
@given(echo=echoes, damage=damage, poison=poison)
@example(echo={**VALID_ECHO, "model.channels": "1" * 5000},
         damage=(None, []), poison=None)
@example(echo=VALID_ECHO, damage=(None, []), poison=None)
@example(echo=VALID_ECHO, damage=(None, []), poison=(0, np.nan))
@example(echo=VALID_ECHO, damage=(None, []), poison=(7, -np.inf))
def test_load_model_returns_model_or_format_error(scratch, echo, damage,
                                                  poison):
    ckpt_path = os.path.join(scratch, "fuzz.ckpt")
    model = MODEL
    if poison is not None:
        model = clone_params(MODEL)
        model.flat.data[poison[0]] = poison[1]
    save_checkpoint(ckpt_path, model, echo)
    _damage(ckpt_path, damage)
    try:
        model, loaded = load_model(ckpt_path)
        # what `mismatch eval` reads of the echo besides the model keys
        echo_value({**DEFAULT_CONFIG, **loaded}, "train.seed")
    except (FormatError, ConfigError):
        return
    assert isinstance(model, Model)
    assert np.isfinite(model.flat.data).all()


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
                                 ("odd", (1, 1, 4, 4), (2, 1, 4, 4)),
                                 ("empty", (0, 1, 4, 4), (0, 1, 4, 4))]:
        write_tensor(os.path.join(d, f"{case_id}.image.mmt"), np.zeros(image))
        write_tensor(os.path.join(d, f"{case_id}.mask.mmt"), np.zeros(mask))
    # well-shaped pairs with a NaN, an inf or a mask value outside {0, 1}
    for case_id, image, mask in [("nan", np.nan, 0.0), ("inf", -np.inf, 1.0),
                                 ("grey", 0.0, 0.5), ("nanmask", 0.0, np.nan)]:
        write_tensor(os.path.join(d, f"{case_id}.image.mmt"),
                     np.full((1, 1, 4, 4), image))
        write_tensor(os.path.join(d, f"{case_id}.mask.mmt"),
                     np.full((1, 1, 4, 4), mask))
    return d


# well-formed lines naming good, bad and missing tensor pairs, plus at
# most one line of arbitrary text or bytes
lines = st.tuples(
    st.sampled_from(["case_0000.image.mmt", "case_0001.image.mmt",
                     "flat.image.mmt", "odd.image.mmt", "gone.image.mmt",
                     "nan.image.mmt", "inf.image.mmt", "grey.image.mmt",
                     "nanmask.image.mmt", "empty.image.mmt",
                     "case_0000.mask.mmt",
                     "../cases/case_0002.image.mmt"]),
    st.sampled_from(["0", "1", "2"]),
    st.sampled_from(SPLIT_NAMES + ("holdout",))).map(" ".join).map(str.encode)
junk = st.none() | text.map(str.encode) | st.binary(max_size=12)


@FUZZ
@given(manifest=st.lists(lines, max_size=4), junk=junk, at=st.integers(0, 4))
@example(manifest=[b"empty.image.mmt 0 test"], junk=None, at=0)
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
    for case in caseset.cases:
        assert case.image.size > 0
        assert np.isfinite(case.image).all()
        assert ((case.mask == 0) | (case.mask == 1)).all()


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


# config files: arbitrary bytes, or key=value lines over the real keys (and
# one unknown key) with arbitrary values, under each line ending or followed
# by stray bytes
config_lines = st.lists(st.tuples(
    st.sampled_from(sorted(DEFAULT_CONFIG) + ["model.width"]),
    st.one_of(text, st.sampled_from(sorted(DEFAULT_CONFIG.values()))),
).map("=".join), max_size=4)
config_blobs = st.one_of(
    st.binary(max_size=40),
    st.tuples(config_lines, st.sampled_from(["\n", "\r\n", "\r"])).map(
        lambda t: t[1].join(t[0]).encode()),
    st.tuples(config_lines, st.binary(max_size=4)).map(
        lambda t: "\n".join(t[0]).encode() + t[1]))


@FUZZ
@given(blob=config_blobs)
@example(blob=b"\xff")
@example(blob=b"model.channels=2\n\xfe\xff")
@example(blob=b"train.epochs=\xc3")
def test_config_file_fails_with_one_error_line(scratch, blob):
    # the manifest is missing, so even a valid config ends in exit 3
    config = os.path.join(scratch, "fuzz.cfg")
    with open(config, "wb") as f:
        f.write(blob)
    out = os.path.join(scratch, "fuzz-run")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["train", "--variant", "MM", "--config", config,
                   "--data", os.path.join(scratch, "missing.txt"),
                   "--out", out])
    assert rc == 3
    assert sum(ln.startswith("MM-ERR:")
               for ln in err.getvalue().splitlines()) == 1
    assert not os.path.exists(out)
