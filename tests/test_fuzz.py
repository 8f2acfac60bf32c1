"""Property tests of the checkpoint reader on arbitrary echo values and
damaged files. Needs `hypothesis`; without it only this module is lost."""

import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mismatch.cli import DEFAULT_CONFIG
from mismatch.errors import ConfigError, FormatError
from mismatch.nets import Model, init_params
from mismatch.training import echo_value, load_model, save_checkpoint

VALID_ECHO = {"model.variant": "Sup1", "model.channels": "1",
              "model.in_channels": "1", "train.seed": "0"}
MODEL = init_params("Sup1", channels=1, seed=0)

# any text save_checkpoint can encode (no lone surrogates), and numbers
values = st.one_of(st.text(st.characters(exclude_categories=("Cs",)),
                           max_size=12),
                   st.integers(-2**40, 2**40).map(str),
                   st.sampled_from(sorted(VALID_ECHO.values())))
echoes = st.fixed_dictionaries({k: st.one_of(st.just(v), values)
                                for k, v in VALID_ECHO.items()})
damage = st.tuples(
    st.none() | st.floats(0.0, 1.0),                      # keep this share
    st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 255)),
             max_size=4))                                 # (where, xor)


@pytest.fixture(scope="module")
def ckpt_path():
    with tempfile.TemporaryDirectory() as d:
        yield os.path.join(d, "fuzz.ckpt")


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(echo=echoes, damage=damage)
@example(echo={**VALID_ECHO, "model.channels": "1" * 5000},
         damage=(None, []))
@example(echo=VALID_ECHO, damage=(None, []))
def test_load_model_returns_model_or_format_error(ckpt_path, echo, damage):
    save_checkpoint(ckpt_path, MODEL, echo)
    with open(ckpt_path, "rb") as f:
        blob = bytearray(f.read())
    keep, flips = damage
    if keep is not None:
        del blob[int(keep * len(blob)):]
    for where, xor in flips:
        if blob:
            blob[min(int(where * len(blob)), len(blob) - 1)] ^= xor
    with open(ckpt_path, "wb") as f:
        f.write(blob)
    try:
        model, loaded = load_model(ckpt_path)
        # what `mismatch eval` reads of the echo besides the model keys
        echo_value({**DEFAULT_CONFIG, **loaded}, "train.seed")
    except (FormatError, ConfigError):
        return
    assert isinstance(model, Model)
