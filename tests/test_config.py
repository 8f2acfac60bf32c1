"""The config schema and malformed input through the command line: every
rejected value leaves with one MM-ERR: line and a documented exit code,
before any output file is written."""

import os
import struct

import pytest

from mismatch.cli import DEFAULT_CONFIG, main
from mismatch.data import TENSOR_MAGIC
from mismatch.nets import init_params
from mismatch.training import CHECKPOINT_MAGIC, save_checkpoint

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SMALL = ["--set", "model.channels=2", "--set", "train.epochs=1",
         "--set", "train.save_last_k=1", "--set", "data.labelled_slices=2"]
SUP1_ECHO = {"model.variant": "Sup1", "model.channels": "1",
             "model.in_channels": "1", "train.seed": "0"}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["gen-data", "--kind", "tubes", "--cases", "4", "--slices",
                 "2", "--size", "8", "--seed", "0", "--out", str(out)]) == 0
    return str(out / "manifest.txt")


def _checkpoint(path, echo):
    save_checkpoint(path, init_params("Sup1", channels=1, seed=0), echo)
    return str(path)


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("MM-ERR:"), err


def test_readme_config_block_equals_defaults():
    with open(README) as f:
        text = f.read()
    block = text.split("Keys and defaults:\n\n", 1)[1].split("\n\n", 1)[0]
    pairs = [tuple(tok.split("=", 1)) for tok in block.split()]
    assert pairs == list(DEFAULT_CONFIG.items())


@pytest.mark.parametrize("variant,setting", [
    ("MM", "data.augment_noise=abc"),
    ("Sup1", "data.augment_noise=abc"),
    ("MM", "data.augment_noise=-1"),
    ("MM", "data.labelled_slices=abc"),
    ("MM", "model.in_channels=0"),
    ("MM", "train.seed=-1"),
    ("MM", "loss.alpha_max=nan"),
    ("MM", "loss.dice_smooth=nan"),
    ("MM", "train.lr=inf"),
    ("Sup1", "model.channels=99999999999999999999999"),
    # int() and float() strip these, but they would split the echo lines
    ("MM", "train.seed=\n5"),
    ("MM", "train.lr=\r0.01"),
    ("MM", "train.epochs=\u20282"),
])
def test_train_rejects_malformed_config(dataset, tmp_path, capsys, variant,
                                        setting):
    rc = main(["train", "--variant", variant, "--data", dataset,
               "--out", str(tmp_path / "run")] + SMALL + ["--set", setting])
    assert rc == 3
    _one_error_line(capsys)
    assert not list(tmp_path.rglob("history.csv"))


@pytest.mark.parametrize("key,value", [("model.channels", "two"),
                                       ("train.seed", "x")])
def test_eval_rejects_malformed_checkpoint_echo(dataset, tmp_path, capsys,
                                                key, value):
    ckpt = _checkpoint(tmp_path / "bad.ckpt", {**SUP1_ECHO, key: value})
    rc = main(["eval", "--checkpoint", ckpt, "--data", dataset,
               "--out", str(tmp_path / "eval")])
    assert rc == 3
    _one_error_line(capsys)
    assert not list(tmp_path.rglob("per_image.csv"))


def test_sweep_rejects_non_finite_alpha(dataset, tmp_path, capsys):
    rc = main(["sweep-alpha", "--data", dataset, "--values", "nan",
               "--out", str(tmp_path / "sweep")] + SMALL)
    assert rc == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("dims", [(65536,) * 4,
                                  (0, 2**32 - 1, 2**32 - 1, 2**32 - 1)])
def test_readers_reject_oversized_dims(dataset, tmp_path, capsys, dims):
    # (65536,)*4 has 2**64 elements, which wraps to 0 in int64; the second
    # shape holds no elements but cannot be shaped by numpy
    header = struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}I",
                                                          *dims)
    echo = "".join(f"{k}={v}\n" for k, v in SUP1_ECHO.items()).encode()
    name = b"enc0.main1.w"
    bad_ckpt = tmp_path / "dims.ckpt"
    bad_ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(echo))
                         + echo + struct.pack("<II", 1, len(name)) + name
                         + header)
    rc = main(["eval", "--checkpoint", str(bad_ckpt), "--data", dataset,
               "--out", str(tmp_path / "a")])
    assert rc == 3
    _one_error_line(capsys)

    data = tmp_path / "data"
    data.mkdir()
    for suffix in (".image.mmt", ".mask.mmt"):
        (data / f"case{suffix}").write_bytes(TENSOR_MAGIC + header)
    (data / "manifest.txt").write_text("case.image.mmt 0 test\n")
    ckpt = _checkpoint(tmp_path / "good.ckpt", SUP1_ECHO)
    rc = main(["eval", "--checkpoint", ckpt,
               "--data", str(data / "manifest.txt"),
               "--out", str(tmp_path / "b")])
    assert rc == 3
    _one_error_line(capsys)


@pytest.mark.parametrize("argv,output", [
    (["gen-data", "--kind", "tubes", "--size", "0"], "manifest.txt"),
    (["gen-data", "--kind", "tubes", "--size", "-4"], "manifest.txt"),
    (["gen-data", "--kind", "tubes", "--noise-sigma", "inf"], "manifest.txt"),
    (["gen-data", "--kind", "tubes", "--noise-sigma", "nan"], "manifest.txt"),
    (["calibrate", "--bins", "0"], "calibration.csv"),
])
def test_commands_reject_malformed_arguments(dataset, tmp_path, capsys, argv,
                                             output):
    if argv[0] == "calibrate":
        argv = argv + ["--data", dataset, "--checkpoint",
                       _checkpoint(tmp_path / "m.ckpt", SUP1_ECHO)]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    _one_error_line(capsys)
    assert not list(tmp_path.rglob(output))
