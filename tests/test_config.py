"""The config schema and malformed input through the command line: every
rejected value leaves with one MM-ERR: line and a documented exit code,
before any output file is written."""

import os
import shutil
import struct

import numpy as np
import pytest

from mismatch.cli import DEFAULT_CONFIG, main, parse_config_file
from mismatch.data import (SPLIT_NAMES, TENSOR_MAGIC, read_tensor,
                           write_tensor)
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


def _checkpoint(path, echo, in_channels=1):
    save_checkpoint(path, init_params("Sup1", channels=1,
                                      in_channels=in_channels, seed=0), echo)
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


def _poisoned(dataset, tmp_path, where, value):
    """Paths (checkpoint, manifest) with `value` written into one
    parameter ("param"), every parameter ("params"), or the first element
    of the first case's "image" or "mask"."""
    model = init_params("Sup1", channels=1, seed=0)
    if where == "params":
        model.flat.data[:] = value
    elif where == "param":
        model.params["enc1.main2.w"].data[0, 1] = value
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(ckpt, model, SUP1_ECHO)
    data = tmp_path / "data"
    shutil.copytree(os.path.dirname(dataset), data)
    image = (data / "manifest.txt").read_text().split()[0]
    if where in ("image", "mask"):
        path = data / image.replace(".image.", f".{where}.")
        arr = read_tensor(path)
        arr.flat[0] = value
        write_tensor(path, arr)
    return ckpt, str(data / "manifest.txt")


@pytest.mark.parametrize("command,where,value,rc", [
    ("eval", "param", np.nan, 3),
    ("eval", "param", -np.inf, 3),
    ("calibrate", "param", np.inf, 3),
    ("eval", "image", np.nan, 3),
    ("eval", "image", np.inf, 3),
    ("calibrate", "image", np.nan, 3),
    ("eval", "mask", 0.5, 3),
    ("eval", "mask", 2.0, 3),
    ("eval", "mask", np.nan, 3),
    # finite parameters whose forward overflows to non-finite probabilities
    ("eval", "params", 1e30, 4),
    ("calibrate", "params", 1e30, 4),
])
def test_commands_reject_non_finite_values(dataset, tmp_path, capsys, command,
                                           where, value, rc):
    ckpt, manifest = _poisoned(dataset, tmp_path, where, value)
    assert main([command, "--checkpoint", ckpt, "--data", manifest,
                 "--out", str(tmp_path / "out")]) == rc
    _one_error_line(capsys)
    assert not list(tmp_path.rglob("*.csv"))


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
    (["eval", "--bins", "0"], "per_image.csv"),
    (["sweep-alpha", "--bins", "0"], "history.csv"),
    (["sweep-alpha", "--seeds", "0,-1"], "history.csv"),
    (["sweep-alpha", "--seeds", "0,0"], "history.csv"),
    (["sweep-alpha", "--values", "0.001,1e-3"], "history.csv"),
    (["gen-data", "--kind", "tubes", "--seed", "-1"], "manifest.txt"),
    (["gen-data", "--kind", "tubes", "--cases", "1000000000", "--slices", "0"],
     "manifest.txt"),
    (["calibrate", "--bins", "100000000000000000000"], "calibration.csv"),
    (["eval", "--bins", "100000000000000000000"], "per_image.csv"),
    (["sweep-alpha", "--bins", "100000000000000000000"], "history.csv"),
    (["gen-data", "--kind", "tubes", "--cases", "3"], "manifest.txt"),
    (["gen-data", "--kind", "tubes", "--cases", "-5"], "manifest.txt"),
    (["gen-data", "--kind", "tubes", "--noise-sigma", "1e308"],
     "manifest.txt"),
])
def test_commands_reject_malformed_arguments(dataset, tmp_path, monkeypatch,
                                             capsys, argv, output):
    import mismatch.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("ran before the arguments were checked")

    for name in ("train", "_case_probs"):
        monkeypatch.setattr(cli, name, never)
    if argv[0] in ("eval", "calibrate"):
        argv = argv + ["--data", dataset, "--checkpoint",
                       _checkpoint(tmp_path / "m.ckpt", SUP1_ECHO)]
    elif argv[0] == "sweep-alpha":
        argv = argv + ["--data", dataset] + SMALL
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    _one_error_line(capsys)
    assert not list(tmp_path.rglob(output))
    assert not (tmp_path / "out").exists()


def _empty_case(dataset, tmp_path):
    """A copy of the data set whose test case holds zero slices."""
    data = tmp_path / "data"
    shutil.copytree(os.path.dirname(dataset), data)
    image = (data / "manifest.txt").read_text().split()[-3]
    for suffix in (".image.", ".mask."):
        write_tensor(data / image.replace(".image.", suffix),
                     np.zeros((0, 1, 8, 8)))
    return str(data / "manifest.txt")


def _no_test_split(dataset, tmp_path):
    """A copy of the data set whose manifest lists no test case."""
    data = tmp_path / "data"
    shutil.copytree(os.path.dirname(dataset), data)
    lines = (data / "manifest.txt").read_text().splitlines(keepends=True)
    (data / "manifest.txt").write_text(
        "".join(ln for ln in lines if not ln.rstrip().endswith(" test")))
    return str(data / "manifest.txt")


def _padded(dataset, tmp_path, pad, splits=SPLIT_NAMES):
    """A copy of the data set whose cases in `splits` are zero-padded by
    `pad` pixels on every side."""
    data = tmp_path / "data"
    shutil.copytree(os.path.dirname(dataset), data)
    for line in (data / "manifest.txt").read_text().splitlines():
        image, _, split = line.split()
        if split not in splits:
            continue
        for suffix in (".image.", ".mask."):
            path = data / image.replace(".image.", suffix)
            write_tensor(path, np.pad(read_tensor(path),
                                      ((0, 0), (0, 0), (pad, pad), (pad, pad))))
    return str(data / "manifest.txt")


@pytest.mark.parametrize("command,flaw", [
    ("train", "config not UTF-8"),
    ("train", "zero slices"),
    ("train", "width beyond memory"),
    ("eval", "zero slices"),
    ("calibrate", "zero slices"),
    ("eval", "unknown split"),
    ("calibrate", "unknown split"),
    ("sweep-alpha", "no test split"),
    ("train", "slices not divisible by 4"),
    ("eval", "slices not divisible by 4"),
    ("calibrate", "slices not divisible by 4"),
    ("sweep-alpha", "slices not divisible by 4"),
    ("sweep-alpha", "test slices not divisible by 4"),
    ("train", "a two-channel model"),
    ("eval", "a two-channel model"),
    ("train", "pools differ in shape"),
])
def test_commands_reject_malformed_files(dataset, tmp_path, capsys, command,
                                         flaw):
    argv = [command, "--out", str(tmp_path / "out")]
    if flaw == "config not UTF-8":
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"model.channels=2\n\xff=1\n")
        argv += ["--data", dataset, "--config", str(config)]
    elif flaw == "unknown split":
        argv += ["--data", dataset, "--split", "bogus"]
    elif flaw == "no test split":
        argv += ["--data", _no_test_split(dataset, tmp_path)]
    elif flaw == "width beyond memory":
        # init_params refuses it from the layout's arithmetic, allocating
        # nothing
        argv += ["--data", dataset]
    elif flaw == "slices not divisible by 4":  # 10x10 slices
        argv += ["--data", _padded(dataset, tmp_path, 1)]
    elif flaw == "test slices not divisible by 4":  # found before arm one
        argv += ["--data", _padded(dataset, tmp_path, 1, ["test"])]
    elif flaw == "a two-channel model":  # on one-channel images
        argv += ["--data", dataset]
    elif flaw == "pools differ in shape":  # 16x16 unlabelled, 8x8 labelled
        argv += ["--data", _padded(dataset, tmp_path, 4,
                                   ["unlabelled_train"])]
    else:
        argv += ["--data", _empty_case(dataset, tmp_path)]
    if command == "train":
        argv += ["--variant", "MM" if flaw == "pools differ in shape"
                 else "Sup1"] + SMALL
        if flaw == "width beyond memory":
            argv += ["--set", "model.channels=100000"]
        if flaw == "a two-channel model":
            argv += ["--set", "model.in_channels=2"]
    elif command == "sweep-alpha":
        argv += SMALL
    elif flaw == "a two-channel model":
        argv += ["--checkpoint", _checkpoint(
            tmp_path / "m.ckpt", {**SUP1_ECHO, "model.in_channels": "2"}, 2)]
    else:
        argv += ["--checkpoint", _checkpoint(tmp_path / "m.ckpt", SUP1_ECHO)]
    assert main(argv) == 3
    _one_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["model.channels=2\ntrain.seed=7\n",
                                  "# widths\r\nmodel.channels=2\r\n"])
def test_config_file_may_start_with_a_byte_order_mark(dataset, tmp_path,
                                                      capsys, text):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert parse_config_file(marked) == parse_config_file(plain)
    assert parse_config_file(marked)["model.channels"] == "2"

    marked.write_bytes(b"\xef\xbb\xbf" + text.encode() + b"\xff=1\n")
    assert main(["train", "--variant", "Sup1", "--data", dataset,
                 "--config", str(marked), "--out", str(tmp_path / "out")]
                + SMALL) == 3
    _one_error_line(capsys)
    assert not (tmp_path / "out").exists()
