import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import mismatch.cli as cli
import mismatch.training as training
from mismatch.autodiff import Tensor
from mismatch.cli import main, merge_config, run_training
from mismatch.data import Case, load_caseset
from mismatch.errors import NumericalAbort
from mismatch.metrics import (RELIABILITY_SLICES_COLUMNS, ReliabilityBins,
                              ece, read_metrics_csv, read_reliability_csv,
                              read_table)
from mismatch.nets import average_prediction, init_params, model_forward
from mismatch.training import load_model, read_history_csv, save_checkpoint

FAST = ["--set", "model.channels=2", "--set", "train.epochs=2",
        "--set", "train.save_last_k=2", "--set", "data.labelled_slices=2"]


def _read_csv_rows(path):
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["gen-data", "--kind", "tubes", "--cases", "4", "--slices", "2",
               "--size", "8", "--noise-sigma", "0.5", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    return str(out / "manifest.txt")


@pytest.fixture(scope="module")
def trained_mm(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("mm_run")
    rc = main(["train", "--variant", "MM", "--data", dataset,
               "--out", str(out)] + FAST)
    assert rc == 0
    return str(out)


@pytest.fixture(scope="module")
def trained_sup1(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("sup1_run")
    rc = main(["train", "--variant", "Sup1", "--data", dataset,
               "--out", str(out)] + FAST)
    assert rc == 0
    return str(out)


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_writes_loadable_caseset(dataset, capsys):
    caseset = load_caseset(dataset)
    assert len(caseset.cases) == 4
    assert {k: len(v) for k, v in caseset.split.items()} == {
        "labelled_train": 1, "unlabelled_train": 1, "validation": 1,
        "test": 1}


def test_gen_data_split_ratio_at_ten_cases(tmp_path):
    rc = main(["gen-data", "--kind", "blobs", "--cases", "10", "--slices",
               "1", "--size", "8", "--out", str(tmp_path / "d")])
    assert rc == 0
    caseset = load_caseset(tmp_path / "d" / "manifest.txt")
    assert {k: len(v) for k, v in caseset.split.items()} == {
        "labelled_train": 1, "unlabelled_train": 3, "validation": 1,
        "test": 5}


def test_gen_data_is_byte_identical(tmp_path):
    argv = ["gen-data", "--kind", "tubes", "--cases", "4", "--slices", "1",
            "--size", "8", "--seed", "7"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_gen_data_rejects_bad_size(tmp_path, capsys):
    rc = main(["gen-data", "--kind", "tubes", "--cases", "4", "--slices", "1",
               "--size", "30", "--out", str(tmp_path / "d")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("MM-ERR:")


def test_gen_data_refuses_a_data_set_beyond_physical_memory(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # 64 KiB of "physical memory": 4 cases of one 32x32 slice keep exactly
    # 65536 bytes of float64 image and mask, and a fifth case is refused
    # before any case is drawn
    pages = {"SC_PHYS_PAGES": 16, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    argv = ["gen-data", "--kind", "tubes", "--slices", "1", "--size", "32"]
    assert main(argv + ["--cases", "4", "--out", str(tmp_path / "fits")]) == 0
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("a case was drawn")

    monkeypatch.setattr("mismatch.data.gen_synthetic_case", never)
    assert main(argv + ["--cases", "5", "--out", str(tmp_path / "big")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("MM-ERR:")
    assert err[0].endswith(": 81920 bytes, over the 65536 bytes of physical "
                          "memory")
    assert not (tmp_path / "big").exists()


# ---------------------------------------------------------------------------
# train

def test_train_mm_outputs(trained_mm, capsys):
    for name in ("history.csv", "final.ckpt", "averaged.ckpt"):
        assert os.path.exists(os.path.join(trained_mm, name))
    history = read_history_csv(os.path.join(trained_mm, "history.csv"))
    assert len(history) == 4  # 2 unlabelled slices x 2 epochs
    assert all(r.consistency > 0 for r in history)
    assert history[0].alpha == 0.0
    with open(os.path.join(trained_mm, "history.csv")) as f:
        first = f.readline()
    assert first.startswith("# ")  # config echo comments lead the file
    model, echo = load_model(os.path.join(trained_mm, "averaged.ckpt"))
    assert echo["model.variant"] == "MM"
    assert len(model.decoders) == 2


def test_train_is_byte_identical(dataset, tmp_path):
    argv = ["train", "--variant", "MM", "--data", dataset, "--seed", "3"] + FAST
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("history.csv", "final.ckpt", "averaged.ckpt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_train_sup2_forces_alpha_to_zero(dataset, tmp_path):
    rc = main(["train", "--variant", "Sup2", "--data", dataset,
               "--out", str(tmp_path / "run")] + FAST)
    assert rc == 0
    history = read_history_csv(tmp_path / "run" / "history.csv")
    assert len(history) == 4  # supervised: epoch follows the labelled pool
    assert all(r.alpha == 0.0 for r in history)
    assert all(r.consistency == 0.0 for r in history)
    assert all(r.dice2 > 0.0 for r in history)  # two heads, both supervised
    _, echo = load_model(tmp_path / "run" / "averaged.ckpt")
    assert echo["loss.alpha_max"] == "0"


def test_train_sup1_runs_supervised(dataset, tmp_path, capsys):
    rc = main(["train", "--variant", "Sup1", "--data", dataset,
               "--out", str(tmp_path / "run")] + FAST)
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("averaged.ckpt")
    history = read_history_csv(tmp_path / "run" / "history.csv")
    assert all(r.dice2 == 0.0 for r in history)


def test_train_usage_errors(dataset, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--variant", "Nope", "--data", dataset,
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "MM-ERR:" in capsys.readouterr().err

    rc = main(["train", "--variant", "MM", "--data", dataset,
               "--out", str(tmp_path / "y"), "--set", "train.epochs"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("MM-ERR:")


def test_train_data_errors(dataset, tmp_path, capsys):
    rc = main(["train", "--variant", "MM", "--data",
               str(tmp_path / "absent.txt"), "--out", str(tmp_path / "x")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("MM-ERR:")

    rc = main(["train", "--variant", "MM", "--data", dataset,
               "--out", str(tmp_path / "y"), "--set", "loss.gamma=1"])
    assert rc == 3  # unknown config key


def test_train_numerical_abort_exit_code(dataset, tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):  # lr=1e30 blows up
        rc = main(["train", "--variant", "MM", "--data", dataset,
                   "--out", str(tmp_path / "x"),
                   "--set", "train.lr=1e30"] + FAST)
    assert rc == 4
    assert "MM-ERR:" in capsys.readouterr().err


def test_train_non_finite_gradient_exit_code(dataset, tmp_path, capsys,
                                             monkeypatch):
    # a NaN gradient at the last of FAST's 4 MM steps: applied, it would
    # leave a NaN model and exit 0
    models, real_init = [], cli.init_params
    real_backward, calls = training.backward, []

    def init(*args, **kw):
        models.append(real_init(*args, **kw))
        return models[-1]

    def poisoned(loss):
        real_backward(loss)
        calls.append(loss)
        if len(calls) == 4:
            models[0].params["enc0.main1.w"].grad[0, 0, 0, 0] = np.nan

    monkeypatch.setattr(cli, "init_params", init)
    monkeypatch.setattr(training, "backward", poisoned)
    rc = main(["train", "--variant", "MM", "--data", dataset,
               "--out", str(tmp_path / "x")] + FAST)
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("MM-ERR:"), err
    assert "non-finite gradient at step 3" in err[0]
    assert not list(tmp_path.rglob("history.csv"))


def test_train_rejects_batch_larger_than_pool(dataset, tmp_path, capsys):
    # FAST draws a 2-slice labelled pool; the unlabelled pool is 2 slices
    rc = main(["train", "--variant", "MM", "--data", dataset,
               "--out", str(tmp_path / "x")] + FAST
              + ["--set", "train.batch_size=3"])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("MM-ERR:")
    assert "batch_size 3" in err[0]


def test_config_file_round(dataset, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment line\nmodel.channels = 2\ntrain.epochs=1\n"
                   "train.save_last_k=1\ndata.labelled_slices=2\n")
    rc = main(["train", "--variant", "Sup1", "--data", dataset,
               "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 0
    text = (tmp_path / "run" / "history.csv").read_text()
    assert "# model.channels=2\n" in text
    assert "# train.epochs=1\n" in text

    bad = tmp_path / "bad.cfg"
    bad.write_text("model.depth=9\n")
    rc = main(["train", "--variant", "Sup1", "--data", dataset,
               "--config", str(bad), "--out", str(tmp_path / "run2")])
    assert rc == 3


# ---------------------------------------------------------------------------
# eval

def test_eval_outputs_and_aggregate(trained_mm, dataset, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint",
               os.path.join(trained_mm, "averaged.ckpt"), "--data", dataset,
               "--split", "test", "--experiment", "tubes",
               "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("test iou ")

    rows = _read_csv_rows(out / "per_image.csv")
    assert len(rows) == 2  # one test case, two slices
    assert all(0.0 <= float(r["iou"]) <= 1.0 for r in rows)
    metrics = read_metrics_csv(out / "metrics.csv")
    assert len(metrics) == 1
    assert metrics[0].model == "MM"
    assert metrics[0].experiment == "tubes"
    per_image_mean = np.mean([float(r["iou"]) for r in rows])
    assert metrics[0].iou == pytest.approx(per_image_mean, abs=1e-9)


def test_eval_is_byte_identical(trained_mm, dataset, tmp_path):
    for command, table in (("eval", "per_image.csv"),
                           ("calibrate", "calibration.csv")):
        argv = [command, "--checkpoint",
                os.path.join(trained_mm, "averaged.ckpt"),
                "--data", dataset, "--split", "test"]
        a, b = tmp_path / command / "a", tmp_path / command / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        names = sorted(os.listdir(a))
        assert table in names and names == sorted(os.listdir(b))
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("run,head", [("trained_mm", "avg"),
                                      ("trained_sup1", "p")])
def test_eval_and_calibrate_agree(request, dataset, tmp_path, run, head):
    # eval scores the last head: its ECEs are calibrate's, cell for cell
    argv = ["--checkpoint",
            os.path.join(request.getfixturevalue(run), "averaged.ckpt"),
            "--data", dataset, "--split", "test"]
    assert main(["eval"] + argv + ["--out", str(tmp_path / "eval")]) == 0
    assert main(["calibrate"] + argv + ["--out", str(tmp_path / "cal")]) == 0
    calibration = [r for r in _read_csv_rows(tmp_path / "cal" /
                                             "calibration.csv")
                   if r["head"] == head]
    assert calibration[0]["scope"] == "pooled"
    per_image = _read_csv_rows(tmp_path / "eval" / "per_image.csv")
    assert [(r["image"], r["ece"]) for r in per_image] == \
        [(r["scope"], r["ece"]) for r in calibration[1:]]
    assert len(per_image) == 2  # one test case, two slices
    (metrics,) = _read_csv_rows(tmp_path / "eval" / "metrics.csv")
    assert metrics["ece"] == calibration[0]["ece"]


def _count_forwards(monkeypatch, poison_call=None):
    """Wrap cli.model_forward; returns the list of batch sizes it ran.
    Call number `poison_call` (1-based) gets a NaN in its last head."""
    sizes = []
    real = cli.model_forward

    def counted(model, image):
        sizes.append(image.shape[0])
        probs = real(model, image)
        if len(sizes) == poison_call:
            probs[-1].data[-1, 0, 0, 0] = np.nan
        return probs

    monkeypatch.setattr(cli, "model_forward", counted)
    return sizes


def _case(n, size):
    rng = np.random.default_rng(0)
    return Case("c", rng.standard_normal((n, 1, size, size)),
                np.zeros((n, 1, size, size)), labelled=False)


@pytest.mark.parametrize("variant,width,n,size,sizes", [
    ("MM", 8, 16, 64, [2] * 8),  # eval-calibrate's cases
    ("MM", 8, 8, 32, [8]),       # the train workloads' test cases
    ("Sup1", 24, 3, 64, [1] * 3),
    ("Sup1", 8, 5, 64, [2, 2, 1]),
])
def test_case_probs_forwards_cache_sized_chunks(monkeypatch, variant, width,
                                                n, size, sizes):
    model = init_params(variant, channels=width, seed=1)
    case = _case(n, size)
    seen = _count_forwards(monkeypatch)
    probs = cli._case_probs(model, case)
    assert seen == sizes
    whole = model_forward(model, Tensor(case.image.astype(np.float32)))
    heads = [p.data for p in whole]
    if len(whole) == 2:
        heads.append(average_prediction(whole).data)
    assert list(probs) == cli._head_names(model)
    for got, want in zip(probs.values(), heads):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


def test_case_probs_aborts_on_non_finite_last_chunk(monkeypatch):
    model = init_params("MM", channels=8, seed=1)
    seen = _count_forwards(monkeypatch, poison_call=3)
    with pytest.raises(NumericalAbort, match="not finite"):
        cli._case_probs(model, _case(6, 64))
    assert seen == [2, 2, 2]


@pytest.mark.parametrize("command", ["eval", "calibrate"])
def test_non_finite_last_chunk_exits_before_any_file(tmp_path, monkeypatch,
                                                     capsys, command):
    data = tmp_path / "data"
    assert main(["gen-data", "--kind", "blobs", "--cases", "4", "--slices",
                 "4", "--size", "64", "--out", str(data)]) == 0
    ckpt = tmp_path / "mm.ckpt"
    save_checkpoint(ckpt, init_params("MM", channels=8, seed=1),
                    {"model.variant": "MM", "model.channels": "8",
                     "model.in_channels": "1", "train.seed": "0"})
    seen = _count_forwards(monkeypatch, poison_call=2)
    capsys.readouterr()
    rc = main([command, "--checkpoint", str(ckpt),
               "--data", str(data / "manifest.txt"),
               "--out", str(tmp_path / "out")])
    assert rc == 4
    assert seen == [2, 2]  # one test case of 4 slices: the NaN is in the last
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("MM-ERR:"), err
    assert not list((tmp_path / "out").rglob("*"))


def test_eval_missing_checkpoint(dataset, tmp_path, capsys):
    rc = main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"),
               "--data", dataset, "--out", str(tmp_path / "x")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("MM-ERR:")


def test_eval_rejects_non_utf8_checkpoint_echo(trained_mm, dataset,
                                               tmp_path, capsys):
    blob = bytearray(open(os.path.join(trained_mm, "averaged.ckpt"),
                          "rb").read())
    blob[12] = 0xFF  # first byte of the config echo
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    rc = main(["eval", "--checkpoint", str(bad), "--data", dataset,
               "--out", str(tmp_path / "x")])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("MM-ERR:")
    assert "UTF-8" in err[0]


def test_out_naming_a_file_fails_before_any_work(trained_mm, dataset,
                                                 tmp_path, monkeypatch,
                                                 capsys):
    import mismatch.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("ran before the --out check")

    for name in ("train", "evaluate_split", "_case_probs"):
        monkeypatch.setattr(cli, name, never)
    taken = tmp_path / "taken"
    taken.write_text("")
    ckpt = os.path.join(trained_mm, "averaged.ckpt")
    for argv in (["train", "--variant", "MM", "--data", dataset] + FAST,
                 ["eval", "--checkpoint", ckpt, "--data", dataset],
                 ["calibrate", "--checkpoint", ckpt, "--data", dataset]):
        assert main(argv + ["--out", str(taken)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("MM-ERR:")
    assert not list(tmp_path.rglob("history.csv"))


def test_manifest_rejects_paths_without_image_suffix(dataset, tmp_path,
                                                    capsys):
    # a mask path in the image column would otherwise serve as its own mask
    text = open(dataset).read().replace(".image.mmt", ".mask.mmt", 1)
    manifest = os.path.join(os.path.dirname(dataset), "mask_as_image.txt")
    with open(manifest, "w") as f:
        f.write(text)
    rc = main(["train", "--variant", "Sup1", "--data", manifest,
               "--out", str(tmp_path / "run")] + FAST)
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("MM-ERR:")
    assert ".image.mmt" in err[0]


# ---------------------------------------------------------------------------
# calibrate

HEADS = ("p1", "p2", "avg")
OUTPUTS = ["calibration.csv", "reliability_slices.csv",
           *(f"reliability_pooled_{h}.csv" for h in HEADS)]


def test_calibrate_emits_per_head_diagrams(trained_mm, dataset, tmp_path):
    out = tmp_path / "cal"
    rc = main(["calibrate", "--checkpoint",
               os.path.join(trained_mm, "averaged.ckpt"), "--data", dataset,
               "--split", "test", "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == sorted(OUTPUTS)
    pooled = {h: read_reliability_csv(out / f"reliability_pooled_{h}.csv")
              for h in HEADS}
    for bins in pooled.values():
        assert len(bins.counts) == 10
        assert bins.n == 2 * 8 * 8
    rows = _read_csv_rows(out / "calibration.csv")
    assert rows[0]["scope"] == "pooled"  # pooled rows lead the summary
    heads = {r["head"] for r in rows}
    assert heads == set(HEADS)
    scopes = {r["scope"] for r in rows}
    assert "pooled" in scopes and len(scopes) == 3  # pooled + 2 slices

    # one table of every slice's diagrams: case, slice, head, then bins
    table = read_table(out / "reliability_slices.csv",
                       RELIABILITY_SLICES_COLUMNS)
    case = load_caseset(dataset).cases_in("test")[0].case_id
    keys = [(f"{case}_s{s:03d}", h) for s in range(2) for h in HEADS]
    assert [tuple(r[:2]) for r in table] == [k for k in keys
                                             for _ in range(10)]
    slice_ece = {(r["scope"], r["head"]): r["ece"] for r in rows[3:]}
    assert sorted(slice_ece) == sorted(keys)
    for i, key in enumerate(keys):
        lows, highs, counts, accs, confs = map(
            np.array, zip(*[r[2:] for r in table[10 * i:10 * i + 10]]))
        assert (lows[1:] == highs[:-1]).all() and (lows < highs).all()
        assert counts.sum() == 8 * 8
        bins = ReliabilityBins(np.append(lows, highs[-1]), counts, accs,
                               confs)
        # the cells hold 10 significant digits (fmt_float), so the ECE of
        # the rounded accuracies and confidences may move by 1e-10, and
        # calibration.csv's own rounding adds up to 5e-11
        assert abs(ece(bins) - float(slice_ece[key])) <= 2e-10
    for h in HEADS:  # summed over the slices, a head's pooled counts
        counts = np.array([r[4] for r in table if r[1] == h]).reshape(2, 10)
        assert (counts.sum(axis=0) == pooled[h].counts).all()


def test_calibrate_takes_a_long_case_path(trained_mm, dataset, tmp_path):
    # the manifest lists each case under eight nested 30-character
    # directories; no file name in --out may hold such a label
    nest = "/".join(f"dir{i:02d}_" + "x" * 24 for i in range(8))
    data = tmp_path / "data"
    shutil.copytree(os.path.dirname(dataset), data / nest)
    lines = (data / nest / "manifest.txt").read_text().splitlines()
    (data / "manifest.txt").write_text("".join(f"{nest}/{ln}\n"
                                               for ln in lines))
    case = lines[-1].split()[0][:-len(".image.mmt")]
    assert len(f"{nest}/{case}") == 257
    argv = ["calibrate", "--checkpoint",
            os.path.join(trained_mm, "averaged.ckpt")]
    plain = tmp_path / "plain"
    assert main(argv + ["--data", dataset, "--out", str(plain)]) == 0
    out = tmp_path / "nested"
    assert main(argv + ["--data", str(data / "manifest.txt"),
                        "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(OUTPUTS)
    assert all(p.parent == out and p.is_file() for p in out.rglob("*"))

    for name in OUTPUTS[2:]:  # the pooled diagrams hold no label
        assert (out / name).read_bytes() == (plain / name).read_bytes()
    # calibration.csv and the slice table: the cells carry the nested
    # path, and every bin is byte-equal
    for name in OUTPUTS[:2]:
        want = (plain / name).read_text().splitlines()
        got = (out / name).read_text().splitlines()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == (f"{nest}/{w}" if w.startswith(case) else w), name
    rows = _read_csv_rows(out / "calibration.csv")
    assert {r["scope"] for r in rows} == {"pooled", f"{nest}/{case}_s000",
                                          f"{nest}/{case}_s001"}


# ---------------------------------------------------------------------------
# sweep

def test_sweep_alpha_echoes_tokens(dataset, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep-alpha", "--variant", "MM", "--data", dataset,
               "--values", "0,0.0100", "--seeds", "0",
               "--out", str(out)] + FAST)
    assert rc == 0
    rows = _read_csv_rows(out / "alpha_sweep.csv")
    assert [r["alpha"] for r in rows] == ["0", "0.0100"]  # tokens verbatim
    assert all(0.0 <= float(r["mean_iou"]) <= 1.0 for r in rows)
    assert os.path.exists(out / "alpha_0.0100" / "seed_0" / "averaged.ckpt")


def test_run_training_in_threads_matches_serial(dataset, tmp_path):
    # each thread records on its own tape, so concurrent arms reproduce a
    # serial run byte for byte; a short switch interval interleaves them.
    # The threads share one loaded case set, which training only reads.
    cfg = merge_config(overrides=FAST[1::2])
    run_training("MM", cfg, dataset, str(tmp_path / "serial"))
    caseset = cli._load_normalized(dataset)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run_training, "MM", cfg, caseset,
                                   str(tmp_path / f"thread{i}"))
                       for i in range(2)]
            for f in futures:
                f.result(timeout=300)
    finally:
        sys.setswitchinterval(old)
    for i in range(2):
        for name in ("history.csv", "averaged.ckpt"):
            assert (tmp_path / f"thread{i}" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes(), (i, name)


def test_train_and_sweep_alpha_load_the_manifest_once(dataset, tmp_path,
                                                      monkeypatch):
    loads = []

    def counted(path):
        loads.append(path)
        return load_caseset(path)

    monkeypatch.setattr(cli, "load_caseset", counted)
    assert main(["train", "--variant", "Sup1", "--data", dataset,
                 "--out", str(tmp_path / "t")] + FAST) == 0
    assert loads == [dataset]
    loads.clear()
    assert main(["sweep-alpha", "--data", dataset, "--values", "0,0.01",
                 "--seeds", "0,1", "--out", str(tmp_path / "s")] + FAST) == 0
    assert loads == [dataset]


def test_sweep_alpha_validates_tokens(dataset, tmp_path, capsys):
    rc = main(["sweep-alpha", "--data", dataset, "--values", "0,fast",
               "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "MM-ERR:" in capsys.readouterr().err
    rc = main(["sweep-alpha", "--data", dataset, "--values", "-0.1",
               "--out", str(tmp_path / "s")])
    assert rc == 2
    capsys.readouterr()
    rc = main(["sweep-alpha", "--data", dataset, "--seeds", "a",
               "--out", str(tmp_path / "s")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("MM-ERR:")


# ---------------------------------------------------------------------------
# entry point

def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "MM-ERR:" in capsys.readouterr().err
