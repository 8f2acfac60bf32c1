import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import mismatch.cli as cli
import mismatch.training as training
from mismatch.cli import main, merge_config, run_training
from mismatch.data import load_caseset
from mismatch.metrics import read_metrics_csv, read_reliability_csv
from mismatch.training import load_model, read_history_csv

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
    argv = ["eval", "--checkpoint", os.path.join(trained_mm, "averaged.ckpt"),
            "--data", dataset, "--split", "test"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    for name in ("per_image.csv", "metrics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


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

def test_calibrate_emits_per_head_diagrams(trained_mm, dataset, tmp_path):
    out = tmp_path / "cal"
    rc = main(["calibrate", "--checkpoint",
               os.path.join(trained_mm, "averaged.ckpt"), "--data", dataset,
               "--split", "test", "--out", str(out)])
    assert rc == 0
    for head in ("p1", "p2", "avg"):
        pooled = read_reliability_csv(out / f"reliability_pooled_{head}.csv")
        assert len(pooled.counts) == 10
        assert pooled.n == 2 * 8 * 8
    rows = _read_csv_rows(out / "calibration.csv")
    assert rows[0]["scope"] == "pooled"  # pooled rows lead the summary
    heads = {r["head"] for r in rows}
    assert heads == {"p1", "p2", "avg"}
    scopes = {r["scope"] for r in rows}
    assert "pooled" in scopes and len(scopes) == 3  # pooled + 2 slices


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
    # serial run byte for byte; a short switch interval interleaves them
    cfg = merge_config(overrides=FAST[1::2])
    run_training("MM", cfg, dataset, str(tmp_path / "serial"))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run_training, "MM", cfg, dataset,
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
