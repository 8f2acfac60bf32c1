import numpy as np
import pytest

import mismatch.training as training
from mismatch.autodiff import Tape, Tensor, backward, mse, scale, add
from mismatch.errors import (ConfigError, ContractError, DimensionError,
                             FormatError, NumericalAbort)
from mismatch.nets import (clone_params, init_params, model_forward,
                           named_params)
from mismatch.training import (AdamState, HistoryRow, TrainConfig, adam_step,
                               alpha_at, average_checkpoints, consistency_loss,
                               dice_loss, load_checkpoint, load_model,
                               read_history_csv, reference_config,
                               save_checkpoint, train, write_history_csv,
                               zero_grads)
from gradcheck import check_grads
from oracles import fd_gradient, naive_average, per_name_adam_step, rel_err


class StubStream:
    """Fixed batch cycle with the stream interface train() expects."""

    def __init__(self, batches):
        self.batches = batches
        self.epoch_len = len(batches)
        self.i = 0

    def next_batch(self):
        out = self.batches[self.i % len(self.batches)]
        self.i += 1
        return out


def _labelled_stub(rng, n=2, size=8):
    batches = []
    for _ in range(n):
        x = rng.standard_normal((1, 1, size, size)).astype(np.float32)
        y = (rng.random((1, 1, size, size)) < 0.3).astype(np.float32)
        batches.append((x, y))
    return StubStream(batches)


def _unlabelled_stub(rng, n=2, size=8):
    return StubStream([(rng.standard_normal((1, 1, size, size))
                        .astype(np.float32), None) for _ in range(n)])


# ---------------------------------------------------------------------------
# dice loss

def test_dice_disjoint_unit_masks():
    loss = dice_loss(Tensor(np.array([1.0, 0.0])), np.array([0.0, 1.0]))
    assert loss.item() == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_dice_perfect_overlap_is_zero():
    y = np.array([1.0, 0.0, 1.0])
    assert dice_loss(Tensor(y.copy()), y).item() == 0.0


def test_dice_range_property():
    rng = np.random.default_rng(60)
    for _ in range(20):
        p = Tensor(rng.random((1, 1, 6, 6)))
        g = (rng.random((1, 1, 6, 6)) < 0.4).astype(float)
        v = dice_loss(p, g).item()
        assert 0.0 < v < 1.0


def test_dice_gradient_matches_fd():
    rng = np.random.default_rng(61)
    p = Tensor(rng.random((1, 1, 5, 5)), requires_grad=True)
    g = (rng.random((1, 1, 5, 5)) < 0.5).astype(float)
    assert check_grads(lambda: dice_loss(p, g), [p]) < 1e-6


def test_dice_validation():
    with pytest.raises(ConfigError):
        dice_loss(Tensor(np.ones(3)), np.ones(3), smooth=0.0)
    with pytest.raises(DimensionError):
        dice_loss(Tensor(np.ones(3)), np.ones(4))


# ---------------------------------------------------------------------------
# consistency loss

def test_consistency_worked_example():
    p1 = Tensor(np.full((2, 2), 0.9))
    p2 = Tensor(np.full((2, 2), 0.5))
    for mode in ("symmetric", "first_to_second", "second_to_first"):
        v = consistency_loss(p1, p2, mode).item()
        assert v == pytest.approx(0.16, abs=1e-12)
    with pytest.raises(ConfigError):
        consistency_loss(p1, p2, "both")


def test_consistency_gradient_is_half_difference():
    rng = np.random.default_rng(62)
    p1 = Tensor(rng.random((2, 3)), requires_grad=True)
    p2 = Tensor(rng.random((2, 3)), requires_grad=True)
    with Tape():
        backward(consistency_loss(p1, p2))
    n = p1.data.size
    # each head only chases the frozen other: d/dp1 = (p1 - p2)/n
    np.testing.assert_allclose(p1.grad, (p1.data - p2.data) / n, atol=1e-15)
    np.testing.assert_allclose(p2.grad, (p2.data - p1.data) / n, atol=1e-15)


def test_consistency_gradient_matches_fd_with_frozen_targets():
    rng = np.random.default_rng(63)
    p1 = Tensor(rng.random((3, 3)), requires_grad=True)
    p2 = Tensor(rng.random((3, 3)), requires_grad=True)
    with Tape():
        backward(consistency_loss(p1, p2))
    ad = [p1.grad.copy(), p2.grad.copy()]
    # the detached copies must be frozen before probing, or the probes
    # would see the dependence the stop-gradient deliberately cuts
    c1, c2 = p1.data.copy(), p2.data.copy()

    def f():
        t1 = mse(p1, Tensor(c2))
        t2 = mse(p2, Tensor(c1))
        return float(add(scale(t1, 0.5), scale(t2, 0.5)).data)

    fd = fd_gradient(f, [p1.data, p2.data])
    assert max(rel_err(a, g) for a, g in zip(ad, fd)) < 1e-6


def test_one_sided_consistency_leaves_detached_head_alone():
    p1 = Tensor(np.array([0.2, 0.8]), requires_grad=True)
    p2 = Tensor(np.array([0.4, 0.4]), requires_grad=True)
    with Tape():
        backward(consistency_loss(p1, p2, "first_to_second"))
    assert np.any(p1.grad != 0)
    np.testing.assert_array_equal(p2.grad, np.zeros(2))


# ---------------------------------------------------------------------------
# schedule

def test_alpha_warmup_schedule():
    cfg = TrainConfig(alpha_max=0.05, warmup_fraction=0.2)
    total = 100
    assert alpha_at(0, total, cfg) == 0.0
    assert alpha_at(10, total, cfg) == pytest.approx(0.025)
    assert alpha_at(20, total, cfg) == pytest.approx(0.05)
    assert alpha_at(99, total, cfg) == pytest.approx(0.05)


def test_alpha_constant_and_degenerate_warmup():
    cfg = TrainConfig(alpha_max=0.01, alpha_schedule="constant")
    assert alpha_at(0, 100, cfg) == 0.01
    zero_warm = TrainConfig(alpha_max=0.01, warmup_fraction=0.0)
    assert alpha_at(0, 100, zero_warm) == 0.01


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(alpha_max=-0.1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(warmup_fraction=1.5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(consistency_mode="mean").validate()
    assert reference_config().validate().channels == 24


# ---------------------------------------------------------------------------
# optimiser

def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    state = AdamState.for_params(p)
    before = p.data.copy()
    p.grad[...] = [0.5, -1.0, 2.0]
    adam_step(p, state, lr=0.01)
    np.testing.assert_allclose(p.data - before, [-0.01, 0.01, -0.01],
                               rtol=1e-6)


def test_adam_matches_reference_loop():
    rng = np.random.default_rng(64)
    p = Tensor(rng.standard_normal(7), requires_grad=True)
    ref = p.data.copy()
    state = AdamState.for_params(p)
    m = np.zeros(7)
    v = np.zeros(7)
    for t in range(1, 6):
        g = rng.standard_normal(7)
        p.grad[...] = g
        adam_step(p, state, lr=0.05)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * (g * g)
        ref -= 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t))
                                              + 1e-8)
        np.testing.assert_allclose(p.data, ref, rtol=0, atol=1e-14)


def test_adam_requires_a_gradient_buffer():
    p = Tensor(np.ones(2))
    state = AdamState.for_params(p)
    with pytest.raises(ContractError):
        adam_step(p, state, lr=0.1)
    np.testing.assert_array_equal(p.data, np.ones(2))
    assert state.step == 0


def test_zero_grads_clears_in_place():
    p = Tensor(np.ones(3), requires_grad=True)
    p.grad[...] = 5.0
    buf = p.grad
    zero_grads([("p", p)])
    assert buf is p.grad
    np.testing.assert_array_equal(p.grad, np.zeros(3))


def test_adam_over_the_flat_store_matches_the_per_name_loop():
    # every Adam op is elementwise, so one update over the whole buffer is
    # bitwise the per-tensor loop
    rng = np.random.default_rng(76)
    whole = init_params("MM", channels=8, seed=0)
    named = named_params(clone_params(whole))
    s_flat, s_named = AdamState.for_params(whole.flat), {}
    for _ in range(50):
        g = (rng.standard_normal(whole.flat.data.size)
             * 10.0 ** rng.integers(-6, 2)).astype(np.float32)
        whole.flat.grad[...] = g
        adam_step(whole.flat, s_flat, lr=1e-3)
        grads, at = {}, 0
        for name, t in named:
            grads[name] = g[at:at + t.data.size].reshape(t.shape)
            at += t.data.size
        per_name_adam_step(named, grads, s_named, lr=1e-3)
    per_name = np.concatenate([t.data.ravel() for _, t in named])
    assert whole.flat.data.dtype == per_name.dtype == np.float32
    np.testing.assert_array_equal(whole.flat.data.view(np.uint32),
                                  per_name.view(np.uint32))


# ---------------------------------------------------------------------------
# snapshot averaging

def test_average_checkpoints_matches_naive_oracle():
    models = [init_params("Sup1", channels=2, seed=s, dtype=np.float64)
              for s in (1, 2, 3)]
    avg = average_checkpoints(models)
    stacks = [dict(named_params(m)) for m in models]
    for name, t in named_params(avg):
        want = naive_average([s[name].data for s in stacks])
        np.testing.assert_allclose(t.data, want, rtol=0, atol=1e-15)


def test_average_checkpoints_order_insensitive():
    models = [init_params("Sup1", channels=2, seed=s) for s in (4, 5, 6)]
    a = average_checkpoints(models)
    b = average_checkpoints(models[::-1])
    for (_, ta), (_, tb) in zip(named_params(a), named_params(b)):
        np.testing.assert_allclose(ta.data, tb.data, rtol=0, atol=1e-6)


def test_average_checkpoints_edge_cases():
    model = init_params("Sup1", channels=2, seed=7)
    solo = average_checkpoints([model])
    for (_, a), (_, b) in zip(named_params(solo), named_params(model)):
        np.testing.assert_array_equal(a.data, b.data)
    with pytest.raises(ContractError):
        average_checkpoints([])
    with pytest.raises(DimensionError):
        average_checkpoints([model, init_params("Sup1", channels=4, seed=7)])


# ---------------------------------------------------------------------------
# training loop

def test_train_supervised_smoke():
    rng = np.random.default_rng(65)
    model = init_params("Sup1", channels=2, seed=0)
    cfg = TrainConfig(epochs=3, lr=1e-3, channels=2, save_last_k=2)
    final, averaged, history = train(cfg, model, _labelled_stub(rng))
    assert len(history) == 6
    assert [r.epoch for r in history] == [0, 0, 1, 1, 2, 2]
    assert all(r.dice2 == 0.0 and r.consistency == 0.0 for r in history)
    assert final is model
    # averaged spans the last two epochs, so it lags the final weights
    pa = dict(named_params(averaged))
    pf = dict(named_params(final))
    assert any(not np.array_equal(pa[n].data, pf[n].data) for n in pa)


def test_train_epoch_length_follows_unlabelled_stream():
    rng = np.random.default_rng(66)
    model = init_params("MM", channels=2, seed=0)
    cfg = TrainConfig(epochs=2, channels=2, alpha_max=0.01)
    _, _, history = train(cfg, model, _labelled_stub(rng, n=2),
                          _unlabelled_stub(rng, n=3))
    assert len(history) == 6
    assert history[-1].alpha == pytest.approx(
        alpha_at(5, 6, cfg))
    assert all(r.consistency > 0 for r in history)


def test_train_alpha_zero_matches_supervised_bitwise():
    rng = np.random.default_rng(67)
    lab = _labelled_stub(rng, n=2)
    unlab = _unlabelled_stub(rng, n=2)
    cfg = TrainConfig(epochs=2, channels=2, alpha_max=0.0)
    semi = init_params("MM", channels=2, seed=11)
    sup = init_params("MM", channels=2, seed=11)
    semi_f, _, semi_hist = train(cfg, semi, StubStream(lab.batches), unlab)
    sup_f, _, sup_hist = train(cfg, sup, StubStream(lab.batches))
    for (n, a), (_, b) in zip(named_params(semi_f), named_params(sup_f)):
        np.testing.assert_array_equal(a.data, b.data, err_msg=n)
    assert [r.total for r in semi_hist] == [r.total for r in sup_hist]
    # the off-graph consistency value is still logged for the record
    assert all(r.consistency > 0 for r in semi_hist)
    assert all(r.consistency == 0 for r in sup_hist)


def test_train_stop_gradient_audit_passes_on_real_loss():
    rng = np.random.default_rng(68)
    model = init_params("MM", channels=2, seed=1)
    cfg = TrainConfig(epochs=1, channels=2, alpha_max=0.05)
    train(cfg, model, _labelled_stub(rng), _unlabelled_stub(rng),
          stop_gradient_audit=True)


def test_train_stop_gradient_audit_catches_leak(monkeypatch):
    rng = np.random.default_rng(69)

    def leaky(p1, p2, mode="symmetric"):
        return mse(p1, p2)  # no detach: gradient reaches both heads

    monkeypatch.setattr(training, "consistency_loss", leaky)
    model = init_params("MM", channels=2, seed=1)
    cfg = TrainConfig(epochs=1, channels=2, alpha_max=0.05)
    with pytest.raises(ContractError, match="stop-gradient audit"):
        train(cfg, model, _labelled_stub(rng), _unlabelled_stub(rng),
              stop_gradient_audit=True)


def test_train_aborts_on_non_finite_loss():
    rng = np.random.default_rng(70)
    model = init_params("Sup1", channels=2, seed=0)
    model.params["enc0.main1.w"].data[...] = np.inf
    cfg = TrainConfig(epochs=1, channels=2)
    with np.errstate(invalid="ignore"):  # inf weights make nan activations
        with pytest.raises(NumericalAbort) as exc:
            train(cfg, model, _labelled_stub(rng))
    assert exc.value.step == 0


def test_train_aborts_on_non_finite_gradient_before_the_update(monkeypatch):
    rng = np.random.default_rng(77)
    model = init_params("Sup1", channels=2, seed=0)
    real, calls, before = training.backward, [], []

    def poisoned(loss):  # a NaN reaches one gradient at the fourth step
        real(loss)
        calls.append(loss)
        if len(calls) == 4:
            before.append(model.flat.data.copy())
            model.params["dec0.block1.main2.b"].grad[0] = np.nan

    monkeypatch.setattr(training, "backward", poisoned)
    cfg = TrainConfig(epochs=3, channels=2)
    with pytest.raises(NumericalAbort, match="gradient at step 3") as exc:
        train(cfg, model, _labelled_stub(rng))
    assert exc.value.step == 3
    np.testing.assert_array_equal(model.flat.data, before[0])


def test_train_refuses_a_detached_parameter_before_step_zero():
    # Rebinding .data cuts the tensor off model.flat, which Adam, zeroing
    # and snapshots act on; training it would silently freeze one side.
    rng = np.random.default_rng(78)
    cfg = TrainConfig(epochs=1, channels=2)
    model = init_params("Sup1", channels=2, seed=0)
    name = "enc1.main2.w"
    model.params[name].data = model.params[name].data.copy()
    before = model.flat.data.copy()
    with pytest.raises(ContractError, match=name):
        train(cfg, model, _labelled_stub(rng))
    np.testing.assert_array_equal(model.flat.data, before)
    # a rebound gradient is cut off the same way
    model = init_params("Sup1", channels=2, seed=0)
    model.params[name].grad = np.zeros_like(model.params[name].grad)
    with pytest.raises(ContractError, match=name):
        train(cfg, model, _labelled_stub(rng))
    # a snapshot carries no gradient buffer, so it cannot be trained
    with pytest.raises(ContractError, match="gradient buffer"):
        train(cfg, clone_params(init_params("Sup1", channels=2)),
              _labelled_stub(rng))


def test_train_validates_streams():
    rng = np.random.default_rng(71)
    model = init_params("Sup1", channels=2, seed=0)
    cfg = TrainConfig(epochs=1, channels=2)
    with pytest.raises(ConfigError):
        train(cfg, model, None)
    with pytest.raises(ConfigError):
        train(cfg, model, StubStream([]))
    with pytest.raises(ContractError):
        train(cfg, model, _labelled_stub(rng), _unlabelled_stub(rng))


def test_train_is_deterministic():
    rng1 = np.random.default_rng(72)
    rng2 = np.random.default_rng(72)
    cfg = TrainConfig(epochs=2, channels=2, alpha_max=0.01)
    m1, a1, h1 = train(cfg, init_params("MM", channels=2, seed=3),
                       _labelled_stub(rng1), _unlabelled_stub(rng1))
    m2, a2, h2 = train(cfg, init_params("MM", channels=2, seed=3),
                       _labelled_stub(rng2), _unlabelled_stub(rng2))
    for (_, ta), (_, tb) in zip(named_params(a1), named_params(a2)):
        np.testing.assert_array_equal(ta.data, tb.data)
    assert [r.total for r in h1] == [r.total for r in h2]


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip(tmp_path):
    model = init_params("MM", channels=2, seed=5)
    echo = {"model.variant": "MM", "model.channels": "2",
            "model.in_channels": "1", "train.seed": "5"}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, echo)
    arrays, got_echo = load_checkpoint(path)
    assert got_echo == echo
    for name, t in named_params(model):
        np.testing.assert_array_equal(arrays[name], t.data)


def test_load_model_reproduces_forward(tmp_path):
    rng = np.random.default_rng(73)
    model = init_params("MM", channels=2, seed=6)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, {"model.variant": "MM", "model.channels": "2",
                                  "model.in_channels": "1"})
    loaded, _ = load_model(path)
    x = Tensor(rng.standard_normal((1, 1, 8, 8)).astype(np.float32))
    want = model_forward(model, x)
    got = model_forward(loaded, x)
    for w, g in zip(want, got):
        np.testing.assert_array_equal(w.data, g.data)


def test_checkpoint_format_errors(tmp_path):
    model = init_params("Sup1", channels=2, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, {"model.variant": "Sup1",
                                  "model.channels": "2",
                                  "model.in_channels": "1"})
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(bad)

    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:len(blob) - 10])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(cut)

    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(padded)

    with pytest.raises(FormatError, match="at byte 0"):
        load_checkpoint(bad)

    # the first array name starts after magic, echo and the two u32 counts
    name_at = 8 + 4 + blob[8] + 4 + 4
    garbled = tmp_path / "garbled.ckpt"
    garbled.write_bytes(blob[:name_at] + b"\xff" + blob[name_at + 1:])
    with pytest.raises(FormatError,
                       match=rf"array name .*\(at byte {name_at}\)"):
        load_checkpoint(garbled)


def test_load_model_checks_echo_and_layout(tmp_path):
    model = init_params("Sup1", channels=2, seed=0)
    bare = tmp_path / "bare.ckpt"
    save_checkpoint(bare, model, {})
    with pytest.raises(FormatError, match="missing"):
        load_model(bare)
    lying = tmp_path / "lying.ckpt"
    save_checkpoint(lying, model, {"model.variant": "MM",
                                   "model.channels": "2",
                                   "model.in_channels": "1"})
    with pytest.raises(FormatError, match="layout"):
        load_model(lying)


# ---------------------------------------------------------------------------
# history file

def test_history_roundtrip(tmp_path):
    rows = [HistoryRow(0, 0, 0.5, 0.25, 0.125, 0.0, 0.875),
            HistoryRow(1, 0, 0.4, 0.2, 0.1, 0.001, 0.7001)]
    path = tmp_path / "history.csv"
    write_history_csv(path, rows, header_comments=("train.lr=0.001",))
    text = path.read_text()
    assert text.startswith("# train.lr=0.001\n")
    assert "step,epoch,dice1,dice2,consistency,alpha,total" in text
    back = read_history_csv(path)
    assert back == rows


def test_history_rejects_bad_header(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("step,loss\n0,1\n")
    with pytest.raises(FormatError):
        read_history_csv(path)
