import hashlib
import os
import threading
import tracemalloc

import numpy as np
import pytest

import mismatch.autodiff as autodiff
import mismatch.nets as nets
import mismatch.training as training
from mismatch.autodiff import (TAP_PRODUCT_BYTES, Tape, Tensor, add, backward,
                               mse, scale, sigmoid, take_batch)
from mismatch.errors import (ConfigError, ContractError, DimensionError,
                             ParameterError)
from mismatch.nets import (PASB_SIDE_DILATION, VARIANTS, _draw, _stage,
                           average_prediction, bind,
                           decoder_forward, decoder_param_names,
                           encoder_forward, init_params, model_forward,
                           morph_perturb, named_params, nasb, param_layout,
                           pasb, standard_block)
from mismatch.training import (TrainConfig, average_checkpoints,
                               consistency_loss, dice_loss, load_model,
                               save_checkpoint)
from gradcheck import check_grads
from oracles import clone_params, naive_morph

BLK = "dec0.block2"  # the C -> C decoder block


def _init_block(rng, kind, c, dtype):
    """The C -> C decoder block of one `kind` decoder, drawn from rng."""
    layout = [e for e in param_layout((kind,), c, 1)
              if e[0].startswith(BLK + ".")]
    shapes = [(name, shape) for name, shape, _ in layout]
    return bind((), shapes, _draw(layout, rng, dtype)).params


def _zero_sides(block):
    for stage in ("side1", "side2"):
        block[f"{BLK}.{stage}.w"].data[...] = 0
        block[f"{BLK}.{stage}.b"].data[...] = 0


def _rand_image(rng, shape, dtype=np.float64):
    return Tensor(rng.standard_normal(shape).astype(dtype))


# ---------------------------------------------------------------------------
# attention blocks

def test_pasb_zero_side_weights_give_half_attention():
    rng = np.random.default_rng(40)
    blk = _init_block(rng, "pasb", 3, np.float64)
    _zero_sides(blk)
    x = _rand_image(rng, (1, 3, 12, 12))
    cap = {}
    out = pasb(x, blk, BLK, capture=cap)
    # dead side branch -> a = sigmoid(0) = 0.5 -> out = 1.5 * m
    np.testing.assert_array_equal(cap["a"].data, np.full_like(out.data, 0.5))
    np.testing.assert_array_equal(out.data, 1.5 * cap["m"].data)


def test_nasb_zero_side_weights_reduce_to_sigmoid_of_features():
    rng = np.random.default_rng(41)
    blk = _init_block(rng, "nasb", 3, np.float64)
    _zero_sides(blk)
    x = _rand_image(rng, (1, 3, 12, 12))
    cap = {}
    out = nasb(x, blk, BLK, capture=cap)
    # identity skips pass h through both dead side stages: a = sigmoid(h)
    h = _stage(x, blk, f"{BLK}.main1")
    np.testing.assert_allclose(cap["a"].data, sigmoid(h).data,
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(
        out.data, cap["m"].data + cap["m"].data * cap["a"].data)


def test_attention_maps_stay_in_unit_interval():
    rng = np.random.default_rng(42)
    x = _rand_image(rng, (1, 2, 12, 12))
    for kind in ("pasb", "nasb"):
        blk = _init_block(rng, kind, 2, np.float64)
        cap = {}
        (pasb if kind == "pasb" else nasb)(x, blk, BLK, capture=cap)
        a = cap["a"].data
        assert np.all(a > 0) and np.all(a < 1)


def test_blocks_reject_mismatched_params():
    rng = np.random.default_rng(43)
    std = _init_block(rng, "standard", 2, np.float64)
    att = _init_block(rng, "pasb", 2, np.float64)
    x = _rand_image(rng, (1, 2, 8, 8))
    with pytest.raises(ContractError):
        pasb(x, std, BLK)
    with pytest.raises(ContractError):
        nasb(x, std, BLK)
    with pytest.raises(ContractError):
        standard_block(x, att, BLK)


def test_grad_pasb_block():
    rng = np.random.default_rng(44)
    blk = _init_block(rng, "pasb", 2, np.float64)
    x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
    r = Tensor(rng.standard_normal((1, 2, 6, 6)))
    params = [x] + list(blk.values())
    assert check_grads(lambda: mse(pasb(x, blk, BLK), r), params) < 1e-5


def test_grad_nasb_block():
    rng = np.random.default_rng(45)
    blk = _init_block(rng, "nasb", 2, np.float64)
    x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
    r = Tensor(rng.standard_normal((1, 2, 6, 6)))
    params = [x] + list(blk.values())
    assert check_grads(lambda: mse(nasb(x, blk, BLK), r), params) < 1e-5


# ---------------------------------------------------------------------------
# morphological perturbation

def test_morph_matches_naive_oracle():
    rng = np.random.default_rng(46)
    x = Tensor(rng.standard_normal((2, 2, 7, 9)))
    for mode in ("dilate", "erode"):
        np.testing.assert_array_equal(morph_perturb(x, mode).data,
                                      naive_morph(x.data, mode))


def test_morph_ordering_and_fixed_point():
    rng = np.random.default_rng(47)
    x = Tensor(rng.standard_normal((1, 3, 8, 8)))
    d = morph_perturb(x, "dilate").data
    e = morph_perturb(x, "erode").data
    assert np.all(d >= x.data) and np.all(e <= x.data)
    const = Tensor(np.full((1, 1, 5, 5), 2.5))
    # border padding never wins, so a constant map is a fixed point
    np.testing.assert_array_equal(morph_perturb(const, "dilate").data,
                                  const.data)
    np.testing.assert_array_equal(morph_perturb(const, "erode").data,
                                  const.data)


def test_grad_morph_both_modes():
    rng = np.random.default_rng(48)
    for mode in ("dilate", "erode"):
        x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        r = Tensor(rng.standard_normal((1, 2, 6, 6)))
        assert check_grads(lambda: mse(morph_perturb(x, mode), r), [x]) < 1e-6


def test_morph_rejects_bad_mode_and_rank():
    with pytest.raises(ParameterError):
        morph_perturb(Tensor(np.zeros((1, 1, 4, 4))), "open")
    with pytest.raises(DimensionError):
        morph_perturb(Tensor(np.zeros((4, 4))), "dilate")


def test_morph_decoders_call_perturbation_twice_per_block(monkeypatch):
    calls = []
    real = nets.morph_perturb

    def counting(x, mode):
        calls.append(mode)
        return real(x, mode)

    monkeypatch.setattr(nets, "morph_perturb", counting)
    model = init_params("Morph", channels=2, seed=0, dtype=np.float64)
    rng = np.random.default_rng(49)
    model_forward(model, _rand_image(rng, (1, 1, 8, 8)))
    # 3 blocks x 2 stages per decoder; encoder stays untouched
    assert calls.count("dilate") == 6
    assert calls.count("erode") == 6
    assert len(calls) == 12


# ---------------------------------------------------------------------------
# encoder / decoder / full model

def test_encoder_shapes_and_widths():
    model = init_params("Sup1", channels=8, seed=0, dtype=np.float64)
    rng = np.random.default_rng(50)
    bottleneck, skips = encoder_forward(_rand_image(rng, (1, 1, 32, 32)),
                                        model.params)
    assert skips[0].shape == (1, 8, 32, 32)
    assert skips[1].shape == (1, 16, 16, 16)
    assert bottleneck.shape == (1, 32, 8, 8)


def test_encoder_rejects_indivisible_spatial_dims():
    model = init_params("Sup1", channels=2, seed=0, dtype=np.float64)
    with pytest.raises(DimensionError):
        encoder_forward(Tensor(np.zeros((1, 1, 30, 32))), model.params)


def test_value_only_forward_peaks_within_its_counted_bytes():
    # the tracemalloc peak of one float32 slice's value-only forward, after
    # a warm-up forward: within check_forward's count, and, for a width-8
    # MM forward of a 512x512 slice, within 76.0 MiB plus the tap products
    # of one block, about 5% above its 73.0 MiB peak at a sigmoid, so an
    # op or block that keeps one more 8 MiB map fails
    rng = np.random.default_rng(53)
    for variant, width, side in (("MM", 8, 512), ("MM", 16, 64),
                                 ("Sup1", 8, 128)):
        model = init_params(variant, width, seed=0)
        model_forward(model, _rand_image(rng, (1, 1, 32, 32), np.float32))
        image = _rand_image(rng, (1, 1, side, side), np.float32)
        tracemalloc.start()
        try:
            model_forward(model, image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counted = nets.FORWARD_BYTES * width * side * side + TAP_PRODUCT_BYTES
        assert peak <= counted, (variant, width, side, peak)
        if side == 512:
            assert peak <= 76.0 * 2**20 + TAP_PRODUCT_BYTES, peak


def test_model_outputs_are_input_sized_probability_maps():
    rng = np.random.default_rng(51)
    for variant in VARIANTS:
        model = init_params(variant, channels=2, seed=3, dtype=np.float64)
        probs = model_forward(model, _rand_image(rng, (2, 1, 16, 16)))
        assert len(probs) == len(VARIANTS[variant].decoders)
        for p in probs:
            assert p.shape == (2, 1, 16, 16)
            assert np.all(p.data > 0) and np.all(p.data < 1)


def test_joint_batch_forward_matches_separate_forwards():
    # every norm is per sample, so stacking a labelled and an unlabelled
    # image can change at most the GEMM summation order; float64 keeps
    # any such rounding far below the bound (float32 is bitwise, below)
    rng = np.random.default_rng(53)
    model = init_params("MM", channels=4, seed=2, dtype=np.float64)
    xa = rng.standard_normal((1, 1, 16, 16))
    xb = rng.standard_normal((1, 1, 16, 16))
    with Tape():
        joint = model_forward(model, Tensor(np.concatenate([xa, xb])))
    for head, pj in enumerate(joint):
        for half, x in enumerate((xa, xb)):
            alone = model_forward(model, Tensor(x))[head].data
            diff = np.max(np.abs(pj.data[half:half + 1] - alone))
            assert diff < 1e-12, (head, half, diff)

    # train's step at zero consistency weight: in float32 each half of the
    # joint forward is bitwise its own forward, and the zero-weight term
    # leaves the labelled-only gradient bitwise as it is
    for variant in ("MM", "MM-a", "MM-b", "Morph"):
        for n in (1, 2):
            model = init_params(variant, channels=4, seed=2)
            x = rng.standard_normal((2 * n, 1, 16, 16)).astype(np.float32)
            y = (rng.random((n, 1, 16, 16)) < 0.3).astype(np.float32)
            with Tape():
                joint = model_forward(model, Tensor(x))
                lab = [take_batch(p, 0, n) for p in joint]
                unl = [take_batch(p, n, 2 * n) for p in joint]
                total = add(add(dice_loss(lab[0], y), dice_loss(lab[1], y)),
                            scale(consistency_loss(unl[0], unl[1]), 0.0))
            backward(total)
            joint_grad = model.flat.grad.copy()
            model.flat.grad[...] = 0
            with Tape():
                alone = model_forward(model, Tensor(x[:n]))
                total = add(dice_loss(alone[0], y), dice_loss(alone[1], y))
            backward(total)
            np.testing.assert_array_equal(joint_grad, model.flat.grad)
            unl_alone = model_forward(model, Tensor(x[n:]))
            for pj, pl, pu in zip(joint, alone, unl_alone):
                np.testing.assert_array_equal(pj.data[:n], pl.data)
                np.testing.assert_array_equal(pj.data[n:], pu.data)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_chunked_float32_forward_is_bitwise_the_whole_batch(variant):
    # eval forwards a case in slice chunks and relies on this equality
    rng = np.random.default_rng(54)
    model = init_params(variant, channels=4, seed=3)
    x = rng.standard_normal((5, 1, 16, 16)).astype(np.float32)
    whole = [p.data for p in model_forward(model, Tensor(x))]
    for step in (1, 2):
        chunks = [model_forward(model, Tensor(x[i:i + step]))
                  for i in range(0, len(x), step)]
        for head, p in enumerate(whole):
            assert p.dtype == np.float32
            np.testing.assert_array_equal(
                np.concatenate([c[head].data for c in chunks]), p)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_value_only_float32_forward_is_bitwise_the_recorded_one(variant):
    # eval's forwards record nothing and training's record, but both walk
    # only each sample's output rows, the same walk, so they agree bitwise
    rng = np.random.default_rng(55)
    model = init_params(variant, channels=8, seed=5)
    for side in (16, 32, 64):
        x = rng.standard_normal((2, 1, side, side)).astype(np.float32)
        value_only = model_forward(model, Tensor(x))
        with Tape() as tape:
            recorded = model_forward(model, Tensor(x))
        assert tape.nodes
        for vo, rec in zip(value_only, recorded):
            assert vo.data.dtype == np.float32
            np.testing.assert_array_equal(vo.data, rec.data)


def _heads_and_step_grads(variant, dtype, n, side):
    """The value-only heads of n slices and the gradient of one recorded
    training step (n labelled slices, and n unlabelled ones for a
    semi-supervised arm), as bytes."""
    rng = np.random.default_rng(56)
    model = init_params(variant, channels=4, seed=7, dtype=dtype)
    x = rng.standard_normal((2 * n, 1, side, side)).astype(dtype)
    y = (rng.random((n, 1, side, side)) < 0.3).astype(dtype)
    xu = x[n:] if VARIANTS[variant].semi_supervised else None
    heads = [p.data.tobytes() for p in model_forward(model, Tensor(x[:n]))]
    backward(training._step_loss(TrainConfig(), model, x[:n], y, xu, 0.05)[2])
    return heads, model.flat.grad.tobytes()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_arm_is_bitwise_the_same_at_numpy_default_buffer(
        monkeypatch, variant):
    # model_forward and backward run under a 1024-element ufunc buffer;
    # numpy's default is 8192. Elementwise ops give the same bits however
    # numpy chunks them, and the reductions are not buffered, so heads and
    # step gradients match at both: for maps of h*w below, equal to and
    # above the buffer, and a batch whose whole arrays are below it
    assert autodiff._UFUNC_BUFFER == 1024
    for dtype in (np.float32, np.float64):
        for n, side in ((1, 8), (2, 16), (1, 32), (1, 64)):
            small = _heads_and_step_grads(variant, dtype, n, side)
            monkeypatch.setattr(autodiff, "_UFUNC_BUFFER", 8192)
            default = _heads_and_step_grads(variant, dtype, n, side)
            monkeypatch.undo()
            assert small == default, (dtype, n, side)


def test_model_forward_sets_the_buffer_back():
    # on return and on a raise, to the caller's size, not to numpy's
    # default: check_input's DimensionError is raised inside the scope
    model = init_params("MM", channels=2, seed=0)
    default = np.getbufsize()
    model_forward(model, Tensor(np.zeros((1, 1, 8, 8), np.float32)))
    assert np.getbufsize() == default
    previous = np.setbufsize(4096)
    try:
        with pytest.raises(DimensionError):
            model_forward(model, Tensor(np.zeros((1, 1, 6, 6), np.float32)))
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(previous)
    assert np.getbufsize() == default


def test_a_forward_held_in_one_thread_leaves_another_threads_buffer(
        monkeypatch):
    # numpy keeps the buffer size per thread: a forward held inside its
    # scope (at the barrier) does not change the main thread's size
    barrier = threading.Barrier(2, timeout=60)
    inside, errors = [], []
    encoder = nets.encoder_forward

    def held(image, params):
        inside.append(np.getbufsize())
        barrier.wait()  # the thread is inside model_forward
        barrier.wait()  # the main thread has read its own size
        return encoder(image, params)

    def work():
        try:
            model_forward(init_params("MM", channels=2, seed=0),
                          Tensor(np.zeros((1, 1, 8, 8), np.float32)))
        except Exception as e:  # collected for the main thread's assert
            errors.append(repr(e))

    monkeypatch.setattr(nets, "encoder_forward", held)
    default = np.getbufsize()
    thread = threading.Thread(target=work)
    thread.start()
    barrier.wait()
    outside = np.getbufsize()
    barrier.wait()
    thread.join(timeout=60)
    assert not thread.is_alive() and errors == []
    assert inside == [autodiff._UFUNC_BUFFER] and outside == default


def test_average_prediction_averages_heads():
    rng = np.random.default_rng(52)
    model = init_params("MM", channels=2, seed=1, dtype=np.float64)
    p1, p2 = model_forward(model, _rand_image(rng, (1, 1, 16, 16)))
    avg = average_prediction([p1, p2])
    np.testing.assert_array_equal(avg.data, 0.5 * (p1.data + p2.data))
    single = init_params("Sup1", channels=2, seed=1, dtype=np.float64)
    probs = model_forward(single, _rand_image(rng, (1, 1, 16, 16)))
    assert average_prediction(probs) is probs[0]
    with pytest.raises(ContractError):
        average_prediction([p1, p2, p1])


def _side_dilations(monkeypatch, model, index):
    """Dilation of every side-branch stage in decoder `index`'s forward."""
    side_ws = {id(t) for n, t in model.params.items()
               if n.startswith(f"dec{index}.") and ".side" in n}
    seen = []
    real = nets.conv_relu_norm

    def spy(x, w, b, gamma, beta, padding, dilation=1):
        if id(w) in side_ws:
            seen.append(dilation)
        return real(x, w, b, gamma, beta, padding=padding, dilation=dilation)

    with monkeypatch.context() as m:
        m.setattr(nets, "conv_relu_norm", spy)
        bottleneck, skips = encoder_forward(Tensor(np.zeros((1, 1, 8, 8))),
                                            model.params)
        decoder_forward(bottleneck, skips, model.params, f"dec{index}",
                        model.decoders[index])
    return seen


def test_variant_layouts(monkeypatch):
    assert VARIANTS["MM"].decoders == ("pasb", "nasb")
    assert VARIANTS["Sup1"].decoders == ("standard",)
    mm = init_params("MM", channels=2, seed=0)
    assert mm.decoders == ("pasb", "nasb")
    assert all(f"dec0.block{i}.side1.w" in mm.params for i in range(3))
    assert _side_dilations(monkeypatch, mm, 0) == [PASB_SIDE_DILATION] * 6
    assert _side_dilations(monkeypatch, mm, 1) == [1] * 6
    morph = init_params("Morph", channels=2, seed=0)
    assert morph.decoders == ("morph_dilate", "morph_erode")
    assert not any(".side" in n for n in morph.params)
    with pytest.raises(ConfigError):
        init_params("MM-d", channels=2)


# ---------------------------------------------------------------------------
# initialisation and traversal

def test_init_is_deterministic_per_seed():
    a = init_params("MM", channels=4, seed=7)
    b = init_params("MM", channels=4, seed=7)
    for (na, ta), (nb, tb) in zip(named_params(a), named_params(b)):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    c = init_params("MM", channels=4, seed=8)
    diffs = sum(not np.array_equal(ta.data, tc.data)
                for (_, ta), (_, tc) in zip(named_params(a), named_params(c)))
    assert diffs > 0


def test_same_kind_decoders_start_apart():
    model = init_params("MM-a", channels=4, seed=0)
    w0 = model.params["dec0.block0.main1.w"].data
    w1 = model.params["dec1.block0.main1.w"].data
    assert not np.array_equal(w0, w1)
    # but the same per-decoder seed reproduces a decoder exactly
    layout = [e for e in param_layout(("standard",), 4, 1)
              if e[0].startswith("dec0.")]
    d1 = _draw(layout, np.random.default_rng(123), np.float32)
    d2 = _draw(layout, np.random.default_rng(123), np.float32)
    np.testing.assert_array_equal(d1, d2)


def test_init_rejects_widths_beyond_physical_memory(monkeypatch):
    # 64 KiB of "physical memory": a width-2 Sup1 model fits, width 8
    # (about 160 KiB of float32 parameters) does not
    pages = {"SC_PHYS_PAGES": 16, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    init_params("Sup1", channels=2)
    with pytest.raises(ConfigError, match="physical memory"):
        init_params("Sup1", channels=8)
    # the parameter count is exact in Python ints: no wrap, no allocation
    with pytest.raises(ConfigError, match="physical memory"):
        init_params("Sup1", channels=10**23)


def test_init_statistics():
    model = init_params("Sup1", channels=16, seed=5, dtype=np.float64)
    p = model.params  # enc2's second stage is 64 -> 64, fan_in = 576
    w = p["enc2.main2.w"].data
    want = np.sqrt(2.0 / (64 * 9))
    assert abs(w.std() - want) / want < 0.2
    assert np.all(p["enc2.main2.b"].data == 0)
    assert np.all(p["enc2.main1.gamma"].data == 1)
    assert np.all(p["enc2.main1.beta"].data == 0)


def test_named_params_counts_and_uniqueness():
    sup = init_params("Sup1", channels=2)
    mm = init_params("MM", channels=2)
    sup_names = [n for n, _ in named_params(sup)]
    mm_names = [n for n, _ in named_params(mm)]
    assert len(sup_names) == len(set(sup_names)) == 50
    assert len(mm_names) == len(set(mm_names)) == 124
    assert decoder_param_names(mm, 0) == [n for n in mm_names
                                          if n.startswith("dec0.")]
    assert len(decoder_param_names(mm, 0)) == 50  # 3 attention blocks + head


def test_clone_is_deep_and_exact():
    model = init_params("MM", channels=2, seed=9)
    copy = clone_params(model)
    for (_, a), (_, b) in zip(named_params(model), named_params(copy)):
        np.testing.assert_array_equal(a.data, b.data)
        assert a is not b
    copy.params["enc0.main1.w"].data[...] = 99.0
    assert not np.any(model.params["enc0.main1.w"].data == 99.0)


def _assert_flat_store(model, bufs):
    # an arange written to each flat buffer reads back, in order and with
    # no gap, through the per-name views
    for buf in bufs:
        flat = getattr(model.flat, buf)
        flat[...] = np.arange(flat.size)
        views = [getattr(t, buf).ravel() for t in model.params.values()]
        np.testing.assert_array_equal(np.concatenate(views),
                                      np.arange(flat.size))
        assert all(np.shares_memory(v, flat) for v in views)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_every_model_builder_returns_a_flat_store(tmp_path, variant):
    model = init_params(variant, channels=2, seed=4)
    copy = clone_params(model)
    averaged = average_checkpoints([model, copy])
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, {"model.variant": variant,
                                  "model.channels": "2",
                                  "model.in_channels": "1"})
    loaded, _ = load_model(path)
    assert not np.shares_memory(copy.flat.data, model.flat.data)
    # only the model that is trained carries a gradient buffer
    _assert_flat_store(model, ("data", "grad"))
    for m in (copy, averaged, loaded):
        assert m.flat.grad is None
        assert all(t.grad is None for t in m.params.values())
        _assert_flat_store(m, ("data",))
    for m in (model, copy, averaged, loaded):
        assert m.decoders == VARIANTS[variant].decoders


def test_grad_flows_to_every_parameter():
    rng = np.random.default_rng(53)
    model = init_params("MM", channels=2, seed=2, dtype=np.float64)
    x = _rand_image(rng, (1, 1, 8, 8))
    r = Tensor(rng.standard_normal((1, 1, 8, 8)))
    with Tape():
        avg = average_prediction(model_forward(model, x))
        backward(mse(avg, r))
    for name, t in named_params(model):
        assert np.any(t.grad != 0), f"no gradient reached {name}"


# sha256 of the "name:shape" lines of named_params at channels=2. Names,
# shapes and their order are the checkpoint layout, so a checkpoint
# written earlier loads only while these hold.
LAYOUT_SHA256 = {
    "MM": "c92c767686d4d1141d9ac74cf301d7382c728ca92d54b437de914843a180636f",
    "MM-a": "5054973fd5e3d025c6e9236e88a8b18abae437568b09180feb048bc6576c95c7",
    "MM-b": "60078bf1b94a5f1e6f421caae4cf79557df8faab21b6da5e8467e3801ae65aef",
    "MM-c": "60078bf1b94a5f1e6f421caae4cf79557df8faab21b6da5e8467e3801ae65aef",
    "Sup1": "a89fd152faed8c58bbe0d5c29d3e396ede383b4b2ec5fa20ad11ca2dcda67a8e",
    "Sup2": "c92c767686d4d1141d9ac74cf301d7382c728ca92d54b437de914843a180636f",
    "Morph": "5054973fd5e3d025c6e9236e88a8b18abae437568b09180feb048bc6576c95c7",
}


def test_param_layout_is_pinned():
    for variant, want in LAYOUT_SHA256.items():
        model = init_params(variant, channels=2)
        lines = "".join(f"{name}:{tuple(t.shape)}\n"
                        for name, t in named_params(model))
        assert hashlib.sha256(lines.encode()).hexdigest() == want, variant
