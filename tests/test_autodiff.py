import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mismatch.autodiff import (Tape, Tensor, add, backward, concat_channels,
                               conv2d, instance_norm, maxpool2, mse, mul,
                               relu, same_padding, scale, sigmoid,
                               stop_gradient, take_batch, upsample_bilinear2)
from mismatch.errors import DimensionError, GraphError, ParameterError
from mismatch.nets import morph_perturb
from gradcheck import check_grads
from oracles import (argmax_maxpool2, argmax_morph, col2im_conv2d_input_grad,
                     naive_conv2d, naive_maxpool2, naive_upsample_bilinear2,
                     rel_err, scatter_upsample_bilinear2_backward,
                     where_sigmoid, window_conv2d, window_conv2d_weight_grad)


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# ---------------------------------------------------------------------------
# values against oracles and worked examples

def test_conv2d_matches_naive_oracle():
    rng = np.random.default_rng(11)
    # 3 -> 4 channels stacks the tap views, 4 -> 3 runs one GEMM per tap
    for (c, o), (d, p) in itertools.product([(3, 4), (4, 3)],
                                            [(1, 0), (1, 1), (2, 2), (5, 10)]):
        x = Tensor(rng.standard_normal((2, c, 12, 12)))
        w = Tensor(rng.standard_normal((o, c, 3, 3)))
        b = Tensor(rng.standard_normal(o))
        got = conv2d(x, w, b, padding=p, dilation=d).data
        want = naive_conv2d(x.data, w.data, b.data, p, d)
        assert rel_err(got, want) < 1e-12
        assert rel_err(window_conv2d(x.data, w.data, b.data, p, d),
                       want) < 1e-12


def test_conv2d_value_only_batch_groups_match_whole_batch():
    # A value-only call and a recorded call of the same 4-sample float64
    # batch (16 -> 4 at 48x48: 10,000 grid columns in 5 column blocks)
    # take the same tap walk, and the recorded one keeps only the padded
    # input for its backward; both must give the same values
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((4, 16, 48, 48)))
    w = Tensor(rng.standard_normal((4, 16, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(4))
    grouped = conv2d(x, w, b, padding=1).data
    with Tape() as tape:
        whole = conv2d(x, w, b, padding=1).data
    assert len(tape.nodes) == 1
    assert rel_err(grouped, whole) < 1e-12


# Every conv2d call of an MM step at width 8 on 32x32 inputs, as
# (c, o, side, kernel, padding, dilation): the encoder, the 48->16 and
# 24->8 decoder entries, the dilation-5 sides and the 1x1 head.
MM_STEP_CONVS = [
    (1, 8, 32, 3, 1, 1), (8, 16, 16, 3, 1, 1), (16, 16, 16, 3, 1, 1),
    (16, 32, 8, 3, 1, 1), (32, 32, 8, 3, 1, 1), (48, 16, 16, 3, 1, 1),
    (24, 8, 32, 3, 1, 1), (8, 8, 32, 3, 1, 1), (8, 8, 32, 3, 5, 5),
    (16, 16, 16, 3, 5, 5), (8, 1, 32, 1, 0, 1),
]


# Beyond one 256 KiB column block in float64: per tap (24 -> 8, 52 blocks)
# and stacked (8 -> 16, 41 blocks), as (n, c, o, side, kernel, padding,
# dilation).
BLOCKED_CONVS = [(16, 24, 8, 64, 3, 1, 1), (16, 8, 16, 32, 3, 1, 1)]


def test_conv2d_forward_and_weight_grad_match_oracles():
    # every MM step shape at n=2, both sides of the o > c stacking rule,
    # then the blocked shapes against the sliced form of the same oracle
    rng = np.random.default_rng(29)
    shapes = [(2, *s) for s in MM_STEP_CONVS] + BLOCKED_CONVS
    assert {o > c for _, c, o, *_ in shapes} == {True, False}
    for n, c, o, side, k, p, d in shapes:
        x = Tensor(rng.standard_normal((n, c, side, side)), requires_grad=True)
        w = Tensor(rng.standard_normal((o, c, k, k)), requires_grad=True)
        b = Tensor(rng.standard_normal(o), requires_grad=True)
        with Tape() as tape:
            out = conv2d(x, w, b, p, dilation=d)
        oracle = naive_conv2d if n == 2 else window_conv2d
        assert rel_err(out.data, oracle(x.data, w.data, b.data, p, d)) < 1e-12
        g = rng.standard_normal(out.shape)
        _, gw, gb = tape.nodes[-1].backward_fn(g)
        want = window_conv2d_weight_grad(x.data, g, k, p, d)
        assert gw.shape == w.shape
        assert rel_err(gw, want) < 1e-12
        assert rel_err(gb, g.sum(axis=(0, 2, 3))) < 1e-12


def test_recorded_conv2d_keeps_no_column_buffer():
    # im2col kept c*k*k*n*ho*wp floats alive from forward to backward, 9x
    # the padded input: 1.9 MB for this float32 24 -> 8 conv at 32x32
    rng = np.random.default_rng(37)
    x = Tensor(rng.standard_normal((2, 24, 32, 32)).astype(np.float32),
               requires_grad=True)
    w = Tensor(rng.standard_normal((8, 24, 3, 3)).astype(np.float32),
               requires_grad=True)
    b = Tensor(np.zeros(8, np.float32), requires_grad=True)
    cols_bytes = 24 * 9 * 2 * 32 * 34 * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            out = conv2d(x, w, b, 1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < cols_bytes / 4, retained
    gx, gw, _ = tape.nodes[-1].backward_fn(np.ones_like(out.data))
    assert gx.shape == x.shape and gw.shape == w.shape


def test_conv2d_input_grad_matches_col2im_oracle():
    rng = np.random.default_rng(31)
    for n, c, o, side, k, p, d in ([(2, *s) for s in MM_STEP_CONVS]
                                   + BLOCKED_CONVS):
        x = Tensor(rng.standard_normal((n, c, side, side)), requires_grad=True)
        w = Tensor(rng.standard_normal((o, c, k, k)), requires_grad=True)
        b = Tensor(rng.standard_normal(o), requires_grad=True)
        with Tape() as tape:
            out = conv2d(x, w, b, p, dilation=d)
        g = rng.standard_normal(out.shape)
        gx, _, _ = tape.nodes[-1].backward_fn(g)
        want = col2im_conv2d_input_grad(g, w.data, x.shape, p, d)
        assert gx.shape == x.shape
        assert rel_err(gx, want) < 1e-12


def test_conv2d_identity_kernel_is_identity():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((1, 1, 6, 6)))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = conv2d(x, Tensor(w), Tensor(np.zeros(1)), padding=1)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_ones_kernel_sums_neighbourhood():
    x = Tensor(np.ones((1, 1, 5, 5)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w, Tensor(np.zeros(1)), padding=1)
    # interior pixels see the full 3x3 window, corners only 2x2
    assert out.data[0, 0, 2, 2] == 9.0
    assert out.data[0, 0, 0, 0] == 4.0


def test_same_padding_keeps_size():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((1, 2, 16, 16)))
    for d in (1, 2, 5):
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        out = conv2d(x, w, Tensor(np.zeros(3)), same_padding(3, d), dilation=d)
        assert out.shape == (1, 3, 16, 16)


def test_conv2d_rejects_bad_arguments():
    x = Tensor(np.zeros((1, 2, 8, 8)))
    w = Tensor(np.zeros((3, 2, 3, 3)))
    b = Tensor(np.zeros(3))
    with pytest.raises(DimensionError):
        conv2d(Tensor(np.zeros((1, 4, 8, 8))), w, b, padding=1)
    with pytest.raises(DimensionError):
        conv2d(x, Tensor(np.zeros((3, 2, 3, 5))), b, padding=1)
    with pytest.raises(DimensionError):
        conv2d(x, w, Tensor(np.zeros(4)), padding=1)
    with pytest.raises(ParameterError):
        conv2d(x, w, b, padding=1, dilation=0)
    with pytest.raises(ParameterError):
        conv2d(x, w, b, padding=1, dilation=1.5)
    with pytest.raises(ParameterError):
        conv2d(x, w, b, padding=-1)
    for bad in (1.5, "1", True, None):
        with pytest.raises(ParameterError):
            conv2d(x, w, b, padding=bad)
    with pytest.raises(ParameterError):
        conv2d(x, w, b, padding=1, dilation=True)
    with pytest.raises(DimensionError):
        conv2d(x, w, b, padding=0, dilation=8)  # extent 17 > 8


def test_maxpool2_matches_naive_oracle():
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((2, 3, 8, 10)))
    np.testing.assert_array_equal(maxpool2(x).data, naive_maxpool2(x.data))


def test_maxpool2_example_and_tie_routing():
    x = Tensor(np.array([[[[1.0, 3.0], [2.0, 4.0]]]]), requires_grad=True)
    out = maxpool2(x)
    assert out.data[0, 0, 0, 0] == 4.0
    tie = Tensor(np.array([[[[5.0, 5.0], [1.0, 1.0]]]]), requires_grad=True)
    with Tape():
        backward(mse(maxpool2(tie), Tensor(np.zeros((1, 1, 1, 1)))))
    # first maximal element in row-major window order takes the gradient
    np.testing.assert_array_equal(tie.grad[0, 0],
                                  np.array([[10.0, 0.0], [0.0, 0.0]]))


def test_maxpool2_odd_size_rejected():
    with pytest.raises(DimensionError):
        maxpool2(Tensor(np.zeros((1, 1, 5, 4))))


def _tie_maps(rng, dtype, shape=(2, 3, 8, 10)):
    """Random maps and maps full of ties: constant, tied along each row,
    few distinct values, and -0.0 against +0.0."""
    n, c, h, w = shape
    for x in (rng.standard_normal(shape), np.full(shape, 1.5),
              np.repeat(rng.integers(0, 3, (n, c, h, 1)), w, axis=3),
              rng.integers(-1, 2, shape),
              rng.choice(np.array([0.0, -0.0]), shape)):
        yield x.astype(dtype)


def _window_ops():
    """(name, op, oracle) for every window kernel: the op on a Tensor, the
    oracle on an array and an output gradient, returning (out, grad)."""
    yield "maxpool2", maxpool2, argmax_maxpool2
    for mode in ("dilate", "erode"):
        yield (mode, lambda x, m=mode: morph_perturb(x, m),
               lambda x, g, m=mode: argmax_morph(x, m, g))


def _value_and_grad(op, x, g):
    """op's output on array x and its input gradient for output grad g."""
    t = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = op(t)
    (gx,) = tape.nodes[-1].backward_fn(g)
    return out.data, gx


def _same_bits(a, b):
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_window_kernels_match_argmax_oracles_bitwise(dtype):
    # value and routing, ties included: a unit gradient reaches exactly the
    # element argmax/argmin picks, and the output keeps that element's bits
    rng = np.random.default_rng(17)
    for x in _tie_maps(rng, dtype):
        for name, op, oracle in _window_ops():
            g = np.ones(op(Tensor(x)).shape, dtype)
            got, gx = _value_and_grad(op, x, g)
            want, want_gx = oracle(x, g)
            assert _same_bits(got, want), name
            assert _same_bits(gx, want_gx), name


def test_morph_backward_matches_scatter_add():
    # float64 gradients against np.add.at's accumulation; the slice-adds run
    # last tap first, which sums in np.add.at's order, so even the rounding
    # agrees
    rng = np.random.default_rng(18)
    for x in _tie_maps(rng, np.float64):
        for mode in ("dilate", "erode"):
            g = rng.standard_normal(x.shape)
            _, gx = _value_and_grad(lambda t: morph_perturb(t, mode), x, g)
            _, want = argmax_morph(x, mode, g)
            assert rel_err(gx, want) < 1e-12
            assert _same_bits(gx, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_where_oracle_bitwise(dtype):
    rng = np.random.default_rng(19)
    for x in list(_tie_maps(rng, dtype)) + [
            np.array([-1e4, -1e2, -1.0, -0.0, 0.0, 1.0, 1e2, 1e4]),
            rng.uniform(-1e4, 1e4, 256)]:
        x = x.astype(dtype)
        with np.errstate(over="raise", invalid="raise"):
            got = sigmoid(Tensor(x)).data
        assert _same_bits(got, where_sigmoid(x))


def test_value_only_relu_and_maxpool_keep_only_their_output():
    # no tape: relu builds no mask and maxpool2 copies no window, so all
    # they allocate is their output
    x = Tensor(np.random.default_rng(20).standard_normal(
        (16, 8, 64, 64)).astype(np.float32))
    slack = 1 << 18  # ufunc buffers for the strided taps
    for op, shrink in ((relu, 1), (maxpool2, 4)):
        tracemalloc.start()
        try:
            out = op(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == x.data.nbytes // shrink
        assert peak < out.data.nbytes + slack, (op.__name__, peak)


def test_upsample_matches_naive_oracle_bitwise():
    rng = np.random.default_rng(15)
    for shape in [(2, 3, 5, 7), (1, 1, 1, 1), (1, 2, 1, 5), (2, 1, 4, 1)]:
        for dtype in (np.float64, np.float32):
            x = Tensor(rng.standard_normal(shape).astype(dtype))
            got = upsample_bilinear2(x).data
            want = naive_upsample_bilinear2(x.data)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)


def test_upsample_backward_matches_scatter_oracle():
    rng = np.random.default_rng(30)
    for shape in [(1, 1, 1, 1), (1, 2, 1, 5), (2, 1, 4, 1), (2, 3, 5, 7)]:
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        with Tape() as tape:
            out = upsample_bilinear2(x)
        g = rng.standard_normal(out.shape)
        (got,) = tape.nodes[-1].backward_fn(g)
        assert got.shape == shape
        assert rel_err(got, scatter_upsample_bilinear2_backward(g)) < 1e-12


def test_upsample_worked_example():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    want = np.array([[1.0, 1.25, 1.75, 2.0],
                     [1.5, 1.75, 2.25, 2.5],
                     [2.5, 2.75, 3.25, 3.5],
                     [3.0, 3.25, 3.75, 4.0]])
    np.testing.assert_allclose(upsample_bilinear2(x).data[0, 0], want,
                               rtol=0, atol=1e-15)


def test_sigmoid_is_saturating_and_never_overflows():
    x = Tensor(np.array([-700.0, -100.0, 0.0, 100.0, 700.0]))
    with np.errstate(over="raise"):
        out = sigmoid(x).data
    assert np.all(np.isfinite(out))
    assert out[0] > 0.0
    assert out[2] == 0.5
    assert out[4] == 1.0
    assert np.all(np.diff(out) >= 0)
    x32 = Tensor(np.array([-100.0, 100.0], dtype=np.float32))
    with np.errstate(over="raise"):
        out32 = sigmoid(x32).data
    assert out32.dtype == np.float32
    assert 0.0 <= out32[0] < 1e-30 and out32[1] == 1.0


def test_sigmoid_bounds_property():
    rng = np.random.default_rng(16)
    for _ in range(20):
        # strict bounds hold below the saturation threshold (~|x| < 36)
        out = sigmoid(Tensor(rng.uniform(-30, 30, size=64))).data
        assert np.all(out > 0) and np.all(out < 1)


def test_relu_subgradient_zero_at_zero():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    with Tape():
        backward(mse(relu(x), Tensor(np.ones(3))))
    assert x.grad[0] == 0.0
    assert x.grad[1] == 0.0
    assert x.grad[2] != 0.0


def test_mse_example_value():
    a = Tensor(np.array([1.0, 2.0]))
    b = Tensor(np.array([1.0, 1.0]))
    assert mse(a, b).item() == 0.5


def test_instance_norm_normalises_and_affine_applies():
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((2, 3, 9, 9)) * 4 + 2)
    out = instance_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3))).data
    assert np.abs(out.mean(axis=(2, 3))).max() < 1e-10
    assert np.abs(out.var(axis=(2, 3)) - 1).max() < 1e-4
    shifted = instance_norm(x, Tensor(np.full(3, 2.0)),
                            Tensor(np.full(3, 7.0))).data
    np.testing.assert_allclose(shifted, out * 2.0 + 7.0, atol=1e-12)


def test_instance_norm_unit_spatial_collapses_to_beta():
    out = instance_norm(Tensor(np.full((1, 2, 1, 1), 5.0)),
                        Tensor(np.ones(2)), Tensor(np.array([3.0, -1.0])))
    np.testing.assert_array_equal(out.data.ravel(), [3.0, -1.0])


def test_instance_norm_rejects_bad_affine():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    with pytest.raises(DimensionError):
        instance_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(2)))


def test_concat_channels_layout_and_errors():
    a = Tensor(np.ones((1, 2, 4, 4)))
    b = Tensor(np.zeros((1, 3, 4, 4)))
    out = concat_channels(a, b)
    assert out.shape == (1, 5, 4, 4)
    np.testing.assert_array_equal(out.data[:, :2], a.data)
    np.testing.assert_array_equal(out.data[:, 2:], b.data)
    with pytest.raises(DimensionError):
        concat_channels(a, Tensor(np.zeros((1, 3, 5, 4))))


def test_dtype_follows_operands():
    rng = np.random.default_rng(18)
    x32 = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
    w32 = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32))
    assert conv2d(x32, w32, Tensor(np.zeros(2, np.float32)), 1).dtype == np.float32
    x32g = Tensor(x32.data, requires_grad=True)
    with Tape() as tape:
        out = conv2d(x32g, w32, Tensor(np.zeros(2, np.float32)), 1)
    gx, gw, gb = tape.nodes[-1].backward_fn(np.ones_like(out.data))
    assert gx.dtype == gw.dtype == gb.dtype == np.float32
    assert relu(x32).dtype == np.float32
    assert Tensor(np.arange(4)).dtype == np.float64  # ints coerce to f64


# ---------------------------------------------------------------------------
# gradients against central finite differences (float64, h=1e-5)

def test_grad_add_mul_scale():
    rng = np.random.default_rng(20)
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    r = Tensor(rng.standard_normal((3, 4)))
    assert check_grads(lambda: mse(add(a, b), r), [a, b]) < 1e-6
    assert check_grads(lambda: mse(mul(a, b), r), [a, b]) < 1e-6
    assert check_grads(lambda: mse(scale(a, -2.5), r), [a]) < 1e-6


def test_grad_mse_both_sides():
    rng = np.random.default_rng(21)
    a, b = leaf(rng, 5), leaf(rng, 5)
    assert check_grads(lambda: mse(a, b), [a, b]) < 1e-6


def test_grad_relu_away_from_kink():
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    x.data[np.abs(x.data) < 0.1] += 0.2  # keep probes off the kink
    r = Tensor(rng.standard_normal((4, 4)))
    assert check_grads(lambda: mse(relu(x), r), [x]) < 1e-6


def test_grad_sigmoid():
    rng = np.random.default_rng(23)
    x = leaf(rng, 3, 5)
    r = Tensor(rng.standard_normal((3, 5)))
    assert check_grads(lambda: mse(sigmoid(x), r), [x]) < 1e-6


def test_grad_conv2d_plain_and_dilated():
    rng = np.random.default_rng(24)
    # the last three pad to or beyond the kernel's reach (padding >= d*(k-1))
    for k, d, p in [(3, 1, 1), (3, 5, 5), (3, 1, 0), (1, 1, 1), (3, 1, 3),
                    (3, 2, 4)]:
        x = leaf(rng, 2, 2, 8, 8)
        w = leaf(rng, 3, 2, k, k)
        b = leaf(rng, 3)
        side = 8 + 2 * p - d * (k - 1)
        r = Tensor(rng.standard_normal((2, 3, side, side)))
        err = check_grads(lambda: mse(conv2d(x, w, b, p, dilation=d), r),
                          [x, w, b])
        assert err < 1e-6


def test_grad_instance_norm():
    rng = np.random.default_rng(25)
    x = leaf(rng, 2, 3, 5, 5)
    gamma = Tensor(rng.standard_normal(3) + 1.5, requires_grad=True)
    beta = leaf(rng, 3)
    r = Tensor(rng.standard_normal((2, 3, 5, 5)))
    err = check_grads(lambda: mse(instance_norm(x, gamma, beta), r),
                      [x, gamma, beta])
    assert err < 1e-5


def test_grad_maxpool2():
    rng = np.random.default_rng(26)
    x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
    r = Tensor(rng.standard_normal((1, 2, 3, 3)))
    assert check_grads(lambda: mse(maxpool2(x), r), [x]) < 1e-6


def test_grad_upsample_bilinear2():
    rng = np.random.default_rng(27)
    x = leaf(rng, 1, 2, 4, 5)
    r = Tensor(rng.standard_normal((1, 2, 8, 10)))
    assert check_grads(lambda: mse(upsample_bilinear2(x), r), [x]) < 1e-6


def test_grad_concat_channels():
    rng = np.random.default_rng(28)
    a, b = leaf(rng, 1, 2, 4, 4), leaf(rng, 1, 3, 4, 4)
    r = Tensor(rng.standard_normal((1, 5, 4, 4)))
    assert check_grads(lambda: mse(concat_channels(a, b), r), [a, b]) < 1e-6


def test_take_batch_values_grad_and_range():
    rng = np.random.default_rng(31)
    x = leaf(rng, 3, 2, 4, 4)
    np.testing.assert_array_equal(take_batch(x, 1, 3).data, x.data[1:3])
    r = Tensor(rng.standard_normal((2, 2, 4, 4)))
    assert check_grads(lambda: mse(take_batch(x, 1, 3), r), [x]) < 1e-6
    x.grad[...] = 0
    with Tape():
        backward(mse(take_batch(x, 0, 1), Tensor(np.zeros((1, 2, 4, 4)))))
    assert np.all(x.grad[1:] == 0) and np.any(x.grad[0] != 0)
    for start, stop in [(2, 2), (-1, 1), (0, 4)]:
        with pytest.raises(DimensionError):
            take_batch(x, start, stop)


def test_grad_reused_input_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with Tape():
        backward(mse(add(x, x), Tensor(np.zeros(1))))
    # loss = (2x)^2, d/dx = 8x
    assert x.grad[0] == pytest.approx(24.0, abs=1e-12)


# ---------------------------------------------------------------------------
# stop_gradient and tape discipline

def test_stop_gradient_blocks_exactly_one_path():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with Tape():
        y = mul(x, stop_gradient(x))
        backward(mse(y, Tensor(np.zeros(1))))
    # loss = (x*c)^2 with c frozen at 3: d/dx = 2*x*c^2 = 54.
    # Full dependence would give 4x^3 = 108.
    assert x.grad[0] == pytest.approx(54.0, abs=1e-12)


def test_stop_gradient_returns_plain_leaf():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape():
        d = stop_gradient(scale(x, 2.0))
    assert not d.requires_grad
    assert d.tape is None
    np.testing.assert_array_equal(d.data, 2.0 * np.ones(3))


def test_backward_requires_scalar_and_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape():
        y = scale(x, 2.0)
        with pytest.raises(GraphError):
            backward(y)  # not scalar
    with pytest.raises(GraphError):
        backward(Tensor(np.zeros(())))  # never recorded


def test_backward_consumes_tape():
    x = Tensor(np.array([1.0]), requires_grad=True)
    with Tape() as tape:
        loss = mse(x, Tensor(np.zeros(1)))
        backward(loss)
        assert tape.nodes == []  # the graph is released once walked
        with pytest.raises(GraphError):
            backward(loss)


def test_tapes_are_per_thread():
    # more threads than cores and a tiny switch interval, so the threads
    # interleave inside their Tape contexts
    x = Tensor(np.ones(3), requires_grad=True)
    errors = []

    def work():
        try:
            for _ in range(200):
                with Tape() as tape:
                    y = scale(x, 2.0)
                    if y.tape is not tape or len(tape.nodes) != 1:
                        errors.append("op recorded on another thread's tape")
        except Exception as e:  # collected for the main thread's assert
            errors.append(repr(e))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_unreachable_parameter_keeps_zero_grad():
    x = Tensor(np.array([1.0]), requires_grad=True)
    unused = Tensor(np.array([5.0]), requires_grad=True)
    with Tape():
        backward(mse(x, Tensor(np.zeros(1))))
    np.testing.assert_array_equal(unused.grad, np.zeros(1))
    assert x.grad[0] != 0.0


def test_no_tape_means_no_recording():
    x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
    out = maxpool2(x)
    assert not out.requires_grad
    assert out.tape is None


def test_tape_nodes_are_topologically_ordered():
    rng = np.random.default_rng(29)
    x = leaf(rng, 1, 2, 8, 8)
    w = leaf(rng, 2, 2, 3, 3)
    b = leaf(rng, 2)
    with Tape() as tape:
        h = relu(conv2d(x, w, b, 1))
        h = add(h, x)
        mse(h, Tensor(np.zeros((1, 2, 8, 8))))
    position = {id(node.output): i for i, node in enumerate(tape.nodes)}
    assert len(position) == len(tape.nodes) == 4
    for i, node in enumerate(tape.nodes):
        for t in node.inputs:
            if t.tape is tape and t.grad is None:
                assert position[id(t)] < i


def test_stale_graph_contributes_nothing():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Tape():
        y = mul(x, x)
    with Tape():
        # y was recorded on the first tape; the second treats it as data
        backward(mse(y, Tensor(np.zeros(1))))
    np.testing.assert_array_equal(x.grad, np.zeros(1))
