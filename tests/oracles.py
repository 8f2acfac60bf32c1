"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit loops, no
shared code with the package) so the fast implementations have something
honest to be checked against.
"""

import math

import numpy as np


def naive_conv2d(x, w, b, padding, dilation):
    """Stride-1 dilated convolution as a direct sum over kernel taps."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    d, p = dilation, padding
    eff = d * (k - 1) + 1
    ho = h + 2 * p - eff + 1
    wo = wd + 2 * p - eff + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((n, o, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(k):
                            for kj in range(k):
                                acc += (w[oi, ci, ki, kj]
                                        * xp[ni, ci, i + ki * d, j + kj * d])
                    out[ni, oi, i, j] = acc + b[oi]
    return out


def window_conv2d(x, w, b, padding, dilation):
    """naive_conv2d with its pixel loops as array slices: for each output
    channel, input channel and kernel tap, add the weight times the tap's
    shifted window of the padded input."""
    n, c, h, wd = x.shape
    o, _, k, _ = w.shape
    d, p = dilation, padding
    ho = h + 2 * p - d * (k - 1)
    wo = wd + 2 * p - d * (k - 1)
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((n, o, ho, wo), dtype=x.dtype)
    for oi in range(o):
        for ci in range(c):
            for ki in range(k):
                for kj in range(k):
                    out[:, oi] += (w[oi, ci, ki, kj] * xp[
                        :, ci, ki * d:ki * d + ho, kj * d:kj * d + wo])
        out[:, oi] += b[oi]
    return out


def window_conv2d_weight_grad(x, g, k, padding, dilation):
    """Weight gradient of stride-1 dilated convolution: w[o, c, ki, kj]
    meets the tap's shifted window of the padded input x[:, c] at every
    output pixel of g[:, o], so its gradient is their summed product."""
    n, c, h, wd = x.shape
    o, ho, wo = g.shape[1:]
    d, p = dilation, padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    gw = np.zeros((o, c, k, k), dtype=g.dtype)
    for oi in range(o):
        for ci in range(c):
            for ki in range(k):
                for kj in range(k):
                    gw[oi, ci, ki, kj] = np.sum(g[:, oi] * xp[
                        :, ci, ki * d:ki * d + ho, kj * d:kj * d + wo])
    return gw


def col2im_conv2d_input_grad(g, w, x_shape, padding, dilation):
    """Input gradient of stride-1 dilated convolution in col2im form: each
    kernel tap's column gradient w[:, :, ki, kj].T @ g is added back onto
    the tap's shifted window of the padded input, then the padding is
    cropped off."""
    n, c, h, wd = x_shape
    _, _, k, _ = w.shape
    d, p = dilation, padding
    ho, wo = g.shape[2:]
    gxp = np.zeros((n, c, h + 2 * p, wd + 2 * p), dtype=g.dtype)
    for ki in range(k):
        for kj in range(k):
            gxp[:, :, ki * d:ki * d + ho, kj * d:kj * d + wo] += np.einsum(
                "oc,noij->ncij", w[:, :, ki, kj], g)
    return gxp[:, :, p:p + h, p:p + wd]


def tap_loop_conv_flat(taps, view, columns):
    """conv2d's tap walk as a per-tap loop: for each sample and each range
    of `columns` columns, the GEMM of tap (0, 0), then each further tap's
    GEMM added in place, taps in row-major order. `taps` is (k, k, o, c)
    and `view` (k, k, n, c, length); the result is (n, o, length)."""
    k, _, o, _ = taps.shape
    n, length = view.shape[2], view.shape[-1]
    out = np.empty((n, o, length), dtype=view.dtype)
    for i in range(n):
        for m0 in range(0, length, columns):
            m = slice(m0, m0 + columns)
            blk = out[i, :, m]
            np.matmul(taps[0, 0], view[0, 0, i, :, m], out=blk)
            for t in range(1, k * k):
                blk += taps[t // k, t % k] @ view[t // k, t % k, i, :, m]
    return out


def dense_tube_slice(rng, size):
    """data._tube_slice as every pixel against every curve point: the same
    draws in the same order, and the squared distance to each of the 4*size
    points of a curve over three float64 (size, size, 4*size) arrays."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        p0 = rng.uniform(0, size - 1, 2)
        p2 = rng.uniform(0, size - 1, 2)
        while np.hypot(*(p2 - p0)) < size / 2:
            p2 = rng.uniform(0, size - 1, 2)
        p1 = rng.uniform(0, size - 1, 2)
        radius = rng.uniform(1.0, 3.0)
        t = np.linspace(0.0, 1.0, 4 * size)[:, None]
        pts = (1 - t) ** 2 * p0 + 2 * t * (1 - t) * p1 + t ** 2 * p2
        d2 = ((yy[..., None] - pts[:, 0]) ** 2
              + (xx[..., None] - pts[:, 1]) ** 2)
        mask |= d2.min(axis=-1) <= radius * radius
    return mask


def naive_maxpool2(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[ni, ci, i, j] = max(
                        x[ni, ci, 2 * i, 2 * j], x[ni, ci, 2 * i, 2 * j + 1],
                        x[ni, ci, 2 * i + 1, 2 * j],
                        x[ni, ci, 2 * i + 1, 2 * j + 1])
    return out


def naive_morph(x, mode):
    """3x3 sliding max/min with same padding, window clipped at borders."""
    n, c, h, w = x.shape
    pick = max if mode == "dilate" else min
    out = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    vals = []
                    for di in (-1, 0, 1):
                        for dj in (-1, 0, 1):
                            ii, jj = i + di, j + dj
                            if 0 <= ii < h and 0 <= jj < w:
                                vals.append(x[ni, ci, ii, jj])
                    out[ni, ci, i, j] = pick(vals)
    return out


def naive_upsample_bilinear2(x):
    """Per-pixel align-corners-false bilinear, rows combined before
    columns, mirroring the documented evaluation order."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, 2 * h, 2 * w), dtype=x.dtype)
    for i in range(2 * h):
        sy = (i + 0.5) / 2.0 - 0.5
        y0 = math.floor(sy)
        fy = x.dtype.type(sy - y0)
        y0c = min(max(y0, 0), h - 1)
        y1c = min(max(y0 + 1, 0), h - 1)
        for j in range(2 * w):
            sx = (j + 0.5) / 2.0 - 0.5
            x0 = math.floor(sx)
            fx = x.dtype.type(sx - x0)
            x0c = min(max(x0, 0), w - 1)
            x1c = min(max(x0 + 1, 0), w - 1)
            for ni in range(n):
                for ci in range(c):
                    r0 = ((1 - fy) * x[ni, ci, y0c, x0c]
                          + fy * x[ni, ci, y1c, x0c])
                    r1 = ((1 - fy) * x[ni, ci, y0c, x1c]
                          + fy * x[ni, ci, y1c, x1c])
                    out[ni, ci, i, j] = (1 - fx) * r0 + fx * r1
    return out


def scatter_upsample_bilinear2_backward(g):
    """Adjoint of x2 align-corners-false bilinear upsampling: each output
    gradient is scattered with np.add.at onto its two clamped source
    columns, then onto their two clamped source rows."""
    n, c, h2, w2 = g.shape

    def taps(m):
        lo, hi, frac = [], [], []
        for i in range(2 * m):
            s = (i + 0.5) / 2.0 - 0.5
            i0 = math.floor(s)
            lo.append(min(max(i0, 0), m - 1))
            hi.append(min(max(i0 + 1, 0), m - 1))
            frac.append(s - i0)
        return lo, hi, np.array(frac, dtype=g.dtype)

    r0, r1, fy = taps(h2 // 2)
    c0, c1, fx = taps(w2 // 2)
    grows = np.zeros((n, c, h2, w2 // 2), dtype=g.dtype)
    np.add.at(grows, (slice(None), slice(None), slice(None), c0), g * (1 - fx))
    np.add.at(grows, (slice(None), slice(None), slice(None), c1), g * fx)
    gx = np.zeros((n, c, h2 // 2, w2 // 2), dtype=g.dtype)
    fy = fy[:, None]
    np.add.at(gx, (slice(None), slice(None), r0), grows * (1 - fy))
    np.add.at(gx, (slice(None), slice(None), r1), grows * fy)
    return gx


def stencil_upsample_bilinear2(x):
    """x2 align-corners-false bilinear upsampling, rows then columns, each
    axis as two clamped neighbour arrays built by concatenation and one
    0.25/0.75 store per output parity: the form the package's op replaced,
    kept to pin its bits."""
    def axis_pass(x, axis):
        def at(s):
            return (Ellipsis, s) + (slice(None),) * (-1 - axis)

        prev = np.concatenate([x[at(slice(None, 1))],
                               x[at(slice(None, -1))]], axis)
        nxt = np.concatenate([x[at(slice(1, None))],
                              x[at(slice(-1, None))]], axis)
        shape = list(x.shape)
        shape[axis] *= 2
        out = np.empty(shape, dtype=x.dtype)
        out[at(slice(0, None, 2))] = 0.25 * prev + 0.75 * x
        out[at(slice(1, None, 2))] = 0.75 * x + 0.25 * nxt
        return out

    return axis_pass(axis_pass(x, -2), -1)


def stencil_upsample_bilinear2_backward(g):
    """Adjoint of stencil_upsample_bilinear2, columns then rows, each axis
    moved last and its four neighbour contributions added in a fixed
    order: the form the package's op replaced, kept to pin its bits."""
    def axis_adjoint(g, axis):
        g = np.moveaxis(g, axis, -1)
        ge, go = g[..., 0::2], g[..., 1::2]
        gx = 0.75 * (ge + go)
        gx[..., 1:] += 0.25 * go[..., :-1]
        gx[..., :-1] += 0.25 * ge[..., 1:]
        gx[..., 0] += 0.25 * ge[..., 0]
        gx[..., -1] += 0.25 * go[..., -1]
        return np.moveaxis(gx, -1, axis)

    return axis_adjoint(axis_adjoint(g, 3), 2)


def naive_average(arrays):
    """Elementwise mean of equally shaped arrays via explicit loops."""
    out = np.zeros_like(arrays[0])
    flat_out = out.reshape(-1)
    flats = [a.reshape(-1) for a in arrays]
    for i in range(flat_out.size):
        acc = 0.0
        for f in flats:
            acc += f[i]
        flat_out[i] = acc / len(arrays)
    return out


def naive_ece(probs, gt, m_bins, confidence="max", threshold=0.5):
    """Brute-force binned calibration error with exact (fsum) averaging."""
    p = np.asarray(probs, dtype=np.float64).ravel()
    g = np.asarray(gt, dtype=np.float64).ravel()
    lo = 0.5 if confidence == "max" else 0.0
    width = (1.0 - lo) / m_bins
    edges = [lo + width * i for i in range(m_bins + 1)]
    edges[-1] = 1.0
    buckets = [[] for _ in range(m_bins)]
    for pi, gi in zip(p, g):
        conf = max(pi, 1.0 - pi) if confidence == "max" else pi
        b = None
        for k in range(m_bins):
            # right-closed bins, first one left-closed
            if (conf <= edges[k + 1] and (conf > edges[k] or k == 0)):
                b = k
                break
        correct = 1.0 if (pi >= threshold) == (gi != 0) else 0.0
        buckets[b].append((correct, conf))
    n = len(p)
    total = 0.0
    for bucket in buckets:
        if not bucket:
            continue
        acc = math.fsum(c for c, _ in bucket) / len(bucket)
        conf = math.fsum(c for _, c in bucket) / len(bucket)
        total += (len(bucket) / n) * abs(acc - conf)
    return total


def _whole_bins(p, g, m_bins):
    """(edges, counts, accuracy, confidence) of one max(p, 1-p) diagram,
    binned in one pass over float64 copies of every pixel."""
    p = np.asarray(p, dtype=np.float64).ravel()
    g = np.asarray(g, dtype=np.float64).ravel()
    correct = ((p >= 0.5) == (g != 0)).astype(np.float64)
    conf = np.maximum(p, 1.0 - p)
    edges = np.linspace(0.5, 1.0, m_bins + 1)
    idx = np.clip(np.searchsorted(edges, conf, side="left") - 1, 0, m_bins - 1)
    counts = np.bincount(idx, minlength=m_bins)
    acc_sum = np.bincount(idx, weights=correct, minlength=m_bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=m_bins)
    nz = counts > 0
    accuracy = np.zeros(m_bins)
    conf_mean = np.zeros(m_bins)
    accuracy[nz] = acc_sum[nz] / counts[nz]
    conf_mean[nz] = conf_sum[nz] / counts[nz]
    return edges, counts, accuracy, conf_mean


def whole_split_bins(probs, gts, m_bins):
    """Reliability diagrams of a split as one whole-split pass makes them:
    one per slice, each binned on its own, and the pooled one binned once
    over every case's pixels concatenated. `probs` and `gts` list each
    case's (slices, ...) stack; returns ([per-slice diagram], pooled), each
    an (edges, counts, accuracy, confidence) tuple."""
    per_slice = [_whole_bins(p[s], g[s], m_bins)
                 for p, g in zip(probs, gts) for s in range(len(p))]
    pooled = _whole_bins(np.concatenate([p.ravel() for p in probs]),
                         np.concatenate([g.ravel() for g in gts]), m_bins)
    return per_slice, pooled


def fd_gradient(f, arrays, h=1e-5):
    """Central finite differences of scalar f() w.r.t. each array, element
    by element, mutating in place and restoring. 64-bit only."""
    grads = []
    for arr in arrays:
        assert arr.dtype == np.float64, "finite differences need float64"
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(ad, fd):
    """max |ad - fd| scaled by the largest reference magnitude."""
    ad = np.asarray(ad)
    fd = np.asarray(fd)
    scale = max(float(np.max(np.abs(fd))), 1e-8)
    return float(np.max(np.abs(ad - fd))) / scale


def where_sigmoid(x):
    """Logistic function in split form, selected by a masked np.where:
    r = 1/(1+e) for x >= 0 and e*r for x < 0, with e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    r = 1.0 / (1.0 + e)
    return np.where(x >= 0, r, e * r)


def argmax_maxpool2(x, g):
    """2x2 stride-2 max pooling of NCHW x through a copy of every window,
    argmax and take_along_axis; returns the output and the input gradient
    of output gradient g, routed to argmax's first maximal element."""
    n, c, h, w = x.shape
    win = (x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
           .reshape(n, c, h // 2, w // 2, 4))
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    gw = np.zeros_like(win)
    np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
    gx = (gw.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
          .reshape(n, c, h, w))
    return out, gx


def argmax_morph(x, mode, g):
    """3x3 grey-scale dilation (argmax) or erosion (argmin) of NCHW x over
    a ±inf-padded sliding window view; returns the output and the input
    gradient of output gradient g, scattered with np.add.at."""
    n, c, h, w = x.shape
    fill = -np.inf if mode == "dilate" else np.inf
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=fill)
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    win = win.reshape(n, c, h, w, 9)
    idx = win.argmax(axis=-1) if mode == "dilate" else win.argmin(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    gp = np.zeros((n, c, h + 2, w + 2), dtype=g.dtype)
    nn, cc, ii, jj = np.ogrid[:n, :c, :h, :w]
    np.add.at(gp, (nn, cc, ii + idx // 3, jj + idx % 3), g)
    return out, gp[:, :, 1:-1, 1:-1]


def per_name_adam_step(named, grads, state, lr, beta1=0.9, beta2=0.999,
                       eps=1e-8):
    """Bias-corrected Adam as a loop over named tensors, each with its own
    moments in the dicts state["m"] and state["v"] (created as zeros on
    first use); state["step"] counts the updates."""
    state["step"] = t = state.get("step", 0) + 1
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, tensor in named:
        g = grads[name]
        m = state.setdefault("m", {}).setdefault(name, np.zeros_like(g))
        v = state.setdefault("v", {}).setdefault(name, np.zeros_like(g))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        tensor.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
