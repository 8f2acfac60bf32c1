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
