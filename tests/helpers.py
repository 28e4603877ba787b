"""Independent slow-path oracles shared by the tests.

These deliberately avoid the library's vectorized code: plain Python loops
and float arithmetic only, so agreement is meaningful.
"""

import numpy as np


def naive_local_conv(x, v):
    """Per-pixel filtering, one tap at a time, replicating out-of-range reads.

    x: (N,1,H,W), v: (N,k*k,H,W). out[m,n] += x[m-s, n-t] * v[(s+r)k+(t+r)]
    accumulated in channel order, matching the library's summation order.
    """
    n, _, h, w = x.shape
    k = int(round(v.shape[1] ** 0.5))
    r = k // 2
    out = np.zeros((n, 1, h, w))
    for b in range(n):
        for m in range(h):
            for col in range(w):
                acc = 0.0
                for s in range(-r, r + 1):
                    for t in range(-r, r + 1):
                        a = min(max(m - s, 0), h - 1)
                        bb = min(max(col - t, 0), w - 1)
                        c = (s + r) * k + (t + r)
                        acc += float(x[b, 0, a, bb]) * float(v[b, c, m, col])
                out[b, 0, m, col] = acc
    return out


def naive_conv2d(x, w, bias, groups=1):
    """Cross-correlation with edge replication, brute force."""
    n, cin, h, ww = x.shape
    cout, cin_g, kh, kw = w.shape
    cout_g = cout // groups
    ph, pw = kh // 2, kw // 2
    out = np.zeros((n, cout, h, ww))
    for b in range(n):
        for co in range(cout):
            gi = co // cout_g
            for m in range(h):
                for nn in range(ww):
                    acc = float(bias[co])
                    for ci in range(cin_g):
                        for dy in range(kh):
                            for dx in range(kw):
                                a = min(max(m + dy - ph, 0), h - 1)
                                c = min(max(nn + dx - pw, 0), ww - 1)
                                acc += float(x[b, gi * cin_g + ci, a, c]) * float(w[co, ci, dy, dx])
                    out[b, co, m, nn] = acc
    return out


def naive_box_mean(x, k):
    """Mean of the k x k window around each pixel of a 2-D array, out-of-range
    reads replicating the nearest edge pixel (so a window may be wider than
    the image), one pixel at a time."""
    h, w = x.shape
    r = k // 2
    out = np.zeros((h, w))
    for m in range(h):
        for n in range(w):
            acc = 0.0
            for s in range(-r, r + 1):
                for t in range(-r, r + 1):
                    acc += float(x[min(max(m + s, 0), h - 1), min(max(n + t, 0), w - 1)])
            out[m, n] = acc / (k * k)
    return out


def direct_ssim(p, q, c1=1e-4, c2=9e-4, weights=None):
    """SSIM of two windows straight from the definition."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if weights is None:
        mp, mq = p.mean(), q.mean()
        sp = (p * p).mean() - mp * mp
        sq = (q * q).mean() - mq * mq
        spq = (p * q).mean() - mp * mq
    else:
        mp, mq = (p * weights).sum(), (q * weights).sum()
        sp = (p * p * weights).sum() - mp * mp
        sq = (q * q * weights).sum() - mq * mq
        spq = (p * q * weights).sum() - mp * mq
    return ((2 * mp * mq + c1) * (2 * spq + c2)) / ((mp ** 2 + mq ** 2 + c1) * (sp + sq + c2))
