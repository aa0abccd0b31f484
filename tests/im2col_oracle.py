"""The padded-copy conv that ``gradcheck._conv_p`` used before it gathered
its im2col columns straight from the unpadded input, kept as an oracle.

The input is copied into a zero-filled padded canvas, and the im2col matrix
is a reshape copy of a strided window view of that canvas; the GEMM, bias
and delta terms follow as in ``_conv_p``.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from convmotion.gradcheck import _add_deltas, _same_pad


def padded_conv_p(x, k, b, stride, dk, db, P):
    """``_conv_p``'s contract: x [C,H,W,Px], base kernel k [Co,C,kh,kw],
    bias b [Co], deltas dk and db -> [Co,Ho,Wo,P']."""
    sH, sW = stride
    Co, C, kh, kw = k.shape
    _, H, W, Px = x.shape
    pH, pW = _same_pad(H, kh, sH), _same_pad(W, kw, sW)
    Ho = (H + 2 * pH - kh) // sH + 1
    Wo = (W + 2 * pW - kw) // sW + 1
    xp = np.zeros((C, H + 2 * pH, W + 2 * pW, Px))
    xp[:, pH:pH + H, pW:pW + W] = x
    s0, s1, s2, s3 = xp.strides
    cols = as_strided(xp, (C, kh, kw, Ho, Wo, Px), (s0, s1, s2, s1 * sH,
                      s2 * sW, s3)).reshape(C * kh * kw, -1, Px)
    out = k.reshape(Co, -1) @ cols.reshape(len(cols), -1)
    out = _add_deltas(out.reshape(Co, -1, Px) + b[:, None, None], cols, dk,
                      db, P)
    return out.reshape(Co, Ho, Wo, -1)
