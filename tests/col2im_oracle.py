"""The strided-add col2im that ``autodiff.conv2d`` used before its input
gradient was formed by a BLAS column-scatter product, kept as an oracle.

Each kernel column's im2col rows are added onto the zero-padded canvas with
one strided add per group of kernel rows that land on disjoint input rows,
so every canvas element receives its terms in (kernel row, kernel column)
order.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided


def col2im_input_grad(g, kernel, x_shape, stride, padding):
    """The input gradient of a ``conv2d`` without activation of an
    ``x_shape`` input with ``kernel`` ``[Cout, Cin, kH, kW]``, for the
    output gradient ``g`` ``[N, Cout, Ho, Wo]``.

    ``dcols`` is the GEMM ``conv2d`` forms, over output columns ordered
    ``(Wo, N, Ho)``: a GEMM's tail tiles may round a column differently once
    it moves, so this keeps the comparison to the col2im itself."""
    N, Cin, H, W = x_shape
    Cout, _, kH, kW = kernel.shape
    _, _, Ho, Wo = g.shape
    sH, sW = stride
    pH, pW = padding
    w2 = kernel.reshape(Cout, Cin * kH * kW)
    gw = g.transpose(1, 3, 0, 2).reshape(Cout, Wo * N * Ho)
    dcols = (w2.T @ gw).reshape(Cin, kH, kW, Wo, N, Ho).transpose(0, 1, 2, 4, 5, 3)
    canvas = np.zeros((N, Cin, H + 2 * pH, W + 2 * pW), dtype=g.dtype)
    cN, cC, ch, cw = canvas.strides
    for i in range(0, kH, sH):
        # kernel rows i .. i+m-1 land on disjoint input rows, so one add
        # per kernel column covers them, over a [N, Cin, Ho, m, W] view
        m = min(sH, kH - i)
        rows = as_strided(canvas[:, :, i:], (N, Cin, Ho, m, canvas.shape[3]),
                          (cN, cC, ch * sH, ch, cw))
        for j in range(kW):
            rows[..., j:j + sW * Wo:sW] += \
                dcols[:, i:i + m, j].transpose(2, 0, 3, 1, 4)
    return canvas[:, :, pH:pH + H, pW:pW + W]
