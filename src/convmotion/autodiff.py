"""Minimal dense-tensor autodiff core.

Implements exactly the operations the motion predictor needs: strided 2D
convolution that reads its input rows from the tensors holding them, with
zero padding that no tensor holds; affine maps that read their input
flattened or in parts and can add a residual (both ops optionally with a
leaky ReLU in the same node); leaky ReLU; inverted dropout that can join rows
of several tensors in one node; elementwise arithmetic, reductions,
concat/stack/slice plumbing, and reverse-mode differentiation on a tape.

Tensors are immutable values during a taped computation; parameters are
updated between passes, in place by ``training.adam_step``. A ``GradTape``
is single-owner, and a tape is consumed by its one ``backward``: the replay
frees each node's saved operands as it passes them.

``backward`` does only the gradient work whose result is used. A VJP returns
``None`` for an input that needs no gradient (data, or a detached copy of a
parameter), so ``conv2d`` and ``linear`` skip the products for it. ``linear``
returns its weight partial as a deferred ``Outer`` factor pair, and
``backward`` sums all uses of one weight in a single GEMM when the weight's
gradient is settled. A tensor's third and later dense partials are added in
place into an accumulator that ``backward`` allocated itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

DEFAULT_DTYPE = np.float64


class ShapeError(ValueError):
    """Raised when operand ranks or extents do not line up."""


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------


class Tensor:
    """Dense n-dimensional real array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def assign_(self, new_data: np.ndarray) -> None:
        """In-place value update for leaf parameters, between tape passes only."""
        new_data = np.asarray(new_data, dtype=self.data.dtype)
        if new_data.shape != self.data.shape:
            raise ShapeError(
                f"assign_ expects shape {self.data.shape}, got {new_data.shape}"
            )
        self.data = new_data

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@dataclass
class TapeNode:
    """One executed primitive: saved operands, output, and its vector-Jacobian product."""

    inputs: tuple
    output: "Tensor"
    vjp: Callable[[np.ndarray], tuple]


class GradTape:
    """Ordered record of primitive operations executed while the tape is
    active. ``backward`` consumes it: afterwards it holds no node, and
    entering it or replaying it again raises ``ValueError``."""

    def __init__(self):
        self._nodes: list[TapeNode] = []
        self._replayed = False

    def __enter__(self):
        if self._replayed:
            raise ValueError("cannot record on a tape that backward has "
                             "consumed; start a new GradTape")
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self, "tapes must be exited in LIFO order"
        return False

    def __len__(self):
        return len(self._nodes)

    def record(self, inputs: tuple, output: Tensor, vjp) -> None:
        self._nodes.append(TapeNode(inputs, output, vjp))


_TAPE_STACK: list[GradTape] = []


def _active_tape() -> Optional[GradTape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(inputs, out, vjp):
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.record(inputs, out, vjp)


class Outer:
    """A weight partial ``g.T @ x`` kept as its two factors, ``g [n, out]``
    and ``x [n, in]``, so that ``backward`` can sum every use of one weight
    in a single GEMM. ``shape`` and ``size`` are those of the product."""

    __slots__ = ("g", "x")

    def __init__(self, g: np.ndarray, x: np.ndarray):
        self.g = g
        self.x = x

    @property
    def shape(self):
        return (self.g.shape[1], self.x.shape[1])

    @property
    def size(self):
        return self.g.shape[1] * self.x.shape[1]


def backward(loss: Tensor, tape: GradTape) -> dict:
    """Reverse-replay the tape, returning ``{tensor: gradient}`` for every
    gradient-requiring leaf (a tensor no tape node produced) reachable from
    ``loss``.

    A VJP returns one partial per input: a dense array, ``None`` when the
    input needs no gradient, or an ``Outer`` factor pair for a weight. A
    tensor's gradient is settled when it is final: a non-leaf just before
    its own node's VJP runs, a leaf at the end. Settling forms one GEMM over
    all of the tensor's ``Outer`` pairs stacked (a weight shared by the T
    decoding steps gets one ``[out, T*B] @ [T*B, in]`` product, not T) and
    adds the sum of its dense partials. The first dense partial is kept as
    the VJP returned it; the second is added into a new array, and every
    later one is added into that array in place, never into an array a VJP
    returned (``add`` returns one array twice, ``reshape`` a view, and
    ``linear`` returns ``g`` itself as a residual's partial).

    The replay consumes the tape: each node is popped before its VJP runs,
    so its saved operands are freed once used, and each intermediate
    gradient once its node's VJP has run. A second ``backward`` on the tape
    raises ``ValueError``. Deterministic: dense partials accumulate in exact
    reverse execution order, and ``Outer`` pairs are stacked in that order.
    """
    if tape._replayed:
        raise ValueError("this tape was already replayed by backward; a tape "
                         "is consumed by its one backward")
    if loss.data.size != 1:
        raise ValueError(
            f"backward requires a scalar loss, got shape {loss.data.shape}"
        )
    tape._replayed = True
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    outers: dict[Tensor, list] = {}
    owned: set = set()  # tensors whose dense sum is an array backward made

    def settle(tensor):
        g = grads.pop(tensor, None)
        owned.discard(tensor)
        pairs = outers.pop(tensor, None)
        if pairs is None:
            return g
        if len(pairs) == 1:
            gs, xs = pairs[0].g, pairs[0].x
        else:
            gs = np.concatenate([p.g for p in pairs])
            xs = np.concatenate([p.x for p in pairs])
        w = gs.T @ xs
        if g is not None:
            w += g
        return w

    nodes = tape._nodes
    while nodes:
        node = nodes.pop()
        g_out = settle(node.output)
        if g_out is None:
            continue
        partials = node.vjp(g_out)
        for tensor, g in zip(node.inputs, partials):
            if g is None or not tensor.requires_grad:
                continue
            if g.shape != tensor.shape:
                raise ShapeError(
                    f"vjp produced gradient of shape {g.shape} for input of "
                    f"shape {tensor.shape}"
                )
            if isinstance(g, Outer):
                outers.setdefault(tensor, []).append(g)
                continue
            acc = grads.get(tensor)
            if acc is None:
                grads[tensor] = g
            elif tensor in owned:
                np.add(acc, g, out=acc)
            else:
                grads[tensor] = np.add(acc, g, out=np.empty_like(acc))
                owned.add(tensor)
    for tensor in list(outers):
        grads[tensor] = settle(tensor)
    return grads


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def zeros(shape, requires_grad: bool = False, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# Elementwise arithmetic (no silent broadcasting between tensors)
# ---------------------------------------------------------------------------


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        out = Tensor(a.data + b, requires_grad=a.requires_grad)
        _record((a,), out, lambda g: (g,))
        return out
    _check_same_shape("add", a, b)
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad)
    _record((a, b), out, lambda g: (g, g))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    out = Tensor(a.data - b.data, requires_grad=a.requires_grad or b.requires_grad)
    _record((a, b), out, lambda g: (g, -g))
    return out


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        s = float(b)
        out = Tensor(a.data * s, requires_grad=a.requires_grad)
        _record((a,), out, lambda g: (g * s,))
        return out
    _check_same_shape("mul", a, b)
    out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad)
    ad, bd = a.data, b.data
    _record((a, b), out, lambda g: (g * bd, g * ad))
    return out


def square(x: Tensor) -> Tensor:
    out = Tensor(x.data * x.data, requires_grad=x.requires_grad)
    xd = x.data
    _record((x,), out, lambda g: (2.0 * xd * g,))
    return out


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def tsum(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype),
                 requires_grad=x.requires_grad)
    shape, dtype = x.data.shape, x.data.dtype
    _record((x,), out, lambda g: (np.full(shape, g, dtype=dtype),))
    return out


def tmean(x: Tensor) -> Tensor:
    n = x.data.size
    out = Tensor(np.asarray(x.data.mean(), dtype=x.data.dtype),
                 requires_grad=x.requires_grad)
    shape, dtype = x.data.shape, x.data.dtype
    _record((x,), out, lambda g: (np.full(shape, g / n, dtype=dtype),))
    return out


def sumsq(*xs: Tensor) -> Tensor:
    """Sum of squared entries over one or more tensors, as one tape node: the
    weight penalty. Per-tensor sums are added in argument order."""
    datas = [x.data for x in xs]
    total = sum(np.square(xd).sum() for xd in datas)
    out = Tensor(np.asarray(total, dtype=datas[0].dtype),
                 requires_grad=any(x.requires_grad for x in xs))
    _record(xs, out, lambda g: tuple(2.0 * g * xd for xd in datas))
    return out


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def _check_slope(slope: float) -> None:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must lie in (0, 1), got {slope}")


def _leaky(x: np.ndarray, slope: float, out=None) -> np.ndarray:
    """``x`` where ``x >= 0``, else ``slope * x``, into ``out`` (which may be
    ``x``) or a new array: for a slope in (0, 1) that is the larger of the
    two, and ``np.maximum`` has no branch per element, unlike ``np.where``."""
    scaled = slope * x
    return np.maximum(x, scaled, out=scaled if out is None else out)


def _leaky_grad(g: np.ndarray, y: np.ndarray, slope: float) -> np.ndarray:
    """The leaky ReLU's VJP, masked by the sign of its output ``y``: ``g``
    where ``y >= 0``, else ``slope * g``, as ``g`` times a factor of 1.0 or
    ``slope``. ``leaky_relu`` and the activations of ``conv2d`` and
    ``linear`` share this one rule. A negative subnormal input whose
    ``slope * x`` rounds to ``-0.0`` therefore passes ``g``."""
    factor = np.maximum(y >= 0, slope, dtype=g.dtype)
    return np.multiply(g, factor, out=factor)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    _check_slope(slope)
    xd = x.data
    yd = _leaky(xd, slope)
    out = Tensor(yd, requires_grad=x.requires_grad)
    if out.requires_grad:
        _record((x,), out, lambda g: (_leaky_grad(g, yd, slope),))
    return out


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    y = np.empty_like(xd)
    pos = xd >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    y[~pos] = ex / (1.0 + ex)
    out = Tensor(y, requires_grad=x.requires_grad)
    _record((x,), out, lambda g: (g * y * (1.0 - y),))
    return out


def tlog(x: Tensor) -> Tensor:
    xd = x.data
    out = Tensor(np.log(xd), requires_grad=x.requires_grad)
    _record((x,), out, lambda g: (g / xd,))
    return out


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    xd = x.data
    out = Tensor(np.clip(xd, lo, hi), requires_grad=x.requires_grad)
    if out.requires_grad:
        passthrough = (xd >= lo) & (xd <= hi)
        _record((x,), out, lambda g: (np.where(passthrough, g, 0.0),))
    return out


def dropout(x, p: float, mode: str = "train",
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: train-time zeroing with 1/(1-p) rescale, eval
    identity. ``x`` is a ``Tensor``, or a ``Rows`` value with pad 0 whose
    rows this node joins (in either mode) into one ``[B, ch, n, W]`` tensor
    over the distinct blocks, a run of one block's rows as one slice; the
    mask scales that buffer in place. Every row of one 4-D block, in order,
    is that block."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if isinstance(x, Rows):
        if x.pad:
            raise ShapeError(f"dropout joins rows at pad 0, got {x.pad}")
        blocks = list(dict.fromkeys(b for b, _ in x if b is not None))
        first = blocks[0]
        if first.ndim == 4 and x == [(first, r) for r in range(first.shape[2])]:
            x = first
    factor = None
    if mode == "train" and p > 0.0:
        if rng is None:
            raise ValueError("dropout in train mode requires an explicit rng")
        factor = (rng.random(x.shape) >= p) * (1.0 / (1.0 - p))
    if isinstance(x, Tensor):
        if factor is None:
            return x
        out = Tensor(x.data * factor, requires_grad=x.requires_grad)
        _record((x,), out, lambda g: (g * factor,))
        return out
    runs = _runs(x)
    B, ch, _, W = x.shape
    # np.concatenate refuses rows of different shapes
    data = np.concatenate([np.zeros((B, ch, n, W), first.dtype) if b is None
                           else _span(b.data, r, n) for _, b, r, n in runs],
                          axis=2)
    if factor is not None:
        data *= factor
    out = Tensor(data, requires_grad=any(b.requires_grad for b in blocks))
    if out.requires_grad and _active_tape() is not None:
        def vjp(g):
            g = g if factor is None else g * factor
            partials = _row_partials(runs, 1, lambda j, n: g[:, :, j:j + n])
            return tuple(partials.get(b) for b in blocks)

        _record(tuple(blocks), out, vjp)
    return out


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul expects 2-D operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: inner extents differ, {a.data.shape} vs {b.data.shape}"
        )
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad)
    ad, bd = a.data, b.data
    _record((a, b), out, lambda g: (g @ bd.T, ad.T @ g))
    return out


def linear(x, weight: Tensor, bias: Tensor, slope: Optional[float] = None,
           add: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (weight ``[out, in]``) of a
    ``[B, ...]`` input flattened to ``[B, in]``, or of a list of ``[B, ...]``
    parts whose flattened blocks, joined in order, are that input; then a
    leaky ReLU given a ``slope``, and the ``[B, out]`` residual ``add``, each
    in place in the same node. The VJP returns each part's gradient in its
    shape, the weight partial as the ``Outer`` pair ``(g, x)`` (one GEMM per
    weight in ``backward``) and ``g`` itself as the residual's partial."""
    parts = [x] if isinstance(x, Tensor) else list(x)
    shapes = [p.data.shape for p in parts]
    if not parts or min(map(len, shapes)) < 2:
        raise ShapeError(f"linear expects a [B, ...] input or parts, got {shapes}")
    B, wd = shapes[0][0], weight.data
    if any(s[0] != B for s in shapes):
        raise ShapeError(f"linear: the parts' batch extents differ, {shapes}")
    blocks = [p.data.reshape(B, -1) for p in parts]
    xd = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    if wd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise ShapeError(
            f"linear: input {shapes} incompatible with weight {wd.shape}")
    if bias.data.shape != (wd.shape[0],):
        raise ShapeError(
            f"linear: bias {bias.data.shape} incompatible with weight {wd.shape}")
    res = () if add is None else (add,)
    if res and add.data.shape != (B, wd.shape[0]):
        raise ShapeError(f"linear: residual {add.data.shape} is not [B, out]")
    y = xd @ wd.T + bias.data
    if slope is not None:
        _check_slope(slope)
        _leaky(y, slope, y)
    # the activation's VJP reads y, so a residual after one is a new array
    out_data = np.add(y, add.data, out=y if slope is None else None) if res else y
    inputs = (*parts, weight, bias, *res)
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))

    def vjp(g_out):
        cols = np.cumsum([0] + [b.shape[1] for b in blocks])  # each part's columns
        g = g_out if slope is None else _leaky_grad(g_out, y, slope)
        gx = g @ wd if any(p.requires_grad for p in parts) else None
        return (*(np.ascontiguousarray(gx[:, a:e]).reshape(s) if p.requires_grad
                  else None for p, s, a, e in zip(parts, shapes, cols, cols[1:])),
                Outer(g, xd) if weight.requires_grad else None,
                g.sum(axis=0) if bias.requires_grad else None,
                *(g_out if t.requires_grad else None for t in res))

    _record(inputs, out, vjp)
    return out


# ---------------------------------------------------------------------------
# 2D convolution of rows read in place (per-axis stride)
# ---------------------------------------------------------------------------


class Rows(list):
    """A conv input given in place: its ``(block, r)`` rows, top to bottom,
    each with ``pad`` zero columns on either side. Row ``r`` is
    ``block[..., r, :]`` of a ``[B, ch, H, W]`` block or a ``[B, n, W]``
    frame batch, all of a ``[B, W]`` block when ``r`` is ``None``, and zeros
    when the block is ``None``. ``shape`` is the padded input's,
    ``[B, ch, n, W + 2*pad]``."""

    def __init__(self, rows, pad: int = 0):
        super().__init__(rows)
        self.pad = pad

    @property
    def shape(self):
        B, ch, _, W = _span(next(b for b, _ in self if b is not None).data,
                            None).shape
        return B, ch, len(self), W + 2 * self.pad


def _span(arr, r, n=1, step=1):
    """Rows ``r, r + step, ...`` (``n`` of them) of a block's array as a
    ``[B, ch, n, W]`` view; frames have one channel, and a ``[B, W]`` block
    is its one row. With ``r`` ``None`` a block gives its first row."""
    if arr.ndim == 2:
        return arr[:, None, None]
    arr = arr if arr.ndim == 4 else arr[:, None]
    return arr[:, :, :1] if r is None else arr[:, :, r:r + (n - 1) * step + 1:step]


def _runs(rows, step=1) -> list:
    """``[j, block, r, n]`` per run of ``rows``: entries ``j .. j+n-1`` are
    rows ``r, r + step, ...`` of one block, or all padding."""
    runs = []
    for j, (b, r) in enumerate(rows):
        last = runs[-1] if runs else None
        if last and last[1] is b and (b is None or (
                r is not None and last[2] + step * last[3] == r)):
            last[3] += 1
        else:
            runs.append([j, b, r, 1])
    return runs


def _row_partials(runs, step: int, part) -> dict:
    """One gradient partial per block that needs one, from the ``[at, block,
    r, n]`` runs of rows ``r, r + step, ...`` whose ``[B, ch, n, W]``
    gradient is ``part(at, n)``: assigned into ``np.empty`` when the runs
    read every row of the block once, else added into zeros."""
    reads = {}
    for at, b, r, n in runs:
        if b is not None and b.requires_grad:
            reads.setdefault(b, []).append((at, r, n))
    partials = {}
    for b, rs in reads.items():
        once = (sorted(r + step * k if b.ndim > 2 else 0
                       for _, r, n in rs for k in range(n))
                == list(range(b.shape[-2] if b.ndim > 2 else 1)))
        p = partials[b] = (np.empty_like if once else np.zeros_like)(b.data)
        for at, r, n in rs:
            dst = _span(p, r, n, step)
            if once:
                dst[...] = part(at, n)
            else:
                dst += part(at, n)
    return partials


@functools.lru_cache(maxsize=None)
def _col_scatter(W: int, kW: int, Wo: int, sW: int, pad: int) -> np.ndarray:
    """The read-only 0/1 matrix ``[kW*Wo, W]`` that sends im2col column
    ``(j, wo)`` to input column ``j + sW*wo - pad``; a column that reads
    padding is a zero row."""
    scatter = np.zeros((kW, Wo, W + 2 * pad))
    for j in range(kW):
        for wo in range(Wo):
            scatter[j, wo, j + sW * wo] = 1.0
    scatter = scatter[:, :, pad:pad + W].reshape(kW * Wo, W)
    scatter.flags.writeable = False
    return scatter


def conv2d(x, kernel: Tensor, bias: Tensor,
           stride=(1, 1), slope: Optional[float] = None) -> Tensor:
    """Strided 2D cross-correlation of ``x``, read in place, followed by a
    leaky ReLU of negative-side ``slope`` when one is given.

    ``x`` is a ``Tensor`` ``[N, Cin, H, W]``, convolved as given, or a
    ``Rows`` value: the input's rows read from the blocks that hold them,
    with its zero padding, whose ``shape`` is the padded ``[N, Cin, H, W]``.
    ``kernel`` is ``[Cout, Cin, kH, kW]`` and ``bias`` ``[Cout]``; output
    is ``[N, Cout, H', W']`` with ``H' = floor((H - kH)/sH) + 1`` and
    likewise for ``W'``.

    Lowered to GEMMs over the im2col matrix ``cols [Cin*kH*kW, N*H'*W']``
    (Chellapilla et al. 2006): the source rows are written into a zeroed
    padded grid, and ``cols`` is one strided copy of it. The grid lives
    only while ``cols`` is built; the node's tape inputs are the first
    distinct block, the kernel, the bias and the other blocks, so the tape
    holds no padded copy of any input. ``cols`` is rebuilt from the blocks
    in the backward pass rather than kept on the tape, which would hold one
    such matrix per layer call until the tape is replayed. For the same
    reason the kernel gradient is formed in the VJP, not deferred as an
    ``Outer`` pair like ``linear``'s weight gradient.

    The activation is applied in place to the GEMM output and recorded in
    the same tape node; the VJP masks the output gradient by the sign of
    the output, as ``leaky_relu`` does. The input gradient (col2im) is
    formed by BLAS: ``dcols`` is computed with columns ordered
    ``(W', N, H')``, so that one batched product with a 0/1 column-scatter
    matrix sums every kernel column's terms onto the real input columns;
    the padding's gradient is never formed. Each kernel row's rows then go
    into one partial per distinct block that needs a gradient
    (``_row_partials``).
    """
    rows, kd = x, kernel.data
    if isinstance(x, Tensor) and x.ndim == 4:
        rows = Rows([(x, r) for r in range(x.shape[2])])
    if not isinstance(rows, Rows) or kd.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and kernel, got "
                         f"{x.shape} and {kd.shape}")
    blocks = list(dict.fromkeys(b for b, _ in rows if b is not None))
    row_shapes = {_span(b.data, None).shape for b in blocks}
    if len(row_shapes) != 1:
        raise ShapeError(f"conv2d: rows of shapes {sorted(row_shapes)} "
                         f"differ")
    N, Cin, H, Wp = rows.shape
    W, pad = Wp - 2 * rows.pad, rows.pad
    dtype = blocks[0].data.dtype
    Cout, kCin, kH, kW = kd.shape
    if kCin != Cin:
        raise ShapeError(
            f"conv2d: input has {Cin} channels but kernel expects {kCin} "
            f"(input {rows.shape}, kernel {kd.shape})"
        )
    if bias.data.shape != (Cout,):
        raise ShapeError(f"conv2d: bias {bias.data.shape} must be ({Cout},)")
    if slope is not None:
        _check_slope(slope)
    sH, sW = stride
    if sH < 1 or sW < 1:
        raise ValueError(f"conv2d: stride components must be >= 1, got {stride}")
    if kH > H or kW > Wp:
        raise ShapeError(
            f"conv2d: kernel ({kH}, {kW}) exceeds input ({H}, {Wp})")
    Ho = (H - kH) // sH + 1
    Wo = (Wp - kW) // sW + 1
    K, P = Cin * kH * kW, N * Ho * Wo

    def im2col():
        # the one strided copy of a zero-padded grid that lives only while
        # it is read: no padded input is kept, on the tape or off it
        grid = np.zeros((N, Cin, H, Wp), dtype=dtype)
        for j, b, r, n in _runs(rows):
            if b is not None:
                grid[:, :, j:j + n, pad:pad + W] = _span(b.data, r, n)
        sN, sC, sh, sw = grid.strides
        return as_strided(grid, (Cin, kH, kW, N, Ho, Wo),
                          (sC, sh, sw, sN, sh * sH, sw * sW)).reshape(K, P)

    w2 = kd.reshape(Cout, K)
    out2 = w2 @ im2col()
    out2 += bias.data.reshape(Cout, 1)
    if slope is not None:
        _leaky(out2, slope, out2)
    out_data = np.ascontiguousarray(
        out2.reshape(Cout, N, Ho, Wo).transpose(1, 0, 2, 3))
    need_x, need_k, need_b = (any(b.requires_grad for b in blocks),
                              kernel.requires_grad, bias.requires_grad)
    out = Tensor(out_data, requires_grad=need_x or need_k or need_b)
    if not out.requires_grad or _active_tape() is None:
        return out

    # the runs [(kernel row i, first output row o), block, r, n] it reads
    runs = [[(i, o), b, r, n] for i in range(kH) for o, b, r, n
            in _runs(rows[i:i + (Ho - 1) * sH + 1:sH], sH)]

    def vjp(g):
        # an input that needs no gradient gets None and costs nothing: a
        # constant kernel skips the gk GEMM, data blocks the dcols GEMM and
        # the col2im
        if slope is not None:
            g = _leaky_grad(g, out_data, slope)
        gb = g.sum(axis=(0, 2, 3)) if need_b else None
        gk = None
        if need_k:
            g2 = g.transpose(1, 0, 2, 3).reshape(Cout, P)
            gk = (g2 @ im2col().T).reshape(kd.shape)
        partials = {}
        if need_x:
            dcols = w2.T @ g.transpose(1, 3, 0, 2).reshape(Cout, Wo * N * Ho)
            # per kernel row and real input column, the sum of the kernel
            # columns' terms: [Cin*kH, N*Ho, W], viewed as [Cin, kH, N, Ho, W]
            drows = np.matmul(
                dcols.reshape(Cin * kH, kW * Wo, N * Ho).transpose(0, 2, 1),
                _col_scatter(W, kW, Wo, sW, pad)).reshape(Cin, kH, N, Ho, W)
            del dcols  # freed before the partials are made
            partials = _row_partials(
                runs, sH, lambda at, n: drows[:, at[0], :, at[1]:at[1] + n]
                .transpose(1, 0, 2, 3))
        return (partials.get(blocks[0]), gk, gb,
                *(partials.get(b) for b in blocks[1:]))

    _record((blocks[0], kernel, bias, *blocks[1:]), out, vjp)
    return out


# ---------------------------------------------------------------------------
# Shape plumbing
# ---------------------------------------------------------------------------


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(x.data.reshape(shape), requires_grad=x.requires_grad)
    orig = x.data.shape
    _record((x,), out, lambda g: (g.reshape(orig),))
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    rank = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != rank:
            raise ShapeError(
                f"concat: rank mismatch {tensors[0].data.shape} vs {t.data.shape}"
            )
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                 requires_grad=any(t.requires_grad for t in tensors))
    if out.requires_grad and _active_tape() is not None:
        # where each input ends along ``axis``; constant inputs (data) get
        # no partial
        ends = np.cumsum([t.data.shape[axis] for t in tensors[:-1]], dtype=int)

        def vjp(g):
            return tuple(np.ascontiguousarray(p) if t.requires_grad else None
                         for t, p in zip(tensors, np.split(g, ends, axis)))

        _record(tensors, out, vjp)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("stack requires at least one tensor")
    base = tensors[0].data.shape
    for t in tensors[1:]:
        if t.data.shape != base:
            raise ShapeError(f"stack: shapes {base} and {t.data.shape} differ")
    out = Tensor(np.stack([t.data for t in tensors], axis=axis),
                 requires_grad=any(t.requires_grad for t in tensors))
    if out.requires_grad and _active_tape() is not None:
        def vjp(g):  # constant inputs get no partial
            return tuple(np.ascontiguousarray(p) if t.requires_grad else None
                         for t, p in zip(tensors, np.moveaxis(g, axis, 0)))

        _record(tensors, out, vjp)
    return out


def tslice(x: Tensor, key) -> Tensor:
    """Basic (non-advanced) indexing with gradient scatter on the way back."""
    out = Tensor(x.data[key], requires_grad=x.requires_grad)
    if out.requires_grad and _active_tape() is not None:
        def vjp(g):
            gx = np.zeros_like(x.data)
            gx[key] = g
            return (gx,)

        _record((x,), out, vjp)
    return out
