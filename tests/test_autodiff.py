"""Tensor-core tests: forward oracles, VJP finite-difference checks, invariants."""

import numpy as np
import pytest

from convmotion import autodiff as ad
from convmotion.autodiff import (
    GradTape,
    ShapeError,
    Tensor,
    backward,
    clip,
    concat,
    conv2d,
    dropout,
    leaky_relu,
    linear,
    matmul,
    mul,
    reshape,
    sigmoid,
    square,
    stack,
    sumsq,
    tlog,
    tmean,
    tslice,
    tsum,
)
from convmotion.gradcheck import GradCheckSetupError
from col2im_oracle import col2im_input_grad
from serial_grad_check import grad_check, relative_error

# ---------------------------------------------------------------------------
# Independent oracles (written before the operations they check)
# ---------------------------------------------------------------------------


def conv2d_oracle(x, k, b, stride, padding):
    """Direct quadruple-nested-loop convolution; deliberately naive."""
    N, Cin, H, W = x.shape
    Cout, _, kH, kW = k.shape
    sH, sW = stride
    pH, pW = padding
    xp = np.zeros((N, Cin, H + 2 * pH, W + 2 * pW))
    xp[:, :, pH:pH + H, pW:pW + W] = x
    Ho = (H + 2 * pH - kH) // sH + 1
    Wo = (W + 2 * pW - kW) // sW + 1
    out = np.zeros((N, Cout, Ho, Wo))
    for n in range(N):
        for co in range(Cout):
            for i in range(Ho):
                for j in range(Wo):
                    acc = b[co]
                    for ci in range(Cin):
                        for u in range(kH):
                            for v in range(kW):
                                acc += xp[n, ci, i * sH + u, j * sW + v] * k[co, ci, u, v]
                    out[n, co, i, j] = acc
    return out


def pad(x, padding):
    """``x`` with ``padding`` zero rows and columns on either side of its
    grid: ``conv2d`` convolves its input as given."""
    pH, pW = padding
    return np.pad(x, ((0, 0), (0, 0), (pH, pH), (pW, pW)))


def linear_oracle(x, w, b):
    """Per-element dot products, no matrix machinery."""
    N, Din = x.shape
    Dout = w.shape[0]
    out = np.zeros((N, Dout))
    for n in range(N):
        for o in range(Dout):
            acc = b[o]
            for i in range(Din):
                acc += x[n, i] * w[o, i]
            out[n, o] = acc
    return out


def central_diff(f, arr, idx, h=1e-5):
    flat = arr.reshape(-1)
    orig = flat[idx]
    flat[idx] = orig + h
    fp = f()
    flat[idx] = orig - h
    fm = f()
    flat[idx] = orig
    return (fp - fm) / (2.0 * h)


def check_vjp(build_loss, params, h=1e-5, tol=1e-4):
    """Full elementwise FD check of a scalar-valued tensor expression."""
    with GradTape() as tape:
        loss = build_loss()
    grads = backward(loss, tape)
    for p in params:
        g = grads.get(p, np.zeros_like(p.data))
        for idx in range(p.data.size):
            num = central_diff(lambda: build_loss().item(), p.data, idx, h)
            a = float(g.reshape(-1)[idx])
            assert relative_error(a, num) < tol, (
                f"param shape {p.data.shape} idx {idx}: analytic {a} vs numeric {num}"
            )


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def test_conv2d_zero_input_gives_bias():
    rng = np.random.default_rng(0)
    x = Tensor(np.zeros((2, 3, 6, 8)))
    k = Tensor(rng.normal(size=(4, 3, 2, 3)))
    b = Tensor(np.array([0.5, -1.0, 2.0, 0.0]))
    out = conv2d(x, k, b, stride=(1, 1))
    for co in range(4):
        assert np.all(out.data[:, co] == b.data[co])


def test_conv2d_ones_counting():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 2, 2)))
    b = Tensor(np.zeros(1))
    out = conv2d(x, k, b, stride=(1, 1))
    assert out.data.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))


def test_conv2d_strided_rect_kernel_vs_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 1, 5, 9))
    k = rng.normal(size=(2, 1, 2, 7))
    b = rng.normal(size=2)
    out = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=(2, 2))
    expected = conv2d_oracle(x, k, b, (2, 2), (0, 0))
    assert out.data.shape == (1, 2, 2, 2)
    np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)


@pytest.mark.parametrize("seed", range(12))
def test_conv2d_randomized_vs_oracle(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 3))
    Cin = int(rng.integers(1, 4))
    Cout = int(rng.integers(1, 4))
    kH = int(rng.integers(1, 4))
    kW = int(rng.integers(1, 8))
    sH, sW = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    pH, pW = int(rng.integers(0, 3)), int(rng.integers(0, 4))
    H = int(rng.integers(max(1, kH - 2 * pH), 9))
    W = int(rng.integers(max(1, kW - 2 * pW), 13))
    if kH > H + 2 * pH or kW > W + 2 * pW:
        pytest.skip("degenerate draw")
    x = rng.normal(size=(N, Cin, H, W))
    k = rng.normal(size=(Cout, Cin, kH, kW))
    b = rng.normal(size=Cout)
    out = conv2d(Tensor(pad(x, (pH, pW))), Tensor(k), Tensor(b),
                 stride=(sH, sW))
    expected = conv2d_oracle(x, k, b, (sH, sW), (pH, pW))
    np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)


def test_conv2d_channel_mismatch_rejected():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    k = Tensor(np.zeros((2, 2, 2, 2)))
    b = Tensor(np.zeros(2))
    with pytest.raises(ShapeError, match="channels"):
        conv2d(x, k, b)


def test_conv2d_kernel_larger_than_padded_input_rejected():
    x = Tensor(pad(np.zeros((1, 1, 2, 2)), (1, 0)))
    k = Tensor(np.zeros((1, 1, 5, 1)))
    b = Tensor(np.zeros(1))
    with pytest.raises(ShapeError):
        conv2d(x, k, b, stride=(1, 1))


CONV_GRAD_CASES = [
    # (stride, padding, kernel hw)
    ((2, 2), (1, 1), (2, 3)),
    *[(stride, padding, khw)
      for stride in ((1, 1), (1, 2), (2, 1), (2, 2))
      for padding, khw in (((1, 3), (2, 7)), ((0, 2), (3, 1)), ((1, 3), (1, 1)))],
]


@pytest.mark.parametrize(
    "stride,padding,khw", CONV_GRAD_CASES,
    ids=[f"s{s[0]}x{s[1]}-p{p[0]}x{p[1]}-k{k[0]}x{k[1]}" for s, p, k in CONV_GRAD_CASES])
def test_conv2d_gradients_match_finite_differences(stride, padding, khw):
    rng = np.random.default_rng(7)
    x = Tensor(pad(rng.normal(size=(2, 2, 5, 6)), padding), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2) + khw), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    out_shape = conv2d(x, k, b, stride=stride).shape
    tgt = rng.normal(size=out_shape)

    def build():
        out = conv2d(x, k, b, stride=stride)
        return tsum(square(ad.sub(out, Tensor(tgt))))

    check_vjp(build, [x, k, b])


# train_paper's conv calls at B = 2, all at stride 2x2: (input, kernel, padding)
PAPER_CONV_LAYERS = [
    ((2, 1, 75, 54), (64, 1, 2, 7), (1, 3)),      # discriminator layer 1
    ((2, 64, 25, 27), (128, 64, 2, 7), (1, 3)),   # long-term layer 2
    ((2, 128, 19, 14), (128, 128, 2, 7), (1, 3)),  # discriminator layer 3
    ((2, 64, 38, 27), (128, 64, 2, 7), (0, 3)),   # short-term new rows, layer 2
]


def _conv_input_grad_vs_oracle(x_shape, k_shape, stride, padding):
    rng = np.random.default_rng(11)
    x = Tensor(pad(rng.normal(size=x_shape), padding), requires_grad=True)
    k = Tensor(rng.normal(size=k_shape))
    b = Tensor(rng.normal(size=k_shape[0]))
    with GradTape() as tape:
        out = conv2d(x, k, b, stride=stride)
    g = rng.normal(size=out.shape)
    (node,) = tape._nodes
    gx = node.vjp(g)[0]
    # the padding's gradient too: the oracle's canvas over the padded input
    return gx, col2im_input_grad(g, k.data, x.shape, stride, (0, 0))


@pytest.mark.parametrize(
    "stride,padding,khw", CONV_GRAD_CASES,
    ids=[f"s{s[0]}x{s[1]}-p{p[0]}x{p[1]}-k{k[0]}x{k[1]}" for s, p, k in CONV_GRAD_CASES])
def test_conv2d_input_gradient_matches_col2im_oracle(stride, padding, khw):
    gx, ref = _conv_input_grad_vs_oracle((2, 2, 5, 6), (3, 2) + khw,
                                         stride, padding)
    # kernel rows that overlap (kH > sH) are summed in another order
    assert np.max(np.abs(gx - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("x_shape,k_shape,padding", PAPER_CONV_LAYERS,
                         ids=["disc1", "long2", "disc3", "short2-rows"])
def test_conv2d_input_gradient_equals_col2im_oracle_at_paper_shapes(
        x_shape, k_shape, padding):
    gx, ref = _conv_input_grad_vs_oracle(x_shape, k_shape, (2, 2), padding)
    np.testing.assert_array_equal(gx, ref)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_fused_activation_equals_leaky_relu_of_conv_bit_for_bit():
    # pre-activations of exactly 0.0 and -5e-324, among others: x times a
    # unit 1x1 kernel, or a unit [2, 1] weight, plus a bias of 0.0 or
    # -5e-324. The GEMM accumulates from +0.0, so a pre-activation is never
    # -0.0; the ops share one rule, which the next test checks at -0.0.
    xs = np.array([0.0, -0.0, -5e-324, 5e-324, 1.5, -2.0, -3e-310, 0.25])
    b_data = np.array([0.0, -5e-324])
    rng = np.random.default_rng(5)
    cases = {conv2d: (np.tile(xs, 3).reshape(1, 1, 4, 6), np.ones((2, 1, 1, 1)),
                      rng.normal(size=(1, 2, 4, 6))),
             linear: (np.tile(xs, 3).reshape(24, 1), np.ones((2, 1)),
                      rng.normal(size=(24, 2)))}
    slope = 0.2

    def run(op, fused):
        x_data, k_data, weights = cases[op]
        x = Tensor(x_data.copy(), requires_grad=True)
        k = Tensor(k_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        with GradTape() as tape:
            if fused:
                out = op(x, k, b, slope=slope)
            else:
                out = leaky_relu(op(x, k, b), slope)
            loss = tsum(mul(out, Tensor(weights)))
        grads = backward(loss, tape)
        return out.data, grads[x], grads[k], grads[b]

    for op, (x_data, k_data, _) in cases.items():
        pre = op(Tensor(x_data), Tensor(k_data), Tensor(b_data)).data
        assert np.any(_bits(pre) == _bits(np.array(0.0)))
        assert np.any(_bits(pre) == _bits(np.array(-5e-324)))
        for got, want in zip(run(op, True), run(op, False)):
            np.testing.assert_array_equal(_bits(got), _bits(want))


def test_leaky_relu_masks_by_the_sign_of_its_output():
    # -5e-324 * 0.2 rounds to -0.0, so it passes g like 0.0 and -0.0 do
    x = Tensor(np.array([0.0, -0.0, -5e-324, -1.0]), requires_grad=True)
    with GradTape() as tape:
        out = leaky_relu(x, slope=0.2)
        loss = tsum(mul(out, Tensor(np.full(4, 3.0))))
    g = backward(loss, tape)[x]
    np.testing.assert_array_equal(_bits(out.data),
                                  _bits(np.array([0.0, -0.0, -0.0, -0.2])))
    np.testing.assert_array_equal(g, [3.0, 3.0, 3.0, 0.6000000000000001])


def test_conv2d_slope_validated():
    x = Tensor(np.zeros((1, 1, 2, 2)))
    k, b = Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1))
    for slope in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="slope"):
            conv2d(x, k, b, slope=slope)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------


def test_linear_identity_weight():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
    w = Tensor(np.eye(3))
    b = Tensor(np.zeros(3))
    np.testing.assert_array_equal(linear(x, w, b).data, x.data)


def test_linear_zero_input_gives_bias():
    x = Tensor(np.zeros((4, 3)))
    w = Tensor(np.random.default_rng(3).normal(size=(5, 3)))
    b = Tensor(np.array([1.0, -2.0, 0.25, 3.0, 0.0]))
    out = linear(x, w, b)
    for n in range(4):
        np.testing.assert_array_equal(out.data[n], b.data)


def test_linear_vs_dot_product_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    out = linear(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, linear_oracle(x, w, b), atol=1e-12, rtol=0)


def test_linear_flattens_its_input_like_reshape_then_linear():
    # it also reads a list of parts like their concat, and adds a residual
    # like ``add`` after it: values and every gradient bit for bit
    rng = np.random.default_rng(5)
    x_data = rng.normal(size=(3, 2, 4, 5))
    w_data, b_data = rng.normal(size=(6, 40)), rng.normal(size=6)
    weights = rng.normal(size=(3, 6))
    a_data, c_data = x_data[:, 0], x_data[:, 1].reshape(3, 20)
    p_data = rng.normal(size=(3, 6))

    def run(build, *arrays):
        ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with GradTape() as tape:
            out = build(*ts)
            loss = sumsq(mul(out, Tensor(weights)))
        grads = backward(loss, tape)
        return [out.data, *(grads[t] for t in ts)]

    def same(got, want):
        for g, r in zip(got, want, strict=True):
            assert g.shape == r.shape
            np.testing.assert_array_equal(_bits(g), _bits(r))

    same(run(linear, x_data, w_data, b_data),
         run(lambda x, w, b: linear(reshape(x, (3, -1)), w, b),
             x_data, w_data, b_data))
    for slope in (None, 0.2):
        same(run(lambda a, c, w, b: linear([a, c], w, b, slope),
                 a_data, c_data, w_data, b_data),
             run(lambda a, c, w, b: linear(
                 concat([reshape(a, (3, -1)), c], axis=1), w, b, slope),
                 a_data, c_data, w_data, b_data))
        same(run(lambda x, w, b, p: linear(x, w, b, slope, add=p),
                 x_data, w_data, b_data, p_data),
             run(lambda x, w, b, p: ad.add(linear(x, w, b, slope), p),
                 x_data, w_data, b_data, p_data))

    # a part or residual without a gradient (the ablation's zero code) gets
    # no partial
    c = Tensor(c_data, requires_grad=True)
    partials = _vjp_partials(lambda: linear(
        [Tensor(a_data), c], Tensor(w_data), Tensor(b_data),
        add=Tensor(p_data)))
    assert [q is not None for q in partials] == [False, True, False, False,
                                                 False]
    assert partials[1].shape == c.shape

    x, w, b, p = (Tensor(d.copy(), requires_grad=True)
                  for d in (x_data, w_data, b_data, p_data))
    a, c = (Tensor(d.copy(), requires_grad=True) for d in (a_data, c_data))
    # the loss is piecewise quadratic, so a wide step only shrinks the
    # rounding that step 1e-5 leaves on p's small entries
    for f, named, h in [
            (lambda: linear(x, w, b), {"x": x, "w": w, "b": b}, 1e-5),
            (lambda: linear([a, c], w, b, 0.2, add=p),
             {"a": a, "c": c, "w": w, "b": b, "p": p}, 1e-3)]:
        report = grad_check(lambda: sumsq(mul(f(), Tensor(weights))), named,
                            h=h, tol=1e-6)
        assert report.passed, report.summary()

    with pytest.raises(ShapeError, match="batch extents differ"):
        linear([a, Tensor(np.zeros((2, 20)))], w, b)
    for shape in [(3, 5), (1, 6), (6,)]:
        with pytest.raises(ShapeError, match="residual"):
            linear(x, w, b, add=Tensor(np.zeros(shape)))


def test_linear_refuses_an_input_without_a_batch_axis():
    with pytest.raises(ShapeError, match=r"\[B, \.\.\.\] input"):
        linear(Tensor(np.zeros(3)), Tensor(np.zeros((4, 3))), Tensor(np.zeros(4)))


def test_linear_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# backward: deferred weight partials, None partials, in-place accumulation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("uses", [1, 3])
def test_shared_linear_weight_gradient_is_the_per_use_sum(uses):
    rng = np.random.default_rng(11)
    xs = [Tensor(rng.normal(size=(4, 5))) for _ in range(uses)]
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    with GradTape() as tape:
        ys = [linear(x, w, b) for x in xs]
        loss = sumsq(*ys)
    g = backward(loss, tape)[w]
    # the dense per-use GEMMs, summed in reverse execution order
    per_use = [(2.0 * y.data).T @ x.data for x, y in zip(xs, ys)][::-1]
    dense = per_use[0]
    for term in per_use[1:]:
        dense = dense + term
    if uses == 1:
        np.testing.assert_array_equal(g, dense)
    else:
        np.testing.assert_allclose(g, dense, rtol=1e-12, atol=0)


def test_non_leaf_weight_with_dense_and_deferred_partials():
    rng = np.random.default_rng(12)
    v = Tensor(rng.normal(size=15), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    xs = [rng.normal(size=(2, 5)) for _ in range(2)]
    with GradTape() as tape:
        w = reshape(v, (3, 5))  # a non-leaf weight, used twice
        ys = [linear(Tensor(x), w, b) for x in xs]
        # the penalty gives w a dense partial next to its two deferred ones
        loss = ad.add(sumsq(*ys), mul(sumsq(w), 0.5))
    g = backward(loss, tape)
    expected = sum((2.0 * y.data).T @ x for x, y in zip(xs, ys)) + w.data
    np.testing.assert_allclose(g[v], expected.reshape(15), rtol=1e-12, atol=0)
    assert w not in g  # non-leaf gradients are dropped once used
    check_vjp(lambda: ad.add(sumsq(*[linear(Tensor(x), reshape(v, (3, 5)), b)
                                     for x in xs]),
                             mul(sumsq(reshape(v, (3, 5))), 0.5)), [v])


def _vjp_partials(build):
    """The partials of the one node ``build`` records, for a unit gradient."""
    with GradTape() as tape:
        out = build()
    (node,) = tape._nodes
    return node.vjp(np.ones_like(out.data))


def test_vjps_return_none_for_inputs_without_gradient():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 5))
    w = rng.normal(size=(3, 5))
    b = rng.normal(size=3)
    for need in [(True, False, False), (False, True, False),
                 (False, False, True), (True, True, True)]:
        ins = [Tensor(a, requires_grad=r) for a, r in zip((x, w, b), need)]
        partials = _vjp_partials(lambda: linear(*ins))
        assert [p is not None for p in partials] == list(need)
        if need[1]:
            assert isinstance(partials[1], ad.Outer)
            assert partials[1].shape == w.shape and partials[1].size == w.size
    x4 = pad(rng.normal(size=(2, 2, 5, 6)), (1, 1))
    k4 = rng.normal(size=(3, 2, 2, 3))
    for need in [(True, False, False), (False, True, False),
                 (False, False, True), (True, True, True)]:
        ins = [Tensor(a, requires_grad=r) for a, r in zip((x4, k4, b), need)]
        partials = _vjp_partials(
            lambda: conv2d(*ins, stride=(2, 1)))
        assert [p is not None for p in partials] == list(need)
    data, param = Tensor(x), Tensor(x, requires_grad=True)
    partials = _vjp_partials(lambda: stack([data, param], axis=1))
    assert partials[0] is None and partials[1].shape == x.shape


def test_in_place_accumulation_leaves_vjp_arrays_unchanged():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    with GradTape() as tape:
        # x gets a reshape view, a fresh product and one array twice
        loss = sumsq(ad.add(x, x), mul(x, 3.0), reshape(x, (3, 2)))
    returned = []
    for node in tape._nodes:
        def watched(g, vjp=node.vjp):
            partials = vjp(g)
            returned.extend((p, p.copy()) for p in partials
                            if isinstance(p, np.ndarray))
            return partials
        node.vjp = watched
    g = backward(loss, tape)[x]
    # d/dx of |2x|^2 + |3x|^2 + |x|^2
    np.testing.assert_allclose(g, 28.0 * x.data, rtol=1e-15, atol=0)
    assert len(returned) == 7  # sumsq 3, add 2, mul 1, reshape 1
    for p, copy in returned:
        np.testing.assert_array_equal(p, copy)


# ---------------------------------------------------------------------------
# leaky ReLU / dropout
# ---------------------------------------------------------------------------


def test_leaky_relu_values():
    x = Tensor(np.array([-1.0, 2.0, 0.0]))
    out = leaky_relu(x, slope=0.2)
    np.testing.assert_allclose(out.data, [-0.2, 2.0, 0.0], atol=0, rtol=0)


def test_leaky_relu_gradient_finite_differences():
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)

    def build():
        return tsum(leaky_relu(x, slope=0.2))

    with GradTape() as tape:
        loss = build()
    g = backward(loss, tape)[x]
    np.testing.assert_allclose(g, [0.2, 1.0])
    for idx in range(2):
        num = central_diff(lambda: build().item(), x.data, idx, h=1e-5)
        assert abs(g[idx] - num) < 1e-9


def test_leaky_relu_slope_validated():
    with pytest.raises(ValueError):
        leaky_relu(Tensor(np.zeros(3)), slope=1.5)


def test_dropout_eval_is_identity():
    x = Tensor(np.random.default_rng(0).normal(size=(5, 5)))
    out = dropout(x, 0.9, mode="eval")
    assert out is x


def test_dropout_p_zero_is_identity():
    x = Tensor(np.ones((3, 3)))
    out = dropout(x, 0.0, mode="train", rng=np.random.default_rng(0))
    assert out is x


def test_dropout_large_sample_statistics():
    rng = np.random.default_rng(11)
    x = Tensor(np.ones(10 ** 6))
    out = dropout(x, 0.5, mode="train", rng=rng)
    zero_frac = np.mean(out.data == 0.0)
    assert abs(out.data.mean() - 1.0) < 0.01
    assert abs(zero_frac - 0.5) < 0.01
    # survivors carry the inverted-dropout scale
    assert np.all(np.isin(out.data, [0.0, 2.0]))


def test_dropout_gradient_uses_same_mask():
    x = Tensor(np.ones(100), requires_grad=True)
    with GradTape() as tape:
        out = dropout(x, 0.5, mode="train", rng=np.random.default_rng(5))
        loss = tsum(out)
    g = backward(loss, tape)[x]
    np.testing.assert_array_equal(g, np.where(out.data != 0, 2.0, 0.0))


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------


def test_backward_of_sum_is_ones():
    w = Tensor(np.random.default_rng(0).normal(size=(3, 4, 2)), requires_grad=True)
    with GradTape() as tape:
        loss = tsum(w)
    np.testing.assert_array_equal(backward(loss, tape)[w], np.ones((3, 4, 2)))


def test_backward_rejects_non_scalar():
    w = Tensor(np.zeros((2, 2)), requires_grad=True)
    with GradTape() as tape:
        out = mul(w, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        backward(out, tape)


def _replayed_tape():
    x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    with GradTape() as tape:
        loss = tsum(square(mul(x, 3.0)))
    np.testing.assert_allclose(backward(loss, tape)[x], [36.0, -18.0])
    return tape, loss


def test_backward_consumes_its_tape():
    tape, _ = _replayed_tape()
    assert len(tape) == 0


def test_a_replayed_tape_is_not_replayed_again():
    # a second replay would find no node and return only d loss / d loss
    tape, loss = _replayed_tape()
    with pytest.raises(ValueError, match="already replayed"):
        backward(loss, tape)


def test_a_replayed_tape_is_not_entered_again():
    tape, _ = _replayed_tape()
    with pytest.raises(ValueError, match="consumed"):
        with tape:
            pass
    assert ad._active_tape() is None


def test_least_squares_closed_form_gradient():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(6, 3))
    Y = rng.normal(size=(6, 2))
    W = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    N = X.shape[0]
    with GradTape() as tape:
        pred = matmul(Tensor(X), W)
        loss = mul(tsum(square(ad.sub(pred, Tensor(Y)))), 1.0 / N)
    g = backward(loss, tape)[W]
    closed_form = 2.0 * X.T @ (X @ W.data - Y) / N
    np.testing.assert_allclose(g, closed_form, atol=1e-12)


def test_backward_returns_leaf_gradients_only():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with GradTape() as tape:
        h = mul(w, 3.0)
        loss = tsum(square(h))
    grads = backward(loss, tape)
    assert list(grads) == [w]  # neither the intermediate h nor the loss
    np.testing.assert_allclose(grads[w], 18.0 * w.data)


def test_gradient_accumulates_over_reuse():
    x = Tensor(np.array([3.0]), requires_grad=True)
    with GradTape() as tape:
        loss = tsum(mul(x, x))  # x reused as both operands
    np.testing.assert_allclose(backward(loss, tape)[x], [6.0])


def test_backward_deterministic_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(pad(rng.normal(size=(2, 1, 8, 6)), (1, 1)),
                   requires_grad=True)
        k = Tensor(rng.normal(size=(3, 1, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        with GradTape() as tape:
            h = leaky_relu(conv2d(x, k, b, stride=(2, 2)))
            h = dropout(h, 0.5, mode="train", rng=np.random.default_rng(7))
            loss = tsum(square(h))
        grads = backward(loss, tape)
        return [grads[t].copy() for t in (x, k, b)]

    a, b_ = run(), run()
    for ga, gb in zip(a, b_):
        assert np.array_equal(ga, gb)


# ---------------------------------------------------------------------------
# remaining primitives: values and VJPs
# ---------------------------------------------------------------------------


def test_elementwise_shape_mismatch_rejected():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3, 2)))
    for op in (ad.add, ad.sub, mul):
        with pytest.raises(ShapeError):
            op(a, b)


def test_no_silent_broadcasting():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((3,)))
    with pytest.raises(ShapeError):
        ad.add(a, b)


@pytest.mark.parametrize("seed", range(20))
def test_primitive_vjps_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.uniform(0.3, 2.0, size=(3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(0.3, 2.0, size=(3, 4)), requires_grad=True)

    cases = {
        "add": lambda: tsum(square(ad.add(a, b))),
        "sub": lambda: tsum(square(ad.sub(a, b))),
        "mul": lambda: tsum(mul(a, b)),
        "scale": lambda: tsum(mul(a, 3.5)),
        "square": lambda: tsum(square(a)),
        "sumsq": lambda: sumsq(a),
        "sumsq_multi": lambda: sumsq(a, b),
        "mean": lambda: tmean(mul(a, b)),
        "sigmoid": lambda: tsum(sigmoid(a)),
        "log": lambda: tsum(tlog(a)),
        "clip": lambda: tsum(clip(a, 0.5, 1.5)),
        "reshape": lambda: tsum(square(reshape(a, (4, 3)))),
        "concat": lambda: tsum(square(concat([a, b], axis=1))),
        "stack": lambda: tsum(square(stack([a, b], axis=0))),
        "slice": lambda: tsum(square(tslice(a, (slice(1, None), slice(None, 2))))),
        "leaky_relu": lambda: tsum(leaky_relu(ad.sub(a, b), slope=0.2)),
    }
    for name, build in cases.items():
        check_vjp(build, [a, b], tol=1e-4)


def test_clip_values():
    x = Tensor(np.array([-1.0, 0.5, 2.0]))
    np.testing.assert_array_equal(clip(x, 0.0, 1.0).data, [0.0, 0.5, 1.0])


def test_sigmoid_extreme_inputs_stay_finite():
    x = Tensor(np.array([-800.0, 800.0]))
    out = sigmoid(x)
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)


def test_tape_records_in_execution_order_and_replays_reversed():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with GradTape() as tape:
        y = mul(x, 3.0)
        z = square(y)
        loss = tsum(z)
    outputs = [node.output for node in tape._nodes]
    assert outputs == [y, z, loss]
    g = backward(loss, tape)[x]
    np.testing.assert_allclose(g, [36.0])  # d/dx (3x)^2 = 18x


def test_values_finite_after_forward_backward():
    rng = np.random.default_rng(3)
    x = Tensor(pad(rng.normal(size=(2, 1, 10, 8)), (1, 3)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 1, 2, 7)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    with GradTape() as tape:
        h = leaky_relu(conv2d(x, k, b, stride=(2, 2)))
        h = reshape(h, (2, -1))
        loss = tmean(square(h))
    assert np.isfinite(loss.item())
    for g in backward(loss, tape).values():
        assert np.all(np.isfinite(g))


# ---------------------------------------------------------------------------
# row join: dropout of Rows
# ---------------------------------------------------------------------------

PAD = (None, 0)
P_TRAIN = 0.4


def _gather_oracle(rows, B, ch, W):
    """The gathered grid, built row by row with explicit indexing."""
    out = np.zeros((B, ch, len(rows), W))
    for j, (block, r) in enumerate(rows):
        if block is None:
            continue
        d = block.data
        if r is None:
            out[:, 0, j] = d
        elif d.ndim == 3:
            out[:, 0, j] = d[:, r]
        else:
            out[:, :, j] = d[:, :, r]
    return out


def _join(rows, p=0.0):
    """The dropout that joins ``rows``: at ``p`` 0 the plain join, else a
    train-mode mask that every call draws alike."""
    return dropout(ad.Rows(rows), p, "train", np.random.default_rng(7))


def _mask(shape, p):
    """The factor ``_join`` scales by: 1.0 everywhere at ``p`` 0."""
    if p == 0.0:
        return np.ones(shape)
    return (np.random.default_rng(7).random(shape) >= p) * (1.0 / (1.0 - p))


def _weighted_gather_loss(rows, weights, p=0.0):
    # quadratic, so a central difference of step 1e-3 has no truncation
    # error and 100 times less rounding noise than 1e-5
    return lambda: sumsq(mul(_join(rows, p), Tensor(weights)))


@pytest.mark.parametrize("seeds_need_grad", [False, True])
def test_gather_rows_of_frames_matches_finite_differences(seeds_need_grad):
    # a short-term window: seed-batch rows next to decoded-frame rows
    rng = np.random.default_rng(31)
    seeds = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=seeds_need_grad)
    f1 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    f2 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    rows = [PAD, (seeds, 3), (seeds, 4), (f1, None), (f2, None), PAD]
    weights = rng.normal(size=(2, 1, 6, 4))
    named = {"f1": f1, "f2": f2}
    if seeds_need_grad:
        named["seeds"] = seeds
    for p in (0.0, P_TRAIN):
        # the mask scales the joined buffer in place: the bits of x * factor
        want = _gather_oracle(rows, 2, 1, 4) * _mask((2, 1, 6, 4), p)
        np.testing.assert_array_equal(_bits(_join(rows, p).data), _bits(want))
        report = grad_check(_weighted_gather_loss(rows, weights, p), named,
                            h=1e-3, tol=1e-6)
        assert report.passed, report.summary()


def test_gather_rows_of_conv_blocks_matches_finite_differences():
    # kH = 3 over stride 2 reads the middle row of each group twice
    rng = np.random.default_rng(32)
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 2, 5)), requires_grad=True)
    rows = [PAD, (a, 0), (a, 1), (a, 1), (a, 2), (a, 3), (a, 3), (b, 0),
            (b, 1), (b, 1), PAD]
    weights = rng.normal(size=(2, 3, len(rows), 5))
    for p in (0.0, P_TRAIN):
        want = _gather_oracle(rows, 2, 3, 5) * _mask(weights.shape, p)
        np.testing.assert_array_equal(_bits(_join(rows, p).data), _bits(want))
        report = grad_check(_weighted_gather_loss(rows, weights, p),
                            {"a": a, "b": b}, h=1e-3, tol=1e-6)
        assert report.passed, report.summary()


def test_gather_rows_records_one_node_over_distinct_blocks():
    rng = np.random.default_rng(33)
    data = Tensor(rng.normal(size=(2, 3, 4, 5)))
    param = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    rows = [(param, 2), (data, 0), PAD, (param, 2), (data, 3), (param, 0)]
    for p in (0.0, P_TRAIN):
        with GradTape() as tape:
            out = _join(rows, p)
        (node,) = tape._nodes
        assert node.inputs == (param, data) and node.output is out
        g = rng.normal(size=out.shape)
        gp, gd = node.vjp(g)
        assert gd is None
        g = g * _mask(out.shape, p)
        want = np.zeros(param.shape)
        want[:, :, 2] = g[:, :, 0] + g[:, :, 3]
        want[:, :, 0] = g[:, :, 5]
        np.testing.assert_array_equal(gp, want)


def test_gather_rows_of_a_whole_block_in_order_is_the_block():
    x = Tensor(np.ones((2, 3, 4, 5)), requires_grad=True)
    whole = [(x, r) for r in range(4)]
    with GradTape() as tape:
        out = _join(whole)
    assert out is x and len(tape) == 0
    # in train mode the mask is applied to the block itself
    with GradTape() as tape:
        out = _join(whole, P_TRAIN)
    (node,) = tape._nodes
    assert node.inputs == (x,)
    np.testing.assert_array_equal(out.data, _mask(x.shape, P_TRAIN))
    # anything else is a copy, even one that starts with the whole block
    assert _join(whole + [PAD]) is not x


def test_gather_rows_rejects_mismatched_rows():
    rng = np.random.default_rng(34)
    frames = Tensor(rng.normal(size=(2, 5, 4)))
    conv = Tensor(rng.normal(size=(2, 3, 4, 4)))
    with pytest.raises(ValueError, match="must match exactly"):
        _join([(frames, 0), (conv, 0)])


def test_gather_rows_refuses_a_one_channel_row_after_many_channel_rows():
    # the joined grid is [B, 3, n, W]: a frame row would broadcast into all
    # three channels of its slot; a conv reading such rows refuses them too
    rng = np.random.default_rng(35)
    frames = Tensor(rng.normal(size=(2, 5, 4)))
    conv = Tensor(rng.normal(size=(2, 3, 4, 4)))
    with pytest.raises(ValueError, match="must match exactly, but along "
                                         "dimension 1"):
        _join([(conv, 0), (frames, 0)])
    k, b = Tensor(np.ones((1, 3, 1, 1))), Tensor(np.zeros(1))
    with pytest.raises(ShapeError, match=r"rows of shapes .* differ"):
        conv2d(ad.Rows([(conv, 0), (frames, 0)], 2), k, b)


def test_dropout_refuses_rows_with_padding():
    # dropout joins rows as they are; only a conv reads zero columns
    conv = Tensor(np.ones((2, 3, 4, 4)), requires_grad=True)
    for p in (0.0, P_TRAIN):
        with pytest.raises(ShapeError, match="dropout joins rows at pad 0, "
                                             "got 1"):
            dropout(ad.Rows([(conv, 0), PAD], 1), p, "train",
                    np.random.default_rng(7))


def test_conv2d_reads_padding_rows_and_columns_as_zeros():
    # rows read in place with pad columns give the conv of the padded grid
    # that the rows make, bit for bit
    rng = np.random.default_rng(36)
    seeds = Tensor(rng.normal(size=(2, 5, 4)))
    frame = Tensor(rng.normal(size=(2, 4)))
    rows = ad.Rows([PAD, (seeds, 4), (frame, None), PAD, PAD], 3)
    k = Tensor(rng.normal(size=(3, 1, 2, 7)))
    b = Tensor(rng.normal(size=3))
    grid = pad(_gather_oracle(rows, 2, 1, 4), (0, 3))
    assert rows.shape == grid.shape == (2, 1, 5, 10)
    for stride in ((1, 1), (2, 2), (1, 3)):
        np.testing.assert_array_equal(
            conv2d(rows, k, b, stride=stride).data,
            conv2d(Tensor(grid), k, b, stride=stride).data)


def test_conv2d_of_rows_records_one_node_over_the_distinct_blocks():
    # inputs: the first block, the kernel, the bias, the other blocks; the
    # input partials are the col2im oracle's gradient of the padded grid,
    # read back at the rows each block gave, and None for a data block
    rng = np.random.default_rng(33)
    data = Tensor(rng.normal(size=(2, 3, 4, 5)))
    param = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    k = Tensor(rng.normal(size=(4, 3, 2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=4))
    rows = [PAD, (param, 2), (data, 0), (param, 3), (data, 3), (param, 0),
            PAD]
    with GradTape() as tape:
        out = conv2d(ad.Rows(rows, 1), k, b, stride=(2, 1))
    (node,) = tape._nodes
    assert node.inputs == (param, k, b, data) and node.output is out
    g = rng.normal(size=out.shape)
    gp, gk, gb, gd = node.vjp(g)
    assert gb is None and gd is None and gk.shape == k.shape
    grid = col2im_input_grad(g, k.data, (2, 3, 7, 7), (2, 1), (0, 0))
    want = np.zeros(param.shape)
    for j, r in ((1, 2), (3, 3), (5, 0)):
        want[:, :, r] = grid[:, :, j, 1:6]
    np.testing.assert_allclose(gp, want, rtol=0, atol=1e-14)


def test_gather_rows_copies_the_gradient_of_a_block_read_whole_once():
    # a block whose rows are each read once gets a new array holding its
    # slice of the output gradient (a view would keep the joined gradient
    # alive); a block with a row read again gets one partial with both added
    rng = np.random.default_rng(40)
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 2, 5)), requires_grad=True)
    seeds = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    rows = [PAD, *[(a, r) for r in range(4)], (b, 0), (b, 1), (b, 1), PAD]
    for p in (0.0, P_TRAIN):
        with GradTape() as tape:
            _join(rows, p)
            _join([(seeds, r) for r in range(4)], p)
        node, frames_node = tape._nodes
        g = rng.normal(size=node.output.shape)
        ga, gb = node.vjp(g)
        g = g * _mask(g.shape, p)
        assert not np.shares_memory(ga, g) and ga.flags.c_contiguous
        np.testing.assert_array_equal(ga, g[:, :, 1:5])
        np.testing.assert_array_equal(
            gb, np.stack([g[:, :, 5], g[:, :, 6] + g[:, :, 7]], axis=2))
        g = rng.normal(size=frames_node.output.shape)
        (gs,) = frames_node.vjp(g)
        g = g * _mask(g.shape, p)
        assert gs.shape == seeds.shape and not np.shares_memory(gs, g)
        np.testing.assert_array_equal(gs, g[:, 0])


@pytest.mark.parametrize("width_pad", [1, 3])
def test_padded_gather_matches_finite_differences(width_pad):
    # a conv reading rows in place: padding rows and columns get no
    # gradient, only the rows read do, and a row read twice gets both;
    # kH > sH reads each row by two output rows. The loss is quadratic, so
    # a central difference of step 1e-3 has no truncation error and 100
    # times less rounding noise than 1e-5
    rng = np.random.default_rng(38)
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 2, 5)), requires_grad=True)
    k = Tensor(rng.normal(size=(2, 3, 2, 3)))
    bias = Tensor(rng.normal(size=2))
    rows = ad.Rows([PAD, (a, 0), (a, 1), (a, 1), (a, 3), (b, 0), (b, 1), PAD],
                   width_pad)
    weights = rng.normal(size=conv2d(rows, k, bias, stride=(1, 2)).shape)
    report = grad_check(
        lambda: sumsq(mul(conv2d(rows, k, bias, stride=(1, 2)),
                          Tensor(weights))),
        {"a": a, "b": b}, h=1e-3, tol=1e-6)
    assert report.passed, report.summary()


def test_conv_of_a_padded_gather_matches_finite_differences():
    # the model's path: frame rows read in place with padding rows and
    # columns by a strided conv; the loss is quadratic, as above
    rng = np.random.default_rng(39)
    seeds = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
    frame = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 1, 2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    rows = ad.Rows([PAD, *[(seeds, i) for i in range(5)], (frame, None), PAD],
                   1)
    out = conv2d(rows, k, b, stride=(2, 2))
    np.testing.assert_allclose(
        out.data, conv2d_oracle(_gather_oracle(rows, 2, 1, 6), k.data, b.data,
                                (2, 2), (0, 1)), atol=1e-12, rtol=0)
    weights = rng.normal(size=out.shape)

    def loss():
        out = conv2d(rows, k, b, stride=(2, 2))
        return sumsq(mul(out, Tensor(weights)))

    report = grad_check(loss, {"seeds": seeds, "frame": frame, "k": k, "b": b},
                        h=1e-3, tol=1e-6)
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# grad_check utility
# ---------------------------------------------------------------------------


def test_grad_check_polynomial():
    w = Tensor(np.array([3.0]), requires_grad=True)
    report = grad_check(lambda: tsum(square(w)), {"w": w}, h=1e-5, tol=1e-6)
    assert report.passed
    assert report.max_rel_err < 1e-8
    # analytic derivative of w^2 at 3 is 6
    with GradTape() as tape:
        loss = tsum(square(w))
    np.testing.assert_allclose(backward(loss, tape)[w], [6.0])


def test_grad_check_detects_nondeterminism():
    w = Tensor(np.ones(4), requires_grad=True)
    state = {"calls": 0}

    def f():
        state["calls"] += 1
        rng = np.random.default_rng(state["calls"])  # fresh mask every call
        return tsum(dropout(w, 0.5, mode="train", rng=rng))

    with pytest.raises(GradCheckSetupError):
        grad_check(f, {"w": w})


def test_grad_check_flags_wrong_gradient():
    # a loss whose tape gradient is deliberately broken via a stale constant
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def f():
        return tsum(mul(w, w.detach()))  # tape sees only one factor

    report = grad_check(f, {"w": w}, tol=1e-4)
    assert not report.passed
