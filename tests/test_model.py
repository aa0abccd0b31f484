"""Model tests: encoder shapes, residual decoding, window bookkeeping, checkpoints."""

import errno
import hashlib
import json
import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from convmotion import autodiff as ad
from convmotion import gradcheck as G
from convmotion import model as M
from convmotion.autodiff import GradTape, ShapeError, Tensor, backward


def tiny_hp(**overrides):
    base = dict(seed_frames=16, target_frames=6, window=8, channels=(8, 16, 16),
                fc_out=64, dropout=0.0, batch_size=4)
    base.update(overrides)
    return M.HyperParams(**base)


POSE_DIM = 12


@pytest.fixture
def params():
    return M.init_params(tiny_hp(), POSE_DIM, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# configuration / shape arithmetic
# ---------------------------------------------------------------------------


def test_default_grid_trace_full_seed():
    cfg = M.HyperParams().long_cem(54)
    assert cfg.grid_trace() == [(50, 54), (25, 27), (13, 14), (7, 7)]
    assert cfg.flat_dim == 128 * 7 * 7


def test_default_grid_trace_short_window():
    cfg = M.HyperParams().short_cem(54)
    assert [g[0] for g in cfg.grid_trace()] == [20, 10, 5, 3]


def test_same_padding_yields_ceil_extents():
    for k in (2, 4, 7):
        for n in range(max(2, k - 4), 60):
            p = M.same_padding(n, k, 2)
            out = (n + 2 * p - k) // 2 + 1
            assert out == -(-n // 2), (n, k, p)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        M.HyperParams(window=60, seed_frames=50)
    with pytest.raises(ValueError):
        M.HyperParams(eta=1.5)


MALFORMED_HYPER = [
    ("kernel", (2,)), ("stride", (0, 2)), ("channels", (0, 4, 4)),
    ("fc_out", 0), ("target_frames", 0), ("batch_size", 0),
    ("dropout", 1.5), ("leaky_slope", 2.0),
    # a negative rate runs gradient ascent, and a negative lambda_adv would
    # switch the adversarial term and the discriminator step off
    ("learning_rate", -1.0), ("learning_rate", 0.0),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("lambda_l2", -5.0), ("lambda_l2", float("inf")),
    ("lambda_adv", -1.0), ("lambda_adv", float("nan")),
]


@pytest.mark.parametrize("name,value", MALFORMED_HYPER)
def test_hyperparams_reject_malformed_geometry(name, value):
    with pytest.raises(ValueError, match=name):
        M.HyperParams(**{name: value})


@pytest.mark.parametrize("kernel,stride", [((2, 7), (1, 2)), ((4, 4), (1, 2)),
                                           ((3, 4), (2, 1))])
def test_even_kernel_at_stride_one_rejected(kernel, stride):
    # symmetric padding would grow the grid by one row or column per layer,
    # so grid_trace, flat_dim and the affine layer would disagree
    with pytest.raises(ValueError, match=r"kernel \(.*\) with stride \(.*\)"):
        M.HyperParams(kernel=kernel, stride=stride)


@pytest.mark.parametrize("kernel,stride", [((7, 2), (1, 2)), ((3, 3), (1, 2)),
                                           ((2, 3), (2, 1))])
def test_stride_one_forward_matches_grid_trace(kernel, stride):
    hp = tiny_hp(kernel=kernel, stride=stride)
    p = M.init_params(hp, POSE_DIM, np.random.default_rng(0))
    code = M.cem_forward(Tensor(np.zeros((2, 16, POSE_DIM))), p,
                         hp.long_cem(POSE_DIM))
    assert code.shape == (2, hp.fc_out)


def test_decoder_input_width_is_two_codes():
    hp = M.HyperParams()
    p = M.init_params(hp, 54, np.random.default_rng(0))
    assert p["decoder.fc1.weight"].shape == (512, 1024)
    assert p["decoder.fc2.weight"].shape == (54, 512)


# ---------------------------------------------------------------------------
# the parameter map
# ---------------------------------------------------------------------------


def test_init_params_fills_param_names_in_order():
    p = M.init_params(tiny_hp(), POSE_DIM, np.random.default_rng(0))
    assert list(p) == list(M.PARAM_NAMES)
    assert len(M.PARAM_NAMES) == 8 + 8 + 4 + 8 + 2


def test_init_params_draws_are_pinned():
    # every tensor's name, shape and values, in draw order
    digest = hashlib.sha256()
    for name, t in M.init_params(G.tiny_hyperparams(), 12,
                                 np.random.default_rng(0)).items():
        digest.update(name.encode() + str(t.shape).encode() + t.data.tobytes())
    assert digest.hexdigest() == (
        "3b3daee01f7760b09cd25c3b0e8d13785971a28e87f70d35888ddabbca7a100a")


def test_generator_named_can_leave_out_the_long_encoder(params):
    gen = params.generator_named(include_long=False)
    assert not any(n.startswith("long.") for n in gen)
    assert set(gen) == set(params.generator_named()) - {
        n for n in params if n.startswith("long.")}
    assert len(gen) == 8 + 4


def test_discriminator_named_is_exactly_the_disc_tensors(params):
    disc = params.discriminator_named()
    assert set(disc) == {n for n in M.PARAM_NAMES if n.startswith("disc.")}
    assert len(disc) == 8 + 2
    assert not set(disc) & set(params.generator_named())


def test_params_from_tensors_ignores_optimizer_moments(params):
    tensors = M.tensors_from_params(params)
    tensors["optim.m.decoder.fc1.bias"] = np.ones(64)
    restored = M.params_from_tensors(tensors)
    assert list(restored) == list(M.PARAM_NAMES)
    for name, t in params.items():
        np.testing.assert_array_equal(restored[name].data, t.data)
        assert restored[name] is not t


def test_params_from_tensors_names_a_missing_tensor(params):
    tensors = M.tensors_from_params(params)
    del tensors["short.conv2.bias"]
    with pytest.raises(KeyError, match="short.conv2.bias"):
        M.params_from_tensors(tensors)


# ---------------------------------------------------------------------------
# encoder forward
# ---------------------------------------------------------------------------


def test_cem_zero_params_gives_bias_only(params):
    hp = tiny_hp()
    cfg = hp.long_cem(POSE_DIM)
    for name, t in params.items():
        if name.startswith("long."):
            t.assign_(np.zeros(t.shape))
    code = M.cem_forward(
        Tensor(np.random.default_rng(1).normal(size=(1, 16, POSE_DIM))),
        params, cfg)
    np.testing.assert_array_equal(code.data, np.zeros((1, 64)))

    bias = np.random.default_rng(2).normal(size=64)
    params["long.fc.bias"].assign_(bias)
    code = M.cem_forward(Tensor(np.zeros((1, 16, POSE_DIM))), params, cfg)
    np.testing.assert_array_equal(code.data, bias[None])


def test_cem_forward_shapes_match_trace(params):
    hp = tiny_hp()
    cfg = hp.long_cem(POSE_DIM)
    code = M.cem_forward(Tensor(np.zeros((1, 16, POSE_DIM))), params, cfg)
    assert code.shape == (1, 64)
    batch = M.cem_forward(Tensor(np.zeros((5, 16, POSE_DIM))), params, cfg)
    assert batch.shape == (5, 64)


def test_cem_rejects_wrong_frame_count(params):
    cfg = tiny_hp().long_cem(POSE_DIM)
    with pytest.raises(ShapeError, match="frames"):
        M.cem_forward(Tensor(np.zeros((1, 10, POSE_DIM))), params, cfg)


def test_model_internals_reject_unbatched_input(params):
    hp = tiny_hp()
    with pytest.raises(ShapeError, match=r"\[B, n, L\]"):
        M.cem_forward(Tensor(np.zeros((16, POSE_DIM))), params,
                      hp.long_cem(POSE_DIM))
    with pytest.raises(ShapeError):
        M.decode_step(Tensor(np.zeros(64)), Tensor(np.zeros(64)),
                      Tensor(np.zeros(POSE_DIM)), params, hp)
    with pytest.raises(ShapeError, match=r"\[B, n, L\]"):
        M.discriminate(Tensor(np.zeros((22, POSE_DIM))), params, hp)
    # a single seed is still a single prediction
    out = M.predict_sequence(np.zeros((16, POSE_DIM)), params, hp)
    assert out.shape == (6, POSE_DIM)


def test_cem_full_size_shape_trace():
    hp = M.HyperParams()
    rng = np.random.default_rng(0)
    p = M.init_params(hp, 54, rng)
    code = M.cem_forward(Tensor(rng.normal(size=(1, 50, 54))), p, hp.long_cem(54))
    assert code.shape == (1, 512)
    assert p["long.fc.weight"].shape == (512, 6272)  # 128 * 7 * 7


# ---------------------------------------------------------------------------
# decoder step
# ---------------------------------------------------------------------------


def test_decode_zero_params_is_identity(params):
    hp = tiny_hp()
    zl = Tensor(np.random.default_rng(0).normal(size=(1, 64)))
    zs = Tensor(np.random.default_rng(1).normal(size=(1, 64)))
    prev = Tensor(np.random.default_rng(2).normal(size=(1, POSE_DIM)))
    out = M.decode_step(zl, zs, prev, params, hp)
    # final layer is zero-initialized, so the step is a pure residual identity
    np.testing.assert_array_equal(out.data, prev.data)


def test_decode_zero_codes_second_bias(params):
    hp = tiny_hp()
    b2 = np.random.default_rng(3).normal(size=POSE_DIM)
    params["decoder.fc2.bias"].assign_(b2)
    zl = Tensor(np.zeros((1, 64)))
    zs = Tensor(np.zeros((1, 64)))
    prev = Tensor(np.random.default_rng(4).normal(size=(1, POSE_DIM)))
    out = M.decode_step(zl, zs, prev, params, hp)
    np.testing.assert_allclose(out.data, prev.data + b2, atol=1e-15)


def test_decode_matches_straight_line_oracle():
    hp = tiny_hp()
    rng = np.random.default_rng(5)
    p = M.init_params(hp, POSE_DIM, rng)
    p["decoder.fc2.weight"].assign_(rng.normal(size=(POSE_DIM, 64)) * 0.1)
    p["decoder.fc2.bias"].assign_(rng.normal(size=POSE_DIM) * 0.1)
    zl = rng.normal(size=(1, 64))
    zs = rng.normal(size=(1, 64))
    prev = rng.normal(size=(1, POSE_DIM))
    out = M.decode_step(Tensor(zl), Tensor(zs), Tensor(prev), p, hp)

    # independent re-implementation of the two affine maps
    d = M.tensors_from_params(p)
    h = (np.concatenate([zl, zs], axis=1) @ d["decoder.fc1.weight"].T
         + d["decoder.fc1.bias"])
    h = np.where(h >= 0, h, hp.leaky_slope * h)
    expect = h @ d["decoder.fc2.weight"].T + d["decoder.fc2.bias"] + prev
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def _five_node_decode_step(zl, zs, prev, params, hp, mode, rng):
    """The decoding step as five tape nodes: concat, affine with its
    activation, dropout, affine, residual add."""
    h = ad.linear(ad.concat([zl, zs], axis=-1), params["decoder.fc1.weight"],
                  params["decoder.fc1.bias"], slope=hp.leaky_slope)
    h = ad.dropout(h, hp.dropout, mode=mode, rng=rng)
    h = ad.linear(h, params["decoder.fc2.weight"], params["decoder.fc2.bias"])
    return ad.add(h, prev)


def test_decode_step_equals_the_five_node_composition_bit_for_bit():
    # decode_step reads the codes as parts of fc1's input and adds the
    # previous frame inside fc2's node; prev's first partial is then the
    # very array fc2's weight partial holds, and two earlier uses of prev
    # make backward add the next two into its own accumulator, in place
    hp = tiny_hp(dropout=0.3)
    data = np.random.default_rng(6)
    zl, zs = data.normal(size=(4, 64)), data.normal(size=(4, 64))
    prev, weights = data.normal(size=(2, 4, POSE_DIM))

    def run(step):
        p = _rich_params(hp)
        ins = [Tensor(a.copy(), requires_grad=True) for a in (zl, zs, prev)]
        with GradTape() as tape:
            early = [ad.mul(ins[2], 0.5), ad.square(ins[2])]
            out = step(*ins, p, hp, mode="train",
                       rng=np.random.default_rng(7))
            loss = ad.sumsq(ad.mul(out, Tensor(weights)), *early)
        grads = backward(loss, tape)
        return [out.data, *(grads[t] for t in ins),
                *(grads[p[n]] for n in M.PARAM_NAMES
                  if n.startswith("decoder."))]

    got, want = run(M.decode_step), run(_five_node_decode_step)
    assert all(np.any(g != 0.0) for g in got)
    for g, r in zip(got, want, strict=True):
        assert g.shape == r.shape
        np.testing.assert_array_equal(g.view(np.int64), r.view(np.int64))


# ---------------------------------------------------------------------------
# recursive prediction
# ---------------------------------------------------------------------------


def window_ids_oracle(t, C, T):
    """Independent sliding-window enumeration: start with the last C seed
    frames, then drop-front/append-prediction after each step."""
    window = [("seed", i) for i in range(t - C, t)]
    per_step = []
    for k in range(1, T + 1):
        per_step.append(list(window))
        window = window[1:] + [("pred", k)]
    return per_step


def test_window_ids_match_enumeration_oracle():
    for t, C, T in [(50, 20, 25), (16, 8, 6), (10, 3, 12), (5, 5, 4)]:
        oracle = window_ids_oracle(t, C, T)
        for k in range(1, T + 1):
            assert M.window_frame_ids(t, C, k) == oracle[k - 1], (t, C, k)


def test_window_ids_step3_t50_c20():
    ids = M.window_frame_ids(50, 20, 3)
    assert ids[:18] == [("seed", i) for i in range(32, 50)]
    assert ids[18:] == [("pred", 1), ("pred", 2)]


def test_window_always_c_frames_and_late_steps_fully_generated():
    t, C, T = 50, 20, 25
    for k in range(1, T + 1):
        ids = M.window_frame_ids(t, C, k)
        assert len(ids) == C
        if k > C:
            assert all(kind == "pred" for kind, _ in ids)


def test_zero_decoder_repeats_last_seed_frame(params):
    hp = tiny_hp()
    rng = np.random.default_rng(6)
    seed = rng.normal(size=(16, POSE_DIM))
    out = M.predict_sequence(seed, params, hp)
    assert out.shape == (6, POSE_DIM)
    for k in range(6):
        np.testing.assert_array_equal(out.data[k], seed[-1])


def test_predict_batched_shapes(params):
    hp = tiny_hp()
    rng = np.random.default_rng(7)
    seeds = rng.normal(size=(3, 16, POSE_DIM))
    out = M.predict_sequence(seeds, params, hp)
    assert out.shape == (3, 6, POSE_DIM)


def test_teacher_rejected_in_eval_mode(params):
    hp = tiny_hp()
    seed = np.zeros((16, POSE_DIM))
    teacher = np.zeros((6, POSE_DIM))
    with pytest.raises(ValueError, match="train"):
        M.predict_sequence(seed, params, hp, teacher=teacher, mode="eval")


def test_teacher_wrong_length_rejected(params):
    hp = tiny_hp()
    seed = np.zeros((16, POSE_DIM))
    with pytest.raises(ShapeError):
        M.predict_sequence(seed, params, hp, teacher=np.zeros((5, POSE_DIM)),
                           mode="train")


def _rich_params(hp, seed=8):
    """Parameters with a non-zero final decoder layer so predictions move."""
    rng = np.random.default_rng(seed)
    p = M.init_params(hp, POSE_DIM, rng)
    p["decoder.fc2.weight"].assign_(
        rng.normal(size=p["decoder.fc2.weight"].shape) * 0.05)
    p["decoder.fc2.bias"].assign_(rng.normal(size=POSE_DIM) * 0.05)
    return p


def _window_grid(rows) -> np.ndarray:
    """The [B, C, L] grid that the short-term encoder's frame rows stand
    for: row ``r`` of a [B, t, L] seed batch, or a whole [B, L] frame when
    ``r`` is None."""
    return np.stack([block.data if r is None else block.data[:, r]
                     for block, r in rows], axis=1)


def _record_short_windows(monkeypatch) -> list:
    """Record the [B, C, L] grid the short-term encoder sees at each step."""
    windows = []
    real = M.cem_forward

    def recording(frames, params, cfg, **kw):
        if cfg.prefix == "short":
            windows.append(_window_grid(frames))
        return real(frames, params, cfg, **kw)

    monkeypatch.setattr(M, "cem_forward", recording)
    return windows


def _steps(windows, hp):
    """(ids, window) per decoding step, ids as ``window_frame_ids`` gives them."""
    assert len(windows) == hp.target_frames
    return [(M.window_frame_ids(hp.seed_frames, hp.window, k), w)
            for k, w in enumerate(windows, 1)]


def test_eta_zero_window_holds_teacher_frames_exactly(monkeypatch):
    hp = tiny_hp(eta=0.0)
    p = _rich_params(hp)
    rng = np.random.default_rng(9)
    seed = rng.normal(size=(16, POSE_DIM))
    teacher = rng.normal(size=(6, POSE_DIM))
    windows = _record_short_windows(monkeypatch)
    M.predict_sequence(seed, p, hp, teacher=teacher, mode="train")
    for ids, window in _steps(windows, hp):
        for j, (kind, idx) in enumerate(ids):
            if kind == "pred":
                np.testing.assert_array_equal(window[0, j], teacher[idx - 1])
            else:
                np.testing.assert_array_equal(window[0, j], seed[idx])


def test_eta_one_window_holds_predictions_exactly(monkeypatch):
    hp = tiny_hp(eta=1.0)
    p = _rich_params(hp)
    rng = np.random.default_rng(10)
    seed = rng.normal(size=(16, POSE_DIM))
    teacher = rng.normal(size=(6, POSE_DIM))
    windows = _record_short_windows(monkeypatch)
    out = M.predict_sequence(seed, p, hp, teacher=teacher, mode="train")
    for ids, window in _steps(windows, hp):
        for j, (kind, idx) in enumerate(ids):
            if kind == "pred":
                np.testing.assert_array_equal(window[0, j], out.data[idx - 1])


def test_eta_half_window_blends(monkeypatch):
    hp = tiny_hp(eta=0.5)
    p = _rich_params(hp)
    rng = np.random.default_rng(11)
    seed = rng.normal(size=(16, POSE_DIM))
    teacher = rng.normal(size=(6, POSE_DIM))
    windows = _record_short_windows(monkeypatch)
    out = M.predict_sequence(seed, p, hp, teacher=teacher, mode="train")
    for ids, window in _steps(windows, hp):
        for j, (kind, idx) in enumerate(ids):
            if kind == "pred":
                expect = 0.5 * out.data[idx - 1] + 0.5 * teacher[idx - 1]
                np.testing.assert_allclose(window[0, j], expect, atol=1e-12)


def test_long_code_computed_exactly_once(monkeypatch):
    hp = tiny_hp()
    p = _rich_params(hp)
    calls = {"long": 0, "short": 0}
    real = M.cem_forward

    def counting(frames, params, cfg, **kw):
        calls[cfg.prefix] += 1
        return real(frames, params, cfg, **kw)

    monkeypatch.setattr(M, "cem_forward", counting)
    M.predict_sequence(np.zeros((16, POSE_DIM)), p, hp)
    assert calls == {"long": 1, "short": hp.target_frames}


def _per_window(monkeypatch):
    """Make ``predict_sequence`` encode every window from scratch, as one
    [B, C, L] tensor stacked from its frames: the oracle for the row cache
    and for the encoder's reading of frame rows."""
    real = M.cem_forward

    def uncached(frames, params, cfg, cache=None, **kw):
        if cfg.prefix == "short":
            frames = ad.stack([block if r is None
                               else ad.tslice(block, (slice(None), r))
                               for block, r in frames], axis=1)
        return real(frames, params, cfg, **kw)

    monkeypatch.setattr(M, "cem_forward", uncached)


def _predict_and_grads(hp, p, seed, teacher):
    with GradTape() as tape:
        out = M.predict_sequence(seed, p, hp, teacher=teacher, mode="train",
                                 rng=np.random.default_rng(3))
        loss = ad.sumsq(out)
    grads = backward(loss, tape)
    return out.data, {n: grads[t] for n, t in p.generator_named().items()}


CACHE_GEOMETRIES = [
    (window, kernel, stride)
    for window in (5, 7, 10, 20, 24)
    for kernel in ((2, 7), (7, 2), (4, 4), (3, 3))
    for stride in ((2, 2), (1, 2))
    if stride[0] == 2 or kernel[0] % 2
]


@pytest.mark.parametrize("eta", [1.0, 0.5])
@pytest.mark.parametrize("window,kernel,stride", CACHE_GEOMETRIES)
def test_row_cache_matches_per_window_encoding(monkeypatch, window, kernel,
                                               stride, eta):
    # t = 24, so window 24 is C = t; T = 12 steps reach the first reuse of
    # a padded last-layer row at C = 20
    hp = M.HyperParams(seed_frames=24, target_frames=12, window=window,
                       channels=(2, 3, 3), fc_out=8, kernel=kernel,
                       stride=stride, eta=eta, dropout=0.5)
    p = _rich_params(hp)
    rng = np.random.default_rng(window)
    seed = rng.normal(size=(2, 24, POSE_DIM))
    teacher = rng.normal(size=(2, 12, POSE_DIM))
    out, grads = _predict_and_grads(hp, p, seed, teacher)
    _per_window(monkeypatch)
    want_out, want_grads = _predict_and_grads(hp, p, seed, teacher)
    assert np.abs(out - want_out).max() <= 1e-12 * np.abs(want_out).max()
    assert any(n.startswith("short.") for n in want_grads)
    for name, want in want_grads.items():
        assert np.abs(grads[name] - want).max() <= 1e-12 * np.abs(want).max(), name


def test_short_encoder_conv_macs_per_sequence(monkeypatch):
    """Paper config, one sequence, closed loop: each conv row is computed
    once per sequence (about 190M MACs), not once per window (about 360M).
    The first window convolves every row; each later one only the rows
    that its new frame reaches."""
    hp = M.HyperParams()
    p = M.init_params(hp, 54, np.random.default_rng(0))
    layer = {id(p[f"{enc}.conv{i}.kernel"].data): (enc, i)
             for enc in ("long", "short") for i in (1, 2, 3)}
    macs, rows = [], {}
    real = ad.conv2d

    def counting(x, kernel, bias, *args, **kwargs):
        out = real(x, kernel, bias, *args, **kwargs)
        n, cout, ho, wo = out.shape
        macs.append(n * cout * ho * wo * int(np.prod(kernel.shape[1:])))
        rows.setdefault(layer[id(kernel.data)], []).append(ho)
        return out

    monkeypatch.setattr(ad, "conv2d", counting)
    M.predict_sequence(np.random.default_rng(1).normal(size=(50, 54)), p, hp)
    assert sum(macs) <= 210e6
    assert [rows["long", i] for i in (1, 2, 3)] == [[25], [13], [7]]
    assert rows["short", 1] == [10, 10] + [1] * 23
    assert rows["short", 2] == [5] * 4 + [1] * 21
    assert rows["short", 3] == [3] * 8 + [2] * 17


def test_gradient_flows_from_first_seed_frame_to_last_output():
    hp = tiny_hp()
    p = _rich_params(hp)
    seed = Tensor(np.random.default_rng(12).normal(size=(16, POSE_DIM)),
                  requires_grad=True)
    with GradTape() as tape:
        out = M.predict_sequence(seed, p, hp)
        loss = ad.tsum(ad.tslice(out, hp.target_frames - 1))
    g = backward(loss, tape)[seed]
    # frame 0 feeds only the long-term code (C < t), which every step reuses
    assert np.abs(g[0]).max() > 0.0


def test_no_long_term_zero_fills_code(monkeypatch):
    hp = tiny_hp(no_long_term=True)
    p = _rich_params(hp)
    calls = {"n": 0}
    real = M.cem_forward

    def counting(frames, params, cfg, **kw):
        if cfg.prefix == "long":
            calls["n"] += 1
        return real(frames, params, cfg, **kw)

    monkeypatch.setattr(M, "cem_forward", counting)
    out = M.predict_sequence(np.random.default_rng(0).normal(size=(16, POSE_DIM)),
                             p, hp)
    assert calls["n"] == 0
    assert out.shape == (6, POSE_DIM)


def test_eval_forward_deterministic(params):
    hp = tiny_hp()
    seed = np.random.default_rng(13).normal(size=(16, POSE_DIM))
    a = M.predict_sequence(seed, params, hp).data
    b = M.predict_sequence(seed, params, hp).data
    assert np.array_equal(a, b)


def test_train_mode_dropout_changes_outputs():
    hp = tiny_hp(dropout=0.5)
    p = _rich_params(hp)
    seed = np.random.default_rng(14).normal(size=(16, POSE_DIM))
    a = M.predict_sequence(seed, p, hp, mode="train",
                           rng=np.random.default_rng(1)).data
    b = M.predict_sequence(seed, p, hp, mode="train",
                           rng=np.random.default_rng(2)).data
    c = M.predict_sequence(seed, p, hp, mode="train",
                           rng=np.random.default_rng(1)).data
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


# ---------------------------------------------------------------------------
# discriminator
# ---------------------------------------------------------------------------


def test_discriminator_zero_params_gives_half(params):
    hp = tiny_hp()
    for name in ("disc.cem.conv1.kernel", "disc.cem.conv2.kernel",
                 "disc.cem.conv3.kernel", "disc.cem.fc.weight",
                 "disc.head.weight"):
        params[name].assign_(np.zeros(params[name].shape))
    full = Tensor(np.random.default_rng(0).normal(size=(1, 22, POSE_DIM)))
    prob = M.discriminate(full, params, hp)
    assert prob.shape == (1,)
    assert prob.data[0] == pytest.approx(0.5)


def test_discriminator_outputs_probabilities(params):
    hp = tiny_hp()
    rng = np.random.default_rng(1)
    probs = M.discriminate(Tensor(rng.normal(size=(5, 22, POSE_DIM))), params, hp)
    assert probs.shape == (5,)
    assert np.all(probs.data > 0.0) and np.all(probs.data < 1.0)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, params):
    hp = tiny_hp()
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, hp, POSE_DIM, "f" * 64,
                      M.tensors_from_params(params), extra={"iteration": 7})
    ckpt = M.load_checkpoint(path)
    assert ckpt.hyper == hp
    assert ckpt.pose_dim == POSE_DIM
    assert ckpt.extra["iteration"] == 7
    restored = ckpt.to_params()
    for name, t in params.all_named().items():
        np.testing.assert_array_equal(restored.all_named()[name].data, t.data)


def test_checkpoint_bytes_pinned(tmp_path):
    # a fixed checkpoint, byte for byte: one tensor is not C-contiguous,
    # one float32, and one 0-d (stored with shape [])
    hp = M.HyperParams(seed_frames=6, target_frames=3, window=4,
                       channels=(2, 3, 3), fc_out=8, kernel=(3, 3))
    tensors = {
        "w": np.arange(12.0).reshape(3, 4) / 7.0,
        "t": (np.arange(6.0).reshape(2, 3) - 2.5).T,
        "f": np.linspace(-1.0, 1.0, 5, dtype=np.float32),
        "s": np.array(0.125),
    }
    path = tmp_path / "fixed.ckpt"
    M.save_checkpoint(path, hp, 6, "c" * 64, tensors, {"iteration": 3})
    data = path.read_bytes()
    assert len(data) == 838
    assert hashlib.sha256(data).hexdigest() == (
        "5a9af540e5043decc2db63400669add5e4b89dc586cadd0198ac586c9ae98044")


def test_checkpoint_keeps_zero_d_shape(tmp_path):
    path = tmp_path / "scalar.ckpt"
    M.save_checkpoint(path, tiny_hp(), POSE_DIM, "0" * 64,
                      {"s": np.array(0.125), "v": np.array([0.125])})
    tensors = M.load_checkpoint(path).tensors
    assert tensors["s"].shape == ()
    assert tensors["v"].shape == (1,)
    assert tensors["s"] == 0.125


class _DiskFull:
    """A file whose writes after the first fail, as on a full disk."""

    def __init__(self, f):
        self.f = f
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.f.write(data)


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path, params,
                                                        monkeypatch):
    hp = tiny_hp()
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, hp, POSE_DIM, "0" * 64,
                      M.tensors_from_params(params), {"iteration": 1})
    earlier = path.read_bytes()
    monkeypatch.setattr(M, "open", lambda p, mode: _DiskFull(open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        M.save_checkpoint(path, hp, POSE_DIM, "0" * 64,
                          M.tensors_from_params(params), {"iteration": 2})
    assert path.read_bytes() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_checkpoint_that_a_load_would_refuse_is_not_written(tmp_path, params):
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=re.escape(
            "extra.step is not a declared key")):
        M.save_checkpoint(path, tiny_hp(), POSE_DIM, "0" * 64,
                          M.tensors_from_params(params), {"step": 1})
    with pytest.raises(ValueError, match=re.escape(
            "tensors[0].dtype must be 'float32' or 'float64', got 'int64'")):
        M.save_checkpoint(path, tiny_hp(), POSE_DIM, "0" * 64,
                          {"a": np.arange(3, dtype=np.int64)})
    with pytest.raises(ValueError, match=re.escape(
            "tensor 'optim.v.long.fc.bias' has shape [63], but the model "
            "needs [64]")):
        M.save_checkpoint(path, tiny_hp(), POSE_DIM, "0" * 64,
                          {"optim.v.long.fc.bias": np.zeros(63)})
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_bytes_deterministic(tmp_path, params):
    hp = tiny_hp()
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    tensors = M.tensors_from_params(params)
    M.save_checkpoint(a, hp, POSE_DIM, "0" * 64, tensors)
    M.save_checkpoint(b, hp, POSE_DIM, "0" * 64, tensors)
    assert a.read_bytes() == b.read_bytes()


def _entry(header: dict, name: str) -> dict:
    return next(e for e in header["tensors"] if e["name"] == name)


def _edited_header(header: dict, what: str):
    """A valid-JSON but malformed variant of a checkpoint header."""
    if what == "nbytes vs shape":  # named when an entry gave its nbytes
        header["tensors"][0]["shape"][0] += 1
    elif what == "no stats_fingerprint":
        del header["stats_fingerprint"]
    elif what == "no tensors":
        del header["tensors"]
    elif what == "unknown hyper key":
        header["hyper"]["not_a_field"] = 1
    elif what == "bad dtype":
        header["tensors"][0]["dtype"] = "float99"
    elif what == "header is a list":
        return [header]
    elif what == "extra is a list":
        header["extra"] = [1, 2]
    elif what == "repeated name":
        header["tensors"][1]["name"] = header["tensors"][0]["name"]
    elif what in DTYPE_EDITS:
        header["tensors"][0]["dtype"] = DTYPE_EDITS[what]
    elif what == "fractional extent":
        header["tensors"][0]["shape"][0] += 0.7
    elif what == "negative extents":
        # the product, and so the size, is unchanged
        entry = next(e for e in header["tensors"] if len(e["shape"]) == 2)
        entry["shape"] = [-n for n in entry["shape"]]
    elif what == "bool extent":
        entry = next(e for e in header["tensors"] if e["shape"] == [1])
        entry["shape"] = [True]
    elif what == "misshapen parameter":
        _entry(header, "decoder.fc1.weight")["shape"][1] -= 2
    elif what == "misshapen moment":
        _entry(header, "optim.m.decoder.fc1.bias")["shape"] = [63]
    elif what == "pose_dim of other tensors":
        header["pose_dim"] = 15
    elif what == "fractional pose_dim":
        header["pose_dim"] += 0.9
    elif what == "bool pose_dim":
        header["pose_dim"] = True
    elif what == "string flag":
        header["hyper"]["adversarial"] = "false"
    elif what == "integer flag":
        header["hyper"]["no_long_term"] = 1
    elif what == "no eta":
        del header["hyper"]["eta"]
    elif what == "numeric fingerprint":
        header["stats_fingerprint"] = 123
    elif what == "numeric name":
        header["tensors"][0]["name"] = 7
    elif what == "undeclared key":
        header["saved_at"] = "today"
    elif what == "undeclared entry key":
        header["tensors"][0]["order"] = "C"
    return header


DTYPE_EDITS = {"object dtype": "|O", "void dtype": "|V8",
               "datetime dtype": "<M8[s]"}
# each edit with the part of its refusal that follows the file name
HEADER_EDITS = {
    "nbytes vs shape": "tensor 'decoder.fc1.bias' has shape [65], but the "
                       "model needs [64]",
    "misshapen parameter": "tensor 'decoder.fc1.weight' has shape [64, 126], "
                           "but the model needs [64, 128]",
    "misshapen moment": "tensor 'optim.m.decoder.fc1.bias' has shape [63], "
                        "but the model needs [64]",
    "pose_dim of other tensors": "tensor 'decoder.fc2.bias' has shape [12], "
                                 "but the model needs [15]",
    "no stats_fingerprint": "stats_fingerprint is missing",
    "no tensors": "tensors is missing",
    "unknown hyper key": "hyper.not_a_field is not a declared key",
    "bad dtype": "tensors[0].dtype must be 'float32' or 'float64', got "
                 "'float99'",
    "header is a list": "the document must be an object, got [{",
    "extra is a list": "extra must be an object, got [1, 2]",
    "repeated name": "tensor 'decoder.fc1.bias' is named twice",
    **dict.fromkeys(DTYPE_EDITS, "tensors[0].dtype must be 'float32' or "
                                 "'float64', got "),
    "fractional extent": "tensors[0].shape[0] must be an integer >= 0, got ",
    "negative extents": "tensors[1].shape[0] must be >= 0, got -",
    "bool extent": "tensors[12].shape[0] must be >= 0, got True",
    "fractional pose_dim": "pose_dim must be an integer >= 1, got ",
    "bool pose_dim": "pose_dim must be >= 1, got True",
    "string flag": "hyper.adversarial must be true or false, got 'false'",
    "integer flag": "hyper.no_long_term must be true or false, got 1",
    "no eta": "hyper.eta is missing",
    "numeric fingerprint": "stats_fingerprint must be a string, got 123",
    "numeric name": "tensors[0].name must be a string, got 7",
    "undeclared key": "saved_at is not a declared key",
    "undeclared entry key": "tensors[0].order is not a declared key",
}


def _corrupted(good: bytes, what: str) -> bytes:
    header_len = struct.unpack("<I", good[8:12])[0]
    body = good[12 + header_len:]
    if what in HEADER_EDITS:
        header = _edited_header(json.loads(good[12:12 + header_len]), what)
        raw = json.dumps(header).encode()
        return good[:8] + struct.pack("<I", len(raw)) + raw + body
    return {
        "short file": good[:6],
        "no header length": good[:11],
        "header cut": good[:12 + header_len // 2],
        "version 1": good[:4] + struct.pack("<I", 1) + good[8:],
        "header not JSON": good[:12] + b"x" + good[13:],
        "first tensor cut": good[:12 + header_len + 5],
        "last tensor cut": good[:-1],
        "trailing bytes": good + b"junk",
    }[what]


# the refusals of the byte edits that are pinned
BYTE_EDITS = {"version 1": "unsupported checkpoint version 1",
              "header not JSON": "not JSON: Expecting value: line 1 column 1"}


@pytest.mark.parametrize("what", [
    "short file", "no header length", "header cut", *BYTE_EDITS,
    "first tensor cut", "last tensor cut", "trailing bytes", *HEADER_EDITS])
def test_checkpoint_truncated_or_corrupt_rejected(tmp_path, params, what):
    # a training checkpoint: the parameters and one tensor's Adam moments
    tensors = M.tensors_from_params(params)
    for m in "mv":
        tensors[f"optim.{m}.decoder.fc1.bias"] = np.zeros(64)
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, tiny_hp(), POSE_DIM, "f" * 64, tensors)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_corrupted(path.read_bytes(), what))
    refusal = {**BYTE_EDITS, **HEADER_EDITS}.get(what, "")
    with pytest.raises(ValueError, match=re.escape(f"bad.ckpt: {refusal}")):
        M.load_checkpoint(bad)


@pytest.mark.parametrize("what", DTYPE_EDITS)
def test_checkpoint_dtype_refusal_names_the_file_and_tensor(tmp_path, params,
                                                            what):
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, tiny_hp(), POSE_DIM, "f" * 64,
                      M.tensors_from_params(params))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_corrupted(path.read_bytes(), what))
    with pytest.raises(ValueError, match=re.escape(
            f"bad.ckpt: tensors[0].dtype must be 'float32' or 'float64', "
            f"got {DTYPE_EDITS[what]!r}")):
        M.load_checkpoint(bad)


def test_checkpoint_that_shrinks_while_read_is_refused(tmp_path, params,
                                                       monkeypatch):
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, tiny_hp(), POSE_DIM, "f" * 64,
                      M.tensors_from_params(params))
    size = path.stat().st_size
    with open(path, "r+b") as f:
        f.truncate(size - 5)
    # the size taken before the file shrank
    monkeypatch.setattr(M.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
    with pytest.raises(ValueError, match="model.ckpt: truncated checkpoint: "
                                         "tensor .* ends past the end"):
        M.load_checkpoint(path)


def test_checkpoint_load_reads_each_tensor_once(tmp_path):
    # numpy reports its array buffers to tracemalloc: a load peaks at its
    # own arrays plus the header, with no whole-file buffer and no copy
    tensors = {"a": np.ones((512, 1024)), "b": np.ones(1 << 19, np.float32),
               "c": np.array(0.5)}
    path = tmp_path / "big.ckpt"
    M.save_checkpoint(path, tiny_hp(), POSE_DIM, "0" * 64, tensors)
    tracemalloc.start()
    try:
        ckpt = M.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * path.stat().st_size
    for name, arr in tensors.items():
        np.testing.assert_array_equal(ckpt.tensors[name], arr)


def test_checkpoint_load_of_named_tensors_skips_the_others(tmp_path, params):
    # a training checkpoint loaded for its parameters: the moments are
    # skipped, not read, so the load peaks near the parameters' size
    tensors = M.tensors_from_params(params)
    big = {f"optim.{m}.big": np.ones((1024, 1024)) for m in "mv"}
    path = tmp_path / "train.ckpt"
    M.save_checkpoint(path, tiny_hp(), POSE_DIM, "0" * 64, {**tensors, **big},
                      {"iteration": 3, "master_seed": 0})
    size = sum(arr.nbytes for arr in tensors.values())
    tracemalloc.start()
    try:
        ckpt = M.load_checkpoint(path, names=M.PARAM_NAMES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * size  # the file is 56 times that size
    assert sorted(ckpt.tensors) == sorted(M.PARAM_NAMES)
    for name in M.PARAM_NAMES:
        np.testing.assert_array_equal(ckpt.tensors[name], tensors[name])
    # a skipped tensor still passes every layout check
    good = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    for cut, refusal in ((good + b"junk", "4 unexpected bytes"),
                         (good[:-1], "truncated checkpoint: tensor "
                                     "'short.fc.weight' spans")):
        bad.write_bytes(cut)
        with pytest.raises(ValueError, match=f"bad.ckpt: {refusal}"):
            M.load_checkpoint(bad, names=["long.fc.bias"])


def test_checkpoint_load_refuses_what_names_asks_for_and_the_file_lacks(
        tmp_path, params):
    tensors = M.tensors_from_params(params)
    del tensors["decoder.fc2.bias"]
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, tiny_hp(), POSE_DIM, "0" * 64, tensors)
    with pytest.raises(ValueError, match=re.escape(
            "model.ckpt: tensor 'decoder.fc2.bias' is not in the file")):
        M.load_checkpoint(path, names=["long.fc.bias", "decoder.fc2.bias"])
    # a skipped moment is checked against the model too
    tensors["decoder.fc2.bias"] = params["decoder.fc2.bias"].data
    tensors["optim.m.decoder.fc1.bias"] = np.zeros(64)
    M.save_checkpoint(path, tiny_hp(), POSE_DIM, "0" * 64, tensors)
    path.write_bytes(_corrupted(path.read_bytes(), "misshapen moment"))
    with pytest.raises(ValueError, match=re.escape(
            "model.ckpt: tensor 'optim.m.decoder.fc1.bias' has shape [63], "
            "but the model needs [64]")):
        M.load_checkpoint(path, names=M.PARAM_NAMES)


def test_checkpoint_params_share_the_loaded_arrays(tmp_path, params):
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, tiny_hp(), POSE_DIM, "0" * 64,
                      M.tensors_from_params(params))
    ckpt = M.load_checkpoint(path)
    restored = ckpt.to_params()
    for name in M.PARAM_NAMES:
        assert np.shares_memory(restored[name].data, ckpt.tensors[name])


@pytest.mark.parametrize("name,value", MALFORMED_HYPER)
def test_checkpoint_with_malformed_hyper_rejected(tmp_path, params, name, value):
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, tiny_hp(), POSE_DIM, "f" * 64,
                      M.tensors_from_params(params))
    good = path.read_bytes()
    header_len = struct.unpack("<I", good[8:12])[0]
    header = json.loads(good[12:12 + header_len])
    header["hyper"][name] = value
    raw = json.dumps(header).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(good[:8] + struct.pack("<I", len(raw)) + raw
                    + good[12 + header_len:])
    with pytest.raises(ValueError, match=f"bad.ckpt: hyper.{name} must be "):
        M.load_checkpoint(bad)


def test_checkpoint_fingerprint_mismatch_rejected(tmp_path, params):
    hp = tiny_hp()
    path = tmp_path / "model.ckpt"
    M.save_checkpoint(path, hp, POSE_DIM, "a" * 64, M.tensors_from_params(params))
    with pytest.raises(ValueError, match="fingerprint"):
        M.load_checkpoint(path, expected_fingerprint="b" * 64)
    # matching fingerprint loads fine
    M.load_checkpoint(path, expected_fingerprint="a" * 64)
