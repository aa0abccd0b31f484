"""Losses, Adam, samplers, and training-loop behavior."""

import json
import math
import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from convmotion import autodiff as ad
from convmotion import gradcheck as G
from convmotion import mocap
from convmotion import model as M
from convmotion import training as T
from convmotion.autodiff import GradTape, Tensor, backward
from convmotion.gradcheck import TINY_POSE_DIM, tiny_hyperparams


def micro_hp(**overrides):
    base = dict(seed_frames=6, target_frames=3, window=4, channels=(2, 3, 3),
                fc_out=8, dropout=0.0, batch_size=2, lambda_adv=0.0,
                adversarial=False)
    base.update(overrides)
    return M.HyperParams(**base)


def make_dataset(actions=("a", "b"), trials=2, frames=40, joints=2, seed=0):
    rng = np.random.default_rng(seed)
    raws = []
    for action in actions:
        for trial in range(trials):
            data = mocap.synthetic_trial_frames(rng, joints, frames, 0.5, 1.2)
            raws.append(mocap.RawTrial(data, action=action, trial_id=trial))
    stats = mocap.fit_stats(raws)
    seqs = [mocap.normalize(t, stats) for t in raws]
    return seqs, stats


# ---------------------------------------------------------------------------
# MSE loss
# ---------------------------------------------------------------------------


def mse_oracle(pred, target):
    B, Tn, L = pred.shape
    acc = 0.0
    for b in range(B):
        for t in range(Tn):
            for l in range(L):
                acc += (pred[b, t, l] - target[b, t, l]) ** 2
    return acc / (B * Tn)


def test_mse_zero_when_equal():
    x = np.random.default_rng(0).normal(size=(2, 4, 3))
    assert T.loss_mse(Tensor(x), Tensor(x.copy())).item() == 0.0


def test_mse_single_element_definition():
    pred = Tensor(np.array([[[2.0]]]))
    target = Tensor(np.array([[[0.0]]]))
    assert T.loss_mse(pred, target).item() == 4.0


def test_mse_matches_triple_loop_oracle():
    rng = np.random.default_rng(1)
    pred = rng.normal(size=(3, 5, 4))
    target = rng.normal(size=(3, 5, 4))
    got = T.loss_mse(Tensor(pred), Tensor(target)).item()
    assert abs(got - mse_oracle(pred, target)) < 1e-12


def test_mse_shape_mismatch_rejected():
    with pytest.raises(ad.ShapeError):
        T.loss_mse(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 5))))


# ---------------------------------------------------------------------------
# discriminator loss
# ---------------------------------------------------------------------------


def test_bce_at_half_is_two_log_two():
    p = Tensor(np.full(4, 0.5))
    got = T.loss_discriminator(p, p).item()
    assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_bce_perfect_discriminator_approaches_zero():
    real = Tensor(np.full(4, 1.0 - 1e-9))
    fake = Tensor(np.full(4, 1e-9))
    assert T.loss_discriminator(real, fake).item() < 1e-6


def test_bce_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    rp = rng.uniform(0.05, 0.95, size=6)
    fp = rng.uniform(0.05, 0.95, size=6)
    expect = np.mean([-math.log(r) - math.log(1.0 - f) for r, f in zip(rp, fp)])
    got = T.loss_discriminator(Tensor(rp), Tensor(fp)).item()
    assert abs(got - expect) < 1e-12


def test_bce_clamps_extreme_probabilities():
    real = Tensor(np.array([1.0, 0.0]))
    fake = Tensor(np.array([1.0, 0.0]))
    assert np.isfinite(T.loss_discriminator(real, fake).item())


# ---------------------------------------------------------------------------
# generator loss
# ---------------------------------------------------------------------------


def test_generator_loss_degenerates_to_mse():
    hp = micro_hp(lambda_l2=0.0, lambda_adv=0.0)
    rng = np.random.default_rng(3)
    pred = Tensor(rng.normal(size=(2, 3, 6)))
    target = Tensor(rng.normal(size=(2, 3, 6)))
    w = {"w": Tensor(rng.normal(size=(4, 4)), requires_grad=True)}
    loss, terms = T.loss_generator(pred, target, w, None, hp)
    assert loss.item() == T.loss_mse(pred, target).item()
    assert terms.adv == 0.0


def test_generator_loss_closed_form_with_adversary():
    hp = micro_hp(lambda_adv=0.01, adversarial=True)
    pred = Tensor(np.zeros((1, 3, 6)))
    target = Tensor(np.zeros((1, 3, 6)))
    w = {"w": Tensor(np.zeros((2, 2)), requires_grad=True)}
    fake_prob = Tensor(np.array([0.5]))
    loss, terms = T.loss_generator(pred, target, w, fake_prob, hp)
    assert loss.item() == pytest.approx(-0.01 * math.log(0.5), abs=1e-15)
    assert terms.mse == 0.0 and terms.l2 == 0.0


def test_generator_loss_term_accounting():
    hp = micro_hp(lambda_l2=0.001, lambda_adv=0.01, adversarial=True)
    rng = np.random.default_rng(4)
    pred = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    target = Tensor(rng.normal(size=(2, 3, 6)))
    w = {"w": Tensor(rng.normal(size=(5, 5)), requires_grad=True)}
    fake_prob = Tensor(rng.uniform(0.2, 0.8, size=2))
    loss, terms = T.loss_generator(pred, target, w, fake_prob, hp)
    reconstructed = terms.mse + hp.lambda_l2 * terms.l2 + hp.lambda_adv * terms.adv
    assert abs(terms.total - reconstructed) < 1e-10
    assert terms.total == loss.item()


def test_weight_penalty_gradient_adds_2_lambda_w():
    rng = np.random.default_rng(5)
    pred_data = rng.normal(size=(1, 3, 6))
    target = Tensor(rng.normal(size=(1, 3, 6)))
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    lam = 0.001

    def grad_with(lambda_l2):
        hp = micro_hp(lambda_l2=lambda_l2)
        with GradTape() as tape:
            pred = Tensor(pred_data, requires_grad=False)
            loss, _ = T.loss_generator(pred, target, {"w": w}, None, hp)
        return backward(loss, tape).get(w, np.zeros_like(w.data))

    diff = grad_with(lam) - grad_with(0.0)
    np.testing.assert_allclose(diff, 2.0 * lam * w.data, atol=1e-12)


def test_generator_objective_tape_one_penalty_node_no_blend_at_eta_one():
    def tape_nodes(eta):
        hp = tiny_hyperparams(eta=eta)
        params = M.init_params(hp, TINY_POSE_DIM, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        seeds = Tensor(rng.normal(size=(1, hp.seed_frames, TINY_POSE_DIM)))
        targets = Tensor(rng.normal(size=(1, hp.target_frames, TINY_POSE_DIM)))
        tape = T.objectives(params, params.generator_named(), seeds, targets,
                            hp, np.random.default_rng(2))[2]
        return [(node.vjp.__qualname__.split(".")[0], len(node.inputs))
                for node in tape._nodes]

    closed, blended = tape_nodes(1.0), tape_nodes(0.5)
    # one over the prediction error, one over the 20 generator tensors
    assert sorted(n for kind, n in closed if kind == "sumsq") == [1, 20]
    # eta < 1 blends each prediction with the teacher: one mul, one add
    assert len(blended) - len(closed) == 2 * tiny_hyperparams().target_frames


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    params = {"w": w}
    state = T.AdamState.for_params(params)
    T.adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    np.testing.assert_array_equal(w.data, [1.0, -2.0])
    assert state.step == 1


def test_adam_constant_gradient_update_approaches_lr():
    w = Tensor(np.array([0.0]), requires_grad=True)
    params = {"w": w}
    state = T.AdamState.for_params(params)
    g = np.array([0.37])
    prev = w.data.copy()
    for _ in range(500):
        prev = w.data.copy()
        T.adam_step(params, {"w": g}, state, lr=0.01)
    assert abs(abs(w.data[0] - prev[0]) - 0.01) < 1e-4


def test_adam_three_hand_computed_steps():
    # textbook update with lr=0.1, b1=0.9, b2=0.999, eps=1e-8, grad = w
    w = Tensor(np.array([1.0]), requires_grad=True)
    params = {"w": w}
    state = T.AdamState.for_params(params)

    # independent scalar recomputation
    theta, m, v = 1.0, 0.0, 0.0
    expected = []
    for t in range(1, 4):
        g = theta
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1.0 - 0.9 ** t)
        vhat = v / (1.0 - 0.999 ** t)
        theta = theta - 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
        expected.append(theta)

    got = []
    for _ in range(3):
        T.adam_step(params, {"w": w.data.copy()}, state, lr=0.1)
        got.append(float(w.data[0]))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_adam_in_place_chunks_equal_the_whole_tensor_formula():
    # a tensor of 2.5 chunks, one that is F-ordered and one of one element,
    # against the update written as whole-array expressions
    rng = np.random.default_rng(3)
    shapes = {"big": (5, T.ADAM_CHUNK // 2), "f": (7, 3), "one": (1,)}
    start = {n: rng.normal(size=s) for n, s in shapes.items()}
    start["f"] = np.asfortranarray(start["f"])
    params = {n: Tensor(a.copy(order="K"), requires_grad=True)
              for n, a in start.items()}
    assert not params["f"].data.flags.c_contiguous
    state = T.AdamState.for_params(params)
    ref = {n: [a.copy(), np.zeros_like(a), np.zeros_like(a)]
           for n, a in start.items()}
    big = params["big"].data
    for t in range(1, 4):
        grads = {n: rng.normal(size=s) for n, s in shapes.items()}
        T.adam_step(params, grads, state, lr=0.01)
        c1, c2 = 1.0 - T.ADAM_BETA1 ** t, 1.0 - T.ADAM_BETA2 ** t
        for n, (p, m, v) in ref.items():
            g = grads[n]
            m *= T.ADAM_BETA1
            m += (1.0 - T.ADAM_BETA1) * g
            v *= T.ADAM_BETA2
            v += (1.0 - T.ADAM_BETA2) * np.square(g)
            ref[n][0] = p - 0.01 * ((m / c1) / (np.sqrt(v / c2) + T.ADAM_EPS))
    for n, (p, m, v) in ref.items():
        np.testing.assert_array_equal(params[n].data, p)
        np.testing.assert_array_equal(state.m[n], m)
        np.testing.assert_array_equal(state.v[n], v)
    assert params["big"].data is big  # updated in place


def test_adam_nan_gradient_aborts_with_name():
    w = Tensor(np.zeros(3), requires_grad=True)
    params = {"decoder.fc1.weight": w}
    state = T.AdamState.for_params(params)
    with pytest.raises(FloatingPointError, match="decoder.fc1.weight"):
        T.adam_step(params, {"decoder.fc1.weight": np.array([1.0, np.nan, 0.0])},
                    state, lr=0.1)


def test_adam_nan_gradient_in_a_later_tensor_changes_nothing():
    # the step is refused whole: no tensor before the bad one is updated
    rng = np.random.default_rng(0)
    params = {n: Tensor(rng.normal(size=4), requires_grad=True)
              for n in ("a", "b", "c")}
    state = T.AdamState.for_params(params)
    grads = {n: rng.normal(size=4) for n in params}
    T.adam_step(params, grads, state, lr=0.1)
    before = {n: (p.data.copy(), state.m[n].copy(), state.v[n].copy())
              for n, p in params.items()}
    grads["c"] = np.array([1.0, 2.0, np.nan, 3.0])
    with pytest.raises(FloatingPointError, match="'c' at Adam step 2"):
        T.adam_step(params, grads, state, lr=0.1)
    assert state.step == 1
    for n, (p, m, v) in before.items():
        np.testing.assert_array_equal(params[n].data, p)
        np.testing.assert_array_equal(state.m[n], m)
        np.testing.assert_array_equal(state.v[n], v)


def test_adam_refuses_gradient_whose_square_overflows():
    # 1e308 squared is infinite: v would become inf and freeze the entry
    params = {"w": Tensor(np.array([0.5, -0.5]), requires_grad=True)}
    state = T.AdamState.for_params(params)
    T.adam_step(params, {"w": np.array([0.1, 0.2])}, state, lr=0.1)
    before = (params["w"].data.copy(), state.m["w"].copy(), state.v["w"].copy())
    with pytest.raises(FloatingPointError, match="overflowing gradient for "
                                                 "parameter 'w' at Adam step 2"):
        T.adam_step(params, {"w": np.array([1e308, 1e308])}, state, lr=0.1)
    assert state.step == 1
    for now, then in zip((params["w"].data, state.m["w"], state.v["w"]), before):
        np.testing.assert_array_equal(now, then)


def test_adam_accepts_gradient_whose_sum_of_squares_overflows():
    # each square (1.44e308) is finite, their sum is not
    w = Tensor(np.zeros(2), requires_grad=True)
    state = T.AdamState.for_params({"w": w})
    g = np.array([1.2e154, 1.2e154])
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.dot(g, g))
    T.adam_step({"w": w}, {"w": g}, state, lr=0.1)
    assert state.step == 1
    np.testing.assert_array_equal(state.m["w"], (1.0 - T.ADAM_BETA1) * g)
    assert np.all(np.isfinite(state.v["w"]))
    np.testing.assert_array_equal(state.v["w"], (1.0 - T.ADAM_BETA2) * np.square(g))


def test_adam_missing_gradient_skips_param():
    w = Tensor(np.array([5.0]), requires_grad=True)
    params = {"w": w}
    state = T.AdamState.for_params(params)
    T.adam_step(params, {}, state, lr=0.1)
    np.testing.assert_array_equal(w.data, [5.0])
    assert np.all(state.m["w"] == 0.0)


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


def test_sampler_windows_are_contiguous_slices():
    seqs, _ = make_dataset(frames=30)
    hp = micro_hp()
    sampler = T.WindowSampler(seqs, hp.seed_frames, hp.target_frames)
    batch = sampler.sample(np.random.default_rng(0), 8)
    assert batch.seeds.shape == (8, 6, 6)
    assert batch.targets.shape == (8, 3, 6)
    joined = np.concatenate([batch.seeds, batch.targets], axis=1)
    matches = 0
    for b in range(8):
        for seq in seqs:
            for off in range(seq.num_frames - 9 + 1):
                if np.array_equal(joined[b], seq.frames[off:off + 9]):
                    matches += 1
                    break
            else:
                continue
            break
    assert matches == 8


def test_sampler_covers_all_actions():
    seqs, _ = make_dataset(actions=("a", "b", "c"), frames=30, seed=3)
    sampler = T.WindowSampler(seqs, 6, 3)
    seen = set()
    rng = np.random.default_rng(1)
    for _ in range(200):
        seen.update(sampler.sample(rng, 4).actions)
    assert seen == {"a", "b", "c"}


def test_sampler_deterministic():
    seqs, _ = make_dataset()
    sampler = T.WindowSampler(seqs, 6, 3)
    a = sampler.sample(np.random.default_rng(9), 4)
    b = sampler.sample(np.random.default_rng(9), 4)
    assert np.array_equal(a.seeds, b.seeds)
    assert a.actions == b.actions


def test_sampler_rejects_short_trials():
    seqs, _ = make_dataset(frames=5)
    with pytest.raises(ValueError, match="long enough"):
        T.WindowSampler(seqs, 6, 3)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_deterministic_reports_and_checkpoints(tmp_path):
    seqs, stats = make_dataset(frames=30)
    hp = micro_hp(lambda_adv=0.01, adversarial=True)

    def run(out):
        out.mkdir()
        sched = T.TrainSchedule(iterations=4, master_seed=11, checkpoint_every=2,
                                out_dir=out)
        return T.train(seqs, stats, hp, sched)

    r1 = run(tmp_path / "r1")
    r2 = run(tmp_path / "r2")
    assert [r.deterministic_fields() for r in r1.reports] == \
           [r.deterministic_fields() for r in r2.reports]
    for c1, c2 in zip(r1.checkpoints, r2.checkpoints):
        assert c1.read_bytes() == c2.read_bytes()


def test_generator_backward_returns_generator_gradients_only():
    hp = tiny_hyperparams(lambda_adv=0.01, adversarial=True, dropout=0.0)
    params = M.init_params(hp, TINY_POSE_DIM, np.random.default_rng(0))
    gen_named = params.generator_named()
    rng = np.random.default_rng(1)
    seeds = Tensor(rng.normal(size=(2, hp.seed_frames, TINY_POSE_DIM)))
    targets = Tensor(rng.normal(size=(2, hp.target_frames, TINY_POSE_DIM)))
    loss, terms, tape, _, _ = T.objectives(params, gen_named, seeds, targets,
                                           hp, rng)
    assert terms.adv > 0.0
    grads = backward(loss, tape)
    # every returned gradient is used by the generator step, and no disc.*
    # tensor has one: the discriminator scores through detached copies
    assert set(grads) == set(gen_named.values())


def _unshared_discriminator(monkeypatch):
    """Make every discriminator pass convolve all of its rows: the oracle
    for the shared seed-prefix rows."""
    real = M.cem_forward

    def unshared(frames, params, cfg, cache=None, **kw):
        if cfg.prefix == "disc.cem":
            cache = None
        return real(frames, params, cfg, cache=cache, **kw)

    monkeypatch.setattr(M, "cem_forward", unshared)


def _iteration_gradients(monkeypatch, hp, seqs, stats, tensors):
    """One training iteration from ``tensors``: its report, the gradient of
    every trained tensor by name, and the tensors each ``backward`` call
    returned a gradient for, with the parameters."""
    params = M.params_from_tensors(tensors)
    grads, returned = {}, []
    real_backward, real_adam_step = T.backward, T.adam_step

    def recording_backward(loss, tape):
        out = real_backward(loss, tape)
        returned.append(list(out))
        return out

    def recording_adam_step(named, by_name, state, lr):
        grads.update({n: g.copy() for n, g in by_name.items()})
        return real_adam_step(named, by_name, state, lr)

    monkeypatch.setattr(T, "backward", recording_backward)
    monkeypatch.setattr(T, "adam_step", recording_adam_step)
    result = T.train(seqs, stats, hp, T.TrainSchedule(iterations=1),
                     params=params)
    return result.reports[0], grads, returned, params


# t = 10 with a 4x4 kernel shares rows of layers 1 and 2 only
DISC_GEOMETRIES = [
    (16, kernel, stride)
    for kernel in ((2, 7), (7, 2), (4, 4), (3, 3))
    for stride in ((2, 2), (1, 2))
    if stride[0] == 2 or kernel[0] % 2
] + [(10, (4, 4), (2, 2))]


@pytest.mark.parametrize("t,kernel,stride", DISC_GEOMETRIES, ids=[
    f"t{t}-k{k[0]}x{k[1]}-s{s[0]}x{s[1]}" for t, k, s in DISC_GEOMETRIES])
def test_shared_discriminator_rows_match_unshared_passes(monkeypatch, t,
                                                         kernel, stride):
    hp = M.HyperParams(seed_frames=t, target_frames=6, window=8,
                       channels=(2, 3, 3), fc_out=8, kernel=kernel,
                       stride=stride, dropout=0.5, batch_size=3)
    seqs, stats = make_dataset(frames=30, joints=3)
    tensors = M.tensors_from_params(
        G.generic_params(hp, seqs[0].pose_dim, np.random.default_rng(t)))
    # a pass over the same seed rows with a new tail reuses some rows
    seeds = Tensor(np.zeros((1, t, seqs[0].pose_dim)))
    cache, sizes = M.RowCache(), []
    for value in (0.0, 1.0):
        tail = Tensor(np.full((1, hp.target_frames, seqs[0].pose_dim), value))
        M.discriminate(M.frame_rows(seeds) + M.frame_rows(tail),
                       M.params_from_tensors(tensors), hp, cache=cache)
        sizes.append(len(cache))
    assert sizes[1] - sizes[0] < sizes[0]

    report, grads, returned, params = _iteration_gradients(
        monkeypatch, hp, seqs, stats, tensors)
    # every gradient the generator's backward returns is a parameter's:
    # the fake pass reads the shared rows as data
    assert set(map(id, returned[0])) == set(
        map(id, params.generator_named().values()))
    # and the discriminator's backward returns exactly the disc.* tensors:
    # its fake pass reads the prediction as data
    assert set(map(id, returned[1])) == set(
        map(id, params.discriminator_named().values()))
    monkeypatch.undo()
    _unshared_discriminator(monkeypatch)
    want, want_grads, _, _ = _iteration_gradients(monkeypatch, hp, seqs,
                                                  stats, tensors)
    for got, ref in ((report.total, want.total), (report.adv, want.adv),
                     (report.d_loss, want.d_loss)):
        assert abs(got - ref) <= 1e-12 * abs(ref)
    assert sorted(grads) == sorted(want_grads)
    assert any(n.startswith("disc.") for n in want_grads)
    for name, ref in want_grads.items():
        assert np.abs(grads[name] - ref).max() <= 1e-12 * np.abs(ref).max(), \
            name


def test_discriminator_conv_macs_per_sequence(monkeypatch):
    """Paper config, one sequence, one iteration: the seed-prefix rows are
    convolved once for the three discriminator passes (83.5M MACs), not
    three times (142.5M). The real pass convolves every row of its three
    layers; each fake pass only the rows that read a predicted frame."""
    hp = M.HyperParams(batch_size=1)
    L = 54
    rng = np.random.default_rng(0)
    seqs = [mocap.MotionSequence(
        rng.normal(size=(hp.seed_frames + hp.target_frames, L)), "walk")]
    stats = mocap.NormalizationStats(mean=np.zeros(L), std=np.ones(L),
                                     kept=np.ones(L, dtype=bool))
    params = M.init_params(hp, L, rng)
    disc_kernels = {id(t.data) for n, t in params.items()
                    if n.startswith("disc.") and n.endswith(".kernel")}
    macs, rows = [], []
    real = ad.conv2d

    def counting(x, kernel, bias, *args, **kwargs):
        out = real(x, kernel, bias, *args, **kwargs)
        if id(kernel.data) in disc_kernels:
            n, cout, ho, wo = out.shape
            macs.append(n * cout * ho * wo * int(np.prod(kernel.shape[1:])))
            rows.append(ho)
        return out

    monkeypatch.setattr(ad, "conv2d", counting)
    T.train(seqs, stats, hp, T.TrainSchedule(iterations=1), params=params)
    assert len(macs) == 9
    assert sum(macs) <= 90e6
    assert rows == [38, 19, 10, 13, 7, 4, 13, 7, 4]


def _report_rows(path):
    """The deterministic columns of a report.csv (all but ms_per_iter)."""
    return [line.rsplit(",", 1)[0]
            for line in path.read_text().strip().split("\n")]


def test_report_csv_survives_crash_and_resume(tmp_path, monkeypatch):
    seqs, stats = make_dataset(frames=30)
    hp = micro_hp(lambda_adv=0.01, adversarial=True)

    def schedule(run):
        return T.TrainSchedule(iterations=5, master_seed=3, checkpoint_every=2,
                               out_dir=run, report_path=run / "report.csv")

    full = tmp_path / "full"
    T.train(seqs, stats, hp, schedule(full))

    crashed = tmp_path / "crashed"
    save = T._save_training_checkpoint

    def save_then_crash(path, *args):
        if path.name == "ckpt_0000004.ckpt":
            raise RuntimeError("injected crash")
        save(path, *args)

    monkeypatch.setattr(T, "_save_training_checkpoint", save_then_crash)
    with pytest.raises(RuntimeError, match="injected crash"):
        T.train(seqs, stats, hp, schedule(crashed))
    monkeypatch.undo()
    # every finished iteration is on disk, including two past the checkpoint
    rows = _report_rows(crashed / "report.csv")
    assert rows == _report_rows(full / "report.csv")[:5]

    T.train(seqs, stats, hp, schedule(crashed),
            resume_from=crashed / "ckpt_0000002.ckpt")
    assert _report_rows(crashed / "report.csv") == \
        _report_rows(full / "report.csv")
    assert len(_report_rows(full / "report.csv")) == 6  # header + 5


def test_gradient_isolation_between_players():
    seqs, stats = make_dataset(frames=30)
    hp = micro_hp(lambda_adv=0.01, adversarial=True, dropout=0.0)
    params = M.init_params(hp, 6, np.random.default_rng(0))
    gen_named = params.generator_named()
    disc_named = params.discriminator_named()
    sampler = T.WindowSampler(seqs, hp.seed_frames, hp.target_frames)
    batch = sampler.sample(np.random.default_rng(1), 2)
    seeds_t, targets_t = Tensor(batch.seeds), Tensor(batch.targets)

    disc_before = {n: p.data.copy() for n, p in disc_named.items()}
    gen_state = T.AdamState.for_params(gen_named)
    with GradTape() as tape:
        pred = M.predict_sequence(seeds_t, params, hp, teacher=targets_t,
                                  mode="train", rng=np.random.default_rng(2))
        fake_prob = M.discriminate(ad.concat([seeds_t, pred], axis=1),
                                   params, hp)
        loss, _ = T.loss_generator(pred, targets_t, gen_named, fake_prob, hp)
    grads = backward(loss, tape)
    T.adam_step(gen_named, T.grads_by_name(gen_named, grads), gen_state,
                hp.learning_rate)
    for n, p in disc_named.items():
        assert np.array_equal(p.data, disc_before[n]), n

    gen_after_gen_step = {n: p.data.copy() for n, p in gen_named.items()}
    disc_state = T.AdamState.for_params(disc_named)
    fake_const = Tensor(pred.data.copy())
    with GradTape() as dtape:
        real_p = M.discriminate(ad.concat([seeds_t, targets_t], axis=1),
                                params, hp)
        fake_p = M.discriminate(ad.concat([seeds_t, fake_const], axis=1),
                                params, hp)
        d_loss = T.loss_discriminator(real_p, fake_p)
    dgrads = backward(d_loss, dtape)
    T.adam_step(disc_named, T.grads_by_name(disc_named, dgrads), disc_state,
                hp.learning_rate)
    for n, p in gen_named.items():
        assert np.array_equal(p.data, gen_after_gen_step[n]), n
    # and the discriminator actually moved
    assert any(not np.array_equal(p.data, disc_before[n])
               for n, p in disc_named.items())


def test_fixed_batch_loss_non_increasing_early():
    seqs, stats = make_dataset(frames=30, seed=7)
    sampler = T.WindowSampler(seqs, 6, 3)
    passes = 0
    for seed in range(5):
        hp = micro_hp(lambda_l2=0.0)
        params = M.init_params(hp, 6, np.random.default_rng(seed))
        gen_named = params.generator_named()
        state = T.AdamState.for_params(gen_named)
        batch = sampler.sample(np.random.default_rng(seed + 100), 4)
        seeds_t, targets_t = Tensor(batch.seeds), Tensor(batch.targets)
        losses = []
        for _ in range(50):
            with GradTape() as tape:
                pred = M.predict_sequence(seeds_t, params, hp, teacher=targets_t,
                                          mode="train")
                loss, terms = T.loss_generator(pred, targets_t, gen_named, None, hp)
            losses.append(terms.total)
            grads = backward(loss, tape)
            T.adam_step(gen_named, T.grads_by_name(gen_named, grads), state,
                        hp.learning_rate)
        if all(b <= a + 1e-10 for a, b in zip(losses, losses[1:])):
            passes += 1
    assert passes >= 4, f"only {passes}/5 seeds were non-increasing"


def test_discriminator_separates_constant_vs_noise():
    # constant sequences against iid noise: linearly separable toy task
    L = 6
    hp = micro_hp(channels=(4, 8, 8), fc_out=16, batch_size=16)
    full_len = hp.seed_frames + hp.target_frames
    rng = np.random.default_rng(0)
    params = M.init_params(hp, L, rng)
    named = params.discriminator_named()
    state = T.AdamState.for_params(named)
    for _ in range(200):
        levels = rng.normal(size=(16, 1, L))
        real = np.repeat(levels, full_len, axis=1)
        fake = rng.normal(size=(16, full_len, L))
        with GradTape() as tape:
            rp = M.discriminate(Tensor(real), params, hp)
            fp = M.discriminate(Tensor(fake), params, hp)
            loss = T.loss_discriminator(rp, fp)
        grads = backward(loss, tape)
        T.adam_step(named, T.grads_by_name(named, grads), state, 1e-2)

    eval_rng = np.random.default_rng(999)
    levels = eval_rng.normal(size=(50, 1, L))
    real = np.repeat(levels, full_len, axis=1)
    fake = eval_rng.normal(size=(50, full_len, L))
    rp = M.discriminate(Tensor(real), params, hp).data
    fp = M.discriminate(Tensor(fake), params, hp).data
    accuracy = (np.sum(rp > 0.5) + np.sum(fp < 0.5)) / 100.0
    assert accuracy > 0.95, f"accuracy {accuracy}"


def test_resume_reproduces_trajectory(tmp_path):
    seqs, stats = make_dataset(frames=30)
    hp = micro_hp(lambda_adv=0.01, adversarial=True)

    full_dir = tmp_path / "full"
    full_dir.mkdir()
    full = T.train(seqs, stats, hp,
                   T.TrainSchedule(iterations=6, master_seed=5,
                                   checkpoint_every=3, out_dir=full_dir))

    resume_dir = tmp_path / "resume"
    resume_dir.mkdir()
    resumed = T.train(seqs, stats, hp,
                      T.TrainSchedule(iterations=6, master_seed=5,
                                      checkpoint_every=3, out_dir=resume_dir),
                      resume_from=full_dir / "ckpt_0000003.ckpt")
    tail = [r.deterministic_fields() for r in full.reports[3:]]
    resumed_fields = [r.deterministic_fields() for r in resumed.reports]
    assert resumed_fields == tail
    # final parameters identical to the uninterrupted run
    for n, p in full.params.all_named().items():
        np.testing.assert_array_equal(resumed.params.all_named()[n].data, p.data)


def _trained_checkpoint(tmp_path, hp):
    seqs, stats = make_dataset(frames=30)
    run = tmp_path / "run"
    run.mkdir()
    T.train(seqs, stats, hp, T.TrainSchedule(iterations=2, master_seed=5,
                                              out_dir=run))
    return seqs, stats, run / "ckpt_0000002.ckpt"


def test_train_refuses_params_with_resume_from(tmp_path, monkeypatch):
    # refused before the checkpoint is read or any file is written
    hp = micro_hp()
    seqs, stats, path = _trained_checkpoint(tmp_path, hp)
    params = M.init_params(hp, seqs[0].pose_dim, np.random.default_rng(0))
    read = []
    monkeypatch.setattr(M, "load_checkpoint", lambda *a: read.append(a))
    out = tmp_path / "resume"
    out.mkdir()
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: params must be None, as a resumed run takes the "
            f"checkpoint's parameters")):
        T.train(seqs, stats, hp,
                T.TrainSchedule(iterations=4, master_seed=5, out_dir=out,
                                report_path=out / "report.csv"),
                params=params, resume_from=path)
    assert read == [] and list(out.iterdir()) == []


def test_resume_without_optimizer_moments_rejected(tmp_path):
    hp = micro_hp()
    seqs, stats, path = _trained_checkpoint(tmp_path, hp)
    bare = tmp_path / "bare.ckpt"
    M.save_checkpoint(bare, hp, seqs[0].pose_dim, stats.fingerprint(),
                      M.tensors_from_params(M.load_checkpoint(path).to_params()))
    out = tmp_path / "resume"
    out.mkdir()
    with pytest.raises(ValueError,
                       match=r"bare\.ckpt.*'optim\.m\.long\.conv1\.kernel'"):
        T.train(seqs, stats, hp, T.TrainSchedule(iterations=4, out_dir=out),
                resume_from=bare)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("change, named", [
    (dict(learning_rate=0.5), r"learning_rate=0\.5 \(checkpoint: 0\.0002\)"),
    (dict(channels=(2, 4, 4)), r"channels=\[2, 4, 4\] \(checkpoint: \[2, 3, 3\]\)"),
], ids=["learning_rate", "channels"])
def test_resume_with_other_hyperparameters_rejected(tmp_path, change, named):
    hp = micro_hp()
    seqs, stats, path = _trained_checkpoint(tmp_path, hp)
    out = tmp_path / "resume"
    out.mkdir()
    with pytest.raises(ValueError, match=f"ckpt_0000002.ckpt.*{named}"):
        T.train(seqs, stats, micro_hp(**change),
                T.TrainSchedule(iterations=4, out_dir=out), resume_from=path)
    assert list(out.iterdir()) == []


def test_resume_with_other_master_seed_rejected(tmp_path):
    hp = micro_hp()
    seqs, stats, path = _trained_checkpoint(tmp_path, hp)
    out = tmp_path / "resume"
    out.mkdir()
    with pytest.raises(ValueError,
                       match=r"ckpt_0000002\.ckpt.*master seed 5, not 6"):
        T.train(seqs, stats, hp,
                T.TrainSchedule(iterations=4, master_seed=6, out_dir=out,
                                report_path=out / "report.csv"),
                resume_from=path)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("iteration, refusal", [
    (1.5, "extra.iteration must be an integer >= 1, got 1.5"),
    (True, "extra.iteration must be >= 1, got True"),
    (-1, "extra.iteration must be >= 1, got -1"),
    (None, "extra.iteration is missing"),
], ids=["fractional", "bool", "negative", "absent"])
def test_resume_refuses_a_malformed_iteration(tmp_path, iteration, refusal):
    hp = micro_hp()
    seqs, stats, path = _trained_checkpoint(tmp_path, hp)
    good = path.read_bytes()
    size = struct.unpack("<I", good[8:12])[0]
    header = json.loads(good[12:12 + size])
    header["extra"] = {"master_seed": 5}
    if iteration is not None:
        header["extra"]["iteration"] = iteration
    raw = json.dumps(header).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(good[:8] + struct.pack("<I", len(raw)) + raw
                    + good[12 + size:])
    out = tmp_path / "resume"
    out.mkdir()
    with pytest.raises(ValueError, match=f"^{re.escape(f'{bad}: {refusal}')}$"):
        T.train(seqs, stats, hp,
                T.TrainSchedule(iterations=4, master_seed=5, out_dir=out,
                                report_path=out / "report.csv"),
                resume_from=bad)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("iterations, refusal", [
    (True, "iterations must be >= 1, got True"),
    (2.5, "iterations must be an integer >= 1, got 2.5"),
    (0, "iterations must be >= 1, got 0"),
], ids=["bool", "fractional", "zero"])
def test_train_schedule_refuses_iterations_outside_their_range(iterations,
                                                               refusal):
    # refused where the schedule is made, before any file is read
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        T.TrainSchedule(iterations=iterations)


@pytest.mark.parametrize("hp, tapes_per_iteration", [
    (micro_hp(lambda_adv=0.01, adversarial=True), 2),
    (micro_hp(no_long_term=True), 1),
], ids=["adversarial", "no_long_term"])
def test_one_adam_step_per_iteration_after_every_tape_is_freed(
        tmp_path, monkeypatch, hp, tapes_per_iteration):
    seqs, stats = make_dataset(frames=30)
    tapes, alive_at_step = [], []
    real_backward, real_adam_step = T.backward, T.adam_step

    def tracking_backward(loss, tape):
        tapes.append(weakref.ref(tape))
        return real_backward(loss, tape)

    def tracking_adam_step(params, grads, state, lr):
        alive_at_step.append(sum(ref() is not None for ref in tapes))
        return real_adam_step(params, grads, state, lr)

    monkeypatch.setattr(T, "backward", tracking_backward)
    monkeypatch.setattr(T, "adam_step", tracking_adam_step)
    result = T.train(seqs, stats, hp,
                     T.TrainSchedule(iterations=3, master_seed=2,
                                     out_dir=tmp_path))
    assert len(tapes) == 3 * tapes_per_iteration
    assert alive_at_step == [0, 0, 0]

    # the model tensors plus one pair of moments per trained tensor
    ckpt = M.load_checkpoint(result.checkpoints[-1])
    params = ckpt.to_params()
    trained = {**params.generator_named(include_long=not hp.no_long_term),
               **params.discriminator_named()}
    assert sorted(ckpt.tensors) == sorted(
        [*M.PARAM_NAMES, *(f"optim.m.{n}" for n in trained),
         *(f"optim.v.{n}" for n in trained)])
    assert ckpt.extra == {"iteration": 3, "master_seed": 2}


@pytest.mark.parametrize("hp", [
    micro_hp(lambda_adv=0.01, adversarial=True),
    micro_hp(no_long_term=True),
], ids=["adversarial", "no_long_term"])
def test_no_gradient_outlives_its_iteration(monkeypatch, hp):
    seqs, stats = make_dataset(frames=30)
    grads, alive_at_forward = [], []
    real_objective, real_adam_step = T.objectives, T.adam_step

    def tracking_objective(*args, **kwargs):
        alive_at_forward.append(sum(ref() is not None for ref in grads))
        return real_objective(*args, **kwargs)

    def tracking_adam_step(params, by_name, state, lr):
        grads.extend(weakref.ref(g) for g in by_name.values())
        return real_adam_step(params, by_name, state, lr)

    monkeypatch.setattr(T, "objectives", tracking_objective)
    monkeypatch.setattr(T, "adam_step", tracking_adam_step)
    T.train(seqs, stats, hp, T.TrainSchedule(iterations=3, master_seed=2))
    assert grads
    assert alive_at_forward == [0, 0, 0]


def test_no_conv_node_holds_a_padded_copy_of_its_input(monkeypatch):
    # each conv reads its input rows in place: the blocks a conv node holds
    # are conv outputs, frame batches and frames, never a gathered copy,
    # and none is as wide as a padded input
    seqs, stats = make_dataset(frames=30)
    hp = micro_hp(lambda_adv=0.01, adversarial=True)
    widths = {w for cfg in (hp.long_cem(seqs[0].pose_dim),
                            hp.discriminator_cem(seqs[0].pose_dim))
              for _, w in cfg.grid_trace()}
    checked = []
    real_backward = T.backward

    def checking_backward(loss, tape):
        made_by = {id(node.output): node.vjp.__qualname__.split(".")[0]
                   for node in tape._nodes}
        convs = [node for node in tape._nodes
                 if node.vjp.__qualname__.startswith("conv2d.")]
        for node in convs:
            for block in (node.inputs[0], *node.inputs[3:]):
                assert made_by.get(id(block)) != "dropout"
                assert block.shape[-1] in widths, block.shape
        checked.append(len(convs))
        return real_backward(loss, tape)

    monkeypatch.setattr(T, "backward", checking_backward)
    T.train(seqs, stats, hp, T.TrainSchedule(iterations=1))
    # the generator step, then the discriminator step
    generator, discriminator = checked
    assert generator and discriminator


def test_forward_memory_of_a_paper_iteration_is_bounded(monkeypatch):
    # the tracemalloc peak of one training iteration at the paper
    # architecture, batch 2, up to the generator step's backward, when the
    # tape holds the whole forward (the Adam moments included). It read
    # 210.03e6 bytes with every conv reading its rows in place, and
    # 222.61e6 when each conv input was a padded copy held on the tape.
    # The whole iteration's peak (261.8e6 either way) is set later, by the
    # gradients next to the moments, so it cannot show the tape
    hp = M.HyperParams(batch_size=2)
    L = 54
    rng = np.random.default_rng(0)
    seqs = [mocap.MotionSequence(
        rng.normal(size=(hp.seed_frames + hp.target_frames, L)), "walk")]
    stats = mocap.NormalizationStats(mean=np.zeros(L), std=np.ones(L),
                                     kept=np.ones(L, dtype=bool))
    params = M.init_params(hp, L, np.random.default_rng(0))
    peaks = []
    real_backward = T.backward

    def measuring_backward(loss, tape):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return real_backward(loss, tape)

    monkeypatch.setattr(T, "backward", measuring_backward)
    tracemalloc.start()
    try:
        T.train(seqs, stats, hp, T.TrainSchedule(iterations=1), params=params)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 214e6, f"{peaks[0] / 1e6:.2f} MB"


def test_train_empty_dataset_rejected():
    seqs, stats = make_dataset()
    with pytest.raises(ValueError):
        T.train([], stats, micro_hp(), T.TrainSchedule(iterations=1))


def test_train_refuses_non_finite_generator_loss():
    seqs, stats = make_dataset(frames=30)
    hp = micro_hp(lambda_adv=0.01, adversarial=True)
    params = M.init_params(hp, seqs[0].pose_dim, np.random.default_rng(0))
    bias = params["decoder.fc2.bias"]
    bias.assign_(np.full(bias.shape, np.inf))
    # inf - inf in the decoder's products is the expected NaN
    with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError,
            match="non-finite generator loss at iteration 1:"):
        T.train(seqs, stats, hp, T.TrainSchedule(iterations=2), params=params)


def test_train_refuses_non_finite_discriminator_loss(monkeypatch):
    # only the second iteration's discriminator loss is NaN
    seqs, stats = make_dataset(frames=30)
    hp = micro_hp(lambda_adv=0.01, adversarial=True)
    real_loss, calls = T.loss_discriminator, []
    real_backward, backward_at = T.backward, []

    def nan_on_second_call(real_prob, fake_prob):
        calls.append(None)
        loss = real_loss(real_prob, fake_prob)
        return ad.mul(loss, np.nan) if len(calls) == 2 else loss

    def counting_backward(loss, tape):
        backward_at.append(len(calls))
        return real_backward(loss, tape)

    monkeypatch.setattr(T, "loss_discriminator", nan_on_second_call)
    monkeypatch.setattr(T, "backward", counting_backward)
    with pytest.raises(FloatingPointError,
                       match="non-finite discriminator loss at iteration 2$"):
        T.train(seqs, stats, hp, T.TrainSchedule(iterations=3))
    assert len(calls) == 2
    # both losses are checked before either tape is replayed: iteration 2
    # calls backward zero times
    assert backward_at == [1, 1]


def test_report_csv_round_trip(tmp_path):
    # the report file train writes reads back as its IterationReports
    seqs, stats = make_dataset()
    for hp in (micro_hp(), micro_hp(lambda_adv=0.01, adversarial=True)):
        path = tmp_path / "report.csv"
        result = T.train(seqs, stats, hp,
                         T.TrainSchedule(iterations=2, report_path=path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iteration,mse,l2,adv,d_loss,total,ms_per_iter"
        assert len(lines) == 1 + len(result.reports)
        for line, r in zip(lines[1:], result.reports):
            cells = line.split(",")
            d_loss = None if cells[4] == "" else float(cells[4])
            assert (int(cells[0]), *map(float, cells[1:4]), d_loss,
                    float(cells[5])) == r.deterministic_fields()
            assert float(cells[6]) == r.ms_per_iter
        # an empty d_loss column when no discriminator step runs
        assert (",," in lines[1]) == (not hp.adversarial)
