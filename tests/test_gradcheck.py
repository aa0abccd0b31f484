"""Verification of the gradient-check suite itself.

The reference evaluator must agree with the taped forward bitwise-tightly
across configurations, the finite-difference comparison must pass for correct
gradients at desk scale, and it must fail loudly when a gradient is broken.
"""

import numpy as np
import pytest

from convmotion import autodiff as ad
from convmotion import gradcheck as G
from convmotion import model as M
from convmotion import training as T
from convmotion.autodiff import GradTape, Tensor, backward
from serial_grad_check import grad_check


def micro_hp(**overrides):
    base = dict(seed_frames=6, target_frames=2, window=4, channels=(2, 3, 3),
                fc_out=8, dropout=0.5, batch_size=1)
    base.update(overrides)
    return M.HyperParams(**base)


POSE = 6


@pytest.mark.parametrize("dropout,eta,adversarial,no_long", [
    (0.0, 1.0, False, False),
    (0.5, 1.0, False, False),
    (0.5, 0.5, True, False),
    (0.0, 0.0, True, False),
    (0.5, 1.0, True, True),
])
def test_reference_agrees_with_taped_forward(dropout, eta, adversarial, no_long):
    hp = micro_hp(dropout=dropout, eta=eta, no_long_term=no_long)
    rng = np.random.Generator(np.random.PCG64(3))
    params = G.generic_params(hp, POSE, rng)
    seed = rng.normal(size=(hp.seed_frames, POSE))
    target = rng.normal(size=(hp.target_frames, POSE))
    gen_named = params.generator_named(include_long=not no_long)

    loss, _ = G.taped_objective(params, gen_named, seed, target, hp,
                                adversarial, mask_seed=11)
    arrays = {n: t.data for n, t in params.all_named().items()}
    masks = G.draw_mask_factors(hp, POSE,
                                np.random.Generator(np.random.PCG64(11)))
    ref = G.reference_objective(arrays, seed, target, masks, hp, adversarial)[0]
    assert abs(ref - loss.item()) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("adversarial", [False, True])
def test_micro_model_gradients_pass(adversarial):
    report = G.full_model_grad_check(hp=micro_hp(), pose_dim=POSE, seed=0,
                                     adversarial=adversarial)
    assert report.passed, report.summary()
    assert report.wall_s > 0.0
    # covers every generator parameter tensor
    names = {e.name for e in report.entries}
    assert "decoder.fc2.weight" in names
    assert "long.conv1.kernel" in names


def test_adversarial_odd_target_length_gradients_pass():
    # t = 6, T = 3: with the 2x2 kernel and stride, layer 1's top padding is
    # (t + T) mod 2 = 1 row, so one discriminator row reads [f(t-1), f(t)],
    # the last seed frame and the first target frame. An even T has no such
    # row, so only an odd T checks that the shared seed-prefix rows stop at
    # the seed's last frame.
    report = G.full_model_grad_check(hp=micro_hp(target_frames=3),
                                     pose_dim=POSE, seed=0, adversarial=True)
    assert report.passed, report.summary()


def test_tiny_adversarial_kink_seed_passes():
    # at this seed every retry step down to 2e-6 straddles a leaky-ReLU kink
    report = G.full_model_grad_check(seed=13, adversarial=True)
    assert report.passed, report.summary()


def test_blend_path_gradients_pass():
    report = G.full_model_grad_check(hp=micro_hp(eta=0.5), pose_dim=POSE,
                                     seed=1, adversarial=False)
    assert report.passed, report.summary()


def test_no_long_term_gradients_pass():
    report = G.full_model_grad_check(hp=micro_hp(no_long_term=True),
                                     pose_dim=POSE, seed=2, adversarial=False)
    assert report.passed, report.summary()
    assert not any(e.name.startswith("long.") for e in report.entries)


def test_broken_gradient_is_caught(monkeypatch):
    # corrupt the leaky ReLU backward rule by one-tenth of a percent
    real = ad.leaky_relu

    def crooked(x, slope=0.2):
        xd = x.data
        out = ad.Tensor(np.where(xd >= 0, xd, slope * xd),
                        requires_grad=x.requires_grad)
        if out.requires_grad:
            ad._record((x,), out,
                       lambda g: (np.where(xd >= 0, g, slope * g) * 1.001,))
        return out

    monkeypatch.setattr(ad, "leaky_relu", crooked)
    report = G.full_model_grad_check(hp=micro_hp(dropout=0.0), pose_dim=POSE,
                                     seed=0, adversarial=False)
    assert not report.passed


def test_broken_fused_conv_activation_gradient_is_caught(monkeypatch):
    # corrupt the backward of the leaky ReLU that conv2d applies to its own
    # output by one-tenth of a percent; conv outputs are the only 4-D
    # gradients the activation rule sees, so the decoder's 2-D leaky ReLU
    # keeps the exact rule
    real = ad._leaky_grad

    def crooked(g, y, slope):
        masked = real(g, y, slope)
        return masked * 1.001 if g.ndim == 4 else masked

    monkeypatch.setattr(ad, "_leaky_grad", crooked)
    report = G.full_model_grad_check(hp=micro_hp(dropout=0.0), pose_dim=POSE,
                                     seed=0, adversarial=False)
    assert not report.passed
    failed = {e.name for e in report.entries if not e.ok(report.tol)}
    assert {"long.conv1.kernel", "short.conv1.kernel"} <= failed


def _micro_problem(hp, seed=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    params = G.generic_params(hp, POSE, rng)
    arrays = {n: t.data for n, t in params.all_named().items()}
    frames = rng.normal(size=(hp.seed_frames, POSE))
    target = rng.normal(size=(hp.target_frames, POSE))
    return arrays, frames, target, rng


def test_reference_chunk_consistency():
    # identical losses whether variants are evaluated singly or stacked
    hp = micro_hp(dropout=0.0)
    arrays, seed, target, _ = _micro_problem(hp)
    name = "decoder.fc1.weight"
    base = arrays[name]
    stack = np.repeat(base[None], 4, axis=0)
    stack[1] += 1e-4
    stack[2] -= 1e-4
    stack[3] += 5e-3
    batched = G.reference_objective(arrays, seed, target, None, hp, False,
                                    override={name: stack})
    singles = [
        G.reference_objective(arrays, seed, target, None, hp, False,
                              override={name: stack[i][None]})[0]
        for i in range(4)
    ]
    # GEMM summation order may differ between the batched and single paths
    np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name,eta", [
    ("long.conv1.kernel", 1.0),   # stacked kernel, shared input
    ("short.conv2.kernel", 1.0),  # kernel and (from step 2) input stacked
    ("short.conv1.bias", 1.0),    # stacked bias only
    ("decoder.fc1.weight", 1.0),  # stacked affine weight
    ("short.conv2.kernel", 0.5),  # blended windows
])
def test_reference_stacked_variants_match_single_evaluations(name, eta):
    # each layout branch of the stacked evaluator, with dropout masks and the
    # adversary on, against one evaluation per variant
    hp = micro_hp(eta=eta)
    arrays, frames, target, rng = _micro_problem(hp)
    masks = G.draw_mask_factors(hp, POSE,
                                np.random.Generator(np.random.PCG64(7)))
    base = arrays[name]
    stack = base[None] + rng.normal(scale=1e-2, size=(5, *base.shape))
    batched = G.reference_objective(arrays, frames, target, masks, hp, True,
                                    override={name: stack})
    singles = [
        G.reference_objective(arrays, frames, target, masks, hp, True,
                              override={name: stack[i:i + 1]})[0]
        for i in range(5)
    ]
    assert np.unique(batched).size == 5  # every variant moved the loss
    np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=0)


def test_reference_refuses_malformed_override():
    hp = micro_hp(dropout=0.0)
    arrays, frames, target, _ = _micro_problem(hp)
    w, b = arrays["decoder.fc1.weight"], arrays["decoder.fc1.bias"]
    cases = [
        ({"decoder.fc1.weights": w[None]},
         "unknown parameter 'decoder.fc1.weights'"),
        ({"decoder.fc1.weight": w.T[None]}, "'decoder.fc1.weight' stacks"),
        ({"decoder.fc1.weight": w}, "'decoder.fc1.weight' stacks"),
        ({"decoder.fc1.weight": np.stack([w, w]), "decoder.fc1.bias": b[None]},
         r"stack sizes disagree: \[1, 2\]"),
    ]
    for override, message in cases:
        with pytest.raises(ValueError, match=message):
            G.reference_objective(arrays, frames, target, None, hp, False,
                                  override=override)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1e-4])
def test_gradient_check_refuses_bad_tolerance(tol):
    # inf would pass every check and nan fail every one without a reason
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        G.full_model_grad_check(hp=micro_hp(), pose_dim=POSE, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        G.run_suite(seeds=(0,), tol=tol, hp=micro_hp(), pose_dim=POSE)


# ---------------------------------------------------------------------------
# the generic element-by-element checker on encoder and discriminator losses
# ---------------------------------------------------------------------------


def test_encoder_passes_serial_grad_check():
    hp = M.HyperParams(seed_frames=8, target_frames=2, window=4,
                       channels=(2, 3, 3), fc_out=8, dropout=0.5)
    cfg = hp.long_cem(10)
    rng = np.random.default_rng(0)
    p = M.init_params(hp, 10, rng)
    encoder = {n: t for n, t in p.items() if n.startswith("long.")}
    for name, t in encoder.items():
        if name.endswith(".bias"):
            t.assign_(rng.normal(scale=0.1, size=t.shape))
    frames = Tensor(rng.normal(size=(1, 8, 10)))

    def f():
        mask_rng = np.random.Generator(np.random.PCG64(21))
        code = M.cem_forward(frames, p, cfg, mode="train", rng=mask_rng)
        return ad.tsum(ad.square(code))

    report = grad_check(f, encoder, h=1e-5, tol=1e-4)
    assert report.passed, report.summary()


def test_discriminator_bce_passes_serial_grad_check():
    hp = micro_hp(dropout=0.0)
    rng = np.random.default_rng(1)
    params = G.generic_params(hp, POSE, rng)
    real = Tensor(rng.normal(size=(1, hp.seed_frames + hp.target_frames, POSE)))
    fake = Tensor(rng.normal(size=(1, hp.seed_frames + hp.target_frames, POSE)))

    def f():
        return T.loss_discriminator(M.discriminate(real, params, hp),
                                    M.discriminate(fake, params, hp))

    report = grad_check(f, params.discriminator_named(), h=1e-5, tol=1e-4)
    assert report.passed, report.summary()
