"""Verification of the gradient-check suite itself.

The reference evaluator must agree with the taped forward bitwise-tightly
across configurations, the finite-difference comparison must pass for correct
gradients at desk scale, and it must fail loudly when a gradient is broken.
"""

import tracemalloc

import numpy as np
import pytest

from convmotion import autodiff as ad
from convmotion import gradcheck as G
from convmotion import model as M
from convmotion import training as T
from convmotion.autodiff import GradTape, Tensor, backward
from im2col_oracle import padded_conv_p
from serial_grad_check import grad_check


def micro_hp(**overrides):
    base = dict(seed_frames=6, target_frames=2, window=4, channels=(2, 3, 3),
                fc_out=8, dropout=0.5, batch_size=1)
    base.update(overrides)
    return M.HyperParams(**base)


POSE = 6


@pytest.mark.parametrize("dropout,eta,adversarial,no_long,kernel,stride", [
    pytest.param(0.0, 1.0, False, False, (2, 7), (2, 2),
                 id="0.0-1.0-False-False"),
    pytest.param(0.5, 1.0, False, False, (2, 7), (2, 2),
                 id="0.5-1.0-False-False"),
    pytest.param(0.5, 0.5, True, False, (2, 7), (2, 2),
                 id="0.5-0.5-True-False"),
    pytest.param(0.0, 0.0, True, False, (2, 7), (2, 2),
                 id="0.0-0.0-True-False"),
    pytest.param(0.5, 1.0, True, True, (2, 7), (2, 2),
                 id="0.5-1.0-True-True"),
    # the reference's tap gather against autodiff's padded im2col at the
    # ablation kernels (7 rows is taller than the 4-row short window) and
    # at stride 1; an even kernel needs stride 2 along its even side
    (0.5, 1.0, True, False, (7, 2), (2, 2)),
    (0.5, 0.5, True, False, (4, 4), (2, 2)),
    (0.5, 1.0, True, False, (3, 3), (1, 1)),
])
def test_reference_agrees_with_taped_forward(dropout, eta, adversarial, no_long,
                                             kernel, stride):
    hp = micro_hp(dropout=dropout, eta=eta, no_long_term=no_long,
                  kernel=kernel, stride=stride)
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


ABLATION_KERNELS = [((2, 7), (2, 2)), ((7, 2), (2, 2)), ((4, 4), (2, 2)),
                    ((3, 3), (1, 1))]


@pytest.mark.parametrize("kernel,stride", ABLATION_KERNELS, ids=[
    f"k{k[0]}x{k[1]}-s{s[0]}x{s[1]}" for k, s in ABLATION_KERNELS])
def test_adversarial_odd_target_length_gradients_pass(kernel, stride):
    # t = 6, T = 3: with the paper's 2-row kernel at row stride 2, layer 1's
    # top padding is (t + T) mod 2 = 1 row, so one discriminator row reads
    # [f(t-1), f(t)], the last seed frame and the first target frame. An
    # even T has no such row, so only an odd T checks that the shared
    # seed-prefix rows stop at the seed's last frame. (7, 2) and (4, 4) are
    # the other kernels ``ablate --axis kernel`` trains; (3, 3) runs at
    # stride 1.
    hp = micro_hp(target_frames=3, kernel=kernel, stride=stride)
    report = G.full_model_grad_check(hp=hp, pose_dim=POSE, seed=0,
                                     adversarial=True)
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
    # corrupt the backward of the leaky ReLU that the decoder's hidden
    # affine map applies to its own output by one-tenth of a percent; its
    # [B, hidden] outputs are the only 2-D gradients the activation rule
    # sees, so the convs keep the exact rule
    real = ad._leaky_grad

    def crooked(g, y, slope):
        masked = real(g, y, slope)
        return masked * 1.001 if g.ndim == 2 else masked

    monkeypatch.setattr(ad, "_leaky_grad", crooked)
    report = G.full_model_grad_check(hp=micro_hp(dropout=0.0), pose_dim=POSE,
                                     seed=0, adversarial=False)
    assert not report.passed
    failed = {e.name for e in report.entries if not e.ok(report.tol)}
    assert "decoder.fc1.weight" in failed


def test_broken_fused_conv_activation_gradient_is_caught(monkeypatch):
    # corrupt the backward of the leaky ReLU that conv2d applies to its own
    # output by one-tenth of a percent; conv outputs are the only 4-D
    # gradients the activation rule sees, so the decoder's hidden layer
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
    ("long.conv1.kernel", 1.0),   # perturbed kernel, shared input
    ("short.conv2.kernel", 1.0),  # kernel and (from step 2) input stacked
    ("short.conv1.bias", 1.0),    # perturbed conv bias only
    ("decoder.fc1.weight", 1.0),  # perturbed affine weight
    ("short.conv2.kernel", 0.5),  # blended windows
    ("short.fc.weight", 1.0),     # encoder affine weight, stacked input
    ("long.fc.bias", 1.0),        # encoder affine bias, shared input
    ("decoder.fc2.weight", 1.0),  # output layer
    ("decoder.fc2.bias", 0.5),    # output bias, blended windows
    ("disc.cem.conv1.kernel", 1.0),  # deltas on a layer with shared rows
    ("disc.cem.conv3.bias", 1.0),    # shared rows up to a perturbed layer
    ("disc.cem.fc.weight", 1.0),     # every conv split, perturbed affine
])
def test_reference_stacked_variants_match_single_evaluations(name, eta):
    # each layer kind of the stacked evaluator, with dropout masks and the
    # adversary on, against one evaluation per variant; then one-entry
    # perturbations given as a dense stack and as Deltas
    hp = micro_hp(eta=eta)
    arrays, frames, target, rng = _micro_problem(hp)
    masks = G.draw_mask_factors(hp, POSE,
                                np.random.Generator(np.random.PCG64(7)))
    base = arrays[name]
    stack = base[None] + rng.normal(scale=1e-2, size=(5, *base.shape))
    batched = G.reference_objective(arrays, frames, target, masks, hp, True,
                                    override={name: stack})
    # each variant as the base value itself: no override, no deltas
    singles = [
        G.reference_objective({**arrays, name: stack[i]}, frames, target,
                              masks, hp, True)[0]
        for i in range(5)
    ]
    assert np.unique(batched).size == 5  # every variant moved the loss
    np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=0)

    index = rng.integers(base.size, size=5)
    delta = rng.normal(scale=1e-2, size=5)
    dense = np.repeat(base[None], 5, axis=0)
    dense.reshape(5, -1)[np.arange(5), index] += delta
    from_dense = G.reference_objective(arrays, frames, target, masks, hp, True,
                                       override={name: dense})
    from_deltas = G.reference_objective(
        arrays, frames, target, masks, hp, True,
        override={name: G.Deltas(np.arange(5), index, delta, 5)})
    assert np.unique(from_deltas).size == 5
    np.testing.assert_allclose(from_dense, from_deltas, rtol=1e-12, atol=0)


def test_reference_zero_delta_stack_is_the_base_evaluation():
    # the benchmark's warm-up shape: a dense stack equal to the base value
    hp = micro_hp()
    arrays, frames, target, _ = _micro_problem(hp)
    masks = G.draw_mask_factors(hp, POSE,
                                np.random.Generator(np.random.PCG64(7)))
    name = "short.conv2.kernel"
    base_loss = G.reference_objective(arrays, frames, target, masks, hp, True)
    stacked = G.reference_objective(
        arrays, frames, target, masks, hp, True,
        override={name: np.repeat(arrays[name][None], 6, axis=0)})
    np.testing.assert_array_equal(stacked, np.repeat(base_loss, 6))


def _tiny_problem():
    """The tiny config's parameters, seed, target and dropout masks."""
    hp = G.tiny_hyperparams()
    rng = np.random.Generator(np.random.PCG64(0))
    params = G.generic_params(hp, G.TINY_POSE_DIM, rng)
    arrays = {n: t.data for n, t in params.all_named().items()}
    frames = 0.5 * rng.normal(size=(hp.seed_frames, G.TINY_POSE_DIM))
    target = 0.5 * rng.normal(size=(hp.target_frames, G.TINY_POSE_DIM))
    masks = G.draw_mask_factors(hp, G.TINY_POSE_DIM, rng)
    return hp, arrays, frames, target, masks


def _fd_chunk(size):
    """The first finite-difference chunk of a parameter with ``size``
    entries: +FD_STEP and -FD_STEP at each of its first FD_CHUNK entries."""
    n = min(G.FD_CHUNK, size)
    return G.Deltas(np.arange(2 * n), np.repeat(np.arange(n), 2),
                    np.tile([G.FD_STEP, -G.FD_STEP], n), 2 * n)


def test_fd_chunk_peaks_below_a_dense_stack():
    # one full chunk of the largest tiny-config parameter: a dense
    # [2 * FD_CHUNK, 64, 128] perturbed stack alone would be 128 MiB
    hp, arrays, frames, target, masks = _tiny_problem()
    name = "decoder.fc1.weight"
    dense_bytes = 2 * G.FD_CHUNK * arrays[name].nbytes
    assert dense_bytes == 128 * 2**20
    tracemalloc.start()
    try:
        G._fd_gradient(arrays, name, np.arange(G.FD_CHUNK), frames, target,
                       masks, hp, True, G.FD_STEP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes, f"{peak / 2**20:.1f} MiB"


def test_fd_chunk_reference_peak_memory():
    # one full finite-difference chunk of short.conv2.kernel (2 * FD_CHUNK
    # variants): with the input copied into a zero-padded canvas before its
    # im2col copy, the tracemalloc peak was 83.45e6 bytes; gathering the
    # columns from the unpadded input, 56.64e6 bytes, most of it the
    # discriminator's seed rows widened to every variant; convolving those
    # rows once per call and the activation's chunked pass peak at 24.27e6
    hp, arrays, frames, target, masks = _tiny_problem()
    name = "short.conv2.kernel"
    tracemalloc.start()
    try:
        G.reference_objective(arrays, frames, target, masks, hp, True,
                              override={name: _fd_chunk(arrays[name].size)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 10**6, f"{peak:,} bytes"


@pytest.mark.parametrize("name", ["long.conv1.kernel", "short.conv2.kernel",
                                  "decoder.fc1.weight",
                                  "disc.cem.conv2.kernel"])
def test_shared_seed_rows_match_every_row_varying(monkeypatch, name):
    # one finite-difference chunk with masks and the adversary on: the
    # discriminator given its seed rows once, as the shared block, and the
    # same pass with every row varying (the seed rows widened to every
    # variant and convolved per variant) give the same losses bit for bit
    hp, arrays, frames, target, masks = _tiny_problem()
    chunk = _fd_chunk(arrays[name].size)

    def losses():
        return G.reference_objective(arrays, frames, target, masks, hp, True,
                                     override={name: chunk})

    shared = losses()
    split = G._split_rows
    monkeypatch.setattr(G, "_split_rows",
                        lambda *rows: split(*rows)[:2] + (0,))
    np.testing.assert_array_equal(shared, losses())


def test_discriminator_convolves_its_seed_rows_once_per_call(monkeypatch):
    # (output rows, width) of each discriminator conv call in one chunk: at
    # t = 16, T = 6 the rows that read only seed frames are 8 of 11, 4 of 6
    # and 2 of 3, computed once at SHARED_WIDTH; a layer with deltas varies
    # in every row, and so does every layer after it
    hp, arrays, frames, target, masks = _tiny_problem()
    kernels = [arrays[f"disc.cem.conv{i}.kernel"] for i in (1, 2, 3)]
    calls = [[], [], []]
    conv_p = G._conv_p

    def spy(x, k, *args, **kwargs):
        out = conv_p(x, k, *args, **kwargs)
        for layer, kernel in zip(calls, kernels):
            if k is kernel:
                layer.append((out.shape[1], out.shape[3]))
        return out

    monkeypatch.setattr(G, "_conv_p", spy)

    def chunk_calls(*names):
        for layer in calls:
            layer.clear()
        G.reference_objective(
            arrays, frames, target, masks, hp, True,
            override={n: _fd_chunk(arrays[n].size) for n in names})
        return calls

    P, S = 2 * G.FD_CHUNK, G.SHARED_WIDTH
    assert chunk_calls("decoder.fc1.weight") == [[(8, S), (3, P)],
                                                 [(4, S), (2, P)],
                                                 [(2, S), (1, P)]]
    assert chunk_calls("decoder.fc1.weight", "disc.cem.conv2.kernel") == [
        [(8, S), (3, P)], [(6, P)], [(3, P)]]
    # no prediction varies: conv1 is one pass at width 1
    assert chunk_calls("disc.cem.conv2.kernel") == [[(11, 1)], [(6, P)],
                                                    [(3, P)]]


@pytest.mark.parametrize("name", ["disc.cem.conv1.kernel",
                                  "disc.cem.fc.weight"])
def test_reference_deltas_beside_shared_rows_match_single_evaluations(name):
    # the predictions vary too (decoder.fc2.bias), so the discriminator's
    # seed rows are a shared block beside varying rows: a perturbed conv
    # over them, and an affine map over split conv rows, against one
    # evaluation per variant
    hp = micro_hp()
    arrays, frames, target, rng = _micro_problem(hp)
    masks = G.draw_mask_factors(hp, POSE,
                                np.random.Generator(np.random.PCG64(7)))
    stacks = {n: arrays[n][None] + rng.normal(scale=1e-2,
                                              size=(5, *arrays[n].shape))
              for n in ("decoder.fc2.bias", name)}
    batched = G.reference_objective(arrays, frames, target, masks, hp, True,
                                    override=stacks)
    singles = [
        G.reference_objective({**arrays, **{n: v[i] for n, v in
                                            stacks.items()}},
                              frames, target, masks, hp, True)[0]
        for i in range(5)
    ]
    assert np.unique(batched).size == 5
    np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=0)


def test_split_rows_at_the_paper_geometry():
    # t = 50 seed rows, T = 25 predicted: 25 of 38, 12 of 19 and 6 of 10
    # discriminator rows read only seed frames (2x7 kernel, 2x2 stride)
    hs, hv, split = 50, 25, []
    for _ in range(3):
        _, Ho, ns = G._split_rows(hs, hv, 2, 2)
        split.append((ns, Ho))
        hs, hv = ns, Ho - ns
    assert split == [(25, 38), (12, 19), (6, 10)]


@pytest.mark.parametrize("C,H,W,kernel,stride", [
    (3, 16, 12, (2, 7), (2, 2)),  # the paper kernel, no row padding
    (3, 11, 6, (2, 7), (2, 2)),   # odd height: one padded row on each side
    (3, 8, 12, (7, 2), (2, 2)),   # ablation kernels
    (3, 9, 12, (4, 4), (2, 2)),
    (3, 5, 6, (3, 3), (1, 1)),
    (2, 6, 4, (2, 7), (2, 2)),    # narrower than the kernel
    (2, 4, 6, (7, 2), (2, 2)),    # shorter than the kernel
    (2, 3, 2, (3, 7), (1, 1)),    # kernel column 0 reads only padding
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
@pytest.mark.parametrize("Px,P,perturbed", [
    (1, 1, False), (1, 5, True), (5, 5, False), (5, 5, True)])
def test_conv_gather_equals_padded_copy_oracle(monkeypatch, C, H, W, kernel,
                                               stride, Px, P, perturbed):
    kh, kw = kernel
    sH, sW = stride
    pH, pW = G._same_pad(H, kh, sH), G._same_pad(W, kw, sW)
    Ho, Wo = (H + 2 * pH - kh) // sH + 1, (W + 2 * pW - kw) // sW + 1
    if (H, W) == (3, 2):
        assert all(not 0 <= o * sW - pW < W for o in range(Wo))
    rng = np.random.Generator(np.random.PCG64(H * W + Px))
    x = rng.normal(size=(C, H, W, Px))
    k = rng.normal(size=(4, C, kh, kw))
    b = rng.normal(size=4)
    dk = db = None
    if perturbed:
        n = 7
        dk = (rng.integers(P, size=n), rng.choice(k.size, n, replace=False),
              rng.normal(size=n))
        db = (np.arange(P), rng.integers(4, size=P), rng.normal(size=P))
    expected = padded_conv_p(x, k, b, stride, dk, db, P)
    assert expected.shape == (4, Ho, Wo, P)
    # a column-buffer entry the gather leaves unwritten would show as NaN
    empty = np.empty

    def nan_empty(shape, *args, **kwargs):
        out = empty(shape, *args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(G.np, "empty", nan_empty)
    np.testing.assert_array_equal(G._conv_p(x, k, b, stride, dk, db, P),
                                  expected)


class _RecordingContext:
    """A multiprocessing context whose pools record their size and run the
    jobs in this process."""

    def __init__(self):
        self.pool_sizes = []

    def Pool(self, processes):
        self.pool_sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.mark.parametrize("seeds,variants,pool_sizes", [
    ((0,), (False,), []),          # one check runs in-process
    ((0,), (False, True), [2]),
    ((0, 1, 2), (False, True), [6]),
    ((0, 1, 2, 3, 4), (False, True), [8]),
])
def test_run_suite_starts_no_more_workers_than_checks(monkeypatch, seeds,
                                                      variants, pool_sizes):
    assert _pool_sizes(monkeypatch, seeds, variants, cpus=8) == pool_sizes


@pytest.mark.parametrize("cpus,pool_sizes", [(1, []), (3, [3]), (12, [10])])
def test_run_suite_starts_no_more_workers_than_cpus(monkeypatch, cpus,
                                                    pool_sizes):
    # one CPU runs all ten checks in this process
    assert _pool_sizes(monkeypatch, range(5), (False, True),
                       cpus) == pool_sizes


def _pool_sizes(monkeypatch, seeds, variants, cpus):
    """The pools ``run_suite`` starts when this process may run on ``cpus``
    CPUs; each check is stubbed and runs in this process."""
    import multiprocessing

    ctx = _RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(G.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    monkeypatch.setattr(G, "full_model_grad_check",
                        lambda **kw: G.GradCheckReport([], kw["tol"]))
    results = G.run_suite(seeds=seeds, variants=variants)
    assert [(s, a) for s, a, _ in results] == [(s, a) for s in seeds
                                               for a in variants]
    return ctx.pool_sizes


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
        ({"decoder.fc1.weight": G.Deltas([0], [w.size], [1e-3], 1)},
         f"'decoder.fc1.weight': index outside its {w.size} entries"),
        ({"decoder.fc1.bias": G.Deltas([0], [-1], [1e-3], 1)},
         "'decoder.fc1.bias': index outside"),
        ({"decoder.fc1.bias": G.Deltas([2], [0], [1e-3], 2)},
         r"'decoder.fc1.bias': variant outside \[0, 2\)"),
        ({"decoder.fc1.bias": G.Deltas([0, 1], [0, 1], [1e-3], 2)},
         "'decoder.fc1.bias': variant, index and delta shapes differ"),
        ({"decoder.fc1.bias": G.Deltas([1, 0, 1], [3, 3, 3], [1e-3] * 3, 2)},
         r"'decoder.fc1.bias' repeats a \(variant, index\) pair"),
        ({"decoder.fc1.bias": G.Deltas([], [], [], 0)},
         r"'decoder.fc1.bias': variant outside \[0, 0\)"),
        ({"decoder.fc1.weight": G.Deltas([0, 1], [0, 0], [1e-3, -1e-3], 2),
          "decoder.fc1.bias": b[None]},
         r"stack sizes disagree: \[1, 2\] .*'decoder.fc1.bias': 1"),
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
