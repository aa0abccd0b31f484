"""Full-model gradient verification by central finite differences.

The reverse-mode gradients of the complete training objective are compared,
parameter by parameter, against central differences of an independent
reference evaluator. The reference implementation below recomputes the whole
forward pass (encoders, recursive decoding, losses, optional discriminator
score) in plain numpy with no autodiff machinery, and evaluates many
perturbed parameter copies at once, which makes differencing every scalar
parameter affordable. Activations carry the parameter-variant axis last
(conv grids ``[C, H, W, P]``, codes and frames ``[features, P]``), so im2col
copies move contiguous variant runs and GEMMs write the next layer's layout.

Dropout is exercised under a fixed mask: both routes draw identical masks
from the same seeded stream, re-drawn per evaluation, so the objective stays
deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import model as M
from . import training as T
from .autodiff import GradTape, Tensor, backward

PROB_EPS = T.PROB_EPS

# desk-scale configuration used by the verification suite
TINY_POSE_DIM = 12

# primary central-difference step and the parameter entries differenced per
# reference call
FD_STEP = 1e-5
FD_CHUNK = 1024
# steps at which elements failing at FD_STEP are re-differenced
RETRY_STEPS = (1e-4, 1e-3, 4e-3, 2e-6, 1e-7)


def tiny_hyperparams(**overrides) -> M.HyperParams:
    base = dict(seed_frames=16, target_frames=6, window=8,
                channels=(8, 16, 16), fc_out=64, dropout=0.5, batch_size=1)
    base.update(overrides)
    return M.HyperParams(**base)


# ---------------------------------------------------------------------------
# Reference objective: plain numpy, parameter-variant axis last
# ---------------------------------------------------------------------------


def _same_pad(n, k, s):
    target = -(-n // s)
    total = max(0, (target - 1) * s + k - n)
    return -(-total // 2)


def _zero_pad(x, pads):
    xp = np.zeros([n + 2 * p for n, p in zip(x.shape, pads)])
    xp[tuple(slice(p, p + n) for n, p in zip(x.shape, pads))] = x
    return xp


def _conv_p(x, k, b, stride):
    """Batched conv, variant axis last: x [C,H,W,Px], k [Pk,Co,C,kh,kw],
    b [Pb,Co] -> [Co,Ho,Wo,P'].

    One kernel or one input: im2col copies contiguous variant runs for one
    GEMM. Both stacked: variant-first columns, kw innermost, for a batched
    GEMM of transposed outputs (einsum would take the non-BLAS kernel).
    """
    sH, sW = stride
    Pk, Co, C, kh, kw = k.shape
    _, H, W, Px = x.shape
    pH, pW = _same_pad(H, kh, sH), _same_pad(W, kw, sW)
    Ho = (H + 2 * pH - kh) // sH + 1
    Wo = (W + 2 * pW - kw) // sW + 1
    ckk = C * kh * kw
    k2 = k.reshape(Pk, Co, ckk)
    if Pk > 1 and Px > 1:
        xp = _zero_pad(x.transpose(3, 0, 1, 2), (0, 0, pH, pW))
        s0, s1, s2, s3 = xp.strides
        win = as_strided(xp, (Px, Ho, Wo, C, kh, kw),
                         (s0, s2 * sH, s3 * sW, s1, s2, s3))
        out = np.matmul(win.reshape(Px, Ho * Wo, ckk), k2.transpose(0, 2, 1))
        out = out.reshape(Px, Ho, Wo, Co).transpose(3, 1, 2, 0)
    else:
        xp = _zero_pad(x, (0, pH, pW, 0))
        s0, s1, s2, s3 = xp.strides
        win = as_strided(xp, (C, kh, kw, Ho, Wo, Px),
                         (s0, s1, s2, s1 * sH, s2 * sW, s3))
        out = k2.reshape(Pk * Co, ckk) @ win.reshape(ckk, Ho * Wo * Px)
        out = out.reshape(Pk, Co, Ho, Wo, Px)
        out = out[0] if Pk == 1 else out[..., 0].transpose(1, 2, 3, 0)
    return out + b.T[:, None, None]


def _linear_p(x, w, b):
    """Variant-last affine: x [i,Px], w [Pw,o,i], b [Pb,o] -> [o,P']."""
    Pw, O, I = w.shape
    if Pw == 1:
        out = w[0] @ x
    elif x.shape[1] == 1:
        out = (w.reshape(Pw * O, I) @ x[:, 0]).reshape(Pw, O).T
    else:
        out = np.matmul(w, x.T[:, :, None])[:, :, 0].T
    return out + b.T


@dataclass
class MaskFactors:
    """Pre-drawn inverted-dropout factors, in model execution order."""

    long_enc: Optional[np.ndarray]
    short_enc: list
    decoder: list


def draw_mask_factors(hp: M.HyperParams, pose_dim: int,
                      rng: np.random.Generator) -> Optional[MaskFactors]:
    """Replicates the model's mask-draw order: long encoder once, then one
    short-encoder and one decoder mask per step."""
    p = hp.dropout
    if p == 0.0:
        return None
    scale = 1.0 / (1.0 - p)
    ch3 = hp.channels[-1]
    long_grid = hp.long_cem(pose_dim).grid_trace()[-1]
    short_grid = hp.short_cem(pose_dim).grid_trace()[-1]
    long_f = None
    if not hp.no_long_term:
        long_f = (rng.random((1, ch3, *long_grid)) >= p) * scale
    shorts, decs = [], []
    for _ in range(hp.target_frames):
        shorts.append((rng.random((1, ch3, *short_grid)) >= p) * scale)
        decs.append((rng.random((1, hp.fc_out)) >= p) * scale)
    return MaskFactors(long_f, shorts, decs)


def reference_objective(arrays: dict, seed: np.ndarray, target: np.ndarray,
                        masks: Optional[MaskFactors], hp: M.HyperParams,
                        adversarial: bool,
                        override: Optional[dict] = None) -> np.ndarray:
    """Evaluate the training objective for a stack of parameter variants.

    ``arrays`` maps parameter names to base values; ``override`` maps some
    of them to ``[P, *base.shape]`` stacks, one P for all (else ValueError).
    Returns the per-variant objective ``[P]`` (``[1]`` without override).
    Batch size is one sequence.
    """
    override = override or {}
    for name, stack in override.items():
        if name not in arrays:
            raise ValueError(f"override names unknown parameter {name!r}")
        if stack.shape[1:] != arrays[name].shape:
            raise ValueError(f"override {name!r} stacks {stack.shape[1:]}, "
                             f"expected {arrays[name].shape}")
    sizes = {v.shape[0] for v in override.values()}
    if len(sizes) > 1:
        raise ValueError(f"override stack sizes disagree: {sorted(sizes)}")
    P = max(sizes, default=1)

    def A(name):
        return override[name] if name in override else arrays[name][None]

    t, Tn, C = hp.seed_frames, hp.target_frames, hp.window
    L = seed.shape[1]
    slope = hp.leaky_slope

    def lrelu(x):
        # equals np.where(x >= 0, x, slope * x) bit for bit: 0 < slope < 1
        return np.maximum(x, slope * x)

    def cem(prefix, frames, mask_factor):
        x = frames[None]  # [1, n, L, P']
        for i in (1, 2, 3):
            x = lrelu(_conv_p(x, A(f"{prefix}.conv{i}.kernel"),
                              A(f"{prefix}.conv{i}.bias"), hp.stride))
        if mask_factor is not None:
            x = x * mask_factor[0, ..., None]
        return _linear_p(x.reshape(-1, x.shape[-1]), A(f"{prefix}.fc.weight"),
                         A(f"{prefix}.fc.bias"))

    if hp.no_long_term:
        zl = np.zeros((hp.fc_out, 1))
    else:
        zl = cem("long", seed[..., None], masks.long_enc if masks else None)

    seed_rows = [seed[i, :, None] for i in range(t - C, t)]  # each [L, 1]
    blended: list = []
    preds: list = []
    prev = seed_rows[-1]
    for k in range(1, Tn + 1):
        ids = M.window_frame_ids(t, C, k)
        rows = [seed_rows[idx - (t - C)] if kind == "seed" else blended[idx - 1]
                for kind, idx in ids]
        pw = max(r.shape[1] for r in rows)
        win = np.stack([np.broadcast_to(r, (L, pw)) for r in rows])
        zs = cem("short", win, masks.short_enc[k - 1] if masks else None)
        h = np.concatenate(np.broadcast_arrays(zl, zs))
        h = lrelu(_linear_p(h, A("decoder.fc1.weight"), A("decoder.fc1.bias")))
        if masks is not None:
            h = h * masks.decoder[k - 1].T
        h = _linear_p(h, A("decoder.fc2.weight"), A("decoder.fc2.bias"))
        x_hat = h + prev
        preds.append(x_hat)
        if hp.eta == 1.0:
            blended.append(x_hat)
        else:
            blended.append(x_hat * hp.eta
                           + target[k - 1, :, None] * (1.0 - hp.eta))
        prev = x_hat

    pw = max(p.shape[1] for p in preds)
    pred_stack = np.stack([np.broadcast_to(p, (L, pw)) for p in preds])
    # contiguous variant rows: numpy sums each pairwise (lower FD noise)
    sq = np.square(pred_stack - target[..., None]).reshape(Tn * L, -1)
    mse = np.ascontiguousarray(sq.T).sum(axis=1) / Tn

    l2 = np.zeros(1)
    gen_prefixes = ("short", "decoder") + (() if hp.no_long_term else ("long",))
    for name in sorted(arrays):
        if name.split(".")[0] in gen_prefixes:
            rows = A(name).reshape(-1, arrays[name].size)
            # 64 rows at a time: a squared copy of a stack sets the peak RSS
            l2 = l2 + np.concatenate([np.square(rows[i:i + 64]).sum(axis=1)
                                      for i in range(0, len(rows), 64)])
    loss = mse + hp.lambda_l2 * l2

    if adversarial:
        full = np.concatenate(
            [np.broadcast_to(seed[..., None], (t, L, pw)), pred_stack])
        code = cem("disc.cem", full, None)
        logit = _linear_p(code, A("disc.head.weight"), A("disc.head.bias"))
        prob = 1.0 / (1.0 + np.exp(-logit[0]))
        prob = np.clip(prob, PROB_EPS, 1.0 - PROB_EPS)
        loss = loss + hp.lambda_adv * (-np.log(prob))

    return np.broadcast_to(loss, (P,)).copy()


# ---------------------------------------------------------------------------
# Taped objective (the implementation under test)
# ---------------------------------------------------------------------------


def taped_objective(params: M.ModelParams, gen_named: dict, seed: np.ndarray,
                    target: np.ndarray, hp: M.HyperParams, adversarial: bool,
                    mask_seed: int):
    """One tape evaluation of the objective on a single ``[t, L]`` seed and
    ``[T, L]`` target; returns (loss tensor, tape).

    As in ``training.train``, the adversarial fake pass reads its
    seed-prefix conv rows from an untaped real pass over
    ``[seed, target]``, so the check differentiates the pass that
    convolves only the rows that read a predicted frame."""
    hp = replace(hp, adversarial=adversarial)
    rng = np.random.Generator(np.random.PCG64(mask_seed))
    disc_cache = None
    if hp.effective_lambda_adv > 0.0:
        disc_cache = M.RowCache(limit=hp.seed_frames)
        M.discriminate(Tensor(np.concatenate([seed, target])[None]), params,
                       hp, cache=disc_cache)
    with GradTape() as tape:
        _pred, loss, _terms = T.generator_objective(
            params, gen_named, Tensor(seed[None]), Tensor(target[None]), hp,
            rng, disc_cache=disc_cache)
    return loss, tape


# ---------------------------------------------------------------------------
# The check itself
# ---------------------------------------------------------------------------


class GradCheckSetupError(RuntimeError):
    """Raised when the function under finite-difference test is not
    deterministic."""


@dataclass
class GradCheckEntry:
    name: str
    shape: tuple
    max_rel_err: float
    worst_index: tuple
    analytic_at_worst: float
    numeric_at_worst: float

    def ok(self, tol: float) -> bool:
        return self.max_rel_err <= tol


@dataclass
class GradCheckReport:
    entries: list
    tol: float
    wall_s: float = 0.0

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def failures(self) -> list:
        return [e for e in self.entries if not e.ok(self.tol)]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"{e.name:<32s} max_rel_err={e.max_rel_err:.3e} "
            f"{'ok' if e.ok(self.tol) else 'FAIL'}"
            for e in self.entries
        ]
        lines.append(
            f"overall max_rel_err={self.max_rel_err:.3e} tol={self.tol:g} "
            f"{'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)


def generic_params(hp: M.HyperParams, pose_dim: int,
                   rng: np.random.Generator) -> M.ModelParams:
    """Randomized parameters with every gradient path active (including the
    zero-initialized final layer), scaled so the objective stays O(1):
    finite-difference cancellation noise grows with the loss magnitude, and
    gradient correctness is independent of the operating point."""
    params = M.init_params(hp, pose_dim, rng)
    for tensor in params.values():
        tensor.assign_(0.5 * tensor.data
                       + rng.normal(scale=0.05, size=tensor.shape))
    return params


def full_model_grad_check(hp: Optional[M.HyperParams] = None,
                          pose_dim: int = TINY_POSE_DIM, seed: int = 0,
                          adversarial: bool = False,
                          tol: float = 1e-4) -> GradCheckReport:
    """Check every generator parameter of the full objective at one seed.

    Elements failing at ``FD_STEP`` are re-differenced at each of
    ``RETRY_STEPS`` and keep their best agreement: a larger step escapes the
    64-bit cancellation floor on near-zero gradients, a smaller one escapes
    activation-kink crossings (at seed 13 every step down to 2e-6 straddles
    a leaky-ReLU kink). An actual gradient defect fails at every step.
    """
    t0 = time.perf_counter()
    _check_tol(tol)
    hp = hp or tiny_hyperparams()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
    params = generic_params(hp, pose_dim, rng)
    seq_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2])))
    seed_frames = 0.5 * seq_rng.normal(size=(hp.seed_frames, pose_dim))
    target_frames = 0.5 * seq_rng.normal(size=(hp.target_frames, pose_dim))
    mask_seed = int(np.random.SeedSequence([seed, 3]).generate_state(1)[0])

    gen_named = params.generator_named(include_long=not hp.no_long_term)
    loss, tape = taped_objective(params, gen_named, seed_frames, target_frames,
                                 hp, adversarial, mask_seed)
    grads = backward(loss, tape)

    arrays = M.tensors_from_params(params)
    masks = draw_mask_factors(hp, pose_dim,
                              np.random.Generator(np.random.PCG64(mask_seed)))

    # route agreement: the reference evaluator must reproduce the taped loss
    ref = reference_objective(arrays, seed_frames, target_frames, masks, hp,
                              adversarial)[0]
    if abs(ref - loss.item()) > 1e-10 * max(1.0, abs(ref)):
        raise GradCheckSetupError(
            f"reference objective disagrees with taped forward: "
            f"{ref!r} vs {loss.item()!r}"
        )

    entries = []
    for name, p in gen_named.items():
        analytic = grads.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.data)
        a_flat = analytic.reshape(-1)
        numeric = _fd_gradient(arrays, name, np.arange(p.size), seed_frames,
                               target_frames, masks, hp, adversarial, FD_STEP)
        rel = _rel_err(a_flat, numeric)
        for h_alt in RETRY_STEPS:
            bad = np.flatnonzero(rel > tol)
            if bad.size == 0:
                break
            numeric_alt = _fd_gradient(arrays, name, bad, seed_frames,
                                       target_frames, masks, hp, adversarial,
                                       h_alt)
            rel_alt = _rel_err(a_flat[bad], numeric_alt)
            better = rel_alt < rel[bad]
            numeric[bad[better]] = numeric_alt[better]
            rel[bad] = np.minimum(rel[bad], rel_alt)
        worst = int(np.argmax(rel))
        entries.append(GradCheckEntry(
            name, p.shape, float(rel[worst]),
            tuple(np.unravel_index(worst, p.shape)),
            float(a_flat[worst]), float(numeric[worst])))
    return GradCheckReport(entries, tol, time.perf_counter() - t0)


def _check_tol(tol):
    if not 0.0 < tol < float("inf"):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _rel_err(a, n):
    return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)


def _fd_gradient(arrays, name, indices, seed, target, masks, hp, adversarial,
                 h):
    """Central differences of the reference objective at selected flat indices."""
    base = arrays[name]
    flat = base.reshape(-1)
    grad = np.empty(indices.size)
    for start in range(0, indices.size, FD_CHUNK):
        idxs = indices[start:start + FD_CHUNK]
        P = 2 * idxs.size
        stack = np.repeat(flat[None, :], P, axis=0)
        rows = np.arange(idxs.size)
        stack[2 * rows, idxs] += h
        stack[2 * rows + 1, idxs] -= h
        losses = reference_objective(arrays, seed, target, masks, hp,
                                     adversarial,
                                     override={name: stack.reshape(P, *base.shape)})
        grad[start:start + idxs.size] = (losses[0::2] - losses[1::2]) / (2.0 * h)
    return grad


def run_suite(seeds=(0, 1, 2, 3, 4), variants=(False, True), tol: float = 1e-4,
              hp: Optional[M.HyperParams] = None, pose_dim: int = TINY_POSE_DIM,
              verbose: bool = False, jobs: int = 1) -> list:
    """Run the full check over several seeds and objective variants.

    Returns ``[(seed, adversarial, GradCheckReport), ...]``; the suite passes
    when every report passes. ``jobs > 1`` fans the (seed, variant) grid out
    over worker processes.
    """
    t0 = time.perf_counter()
    _check_tol(tol)
    grid = [(seed, adversarial) for seed in seeds for adversarial in variants]
    if jobs > 1:
        results = _run_grid_parallel(grid, tol, hp, pose_dim, jobs)
    else:
        results = [_grid_job((seed, adversarial, tol, hp, pose_dim))
                   for seed, adversarial in grid]
    if verbose:
        for seed, adversarial, report in results:
            tag = "full" if adversarial else "mse+l2"
            print(f"seed {seed} [{tag}]: max_rel_err {report.max_rel_err:.3e} "
                  f"{'PASS' if report.passed else 'FAIL'} in {report.wall_s:.1f}s")
        print(f"suite: {len(results)} checks in {time.perf_counter() - t0:.1f}s")
    return results


def _grid_job(args):
    seed, adversarial, tol, hp, pose_dim = args
    report = full_model_grad_check(hp=hp, pose_dim=pose_dim, seed=seed,
                                   adversarial=adversarial, tol=tol)
    return seed, adversarial, report


def _run_grid_parallel(grid, tol, hp, pose_dim, jobs):
    """Spawned workers each pin their BLAS pool to one thread: the small
    GEMMs here gain nothing from threads, and unpinned workers contend."""
    import multiprocessing as mp
    import os

    pin_keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {k: os.environ.get(k) for k in pin_keys}
    for k in pin_keys:
        os.environ[k] = "1"
    try:
        ctx = mp.get_context("spawn")
        with ctx.Pool(processes=jobs) as pool:
            results = pool.map(
                _grid_job,
                [(seed, adv, tol, hp, pose_dim) for seed, adv in grid])
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return results
