"""Full-model gradient verification by central finite differences.

The reverse-mode gradients of the complete training objective are compared,
parameter by parameter, against central differences of an independent
reference evaluator. The reference implementation below recomputes the whole
forward pass (encoders, recursive decoding, losses, optional discriminator
score) in plain numpy with no autodiff machinery, and evaluates many
perturbed parameter variants at once, which makes differencing every scalar
parameter affordable. A variant is given as single-entry deltas
(``Deltas``: variant, flat index, delta); a dense ``[P, *shape]`` stack is
turned into the same triples by its nonzero differences from the base. Each
perturbed layer is one GEMM with the shared base weight plus a scatter-add
of delta times the input entry that weight entry multiplies. Activations
carry the parameter-variant axis last (conv grids ``[C, H, W, P]``, codes
and frames ``[features, P]``), so a conv's im2col columns, gathered one
kernel tap at a time from its unpadded input, move contiguous variant runs,
and GEMMs write the next layer's layout.

Every encoder reads seed rows first, which every variant shares, then the
predicted rows that it reads, which vary: the long-term encoder the whole
seed and no prediction, the short-term window its last seed rows and the
newest predictions, the discriminator the seed and every prediction. A conv
computes the output rows that read only shared rows (or padding) once, and
convolves the rest from the varying rows and the shared rows they overlap,
widened; a layer with deltas, or a varying block of width 1, makes every row
varying.

Dropout is exercised under a fixed mask: both routes draw identical masks
from the same seeded stream, re-drawn per evaluation, so the objective stays
deterministic.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from . import model as M
from . import ranges as R
from . import training as T
from .autodiff import Tensor, backward

# desk-scale configuration used by the verification suite
TINY_POSE_DIM = 12

# primary central-difference step and the parameter entries differenced per
# reference call
FD_STEP = 1e-5
FD_CHUNK = 1024
# steps at which elements failing at FD_STEP are re-differenced
RETRY_STEPS = (1e-4, 1e-3, 4e-3, 2e-6, 1e-7)
# entries per pass of the reference leaky ReLU
LRELU_CHUNK = 1 << 15
# the width at which the reference convolves rows that every variant shares
# beside rows that vary: OpenBLAS computes a GEMM's last 1-4 columns past a
# multiple of 8 with another kernel, whose last bits differ, so whole
# 8-column blocks give the bits a pass over every variant gives those rows
SHARED_WIDTH = 8


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


@lru_cache
def _conv_taps(H, W, kh, kw, sH, sW, pH, pW, Ho):
    """The gather plan of one conv geometry with Ho output rows: per kernel
    tap (i, j), the output block whose windows read the input and the
    strided input slice they read; then the blocks of each tap row and tap
    column that read padding."""
    Wo = (W + 2 * pW - kw) // sW + 1

    def spans(n, k, s, p, no):
        # tap d reads input index o * s + d - p at output o: outputs
        # [lo, hi) read inside [0, n), from input index a on; the rest of
        # [0, no) reads padding
        out = []
        for d in range(k):
            lo = min(no, max(0, -(-(p - d) // s)))
            hi = max(lo, min(no, (n - 1 + p - d) // s + 1))
            a = lo * s + d - p
            pad = [z for z in (slice(0, lo), slice(hi, no))
                   if z.start < z.stop]
            out.append((slice(lo, hi), slice(a, a + (hi - lo - 1) * s + 1, s),
                        pad))
        return out

    every = slice(None)
    rows, cols = spans(H, kh, sH, pH, Ho), spans(W, kw, sW, pW, Wo)
    copies = tuple(((every, i, j, ro, co), (every, ri, ci))
                   for i, (ro, ri, _) in enumerate(rows)
                   for j, (co, ci, _) in enumerate(cols)
                   if ro.start < ro.stop and co.start < co.stop)
    zeros = tuple((every, i, every, z)
                  for i, (_, _, pad) in enumerate(rows) for z in pad)
    zeros += tuple((every, every, j, every, z)
                   for j, (_, _, pad) in enumerate(cols) for z in pad)
    return Wo, copies, zeros


def _conv_p(x, k, b, stride, dk, db, P, rows=None):
    """Conv with the variant axis last: x [C,H,W,Px], base kernel
    k [Co,C,kh,kw] and bias b [Co], deltas dk and db -> [Co,Ho,Wo,P'].
    ``rows`` = (top padding, Ho) replaces the same padding of x's height,
    so that x can be the input rows that a band of a taller conv's output
    rows reads. The im2col buffer is filled one kernel tap at a time, each
    tap's block copied from a strided slice of the unpadded x, so every copy
    moves contiguous variant runs; only the entries that read padding are
    zeroed. One GEMM follows."""
    sH, sW = stride
    Co, C, kh, kw = k.shape
    _, H, W, Px = x.shape
    pH = _same_pad(H, kh, sH)
    pH, Ho = rows or (pH, (H + 2 * pH - kh) // sH + 1)
    Wo, copies, zeros = _conv_taps(H, W, kh, kw, sH, sW, pH,
                                   _same_pad(W, kw, sW), Ho)
    cols = np.empty((C, kh, kw, Ho, Wo, Px))
    for dst, src in copies:
        cols[dst] = x[src]
    for z in zeros:
        cols[z] = 0.0
    cols = cols.reshape(C * kh * kw, -1, Px)
    out = (k.reshape(Co, -1) @ cols.reshape(len(cols), -1)).reshape(Co, -1, Px)
    out += b[:, None, None]
    return _add_deltas(out, cols, dk, db, P).reshape(Co, Ho, Wo, -1)


def _split_rows(hs, hv, kh, s):
    """A same-padded conv over hs shared input rows, then hv varying ones:
    its top padding, its output rows, and how many leading output rows read
    only shared rows or padding."""
    pH = _same_pad(hs + hv, kh, s)
    Ho = (hs + hv + 2 * pH - kh) // s + 1
    return pH, Ho, min(Ho, max(0, (hs + pH - kh) // s + 1))


def _linear_p(x, w, b, dw, db, P):
    """Variant-last affine: x [i,Px], base w [o,i], b [o] -> [o,P']."""
    out = w @ x
    out += b[:, None]
    return _add_deltas(out[:, None], x[:, None], dw, db, P)[:, 0]


def _add_deltas(out, src, dw, db, P):
    """Widen a layer's base output out [O,S,Px] to [O,S,P] and add its
    deltas: a weight delta times the src [I,S,Px] entry that weight entry
    multiplies, and a bias delta. A scatter-add, as a dense stack may
    perturb several entries of one variant."""
    _, S, Px = out.shape
    parts = []  # (output row, variant, term [n, S]) per perturbed tensor
    if dw is not None:
        v, f, d = dw
        o, i = np.divmod(f, len(src))
        parts.append((o, v, d[:, None] * src[i, :, v if Px > 1 else 0]))
    if db is not None:
        v, o, d = db
        parts.append((o, v, np.repeat(d[:, None], S, axis=1)))
    if not parts:
        return out
    o, v, terms = (np.concatenate(a) for a in zip(*parts))
    flat = (o[:, None] * S + np.arange(S)) * P + v[:, None]
    out = out if Px == P else np.repeat(out, P, axis=2)
    out += np.bincount(flat.ravel(), terms.ravel(),
                       minlength=out.size).reshape(out.shape)
    return out


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


class Deltas(NamedTuple):
    """``count`` variants: variant[j] adds delta[j] at flat entry index[j]."""
    variant: np.ndarray
    index: np.ndarray
    delta: np.ndarray
    count: int


def _as_deltas(name, value, base):
    """Validated (variant, index, delta) arrays and P of one override; a
    dense ``[P, *base.shape]`` stack becomes its nonzero differences."""
    if isinstance(value, Deltas):
        (v, f, d), P = (np.asarray(a) for a in value[:3]), value.count
        if not (v.ndim == 1 and v.shape == f.shape == d.shape):
            raise ValueError(f"override {name!r}: variant, index and delta "
                             f"shapes differ: {v.shape}, {f.shape}, {d.shape}")
    else:
        if value.shape[1:] != base.shape:
            raise ValueError(f"override {name!r} stacks {value.shape[1:]}, "
                             f"expected {base.shape}")
        P = value.shape[0]
        diff = value.reshape(P, -1) - base.reshape(-1)
        v, f = np.nonzero(diff)
        d = diff[v, f]
    if not P >= 1 or v.size and not (0 <= v.min() and v.max() < P):
        raise ValueError(f"override {name!r}: variant outside [0, {P})")
    if f.size and not (0 <= f.min() and f.max() < base.size):
        raise ValueError(f"override {name!r}: index outside its "
                         f"{base.size} entries")
    # the penalty's (2w + delta) * delta sums per triple, so a pair repeated
    # would drop its cross term (a dense stack's nonzeros are distinct)
    if isinstance(value, Deltas) and np.unique(v * base.size + f).size < v.size:
        raise ValueError(f"override {name!r} repeats a (variant, index) pair")
    return (v, f, d), P


def reference_objective(arrays: dict, seed: np.ndarray, target: np.ndarray,
                        masks: Optional[MaskFactors], hp: M.HyperParams,
                        adversarial: bool,
                        override: Optional[dict] = None) -> np.ndarray:
    """Evaluate the training objective for a stack of parameter variants.

    ``arrays`` maps parameter names to base values; ``override`` maps some
    of them to ``Deltas`` or to dense ``[P, *base.shape]`` stacks, one P for
    all (else ValueError). Returns the per-variant objective ``[P]``
    (``[1]`` without override). Batch size is one sequence.
    """
    deltas, sizes = {}, {}
    for name, value in (override or {}).items():
        if name not in arrays:
            raise ValueError(f"override names unknown parameter {name!r}")
        triples, sizes[name] = _as_deltas(name, value, arrays[name])
        if triples[0].size:
            deltas[name] = triples
    if len(set(sizes.values())) > 1:
        raise ValueError(f"override stack sizes disagree: "
                         f"{sorted(set(sizes.values()))} ({sizes})")
    P = max(sizes.values(), default=1)

    def layer(x, fn, name, weight, *args, **kwargs):
        w, b = f"{name}.{weight}", f"{name}.bias"
        return fn(x, arrays[w], arrays[b], *args, deltas.get(w),
                  deltas.get(b), P, **kwargs)

    t, Tn, C = hp.seed_frames, hp.target_frames, hp.window
    slope = hp.leaky_slope
    scratch = np.empty(LRELU_CHUNK)

    def lrelu(x):
        # in place on a fresh (C-contiguous) layer output, one chunk at a
        # time through one scratch buffer; equals
        # np.where(x >= 0, x, slope * x) bit for bit: 0 < slope < 1
        flat = x.reshape(-1)
        for at in range(0, flat.size, LRELU_CHUNK):
            part = flat[at:at + LRELU_CHUNK]
            np.maximum(part, np.multiply(part, slope, out=scratch[:part.size]),
                       out=part)
        return x

    def join(xs, xv):
        # the rows of both blocks, the shared ones widened to the varying
        # block's width
        if not xs.shape[1]:
            return xv
        return np.concatenate(
            [np.broadcast_to(xs, xs.shape[:-1] + xv.shape[-1:]), xv], axis=1)

    def conv(xs, xv, name):
        # the output rows that read only shared rows or padding are computed
        # once, the rest from the rows they read; while no row varies (the
        # varying block is width 1), and in a layer with deltas, every row
        # is in the varying block
        if (xv.shape[-1] == 1 or f"{name}.kernel" in deltas
                or f"{name}.bias" in deltas):
            xs, xv = xs[:, :0], join(xs, xv)
        hs, sH = xs.shape[1], hp.stride[0]
        pH, Ho, ns = _split_rows(hs, xv.shape[1],
                                 arrays[f"{name}.kernel"].shape[2], sH)
        ys = yv = None
        if ns:
            ys = lrelu(layer(
                np.broadcast_to(xs, xs.shape[:-1] + (SHARED_WIDTH,)), _conv_p,
                name, "kernel", hp.stride, rows=(pH, ns)))[..., :1]
        if ns < Ho:
            a = max(0, ns * sH - pH)  # the first input row that row ns reads
            yv = lrelu(layer(join(xs[:, a:], xv[:, max(0, a - hs):]), _conv_p,
                             name, "kernel", hp.stride,
                             rows=(max(0, pH - ns * sH), Ho - ns)))
        if ys is None:
            return yv[:, :0, :, :1], yv
        return ys, ys[:, :0] if yv is None else yv

    def cem(prefix, seed_rows, tail, mask_factor):
        # the [h_s, L] seed rows that every variant shares, then the [L, P']
        # predictions in tail (an empty tail is a width-1 block of no rows);
        # the affine map reads both joined
        xs = seed_rows[None, ..., None]
        # one width: any generator delta varies step 1, and step k reads k - 1
        xv = np.stack(tail)[None] if tail else xs[:, :0]
        for i in (1, 2, 3):
            xs, xv = conv(xs, xv, f"{prefix}.conv{i}")
        x = join(xs, xv)
        if mask_factor is not None:
            x = x * mask_factor[0, ..., None]
        return layer(x.reshape(-1, x.shape[-1]), _linear_p, f"{prefix}.fc",
                     "weight")

    if hp.no_long_term:
        zl = np.zeros((hp.fc_out, 1))
    else:
        zl = cem("long", seed, [], masks.long_enc if masks else None)

    blended: list = []
    preds: list = []
    prev = seed[-1, :, None]
    for k in range(1, Tn + 1):
        tail = blended[-C:]
        zs = cem("short", seed[t - C + len(tail):], tail,
                 masks.short_enc[k - 1] if masks else None)
        h = np.concatenate(np.broadcast_arrays(zl, zs))
        h = lrelu(layer(h, _linear_p, "decoder.fc1", "weight"))
        if masks is not None:
            h = h * masks.decoder[k - 1].T
        h = layer(h, _linear_p, "decoder.fc2", "weight")
        x_hat = h + prev
        preds.append(x_hat)
        if hp.eta == 1.0:
            blended.append(x_hat)
        else:
            blended.append(x_hat * hp.eta
                           + target[k - 1, :, None] * (1.0 - hp.eta))
        prev = x_hat

    pred_stack = np.stack(preds)
    # contiguous variant rows: numpy sums each pairwise (lower FD noise)
    sq = np.square(pred_stack - target[..., None]).reshape(target.size, -1)
    mse = np.ascontiguousarray(sq.T).sum(axis=1) / Tn

    # a variant's penalty is the base one plus (2w + delta) * delta over
    # its changed entries
    l2 = np.zeros(1)
    gen_prefixes = ("short", "decoder") + (() if hp.no_long_term else ("long",))
    for name in sorted(arrays):
        if name.split(".")[0] in gen_prefixes:
            l2 = l2 + np.square(arrays[name].reshape(1, -1)).sum(axis=1)
    for name, (v, f, d) in deltas.items():
        if name.split(".")[0] in gen_prefixes:
            w = arrays[name].reshape(-1)[f]
            l2 = l2 + np.bincount(v, (2.0 * w + d) * d, minlength=P)
    loss = mse + hp.lambda_l2 * l2

    if adversarial:
        code = cem("disc.cem", seed, preds, None)
        logit = layer(code, _linear_p, "disc.head", "weight")
        prob = 1.0 / (1.0 + np.exp(-logit[0]))
        prob = np.clip(prob, T.PROB_EPS, 1.0 - T.PROB_EPS)
        loss = loss + hp.lambda_adv * (-np.log(prob))

    return np.broadcast_to(loss, (P,)).copy()


# ---------------------------------------------------------------------------
# Taped objective (the implementation under test)
# ---------------------------------------------------------------------------


def taped_objective(params: M.ModelParams, gen_named: dict, seed: np.ndarray,
                    target: np.ndarray, hp: M.HyperParams, adversarial: bool,
                    mask_seed: int):
    """``training.objectives`` at batch 1, on a single ``[t, L]`` seed and
    ``[T, L]`` target; returns the generator's (loss tensor, tape), and
    ignores the discriminator's. With the adversary on, the generator's fake
    pass reads the seed-prefix conv rows of the discriminator's real pass
    over ``[seed, target]``."""
    hp = replace(hp, adversarial=adversarial)
    rng = np.random.Generator(np.random.PCG64(mask_seed))
    loss, _terms, tape, _d_loss, _d_tape = T.objectives(
        params, gen_named, Tensor(seed[None]), Tensor(target[None]), hp, rng)
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
        # in place: no full-size temporaries beyond the noise itself
        tensor.data *= 0.5
        tensor.data += rng.normal(scale=0.05, size=tensor.shape)
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
    R.check(tol=tol)
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


def _rel_err(a, n):
    return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)


def _fd_gradient(arrays, name, indices, seed, target, masks, hp, adversarial,
                 h):
    """Central differences of the reference objective at selected flat indices."""
    grad = np.empty(indices.size)
    for start in range(0, indices.size, FD_CHUNK):
        idxs = indices[start:start + FD_CHUNK]
        P = 2 * idxs.size
        deltas = Deltas(np.arange(P), np.repeat(idxs, 2),
                        np.tile([h, -h], idxs.size), P)
        losses = reference_objective(arrays, seed, target, masks, hp,
                                     adversarial, override={name: deltas})
        grad[start:start + idxs.size] = (losses[0::2] - losses[1::2]) / (2.0 * h)
    return grad


def run_suite(seeds=(0, 1, 2, 3, 4), variants=(False, True), tol: float = 1e-4,
              hp: Optional[M.HyperParams] = None,
              pose_dim: int = TINY_POSE_DIM) -> list:
    """Run the full check over several seeds and objective variants.

    Returns ``[(seed, adversarial, GradCheckReport), ...]``; the suite passes
    when every report passes. The (seed, variant) grid fans out over one
    worker process per check, at most one per CPU this process may run on;
    with one worker it runs in this process.
    """
    R.check(tol=tol)
    grid = [(seed, adversarial, tol, hp, pose_dim)
            for seed in seeds for adversarial in variants]
    workers = min(len(grid), len(os.sched_getaffinity(0)))
    if workers > 1:
        return _run_grid_parallel(grid, workers)
    return [_grid_job(job) for job in grid]


def _grid_job(args):
    seed, adversarial, tol, hp, pose_dim = args
    report = full_model_grad_check(hp=hp, pose_dim=pose_dim, seed=seed,
                                   adversarial=adversarial, tol=tol)
    return seed, adversarial, report


def _run_grid_parallel(grid, workers):
    """Spawned workers each pin their BLAS pool to one thread: the small
    GEMMs here gain nothing from threads, and unpinned workers contend."""
    import multiprocessing as mp

    pin = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS"), "1")
    saved = {k: os.environ[k] for k in pin if k in os.environ}
    os.environ.update(pin)
    try:
        with mp.get_context("spawn").Pool(workers) as pool:
            return pool.map(_grid_job, grid)
    finally:
        for k in pin:
            os.environ.pop(k, None)
        os.environ.update(saved)
