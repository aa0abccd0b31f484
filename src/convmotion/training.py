"""Training: losses, Adam, window sampling, and the training loop.

Each iteration samples a batch of (seed, target) windows across all actions,
differentiates the generator's combined objective (prediction MSE + weight
penalty - adversarial log-score) and, when the adversarial regularizer is
enabled, the discriminator's real/generated classification loss with the
generated sequences detached, then takes one Adam step over both players'
tensors; the gradient sets are disjoint, so this equals a step per player.
``objectives`` records an iteration's whole forward: the prediction, the
discriminator's three passes, which share their seed frames (both fake
passes reuse the real pass's seed-prefix conv rows), and both losses;
``train`` only checks the losses, differentiates them and steps. The
gradient check runs ``objectives`` at batch 1 (``gradcheck.taped_objective``).
Everything is deterministic under the master seed: iteration ``i`` draws
from RNG streams derived from ``(master_seed, i)``, so resuming from a
checkpoint replays the exact trajectory of an uninterrupted run.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from . import model as M
from . import ranges as R
from .autodiff import GradTape, Tensor, backward
from .mocap import MotionSequence, NormalizationStats

PROB_EPS = 1e-7

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per in-place Adam pass: six such chunks fit in a 2 MB L2 cache
ADAM_CHUNK = 1 << 15


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def loss_mse(pred: Tensor, target: Tensor) -> Tensor:
    """Per-sequence mean over time of squared pose error, averaged over the
    batch; ``pred`` is ``[T, L]`` or ``[B, T, L]``."""
    if not isinstance(target, Tensor):
        target = Tensor(np.asarray(target, dtype=np.float64))
    if pred.shape != target.shape:
        raise ad.ShapeError(
            f"loss_mse: prediction {pred.shape} vs target {target.shape}"
        )
    if pred.ndim not in (2, 3):
        raise ad.ShapeError(f"loss_mse expects [T, L] or [B, T, L], got {pred.shape}")
    return ad.mul(ad.sumsq(ad.sub(pred, target)),
                  1.0 / (pred.size // pred.shape[-1]))


def loss_discriminator(real_prob: Tensor, fake_prob: Tensor) -> Tensor:
    """Batch-mean binary cross-entropy: real sequences toward 1, generated
    toward 0. Probabilities are clamped to keep the logs finite."""
    rp = ad.clip(real_prob, PROB_EPS, 1.0 - PROB_EPS)
    fp = ad.clip(fake_prob, PROB_EPS, 1.0 - PROB_EPS)
    real_term = ad.mul(ad.tmean(ad.tlog(rp)), -1.0)
    fake_term = ad.mul(ad.tmean(ad.tlog(ad.add(ad.mul(fp, -1.0), 1.0))), -1.0)
    return ad.add(real_term, fake_term)


@dataclass
class LossTerms:
    """Scalar breakdown of one generator objective evaluation."""

    mse: float
    l2: float
    adv: float
    total: float


def weight_penalty(named_params: dict) -> Tensor:
    """Sum of squared entries over every given parameter tensor, summed in
    sorted-name order."""
    if not named_params:
        raise ValueError("weight_penalty needs at least one parameter")
    return ad.sumsq(*(named_params[name] for name in sorted(named_params)))


def loss_generator(pred: Tensor, target, gen_params: dict,
                   fake_prob: Optional[Tensor], hp: M.HyperParams):
    """Combined objective; returns the loss tensor and its term breakdown.

    Discriminator parameters never appear in ``gen_params``: they are outside
    the weight penalty and receive no update from this loss.
    """
    mse_t = loss_mse(pred, target)
    l2_t = weight_penalty(gen_params)
    loss = ad.add(mse_t, ad.mul(l2_t, hp.lambda_l2))
    lam_adv = hp.effective_lambda_adv
    if fake_prob is not None and lam_adv > 0.0:
        fp = ad.clip(fake_prob, PROB_EPS, 1.0 - PROB_EPS)
        adv_t = ad.mul(ad.tmean(ad.tlog(fp)), -1.0)
        loss = ad.add(loss, ad.mul(adv_t, lam_adv))
        adv_val = adv_t.item()
    else:
        adv_val = 0.0
    terms = LossTerms(mse=mse_t.item(), l2=l2_t.item(), adv=adv_val,
                      total=loss.item())
    return loss, terms


def objectives(params: M.ModelParams, gen_named: dict, seeds: Tensor,
               targets: Tensor, hp: M.HyperParams, rng: np.random.Generator):
    """Record an iteration's forward; ``seeds``/``targets`` are ``[B, t, L]``
    and ``[B, T, L]`` batches. Returns ``(loss, terms, tape, d_loss,
    d_tape)``: the generator's combined objective on ``tape`` and the
    discriminator's classification loss on ``d_tape``, or ``None`` for both
    with the adversary off.

    After the closed-loop prediction, the discriminator's real pass over the
    frame rows of ``seeds`` and ``targets`` and its fake pass over those of
    ``seeds`` and the detached prediction are recorded on ``d_tape``. They
    share one ``RowCache``, so the fake pass convolves only the rows that
    read a predicted frame, and its ``backward`` sums the real and fake
    gradients of the shared rows. The generator's fake pass over the rows
    of ``seeds`` and the prediction then reads the cached rows as data,
    through detached copies of the ``disc.*`` tensors (same data, no
    gradient), so its ``backward`` returns no ``disc.*`` gradient and skips
    the discriminator's kernel and weight products."""
    d_loss = d_tape = fake_prob = None
    seed_rows = M.frame_rows(seeds)
    with GradTape() as tape:
        pred = M.predict_sequence(seeds, params, hp, teacher=targets,
                                  mode="train", rng=rng)
        if hp.effective_lambda_adv > 0.0:
            cache = M.RowCache()
            with GradTape() as d_tape:
                real_prob = M.discriminate(seed_rows + M.frame_rows(targets),
                                           params, hp, cache=cache)
                d_fake_prob = M.discriminate(
                    seed_rows + M.frame_rows(pred.detach()), params, hp,
                    cache=cache)
                d_loss = loss_discriminator(real_prob, d_fake_prob)
            frozen = M.ModelParams({n: p.detach() for n, p
                                    in params.discriminator_named().items()})
            fake_prob = M.discriminate(seed_rows + M.frame_rows(pred),
                                       frozen, hp, cache=cache.detached())
        loss, terms = loss_generator(pred, targets, gen_named, fake_prob, hp)
    return loss, terms, tape, d_loss, d_tape


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment estimates, shaped exactly like their parameters."""

    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(m={n: np.zeros_like(p.data) for n, p in params.items()},
                   v={n: np.zeros_like(p.data) for n, p in params.items()})


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update, in place. Parameters without a gradient
    entry are left untouched. A gradient with a non-finite entry, or with
    an entry whose square overflows (|g| >= sqrt of the float maximum, which
    would make ``v`` infinite and freeze the entry), aborts the whole step
    with the parameter's name, before any parameter, moment or the step
    count changes.

    ``m``, ``v`` and each parameter's array are updated with ``out=``
    ufuncs through two scratch buffers of ``ADAM_CHUNK`` elements, one
    chunk of a tensor at a time, so that all passes over a chunk stay in
    cache. Every formula keeps the evaluation order of
    ``p - lr * ((m / c1) / (sqrt(v / c2) + eps))``."""
    t = state.step + 1
    used = [(name, grads[name]) for name in params
            if grads.get(name) is not None]
    for name, g in used:
        # a NaN, an infinity or a square that overflows makes the sum of
        # squares non-finite; the exact scan then tells them from a sum of
        # representable squares that overflowed
        flat = g.reshape(-1)
        with np.errstate(over="ignore"):
            sumsq = np.dot(flat, flat)
        if not np.isfinite(sumsq) and not (
                np.all(np.isfinite(flat))
                and np.abs(flat).max() < np.sqrt(np.finfo(g.dtype).max)):
            raise FloatingPointError(
                f"non-finite or overflowing gradient for parameter {name!r} "
                f"at Adam step {t}"
            )
    state.step = t
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    scratch = None
    for name, g in used:
        if scratch is None:
            scratch = np.empty((2, ADAM_CHUNK), dtype=g.dtype)
        # the flat arrays below must be views: an array of another layout
        # (one a caller assigned) is replaced by a C-ordered copy first
        tensor = params[name]
        tensor.data, state.m[name], state.v[name] = (
            a if a.flags.c_contiguous else a.copy()
            for a in (tensor.data, state.m[name], state.v[name]))
        flat = [a.reshape(-1) for a in (g, tensor.data, state.m[name],
                                        state.v[name])]
        for lo in range(0, g.size, ADAM_CHUNK):
            gc, p, m, v = (a[lo:lo + ADAM_CHUNK] for a in flat)
            a, b = scratch[:, :gc.size]
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, gc, out=a)
            v *= ADAM_BETA2
            v += np.multiply(1.0 - ADAM_BETA2, np.square(gc, out=a), out=a)
            np.sqrt(np.divide(v, c2, out=a), out=a)
            a += ADAM_EPS
            np.divide(np.divide(m, c1, out=b), a, out=b)
            b *= lr
            p -= b


def grads_by_name(named_params: dict, grads_by_tensor: dict) -> dict:
    return {name: grads_by_tensor.get(p)
            for name, p in named_params.items()
            if grads_by_tensor.get(p) is not None}


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    seeds: np.ndarray    # [B, t, L]
    targets: np.ndarray  # [B, T, L]
    actions: list


class WindowSampler:
    """Uniform draws over every admissible (trial, start-offset) pair."""

    def __init__(self, sequences: Sequence[MotionSequence], seed_frames: int,
                 target_frames: int):
        self.window_len = seed_frames + target_frames
        self.seed_frames = seed_frames
        self.sequences = [s for s in sequences
                          if s.num_frames >= self.window_len]
        if not self.sequences:
            raise ValueError(
                f"no trial is long enough for a {self.window_len}-frame window"
            )
        counts = np.array([s.num_frames - self.window_len + 1
                           for s in self.sequences])
        self._cum = np.cumsum(counts)
        self.total_windows = int(self._cum[-1])

    def sample(self, rng: np.random.Generator, batch_size: int) -> Batch:
        flat = rng.integers(0, self.total_windows, size=batch_size)
        seeds, targets, actions = [], [], []
        for idx in flat:
            trial = int(np.searchsorted(self._cum, idx, side="right"))
            offset = int(idx - (self._cum[trial - 1] if trial else 0))
            seq = self.sequences[trial]
            window = seq.frames[offset:offset + self.window_len]
            seeds.append(window[:self.seed_frames])
            targets.append(window[self.seed_frames:])
            actions.append(seq.action)
        return Batch(np.stack(seeds), np.stack(targets), actions)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainSchedule:
    """``report_path`` receives one CSV row per iteration as it finishes."""

    iterations: int
    master_seed: int = 0
    checkpoint_every: int = 1000
    out_dir: Optional[Path] = None
    report_path: Optional[Path] = None

    def __post_init__(self):
        R.check(iterations=self.iterations, master_seed=self.master_seed,
                checkpoint_every=self.checkpoint_every)


@dataclass
class IterationReport:
    iteration: int
    mse: float
    l2: float
    adv: float
    d_loss: Optional[float]
    total: float
    ms_per_iter: float = 0.0  # wall clock; excluded from determinism guarantees

    def deterministic_fields(self) -> tuple:
        return (self.iteration, self.mse, self.l2, self.adv, self.d_loss,
                self.total)


@dataclass
class TrainResult:
    params: M.ModelParams
    reports: list
    checkpoints: list = field(default_factory=list)


def _csv_row(r: IterationReport) -> str:
    return ",".join("" if v is None else repr(v) for v in astuple(r))


def _start_report(path, start_iteration: int) -> None:
    """Write the header of ``path``, then the complete rows of an earlier
    run up to ``start_iteration``; later rows (the part of a crashed run
    past its checkpoint) are dropped."""
    path = Path(path)
    columns = [f.name for f in fields(IterationReport)]
    kept = []
    if start_iteration and path.exists():
        for line in path.read_text().splitlines()[1:]:
            cells = line.split(",")
            if (len(cells) == len(columns) and cells[0].isdigit()
                    and int(cells[0]) <= start_iteration):
                kept.append(line + "\n")
    path.write_text(",".join(columns) + "\n" + "".join(kept))


def _iteration_rngs(master_seed: int, iteration: int):
    """Independent per-iteration streams: (sampling, generator dropout)."""
    ss = np.random.SeedSequence([int(master_seed), int(iteration)])
    children = ss.spawn(2)
    return tuple(np.random.Generator(np.random.PCG64(c)) for c in children)


def train(sequences: Sequence[MotionSequence], stats: NormalizationStats,
          hp: M.HyperParams, schedule: TrainSchedule,
          params: Optional[M.ModelParams] = None,
          resume_from=None) -> TrainResult:
    """Run the training loop; returns parameters and the report stream.

    ``resume_from`` is a checkpoint path; training continues from its stored
    iteration with restored optimizer moments and reproduces the
    uninterrupted trajectory exactly. The checkpoint must hold optimizer
    moments and have been trained with ``hp`` and ``schedule.master_seed``,
    and ``schedule.iterations`` must exceed its iteration (0 for a fresh
    run), or ``ValueError`` is raised before anything is written. A resumed
    run takes its parameters from the checkpoint, so ``params`` must then
    be ``None``.

    With ``schedule.report_path``, each iteration's row is appended (and
    the file closed) as the iteration finishes, before its checkpoint, so a
    crashed run keeps its rows. A resumed run keeps the file's rows up to the
    checkpoint's iteration and replaces the rest.
    """
    sequences = list(sequences)
    if not sequences:
        raise ValueError("training requires a non-empty dataset")
    if params is not None and resume_from is not None:
        raise ValueError(f"{resume_from}: params must be None, as a resumed "
                         f"run takes the checkpoint's parameters")
    pose_dim = sequences[0].pose_dim
    sampler = WindowSampler(sequences, hp.seed_frames, hp.target_frames)

    if resume_from is not None:
        ckpt = M.load_checkpoint(resume_from, stats.fingerprint())
        theirs = ckpt.hyper.to_dict()
        differ = [f"{k}={v!r} (checkpoint: {theirs[k]!r})"
                  for k, v in hp.to_dict().items() if theirs[k] != v]
        if differ:
            raise ValueError(f"{resume_from}: checkpoint was trained with other "
                             f"hyperparameters: {', '.join(differ)}")
        try:
            params = ckpt.to_params()
        except KeyError as exc:
            raise ValueError(f"{resume_from}: tensor {exc.args[0]!r} is not "
                             f"in the file") from None
    elif params is None:
        init_rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([int(schedule.master_seed), 0])))
        params = M.init_params(hp, pose_dim, init_rng)

    gen_named = params.generator_named(include_long=not hp.no_long_term)
    trained = {**gen_named, **params.discriminator_named()}
    if resume_from is None:
        state = AdamState.for_params(trained)
    else:
        state = _optimizer_from_tensors(resume_from, ckpt, trained,
                                        schedule.master_seed)
    start_iteration = state.step
    if schedule.iterations <= start_iteration:
        raise ValueError(
            f"nothing to train: {schedule.iterations} iterations requested, "
            f"but the run starts after iteration {start_iteration}")

    if schedule.out_dir is not None:
        Path(schedule.out_dir).mkdir(parents=True, exist_ok=True)
    if schedule.report_path is not None:
        _start_report(schedule.report_path, start_iteration)
    reports: list = []
    checkpoints: list = []

    for it in range(start_iteration + 1, schedule.iterations + 1):
        t0 = time.perf_counter()
        sample_rng, gen_rng = _iteration_rngs(schedule.master_seed, it)
        batch = sampler.sample(sample_rng, hp.batch_size)
        seeds_t = Tensor(batch.seeds)
        targets_t = Tensor(batch.targets)

        loss, terms, tape, d_loss, d_tape = objectives(
            params, gen_named, seeds_t, targets_t, hp, gen_rng)
        if not np.isfinite(terms.total):
            raise FloatingPointError(
                f"non-finite generator loss at iteration {it}: {terms}"
            )
        d_loss_val = None if d_loss is None else d_loss.item()
        if d_loss_val is not None and not np.isfinite(d_loss_val):
            raise FloatingPointError(
                f"non-finite discriminator loss at iteration {it}"
            )
        # each backward consumes its tape, freeing every saved activation
        # once its node is replayed; the gradient sets are disjoint
        grads = backward(loss, tape)
        del tape
        if d_tape is not None:
            grads.update(backward(d_loss, d_tape))
            del d_tape

        adam_step(trained, grads_by_name(trained, grads), state,
                  hp.learning_rate)
        # no gradient outlives its step into the next iteration's forward
        del grads

        ms = (time.perf_counter() - t0) * 1000.0
        reports.append(IterationReport(it, terms.mse, terms.l2, terms.adv,
                                       d_loss_val, terms.total, ms))
        if schedule.report_path is not None:
            with open(schedule.report_path, "a") as f:
                f.write(_csv_row(reports[-1]) + "\n")

        if schedule.out_dir is not None and (
                it % schedule.checkpoint_every == 0 or it == schedule.iterations):
            path = Path(schedule.out_dir) / f"ckpt_{it:07d}.ckpt"
            _save_training_checkpoint(path, params, hp, pose_dim, stats, it,
                                      schedule.master_seed, state)
            checkpoints.append(path)

    return TrainResult(params=params, reports=reports, checkpoints=checkpoints)


def _save_training_checkpoint(path, params, hp, pose_dim, stats, iteration,
                              master_seed, state) -> None:
    tensors = M.tensors_from_params(params)
    tensors.update({f"optim.m.{n}": arr for n, arr in state.m.items()})
    tensors.update({f"optim.v.{n}": arr for n, arr in state.v.items()})
    M.save_checkpoint(path, hp, pose_dim, stats.fingerprint(), tensors,
                      {"iteration": iteration, "master_seed": master_seed})


def _optimizer_from_tensors(path, ckpt: M.Checkpoint, trained: dict,
                            master_seed: int) -> AdamState:
    """The Adam state a training checkpoint stored for ``trained``; its step
    count is the checkpoint's iteration, as one step is taken per
    iteration."""
    try:
        m = {n: ckpt.tensors[f"optim.m.{n}"] for n in trained}
        v = {n: ckpt.tensors[f"optim.v.{n}"] for n in trained}
    except KeyError as exc:
        raise ValueError(
            f"{path}: cannot resume a checkpoint without optimizer "
            f"moments (missing tensor {exc.args[0]!r})") from None
    theirs = ckpt.extra.get("master_seed")
    if theirs != master_seed:
        raise ValueError(f"{path}: checkpoint was trained with master seed "
                         f"{theirs!r}, not {master_seed!r}")
    if "iteration" not in ckpt.extra:
        raise ValueError(f"{path}: extra.iteration is missing")
    return AdamState(m=m, v=v, step=ckpt.extra["iteration"])
