"""Euler-angle evaluation protocol.

Predictions and ground truth are compared in denormalized angle space: each
non-global joint triple is converted exponential map -> rotation matrix ->
Euler angles, and the error at a horizon is the L2 norm of the difference
over the concatenated Euler vector, restricted to the kept dimensions (the
masked near-constant dimensions and the global block never contribute).
Horizons are expressed in milliseconds and map onto predicted frames through
the frame period (40 ms by default, so 80/160/320/400/1000 ms hit frames
2/4/8/10/25).

``evaluate`` draws every action's windows first, makes one predictor call
per report on the stacked ``[actions * num_sequences, t, L]`` seeds, and
scores the whole batch as arrays: one ``denormalize_frames`` call for the
predictions and one for the truths, one ``euler_error`` call per horizon.
Its memory therefore grows with actions x ``num_sequences``. The README's
"Evaluation protocol" section lists where this departs from the published
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from . import model as M
from . import ranges as R
from .mocap import (
    FRAME_MS_DEFAULT,
    MotionSequence,
    NormalizationStats,
    denormalize_frames,
    expmap_to_rotmat,
    format_trial,
    rotmat_to_euler,
)

HORIZONS_MS_DEFAULT = (80, 160, 320, 400, 1000)
# joints start after the leading translation triple
JOINT_START = 3


def _frame_of(ms, frame_ms) -> int:
    return int(ms // frame_ms)


def horizon_frames(horizons_ms=HORIZONS_MS_DEFAULT,
                   frame_ms: float = FRAME_MS_DEFAULT) -> list:
    """Map strictly ascending horizons to 1-based predicted frame numbers:
    floor(ms / frame_ms)."""
    if len(horizons_ms) == 0:
        raise ValueError("no horizons given: at least one is needed")
    frames = []
    for prev, ms in zip((None, *horizons_ms), horizons_ms):
        if prev is not None and ms <= prev:
            raise ValueError(
                f"horizons must be strictly ascending: {ms} ms follows {prev} ms")
        f = _frame_of(ms, frame_ms)
        if f < 1:
            raise ValueError(f"horizon {ms} ms is shorter than one frame")
        frames.append(f)
    return frames


def fitting_horizons(target_frames: int, frame_ms: float) -> tuple:
    """The default horizons that land on predicted frames 1..``target_frames``;
    a ValueError when none does."""
    fit = tuple(ms for ms in HORIZONS_MS_DEFAULT
                if 1 <= _frame_of(ms, frame_ms) <= target_frames)
    if not fit:
        raise ValueError(
            f"no evaluation horizon of {HORIZONS_MS_DEFAULT} ms fits in "
            f"{target_frames} target frames of {frame_ms} ms")
    return fit


def frame_to_euler(frame: np.ndarray) -> np.ndarray:
    """Convert each joint triple of raw-width frames ``[..., raw_dim]`` to
    Euler angles in one call; the leading translation triple and a trailing
    partial triple are copied unchanged."""
    out = np.array(frame, dtype=np.float64, copy=True)
    end = JOINT_START + 3 * max(0, (out.shape[-1] - JOINT_START) // 3)
    joints = out[..., JOINT_START:end].reshape(out.shape[:-1] + (-1, 3))
    euler = rotmat_to_euler(expmap_to_rotmat(joints))
    out[..., JOINT_START:end] = euler.reshape(out.shape[:-1] + (-1,))
    return out


def euler_error(pred_frames: np.ndarray, truth_frames: np.ndarray,
                frame_idx: int, stats: NormalizationStats):
    """Euler-angle distance between prediction and truth at one frame.

    Both inputs are denormalized ``[..., num_frames, raw_dim]`` arrays with
    the same leading axes; the error is the L2 norm of the Euler-angle
    difference over kept dimensions, one per leading index. A 2-D pair
    gives a float.
    """
    pred_frames = np.asarray(pred_frames, dtype=np.float64)
    truth_frames = np.asarray(truth_frames, dtype=np.float64)
    if pred_frames.ndim < 2 or truth_frames.ndim != pred_frames.ndim \
            or pred_frames.shape[:-2] != truth_frames.shape[:-2]:
        raise ValueError(
            f"frame batches of shape {pred_frames.shape} and "
            f"{truth_frames.shape} do not pair up"
        )
    if pred_frames.shape[-1] != truth_frames.shape[-1]:
        raise ValueError(
            f"width mismatch: {pred_frames.shape[-1]} vs {truth_frames.shape[-1]}"
        )
    if pred_frames.shape[-1] != stats.raw_dim:
        raise ValueError(
            f"frames of width {pred_frames.shape[-1]} do not match stats width "
            f"{stats.raw_dim}"
        )
    if not 0 <= frame_idx < min(pred_frames.shape[-2], truth_frames.shape[-2]):
        raise IndexError(f"frame index {frame_idx} out of range")
    pe = frame_to_euler(pred_frames[..., frame_idx, :])
    te = frame_to_euler(truth_frames[..., frame_idx, :])
    diff = (pe - te)[..., stats.kept]
    err = np.sqrt(np.sum(diff * diff, axis=-1))
    return float(err) if err.ndim == 0 else err


def zero_velocity_predict(seed: np.ndarray, target_frames: int) -> np.ndarray:
    """Baseline predictor: repeat the last observed frame of each
    ``[..., t, L]`` seed."""
    seed = np.asarray(seed)
    return np.repeat(seed[..., -1:, :], target_frames, axis=-2)


# ---------------------------------------------------------------------------
# Horizon reports
# ---------------------------------------------------------------------------


@dataclass
class HorizonReport:
    horizons_ms: tuple
    errors: dict  # action -> {ms -> mean error}
    num_sequences: int
    # wall time of the predictor call and of the scoring; not in to_csv()
    predict_s: float = field(default=0.0, compare=False)
    score_s: float = field(default=0.0, compare=False)

    @property
    def actions(self) -> list:
        return sorted(self.errors)

    def average(self) -> dict:
        """All-action mean per horizon."""
        out = {}
        for ms in self.horizons_ms:
            out[ms] = float(np.mean([self.errors[a][ms] for a in self.actions]))
        return out

    def to_csv(self) -> str:
        lines = ["action,ms,error"]
        for action in self.actions:
            for ms in self.horizons_ms:
                lines.append(f"{action},{ms},{self.errors[action][ms]!r}")
        for ms, err in self.average().items():
            lines.append(f"Average,{ms},{err!r}")
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        name_w = max(len("Average"), *(len(a) for a in self.actions)) + 2
        header = "ms".ljust(name_w) + "".join(f"{ms:>8d}" for ms in self.horizons_ms)
        rows = [header, "-" * len(header)]
        for action in self.actions:
            row = action.ljust(name_w)
            row += "".join(f"{self.errors[action][ms]:8.3f}"
                           for ms in self.horizons_ms)
            rows.append(row)
        avg = self.average()
        rows.append("Average".ljust(name_w)
                    + "".join(f"{avg[ms]:8.3f}" for ms in self.horizons_ms))
        return "\n".join(rows) + "\n"


def evaluate(predictor: Callable[[np.ndarray], np.ndarray],
             test_sequences: Sequence[MotionSequence],
             stats: NormalizationStats, seed_frames: int, target_frames: int,
             num_sequences: int = 8, seed: int = 0,
             horizons_ms=HORIZONS_MS_DEFAULT,
             frame_ms: float = FRAME_MS_DEFAULT,
             dump_dir=None) -> HorizonReport:
    """Score a predictor on randomly drawn windows, per action and horizon.

    ``predictor`` maps normalized ``[N, t, L]`` seeds to normalized
    ``[N, T, L]`` predictions, with N = actions x ``num_sequences``; it is
    called once per report, on every action's windows in sorted-action
    order. Windows are drawn deterministically from ``seed``, each action
    from its own stream; the same seed always yields the same report.
    """
    R.check(num_sequences=num_sequences, seed=seed)
    frames_at = horizon_frames(horizons_ms, frame_ms)
    if max(frames_at) > target_frames:
        raise ValueError(
            f"longest horizon needs frame {max(frames_at)} but only "
            f"{target_frames} frames are predicted"
        )
    window_len = seed_frames + target_frames
    by_action: dict = {}
    for seq in test_sequences:
        if seq.num_frames >= window_len:
            by_action.setdefault(seq.action, []).append(seq)
    if not by_action:
        raise ValueError(f"no test trial is long enough for {window_len} frames")

    actions = sorted(by_action)
    windows = []
    for a_idx, action in enumerate(actions):
        seqs = by_action[action]
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([int(seed), a_idx])))
        for _ in range(num_sequences):
            seq = seqs[int(rng.integers(0, len(seqs)))]
            offset = int(rng.integers(0, seq.num_frames - window_len + 1))
            windows.append(seq.frames[offset:offset + window_len])
    windows = np.stack(windows)

    t0 = perf_counter()
    pred_norm = np.asarray(predictor(windows[:, :seed_frames]))
    predict_s = perf_counter() - t0
    expected = (len(windows), target_frames, windows.shape[2])
    if pred_norm.shape != expected:
        raise ValueError(
            f"predictor returned shape {pred_norm.shape}, expected {expected}"
        )
    finite = np.isfinite(pred_norm).all(axis=(1, 2))
    if not finite.all():
        a_idx, s_idx = divmod(int(np.argmin(finite)), num_sequences)
        raise ValueError(f"prediction for action {actions[a_idx]!r} window "
                         f"{s_idx} is not finite")

    t0 = perf_counter()
    pred_raw = denormalize_frames(pred_norm, stats)
    truth_raw = denormalize_frames(windows[:, seed_frames:], stats)
    # [A, n, H]: summed over windows in draw order, then averaged
    per_window = np.stack([euler_error(pred_raw, truth_raw, f - 1, stats)
                           for f in frames_at], axis=-1)
    means = per_window.reshape(len(actions), num_sequences, -1).sum(axis=1) \
        / num_sequences
    errors = {action: {ms: float(means[a_idx, h])
                       for h, ms in enumerate(horizons_ms)}
              for a_idx, action in enumerate(actions)}
    score_s = perf_counter() - t0

    if dump_dir is not None:
        out = Path(dump_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, frames in enumerate(pred_raw):
            a_idx, s_idx = divmod(i, num_sequences)
            (out / f"{actions[a_idx]}_{s_idx}.txt").write_text(format_trial(frames))
    return HorizonReport(tuple(horizons_ms), errors, num_sequences,
                         predict_s=predict_s, score_s=score_s)


def model_predictor(params: M.ModelParams, hp: M.HyperParams):
    """Wrap trained parameters as an eval-mode ``[N, t, L]`` seeds ->
    ``[N, T, L]`` predictions function (one batched ``predict_sequence``)."""

    def predict(seed_norm: np.ndarray) -> np.ndarray:
        return M.predict_sequence(seed_norm, params, hp, mode="eval").data

    return predict

