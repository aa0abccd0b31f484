"""Motion-capture ingestion and preprocessing.

Trials are plain text files, one frame per line, comma-separated joint angles
in exponential-map parameterization with a leading global translation and
root-orientation block. Preprocessing pools per-dimension statistics over the
training trials, drops near-constant dimensions, zeroes the global block, and
standardizes the rest. Rotation conversions provide the exponential-map ->
rotation matrix -> Euler-angle chain used by the evaluation metric.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import ranges as R

log = logging.getLogger(__name__)

# One predicted frame spans 40 ms: the 25-frame horizon covers one second.
FRAME_MS_DEFAULT = 40.0
# Leading global block: 3 translation + 3 root-orientation dimensions.
GLOBAL_DIMS_DEFAULT = 6
EPS_CONST_DEFAULT = 1e-4
# manifest_from_tree puts TEST_SUBJECT's trials in the test split;
# generate_corpus writes its train trials under TRAIN_SUBJECT
TEST_SUBJECT = "S5"
TRAIN_SUBJECT = "S1"

STATS_FORMAT = "convmotion-stats"
STATS_VERSION = 1
MANIFEST_FORMAT = "convmotion-manifest"
MANIFEST_VERSION = 1


class ParseError(ValueError):
    """Malformed trial file."""


# ---------------------------------------------------------------------------
# Trial files
# ---------------------------------------------------------------------------


@dataclass
class RawTrial:
    """One recorded motion trial in raw (unnormalized) angle space."""

    frames: np.ndarray  # [num_frames, raw_dim]
    action: str = "unknown"
    subject: str = "unknown"
    trial_id: int = 0

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def raw_dim(self) -> int:
        return self.frames.shape[1]


def parse_trial(text: str, action="unknown", subject="unknown",
                trial_id=0) -> RawTrial:
    """Parse comma-separated frames; every line must carry the same width."""
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(
                f"line {lineno}: expected {width} values, got {len(tokens)}"
            )
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError:
            bad = next(tok for tok in tokens if not _is_float(tok))
            raise ParseError(f"line {lineno}: invalid number {bad.strip()!r}") from None
    if not rows:
        raise ParseError("empty file")
    frames = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(frames)):
        row, col = np.argwhere(~np.isfinite(frames))[0]
        lineno, line = [(n, line) for n, line in
                        enumerate(text.splitlines(), start=1)
                        if line.strip()][row]
        raise ParseError(f"line {lineno}: non-finite value "
                         f"{line.split(',')[col].strip()!r}")
    return RawTrial(frames, action=action, subject=subject, trial_id=trial_id)


def _is_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def format_trial(frames: np.ndarray) -> str:
    """Serialize frames so that a parse round-trips bit-exactly (repr floats)."""
    frames = np.asarray(frames, dtype=np.float64)
    buf = io.StringIO()
    for row in frames:
        buf.write(",".join(repr(float(v)) for v in row))
        buf.write("\n")
    return buf.getvalue()


def write_trial(frames: np.ndarray, path) -> None:
    Path(path).write_text(format_trial(frames))


def load_trial(path, action="unknown", subject="unknown",
               trial_id=0) -> RawTrial:
    """Read and parse a trial file; a parse or decode error names it."""
    try:
        return parse_trial(Path(path).read_text(), action=action,
                           subject=subject, trial_id=trial_id)
    except ValueError as exc:  # a ParseError or a UnicodeDecodeError
        raise ParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


@dataclass
class NormalizationStats:
    """Per-dimension mean/std plus the kept-dimension mask.

    A dimension is masked out when its pooled population standard deviation
    falls below ``eps_const``; the leading ``global_dims`` dimensions
    (translation and root orientation) are always masked.
    """

    mean: np.ndarray
    std: np.ndarray
    kept: np.ndarray  # bool mask, True = kept
    eps_const: float = EPS_CONST_DEFAULT
    global_dims: int = GLOBAL_DIMS_DEFAULT

    @property
    def raw_dim(self) -> int:
        return self.mean.shape[0]

    @property
    def reduced_dim(self) -> int:
        return int(self.kept.sum())

    # the stats file, as ``to_json`` writes it and ``ranges.read`` admits it
    DOCUMENT = {"format": (STATS_FORMAT,), "version": (STATS_VERSION,),
                "eps_const": "eps_const", "global_dims": "global_dims",
                "mean": ["mean"], "std": ["std"], "kept": [bool]}

    def to_json(self) -> str:
        doc = {
            "format": STATS_FORMAT,
            "version": STATS_VERSION,
            "eps_const": self.eps_const,
            "global_dims": self.global_dims,
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "kept": [bool(k) for k in self.kept],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NormalizationStats":
        doc = R.parse(text, cls.DOCUMENT)
        mean, std = (np.asarray(doc[k], dtype=np.float64) for k in ("mean", "std"))
        kept, eps = np.asarray(doc["kept"], dtype=bool), float(doc["eps_const"])
        if not mean.shape == std.shape == kept.shape:
            raise ValueError(f"mean, std and kept must be lists of one length, "
                             f"got shapes {mean.shape}, {std.shape}, {kept.shape}")
        low = np.flatnonzero(kept & (std < eps))
        if low.size:
            raise ValueError(f"kept dimension {low[0]} has std "
                             f"{std[low[0]]}, below eps_const {eps!r}")
        if kept[:doc["global_dims"]].any():
            raise ValueError(f"kept dimension {np.argmax(kept)} is one of the "
                             f"{doc['global_dims']} global dimensions")
        return cls(mean, std, kept, eps, doc["global_dims"])

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "NormalizationStats":
        """Read a stats file; a malformed one raises ``ValueError`` naming
        the file."""
        try:
            return cls.from_json(Path(path).read_text())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


@dataclass
class MotionSequence:
    """One trial's frames in normalized reduced space."""

    frames: np.ndarray  # [num_frames, reduced_dim]
    action: str

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def pose_dim(self) -> int:
        return self.frames.shape[1]


def fit_stats(trials: Sequence[RawTrial], eps_const: float = EPS_CONST_DEFAULT,
              global_dims: int = GLOBAL_DIMS_DEFAULT) -> NormalizationStats:
    """Pool mean/std over all frames of all trials (population convention)."""
    R.check(eps_const=eps_const, global_dims=global_dims)
    trials = list(trials)
    if not trials:
        raise ValueError("fit_stats requires at least one trial")
    width = trials[0].raw_dim
    for t in trials:
        if t.raw_dim != width:
            raise ValueError(
                f"trial width mismatch: expected {width}, got {t.raw_dim} "
                f"({t.subject}/{t.action}_{t.trial_id})"
            )
    pooled = np.concatenate([t.frames for t in trials], axis=0)
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)  # ddof=0
    kept = std >= eps_const
    kept[:global_dims] = False
    if not kept.any():
        raise ValueError(f"no dimension is kept: all {width} are global or "
                         f"vary less than eps_const {eps_const}")
    return NormalizationStats(mean=mean, std=std, kept=kept,
                              eps_const=eps_const, global_dims=global_dims)


def normalize(trial: RawTrial, stats: NormalizationStats) -> MotionSequence:
    return MotionSequence(normalize_frames(trial.frames, stats), trial.action)


def normalize_frames(frames: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != stats.raw_dim:
        raise ValueError(
            f"frames of width {frames.shape[-1]} do not match stats width {stats.raw_dim}"
        )
    kept = stats.kept
    return (frames[:, kept] - stats.mean[kept]) / stats.std[kept]


def denormalize_frames(frames: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Expand reduced frames ``[..., reduced_dim]`` back to raw width
    ``[..., raw_dim]``; masked dims come back as zero."""
    frames = np.asarray(frames, dtype=np.float64)
    width = frames.shape[-1] if frames.ndim else None
    if width != stats.reduced_dim:
        raise ValueError(
            f"frames of width {width} do not match reduced width "
            f"{stats.reduced_dim}"
        )
    out = np.zeros(frames.shape[:-1] + (stats.raw_dim,), dtype=np.float64)
    kept = stats.kept
    out[..., kept] = frames * stats.std[kept] + stats.mean[kept]
    return out


# ---------------------------------------------------------------------------
# Rotation conversions
# ---------------------------------------------------------------------------


def expmap_to_rotmat(r) -> np.ndarray:
    """Rodrigues formula over the last axis: ``[..., 3]`` exponential maps
    to ``[..., 3, 3]`` rotations. Below theta=1e-8 the second-order series
    ``I + K + K^2 / 2`` is used."""
    r = np.asarray(r, dtype=np.float64)
    if r.ndim < 1 or r.shape[-1] != 3:
        raise ValueError(f"exponential map must be a 3-vector, got shape {r.shape}")
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    zero = np.zeros_like(x)
    K = np.stack([zero, -z, y, z, zero, -x, -y, x, zero],
                 axis=-1).reshape(r.shape + (3,))
    theta = np.sqrt(x * x + y * y + z * z)
    small = theta < 1e-8
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(safe) / safe)[..., None, None]
    b = np.where(small, 0.5, (1.0 - np.cos(safe)) / (safe * safe))[..., None, None]
    return np.eye(3) + a * K + b * (K @ K)


_EULER_ORTHO_TOL = 1e-6


def rotmat_to_euler(R) -> np.ndarray:
    """Decompose ``[..., 3, 3]`` rotations into ``[..., 3]`` Euler angles
    ``(e1, e2, e3)``.

    Convention: ``R == rot_x(-e1) @ rot_y(-e2) @ rot_z(-e3)`` (the benchmark
    convention for this metric, keyed off ``R[0, 2]``). Gimbal lock
    (``|R[0, 2]| == 1``) takes the degenerate branch with ``e3 = 0``. A
    batch holding any matrix that is not orthonormal, or not finite, is
    refused whole.
    """
    R = np.asarray(R, dtype=np.float64)
    if R.ndim < 2 or R.shape[-2:] != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got shape {R.shape}")
    err = float(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(3)).max(initial=0.0))
    # a NaN anywhere makes err NaN, which must be refused too
    if not err <= _EULER_ORTHO_TOL:
        raise ValueError(
            f"matrix is not orthonormal (max |R^T R - I| = {err:.3e})"
        )
    s = R[..., 0, 2]
    lock = np.abs(s) >= 1.0 - 1e-12
    # R[0, 2] == -1 gives e2 = pi/2 and e1 = atan2(R[1, 0], R[1, 1]);
    # R[0, 2] == +1 gives e2 = -pi/2 and e1 = atan2(-R[1, 0], R[1, 1])
    sign = np.where(s < 0.0, 1.0, -1.0)
    e2 = np.where(lock, sign * (math.pi / 2.0), -np.arcsin(np.where(lock, 0.0, s)))
    c = np.where(lock, 1.0, np.cos(e2))
    e1 = np.where(lock, np.arctan2(sign * R[..., 1, 0], R[..., 1, 1]),
                  np.arctan2(R[..., 1, 2] / c, R[..., 2, 2] / c))
    e3 = np.where(lock, 0.0, np.arctan2(R[..., 0, 1] / c, R[..., 0, 0] / c))
    return np.stack([e1, e2, e3], axis=-1)


# ---------------------------------------------------------------------------
# Dataset manifests
# ---------------------------------------------------------------------------


# an action names trial files and the files ``eval --dump`` writes, and fills
# one cell of a report CSV row
ACTION = "a non-empty name without '/', '\\', ',' or a line break"


def is_action(name: str) -> bool:
    """Whether ``name`` is an action name, as ``ACTION`` reads."""
    return name.splitlines() == [name] and not any(c in name for c in "/\\,")


@dataclass
class TrialRef:
    subject: str
    action: str
    trial: int
    path: str  # relative to the manifest's directory


@dataclass
class DatasetManifest:
    train: list
    test: list
    frame_ms: float = FRAME_MS_DEFAULT
    root: Optional[Path] = None  # set when loaded from disk

    # the manifest, as ``to_json`` writes it and ``ranges.read`` admits it
    TRIAL = {"subject": str, "action": str, "trial": "trial", "path": str}
    DOCUMENT = {"format": (MANIFEST_FORMAT,), "version": (MANIFEST_VERSION,),
                "frame_ms": "frame_ms", "train": [TRIAL], "test": [TRIAL]}

    def to_json(self) -> str:
        doc = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "frame_ms": self.frame_ms,
            "train": [vars(r) for r in self.train],
            "test": [vars(r) for r in self.test],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def save(self, path) -> None:
        path = Path(path)
        path.write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        """Read a manifest; one that is not JSON or that ``DOCUMENT`` does
        not admit raises ``ValueError`` naming the file and the key."""
        path = Path(path)
        try:
            doc = R.parse(path.read_text(), cls.DOCUMENT)
            for split in ("train", "test"):
                for i, entry in enumerate(doc[split]):
                    if not is_action(entry["action"]):
                        raise ValueError(f"{split}[{i}].action must be "
                                         f"{ACTION}, got {entry['action']!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return cls(train=[TrialRef(**e) for e in doc["train"]],
                   test=[TrialRef(**e) for e in doc["test"]],
                   frame_ms=float(doc["frame_ms"]), root=path.parent)


def manifest_from_tree(root) -> DatasetManifest:
    """Scan a ``<root>/<subject>/<action>_<trial>.txt`` tree into a manifest.

    Every trial under ``TEST_SUBJECT`` lands in the test split; all other
    subjects train. One warning names the ``.txt`` files not so named, or
    whose action is not ``ACTION``.
    """
    root = Path(root)
    train_refs, test_refs, skipped = [], [], []
    for subject_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        subject = subject_dir.name
        for path in sorted(subject_dir.glob("*.txt")):
            stem = path.stem
            action, _, trial_str = stem.rpartition("_")
            if not is_action(action) or not trial_str.isdigit():
                skipped.append(f"{subject}/{path.name}")
                continue
            ref = TrialRef(subject, action, int(trial_str),
                           f"{subject}/{path.name}")
            (test_refs if subject == TEST_SUBJECT else train_refs).append(ref)
    if skipped:
        log.warning("skipped %d .txt file(s) not named <action>_<trial>.txt "
                    "under %s: %s", len(skipped), root, ", ".join(skipped))
    if not train_refs:
        raise ValueError(f"no trials found under {root}")
    return DatasetManifest(train=train_refs, test=test_refs, root=root)


def load_split(manifest: DatasetManifest, split: str) -> list:
    """Load and parse every trial of ``split`` ('train' or 'test')."""
    if split not in ("train", "test"):
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    if manifest.root is None:
        raise ValueError("manifest has no root directory; load it from disk")
    refs = manifest.train if split == "train" else manifest.test
    trials = []
    for ref in refs:
        trials.append(load_trial(manifest.root / ref.path, action=ref.action,
                                 subject=ref.subject, trial_id=ref.trial))
    return trials


# ---------------------------------------------------------------------------
# Synthetic corpus
# ---------------------------------------------------------------------------


def synthetic_trial_frames(rng: np.random.Generator, joints: int, frames: int,
                           freq_lo: float, freq_hi: float) -> np.ndarray:
    """Sum-of-sinusoids joint angles with per-joint phase coupling.

    Produces ``[frames, 6 + 3*joints]`` rows: a zero global block followed by
    three angle dimensions per joint. Neighbouring joints share the base
    frequency but are offset in phase, giving wave-like coordinated motion.
    """
    raw_dim = GLOBAL_DIMS_DEFAULT + 3 * joints
    out = np.zeros((frames, raw_dim))
    t = np.arange(frames) * (FRAME_MS_DEFAULT / 1000.0)
    base_freq = rng.uniform(freq_lo, freq_hi)
    trial_phase = rng.uniform(0.0, 2.0 * math.pi)
    for j in range(joints):
        joint_phase = 2.0 * math.pi * j / joints + trial_phase
        for d in range(3):
            col = GLOBAL_DIMS_DEFAULT + 3 * j + d
            amp = rng.uniform(0.3, 0.8)
            harmonic = 1.0 + d * 0.5
            dim_phase = rng.uniform(-0.4, 0.4)
            offset = rng.uniform(-0.3, 0.3)
            out[:, col] = offset + amp * np.sin(
                2.0 * math.pi * base_freq * harmonic * t + joint_phase + dim_phase
            )
    return out


def generate_corpus(root, actions=("walk", "swing", "wave"), joints: int = 8,
                    frames: int = 240, freq_lo: float = 0.2, freq_hi: float = 0.6,
                    seed: int = 0, train_trials: int = 2,
                    test_trials: int = 2) -> Path:
    """Write a synthetic corpus tree plus its manifest; returns the manifest path."""
    R.check(joints=joints, frames=frames, train_trials=train_trials,
            test_trials=test_trials, seed=seed)
    if (not actions or len(set(actions)) < len(actions)
            or not all(map(is_action, actions))):
        raise ValueError(f"actions must be one or more distinct non-empty "
                         f"names, got {list(actions)}; each must be {ACTION}")
    if not 0.0 < freq_lo <= freq_hi < math.inf:
        raise ValueError(f"freq_lo and freq_hi must satisfy 0 < freq_lo <= "
                         f"freq_hi < inf, got {freq_lo} and {freq_hi}")
    root = Path(root)
    rng = np.random.default_rng(seed)
    train_refs, test_refs = [], []
    for action in actions:
        for split, subject, count, refs in (
            ("train", TRAIN_SUBJECT, train_trials, train_refs),
            ("test", TEST_SUBJECT, test_trials, test_refs),
        ):
            subject_dir = root / subject
            subject_dir.mkdir(parents=True, exist_ok=True)
            for trial in range(1, count + 1):
                data = synthetic_trial_frames(rng, joints, frames, freq_lo,
                                              freq_hi)
                rel = f"{subject}/{action}_{trial}.txt"
                write_trial(data, root / rel)
                refs.append(TrialRef(subject, action, trial, rel))
    manifest = DatasetManifest(train=train_refs, test=test_refs, root=root)
    manifest_path = root / "manifest.json"
    manifest.save(manifest_path)
    return manifest_path
