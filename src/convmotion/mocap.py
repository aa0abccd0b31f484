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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

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


def parse_trial(data, action="unknown", subject="unknown",
                trial_id=0) -> RawTrial:
    """Parse comma-separated frames; every line must carry the same width."""
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    else:
        text = data
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
        raise ParseError("file contains non-finite values")
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
    return parse_trial(Path(path).read_text(), action=action, subject=subject,
                       trial_id=trial_id)


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
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("stats document is not a JSON object")
        if doc.get("format") != STATS_FORMAT:
            raise ValueError(f"not a stats document: format={doc.get('format')!r}")
        if doc.get("version") != STATS_VERSION:
            raise ValueError(f"unsupported stats version {doc.get('version')!r}")
        missing = [f.name for f in fields(cls) if f.name not in doc]
        if missing:
            raise ValueError(f"stats document has no {', '.join(missing)}")
        return cls(
            mean=np.asarray(doc["mean"], dtype=np.float64),
            std=np.asarray(doc["std"], dtype=np.float64),
            kept=np.asarray(doc["kept"], dtype=bool),
            eps_const=float(doc["eps_const"]),
            global_dims=int(doc["global_dims"]),
        )

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
    if not 0.0 < eps_const < math.inf:
        raise ValueError(f"eps_const must be finite and > 0, got {eps_const}")
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

    def to_json(self) -> str:
        def encode(refs):
            return [
                {"subject": r.subject, "action": r.action, "trial": r.trial,
                 "path": r.path}
                for r in refs
            ]

        doc = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "frame_ms": self.frame_ms,
            "train": encode(self.train),
            "test": encode(self.test),
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def save(self, path) -> None:
        path = Path(path)
        path.write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        """Read a manifest; one that is not a JSON object, has no
        ``frame_ms``, ``train`` or ``test``, has a ``frame_ms`` that is not a
        finite number > 0, or has a trial entry without one of its keys,
        raises ``ValueError`` naming the file."""
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:
            raise ValueError(f"{path}: manifest is not JSON: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
            raise ValueError(f"not a dataset manifest: {path}")
        missing = [k for k in ("frame_ms", "train", "test") if k not in doc]
        if missing:
            raise ValueError(f"{path}: manifest has no {', '.join(missing)}")
        frame_ms = doc["frame_ms"]
        if not (isinstance(frame_ms, (int, float)) and math.isfinite(frame_ms)
                and frame_ms > 0):
            raise ValueError(f"{path}: frame_ms must be a finite number > 0, "
                             f"got {frame_ms!r}")

        def decode(split):
            refs = []
            for i, e in enumerate(doc[split]):
                missing = [k for k in ("subject", "action", "trial", "path")
                           if not isinstance(e, dict) or k not in e]
                if missing:
                    raise ValueError(f"{path}: {split} trial {i} has no "
                                     f"{', '.join(missing)}")
                refs.append(TrialRef(e["subject"], e["action"], int(e["trial"]),
                                     e["path"]))
            return refs

        return cls(train=decode("train"), test=decode("test"),
                   frame_ms=float(frame_ms), root=path.parent)


def manifest_from_tree(root) -> DatasetManifest:
    """Scan a ``<root>/<subject>/<action>_<trial>.txt`` tree into a manifest.

    Every trial under ``TEST_SUBJECT`` lands in the test split; all other
    subjects train. One warning names the ``.txt`` files not so named.
    """
    root = Path(root)
    train_refs, test_refs, skipped = [], [], []
    for subject_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        subject = subject_dir.name
        for path in sorted(subject_dir.glob("*.txt")):
            stem = path.stem
            action, _, trial_str = stem.rpartition("_")
            if not action or not trial_str.isdigit():
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
