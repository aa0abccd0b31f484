"""Sequence-to-sequence motion predictor.

Two convolutional encoders share one architecture (three stride-2 conv layers
with a rectangular 2x7 kernel, then one affine layer to a 512-dim code): the
long-term encoder digests the whole seed sequence once, the short-term encoder
re-encodes a sliding window of the most recent ``C`` frames at every decoding
step. A two-layer spatial decoder maps the concatenated codes to a pose
residual added onto the previous frame, so a zeroed decoder reproduces the
last seed frame forever (the zero-velocity baseline). A discriminator with the
same convolutional trunk scores full sequences for the adversarial
regularizer.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

CHECKPOINT_MAGIC = b"CMOT"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperParams:
    """All training/architecture knobs with their default operating point.

    ``seed_frames``/``target_frames`` are the observed and predicted sequence
    lengths (t and T), ``window`` the short-term encoder width (C), ``eta``
    the train-time blend between predicted and ground-truth frames inside the
    decoding window (1.0 = fully closed loop).
    """

    seed_frames: int = 50
    target_frames: int = 25
    window: int = 20
    eta: float = 1.0
    lambda_l2: float = 0.001
    lambda_adv: float = 0.01
    learning_rate: float = 0.0002
    batch_size: int = 64
    dropout: float = 0.5
    leaky_slope: float = 0.2
    channels: tuple = (64, 128, 128)
    fc_out: int = 512
    kernel: tuple = (2, 7)
    stride: tuple = (2, 2)
    no_long_term: bool = False
    adversarial: bool = True

    def __post_init__(self):
        if not 0 < self.window <= self.seed_frames:
            raise ValueError(
                f"window must satisfy 0 < C <= seed_frames, got C={self.window} "
                f"t={self.seed_frames}"
            )
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if len(self.channels) != 3:
            raise ValueError(f"exactly three conv layers expected, got {self.channels}")

    @property
    def effective_lambda_adv(self) -> float:
        return self.lambda_adv if self.adversarial else 0.0

    def long_cem(self, pose_dim: int) -> "CemConfig":
        return CemConfig(self.seed_frames, pose_dim, tuple(self.channels),
                         tuple(self.kernel), tuple(self.stride), self.fc_out,
                         self.dropout, self.leaky_slope)

    def short_cem(self, pose_dim: int) -> "CemConfig":
        return CemConfig(self.window, pose_dim, tuple(self.channels),
                         tuple(self.kernel), tuple(self.stride), self.fc_out,
                         self.dropout, self.leaky_slope)

    def discriminator_cem(self, pose_dim: int) -> "CemConfig":
        # scores [seed, target] as one grid; no dropout in the discriminator
        return CemConfig(self.seed_frames + self.target_frames, pose_dim,
                         tuple(self.channels), tuple(self.kernel),
                         tuple(self.stride), self.fc_out, 0.0, self.leaky_slope)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "HyperParams":
        kw = dict(doc)
        for key in ("channels", "kernel", "stride"):
            if key in kw:
                kw[key] = tuple(kw[key])
        return cls(**kw)


@dataclass(frozen=True)
class CemConfig:
    """Shape contract for one convolutional encoding module."""

    input_frames: int
    pose_dim: int
    channels: tuple = (64, 128, 128)
    kernel: tuple = (2, 7)
    stride: tuple = (2, 2)
    fc_out: int = 512
    dropout: float = 0.5
    leaky_slope: float = 0.2

    def grid_trace(self):
        """Per-layer (height, width) grids, input first."""
        h, w = self.input_frames, self.pose_dim
        grids = [(h, w)]
        for _ in self.channels:
            h = -(-h // self.stride[0])
            w = -(-w // self.stride[1])
            grids.append((h, w))
        return grids

    @property
    def flat_dim(self) -> int:
        h, w = self.grid_trace()[-1]
        return self.channels[-1] * h * w


def same_padding(extent: int, kernel: int, stride: int) -> int:
    """Symmetric zero padding so a strided layer yields ceil(extent/stride)."""
    target = -(-extent // stride)
    total = max(0, (target - 1) * stride + kernel - extent)
    return -(-total // 2)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass
class CemParams:
    """Three conv kernel+bias pairs and one affine pair."""

    conv_kernels: list
    conv_biases: list
    fc_weight: Tensor
    fc_bias: Tensor

    @classmethod
    def init(cls, cfg: CemConfig, rng: np.random.Generator,
             dtype=np.float64) -> "CemParams":
        kernels, biases = [], []
        cin = 1
        for cout in cfg.channels:
            kernels.append(_uniform_fan_in(rng, (cout, cin, *cfg.kernel),
                                           cin * cfg.kernel[0] * cfg.kernel[1],
                                           dtype))
            biases.append(ad.zeros(cout, requires_grad=True, dtype=dtype))
            cin = cout
        fc_w = _uniform_fan_in(rng, (cfg.fc_out, cfg.flat_dim), cfg.flat_dim, dtype)
        fc_b = ad.zeros(cfg.fc_out, requires_grad=True, dtype=dtype)
        return cls(kernels, biases, fc_w, fc_b)

    def named(self, prefix: str) -> dict:
        out = {}
        for i, (k, b) in enumerate(zip(self.conv_kernels, self.conv_biases), 1):
            out[f"{prefix}.conv{i}.kernel"] = k
            out[f"{prefix}.conv{i}.bias"] = b
        out[f"{prefix}.fc.weight"] = self.fc_weight
        out[f"{prefix}.fc.bias"] = self.fc_bias
        return out


@dataclass
class DecoderParams:
    """Two affine pairs: 2*fc_out -> fc_out -> pose_dim."""

    fc1_weight: Tensor
    fc1_bias: Tensor
    fc2_weight: Tensor
    fc2_bias: Tensor

    @classmethod
    def init(cls, fc_out: int, pose_dim: int, rng: np.random.Generator,
             dtype=np.float64) -> "DecoderParams":
        w1 = _uniform_fan_in(rng, (fc_out, 2 * fc_out), 2 * fc_out, dtype)
        b1 = ad.zeros(fc_out, requires_grad=True, dtype=dtype)
        # final layer starts at zero: the untrained model is the
        # zero-velocity baseline (pure residual identity)
        w2 = ad.zeros((pose_dim, fc_out), requires_grad=True, dtype=dtype)
        b2 = ad.zeros(pose_dim, requires_grad=True, dtype=dtype)
        return cls(w1, b1, w2, b2)

    def named(self, prefix: str = "decoder") -> dict:
        return {
            f"{prefix}.fc1.weight": self.fc1_weight,
            f"{prefix}.fc1.bias": self.fc1_bias,
            f"{prefix}.fc2.weight": self.fc2_weight,
            f"{prefix}.fc2.bias": self.fc2_bias,
        }


@dataclass
class DiscriminatorParams:
    """Encoder-shaped conv trunk plus a single-logit affine head."""

    cem: CemParams
    head_weight: Tensor
    head_bias: Tensor

    @classmethod
    def init(cls, cfg: CemConfig, rng: np.random.Generator,
             dtype=np.float64) -> "DiscriminatorParams":
        cem = CemParams.init(cfg, rng, dtype)
        w = _uniform_fan_in(rng, (1, cfg.fc_out), cfg.fc_out, dtype)
        b = ad.zeros(1, requires_grad=True, dtype=dtype)
        return cls(cem, w, b)

    def named(self, prefix: str = "disc") -> dict:
        out = self.cem.named(f"{prefix}.cem")
        out[f"{prefix}.head.weight"] = self.head_weight
        out[f"{prefix}.head.bias"] = self.head_bias
        return out


@dataclass
class ModelParams:
    long_encoder: CemParams
    short_encoder: CemParams
    decoder: DecoderParams
    discriminator: DiscriminatorParams

    def generator_named(self, include_long: bool = True) -> dict:
        out = {}
        if include_long:
            out.update(self.long_encoder.named("long"))
        out.update(self.short_encoder.named("short"))
        out.update(self.decoder.named("decoder"))
        return out

    def discriminator_named(self) -> dict:
        return self.discriminator.named("disc")

    def all_named(self) -> dict:
        out = self.generator_named(include_long=True)
        out.update(self.discriminator_named())
        return out


def _uniform_fan_in(rng, shape, fan_in, dtype) -> Tensor:
    # uniform(-sqrt(6/fan_in), +sqrt(6/fan_in)): keeps activation variance
    # roughly unit through the stacked leaky-ReLU conv layers
    bound = np.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype),
                  requires_grad=True)


def init_params(hp: HyperParams, pose_dim: int, rng: np.random.Generator,
                dtype=np.float64) -> ModelParams:
    long_p = CemParams.init(hp.long_cem(pose_dim), rng, dtype)
    short_p = CemParams.init(hp.short_cem(pose_dim), rng, dtype)
    dec_p = DecoderParams.init(hp.fc_out, pose_dim, rng, dtype)
    disc_p = DiscriminatorParams.init(hp.discriminator_cem(pose_dim), rng, dtype)
    return ModelParams(long_p, short_p, dec_p, disc_p)


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _as_batched(frames) -> tuple:
    """Promote [n, L] to [1, n, L]; returns (tensor, was_batched)."""
    if not isinstance(frames, Tensor):
        frames = Tensor(np.asarray(frames, dtype=np.float64))
    if frames.ndim == 2:
        return ad.reshape(frames, (1, *frames.shape)), False
    if frames.ndim == 3:
        return frames, True
    raise ad.ShapeError(f"expected [n, L] or [B, n, L] frames, got {frames.shape}")


def cem_forward(frames, params: CemParams, cfg: CemConfig, mode: str = "eval",
                rng: Optional[np.random.Generator] = None) -> Tensor:
    """Encode a frame grid into a fixed-width code.

    The frames form a one-channel image, time along the height axis and pose
    dimension along the width axis. Each conv layer applies symmetric
    "same"-style zero padding, stride-2 subsampling, and a leaky ReLU; dropout
    sits between the last conv layer and the affine map.
    """
    x, batched = _as_batched(frames)
    B, n, L = x.shape
    if n != cfg.input_frames:
        raise ad.ShapeError(
            f"encoder expects {cfg.input_frames} frames, got {n}"
        )
    if L != cfg.pose_dim:
        raise ad.ShapeError(f"encoder expects pose dim {cfg.pose_dim}, got {L}")
    h = ad.reshape(x, (B, 1, n, L))
    kH, kW = cfg.kernel
    sH, sW = cfg.stride
    for kern, bias in zip(params.conv_kernels, params.conv_biases):
        _, _, gh, gw = h.shape
        pad = (same_padding(gh, kH, sH), same_padding(gw, kW, sW))
        h = ad.conv2d(h, kern, bias, stride=(sH, sW), padding=pad)
        h = ad.leaky_relu(h, cfg.leaky_slope)
    h = ad.dropout(h, cfg.dropout, mode=mode, rng=rng)
    h = ad.reshape(h, (B, -1))
    code = ad.linear(h, params.fc_weight, params.fc_bias)
    return code if batched else ad.reshape(code, (cfg.fc_out,))


def decode_step(zl: Tensor, zs: Tensor, prev: Tensor, params: DecoderParams,
                hp: HyperParams, mode: str = "eval",
                rng: Optional[np.random.Generator] = None) -> Tensor:
    """One residual decoding step: concat codes -> affine -> leaky ReLU ->
    dropout -> affine -> add previous frame."""
    h = ad.concat([zl, zs], axis=-1)
    squeeze = h.ndim == 1
    if squeeze:
        h = ad.reshape(h, (1, -1))
        prev_b = ad.reshape(prev, (1, -1))
    else:
        prev_b = prev
    h = ad.linear(h, params.fc1_weight, params.fc1_bias)
    h = ad.leaky_relu(h, hp.leaky_slope)
    h = ad.dropout(h, hp.dropout, mode=mode, rng=rng)
    h = ad.linear(h, params.fc2_weight, params.fc2_bias)
    out = ad.add(h, prev_b)
    return ad.reshape(out, prev.shape) if squeeze else out


def window_frame_ids(t: int, C: int, k: int) -> list:
    """Contents of the decoding window at step ``k`` (1-based).

    Slot ``j`` holds absolute frame ``t - C + k + j`` (1-based): seed frames
    up to ``t`` as ``("seed", zero_based_index)``, generated frames after as
    ``("pred", step_number)``.
    """
    if k < 1:
        raise ValueError(f"step must be >= 1, got {k}")
    ids = []
    for j in range(C):
        f = t - C + k + j
        if f <= t:
            ids.append(("seed", f - 1))
        else:
            ids.append(("pred", f - t))
    return ids


@dataclass
class StepTrace:
    """Per-step snapshot of the decoding window, for bookkeeping checks."""

    step: int
    ids: list
    window: np.ndarray  # [B, C, L] values the short encoder saw


def predict_sequence(seed, params: ModelParams, hp: HyperParams,
                     teacher=None, mode: str = "eval",
                     rng: Optional[np.random.Generator] = None,
                     trace: Optional[list] = None) -> Tensor:
    """Generate ``target_frames`` future poses from a seed sequence.

    The long-term code is computed once from the full seed and reused at
    every step. The short-term window slides one frame per step; window slots
    past the seed boundary hold ``eta * prediction + (1 - eta) * teacher``
    when a teacher sequence is given (train mode only), or pure predictions
    otherwise. The decoder output is a residual added to the previous
    predicted frame.
    """
    x, batched = _as_batched(seed)
    B, t, L = x.shape
    if t != hp.seed_frames:
        raise ad.ShapeError(f"seed must have {hp.seed_frames} frames, got {t}")
    if teacher is not None:
        if mode != "train":
            raise ValueError("a teacher sequence is only valid in train mode")
        teacher, _ = _as_batched(teacher)
        if teacher.shape != (B, hp.target_frames, L):
            raise ad.ShapeError(
                f"teacher must have shape {(B, hp.target_frames, L)}, "
                f"got {teacher.shape}"
            )
    C, T = hp.window, hp.target_frames

    if hp.no_long_term:
        # ablation: the long-term code is zero-filled, shapes preserved
        zl = ad.zeros((B, hp.fc_out), dtype=x.dtype)
    else:
        zl = cem_forward(x, params.long_encoder, hp.long_cem(L), mode=mode, rng=rng)

    seed_frames = [x[:, i, :] for i in range(t - C, t)]
    short_cfg = hp.short_cem(L)
    blended: list = []  # what the window sees for generated positions
    prev = seed_frames[-1]
    outputs = []
    for k in range(1, T + 1):
        ids = window_frame_ids(t, C, k)
        window = [seed_frames[idx - (t - C)] if kind == "seed" else blended[idx - 1]
                  for kind, idx in ids]
        win = ad.stack(window, axis=1)
        if trace is not None:
            trace.append(StepTrace(k, ids, win.data.copy()))
        zs = cem_forward(win, params.short_encoder, short_cfg, mode=mode, rng=rng)
        x_hat = decode_step(zl, zs, prev, params.decoder, hp, mode=mode, rng=rng)
        outputs.append(x_hat)
        if teacher is not None and hp.eta < 1.0:
            blended.append(ad.add(ad.mul(x_hat, hp.eta),
                                  ad.mul(teacher[:, k - 1, :], 1.0 - hp.eta)))
        else:
            blended.append(x_hat)  # at eta = 1 the blend is the identity
        prev = x_hat
    out = ad.stack(outputs, axis=1)
    return out if batched else ad.reshape(out, (T, L))


def discriminate(full, params: DiscriminatorParams, hp: HyperParams,
                 mode: str = "eval") -> Tensor:
    """Score a full [seed, target] sequence; returns probabilities in (0, 1)."""
    x, batched = _as_batched(full)
    B, n, L = x.shape
    cfg = hp.discriminator_cem(L)
    code = cem_forward(x, params.cem, cfg, mode=mode)
    logit = ad.linear(code, params.head_weight, params.head_bias)
    prob = ad.sigmoid(ad.reshape(logit, (B,)))
    return prob if batched else ad.reshape(prob, ())


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    hyper: HyperParams
    pose_dim: int
    stats_fingerprint: str
    tensors: dict
    extra: dict = field(default_factory=dict)

    def to_params(self) -> ModelParams:
        return params_from_tensors(self.tensors, requires_grad=True)


def save_checkpoint(path, hp: HyperParams, pose_dim: int, stats_fingerprint: str,
                    tensors: dict, extra: Optional[dict] = None) -> None:
    """Write a deterministic binary container (no timestamps, sorted names)."""
    names = sorted(tensors)
    entries = []
    blobs = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(tensors[name])
        raw = arr.tobytes()
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
            "offset": offset,
            "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    header = {
        "format": "convmotion-checkpoint",
        "version": CHECKPOINT_VERSION,
        "hyper": hp.to_dict(),
        "pose_dim": pose_dim,
        "stats_fingerprint": stats_fingerprint,
        "extra": extra or {},
        "tensors": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)))
        f.write(header_bytes)
        for raw in blobs:
            f.write(raw)


def load_checkpoint(path, expected_fingerprint: Optional[str] = None) -> Checkpoint:
    """Read a checkpoint; a truncated or corrupt file raises ``ValueError``."""
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(data) < 12:
        raise ValueError(f"{path}: truncated checkpoint ({len(data)} bytes)")
    version, header_len = struct.unpack("<II", data[4:12])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    base = 12 + header_len
    if base > len(data):
        raise ValueError(
            f"{path}: truncated checkpoint header ({header_len} bytes declared, "
            f"{len(data) - 12} present)")
    try:
        header = json.loads(data[12:base].decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: corrupt checkpoint header: {exc}") from None
    if (expected_fingerprint is not None
            and header["stats_fingerprint"] != expected_fingerprint):
        raise ValueError(
            f"{path}: checkpoint was trained against different normalization "
            f"stats (fingerprint {header['stats_fingerprint'][:12]}... != "
            f"{expected_fingerprint[:12]}...)"
        )
    tensors = {}
    end = base
    for e in header["tensors"]:
        dtype = np.dtype(e["dtype"])
        start = base + e["offset"]
        stop = start + e["nbytes"]
        need = math.prod(e["shape"]) * dtype.itemsize
        if e["nbytes"] != need:
            raise ValueError(
                f"{path}: tensor {e['name']!r} has {e['nbytes']} bytes, but "
                f"shape {e['shape']} of {dtype} needs {need}")
        if start < base or stop > len(data):
            raise ValueError(
                f"{path}: truncated checkpoint: tensor {e['name']!r} spans bytes "
                f"{start}-{stop} of {len(data)}")
        arr = np.frombuffer(data[start:stop], dtype=dtype).reshape(e["shape"])
        tensors[e["name"]] = arr.copy()
        end = max(end, stop)
    if end != len(data):
        raise ValueError(
            f"{path}: {len(data) - end} unexpected bytes after the last tensor")
    return Checkpoint(
        hyper=HyperParams.from_dict(header["hyper"]),
        pose_dim=int(header["pose_dim"]),
        stats_fingerprint=header["stats_fingerprint"],
        tensors=tensors,
        extra=header.get("extra", {}),
    )


def tensors_from_params(params: ModelParams) -> dict:
    return {name: t.data for name, t in params.all_named().items()}


def params_from_tensors(tensors: dict, requires_grad: bool = True) -> ModelParams:
    def grab(name):
        if name not in tensors:
            raise KeyError(f"checkpoint is missing tensor {name!r}")
        return Tensor(tensors[name].copy(), requires_grad=requires_grad)

    def cem(prefix):
        kernels, biases = [], []
        for i in (1, 2, 3):
            kernels.append(grab(f"{prefix}.conv{i}.kernel"))
            biases.append(grab(f"{prefix}.conv{i}.bias"))
        return CemParams(kernels, biases, grab(f"{prefix}.fc.weight"),
                         grab(f"{prefix}.fc.bias"))

    decoder = DecoderParams(grab("decoder.fc1.weight"), grab("decoder.fc1.bias"),
                            grab("decoder.fc2.weight"), grab("decoder.fc2.bias"))
    disc = DiscriminatorParams(cem("disc.cem"), grab("disc.head.weight"),
                               grab("disc.head.bias"))
    return ModelParams(cem("long"), cem("short"), decoder, disc)
