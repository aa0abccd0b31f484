"""Sequence-to-sequence motion predictor.

Two convolutional encoders share one architecture (three stride-2 conv layers
with a rectangular 2x7 kernel, then one affine layer to a 512-dim code): the
long-term encoder digests the whole seed sequence once, the short-term encoder
encodes a sliding window of the most recent ``C`` frames at every decoding
step, reading them in place from the seed batch and the decoded frames.
Consecutive windows share ``C - 1`` frames, so a per-sequence ``RowCache``,
which keys each conv row by the rows it reads, lets each step convolve only
the conv rows that its new frame reaches. A two-layer spatial decoder reads
the two codes as parts of one input, and its last layer adds its output onto
the previous frame, so a zeroed decoder reproduces the last seed frame
forever (the zero-velocity baseline). A discriminator with the same
convolutional trunk scores full sequences for the adversarial regularizer.
The sequences it scores in one training iteration share their t seed frames,
so a shared ``RowCache`` lets every pass after the first convolve only the
conv rows that read a frame of its own tail. ``cem_forward`` alone
pads a conv input: it hands each conv its input rows where they are, with
padding rows and columns that no tensor holds.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import ranges as R
from .autodiff import Tensor

CHECKPOINT_MAGIC = b"CMOT"
CHECKPOINT_VERSION = 2


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
        R.check(**{f.name: getattr(self, f.name) for f in fields(self)
                   if f.name in R.RANGES})
        if self.window > self.seed_frames:
            raise ValueError(f"window must satisfy C <= seed_frames, got "
                             f"C={self.window} t={self.seed_frames}")
        for axis, k, s in zip(("height", "width"), self.kernel, self.stride):
            # symmetric padding adds k - 1 rows, so an even k at stride 1
            # grows the grid by one row per layer
            if s == 1 and k % 2 == 0:
                raise ValueError(
                    f"kernel {self.kernel} with stride {self.stride}: an even "
                    f"kernel {axis} needs a stride >= 2 along the {axis}")

    @property
    def effective_lambda_adv(self) -> float:
        return self.lambda_adv if self.adversarial else 0.0

    def _cem(self, prefix: str, frames: int, pose_dim: int,
             dropout: float) -> "CemConfig":
        return CemConfig(frames, pose_dim, tuple(self.channels),
                         tuple(self.kernel), tuple(self.stride), self.fc_out,
                         dropout, self.leaky_slope, prefix)

    def long_cem(self, pose_dim: int) -> "CemConfig":
        return self._cem("long", self.seed_frames, pose_dim, self.dropout)

    def short_cem(self, pose_dim: int) -> "CemConfig":
        return self._cem("short", self.window, pose_dim, self.dropout)

    def discriminator_cem(self, pose_dim: int) -> "CemConfig":
        # scores [seed, target] as one grid; no dropout in the discriminator
        return self._cem("disc.cem", self.seed_frames + self.target_frames,
                         pose_dim, 0.0)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "HyperParams":
        """Inverse of ``to_dict``: every JSON list becomes a tuple."""
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in dict(doc).items()})


@dataclass(frozen=True)
class CemConfig:
    """Shape contract for one convolutional encoding module; ``prefix`` names
    its tensors in ``ModelParams``. Built by ``HyperParams._cem``."""

    input_frames: int
    pose_dim: int
    channels: tuple
    kernel: tuple
    stride: tuple
    fc_out: int
    dropout: float
    leaky_slope: float
    prefix: str

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


def _cem_shapes(cfg: CemConfig):
    for i, (cin, cout) in enumerate(zip((1, *cfg.channels), cfg.channels), 1):
        yield f"{cfg.prefix}.conv{i}.kernel", (cout, cin, *cfg.kernel)
        yield f"{cfg.prefix}.conv{i}.bias", (cout,)
    yield f"{cfg.prefix}.fc.weight", (cfg.fc_out, cfg.flat_dim)
    yield f"{cfg.prefix}.fc.bias", (cfg.fc_out,)


def param_shapes(hp: HyperParams, pose_dim: int) -> dict:
    """The shape of every model tensor by its checkpoint name, in
    initialisation (RNG draw) order: long encoder, short encoder, decoder,
    discriminator."""
    return dict([
        *_cem_shapes(hp.long_cem(pose_dim)), *_cem_shapes(hp.short_cem(pose_dim)),
        ("decoder.fc1.weight", (hp.fc_out, 2 * hp.fc_out)),
        ("decoder.fc1.bias", (hp.fc_out,)),
        ("decoder.fc2.weight", (pose_dim, hp.fc_out)),
        ("decoder.fc2.bias", (pose_dim,)),
        *_cem_shapes(hp.discriminator_cem(pose_dim)),
        ("disc.head.weight", (1, hp.fc_out)), ("disc.head.bias", (1,))])


# every model tensor's checkpoint name; the names are the same for every model
PARAM_NAMES = tuple(param_shapes(HyperParams(), 1))


class ModelParams(dict):
    """Every model tensor, keyed by its checkpoint name: the long- and
    short-term encoders (``long.*``, ``short.*``), the decoder
    (``decoder.*``) and the discriminator (``disc.*``)."""

    def generator_named(self, include_long: bool = True) -> dict:
        return {n: t for n, t in self.items() if not n.startswith("disc.")
                and (include_long or not n.startswith("long."))}

    def discriminator_named(self) -> dict:
        return {n: t for n, t in self.items() if n.startswith("disc.")}

    def all_named(self) -> dict:
        return dict(self)


def init_params(hp: HyperParams, pose_dim: int,
                rng: np.random.Generator) -> ModelParams:
    """Zero biases and fan-in uniform weights, drawn in ``PARAM_NAMES``
    order. The last decoder layer starts at zero too, so the untrained
    model is the zero-velocity baseline (pure residual identity)."""
    R.check(pose_dim=pose_dim)
    params = ModelParams()
    for name, shape in param_shapes(hp, pose_dim).items():
        if name.endswith(".bias") or name == "decoder.fc2.weight":
            params[name] = ad.zeros(shape, requires_grad=True)
            continue
        # uniform(-sqrt(6/fan_in), +sqrt(6/fan_in)): keeps activation variance
        # roughly unit through the stacked leaky-ReLU conv layers
        bound = np.sqrt(6.0 / math.prod(shape[1:]))
        params[name] = Tensor(rng.uniform(-bound, bound, size=shape),
                              requires_grad=True)
    return params


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


class RowCache(dict):
    """The conv rows that several passes of one encoder share, for
    ``cem_forward``.

    A conv row is a function of the ``kH`` padded input rows it reads, so
    it is keyed by its layer and their keys: a frame row's key is its own
    ``(tensor, r)`` pair, a padding row's is ``_PAD_ROW`` and a conv row's
    is its own key. Passes that read the same rows of the same frame
    tensors share a row; a row that reads another frame tensor has another
    key. The value is ``(block, r)``, a row as ``ad.Rows`` reads it: row
    ``r`` of the leaky-ReLU output of the conv call that made it.
    """

    def detached(self) -> "RowCache":
        """A copy whose rows are data: a pass that reads it propagates no
        gradient into the passes that made them."""
        out = RowCache()
        blocks = {}
        for key, (block, r) in self.items():
            if id(block) not in blocks:
                blocks[id(block)] = block.detach()
            out[key] = (blocks[id(block)], r)
        return out


_PAD_ROW = (None, 0)


def frame_rows(x: Tensor) -> list:
    """The frame rows of a ``[B, n, L]`` batch, ``(x, j)`` pairs as
    ``ad.Rows`` reads them."""
    return [(x, j) for j in range(x.shape[1])]


def cem_forward(frames, params: ModelParams, cfg: CemConfig,
                mode: str = "eval",
                rng: Optional[np.random.Generator] = None,
                cache: Optional[RowCache] = None) -> Tensor:
    """Encode a ``[B, n, L]`` batch of frame grids into ``[B, fc_out]`` codes
    with the ``cfg.prefix`` tensors of ``params``; ``frames`` is that tensor
    or its n frame rows, ``(tensor, r)`` pairs as ``ad.Rows`` reads them.

    The frames form a one-channel image, time along the height axis and pose
    dimension along the width axis. Each conv layer convolves its input
    rows, read where they are with symmetric "same"-style zero padding
    (``same_padding``; no other code pads a conv input, and no tensor holds
    a padded input) at stride ``cfg.stride``, then applies a leaky ReLU;
    dropout sits between the last conv layer and the flattening affine map,
    and joins the last layer's rows into one tensor in its own node.

    With a ``cache``, each conv layer computes only the output rows that no
    earlier pass over the same frames produced (dense sliding-window
    evaluation, Sermanet et al. 2014): their ``kH``-row padded input groups
    are read in one call at height stride ``kH``. A layer with no cached
    rows is one conv over its whole padded input. The pass stores each row
    it computes in the cache, keyed by the rows it reads (``RowCache``).
    """
    if isinstance(frames, Tensor):
        if frames.ndim != 3:
            raise ad.ShapeError(
                f"encoder expects [B, n, L] frames, got {frames.shape}")
        frames = frame_rows(frames)
    rows = keys = frames  # the current layer's rows and their keys, in order
    if len(rows) != cfg.input_frames:
        raise ad.ShapeError(
            f"encoder expects {cfg.input_frames} frames, got {len(rows)}")
    L = rows[0][0].shape[-1]
    if L != cfg.pose_dim:
        raise ad.ShapeError(f"encoder expects pose dim {cfg.pose_dim}, got {L}")
    if cache is None:
        cache = RowCache()
    kH, kW = cfg.kernel
    sH, sW = cfg.stride
    for i, (gh, gw) in enumerate(cfg.grid_trace()[:-1], 1):
        pH, pW = same_padding(gh, kH, sH), same_padding(gw, kW, sW)
        pad = [_PAD_ROW] * pH
        padded, padded_keys = pad + rows + pad, pad + keys + pad
        keys = [(i, *padded_keys[a:a + kH])
                for a in range(0, len(padded) - kH + 1, sH)]
        out_rows = [cache.get(key) for key in keys]
        missing = [j for j, row in enumerate(out_rows) if row is None]
        if missing:
            step = sH
            if len(missing) < len(keys):
                padded = [row for j in missing
                          for row in padded[j * sH:j * sH + kH]]
                step = kH
            out = ad.conv2d(ad.Rows(padded, pW),
                            params[f"{cfg.prefix}.conv{i}.kernel"],
                            params[f"{cfg.prefix}.conv{i}.bias"],
                            stride=(step, sW), slope=cfg.leaky_slope)
            for r, j in enumerate(missing):
                out_rows[j] = cache[keys[j]] = (out, r)
        rows = out_rows
    h = ad.dropout(ad.Rows(rows), cfg.dropout, mode=mode, rng=rng)
    return ad.linear(h, params[f"{cfg.prefix}.fc.weight"],
                     params[f"{cfg.prefix}.fc.bias"])


def decode_step(zl: Tensor, zs: Tensor, prev: Tensor, params: ModelParams,
                hp: HyperParams, mode: str = "eval",
                rng: Optional[np.random.Generator] = None) -> Tensor:
    """One residual decoding step on ``[B, fc_out]`` codes and the ``[B, L]``
    previous frames, one tape node per layer: affine map of the two codes
    as parts, with leaky ReLU -> dropout -> affine map adding ``prev``."""
    h = ad.linear([zl, zs], params["decoder.fc1.weight"],
                  params["decoder.fc1.bias"], slope=hp.leaky_slope)
    h = ad.dropout(h, hp.dropout, mode=mode, rng=rng)
    return ad.linear(h, params["decoder.fc2.weight"],
                     params["decoder.fc2.bias"], add=prev)


def window_frame_ids(t: int, C: int, k: int) -> list:
    """Contents of the decoding window at step ``k`` (1-based).

    Slot ``j`` holds absolute frame ``t - C + k + j`` (1-based): seed frames
    up to ``t`` as ``("seed", zero_based_index)``, generated frames after as
    ``("pred", step_number)``.
    """
    R.check(step=k)
    ids = []
    for j in range(C):
        f = t - C + k + j
        if f <= t:
            ids.append(("seed", f - 1))
        else:
            ids.append(("pred", f - t))
    return ids


def predict_sequence(seed, params: ModelParams, hp: HyperParams,
                     teacher=None, mode: str = "eval",
                     rng: Optional[np.random.Generator] = None) -> Tensor:
    """Generate ``target_frames`` future poses from a ``[t, L]`` seed (or a
    ``[B, t, L]`` batch of seeds), shaped like the seed.

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
    if L != params["decoder.fc2.bias"].shape[0]:
        raise ad.ShapeError(f"seed has pose dim {L}, but the model predicts "
                            f"{params['decoder.fc2.bias'].shape[0]}")
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
        zl = cem_forward(x, params, hp.long_cem(L), mode=mode, rng=rng)

    # the window's frame rows: the seed tail, then what it sees of each
    # generated frame; step k reads the last C (``window_frame_ids``)
    frames = [(x, i) for i in range(t - C, t)]
    short_cfg = hp.short_cem(L)
    cache = RowCache()
    prev = ad.tslice(x, (slice(None), t - 1, slice(None)))
    outputs = []
    for k in range(1, T + 1):
        zs = cem_forward(frames[-C:], params, short_cfg, mode=mode, rng=rng,
                         cache=cache)
        x_hat = decode_step(zl, zs, prev, params, hp, mode=mode, rng=rng)
        outputs.append(x_hat)
        frame = x_hat  # at eta = 1 the blend is the identity
        if teacher is not None and hp.eta < 1.0:
            truth = ad.tslice(teacher, (slice(None), k - 1, slice(None)))
            frame = ad.add(ad.mul(x_hat, hp.eta), ad.mul(truth, 1.0 - hp.eta))
        frames.append((frame, None))
        prev = x_hat
    out = ad.stack(outputs, axis=1)
    return out if batched else ad.reshape(out, (T, L))


def discriminate(frames, params: ModelParams, hp: HyperParams,
                 cache: Optional[RowCache] = None) -> Tensor:
    """Score a ``[B, t+T, L]`` batch of full [seed, target] sequences, given
    as that tensor or its frame rows (as ``cem_forward`` takes them);
    returns ``[B]`` probabilities in (0, 1). The discriminator has no
    dropout, so train and eval mode are the same pass.

    Passes that read the rows of one seed tensor can share a ``RowCache``:
    the first convolves every row, and each later pass convolves only the
    rows that read a frame of its own tail."""
    L = (frames if isinstance(frames, Tensor) else frames[0][0]).shape[-1]
    code = cem_forward(frames, params, hp.discriminator_cem(L), cache=cache)
    logit = ad.linear(code, params["disc.head.weight"], params["disc.head.bias"])
    return ad.sigmoid(ad.reshape(logit, (code.shape[0],)))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    hyper: HyperParams
    pose_dim: int
    stats_fingerprint: str
    tensors: dict
    extra: dict

    def to_params(self) -> ModelParams:
        """The parameters, sharing this checkpoint's arrays (no copy): a
        change to a parameter's values shows in ``tensors``."""
        return params_from_tensors(self.tensors, copy=False)


# the header that save_checkpoint writes after the magic, version and header
# length; the flags are the fields without a range. Each tensor's bytes follow
# the previous one's, in entry order, so its shape and dtype fix its place
CHECKPOINT_HEADER = {
    "hyper": {f.name: f.name if f.name in R.RANGES else bool
              for f in fields(HyperParams)},
    "pose_dim": "pose_dim", "stats_fingerprint": str,
    "extra": {"iteration?": "iteration", "master_seed?": "master_seed"},
    # a dtype other than these would read bytes as, say, object pointers
    "tensors": [{"name": str, "shape": ["extent"],
                 "dtype": ("float32", "float64")}],
}


def _check_entries(hp: HyperParams, pose_dim: int, entries: list) -> None:
    """Refuse a tensor named twice, and a model tensor or Adam moment whose
    shape is not the one that ``param_shapes`` gives it; a tensor under any
    other name is not the model's, and is not checked."""
    shapes, seen = param_shapes(hp, pose_dim), set()
    for entry in entries:
        name, shape = entry["name"], entry["shape"]
        if name in seen:
            raise ValueError(f"tensor {name!r} is named twice")
        seen.add(name)
        want = shapes.get(re.sub(r"^optim\.[mv]\.", "", name))
        if want is not None and tuple(shape) != want:
            raise ValueError(f"tensor {name!r} has shape {shape}, but the "
                             f"model needs {list(want)}")


def save_checkpoint(path, hp: HyperParams, pose_dim: int, stats_fingerprint: str,
                    tensors: dict, extra: Optional[dict] = None) -> None:
    """Write a deterministic binary container (no timestamps, sorted names)
    atomically: to ``<path>.tmp``, then renamed to ``path``. Nothing is
    fsynced, so the rename guards against a crash of the process, not of
    the machine."""
    # a C-contiguous tensor is written from its own buffer, not a copy
    arrays = [(name, np.ascontiguousarray(tensors[name]))
              for name in sorted(tensors)]
    header = {
        "hyper": hp.to_dict(),
        "pose_dim": pose_dim,
        "stats_fingerprint": stats_fingerprint,
        "extra": extra or {},
        # np.shape, as ascontiguousarray makes a 0-d tensor 1-d
        "tensors": [{"name": name, "shape": list(np.shape(tensors[name])),
                     "dtype": str(arr.dtype)} for name, arr in arrays],
    }
    # write nothing that a load would refuse
    R.read(header, CHECKPOINT_HEADER)
    _check_entries(hp, pose_dim, header["tensors"])
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    # written beside the target and renamed over it, so that a failed write
    # leaves any earlier file at ``path`` intact
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", CHECKPOINT_VERSION, len(header_bytes)))
            f.write(header_bytes)
            for _, arr in arrays:
                f.write(arr.data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, expected_fingerprint: Optional[str] = None, *,
                    names=None) -> Checkpoint:
    """Read a checkpoint, each tensor in ``names`` (all when ``None``)
    straight from the file into its own array, skipping the others. A
    truncated or corrupt file, a header that ``CHECKPOINT_HEADER`` or
    ``_check_entries`` does not admit, and a name in ``names`` that the
    file lacks raise ``ValueError``, all but a cut or overlong file before
    any tensor is read."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if head[:4] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        if len(head) < 12:
            raise ValueError(f"{path}: truncated checkpoint ({len(head)} bytes)")
        version, header_len = struct.unpack("<II", head[4:])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        base = 12 + header_len
        if base > size:
            raise ValueError(
                f"{path}: truncated checkpoint header ({header_len} bytes "
                f"declared, {size - 12} present)")
        try:
            header = R.parse(f.read(header_len).decode("utf-8"),
                             CHECKPOINT_HEADER)
            hyper = HyperParams.from_dict(header["hyper"])
            _check_entries(hyper, header["pose_dim"], header["tensors"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        fingerprint = header["stats_fingerprint"]
        if expected_fingerprint is not None and \
                fingerprint != expected_fingerprint:
            raise ValueError(
                f"{path}: checkpoint was trained against different "
                f"normalization stats (fingerprint {fingerprint[:12]}... != "
                f"{expected_fingerprint[:12]}...)"
            )
        in_file = {entry["name"] for entry in header["tensors"]}
        # taken once, as the check and the reads below both need every name
        names = None if names is None else frozenset(names)
        for name in sorted(names or ()):
            if name not in in_file:
                raise ValueError(f"{path}: tensor {name!r} is not in the file")
        tensors, end = {}, base
        for entry in header["tensors"]:
            name, dtype = entry["name"], np.dtype(entry["dtype"])
            start, end = end, end + math.prod(entry["shape"]) * dtype.itemsize
            if end > size:
                raise ValueError(
                    f"{path}: truncated checkpoint: tensor {name!r} spans "
                    f"bytes {start}-{end} of {size}")
            if names is not None and name not in names:
                f.seek(end)
            else:
                tensors[name] = np.empty(entry["shape"], dtype)
                if f.readinto(tensors[name]) != end - start:
                    # the file shrank after its size was taken
                    raise ValueError(
                        f"{path}: truncated checkpoint: tensor {name!r} ends "
                        f"past the end of the file")
        if end != size:
            raise ValueError(
                f"{path}: {size - end} unexpected bytes after the last tensor")
    return Checkpoint(hyper=hyper, pose_dim=header["pose_dim"],
                      stats_fingerprint=fingerprint, tensors=tensors,
                      extra=header["extra"])


def tensors_from_params(params: ModelParams) -> dict:
    return {name: t.data for name, t in params.items()}


def params_from_tensors(tensors: dict, copy: bool = True) -> ModelParams:
    """The ``PARAM_NAMES`` entries of ``tensors`` (optimizer moments and any
    other entries are ignored), copied into fresh tensors, or wrapping the
    arrays themselves when ``copy`` is false; a missing name raises
    ``KeyError``."""
    return ModelParams({
        name: Tensor(tensors[name].copy() if copy else tensors[name],
                     requires_grad=True)
        for name in PARAM_NAMES})
