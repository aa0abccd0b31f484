"""Per-layer tracing of convmotion from outside the package.

``Tracer.install`` replaces module attributes of ``convmotion`` with timing
wrappers and wraps each VJP as ``GradTape.record`` stores it; ``remove``
puts every original back. Nothing under ``src/`` knows about the tracer.

Attribute patching reaches a call only when the caller looks the name up on
the module at call time. ``model`` calls ``ad.conv2d`` through the module,
and ``Tensor`` operators call the ops as globals of ``autodiff``, so patching
``autodiff`` catches them. ``training`` and ``gradcheck`` import ``backward``
by name, and ``evaluation`` imports ``denormalize_frames`` by name, so those
are patched on the importing module.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from convmotion import autodiff as ad
from convmotion import evaluation as E
from convmotion import gradcheck as G
from convmotion import mocap
from convmotion import model as M
from convmotion import training as T

# every autodiff primitive that can put a node on the tape
OPS = ("add", "sub", "mul", "square", "tsum", "tmean", "sumsq", "leaky_relu",
       "sigmoid", "tlog", "clip", "dropout", "matmul", "linear", "conv2d",
       "reshape", "concat", "stack", "tslice")
# ops with their own per-layer rows; the rest are summed into other_ops_ms
NAMED_OPS = ("conv2d", "linear", "leaky_relu")


def _conv_macs(x_shape, k_shape, out_shape) -> int:
    n, cout, ho, wo = out_shape
    _, cin, kh, kw = k_shape
    return n * cout * ho * wo * cin * kh * kw


class Tracer:
    """Accumulates wall time, call counts and work counts per traced layer.

    ``cem_names`` maps an encoder input length (frames) to the encoder's
    name, so one ``model.cem_forward`` patch separates the long-term,
    short-term and discriminator encoders.
    """

    def __init__(self, cem_names: dict):
        self.cem_names = dict(cem_names)
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(float)
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for op in OPS:
            if op == "conv2d":
                self._patch(ad, op, self._conv2d_wrapper(ad.conv2d))
            else:
                self._patch(ad, op, self.timed(f"fwd.{op}", getattr(ad, op)))
        self._patch(ad.GradTape, "record", self._record_wrapper(ad.GradTape.record))
        for module in (T, G):
            self._patch(module, "backward", self._backward_wrapper(module.backward))
        self._patch(T, "adam_step", self._adam_wrapper(T.adam_step))
        self._patch(T.WindowSampler, "sample",
                    self.timed("training.sample", T.WindowSampler.sample))
        self._patch(T, "loss_generator",
                    self.timed("training.loss", T.loss_generator))
        self._patch(T, "loss_discriminator",
                    self.timed("training.loss", T.loss_discriminator))
        self._patch(M, "cem_forward", self._cem_wrapper(M.cem_forward))
        for name in ("decode_step", "save_checkpoint", "load_checkpoint"):
            self._patch(M, name, self.timed(f"model.{name}", getattr(M, name)))
        self._patch(E, "euler_error", self.timed("evaluation.euler_error",
                                                  E.euler_error))
        self._patch(E, "denormalize_frames",
                    self.timed("evaluation.denormalize", E.denormalize_frames))
        for name in ("load_split", "fit_stats", "normalize"):
            self._patch(mocap, name, self.timed(f"mocap.{name}",
                                                 getattr(mocap, name)))
        self._patch(mocap, "parse_trial", self._parse_wrapper(mocap.parse_trial))
        self._patch(G, "reference_objective",
                    self.timed("gradcheck.reference_objective",
                                G.reference_objective))
        self._patch(G, "taped_objective",
                    self.timed("gradcheck.taped", G.taped_objective))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> dict:
        """Return the accumulated totals and start from zero."""
        snap = {"seconds": dict(self.seconds), "calls": dict(self.calls),
                "work": dict(self.work)}
        self.seconds.clear()
        self.calls.clear()
        self.work.clear()
        return snap

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- wrappers ---------------------------------------------------------

    def timed(self, key, fn):
        """Time every call of ``fn`` under ``key``; also used by the
        benchmark for callables it owns, such as the eval predictor."""
        seconds, calls = self.seconds, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += perf_counter() - t0
                calls[key] += 1

        return wrapper

    def _conv2d_wrapper(self, fn):
        seconds, calls, work = self.seconds, self.calls, self.work

        @functools.wraps(fn)
        def conv2d(x, kernel, bias, *args, **kwargs):
            t0 = perf_counter()
            out = fn(x, kernel, bias, *args, **kwargs)
            seconds["fwd.conv2d"] += perf_counter() - t0
            calls["fwd.conv2d"] += 1
            work["conv2d.flop"] += 2 * _conv_macs(x.shape, kernel.shape, out.shape)
            work["conv2d.out_bytes"] += out.data.nbytes
            return out

        return conv2d

    def _record_wrapper(self, record):
        seconds, calls, work = self.seconds, self.calls, self.work

        def traced_record(tape, inputs, output, vjp):
            kind = vjp.__qualname__.split(".")[0]
            calls["tape_nodes"] += 1
            macs = (_conv_macs(inputs[0].shape, inputs[1].shape, output.shape)
                    if kind == "conv2d" else 0)

            def timed_vjp(g):
                t0 = perf_counter()
                partials = vjp(g)
                dt = perf_counter() - t0
                seconds[f"bwd.{kind}"] += dt
                seconds["vjp_total"] += dt
                for tensor, p in zip(inputs, partials):
                    if p is None:
                        continue
                    work["partials"] += p.size
                    if not tensor.requires_grad:
                        work["partials_discarded"] += p.size
                # weight and input gradients: one MAC set each
                work["conv2d.flop"] += 4 * macs
                return partials

            timed_vjp.__qualname__ = vjp.__qualname__
            record(tape, inputs, output, timed_vjp)

        return traced_record

    def _backward_wrapper(self, fn):
        seconds, calls, work = self.seconds, self.calls, self.work

        @functools.wraps(fn)
        def backward(loss, tape):
            t0 = perf_counter()
            grads = fn(loss, tape)
            seconds["backward"] += perf_counter() - t0
            calls["backward"] += 1
            work["grads_returned"] += sum(g.size for g in grads.values())
            return grads

        return backward

    def _adam_wrapper(self, fn):
        seconds, calls, work = self.seconds, self.calls, self.work

        @functools.wraps(fn)
        def adam_step(params, grads, state, lr):
            work["grads_used"] += sum(grads[name].size for name in params
                                      if grads.get(name) is not None)
            t0 = perf_counter()
            try:
                return fn(params, grads, state, lr)
            finally:
                seconds["training.adam"] += perf_counter() - t0
                calls["training.adam"] += 1

        return adam_step

    def _cem_wrapper(self, fn):
        seconds, calls, names = self.seconds, self.calls, self.cem_names

        @functools.wraps(fn)
        def cem_forward(frames, params, cfg, *args, **kwargs):
            key = f"model.cem_{names.get(cfg.input_frames, cfg.input_frames)}"
            t0 = perf_counter()
            try:
                return fn(frames, params, cfg, *args, **kwargs)
            finally:
                seconds[key] += perf_counter() - t0
                calls[key] += 1

        return cem_forward

    def _parse_wrapper(self, fn):
        work = self.work

        @functools.wraps(fn)
        def parse_trial(data, *args, **kwargs):
            work["mocap.bytes_parsed"] += len(data)
            return fn(data, *args, **kwargs)

        return parse_trial


# ---------------------------------------------------------------------------
# From accumulated totals to the per-layer metrics of BENCHMARK.json
# ---------------------------------------------------------------------------


def layer_metrics(setup: dict, ops: dict, num_setups: int, num_ops: int,
                  overhead_frac: float) -> dict:
    """Per-layer values: per operation for the measured phase, per set-up
    for the mocap rows, per call for the checkpoint rows.

    ``setup`` and ``ops`` are ``Tracer.take`` snapshots of the traced set-ups
    and the traced operations.
    """
    s, c, w = ops["seconds"], ops["calls"], ops["work"]

    def ms(key):
        return 1000.0 * s.get(key, 0.0) / num_ops

    def per_op(value):
        return value / num_ops

    def ms_per_call(key):
        total_s = setup["seconds"].get(key, 0.0) + s.get(key, 0.0)
        total_n = setup["calls"].get(key, 0) + c.get(key, 0)
        return 1000.0 * total_s / total_n if total_n else 0.0

    def setup_ms(key):
        return 1000.0 * setup["seconds"].get(key, 0.0) / num_setups

    other_s = sum(v for k, v in s.items()
                  if k.startswith(("fwd.", "bwd.")) and k.split(".", 1)[1] not in NAMED_OPS)
    returned = w.get("grads_returned", 0.0)
    partials = w.get("partials", 0.0)
    out = {}
    for op in NAMED_OPS:
        out[f"autodiff.{op}.fwd_ms"] = ms(f"fwd.{op}")
        out[f"autodiff.{op}.bwd_ms"] = ms(f"bwd.{op}")
    out.update({
        "autodiff.conv2d.calls": per_op(c.get("fwd.conv2d", 0)),
        "autodiff.conv2d.gflop": per_op(w.get("conv2d.flop", 0.0)) / 1e9,
        "autodiff.conv2d.out_mb": per_op(w.get("conv2d.out_bytes", 0.0)) / 1e6,
        "autodiff.other_ops_ms": 1000.0 * other_s / num_ops,
        "autodiff.backward_ms": ms("backward"),
        "autodiff.backward.self_ms": ms("backward") - ms("vjp_total"),
        "autodiff.tape_nodes": per_op(c.get("tape_nodes", 0)),
        "autodiff.grads_used_frac": (w.get("grads_used", 0.0) / returned
                                     if returned else 0.0),
        "autodiff.partials_discarded_frac": (w.get("partials_discarded", 0.0)
                                             / partials if partials else 0.0),
    })
    for enc in ("long", "short", "disc"):
        out[f"model.cem_{enc}_ms"] = ms(f"model.cem_{enc}")
        out[f"model.cem_{enc}.calls"] = per_op(c.get(f"model.cem_{enc}", 0))
    out.update({
        "model.decode_step_ms": ms("model.decode_step"),
        "model.save_checkpoint_ms": ms_per_call("model.save_checkpoint"),
        "model.load_checkpoint_ms": ms_per_call("model.load_checkpoint"),
        "training.sample_ms": ms("training.sample"),
        "training.loss_ms": ms("training.loss"),
        "training.adam_ms": ms("training.adam"),
        "evaluation.predict_ms": ms("evaluation.predict"),
        "evaluation.euler_error_ms": ms("evaluation.euler_error"),
        "evaluation.euler_error.calls": per_op(c.get("evaluation.euler_error", 0)),
        "evaluation.denormalize_ms": ms("evaluation.denormalize"),
        "mocap.load_split_ms": setup_ms("mocap.load_split"),
        "mocap.fit_stats_ms": setup_ms("mocap.fit_stats"),
        "mocap.normalize_ms": setup_ms("mocap.normalize"),
        "mocap.mb_parsed": setup["work"].get("mocap.bytes_parsed", 0.0)
                           / num_setups / 1e6,
        "gradcheck.reference_objective_ms": ms("gradcheck.reference_objective"),
        "gradcheck.reference_objective.calls":
            per_op(c.get("gradcheck.reference_objective", 0)),
        "gradcheck.taped_ms": ms("gradcheck.taped"),
        "trace.overhead_frac": overhead_frac,
    })
    return out
