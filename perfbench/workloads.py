"""The benchmark workloads: set-up, correctness checks and one measured
operation each.

Why each workload exists, and which change it should and should not show,
is recorded in ``BENCHMARK.json`` and ``perfbench/METRICS.md``.

An operation is a training iteration, a single-seed prediction, an
evaluation report or one full gradient check. A failed operation counts as
missing every latency (it enters the percentiles as infinity).
"""

from __future__ import annotations

import hashlib
import shutil
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from convmotion import evaluation as E
from convmotion import gradcheck as G
from convmotion import mocap
from convmotion import model as M
from convmotion import training as T
from convmotion.autodiff import Tensor

# relative agreement required between the taped objective and the
# plain-numpy reference, as in gradcheck's own route-agreement check
ROUTE_TOL = 1e-10
GRADCHECK_TOL = 1e-4
HORIZONS_MS = (80, 160, 320, 400, 1000)
EVAL_SEQUENCES = 8
# the gradient check Tier-1 runs (acceptance criterion 1) uses seeds 0-4
TIER1_GRADCHECK_SEEDS = 5
# parameter entries full_model_grad_check differences per reference call
FD_CHUNK = 1024


def _rng(*words) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(words))))


def _finite(*values) -> bool:
    return all(v is None or np.isfinite(v) for v in values)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


@dataclass
class OpRecord:
    """One measured unit: a training call, an inference round or a check."""

    wall_s: float
    latencies_ms: list        # the op_ms latencies; failed ones are inf
    attempted: int            # operations in this unit
    failed: int
    work: float               # useful units completed (sequences, entries)
    work_s: float             # wall seconds the work was done in
    fingerprint: bytes        # deterministic output, compared op to op
    problems: list = field(default_factory=list)


def _failed_record(wall_s, count, exc) -> OpRecord:
    return OpRecord(wall_s, [float("inf")] * count, count, count, 0.0, wall_s,
                    b"", [f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"])


def _rng_pcg(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _synth_corpus(workdir: Path, joints: int, seed: int):
    """Synthesise a corpus and fit normalisation stats on its train split."""
    manifest_path = mocap.generate_corpus(workdir / "corpus", joints=joints,
                                          seed=seed)
    manifest = mocap.DatasetManifest.load(manifest_path)
    train = mocap.load_split(manifest, "train")
    return manifest, train, mocap.fit_stats(train)


def _setup_scratch(workdir: Path) -> Path:
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    return workdir


# ---------------------------------------------------------------------------
# train_paper
# ---------------------------------------------------------------------------


class TrainWorkload:
    """``training.train`` from a fixed initialisation, one call per op.

    Every call trains ``iters_per_call`` iterations from the same initial
    parameters and master seed, and writes one checkpoint at the end as
    ``convmotion train`` does, so every call's report stream must be
    bit-identical.
    """

    def __init__(self, hp: M.HyperParams, joints: int, iters_per_call: int):
        self.hp = hp
        self.joints = joints
        self.iters_per_call = iters_per_call
        self.ops_per_record = iters_per_call  # per-layer rows are per iteration
        self.cem_names = {hp.seed_frames: "long", hp.window: "short",
                          hp.seed_frames + hp.target_frames: "disc"}

    def setup(self, workdir: Path, seed: int) -> dict:
        workdir = _setup_scratch(workdir)
        _, train, stats = _synth_corpus(workdir, self.joints, seed)
        seqs = [mocap.normalize(t, stats) for t in train]
        # the initialisation train() itself would draw for this master seed
        params = M.init_params(self.hp, seqs[0].pose_dim, _rng(seed, 0))
        state = {"workdir": workdir, "seed": seed, "stats": stats, "seqs": seqs,
                 "tensors": M.tensors_from_params(params)}
        state["warmup"] = self._train(state, 1).reports
        shutil.rmtree(workdir / "run")
        return state

    def _train(self, state: dict, iterations: int) -> T.TrainResult:
        out_dir = state["workdir"] / "run"
        out_dir.mkdir(exist_ok=True)
        schedule = T.TrainSchedule(iterations=iterations,
                                   master_seed=state["seed"],
                                   checkpoint_every=iterations, out_dir=out_dir)
        params = M.params_from_tensors(state["tensors"])
        return T.train(state["seqs"], state["stats"], self.hp, schedule,
                       params=params)

    def check(self, state: dict) -> list:
        """Taped objective vs the plain-numpy reference on one window, with
        the workload's own hyperparameters, dropout masks and adversary."""
        hp = self.hp
        sampler = T.WindowSampler(state["seqs"], hp.seed_frames, hp.target_frames)
        batch = sampler.sample(_rng(state["seed"], 7), 1)
        seed_w, target_w = batch.seeds[0], batch.targets[0]
        params = M.params_from_tensors(state["tensors"])
        gen_named = params.generator_named(include_long=not hp.no_long_term)
        mask_seed = int(np.random.SeedSequence([state["seed"], 3]).generate_state(1)[0])
        loss, _ = G.taped_objective(params, gen_named, seed_w, target_w, hp,
                                    hp.adversarial, mask_seed)
        masks = G.draw_mask_factors(hp, seed_w.shape[1], _rng_pcg(mask_seed))
        arrays = {n: t.data for n, t in params.all_named().items()}
        ref = G.reference_objective(arrays, seed_w, target_w, masks, hp,
                                    hp.adversarial)[0]
        problems = []
        if not _rel(loss.item(), ref) <= ROUTE_TOL:
            problems.append(f"taped objective {loss.item()!r} != reference {ref!r}")
        for r in state["warmup"]:
            if not _finite(r.mse, r.l2, r.adv, r.d_loss, r.total):
                problems.append(f"non-finite warm-up loss {r}")
        return problems

    def op(self, state: dict, tracer=None) -> OpRecord:
        n = self.iters_per_call
        t0 = perf_counter()
        try:
            result = self._train(state, n)
        except Exception as exc:  # a failed call fails its iterations
            return _failed_record(perf_counter() - t0, n, exc)
        finally:
            wall = perf_counter() - t0
            shutil.rmtree(state["workdir"] / "run", ignore_errors=True)
        reports = result.reports
        lat = [r.ms_per_iter for r in reports]
        problems = []
        for i, r in enumerate(reports):
            if not _finite(r.mse, r.l2, r.adv, r.d_loss, r.total):
                lat[i] = float("inf")
                problems.append(f"non-finite loss {r}")
        fields = [r.deterministic_fields() for r in reports]
        if fields[0] != state["warmup"][0].deterministic_fields():
            problems.append("first iteration differs from the warm-up call's")
            lat = [float("inf")] * n
        ok = int(sum(np.isfinite(lat)))
        return OpRecord(wall, lat, n, n - ok, float(ok * self.hp.batch_size),
                        wall, repr(fields).encode(), problems)


# ---------------------------------------------------------------------------
# predict_eval
# ---------------------------------------------------------------------------


class PredictEvalWorkload:
    """Eval-mode inference at the paper architecture from a loaded checkpoint.

    One op is a round: ``predicts_per_round`` single-seed predictions in a
    closed loop (one caller, each call waits for the previous one), then one
    ``evaluation.evaluate`` report over 3 actions x 8 sequences.
    """

    def __init__(self, hp: M.HyperParams, joints: int, predicts_per_round: int):
        self.hp = hp
        self.joints = joints
        self.predicts_per_round = predicts_per_round
        self.ops_per_record = 1  # per-layer rows are per round
        self.cem_names = {hp.seed_frames: "long", hp.window: "short",
                          hp.seed_frames + hp.target_frames: "disc"}

    def setup(self, workdir: Path, seed: int) -> dict:
        hp = self.hp
        workdir = _setup_scratch(workdir)
        manifest, _, stats = _synth_corpus(workdir, self.joints, seed)
        test = [mocap.normalize(t, stats)
                for t in mocap.load_split(manifest, "test")]
        pose_dim = test[0].pose_dim
        # every path active, the zero-initialised decoder layer included
        params = G.generic_params(hp, pose_dim, _rng(seed, 1))
        path = workdir / "model.ckpt"
        M.save_checkpoint(path, hp, pose_dim, stats.fingerprint(),
                          M.tensors_from_params(params))
        ckpt = M.load_checkpoint(path, stats.fingerprint())
        params = ckpt.to_params()
        pick = _rng(seed, 5)
        window = hp.seed_frames + hp.target_frames
        windows = []
        for _ in range(self.predicts_per_round):
            seq = test[int(pick.integers(0, len(test)))]
            off = int(pick.integers(0, seq.num_frames - window + 1))
            windows.append((seq.frames[off:off + hp.seed_frames],
                            seq.frames[off + hp.seed_frames:off + window]))
        warm = M.predict_sequence(windows[0][0], params, ckpt.hyper, mode="eval")
        return {"seed": seed, "stats": stats, "test": test, "params": params,
                "hp": ckpt.hyper, "frame_ms": manifest.frame_ms,
                "windows": windows, "first_pred": warm.data}

    def check(self, state: dict) -> list:
        """The first prediction reproduces the reference objective (no
        dropout masks, no adversary)."""
        hp = replace(state["hp"], adversarial=False)
        params = state["params"]
        seed_w, target_w = state["windows"][0]
        loss, _ = T.loss_generator(Tensor(state["first_pred"]), target_w,
                                   params.generator_named(), None, hp)
        arrays = {n: t.data for n, t in params.all_named().items()}
        ref = G.reference_objective(arrays, seed_w, target_w, None, hp, False)[0]
        if not _rel(loss.item(), ref) <= ROUTE_TOL:
            return [f"first prediction's objective {loss.item()!r} != "
                    f"reference {ref!r}"]
        return []

    def op(self, state: dict, tracer=None) -> OpRecord:
        hp, params = state["hp"], state["params"]
        t_round = perf_counter()
        lat, problems, digest = [], [], hashlib.sha256()
        for seed_w, _ in state["windows"]:
            t0 = perf_counter()
            try:
                pred = M.predict_sequence(seed_w, params, hp, mode="eval").data
            except Exception as exc:
                lat.append(float("inf"))
                problems.append(f"predict raised {exc!r}")
                continue
            ms = 1000.0 * (perf_counter() - t0)
            if pred.shape != (hp.target_frames, seed_w.shape[1]) or \
                    not np.all(np.isfinite(pred)):
                ms = float("inf")
                problems.append("prediction is malformed or non-finite")
            lat.append(ms)
            digest.update(pred.tobytes())
        predictor = E.model_predictor(params, hp)
        if tracer is not None:
            predictor = tracer.timed("evaluation.predict", predictor)
        t0 = perf_counter()
        try:
            report = E.evaluate(predictor, state["test"], state["stats"],
                                hp.seed_frames, hp.target_frames,
                                num_sequences=EVAL_SEQUENCES, seed=state["seed"],
                                horizons_ms=HORIZONS_MS,
                                frame_ms=state["frame_ms"])
        except Exception as exc:
            problems.append(f"evaluate raised {exc!r}")
            report = None
        report_s = perf_counter() - t0
        work, failed = 0.0, sum(1 for v in lat if not np.isfinite(v))
        if report is not None and all(np.isfinite(v) for errs in report.errors.values()
                                      for v in errs.values()):
            work = float(report.num_sequences * len(report.actions))
            digest.update(report.to_csv().encode())
        else:
            failed += 1
            problems.append("evaluation report failed or is non-finite")
        return OpRecord(perf_counter() - t_round, lat, len(lat) + 1, failed,
                        work, report_s, digest.digest(), problems)


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


class GradcheckWorkload:
    """One ``gradcheck.full_model_grad_check`` per op: tiny config,
    adversarial variant, in-process (jobs=1)."""

    def __init__(self):
        self.hp = G.tiny_hyperparams()
        self.ops_per_record = 1
        self.cem_names = {self.hp.seed_frames: "long", self.hp.window: "short",
                          self.hp.seed_frames + self.hp.target_frames: "disc"}

    def setup(self, workdir: Path, seed: int) -> dict:
        """Parameter init, then a warm-up: one route-agreement evaluation
        (taped objective, its backward pass, reference objective) and one
        reference evaluation of a full finite-difference chunk."""
        hp, pose_dim = self.hp, G.TINY_POSE_DIM
        gseed = seed % TIER1_GRADCHECK_SEEDS
        params = G.generic_params(hp, pose_dim, _rng(gseed, 1))
        data = _rng(gseed, 2)
        seed_w = 0.5 * data.normal(size=(hp.seed_frames, pose_dim))
        target_w = 0.5 * data.normal(size=(hp.target_frames, pose_dim))
        gen_named = params.generator_named()
        loss, tape = G.taped_objective(params, gen_named, seed_w, target_w, hp,
                                       True, 0)
        G.backward(loss, tape)
        masks = G.draw_mask_factors(hp, pose_dim, _rng_pcg(0))
        arrays = {n: t.data for n, t in params.all_named().items()}
        ref = G.reference_objective(arrays, seed_w, target_w, masks, hp, True)[0]
        name = "short.conv2.kernel"
        stack = np.repeat(arrays[name][None], 2 * FD_CHUNK, axis=0)
        G.reference_objective(arrays, seed_w, target_w, masks, hp, True,
                              override={name: stack})
        return {"seed": gseed, "route": (loss.item(), ref)}

    def check(self, state: dict) -> list:
        taped, ref = state["route"]
        if not _rel(taped, ref) <= ROUTE_TOL:
            return [f"taped objective {taped!r} != reference {ref!r}"]
        return []

    def op(self, state: dict, tracer=None) -> OpRecord:
        t0 = perf_counter()
        try:
            report = G.full_model_grad_check(seed=state["seed"], adversarial=True,
                                             tol=GRADCHECK_TOL)
        except Exception as exc:
            return _failed_record(perf_counter() - t0, 1, exc)
        wall = perf_counter() - t0
        entries = [(e.name, e.max_rel_err, tuple(int(i) for i in e.worst_index),
                    e.analytic_at_worst, e.numeric_at_worst)
                   for e in report.entries]
        checked = float(sum(int(np.prod(e.shape)) for e in report.entries))
        if not report.passed:
            return OpRecord(wall, [float("inf")], 1, 1, 0.0, wall,
                            repr(entries).encode(),
                            [f"gradient check failed:\n{report.summary()}"])
        return OpRecord(wall, [1000.0 * wall], 1, 0, checked, wall,
                        repr(entries).encode())


PAPER_HP = M.HyperParams(batch_size=16)

WORKLOADS = {
    "train_paper": lambda: TrainWorkload(PAPER_HP, joints=18, iters_per_call=2),
    "predict_eval": lambda: PredictEvalWorkload(PAPER_HP, joints=18,
                                                predicts_per_round=24),
    "gradcheck": GradcheckWorkload,
}
