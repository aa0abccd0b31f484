"""Command-line driver tying the pipeline together.

Subcommands: ``synth`` (synthetic corpus), ``prep`` (fit normalization stats),
``train``, ``predict``, ``eval``, ``gradcheck`` (finite-difference suite), and
``ablate`` (window size, kernel shape, long-term encoder, adversarial
regularizer sweeps). Every run logs its fully resolved configuration; flags
override the ``--config`` file, which overrides the built-in defaults.
"""

from __future__ import annotations

import argparse
import logging
import re
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as C
from . import evaluation as E
from . import gradcheck as G
from . import mocap
from . import model as M
from . import ranges as R
from . import training as T

log = logging.getLogger("convmotion")


# config-file schedule keys a subcommand honours, with their defaults; each
# is a flag like a hyperparameter (``config.SPELLING`` names --iters, --seed)
TRAIN_SCHEDULE = {"iterations": 1000,
                  "master_seed": T.TrainSchedule.master_seed,
                  "checkpoint_every": T.TrainSchedule.checkpoint_every}
ABLATE_SCHEDULE = {"iterations": 200,
                   "master_seed": T.TrainSchedule.master_seed,
                   "num_sequences": 4}
SCHEDULE_KEYS = {*TRAIN_SCHEDULE, *ABLATE_SCHEDULE}
# the hyperparameters gradcheck takes over its tiny configuration
GRADCHECK_KEYS = ("seed_frames", "target_frames", "window", "channels",
                  "fc_out", "dropout", "eta", "no_long_term")


def _add_key_flags(p: argparse.ArgumentParser, defaults: dict) -> None:
    """A flag per config key in ``defaults`` (key -> default), whose dest is
    the key and whose parser is the type of the default; one that is not
    given is ``None``. A bool key's flag sets the opposite of its default."""
    for key, default in defaults.items():
        spelling = C.SPELLING.get(key, {})
        flag = spelling.get("flag", "--" + key.replace("_", "-"))
        if isinstance(default, bool):
            p.add_argument(flag, action="store_const", const=not default,
                           dest=key, help=spelling.get("help"))
        else:
            p.add_argument(flag, type=C.parser_for(default), dest=key,
                           help=spelling.get("help"))


def _add_run_flags(p: argparse.ArgumentParser, schedule: dict) -> None:
    """``--config``, a flag per ``schedule`` key, and every hyperparameter
    flag."""
    p.add_argument("--config", type=Path, help="key=value config file")
    _add_key_flags(p, {**schedule, **C.HYPER_DEFAULTS})
    p.set_defaults(schedule=schedule)


def _given(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys
            if getattr(args, key) is not None}


def _check_flags(args) -> None:
    """Refuse a flag out of its range before any file is read."""
    R.check(**{key: value for key, value in vars(args).items()
               if key in R.RANGES and value is not None})


def _resolve_hyper(args) -> M.HyperParams:
    """Resolve the hyperparameters, and set the subcommand's schedule keys
    (``args.schedule``) on ``args``, with precedence flag > ``--config`` >
    default. A config key the subcommand has no use for is rejected, and
    so is a value out of its range."""
    defaults = {**args.schedule, **C.HYPER_DEFAULTS}
    mapping = dict(args.schedule)
    if args.config:
        parsers = {key: C.parser_for(d) for key, d in defaults.items()}
        try:
            mapping.update(C.parse_config_text(args.config.read_text(),
                                               parsers, SCHEDULE_KEYS))
        except ValueError as exc:  # a refused line, or text that is not UTF-8
            raise ValueError(f"{args.config}: {exc}") from None
    mapping.update(_given(args, defaults))
    schedule = {key: mapping[key] for key in args.schedule}
    vars(args).update(schedule)
    R.check(**schedule)
    hp = C.hyperparams_from_mapping(mapping)
    for line in C.format_config(hp, schedule).strip().split("\n"):
        log.info("config: %s", line)
    return hp


def _load_dataset(manifest_path: Path, stats_path: Path, split: str):
    manifest = mocap.DatasetManifest.load(manifest_path)
    stats = mocap.NormalizationStats.load(stats_path)
    trials = mocap.load_split(manifest, split)
    return manifest, stats, [mocap.normalize(t, stats) for t in trials]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    actions = tuple(args.actions.split(","))
    manifest = mocap.generate_corpus(
        args.out, actions=actions, joints=args.joints, frames=args.frames,
        freq_lo=args.freq_lo, freq_hi=args.freq_hi, seed=args.seed,
        train_trials=args.train_trials, test_trials=args.test_trials)
    log.info("wrote corpus with manifest %s", manifest)
    print(manifest)
    return 0


def cmd_prep(args) -> int:
    manifest = mocap.DatasetManifest.load(args.data)
    trials = mocap.load_split(manifest, "train")
    stats = mocap.fit_stats(trials, eps_const=args.eps_const,
                            global_dims=args.global_dims)
    stats.save(args.out)
    log.info("fitted stats on %d trials: raw_dim=%d reduced_dim=%d",
             len(trials), stats.raw_dim, stats.reduced_dim)
    print(f"reduced_dim={stats.reduced_dim}")
    return 0


def cmd_train(args) -> int:
    hp = _resolve_hyper(args)
    out_dir = Path(args.out)
    schedule = T.TrainSchedule(iterations=args.iterations,
                               master_seed=args.master_seed,
                               checkpoint_every=args.checkpoint_every,
                               out_dir=out_dir,
                               report_path=args.report or out_dir / "report.csv")
    _, stats, sequences = _load_dataset(args.data, args.stats, "train")
    result = T.train(sequences, stats, hp, schedule,
                     resume_from=args.resume)
    last = result.reports[-1]
    log.info("finished: iteration=%d mse=%g total=%g", last.iteration, last.mse,
             last.total)
    print(result.checkpoints[-1])
    return 0


def _load_model(path, stats, stats_path) -> M.Checkpoint:
    """The checkpoint's parameters, refused unless its pose dim is the
    width that ``stats`` reduce a frame to."""
    ckpt = M.load_checkpoint(path, stats.fingerprint(), names=M.PARAM_NAMES)
    if ckpt.pose_dim != stats.reduced_dim:
        raise ValueError(f"{path}: checkpoint has pose dim {ckpt.pose_dim}, "
                         f"but {stats_path} reduces frames to "
                         f"{stats.reduced_dim}")
    return ckpt


def cmd_predict(args) -> int:
    stats = mocap.NormalizationStats.load(args.stats)
    ckpt = _load_model(args.checkpoint, stats, args.stats)
    hp = ckpt.hyper
    trial = mocap.load_trial(args.seed_file)
    if trial.num_frames < hp.seed_frames:
        raise ValueError(f"{args.seed_file}: seed file has "
                         f"{trial.num_frames} frames, need {hp.seed_frames}")
    try:
        seq = mocap.normalize(trial, stats)
    except ValueError as exc:  # frames of another width than the stats
        raise ValueError(f"{args.seed_file}: {exc}") from None
    seed = seq.frames[-hp.seed_frames:]
    params = ckpt.to_params()
    pred = M.predict_sequence(seed, params, hp, mode="eval").data
    mocap.write_trial(mocap.denormalize_frames(pred, stats), args.out)
    log.info("wrote %d predicted frames to %s", hp.target_frames, args.out)
    return 0


def cmd_eval(args) -> int:
    manifest, stats, sequences = _load_dataset(args.data, args.stats, "test")
    ckpt = _load_model(args.checkpoint, stats, args.stats)
    hp = ckpt.hyper
    horizons = args.horizons
    if horizons is None:
        horizons = E.fitting_horizons(hp.target_frames, manifest.frame_ms)
    report = E.evaluate(E.model_predictor(ckpt.to_params(), hp), sequences,
                        stats, hp.seed_frames, hp.target_frames,
                        num_sequences=args.num_sequences, seed=args.seed,
                        horizons_ms=horizons, frame_ms=manifest.frame_ms,
                        dump_dir=args.dump)
    log.info("eval: %d windows, predictor %.3f s, scoring %.3f s",
             len(report.actions) * report.num_sequences, report.predict_s,
             report.score_s)
    if args.out:
        Path(args.out).write_text(report.to_csv())
        log.info("wrote report to %s", args.out)
    print(report.format_table(), end="")
    return 0


def cmd_gradcheck(args) -> int:
    hp = G.tiny_hyperparams(**_given(args, GRADCHECK_KEYS))
    variants = {"mse": (False,), "full": (True,), "both": (False, True)}[args.variant]
    for line in C.format_config(hp).strip().split("\n"):
        log.info("config: %s", line)
    t0 = time.perf_counter()
    results = G.run_suite(seeds=tuple(range(args.seeds)), variants=variants,
                          tol=args.tol, hp=hp, pose_dim=args.pose_dim)
    for seed, adversarial, report in results:
        print(f"seed {seed} [{'full' if adversarial else 'mse+l2'}]: "
              f"max_rel_err {report.max_rel_err:.3e} "
              f"{'PASS' if report.passed else 'FAIL'} in {report.wall_s:.1f}s")
    print(f"suite: {len(results)} checks in {time.perf_counter() - t0:.1f}s")
    worst = max(r.max_rel_err for _, _, r in results)
    ok = all(r.passed for _, _, r in results)
    print(f"gradcheck: max rel err {worst:.3e} over {len(results)} runs -> "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


ABLATION_AXES = {
    "window": [("window", w) for w in (5, 10, 20)],
    "kernel": [("kernel", k) for k in ((2, 7), (7, 2), (4, 4))],
    "long_term": [("no_long_term", v) for v in (False, True)],
    "adversarial": [("adversarial", v) for v in (True, False)],
}


def cmd_ablate(args) -> int:
    base_hp = _resolve_hyper(args)
    schedule = T.TrainSchedule(iterations=args.iterations,
                               master_seed=args.master_seed,
                               checkpoint_every=args.iterations)
    manifest, stats, train_seqs = _load_dataset(args.data, args.stats, "train")
    test_trials = mocap.load_split(manifest, "test")
    test_seqs = [mocap.normalize(t, stats) for t in test_trials]

    horizons = E.fitting_horizons(base_hp.target_frames, manifest.frame_ms)
    rows = ["axis,value," + ",".join(f"ms{ms}" for ms in horizons) + ",train_mse"]
    # every axis value is validated before the first one trains
    runs = [(field_name, value, replace(base_hp, **{field_name: value}))
            for field_name, value in ABLATION_AXES[args.axis]]
    for field_name, value, hp in runs:
        result = T.train(train_seqs, stats, hp, schedule)
        report = E.evaluate(E.model_predictor(result.params, hp), test_seqs,
                            stats, hp.seed_frames, hp.target_frames,
                            num_sequences=args.num_sequences,
                            seed=args.master_seed, horizons_ms=horizons,
                            frame_ms=manifest.frame_ms)
        avg = report.average()
        label = C.format_value(field_name, value)
        tail_mse = float(np.mean([r.mse for r in result.reports[-10:]]))
        rows.append(f"{args.axis},{label},"
                    + ",".join(repr(avg[ms]) for ms in horizons)
                    + f",{tail_mse!r}")
        log.info("ablation %s=%s done (train mse %.4g)", args.axis, label,
                 tail_mse)
    text = "\n".join(rows) + "\n"
    Path(args.out).write_text(text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads ``--lr -1e-4`` and ``--lr -inf`` as values: argparse's own
    negative-number pattern has neither, so the range check never saw them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="convmotion",
        description="Convolutional sequence-to-sequence human motion prediction")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic mocap corpus")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--actions", default="walk,swing,wave")
    p.add_argument("--joints", type=int, default=8)
    p.add_argument("--frames", type=int, default=240)
    p.add_argument("--freq-lo", type=float, default=0.4)
    p.add_argument("--freq-hi", type=float, default=1.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-trials", type=int, default=2)
    p.add_argument("--test-trials", type=int, default=2)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prep", help="fit normalization statistics")
    p.add_argument("--data", type=Path, required=True, help="dataset manifest")
    p.add_argument("--out", type=Path, required=True, help="stats file to write")
    p.add_argument("--eps-const", type=float, default=mocap.EPS_CONST_DEFAULT,
                   dest="eps_const")
    p.add_argument("--global-dims", type=int, default=mocap.GLOBAL_DIMS_DEFAULT,
                   dest="global_dims")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", help="run the training loop")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--stats", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="checkpoint directory")
    p.add_argument("--resume", type=Path, help="checkpoint to resume from")
    p.add_argument("--report", type=Path, help="CSV report path")
    _add_run_flags(p, TRAIN_SCHEDULE)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict future frames from a seed file")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--stats", type=Path, required=True)
    p.add_argument("--seed-file", type=Path, required=True, dest="seed_file")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a checkpoint at the error horizons")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--stats", type=Path, required=True)
    p.add_argument("--num-sequences", type=int, default=8, dest="num_sequences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizons", type=C.integer_list,
                   help="horizons in ms (default: those of 80-1000 ms that "
                        "the checkpoint predicts)")
    p.add_argument("--out", type=Path, help="CSV report path")
    p.add_argument("--dump", type=Path, help="directory for predicted sequences")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--variant", choices=("mse", "full", "both"), default="both")
    p.add_argument("--pose-dim", type=int, default=G.TINY_POSE_DIM,
                   dest="pose_dim")
    _add_key_flags(p, {k: C.HYPER_DEFAULTS[k] for k in GRADCHECK_KEYS})
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run a configuration sweep and compare")
    p.add_argument("--axis", choices=sorted(ABLATION_AXES), required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--stats", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_run_flags(p, ABLATE_SCHEDULE)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        _check_flags(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ValueError covers mocap.ParseError and autodiff.ShapeError
        if args.verbose:
            traceback.print_exc()
        print(f"convmotion: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
