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
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as C
from . import evaluation as E
from . import gradcheck as G
from . import mocap
from . import model as M
from . import training as T

log = logging.getLogger("convmotion")


# config-file schedule keys a subcommand honours: key -> (flag, default);
# the flag's parser is the type of the default
TRAIN_SCHEDULE = {
    "iterations": ("--iters", 1000),
    "master_seed": ("--seed", T.TrainSchedule.master_seed),
    "checkpoint_every": ("--checkpoint-every", T.TrainSchedule.checkpoint_every),
}
ABLATE_SCHEDULE = {"iterations": ("--iters", 200),
                   "master_seed": ("--seed", T.TrainSchedule.master_seed),
                   "num_sequences": ("--num-sequences", 4)}
SCHEDULE_KEYS = {*TRAIN_SCHEDULE, *ABLATE_SCHEDULE}
# the hyperparameters gradcheck takes over its tiny configuration
GRADCHECK_KEYS = ("seed_frames", "target_frames", "window", "channels",
                  "fc_out", "dropout", "eta", "no_long_term")


def _add_hyper_flags(p: argparse.ArgumentParser, keys=C.HYPER_KEYS) -> None:
    """A flag per hyperparameter in ``keys``; one that is not given is
    ``None``. A bool field's flag sets the opposite of its default."""
    for key in keys:
        spelling = C.SPELLING.get(key, {})
        flag = spelling.get("flag", "--" + key.replace("_", "-"))
        default = C.HYPER_DEFAULTS[key]
        if isinstance(default, bool):
            p.add_argument(flag, action="store_const", const=not default,
                           dest=key, help=spelling.get("help"))
        else:
            p.add_argument(flag, type=C.HYPER_KEYS[key], dest=key,
                           help=spelling.get("help"))


def _add_run_flags(p: argparse.ArgumentParser, schedule: dict) -> None:
    """``--config``, a flag per ``schedule`` key, and every hyperparameter
    flag."""
    p.add_argument("--config", type=Path, help="key=value config file")
    for flag, default in schedule.values():
        p.add_argument(flag, type=C.parser_for(default))
    _add_hyper_flags(p)
    p.set_defaults(schedule=schedule)


def _given(args, keys) -> dict:
    return {key: getattr(args, key) for key in keys
            if getattr(args, key) is not None}


def _resolve_hyper(args) -> M.HyperParams:
    """Resolve the hyperparameters, and set the subcommand's schedule flags
    (``args.schedule``) on ``args``, with precedence flag > ``--config`` >
    default. A config key the subcommand has no use for is rejected."""
    mapping: dict = {}
    if args.config:
        parsers = dict(C.HYPER_KEYS)
        for key, (_, default) in args.schedule.items():
            parsers[key] = C.parser_for(default)
        mapping.update(C.load_config(args.config, parsers, SCHEDULE_KEYS))
    mapping.update(_given(args, C.HYPER_KEYS))
    schedule = {}
    for key, (flag, default) in args.schedule.items():
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, mapping.get(key, default))
        schedule[key] = getattr(args, dest)
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
    _, stats, sequences = _load_dataset(args.data, args.stats, "train")
    out_dir = Path(args.out)
    schedule = T.TrainSchedule(iterations=args.iters, master_seed=args.seed,
                               checkpoint_every=args.checkpoint_every,
                               out_dir=out_dir,
                               report_path=args.report or out_dir / "report.csv")
    result = T.train(sequences, stats, hp, schedule,
                     resume_from=args.resume)
    last = result.reports[-1]
    log.info("finished: iteration=%d mse=%g total=%g", last.iteration, last.mse,
             last.total)
    print(result.checkpoints[-1])
    return 0


def cmd_predict(args) -> int:
    stats = mocap.NormalizationStats.load(args.stats)
    ckpt = M.load_checkpoint(args.checkpoint, stats.fingerprint())
    hp = ckpt.hyper
    trial = mocap.load_trial(args.seed_file)
    if trial.num_frames < hp.seed_frames:
        raise ValueError(f"{args.seed_file}: seed file has "
                         f"{trial.num_frames} frames, need {hp.seed_frames}")
    seq = mocap.normalize(trial, stats)
    seed = seq.frames[-hp.seed_frames:]
    params = ckpt.to_params()
    pred = M.predict_sequence(seed, params, hp, mode="eval").data
    mocap.write_trial(mocap.denormalize_frames(pred, stats), args.out)
    log.info("wrote %d predicted frames to %s", hp.target_frames, args.out)
    return 0


def cmd_eval(args) -> int:
    manifest, stats, sequences = _load_dataset(args.data, args.stats, "test")
    ckpt = M.load_checkpoint(args.checkpoint, stats.fingerprint())
    hp = ckpt.hyper
    horizons = tuple(int(x) for x in args.horizons.split(","))
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
    for flag, value in (("--seeds", args.seeds), ("--jobs", args.jobs)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    hp = G.tiny_hyperparams(**_given(args, GRADCHECK_KEYS))
    variants = {"mse": (False,), "full": (True,), "both": (False, True)}[args.variant]
    for line in C.format_config(hp).strip().split("\n"):
        log.info("config: %s", line)
    results = G.run_suite(seeds=tuple(range(args.seeds)), variants=variants,
                          tol=args.tol, hp=hp, pose_dim=args.pose_dim,
                          verbose=True, jobs=args.jobs)
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
    manifest, stats, train_seqs = _load_dataset(args.data, args.stats, "train")
    test_trials = mocap.load_split(manifest, "test")
    test_seqs = [mocap.normalize(t, stats) for t in test_trials]

    horizons = [ms for ms in E.HORIZONS_MS_DEFAULT
                if ms // manifest.frame_ms <= base_hp.target_frames]
    rows = ["axis,value," + ",".join(f"ms{ms}" for ms in horizons) + ",train_mse"]
    # every axis value is validated before the first one trains
    runs = [(field_name, value, replace(base_hp, **{field_name: value}))
            for field_name, value in ABLATION_AXES[args.axis]]
    for field_name, value, hp in runs:
        schedule = T.TrainSchedule(iterations=args.iters, master_seed=args.seed,
                                   checkpoint_every=max(args.iters, 1))
        result = T.train(train_seqs, stats, hp, schedule)
        report = E.evaluate(E.model_predictor(result.params, hp), test_seqs,
                            stats, hp.seed_frames, hp.target_frames,
                            num_sequences=args.num_sequences, seed=args.seed,
                            horizons_ms=horizons, frame_ms=manifest.frame_ms)
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
    p.add_argument("--horizons",
                   default=",".join(map(str, E.HORIZONS_MS_DEFAULT)))
    p.add_argument("--out", type=Path, help="CSV report path")
    p.add_argument("--dump", type=Path, help="directory for predicted sequences")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--variant", choices=("mse", "full", "both"), default="both")
    p.add_argument("--pose-dim", type=int, default=G.TINY_POSE_DIM,
                   dest="pose_dim")
    _add_hyper_flags(p, GRADCHECK_KEYS)
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ValueError covers mocap.ParseError and autodiff.ShapeError
        if args.verbose:
            traceback.print_exc()
        print(f"convmotion: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
