"""Config-file handling and end-to-end CLI flows."""

import argparse
import json
import logging
import re
from dataclasses import fields

import numpy as np
import pytest

from convmotion import cli
from convmotion import config as C
from convmotion import mocap
from convmotion import model as M


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_default_config_is_the_reference_operating_point():
    text = C.format_config(M.HyperParams())
    expected = {
        "seed_frames": "50",
        "target_frames": "25",
        "window": "20",
        "eta": "1.0",
        "lambda_l2": "0.001",
        "lambda_adv": "0.01",
        "learning_rate": "0.0002",
        "batch_size": "64",
        "dropout": "0.5",
        "leaky_slope": "0.2",
        "channels": "64,128,128",
        "fc_out": "512",
        "kernel": "2x7",
        "stride": "2x2",
        "no_long_term": "false",
        "adversarial": "true",
    }
    got = dict(line.split("=", 1) for line in text.strip().split("\n"))
    assert got == expected


def test_config_round_trip():
    hp = M.HyperParams(window=10, kernel=(7, 2), adversarial=False)
    parsed = C.parse_config_text(C.format_config(hp))
    assert C.hyperparams_from_mapping(parsed) == hp


def _non_default(default):
    """A valid value other than a field's default."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, tuple):
        return tuple(v + 1 for v in default)
    return default + 1 if isinstance(default, int) else default / 2


RUN_ARGV = {"train": ["train", "--data", "x", "--stats", "y", "--out", "z"],
            "ablate": ["ablate", "--axis", "kernel", "--data", "x",
                       "--stats", "y", "--out", "z"]}


@pytest.mark.parametrize("name", [f.name for f in fields(M.HyperParams)])
def test_every_hyperparameter_is_a_config_key_and_a_flag(name):
    value = _non_default(getattr(M.HyperParams(), name))
    hp = M.HyperParams(**{name: value})
    assert name in C.HYPER_KEYS
    # --no-adv sets adversarial=false, --no-long-term no_long_term=true
    flag = {"learning_rate": "--lr", "adversarial": "--no-adv"}.get(
        name, "--" + name.replace("_", "-"))
    text = C.format_value(name, value)
    given = [flag] if isinstance(value, bool) else [flag, text]
    parser = cli.build_parser()
    for argv in RUN_ARGV.values():
        assert cli._resolve_hyper(parser.parse_args(argv + given)) == hp
    parsed = C.parse_config_text(C.format_config(hp))
    assert C.hyperparams_from_mapping(parsed) == hp
    doc = json.loads(json.dumps(hp.to_dict()))
    assert M.HyperParams.from_dict(doc) == hp


OPTION_STRINGS = {
    "synth": "--actions --frames --freq-hi --freq-lo --joints --out --seed "
             "--test-trials --train-trials",
    "prep": "--data --eps-const --global-dims --out",
    "train": "--batch-size --channels --checkpoint-every --config --data "
             "--dropout --eta --fc-out --iters --kernel --lambda-adv "
             "--lambda-l2 --leaky-slope --lr --no-adv --no-long-term --out "
             "--report --resume --seed --seed-frames --stats --stride "
             "--target-frames --window",
    "predict": "--checkpoint --out --seed-file --stats",
    "eval": "--checkpoint --data --dump --horizons --num-sequences --out "
            "--seed --stats",
    "gradcheck": "--channels --dropout --eta --fc-out --jobs --no-long-term "
                 "--pose-dim --seed-frames --seeds --target-frames --tol "
                 "--variant --window",
    "ablate": "--axis --batch-size --channels --config --data --dropout "
              "--eta --fc-out --iters --kernel --lambda-adv --lambda-l2 "
              "--leaky-slope --lr --no-adv --no-long-term --num-sequences "
              "--out --seed --seed-frames --stats --stride --target-frames "
              "--window",
}


def test_subcommand_option_strings_unchanged():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(s for a in p._actions for s in a.option_strings
                        if s not in ("-h", "--help"))
           for name, p in sub.choices.items()}
    assert got == {name: opts.split() for name, opts in OPTION_STRINGS.items()}


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        C.parse_config_text("not_a_key=3\n")


def test_config_parses_comments_and_blanks():
    cfg = C.parse_config_text("# comment\n\nwindow=10  # trailing\n")
    assert cfg == {"window": 10}


def test_config_bad_value_reports_line():
    with pytest.raises(ValueError, match="line 2"):
        C.parse_config_text("window=10\neta=notafloat\n")


# ---------------------------------------------------------------------------
# CLI flows
# ---------------------------------------------------------------------------

MICRO_FLAGS = ["--seed-frames", "6", "--target-frames", "3", "--window", "4",
               "--channels", "2,3,3", "--fc-out", "8", "--dropout", "0.0",
               "--batch-size", "2"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    rc = cli.main(["synth", "--out", str(root / "data"), "--actions", "walk,wave",
                   "--joints", "2", "--frames", "60", "--seed", "3"])
    assert rc == 0
    manifest = root / "data" / "manifest.json"
    stats = root / "stats.json"
    rc = cli.main(["prep", "--data", str(manifest), "--out", str(stats)])
    assert rc == 0
    return manifest, stats


def test_prep_reduced_dim(corpus, capsys):
    manifest, stats_path = corpus
    stats = mocap.NormalizationStats.load(stats_path)
    assert stats.reduced_dim == 6  # 2 joints x 3 dims


def test_train_predict_eval_pipeline(corpus, tmp_path, capsys, caplog):
    caplog.set_level(logging.INFO, logger="convmotion")
    manifest, stats_path = corpus
    out_dir = tmp_path / "run"
    rc = cli.main(["train", "--data", str(manifest), "--stats", str(stats_path),
                   "--out", str(out_dir), "--iters", "5", "--seed", "1",
                   "--checkpoint-every", "5", "--no-adv"] + MICRO_FLAGS)
    assert rc == 0
    ckpt = capsys.readouterr().out.strip().splitlines()[-1]
    assert (out_dir / "report.csv").exists()
    report_lines = (out_dir / "report.csv").read_text().strip().split("\n")
    assert len(report_lines) == 6  # header + 5 iterations

    # predict from one of the test trials
    seed_file = manifest.parent / "S5" / "walk_1.txt"
    pred_file = tmp_path / "pred.txt"
    rc = cli.main(["predict", "--checkpoint", ckpt, "--stats", str(stats_path),
                   "--seed-file", str(seed_file), "--out", str(pred_file)])
    assert rc == 0
    pred = mocap.parse_trial(pred_file.read_text())
    assert pred.frames.shape[0] == 3

    rc = cli.main(["eval", "--checkpoint", ckpt, "--data", str(manifest),
                   "--stats", str(stats_path), "--num-sequences", "2",
                   "--seed", "0", "--horizons", "80,120",
                   "--out", str(tmp_path / "eval.csv")])
    assert rc == 0
    # one line with the window count and where the report's time went
    timing = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("eval: ")]
    assert len(timing) == 1
    assert re.fullmatch(r"eval: \d+ windows, predictor \d+\.\d{3} s, "
                        r"scoring \d+\.\d{3} s", timing[0])
    table = capsys.readouterr().out
    assert "Average" in table
    csv = (tmp_path / "eval.csv").read_text()
    assert csv.startswith("action,ms,error")


def test_predict_zero_decoder_repeats_last_frame(corpus, tmp_path):
    manifest, stats_path = corpus
    stats = mocap.NormalizationStats.load(stats_path)
    hp = M.HyperParams(seed_frames=6, target_frames=3, window=4,
                       channels=(2, 3, 3), fc_out=8, dropout=0.0)
    # freshly initialized parameters carry a zeroed final decoder layer
    params = M.init_params(hp, stats.reduced_dim, np.random.default_rng(0))
    ckpt_path = tmp_path / "zero.ckpt"
    M.save_checkpoint(ckpt_path, hp, stats.reduced_dim, stats.fingerprint(),
                      M.tensors_from_params(params))

    seed_file = manifest.parent / "S5" / "wave_1.txt"
    out_file = tmp_path / "pred.txt"
    rc = cli.main(["predict", "--checkpoint", str(ckpt_path), "--stats",
                   str(stats_path), "--seed-file", str(seed_file), "--out",
                   str(out_file)])
    assert rc == 0
    pred = mocap.parse_trial(out_file.read_text()).frames
    assert pred.shape == (3, stats.raw_dim)
    trial = mocap.load_trial(seed_file)
    last_norm = mocap.normalize_frames(trial.frames[-1:], stats)
    expected = mocap.denormalize_frames(last_norm, stats)[0]
    for row in pred:
        np.testing.assert_allclose(row, expected, atol=1e-12)


def _error_line(capsys) -> str:
    """The one stderr line a refused command prints."""
    return _one_error_line(capsys.readouterr().err)


def _one_error_line(err: str) -> str:
    lines = [ln for ln in err.splitlines()
             if ln.startswith("convmotion: error: ")]
    assert len(lines) == 1, lines
    return lines[0]


def test_eval_checkpoint_stats_mismatch_fails(corpus, tmp_path, capsys):
    manifest, stats_path = corpus
    hp = M.HyperParams(seed_frames=6, target_frames=3, window=4,
                       channels=(2, 3, 3), fc_out=8)
    params = M.init_params(hp, 6, np.random.default_rng(0))
    bad = tmp_path / "bad.ckpt"
    M.save_checkpoint(bad, hp, 6, "0" * 64, M.tensors_from_params(params))
    rc = cli.main(["eval", "--checkpoint", str(bad), "--data", str(manifest),
                   "--stats", str(stats_path), "--horizons", "80"])
    assert rc == 1
    assert "normalization stats" in _error_line(capsys)


def test_ablate_kernel_axis_three_rows(corpus, tmp_path, capsys):
    manifest, stats_path = corpus
    out = tmp_path / "ablate.csv"
    rc = cli.main(["ablate", "--axis", "kernel", "--data", str(manifest),
                   "--stats", str(stats_path), "--out", str(out),
                   "--iters", "3", "--num-sequences", "2"] + MICRO_FLAGS
                  + ["--no-adv"])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4  # header + one row per kernel shape
    assert lines[1].startswith("kernel,2x7,")
    assert lines[2].startswith("kernel,7x2,")
    assert lines[3].startswith("kernel,4x4,")


def test_gradcheck_cli_micro_passes(capsys):
    rc = cli.main(["gradcheck", "--seeds", "1", "--pose-dim", "6",
                   "--seed-frames", "6", "--target-frames", "2", "--window", "4",
                   "--channels", "2,3,3", "--fc-out", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # each check's seconds, then the suite total
    assert re.search(r"^seed 0 \[mse\+l2\]: .* PASS in \d+\.\ds$", out, re.M)
    assert re.search(r"^seed 0 \[full\]: .* PASS in \d+\.\ds$", out, re.M)
    assert re.search(r"^suite: 2 checks in \d+\.\ds$", out, re.M)


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--no-such-flag"])
    assert exc.value.code == 2


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=10\neta=0.25\n")
    parser = cli.build_parser()
    args = parser.parse_args(["train", "--data", "x", "--stats", "y", "--out",
                              "z", "--config", str(cfg), "--window", "5"])
    hp = cli._resolve_hyper(args)
    assert hp.window == 5      # flag wins
    assert hp.eta == 0.25      # config file survives where no flag given


def test_config_schedule_keys_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iterations=7\nmaster_seed=5\nnum_sequences=3\n")
    parser = cli.build_parser()
    args = parser.parse_args(["ablate", "--axis", "kernel", "--data", "x",
                              "--stats", "y", "--out", "z", "--config",
                              str(cfg), "--seed", "2"])
    cli._resolve_hyper(args)
    assert args.iters == 7           # config beats default
    assert args.seed == 2            # flag beats config
    assert args.num_sequences == 3
    args = parser.parse_args(["ablate", "--axis", "kernel", "--data", "x",
                              "--stats", "y", "--out", "z"])
    cli._resolve_hyper(args)
    assert (args.iters, args.seed, args.num_sequences) == (200, 0, 4)


@pytest.mark.parametrize("command,key", [("train", "num_sequences"),
                                         ("ablate", "checkpoint_every")])
def test_config_key_unused_by_command_rejected(tmp_path, command, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"window=10\n{key}=1\n")
    argv = [command, "--data", "x", "--stats", "y", "--out", "z",
            "--config", str(cfg)]
    if command == "ablate":
        argv += ["--axis", "kernel"]
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ValueError, match=f"line 2: key '{key}' is not used"):
        cli._resolve_hyper(args)


def test_config_eps_const_is_unknown_key(tmp_path):
    # no subcommand that reads --config can use eps_const (prep takes
    # --eps-const but no --config), so the key is not in the config schema
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=10\neps_const=1\n")
    args = cli.build_parser().parse_args(
        ["train", "--data", "x", "--stats", "y", "--out", "z",
         "--config", str(cfg)])
    with pytest.raises(ValueError, match="line 2: unknown key 'eps_const'"):
        cli._resolve_hyper(args)


def test_train_honours_config_schedule(corpus, tmp_path, capsys):
    manifest, stats_path = corpus
    cfg = tmp_path / "run.cfg"
    cfg.write_text("iterations=4\ncheckpoint_every=2\nadversarial=false\n")
    out_dir = tmp_path / "run"
    rc = cli.main(["train", "--data", str(manifest), "--stats", str(stats_path),
                   "--out", str(out_dir), "--config", str(cfg)] + MICRO_FLAGS)
    assert rc == 0
    report_lines = (out_dir / "report.csv").read_text().strip().split("\n")
    assert len(report_lines) == 5  # header + 4 iterations
    assert sorted(p.name for p in out_dir.glob("*.ckpt")) == [
        "ckpt_0000002.ckpt", "ckpt_0000004.ckpt"]


def test_train_rejects_finished_run_before_writing(corpus, tmp_path, capsys):
    manifest, stats_path = corpus
    out_dir = tmp_path / "run"
    base = ["train", "--data", str(manifest), "--stats", str(stats_path),
            "--out", str(out_dir), "--no-adv"] + MICRO_FLAGS
    assert cli.main(base + ["--iters", "2", "--checkpoint-every", "2"]) == 0
    report = (out_dir / "report.csv").read_text()
    capsys.readouterr()
    assert cli.main(base + ["--iters", "2", "--resume",
                            str(out_dir / "ckpt_0000002.ckpt")]) == 1
    assert re.search("2 iterations requested.*iteration 2", _error_line(capsys))
    assert (out_dir / "report.csv").read_text() == report
    assert cli.main(base + ["--iters", "0"]) == 1
    assert re.search("0 iterations requested.*iteration 0", _error_line(capsys))
    assert (out_dir / "report.csv").read_text() == report


@pytest.mark.parametrize("via,value", [("flag", "0"), ("config", "-1")])
def test_train_rejects_checkpoint_every_below_one(corpus, tmp_path, capsys,
                                                  via, value):
    manifest, stats_path = corpus
    out_dir = tmp_path / "run"
    argv = ["train", "--data", str(manifest), "--stats", str(stats_path),
            "--out", str(out_dir), "--iters", "2", "--no-adv"] + MICRO_FLAGS
    if via == "flag":
        argv += ["--checkpoint-every", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"checkpoint_every={value}\n")
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 1
    assert f"checkpoint_every must be >= 1, got {value}" in _error_line(capsys)
    assert not out_dir.exists()


def test_negative_learning_rate_is_one_error_line(capsys):
    assert cli.main(RUN_ARGV["train"] + ["--lr", "-1"]) == 1
    assert "learning_rate must be finite and > 0, got -1.0" in \
        _error_line(capsys)
    # exponent form, space-separated: argparse's own pattern takes it for a flag
    assert cli.main(RUN_ARGV["train"] + ["--lr", "-1e-4"]) == 1
    assert "learning_rate must be finite and > 0, got -0.0001" in \
        _error_line(capsys)


def _float_flags():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[0], a.dest)
            for name, p in sub.choices.items() for a in p._actions
            if a.type is float]


@pytest.mark.parametrize("value,shown", [("-1e-4", "-0.0001"),
                                         ("-inf", "-inf")])
@pytest.mark.parametrize("command,flag,field", _float_flags())
def test_negative_float_flag_reaches_its_refusal(
        corpus, tmp_path, capsys, command, flag, field, value, shown):
    # every float flag of every subcommand, given a negative value that
    # argparse's own pattern misses, space-separated, exits 1 with one error
    # line naming its field (not argparse's exit 2)
    manifest, _ = corpus
    argv = {"synth": ["synth", "--out", str(tmp_path / "c")],
            "prep": ["prep", "--data", str(manifest),
                     "--out", str(tmp_path / "s.json")],
            "gradcheck": ["gradcheck", "--seeds", "1"], **RUN_ARGV}[command]
    assert cli.main(argv + [flag, value]) == 1
    line = _error_line(capsys)
    assert field in line and shown in line, line
    assert not (tmp_path / "c").exists() and not (tmp_path / "s.json").exists()


def test_gradcheck_pose_dim_zero_is_one_error_line(capsys):
    assert cli.main(["gradcheck", "--seeds", "1", "--pose-dim", "0"]) == 1
    assert "pose_dim must be >= 1, got 0" in _error_line(capsys)


@pytest.mark.parametrize("flag,value", [("--seeds", "0"), ("--jobs", "0"),
                                        ("--jobs", "-2")])
def test_gradcheck_rejects_counts_below_one(capsys, flag, value):
    assert cli.main(["gradcheck", flag, value]) == 1
    assert f"{flag} must be >= 1, got {value}" in _error_line(capsys)


@pytest.mark.parametrize("value,shown", [("inf", "inf"), ("nan", "nan"),
                                         ("0", "0.0"), ("-1e-4", "-0.0001")])
def test_gradcheck_rejects_bad_tolerance(capsys, value, shown):
    # an infinite tolerance would pass every check and a NaN one fail every
    # check without a reason; such values are refused before any check runs
    for tol in ([f"--tol={value}"], ["--tol", value]):
        assert cli.main(["gradcheck", "--seeds", "1", *tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"tol must be finite and > 0, got {shown}" in \
            _one_error_line(captured.err)


def test_train_report_rows_kept_on_resume(corpus, tmp_path, capsys):
    manifest, stats_path = corpus
    out_dir = tmp_path / "run"
    base = ["train", "--data", str(manifest), "--stats", str(stats_path),
            "--out", str(out_dir), "--no-adv", "--iters", "4",
            "--checkpoint-every", "2"] + MICRO_FLAGS
    assert cli.main(base) == 0
    full = (out_dir / "report.csv").read_text().split("\n")
    assert cli.main(base + ["--resume", str(out_dir / "ckpt_0000002.ckpt")]) == 0
    resumed = (out_dir / "report.csv").read_text().split("\n")
    assert len(resumed) == len(full) == 6  # header, 4 rows, final newline
    assert resumed[:3] == full[:3]  # header and rows 1-2 kept as they were
    assert [r.rsplit(",", 1)[0] for r in resumed[3:5]] == \
        [r.rsplit(",", 1)[0] for r in full[3:5]]


def test_missing_data_file_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    rc = cli.main(["train", "--data", str(missing), "--stats", "y",
                   "--out", str(tmp_path / "run")] + MICRO_FLAGS)
    assert rc == 1
    err = capsys.readouterr().err
    assert str(missing) in _one_error_line(err)
    assert "Traceback" not in err


def test_parse_error_is_one_error_line(corpus, tmp_path, capsys):
    manifest, stats_path = corpus
    ckpt = tmp_path / "m.ckpt"
    hp = M.HyperParams(seed_frames=6, target_frames=3, window=4,
                       channels=(2, 3, 3), fc_out=8)
    stats = mocap.NormalizationStats.load(stats_path)
    M.save_checkpoint(ckpt, hp, stats.reduced_dim, stats.fingerprint(),
                      M.tensors_from_params(M.init_params(
                          hp, stats.reduced_dim, np.random.default_rng(0))))
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text("1.0,2.0\n3.0,oops\n")
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--stats",
                   str(stats_path), "--seed-file", str(seed_file),
                   "--out", str(tmp_path / "pred.txt")])
    assert rc == 1
    assert "line 2: invalid number 'oops'" in _error_line(capsys)


def test_short_seed_file_is_one_error_line(corpus, tmp_path, capsys):
    manifest, stats_path = corpus
    stats = mocap.NormalizationStats.load(stats_path)
    hp = M.HyperParams(seed_frames=6, target_frames=3, window=4,
                       channels=(2, 3, 3), fc_out=8)
    ckpt = tmp_path / "m.ckpt"
    M.save_checkpoint(ckpt, hp, stats.reduced_dim, stats.fingerprint(),
                      M.tensors_from_params(M.init_params(
                          hp, stats.reduced_dim, np.random.default_rng(0))))
    seed_file = tmp_path / "short.txt"
    trial = mocap.load_trial(manifest.parent / "S5" / "walk_1.txt")
    mocap.write_trial(trial.frames[:hp.seed_frames - 1], seed_file)
    out = tmp_path / "pred.txt"
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--stats",
                   str(stats_path), "--seed-file", str(seed_file),
                   "--out", str(out)])
    assert rc == 1
    line = _error_line(capsys)
    assert "seed file has 5 frames, need 6" in line
    assert str(seed_file) in line
    assert not out.exists()


@pytest.mark.parametrize("key, value, named", [
    ("frame_ms", 0, "frame_ms must be a finite number > 0, got 0"),
    ("frame_ms", float("nan"), "frame_ms must be a finite number > 0, got nan"),
    ("frame_ms", None, "manifest has no frame_ms"),
    ("train", None, "manifest has no train"),
    ("test", None, "manifest has no test"),
], ids=["frame_ms_zero", "frame_ms_nan", "no_frame_ms", "no_train", "no_test"])
def test_malformed_manifest_is_one_error_line(corpus, tmp_path, capsys, key,
                                              value, named):
    manifest, stats_path = corpus
    doc = json.loads(manifest.read_text())
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(doc))
    # the manifest is refused before the checkpoint is read
    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "absent.ckpt"),
                   "--data", str(bad),
                   "--stats", str(stats_path), "--num-sequences", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    line = _one_error_line(err)
    assert str(bad) in line and named in line
    assert "Traceback" not in err


def test_stats_file_without_key_is_one_error_line(corpus, tmp_path, capsys):
    manifest, stats_path = corpus
    doc = json.loads(stats_path.read_text())
    del doc["kept"]
    bad = tmp_path / "stats.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "pred.txt"
    # the stats file is refused before the checkpoint is read
    rc = cli.main(["predict", "--checkpoint", str(tmp_path / "absent.ckpt"),
                   "--stats", str(bad),
                   "--seed-file", str(manifest.parent / "S5" / "walk_1.txt"),
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    line = _one_error_line(err)
    assert str(bad) in line and "stats document has no kept" in line
    assert "Traceback" not in err
    assert not out.exists()


def _manifest_text(manifest, case):
    doc = json.loads(manifest.read_text())
    if case == "trial_without_path":
        del doc["train"][0]["path"]
    elif case == "trial_without_subject":
        del doc["test"][0]["subject"]
    elif case == "list":
        doc = [doc]
    else:  # not_json: the document cut short
        return json.dumps(doc)[:40]
    return json.dumps(doc)


@pytest.mark.parametrize("case, named", [
    ("trial_without_path", "train trial 0 has no path"),
    ("trial_without_subject", "test trial 0 has no subject"),
    ("list", "not a dataset manifest"),
    ("not_json", "manifest is not JSON"),
])
def test_malformed_manifest_document_is_one_error_line(corpus, tmp_path, capsys,
                                                       case, named):
    manifest, _ = corpus
    bad = tmp_path / "manifest.json"
    bad.write_text(_manifest_text(manifest, case))
    out = tmp_path / "stats.json"
    rc = cli.main(["prep", "--data", str(bad), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    line = _one_error_line(err)
    assert str(bad) in line and named in line
    assert "Traceback" not in err
    assert not out.exists()


def test_stats_file_holding_a_list_is_one_error_line(corpus, tmp_path, capsys):
    manifest, stats_path = corpus
    bad = tmp_path / "stats.json"
    bad.write_text(json.dumps([json.loads(stats_path.read_text())]))
    out = tmp_path / "pred.txt"
    rc = cli.main(["predict", "--checkpoint", str(tmp_path / "absent.ckpt"),
                   "--stats", str(bad),
                   "--seed-file", str(manifest.parent / "S5" / "walk_1.txt"),
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    line = _one_error_line(err)
    assert str(bad) in line and "stats document is not a JSON object" in line
    assert "Traceback" not in err
    assert not out.exists()


def test_ablate_checks_every_axis_value_before_training(corpus, tmp_path,
                                                        capsys, monkeypatch):
    manifest, stats_path = corpus
    trained = []
    real_train = cli.T.train

    def counting_train(sequences, stats, hp, *args, **kwargs):
        trained.append(hp.window)
        return real_train(sequences, stats, hp, *args, **kwargs)

    monkeypatch.setattr(cli.T, "train", counting_train)
    out = tmp_path / "ablate.csv"
    # C = 5 and C = 10 fit 16 seed frames; C = 20 does not
    rc = cli.main(["ablate", "--axis", "window", "--data", str(manifest),
                   "--stats", str(stats_path), "--out", str(out),
                   "--iters", "1", "--num-sequences", "1"] + MICRO_FLAGS
                  + ["--seed-frames", "16", "--no-adv"])
    assert rc == 1
    assert "C=20 t=16" in _error_line(capsys)
    assert trained == []
    assert not out.exists()


def test_width_shape_error_is_one_error_line(corpus, tmp_path, capsys):
    manifest, stats_path = corpus
    stats = mocap.NormalizationStats.load(stats_path)
    hp = M.HyperParams(seed_frames=6, target_frames=3, window=4,
                       channels=(2, 3, 3), fc_out=8)
    # a checkpoint for one pose dimension more than the stats reduce to
    wide = stats.reduced_dim + 1
    ckpt = tmp_path / "wide.ckpt"
    M.save_checkpoint(ckpt, hp, wide, stats.fingerprint(),
                      M.tensors_from_params(M.init_params(
                          hp, wide, np.random.default_rng(0))))
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--stats",
                   str(stats_path), "--seed-file",
                   str(manifest.parent / "S5" / "walk_1.txt"),
                   "--out", str(tmp_path / "pred.txt")])
    assert rc == 1
    assert "pose dim" in _error_line(capsys)


def test_verbose_error_keeps_traceback(tmp_path, capsys):
    rc = cli.main(["-v", "train", "--data", str(tmp_path / "nonexistent.json"),
                   "--stats", "y", "--out", str(tmp_path / "run")] + MICRO_FLAGS)
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.rstrip().splitlines()[-1].startswith("convmotion: error: ")
