"""Mocap ingestion, normalization, and rotation-conversion tests."""

import json
import math
import re

import numpy as np
import pytest

from convmotion import mocap
from convmotion.mocap import (
    DatasetManifest,
    NormalizationStats,
    ParseError,
    RawTrial,
    denormalize_frames,
    expmap_to_rotmat,
    fit_stats,
    format_trial,
    generate_corpus,
    load_split,
    normalize,
    normalize_frames,
    parse_trial,
    rotmat_to_euler,
    synthetic_trial_frames,
    write_trial,
)

import rotation_oracle as oracle
from rotation_oracle import euler_to_rotmat

# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_two_lines():
    trial = parse_trial("0,0,0\n1,2,3")
    assert trial.frames.shape == (2, 3)
    np.testing.assert_array_equal(trial.frames, [[0, 0, 0], [1, 2, 3]])


def test_parse_ragged_row_names_line():
    text = "1,2,3\n4,5,6\n7,8,9\n1,2,3\n1,2\n"
    with pytest.raises(ParseError, match=r"line 5: expected 3 values, got 2"):
        parse_trial(text)


def test_parse_non_numeric_token_named():
    with pytest.raises(ParseError, match=r"line 2: invalid number 'abc'"):
        parse_trial("1,2\n1,abc\n")


@pytest.mark.parametrize("token", ["nan", "inf", "1e999", " -inf"])
def test_parse_non_finite_value_named(token):
    # the vectorised check maps its first bad row back to the line,
    # counting the blank lines it skipped
    with pytest.raises(ParseError, match=re.escape(
            f"line 4: non-finite value {token.strip()!r}")):
        parse_trial(f"1,2\n\n3,4\n5,{token}\n{token},6\n")


def test_parse_empty_file():
    with pytest.raises(ParseError, match="empty file"):
        parse_trial("")


@pytest.mark.parametrize("content,message", [
    (b"1,2,3\n4,5\n", "line 2: expected 3 values, got 2"),
    (b"\n", "empty file"),
    (b"1,2\n\xff\xfe\n", "can't decode byte 0xff"),
], ids=["ragged", "empty", "not-utf8"])
def test_load_trial_errors_name_the_file(tmp_path, content, message):
    path = tmp_path / "S1" / "walk_2.txt"
    path.parent.mkdir()
    path.write_bytes(content)
    with pytest.raises(ParseError) as exc:
        mocap.load_trial(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert message in str(exc.value)


def test_write_then_parse_round_trips_bit_exactly(tmp_path):
    rng = np.random.default_rng(100)
    frames = rng.normal(scale=3.0, size=(100, 99))
    path = tmp_path / "trial.txt"
    write_trial(frames, path)
    back = mocap.load_trial(path)
    assert np.array_equal(back.frames, frames)  # exact, not approximate


def test_format_parse_identity_is_bijective():
    rng = np.random.default_rng(5)
    frames = rng.normal(size=(7, 4)) * 10.0 ** rng.integers(-8, 8, size=(7, 4))
    text = format_trial(frames)
    again = format_trial(parse_trial(text).frames)
    assert text == again


# ---------------------------------------------------------------------------
# normalization statistics
# ---------------------------------------------------------------------------


def _trial(frames, **kw):
    return RawTrial(np.asarray(frames, dtype=float), **kw)


def test_fit_stats_identical_frames_masks_everything():
    # every dimension is constant, so none is kept: a fit that keeps no
    # dimension is refused, as no model can train on zero pose dimensions
    frames = np.tile(np.arange(10.0), (4, 1))
    with pytest.raises(ValueError, match="no dimension is kept: all 10"):
        fit_stats([_trial(frames)])


def test_fit_stats_refuses_a_corpus_of_global_dimensions_only():
    # a zero-joint trial is the global block alone, which is always masked
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="no dimension is kept: all 6 are "
                                         "global"):
        fit_stats([_trial(rng.normal(size=(5, 6)))])


def test_fit_stats_hand_computed_population_std():
    # two frames differing only in one dimension: mean 1, population std 1
    frames = np.zeros((2, 8))
    frames[1, 6] = 2.0
    stats = fit_stats([_trial(frames)])
    assert stats.mean[6] == 1.0
    assert stats.std[6] == 1.0  # population convention: sqrt(((0-1)^2+(2-1)^2)/2)
    assert stats.kept[6]
    assert stats.reduced_dim == 1


def test_fit_stats_global_dims_always_masked():
    rng = np.random.default_rng(0)
    frames = rng.normal(size=(50, 12))
    stats = fit_stats([_trial(frames)])
    assert not stats.kept[:6].any()
    assert stats.kept[6:].all()
    assert stats.reduced_dim == 6


def test_fit_stats_pools_across_trials():
    a = _trial(np.zeros((3, 7)))
    b = _trial(np.ones((1, 7)))
    stats = fit_stats([a, b], global_dims=0)
    np.testing.assert_allclose(stats.mean, np.full(7, 0.25))
    np.testing.assert_allclose(stats.std, np.full(7, math.sqrt(3.0) / 4.0))


@pytest.mark.parametrize("eps", [0.0, -1e-4, math.inf, math.nan])
def test_fit_stats_refuses_non_positive_eps_const(eps):
    # eps_const <= 0 keeps zero-variance dimensions, which normalize to inf
    with pytest.raises(ValueError, match="eps_const must be finite and > 0"):
        fit_stats([_trial(np.ones((4, 9)))], eps_const=eps)


@pytest.mark.parametrize("global_dims", [-1, -6])
def test_fit_stats_refuses_a_negative_global_dims(global_dims):
    # kept[:-1] = False would keep only the last dimension instead
    with pytest.raises(ValueError, match=re.escape(
            f"global_dims must be >= 0, got {global_dims}")):
        fit_stats([_trial(np.random.default_rng(0).normal(size=(20, 12)))],
                  global_dims=global_dims)


def test_fit_stats_empty_rejected():
    with pytest.raises(ValueError):
        fit_stats([])


def test_fit_stats_width_mismatch_rejected():
    with pytest.raises(ValueError, match="width"):
        fit_stats([_trial(np.zeros((2, 5))), _trial(np.zeros((2, 6)))])


def test_normalize_denormalize_round_trip():
    rng = np.random.default_rng(1)
    frames = rng.normal(size=(40, 15)) * rng.uniform(0.5, 4.0, size=15)
    stats = fit_stats([_trial(frames)])
    seq = normalize(_trial(frames), stats)
    back = denormalize_frames(seq.frames, stats)
    np.testing.assert_allclose(back[:, stats.kept], frames[:, stats.kept], atol=1e-9)
    # masked dims are exactly zero after denormalize
    assert np.all(back[:, ~stats.kept] == 0.0)


def test_normalize_mean_frame_is_zero():
    rng = np.random.default_rng(2)
    frames = rng.normal(size=(30, 9))
    stats = fit_stats([_trial(frames)])
    out = normalize_frames(stats.mean[None, :], stats)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_normalize_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(6, 10))
    stats = fit_stats([_trial(rng.normal(size=(50, 10)))])
    out = normalize_frames(frames, stats)
    kept_idx = np.flatnonzero(stats.kept)
    for r in range(6):
        for c_out, c_raw in enumerate(kept_idx):
            expected = (frames[r, c_raw] - stats.mean[c_raw]) / stats.std[c_raw]
            assert out[r, c_out] == pytest.approx(expected, abs=1e-12)


def test_normalize_width_mismatch_rejected():
    stats = fit_stats([_trial(np.random.default_rng(0).normal(size=(10, 8)))])
    with pytest.raises(ValueError, match="width"):
        normalize_frames(np.zeros((2, 9)), stats)


def test_stats_json_round_trip_and_fingerprint(tmp_path):
    rng = np.random.default_rng(4)
    stats = fit_stats([_trial(rng.normal(size=(20, 11)))])
    path = tmp_path / "stats.json"
    stats.save(path)
    back = NormalizationStats.load(path)
    assert np.array_equal(back.mean, stats.mean)
    assert np.array_equal(back.std, stats.std)
    assert np.array_equal(back.kept, stats.kept)
    assert back.fingerprint() == stats.fingerprint()
    # any content change changes the fingerprint
    other = fit_stats([_trial(rng.normal(size=(20, 11)))])
    assert other.fingerprint() != stats.fingerprint()


# each edit makes a stats file disagree with itself; dimensions 0-5 are the
# masked global block and 6-10 are kept
STATS_EDITS = {
    "std-one-short": (lambda d: d["std"].pop(),
                      "mean, std and kept must be lists of one length, got "
                      "shapes (11,), (10,), (11,)"),
    "kept-one-long": (lambda d: d["kept"].append(True),
                      "got shapes (11,), (11,), (12,)"),
    "nested-mean": (lambda d: d.update(mean=[d["mean"]]),
                    "mean[0] must be finite, got ["),
    "nan-mean": (lambda d: d["mean"].__setitem__(3, math.nan),
                 "mean[3] must be finite, got nan"),
    "inf-std": (lambda d: d["std"].__setitem__(8, math.inf),
                "std[8] must be finite, got inf"),
    "bool-mean": (lambda d: d["mean"].__setitem__(0, True),
                  "mean[0] must be finite, got True"),
    "integer-kept": (lambda d: d["kept"].__setitem__(6, 2),
                     "kept[6] must be true or false, got 2"),
    "fractional-kept": (lambda d: d["kept"].__setitem__(7, 0.5),
                        "kept[7] must be true or false, got 0.5"),
    "undeclared-key": (lambda d: d.update(dims=11),
                       "dims is not a declared key"),
    "zero-eps": (lambda d: d.update(eps_const=0.0),
                 "eps_const must be finite and > 0, got 0.0"),
    "list-eps": (lambda d: d.update(eps_const=[1]),
                 "eps_const must be finite and > 0, got [1]"),
    "null-global-dims": (lambda d: d.update(global_dims=None),
                         "global_dims must be >= 0, got None"),
    "negative-global-dims": (lambda d: d.update(global_dims=-1),
                             "global_dims must be >= 0, got -1"),
    "fractional-global-dims": (lambda d: d.update(global_dims=6.5),
                               "global_dims must be an integer >= 0, got 6.5"),
    "kept-global-dim": (lambda d: d["kept"].__setitem__(2, True),
                        "kept dimension 2 is one of the 6 global dimensions"),
    "kept-std-zero": (lambda d: d["std"].__setitem__(7, 0.0),
                      "kept dimension 7 has std 0.0, below eps_const 0.0001"),
    "kept-std-small": (lambda d: d["std"].__setitem__(10, 5e-5),
                       "kept dimension 10 has std 5e-05, below eps_const"),
}


@pytest.mark.parametrize("edit,message", STATS_EDITS.values(),
                         ids=STATS_EDITS.keys())
def test_inconsistent_stats_file_is_refused_whole(tmp_path, edit, message):
    stats = fit_stats([_trial(np.random.default_rng(4).normal(size=(20, 11)))])
    assert stats.kept.tolist() == [False] * 6 + [True] * 5
    doc = json.loads(stats.to_json())
    edit(doc)
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        NormalizationStats.load(path)
    assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)


def test_stats_file_cut_short_is_not_json(tmp_path):
    stats = fit_stats([_trial(np.random.default_rng(4).normal(size=(20, 11)))])
    path = tmp_path / "stats.json"
    path.write_text(stats.to_json()[:40])
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{path}: not JSON: Unterminated string")):
        NormalizationStats.load(path)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


def test_expmap_zero_is_identity():
    np.testing.assert_array_equal(expmap_to_rotmat([0.0, 0.0, 0.0]), np.eye(3))


def test_expmap_quarter_turn_about_x():
    R = expmap_to_rotmat([math.pi / 2.0, 0.0, 0.0])
    np.testing.assert_allclose(R @ np.array([0.0, 1.0, 0.0]), [0.0, 0.0, 1.0],
                               atol=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_expmap_produces_proper_rotations(seed):
    rng = np.random.default_rng(seed)
    r = rng.normal(size=3) * rng.uniform(0.1, 3.0)
    R = expmap_to_rotmat(r)
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-9)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


def test_expmap_tiny_angle_taylor_branch():
    r = np.array([1e-9, -2e-9, 5e-10])
    R = expmap_to_rotmat(r)
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-15)
    # matches the full formula evaluated slightly above the cutoff
    R_big = expmap_to_rotmat(r * 100)
    assert np.abs(R - np.eye(3)).max() < np.abs(R_big - np.eye(3)).max()


def test_euler_identity():
    np.testing.assert_array_equal(rotmat_to_euler(np.eye(3)), [0.0, 0.0, 0.0])


@pytest.mark.parametrize("seed", range(30))
def test_euler_round_trip(seed):
    rng = np.random.default_rng(seed)
    R = expmap_to_rotmat(rng.normal(size=3) * rng.uniform(0.1, 2.5))
    e = rotmat_to_euler(R)
    np.testing.assert_allclose(euler_to_rotmat(e), R, atol=1e-6)


def test_euler_gimbal_lock_finite():
    for sign in (1.0, -1.0):
        R = euler_to_rotmat([0.3, sign * math.pi / 2.0, 0.0])
        assert abs(abs(R[0, 2]) - 1.0) < 1e-12
        e = rotmat_to_euler(R)
        assert np.all(np.isfinite(e))
        assert e[2] == 0.0
        np.testing.assert_allclose(euler_to_rotmat(e), R, atol=1e-9)


def test_euler_rejects_non_orthonormal():
    bad = np.eye(3)
    bad[0, 0] = 1.5
    with pytest.raises(ValueError, match="orthonormal"):
        rotmat_to_euler(bad)


def test_euler_refuses_a_nan_matrix():
    mats = expmap_to_rotmat(np.random.default_rng(3).normal(size=(4, 3)))
    mats[2, 1, 1] = np.nan
    with pytest.raises(ValueError, match=r"orthonormal \(max \|R\^T R - I\| = nan\)"):
        rotmat_to_euler(mats)


def test_batched_denormalize_matches_a_per_frame_loop():
    trials = [RawTrial(np.random.default_rng(k).normal(size=(7, 12)))
              for k in range(2)]
    trials[0].frames[:, 9] = trials[1].frames[:, 9] = 0.25  # a masked dim
    stats = fit_stats(trials)
    assert 0 < stats.reduced_dim < stats.raw_dim - 6
    frames = np.random.default_rng(5).normal(size=(3, 2, 4, stats.reduced_dim))
    got = denormalize_frames(frames, stats)
    assert got.shape == (3, 2, 4, 12)
    for idx in np.ndindex(3, 2, 4):
        want = np.zeros(12)
        for k, j in enumerate(np.flatnonzero(stats.kept)):
            want[j] = frames[idx][k] * stats.std[j] + stats.mean[j]
        np.testing.assert_allclose(got[idx], want, rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="width"):
        denormalize_frames(np.zeros((2, stats.reduced_dim + 1)), stats)


def test_batched_rotations_match_the_scalar_oracle():
    # random exponential maps, seven below the series cutoff, then both
    # gimbal-lock signs
    rng = np.random.default_rng(11)
    r = rng.normal(size=(400, 3)) * rng.uniform(0.05, 3.0, size=(400, 1))
    r[:6] = rng.normal(size=(6, 3)) * 3e-9
    r[6] = 0.0
    assert np.all(np.linalg.norm(r[:7], axis=1) < 1e-8)
    locks = np.stack([euler_to_rotmat([0.3, sign * math.pi / 2.0, 0.0])
                      for sign in (1.0, -1.0)])
    R = expmap_to_rotmat(r.reshape(20, 20, 3))
    assert R.shape == (20, 20, 3, 3)
    want = np.stack([oracle.expmap_to_rotmat(v) for v in r])
    np.testing.assert_allclose(R.reshape(-1, 3, 3), want, rtol=0, atol=1e-12)
    mats = np.concatenate([want, locks])
    e = rotmat_to_euler(mats)
    assert e.shape == (402, 3)
    np.testing.assert_allclose(e, np.stack([oracle.rotmat_to_euler(m) for m in mats]),
                               rtol=0, atol=1e-12)
    # the gimbal-lock rows took the degenerate branch, one of each sign
    assert abs(locks[0, 0, 2] + 1.0) < 1e-12 and abs(locks[1, 0, 2] - 1.0) < 1e-12
    np.testing.assert_array_equal(e[-2:, 2], [0.0, 0.0])
    np.testing.assert_allclose(e[-2:, 1], [math.pi / 2.0, -math.pi / 2.0], atol=0)


def test_batched_euler_refuses_one_non_orthonormal_matrix():
    mats = expmap_to_rotmat(np.random.default_rng(4).normal(size=(5, 3)))
    mats[3] *= 1.001  # R^T R = 1.002001 I; the other four are proper rotations
    with pytest.raises(ValueError, match=r"orthonormal \(max \|R\^T R - I\| = 2\.001e-03\)"):
        rotmat_to_euler(mats)


@pytest.mark.parametrize("shape", [(), (4,), (2, 2)])
def test_expmap_rejects_a_last_axis_other_than_three(shape):
    with pytest.raises(ValueError, match="3-vector"):
        expmap_to_rotmat(np.zeros(shape))


# ---------------------------------------------------------------------------
# synthetic corpus and manifests
# ---------------------------------------------------------------------------


def test_synthetic_frames_shape_and_global_block():
    rng = np.random.default_rng(0)
    frames = synthetic_trial_frames(rng, joints=4, frames=50, freq_lo=0.5,
                                    freq_hi=1.0)
    assert frames.shape == (50, 6 + 12)
    assert np.all(frames[:, :6] == 0.0)
    # every joint dimension moves enough to survive the constant-dim cutoff
    assert (frames[:, 6:].std(axis=0) > 1e-3).all()


def test_synthetic_deterministic_under_seed():
    a = synthetic_trial_frames(np.random.default_rng(9), 3, 30, 0.5, 1.0)
    b = synthetic_trial_frames(np.random.default_rng(9), 3, 30, 0.5, 1.0)
    assert np.array_equal(a, b)


def test_generate_corpus_layout_and_manifest(tmp_path):
    manifest_path = generate_corpus(tmp_path / "data", actions=("walk", "wave"),
                                    joints=3, frames=40, seed=7,
                                    train_trials=2, test_trials=1)
    manifest = DatasetManifest.load(manifest_path)
    assert len(manifest.train) == 4
    assert len(manifest.test) == 2
    actions = {ref.action for ref in manifest.train + manifest.test}
    assert actions == {"walk", "wave"}
    assert (tmp_path / "data" / "S1" / "walk_1.txt").exists()
    assert (tmp_path / "data" / "S5" / "wave_1.txt").exists()

    trials = load_split(manifest, "train")
    assert len(trials) == 4
    assert all(t.frames.shape == (40, 15) for t in trials)
    stats = fit_stats(trials)
    assert stats.reduced_dim == 9  # 3 joints x 3 dims; global block masked


@pytest.mark.parametrize("lo,hi", [(-0.1, 0.5), (0.0, 0.5), (0.6, 0.5),
                                   (0.2, math.inf)])
def test_generate_corpus_refuses_bad_frequency_band(tmp_path, lo, hi):
    with pytest.raises(ValueError, match="freq_lo and freq_hi must satisfy"):
        generate_corpus(tmp_path / "d", freq_lo=lo, freq_hi=hi)
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("kwargs,message", [
    (dict(joints=0), "joints must be >= 1, got 0"),
    (dict(joints=-1), "joints must be >= 1, got -1"),
    (dict(frames=0), "frames must be >= 1, got 0"),
    (dict(train_trials=0), "train_trials must be >= 1, got 0"),
    (dict(test_trials=-1), "test_trials must be >= 0, got -1"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(actions=("walk", "walk")), "distinct non-empty names, got "
                                     "['walk', 'walk']"),
    (dict(actions=("walk", "")), "got ['walk', '']"),
    (dict(actions=()), "actions must be one or more"),
], ids=["joints-0", "joints-neg", "frames-0", "train-trials-0",
        "test-trials-neg", "seed-neg", "repeated-action", "empty-action",
        "no-actions"])
def test_generate_corpus_refuses_what_it_cannot_honour(tmp_path, kwargs,
                                                       message):
    with pytest.raises(ValueError, match=re.escape(message)):
        generate_corpus(tmp_path / "d", **kwargs)
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("action", ["../../escaped", "a\\b", "a,b", "a\nb",
                                    "a\u2028b"],
                         ids=["parent-path", "backslash", "comma", "newline",
                              "line-separator"])
def test_generate_corpus_refuses_an_action_that_escapes_or_splits_a_cell(
        tmp_path, action):
    # an action names files and fills one cell of a report CSV row
    with pytest.raises(ValueError, match=re.escape(
            f"actions must be one or more distinct non-empty names, got "
            f"{['walk', action]}; each must be a non-empty name without "
            f"'/', '\\', ',' or a line break")):
        generate_corpus(tmp_path / "d", actions=("walk", action))
    assert not (tmp_path / "d").exists()


def test_manifest_from_tree_skips_actions_that_split_a_cell(tmp_path, caplog):
    # a file name holds no '/', but it may hold the other refused characters
    rels = ["S1/walk_1.txt", "S1/a,b_1.txt", "S1/a\\b_1.txt", "S1/a\nb_1.txt",
            "S5/walk_1.txt"]
    for rel in rels:
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_text("")
    with caplog.at_level("WARNING", logger="convmotion.mocap"):
        manifest = mocap.manifest_from_tree(tmp_path)
    assert [r.path for r in manifest.train] == ["S1/walk_1.txt"]
    assert [r.path for r in manifest.test] == ["S5/walk_1.txt"]
    (record,) = caplog.records
    assert "skipped 3 .txt file(s)" in record.getMessage()


def test_generate_corpus_without_test_trials(tmp_path):
    manifest = DatasetManifest.load(generate_corpus(
        tmp_path / "d", actions=("a",), joints=1, frames=10, test_trials=0))
    assert len(manifest.train) == 2 and manifest.test == []


def test_manifest_from_tree_names_the_files_it_skips(tmp_path, caplog):
    def tree(*rels):
        for rel in rels:
            (tmp_path / rel).parent.mkdir(exist_ok=True)
            (tmp_path / rel).write_text("")
        with caplog.at_level("WARNING", logger="convmotion.mocap"):
            return mocap.manifest_from_tree(tmp_path)

    tree("S1/walk_1.txt", "S1/walk_2.csv", "S5/walk_1.txt")
    assert not caplog.records  # nothing skipped: no warning
    manifest = tree("S1/walk_x.txt", "S1/notes.txt", "S5/README.txt")
    assert [r.path for r in manifest.train] == ["S1/walk_1.txt"]
    assert [r.path for r in manifest.test] == ["S5/walk_1.txt"]
    (record,) = caplog.records
    assert record.levelname == "WARNING"
    message = record.getMessage()
    assert "skipped 3 .txt file(s)" in message
    assert message.endswith("S1/notes.txt, S1/walk_x.txt, S5/README.txt")


def test_prep_pipeline_reduced_dim_matches_joint_count(tmp_path):
    manifest_path = generate_corpus(tmp_path / "d", actions=("a",), joints=4,
                                    frames=60, seed=1)
    manifest = DatasetManifest.load(manifest_path)
    stats = fit_stats(load_split(manifest, "train"))
    assert stats.reduced_dim == 12
