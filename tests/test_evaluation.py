"""Euler-angle metric and horizon-report tests."""

import math

import numpy as np
import pytest

import rotation_oracle as oracle
from convmotion import evaluation as E
from convmotion import gradcheck as G
from convmotion import mocap
from convmotion import model as M
from convmotion.mocap import NormalizationStats, RawTrial


def simple_stats(raw_dim=9, global_dims=6):
    kept = np.ones(raw_dim, dtype=bool)
    kept[:global_dims] = False
    return NormalizationStats(mean=np.zeros(raw_dim), std=np.ones(raw_dim),
                              kept=kept, global_dims=global_dims)


def make_test_sequences(actions=("a", "b"), frames=60, joints=2, seed=0):
    rng = np.random.default_rng(seed)
    raws = []
    for action in actions:
        for trial in range(2):
            data = mocap.synthetic_trial_frames(rng, joints, frames, 0.5, 1.0)
            raws.append(RawTrial(data, action=action, trial_id=trial))
    stats = mocap.fit_stats(raws)
    return [mocap.normalize(t, stats) for t in raws], stats


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def test_error_zero_for_identical_frames():
    stats = simple_stats()
    frames = np.zeros((3, 9))
    frames[:, 6:] = np.random.default_rng(0).normal(scale=0.4, size=(3, 3))
    assert E.euler_error(frames, frames.copy(), 1, stats) == 0.0


def test_error_pi_for_constructed_half_turn():
    # single joint: truth rotated by pi about x, prediction at identity
    stats = simple_stats()
    pred = np.zeros((1, 9))
    truth = np.zeros((1, 9))
    truth[0, 6] = math.pi  # expmap (pi,0,0) decomposes to Euler (pi,0,0)
    err = E.euler_error(pred, truth, 0, stats)
    assert err == pytest.approx(math.pi, abs=1e-12)


def test_error_symmetry():
    stats = simple_stats(raw_dim=12)
    rng = np.random.default_rng(1)
    a = np.zeros((2, 12))
    b = np.zeros((2, 12))
    a[:, 6:] = rng.normal(scale=0.5, size=(2, 6))
    b[:, 6:] = rng.normal(scale=0.5, size=(2, 6))
    assert E.euler_error(a, b, 0, stats) == E.euler_error(b, a, 0, stats)


def test_error_identity_property_small_rotations():
    stats = simple_stats(raw_dim=12)
    rng = np.random.default_rng(2)
    a = np.zeros((1, 12))
    a[0, 6:] = rng.normal(scale=0.3, size=6)
    b = a.copy()
    assert E.euler_error(a, b, 0, stats) == 0.0
    b[0, 7] += 0.05
    assert E.euler_error(a, b, 0, stats) > 0.0


def test_error_ignores_masked_and_global_dims():
    stats = simple_stats(raw_dim=12)
    stats.kept[9:] = False  # second joint masked entirely
    a = np.zeros((1, 12))
    b = np.zeros((1, 12))
    b[0, :6] = 1.0    # global block differs
    b[0, 9:] = 0.7    # masked joint differs
    assert E.euler_error(a, b, 0, stats) == 0.0


def test_error_width_mismatch_rejected():
    stats = simple_stats()
    with pytest.raises(ValueError, match="width"):
        E.euler_error(np.zeros((1, 9)), np.zeros((1, 12)), 0, stats)


def test_error_frame_index_range():
    stats = simple_stats()
    with pytest.raises(IndexError):
        E.euler_error(np.zeros((2, 9)), np.zeros((2, 9)), 5, stats)


def test_horizon_frame_mapping():
    assert E.horizon_frames((80, 160, 320, 400, 1000), 40.0) == [2, 4, 8, 10, 25]


@pytest.mark.parametrize("target_frames,frame_ms,fit", [
    (25, 40.0, (80, 160, 320, 400, 1000)),
    (6, 40.0, (80, 160)),
    (1, 80.0, (80,)),
    # 80 ms is shorter than one 100 ms frame; 1000 ms lands on frame 10
    (10, 100.0, (160, 320, 400, 1000)),
    (9, 100.0, (160, 320, 400)),
])
def test_fitting_horizons_land_on_predicted_frames(target_frames, frame_ms,
                                                   fit):
    assert E.fitting_horizons(target_frames, frame_ms) == fit
    frames = E.horizon_frames(fit, frame_ms)
    assert 1 <= min(frames) and max(frames) <= target_frames


def test_no_fitting_horizon_is_refused():
    with pytest.raises(ValueError, match=r"^no evaluation horizon of "
                       r"\(80, 160, 320, 400, 1000\) ms fits in 1 target "
                       r"frames of 40.0 ms$"):
        E.fitting_horizons(1, 40.0)
    with pytest.raises(ValueError, match="fits in 20 target frames of 1500"):
        E.fitting_horizons(20, 1500.0)


def test_horizon_too_short_rejected():
    with pytest.raises(ValueError):
        E.horizon_frames((10,), 40.0)


def test_repeated_horizon_rejected():
    with pytest.raises(ValueError, match=r"^horizons must be strictly ascending: "
                                         r"80 ms follows 80 ms$"):
        E.horizon_frames((80, 80, 160), 40.0)
    with pytest.raises(ValueError, match="160 ms follows 320 ms"):
        E.horizon_frames((80, 320, 160), 40.0)
    # distinct horizons may share a frame: each has its own row
    assert E.horizon_frames((80, 100), 40.0) == [2, 2]


def test_batched_euler_error_matches_a_per_window_loop():
    stats = simple_stats(raw_dim=14)
    stats.kept[12] = False
    rng = np.random.default_rng(6)
    pred = rng.normal(scale=0.8, size=(3, 2, 5, 14))
    truth = rng.normal(scale=0.8, size=(3, 2, 5, 14))
    for frame_idx in (0, 4):
        got = E.euler_error(pred, truth, frame_idx, stats)
        assert got.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            euler = [np.array(x[idx][frame_idx]) for x in (pred, truth)]
            for e in euler:
                for j in range(E.JOINT_START, 12, 3):
                    e[j:j + 3] = oracle.rotmat_to_euler(
                        oracle.expmap_to_rotmat(e[j:j + 3]))
            diff = (euler[0] - euler[1])[stats.kept]
            want = float(np.sqrt(np.sum(diff * diff)))
            assert abs(got[idx] - want) <= 1e-12 * want
            single = E.euler_error(pred[idx], truth[idx], frame_idx, stats)
            assert isinstance(single, float)
            assert abs(single - got[idx]) <= 1e-12 * want


def test_euler_error_refuses_batches_that_do_not_pair_up():
    stats = simple_stats()
    with pytest.raises(ValueError, match="do not pair up"):
        E.euler_error(np.zeros((2, 3, 9)), np.zeros((3, 3, 9)), 0, stats)
    with pytest.raises(ValueError, match="do not pair up"):
        E.euler_error(np.zeros((2, 3, 9)), np.zeros((3, 9)), 0, stats)
    with pytest.raises(ValueError, match="do not pair up"):
        E.euler_error(np.zeros(9), np.zeros(9), 0, stats)


# ---------------------------------------------------------------------------
# evaluation harness
# ---------------------------------------------------------------------------


def test_zero_velocity_predictor_repeats_last_frame():
    seed = np.arange(12.0).reshape(4, 3)
    out = E.zero_velocity_predict(seed, 5)
    assert out.shape == (5, 3)
    for row in out:
        np.testing.assert_array_equal(row, seed[-1])
    batch = np.arange(24.0).reshape(2, 4, 3)
    out = E.zero_velocity_predict(batch, 5)
    assert out.shape == (2, 5, 3)
    for seq, pred in zip(batch, out):
        np.testing.assert_array_equal(pred, np.repeat(seq[-1:], 5, axis=0))


def test_frame_to_euler_matches_the_per_triple_oracle():
    rng = np.random.default_rng(5)
    frames = rng.normal(scale=0.8, size=(2, 3, 14))  # 3 joints + 2 trailing dims
    got = E.frame_to_euler(frames)
    want = frames.copy()
    for idx in np.ndindex(frames.shape[:-1]):
        for j in range(E.JOINT_START, 12, 3):
            want[idx][j:j + 3] = oracle.rotmat_to_euler(
                oracle.expmap_to_rotmat(frames[idx][j:j + 3]))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(got[..., :E.JOINT_START], frames[..., :E.JOINT_START])
    np.testing.assert_array_equal(got[..., 12:], frames[..., 12:])


def test_evaluate_deterministic():
    seqs, stats = make_test_sequences()
    baseline = lambda s: E.zero_velocity_predict(s, 4)
    kw = dict(seed_frames=6, target_frames=4, num_sequences=3, seed=42,
              horizons_ms=(80, 160))
    r1 = E.evaluate(baseline, seqs, stats, **kw)
    r2 = E.evaluate(baseline, seqs, stats, **kw)
    assert r1.errors == r2.errors
    assert r1.to_csv() == r2.to_csv()


def test_evaluate_average_is_mean_of_actions():
    seqs, stats = make_test_sequences(actions=("a", "b", "c"))
    baseline = lambda s: E.zero_velocity_predict(s, 4)
    report = E.evaluate(baseline, seqs, stats, seed_frames=6, target_frames=4,
                        num_sequences=2, seed=0, horizons_ms=(80, 160))
    avg = report.average()
    for ms in (80, 160):
        manual = np.mean([report.errors[a][ms] for a in ("a", "b", "c")])
        assert abs(avg[ms] - manual) < 1e-12


@pytest.mark.parametrize("num_sequences", [0, -1])
def test_evaluate_rejects_fewer_than_one_sequence(num_sequences):
    seqs, stats = make_test_sequences()
    with pytest.raises(ValueError, match="num_sequences"):
        E.evaluate(lambda s: E.zero_velocity_predict(s, 4), seqs, stats,
                   seed_frames=6, target_frames=4,
                   num_sequences=num_sequences, horizons_ms=(80, 160))


def test_evaluate_refuses_an_empty_horizon_list():
    seqs, stats = make_test_sequences()
    called = []
    with pytest.raises(ValueError, match="no horizons given"):
        E.evaluate(lambda s: called.append(s) or E.zero_velocity_predict(s, 4),
                   seqs, stats, seed_frames=6, target_frames=4, horizons_ms=())
    assert called == []


def test_evaluate_calls_the_predictor_once_per_report():
    seqs, stats = make_test_sequences(actions=("c", "a", "b"))
    calls = []

    def recording(seeds):
        calls.append(np.array(seeds))
        return E.zero_velocity_predict(seeds, 4)

    E.evaluate(recording, seqs, stats, seed_frames=6, target_frames=4,
               num_sequences=5, seed=3, horizons_ms=(80, 160))
    assert [c.shape for c in calls] == [(3 * 5, 6, stats.reduced_dim)]
    # each action's own stream, drawn as evaluate draws it, in sorted order
    want = []
    for a_idx, action in enumerate(("a", "b", "c")):
        pool = [s for s in seqs if s.action == action]
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([3, a_idx])))
        for _ in range(5):
            seq = pool[int(rng.integers(0, len(pool)))]
            offset = int(rng.integers(0, seq.num_frames - 10 + 1))
            want.append(seq.frames[offset:offset + 6])
    np.testing.assert_array_equal(calls[0], np.stack(want))


@pytest.mark.parametrize("wrong", [
    lambda s: E.zero_velocity_predict(s[0], 4),      # one window only
    lambda s: E.zero_velocity_predict(s, 3),         # too few frames
    lambda s: E.zero_velocity_predict(s, 4)[..., 1:],  # too narrow
], ids=["unbatched", "frames", "width"])
def test_evaluate_refuses_a_prediction_of_the_wrong_shape(wrong):
    seqs, stats = make_test_sequences()
    # two actions x two windows
    with pytest.raises(ValueError, match=r"^predictor returned shape \(.*\), "
                                         r"expected \(4, 4, \d+\)$"):
        E.evaluate(wrong, seqs, stats, seed_frames=6, target_frames=4,
                   num_sequences=2, horizons_ms=(80, 160))


def test_evaluate_refuses_a_non_finite_prediction():
    seqs, stats = make_test_sequences()

    def diverged(seeds):
        out = E.zero_velocity_predict(seeds, 4)
        out[2 + 1, 3, 0] = np.nan  # action "b", its second window
        return out

    with pytest.raises(ValueError, match=r"^prediction for action 'b' window 1 "
                                         r"is not finite$"):
        E.evaluate(diverged, seqs, stats, seed_frames=6, target_frames=4,
                   num_sequences=2, horizons_ms=(80, 160))


def test_evaluate_records_its_timings_outside_the_csv():
    seqs, stats = make_test_sequences()
    report = E.evaluate(lambda s: E.zero_velocity_predict(s, 4), seqs, stats,
                        seed_frames=6, target_frames=4, num_sequences=2,
                        horizons_ms=(80, 160))
    assert report.predict_s > 0.0 and report.score_s > 0.0
    bare = E.HorizonReport(report.horizons_ms, report.errors, 2)
    assert report.to_csv() == bare.to_csv()


def _reference_report(params, hp, seqs, stats, num_sequences, seed, horizons_ms):
    """The report computed window by window: one unbatched
    ``predict_sequence`` call per window, drawn as ``evaluate`` draws them,
    and the per-triple oracle conversions."""
    window_len = hp.seed_frames + hp.target_frames
    frames_at = E.horizon_frames(horizons_ms)
    errors = {}
    for a_idx, action in enumerate(sorted({s.action for s in seqs})):
        pool = [s for s in seqs if s.action == action and s.num_frames >= window_len]
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed, a_idx])))
        sums = dict.fromkeys(horizons_ms, 0.0)
        for _ in range(num_sequences):
            seq = pool[int(rng.integers(0, len(pool)))]
            offset = int(rng.integers(0, seq.num_frames - window_len + 1))
            window = seq.frames[offset:offset + window_len]
            pred = M.predict_sequence(window[:hp.seed_frames], params, hp).data
            pairs = (mocap.denormalize_frames(pred, stats),
                     mocap.denormalize_frames(window[hp.seed_frames:], stats))
            for ms, f in zip(horizons_ms, frames_at):
                euler = [np.array(raw[f - 1]) for raw in pairs]
                for e, raw in zip(euler, pairs):
                    for j in range(E.JOINT_START, stats.raw_dim - 2, 3):
                        e[j:j + 3] = oracle.rotmat_to_euler(
                            oracle.expmap_to_rotmat(raw[f - 1, j:j + 3]))
                diff = (euler[0] - euler[1])[stats.kept]
                sums[ms] += float(np.sqrt(np.sum(diff * diff)))
        errors[action] = {ms: sums[ms] / num_sequences for ms in horizons_ms}
    return errors


def test_batched_report_matches_a_window_by_window_loop():
    seqs, stats = make_test_sequences(joints=3)
    hp = M.HyperParams(seed_frames=6, target_frames=4, window=4,
                       channels=(2, 3, 3), fc_out=8, dropout=0.0)
    params = G.generic_params(hp, stats.reduced_dim, np.random.default_rng(1))
    report = E.evaluate(E.model_predictor(params, hp), seqs, stats,
                        seed_frames=6, target_frames=4, num_sequences=5,
                        seed=9, horizons_ms=(80, 160))
    want = _reference_report(params, hp, seqs, stats, 5, 9, (80, 160))
    assert report.actions == sorted(want)
    for action in want:
        for ms in (80, 160):
            assert report.errors[action][ms] > 0.0
            assert report.errors[action][ms] == pytest.approx(
                want[action][ms], rel=1e-9, abs=0)


def test_zero_decoder_model_matches_zero_velocity_baseline():
    seqs, stats = make_test_sequences(joints=2)
    hp = M.HyperParams(seed_frames=6, target_frames=4, window=4,
                       channels=(2, 3, 3), fc_out=8, dropout=0.0)
    # freshly initialized params have a zeroed final decoder layer
    params = M.init_params(hp, stats.reduced_dim, np.random.default_rng(0))
    model_report = E.evaluate(E.model_predictor(params, hp), seqs, stats,
                              seed_frames=6, target_frames=4, num_sequences=4,
                              seed=7, horizons_ms=(80, 160))
    baseline_report = E.evaluate(lambda s: E.zero_velocity_predict(s, 4), seqs,
                                 stats, seed_frames=6, target_frames=4,
                                 num_sequences=4, seed=7, horizons_ms=(80, 160))
    for action in model_report.actions:
        for ms in (80, 160):
            assert abs(model_report.errors[action][ms]
                       - baseline_report.errors[action][ms]) < 1e-9


def test_report_csv_and_table_layout():
    report = E.HorizonReport((80, 160),
                             {"walk": {80: 0.1, 160: 0.2},
                              "wave": {80: 0.3, 160: 0.4}}, 4)
    csv = report.to_csv()
    assert csv.startswith("action,ms,error\n")
    assert "walk,80,0.1" in csv
    assert "Average,160," in csv
    table = report.format_table()
    lines = table.strip().split("\n")
    assert lines[0].split() == ["ms", "80", "160"]
    assert lines[-1].startswith("Average")


def test_evaluate_dumps_predictions(tmp_path):
    seqs, stats = make_test_sequences()
    report = E.evaluate(lambda s: E.zero_velocity_predict(s, 4), seqs, stats,
                        seed_frames=6, target_frames=4, num_sequences=2, seed=1,
                        horizons_ms=(80,), dump_dir=tmp_path / "dump")
    files = sorted((tmp_path / "dump").glob("*.txt"))
    assert len(files) == 2 * len(report.actions)
    parsed = mocap.parse_trial(files[0].read_text())
    assert parsed.frames.shape == (4, stats.raw_dim)
