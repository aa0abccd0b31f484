"""Tape nodes per objective: the second counter of ROADMAP aim 2.

The counts are pinned so that a change which moves them says so. A change
that lowers a count updates ROADMAP aim 2's counter in the same change; one
that raises it also gives the reason in CHANGES.md.
"""

import numpy as np

from convmotion import gradcheck as G
from convmotion import model as M
from convmotion import training as T
from convmotion.mocap import MotionSequence, NormalizationStats

MOVED = ("tape nodes per {} moved: update ROADMAP aim 2's counter "
         "in the same change")


def test_training_iteration_tape_nodes_at_paper_architecture(monkeypatch):
    # the paper architecture at batch 2; the counts do not depend on B
    hp = M.HyperParams(batch_size=2)
    L = 54
    rng = np.random.default_rng(0)
    seqs = [MotionSequence(rng.normal(size=(hp.seed_frames + hp.target_frames,
                                            L)), "walk")]
    stats = NormalizationStats(mean=np.zeros(L), std=np.ones(L),
                               kept=np.ones(L, dtype=bool))
    taped = []
    real_backward = T.backward

    def counting_backward(loss, tape):
        taped.append(len(tape))
        return real_backward(loss, tape)

    monkeypatch.setattr(T, "backward", counting_backward)
    T.train(seqs, stats, hp, T.TrainSchedule(iterations=1))
    # the generator step, then the discriminator step
    assert taped == [534, 33], MOVED.format("training iteration")


def test_gradcheck_objective_tape_nodes():
    # the tiny adversarial objective each finite-difference check replays
    hp, pose_dim = G.tiny_hyperparams(), G.TINY_POSE_DIM
    params = G.generic_params(hp, pose_dim, np.random.default_rng(0))
    data = np.random.default_rng(1)
    seed = 0.5 * data.normal(size=(hp.seed_frames, pose_dim))
    target = 0.5 * data.normal(size=(hp.target_frames, pose_dim))
    _, tape = G.taped_objective(params, params.generator_named(), seed, target,
                                hp, True, 0)
    assert len(tape) == 128, MOVED.format("gradcheck objective")
