"""Tape nodes per objective: the second counter of ROADMAP aim 2.

The counts are pinned so that a change which moves them says so. A change
that lowers a count updates ROADMAP aim 2's counter in the same change; one
that raises it also gives the reason in CHANGES.md.
"""

from collections import Counter

import numpy as np

from convmotion import gradcheck as G
from convmotion import model as M
from convmotion import training as T
from convmotion.mocap import MotionSequence, NormalizationStats

# each pinned tape's nodes by op, the op being the function whose closure
# is the node's VJP; the totals are ROADMAP aim 2's counter
# (every conv reads its input rows in place and applies its own leaky
# ReLU, as the decoder's hidden affine map does; each encoder's dropout
# joins the last conv layer's rows in its own node, in eval mode too, so
# the discriminator's one dropout node is that join; the encoders' affine
# maps flatten their own input; the decoder's first affine map reads the two
# codes as parts and its last adds the previous frame, so a decoding step
# is three nodes: linear, dropout, linear)
GENERATOR_OPS = Counter(  # 226
    add=2, clip=1, conv2d=81, dropout=52, linear=78, mul=4,
    reshape=1, sigmoid=1, stack=1, sub=1, sumsq=2, tlog=1, tmean=1)
DISCRIMINATOR_OPS = Counter(  # 26
    add=2, clip=2, conv2d=6, dropout=1, linear=4, mul=3, reshape=2,
    sigmoid=2, tlog=2, tmean=2)
GRADCHECK_OPS = Counter(  # 74
    add=2, clip=1, conv2d=24, dropout=14, linear=21, mul=4,
    reshape=1, sigmoid=1, stack=1, sub=1, sumsq=2, tlog=1, tmean=1)

def _ops(tape, params) -> Counter:
    """The tape's nodes by op. Each conv node must hold a ``*.kernel``
    parameter of ``params`` (or a detached copy, which shares its array)
    at ``inputs[1]``: the benchmark's tracer takes the kernel shape, and so
    the conv MAC count, from there."""
    names = {id(t.data): name for name, t in params.items()}
    for node in tape._nodes:
        if node.vjp.__qualname__.startswith("conv2d."):
            name = names.get(id(node.inputs[1].data), "no parameter")
            assert name.endswith(".kernel"), (
                f"a conv node holds {node.inputs[1]!r} ({name}) at "
                f"inputs[1], not a kernel")
    return Counter(node.vjp.__qualname__.split(".")[0] for node in tape._nodes)


def _moved(what: str, pinned: Counter, got: Counter) -> str:
    """Which ops' node counts moved, for the failure message."""
    moved = {op: f"{pinned[op]} -> {got[op]}" for op in sorted(pinned | got)
             if pinned[op] != got[op]}
    return (f"tape nodes per {what} moved, {pinned.total()} -> {got.total()}, "
            f"by op {moved}: update the pins and ROADMAP aim 2's counter in "
            f"the same change")


def test_training_iteration_tape_nodes_at_paper_architecture(monkeypatch):
    # the paper architecture at batch 2; the counts do not depend on B
    hp = M.HyperParams(batch_size=2)
    L = 54
    rng = np.random.default_rng(0)
    seqs = [MotionSequence(rng.normal(size=(hp.seed_frames + hp.target_frames,
                                            L)), "walk")]
    stats = NormalizationStats(mean=np.zeros(L), std=np.ones(L),
                               kept=np.ones(L, dtype=bool))
    params = M.init_params(hp, L, np.random.default_rng(0))
    taped = []
    real_backward = T.backward

    def counting_backward(loss, tape):
        taped.append(_ops(tape, params))
        return real_backward(loss, tape)

    monkeypatch.setattr(T, "backward", counting_backward)
    T.train(seqs, stats, hp, T.TrainSchedule(iterations=1), params=params)
    # the generator step, then the discriminator step
    generator, discriminator = taped
    assert generator == GENERATOR_OPS, _moved(
        "generator step", GENERATOR_OPS, generator)
    assert discriminator == DISCRIMINATOR_OPS, _moved(
        "discriminator step", DISCRIMINATOR_OPS, discriminator)


def test_gradcheck_objective_tape_nodes():
    # the tiny adversarial objective each finite-difference check replays
    hp, pose_dim = G.tiny_hyperparams(), G.TINY_POSE_DIM
    params = G.generic_params(hp, pose_dim, np.random.default_rng(0))
    data = np.random.default_rng(1)
    seed = 0.5 * data.normal(size=(hp.seed_frames, pose_dim))
    target = 0.5 * data.normal(size=(hp.target_frames, pose_dim))
    _, tape = G.taped_objective(params, params.generator_named(), seed, target,
                                hp, True, 0)
    ops = _ops(tape, params)
    assert ops == GRADCHECK_OPS, _moved("gradcheck objective", GRADCHECK_OPS,
                                        ops)
