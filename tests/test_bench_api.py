"""The package API the benchmark in ``perfbench/`` relies on.

Each workload sets up and passes its own checks at a tiny configuration, the
training and inference workloads run one operation under the per-layer
tracer, and removing the tracer puts every patched attribute back. A name
the benchmark calls or patches that goes missing fails here.
"""

import inspect
import sys
from pathlib import Path

import pytest

from convmotion import autodiff as ad
from convmotion import evaluation as E
from convmotion import gradcheck as G
from convmotion import mocap
from convmotion import model as M
from convmotion import training as T

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads as W  # noqa: E402
from tracer import OPS, Tracer  # noqa: E402

# the evaluation horizons reach 1000 ms, the 25th predicted frame
TINY_HP = G.tiny_hyperparams(target_frames=25, batch_size=2)
PATCHED = (ad, ad.GradTape, M, T, T.WindowSampler, G, E, mocap)


def _attributes():
    return {owner: dict(vars(owner)) for owner in PATCHED}


@pytest.mark.parametrize("make,counted", [
    (lambda: W.TrainWorkload(TINY_HP, joints=3, iters_per_call=1),
     ("fwd.conv2d",)),
    # the per-layer Euler and predictor rows read these counts: a refactor
    # that stops calling them through the module would zero those rows
    (lambda: W.PredictEvalWorkload(TINY_HP, joints=3, predicts_per_round=2),
     ("fwd.conv2d", "evaluation.euler_error", "evaluation.predict")),
], ids=["train", "predict_eval"])
def test_workload_checks_and_traced_op(tmp_path, make, counted):
    workload = make()
    state = workload.setup(tmp_path / "work", 0)
    assert workload.check(state) == []
    before = _attributes()
    tracer = Tracer(workload.cem_names)
    tracer.install()
    try:
        record = workload.op(state, tracer)
    finally:
        tracer.remove()
    assert record.failed == 0, record.problems
    calls = tracer.take()["calls"]
    for key in counted:
        assert calls.get(key, 0) > 0, key
    assert _attributes() == before


def test_benchmark_chunk_matches_gradcheck():
    # the benchmark counts reference calls with its own copy of FD_CHUNK
    assert W.FD_CHUNK == G.FD_CHUNK


def test_gradcheck_workload_checks(tmp_path):
    workload = W.GradcheckWorkload()
    state = workload.setup(tmp_path / "work", 0)
    assert workload.check(state) == []


def test_tracer_times_every_op_that_records_a_node():
    # an op that records tape nodes but is missing from OPS would run with
    # its forward untimed
    recording = {name for name, fn in vars(ad).items()
                 if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                 and not name.startswith("_")
                 and "_record(" in inspect.getsource(fn)}
    assert recording == set(OPS)
