"""The range of every named numeric input, declared once, and the one check
that refuses a value outside it: ``{name} must be {range}, got {value!r}``.
NaN, a bool, a non-number and a count that is not an integer are refused
too. A rule that relates two inputs (``window <= seed_frames``) is checked
where both are known. This module imports nothing from the package."""

import math
import numbers

# every form a range takes, as a refusal reads it, with its test; each
# comparison is False for NaN, so NaN is refused
FORMS = {
    ">= 0": lambda v: 0 <= v,
    ">= 1": lambda v: 1 <= v,
    "finite and > 0": lambda v: 0 < v < math.inf,
    "finite and >= 0": lambda v: 0 <= v < math.inf,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1)": lambda v: 0 < v < 1,
}
COUNTS = (">= 0", ">= 1")  # the forms of counts, which admit integers only

# name -> range; "3 values >= 1" asks for a tuple of three values >= 1
RANGES = {
    **dict.fromkeys(("seed_frames", "target_frames", "window", "batch_size",
                     "fc_out", "pose_dim", "checkpoint_every", "num_sequences",
                     "seeds", "joints", "frames", "train_trials",
                     "step", "iterations"), ">= 1"),
    **dict.fromkeys(("master_seed", "seed", "test_trials", "global_dims",
                     "offset", "nbytes", "extent"), ">= 0"),
    **dict.fromkeys(("learning_rate", "eps_const", "frame_ms", "tol"),
                    "finite and > 0"),
    **dict.fromkeys(("lambda_l2", "lambda_adv"), "finite and >= 0"),
    "eta": "in [0, 1]", "dropout": "in [0, 1)", "leaky_slope": "in (0, 1)",
    "channels": "3 values >= 1", "kernel": "2 values >= 1",
    "stride": "2 values >= 1",
}


def _admits(form: str, value) -> bool:
    count, values, one = form.partition(" values ")
    if values:
        return (isinstance(value, (tuple, list)) and len(value) == int(count)
                and all(_admits(one, v) for v in value))
    kind = numbers.Integral if form in COUNTS else numbers.Real
    return (isinstance(value, kind) and not isinstance(value, bool)
            and FORMS[form](value))


def check(**values) -> None:
    """Refuse the first value, in argument order, outside its range."""
    for name, value in values.items():
        form = RANGES[name]
        if not _admits(form, value):
            if form in COUNTS and isinstance(value, float):
                form = "an integer " + form
            raise ValueError(f"{name} must be {form}, got {value!r}")
