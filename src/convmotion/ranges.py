"""The range of every named numeric input and the shape of every JSON
document read from outside (manifest, stats file, checkpoint header), each
declared once. ``check`` refuses a value outside its range, ``{name} must
be {range}, got {value!r}``, NaN, a bool, a non-number and a count that is
not an integer included; ``read`` refuses, in the same form and by its path,
any part of a document that its declaration does not admit, and ``parse``
refuses text that is not JSON as ``not JSON: {error}``. A rule that
relates two inputs (``window <= seed_frames``) is checked where both are
known. This module imports nothing from the package."""

import json
import math
import numbers
import reprlib

# every form a range takes, as a refusal reads it, with its test; each
# comparison is False for NaN, so NaN is refused
FORMS = {
    ">= 0": lambda v: 0 <= v,
    ">= 1": lambda v: 1 <= v,
    "finite": lambda v: -math.inf < v < math.inf,
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
                     "step", "iterations", "iteration"), ">= 1"),
    **dict.fromkeys(("master_seed", "seed", "test_trials", "global_dims",
                     "extent", "trial"), ">= 0"),
    **dict.fromkeys(("learning_rate", "eps_const", "frame_ms", "tol"),
                    "finite and > 0"),
    **dict.fromkeys(("lambda_l2", "lambda_adv"), "finite and >= 0"),
    "mean": "finite", "std": "finite",
    "eta": "in [0, 1]", "dropout": "in [0, 1)", "leaky_slope": "in (0, 1)",
    "channels": "3 values >= 1", "kernel": "2 values >= 1",
    "stride": "2 values >= 1",
}

# what a refusal calls a document part of each kind that is not a range
WORDS = {str: "a string", bool: "true or false", list: "a list", dict: "an object"}


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
        read(value, name, name)


def read(doc, decl, path: str = ""):
    """Return ``doc``, a parsed JSON value, if ``decl`` admits every part of
    it, else refuse the first part that it does not, by its path
    (``train[3].trial``). ``decl`` is a ``RANGES`` name; ``str`` or ``bool``,
    matched by exact type; a tuple of admitted constants, matched by type
    and value (``1.0`` and ``True`` are not ``1``); ``[entry]``, a list of
    entries; or a dict, an object with exactly those keys, of which one
    ending in ``?`` may be absent."""
    must = None  # what a refused part must be
    if isinstance(decl, str):
        if not _admits(form := RANGES[decl], doc):
            integer = form in COUNTS and isinstance(doc, float)
            must = "an integer " + form if integer else form
    elif isinstance(decl, tuple):
        if not any(type(doc) is type(c) and doc == c for c in decl):
            must = " or ".join(map(repr, decl))
    elif type(doc) is not (kind := decl if decl in (str, bool) else type(decl)):
        must = WORDS[kind]
    elif kind is list:
        for i, item in enumerate(doc):
            read(item, decl[0], f"{path}[{i}]")
    elif kind is dict:
        keys = {key.rstrip("?"): key for key in decl}
        for name in {**keys, **doc}:
            where = f"{path}.{name}" if path else name
            if name not in keys:
                raise ValueError(f"{where} is not a declared key")
            if name in doc:
                read(doc[name], decl[keys[name]], where)
            elif name == keys[name]:
                raise ValueError(f"{where} is missing")
    if must:
        # a whole document refused as one value is shown cut short
        raise ValueError(f"{path or 'the document'} must be {must}, "
                         f"got {reprlib.repr(doc)}")
    return doc


def parse(text, decl):
    """``read`` the document that the JSON text ``text`` holds against
    ``decl``."""
    try:
        return read(json.loads(text), decl)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON: {exc}") from None
