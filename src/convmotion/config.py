"""Key=value configuration files.

One flat text format drives the CLI: ``key=value`` lines, ``#`` comments.
Values cover every hyperparameter plus run-schedule knobs; the serialized
defaults are the model's reference operating point and are pinned by a
golden test.
"""

from __future__ import annotations

from pathlib import Path

from .model import HyperParams

# keys with their parsers, in canonical serialization order
_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _parse_bool(s: str) -> bool:
    try:
        return _BOOL[s.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {s!r}") from None


def _parse_int_tuple(s: str) -> tuple:
    return tuple(int(tok) for tok in s.replace("x", ",").split(",") if tok)


def _format_pair(v: tuple) -> str:
    return f"{v[0]}x{v[1]}"


HYPER_KEYS = {
    "seed_frames": int,
    "target_frames": int,
    "window": int,
    "eta": float,
    "lambda_l2": float,
    "lambda_adv": float,
    "learning_rate": float,
    "batch_size": int,
    "dropout": float,
    "leaky_slope": float,
    "channels": _parse_int_tuple,
    "fc_out": int,
    "kernel": _parse_int_tuple,
    "stride": _parse_int_tuple,
    "no_long_term": _parse_bool,
    "adversarial": _parse_bool,
}

SCHEDULE_KEYS = {
    "iterations": int,
    "master_seed": int,
    "checkpoint_every": int,
    "num_sequences": int,
}

ALL_KEYS = {**HYPER_KEYS, **SCHEDULE_KEYS}


def parse_config_text(text: str, allowed=ALL_KEYS) -> dict:
    """Parse ``key=value`` lines; unknown keys, and known keys outside
    ``allowed`` (those the reading command has no use for), are rejected."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ALL_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key not in allowed:
            raise ValueError(
                f"config line {lineno}: key {key!r} is not used by this command")
        try:
            out[key] = ALL_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return out


def load_config(path, allowed=ALL_KEYS) -> dict:
    return parse_config_text(Path(path).read_text(), allowed)


def hyperparams_from_mapping(mapping: dict) -> HyperParams:
    kwargs = {k: v for k, v in mapping.items() if k in HYPER_KEYS}
    return HyperParams(**kwargs)


def format_value(key: str, value) -> str:
    if key in ("channels",):
        return ",".join(str(v) for v in value)
    if key in ("kernel", "stride"):
        return _format_pair(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_config(hp: HyperParams, schedule: dict | None = None) -> str:
    lines = [f"{key}={format_value(key, getattr(hp, key))}" for key in HYPER_KEYS]
    for key in SCHEDULE_KEYS:
        if schedule and key in schedule:
            lines.append(f"{key}={format_value(key, schedule[key])}")
    return "\n".join(lines) + "\n"


def default_config_text() -> str:
    """Canonical serialization of the default operating point."""
    return format_config(HyperParams())
