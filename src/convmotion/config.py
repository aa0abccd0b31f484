"""Key=value configuration files.

One flat text format drives the CLI: ``key=value`` lines, ``#`` comments.
Every ``HyperParams`` field and each run-schedule key a subcommand reads
is a key, parsed by the type of its default, and a ``--key-with-dashes``
flag unless ``SPELLING`` names another. The serialized defaults are the
model's reference operating point and are pinned by a golden test.
"""

from __future__ import annotations

from dataclasses import fields

from .model import HyperParams

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _parse_bool(s: str) -> bool:
    try:
        return _BOOL[s.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {s!r}") from None


def integer_list(text: str) -> tuple:
    """The integers of a list flag or config value, separated by ``,`` or
    ``x`` (``8,16,16``, ``2x7``); argparse names it in a refusal."""
    return tuple(int(tok) for tok in text.replace("x", ",").split(","))


def parser_for(default):
    """The text parser of a key, chosen by the type of its default."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return integer_list
    return type(default)


# what a key's declaration does not say: a flag other than
# --key-with-dashes (a bool key's flag sets the opposite of its default),
# a pair written AxB rather than A,B, and a help text
SPELLING = {
    "window": {"help": "short-term encoder width C"},
    "eta": {"help": "window blend: 1=closed loop, 0=teacher"},
    "learning_rate": {"flag": "--lr"},
    "kernel": {"pair": True, "help": "conv kernel, e.g. 2x7, 7x2, 4x4"},
    "stride": {"pair": True},
    "adversarial": {"flag": "--no-adv"},
    "iterations": {"flag": "--iters"},
    "master_seed": {"flag": "--seed"},
}

HYPER_DEFAULTS = {f.name: f.default for f in fields(HyperParams)}
# keys with their parsers, in canonical serialization order
HYPER_KEYS = {key: parser_for(d) for key, d in HYPER_DEFAULTS.items()}


def parse_config_text(text: str, parsers=HYPER_KEYS, known=()) -> dict:
    """Parse ``key=value`` lines with ``parsers`` (key -> parser). A key
    outside ``parsers`` is rejected: as one this command has no use for
    when it is in ``known``, otherwise as unknown; so is a key given
    twice."""
    out, linenos = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in parsers:
            if key in known:
                raise ValueError(
                    f"config line {lineno}: key {key!r} is not used by this command")
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in linenos:
            raise ValueError(f"config line {lineno}: key {key!r} is already "
                             f"given on line {linenos[key]}")
        linenos[key] = lineno
        try:
            out[key] = parsers[key](value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return out


def hyperparams_from_mapping(mapping: dict) -> HyperParams:
    kwargs = {k: v for k, v in mapping.items() if k in HYPER_KEYS}
    return HyperParams(**kwargs)


def format_value(key: str, value) -> str:
    if isinstance(value, tuple):
        sep = "x" if SPELLING.get(key, {}).get("pair") else ","
        return sep.join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_config(hp: HyperParams, schedule: dict | None = None) -> str:
    """``hp``'s keys in field order, then the ``schedule`` entries."""
    items = [(key, getattr(hp, key)) for key in HYPER_KEYS]
    items += (schedule or {}).items()
    return "\n".join(f"{key}={format_value(key, v)}" for key, v in items) + "\n"
