"""The range table and the document reader: one declaration per named
numeric input or JSON document, one message per case."""

import math
import re
import sys

import numpy as np
import pytest

from convmotion import ranges as R

TINY = 5e-324  # the least positive float
BIG = sys.float_info.max
# per form: the values just outside each bound (and NaN for a float form),
# then each closed bound and the value just inside each open one
EDGES = {
    ">= 0": ([-1], [0]),
    ">= 1": ([0], [1]),
    "finite": ([math.inf, -math.inf, math.nan], [-BIG, BIG]),
    "finite and > 0": ([0.0, math.inf, math.nan], [TINY, BIG]),
    "finite and >= 0": ([-TINY, math.inf, math.nan], [0.0, BIG]),
    "in [0, 1]": ([-TINY, math.nextafter(1.0, 2.0), math.nan], [0.0, 1.0]),
    "in [0, 1)": ([-TINY, 1.0, math.nan], [0.0, math.nextafter(1.0, 0.0)]),
    "in (0, 1)": ([0.0, 1.0, math.nan], [TINY, math.nextafter(1.0, 0.0)]),
}


def test_every_form_has_its_edges_here():
    assert set(EDGES) == set(R.FORMS)


def _refused(name, value):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{name} must be {R.RANGES[name]}, got {value!r}") + "$"):
        R.check(**{name: value})


@pytest.mark.parametrize("name", sorted(R.RANGES))
def test_every_range_refuses_its_edges_by_one_message(name):
    count, values, form = R.RANGES[name].partition(" values ")
    if not values:
        form, count = count, 1
    refused, accepted = EDGES[form]
    for v in refused + ["1"]:
        _refused(name, v if count == 1 else (v,) * int(count))
    for v in accepted:
        R.check(**{name: v if count == 1 else (v,) * int(count)})


@pytest.mark.parametrize("name", [n for n, r in R.RANGES.items()
                                  if " values " in r])
def test_a_tuple_range_refuses_another_length(name):
    count = int(R.RANGES[name].split()[0])
    for value in [(1,) * (count - 1), (1,) * (count + 1), 1, "1" * count]:
        _refused(name, value)
    R.check(**{name: [1] * count})


@pytest.mark.parametrize("value", [None, [1], True, b"1"])
def test_a_non_number_is_a_value_error(value):
    _refused("eps_const", value)


def test_check_refuses_the_first_value_out_of_range_in_argument_order():
    with pytest.raises(ValueError, match="^seed must be"):
        R.check(joints=1, seed=-1, frames=0)


@pytest.mark.parametrize("name", [n for n, r in R.RANGES.items()
                                  if r in (">= 0", ">= 1")])
def test_a_count_refuses_a_float_as_not_an_integer(name):
    for v in (1.5, 16.5, 1.0, math.nan):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{name} must be an integer {R.RANGES[name]}, got {v!r}") + "$"):
            R.check(**{name: v})
    R.check(**{name: np.int64(1)})


def test_a_tuple_count_refuses_a_fractional_entry():
    _refused("channels", (8.5, 16, 16))
    _refused("kernel", (2, 7.0))


def _read_refused(doc, decl, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        R.read(doc, decl)


def test_read_refuses_a_value_outside_its_range_by_its_path():
    assert R.read({"a": [{"seed": 3}]}, {"a": [{"seed": "seed"}]}) == {
        "a": [{"seed": 3}]}
    _read_refused({"a": [{"seed": 0}, {"seed": 1.5}]}, {"a": [{"seed": "seed"}]},
                  "a[1].seed must be an integer >= 0, got 1.5")
    _read_refused({"seed": True}, {"seed": "seed"}, "seed must be >= 0, got True")


def test_read_matches_a_string_by_exact_type():
    R.read("x", str)
    for value in (7, None, ["x"], b"x"):
        _read_refused({"t": [{"name": value}]}, {"t": [{"name": str}]},
                      f"t[0].name must be a string, got {value!r}")


def test_read_matches_a_bool_by_exact_type():
    R.read(False, bool)
    for value in ("false", 1, 0, 1.0, None):
        _read_refused({"h": {"flag": value}}, {"h": {"flag": bool}},
                      f"h.flag must be true or false, got {value!r}")


def test_read_matches_a_constant_by_type_and_value():
    R.read(1, (1,))
    R.read("float64", ("float32", "float64"))
    for value in (1.0, True, 2, "1", None):
        _read_refused({"version": value}, {"version": (1,)},
                      f"version must be 1, got {value!r}")
    _read_refused({"tensors": [{"dtype": "float32"}, {"dtype": "<f8"}]},
                  {"tensors": [{"dtype": ("float32", "float64")}]},
                  "tensors[1].dtype must be 'float32' or 'float64', got '<f8'")


def test_read_refuses_a_list_that_is_not_one():
    R.read([], [str])
    for value in ("ab", {"a": 1}, 5, None, (1,)):
        _read_refused({"train": value}, {"train": [str]},
                      f"train must be a list, got {value!r}")
    _read_refused({"kept": [True, 2]}, {"kept": [bool]},
                  "kept[1] must be true or false, got 2")


def test_read_refuses_an_object_that_is_not_one():
    for value in ([{"a": 1}], "a", 1, None):
        _read_refused(value, {"a": str},
                      f"the document must be an object, got {value!r}")
    _read_refused({"extra": [1, 2]}, {"extra": {"iteration?": "iteration"}},
                  "extra must be an object, got [1, 2]")


def test_read_refuses_a_missing_key_unless_it_is_optional():
    decl = {"a": str, "b": {"c?": "iteration", "d": bool}}
    R.read({"a": "x", "b": {"d": True}}, decl)
    _read_refused({"b": {"d": True}}, decl, "a is missing")
    _read_refused({"a": "x", "b": {"c": 2}}, decl, "b.d is missing")
    _read_refused({"a": "x", "b": {"c": 0, "d": True}}, decl,
                  "b.c must be >= 1, got 0")


def test_read_refuses_an_undeclared_key_after_every_declared_one():
    decl = {"a": str, "t": [{"n": str}]}
    _read_refused({"z": 1, "a": "x", "t": []}, decl, "z is not a declared key")
    _read_refused({"a": "x", "t": [{"n": "y", "m": 1}]}, decl,
                  "t[0].m is not a declared key")
    # a declared key that is missing is named before an undeclared one
    _read_refused({"z": 1, "t": []}, decl, "a is missing")
