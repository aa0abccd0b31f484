"""The range table: one declaration per named numeric input, one message."""

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
