"""Fuzzing the exit-code contract of ``plan`` and ``unbounded`` arguments
and of ``chain`` scenario file bytes, the latter under both YAML loaders.

Every argument string and every file must exit 0, 2 or 3; argparse's own
SystemExit(2) counts as 2.  An exit 2 that ``main`` returns names the field
or option at fault.  Exit 5 means a fault of the program, so no input may
reach it, and no exception may escape ``main``.
"""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqeve.cli import main

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)
# Random inputs of the small-angle sweep, as many as were first run by hand.
SMALL_ANGLE_FUZZ = settings(max_examples=3000, deadline=None, derandomize=True)

JUNK = ["", " ", "abc", "-", "--x", "-inf", "1e400", "0x1", "1_0", "deg:", "pi/4"]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity", "deg:nan", "deg:inf"]
# An input error names the field or option it is about.
NAMED_INPUT_ERROR = re.compile(r"^input error: [\w.\[\]]+: ")
# Items without a comma, so that a list keeps the drawn number of items.
free_text = st.text(st.characters(blacklist_characters=","), max_size=6)


def run(argv):
    """(exit code, stderr, whether argparse exited) of ``main(argv)``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code, by_argparse = main(argv), False
        except SystemExit as exc:  # argparse rejected the arguments
            code, by_argparse = exc.code, True
    return code, err.getvalue(), by_argparse


def assert_contract(argv):
    code, err, by_argparse = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    if code == 2 and not by_argparse:
        assert NAMED_INPUT_ERROR.match(err), (argv, err)
    return code


# Negative numbers that argparse alone would read as options ('-1e-3').
negative_items = st.floats(min_value=0.0, exclude_min=True).map(lambda x: f"-{x!r}")


@st.composite
def item_lists(draw, valid, fuzzed, max_size):
    """Comma-joined valid items, about half the time with one item fuzzed,
    and about a quarter of the time with a negative first item."""
    items = draw(st.lists(valid, max_size=max_size))
    if items and draw(st.booleans()):
        items[draw(st.integers(0, len(items) - 1))] = draw(fuzzed)
    if items and draw(st.integers(0, 3)) == 0:
        items[0] = draw(negative_items)
    return ",".join(items)


valid_rates = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr)
rate_items = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1", "0.0", "1.0", "-0.1", "1e-300"] + NON_FINITE + JUNK),
    free_text,
)


@FUZZ
@given(item_lists(valid_rates, rate_items, max_size=4), st.booleans())
def test_plan_rates_keep_the_exit_contract(rates, check_paper):
    argv = ["plan", "--rates", rates]
    assert_contract(argv + ["--check-paper"] if check_paper else argv)


valid_angles = st.one_of(
    st.floats(0.0, math.pi / 4, exclude_min=True).map(repr),
    st.floats(0.0, 45.0, exclude_min=True).map(lambda deg: f"deg:{deg!r}"),
)
angle_tokens = st.one_of(
    st.floats(-10.0, 10.0).map(repr),
    st.floats(-360.0, 360.0).map(lambda deg: f"deg:{deg!r}"),
    st.sampled_from(["0", "-0.0", "0.7853981633974484", "0.7853981633974485"]),
    st.sampled_from(NON_FINITE + JUNK + ["deg:45", "deg:0", "deg:1e400"]),
    free_text,
)


@FUZZ
@given(valid_angles | angle_tokens, item_lists(valid_angles, angle_tokens, max_size=14))
def test_unbounded_angles_keep_the_exit_contract(theta1, weak):
    assert_contract(["unbounded", "--theta1", theta1, "--lambdas", weak])


@FUZZ
@given(
    st.sampled_from(["rates", "lambdas"]),
    negative_items,
    st.lists(valid_rates, max_size=3),
)
def test_negative_first_item_names_the_option(option, first, rest):
    items = ",".join([first, *rest])
    if option == "rates":
        argv, field = ["plan", "--rates", items], "rates"
    else:
        argv, field = ["unbounded", "--theta1", "0.5", "--lambdas", items], "lambdas[0]"
    code, err, _ = run(argv)
    assert code == 2
    assert err.startswith(f"input error: {field}: "), (argv, err)


# Log-uniform angles from 1e-9 up to pi/4, where leaf angles and Alice
# marginals reach the DEGENERATE_THETA and ZERO_PROB_ATOL thresholds.
small_angles = st.floats(math.log(1e-9), math.log(math.pi / 4)).map(
    lambda x: repr(math.exp(x))
)


@SMALL_ANGLE_FUZZ
@given(small_angles, st.lists(small_angles, min_size=1, max_size=12))
def test_unbounded_small_angles_exit_0_2_or_3(theta1, weak):
    argv = ["unbounded", "--theta1", theta1, "--lambdas", ",".join(weak)]
    assert assert_contract(argv) in (0, 2, 3)


VALID_SCENARIO = b"state: {kind: bell}\neves:\n  - lambda: 0.6\n"
needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML is built without libyaml"
)


@pytest.mark.parametrize(
    "fallback",
    [pytest.param(False, marks=needs_libyaml), True],
    ids=["libyaml", "SafeLoader"],
)
@FUZZ
@given(st.sampled_from([b"", b"mode: chain\n", VALID_SCENARIO]), st.binary(max_size=32))
@example(b"", b"\xff\xfem\x00")  # "m" in UTF-16, not valid UTF-8
# The YAML constructor raises a plain ValueError on these tagged scalars.
@example(b"mode: chain\n", b"x: 2001-02-30\n")
@example(b"mode: chain\n", b'state: {theta: !!float "x"}\n')
@example(b"mode: chain\n", b'x: !!int "0x"\n')
@example(b"mode: chain\n", b"1: a\nb: c\n")  # keys of mixed types
def test_scenario_bytes_keep_the_exit_contract(fallback, prefix, data):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if fallback:
            mp.delattr(yaml, "CSafeLoader", raising=False)
        scenario = Path(tmp) / "scenario.yaml"
        scenario.write_bytes(prefix + data)
        # --out overrides any output path the drawn file may name.
        argv = ["chain", "--scenario", str(scenario), "--out", str(Path(tmp) / "out")]
        code, err, _ = run(argv)
    assert code in (0, 2, 3), (prefix + data, code, err)
    if code == 2:
        assert NAMED_INPUT_ERROR.match(err), (prefix + data, err)
