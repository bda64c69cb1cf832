"""The two routes of the command line: ``cli._plain_args`` reads a plain
argv in one pass, and argparse reads every other argv.

Command lines are drawn from each command's options in ``cli.COMMANDS``,
about half of them perturbed into forms that only argparse reads.  The
reader either declines an argv or builds argparse's namespace, and ``main``
prints and exits alike with the reader stubbed out.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqeve.cli
from seqeve.cli import COMMANDS, _attach_dash_values, _parser, _plain_args, main

ROUTES = settings(max_examples=600, deadline=None, derandomize=True)
RUNS = settings(max_examples=150, deadline=None, derandomize=True)
GOLDEN = Path(__file__).parent / "golden"

# Values that argparse reads as values, none starting with '-'.
plain_values = st.one_of(
    st.text(max_size=6).filter(lambda text: not text.startswith("-")),
    st.sampled_from(["", " ", "0.1", "plan", "chain", "a=b", "=x", " -1", "h"]),
)
dash_values = st.sampled_from(
    ["-", "--", "-0.1", "-1e-3", "-x", "-h", "--help", "--rates", "--out", "--format"]
)
ALL_FLAGS = sorted({flag for _, _, options in COMMANDS.values() for flag in options})


def _attach(draw, command, pairs):
    pairs = [pair for pair in pairs if len(pair) == 2]
    if pairs:
        pair = draw(st.sampled_from(pairs))
        pair[:] = [f"{pair[0]}={pair[1]}"]


def _repeat(draw, command, pairs):
    if pairs:
        pair = draw(st.sampled_from(pairs))
        pairs.insert(draw(st.integers(0, len(pairs))), list(pair))


def _dash_value(draw, command, pairs):
    pairs = [pair for pair in pairs if len(pair) == 2]
    if pairs:
        draw(st.sampled_from(pairs))[1] = draw(dash_values)


def _help(draw, command, pairs):
    flag = draw(st.sampled_from(["-h", "--help"]))
    pairs.insert(draw(st.integers(0, len(pairs))), [flag])


def _unknown_flag(draw, command, pairs):
    options = COMMANDS[command][2]
    flag = draw(st.sampled_from(["--bogus", "-x", *ALL_FLAGS]).filter(
        lambda flag: flag not in options
    ))
    pairs.insert(draw(st.integers(0, len(pairs))), [flag, draw(plain_values)])


def _abbreviated_flag(draw, command, pairs):
    pairs = [pair for pair in pairs if pair[0].startswith("--") and len(pair[0]) > 3]
    if pairs:
        pair = draw(st.sampled_from(pairs))
        pair[0] = pair[0][: draw(st.integers(3, len(pair[0]) - 1))]


def _bad_choice(draw, command, pairs):
    for pair in pairs:
        if pair[0] == "--format":
            pair[1] = draw(st.sampled_from(["xml", "CSV", "json ", "", "csvs"]))


def _missing_flag(draw, command, pairs):
    options = COMMANDS[command][2]
    required = [pair for pair in pairs if options.get(pair[0], {}).get("required")]
    if required:
        pairs.remove(draw(st.sampled_from(required)))


def _missing_value(draw, command, pairs):
    pairs = [pair for pair in pairs if len(pair) == 2]
    if pairs:
        del draw(st.sampled_from(pairs))[1]


def _value_of_a_switch(draw, command, pairs):
    for pair in pairs:
        if pair[0] == "--check-paper":
            pair.append(draw(plain_values))


def _stray_value(draw, command, pairs):
    pairs.insert(draw(st.integers(0, len(pairs))), [draw(plain_values)])


PERTURBATIONS = [
    _attach, _repeat, _dash_value, _help, _unknown_flag, _abbreviated_flag,
    _bad_choice, _missing_flag, _missing_value, _value_of_a_switch, _stray_value,
]
# Ways to lose the command: none, another word, or a flag in front of it.
COMMAND_FAULTS = ["drop", "rename", "flag first"]


@st.composite
def command_lines(draw, value_of):
    """(argv, perturbed): a command, each of its required flags and some of
    the others in any order with values drawn by ``value_of(flag)``, then
    about half the time one or two perturbations."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    pairs = []
    for flag, keywords in COMMANDS[command][2].items():
        if keywords.get("required") or draw(st.booleans()):
            if keywords.get("action") == "store_true":
                pairs.append([flag])
            elif "choices" in keywords:
                pairs.append([flag, draw(st.sampled_from(keywords["choices"]))])
            else:
                pairs.append([flag, draw(value_of(flag))])
    pairs = [list(pair) for pair in draw(st.permutations(pairs))]
    faults = draw(st.lists(st.sampled_from(PERTURBATIONS + COMMAND_FAULTS), max_size=2))
    head = [command]
    for fault in faults:
        if fault == "drop":
            head = []
        elif fault == "rename":
            head = [draw(st.sampled_from(["", "Plan", "chains", "help", "--"]))]
        elif fault == "flag first":
            first = draw(st.sampled_from([["-h"], ["--help"], ["--rates", "0.1"]]))
            head = first + head
        else:
            fault(draw, command, pairs)
    return head + [token for pair in pairs for token in pair], bool(faults)


def argparse_vars(argv):
    """``vars`` of what argparse reads from ``argv``, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return vars(_parser().parse_args(_attach_dash_values(argv)))
        except SystemExit:
            return None


@ROUTES
@given(command_lines(lambda flag: plain_values))
@example((["plan", "--rates", "0.1", "--check-paper"], False))
@example((["plan", "--rates=0.1", "--check-paper"], True))
@example(
    (["unbounded", "--theta1", "0.5", "--lambdas", "0.3", "--format", "xml"], True)
)
@example((["chain", "--scenario", "a", "--scenario", "a"], True))
@example((["chain", "--scenario"], True))
@example((["chain", "--out", "x"], True))
@example(([], True))
def test_the_reader_declines_or_reads_what_argparse_reads(line):
    argv, perturbed = line
    read = _plain_args(argv)
    if not perturbed:
        assert read is not None, argv
    if read is not None:
        assert vars(read) == argparse_vars(argv), argv


NUMBERS = ["0.3", "0.05,0.3", "deg:20", "0.3,0.5,0.7", "x", "", "0", "2", "0.3,,0.2"]


def run_values(flag):
    """Values that reach the commands: in-range and faulty numbers, scenario
    files that exist or not, and an output file."""
    if flag == "--scenario":
        names = ["chain_mixed.yaml", "chain_explicit.yaml", "missing.yaml"]
        return st.sampled_from([str(GOLDEN / name) for name in names])
    if flag == "--out":
        return st.sampled_from(["OUT", ""])
    return st.sampled_from(NUMBERS) | dash_values


def outcome(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@RUNS
@given(command_lines(run_values))
def test_main_runs_alike_with_the_reader_stubbed_out(line):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        target = Path(tmp) / "out.txt"
        # The placeholder stands alone or, attached, after a '='.
        argv = [
            token[: len(token) - 3] + str(target) if token.endswith("OUT") else token
            for token in line[0]
        ]
        runs = []
        for reader in (_plain_args, lambda argv: None):
            mp.setattr(seqeve.cli, "_plain_args", reader)
            target.unlink(missing_ok=True)
            result = outcome(argv)
            runs.append((result, target.read_bytes() if target.exists() else None))
    assert runs[0] == runs[1], argv
