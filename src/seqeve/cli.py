"""Command-line driver: chain evaluation, sharpness planning, branch reports.

Each command hands the writer its rows as (prefixes, suffixes, values)
groups: one row labelled p + s for each prefix p and each suffix s, all
sharing ``values``, the tuple of cells after the label, in column order.
``unbounded`` computes the one Schmidt angle that every leaf of the branch
tree shares by a scalar recursion, evaluates both Alice strategies in one
stacked kernel pass and writes the 2^n leaf labels as one group, their high
and low halves, each leaf of weight exactly 2^-n.  The text of a row is
built once per call, as a CSV row or a JSON object with a slot per cell.  A
run of two or more one-row groups, all of ``chain``'s rows, fills it
repeated once per row with one '%', each column's floats formatted in one
batch.  Any other group fills it once, and each prefix's rows are one join
over the suffixes, so no leaf row or leaf label costs a Python call.
Numbers and angles in arguments go through the scenario file's parsers,
``parse_number`` and ``parse_angle``, so both read the same text alike.

Exit codes: 0 success, 2 input error (a ScenarioError, which names the field
or option, or results or help that cannot be written), 3 a degenerate branch
or an Alice outcome too improbable to condition on, 4 reference-value
mismatch, 5 any other failure, which is the program's.  Output files are
byte-identical across runs for identical inputs; run metadata is in '#'
header lines.  ``_emit`` is the one writer of results and help.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .chain import ZeroProbabilityError, tables
from .measurement import check_weak_angle
from .planner import (
    BOB_SUPREMACY, InfeasibleError, PlanResult, check_target_rate, plan_chains,
)
from .scenario import (
    OUTPUT_FORMATS, ScenarioError, load_scenario, parse_angle, parse_number,
)
from .states import check_tilt_angle
from .steering import scores
from .unbounded import DegenerateStateError, leaf_scores, leaf_theta

# Published minimal-sharpness chains for targets 0.1 / 0.2 / 0.3 on the
# maximally entangled state, with Bob's resulting rate; the chain length is
# the number of lambdas.
REFERENCE_PLANS = {
    0.1: {"lambdas": (0.552, 0.602, 0.670, 0.768), "bob_rate": 0.172},
    0.2: {"lambdas": (0.604, 0.672, 0.772), "bob_rate": 0.269},
    0.3: {"lambdas": (0.655, 0.747), "bob_rate": 0.447},
}
LAMBDA_TOL = 1e-3
# One published entry (0.67) carries only two decimals.
COARSE_LAMBDA_TOL = 5e-3
COARSE_ENTRIES = {(0.1, 2)}
BOB_RATE_TOL = 2e-3
# Caps the 2^n rows that ``unbounded`` writes.
MAX_UNBOUNDED_DEPTH = 12
# Options whose value may start with '-' (a negative number or list item).
DASH_VALUE_OPTIONS = ("--rates", "--theta1", "--lambdas")
# json's spelling of the floats that repr spells nan, inf and -inf.
JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _fmt(value: object) -> str:
    """Six significant digits for floats, empty string for missing values."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _json_cell(value: object) -> str:
    """A cell as ``json.dumps`` writes it, floats rounded to six digits first."""
    if isinstance(value, float):
        text = repr(float(f"{value:.6g}"))
        return JSON_NONFINITE.get(text, text)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)  # None, bool and int


def _cells(values: tuple, quote) -> list[str]:
    """Each value as ``_fmt`` writes it or, given ``quote``, ``_json_cell``:
    strings alone in one ``map``, and floats in one '%.6g' batch that JSON
    reads back only where the text is not already the float's repr."""
    if set(map(type, values)) == {str}:
        return list(values if quote is None else map(quote, values))
    floats = [v for v in values if v.__class__ is float]
    texts = ("%.6g " * len(floats) % tuple(floats)).split()
    if quote is not None:
        # Fixed point with a fraction, 1e-4 <= |x| < 1e6, is already repr's.
        other = [t for t in dict.fromkeys(texts) if "e" in t or "." not in t]
        spelled = dict(zip(other, map(repr, map(float, other)))) | JSON_NONFINITE
        texts = [spelled.get(t, t) for t in texts]
    cell, texts = (_fmt if quote is None else _json_cell), iter(texts)
    return [next(texts) if v.__class__ is float else cell(v) for v in values]


def _write_rows(
    groups: list[tuple[list[str], list[str], tuple]],
    columns: list[str],
    header_lines: list[str],
    fmt: str,
    path: str | None,
    option: str = "out",
) -> None:
    """Write (prefixes, suffixes, values) groups as CSV under '#' headers, or JSON.

    A group writes one row labelled p + s for each ``str`` prefix p and then
    each ``str`` suffix s, all sharing ``values``, the row's cells after the
    label in the order of ``columns``; a group with no prefixes or no
    suffixes writes nothing.  JSON is byte for byte ``json.dumps(rows,
    indent=2)`` of the rows as objects keyed by ``columns``, which are
    distinct names.  A failed write names ``option``.
    """
    filled = [group for group in groups if group[0] and group[1]]
    if fmt == "json":
        # A row object of json.dumps(rows, indent=2): before and after the label.
        label, *names = map(encode_basestring_ascii, columns)
        head = "  {\n    " + label + ": "
        fields = [",\n    " + name.replace("%", "%%") + ": %s" for name in names]
        tail = "".join(fields) + "\n  }"
        sep, cell, quote = ",\n", _json_cell, encode_basestring_ascii
    else:
        head, tail = "", ",%s" * (len(columns) - 1) + "\n"
        sep, cell, quote = "", _fmt, None
    row, width, blocks = head.replace("%", "%%") + "%s" + tail, len(columns), []
    runs = itertools.groupby(filled, lambda group: len(group[0]) == len(group[1]) == 1)
    for one_row, run in runs:
        run = list(run)
        if one_row and len(run) > 1:  # a lone row has nothing to batch
            labels = [prefixes[0] + suffixes[0] for prefixes, suffixes, _ in run]
            slots = [None] * (len(run) * width)
            # A column at a time, the labels first.
            for j, column in enumerate([labels, *zip(*[group[2] for group in run])]):
                slots[j::width] = _cells(column, quote)
            blocks.append(sep.join([row] * len(run)) % tuple(slots))
            continue
        for prefixes, suffixes, values in run:
            if quote is not None:
                # The escapes of a JSON string are per character.
                prefixes = [quote(p)[:-1] for p in prefixes]
                suffixes = [quote(s)[1:] for s in suffixes]
            cells = tail % tuple(map(cell, values))
            # Each prefix's rows are one join over the suffixes.
            glue = cells + sep + head
            blocks += [head + p + (glue + p).join(suffixes) + cells for p in prefixes]
    if fmt == "json":
        text = "[\n" + ",\n".join(blocks) + "\n]\n" if blocks else "[]\n"
    else:
        header = [f"# {line}\n" for line in header_lines] + [",".join(columns) + "\n"]
        text = "".join(header + blocks)
    _emit(text, path, option)


def _emit(text: str, path: str | None, option: str = "out") -> None:
    """Write ``text`` to the file ``path``, or to stdout and flush it.

    A failed write is a ScenarioError that names ``option``, the field or
    option that chose ``path``.
    """
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            Path(path).write_text(text, encoding="utf-8")
    # ValueError: a NUL in the path, or a closed stdout.
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        where = "standard output" if path is None else repr(path)
        raise ScenarioError(f"{option}: cannot write {where}: {reason}") from exc


def _list_tokens(text: str, option: str) -> list[str]:
    """Comma-separated items of a list option, stripped; none may be empty."""
    tokens = [tok.strip() for tok in text.split(",")]
    if "" in tokens:
        raise ScenarioError(f"{option}: empty item in {text!r}")
    return tokens


def cmd_chain(args: argparse.Namespace) -> int:
    spec, scenario = load_scenario(args.scenario)
    parties = [f"eve{m}" for m in range(1, spec.n_eves + 1)] + ["bob"]
    models = scenario.eves + (scenario.bob,)
    lambdas = spec.sharpness[:-1, 0].tolist() + [None]
    groups = [
        ([party], [""], cells)
        for party, *cells in zip(parties, models, lambdas, *scores(tables(spec)))
    ]
    fmt = args.format or scenario.format
    path = scenario.path if args.out is None else args.out
    # A write error names what chose the file: the scenario's output.path,
    # or --out, which also stands for stdout.
    option = "output.path" if args.out is None and path is not None else "out"
    header = [
        f"seqeve {__version__}",
        f"mode=chain state={scenario.state} eves={spec.n_eves}",
    ]
    columns = ["party", "input_model", "lambda", "lhs", "delta", "key_rate"]
    _write_rows(groups, columns, header, fmt, path, option)
    return 0


def _check_reference(results: dict[float, PlanResult], lines: list[str]) -> int:
    """Check the planned reference targets against the table, a line per check."""
    failures = 0
    for target, expected in sorted(REFERENCE_PLANS.items()):
        plan = results[target]
        n_eves = len(expected["lambdas"])
        checks: list[tuple[str, bool, str]] = [
            (f"max_eves={n_eves}", plan.max_eves == n_eves, f"got {plan.max_eves}")
        ]
        for idx, ref in enumerate(expected["lambdas"]):
            tol = COARSE_LAMBDA_TOL if (target, idx) in COARSE_ENTRIES else LAMBDA_TOL
            got = plan.lambdas[idx] if idx < len(plan.lambdas) else float("nan")
            checks.append(
                (
                    f"lambda[{idx + 1}]={ref}",
                    abs(got - ref) <= tol,
                    f"got {got:.6f} (tol {tol})",
                )
            )
        checks.append(
            (
                f"bob_rate={expected['bob_rate']}",
                abs(plan.bob_rate - expected["bob_rate"]) <= BOB_RATE_TOL,
                f"got {plan.bob_rate:.6f} (tol {BOB_RATE_TOL})",
            )
        )
        for label, ok, detail in checks:
            status = "ok" if ok else "MISMATCH"
            lines.append(f"reference target={target:g} {label}: {status} ({detail})")
            failures += 0 if ok else 1
    return 4 if failures else 0


def cmd_plan(args: argparse.Namespace) -> int:
    requested = [
        parse_number(tok, "rates", check_target_rate)
        for tok in _list_tokens(args.rates, "rates")
    ]
    # One lockstep plan, the reference targets included when they are checked.
    targets = requested + (list(REFERENCE_PLANS) if args.check_paper else [])
    results = dict(zip(targets, plan_chains(targets)))
    lines: list[str] = []
    for target in requested:
        plan = results[target]
        lines.append(
            f"target {target!r}: max_eves={plan.max_eves} "
            f"bob_rate={_fmt(plan.bob_rate)}"
        )
        for idx, lam in enumerate(plan.lambdas, start=1):
            lines.append(f"  lambda_min[{idx}] = {_fmt(lam)}")
        lines.append(
            f"  no valid range for lambda[{plan.max_eves + 1}] ({BOB_SUPREMACY})"
        )
    code = _check_reference(results, lines) if args.check_paper else 0
    _emit("".join(line + "\n" for line in lines), None)
    return code


def _branch_labels(depth: int) -> tuple[list[str], list[str]]:
    """High and low halves of the 2^depth leaf labels, '0...0' to '1...1'.

    ``[h + l for h in high for l in low]`` counts in binary, the branch
    tree's order; the high half has ceil(depth/2) digits, and the low half
    depth // 2, which is '' at depth 1.
    """
    high, low = (
        list(map("".join, itertools.product("01", repeat=k)))
        for k in (depth - depth // 2, depth // 2)
    )
    return high, low


def cmd_unbounded(args: argparse.Namespace) -> int:
    theta1 = parse_angle(args.theta1, "theta1", check_tilt_angle)
    weak = [
        parse_angle(tok, f"lambdas[{idx}]", check_weak_angle)
        for idx, tok in enumerate(_list_tokens(args.lambdas, "lambdas"))
    ]
    if len(weak) > MAX_UNBOUNDED_DEPTH:
        raise ScenarioError(
            f"lambdas: at most {MAX_UNBOUNDED_DEPTH} weak measurements"
        )
    depth = len(weak)
    theta = leaf_theta(theta1, weak)
    (lhs_c, lhs_a), _, (rate_c, rate_a) = leaf_scores(theta)
    # Every leaf shares the angle and weight, so the leaf rows are one group
    # and the weight-averaged rates equal the leaf rates.
    leaf = (theta, 2.0**-depth, lhs_c, rate_c, lhs_a, rate_a)
    high, low = _branch_labels(depth)
    summary = (None, 1.0, None, rate_c, None, rate_a)
    header = [
        f"seqeve {__version__}",
        f"mode=unbounded depth={depth} leaves={2**depth} "
        f"alice_facing={2 ** (depth - 1)}",
    ]
    columns = [
        "branch",
        "theta",
        "weight",
        "lhs_canonical",
        "key_rate_canonical",
        "lhs_adapted",
        "key_rate_adapted",
    ]
    groups = [(high, low, leaf), (["summary"], [""], summary)]
    _write_rows(groups, columns, header, args.format, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Help goes through ``_emit``: argparse's writer drops an OSError and exits 0.

    Subparsers are built with the parent's class, so their help does too.
    """

    def print_help(self, file=None) -> None:
        if file is None:
            _emit(self.format_help(), None)
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seqeve",
        allow_abbrev=False,
        description=(
            "Simulate sequential unsharp-measurement eavesdropping of a "
            "steering-based QKD link"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chain = sub.add_parser(
        "chain", help="evaluate a chain scenario file", allow_abbrev=False
    )
    p_chain.add_argument("--scenario", required=True, help="scenario file path")
    p_chain.add_argument("--out", default=None, help="output file (default stdout)")
    p_chain.add_argument("--format", choices=OUTPUT_FORMATS, default=None)
    p_chain.set_defaults(func=cmd_chain)

    p_plan = sub.add_parser(
        "plan", help="minimal sharpness chains per target rate", allow_abbrev=False
    )
    p_plan.add_argument(
        "--rates", required=True, help="comma-separated target key rates"
    )
    p_plan.add_argument(
        "--check-paper",
        action="store_true",
        help="compare against the built-in reference table; exit 4 on mismatch",
    )
    p_plan.set_defaults(func=cmd_plan)

    p_unb = sub.add_parser(
        "unbounded", help="branch tree of the weak strategy", allow_abbrev=False
    )
    p_unb.add_argument("--theta1", required=True, help="initial tilt angle (radians)")
    p_unb.add_argument(
        "--lambdas", required=True, help="comma-separated weak angles (radians)"
    )
    p_unb.add_argument("--out", default=None, help="output file (default stdout)")
    p_unb.add_argument("--format", choices=OUTPUT_FORMATS, default="csv")
    p_unb.set_defaults(func=cmd_unbounded)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call of a process and reused.

    Each parse fills a fresh namespace, so no option value or default
    carries over from one call to the next.
    """
    return build_parser()


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Write '--lambdas -0.1,0.2' as '--lambdas=-0.1,0.2'.

    argparse reads a value that starts with '-' and is not a plain negative
    number as an option, and stops with "expected one argument"; attached,
    the value reaches the range check that names it.  The parsers take no
    abbreviated option names, so an exact match finds every such option.
    """
    out: list[str] = []
    for tok in argv:
        dash_value = tok.startswith("-") and not tok.startswith("--")
        if dash_value and out and out[-1] in DASH_VALUE_OPTIONS:
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(_attach_dash_values(argv))
        return args.func(args)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateStateError, ZeroProbabilityError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ValueError, InfeasibleError) as exc:
        # The edges name every input field, so any other ValueError is ours;
        # no Bell-state target reaches the planner's InfeasibleError.
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # any other fault is ours too; SystemExit passes
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
