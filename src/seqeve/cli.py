"""Command-line driver: chain evaluation, sharpness planning, branch reports.

``unbounded`` computes the one Schmidt angle that every leaf of the branch
tree shares by a scalar recursion, evaluates it once per Alice strategy and
repeats the result over the 2^n leaf rows, each of weight exactly 2^-n.
The rows share their value objects, so the CSV writer formats those values
once and each leaf row costs only its label.

Exit codes: 0 success, 2 input error, 3 computation infeasibility,
4 reference-value mismatch, 5 internal invariant failure.  Output files are
byte-identical across runs for identical inputs; run metadata lives in
'#'-prefixed header lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .chain import ZeroProbabilityError
from .linalg import ID2
from .planner import EVE_UNREACHABLE, InfeasibleError, PlanResult, max_eves
from .scenario import ScenarioError, load_scenario, parse_angle_token, to_chain_spec
from .states import InvariantError
from .steering import reports
from .unbounded import (
    ADAPTED,
    CANONICAL,
    BranchNode,
    DegenerateStateError,
    evaluate_branch,
    leaf_theta,
)

# Published minimal-sharpness chains for targets 0.1 / 0.2 / 0.3 on the
# maximally entangled state, with Bob's resulting rate and the chain length.
REFERENCE_PLANS = {
    0.1: {"lambdas": (0.552, 0.602, 0.670, 0.768), "bob_rate": 0.172, "max_eves": 4},
    0.2: {"lambdas": (0.604, 0.672, 0.772), "bob_rate": 0.269, "max_eves": 3},
    0.3: {"lambdas": (0.655, 0.747), "bob_rate": 0.447, "max_eves": 2},
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


def _fmt(value: object) -> str:
    """Six significant digits for floats, empty string for missing values."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _json_value(value: object) -> object:
    if isinstance(value, float):
        return float(f"{value:.6g}")
    return value


def _write_rows(
    rows: list[dict],
    columns: list[str],
    header_lines: list[str],
    fmt: str,
    path: str | None,
) -> None:
    """Write rows as CSV under '#' header lines, or as an indented JSON list.

    A CSV row's cells after the first (label) column are formatted once per
    distinct tuple of value objects, so the 2^n leaf rows of ``unbounded``,
    which share theirs, cost one label each.  The memo is keyed on identity,
    because equal values such as 1 and 1.0 or 0.0 and -0.0 format
    differently.  ``columns`` must not be empty.
    """
    if fmt == "json":
        text = json.dumps(
            [{k: _json_value(row.get(k)) for k in columns} for row in rows],
            indent=2,
        )
        text += "\n"
    else:
        label, rest = columns[0], columns[1:]
        tails: dict[tuple, tuple[tuple, str]] = {}
        lines = [f"# {line}" for line in header_lines]
        lines.append(",".join(columns))
        for row in rows:
            values = tuple(map(row.get, rest))
            key = tuple(map(id, values))
            tail = tails.get(key)
            if tail is None:
                # The memo holds every keyed value, so no id is reused.
                tail = tails[key] = (values, "".join("," + _fmt(v) for v in values))
            lines.append(_fmt(row.get(label)) + tail[1])
        text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"out: cannot write {path}: {exc.strerror}") from exc


def _list_tokens(text: str, option: str) -> list[str]:
    """Comma-separated items of a list option, stripped; none may be empty."""
    tokens = [tok.strip() for tok in text.split(",")]
    if "" in tokens:
        raise ScenarioError(f"{option}: empty item in {text!r}")
    return tokens


def cmd_chain(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        raise ScenarioError(
            f"scenario: cannot read {args.scenario}: {exc.strerror}"
        ) from exc
    spec = to_chain_spec(scenario)
    parties = [
        (f"eve{m}", eve.settings, eve.sharpness)
        for m, eve in enumerate(scenario.eves, start=1)
    ]
    parties.append(("bob", scenario.bob.settings, None))
    rows = [
        {
            "party": party,
            "input_model": model,
            "lambda": lam,
            "lhs": rep.lhs,
            "delta": rep.delta,
            "key_rate": rep.key_rate,
        }
        for (party, model, lam), rep in zip(parties, reports(spec))
    ]
    fmt = args.format or scenario.output.format
    path = args.out or scenario.output.path
    header = [
        f"seqeve {__version__}",
        f"mode=chain state={scenario.state.kind} eves={spec.n_eves}",
    ]
    _write_rows(
        rows,
        ["party", "input_model", "lambda", "lhs", "delta", "key_rate"],
        header,
        fmt,
        path,
    )
    return 0


def _check_reference(results: dict[float, PlanResult]) -> int:
    """Compare planned chains against the built-in reference table."""
    failures = 0
    for target, expected in sorted(REFERENCE_PLANS.items()):
        if target not in results:
            results[target] = max_eves(target)
        plan = results[target]
        checks: list[tuple[str, bool, str]] = []
        count_ok = plan.max_eves == expected["max_eves"]
        checks.append(
            (
                f"max_eves={expected['max_eves']}",
                count_ok,
                f"got {plan.max_eves}",
            )
        )
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
            print(f"reference target={target:g} {label}: {status} ({detail})")
            failures += 0 if ok else 1
    return 4 if failures else 0


def cmd_plan(args: argparse.Namespace) -> int:
    tokens = _list_tokens(args.rates, "rates")
    try:
        targets = [float(tok) for tok in tokens]
    except ValueError:
        raise ScenarioError(f"rates: cannot parse {args.rates!r}")
    for rate in targets:
        if not 0.0 < rate < 1.0:
            raise ScenarioError(f"rates: targets must lie in (0, 1), got {rate}")
    results: dict[float, PlanResult] = {}
    for target in targets:
        plan = max_eves(target)
        if plan.max_eves == 0 and plan.stop_reason == EVE_UNREACHABLE:
            raise InfeasibleError(1, EVE_UNREACHABLE, f"target rate {target}")
        results[target] = plan
        print(
            f"target {target:g}: max_eves={plan.max_eves} "
            f"bob_rate={_fmt(plan.bob_rate)}"
        )
        for idx, lam in enumerate(plan.lambdas, start=1):
            print(f"  lambda_min[{idx}] = {_fmt(lam)}")
        print(f"  no valid range for lambda[{plan.max_eves + 1}] ({plan.stop_reason})")
    if args.check_paper:
        return _check_reference(results)
    return 0


def _unit_angle(token: str, field_name: str) -> float:
    """An angle option item in (0, pi/4], the range of tilt and weak angles.

    Checked here so that the error names the item, as ``leaf_theta``'s own
    checks cannot.
    """
    angle = parse_angle_token(token, field_name)
    if not 0.0 < angle <= math.pi / 4.0:
        raise ScenarioError(f"{field_name}: must lie in (0, pi/4], got {angle}")
    return angle


def cmd_unbounded(args: argparse.Namespace) -> int:
    theta1 = _unit_angle(args.theta1, "theta1")
    weak = [
        _unit_angle(tok, f"lambdas[{idx}]")
        for idx, tok in enumerate(_list_tokens(args.lambdas, "lambdas"))
    ]
    if len(weak) > MAX_UNBOUNDED_DEPTH:
        raise ScenarioError(
            f"lambdas: at most {MAX_UNBOUNDED_DEPTH} weak measurements"
        )
    depth = len(weak)
    leaf = BranchNode(
        outcomes=(0,) * depth,
        theta=leaf_theta(theta1, weak),
        u_alice=ID2,
        probability=2.0**-depth,
    )
    rep_c = evaluate_branch(leaf, CANONICAL)
    rep_a = evaluate_branch(leaf, ADAPTED)
    values = {
        "theta": leaf.theta,
        "weight": leaf.probability,
        "lhs_canonical": rep_c.lhs,
        "key_rate_canonical": rep_c.key_rate,
        "lhs_adapted": rep_a.lhs,
        "key_rate_adapted": rep_a.key_rate,
    }
    # Every leaf shares the angle and weight, so rows differ only in label
    # and the weight-averaged rates equal the leaf rates.
    rows = [{"branch": format(k, f"0{depth}b"), **values} for k in range(2**depth)]
    rows.append(
        {
            "branch": "summary",
            "theta": None,
            "weight": 1.0,
            "lhs_canonical": None,
            "key_rate_canonical": rep_c.key_rate,
            "lhs_adapted": None,
            "key_rate_adapted": rep_a.key_rate,
        }
    )
    header = [
        f"seqeve {__version__}",
        f"mode=unbounded depth={depth} leaves={2**depth} "
        f"alice_facing={2 ** (depth - 1)}",
    ]
    _write_rows(
        rows,
        [
            "branch",
            "theta",
            "weight",
            "lhs_canonical",
            "key_rate_canonical",
            "lhs_adapted",
            "key_rate_adapted",
        ],
        header,
        args.format,
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_chain.add_argument("--format", choices=("csv", "json"), default=None)
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
    p_unb.add_argument("--format", choices=("csv", "json"), default="csv")
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
    args = _parser().parse_args(_attach_dash_values(argv))
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, DegenerateStateError, ZeroProbabilityError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        # Validation failures from the domain layer are input errors too.
        print(f"input error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
