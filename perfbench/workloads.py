"""Seeded workloads for the seqeve benchmark: inputs, rationale and output gates.

Every input is drawn from ``random.Random(f"{workload}:{seed}")``, so the
same seed always yields the same argv and scenario files.  The program sees
only the generated argv (and, for ``chain-scenario``, the generated file).

Each workload cycles through a few request variants drawn from the seed.
A single variant would tie a run's timing to one draw of the inputs; the
cycle averages the input-dependent cost so that runs with different seeds
stay comparable.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Targets that cmd_plan checks against the published table with --check-paper.
REFERENCE_TARGETS = ("0.1", "0.2", "0.3")
# Each plan target contributes 1 + len(lambdas) + 1 reference lines: 6 + 5 + 4.
REFERENCE_LINES = 15
# Bisection stops at 1e-6 in sharpness; every upstream Eve's excess shifts the
# next minimum a little further, and printing keeps 6 significant digits.
PLAN_LAMBDA_TOL = 5e-6
PLAN_VARIANTS = 8
PLAN_TARGET_LO, PLAN_TARGET_HI = 0.05, 0.45
UNBOUNDED_DEPTH = 10
CHAIN_EVES = 64
# Printed floats carry 6 significant digits.
PRINT_TOL = 1e-5


@dataclass(frozen=True)
class Request:
    """One CLI invocation: its argv, the file it writes, its input size.

    ``expected`` holds generated values the output gate compares against.
    """

    argv: tuple[str, ...]
    out_path: Path | None
    size: dict
    expected: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variants: int
    make: Callable[[random.Random, Path, int], Request]
    check: Callable[[Request, str, bytes], str | None]


def requests_for(workload: Workload, seed: int, workdir: Path) -> list[Request]:
    """The workload's request variants for a seed; writes any input files."""
    rng = random.Random(f"{workload.name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    return [workload.make(rng, workdir, k) for k in range(workload.variants)]


def _num(x: float) -> str:
    return f"{x:.6f}"


def _in_unit(value: object) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def _rate_consistent(lhs: float, delta: float, rate: float) -> bool:
    """delta = max(lhs - 3/4, 0) and rate = log2((3/4 + delta)/(3/4 - delta))."""
    if abs(delta - max(lhs - 0.75, 0.0)) > PRINT_TOL or not 0.0 <= delta <= 0.25:
        return False
    expect = math.log2((0.75 + delta) / (0.75 - delta)) if delta < 0.25 else 1.0
    return abs(rate - expect) <= PRINT_TOL


# plan-reference -------------------------------------------------------------


def _make_plan(rng: random.Random, workdir: Path, k: int) -> Request:
    # Planning cost falls steeply with the target.  Split [0.05, 0.45] into
    # 2 * PLAN_VARIANTS strata and pair stratum k with its mirror, so every
    # variant costs about the same and each cycle covers the range evenly.
    width = (PLAN_TARGET_HI - PLAN_TARGET_LO) / (2 * PLAN_VARIANTS)
    strata = (k, 2 * PLAN_VARIANTS - 1 - k)
    targets = [
        _num(PLAN_TARGET_LO + width * (i + rng.random())) for i in strata
    ]
    rates = ",".join(REFERENCE_TARGETS + tuple(targets))
    return Request(
        argv=("plan", "--rates", rates, "--check-paper"),
        out_path=None,
        size={"targets": [float(t) for t in REFERENCE_TARGETS + tuple(targets)]},
    )


def _parse_plan(stdout: str) -> list[tuple[int, list[float], str]]:
    """(max_eves, printed lambdas, stop reason) per target, in target order."""
    plans: list[tuple[int, list[float], str]] = []
    for line in stdout.splitlines():
        if line.startswith("target "):
            count = int(line.split("max_eves=")[1].split()[0])
            plans.append((count, [], ""))
        elif line.startswith("  lambda_min["):
            plans[-1][1].append(float(line.split("=")[1]))
        elif line.startswith("  no valid range"):
            reason = line.rsplit("(", 1)[1].rstrip(")")
            plans[-1] = (plans[-1][0], plans[-1][1], reason)
    return plans


def _check_plan(request: Request, stdout: str, file_bytes: bytes) -> str | None:
    from seqeve.planner import InfeasibleError, closed_form_chain

    refs = [ln for ln in stdout.splitlines() if ln.startswith("reference ")]
    if len(refs) != REFERENCE_LINES:
        return f"expected {REFERENCE_LINES} reference lines, got {len(refs)}"
    bad = [ln for ln in refs if ": ok (" not in ln]
    if bad:
        return f"reference mismatch: {bad[0]}"
    targets = request.size["targets"]
    plans = _parse_plan(stdout)
    if len(plans) != len(targets):
        return f"expected {len(targets)} plans, got {len(plans)}"
    for target, (count, lambdas, reason) in zip(targets, plans):
        if count != len(lambdas) or count < 1:
            return f"target {target}: max_eves={count} with {len(lambdas)} lambdas"
        oracle = closed_form_chain(target, count)
        worst = max(abs(a - b) for a, b in zip(lambdas, oracle))
        if worst > PLAN_LAMBDA_TOL:
            return f"target {target}: lambdas off the closed form by {worst:.2e}"
        try:
            closed_form_chain(target, count + 1)
        except InfeasibleError as exc:
            if exc.reason != reason:
                return f"target {target}: stop reason {reason}, oracle {exc.reason}"
        else:
            return f"target {target}: the closed form admits Eve {count + 1}"
    return None


# unbounded-tree -------------------------------------------------------------


def _make_unbounded(rng: random.Random, workdir: Path, k: int) -> Request:
    theta1 = _num(rng.uniform(0.3, 0.78))
    angles = [_num(rng.uniform(0.3, 0.78)) for _ in range(UNBOUNDED_DEPTH)]
    return Request(
        argv=("unbounded", "--theta1", theta1, "--lambdas", ",".join(angles)),
        out_path=None,
        size={
            "theta1": float(theta1),
            "depth": UNBOUNDED_DEPTH,
            "leaves": 2**UNBOUNDED_DEPTH,
        },
    )


def _check_unbounded(request: Request, stdout: str, file_bytes: bytes) -> str | None:
    lines = stdout.splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    depth, leaves = request.size["depth"], request.size["leaves"]
    if not any(f"depth={depth} leaves={leaves} " in ln for ln in header):
        return "header does not state the depth and leaf count"
    columns, rows = body[0], body[1:]
    if len(rows) != leaves + 1 or rows[-1][0] != "summary":
        return f"expected {leaves} leaf rows and a summary, got {len(rows)} rows"
    col = {name: idx for idx, name in enumerate(columns)}
    rate_cols = ("key_rate_canonical", "key_rate_adapted")
    for row in rows:
        for name in rate_cols:
            if not _in_unit(float(row[col[name]])):
                return f"branch {row[0]}: {name} outside [0, 1]"
    if len({row[0] for row in rows[:-1]}) != leaves:
        return "branch labels repeat"
    weight = float(rows[-1][col["weight"]])
    if abs(weight - 1.0) > 1e-9:
        return f"summary weight {weight} differs from 1"
    return None


# chain-scenario -------------------------------------------------------------


def _direction(rng: random.Random) -> str:
    # Uniform on the sphere, kept inside the closed ranges after rounding.
    theta = min(math.acos(1.0 - 2.0 * rng.random()), 3.14159)
    phi = rng.uniform(0.0, 6.28318)
    return f"{{theta: {_num(theta)}, phi: {_num(phi)}}}"


def _make_chain(rng: random.Random, workdir: Path, k: int) -> Request:
    theta = _num(rng.uniform(0.3, 0.78))
    lines = [
        "mode: chain",
        "state:",
        "  kind: tilted",
        f"  theta: {theta}",
        "alice:",
        "  settings: explicit",
        "  directions:",
        f"    - {_direction(rng)}",
        f"    - {_direction(rng)}",
        "bob:",
        "  settings: mub",
        "eves:",
    ]
    lambdas = []
    for _ in range(CHAIN_EVES):
        lam = _num(rng.uniform(0.1, 0.9))
        lambdas.append(float(lam))
        lines += [
            f"  - lambda: {lam}",
            "    settings: explicit",
            f"    bias: {_num(rng.uniform(0.2, 0.8))}",
            "    directions:",
            f"      - {_direction(rng)}",
            f"      - {_direction(rng)}",
        ]
    scenario = workdir / f"chain-{k}.yaml"
    scenario.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = workdir / f"chain-{k}.json"
    return Request(
        argv=(
            "chain",
            "--scenario",
            str(scenario),
            "--format",
            "json",
            "--out",
            str(out),
        ),
        out_path=out,
        size={"eves": CHAIN_EVES, "state_theta": float(theta)},
        expected=tuple(lambdas),
    )


def _check_chain(request: Request, stdout: str, file_bytes: bytes) -> str | None:
    try:
        rows = json.loads(file_bytes)
    except ValueError as exc:
        return f"output is not JSON ({exc})"
    lambdas = list(request.expected)
    if len(rows) != len(lambdas) + 1:
        return f"expected {len(lambdas) + 1} rows, got {len(rows)}"
    parties = [f"eve{m}" for m in range(1, len(lambdas) + 1)] + ["bob"]
    if [row["party"] for row in rows] != parties:
        return "rows are not eve1..eveN then bob"
    for row, lam in zip(rows, lambdas + [None]):
        expect = None if lam is None else float(f"{lam:.6g}")
        if row["lambda"] != expect:
            return f"{row['party']}: lambda {row['lambda']}, input {expect}"
        if not all(_in_unit(row[key]) for key in ("lhs", "delta", "key_rate")):
            return f"{row['party']}: a value lies outside [0, 1]"
        if not _rate_consistent(row["lhs"], row["delta"], row["key_rate"]):
            return f"{row['party']}: lhs, delta and key_rate disagree"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="plan-reference",
            why=(
                "plan --check-paper on 0.1/0.2/0.3 plus two seeded targets: "
                "bisection drives the whole planner-steering-chain-measurement-"
                "linalg stack with a tiny output"
            ),
            variants=PLAN_VARIANTS,
            make=_make_plan,
            check=_check_plan,
        ),
        Workload(
            name="unbounded-tree",
            why=(
                "depth-10 weak-measurement tree, 1024 leaves x 2 strategies: "
                "per-leaf SVD, table assembly and a 1024-row CSV, no planner"
            ),
            variants=2,
            make=_make_unbounded,
            check=_check_unbounded,
        ),
        Workload(
            name="chain-scenario",
            why=(
                "64 Eves with random directions and biases in a YAML file: "
                "general chain path, quadratic re-propagation, no bisection"
            ),
            variants=4,
            make=_make_chain,
            check=_check_chain,
        ),
    )
}
