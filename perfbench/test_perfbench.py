"""Tests of the benchmark itself: seeded inputs, output gates and tracing.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracing import LAYER_METRICS, SPAN_FUNCTIONS, Tracer  # noqa: E402
from workloads import CHAIN_EVES, UNBOUNDED_DEPTH, WORKLOADS, requests_for  # noqa: E402

cli = run.import_program()
COUNTERS = [name for name, unit, _ in LAYER_METRICS if unit == "count"]


def _traced_request(name: str, workdir: Path):
    """Trace the first variant of a workload once; (layer metrics, result)."""
    request = requests_for(WORKLOADS[name], 3, workdir)[0]
    tracer = Tracer()
    tracer.install()
    try:
        result = run.send(request, lambda argv: tracer.run_request(1, cli.main, argv))
    finally:
        tracer.restore()
    output_bytes = len(result[2].encode()) + len(result[3])
    return tracer.layer_metrics(1, output_bytes), request, result


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each workload traced twice with the same seed."""
    runs = {}
    for name in WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        runs[name] = [_traced_request(name, workdir) for _ in range(2)]
    return runs


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in LAYER_METRICS]
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(run.END_TO_END)


def test_same_seed_same_inputs(tmp_path):
    for name, workload in WORKLOADS.items():
        first = requests_for(workload, 7, tmp_path / "a")
        again = requests_for(workload, 7, tmp_path / "b")
        other = requests_for(workload, 8, tmp_path / "c")
        assert [r.size for r in first] == [r.size for r in again], name
        assert [r.argv[:2] for r in first] == [r.argv[:2] for r in again], name
        assert [r.size for r in first] != [r.size for r in other], name
        files = [Path(r.argv[2]) for r in first if r.argv[0] == "chain"]
        for path in files:
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_every_request_passes_its_gate(traced):
    for name, runs in traced.items():
        for _, request, result in runs:
            assert result[0] == 0, (name, result[4])
            assert WORKLOADS[name].check(request, result[2], result[3]) is None, name
        assert runs[0][2][2:4] == runs[1][2][2:4], f"{name} output not reproducible"


def test_counters_repeat_exactly(traced):
    for name, ((first, _, _), (second, _, _)) in traced.items():
        assert {c: first[c] for c in COUNTERS} == {c: second[c] for c in COUNTERS}, name
        assert set(first) | {"trace.overhead_ratio"} == {m for m, _, _ in LAYER_METRICS}


def test_counter_identities(traced):
    unbounded = traced["unbounded-tree"][0][0]
    leaves = 2**UNBOUNDED_DEPTH
    assert unbounded["unbounded.evaluate_branch.calls"] == 2 * leaves
    assert unbounded["chain.table.calls"] == 2 * leaves
    assert unbounded["unbounded.schmidt_decompose.calls"] == 2 * leaves - 2
    assert unbounded["planner.probes"] == 0 and unbounded["chain.propagate.calls"] == 0

    chain = traced["chain-scenario"][0][0]
    assert chain["chain.table.calls"] == CHAIN_EVES + 1
    assert chain["chain.eve_steps"] == CHAIN_EVES * (CHAIN_EVES + 1) / 2
    assert chain["scenario.load.self_s"] > 0

    plan = traced["plan-reference"][0][0]
    assert plan["planner.probes"] > 0 and plan["planner.probes_per_eve"] > 0
    # Every bias lies strictly inside (0, 1), so each Eve step lifts 4 operators.
    for metrics in (unbounded, chain, plan):
        assert metrics["linalg.kron.calls"] == (
            20 * metrics["chain.table.calls"] + 4 * metrics["chain.eve_steps"]
        )


def test_wrappers_cover_every_binding_and_are_restored():
    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "seqeve"}
    before = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    originals = [getattr(sys.modules[m], a) for m, a in SPAN_FUNCTIONS.values()]
    originals.append(sys.modules["seqeve.linalg"].kron)
    tracer = Tracer()
    tracer.install()
    try:
        for (name, attr), value in before.items():
            if any(value is original for original in originals):
                assert getattr(modules[name], attr) is not value, f"{name}.{attr}"
    finally:
        tracer.restore()
    after = {(n, a): v for n, m in modules.items() for a, v in vars(m).items()}
    assert after == before


def test_gates_reject_wrong_outputs(traced):
    _, request, result = traced["plan-reference"][0]
    check = WORKLOADS["plan-reference"].check
    stdout = result[2]
    assert check(request, stdout.replace(": ok (", ": MISMATCH (", 1), b"")
    line = next(ln for ln in stdout.splitlines() if ln.startswith("  lambda_min["))
    value = float(line.split("=")[1])
    shifted = line.replace(line.split("=")[1], f" {value + 1e-4:.6g}")
    assert check(request, stdout.replace(line, shifted, 1), b"")

    _, request, result = traced["unbounded-tree"][0]
    check = WORKLOADS["unbounded-tree"].check
    lines = result[2].splitlines()
    assert check(request, "\n".join(lines[:5] + lines[6:]), b"")
    fields = lines[5].split(",")
    fields[4] = "1.5"
    assert check(request, "\n".join(lines[:5] + [",".join(fields)] + lines[6:]), b"")

    _, request, result = traced["chain-scenario"][0]
    check = WORKLOADS["chain-scenario"].check
    rows = json.loads(result[3])
    assert check(request, "", json.dumps(rows[:-1]).encode())
    rows[0]["key_rate"] = 0.5 if rows[0]["key_rate"] != 0.5 else 0.25
    assert check(request, "", json.dumps(rows).encode())


def test_gate_requires_byte_identical_repeats(traced):
    _, request, result = traced["plan-reference"][0]
    gate = run.Gate(WORKLOADS["plan-reference"])
    assert gate.check(0, request, result)
    assert gate.check(0, request, result)
    altered = result[:2] + (result[2] + " ",) + result[3:]
    assert not gate.check(0, request, altered)
    assert not gate.check(1, request, result[:2] + ("  lambda_min[1] = x\n",) + result[3:])
    assert (gate.attempted, gate.failed) == (4, 2)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        (1, "chain.table", 2.0, 5.0, 0, 1),
        (2, "measurement.projector", 2.5, 3.0, 1, 1),
        (0, "steering.report", 0.0, 10.0, None, 1),
    ]
    metrics = tracer.layer_metrics(1, 0)
    assert metrics["chain.table.self_s"] == pytest.approx(2.5)
    assert metrics["measurement.operator.self_s"] == pytest.approx(0.5)
    assert metrics["chain.table.calls"] == 1


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert run.tail(samples) == (30.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-reference",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
