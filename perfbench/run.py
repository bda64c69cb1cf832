"""Seeded end-to-end and per-layer benchmark of the seqeve command line.

Run from the repository root:

    python3 perfbench/run.py --workload plan-reference --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30      # every workload in turn

One process drives ``seqeve.cli.main`` in a closed loop with one client: each
request is sent after the previous one returned, and every output is
checked.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
half the time untraced and half with per-layer tracing installed, and
reports the per-layer metrics.  End-to-end timings are scaled to a fixed
machine speed (see ``calibration.py``).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Details of the run (environment, inputs, unscaled wall times, output
digests, spans) go under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(BENCH_DIR))
from calibration import calibrate, smoothed_scales  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, Request, Workload, requests_for  # noqa: E402

# Fresh interpreters timed for setup_s; one more runs first and is discarded,
# because it also writes the bytecode caches.  Each one calibrates right after
# its import, on the CPU that ran it.
SETUP_LAUNCHES = 11
SETUP_CODE = (
    "import time; t = time.perf_counter(); import seqeve.cli; "
    "t = time.perf_counter() - t; import sys; sys.path.insert(0, {bench!r}); "
    "import calibration; print(t, calibration.scale())"
)
# Latency tail: the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END = (
    ("setup_s", "s"),
    ("request_s_p50", "s"),
    ("request_s_tail", "s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class Gate:
    """Output check for one workload: full check once per variant, then bytes.

    Every later request of a variant must reproduce the first output byte for
    byte, so the full check covers them too.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.reference: dict[int, tuple[str, bytes]] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, variant: int, request: Request, result: tuple) -> bool:
        code, _, stdout, file_bytes, stderr = result
        self.attempted += 1
        if code != 0:
            error = f"exit code {code}: {stderr.strip()[-500:]}"
        elif variant in self.reference:
            same = self.reference[variant] == (stdout, file_bytes)
            error = None if same else "output differs from the variant's first output"
        else:
            try:
                error = self.workload.check(request, stdout, file_bytes)
            except (ValueError, LookupError, TypeError) as exc:
                error = f"output does not parse: {exc!r}"
            if error is None:
                self.reference[variant] = (stdout, file_bytes)
        if error is not None:
            self.failed += 1
            print(f"FAILED {self.workload.name} variant {variant}: {error}", file=sys.stderr)
        return error is None

    def digests(self) -> dict[int, str]:
        return {
            k: hashlib.sha256(out.encode() + b"\0" + data).hexdigest()
            for k, (out, data) in sorted(self.reference.items())
        }


def send(request: Request, call) -> tuple:
    """One CLI request: (exit code, seconds, stdout, output file bytes, stderr)."""
    if request.out_path is not None:
        request.out_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(list(request.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed request, not a failed run
            code = None
            err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    file_bytes = b""
    if request.out_path is not None and request.out_path.exists():
        file_bytes = request.out_path.read_bytes()
    return code, elapsed, out.getvalue(), file_bytes, err.getvalue()


@dataclass
class Loop:
    """What a closed loop measured, one entry per request sent."""

    kernel_s: list[float] = field(default_factory=list)  # calibration before it
    request_s: list[float] = field(default_factory=list)  # wall clock
    busy_s: list[float] = field(default_factory=list)  # request and output check
    passed: list[bool] = field(default_factory=list)
    output_bytes: int = 0

    @property
    def sent(self) -> int:
        return len(self.passed)

    def times(self) -> list[float]:
        """Passing requests' times, scaled to the reference speed."""
        factors = smoothed_scales(self.kernel_s)
        return [t * f for t, f, ok in zip(self.request_s, factors, self.passed) if ok]

    def raw_times(self) -> list[float]:
        return [t for t, ok in zip(self.request_s, self.passed) if ok]

    def scaled_busy_s(self) -> float:
        return sum(b * f for b, f in zip(self.busy_s, smoothed_scales(self.kernel_s)))


def closed_loop(requests, gate, seconds, call, whole_cycles=False) -> Loop:
    """Send requests back to back, cycling through the variants.

    The calibration kernel runs before each request.  With ``whole_cycles``
    the loop only stops after the last variant, so per-request means of
    counters repeat exactly.
    """
    loop = Loop()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        at_boundary = loop.sent % len(requests) == 0 or not whole_cycles
        if loop.sent and elapsed >= seconds and at_boundary:
            return loop
        k = loop.sent % len(requests)
        loop.kernel_s.append(calibrate())
        began = time.perf_counter()
        result = send(requests[k], call)
        loop.passed.append(gate.check(k, requests[k], result))
        loop.busy_s.append(time.perf_counter() - began)
        loop.request_s.append(result[1])
        loop.output_bytes += len(result[2].encode()) + len(result[3])


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup() -> tuple[list[float], list[float]]:
    """Import times of seqeve.cli in fresh interpreters: (scaled, wall clock)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    scaled, raw = [], []
    for _ in range(SETUP_LAUNCHES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE.format(bench=str(BENCH_DIR))],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds, factor = map(float, proc.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * factor)
    return scaled[1:], raw[1:]


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "load": "closed loop, 1 client, 1 process",
    }


def import_program():
    """Import seqeve from this checkout's src/, refusing any other copy."""
    if not (SRC / "seqeve" / "__init__.py").is_file():
        raise SystemExit(f"error: no seqeve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqeve.cli

    if Path(seqeve.cli.__file__).resolve().parent != SRC / "seqeve":
        raise SystemExit(f"error: imported seqeve from {seqeve.cli.__file__}")
    return seqeve.cli


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    cli = import_program()
    requests = requests_for(workload, args.seed, OUT_DIR / "inputs" / workload.name)
    gate = Gate(workload)
    report: dict = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": [{"argv": list(r.argv), "size": r.size} for r in requests],
    }
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print(f"inputs: {len(requests)} variants, cycled; sizes {[r.size for r in requests]}")
    print(f"environment: {json.dumps(report['environment'])}")

    # Stays empty when no request passed, and the run is then incorrect.
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        seconds = args.seconds / 2
        gate.check(0, requests[0], send(requests[0], cli.main))  # warm-up
        plain = closed_loop(requests, gate, seconds, cli.main)
        tracer = Tracer()
        request_ids = iter(range(1, 1 << 62))

        def traced_main(argv):
            return tracer.run_request(next(request_ids), cli.main, argv)

        tracer.install()
        try:
            traced = closed_loop(requests, gate, seconds, traced_main, whole_cycles=True)
        finally:
            tracer.restore()
        if plain.raw_times() and traced.raw_times():
            layer = tracer.layer_metrics(traced.sent, traced.output_bytes)
            overhead = statistics.median(traced.times()) / statistics.median(plain.times())
            layer["trace.overhead_ratio"] = overhead
            metrics = {name: (layer[name], unit) for name, unit, _ in LAYER_METRICS}
        spans_path = OUT_DIR / "spans" / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        report["traced_requests"] = traced.sent
        report["spans"] = str(spans_path.relative_to(ROOT))
        print(
            f"traced {traced.sent} requests ({len(tracer.spans)} spans), "
            f"untraced {plain.sent}"
        )
    else:
        setup, setup_raw = measure_setup()
        gate.check(0, requests[0], send(requests[0], cli.main))  # warm-up
        loop = closed_loop(requests, gate, args.seconds, cli.main)
        times, raw_times = loop.times(), loop.raw_times()
        if times:
            tail_value, tail_pct = tail(times)
            values = {
                "setup_s": statistics.median(setup),
                "request_s_p50": statistics.median(times),
                "request_s_tail": tail_value,
                "requests_per_s": len(times) / loop.scaled_busy_s(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            report["samples"] = {
                "setup_launches": len(setup),
                "requests": len(times),
                "tail_percentile": tail_pct,
            }
            report["wall_clock"] = {
                "setup_s": statistics.median(setup_raw),
                "request_s_p50": statistics.median(raw_times),
                "request_s_tail": tail(raw_times)[0],
                "speed_scale_median": statistics.median(smoothed_scales(loop.kernel_s)),
            }
            print(
                f"samples: setup_s is the median of {len(setup)} launches; "
                f"{len(times)} timed requests; request_s_tail is p{tail_pct:.1f}"
            )
            print(f"wall clock, unscaled: {json.dumps(report['wall_clock'])}")
    failed_ratio = gate.failed / gate.attempted
    print(f"failed_ratio {failed_ratio:g} ({gate.failed}/{gate.attempted} requests)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    report["outputs_sha256"] = gate.digests()
    report["attempted"], report["failed"] = gate.attempted, gate.failed
    report["metrics"] = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
    results = OUT_DIR / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    correct = gate.failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process so peak_rss_mb is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                __file__,
                "--workload",
                name,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result["metrics"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
