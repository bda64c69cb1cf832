"""In-process timing of the seqeve command line, next to work counters.

Run from the repository root:

    python3 bench/run.py --calls 200 --out BENCH.json
    python3 bench/run.py --src ../other/src --calls 200 --out BENCH.json

Both forms time ``seqeve.cli.main`` in this process on the requests of
every perfbench workload, whose generators and output gates come from
``perfbench/workloads.py``: the minimum and median wall time of
``--calls`` hot calls per workload, back to back, cycling through its
variants after one warm-up call of each, and the median of ``--calls``
cold calls, each right after perfbench's calibration kernel
(``perfbench/calibration.py``), as perfbench sends every request.  Every
output is gated: a variant's first output is checked in full, and every
later one must repeat it byte for byte.  A last, untimed pass runs each
variant once with counters on ``Assemblage.table`` and
``Assemblage.__post_init__``, the tables and checks of a request, and on
``cli._parser``, the argparse parser it asks for.  ``--src`` times the
``seqeve`` package under another directory, so two checkouts are timed by
the same harness: alternate the two runs on one machine, and tell them
apart by the recorded digest of the timed sources,
``environment.src_sha256``.

With ``--out`` the run is appended to that JSON file (made if absent),
under "runs", with the environment it ran in; the summary is printed
either way.  Wall times are unscaled.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from calibration import calibrate  # noqa: E402
from workloads import WORKLOADS, requests_for  # noqa: E402

COUNTED = ("table", "__post_init__")


def environment(src: Path) -> dict:
    """What the timings depend on, the code's digest included."""
    digest = hashlib.sha256()
    for path in sorted((src / "seqeve").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def load_program(src: Path):
    """``seqeve.cli`` and ``seqeve.chain`` from ``src``, refusing any other copy."""
    if not (src / "seqeve" / "__init__.py").is_file():
        raise SystemExit(f"error: no seqeve sources under {src}")
    sys.path.insert(0, str(src))
    import seqeve.chain
    import seqeve.cli

    if Path(seqeve.cli.__file__).resolve().parent != (src / "seqeve").resolve():
        raise SystemExit(f"error: imported seqeve from {seqeve.cli.__file__}")
    return seqeve.cli, seqeve.chain


def send(main, request) -> tuple:
    """One request: (exit code, seconds, stdout, output file bytes, stderr)."""
    if request.out_path is not None:
        request.out_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(request.argv))
        except SystemExit as exc:
            code = exc.code
    elapsed = time.perf_counter() - start
    path = request.out_path
    data = path.read_bytes() if path is not None and path.exists() else b""
    return code, elapsed, out.getvalue(), data, err.getvalue()


class Gate:
    """A workload's output check: in full for a variant's first output, then bytes."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first: dict[int, tuple[str, bytes]] = {}
        self.failed = 0

    def check(self, variant: int, request, result: tuple) -> None:
        code, _, stdout, data, stderr = result
        if code != 0:
            error = f"exit code {code}: {stderr.strip()[-300:]}"
        elif variant in self.first:
            same = self.first[variant] == (stdout, data)
            error = None if same else "output differs from the variant's first output"
        else:
            error = self.workload.check(request, stdout, data)
            if error is None:
                self.first[variant] = (stdout, data)
        if error is not None:
            self.failed += 1
            name = self.workload.name
            print(f"FAILED {name} variant {variant}: {error}", file=sys.stderr)


@contextlib.contextmanager
def counting(owner, names):
    """Count calls of each of ``owner``'s attributes ``names`` while in the block."""
    counts = dict.fromkeys(names, 0)
    originals = {name: vars(owner)[name] for name in names}

    def counted(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return call

    for name, original in originals.items():
        setattr(owner, name, counted(name, original))
    try:
        yield counts
    finally:
        for name, original in originals.items():
            setattr(owner, name, original)


def time_workload(cli, chain, workload, seed: int, calls: int, workdir: Path) -> dict:
    """Wall times of ``calls`` hot and ``calls`` cold gated calls, and the
    work counts of one request."""
    requests = requests_for(workload, seed, workdir)
    gate = Gate(workload)
    for k, request in enumerate(requests):  # warm-up, and the full checks
        gate.check(k, request, send(cli.main, request))
    times = []
    for n in range(calls):
        k = n % len(requests)
        result = send(cli.main, requests[k])
        gate.check(k, requests[k], result)
        times.append(result[1])
    cold = []
    for n in range(calls):
        k = n % len(requests)
        calibrate()
        result = send(cli.main, requests[k])
        gate.check(k, requests[k], result)
        cold.append(result[1])
    with counting(chain.Assemblage, COUNTED) as counts, counting(
        cli, ("_parser",)
    ) as parses:
        for k, request in enumerate(requests):
            gate.check(k, request, send(cli.main, request))
    per_request = {name: n / len(requests) for name, n in (counts | parses).items()}
    return {
        "calls": calls,
        "failed": gate.failed,
        "call_s_min": min(times),
        "call_s_median": statistics.median(times),
        "cold_call_s_median": statistics.median(cold),
        "tables_per_request": per_request["table"],
        "checks_per_request": per_request["__post_init__"],
        "parses_per_request": per_request["_parser"],
    }


def run(args) -> tuple[dict, bool]:
    src = Path(args.src).resolve()
    cli, chain = load_program(src)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        workloads = {
            name: time_workload(
                cli, chain, WORKLOADS[name], args.seed, args.calls, Path(tmp) / name
            )
            for name in names
        }
    for name, row in workloads.items():
        print(
            f"{name}: min {row['call_s_min'] * 1e6:.0f} us, median "
            f"{row['call_s_median'] * 1e6:.0f} us over {row['calls']} calls, "
            f"cold median {row['cold_call_s_median'] * 1e6:.0f} us; "
            f"{row['tables_per_request']:g} tables, "
            f"{row['checks_per_request']:g} checks and "
            f"{row['parses_per_request']:g} parser calls per request; "
            f"{row['failed']} failed"
        )
    record = {
        "environment": environment(src),
        "seed": args.seed,
        "workloads": workloads,
    }
    ok = all(row["failed"] == 0 for row in workloads.values())
    return record, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="seqeve's parent")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--calls", type=int, default=200, help="hot and cold calls each"
    )
    parser.add_argument("--out", default=None, help="JSON file to append the run to")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    record, ok = run(args)
    if args.out is not None:
        out = Path(args.out)
        data = json.loads(out.read_text()) if out.exists() else {}
        data.setdefault("runs", []).append(record)
        out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
