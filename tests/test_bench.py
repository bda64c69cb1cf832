"""The in-process timing harness runs, gates its outputs and counts the work."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
RUN = ROOT / "bench" / "run.py"


def test_harness_times_every_workload_and_appends_its_run(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"runs": [{"earlier": True}]}))
    proc = subprocess.run(
        [sys.executable, str(RUN), "--calls", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(out.read_text())["runs"]
    assert len(runs) == 2 and runs[0] == {"earlier": True}
    # The run names the code it timed by a digest of its sources.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seqeve").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert runs[-1]["environment"]["src_sha256"] == digest.hexdigest()
    assert "PYTHONDONTWRITEBYTECODE" in runs[-1]["environment"]
    workloads = runs[-1]["workloads"]
    assert set(workloads) == {"plan-reference", "unbounded-tree", "chain-scenario"}
    for row in workloads.values():
        assert row["failed"] == 0 and row["call_s_min"] > 0
        assert row["cold_call_s_median"] > 0
        # The benchmark's argvs are plain: the one-pass reader reads them,
        # and no request asks for the argparse parser.
        assert row["parses_per_request"] == 0
    # Counts, unlike wall times, repeat.  Each seed-1 plan request takes 5
    # chain positions, with no grid point moving: one table and one check
    # each.  The Bell start is built once per process, in the warm-up.
    plan = workloads["plan-reference"]
    assert (plan["tables_per_request"], plan["checks_per_request"]) == (5, 5)
