"""End-to-end tests of the command-line interface."""

import collections
import errno
import json
import math
import os
import subprocess
import sys

from pathlib import Path

import numpy as np
import pytest

from helpers import attached, count_calls
import seqeve.chain
import seqeve.cli
import seqeve.linalg
import seqeve.planner
import seqeve.unbounded
from seqeve import CANONICAL, leaf_report, loads_scenario, mub_chain, reports
from seqeve.chain import Assemblage, ChainSpec, ConditionalTable, PartySettings
from seqeve.linalg import BlochDirection
from seqeve.measurement import SharpSetting, UnsharpSetting, WeakKrausSetting
from seqeve.states import TwoQubitState
from seqeve.cli import main
from seqeve.planner import EVE_UNREACHABLE, InfeasibleError, max_eves
from seqeve.steering import SteeringReport
from seqeve.value import Value

TWO_EVE_DOC = """\
mode: chain
state:
  kind: bell
eves:
  - lambda: 0.552
    settings: mub
  - lambda: 0.602
    settings: mub
"""

CHAIN_MIXED = Path(__file__).parent / "golden" / "chain_mixed.yaml"
NO_EVE_DOC = "mode: chain\nstate: {kind: bell}\n"
PROJECTIVE_EVE_DOC = "mode: chain\neves:\n  - lambda: 1.0\n"
UNBOUNDED_SMALL = ["unbounded", "--theta1", "0.5", "--lambdas", "0.3"]
HELP_ARGVS = [["--help"], ["plan", "--help"]]
# An integer beyond float range, which YAML reads as a Python int.
HUGE_INT = "1" + "0" * 400


class FullStdout:
    """A standard output on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def latin1_scenario(tmp_path):
    """A scenario file that is not UTF-8."""
    path = tmp_path / "latin1.yaml"
    path.write_bytes("mode: chain  # \u00e9\n".encode("latin-1"))
    return str(path)


def explicit_chain_doc(n_eves, alice=""):
    """A chain of ``n_eves`` explicit, biased Eves on a tilted state."""
    eves = "".join(
        f"  - {{lambda: {0.1 + 0.08 * m}, settings: explicit, bias: 0.3, "
        f"directions: [{{theta: {0.3 * m}, phi: 0.5}}, {{theta: 1.2}}]}}\n"
        for m in range(n_eves)
    )
    return (
        "mode: chain\nstate: {kind: tilted, theta: 0.6}\n"
        + alice
        + (f"eves:\n{eves}" if n_eves else "")
    )


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestChainCommand:
    def test_two_eve_rates(self, tmp_path, capsys):
        scenario = write(tmp_path, "two.yaml", TWO_EVE_DOC)
        assert main(["chain", "--scenario", scenario]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [r["party"] for r in rows] == ["eve1", "eve2", "bob"]
        assert float(rows[0]["key_rate"]) == pytest.approx(0.1, abs=2e-3)
        assert float(rows[1]["key_rate"]) == pytest.approx(0.1, abs=2e-3)
        assert float(rows[2]["key_rate"]) == pytest.approx(0.634, abs=2e-3)
        assert rows[2]["lambda"] == ""
        assert rows[0]["lambda"] == "0.552"

    def test_no_eves_single_bob_row(self, tmp_path, capsys):
        scenario = write(tmp_path, "none.yaml", NO_EVE_DOC)
        assert main(["chain", "--scenario", scenario]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["party"] == "bob"
        assert float(rows[0]["key_rate"]) == pytest.approx(1.0, abs=1e-6)

    def test_projective_eve_destroys_bob_rate(self, tmp_path, capsys):
        scenario = write(tmp_path, "proj.yaml", PROJECTIVE_EVE_DOC)
        assert main(["chain", "--scenario", scenario]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert float(rows[-1]["key_rate"]) == pytest.approx(0.0, abs=1e-9)
        assert float(rows[-1]["lhs"]) <= 0.75 + 1e-9

    def test_output_files_are_byte_identical(self, tmp_path):
        scenario = write(tmp_path, "two.yaml", TWO_EVE_DOC)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["chain", "--scenario", scenario, "--out", str(out1)]) == 0
        assert main(["chain", "--scenario", scenario, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_mirrors_csv_fields(self, tmp_path):
        scenario = write(tmp_path, "two.yaml", TWO_EVE_DOC)
        out = tmp_path / "rows.json"
        assert (
            main(
                [
                    "chain",
                    "--scenario",
                    scenario,
                    "--out",
                    str(out),
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        rows = json.loads(out.read_text())
        assert [r["party"] for r in rows] == ["eve1", "eve2", "bob"]
        assert set(rows[0]) == {
            "party",
            "input_model",
            "lambda",
            "lhs",
            "delta",
            "key_rate",
        }
        assert rows[2]["lambda"] is None
        assert rows[2]["key_rate"] == pytest.approx(0.634, abs=2e-3)

    def test_malformed_scenario_names_field_and_exits_2(self, tmp_path, capsys):
        scenario = write(
            tmp_path, "bad.yaml", "mode: chain\neves:\n  - sharpness: 0.5\n"
        )
        assert main(["chain", "--scenario", scenario]) == 2
        err = capsys.readouterr().err
        assert "eves[0].sharpness" in err

    def test_wrong_mode_exits_2(self, tmp_path, capsys):
        scenario = write(tmp_path, "plan.yaml", "mode: plan\ntargets: [0.1]\n")
        assert main(["chain", "--scenario", scenario]) == 2
        assert "mode" in capsys.readouterr().err

    @staticmethod
    def near_product_doc(theta, second):
        return (
            f"mode: chain\nstate: {{kind: tilted, theta: {theta}}}\n"
            "alice: {settings: explicit, directions: "
            f"[{{theta: 0.0}}, {{theta: {second}}}]}}\n"
        )

    @pytest.mark.parametrize(
        "theta, second, rate",
        [
            ("1.0e-4", "2.0e-4", "1.92359e-08"),
            ("1.0e-4", "5.0e-5", "4.80898e-09"),
            ("1.0e-5", "2.0e-5", "1.92359e-10"),
        ],
    )
    def test_near_product_state_conditions(self, tmp_path, capsys, theta, second, rate):
        # Alice's marginals reach 1e-10 here.  The conditional states come
        # from amplitudes, so nothing small is divided by a small marginal.
        doc = self.near_product_doc(theta, second)
        assert main(["chain", "--scenario", write(tmp_path, "p.yaml", doc)]) == 0
        assert [row["key_rate"] for row in parse_csv(capsys.readouterr().out)] == [rate]

    def test_near_product_state_is_the_canonical_leaf(self):
        spec, _ = loads_scenario(self.near_product_doc("1.0e-4", "2.0e-4"))
        assert reports(spec) == [leaf_report(1e-4, CANONICAL)]

    def test_marginal_below_the_floor_exits_3(self, tmp_path, capsys):
        # p(1|0) = sin(1e-7)^2 = 1.0e-14 is below ZERO_PROB_ATOL.
        doc = self.near_product_doc("1.0e-7", "2.0e-7")
        assert main(["chain", "--scenario", write(tmp_path, "p.yaml", doc)]) == 3
        assert capsys.readouterr().err.startswith(
            "infeasible: Alice input 0 outcome 1 has probability 1.000e-14"
        )


class TestWorkCounts:
    def test_planner_builds_no_kron_and_never_propagates(self, monkeypatch):
        krons = count_calls(monkeypatch, seqeve.linalg, "kron")
        propagations = count_calls(monkeypatch, seqeve.chain, "propagate")
        assert max_eves(0.1).max_eves == 4
        assert len(krons) == 0
        assert len(propagations) == 0

    def test_plan_check_paper_scores_each_chain_position_once(
        self, monkeypatch, capsys
    ):
        seqeve.planner._bell_start.cache_clear()
        checks = count_calls(monkeypatch, Assemblage, "__post_init__")
        tables = count_calls(monkeypatch, Assemblage, "table")
        krons = count_calls(monkeypatch, seqeve.linalg, "kron")
        argv = ["plan", "--rates", "0.1,0.2,0.3", "--check-paper"]
        assert main(argv) == 0
        assert capsys.readouterr().out.count(": ok (") == 15
        # The three targets are planned in lockstep over 5 chain positions
        # (0.1 accepts 4 Eves and stops at the fifth).  One Bell Bob table,
        # then per position one table of a (3, 3) stack, no grid point
        # moving here: both grid points of every row and Bob behind the
        # new Eves, which is also the next Eve's table at sharpness 1.
        assert len(tables) == 1 + 5
        assert [np.shape(sharpness)[:-1] for _, _, sharpness in tables[1:]] == [
            (3, 3)
        ] * 5
        # Each assemblage is checked once, where it is built: the start and
        # the 5 stacks, not once per table.
        assert len(checks) == 1 + 5
        assert len(krons) == 0
        # A second plan in the process reuses the start.
        assert main(argv) == 0
        assert len(tables) == 6 + 5
        assert len(checks) == 6 + 5

    def test_chain_command_propagates_once(self, monkeypatch, capsys):
        starts = count_calls(monkeypatch, Assemblage, "start")
        passes = count_calls(monkeypatch, Assemblage, "through")
        propagations = count_calls(monkeypatch, seqeve.chain, "propagate")
        krons = count_calls(monkeypatch, seqeve.linalg, "kron")
        assert main(["chain", "--scenario", str(CHAIN_MIXED)]) == 0
        assert len(parse_csv(capsys.readouterr().out)) == 4
        # One stacked pass: 1 start and the 3 Eve steps of the file.
        assert len(starts) == 1
        assert [len(maps) for _, maps in passes] == [3]
        assert len(propagations) == 0
        assert len(krons) == 0

    @pytest.mark.parametrize("n_eves", [0, 1, 9])
    def test_chain_validates_every_state_and_table(
        self, monkeypatch, capsys, tmp_path, n_eves
    ):
        checks = count_calls(monkeypatch, Assemblage, "__post_init__")
        scored = count_calls(monkeypatch, Assemblage, "table")
        states = count_calls(monkeypatch, TwoQubitState, "__post_init__")
        tables = count_calls(monkeypatch, ConditionalTable, "__post_init__")
        krons = count_calls(monkeypatch, seqeve.linalg, "kron")
        doc = explicit_chain_doc(
            n_eves,
            "alice: {settings: explicit, directions: [{theta: 0.1}, {theta: 1.4}]}\n",
        )
        assert main(["chain", "--scenario", write(tmp_path, "n.yaml", doc)]) == 0
        assert len(parse_csv(capsys.readouterr().out)) == n_eves + 1
        # Alice's start, then the assemblage seen by each Eve and by Bob,
        # scored in one stacked table; no density matrix.
        assert [state.bloch.shape[:-2] for state, in checks] == [(), (n_eves + 1,)]
        assert [state.bloch.shape[:-2] for state, *_ in scored] == [(n_eves + 1,)]
        assert [np.shape(table.probs)[:-4] for table, in tables] == [(n_eves + 1,)]
        assert len(states) == 0
        assert len(krons) == 0

    @pytest.mark.parametrize("n_eves", [0, 1, 9])
    def test_chain_builds_no_object_per_eve(
        self, monkeypatch, capsys, tmp_path, n_eves
    ):
        # Counts, unlike wall times, repeat exactly from run to run.
        starts = count_calls(monkeypatch, Assemblage, "start")
        passes = count_calls(monkeypatch, Assemblage, "through")
        scored = count_calls(monkeypatch, Assemblage, "table")
        settings = (BlochDirection, UnsharpSetting, PartySettings, SteeringReport)
        built = [count_calls(monkeypatch, cls, "__init__") for cls in settings]
        doc = explicit_chain_doc(
            n_eves,
            "alice: {settings: explicit, directions: [{theta: 0.1}, {theta: 1.4}]}\n",
        )
        assert main(["chain", "--scenario", write(tmp_path, "n.yaml", doc)]) == 0
        assert len(parse_csv(capsys.readouterr().out)) == n_eves + 1
        # The reader writes every party into its rows of the kernel's
        # arrays: one start, one pass of N maps and one stacked table, and
        # no direction, setting or party object, Alice's explicit pair
        # included.  The rows are written from the score columns, with no
        # report object per party.
        assert len(starts) == 1
        assert [len(maps) for _, maps in passes] == [n_eves]
        assert len(scored) == 1
        assert [len(calls) for calls in built] == [0, 0, 0, 0]

    @pytest.mark.parametrize("n_eves", [0, 1, 9])
    def test_chain_builds_one_value_of_each_record(
        self, monkeypatch, capsys, tmp_path, n_eves
    ):
        built = count_calls(monkeypatch, Value, "__init__")
        doc = explicit_chain_doc(
            n_eves,
            "alice: {settings: explicit, directions: [{theta: 0.1}, {theta: 1.4}]}\n",
        )
        assert main(["chain", "--scenario", write(tmp_path, "n.yaml", doc)]) == 0
        assert len(parse_csv(capsys.readouterr().out)) == n_eves + 1
        # The state, the chain and its labels as one flat record, Alice's
        # start and the stacked pass, and one stacked table.
        census = collections.Counter(type(value).__name__ for value, *_ in built)
        assert census == {
            "PureTwoQubitState": 1, "ChainSpec": 1, "Scenario": 1, "Assemblage": 2,
            "ConditionalTable": 1,
        }
        # The reader builds each party's rows in the kernel's shape: no
        # strided view of a wider array.
        (spec,) = [value for value, *_ in built if value.__class__ is ChainSpec]
        assert spec.alice.shape == (2, 2)
        assert spec.directions.shape == (n_eves + 1, 2, 3)
        assert spec.alice.flags.c_contiguous
        assert spec.directions.flags.c_contiguous

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--rates", "0.1,0.2,0.3", "--check-paper"],
            ["unbounded", "--theta1", "0.6", "--lambdas", "0.3,0.5,0.7"],
        ],
        ids=["plan", "unbounded"],
    )
    def test_commands_build_no_settings_object(self, monkeypatch, capsys, argv):
        # The planner and the branch tree read the sigma_z / sigma_x pair
        # from the kernel's arrays, never from settings objects.
        settings = (BlochDirection, SharpSetting, UnsharpSetting, PartySettings)
        built = [count_calls(monkeypatch, cls, "__init__") for cls in settings]
        assert main(argv) == 0
        assert capsys.readouterr().out
        assert [len(calls) for calls in built] == [0, 0, 0, 0]
        # The census sees each object where one is built: a direction, and
        # mub_chain's three parties of two settings on the shared Z_DIR/X_DIR.
        BlochDirection(0.5)
        mub_chain((0.5,))
        assert [len(calls) for calls in built] == [1, 4, 2, 3]

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--rates", "0.1,0.2,0.3"],
            ["unbounded", "--theta1", "0.6", "--lambdas", "0.3,0.5,0.7"],
        ],
        ids=["plan", "unbounded"],
    )
    def test_commands_build_no_steering_report(self, monkeypatch, capsys, argv):
        built = count_calls(monkeypatch, SteeringReport, "__init__")
        assert main(argv) == 0
        assert capsys.readouterr().out
        assert len(built) == 0
        # The census sees a report where the library builds one.
        reports(mub_chain((0.5,)))
        assert len(built) == 2

    @pytest.mark.parametrize("depth", range(1, seqeve.cli.MAX_UNBOUNDED_DEPTH + 1))
    def test_branch_labels_count_in_binary(self, depth):
        high, low = seqeve.cli._branch_labels(depth)
        labels = [h + l for h in high for l in low]
        assert labels == [format(k, f"0{depth}b") for k in range(2**depth)]

    def test_plain_argvs_make_no_parser_call(self, monkeypatch, capsys, tmp_path):
        parses = count_calls(monkeypatch, seqeve.cli, "_parser")
        # The shapes of the benchmark's requests.
        argvs = [
            ["plan", "--rates", "0.1,0.2,0.3,0.07,0.38", "--check-paper"],
            ["unbounded", "--theta1", "0.61", "--lambdas", ",".join(["0.4"] * 10)],
            ["chain", "--scenario", str(CHAIN_MIXED), "--format", "json",
             "--out", str(tmp_path / "chain.json")],
        ]
        for argv in argvs:
            assert main(argv) == 0
        assert len(parses) == 0
        assert main(["plan", "--rates=0.1"]) == 0
        assert len(parses) == 1

    def test_unbounded_formats_each_distinct_row_tail_once(self, monkeypatch, capsys):
        cells = count_calls(monkeypatch, seqeve.cli, "_fmt")
        for depth in (10, 12):
            cells.clear()
            angles = ",".join(["0.6"] * depth)
            assert main(["unbounded", "--theta1", "0.7", "--lambdas", angles]) == 0
            rows = parse_csv(capsys.readouterr().out)
            # The six cells after the label of the leaf group and of the
            # summary, not 2^n x 6: the leaf rows are one group, and labels
            # are written as they are.
            assert len(cells) == 2 * 6
            assert len(rows) == 2**depth + 1


# A Bloch map that stretches every vector by half again, so that it takes a
# conditional state out of the Bloch ball.
STRETCH = 1.5 * np.eye(3)
# Amplitudes of |00>: a valid state in which Alice's sigma_z outcome 1 has
# probability 0.
ALICE_UP_PRODUCT = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


class TestFaultInjection:
    """A fault at one party of a 9-Eve chain stops the stacked pass.

    Each fault is injected into one entry of the stacked Eve maps or party
    arrays, or into the kernel's start, and must surface with its exit code
    and message.
    """

    N_EVES = 9

    def run_chain(self, tmp_path, capsys):
        doc = explicit_chain_doc(self.N_EVES)
        code = main(["chain", "--scenario", write(tmp_path, "c.yaml", doc)])
        return code, capsys.readouterr().err.strip()

    @pytest.mark.parametrize(
        "k, length", [(1, "1.500e+00"), (4, "1.487e+00"), (9, "1.345e+00")]
    )
    def test_non_physical_eve_map_exits_5(
        self, monkeypatch, tmp_path, capsys, k, length
    ):
        original = seqeve.chain._eve_maps

        def stretched(*args):
            maps = original(*args)
            maps[k - 1] = STRETCH
            return maps

        monkeypatch.setattr(seqeve.chain, "_eve_maps", stretched)
        assert self.run_chain(tmp_path, capsys) == (
            5,
            f"internal error: conditional Bloch vector has length {length}",
        )

    def test_zero_alice_marginal_exits_3(self, monkeypatch, tmp_path, capsys):
        original = Assemblage.start

        def product_start(amp, angles):
            return original(ALICE_UP_PRODUCT, angles)

        monkeypatch.setattr(Assemblage, "start", product_start)
        assert self.run_chain(tmp_path, capsys) == (
            3,
            "infeasible: Alice input 0 outcome 1 has probability 0.000e+00",
        )

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_table_entry_outside_unit_interval_exits_5(
        self, monkeypatch, tmp_path, capsys, k
    ):
        original = Assemblage.table

        def sharper(state, directions, sharpness):
            sharpness = sharpness.copy()
            sharpness[k - 1] *= 20.0  # Eve k at 20 times her sharpness
            return original(state, directions, sharpness)

        monkeypatch.setattr(Assemblage, "table", sharper)
        assert self.run_chain(tmp_path, capsys) == (
            5,
            "internal error: conditional probabilities must lie in [0, 1]",
        )


class TestRangeOwners:
    """The domain layer words each range; the edge adds only the field name."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["unbounded", "--theta1", "2.0", "--lambdas", "0.3"],
                "theta1: tilt angle must lie in (0, pi/4], got 2.0",
            ),
            (
                ["unbounded", "--theta1", "0.5", "--lambdas", "0.3,2.0"],
                "lambdas[1]: weak angle must lie in (0, pi/4], got 2.0",
            ),
            (
                ["plan", "--rates", "0.1,1.5"],
                "rates: target rate must lie in (0, 1), got 1.5",
            ),
        ],
        ids=["tilt", "weak", "rate"],
    )
    def test_option_items(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                "state: {kind: tilted, theta: 1.0}",
                "state.theta: tilt angle must lie in (0, pi/4], got 1.0",
            ),
            (
                "eves: [{lambda: 1.5}]",
                "eves[0].lambda: sharpness must lie in (0, 1], got 1.5",
            ),
            (
                "eves: [{lambda: 0.5}, {lambda: 0.5, bias: -1}]",
                "eves[1].bias: input bias must lie in [0, 1], got -1.0",
            ),
            ("1: a\nb: c", "scenario.1: unknown key"),
            (
                f"eves: [{{lambda: {HUGE_INT}}}]",
                "eves[0].lambda: value must be finite",
            ),
            (
                f"state: {{kind: tilted, theta: {HUGE_INT}}}",
                "state.theta: value must be finite",
            ),
            (
                "alice: {settings: explicit, directions: "
                f"[{{theta: 0.0}}, {{theta: -{HUGE_INT}}}]}}",
                "alice.directions[1].theta: value must be finite",
            ),
        ],
        ids=[
            "tilt",
            "sharpness",
            "bias",
            "mixed-keys",
            "huge-sharpness",
            "huge-tilt",
            "huge-direction",
        ],
    )
    def test_scenario_fields(self, tmp_path, capsys, doc, message):
        path = write(tmp_path, "s.yaml", f"mode: chain\n{doc}\n")
        assert main(["chain", "--scenario", path]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_any_other_value_error_is_internal(self, monkeypatch, capsys):
        def broken(theta1, weak_angles):
            raise ValueError("weak angle must lie in (0, pi/4], got 2.0")

        monkeypatch.setattr(seqeve.cli, "leaf_theta", broken)
        assert main(UNBOUNDED_SMALL) == 5
        err = capsys.readouterr().err
        assert err == "internal error: weak angle must lie in (0, pi/4], got 2.0\n"

    def test_a_planner_infeasible_error_is_internal(self, monkeypatch, capsys):
        # No Bell-state target reaches it; if one did, it is the program's.
        def infeasible(targets):
            raise InfeasibleError(2, EVE_UNREACHABLE, "required sharpness 1.2 exceeds 1")

        monkeypatch.setattr(seqeve.cli, "plan_chains", infeasible)
        assert main(["plan", "--rates", "0.1"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: no valid sharpness for Eve 2 (eve-rate-unreachable): "
            "required sharpness 1.2 exceeds 1\n"
        )

    def test_a_type_error_in_the_planner_is_internal(self, monkeypatch, capsys):
        def broken(p_alice, upstream, solves, position):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(seqeve.planner, "_grid_solve", broken)
        assert main(["plan", "--rates", "0.1"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: TypeError: unsupported operand\n"

    def test_an_interrupt_is_not_an_internal_error(self, monkeypatch, capsys):
        def interrupted(targets):
            raise KeyboardInterrupt

        monkeypatch.setattr(seqeve.cli, "plan_chains", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["plan", "--rates", "0.1"])
        assert capsys.readouterr().err == ""


class TestParserReuse:
    def test_each_call_sees_its_own_defaults(self, monkeypatch, tmp_path, capsys):
        seqeve.cli._parser.cache_clear()
        builds = count_calls(monkeypatch, seqeve.cli, "build_parser")
        json_doc = TWO_EVE_DOC + "output: {format: json}\n"
        json_chain = ["chain", "--scenario", write(tmp_path, "j.yaml", json_doc)]
        csv_chain = ["chain", "--scenario", write(tmp_path, "c.yaml", TWO_EVE_DOC)]

        def output(argv):
            assert main(argv) == 0
            return capsys.readouterr().out

        argvs = [
            UNBOUNDED_SMALL + ["--format", "json"],
            json_chain,
            csv_chain,
            UNBOUNDED_SMALL,
            ["plan", "--rates", "0.3"],
            json_chain + ["--format", "csv"],
            json_chain,
        ]
        outputs = [output(argv) for argv in argvs]
        assert [len(json.loads(outputs[k])) for k in (0, 1, 6)] == [3, 3, 3]
        assert [len(parse_csv(outputs[k])) for k in (2, 3, 5)] == [3, 3, 3]
        assert outputs[4].startswith("target 0.3:")
        # The one-pass reader reads these plain argvs: no parser is built.
        assert len(builds) == 0
        # The same requests as '--flag=value' go through argparse, which
        # builds the parser once and gives each call its own defaults.
        assert [output(attached(argv)) for argv in argvs] == outputs
        assert len(builds) == 1


class TestFileSystemErrors:
    @pytest.mark.parametrize(
        "make_argv, message",
        [
            (
                lambda tmp: ["chain", "--scenario", str(tmp / "missing.yaml")],
                "input error: scenario: cannot read",
            ),
            (
                lambda tmp: ["chain", "--scenario", str(tmp)],
                "input error: scenario: cannot read",
            ),
            (
                lambda tmp: UNBOUNDED_SMALL + ["--out", str(tmp / "missing" / "x.csv")],
                "input error: out: cannot write",
            ),
            (
                lambda tmp: ["chain", "--scenario", str(tmp / "a\0b.yaml")],
                "input error: scenario: cannot read",
            ),
            (
                lambda tmp: UNBOUNDED_SMALL + ["--out", str(tmp / "a\0b.csv")],
                "input error: out: cannot write",
            ),
            (
                lambda tmp: ["chain", "--scenario", latin1_scenario(tmp)],
                "input error: scenario: cannot read",
            ),
            (
                lambda tmp: ["chain", "--scenario", str(tmp / "a\nb.yaml")],
                "input error: scenario: cannot read",
            ),
            (
                lambda tmp: UNBOUNDED_SMALL + ["--out", str(tmp / "a\nb" / "x.csv")],
                "input error: out: cannot write",
            ),
        ],
        ids=[
            "missing-scenario",
            "directory-scenario",
            "missing-out-directory",
            "nul-in-scenario-path",
            "nul-in-out-path",
            "scenario-not-utf8",
            "newline-in-scenario-path",
            "newline-in-out-path",
        ],
    )
    def test_exits_2_without_traceback(self, tmp_path, capsys, make_argv, message):
        assert main(make_argv(tmp_path)) == 2
        err = capsys.readouterr().err
        # The path is quoted, so a newline in it cannot split the message.
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["chain", "chain-output-path", "unbounded"])
    def test_empty_out_is_a_path_that_cannot_be_written(
        self, tmp_path, capsys, command
    ):
        # An empty --out names the file '', so it falls back neither to
        # stdout nor to the scenario's output.path.
        named = tmp_path / "named.csv"
        doc = TWO_EVE_DOC
        if command == "chain-output-path":
            doc += f"output: {{path: {json.dumps(str(named))}}}\n"
        if command == "unbounded":
            argv = UNBOUNDED_SMALL
        else:
            argv = ["chain", "--scenario", write(tmp_path, "two.yaml", doc)]
        assert main(argv + ["--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: out: cannot write ''")
        assert captured.err.count("\n") == 1
        assert not named.exists()

    @pytest.mark.parametrize("path", ["", "."], ids=["empty", "directory"])
    def test_an_unwritable_output_path_is_named(self, tmp_path, capsys, path):
        # The file comes from the scenario, so the message names its field,
        # not the --out option, which was never given.
        doc = TWO_EVE_DOC + f"output: {{path: {json.dumps(path)}}}\n"
        argv = ["chain", "--scenario", write(tmp_path, "two.yaml", doc)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"input error: output.path: cannot write {path!r}"
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--rates", "0.1"],
            ["plan", "--rates", "0.1,0.2,0.3", "--check-paper"],
            ["chain", "--scenario", str(CHAIN_MIXED)],
            UNBOUNDED_SMALL,
        ],
        ids=["plan", "plan-check-paper", "chain", "unbounded"],
    )
    def test_full_stdout_exits_2(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: out: cannot write")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=["seqeve", "plan"])
    def test_help_to_full_stdout_exits_2(self, monkeypatch, capsys, argv):
        # argparse's own help writer drops the OSError and exits 0.
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: out: cannot write standard output")
        assert err.count("\n") == 1

    @staticmethod
    def run_to_dev_full(argv):
        src = str(Path(seqeve.cli.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        with open("/dev/full", "w") as full:
            return subprocess.run(
                [sys.executable, "-m", "seqeve.cli", *argv],
                env={**os.environ, "PYTHONPATH": path},
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_dev_full_stdout_exits_2_at_process_exit(self):
        # Only a real process shows the interpreter's exit-time flush.
        proc = self.run_to_dev_full(["plan", "--rates", "0.1"])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("input error: out: cannot write")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=["seqeve", "plan"])
    def test_help_to_dev_full_exits_2(self, argv):
        proc = self.run_to_dev_full(argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("input error: out: cannot write standard output")
        assert proc.stderr.count("\n") == 1


class TestListOptions:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["plan", "--rates", "0.3,,0.2"], "rates"),
            (["plan", "--rates", "0.3,"], "rates"),
            (["unbounded", "--theta1", "0.5", "--lambdas", "0.3,,0.2"], "lambdas"),
            (["unbounded", "--theta1", "0.5", "--lambdas", "0.3,"], "lambdas"),
        ],
    )
    def test_empty_item_exits_2(self, capsys, argv, option):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"input error: {option}: empty item")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["unbounded", "--theta1", "0.5", "--lambdas", "-0.001,0.2"], "lambdas[0]"),
            (["unbounded", "--theta1", "0.5", "--lambdas", "-1e-3"], "lambdas[0]"),
            (["unbounded", "--theta1", "-1e-3", "--lambdas", "0.2"], "theta1"),
            (["plan", "--rates", "-1e-3"], "rates"),
            (["plan", "--rates", "-0.1,0.2", "--check-paper"], "rates"),
        ],
    )
    def test_negative_first_item_reaches_the_range_check(self, capsys, argv, message):
        # argparse alone reads '-0.001,0.2' as an option: "expected one argument".
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"input error: {message}: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["unbounded", "--theta1", "0.5", "--lambda", "-0.1,0.2"],
                "the following arguments are required: --lambdas",
            ),
            (
                ["unbounded", "--theta", "-1e-3", "--lambdas", "0.2"],
                "the following arguments are required: --theta1",
            ),
            (
                ["plan", "--rate", "-1e-3"],
                "the following arguments are required: --rates",
            ),
            (
                ["unbounded", "--theta1", "0.5", "--lambdas", "0.2", "--form", "json"],
                "unrecognized arguments: --form json",
            ),
        ],
    )
    def test_abbreviated_option_names_are_refused(self, capsys, argv, message):
        # Only exact names exist, so no value is read under a guessed option.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "expected one argument" not in err

    @pytest.mark.parametrize(
        "spaced, plain",
        [
            (["plan", "--rates", "0.3, 0.2 "], ["plan", "--rates", "0.3,0.2"]),
            (
                ["unbounded", "--theta1", "0.5", "--lambdas", " 0.3, deg:20"],
                ["unbounded", "--theta1", "0.5", "--lambdas", "0.3,deg:20"],
            ),
        ],
    )
    def test_spaces_around_items_parse(self, capsys, spaced, plain):
        assert main(spaced) == 0
        spaced_out = capsys.readouterr().out
        assert main(plain) == 0
        assert spaced_out == capsys.readouterr().out


class TestPlanCommand:
    def test_plan_lists_chains(self, capsys):
        assert main(["plan", "--rates", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "max_eves=2" in out
        assert "lambda_min[1] = 0.655" in out
        assert "no valid range for lambda[3]" in out

    def test_check_reference_passes_on_clean_build(self, capsys):
        assert main(["plan", "--rates", "0.1,0.2,0.3", "--check-paper"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert out.count("ok") >= 12

    def test_check_reference_runs_missing_targets(self, capsys):
        # The reference table is checked even for targets not requested.
        assert main(["plan", "--rates", "0.1", "--check-paper"]) == 0

    def test_extreme_target_admits_no_eves(self, capsys):
        # A first Eve could reach 0.99 alone, but Bob's rate would collapse,
        # so the longest admissible chain is empty.
        assert main(["plan", "--rates", "0.99"]) == 0
        assert "max_eves=0" in capsys.readouterr().out

    def test_bad_rate_exits_2(self, capsys):
        assert main(["plan", "--rates", "1.5"]) == 2
        assert "rates" in capsys.readouterr().err

    def test_unparsable_rate_exits_2(self, capsys):
        assert main(["plan", "--rates", "abc"]) == 2

    def test_each_target_is_echoed_as_it_was_read(self, capsys):
        # Six significant digits would print 0.123457, the two targets
        # 0.30000000000000004 and 0.3 alike, and 0.9999999 as 1, which is
        # not a valid rate.
        rates = ["0.1234567", "0.30000000000000004", "0.3", "0.9999999"]
        assert main(["plan", "--rates", ",".join(rates)]) == 0
        lines = capsys.readouterr().out.splitlines()
        echoed = [ln.split(":")[0] for ln in lines if ln.startswith("target ")]
        assert echoed == [f"target {rate}" for rate in rates]


class TestUnboundedCommand:
    def test_leaf_count_is_power_of_two(self, capsys):
        assert (
            main(
                [
                    "unbounded",
                    "--theta1",
                    str(math.pi / 4),
                    "--lambdas",
                    f"{math.pi / 4},{math.pi / 4}",
                ]
            )
            == 0
        )
        rows = parse_csv(capsys.readouterr().out)
        leaves = [r for r in rows if r["branch"] != "summary"]
        assert len(leaves) == 4
        for leaf in leaves:
            assert float(leaf["key_rate_canonical"]) == pytest.approx(1.0, abs=1e-9)

    def test_single_weak_angle_rates(self, capsys):
        assert (
            main(
                [
                    "unbounded",
                    "--theta1",
                    str(math.pi / 4),
                    "--lambdas",
                    str(math.pi / 6),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        rows = parse_csv(out)
        leaves = [r for r in rows if r["branch"] != "summary"]
        assert [r["branch"] for r in leaves] == ["0", "1"]
        for leaf in leaves:
            assert float(leaf["theta"]) == pytest.approx(math.pi / 6, abs=1e-5)
            assert float(leaf["key_rate_canonical"]) == pytest.approx(
                0.585, abs=1e-3
            )
        summary = rows[-1]
        assert summary["branch"] == "summary"
        assert float(summary["weight"]) == pytest.approx(1.0, abs=1e-9)
        assert "alice_facing=1" in out

    def test_depth_cap_exits_2(self, capsys):
        angles = ",".join(["0.3"] * 13)
        assert (
            main(["unbounded", "--theta1", "0.5", "--lambdas", angles]) == 2
        )

    def test_degree_prefix_accepted(self, capsys):
        assert (
            main(["unbounded", "--theta1", "deg:45", "--lambdas", "deg:30"]) == 0
        )
        rows = parse_csv(capsys.readouterr().out)
        assert float(rows[0]["theta"]) == pytest.approx(math.pi / 6, abs=1e-5)

    def test_bad_angle_exits_2(self, capsys):
        assert main(["unbounded", "--theta1", "2.0", "--lambdas", "0.3"]) == 2

    @pytest.mark.parametrize("theta1, code", [("0.5", 0), ("2.0", 2)])
    def test_entry_exits_with_the_code_of_main(self, monkeypatch, capsys, theta1, code):
        argv = ["seqeve", "unbounded", "--theta1", theta1, "--lambdas", "0.3"]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exit_info:
            seqeve.cli.entry()
        assert exit_info.value.code == code

    @pytest.mark.parametrize("depth", [1, 10, 12])
    def test_one_evaluation_per_strategy(self, monkeypatch, capsys, depth):
        evaluations = count_calls(monkeypatch, seqeve.unbounded, "leaf_scores")
        one_strategy = count_calls(monkeypatch, seqeve.unbounded, "leaf_report")
        starts = count_calls(monkeypatch, Assemblage, "start")
        scored = count_calls(monkeypatch, Assemblage, "table")
        tables = count_calls(monkeypatch, ConditionalTable, "__post_init__")
        weak = count_calls(monkeypatch, WeakKrausSetting, "__post_init__")
        node_evaluations = count_calls(monkeypatch, seqeve.unbounded, "evaluate_branch")
        decompositions = count_calls(monkeypatch, seqeve.unbounded, "schmidt_decompose")
        krons = count_calls(monkeypatch, seqeve.linalg, "kron")
        traces = count_calls(monkeypatch, seqeve.chain, "table_from_operators")
        cells = count_calls(monkeypatch, seqeve.cli, "_fmt")
        angles = ",".join(["0.6"] * depth)
        assert main(["unbounded", "--theta1", "0.7", "--lambdas", angles]) == 0
        # The six values of the leaf and of the summary formatted once each,
        # whatever the depth; labels are not formatted.
        assert len(cells) == 2 * 6
        # Both Alice strategies in one stacked start, table and check, and
        # each weak angle checked without building a setting.
        assert len(evaluations) == 1
        assert len(one_strategy) == 0
        assert [np.shape(angles) for _, angles in starts] == [(2, 2, 2)]
        assert [state.bloch.shape for state, *_ in scored] == [(2, 4, 3)]
        assert [np.shape(table.probs) for table, in tables] == [(2, 2, 2, 2, 2)]
        assert len(weak) == 0
        assert len(node_evaluations) == 0
        assert len(decompositions) == 0
        assert len(krons) == 0
        assert len(traces) == 0
        assert len(parse_csv(capsys.readouterr().out)) == 2**depth + 1

    # theta1 = 0.3 with weak angles 0.1 shrinks sin(2 theta) by sin(0.2) per
    # step: the leaf angle is 2.2e-3 at depth 3, 8.7e-5 at 5, 3.4e-6 at 7 and
    # 6.9e-7 at 8, where Alice's marginal sin^2(theta) = 4.7e-13 is below
    # ZERO_PROB_ATOL.
    @pytest.mark.parametrize(
        "depth, code, message",
        [
            (3, 0, ""),
            (5, 0, ""),
            (6, 0, ""),
            (7, 0, ""),
            (8, 3, "infeasible: Alice input 0 outcome 1"),
        ],
    )
    def test_small_leaf_angles_exit_codes(self, capsys, depth, code, message):
        angles = ",".join(["0.1"] * depth)
        assert main(["unbounded", "--theta1", "0.3", "--lambdas", angles]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "input error" not in err

    def test_degenerate_branch_exits_3(self, capsys):
        assert main(["unbounded", "--theta1", "0.3", "--lambdas", "1e-5,1e-5"]) == 3
        assert "product-state threshold" in capsys.readouterr().err
