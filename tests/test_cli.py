"""End-to-end tests of the command-line interface."""

import json
import math
import sys

from pathlib import Path

import numpy as np
import pytest

import seqeve.chain
import seqeve.cli
import seqeve.linalg
import seqeve.unbounded
from seqeve.chain import ConditionalTable, PauliState
from seqeve.states import TwoQubitState
from seqeve.cli import main
from seqeve.planner import max_eves

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


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def count_calls(monkeypatch, owner, name):
    """Count calls of owner.<name> through every seqeve binding."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "seqeve" or mod_name.startswith("seqeve."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


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


class TestWorkCounts:
    def test_planner_builds_no_kron_and_never_propagates(self, monkeypatch):
        krons = count_calls(monkeypatch, seqeve.linalg, "kron")
        propagations = count_calls(monkeypatch, seqeve.chain, "propagate")
        assert max_eves(0.1).max_eves == 4
        assert len(krons) == 0
        assert len(propagations) == 0

    def test_plan_check_paper_solves_each_eve_with_three_tables(
        self, monkeypatch, capsys
    ):
        tables = count_calls(monkeypatch, PauliState, "table")
        steps = count_calls(monkeypatch, PauliState, "after")
        krons = count_calls(monkeypatch, seqeve.linalg, "kron")
        assert main(["plan", "--rates", "0.1,0.2,0.3", "--check-paper"]) == 0
        assert capsys.readouterr().out.count(": ok (") == 15
        # 12 Eve solves (9 accepted, 3 stopped by Bob) at 3 tables each, plus
        # one Bob table per candidate Eve and one per finished plan.
        assert len(tables) == 51
        assert len(steps) == 12
        assert len(krons) == 0

    def test_chain_command_propagates_once(self, monkeypatch, capsys):
        starts = count_calls(monkeypatch, PauliState, "of")
        passes = count_calls(monkeypatch, seqeve.chain, "_propagate_all")
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
        states = count_calls(monkeypatch, TwoQubitState, "__post_init__")
        tables = count_calls(monkeypatch, ConditionalTable, "__post_init__")
        krons = count_calls(monkeypatch, seqeve.linalg, "kron")
        doc = explicit_chain_doc(
            n_eves,
            "alice: {settings: explicit, directions: [{theta: 0.1}, {theta: 1.4}]}\n",
        )
        assert main(["chain", "--scenario", write(tmp_path, "n.yaml", doc)]) == 0
        assert len(parse_csv(capsys.readouterr().out)) == n_eves + 1
        # The state seen by each Eve and by Bob, and each of their tables, all
        # through one stacked validator call each.
        assert [np.shape(state.rho)[:-2] for state, in states] == [(n_eves + 1,)]
        assert [np.shape(table.probs)[:-4] for table, in tables] == [(n_eves + 1,)]
        assert len(krons) == 0

    def test_unbounded_formats_each_distinct_row_tail_once(self, monkeypatch, capsys):
        cells = count_calls(monkeypatch, seqeve.cli, "_fmt")
        angles = ",".join(["0.6"] * 10)
        assert main(["unbounded", "--theta1", "0.7", "--lambdas", angles]) == 0
        rows = parse_csv(capsys.readouterr().out)
        labels = {row["branch"] for row in rows}
        values = [args[0] for args in cells if args[0] not in labels]
        # The six cells after the label of one leaf row and of the summary,
        # not 2^10 x 6: every leaf row shares its value objects.
        assert len(values) == 2 * 6
        assert len(cells) - len(values) == len(rows) == 2**10 + 1


# Pauli map of the transpose on the second qubit: positive, not completely
# positive, so it leaves an entangled state with a negative eigenvalue.
PARTIAL_TRANSPOSE = np.diag([1.0, 1.0, -1.0, 1.0])
# Coordinates of |0><0| (x) I/2: a valid state in which Alice's sigma_z
# outcome 1 has probability 0.
ALICE_UP_PRODUCT = np.zeros((4, 4))
ALICE_UP_PRODUCT[0, 0] = ALICE_UP_PRODUCT[3, 0] = 1.0


class TestFaultInjection:
    """A fault at one party of a 9-Eve chain stops the stacked pass.

    Each fault is injected into one entry of the stacked Eve maps, states or
    effect rows, and must surface with the exit code and message it had when
    every party was checked on its own.
    """

    N_EVES = 9

    def run_chain(self, tmp_path, capsys):
        doc = explicit_chain_doc(self.N_EVES)
        code = main(["chain", "--scenario", write(tmp_path, "c.yaml", doc)])
        return code, capsys.readouterr().err.strip()

    def corrupt(self, monkeypatch, name, fault):
        """Wrap chain.<name> so that ``fault`` edits its (N or N+1)-deep result."""
        original = getattr(seqeve.chain, name)

        def wrapped(*args):
            out = original(*args)
            if len(out) >= self.N_EVES:
                fault(out)
            return out

        monkeypatch.setattr(seqeve.chain, name, wrapped)

    @pytest.mark.parametrize(
        "k, lowest", [(1, "-4.660e-01"), (4, "-4.398e-01"), (9, "-1.842e-01")]
    )
    def test_non_physical_eve_map_exits_5(
        self, monkeypatch, tmp_path, capsys, k, lowest
    ):
        def fault(maps):
            maps[k - 1] = PARTIAL_TRANSPOSE

        self.corrupt(monkeypatch, "_eve_maps", fault)
        assert self.run_chain(tmp_path, capsys) == (
            5,
            f"internal error: density matrix has negative eigenvalue {lowest}",
        )

    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_zero_alice_marginal_at_one_party_exits_3(
        self, monkeypatch, tmp_path, capsys, k
    ):
        def fault(coords):
            coords[k - 1] = ALICE_UP_PRODUCT

        self.corrupt(monkeypatch, "_propagate_all", fault)
        assert self.run_chain(tmp_path, capsys) == (
            3,
            "infeasible: Alice input 0 outcome 1 has probability 0.000e+00",
        )

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_table_entry_outside_unit_interval_exits_5(
        self, monkeypatch, tmp_path, capsys, k
    ):
        def fault(rows):
            rows[k - 1, :, 1:] *= 20.0  # Eve k at 20 times her sharpness

        self.corrupt(monkeypatch, "_effect_rows", fault)
        assert self.run_chain(tmp_path, capsys) == (
            5,
            "internal error: conditional probabilities must lie in [0, 1]",
        )


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

        assert json.loads(output(UNBOUNDED_SMALL + ["--format", "json"]))
        assert len(json.loads(output(json_chain))) == 3
        assert len(parse_csv(output(csv_chain))) == 3
        assert len(parse_csv(output(UNBOUNDED_SMALL))) == 3
        assert output(["plan", "--rates", "0.3"]).startswith("target 0.3:")
        assert len(parse_csv(output(json_chain + ["--format", "csv"]))) == 3
        assert len(json.loads(output(json_chain))) == 3
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
        ],
        ids=["missing-scenario", "directory-scenario", "missing-out-directory"],
    )
    def test_exits_2_without_traceback(self, tmp_path, capsys, make_argv, message):
        assert main(make_argv(tmp_path)) == 2
        assert capsys.readouterr().err.startswith(message)


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

    @pytest.mark.parametrize("depth", [1, 10])
    def test_one_evaluation_per_strategy(self, monkeypatch, capsys, depth):
        evaluations = count_calls(monkeypatch, seqeve.unbounded, "evaluate_branch")
        decompositions = count_calls(monkeypatch, seqeve.unbounded, "schmidt_decompose")
        krons = count_calls(monkeypatch, seqeve.linalg, "kron")
        traces = count_calls(monkeypatch, seqeve.chain, "table_from_operators")
        angles = ",".join(["0.6"] * depth)
        assert main(["unbounded", "--theta1", "0.7", "--lambdas", angles]) == 0
        assert len(evaluations) == 2
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
