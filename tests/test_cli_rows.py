"""The command line's row writer against the cell-by-cell oracle renderer.

``cli._write_rows`` takes (prefixes, suffixes, values) groups, one row
labelled p + s per prefix p and suffix s.  It formats a group's cells once,
as a CSV tail or a JSON template around the label, and joins each prefix's
rows over the suffixes; ``oracles.render_rows`` formats every cell of every
(label, values) row, JSON through ``json.dumps(objects, indent=2)``.  Both
must give the same bytes, in CSV and in JSON.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqeve.cli
from oracles import render_rows

ROWS = settings(max_examples=300, deadline=None, derandomize=True)
DEPTH12 = ["--theta1", "0.7", "--lambdas", ",".join(["0.6", "0.3", "0.5", "0.2"] * 3)]

# Equal values that render differently (0.0 and -0.0; 1, 1.0 and True), so a
# writer that reuses or merges tails of equal values shows up.
EQUAL_BUT_DISTINCT = [0.0, -0.0, 1, 1.0, True, False, 0]
# Adjacent groups whose values tuples are equal but render differently.
LOOKALIKE_GROUPS = [
    (["0"], [""], (0.0, 1)),
    (["1"], [""], (-0.0, True)),
    (["1"], ["0"], (-0.0, 1.0)),
]
# One group as wide as the 2^12 leaves of the deepest ``unbounded`` request.
LEAF_HALVES = [format(k, "06b") for k in range(2**6)]
LEAF_COLUMNS = ["branch", "a", "b", "c"]
# A character outside the BMP split into two lone surrogates, one in the
# prefix and one in the suffix: JSON escapes them one at a time.
SPLIT_PAIR = (["a\ud83d"], ["\ude00b", ""], ("q\"\\\x00",))
scalars = st.one_of(
    st.none(),
    st.text(max_size=6),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.123456789, 1e-300, 2.5e20, 1234567.0, float("nan")]),
    st.sampled_from(EQUAL_BUT_DISTINCT),
)
column_names = st.sampled_from(["branch", "theta", "lhs"]) | st.text(max_size=4)


def lookalike(value):
    """An equal value of another rendering, where the pool has one."""
    twins = [v for v in EQUAL_BUT_DISTINCT if v == value and repr(v) != repr(value)]
    return twins[0] if twins else value


@st.composite
def tables(draw):
    """(groups, columns): distinct column names, as every command writes,
    and (prefixes, suffixes, values) groups whose values tuples come from a
    small pool, so that several groups share one tuple object."""
    columns = draw(st.lists(column_names, min_size=1, max_size=6, unique=True))
    pool = draw(st.lists(st.tuples(*[scalars] * (len(columns) - 1)), min_size=1))
    if draw(st.booleans()):
        pool.append(tuple(map(lookalike, pool[0])))
    groups = [
        (
            draw(st.lists(st.text(), max_size=4)),
            draw(st.lists(st.text(), max_size=4)),
            draw(st.sampled_from(pool)),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    return groups, columns


def expanded(groups):
    """The (label, values) rows that ``groups`` stand for, in order."""
    return [
        (prefix + suffix, values)
        for prefixes, suffixes, values in groups
        for prefix in prefixes
        for suffix in suffixes
    ]


def written(groups, columns, header_lines, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        seqeve.cli._write_rows(groups, columns, header_lines, fmt, None)
    return out.getvalue()


@ROWS
@given(tables(), st.lists(st.text(max_size=8), max_size=3))
@example(([], ["branch", "theta"]), ["seqeve"])
# No prefixes, then no suffixes, then [""] suffixes.
@example(([([], ["0"], (0.5, None)), (["x"], [""], (0.5, None))], ["b", "t", "l"]), [])
@example(([(["0", "1"], [], (0.5,)), (["x"], ["y", "z"], (0.5,))], ["b", "t"]), [])
@example(([(["x", "y"], [""], (0.5, None, "s"))], ["b", "theta", "a", "c"]), [])
@example((LOOKALIKE_GROUPS, ["branch", "theta", "weight"]), [])
@example(([(LEAF_HALVES, LEAF_HALVES, (0.1234567, 2.0**-12, None))], LEAF_COLUMNS), [])
@example(([SPLIT_PAIR], ["branch", "cell"]), [])
def test_rows_match_the_oracle_renderer(table, header_lines):
    groups, columns = table
    for fmt in ("csv", "json"):
        expected = render_rows(expanded(groups), columns, header_lines, fmt)
        assert written(groups, columns, header_lines, fmt) == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_depth12_unbounded_matches_the_oracle_renderer(monkeypatch, capsys, fmt):
    calls = []
    write = seqeve.cli._write_rows

    def spy(groups, columns, header_lines, fmt, path):
        calls.append((groups, columns, header_lines, fmt))
        write(groups, columns, header_lines, fmt, path)

    monkeypatch.setattr(seqeve.cli, "_write_rows", spy)
    assert seqeve.cli.main(["unbounded", *DEPTH12, "--format", fmt]) == 0
    (groups, columns, header_lines, _), = calls
    rows = expanded(groups)
    assert len(rows) == 2**12 + 1
    assert capsys.readouterr().out == render_rows(rows, columns, header_lines, fmt)
