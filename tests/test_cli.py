from __future__ import annotations

import csv
import gc
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from clustereval import cli, model
from clustereval.aggregate import UNMAPPED_POLICIES
from clustereval.cli import main
from clustereval.mapping import FTable, resolve_conflicts

from conftest import (
    CLASS_A_MEMBERS,
    CLASS_B_MEMBERS,
    beneath_frames,
    chain_doc,
    clustering_doc,
    cyclic_garbage,
    dyadic_cell,
    hierarchy_doc,
    node,
)


@pytest.fixture
def golden_files(tmp_path):
    system = tmp_path / "sys.json"
    expert = tmp_path / "exp.json"
    system.write_text(clustering_doc([("A", CLASS_A_MEMBERS)]), encoding="utf-8")
    expert.write_text(clustering_doc([("B", CLASS_B_MEMBERS)]), encoding="utf-8")
    return str(system), str(expert)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """Exit code, stdout and stderr of an argv that argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_evaluate_golden_pair(capsys, golden_files):
    system, expert = golden_files
    code, out, _ = run(capsys, "evaluate", "--system", system, "--expert", expert)
    assert code == 0
    assert "precision=75.00 recall=54.55 f-measure=0.63" in out
    assert "yy=6 yn=2 ny=5" in out


def test_evaluate_self_comparison(capsys, golden_files):
    system, _ = golden_files
    code, out, _ = run(capsys, "evaluate", "--system", system, "--expert", system)
    assert code == 0
    assert "precision=100.00 recall=100.00 f-measure=1.00" in out


def test_evaluate_missing_expert_file(capsys, golden_files):
    system, _ = golden_files
    code, out, err = run(capsys, "evaluate", "--system", system, "--expert", "nope.json")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_evaluate_malformed_document(capsys, tmp_path, golden_files):
    system, _ = golden_files
    bad = tmp_path / "bad.json"
    bad.write_text('{"classes": [{"label": "A", "members": ["x", "x"]}]}', encoding="utf-8")
    code, out, err = run(capsys, "evaluate", "--system", system, "--expert", str(bad))
    assert code == 2
    assert out == ""
    assert "$.classes[0].members[1]" in err


def test_evaluate_bad_threshold_flag(capsys, golden_files):
    system, expert = golden_files
    for raw, reason in (("1.5", "threshold must be in [0, 1], got 1.5"), ("abc", "not a number")):
        code, out, err = usage_error(
            capsys, "evaluate", "--system", system, "--expert", expert, "--threshold", raw
        )
        assert (code, out) == (2, "")
        assert err.startswith("usage: clustereval evaluate")
        assert f"error: argument --threshold: {reason}" in err


def test_table_takes_no_unmapped_column_policy(capsys, golden_files):
    # the policy only shapes evaluation reports, which table does not build
    system, expert = golden_files
    argv = ["--system", system, "--expert", expert, "--unmapped-cols", "leaves"]
    code, out, err = usage_error(capsys, "table", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: clustereval")
    assert "unrecognized arguments: --unmapped-cols leaves" in err
    for command in (["evaluate"], ["sweep", "--thresholds", "0.2"]):
        assert run(capsys, *command, *argv)[0] == 0


IO = ("--system", "SYS", "--expert", "EXP")
# Each argv form a user can give: valid runs, each command's help, usage
# errors a command's own parser reports, and forms the top-level parser
# reports, where argv[0] names no command.
PARSER_FORMS = [
    ("evaluate", *IO, "--trace"),
    ("table", *IO, "--format", "json"),
    ("sweep", *IO, "--thresholds", "0.2,0.5"),
    ("baseline", *IO),
    *[(command, "--help") for command in ("evaluate", "table", "sweep", "baseline")],
    ("evaluate", "--system", "SYS"),
    ("sweep", *IO),
    ("baseline", "--expert", "EXP"),
    ("table", *IO, "--unmapped-cols", "leaves"),
    ("baseline", *IO, "--bogus"),
    ("evaluate", *IO, "--threshold", "1.5"),
    ("table", *IO, "--threshold", "0.1000000000000000000001"),
    ("sweep", *IO, "--thresholds", "0.2,abc"),
    ("sweep", *IO, "--thresholds", ","),
    ("--help",),
    ("-h",),
    (),
    ("evaluat", *IO),
    ("--", "evaluate", *IO),
]


def _outcome(capsys, argv) -> tuple:
    """Exit code, stdout and stderr of ``main``, whether it returns or exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("form", PARSER_FORMS, ids=lambda form: " ".join(form) or "(none)")
def test_one_command_parser_behaves_as_the_full_parser(capsys, monkeypatch, golden_files, form):
    # main gives options only to the command argv[0] names; every outcome,
    # help and usage errors included, is the one the full parser gives
    argv = [{"SYS": golden_files[0], "EXP": golden_files[1]}.get(a, a) for a in form]
    one = _outcome(capsys, argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert _outcome(capsys, argv) == one


def _options(parser) -> dict[str, list[list[str]]]:
    """Each subparser's option strings, by command, in the order added."""
    (sub,) = parser._subparsers._group_actions
    return {name: [a.option_strings for a in p._actions] for name, p in sub.choices.items()}


@pytest.mark.parametrize("command", ["evaluate", "table", "sweep", "baseline"])
def test_build_parser_gives_options_only_to_its_command(command):
    full = _options(cli.build_parser())
    assert list(full) == ["evaluate", "table", "sweep", "baseline"]
    only_help = [["-h", "--help"]]
    expected = {name: opts if name == command else only_help for name, opts in full.items()}
    assert _options(cli.build_parser(command)) == expected
    for other in (None, "evaluat", "--", "-h"):  # no command: every command's options
        assert _options(cli.build_parser(other)) == full


def test_evaluate_json_carries_full_precision(capsys, golden_files):
    system, expert = golden_files
    code, out, _ = run(
        capsys, "evaluate", "--system", system, "--expert", expert, "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    overall = doc["experts"][0]["overall"]
    assert overall["precision"] == 0.75
    assert overall["recall"] == 6 / 11
    assert overall["f_measure"] == 2 * 0.75 * (6 / 11) / (0.75 + 6 / 11)


def test_json_report_reproduces_text_numbers(capsys, tmp_path):
    # fixture with one mapped pair plus unmapped classes on both sides
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(
        clustering_doc([("A", CLASS_A_MEMBERS), ("D", ["qqq", "zzz"])]), encoding="utf-8"
    )
    expert.write_text(
        clustering_doc([("B", CLASS_B_MEMBERS), ("E", ["ppp", "rrr", "sss"])]),
        encoding="utf-8",
    )
    argv = ("evaluate", "--system", str(system), "--expert", str(expert))
    _, text_out, _ = run(capsys, *argv)
    _, json_out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(json_out)["experts"][0]

    for pair in doc["pairs"]:
        assert (
            f"{pair['system_class']} -> {pair['expert_column']}"
            f"  yy={pair['yy']} yn={pair['yn']} ny={pair['ny']}"
            f"  P={100 * pair['precision']:.2f} R={100 * pair['recall']:.2f}"
            f" F={pair['f_measure']:.2f}"
        ) in text_out
    for entry in doc["unmapped_system"]:
        assert f"{entry['label']}({entry['size']})" in text_out
    for entry in doc["unmapped_expert"]:
        assert f"{entry['column']}({entry['size']})" in text_out
    overall = doc["overall"]
    assert f"overall: yy={overall['yy']} yn={overall['yn']} ny={overall['ny']}" in text_out
    assert (
        f"precision={100 * overall['precision']:.2f}"
        f" recall={100 * overall['recall']:.2f}"
        f" f-measure={overall['f_measure']:.2f}"
    ) in text_out
    assert doc["unmapped_system"] and doc["unmapped_expert"]


def test_evaluate_multiple_experts_prints_summary(capsys, tmp_path, golden_files):
    system, expert = golden_files
    second = tmp_path / "exp2.json"
    second.write_text(clustering_doc([("Z", CLASS_A_MEMBERS)]), encoding="utf-8")
    code, out, _ = run(
        capsys, "evaluate", "--system", system, "--expert", expert, "--expert", str(second)
    )
    assert code == 0
    assert "summary:" in out
    assert out.count("evaluation:") == 2
    summary = out[out.index("summary:") :]
    assert "75.38" not in summary  # sanity: numbers come from these inputs
    assert "100.00" in summary and "54.55" in summary


def test_table_golden_pair(capsys, golden_files):
    system, expert = golden_files
    code, out, _ = run(capsys, "table", "--system", system, "--expert", expert)
    assert code == 0
    assert "0.6316" in out
    assert "A -> B  F=0.6316" in out


def test_table_disjoint_vocabularies(capsys, tmp_path):
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(clustering_doc([("A", ["a", "b"]), ("B", ["c"])]), encoding="utf-8")
    expert.write_text(clustering_doc([("X", ["x"]), ("Y", ["y", "z"])]), encoding="utf-8")
    code, out, _ = run(capsys, "table", "--system", str(system), "--expert", str(expert))
    assert code == 0
    assert out.count("0.0000") == 4
    assert "(none)" in out
    assert "unmapped rows: A, B" in out
    assert "unmapped cols: X, Y" in out


def test_table_threshold_zero_leaves_a_zero_overlap_row_unmapped(capsys, tmp_path):
    # S2 shares no word with any column, so even at threshold 0 it stays
    # unmapped while Y and W stay free, and nothing is re-mapped
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(clustering_doc([("S1", ["a", "b"]), ("S2", ["z"])]), encoding="utf-8")
    expert.write_text(
        clustering_doc([("X", ["a", "b"]), ("Y", ["c"]), ("W", ["d"])]), encoding="utf-8"
    )
    code, out, _ = run(
        capsys,
        "table",
        "--system",
        str(system),
        "--expert",
        str(expert),
        "--threshold",
        "0",
        "--trace",
    )
    assert code == 0
    assert out == (
        f"f-table: {system} vs {expert} (2 rows x 3 cols, threshold=0)\n"
        "         X       Y       W\n"
        "S1  1.0000  0.0000  0.0000\n"
        "S2  0.0000  0.0000  0.0000\n"
        "mapping:\n"
        "  S1 -> X  F=1.0000\n"
        "unmapped rows: S2\n"
        "unmapped cols: Y, W\n"
        "trace:\n"
        "  (no re-maps)\n"
    )


def test_evaluate_threshold_zero_prints_as_the_smallest_positive_threshold(capsys, tmp_path):
    # R1 shares no word with any column. R0 scores 0.4 on both X and Y, and
    # R2 holds Y with 0.8. Were R1's zero-F cells eligible, R1 would claim X,
    # R0 would step aside onto Y at no loss and drop out there, and R0's
    # overlap with X would be lost from the overall counts.
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(
        clustering_doc([("R0", ["a", "b"]), ("R1", ["z"]), ("R2", ["y1", "y2"])]),
        encoding="utf-8",
    )
    expert.write_text(
        clustering_doc([("X", ["a", "x1", "x2"]), ("Y", ["b", "y1", "y2"])]), encoding="utf-8"
    )
    argv = ["evaluate", "--trace", "--system", str(system), "--expert", str(expert), "--threshold"]
    code, zero, _ = run(capsys, *argv, "0")
    assert code == 0
    code, tiny, _ = run(capsys, *argv, "5e-324")
    assert code == 0
    assert "config: threshold=0 " in zero
    assert [line for line in zero.splitlines() if not line.startswith("config:")] == [
        line for line in tiny.splitlines() if not line.startswith("config:")
    ]
    assert "  R0 -> X " in zero
    assert "unmapped system classes: R1(1)\noverall: yy=3 yn=2 ny=3\n" in zero
    assert zero.endswith("trace:\n  (no re-maps)\n")


def test_table_maps_a_cell_that_reaches_the_threshold_exactly(capsys, tmp_path):
    # one word against a nine-word column that holds it: F = 2/10 = 0.2
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(clustering_doc([("S", ["x"])]), encoding="utf-8")
    expert.write_text(
        clustering_doc([("C", ["x", *(f"c{i}" for i in range(8))])]), encoding="utf-8"
    )
    code, out, _ = run(
        capsys, "table", "--system", str(system), "--expert", str(expert), "--threshold", "0.2"
    )
    assert code == 0
    assert "  S -> C  F=0.2000\n" in out
    assert "unmapped rows" not in out


def test_negative_zero_threshold_echoes_as_zero(capsys, golden_files):
    system, expert = golden_files
    argv = ["--system", system, "--expert", expert]
    _, text, _ = run(capsys, "evaluate", *argv, "--threshold", "-0")
    assert "config: threshold=0 " in text
    _, doc, _ = run(capsys, "table", *argv, "--threshold", "-0", "--format", "json")
    assert '"threshold": 0.0,' in doc
    _, sweep, _ = run(capsys, "sweep", *argv, "--thresholds", "0.2,-0")
    assert [row.split(",")[1] for row in sweep.splitlines()[1:]] == ["0.2", "0.0"]


@pytest.fixture
def five_sixths_files(tmp_path):
    """A five-word system class inside a seven-word expert column: F = 5/6,
    whose double, printed 0.8333333333333334, lies above 5/6."""
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(clustering_doc([("s", list("abcde"))]), encoding="utf-8")
    expert.write_text(clustering_doc([("e", list("abcdefg"))]), encoding="utf-8")
    return ["--system", str(system), "--expert", str(expert)]


@pytest.mark.parametrize("raw, mapped", [("0.8333333333333334", 0), ("0.8333333333333333", 1)])
def test_commands_agree_on_the_exact_threshold(capsys, five_sixths_files, raw, mapped):
    # 5/6 < 0.8333333333333334 although F's double prints as that decimal,
    # and 5/6 > 0.8333333333333333: every command decides both exactly.
    io_args = five_sixths_files
    code, out, _ = run(capsys, "evaluate", *io_args, "--threshold", raw)
    assert code == 0
    assert f"config: threshold={raw} " in out
    assert f"mapped pairs ({mapped}):" in out
    _, out, _ = run(capsys, "evaluate", *io_args, "--threshold", raw, "--format", "json")
    doc = json.loads(out)["experts"][0]
    assert (doc["config"]["threshold"], len(doc["pairs"])) == (float(raw), mapped)
    code, out, _ = run(capsys, "table", *io_args, "--threshold", raw)
    assert code == 0
    assert f"(1 rows x 1 cols, threshold={raw})" in out
    assert ("  s -> e  F=0.8333\n" in out) == bool(mapped)
    code, out, _ = run(capsys, "sweep", *io_args, "--thresholds", raw)
    assert code == 0
    assert out.splitlines()[1].split(",")[1:3] == [raw, str(mapped)]


@pytest.mark.parametrize(
    "raw, nearest",
    [
        ("0.66666666666666667", "0.6666666666666666"),
        ("1.00000000000000001", "1.0"),
        ("1e-999999999", "0.0"),
        # past the 4,300 digits that int() reads: an exponent too long to
        # matter, and more significant digits than any double's repr
        pytest.param("1e-" + "9" * 5000, "0.0", id="5000-digit-exponent"),
        pytest.param("0." + "1" * 5000, "0.1111111111111111", id="5000-significant-digits"),
    ],
)
def test_threshold_that_no_double_holds_is_a_usage_error(capsys, golden_files, raw, nearest):
    # Each parses to a double in [0, 1] whose own decimal differs from the
    # typed one; 1e-999999999 is judged without computing 10**999999999.
    reason = f"no double holds {raw} exactly; the nearest is {nearest}"
    assert_threshold_refused(capsys, golden_files, raw, reason)


def assert_threshold_refused(capsys, golden_files, raw, reason):
    """Every command that takes a threshold exits 2 on ``raw`` and names the reason."""
    system, expert = golden_files
    for flag, value, command in (
        ("--threshold", raw, "evaluate"),
        ("--threshold", raw, "table"),
        ("--thresholds", f"0.2,{raw}", "sweep"),
    ):
        argv = [command, "--system", system, "--expert", expert, flag, value]
        code, out, err = usage_error(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"error: argument {flag}: {reason}" in err


@pytest.mark.parametrize(
    "raw",
    [
        "\u0660.\u0662\u0660",  # Arabic-Indic digits
        "\uff10.\uff12\uff10",  # fullwidth digits
        "\u0660.\u0662",
        "\uff10.\uff12",
        "\u0660",
    ],
    ids=["arabic-indic-0.20", "fullwidth-0.20", "arabic-indic-0.2", "fullwidth-0.2", "arabic-0"],
)
def test_threshold_not_written_in_ascii_is_a_usage_error(capsys, golden_files, raw):
    # float() reads the digits of any script, but a threshold's decimal is
    # read from ASCII only, so every such spelling is refused, not just some.
    reason = f"threshold must be written in ASCII, got {raw!r}"
    assert_threshold_refused(capsys, golden_files, raw, reason)


@pytest.mark.parametrize(
    "raw, echo",
    [
        ("+.2", "0.2"),
        ("0.20", "0.2"),
        ("2e-1", "0.2"),
        ("0.2_0", "0.2"),
        pytest.param("\u00a00.2\u3000", "0.2", id="non-ascii-space-around"),
        # zeros past the 4,300 digits that int() reads
        pytest.param("0." + "0" * 5000, "0", id="0.-then-5000-zeros"),
        pytest.param("0.2" + "0" * 5000, "0.2", id="0.2-then-5000-zeros"),
    ],
)
def test_threshold_spellings_of_a_double_are_accepted(capsys, golden_files, raw, echo):
    # -0 is test_negative_zero_threshold_echoes_as_zero's case.
    system, expert = golden_files
    argv = ["--system", system, "--expert", expert]
    code, out, _ = run(capsys, "evaluate", *argv, "--threshold", raw)
    assert code == 0
    assert f"config: threshold={echo} " in out
    code, out, _ = run(capsys, "sweep", *argv, "--thresholds", raw)
    assert (code, out.splitlines()[1].split(",")[1]) == (0, str(float(echo)))


def test_text_echo_shows_the_threshold_in_full(capsys, golden_files):
    # The shortest round-trip decimal without a trailing ".0", also past six
    # significant digits and for a subnormal threshold.
    system, expert = golden_files
    argv = ["--system", system, "--expert", expert, "--threshold"]
    for echo in ("1", "0.25", "1e-05", "0.1234567", "0.8333333333333333", "5e-324"):
        _, out, _ = run(capsys, "evaluate", *argv, echo)
        assert f"config: threshold={echo} " in out
        _, out, _ = run(capsys, "table", *argv, echo)
        assert f"cols, threshold={echo})\n" in out


def test_input_errors_name_the_file(capsys, tmp_path, golden_files):
    system, expert = golden_files
    bad = tmp_path / "bad.json"
    bad.write_text('{"classes": [{"label": "A", "members": ["a", "a"]}]}', encoding="utf-8")
    argv = ["--system", system, "--expert", expert, "--expert", str(bad)]
    code, out, err = run(capsys, "evaluate", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: $.classes[0].members[1]: duplicate member 'a'\n"
    code, _, err = run(capsys, "baseline", "--system", str(bad), "--expert", expert)
    assert code == 2
    assert err.startswith(f"error: {bad}: $.classes[0].members[1]: ")


@pytest.mark.parametrize("command", ["evaluate", "baseline"])
def test_non_utf8_file_is_an_input_error_that_names_it(capsys, tmp_path, golden_files, command):
    system, _ = golden_files
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"classes": [{"label": "B", "members": ["caf\u00e9"]}]}'.encode("latin-1"))
    code, out, err = run(capsys, command, "--system", system, "--expert", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xe9")


def test_slash_in_expert_label_is_an_input_error(capsys, tmp_path):
    # "A/B" next to A -> B would print two different columns as "A/B"
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(clustering_doc([("S/1", ["a"]), ("S2", ["b"])]), encoding="utf-8")
    expert.write_text(
        hierarchy_doc([node("A/B", ["a"]), node("A", ["c"], children=[node("B", ["b"])])]),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "table", "--system", str(system), "--expert", str(expert))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {expert}: $.classes[0].label: ")
    assert "'/'" in err
    # system labels and both baseline files may still contain "/"
    gold = tmp_path / "gold.json"
    gold.write_text(clustering_doc([("X", ["a"]), ("Y", ["b"])]), encoding="utf-8")
    code, out, _ = run(capsys, "table", "--system", str(system), "--expert", str(gold))
    assert code == 0
    assert "S/1 -> X" in out
    flat = tmp_path / "flat.json"
    flat.write_text(clustering_doc([("X/1", ["a"]), ("Y", ["b"])]), encoding="utf-8")
    code, _, _ = run(capsys, "baseline", "--system", str(system), "--expert", str(flat))
    assert code == 0


@pytest.fixture
def conflict_files(tmp_path):
    # S1 and S2 both prefer X; S2 steps down to Y at a loss of
    # F(S2,X) - F(S2,Y) = 0.8 - 0.4 = 0.4
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(
        clustering_doc([("S1", ["a", "b"]), ("S2", ["a", "b", "c"])]), encoding="utf-8"
    )
    expert.write_text(
        clustering_doc([("X", ["a", "b"]), ("Y", ["c", "d"])]), encoding="utf-8"
    )
    return str(system), str(expert)


def test_table_trace_shows_remap_event(capsys, conflict_files):
    system, expert = conflict_files
    code, out, _ = run(capsys, "table", "--system", system, "--expert", expert, "--trace")
    assert code == 0
    assert "S2 -> Y  F=0.4000  (re-mapped)" in out
    assert "S2: X -> Y  loss=0.4000" in out


def test_table_without_trace_flag_omits_events(capsys, conflict_files):
    system, expert = conflict_files
    _, out, _ = run(capsys, "table", "--system", system, "--expert", expert)
    assert "loss=" not in out
    assert "(re-mapped)" in out


def test_table_json_format_with_trace(capsys, conflict_files):
    system, expert = conflict_files
    code, out, _ = run(
        capsys, "table", "--system", system, "--expert", expert, "--format", "json", "--trace"
    )
    assert code == 0
    doc = json.loads(out)["experts"][0]
    assert doc["rows"] == ["S1", "S2"]
    assert doc["columns"] == ["X", "Y"]
    assert doc["cells"][0][0] == 1.0
    assert doc["mapping"]["pairs"] == [
        {"system_class": "S1", "expert_column": "X", "f_measure": 1.0},
        {"system_class": "S2", "expert_column": "Y", "f_measure": doc["cells"][1][1]},
    ]
    assert doc["trace"] == [
        {
            "system_class": "S2",
            "from_column": "X",
            "to_column": "Y",
            "loss": doc["cells"][1][0] - doc["cells"][1][1],
        }
    ]


def _per_cell_table_body(table):
    """The table's body lines with every cell, zeros included, formatted on
    its own: the oracle for render_table_text, which formats each column's
    zero cell once."""
    widths = [max(len("/".join(path)), 6) for path in table.col_paths]
    row_width = max(map(len, table.row_labels))
    return [
        f"{label:<{row_width}}  " + "  ".join(f"{f:.4f}".rjust(w) for f, w in zip(row, widths))
        for label, row in zip(table.row_labels, table.cells)
    ]


@pytest.mark.parametrize("seed", range(20))
def test_table_text_body_matches_per_cell_rendering(seed):
    rng = random.Random(seed)
    n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 12)
    # F values that print as 0.0000 or 1.0000 next to ordinary ones
    values = (0.00004, 0.00005, 0.25, 1 / 3, 0.99996, 1.0, rng.random())
    rows = []
    for _ in range(n_rows):
        columns = rng.sample(range(n_cols), rng.randint(0, n_cols))
        cells = [dyadic_cell(c, rng.choice(values)) for c in columns]
        rows.append(tuple(sorted(cells, key=lambda cell: (-cell[1], cell[0]))))
    table = FTable(
        tuple("R" * rng.randint(1, 10) + str(i) for i in range(n_rows)),
        tuple(("C" * rng.randint(1, 10), str(j))[: rng.randint(1, 2)] for j in range(n_cols)),
        tuple(rows),
    )
    lines = cli.render_table_text("s", "e", table, resolve_conflicts(table, 0.2)).splitlines()
    assert lines[2 : 2 + n_rows] == _per_cell_table_body(table)
    assert lines[2 + n_rows] == "mapping:"


def test_evaluate_json_trace_records_drop_outs(capsys, tmp_path):
    # both system classes fight over the only expert column; the loser
    # has nowhere to go and lands in the unmapped list
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(
        clustering_doc([("S1", ["a", "b"]), ("S2", ["a", "b", "c", "d", "e"])]),
        encoding="utf-8",
    )
    expert.write_text(clustering_doc([("X", ["a", "b"])]), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "evaluate",
        "--system",
        str(system),
        "--expert",
        str(expert),
        "--format",
        "json",
        "--trace",
    )
    assert code == 0
    doc = json.loads(out)["experts"][0]
    assert doc["trace"] == [
        {"system_class": "S2", "from_column": "X", "to_column": None, "loss": doc["trace"][0]["loss"]}
    ]
    assert doc["unmapped_system"] == [{"label": "S2", "size": 5}]


def test_sweep_header_and_self_comparison(capsys, golden_files):
    system, _ = golden_files
    code, out, _ = run(
        capsys, "sweep", "--system", system, "--expert", system, "--thresholds", "0.0"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "expert,threshold,mapped_pairs,precision,recall,f_measure"
    assert lines[1] == f"{system},0.0,1,1.0,1.0,1.0"


def test_sweep_threshold_one_with_no_perfect_pair(capsys, golden_files):
    system, expert = golden_files
    code, out, _ = run(
        capsys, "sweep", "--system", system, "--expert", expert, "--thresholds", "1.0"
    )
    assert code == 0
    assert out.splitlines()[1] == f"{expert},1.0,0,0.0,0.0,0.0"


@pytest.mark.parametrize("threshold", ["0", "0.2", "0.62", "1.0"])
@pytest.mark.parametrize("flatten", model.FLATTEN_MODES)
@pytest.mark.parametrize("policy", UNMAPPED_POLICIES)
def test_sweep_matches_evaluate_at_same_threshold(
    capsys, tmp_path, golden_files, policy, flatten, threshold
):
    system, expert = golden_files
    # beside the flat golden expert, a tree that repeats cat and dog
    tree = tmp_path / "tree.json"
    pet = node("PET", ["cat", "dog", "hair"])
    wild = node("WILD", ["dog", "wolf"], children=[node("CUB", ["pig", "stomach"])])
    tree.write_text(
        hierarchy_doc([node("B", CLASS_B_MEMBERS, children=[pet, wild]), node("E", ["x", "cat"])]),
        encoding="utf-8",
    )
    options = ["--system", system, "--expert", expert, "--expert", str(tree)]
    options += ["--flatten", flatten, "--unmapped-cols", policy]
    _, json_out, _ = run(capsys, "evaluate", *options, "--threshold", threshold, "--format", "json")
    docs = json.loads(json_out)["experts"]
    _, csv_out, _ = run(capsys, "sweep", *options, "--thresholds", threshold)
    rows = list(csv.reader(io.StringIO(csv_out)))[1:]
    assert len(rows) == len(docs) == 2
    for (path, _, mapped, p, r, f), doc in zip(rows, docs):
        overall = doc["overall"]
        assert path == doc["expert"]
        assert int(mapped) == len(doc["pairs"])
        assert float(p) == overall["precision"]
        assert float(r) == overall["recall"]
        assert float(f) == overall["f_measure"]


def test_sweep_quotes_expert_paths(capsys, tmp_path, golden_files):
    system, _ = golden_files
    expert = tmp_path / 'a,"b".json'
    expert.write_text(clustering_doc([("B", CLASS_B_MEMBERS)]), encoding="utf-8")
    code, out, _ = run(
        capsys, "sweep", "--system", system, "--expert", str(expert), "--thresholds", "0.2"
    )
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert len(header) == len(row) == 6
    assert row[0] == str(expert)


def test_sweep_rejects_empty_threshold_list(golden_files):
    system, expert = golden_files
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--system", system, "--expert", expert, "--thresholds", ","])
    assert exc.value.code == 2


def test_baseline_identical_partitions(capsys, tmp_path):
    f = tmp_path / "p.json"
    f.write_text(clustering_doc([("X", ["a", "b"]), ("Y", ["c"])]), encoding="utf-8")
    code, out, _ = run(capsys, "baseline", "--system", str(f), "--expert", str(f))
    assert code == 0
    assert "system pairs=1 expert pairs=1" in out
    assert "contingency: yy=1 yn=0 ny=0" in out
    assert "f-measure=1.00" in out
    assert "warning" not in out


def test_baseline_merged_class(capsys, tmp_path):
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(clustering_doc([("X", ["a", "b", "c"])]), encoding="utf-8")
    expert.write_text(clustering_doc([("P", ["a", "b"]), ("Q", ["c"])]), encoding="utf-8")
    code, out, _ = run(capsys, "baseline", "--system", str(system), "--expert", str(expert))
    assert code == 0
    assert "system pairs=3 expert pairs=1" in out
    assert "contingency: yy=1 yn=2 ny=0" in out
    assert "precision=33.33 recall=100.00" in out


def test_baseline_warns_on_overlapping_input(capsys, tmp_path):
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(
        clustering_doc([("X", ["a", "b"]), ("Y", ["b", "c"])]), encoding="utf-8"
    )
    expert.write_text(clustering_doc([("P", ["a", "b", "c"])]), encoding="utf-8")
    code, out, _ = run(capsys, "baseline", "--system", str(system), "--expert", str(expert))
    assert code == 0
    assert "system pairs=2 expert pairs=3" in out
    assert "not a partition" in out


@pytest.mark.parametrize("overlap", [False, True], ids=["partitions", "overlapping"])
def test_baseline_tests_each_side_for_a_partition_once(capsys, monkeypatch, tmp_path, overlap):
    # pair_baseline and the warnings both ask; the parse has decided for each
    # side, so neither counts its incidences to decide again
    system = tmp_path / "s.json"
    system.write_text(
        clustering_doc([("X", ["a", "b"]), ("Y", ["b" if overlap else "c"])]), encoding="utf-8"
    )
    calls = []
    real = model.Clustering.total_incidences
    monkeypatch.setattr(
        model.Clustering, "total_incidences", lambda self: calls.append(1) or real(self)
    )
    code, out, _ = run(capsys, "baseline", "--system", str(system), "--expert", str(system))
    assert code == 0
    assert out.count("not a partition") == (2 if overlap else 0)
    assert len(calls) == 0


def test_baseline_rejects_hierarchy_expert(capsys, tmp_path, golden_files):
    system, _ = golden_files
    expert = tmp_path / "h.json"
    expert.write_text(
        hierarchy_doc([node("T", ["a"], children=[node("U", ["b"])])]), encoding="utf-8"
    )
    code, out, err = run(capsys, "baseline", "--system", system, "--expert", str(expert))
    assert code == 2
    assert out == ""
    assert "children" in err


@pytest.mark.parametrize("depth", [100, 101, 3000], ids=["100", "101", "3000"])
def test_deeply_nested_hierarchy(capsys, tmp_path, golden_files, depth):
    # One rule on every Python and under a deep caller stack: 100 levels
    # pass, and the first node below level 100 exits 2 at its JSON path.
    # At 3,000 levels the JSON decoder may refuse the document first, at
    # "$": that of 3.10, 3.11 and 3.12.1 does, that of 3.13.0 does not.
    system, _ = golden_files
    expert = tmp_path / "deep.json"
    expert.write_text(chain_doc(depth), encoding="utf-8")
    argv = ("evaluate", "--system", system, "--expert", str(expert))
    code, out, err = beneath_frames(run, capsys, *argv)
    if depth == 100:
        assert (code, err) == (0, "")
        assert out.startswith("evaluation: ")
        return
    too_deep = f"error: {expert}: $.classes[0]{'.children[0]' * 100}: "
    too_deep += "hierarchy is nested deeper than 100 levels\n"
    assert code == 2
    assert out == ""
    if depth == 101:
        assert err == too_deep
    else:
        assert err in (too_deep, f"error: {expert}: $: document is nested too deeply\n")


@pytest.mark.parametrize(
    "side, document, location, reason",
    [
        (
            "system",
            '{"classes": [{"label": "A", "members": "cat"}]}',
            "$.classes[0].members",
            "members must be an array of strings",
        ),
        (
            "system",
            '{"name": 7, "classes": [{"label": "A", "members": ["cat"]}]}',
            "$.name",
            "name must be a string",
        ),
        ("system", '{"classes": ["A"]}', "$.classes[0]", "class must be an object"),
        (
            "expert",
            '{"classes": [{"label": "A", "children": [7]}]}',
            "$.classes[0].children[0]",
            "node must be an object",
        ),
        (
            "expert",
            '{"classes": [{"label": "A", "members": ["cat"], "children": {}}]}',
            "$.classes[0].children",
            "children must be an array",
        ),
    ],
    ids=["members", "name", "class", "node", "children"],
)
def test_invalid_document_is_an_input_error_at_its_path(
    capsys, tmp_path, golden_files, side, document, location, reason
):
    system, expert = golden_files
    bad = tmp_path / "bad.json"
    bad.write_text(document, encoding="utf-8")
    if side == "system":
        system = str(bad)
    else:
        expert = str(bad)
    code, out, err = run(capsys, "evaluate", "--system", system, "--expert", expert)
    assert (code, out, err) == (2, "", f"error: {bad}: {location}: {reason}\n")


@pytest.mark.parametrize("command", ["evaluate", "baseline"])
def test_duplicate_after_an_overlap_is_an_input_error_at_its_path(
    capsys, tmp_path, golden_files, command
):
    # once a list repeats an earlier list's word the parse drops its running
    # word set, and each later list is checked alone, at its own path
    _, expert = golden_files
    bad = tmp_path / "bad.json"
    bad.write_text(
        clustering_doc([("A", ["a", "b"]), ("B", ["b", "c"]), ("C", ["d", "e", "d"])]),
        encoding="utf-8",
    )
    code, out, err = run(capsys, command, "--system", str(bad), "--expert", expert)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: $.classes[2].members[2]: duplicate member 'd'\n"


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch, golden_files):
    def fail(*_):
        raise RuntimeError("planted fault")

    system, expert = golden_files
    monkeypatch.setattr(cli, "build_f_table", fail)
    code, out, err = run(capsys, "evaluate", "--system", system, "--expert", expert)
    assert (code, out, err) == (1, "", "internal error: planted fault\n")


@pytest.mark.parametrize("side", ["system", "expert", "baseline"])
def test_overlong_integer_literal_is_an_input_error(capsys, tmp_path, golden_files, side):
    # json.loads refuses to convert more than 4,300 digits to an int; where
    # there is no such limit, the document fails validation instead
    system, expert = golden_files
    bad = tmp_path / "long.json"
    bad.write_text('{"name": ' + "7" * 5000 + ', "classes": []}', encoding="utf-8")
    if side == "system":
        argv = ["evaluate", "--system", str(bad), "--expert", expert]
    elif side == "expert":
        argv = ["evaluate", "--system", system, "--expert", str(bad)]
    else:
        argv = ["baseline", "--system", system, "--expert", str(bad)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: $")


@pytest.mark.parametrize(
    "command, side, location",
    [
        ("evaluate", "system", "$.classes[0].label"),
        ("evaluate", "expert", "$.classes[0].members[1]"),
        ("baseline", "system", "$.classes[0].label"),
    ],
)
def test_lone_surrogate_is_an_input_error(capsys, tmp_path, golden_files, command, side, location):
    # "\ud800" is valid JSON but no UTF-8 text: it would crash text output
    system, expert = golden_files
    bad = tmp_path / "surrogate.json"
    if side == "system":
        bad.write_text(clustering_doc([("A\ud800", ["cat"])]), encoding="utf-8")
        argv = [command, "--system", str(bad), "--expert", expert]
    else:
        bad.write_text(clustering_doc([("B", ["cat", "dog\ud800"])]), encoding="utf-8")
        argv = [command, "--system", system, "--expert", str(bad)]
    for extra in ([], ["--format", "json"]) if command == "evaluate" else ([],):
        code, out, err = run(capsys, *argv, *extra)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad}: {location}: ")


def test_output_is_deterministic(capsys, golden_files):
    system, expert = golden_files
    argv = ["evaluate", "--system", system, "--expert", expert, "--trace"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_flatten_and_policy_flags_are_honored(capsys, tmp_path):
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(clustering_doc([("S", ["zzz"])]), encoding="utf-8")
    expert.write_text(
        hierarchy_doc([node("ANIMAL", ["cat", "horse"], children=[node("PET", ["dog"])])]),
        encoding="utf-8",
    )
    _, all_cols, _ = run(capsys, "evaluate", "--system", str(system), "--expert", str(expert))
    assert "overall: yy=0 yn=1 ny=4" in all_cols
    _, leaves, _ = run(
        capsys,
        "evaluate",
        "--system",
        str(system),
        "--expert",
        str(expert),
        "--unmapped-cols",
        "leaves",
    )
    assert "overall: yy=0 yn=1 ny=1" in leaves
    _, own_only, _ = run(
        capsys,
        "evaluate",
        "--system",
        str(system),
        "--expert",
        str(expert),
        "--flatten",
        "own-only",
    )
    assert "overall: yy=0 yn=1 ny=3" in own_only


def test_no_command_builds_an_inherited_word_set(capsys, tmp_path, monkeypatch):
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(
        clustering_doc([("S1", ["a", "b", "c", "d", "e"]), ("S2", ["c", "d"]), ("S3", ["e"])]),
        encoding="utf-8",
    )
    tree = node("A", ["a", "b"], [node("B", ["c"], [node("C", ["d"])]), node("D", ["e", "f"])])
    expert.write_text(hierarchy_doc([tree]), encoding="utf-8")
    io_args = ("--system", str(system), "--expert", str(expert))
    commands = [
        ("evaluate",),
        ("evaluate", "--format", "json"),
        ("evaluate", "--trace"),
        ("table", "--trace"),
        ("sweep", "--thresholds", "0,0.2,0.5"),
    ]
    expected = [run(capsys, *command, *io_args) for command in commands]
    assert [code for code, _, _ in expected] == [0] * len(commands)

    def members(column):
        pytest.fail(f"column {column.path} built its inherited word set")

    monkeypatch.setattr(model.Column, "members", property(members))
    assert [run(capsys, *command, *io_args) for command in commands] == expected


@pytest.mark.parametrize(
    "command",
    [
        ("evaluate", "--trace"),
        ("evaluate", "--trace", "--unmapped-cols", "leaves"),
        ("table", "--trace"),
        ("sweep", "--thresholds", "0,0.2,0.5"),
        ("baseline",),
        ("evaluate", "--trace", "--format", "json"),
        ("table", "--format", "json"),
    ],
    ids=" ".join,
)
def test_commands_leave_no_cyclic_garbage(capsys, tmp_path, command):
    # cli.main pauses the collector for the command, so the parsed trees,
    # columns and tables must be freed by reference counting alone. The
    # parser is cyclic and is built first; a JSON report is written from
    # strings and adds no cycle either.
    system = tmp_path / "s.json"
    expert = tmp_path / "e.json"
    system.write_text(
        clustering_doc([("S1", ["a", "b", "c"]), ("S2", ["d", "e"]), ("S3", ["zzz"])]),
        encoding="utf-8",
    )
    tree = node("A", ["a"], [node("B", ["b", "c"], [node("C", ["d"])]), node("D", ["e", "f"])])
    expert.write_text(hierarchy_doc([tree, node("E", ["g"])]), encoding="utf-8")
    if command[0] == "baseline":
        expert = system
    argv = [*command, "--system", str(system), "--expert", str(expert)]
    args = cli.build_parser().parse_args(argv)
    out = args.func(args)  # a first run, so that one-time set-up is not counted
    assert isinstance(out, str) and out
    again: list[str] = []
    garbage = cyclic_garbage(lambda: again.append(args.func(args)))
    assert again == [out]
    assert capsys.readouterr().out == ""  # a command returns its report; only main writes it
    assert garbage == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_leaves_the_collector_as_it_found_it(
    capsys, monkeypatch, tmp_path, golden_files, enabled
):
    system, expert = golden_files
    bad = tmp_path / "bad.json"
    bad.write_text("[]", encoding="utf-8")
    during = []

    def fail(*_):
        during.append(gc.isenabled())
        raise RuntimeError("planted fault")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run(capsys, "evaluate", "--system", system, "--expert", expert)[0] == 0
        assert gc.isenabled() == enabled
        assert run(capsys, "evaluate", "--system", system, "--expert", str(bad))[0] == 2
        assert gc.isenabled() == enabled
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_f_table", fail)
            assert run(capsys, "evaluate", "--system", system, "--expert", expert)[0] == 1
        assert gc.isenabled() == enabled
        assert during == [False]  # the command itself ran with the collector paused
    finally:
        (gc.enable if was else gc.disable)()


# The one writer: main encodes each report once as UTF-8 and writes the bytes,
# so the locale's encoding, which PYTHONIOENCODING overrides, is no input.
ENCODINGS = ("ascii", "latin-1", "utf-16", "utf-8:strict")
WRITER_COMMANDS = [
    ("evaluate",),
    ("evaluate", "--format", "json", "--trace"),
    ("table", "--trace"),
    ("sweep", "--thresholds", "0.2,0.5"),
    ("baseline",),
]


@pytest.fixture
def non_ascii_files(tmp_path):
    """A system with a class labelled é and a hierarchy with a label outside
    the BMP, in a directory whose name is not ASCII either."""
    home = tmp_path / "Ω-𝔸"
    home.mkdir()
    system = home / "s.json"
    tree = home / "tree.json"
    system.write_text(clustering_doc([("é", ["a", "b", "c"]), ("S2", ["d", "e"])]), "utf-8")
    tree.write_text(
        hierarchy_doc([node("𝔸", ["a"], [node("B", ["b", "c"])]), node("D", ["d"])]), "utf-8"
    )
    return system, tree


def _writer_argv(command, files) -> list[str]:
    system, tree = files
    expert = system if command[0] == "baseline" else tree  # baseline takes flat inputs only
    return [*command, "--system", str(system), "--expert", str(expert)]


def _run_child(argv, encoding: str) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONIOENCODING": encoding}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "clustereval", *argv]
    return subprocess.run(command, env=env, capture_output=True)


@pytest.mark.parametrize("command", WRITER_COMMANDS, ids=" ".join)
def test_stdout_is_utf8_on_every_encoding(non_ascii_files, command):
    argv = _writer_argv(command, non_ascii_files)
    outputs = set()
    for encoding in ENCODINGS:
        proc = _run_child(argv, encoding)
        assert proc.returncode == 0, (encoding, proc.stderr)
        outputs.add(proc.stdout)
    (out,) = outputs
    text = out.decode("utf-8")
    if "json" in command:  # JSON reports escape every non-ASCII character
        text = json.dumps(json.loads(text), ensure_ascii=False)
    assert "Ω-𝔸" in text
    assert ("é" in text) == (command[0] in ("evaluate", "table"))


def test_sweep_echoes_an_undecodable_path_byte(non_ascii_files, tmp_path):
    system, tree = non_ascii_files
    odd = tmp_path / os.fsdecode(b"tree\xff.json")
    try:
        odd.write_bytes(tree.read_bytes())
    except (OSError, UnicodeEncodeError):
        pytest.skip("the file system refuses the name")
    argv = [b"sweep", b"--thresholds", b"0.2", b"--system", os.fsencode(system), b"--expert"]
    proc = _run_child([*argv, os.fsencode(odd)], "utf-8:strict")
    assert proc.returncode == 0, proc.stderr
    assert b"tree\xff.json," in proc.stdout


@pytest.mark.parametrize("command", WRITER_COMMANDS, ids=" ".join)
def test_main_writes_the_report_to_a_text_only_stdout(capsys, non_ascii_files, command):
    # An io.StringIO has no byte buffer, so main writes the text itself.
    argv = _writer_argv(command, non_ascii_files)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    sink = io.StringIO()
    with redirect_stdout(sink):
        assert main(argv) == 0
    assert sink.getvalue() == out
