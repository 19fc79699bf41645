import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from escapemaps import escape_point_with_incidence, format_rational
from escapemaps.cli import main
from escapemaps.corpus import corpus_path

F = Fraction

FOUR = str(corpus_path("four_interval"))
REACHING = str(corpus_path("four_interval_reaching"))
FULL2 = str(corpus_path("full_two_interval"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# -- validate ------------------------------------------------------------


def test_validate_passes_on_the_corpus(capsys):
    code, data, _ = run_json(capsys, "validate", FOUR)
    assert code == 0
    assert data["all_ok"] is True and data["p5_ok"] is True
    assert data["aperiodicity_exponent"] == 5
    code, data, _ = run_json(capsys, "validate", REACHING)
    assert code == 0
    assert data["all_ok"] is True and data["p5_ok"] is False


def test_validate_fails_on_a_bad_map(capsys, tmp_path):
    bad = tmp_path / "swap.json"
    bad.write_text(
        json.dumps(
            {
                "markov_intervals": [["0", "1/2"], ["1/2", "1"]],
                "branches": [
                    {"slope": "1", "intercept": "1/2"},
                    {"slope": "1", "intercept": "-1/2"},
                ],
            }
        )
    )
    code, data, _ = run_json(capsys, "validate", str(bad))
    assert code == 1
    assert data["all_ok"] is False
    assert data["p3_ok"] is False and data["p4_ok"] is False


def test_validate_malformed_input_is_exit_two(capsys, tmp_path):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, out, err = run_cli(capsys, "validate", str(garbled))
    assert code == 2 and out == "" and err.startswith("error:")
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err


# -- matrices ------------------------------------------------------------


def test_matrices_reports_the_claim_mismatch(capsys):
    code, data, _ = run_json(capsys, "matrices", FOUR)
    assert code == 0
    assert data["symbols"] == ["1", "2", "2^", "3", "4"]
    assert data["markov"] == [[0, 1, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 0]]
    assert data["escape_block"] == [[1], [0], [0], [0]]
    assert data["gap_positions"] == [2]
    assert data["escape_matrix"][4] == [0, 0, 0, 1, 0]
    assert data["claim_matches"] is False
    assert len(data["claim_notes"]) == 1 and "(4, 2^)" in data["claim_notes"][0]


def test_matrices_claim_matches_on_the_reaching_variant(capsys):
    code, data, _ = run_json(capsys, "matrices", REACHING)
    assert code == 0
    assert data["claim_matches"] is True and data["claim_notes"] == []
    assert data["escape_matrix"][4] == [0, 0, 1, 1, 0]


def test_matrices_block_form_and_silent_without_claim(capsys):
    code, data, _ = run_json(capsys, "matrices", FULL2)
    assert code == 0
    assert "claim_matches" not in data and "claim_notes" not in data
    code, data, _ = run_json(capsys, "matrices", "--block", FOUR)
    assert code == 0
    block = data["block_form"]
    assert block["permutation"] == [0, 1, 3, 4, 2]
    assert block["markov"] == data["markov"]
    assert block["escape_block"] == data["escape_block"]


def test_matrices_output_round_trips_canonically(capsys):
    code, data, _ = run_json(capsys, "matrices", FOUR)
    assert code == 0
    canonical = json.dumps(data["markov"], sort_keys=True)
    assert canonical == json.dumps(json.loads(canonical), sort_keys=True)


# -- graph ---------------------------------------------------------------


def test_graph_writes_dot_and_reports_primitivity(capsys, tmp_path):
    dot_file = tmp_path / "graph.dot"
    code, data, _ = run_json(capsys, "graph", "--dot", str(dot_file), FOUR)
    assert code == 0
    assert data["vertices"] == 4
    assert data["primitive"] is True
    assert data["aperiodicity_exponent"] == 5
    assert data["wielandt_bound"] == 10
    text = dot_file.read_text()
    assert text.startswith("digraph transitions {")
    assert "  3 -> 1;" in text


def test_graph_unwritable_target_is_exit_one(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "graph.dot"
    code, out, err = run_cli(capsys, "graph", "--dot", str(target), FOUR)
    assert code == 1 and "cannot write" in err


# -- point ---------------------------------------------------------------


def test_point_escape_with_itinerary(capsys):
    code, data, _ = run_json(capsys, "point", "--x", "1/10", FOUR)
    assert code == 0
    assert data["class"] == "escaped"
    assert data["escape_time"] == 1
    assert data["final_point"] == "11/20"
    assert data["incidence"] == [1, 0, 0, 0]
    assert data["itinerary"] == ["1", "2^"]


def test_point_regular_and_boundary(capsys):
    code, data, _ = run_json(capsys, "point", "--x", "5/27", FOUR)
    assert code == 0
    assert data["class"] == "undetermined-regular" and data["period"] == 2
    assert "itinerary" not in data
    code, data, _ = run_json(capsys, "point", "--x", "0", FOUR)
    assert code == 0
    assert data["class"] == "boundary-orbit" and data["hit_step"] == 0


def test_point_bad_inputs(capsys):
    code, _, err = run_cli(capsys, "point", "--x", "1/0", FOUR)
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "point", "--x", "3", FOUR)
    assert code == 1 and "ambient" in err


# -- tree ----------------------------------------------------------------


def test_tree_json_and_dot(capsys):
    code, data, _ = run_json(capsys, "tree", "--x", "1/2", "--depth", "3", FOUR)
    assert code == 0
    assert data["node_count"] == 5
    assert data["root"] == "1/2"
    code, out, _ = run_cli(
        capsys, "tree", "--x", "1/2", "--depth", "3", "--dot", FOUR
    )
    assert code == 0
    assert out.startswith("digraph window {")


def test_tree_default_depth_is_six(capsys):
    code, data, _ = run_json(capsys, "tree", "--x", "1/2", FOUR)
    assert code == 0
    assert data["max_depth"] == 6 and data["node_count"] == 16


def test_tree_horizon_window(capsys):
    code, data, _ = run_json(
        capsys, "tree", "--x", "5/27", "--depth", "5", "--horizon", "4", FOUR
    )
    assert code == 0
    assert data["node_count"] == 9
    assert data["root"] == "5/27"
    assert data["classification"]["class"] == "undetermined-regular"


def test_tree_boundary_point_is_exit_one(capsys):
    code, _, err = run_cli(capsys, "tree", "--x", "0", "--depth", "2", FOUR)
    assert code == 1 and err.startswith("error:")


def test_tree_json_and_dot_flags_conflict(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tree", "--x", "1/2", "--json", "--dot", FOUR])
    assert exc.value.code == 2
    capsys.readouterr()


# -- rep -----------------------------------------------------------------


def test_rep_check_passes_on_escape_window(capsys):
    code, data, _ = run_json(
        capsys,
        "rep", "--x", "1/2", "--depth", "3", "--V", "2,3,4", "--check", FOUR,
    )
    assert code == 0
    assert data["basis_size"] == 5
    assert data["interior_size"] == 3
    assert data["incidence"] == [1, 0, 0, 0]
    assert data["vertex_set"] == [2, 3, 4]
    assert data["relations"]["all_passed"] is True
    assert data["projection_identities"]["passed"] is True
    assert data["projection_sum_is_identity"] is False


def test_rep_check_fails_at_the_escape_vertex(capsys):
    code, data, _ = run_json(
        capsys, "rep", "--x", "1/2", "--depth", "3", "--V", "1", "--check", FOUR
    )
    assert code == 1
    assert data["relations"]["all_passed"] is False


def test_rep_without_check_never_fails(capsys):
    code, data, _ = run_json(
        capsys, "rep", "--x", "1/2", "--depth", "3", "--V", "1", FOUR
    )
    assert code == 0
    assert "relations" not in data


def test_rep_on_a_regular_window(capsys):
    code, data, _ = run_json(
        capsys,
        "rep", "--x", "5/27", "--depth", "4", "--horizon", "4",
        "--V", "1,2,3,4", "--check", FOUR,
    )
    assert code == 0
    assert data["incidence"] is None
    assert data["projection_sum_is_identity"] is True


def test_rep_vertex_parsing_errors(capsys):
    # "--V=" keeps argparse from reading a leading "-" as an option.
    for text in ("2;3", "+-3", "-+2"):
        code, _, err = run_cli(
            capsys, "rep", "--x", "1/2", f"--V={text}", "--check", FOUR
        )
        assert code == 2 and "not an integer" in err
    code, _, err = run_cli(
        capsys, "rep", "--x", "1/2", "--V", "9", "--check", FOUR
    )
    assert code == 2 and "out of range" in err


# -- certify -------------------------------------------------------------


def test_certify_fully_admissible_set(capsys):
    code, data, _ = run_json(
        capsys, "certify", "--x", "1/2", "--V", "2,3,4", FOUR
    )
    assert code == 0
    assert data["faithful"] is True
    assert data["all_verified"] is True
    assert data["complement_misses"] == []


def test_certify_smaller_set_fails_nonvanishing(capsys):
    code, data, _ = run_json(capsys, "certify", "--x", "1/2", "--V", "2,3", FOUR)
    assert code == 1
    assert data["faithful"] is False
    assert data["complement_misses"] == [4]


def test_certify_inadmissible_set(capsys):
    code, out, err = run_cli(capsys, "certify", "--x", "1/2", "--V", "1,2", FOUR)
    assert code == 1 and out == ""
    assert "not admissible" in err


def test_certify_sign_mangled_vertex_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "certify", "--x", "1/2", "--V=-+2", FOUR)
    assert code == 2 and out == ""
    assert "not an integer" in err


# -- equiv ---------------------------------------------------------------


def test_equiv_equivalent_pair(capsys):
    code, data, _ = run_json(capsys, "equiv", "--x", "1/2", "--y", "9/20", FOUR)
    assert code == 0
    assert data["verdict"]["verdict"] == "equivalent"
    assert data["intertwiner"]["label_respecting"] is True
    assert data["intertwiner"]["verified"] is True


def test_equiv_mixed_pair(capsys):
    code, data, _ = run_json(capsys, "equiv", "--x", "1/2", "--y", "5/27", FOUR)
    assert code == 0
    assert data["verdict"]["verdict"] == "distinct"
    assert data["verdict"]["reason"] == "one point escapes and the other does not"
    assert "intertwiner" not in data


def test_equiv_boundary_point_is_exit_one(capsys):
    code, _, err = run_cli(capsys, "equiv", "--x", "0", "--y", "1/2", FOUR)
    assert code == 1 and "partition point" in err


def test_equiv_escape_root_with_a_partition_preimage_is_exit_one(capsys):
    # The forward orbit of 3/5 is clean, but its preimage 9/10 under branch 4
    # is a partition point, which only building the window finds.
    argv = ("equiv", "--x", "3/5", "--y", "3/5", "--depth", "1", REACHING)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "9/10" in err


# -- synth ---------------------------------------------------------------


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_synth_strict_round_trip(capsys, tmp_path):
    a = _write(tmp_path / "a.json", [[0, 1, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 0]])
    b = _write(tmp_path / "b.json", [[1], [0], [0], [0]])
    out_file = tmp_path / "map.json"
    code, data, _ = run_json(
        capsys, "synth", "--A", a, "--B", b, "--mode", "strict", "-o", str(out_file)
    )
    assert code == 0
    assert data["gap_positions"] == [2]
    assert data["mode"] == "strict"
    assert data["validation"]["all_ok"] is True and data["validation"]["p5_ok"] is True
    assert data["allocation"]["perron_bracket"] == ["4/3", "2"]
    assert out_file.read_text().endswith("\n")

    code, data, _ = run_json(capsys, "validate", str(out_file))
    assert code == 0 and data["all_ok"] is True

    code, data, _ = run_json(capsys, "matrices", str(out_file))
    assert code == 0
    assert data["markov"] == [[0, 1, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 0]]
    assert data["escape_block"] == [[1], [0], [0], [0]]


def test_synth_partial_then_certify_chain(capsys, tmp_path, partial_map):
    a = _write(tmp_path / "a.json", [[0, 1, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 0]])
    b = _write(tmp_path / "b.json", {"rows": [[1], [0], [0], [1]], "mode": "partial"})
    out_file = tmp_path / "map.json"
    code, data, _ = run_json(capsys, "synth", "--A", a, "--B", b, "-o", str(out_file))
    assert code == 0 and data["mode"] == "partial"

    e = escape_point_with_incidence(partial_map, (1, 0, 0, 1))
    code, data, _ = run_json(
        capsys, "certify", "--x", format_rational(e), "--V", "2,3", str(out_file)
    )
    assert code == 0
    assert data["faithful"] is True and data["all_verified"] is True


def test_synth_infeasible_emits_the_report(capsys, tmp_path):
    a = _write(tmp_path / "a.json", [[0, 1, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 0]])
    b = _write(tmp_path / "b.json", [[1], [0], [0], [1]])
    code, data, err = run_json(
        capsys, "synth", "--A", a, "--B", b, "--mode", "strict",
        "-o", str(tmp_path / "map.json"),
    )
    assert code == 1
    assert data["feasible"] is False
    assert "infeasible" in err
    assert not (tmp_path / "map.json").exists()


def test_synth_mode_conflict_is_exit_two(capsys, tmp_path):
    a = _write(tmp_path / "a.json", [[1, 1], [1, 1]])
    b = _write(tmp_path / "b.json", {"rows": [[1], [1]], "mode": "partial"})
    code, _, err = run_cli(
        capsys, "synth", "--A", a, "--B", b, "--mode", "strict",
        "-o", str(tmp_path / "map.json"),
    )
    assert code == 2 and "conflicts" in err


@pytest.mark.parametrize("rows", [["", "", "", ""], {"rows": ["", "", "", ""]}])
def test_synth_string_escape_rows_are_exit_two(capsys, tmp_path, rows):
    a = _write(tmp_path / "a.json", [[0, 1, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 1, 0]])
    b = _write(tmp_path / "b.json", rows)
    code, out, err = run_cli(
        capsys, "synth", "--A", a, "--B", b, "-o", str(tmp_path / "map.json")
    )
    assert code == 2 and out == ""
    assert "escape block rows must be arrays" in err
    assert not (tmp_path / "map.json").exists()


# -- parser-level errors -------------------------------------------------


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--x", "1/3", "--max-iter", "-5"],
        ["tree", "--x", "1/2", "--depth", "-3"],
        ["tree", "--x", "1/2", "--max-iter", "-1"],
        ["tree", "--x", "5/27", "--horizon", "-1"],
        ["rep", "--x", "1/2", "--depth", "-1"],
        ["rep", "--x", "1/2", "--max-iter", "-1"],
        ["rep", "--x", "5/27", "--horizon", "-2"],
        ["certify", "--x", "1/2", "--depth", "-1"],
        ["certify", "--x", "1/2", "--max-iter", "-1"],
        ["equiv", "--x", "1/2", "--y", "1/3", "--depth", "-1"],
        ["equiv", "--x", "1/2", "--y", "1/3", "--max-iter", "-1"],
        ["tree", "--x", "1/2", "--depth", "three"],
    ],
)
def test_negative_or_malformed_budgets_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, FOUR])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_zero_budgets_are_accepted(capsys):
    code, data, _ = run_json(
        capsys, "tree", "--x", "1/2", "--depth", "0", "--horizon", "0", FOUR
    )
    assert code == 0 and data["node_count"] == 1


# -- maps failing validation ---------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--x", "2/3"],
        ["tree", "--x", "2/3"],
        ["rep", "--x", "2/3"],
        ["certify", "--x", "2/3", "--V", "1"],
        ["equiv", "--x", "2/3", "--y", "1/3"],
    ],
    ids=lambda argv: argv[0],
)
def test_analysis_commands_reject_an_invalid_map(capsys, tmp_path, argv):
    # A slope-2 branch on [0, 1] maps onto [0, 2], so P1 fails; before the
    # analysis commands validated on load, point reported that 4/3 left the
    # ambient interval.
    bad = tmp_path / "slope2.json"
    bad.write_text(
        json.dumps(
            {
                "markov_intervals": [["0", "1"]],
                "branches": [{"slope": "2", "intercept": "0"}],
            }
        )
    )
    code, out, err = run_cli(capsys, *argv, str(bad))
    assert code == 1 and out == ""
    assert "map fails validation" in err
    assert "P1: branch images cover [0, 2]" in err


# -- closed stdout -------------------------------------------------------


def test_closed_stdout_exits_one_without_a_traceback():
    """A reader that stops after one line (``| head -1``) closes the pipe.
    The window report is far larger than a pipe buffer, so the writer is
    sure to meet the closed pipe."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "escapemaps", "tree", "--x", "1/2",
         "--depth", "18", FOUR],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


# -- runtime dependencies ------------------------------------------------


def test_runtime_imports_do_not_load_numpy():
    """numpy is a test dependency only: importing the library and its CLI in
    a fresh interpreter must not pull it in."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import escapemaps, escapemaps.cli, sys; "
            "assert 'numpy' not in sys.modules",
        ],
        env=env,
        check=True,
        timeout=60,
    )
