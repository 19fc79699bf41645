"""The README's two tours run, and say what they return.

The fenced Python block under "Library quick tour" is run statement by
statement.  Each bare expression in it is evaluated, and its value must be
the one its comment states; the assigned names are checked the same way.
A new expression line in the tour needs its value pinned here.

The fenced shell block under "Command-line interface" is run line by line
through ``escapemaps.commands.main``, in a temporary directory, with
``$MAP`` the map its ``MAP=`` line names.  Every command must exit 0 and
print what its comment says, and every ``"key": value`` its comment quotes
must appear in its report.  A new command line needs its check pinned
here."""

import ast
import json
import re
import shlex
from fractions import Fraction as F
from pathlib import Path

from escapemaps import Equivalent, Escaped, load_document
from escapemaps.commands import build_parser, main
from escapemaps.maps import map_document_from_jsonable

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

FOUR_A = ((0, 1, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 0))
FOUR_B = ((1,), (0,), (0,), (0,))

# Each bare expression of the tour, with its stated value or a test of it.
EXPRESSIONS = {
    "m.validate().all_ok": True,
    "m.transition_matrix": FOUR_A,
    "m.escape_block": FOUR_B,
    "em.is_primitive(m.transition_matrix)": lambda r: r.primitive and r.exponent == 5,
    "em.check_relations(rep, (2, 3, 4)).all_passed": True,
    "em.faithfulness_certificate(rep, (2, 3, 4)).faithful": True,
    "em.compare_points(m, F(1, 2), F(9, 20)).verdict": (
        lambda v: isinstance(v, Equivalent) and v.rounds == 2
    ),
    "result.map.escape_block == spec.escape": True,
    "em.perron_widths(spec.markov, spec.escape, result.positions) == result.allocation": True,
    "data.symbols": ("1", "2", "2^", "3", "4"),
    "data.rows[0]": (0, 1, 1, 1, 0),
    "data.block_permutation": (0, 1, 3, 4, 2),
}


def quick_tour() -> str:
    section = README.read_text().split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_runs_with_the_values_it_states():
    source = quick_tour()
    namespace: dict = {}
    values = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(source, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)

    assert values.keys() == EXPRESSIONS.keys()
    for text, expected in EXPRESSIONS.items():
        value = values[text]
        assert expected(value) if callable(expected) else value == expected, text

    pc = namespace["pc"]
    assert isinstance(pc, Escaped)
    assert (pc.escape_time, pc.final_point) == (1, F(11, 20))
    assert namespace["data"].gap_positions == (2,)
    assert namespace["tree"].max_depth == 4


# -- the command-line block ---------------------------------------------


def _synthesized(tmp):
    m = map_document_from_jsonable(json.loads((tmp / "out.json").read_text())).map
    return m.transition_matrix == FOUR_A and m.escape_block == FOUR_B


# Each command of the block, with a test of its report (stdout, parsed when
# it is JSON) and the working directory for what its comment says.
COMMANDS = {
    "escapemaps validate $MAP": lambda report, tmp: report["all_ok"] is True,
    "escapemaps matrices $MAP": lambda report, tmp: (
        {"markov", "escape_block", "escape_matrix", "gap_positions"} <= report.keys()
    ),
    "escapemaps matrices --block $MAP": lambda report, tmp: (
        report["block_form"]["permutation"] == [0, 1, 3, 4, 2]
    ),
    "escapemaps graph --dot graph.dot $MAP": lambda report, tmp: (
        report["dot_file"] == "graph.dot"
        and (tmp / "graph.dot").read_text().startswith("digraph")
    ),
    "escapemaps point --x 1/10 $MAP": lambda report, tmp: report["itinerary"] == ["1", "2^"],
    "escapemaps tree --x 1/2 --depth 4 $MAP": lambda report, tmp: (
        report["max_depth"] == 4 and report["classification"]["class"] == "escaped"
    ),
    "escapemaps tree --x 5/27 --depth 5 --horizon 4 --dot $MAP": lambda report, tmp: (
        report.startswith("digraph")
    ),
    "escapemaps rep --x 1/2 --depth 3 --V 2,3,4 --check $MAP": lambda report, tmp: (
        report["relations"]["all_passed"] is True
    ),
    "escapemaps certify --x 1/2 --V 2,3,4 $MAP": lambda report, tmp: (
        report["faithful"] is True
        and report["all_verified"] is True
        and build_parser().parse_args(["certify", "--x", "1/2", "$MAP"]).depth == 4
    ),
    "escapemaps equiv --x 1/2 --y 9/20 $MAP": lambda report, tmp: (
        report["verdict"]["verdict"] == "equivalent"
        and report["intertwiner"]["label_respecting"] is True
    ),
    "escapemaps synth --A a.json --B b.json --mode strict -o out.json": (
        lambda report, tmp: report["validation"]["all_ok"] is True and _synthesized(tmp)
    ),
}


def cli_block() -> tuple[Path, list[tuple[str, str]]]:
    """The map the block's ``MAP=`` line names, and each command line split
    into its command and its comment."""
    section = README.read_text().split("## Command-line interface", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    (map_line,) = [line for line in lines if line.startswith("MAP=")]
    commands = [line.partition("#")[::2] for line in lines if line.startswith("escapemaps ")]
    return ROOT / map_line[len("MAP="):], [(c.strip(), note.strip()) for c, note in commands]


def test_readme_cli_block_runs_with_the_values_it_states(capsys, monkeypatch, tmp_path):
    map_path, lines = cli_block()
    assert load_document("four_interval") == map_document_from_jsonable(
        json.loads(map_path.read_text())
    )
    assert [command for command, _ in lines] == list(COMMANDS)
    (tmp_path / "a.json").write_text(json.dumps(FOUR_A))
    (tmp_path / "b.json").write_text(json.dumps(FOUR_B))
    monkeypatch.chdir(tmp_path)

    for command, note in lines:
        argv = [str(map_path) if word == "$MAP" else word for word in shlex.split(command)[1:]]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the line
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 0, (command, err)
        report = json.loads(out) if out.startswith("{") else out
        assert COMMANDS[command](report, tmp_path), command
        for fragment in re.findall(r'"\w+": [\w.]+', note):
            assert fragment in out, (command, fragment)
