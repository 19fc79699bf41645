"""The README's library quick tour runs, and says what it returns.

The fenced Python block under "Library quick tour" is run statement by
statement.  Each bare expression in it is evaluated, and its value must be
the one its comment states; the assigned names are checked the same way.
A new expression line in the tour needs its value pinned here."""

import ast
from fractions import Fraction as F
from pathlib import Path

from escapemaps import Equivalent, Escaped

README = Path(__file__).resolve().parent.parent / "README.md"

FOUR_A = ((0, 1, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 0))

# Each bare expression of the tour, with its stated value or a test of it.
EXPRESSIONS = {
    "m.validate().all_ok": True,
    "m.transition_matrix": FOUR_A,
    "m.escape_block": ((1,), (0,), (0,), (0,)),
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
