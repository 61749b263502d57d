"""Checks on the package source itself."""

import ast
from pathlib import Path

import diffuq

# the only functions that may call a generator's draw methods: every per-row
# draw of the samplers goes through ``gmm._normals`` and ``gmm._uniforms``,
# the one place to change how rows draw; the others draw for one generator
# (reddiff's bounded-integer level draw stays per row until it has a
# row-wise form with the same bits)
DRAW_SITES = {"_normals", "_uniforms", "sample_mixture", "smc_resample",
              "synthesize_measurement", "_haar_orthogonal", "reddiff_update"}
DRAW_METHODS = {"random", "standard_normal", "integers", "choice"}


def _draw_calls(node, function=None):
    """(innermost enclosing function or None, line, method) of each call of a
    draw method under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in DRAW_METHODS):
        yield function, node.lineno, node.func.attr
    for child in ast.iter_child_nodes(node):
        yield from _draw_calls(child, function)


def test_generators_draw_only_in_the_draw_sites():
    calls = [(path.name, *call) for path in sorted(Path(diffuq.__file__).parent.glob("*.py"))
             for call in _draw_calls(ast.parse(path.read_text()))]
    stray = [f"{name}:{line} {method}() in {function}"
             for name, function, line, method in calls if function not in DRAW_SITES]
    assert not stray, stray
    assert {"_normals", "_uniforms"} <= {function for _, function, _, _ in calls}
