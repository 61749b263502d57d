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

# the only functions that may make a generator: a batch's row generators
# come from ``seeding.generators``, one vectorised pass over the rows; the
# others make one generator from one seed
GENERATOR_SITES = {"generators", "_as_rng", "sample_one", "build_operator",
                   "synthesize_measurement"}
GENERATOR_CALLS = {"default_rng", "Generator", "PCG64", "SeedSequence"}


def _calls(node, names, function=None):
    """(innermost enclosing function or None, line, name) of each call under
    ``node`` of a function or method named in ``names``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in names:
            yield function, node.lineno, name
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, names, function)


def _package_calls(names) -> list:
    """(file, function, line, name) of each such call in the package."""
    return [(path.name, *call) for path in sorted(Path(diffuq.__file__).parent.glob("*.py"))
            for call in _calls(ast.parse(path.read_text()), names)]


def _outside(calls, sites) -> list:
    return [f"{name}:{line} {callee}() in {function}"
            for name, function, line, callee in calls if function not in sites]


def test_generators_draw_only_in_the_draw_sites():
    calls = _package_calls(DRAW_METHODS)
    assert not _outside(calls, DRAW_SITES)
    assert {"_normals", "_uniforms"} <= {function for _, function, _, _ in calls}


def test_generators_are_made_only_in_the_generator_sites():
    calls = _package_calls(GENERATOR_CALLS)
    assert not _outside(calls, GENERATOR_SITES)
    assert "generators" in {function for _, function, _, _ in calls}
