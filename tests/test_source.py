"""Checks on the package source itself."""

import ast
from pathlib import Path

import diffuq

# the only functions that may call a generator's draw methods: every per-row
# draw of the samplers goes through a ``seeding._Streams``, whose methods are
# the one place to change how rows draw (they call the generators only on
# the numpy fallback path); the others draw for one generator
DRAW_SITES = {"_Streams.normals", "_Streams.uniforms", "_Streams.below", "sample_mixture",
              "smc_resample", "synthesize_measurement", "_haar_orthogonal"}
DRAW_METHODS = {"random", "standard_normal", "integers", "choice"}

# the only functions that may make a generator: a batch's row streams come
# from ``seeding.streams``, one vectorised pass over the rows; the others
# make one generator from one seed
GENERATOR_SITES = {"streams", "_as_rng", "sample_one", "build_operator",
                   "synthesize_measurement"}
GENERATOR_CALLS = {"default_rng", "Generator", "PCG64", "SeedSequence"}

# the functions that build an experiment's prior and schedule: only the
# config calls them, and keeps what they build for the harness
PROBLEM_BUILDERS = {"build_toy_prior", "build_schedule"}

# the only functions that may build a problem's constants: ``Problem`` keeps
# its exact posterior and reverse kernel, and every user shares them; pnpdm's
# conjugate x-step factors its identity-operator posterior once per setup,
# and ``exact_posterior`` is the one-measurement call
CONSTANT_SITES = {"_Posterior": {"Problem.posterior", "_sample_pnpdm", "exact_posterior"},
                  "ReverseKernel": {"Problem.kernel"}}

# modules that build and load native code; only ``seeding`` (the compiled
# row loop) may import them
NATIVE_MODULES = {"ctypes", "subprocess", "tempfile", "sysconfig"}


def _calls(node, names, function=None, cls=None):
    """(innermost enclosing function or None, line, name) of each call under
    ``node`` of a function or method named in ``names``; a method is named
    ``Class.method``."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = f"{cls}.{node.name}" if cls else node.name
        cls = None
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in names:
            yield function, node.lineno, name
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, names, function, cls)


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
    assert {"_Streams.normals", "_Streams.uniforms", "_Streams.below"} <= {
        function for _, function, _, _ in calls}


def test_generators_are_made_only_in_the_generator_sites():
    calls = _package_calls(GENERATOR_CALLS)
    assert not _outside(calls, GENERATOR_SITES)
    assert "streams" in {function for _, function, _, _ in calls}


def test_only_the_config_builds_the_prior_and_schedule():
    calls = _package_calls(PROBLEM_BUILDERS)
    assert {name for name, _, _, _ in calls} == {"config.py"}
    assert {callee for _, _, _, callee in calls} == PROBLEM_BUILDERS


def test_only_run_cases_makes_row_streams():
    calls = _package_calls({"streams"})
    assert {function for _, function, _, _ in calls} == {"run_cases"}


def test_only_the_config_makes_the_cases():
    calls = _package_calls({"synthesize_measurement"})
    assert {name for name, _, _, _ in calls} == {"config.py"}


def test_only_the_problem_builds_its_posterior_and_kernel():
    calls = _package_calls(set(CONSTANT_SITES))
    assert not [f"{name}:{line} {callee}() in {function}" for name, function, line, callee in calls
                if function not in CONSTANT_SITES[callee]]
    assert {(callee, function) for _, function, _, callee in calls} == {
        (callee, site) for callee, sites in CONSTANT_SITES.items() for site in sites}


def _imports(tree) -> set:
    """The top-level names of the modules that ``tree`` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_only_seeding_builds_and_loads_native_code():
    found = {path.name: _imports(ast.parse(path.read_text())) & NATIVE_MODULES
             for path in Path(diffuq.__file__).parent.glob("*.py")}
    assert {name for name, native in found.items() if native} == {"seeding.py"}
