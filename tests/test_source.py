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

# the noisy prior's per-level constants live in one ``gmm._NoisyTable``: the
# kernel builds one for its levels, and the two one-level references build
# their own; only the table factors a noisy covariance (``cho_factor``
# elsewhere factors the exact posterior's and pnpdm's z-step systems), and
# only its row-wise methods run the compiled row solves on its factors
NOISY_SITES = {"_NoisyTable": {"ReverseKernel.__init__", "denoise_batch", "score_and_denoise"},
               "_getrf_lus": {"_NoisyTable.__init__"},
               "trsv_rows": {"_NoisyTable.logpdfs_rows"},
               "potrs_rows": {"_NoisyTable.score_rows"},
               "cho_factor": {"_NoisyTable.__init__", "_Posterior.__init__", "_z_step_sampler"}}

# routines nothing may call: the row-wise log-densities rest on scipy's
# ``dtrsv`` (the compiled row loop) and numpy's ``gesv`` alone, and each
# further routine is one more on which the byte-identical results depend
BARRED_ROUTINES = {"dgetrf", "dtbsv"}

# modules that build and load native code; only ``seeding`` (the compiled
# row loop) may import them
NATIVE_MODULES = {"ctypes", "subprocess", "tempfile", "sysconfig"}

# a config's defaults: only ``ExperimentConfig``'s methods read them, so a
# hand-built config and a loaded one resolve alike
CONFIG_DEFAULTS = {"_SCHEDULE_DEFAULTS", "_OPERATOR_DEFAULTS"}


def _callee(node):
    """The name of the function or method that ``node`` calls, if a call."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None))
    return None


def _read(node):
    """The name that ``node`` reads, if a read of a plain name."""
    return node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else None


def _calls(node, names, function=None, cls=None, name_of=_callee):
    """(innermost enclosing function or None, line, name) of each call under
    ``node`` of a function or method named in ``names`` (each read of such a
    name, with ``name_of=_read``); a method is named ``Class.method``."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = f"{cls}.{node.name}" if cls else node.name
        cls = None
    name = name_of(node)
    if name in names:
        yield function, node.lineno, name
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, names, function, cls, name_of)


def _package_calls(names, name_of=_callee) -> list:
    """(file, function, line, name) of each such call (or read) in the package."""
    return [(path.name, *call) for path in sorted(Path(diffuq.__file__).parent.glob("*.py"))
            for call in _calls(ast.parse(path.read_text()), names, name_of=name_of)]


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


def test_only_the_config_methods_read_its_defaults():
    reads = _package_calls(CONFIG_DEFAULTS, _read)
    assert {name for name, _, _, _ in reads} == {"config.py"}
    assert {callee for _, _, _, callee in reads} == CONFIG_DEFAULTS
    assert not [f"{name}:{line} {callee} in {function}" for name, function, line, callee in reads
                if not (function or "").startswith("ExperimentConfig.")]


def _only_in(sites: dict) -> None:
    """Each callee of ``sites`` is called in every function it names and in
    no other."""
    calls = _package_calls(set(sites))
    assert not [f"{name}:{line} {callee}() in {function}" for name, function, line, callee in calls
                if function not in sites[callee]]
    assert {(callee, function) for _, function, _, callee in calls} == {
        (callee, site) for callee, names in sites.items() for site in names}


def test_only_the_problem_builds_its_posterior_and_kernel():
    _only_in(CONSTANT_SITES)


def test_only_the_noisy_table_factors_the_noisy_prior():
    _only_in(NOISY_SITES)


def test_package_calls_no_barred_routine():
    assert not _package_calls(BARRED_ROUTINES)
    package = Path(diffuq.__file__).parent
    sources = [path.read_text() for path in [*package.glob("*.py"), *package.glob("*.c")]]
    assert not [name for name in BARRED_ROUTINES for text in sources if name in text]


def test_only_component_draws_groups_particle_sets():
    """The kernel's transitions, fps_smc's propagation and the mixture rows
    draw each component's Gaussian through ``gmm._component_draws``, the one
    place that finds which rows are alone in their particle set."""
    _only_in({"_alone": {"_component_draws"}})


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
