"""Per-layer instrumentation applied from outside the package.

``Tracer`` wraps every public function and public method of the diffuq
layers and installs the one wrapper at every module binding of the name, so
a call through ``diffuq.solvers.score_and_denoise`` and one through
``diffuq.gmm.score_and_denoise`` land in the same span. Spans are
aggregated in memory per (parent, name); self time is a span's duration
minus the time covered by wrapped child spans. The tracer keeps one span
stack and is only valid for single-threaded runs (``workers=1``).

``microtimings`` times single primitives on fixed inputs built from a seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

import numpy as np

LAYERS = ("config", "seeding", "gmm", "operators", "diffusion", "solvers",
          "diagnostics", "harness")


def _modules():
    pkg = importlib.import_module("diffuq")
    return pkg, {layer: importlib.import_module(f"diffuq.{layer}") for layer in LAYERS}


def _public_callables():
    """{original function: (owning class or None, span name)} for the layers."""
    _, mods = _modules()
    found = {}
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found[obj] = (None, f"{layer}.{name}")
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found[fn] = (obj, f"{layer}.{name}.{meth}")
    return found


class _Patches:
    """Replaces objects at every diffuq binding; ``restore`` undoes it."""

    def __init__(self, replacements: dict):
        pkg, mods = _modules()
        self._undo = []
        for mod in (pkg, *mods.values()):
            for name, obj in list(vars(mod).items()):
                new = replacements.get(id(obj))
                if new is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, new)

    def add_method(self, cls, name, new):
        self._undo.append((cls, name, vars(cls)[name]))
        setattr(cls, name, new)

    def restore(self):
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()


class Tracer:
    """Context manager that records calls and self time per wrapped function."""

    def __init__(self):
        self.spans = {}  # (parent, name) -> [calls, total_s, self_s]
        self._stack = []
        self._patches = None

    def _wrap(self, name, fn):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.get((parent, name))
                if rec is None:
                    rec = spans[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        return wrapper

    def __enter__(self):
        found = _public_callables()
        functions = {id(fn): self._wrap(name, fn)
                     for fn, (cls, name) in found.items() if cls is None}
        self._patches = _Patches(functions)
        for fn, (cls, name) in found.items():
            if cls is not None:
                self._patches.add_method(cls, fn.__name__, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def calls(self, name: str) -> int:
        return sum(rec[0] for (_, n), rec in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum((rec[2] for (_, n), rec in self.spans.items() if n == name), 0.0)

    def records(self) -> list:
        return [{"parent": parent, "name": name, "calls": rec[0],
                 "total_s": rec[1], "self_s": rec[2]}
                for (parent, name), rec in sorted(self.spans.items(),
                                                  key=lambda kv: -kv[1][2])]


class SolverTimer:
    """Times ``run_batch`` per solver name, at every binding of the function."""

    def __init__(self):
        self.seconds = {}
        self.rows = {}
        self._patches = None

    def __enter__(self):
        from diffuq import solvers
        original = solvers.run_batch

        @functools.wraps(original)
        def timed(spec, m, prior, sched, K, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(spec, m, prior, sched, K, *args, **kwargs)
            finally:
                self.seconds[spec.name] = (self.seconds.get(spec.name, 0.0)
                                           + time.perf_counter() - t0)
                self.rows[spec.name] = self.rows.get(spec.name, 0) + K

        self._patches = _Patches({id(original): timed})
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def ms_per_row(self, solver: str) -> float:
        rows = self.rows.get(solver, 0)
        return 1000.0 * self.seconds[solver] / rows if rows else 0.0


def _per_call_us(fn, blocks=7, block_s=0.02):
    """Median per-call time in microseconds over ``blocks`` timed blocks."""
    fn()
    n, t = 1, 0.0
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        t = time.perf_counter() - t0
        if t >= block_s / 4:
            break
        n *= 4
    n = max(1, int(n * block_s / t))
    per_call = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        per_call.append((time.perf_counter() - t0) / n)
    return 1e6 * statistics.median(per_call)


def microtimings(cfg, seed: int) -> dict:
    """µs per call of the hot primitives at batch 1 and batch 100."""
    from diffuq import (ReverseKernel, build_operator, build_schedule, build_toy_prior,
                        exact_posterior, resolve_solver, sample_mixture, score_and_denoise,
                        synthesize_measurement)
    from diffuq.gmm import denoise_batch
    from diffuq.solvers import pnpdm_z_step

    prior = build_toy_prior(cfg.prior)
    sched = build_schedule(**cfg.schedule)
    A = build_operator(**{"d": cfg.prior.d, **cfg.operator})
    kernel = ReverseKernel(prior, sched)
    level = sched.steps // 2
    sigma = float(sched.grid[level])
    rng = np.random.default_rng(seed)
    X = {b: sigma * rng.standard_normal((b, prior.dim)) for b in (1, 100)}
    x_star = sample_mixture(prior, 1, rng)[0]
    m = synthesize_measurement(A, x_star, cfg.sigma_y, seed)
    step_rng = np.random.default_rng(seed)
    rho = resolve_solver("pnpdm").hyperparameters["rho_coupling"]

    out = {}
    for b, Xb in X.items():
        out[f"diffusion.ReverseKernel.step.us_b{b}"] = _per_call_us(
            lambda: kernel.step(Xb, level, step_rng))
        out[f"diffusion.ReverseKernel.denoise.us_b{b}"] = _per_call_us(
            lambda: kernel.denoise(Xb, level))
        out[f"diffusion.ReverseKernel.log_responsibilities.us_b{b}"] = _per_call_us(
            lambda: kernel.log_responsibilities(Xb, level))
        out[f"gmm.denoise_batch.us_b{b}"] = _per_call_us(
            lambda: denoise_batch(prior, Xb, sigma))
    x1 = X[1][0]
    out["gmm.score_and_denoise.us_b1"] = _per_call_us(
        lambda: score_and_denoise(prior, x1, sigma))
    out["gmm.exact_posterior.us_b1"] = _per_call_us(
        lambda: exact_posterior(prior, A, m.y, cfg.sigma_y))
    out["solvers.pnpdm_z_step.us_b1"] = _per_call_us(
        lambda: pnpdm_z_step(x1, m.y, A, cfg.sigma_y, rho, step_rng))
    return out
