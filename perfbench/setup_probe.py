"""Set-up time in a fresh process: prints seconds up to the first row.

Times ``import diffuq``, ``load_config``, building the prior, schedule and
operator, and ``SamplingContext.build``; the interpreter's own start-up is
not included. Usage: ``python3 setup_probe.py CONFIG.yaml``.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

import diffuq  # noqa: E402

cfg = diffuq.load_config(sys.argv[1])
prior = diffuq.build_toy_prior(cfg.prior)
sched = diffuq.build_schedule(**cfg.schedule)
diffuq.build_operator(**{"d": cfg.prior.d, **cfg.operator})
diffuq.SamplingContext.build(prior, sched)
print(time.perf_counter() - t0)
