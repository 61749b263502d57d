import numpy as np
from hypothesis import example, given, settings, strategies as st

from diffuq.seeding import derive_seed, generators, row_seeds

SEED = st.integers(0, 2**64 - 1)
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


def test_deterministic():
    labels = [("solver", 3), ("case", 11)]
    assert derive_seed(42, labels) == derive_seed(42, labels)


def test_golden_vectors():
    # frozen reference outputs of the documented mixing construction
    assert derive_seed(123456789, [("xstar", 0), ("meas", 7)]) == 6871225174764294506
    assert derive_seed(0, []) == 16294208416658607535


def test_64_bit_range():
    for master in (0, 1, 2**63, 2**64 - 1):
        s = derive_seed(master, [("a", 5)])
        assert 0 <= s < 2**64


def test_order_sensitivity():
    assert derive_seed(7, [("a", 1), ("b", 2)]) != derive_seed(7, [("b", 2), ("a", 1)])


def test_tag_sensitivity():
    assert derive_seed(7, [("row", 1)]) != derive_seed(7, [("col", 1)])


def test_no_collisions_over_many_labels():
    seen = set()
    for tag in ("solver", "case", "row", "sweep", "meas"):
        for value in range(20_000):
            seen.add(derive_seed(99, [(tag, value)]))
    assert len(seen) == 100_000


def test_usable_as_numpy_seed():
    rng = np.random.default_rng(derive_seed(1, [("x", 2)]))
    assert np.isfinite(rng.standard_normal())


@settings(max_examples=60, deadline=None)
@given(base=SEED, K=st.integers(1, 600))
@example(base=0, K=1)
@example(base=2**64 - 1, K=600)
def test_row_seeds_equal_derive_seed(base, K):
    seeds = row_seeds(base, K)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(base, [("row", k)]) for k in range(K)]


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.one_of(SEED, st.integers(0, 2**32 - 1), st.sampled_from(EDGE_SEEDS)),
                      min_size=1, max_size=40))
@example(seeds=list(EDGE_SEEDS))
def test_generators_equal_default_rng(seeds):
    """Each generator starts in ``default_rng(seed)``'s state, including a
    seed below 2^32 (one entropy word), and draws what it draws."""
    rngs = generators(np.array(seeds, dtype=np.uint64))
    assert len(rngs) == len(seeds)
    for seed, rng in zip(seeds, rngs):
        ref = np.random.default_rng(seed)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()
        assert np.array_equal(rng.standard_normal(16), ref.standard_normal(16))


def test_generators_of_no_seeds():
    assert generators(np.array([], dtype=np.uint64)) == []
