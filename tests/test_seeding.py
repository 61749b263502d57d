import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import diffuq.seeding
from diffuq.seeding import _Streams, _rowdraws, derive_seed, row_seeds, streams

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


def _numpy_streams(seeds) -> _Streams:
    """``streams(seeds)`` on the numpy path, one call per row."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffuq.seeding, "_rowdraws", lambda: None)
        return streams(seeds)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.one_of(SEED, st.integers(0, 2**32 - 1), st.sampled_from(EDGE_SEEDS)),
                      min_size=1, max_size=40))
@example(seeds=list(EDGE_SEEDS))
def test_generators_equal_default_rng(seeds):
    """Row k of ``streams(seeds)`` starts in ``default_rng(seeds[k])``'s
    state, including a seed below 2^32 (one entropy word), and the streams
    draw what those generators draw, on the default path and on the numpy
    path."""
    seeds_u64 = np.array(seeds, dtype=np.uint64)
    for rows in (streams(seeds_u64), _numpy_streams(seeds_u64)):
        assert len(rows) == len(seeds)
        refs = [np.random.default_rng(seed) for seed in seeds]
        assert [r.bit_generator.state for r in rows.rngs] == [r.bit_generator.state
                                                              for r in refs]
        got = [rows.uniforms(), rows.normals(16), rows.below(41)]
        for k, ref in enumerate(refs):
            want = [ref.random(), ref.standard_normal(16), ref.integers(41)]
            for g, w in zip(got, want):
                assert np.array_equal(g[k], w)
            assert rows.rngs[k].bit_generator.state == ref.bit_generator.state


def test_generators_of_no_seeds():
    no_seeds = np.array([], dtype=np.uint64)
    for rows in (streams(no_seeds), _numpy_streams(no_seeds)):
        assert len(rows) == 0 and rows.rngs == []
        assert rows.normals((2, 3)).shape == (0, 2, 3) and rows.uniforms().shape == (0,)


def test_row_draws_are_each_generators_own():
    """Row k of each draw is what generator k draws on its own, and leaves
    it in the same state."""
    rngs = [np.random.default_rng([7, k]) for k in range(5)]
    refs = [np.random.default_rng([7, k]) for k in range(5)]
    rows = _Streams(rngs)
    got = [rows.uniforms(), rows.normals(3), rows.uniforms(4), rows.normals((2, 3)),
           rows.below(41), rows.normals(())]
    for k, ref in enumerate(refs):
        want = [ref.random(), ref.standard_normal(3), ref.random(4), ref.standard_normal((2, 3)),
                ref.integers(41), ref.standard_normal()]
        for g, w in zip(got, want):
            assert np.array_equal(g[k], w)
        assert rngs[k].bit_generator.state == ref.bit_generator.state
    none = _Streams([])
    assert none.normals((2, 3)).shape == (0, 2, 3) and none.uniforms().shape == (0,)


_HIGHS = [1, 41, 2**31 + 5, 2**32 - 1, 2**32]


@settings(max_examples=40, deadline=None)
@given(K=st.integers(1, 600), seed=st.integers(0, 2**63), L=st.integers(1, 4),
       d=st.integers(1, 17), highs=st.lists(st.sampled_from(_HIGHS), min_size=1, max_size=5),
       data=st.data())
def test_compiled_and_numpy_row_draws_agree(K, seed, L, d, highs, data):
    """The compiled row loop and the numpy path give every row the same
    numbers and leave its generator in the same state, ``has_uint32``
    buffer included: bounded integers of each range, interleaved with
    uniforms and with normals of shape (), (d,) and (L, d), then again on
    the streams ``take`` makes of some rows and of the rows a mask keeps;
    every draw of the numpy side runs with the loop unloaded."""
    if _rowdraws() is None:
        pytest.skip("the compiled row loop does not build here")
    seeds = np.random.default_rng(seed).integers(0, 2**63, size=K, dtype=np.uint64)
    picks = np.array(data.draw(st.lists(st.integers(0, K - 1), max_size=8)), dtype=int)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=K, max_size=K)))

    def draws(rows, compiled):
        assert (rows._pointers is not None) == compiled
        out = []
        for high in highs:
            out += [rows.below(high), rows.uniforms(), rows.normals(()), rows.below(high),
                    rows.normals(d), rows.uniforms(L), rows.normals((L, d))]
        return out

    def run(compiled):
        """Every draw of one path: all rows, the rows ``picks``, then the
        rows that ``mask`` keeps; and the generators' end states."""
        rows = streams(seeds)
        out = draws(rows, compiled) + draws(rows.take(picks), compiled)
        kept = rows.take(np.flatnonzero(mask))
        out += draws(kept, compiled)
        assert len(kept) == mask.sum()
        return out, [r.bit_generator.state for r in rows.rngs]

    got, states_c = run(compiled=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffuq.seeding, "_rowdraws", lambda: None)
        want, states_n = run(compiled=False)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
    assert states_c == states_n


# ---------------------------------------------------------------------------
# the compiled row solves: one guard hands the loop intp levels and float64 rows
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def row_table(toy_prior):
    from diffuq.gmm import _NoisyTable

    return _NoisyTable(toy_prior, np.geomspace(10.0, 0.01, 12))


def _row_solves(table):
    """The compiled routines that take one level per row, each with the shape
    of its right-hand side per row and the start of the error a misfit
    levels array raises."""
    return {"potrs_rows": (lambda levels, b: diffuq.seeding.potrs_rows(table._cho, levels, b),
                           (2, 16), r"levels \(2,\) and factors .* misfit b"),
            "_row_logpdfs": (lambda levels, X: diffuq.seeding._row_logpdfs(
                table._at, table.means.shape, table._dlog2pi, levels, X),
                            (16,), r"levels \(2,\) misfit rows \(3, 16\)")}


@pytest.mark.parametrize("form", ["uint8", "int32", "strided", "strided_rows"])
@pytest.mark.parametrize("routine", ["potrs_rows", "_row_logpdfs"])
def test_row_solves_take_any_integer_levels(row_table, routine, form):
    """Both compiled row routines give uint8, int32 and strided levels, and
    strided rows, the bits of the call on C-contiguous intp levels and rows:
    the loop itself reads only that form."""
    if _rowdraws() is None:
        pytest.skip("the compiled row loop does not build here")
    rng = np.random.default_rng(4)
    levels = rng.integers(0, 12, size=9).astype(np.intp)
    solve, shape, _ = _row_solves(row_table)[routine]
    b = 3.0 * rng.standard_normal((9, *shape))
    want = solve(levels, b.copy())
    odd = {"uint8": levels.astype(np.uint8), "int32": levels.astype(np.int32),
           "strided": np.repeat(levels, 2)[::2]}.get(form, levels)
    rows = np.repeat(b, 2, axis=0)[::2] if form == "strided_rows" else b.copy()
    got = solve(odd, rows)
    assert want is not None and np.array_equal(got, want)
    assert solve(levels[:0], b[:0]).shape == (0, *want.shape[1:])


@pytest.mark.parametrize("routine", ["potrs_rows", "_row_logpdfs"])
def test_row_solves_reject_mismatched_shapes(row_table, routine):
    """A levels array that is not one per row fails before the loop reads
    past it."""
    if _rowdraws() is None:
        pytest.skip("the compiled row loop does not build here")
    solve, shape, message = _row_solves(row_table)[routine]
    with pytest.raises(ValueError, match=message):
        solve(np.zeros(2, dtype=np.intp), np.ones((3, *shape)))
