import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from docstudy import rng
from docstudy.rng import Stream


def sample_indices_oracle(stream: Stream, n: int, k: int) -> list[int]:
    """`Stream.sample_indices` as it was: a Fisher-Yates prefix over all of range(n)."""
    pool = list(range(n))
    for i in range(k):
        j = i + stream.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


def draws_oracle(key: int, bounds: list[int]) -> list[int]:
    """`Stream.below` as it was: the i-th draw scales `_splitmix64` of the
    key plus i golden steps."""
    draws = []
    for n in bounds:
        draws.append((rng._splitmix64(key) * n) >> 64)
        key = (key + rng._GOLDEN) & rng._MASK
    return draws


class TestBelow:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**64 - 1), st.lists(st.integers(1, 2**70), max_size=20))
    def test_each_draw_scales_the_next_splitmix64(self, key, bounds):
        stream = Stream(key)
        assert [stream.below(n) for n in bounds] == draws_oracle(key, bounds)
        assert stream.next_u64() == draws_oracle(key, [*bounds, 2**64])[-1]


class TestSampleIndices:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**64 - 1), st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def test_same_draws_as_the_full_pool(self, key, n_k):
        n, k = n_k
        stream, oracle = Stream(key), Stream(key)
        assert stream.sample_indices(n, k) == sample_indices_oracle(oracle, n, k)
        # the same below() calls in the same order leave both streams in step
        assert stream.next_u64() == oracle.next_u64()

    def test_memory_does_not_grow_with_n(self):
        stream = Stream(7)
        tracemalloc.start()
        try:
            picks = stream.sample_indices(10**7, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(set(picks)) == 128 and picks == sorted(picks) and picks[-1] < 10**7
        # a pool of all ten million indices would take about 360 MB
        assert peak < 64 * 1024, peak
