import numpy as np
import pytest

from urnsir import streams
from urnsir.streams import (
    DOMAIN_INITIAL,
    DOMAIN_PAIR_CLOCKS,
    DOMAIN_RECOVERY_CLOCKS,
    DOMAIN_SAMPLING,
    DOMAIN_SIMULATION,
    derive_rng,
    exponentials,
    philox,
    replica_words,
    uniforms,
)

TOP = 2**64 - 1


def numpy_blocks(key, counter, blocks):
    """(blocks, 4) words of numpy's own Philox started at ``counter``."""
    bits = np.random.Philox(key=np.array(key, dtype=np.uint64),
                            counter=np.array(counter, dtype=np.uint64))
    return bits.random_raw(4 * blocks).reshape(blocks, 4)


def plus(counter, step):
    """counter + step as a 256-bit little-endian integer, in four words."""
    value = sum(int(w) << (64 * i) for i, w in enumerate(counter)) + step
    value %= 1 << 256
    return [(value >> (64 * i)) & TOP for i in range(4)]


def test_domain_constants_distinct():
    domains = [
        DOMAIN_SIMULATION,
        DOMAIN_INITIAL,
        DOMAIN_RECOVERY_CLOCKS,
        DOMAIN_PAIR_CLOCKS,
        DOMAIN_SAMPLING,
    ]
    assert len(set(domains)) == len(domains)


def test_same_coordinates_same_stream():
    a = derive_rng(42, DOMAIN_SIMULATION).random(16)
    b = derive_rng(42, DOMAIN_SIMULATION).random(16)
    np.testing.assert_array_equal(a, b)


def test_domain_separation():
    a = derive_rng(42, DOMAIN_SIMULATION).random(16)
    b = derive_rng(42, DOMAIN_INITIAL).random(16)
    assert not np.array_equal(a, b)


def test_index_separation():
    a = derive_rng(42, DOMAIN_RECOVERY_CLOCKS, 1).random(16)
    b = derive_rng(42, DOMAIN_RECOVERY_CLOCKS, 2).random(16)
    c = derive_rng(42, DOMAIN_RECOVERY_CLOCKS, 1, 1).random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_and_replica_separation():
    a = derive_rng(1, DOMAIN_SIMULATION).random(16)
    b = derive_rng(2, DOMAIN_SIMULATION).random(16)
    c = derive_rng(1, DOMAIN_SIMULATION, replica=1).random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_fixed_counter_layout():
    # key (seed, replica), counter (block, domain, i, j), zero-padded;
    # numpy adds one to the counter before each block, so the stream's
    # words are blocks 1, 2, ... of the block function
    rng = derive_rng(7, DOMAIN_PAIR_CLOCKS, 3, 11, replica=5)
    state = rng.bit_generator.state["state"]
    assert state["key"].tolist() == [7, 5]
    assert state["counter"].tolist() == [0, DOMAIN_PAIR_CLOCKS, 3, 11]
    short = derive_rng(7, DOMAIN_RECOVERY_CLOCKS, 3, replica=5)
    assert short.bit_generator.state["state"]["counter"].tolist() == [
        0, DOMAIN_RECOVERY_CLOCKS, 3, 0]
    words = rng.bit_generator.random_raw(8).reshape(2, 4)
    counters = [[1, DOMAIN_PAIR_CLOCKS, 3, 11], [2, DOMAIN_PAIR_CLOCKS, 3, 11]]
    np.testing.assert_array_equal(words, philox([[7, 5]] * 2, counters))


def test_rejects_non_integers():
    with pytest.raises(TypeError):
        derive_rng(1.5, DOMAIN_SIMULATION)
    with pytest.raises(TypeError):
        derive_rng(1, DOMAIN_SIMULATION, "urn")
    with pytest.raises(TypeError):
        derive_rng(True, DOMAIN_SIMULATION)
    with pytest.raises(TypeError):
        derive_rng(1, DOMAIN_SIMULATION, replica=0.5)


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        derive_rng(-1, DOMAIN_SIMULATION)
    with pytest.raises(ValueError):
        derive_rng(1, DOMAIN_SIMULATION, -3)
    with pytest.raises(ValueError):
        derive_rng(2**64, DOMAIN_SIMULATION)
    with pytest.raises(ValueError):
        derive_rng(1, DOMAIN_SIMULATION, 1, 2, 3)
    with pytest.raises(ValueError):
        replica_words(-1, [0], 4, DOMAIN_SIMULATION)


def test_numpy_integers_accepted():
    a = derive_rng(np.int64(7), DOMAIN_SIMULATION, np.int32(2)).random(4)
    b = derive_rng(7, DOMAIN_SIMULATION, 2).random(4)
    np.testing.assert_array_equal(a, b)
    assert derive_rng(TOP, DOMAIN_SIMULATION, replica=TOP).random() < 1.0


class TestBlockFunction:
    def test_random_keys_and_counters(self):
        rng = np.random.default_rng(2024)
        keys = rng.integers(0, TOP, size=(200, 2), dtype=np.uint64,
                            endpoint=True)
        counters = rng.integers(0, TOP, size=(200, 4), dtype=np.uint64,
                                endpoint=True)
        for key, counter in zip(keys, counters):
            want = numpy_blocks(key, counter, 2)
            got = philox([key] * 2, [plus(counter, 1), plus(counter, 2)])
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("counter", [
        [TOP, 5, 6, 7],
        [TOP - 1, 5, 6, 7],
        [TOP, TOP, 6, 7],
        [TOP, TOP, TOP, 7],
        [TOP, TOP, TOP, TOP],
    ])
    def test_counter_carry(self, counter):
        # numpy carries the block increment into the higher words
        key = [123456789, 987654321]
        want = numpy_blocks(key, counter, 3)
        got = philox([key] * 3, [plus(counter, b) for b in (1, 2, 3)])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 200, streams.CHUNK, streams.CHUNK + 3])
    def test_batches_around_the_chunk_length(self, n):
        # the rounds run in reused word buffers: one chunk, a full one, and
        # a full one followed by a short one; rows cycle over three keys
        rng = np.random.default_rng(n)
        keys = rng.integers(0, TOP, size=(3, 2), dtype=np.uint64,
                            endpoint=True)
        starts = rng.integers(0, TOP, size=(3, 4), dtype=np.uint64,
                              endpoint=True)
        which = np.arange(n) % 3
        block = np.arange(n) // 3
        streams_of = [numpy_blocks(key, start, block[-1] + 1)
                      for key, start in zip(keys, starts)]
        want = np.array([streams_of[q][b] for q, b in zip(which, block)])
        counters = [plus(starts[q], int(b) + 1)
                    for q, b in zip(which, block)]
        np.testing.assert_array_equal(philox(keys[which], counters), want)

    def test_chunks_join_seamlessly(self, monkeypatch):
        keys = [[3, r] for r in range(11)]
        counters = [[1, DOMAIN_INITIAL, 1, 0]] * 11
        whole = philox(keys, counters)
        monkeypatch.setattr(streams, "CHUNK", 4)
        np.testing.assert_array_equal(philox(keys, counters), whole)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            philox([[1, 2]], [[1, 2, 3]])


class TestReplicaWords:
    def test_rows_are_single_streams(self):
        words = replica_words(9, [0, 4, 2], 10, DOMAIN_PAIR_CLOCKS, 1, 3)
        for row, r in zip(words, (0, 4, 2)):
            rng = derive_rng(9, DOMAIN_PAIR_CLOCKS, 1, 3, replica=r)
            np.testing.assert_array_equal(row, rng.bit_generator.random_raw(10))

    def test_first_block_skips_whole_blocks(self):
        words = replica_words(9, [6], 8, DOMAIN_SIMULATION, first_block=4)
        rng = derive_rng(9, DOMAIN_SIMULATION, replica=6)
        np.testing.assert_array_equal(
            words[0], rng.bit_generator.random_raw(20)[12:])


def numpy_words(seed, replica, n_words, domain, index=(), first_block=1):
    """n_words of numpy's own Philox from block first_block of a stream."""
    counter = [first_block - 1, domain, *index, *[0] * (2 - len(index))]
    bits = np.random.Philox(key=np.array([seed, replica], dtype=np.uint64),
                            counter=np.array(counter, dtype=np.uint64))
    return bits.random_raw(n_words)


@pytest.fixture(params=["rule", "native", "vector"])
def path(request, monkeypatch):
    """replica_words as it picks its path, and forced onto each path."""
    if request.param == "native":
        monkeypatch.setattr(streams, "NATIVE_STREAMS", 1 << 62)
    elif request.param == "vector":
        monkeypatch.setattr(streams, "NATIVE_BLOCKS", 1 << 62)
        monkeypatch.setattr(streams, "NATIVE_STREAMS", -1)
    return request.param


class TestReplicaWordPaths:
    """Both evaluators of replica_words give numpy's Philox words."""

    # the rule's constants as imported, before any test forces a path
    MANY = np.arange(streams.NATIVE_STREAMS + 1) * 7
    LONG = streams.NATIVE_BLOCKS

    def check(self, seed, replicas, n_words, domain, index=(),
              first_block=1):
        got = replica_words(seed, replicas, n_words, domain, *index,
                            first_block=first_block)
        assert got.dtype == np.uint64
        assert got.shape == (len(replicas), n_words)
        for row, r in zip(got, replicas):
            np.testing.assert_array_equal(
                row, numpy_words(seed, int(r), n_words, domain, index,
                                 first_block))

    @pytest.mark.parametrize("blocks", [streams.NATIVE_BLOCKS - 1,
                                        streams.NATIVE_BLOCKS])
    def test_blocks_at_and_below_the_crossover(self, path, blocks):
        self.check(11, self.MANY, 4 * blocks, DOMAIN_SIMULATION)

    @pytest.mark.parametrize("n_words", [1, 3, 5, 4 * streams.NATIVE_BLOCKS
                                         + 2])
    def test_words_not_a_multiple_of_four(self, path, n_words):
        self.check(11, self.MANY, n_words, DOMAIN_INITIAL, (1,))

    def test_later_first_block(self, path):
        self.check(11, self.MANY, 10, DOMAIN_SIMULATION, first_block=37)
        self.check(11, [3], 4 * self.LONG, DOMAIN_SIMULATION, first_block=2)

    def test_two_index_words(self, path):
        self.check(5, self.MANY, 9, DOMAIN_PAIR_CLOCKS, (1, 3))
        self.check(5, [0, 2], 9, DOMAIN_PAIR_CLOCKS, (TOP, TOP))

    @pytest.mark.parametrize("replicas", [
        [9, 2, 5, 0],
        [4, 4, 1, 4],
        np.arange(200)[::-1] % 37,
        [],
    ], ids=["unsorted", "repeated", "many-repeated", "empty"])
    def test_replica_lists(self, path, replicas):
        self.check(2, np.array(replicas, dtype=np.int64), 6,
                   DOMAIN_RECOVERY_CLOCKS, (1,))

    def test_largest_seed_and_replica(self, path):
        self.check(TOP, [TOP, 0, TOP - 1], 7, DOMAIN_SAMPLING, (TOP,))

    def test_path_follows_the_call_shape(self, monkeypatch):
        # long or few streams read numpy's Philox, many short ones the
        # vectorised block function
        taken = []
        for name in ("_native_words", "_vector_words"):
            monkeypatch.setattr(streams, name,
                                lambda *a, name=name: taken.append(name))
        few, many = streams.NATIVE_STREAMS, streams.NATIVE_STREAMS + 1
        long, short = streams.NATIVE_BLOCKS, streams.NATIVE_BLOCKS - 1
        for r, blocks in ((1, 1), (few, short), (many, long), (many, short)):
            replica_words(1, np.arange(r), 4 * blocks, DOMAIN_SIMULATION)
        assert taken == ["_native_words"] * 3 + ["_vector_words"]

    @pytest.mark.parametrize("r", [0, 3, streams.NATIVE_STREAMS + 5])
    def test_no_words(self, path, r):
        words = replica_words(1, np.arange(r), 0, DOMAIN_SIMULATION)
        assert words.shape == (r, 0) and words.dtype == np.uint64

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            replica_words(1, [0], -1, DOMAIN_SIMULATION)
        with pytest.raises(ValueError):
            replica_words(1, [0], 4, DOMAIN_SIMULATION, first_block=0)


class TestTransforms:
    def test_uniforms_are_generator_random(self):
        rng = derive_rng(5, DOMAIN_INITIAL, 1)
        same = derive_rng(5, DOMAIN_INITIAL, 1)
        np.testing.assert_array_equal(
            uniforms(rng.bit_generator.random_raw(64)), same.random(64))

    def test_exponentials_finite_and_positive(self):
        extremes = np.array([0, 1, 2**12 - 1, 2**12, TOP - 2**12, TOP],
                            dtype=np.uint64)
        values = exponentials(extremes)
        assert np.all(np.isfinite(values)) and np.all(values > 0.0)
        assert values[0] == pytest.approx(53 * np.log(2.0))
        assert values[-1] == pytest.approx(2.0**-53)

    def test_exponentials_have_unit_mean(self):
        words = derive_rng(8, DOMAIN_SAMPLING).bit_generator.random_raw(200_000)
        values = exponentials(words)
        assert abs(values.mean() - 1.0) < 5 * (1 / np.sqrt(values.size))
        assert abs(values.var() - 1.0) < 0.02
