"""Counter-based random streams keyed by (seed, replica).

Every random word in the package is an output word of the Philox4x64-10
block function (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC'11) under

    key     = (seed, replica)
    counter = (block, domain, i, j)

one 64-bit word each.  A stream is the tuple (seed, replica, domain, i, j);
its words are blocks 1, 2, 3, ... in order, four words per block.  The
domain constants below separate event draws, initial states, clock tables
and report sampling, and (i, j) index within a domain (bank and target urn
for clock rows), zero where a domain uses fewer.  The layout is fixed, so a
missing index is the index 0.  This rule is the whole reproducibility
contract: nothing else in the package draws randomness.

Two evaluators give the same words.  numpy's own bit generator,
``np.random.Philox(key=..., counter=...)``, adds one to the counter before
each block, so :func:`derive_rng` starts it at counter (0, domain, i, j).
:func:`philox` evaluates the block function in numpy for many keys and
counters at once; it works through at most ``CHUNK`` counters at a time,
which bounds its temporaries.  :func:`replica_words`, the one stream of
many replicas or of one, reads every value but the report sampling's
(:func:`derive_rng`).  It takes numpy's Philox, one generator per thread
re-keyed for each replica, when the streams are long (``NATIVE_BLOCKS``
blocks or more) or few (at most ``NATIVE_STREAMS``), and the vectorised
evaluator for many short streams, where numpy's fixed cost per stream
outweighs the vectorised cost per block (``scripts/engine_bench.py
--streams`` places the crossover).

Words become numbers one way: :func:`uniforms` is (w >> 11) 2^-53 on
[0, 1), what ``Generator.random`` returns from the same words, and
:func:`exponentials` is -log of ((w >> 12) + 1/2) 2^-52, a uniform on the
open interval (0, 1), so every holding time and clock is finite and
strictly positive.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "derive_rng",
    "check_replicas",
    "philox",
    "replica_words",
    "uniforms",
    "exponentials",
    "CHUNK",
    "NATIVE_BLOCKS",
    "NATIVE_STREAMS",
    "DOMAIN_SIMULATION",
    "DOMAIN_INITIAL",
    "DOMAIN_RECOVERY_CLOCKS",
    "DOMAIN_PAIR_CLOCKS",
    "DOMAIN_SAMPLING",
]

DOMAIN_SIMULATION = 1  # event draws of the jump chain, one block per event
DOMAIN_INITIAL = 2  # initial states, i = bank (bank 1 is sample_initial)
DOMAIN_RECOVERY_CLOCKS = 3  # recovery clocks, i = bank
DOMAIN_PAIR_CLOCKS = 4  # pair clocks, i = bank, j = target urn (0-based)
DOMAIN_SAMPLING = 6  # auxiliary sampling in reports (pair selection etc.)

CHUNK = 1 << 14  # counters per vectorised block evaluation
# replica_words takes numpy's Philox for streams of at least NATIVE_BLOCKS
# blocks or for at most NATIVE_STREAMS streams (measured crossover,
# BENCH_23.json), the vectorised evaluator otherwise
NATIVE_BLOCKS = 20
NATIVE_STREAMS = 64

# each thread's numpy Philox that _native_words re-keys for every stream,
# built at first use: np.random loads modules that importing need not
_NATIVE = threading.local()

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_ROUNDS = 10
_WORD_MAX = (1 << 64) - 1
# the key words of round r are the key plus r (W0, W1), mod 2^64
_KEY_BUMPS = [(np.uint64(r * 0x9E3779B97F4A7C15 & _WORD_MAX),
               np.uint64(r * 0xBB67AE8584CAA73B & _WORD_MAX))
              for r in range(_ROUNDS)]


def _check_component(value: int) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError("stream key components must be integers")
    if not 0 <= value <= _WORD_MAX:
        raise ValueError("stream key components must lie in [0, 2^64)")
    return int(value)


def check_replicas(replicas) -> np.ndarray:
    """Replica numbers as a flat uint64 array, each checked as
    :func:`derive_rng` checks one: an integer in [0, 2^64).

    An integer array is checked by its minimum; anything else element by
    element as Python objects, since numpy would turn a list that mixes
    negative or 2^63-and-above numbers into floats.
    """
    if isinstance(replicas, np.ndarray) and replicas.dtype.kind in "iu":
        replicas = replicas.reshape(-1)
        if replicas.dtype.kind == "i" and replicas.size and replicas.min() < 0:
            raise ValueError("stream key components must lie in [0, 2^64)")
        return replicas.astype(np.uint64, copy=False)
    items = np.asarray(replicas, dtype=object).reshape(-1).tolist()
    return np.array([_check_component(r) for r in items], dtype=np.uint64)


def _counter(domain: int, index: tuple) -> list[int]:
    if len(index) > 2:
        raise ValueError("a stream takes at most two index words")
    words = [_check_component(v) for v in (domain, *index)]
    return [0, *words, *[0] * (2 - len(index))]


def derive_rng(seed: int, domain: int, *index: int,
               replica: int = 0) -> np.random.Generator:
    """Stream (seed, replica, domain, *index) as a numpy Generator.

    Its bit generator is numpy's Philox at key (seed, replica) and counter
    (0, domain, *index), zero-padded to four words; ``random_raw`` reads
    the stream's words from block 1 on.
    """
    key = [_check_component(seed), _check_component(replica)]
    bits = np.random.Philox(key=np.array(key, dtype=np.uint64),
                            counter=np.array(_counter(domain, index),
                                             dtype=np.uint64))
    return np.random.Generator(bits)


def _mulhi_xor(m: int, x: np.ndarray, acc: np.ndarray, t: list) -> None:
    """acc ^= the high word of the 128-bit product m * x, elementwise.

    Fourteen in-place operations on 32-bit halves (Warren, Hacker's
    Delight, 8-2), with the four work buffers ``t``; x is left as it is.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi, w, u = t
    np.bitwise_and(x, _MASK32, out=x_lo)
    np.right_shift(x, _SHIFT32, out=x_hi)
    np.multiply(x_lo, m_lo, out=w)
    w >>= _SHIFT32
    np.multiply(x_hi, m_lo, out=u)
    u += w  # x_hi m_lo + carry of x_lo m_lo: below 2^64
    np.bitwise_and(u, _MASK32, out=w)
    u >>= _SHIFT32
    x_lo *= m_hi
    w += x_lo
    w >>= _SHIFT32
    x_hi *= m_hi
    x_hi += u
    x_hi += w
    acc ^= x_hi


def _philox_chunk(key: np.ndarray, ctr: np.ndarray, out: np.ndarray,
                  buf: np.ndarray) -> None:
    """Philox4x64-10 blocks of ``ctr`` under ``key`` into ``out``, (n, 4).

    The ten rounds run in place on the eight word rows of ``buf``, (8, >= n):
    four counter words and four work words.  A round XORs its key words
    into c1 and c3, then the high products of c2 and c0 into them, and
    turns c2 and c0 into their low products; naming the four rows anew
    gives the next (c0, c1, c2, c3) without a copy.
    """
    n = len(key)
    c0, c1, c2, c3, *t = buf[:, :n]
    for word, row in zip(ctr.T, (c0, c1, c2, c3)):
        row[...] = word
    for bump0, bump1 in _KEY_BUMPS:
        c1 ^= np.add(key[:, 0], bump0, out=t[0])
        c3 ^= np.add(key[:, 1], bump1, out=t[0])
        _mulhi_xor(_M1, c2, c1, t)
        _mulhi_xor(_M0, c0, c3, t)
        c2 *= _M1
        c0 *= _M0
        c0, c1, c2, c3 = c1, c2, c3, c0
    for row, word in zip((c0, c1, c2, c3), out.T):
        word[...] = row


def philox(key: np.ndarray, counter: np.ndarray) -> np.ndarray:
    """Philox4x64-10 blocks: (n, 4) words for (n, 2) keys and (n, 4) counters.

    The block function itself, with no counter increment: the words of
    ``np.random.Philox(key=k, counter=c).random_raw(4)`` are
    ``philox(k, c + 1)``.  At most ``CHUNK`` counters are evaluated at a
    time, in eight reused word buffers of that length.
    """
    key = np.asarray(key, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    if key.ndim != 2 or key.shape[1] != 2 or counter.shape != (len(key), 4):
        raise ValueError("need (n, 2) keys and (n, 4) counters")
    out = np.empty((len(key), 4), dtype=np.uint64)
    buf = np.empty((8, min(len(key), CHUNK)), dtype=np.uint64)
    for lo in range(0, len(key), CHUNK):
        hi = lo + CHUNK
        _philox_chunk(key[lo:hi], counter[lo:hi], out[lo:hi], buf)
    return out


def replica_words(seed: int, replicas, n_words: int, domain: int,
                  *index: int, first_block: int = 1) -> np.ndarray:
    """(len(replicas), n_words) words of one stream for many replicas.

    Row q holds the words of stream (seed, replicas[q], domain, *index)
    from block ``first_block`` on: for first_block = 1 the same words as
    ``derive_rng(seed, domain, *index, replica=replicas[q])`` gives.  One
    replica is the batch of one, a single row.  Long or few streams are
    read from numpy's Philox, many short ones evaluated together, about
    ``CHUNK`` counters at a time; both give the same words.
    """
    if n_words < 0:
        raise ValueError("n_words must be >= 0")
    if first_block < 1:
        raise ValueError("first_block must be >= 1")
    replicas = check_replicas(replicas)
    seed = _check_component(seed)
    ctr = np.array(_counter(domain, index), dtype=np.uint64)
    n_blocks = -(-n_words // 4)
    if n_blocks == 0 or replicas.size == 0:
        return np.empty((replicas.size, n_words), dtype=np.uint64)
    if n_blocks >= NATIVE_BLOCKS or replicas.size <= NATIVE_STREAMS:
        return _native_words(seed, replicas, n_words, ctr, first_block)
    return _vector_words(seed, replicas, n_words, ctr, first_block)


def _native_words(seed: int, replicas: np.ndarray, n_words: int,
                  ctr: np.ndarray, first_block: int) -> np.ndarray:
    """:func:`replica_words` from numpy's Philox, re-keyed per replica.

    One Philox per thread serves every call: for each row the ``state``
    setter gives it the key (seed, replica) and the counter
    first_block - 1, with the word buffer empty, and the row reads
    ``n_words`` words.  A new Philox would cost more than the re-key: its
    constructor gathers OS entropy that the key then discards.
    """
    key = np.array([seed, 0], dtype=np.uint64)
    ctr = ctr.copy()
    ctr[0] = first_block - 1
    # the state of a fresh generator at each key: buffer_pos 4 marks the
    # word buffer empty, so the next word starts block first_block
    state = {"bit_generator": "Philox",
             "state": {"counter": ctr, "key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    out = np.empty((replicas.size, n_words), dtype=np.uint64)
    bits = getattr(_NATIVE, "philox", None)
    if bits is None:
        bits = _NATIVE.philox = np.random.Philox(0)
    for q, replica in enumerate(replicas.tolist()):
        key[1] = replica
        bits.state = state
        out[q] = bits.random_raw(n_words)
    return out


def _vector_words(seed: int, replicas: np.ndarray, n_words: int,
                  ctr: np.ndarray, first_block: int) -> np.ndarray:
    """:func:`replica_words` by the vectorised block function, whole
    streams of about ``CHUNK`` counters at a time."""
    n_blocks = -(-n_words // 4)
    blocks = np.arange(first_block, first_block + n_blocks, dtype=np.uint64)
    out = np.empty((replicas.size, 4 * n_blocks), dtype=np.uint64)
    step = max(1, CHUNK // n_blocks)
    for lo in range(0, replicas.size, step):
        rows = replicas[lo:lo + step]
        counters = np.tile(ctr, (rows.size * n_blocks, 1))
        counters[:, 0] = np.tile(blocks, rows.size)
        keys = np.empty((len(counters), 2), dtype=np.uint64)
        keys[:, 0] = seed
        keys[:, 1] = np.repeat(rows, n_blocks)
        out[lo:lo + step] = philox(keys, counters).reshape(rows.size, -1)
    return out[:, :n_words]


def uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1): (w >> 11) * 2^-53, as ``Generator.random``."""
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def exponentials(words: np.ndarray) -> np.ndarray:
    """Standard exponentials -log(u), u = ((w >> 12) + 1/2) 2^-52 in (0, 1).

    u lies in [2^-53, 1 - 2^-53], so every value is finite and positive.
    """
    u = ((words >> np.uint64(12)) + 0.5) * (1.0 / 4503599627370496.0)
    return -np.log(u)
