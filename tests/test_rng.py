"""Bit-level tests for the deterministic stream generator."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extremecast.rng import (_LANE_LEN, Rng, _box_muller, _draw, _jump,
                             _jump_table, _seed_states, gaussian_rows,
                             uniform_rows)

MASK = (1 << 64) - 1


# ------------------------------------------ scalar seeding, the reference


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of the UTF-8 encoding of ``text``."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK
    return h


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once.  Returns (output, new_state)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    z = z ^ (z >> 31)
    return z, state


def seed_words_ref(seed: int, stream: str) -> list[int]:
    """The four state words of (seed, stream), one Python int at a time."""
    material = (seed & MASK) ^ fnv1a64(stream)
    words = []
    for _ in range(4):
        out, material = splitmix64(material)
        words.append(out)
    if not any(words):
        words[0] = 1
    return words


def test_fnv1a64_known_vectors():
    # empty input hashes to the offset basis; "a" is the published FNV-1a vector
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C


def test_splitmix64_reference_vector():
    # first output of the reference splitmix64 implementation for state 0
    out, state = splitmix64(0)
    assert out == 0xE220A8397B1DCDAF
    assert state == 0x9E3779B97F4A7C15


LABELS = st.lists(st.one_of(
    st.sampled_from(["", "é", "温度", "jitter/0", "tempmax", "a" * 40]),
    st.text(max_size=12),
    st.integers(0, 10**6)), max_size=30)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.sampled_from([0, 2**64 - 1, -1, 2**64 + 5, 12345]),
       parent=st.sampled_from(["", "augment", "permutation"]),
       labels=LABELS)
def test_substreams_match_scalar_seeding_word_for_word(seed, parent, labels):
    # mixed byte lengths, duplicates (the sampled labels repeat), and labels
    # whose UTF-8 bytes outnumber their characters
    labels = labels + labels[:3]
    base = Rng(seed, parent)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        children = base.substreams(labels)
        streams = [f"{parent}/{label}" for label in labels]
        states = _seed_states(seed, streams)
        bare = _seed_states(seed, [parent, ""])
    assert states.dtype == np.uint64 and states.shape == (len(labels), 4)
    assert bare.tolist() == [seed_words_ref(seed, parent),
                             seed_words_ref(seed, "")]
    for child, stream, words in zip(children, streams, states.tolist()):
        want = seed_words_ref(seed, stream)
        assert words == want
        assert (child.seed, child.stream) == (seed & MASK, stream)
        assert child._s == want
    assert [c._s for c in children] == \
        [base.substream(label)._s for label in labels]


def test_stream_golden_values():
    r = Rng(12345, "init")
    assert [r.next_u64() for _ in range(4)] == [
        3070131837505314697,
        5780745895250250556,
        3870135759695093755,
        13105209780683511022,
    ]
    assert Rng(12345, "augment").uniform() == 0.7153857303816963


def test_replay_is_bit_identical():
    a = Rng(99, "shuffle")
    b = Rng(99, "shuffle")
    for _ in range(100):
        assert a.next_u64() == b.next_u64()
    npt.assert_array_equal(a.uniform_array(50), b.uniform_array(50))
    npt.assert_array_equal(a.gaussian_array(50), b.gaussian_array(50))


def test_streams_differ_by_label_and_seed():
    base = [Rng(5, "init").next_u64() for _ in range(64)]
    assert base != [Rng(5, "dropout").next_u64() for _ in range(64)]
    assert base != [Rng(6, "init").next_u64() for _ in range(64)]
    sub = Rng(5, "augment").substream("jitter/3")
    assert sub.stream == "augment/jitter/3"
    assert sub.next_u64() == Rng(5, "augment/jitter/3").next_u64()


def test_bulk_fill_matches_scalar_path():
    bulk = Rng(7, "dropout").uniform_array(5000)
    ref = Rng(7, "dropout")
    expect = np.array([ref.uniform() for _ in range(5000)])
    npt.assert_array_equal(bulk, expect)


# inside one lane, at and just past the lane and 8-lane boundaries, and lane
# counts that are not a power of two, so the last doubling round is partial
# (416 = 13 lanes)
@pytest.mark.parametrize("n", [0, 1, 2, 5, 31, 32, 33, 255, 256, 257,
                               13 * _LANE_LEN, 13 * _LANE_LEN + 1, 1000, 61440])
def test_bulk_draws_match_scalar_stream_and_continue_it(n):
    ref = Rng(21, "dropout")
    expect = [ref.next_u64() for _ in range(n + 1)]
    raw = Rng(21, "dropout")
    state = np.array([raw._s], dtype=np.uint64)
    npt.assert_array_equal(_draw(state, n)[0], np.array(expect[:n], dtype=np.uint64))
    # the state ends exactly where n scalar calls leave it
    for _ in range(n):
        raw.next_u64()
    assert state[0].tolist() == raw._s
    r = Rng(21, "dropout")
    u = r.uniform_array(n)
    npt.assert_array_equal(u, np.array([(x >> 11) * 2.0**-53 for x in expect[:n]]))
    # the stream resumes at draw n + 1
    assert r.next_u64() == expect[n]


@pytest.mark.parametrize("level", [0, 2])
def test_jump_table_equals_scalar_steps(level):
    r = Rng(4, "init")
    start = np.array([r._s], dtype=np.uint64)
    for _ in range(_LANE_LEN * 2**level):
        r.next_u64()
    assert _jump(start, _jump_table(level))[0].tolist() == r._s


@pytest.mark.parametrize("n", [1, 7, 1800])
def test_gaussian_rows_match_each_stream(n):
    rngs = [Rng(3, "augment").substream(f"jitter/{i}") for i in range(5)]
    rows = gaussian_rows(rngs, n, 0.0, 0.03)
    assert rows.shape == (5, n)
    for i, r in enumerate(rngs):
        own = Rng(3, "augment").substream(f"jitter/{i}")
        # Box-Muller on the stream's next 2 n scalar uniforms
        u = np.array([own.uniform() for _ in range(2 * n)])
        assert rows[i].tobytes() == (0.0 + 0.03 * _box_muller(u)).tobytes()
        # each stream advanced by its own 2 n draws
        assert r._s == own._s
    one = Rng(3, "augment").substream("jitter/0").gaussian_array(n, 0.0, 0.03)
    assert one.tobytes() == rows[0].tobytes()


def test_uniform_rows_match_each_stream():
    rngs = Rng(3, "augment").substreams(range(4))
    rows = uniform_rows(rngs, 3, 0.9, 1.1)
    for i, r in enumerate(rngs):
        own = Rng(3, "augment").substream(i)
        assert rows[i].tolist() == [own.uniform(0.9, 1.1) for _ in range(3)]
        assert r._s == own._s


def test_uniform_range_and_mantissa_rule():
    r = Rng(1, "init")
    xs = r.uniform_array(10000)
    assert np.all(xs >= 0.0) and np.all(xs < 1.0)
    assert abs(xs.mean() - 0.5) < 0.02
    # the mantissa rule reproduces uniform() from the raw draw
    r2 = Rng(1, "init")
    raw = r2.next_u64()
    assert (raw >> 11) * 2.0**-53 == Rng(1, "init").uniform()
    lo, hi = -3.0, 7.0
    ys = Rng(2, "init").uniform_array(1000, lo, hi)
    assert np.all(ys >= lo) and np.all(ys < hi)


def test_gaussian_moments_and_pairing():
    zs = Rng(4, "init").gaussian_array(20000)
    assert abs(zs.mean()) < 0.03
    assert abs(zs.std() - 1.0) < 0.03
    # value i is Box-Muller on uniforms 2i and 2i+1, and n values consume
    # exactly 2n uniforms
    r = Rng(11, "augment")
    u = [r.uniform() for _ in range(6)]
    expect = [math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)
              for u1, u2 in zip(u[0::2], u[1::2])]
    g = Rng(11, "augment")
    npt.assert_allclose(g.gaussian_array(3), expect, rtol=1e-15, atol=0)
    assert g.uniform() == r.uniform()


def test_gaussian_sigma_zero_returns_mu_exactly():
    npt.assert_array_equal(Rng(0, "init").gaussian_array(10, -1.5, 0.0), np.full(10, -1.5))


def test_randint_and_permutation():
    r = Rng(8, "shuffle")
    draws = [r.randint(10) for _ in range(1000)]
    assert min(draws) == 0 and max(draws) == 9
    with pytest.raises(ValueError):
        r.randint(0)
    perm = Rng(8, "shuffle").permutation(50)
    assert sorted(perm.tolist()) == list(range(50))
    npt.assert_array_equal(perm, Rng(8, "shuffle").permutation(50))
