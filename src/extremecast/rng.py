"""Deterministic pseudo-random streams for every stochastic stage.

One concrete algorithm, fixed here so independent reimplementations can match
bit for bit:

* Stream seeding: ``material = (seed XOR fnv1a64(stream_label)) mod 2**64``
  where ``fnv1a64`` is the 64-bit FNV-1a hash of the label's UTF-8 bytes
  (offset basis 0xcbf29ce484222325, prime 0x100000001b3).  The four 64-bit
  state words are the first four outputs of a splitmix64 sequence started at
  ``material`` (state advances by 0x9e3779b97f4a7c15 per output).  The
  all-zero state is repaired to (1, 0, 0, 0); splitmix makes it unreachable
  in practice.  ``_seed_states`` is the one implementation and works on
  arrays: labels of equal byte length hash together as one uint64 column,
  byte column by byte column (XOR, then numpy's wrapping multiply by the
  prime), and the four splitmix64 outputs of every label are one pass over
  an [m, 4] array.  ``Rng.substreams`` seeds many children with one call; a
  single ``Rng`` is a batch of one.
* Generator: xoshiro256**.  Per draw, with 64-bit wrapping arithmetic::

      out = rotl64(s1 * 5, 7) * 9
      t   = s1 << 17
      s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t; s3 = rotl64(s3, 45)

* ``uniform`` maps one raw draw to a double via the 53-bit mantissa rule
  ``(out >> 11) * 2**-53`` giving u in [0, 1), then ``lo + u * (hi - lo)``.
* ``gaussian_array`` is Box-Muller: value i consumes the uniforms u1, u2 at
  positions 2i and 2i+1 of the stream and is
  ``mu + sigma * sqrt(-2 ln(1 - u1)) * cos(2 pi u2)``.  ``1 - u1`` is never
  zero because u1 <= 1 - 2**-53.
* ``randint(n)`` uses rejection sampling on raw draws so every value in
  ``range(n)`` is exactly equally likely: reject draws >= 2**64 - (2**64 % n).

Substreams are ordinary streams whose label is slash-joined onto the parent
label, e.g. ``Rng(seed, "augment").substream("jitter/17")`` reads the stream
``"augment/jitter/17"``.  Golden test vectors, and the scalar FNV-1a and
splitmix64 that pin the array seeding, live in tests/test_rng.py.

Every array fill takes one vectorised path that gives the same draws as the
scalar ``next_u64`` loop.  The xoshiro256** state transition A is linear over
GF(2), so jumping a state ahead by a fixed count is exact (Blackman & Vigna,
*Scrambled Linear Pseudorandom Number Generators*, 2021).  The stream is cut
into lanes of ``_LANE_LEN`` draws; jump tables, holding the images of the 256
one-bit basis states under A^(_LANE_LEN * 2**k) and built once per process,
move each lane to its start, and one numpy kernel steps every lane in
lockstep, for one stream or for many at once (``gaussian_rows``).  Tests in
tests/test_rng.py pin it against the scalar loop.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

# draws per lane when a stream is split; the jump tables step by multiples of
# it.  Shorter lanes mean fewer lockstep steps but more jumps: a 61,440-draw
# request took 2.1 / 1.5 / 1.65 ms at 16 / 32 / 64 on the same machine.
_LANE_LEN = 32


# splitmix64 state k (k = 1..4) is material + k * gamma, so the four outputs
# are one pass over an [m, 4] array
_SPLITMIX_STATES = np.array([k * _SPLITMIX_GAMMA & _MASK for k in range(1, 5)],
                            dtype=np.uint64)


def _seed_states(seed: int, streams: list[str]) -> np.ndarray:
    """uint64 [len(streams), 4]: the seeded state words of each stream.

    Labels are grouped by UTF-8 byte length, and each group runs FNV-1a one
    byte column at a time.  All arithmetic is on uint64 arrays, which wrap
    modulo 2**64 without the overflow warnings of numpy scalars.
    """
    encoded = [s.encode("utf-8") for s in streams]
    lengths = np.array([len(b) for b in encoded], dtype=np.intp)
    material = np.empty(len(encoded), dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for length in set(lengths.tolist()):
        rows = lengths == length
        group = [b for b in encoded if len(b) == length]
        octets = np.frombuffer(b"".join(group), dtype=np.uint8)
        h = np.full(len(group), _FNV_OFFSET, dtype=np.uint64)
        for column in octets.reshape(len(group), length).T.astype(np.uint64):
            h ^= column
            h *= prime
        material[rows] = h
    material ^= np.uint64(seed & _MASK)
    z = material[:, None] + _SPLITMIX_STATES
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z[~z.any(axis=1), 0] = 1
    return z


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def _step_lanes(state: np.ndarray, out: np.ndarray) -> None:
    """Step m xoshiro256** states in lockstep, one row of ``out`` per step.

    ``state`` is a uint64 [4, m] array whose column j is lane j's (s0, s1, s2,
    s3); it advances in place by ``len(out)`` steps, and ``out[i, j]`` receives
    draw i of lane j.  The loop stores s1 and the scrambler runs once over the
    whole block, so a step costs ten ufunc calls on length-m rows.
    """
    s0, s1, s2, s3 = state
    t = np.empty_like(s1)
    for row in out:
        row[...] = s1
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.right_shift(s3, 19, out=t)
        s3 <<= 45
        s3 |= t
    out *= 5
    t = out >> 57
    out <<= 7
    out |= t
    out *= 9


def _jump(words: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Apply a jump table to uint64 [k, 4] states.

    The state transition is linear over GF(2), so a state's image is the XOR
    of the images of its 32 bytes, each read from the table.
    """
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    rows = octets.T + 256 * np.arange(32)[:, None]
    return np.bitwise_xor.reduce(np.take(table.reshape(-1, 4), rows, axis=0), axis=0)


@functools.cache
def _jump_table(level: int) -> np.ndarray:
    """uint64 [32, 256, 4] jump table for ``_LANE_LEN * 2**level`` steps.

    Entry [c, v] is the image of the state whose byte c (of its 32
    little-endian bytes) is v and whose other bytes are zero, so the entries
    [c, 1 << j] are the images of the 256 one-bit basis states.  Level 0 steps
    those basis states with the lane kernel; level k + 1 jumps level k's basis
    images by level k once more.  All of it is exact uint64 XOR.
    """
    if level:
        below = _jump_table(level - 1)
        images = _jump(below[:, 1 << np.arange(8)].reshape(256, 4), below)
    else:
        bit = np.arange(256)
        basis = np.zeros((4, 256), dtype=np.uint64)
        basis[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
        _step_lanes(basis, np.empty((_LANE_LEN, 256), dtype=np.uint64))
        images = basis.T
    rows = images.reshape(32, 8, 4)
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for j in range(8):
        table[:, 1 << j:2 << j] = table[:, :1 << j] ^ rows[:, j, None]
    table.setflags(write=False)  # cached and shared by every caller
    return table


def _draw(states: np.ndarray, n: int) -> np.ndarray:
    """uint64 [m, n]: the next n raw draws of each of m streams.

    ``states`` is uint64 [m, 4] and advances in place by n draws, exactly as n
    ``next_u64`` calls would move it.  Each stream is cut into lanes of
    ``_LANE_LEN`` draws and the lanes double each round: lanes [d, 2d) are
    lanes [0, d) jumped by d lane lengths.  Then every lane of every stream
    steps in lockstep, lane j of stream i in column j * m + i.
    """
    m = len(states)
    lanes = -(-n // _LANE_LEN) or 1
    starts = np.empty((lanes, m, 4), dtype=np.uint64)
    starts[0] = states
    done, level = 1, 0
    while done < lanes:
        k = min(done, lanes - done)
        jumped = _jump(starts[:k].reshape(-1, 4), _jump_table(level))
        starts[done:done + k] = jumped.reshape(k, m, 4)
        done += k
        level += 1
    lane_state = np.ascontiguousarray(starts.reshape(-1, 4).T)
    tail = n - (lanes - 1) * _LANE_LEN  # draws taken from each last lane
    out = np.empty((_LANE_LEN, lanes * m), dtype=np.uint64)
    _step_lanes(lane_state, out[:tail])
    states[:] = lane_state[:, -m:].T
    if lanes > 1:  # the earlier lanes finish their _LANE_LEN draws
        _step_lanes(lane_state[:, :-m], out[tail:, :-m])
    return out.reshape(_LANE_LEN, lanes, m).transpose(2, 1, 0).reshape(m, -1)[:, :n]


def _unit(raw: np.ndarray) -> np.ndarray:
    """The 53-bit mantissa rule: raw draws -> doubles in [0, 1)."""
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _box_muller(d: np.ndarray) -> np.ndarray:
    """Box-Muller on consecutive uniform pairs along the last axis of ``d``."""
    u1 = d[..., 0::2]
    u2 = d[..., 1::2]
    return np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)


class Rng:
    """A named deterministic stream over xoshiro256**.

    Parameters
    ----------
    seed : int
        Master seed shared by every stream of a run.
    stream : str
        Stream label ("init", "dropout", "augment", "shuffle", "kmeans", ...).
        Distinct labels give decorrelated sequences for the same seed.
    """

    __slots__ = ("seed", "stream", "_s")

    def __init__(self, seed: int, stream: str = "", *,
                 _state: list[int] | None = None):
        if not isinstance(seed, int):
            raise TypeError("seed must be an int")
        self.seed = seed & _MASK
        self.stream = stream
        if _state is None:  # substreams hands over the row it seeded
            _state = _seed_states(self.seed, [stream])[0].tolist()
        self._s = _state

    def substream(self, label: str | int) -> "Rng":
        """Derive an independent child stream from (seed, parent label, label)."""
        return Rng(self.seed, f"{self.stream}/{label}")

    def substreams(self, labels) -> list["Rng"]:
        """``[self.substream(l) for l in labels]``, seeded in one array pass."""
        streams = [f"{self.stream}/{label}" for label in labels]
        states = _seed_states(self.seed, streams).tolist()
        return [Rng(self.seed, s, _state=w) for s, w in zip(streams, states)]

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        out = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return out

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + u * (hi - lo)

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if not isinstance(shape, int) else shape
        return uniform_rows([self], n, lo, hi)[0].reshape(shape)

    def gaussian_array(self, shape, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        n = int(np.prod(shape)) if not isinstance(shape, int) else shape
        return gaussian_rows([self], n, mu, sigma)[0].reshape(shape)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (no modulo bias)."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        if n == 1:
            return 0
        bound = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < bound:
                return r % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        idx = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.randint(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx


def _fill(rngs: list[Rng], n: int) -> np.ndarray:
    """uint64 [len(rngs), n]: the next n raw draws of each stream, which
    advances by n, as n ``next_u64`` calls would move it."""
    states = np.array([r._s for r in rngs], dtype=np.uint64)
    raw = _draw(states, n)
    for r, words in zip(rngs, states.tolist()):
        r._s = words
    return raw


def uniform_rows(rngs: list[Rng], n: int, lo: float = 0.0,
                 hi: float = 1.0) -> np.ndarray:
    """[len(rngs), n] uniforms in [lo, hi), row i from stream i's next n
    draws, each what ``uniform(lo, hi)`` would return."""
    return lo + _unit(_fill(rngs, n)) * (hi - lo)


def gaussian_rows(rngs: list[Rng], n: int, mu: float = 0.0,
                  sigma: float = 1.0) -> np.ndarray:
    """[len(rngs), n] Box-Muller values, row i from stream i's next 2 n draws.

    All streams are drawn together by the lane kernel.
    """
    return mu + sigma * _box_muller(_unit(_fill(rngs, 2 * n)))
