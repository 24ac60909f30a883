"""splitmix64-counter v1: a tiny keyed counter-based random stream.

Monte Carlo trials must be reproducible bit-for-bit across platforms and
Python versions, and independent of execution order, so this module fixes
its own generator instead of relying on a library whose streams may change.

Algorithm (all arithmetic modulo 2**64):

    F(z) = splitmix64 finalizer:
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        z = z ^ (z >> 31)

    stream key:   base = F(F(seed) ^ F(trial))
    i-th word:    w_i = F(base + (i + 1) * 0x9E3779B97F4A7C15)
    uniform index in [0, n): consume words while w >= 2**64 - (2**64 % n),
        then return w % n  (rejection keeps the index exactly uniform)

Any change to these constants or steps is a new version and a new name.

:class:`CounterStream` is the scalar definition.  :class:`CounterStreams`
evaluates the same words for many trials at once over numpy ``uint64``
arrays, whose arithmetic wraps modulo 2**64 exactly as the algorithm asks,
so its indices and word counts are those of the scalar streams, bit for bit.
It advances each trial's stream position by one addition per word and
mixes the words in place through one reused scratch array.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# The finalizer's multipliers and the word step, as uint64 scalars for the array path.
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_STEP = np.uint64(_GOLDEN)


def finalize(z: int) -> int:
    """The splitmix64 output mix: a 64-bit bijection with strong avalanche."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class CounterStream:
    """The word stream for one (seed, trial) pair.

    Words are a pure function of (seed, trial, word index), so trials can run
    in any order, or concurrently, without changing a single draw.
    """

    def __init__(self, seed: int, trial: int):
        self._base = finalize(finalize(seed) ^ finalize(trial))
        self._count = 0

    @property
    def words(self) -> int:
        """Words consumed so far."""
        return self._count

    def next_word(self) -> int:
        self._count += 1
        return finalize((self._base + self._count * _GOLDEN) & _MASK)

    def uniform_index(self, n: int) -> int:
        """An exactly uniform index into a pool of size ``n``."""
        if n <= 0:
            raise ValueError(f"pool size must be positive, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            word = self.next_word()
            if word < limit:
                return word % n


def finalize_array(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """:func:`finalize` of every element of a ``uint64`` array, in place.

    ``scratch`` is a ``uint64`` array of the same shape that receives each
    shifted copy, so the mix allocates nothing.  Returns ``z``.
    """
    np.right_shift(z, 30, out=scratch)
    z ^= scratch
    z *= _C1
    np.right_shift(z, 27, out=scratch)
    z ^= scratch
    z *= _C2
    np.right_shift(z, 31, out=scratch)
    z ^= scratch
    return z


class CounterStreams:
    """The word streams of many trials of one seed, one array element per trial.

    Element ``j`` follows ``CounterStream(seed, trials[j])`` exactly: each
    trial keeps its own word counter, so a rejected word delays only the
    trial that drew it.  Each trial's position ``base + count * golden`` is
    kept beside its counter and advanced by one addition per word.
    """

    def __init__(self, seed: int, trials: np.ndarray):
        self._scratch = np.empty(len(trials), dtype=np.uint64)
        position = finalize_array(trials.astype(np.uint64), self._scratch)
        position ^= np.uint64(finalize(seed))
        self._position = finalize_array(position, self._scratch)
        self._count = np.zeros(len(trials), dtype=np.uint64)

    @property
    def words(self) -> np.ndarray:
        """Words consumed so far, per trial."""
        return self._count.copy()

    def uniform_index(self, n: np.ndarray) -> np.ndarray:
        """One exactly uniform index per trial, into pools of the sizes ``n``.

        ``n`` holds one positive pool size per trial.  A word is redrawn, as
        in the scalar rule, when ``w >= 2**64 - 2**64 % n``.  That limit is
        2**64 itself for a power-of-two ``n`` and does not fit a ``uint64``,
        so words are compared against the limit minus one.  Since
        ``2**64 % n < n``, only words above ``2**64 - 1 - n`` can be
        rejected; the words above ``2**64 - 1 - max(n)`` include all of
        them, and the exact limit is computed for those alone.
        """
        n = np.asarray(n, dtype=np.uint64)
        if n.shape != self._count.shape or not n.all():
            raise ValueError("pool sizes must be positive, one per trial")
        self._count += np.uint64(1)
        self._position += _STEP
        words = finalize_array(self._position.copy(), self._scratch)
        top, largest = np.uint64(_MASK), n.max(initial=1)
        if words.max(initial=0) > top - largest:
            suspects = np.flatnonzero(words > top - largest)
            sizes = n[suspects]
            last = top - (top % sizes + np.uint64(1)) % sizes
            rejected = words[suspects] > last
            while rejected.any():
                suspects, last = suspects[rejected], last[rejected]
                self._count[suspects] += np.uint64(1)
                self._position[suspects] += _STEP
                redrawn = self._position[suspects]
                words[suspects] = finalize_array(redrawn, np.empty_like(redrawn))
                rejected = words[suspects] > last
        if n.min(initial=largest) == largest:
            # One pool size for every trial: numpy divides by a scalar several times faster.
            np.floor_divide(words, largest, out=self._scratch)
            self._scratch *= largest
            words -= self._scratch
            return words
        return np.remainder(words, n, out=words)
