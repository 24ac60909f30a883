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
A pool holds 1 to :data:`MAX_POOL` (``2**64 - 1``) cards, the largest size
a ``uint64`` table holds; both forms below refuse any other size with the
same ``ValueError``.

:class:`CounterStream` is the scalar definition.  :class:`CounterStreams`
evaluates the same words for a range of trials at once over numpy ``uint64``
arrays, whose arithmetic wraps modulo 2**64 exactly as the algorithm asks,
so its indices and word counts are those of the scalar streams, bit for bit.
A draw takes the :class:`DrawRule` of the table of pool sizes, one per
state, which settles the rule on the table: one power-of-two size masks,
one other size divides by a scalar, and differing sizes are checked for
rejections only above the table's smallest limit and gathered per trial.
Word ``i`` of every trial is one addition to the trial keys, mixed through
one reused scratch array, and a word count is the draw count plus the
trial's own redraws (an array per reader of the streams).

Runs of one seed draw the same words (common random numbers), so the
readers of one :class:`CounterStreams` share its trial keys and words, each
mixed once.  A word is a function of (seed, trial, word index) alone, and
each reader keeps its own redraws, so no reader's indices or word counts
depend on the others.

What depends only on the run is worked out once per run, not once per
chunk of trials or per draw: the seed's part of every stream key,
``F(seed)`` (:func:`seed_key`), and, for each event's table of pool sizes,
its :class:`DrawRule` (the smallest limit, the mask of one power-of-two
size, and the ``uint64`` tables of sizes and last accepted words).  The
trial progression ``j * C1`` for ``j`` below 8,192 is worked out once, on
import: ``t >> 30`` is 0 below 2**30, so ``F(t)`` begins with ``t * C1``,
and the keys of up to 8,192 consecutive trials there start with one
addition to it.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# The finalizer's multipliers and the word step, as uint64 scalars for the array path.
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_STEP = np.uint64(_GOLDEN)
# The largest pool a draw takes: the largest size a uint64 table holds.
MAX_POOL = _MASK
# Below this trial index t >> 30 is 0, so F(t) begins with t * C1 ...
_PROGRESSION_END = 1 << 30
# ... and over consecutive trials from start that is start * C1 + j * C1.  The
# progression covers one Monte Carlo chunk (montecarlo.CHUNK_TRIALS).
_PROGRESSION = np.arange(1 << 13, dtype=np.uint64) * _C1


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
        """An exactly uniform index into a pool of size ``n``, from 1 to :data:`MAX_POOL`."""
        if not 0 < n <= MAX_POOL:
            _refuse_pool(n)
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            word = self.next_word()
            if word < limit:
                return word % n


def finalize_array(z: np.ndarray, scratch: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`finalize` of every element of a ``uint64`` array, into ``out`` (default: ``z`` itself).

    ``scratch`` is a ``uint64`` array of the same shape that receives each
    shifted copy, so the mix allocates nothing.  The first step reads ``z``
    and writes ``out``, so mixing into another array needs no copy of ``z``.
    Returns ``out``.
    """
    out = z if out is None else out
    np.right_shift(z, 30, out=scratch)
    np.bitwise_xor(z, scratch, out=out)
    out *= _C1
    return _finish(out, scratch)


def _finish(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The finalizer's steps after its first multiply, in place in ``z``; returns ``z``."""
    np.right_shift(z, 27, out=scratch)
    z ^= scratch
    z *= _C2
    np.right_shift(z, 31, out=scratch)
    z ^= scratch
    return z


def _refuse_pool(n: int) -> None:
    raise ValueError(f"a pool holds 1 to 2**64 - 1 cards, got {n}")


def _last_accepted(n: int) -> int:
    """The largest word the draw rule accepts for a pool of ``n``: ``2**64 - 1 - 2**64 % n``."""
    return _MASK - (1 << 64) % n


class DrawRule:
    """How one event draws from its table of pool sizes, worked out once for the table.

    ``sizes`` is the table, an int from 1 to :data:`MAX_POOL` per state.  A
    word is redrawn when it lies above ``2**64 - 1 - 2**64 % n``, so the
    words at or below the smallest such limit of the table, ``bound``, are
    kept without a second look.  For a table of one size ``table`` is
    ``None`` and ``size`` is a ``uint64`` scalar; when that size is a power
    of two its limit is ``2**64 - 1``, no word is rejected and ``w % n`` is
    ``w & (n - 1)``, so ``mask`` holds ``n - 1`` (otherwise ``None``).  For
    differing sizes ``table`` and ``last`` (each size's last accepted word)
    are ``uint64`` tables, one entry per state, to be gathered by each
    trial's state id.
    """

    __slots__ = ("bound", "size", "mask", "table", "last")

    def __init__(self, sizes: tuple[int, ...]):
        smallest, largest = min(sizes, default=0), max(sizes, default=0)
        if smallest <= 0 or largest > MAX_POOL:
            _refuse_pool(smallest if smallest <= 0 else largest)
        self.bound = np.uint64(min(map(_last_accepted, sizes)))
        self.size = self.mask = self.table = self.last = None
        if smallest == largest:
            self.size = np.uint64(largest)
            if largest & (largest - 1) == 0:
                self.mask = np.uint64(largest - 1)
        else:
            self.table = np.array(sizes, dtype=np.uint64)
            self.last = np.array([_last_accepted(n) for n in sizes], dtype=np.uint64)


def seed_key(seed: int) -> np.uint64:
    """``F(seed)``, the part of every stream key of a run that depends on its seed alone."""
    return np.uint64(finalize(seed))


class CounterStreams:
    """The word streams of a range of trials of one seed, one array element per trial.

    ``key`` is the seed's :func:`seed_key`, worked out once per run.  A
    range of at most 8,192 consecutive trials below 2**30 starts its keys
    from the trial progression with one addition; any other range finalizes
    its trial indices in full.  Element ``j`` follows ``CounterStream(seed,
    trials[j])`` exactly.  Every draw takes one word from each trial, and a
    rejected word costs only the trial that drew it a redraw, so a trial's
    word count is the number of draws plus its own redraws, counted in an
    array per reader.

    :meth:`reader` hands out further readers of the same trials: each has
    its own draw count and redraw array, and all share the trial keys and a
    cache of the words, so the keys are mixed once and word ``k`` of every
    trial is mixed once, when the first reader draws it, however many
    readers draw it after.  A word is a function of (seed, trial, word
    index) alone, so a reader's indices and word counts are those of a
    reader of its own.  A trial that has redrawn reads its own later words,
    mixed from its key and word index.  Streams with one reader keep no
    words: each is reduced to indices in place.
    """

    def __init__(self, key: np.uint64, trials: range):
        count = len(trials)
        self._scratch = np.empty(count, dtype=np.uint64)
        if trials.step == 1 and 0 <= trials.start and trials.stop <= _PROGRESSION_END and count <= len(_PROGRESSION):
            # t * C1 = start * C1 + j * C1, and the rest of F(t) follows.
            keys = _finish(_PROGRESSION[:count] + np.uint64(trials.start * int(_C1) & _MASK), self._scratch)
        else:
            # The trial indices are finalized in place: they become the stream keys.
            keys = finalize_array(np.arange(trials.start, trials.stop, trials.step, dtype=np.uint64), self._scratch)
        keys ^= key
        self._keys = finalize_array(keys, self._scratch)
        self._cache = None  # word k of every trial by k, once a second reader shares the streams
        self._start_reading()

    def _start_reading(self) -> None:
        self._draws = 0
        self._redraws = np.zeros(len(self._keys), dtype=np.uint64)  # per-trial redraws
        self._redrawn = None  # the trials with a redraw, once there is one

    def reader(self) -> "CounterStreams":
        """A new reader of these trials' streams, from their first word, sharing the keys and words."""
        if self._cache is None:
            self._cache = {}
        other = object.__new__(CounterStreams)
        other._scratch, other._keys, other._cache = self._scratch, self._keys, self._cache
        other._start_reading()
        return other

    @property
    def words(self) -> np.ndarray:
        """Words consumed so far, per trial."""
        return self._redraws + np.uint64(self._draws)

    def _redrawn_words(self, trials: np.ndarray) -> np.ndarray:
        """The word of the current draw of each of the given trials, past its own redraws."""
        position = self._keys[trials] + (self._redraws[trials] + np.uint64(self._draws)) * _STEP
        return finalize_array(position, np.empty_like(position))

    def uniform_index(self, rule: DrawRule, state: np.ndarray | None = None) -> np.ndarray:
        """One exactly uniform index per trial, into a pool of ``sizes[state[j]]`` cards for trial ``j``.

        ``rule`` is the :class:`DrawRule` worked out from ``sizes``, the
        table of pool sizes, and ``state`` an int64 array of each trial's
        state id, read only when the sizes differ.  Returns a new array.
        """
        if state is not None and state.shape != self._keys.shape:
            raise ValueError("state ids must be given one per trial")
        table = rule.table
        if table is not None:
            if state is None:
                raise ValueError("the pool sizes differ by state, so each trial's state id is needed")
            # A negative id reads as a huge one in uint64, so one scan finds both kinds outside the table.
            if state.view(np.uint64).max(initial=0) >= len(table):
                raise ValueError(f"state ids must index the {len(table)} pool sizes")
        cache, draw = self._cache, self._draws
        self._draws += 1
        words = None if cache is None else cache.get(draw)
        if words is None:
            words = finalize_array(self._keys + np.uint64(self._draws * _GOLDEN & _MASK), self._scratch)
            if cache is not None:
                cache[draw] = words
        # A word that no other reader shares is reduced in place; a shared one is only read.
        out = words if cache is None else None
        redrawn = self._redrawn
        if redrawn is not None:
            # A trial that has redrawn is further along its stream than the shared word.
            if out is None:
                words = out = words.copy()
            words[redrawn] = self._redrawn_words(redrawn)
        if rule.mask is not None:
            # One power-of-two size divides 2**64, so no word is rejected.
            return np.bitwise_and(words, rule.mask, out=out)
        if words.max(initial=0) > rule.bound:
            suspects = np.flatnonzero(words > rule.bound)
            last = rule.bound if table is None else rule.last[state[suspects]]
            rejected = words[suspects] > last
            if rejected.any():
                if out is None:
                    words = out = words.copy()
                while rejected.any():
                    suspects = suspects[rejected]
                    if table is not None:
                        last = last[rejected]
                    self._redraws[suspects] += np.uint64(1)
                    words[suspects] = self._redrawn_words(suspects)
                    rejected = words[suspects] > last
                self._redrawn = np.flatnonzero(self._redraws)
        if table is None:
            # One pool size for every trial: numpy divides by a scalar several times faster.
            np.floor_divide(words, rule.size, out=self._scratch)
            self._scratch *= rule.size
            return np.subtract(words, self._scratch, out=out)
        return np.remainder(words, table[state], out=out)
