"""The counter-based stream and the seeded Monte Carlo sampler."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_kernel import experiments
from threebox.deck import Deck, Manifestation, Outcome, Variable, validate_deck
from threebox.decks import three_box_deck
from threebox.errors import DrawOutOfRangeError, InvalidArgumentsError, NoAcceptedTrialsError
from threebox.exact import AnyOf, Experiment, OutcomeAt, acceptance_probability, retrodict_exact
from threebox import montecarlo, rng
from threebox.montecarlo import CHUNK_TRIALS, TALLY_CODES, RunConfig, run_trial, simulate
from threebox.rng import MAX_POOL, CounterStream, CounterStreams, DrawRule, finalize, seed_key

GOLDEN = 0x9E3779B97F4A7C15
HALF_CHUNK = CHUNK_TRIALS // 2
# Below this trial index F(t) begins with t * C1, so a range below it starts from the trial progression.
EDGE = 2**30


def out(deck, variable, label, negated=False):
    return deck.outcome(variable, label, negated)


def spade_check(deck):
    return Experiment(
        deck,
        out(deck, "Face", "Q"),
        (Manifestation("Suit", "S"), Manifestation("Face")),
        postselection=(2, out(deck, "Face", "K")),
    )


def mixed_pool_check():
    """A face check on a 4-face deck, then the suit, then the face.

    The check leaves a suit pool of 2 cards after K and of 6 after not-K,
    so the second event draws from a per-state table, taking each trial's
    word modulo its own pool size.
    """
    deck = validate_deck([("K", "S", 1), ("K", "D", 1), ("Q", "D", 1), ("Q", "H", 1),
                          ("J", "H", 1), ("J", "C", 1), ("A", "C", 1), ("A", "S", 1)])
    return Experiment(
        deck,
        out(deck, "Suit", "S"),
        (Manifestation("Face", "K"), Manifestation("Suit"), Manifestation("Face")),
        postselection=(3, out(deck, "Face", "K")),
    )


def cyclic_pool_check():
    """A suit preparation, a face, the face again, then the suit, on a deck of 1 K, 2 Q and 4 J.

    The repeated face draws from the reported face's cards: pools of 1, 2
    and 4, three powers of two in one event.  A balanced deck gives an event
    at most two pool sizes (a value's cards or the rest), so this deck is
    built without :func:`validate_deck`.
    """
    cells = (("J", "H"), ("J", "S"), ("K", "S"), ("Q", "H"), ("Q", "S"))
    deck = Deck(Variable("Face", ("K", "Q", "J")), Variable("Suit", ("S", "H")), cells, (2, 2, 1, 1, 1))
    return Experiment(
        deck,
        out(deck, "Suit", "H"),
        (Manifestation("Face"), Manifestation("Face"), Manifestation("Suit")),
        postselection=(3, out(deck, "Suit", "S")),
    )


def block_cells(events, places):
    """Each cell of a block of the given events, in order, as (code digit, exit state), read from the kernel's runs.

    Cell ``s * W + J`` enters in state ``s`` and draws the indices whose
    mixed-radix number over the events' widths is ``J``; index ``i`` of a
    pool of ``n`` reads draw index ``i mod n``.
    """
    cells = []
    for entry in range(len(events[0].pool_sizes)):
        for indices in itertools.product(*(range(max(event.pool_sizes)) for event in events)):
            digit, state = 0, entry
            for event, place, index in zip(events, places, indices):
                index %= event.pool_sizes[state]
                for n, k in event.runs[state]:
                    if index < n:
                        break
                    index -= n
                digit, state = digit + k * place, event.rows[state][k][1]
            cells.append((digit, state))
    return cells


class TestCounterStream:
    def test_finalizer_matches_the_published_vector(self):
        # splitmix64 from state 0 emits these words first; our stream with
        # base 0 is exactly that sequence, which pins the algorithm.
        assert finalize(GOLDEN) == 0xE220A8397B1DCDAF
        assert finalize(2 * GOLDEN & (2**64 - 1)) == 0x6E789E6AA1B965F4

    def test_streams_are_reproducible(self):
        a = [CounterStream(99, 3).next_word() for _ in range(8)]
        b = [CounterStream(99, 3).next_word() for _ in range(8)]
        assert a == b

    def test_different_trials_get_different_streams(self):
        words = {CounterStream(99, trial).next_word() for trial in range(64)}
        assert len(words) == 64

    def test_uniform_index_stays_in_range(self):
        stream = CounterStream(5, 0)
        for n in (1, 2, 3, 7, 52):
            for _ in range(200):
                assert 0 <= stream.uniform_index(n) < n

    def test_uniform_index_covers_the_range(self):
        stream = CounterStream(5, 1)
        seen = Counter(stream.uniform_index(6) for _ in range(6000))
        assert set(seen) == set(range(6))

    def test_pool_size_must_be_positive(self):
        with pytest.raises(ValueError):
            CounterStream(0, 0).uniform_index(0)


def assert_matches_the_scalar_streams(seed, trials, sizes, state=None, draws=3):
    """Every trial's draws and word count equal those of its scalar stream; returns the word counts."""
    streams, rule = CounterStreams(seed_key(seed), trials), DrawRule(sizes)
    indices = [streams.uniform_index(rule, state) for _ in range(draws)]
    words = streams.words
    for j, trial in enumerate(trials):
        n = sizes[0 if state is None else state[j]]
        scalar = CounterStream(seed, trial)
        assert [scalar.uniform_index(n) for _ in range(draws)] == [int(d[j]) for d in indices]
        assert scalar.words == words[j]
    return words


class TestCounterStreams:
    @pytest.mark.parametrize("n", [1, 4, 6, 2**63, 2**63 + 1])
    def test_vector_draws_match_the_scalar_stream(self, n):
        # At n = 2**63 + 1 about half of all words are rejected, so the
        # redraw loop runs for many trials, often several times; 2**63 is a
        # power of two, whose limit 2**64 does not fit a uint64.
        for seed in (0, 99, 2**64 - 1):
            words = assert_matches_the_scalar_streams(seed, range(1500), (n,), draws=2)
            if n == 2**63 + 1:
                assert words.max() > 6

    def test_invalid_draws_are_refused(self):
        streams = CounterStreams(seed_key(0), range(3))
        for sizes, state in [
            ((0,), None),  # a zero size
            ((2, 0), np.array([0, 1, 0])),
            ((2, 3), None),  # differing sizes, but no state ids
            ((2, 3), np.array([0, 1])),  # not one state id per trial
            ((2, 3), np.array([0, 2, 1])),  # a state id outside the table
            ((2, 3), np.array([0, -1, 1])),
        ]:
            with pytest.raises(ValueError):
                streams.uniform_index(DrawRule(sizes), state)
        assert (streams.words == 0).all()

    @pytest.mark.parametrize(
        "pool",
        [(1, 3, 2**63 + 1, 2**64 - 1), (1,), (1, 3, 4, 2**63, 2**63 + 1, 2**64 - 1), (1, 4, 2**63), (4, 2)],
    )
    def test_the_layer_wide_bound_only_flags_suspects(self, pool):
        # The smallest limit of the table sets one bound for every trial, so
        # it flags words that the small pools beside it must accept, and
        # words that 2**63 + 1 and 2**64 - 1 reject.  A table of powers of
        # two rejects nothing.
        trials = range(2**40, 2**40 + 1200)
        state = np.arange(len(trials)) % len(pool)
        words = assert_matches_the_scalar_streams(99, trials, pool, state)
        assert (words[np.array(pool)[state] <= 4] == 3).all()
        assert (words.max() > 3) == any(n > 2**62 and n & (n - 1) for n in pool)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.sampled_from([1, 3, 4, 6, 2**63, 2**63 + 1, 3 * 2**61, 2**64 - 1]) | st.integers(1, 2**64 - 1),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**64 - 60),
        st.data(),
    )
    def test_a_rule_worked_out_once_draws_as_the_plain_table(self, sizes, seed, start, data):
        # Consecutive draws, so a redraw in one shifts every later word of its trial.
        sizes = tuple(sizes)
        trials = range(start, start + data.draw(st.integers(1, 40)))
        state = np.array(data.draw(st.lists(st.integers(0, len(sizes) - 1), min_size=len(trials), max_size=len(trials))))
        rule, streams = DrawRule(sizes), CounterStreams(seed_key(seed), trials)
        scalars = [CounterStream(seed, trial) for trial in trials]
        for _ in range(4):
            drawn = streams.uniform_index(rule, state)
            assert drawn.tolist() == [scalar.uniform_index(sizes[s]) for scalar, s in zip(scalars, state)]
            assert streams.words.tolist() == [scalar.words for scalar in scalars]

    def test_both_forms_draw_up_to_the_pool_limit_and_refuse_past_it(self):
        assert MAX_POOL == 2**64 - 1
        words = assert_matches_the_scalar_streams(5, range(300), (MAX_POOL,), draws=2)
        assert words.max() == 2  # only the one word 2**64 - 1 is rejected
        assert_matches_the_scalar_streams(5, range(300), (3, MAX_POOL), np.arange(300) % 2, draws=2)
        for n in (2**64, 2**64 + 1):
            # Refused before a word is drawn: at 2**64 + 1 the scalar limit
            # 2**64 - 2**64 % n is 0, so a draw would never return.
            scalar = CounterStream(5, 0)
            with pytest.raises(ValueError, match=f"1 to 2\\*\\*64 - 1 cards, got {n}$"):
                scalar.uniform_index(n)
            assert scalar.words == 0
            for sizes, state in [((n,), None), ((3, n), np.array([0, 1])), ((n, 4), np.array([1, 0]))]:
                streams = CounterStreams(seed_key(5), range(2))
                with pytest.raises(ValueError, match=f"1 to 2\\*\\*64 - 1 cards, got {n}$"):
                    streams.uniform_index(DrawRule(sizes), state)
                assert (streams.words == 0).all()

    # Ranges whose last trial is 2**30 - 2 .. 2**30 + 1, and one straddling
    # 2**30: the first two start from the trial progression, the rest
    # finalize their trial indices in full.
    @pytest.mark.parametrize(
        "trials",
        [range(EDGE - 500, EDGE - 1), range(EDGE - 500, EDGE), range(EDGE - 500, EDGE + 1),
         range(EDGE - 500, EDGE + 2), range(EDGE - 250, EDGE + 250)],
    )
    def test_trial_keys_at_the_progression_edge(self, trials):
        for sizes, state in [((6,), None), ((4,), None), ((2, 3, 2**63 + 1), np.arange(len(trials)) % 3)]:
            assert_matches_the_scalar_streams(31, trials, sizes, state)

    @pytest.mark.parametrize(
        "trials",
        [
            range(EDGE - len(rng._PROGRESSION), EDGE),  # the longest range the progression keys
            range(len(rng._PROGRESSION) + 1),  # one trial longer, keyed in full
            range(0, 600, 3),  # a step other than 1, keyed in full
        ],
    )
    def test_trial_keys_of_the_longest_range_the_progression_covers_and_past_it(self, trials):
        assert_matches_the_scalar_streams(31, trials, (6,), draws=1)

    def test_each_trial_has_its_own_pool_size(self):
        state = np.random.default_rng(0).integers(0, 59, 500)
        assert_matches_the_scalar_streams(7, range(10**6, 10**6 + 500), tuple(range(1, 60)), state)


class TestSharedStreams:
    """Readers of one set of streams share the trial keys and words, yet each draws as on its own."""

    # Ranges below 2**30, keyed from the progression, and across it, keyed in full.
    @pytest.mark.parametrize(
        "trials", [range(EDGE - 700, EDGE), range(EDGE - 350, EDGE + 350), range(EDGE, EDGE + 700)]
    )
    @pytest.mark.parametrize("first", [0, 1])
    def test_interleaved_readers_draw_as_their_scalar_streams(self, trials, first):
        # A pool of 3 * 2**61 rejects every word from 2**64 - 2**61 up, an
        # eighth of them, so its reader falls further behind the shared words
        # with every draw; a pool of 4 rejects none.
        sizes = ((3 * 2**61,), (4,))
        streams = CounterStreams(seed_key(11), trials)
        readers = [streams, streams.reader()]
        scalars = [[CounterStream(11, trial) for trial in trials] for _ in readers]
        for _ in range(6):
            for which in (first, 1 - first):
                (n,) = sizes[which]
                drawn = readers[which].uniform_index(DrawRule(sizes[which]))
                assert drawn.tolist() == [scalar.uniform_index(n) for scalar in scalars[which]]
                assert readers[which].words.tolist() == [scalar.words for scalar in scalars[which]]
        assert readers[0].words.max() > 6 and (readers[1].words == 6).all()

    def test_a_reader_made_after_draws_reads_from_the_first_word(self):
        trials = range(500)
        streams, rule = CounterStreams(seed_key(3), trials), DrawRule((3, 2**63 + 1))
        state = np.arange(len(trials)) % 2
        first = [streams.uniform_index(rule, state) for _ in range(3)]
        second = streams.reader()
        for drawn in first:
            assert second.uniform_index(rule, state).tolist() == drawn.tolist()
        assert second.words.tolist() == streams.words.tolist()


def pairs_of_runs():
    """Two random balanced experiments, a trial count (some at the chunk's edges) and a seed."""
    return st.tuples(
        experiments(max_events=4),
        experiments(max_events=4),
        st.sampled_from([1, 2, 57, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1]),
        st.integers(0, 2**64 - 1),
    )


class TestSharedRuns:
    @settings(max_examples=40, deadline=None)
    @given(pairs_of_runs())
    def test_a_shared_run_equals_separate_runs(self, run):
        first, second, trials, seed = run
        shared = montecarlo.simulate_runs((first, second), trials, seed)
        separate = [simulate(RunConfig(experiment, trials, seed)) for experiment in (first, second)]
        assert [table.counts for table in shared] == [table.counts for table in separate]
        assert [table.to_dict() for table in shared] == [table.to_dict() for table in separate]

    @pytest.mark.parametrize("trials", [1, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 3 * CHUNK_TRIALS + 5])
    @pytest.mark.parametrize("seed", [0, 7, 42, 2**64 - 1])
    def test_runs_of_two_three_and_no_events_share_a_seed(self, threebox, trials, seed):
        runs = (
            spade_check(threebox),
            mixed_pool_check(),  # three events, one drawing from a per-state table
            Experiment(threebox, out(threebox, "Face", "Q"), ()),
            cyclic_pool_check(),
        )
        shared = montecarlo.simulate_runs(runs, trials, seed)
        assert [table.experiment for table in shared] == list(runs)
        for table, experiment in zip(shared, runs):
            assert table.counts == simulate(RunConfig(experiment, trials, seed)).counts

    def test_no_runs_and_invalid_requests(self, threebox):
        assert montecarlo.simulate_runs((), 10, 1) == ()
        for trials, seed in [(0, 1), (2**64 + 1, 1), (10, -1), (10, 2**64)]:
            with pytest.raises(InvalidArgumentsError):
                montecarlo.simulate_runs((spade_check(threebox),), trials, seed)


class TestSimulate:
    def test_reruns_are_bitwise_identical(self, threebox):
        config = RunConfig(spade_check(threebox), trials=5000, seed=123)
        first, second = simulate(config), simulate(config)
        assert first.counts == second.counts
        assert first.to_dict() == second.to_dict()

    def test_frozen_trials(self, threebox):
        # Pinned outputs: any change here is a PRNG or transition change.
        experiment = spade_check(threebox)
        sequences = ["".join(map(str, run_trial(experiment, 7, t))) for t in range(12)]
        assert sequences == [
            "~SJ", "SQ", "~SJ", "SJ", "~SQ", "SQ",
            "~SJ", "~SJ", "~SQ", "~SJ", "~SQ", "~SJ",
        ]
        table = simulate(RunConfig(experiment, trials=200, seed=7))
        assert {" ".join(map(str, k)): v for k, v in table.counts.items()} == {
            "S J": 12, "S K": 28, "S Q": 15, "~S J": 71, "~S Q": 74,
        }
        assert table.accepted == 28

    def test_compiled_walker_matches_the_observe_loop(self, threebox):
        experiment = spade_check(threebox)
        trials = 4000
        reference = Counter(run_trial(experiment, 11, t) for t in range(trials))
        assert simulate(RunConfig(experiment, trials, 11)).counts == dict(reference)

    def test_trial_order_does_not_matter(self, threebox):
        experiment = spade_check(threebox)
        trials = 3000
        order = list(range(trials))
        random.Random(0).shuffle(order)
        shuffled = Counter(run_trial(experiment, 21, t) for t in order)
        assert simulate(RunConfig(experiment, trials, 21)).counts == dict(shuffled)

    def test_count_matches_a_scan_of_the_trials(self, threebox):
        experiment = spade_check(threebox)
        trials = 3000
        sequences = [run_trial(experiment, 4, t) for t in range(trials)]
        table = simulate(RunConfig(experiment, trials, 4))
        spade, king = OutcomeAt(1, out(threebox, "Suit", "S")), OutcomeAt(2, out(threebox, "Face", "K"))
        jack = OutcomeAt(2, out(threebox, "Face", "J"))
        for pattern in (spade, king, spade & king, AnyOf((king, jack)), ~spade, ~(spade | jack)):
            assert table.count(pattern) == sum(pattern.matches(seq) for seq in sequences)
        assert table.accepted == table.count(king)

    def test_counts_sum_to_trials(self, threebox):
        table = simulate(RunConfig(spade_check(threebox), trials=2500, seed=3))
        assert sum(table.counts.values()) == 2500
        assert 0 <= table.accepted <= 2500

    def test_at_least_one_trial_required(self, threebox):
        with pytest.raises(InvalidArgumentsError):
            RunConfig(spade_check(threebox), trials=0, seed=1)

    def test_trials_must_not_outrun_the_64_bit_trial_index(self, threebox):
        # Trial 2**64 would key the stream of trial 0 again.
        with pytest.raises(InvalidArgumentsError, match="at most 2\\*\\*64 trials"):
            RunConfig(spade_check(threebox), trials=2**64 + 1, seed=1)
        assert RunConfig(spade_check(threebox), trials=2**64, seed=1).trials == 2**64

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_must_fit_64_bits(self, threebox, seed):
        with pytest.raises(InvalidArgumentsError):
            RunConfig(spade_check(threebox), trials=1, seed=seed)
        assert RunConfig(spade_check(threebox), trials=1, seed=2**64 - 1).seed == 2**64 - 1

    # Runs of about half a chunk, one chunk, one and a half chunks and three chunks.
    @pytest.mark.parametrize(
        "trials",
        [HALF_CHUNK - 1, HALF_CHUNK, HALF_CHUNK + 1, 3 * HALF_CHUNK + 5,
         CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 3 * CHUNK_TRIALS + 5],
    )
    def test_chunk_edges(self, threebox, trials):
        experiment = spade_check(threebox)
        reference = Counter(run_trial(experiment, 13, t) for t in range(trials))
        assert simulate(RunConfig(experiment, trials, 13)).counts == dict(reference)

    def test_a_layer_mixing_a_power_of_two_pool_with_another_size(self):
        experiment = mixed_pool_check()
        events = experiment.kernel.events
        assert [event.pool_sizes for event in events] == [(6,), (6, 2), (6, 6, 6, 6)]
        assert [rule.table is None for _, rule in map(montecarlo._draw, events)] == [True, False, True]
        trials = CHUNK_TRIALS + 1
        # The per-state table closes the block before it and is a block of its own, so no block has two events.
        blocks = montecarlo._tables(events, trials)
        assert [[rule.table is None for _, rule in draws] for draws, _, _ in blocks] == [[True], [False], [True]]
        reference = Counter(run_trial(experiment, 19, t) for t in range(trials))
        assert simulate(RunConfig(experiment, trials, 19)).counts == dict(reference)

    @pytest.mark.parametrize("tally_codes", [TALLY_CODES, 4])
    def test_power_of_two_pools_draw_from_repeated_rows(self, monkeypatch, tally_codes):
        experiment = cyclic_pool_check()
        events = experiment.kernel.events
        assert [event.pool_sizes for event in events] == [(4,), (1, 2, 4), (6, 5, 3)]
        # The repeated face draws with one mask over rows of 4, and the suit after it from its per-state table.
        draws = map(montecarlo._draw, events)
        assert [(width, None if rule.table is None else rule.table.tolist()) for width, rule in draws] == [
            (4, None), (4, None), (6, [6, 5, 3]),
        ]
        # Code digits (outcome position times 2): K; Q, Q; J, J, J, J, each row repeated to 4 cells.
        digits, successor_ids = montecarlo._cells(events[1], 2, 1)
        assert digits.ravel().tolist() == [0, 0, 0, 0, 2, 2, 2, 2, 4, 4, 4, 4]
        assert successor_ids.ravel().tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]  # a repeat keeps its state
        trials = CHUNK_TRIALS + 1
        # Both faces draw as one block of 16 cells; the suit, from its per-state table, is a block of its own.
        (draws, block_digits, exit_ids), (suit_draws, _, last_ids) = montecarlo._tables(events, trials)
        assert [width for width, _ in draws] == [4, 4] and len(suit_draws) == 1 and last_ids is None
        assert list(zip(block_digits.tolist(), exit_ids.tolist())) == block_cells(events[:2], [6, 2])
        reference = Counter(run_trial(experiment, 37, t) for t in range(trials))
        assert len({seq[1] for seq in reference}) == 3
        monkeypatch.setattr(montecarlo, "TALLY_CODES", tally_codes)
        assert simulate(RunConfig(experiment, trials, 37)).counts == dict(reference)

    def test_a_two_card_pool_repeats_across_a_row_of_four(self, threebox):
        # The README request: after a spade, the face comes from the 2 spades (J, Q), else from 4 cards.
        events = spade_check(threebox).kernel.events
        assert [event.pool_sizes for event in events] == [(4,), (4, 2)]
        (_, first), (width, second) = map(montecarlo._draw, events)
        assert width == 4 and first.table is second.table is None and second.mask == 3
        _, successor_ids = montecarlo._cells(events[0], 3, width)
        assert successor_ids.ravel().tolist() == [4, 0, 4, 4]  # each next state's first cell
        digits, _ = montecarlo._cells(events[1], 1, None)
        assert digits.ravel().tolist() == [2, 0, 0, 1, 2, 1, 2, 1]  # J K K Q, then J Q twice
        # At the README's 100k trials the two events draw as one block of widths (4, 4): 16 cells, no exit ids.
        ((draws, block_digits, exit_ids),) = montecarlo._tables(events, 100_000)
        assert [width for width, _ in draws] == [4, 4] and exit_ids is None
        # Not S (position 1, place 3) then J Q J Q, or S then J K K Q: the composition of the two events' cells.
        assert block_digits.tolist() == [5, 4, 5, 4, 2, 0, 0, 1, 5, 4, 5, 4, 5, 4, 5, 4]
        assert block_digits.tolist() == [digit for digit, _ in block_cells(events, [3, 1])]

    def test_walk_across_the_progression_edge(self):
        # Every chunk below 2**30 is short enough to start from the progression.
        assert CHUNK_TRIALS <= len(rng._PROGRESSION)
        # Simulate's chunks start at multiples of 8,192, so none straddles
        # 2**30; the walker is handed such ranges here.
        experiment = mixed_pool_check()
        events = experiment.kernel.events
        tables, key = montecarlo._tables(events, CHUNK_TRIALS), seed_key(29)
        for trials in (range(EDGE - 4096, EDGE), range(EDGE - 4095, EDGE + 1), range(EDGE - 4096, EDGE + 4096)):
            (codes,) = montecarlo._walk([tables], key, trials)
            assert montecarlo._decode(events, codes) == [run_trial(experiment, 29, t) for t in trials]

    @pytest.mark.parametrize("name", ["mixed pools", "merged tallies"])
    def test_counts_do_not_depend_on_the_chunk_size(self, threebox, monkeypatch, name):
        if name == "mixed pools":
            # Two draws divide by a scalar and one gathers each trial's size.
            experiment = mixed_pool_check()
            assert [event.pool_sizes for event in experiment.kernel.events] == [(6,), (6, 2), (6, 6, 6, 6)]
        else:
            events = tuple(Manifestation(("Suit", "Face")[k % 2]) for k in range(12))
            experiment = Experiment(threebox, out(threebox, "Face", "Q"), events)
            assert math.prod(len(m.outcomes(threebox)) for m in events) > TALLY_CODES
        trials = 8192 + 7
        reference = dict(Counter(run_trial(experiment, 23, t) for t in range(trials)))
        for chunk in (1, 7, 4096, 8192):
            monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", chunk)
            assert simulate(RunConfig(experiment, trials, 23)).counts == reference, chunk

    def test_experiments_longer_than_the_tree_cap(self, threebox):
        events = tuple(Manifestation(("Suit", "Face")[k % 2], ("S", None)[k % 2]) for k in range(12))
        experiment = Experiment(threebox, out(threebox, "Face", "Q"), events)
        reference = Counter(run_trial(experiment, 8, t) for t in range(300))
        assert simulate(RunConfig(experiment, 300, 8)).counts == dict(reference)

    @pytest.mark.parametrize("trials", [HALF_CHUNK - 1, HALF_CHUNK + 1, CHUNK_TRIALS - 1, CHUNK_TRIALS + 1])
    @pytest.mark.parametrize(
        "events, in_one_array",
        [
            (8, True),  # 3**8 = 6,561 sequences: one bincount total
            (12, False),  # 3**12 = 531,441: merged chunk tallies
            (0, True),  # one empty sequence
        ],
    )
    def test_both_tallies_match_the_observe_loop(self, threebox, events, in_one_array, trials):
        manifestations = tuple(Manifestation(("Suit", "Face")[k % 2]) for k in range(events))
        experiment = Experiment(threebox, out(threebox, "Face", "Q"), manifestations)
        space = math.prod(len(m.outcomes(threebox)) for m in manifestations)
        assert (space <= TALLY_CODES) == in_one_array
        reference = Counter(run_trial(experiment, 17, t) for t in range(trials))
        assert simulate(RunConfig(experiment, trials, 17)).counts == dict(reference)

    def test_merging_as_it_goes_gives_the_one_array_counts(self, threebox, monkeypatch):
        # With a tiny bound the 6,561-sequence experiment takes the merge
        # branch and merges many times during the run, not only at its end.
        events = tuple(Manifestation(("Suit", "Face")[k % 2]) for k in range(8))
        config = RunConfig(Experiment(threebox, out(threebox, "Face", "Q"), events), 10 * CHUNK_TRIALS + 7, 5)
        in_one_array = simulate(config).counts
        merges = []
        merge = montecarlo._merge
        monkeypatch.setattr(montecarlo, "_merge", lambda tallies: merges.append(len(tallies)) or merge(tallies))
        monkeypatch.setattr(montecarlo, "TALLY_CODES", 64)
        assert simulate(config).counts == in_one_array
        assert len(merges) > 2

    def test_empty_pool_fails_as_in_the_scalar_walk(self):
        deck = validate_deck([("K", "S", 2)])
        experiment = Experiment(deck, out(deck, "Face", "K"), (Manifestation("Suit"),))
        with pytest.raises(DrawOutOfRangeError):
            run_trial(experiment, 1, 0)
        with pytest.raises(DrawOutOfRangeError):
            simulate(RunConfig(experiment, 10, 1))

    def test_outcome_sequences_must_fit_the_tally(self):
        size = 240  # 240**8 complete-observation sequences overflow a 64-bit code
        deck = validate_deck([(f"F{i}", f"S{i}", 1) for i in range(size)])
        events = tuple(Manifestation(("Suit", "Face")[k % 2]) for k in range(8))
        experiment = Experiment(deck, out(deck, "Face", "F0"), events)
        with pytest.raises(InvalidArgumentsError):
            simulate(RunConfig(experiment, 10, 1))


@settings(max_examples=60, deadline=None)
@given(experiments(max_events=4, max_scale=10**5), st.integers(0, 2**64 - 1), st.integers(1, 300))
def test_vector_engine_matches_the_observe_loop_on_random_decks(experiment, seed, trials):
    reference = Counter(run_trial(experiment, seed, t) for t in range(trials))
    table = simulate(RunConfig(experiment, trials, seed))
    assert table.counts == dict(reference)
    if experiment.postselection is not None:
        ordinal, outcome = experiment.postselection
        assert table.accepted == sum(n for seq, n in reference.items() if seq[ordinal - 1] == outcome)


def complete_events(deck, count):
    """``count`` complete observations alternating Suit and Face, after preparing Face=Q."""
    manifestations = tuple(Manifestation(("Suit", "Face")[k % 2]) for k in range(count))
    return Experiment(deck, out(deck, "Face", "Q"), manifestations)


# Experiments whose runs of a chunk or more walk at least one block of several events.
README_REQUEST = spade_check(three_box_deck())
EIGHT_COMPLETE = complete_events(three_box_deck(), 8)
BLOCK_TRIALS = [1, 57, CHUNK_TRIALS - 1, CHUNK_TRIALS + 7]


@example(README_REQUEST, 42, CHUNK_TRIALS + 7)
@example(EIGHT_COMPLETE, 42, CHUNK_TRIALS + 7)
@settings(max_examples=30, deadline=None)
@given(experiments(max_events=8, max_scale=10**5), st.integers(0, 2**64 - 1), st.sampled_from(BLOCK_TRIALS))
def test_the_block_walk_matches_the_observe_loop(experiment, seed, trials):
    if experiment in (README_REQUEST, EIGHT_COMPLETE):
        # Not vacuous: these compile to a block of several events, so the joint index and its tables are walked.
        assert any(len(draws) > 1 for draws, _, _ in montecarlo._tables(experiment.kernel.events, trials))
    reference = Counter(run_trial(experiment, seed, t) for t in range(trials))
    assert simulate(RunConfig(experiment, trials, seed)).counts == dict(reference)


@pytest.mark.parametrize("trials", [1, 10, 1000])
def test_small_runs_build_block_tables_no_larger_than_the_run(monkeypatch, trials):
    # Eight complete events: a block of k events entered from the prepared state has 4**k cells, from a
    # later layer 3 * 4**k.  At 1 and 10 trials every block is one event; at 1,000 two blocks of four.
    # A one-event block is that event's own table, which every run builds, so only longer blocks are capped.
    experiment = complete_events(three_box_deck(), 8)
    built, block = [], montecarlo._block

    def recording_block(events, places, scale):
        built.append((len(events), *block(events, places, scale)))
        return built[-1][1:]

    monkeypatch.setattr(montecarlo, "_block", recording_block)
    reference = Counter(run_trial(experiment, 3, t) for t in range(trials))
    assert simulate(RunConfig(experiment, trials, 3)).counts == dict(reference)
    assert [events for events, _, _ in built] == ([1] * 8 if trials < 16 else [4, 4])
    assert all(len(digits) <= trials for events, digits, _ in built if events > 1)


def test_per_trial_word_counts_equal_the_scalar_streams(monkeypatch):
    runs = (README_REQUEST, EIGHT_COMPLETE, mixed_pool_check(), cyclic_pool_check())
    trials = CHUNK_TRIALS + 7
    readers = []

    class Recording(CounterStreams):
        def __init__(self, key, trials):
            CounterStreams.__init__(self, key, trials)
            readers.append(self)

        def reader(self):
            readers.append(CounterStreams.reader(self))
            return readers[-1]

    monkeypatch.setattr(montecarlo, "CounterStreams", Recording)
    montecarlo.simulate_runs(runs, trials, 9)
    # Each chunk makes one reader per run, in the runs' order.
    words = [np.concatenate([reader.words for reader in readers[r :: len(runs)]]) for r in range(len(runs))]
    scalars = []
    monkeypatch.setattr(montecarlo, "CounterStream", lambda *key: scalars.append(CounterStream(*key)) or scalars[-1])
    for experiment, counted in zip(runs, words):
        for t in range(trials):
            run_trial(experiment, 9, t)
        assert counted.tolist() == [stream.words for stream in scalars[-trials:]]


class TestConvergence:
    def test_partial_check_frequency_within_five_sigma(self, threebox):
        experiment = Experiment(threebox, out(threebox, "Face", "Q"), (Manifestation("Suit", "S"),))
        trials = 100_000
        table = simulate(RunConfig(experiment, trials, seed=42))
        exact = 0.25
        tolerance = 5 * math.sqrt(exact * (1 - exact) / trials)
        assert abs(table.marginal_frequency(1, out(threebox, "Suit", "S")) - exact) <= tolerance

    def test_accepted_runs_always_passed_through_spade(self, threebox):
        config = RunConfig(spade_check(threebox), trials=100_000, seed=42)
        estimate = simulate(config).retrodiction(1, out(threebox, "Suit", "S"))
        assert estimate.estimate == 1.0
        exact_acceptance = float(acceptance_probability(config.experiment))
        tolerance = 5 * math.sqrt(exact_acceptance * (1 - exact_acceptance) / config.trials)
        assert abs(estimate.acceptance_rate - exact_acceptance) <= tolerance
        assert exact_acceptance == 1 / 8

    def test_complete_observation_retrodiction_near_half(self, threebox):
        experiment = Experiment(
            threebox,
            out(threebox, "Face", "Q"),
            (Manifestation("Suit"), Manifestation("Face")),
            postselection=(2, out(threebox, "Face", "K")),
        )
        estimate = simulate(RunConfig(experiment, 100_000, 42)).retrodiction(1, out(threebox, "Suit", "S"))
        assert abs(estimate.estimate - 0.5) <= 5 * estimate.standard_error
        assert estimate.standard_error == math.sqrt(
            estimate.estimate * (1 - estimate.estimate) / estimate.accepted
        )


class TestEstimateRetrodiction:
    def test_impossible_postselection_never_accepts(self, threebox):
        experiment = Experiment(
            threebox,
            out(threebox, "Face", "K"),
            (Manifestation("Face"), Manifestation("Suit")),
            postselection=(2, out(threebox, "Suit", "H")),
        )
        assert acceptance_probability(experiment) == 0
        with pytest.raises(NoAcceptedTrialsError):
            simulate(RunConfig(experiment, 2000, 5)).retrodiction(1, out(threebox, "Face", "K"))

    def test_requires_postselection(self, threebox):
        experiment = Experiment(threebox, out(threebox, "Face", "Q"), (Manifestation("Suit"),))
        with pytest.raises(InvalidArgumentsError):
            simulate(RunConfig(experiment, 10, 5)).retrodiction(1, out(threebox, "Suit", "S"))

    @pytest.mark.parametrize("label", ["K", "Q"])
    def test_query_at_the_postselection_is_refused_as_by_the_exact_engine(self, threebox, label):
        experiment = spade_check(threebox)
        table = simulate(RunConfig(experiment, 100, 5))
        query = out(threebox, "Face", label)
        with pytest.raises(InvalidArgumentsError) as exact_error:
            retrodict_exact(experiment, 2, query)
        with pytest.raises(InvalidArgumentsError) as mc_error:
            table.retrodiction(2, query)
        assert str(mc_error.value) == str(exact_error.value)

    def test_marginal_frequency_validates_the_outcome(self, threebox):
        table = simulate(RunConfig(spade_check(threebox), trials=10, seed=1))
        with pytest.raises(InvalidArgumentsError):
            table.marginal_frequency(1, out(threebox, "Suit", "D"))


def test_empirical_distribution_tracks_every_leaf(threebox):
    """Frequencies of all six sequences sit within five sigma of exact."""
    experiment = spade_check(threebox)
    trials = 100_000
    table = simulate(RunConfig(experiment, trials, seed=2))
    from threebox.exact import leaf_distribution

    for sequence, exact in leaf_distribution(experiment).items():
        p = float(exact)
        frequency = table.counts.get(sequence, 0) / trials
        if p in (0.0, 1.0):
            assert frequency == p
        else:
            assert abs(frequency - p) <= 5 * math.sqrt(p * (1 - p) / trials)
