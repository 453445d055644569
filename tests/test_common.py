"""Unit tests: deterministic RNG and statistics plumbing."""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, strategies as st

from repro.common.rng import DeterministicRng
from repro.common.stats import (
    Counter,
    Histogram,
    LatencySummary,
    StatRegistry,
    geometric_mean,
    percentile,
    summarize_latencies,
    weighted_mean,
)


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(7)
        b = DeterministicRng(7)
        assert [a.random() for _ in range(50)] \
            == [b.random() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = DeterministicRng(7)
        b = DeterministicRng(8)
        assert [a.random() for _ in range(10)] \
            != [b.random() for _ in range(10)]

    def test_fork_is_deterministic(self):
        a = DeterministicRng(7).fork("x")
        b = DeterministicRng(7).fork("x")
        assert a.random() == b.random()

    def test_fork_labels_independent(self):
        base = DeterministicRng(7)
        assert base.fork("x").random() != base.fork("y").random()

    def test_fork_does_not_disturb_parent(self):
        a = DeterministicRng(7)
        b = DeterministicRng(7)
        a.fork("child")
        assert a.random() == b.random()

    def test_zipf_range(self):
        rng = DeterministicRng(1)
        draws = [rng.zipf(100, 1.1) for _ in range(500)]
        assert all(0 <= d < 100 for d in draws)

    def test_zipf_is_skewed(self):
        rng = DeterministicRng(1)
        draws = [rng.zipf(1000, 1.2) for _ in range(2000)]
        top_share = sum(1 for d in draws if d < 10) / len(draws)
        assert top_share > 0.3  # top-1% of ranks gets >30% of draws

    def test_zipf_cache_handles_multiple_shapes(self):
        rng = DeterministicRng(1)
        for _ in range(10):
            assert 0 <= rng.zipf(10, 1.0) < 10
            assert 0 <= rng.zipf(1000, 0.8) < 1000

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).zipf(0)

    def test_geometric_cap(self):
        rng = DeterministicRng(1)
        assert all(rng.geometric(0.01, cap=5) <= 5 for _ in range(200))

    def test_geometric_p1_is_zero(self):
        assert DeterministicRng(1).geometric(1.0) == 0

    def test_geometric_rejects_bad_p(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).geometric(0.0)

    def test_ascii_word_alphabet(self):
        rng = DeterministicRng(1)
        for _ in range(50):
            word = rng.ascii_word(3, 8)
            assert 3 <= len(word) <= 8
            assert word.isalpha() and word.islower()

    def test_ascii_word_rejects_an_empty_length_range(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).ascii_word(5, 4)

    def test_copies_draw_from_their_own_generator(self):
        import copy
        import pickle

        rng = DeterministicRng(3)
        rng.random()
        copies = [copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))]
        expected = [rng.random(), rng.randint(1, 9), rng.choice("abc"),
                    rng.ascii_word()]
        for twin in copies:
            assert [twin.random(), twin.randint(1, 9),
                    twin.choice("abc"), twin.ascii_word()] == expected

    @given(st.integers(min_value=0, max_value=2**32))
    def test_any_seed_works(self, seed):
        rng = DeterministicRng(seed)
        assert 0.0 <= rng.random() < 1.0


class TestDrawIdentity:
    """``ascii_word`` and ``TextCorpus.word`` draw in bulk, yet must
    return what plain ``random.Random`` samplers return and leave the
    generator in the same state after every call (no word over-pulled).
    This pins them to the running CPython's own ``randint``/``choice``.
    """

    PAIRS = [(3, 9), (3, 10), (5, 12), (0, 3), (1, 1), (4, 8), (2, 40)]

    @staticmethod
    def _plain_word(plain: random.Random, lo: int, hi: int) -> str:
        return "".join(
            plain.choice(string.ascii_lowercase)
            for _ in range(plain.randint(lo, hi))
        )

    def test_ascii_word_matches_randint_and_choice(self):
        for seed in range(200):
            for lo, hi in self.PAIRS:
                rng, plain = DeterministicRng(seed), random.Random(seed)
                for _ in range(4):
                    assert rng.ascii_word(lo, hi) \
                        == self._plain_word(plain, lo, hi)
                    assert rng._random.getstate() == plain.getstate()

    def test_corpus_word_matches_random_and_choice(self):
        from repro.workloads.text import _WORD_SEEDS, TextCorpus

        for seed in range(200):
            rng, plain = DeterministicRng(seed), random.Random(seed)
            corpus = TextCorpus(rng)
            for _ in range(12):
                if plain.random() < 0.75:
                    expected = plain.choice(_WORD_SEEDS)
                else:
                    expected = self._plain_word(plain, 3, 9)
                assert corpus.word() == expected
                assert rng._random.getstate() == plain.getstate()

    @staticmethod
    def _reference_paragraph(corpus, spec) -> str:
        """``TextCorpus.paragraph`` as it was before ``word()`` was
        inlined into it: a draw-order oracle for the fast loop."""
        from repro.workloads.text import SEGMENT_BYTES

        random = corpus.rng.random
        quote = spec.quote_probability
        pieces = []
        length = 0
        specials_pending = False
        next_special_check = SEGMENT_BYTES
        while len(pieces) < spec.words_per_paragraph:
            piece = corpus.word()
            pieces.append(piece)
            length += len(piece) + 1
            if length >= next_special_check:
                next_special_check += SEGMENT_BYTES
                if random() < spec.special_segment_fraction:
                    specials_pending = True
            if specials_pending:
                specials_pending = False
                roll = random()
                if roll < quote * 0.5:
                    pieces.append(f"'{corpus.word()}'")
                elif roll < quote:
                    pieces.append(f'"{corpus.word()}"')
                elif roll < quote + spec.tag_probability:
                    pieces.append(corpus.html_tag())
                else:
                    pieces.append(corpus.word() + "\n")
        out = []
        last = len(pieces) - 1
        for i, piece in enumerate(pieces):
            out.append(piece)
            if piece.endswith("\n"):
                continue
            if i < last:
                out.append(", " if random() < 0.08 else " ")
        return "".join(out).rstrip() + "."

    def test_corpus_paragraph_matches_the_word_at_a_time_loop(self):
        from repro.workloads.text import ContentSpec, TextCorpus

        # The rendered pages' spec, the trace generators' default, and
        # the join's edges (no piece, one piece).
        specs = [
            ContentSpec(paragraphs=1, words_per_paragraph=40,
                        special_segment_fraction=0.3),
            ContentSpec(),
            ContentSpec(words_per_paragraph=0),
            ContentSpec(words_per_paragraph=1),
        ]
        for seed in range(200):
            for spec in specs:
                fast = TextCorpus(DeterministicRng(seed))
                slow = TextCorpus(DeterministicRng(seed))
                for _ in range(3):
                    assert fast.paragraph(spec) \
                        == self._reference_paragraph(slow, spec)
                    assert fast.rng._random.getstate() \
                        == slow.rng._random.getstate()


class TestCounter:
    def test_add(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)

    def test_reset(self):
        c = Counter("x", 9)
        c.reset()
        assert c.value == 0


class TestStatRegistry:
    def test_bump_and_get(self):
        r = StatRegistry()
        r.bump("a")
        r.bump("a", 2)
        assert r.get("a") == 3
        assert r.get("missing") == 0

    def test_ratio_guards_zero(self):
        r = StatRegistry()
        assert r.ratio("a", "b") == 0.0
        r.bump("a", 3)
        r.bump("b", 4)
        assert r.ratio("a", "b") == pytest.approx(0.75)

    def test_per_kilo(self):
        r = StatRegistry()
        r.bump("misses", 5)
        r.bump("instructions", 1000)
        assert r.per_kilo("misses", "instructions") == pytest.approx(5.0)

    def test_snapshot_diff(self):
        r = StatRegistry()
        r.bump("a", 2)
        snap = r.snapshot()
        r.bump("a", 3)
        r.bump("b")
        assert r.diff(snap) == {"a": 3, "b": 1}

    def test_merge(self):
        a = StatRegistry()
        b = StatRegistry()
        a.bump("x", 1)
        b.bump("x", 2)
        b.bump("y", 5)
        a.merge(b)
        assert a.get("x") == 3
        assert a.get("y") == 5

    def test_iter_sorted(self):
        r = StatRegistry()
        r.bump("b")
        r.bump("a")
        assert [k for k, _ in r] == ["a", "b"]

    def test_counter_handle_and_bump_share_one_value(self):
        # Simulators keep the handle counter() returns and add to it
        # directly, so bump must update that same Counter.
        r = StatRegistry()
        c = r.counter("x")
        r.bump("x", 2)
        c.add(1)
        assert r.get("x") == 3
        assert c.value == 3

    def test_bump_creates_the_counter(self):
        r = StatRegistry()
        r.bump("fresh", 4)
        assert r.counter("fresh").value == 4
        assert r.snapshot() == {"fresh": 4}

    def test_bump_rejects_a_negative_amount(self):
        r = StatRegistry()
        r.bump("x", 2)
        with pytest.raises(ValueError, match="cannot decrease"):
            r.bump("x", -1)
        assert r.get("x") == 2


class TestHistogram:
    def test_record_and_cumulative(self):
        h = Histogram(edges=[10, 20, 30])
        for v in (5, 15, 15, 25, 99):
            h.record(v)
        assert h.counts == [1, 2, 1]
        assert h.overflow == 1
        assert h.cumulative() == pytest.approx([0.2, 0.6, 0.8])

    def test_fraction_at_or_below(self):
        h = Histogram(edges=[32, 64, 128])
        h.record(10, weight=8)
        h.record(100, weight=2)
        assert h.fraction_at_or_below(64) == pytest.approx(0.8)

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=[3, 1])

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1))
    def test_total_weight_conserved(self, values):
        h = Histogram(edges=[50, 100, 150])
        for v in values:
            h.record(v)
        assert sum(h.counts) + h.overflow == h.total_weight == len(values)


class TestPercentile:
    def test_nearest_rank_basics(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0

    def test_order_independent(self):
        values = [5.0, 1.0, 9.0, 3.0]
        assert percentile(values, 50) == percentile(sorted(values), 50)

    def test_single_sample(self):
        assert percentile([42.0], 99.9) == 42.0

    def test_p0_is_the_minimum(self):
        assert percentile([3.0, 1.0, 2.0], 0) == 1.0

    def test_rejects_empty_and_bad_p(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_matches_core_latency_alias(self):
        # core.latency re-exports this implementation; they must agree.
        from repro.core.latency import percentile as core_percentile
        assert core_percentile is percentile

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9,
                      allow_nan=False, allow_infinity=False),
            min_size=1,
        ),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_result_is_always_a_sample(self, values, p):
        assert percentile(values, p) in values


class TestLatencySummary:
    def test_summarize(self):
        s = summarize_latencies([float(v) for v in range(1, 1001)])
        assert s.count == 1000
        assert s.mean == pytest.approx(500.5)
        assert s.p50 == 500.0
        assert s.p99 == 990.0
        assert s.p999 == 1000.0  # ceil(0.999 * 1000) rounds up in float

    def test_empty_is_zeroed(self):
        assert summarize_latencies([]) == LatencySummary()


class TestMeans:
    def test_weighted_mean(self):
        assert weighted_mean([(1.0, 1.0), (3.0, 3.0)]) == pytest.approx(2.5)

    def test_weighted_mean_empty(self):
        assert weighted_mean([]) == 0.0

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
