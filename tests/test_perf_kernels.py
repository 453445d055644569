"""Golden-equivalence tests: optimized kernels vs reference kernels.

The hot kernels in ``string_accel`` / ``hash_table`` / ``regex.engine``
were rewritten for wall-clock speed; :mod:`repro.accel.reference`
preserves the original implementations.  Each test drives both on
>= 1000 seeded random cases and asserts byte-identical outcomes —
including the accounting fields (cycles, µops, chars examined), since
the simulation results are built from them.
"""

from __future__ import annotations

import pytest

from repro.accel.hash_table import HardwareHashTable, simplified_hash
from repro.accel.reference import (
    ReferenceHardwareHashTable,
    ReferenceStringAccelerator,
    reference_mode,
    reference_simplified_hash,
)
from repro.accel.string_accel import StringAccelerator
from repro.common.rng import DeterministicRng
from repro.conformance.oracles import hash_ops_outcomes
from repro.regex.charset import CharSet
from repro.regex.engine import CompiledRegex
from repro.workloads.regexops import (
    AUTHOR_URL_PATTERN,
    SANITIZE_SET,
    SHORTCODE_SET,
    WIKITEXT_SET,
    WPTEXTURIZE_SET,
)


ALPHABET = "abcdefgh <>&\"'/=-.!?\n\t"
WIDE_EXTRA = "éࠀ￿"  # non-latin-1: exercises the fallback path


def _subject(rng: DeterministicRng, lo: int = 0, hi: int = 120,
             wide: bool = False) -> str:
    chars = ALPHABET + (WIDE_EXTRA if wide else "")
    return "".join(
        rng.choice(chars) for _ in range(rng.randint(lo, hi))
    )


class TestStringKernelEquivalence:
    def test_find_1000_seeded_cases(self, make_rng):
        rng = make_rng(101)
        opt, ref = StringAccelerator(), ReferenceStringAccelerator()
        for case in range(1000):
            wide = case % 5 == 4
            subject = _subject(rng, wide=wide)
            if rng.random() < 0.5 and len(subject) >= 3:
                start = rng.randint(0, len(subject) - 1)
                pattern = subject[start:start + rng.randint(1, 8)]
            else:
                pattern = _subject(rng, 1, 6, wide=wide)
            if not pattern:
                pattern = "a"
            start = rng.randint(0, max(0, len(subject) - 1))
            assert repr(opt.find(subject, pattern, start)) \
                == repr(ref.find(subject, pattern, start))

    def test_find_output_pinned_insertion_order(self):
        """The ``sorted(pending)`` fix: candidates are inserted with
        monotonically increasing start positions, so insertion order IS
        ascending order and the scan result is pinned to the original.
        This case keeps several overlapping candidates pending across
        block boundaries, where an ordering bug would change which
        candidate wins."""
        opt, ref = StringAccelerator(), ReferenceStringAccelerator()
        # 'aaaa...ab' with pattern 'aab' keeps a sliding window of
        # partially-matched candidates alive in every block.
        subject = "a" * 150 + "ab" + "a" * 150 + "aab"
        out_opt = opt.find(subject, "aab")
        out_ref = ref.find(subject, "aab")
        assert repr(out_opt) == repr(out_ref)
        assert out_opt.value == subject.index("aab")

    def test_compare_1000_seeded_cases(self, make_rng):
        rng = make_rng(202)
        opt, ref = StringAccelerator(), ReferenceStringAccelerator()
        for case in range(1000):
            a = _subject(rng, 0, 200, wide=case % 7 == 6)
            if rng.random() < 0.5:
                b = a[:rng.randint(0, len(a))] + _subject(rng, 0, 40)
            else:
                b = _subject(rng, 0, 200)
            assert repr(opt.compare(a, b)) == repr(ref.compare(a, b))

    def test_char_class_bitmap_1000_seeded_cases(self, make_rng):
        rng = make_rng(303)
        opt, ref = StringAccelerator(), ReferenceStringAccelerator()
        classes = [
            CharSet.of("<>&\"'"), CharSet.char_range("a", "f"),
            CharSet.of(" \n\t"), CharSet.full(),
        ]
        for case in range(1000):
            subject = _subject(rng, 0, 300, wide=case % 6 == 5)
            cls = rng.choice(classes)
            seg = rng.choice([8, 16, 32, 64])
            assert repr(opt.char_class_bitmap(subject, cls, seg)) \
                == repr(ref.char_class_bitmap(subject, cls, seg))

    def test_html_escape_1000_seeded_cases(self, make_rng):
        from repro.runtime.strings import HTML_ESCAPES
        rng = make_rng(404)
        opt, ref = StringAccelerator(), ReferenceStringAccelerator()
        multi = dict(HTML_ESCAPES)
        for case in range(1000):
            subject = _subject(rng, 0, 200, wide=case % 8 == 7)
            assert repr(opt.html_escape(subject, multi)) \
                == repr(ref.html_escape(subject, multi))


class TestHashKernelEquivalence:
    def test_simplified_hash_1000_seeded_cases(self, make_rng):
        rng = make_rng(505)
        for case in range(1000):
            key = _subject(rng, 0, 24, wide=case % 9 == 8)
            base = rng.randint(0, 1 << 32)
            assert simplified_hash(key, base) \
                == reference_simplified_hash(key, base)

    def test_probe_path_1000_plus_op_sequence(self, make_rng):
        """3000 mixed ops through both tables: outcome stream, stats,
        and hit rate must match exactly (the probe-window cache must be
        invisible)."""
        rng = make_rng(606)
        opt, ref = HardwareHashTable(), ReferenceHardwareHashTable()
        ops = []
        for i in range(3000):
            key = f"k{rng.randint(0, 400)}"
            base = 0x1000 + rng.randint(0, 5) * 0x200
            kind = ("insert", "get", "set")[rng.randint(0, 2)]
            ops.append([kind, key, base, i])
        assert repr(hash_ops_outcomes(opt, ops)) \
            == repr(hash_ops_outcomes(ref, ops))
        assert opt.hit_rate() == ref.hit_rate()
        assert opt.stats.snapshot() == ref.stats.snapshot()


class TestRegexKernelEquivalence:
    PATTERNS = [
        r"<[a-z]+", r"(?i)href", r"[a-h]+b", r"a.c", r"<p>|</p>",
    ]

    def test_search_state_after_resume_1000_seeded_cases(self, make_rng):
        rng = make_rng(707)
        for case in range(1000):
            pattern = rng.choice(self.PATTERNS)
            text = _subject(rng, 0, 80, wide=case % 10 == 9)
            with reference_mode():
                r_ref = CompiledRegex(pattern)
                ref_search = repr(r_ref.search(text))
                ref_state = repr(r_ref.state_after(text))
                ref_stats = r_ref.stats.snapshot()
            r_opt = CompiledRegex(pattern)
            assert repr(r_opt.search(text)) == ref_search
            assert repr(r_opt.state_after(text)) == ref_state
            assert r_opt.stats.snapshot() == ref_stats

    #: The workload's own patterns, plus the start-skip branches: a
    #: start state that accepts (``a*``, and with ``$``), both anchors,
    #: and a pattern whose start survives nothing (``$`` alone).
    SEARCH_PATTERNS = PATTERNS + [
        *WPTEXTURIZE_SET.patterns, *SHORTCODE_SET.patterns,
        *SANITIZE_SET.patterns, *WIKITEXT_SET.patterns,
        AUTHOR_URL_PATTERN,
        r"a*", r"a*$", r"^<[a-z]+", r"^a*", r"[a-h]+b$", r"(?i)b$", r"$",
    ]
    #: Pieces the patterns above match, spliced between random runs.
    FRAGMENTS = [
        "[[Main Page]]", "[gallery ids=12]", "[/gallery]", "&amp;", "==",
        "''", "<em>", "<a href=x>", "https://localhost/?author=bob",
        "'Word", '"Quote', "aaab", "\n",
    ]

    def _search_text(self, rng: DeterministicRng, wide: bool) -> str:
        chars = ALPHABET + "[]019;ABZ" + (WIDE_EXTRA if wide else "")
        parts = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.3:
                parts.append(rng.choice(self.FRAGMENTS))
            else:
                parts.append("".join(
                    rng.choice(chars) for _ in range(rng.randint(0, 20))
                ))
        return "".join(parts)

    def test_search_windows_and_workload_patterns_1500_seeded_cases(
        self, make_rng
    ):
        """Random ``start``/``start_limit`` windows clip the start skip;
        code points >= 256 sit at candidate starts."""
        rng = make_rng(909)
        patterns = self.SEARCH_PATTERNS
        for case in range(1500):
            pattern = patterns[case % len(patterns)]
            text = self._search_text(rng, wide=case % 4 == 3)
            start = rng.randint(0, len(text) + 2)
            limit = (None if rng.random() < 0.3
                     else rng.randint(0, len(text) + 2))
            with reference_mode():
                r_ref = CompiledRegex(pattern)
                ref_search = repr(r_ref.search(text, start, limit))
                ref_all = repr(r_ref.findall(text))
                ref_stats = r_ref.stats.snapshot()
            r_opt = CompiledRegex(pattern)
            assert repr(r_opt.search(text, start, limit)) == ref_search, (
                pattern, text, start, limit)
            assert repr(r_opt.findall(text)) == ref_all, (pattern, text)
            assert r_opt.stats.snapshot() == ref_stats

    def test_resume_equivalence_seeded(self, make_rng):
        rng = make_rng(808)
        for case in range(1000):
            pattern = rng.choice(self.PATTERNS)
            text = _subject(rng, 1, 60)
            split = rng.randint(0, len(text))
            with reference_mode():
                r_ref = CompiledRegex(pattern)
                state, accept = r_ref.state_after(text, 0, split)
                ref_out = repr(r_ref.resume(state, accept, text, split))
            r_opt = CompiledRegex(pattern)
            state_opt, accept_opt = r_opt.state_after(text, 0, split)
            assert (state_opt, accept_opt) == (state, accept)
            assert repr(
                r_opt.resume(state_opt, accept_opt, text, split)
            ) == ref_out


class TestReferenceMode:
    def test_reference_kernels_fixture_patches_for_test_body(
        self, reference_kernels
    ):
        from repro.accel.reference import reference_find
        assert StringAccelerator.find is reference_find

    def test_restores_optimized_kernels(self):
        original_find = StringAccelerator.find
        with reference_mode():
            assert StringAccelerator.find is not original_find
        assert StringAccelerator.find is original_find

    def test_e2e_reports_identical(self):
        """The headline guarantee: the full evaluation renders the same
        reports on optimized and reference kernels."""
        from repro.core.experiment import full_evaluation
        from repro.core.expcache import EXPERIMENT_CACHE
        from repro.core.report import figure14_report, figure15_report
        from repro.workloads.loadgen import TRACE_CACHE

        EXPERIMENT_CACHE.clear()
        TRACE_CACHE.clear()
        opt = full_evaluation(requests=2)
        with reference_mode():
            ref = full_evaluation(requests=2)
        assert figure14_report(opt) == figure14_report(ref)
        assert figure15_report(opt) == figure15_report(ref)
