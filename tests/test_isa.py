"""Unit tests: ISA extensions and the accelerator complex."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.isa import (
    AcceleratorComplex,
    ISA_EXTENSIONS,
    REGEX_API,
    Unit,
    instruction,
)
from repro.runtime.phparray import PhpArray


class TestInstructionSet:
    def test_paper_mnemonics_present(self):
        """Section 4.6 lists exactly these extensions."""
        expected = {
            "hashtableget", "hashtableset", "hmmalloc", "hmfree",
            "hmflush", "stringop", "strreadconfig", "strwriteconfig",
            "regexlookup", "regexset",
        }
        assert set(ISA_EXTENSIONS) == expected

    def test_zero_flag_semantics(self):
        assert instruction("hashtableget").sets_zero_flag
        assert instruction("hashtableset").sets_zero_flag
        assert instruction("hmmalloc").sets_zero_flag
        assert instruction("hmfree").sets_zero_flag
        assert instruction("regexlookup").sets_zero_flag
        assert not instruction("hmflush").sets_zero_flag
        assert not instruction("stringop").sets_zero_flag

    def test_units_assigned(self):
        assert instruction("hashtableget").unit is Unit.HASH_TABLE
        assert instruction("hmflush").unit is Unit.HEAP_MANAGER
        assert instruction("strreadconfig").unit is Unit.STRING
        assert instruction("regexset").unit is Unit.REGEX

    def test_regex_api_names(self):
        assert REGEX_API == ("regexp_sieve", "regexp_shadow")

    def test_unknown_mnemonic_raises(self):
        with pytest.raises(KeyError):
            instruction("vmovdqa")


class TestAcceleratorComplex:
    def test_dirty_writeback_reaches_software_map(self, complex_):
        array = PhpArray(base_address=0x9000)
        complex_.register_map(array)
        # Force a dirty eviction by overflowing one probe window: use a
        # tiny table for determinism.
        from repro.accel.hash_table import HashTableConfig, HardwareHashTable
        complex_.hash_table = HardwareHashTable(
            HashTableConfig(entries=4, probe_width=4)
        )
        complex_.hash_table.writeback_handler = complex_._writeback
        for i in range(6):
            complex_.hash_table.set(f"k{i}", 0x9000, f"v{i}")
        assert complex_.stats.get("complex.dirty_writebacks") >= 1
        # Evicted values landed in the software map.
        assert any(f"k{i}" in array for i in range(6))

    def test_context_switch_roundtrip(self, complex_):
        out = complex_.heap_manager.hmmalloc(32)
        complex_.heap_manager.hmfree(out.address, 32)
        complex_.string.to_upper("abc")
        flushed, saved = complex_.context_switch_out()
        assert flushed > 0
        assert complex_.heap_manager.cached_blocks() == 0
        cycles = complex_.context_switch_in(saved)
        assert cycles >= 1
        assert complex_.string.strwriteconfig() == saved

    def test_installed_writeback_reaches_software_map(self):
        complex_ = AcceleratorComplex()
        array = PhpArray(base_address=0x9400)
        complex_.register_map(array)
        complex_.hash_table.writeback_handler(0x9400, "k", "v")
        assert array.get_default("k") == "v"
        assert complex_.stats.get("complex.dirty_writebacks") == 1

    def test_writeback_handler_holds_the_complex_weakly(self):
        complex_ = AcceleratorComplex()
        array = PhpArray(base_address=0x9500)
        complex_.register_map(array)
        handler = complex_.hash_table.writeback_handler
        gc.disable()
        try:
            ref = weakref.ref(complex_)
            del complex_
            # Freed by reference counting alone: no cycle holds it.
            assert ref() is None
        finally:
            gc.enable()
        # A writeback whose complex is gone does nothing.
        handler(0x9500, "k", "v")
        assert array.get_default("k") is None

    def test_renders_leave_no_cyclic_garbage(self):
        """Each render's complex, interpreter and arrays are freed by
        reference counting, so renders never wake the cyclic collector."""
        from repro.workloads.templates import APP_TEMPLATES, render_http_page

        gc.collect()
        gc.disable()
        try:
            for app in sorted(APP_TEMPLATES):
                render_http_page(app, seed=7)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_remote_request_flushes_map(self, complex_):
        array = PhpArray(base_address=0x9100)
        complex_.register_map(array)
        complex_.hash_table.set("k", 0x9100, "v")
        flushed = complex_.remote_request(0x9100)
        assert flushed == 1
        assert array.get_default("k") == "v"
        assert not complex_.hash_table.get("k", 0x9100).hit

    def test_l2_eviction_enforces_inclusion(self, complex_):
        array = PhpArray(base_address=0x9200)
        complex_.register_map(array)
        complex_.hash_table.set("k", 0x9200, "v")
        assert complex_.l2_eviction(0x9200) == 1

    def test_local_short_lived_maps_cause_no_coherence(self, complex_):
        """§4.2: "virtually no coherence activity" in the common case."""
        array = PhpArray(base_address=0x9300)
        complex_.register_map(array)
        for i in range(10):
            complex_.hash_table.set(f"k{i}", 0x9300, i)
        complex_.hash_table.free_map(0x9300)
        assert complex_.stats.get("complex.remote_requests") == 0
        assert complex_.stats.get("complex.dirty_writebacks") == 0
