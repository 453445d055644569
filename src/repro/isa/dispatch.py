"""Accelerator complex: the SoC-side bundle behind the ISA extensions.

Owns one instance of each accelerator, wires the hardware hash table's
dirty-writeback path into the software maps (with the stale-flag
protocol of Section 4.2), and implements context-switch choreography:
``hmflush`` for the heap manager, ``strwriteconfig``/``strreadconfig``
for the string unit, nothing for the hash table ("the state of the
hash table is hardware coherent, so no cleanup operations are required
during context switches").
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from repro.accel.hash_table import HardwareHashTable, HashTableConfig
from repro.accel.heap_manager import HardwareHeapManager, HeapManagerConfig
from repro.accel.regex_accel import (
    ContentReuseTable,
    ContentSifter,
    ReuseAcceleratedMatcher,
    ReuseTableConfig,
)
from repro.accel.string_accel import (
    MatrixConfigState,
    StringAccelConfig,
    StringAccelerator,
)
from repro.common.stats import StatRegistry
from repro.runtime.phparray import PhpArray
from repro.runtime.slab import SlabAllocator


@dataclass
class ComplexConfig:
    """Configuration of the whole accelerator complex."""

    hash_table: HashTableConfig | None = None
    heap_manager: HeapManagerConfig | None = None
    string: StringAccelConfig | None = None
    reuse: ReuseTableConfig | None = None


def _weak_writeback(complex_: AcceleratorComplex):
    """The hash table's writeback handler, holding ``complex_`` weakly.

    A bound method would close the cycle complex -> hash table ->
    handler -> complex and leave every complex (one per render) to the
    cyclic collector.  A writeback whose complex is gone does nothing,
    as one whose software map is gone does.
    """
    method = weakref.WeakMethod(complex_._writeback)

    def writeback(base_address: int, key: str, value_ptr) -> None:
        bound = method()
        if bound is not None:
            bound(base_address, key, value_ptr)

    return writeback


class AcceleratorComplex:
    """All four Section-4 accelerators plus their software couplings."""

    def __init__(
        self,
        slab: Optional[SlabAllocator] = None,
        config: ComplexConfig | None = None,
    ) -> None:
        config = config or ComplexConfig()
        self.stats = StatRegistry("complex")
        self.slab = slab if slab is not None else SlabAllocator()
        self.hash_table = HardwareHashTable(config.hash_table)
        self.heap_manager = HardwareHeapManager(self.slab, config.heap_manager)
        self.string = StringAccelerator(config.string)
        self.reuse_table = ContentReuseTable(config.reuse)
        self.sifter = ContentSifter(self.string)
        self.reuse_matcher = ReuseAcceleratedMatcher(self.reuse_table)
        #: software hash maps by base address (coherence partners)
        self._software_maps: dict[int, PhpArray] = {}
        self.hash_table.writeback_handler = _weak_writeback(self)
        #: dispatch mode: 'accelerated' normally, 'software' while a
        #: resilience circuit breaker holds the complex out of service
        self.dispatch_mode = "accelerated"

    # -- software-map coupling -----------------------------------------------------

    def register_map(self, array: PhpArray) -> None:
        """Register the software map behind a base address.

        The paper's coherence scheme needs the accelerator to find the
        software structure for dirty writebacks; the RTT provides the
        routing, this registry provides the destination.
        """
        self._software_maps[array.base_address] = array

    def software_map(self, base_address: int) -> PhpArray:
        return self._software_maps[base_address]

    def drop_map(self, base_address: int) -> None:
        self._software_maps.pop(base_address, None)

    def _writeback(self, base_address: int, key: str, value_ptr) -> None:
        """Dirty eviction: hardware writes the ordered table directly.

        The bucket array ("the hash table of the software hash map")
        goes stale when the key is new; the software rebuilds it on its
        next access (Section 4.2).
        """
        array = self._software_maps.get(base_address)
        if array is None:
            return
        array.hardware_writeback(key, value_ptr)
        self.stats.bump("complex.dirty_writebacks")

    # -- context switches --------------------------------------------------------------

    def context_switch_out(self) -> tuple[int, MatrixConfigState]:
        """Leave the core: hmflush + strwriteconfig.

        Returns (heap blocks flushed, saved string configuration).
        """
        self.stats.bump("complex.context_switches")
        flushed = self.heap_manager.hmflush()
        saved = self.string.strwriteconfig()
        return flushed, saved

    def context_switch_in(self, saved: MatrixConfigState) -> int:
        """Re-enter: strreadconfig restores the matrix (cycles spent)."""
        return self.string.strreadconfig(saved)

    # -- resilience: breaker-driven dispatch + fault injection ---------------------------

    def trip_to_software(self) -> None:
        """Circuit breaker opened: route new requests to software.

        Every accelerator has a documented software fallback (stale-flag
        writebacks for the hash table, ``hmflush`` + software slab for
        the heap manager, the plain FSM for regexps), so the complex can
        be taken out of the request path without a correctness loss —
        requests are simply re-costed onto the software path.
        """
        if self.dispatch_mode != "software":
            self.stats.bump("complex.breaker_trips")
        self.dispatch_mode = "software"

    def restore_accelerated(self) -> None:
        """Circuit breaker closed again: accelerated dispatch resumes."""
        if self.dispatch_mode != "accelerated":
            self.stats.bump("complex.breaker_resets")
        self.dispatch_mode = "accelerated"

    def note_software_request(self) -> None:
        """Account one request served on the software path while tripped."""
        self.stats.bump("complex.software_path_requests")

    def inject_fault(self, kind: str) -> int:
        """Apply one accelerator fault; returns affected entries/blocks.

        Kinds: ``hash_storm`` (entry invalidation storm),
        ``heap_outage`` / ``heap_repair`` (heap manager availability),
        ``reuse_flush`` (regex reuse-table wipe),
        ``string_config_loss`` (matching-matrix state loss).
        """
        self.stats.bump("complex.faults_injected")
        if kind == "hash_storm":
            return self.hash_table.inject_invalidation_storm()
        if kind == "heap_outage":
            return self.heap_manager.inject_outage()
        if kind == "heap_repair":
            self.heap_manager.repair()
            return 0
        if kind == "reuse_flush":
            return self.reuse_table.inject_flush()
        if kind == "string_config_loss":
            self.string.inject_config_loss()
            return 0
        raise ValueError(f"unknown fault kind: {kind!r}")

    # -- coherence events -----------------------------------------------------------------

    def remote_request(self, base_address: int) -> int:
        """A remote core touched a cached map: flush it via the RTT."""
        self.stats.bump("complex.remote_requests")
        return self.hash_table.flush_map(base_address)

    def l2_eviction(self, base_address: int) -> int:
        """Inclusion enforcement: the map's lines left the L2."""
        self.stats.bump("complex.l2_evictions")
        return self.hash_table.flush_map(base_address)
