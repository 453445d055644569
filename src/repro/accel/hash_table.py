"""Hardware hash table with reverse translation table (Section 4.2).

The accelerator caches key→value-pointer bindings of software hash
maps.  Requests carry ``(base_address, key)``; the table hashes the
pair with a simplified hardware hash, probes ``probe_width``
consecutive entries in parallel (bounding work per lookup), and serves
GET and SET entirely in hardware on a hit.  The reverse translation
table (RTT) tracks, per map, which hardware entries belong to it — so
``Free`` invalidates a whole map in one shot, ``foreach`` can
reconstruct insertion order, and remote coherence requests can flush
exactly the affected map.

Replacement policy (paper, GET/SET description): prefer an invalid
entry, then a *clean* entry (no software involvement), then the LRU
dirty entry (requires a software writeback).

Coherence (paper, "Ensure coherence"): dirty state lives only in the
accelerator; the software map is updated on dirty evictions, on
``foreach`` flushes, and on remote-request/L2-eviction flushes, after
which a *stale flag* on the software map forces bucket-array
reconstruction on the next software access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.stats import StatRegistry


def simplified_hash(key: str, base_address: int) -> int:
    """The cheap hardware hash over (base address, key).

    The paper replaces HHVM's "overly complex" hash with a simplified
    one "without compromising its hit rate"; this xor-fold over 4-byte
    groups is the kind of function that fits one cycle of logic.

    The fold is computed over the key's latin-1 bytes with
    ``int.from_bytes`` (big-endian, exactly the per-character shift-or
    of the original loop); keys with code points above 255 take the
    equivalent slow path, since ``ord(ch) & 0xFF`` is the low byte.
    """
    h = (base_address >> 6) & 0xFFFF_FFFF
    try:
        data = key.encode("latin-1")
    except UnicodeEncodeError:
        data = bytes(ord(ch) & 0xFF for ch in key)
    for i in range(0, len(data), 4):
        h ^= int.from_bytes(data[i:i + 4], "big") + (h << 3)
        h &= 0xFFFF_FFFF
    return h


@dataclass(slots=True)
class _HwEntry:
    valid: bool = False
    dirty: bool = False
    key: str = ""
    base_address: int = 0
    value_ptr: Any = None
    last_access: int = 0
    insert_seq: int = 0


@dataclass(frozen=True)
class _InvalidEntry:
    """What an invalid slot holds; only ``valid`` is ever read from it."""

    valid: bool = False
    dirty: bool = False


#: The entry every invalid slot shares.  Only valid entries are ever
#: written, so one frozen instance serves every table, and a fresh
#: table is one list instead of ``entries`` objects.
_INVALID = _InvalidEntry()


@dataclass
class _RttEntry:
    """Per-map tracking: back pointers + insertion order.

    ``back_pointers`` is the circular buffer of hardware entry indices
    described in the paper; ``insertion_order`` records first-insert
    sequence of keys so foreach can guarantee PHP's iteration-order
    invariant even across evictions and re-insertions.
    """

    back_pointers: list[int] = field(default_factory=list)
    write_ptr: int = 0
    insertion_order: list[str] = field(default_factory=list)
    order_index: dict[str, int] = field(default_factory=dict)


@dataclass
class HashTableConfig:
    """Geometry/latency of the accelerator (paper defaults)."""

    entries: int = 512
    probe_width: int = 4        # consecutive entries probed in parallel
    max_key_bytes: int = 24     # longer keys always fall back to software
    hash_cycles: int = 1        # simplified hash computation
    access_cycles: int = 1      # parallel probe of probe_width entries
    rtt_maps: int = 128         # maps the RTT can track concurrently
    rtt_pointers_per_map: int = 64
    #: ablation: a GET-only table (the memcached prior work [55]) sends
    #: every SET to software — §4.2 argues PHP needs SETs in hardware
    support_sets: bool = True


@dataclass
class HashOpOutcome:
    """Result of one accelerator request."""

    hit: bool
    value_ptr: Any = None
    cycles: int = 0
    #: True when the zero flag was raised and software must take over
    software_fallback: bool = False
    #: software writebacks this op forced (dirty LRU evictions)
    dirty_writebacks: int = 0


class ReverseTranslationTable:
    """RTT: map base address → hardware entries + insertion order."""

    def __init__(self, config: HashTableConfig, stats: StatRegistry) -> None:
        self.config = config
        self.stats = stats
        self._maps: dict[int, _RttEntry] = {}

    def track(self, base_address: int, entry_index: int, key: str) -> Optional[int]:
        """Record a newly inserted hardware entry for a map.

        Returns the index of a hardware entry that must be force-evicted
        because the circular buffer wrapped onto it, or None.
        """
        rtt = self._maps.get(base_address)
        if rtt is None:
            if len(self._maps) >= self.config.rtt_maps:
                # Untracked map: accelerator refuses the insert upstream.
                return -1
            rtt = _RttEntry()
            self._maps[base_address] = rtt
        victim: Optional[int] = None
        if len(rtt.back_pointers) < self.config.rtt_pointers_per_map:
            rtt.back_pointers.append(entry_index)
        else:
            victim = rtt.back_pointers[rtt.write_ptr]
            rtt.back_pointers[rtt.write_ptr] = entry_index
            self.stats.bump("rtt.wraps")
        rtt.write_ptr = (rtt.write_ptr + 1) % self.config.rtt_pointers_per_map
        if key not in rtt.order_index:
            rtt.order_index[key] = len(rtt.insertion_order)
            rtt.insertion_order.append(key)
        return victim

    def note_key(self, base_address: int, key: str) -> bool:
        """Record a software-path insert in the map's insertion order.

        The zero-flag fallback handler calls this when a SET bypasses
        the hardware (oversized key): the RTT still needs the key's
        position so ``foreach`` can reproduce PHP's iteration order.
        Returns False when the map is not (and cannot become) tracked.
        """
        rtt = self._maps.get(base_address)
        if rtt is None:
            if len(self._maps) >= self.config.rtt_maps:
                return False
            rtt = _RttEntry()
            self._maps[base_address] = rtt
        if key not in rtt.order_index:
            rtt.order_index[key] = len(rtt.insertion_order)
            rtt.insertion_order.append(key)
        return True

    def untrack(self, base_address: int, entry_index: int) -> None:
        """Invalidate one back pointer (entry evicted)."""
        rtt = self._maps.get(base_address)
        if rtt is None:
            return
        try:
            pos = rtt.back_pointers.index(entry_index)
        except ValueError:
            return
        rtt.back_pointers[pos] = -1

    def entries_of(self, base_address: int) -> list[int]:
        rtt = self._maps.get(base_address)
        if rtt is None:
            return []
        return [bp for bp in rtt.back_pointers if bp >= 0]

    def insertion_order(self, base_address: int) -> list[str]:
        rtt = self._maps.get(base_address)
        return list(rtt.insertion_order) if rtt else []

    def drop_map(self, base_address: int) -> None:
        self._maps.pop(base_address, None)

    def drop_all(self) -> int:
        """Forget every tracked map (fault-injection storms)."""
        dropped = len(self._maps)
        self._maps.clear()
        return dropped

    @property
    def tracked_maps(self) -> int:
        return len(self._maps)


class HardwareHashTable:
    """The Section 4.2 accelerator."""

    def __init__(self, config: HashTableConfig | None = None) -> None:
        self.config = config or HashTableConfig()
        self.stats = StatRegistry("hwhash")
        self._entries: list[_HwEntry | _InvalidEntry] = (
            [_INVALID] * self.config.entries
        )
        self.rtt = ReverseTranslationTable(self.config, self.stats)
        self._clock = 0
        self._seq = 0
        #: start slot → probe window; a window is a pure function of
        #: the start slot and the (fixed) geometry, so there are only
        #: ``entries`` possible windows and the list objects are safe
        #: to share — no caller mutates them.  Keying by slot (not by
        #: (key, base) pair) keeps the cache effective even when every
        #: request carries a distinct key.
        self._windows: list[list[int] | None] = [None] * self.config.entries

    # -- probing ------------------------------------------------------------------

    def _probe_window(self, key: str, base_address: int) -> list[int]:
        # Inlined simplified_hash: the fold below is byte-identical to
        # the module-level function (and to the reference per-char
        # loop), hoisted here to avoid a call on the hottest path.
        h = (base_address >> 6) & 0xFFFF_FFFF
        try:
            data = key.encode("latin-1")
        except UnicodeEncodeError:
            data = bytes(ord(ch) & 0xFF for ch in key)
        for i in range(0, len(data), 4):
            h ^= int.from_bytes(data[i:i + 4], "big") + (h << 3)
            h &= 0xFFFF_FFFF
        entries = self.config.entries
        start = h % entries
        window = self._windows[start]
        if window is None:
            window = [
                (start + i) % entries
                for i in range(min(self.config.probe_width, entries))
            ]
            self._windows[start] = window
        return window

    def _find(self, key: str, base_address: int) -> Optional[int]:
        for idx in self._probe_window(key, base_address):
            e = self._entries[idx]
            if e.valid and e.base_address == base_address and e.key == key:
                return idx
        return None

    # -- GET / SET ------------------------------------------------------------------

    def get(self, key: str, base_address: int) -> HashOpOutcome:
        """GET request: hardware lookup, zero flag on miss."""
        self._clock += 1
        self.stats.bump("hwhash.gets")
        cycles = self.config.hash_cycles + self.config.access_cycles
        if len(key) > self.config.max_key_bytes:
            self.stats.bump("hwhash.long_key_bypass")
            return HashOpOutcome(False, cycles=cycles, software_fallback=True)
        idx = self._find(key, base_address)
        if idx is None:
            self.stats.bump("hwhash.get_misses")
            return HashOpOutcome(False, cycles=cycles, software_fallback=True)
        entry = self._entries[idx]
        entry.last_access = self._clock
        self.stats.bump("hwhash.get_hits")
        return HashOpOutcome(True, value_ptr=entry.value_ptr, cycles=cycles)

    def set(self, key: str, base_address: int, value_ptr: Any) -> HashOpOutcome:
        """SET request: silent hardware update; never misses.

        A SET updates the hardware table without touching memory; the
        entry is marked dirty.  The zero flag (software fallback) rises
        only for oversized keys or when the RTT cannot track the map.
        Bypassed keys are still noted in the RTT so ``foreach`` keeps
        PHP's iteration-order invariant across mixed hw/sw inserts.
        """
        self._clock += 1
        self.stats.bump("hwhash.sets")
        cycles = self.config.hash_cycles + self.config.access_cycles
        if not self.config.support_sets:
            # GET-only ablation: the zero flag sends SETs to software,
            # and the software-updated value supersedes any cached one.
            self.stats.bump("hwhash.set_bypass")
            idx = self._find(key, base_address)
            if idx is not None:
                self._entries[idx] = _INVALID
            self.rtt.note_key(base_address, key)
            return HashOpOutcome(False, cycles=cycles, software_fallback=True)
        if len(key) > self.config.max_key_bytes:
            self.stats.bump("hwhash.long_key_bypass")
            self.rtt.note_key(base_address, key)
            return HashOpOutcome(False, cycles=cycles, software_fallback=True)
        idx = self._find(key, base_address)
        if idx is not None:
            entry = self._entries[idx]
            entry.value_ptr = value_ptr
            entry.dirty = True
            entry.last_access = self._clock
            self.stats.bump("hwhash.set_hits")
            return HashOpOutcome(True, cycles=cycles)
        outcome = self._insert(key, base_address, value_ptr, dirty=True)
        if outcome.software_fallback:
            return outcome
        self.stats.bump("hwhash.set_inserts")
        return outcome

    def insert_clean(self, key: str, base_address: int, value_ptr: Any) -> HashOpOutcome:
        """Software places a freshly fetched pair after a GET miss."""
        self._clock += 1
        if len(key) > self.config.max_key_bytes:
            self.stats.bump("hwhash.long_key_bypass")
            self.rtt.note_key(base_address, key)
            return HashOpOutcome(False, cycles=1, software_fallback=True)
        outcome = self._insert(key, base_address, value_ptr, dirty=False)
        if not outcome.software_fallback:
            self.stats.bump("hwhash.fill_inserts")
        return outcome

    def _insert(
        self, key: str, base_address: int, value_ptr: Any, dirty: bool
    ) -> HashOpOutcome:
        window = self._probe_window(key, base_address)
        cycles = self.config.hash_cycles + self.config.access_cycles
        dirty_writebacks = 0

        # Priority: invalid entry, then clean entry, then LRU dirty.
        target: Optional[int] = None
        for idx in window:
            if not self._entries[idx].valid:
                target = idx
                break
        if target is None:
            clean = [i for i in window if not self._entries[i].dirty]
            if clean:
                target = min(clean, key=lambda i: self._entries[i].last_access)
                self.stats.bump("hwhash.clean_evictions")
                self.rtt.untrack(
                    self._entries[target].base_address, target
                )
            else:
                target = min(window, key=lambda i: self._entries[i].last_access)
                self.stats.bump("hwhash.dirty_evictions")
                dirty_writebacks = 1
                self._writeback(target)
                self.rtt.untrack(
                    self._entries[target].base_address, target
                )

        victim = self.rtt.track(base_address, target, key)
        if victim == -1:
            # RTT cannot track this map: refuse, fall back to software.
            self.stats.bump("hwhash.rtt_full_bypass")
            return HashOpOutcome(False, cycles=cycles, software_fallback=True)
        if victim is not None:
            # Circular buffer wrapped: evict the overwritten entry.
            if self._entries[victim].valid:
                if self._entries[victim].dirty:
                    dirty_writebacks += 1
                    self._writeback(victim)
                self._entries[victim] = _INVALID

        self._seq += 1
        self._entries[target] = _HwEntry(
            valid=True, dirty=dirty, key=key, base_address=base_address,
            value_ptr=value_ptr, last_access=self._clock, insert_seq=self._seq,
        )
        return HashOpOutcome(
            True, cycles=cycles + 1, dirty_writebacks=dirty_writebacks
        )

    # -- writeback plumbing -------------------------------------------------------------

    #: callback(base_address, key, value_ptr) installed by the dispatcher;
    #: applies a dirty value to the software map and marks it stale.
    writeback_handler = None

    def _writeback(self, idx: int) -> None:
        entry = self._entries[idx]
        self.stats.bump("hwhash.writebacks")
        if self.writeback_handler is not None and entry.valid:
            self.writeback_handler(entry.base_address, entry.key, entry.value_ptr)

    # -- Free / foreach / coherence -------------------------------------------------------

    def free_map(self, base_address: int) -> int:
        """Free request: RTT-driven bulk invalidate, no writebacks.

        Short-lived maps die here "without ever being written back to
        the memory."  Returns invalidated entry count (≈ RTT cycles).
        """
        self.stats.bump("hwhash.frees")
        indices = self.rtt.entries_of(base_address)
        invalidated = 0
        for idx in indices:
            entry = self._entries[idx]
            if entry.valid and entry.base_address == base_address:
                self._entries[idx] = _INVALID
                invalidated += 1
        self.rtt.drop_map(base_address)
        self.stats.bump("hwhash.free_invalidated", invalidated)
        return invalidated

    def flush_map(self, base_address: int) -> int:
        """Write back and invalidate one map (coherence / foreach).

        Used for remote coherence requests forwarded via the RTT and
        for L2-eviction inclusion enforcement.  Returns entries flushed.
        """
        self.stats.bump("hwhash.coherence_flushes")
        indices = self.rtt.entries_of(base_address)
        flushed = 0
        for idx in indices:
            entry = self._entries[idx]
            if entry.valid and entry.base_address == base_address:
                if entry.dirty:
                    self._writeback(idx)
                self._entries[idx] = _INVALID
                flushed += 1
        self.rtt.drop_map(base_address)
        return flushed

    def foreach_sync(self, base_address: int) -> tuple[list[str], int]:
        """Prepare a foreach: write back dirty values, report order.

        Returns ``(insertion_order, dirty_entries_synced)``.  The
        insertion order comes from the RTT; the values remain cached
        (entries become clean, not invalid).
        """
        self.stats.bump("hwhash.foreach_syncs")
        synced = 0
        for idx in self.rtt.entries_of(base_address):
            entry = self._entries[idx]
            if entry.valid and entry.base_address == base_address and entry.dirty:
                self._writeback(idx)
                entry.dirty = False
                synced += 1
        return self.rtt.insertion_order(base_address), synced

    # -- fault injection ---------------------------------------------------------------------

    def inject_invalidation_storm(self) -> int:
        """Fault hook: every entry is invalidated at once.

        Models a soft-error scrub or power-glitch recovery that wipes
        the accelerator array.  Correctness rides on the Section 4.2
        coherence fallback: dirty entries are written back through the
        normal stale-flag path before invalidation, so the software
        maps stay authoritative and service continues (slower) in
        software.  Returns the number of entries invalidated.
        """
        self.stats.bump("hwhash.fault_storms")
        invalidated = 0
        for idx, entry in enumerate(self._entries):
            if not entry.valid:
                continue
            if entry.dirty:
                self._writeback(idx)
                self.stats.bump("hwhash.fault_dirty_writebacks")
            self._entries[idx] = _INVALID
            invalidated += 1
        self.rtt.drop_all()
        self.stats.bump("hwhash.fault_invalidated", invalidated)
        return invalidated

    # -- derived metrics ---------------------------------------------------------------------

    def hit_rate(self) -> float:
        """GET hits + absorbed SETs over all GET/SET requests (Fig 7)."""
        gets = self.stats.get("hwhash.gets")
        sets = self.stats.get("hwhash.sets")
        if gets + sets == 0:
            return 0.0
        get_hits = self.stats.get("hwhash.get_hits")
        absorbed_sets = (
            self.stats.get("hwhash.set_hits")
            + self.stats.get("hwhash.set_inserts")
        )
        return (get_hits + absorbed_sets) / (gets + sets)

    def occupancy(self) -> int:
        return sum(1 for e in self._entries if e.valid)
