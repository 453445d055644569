"""Category simulators: one operation stream, two execution paths.

Each simulator executes a workload's operation stream twice — once on
the software substrate (the HHVM-like baseline) and once through the
accelerators with zero-flag fallbacks — and accounts µops, cycles, and
accelerator energy events for both.  The per-category *efficiency*
(1 − hw/sw cycles) these runs produce is what turns the paper's
Figure 5 time breakdown into its Figure 14/15 results.

Correctness is first-class: both paths compute real values over real
data structures, and checksums (plus dedicated integration tests)
assert the accelerated execution is semantically identical to the
software one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.costs import DEFAULT_COSTS, CostModel

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def stable_hash(value: object, memo: Optional[dict[str, int]] = None) -> int:
    """Process-stable 64-bit FNV-1a hash of a value's canonical repr.

    Builtin ``hash()`` is PYTHONHASHSEED-salted for str/bytes, so
    checksums built on it differ between the pool workers of a
    ``map_cells`` fan-out and can never be compared across processes
    or pinned in a corpus.  ``repr`` is canonical for everything the
    simulators mix (str/int/tuple), making this hash identical on
    every platform and in every process.

    ``memo`` maps ``repr`` text to its hash.  Keyed by the text, not
    the value, it cannot confuse values that compare equal but print
    differently (``1``, ``True``, ``1.0``).
    """
    text = repr(value)
    if memo is not None:
        found = memo.get(text)
        if found is not None:
            return found
    acc = _FNV64_OFFSET
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * _FNV64_PRIME) & _MASK64
    if memo is not None:
        memo[text] = acc
    return acc


from repro.isa.dispatch import AcceleratorComplex
from repro.regex.engine import RegexManager
from repro.runtime.phparray import PhpArray
from repro.runtime.slab import SlabAllocator
from repro.runtime.strings import StringLibrary
from repro.workloads.allocs import AllocOp
from repro.workloads.hashops import HashOp, HashOpGenerator
from repro.workloads.regexops import ReuseTask, SiftTask
from repro.workloads.strops import StrOp


@dataclass
class CategoryRun:
    """Accumulated cost of one category in one mode."""

    category: str
    mode: str                      # 'software' | 'accelerated'
    uops: float = 0.0
    cycles: float = 0.0
    #: accelerator energy events (hash/heap accesses, string blocks, …)
    events: dict[str, int] = field(default_factory=dict)
    checksum: int = 0

    def bump_event(self, name: str, amount: int = 1) -> None:
        self.events[name] = self.events.get(name, 0) + amount

    def mix_checksum(
        self, value: object, memo: Optional[dict[str, int]] = None
    ) -> None:
        """Fold ``stable_hash(value, memo)`` into the checksum."""
        self.checksum = (
            self.checksum * 1099511628211 + stable_hash(value, memo)
        ) & _MASK64

    def efficiency_vs(self, software: "CategoryRun") -> float:
        """Fraction of software cycles the accelerated path removed."""
        if software.cycles <= 0:
            return 0.0
        return max(0.0, 1.0 - self.cycles / software.cycles)


# ---------------------------------------------------------------------------
# Hash category
# ---------------------------------------------------------------------------


class HashSimulator:
    """Executes hash-op streams against PHP arrays ± the accelerator."""

    def __init__(
        self,
        mode: str,
        generator: HashOpGenerator,
        costs: CostModel = DEFAULT_COSTS,
        complex_: Optional[AcceleratorComplex] = None,
        hash_memo: Optional[dict[str, int]] = None,
    ) -> None:
        if mode not in ("software", "accelerated"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "accelerated" and complex_ is None:
            raise ValueError("accelerated mode needs an AcceleratorComplex")
        self.mode = mode
        self.generator = generator
        self.costs = costs
        self.complex = complex_
        self.run = CategoryRun("hash", mode)
        self.hash_memo = hash_memo
        from repro.common.stats import StatRegistry
        self._sw_stats = StatRegistry(f"hash-{mode}")
        self.maps: dict[int, PhpArray] = {}
        self._value_seq = 0
        self._inserted_keys: dict[int, set[str]] = {}

    # -- software helpers ------------------------------------------------------------

    def _array_for(self, map_id: int) -> PhpArray:
        array = self.maps.get(map_id)
        if array is None:
            array = PhpArray(
                base_address=self.generator.map_base_address(map_id),
                stats=self._sw_stats,
            )
            self.maps[map_id] = array
            self._inserted_keys[map_id] = set()
            if self.complex is not None:
                self.complex.register_map(array)
        return array

    def _next_value(self, key: str) -> str:
        self._value_seq += 1
        return f"{key}#{self._value_seq}"

    # -- execution -----------------------------------------------------------------------

    def execute(self, ops: list[HashOp]) -> None:
        for op in ops:
            if op.kind == "alloc":
                self._array_for(op.map_id)
            elif op.kind == "set":
                self._do_set(op)
            elif op.kind == "get":
                self._do_get(op)
            elif op.kind == "foreach":
                self._do_foreach(op)
            elif op.kind == "free":
                self._do_free(op)
            else:
                raise ValueError(f"unknown hash op {op.kind!r}")

    def _do_set(self, op: HashOp) -> None:
        array = self._array_for(op.map_id)
        value = self._next_value(op.key)
        new_key = op.key not in self._inserted_keys[op.map_id]
        self._inserted_keys[op.map_id].add(op.key)
        if self.mode == "software":
            array.set(op.key, value)
            if new_key:
                self.run.uops += self.costs.hash_insert_extra_uops
            return
        outcome = self.complex.hash_table.set(
            op.key, array.base_address, value
        )
        self.run.bump_event("hash_accesses")
        self.run.uops += self.costs.accel_issue_uops
        self.run.cycles += outcome.cycles
        if outcome.software_fallback:
            self.run.uops += self.costs.fallback_branch_uops
            array.set(op.key, value)
            if new_key:
                self.run.uops += self.costs.hash_insert_extra_uops

    def _do_get(self, op: HashOp) -> None:
        array = self._array_for(op.map_id)
        if self.mode == "software":
            value = array.get_default(op.key)
            if value is None:
                # Cold global key: compute (e.g. DB fetch) and memoize.
                value = f"db:{op.key}"
                array.set(op.key, value)
                self._inserted_keys[op.map_id].add(op.key)
                self.run.uops += self.costs.hash_insert_extra_uops
            self.run.mix_checksum(value, self.hash_memo)
            return
        outcome = self.complex.hash_table.get(op.key, array.base_address)
        self.run.bump_event("hash_accesses")
        self.run.uops += self.costs.accel_issue_uops
        self.run.cycles += outcome.cycles
        if outcome.hit:
            self.run.mix_checksum(outcome.value_ptr, self.hash_memo)
            return
        # Zero flag: software walk, then place the pair into the table.
        self.run.uops += self.costs.fallback_branch_uops
        value = array.get_default(op.key)
        if value is None:
            value = f"db:{op.key}"
            array.set(op.key, value)
            self._inserted_keys[op.map_id].add(op.key)
            self.run.uops += self.costs.hash_insert_extra_uops
        fill = self.complex.hash_table.insert_clean(
            op.key, array.base_address, value
        )
        self.run.cycles += fill.cycles
        self.run.bump_event("hash_accesses")
        self.run.mix_checksum(value, self.hash_memo)

    def _do_foreach(self, op: HashOp) -> None:
        array = self._array_for(op.map_id)
        if self.mode == "accelerated":
            order, synced = self.complex.hash_table.foreach_sync(
                array.base_address
            )
            self.run.cycles += 1 + synced
            self.run.bump_event("hash_accesses", max(1, synced))
            if order:
                # RTT-provided insertion order over the synced values.
                visited = 0
                for key in order:
                    value = array.get_default(key)
                    if value is None:
                        continue
                    visited += 1
                    self.run.mix_checksum((key, value), self.hash_memo)
                self.run.uops += (
                    visited * self.costs.hash_foreach_per_entry_uops
                )
                return
        visited = 0
        for key, value in array.items():
            visited += 1
            self.run.mix_checksum((key, value), self.hash_memo)
        self.run.uops += visited * self.costs.hash_foreach_per_entry_uops

    def _do_free(self, op: HashOp) -> None:
        array = self.maps.pop(op.map_id, None)
        self._inserted_keys.pop(op.map_id, None)
        if array is None:
            return
        if self.mode == "accelerated":
            invalidated = self.complex.hash_table.free_map(array.base_address)
            self.run.cycles += 1 + invalidated // 4
            self.complex.drop_map(array.base_address)

    # -- settlement ----------------------------------------------------------------------

    def finish(self) -> CategoryRun:
        """Fold the software-side walk counters into the cost totals."""
        s = self._sw_stats
        walk_uops = self.costs.hash_walk_uops(
            probes=s.get("walk.probes"),
            key_bytes=s.get("walk.key_bytes"),
            ops=s.get("walk.ops"),
        )
        self.run.uops += walk_uops
        # Stale-bucket rebuilds triggered by hardware writebacks.
        self.run.uops += s.get("walk.stale_rebuilds") * 40.0
        self.run.cycles += self.costs.uops_to_cycles(self.run.uops)
        return self.run

    def average_walk_uops(self) -> float:
        """Software µops per hash-map walk (paper: 90.66)."""
        s = self._sw_stats
        ops = s.get("walk.ops")
        if not ops:
            return 0.0
        return self.costs.hash_walk_uops(
            s.get("walk.probes"), s.get("walk.key_bytes"), ops
        ) / ops


# ---------------------------------------------------------------------------
# Heap category
# ---------------------------------------------------------------------------


class HeapSimulator:
    """Executes allocation streams against the slab ± the accelerator."""

    def __init__(
        self,
        mode: str,
        costs: CostModel = DEFAULT_COSTS,
        complex_: Optional[AcceleratorComplex] = None,
        sample_every: int = 0,
        hash_memo: Optional[dict[str, int]] = None,
    ) -> None:
        self.mode = mode
        self.costs = costs
        self.complex = complex_
        if mode == "accelerated":
            if complex_ is None:
                raise ValueError("accelerated mode needs an AcceleratorComplex")
            self.slab = complex_.slab
        else:
            self.slab = SlabAllocator()
        self.run = CategoryRun("heap", mode)
        self.hash_memo = hash_memo
        self._addresses: dict[int, tuple[int, int]] = {}  # tag -> (addr, size)
        self.sample_every = sample_every
        self._event_count = 0

    def execute(self, ops: list[AllocOp]) -> None:
        for op in ops:
            self._event_count += 1
            if self.sample_every and self._event_count % self.sample_every == 0:
                self.slab.sample_usage()
            if op.kind == "malloc":
                self._do_malloc(op)
            elif op.kind == "free":
                self._do_free(op)
            else:
                raise ValueError(f"unknown alloc op {op.kind!r}")

    def _do_malloc(self, op: AllocOp) -> None:
        if self.mode == "software":
            addr = self.slab.malloc(op.size)
            self.run.uops += self.costs.malloc_uops
        else:
            outcome = self.complex.heap_manager.hmmalloc(op.size)
            self.run.bump_event("heap_accesses")
            self.run.uops += self.costs.accel_issue_uops
            self.run.cycles += outcome.cycles
            if outcome.address is not None:
                addr = outcome.address
                if outcome.software_fallback:
                    self.run.uops += (
                        self.costs.fallback_branch_uops + self.costs.malloc_uops
                    )
            else:
                # Comparator bypass: software allocates entirely.
                addr = self.slab.malloc(op.size)
                self.run.uops += (
                    self.costs.fallback_branch_uops + self.costs.malloc_uops
                )
        self._addresses[op.tag] = (addr, op.size)
        self.run.mix_checksum(op.size, self.hash_memo)

    def _do_free(self, op: AllocOp) -> None:
        addr, size = self._addresses.pop(op.tag)
        if self.mode == "software":
            self.slab.free(addr)
            self.run.uops += self.costs.free_uops
            return
        outcome = self.complex.heap_manager.hmfree(addr, size)
        self.run.bump_event("heap_accesses")
        self.run.uops += self.costs.accel_issue_uops
        self.run.cycles += outcome.cycles
        if outcome.software_fallback:
            if outcome.overflow_stores:
                self.run.uops += (
                    self.costs.fallback_branch_uops
                    + outcome.overflow_stores * self.costs.overflow_store_uops
                )
            else:
                # Comparator bypass: full software free.
                self.slab.free(addr)
                self.run.uops += (
                    self.costs.fallback_branch_uops + self.costs.free_uops
                )

    def finish(self) -> CategoryRun:
        kernel = self.slab.stats.get("kernel.chunk_allocs")
        self.run.uops += kernel * self.costs.kernel_chunk_uops
        self.run.cycles += self.costs.uops_to_cycles(self.run.uops)
        if self.mode == "accelerated":
            self.run.bump_event(
                "heap_accesses",
                self.complex.heap_manager.stats.get("hwheap.prefetches"),
            )
        return self.run

    @property
    def live_allocations(self) -> int:
        return len(self._addresses)


# ---------------------------------------------------------------------------
# String category
# ---------------------------------------------------------------------------


class StringSimulator:
    """Executes string-op streams on the library ± the accelerator."""

    def __init__(
        self,
        mode: str,
        costs: CostModel = DEFAULT_COSTS,
        complex_: Optional[AcceleratorComplex] = None,
        hash_memo: Optional[dict[str, int]] = None,
    ) -> None:
        self.mode = mode
        self.costs = costs
        self.complex = complex_
        if mode == "accelerated" and complex_ is None:
            raise ValueError("accelerated mode needs an AcceleratorComplex")
        self.library = StringLibrary()
        self.run = CategoryRun("string", mode)
        self.hash_memo = hash_memo

    def execute(self, ops: list[StrOp]) -> None:
        for op in ops:
            value = (
                self._software_op(op)
                if self.mode == "software"
                else self._accel_op(op)
            )
            self.run.mix_checksum(value, self.hash_memo)

    def _software_op(self, op: StrOp) -> object:
        lib = self.library
        if op.func == "concat":
            return lib.concat(list(op.parts)).value
        if op.func == "htmlspecialchars":
            return lib.htmlspecialchars(op.subject).value
        if op.func == "strpos":
            return lib.strpos(op.subject, op.pattern).value
        if op.func == "replace":
            return lib.str_replace(op.pattern, op.replacement, op.subject).value
        if op.func == "tolower":
            return lib.strtolower(op.subject).value
        if op.func == "toupper":
            return lib.strtoupper(op.subject).value
        if op.func == "trim":
            return lib.trim(op.subject).value
        if op.func == "translate":
            mapping = dict(zip(op.pattern, op.replacement))
            return lib.strtr(op.subject, mapping).value
        if op.func == "substr":
            return lib.substr(op.subject, int(op.pattern)).value
        if op.func == "strcmp":
            return lib.strcmp(op.subject, op.pattern).value
        raise ValueError(f"unknown string op {op.func!r}")

    def _accel_op(self, op: StrOp) -> object:
        accel = self.complex.string
        self.run.uops += self.costs.accel_issue_uops
        if op.func == "concat":
            joined = "".join(op.parts)
            outcome = accel.copy(joined)
        elif op.func == "htmlspecialchars":
            from repro.runtime.strings import HTML_ESCAPES
            outcome = accel.html_escape(op.subject, HTML_ESCAPES)
        elif op.func == "strpos":
            outcome = accel.find(op.subject, op.pattern)
        elif op.func == "replace":
            outcome = accel.replace(op.subject, op.pattern, op.replacement)
        elif op.func == "tolower":
            outcome = accel.to_lower(op.subject)
        elif op.func == "toupper":
            outcome = accel.to_upper(op.subject)
        elif op.func == "trim":
            outcome = accel.trim(op.subject)
        elif op.func == "translate":
            mapping = dict(zip(op.pattern, op.replacement))
            outcome = accel.translate(op.subject, mapping)
        elif op.func == "substr":
            start = int(op.pattern)
            outcome = accel.copy(op.subject[start:])
        elif op.func == "strcmp":
            outcome = accel.compare(op.subject, op.pattern)
        else:
            raise ValueError(f"unknown string op {op.func!r}")
        self.run.cycles += outcome.cycles
        self.run.bump_event("string_blocks", outcome.blocks)
        return outcome.value

    def finish(self) -> CategoryRun:
        if self.mode == "software":
            self.run.uops += self.library.total_uops
        self.run.cycles += self.costs.uops_to_cycles(self.run.uops)
        return self.run


# ---------------------------------------------------------------------------
# Regex category
# ---------------------------------------------------------------------------


class RegexSimulator:
    """Executes sift/reuse tasks with and without content filtering."""

    def __init__(
        self,
        mode: str,
        costs: CostModel = DEFAULT_COSTS,
        complex_: Optional[AcceleratorComplex] = None,
        hash_memo: Optional[dict[str, int]] = None,
    ) -> None:
        self.mode = mode
        self.costs = costs
        self.complex = complex_
        if mode == "accelerated" and complex_ is None:
            raise ValueError("accelerated mode needs an AcceleratorComplex")
        self.manager = RegexManager()
        self.run = CategoryRun("regex", mode)
        self.hash_memo = hash_memo
        #: Figure 12 numerators/denominators
        self.chars_total = 0
        self.chars_skipped_sifting = 0
        self.chars_skipped_reuse = 0

    # -- sift tasks ----------------------------------------------------------------------

    def execute_sift(self, tasks: list[SiftTask]) -> None:
        for task in tasks:
            if self.mode == "software":
                self._sift_software(task)
            else:
                self._sift_accelerated(task)

    def _sift_software(self, task: SiftTask) -> None:
        content = task.content
        for i, pattern in enumerate(task.function_set.patterns):
            regex = self.manager.compile(pattern)
            matches, examined = regex.findall(content)
            self._charge_chars(examined, calls=1)
            self.run.mix_checksum((i, len(matches)), self.hash_memo)
            self.chars_total += len(content)
            if i == 0 and task.function_set.mutating and matches:
                content, _, _ = self._plain_replace(content, matches, "~")

    def _sift_accelerated(self, task: SiftTask) -> None:
        sifter = self.complex.sifter
        content = task.content
        hv, hv_cycles = sifter.build_hint_vector(content)
        self.run.cycles += hv_cycles
        self.run.bump_event(
            "string_blocks",
            max(1, len(content) // self.complex.string.config.block_bytes),
        )
        patterns = task.function_set.patterns
        # The sieve does its normal matching (software FSM) while the
        # string accelerator emits the HV alongside.
        sieve = self.manager.compile(patterns[0])
        matches, examined = sieve.findall(content)
        self._charge_chars(examined, calls=1)
        self.run.mix_checksum((0, len(matches)), self.hash_memo)
        self.chars_total += len(content)
        if task.function_set.mutating and matches:
            content, hv, pad = sifter.replace_with_padding(
                content, matches, "~", hv
            )
        for i, pattern in enumerate(patterns[1:], start=1):
            regex = self.manager.compile(pattern)
            result = sifter.shadow_findall(regex, content, hv)
            self._charge_chars(result.chars_examined, calls=1)
            self.chars_total += len(content)
            self.chars_skipped_sifting += result.chars_skipped
            self.run.mix_checksum((i, len(result.matches)), self.hash_memo)

    # -- ablation entry points (techniques disabled) ---------------------------

    def execute_sift_unsifted(self, tasks: list[SiftTask]) -> None:
        """Ablation: no hint vectors — shadows scan everything."""
        for task in tasks:
            self._sift_software(task)

    def execute_reuse_unmemoized(self, tasks: list[ReuseTask]) -> None:
        """Ablation: no reuse table — every scan starts from state 0."""
        for task in tasks:
            regex = self.manager.compile(task.pattern)
            for content in task.contents:
                self.chars_total += len(content)
                outcome = regex.match_prefix(content)
                self._charge_chars(len(content), calls=1)
                end = outcome.match.end if outcome.match else None
                self.run.mix_checksum(end, self.hash_memo)

    @staticmethod
    def _plain_replace(content, matches, replacement):
        out = []
        cursor = 0
        for m in matches:
            out.append(content[cursor:m.start])
            out.append(replacement)
            cursor = m.end
        out.append(content[cursor:])
        return "".join(out), None, 0

    # -- reuse tasks ----------------------------------------------------------------------

    def execute_reuse(self, tasks: list[ReuseTask]) -> None:
        for task in tasks:
            regex = self.manager.compile(task.pattern)
            for content in task.contents:
                self.chars_total += len(content)
                if self.mode == "software":
                    outcome = regex.match_prefix(content)
                    self._charge_chars(len(content), calls=1)
                    end = outcome.match.end if outcome.match else None
                    self.run.mix_checksum(end, self.hash_memo)
                else:
                    result = self.complex.reuse_matcher.match(
                        regex, content, pc=task.pc
                    )
                    self.run.bump_event("reuse_accesses")
                    self.run.cycles += (
                        self.complex.reuse_table.config.lookup_cycles
                    )
                    self._charge_chars(result.chars_examined, calls=1)
                    self.chars_skipped_reuse += result.chars_skipped
                    self.run.mix_checksum(result.match_end, self.hash_memo)

    def _charge_chars(self, chars: int, calls: int) -> None:
        self.run.uops += (
            chars * self.costs.regex_uops_per_char
            + calls * self.costs.regex_call_uops
        )

    def finish(self) -> CategoryRun:
        self.run.cycles += self.costs.uops_to_cycles(self.run.uops)
        return self.run

    def skip_fraction(self) -> float:
        """Figure 12: fraction of content the techniques skipped."""
        if not self.chars_total:
            return 0.0
        return (
            self.chars_skipped_sifting + self.chars_skipped_reuse
        ) / self.chars_total
