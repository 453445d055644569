"""Conformance subsystem: differential oracles + metamorphic fuzzing.

The paper's claims rest on the four accelerator models faithfully
implementing the semantics of the software structures they replace.
PR 3's kernel rewrites were proven equivalent to the *seed* kernels;
this package checks them against independent ground truth:

* :mod:`repro.conformance.oracles` — differential oracles driving each
  accelerator next to a trivially-correct Python shadow (``dict``,
  interval allocator, ``str``/``bytes``, :mod:`re`);
* :mod:`repro.conformance.invariants` — metamorphic invariants over
  the simulators (same-seed byte-identity, latency conservation,
  accounting balances, SLO-capacity monotonicity);
* :mod:`repro.conformance.fuzzer` — seeded generative input grammars,
  greedy shrinking of failing cases, and the ``python -m repro
  conform`` entry point;
* a persisted regression corpus under ``tests/corpus/`` replayed by
  ``tests/test_conformance.py``.
"""

from repro.conformance.oracles import (
    ConformanceFailure,
    HASH_BASES,
    hash_ops_outcomes,
    run_checksum_oracle,
    run_hash_oracle,
    run_heap_oracle,
    run_regex_oracle,
    run_reuse_oracle,
    run_string_oracle,
    shadow_checksum,
)
from repro.conformance.invariants import (
    INVARIANTS,
    run_invariant,
)
from repro.conformance.fuzzer import (
    DOMAINS,
    ConformanceReport,
    DomainResult,
    fuzz_domain,
    generate_case,
    run_case,
    run_conformance,
    shrink_case,
    write_failure_artifacts,
)

__all__ = [
    "ConformanceFailure",
    "ConformanceReport",
    "DomainResult",
    "DOMAINS",
    "HASH_BASES",
    "INVARIANTS",
    "fuzz_domain",
    "generate_case",
    "hash_ops_outcomes",
    "run_case",
    "run_conformance",
    "run_checksum_oracle",
    "run_hash_oracle",
    "run_heap_oracle",
    "run_invariant",
    "run_regex_oracle",
    "run_reuse_oracle",
    "run_string_oracle",
    "shadow_checksum",
    "shrink_case",
    "write_failure_artifacts",
]
