"""Seeded generative fuzzing, greedy shrinking, and the conform driver.

The grammars here produce *valid-by-construction* op scripts for the
differential oracles in :mod:`repro.conformance.oracles` — every case
is a plain JSON value, so failures can be persisted verbatim under
``tests/corpus/`` and replayed forever by ``tests/test_conformance.py``.
When a case fails, :func:`shrink_case` greedily deletes op spans and
truncates string arguments until nothing smaller still fails, which is
what lands in the report and the CI artifact.

Everything is derived from one seed through
:class:`~repro.common.rng.DeterministicRng` forks, so
``python -m repro conform --seed N`` renders byte-identical output on
every run — including under ``--jobs`` fan-out, because
:func:`repro.core.parallel.map_cells` preserves submission order.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.common.rng import DEFAULT_SEED, DeterministicRng
from repro.conformance.invariants import INVARIANTS, run_invariant
from repro.conformance.oracles import (
    ConformanceFailure,
    run_calibrate_oracle,
    run_checksum_oracle,
    run_hash_oracle,
    run_heap_oracle,
    run_regex_oracle,
    run_reuse_oracle,
    run_serve_oracle,
    run_string_oracle,
)

#: Fuzzed domains, one differential oracle each (reuse rides on the
#: regex stack but has its own script shape, hence its own domain;
#: checksum pins the process-stable result mixing that DET005 and the
#: pool-identity invariants rely on; serve pins the live HTTP path's
#: bytes to the direct interpreter render; calibrate pins the
#: digital-twin fitters to brute-force shadow fits).  A constant, so a
#: conform run covers the same domains on every machine; each domain
#: has one corpus file, ``tests/corpus/<domain>.json``.
DOMAINS: tuple[str, ...] = (
    "hash", "heap", "string", "regex", "reuse", "checksum", "serve",
    "calibrate",
)

#: Cases per domain: smoke keeps ``scripts/check.sh`` fast.
SMOKE_CASES = 40
FULL_CASES = 250

#: At most this many failures are shrunk and reported per domain; the
#: rest are counted only (one root cause usually fails many cases).
MAX_SHRUNK_PER_DOMAIN = 5


# -- generation grammars -----------------------------------------------------------

_HASH_KEYS = tuple(f"k{i}" for i in range(12))
_LONG_KEY = "key-" + "x" * 24          # > max_key_bytes -> software path
_STRING_ALPHABET = "abcXYZ 012_\t,<&é"
_REGEX_TEXT_ALPHABET = "aabbc x01Z."
_REUSE_PATTERNS = (
    "https://[a-z]+/\\?author=[a-z]+",
    "[0-9]+-[0-9]+",
    "abc[a-z]*",
)


def _gen_hash(rng: DeterministicRng) -> list:
    ops: list = []
    for _ in range(rng.randint(1, 40)):
        roll = rng.random()
        key = _LONG_KEY if rng.random() < 0.05 else rng.choice(_HASH_KEYS)
        base = rng.randint(0, 2)
        if roll < 0.40:
            ops.append(["set", key, base, rng.randint(0, 999)])
        elif roll < 0.75:
            ops.append(["get", key, base])
        elif roll < 0.85:
            ops.append(["foreach", base])
        elif roll < 0.92:
            ops.append(["free", base])
        elif roll < 0.97:
            ops.append(["flush", base])
        else:
            ops.append(["storm"])
    return ops


def _gen_heap(rng: DeterministicRng) -> list:
    ops: list = []
    for _ in range(rng.randint(1, 50)):
        roll = rng.random()
        if roll < 0.50:
            # 1..160 straddles max_request_bytes=128 -> oversize path.
            ops.append(["malloc", rng.randint(1, 160)])
        elif roll < 0.85:
            ops.append(["free", rng.randint(0, 63)])
        elif roll < 0.92:
            ops.append(["flush"])
        elif roll < 0.97:
            ops.append(["outage"])
        else:
            ops.append(["repair"])
    return ops


def _gen_text(rng: DeterministicRng, alphabet: str, lo: int, hi: int) -> str:
    return "".join(
        rng.choice(alphabet) for _ in range(rng.randint(lo, hi))
    )


def _gen_string(rng: DeterministicRng) -> list:
    ops: list = []
    for _ in range(rng.randint(1, 12)):
        subject = _gen_text(rng, _STRING_ALPHABET, 0, 60)
        kind = rng.choice((
            "find", "find_unicode", "compare", "upper", "lower",
            "trim", "replace", "translate", "html_escape",
            "charclass", "configloss",
        ))
        if kind == "find":
            pattern = _gen_text(rng, _STRING_ALPHABET, 1, 8)
            ops.append(["find", subject, pattern,
                        rng.randint(0, max(0, len(subject)))])
        elif kind == "find_unicode":
            # UTF-8 pattern budget is 16 bytes; é costs 2.
            ops.append(["find_unicode", subject,
                        _gen_text(rng, _STRING_ALPHABET, 1, 6)])
        elif kind == "compare":
            ops.append(["compare", subject,
                        _gen_text(rng, _STRING_ALPHABET, 0, 60)])
        elif kind in ("upper", "lower"):
            ops.append([kind, subject])
        elif kind == "trim":
            ops.append(["trim", subject, rng.choice((" \t", " ,", "abc"))])
        elif kind == "replace":
            ops.append(["replace", subject,
                        _gen_text(rng, _STRING_ALPHABET, 1, 4),
                        _gen_text(rng, _STRING_ALPHABET, 0, 4)])
        elif kind == "translate":
            pairs = [[rng.choice(_STRING_ALPHABET),
                      rng.choice(_STRING_ALPHABET)]
                     for _ in range(rng.randint(1, 6))]
            ops.append(["translate", subject, pairs])
        elif kind == "html_escape":
            ops.append(["html_escape", subject,
                        [["<", "&lt;"], ["&", "&amp;"]]])
        elif kind == "charclass":
            ops.append(["charclass", subject,
                        _gen_text(rng, _STRING_ALPHABET, 1, 5),
                        rng.choice((4, 8, 16))])
        else:
            ops.append(["configloss"])
    return ops


def _gen_regex_atom(rng: DeterministicRng) -> str:
    roll = rng.random()
    if roll < 0.45:
        return rng.choice("abcx01")
    if roll < 0.60:
        return rng.choice(("[ab]", "[a-c]", "[^a]", "[0-9x]"))
    if roll < 0.70:
        return "."
    if roll < 0.80:
        return rng.choice(("\\d", "\\w", "\\s"))
    return rng.choice(("\\.", "\\?"))


def _gen_regex_piece(rng: DeterministicRng) -> str:
    atom = _gen_regex_atom(rng)
    roll = rng.random()
    if roll < 0.55:
        return atom
    if roll < 0.70:
        return atom + rng.choice("*+?")
    if roll < 0.80:
        m = rng.randint(0, 2)
        return f"{atom}{{{m},{m + rng.randint(0, 2)}}}"
    # One unquantified group, possibly an alternation — never a
    # quantifier on a quantified subexpression, which keeps the O(n²)
    # re.fullmatch oracle clear of catastrophic backtracking.
    arm = lambda: "".join(_gen_regex_atom(rng)
                          for _ in range(rng.randint(1, 2)))
    if roll < 0.90:
        return f"({arm()}|{arm()})"
    return f"(?:{arm()}|{arm()})" + rng.choice(("", "?"))


def _gen_regex(rng: DeterministicRng) -> list:
    body = "".join(_gen_regex_piece(rng)
                   for _ in range(rng.randint(1, 5)))
    text = _gen_text(rng, _REGEX_TEXT_ALPHABET, 0, 32)
    return [
        body,
        rng.random() < 0.25,          # ignore_case
        rng.random() < 0.20,          # anchor_start
        rng.random() < 0.20,          # anchor_end
        text,
    ]


def _gen_reuse(rng: DeterministicRng) -> list:
    pattern = rng.choice(_REUSE_PATTERNS)
    stems = ("https://site/?author=bob", "https://blog/?author=al",
             "12-345", "0-0", "abcdef", "abz", "no match here")
    script = [
        [rng.randint(0, 3), rng.choice(stems)]
        for _ in range(rng.randint(1, 20))
    ]
    return [pattern, script]


def _gen_checksum_value(rng: DeterministicRng, depth: int = 0):
    roll = rng.random()
    if roll < 0.40:
        return _gen_text(rng, _STRING_ALPHABET, 0, 12)
    if roll < 0.70:
        return rng.randint(-1_000_000, 1_000_000)
    if roll < 0.80 or depth >= 2:
        # The shapes execute.py actually mixes: "key#seq" strings and
        # (key, value) pairs — JSON keeps lists, repr keeps order.
        return f"{rng.choice(_HASH_KEYS)}#{rng.randint(0, 99)}"
    return [_gen_checksum_value(rng, depth + 1)
            for _ in range(rng.randint(0, 3))]


def _gen_checksum(rng: DeterministicRng) -> list:
    from repro.conformance.oracles import shadow_checksum

    values = [_gen_checksum_value(rng)
              for _ in range(rng.randint(1, 12))]
    ops: list = [["mix", v] for v in values]
    # Pin the digest at generation time: replaying this case later
    # fails if checksum mixing ever stops being canonical.
    ops.append(["expect", format(shadow_checksum(values), "016x")])
    return ops


_SERVE_APPS = ("wordpress", "drupal", "mediawiki")


def _gen_serve(rng: DeterministicRng) -> list:
    # Small case sizes: every op costs two real HTTP round trips plus
    # a direct render, and each case boots its own transient server.
    return [
        [rng.choice(_SERVE_APPS), rng.randint(0, 9), rng.randint(0, 2)]
        for _ in range(rng.randint(1, 3))
    ]


_CAL_ROUTES = ("wordpress", "drupal", "mediawiki")


def _gen_calibrate(rng: DeterministicRng) -> list:
    """Seeded telemetry scripts for the fitter-vs-shadow oracle.

    Rows are ``[t_ms, route, cache, queue_ms, render_ms]``.  Most
    cases stay under MIN_SHAPE_EVENTS (the exactly-checkable flat
    arrival path); a dense flavor crosses into the sinusoid fit, and
    degenerate flavors (all-identical renders, single route, all
    cache hits) pin the fitters' edge cases.
    """
    flavor = rng.random()
    if flavor < 0.10:
        n = rng.randint(64, 160)            # dense: sinusoid-fit path
    else:
        n = rng.randint(1, 50)
    identical = rng.random() < 0.15
    single_route = rng.random() < 0.15
    all_hits = rng.random() < 0.08
    fixed_render = round(rng.uniform(0.5, 20.0), 3)
    route = rng.choice(_CAL_ROUTES)
    rows: list = []
    t = 0.0
    for _ in range(n):
        t += rng.uniform(0.1, 50.0)
        roll = rng.random()
        if all_hits or roll >= 0.45:
            cache = ("hit" if roll < 0.75 or all_hits
                     else "stale" if roll < 0.90 else "coalesced")
            queue, render = 0.0, 0.0
        else:
            cache = "miss"
            queue = round(rng.uniform(0.0, 5.0), 3)
            render = (fixed_render if identical
                      else round(rng.uniform(0.2, 25.0), 3))
        rows.append([
            round(t, 3),
            route if single_route else rng.choice(_CAL_ROUTES),
            cache, queue, render,
        ])
    return rows


_GENERATORS = {
    "hash": _gen_hash,
    "heap": _gen_heap,
    "string": _gen_string,
    "regex": _gen_regex,
    "reuse": _gen_reuse,
    "checksum": _gen_checksum,
    "serve": _gen_serve,
    "calibrate": _gen_calibrate,
}


def generate_case(domain: str, rng: DeterministicRng) -> list:
    """One valid-by-construction JSON-able case for ``domain``."""
    try:
        gen = _GENERATORS[domain]
    except KeyError:
        raise ValueError(f"unknown fuzz domain {domain!r}") from None
    return gen(rng)


def run_case(domain: str, case: list) -> None:
    """Replay one case through its oracle; raise on any divergence.

    Unexpected exceptions (an accelerator crashing on a valid script)
    are conformance failures too, wrapped with their traceback tail.
    """
    try:
        if domain == "hash":
            run_hash_oracle(case)
        elif domain == "heap":
            run_heap_oracle(case)
        elif domain == "string":
            run_string_oracle(case)
        elif domain == "regex":
            run_regex_oracle(case)
        elif domain == "reuse":
            pattern, script = case
            run_reuse_oracle(script, pattern)
        elif domain == "checksum":
            run_checksum_oracle(case)
        elif domain == "serve":
            run_serve_oracle(case)
        elif domain == "calibrate":
            run_calibrate_oracle(case)
        else:
            raise ValueError(f"unknown fuzz domain {domain!r}")
    except ConformanceFailure:
        raise
    except Exception as exc:  # any oracle crash is a finding, not a bug here
        tail = traceback.format_exc().strip().splitlines()[-1]
        raise ConformanceFailure(
            domain, f"oracle crashed: {tail}"
        ) from exc


# -- greedy shrinking --------------------------------------------------------------

#: Hard cap on shrink probes so a pathological case cannot stall a run.
SHRINK_BUDGET = 400


def _still_fails(domain: str, case: list) -> bool:
    try:
        run_case(domain, case)
    except ConformanceFailure:
        return True
    return False


def _shrink_script(domain: str, script: list, budget: list) -> list:
    """Delete op spans (halves down to singles), front to back."""
    current = list(script)
    chunk = max(1, len(current) // 2)
    while chunk >= 1 and budget[0] > 0:
        i = 0
        while i < len(current) and budget[0] > 0:
            candidate = current[:i] + current[i + chunk:]
            budget[0] -= 1
            if candidate and _still_fails(domain, candidate):
                current = candidate
            else:
                i += chunk
        chunk //= 2
    return current


def _shrink_strings(domain: str, case: list, budget: list) -> list:
    """Truncate string args one char at a time, keeping validity.

    Only shrinks to length ≥ 1 — grammar validity (non-empty find
    patterns, non-empty replace search) must be preserved so a shrunk
    repro exercises the same code path as the original failure.
    """
    current = [list(op) for op in case]
    for oi, op in enumerate(current):
        for ai, arg in enumerate(op):
            while isinstance(arg, str) and len(arg) > 1 and budget[0] > 0:
                for candidate_arg in (arg[1:], arg[:-1]):
                    probe = [list(o) for o in current]
                    probe[oi][ai] = candidate_arg
                    budget[0] -= 1
                    if _still_fails(domain, probe):
                        current = probe
                        arg = candidate_arg
                        break
                else:
                    break
    return current


def _shrink_regex(domain: str, case: list, budget: list) -> list:
    """Shrink text from both ends and clear flags; never touch the
    body (an edited body may leave the supported pattern subset)."""
    body, ic, a_start, a_end, text = case
    current = [body, ic, a_start, a_end, text]
    for flag_idx in (1, 2, 3):
        if current[flag_idx] and budget[0] > 0:
            probe = list(current)
            probe[flag_idx] = False
            budget[0] -= 1
            if _still_fails(domain, probe):
                current = probe
    progress = True
    while progress and budget[0] > 0:
        progress = False
        for candidate_text in (current[4][1:], current[4][:-1]):
            if candidate_text == current[4]:
                continue
            probe = list(current)
            probe[4] = candidate_text
            budget[0] -= 1
            if _still_fails(domain, probe):
                current = probe
                progress = True
                break
    return current


def shrink_case(domain: str, case: list) -> list:
    """Greedily minimize a failing case; returns a still-failing case.

    Not a global minimum — a 1-minimal neighborhood under span
    deletion + string truncation, which in practice turns 40-op fuzz
    scripts into 1–3 op repros.
    """
    if not _still_fails(domain, case):
        return case
    budget = [SHRINK_BUDGET]
    if domain == "regex":
        return _shrink_regex(domain, case, budget)
    if domain == "reuse":
        pattern, script = case
        chunk = max(1, len(script) // 2)
        current = list(script)
        while chunk >= 1 and budget[0] > 0:
            i = 0
            while i < len(current) and budget[0] > 0:
                candidate = current[:i] + current[i + chunk:]
                budget[0] -= 1
                if candidate and _still_fails(
                    domain, [pattern, candidate]
                ):
                    current = candidate
                else:
                    i += chunk
            chunk //= 2
        return [pattern, current]
    current = _shrink_script(domain, case, budget)
    if domain == "string":
        current = _shrink_strings(domain, current, budget)
    return current


# -- results and the top-level driver ----------------------------------------------


@dataclass
class DomainResult:
    """Outcome of fuzzing one domain."""

    domain: str
    cases: int
    failures: int
    #: shrunk repros (capped at MAX_SHRUNK_PER_DOMAIN), each
    #: ``{"case_index", "error", "case", "shrunk"}`` — JSON-able
    shrunk: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "cases": self.cases,
            "failures": self.failures,
            "shrunk": self.shrunk,
        }


@dataclass
class ConformanceReport:
    """One ``python -m repro conform`` run, fully JSON-able."""

    seed: int
    smoke: bool
    domains: list[DomainResult] = field(default_factory=list)
    #: per-invariant ``{"name", "ok", "detail"}`` rows
    invariants: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            all(d.ok for d in self.domains)
            and all(row["ok"] for row in self.invariants)
        )

    @property
    def total_cases(self) -> int:
        return sum(d.cases for d in self.domains)

    @property
    def total_failures(self) -> int:
        return sum(d.failures for d in self.domains) + sum(
            0 if row["ok"] else 1 for row in self.invariants
        )

    def to_dict(self) -> dict:
        return {
            "schema": "repro-conformance/1",
            "seed": self.seed,
            "smoke": self.smoke,
            "ok": self.ok,
            "domains": [d.to_dict() for d in self.domains],
            "invariants": self.invariants,
        }


def fuzz_domain(domain: str, seed: int, cases: int) -> DomainResult:
    """Generate + run ``cases`` scripts; shrink what fails."""
    rng = DeterministicRng(seed).fork(f"conformance/fuzz/{domain}")
    result = DomainResult(domain=domain, cases=cases, failures=0)
    for index in range(cases):
        case = generate_case(domain, rng)
        try:
            run_case(domain, case)
        except ConformanceFailure as failure:
            result.failures += 1
            if len(result.shrunk) < MAX_SHRUNK_PER_DOMAIN:
                small = shrink_case(domain, case)
                error = str(failure)
                try:
                    run_case(domain, small)
                except ConformanceFailure as shrunk_failure:
                    error = str(shrunk_failure)
                result.shrunk.append({
                    "case_index": index,
                    "error": error,
                    "case": case,
                    "shrunk": small,
                })
    return result


def _fuzz_cell(item: tuple) -> dict:
    """Module-level cell for process-pool fan-out (must pickle)."""
    domain, seed, cases = item
    return fuzz_domain(domain, seed, cases).to_dict()


def _invariant_cell(item: tuple) -> dict:
    name, seed, smoke = item
    try:
        detail = run_invariant(name, seed=seed, smoke=smoke)
        return {"name": name, "ok": True, "detail": detail}
    except ConformanceFailure as failure:
        return {"name": name, "ok": False, "detail": str(failure)}


def run_conformance(
    smoke: bool = False,
    seed: int = DEFAULT_SEED,
    jobs: Optional[int] = None,
) -> ConformanceReport:
    """Fuzz every domain + run every invariant; one report.

    Domains and invariants are independent cells fanned out over
    :func:`repro.core.parallel.map_cells`; results come back in
    submission order, so the report is identical for any ``jobs``.
    The experiment cache is deliberately *not* used here — conformance
    must re-execute the code under test every time.
    """
    from repro.core.parallel import map_cells

    cases = SMOKE_CASES if smoke else FULL_CASES
    fuzz_items = [(domain, seed, cases) for domain in DOMAINS]
    invariant_items = [(name, seed, smoke) for name in INVARIANTS]
    domain_dicts = map_cells(_fuzz_cell, fuzz_items, jobs=jobs,
                             label="conformance-fuzz")
    invariant_rows = map_cells(_invariant_cell, invariant_items,
                               jobs=jobs, label="conformance-invariant")
    return ConformanceReport(
        seed=seed,
        smoke=smoke,
        domains=[DomainResult(**d) for d in domain_dicts],
        invariants=invariant_rows,
    )


def write_failure_artifacts(
    report: ConformanceReport,
    out_dir: str | Path = "benchmarks/out/conformance",
) -> Optional[Path]:
    """Persist shrunk repros for CI artifact upload.

    Returns the path written, or None when the report is clean (no
    file is written so ``if-no-files-found: ignore`` keeps CI quiet).
    """
    if report.ok:
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "failures.json"
    path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return path
