"""Regexp matching engine with per-character cost accounting.

The engine implements leftmost-longest matching over the FSM tables of
:mod:`repro.regex.dfa`.  Every character the automaton consumes bumps
``regex.chars_examined`` — the quantity the paper's two content
filtering techniques (Section 4.5) exist to reduce, and the y-axis of
its Figure 12 ("percentage of total textual content ... regexps can
skip processing").

The engine intentionally processes text character-at-a-time from each
candidate start position, because that is precisely the software
baseline the paper criticizes: "Traditional regular expression
processing engines are built around a character-at-a-time sequential
processing model."  Early termination on dead states is implemented —
the baseline is honest, not a strawman.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from repro.common.stats import StatRegistry
from repro.regex.dfa import DEAD, FsmTable, build_dfa
from repro.regex.nfa import build_nfa
from repro.regex.parser import parse


@lru_cache(maxsize=512)
def _compile_tables(
    pattern: str,
) -> tuple[bool, bool, bool, FsmTable, Optional[Callable]]:
    """Memoized pattern → (ignore_case, anchors, FSM table, start scan).

    Parse/NFA/DFA construction is deterministic and the resulting
    table is never mutated by matching, so compiled tables are shared
    across :class:`CompiledRegex` instances (each instance keeps its
    own stats registry).  Repeated patterns across simulators compile
    once per process.  The start scan is :func:`_live_start_finder`'s.
    """
    body = pattern
    ignore_case = body.startswith("(?i)")
    if ignore_case:
        body = body[4:]
    nfa = build_nfa(parse(body), body, fold_case=ignore_case)
    fsm = build_dfa(nfa)
    return (ignore_case, nfa.anchored_start, nfa.anchored_end, fsm,
            _live_start_finder(fsm, nfa.anchored_start, nfa.anchored_end))


def _live_start_finder(
    fsm: FsmTable, anchored_start: bool, anchored_end: bool
) -> Optional[Callable]:
    """``re`` search for the next character the start state survives.

    A candidate start whose first character the start state sends to
    :data:`DEAD` (or to a state with no accept reachable) examines
    exactly that one character and yields no match: either the start
    state does not accept, or the pattern is ``$``-anchored and the
    candidate is not at the end of the text.  :meth:`CompiledRegex.
    search` jumps over a run of such starts with this scan, done in C,
    and counts one examined character per start it skips.  Returns
    None where a start cannot be skipped that way: a ``^``-anchored
    pattern (one candidate), a start state with no accept reachable
    (a candidate examines nothing), and a start state that accepts
    without a ``$`` (every candidate matches).
    """
    start = fsm.start
    live = fsm.live
    if (anchored_start or not live[start]
            or (start in fsm.accepting and not anchored_end)):
        return None
    row = fsm.transitions[start]
    survivors = "".join(
        f"\\x{code:02x}" for code, cls in enumerate(fsm.class_of)
        if row[cls] != DEAD and live[row[cls]]
    )
    return re.compile(f"[{survivors}]" if survivors else "(?!)").search

#: µops a software engine spends per character examined (table load,
#: index computation, branch) — the character-at-a-time model.
UOPS_PER_CHAR = 6
#: Fixed per-call overhead (PCRE setup, option decoding).
CALL_OVERHEAD_UOPS = 40


@dataclass
class MatchResult:
    """One match: ``text[start:end]`` matched the pattern."""

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass
class ScanOutcome:
    """A search/match call plus the work it performed."""

    match: Optional[MatchResult]
    chars_examined: int


class CompiledRegex:
    """A pattern compiled to an FSM table, with matching entry points."""

    def __init__(self, pattern: str, stats: Optional[StatRegistry] = None) -> None:
        self.pattern = pattern
        (self.ignore_case, self.anchored_start, self.anchored_end,
         self.fsm, self._find_live_start) = _compile_tables(pattern)
        self.stats = stats if stats is not None else StatRegistry("regex")

    # -- low-level FSM access (used by the content-reuse accelerator) -----------

    def state_after(
        self, text: str, start: int = 0, length: Optional[int] = None
    ) -> tuple[int, Optional[int]]:
        """Run the anchored automaton over a prefix.

        Returns ``(state, last_accept_end)`` after consuming
        ``text[start:start+length]`` from the initial state.  This pair
        is exactly what a content-reuse entry has to remember to resume
        matching after a memoized prefix (Section 4.5, Figure 13).
        """
        fsm = self.fsm
        transitions = fsm.transitions
        class_of = fsm.class_of
        accepting = fsm.accepting
        state = fsm.start
        last_accept = start if state in accepting else None
        stop = len(text) if length is None else min(len(text), start + length)
        examined = 0
        for pos in range(start, stop):
            code = ord(text[pos])
            state = transitions[state][class_of[code]] if code < 256 else DEAD
            examined += 1
            if state == DEAD:
                self._count(examined)
                return DEAD, last_accept
            if state in accepting:
                last_accept = pos + 1
        self._count(examined)
        return state, last_accept

    def resume(
        self,
        state: int,
        last_accept: Optional[int],
        text: str,
        pos: int,
    ) -> tuple[Optional[int], int]:
        """Continue an anchored match from a memoized FSM state.

        Returns ``(match_end, chars_examined)`` where ``match_end`` is
        the longest accept position (or None).  Used by the reuse
        accelerator to finish a match after jumping over a shared
        content prefix.
        """
        fsm = self.fsm
        transitions = fsm.transitions
        class_of = fsm.class_of
        accepting = fsm.accepting
        live = fsm.live
        n = len(text)
        examined = 0
        best = last_accept
        current = state
        while pos < n and current != DEAD and live[current]:
            code = ord(text[pos])
            current = transitions[current][class_of[code]] if code < 256 else DEAD
            examined += 1
            pos += 1
            if current == DEAD:
                break
            if current in accepting:
                best = pos
        self._count(examined)
        if self.anchored_end and best is not None and best != n:
            best = None if current not in accepting or pos != n else best
        return best, examined

    # -- matching entry points ------------------------------------------------------

    def match_prefix(self, text: str, start: int = 0) -> ScanOutcome:
        """Longest match beginning exactly at ``start`` (PCRE-anchored)."""
        self.stats.bump("regex.calls")
        state, last_accept = self.state_after(text, start)
        examined = 0  # state_after already counted
        best = last_accept
        if self.anchored_end:
            ok = state != DEAD and self.fsm.is_accepting(state)
            best = len(text) if ok else None
        if best is None:
            return ScanOutcome(None, examined)
        return ScanOutcome(MatchResult(start, best), examined)

    def search(
        self, text: str, start: int = 0, start_limit: Optional[int] = None
    ) -> ScanOutcome:
        """Leftmost-longest match starting in ``[start, start_limit)``.

        Scans candidate start positions left to right, running the
        anchored automaton at each; dead-state liveness pruning stops a
        candidate as soon as no accept remains reachable.
        ``start_limit`` bounds where a match may *begin* (matches may
        extend past it) — the hook content sifting uses to confine
        candidate starts to hint-vector-marked segments.  Runs of
        candidates whose first character kills the start state are
        skipped by a C-level scan and charged the one character each
        would have examined (see :func:`_live_start_finder`).
        """
        self.stats.bump("regex.calls")
        fsm = self.fsm
        transitions = fsm.transitions
        class_of = fsm.class_of
        accepting = fsm.accepting
        live = fsm.live
        fsm_start = fsm.start
        start_accepting = fsm_start in accepting
        anchored_end = self.anchored_end
        find_live_start = self._find_live_start
        n = len(text)
        total_examined = 0
        if self.anchored_start:
            limit = start + 1
        else:
            limit = n + 1 if start_limit is None else min(start_limit, n + 1)
        scan_end = min(limit, n)
        s = start
        while s < limit:
            if find_live_start is not None:
                found = find_live_start(text, s, scan_end)
                skip_to = found.start() if found is not None else scan_end
                total_examined += skip_to - s
                s = skip_to
                if s >= limit:
                    break
            state = fsm_start
            best: Optional[int] = s if start_accepting else None
            pos = s
            while pos < n and live[state]:
                code = ord(text[pos])
                state = transitions[state][class_of[code]] if code < 256 else DEAD
                total_examined += 1
                pos += 1
                if state == DEAD:
                    break
                if state in accepting:
                    best = pos
            if anchored_end and best is not None and best != n:
                best = None
            if best is not None:
                self._count(total_examined)
                return ScanOutcome(MatchResult(s, best), total_examined)
            s += 1
        self._count(total_examined)
        return ScanOutcome(None, total_examined)

    def findall(self, text: str) -> tuple[list[MatchResult], int]:
        """All non-overlapping matches, left to right."""
        matches: list[MatchResult] = []
        examined = 0
        pos = 0
        while pos <= len(text):
            outcome = self.search(text, pos)
            examined += outcome.chars_examined
            if outcome.match is None:
                break
            matches.append(outcome.match)
            # Empty matches advance one char to guarantee progress.
            pos = outcome.match.end if outcome.match.length > 0 else pos + 1
            if self.anchored_start:
                break
        return matches, examined

    def sub(
        self,
        replacement: str | Callable[[str], str],
        text: str,
    ) -> tuple[str, int, int]:
        """PHP ``preg_replace``: returns (result, n_replaced, chars)."""
        matches, examined = self.findall(text)
        if not matches:
            return text, 0, examined
        out: list[str] = []
        cursor = 0
        for m in matches:
            out.append(text[cursor:m.start])
            piece = text[m.start:m.end]
            out.append(replacement(piece) if callable(replacement) else replacement)
            cursor = m.end
        out.append(text[cursor:])
        return "".join(out), len(matches), examined

    # -- accounting -------------------------------------------------------------------

    def _count(self, chars: int) -> None:
        if chars:
            self.stats.bump("regex.chars_examined", chars)
            self.stats.bump("regex.uops", chars * UOPS_PER_CHAR)

    def __repr__(self) -> str:
        return (
            f"CompiledRegex({self.pattern!r}, states={self.fsm.state_count}, "
            f"classes={self.fsm.class_count})"
        )


class RegexManager:
    """Compile cache — the paper's "regular expression manager".

    Section 4.2: "the regular expression manager shares a search
    pattern (key) and its FSM table (value) with other appropriate
    functions through a hash map."  When given a symbol table, this
    manager publishes compiled FSM tables through it, which is one of
    the dynamic-key hash-map access patterns the hardware hash table
    accelerates.
    """

    def __init__(
        self,
        stats: Optional[StatRegistry] = None,
        pattern_table=None,
    ) -> None:
        self.stats = stats if stats is not None else StatRegistry("regexmgr")
        self._cache: dict[str, CompiledRegex] = {}
        self._pattern_table = pattern_table  # optional SymbolTable

    def compile(self, pattern: str) -> CompiledRegex:
        """Fetch-or-compile; publishes the FSM table when configured."""
        found = self._cache.get(pattern)
        if found is not None:
            self.stats.bump("regexmgr.cache_hits")
            if self._pattern_table is not None:
                # Consumers re-fetch the FSM table via the hash map.
                self._pattern_table.lookup(pattern)
            return found
        self.stats.bump("regexmgr.compiles")
        compiled = CompiledRegex(pattern, stats=self.stats)
        self._cache[pattern] = compiled
        if self._pattern_table is not None:
            self._pattern_table.define(pattern, compiled.fsm)
        return compiled

    @property
    def chars_examined(self) -> int:
        return self.stats.get("regex.chars_examined")
