"""Regular-expression substrate: parser → NFA → DFA → matching engine.

Stands in for PCRE.  The engine counts every character it examines, so
the content-sifting and content-reuse accelerators in
:mod:`repro.accel.regex_accel` have an honest baseline to reduce.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "charset": (
        "CharSet", "DIGIT", "REGULAR_CHARS", "SPACE", "SPECIAL_CHARS", "WORD",
    ),
    "dfa": ("DEAD", "FsmTable", "build_dfa", "partition_alphabet"),
    "engine": ("CompiledRegex", "MatchResult", "RegexManager", "ScanOutcome"),
    "nfa": ("Nfa", "build_nfa"),
    "parser": ("RegexSyntaxError", "parse"),
})
