"""MiniPHP: a small PHP-flavored template interpreter.

The paper's workloads are template-rendering applications; this module
provides an executable stand-in so the accelerators can be exercised
by *programs* rather than synthetic op streams.  It covers the subset
the three applications' hot paths live in:

* templates with ``<?php ... ?>`` code islands and ``<?= expr ?>``
  echo tags,
* variables (``$x``), string/int/bool literals, ``.`` concatenation,
  comparisons, ``array('k' => v, ...)`` literals and ``$a['k']``
  indexing,
* ``foreach ($arr as $k => $v): ... endforeach;`` (PHP insertion-order
  iteration), ``if/else/endif``, assignment, ``echo``,
* the library functions the workloads use: ``strtoupper``,
  ``strtolower``, ``trim``, ``strlen``, ``strpos``, ``str_replace``,
  ``substr``, ``htmlspecialchars``, ``implode``, ``extract``,
  ``preg_match``, ``preg_replace``.

Execution is backend-pluggable: the *software* backend runs string and
regexp work through :class:`~repro.runtime.strings.StringLibrary` and
the plain engine; the *accelerated* backend routes the same calls
through the :class:`~repro.isa.dispatch.AcceleratorComplex` (string
matching matrix, content-reuse-ready regexps, hardware hash table for
variable scopes).  Both must render byte-identical pages — integration
tests assert it.

Each template source is compiled once (:func:`compile_template`) into
a tuple of per-segment closures, so a render neither tokenizes nor
parses; the closures evaluate operands left to right, in the order the
grammar reads them.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.common.stats import StatRegistry
from repro.isa.dispatch import AcceleratorComplex
from repro.regex.engine import RegexManager
from repro.runtime.phparray import PhpArray
from repro.runtime.strings import HTML_ESCAPES, StringLibrary


class MiniPhpError(ValueError):
    """Parse or runtime error in a MiniPHP template."""


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+)
  | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<var>\$[A-Za-z_][A-Za-z0-9_]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>=>|==|!=|<=|>=|[=<>.,;:()\[\]])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"foreach", "endforeach", "as", "if", "else", "endif",
             "echo", "true", "false", "null"}


@dataclass(frozen=True)
class Token:
    kind: str   # 'number' | 'string' | 'var' | 'name' | 'op' | 'kw'
    text: str


def tokenize_code(code: str) -> list[Token]:
    """Tokenize one ``<?php ... ?>`` island."""
    tokens: list[Token] = []
    pos = 0
    while pos < len(code):
        m = _TOKEN_RE.match(code, pos)
        if m is None:
            raise MiniPhpError(f"bad character {code[pos]!r} at {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        text = m.group()
        if kind == "name" and text in _KEYWORDS:
            kind = "kw"
        tokens.append(Token(kind, text))
    return tokens


# ---------------------------------------------------------------------------
# Template segmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    kind: str   # 'literal' | 'echo' | 'code'
    body: str


def split_template(source: str) -> list[Segment]:
    """Split a template into literal, echo, and code segments."""
    segments: list[Segment] = []
    pos = 0
    while pos < len(source):
        open_tag = source.find("<?", pos)
        if open_tag < 0:
            segments.append(Segment("literal", source[pos:]))
            break
        if open_tag > pos:
            segments.append(Segment("literal", source[pos:open_tag]))
        close_tag = source.find("?>", open_tag)
        if close_tag < 0:
            raise MiniPhpError("unterminated <?php tag")
        inner = source[open_tag + 2:close_tag]
        if inner.startswith("="):
            segments.append(Segment("echo", inner[1:].strip()))
        else:
            if inner.startswith("php"):
                inner = inner[3:]
            segments.append(Segment("code", inner.strip()))
        pos = close_tag + 2
    return [s for s in segments if s.body or s.kind == "literal"]


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class SoftwareBackend:
    """Runs library calls on the software substrate."""

    name = "software"

    def __init__(self) -> None:
        self.strings = StringLibrary()
        self.regex = RegexManager()
        self.stats = StatRegistry("interp-sw")

    # string ops return plain values; costs accrue in the components
    def strtoupper(self, s: str) -> str:
        return self.strings.strtoupper(s).value

    def strtolower(self, s: str) -> str:
        return self.strings.strtolower(s).value

    def trim(self, s: str) -> str:
        return self.strings.trim(s).value

    def strlen(self, s: str) -> int:
        return self.strings.strlen(s).value

    def strpos(self, haystack: str, needle: str) -> int:
        return self.strings.strpos(haystack, needle).value

    def str_replace(self, search: str, replace: str, subject: str) -> str:
        return self.strings.str_replace(search, replace, subject).value

    def substr(self, s: str, start: int, length: Optional[int] = None) -> str:
        return self.strings.substr(s, start, length).value

    def htmlspecialchars(self, s: str) -> str:
        return self.strings.htmlspecialchars(s).value

    def concat(self, parts: list[str]) -> str:
        return self.strings.concat(parts).value

    def preg_match(self, pattern: str, subject: str) -> int:
        compiled = self.regex.compile(pattern)
        return 1 if compiled.search(subject).match else 0

    def preg_replace(self, pattern: str, replacement: str, subject: str) -> str:
        compiled = self.regex.compile(pattern)
        out, _, _ = compiled.sub(replacement, subject)
        return out

    def cost_cycles(self) -> float:
        """Approximate cycles spent in backend library work."""
        return (
            self.strings.total_uops / 2.9
            + self.regex.stats.get("regex.uops") / 2.9
        )


class AcceleratedBackend(SoftwareBackend):
    """Routes the same calls through the accelerator complex."""

    name = "accelerated"

    def __init__(self, complex_: Optional[AcceleratorComplex] = None) -> None:
        super().__init__()
        if complex_ is None:
            complex_ = AcceleratorComplex()
        self.complex = complex_
        self._cycles = 0.0

    def _charge(self, outcome) -> Any:
        self._cycles += outcome.cycles
        return outcome.value

    def strtoupper(self, s: str) -> str:
        return self._charge(self.complex.string.to_upper(s))

    def strtolower(self, s: str) -> str:
        return self._charge(self.complex.string.to_lower(s))

    def trim(self, s: str) -> str:
        return self._charge(self.complex.string.trim(s))

    def strpos(self, haystack: str, needle: str) -> int:
        return self._charge(self.complex.string.find(haystack, needle))

    def str_replace(self, search: str, replace: str, subject: str) -> str:
        return self._charge(
            self.complex.string.replace(subject, search, replace)
        )

    def substr(self, s: str, start: int, length: Optional[int] = None) -> str:
        piece = s[start:] if length is None else s[start:start + length]
        return self._charge(self.complex.string.copy(piece))

    def htmlspecialchars(self, s: str) -> str:
        return self._charge(
            self.complex.string.html_escape(s, HTML_ESCAPES)
        )

    def concat(self, parts: list[str]) -> str:
        return self._charge(self.complex.string.copy("".join(parts)))

    def preg_replace(self, pattern: str, replacement: str, subject: str) -> str:
        compiled = self.regex.compile(pattern)
        hv, cycles = self.complex.sifter.build_hint_vector(subject)
        self._cycles += cycles
        result = self.complex.sifter.shadow_findall(compiled, subject, hv)
        if not result.matches:
            return subject
        out: list[str] = []
        cursor = 0
        for m in result.matches:
            out.append(subject[cursor:m.start])
            out.append(replacement)
            cursor = m.end
        out.append(subject[cursor:])
        return "".join(out)

    def cost_cycles(self) -> float:
        return super().cost_cycles() + self._cycles


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
#
# A template compiles to a tuple of *steps*, one per segment:
# ``step(interp, code, i, end)`` runs segment ``i`` of ``code`` and
# returns the index to run next.  An expression compiles to a closure
# ``expr(interp)``.  Compiled forms hold only tuples, strings, numbers
# and closures, so every interpreter shares them and no render can
# change them.
#
# Errors are lazy: a segment or statement that does not tokenize or
# parse compiles to a step that raises when it runs, so a broken echo
# tag in an untaken branch is harmless.  A block opener fails on a code
# island between it and its closer that does not tokenize, because
# finding the closer reads every such island.

#: Distinct template sources kept compiled (least recently used go).
TEMPLATE_CACHE_SIZE = 64

Expr = Callable[["MiniPhpInterpreter"], Any]
Step = Callable[["MiniPhpInterpreter", tuple, int, int], int]

_COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")
_LITERAL_KEYWORDS = {"true": True, "false": False, "null": None}


def _unquote(text: str) -> str:
    body = text[1:-1]
    return (
        body.replace("\\n", "\n").replace("\\t", "\t")
        .replace("\\'", "'").replace('\\"', '"')
        .replace("\\\\", "\\")
    )


def _constant(value: Any) -> Expr:
    return lambda interp: value


def _failing(message: str) -> Callable[..., Any]:
    """A step or expression that raises ``message`` when it runs."""
    def fail(*_: Any) -> Any:
        raise MiniPhpError(message)
    return fail


def _lazily(compile_fn: Callable[..., Any], *args: Any) -> Callable[..., Any]:
    """``compile_fn(*args)``, or a closure raising its error when run."""
    try:
        return compile_fn(*args)
    except MiniPhpError as err:
        return _failing(str(err))


class _ExprCompiler:
    """Recursive descent from a token list to an expression closure.

    Grammar::

        expr    := compare
        compare := concat (('=='|'!='|'<'|'>'|'<='|'>=') concat)?
        concat  := unit ('.' unit)*
        unit    := literal | var index* | call | '(' expr ')' | array
        index   := '[' expr ']'

    The closure evaluates operands left to right, as the grammar reads
    them.
    """

    def __init__(self, tokens: Sequence[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def _peek_text(self) -> Optional[str]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos].text
        return None

    def _take(self) -> Token:
        if self.pos >= len(self.tokens):
            raise MiniPhpError("unexpected end of expression")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def _expect(self, text: str) -> None:
        tok = self._take()
        if tok.text != text:
            raise MiniPhpError(f"expected {text!r}, got {tok.text!r}")

    def compile(self) -> Expr:
        expr = self._compare()
        if self.pos < len(self.tokens):
            raise MiniPhpError(
                f"trailing tokens at {self.tokens[self.pos].text!r}"
            )
        return expr

    def _compare(self) -> Expr:
        left = self._concat()
        op = self._peek_text()
        if op not in _COMPARISONS:
            return left
        self.pos += 1
        right = self._concat()
        pick = _COMPARISONS.index(op)

        def compare(interp: MiniPhpInterpreter) -> bool:
            a, b = left(interp), right(interp)
            # All six are evaluated, so a mixed-type pair raises
            # TypeError whichever operator was written.
            return (a == b, a != b, a < b, a > b, a <= b, a >= b)[pick]

        return compare

    def _concat(self) -> Expr:
        units = [self._unit()]
        while self._peek_text() == ".":
            self.pos += 1
            units.append(self._unit())
        if len(units) == 1:
            return units[0]
        parts = tuple(units)

        def concat(interp: MiniPhpInterpreter) -> str:
            to_string = interp.to_string
            return interp.backend.concat(
                [to_string(part(interp)) for part in parts]
            )

        return concat

    def _unit(self) -> Expr:
        tok = self._take()
        if tok.kind == "number":
            return _constant(int(tok.text))
        if tok.kind == "string":
            return _constant(_unquote(tok.text))
        if tok.kind == "kw" and tok.text in _LITERAL_KEYWORDS:
            return _constant(_LITERAL_KEYWORDS[tok.text])
        if tok.kind == "var":
            return self._variable(tok.text[1:])
        if tok.kind == "name" and tok.text == "array":
            return self._array_literal()
        if tok.kind == "name":
            return self._call(tok.text)
        if tok.text == "(":
            inner = self._compare()
            self._expect(")")
            return inner
        raise MiniPhpError(f"unexpected token {tok.text!r}")

    def _variable(self, name: str) -> Expr:
        keys = []
        while self._peek_text() == "[":
            self.pos += 1
            keys.append(self._compare())
            self._expect("]")
        if not keys:
            return lambda interp: interp.get_variable(name)
        index = tuple(keys)

        def indexed(interp: MiniPhpInterpreter) -> Any:
            value = interp.get_variable(name)
            for key_expr in index:
                key = key_expr(interp)
                if not isinstance(value, PhpArray):
                    raise MiniPhpError("indexing a non-array value")
                value = interp.array_get(value, interp.to_string(key))
            return value

        return indexed

    def _array_literal(self) -> Expr:
        self._expect("(")
        elements = []   # (key expr, or None for the next position; value)
        while self._peek_text() not in (None, ")"):
            first = self._compare()
            if self._peek_text() == "=>":
                self.pos += 1
                elements.append((first, self._compare()))
            else:
                elements.append((None, first))
            if self._peek_text() == ",":
                self.pos += 1
        self._expect(")")
        items = tuple(elements)

        def array(interp: MiniPhpInterpreter) -> PhpArray:
            result = interp.new_array()
            index = 0
            for key_expr, value_expr in items:
                if key_expr is None:
                    interp.array_set(result, str(index), value_expr(interp))
                    index += 1
                else:
                    key = interp.to_string(key_expr(interp))
                    interp.array_set(result, key, value_expr(interp))
            return result

        return array

    def _call(self, name: str) -> Expr:
        self._expect("(")
        arguments = []
        while self._peek_text() not in (None, ")"):
            arguments.append(self._compare())
            if self._peek_text() == ",":
                self.pos += 1
        self._expect(")")
        args = tuple(arguments)
        return lambda interp: interp.call_function(
            name, [arg(interp) for arg in args]
        )


def _compile_expr(tokens: Sequence[Token]) -> Expr:
    return _ExprCompiler(tokens).compile()


def _compile_echo(body: str) -> Expr:
    return _compile_expr(tokenize_code(body))


def _split_statements(tokens: Sequence[Token]) -> list[list[Token]]:
    out: list[list[Token]] = []
    current: list[Token] = []
    for tok in tokens:
        if tok.text == ";":
            if current:
                out.append(current)
            current = []
        else:
            current.append(tok)
    if current:
        out.append(current)
    return out


def _matching_bracket(tokens: Sequence[Token], open_index: int) -> int:
    depth = 0
    for j in range(open_index, len(tokens)):
        if tokens[j].text == "[":
            depth += 1
        elif tokens[j].text == "]":
            depth -= 1
            if depth == 0:
                return j
    raise MiniPhpError("unbalanced [ ]")


def _compile_statement(
    tokens: Sequence[Token],
) -> Callable[[MiniPhpInterpreter], Any]:
    head = tokens[0]
    if head.kind == "kw" and head.text == "echo":
        return _echo(_compile_expr(tokens[1:]))
    if head.kind == "var":
        name = head.text[1:]
        if (
            len(tokens) >= 2 and tokens[1].text == "="
            and (len(tokens) < 3 or tokens[2].text != "=")
        ):
            value = _compile_expr(tokens[2:])
            return lambda interp: interp.set_variable(name, value(interp))
        if len(tokens) > 2 and tokens[1].text == "[":
            # $arr['k'] = expr;
            close = _matching_bracket(tokens, 1)
            if close + 1 < len(tokens) and tokens[close + 1].text == "=":
                return _indexed_assignment(
                    name, _compile_expr(tokens[2:close]),
                    _compile_expr(tokens[close + 2:]),
                )
    # Expression statement (function call for effect).
    return _compile_expr(tokens)


def _indexed_assignment(
    name: str, key_expr: Expr, value_expr: Expr
) -> Callable[[MiniPhpInterpreter], None]:
    def assign(interp: MiniPhpInterpreter) -> None:
        array = interp.get_variable(name)
        key = interp.to_string(key_expr(interp))
        value = value_expr(interp)
        if not isinstance(array, PhpArray):
            raise MiniPhpError("indexed assignment on a non-array")
        interp.array_set(array, key, value)
    return assign


# -- steps -------------------------------------------------------------------


def _echo(value: Expr) -> Callable[[MiniPhpInterpreter], None]:
    return lambda interp: interp.echo(value(interp))


def _simple_step(*statements: Callable[[MiniPhpInterpreter], Any]) -> Step:
    """A step that runs ``statements`` in order and moves on."""
    def run(interp: MiniPhpInterpreter, code: tuple, i: int,
            end: int) -> int:
        for statement in statements:
            statement(interp)
        return i + 1
    return run


def _closer(at: int, error: Optional[str], end: int, word: str,
            opener: str) -> int:
    """The closer index found at compile time, checked against ``end``."""
    if at >= end:
        raise MiniPhpError(f"missing {word} for {opener}")
    if error is not None:
        raise MiniPhpError(error)
    return at


def _foreach_step(
    tokens: Sequence[Token], close_at: int, close_error: Optional[str]
) -> Step:
    # foreach ( $arr as $v ):   |   foreach ( $arr as $k => $v ):
    body = [t for t in tokens[1:] if t.text not in ("(", ")", ":")]
    if len(body) == 3 and body[1].text == "as":
        key_name = None
    elif len(body) == 5 and body[1].text == "as" and body[3].text == "=>":
        key_name = body[2].text[1:]
    else:
        raise MiniPhpError("malformed foreach header")
    array_name, value_name = body[0].text[1:], body[-1].text[1:]

    def foreach(interp: MiniPhpInterpreter, code: tuple, i: int,
                end: int) -> int:
        close = _closer(close_at, close_error, end, "endforeach",
                        "foreach")
        array = interp.get_variable(array_name)
        if not isinstance(array, PhpArray):
            raise MiniPhpError("foreach over a non-array")
        for key, value in interp.array_items(array):
            if key_name is not None:
                interp.set_variable(key_name, key)
            interp.set_variable(value_name, value)
            interp._run_block(code, i + 1, close)
        return close + 1

    return foreach


def _if_step(
    tokens: Sequence[Token], close_at: int, close_error: Optional[str],
    else_at: Optional[int],
) -> Step:
    condition_tokens = [t for t in tokens[1:] if t.text != ":"]
    if condition_tokens and condition_tokens[0].text == "(":
        # strip the outer parens (keep inner structure intact)
        condition_tokens = condition_tokens[1:]
        depth = 1
        for idx, t in enumerate(condition_tokens):
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    condition_tokens = (
                        condition_tokens[:idx] + condition_tokens[idx + 1:]
                    )
                    break
    condition = _lazily(_compile_expr, condition_tokens)

    def if_(interp: MiniPhpInterpreter, code: tuple, i: int,
            end: int) -> int:
        endif = _closer(close_at, close_error, end, "endif", "if")
        if condition(interp):
            interp._run_block(code, i + 1, else_at or endif)
        elif else_at is not None:
            interp._run_block(code, else_at + 1, endif)
        return endif + 1

    return if_


# -- templates ---------------------------------------------------------------


def _keyword(island: tuple[Token, ...] | None) -> Optional[str]:
    """The keyword a tokenized code island starts with, if any."""
    if island and island[0].kind == "kw":
        return island[0].text
    return None


def _find_closer(
    islands: list, i: int, opener: str, closer: str
) -> tuple[int, Optional[str], Optional[int]]:
    """The first, after ``i``, of ``closer`` or an island that fails.

    ``islands`` holds, per segment, a code island's token tuple, its
    tokenizer error (a string), or None for other segments.  Returns
    ``(index, error, else_index)``: the index is ``len(islands)`` if
    neither comes, and ``else_index`` is the first ``else`` at the
    opener's depth before a matched closer.
    """
    depth = 0
    else_at = None
    for j in range(i + 1, len(islands)):
        island = islands[j]
        if isinstance(island, str):
            return j, island, None
        word = _keyword(island)
        if word == opener:
            depth += 1
        elif word == closer:
            if depth == 0:
                return j, None, else_at
            depth -= 1
        elif word == "else" and depth == 0 and else_at is None:
            else_at = j
    return len(islands), None, None


def _tokenize_island(body: str) -> tuple[Token, ...] | str:
    try:
        return tuple(tokenize_code(body))
    except MiniPhpError as err:
        return str(err)


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def compile_template(source: str) -> tuple[Step, ...]:
    """The steps of ``source``, compiled once per distinct source."""
    segments = split_template(source)
    islands = [
        _tokenize_island(seg.body) if seg.kind == "code" else None
        for seg in segments
    ]
    steps: list[Step] = []
    for i, (seg, island) in enumerate(zip(segments, islands)):
        if seg.kind == "literal":
            step = _simple_step(_echo(_constant(seg.body)))
        elif seg.kind == "echo":
            step = _simple_step(_echo(_lazily(_compile_echo, seg.body)))
        elif isinstance(island, str):
            step = _failing(island)
        elif _keyword(island) == "foreach":
            at, error, _ = _find_closer(islands, i, "foreach", "endforeach")
            step = _lazily(_foreach_step, island, at, error)
        elif _keyword(island) == "if":
            step = _if_step(island, *_find_closer(islands, i, "if", "endif"))
        else:
            # Simple statements, ';'-separated inside one island.
            step = _simple_step(*(
                _lazily(_compile_statement, statement)
                for statement in _split_statements(island)
            ))
        steps.append(step)
    return tuple(steps)


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------


class MiniPhpInterpreter:
    """Renders MiniPHP templates over a pluggable backend."""

    def __init__(self, backend: Optional[SoftwareBackend] = None) -> None:
        self.backend = backend or SoftwareBackend()
        self.stats = StatRegistry("interp")
        self._globals: dict[str, Any] = {}
        self._next_base = 0x6C00_0000
        self._output: list[str] = []

    # -- variables & arrays ----------------------------------------------------

    def set_variable(self, name: str, value: Any) -> None:
        self.stats.bump("interp.var_sets")
        self._globals[name] = value

    def get_variable(self, name: str) -> Any:
        self.stats.bump("interp.var_gets")
        try:
            return self._globals[name]
        except KeyError:
            raise MiniPhpError(f"undefined variable ${name}")

    def new_array(self) -> PhpArray:
        self._next_base += 0x200
        array = PhpArray(base_address=self._next_base)
        complex_ = getattr(self.backend, "complex", None)
        if complex_ is not None:
            # The allocator may hand back an address range a freed map
            # used earlier (strong reuse!); any hardware state keyed on
            # that base address belongs to the dead map and must go —
            # this is the Free/invalidate the RTT makes cheap (§4.2).
            complex_.hash_table.free_map(array.base_address)
            complex_.register_map(array)
        return array

    def array_set(self, array: PhpArray, key: str, value: Any) -> None:
        complex_ = getattr(self.backend, "complex", None)
        if complex_ is not None:
            outcome = complex_.hash_table.set(key, array.base_address, value)
            if not outcome.software_fallback:
                return
        array.set(key, value)

    def array_get(self, array: PhpArray, key: str) -> Any:
        complex_ = getattr(self.backend, "complex", None)
        if complex_ is not None:
            outcome = complex_.hash_table.get(key, array.base_address)
            if outcome.hit:
                return outcome.value_ptr
            value = array.get(key)
            complex_.hash_table.insert_clean(key, array.base_address, value)
            return value
        return array.get(key)

    def array_items(self, array: PhpArray) -> list[tuple[str, Any]]:
        complex_ = getattr(self.backend, "complex", None)
        if complex_ is not None:
            order, _ = complex_.hash_table.foreach_sync(array.base_address)
            if order:
                return [
                    (k, array.get_default(k)) for k in order
                    if array.get_default(k) is not None
                ]
        return list(array.items())

    # -- functions -----------------------------------------------------------------

    def call_function(self, name: str, args: list[Any]) -> Any:
        self.stats.bump("interp.calls")
        fn = _FUNCTIONS.get(name)
        if fn is None:
            raise MiniPhpError(f"unknown function {name}()")
        return fn(self, *args)

    def _implode(self, glue: Any, array: Any) -> str:
        if not isinstance(array, PhpArray):
            raise MiniPhpError("implode() needs an array")
        glue_s = self.to_string(glue)
        parts: list[str] = []
        for i, (_, value) in enumerate(self.array_items(array)):
            if i:
                parts.append(glue_s)
            parts.append(self.to_string(value))
        return self.backend.concat(parts)

    def _extract(self, array: Any) -> int:
        if not isinstance(array, PhpArray):
            raise MiniPhpError("extract() needs an array")
        count = 0
        for key, value in self.array_items(array):
            self.set_variable(key, value)
            count += 1
        return count

    def _count(self, array: Any) -> int:
        if not isinstance(array, PhpArray):
            raise MiniPhpError("count() needs an array")
        return len(array)

    # -- statements ---------------------------------------------------------------------

    def to_string(self, value: Any) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "1" if value else ""
        if value is None:
            return ""
        if isinstance(value, int):
            return str(value)
        if isinstance(value, PhpArray):
            return "Array"
        return str(value)

    def echo(self, value: Any) -> None:
        """Append ``value``, as a string, to the page being rendered."""
        self._output.append(self.to_string(value))

    def render(self, source: str, variables: dict[str, Any] | None = None) -> str:
        """Render a template to its output string."""
        self._output = []
        for name, value in (variables or {}).items():
            self.set_variable(name, value)
        code = compile_template(source)
        self._run_block(code, 0, len(code))
        return "".join(self._output)

    def _run_block(self, code: tuple[Step, ...], start: int, end: int) -> None:
        i = start
        while i < end:
            i = code[i](self, code, i, end)


def _string_call(method: str) -> Callable[..., Any]:
    """``backend.<method>`` over the string forms of its arguments."""
    def call(interp: MiniPhpInterpreter, *args: Any) -> Any:
        return getattr(interp.backend, method)(
            *[interp.to_string(arg) for arg in args]
        )
    return call


def _substr(interp: MiniPhpInterpreter, s: Any, start: Any, *rest: Any) -> str:
    return interp.backend.substr(
        interp.to_string(s), int(start), *(int(r) for r in rest)
    )


#: The library functions, ``fn(interp, *args)``; built once at import.
_FUNCTIONS: dict[str, Callable[..., Any]] = {
    **{name: _string_call(name) for name in (
        "strtoupper", "strtolower", "trim", "strlen", "strpos",
        "str_replace", "htmlspecialchars", "preg_match", "preg_replace",
    )},
    "substr": _substr,
    "implode": MiniPhpInterpreter._implode,
    "extract": MiniPhpInterpreter._extract,
    "count": MiniPhpInterpreter._count,
}
