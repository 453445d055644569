"""Synthetic textual content: the data PHP applications actually chew on.

Section 4.3/4.4/4.5 describe the content pipeline of the three
applications: "large volumes of unstructured textual data (such as
social media updates, web documents, blog posts, news articles, and
system logs)" that get turned into HTML via string functions and
regexps.  This module synthesizes that content with explicit control
over the property every regexp accelerator result depends on — the
density of *special characters* (Section 4.5 classifies
``{A-Za-z0-9_.,-}`` as regular, everything else as special) — plus
URL/tag/attribute structure for the content-reuse scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import DeterministicRng

#: Segment granularity used by content sifting hint vectors.
SEGMENT_BYTES = 32

#: Special characters that texturize-class regexps hunt for
#: (apostrophe, double quote, newline, angle brackets — Figure 11).
TEXTURIZE_SPECIALS = "'\"\n<"

_WORD_SEEDS = (
    "server side php processing web application content request "
    "template database theme plugin filter cache page post user "
    "comment article revision module node wiki category tag index "
    "profile session token query render output buffer handler engine"
).split()
#: ``choice(_WORD_SEEDS)``'s rejection sampler: draw this many bits,
#: redraw while the draw is not below the seed count.
_SEED_COUNT = len(_WORD_SEEDS)
_SEED_BITS = _SEED_COUNT.bit_length()


@dataclass
class ContentSpec:
    """Recipe for one piece of post/article content.

    ``special_segment_fraction`` controls what fraction of 32-byte
    segments contain at least one special character: this is exactly
    (1 − the content a sieve regexp lets shadows skip), the paper's
    Figure 12 opportunity metric.
    """

    paragraphs: int = 4
    words_per_paragraph: int = 60
    special_segment_fraction: float = 0.35
    quote_probability: float = 0.5
    tag_probability: float = 0.3
    newline_probability: float = 0.4


class TextCorpus:
    """Deterministic generator of blog/wiki-flavoured content."""

    def __init__(self, rng: DeterministicRng) -> None:
        self.rng = rng

    # -- low-level pieces -------------------------------------------------------

    def word(self) -> str:
        # The same draws as ``choice(_WORD_SEEDS)``, without its two
        # Python frames per call.
        rng = self.rng
        if rng.random() < 0.75:
            getrandbits = rng.getrandbits
            r = getrandbits(_SEED_BITS)
            while r >= _SEED_COUNT:
                r = getrandbits(_SEED_BITS)
            return _WORD_SEEDS[r]
        return rng.ascii_word(3, 9)

    def slug(self, words: int = 3) -> str:
        return "-".join(self.word() for _ in range(words))

    def author_url(self, author: str, host: str = "localhost") -> str:
        """The Section 4.5 content-reuse example URL shape."""
        return f"https://{host}/?author={author}"

    def html_tag(self, name: str | None = None) -> str:
        """An HTML tag with a couple of attributes."""
        name = name or self.rng.choice(["a", "em", "strong", "span", "div", "img"])
        attrs = []
        for _ in range(self.rng.randint(0, 2)):
            attrs.append(f'{self.word()}="{self.word()}-{self.rng.randint(1, 99)}"')
        inner = " " + " ".join(attrs) if attrs else ""
        return f"<{name}{inner}>"

    def shortcode(self) -> str:
        """A WordPress-style ``[shortcode attr=value]``."""
        return f"[{self.word()} {self.word()}={self.rng.randint(1, 50)}]"

    # -- paragraph/post assembly ---------------------------------------------------

    def paragraph(self, spec: ContentSpec) -> str:
        """One paragraph honouring the special-segment density."""
        rng = self.rng
        random = rng.random
        getrandbits = rng.getrandbits
        ascii_word = rng.ascii_word
        word = self.word
        quote = spec.quote_probability
        quote_or_tag = quote + spec.tag_probability
        special = spec.special_segment_fraction
        words = spec.words_per_paragraph
        pieces: list[str] = []
        append = pieces.append
        length = 0
        next_special_check = SEGMENT_BYTES
        while len(pieces) < words:
            # ``word()`` inlined: the same draws, one frame fewer.
            if random() < 0.75:
                r = getrandbits(_SEED_BITS)
                while r >= _SEED_COUNT:
                    r = getrandbits(_SEED_BITS)
                piece = _WORD_SEEDS[r]
            else:
                piece = ascii_word(3, 9)
            append(piece)
            length += len(piece) + 1
            if length >= next_special_check:
                next_special_check += SEGMENT_BYTES
                if random() >= special:
                    continue
                roll = random()
                if roll < quote * 0.5:
                    append(f"'{word()}'")
                elif roll < quote:
                    append(f'"{word()}"')
                elif roll < quote_or_tag:
                    append(self.html_tag())
                else:
                    append(word() + "\n")
        # Join with spaces; regular-character punctuation sprinkled in
        # after every piece but the last and those ending a line.
        out: list[str] = []
        add = out.append
        for piece in pieces[:-1]:
            add(piece)
            if not piece.endswith("\n"):
                add(", " if random() < 0.08 else " ")
        if pieces:
            add(pieces[-1])
        return "".join(out).rstrip() + "."

    def post(self, spec: ContentSpec) -> str:
        """A multi-paragraph post/article body."""
        return "\n\n".join(self.paragraph(spec) for _ in range(spec.paragraphs))

    def clean_text(self, words: int = 80) -> str:
        """Content with *no* special characters (fully siftable)."""
        parts: list[str] = []
        for i in range(words):
            parts.append(self.word())
            if i + 1 < words:
                parts.append(", " if self.rng.random() < 0.1 else " ")
        return "".join(parts)

    def log_line(self) -> str:
        """A system-log-ish line (string-function workload fodder)."""
        return (
            f"{self.rng.randint(10, 31)}/Jun/2017 "
            f"{self.word()}.php req={self.rng.randint(1000, 9999)} "
            f"path=/{self.slug(2)} status={self.rng.choice([200, 200, 200, 404, 301])}"
        )


def special_char_segments(text: str, segment: int = SEGMENT_BYTES) -> list[bool]:
    """Per-segment "contains a special character" flags.

    This is the ground truth the string accelerator's hint-vector
    generation must reproduce; tests compare the two.
    """
    from repro.regex.charset import REGULAR_CHARS

    flags: list[bool] = []
    for start in range(0, len(text), segment):
        chunk = text[start:start + segment]
        flags.append(any(not REGULAR_CHARS.contains(c) for c in chunk))
    return flags
