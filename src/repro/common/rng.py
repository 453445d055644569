"""Deterministic random-number utilities.

Every stochastic component in this reproduction draws from a
:class:`DeterministicRng` so that all figures in the paper can be
regenerated bit-for-bit.  The class wraps :class:`random.Random` and
adds the handful of samplers the workload generators need (Zipf,
bounded geometric, weighted choice with stable ordering).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from typing import Sequence, TypeVar

T = TypeVar("T")

#: Seed used by every benchmark and example unless overridden.
DEFAULT_SEED = 0x15CA2017  # "ISCA 2017"

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# ``choice(_LETTERS)`` draws ``getrandbits(5)``, the top five bits of
# one 32-bit Mersenne Twister word, and redraws while they are >= 26.
# Indexed by a word's most significant byte: the letter an accepted
# draw picks.  The bytes of rejected draws are deleted instead.
_LETTER_OF_TOP_BYTE = bytes(
    ord(_LETTERS[b >> 3]) if b >> 3 < len(_LETTERS) else 0
    for b in range(256)
)
_REJECTED_TOP_BYTES = bytes(range(len(_LETTERS) << 3, 256))


class DeterministicRng:
    """A seeded random source with the samplers used by the workloads.

    Parameters
    ----------
    seed:
        Any integer.  Two instances created with the same seed produce
        identical streams regardless of platform.
    """

    def __init__(self, seed: int = DEFAULT_SEED) -> None:
        self.seed = seed
        self._random = random.Random(seed)
        self._bind()

    def _bind(self) -> None:
        # The hottest samplers, bound once: the same draws without a
        # wrapper frame per call.
        #: Uniform float in ``[0, 1)``.
        self.random = self._random.random
        #: Uniform integer in ``[lo, hi]`` inclusive.
        self.randint = self._random.randint
        #: Uniformly pick one element of a non-empty sequence.
        self.choice = self._random.choice
        #: Non-negative integer of ``k`` random bits.
        self.getrandbits = self._random.getrandbits

    def __getstate__(self) -> dict:
        # Copies and unpickled instances rebind to their own generator
        # (deepcopy would share a bound builtin method with the source).
        return {k: v for k, v in self.__dict__.items()
                if k not in ("random", "randint", "choice", "getrandbits")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent, reproducible child stream.

        Child streams let independent generators (e.g. the allocation
        trace and the string-op trace of one application) evolve
        without perturbing each other when one of them is re-tuned.
        The derivation uses a *stable* hash (not Python's salted
        ``hash``) so results reproduce across processes and machines.
        """
        digest = hashlib.blake2b(
            label.encode("utf-8"),
            key=self.seed.to_bytes(16, "little", signed=False),
            digest_size=8,
        ).digest()
        child_seed = int.from_bytes(digest, "little") & 0x7FFFFFFFFFFFFFFF
        return DeterministicRng(child_seed)

    # -- thin pass-throughs -------------------------------------------------

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in ``[lo, hi]``."""
        return self._random.uniform(lo, hi)

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Pick ``k`` distinct elements."""
        return self._random.sample(items, k)

    def shuffle(self, items: list[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(items)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal deviate."""
        return self._random.gauss(mu, sigma)

    # -- workload-specific samplers -----------------------------------------

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element with the given (unnormalized) weights."""
        return self._random.choices(items, weights=weights, k=1)[0]

    def zipf(self, n: int, s: float = 1.1, q: float = 0.0) -> int:
        """Zipf-Mandelbrot-distributed rank in ``[0, n)``.

        Used to model the tail-heavy popularity of leaf functions and
        hash-map keys that the paper's Figure 1 characterizes.  The
        shift ``q`` flattens the head (popularity ∝ 1/(rank+1+q)^s) so
        no single element dominates — real branch-site and key
        popularity has a fat head, not a single spike.  The
        implementation inverts the CDF; CDFs are cached per (n, s, q).
        """
        if n <= 0:
            raise ValueError("zipf needs a positive population size")
        cache: dict[tuple[int, float, float], list[float]] = getattr(
            self, "_zipf_cache", None
        ) or {}
        if not hasattr(self, "_zipf_cache"):
            self._zipf_cache = cache
        cdf = cache.get((n, s, q))
        if cdf is None:
            weights = [1.0 / ((k + q) ** s) for k in range(1, n + 1)]
            total = sum(weights)
            cdf = []
            acc = 0.0
            for w in weights:
                acc += w / total
                cdf.append(acc)
            cache[(n, s, q)] = cdf
        u = self._random.random()
        return min(bisect.bisect_left(cdf, u), n - 1)

    def geometric(self, p: float, cap: int | None = None) -> int:
        """Geometric deviate (number of failures before first success).

        ``cap`` clamps the tail so that trace sizes stay bounded.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError("geometric needs p in (0, 1]")
        u = self._random.random()
        value = int(math.log(max(u, 1e-300)) / math.log(1.0 - p)) if p < 1.0 else 0
        if cap is not None:
            value = min(value, cap)
        return value

    def bytes(self, n: int) -> bytes:
        """``n`` reproducible pseudo-random bytes."""
        return self._random.randbytes(n)

    def ascii_word(self, lo: int = 3, hi: int = 10) -> str:
        """A lowercase pseudo-word; used for keys, attributes, slugs.

        Draws exactly what ``"".join(choice(_LETTERS) for _ in
        range(randint(lo, hi)))`` draws.  The length is CPython's
        rejection sampler (``_randbelow``) inlined over ``getrandbits``.
        The letters come in rounds: a round still needing ``need``
        letters takes ``need`` whole words in one ``getrandbits(32 *
        need)`` call, keeps the accepted ones in order and draws again
        only for the rejected ones, so it never takes a word the
        letter-at-a-time loop would not.
        """
        getrandbits = self.getrandbits
        width = hi - lo + 1
        if width <= 0:
            raise ValueError(f"empty word-length range [{lo}, {hi}]")
        bits = width.bit_length()
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        need = lo + r
        word = b""
        while need > 0:
            top = getrandbits(32 * need).to_bytes(4 * need, "little")[3::4]
            letters = top.translate(_LETTER_OF_TOP_BYTE, _REJECTED_TOP_BYTES)
            word += letters
            need -= len(letters)
        return word.decode("ascii")
