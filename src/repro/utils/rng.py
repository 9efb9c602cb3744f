"""Deterministic random number generation shared by simulator and baselines.

All stochastic components of the library (slotted-ALOHA MACs, mobility
models, annealing schedules, random instance generators) accept either an
integer seed or a ready ``random.Random``; this module centralizes the
coercion so experiments are reproducible end to end.

Two generator families live here:

* :func:`make_rng` / :func:`spawn_rng` — ordinary sequential
  ``random.Random`` streams for code that draws in loop order;
* :class:`StreamRNG` — a *counter-based* generator whose every value is a
  pure function of ``(seed, stream, slot, draw)``.  Nothing is consumed
  and nothing advances, so the value a sensor sees at a given slot does
  not depend on how many other sensors drew before it, on how the slot
  range was chunked into windows, or on which worker computed it.
  This is what makes the vectorized random-MAC simulator path
  (:mod:`repro.engine.randmac`) bit-identical to the scalar one.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Sequence

__all__ = ["make_rng", "spawn_rng", "make_np_rng", "stream_root",
           "label_stream", "StreamRNG", "StreamDraw"]

_DEFAULT_SEED = 0x5EED

_MASK64 = (1 << 64) - 1
#: 2^64 / golden ratio; odd, so multiplication by it is a bijection mod 2^64.
_PHI = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
#: Exact float64 scale turning a 53-bit integer into a uniform in [0, 1).
_INV_2_53 = 2.0 ** -53


def make_rng(seed: int | random.Random | None = None) -> random.Random:
    """Return a ``random.Random`` from a seed, an existing RNG, or default.

    Passing ``None`` yields a generator with a fixed library-wide seed so
    that *unseeded* runs are still reproducible (experiments should always
    pass explicit seeds for independence).
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        return random.Random(_DEFAULT_SEED)
    return random.Random(seed)


def spawn_rng(parent: random.Random, stream: int) -> random.Random:
    """Derive an independent child generator for a numbered sub-stream.

    The child is seeded from a SHA-256 digest of the parent's *full
    generator state* together with the stream number, so distinct stream
    numbers (and distinct parent states) yield uncorrelated children.
    Earlier versions derived the child seed by shifting a parent draw and
    XOR-ing the stream number in, which collides whenever two
    ``(draw, stream)`` pairs alias in the low bits and seeds nearby
    Mersenne states with correlated arithmetic; hashing removes both
    failure modes.

    Spawning is a pure function of ``(parent state, stream)`` — it does
    not advance the parent, so the same parent state and stream number
    always name the same child stream.
    """
    material = repr((parent.getstate(), int(stream))).encode()
    return random.Random(int.from_bytes(hashlib.sha256(material).digest(),
                                        "big"))


def make_np_rng(seed: int | random.Random | None = None):
    """A seeded ``numpy.random.Generator`` from any accepted seed form.

    This is the *only* sanctioned route to numpy randomness — the
    ``determinism-random`` check in ``tests/unit/test_invariants.py``
    forbids ``numpy.random`` everywhere outside this module, so every
    numpy generator in the library is reproducible from a seed that
    flows through here.  An integer seeds ``default_rng`` directly (so
    callers migrating from ``np.random.default_rng(n)`` keep their
    exact streams); ``None`` uses the library-wide default seed; a
    ``random.Random`` is digested from its state via
    :func:`stream_root` without advancing it.

    Raises:
        ImportError: when numpy is not installed — numpy randomness is
            only for code paths that already require numpy.
    """
    import numpy

    if isinstance(seed, random.Random):
        return numpy.random.default_rng(stream_root(seed))
    if seed is None:
        seed = _DEFAULT_SEED
    return numpy.random.default_rng(seed)


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix on 64-bit words."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def stream_root(seed: int | random.Random | None = None) -> int:
    """64-bit root key for :class:`StreamRNG` from any accepted seed form.

    Integers are finalized through :func:`_mix64` (a bijection, so
    distinct seeds keep distinct roots); ``None`` uses the library-wide
    default seed; a ``random.Random`` is digested from its state without
    advancing it, so the same generator state always yields the same
    root.
    """
    if isinstance(seed, random.Random):
        digest = hashlib.sha256(repr(seed.getstate()).encode()).digest()
        return int.from_bytes(digest[:8], "big")
    if seed is None:
        seed = _DEFAULT_SEED
    return _mix64(seed)


def label_stream(label: str) -> int:
    """A stable 64-bit stream id for a string label.

    :class:`StreamRNG` keys its streams by integer; callers whose
    streams are naturally *named* (the scenario generators key draws by
    field name, e.g. ``"churn:window"``) hash the name once and use the
    digest as the stream coordinate.  SHA-256-based, so ids are stable
    across processes and Python versions — anything derived from them
    is reproducible from the label alone.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class StreamRNG:
    """Counter-based RNG: values are pure functions of their coordinates.

    ``uniform(stream, slot, draw)`` hashes ``(root, stream, slot, draw)``
    through three SplitMix64 rounds and maps the top 53 bits to a float
    in ``[0, 1)``.  There is no sequential state: callers may evaluate
    any subset of coordinates in any order (or in bulk, in any worker)
    and always observe the same values.  The simulator keys
    ``stream`` by dense sensor id and ``slot`` by time slot, which is
    what makes randomized runs independent of iteration order and shard
    boundaries.

    The bulk kernels in :mod:`repro.engine.randmac` reimplement exactly
    this arithmetic on ``uint64`` arrays; the equivalence tests pin them
    to this scalar implementation bit-for-bit.
    """

    __slots__ = ("root",)

    def __init__(self, seed: int | random.Random | None = None):
        self.root = stream_root(seed)

    # -- scalar interface ------------------------------------------------
    def state(self, stream: int, slot: int, draw: int = 0) -> int:
        """The 64-bit hash word at coordinates ``(stream, slot, draw)``."""
        h = _mix64(self.root ^ ((stream * _PHI) & _MASK64))
        h = _mix64(h ^ ((slot * _PHI) & _MASK64))
        return _mix64(h ^ ((draw * _PHI) & _MASK64))

    def uniform(self, stream: int, slot: int, draw: int = 0) -> float:
        """A uniform float in ``[0, 1)`` at the given coordinates."""
        return (self.state(stream, slot, draw) >> 11) * _INV_2_53

    def randrange(self, stream: int, slot: int, n: int, draw: int = 0) -> int:
        """A uniform integer in ``[0, n)`` at the given coordinates.

        Derived from :meth:`uniform` by scaling, so like every counter
        value it is a pure function of ``(root, stream, slot, draw)``.
        The modulo-free construction keeps the tiny bias of ``state % n``
        out (53 bits against any practical ``n``).

        Raises:
            ValueError: when ``n`` is not positive.
        """
        if n <= 0:
            raise ValueError(f"randrange needs a positive bound, got {n}")
        return int(self.uniform(stream, slot, draw) * n)

    def choice(self, stream: int, slot: int, options: Sequence,
               draw: int = 0):
        """A uniform element of ``options`` at the given coordinates."""
        return options[self.randrange(stream, slot, len(options), draw)]

    def draw(self, stream: int, slot: int) -> StreamDraw:
        """A ``random.Random``-like view of one ``(stream, slot)`` cell."""
        return StreamDraw(self, stream, slot)

    def __repr__(self) -> str:
        return f"StreamRNG(root=0x{self.root:016x})"


class StreamDraw(random.Random):
    """One ``(stream, slot)`` counter cell behind the ``random.Random`` API.

    The scalar MAC interface (``wants_to_send``) historically received a
    full ``random.Random``; this adapter keeps that whole surface
    (``randint``, ``choice``, ``uniform``, ... all route through
    ``random()``/``getrandbits()``) while serving every draw from the
    counter stream, bumping the ``draw`` index per call so a protocol
    that draws twice in one slot still sees independent values.  Draw 0
    is the value the vectorized kernels compute, so a protocol that
    draws at most once per slot (every built-in one) matches its bulk
    implementation bit-for-bit.
    """

    def __init__(self, rng: StreamRNG, stream: int, slot: int):
        self._rng = rng
        self._stream = stream
        self._slot = slot
        self._draw = 0
        # The inherited Mersenne state is never read — random() and
        # getrandbits() below feed every derived method — but the base
        # class insists on seeding it.
        super().__init__(0)

    def rebind(self, stream: int, slot: int) -> StreamDraw:
        """Re-point this adapter at another cell and reset the draw index.

        Bulk fallbacks iterate millions of cells; reusing one adapter
        skips ``random.Random.__init__`` (which insists on seeding a
        Mersenne state) per cell.  The adapter is only valid for the
        duration of the ``wants_to_send`` call it is passed to.
        """
        self._stream = stream
        self._slot = slot
        self._draw = 0
        return self

    def random(self) -> float:
        value = self._rng.uniform(self._stream, self._slot, self._draw)
        self._draw += 1
        return value

    def getrandbits(self, k: int) -> int:
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        result = 0
        filled = 0
        while filled < k:
            state = self._rng.state(self._stream, self._slot, self._draw)
            self._draw += 1
            take = min(64, k - filled)
            result |= (state >> (64 - take)) << filled
            filled += take
        return result

    def seed(self, *args, **kwargs) -> None:  # pragma: no cover - base init
        # Called by random.Random.__init__; a counter cell has no
        # reseedable state of its own.
        super().seed(*args, **kwargs)

    def getstate(self):
        raise NotImplementedError("a StreamDraw is a stateless view of "
                                  "one (stream, slot) counter cell")

    def setstate(self, state):
        raise NotImplementedError("a StreamDraw is a stateless view of "
                                  "one (stream, slot) counter cell")
