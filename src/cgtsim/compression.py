"""Compression operators, their (C, delta, r) profiles and statistical verifiers.

Every operator is a pure function of (kind, input vector, keyed random stream),
so reference and communication-efficient algorithm variants can consume
identical draws by sharing stream keys.

The streams are a counter hash that one function, ``_uniforms``, folds, so any
draw can be made out of order.  The engine draws the uniforms of each of its
checked blocks of consecutive iterations in one ``_draw_block`` call, with the
same keys and therefore the same bits as one draw per iteration.  The hash
rounds run in place on the fresh array each fold creates, and rebind a scalar
word's uint64; no caller's array is ever written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .problems import _is_int


class CompressionError(ValueError):
    """Raised for invalid operator parameters or inputs."""


def _check_count(kind: object, field: str, name: str) -> None:
    # a NumPy integer is stored as the equal int, so its run's bits_sent are ints too
    value = getattr(kind, field)
    if not _is_int(value):
        raise CompressionError(f"{name} must be an integer, got {value!r}")
    object.__setattr__(kind, field, int(value))


# ---------------------------------------------------------------------------
# operator kinds

@dataclass(frozen=True)
class Identity:
    pass


def _check_q(q: float) -> None:
    if q not in (1, 2, math.inf):
        raise CompressionError(f"norm index must be 1, 2 or inf, got {q!r}")


@dataclass(frozen=True)
class UnbiasedQuantize:
    """Unbiased b-bit q-norm quantizer with uniform dithering."""

    bits: int
    q: float  # 1, 2 or math.inf

    def __post_init__(self) -> None:
        _check_count(self, "bits", "quantizer bits")
        # a double holds every level 0..2**(bits-1) exactly only up to 53 bits
        if not 1 <= self.bits <= 53:
            raise CompressionError(f"quantizer needs 1 <= bits <= 53, got {self.bits}")
        _check_q(self.q)


@dataclass(frozen=True)
class TopK:
    """Keep the k entries of largest absolute value (ties to the lowest index).

    A NaN entry ranks above every number, ±inf included, at every k.
    """

    k: int

    def __post_init__(self) -> None:
        _check_count(self, "k", "top-k's k")
        if self.k < 1:
            raise CompressionError(f"top-k needs k >= 1, got {self.k}")


@dataclass(frozen=True)
class RandK:
    """Keep a uniformly random subset of exactly k entries."""

    k: int

    def __post_init__(self) -> None:
        _check_count(self, "k", "random-k's k")
        if self.k < 1:
            raise CompressionError(f"random-k needs k >= 1, got {self.k}")


@dataclass(frozen=True)
class NormSign:
    """Map x to ||x||_q * sign(x)."""

    q: float

    def __post_init__(self) -> None:
        _check_q(self.q)


@dataclass(frozen=True)
class RescaledNormSign:
    """Norm-sign output divided by a scale r (contractive for r = p)."""

    q: float
    r: float

    def __post_init__(self) -> None:
        _check_q(self.q)
        if not 0 < self.r < math.inf:
            raise CompressionError(f"scale r must be positive and finite, got {self.r!r}")


CompressorKind = Identity | UnbiasedQuantize | TopK | RandK | NormSign | RescaledNormSign

_STOCHASTIC_KINDS = (UnbiasedQuantize, RandK)


# ---------------------------------------------------------------------------
# the text form "kind:key=value,...": a kind's arguments are its dataclass
# fields in declaration order, so a new kind is its class plus a row in _KINDS

def _parse_q(text: str) -> float:
    return math.inf if text.lower() in ("inf", "infty", "infinity") else float(text)


_KINDS = {"identity": Identity, "quant": UnbiasedQuantize, "topk": TopK, "randk": RandK,
          "normsign": NormSign, "normsign-rescaled": RescaledNormSign}

# field -> (text key, parser, renderer); .17g writes a float that reads back exactly
_FIELD_TEXT = {
    "bits": ("b", int, str),
    "k": ("k", int, str),
    "q": ("q", _parse_q, lambda q: "inf" if q == math.inf else str(int(q))),
    "r": ("r", float, lambda r: f"{r:.17g}"),
}

# class -> (name, [(field, key, parser, renderer), ...]), resolved once
_FORMS = {cls: (name, [(f.name, *_FIELD_TEXT[f.name]) for f in fields(cls)])
          for name, cls in _KINDS.items()}


def parse_compressor(text: str) -> CompressorKind:
    """Parse a config string such as "topk:k=1" or "quant:b=2,q=inf".

    Every argument of the kind is required; an unknown or repeated one is an error.
    """
    head, _, rest = text.strip().partition(":")
    cls = _KINDS.get(head.strip().lower())
    if cls is None:
        raise CompressionError(f"unknown compressor kind {head.strip()!r}")
    args: dict[str, str] = {}
    for part in rest.split(",") if rest else ():
        key, eq, val = part.partition("=")
        key = key.strip().lower()
        if not eq:
            raise CompressionError(f"malformed compressor argument {part!r} in {text!r}")
        if key in args:
            raise CompressionError(f"compressor {text!r} repeats argument {key!r}")
        args[key] = val.strip()
    try:
        values = {field: parse(args.pop(key)) for field, key, parse, _ in _FORMS[cls][1]}
    except KeyError as exc:
        raise CompressionError(f"compressor {text!r} is missing argument {exc}") from None
    except ValueError as exc:
        raise CompressionError(f"compressor {text!r} has a malformed argument: {exc}") from None
    if args:
        raise CompressionError(f"compressor {text!r} has unknown argument {next(iter(args))!r}")
    return cls(**values)


def compressor_label(kind: CompressorKind) -> str:
    """Inverse of parse_compressor, used in CSV column labels and reports."""
    if type(kind) not in _FORMS:
        raise CompressionError(f"unknown kind {kind!r}")
    name, rows = _FORMS[type(kind)]
    args = ",".join(f"{key}={render(getattr(kind, field))}" for field, key, _, render in rows)
    return f"{name}:{args}" if args else name


# ---------------------------------------------------------------------------
# keyed random streams (splitmix64 counter hash)

_PHI, _MUL1, _MUL2 = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9),
                      np.uint64(0x94D049BB133111EB))
_MASK = (1 << 64) - 1
# the shift counts as uint64 scalars, built once: numpy converts a Python int on every call
_SHR30 = np.uint64(30)
_SHR27 = np.uint64(27)
_SHR31 = np.uint64(31)
_SHR11 = np.uint64(11)

TAG_X_DIFF = 1
TAG_Y_DIFF = 2
TAG_X_EF = 3
TAG_Y_EF = 4
TAG_INIT = 5


def _mix64(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    # updates a fresh uint64 array in place, or rebinds a uint64 scalar, and returns it;
    # wraparound is intentional
    z ^= z >> _SHR30
    z *= _MUL1
    z ^= z >> _SHR27
    z *= _MUL2
    z ^= z >> _SHR31
    return z


def _u64(x: int | np.integer | np.ndarray) -> np.ndarray | np.uint64:
    # a key word is an integer: a float or complex one is refused, not truncated
    if isinstance(x, np.ndarray):
        if x.dtype.kind not in "iu":
            raise CompressionError(f"key words must be integers, got an array of dtype {x.dtype}")
        return np.atleast_1d(x).astype(np.uint64)
    if not _is_int(x):
        raise CompressionError(f"key words must be integers, got {x!r}")
    # int() first: a NumPy integer folds as the equal Python int
    return np.uint64(int(x) & _MASK)


def _uniforms(m: int, *words: int | np.ndarray) -> np.ndarray:
    """m doubles in [0, 1) per key, shaped (*keys, m) in C order.

    The key is a splitmix64 chain over the words (seed, agent, iteration,
    tag): each is folded in as ``h = mix64(h ^ (word + phi))`` from ``h = 0``,
    and array words broadcast against each other.  Double j of a key is the
    top 53 bits of ``mix64(h + (j + 1) phi)``.

    The chain is a uint64 scalar until the first array word; ``np.atleast_1d``
    gives an all-scalar key the shape (1, m).  The word loop runs under
    ``np.errstate``: a uint64 scalar's wraparound warns where an array's does
    not, and the wraparound is the hash.
    """
    h = np.uint64(0)
    with np.errstate(over="ignore"):
        for word in words:
            h = _mix64(h ^ (_u64(word) + _PHI))
    h = np.atleast_1d(h)
    z = _mix64(h[..., None] + np.arange(1, m + 1, dtype=np.uint64) * _PHI)
    z >>= _SHR11
    return z * 2.0 ** -53  # a Python float scales uint64 to float64, exactly below 2**53


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream keyed by (seed, agent, iteration, tag).

    Identical keys produce identical sequences; distinct keys are
    statistically independent.  Streams are stateless: ``uniform(m)`` always
    returns the same block for the same key.
    """

    seed: int
    agent: int = 0
    iteration: int = 0
    tag: int = 0

    def uniform(self, m: int) -> np.ndarray:
        return _uniforms(m, self.seed, self.agent, self.iteration, self.tag)[0]


# ---------------------------------------------------------------------------
# the operators

def _check_input(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise CompressionError(f"input must be a nonempty vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise CompressionError("input has NaN or Inf entries")
    return x


def _row_norms(m: np.ndarray, q: float, a: np.ndarray | None = None) -> np.ndarray:
    """The q-norm of each row of m; ``a`` is np.abs(m) when the caller already has it.

    This is the library's one row norm: the compressors and the engine's
    invariant checks use it.  Its sums are numpy's pairwise sums, which give the
    same bits at every BLAS thread count.  At q = 2, a finite row whose sum of
    squares overflows takes the max-scaled norm.  A finite row whose q-norm
    itself passes DBL_MAX reads inf, without a warning.
    """
    if q == 2:
        with np.errstate(over="ignore"):
            norms = np.sqrt((m * m).sum(axis=1))
            over = np.isinf(norms)
            if over.any():
                # the sum overflows once entries pass about 1.3e154, long before the norm does
                over &= np.isfinite(m).all(axis=1)
                scale = np.abs(m[over]).max(axis=1)
                scaled = m[over] / scale[:, None]
                norms[over] = scale * np.sqrt((scaled * scaled).sum(axis=1))
        return norms
    a = np.abs(m) if a is None else a
    if q == math.inf:
        return a.max(axis=1)
    with np.errstate(over="ignore"):
        return a.sum(axis=1)


def _scale_huge_rows(m: np.ndarray, norms: np.ndarray, q: float) -> tuple | None:
    """Rescale the norms of the rows of m whose q-norm is inf.

    Each such row's entry of ``norms`` becomes the q-norm of the row times
    2**-e, with 2**e > p, which is finite for a finite row; a caller computes the
    row's output at that exact power-of-two scale and multiplies it by 2**e
    (``_unscale``).  A row with an inf entry keeps norm inf under the scale, so
    its output keeps the inf/NaN pattern it has unscaled.  Returns the rows' mask
    and e, or None when there are none, as always at q = inf, where the norm is
    an entry.
    """
    if q == math.inf:
        return None
    huge = np.isinf(norms)
    if not huge.any():
        return None
    e = m.shape[1].bit_length()
    norms[huge] = _row_norms(np.ldexp(m[huge], -e), q)
    return huge, e


def _unscale(out: np.ndarray, scaled: tuple | None) -> np.ndarray:
    if scaled:
        huge, e = scaled
        # exact, but where the exact entry passes DBL_MAX too: it reads inf
        with np.errstate(over="ignore"):
            out[huge] = np.ldexp(out[huge], e)
    return out


@lru_cache(maxsize=None)
def _coefficient(c: float) -> np.ndarray:
    """The positive constant ``c`` as a read-only 0-d float64 array, built once per value.

    numpy converts a Python-float operand on every call, and a 0-d array it uses
    as it is; the product or quotient is the same binary64 operation.
    """
    a = np.array(c, dtype=float)
    a.setflags(write=False)
    return a


def _quantize_rows(m: np.ndarray, kind: UnbiasedQuantize, u: np.ndarray) -> np.ndarray:
    scale = _coefficient(2.0 ** (kind.bits - 1))
    a = np.abs(m)
    norms = _row_norms(m, kind.q, a)
    scaled = _scale_huge_rows(m, norms, kind.q)
    if scaled:
        huge, e = scaled
        a[huge] = np.ldexp(a[huge], -e)
    # every norm positive, in one reduce: a NaN norm propagates through minimum, so its
    # block takes the general path, and the initial inf keeps a (0, p) block working
    all_positive = np.minimum.reduce(norms, initial=np.inf) > 0
    safe = (norms if all_positive else np.where(norms > 0, norms, 1.0))[:, None]
    # scale * a would overflow for entries above DBL_MAX / scale; a power of two scales
    # exactly, so every t is the one scale * a / safe gives where that is finite
    t = scale * (a / safe)
    # the level is floor(t + u) exactly: the sum t + u rounds, up to the next integer at
    # times, but t - floor(t) and 1 - u (u a multiple of 2**-53 in [0, 1)) are exact
    level = np.floor(t)
    level += (t - level) >= (1.0 - u)
    out = (safe / scale) * np.sign(m) * level
    # a zero-norm row maps to +0.0: the formula alone gives -0.0 for the negative entries
    # of a row whose 2-norm underflows to 0
    if not all_positive:
        out[norms == 0] = 0.0
    return _unscale(out, scaled)


def _keep_rows(m: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Zero all of each row but the columns ``keep`` names: (rows,) or (rows, k)."""
    # one flat index per kept entry, row * p + column: one take and one put on the raveled
    # arrays, where two row-and-column indexes cost more; values are copied, not computed
    rows, p = m.shape
    flat = np.arange(0, rows * p, p)
    if keep.ndim == 2:
        flat = flat[:, None]
    flat = flat + keep
    out = np.zeros(rows * p)
    out[flat] = m.ravel()[flat]
    return out.reshape(rows, p)


def check_dimension(kind: CompressorKind, p: int) -> None:
    """Refuse a dimension the kind cannot compress: p < 1, or a sparsifier's k > p."""
    if p < 1:
        raise CompressionError(f"dimension must be positive, got {p}")
    if isinstance(kind, (TopK, RandK)) and kind.k > p:
        raise CompressionError(f"{compressor_label(kind)} exceeds dimension p={p}")


def _apply_rows(kind: CompressorKind, m: np.ndarray, u: np.ndarray | None) -> np.ndarray:
    check_dimension(kind, m.shape[1])
    if isinstance(kind, Identity):
        return m.copy()
    if isinstance(kind, UnbiasedQuantize):
        assert u is not None
        return _quantize_rows(m, kind, u)
    if isinstance(kind, TopK):
        # NaN ranks first, then |m| descending, ties to the lowest index: argmax takes the
        # first NaN, else the first maximum, and the stable lexsort keeps order among equals
        a = np.abs(m)
        if kind.k == 1:
            return _keep_rows(m, a.argmax(axis=1))
        return _keep_rows(m, np.lexsort((-a, ~np.isnan(a)), axis=1)[:, :kind.k])
    if isinstance(kind, RandK):
        assert u is not None
        # kept set = indices of the k smallest uniforms: a uniformly random k-subset
        if kind.k == 1:
            return _keep_rows(m, u.argmin(axis=1))
        return _keep_rows(m, np.argpartition(u, kind.k - 1, axis=1)[:, :kind.k])
    if isinstance(kind, (NormSign, RescaledNormSign)):
        norms = _row_norms(m, kind.q)
        scaled = _scale_huge_rows(m, norms, kind.q)
        if isinstance(kind, RescaledNormSign):
            norms = norms / _coefficient(kind.r)
        out = norms[:, None] * np.sign(m)
        return _unscale(out, scaled)
    raise CompressionError(f"unknown kind {kind!r}")


def compress(kind: CompressorKind, x: np.ndarray, rng: RngStream | None = None) -> np.ndarray:
    """Apply a compression operator to one vector and return the payload.

    Deterministic kinds ignore ``rng``; the quantizer and random-k draw all
    their randomness from it.  The zero vector maps to the zero vector for
    every kind.  The bits the payload costs are ``bit_cost(kind, x.size)``.
    """
    x = _check_input(x)
    u = None
    if isinstance(kind, _STOCHASTIC_KINDS):
        if rng is None:
            raise CompressionError(f"{type(kind).__name__} needs an RngStream")
        u = rng.uniform(x.size)[None, :]
    return _apply_rows(kind, x[None, :], u)[0]


def compress_rows(kind: CompressorKind, m: np.ndarray, seed: int, iteration: int, tag: int) -> np.ndarray:
    """Compress each row of ``m`` with the stream keyed by (seed, row, iteration, tag).

    Bit-identical to calling :func:`compress` row by row.
    """
    u = _draw_block(kind, seed, *np.shape(m), [tag], iteration, iteration + 1)[0]
    return compress_rows_multi(kind, [m], u)[0]


def compress_rows_multi(kind: CompressorKind, blocks: np.ndarray | list[np.ndarray],
                        u: np.ndarray | None) -> np.ndarray:
    """Compress a stack of same-shaped (n, p) row blocks in one pass.

    ``blocks`` is a (B, n, p) array or a list of B (n, p) arrays; the result
    is one (B, n, p) array.  ``u`` holds the (B*n, p) uniforms of the rows in
    stack order, one entry of :func:`_draw_block`, or None for a deterministic
    kind; the engine compresses its stacked x/y (and error-feedback) channels
    of one iteration this way.
    """
    stacked = np.asarray(blocks, dtype=float)
    b, n, p = stacked.shape
    return _apply_rows(kind, stacked.reshape(b * n, p), u).reshape(b, n, p)


def _draw_block(kind: CompressorKind, seed: int, n: int, p: int, tags: list[int],
                start: int, stop: int) -> np.ndarray | list[None]:
    """The uniforms of iterations start..stop-1 for a stack of len(tags) (n, p) blocks.

    Entry j is iteration start + j's (len(tags)*n, p) draw: row t*n + i is the
    stream keyed by (seed, i, start + j, tags[t]).  A deterministic kind
    draws nothing: each entry is None.
    """
    if not isinstance(kind, _STOCHASTIC_KINDS):
        return [None] * (stop - start)
    return _uniforms(p, seed, np.arange(n), np.arange(start, stop)[:, None, None],
                     np.asarray(tags)[None, :, None]).reshape(stop - start, len(tags) * n, p)


# ---------------------------------------------------------------------------
# bit accounting

def bit_cost(kind: CompressorKind, p: int) -> int:
    """Bits one agent transmits for one compressed vector of dimension p.

    64-bit floats; sparsifiers send (value, index) pairs; norm-based kinds
    send the norm plus a sign bit per entry; the quantizer sends the norm,
    signs and b-bit integers.
    """
    check_dimension(kind, p)
    if isinstance(kind, Identity):
        return 64 * p
    if isinstance(kind, UnbiasedQuantize):
        return 64 + p + kind.bits * p
    if isinstance(kind, (TopK, RandK)):
        return kind.k * (64 + math.ceil(math.log2(p)))
    if isinstance(kind, (NormSign, RescaledNormSign)):
        return 64 + p
    raise CompressionError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# profiles

@dataclass(frozen=True)
class CompressorProfile:
    """Unified operator description: variance bound C, contraction delta, scale r."""

    C: float
    delta: float
    r: float
    provenance: str = "analytic"

    def __post_init__(self) -> None:
        if not (0 < self.delta <= 1):
            raise CompressionError(f"delta must be in (0, 1], got {self.delta!r}")
        if self.r <= 0:
            raise CompressionError(f"r must be positive, got {self.r!r}")
        if self.C < 0:
            raise CompressionError(f"C must be nonnegative, got {self.C!r}")


def alpha_in_range(alpha: float, r: float) -> bool:
    """Whether a mixing rate lies in the theory's range (0, 1/r], up to 1e-12 relative."""
    return 0 < alpha <= 1.0 / r * (1 + 1e-12)


def analytic_profile(kind: CompressorKind, p: int) -> CompressorProfile | None:
    """Known (C, delta, r) values; None when no analytic constant is available.

    The b-bit quantizer has no closed-form C here, so callers fall back to
    :func:`empirical_profile` for it.  A top-k or random-k with k > p is
    refused, as the kernels refuse it.  The general formulas give the
    identity's profile (C, delta, r) = (0, 1, 1) where the operator is the
    identity: a top-k or random-k at k = p, and norm-sign at p = 1.
    """
    check_dimension(kind, p)
    if isinstance(kind, Identity):
        return CompressorProfile(C=0.0, delta=1.0, r=1.0)
    if isinstance(kind, (TopK, RandK)):
        delta = kind.k / p
        return CompressorProfile(C=1.0 - delta, delta=delta, r=1.0)
    if isinstance(kind, NormSign):
        c = float((p - 1) ** 2) if kind.q == 1 else float(p - 1)
        delta = 1.0 / p**2 if kind.q == math.inf else 1.0 / p
        return CompressorProfile(C=c, delta=delta, r=float(p))
    if isinstance(kind, RescaledNormSign):
        base = analytic_profile(NormSign(q=kind.q), p)
        assert base is not None
        if kind.r != base.r:
            return None
        # the rescaled operator is itself contractive: C' = 1 - delta, r' = 1
        return CompressorProfile(C=1.0 - base.delta, delta=base.delta, r=1.0)
    if isinstance(kind, UnbiasedQuantize):
        return None
    raise CompressionError(f"unknown kind {kind!r}")


def _test_inputs(p: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm stress inputs: Gaussian directions, sparse vectors, one-hots."""
    out = np.empty((count, p))
    for i in range(count):
        mode = i % 3
        if mode == 0:
            v = rng.standard_normal(p)
        elif mode == 1:
            v = np.zeros(p)
            nnz = int(rng.integers(1, max(2, p // 4 + 1)))
            idx = rng.choice(p, size=nnz, replace=False)
            v[idx] = rng.standard_normal(nnz)
        else:
            v = np.zeros(p)
            v[int(rng.integers(0, p))] = 1.0
        out[i] = v / np.linalg.norm(v)
    return out


_INNER_REPS = 50
_BLOCK_ROWS = 1000  # (input, repetition) rows per estimator kernel call


def estimate_contraction(kind: CompressorKind, p: int, trials: int = 10_000,
                         rng: int | np.random.Generator = 0) -> float:
    """Empirical max over inputs of E||C(x) - x||^2 / ||x||^2, the variance ratio of ``kind``.

    A scaled operator C(x)/r is a kind of its own: ``RescaledNormSign(q, r)`` is
    norm-sign's C(x)/r.
    """
    if trials < 1000:
        raise CompressionError(f"need trials >= 1000, got {trials}")
    gen = np.random.default_rng(rng)
    stochastic = isinstance(kind, _STOCHASTIC_KINDS)
    inner = _INNER_REPS if stochastic else 1
    count = max(1, trials // inner)
    xs = _test_inputs(p, count, gen)
    if stochastic:  # drawn after the inputs, so the inputs are the same without them
        seeds = np.array([gen.integers(2**32) for _ in range(count)], dtype=np.uint64)
    per_block = max(1, _BLOCK_ROWS // inner)
    reps = np.arange(inner)
    worst = 0.0
    for lo in range(0, count, per_block):
        trial = np.arange(lo, min(lo + per_block, count))
        m = np.repeat(xs[trial], inner, axis=0)
        u = None
        if stochastic:
            # input t, repetition rep: the stream keyed by (seed_t, t, rep, 0)
            u = _uniforms(p, seeds[trial, None], trial[:, None], reps[None, :], 0).reshape(-1, p)
        err = ((_apply_rows(kind, m, u) - m) ** 2).sum(axis=1)
        # inputs are unit norm, so the mean error is the ratio
        worst = max(worst, float(err.reshape(-1, inner).mean(axis=1).max()))
    return worst


def empirical_profile(kind: CompressorKind, p: int, trials: int = 10_000,
                      rng: int | np.random.Generator = 0) -> CompressorProfile:
    """Profile from the measured variance ratio, inflated by a 5% safety margin.

    Contractive form (r = 1) when the measured C stays below 1; otherwise the
    unbiased form r = C + 1, delta = 1/(C + 1), which is valid for the dithered
    quantizer.
    """
    c_hat = 1.05 * estimate_contraction(kind, p, trials, rng)
    if c_hat < 1.0:
        return CompressorProfile(C=c_hat, delta=1.0 - c_hat if c_hat > 0 else 1.0,
                                 r=1.0, provenance="empirical")
    if not isinstance(kind, UnbiasedQuantize):
        raise CompressionError(
            f"no empirical profile rule for biased kind {compressor_label(kind)} with C >= 1"
        )
    return CompressorProfile(C=c_hat, delta=1.0 / (c_hat + 1.0), r=c_hat + 1.0,
                             provenance="empirical")


@lru_cache(maxsize=None)
def profile_for(kind: CompressorKind, p: int) -> CompressorProfile:
    """Analytic profile when known, empirical otherwise; memoised, since both are pure."""
    prof = analytic_profile(kind, p)
    if prof is not None:
        return prof
    return empirical_profile(kind, p)
