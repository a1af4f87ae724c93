"""Pairwise additive-mask secure aggregation in the ring Z_2^64.

Every unordered pair of participants shares a seed derived from
(round_index, id_a, id_b, session_seed); a counter-based PRG (Philox)
expands it to a mask vector r_ab of uint64 words. The lexicographically
smaller id adds r_ab and the larger subtracts it, modulo 2^64, so the masks
cancel exactly in any order, each masked update on its own is uniform on
the ring, and the coordinator recovers only the sum of the inputs
(Bonawitz et al., CCS 2017).

Because Philox is counter-based, word b of every pair's stream is a pure
function of (seed, b), and all pair masks of a round are expanded in one
pass of uint64 array arithmetic, a chunk of pairs at a time. The words are
bit-identical to numpy's ``Philox(key=seed)`` stream.

Each client pre-scales its update by n_i / n_total and encodes it as
two's-complement fixed point before masking, so the decoded sum is the
weighted average up to one rounding per client. The coordinator broadcasts
n_total, which is dataset-size metadata, acceptable under an
honest-but-curious model. Dropouts are only permitted before mask
derivation; a participant-set mismatch at aggregation aborts the round.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import NumericError, ProtocolError, ShapeError
from .wire import ClientUpdate, MaskedUpdate

# The fixed-point format: 2^-32 resolution, |x| < 2^15, at most 2^16 updates
# per aggregate, so no sum of encodings reaches 2^47 * 2^16 = 2^63 and wraps;
# a value or a count past a limit raises a typed error instead.
FRACTION_BITS = 32
MAX_ENCODED = 1 << 47
MAX_UPDATES = 1 << 16


def pair_seed(round_index: int, id_a: str, id_b: str, session_seed: int) -> int:
    """Shared 64-bit seed for the unordered pair (id_a, id_b) in one round."""
    if id_a == id_b:
        raise ProtocolError(f"duplicate participant id {id_a!r}")
    lo, hi = (id_a, id_b) if id_a < id_b else (id_b, id_a)
    text = f"mask/{int(session_seed)}/{int(round_index)}/{lo}/{hi}"
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


# Philox4x64-10 (Salmon et al., SC 2011) exactly as numpy's Philox bit
# generator runs it: key (seed, 0); block b of the stream is the cipher of
# counter (b + 1, 0, 0, 0), because numpy bumps the counter before it
# generates; ten rounds with a Weyl bump of the key between rounds. The
# second key word does not depend on the seed, so its ten values are fixed.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_ROUNDS = 10
_PHILOX_K1 = [np.uint64(r * 0xBB67AE8584CAA73B % (1 << 64)) for r in range(_PHILOX_ROUNDS)]
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Mask values expanded per kernel call. Pairs are taken in chunks of about
# this many values, so the kernel's working set stays under 0.5 MiB whatever
# the number of participants or the dimension.
MASK_CHUNK_VALUES = 1 << 13


def _mulhilo(x: np.ndarray, m: np.ndarray, m_lo: np.ndarray,
             m_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, elementwise;
    ``m_lo`` and ``m_hi`` are the 32-bit halves of ``m``.

    numpy has no 128-bit integers, so the high word is assembled from 32-bit
    halves in wrapping uint64 arithmetic; no partial sum can overflow.
    """
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    hi_lo = x_hi * m_lo
    cross = ((x_lo * m_lo) >> _SHIFT32) + (hi_lo & _LO32) + x_lo * m_hi
    hi = x_hi * m_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32)
    return hi, x * m


def philox_words(seeds: np.ndarray, blocks: int) -> np.ndarray:
    """The first ``4 * blocks`` uint64 words of each seed's Philox stream.

    Row i equals the words ``np.random.Philox(key=seeds[i]).random_raw``
    would return, for all seeds in one pass of array arithmetic.

    Each round multiplies counter words 0 and 2, by M0 and M1. The two words
    of every (seed, block) are the two rows of one array and the multipliers
    two rows of the same shape, so one product covers both words, and no
    operand broadcasts: numpy then runs each operation as one flat loop.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    k0 = np.repeat(seeds, blocks)
    m = np.repeat(_PHILOX_M[:, None], len(k0), axis=1)
    m_lo, m_hi = m & _LO32, m >> _SHIFT32
    x = np.zeros((2, len(k0)), dtype=np.uint64)  # words (c0, c2)
    x[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(seeds))
    y = np.zeros_like(x)  # words (c3, c1)
    for k1 in _PHILOX_K1:
        hi, lo = _mulhilo(x, m, m_lo, m_hi)
        hi ^= y
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        np.bitwise_xor(hi[1], k0, out=x[0])
        np.bitwise_xor(hi[0], k1, out=x[1])
        y = lo
        k0 += _PHILOX_W0
    return np.stack((x[0], y[1], x[1], y[0]), axis=-1).reshape(len(seeds), 4 * blocks)


def _triangle_chunks(n: int, size: int):
    """The pairs (k, j), k < j < n, in row-major order, ``size`` at a time.

    Each chunk is a list of row spans (k, first j, stop j).
    """
    chunk, taken = [], 0
    for k in range(n - 1):
        j = k + 1
        while j < n:
            stop = min(n, j + size - taken)
            chunk.append((k, j, stop))
            taken += stop - j
            j = stop
            if taken == size:
                yield chunk
                chunk, taken = [], 0
    if chunk:
        yield chunk


def derive_pairwise_masks(
    participants: Sequence[str], round_index: int, session_seed: int, dim: int
) -> dict[str, np.ndarray]:
    """Net uint64 mask per participant; the masks sum to zero modulo 2^64.

    A single participant gets a zero mask (no pairs). Duplicate ids are a
    protocol error.
    """
    ids = list(participants)
    if len(set(ids)) != len(ids):
        raise ProtocolError("duplicate participant ids")
    if dim < 1:
        raise ShapeError("dim must be >= 1")
    ordered = sorted(ids)
    masks = np.zeros((len(ordered), dim), dtype=np.uint64)
    per_chunk = max(1, MASK_CHUNK_VALUES // (4 * -(-dim // 4)))
    for spans in _triangle_chunks(len(ordered), per_chunk):
        seeds = [pair_seed(round_index, ordered[k], ordered[j], session_seed)
                 for k, first, stop in spans for j in range(first, stop)]
        words = philox_words(np.array(seeds, dtype=np.uint64), -(-dim // 4))[:, :dim]
        at = 0
        for k, first, stop in spans:
            block = words[at:at + stop - first]
            at += stop - first
            masks[first:stop] -= block
            masks[k] += block.sum(axis=0, dtype=np.uint64)
    return dict(zip(ordered, masks))


def mask_update(update: ClientUpdate, mask) -> MaskedUpdate:
    """Encode an update as fixed point (NumericError if out of range), add its mask."""
    mask = np.asarray(mask)
    if mask.dtype != np.uint64 or mask.shape != update.weights.shape:
        raise ShapeError(f"mask must be a uint64 vector of length {update.dimension}")
    with np.errstate(over="ignore"):  # an overflow to inf is refused just below
        fixed = np.rint(np.ldexp(update.weights, FRACTION_BITS))
    if np.any(np.abs(fixed) >= MAX_ENCODED):
        raise NumericError(f"update from {update.institution_id} is outside the "
                           f"fixed-point range |w| < {MAX_ENCODED >> FRACTION_BITS}")
    return MaskedUpdate(
        institution_id=update.institution_id,
        masked_weights=fixed.astype(np.int64).view(np.uint64) + mask,
        n_i=update.n_i,
        round_index=update.round_index,
    )


def aggregate_masked(
    masked: Sequence[MaskedUpdate], expected_ids: Iterable[str]
) -> np.ndarray:
    """Sum a complete set of masked, pre-scaled updates and decode the sum.

    ``expected_ids`` is the participant set whose masks were derived; any
    mismatch (missing, extra, or duplicated updates) means the masks cannot
    cancel and the round must abort, as must updates from different rounds
    (their masks differ) or more than MAX_UPDATES updates. The masks cancel
    exactly, so the result is the fixed-point sum of the plaintexts bit for
    bit.
    """
    expected = set(expected_ids)
    if not masked:
        raise ProtocolError("no masked updates to aggregate")
    got = [m.institution_id for m in masked]
    if len(set(got)) != len(got) or set(got) != expected:
        missing = sorted(expected - set(got))
        extra = sorted(set(got) - expected)
        raise ProtocolError(
            f"participant set mismatch, round aborted "
            f"(missing={missing}, unexpected={extra})"
        )
    if len(masked) > MAX_UPDATES:
        raise ProtocolError(f"more than {MAX_UPDATES} updates in one aggregate")
    if len({m.round_index for m in masked}) != 1:
        raise ProtocolError("masked updates from different rounds cannot be aggregated")
    dim = masked[0].dimension
    total = np.zeros(dim, dtype=np.uint64)
    for m in masked:
        if m.dimension != dim:
            raise ShapeError("masked updates disagree on dimension")
        total += m.masked_weights
    return np.ldexp(total.view(np.int64).astype(np.float64), -FRACTION_BITS)
