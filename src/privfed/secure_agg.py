"""Pairwise additive-mask secure aggregation.

Every unordered pair of participants shares a seed derived from
(round_index, id_a, id_b, session_seed); a counter-based PRG (Philox)
expands it to a mask vector r_ab uniform in [-MASK_BOUND, MASK_BOUND].
The lexicographically smaller id adds +r_ab, the larger adds -r_ab, so the
sum of all per-participant masks cancels to zero and the coordinator can
recover only the sum of the masked inputs, never an individual update.

Because Philox is counter-based, word b of every pair's stream is a pure
function of (seed, b), and all pair masks of a round are expanded in one
pass of uint64 array arithmetic, a chunk of pairs at a time. The words are
bit-identical to numpy's ``Philox(key=seed)`` stream and the values to
``Generator(Philox(key=seed)).uniform(-MASK_BOUND, MASK_BOUND, dim)``.
Fold order is part of the contract, since float addition is not
associative: participant k's mask is
``((0 - r_0k) - r_1k ... - r_{k-1,k}) + r_{k,k+1} + ... + r_{k,n-1}``,
partners in ascending id order, exactly as one pair at a time would add it.

Weighted averaging and masking interact: each client pre-scales its update
by n_i / n_total before masking, and masks are derived on that scaled
space, so cancellation is exact even with unequal dataset sizes. The
coordinator broadcasts n_total, which is dataset-size metadata, acceptable
under an honest-but-curious model. Dropouts are only permitted before mask
derivation; a participant-set mismatch at aggregation aborts the round.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import ProtocolError, ShapeError
from .tasks import ensure_vector
from .wire import ClientUpdate, MaskedUpdate

MASK_BOUND = 1000.0


def pair_seed(round_index: int, id_a: str, id_b: str, session_seed: int) -> int:
    """Shared 64-bit seed for the unordered pair (id_a, id_b) in one round."""
    if id_a == id_b:
        raise ProtocolError(f"duplicate participant id {id_a!r}")
    lo, hi = sorted((id_a, id_b))
    text = f"mask/{int(session_seed)}/{int(round_index)}/{lo}/{hi}"
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


# Philox4x64-10 (Salmon et al., SC 2011) exactly as numpy's Philox bit
# generator runs it: key (seed, 0); block b of the stream is the cipher of
# counter (b + 1, 0, 0, 0), because numpy bumps the counter before it
# generates; ten rounds with a Weyl bump of the key between rounds.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Mask values expanded per kernel call. Pairs are taken in chunks of about
# this many values, so the kernel's working set stays near 1 MB whatever
# the number of participants or the dimension.
MASK_CHUNK_VALUES = 1 << 15


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x.

    numpy has no 128-bit integers, so the high word is assembled from 32-bit
    halves in wrapping uint64 arithmetic; no partial sum can overflow.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    hi_lo = x_hi * m_lo
    cross = ((x_lo * m_lo) >> _SHIFT32) + (hi_lo & _LO32) + x_lo * m_hi
    hi = x_hi * m_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32)
    return hi, x * np.uint64(m)


def philox_words(seeds: np.ndarray, blocks: int) -> np.ndarray:
    """The first ``4 * blocks`` uint64 words of each seed's Philox stream.

    Row i equals the words ``np.random.Philox(key=seeds[i]).random_raw``
    would return, for all seeds in one pass of array arithmetic.
    """
    k0 = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    k1 = 0
    # the counter words broadcast from (1, blocks) and the key from (len, 1);
    # after the third round every word is a full (len, blocks) array
    c0 = np.arange(1, blocks + 1, dtype=np.uint64).reshape(1, -1)
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = k0 + _PHILOX_W0
            k1 = (k1 + _PHILOX_W1) % (1 << 64)
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(len(k0), 4 * blocks)


def _uniform_masks(seeds: np.ndarray, dim: int) -> np.ndarray:
    """``Generator(Philox(key=s)).uniform(-MASK_BOUND, MASK_BOUND, dim)`` per seed.

    numpy maps a word u to the double (u >> 11) * 2**-53 and that to
    low + (high - low) * d, one rounding per operation; so does this.
    """
    words = philox_words(seeds, -(-dim // 4))[:, :dim]
    return -MASK_BOUND + (words >> np.uint64(11)) * 2.0 ** -53 * (2.0 * MASK_BOUND)


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
    """Net additive mask per participant; the masks sum to the zero vector.

    A single participant gets a zero mask (no pairs). Duplicate ids are a
    protocol error.
    """
    ids = list(participants)
    if len(set(ids)) != len(ids):
        raise ProtocolError("duplicate participant ids")
    if dim < 1:
        raise ShapeError("dim must be >= 1")
    ordered = sorted(ids)
    masks = np.zeros((len(ordered), dim))
    per_chunk = max(1, MASK_CHUNK_VALUES // (4 * -(-dim // 4)))
    for spans in _triangle_chunks(len(ordered), per_chunk):
        seeds = [pair_seed(round_index, ordered[k], ordered[j], session_seed)
                 for k, first, stop in spans for j in range(first, stop)]
        values = _uniform_masks(np.array(seeds, dtype=np.uint64), dim)
        at = 0
        for k, first, stop in spans:
            block = values[at:at + stop - first]
            at += stop - first
            # the larger ids subtract r_kj; k then adds its row in partner
            # order, the same float operations as one pair at a time
            masks[first:stop] -= block
            masks[k] = np.add.accumulate(np.vstack((masks[k], block)))[-1]
    return dict(zip(ordered, masks))


def mask_update(update: ClientUpdate, mask) -> MaskedUpdate:
    """Apply an additive mask to an update: masked = weights + mask."""
    m = ensure_vector(mask, update.dimension, "mask")
    return MaskedUpdate(
        institution_id=update.institution_id,
        masked_weights=update.weights + m,
        n_i=update.n_i,
        round_index=update.round_index,
    )


def aggregate_masked(
    masked: Sequence[MaskedUpdate], expected_ids: Iterable[str]
) -> np.ndarray:
    """Sum a complete set of masked, pre-scaled updates.

    ``expected_ids`` is the participant set whose masks were derived; any
    mismatch (missing, extra, or duplicated updates) means the masks cannot
    cancel and the round must abort. Because each client pre-scaled its
    update by n_i / n_total, the unmasked sum is exactly the
    dataset-size-weighted average of the plaintext updates.
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
    dim = masked[0].dimension
    total = np.zeros(dim)
    for m in sorted(masked, key=lambda u: u.institution_id):
        if m.dimension != dim:
            raise ShapeError("masked updates disagree on dimension")
        total += m.masked_weights
    return total
