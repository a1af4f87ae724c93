import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privfed import secure_agg
from privfed.errors import NumericError, ProtocolError, ShapeError
from privfed.federation import weighted_average
from privfed.secure_agg import (
    FRACTION_BITS,
    MAX_ENCODED,
    MAX_UPDATES,
    aggregate_masked,
    derive_pairwise_masks,
    mask_update,
    pair_seed,
    philox_words,
)
from privfed.wire import ClientUpdate, MaskedUpdate


def ids(n):
    return [f"inst{i:02d}" for i in range(n)]


def reference_masks(participants, round_index, session_seed, dim):
    """One numpy Philox generator per pair, added one pair at a time mod 2^64."""
    ordered = sorted(participants)
    masks = {pid: np.zeros(dim, dtype=np.uint64) for pid in ordered}
    for i, id_a in enumerate(ordered):
        for id_b in ordered[i + 1:]:
            r = np.random.Philox(
                key=pair_seed(round_index, id_a, id_b, session_seed)).random_raw(dim)
            masks[id_a] += r
            masks[id_b] -= r
    return masks


def fixed_point_sum(vectors):
    """The decoded sum of the fixed-point encodings, in unbounded integers."""
    totals = [sum(round(float(x) * 2**FRACTION_BITS) for x in column)
              for column in zip(*vectors)]
    return np.array([float(t) * 2.0**-FRACTION_BITS for t in totals])


def ring_masks(n, dim, seed):
    """n uniform uint64 masks that sum to zero, without deriving pair masks."""
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 2**64, (n, dim), dtype=np.uint64)
    masks[-1] = -masks[:-1].sum(axis=0, dtype=np.uint64)
    return masks


def assert_same_bits(got, want):
    assert list(got) == list(want)
    for pid in want:
        assert got[pid].tobytes() == want[pid].tobytes(), pid


class TestPhiloxKernel:
    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1])
    def test_words_equal_numpy_philox_stream(self, seed):
        want = np.random.Philox(key=seed).random_raw(24)
        got = philox_words(np.array([seed], dtype=np.uint64), 6)
        assert got.dtype == np.uint64 and got.shape == (1, 24)
        assert (got[0] == want).all()

    def test_many_seeds_in_one_pass(self):
        seeds = np.array([3, 2**64 - 1, 0, 2**63 + 5, 99], dtype=np.uint64)
        got = philox_words(seeds, 2)
        for row, seed in zip(got, seeds):
            assert (row == np.random.Philox(key=int(seed)).random_raw(8)).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), dim=st.integers(1, 40), round_index=st.integers(0, 2**31),
           session_seed=st.integers(0, 2**64 - 1))
    def test_masks_equal_per_pair_generators_bit_for_bit(self, n, dim, round_index,
                                                         session_seed):
        participants = ids(n)[::-1]  # input order must not matter
        assert_same_bits(derive_pairwise_masks(participants, round_index, session_seed, dim),
                         reference_masks(participants, round_index, session_seed, dim))

    def test_masks_equal_reference_across_several_chunks(self):
        # 7,140 pairs at 36 values each: about eight chunks, rows split across them
        dim = 33
        assert 120 * 119 // 2 * 36 > 4 * secure_agg.MASK_CHUNK_VALUES
        assert_same_bits(derive_pairwise_masks(ids(120), 2, 2**64 - 1, dim),
                         reference_masks(ids(120), 2, 2**64 - 1, dim))

    @pytest.mark.parametrize("chunk_values", [1, 4, 20, 52])
    def test_chunk_size_does_not_change_bits(self, monkeypatch, chunk_values):
        monkeypatch.setattr(secure_agg, "MASK_CHUNK_VALUES", chunk_values)
        assert_same_bits(derive_pairwise_masks(ids(17), 5, 2**63 + 5, 7),
                         reference_masks(ids(17), 5, 2**63 + 5, 7))

    @pytest.mark.parametrize("n,dim", [(200, 9), (600, 100)])
    def test_traced_peak_memory_bounded(self, n, dim):
        # the kernel works a chunk at a time, so only the n x dim result grows
        # with n and dim; 600 x 100 has the largest result of the shapes bounded
        tracemalloc.start()
        try:
            derive_pairwise_masks([f"inst{i:03d}" for i in range(n)], 0, 1, dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    def test_one_seed_derivation_per_pair(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return pair_seed(*args)

        monkeypatch.setattr(secure_agg, "pair_seed", counted)
        derive_pairwise_masks(ids(23), 0, 1, 5)
        assert len(calls) == 23 * 22 // 2
        assert len(set(calls)) == len(calls)


class TestDeriveMasks:
    def test_single_participant_gets_zero_mask(self):
        masks = derive_pairwise_masks(["a"], 0, 123, 8)
        assert (masks["a"] == 0).all()

    def test_two_participants_antisymmetric(self):
        masks = derive_pairwise_masks(["a", "b"], 0, 123, 16)
        assert masks["a"].dtype == np.uint64
        assert (masks["a"] == -masks["b"]).all()
        # the smaller id adds the pair's raw Philox words unchanged
        words = np.random.Philox(key=pair_seed(0, "a", "b", 123)).random_raw(16)
        assert (masks["a"] == words).all()

    def test_masks_cancel(self):
        masks = derive_pairwise_masks(ids(5), 3, 9, 100)
        total = sum(masks.values())
        assert total.dtype == np.uint64 and (total == 0).all()

    def test_masks_cancel_many_sizes(self):
        for n in range(1, 41):
            total = sum(derive_pairwise_masks(ids(n), 1, 77, 33).values())
            assert total.dtype == np.uint64 and (total == 0).all(), n

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ProtocolError):
            derive_pairwise_masks(["a", "a", "b"], 0, 1, 4)

    def test_dim_below_one_rejected(self):
        with pytest.raises(ShapeError):
            derive_pairwise_masks(["a", "b"], 0, 1, 0)

    def test_deterministic_per_round_and_session(self):
        a = derive_pairwise_masks(ids(4), 2, 5, 10)
        b = derive_pairwise_masks(ids(4), 2, 5, 10)
        c = derive_pairwise_masks(ids(4), 3, 5, 10)
        for k in a:
            assert (a[k] == b[k]).all()
        assert any(not (a[k] == c[k]).all() for k in a)

    def test_pair_seed_order_independent(self):
        assert pair_seed(1, "a", "b", 9) == pair_seed(1, "b", "a", 9)
        with pytest.raises(ProtocolError):
            pair_seed(1, "a", "a", 9)


class TestMaskUpdate:
    def test_zero_mask_is_identity(self):
        # with a zero mask the words are the two's-complement fixed point
        u = ClientUpdate("a", np.array([1.0, -2.0, 2.0**-33, -3 * 2.0**-33]), 5, 0)
        m = mask_update(u, np.zeros(4, dtype=np.uint64))
        assert m.masked_weights.dtype == np.uint64
        assert m.masked_weights.view(np.int64).tolist() == [2**32, -2**33, 0, -2]

    def test_mask_equal_minus_weights_zeroes(self):
        u = ClientUpdate("a", np.array([1.0, -2.0]), 5, 0)
        minus = np.array([-2**32, 2**33], dtype=np.int64).view(np.uint64)
        m = mask_update(u, minus)
        assert (m.masked_weights == 0).all()

    def test_unmasking_recovers_plaintext(self):
        rng = np.random.default_rng(4)
        w = rng.normal(0, 3, 50)
        mask = rng.integers(0, 2**64, 50, dtype=np.uint64)
        masked = mask_update(ClientUpdate("a", w, 9, 2), mask)
        recovered = (masked.masked_weights - mask).view(np.int64) * 2.0**-FRACTION_BITS
        assert (recovered == fixed_point_sum([w])).all()
        assert np.abs(recovered - w).max() <= 2.0**-(FRACTION_BITS + 1)

    @pytest.mark.parametrize("mask", [np.zeros(3), np.zeros(3, dtype=np.int64),
                                      np.zeros(2, dtype=np.uint64),
                                      np.zeros((1, 3), dtype=np.uint64)])
    def test_mask_not_a_uint64_vector_of_the_update_length_rejected(self, mask):
        with pytest.raises(ShapeError):
            mask_update(ClientUpdate("a", np.ones(3), 1, 0), mask)

    def test_float_masked_update_rejected(self):
        with pytest.raises(ShapeError):
            MaskedUpdate("a", np.zeros(3), 1, 0)

    def test_one_step_past_the_fixed_point_range_rejected(self):
        largest = (MAX_ENCODED - 1) * 2.0**-FRACTION_BITS
        for sign in (1, -1):
            u = ClientUpdate("a", np.array([0.0, sign * largest]), 1, 0)
            assert mask_update(u, np.zeros(2, dtype=np.uint64)).masked_weights[1] == (
                np.int64(sign * (MAX_ENCODED - 1)).view(np.uint64))
            past = ClientUpdate("a", np.array([0.0, sign * MAX_ENCODED * 2.0**-FRACTION_BITS]),
                                1, 0)
            with pytest.raises(NumericError):
                mask_update(past, np.zeros(2, dtype=np.uint64))


class TestAggregateMasked:
    @staticmethod
    def secure_pipeline(updates, round_index=0, session_seed=7):
        """Client-side path: pre-scale by n_i/n_total, mask, aggregate."""
        participants = [u.institution_id for u in updates]
        n_total = sum(u.n_i for u in updates)
        dim = updates[0].dimension
        masks = derive_pairwise_masks(participants, round_index, session_seed, dim)
        masked = [
            mask_update(
                ClientUpdate(u.institution_id, u.weights * (u.n_i / n_total),
                             u.n_i, u.round_index),
                masks[u.institution_id],
            )
            for u in updates
        ]
        return aggregate_masked(masked, participants)

    def test_two_equal_clients_mean(self):
        updates = [
            ClientUpdate("a", np.array([1.0, 2.0]), 10, 0),
            ClientUpdate("b", np.array([3.0, 4.0]), 10, 0),
        ]
        out = self.secure_pipeline(updates)
        assert out == pytest.approx([2.0, 3.0], abs=1e-9)

    def test_matches_plaintext_weighted_average(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n_clients = int(rng.integers(2, 21))
            dim = int(rng.integers(1, 60))
            updates = [
                ClientUpdate(f"inst{i:02d}", rng.normal(0, 2, dim),
                             int(rng.integers(1, 500)), 0)
                for i in range(n_clients)
            ]
            secure = self.secure_pipeline(updates, session_seed=trial)
            plain = weighted_average(updates)
            assert np.abs(secure - plain).max() < 1e-6

    def test_missing_update_aborts(self):
        updates = [ClientUpdate(f"i{k}", np.ones(3), 1, 0) for k in range(3)]
        masks = derive_pairwise_masks([u.institution_id for u in updates], 0, 1, 3)
        masked = [mask_update(u, masks[u.institution_id]) for u in updates]
        with pytest.raises(ProtocolError):
            aggregate_masked(masked[:-1], [u.institution_id for u in updates])

    def test_unexpected_update_aborts(self):
        updates = [ClientUpdate(f"i{k}", np.ones(3), 1, 0) for k in range(3)]
        masks = derive_pairwise_masks([u.institution_id for u in updates], 0, 1, 3)
        masked = [mask_update(u, masks[u.institution_id]) for u in updates]
        with pytest.raises(ProtocolError):
            aggregate_masked(masked, ["i0", "i1"])

    def test_empty_aborts(self):
        with pytest.raises(ProtocolError):
            aggregate_masked([], ["a"])

    def test_update_masked_for_another_round_aborts(self):
        # its round-1 mask cannot cancel against the others' round-0 masks
        updates = [ClientUpdate(f"i{k}", np.ones(3), 1, 0) for k in range(3)]
        participants = [u.institution_id for u in updates]
        masks = derive_pairwise_masks(participants, 0, 1, 3)
        later = derive_pairwise_masks(participants, 1, 1, 3)
        masked = [mask_update(u, masks[u.institution_id]) for u in updates[:2]]
        masked.append(mask_update(ClientUpdate("i2", np.ones(3), 1, 1), later["i2"]))
        with pytest.raises(ProtocolError, match="different rounds"):
            aggregate_masked(masked, participants)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 20), st.integers(1, 12), st.integers(0, 2**64 - 1), st.data())
    def test_equals_fixed_point_plain_sum_bit_for_bit(self, n, dim, session_seed, data):
        updates = [
            ClientUpdate(f"inst{i:02d}",
                         np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim,
                                                     max_size=dim))),
                         data.draw(st.integers(1, 500)), 0)
            for i in range(n)
        ]
        n_total = sum(u.n_i for u in updates)
        secure = self.secure_pipeline(updates, session_seed=session_seed)
        assert secure.tobytes() == fixed_point_sum(
            [u.weights * (u.n_i / n_total) for u in updates]).tobytes()
        # one rounding of at most 2^-33 per update, plus float64 rounding
        # in the plaintext average itself
        scale = max(1.0, max(np.abs(u.weights).max() for u in updates))
        tolerance = n * 2.0**-(FRACTION_BITS + 1) + 4 * n * np.finfo(float).eps * scale
        assert np.abs(secure - weighted_average(updates)).max() <= tolerance

    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_values_at_largest_count_decode_without_wrapping(self, sign):
        largest = sign * (MAX_ENCODED - 1)
        masks = ring_masks(MAX_UPDATES, 2, seed=sign % 3)
        masked = [mask_update(ClientUpdate(f"i{k}", np.array([largest * 2.0**-FRACTION_BITS,
                                                              0.0]), 1, 0), masks[k])
                  for k in range(MAX_UPDATES)]
        total = aggregate_masked(masked, [m.institution_id for m in masked])
        assert total.tolist() == [float(largest * MAX_UPDATES) * 2.0**-FRACTION_BITS, 0.0]
        assert (total[0] > 0) == (sign > 0)

    def test_one_update_past_the_count_limit_rejected(self):
        zero = np.zeros(1, dtype=np.uint64)
        masked = [MaskedUpdate(f"i{k}", zero, 1, 0) for k in range(MAX_UPDATES + 1)]
        with pytest.raises(ProtocolError):
            aggregate_masked(masked, [m.institution_id for m in masked])


def test_masking_hides_plaintext_statistically():
    # smoke test: across seeds, a masked word decorrelates from its plaintext
    # because the mask is uniform on the ring
    rng = np.random.default_rng(0)
    plain = rng.normal(0, 1, 10_000)
    masked = np.empty(plain.shape, dtype=np.uint64)
    for i, p in enumerate(plain):
        masks = derive_pairwise_masks(["a", "b"], 0, i, 1)
        masked[i] = mask_update(ClientUpdate("a", [p], 1, 0), masks["a"]).masked_weights[0]
    rho = np.corrcoef(plain, masked.astype(np.float64))[0, 1]
    assert abs(rho) < 0.05
    assert abs(np.mean(masked >> np.uint64(63)) - 0.5) < 0.02  # sign bit is a coin flip
