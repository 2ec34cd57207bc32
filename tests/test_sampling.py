"""Samplers: resample schedule, uniform subsets, adaptive importance."""

import itertools

import numpy as np
import pytest

from specsum.sampling import (
    AisState,
    ais_draw,
    ais_probabilities,
    ais_update_scores,
    should_resample,
    uniform_draw,
)


class TestShouldResample:
    def test_multiples_of_m(self):
        assert should_resample(0, 3) is True
        assert should_resample(3, 3) is True
        assert should_resample(4, 3) is False

    def test_m_one_resamples_always(self):
        assert all(should_resample(k, 1) for k in range(10))

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            should_resample(2, 0)


class TestUniformDraw:
    def test_full_sample_is_whole_index_set(self):
        for seed in (0, 1, 99):
            batch = uniform_draw(5, 5, np.random.default_rng(seed))
            assert sorted(batch) == [0, 1, 2, 3, 4]

    def test_distinct_indices_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            batch = uniform_draw(10, 4, rng)
            assert len(set(batch)) == 4
            assert all(0 <= i < 10 for i in batch)

    def test_subset_frequencies_uniform(self):
        # exhaustive-subset frequency oracle: C(4,2)=6 subsets, 1/6 each
        rng = np.random.default_rng(123)
        counts = {frozenset(s): 0 for s in itertools.combinations(range(4), 2)}
        draws = 40000
        for _ in range(draws):
            counts[frozenset(uniform_draw(4, 2, rng))] += 1
        for c in counts.values():
            assert abs(c / draws - 1 / 6) <= 0.01

    def test_returns_the_int64_index_array(self):
        batch = uniform_draw(10, 4, np.random.default_rng(3))
        assert type(batch) is np.ndarray
        assert batch.dtype == np.int64 and batch.shape == (4,)

    def test_oversized_sample_rejected(self):
        with pytest.raises(ValueError):
            uniform_draw(3, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 1000, 20000, 2**31 - 1, 2**32, 2**32 + 1,
                                   2**40])
    def test_one_index_takes_the_stream_of_choice(self, N):
        # S=1 draws a scalar; it must keep rng.choice's array and stream
        for seed in range(20):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                got, want = uniform_draw(N, 1, ours), ref.choice(N, size=1, replace=False)
                assert type(got) is np.ndarray
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
            assert ours.random() == ref.random()

    def test_determinism(self):
        a = uniform_draw(20, 5, np.random.default_rng(7))
        b = uniform_draw(20, 5, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestAisProbabilities:
    def test_uniform_scores_stay_uniform(self):
        state = AisState(pi=np.ones(2))
        for k in (1, 2, 17, 10_000):
            assert ais_probabilities(state, k) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_direct_evaluation_k2(self):
        state = AisState(pi=np.array([3.0, 1.0]))
        p = ais_probabilities(state, 2)
        assert p == pytest.approx([5 / 8, 3 / 8], abs=1e-15)

    def test_decay_toward_uniform(self):
        state = AisState(pi=np.array([3.0, 1.0]))
        p = ais_probabilities(state, 1000)
        assert p == pytest.approx([0.50025, 0.49975], abs=1e-12)

    def test_huge_exponent_is_uniform(self):
        state = AisState(pi=np.array([9.0, 1.0, 1.0]), eps=1e6)
        p = ais_probabilities(state, 2)
        assert np.all(np.abs(p - 1 / 3) <= 1e-12)

    def test_properties_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            N = int(rng.integers(2, 9))
            pi = rng.uniform(0, 1, N)
            pi[rng.integers(N)] += 0.1  # keep the sum positive
            eps = float(rng.uniform(0.2, 3.0))
            state = AisState(pi=pi, eps=eps)
            k = int(rng.integers(1, 10_000))
            p = ais_probabilities(state, k)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-12
            # decay envelope with unit constant
            assert np.all(np.abs(p - 1 / N) <= k ** -eps)
            if k >= 2:
                assert np.all(p >= (1 - k ** -eps) / N)
                assert np.all(p > 0)

    def test_invalid_iteration(self):
        with pytest.raises(ValueError):
            ais_probabilities(AisState(pi=np.ones(3)), 0)

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            AisState(pi=np.zeros(3))
        with pytest.raises(ValueError):
            AisState(pi=np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            AisState(pi=np.ones(3), eps=0.0)


class TestAisDraw:
    def test_pure_score_weights_at_k1(self):
        # at k=1 the probabilities reduce to the normalized scores
        state = AisState(pi=np.array([2.0, 1.0, 1.0]))
        rng = np.random.default_rng(77)
        counts = np.zeros(3)
        draws = 60000
        for _ in range(draws):
            counts[ais_draw(state, 1, 1, rng)[0]] += 1
        assert counts / draws == pytest.approx([0.5, 0.25, 0.25], abs=0.01)

    def test_draws_with_replacement(self):
        # a dominant score makes repeats near-certain
        state = AisState(pi=np.array([1e12, 1.0, 1.0]))
        batch = ais_draw(state, 1, 4, np.random.default_rng(0))
        assert len(batch) == 4
        assert np.all(batch == 0)

    def test_returns_the_int64_index_array(self):
        batch = ais_draw(AisState(pi=np.array([2.0, 1.0, 3.0])), 2, 5,
                         np.random.default_rng(3))
        assert type(batch) is np.ndarray
        assert batch.dtype == np.int64 and batch.shape == (5,)

    def test_determinism(self):
        state = AisState(pi=np.array([2.0, 1.0, 3.0]))
        a = ais_draw(state, 5, 2, np.random.default_rng(11))
        b = ais_draw(state, 5, 2, np.random.default_rng(11))
        assert np.array_equal(a, b)


class TestAisScoreUpdate:
    def test_overwrites_sampled_scores_only(self):
        state = AisState(pi=np.ones(4))
        ais_update_scores(state, [2], [4.0])
        assert np.array_equal(state.pi, [1.0, 1.0, 4.0, 1.0])

    def test_zero_norm_floored(self):
        state = AisState(pi=np.ones(3))
        ais_update_scores(state, [1], [0.0])
        assert state.pi[1] == 1e-12
        assert state.pi.sum() > 0

    def test_nonfinite_norms_floored(self):
        state = AisState(pi=np.ones(4))
        ais_update_scores(state, [0, 1, 2], [np.nan, np.inf, 2.5])
        assert np.array_equal(state.pi, [1e-12, 1e-12, 2.5, 1.0])
        p = ais_probabilities(state, 3)
        assert np.all(np.isfinite(p)) and p.sum() == pytest.approx(1.0)

    def test_huge_norms_keep_the_score_sum_finite(self):
        state = AisState.uniform(10)
        ais_update_scores(state, [0, 1], [1e308, 1e308])
        assert np.isfinite(state.pi.sum())
        p = ais_probabilities(state, 2)
        assert np.all(np.isfinite(p)) and p.sum() == pytest.approx(1.0)
        batch = ais_draw(state, 2, 4, np.random.default_rng(0))
        assert len(batch) == 4

    def test_duplicate_index_keeps_last(self):
        state = AisState(pi=np.ones(3))
        ais_update_scores(state, [2, 2], [5.0, 7.0])
        assert state.pi[2] == 7.0

    def test_mismatched_norms_rejected(self):
        state = AisState(pi=np.ones(3))
        with pytest.raises(ValueError):
            ais_update_scores(state, [0, 1], [1.0])
