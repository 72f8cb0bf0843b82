"""Property tests for the int8 candidate tier (:class:`QuantizedStore`).

Each class pins one property of the quantizer over seeded randomized
embedding clouds (anisotropic scales, shifted centers, degenerate shapes):
the round-trip error bound, calibration monotonicity, degenerate-corpus
behavior, the exact agreement of the production distance kernel with
literal int32 accumulation, and the quantization error bound of code-space
distances against the float reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serving import (QuantizationConfig, QuantizedStore,
                                exact_search,
                                quantized_distances_int32_reference)

SEEDS = range(8)


def random_cloud(seed: int, n: int = 200, dim: int = 16) -> np.ndarray:
    """An anisotropic, off-center embedding cloud (GIN-embedding-shaped)."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-2, 2, size=dim)
    center = rng.normal(size=dim) * scales * 3.0
    return rng.normal(size=(n, dim)) * scales + center


class TestRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_reconstruction_error_bounded_by_half_scale(self, seed):
        emb = random_cloud(seed)
        store = QuantizedStore(emb)
        reconstructed = store.dequantize(store.codes)
        # Calibration covers the corpus range, so no member clips and the
        # rounding error is at most half a quantization step per dimension.
        error = np.abs(reconstructed - emb)
        assert error.max() <= store.scale * 0.5 * (1 + 1e-9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_out_of_range_inputs_clip_to_the_boundary(self, seed):
        emb = random_cloud(seed)
        store = QuantizedStore(emb)
        outlier = emb[0] + 1e6 * (emb.max(axis=0) - emb.min(axis=0) + 1.0)
        codes = store.quantize(outlier)
        assert codes.min() >= -127 and codes.max() <= 127
        assert (codes == 127).any()


class TestCalibration:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scale_grows_monotonically_with_the_corpus_spread(self, seed):
        emb = random_cloud(seed)
        scales = [QuantizedStore(alpha * emb).scale
                  for alpha in (0.5, 1.0, 2.0, 8.0)]
        assert all(a < b for a, b in zip(scales, scales[1:]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scale_is_homogeneous_in_the_corpus(self, seed):
        emb = random_cloud(seed)
        base = QuantizedStore(emb).scale
        scaled = QuantizedStore(3.0 * emb).scale
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_translation_leaves_codes_invariant(self):
        # Zero-points are per-dimension midranges, so a global translation
        # moves the calibration with the corpus and the codes are untouched.
        emb = random_cloud(3)
        shift = np.full(emb.shape[1], 0.5)
        a = QuantizedStore(emb)
        b = QuantizedStore(emb + shift)
        np.testing.assert_array_equal(a.codes, b.codes)
        np.testing.assert_allclose(a.scale, b.scale, rtol=1e-9)


class TestDegenerateCorpora:
    def test_constant_corpus_quantizes_to_zero_codes(self):
        emb = np.full((32, 8), 7.25)
        store = QuantizedStore(emb)
        assert (store.codes == 0).all()
        idx, dist = store.search(emb[:4], emb, 3)
        np.testing.assert_array_equal(idx, [[0, 1, 2]] * 4)
        np.testing.assert_array_equal(dist, 0.0)

    def test_zero_corpus(self):
        emb = np.zeros((16, 4))
        store = QuantizedStore(emb)
        assert (store.codes == 0).all()
        assert store.scale > 0

    def test_single_member_rcs(self):
        emb = np.array([[1.0, -2.0, 3.0]])
        store = QuantizedStore(emb)
        idx, dist = store.search(emb, emb, 5)
        np.testing.assert_array_equal(idx, [[0]])
        np.testing.assert_allclose(dist, 0.0, atol=1e-9)

    def test_empty_store_grows_via_add(self):
        store = QuantizedStore(np.zeros((0, 4)),
                               QuantizationConfig(enabled=True))
        assert len(store) == 0
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(12, 4))
        for row in emb:
            store.add(row)
        assert len(store) == 12


class TestInt32Kernel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_production_kernel_is_exact_int32_accumulation(self, seed):
        """The float32 GEMM over int8 codes must produce the *same integers*
        as literal int32 accumulation — every intermediate fits the 24-bit
        mantissa for any embedding width the encoder produces."""
        emb = random_cloud(seed, n=150)
        store = QuantizedStore(emb)
        queries = random_cloud(seed + 100, n=40, dim=emb.shape[1])
        produced = store.code_distances(queries)
        reference = quantized_distances_int32_reference(
            store.quantize(queries), store.codes)
        assert produced.dtype == np.float32
        np.testing.assert_array_equal(produced,
                                      reference.astype(produced.dtype))

    @pytest.mark.parametrize("dim", [261, 1100])
    def test_wide_embeddings_fall_back_to_a_float64_gemm(self, dim):
        """Past d = 260 the assembled code distance (up to 4·d·127²) no
        longer fits float32's 24-bit mantissa — e.g. opposite-corner codes
        at d = 301 reach odd values above 2²⁴ — so the kernel must switch
        to the float64 GEMM to stay exact."""
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(50, dim))
        store = QuantizedStore(emb)
        produced = store.code_distances(emb[:5])
        reference = quantized_distances_int32_reference(
            store.quantize(emb[:5]), store.codes)
        assert produced.dtype == np.float64
        np.testing.assert_array_equal(produced,
                                      reference.astype(np.float64))

    def test_float32_gemm_exact_at_the_widest_qualifying_dim(self):
        """d = 260 with maximally spread codes is the worst float32 case:
        the distance bound 4·260·127² just fits the mantissa."""
        emb = np.vstack([np.full((2, 260), -1.0), np.full((2, 260), 1.0)])
        store = QuantizedStore(emb)
        produced = store.code_distances(emb)
        reference = quantized_distances_int32_reference(
            store.quantize(emb), store.codes)
        assert produced.dtype == np.float32
        np.testing.assert_array_equal(produced,
                                      reference.astype(np.float32))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_code_distances_match_float_reference_within_quant_bound(
            self, seed):
        """``scale · sqrt(code distance)`` is the dequantized Euclidean
        distance; by the triangle inequality it can differ from the float
        reference by at most the two reconstruction errors, each bounded by
        ``scale/2 · sqrt(d)``."""
        emb = random_cloud(seed)
        store = QuantizedStore(emb)
        queries = emb[:30]
        code_dist = store.scale * np.sqrt(store.code_distances(queries))
        true_dist = np.sqrt(
            np.maximum(((queries[:, None, :] - emb[None, :, :]) ** 2)
                       .sum(axis=2), 0.0))
        bound = store.scale * np.sqrt(emb.shape[1]) * (1 + 1e-9)
        assert np.abs(code_dist - true_dist).max() <= bound


class TestDriftRecalibration:
    def test_in_range_adds_do_not_trigger_recalibration(self):
        emb = random_cloud(0)
        store = QuantizedStore(emb, QuantizationConfig(enabled=True))
        for row in emb[:50]:
            assert not store.add(row)

    def test_gross_outlier_triggers_immediately(self):
        emb = random_cloud(0)
        store = QuantizedStore(emb, QuantizationConfig(enabled=True))
        span = emb.max(axis=0) - emb.min(axis=0)
        assert store.add(emb[0] + 10.0 * span)

    def test_accumulated_clipping_triggers(self):
        """The clip *fraction* accumulates across adds: 50 in-range rows
        dilute the denominator, so mildly clipping rows must stay quiet
        until the 6th of them tips 6/56 past the 10 % threshold."""
        emb = random_cloud(0)
        config = QuantizationConfig(enabled=True, drift_clip_fraction=0.1,
                                    drift_outlier_factor=1e9)
        store = QuantizedStore(emb, config)
        for row in emb[:50]:
            assert not store.add(row)
        lo, hi = emb.min(axis=0), emb.max(axis=0)
        just_outside = hi + 0.02 * (hi - lo)
        verdicts = [store.add(just_outside) for _ in range(6)]
        assert verdicts[:5] == [False] * 5
        assert verdicts[5]

    def test_recalibrate_restores_the_round_trip_bound(self):
        emb = random_cloud(0)
        store = QuantizedStore(emb, QuantizationConfig(enabled=True))
        grown = np.vstack([emb, emb * 4.0])
        store.recalibrate(grown)
        error = np.abs(store.dequantize(store.codes) - grown)
        assert error.max() <= store.scale * 0.5 * (1 + 1e-9)


class TestCandidateSearch:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_search_matches_exact_on_separated_clouds(self, seed):
        """With quantization error far below the neighbor separation the
        candidate pass must reproduce the exact top-k bit-for-bit
        (indices and float-tier distances)."""
        rng = np.random.default_rng(seed)
        centers = rng.normal(size=(40, 8)) * 50.0
        emb = (centers[:, None, :]
               + rng.normal(size=(40, 5, 8))).reshape(200, 8)
        store = QuantizedStore(
            emb, QuantizationConfig(enabled=True, min_size=16, overfetch=8))
        queries = emb[::7] + 0.1
        qi, qd = store.search(queries, emb, 5)
        ei, ed = exact_search(queries, emb, 5)
        np.testing.assert_array_equal(qi, ei)
        # Same Gram identity evaluated over different partial sums: only
        # cancellation noise separates the two distance paths.
        np.testing.assert_allclose(qd, ed, rtol=1e-6, atol=1e-9)

    def test_small_corpora_serve_the_plain_float_scan(self):
        emb = random_cloud(0, n=30)
        store = QuantizedStore(
            emb, QuantizationConfig(enabled=True, min_size=64))
        qi, qd = store.search(emb[:3], emb, 4)
        ei, ed = exact_search(emb[:3], emb, 4)
        np.testing.assert_array_equal(qi, ei)
        np.testing.assert_array_equal(qd, ed)
