import tracemalloc

import numpy as np
import pytest

from conftest import (gmm_log_posteriors_oracle, kmeans_train_oracle,
                      nearest_center_shapes, nearest_centers_oracle,
                      plusplus_seeds_oracle)
from frameseek import (BinaryCenters, GMMModel, KMeansModel,
                       binary_assign_batch, binary_centers_train, gmm_train,
                       kmeans_assign_batch, kmeans_train, pca_fit, pca_project,
                       pq_encode_batch, pq_train)
from frameseek import codebooks
from frameseek.bits import hamming_to_many, pack_bits, unpack_bits
from frameseek.codebooks import (BLOCK_FLOATS, BLOCK_MIN_ROWS, VARIANCE_FLOOR,
                                 gmm_log_posteriors)


# --- k-means -------------------------------------------------------------

def test_kmeans_k1_center_is_mean():
    gen = np.random.default_rng(0)
    samples = gen.normal(size=(50, 6))
    model = kmeans_train(samples, 1, iters=5, seed=0)
    np.testing.assert_allclose(model.centers[0], samples.mean(axis=0), rtol=1e-6)


def test_kmeans_two_separated_clusters():
    samples = np.array([[0.0, 0.0]] * 10 + [[10.0, 10.0]] * 10)
    for seed in (0, 1, 7):
        model = kmeans_train(samples, 2, iters=10, seed=seed)
        got = {tuple(c) for c in model.centers}
        assert got == {(0.0, 0.0), (10.0, 10.0)}


def test_kmeans_objective_within_restart_best():
    # oracle: exhaustive restart-best over 20 seeds on the same data
    gen = np.random.default_rng(42)
    samples = gen.normal(size=(100, 8))
    objectives = [kmeans_train(samples, 4, iters=20, seed=s).objective_trace[-1]
                  for s in range(20)]
    best = min(objectives)
    chosen = kmeans_train(samples, 4, iters=20, seed=0).objective_trace[-1]
    assert chosen <= 1.05 * best


def test_kmeans_objective_non_increasing():
    gen = np.random.default_rng(3)
    samples = gen.normal(size=(300, 5))
    trace = kmeans_train(samples, 8, iters=25, seed=3).objective_trace
    slack = 1e-9 * max(1.0, trace[0])
    assert np.all(np.diff(trace) <= slack)


def test_kmeans_insufficient_samples():
    samples = np.tile([[1.0, 2.0]], (10, 1))  # one distinct row
    with pytest.raises(ValueError, match="insufficient samples"):
        kmeans_train(samples, 2, iters=5, seed=0)


def test_kmeans_assign_exact_center():
    gen = np.random.default_rng(4)
    model = KMeansModel(centers=gen.normal(size=(8, 4)))
    words, residuals = kmeans_assign_batch(model, model.centers[3:4])
    assert words.tolist() == [3]
    np.testing.assert_array_equal(residuals, np.zeros((1, 4)))


def test_kmeans_assign_tie_breaks_low_index():
    centers = np.zeros((6, 2), dtype=np.float32)
    centers[:, 1] = np.arange(6) * 100.0  # keep rows distinct and far away
    centers[1] = (0.0, 0.0)
    centers[4] = (2.0, 0.0)
    centers[0] = (50.0, 50.0)
    model = KMeansModel(centers=centers)
    words, _ = kmeans_assign_batch(model, np.array([[1.0, 0.0]]))
    assert words.tolist() == [1]


def test_kmeans_assign_matches_bruteforce():
    gen = np.random.default_rng(5)
    model = KMeansModel(centers=gen.normal(size=(10, 7)))
    vectors = gen.normal(size=(50, 7))
    words, residuals = kmeans_assign_batch(model, vectors)
    for v, word, residual in zip(vectors, words, residuals):
        dists = [np.sum((v - c) ** 2) for c in model.centers.astype(np.float64)]
        assert word == int(np.argmin(dists))
        np.testing.assert_allclose(residual, v - model.centers[word].astype(np.float64))


def test_kmeans_assign_dimension_mismatch():
    model = KMeansModel(centers=np.eye(3, dtype=np.float32))
    with pytest.raises(ValueError, match="dimension mismatch"):
        kmeans_assign_batch(model, np.zeros((1, 5)))


def kmeans_inputs(case):
    gen = np.random.default_rng(31)
    if case == "random":
        return gen.normal(size=(400, 16))
    if case == "duplicates":  # zero distances to the seed and between rows
        return gen.normal(size=(40, 8))[gen.integers(0, 40, size=400)]
    if case == "offset":  # |x|^2 + |y|^2 - 2 x.y cancels to nearly nothing
        return 1e6 + gen.normal(size=(300, 12))
    if case == "column_slice":  # as pq_train passes each subspace
        return gen.normal(size=(300, 24))[:, 8:16]
    distinct = gen.normal(size=(7, 5))  # "k_distinct": exactly k distinct rows
    return distinct[np.arange(210) % 7]


@pytest.mark.parametrize("case", ["random", "duplicates", "offset", "column_slice",
                                  "k_distinct"])
@pytest.mark.parametrize("seed", [0, 5])
def test_kmeans_train_equals_add_at_oracle(case, seed):
    samples = kmeans_inputs(case)
    k = 7 if case == "k_distinct" else 12
    model = kmeans_train(samples, k, iters=6, seed=seed)
    centers, trace = kmeans_train_oracle(samples, k, iters=6, seed=seed)
    np.testing.assert_array_equal(model.centers, centers)
    np.testing.assert_array_equal(model.objective_trace, trace)


def test_model_terms_come_from_read_only_copies():
    gen = np.random.default_rng(60)
    centers = gen.normal(size=(5, 3)).astype(np.float32)
    model = KMeansModel(centers=centers)
    centers[0] = 0.0  # the caller's array is not the model's
    f64, sq = model.center_terms
    assert model.center_terms[0] is f64
    np.testing.assert_array_equal(f64, model.centers.astype(np.float64))
    np.testing.assert_array_equal(sq, (f64 * f64).sum(axis=1))
    pca = pca_fit(gen.normal(size=(40, 6)), 2)
    basis, mean = pca.projection_terms
    np.testing.assert_array_equal(basis, pca.basis.astype(np.float64))
    np.testing.assert_array_equal(mean, pca.mean.astype(np.float64))
    for array in (model.centers, f64, pca.basis, pca.mean, basis, mean):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def nearest_center_inputs(case, d, k):
    """(rows, centers) for one kernel case; centers are float32 values in
    float64, as models hold them."""
    gen = np.random.default_rng(1000 * d + k)
    centers = gen.normal(size=(k, d)).astype(np.float32).astype(np.float64)
    cap = max(BLOCK_MIN_ROWS, BLOCK_FLOATS // k)
    if case == "random":
        return gen.normal(size=(2 * cap + 1, d)), centers
    if case == "one_row":
        return gen.normal(size=(1, d)), centers
    if case == "at_centers":
        # |x|^2 + |c|^2 - 2 x.c at a row's own center rounds to either side of
        # 0; with twins one ulp apart both can round to 0 or below, so the
        # clipped argmin is the first of them, not the more negative
        half = k // 2
        centers[half:2 * half] = centers[:half]
        centers[half:2 * half, 0] = np.nextafter(centers[:half, 0], np.inf)
        rows = centers[np.arange(3 * cap // 2) % k]
        return rows + 1e-9 * gen.normal(size=rows.shape) * (np.arange(len(rows)) % 2)[:, None], centers
    # "equal_centers": every center has a twin, and rows on or near them tie
    centers[k // 2:] = centers[: k - k // 2]
    rows = centers[gen.integers(0, k, size=cap + 1)]
    return rows + 0.5 * gen.normal(size=rows.shape) * (np.arange(cap + 1) % 2)[:, None], centers


@pytest.mark.parametrize("case", ["random", "one_row", "at_centers", "equal_centers"])
@pytest.mark.parametrize("d,k", nearest_center_shapes())
def test_nearest_centers_equal_clipped_oracle(case, d, k):
    rows, centers = nearest_center_inputs(case, d, k)
    center_sq = np.einsum("ij,ij->i", centers, centers)
    want_assign, want_nearest = nearest_centers_oracle(rows, centers)
    got_assign, got_nearest = codebooks._nearest_centers(rows, centers, center_sq)
    np.testing.assert_array_equal(got_assign, want_assign)
    np.testing.assert_array_equal(got_nearest, want_nearest)
    if case == "at_centers":  # the case reaches the fix-up of negative minima
        raw = (np.einsum("ij,ij->i", rows, rows)[:, None] + center_sq) - 2.0 * (rows @ centers.T)
        assert np.any(raw.min(axis=1) < 0.0)
    if case == "equal_centers":  # ties go to the lower twin
        assert np.all(got_assign < k // 2 + k % 2)


@pytest.mark.parametrize("d,k", nearest_center_shapes())
def test_nearest_centers_at_every_block_edge(d, k):
    cap = max(BLOCK_MIN_ROWS, BLOCK_FLOATS // k)
    rows, centers = nearest_center_inputs("random", d, k)
    center_sq = np.einsum("ij,ij->i", centers, centers)
    for n in (cap - 1, cap, cap + 1, 2 * cap, 2 * cap + 1):
        spans = codebooks._row_spans(n, k)
        assert len(spans) == -(-n // cap) and spans[-1][1] == n
        assert min(hi - lo for lo, hi in spans) >= min(n, cap) // 2
        for got, want in zip(codebooks._nearest_centers(rows[:n], centers, center_sq),
                             nearest_centers_oracle(rows[:n], centers)):
            np.testing.assert_array_equal(got, want)


def test_kmeans_screen_lowers_closest_like_exact_distances(monkeypatch):
    """The screened update of the nearest-seed distances equals np.minimum
    with exact distances, even where the exact distance lies one ulp below
    the current value and the expansion identity errs by far more."""
    callbacks, seeds = [], codebooks._plusplus_seeds

    def spy(n, k, rng, lower_closest):
        callbacks.append(lower_closest)
        return seeds(n, k, rng, lower_closest)

    monkeypatch.setattr(codebooks, "_plusplus_seeds", spy)
    samples = 1e6 + np.random.default_rng(32).normal(size=(300, 12))
    kmeans_train(samples, 4, iters=1, seed=0)
    for i in (0, 17, 299):
        diff = samples - samples[i]
        exact = np.einsum("ij,ij->i", diff, diff)
        for start in (np.nextafter(exact, np.inf), exact, np.nextafter(exact, 0.0),
                      np.full(300, np.inf)):
            closest = start.copy()
            callbacks[0](i, closest)
            np.testing.assert_array_equal(closest, np.minimum(start, exact))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kmeans_non_finite_samples_rejected(bad):
    samples = np.random.default_rng(8).normal(size=(30, 4))
    samples[11, 2] = bad
    with pytest.raises(ValueError):
        kmeans_train(samples, 4, iters=2, seed=0)


def test_kmeans_deterministic_given_seed():
    gen = np.random.default_rng(6)
    samples = gen.normal(size=(120, 4))
    a = kmeans_train(samples, 5, iters=10, seed=9)
    b = kmeans_train(samples, 5, iters=10, seed=9)
    np.testing.assert_array_equal(a.centers, b.centers)


# --- product quantizer -----------------------------------------------------

def test_pq_m1_degenerates_to_single_kmeans():
    gen = np.random.default_rng(7)
    residuals = gen.normal(size=(200, 6))
    model = pq_train(residuals, m=1, n_centers=4, iters=10, seed=7)
    assert model.m == 1 and model.sub_dim == 6
    reference = kmeans_train(residuals, 4, iters=10, seed=7)
    np.testing.assert_array_equal(model.sub_models[0].centers, reference.centers)


def test_pq_max_dist_two_centers():
    # per-subspace samples sit at exactly two points distance 2 apart
    samples = np.zeros((40, 2))
    samples[20:, :] = 2.0  # m=2 -> 1-d subspaces with values {0, 2}
    model = pq_train(samples, m=2, n_centers=2, iters=10, seed=0)
    np.testing.assert_array_equal(model.max_dist, [2.0, 2.0])


def test_pq_shapes_128d():
    gen = np.random.default_rng(8)
    model = pq_train(gen.normal(size=(600, 128)), m=8, n_centers=16, iters=5, seed=8)
    assert model.m == 8 and model.sub_dim == 16


def test_pq_m_must_divide_dimension():
    with pytest.raises(ValueError, match="does not divide"):
        pq_train(np.zeros((10, 10)), m=3, n_centers=2)


def test_pq_encode_exact_subcenters(small_pq):
    target = np.concatenate([sub.centers[5].astype(np.float64)
                             for sub in small_pq.sub_models])
    np.testing.assert_array_equal(pq_encode_batch(small_pq, target[None]), [[5, 5, 5, 5]])


def test_pq_encode_zero_residual_with_zero_center():
    gen = np.random.default_rng(9)
    samples = np.vstack([np.zeros((30, 8)), gen.normal(5.0, 1.0, size=(170, 8))])
    model = pq_train(samples, m=2, n_centers=4, iters=10, seed=9)
    codes = pq_encode_batch(model, np.zeros((1, 8)))[0]
    for j, sub in enumerate(model.sub_models):
        norms = np.einsum("ij,ij->i", sub.centers, sub.centers)
        assert codes[j] == int(np.argmin(norms))


def test_pq_encode_matches_bruteforce(small_pq):
    gen = np.random.default_rng(10)
    residuals = gen.normal(size=(50, 32))
    for r, codes in zip(residuals, pq_encode_batch(small_pq, residuals)):
        for j, sub in enumerate(small_pq.sub_models):
            slice_ = r[j * 8:(j + 1) * 8]
            dists = [np.sum((slice_ - c) ** 2) for c in sub.centers.astype(np.float64)]
            assert codes[j] == int(np.argmin(dists))


def test_pq_encode_dimension_mismatch(small_pq):
    with pytest.raises(ValueError, match="dimension mismatch"):
        pq_encode_batch(small_pq, np.zeros((1, 16)))


def test_pq_max_dist_bounds_all_pairs(small_pq):
    for j, sub in enumerate(small_pq.sub_models):
        centers = sub.centers.astype(np.float64)
        pair = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        assert pair.max() <= small_pq.max_dist[j]
        assert small_pq.max_dist[j] > 0


# --- PCA -------------------------------------------------------------------

def test_pca_line_in_3d_keeps_all_variance():
    gen = np.random.default_rng(11)
    t = gen.normal(size=(100, 1))
    samples = t @ np.array([[1.0, 2.0, -1.0]]) + np.array([3.0, 0.0, 1.0])
    model = pca_fit(samples + gen.normal(0, 1e-9, samples.shape), d_out=1)
    projected = pca_project(model, samples)
    total = samples.var(axis=0, ddof=1).sum()
    assert projected.var(ddof=1) == pytest.approx(total, abs=1e-6 * total)


def test_pca_projects_mean_to_zero():
    gen = np.random.default_rng(12)
    samples = gen.normal(size=(60, 5))
    model = pca_fit(samples, d_out=3)
    np.testing.assert_allclose(pca_project(model, model.mean.astype(np.float64)),
                               np.zeros(3), atol=1e-6)


def test_pca_projected_covariance_diagonal():
    gen = np.random.default_rng(13)
    samples = gen.normal(size=(500, 6)) @ gen.normal(size=(6, 6))
    model = pca_fit(samples, d_out=4)
    projected = pca_project(model, samples)
    cov = np.cov(projected.T)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 1e-6 * np.diag(cov).max()
    # descending eigenvalue order
    assert np.all(np.diff(np.diag(cov)) <= 1e-9)


def test_pca_insufficient_rank():
    gen = np.random.default_rng(14)
    t = gen.normal(size=(50, 2))
    samples = t @ gen.normal(size=(2, 5))  # rank 2 in 5-d
    with pytest.raises(ValueError, match="insufficient rank"):
        pca_fit(samples, d_out=3)


def test_pca_needs_more_samples_than_dims():
    with pytest.raises(ValueError, match="more samples"):
        pca_fit(np.eye(4), d_out=4)


def test_pca_basis_orthonormal():
    gen = np.random.default_rng(15)
    model = pca_fit(gen.normal(size=(200, 8)), d_out=5)
    gram = model.basis.astype(np.float64) @ model.basis.astype(np.float64).T
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-6)


# --- GMM ---------------------------------------------------------------------

def test_gmm_single_component_mle():
    gen = np.random.default_rng(16)
    samples = gen.normal(2.0, 3.0, size=(400, 3))
    model = gmm_train(samples, 1, iters=10, seed=16)
    np.testing.assert_allclose(model.weights, [1.0])
    np.testing.assert_allclose(model.means[0], samples.mean(axis=0), atol=1e-8)
    np.testing.assert_allclose(model.variances[0], samples.var(axis=0), atol=1e-6)


def test_gmm_two_blobs_balanced_weights():
    gen = np.random.default_rng(17)
    samples = np.vstack([gen.normal(-5.0, 1.0, size=(200, 4)),
                         gen.normal(5.0, 1.0, size=(200, 4))])
    model = gmm_train(samples, 2, iters=30, seed=17)
    np.testing.assert_allclose(np.sort(model.weights), [0.5, 0.5], atol=0.05)


def test_gmm_loglik_non_decreasing():
    gen = np.random.default_rng(18)
    samples = gen.normal(size=(300, 4)) @ gen.normal(size=(4, 4))
    model = gmm_train(samples, 3, iters=20, seed=18)
    assert np.all(np.diff(model.log_likelihood_trace) >= -1e-8)


def test_gmm_weights_sum_to_one_tightly():
    gen = np.random.default_rng(19)
    model = gmm_train(gen.normal(size=(200, 3)), 4, iters=15, seed=19)
    assert abs(model.weights.sum() - 1.0) <= 1e-9
    assert np.all(model.variances >= VARIANCE_FLOOR * (1 - 1e-12))


def test_gmm_posteriors_rows_sum_to_one():
    gen = np.random.default_rng(20)
    model = gmm_train(gen.normal(size=(200, 3)), 3, iters=10, seed=20)
    log_gamma, _ = gmm_log_posteriors(model, gen.normal(size=(50, 3)))
    np.testing.assert_allclose(np.exp(log_gamma).sum(axis=1), np.ones(50), atol=1e-12)


def random_gmm(gen, k, d):
    """Random mixture whose first component sits at the variance floor in
    every dimension and whose second does in half of them."""
    weights = gen.uniform(0.1, 1.0, size=k)
    variances = gen.uniform(0.05, 4.0, size=(k, d))
    variances[0] = VARIANCE_FLOOR
    if k > 1:
        variances[1, : d // 2 + 1] = VARIANCE_FLOOR
    return GMMModel(weights=weights / weights.sum(), means=gen.normal(0, 2, size=(k, d)),
                    variances=variances)


@pytest.mark.parametrize("n", [1, 7, 2051])
@pytest.mark.parametrize("k,d", [(1, 1), (4, 16), (8, 3), (24, 40)])
def test_gmm_log_posteriors_equal_broadcast_oracle(monkeypatch, n, k, d):
    # blocks of max(128, 1024 // k) rows, so 2051 rows take 3 to 17 blocks
    monkeypatch.setattr(codebooks, "BLOCK_FLOATS", 1024)
    gen = np.random.default_rng(1000 * n + 10 * k + d)
    model = random_gmm(gen, k, d)
    x = gen.normal(0, 2, size=(n, d))
    x[0] = model.means[0]  # a sample on a floor-variance component's mean
    log_gamma, log_lik = gmm_log_posteriors(model, x)
    want_gamma, want_lik = gmm_log_posteriors_oracle(model, x)
    assert log_gamma.shape == (n, k) and log_lik.shape == (n,)
    # log-posteriors of far-off floor components reach 1e8, where one ulp is
    # above 1e-9, so numpy's default rtol stays on for the log values
    np.testing.assert_allclose(log_gamma, want_gamma, atol=1e-9)
    np.testing.assert_allclose(log_lik, want_lik, atol=1e-9)
    np.testing.assert_allclose(np.exp(log_gamma), np.exp(want_gamma), rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [1, 16, 1029])
def test_gmm_log_posteriors_of_a_stack_equal_each_frame_alone(monkeypatch, n):
    monkeypatch.setattr(codebooks, "BLOCK_FLOATS", 1024)  # 1029 rows take 9 blocks
    gen = np.random.default_rng(2000 + n)
    model = random_gmm(gen, 8, 12)
    frames = gen.normal(0, 2, size=(3, n, 12))
    log_gamma, log_lik = gmm_log_posteriors(model, frames)
    assert log_gamma.shape == (3, n, 8) and log_lik.shape == (3, n)
    for frame, got_gamma, got_lik in zip(frames, log_gamma, log_lik):
        want_gamma, want_lik = gmm_log_posteriors(model, frame)
        np.testing.assert_array_equal(got_gamma, want_gamma)
        np.testing.assert_array_equal(got_lik, want_lik)


def test_gmm_log_posteriors_memory_bounded():
    gen = np.random.default_rng(26)
    model = random_gmm(gen, 64, 64)
    x = gen.normal(size=(20_000, 64))
    tracemalloc.start()
    try:
        gmm_log_posteriors(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an (n, k, d) float64 array alone would be 20,000 * 64 * 64 * 8 B = 655 MB
    assert peak < 64 * 2 ** 20


# --- binary centers ------------------------------------------------------------

def test_binary_k1_is_majority():
    bits = np.array([[1, 1, 0, 0, 1, 0, 1, 1],
                     [1, 0, 0, 0, 1, 0, 0, 1],
                     [0, 1, 1, 0, 1, 1, 1, 0]], dtype=np.uint8)
    model = binary_centers_train(pack_bits(bits), 8, k=1, iters=5, seed=0)
    # per-bit majority with ties -> 0
    expected = np.array([1, 1, 0, 0, 1, 0, 1, 1], dtype=np.uint8)
    np.testing.assert_array_equal(unpack_bits(model.centers[0], 8), expected)


def test_binary_identical_groups_recovered():
    gen = np.random.default_rng(21)
    group_codes = gen.integers(0, 2, size=(4, 32)).astype(np.uint8)
    bits = np.repeat(group_codes, 25, axis=0)
    model = binary_centers_train(pack_bits(bits), 32, k=4, iters=10, seed=21)
    got = {bytes(c) for c in model.centers}
    want = {bytes(c) for c in pack_bits(group_codes)}
    assert got == want


def test_binary_objective_within_restart_best():
    gen = np.random.default_rng(22)
    codes = pack_bits(gen.integers(0, 2, size=(200, 64)).astype(np.uint8))
    objectives = [binary_centers_train(codes, 64, k=8, iters=20, seed=s).objective_trace[-1]
                  for s in range(20)]
    chosen = binary_centers_train(codes, 64, k=8, iters=20, seed=0).objective_trace[-1]
    assert chosen <= 1.1 * min(objectives)


def test_binary_objective_non_increasing():
    gen = np.random.default_rng(23)
    codes = pack_bits(gen.integers(0, 2, size=(150, 48)).astype(np.uint8))
    model = binary_centers_train(codes, 48, k=6, iters=15, seed=23)
    assert np.all(np.diff(model.objective_trace) <= 0)


def test_binary_insufficient_distinct_codes():
    codes = pack_bits(np.tile([[1, 0, 1, 0, 1, 0, 1, 0]], (20, 1)).astype(np.uint8))
    with pytest.raises(ValueError, match="insufficient samples"):
        binary_centers_train(codes, 8, k=3, iters=5, seed=0)


def test_binary_no_codes_is_insufficient():
    with pytest.raises(ValueError, match="insufficient samples"):
        binary_centers_train(np.zeros((0, 2), dtype=np.uint8), 12, k=2, iters=5, seed=0)


def test_binary_centers_distinct_even_on_tiny_inputs():
    gen = np.random.default_rng(24)
    bits = np.vstack([np.zeros((40, 16)), np.tile(gen.integers(0, 2, size=(4, 16)), (2, 1))])
    model = binary_centers_train(pack_bits(bits.astype(np.uint8)), 16, k=4, iters=10, seed=24)
    assert np.unique(model.centers, axis=0).shape[0] == model.k


def test_binary_assign_is_exhaustive_argmin():
    gen = np.random.default_rng(25)
    centers = BinaryCenters(centers=pack_bits(gen.integers(0, 2, size=(8, 64)).astype(np.uint8)),
                            n_bits=64)
    codes = pack_bits(gen.integers(0, 2, size=(30, 64)).astype(np.uint8))
    for code, cluster in zip(codes, binary_assign_batch(centers, codes)):
        dists = hamming_to_many(code, centers.centers)
        assert cluster == int(np.argmin(dists))


def test_binary_centers_reject_pad_bits():
    centers = pack_bits(np.eye(3, 12, dtype=np.uint8))
    BinaryCenters(centers=centers, n_bits=12)
    dirty = centers.copy()
    dirty[2, 1] |= 0x80  # bit 15 of a 12-bit center
    with pytest.raises(ValueError, match="bits past n_bits = 12"):
        BinaryCenters(centers=dirty, n_bits=12)


def no_unique(*args, **kwargs):
    raise AssertionError("np.unique called")


def test_binary_training_unpacks_once_and_never_sorts_rows(monkeypatch):
    gen = np.random.default_rng(24)
    bits = np.vstack([np.zeros((40, 16)), np.tile(gen.integers(0, 2, size=(4, 16)), (2, 1))])
    want = binary_centers_train(pack_bits(bits.astype(np.uint8)), 16, k=4, iters=10, seed=24)
    calls = []

    def counted_unpack(*args):
        calls.append(args)
        return unpack_bits(*args)

    monkeypatch.setattr(codebooks, "unpack_bits", counted_unpack)
    monkeypatch.setattr(np, "unique", no_unique)
    got = binary_centers_train(pack_bits(bits.astype(np.uint8)), 16, k=4, iters=10, seed=24)
    assert len(calls) == 1
    np.testing.assert_array_equal(got.centers, want.centers)


def test_colliding_centers_take_the_farthest_unused_codes(monkeypatch):
    monkeypatch.setattr(np, "unique", no_unique)
    codes = pack_bits(np.array([[0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 0, 1]],
                               dtype=np.uint8))
    centers = codes[[0, 0, 3, 3]]
    # nearest-center distances of the codes are 0, 3, 2 and 0
    np.testing.assert_array_equal(codebooks._dedupe_centers(centers, codes), codes[[0, 1, 3, 2]])


def test_last_majority_step_can_repeat_a_center(monkeypatch):
    """Seeds 0000000 and 1111111 split these codes into {0000000 and the
    four codes with three of the first four bits set} and {1111111,
    1111000}. Both clusters' per-bit majority is 1111000 (3 of 5 codes set
    each of the first four bits; 1 of 2 sets each of the last three, a tie),
    so a single iteration ends on two equal centers, and the repeat takes
    the unused code farthest from every center, 0000000."""
    bits = np.array([[0] * 7, [1] * 7, [1, 1, 1, 0, 0, 0, 0], [1, 1, 0, 1, 0, 0, 0],
                     [1, 0, 1, 1, 0, 0, 0], [0, 1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 0, 0, 0]],
                    dtype=np.uint8)
    before_dedupe, dedupe = [], codebooks._dedupe_centers

    def spy(centers, codes):
        before_dedupe.append(unpack_bits(centers, 7))
        return dedupe(centers, codes)

    monkeypatch.setattr(codebooks, "_dedupe_centers", spy)
    model = binary_centers_train(pack_bits(bits), 7, k=2, iters=1, seed=38)  # draws those seeds
    np.testing.assert_array_equal(before_dedupe[0], bits[[6, 6]])
    np.testing.assert_array_equal(unpack_bits(model.centers, 7), bits[[6, 0]])


def float64_seeds(bits):
    """Stand-in for `_plusplus_seeds` that seeds with the float64 oracle on
    the unpacked bits and returns the first row equal to each seed."""
    def seeds(n, k, rng, lower_closest):
        samples = bits.astype(np.float64)
        rows = plusplus_seeds_oracle(samples, k, rng)
        return np.array([np.flatnonzero((samples == row).all(axis=1))[0] for row in rows])
    return seeds


@pytest.mark.parametrize("n_bits", [8, 45, 256])
@pytest.mark.parametrize("seed", [0, 1, 27])
def test_binary_hamming_seeding_equals_float64_oracle(monkeypatch, n_bits, seed):
    gen = np.random.default_rng(seed + n_bits)
    bits = gen.integers(0, 2, size=(120, n_bits)).astype(np.uint8)
    bits[60:80] = bits[:20]  # repeated codes give zero-distance rows
    codes = pack_bits(bits)
    if n_bits % 8:  # set the pad bits, which training must ignore
        codes[:, -1] |= gen.integers(0, 256, size=120, dtype=np.uint8) & ((0xFF << n_bits % 8) & 0xFF)
    got = binary_centers_train(codes, n_bits, k=9, iters=6, seed=seed)
    monkeypatch.setattr(codebooks, "_plusplus_seeds", float64_seeds(bits))
    want = binary_centers_train(codes, n_bits, k=9, iters=6, seed=seed)
    np.testing.assert_array_equal(got.centers, want.centers)
    np.testing.assert_array_equal(got.objective_trace, want.objective_trace)


@pytest.mark.parametrize("space", ["hamming", "euclidean"])
def test_plusplus_seeds_draw_like_float64_oracle(space):
    gen = np.random.default_rng(28)
    if space == "hamming":
        bits = gen.integers(0, 2, size=(200, 37)).astype(np.uint8)
        packed, samples = pack_bits(bits), bits.astype(np.float64)

        def lower_closest(i, closest):
            np.minimum(closest, hamming_to_many(packed[i], packed), out=closest)
    else:
        samples = gen.normal(size=(200, 5))

        def lower_closest(i, closest):
            diff = samples - samples[i]
            np.minimum(closest, np.einsum("ij,ij->i", diff, diff), out=closest)
    rng_seeds, rng_oracle = np.random.default_rng(5), np.random.default_rng(5)
    chosen = codebooks._plusplus_seeds(200, 12, rng_seeds, lower_closest)
    np.testing.assert_array_equal(samples[chosen], plusplus_seeds_oracle(samples, 12, rng_oracle))
    assert rng_seeds.bit_generator.state == rng_oracle.bit_generator.state
