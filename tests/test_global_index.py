import numpy as np
import pytest

from conftest import build_global_index_oracle, fisher_vector_oracle
from frameseek import (BinaryCenters, GMMModel, GlobalSignature, binarize,
                       build_global_index, fisher_vector, gmm_train,
                       make_signature)
from frameseek.bits import hamming_to_many, pack_bits
from frameseek.storage import write_global_index


def naive_fisher(features, gmm):
    """Two-loop reference: per-sample responsibilities from raw densities."""
    n, d = features.shape
    k = gmm.n_components
    out = np.zeros(k * d)
    for i in range(n):
        probs = np.empty(k)
        for j in range(k):
            var = gmm.variances[j]
            norm = np.prod(1.0 / np.sqrt(2 * np.pi * var))
            probs[j] = gmm.weights[j] * norm * np.exp(
                -0.5 * np.sum((features[i] - gmm.means[j]) ** 2 / var))
        gamma = probs / probs.sum()
        for j in range(k):
            out[j * d:(j + 1) * d] += gamma[j] * (features[i] - gmm.means[j]) / np.sqrt(gmm.variances[j])
    for j in range(k):
        out[j * d:(j + 1) * d] /= n * np.sqrt(gmm.weights[j])
    return out


@pytest.fixture(scope="module")
def toy_gmm():
    gen = np.random.default_rng(90)
    samples = np.vstack([gen.normal(-2, 1, size=(150, 6)),
                         gen.normal(2, 1, size=(150, 6)),
                         gen.normal((4, -4, 0, 1, -1, 2), 0.8, size=(150, 6))])
    return gmm_train(samples, 3, iters=25, seed=90)


# --- fisher vector ----------------------------------------------------------

def test_fisher_centered_data_gives_zero():
    model = GMMModel(weights=[1.0], means=[[1.0, -2.0, 0.5]],
                     variances=[[0.5, 1.0, 2.0]])
    features = np.tile([1.0, -2.0, 0.5], (7, 1))
    np.testing.assert_allclose(fisher_vector(features, model), np.zeros(3), atol=1e-12)


def test_fisher_single_feature_closed_form():
    model = GMMModel(weights=[1.0], means=[[0.5, 1.5]], variances=[[4.0, 0.25]])
    x = np.array([2.5, 1.0])
    expected = (x - [0.5, 1.5]) / np.sqrt([4.0, 0.25])  # gamma=1, n=1, w=1
    np.testing.assert_allclose(fisher_vector(x[None, :], model), expected, atol=1e-12)


def test_fisher_matches_naive_loop(toy_gmm):
    gen = np.random.default_rng(91)
    for _ in range(10):
        features = gen.normal(0, 2, size=(int(gen.integers(1, 30)), 6))
        fast = fisher_vector(features, toy_gmm)
        slow = naive_fisher(features, toy_gmm)
        np.testing.assert_allclose(fast, slow, atol=1e-6, rtol=1e-6)


def test_fisher_permutation_invariant(toy_gmm):
    gen = np.random.default_rng(92)
    features = gen.normal(size=(25, 6))
    base = fisher_vector(features, toy_gmm)
    for _ in range(5):
        perm = gen.permutation(25)
        np.testing.assert_allclose(fisher_vector(features[perm], toy_gmm), base, atol=1e-9)


def test_fisher_one_frame_equals_per_frame_oracle(toy_gmm):
    gen = np.random.default_rng(93)
    for n in (1, 2, 17, 40):
        features = gen.normal(0, 2, size=(n, 6))
        np.testing.assert_array_equal(fisher_vector(features, toy_gmm),
                                      fisher_vector_oracle(features, toy_gmm))


def test_fisher_of_frames_equals_each_frame_pooled_alone(toy_gmm):
    gen = np.random.default_rng(94)
    for n in (1, 5, 12):
        frames = gen.normal(0, 2, size=(7, n, 6))
        want = np.stack([fisher_vector_oracle(frame, toy_gmm) for frame in frames])
        np.testing.assert_array_equal(fisher_vector(frames, toy_gmm), want)


def test_fisher_empty_frame_errors(toy_gmm):
    with pytest.raises(ValueError, match="empty frame"):
        fisher_vector(np.empty((0, 6)), toy_gmm)
    with pytest.raises(ValueError, match="empty frame"):
        fisher_vector(np.zeros((3, 0, 6)), toy_gmm)


def test_fisher_dimension_mismatch(toy_gmm):
    with pytest.raises(ValueError, match="dimension"):
        fisher_vector(np.zeros((3, 4)), toy_gmm)


# --- binarization ------------------------------------------------------------

def test_binarize_zero_vector_all_zero_bits():
    np.testing.assert_array_equal(binarize(np.zeros(8)), np.zeros(8, dtype=np.uint8))


def test_binarize_sign_pattern():
    np.testing.assert_array_equal(binarize(np.array([-1.0, 2.0, 0.0, 3.0])),
                                  [0, 1, 0, 1])


def test_binarize_matches_elementwise_oracle():
    gen = np.random.default_rng(93)
    for _ in range(20):
        v = gen.normal(size=50)
        v[gen.integers(0, 50, size=5)] = 0.0
        expected = np.array([1 if x > 0 else 0 for x in v], dtype=np.uint8)
        np.testing.assert_array_equal(binarize(v), expected)


def test_binarize_invariant_under_positive_scaling():
    gen = np.random.default_rng(94)
    v = gen.normal(size=100)
    base = binarize(v)
    for alpha in (0.1, 0.5, 2.0, 10.0):
        np.testing.assert_array_equal(binarize(alpha * v), base)


# --- index construction ----------------------------------------------------------

def make_centers(gen, k=16, n_bits=64):
    bits = gen.integers(0, 2, size=(k, n_bits)).astype(np.uint8)
    return BinaryCenters(centers=pack_bits(bits), n_bits=n_bits)


def packed(bits):
    return pack_bits(np.atleast_2d(np.asarray(bits, dtype=np.uint8)))


def test_signature_equal_to_center_lands_there():
    gen = np.random.default_rng(95)
    centers = make_centers(gen)
    index = build_global_index([0], [0], centers.centers[12:13], centers)
    assert index.clusters[12]["frame"].tolist() == [0]


def test_single_signature_single_center():
    gen = np.random.default_rng(96)
    bits = gen.integers(0, 2, size=32).astype(np.uint8)
    centers = BinaryCenters(centers=pack_bits(bits[None, :]), n_bits=32)
    index = build_global_index([5], [2], packed(bits ^ 1), centers)
    assert index.clusters[0]["frame"].tolist() == [5]


def test_assignments_match_exhaustive_argmin():
    gen = np.random.default_rng(97)
    centers = make_centers(gen)
    codes = packed(gen.integers(0, 2, size=(80, 64)))
    index = build_global_index(np.arange(80), np.arange(80) % 4, codes, centers)
    assert sorted(f for c in index.clusters for f in c["frame"].tolist()) == list(range(80))
    for j, cluster in enumerate(index.clusters):
        for frame, code in zip(cluster["frame"], cluster["codes"]):
            np.testing.assert_array_equal(code, codes[frame])
            assert j == int(np.argmin(hamming_to_many(code, centers.centers)))


def test_bit_length_mismatch_rejected():
    gen = np.random.default_rng(98)
    centers = make_centers(gen, n_bits=64)
    with pytest.raises(ValueError, match="bit-length mismatch"):
        build_global_index([0, 1], [0, 0], packed(gen.integers(0, 2, size=(2, 32))), centers)


def test_columns_of_unequal_length_rejected():
    gen = np.random.default_rng(98)
    centers = make_centers(gen, n_bits=64)
    with pytest.raises(ValueError, match="frame ids"):
        build_global_index([0], [0, 0], packed(gen.integers(0, 2, size=(2, 64))), centers)


def test_cluster_lists_sorted_by_frame():
    gen = np.random.default_rng(99)
    centers = make_centers(gen, k=2, n_bits=32)
    index = build_global_index([9, 3, 7, 1, 5], [0] * 5,
                               packed(gen.integers(0, 2, size=(5, 32))), centers)
    for cluster in index.clusters:
        assert np.all(np.diff(cluster["frame"].astype(np.int64)) >= 0)


def oracle_corpus(seed, n=120, n_bits=45, k=6):
    """Signatures for comparisons against the conftest oracles.

    Several frames per video; unsorted, non-contiguous frame ids with one
    repeat; duplicated codes in different videos (tied scores); a code
    equidistant from centers 1 and 2 (a tied assignment); video 99 holding
    only the all-zero code; and no code near the last center (an empty
    cluster). 45 bits leave three pad bits in the last byte.
    """
    gen = np.random.default_rng(seed)
    center_bits = gen.integers(0, 2, size=(k, n_bits)).astype(np.uint8)
    center_bits[2] = center_bits[1]
    center_bits[2, :4] ^= 1
    center_bits[-1] = 1
    bits = center_bits[gen.integers(0, k - 1, size=n)]
    bits ^= (gen.random((n, n_bits)) < 0.05).astype(np.uint8)
    bits[1] = center_bits[1]
    bits[1, :2] ^= 1
    bits[2:6] = bits[6:10]
    bits[-1] = 0
    frames = gen.choice(10 * n, size=n, replace=False)
    frames[3] = frames[4]
    videos = gen.integers(0, 8, size=n)
    videos[-1] = 99
    centers = BinaryCenters(centers=pack_bits(center_bits), n_bits=n_bits)
    signatures = [GlobalSignature(frame_id=int(f), video_id=int(v), bits=code, n_bits=n_bits)
                  for f, v, code in zip(frames, videos, pack_bits(bits))]
    return signatures, centers


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_build_equals_per_signature_oracle(seed, tmp_path):
    signatures, centers = oracle_corpus(seed)
    index = build_global_index([s.frame_id for s in signatures],
                               [s.video_id for s in signatures],
                               np.stack([s.bits for s in signatures]), centers,
                               n_gmm_components=5)
    want = build_global_index_oracle(signatures, centers, n_gmm_components=5)
    tie = hamming_to_many(signatures[1].bits, centers.centers)
    assert tie[1] == tie[2] == tie.min()
    sizes = index.cluster_sizes()
    assert sizes[-1] == 0 and sizes.sum() == len(signatures)
    np.testing.assert_array_equal(sizes, want.cluster_sizes())
    for got_cluster, want_cluster in zip(index.clusters, want.clusters):
        for key in ("frame", "video", "codes"):
            np.testing.assert_array_equal(got_cluster[key], want_cluster[key])
    write_global_index(index, tmp_path / "got.gidx")
    write_global_index(want, tmp_path / "want.gidx")
    assert (tmp_path / "got.gidx").read_bytes() == (tmp_path / "want.gidx").read_bytes()


def test_make_signature_bit_width(toy_gmm):
    gen = np.random.default_rng(100)
    s = make_signature(1, 2, fisher_vector(gen.normal(size=(10, 6)), toy_gmm))
    assert s.n_bits == 3 * 6  # components x dims
    assert s.bits.shape[0] == (s.n_bits + 7) // 8
