import numpy as np
import pytest

from conftest import global_rank_oracle, hamming_score
from frameseek import (GlobalQueryConfig, binary_centers_train,
                       build_global_index, global_rank, probe_candidates)
from frameseek.bits import hamming_to_many, pack_bits, unpack_bits
from test_global_index import oracle_corpus


def naive_hamming_score(a_bits, b_bits):
    return 1.0 - sum(int(x) != int(y) for x, y in zip(a_bits, b_bits)) / len(a_bits)


def make_clustered_corpus(n_codes=400, n_bits=256, n_true=8, flip=0.08, seed=0):
    """Codes drawn around well-separated prototypes; one video per code."""
    gen = np.random.default_rng(seed)
    protos = gen.integers(0, 2, size=(n_true, n_bits)).astype(np.uint8)
    owners = gen.integers(0, n_true, size=n_codes)
    bits = protos[owners] ^ (gen.random((n_codes, n_bits)) < flip).astype(np.uint8)
    return bits, protos, gen


@pytest.fixture(scope="module")
def clustered_index():
    bits, protos, gen = make_clustered_corpus()
    codes = pack_bits(bits)
    centers = binary_centers_train(codes, 256, k=8, iters=15, seed=1)
    ids = np.arange(len(codes))
    return build_global_index(ids, ids, codes, centers), bits, protos


def test_hamming_score_identical_is_one():
    code = pack_bits(np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8))
    assert hamming_score(code, code, 8) == 1.0


def test_hamming_score_complementary_is_zero():
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
    assert hamming_score(pack_bits(bits), pack_bits(1 - bits), 8) == 0.0


def test_hamming_score_matches_bit_loop_oracle():
    gen = np.random.default_rng(101)
    for _ in range(100):
        n_bits = int(gen.integers(1, 130))
        a = gen.integers(0, 2, size=n_bits).astype(np.uint8)
        b = gen.integers(0, 2, size=n_bits).astype(np.uint8)
        got = hamming_score(pack_bits(a), pack_bits(b), n_bits)
        assert got == pytest.approx(naive_hamming_score(a, b), abs=1e-12)
        assert 0.0 <= got <= 1.0
        assert got == hamming_score(pack_bits(b), pack_bits(a), n_bits)
        # the engine's batch distance agrees with the scalar one
        assert got == 1.0 - hamming_to_many(pack_bits(a), pack_bits(b)[None])[0] / n_bits


def test_hamming_score_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        hamming_score(np.zeros(2, dtype=np.uint8), np.zeros(3, dtype=np.uint8), 16)
    with pytest.raises(ValueError, match="bit-length mismatch"):
        hamming_to_many(np.zeros(2, dtype=np.uint8), np.zeros((1, 3), dtype=np.uint8))


def test_full_probe_identical_to_brute_force(clustered_index):
    index, bits, protos = clustered_index
    gen = np.random.default_rng(102)
    for _ in range(10):
        query = pack_bits((protos[int(gen.integers(0, 8))]
                           ^ (gen.random(256) < 0.1).astype(np.uint8)))
        full = global_rank(query, index, GlobalQueryConfig(k_probe=index.centers.k, top_n=50))
        brute = global_rank(query, index, GlobalQueryConfig(brute_force=True, top_n=50))
        assert full.entries == brute.entries


def test_query_equal_to_indexed_signature_ranks_first(clustered_index):
    index, bits, _ = clustered_index
    query = pack_bits(bits[37])
    ranked = global_rank(query, index, GlobalQueryConfig(k_probe=3, top_n=10))
    assert ranked.entries[0] == (37, 1.0)


def test_probe_recall_at_10_vs_brute_force(clustered_index):
    index, bits, protos = clustered_index
    gen = np.random.default_rng(103)
    recalls = []
    for _ in range(30):
        query = pack_bits((protos[int(gen.integers(0, 8))]
                           ^ (gen.random(256) < 0.1).astype(np.uint8)))
        approx = global_rank(query, index, GlobalQueryConfig(k_probe=3, top_n=10))
        brute = global_rank(query, index, GlobalQueryConfig(brute_force=True, top_n=10))
        got = set(approx.video_ids())
        want = set(brute.video_ids())
        recalls.append(len(got & want) / len(want))
    assert np.mean(recalls) >= 0.9


def test_probed_scores_equal_brute_force_scores(clustered_index):
    # approximation only filters candidates; retained scores are exact
    index, bits, protos = clustered_index
    gen = np.random.default_rng(104)
    query = pack_bits((protos[2] ^ (gen.random(256) < 0.1).astype(np.uint8)))
    approx = dict(global_rank(query, index, GlobalQueryConfig(k_probe=3, top_n=400)).entries)
    brute = dict(global_rank(query, index, GlobalQueryConfig(brute_force=True, top_n=400)).entries)
    for video, score in approx.items():
        assert brute[video] == score


def test_probe_monotone_in_k(clustered_index):
    index, bits, protos = clustered_index
    gen = np.random.default_rng(105)
    query = pack_bits((protos[5] ^ (gen.random(256) < 0.1).astype(np.uint8)))
    prev: dict[int, float] = {}
    for k in (1, 2, 4, 8):
        ranked = dict(global_rank(query, index, GlobalQueryConfig(k_probe=k, top_n=400)).entries)
        for video, score in prev.items():
            assert video in ranked and ranked[video] >= score
        prev = ranked


def test_probe_examines_bounded_fraction(clustered_index):
    index, bits, protos = clustered_index
    gen = np.random.default_rng(106)
    total = index.n_signatures
    for _ in range(10):
        query = pack_bits((protos[int(gen.integers(0, 8))]
                           ^ (gen.random(256) < 0.1).astype(np.uint8)))
        cands = probe_candidates(query, index, 2)
        assert cands["frame"].shape[0] <= 0.5 * total


def test_empty_index_returns_empty_list():
    from frameseek import BinaryCenters
    gen = np.random.default_rng(107)
    centers = BinaryCenters(centers=pack_bits(gen.integers(0, 2, size=(4, 32)).astype(np.uint8)),
                            n_bits=32)
    index = build_global_index(
        [0], [0], pack_bits(gen.integers(0, 2, size=(1, 32)).astype(np.uint8)), centers)
    index.clusters = [{"frame": np.empty(0, dtype=np.uint32),
                       "video": np.empty(0, dtype=np.uint32),
                       "codes": np.empty((0, 4), dtype=np.uint8)} for _ in range(4)]
    ranked = global_rank(pack_bits(gen.integers(0, 2, size=32).astype(np.uint8)), index,
                         GlobalQueryConfig(k_probe=2))
    assert ranked.entries == []


def test_global_query_config_validation():
    with pytest.raises(ValueError, match="k_probe"):
        GlobalQueryConfig(k_probe=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rank_equals_dict_loop_oracle(seed):
    signatures, centers = oracle_corpus(seed)
    index = build_global_index([s.frame_id for s in signatures],
                               [s.video_id for s in signatures],
                               np.stack([s.bits for s in signatures]), centers)
    gen = np.random.default_rng(seed)
    n_bits = centers.n_bits
    indexed = unpack_bits(np.stack([s.bits for s in signatures]), n_bits)
    queries = [indexed[0], indexed[1], indexed[2], 1 - indexed[-1],
               *(indexed[i] ^ (gen.random(n_bits) < 0.1) for i in gen.integers(0, 120, size=6))]
    for query in queries:
        query = pack_bits(np.asarray(query, dtype=np.uint8))
        for cfg in (GlobalQueryConfig(k_probe=1, top_n=100),
                    GlobalQueryConfig(k_probe=2, top_n=3),
                    GlobalQueryConfig(k_probe=3, top_n=100),
                    GlobalQueryConfig(brute_force=True, top_n=100),
                    GlobalQueryConfig(brute_force=True, top_n=5)):
            assert global_rank(query, index, cfg).entries == \
                global_rank_oracle(query, index, cfg).entries


def test_rank_keeps_zero_scores_and_breaks_ties_by_video():
    signatures, centers = oracle_corpus(0)
    index = build_global_index([s.frame_id for s in signatures],
                               [s.video_id for s in signatures],
                               np.stack([s.bits for s in signatures]), centers)
    ones = pack_bits(np.ones(centers.n_bits, dtype=np.uint8))
    entries = global_rank(ones, index, GlobalQueryConfig(brute_force=True, top_n=100)).entries
    assert entries[-1] == (99, 0.0)
    assert len({v for v, _ in entries}) == len(entries) == 9
    # a duplicated code puts two videos on one score; the lower id ranks first
    dup = signatures[2].bits
    entries = global_rank(dup, index, GlobalQueryConfig(brute_force=True, top_n=100)).entries
    tied = [v for v, score in entries if score == 1.0]
    assert tied == sorted({signatures[i].video_id for i in (2, 6)})
