import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (LocalPosting, build_local_index_oracle, kmeans_assign,
                      load_bench_module, postings_from_rows, pq_encode,
                      workload_configs, write_local_index_oracle)
from frameseek import (KMeansModel, LocalRecord, PQModel, build_local_index,
                       encode_frame_local, encode_query_local, records_to_rows)
from frameseek.codebooks import BLOCK_FLOATS, BLOCK_MIN_ROWS
from frameseek.geometry import (FrameGeometry, dequantize_log_scale,
                                dequantize_theta, quantize_log_scale,
                                quantize_theta, wrap_angle)
from frameseek import local_index
from frameseek.local_index import DESCRIPTOR_DIM, POSTING_DTYPES
from frameseek.storage import write_local_index


def make_records(descriptors, frame_id=0, video_id=0, rng=None):
    rng = rng or np.random.default_rng(0)
    geom = FrameGeometry()
    n = len(descriptors)
    xs = rng.uniform(0, geom.width, n)
    ys = rng.uniform(0, geom.height, n)
    thetas = rng.uniform(-math.pi, math.pi, n)
    scales = rng.uniform(0, 4, n)
    return [LocalRecord(frame_id=frame_id, video_id=video_id, x=xs[i], y=ys[i],
                        theta=thetas[i], log_scale=scales[i], descriptor=d)
            for i, d in enumerate(descriptors)]


def simple_posting(word, frame_id, codes=(0, 0, 0, 0)):
    return LocalPosting(word=word, codes=np.array(codes, dtype=np.uint8),
                        qx=0, qy=0, qtheta=0, qscale=0, frame_id=frame_id)


def encode_records(records, bow, pq):
    return encode_frame_local([(0, 0, records_to_rows(records))], bow, pq)


# --- frame encoding --------------------------------------------------------

def test_encode_empty_frame(small_bow, small_pq):
    assert len(encode_frame_local([], small_bow, small_pq)) == 0
    assert len(encode_frame_local([(0, 0, np.empty((0, 36), dtype=np.float32))],
                                  small_bow, small_pq)) == 0


def test_encode_descriptor_equal_to_coarse_center(small_bow, small_pq):
    records = make_records([small_bow.centers[7].astype(np.float64)])
    posting = encode_records(records, small_bow, small_pq)
    assert posting.word[0] == 7
    np.testing.assert_array_equal(posting.codes[0], pq_encode(small_pq, np.zeros(32)))


def test_encode_matches_composed_oracle(small_bow, small_pq):
    gen = np.random.default_rng(60)
    records = make_records(gen.normal(size=(50, 32)), rng=gen)
    postings = encode_records(records, small_bow, small_pq)
    for i, rec in enumerate(records):
        word, residual = kmeans_assign(small_bow, rec.descriptor.astype(np.float64))
        assert postings.word[i] == word
        np.testing.assert_array_equal(postings.codes[i], pq_encode(small_pq, residual))


def test_encode_rejects_wrong_dimension(small_bow, small_pq):
    records = make_records([np.zeros(16)])
    with pytest.raises(ValueError, match="dimension"):
        encode_records(records, small_bow, small_pq)


@pytest.mark.parametrize("workload", ["copy-local", "neardup-global", "ingest"])
def test_query_coded_alone_matches_its_index_coding(workload):
    """A query frame's few rows go through one small product each, while
    the index codes the same rows inside blocks of hundreds; BLAS may round
    the two differently (at the neardup-global shape, 4 rows against 128
    words, most rows' distances differ in their last bits). Words and PQ
    codes must still agree, for rows near one word and for rows midway
    between two, at each workload's shapes."""
    config = workload_configs()[workload]
    spec = load_bench_module("workloads").WORKLOADS[workload].spec
    per_frame = spec["keypoints_per_frame"] + spec.get("distractor_keypoints", 0)
    gen = np.random.default_rng(41)
    bow = KMeansModel(gen.normal(size=(config.d_bow, DESCRIPTOR_DIM)))
    pq = PQModel([KMeansModel(gen.normal(0.0, 0.3, size=(config.d_pq, DESCRIPTOR_DIM // config.m)))
                  for _ in range(config.m)], max_dist=np.ones(config.m))
    # enough frames to fill two of the encoder's vocabulary blocks
    n_frames = 2 * max(BLOCK_MIN_ROWS, BLOCK_FLOATS // config.d_bow) // per_frame + 1
    words = gen.integers(0, config.d_bow, size=(2, n_frames * per_frame))
    centers = bow.centers.astype(np.float64)
    near = centers[words[0]] + gen.normal(0.0, 0.3, size=(words.shape[1], DESCRIPTOR_DIM))
    midway = (centers[words[0]] + centers[words[1]]) / 2.0
    rows = np.zeros((words.shape[1], 4 + DESCRIPTOR_DIM), dtype=np.float32)
    rows[:, 4:] = np.where((np.arange(words.shape[1]) % 2)[:, None] == 0, near, midway)
    frames = [(f, f, rows[f * per_frame:(f + 1) * per_frame]) for f in range(n_frames)]
    postings = encode_frame_local(frames, bow, pq)
    for f, _, frame_rows in frames:
        alone = encode_query_local(frame_rows, bow, pq)
        in_index = slice(f * per_frame, (f + 1) * per_frame)
        np.testing.assert_array_equal([p.word for p in alone], postings.word[in_index])
        np.testing.assert_array_equal(np.stack([p.codes for p in alone]), postings.codes[in_index])


def test_blocked_encoding_equals_per_frame_encoding(small_bow, small_pq, monkeypatch):
    # 11 frames of uneven size (one empty) in 7-row blocks: blocks cut through
    # frames, and the frame ids are not in sorted order
    gen = np.random.default_rng(64)
    sizes = [5, 0, 13, 1, 8, 2, 9, 3, 7, 4, 6]
    frames = [(int(fid), int(fid) % 3, records_to_rows(make_records(gen.normal(size=(n, 32)), rng=gen)))
              for fid, n in zip(gen.permutation(100)[:len(sizes)], sizes)]
    geometry = FrameGeometry(width=640.0, height=480.0)
    monkeypatch.setattr(local_index, "ENCODE_BLOCK_ROWS", 7)
    blocked = encode_frame_local(frames, small_bow, small_pq, geometry)
    alone = [encode_frame_local([f], small_bow, small_pq, geometry) for f in frames]
    assert len(blocked) == sum(sizes)
    for name in ("word", "codes", "qx", "qy", "qtheta", "qscale", "frame"):
        np.testing.assert_array_equal(getattr(blocked, name),
                                      np.concatenate([getattr(p, name) for p in alone]))
    np.testing.assert_array_equal(blocked.frame, np.repeat([f for f, _, _ in frames], sizes))


def test_row_blocks_bounded_and_near_equal():
    sizes = [5, 0, 13, 1, 8]
    frames = [(fid, 0, np.arange(n * 36, dtype=np.float32).reshape(n, 36) + 1000 * fid)
              for fid, n in enumerate(sizes)]
    blocks = list(local_index.row_blocks(frames, 7))
    lengths = [b.shape[0] for b in blocks]
    # 7 rows are cut whenever 14 wait (after 18 and 20 rows); the last 13 split 7 + 6
    assert lengths == [7, 7, 7, 6]
    np.testing.assert_array_equal(np.concatenate(blocks),
                                  np.concatenate([rows for _, _, rows in frames]))


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(0, 40), max_size=30), block_rows=st.integers(1, 16))
def test_row_blocks_hold_half_a_block_and_cut_while_frames_stream(sizes, block_rows):
    frames = [(fid, 0, np.full((n, 3), fid, dtype=np.float32)) for fid, n in enumerate(sizes)]
    arrived = []

    def stream():
        for frame in frames:
            arrived.append(frame[2].shape[0])
            yield frame

    blocks, delivered = [], 0
    for block in local_index.row_blocks(stream(), block_rows):
        blocks.append(block)
        delivered += block.shape[0]
        # what waits is under two blocks, plus the frame that just arrived
        assert sum(arrived) - delivered < 2 * block_rows + arrived[-1]
    total = sum(sizes)
    assert sum(b.shape[0] for b in blocks) == total
    for block in blocks:
        assert block.shape[0] <= block_rows
        assert block.shape[0] >= min(total, block_rows // 2) and block.shape[0] > 0
    if total:
        np.testing.assert_array_equal(np.concatenate(blocks),
                                      np.concatenate([rows for _, _, rows in frames]))


# --- geometry quantization ----------------------------------------------------

def test_geometry_roundtrip_error_bounds():
    gen = np.random.default_rng(61)
    geom = FrameGeometry(width=1280.0, height=720.0)
    x = gen.uniform(0, geom.width, 500)
    y = gen.uniform(0, geom.height, 500)
    qx, qy = geom.quantize_xy(x, y)
    dx, dy = geom.dequantize_xy(qx, qy)
    assert np.abs(dx - x).max() <= geom.diagonal / 2 ** 16
    assert np.abs(dy - y).max() <= geom.diagonal / 2 ** 16

    theta = gen.uniform(-math.pi, math.pi, 500)
    dt = dequantize_theta(quantize_theta(theta))
    assert np.abs(dt - theta).max() <= 2 * math.pi / 2 ** 8

    ls = gen.uniform(-2, 8, 500)
    dls = dequantize_log_scale(quantize_log_scale(ls))
    assert np.abs(dls - ls).max() <= 10.0 / 2 ** 8


def test_theta_wraps_into_range():
    assert wrap_angle(3 * math.pi) == pytest.approx(-math.pi)
    assert -math.pi <= wrap_angle(123.456) < math.pi


# --- index construction ---------------------------------------------------------

def test_prune_zero_keeps_everything():
    postings = [simple_posting(w, f) for w in range(10) for f in range(3)]
    index = build_local_index(postings_from_rows(postings), {0: 0, 1: 0, 2: 1}, n_words=10, m=4,
                              n_pq_centers=8, prune_fraction=0.0)
    assert not index.stop_mask.any()
    assert index.n_postings() == 30


def test_everywhere_word_is_stopped():
    # word 0 appears in every frame; others in one frame each
    postings = [simple_posting(0, f) for f in range(20)]
    postings += [simple_posting(w, w % 20) for w in range(1, 100)]
    frame_to_video = {f: 0 for f in range(20)}
    index = build_local_index(postings_from_rows(postings), frame_to_video, n_words=100, m=4,
                              n_pq_centers=8, prune_fraction=0.05)
    assert index.stop_mask.sum() == 5  # ceil(0.05 * 100)
    assert index.stop_mask[0]
    assert 0 not in index.postings


def test_doc_freq_matches_exhaustive_scan():
    gen = np.random.default_rng(62)
    postings = [simple_posting(int(gen.integers(0, 12)), int(gen.integers(0, 8)))
                for _ in range(300)]
    frame_to_video = {f: f // 2 for f in range(8)}
    index = build_local_index(postings_from_rows(postings), frame_to_video, n_words=12, m=4,
                              n_pq_centers=8, prune_fraction=0.0)
    for w in range(12):
        expected = len({p.frame_id for p in postings if p.word == w})
        assert index.doc_freq[w] == expected
        # idf formula with clamp
        want = max(math.log(8 / (1 + expected)), 0.0)
        assert index.idf[w] == pytest.approx(want, rel=1e-6)


def test_idf_positive_for_rare_retained_words():
    postings = [simple_posting(0, f) for f in range(10)] + [simple_posting(1, 0)]
    index = build_local_index(postings_from_rows(postings), {f: 0 for f in range(10)}, n_words=50,
                              m=4, n_pq_centers=8, prune_fraction=0.0)
    assert index.idf[1] > 0  # doc_freq 1 < n_frames - 1
    assert index.idf[0] == 0.0  # appears in every frame


def test_stop_ties_break_toward_lower_word():
    postings = [simple_posting(w, f) for w in range(4) for f in range(3)]
    index = build_local_index(postings_from_rows(postings), {0: 0, 1: 0, 2: 0}, n_words=4, m=4,
                              n_pq_centers=8, prune_fraction=0.25)
    assert index.stop_mask.tolist() == [True, False, False, False]


def test_posting_lists_sorted_by_frame():
    gen = np.random.default_rng(63)
    postings = [simple_posting(3, int(gen.integers(0, 50))) for _ in range(100)]
    index = build_local_index(postings_from_rows(postings), {f: 0 for f in range(50)}, n_words=4,
                              m=4, n_pq_centers=8, prune_fraction=0.0)
    frames = index.postings[3]["frame"]
    assert np.all(np.diff(frames.astype(np.int64)) >= 0)


def test_prune_fraction_range_validated():
    postings = [simple_posting(0, 0)]
    with pytest.raises(ValueError, match="prune_fraction"):
        build_local_index(postings_from_rows(postings), {0: 0}, n_words=4, m=4, n_pq_centers=8,
                          prune_fraction=0.5)
    with pytest.raises(ValueError, match="prune_fraction"):
        build_local_index(postings_from_rows(postings), {0: 0}, n_words=4, m=4, n_pq_centers=8,
                          prune_fraction=-0.1)


def test_posting_of_a_frame_outside_the_frame_table_rejected():
    """A frame's video comes from the frame table, so a posting of a frame
    the table lacks is an error at build time, as LIDX reading makes it."""
    postings = [simple_posting(0, 0), simple_posting(1, 7)]
    with pytest.raises(ValueError, match="posting frame id 7 is not in frame_to_video"):
        build_local_index(postings_from_rows(postings), {0: 0, 1: 0}, n_words=4, m=4,
                          n_pq_centers=8, prune_fraction=0.0)


def test_empty_posting_stream_rejected():
    with pytest.raises(ValueError, match="no postings"):
        build_local_index(postings_from_rows([]), {}, n_words=4, m=4, n_pq_centers=8)


def random_posting_stream(gen, n_words, n_frames, n_postings):
    """Random postings with repeated (word, frame) pairs, frames arriving in
    no sorted order, and random codes and geometry."""
    return [LocalPosting(word=int(gen.integers(0, n_words)),
                         codes=gen.integers(0, 8, size=4).astype(np.uint8),
                         qx=int(gen.integers(0, 65536)), qy=int(gen.integers(0, 65536)),
                         qtheta=int(gen.integers(0, 256)), qscale=int(gen.integers(0, 256)),
                         frame_id=int(gen.integers(0, n_frames)))
            for _ in range(n_postings)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("prune_fraction", [0.0, 0.05, 0.25])
def test_build_writes_oracle_lidx_bytes(seed, prune_fraction, tmp_path):
    gen = np.random.default_rng(500 + seed)
    n_words, n_frames = 20, 12
    postings = random_posting_stream(gen, n_words, n_frames, 150)
    # frame 12 has no keypoints; with two words of equal doc frequency
    # straddling the stop cut, ties decide which is stopped
    frame_to_video = {f: f // 3 for f in range(n_frames + 1)}
    postings += [LocalPosting(word=w, codes=np.zeros(4, dtype=np.uint8), qx=0, qy=0,
                              qtheta=0, qscale=0, frame_id=f)
                 for w in (n_words - 2, n_words - 1) for f in range(n_frames)]
    geometry = FrameGeometry(width=800.0, height=600.0)
    args = dict(n_words=n_words, m=4, n_pq_centers=8, prune_fraction=prune_fraction,
                geometry=geometry)
    got = build_local_index(postings_from_rows(postings), frame_to_video, **args)
    want, lists = build_local_index_oracle(postings, frame_to_video, **args)
    # the CSR columns are the oracle's per-word lists, end to end
    for name in ("word_offsets", *POSTING_DTYPES):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.codes.flags.c_contiguous and got.codes.shape == (4, got.n_postings())
    assert got.postings.keys() == lists.keys()
    write_local_index(got, tmp_path / "got.lidx")
    write_local_index_oracle(want, lists, tmp_path / "want.lidx")
    assert (tmp_path / "got.lidx").read_bytes() == (tmp_path / "want.lidx").read_bytes()
    if prune_fraction == 0.05:  # one stop between two words in every frame
        assert got.stop_mask[n_words - 2] and not got.stop_mask[n_words - 1]
