import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import (MatchCandidate, collect_matches_oracle, hough_verify_oracle,
                      match_rows, matches_from_rows, pq_score)
from frameseek import (FrameGeometry, HoughConfig, LocalRecord, Matches,
                       Postings, PQScoreTable, QueryPosting, build_local_index, collect_matches,
                       encode_frame_local, encode_query_local, hough_verify,
                       local_rank, query_score_mass, records_to_rows,
                       transform_records)
from frameseek import local_query
from frameseek.local_query import _theta_bin


def direct_pq_score(codes_r, codes_q, pq):
    """Direct evaluation of the normalized-distance average, no tables."""
    total = 0.0
    for j, sub in enumerate(pq.sub_models):
        centers = sub.centers.astype(np.float64)
        dist = np.linalg.norm(centers[codes_r[j]] - centers[codes_q[j]])
        total += 1.0 - dist / pq.max_dist[j]
    return total / pq.m


def make_records(descriptors, frame_id=0, video_id=0, seed=0):
    gen = np.random.default_rng(seed)
    geom = FrameGeometry()
    out = []
    for d in descriptors:
        out.append(LocalRecord(
            frame_id=frame_id, video_id=video_id,
            x=float(gen.uniform(0.1 * geom.width, 0.9 * geom.width)),
            y=float(gen.uniform(0.1 * geom.height, 0.9 * geom.height)),
            theta=float(gen.uniform(-math.pi, math.pi)),
            log_scale=float(gen.uniform(0, 4)), descriptor=d))
    return out


def make_rows(descriptors, seed=0):
    return records_to_rows(make_records(descriptors, seed=seed))


def build_corpus_index(small_bow, small_pq, n_videos=4, frames_per_video=3,
                       keypoints=12, prune=0.0, seed=70, drop_words=()):
    """Index of random frames; keypoints on `drop_words` are left out."""
    gen = np.random.default_rng(seed)
    frames = []
    frame_to_video = {}
    fid = 0
    for video in range(n_videos):
        for _ in range(frames_per_video):
            rows = make_rows(gen.normal(size=(keypoints, 32)), seed + fid)
            frames.append((fid, video, rows))
            frame_to_video[fid] = video
            fid += 1
    postings = encode_frame_local(frames, small_bow, small_pq)
    keep = ~np.isin(postings.word, list(drop_words))
    postings = Postings(**{f.name: getattr(postings, f.name)[keep] for f in fields(Postings)})
    index = build_local_index(postings, frame_to_video, n_words=small_bow.k,
                              m=small_pq.m, n_pq_centers=small_pq.n_centers,
                              prune_fraction=prune)
    return index, frames


# --- pq_score ----------------------------------------------------------------

def test_pq_score_identical_codes_is_one(small_pq):
    codes = np.array([3, 1, 4, 1], dtype=np.uint8)
    assert pq_score(codes, codes, small_pq) == 1.0


def test_pq_score_max_distance_pair_is_zero(small_pq):
    codes_r, codes_q = np.empty(4, dtype=np.uint8), np.empty(4, dtype=np.uint8)
    for j, sub in enumerate(small_pq.sub_models):
        centers = sub.centers.astype(np.float64)
        pair = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        i, l = np.unravel_index(np.argmax(pair), pair.shape)
        codes_r[j], codes_q[j] = i, l
    assert pq_score(codes_r, codes_q, small_pq) == 0.0


def test_pq_score_matches_direct_formula(small_pq):
    gen = np.random.default_rng(71)
    table = PQScoreTable(small_pq)
    for _ in range(200):
        codes_r = gen.integers(0, 8, size=4).astype(np.uint8)
        codes_q = gen.integers(0, 8, size=4).astype(np.uint8)
        assert pq_score(codes_r, codes_q, table) == pytest.approx(
            direct_pq_score(codes_r, codes_q, small_pq), abs=1e-6)


def test_pq_score_symmetric_and_bounded(small_pq):
    gen = np.random.default_rng(72)
    table = PQScoreTable(small_pq)
    for _ in range(100):
        a = gen.integers(0, 8, size=4).astype(np.uint8)
        b = gen.integers(0, 8, size=4).astype(np.uint8)
        s = pq_score(a, b, table)
        assert 0.0 <= s <= 1.0
        assert s == pq_score(b, a, table)
        if s == 1.0:
            assert np.array_equal(a, b)  # distinct sub-centers


def test_pq_score_length_mismatch(small_pq):
    with pytest.raises(ValueError, match="length mismatch"):
        pq_score(np.zeros(3, dtype=np.uint8), np.zeros(4, dtype=np.uint8), small_pq)


# --- collect_matches ------------------------------------------------------------

def test_collect_matches_impossible_threshold(small_bow, small_pq):
    index, frames = build_corpus_index(small_bow, small_pq)
    gen = np.random.default_rng(74)
    query = encode_query_local(make_rows(gen.normal(size=(8, 32)), seed=74),
                               small_bow, small_pq)
    assert len(collect_matches(query, index, small_pq, tau_pq=1 - 1e-9)) == 0


def test_collect_matches_planted_identical_posting(small_bow, small_pq):
    index, frames = build_corpus_index(small_bow, small_pq)
    fid, vid, records = frames[0]
    query = encode_query_local(records[:1], small_bow, small_pq)
    cands = collect_matches(query, index, small_pq, tau_pq=0.99)
    idf = float(index.idf[query[0].word])
    self_hits = cands.score[cands.frame == fid].tolist()
    assert self_hits and any(s == pytest.approx(idf * 1.0) for s in self_hits)


def test_collect_matches_equals_full_scan_oracle(small_bow, small_pq):
    index, frames = build_corpus_index(small_bow, small_pq, prune=0.1)
    gen = np.random.default_rng(75)
    query_rows = make_rows(gen.normal(size=(15, 32)), seed=75)
    query = encode_query_local(query_rows, small_bow, small_pq)
    table = PQScoreTable(small_pq)
    for tau in (0.5, 0.72, 0.9):
        got = match_rows(collect_matches(query, index, small_pq, tau_pq=tau, table=table))
        expected = set()
        for qidx, posting in enumerate(query):
            for word, arrs in index.postings.items():
                if word != posting.word:
                    continue
                idf = float(index.idf[word])
                for i in range(arrs["frame"].shape[0]):
                    s = pq_score(arrs["codes"][i], posting.codes, table)
                    if s > tau and idf * s > 0:
                        expected.add((int(arrs["frame"][i]), qidx, idf * s))
        assert got == expected


def assert_same_matches(got, want):
    for f in fields(Matches):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
        assert a.tobytes() == b.tobytes(), f.name


@pytest.mark.parametrize("prebuilt_table", [False, True])
@pytest.mark.parametrize("tau", [0.05, 0.5, 0.72, 0.9])
def test_collect_matches_equals_dict_oracle(small_bow, small_pq, prebuilt_table, tau):
    """The CSR scan returns the dict-based scan's matches exactly, column by
    column, with stopped, zero-idf, posting-less, out-of-range and repeated
    query words among the keypoints, whether it is handed the score table or
    builds its own."""
    missing = 5
    index, frames = build_corpus_index(small_bow, small_pq, prune=0.2, drop_words={missing})
    stopped = int(np.flatnonzero(index.stop_mask)[0])
    live_words = np.flatnonzero(index.word_offsets[1:] > index.word_offsets[:-1])
    zero_idf = int(live_words[0])
    index.idf = index.idf.copy()
    index.idf[zero_idf] = 0.0
    gen = np.random.default_rng(84)
    rows = np.concatenate([frames[0][2], frames[7][2], make_rows(gen.normal(size=(10, 32)), 84)])
    query = encode_query_local(rows, small_bow, small_pq)
    query[0].word, query[1].word, query[2].word = stopped, zero_idf, missing
    query[3].word = small_bow.k  # outside the vocabulary
    query[4].word = query[5].word = query[6].word
    assert missing not in index.postings and not index.stop_mask[missing]
    args = dict(tau_pq=tau, table=PQScoreTable(small_pq) if prebuilt_table else None)
    got = collect_matches(query, index, small_pq, **args)
    assert_same_matches(got, collect_matches_oracle(query, index, small_pq, **args))
    assert len(got)  # the comparison is not vacuous
    assert_same_matches(collect_matches([], index, small_pq, **args),
                        collect_matches_oracle([], index, small_pq, **args))


@pytest.mark.parametrize("filler_partial", [0.0, 1.0], ids=["most-pruned", "few-pruned"])
def test_collect_matches_pruning_equals_full_scan_at_the_bound(small_pq, filler_partial):
    """The scan may drop a posting after m // 2 subspaces only when it cannot
    pass tau_pq. Hand-set tables put partial sums exactly on the bound
    tau_pq*m - (m - m // 2), one ulp to either side and 2**-44 to either
    side (far above rounding, far below 1), with later subspaces scoring 1,
    just under 1 or less. 1,000 filler postings with partial sum 0 leave
    fewer than half the postings alive, so the scan compacts; with partial
    sum 1 more than half stay alive and the scan runs in full. Either way
    every column equals the full scan's, bit for bit."""
    m, k, tau = small_pq.m, small_pq.n_centers, 0.72
    assert (m, k) == (4, 8)
    bound = tau * m - (m - m // 2)
    # subspace 1 holds the partial sum of code c (subspace 0 adds 0), and
    # subspaces 2 and 3 what the code adds after it; code 7 is the filler's
    partial = [bound, np.nextafter(bound, 0.0), np.nextafter(bound, 1.0), bound + 2 ** -44,
               bound - 2 ** -44, 1.0, 0.5, filler_partial]
    rest = [1.0, np.nextafter(1.0, 0.0), 0.999, 0.5, 0.0, 1.0, 1.0, 1.0]
    table = PQScoreTable(small_pq)
    table.tables = np.zeros((m, k, k))
    for j, row in ((1, partial), (2, rest), (3, rest)):
        table.tables[j, 0, :] = table.tables[j, :, 0] = row  # query codes are all 0

    n_filler = 1000
    near = np.array([(c1, c2, c3) for c1 in range(k - 1) for c2 in range(k) for c3 in range(k)])
    codes = np.zeros((near.shape[0] + n_filler, m), dtype=np.uint8)
    codes[:near.shape[0], 1:] = near
    codes[near.shape[0]:, 1] = k - 1
    n_frames = codes.shape[0] // 8 + 1
    # word 0 holds the postings; word 1, on as many other frames, gives it idf > 0
    gen = np.random.default_rng(85)
    n = codes.shape[0] + n_frames
    postings = Postings(
        word=np.repeat([0, 1], [codes.shape[0], n_frames]),
        codes=np.concatenate([codes, np.zeros((n_frames, m), dtype=np.uint8)]),
        qx=gen.integers(0, 2 ** 16, n).astype(np.uint16),
        qy=gen.integers(0, 2 ** 16, n).astype(np.uint16),
        qtheta=gen.integers(0, 256, n).astype(np.uint8),
        qscale=gen.integers(0, 256, n).astype(np.uint8),
        frame=np.concatenate([np.arange(codes.shape[0]) // 8,
                              n_frames + np.arange(n_frames)]).astype(np.uint32))
    index = build_local_index(postings, {f: f // 4 for f in range(2 * n_frames)}, n_words=2,
                              m=m, n_pq_centers=k, prune_fraction=0.0)
    assert index.idf[0] > 0
    query = [QueryPosting(word=0, codes=np.zeros(m, dtype=np.uint8), x=x, y=y, theta=0.5,
                          log_scale=1.0) for x, y in ((100.0, 80.0), (300.0, 200.0))]

    got = collect_matches(query, index, small_pq, tau_pq=tau, table=table)
    assert_same_matches(got, collect_matches_oracle(query, index, small_pq, tau, table))
    assert len(got)
    # not vacuous: a partial sum a hair above the bound passes if the rest score 1
    assert (0.0 + partial[3] + rest[0] + rest[0]) / m > tau


def test_collect_matches_tau_range(small_bow, small_pq):
    index, _ = build_corpus_index(small_bow, small_pq)
    with pytest.raises(ValueError, match="tau_pq"):
        collect_matches([], index, small_pq, tau_pq=1.0)


def test_collect_matches_stopped_word_silently_skipped(small_bow, small_pq):
    """No match with every keypoint on a stopped word. That empty result,
    and those with every posting pruned after m // 2 subspaces or scored in
    full without passing tau_pq, has the column dtypes of a non-empty one."""
    index, frames = build_corpus_index(small_bow, small_pq, prune=0.2)
    stopped = int(np.flatnonzero(index.stop_mask)[0])
    fid, vid, records = frames[0]
    live = encode_query_local(records, small_bow, small_pq)
    found = collect_matches(live, index, small_pq, tau_pq=0.72)
    assert len(found)
    query = encode_query_local(records, small_bow, small_pq)
    for posting in query:
        posting.word = stopped  # force every posting onto a pruned word
    empties = [collect_matches(query, index, small_pq, tau_pq=0.5)]
    table = PQScoreTable(small_pq)
    for value in (0.0, 0.5):  # partial sums 0 are all pruned; full sums 0.5 all fail
        table.tables = np.full_like(table.tables, value)
        empties.append(collect_matches(live, index, small_pq, tau_pq=0.72, table=table))
    for empty in empties:
        assert len(empty) == 0
        assert [getattr(empty, f.name).dtype for f in fields(Matches)] == \
            [getattr(found, f.name).dtype for f in fields(Matches)]


# --- hough_verify ------------------------------------------------------------------

def candidate(frame, qidx, score, qgeom, rgeom):
    return MatchCandidate(frame_id=frame, query_index=qidx, score=score,
                          qx=qgeom[0], qy=qgeom[1], qtheta=qgeom[2], qlog_scale=qgeom[3],
                          rx=rgeom[0], ry=rgeom[1], rtheta=rgeom[2], rlog_scale=rgeom[3])


def apply_transform(rgeom, theta, scale, tx, ty):
    x, y, t, ls = rgeom
    qx = scale * (math.cos(theta) * x - math.sin(theta) * y) + tx
    qy = scale * (math.sin(theta) * x + math.cos(theta) * y) + ty
    return (qx, qy, t + theta, ls + math.log2(scale))


def test_hough_single_transform_concentrates_all_mass():
    gen = np.random.default_rng(76)
    theta, scale, tx, ty = 0.4, 1.3, 50.0, -20.0
    cands = []
    total = 0.0
    for i in range(25):
        rgeom = (gen.uniform(100, 1000), gen.uniform(100, 600),
                 gen.uniform(-3, 3), gen.uniform(0, 3))
        score = float(gen.uniform(0.1, 1.0))
        total += score
        cands.append(candidate(5, i, score, apply_transform(rgeom, theta, scale, tx, ty), rgeom))
    scores = hough_verify(matches_from_rows(cands))
    assert scores[5] == pytest.approx(total)


def test_hough_opposite_rotations_never_share_bin():
    for n_theta in (2, 3, 8, 16):
        for base in np.linspace(-math.pi, math.pi, 37, endpoint=False):
            wrapped = (base + math.pi + math.pi) % (2 * math.pi) - math.pi
            assert _theta_bin(float(base), n_theta) != _theta_bin(float(wrapped), n_theta)


def test_hough_planted_inliers_dominant_bin():
    hits = 0
    for seed in range(20):
        gen = np.random.default_rng(800 + seed)
        theta = float(gen.uniform(-math.pi, math.pi))
        scale = float(2.0 ** gen.uniform(-1, 1))
        tx, ty = float(gen.uniform(-100, 100)), float(gen.uniform(-100, 100))
        cands = []
        inlier_mass = 0.0
        for i in range(30):
            rgeom = (gen.uniform(0, 1280), gen.uniform(0, 720),
                     gen.uniform(-math.pi, math.pi), gen.uniform(-2, 8))
            score = float(gen.uniform(0.2, 1.0))
            inlier_mass += score
            cands.append(candidate(1, i, score,
                                   apply_transform(rgeom, theta, scale, tx, ty), rgeom))
        for i in range(30, 60):
            qgeom = (gen.uniform(0, 1280), gen.uniform(0, 720),
                     gen.uniform(-math.pi, math.pi), gen.uniform(-2, 8))
            rgeom = (gen.uniform(0, 1280), gen.uniform(0, 720),
                     gen.uniform(-math.pi, math.pi), gen.uniform(-2, 8))
            cands.append(candidate(1, i, float(gen.uniform(0.2, 1.0)), qgeom, rgeom))
        if hough_verify(matches_from_rows(cands))[1] >= 0.9 * inlier_mass:
            hits += 1
    assert hits >= 19


def test_hough_score_bounded_by_candidate_mass():
    gen = np.random.default_rng(77)
    cands = []
    for i in range(40):
        qgeom = (gen.uniform(0, 1280), gen.uniform(0, 720),
                 gen.uniform(-math.pi, math.pi), gen.uniform(-2, 8))
        rgeom = (gen.uniform(0, 1280), gen.uniform(0, 720),
                 gen.uniform(-math.pi, math.pi), gen.uniform(-2, 8))
        cands.append(candidate(2, i, float(gen.uniform(0, 1)), qgeom, rgeom))
    total = sum(c.score for c in cands)
    assert hough_verify(matches_from_rows(cands))[2] <= total + 1e-12


def test_hough_burstiness_guard_counts_best_per_keypoint():
    rgeom = (400.0, 300.0, 0.0, 1.0)
    qgeom = apply_transform(rgeom, 0.0, 1.0, 0.0, 0.0)
    cands = [candidate(3, 0, 0.5, qgeom, rgeom),
             candidate(3, 0, 0.9, qgeom, rgeom)]  # same keypoint, same bin
    assert hough_verify(matches_from_rows(cands))[3] == pytest.approx(0.9)


def test_hough_equals_scalar_oracle():
    """The columnar vote equals the one-candidate-at-a-time vote exactly, in
    any row order: several frames, keypoints voting several times into one
    bin, and values sitting exactly on bin edges."""
    gen = np.random.default_rng(82)
    cfg = HoughConfig()
    diag = 1024.0  # a power of two, so the translation edges below are exact
    cands = []
    for frame in range(6):
        theta = float(gen.uniform(-math.pi, math.pi))
        scale = float(2.0 ** gen.uniform(-1, 1))
        tx, ty = (float(v) for v in gen.uniform(-100, 100, size=2))
        for i in range(60):
            rgeom = (gen.uniform(0, 1280), gen.uniform(0, 720),
                     gen.uniform(-math.pi, math.pi), gen.uniform(-2, 8))
            qgeom = (apply_transform(rgeom, theta, scale, tx, ty) if i % 3 else
                     (gen.uniform(0, 1280), gen.uniform(0, 720),
                      gen.uniform(-math.pi, math.pi), gen.uniform(-2, 8)))
            qidx = int(gen.integers(0, 20))  # repeats: burstiness guard at work
            cands.append(candidate(frame, qidx, float(gen.uniform(0.1, 1.0)), qgeom, rgeom))
    # one frame per bin edge: keypoint 0 sits on the edge and keypoint 1 a
    # quarter width above it, so the frame score tells whether they share a bin
    frame = 100
    origin = (0.0, 0.0, 0.0, 1.0)
    edges = [("theta", -math.pi + (k + 0.5) * 2 * math.pi / cfg.n_theta_bins,
              2 * math.pi / cfg.n_theta_bins) for k in range(cfg.n_theta_bins)]
    for name, (lo, hi), n in (("scale", cfg.scale_range, cfg.n_scale_bins),
                              ("trans", cfg.trans_range, cfg.n_trans_bins)):
        width = (hi - lo) / n
        edges += [(name, lo + (k + 0.5) * width, width) for k in range(-1, n + 1)]
    for name, edge, width in edges:
        for qidx, value in ((0, edge), (1, edge + width / 4)):
            qgeom = {"theta": (0.0, 0.0, value, 1.0),
                     "scale": (0.0, 0.0, 0.0, 1.0 + value),
                     "trans": (value * diag, 0.0, 0.0, 1.0)}[name]
            cands.append(candidate(frame, qidx, 0.5 if qidx == 0 else 0.25, qgeom, origin))
        frame += 1
    ordered = sorted(cands, key=lambda c: c.query_index)
    expected = hough_verify_oracle(ordered, cfg, query_diagonal=diag)
    shuffled = [cands[i] for i in gen.permutation(len(cands))]
    assert hough_verify(matches_from_rows(shuffled), cfg, query_diagonal=diag) == expected
    assert hough_verify(matches_from_rows(ordered), cfg, query_diagonal=diag) == expected
    assert any(expected[f] == 0.75 for f in range(100, frame))


def test_hough_vote_key_cannot_wrap():
    """The vote sorts one int64 key, (frame * K + bin) * Q + query_index. A
    frame id whose key would pass 2**63 - 1 raises instead of wrapping; the
    largest frame id whose key fits, and a uint32 frame id of 2**32 - 1
    under the default HoughConfig, still vote as the scalar oracle does."""
    cfg = HoughConfig()
    n_bins = cfg.n_theta_bins * cfg.n_scale_bins * cfg.n_trans_bins
    gen = np.random.default_rng(86)
    n_voters = 5

    def candidates(top_frame):
        out = []
        for frame in (0, 7, top_frame):
            for _ in range(12):
                rgeom = (gen.uniform(0, 1280), gen.uniform(0, 720),
                         gen.uniform(-math.pi, math.pi), gen.uniform(-2, 8))
                qgeom = apply_transform(rgeom, 0.3, 1.25, 40.0, -30.0)
                if gen.uniform() < 0.3:  # an outlier in another bin
                    qgeom = (qgeom[0], qgeom[1], qgeom[2] + 2.0, qgeom[3])
                out.append(candidate(frame, int(gen.integers(0, n_voters)),
                                     float(gen.uniform(0.1, 1.0)), qgeom, rgeom))
        out.append(candidate(7, n_voters - 1, 0.5, (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0)))
        return out

    fits = 2 ** 63 // (n_bins * n_voters) - 1  # (fits + 1) * K * Q <= 2**63
    for top_frame, dtype in ((fits, np.int64), (2 ** 32 - 1, np.uint32)):
        cands = candidates(top_frame)
        matches = matches_from_rows([cands[i] for i in gen.permutation(len(cands))])
        matches.frame = matches.frame.astype(dtype)
        expected = hough_verify_oracle(sorted(cands, key=lambda c: c.query_index), cfg)
        assert hough_verify(matches, cfg) == expected
        assert set(expected) == {0, 7, top_frame}
    with pytest.raises(ValueError, match="overflow"):
        hough_verify(matches_from_rows(candidates(fits + 1)), cfg)


def test_hough_empty_candidates():
    assert hough_verify(matches_from_rows([])) == {}


def test_hough_config_validation():
    with pytest.raises(ValueError, match="bin counts"):
        HoughConfig(n_theta_bins=1)


# --- local_rank -----------------------------------------------------------------------

def test_local_rank_self_retrieval_scores_one(small_bow, small_pq):
    index, frames = build_corpus_index(small_bow, small_pq, prune=0.0)
    fid, vid, records = frames[4]
    ranked = local_rank(records, index, small_bow, small_pq, tau_pq=0.72, top_n=10)
    assert ranked.entries[0][0] == vid
    assert ranked.entries[0][1] == pytest.approx(1.0, abs=1e-12)


def test_local_rank_disjoint_vocabulary_empty(small_bow, small_pq):
    gen = np.random.default_rng(78)
    records = make_rows(gen.normal(size=(6, 32)), seed=78)
    # index no keypoint on a word of the query: no shared words at all
    query_words = {p.word for p in encode_query_local(records, small_bow, small_pq)}
    index, _ = build_corpus_index(small_bow, small_pq, drop_words=query_words)
    assert not query_words & set(index.postings)
    ranked = local_rank(records, index, small_bow, small_pq, tau_pq=0.5, top_n=10)
    assert ranked.entries == []


def test_local_rank_planted_transformed_copies_top3(small_bow, small_pq):
    gen = np.random.default_rng(79)
    base = make_records(gen.normal(size=(14, 32)), frame_id=0, video_id=0, seed=79)
    frames = []
    frame_to_video = {}
    fid = 0
    transforms = [(0.3, 1.25, 40.0, -30.0), (-0.5, 0.8, -60.0, 25.0), (0.1, 1.0, 10.0, 5.0)]
    for video, (theta, scale, tx, ty) in enumerate(transforms):
        records = transform_records(base, fid, video, theta, scale, tx, ty,
                                    noise=0.01, rng=gen)
        frames.append((fid, video, records))
        frame_to_video[fid] = video
        fid += 1
    for video in range(3, 20):
        records = make_records(gen.normal(size=(14, 32)), fid, video, seed=200 + video)
        frames.append((fid, video, records))
        frame_to_video[fid] = video
        fid += 1
    postings = encode_frame_local([(f, v, records_to_rows(r)) for f, v, r in frames],
                                  small_bow, small_pq)
    index = build_local_index(postings, frame_to_video, n_words=small_bow.k,
                              m=small_pq.m, n_pq_centers=small_pq.n_centers,
                              prune_fraction=0.0)
    ranked = local_rank(records_to_rows(base), index, small_bow, small_pq, tau_pq=0.72, top_n=20)
    assert {v for v, _ in ranked.entries[:3]} == {0, 1, 2}


def test_local_rank_order_invariant_under_idf_rescale(small_bow, small_pq):
    index, frames = build_corpus_index(small_bow, small_pq, prune=0.0)
    gen = np.random.default_rng(80)
    records = make_rows(gen.normal(0, 0.5, size=(10, 32)), seed=80)
    before = local_rank(records, index, small_bow, small_pq, tau_pq=0.5, top_n=20)
    index.idf = index.idf * 7.5
    after = local_rank(records, index, small_bow, small_pq, tau_pq=0.5, top_n=20)
    assert before.video.tolist() == after.video.tolist()


def word_rows(bow, words, xy, theta=0.0, log_scale=1.0):
    """Query or reference rows: keypoint i at xy[i] with the descriptor of
    word words[i]'s center, so it gets that word and its equals' PQ codes."""
    n = len(words)
    return np.column_stack([np.asarray(xy, dtype=np.float64), np.full(n, theta),
                            np.full(n, log_scale), bow.centers[list(words)]]).astype(np.float32)


def word_index(bow, pq, frames, geometry=None):
    """Local index, without stop words, of (frame, video, rows) triples."""
    postings = encode_frame_local(frames, bow, pq, geometry)
    return build_local_index(postings, {f: v for f, v, _ in frames}, n_words=bow.k, m=pq.m,
                             n_pq_centers=pq.n_centers, prune_fraction=0.0, geometry=geometry)


def test_local_rank_bins_translation_by_the_query_diagonal(small_bow, small_pq):
    """Translations are binned in units of the query_geometry diagonal. Two
    groups of three matches, 250 px apart in x, share a bin at the 5,000 px
    diagonal of a 4000 x 3000 query frame (0.05 diagonals) but not at the
    500 px diagonal of the 400 x 300 index frames (0.5 diagonals), which the
    query falls back to without query_geometry."""
    ref_xy = [(100, 100), (150, 150), (200, 200), (120, 200), (170, 250), (220, 120)]
    frames = [(0, 0, word_rows(small_bow, range(6), ref_xy))]
    frames += [(f, f, word_rows(small_bow, [6], [(50, 50)])) for f in range(1, 10)]
    index = word_index(small_bow, small_pq, frames, FrameGeometry(400.0, 300.0))
    query = word_rows(small_bow, range(6), ref_xy[:3] + [(x + 250, y) for x, y in ref_xy[3:]])
    args = dict(tau_pq=0.72, top_n=10)
    ranked = local_rank(query, index, small_bow, small_pq,
                        query_geometry=FrameGeometry(4000.0, 3000.0), **args)
    assert ranked.entries == [(0, pytest.approx(1.0, abs=1e-9))]
    fallback = local_rank(query, index, small_bow, small_pq, **args)
    assert fallback.entries == [(0, pytest.approx(0.5, abs=1e-9))]


def test_local_rank_divides_by_a_query_mass_below_one(small_bow, small_pq):
    """A frame's score is divided by the query's score mass even below 1:
    one keypoint whose word has idf ln(4 / 2) < 1 finds its own frame at
    exactly 1.0."""
    frames = [(0, 0, word_rows(small_bow, [0], [(100, 100)]))]
    frames += [(f, f, word_rows(small_bow, [1], [(50, 50)])) for f in range(1, 4)]
    index = word_index(small_bow, small_pq, frames)
    assert 0.0 < index.idf[0] < 1.0
    ranked = local_rank(frames[0][2], index, small_bow, small_pq, tau_pq=0.72, top_n=10)
    assert ranked.entries == [(0, 1.0)]



def test_local_rank_drops_frames_scoring_zero(small_bow, small_pq, monkeypatch):
    """Only frames scoring above 0 count. Every real match scores above
    tau_pq >= 0, so a stand-in vote gives frame 0 (video 0) a score of 0
    and frame 4 (video 1) a positive one."""
    index, frames = build_corpus_index(small_bow, small_pq)
    monkeypatch.setattr(local_query, "hough_verify", lambda *args, **kwargs: {0: 0.0, 4: 0.25})
    ranked = local_rank(frames[0][2], index, small_bow, small_pq, top_n=10)
    assert ranked.video.tolist() == [1]

def test_local_rank_deterministic(small_bow, small_pq):
    index, frames = build_corpus_index(small_bow, small_pq)
    gen = np.random.default_rng(81)
    records = make_rows(gen.normal(0, 0.5, size=(10, 32)), seed=81)
    a = local_rank(records, index, small_bow, small_pq, tau_pq=0.6, top_n=20)
    b = local_rank(records, index, small_bow, small_pq, tau_pq=0.6, top_n=20)
    assert a.entries == b.entries


def test_query_score_mass_skips_stopped_words(small_bow, small_pq):
    index, frames = build_corpus_index(small_bow, small_pq, prune=0.2)
    _, _, records = frames[0]
    query = encode_query_local(records, small_bow, small_pq)
    mass = query_score_mass(query, index)
    manual = sum(float(index.idf[p.word]) for p in query if not index.stop_mask[p.word])
    assert mass == pytest.approx(manual)
