import math

import pytest

from conftest import MatchCandidate, matches_from_rows
from frameseek import hough_verify
from frameseek.geometry import FrameGeometry, wrap_angle
from frameseek.synth import SynthSpec, generate, write_corpus


def test_fixed_seed_reproduces_corpus_bytes(tmp_path):
    spec = SynthSpec(n_videos=6, frames_per_video=2, n_queries=3, seed=42)
    d1, d2 = tmp_path / "one", tmp_path / "two"
    p1 = write_corpus(generate(spec), d1)
    p2 = write_corpus(generate(spec), d2)
    for role in p1:
        assert p1[role].read_bytes() == p2[role].read_bytes()


def test_more_queries_than_videos_rejected():
    with pytest.raises(ValueError, match="9 queries exceed 5 videos"):
        generate(SynthSpec(n_videos=5, n_queries=9))


def test_corpus_shape_and_ground_truth():
    spec = SynthSpec(n_videos=8, frames_per_video=3, n_queries=4,
                     keypoints_per_frame=10, dense_per_frame=5, seed=1)
    corpus = generate(spec)
    assert len(corpus.ref_local) == 24 and len(corpus.ref_global) == 24
    assert len(corpus.query_local) == 4
    assert set(corpus.ground_truth) == {q for q, _, _ in corpus.query_local}
    for t in corpus.transforms:
        assert corpus.ground_truth[t.query_id] == {t.source_video}
        assert t.source_frame // spec.frames_per_video == t.source_video


def test_planted_transform_verifiable_by_hough():
    spec = SynthSpec(n_videos=5, frames_per_video=2, n_queries=2,
                     keypoints_per_frame=12, seed=3)
    corpus = generate(spec)
    by_frame = {fid: records for fid, _, records in corpus.ref_local}
    by_query = {fid: records for fid, _, records in corpus.query_local}
    for t in corpus.transforms:
        ref = by_frame[t.source_frame]
        query = by_query[t.query_id]
        cands = []
        for i, (q, r) in enumerate(zip(query, ref)):
            cands.append(MatchCandidate(
                frame_id=t.source_frame, query_index=i, score=1.0,
                qx=q.x, qy=q.y, qtheta=q.theta, qlog_scale=q.log_scale,
                rx=r.x, ry=r.y, rtheta=r.theta, rlog_scale=r.log_scale))
        scores = hough_verify(matches_from_rows(cands), query_diagonal=FrameGeometry().diagonal)
        # all planted pairs share the same exact transform: one bin holds all
        assert scores[t.source_frame] == pytest.approx(len(query))
        # and the recovered per-pair parameters equal the logged transform
        q, r = query[0], ref[0]
        assert wrap_angle(q.theta - r.theta) == pytest.approx(t.theta, abs=1e-9)
        assert 2.0 ** (q.log_scale - r.log_scale) == pytest.approx(t.scale, rel=1e-9)
        got_tx = q.x - t.scale * (math.cos(t.theta) * r.x - math.sin(t.theta) * r.y)
        assert got_tx == pytest.approx(t.tx, abs=1e-6)


def test_distractor_keypoints_appended():
    spec = SynthSpec(n_videos=4, frames_per_video=2, n_queries=2,
                     keypoints_per_frame=8, distractor_keypoints=5, seed=4)
    corpus = generate(spec)
    for _, _, records in corpus.query_local:
        assert len(records) == 13


def test_transform_log_matches_file(tmp_path):
    spec = SynthSpec(n_videos=4, frames_per_video=2, n_queries=2, seed=5)
    corpus = generate(spec)
    paths = write_corpus(corpus, tmp_path / "c")
    lines = paths["transforms"].read_text().splitlines()
    assert lines[0].startswith("query_id")
    assert len(lines) == 1 + len(corpus.transforms)
    first = lines[1].split("\t")
    assert int(first[0]) == corpus.transforms[0].query_id
    assert float(first[3]) == pytest.approx(corpus.transforms[0].theta)
