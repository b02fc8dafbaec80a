"""Local queries that leave little or nothing to match.

`local_rank` and `pipeline.query_local_file` must return a valid ranked
list, empty where nothing can match, and never raise: on a query with no
rows, one keypoint, only stopped words, words the index does not hold, or
live words without a hit above tau_pq, and on every query of a corpus with
4 keypoints per frame (the shape of the `neardup-global` benchmark
workload). `local_rank` is checked both with the PQ score table handed in,
as the benchmark and `query_local_file` call it, and building its own.
"""

from dataclasses import fields

import numpy as np
import pytest

from frameseek import (PQScoreTable, Postings, build_local_index, collect_matches,
                       encode_frame_local, encode_query_local, local_rank,
                       query_score_mass)
from frameseek.config import EngineConfig
from frameseek.fusion import LOCAL, RankedList
from frameseek.pipeline import (build_local_index_from_files, query_local_file,
                                train_codebooks)
from frameseek.storage import read_local_descriptors, write_local_descriptors
from frameseek.synth import SynthSpec, generate, write_corpus

NO_HIT_TAU = 1.0 - 1e-9
ROW_WIDTH = 132


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    root = tmp_path_factory.mktemp("guards")
    corpus = generate(SynthSpec(n_videos=24, frames_per_video=4, n_queries=24,
                                keypoints_per_frame=4, dense_per_frame=6,
                                vocab_size=256, seed=91))
    paths = write_corpus(corpus, root)
    config = EngineConfig(d_bow=32, d_pq=16, d_fk=2, pca_dim=6, binary_clusters=4,
                          train_iters=6, gmm_iters=4, prune_fraction=0.1, seed=91)
    books = train_codebooks([paths["ref_local"]], [paths["ref_global"]], config)
    index = build_local_index_from_files([paths["ref_local"]], books, config)
    return root, paths, config, books, index


def assert_valid(ranked, index, top_n):
    assert isinstance(ranked, RankedList) and ranked.channel == LOCAL
    assert len(ranked.entries) <= top_n
    videos = set(index.frame_to_video.values())
    for video, score in ranked.entries:
        assert video in videos
        assert 0.0 < score <= 1.0 + 1e-9


def rows_at(descriptors, seed=0):
    """One keypoint row per descriptor, at random in-frame geometry."""
    gen = np.random.default_rng(seed)
    n = descriptors.shape[0]
    geometry = np.column_stack([gen.uniform(100, 1100, n), gen.uniform(100, 600, n),
                                gen.uniform(-3, 3, n), gen.uniform(0, 4, n)])
    return np.hstack([geometry, descriptors]).astype(np.float32)


def stopped_rows(books, index):
    """Rows sitting on the centers of stopped words: every word is stopped."""
    rows = rows_at(books.bow.centers[np.flatnonzero(index.stop_mask)].astype(np.float64), 3)
    assert query_score_mass(encode_query_local(rows, books.bow, books.pq), index) == 0.0
    return rows


def no_hit_rows(books, index):
    """Random descriptors: live words, but no posting shares all their codes."""
    rows = rows_at(np.random.default_rng(92).normal(size=(6, ROW_WIDTH - 4)), 4)
    query = encode_query_local(rows, books.bow, books.pq)
    assert query_score_mass(query, index) > 0.0
    assert len(collect_matches(query, index, books.pq, NO_HIT_TAU)) == 0
    return rows


def ref_rows(paths):
    return read_local_descriptors(paths["ref_local"])


@pytest.mark.parametrize("prebuilt_table", [False, True])
def test_local_rank_edge_queries(engine, prebuilt_table):
    _, paths, config, books, index = engine
    frames = ref_rows(paths)
    table = PQScoreTable(books.pq) if prebuilt_table else None

    def rank(rows, tau=config.tau_pq, against=index):
        ranked = local_rank(rows, against, books.bow, books.pq, tau_pq=tau,
                            top_n=config.top_n, table=table)
        assert_valid(ranked, against, config.top_n)
        return ranked.entries

    assert rank(np.empty((0, ROW_WIDTH), dtype=np.float32)) == []
    assert any([rank(rows[:1], tau=0.5) for _, _, rows in frames[:12]])
    assert rank(stopped_rows(books, index)) == []
    assert rank(no_hit_rows(books, index), tau=NO_HIT_TAU) == []


@pytest.mark.parametrize("prebuilt_table", [False, True])
def test_local_rank_index_with_fewer_words_than_vocabulary(engine, prebuilt_table):
    _, paths, config, books, _ = engine
    frames = ref_rows(paths)
    table = PQScoreTable(books.pq) if prebuilt_table else None
    n_words = books.bow.k // 2
    postings = encode_frame_local(frames, books.bow, books.pq)
    keep = postings.word < n_words
    postings = Postings(**{f.name: getattr(postings, f.name)[keep] for f in fields(Postings)})
    small = build_local_index(postings, {fid: vid for fid, vid, _ in frames}, n_words=n_words,
                              m=books.pq.m, n_pq_centers=books.pq.n_centers,
                              prune_fraction=config.prune_fraction)
    outside = rows_at(books.bow.centers[n_words:].astype(np.float64), 5)
    for rows in [outside] + [rows for _, _, rows in frames[:12]]:
        ranked = local_rank(rows, small, books.bow, books.pq, tau_pq=config.tau_pq,
                            top_n=config.top_n, table=table)
        assert_valid(ranked, small, config.top_n)
    assert local_rank(outside, small, books.bow, books.pq, table=table).entries == []


def test_query_local_file_edge_queries(engine):
    root, paths, config, books, index = engine
    one = ref_rows(paths)[0][2][:1]
    path = root / "edge.ldsc"
    write_local_descriptors([(1, 0, np.empty((0, ROW_WIDTH), dtype=np.float32)),
                             (2, 0, one), (3, 0, stopped_rows(books, index))], path)
    runs = query_local_file(path, index, books, config)
    assert sorted(runs) == [1, 2, 3]
    for ranked in runs.values():
        assert_valid(ranked, index, config.top_n)
    assert runs[1].entries == [] and runs[3].entries == []

    path = root / "no-hit.ldsc"
    write_local_descriptors([(4, 0, no_hit_rows(books, index))], path)
    runs = query_local_file(path, index, books, config.override(tau_pq=NO_HIT_TAU))
    assert runs[4].entries == []


def test_query_local_file_four_keypoint_corpus(engine):
    _, paths, config, books, index = engine
    runs = query_local_file(paths["query_local"], index, books, config)
    assert sorted(runs) == sorted(fid for fid, _, _ in read_local_descriptors(paths["query_local"]))
    for ranked in runs.values():
        assert_valid(ranked, index, config.top_n)
    assert any(ranked.entries for ranked in runs.values())
