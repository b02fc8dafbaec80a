"""The benchmark reaches into frameseek in two ways: its tracer wraps
functions by module attribute name, and bench/run.py reads a few result
attributes directly. A renamed or removed name would crash every benchmark
run, so both surfaces are checked here."""

import importlib

import numpy as np
import pytest

from conftest import load_bench_module
from frameseek import (BinaryCenters, EngineConfig, FrameGeometry, HoughConfig,
                       PQScoreTable, build_global_index, build_local_index,
                       encode_frame_local, encode_query_local, local_rank,
                       make_signature, pipeline)
from frameseek.bits import pack_bits
from frameseek.storage import (read_local_descriptors, write_codebooks,
                               write_global_index)
from frameseek.synth import SynthSpec, generate, write_corpus

def test_every_tracing_target_exists():
    tracing = load_bench_module("tracing")
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for module, attr, _, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_engine_config_accepts_every_workload():
    workloads = load_bench_module("workloads").WORKLOADS
    assert workloads
    for workload in workloads.values():
        config = EngineConfig(seed=7, threads=1, **workload.config)
        assert (config.seed, config.threads) == (7, 1)


def test_global_results_read_by_the_benchmark():
    gen = np.random.default_rng(31)
    signature = make_signature(0, 0, gen.normal(size=24))
    assert signature.bits.dtype == np.uint8 and signature.bits.shape == (3,)
    centers = BinaryCenters(centers=pack_bits(gen.integers(0, 2, size=(4, 24)).astype(np.uint8)),
                            n_bits=24)
    index = build_global_index(np.arange(10), np.arange(10) // 2,
                               pack_bits(gen.integers(0, 2, size=(10, 24)).astype(np.uint8)),
                               centers)
    assert index.n_signatures == 10
    sizes = [index.clusters[j]["frame"].shape[0] for j in range(centers.k)]
    assert index.cluster_sizes().tolist() == sizes
    for j in range(centers.k):
        cluster = index.clusters[j]
        assert cluster["video"].shape == (sizes[j],)
        assert cluster["codes"].shape == (sizes[j], 3)


def test_local_results_read_by_the_benchmark(small_bow, small_pq):
    gen = np.random.default_rng(32)
    frames = [(f, f // 2, gen.normal(size=(10, 36)).astype(np.float32)) for f in range(4)]
    index = build_local_index(encode_frame_local(frames, small_bow, small_pq),
                              {f: v for f, v, _ in frames}, n_words=small_bow.k,
                              m=small_pq.m, n_pq_centers=small_pq.n_centers,
                              prune_fraction=0.0)
    scanned = 0
    for posting in encode_query_local(frames[0][2], small_bow, small_pq):
        postings = index.postings.get(posting.word)
        if postings is not None:
            scanned += postings["frame"].shape[0]
    assert scanned > 0
    # the per-word view is the CSR slices, and the posting count their total
    offsets = index.word_offsets
    assert index.n_postings() == offsets[-1] == sum(
        arrs["frame"].shape[0] for arrs in index.postings.values())
    assert list(index.postings) == np.flatnonzero(np.diff(offsets)).tolist()
    for word, arrs in index.postings.items():
        lo, hi = offsets[word], offsets[word + 1]
        np.testing.assert_array_equal(arrs["codes"], index.codes[:, lo:hi].T)
        for name in ("qx", "qy", "qtheta", "qscale", "frame"):
            np.testing.assert_array_equal(arrs[name], getattr(index, name)[lo:hi])
    with pytest.raises((AttributeError, TypeError)):
        index.postings = {}
    with pytest.raises(TypeError):
        index.postings[0] = {}


def test_benchmark_local_call_equals_query_local_file(tmp_path):
    """bench/run.py calls `local_rank` with the keywords below, one frame at
    a time; the ranking must equal the engine's own file query."""
    paths = write_corpus(generate(SynthSpec(n_videos=6, frames_per_video=3, n_queries=4,
                                            keypoints_per_frame=12, dense_per_frame=4,
                                            frame_width=640, frame_height=480, seed=62)),
                         tmp_path / "corpus")
    cfg = EngineConfig(d_bow=16, d_pq=8, d_fk=2, pca_dim=6, binary_clusters=4,
                       train_iters=4, gmm_iters=4, tau_pq=0.6, top_n=3,
                       frame_width=640, frame_height=480, seed=62)
    books = pipeline.train_codebooks([paths["ref_local"]], [paths["ref_global"]], cfg)
    local_index = pipeline.build_local_index_from_files([paths["ref_local"]], books, cfg)
    table = PQScoreTable(books.pq)
    geometry = FrameGeometry(cfg.frame_width, cfg.frame_height)
    hough = HoughConfig()
    want = pipeline.query_local_file(paths["query_local"], local_index, books, cfg)
    queries = read_local_descriptors(paths["query_local"])
    assert sorted(want) == sorted(qid for qid, _, _ in queries)
    for qid, _, records in queries:
        local = local_rank(
            records, local_index, books.bow, books.pq, tau_pq=cfg.tau_pq,
            top_n=cfg.top_n, hough=hough, query_geometry=geometry, table=table)
        assert local == want[qid]
    assert any(ranked.entries for ranked in want.values())


def test_traced_signature_pass_records_time_and_same_outputs(tmp_path):
    tracing = load_bench_module("tracing")
    paths = write_corpus(generate(SynthSpec(n_videos=6, frames_per_video=3, n_queries=2,
                                            keypoints_per_frame=10, dense_per_frame=6,
                                            seed=61)), tmp_path / "corpus")
    config = EngineConfig(d_bow=16, d_pq=8, d_fk=2, pca_dim=6, binary_clusters=4,
                          train_iters=4, gmm_iters=4, seed=61)

    def set_up(tracer, name):
        with tracer.span("codebooks.train"):
            books = pipeline.train_codebooks([paths["ref_local"]], [paths["ref_global"]],
                                             config)
        with tracer.span("global_index.from_files"):
            index = pipeline.build_global_index_from_files([paths["ref_global"]], books,
                                                           config)
        write_codebooks(books, tmp_path / f"{name}.i2vc")
        write_global_index(index, tmp_path / f"{name}.gidx")

    tracer = tracing.Tracer()
    set_up(tracer, "plain")
    tracer.install({name: importlib.import_module(name) for name in (
        "frameseek.pipeline", "frameseek.local_query", "frameseek.global_query",
        "frameseek.fusion")})
    try:
        set_up(tracer, "traced")
    finally:
        tracer.uninstall()
    self_times = tracer.self_times()
    train, = tracer.roots("codebooks.train")
    build, = tracer.roots("global_index.from_files")
    assert self_times[train]["codebooks.fisher_pool"] > 0
    assert self_times[build]["global_index.signature"] > 0
    for suffix in (".i2vc", ".gidx"):
        assert (tmp_path / f"traced{suffix}").read_bytes() == \
            (tmp_path / f"plain{suffix}").read_bytes()
