import numpy as np
import pytest

from conftest import signature_codes_oracle
from frameseek import (fisher_vector, gmm_train, make_signature, pca_fit, pca_project,
                       pipeline)
from frameseek.config import EngineConfig, load_config_file
from frameseek.pipeline import (SIGNATURE_BLOCK_ROWS, _frame_blocks,
                                _sample_index, _sample_rows, _signature_codes,
                                build_global_index_from_files,
                                build_local_index_from_files,
                                check_compatible_global,
                                check_compatible_local, query_global_file,
                                query_local_file, train_codebooks)
from frameseek.storage import (read_global_features, read_local_descriptors,
                               write_codebooks, write_global_features,
                               write_local_descriptors)
from frameseek.synth import SynthSpec, generate, write_corpus


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    corpus = generate(SynthSpec(n_videos=6, frames_per_video=2, n_queries=2,
                                keypoints_per_frame=10, dense_per_frame=6, seed=55))
    paths = write_corpus(corpus, root)
    config = EngineConfig(d_bow=16, d_pq=8, d_fk=2, pca_dim=6, binary_clusters=4,
                          train_iters=8, gmm_iters=10, seed=55)
    books = train_codebooks([paths["ref_local"]], [paths["ref_global"]], config)
    return paths, config, books


@pytest.mark.parametrize("cap", [1, 5, 17, 40])
def test_sampled_rows_equal_joined_then_subsampled(cap):
    gen = np.random.default_rng(56)
    frames = [(fid, 0, gen.normal(size=(n, 3)).astype(np.float32))
              for fid, n in enumerate([4, 0, 7, 1, 5])]
    joined = np.concatenate([rows for _, _, rows in frames])
    rng_rows, rng_joined = np.random.default_rng(cap), np.random.default_rng(cap)
    got = _sample_rows(iter(frames), joined.shape[0], cap, rng_rows)
    want = joined[_sample_index(joined.shape[0], cap, rng_joined)]
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, want)
    assert rng_rows.bit_generator.state == rng_joined.bit_generator.state


def test_sampling_streams_every_frame_past_the_last_drawn_row():
    """The frames after the last drawn row are still read, so a fault in
    them is found although training takes no row of theirs."""
    frames = [(fid, 0, np.full((3, 2), fid, dtype=np.float32)) for fid in range(6)]
    streamed = []

    def stream():
        for frame in frames:
            streamed.append(frame[0])
            yield frame

    sample = _sample_rows(stream(), 18, 1, np.random.default_rng(1))
    assert sample.tolist() == [[2.0, 2.0]]  # row 8, in frame 2
    assert streamed == list(range(6))


def test_training_on_featureless_global_frames_names_the_cause(trained, tmp_path):
    paths, config, _ = trained
    empty = tmp_path / "empty.gdsc"
    write_global_features([(0, 0, np.empty((0, 384), dtype=np.float32))], empty)
    with pytest.raises(ValueError, match="need more samples than output dimensions"):
        train_codebooks([paths["ref_local"]], [empty], config)


def test_empty_pca_set_fails_before_any_training(trained, monkeypatch):
    paths, config, _ = trained

    def no_training(*args, **kwargs):
        raise AssertionError("k-means ran before the PCA set was checked")

    monkeypatch.setattr(pipeline, "kmeans_train", no_training)
    with pytest.raises(ValueError, match=r"no PCA features \(\.gdsc\) to train on"):
        train_codebooks([paths["ref_local"]], [paths["ref_global"]], config, pca_files=[])


def test_compatibility_error_names_both_parameter_sets(trained):
    paths, config, books = trained
    local_index = build_local_index_from_files([paths["ref_local"]], books, config)
    global_index = build_global_index_from_files([paths["ref_global"]], books, config)
    check_compatible_local(books, local_index)
    check_compatible_global(books, global_index)

    local_index.n_words = 999
    with pytest.raises(ValueError, match=r"D_bow=16.*D_bow=999"):
        check_compatible_local(books, local_index)

    global_index.n_gmm_components = 7
    with pytest.raises(ValueError, match=r"D_fk=2.*D_fk=7"):
        check_compatible_global(books, global_index)


def test_index_build_independent_of_thread_count(trained):
    paths, config, books = trained
    one = build_local_index_from_files([paths["ref_local"]], books,
                                       config.override(threads=1))
    four = build_local_index_from_files([paths["ref_local"]], books,
                                        config.override(threads=4))
    assert one.frame_to_video == four.frame_to_video
    for word in one.postings:
        np.testing.assert_array_equal(one.postings[word]["codes"],
                                      four.postings[word]["codes"])
        np.testing.assert_array_equal(one.postings[word]["frame"],
                                      four.postings[word]["frame"])


def test_frame_without_features_rejected_at_signature_time(trained, tmp_path):
    paths, config, books = trained
    frames = read_global_features(paths["ref_global"])
    empty = (max(fid for fid, _, _ in frames) + 1, 0, np.empty((0, 384), dtype=np.float32))
    bad = tmp_path / "empty_frame.gdsc"
    for sequence in ([empty], frames[:5] + [empty] + frames[5:]):  # alone and in mid-file
        write_global_features(sequence, bad)
        with pytest.raises(ValueError, match="empty frame"):
            build_global_index_from_files([bad], books, config)


# --- the blocked signature pass ---------------------------------------------

@pytest.fixture(scope="module")
def signature_models():
    gen = np.random.default_rng(57)
    samples = gen.normal(size=(1500, 384))
    pca = pca_fit(samples, 6)
    return pca, gmm_train(pca_project(pca, samples), 3, iters=5, seed=57)


BLOCK = SIGNATURE_BLOCK_ROWS
SIGNATURE_SIZES = {
    "one_row": [1] * (2 * BLOCK + 5),
    "mixed": np.random.default_rng(58).integers(1, 60, size=150).tolist(),
    "larger_than_block": [BLOCK + 1, 3, 7, BLOCK + 300, 2, 5],
    "straddling": [BLOCK - 1, 1, 1, BLOCK - 2, 3, BLOCK, BLOCK + 1, 1, BLOCK // 2, BLOCK // 2 + 1],
}


@pytest.mark.parametrize("frames_per_block", [None, 5])
@pytest.mark.parametrize("case", SIGNATURE_SIZES)
def test_signature_codes_equal_per_frame_oracle(signature_models, monkeypatch, case,
                                                frames_per_block):
    pca, gmm = signature_models
    if frames_per_block:
        monkeypatch.setattr(pipeline, "SIGNATURE_BLOCK_FLOATS",
                            frames_per_block * gmm.n_components * gmm.d)
    gen = np.random.default_rng(59)
    frames = [(fid, fid // 4, gen.normal(size=(n, 384)).astype(np.float32))
              for fid, n in enumerate(SIGNATURE_SIZES[case])]
    np.testing.assert_array_equal(_signature_codes(frames, pca, gmm),
                                  signature_codes_oracle(frames, pca, gmm))


def test_frame_coded_alone_equals_its_code_in_a_full_block():
    """At the neardup-global shapes (384 -> 64 PCA, 64 components, 16-row
    frames), an indexed frame coded alone, as a query is, gets the code it
    has inside a full block of the index build: an exact duplicate of an
    indexed frame must find its own code."""
    corpus = generate(SynthSpec(n_videos=10, frames_per_video=8, n_queries=1,
                                keypoints_per_frame=1, dense_per_frame=16, seed=62))
    frames = corpus.ref_global
    features = np.concatenate([feats for _, _, feats in frames]).astype(np.float64)
    pca = pca_fit(features, 64)
    gmm = gmm_train(pca_project(pca, features), 64, iters=3, seed=62)
    blocks = list(_frame_blocks(frames, pipeline.SIGNATURE_BLOCK_FLOATS // 4096))
    assert {len(block) for block in blocks} == {BLOCK // 16}  # every block is full
    codes = _signature_codes(frames, pca, gmm)
    for (fid, vid, feats), code in zip(frames, codes):
        np.testing.assert_array_equal(
            make_signature(fid, vid, fisher_vector(pca_project(pca, feats), gmm)).bits, code)
        np.testing.assert_array_equal(_signature_codes([(fid, vid, feats)], pca, gmm)[0], code)


@pytest.mark.parametrize("max_frames", [1, 4, 10 ** 6])
def test_frame_blocks_are_maximal_runs_within_budget(max_frames):
    sizes = [BLOCK + 7, 0, 5, BLOCK, 0, 0, BLOCK + 7, 1, 2] + [BLOCK // 3] * 7 + [0, 1] * 9
    frames = ((i, 0, np.empty((n, 0))) for i, n in enumerate(sizes))  # streamed once
    blocks = [(block[0][0], block[-1][0] + 1) for block in _frame_blocks(frames, max_frames)]
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
    assert blocks[-1][1] == len(sizes)
    for lo, hi in blocks:
        rows = sum(sizes[lo:hi])
        assert 0 < hi - lo <= max_frames
        assert hi - lo == 1 or rows <= BLOCK
        assert len(set(sizes[lo:hi])) == 1
        if hi < len(sizes):  # the next frame has another size or would break a budget
            assert (sizes[hi] != sizes[lo] or hi - lo == max_frames
                    or rows + sizes[hi] > BLOCK)
    assert list(_frame_blocks([], max_frames)) == []


def test_engine_config_override_and_file(tmp_path):
    config = EngineConfig()
    assert config.d_bow == 10000 and config.d_fk == 256 and config.tau_pq == 0.72
    assert config.k_probe == 5 and config.epsilon == 0.01 and config.warmup == 10
    updated = config.override(d_bow=64, seed=9)
    assert updated.d_bow == 64 and updated.seed == 9 and config.d_bow == 10000
    with pytest.raises(ValueError, match="unknown config key"):
        config.override(nope=1)

    cfg = tmp_path / "e.cfg"
    cfg.write_text("# comment\nd_bow=128\ntau_pq=0.66\n")
    assert load_config_file(cfg) == {"d_bow": 128, "tau_pq": 0.66}


CHANNELS = {
    "local": (read_local_descriptors, write_local_descriptors, ".ldsc",
              build_local_index_from_files),
    "global": (read_global_features, write_global_features, ".gdsc",
               build_global_index_from_files),
}


def reference_frames(paths, channel):
    read = CHANNELS[channel][0]
    return read(paths["ref_" + channel])


@pytest.mark.parametrize("channel", ["local", "global"])
def test_build_rejects_frame_id_repeated_within_file(trained, tmp_path, channel):
    paths, config, books = trained
    _, write, suffix, build = CHANNELS[channel]
    frames = reference_frames(paths, channel)
    bad = tmp_path / ("repeat" + suffix)
    write(frames[:3] + [(frames[1][0], 5, frames[3][2])], bad)
    with pytest.raises(ValueError, match=f"repeat{suffix}: duplicate frame id {frames[1][0]}"):
        build([bad], books, config)


@pytest.mark.parametrize("channel", ["local", "global"])
def test_build_rejects_frame_id_repeated_across_files(trained, tmp_path, channel):
    paths, config, books = trained
    _, write, suffix, build = CHANNELS[channel]
    frames = reference_frames(paths, channel)
    first, second = tmp_path / ("a" + suffix), tmp_path / ("b" + suffix)
    write(frames[:4], first)
    write(frames[4:6] + [(frames[0][0], 3, frames[0][2])], second)
    with pytest.raises(ValueError, match=f"b{suffix}: duplicate frame id {frames[0][0]}"):
        build([first, second], books, config)
    write(frames[4:], second)  # disjoint ids are accepted
    split = build([first, second], books, config)
    indexed = split.n_frames if channel == "local" else split.n_signatures
    assert indexed == len(frames)


@pytest.mark.parametrize("channel", ["local", "global"])
def test_training_rejects_frame_id_repeated_within_a_set(trained, tmp_path, channel):
    paths, config, books = trained
    _, write, suffix, _ = CHANNELS[channel]
    frames = reference_frames(paths, channel)
    first, second = tmp_path / ("a" + suffix), tmp_path / ("b" + suffix)
    write(frames[:5], first)
    write(frames[5:] + [(frames[2][0], 3, frames[2][2])], second)
    sets = {"local": [paths["ref_local"]], "global": [paths["ref_global"]]}
    sets[channel] = [first, second]
    with pytest.raises(ValueError, match=f"b{suffix}: duplicate frame id {frames[2][0]}"):
        train_codebooks(sets["local"], sets["global"], config)
    if channel == "global":  # the PCA set is checked on its own
        with pytest.raises(ValueError, match=f"b{suffix}: duplicate frame id {frames[2][0]}"):
            train_codebooks([paths["ref_local"]], [paths["ref_global"]], config,
                            pca_files=[first, second])
    # disjoint ids split over two files train the same bundle as one file
    write(frames[5:], second)
    split = train_codebooks(sets["local"], sets["global"], config)
    write_codebooks(split, tmp_path / "split.i2vc")
    write_codebooks(books, tmp_path / "whole.i2vc")
    assert (tmp_path / "split.i2vc").read_bytes() == (tmp_path / "whole.i2vc").read_bytes()


@pytest.mark.parametrize("channel", ["local", "global"])
def test_query_file_rejects_repeated_query_id(trained, tmp_path, channel):
    paths, config, books = trained
    read, write, suffix, build = CHANNELS[channel]
    index = build([paths["ref_" + channel]], books, config)
    queries = read(paths["query_" + channel])
    bad = tmp_path / ("queries" + suffix)
    write(queries + [queries[0]], bad)
    query = query_local_file if channel == "local" else query_global_file
    with pytest.raises(ValueError, match=f"queries{suffix}: duplicate frame id {queries[0][0]}"):
        query(bad, index, books, config)
