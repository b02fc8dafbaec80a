import numpy as np
import pytest

from frameseek.config import EngineConfig, load_config_file
from frameseek.pipeline import (_sample_index, _sample_rows,
                                build_global_index_from_files,
                                build_local_index_from_files,
                                check_compatible_global,
                                check_compatible_local, query_global_file,
                                query_local_file, train_codebooks)
from frameseek.storage import (read_global_features, read_local_descriptors,
                               write_global_features, write_local_descriptors)
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
    joined = np.concatenate([rows for _, _, rows in frames]).astype(np.float64)
    rng_rows, rng_joined = np.random.default_rng(cap), np.random.default_rng(cap)
    got = _sample_rows(frames, cap, rng_rows)
    want = joined[_sample_index(joined.shape[0], cap, rng_joined)]
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want)
    assert rng_rows.bit_generator.state == rng_joined.bit_generator.state


def test_training_on_featureless_global_frames_names_the_cause(trained, tmp_path):
    paths, config, _ = trained
    empty = tmp_path / "empty.gdsc"
    write_global_features([(0, 0, np.empty((0, 384), dtype=np.float32))], empty)
    with pytest.raises(ValueError, match="need more samples than output dimensions"):
        train_codebooks([paths["ref_local"]], [empty], config)


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
    from frameseek.storage import write_global_features
    paths, config, books = trained
    bad = tmp_path / "empty_frame.gdsc"
    write_global_features([(0, 0, np.empty((0, 384), dtype=np.float32))], bad)
    with pytest.raises(ValueError, match="empty frame"):
        build_global_index_from_files([bad], books, config)


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
