"""Training and index builds read their descriptor files as streams: a fault
raises the reader's own message wherever the stream meets it, and the memory
a set-up holds does not grow with the files."""

import tracemalloc

import numpy as np
import pytest

from frameseek import local_index, storage
from frameseek.cli import main
from frameseek.config import EngineConfig
from frameseek.pipeline import (build_global_index_from_files,
                                build_local_index_from_files, train_codebooks)
from frameseek.storage import (FileFormatError, read_global_features,
                               read_local_descriptors, write_codebooks,
                               write_global_features, write_local_descriptors)
from frameseek.synth import SynthSpec, generate, write_corpus

SMALL_CHUNK = 4096  # bytes: the set-ups below read each file in several chunks
TRAIN_FLAGS = ["--d-bow", "16", "--d-pq", "8", "--d-fk", "2", "--pca-dim", "6",
               "--binary-clusters", "4", "--iters", "8", "--seed", "55"]
CHANNELS = {"local": (read_local_descriptors, write_local_descriptors, ".ldsc",
                      build_local_index_from_files),
            "global": (read_global_features, write_global_features, ".gdsc",
                       build_global_index_from_files)}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("stream")
    corpus = generate(SynthSpec(n_videos=6, frames_per_video=4, n_queries=1,
                                keypoints_per_frame=10, dense_per_frame=6, seed=55))
    paths = write_corpus(corpus, root)
    config = EngineConfig(d_bow=16, d_pq=8, d_fk=2, pca_dim=6, binary_clusters=4,
                          train_iters=8, gmm_iters=10, seed=55)
    books = train_codebooks([paths["ref_local"]], [paths["ref_global"]], config)
    write_codebooks(books, root / "books.i2vc")
    return paths, config, books, root / "books.i2vc"


def faulty_files(paths, channel, fault, root):
    """The reference frames of a channel split over two files, the fault in
    the second, and the error the readers raise for it."""
    read, write, suffix, _ = CHANNELS[channel]
    frames = read(paths["ref_" + channel])
    first, second = root / ("a" + suffix), root / ("b" + suffix)
    write(frames[:10], first)
    rest = frames[10:]
    if fault == "duplicate":  # the last frame repeats an id of the first file
        rest = rest + [(frames[3][0], 9, frames[3][2])]
        error = (ValueError, f"{second}: duplicate frame id {frames[3][0]}")
    elif fault == "non_finite":  # in the last frame
        rows = rest[-1][2].copy()
        rows[-1, -1] = np.nan
        rest[-1] = (rest[-1][0], rest[-1][1], rows)
        error = (FileFormatError, f"{second}: frame {rest[-1][0]} holds a non-finite value")
    write(rest, second)
    if fault == "truncated":  # the last frame's last value is cut off
        second.write_bytes(second.read_bytes()[:-4])
        error = (FileFormatError, f"{second}: truncated file")
    return [first, second], error


FAULTS = ["truncated", "non_finite", "duplicate"]


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_fault_raises_the_readers_error_through_every_setup(trained, tmp_path, monkeypatch,
                                                            channel, fault):
    paths, config, books, _ = trained
    monkeypatch.setattr(storage, "READ_CHUNK_BYTES", SMALL_CHUNK)
    files, (kind, message) = faulty_files(paths, channel, fault, tmp_path)
    sets = {"local": [paths["ref_local"]], "global": [paths["ref_global"]]}
    sets[channel] = files
    # samples of 40 rows, so most frames, the faulty one included, lend
    # training no row: the fault must be found all the same
    sampled = config.override(max_train_samples=40)
    with pytest.raises(kind) as caught:
        train_codebooks(sets["local"], sets["global"], sampled)
    assert str(caught.value) == message
    if channel == "global":  # the faulty files as the PCA set alone
        with pytest.raises(kind) as caught:
            train_codebooks([paths["ref_local"]], [paths["ref_global"]], sampled,
                            pca_files=files)
        assert str(caught.value) == message
    with pytest.raises(kind) as caught:
        CHANNELS[channel][3](files, books, config)
    assert str(caught.value) == message


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_fault_gives_one_error_line_and_no_file_from_the_cli(trained, tmp_path, monkeypatch,
                                                             capsys, channel, fault):
    paths, _, _, books_path = trained
    monkeypatch.setattr(storage, "READ_CHUNK_BYTES", SMALL_CHUNK)
    files, (_, message) = faulty_files(paths, channel, fault, tmp_path)
    other = paths["ref_global" if channel == "local" else "ref_local"]
    out = tmp_path / "out"
    commands = [["train", "--features", *map(str, files), str(other), "--out", str(out),
                 *TRAIN_FLAGS],
                [f"index-{channel}", "--codebooks", str(books_path),
                 "--features", *map(str, files), "--out", str(out)]]
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error={message}\n" and captured.out == ""
        assert not out.exists()


# --- memory -------------------------------------------------------------------

MEMORY_CONFIG = EngineConfig(d_bow=8, m=4, d_pq=4, d_fk=2, pca_dim=4, binary_clusters=2,
                             train_iters=2, gmm_iters=2, max_train_samples=300, seed=3)
KEYPOINTS, DENSE = 40, 8  # rows per frame: 21 KB of LDSC and 12 KB of GDSC


def corpus_files(root, n_frames):
    gen = np.random.default_rng(n_frames)
    local = [(fid, fid // 4, gen.normal(size=(KEYPOINTS, 132)).astype(np.float32))
             for fid in range(n_frames)]
    global_ = [(fid, fid // 4, gen.normal(size=(DENSE, 384)).astype(np.float32))
               for fid in range(n_frames)]
    root.mkdir()
    write_local_descriptors(local, root / "refs.ldsc")
    write_global_features(global_, root / "refs.gdsc")
    return root / "refs.ldsc", root / "refs.gdsc"


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def index_bytes(index) -> int:
    return sum(getattr(index, name).nbytes for name in (
        "codes", "qx", "qy", "qtheta", "qscale", "frame", "word_offsets"))


def test_setup_memory_does_not_grow_with_the_descriptor_files(tmp_path, monkeypatch):
    """Doubling the corpus (2.5 MB more of descriptor files) leaves the
    traced peak of training where it was, and grows the local build's only
    by a small multiple of what the index itself grows by: the postings, the
    order that sorts them and the sorted columns, never the descriptors."""
    monkeypatch.setattr(storage, "READ_CHUNK_BYTES", SMALL_CHUNK)
    # blocks of 256 rows, so what waits to be encoded is small next to 1,600
    # and 3,200 keypoints
    monkeypatch.setattr(local_index, "ENCODE_BLOCK_ROWS", 256)
    peaks = {}
    for n_frames in (40, 80):
        ldsc, gdsc = corpus_files(tmp_path / str(n_frames), n_frames)
        train_peak, books = traced_peak(train_codebooks, [ldsc], [gdsc], MEMORY_CONFIG)
        build_peak, index = traced_peak(build_local_index_from_files, [ldsc], books,
                                        MEMORY_CONFIG)
        files = ldsc.stat().st_size + gdsc.stat().st_size
        peaks[n_frames] = files, train_peak, build_peak, index_bytes(index)
    (files_1, train_1, build_1, index_1), (files_2, train_2, build_2, index_2) = peaks.values()
    assert files_2 - files_1 > 1_000_000
    assert train_2 - train_1 < 64 * 1024
    assert build_2 - build_1 < 8 * (index_2 - index_1) + 64 * 1024
