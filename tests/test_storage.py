import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frameseek import (BinaryCenters, CodebookSet, FrameGeometry, KMeansModel, LocalRecord,
                       PQModel, Postings, binary_centers_train, build_global_index,
                       build_local_index, encode_frame_local, gmm_train,
                       make_signature, pca_fit, pq_train, records_to_rows)
from frameseek.bits import pack_bits, packed_length
from frameseek.local_index import POSTING_DTYPES
from frameseek import storage
from frameseek.storage import (FileFormatError, read_codebooks,
                               read_global_features, read_global_index,
                               read_ground_truth, read_local_descriptors,
                               read_local_index, read_run, write_codebooks,
                               write_global_features, write_global_index,
                               write_ground_truth, write_local_descriptors,
                               write_local_index, write_run)


@pytest.fixture(scope="module")
def books(small_bow, small_pq):
    gen = np.random.default_rng(110)
    pca = pca_fit(gen.normal(size=(100, 12)), d_out=4)
    gmm = gmm_train(gen.normal(size=(200, 4)), 2, iters=15, seed=110)
    centers = binary_centers_train(pack_bits(gen.integers(0, 2, size=(100, 8)).astype(np.uint8)),
                                   8, k=4, iters=10, seed=110)
    return CodebookSet(bow=small_bow, pq=small_pq, pca=pca, gmm=gmm,
                       binary_centers=centers)


def random_frames(gen, n_frames=4, keypoints=6):
    frames = []
    for fid in range(n_frames):
        records = [
            LocalRecord(frame_id=fid, video_id=fid // 2,
                        x=float(gen.uniform(0, 1280)), y=float(gen.uniform(0, 720)),
                        theta=float(gen.uniform(-math.pi, math.pi)),
                        log_scale=float(gen.uniform(0, 4)),
                        descriptor=gen.normal(size=128).astype(np.float32))
            for _ in range(keypoints)
        ]
        frames.append((fid, fid // 2, records))
    return frames


# --- codebook bundle ------------------------------------------------------

def test_codebooks_roundtrip_byte_identical(books, tmp_path):
    p1, p2 = tmp_path / "a.i2vc", tmp_path / "b.i2vc"
    write_codebooks(books, p1)
    loaded = read_codebooks(p1)
    write_codebooks(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(loaded.bow.centers, books.bow.centers)
    np.testing.assert_array_equal(loaded.binary_centers.centers,
                                  books.binary_centers.centers)
    assert loaded.pq.n_centers == books.pq.n_centers


def test_codebooks_magic_and_version():
    assert storage.MAGIC_CODEBOOK == b"I2VC"
    assert storage.FORMAT_VERSION == 1


def test_codebooks_bad_magic(tmp_path, books):
    p = tmp_path / "bad.i2vc"
    write_codebooks(books, p)
    data = bytearray(p.read_bytes())
    data[:4] = b"NOPE"
    p.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="bad magic"):
        read_codebooks(p)


def test_codebooks_version_mismatch_names_both(tmp_path, books):
    p = tmp_path / "future.i2vc"
    write_codebooks(books, p)
    data = bytearray(p.read_bytes())
    data[4:6] = struct.pack("<H", 9)
    p.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match="version 9.*version 1"):
        read_codebooks(p)


def test_codebooks_more_than_256_pq_centers_rejected(tmp_path, books):
    gen = np.random.default_rng(119)
    sub_dim = books.pq.sub_models[0].centers.shape[1]
    pq = PQModel(sub_models=[KMeansModel(centers=gen.normal(size=(300, sub_dim)))
                             for _ in range(books.pq.m)],
                 max_dist=np.ones(books.pq.m))
    p = tmp_path / "wide.i2vc"
    write_codebooks(CodebookSet(bow=books.bow, pq=pq, pca=books.pca, gmm=books.gmm,
                                binary_centers=books.binary_centers), p)
    with pytest.raises(FileFormatError, match=rf"^{re.escape(str(p))}: PQ block has 300 centers "
                                              r"per subspace, outside \[2, 256\]"):
        read_codebooks(p)


def test_codebooks_binary_center_pad_bits_rejected(tmp_path, books):
    centers = BinaryCenters(centers=pack_bits(np.eye(4, 12, dtype=np.uint8)), n_bits=12)
    p = tmp_path / "pad.i2vc"
    write_codebooks(CodebookSet(bow=books.bow, pq=books.pq, pca=books.pca, gmm=books.gmm,
                                binary_centers=centers), p)
    np.testing.assert_array_equal(read_codebooks(p).binary_centers.centers, centers.centers)
    data = bytearray(p.read_bytes())
    data[-1] |= 0x10  # the binary block comes last: bit 12 of the last center
    p.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match=rf"^{re.escape(str(p))}: a binary code sets "
                                              r"bits past its 12-bit length"):
        read_codebooks(p)


def test_codebooks_truncated(tmp_path, books):
    p = tmp_path / "cut.i2vc"
    write_codebooks(books, p)
    p.write_bytes(p.read_bytes()[:50])
    with pytest.raises(FileFormatError, match="truncated"):
        read_codebooks(p)


# --- descriptor files ---------------------------------------------------------

def test_local_descriptors_roundtrip(tmp_path):
    gen = np.random.default_rng(111)
    frames = random_frames(gen)
    p1, p2 = tmp_path / "a.ldsc", tmp_path / "b.ldsc"
    write_local_descriptors([(f, v, records_to_rows(r)) for f, v, r in frames], p1)
    loaded = read_local_descriptors(p1)
    write_local_descriptors(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(loaded) == len(frames)
    got = loaded[2][2][3]
    want = frames[2][2][3]
    assert loaded[2][:2] == (want.frame_id, want.video_id)
    np.testing.assert_allclose(got[0], want.x, rtol=1e-6)
    np.testing.assert_array_equal(got[4:], want.descriptor)


def test_local_descriptors_text_variant(tmp_path):
    desc = " ".join(str(i % 7) for i in range(128))
    lines = [f"3 1 100.5 200.25 0.5 1.5 {desc}", f"3 1 50.0 60.0 -0.25 2.0 {desc}"]
    p = tmp_path / "frames.txt"
    p.write_text("\n".join(lines) + "\n")
    frames = read_local_descriptors(p)
    assert len(frames) == 1
    fid, vid, rows = frames[0]
    assert (fid, vid, len(rows)) == (3, 1, 2)
    assert rows[0, 0] == 100.5 and rows[1, 2] == -0.25
    assert rows[0, 4:].shape == (128,)


def test_local_descriptors_text_frame_with_two_videos_rejected(tmp_path):
    desc = " ".join("0" for _ in range(128))
    lines = [f"3 1 1.0 2.0 0.0 1.0 {desc}", f"4 1 1.0 2.0 0.0 1.0 {desc}",
             f"3 2 5.0 6.0 0.0 1.0 {desc}"]
    p = tmp_path / "frames.txt"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=r"frames\.txt:3: frame 3 has video ids 1 and 2"):
        read_local_descriptors(p)


def test_local_descriptors_text_bad_column_count(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 1 0.0 0.0 0.0 0.0 1.0 2.0\n")
    with pytest.raises(FileFormatError, match="expected 134 fields"):
        read_local_descriptors(p)


def small_ldsc(tmp_path, sizes=(2, 0, 1)):
    gen = np.random.default_rng(115)
    frames = [(fid, 7, gen.normal(size=(n, 132)).astype(np.float32))
              for fid, n in enumerate(sizes)]
    path = tmp_path / "small.ldsc"
    write_local_descriptors(frames, path)
    return path, frames


def test_local_descriptors_every_truncation_rejected(tmp_path):
    path, frames = small_ldsc(tmp_path)
    data = path.read_bytes()
    # a cut on a frame boundary leaves a shorter, valid file
    boundaries = {0: 0, 6: 0}
    end = 6
    for i, (_, _, rows) in enumerate(frames):
        end += 12 + rows.nbytes
        boundaries[end] = i + 1
    cut_path = tmp_path / "cut.ldsc"
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
        if cut in boundaries:
            assert len(read_local_descriptors(cut_path)) == boundaries[cut]
        else:
            with pytest.raises(FileFormatError):
                read_local_descriptors(cut_path)


@pytest.mark.parametrize("count", [2 ** 20, 2 ** 32 - 1])
def test_local_descriptors_huge_count_rejected_before_allocation(tmp_path, count):
    path, _ = small_ldsc(tmp_path)
    data = bytearray(path.read_bytes())
    data[6 + 8:6 + 12] = struct.pack("<I", count)  # first frame's n
    path.write_bytes(bytes(data))
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match="truncated"):
            read_local_descriptors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(data) + 64 * 1024


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)),
                      min_size=1, max_size=4))
def test_local_descriptors_mutated_bytes_parse_or_raise_format_error(tmp_path, edits):
    path, _ = small_ldsc(tmp_path)
    data = bytearray(path.read_bytes())
    for pos, value in edits:
        data[pos % len(data)] = value
    path.write_bytes(bytes(data))
    try:
        frames = read_local_descriptors(path)
    except FileFormatError:
        return
    for _, _, rows in frames:
        assert rows.dtype == np.float32 and rows.ndim == 2 and rows.shape[1] == 132


def test_local_descriptors_undecodable_text_rejected(tmp_path):
    p = tmp_path / "junk.ldsc"
    p.write_bytes(b"\xff\xfe\x00binary")
    with pytest.raises(FileFormatError):
        read_local_descriptors(p)


@pytest.mark.parametrize("ids", [(-1, 0), (2 ** 32, 0), (0, -1), (0, 2 ** 32)])
def test_descriptor_writers_reject_ids_outside_u32(tmp_path, ids):
    fid, vid = ids
    with pytest.raises(ValueError, match=r"outside \[0, 2\^32\)"):
        write_local_descriptors([(fid, vid, np.zeros((1, 132), dtype=np.float32))],
                                tmp_path / "x.ldsc")
    with pytest.raises(ValueError, match=r"outside \[0, 2\^32\)"):
        write_global_features([(fid, vid, np.zeros((1, 384), dtype=np.float32))],
                              tmp_path / "x.gdsc")


def test_global_features_roundtrip(tmp_path):
    gen = np.random.default_rng(112)
    frames = [(i, i // 2, gen.normal(size=(5, 384)).astype(np.float32)) for i in range(4)]
    p1, p2 = tmp_path / "a.gdsc", tmp_path / "b.gdsc"
    write_global_features(frames, p1)
    loaded = read_global_features(p1)
    write_global_features(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(loaded[3][2], frames[3][2])


def test_descriptor_frames_read_back_read_only(tmp_path):
    ldsc, _ = small_ldsc(tmp_path)
    gdsc, _ = small_gdsc(tmp_path)
    for read, path in ((read_local_descriptors, ldsc), (read_global_features, gdsc)):
        frames = read(path)
        assert frames and all(not rows.flags.writeable for _, _, rows in frames)
        with pytest.raises(ValueError, match="read-only"):
            frames[0][2][0, 0] = 1.0


def test_global_features_dimension_enforced(tmp_path):
    with pytest.raises(FileFormatError, match="expected 384"):
        write_global_features([(0, 0, np.zeros((2, 100), dtype=np.float32))],
                              tmp_path / "x.gdsc")


def small_gdsc(tmp_path, sizes=(2, 0, 1)):
    gen = np.random.default_rng(116)
    frames = [(fid, 7, gen.normal(size=(n, 384)).astype(np.float32))
              for fid, n in enumerate(sizes)]
    path = tmp_path / "small.gdsc"
    write_global_features(frames, path)
    return path, frames


DESCRIPTOR_FILES = {"ldsc": (small_ldsc, read_local_descriptors, write_local_descriptors),
                    "gdsc": (small_gdsc, read_global_features, write_global_features)}
NAN_ID, INF_ID, NEG_INF_ID = 0x7FC00000, 0x7F800000, 0xFF800000  # as float32 bits


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("first_id", [0, NAN_ID])
@pytest.mark.parametrize("kind", ["ldsc", "gdsc"])
def test_descriptor_files_reject_non_finite_values(tmp_path, kind, first_id, value):
    small, read, write = DESCRIPTOR_FILES[kind]
    path, frames = small(tmp_path, sizes=(2, 0, 3, 1))
    bad = [(fid or first_id, vid, rows.copy()) for fid, vid, rows in frames]
    bad[2][2][1, 7] = value
    write(bad, path)
    with pytest.raises(FileFormatError,
                       match=rf"^{re.escape(str(path))}: frame 2 holds a non-finite value$"):
        read(path)


@pytest.mark.parametrize("kind", ["ldsc", "gdsc"])
def test_descriptor_ids_that_read_as_non_finite_floats_accepted(tmp_path, kind):
    small, read, write = DESCRIPTOR_FILES[kind]
    path, frames = small(tmp_path)
    ids = [NAN_ID, INF_ID, NEG_INF_ID]
    write([(fid, fid, rows) for fid, (_, _, rows) in zip(ids, frames)], path)
    assert [(fid, vid) for fid, vid, _ in read(path)] == list(zip(ids, ids))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])  # 1e39 overflows float32
def test_local_descriptors_text_rejects_non_finite_values(tmp_path, value):
    desc = " ".join("0.5" for _ in range(127))
    p = tmp_path / "frames.txt"
    p.write_text(f"3 1 1.0 2.0 0.0 1.0 0.5 {desc}\n"
                 f"4 1 1.0 2.0 0.0 1.0 0.5 {desc}\n"
                 f"4 1 1.0 2.0 0.0 1.0 {value} {desc}\n")
    with pytest.raises(FileFormatError,
                       match=rf"^{re.escape(str(p))}: frame 4 holds a non-finite value$"):
        read_local_descriptors(p)


def test_global_features_every_truncation_rejected(tmp_path):
    path, frames = small_gdsc(tmp_path)
    data = path.read_bytes()
    # a cut on a frame boundary leaves a shorter, valid file
    boundaries = {6: 0}
    end = 6
    for i, (_, _, features) in enumerate(frames):
        end += 12 + features.nbytes
        boundaries[end] = i + 1
    cut_path = tmp_path / "cut.gdsc"
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
        if cut in boundaries:
            assert len(read_global_features(cut_path)) == boundaries[cut]
        else:
            with pytest.raises(FileFormatError):
                read_global_features(cut_path)


@pytest.mark.parametrize("count", [2 ** 20, 2 ** 32 - 1])
def test_global_features_huge_count_rejected_before_allocation(tmp_path, count):
    path, _ = small_gdsc(tmp_path)
    data = bytearray(path.read_bytes())
    data[6 + 8:6 + 12] = struct.pack("<I", count)  # first frame's n
    path.write_bytes(bytes(data))
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match="truncated"):
            read_global_features(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(data) + 64 * 1024


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)),
                      min_size=1, max_size=4))
def test_global_features_mutated_bytes_parse_or_raise_format_error(tmp_path, edits):
    path, _ = small_gdsc(tmp_path)
    data = bytearray(path.read_bytes())
    for pos, value in edits:
        data[pos % len(data)] = value
    path.write_bytes(bytes(data))
    try:
        frames = read_global_features(path)
    except FileFormatError:
        return
    for _, _, features in frames:
        assert features.dtype == np.float32 and features.ndim == 2
        assert features.shape[1] == 384


# --- descriptor files read in chunks ----------------------------------------------

SMALL_CHUNK = 300  # bytes: smaller than any frame with rows in small_ldsc and small_gdsc
STREAMS = {"ldsc": (write_local_descriptors, read_local_descriptors,
                    storage.stream_local_descriptors, 132),
           "gdsc": (write_global_features, read_global_features,
                    storage.stream_global_features, 384)}


def whole_file_frames(data: bytes, width: int) -> list[tuple[int, int, bytes]]:
    """(frame id, video id, row bytes) of every block of a valid descriptor
    file, parsed from all of its bytes at once."""
    frames, pos = [], 6
    while pos < len(data):
        frame_id, video_id, n = struct.unpack_from("<III", data, pos)
        frames.append((frame_id, video_id, data[pos + 12:pos + 12 + 4 * n * width]))
        pos += 12 + 4 * n * width
    assert pos == len(data)
    return frames


def streamed_frames(stream, path) -> list[tuple[int, int, bytes]]:
    out = []
    for frame_id, video_id, rows in stream(path):
        assert rows.flags.aligned and not rows.flags.writeable
        assert rows.dtype == np.float32 and rows.ctypes.data % 4 == 0
        out.append((frame_id, video_id, rows.tobytes()))
    return out


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(STREAMS)),
       sizes=st.lists(st.one_of(st.sampled_from([0, 1]), st.integers(0, 9)), max_size=10),
       data=st.data())
def test_stream_in_any_chunk_size_yields_the_whole_file_parse(tmp_path, monkeypatch, kind,
                                                              sizes, data):
    write, _, stream, width = STREAMS[kind]
    gen = np.random.default_rng(len(sizes))
    path = tmp_path / f"frames.{kind}"
    write([(fid, fid // 3, gen.normal(size=(n, width)).astype(np.float32))
           for fid, n in enumerate(sizes)], path)
    body = path.stat().st_size - 6
    frame_bytes = [12 + 4 * n * width for n in sizes]
    # a few hundred bytes, or a size that makes a chunk end where a frame or
    # the file does
    chunk = data.draw(st.one_of(st.integers(1, 5000),
                                st.sampled_from(frame_bytes + [max(1, body)])))
    monkeypatch.setattr(storage, "READ_CHUNK_BYTES", chunk)
    assert streamed_frames(stream, path) == whole_file_frames(path.read_bytes(), width)


@pytest.mark.parametrize("kind", sorted(STREAMS))
@pytest.mark.parametrize("sizes, frames_per_chunk", [([2, 2, 2, 2], 1), ([2, 2, 2, 2], 2),
                                                     ([0, 0, 0, 0, 0, 0], 3), ([1, 1, 0], 1)])
def test_stream_of_a_file_ending_on_a_chunk_boundary(tmp_path, monkeypatch, kind, sizes,
                                                     frames_per_chunk):
    write, read, stream, width = STREAMS[kind]
    frames = [(fid, 5, np.full((n, width), fid, dtype=np.float32))
              for fid, n in enumerate(sizes)]
    path = tmp_path / f"frames.{kind}"
    write(frames, path)
    # every chunk but a lone last frame's is full and ends on a frame boundary
    monkeypatch.setattr(storage, "READ_CHUNK_BYTES",
                        frames_per_chunk * (12 + 4 * sizes[0] * width))
    assert streamed_frames(stream, path) == whole_file_frames(path.read_bytes(), width)
    assert [fid for fid, _, _ in read(path)] == list(range(len(sizes)))


@pytest.mark.parametrize("chunk", [None, SMALL_CHUNK])
def test_descriptor_rows_are_aligned_read_only_views(tmp_path, monkeypatch, chunk):
    if chunk:  # then every frame with rows straddles a chunk boundary
        monkeypatch.setattr(storage, "READ_CHUNK_BYTES", chunk)
    for small, kind in ((small_ldsc, "ldsc"), (small_gdsc, "gdsc")):
        path, frames = small(tmp_path, sizes=(2, 0, 1, 3))
        _, read, stream, width = STREAMS[kind]
        got = read(path)
        assert all(rows.flags.aligned and rows.ctypes.data % 4 == 0 for _, _, rows in got)
        assert [rows.tobytes() for _, _, rows in got] == [rows.tobytes() for _, _, rows in frames]
        assert streamed_frames(stream, path) == whole_file_frames(path.read_bytes(), width)


@pytest.mark.parametrize("kind", sorted(STREAMS))
def test_stream_yields_frames_before_a_fault_further_on(tmp_path, monkeypatch, kind):
    write, read, stream, width = STREAMS[kind]
    path = tmp_path / f"frames.{kind}"
    write([(fid, 0, np.ones((4, width), dtype=np.float32)) for fid in range(6)], path)
    path.write_bytes(path.read_bytes()[:-1])
    monkeypatch.setattr(storage, "READ_CHUNK_BYTES", SMALL_CHUNK)
    frames = stream(path)
    assert next(frames)[0] == 0  # read before the cut is reached
    with pytest.raises(FileFormatError, match="truncated file"):
        list(frames)
    with pytest.raises(FileFormatError, match="truncated file"):
        read(path)


@pytest.mark.parametrize("kind", sorted(STREAMS))
def test_huge_count_rejected_before_the_rest_of_the_file_is_read(tmp_path, monkeypatch,
                                                                 kind):
    write, read, _, width = STREAMS[kind]
    path = tmp_path / f"frames.{kind}"
    write([(fid, 0, np.ones((2, width), dtype=np.float32)) for fid in range(400)], path)
    data = bytearray(path.read_bytes())
    data[6 + 8:6 + 12] = struct.pack("<I", 2 ** 31)  # the first frame's n
    path.write_bytes(bytes(data))
    monkeypatch.setattr(storage, "READ_CHUNK_BYTES", SMALL_CHUNK)
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match="truncated"):
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) > 400_000 and peak < 64 * 1024


@pytest.mark.parametrize("kind", sorted(STREAMS))
def test_scan_reads_the_headers_the_stream_yields(tmp_path, kind):
    write, read, stream, width = STREAMS[kind]
    scan = {"ldsc": storage.scan_local_descriptors, "gdsc": storage.scan_global_features}[kind]
    path = tmp_path / f"frames.{kind}"
    write([(fid, fid + 9, np.ones((n, width), dtype=np.float32))
           for fid, n in enumerate([3, 0, 1, 7])], path)
    assert scan(path) == [(fid, vid, rows.shape[0]) for fid, vid, rows in read(path)]
    data = path.read_bytes()
    cut = tmp_path / f"cut.{kind}"
    for end in (len(data) - 1, 6 + 5):  # inside the last frame's rows, inside a header
        cut.write_bytes(data[:end])
        with pytest.raises(FileFormatError, match="truncated file"):
            scan(cut)


@pytest.mark.parametrize("test", [
    test_local_descriptors_every_truncation_rejected,
    test_global_features_every_truncation_rejected,
    test_local_descriptors_mutated_bytes_parse_or_raise_format_error,
    test_global_features_mutated_bytes_parse_or_raise_format_error,
    test_local_descriptors_huge_count_rejected_before_allocation,
    test_global_features_huge_count_rejected_before_allocation,
], ids=lambda test: test.__name__.removeprefix("test_"))
def test_descriptor_fault_checks_hold_in_small_chunks(tmp_path, monkeypatch, test):
    """The readers' truncation, mutation and allocation tests again, with
    chunks smaller than the frames, so faults land past chunk boundaries."""
    monkeypatch.setattr(storage, "READ_CHUNK_BYTES", SMALL_CHUNK)
    if "huge_count" in test.__name__:
        for count in (2 ** 20, 2 ** 32 - 1):
            test(tmp_path, count)
    else:
        test(tmp_path)


# --- indices ----------------------------------------------------------------------

def test_local_index_roundtrip_and_rebuild_identical(small_bow, small_pq, tmp_path):
    gen = np.random.default_rng(113)
    frames = random_frames(gen, n_frames=6, keypoints=8)
    geometry = FrameGeometry()

    def build():
        rows32 = [(f, v, records_to_rows(records)[:, :36]) for f, v, records in frames]
        postings = encode_frame_local(rows32, small_bow, small_pq, geometry)
        return build_local_index(postings, {f: v for f, v, _ in frames},
                                 n_words=small_bow.k, m=small_pq.m,
                                 n_pq_centers=small_pq.n_centers,
                                 prune_fraction=0.1, geometry=geometry)

    p1, p2, p3 = (tmp_path / n for n in ("a.lidx", "b.lidx", "c.lidx"))
    index = build()
    write_local_index(index, p1)
    write_local_index(build(), p2)
    assert p1.read_bytes() == p2.read_bytes()  # rebuild determinism

    loaded = read_local_index(p1)
    write_local_index(loaded, p3)
    assert p1.read_bytes() == p3.read_bytes()  # read/write round-trip
    assert loaded.n_frames == index.n_frames
    assert loaded.frame_to_video == index.frame_to_video
    np.testing.assert_array_equal(loaded.stop_mask, index.stop_mask)
    np.testing.assert_array_equal(loaded.idf, index.idf)
    for name in ("word_offsets", *POSTING_DTYPES):
        assert getattr(loaded, name).dtype == getattr(index, name).dtype
        np.testing.assert_array_equal(getattr(loaded, name), getattr(index, name))
    assert loaded.codes.flags.c_contiguous


def lidx_columns(index):
    """Byte offset of the per-word posting counts in the index's LIDX file,
    and the offset of each posting column after them."""
    counts_at = (4 + 2 + 12 + 4 + 4 + 8 + 8 * index.n_frames + packed_length(index.n_words)
                 + 8 * index.n_words)
    pos, starts = counts_at + 4 * index.n_words, {}
    for name, dtype in POSTING_DTYPES.items():
        starts[name] = pos
        pos += index.n_postings() * np.dtype(dtype).itemsize * (index.m if name == "codes" else 1)
    return counts_at, starts


@pytest.fixture
def small_lidx(small_bow, small_pq, tmp_path):
    """A small LIDX file, its bytes and the index it was written from."""
    gen = np.random.default_rng(118)
    frames = [(f, v, records_to_rows(records)[:, :36])
              for f, v, records in random_frames(gen, n_frames=4, keypoints=6)]
    index = build_local_index(encode_frame_local(frames, small_bow, small_pq),
                              {f: v for f, v, _ in frames}, n_words=small_bow.k,
                              m=small_pq.m, n_pq_centers=small_pq.n_centers,
                              prune_fraction=0.1)
    path = tmp_path / "small.lidx"
    write_local_index(index, path)
    assert len(index.postings) >= 2
    return path, bytearray(path.read_bytes()), index


@pytest.fixture
def large_lidx(tmp_path):
    """An LIDX file with about 300 KiB of postings, far more than the 64 KiB
    slack of the allocation bound, its bytes and the index."""
    gen = np.random.default_rng(119)
    n, m = 24_000, 4
    postings = Postings(word=gen.integers(0, 16, n),
                        codes=gen.integers(0, 8, (n, m), dtype=np.uint8),
                        qx=gen.integers(0, 2 ** 16, n, dtype=np.uint16),
                        qy=gen.integers(0, 2 ** 16, n, dtype=np.uint16),
                        qtheta=gen.integers(0, 256, n, dtype=np.uint8),
                        qscale=gen.integers(0, 256, n, dtype=np.uint8),
                        frame=gen.integers(0, 60, n).astype(np.uint32))
    index = build_local_index(postings, {f: f // 3 for f in range(60)}, n_words=16, m=m,
                              n_pq_centers=8, prune_fraction=0.1)
    path = tmp_path / "large.lidx"
    write_local_index(index, path)
    assert path.stat().st_size > 256 * 1024
    return path, bytearray(path.read_bytes()), index


def patched(path, data, at, fmt, *values):
    data = bytearray(data)
    struct.pack_into(fmt, data, at, *values)
    path.write_bytes(bytes(data))
    return path


def test_local_index_version_1_rejected(small_lidx):
    path, data, _ = small_lidx
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: file format version 1, "
                                              "this build reads version 2$"):
        read_local_index(patched(path, data, 4, "<H", 1))


def test_local_index_posting_frame_outside_frame_table_rejected(small_lidx):
    path, data, index = small_lidx
    _, starts = lidx_columns(index)
    last_frame = starts["frame"] + 4 * (index.n_postings() - 1)
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: posting frame id 1000 is not in "):
        read_local_index(patched(path, data, last_frame, "<I", 1000))


def test_local_index_repeated_frame_table_id_rejected(small_lidx):
    path, data, index = small_lidx
    first_id = 4 + 2 + 12 + 4 + 4 + 8
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: repeated frame id in the frame table"):
        read_local_index(patched(path, data, first_id + 4, "<I", min(index.frame_to_video)))


@pytest.mark.parametrize("where", ["blocks", "postings"])
def test_local_index_huge_count_rejected_before_allocation(large_lidx, where):
    """'postings': one word's posting count is 2^32 - 1. 'blocks': the counts
    add up to one posting more than the column blocks hold, so only the last
    column comes up short: a reader that copied the columns before it found
    that out would allocate far more than the slack."""
    path, data, index = large_lidx
    read_local_index(path)  # the intact file, so one-time lazy imports are not counted
    counts_at, _ = lidx_columns(index)
    counts = np.diff(index.word_offsets)
    word = int(np.flatnonzero(counts)[0])
    count = 2 ** 32 - 1 if where == "postings" else int(counts[word]) + 1
    patched(path, data, counts_at + 4 * word, "<I", count)
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match="truncated"):
            read_local_index(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(data) + 64 * 1024


def test_global_index_roundtrip(tmp_path):
    gen = np.random.default_rng(114)
    centers = binary_centers_train(pack_bits(gen.integers(0, 2, size=(60, 48)).astype(np.uint8)),
                                   48, k=4, iters=10, seed=114)
    index = build_global_index(np.arange(20), np.arange(20) % 3,
                               pack_bits(gen.integers(0, 2, size=(20, 48)).astype(np.uint8)),
                               centers, n_gmm_components=6)
    p1, p2 = tmp_path / "a.gidx", tmp_path / "b.gidx"
    write_global_index(index, p1)
    loaded = read_global_index(p1)
    write_global_index(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.n_bits == 48 and loaded.n_gmm_components == 6
    for a, b in zip(loaded.clusters, index.clusters):
        np.testing.assert_array_equal(a["codes"], b["codes"])


@pytest.mark.parametrize("where", ["centers", "codes"])
def test_global_index_pad_bits_rejected(tmp_path, where):
    gen = np.random.default_rng(121)
    centers = BinaryCenters(centers=pack_bits(np.eye(4, 12, dtype=np.uint8)), n_bits=12)
    index = build_global_index(np.arange(10), np.arange(10) % 3,
                               pack_bits(gen.integers(0, 2, size=(10, 12)).astype(np.uint8)),
                               centers)
    p = tmp_path / "pad.gidx"
    if where == "codes":  # every stored code sets its 4 pad bits
        for cluster in index.clusters:
            cluster["codes"] = cluster["codes"] | np.array([0, 0xF0], dtype=np.uint8)
    write_global_index(index, p)
    if where == "centers":
        data = bytearray(p.read_bytes())
        data[18 + 1] |= 0x80  # after the 18-byte header: bit 15 of the first center
        p.write_bytes(bytes(data))
    with pytest.raises(FileFormatError, match=rf"^{re.escape(str(p))}: a binary code sets "
                                              r"bits past its 12-bit length"):
        read_global_index(p)


@pytest.fixture(scope="module")
def index_files(books, small_bow, small_pq, tmp_path_factory):
    """Small valid I2VC, LIDX and GIDX bytes, each with its reader."""
    work = tmp_path_factory.mktemp("formats")
    gen = np.random.default_rng(117)
    frames = [(f, v, records_to_rows(records)[:, :36])
              for f, v, records in random_frames(gen, n_frames=3, keypoints=4)]
    local = build_local_index(encode_frame_local(frames, small_bow, small_pq),
                              {f: v for f, v, _ in frames}, n_words=small_bow.k,
                              m=small_pq.m, n_pq_centers=small_pq.n_centers,
                              prune_fraction=0.1)
    glob = build_global_index(np.arange(6), np.arange(6) % 2,
                              pack_bits(gen.integers(0, 2, size=(6, 8)).astype(np.uint8)),
                              books.binary_centers, n_gmm_components=2)
    files = {}
    for kind, write, read, value in (("i2vc", write_codebooks, read_codebooks, books),
                                     ("lidx", write_local_index, read_local_index, local),
                                     ("gidx", write_global_index, read_global_index, glob)):
        write(value, work / kind)
        files[kind] = ((work / kind).read_bytes(), read)
    return files


BINARY_FORMATS = ["i2vc", "lidx", "gidx"]


@pytest.mark.parametrize("kind", BINARY_FORMATS)
def test_binary_file_every_truncation_rejected(index_files, kind, tmp_path):
    data, read = index_files[kind]
    path = tmp_path / kind
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(FileFormatError):
            read(path)


@pytest.mark.parametrize("kind", BINARY_FORMATS)
def test_binary_file_trailing_byte_rejected(index_files, kind, tmp_path):
    data, read = index_files[kind]
    path = tmp_path / kind
    path.write_bytes(data)
    read(path)
    path.write_bytes(data + b"\0")
    with pytest.raises(FileFormatError, match="1 bytes after the last block"):
        read(path)


@pytest.mark.parametrize("kind", BINARY_FORMATS)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)),
                      min_size=1, max_size=4))
def test_binary_file_mutated_bytes_parse_or_raise_value_error(index_files, kind, tmp_path,
                                                              edits):
    data, read = index_files[kind]
    data = bytearray(data)
    for pos, value in edits:
        data[pos % len(data)] = value
    path = tmp_path / kind
    path.write_bytes(bytes(data))
    try:
        read(path)
    except (FileFormatError, ValueError):
        pass


# --- run files and ground truth -----------------------------------------------------

def test_run_file_roundtrip(tmp_path):
    runs = {2: [(10, 0.9), (11, 0.5)], 1: [(20, 0.75)]}
    p = tmp_path / "a.run"
    write_run(runs, p)
    assert p.read_text().splitlines()[0] == "1\t20\t1\t0.750000"
    assert read_run(p) == {1: [(20, 0.75)], 2: [(10, 0.9), (11, 0.5)]}


def test_run_file_rejects_duplicates(tmp_path):
    p = tmp_path / "dup.run"
    p.write_text("1\t10\t1\t0.900000\n1\t10\t2\t0.500000\n")
    with pytest.raises(FileFormatError, match="duplicate"):
        read_run(p)


def test_run_file_rejects_rank_gap(tmp_path):
    p = tmp_path / "gap.run"
    p.write_text("1\t10\t1\t0.900000\n1\t11\t3\t0.500000\n")
    with pytest.raises(FileFormatError, match="contiguity"):
        read_run(p)


def test_run_file_rejects_increasing_scores(tmp_path):
    p = tmp_path / "inc.run"
    p.write_text("1\t10\t1\t0.300000\n1\t11\t2\t0.500000\n")
    with pytest.raises(FileFormatError, match="increase"):
        read_run(p)


def test_ground_truth_roundtrip(tmp_path):
    gt = {5: {1, 2}, 3: {9}}
    p = tmp_path / "gt.tsv"
    write_ground_truth(gt, p)
    assert read_ground_truth(p) == gt
    assert p.read_text() == "3\t9\n5\t1\n5\t2\n"


@pytest.mark.parametrize("line, message", [
    ("1\t10\t1\tnan", "not finite"),
    ("1\t10\t1\tinf", "not finite"),
    ("1\t10\t1\t-inf", "not finite"),
    ("-1\t10\t1\t0.5", "outside"),
    ("1\t-10\t1\t0.5", "outside"),
    (f"{2 ** 32}\t10\t1\t0.5", "outside"),
    (f"1\t{2 ** 32}\t1\t0.5", "outside"),
])
def test_run_file_rejects_bad_values(tmp_path, line, message):
    p = tmp_path / "bad.run"
    p.write_text(f"0\t3\t1\t0.900000\n{line}\n")
    with pytest.raises(FileFormatError, match=f"bad.run:2: .*{message}"):
        read_run(p)


def test_run_file_nan_does_not_hide_increasing_scores(tmp_path):
    p = tmp_path / "nan.run"
    p.write_text("1\t10\t1\tnan\n1\t11\t2\t5.0\n")
    with pytest.raises(FileFormatError, match="nan.run:1: "):
        read_run(p)


@pytest.mark.parametrize("line", ["-1\t10", "1\t-10", f"{2 ** 32}\t10", f"1\t{2 ** 32}"])
def test_ground_truth_rejects_ids_outside_u32(tmp_path, line):
    p = tmp_path / "bad.tsv"
    p.write_text(f"0\t3\n{line}\n")
    with pytest.raises(FileFormatError, match=r"bad.tsv:2: id outside \[0, 2\^32\)"):
        read_ground_truth(p)


@pytest.mark.parametrize("read", [read_run, read_ground_truth])
def test_text_readers_name_line_of_undecodable_bytes(tmp_path, read):
    p = tmp_path / "junk.txt"
    p.write_bytes(b"1\t10\t1\t0.5\n\xff\xfe\n" if read is read_run else b"1\t10\n\xff\n")
    with pytest.raises(FileFormatError, match="junk.txt:2: not UTF-8"):
        read(p)


def small_text_files(tmp_path):
    """A run file and a ground-truth file, each with its reader and the
    value it holds."""
    runs = {0: [(3, 0.9), (7, 0.25), (1, 0.25)], 12: [(4, 1.0)], 2 ** 32 - 1: [(0, 0.0)]}
    gt = {0: {3, 7}, 12: {4, 5}, 2 ** 32 - 1: {0}}
    write_run(runs, tmp_path / "a.run")
    write_ground_truth(gt, tmp_path / "a.tsv")
    return {"run": ((tmp_path / "a.run").read_bytes(), read_run, runs),
            "gt": ((tmp_path / "a.tsv").read_bytes(), read_ground_truth, gt)}


def assert_valid_text_value(kind, value):
    """What a reader returns holds only ids in [0, 2^32) and, for a run,
    finite scores that never increase down a query's list."""
    for query, entries in value.items():
        assert 0 <= query < 2 ** 32
        videos = [v for v, _ in entries] if kind == "run" else sorted(entries)
        assert all(0 <= v < 2 ** 32 for v in videos)
        if kind == "run":
            scores = [s for _, s in entries]
            assert all(math.isfinite(s) for s in scores)
            assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("kind", ["run", "gt"])
def test_text_file_every_truncation_parses_or_raises_format_error(tmp_path, kind):
    data, read, full = small_text_files(tmp_path)[kind]
    path = tmp_path / "cut"
    line_ends = {i + 1 for i, b in enumerate(data) if b == ord("\n")}
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        try:
            value = read(path)
        except FileFormatError:
            assert cut not in line_ends | {0}  # whole lines always parse
            continue
        assert_valid_text_value(kind, value)
        if cut == len(data):
            assert value == full


@pytest.mark.parametrize("kind", ["run", "gt"])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)),
                      min_size=1, max_size=4))
def test_text_file_mutated_bytes_parse_or_raise_format_error(tmp_path, kind, edits):
    data, read, _ = small_text_files(tmp_path)[kind]
    data = bytearray(data)
    for pos, value in edits:
        data[pos % len(data)] = value
    path = tmp_path / "mutated"
    path.write_bytes(bytes(data))
    try:
        value = read(path)
    except FileFormatError:
        return
    assert_valid_text_value(kind, value)
