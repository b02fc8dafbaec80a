"""On-disk formats: codebook bundle, descriptor files, indices, run files.

All binary files open with a 4-byte ASCII magic and an unsigned 16-bit
little-endian format version. Numeric payloads are little-endian: counts and
ids are unsigned 32-bit, floats are 32-bit, and bit-strings pack least-
significant-bit first within each byte. Writing the same in-memory object
twice yields byte-identical files.
"""

import io
import math
import struct
from pathlib import Path

import numpy as np

from .bits import packed_length, pad_bits_clear
from .codebooks import (BinaryCenters, CodebookSet, GMMModel, KMeansModel,
                        PCAModel, PQModel)
from .geometry import FrameGeometry
from .global_index import GlobalIndex
from .local_index import DESCRIPTOR_DIM, POSTING_DTYPES, LocalIndex

FORMAT_VERSION = 1  # every format but LIDX
LOCAL_INDEX_VERSION = 2

MAGIC_CODEBOOK = b"I2VC"
MAGIC_LOCAL_DESC = b"LDSC"
MAGIC_GLOBAL_DESC = b"GDSC"
MAGIC_LOCAL_INDEX = b"LIDX"
MAGIC_GLOBAL_INDEX = b"GIDX"

_KIND_KMEANS = 1
_KIND_PQ = 2
_KIND_PCA = 3
_KIND_GMM = 4
_KIND_BINARY = 5

GLOBAL_FEATURE_DIM = 384
# Words per test of a descriptor file for NaN and inf: bounds the test's
# boolean temporary to 1 MiB.
FINITE_TEST_WORDS = 1 << 20
LOCAL_ROW_WIDTH = 4 + DESCRIPTOR_DIM  # x, y, theta, log_scale, descriptor
_U32_MAX = 2 ** 32 - 1


class FileFormatError(Exception):
    """A file failed magic, version, or structural validation."""


def _f32_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f4").tobytes()


def _u32_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<u4").tobytes()


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.buf = memoryview(data)
        self.pos = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise FileFormatError(f"{self.path}: truncated file")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f32(self) -> float:
        return struct.unpack("<f", self.take(4))[0]

    def array(self, dtype, count: int) -> np.ndarray:
        """The next `count` items of `dtype`, copied out of the file bytes."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(count * dtype.itemsize), dtype=dtype).copy()

    def codes(self, count: int, n_bits: int) -> np.ndarray:
        """The next `count` packed n_bits-bit codes, rows whose pad bits are zero."""
        width = packed_length(n_bits)
        codes = self.array(np.uint8, count * width).reshape(count, width)
        if not pad_bits_clear(codes, n_bits):
            raise FileFormatError(f"{self.path}: a binary code sets bits past "
                                  f"its {n_bits}-bit length")
        return codes

    def done(self) -> bool:
        return self.pos >= len(self.buf)

    def expect_end(self) -> None:
        if not self.done():
            raise FileFormatError(f"{self.path}: {len(self.buf) - self.pos} bytes "
                                  "after the last block")


def _open_checked(path: str | Path, magic: bytes, expect: int = FORMAT_VERSION) -> _Reader:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read file ({exc})") from exc
    r = _Reader(data, str(path))
    got = bytes(r.take(4))
    if got != magic:
        raise FileFormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    version = r.u16()
    if version != expect:
        raise FileFormatError(f"{path}: file format version {version}, "
                              f"this build reads version {expect}")
    return r


# --- codebook bundle ---------------------------------------------------

def write_codebooks(books: CodebookSet, path: str | Path) -> None:
    out = io.BytesIO()
    out.write(MAGIC_CODEBOOK)
    out.write(struct.pack("<H", FORMAT_VERSION))
    out.write(struct.pack("<B", 5))

    out.write(struct.pack("<B", _KIND_KMEANS))
    out.write(struct.pack("<II", books.bow.k, books.bow.d))
    out.write(_f32_bytes(books.bow.centers))

    pq = books.pq
    out.write(struct.pack("<B", _KIND_PQ))
    out.write(struct.pack("<III", pq.m, pq.n_centers, pq.sub_dim))
    for sub in pq.sub_models:
        out.write(_f32_bytes(sub.centers))
    out.write(_f32_bytes(pq.max_dist))

    out.write(struct.pack("<B", _KIND_PCA))
    out.write(struct.pack("<II", books.pca.d_in, books.pca.d_out))
    out.write(_f32_bytes(books.pca.mean))
    out.write(_f32_bytes(books.pca.basis))

    gmm = books.gmm
    out.write(struct.pack("<B", _KIND_GMM))
    out.write(struct.pack("<II", gmm.n_components, gmm.d))
    out.write(_f32_bytes(gmm.weights))
    out.write(_f32_bytes(gmm.means))
    out.write(_f32_bytes(gmm.variances))

    bc = books.binary_centers
    out.write(struct.pack("<B", _KIND_BINARY))
    out.write(struct.pack("<II", bc.k, bc.n_bits))
    out.write(np.ascontiguousarray(bc.centers, dtype=np.uint8).tobytes())

    Path(path).write_bytes(out.getvalue())


def read_codebooks(path: str | Path) -> CodebookSet:
    r = _open_checked(path, MAGIC_CODEBOOK)
    count = r.u8()
    if count != 5:
        raise FileFormatError(f"{r.path}: expected 5 model blocks, found {count}")

    parts: dict[int, object] = {}
    for _ in range(count):
        kind = r.u8()
        if kind == _KIND_KMEANS:
            k, d = r.u32(), r.u32()
            parts[kind] = KMeansModel(centers=r.array("<f4", k * d).reshape(k, d))
        elif kind == _KIND_PQ:
            m, n_centers, sub_dim = r.u32(), r.u32(), r.u32()
            if not 2 <= n_centers <= 256:  # the range pq_train enforces: codes fit one byte
                raise FileFormatError(f"{r.path}: PQ block has {n_centers} centers per "
                                      "subspace, outside [2, 256]")
            subs = [KMeansModel(centers=r.array("<f4", n_centers * sub_dim).reshape(n_centers, sub_dim))
                    for _ in range(m)]
            max_dist = r.array("<f4", m).astype(np.float64)
            parts[kind] = PQModel(sub_models=subs, max_dist=max_dist)
        elif kind == _KIND_PCA:
            d_in, d_out = r.u32(), r.u32()
            mean = r.array("<f4", d_in)
            basis = r.array("<f4", d_out * d_in).reshape(d_out, d_in)
            parts[kind] = PCAModel(mean=mean, basis=basis)
        elif kind == _KIND_GMM:
            k, d = r.u32(), r.u32()
            parts[kind] = GMMModel(weights=r.array("<f4", k).astype(np.float64),
                                   means=r.array("<f4", k * d).reshape(k, d).astype(np.float64),
                                   variances=r.array("<f4", k * d).reshape(k, d).astype(np.float64))
        elif kind == _KIND_BINARY:
            k, n_bits = r.u32(), r.u32()
            parts[kind] = BinaryCenters(centers=r.codes(k, n_bits), n_bits=n_bits)
        else:
            raise FileFormatError(f"{r.path}: unknown model kind tag {kind}")
    missing = {_KIND_KMEANS, _KIND_PQ, _KIND_PCA, _KIND_GMM, _KIND_BINARY} - set(parts)
    if missing:
        raise FileFormatError(f"{r.path}: missing model blocks {sorted(missing)}")
    r.expect_end()
    return CodebookSet(bow=parts[_KIND_KMEANS], pq=parts[_KIND_PQ], pca=parts[_KIND_PCA],
                       gmm=parts[_KIND_GMM], binary_centers=parts[_KIND_BINARY])


# --- descriptor files (LDSC, GDSC): one frame-block codec ----------------

def _frame_header(frame_id: int, video_id: int, count: int) -> bytes:
    for name, value in (("frame", frame_id), ("video", video_id)):
        if not 0 <= value <= _U32_MAX:
            raise ValueError(f"{name} id {value} outside [0, 2^32)")
    return struct.pack("<III", frame_id, video_id, count)


def _write_frame_blocks(frames, path: str | Path, magic: bytes, width: int,
                        shape_error: str) -> None:
    """Write one block per frame: (frame_id, video_id, n), then n float32
    rows of `width` values. `shape_error` words the rejection of a frame
    whose rows are not (n, width); it may name {frame}, {shape} and {width}.

    Raises:
        ValueError: a frame or video id outside [0, 2^32).
    """
    out = io.BytesIO()
    out.write(magic)
    out.write(struct.pack("<H", FORMAT_VERSION))
    for frame_id, video_id, rows in frames:
        rows = np.asarray(rows)
        if rows.shape[1:] != (width,):
            raise FileFormatError(f"{path}: " + shape_error.format(
                frame=frame_id, shape=rows.shape, width=width))
        out.write(_frame_header(frame_id, video_id, rows.shape[0]))
        out.write(_f32_bytes(rows))
    Path(path).write_bytes(out.getvalue())


def _finite_rows(path, frame_id: int, rows: np.ndarray) -> np.ndarray:
    """rows, once one test has found every value finite.

    Raises:
        FileFormatError: a NaN or infinite value, naming the file and frame.
    """
    if not np.isfinite(rows).all():
        raise FileFormatError(f"{path}: frame {frame_id} holds a non-finite value")
    return rows


def _read_frame_blocks(path: str | Path, magic: bytes,
                       width: int) -> list[tuple[int, int, np.ndarray]]:
    """(frame_id, video_id, rows) per block in file order; rows is an
    (n, width) float32 read-only view of the file's bytes.

    Raises:
        FileFormatError: a structural fault, or a non-finite value.
    """
    r = _open_checked(path, magic)
    frames = []
    while not r.done():
        frame_id, video_id, n = struct.unpack("<III", r.take(12))
        # take() checks n rows against the bytes left before anything is built
        rows = np.frombuffer(r.take(4 * n * width), dtype="<f4").reshape(n, width)
        frames.append((frame_id, video_id, rows))
    # every header field and value is a 4-byte word from byte 6 on, so a few
    # tests over all words replace one per frame; a header word that reads
    # as NaN or inf is a large id, so the frames are tested one by one then
    words = np.frombuffer(r.buf, dtype="<f4", offset=6)
    if not all(np.isfinite(words[lo:lo + FINITE_TEST_WORDS]).all()
               for lo in range(0, words.size, FINITE_TEST_WORDS)):
        for frame_id, _, rows in frames:
            _finite_rows(r.path, frame_id, rows)
    return frames


def write_local_descriptors(frames: list[tuple[int, int, np.ndarray]],
                            path: str | Path) -> None:
    """Write per-frame blocks of (frame_id, video_id, n x 132 rows), each row
    [x, y, theta, log_scale, d0..d127].

    Raises:
        ValueError: a frame or video id outside [0, 2^32).
    """
    _write_frame_blocks(frames, path, MAGIC_LOCAL_DESC, LOCAL_ROW_WIDTH,
                        "frame {frame} rows have shape {shape}, expected (n, {width})")


def _read_local_text(path: Path) -> list[tuple[int, int, np.ndarray]]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError(f"{path}: cannot read file ({exc})") from exc
    frames: dict[int, tuple[int, list[list[float]]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2 + LOCAL_ROW_WIDTH:
            raise FileFormatError(f"{path}:{lineno}: expected {2 + LOCAL_ROW_WIDTH} fields, "
                                  f"found {len(fields)}")
        try:
            frame_id, video_id = int(fields[0]), int(fields[1])
            row = [float(v) for v in fields[2:]]
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        if not (0 <= frame_id <= _U32_MAX and 0 <= video_id <= _U32_MAX):
            raise FileFormatError(f"{path}:{lineno}: id outside [0, 2^32)")
        first_video, rows = frames.setdefault(frame_id, (video_id, []))
        if first_video != video_id:
            raise FileFormatError(f"{path}:{lineno}: frame {frame_id} has video ids "
                                  f"{first_video} and {video_id}")
        rows.append(row)
    # text that overflows float32 becomes inf here, which the test rejects
    with np.errstate(over="ignore"):
        return [(fid, vid, _finite_rows(path, fid, np.array(rows, dtype=np.float32)))
                for fid, (vid, rows) in frames.items()]


def read_local_descriptors(path: str | Path) -> list[tuple[int, int, np.ndarray]]:
    """Read an LDSC file (binary, or the line-oriented text variant) as
    (frame_id, video_id, rows) triples in file order. `rows` is the frame's
    (n, 132) float32 block [x, y, theta, log_scale, d0..d127]; in the binary
    variant it is a read-only view of the file's bytes. In the text variant
    the lines of one frame id form one frame.

    Raises:
        FileFormatError: a malformed file, or a value that is not finite
            as float32.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            head = fh.read(4)
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read file ({exc})") from exc
    if head != MAGIC_LOCAL_DESC:
        return _read_local_text(path)
    return _read_frame_blocks(path, MAGIC_LOCAL_DESC, LOCAL_ROW_WIDTH)


def write_global_features(frames: list[tuple[int, int, np.ndarray]],
                          path: str | Path) -> None:
    """Write per-frame blocks of (frame_id, video_id, n x 384 features); a
    frame's features may be one 384-vector.

    Raises:
        ValueError: a frame or video id outside [0, 2^32).
    """
    _write_frame_blocks(((fid, vid, np.atleast_2d(feats)) for fid, vid, feats in frames),
                        path, MAGIC_GLOBAL_DESC, GLOBAL_FEATURE_DIM,
                        "frame {frame} features have dimension {shape[1]}, expected {width}")


def read_global_features(path: str | Path) -> list[tuple[int, int, np.ndarray]]:
    """Read a GDSC file as (frame_id, video_id, features) triples in file
    order; `features` is an (n, 384) float32 read-only view of the file's
    bytes.

    Raises:
        FileFormatError: a malformed file, or a non-finite value.
    """
    return _read_frame_blocks(path, MAGIC_GLOBAL_DESC, GLOBAL_FEATURE_DIM)


# --- local inverted index (LIDX) -----------------------------------------

def _posting_layout(m: int):
    """(column, little-endian dtype, items per posting) of each LIDX column."""
    return [(name, np.dtype(dtype).newbyteorder("<"), m if name == "codes" else 1)
            for name, dtype in POSTING_DTYPES.items()]


def write_local_index(index: LocalIndex, path: str | Path) -> None:
    """Write the header, frame table, stop bitmap, idf and doc_freq, one
    posting count per word, then each posting column whole, as memory holds
    it (codes subspace-major, (m, n_postings))."""
    out = io.BytesIO()
    out.write(MAGIC_LOCAL_INDEX)
    out.write(struct.pack("<H", LOCAL_INDEX_VERSION))
    out.write(struct.pack("<III", index.n_words, index.m, index.n_pq_centers))
    out.write(struct.pack("<f", index.prune_fraction))
    out.write(struct.pack("<I", index.n_frames))
    out.write(struct.pack("<ff", index.geometry.width, index.geometry.height))
    frame_ids = np.array(sorted(index.frame_to_video), dtype="<u4")
    out.write(_u32_bytes(frame_ids))
    out.write(_u32_bytes(np.array([index.frame_to_video[int(f)] for f in frame_ids], dtype="<u4")))
    out.write(np.packbits(index.stop_mask.astype(np.uint8), bitorder="little").tobytes())
    out.write(_f32_bytes(index.idf))
    out.write(_u32_bytes(index.doc_freq))
    out.write(_u32_bytes(np.diff(index.word_offsets)))
    for name, dtype, _ in _posting_layout(index.m):
        out.write(getattr(index, name).astype(dtype, copy=False).tobytes())
    Path(path).write_bytes(out.getvalue())


def read_local_index(path: str | Path) -> LocalIndex:
    """Read an LIDX file into the CSR columns of a LocalIndex.

    Raises:
        FileFormatError: bad magic or version, truncation, trailing bytes, a
            repeated frame id in the frame table, or a posting whose frame
            id is not in the frame table.
    """
    r = _open_checked(path, MAGIC_LOCAL_INDEX, LOCAL_INDEX_VERSION)
    n_words, m, n_pq = r.u32(), r.u32(), r.u32()
    prune_fraction = r.f32()
    n_frames = r.u32()
    width, height = r.f32(), r.f32()
    frame_ids = r.array("<u4", n_frames)
    video_ids = r.array("<u4", n_frames)
    table_ids = np.unique(frame_ids)
    if table_ids.shape[0] != n_frames:
        raise FileFormatError(f"{r.path}: repeated frame id in the frame table")
    mask_bytes = r.array(np.uint8, packed_length(n_words))
    stop_mask = np.unpackbits(mask_bytes, bitorder="little")[:n_words].astype(bool)
    idf = r.array("<f4", n_words)
    doc_freq = r.array("<u4", n_words)
    word_offsets = np.zeros(n_words + 1, dtype=np.int64)
    np.cumsum(r.array("<u4", n_words), dtype=np.int64, out=word_offsets[1:])
    n_postings = int(word_offsets[-1])
    # every column is taken, so checked against the bytes left, before any is copied
    views = {name: (r.take(n_postings * per_posting * dtype.itemsize), dtype)
             for name, dtype, per_posting in _posting_layout(m)}
    r.expect_end()
    columns = {name: np.frombuffer(view, dtype).astype(POSTING_DTYPES[name])
               for name, (view, dtype) in views.items()}
    columns["codes"] = columns["codes"].reshape(m, n_postings)
    unknown = columns["frame"][~np.isin(columns["frame"], table_ids)]
    if unknown.size:
        raise FileFormatError(f"{r.path}: posting frame id {unknown[0]} is not in the "
                              "frame table")
    return LocalIndex(n_words=n_words, m=m, n_pq_centers=n_pq,
                      prune_fraction=float(prune_fraction),
                      geometry=FrameGeometry(width=float(width), height=float(height)),
                      doc_freq=doc_freq, stop_mask=stop_mask, idf=idf,
                      frame_to_video=dict(zip(frame_ids.tolist(), video_ids.tolist())),
                      word_offsets=word_offsets, **columns)


# --- global index (GIDX) --------------------------------------------------

def write_global_index(index: GlobalIndex, path: str | Path) -> None:
    out = io.BytesIO()
    out.write(MAGIC_GLOBAL_INDEX)
    out.write(struct.pack("<H", FORMAT_VERSION))
    out.write(struct.pack("<III", index.n_bits, index.n_gmm_components, index.centers.k))
    out.write(np.ascontiguousarray(index.centers.centers, dtype=np.uint8).tobytes())
    for cluster in index.clusters:
        count = cluster["frame"].shape[0]
        out.write(struct.pack("<I", count))
        out.write(_u32_bytes(cluster["frame"]))
        out.write(_u32_bytes(cluster["video"]))
        out.write(np.ascontiguousarray(cluster["codes"], dtype=np.uint8).tobytes())
    Path(path).write_bytes(out.getvalue())


def read_global_index(path: str | Path) -> GlobalIndex:
    r = _open_checked(path, MAGIC_GLOBAL_INDEX)
    n_bits, n_gmm, n_centers = r.u32(), r.u32(), r.u32()
    centers = BinaryCenters(centers=r.codes(n_centers, n_bits), n_bits=n_bits)
    clusters = []
    for _ in range(n_centers):
        count = r.u32()
        clusters.append({
            "frame": r.array("<u4", count),
            "video": r.array("<u4", count),
            "codes": r.codes(count, n_bits),
        })
    r.expect_end()
    return GlobalIndex(n_bits=n_bits, n_gmm_components=n_gmm, centers=centers,
                       clusters=clusters)


# --- run files and ground truth (text) ------------------------------------

def write_run(runs: dict[int, list[tuple[int, float]]], path: str | Path) -> None:
    """Write ranked (video, score) lists per query: one tab-separated line
    per retrieved video, ranks contiguous from 1, scores to 6 decimals."""
    lines = []
    for query in sorted(runs):
        for rank, (video, score) in enumerate(runs[query], start=1):
            lines.append(f"{query}\t{video}\t{rank}\t{score:.6f}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def _text_lines(path: Path):
    """(line number, stripped text) of every non-blank line of a UTF-8 file."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise FileFormatError(f"{path}: cannot read file ({exc})") from exc
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from exc
        if line:
            yield lineno, line


def _check_ids(path: Path, lineno: int, *ids: int) -> None:
    if not all(0 <= i <= _U32_MAX for i in ids):
        raise FileFormatError(f"{path}:{lineno}: id outside [0, 2^32)")


def read_run(path: str | Path) -> dict[int, list[tuple[int, float]]]:
    """Read a run file: per query, (video, score) in rank order.

    Raises:
        FileFormatError: a line that is not 'query<TAB>video<TAB>rank<TAB>
            score' with ids in [0, 2^32) and a finite score, a repeated
            (query, video) pair, a rank gap, or a score above the one
            ranked before it.
    """
    path = Path(path)
    runs: dict[int, list[tuple[int, float]]] = {}
    seen: set[tuple[int, int]] = set()
    for lineno, line in _text_lines(path):
        fields = line.split("\t")
        if len(fields) != 4:
            raise FileFormatError(f"{path}:{lineno}: expected 4 tab-separated fields")
        try:
            query, video, rank, score = int(fields[0]), int(fields[1]), int(fields[2]), float(fields[3])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        _check_ids(path, lineno, query, video)
        if not math.isfinite(score):
            raise FileFormatError(f"{path}:{lineno}: score {score} is not finite")
        if (query, video) in seen:
            raise FileFormatError(f"{path}:{lineno}: duplicate (query, video) pair ({query}, {video})")
        seen.add((query, video))
        entries = runs.setdefault(query, [])
        if rank != len(entries) + 1:
            raise FileFormatError(f"{path}:{lineno}: rank {rank} breaks contiguity for query {query}")
        if entries and score > entries[-1][1]:
            raise FileFormatError(f"{path}:{lineno}: scores increase within query {query}")
        entries.append((video, score))
    return runs


def write_ground_truth(gt: dict[int, set[int]], path: str | Path) -> None:
    lines = [f"{query}\t{video}" for query in sorted(gt) for video in sorted(gt[query])]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_ground_truth(path: str | Path) -> dict[int, set[int]]:
    """Read 'query<TAB>video' lines, ids in [0, 2^32), into per-query sets.

    Raises:
        FileFormatError: a line of another shape or an id out of range.
    """
    path = Path(path)
    gt: dict[int, set[int]] = {}
    for lineno, line in _text_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise FileFormatError(f"{path}:{lineno}: expected 'query<TAB>video'")
        try:
            query, video = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        _check_ids(path, lineno, query, video)
        gt.setdefault(query, set()).add(video)
    return gt
