"""Local descriptor channel: two-stage encoding and the inverted file.

Every keypoint descriptor is mapped to its nearest coarse center (the
inverted-file key) and the residual is product-quantized into m one-byte
sub-codes. Keypoint geometry rides along in quantized form for the later
Hough vote. The index prunes the most frequent words as stop words and
carries an idf table used to weight match scores.
"""

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .codebooks import KMeansModel, PQModel, kmeans_assign_batch, pq_encode_batch
from .geometry import FrameGeometry, quantize_log_scale, quantize_theta

DESCRIPTOR_DIM = 128
ENCODE_BLOCK_ROWS = 8192  # rows converted to float64 and encoded at a time
# the posting columns of the inverted file, as LocalIndex and LIDX store them
POSTING_DTYPES = {"codes": np.uint8, "qx": np.uint16, "qy": np.uint16,
                  "qtheta": np.uint8, "qscale": np.uint8, "frame": np.uint32}


@dataclass
class Postings:
    """Encoded keypoints as equal-length columns, one row per keypoint."""

    word: np.ndarray  # (n,) int64 coarse word
    codes: np.ndarray  # (n, m) uint8 PQ codes of the residual
    qx: np.ndarray  # (n,) uint16 quantized geometry
    qy: np.ndarray  # (n,) uint16
    qtheta: np.ndarray  # (n,) uint8
    qscale: np.ndarray  # (n,) uint8
    frame: np.ndarray  # (n,) uint32 frame id

    def __len__(self) -> int:
        return self.frame.shape[0]


@dataclass
class LocalIndex:
    """Frozen inverted file over coarse words, stored CSR.

    The postings of word w are rows word_offsets[w]:word_offsets[w + 1] of
    the posting columns, sorted by frame id. `codes` is subspace-major, so
    one subspace's codes over any range are one contiguous run of bytes.
    `stop_mask` marks exactly ceil(prune_fraction * n_words) words of
    highest document frequency (ties stop the lower word id); they have no
    postings. idf[w] = ln(n_frames / (1 + doc_freq[w])), clamped at 0.
    """

    n_words: int
    m: int
    n_pq_centers: int
    prune_fraction: float
    geometry: FrameGeometry
    doc_freq: np.ndarray  # (n_words,) uint32
    stop_mask: np.ndarray  # (n_words,) bool
    idf: np.ndarray  # (n_words,) float32
    frame_to_video: dict[int, int]
    word_offsets: np.ndarray  # (n_words + 1,) int64
    codes: np.ndarray  # (m, n_postings) uint8 PQ codes
    qx: np.ndarray  # (n_postings,) uint16 quantized geometry
    qy: np.ndarray  # (n_postings,) uint16
    qtheta: np.ndarray  # (n_postings,) uint8
    qscale: np.ndarray  # (n_postings,) uint8
    frame: np.ndarray  # (n_postings,) uint32 frame id

    # the per-word view below, built on first use; the engine scans the columns
    _postings: MappingProxyType | None = field(default=None, init=False, repr=False,
                                               compare=False)

    @property
    def n_frames(self) -> int:
        return len(self.frame_to_video)

    def n_postings(self) -> int:
        return int(self.word_offsets[-1])

    @property
    def postings(self) -> MappingProxyType:
        """Read-only {word: {column: view}} over the words that have
        postings, built on first use; a word's codes view is (count, m)."""
        if self._postings is None:
            offsets = self.word_offsets
            words = np.flatnonzero(offsets[1:] > offsets[:-1])
            self._postings = MappingProxyType({
                word: MappingProxyType({name: self.codes[:, lo:hi].T if name == "codes"
                                        else getattr(self, name)[lo:hi]
                                        for name in POSTING_DTYPES})
                for word, lo, hi in zip(words.tolist(), offsets[words].tolist(),
                                        offsets[words + 1].tolist())})
        return self._postings


def _row_blocks(frames, block_rows: int):
    """The rows of all frames, end to end, as blocks of near-equal size and
    at most block_rows rows."""
    n = sum(rows.shape[0] for _, _, rows in frames)
    size = -(-n // max(1, -(-n // block_rows)))
    pieces, filled = [], 0
    for _, _, rows in frames:
        while rows.shape[0]:
            piece, rows = rows[:size - filled], rows[size - filled:]
            pieces.append(piece)
            filled += piece.shape[0]
            if filled == size:
                yield np.concatenate(pieces)
                pieces, filled = [], 0
    if pieces:
        yield np.concatenate(pieces)


def encode_frame_local(frames: list[tuple[int, int, np.ndarray]], bow: KMeansModel,
                       pq: PQModel, geometry: FrameGeometry | None = None) -> Postings:
    """Encode the keypoints of every frame into postings: coarse word,
    residual PQ codes and quantized geometry, in input order.

    `frames` holds (frame_id, video_id, rows) triples as the LDSC reader
    returns them, each row [x, y, theta, log_scale, descriptor...]. Rows are
    encoded in blocks of at most ENCODE_BLOCK_ROWS, so memory stays bounded
    whatever the corpus size.

    Raises:
        ValueError: descriptor dimensionality does not match the models.
    """
    geometry = geometry or FrameGeometry()
    for _, _, rows in frames:
        if rows.shape[0] and rows.shape[1] - 4 != bow.d:
            raise ValueError(f"descriptor dimension {rows.shape[1] - 4} does not match "
                             f"vocabulary ({bow.d})")
    words = [np.empty(0, dtype=np.int64)]
    codes = [np.empty((0, pq.m), dtype=np.uint8)]
    geom = [np.empty((0, 4), dtype=np.float32)]
    for block in _row_blocks(frames, ENCODE_BLOCK_ROWS):
        descriptors = np.ascontiguousarray(block[:, 4:], dtype=np.float64)
        block_words, residuals = kmeans_assign_batch(bow, descriptors)
        words.append(block_words)
        codes.append(pq_encode_batch(pq, residuals))
        geom.append(block[:, :4].copy())  # a view would keep the whole block alive
    geom = np.concatenate(geom, dtype=np.float64)
    qx, qy = geometry.quantize_xy(geom[:, 0], geom[:, 1])
    return Postings(word=np.concatenate(words), codes=np.concatenate(codes), qx=qx, qy=qy,
                    qtheta=quantize_theta(geom[:, 2]), qscale=quantize_log_scale(geom[:, 3]),
                    frame=np.repeat(np.array([fid for fid, _, _ in frames], dtype=np.uint32),
                                    [rows.shape[0] for _, _, rows in frames]))


def build_local_index(postings: Postings, frame_to_video: dict[int, int],
                      n_words: int, m: int, n_pq_centers: int,
                      prune_fraction: float = 0.05,
                      geometry: FrameGeometry | None = None) -> LocalIndex:
    """Assemble the frozen inverted file from encoded postings.

    One stable lexsort on (word, frame) orders the postings the way the
    inverted file stores them (postings of one frame keep their input
    order); a word's document frequency is the number of distinct frames in
    its run. The sorted columns minus the stopped words' runs are the CSR
    posting columns, and per-word counts give word_offsets.

    Raises:
        ValueError: empty posting stream, a word outside [0, n_words), or
            prune_fraction outside [0, 0.5).
    """
    if not len(postings):
        raise ValueError("no postings to index")
    if not 0.0 <= prune_fraction < 0.5:
        raise ValueError("prune_fraction must be in [0, 0.5)")
    geometry = geometry or FrameGeometry()
    bad = postings.word[(postings.word < 0) | (postings.word >= n_words)]
    if bad.size:
        raise ValueError(f"word {bad[0]} out of range [0, {n_words})")

    order = np.lexsort((postings.frame, postings.word))
    word, frame = postings.word[order], postings.frame[order]
    new_pair = np.ones(word.shape[0], dtype=bool)
    new_pair[1:] = (word[1:] != word[:-1]) | (frame[1:] != frame[:-1])
    doc_freq = np.bincount(word[new_pair], minlength=n_words).astype(np.uint32)

    n_stop = math.ceil(prune_fraction * n_words)
    stop_mask = np.zeros(n_words, dtype=bool)
    if n_stop:
        stop_order = np.lexsort((np.arange(n_words), -doc_freq.astype(np.int64)))
        stop_mask[stop_order[:n_stop]] = True

    n_frames = len(frame_to_video)
    idf = np.log(n_frames / (1.0 + doc_freq.astype(np.float64)))
    idf = np.maximum(idf, 0.0).astype(np.float32)

    keep = ~stop_mask[word]
    kept = order[keep]
    word_offsets = np.zeros(n_words + 1, dtype=np.int64)
    np.cumsum(np.bincount(word[keep], minlength=n_words), out=word_offsets[1:])
    columns = {name: getattr(postings, name)[kept].astype(dtype, copy=False)
               for name, dtype in POSTING_DTYPES.items()}
    columns["codes"] = np.ascontiguousarray(columns["codes"].T)

    return LocalIndex(n_words=n_words, m=m, n_pq_centers=n_pq_centers,
                      prune_fraction=prune_fraction, geometry=geometry,
                      doc_freq=doc_freq, stop_mask=stop_mask, idf=idf,
                      frame_to_video=dict(frame_to_video), word_offsets=word_offsets,
                      **columns)
