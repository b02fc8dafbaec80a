"""End-to-end orchestration: training, index building, batch querying.

These functions sit between the file formats and the per-module operations
so the CLI stays a thin argument parser and library users can drive the
whole engine from Python. Everything runs on the calling thread: local
encoding in row blocks, global signatures in blocks of consecutive frames
with one row count, and the ranking of queries one frame at a time. The
`threads` setting is accepted and ignored.

Training and index builds stream their descriptor files (`storage.
stream_local_descriptors`, `stream_global_features`) and keep only what they
draw or compute from each chunk, so their memory is bounded by a chunk, the
training samples and the index, not by the size of the files.
"""

from pathlib import Path

import numpy as np

from .bits import pack_bits, packed_length
from .codebooks import (CodebookSet, GMMModel, PCAModel, binary_centers_train,
                        gmm_train, kmeans_assign_batch, kmeans_train, pca_fit,
                        pca_project, pq_train)
from .config import EngineConfig
from .fusion import FusionConfig, RankedList, fuse
from .geometry import FrameGeometry
# make_signature stays importable here: bench/tracing.py wraps it by name
from .global_index import (GlobalIndex, binarize, build_global_index,  # noqa: F401
                           fisher_vector, make_signature)
from .global_query import GlobalQueryConfig, global_rank
from .local_index import LocalIndex, build_local_index, encode_frame_local, row_blocks
from .local_query import HoughConfig, PQScoreTable, local_rank
# the readers stay importable here: bench/tracing.py wraps them by name
from .storage import (read_global_features, read_local_descriptors,
                      scan_global_features, scan_local_descriptors,
                      stream_global_features, stream_local_descriptors)

# Budget of one block of the global signature pass. The rows bound its
# float64 temporaries of (rows, 384), (rows, pca_dim) and (rows, D_fk): 768 KiB
# each at most for the 384-d input, so a block stays in a core's L2 cache
# (on the 4 MiB L2 of the reference machine, the pass at the benchmark's
# shapes took 190, 29 and 60 ms with 256 rows against 225, 29 and 73 ms
# with 1,024). The Fisher floats bound its (frames, D_fk * pca_dim) float64
# vectors to 2 MiB, 16 frames at the published D_fk = 256 and pca_dim = 64.
# A frame larger than the row budget is a block of its own.
SIGNATURE_BLOCK_ROWS = 256
SIGNATURE_BLOCK_FLOATS = 1 << 18
# Rows of the GMM training sample projected at a time (`row_blocks`: at
# least half of them in each block, far above BLOCK_MIN_ROWS).
PROJECT_BLOCK_ROWS = 1024
_NO_PCA_FEATURES = "no input files: no PCA features (.gdsc) to train on"


def _sample_index(n: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of at most cap of n rows, drawn without replacement."""
    if n <= cap:
        return np.arange(n)
    return np.sort(rng.choice(n, size=cap, replace=False))


def _sampled(frames, index: np.ndarray):
    """(frame_id, video_id, rows) per frame, rows holding copies of just the
    rows `index` (sorted) of the frames' rows laid end to end, gathered as
    the frames stream."""
    end = lo = 0
    for frame_id, video_id, rows in frames:
        start, end = end, end + rows.shape[0]
        hi = int(np.searchsorted(index, end))
        yield frame_id, video_id, rows[index[lo:hi] - start]
        lo = hi


def _sample_rows(frames, n_rows: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """float32 copy of at most cap rows drawn from the n_rows rows of the
    frames laid end to end; the draw comes first, then only the drawn rows
    are gathered while every frame streams past."""
    index = _sample_index(n_rows, cap, rng)
    return np.concatenate([rows for _, _, rows in _sampled(frames, index)])


def _projected_sample(frames, n_rows: int, cap: int, rng: np.random.Generator,
                      pca: PCAModel) -> np.ndarray:
    """The PCA projection of the rows `_sample_rows` would draw, projected
    in blocks of about PROJECT_BLOCK_ROWS rows (`row_blocks`) while they are
    gathered, so the drawn features are never held whole."""
    blocks = row_blocks(_sampled(frames, _sample_index(n_rows, cap, rng)), PROJECT_BLOCK_ROWS)
    return np.concatenate([np.empty((0, pca.d_out))]
                          + [pca_project(pca, block) for block in blocks])


def _frame_blocks(frames, max_frames: int):
    """Lists of consecutive frames of one row count, formed while the frames
    stream: a block ends before a frame of another row count and before the
    frame that would take it past SIGNATURE_BLOCK_ROWS rows or max_frames
    frames, so a frame larger than the row budget is a block of its own."""
    block, rows = [], 0
    for frame in frames:
        n = frame[2].shape[0]
        if block and (n != block[0][2].shape[0] or rows + n > SIGNATURE_BLOCK_ROWS
                      or len(block) == max_frames):
            yield block
            block, rows = [], 0
        block.append(frame)
        rows += n
    if block:
        yield block


def _signature_codes(frames, pca: PCAModel, gmm: GMMModel) -> np.ndarray:
    """Packed binary Fisher signature of each frame's features, one row per
    frame, in input order, computed over blocks of consecutive frames of one
    row count (`_frame_blocks`) while the frames stream. Each block is
    projected and pooled as one (frames, rows, 384) stack, which numpy
    multiplies one frame at a time, so every code equals the code of its
    frame computed alone (a query's)."""
    n_bits = gmm.n_components * gmm.d
    codes = [np.empty((0, packed_length(n_bits)), dtype=np.uint8)]
    for block in _frame_blocks(frames, max(1, SIGNATURE_BLOCK_FLOATS // n_bits)):
        stack = np.stack([feats for _, _, feats in block])
        codes.append(pack_bits(binarize(fisher_vector(pca_project(pca, stack), gmm))))
    return np.concatenate(codes)


def _frames(paths, read, seen: dict | None = None):
    """The frames (or frame headers) of every file, in order, as `read`
    returns or streams them; each id goes into `seen` (frame id -> video id).

    Raises:
        ValueError: a frame id repeats, within a file or across files.
    """
    seen = {} if seen is None else seen
    for path in paths:
        for frame in read(path):
            if frame[0] in seen:
                raise ValueError(f"{path}: duplicate frame id {frame[0]}")
            seen[frame[0]] = frame[1]
            yield frame


def _row_count(paths, scan) -> tuple[int, int]:
    """(frames, rows) of a file set, from its frame headers.

    Raises:
        ValueError: a frame id repeats in the set.
    """
    headers = list(_frames(paths, scan))
    return len(headers), sum(n for _, _, n in headers)


def collect_descriptor_files(paths: list[str | Path], suffix: str) -> list[Path]:
    """Expand files and directories into a sorted list of descriptor files.

    Explicit files are routed by extension, so one mixed --features list can
    feed both the local (.ldsc) and global (.gdsc) training paths.
    """
    out: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(p.glob(f"*{suffix}")))
        elif p.name.endswith(suffix):
            out.append(p)
    return out


def train_codebooks(local_files: list[Path], global_files: list[Path],
                    config: EngineConfig,
                    pca_files: list[Path] | None = None) -> CodebookSet:
    """Train the full model bundle from descriptor files.

    PCA may be fit on a different feature set than the GMM corpus when
    pca_files is given; by default the reference corpus serves both. Frame
    ids must be unique within each of the three sets, not across them.

    Raises:
        ValueError: a set holds no frames (pca_files only when given; an
            empty list fails before any training), or an id repeats in a set.
    """
    if pca_files is not None and not pca_files:
        raise ValueError(_NO_PCA_FEATURES)
    rng = np.random.default_rng(config.seed)
    cap = config.max_train_samples

    # each sample is drawn from the row counts in the headers, then only
    # its rows are gathered while the files stream
    _, n_rows = _row_count(local_files, scan_local_descriptors)
    if not n_rows:
        raise ValueError("no input files: no local descriptors to train on")
    sample = _sample_rows(_frames(local_files, stream_local_descriptors), n_rows, cap, rng)
    descriptors = np.ascontiguousarray(sample[:, 4:], dtype=np.float64)
    del sample

    bow = kmeans_train(descriptors, config.d_bow, iters=config.train_iters, seed=config.seed)
    _, residuals = kmeans_assign_batch(bow, descriptors)
    pq = pq_train(residuals, m=config.m, n_centers=config.d_pq,
                  iters=config.train_iters, seed=config.seed + 1)
    del descriptors, residuals

    n_frames, n_rows = _row_count(global_files, scan_global_features)
    if not n_frames:
        raise ValueError("no input files: no global features to train on")
    pca_set, n_pca_rows = global_files, n_rows
    if pca_files is not None:
        n_pca_frames, n_pca_rows = _row_count(pca_files, scan_global_features)
        if not n_pca_frames:
            raise ValueError(_NO_PCA_FEATURES)
        pca_set = pca_files
    pca = pca_fit(_sample_rows(_frames(pca_set, stream_global_features), n_pca_rows, cap, rng),
                  config.pca_dim)
    projected = _projected_sample(_frames(global_files, stream_global_features), n_rows, cap,
                                  rng, pca)
    gmm = gmm_train(projected, config.d_fk, iters=config.gmm_iters, seed=config.seed + 2)
    del projected

    codes = _signature_codes(_frames(global_files, stream_global_features), pca, gmm)
    centers = binary_centers_train(codes, gmm.n_components * gmm.d, k=config.binary_clusters,
                                   iters=config.train_iters, seed=config.seed + 3)
    return CodebookSet(bow=bow, pq=pq, pca=pca, gmm=gmm, binary_centers=centers)


def build_local_index_from_files(files: list[Path], books: CodebookSet,
                                 config: EngineConfig) -> LocalIndex:
    """Encode every frame of the LDSC files into the local index, while the
    files stream.

    Raises:
        ValueError: no frames, or a frame id that repeats.
    """
    geometry = FrameGeometry(config.frame_width, config.frame_height)
    frame_to_video = {}
    postings = encode_frame_local(_frames(files, stream_local_descriptors, frame_to_video),
                                  books.bow, books.pq, geometry)
    if not frame_to_video:
        raise ValueError("no input files: nothing to index")
    return build_local_index(postings, frame_to_video, n_words=books.bow.k,
                             m=books.pq.m, n_pq_centers=books.pq.n_centers,
                             prune_fraction=config.prune_fraction, geometry=geometry)


def build_global_index_from_files(files: list[Path], books: CodebookSet,
                                  config: EngineConfig) -> GlobalIndex:
    """Code every frame of the GDSC files into the global index, while the
    files stream.

    Raises:
        ValueError: no frames, a frame id that repeats, or a frame without
            features.
    """
    frame_to_video = {}
    codes = _signature_codes(_frames(files, stream_global_features, frame_to_video),
                             books.pca, books.gmm)
    if not frame_to_video:
        raise ValueError("no input files: nothing to index")
    n = len(frame_to_video)
    return build_global_index(np.fromiter(frame_to_video, dtype=np.uint32, count=n),
                              np.fromiter(frame_to_video.values(), dtype=np.uint32, count=n),
                              codes, books.binary_centers,
                              n_gmm_components=books.gmm.n_components)


def check_compatible_local(books: CodebookSet, index: LocalIndex) -> None:
    if books.bow.k != index.n_words or books.pq.m != index.m \
            or books.pq.n_centers != index.n_pq_centers:
        raise ValueError(
            f"codebooks (D_bow={books.bow.k}, m={books.pq.m}, D_pq={books.pq.n_centers}) "
            f"do not match index (D_bow={index.n_words}, m={index.m}, D_pq={index.n_pq_centers})")


def check_compatible_global(books: CodebookSet, index: GlobalIndex) -> None:
    expected_bits = books.pca.d_out * books.gmm.n_components
    if expected_bits != index.n_bits or books.gmm.n_components != index.n_gmm_components:
        raise ValueError(
            f"codebooks (D_fk={books.gmm.n_components}, B={expected_bits}) do not match "
            f"index (D_fk={index.n_gmm_components}, B={index.n_bits})")


def query_local_file(path: str | Path, index: LocalIndex, books: CodebookSet,
                     config: EngineConfig) -> dict[int, RankedList]:
    """Run every frame of an LDSC file as a query; keys are frame ids."""
    check_compatible_local(books, index)
    frames = list(_frames([path], read_local_descriptors))
    table = PQScoreTable(books.pq)
    geometry = FrameGeometry(config.frame_width, config.frame_height)
    hough = HoughConfig()
    return {fid: local_rank(rows, index, books.bow, books.pq, tau_pq=config.tau_pq,
                            top_n=config.top_n, hough=hough, query_geometry=geometry,
                            table=table)
            for fid, _, rows in frames}


def query_global_file(path: str | Path, index: GlobalIndex, books: CodebookSet,
                      config: EngineConfig, brute_force: bool = False) -> dict[int, RankedList]:
    """Run every frame of a GDSC file as a query; keys are frame ids."""
    check_compatible_global(books, index)
    frames = list(_frames([path], read_global_features))
    cfg = GlobalQueryConfig(k_probe=config.k_probe, top_n=config.top_n,
                            brute_force=brute_force)
    codes = _signature_codes(frames, books.pca, books.gmm)
    return {fid: global_rank(bits, index, cfg) for (fid, _, _), bits in zip(frames, codes)}


def fuse_runs(local_runs: dict[int, list[tuple[int, float]]],
              global_runs: dict[int, list[tuple[int, float]]],
              config: EngineConfig) -> dict[int, list[tuple[int, float]]]:
    """Normalize and max-merge raw per-query runs from the two channels."""
    cfg = FusionConfig(epsilon=config.epsilon, warmup=config.warmup)
    out = {}
    for query in sorted(set(local_runs) | set(global_runs)):
        local = RankedList(entries=local_runs.get(query, []), channel="local")
        global_ = RankedList(entries=global_runs.get(query, []), channel="global")
        fused = fuse(local, global_, cfg, top_n=config.top_n)
        out[query] = fused.entries
    return out


def ranked_to_run(ranked: dict[int, RankedList]) -> dict[int, list[tuple[int, float]]]:
    return {query: r.entries for query, r in ranked.items()}
