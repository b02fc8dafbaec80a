"""End-to-end orchestration: training, index building, batch querying.

These functions sit between the file formats and the per-module operations
so the CLI stays a thin argument parser and library users can drive the
whole engine from Python. Everything runs on the calling thread: local
encoding in row blocks, global signatures in blocks of consecutive frames
with one row count, and the ranking of queries one frame at a time. The
`threads` setting is accepted and ignored.
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
from .local_index import LocalIndex, build_local_index, encode_frame_local
from .local_query import HoughConfig, PQScoreTable, local_rank
from .storage import read_global_features, read_local_descriptors

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


def _sample_index(n: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted indices of at most cap of n rows, drawn without replacement."""
    if n <= cap:
        return np.arange(n)
    return np.sort(rng.choice(n, size=cap, replace=False))


def _take_rows(frames, index: np.ndarray) -> np.ndarray:
    """Rows `index` (sorted) of the frames' row blocks laid end to end,
    gathered without joining the blocks first."""
    ends = np.cumsum([rows.shape[0] for _, _, rows in frames])
    cuts = np.searchsorted(index, ends)
    parts, lo = [], 0
    for (_, _, rows), end, hi in zip(frames, ends, cuts):
        if hi > lo:
            parts.append(rows[index[lo:hi] - (end - rows.shape[0])])
        lo = hi
    return np.concatenate(parts) if parts else frames[0][2][:0]


def _sample_rows(frames, cap: int, rng: np.random.Generator) -> np.ndarray:
    """float64 copy of at most cap rows drawn from the frames' row blocks
    laid end to end; only the drawn rows are gathered and converted."""
    n_rows = sum(rows.shape[0] for _, _, rows in frames)
    return _take_rows(frames, _sample_index(n_rows, cap, rng)).astype(np.float64)


def _frame_blocks(sizes: list[int], max_frames: int):
    """(lo, hi) ranges of consecutive frames of one row count, in order: a
    block ends before a frame of another row count and before the frame that
    would take it past SIGNATURE_BLOCK_ROWS rows or max_frames frames, so a
    frame larger than the row budget is a block of its own."""
    lo = rows = 0
    for i, n in enumerate(sizes):
        if i > lo and (n != sizes[lo] or rows + n > SIGNATURE_BLOCK_ROWS
                       or i - lo == max_frames):
            yield lo, i
            lo, rows = i, 0
        rows += n
    if sizes:
        yield lo, len(sizes)


def _signature_codes(frames, pca: PCAModel, gmm: GMMModel) -> np.ndarray:
    """Packed binary Fisher signature of each frame's features, one row per
    frame, in input order, computed over blocks of consecutive frames of one
    row count (`_frame_blocks`). Each block is projected and pooled as one
    (frames, rows, 384) stack, which numpy multiplies one frame at a time,
    so every code equals the code of its frame computed alone (a query's)."""
    n_bits = gmm.n_components * gmm.d
    sizes = [rows.shape[0] for _, _, rows in frames]
    codes = np.empty((len(frames), packed_length(n_bits)), dtype=np.uint8)
    for lo, hi in _frame_blocks(sizes, max(1, SIGNATURE_BLOCK_FLOATS // n_bits)):
        stack = np.stack([feats for _, _, feats in frames[lo:hi]])
        codes[lo:hi] = pack_bits(binarize(fisher_vector(pca_project(pca, stack), gmm)))
    return codes


def _read_frames(paths, read) -> list:
    """The frames of every file, in order.

    Raises:
        ValueError: a frame id repeats, within a file or across files.
    """
    frames, seen = [], set()
    for path in paths:
        for frame in read(path):
            if frame[0] in seen:
                raise ValueError(f"{path}: duplicate frame id {frame[0]}")
            seen.add(frame[0])
            frames.append(frame)
    return frames


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
    pca_files is given; by default the reference corpus serves both.
    """
    rng = np.random.default_rng(config.seed)

    frames = [frame for path in local_files for frame in read_local_descriptors(path)]
    n_rows = sum(rows.shape[0] for _, _, rows in frames)
    if not n_rows:
        raise ValueError("no input files: no local descriptors to train on")
    # pick the sample first, then convert only its rows; the sample is a
    # copy, so the file bytes can go before training starts
    sample = _take_rows(frames, _sample_index(n_rows, config.max_train_samples, rng))
    del frames
    descriptors = np.ascontiguousarray(sample[:, 4:], dtype=np.float64)

    bow = kmeans_train(descriptors, config.d_bow, iters=config.train_iters, seed=config.seed)
    _, residuals = kmeans_assign_batch(bow, descriptors)
    pq = pq_train(residuals, m=config.m, n_centers=config.d_pq,
                  iters=config.train_iters, seed=config.seed + 1)

    def load_features(paths):
        frames = []
        for path in paths:
            frames.extend(read_global_features(path))
        if not frames:
            raise ValueError("no input files: no global features to train on")
        return frames

    frames = load_features(global_files)
    pca_frames = load_features(pca_files) if pca_files else frames
    pca = pca_fit(_sample_rows(pca_frames, config.max_train_samples, rng), config.pca_dim)
    del pca_frames
    projected = pca_project(pca, _sample_rows(frames, config.max_train_samples, rng))
    gmm = gmm_train(projected, config.d_fk, iters=config.gmm_iters, seed=config.seed + 2)

    centers = binary_centers_train(_signature_codes(frames, pca, gmm),
                                   gmm.n_components * gmm.d, k=config.binary_clusters,
                                   iters=config.train_iters, seed=config.seed + 3)
    return CodebookSet(bow=bow, pq=pq, pca=pca, gmm=gmm, binary_centers=centers)


def build_local_index_from_files(files: list[Path], books: CodebookSet,
                                 config: EngineConfig) -> LocalIndex:
    geometry = FrameGeometry(config.frame_width, config.frame_height)
    frames = _read_frames(files, read_local_descriptors)
    if not frames:
        raise ValueError("no input files: nothing to index")
    postings = encode_frame_local(frames, books.bow, books.pq, geometry)
    frame_to_video = {fid: vid for fid, vid, _ in frames}
    return build_local_index(postings, frame_to_video, n_words=books.bow.k,
                             m=books.pq.m, n_pq_centers=books.pq.n_centers,
                             prune_fraction=config.prune_fraction, geometry=geometry)


def build_global_index_from_files(files: list[Path], books: CodebookSet,
                                  config: EngineConfig) -> GlobalIndex:
    frames = _read_frames(files, read_global_features)
    if not frames:
        raise ValueError("no input files: nothing to index")
    return build_global_index(
        np.array([fid for fid, _, _ in frames], dtype=np.uint32),
        np.array([vid for _, vid, _ in frames], dtype=np.uint32),
        _signature_codes(frames, books.pca, books.gmm), books.binary_centers,
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
                     config: EngineConfig, asymmetric: bool = False) -> dict[int, RankedList]:
    """Run every frame of an LDSC file as a query; keys are frame ids."""
    check_compatible_local(books, index)
    frames = _read_frames([path], read_local_descriptors)
    table = PQScoreTable(books.pq)
    geometry = FrameGeometry(config.frame_width, config.frame_height)
    hough = HoughConfig()
    return {fid: local_rank(rows, index, books.bow, books.pq, tau_pq=config.tau_pq,
                            top_n=config.top_n, hough=hough, query_geometry=geometry,
                            table=table, asymmetric=asymmetric)
            for fid, _, rows in frames}


def query_global_file(path: str | Path, index: GlobalIndex, books: CodebookSet,
                      config: EngineConfig, brute_force: bool = False) -> dict[int, RankedList]:
    """Run every frame of a GDSC file as a query; keys are frame ids."""
    check_compatible_global(books, index)
    frames = _read_frames([path], read_global_features)
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
