import importlib.util
import io
import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from frameseek import (EngineConfig, FrameGeometry, GlobalIndex, HoughConfig,
                       LocalIndex, Matches, PQScoreTable, Postings, kmeans_train,
                       make_signature, pca_project, pq_train, probe_candidates,
                       wrap_angle)
from frameseek.bits import packed_length
from frameseek.codebooks import _row_spans, gmm_log_posteriors
from frameseek.fusion import GLOBAL, RankedList, rank_videos
from frameseek.geometry import dequantize_log_scale, dequantize_theta
from frameseek.local_index import DESCRIPTOR_DIM, POSTING_DTYPES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_configs():
    """The EngineConfig of each benchmark workload, by name, and of the
    published defaults."""
    configs = {name: EngineConfig(**w.config)
               for name, w in load_bench_module("workloads").WORKLOADS.items()}
    return {**configs, "defaults": EngineConfig()}


def nearest_center_shapes():
    """(d, k) of every nearest-center search that training and encoding run
    at the workloads' and the published defaults' settings: descriptors
    against the vocabulary, PQ sub-vectors against their subquantizer and
    projected features against the GMM's k-means start."""
    return sorted({shape for c in workload_configs().values()
                   for shape in ((DESCRIPTOR_DIM, c.d_bow), (DESCRIPTOR_DIM // c.m, c.d_pq),
                                 (c.pca_dim, c.d_fk))})


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_bow():
    """16-word vocabulary over 32-d descriptors."""
    gen = np.random.default_rng(100)
    samples = gen.normal(size=(800, 32))
    return kmeans_train(samples, 16, iters=15, seed=100)


@pytest.fixture(scope="session")
def small_pq():
    """4 subquantizers x 8 centers over 32-d residuals."""
    gen = np.random.default_rng(101)
    return pq_train(gen.normal(size=(800, 32)), m=4, n_centers=8, iters=15, seed=101)


# --- per-posting index build, kept as the oracle for the columnar one ---------

@dataclass
class LocalPosting:
    """Indexed keypoint: coarse word, PQ codes, quantized geometry."""

    word: int
    codes: np.ndarray  # (m,) uint8
    qx: int
    qy: int
    qtheta: int
    qscale: int
    frame_id: int


def postings_from_rows(postings, m=4):
    """Columnar Postings holding the given LocalPosting rows, in order."""
    return Postings(
        word=np.array([p.word for p in postings], dtype=np.int64),
        codes=np.array([p.codes for p in postings], dtype=np.uint8).reshape(-1, m),
        qx=np.array([p.qx for p in postings], dtype=np.uint16),
        qy=np.array([p.qy for p in postings], dtype=np.uint16),
        qtheta=np.array([p.qtheta for p in postings], dtype=np.uint8),
        qscale=np.array([p.qscale for p in postings], dtype=np.uint8),
        frame=np.array([p.frame_id for p in postings], dtype=np.uint32))


def build_local_index_oracle(postings, frame_to_video, n_words, m, n_pq_centers,
                             prune_fraction=0.05, geometry=None):
    """One posting at a time: a seen set for document frequencies, postings
    grouped by word, each word's list sorted by frame with Python's stable
    sort. Returns the index, whose CSR columns are the lists concatenated in
    ascending word order, and the per-word lists themselves."""
    geometry = geometry or FrameGeometry()
    doc_freq = np.zeros(n_words, dtype=np.uint32)
    seen = set()
    for p in postings:
        if (p.word, p.frame_id) not in seen:
            seen.add((p.word, p.frame_id))
            doc_freq[p.word] += 1
    n_stop = math.ceil(prune_fraction * n_words)
    stopped = sorted(range(n_words), key=lambda w: (-int(doc_freq[w]), w))[:n_stop]
    stop_mask = np.zeros(n_words, dtype=bool)
    stop_mask[stopped] = True
    idf = np.log(len(frame_to_video) / (1.0 + doc_freq.astype(np.float64)))
    idf = np.maximum(idf, 0.0).astype(np.float32)
    by_word = {}
    for p in postings:
        if not stop_mask[p.word]:
            by_word.setdefault(p.word, []).append(p)
    lists = {}
    for word in sorted(by_word):
        plist = sorted(by_word[word], key=lambda p: p.frame_id)
        lists[word] = {
            "codes": np.stack([p.codes for p in plist]).astype(np.uint8),
            "qx": np.array([p.qx for p in plist], dtype=np.uint16),
            "qy": np.array([p.qy for p in plist], dtype=np.uint16),
            "qtheta": np.array([p.qtheta for p in plist], dtype=np.uint8),
            "qscale": np.array([p.qscale for p in plist], dtype=np.uint8),
            "frame": np.array([p.frame_id for p in plist], dtype=np.uint32),
        }
    counts = np.zeros(n_words, dtype=np.int64)
    for word, arrs in lists.items():
        counts[word] = arrs["frame"].shape[0]
    columns = {name: np.concatenate([arrs[name] for arrs in lists.values()]
                                    or [np.empty((0, m) if name == "codes" else 0, dtype)])
               for name, dtype in POSTING_DTYPES.items()}
    index = LocalIndex(n_words=n_words, m=m, n_pq_centers=n_pq_centers,
                       prune_fraction=prune_fraction, geometry=geometry,
                       doc_freq=doc_freq, stop_mask=stop_mask, idf=idf,
                       frame_to_video=dict(frame_to_video),
                       word_offsets=np.concatenate([[0], np.cumsum(counts)]),
                       **{**columns, "codes": np.ascontiguousarray(columns["codes"].T)})
    return index, lists


def write_local_index_oracle(index, lists, path):
    """LIDX v2 bytes written from the per-word lists: the header fields of
    `index`, each word's count from its list's length, then each column as
    the lists' values end to end in ascending word order (codes one
    subspace at a time)."""
    out = io.BytesIO()
    out.write(b"LIDX")
    out.write(struct.pack("<H", 2))
    out.write(struct.pack("<III", index.n_words, index.m, index.n_pq_centers))
    out.write(struct.pack("<f", index.prune_fraction))
    out.write(struct.pack("<I", index.n_frames))
    out.write(struct.pack("<ff", index.geometry.width, index.geometry.height))
    frame_ids = sorted(index.frame_to_video)
    out.write(np.array(frame_ids, dtype="<u4").tobytes())
    out.write(np.array([index.frame_to_video[f] for f in frame_ids], dtype="<u4").tobytes())
    out.write(np.packbits(index.stop_mask.astype(np.uint8), bitorder="little").tobytes())
    out.write(index.idf.astype("<f4").tobytes())
    out.write(index.doc_freq.astype("<u4").tobytes())
    for word in range(index.n_words):
        out.write(struct.pack("<I", lists[word]["frame"].shape[0] if word in lists else 0))
    words = sorted(lists)
    for j in range(index.m):
        for word in words:
            out.write(np.ascontiguousarray(lists[word]["codes"][:, j], dtype=np.uint8).tobytes())
    for name, dtype in (("qx", "<u2"), ("qy", "<u2"), ("qtheta", np.uint8),
                        ("qscale", np.uint8), ("frame", "<u4")):
        for word in words:
            out.write(np.ascontiguousarray(lists[word][name], dtype=dtype).tobytes())
    Path(path).write_bytes(out.getvalue())


# --- dict-based match collection, kept as the oracle for the CSR scan ---------

def collect_matches_oracle(query, index, pq, tau_pq=0.72, table=None):
    """Concatenate the inverted lists of the live query keypoints, one dict
    lookup per keypoint, score them with (n_query, m, n_centers) tables, and
    concatenate every posting column before keeping the hits."""
    positions = [i for i, p in enumerate(query)
                 if p.word in index.postings and index.idf[p.word] > 0.0]
    if not positions:
        return Matches(*(np.empty(0) for _ in fields(Matches)))
    live = [query[i] for i in positions]
    ranges = [index.postings[p.word] for p in live]
    row = np.repeat(np.arange(len(live)), [r["frame"].shape[0] for r in ranges])
    ref_codes = np.concatenate([r["codes"] for r in ranges])
    q_codes = np.stack([p.codes for p in live])
    tables = (table or PQScoreTable(pq)).tables
    luts = np.stack([t[:, q_codes[:, j]].T for j, t in enumerate(tables)], axis=1)
    scores = np.zeros(row.shape[0], dtype=np.float64)
    for j in range(luts.shape[1]):
        scores += luts[row, j, ref_codes[:, j]]
    scores /= luts.shape[1]
    hits = np.flatnonzero(scores > tau_pq)
    row = row[hits]

    def gather(name):
        return np.concatenate([r[name] for r in ranges])[hits]

    idf = index.idf[[p.word for p in live]].astype(np.float64)
    rx, ry = index.geometry.dequantize_xy(gather("qx"), gather("qy"))
    qgeom = np.array([(p.x, p.y, p.theta, p.log_scale) for p in live], dtype=np.float64)[row]
    return Matches(
        frame=gather("frame"),
        query_index=np.array(positions, dtype=np.int64)[row],
        score=idf[row] * scores[hits],
        qx=qgeom[:, 0], qy=qgeom[:, 1], qtheta=qgeom[:, 2], qlog_scale=qgeom[:, 3],
        rx=rx, ry=ry, rtheta=dequantize_theta(gather("qtheta")),
        rlog_scale=dequantize_log_scale(gather("qscale")))


# --- scalar Hough vote, kept as the oracle for the columnar one ---------------

@dataclass
class MatchCandidate:
    """One query-to-reference keypoint match, as a plain record."""

    frame_id: int
    query_index: int
    score: float
    qx: float
    qy: float
    qtheta: float
    qlog_scale: float
    rx: float
    ry: float
    rtheta: float
    rlog_scale: float


def matches_from_rows(candidates):
    """Columnar Matches holding the given MatchCandidate rows, in order."""
    return Matches(*(np.array([getattr(c, f.name) for c in candidates])
                     for f in fields(MatchCandidate)))


def match_rows(matches):
    """(frame, query index, score) of every row of a Matches."""
    return set(zip(matches.frame.tolist(), matches.query_index.tolist(),
                   matches.score.tolist()))


def _theta_bin_scalar(theta_rel, n_bins):
    width = 2.0 * math.pi / n_bins
    return int(math.floor((theta_rel + math.pi) / width + 0.5)) % n_bins


def _clipped_bin_scalar(value, lo, hi, n_bins):
    width = (hi - lo) / n_bins
    pos = int(math.floor((value - lo) / width + 0.5))
    return min(max(pos, 0), n_bins - 1)


def hough_verify_oracle(candidates, cfg=None, query_diagonal=None):
    """One candidate at a time: each votes into its (rotation, log-scale,
    translation) bin, a query keypoint keeps its best score per (frame, bin),
    bin totals add in arrival order, and a frame takes its best bin."""
    cfg = cfg or HoughConfig()
    diag = query_diagonal if query_diagonal is not None else FrameGeometry().diagonal
    acc = {}
    for c in candidates:
        theta_rel = float(wrap_angle(c.qtheta - c.rtheta))
        log_ratio = c.qlog_scale - c.rlog_scale
        scale = 2.0 ** log_ratio
        cos_t, sin_t = math.cos(theta_rel), math.sin(theta_rel)
        tx = c.qx - scale * (cos_t * c.rx - sin_t * c.ry)
        ty = c.qy - scale * (sin_t * c.rx + cos_t * c.ry)
        trans_stat = (tx + ty) / (scale * diag)
        key = (
            _theta_bin_scalar(theta_rel, cfg.n_theta_bins),
            _clipped_bin_scalar(log_ratio, cfg.scale_range[0], cfg.scale_range[1], cfg.n_scale_bins),
            _clipped_bin_scalar(trans_stat, cfg.trans_range[0], cfg.trans_range[1], cfg.n_trans_bins),
        )
        per_bin = acc.setdefault(c.frame_id, {}).setdefault(key, {})
        if c.score > per_bin.get(c.query_index, 0.0):
            per_bin[c.query_index] = c.score
    return {
        frame: max(sum(best.values()) for best in bins.values())
        for frame, bins in acc.items()
    }


# --- broadcast GMM posteriors, per-frame Fisher signatures, float64 seeding and
# add.at k-means, kept as oracles

def gmm_log_posteriors_oracle(model, x):
    """Mahalanobis terms from the full (n, k, d) difference array."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    log_w = np.log(model.weights)
    log_norm = -0.5 * (model.d * np.log(2.0 * np.pi) + np.log(model.variances).sum(axis=1))
    diff = x[:, None, :] - model.means[None, :, :]
    mahal = np.einsum("nkd,kd->nk", diff * diff, 1.0 / model.variances)
    joint = log_w[None, :] + log_norm[None, :] - 0.5 * mahal
    peak = joint.max(axis=1, keepdims=True)
    log_lik = peak[:, 0] + np.log(np.exp(joint - peak).sum(axis=1))
    return joint - log_lik[:, None], log_lik


def fisher_vector_oracle(features, gmm):
    """One frame's first-order Fisher vector from one (k, n) @ (n, d)
    product, as the engine pooled each frame alone."""
    features = np.asarray(features, dtype=np.float64)
    gamma = np.exp(gmm_log_posteriors(gmm, features)[0])
    weighted_sum = gamma.T @ features
    totals = gamma.sum(axis=0)
    grads = (weighted_sum - totals[:, None] * gmm.means) / np.sqrt(gmm.variances)
    grads /= (features.shape[0] * np.sqrt(gmm.weights))[:, None]
    return grads.reshape(-1)


def signature_codes_oracle(frames, pca, gmm):
    """Packed signature of each frame, projected, pooled and binarized one
    frame at a time."""
    return np.stack([make_signature(fid, vid, fisher_vector_oracle(pca_project(pca, feats),
                                                                   gmm)).bits
                     for fid, vid, feats in frames])


def plusplus_seeds_oracle(samples, k, rng):
    """Distance-weighted seeding on float64 rows (for binary codes, their
    0/1 bits): probability proportional to the squared distance to the
    nearest chosen seed."""
    n = samples.shape[0]
    seeds = np.empty((k, samples.shape[1]), dtype=np.float64)
    seeds[0] = samples[int(rng.integers(n))]
    diff = samples - seeds[0]
    closest = np.einsum("ij,ij->i", diff, diff)
    for j in range(1, k):
        total = closest.sum()
        idx = int(rng.choice(n, p=closest / total)) if total > 0 else int(rng.integers(n))
        seeds[j] = samples[idx]
        diff = samples - seeds[j]
        np.minimum(closest, np.einsum("ij,ij->i", diff, diff), out=closest)
    return seeds


def nearest_centers_oracle(points, centers):
    """Nearest center of each row (lowest index on ties) and its squared
    distance from the full expansion |x|^2 + |c|^2 - 2 x.c, every entry
    clipped at 0, then an argmin: the arithmetic of the engine's kernel
    with none of its shortcuts. It runs over the engine's row blocks
    (`_row_spans`), so BLAS rounds each product as the engine's does."""
    n = points.shape[0]
    assign = np.empty(n, dtype=np.int64)
    nearest = np.empty(n, dtype=np.float64)
    for lo, hi in _row_spans(n, centers.shape[0]):
        block = points[lo:hi]
        p_norm = np.einsum("ij,ij->i", block, block)
        c_norm = np.einsum("ij,ij->i", centers, centers)
        d2 = p_norm[:, None] + c_norm[None, :] - 2.0 * (block @ centers.T)
        np.maximum(d2, 0.0, out=d2)
        assign[lo:hi] = np.argmin(d2, axis=1)
        nearest[lo:hi] = d2[np.arange(hi - lo), assign[lo:hi]]
    return assign, nearest


def kmeans_train_oracle(samples, k, iters=25, seed=0):
    """Lloyd's k-means as `kmeans_train` ran it before the seeding screen:
    seeds from `plusplus_seeds_oracle` (a full difference pass and
    `rng.choice` per draw), assignment through `nearest_centers_oracle` and
    centroid sums through `np.add.at`. Returns (float32 centers, objective
    trace)."""
    samples = np.asarray(samples, dtype=np.float64)
    centers = plusplus_seeds_oracle(samples, k, np.random.default_rng(seed))
    trace = []
    for _ in range(max(1, iters)):
        assign, nearest = nearest_centers_oracle(samples, centers)
        trace.append(float(nearest.sum()))
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centers)
        np.add.at(sums, assign, samples)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        empties = np.flatnonzero(~nonempty)
        if empties.size:
            farthest = iter(np.argsort(-nearest, kind="stable"))
            taken = set()
            for slot in empties:
                for point_idx in farthest:
                    row = samples[point_idx].tobytes()
                    if row not in taken:
                        taken.add(row)
                        centers[slot] = samples[point_idx]
                        break
    return centers.astype(np.float32), np.asarray(trace)


# --- scalar twins of the batch operations, kept as oracles --------------------

def kmeans_assign(model, v):
    """Nearest-center index of one vector (lowest index on ties) and its
    residual v - c_i."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (model.d,):
        raise ValueError(f"dimension mismatch: vector has shape {v.shape}, model expects ({model.d},)")
    centers = model.centers.astype(np.float64)
    diff = v[None, :] - centers
    word = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
    return word, v - centers[word]


def pq_encode(model, r):
    """One residual's m one-byte sub-codes: the nearest sub-center of each
    slice, by direct differences."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (model.d,):
        raise ValueError(f"dimension mismatch: residual has shape {r.shape}, model expects ({model.d},)")
    codes = np.empty(model.m, dtype=np.uint8)
    for j, sub in enumerate(model.sub_models):
        diff = r[j * model.sub_dim:(j + 1) * model.sub_dim] - sub.centers.astype(np.float64)
        codes[j] = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
    return codes


def pq_score(codes_r, codes_q, pq):
    """Normalized residual similarity of two PQ codes, in [0, 1]: the mean
    over subspaces of the code-to-code table entries, added one at a time."""
    codes_r, codes_q = np.asarray(codes_r), np.asarray(codes_q)
    if codes_r.shape != codes_q.shape:
        raise ValueError("code length mismatch")
    table = pq if isinstance(pq, PQScoreTable) else PQScoreTable(pq)
    total = 0.0
    for j in range(table.m):
        total += table.tables[j][int(codes_r[j]), int(codes_q[j])]
    return total / table.m


def hamming_distance(a, b):
    """Differing bits of two packed codes of equal byte length."""
    a, b = np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"bit-length mismatch: {a.shape} vs {b.shape}")
    return int(np.unpackbits(np.bitwise_xor(a, b)).sum())


def hamming_score(b_r, b_q, n_bits):
    """1 - popcount(b_r XOR b_q) / n_bits."""
    return 1.0 - hamming_distance(b_r, b_q) / n_bits


def binary_assign(centers, code):
    """Hamming-nearest center of one packed code (lowest index on ties)."""
    return min(range(centers.k), key=lambda j: (hamming_distance(code, centers.centers[j]), j))


# --- per-signature global build and dict-loop ranking, kept as oracles --------

def build_global_index_oracle(signatures, centers, n_gmm_components=0):
    """One signature at a time: each joins its scalar-assigned cluster, and
    each cluster's members are sorted by frame id with Python's stable sort."""
    members = [[] for _ in range(centers.k)]
    for sig in signatures:
        members[binary_assign(centers, sig.bits)].append(sig)
    width = packed_length(centers.n_bits)
    clusters = []
    for sigs in members:
        sigs = sorted(sigs, key=lambda s: s.frame_id)
        clusters.append({
            "frame": np.array([s.frame_id for s in sigs], dtype=np.uint32),
            "video": np.array([s.video_id for s in sigs], dtype=np.uint32),
            "codes": np.array([s.bits for s in sigs], dtype=np.uint8).reshape(-1, width),
        })
    return GlobalIndex(n_bits=centers.n_bits, n_gmm_components=n_gmm_components,
                       centers=centers, clusters=clusters)


def global_rank_oracle(query_bits, index, cfg):
    """Score each probed candidate with the scalar Hamming similarity, keep
    every video's best score in a dict, and rank by (-score, video)."""
    if index.n_signatures == 0:
        return RankedList(entries=[], channel=GLOBAL)
    k = index.centers.k if cfg.brute_force else cfg.k_probe
    cands = probe_candidates(query_bits, index, k)
    videos = {}
    for video, code in zip(cands["video"].tolist(), cands["codes"]):
        score = hamming_score(code, query_bits, index.n_bits)
        if score > videos.get(video, -1.0):
            videos[video] = score
    return rank_videos(videos, GLOBAL, cfg.top_n)
