"""Local channel query path: PQ scoring, match collection, Hough voting.

A query keypoint matches reference postings under the same coarse word whose
normalized PQ similarity exceeds tau_pq; surviving matches are weighted by
the word's idf and then checked for geometric consistency with a 4-dof
similarity-transform Hough vote. The dominant bin total, normalized by the
query's own score mass, becomes the frame score; videos take the maximum
over their frames.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .codebooks import KMeansModel, PQModel, kmeans_assign_batch, pq_encode_batch
from .fusion import LOCAL, RankedList, rank_videos
from .geometry import (FrameGeometry, dequantize_log_scale, dequantize_theta,
                       wrap_angle)
from .local_index import LocalIndex


@dataclass
class HoughConfig:
    """Joint (rotation, log-scale, translation) histogram geometry.

    Rotation bins cover [-pi, pi); log2 scale-ratio bins cover [-4, 4);
    translation bins cover [-2, 2) in units of scaled query diagonals.
    Out-of-range scale and translation values clip to the boundary bins.
    """

    n_theta_bins: int = 16
    n_scale_bins: int = 8
    n_trans_bins: int = 16
    scale_range: tuple[float, float] = (-4.0, 4.0)
    trans_range: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self):
        if min(self.n_theta_bins, self.n_scale_bins, self.n_trans_bins) < 2:
            raise ValueError("all bin counts must be at least 2")


@dataclass
class QueryPosting:
    """Encoded query keypoint: hash codes plus raw (unquantized) geometry."""

    word: int
    codes: np.ndarray  # (m,) uint8
    x: float
    y: float
    theta: float
    log_scale: float


@dataclass
class Matches:
    """Surviving query-to-reference keypoint matches as equal-length columns,
    one row per match, in ascending query keypoint order."""

    frame: np.ndarray  # (n,) reference frame ids
    query_index: np.ndarray  # (n,) int64 position within the query frame
    score: np.ndarray  # (n,) float64 idf-weighted hard similarity, > 0
    qx: np.ndarray  # (n,) float64 query geometry, raw
    qy: np.ndarray
    qtheta: np.ndarray
    qlog_scale: np.ndarray
    rx: np.ndarray  # (n,) float64 reference geometry, dequantized
    ry: np.ndarray
    rtheta: np.ndarray
    rlog_scale: np.ndarray

    def __len__(self) -> int:
        return self.frame.shape[0]


class PQScoreTable:
    """Precomputed per-subspace lookup tables for normalized code-to-code
    scoring, one (m, n_centers, n_centers) array.

    tables[k, i, j] = 1 - ||c_i - c_j|| / max_dist[k], clipped into [0, 1];
    each table is exactly symmetric, so a row is also a column.
    """

    def __init__(self, pq: PQModel):
        self.m = pq.m
        tables = []
        for j, sub in enumerate(pq.sub_models):
            centers = sub.centers.astype(np.float64)
            diff = centers[:, None, :] - centers[None, :, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            tables.append(np.clip(1.0 - dist / pq.max_dist[j], 0.0, 1.0))
        self.tables = np.stack(tables)


def encode_query_local(rows: np.ndarray, bow: KMeansModel, pq: PQModel) -> list[QueryPosting]:
    """Encode query keypoints, keeping raw geometry for the Hough vote.

    `rows` is the query frame's row block as the LDSC reader returns it:
    one row [x, y, theta, log_scale, descriptor...] per keypoint; the
    postings come back in row order.
    """
    if not len(rows):
        return []
    if rows.shape[1] - 4 != bow.d:
        raise ValueError(f"descriptor dimension {rows.shape[1] - 4} does not match vocabulary ({bow.d})")
    words, residuals = kmeans_assign_batch(bow, np.ascontiguousarray(rows[:, 4:], dtype=np.float64))
    codes = pq_encode_batch(pq, residuals)
    return [
        QueryPosting(word=word, codes=code, x=x, y=y, theta=wrap_angle(theta),
                     log_scale=log_scale)
        for word, code, (x, y, theta, log_scale) in zip(words.tolist(), codes,
                                                        rows[:, :4].tolist())
    ]


def collect_matches(query: list[QueryPosting], index: LocalIndex, pq: PQModel,
                    tau_pq: float = 0.72, table: PQScoreTable | None = None) -> Matches:
    """Scan the inverted lists of the query's words and keep matches whose PQ
    similarity exceeds tau_pq, weighted by the word's idf.

    Every query keypoint whose word has postings and a positive idf is live.
    The positions of all live keypoints' posting ranges are scored together
    with m flat lookup-table gathers, one per subquantizer (IVFADC-style);
    the other posting columns are gathered at the hits only. Stopped words
    have no postings and are skipped by construction. A match's query_index
    is its keypoint's position in `query`. `table` is `PQScoreTable(pq)`,
    passed in to build it once per query batch.
    """
    if not 0.0 <= tau_pq < 1.0:
        raise ValueError("tau_pq must be in [0, 1)")
    words = np.array([p.word for p in query], dtype=np.int64)
    known = words < index.n_words
    words = np.where(known, words, 0)
    lo, hi = index.word_offsets[words], index.word_offsets[words + 1]
    live = np.flatnonzero(known & (hi > lo) & (index.idf[words] > 0.0))
    if not live.size:
        return Matches(*(np.empty(0) for _ in fields(Matches)))
    live_query = [query[i] for i in live.tolist()]
    lo, counts = lo[live], (hi - lo)[live]
    ends = np.cumsum(counts)
    # pos: the index row of every scanned posting, range after range
    pos = np.repeat(lo - (ends - counts), counts) + np.arange(ends[-1])
    n_centers = pq.n_centers
    # row j of live keypoint i is the score of its code i_j against every
    # center of subspace j: small enough to stay in cache
    q_codes = np.stack([p.codes for p in live_query])
    tables = (table or PQScoreTable(pq)).tables
    luts = tables[np.arange(pq.m)[:, None], q_codes.T].reshape(pq.m, live.size * n_centers)
    lut_base = np.repeat(np.arange(0, live.size * n_centers, n_centers), counts)
    scores = np.zeros(pos.shape[0], dtype=np.float64)
    for j in range(pq.m):
        scores += luts[j].take(lut_base + index.codes[j].take(pos))
    scores /= pq.m

    hits = np.flatnonzero(scores > tau_pq)
    row = lut_base[hits] // n_centers
    hit_pos = pos[hits]
    idf = index.idf[words[live]].astype(np.float64)
    rx, ry = index.geometry.dequantize_xy(index.qx[hit_pos], index.qy[hit_pos])
    qgeom = np.array([(p.x, p.y, p.theta, p.log_scale) for p in live_query],
                     dtype=np.float64)[row]
    return Matches(
        frame=index.frame[hit_pos],
        query_index=live[row],
        score=idf[row] * scores[hits],
        qx=qgeom[:, 0], qy=qgeom[:, 1], qtheta=qgeom[:, 2], qlog_scale=qgeom[:, 3],
        rx=rx, ry=ry, rtheta=dequantize_theta(index.qtheta[hit_pos]),
        rlog_scale=dequantize_log_scale(index.qscale[hit_pos]))


def _theta_bin(theta_rel, n_bins: int):
    """Modular bin over [-pi, pi) with 0 at a bin center, so a zero rotation
    under geometry-quantization jitter stays in one bin. Scalar or array."""
    width = 2.0 * math.pi / n_bins
    return np.floor((theta_rel + math.pi) / width + 0.5).astype(np.int64) % n_bins


def _clipped_bin(value, lo: float, hi: float, n_bins: int):
    """Linear bin, centered so multiples of the width (0 included) fall at
    bin centers; out-of-range values clip to the boundary bins. Scalar or
    array."""
    width = (hi - lo) / n_bins
    pos = np.floor((value - lo) / width + 0.5)
    return np.minimum(np.maximum(pos, 0), n_bins - 1).astype(np.int64)


def hough_verify(matches: Matches, cfg: HoughConfig | None = None,
                 query_diagonal: float | None = None) -> dict[int, float]:
    """Score every reference frame by its dominant 4-dof transform bin.

    Each match votes its score into the joint (rotation difference, log2
    scale ratio, normalized translation) bin implied by its query and
    reference geometry; a query keypoint contributes at most its best match
    per (frame, bin), which stops repeated structures from stacking votes. A
    frame's score is its highest bin total, so it never exceeds the frame's
    total match mass and reaches it only when all matches agree on one
    transform.
    """
    cfg = cfg or HoughConfig()
    diag = query_diagonal if query_diagonal is not None else FrameGeometry().diagonal
    if not len(matches):
        return {}
    theta_rel = wrap_angle(matches.qtheta - matches.rtheta)
    log_ratio = matches.qlog_scale - matches.rlog_scale
    scale = np.power(2.0, log_ratio)
    cos_t, sin_t = np.cos(theta_rel), np.sin(theta_rel)
    tx = matches.qx - scale * (cos_t * matches.rx - sin_t * matches.ry)
    ty = matches.qy - scale * (sin_t * matches.rx + cos_t * matches.ry)
    trans_stat = (tx + ty) / (scale * diag)
    key = ((_theta_bin(theta_rel, cfg.n_theta_bins) * cfg.n_scale_bins
            + _clipped_bin(log_ratio, *cfg.scale_range, cfg.n_scale_bins)) * cfg.n_trans_bins
           + _clipped_bin(trans_stat, *cfg.trans_range, cfg.n_trans_bins))

    order = np.lexsort((matches.query_index, key, matches.frame))
    frame, key, qidx = matches.frame[order], key[order], matches.query_index[order]
    # rows that start a frame, a (frame, bin) and a (frame, bin, keypoint)
    new_frame = np.ones(frame.shape[0], dtype=bool)
    new_frame[1:] = frame[1:] != frame[:-1]
    new_bin = new_frame.copy()
    new_bin[1:] |= key[1:] != key[:-1]
    new_voter = new_bin.copy()
    new_voter[1:] |= qidx[1:] != qidx[:-1]
    best = np.maximum.reduceat(matches.score[order], np.flatnonzero(new_voter))
    # bincount adds in array order, so each bin sums its keypoints' votes one
    # after another in ascending keypoint order, never pairwise
    totals = np.bincount(np.cumsum(new_bin)[new_voter] - 1, weights=best)
    frame_best = np.maximum.reduceat(totals, np.flatnonzero(new_frame[new_bin]))
    return dict(zip(frame[new_frame].tolist(), frame_best.tolist()))


def query_score_mass(query: list[QueryPosting], index: LocalIndex) -> float:
    """Total idf-weighted self-similarity of the query postings (stopped
    words can never match and contribute nothing)."""
    mass = 0.0
    for posting in query:
        if 0 <= posting.word < index.n_words and not index.stop_mask[posting.word]:
            mass += float(index.idf[posting.word])
    return mass


def local_rank(rows: np.ndarray, index: LocalIndex, bow: KMeansModel,
               pq: PQModel, tau_pq: float = 0.72, top_n: int = 100,
               hough: HoughConfig | None = None,
               query_geometry: FrameGeometry | None = None,
               table: PQScoreTable | None = None) -> RankedList:
    """Full local query of one frame's row block: encode, match, verify,
    aggregate to videos.

    A video scores the maximum of its frames' dominant-bin totals, divided
    by the query's own score mass so results land in [0, 1]. Ties order by
    ascending video id; the list truncates to top_n.
    """
    query = encode_query_local(rows, bow, pq)
    mass = query_score_mass(query, index)
    if mass <= 0.0:
        return RankedList(entries=[], channel=LOCAL)
    matches = collect_matches(query, index, pq, tau_pq, table=table)
    diag = (query_geometry or index.geometry).diagonal
    frame_scores = hough_verify(matches, hough, query_diagonal=diag)
    videos: dict[int, float] = {}
    for frame, score in frame_scores.items():
        if score <= 0.0:
            continue
        video = index.frame_to_video[frame]
        normalized = score / mass
        if normalized > videos.get(video, 0.0):
            videos[video] = normalized
    return rank_videos(videos, LOCAL, top_n)
