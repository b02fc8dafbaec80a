import math
from dataclasses import dataclass, fields

import numpy as np
import pytest

from frameseek import (FrameGeometry, HoughConfig, Matches, kmeans_train,
                       pq_train, wrap_angle)


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
