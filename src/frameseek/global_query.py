"""Global channel query path: cluster probing and normalized Hamming scoring.

A query signature probes its k nearest binary cluster centers; every
signature stored under a probed cluster is a candidate, scored by the
similarity complement of the normalized Hamming distance (higher is better,
consistent with the local channel). Signatures outside the probed clusters
never enter the ranked list; every probed video does, even at score 0.
"""

from dataclasses import dataclass

import numpy as np

from .bits import hamming_to_many
from .fusion import GLOBAL, RankedList, rank_videos
from .global_index import GlobalIndex


@dataclass
class GlobalQueryConfig:
    k_probe: int = 5
    top_n: int = 100
    brute_force: bool = False

    def __post_init__(self):
        if self.k_probe < 1:
            raise ValueError("k_probe must be at least 1")


def probe_order(query_bits: np.ndarray, index: GlobalIndex) -> np.ndarray:
    """Cluster ids sorted by center distance to the query (ties by id)."""
    dists = hamming_to_many(query_bits, index.centers.centers)
    return np.lexsort((np.arange(dists.shape[0]), dists))


def probe_candidates(query_bits: np.ndarray, index: GlobalIndex,
                     k_probe: int) -> dict[str, np.ndarray]:
    """Candidate signatures from the k_probe Hamming-nearest clusters.

    Returns concatenated struct-of-arrays; its size is the number of
    signatures examined, the quantity the probe bounds versus brute force.
    """
    k_probe = min(k_probe, index.centers.k)
    chosen = probe_order(query_bits, index)[:k_probe]
    frames = [index.clusters[j]["frame"] for j in chosen]
    videos = [index.clusters[j]["video"] for j in chosen]
    codes = [index.clusters[j]["codes"] for j in chosen]
    return {
        "frame": np.concatenate(frames) if frames else np.empty(0, dtype=np.uint32),
        "video": np.concatenate(videos) if videos else np.empty(0, dtype=np.uint32),
        "codes": np.concatenate(codes) if codes else np.empty((0, 0), dtype=np.uint8),
    }


def global_rank(query_bits: np.ndarray, index: GlobalIndex,
                cfg: GlobalQueryConfig | None = None) -> RankedList:
    """Rank videos by their best candidate frame's Hamming similarity.

    With brute_force (or k_probe covering every cluster) all signatures are
    candidates, which is the exhaustive oracle the probe approximates.
    Candidate scores are exact either way; probing only restricts candidate
    membership. Ties order by ascending video id; truncated to top_n.
    """
    cfg = cfg or GlobalQueryConfig()
    query_bits = np.asarray(query_bits, dtype=np.uint8)
    if index.n_signatures == 0:
        return RankedList([], [], GLOBAL)
    k = index.centers.k if cfg.brute_force else cfg.k_probe
    cands = probe_candidates(query_bits, index, k)
    if cands["frame"].size == 0:
        return RankedList([], [], GLOBAL)
    if cands["codes"].shape[1] != query_bits.shape[0]:
        raise ValueError(f"bit-length mismatch: query has {query_bits.shape[0]} bytes, "
                         f"index has {cands['codes'].shape[1]}")
    dists = hamming_to_many(query_bits, cands["codes"])
    scores = 1.0 - dists.astype(np.float64) / index.n_bits
    return rank_videos(cands["video"], scores, GLOBAL, cfg.top_n)
