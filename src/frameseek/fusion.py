"""Late fusion of local and global ranked lists.

Each channel's ranked list is normalized per query by subtracting an
adaptively chosen settling score: the score at the first position where the
list has stopped dropping materially over a warmup-length stretch. Videos
left at or below zero are dropped, and the two normalized lists merge by
per-video maximum.
"""

from dataclasses import dataclass

import numpy as np

LOCAL = "local"
GLOBAL = "global"
FUSED = "fused"


@dataclass
class FusionConfig:
    epsilon: float = 0.01
    warmup: int = 10

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.warmup < 1:
            raise ValueError("warmup must be at least 1")


@dataclass
class RankedList:
    """One query's videos for one channel as two equal-length columns:
    distinct video ids (int64) and their non-increasing scores (float64)."""

    video: np.ndarray
    score: np.ndarray
    channel: str = LOCAL
    normalized: bool = False

    def __post_init__(self):
        self.video = np.asarray(self.video, dtype=np.int64)
        self.score = np.asarray(self.score, dtype=np.float64)
        if self.video.ndim != 1 or self.video.shape != self.score.shape:
            raise ValueError("video and score must be 1-d columns of equal length")
        if (self.score[1:] > self.score[:-1]).any():
            raise ValueError("scores must be non-increasing")
        if np.unique(self.video).shape != self.video.shape:
            raise ValueError("duplicate video_id in ranked list")

    @classmethod
    def from_entries(cls, entries, channel: str = LOCAL, normalized: bool = False):
        """A ranked list of (video_id, score) pairs, as a run file holds them."""
        return cls([v for v, _ in entries], [s for _, s in entries], channel, normalized)

    @property
    def entries(self) -> list[tuple[int, float]]:
        """The (video_id, score) pairs in rank order, built on each read."""
        return list(zip(self.video.tolist(), self.score.tolist()))

    def __len__(self) -> int:
        return self.video.shape[0]


def rank_videos(video: np.ndarray, score: np.ndarray, channel: str,
                top_n: int | None) -> RankedList:
    """Rank the videos of (video, score) rows by each one's best score:
    descending score, ties by ascending video id, truncated to top_n. A
    video may have any number of rows; no score is filtered out."""
    # by (video, -score) a video's first row holds its best score
    order = np.lexsort((-score, video))
    video, score = video[order], score[order]
    first = np.ones(video.shape[0], dtype=bool)
    first[1:] = video[1:] != video[:-1]
    video, score = video[first], score[first]
    # the videos ascend, so a stable sort by -score breaks ties by video id
    rank = np.argsort(-score, kind="stable")[:top_n]
    return RankedList(video[rank], score[rank], channel)


def settling_point(ranked: RankedList, cfg: FusionConfig | None = None) -> tuple[int, float]:
    """Index and score where a ranked list settles.

    Returns the smallest index t >= warmup at which the total score drop
    across the trailing warmup-length window, score[t - warmup] - score[t],
    has fallen below epsilon / 5: past that point consecutive gaps have
    stayed negligible for a full warmup stretch. When no index qualifies
    (including lists shorter than warmup + 1), falls back to the last index,
    which matches plain last-element normalization.
    """
    cfg = cfg or FusionConfig()
    s, w = ranked.score, cfg.warmup
    if not s.shape[0]:
        raise ValueError("empty ranked list has no settling point")
    settled = np.flatnonzero(s[:max(s.shape[0] - w, 0)] - s[w:] < cfg.epsilon / 5.0)
    t = int(settled[0]) + w if settled.size else s.shape[0] - 1
    return t, float(s[t])


def normalize_list(ranked: RankedList, cfg: FusionConfig | None = None) -> RankedList:
    """Subtract the settling score; drop entries left at or below zero."""
    _, settle = settling_point(ranked, cfg)
    score = ranked.score - settle
    keep = score > 0.0
    return RankedList(ranked.video[keep], score[keep], ranked.channel, normalized=True)


def fuse(local: RankedList, global_: RankedList, cfg: FusionConfig | None = None,
         top_n: int | None = None) -> RankedList:
    """Merge two channel lists by per-video maximum of normalized scores.

    Lists not yet normalized are normalized here first (empty lists pass
    through). A video absent from one channel contributes 0 from it, so
    only scores above 0 enter the merge.
    """
    cfg = cfg or FusionConfig()
    lists = [ranked if ranked.normalized or not len(ranked) else normalize_list(ranked, cfg)
             for ranked in (local, global_)]
    video = np.concatenate([ranked.video for ranked in lists])
    score = np.concatenate([ranked.score for ranked in lists])
    keep = score > 0.0
    fused = rank_videos(video[keep], score[keep], FUSED, top_n)
    fused.normalized = True
    return fused
