"""Output checks written apart from the engine.

Each function recomputes a result from first principles with plain numpy
and Python, using only the engine's inputs or its returned data structures,
never its helper functions. A check returns a list of mismatch messages;
an empty list means the output is correct.
"""

import math

import numpy as np

SCORE_TOL = 1e-12
MAP_FLOOR = 0.9  # smallest acceptable fused mAP on the planted queries


# --- retrieval quality ----------------------------------------------------

def mean_average_precision(run: dict[int, list[int]], gt: dict[int, set[int]],
                           cutoff: int = 100) -> float:
    """Non-interpolated mAP over the ground-truth queries; a query missing
    from the run scores 0."""
    aps = []
    for query in sorted(gt):
        relevant = gt[query]
        hits, total = 0, 0.0
        for rank, video in enumerate(run.get(query, [])[:cutoff], start=1):
            if video in relevant:
                hits += 1
                total += hits / rank
        aps.append(total / len(relevant))
    return sum(aps) / len(aps)


def precision_at_1(run: dict[int, list[int]], gt: dict[int, set[int]]) -> float:
    """mAP@1: the share of queries whose first result is relevant."""
    return sum(1 for q in gt if run.get(q) and run[q][0] in gt[q]) / len(gt)


# --- ranked lists -----------------------------------------------------------

def check_ranked(entries: list[tuple[int, float]], known_videos: set[int],
                 top_n: int, what: str) -> list[str]:
    """Non-increasing scores in (0, 1], at most top_n entries, known videos."""
    errors = []
    if len(entries) > top_n:
        errors.append(f"{what}: {len(entries)} entries exceed top_n={top_n}")
    scores = [s for _, s in entries]
    if any(b > a for a, b in zip(scores, scores[1:])):
        errors.append(f"{what}: scores increase")
    if any(not (0.0 < s <= 1.0 + SCORE_TOL) for s in scores):
        errors.append(f"{what}: score outside (0, 1]")
    unknown = {v for v, _ in entries} - known_videos
    if unknown:
        errors.append(f"{what}: unknown videos {sorted(unknown)[:5]}")
    return errors


def _same_entries(got, want, what) -> list[str]:
    if [v for v, _ in got] != [v for v, _ in want]:
        return [f"{what}: video order differs from the recomputation"]
    worst = max((abs(a - b) for (_, a), (_, b) in zip(got, want)), default=0.0)
    if worst > SCORE_TOL:
        return [f"{what}: scores differ from the recomputation by {worst:.3g}"]
    return []


def _popcount_rows(packed: np.ndarray) -> np.ndarray:
    return np.unpackbits(packed, axis=1).sum(axis=1, dtype=np.int64)


def expected_global(query_bits: np.ndarray, index, k_probe: int,
                    top_n: int) -> list[tuple[int, float]]:
    """Probe the k Hamming-nearest centers (ties to the lower id), score each
    member 1 - popcount(xor) / B, keep the per-video maximum."""
    center_dist = _popcount_rows(np.bitwise_xor(index.centers.centers, query_bits))
    probed = sorted(range(center_dist.size), key=lambda j: (center_dist[j], j))[:k_probe]
    best: dict[int, float] = {}
    for j in probed:
        cluster = index.clusters[j]
        if cluster["frame"].size == 0:
            continue
        dist = _popcount_rows(np.bitwise_xor(cluster["codes"], query_bits))
        for video, d in zip(cluster["video"].tolist(), dist.tolist()):
            score = 1.0 - d / index.n_bits
            if score > best.get(video, -1.0):
                best[video] = score
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]


def check_global(entries, query_bits, index, k_probe, top_n) -> list[str]:
    return _same_entries(entries, expected_global(query_bits, index, k_probe, top_n),
                         "global")


def _settling_score(scores: list[float], epsilon: float, warmup: int) -> float:
    """The first score from which the drop over the preceding warmup-long
    window is below epsilon / 5; the last score if the list never settles."""
    for t in range(warmup, len(scores)):
        if scores[t - warmup] - scores[t] < epsilon / 5.0:
            return scores[t]
    return scores[-1]


def expected_fused(local, global_, epsilon, warmup, top_n) -> list[tuple[int, float]]:
    """Subtract each list's settling score, drop what is left at or below
    zero, and merge the two lists by per-video maximum."""
    best: dict[int, float] = {}
    for entries in (local, global_):
        if not entries:
            continue
        settle = _settling_score([s for _, s in entries], epsilon, warmup)
        for video, score in entries:
            kept = score - settle
            if kept > 0.0 and kept > best.get(video, 0.0):
                best[video] = kept
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]


def check_fused(entries, local, global_, epsilon, warmup, top_n) -> list[str]:
    return _same_entries(entries, expected_fused(local, global_, epsilon, warmup, top_n),
                         "fused")


# --- local index ------------------------------------------------------------

def expected_local_postings(frames, vocabulary: np.ndarray,
                            prune_fraction: float) -> tuple[int, np.ndarray]:
    """Posting count and stop-word mask of an inverted file over `frames`.

    Every keypoint goes to its nearest vocabulary center; a word's document
    frequency counts the distinct frames holding it; the ceil(prune_fraction
    * k) most frequent words are stopped (ties stop the lower word id), and
    their keypoints are dropped.
    """
    centers = vocabulary.astype(np.float64)
    k = centers.shape[0]
    center_sq = (centers ** 2).sum(axis=1)
    words, frame_of = [], []
    for frame_id, _, records in frames:
        if not records:
            continue
        x = np.array([r.descriptor for r in records], dtype=np.float64)
        d2 = (x ** 2).sum(axis=1)[:, None] - 2.0 * (x @ centers.T) + center_sq[None, :]
        words.append(d2.argmin(axis=1))
        frame_of.append(np.full(len(records), frame_id, dtype=np.int64))
    words = np.concatenate(words)
    frame_of = np.concatenate(frame_of)
    pairs = np.unique(frame_of * k + words)
    doc_freq = np.bincount(pairs % k, minlength=k)
    n_stop = math.ceil(prune_fraction * k)
    stopped = sorted(range(k), key=lambda w: (-doc_freq[w], w))[:n_stop]
    stop_mask = np.zeros(k, dtype=bool)
    stop_mask[stopped] = True
    return int((~stop_mask[words]).sum()), stop_mask


def check_local_index(index, expected_postings: int, expected_stops: np.ndarray) -> list[str]:
    errors = []
    if index.n_postings() != expected_postings:
        errors.append(f"local index holds {index.n_postings()} postings, "
                      f"recomputed {expected_postings}")
    if not np.array_equal(index.stop_mask, expected_stops):
        errors.append("local index stop words differ from the recomputation")
    return errors
