"""Local channel walkthrough: coarse words, PQ residual codes, Hough voting.

Builds a toy vocabulary and product quantizer, encodes a few frames into an
inverted file, then shows how a transformed copy of a frame is retrieved:
code-level similarity first, geometric consistency second.
"""

import math

import numpy as np

from frameseek import (FrameGeometry, LocalRecord, PQScoreTable,
                       build_local_index, collect_matches, encode_frame_local,
                       encode_query_local, hough_verify, kmeans_train,
                       local_rank, pq_train, records_to_rows,
                       transform_records)
from frameseek.codebooks import kmeans_assign_batch

rng = np.random.default_rng(7)
geom = FrameGeometry()

print("=== 1. train the two-stage quantizer ===")
descriptors = rng.normal(size=(2000, 128))
bow = kmeans_train(descriptors, k=32, iters=15, seed=7)
_, residuals = kmeans_assign_batch(bow, descriptors)
pq = pq_train(residuals, m=8, n_centers=16, iters=15, seed=8)
print(f"vocabulary: {bow.k} words over {bow.d}-d descriptors")
print(f"product quantizer: {pq.m} subspaces x {pq.n_centers} centers, "
      f"sub-dimension {pq.sub_dim}")
print(f"max center-pair distance per subspace: {np.round(pq.max_dist, 3)}")

print()
print("=== 2. PQ similarity is a normalized, table-driven score in [0, 1] ===")
table = PQScoreTable(pq)  # (m, n_centers, n_centers): one table per subspace


def table_score(a, b):
    """Mean over subspaces of the table entry for each pair of sub-codes."""
    return float(np.mean([t[i, j] for t, i, j in zip(table.tables, a, b)]))


codes_a = rng.integers(0, 16, size=8).astype(np.uint8)
codes_b = rng.integers(0, 16, size=8).astype(np.uint8)
print(f"score(a, a) = {table_score(codes_a, codes_a):.3f}  (identical codes)")
print(f"score(a, b) = {table_score(codes_a, codes_b):.3f}  (random codes)")

print()
print("=== 3. index a tiny corpus ===")


def random_frame(frame_id, video_id, n=20):
    return [LocalRecord(frame_id=frame_id, video_id=video_id,
                        x=float(rng.uniform(0, geom.width)),
                        y=float(rng.uniform(0, geom.height)),
                        theta=float(rng.uniform(-math.pi, math.pi)),
                        log_scale=float(rng.uniform(0, 4)),
                        descriptor=rng.normal(size=128).astype(np.float32))
            for _ in range(n)]


frames = {fid: random_frame(fid, fid // 2) for fid in range(10)}
# one row block per frame, [x, y, theta, log_scale, descriptor], as the LDSC
# reader returns it; all frames are encoded in one call
postings = encode_frame_local([(fid, fid // 2, records_to_rows(recs))
                               for fid, recs in frames.items()], bow, pq, geom)
index = build_local_index(postings, {fid: fid // 2 for fid in frames},
                          n_words=bow.k, m=pq.m, n_pq_centers=pq.n_centers,
                          prune_fraction=0.05, geometry=geom)
print(f"{index.n_frames} frames, {index.n_postings()} postings, "
      f"{int(index.stop_mask.sum())} stop words pruned")

print()
print("=== 4. query with a rotated + scaled copy of frame 4 ===")
theta, scale, tx, ty = 0.35, 1.25, 60.0, -35.0
query_rows = records_to_rows(transform_records(frames[4], 999, 0, theta, scale, tx, ty,
                                              noise=0.02, rng=rng))
query = encode_query_local(query_rows, bow, pq)
candidates = collect_matches(query, index, pq, tau_pq=0.72, table=table)
print(f"{len(candidates)} candidate matches above the similarity threshold")

frame_scores = hough_verify(candidates, query_diagonal=geom.diagonal)
ranked_frames = sorted(frame_scores.items(), key=lambda kv: -kv[1])
print("dominant-bin score by frame (top 3):")
for fid, score in ranked_frames[:3]:
    print(f"  frame {fid}: {score:.3f}")

print()
print("=== 5. full local ranking (frame scores -> video scores) ===")
ranked = local_rank(query_rows, index, bow, pq, tau_pq=0.72, top_n=5)
for video, score in ranked.entries:
    marker = "  <- source video" if video == 2 else ""
    print(f"  video {video}: {score:.3f}{marker}")
