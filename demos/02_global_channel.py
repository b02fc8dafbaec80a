"""Global channel walkthrough: PCA, Fisher pooling, binarization, probing.

Dense 384-d frame features are reduced to a small PCA space, pooled into a
first-order Fisher vector per frame, sign-binarized, and searched by probing
a few Hamming clusters instead of the whole corpus.
"""

import numpy as np

from frameseek import (binarize, binary_centers_train, build_global_index,
                       fisher_vector, global_rank, gmm_train, make_signature,
                       pca_fit, pca_project, probe_candidates)
from frameseek.bits import hamming_to_many
from frameseek.global_query import GlobalQueryConfig

rng = np.random.default_rng(21)

print("=== 1. dense features for a corpus of 15 videos x 4 frames ===")
n_videos, frames_per_video, dense_per_frame = 15, 4, 12
protos = rng.normal(size=(n_videos, 384))
frames = []
for video in range(n_videos):
    for j in range(frames_per_video):
        feats = protos[video] + rng.normal(0, 0.25, size=(dense_per_frame, 384))
        frames.append((video * frames_per_video + j, video, feats))
print(f"{len(frames)} frames, {dense_per_frame} features each, 384-d raw")

print()
print("=== 2. PCA to 16-d, then a small Gaussian mixture ===")
pooled = np.concatenate([f for _, _, f in frames])
pca = pca_fit(pooled, d_out=16)
projected_pool = pca_project(pca, pooled)
gmm = gmm_train(projected_pool, n_components=4, iters=20, seed=21)
print(f"PCA: {pca.d_in} -> {pca.d_out} dims; GMM: {gmm.n_components} components")
print(f"signature width: {pca.d_out} x {gmm.n_components} = "
      f"{pca.d_out * gmm.n_components} bits per frame")

print()
print("=== 3. Fisher vector + zero-bias binarization ===")
fv = fisher_vector(pca_project(pca, frames[0][2]), gmm)
bits = binarize(fv)
print(f"fisher vector: dim {fv.shape[0]}, l2 {np.linalg.norm(fv):.4f}")
print(f"first 32 bits: {''.join(map(str, bits[:32]))}")
print(f"scaling the vector by 10 flips {int((binarize(10 * fv) != bits).sum())} bits "
      "(sign pattern is scale-invariant)")

print()
print("=== 4. cluster the signatures and build the index ===")
# one packed signature per frame, as rows of one code matrix
codes = np.stack([make_signature(fid, vid, fisher_vector(pca_project(pca, f), gmm)).bits
                  for fid, vid, f in frames])
n_bits = pca.d_out * gmm.n_components
centers = binary_centers_train(codes, n_bits, k=8, iters=15, seed=22)
index = build_global_index([fid for fid, _, _ in frames], [vid for _, vid, _ in frames],
                           codes, centers, n_gmm_components=gmm.n_components)
print(f"cluster sizes: {index.cluster_sizes().tolist()}")

print()
print("=== 5. query: probe 3 of 8 clusters ===")
query_feats = frames[26][2] + rng.normal(0, 0.05, size=(dense_per_frame, 384))
query_sig = make_signature(9999, 0, fisher_vector(pca_project(pca, query_feats), gmm))
examined = probe_candidates(query_sig.bits, index, 3)["frame"].shape[0]
print(f"signatures examined: {examined} of {index.n_signatures} "
      f"({examined / index.n_signatures:.0%})")
ranked = global_rank(query_sig.bits, index, GlobalQueryConfig(k_probe=3, top_n=5))
for video, score in ranked.entries:
    marker = "  <- source video" if video == frames[26][1] else ""
    print(f"  video {video}: {score:.4f}{marker}")

print()
print("=== 6. the score is just normalized Hamming similarity ===")
distance = hamming_to_many(query_sig.bits, codes[26:27])[0]
print(f"1 - hamming(query, its source frame) / B = 1 - {distance} / {n_bits} = "
      f"{1 - distance / n_bits:.4f}")
