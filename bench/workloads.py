"""The benchmark's workloads: synthetic corpus shape plus engine settings.

Each workload stresses a different layer. Sizes are chosen so that one run
(three set-ups plus the query passes) stays well under a minute on a
2-core machine; see README.md for the reasoning behind each one.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict      # frameseek.synth.SynthSpec fields, seed excluded
    config: dict    # frameseek.config.EngineConfig fields, seed and threads excluded


WORKLOADS = {w.name: w for w in (
    Workload(
        name="copy-local",
        spec=dict(n_videos=100, frames_per_video=6, n_queries=100,
                  keypoints_per_frame=60, distractor_keypoints=10,
                  dense_per_frame=8, vocab_size=512),
        config=dict(d_bow=512, m=8, d_pq=64, d_fk=4, pca_dim=16,
                    binary_clusters=16, train_iters=8, gmm_iters=8,
                    max_train_samples=8000),
    ),
    Workload(
        name="neardup-global",
        spec=dict(n_videos=200, frames_per_video=8, n_queries=200,
                  keypoints_per_frame=4, dense_per_frame=16, vocab_size=1024),
        config=dict(d_bow=128, m=8, d_pq=16, d_fk=64, pca_dim=64,
                    binary_clusters=32, train_iters=8, gmm_iters=8,
                    max_train_samples=4000),
    ),
    Workload(
        name="ingest",
        spec=dict(n_videos=250, frames_per_video=8, n_queries=100,
                  keypoints_per_frame=64, dense_per_frame=4, vocab_size=8192),
        config=dict(d_bow=256, m=8, d_pq=32, d_fk=8, pca_dim=16,
                    binary_clusters=16, train_iters=6, gmm_iters=6,
                    max_train_samples=8000),
    ),
)}
