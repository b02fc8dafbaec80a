"""Synthetic corpus generator for tests and benchmarks.

Builds a reference corpus of videos whose keypoint descriptors are noisy
draws from a shared prototype vocabulary and whose dense features are noisy
draws from per-video prototypes, then plants query frames that are copies of
chosen reference frames under a known similarity transform (rotation, scale,
translation) plus descriptor noise and optional distractor keypoints. The
planted transforms are returned (and logged to disk) so geometric checks can
verify the Hough votes against ground truth.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import FrameGeometry, wrap_angle
from .local_index import DESCRIPTOR_DIM
from .storage import (GLOBAL_FEATURE_DIM, write_global_features,
                      write_ground_truth, write_local_descriptors)

QUERY_ID_BASE = 1_000_000


@dataclass
class LocalRecord:
    """One generated keypoint: geometry plus its descriptor."""

    frame_id: int
    video_id: int
    x: float
    y: float
    theta: float  # radians
    log_scale: float  # log2 of keypoint scale
    descriptor: np.ndarray

    def __post_init__(self):
        self.descriptor = np.asarray(self.descriptor, dtype=np.float32)


def records_to_rows(records: list[LocalRecord]) -> np.ndarray:
    """The records as one float32 row block [x, y, theta, log_scale,
    descriptor...], the layout the LDSC reader returns for a frame."""
    if not records:
        return np.empty((0, 4 + DESCRIPTOR_DIM), dtype=np.float32)
    geometry = np.array([(r.x, r.y, r.theta, r.log_scale) for r in records], dtype=np.float32)
    return np.hstack([geometry, np.stack([r.descriptor for r in records])])


@dataclass
class SynthSpec:
    n_videos: int = 20
    frames_per_video: int = 5
    n_queries: int = 5
    keypoints_per_frame: int = 30
    dense_per_frame: int = 16
    vocab_size: int = 64          # descriptor prototypes shared across videos
    descriptor_noise: float = 0.05
    global_noise: float = 0.05
    distractor_keypoints: int = 0
    rotation_max: float = math.pi / 6
    log_scale_max: float = 0.5    # |log2 scale| of the planted transform
    translation_max: float = 80.0  # pixels
    frame_width: float = 1280.0
    frame_height: float = 720.0
    seed: int = 0


@dataclass
class PlantedQuery:
    query_id: int
    source_video: int
    source_frame: int
    theta: float
    scale: float
    tx: float
    ty: float


@dataclass
class SynthCorpus:
    spec: SynthSpec
    ref_local: list[tuple[int, int, list[LocalRecord]]]
    ref_global: list[tuple[int, int, np.ndarray]]
    query_local: list[tuple[int, int, list[LocalRecord]]]
    query_global: list[tuple[int, int, np.ndarray]]
    ground_truth: dict[int, set[int]]
    transforms: list[PlantedQuery] = field(default_factory=list)


def _frame_records(frame_id, video_id, spec, vocab, rng) -> list[LocalRecord]:
    geom = FrameGeometry(spec.frame_width, spec.frame_height)
    n = spec.keypoints_per_frame
    words = rng.integers(0, spec.vocab_size, size=n)
    descs = vocab[words] + rng.normal(0.0, spec.descriptor_noise, size=(n, DESCRIPTOR_DIM))
    xs = rng.uniform(0.05 * geom.width, 0.95 * geom.width, size=n)
    ys = rng.uniform(0.05 * geom.height, 0.95 * geom.height, size=n)
    thetas = rng.uniform(-math.pi, math.pi, size=n)
    scales = rng.uniform(0.0, 4.0, size=n)
    return [
        LocalRecord(frame_id=frame_id, video_id=video_id, x=float(xs[i]), y=float(ys[i]),
                    theta=float(thetas[i]), log_scale=float(scales[i]),
                    descriptor=descs[i].astype(np.float32))
        for i in range(n)
    ]


def transform_records(records: list[LocalRecord], frame_id: int, video_id: int,
                      theta: float, scale: float, tx: float, ty: float,
                      noise: float, rng: np.random.Generator) -> list[LocalRecord]:
    """Map reference keypoints through a similarity transform: the query
    point is q = scale * R(theta) r + t, with orientation and log-scale
    shifted accordingly and descriptors re-noised."""
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    log_scale_shift = math.log2(scale)
    out = []
    for rec in records:
        x = scale * (cos_t * rec.x - sin_t * rec.y) + tx
        y = scale * (sin_t * rec.x + cos_t * rec.y) + ty
        desc = rec.descriptor + rng.normal(0.0, noise, size=rec.descriptor.shape).astype(np.float32)
        out.append(LocalRecord(
            frame_id=frame_id, video_id=video_id, x=float(x), y=float(y),
            theta=float(wrap_angle(rec.theta + theta)),
            log_scale=float(rec.log_scale + log_scale_shift),
            descriptor=desc))
    return out


def generate(spec: SynthSpec) -> SynthCorpus:
    """Deterministically build a corpus and its planted queries.

    Raises:
        ValueError: more queries than videos.
    """
    if spec.n_queries > spec.n_videos:
        raise ValueError(f"{spec.n_queries} queries exceed {spec.n_videos} videos; "
                         "each query copies a frame of its own video")
    rng = np.random.default_rng(spec.seed)
    vocab = rng.normal(0.0, 1.0, size=(spec.vocab_size, DESCRIPTOR_DIM))
    video_protos = rng.normal(0.0, 1.0, size=(spec.n_videos, GLOBAL_FEATURE_DIM))

    ref_local = []
    ref_global = []
    frame_id = 0
    frame_lookup: dict[int, tuple[int, list[LocalRecord], np.ndarray]] = {}
    for video in range(spec.n_videos):
        for _ in range(spec.frames_per_video):
            records = _frame_records(frame_id, video, spec, vocab, rng)
            frame_offset = rng.normal(0.0, 0.3, size=GLOBAL_FEATURE_DIM)
            feats = (video_protos[video] + frame_offset
                     + rng.normal(0.0, spec.global_noise,
                                  size=(spec.dense_per_frame, GLOBAL_FEATURE_DIM)))
            ref_local.append((frame_id, video, records))
            ref_global.append((frame_id, video, feats.astype(np.float32)))
            frame_lookup[frame_id] = (video, records, feats)
            frame_id += 1

    source_videos = rng.choice(spec.n_videos, size=spec.n_queries, replace=False)
    query_local = []
    query_global = []
    ground_truth: dict[int, set[int]] = {}
    transforms = []
    geom = FrameGeometry(spec.frame_width, spec.frame_height)
    for qi, video in enumerate(sorted(int(v) for v in source_videos)):
        query_id = QUERY_ID_BASE + qi
        source_frame = int(rng.integers(video * spec.frames_per_video,
                                        (video + 1) * spec.frames_per_video))
        _, records, feats = frame_lookup[source_frame]
        theta = float(rng.uniform(-spec.rotation_max, spec.rotation_max))
        scale = float(2.0 ** rng.uniform(-spec.log_scale_max, spec.log_scale_max))
        tx = float(rng.uniform(-spec.translation_max, spec.translation_max))
        ty = float(rng.uniform(-spec.translation_max, spec.translation_max))
        q_records = transform_records(records, query_id, 0, theta, scale, tx, ty,
                                      spec.descriptor_noise, rng)
        for _ in range(spec.distractor_keypoints):
            q_records.append(LocalRecord(
                frame_id=query_id, video_id=0,
                x=float(rng.uniform(0, geom.width)), y=float(rng.uniform(0, geom.height)),
                theta=float(rng.uniform(-math.pi, math.pi)),
                log_scale=float(rng.uniform(0.0, 4.0)),
                descriptor=rng.normal(0.0, 1.0, size=DESCRIPTOR_DIM).astype(np.float32)))
        q_feats = feats + rng.normal(0.0, spec.global_noise, size=feats.shape)
        query_local.append((query_id, 0, q_records))
        query_global.append((query_id, 0, q_feats.astype(np.float32)))
        ground_truth[query_id] = {video}
        transforms.append(PlantedQuery(query_id=query_id, source_video=video,
                                       source_frame=source_frame, theta=theta,
                                       scale=scale, tx=tx, ty=ty))

    return SynthCorpus(spec=spec, ref_local=ref_local, ref_global=ref_global,
                       query_local=query_local, query_global=query_global,
                       ground_truth=ground_truth, transforms=transforms)


def write_corpus(corpus: SynthCorpus, out_dir: str | Path) -> dict[str, Path]:
    """Write the corpus to disk; returns the paths keyed by role."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "ref_local": out_dir / "refs.ldsc",
        "ref_global": out_dir / "refs.gdsc",
        "query_local": out_dir / "queries.ldsc",
        "query_global": out_dir / "queries.gdsc",
        "ground_truth": out_dir / "gt.tsv",
        "transforms": out_dir / "transforms.tsv",
    }
    for role in ("ref_local", "query_local"):
        frames = [(fid, vid, records_to_rows(records))
                  for fid, vid, records in getattr(corpus, role)]
        write_local_descriptors(frames, paths[role])
    write_global_features(corpus.ref_global, paths["ref_global"])
    write_global_features(corpus.query_global, paths["query_global"])
    write_ground_truth(corpus.ground_truth, paths["ground_truth"])
    lines = ["query_id\tsource_video\tsource_frame\ttheta\tscale\ttx\tty"]
    for t in corpus.transforms:
        lines.append(f"{t.query_id}\t{t.source_video}\t{t.source_frame}"
                     f"\t{t.theta:.9f}\t{t.scale:.9f}\t{t.tx:.9f}\t{t.ty:.9f}")
    paths["transforms"].write_text("\n".join(lines) + "\n")
    return paths
