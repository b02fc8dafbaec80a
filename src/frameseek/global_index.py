"""Global descriptor channel: Fisher pooling, binarization, Hamming clusters.

A frame's PCA-reduced dense features pool into a first-order Fisher vector
(mean gradients of the GMM log-likelihood), which binarizes with a zero-bias
threshold into a B = d * D_fk bit signature. Signatures group under their
Hamming-nearest binary cluster center so queries can probe a few clusters
instead of the whole corpus.
"""

from dataclasses import dataclass, field

import numpy as np

from .bits import pack_bits, packed_length, pad_bits_clear
from .codebooks import BinaryCenters, GMMModel, binary_assign_batch, gmm_posteriors


def fisher_vector(features: np.ndarray, gmm: GMMModel) -> np.ndarray:
    """First-order (mean-gradient) Fisher vector of one frame's feature set,
    or of each frame of an (f, n, d) stack of frames with n rows each.

    For component k: g_k = (1 / (n sqrt(w_k))) * sum_i gamma_i(k) (x_i - mu_k) / sigma_k,
    concatenated over components. No power or l2 normalization is applied;
    the sign pattern is what binarization consumes, and it is invariant under
    any positive rescaling.

    A stack takes the posteriors and the sums gamma.T @ x in one pass, and
    numpy multiplies it one frame at a time, so each frame's vector equals
    that of the frame pooled alone, bit for bit.

    Args:
        features: (n, d) rows, one d-vector, or an (f, n, d) stack.

    Returns:
        The (D_fk * d,) vector, or for a stack one such row per frame.

    Raises:
        ValueError: an empty frame or a feature dimension other than the
            mixture's.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n, d = features.shape[-2:]
    if n == 0:
        raise ValueError("empty frame: no features to pool")
    if d != gmm.d:
        raise ValueError(f"feature dimension {d} does not match mixture ({gmm.d})")
    frames = features.reshape(-1, n, d)
    gamma = gmm_posteriors(gmm, frames)  # (f, n, k)
    fisher = np.matmul(gamma.transpose(0, 2, 1), frames)  # sum_i gamma_i(k) x_i
    fisher -= gamma.sum(axis=1)[:, :, None] * gmm.means
    fisher /= np.sqrt(gmm.variances)
    fisher /= (n * np.sqrt(gmm.weights))[:, None]
    fisher = fisher.reshape(frames.shape[0], -1)
    return fisher if features.ndim == 3 else fisher[0]


def binarize(v: np.ndarray) -> np.ndarray:
    """Zero-bias threshold: bit i is 1 iff v[i] > 0 (exact zero gives 0)."""
    return (np.asarray(v) > 0).astype(np.uint8)


@dataclass
class GlobalSignature:
    """One frame's binary Fisher code."""

    frame_id: int
    video_id: int
    bits: np.ndarray  # packed uint8, ceil(n_bits / 8) bytes
    n_bits: int


@dataclass
class GlobalIndex:
    """Frozen cluster-partitioned signature store.

    Each cluster holds struct-of-arrays (frame ids, video ids, packed codes)
    sorted by frame id.
    """

    n_bits: int
    n_gmm_components: int
    centers: BinaryCenters
    clusters: list[dict[str, np.ndarray]] = field(repr=False)

    @property
    def n_signatures(self) -> int:
        return sum(c["frame"].shape[0] for c in self.clusters)

    def cluster_sizes(self) -> np.ndarray:
        return np.array([c["frame"].shape[0] for c in self.clusters], dtype=np.int64)


def make_signature(frame_id: int, video_id: int, fisher: np.ndarray) -> GlobalSignature:
    """Binarize a Fisher vector into a packed signature (cluster unassigned)."""
    bits = binarize(fisher)
    return GlobalSignature(frame_id=frame_id, video_id=video_id,
                           bits=pack_bits(bits), n_bits=bits.shape[0])


def build_global_index(frame_ids: np.ndarray, video_ids: np.ndarray, codes: np.ndarray,
                       centers: BinaryCenters, n_gmm_components: int = 0) -> GlobalIndex:
    """Assign each packed code (one row per frame) to its Hamming-nearest
    center (ties to the lowest index) and freeze per-cluster columns sorted
    by frame id, frames with equal ids in input order.

    Raises:
        ValueError: no codes, columns of unequal length, codes whose width
            does not match the cluster centers' bit length, or a code with
            a bit set past that length.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.shape[0]
    if n == 0:
        raise ValueError("no signatures to index")
    if len(frame_ids) != n or len(video_ids) != n:
        raise ValueError(f"{n} codes but {len(frame_ids)} frame ids and {len(video_ids)} video ids")
    if codes.ndim != 2 or codes.shape[1] != packed_length(centers.n_bits):
        raise ValueError(f"bit-length mismatch: codes have {codes.shape[1:]} bytes, "
                         f"centers have {centers.n_bits} bits")
    if not pad_bits_clear(codes, centers.n_bits):
        raise ValueError(f"a code sets bits past the centers' {centers.n_bits}-bit length")
    frame = np.asarray(frame_ids, dtype=np.uint32)
    assign = binary_assign_batch(centers, codes)
    order = np.lexsort((frame, assign))
    frame, video = frame[order], np.asarray(video_ids, dtype=np.uint32)[order]
    codes, bounds = codes[order], np.searchsorted(assign[order], np.arange(centers.k + 1))
    clusters = [{"frame": frame[lo:hi], "video": video[lo:hi], "codes": codes[lo:hi]}
                for lo, hi in zip(bounds[:-1], bounds[1:])]
    return GlobalIndex(n_bits=centers.n_bits, n_gmm_components=n_gmm_components,
                       centers=centers, clusters=clusters)
