"""Statistical models behind both retrieval channels.

Trains and applies the coarse k-means vocabulary, the product subquantizers
over coarse residuals, the PCA reduction for dense deep features, the
diagonal-covariance GMM behind Fisher pooling, and the binary cluster
centers that partition Hamming space. All training is deterministic given an
integer seed; ties everywhere break toward the lowest index.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bits import hamming_to_many, pack_bits, pad_bits_clear, unpack_bits

VARIANCE_FLOOR = 1e-6
# Float64 entries in one (rows, k) block of nearest-center distances or GMM
# log densities: 2^15 floats are 256 KiB, so a block, its norm sums and the
# centers stay in a 2 MiB per-core L2 cache, and memory grows with the block,
# never with n * k. On a Xeon with 2 MiB of L2 per core, encoding at the
# benchmark's shapes ran 10-25% faster than with 2^17 and no slower than
# with 2^13 or 2^14.
BLOCK_FLOATS = 1 << 15
# Fewest rows a block may be given (`_row_spans`). OpenBLAS 0.3 on x86-64
# rounds a product of a few rows differently from the same rows inside a
# larger product: a sweep saw differences up to 75 rows at (d, k) = (64, 16),
# 18 at (64, 64), 9 at (128, 128), 4 at (128, 256) and 1 at (128, 10000).
# Blocks far above that make every fixed-seed output independent of how the
# rows are blocked.
BLOCK_MIN_ROWS = 128
# Slack of the k-means++ distance screen, relative to |x|^2 + |y|^2. A float64
# dot product of length d errs by at most about d * 2^-53 * sum_k |x_k y_k|,
# in any summation order, so the screened and the exact squared distance
# each err by at most about 2 (d + 3) * 2^-53 * (|x|^2 + |y|^2); 1e-9 covers
# both for d up to about 10^6.
SCREEN_TOL = 1e-9


@dataclass
class KMeansModel:
    """k centers over d dimensions; `objective_trace` records training only.

    Centers are held in float32, matching the on-disk codebook precision, so
    a freshly trained model and a reloaded one behave identically. They are
    a read-only copy, so the derived `center_terms` cannot go stale.
    """

    centers: np.ndarray  # (k, d) float32
    objective_trace: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.centers = _read_only(np.array(self.centers, dtype=np.float32, order="C"))
        if self.centers.ndim != 2 or self.centers.shape[0] < 1:
            raise ValueError("centers must be a non-empty 2-d matrix")
        if not np.all(np.isfinite(self.centers)):
            raise ValueError("centers must be finite")
        if np.unique(self.centers, axis=0).shape[0] != self.centers.shape[0]:
            raise ValueError("duplicate centers")

    @cached_property
    def center_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The (k, d) centers in float64 and their (k,) squared norms: what
        `_nearest_centers` needs besides the rows. Derived on first use and
        kept, so a one-frame query does not pay for them."""
        centers = _read_only(self.centers.astype(np.float64))
        return centers, np.einsum("ij,ij->i", centers, centers)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


@dataclass
class PQModel:
    """m independent subquantizers over equal slices of the input vector.

    max_dist[k] is the exact maximum pairwise distance between centers of
    subquantizer k, used to normalize code-to-code similarity into [0, 1].
    """

    sub_models: list[KMeansModel]
    max_dist: np.ndarray  # (m,) float64, strictly positive

    def __post_init__(self):
        self.max_dist = np.asarray(self.max_dist, dtype=np.float64)
        if len(self.sub_models) != self.max_dist.shape[0]:
            raise ValueError("max_dist length must match number of subquantizers")
        if not np.all(self.max_dist > 0):
            raise ValueError("max_dist entries must be strictly positive")

    @property
    def m(self) -> int:
        return len(self.sub_models)

    @property
    def sub_dim(self) -> int:
        return self.sub_models[0].d

    @property
    def d(self) -> int:
        return self.m * self.sub_dim

    @property
    def n_centers(self) -> int:
        return self.sub_models[0].k


@dataclass
class PCAModel:
    """Affine projection onto the top principal directions (no whitening).

    The mean and basis are read-only copies, so the derived
    `projection_terms` cannot go stale.
    """

    mean: np.ndarray  # (d_in,) float32
    basis: np.ndarray  # (d_out, d_in) float32, orthonormal rows

    def __post_init__(self):
        self.mean = _read_only(np.array(self.mean, dtype=np.float32))
        self.basis = _read_only(np.array(self.basis, dtype=np.float32, order="C"))
        if self.basis.shape[0] > self.basis.shape[1]:
            raise ValueError("d_out must not exceed d_in")
        basis, _ = self.projection_terms
        if not np.allclose(basis @ basis.T, np.eye(self.basis.shape[0]), atol=1e-6):
            raise ValueError("basis rows must be orthonormal")

    @cached_property
    def projection_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The basis and the mean in float64: what `pca_project` needs
        besides the vectors, derived once per model."""
        return (_read_only(self.basis.astype(np.float64)),
                _read_only(self.mean.astype(np.float64)))

    @property
    def d_in(self) -> int:
        return self.basis.shape[1]

    @property
    def d_out(self) -> int:
        return self.basis.shape[0]


@dataclass
class GMMModel:
    """Diagonal-covariance Gaussian mixture (float64 parameters)."""

    weights: np.ndarray  # (k,)
    means: np.ndarray  # (k, d)
    variances: np.ndarray  # (k, d), >= VARIANCE_FLOOR
    log_likelihood_trace: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.ascontiguousarray(self.means, dtype=np.float64)
        self.variances = np.ascontiguousarray(self.variances, dtype=np.float64)
        if abs(float(self.weights.sum()) - 1.0) > 1e-6:
            raise ValueError("mixture weights must sum to 1")
        if np.any(self.variances < VARIANCE_FLOOR * (1.0 - 1e-9)):
            raise ValueError("variances below floor")

    @cached_property
    def log_density_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """-1 / (2 sigma^2) and mu / sigma^2, both (k, d), and the (k,) log
        weight and normalizer of each component: what `gmm_log_posteriors`
        needs besides the samples. Derived on first use and kept, so a
        one-frame query does not pay for them; the parameters must not
        change afterwards."""
        neg_half_precision = -0.5 / self.variances
        scaled_means = self.means / self.variances
        offset = np.log(self.weights) - 0.5 * (
            self.d * np.log(2.0 * np.pi)
            + (np.log(self.variances) + self.means * scaled_means).sum(axis=1))
        return neg_half_precision, scaled_means, offset

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


@dataclass
class BinaryCenters:
    """Distinct cluster centers partitioning Hamming space, packed LSB-first."""

    centers: np.ndarray  # (k, ceil(n_bits / 8)) uint8
    n_bits: int
    objective_trace: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.centers = np.ascontiguousarray(np.atleast_2d(self.centers), dtype=np.uint8)
        if not pad_bits_clear(self.centers, self.n_bits):
            raise ValueError(f"binary centers set bits past n_bits = {self.n_bits}")
        if len({center.tobytes() for center in self.centers}) != self.k:
            raise ValueError("duplicate binary centers")

    @property
    def k(self) -> int:
        return self.centers.shape[0]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances via the expansion identity."""
    p_norm = np.einsum("ij,ij->i", points, points)
    c_norm = np.einsum("ij,ij->i", centers, centers)
    d2 = p_norm[:, None] + c_norm[None, :] - 2.0 * (points @ centers.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _row_spans(n: int, k: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of near-equal blocks of n rows whose (rows, k) float64
    block holds about BLOCK_FLOATS entries, and never fewer than
    BLOCK_MIN_ROWS rows.

    The blocks are of near-equal size rather than full blocks plus a short
    tail, so when n needs more than one block each holds at least half the
    cap, 64 rows or more, and BLAS rounds each row as a larger product would.
    """
    n_blocks = max(1, -(-n // max(BLOCK_MIN_ROWS, BLOCK_FLOATS // k)))
    return [(b * n // n_blocks, (b + 1) * n // n_blocks) for b in range(n_blocks)]


def _nearest_centers(points: np.ndarray, centers: np.ndarray,
                     center_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest center of each row (lowest index on ties) and its squared
    distance (|x|^2 + |c|^2) - 2 x.c clipped at 0, the one nearest-center
    search of k-means, word assignment and PQ encoding.

    `center_sq` holds the centers' squared norms. The rows run in blocks
    (`_row_spans`); when there are several, each block's distances and
    norm sums go into two buffers made once per call, so no block
    allocates a fresh (rows, k) array.
    """
    n, k = points.shape[0], centers.shape[0]
    spans = _row_spans(n, k)
    point_sq = np.einsum("ij,ij->i", points, points)
    if len(spans) == 1:
        return _nearest_in_block(points, centers, center_sq, point_sq)
    rows = -(-n // len(spans))
    d2_buffer, sum_buffer = np.empty((rows, k)), np.empty((rows, k))
    assign = np.empty(n, dtype=np.int64)
    nearest = np.empty(n, dtype=np.float64)
    for lo, hi in spans:
        assign[lo:hi], nearest[lo:hi] = _nearest_in_block(
            points[lo:hi], centers, center_sq, point_sq[lo:hi],
            d2_buffer[:hi - lo], sum_buffer[:hi - lo])
    return assign, nearest


def _nearest_in_block(block: np.ndarray, centers: np.ndarray, center_sq: np.ndarray,
                      point_sq: np.ndarray, d2_out: np.ndarray | None = None,
                      sum_out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """`_nearest_centers` on one block: one matrix product, doubled and
    subtracted in place. Only a row whose minimum is negative is clipped:
    it takes the first center at or below 0 and the distance 0, as the
    argmin of the clipped row would."""
    d2 = np.matmul(block, centers.T, out=d2_out)
    d2 *= 2.0
    np.subtract(np.add(point_sq[:, None], center_sq, out=sum_out), d2, out=d2)
    assign = d2.argmin(axis=1)
    nearest = d2[np.arange(assign.shape[0]), assign]
    negative = nearest < 0.0
    if negative.any():
        assign[negative] = (d2[negative] <= 0.0).argmax(axis=1)
        nearest[negative] = 0.0
    return assign, nearest


def _plusplus_seeds(n: int, k: int, rng: np.random.Generator, lower_closest) -> np.ndarray:
    """Indices of k distance-weighted random seeds among n rows: each draw
    has probability proportional to the squared distance to the nearest
    seed already chosen. lower_closest(i, closest) lowers each entry of
    closest, in place, to that row's squared distance to row i where that
    is smaller; the first call gets closest all infinite.

    Raises:
        ValueError: a squared distance is not finite, or every row lies at
            distance 0 from the seeds before k are drawn (fewer than k
            distinct rows).
    """
    if n == 0:
        raise ValueError("insufficient samples: need at least k distinct rows")
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    closest = np.full(n, np.inf)
    lower_closest(chosen[0], closest)
    for j in range(1, k):
        total = closest.sum()
        if not np.isfinite(total):
            raise ValueError("squared distances between samples must be finite")
        if total == 0:
            raise ValueError("insufficient samples: need at least k distinct rows")
        # the steps of rng.choice(n, p=closest / total), which draw the same
        # row from the same random stream, without its checks of p
        cdf = (closest / total).cumsum()
        cdf /= cdf[-1]
        chosen[j] = cdf.searchsorted(rng.random(), side="right")
        lower_closest(chosen[j], closest)
    return chosen


def kmeans_train(samples: np.ndarray, k: int, iters: int = 25, seed: int = 0) -> KMeansModel:
    """Lloyd's k-means with distance-weighted seeding.

    Seeding screens every row with one matrix-vector product per draw and
    recomputes exactly only the rows the screen cannot rule out (see
    SCREEN_TOL), so the seeds are those that exact distances draw. Empty
    clusters are re-seeded from the points farthest from their nearest
    center. The recorded objective (sum of squared distances to the nearest
    center) is non-increasing across iterations.

    Raises:
        ValueError: fewer than k distinct sample rows, as seeding finds
            them: its draws stop at zero distance to every row.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValueError("samples must be a non-empty 2-d matrix")
    if k < 1:
        raise ValueError("k must be >= 1")

    rows = np.ascontiguousarray(samples)
    sq = np.einsum("ij,ij->i", rows, rows)

    def lower_closest(i, closest):
        # |x - y|^2 = |x|^2 + |y|^2 - 2 x.y screens every row; a row whose
        # screened distance exceeds closest by more than the rounding bound
        # cannot lower it, and the others get the exact distance
        norms = sq + sq[i]
        screened = norms - 2.0 * (rows @ rows[i])
        near = np.flatnonzero(screened <= closest + SCREEN_TOL * norms)
        diff = rows[near]
        diff -= rows[i]
        closest[near] = np.minimum(closest[near], np.einsum("ij,ij->i", diff, diff))

    rng = np.random.default_rng(seed)
    centers = samples[_plusplus_seeds(samples.shape[0], k, rng, lower_closest)]
    columns = samples.T.copy()
    trace = []
    for _ in range(max(1, iters)):
        assign, nearest = _nearest_centers(samples, centers, np.einsum("ij,ij->i", centers, centers))
        trace.append(float(nearest.sum()))
        counts = np.bincount(assign, minlength=k)
        # bincount adds each center's rows in row order, as np.add.at does,
        # so the sums are the same bits
        sums = np.stack([np.bincount(assign, weights=col, minlength=k) for col in columns],
                        axis=1)
        nonempty = counts > 0
        centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        empties = np.flatnonzero(~nonempty)
        if empties.size:
            # re-seed from the farthest points, skipping duplicate rows so two
            # empty slots never land on the same coordinates
            farthest = iter(np.argsort(-nearest, kind="stable"))
            taken: set[bytes] = set()
            for slot in empties:
                for point_idx in farthest:
                    row = samples[point_idx].tobytes()
                    if row not in taken:
                        taken.add(row)
                        centers[slot] = samples[point_idx]
                        break
    model = KMeansModel(centers=centers.astype(np.float32))
    model.objective_trace = np.asarray(trace)
    return model


def kmeans_assign_batch(model: KMeansModel, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized assignment: word ids and residuals for each row."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if vectors.shape[1] != model.d:
        raise ValueError(f"dimension mismatch: vectors have {vectors.shape[1]} dims, model expects {model.d}")
    centers, center_sq = model.center_terms
    words, _ = _nearest_centers(vectors, centers, center_sq)
    return words, vectors - centers[words]


def pq_train(residuals: np.ndarray, m: int = 8, n_centers: int = 256,
             iters: int = 25, seed: int = 0) -> PQModel:
    """Train m independent subquantizers over non-overlapping residual slices.

    max_dist[k] is computed exactly over all center pairs of subquantizer k
    and verified to bound every pair.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    d = residuals.shape[1]
    if d % m != 0:
        raise ValueError(f"m={m} does not divide dimension {d}")
    if not 2 <= n_centers <= 256:
        raise ValueError("n_centers must be in [2, 256] so codes fit one byte")
    sub_dim = d // m
    sub_models = []
    max_dist = np.empty(m, dtype=np.float64)
    for j in range(m):
        sub = kmeans_train(residuals[:, j * sub_dim:(j + 1) * sub_dim],
                           n_centers, iters=iters, seed=seed + j)
        centers = sub.centers.astype(np.float64)
        pair = np.sqrt(_squared_distances(centers, centers))
        max_dist[j] = float(pair.max())
        assert np.all(pair <= max_dist[j]), "max_dist must bound every center pair"
        sub_models.append(sub)
    return PQModel(sub_models=sub_models, max_dist=max_dist)


def pq_encode_batch(model: PQModel, residuals: np.ndarray) -> np.ndarray:
    residuals = np.atleast_2d(np.asarray(residuals, dtype=np.float64))
    if residuals.shape[1] != model.d:
        raise ValueError(f"dimension mismatch: residuals have {residuals.shape[1]} dims, model expects {model.d}")
    codes = np.empty((residuals.shape[0], model.m), dtype=np.uint8)
    sub_dim = model.sub_dim
    for j, sub in enumerate(model.sub_models):
        codes[:, j], _ = _nearest_centers(residuals[:, j * sub_dim:(j + 1) * sub_dim],
                                          *sub.center_terms)
    return codes


def pca_fit(samples: np.ndarray, d_out: int) -> PCAModel:
    """Top-d_out principal directions of mean-centered samples.

    Basis rows are ordered by descending eigenvalue; each row's sign is fixed
    so its largest-magnitude entry is positive.

    Raises:
        ValueError: fewer samples than d_out + 1, or data rank below d_out.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n, _ = samples.shape
    if n <= d_out:
        raise ValueError("need more samples than output dimensions")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    if eigvals[0] <= 0 or eigvals[d_out - 1] <= eigvals[0] * 1e-10:
        raise ValueError("insufficient rank: data rank below requested dimensions")
    basis = eigvecs[:, order[:d_out]].T
    flip = np.sign(basis[np.arange(d_out), np.argmax(np.abs(basis), axis=1)])
    basis *= flip[:, None]
    return PCAModel(mean=mean.astype(np.float32), basis=basis.astype(np.float32))


def pca_project(model: PCAModel, v: np.ndarray) -> np.ndarray:
    """Project one vector, a batch of rows or an (f, n, d) stack of row
    batches: basis . (v - mean). numpy multiplies a stack one batch at a
    time, so each batch projects as it would alone."""
    v = np.asarray(v, dtype=np.float64)
    basis, mean = model.projection_terms
    if v.ndim == 1:
        return basis @ (v - mean)
    return (v - mean) @ basis.T


def gmm_log_posteriors(model: GMMModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample log responsibilities and log-likelihoods.

    The Mahalanobis term sum_d (x - mu)^2 / sigma^2 expands into
    x^2 . (1 / sigma^2) - 2 x . (mu / sigma^2) + sum_d mu^2 / sigma^2, so the
    log joint densities take two matrix products per row block
    (`_row_spans`): memory grows with n * k, never with n * k * d. An
    (f, n, d) stack of frames takes the same products frame by frame (numpy
    multiplies a stack one matrix at a time), so each frame's values are
    those of the frame alone, bit for bit.

    Returns:
        (log_gamma, log_lik) with shapes (n, k) and (n,), or (f, n, k) and
        (f, n) for a stack.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    neg_half_precision, scaled_means, offset = model.log_density_terms

    def log_joint(block):
        return (block * block) @ neg_half_precision.T + block @ scaled_means.T + offset

    blocks = [log_joint(x[..., lo:hi, :])
              for lo, hi in _row_spans(x.shape[-2], model.n_components)]
    joint = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-2)
    del blocks
    peak = joint.max(axis=-1, keepdims=True)
    log_lik = peak[..., 0] + np.log(np.exp(joint - peak).sum(axis=-1))
    joint -= log_lik[..., None]
    return joint, log_lik


def gmm_posteriors(model: GMMModel, x: np.ndarray) -> np.ndarray:
    """Responsibilities gamma_i(k), shape (n, k), or (f, n, k) for a stack."""
    log_gamma, _ = gmm_log_posteriors(model, x)
    return np.exp(log_gamma)


def gmm_train(samples: np.ndarray, n_components: int, iters: int = 50, seed: int = 0) -> GMMModel:
    """EM for a diagonal-covariance mixture, initialized from k-means.

    Total log-likelihood is non-decreasing per iteration within 1e-8 slack
    (the variance floor can nick the exact guarantee). Components whose total
    responsibility collapses are re-seeded from a random sample with a
    warning.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n, _ = samples.shape
    rng = np.random.default_rng(seed)

    km = kmeans_train(samples, n_components, iters=10, seed=seed)
    assign, _ = _nearest_centers(samples, *km.center_terms)
    means = km.center_terms[0].copy()
    weights = np.maximum(np.bincount(assign, minlength=n_components).astype(np.float64), 1.0)
    weights /= weights.sum()
    global_var = np.maximum(samples.var(axis=0), VARIANCE_FLOOR)
    variances = np.tile(global_var, (n_components, 1))

    trace = []
    model = GMMModel(weights=weights, means=means, variances=variances)
    for _ in range(max(1, iters)):
        log_gamma, log_lik = gmm_log_posteriors(model, samples)
        trace.append(float(log_lik.sum()))
        gamma = np.exp(log_gamma)
        totals = gamma.sum(axis=0)
        dead = np.flatnonzero(totals < 1e-10)
        if dead.size:
            warnings.warn(f"re-seeding {dead.size} degenerate mixture component(s)", RuntimeWarning)
            for j in dead:
                means[j] = samples[int(rng.integers(n))]
                variances[j] = global_var
                gamma[:, j] = 1e-8
            totals = gamma.sum(axis=0)
        weights = totals / totals.sum()
        means = (gamma.T @ samples) / totals[:, None]
        sq = (gamma.T @ (samples * samples)) / totals[:, None]
        variances = np.maximum(sq - means * means, VARIANCE_FLOOR)
        model = GMMModel(weights=weights, means=means, variances=variances)

    model.log_likelihood_trace = np.asarray(trace)
    return model


def _hamming_to_centers(codes: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) Hamming distances from packed codes to packed centers."""
    return np.stack([hamming_to_many(center, codes) for center in centers], axis=1)


def binary_centers_train(codes: np.ndarray, n_bits: int, k: int = 32,
                         iters: int = 20, seed: int = 0) -> BinaryCenters:
    """k-majority clustering in Hamming space.

    Assignment is by Hamming distance (ties to the lowest index); the center
    update takes the per-bit majority of each cluster (ties to bit 0), so the
    total Hamming objective is non-increasing. Empty clusters re-seed from
    the codes farthest from their nearest center. Pad bits past n_bits in
    the input are ignored.

    Args:
        codes: (n, ceil(n_bits / 8)) packed uint8 matrix.
        n_bits: logical code length in bits.
        k: number of centers.

    Raises:
        ValueError: fewer than k distinct codes, as seeding finds them: its
            draws stop at zero distance to every code.
    """
    # the bits feed only the per-cluster bit counts; repacking them zeroes any
    # pad bits, which no distance may count. On 0/1 vectors the squared
    # distance is the Hamming distance, an integer that float64 holds
    # exactly, so seeding on the packed codes draws the same rows as seeding
    # on float64 copies of the bits.
    bits = unpack_bits(np.atleast_2d(codes), n_bits)
    packed = pack_bits(bits)
    rng = np.random.default_rng(seed)
    centers = packed[_plusplus_seeds(
        len(packed), k, rng,
        lambda i, closest: np.minimum(closest, hamming_to_many(packed[i], packed), out=closest))]

    trace = []
    for _ in range(max(1, iters)):
        dists = _hamming_to_centers(packed, centers)
        assign = np.argmin(dists, axis=1)
        nearest = dists.min(axis=1)
        trace.append(float(nearest.sum()))
        counts = np.bincount(assign, minlength=k)
        majority = np.zeros((k, n_bits), dtype=np.uint8)
        for j in np.flatnonzero(counts):
            majority[j] = 2 * bits[assign == j].sum(axis=0, dtype=np.int64) > counts[j]
        centers = pack_bits(majority)
        empties = np.flatnonzero(counts == 0)
        centers[empties] = packed[np.argsort(-nearest, kind="stable")[: empties.size]]

    model = BinaryCenters(centers=_dedupe_centers(centers, packed), n_bits=n_bits)
    model.objective_trace = np.asarray(trace)
    return model


def _dedupe_centers(centers: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Replace each repeat of an earlier center with the unused code farthest
    from every center. The type requires distinct centers, and two clusters
    can share one per-bit majority (tests/test_codebooks.py builds a case)."""
    used = {center.tobytes() for center in centers}
    if len(used) == len(centers):
        return centers
    far = iter(np.argsort(-_hamming_to_centers(codes, centers).min(axis=1), kind="stable"))
    seen: set[bytes] = set()
    for slot, center in enumerate(centers):
        if center.tobytes() in seen:
            code = next((codes[i] for i in far if codes[i].tobytes() not in used), None)
            if code is None:
                raise ValueError("insufficient distinct codes to separate centers")
            centers[slot] = code
            used.add(code.tobytes())
        seen.add(center.tobytes())
    return centers


def binary_assign_batch(centers: BinaryCenters, codes: np.ndarray) -> np.ndarray:
    return np.argmin(_hamming_to_centers(codes, centers.centers), axis=1)


@dataclass
class CodebookSet:
    """Every trained model the engine needs, stored as one versioned bundle."""

    bow: KMeansModel
    pq: PQModel
    pca: PCAModel
    gmm: GMMModel
    binary_centers: BinaryCenters
