"""Packed binary code helpers.

Bit-strings are stored as uint8 arrays, least-significant-bit first within
each byte (matching the on-disk codebook layout). A code of B bits occupies
ceil(B / 8) bytes; trailing pad bits are always zero.
"""

import numpy as np

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def packed_length(n_bits: int) -> int:
    return (n_bits + 7) // 8


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack an array of 0/1 values (last axis = bit index) into uint8 bytes."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1, bitorder="little")


def unpack_bits(packed: np.ndarray, n_bits: int) -> np.ndarray:
    """Unpack uint8 bytes back to a 0/1 uint8 array of length n_bits."""
    out = np.unpackbits(np.asarray(packed, dtype=np.uint8), axis=-1, bitorder="little")
    return out[..., :n_bits]


def popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr) if hasattr(np, "bitwise_count") else _POPCOUNT[arr]


def hamming_to_many(query: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Hamming distances from one packed code to each row of a packed matrix."""
    query = np.asarray(query, dtype=np.uint8)
    codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
    if codes.shape[1] != query.shape[0]:
        raise ValueError(f"bit-length mismatch: {query.shape[0]} vs {codes.shape[1]} bytes")
    xor = np.bitwise_xor(codes, query[None, :])
    return popcount(xor).sum(axis=1, dtype=np.int64)


def hamming_cross(a: np.ndarray, b: np.ndarray, n_bits: int) -> np.ndarray:
    """All-pairs Hamming distances between two packed code matrices.

    Uses the identity d(x, y) = |x| + |y| - 2 x.y on unpacked bits so the
    heavy lifting is a float32 matmul; rows of `a` are processed in chunks
    to bound temporary memory.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    b = np.atleast_2d(np.asarray(b, dtype=np.uint8))
    b_bits = unpack_bits(b, n_bits).astype(np.float32)
    b_pop = b_bits.sum(axis=1)
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.int64)
    chunk = max(1, (1 << 24) // max(1, n_bits))
    for lo in range(0, a.shape[0], chunk):
        hi = min(lo + chunk, a.shape[0])
        a_bits = unpack_bits(a[lo:hi], n_bits).astype(np.float32)
        a_pop = a_bits.sum(axis=1)
        dots = a_bits @ b_bits.T
        out[lo:hi] = np.rint(a_pop[:, None] + b_pop[None, :] - 2.0 * dots).astype(np.int64)
    return out
