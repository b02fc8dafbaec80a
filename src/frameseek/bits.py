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


def pad_bits_clear(packed: np.ndarray, n_bits: int) -> bool:
    """Whether the bits past n_bits of every packed code (last axis) are zero."""
    return n_bits % 8 == 0 or not np.any(packed[..., -1] >> n_bits % 8)


def _words(packed: np.ndarray) -> np.ndarray:
    """Packed rows viewed as the widest words (up to 8 bytes) dividing their width."""
    for word in (np.uint64, np.uint32, np.uint16):
        if packed.shape[-1] % np.dtype(word).itemsize == 0:
            return np.ascontiguousarray(packed).view(word)
    return packed


def hamming_to_many(query: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Hamming distances from one packed code to each row of a packed matrix.

    Every bit of the bytes counts, pad bits too, so stored codes keep them
    zero (`pad_bits_clear`). This is the engine's one Hamming kernel.
    """
    query = np.asarray(query, dtype=np.uint8)
    codes = np.atleast_2d(np.asarray(codes, dtype=np.uint8))
    if codes.shape[1] != query.shape[0]:
        raise ValueError(f"bit-length mismatch: {query.shape[0]} vs {codes.shape[1]} bytes")
    xor = np.bitwise_xor(_words(codes), _words(query))
    # numpy < 2 has no bitwise_count: look up each byte of the words instead
    counts = np.bitwise_count(xor) if hasattr(np, "bitwise_count") else _POPCOUNT[xor.view(np.uint8)]
    return counts.sum(axis=1, dtype=np.int64)
