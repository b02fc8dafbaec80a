import numpy as np
import pytest

from conftest import binary_assign
from frameseek import BinaryCenters, binary_assign_batch
from frameseek.bits import hamming_to_many, pack_bits, pad_bits_clear


def bit_loop_distance(a, b):
    """Differing bits of two byte rows, one bit at a time."""
    return sum((x >> i & 1) != (y >> i & 1) for x, y in zip(a.tolist(), b.tolist())
               for i in range(8))


WIDTHS = [1, 2, 3, 6, 8, 16, 512]  # bytes per code: 8-, 16- and 4096-bit codes among them


@pytest.mark.parametrize("bitwise_count", [True, False], ids=["bitwise_count", "table"])
@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("width", WIDTHS)
def test_hamming_to_many_equals_bit_loop_oracle(monkeypatch, bitwise_count, rows, width):
    if not bitwise_count:  # numpy < 2 has no np.bitwise_count and counts by table
        monkeypatch.delattr(np, "bitwise_count", raising=False)
    gen = np.random.default_rng(width * 7 + rows)
    codes = gen.integers(0, 256, size=(rows, width), dtype=np.uint8)
    codes[0] = 0xFF  # every bit of every word differs from the zero query
    query = gen.integers(0, 256, size=width, dtype=np.uint8)
    got = hamming_to_many(query, codes)
    assert got.dtype == np.int64
    assert got.tolist() == [bit_loop_distance(query, row) for row in codes]
    assert hamming_to_many(np.zeros(width, dtype=np.uint8), codes)[0] == 8 * width


@pytest.mark.parametrize("bitwise_count", [True, False], ids=["bitwise_count", "table"])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("width", WIDTHS)
def test_binary_assign_equals_bit_loop_argmin(monkeypatch, bitwise_count, k, width):
    if not bitwise_count:
        monkeypatch.delattr(np, "bitwise_count", raising=False)
    gen = np.random.default_rng(width * 11 + k)
    centers = BinaryCenters(centers=np.unique(gen.integers(0, 256, size=(k, width),
                                                           dtype=np.uint8), axis=0),
                            n_bits=8 * width)
    codes = gen.integers(0, 256, size=(6, width), dtype=np.uint8)
    want = [binary_assign(centers, code) for code in codes]
    assert binary_assign_batch(centers, codes).tolist() == want
    assert binary_assign_batch(centers, codes[:1]).tolist() == want[:1]


def test_pad_bits_clear():
    codes = pack_bits(np.ones((2, 12), dtype=np.uint8))
    assert pad_bits_clear(codes, 12) and pad_bits_clear(codes, 16)
    codes[1, 1] |= 0x10
    assert not pad_bits_clear(codes, 12)
    assert not pad_bits_clear(codes[1], 12)
    assert pad_bits_clear(codes[:0], 12)
