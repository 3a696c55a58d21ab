"""Unit tests for the sparse paged memory."""

import pytest

from repro.cpu import Memory, PAGE_SIZE


class TestWordAccess:
    def test_roundtrip(self):
        mem = Memory()
        mem.store_word(0x1000, 0xDEADBEEF)
        assert mem.load_word(0x1000) == 0xDEADBEEF

    def test_little_endian_layout(self):
        mem = Memory()
        mem.store_word(0x100, 0x04030201)
        assert [mem.load_byte(0x100 + i) for i in range(4)] == [1, 2, 3, 4]

    def test_value_masked_to_32_bits(self):
        mem = Memory()
        mem.store_word(0, 0x1_2345_6789)
        assert mem.load_word(0) == 0x23456789

    def test_unaligned_word_raises(self):
        mem = Memory()
        with pytest.raises(ValueError):
            mem.load_word(2)
        with pytest.raises(ValueError):
            mem.store_word(1, 0)

    def test_cross_page_sequential_words(self):
        mem = Memory()
        addr = PAGE_SIZE - 4
        mem.store_word(addr, 111)
        mem.store_word(addr + 4, 222)
        assert mem.load_word(addr) == 111
        assert mem.load_word(addr + 4) == 222


class TestHalfAndByte:
    def test_half_roundtrip(self):
        mem = Memory()
        mem.store_half(0x10, 0xBEEF)
        assert mem.load_half(0x10) == 0xBEEF

    def test_unaligned_half_raises(self):
        with pytest.raises(ValueError):
            Memory().load_half(1)

    def test_byte_masking(self):
        mem = Memory()
        mem.store_byte(5, 0x1FF)
        assert mem.load_byte(5) == 0xFF

    def test_uninitialised_reads_zero(self):
        assert Memory().load_word(0x5000) == 0


class TestBulk:
    def test_store_load_words(self):
        mem = Memory()
        mem.store_words(0x2000, [10, 20, 30])
        assert list(mem.load_words(0x2000, 3)) == [10, 20, 30]

    @pytest.mark.parametrize(
        "addr", [0, PAGE_SIZE - 8, 3 * PAGE_SIZE + 4, 0xFFFF_FFF8, 0x1_0000_0010]
    )
    def test_store_words_matches_word_stores(self, addr):
        # Crosses page boundaries and the 32-bit wrap; values are masked.
        values = [(i * 0x9E3779B1) - (i % 3) * 2**33 for i in range(3000)]
        bulk, single = Memory(), Memory()
        bulk.store_words(addr, values)
        for i, value in enumerate(values):
            single.store_word(addr + 4 * i, value)
        assert bulk._pages == single._pages

    def test_store_words_rejects_unaligned(self):
        with pytest.raises(ValueError, match="unaligned"):
            Memory().store_words(0x102, [1])

    def test_allocated_bytes_tracks_pages(self):
        mem = Memory()
        assert mem.allocated_bytes == 0
        mem.store_byte(0, 1)
        mem.store_byte(PAGE_SIZE * 10, 1)
        assert mem.allocated_bytes == 2 * PAGE_SIZE

    def test_address_wraps_at_32_bits(self):
        mem = Memory()
        mem.store_word(0x1_0000_0010, 77)
        assert mem.load_word(0x10) == 77
