"""Sparse byte-addressable memory for the CPU substrate.

Pages are allocated lazily as 4 KiB bytearrays, so kernels can scatter
data across a 32-bit address space without cost.  Words are
little-endian.  All accesses are masked to 32 bits; unaligned word and
halfword accesses raise, which catches address-arithmetic bugs in
workload kernels early.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["Memory", "PAGE_SIZE"]

PAGE_SIZE = 4096
_PAGE_SHIFT = 12
_OFFSET_MASK = PAGE_SIZE - 1
_ADDR_MASK = 0xFFFFFFFF


class _Pages(dict):
    """Page table: indexing a missing page allocates it, zero-filled."""

    def __missing__(self, index: int) -> bytearray:
        page = self[index] = bytearray(PAGE_SIZE)
        return page


class Memory:
    """Lazy paged memory with word/halfword/byte access."""

    def __init__(self) -> None:
        self._pages = _Pages()

    # -- bytes -----------------------------------------------------------

    def load_byte(self, addr: int) -> int:
        addr &= _ADDR_MASK
        return self._pages[addr >> _PAGE_SHIFT][addr & _OFFSET_MASK]

    def store_byte(self, addr: int, value: int) -> None:
        addr &= _ADDR_MASK
        self._pages[addr >> _PAGE_SHIFT][addr & _OFFSET_MASK] = value & 0xFF

    # -- halfwords ---------------------------------------------------------

    def load_half(self, addr: int) -> int:
        addr &= _ADDR_MASK
        if addr & 1:
            raise ValueError(f"unaligned halfword load at {addr:#010x}")
        page = self._pages[addr >> _PAGE_SHIFT]
        offset = addr & _OFFSET_MASK
        return page[offset] | (page[offset + 1] << 8)

    def store_half(self, addr: int, value: int) -> None:
        addr &= _ADDR_MASK
        if addr & 1:
            raise ValueError(f"unaligned halfword store at {addr:#010x}")
        page = self._pages[addr >> _PAGE_SHIFT]
        offset = addr & _OFFSET_MASK
        page[offset] = value & 0xFF
        page[offset + 1] = (value >> 8) & 0xFF

    # -- words ------------------------------------------------------------

    def load_word(self, addr: int) -> int:
        addr &= _ADDR_MASK
        if addr & 3:
            raise ValueError(f"unaligned word load at {addr:#010x}")
        page = self._pages[addr >> _PAGE_SHIFT]
        offset = addr & _OFFSET_MASK
        return int.from_bytes(page[offset:offset + 4], "little")

    def store_word(self, addr: int, value: int) -> None:
        addr &= _ADDR_MASK
        if addr & 3:
            raise ValueError(f"unaligned word store at {addr:#010x}")
        page = self._pages[addr >> _PAGE_SHIFT]
        offset = addr & _OFFSET_MASK
        page[offset:offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    # -- bulk helpers -------------------------------------------------------

    def store_words(self, addr: int, values: Iterable[int]) -> None:
        """Write consecutive words starting at ``addr``.

        The words are packed to little-endian bytes once and copied a
        page at a time; workload setup stores tens of thousands.
        """
        data = np.fromiter(
            (int(value) & 0xFFFFFFFF for value in values), dtype="<u4"
        ).tobytes()
        if not data:
            return
        addr &= _ADDR_MASK
        if addr & 3:
            raise ValueError(f"unaligned word store at {addr:#010x}")
        done = 0
        while done < len(data):
            offset = addr & _OFFSET_MASK
            chunk = data[done:done + PAGE_SIZE - offset]
            self._pages[addr >> _PAGE_SHIFT][offset:offset + len(chunk)] = chunk
            done += len(chunk)
            addr = (addr + len(chunk)) & _ADDR_MASK

    def load_words(self, addr: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive words starting at ``addr``."""
        return np.array(
            [self.load_word(addr + 4 * i) for i in range(count)], dtype=np.uint64
        )

    @property
    def allocated_bytes(self) -> int:
        """Bytes of backing store currently allocated."""
        return len(self._pages) * PAGE_SIZE
