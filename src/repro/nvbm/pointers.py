"""Handle (persistent-pointer) encoding.

The paper's §1 third challenge is "special pointers" that cross the
DRAM/NVBM boundary: a persistent octant may point at a volatile one and vice
versa, and recovery must fix them up.  We make the boundary explicit in the
pointer representation: a *handle* is a 64-bit integer whose top 16 bits name
the arena (1 = DRAM, 2 = NVBM) and whose low 48 bits are a record index
within that arena.  Handle 0 is NULL.

After a crash every DRAM handle embedded in a surviving NVBM record is a
dangling pointer by construction; :mod:`repro.core.recovery` finds and
re-swizzles them, exactly the bookkeeping the paper's library hides from
application developers.
"""

from __future__ import annotations

NULL_HANDLE = 0

ARENA_DRAM = 1
ARENA_NVBM = 2

#: Bits of a handle that hold the record index; the arena tag sits above.
INDEX_BITS = 48
INDEX_MASK = (1 << INDEX_BITS) - 1


def make_handle(arena_id: int, index: int) -> int:
    """Build a handle from an arena tag and a record index."""
    if arena_id <= 0 or arena_id > 0xFFFF:
        raise ValueError(f"invalid arena id {arena_id}")
    if index < 0 or index > INDEX_MASK:
        raise ValueError(f"record index out of range: {index}")
    return (arena_id << INDEX_BITS) | index


def arena_of(handle: int) -> int:
    """Arena tag of a non-null handle."""
    return handle >> INDEX_BITS


def index_of(handle: int) -> int:
    """Record index of a non-null handle."""
    return handle & INDEX_MASK


def is_null(handle: int) -> bool:
    return handle == NULL_HANDLE


def is_dram(handle: int) -> bool:
    return handle != NULL_HANDLE and arena_of(handle) == ARENA_DRAM


def is_nvbm(handle: int) -> bool:
    return handle != NULL_HANDLE and arena_of(handle) == ARENA_NVBM
