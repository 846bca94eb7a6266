"""Set-associative cache arrays with tree pseudo-LRU replacement.

Both the private L1s (32 KB, 4-way) and the shared L2 banks (1 MB, 16-way)
use the same array structure; only the per-line metadata differs (the L2
lines additionally carry directory state, attached by the L2 controller).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Generic, List, Optional, Tuple, TypeVar

L = TypeVar("L")


class PseudoLruTree:
    """Binary-tree pseudo-LRU for a power-of-two number of ways.

    The reference model: :class:`CacheArray` keeps the same tree as one
    int per set, driven by the tables of :func:`plru_tables`.
    """

    def __init__(self, ways: int) -> None:
        if ways < 1 or ways & (ways - 1):
            raise ValueError("pseudo-LRU needs a power-of-two way count")
        self.ways = ways
        self._bits = [False] * max(1, ways - 1)

    def touch(self, way: int) -> None:
        """Mark ``way`` most-recently used (flip the path bits away)."""
        if self.ways == 1:
            return
        node = 0
        span = self.ways
        base = 0
        while span > 1:
            half = span // 2
            go_right = way >= base + half
            self._bits[node] = not go_right  # point away from the used half
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                base += half
            span = half

    def victim(self) -> int:
        """Follow the bits toward the pseudo-least-recently-used way."""
        if self.ways == 1:
            return 0
        node = 0
        span = self.ways
        base = 0
        while span > 1:
            half = span // 2
            go_right = self._bits[node]
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                base += half
            span = half
        return base


#: Largest way count with a pseudo-LRU victim table (2**(ways-1) entries).
MAX_WAYS = 16


@lru_cache(maxsize=None)
def plru_tables(ways: int) -> Tuple[Tuple[Tuple[int, int], ...], bytes]:
    """``(touch, victim)`` tables of the tree pseudo-LRU over ``ways`` ways.

    One set's state is an int whose bit ``n`` is node ``n`` of
    :class:`PseudoLruTree` (heap order: node ``n`` has children ``2n+1``
    and ``2n+2``, and a set bit points the victim search right).
    ``state & clear | set_`` with ``(clear, set_) = touch[way]`` points
    every node on ``way``'s path away from it, and ``victim[state]`` is
    the way the bits lead to.  Built once per way count.
    """
    if ways < 1 or ways & (ways - 1):
        raise ValueError("pseudo-LRU needs a power-of-two way count")
    if ways > MAX_WAYS:
        raise ValueError(f"pseudo-LRU supports at most {MAX_WAYS} ways")
    nodes = ways - 1
    full = (1 << nodes) - 1
    touch = []
    for way in range(ways):
        path = set_ = 0
        node = way + nodes  # the way's leaf
        while node:
            parent = (node - 1) // 2
            path |= 1 << parent
            if node == 2 * parent + 1:  # used the left half: point right
                set_ |= 1 << parent
            node = parent
        touch.append((full ^ path, set_))
    victim = bytearray(1 << nodes)
    for state in range(1 << nodes):
        node = 0
        while node < nodes:
            node = 2 * node + 1 + (state >> node & 1)
        victim[state] = node - nodes
    return tuple(touch), bytes(victim)


class CacheArray(Generic[L]):
    """Tag array indexed by block address (block = addr // line_bytes).

    ``block_stride`` handles bank interleaving: a shared L2 bank in an
    N-node chip only sees every N-th block, so its set index must use the
    bank-local block number (block // N) or only 1/N of its sets would
    ever be occupied.

    The array is dense: way ``w`` of set ``s`` is slot ``s * ways + w`` of
    the flat ``_lines``/``_addrs`` lists, and each set's pseudo-LRU state
    is one int in ``_plru`` (see :func:`plru_tables`).  Nothing is
    allocated per set, so a 1 MB bank is a handful of lists rather than
    thousands of objects for the cyclic garbage collector to traverse.
    """

    def __init__(self, sets: int, ways: int, line_bytes: int,
                 block_stride: int = 1) -> None:
        if sets < 1:
            raise ValueError("cache needs at least one set")
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.block_stride = block_stride
        self._block_bytes = line_bytes * block_stride
        self._touch, self._victim = plru_tables(ways)
        self._lines: List[Optional[L]] = [None] * (sets * ways)
        self._addrs: List[Optional[int]] = [None] * (sets * ways)
        self._plru: List[int] = [0] * sets
        #: addr -> way within its set, for O(1) lookup.
        self._where: Dict[int, int] = {}

    def set_index(self, addr: int) -> int:
        return addr // self._block_bytes % self.sets

    def lookup(self, addr: int) -> Optional[L]:
        way = self._where.get(addr)
        if way is None:
            return None
        index = addr // self._block_bytes % self.sets
        clear, set_ = self._touch[way]
        plru = self._plru
        plru[index] = plru[index] & clear | set_
        return self._lines[index * self.ways + way]

    def peek(self, addr: int) -> Optional[L]:
        """Lookup without updating recency."""
        way = self._where.get(addr)
        if way is None:
            return None
        return self._lines[addr // self._block_bytes % self.sets * self.ways
                           + way]

    def try_install(self, addr: int, line: L) -> bool:
        """Place ``line`` at the first free way; False if the set is full."""
        index = addr // self._block_bytes % self.sets
        base = index * self.ways
        lines = self._lines
        try:
            slot = lines.index(None, base, base + self.ways)
        except ValueError:
            return False
        lines[slot] = line
        self._addrs[slot] = addr
        way = slot - base
        self._where[addr] = way
        clear, set_ = self._touch[way]
        self._plru[index] = self._plru[index] & clear | set_
        return True

    def install(self, addr: int, line: L) -> None:
        """Place ``line`` at a free way; caller must have evicted first."""
        if not self.try_install(addr, line):
            raise ValueError(f"no free way in set {self.set_index(addr)}")

    def has_free_way(self, addr: int) -> bool:
        base = addr // self._block_bytes % self.sets * self.ways
        return None in self._lines[base:base + self.ways]

    def choose_victim(
        self, addr: int, evictable: Callable[[L], bool]
    ) -> Optional[int]:
        """Address of the pseudo-LRU evictable line in ``addr``'s set.

        Walks ways starting from the PLRU choice so busy (non-evictable)
        lines are skipped; returns None when every way is unevictable.
        """
        index = addr // self._block_bytes % self.sets
        base = index * self.ways
        start = self._victim[self._plru[index]]
        lines = self._lines
        for offset in range(self.ways):
            slot = base + (start + offset) % self.ways
            line = lines[slot]
            if line is not None and evictable(line):
                return self._addrs[slot]
        return None

    def remove(self, addr: int) -> Optional[L]:
        way = self._where.pop(addr, None)
        if way is None:
            return None
        slot = addr // self._block_bytes % self.sets * self.ways + way
        line = self._lines[slot]
        self._lines[slot] = None
        self._addrs[slot] = None
        return line

    def occupancy(self) -> int:
        return len(self._where)

    def items(self):
        """Yield every resident ``(addr, line)`` pair, recency untouched."""
        for addr, line in zip(self._addrs, self._lines):
            if addr is not None:
                yield addr, line

    def __contains__(self, addr: int) -> bool:
        return addr in self._where
