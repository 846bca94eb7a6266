"""Cache arrays and tree pseudo-LRU replacement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.cache import CacheArray, PseudoLruTree, plru_tables


class Line:
    def __init__(self, tag):
        self.tag = tag


def test_plru_requires_power_of_two():
    with pytest.raises(ValueError):
        PseudoLruTree(3)
    PseudoLruTree(1)
    PseudoLruTree(16)


def test_plru_victim_is_not_most_recent():
    plru = PseudoLruTree(4)
    for way in range(4):
        plru.touch(way)
    assert plru.victim() != 3  # way 3 was touched last


def test_plru_cycles_through_all_ways():
    plru = PseudoLruTree(4)
    seen = set()
    for _ in range(8):
        victim = plru.victim()
        seen.add(victim)
        plru.touch(victim)
    assert seen == {0, 1, 2, 3}


@given(st.integers(0, 3), st.integers(1, 4))
def test_plru_victim_never_equals_just_touched(way, _n):
    plru = PseudoLruTree(4)
    plru.touch(way)
    assert plru.victim() != way


@given(st.lists(st.integers(0, 15), min_size=1, max_size=64))
def test_plru_16way_victim_valid(touches):
    plru = PseudoLruTree(16)
    for way in touches:
        plru.touch(way)
    assert 0 <= plru.victim() < 16
    assert plru.victim() != touches[-1]


def test_cache_install_lookup_remove():
    cache = CacheArray(4, 2, 64)
    cache.install(0x100, Line(1))
    assert 0x100 in cache
    assert cache.lookup(0x100).tag == 1
    assert cache.peek(0x100).tag == 1
    assert cache.lookup(0x200) is None
    assert cache.remove(0x100).tag == 1
    assert 0x100 not in cache
    assert cache.remove(0x100) is None


def test_set_conflict_and_victim():
    cache = CacheArray(2, 2, 64)  # addresses 0, 128, 256 map to set 0
    cache.install(0, Line("a"))
    cache.install(128, Line("b"))
    assert not cache.has_free_way(256)
    victim = cache.choose_victim(256, lambda line: True)
    assert victim in (0, 128)
    cache.remove(victim)
    cache.install(256, Line("c"))
    assert cache.lookup(256).tag == "c"


def test_victim_respects_evictability():
    cache = CacheArray(2, 2, 64)
    cache.install(0, Line("busy"))
    cache.install(128, Line("free"))
    victim = cache.choose_victim(256, lambda line: line.tag != "busy")
    assert victim == 128
    none = cache.choose_victim(256, lambda line: False)
    assert none is None


def test_block_stride_spreads_interleaved_blocks():
    """An L2 bank receiving every 16th block must use all of its sets."""
    n_nodes = 16
    cache = CacheArray(64, 2, 64, block_stride=n_nodes)
    sets = {cache.set_index(block * 64)
            for block in range(0, 64 * n_nodes, n_nodes)}
    assert len(sets) == 64  # every set used, no aliasing


def test_without_stride_interleaved_blocks_alias():
    cache = CacheArray(64, 2, 64, block_stride=1)
    sets = {cache.set_index(block * 64)
            for block in range(0, 64 * 16, 16)}
    assert len(sets) == 4  # gcd(16, 64) aliasing - the bug the stride fixes


def test_plru_touch_on_lookup_changes_victim():
    cache = CacheArray(1, 4, 64)
    for i in range(4):
        cache.install(i * 64, Line(i))
    cache.lookup(0)  # make way of addr 0 most recent
    victim = cache.choose_victim(4 * 64, lambda line: True)
    assert victim != 0


@given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
def test_cache_never_exceeds_capacity(addrs):
    cache = CacheArray(8, 4, 64)
    for addr in addrs:
        addr *= 64
        if addr in cache:
            continue
        if not cache.has_free_way(addr):
            victim = cache.choose_victim(addr, lambda line: True)
            cache.remove(victim)
        cache.install(addr, Line(addr))
        assert cache.occupancy() <= 8 * 4


def test_plru_tables_reject_bad_way_counts():
    with pytest.raises(ValueError):
        plru_tables(3)
    with pytest.raises(ValueError):
        plru_tables(32)  # a flat victim table would need 2**31 entries
    with pytest.raises(ValueError):
        CacheArray(4, 6, 64)


class ReferenceArray:
    """The layout the dense array replaced: per set, one PseudoLruTree
    and two way lists."""

    def __init__(self, sets, ways, line_bytes, block_stride):
        self.sets = sets
        self.ways = ways
        self.block_bytes = line_bytes * block_stride
        self.trees = [PseudoLruTree(ways) for _ in range(sets)]
        self.lines = [[None] * ways for _ in range(sets)]
        self.addrs = [[None] * ways for _ in range(sets)]
        self.where = {}

    def _set(self, addr):
        return addr // self.block_bytes % self.sets

    def lookup(self, addr):
        way = self.where.get(addr)
        if way is None:
            return None
        index = self._set(addr)
        self.trees[index].touch(way)
        return self.lines[index][way]

    def peek(self, addr):
        way = self.where.get(addr)
        return None if way is None else self.lines[self._set(addr)][way]

    def has_free_way(self, addr):
        return None in self.lines[self._set(addr)]

    def install(self, addr, line):
        index = self._set(addr)
        way = self.lines[index].index(None)
        self.lines[index][way] = line
        self.addrs[index][way] = addr
        self.where[addr] = way
        self.trees[index].touch(way)

    def choose_victim(self, addr, evictable):
        index = self._set(addr)
        start = self.trees[index].victim()
        for offset in range(self.ways):
            way = (start + offset) % self.ways
            line = self.lines[index][way]
            if line is not None and evictable(line):
                return self.addrs[index][way]
        return None

    def remove(self, addr):
        way = self.where.pop(addr, None)
        if way is None:
            return None
        index = self._set(addr)
        line = self.lines[index][way]
        self.lines[index][way] = None
        self.addrs[index][way] = None
        return line

    def items(self):
        for addrs, lines in zip(self.addrs, self.lines):
            for addr, line in zip(addrs, lines):
                if addr is not None:
                    yield addr, line


@settings(max_examples=200, deadline=None)
@given(ways=st.sampled_from([1, 2, 4, 16]), sets=st.sampled_from([1, 2, 4]),
       block_stride=st.sampled_from([1, 3]), data=st.data())
def test_dense_array_matches_per_set_reference(ways, sets, block_stride,
                                               data):
    """A/B: the dense array against one PseudoLruTree per set."""
    # Twice as many blocks as ways per set, so sets fill and evict.
    blocks = st.integers(0, 2 * ways * sets * block_stride - 1)
    ops = data.draw(st.lists(st.tuples(
        st.sampled_from(["install", "install", "install", "lookup", "peek",
                         "remove", "victim"]),
        blocks,
        st.integers(1, 4),  # victim: evict lines whose tag % k != 0
    ), max_size=300))
    dense = CacheArray(sets, ways, 64, block_stride=block_stride)
    ref = ReferenceArray(sets, ways, 64, block_stride)
    for op, block, k in ops:
        addr = block * 64
        if op == "install":
            assert dense.has_free_way(addr) == ref.has_free_way(addr)
            if addr in dense or not ref.has_free_way(addr):
                continue
            line = Line(block)
            dense.install(addr, line)
            ref.install(addr, line)
        elif op == "lookup":
            assert dense.lookup(addr) is ref.lookup(addr)
        elif op == "peek":
            assert dense.peek(addr) is ref.peek(addr)
        elif op == "remove":
            assert dense.remove(addr) is ref.remove(addr)
        else:
            def evictable(line):
                return line.tag % k != 0
            victim = dense.choose_victim(addr, evictable)
            assert victim == ref.choose_victim(addr, evictable)
            if victim is not None:
                assert dense.remove(victim) is ref.remove(victim)
        assert [(a, id(l)) for a, l in dense.items()] == \
            [(a, id(l)) for a, l in ref.items()]
        assert dense.occupancy() == len(ref.where)
        # The raw pseudo-LRU choice of every set, free ways or not.
        assert [dense._victim[state] for state in dense._plru] == \
            [tree.victim() for tree in ref.trees]
