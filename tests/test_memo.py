"""The per-algebra memo: entries per instance, lifetime, one strategy."""

import functools
import gc
import importlib
import pkgutil
import sys
import weakref

import pytest

import mrkit
from mrkit.config import memo
from mrkit.automorphisms import (
    coordinate_gfilters,
    enumerate_aut,
    f_presentation,
    filter_automorphism,
    fixed_set,
    inner_group,
)
from mrkit.constructions import build_I, face_poset
from mrkit.corpus import b4
from mrkit.cubic import close_mask
from mrkit.filters import (
    _closure_mask,
    all_filters,
    impl_elem,
    improper_filter,
    is_gfilter,
    principal_filter,
)
from mrkit.functors import quotient_C

from conftest import fresh, relabel

# int/str-keyed interning: the only functools caches the package may hold
INTERNED = {"mrkit.corpus.i3", "mrkit.corpus.fa1", "mrkit.corpus.fa2",
            "mrkit.constructions._face_codes",
            "mrkit.constructions._boolean_algebra"}


def test_entries_die_with_their_algebra():
    # a memo keyed on a map or a filter keeps its entries on the algebra
    # the record carries, so they die with that algebra too
    algebra = face_poset(2)
    vertex, phi = coordinate_gfilters(algebra)[0], inner_group(algebra)[1]
    calls = {enumerate_aut: (algebra,), all_filters: (algebra,),
             quotient_C: (algebra,), fixed_set: (phi,),
             f_presentation: (vertex,), filter_automorphism: (vertex, vertex)}
    for fn, args in calls.items():
        fn(*args)
    memos = tuple(calls)
    gc.collect()  # earlier garbage must not drop out of the counts below
    held = [fn.cache_info().currsize for fn in memos]
    ref = weakref.ref(algebra)
    del algebra, vertex, phi, calls, args
    gc.collect()
    assert ref() is None
    assert [fn.cache_info().currsize for fn in memos] == [n - 1 for n in held]


def test_closure_complement_and_inner_entries_die_with_their_algebra():
    # the closures of the algebra and of its collapse, the complements and
    # the inner group: every entry lives on an algebra that dies with this
    # one, so each memo drops back to its count before
    memos = (_closure_mask, impl_elem, inner_group)
    gc.collect()
    before = [fn.cache_info().currsize for fn in memos]
    algebra = face_poset(2)
    collapse = quotient_C(algebra).algebra
    vertex, whole = coordinate_gfilters(algebra)[0], improper_filter(algebra)
    _closure_mask(algebra, 1)
    _closure_mask(collapse, 1)
    impl_elem(vertex, whole)
    inner_group(algebra)
    gc.collect()
    assert all(fn.cache_info().currsize > n for fn, n in zip(memos, before))
    ref = weakref.ref(algebra)
    del algebra, collapse, vertex, whole
    gc.collect()
    assert ref() is None
    assert [fn.cache_info().currsize for fn in memos] == before


def test_the_same_mask_closes_in_each_relabelling():
    # one int mask keys both entries; each algebra keeps its own closure
    c4 = build_I(b4())
    twins = relabel(c4, 5), relabel(c4, 11)
    mask = 1 << 0 | 1 << 1
    closures = [_closure_mask(alg, mask) for alg in twins]
    assert closures == [close_mask(mask | 1 << alg.one, (alg._up,),
                                   (alg._meet_table,)) for alg in twins]
    assert closures[0] != closures[1]
    assert [_closure_mask(alg, mask) for alg in twins] == closures  # hits


def test_complement_and_inner_entries_are_per_instance(C2):
    # a twin's filters and maps equal C2's, but its entries are its own
    twin = fresh(C2)
    g, twin_g = (improper_filter(alg) for alg in (C2, twin))
    assert impl_elem(g, g) is impl_elem(g, g)
    assert impl_elem(twin_g, twin_g) == impl_elem(g, g)
    assert impl_elem(twin_g, twin_g) is not impl_elem(g, g)
    assert impl_elem(twin_g, twin_g).carrier is twin
    assert [phi.map for phi in inner_group(twin)] == \
        [phi.map for phi in inner_group(C2)]
    assert inner_group(twin)[1] is not inner_group(C2)[1]
    assert inner_group(twin)[1].source is twin


def test_entries_are_per_instance(C2):
    twin = fresh(C2)
    assert twin == C2
    assert all_filters(C2) is all_filters(C2)
    assert all_filters(twin) == all_filters(C2)
    assert all_filters(twin) is not all_filters(C2)


def test_cache_info_and_clear_keep_their_lru_cache_meaning(C2):
    filt = principal_filter(C2, C2.one)
    is_gfilter.cache_clear()
    assert is_gfilter.cache_info() == (0, 0, None, 0)
    is_gfilter(filt)
    is_gfilter(filt)
    assert is_gfilter.cache_info() == (1, 1, None, 1)
    is_gfilter.cache_clear()
    assert is_gfilter.cache_info() == (0, 0, None, 0)
    is_gfilter(filt)
    assert is_gfilter.cache_info().misses == 1


@pytest.mark.parametrize("memo,args", [
    (_closure_mask, lambda alg: (alg, 1 << alg.one)),
    (impl_elem, lambda alg: (improper_filter(alg),) * 2),
], ids=["_closure_mask", "impl_elem"])
def test_the_new_memos_keep_the_lru_cache_meaning(memo, args):
    alg = fresh(face_poset(2))
    args = args(alg)
    memo.cache_clear()
    assert memo.cache_info() == (0, 0, None, 0)
    memo(*args)
    memo(*args)
    assert memo.cache_info() == (1, 1, None, 1)
    memo.cache_clear()
    assert memo.cache_info() == (0, 0, None, 0)
    memo(*args)
    assert memo.cache_info().misses == 1


class CountingKey:
    """A memo argument that counts its hashes and equality tests."""

    def __init__(self, value, counts):
        self.value, self.counts = value, counts

    def __hash__(self):
        self.counts["hash"] += 1
        return hash(self.value)

    def __eq__(self, other):
        self.counts["eq"] += 1
        return isinstance(other, CountingKey) and self.value == other.value


class Owner:
    """A memo owner: any object with a ``__dict__``."""


def test_a_hit_hashes_its_key_once_and_compares_it_at_most_once():
    counts, calls = {"hash": 0, "eq": 0}, []

    @memo()
    def lookup(owner, key):
        calls.append(key)
        return None  # a memoised None is a hit like any other value

    owner = Owner()
    lookup(owner, CountingKey(1, counts))
    for _ in range(3):
        before = dict(counts)
        assert lookup(owner, CountingKey(1, counts)) is None  # equal, not same
        assert counts["hash"] - before["hash"] == 1
        assert counts["eq"] - before["eq"] <= 1
    assert len(calls) == 1
    assert lookup.cache_info() == (3, 1, None, 1)


def _namespaces():
    """Every mrkit module namespace and every class defined in one."""
    for info in pkgutil.iter_modules(mrkit.__path__):
        importlib.import_module(f"mrkit.{info.name}")
    for name, module in list(sys.modules.items()):
        if name == "mrkit" or name.startswith("mrkit."):
            yield vars(module)
            yield from (vars(value) for value in vars(module).values()
                        if isinstance(value, type)
                        and value.__module__ == name)


def test_functools_caches_only_intern_ints_and_strings():
    found = {f"{value.__module__}.{value.__qualname__}"
             for namespace in _namespaces() for value in namespace.values()
             if isinstance(value, functools._lru_cache_wrapper)}
    assert found == INTERNED
