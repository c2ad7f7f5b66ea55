"""The per-algebra memo: entries per instance, lifetime, one strategy."""

import dataclasses
import functools
import gc
import importlib
import pkgutil
import sys
import weakref

import mrkit
from mrkit.automorphisms import (
    coordinate_gfilters,
    enumerate_aut,
    f_presentation,
    filter_automorphism,
    fixed_set,
    inner_group,
)
from mrkit.constructions import face_poset
from mrkit.filters import all_filters, is_gfilter, principal_filter
from mrkit.functors import quotient_C

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


def test_entries_are_per_instance(C2):
    twin = dataclasses.replace(C2)
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
