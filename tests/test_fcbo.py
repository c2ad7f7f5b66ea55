"""FCbO and the gathered-row filter closure against the NextClosure
enumerator and the pairwise-meet closure they replaced."""

import random

import pytest

from mrkit.constructions import boolean_algebra, build_I, face_poset
from mrkit.corpus import b2, b3, c3, cubic_corpus
from mrkit import filters
from mrkit.cubic import CubicAlgebra, _bits, close_mask
from mrkit.errors import DeltaUndefined, NotAFilter
from mrkit.filters import _closure_mask, all_filters, as_filter, closed_sets
from mrkit.functors import quotient_C

from conftest import fresh, relabel


# -- references ----------------------------------------------------------------

def next_closure(n, close):
    """Ganter's NextClosure ("Two basic algorithms in concept analysis"):
    each closed set in lectic order from the previous one, with at most n
    closures."""
    closed = [close(0)]
    full = (1 << n) - 1
    while closed[-1] != full:
        current = closed[-1]
        for i in range(n - 1, -1, -1):
            if current >> i & 1:
                continue
            below = (1 << i) - 1
            candidate = close((current & below) | (1 << i))
            if candidate & below & ~current == 0:
                closed.append(candidate)
                break
        else:
            break
    return closed


def reference_closure_mask(algebra, mask):
    """Least filter mask holding ``mask``: up-close, meet every pair of
    the whole set, repeat until nothing changes."""
    up = algebra._up
    mask |= 1 << algebra.one
    while True:
        acc = mask
        for x in _bits(mask):
            acc |= up[x]
        elems = list(_bits(acc))
        for i, x in enumerate(elems):
            for y in elems[i:]:
                m = algebra.meet(x, y)
                if m is not None:
                    acc |= 1 << m
        if acc == mask:
            return mask
        mask = acc


def reference_filter_fault(algebra, members):
    """The message as_filter gives for ``members`` (nonempty, with the top),
    from the entry-by-entry loops, or None for a filter."""
    up = algebra._up
    mask = sum(1 << x for x in members)
    for x in members:
        if up[x] & ~mask:
            return f"not upward closed at {x}"
    for x in members:
        for y in members:
            m = algebra.meet(x, y)
            if m is not None and m not in members:
                return f"meet of {x},{y} escapes the filter"
    return None


def minimal_meets_closure(algebra, mask):
    """The unsound shortcut: up-close, then meet only the minimal members."""
    up = algebra._up
    mask |= 1 << algebra.one
    while True:
        acc = mask
        for x in _bits(mask):
            acc |= up[x]
        mins = [x for x in _bits(acc) if not algebra._down[x] & acc & ~(1 << x)]
        for x in mins:
            for y in mins:
                m = algebra.meet(x, y)
                if m is not None:
                    acc |= 1 << m
        if acc == mask:
            return mask
        mask = acc


# -- the cases ------------------------------------------------------------------

C4 = build_I(boolean_algebra(4))
SMALL = [*cubic_corpus(), ("face2", face_poset(2)), ("B2", b2()), ("B3", b3()),
         *((f"{name}-collapse", quotient_C(alg).algebra)
           for name, alg in cubic_corpus()),
         ("C3~7", relabel(c3(), 7))]
CASES = SMALL + [("C4", C4), ("C4~5", relabel(C4, 5))]


def _close(algebra, closure):
    return lambda mask: closure(algebra, mask)


def _fcbo(close):
    """A one-argument closure in the form closed_sets calls: the whole
    closure of closed | bit, which the stop rule allows."""
    return lambda closed, bit, stop: close(closed | bit)


@pytest.mark.parametrize("name,alg", CASES, ids=[name for name, _ in CASES])
def test_fcbo_matches_next_closure_under_both_closures(name, alg):
    n = alg.size
    want = next_closure(n, _close(alg, _closure_mask))
    assert closed_sets(n, _fcbo(_close(alg, _closure_mask))) == want
    assert closed_sets(n, _fcbo(_close(alg, reference_closure_mask))) == want
    assert [f.members for f in all_filters(alg)] == \
        [frozenset(_bits(m)) for m in want]


@pytest.mark.parametrize("name,alg", CASES, ids=[name for name, _ in CASES])
def test_closure_matches_the_reference_on_singletons(name, alg):
    for x in range(alg.size):
        assert _closure_mask(alg, 1 << x) == reference_closure_mask(alg, 1 << x)


@pytest.mark.parametrize("name,alg", SMALL, ids=[name for name, _ in SMALL])
def test_closure_matches_the_reference_on_pairs(name, alg):
    for x in range(alg.size):
        for y in range(x + 1, alg.size):
            seed = 1 << x | 1 << y
            assert _closure_mask(alg, seed) == reference_closure_mask(alg, seed)


def test_meeting_only_minimal_elements_is_unsound(C3):
    # meets are partial: x' >= x can meet y where x cannot
    assert len(closed_sets(C3.size, _fcbo(_close(C3, minimal_meets_closure)))) == 2088
    assert len(all_filters(C3)) == 64
    differs = [x for x in range(C3.size) for y in range(C3.size)
               if minimal_meets_closure(C3, 1 << x | 1 << y)
               != _closure_mask(C3, 1 << x | 1 << y)]
    assert differs


# -- pinned work --------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_filter_counts_are_powers_of_four(k):
    assert len(all_filters(build_I(boolean_algebra(k)))) == 4 ** k


def _counted_closures(enumerate_sets, algebra):
    calls = [0]

    def close(mask):
        calls[0] += 1
        return _closure_mask(algebra, mask)

    enumerate_sets(algebra.size, close)
    return calls[0]


@pytest.mark.parametrize("k,fcbo,reference", [(3, 290, 486), (4, 2844, 6941)])
def test_closure_counts_on_canonical_cubes(k, fcbo, reference):
    # the count depends on the labelling; these are the canonical builds
    algebra = build_I(boolean_algebra(k))
    assert _counted_closures(lambda n, close: closed_sets(n, _fcbo(close)),
                             algebra) == fcbo
    assert _counted_closures(next_closure, algebra) == reference
    assert fcbo < reference


@pytest.mark.parametrize("k,calls,expanded", [(3, 290, 1376),
                                              (4, 2844, 24874)])
def test_filter_closures_start_from_their_parent(monkeypatch, k, calls,
                                                 expanded):
    # all_filters closes each candidate from its closed parent and stops
    # at the first bit that makes it non-canonical: the same 290 / 2,844
    # closures as the whole-closure walk above, expanding 1,376 elements
    # on C3 and 24,874 on C4 (the popcount of result & ~closed) where
    # closing every candidate from nothing expanded 3,050 and 61,508
    seen = []

    def counted(mask, unary=(), binary=(), closed=0, stop=0):
        result = close_mask(mask, unary, binary, closed, stop)
        seen.append((result & ~closed).bit_count())
        return result

    monkeypatch.setattr(filters, "close_mask", counted)
    assert len(all_filters(fresh(build_I(boolean_algebra(k))))) == 4 ** k
    assert (len(seen), sum(seen)) == (calls, expanded)


def test_deep_walks_stay_clear_of_the_recursion_limit():
    # down-closure on the chain 0 < 1 < ... < 1199: every prefix is closed,
    # and each is reached from the previous one
    def down(mask):
        return (1 << mask.bit_length()) - 1

    assert closed_sets(1200, _fcbo(down)) == [(1 << k) - 1 for k in range(1201)]


# -- filter validation ------------------------------------------------------------

# the instances with sets that fail each way (in C1, FA1 and N5 no two
# members meet, so every set holding the top is a filter)
VALIDATED = [(name, alg) for name, alg in SMALL
             if name in ("C2", "C3", "FA2", "face2", "B3", "C2-collapse", "C3~7")]


def _up_closure(alg, picks):
    mask = 0
    for x in picks:
        mask |= alg._up[x]
    return mask


@pytest.mark.parametrize("name,alg", VALIDATED, ids=[n for n, _ in VALIDATED])
def test_filter_messages_match_the_loops(name, alg):
    rng = random.Random(f"filter-messages-{name}")
    seen = set()
    for _ in range(300):
        picks = {x for x in range(alg.size) if rng.random() < 0.3}
        if rng.random() < 0.5:  # up-close, so that only a meet can fail
            picks = set(_bits(_up_closure(alg, picks)))
        members = frozenset(picks | {alg.one})
        want = reference_filter_fault(alg, members)
        if want is None:
            assert as_filter(alg, members).members == members
        else:
            with pytest.raises(NotAFilter) as err:
                as_filter(alg, members)
            assert str(err.value) == want
        seen.add(None if want is None else want.split()[0])
    assert {"not", "meet"} <= seen


# -- reflections outside their domain ---------------------------------------------

def test_element_operations_refuse_reflections_off_domain(C2):
    # join(0, 0) = 1 but 0 is not below 1, so delta(1, 0) is undefined
    join = [list(row) for row in C2.join_table]
    join[0][0] = 1
    broken = CubicAlgebra.from_tables(C2.leq_table, join, C2.delta_table,
                                      C2.one, strict=False)
    for op in ("implies", "caret", "star", "preceq", "sim"):
        with pytest.raises(DeltaUndefined, match=rf"^{op}\(0,0\)"):
            getattr(broken, op)(0, 0)
    assert broken.implies(0, 1) == C2.implies(0, 1)
