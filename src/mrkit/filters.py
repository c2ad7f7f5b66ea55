"""Filters of finite algebras and the filter calculus.

A filter is a nonempty, upward closed subset that contains the top and
is closed under the meets that exist.  The ambient algebra may be cubic
(where generated subalgebras and g-filters make sense) or an implication
algebra such as a quotient (where the relative Boolean notions are used
with the improper filter as the ambient reference).
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import and_, or_

from . import config
from .cubic import (
    UNDEFINED,
    CubicAlgebra,
    _bits,
    _getter,
    _Record,
    as_index,
    close_mask,
)
from .errors import (
    InvalidAlgebra,
    NotAFilter,
    NotBoolean,
    NotSubfilter,
    NoWitnessFilter,
)


class Filter(_Record):
    """An upward closed, existing-meet closed subset containing the top, held
    as the int mask of its members.  The constructor trusts the mask; the
    validating entry is :func:`as_filter`."""

    carrier: object
    mask: int

    @cached_property
    def members(self) -> frozenset:
        return frozenset(_bits(self.mask))

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def __hash__(self):
        # equality compares the carrier; hashing it would hash its tables
        return hash(self.mask)

    def __contains__(self, x) -> bool:
        return x >= 0 and self.mask >> x & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def labels(self) -> tuple[str, ...]:
        return tuple(self.carrier.label(x) for x in self.sorted_members)

    def __repr__(self):
        return f"Filter({getattr(self.carrier, 'algebra_id', '?')}, {self.sorted_members})"


def _mask(members) -> int:
    return reduce(or_, (1 << x for x in members), 0)


@config.memo()
def _closure_mask(algebra, mask: int) -> int:
    """Least filter mask containing the given element mask: the top, the
    up-sets and the meets that exist (a commutative op, so no transpose)."""
    return close_mask(mask | 1 << algebra.one, (algebra._up,),
                      (algebra._meet_table,))


def as_filter(algebra, members) -> Filter:
    """The filter of a member set (ints or element references), validated;
    :class:`NotAFilter` names the first fault."""
    members = frozenset(members)
    # each member coerced once; a set of ints stays the frozenset it was,
    # whose iteration order picks the fault the messages name
    coerced = frozenset(as_index(algebra, x) for x in members)
    members = members if coerced == members else coerced
    up, mask = algebra._up, _mask(members)
    if not members:
        raise NotAFilter("filter must be nonempty")
    if algebra.one not in members:
        raise NotAFilter("filter must contain the top")
    # a closed mask is valid; otherwise the loops name the fault
    if _closure_mask(algebra, mask) != mask:
        for x in members:
            if up[x] & ~mask:
                raise NotAFilter(f"not upward closed at {x}")
        for x in members:
            for y in members:
                m = algebra.meet(x, y)
                if m is not None and m not in members:
                    raise NotAFilter(f"meet of {x},{y} escapes the filter")
    return Filter(algebra, mask)


# these build masks that are filters by construction: a closure, an up-set,
# the whole carrier or an intersection of filters

def filter_from(algebra, seed) -> Filter:
    """Least filter containing the given elements."""
    return Filter(algebra, _closure_mask(algebra, _mask(seed)))


def principal_filter(algebra, x) -> Filter:
    return Filter(algebra, algebra._up[as_index(algebra, x)])


def improper_filter(algebra) -> Filter:
    return Filter(algebra, (1 << algebra.size) - 1)


def _require_same(g, f):
    """The algebra two records share (filters, or a filter and a map,
    whose ``carrier`` is its source); a ValueError if they differ."""
    if g.carrier is not f.carrier and g.carrier != f.carrier:
        raise ValueError("arguments live in different algebras")
    return g.carrier


def filter_join(g: Filter, h: Filter) -> Filter:
    """Least filter containing both; nonexistent meets contribute nothing."""
    algebra = _require_same(g, h)
    return Filter(algebra, _closure_mask(algebra, g.mask | h.mask))


def filter_intersect(g: Filter, h: Filter) -> Filter:
    algebra = _require_same(g, h)
    return Filter(algebra, g.mask & h.mask)


def closed_sets(n: int, close) -> list[int]:
    """Every mask on n bits that a closure operator fixes, in lectic order.

    ``close(closed, bit, stop)`` gives the closure of ``closed | bit`` for
    a closed ``closed``, or, where that meets ``stop``, a subset of it that
    holds ``closed | bit`` and meets ``stop``.  FCbO (Outrata and Vychodil,
    Information Sciences 2012) reaches each closed set once, as the closure
    of B | 1 << j from the closed B with the same bits below j, stopped at
    a bit below j that B lacks, and skips j when a failed closure seen at j
    by an ancestor A <= B holds such a bit: it lies in the closure of
    A | 1 << j, so in that of B | 1 << j.  The walk keeps its own stack,
    clear of the recursion limit, and sorts with bit 0 most significant.
    """
    start = close(0, 0, 0)
    found, stack = [start], [(start, 0, [0] * n)]
    while stack:
        current, first, failed = stack.pop()
        failed = failed[:]  # the children share this copy, filled in below
        for j in range(first, n):
            below = (1 << j) - 1
            if current >> j & 1 or failed[j] & below & ~current:
                continue
            candidate = close(current, 1 << j, below & ~current)
            if candidate & below & ~current:
                failed[j] = candidate
            else:
                found.append(candidate)
                stack.append((candidate, j + 1, failed))
    return sorted(found, key=lambda mask: int(f"{mask:0{n}b}"[::-1], 2))


@config.memo(guard="all_filters")
def all_filters(algebra) -> tuple[Filter, ...]:
    """Every filter of the algebra, enumerated by closure in lectic order."""
    up, meet, top = (algebra._up,), (algebra._meet_table,), 1 << algebra.one
    masks = closed_sets(algebra.size, lambda closed, bit, stop: close_mask(
        closed | bit | top, up, meet, closed, stop))
    return tuple(Filter(algebra, m) for m in masks)


# -- generated subalgebras and g-filters -------------------------------------

def _join_reflection(algebra: CubicAlgebra) -> tuple:
    """The join, the reflection delta(u, v) (defined for v <= u) and the
    reflection's transpose, as :func:`close_mask` reads them."""
    return algebra.join_table, algebra.delta_table, algebra._delta_transpose


@config.memo()
def generated_subalgebra(filt: Filter) -> frozenset:
    """All reflections delta(x, y) of filter members y <= x, read off the
    reflection rows in one sweep.  The sweep must be closed under join and
    reflection; the closure kernel checks it on every miss."""
    algebra = filt.carrier
    if not isinstance(algebra, CubicAlgebra):
        raise TypeError("generated subalgebras need a cubic ambient algebra")
    get = _getter(filt.sorted_members)
    hits = {z for row in get(algebra.delta_table) for z in get(row)}
    hits.discard(UNDEFINED)
    swept = _mask(hits)
    escaped = close_mask(swept, binary=_join_reflection(algebra)) & ~swept
    if escaped:
        raise InvalidAlgebra("generated set not closed under join and "
                             f"reflection: {list(_bits(escaped))} escape")
    return frozenset(hits)


def subalgebra_closure(algebra: CubicAlgebra, seed) -> frozenset:
    """Closure of a set under join and reflection (independent route to
    the generated subalgebra)."""
    seed = _mask(as_index(algebra, x) for x in seed)
    return frozenset(_bits(close_mask(seed, binary=_join_reflection(algebra))))


@config.memo()
def is_gfilter(filt: Filter) -> bool:
    """Whether the filter generates the whole algebra."""
    return len(generated_subalgebra(filt)) == filt.carrier.size


# -- the three filter implications -------------------------------------------

def _check_subfilter(g: Filter, f: Filter):
    _require_same(g, f)
    if g.mask & ~f.mask:
        raise NotSubfilter(f"{sorted(g.members)} is not below {sorted(f.members)}")


@config.memo()
def _top_rows(algebra) -> tuple[int, ...]:
    """Entry x is the mask of the h with h v x = 1."""
    n, one = algebra.size, algebra.one
    return tuple(sum(1 << h for h in range(n) if algebra.join(h, x) == one)
                 for x in range(n))


@config.memo()
def impl_elem(g: Filter, f: Filter) -> Filter:
    """Elementwise implication: members of f joining everything in g to 1."""
    algebra = _require_same(g, f)
    rows = _top_rows(algebra)
    mask = reduce(and_, (rows[x] for x in _bits(g.mask)), f.mask)
    return as_filter(algebra, _bits(mask))


def impl_sup(g: Filter, f: Filter) -> Filter:
    """Intersection of every filter whose join with g is exactly f."""
    algebra = _require_same(g, f)
    _check_subfilter(g, f)
    witnesses = [h.mask for h in all_filters(algebra) if filter_join(h, g) == f]
    if not witnesses:
        raise NoWitnessFilter("no filter joins with g to give f")
    return as_filter(algebra, _bits(reduce(and_, witnesses)))


def impl_join(g: Filter, f: Filter) -> Filter:
    """Join of every subfilter of f meeting g only at the top."""
    algebra = _require_same(g, f)
    top, outside = 1 << algebra.one, ~f.mask
    # the join of many filters is the least filter holding their union
    return Filter(algebra, _closure_mask(algebra, reduce(or_, (
        h.mask for h in all_filters(algebra)
        if not h.mask & outside and h.mask & g.mask == top), top)))


# -- Boolean filters -----------------------------------------------------------

@config.memo()
def is_F_boolean(g: Filter, f: Filter) -> bool:
    """Whether g joins with its elementwise implication back to f.

    The reference filter is usually generating, but the relative notion
    is also meaningful (and used) for arbitrary subfilters.
    """
    _check_subfilter(g, f)
    return filter_join(g, impl_elem(g, f)) == f


@config.memo()
def boolean_subfilters(f: Filter) -> tuple[Filter, ...]:
    """The F-Boolean subfilters g <= f, in :func:`all_filters` order."""
    outside = ~f.mask
    return tuple(g for g in all_filters(f.carrier)
                 if not g.mask & outside and is_F_boolean(g, f))


def delta_filter(g: Filter, f: Filter) -> Filter:
    """Reflection of a subfilter: the mirror of g -> f joined with g."""
    algebra = _require_same(g, f)
    _check_subfilter(g, f)
    if not isinstance(algebra, CubicAlgebra):
        raise TypeError("filter reflection needs a cubic ambient algebra")
    one = algebra.one
    mirror = as_filter(algebra, (algebra.delta(one, h)
                                 for h in _bits(impl_elem(g, f).mask)))
    return filter_join(mirror, g)


def boolean_filter_sum(g1: Filter, g2: Filter) -> Filter:
    """Group sum of Boolean filters over the improper filter of their
    algebra.

    The identity of this operation is the improper filter itself and
    every Boolean filter is its own inverse.
    """
    whole = improper_filter(_require_same(g1, g2))
    for g in (g1, g2):
        if not is_F_boolean(g, whole):
            raise NotBoolean(f"{sorted(g.members)} is not Boolean in the ambient")
    left = filter_intersect(impl_elem(g1, whole), impl_elem(g2, whole))
    right = filter_intersect(g1, g2)
    result = filter_join(left, right)
    if not is_F_boolean(result, whole):
        raise InvalidAlgebra("Boolean filter sum left the Boolean filters")
    return result
