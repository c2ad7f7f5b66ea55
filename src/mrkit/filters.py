"""Filters of finite algebras and the filter calculus.

A filter is a nonempty, upward closed subset that contains the top and
is closed under the meets that exist.  The ambient algebra may be cubic
(where generated subalgebras and g-filters make sense) or an implication
algebra such as a quotient (where the relative Boolean notions are used
with the improper filter as the ambient reference).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import config
from .cubic import CubicAlgebra, _bits, close_under
from .errors import (
    InvalidAlgebra,
    NotAFilter,
    NotBoolean,
    NotSubfilter,
    NoWitnessFilter,
)


@dataclass(frozen=True)
class Filter:
    """An upward closed, existing-meet closed subset containing the top."""

    carrier: object
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        algebra = self.carrier
        members = self.members
        if not members:
            raise NotAFilter("filter must be nonempty")
        if algebra.one not in members:
            raise NotAFilter("filter must contain the top")
        up = algebra._up
        mask = _mask(members)
        for x in members:
            if up[x] & ~mask:
                raise NotAFilter(f"not upward closed at {x}")
        for x in members:
            for y in members:
                m = algebra.meet(x, y)
                if m is not None and m not in members:
                    raise NotAFilter(f"meet of {x},{y} escapes the filter")

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __hash__(self):
        # equality compares the carrier; hashing it would hash its tables
        return hash(self.members)

    def __contains__(self, x) -> bool:
        return x in self.members

    def __le__(self, other: "Filter") -> bool:
        return self.carrier == other.carrier and self.members <= other.members

    def __len__(self) -> int:
        return len(self.members)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.carrier.label(x) for x in self.sorted_members)

    def __repr__(self):
        return f"Filter({getattr(self.carrier, 'algebra_id', '?')}, {self.sorted_members})"


def _mask(members) -> int:
    m = 0
    for x in members:
        m |= 1 << x
    return m


def _closure_mask(algebra, mask: int) -> int:
    """Least filter mask containing the given element mask."""
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


def filter_from(algebra, seed) -> Filter:
    """Least filter containing the given elements."""
    return Filter(algebra, frozenset(_bits(_closure_mask(algebra, _mask(seed)))))


def principal_filter(algebra, x: int) -> Filter:
    return Filter(algebra, frozenset(_bits(algebra._up[x])))


up_filter = principal_filter


def improper_filter(algebra) -> Filter:
    return Filter(algebra, frozenset(range(algebra.size)))


def trivial_filter(algebra) -> Filter:
    return Filter(algebra, frozenset({algebra.one}))


def _require_same(*filters):
    first = filters[0].carrier
    for f in filters[1:]:
        if f.carrier != first:
            raise ValueError("filters live in different algebras")
    return first


def filter_join(g: Filter, h: Filter) -> Filter:
    """Least filter containing both; nonexistent meets contribute nothing."""
    algebra = _require_same(g, h)
    return filter_from(algebra, g.members | h.members)


def filter_intersect(g: Filter, h: Filter) -> Filter:
    algebra = _require_same(g, h)
    return Filter(algebra, g.members & h.members)


def closed_sets(n: int, close) -> list[int]:
    """Every mask on n bits that ``close`` fixes, in lectic order.

    Ganter's NextClosure ("Two basic algorithms in concept analysis"):
    ``close`` must be a closure operator on int masks, and each closed
    set is found from the previous one with at most n closures.
    """
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


@config.memo(guard="all_filters")
def all_filters(algebra) -> tuple[Filter, ...]:
    """Every filter of the algebra, enumerated by closure in lectic order."""
    masks = closed_sets(algebra.size, lambda mask: _closure_mask(algebra, mask))
    return tuple(Filter(algebra, frozenset(_bits(m))) for m in masks)


# -- generated subalgebras and g-filters -------------------------------------

@dataclass(frozen=True)
class GeneratedSubalgebra:
    """The subalgebra a filter generates, computed by one reflection sweep."""

    source: Filter
    members: frozenset


@config.memo()
def generated_subalgebra(filt: Filter) -> GeneratedSubalgebra:
    """All reflections of comparable filter pairs; closed under join and
    reflection, which is re-verified on every call."""
    algebra = filt.carrier
    if not isinstance(algebra, CubicAlgebra):
        raise TypeError("generated subalgebras need a cubic ambient algebra")
    members = set()
    for x in filt.members:
        for y in filt.members:
            if algebra.leq(y, x):
                members.add(algebra.delta(x, y))
    for u in members:
        for v in members:
            if algebra.join(u, v) not in members:
                raise InvalidAlgebra(f"generated set not join-closed at ({u},{v})")
            if algebra.leq(v, u) and algebra.delta(u, v) not in members:
                raise InvalidAlgebra(f"generated set not delta-closed at ({u},{v})")
    return GeneratedSubalgebra(source=filt, members=frozenset(members))


def subalgebra_closure(algebra: CubicAlgebra, seed) -> frozenset:
    """Closure of a set under join and reflection (independent route to
    the generated subalgebra)."""
    leq, dl = algebra.leq_table, algebra.delta_table
    return frozenset(close_under(seed, algebra.join,
                                 lambda u, v: dl[u][v] if leq[v][u] else None))


@config.memo()
def is_gfilter(filt: Filter) -> bool:
    """Whether the filter generates the whole algebra."""
    return len(generated_subalgebra(filt).members) == filt.carrier.size


@config.memo()
def gfilters(algebra) -> tuple[Filter, ...]:
    return tuple(f for f in all_filters(algebra) if is_gfilter(f))


# -- the three filter implications -------------------------------------------

def _check_subfilter(g: Filter, f: Filter):
    _require_same(g, f)
    if not g.members <= f.members:
        raise NotSubfilter(f"{sorted(g.members)} is not below {sorted(f.members)}")


def impl_elem(g: Filter, f: Filter) -> Filter:
    """Elementwise implication: members of f joining everything in g to 1."""
    algebra = _require_same(g, f)
    one = algebra.one
    members = frozenset(
        h for h in f.members
        if all(algebra.join(h, x) == one for x in g.members)
    )
    return Filter(algebra, members)


def impl_sup(g: Filter, f: Filter) -> Filter:
    """Intersection of every filter whose join with g is exactly f."""
    algebra = _require_same(g, f)
    _check_subfilter(g, f)
    witnesses = [h for h in all_filters(algebra)
                 if filter_join(h, g).members == f.members]
    if not witnesses:
        raise NoWitnessFilter("no filter joins with g to give f")
    acc = witnesses[0].members
    for h in witnesses[1:]:
        acc = acc & h.members
    return Filter(algebra, acc)


def impl_join(g: Filter, f: Filter) -> Filter:
    """Join of every subfilter of f meeting g only at the top."""
    algebra = _require_same(g, f)
    one = algebra.one
    candidates = [h for h in all_filters(algebra)
                  if h.members <= f.members and h.members & g.members == {one}]
    candidates.sort(key=lambda h: h.sorted_members)
    acc = trivial_filter(algebra)
    for h in candidates:
        acc = filter_join(acc, h)
    return acc


# -- Boolean filters -----------------------------------------------------------

def is_F_boolean(g: Filter, f: Filter) -> bool:
    """Whether g joins with its elementwise implication back to f.

    The reference filter is usually generating, but the relative notion
    is also meaningful (and used) for arbitrary subfilters.
    """
    _check_subfilter(g, f)
    return filter_join(g, impl_elem(g, f)).members == f.members


def is_weakly_F_boolean(g: Filter, f: Filter) -> bool:
    _check_subfilter(g, f)
    return impl_elem(impl_elem(g, f), f).members == g.members


def is_boolean(g: Filter) -> bool:
    """Boolean relative to every coordinate generating filter containing g."""
    from .automorphisms import coordinate_gfilters

    algebra = g.carrier
    if not isinstance(algebra, CubicAlgebra):
        raise TypeError("absolute Booleanness needs a cubic ambient algebra")
    hosts = [f for f in coordinate_gfilters(algebra) if g.members <= f.members]
    if not hosts:
        return False
    return all(is_F_boolean(g, f) for f in hosts)


def delta_filter(g: Filter, f: Filter) -> Filter:
    """Reflection of a subfilter: the mirror of g -> f joined with g."""
    algebra = _require_same(g, f)
    _check_subfilter(g, f)
    if not isinstance(algebra, CubicAlgebra):
        raise TypeError("filter reflection needs a cubic ambient algebra")
    one = algebra.one
    mirror = frozenset(algebra.delta(one, h) for h in impl_elem(g, f).members)
    return filter_join(Filter(algebra, mirror), g)


def boolean_filter_sum(g1: Filter, g2: Filter, ambient) -> Filter:
    """Group sum of Boolean filters over the improper ambient filter.

    The identity of this operation is the improper filter itself and
    every Boolean filter is its own inverse.
    """
    whole = improper_filter(ambient)
    for g in (g1, g2):
        if g.carrier != ambient:
            raise ValueError("filter does not live in the ambient algebra")
        if not is_F_boolean(g, whole):
            raise NotBoolean(f"{sorted(g.members)} is not Boolean in the ambient")
    left = filter_intersect(impl_elem(g1, whole), impl_elem(g2, whole))
    right = filter_intersect(g1, g2)
    result = filter_join(left, right)
    if not is_F_boolean(result, whole):
        raise InvalidAlgebra("Boolean filter sum left the Boolean filters")
    return result
