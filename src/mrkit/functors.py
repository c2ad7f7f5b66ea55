"""Homomorphisms, the pair and collapse functors, and their natural maps.

The collapse of a cubic algebra identifies reflection-equivalent
elements; the result is an implication algebra whose implication is the
relative complement inside the Boolean interval above each class (the
collapse relation is not a congruence for the cubic implication term,
so the table is built from the quotient order instead).
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from . import config
from .constructions import (
    ImplicationAlgebra,
    _pair_algebra,
    build_I,
    pair_carrier,
    pair_index,
)
from .cubic import (
    UNDEFINED,
    AxiomReport,
    CubicAlgebra,
    Subalgebra,
    _bits,
    _codec,
    _down_masks,
    _glb_table,
    _at,
    _report,
    _Record,
    as_index,
    close_mask,
    is_upward_closed,
    rows,
)
from .errors import (
    DeltaUndefined,
    InvalidAlgebra,
    MembershipBroken,
    NotUpwardClosed,
)
from .filters import closed_sets


class _IndexMap(_Record):
    """A map between two table algebras recorded as an index array ``map``.

    The record checks only the map's shape; whether it preserves the
    operations is established by :func:`check_hom`, so candidate maps can
    be examined before being trusted.  An automorphism is a map whose
    source is its target.
    """

    source: object
    target: object
    map: tuple[int, ...]
    # the source (not a field), where config.memo keeps a map's entries
    carrier = property(lambda self: self.source)

    def __post_init__(self):
        if len(self.map) != self.source.size:
            raise ValueError("map length must match the source carrier")
        if min(self.map) < 0 or max(self.map) >= self.target.size:
            raise ValueError("map value out of target range")

    def __hash__(self):
        # equality compares the algebras; hashing them would hash their tables
        return hash(self.map)

    def __call__(self, x: int) -> int:
        return self.map[x]

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, algebra, tuple(range(algebra.size)))

    def is_identity(self) -> bool:
        return self.map == tuple(range(len(self.map)))

    def is_bijective(self) -> bool:
        return (self.source.size == self.target.size
                and len(set(self.map)) == self.source.size)

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise ValueError("maps do not compose")
        return type(self)(other.source, self.target, _at(self.map, other.map))

    def inverse(self):
        if not self.is_bijective():
            raise ValueError("only a bijection has an inverse")
        inv = [0] * len(self.map)
        for i, v in enumerate(self.map):
            inv[v] = i
        return type(self)(self.target, self.source, tuple(inv))


def _pulled(m, tables, codec):
    """Each (source, target) pair of tables, as ``codec`` rows, read
    against the map m, as two sides with one row per source element x:
    source row x read through m, the sentinel kept, and target row m[x]
    read at the images.  m carries the source table onto the target one
    exactly where the sides agree."""
    through = codec.row(m)
    at, read = codec.reader(through), codec.read
    for s, t in tables:
        yield (tuple(read(row, through) for row in s),
               tuple(map(at, map(t.__getitem__, m))))


class CubicHom(_IndexMap):
    """A map between cubic algebras; :func:`check_hom` decides whether it
    preserves top, join and reflection."""


class ImplicationHom(_IndexMap):
    """A map between implication algebras; :func:`check_hom` decides
    whether it preserves top, join and implication."""


def _hom_faults(f, ids, tables, codec):
    """Yield ``one`` if f misses the top, then (ids[k], (x, y)) in (x, y, k)
    order for each pair k of ``tables``, as ``codec`` rows, whose sides
    (see :func:`_pulled`) differ at (x, y) where the source entry is
    defined."""
    src, m, undefined = f.source, f.map, codec.undefined
    if m[src.one] != f.target.one:
        yield "one", (src.one,)
    sides = tuple(_pulled(m, tables, codec))
    for x in src.elements():
        yield from ((ids[k], (x, y)) for y, k in sorted(
            (y, k) for k, (lhs, rhs) in enumerate(sides) if lhs[x] != rhs[x]
            for y, u, v in zip(src.elements(), lhs[x], rhs[x])
            if u != v and u != undefined))


def check_hom(f: CubicHom | ImplicationHom,
              witness_policy: str = "first") -> AxiomReport:
    """Check preservation of top and join, and of the reflection and the
    equivalence by a ``CubicHom`` or the implication by an ``ImplicationHom``.

    Violation ids are ``one``, ``join``, then ``delta`` and ``sim`` or
    ``implies``, with the source elements as witness.  The tables are
    chosen by the kind of hom, not of algebra: an ``ImplicationHom`` may
    map into a cubic algebra, whose implication it then reads.
    """
    s, t = f.source, f.target
    ids = (("join", "implies") if isinstance(f, ImplicationHom) else
           ("join", "delta", "sim"))
    codec = _codec(max(s.size, t.size))
    return _report(_hom_faults(f, ids, tuple(
        (rows(s, law, codec), rows(t, law, codec)) for law in ids),
        codec), witness_policy)


# -- the collapse functor -----------------------------------------------------

class QuotientAlgebra(_Record):
    """Collapse of a cubic algebra along reflection equivalence."""

    source: CubicAlgebra
    classes: tuple[tuple[int, ...], ...]
    algebra: ImplicationAlgebra
    eta: tuple[int, ...]


@config.memo()
def quotient_C(algebra: CubicAlgebra) -> QuotientAlgebra:
    """Collapse the algebra and build the induced implication algebra.

    Row x of the equivalence is {y : delta(x v y, x) = y}; the classes are
    the rows, numbered by first element.  Verified on construction: the
    rows partition the carrier (each x in its own row, each member of a
    row with that same row), the class of the top is a singleton, class
    joins are the images of the signed join, and wherever the signed meet
    is defined the class meet exists and agrees with it.
    """
    n, jt = algebra.size, algebra.join_table
    dt = algebra._delta_transpose  # dt[y][z] = delta(z, y)
    # reflected[x][y] = delta(x v y, y), read column by column
    reflected = tuple(zip(*(_at(dt[y], col) for y, col in enumerate(zip(*jt)))))
    rows = []
    for x in range(n):
        back = _at(dt[x], jt[x])  # delta(x v y, x) over y
        if UNDEFINED in back + reflected[x]:
            raise DeltaUndefined(f"the collapse needs x, y <= x v y at x = {x}")
        rows.append(sum(1 << y for y, d in enumerate(back) if d == y))
    eta, classes = [-1] * n, []
    for x in range(n):
        if eta[x] == -1:
            cls = tuple(_bits(rows[x]))
            if x not in cls or any(rows[y] != rows[x] for y in cls):
                raise InvalidAlgebra(
                    f"reflection equivalence is not a partition at {x}")
            for y in cls:
                eta[y] = len(classes)
            classes.append(cls)
    eta, k = tuple(eta), len(classes)
    top = eta[algebra.one]
    if classes[top] != (algebra.one,):
        raise InvalidAlgebra("class of the top is not a singleton")

    # c <= d when some member of c is below some member of d; the class
    # join of (c, d) is the class of star at their first members
    reps = [c[0] for c in classes]
    ups = [reduce(or_, _at(algebra._up, c)) for c in classes]
    leq = [[1 if up & rows[r] else 0 for r in reps] for up in ups]
    jn = [_at(eta, _at(_at(jt[r], reflected[r]), reps)) for r in reps]
    down = _down_masks(leq)
    meet = _glb_table(down)
    faults = [(eta[x], eta[y], x, y) for x in range(n)
              for y, z in enumerate(_at(algebra._meet_table[x], reflected[x]))
              if z != UNDEFINED and eta[z] != meet[eta[x]][eta[y]]]
    if faults:
        _, _, x, y = min(faults)
        raise InvalidAlgebra(
            f"class meet disagrees with the signed meet at ({x},{y})")

    imp = [[0] * k for _ in range(k)]
    for c in range(k):
        for d in range(k):
            z = jn[c][d]
            candidates = [w for w in range(k)
                          if leq[d][w] and jn[w][z] == top and meet[w][z] == d]
            if len(candidates) != 1:
                raise InvalidAlgebra(
                    f"relative complement not unique for classes ({c},{d})")
            imp[c][d] = candidates[0]

    labels = tuple("[" + algebra.label(cls[0]) + "]" for cls in classes)
    quotient = ImplicationAlgebra(
        size=k,
        leq_table=tuple(map(tuple, leq)),
        join_table=tuple(map(tuple, jn)),
        implies_table=tuple(map(tuple, imp)),
        one=top,
        labels=labels,
        name=f"C({algebra.algebra_id})",
    )
    return QuotientAlgebra(source=algebra, classes=tuple(classes),
                           algebra=quotient, eta=eta)


# -- functor action on maps ---------------------------------------------------

def functor_I_hom(f: ImplicationHom) -> CubicHom:
    """Lift an implication hom to the pair algebras, coordinatewise."""
    report = check_hom(f)
    if not report.passed:
        raise InvalidAlgebra(f"not an implication hom: {report.first()}",
                             report=report)
    src_pairs = pair_carrier(f.source)
    dst_index = pair_index(f.target)
    out = []
    for p in src_pairs:
        image = (f.map[p.first], f.map[p.second])
        if image not in dst_index:
            raise MembershipBroken(
                "image pair loses its meet", witness=(p.first, p.second)
            )
        out.append(dst_index[image])
    return CubicHom(build_I(f.source), build_I(f.target), tuple(out))


def functor_C_hom(f: CubicHom) -> ImplicationHom:
    """Collapse a cubic hom to the quotients; well-defined by equivalence
    preservation."""
    qs = quotient_C(f.source)
    qt = quotient_C(f.target)
    out = {}
    for x, image in enumerate(_at(qt.eta, f.map)):
        if out.setdefault(qs.eta[x], image) != image:
            raise InvalidAlgebra(f"collapse of the map is not well defined at {x}")
    return ImplicationHom(qs.algebra, qt.algebra,
                          tuple(out[c] for c in range(qs.algebra.size)))


# -- natural transformations ---------------------------------------------------

@config.memo()
def iota(algebra) -> ImplicationHom:
    """The canonical isomorphism onto the collapse of the pair algebra.

    Sends x to the class of (1, x); verified bijective with
    class-of-(a, b) -> a ^ b as its inverse.  ``algebra`` is a validated
    implication algebra, so its pair algebra is cubic by the pair
    construction theorem and is built unchecked.
    """
    interval = _pair_algebra(algebra)
    q = quotient_C(interval)
    idx = pair_index(algebra)
    m = tuple(q.eta[idx[(algebra.one, x)]] for x in algebra.elements())
    hom = ImplicationHom(algebra, q.algebra, m)
    report = check_hom(hom)
    if not report.passed or not hom.is_bijective():
        raise InvalidAlgebra("iota failed to be an isomorphism", report=report)
    carrier = pair_carrier(algebra)
    inverse = {}
    for i, p in enumerate(carrier):
        inverse.setdefault(q.eta[i], algebra.meet(p.first, p.second))
    for c, value in inverse.items():
        if m[value] != c:
            raise InvalidAlgebra("iota inverse via pair meets disagrees")
    return hom


def kappa(algebra: CubicAlgebra) -> CubicHom:
    """The natural map into the pair algebra of the collapse.

    This is a plain map, not in general a cubic hom (see the regression
    test for the failure), but its own collapse is the canonical
    isomorphism of the quotient, which is verified here.  The collapse is
    a validated implication algebra, so its pair algebra is cubic by the
    pair construction theorem and is built unchecked.
    """
    q = quotient_C(algebra)
    target = _pair_algebra(q.algebra)
    idx = pair_index(q.algebra)
    m = tuple(idx[(q.algebra.one, q.eta[x])] for x in algebra.elements())
    hom = CubicHom(algebra, target, m)
    qt = quotient_C(target)
    canonical = iota(q.algebra)
    for x in algebra.elements():
        if qt.eta[m[x]] != canonical.map[q.eta[x]]:
            raise InvalidAlgebra("collapse of kappa disagrees with iota")
    return hom


# -- upward-closed subalgebras and the inclusion lemma -------------------------

@config.memo()
def _sub_classes(algebra: CubicAlgebra, mask: int) -> tuple[int, ...]:
    """The classes of C(S), S induced on ``mask``, as parent-index masks."""
    sub = Subalgebra(algebra, _bits(mask))
    return tuple(sum(1 << sub.members[i] for i in cls)
                 for cls in quotient_C(sub.algebra).classes)


def inclusion_collapse(algebra: CubicAlgebra, members,
                       witness_policy: str = "first") -> AxiomReport:
    """Verify that collapsing commutes with an upward-closed inclusion.

    Each class of the subalgebra must be the trace of the ambient class;
    violations carry the offending subalgebra element.
    """
    members = sorted({as_index(algebra, m) for m in members})
    if not is_upward_closed(algebra, members):
        raise NotUpwardClosed(f"{members} is not upward closed")
    mask = sum(1 << x for x in members)
    q_amb = quotient_C(algebra)
    local = {x: c for c in _sub_classes(algebra, mask) for x in _bits(c)}
    ambient = [mask & sum(1 << y for y in c) for c in q_amb.classes]
    return _report((("class", (x,)) for x in members
                    if local[x] != ambient[q_amb.eta[x]]), witness_policy)


@config.memo(guard="upward_closed_subalgebras")
def upward_closed_subalgebras(algebra: CubicAlgebra) -> tuple[int, ...]:
    """All nonempty upward-closed join/reflection-closed subsets, by mask.

    In a cubic algebra an upward-closed set holds every join of its
    members and, with y, each x >= y; so it is closed exactly when it
    holds delta(x, y) for each member y and each x >= y.
    """
    dl = algebra.delta_table
    reach = tuple(up | sum(1 << dl[x][y] for x in _bits(up))
                  for y, up in enumerate(algebra._up))
    masks = closed_sets(algebra.size, lambda closed, bit, stop: close_mask(
        closed | bit, (reach,), (), closed, stop))
    return tuple(m for m in sorted(masks) if m)
