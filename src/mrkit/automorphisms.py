"""Automorphism groups and the inner-automorphism machinery.

An automorphism group is built from a stabiliser chain (Seress,
*Permutation Group Algorithms*, 2003).  Base points are taken in the
isomorphism search's branch order, each the first point that pinning the
earlier ones does not force through joins and reflections.  A pinned
search runs only for an image outside the orbit that the generators
found so far already reach (Sims 1970); each map it finds is checked
against the tables and becomes a generator, and the group is every
product of one orbit transversal element per level.  Everything
downstream (filter automorphisms, presentations, fixed/antifixed sets,
recovery from Boolean filters) is formula-driven with construction-time
verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import prod
from operator import or_

from . import config
from .constructions import (
    ImplicationAlgebra,
    _pair_algebra,
    implication_subalgebra,
    pair_index,
    presentation_check,
)
from .cubic import (
    UNDEFINED,
    CubicAlgebra,
    Localization,
    Subalgebra,
    _bits,
    _getter,
    _rows_at,
    as_index,
    bit_rows,
    check_mr_axiom,
    close_mask,
    is_upward_closed,
    localize,
    preceq_mask,
)
from .errors import (
    InvalidAlgebra,
    NoDecomposition,
    NotBoolean,
    NotGFilter,
    NotInner,
    NotSim,
    SplitFailure,
)
from .filters import (
    Filter,
    all_filters,
    as_filter,
    boolean_filter_sum,
    boolean_subfilters,
    impl_elem,
    improper_filter,
    is_F_boolean,
    is_gfilter,
)
from .functors import (
    CubicHom,
    ImplicationHom,
    _impl_tables,
    check_impl_hom,
    functor_C_hom,
    functor_I_hom,
    iota,
    quotient_C,
)


# -- group elements -----------------------------------------------------------

@dataclass(frozen=True)
class Automorphism:
    """A permutation of a carrier; validity is the caller's obligation
    and is established by the search or an explicit check."""

    algebra: CubicAlgebra
    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(self.algebra.size)):
            raise ValueError("not a permutation of the carrier")

    def __hash__(self):
        # equality compares the algebra; hashing it would hash its tables
        return hash(self.perm)

    def __call__(self, x: int) -> int:
        return self.perm[x]

    @classmethod
    def identity(cls, algebra: CubicAlgebra) -> "Automorphism":
        return cls(algebra, tuple(range(algebra.size)))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.perm))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        if other.algebra != self.algebra:
            raise ValueError("automorphisms of different algebras")
        return Automorphism(self.algebra,
                            tuple(self.perm[v] for v in other.perm))

    def inverse(self) -> "Automorphism":
        inv = [0] * len(self.perm)
        for i, v in enumerate(self.perm):
            inv[v] = i
        return Automorphism(self.algebra, tuple(inv))

    def as_hom(self) -> CubicHom:
        return CubicHom(self.algebra, self.algebra, self.perm)

    def __repr__(self):
        return f"Automorphism({self.algebra.algebra_id}, {self.perm})"


class Group(tuple):
    """A group's elements in sorted order, with the stabiliser chain they
    were built from.  ``levels[i]`` is the transversal of base point i's
    orbit under the stabiliser of the earlier base points: one
    permutation per image, in ascending image order, and each element is
    one product u1...uk with ui from ``levels[i]``.  ``generators`` are
    the permutations the pinned searches found, sorted; they generate
    the group."""

    def __new__(cls, elements, levels, generators):
        group = super().__new__(cls, elements)
        group.levels, group.generators = levels, generators
        return group


def is_isomorphism(a: CubicAlgebra, b: CubicAlgebra, m) -> bool:
    """Whether the index array m is an isomorphism a -> b.

    On cubic algebras this accepts the bijections :func:`check_hom`
    passes: preserving joins and injectivity give the order both ways,
    and joins with reflections give the equivalence.
    """
    m = tuple(m)
    return (a.size == b.size and sorted(m) == list(range(a.size))
            and _verify_map(_cubic_struct(a), _cubic_struct(b), m))


@config.memo()
def is_automorphism(algebra: CubicAlgebra, perm: tuple[int, ...]) -> bool:
    """Whether the tuple ``perm`` is an automorphism, memoised per algebra."""
    return is_isomorphism(algebra, algebra, perm)


# -- isomorphism search and the stabiliser chain --------------------------------

class _Struct:
    """Order plus operation tables prepared for the search.  The search
    signatures and branch order are built on first use, so a struct that
    only checks maps (:func:`_verify_map`) never pays for them."""

    def __init__(self, n, order, up, down, totals, partials, consts):
        self.n = n
        self.order = order  # 0/1 rows: order[x][y] is 1 iff x <= y
        self.up = up
        self.down = down
        self.totals = totals
        self.partials = partials
        self.consts = consts
        # per table, one getter per row that reads a map at that row's entries
        self.rows = tuple(tuple(_getter(row) for row in t)
                          for t in totals + partials)

    @cached_property
    def sigs(self):
        n, up, down = self.n, self.up, self.down
        pop = [bin(d).count("1") for d in down]
        sigs = []
        for x in range(n):
            below = tuple(sorted(pop[y] for y in range(n) if down[x] >> y & 1))
            above = tuple(sorted(pop[y] for y in range(n) if up[x] >> y & 1))
            sigs.append((pop[x], bin(up[x]).count("1"), below, above))
        return sigs

    @cached_property
    def branch(self):
        # the minimal elements first, each part in index order
        return sorted(range(self.n), key=lambda x: self.down[x] != 1 << x)


@config.memo()
def _cubic_struct(a: CubicAlgebra) -> _Struct:
    return _Struct(a.size, a.leq_table, a._up, a._down, (a.join_table,),
                   (a.delta_table,), (a.one,))


def _impl_struct(a) -> _Struct:
    # works for any implication-algebra-like object (tables or bit ops)
    n = a.size
    order = tuple(_rows_at(a, "leq", range(n)))
    up = tuple(sum(v << y for y, v in enumerate(row)) for row in order)
    down = tuple(sum(row[x] << y for y, row in enumerate(order))
                 for x in range(n))
    return _Struct(n, order, up, down, _impl_tables(a), (), (a.one,))


class _Partial:
    """A partial map src -> dst grown by propagation: each pair assigned
    is checked against the order and against the pairs before it, and
    the images of their joins and reflections are assigned in turn."""

    def __init__(self, src: _Struct, dst: _Struct):
        self.src, self.dst = src, dst
        self.mapping = [-1] * src.n
        self.used = [False] * dst.n
        self.assigned: list[int] = []

    def assign(self, x, v) -> bool:
        src, dst, mapping, used = self.src, self.dst, self.mapping, self.used
        assigned = self.assigned
        queue = [(x, v)]
        while queue:
            a, b = queue.pop()
            if mapping[a] != -1:
                if mapping[a] != b:
                    return False
                continue
            if used[b] or dst.sigs[b] != src.sigs[a]:
                return False
            for c in assigned:
                w = mapping[c]
                if (src.up[a] >> c & 1) != (dst.up[b] >> w & 1):
                    return False
                if (src.up[c] >> a & 1) != (dst.up[w] >> b & 1):
                    return False
            mapping[a] = b
            used[b] = True
            assigned.append(a)
            for c in list(assigned):
                w = mapping[c]
                for ts, td in zip(src.totals, dst.totals):
                    queue.append((ts[a][c], td[b][w]))
                    queue.append((ts[c][a], td[w][b]))
                for ps, pd in zip(src.partials, dst.partials):
                    for (r, rv) in ((ps[a][c], pd[b][w]), (ps[c][a], pd[w][b])):
                        if (r == -1) != (rv == -1):
                            return False
                        if r != -1:
                            queue.append((r, rv))
        return True

    def undo(self, depth):
        while len(self.assigned) > depth:
            a = self.assigned.pop()
            self.used[self.mapping[a]] = False
            self.mapping[a] = -1


def _search(src: _Struct, dst: _Struct, pins=()) -> tuple[int, ...] | None:
    """The first isomorphism src -> dst, in branch order, that sends each
    pinned x to its v and passes :func:`_verify_map`; None if there is
    none."""
    n = src.n
    if n != dst.n or sorted(src.sigs) != sorted(dst.sigs):
        return None
    classes: dict = {}
    for v, sig in enumerate(dst.sigs):
        classes.setdefault(sig, []).append(v)
    candidates = [classes[sig] for sig in src.sigs]
    part = _Partial(src, dst)
    for x, v in (*zip(src.consts, dst.consts), *pins):
        if not part.assign(x, v):
            return None

    def search():
        x = next((t for t in src.branch if part.mapping[t] == -1), None)
        if x is None:
            m = tuple(part.mapping)
            return m if _verify_map(src, dst, m) else None
        for v in candidates[x]:
            if part.used[v]:
                continue
            depth = len(part.assigned)
            if part.assign(x, v):
                found = search()
                if found is not None:
                    return found
            part.undo(depth)
        return None

    return search()


def _verify_map(src: _Struct, dst: _Struct, m: tuple[int, ...]) -> bool:
    """Whether the permutation m of the carrier is an isomorphism src -> dst.

    Tables are compared row by row: m read at the entries of row x of a
    src table must equal row m[x] of the dst table read at the images.  A
    partial table's UNDEFINED maps to itself through m extended by it.
    """
    at = _getter(m)

    def pulled(table):
        return tuple(map(at, at(table)))

    tables = dst.totals + dst.partials
    images = (m,) * len(dst.totals) + (m + (UNDEFINED,),) * len(dst.partials)
    return (all(m[c] == d for c, d in zip(src.consts, dst.consts))
            and pulled(dst.order) == src.order
            and all(tuple(row(im) for row in rows) == pulled(t)
                    for rows, im, t in zip(src.rows, images, tables)))


def _orbit(transversal: dict, generators) -> None:
    """Close a transversal under the generators, in place.

    ``transversal`` maps each point of an orbit to a map sending the base
    point there.  A point first reached from p by g gets g after p's map,
    so every entry is a product of generators (a Schreier vector with its
    products written out).
    """
    queue = list(transversal)
    while queue:
        p = queue.pop()
        for g in generators:
            if g[p] not in transversal:
                transversal[g[p]] = _getter(transversal[p])(g)
                queue.append(g[p])


def _group(struct: _Struct) -> Group:
    """The automorphism group of ``struct`` from a stabiliser chain.

    Base point i is the first point in branch order that pinning the
    constants and base points 0..i-1 to themselves does not force; the
    base ends when only the identity fixes it.  The levels are filled
    from the deepest up (Sims 1970), so every generator found so far
    fixes base points 0..i-1.  Each signature-compatible image of base
    point i outside its orbit under them costs one pinned search: a map
    found is a new generator, and a failed search puts the image outside
    the stabiliser's orbit.  Level i is the orbit's transversal and the
    group is every product u1...uk of one map per level.  Only the
    generators are verified against the tables, at the leaf of
    :func:`_search`; products of automorphisms are automorphisms, so only
    their distinctness is checked.
    """
    n = struct.n
    base: list[int] = []
    while True:
        fixed = _Partial(struct, struct)
        for x in (*struct.consts, *base):
            fixed.assign(x, x)  # the identity extends every identity pin
        b = next((x for x in struct.branch if fixed.mapping[x] == -1), None)
        if b is None:
            break
        base.append(b)
    generators, levels = [], []
    for i in reversed(range(len(base))):
        b, pins = base[i], [(x, x) for x in base[:i]]
        transversal = {b: tuple(range(n))}
        _orbit(transversal, generators)
        for v in range(n):
            if v in transversal or struct.sigs[v] != struct.sigs[b]:
                continue
            u = _search(struct, struct, pins + [(b, v)])
            if u is not None:
                generators.append(u)
                _orbit(transversal, generators)
        levels.insert(0, tuple(transversal[v] for v in sorted(transversal)))
    elements = [tuple(range(n))]
    for level in reversed(levels):
        elements = [_getter(g)(u) for u in level for g in elements]
    if len(set(elements)) != prod(map(len, levels)):
        raise InvalidAlgebra("stabiliser chain products are not distinct")
    return Group(sorted(elements), tuple(levels), tuple(sorted(generators)))


@config.memo(guard="enumerate_aut")
def enumerate_aut(algebra: CubicAlgebra) -> Group:
    """The full automorphism group, sorted by permutation array."""
    group = _group(_cubic_struct(algebra))
    return Group((Automorphism(algebra, p) for p in group), group.levels,
                 group.generators)


def find_isomorphism(a: CubicAlgebra, b: CubicAlgebra) -> tuple[int, ...] | None:
    """An isomorphism between two cubic algebras, or None."""
    config.check_carrier(max(a.size, b.size), "find_isomorphism")
    return _search(_cubic_struct(a), _cubic_struct(b))


@config.memo(guard="enumerate_impl_aut")
def enumerate_impl_aut(algebra) -> Group:
    group = _group(_impl_struct(algebra))
    return Group((ImplicationHom(algebra, algebra, p) for p in group),
                 group.levels, group.generators)


def find_impl_isomorphism(a, b) -> tuple[int, ...] | None:
    config.check_carrier(max(a.size, b.size), "find_impl_isomorphism")
    return _search(_impl_struct(a), _impl_struct(b))


# -- inner automorphisms --------------------------------------------------------

def is_inner(algebra: CubicAlgebra, phi: Automorphism) -> bool:
    """Inner means the collapse of the map is the identity: every element
    is reflection-equivalent to its image."""
    return all(algebra.sim(x, phi.perm[x]) for x in algebra.elements())


@config.memo()
def inner_group(algebra: CubicAlgebra) -> tuple[Automorphism, ...]:
    """The inner automorphisms, verified to be an abelian normal
    2-torsion subgroup.  Normality is checked against the generators of
    the whole group: conjugation by a generating set keeping a subgroup
    means every element keeps it."""
    auts = enumerate_aut(algebra)
    generators = [Automorphism(algebra, p) for p in auts.generators]
    inner = tuple(phi for phi in auts if is_inner(algebra, phi))
    perms = {phi.perm for phi in inner}
    ident = Automorphism.identity(algebra)
    if ident.perm not in perms:
        raise InvalidAlgebra("inner automorphisms miss the identity")
    for phi in inner:
        if phi.compose(phi).perm != ident.perm:
            raise InvalidAlgebra("inner automorphism is not an involution")
        for psi in inner:
            if phi.compose(psi).perm not in perms:
                raise InvalidAlgebra("inner automorphisms not closed")
            if phi.compose(psi).perm != psi.compose(phi).perm:
                raise InvalidAlgebra("inner automorphisms not commutative")
        for psi in generators:
            conj = psi.compose(phi).compose(psi.inverse())
            if conj.perm not in perms:
                raise InvalidAlgebra("inner automorphisms not normal")
    return inner


# -- filter coordinates -----------------------------------------------------------

@dataclass(frozen=True)
class GFilterPair:
    """Two generating filters of the same algebra, both with unique
    coordinate decompositions (the kind a filter automorphism can exist
    between)."""

    f: Filter
    g: Filter
    # the algebra (not a field), where config.memo keeps the pair's entries
    carrier = property(lambda self: self.f.carrier)

    def __post_init__(self):
        if self.f.carrier != self.g.carrier:
            raise ValueError("filters live in different algebras")
        for filt in (self.f, self.g):
            if not is_gfilter(filt):
                raise NotGFilter(f"{sorted(filt.members)} does not generate")
            if not has_unique_coordinates(filt.carrier, filt):
                raise NotGFilter(
                    f"{sorted(filt.members)} has non-unique coordinates"
                )


@config.memo()
def alpha_beta_table(algebra: CubicAlgebra, filt: Filter) -> dict:
    """For each element the unique filter pair (alpha, beta) whose
    reflection gives it back.  One sweep over the member pairs b <= a,
    in ascending order, buckets each pair by its reflection."""
    table, buckets = {}, {}
    delta, down = algebra.delta_table, algebra._down
    for a in filt.sorted_members:
        for b in _bits(filt.mask & down[a]):
            buckets.setdefault(delta[a][b], []).append((a, b))
    for x in algebra.elements():
        found = buckets.get(x, [])
        if len(found) != 1:
            raise NoDecomposition(
                f"element {x} has {len(found)} filter decompositions; "
                "filter is not generating" if not found else
                f"element {x} has {len(found)} filter decompositions"
            )
        table[x] = found[0]
    return table


def alpha_beta(algebra: CubicAlgebra, filt: Filter, x) -> tuple[int, int]:
    return alpha_beta_table(algebra, filt)[as_index(algebra, x)]


def has_unique_coordinates(algebra: CubicAlgebra, filt: Filter) -> bool:
    """Whether every element decomposes uniquely over the filter.

    Generating alone does not guarantee this (the improper filter
    generates but decomposes nothing uniquely); the filters the
    automorphism theory quantifies over are the ones passing this test.
    """
    try:
        alpha_beta_table(algebra, filt)
    except NoDecomposition:
        return False
    return True


@config.memo()
def coordinate_gfilters(algebra: CubicAlgebra) -> tuple[Filter, ...]:
    """Generating filters whose coordinate map is a bijection."""
    return tuple(f for f in all_filters(algebra)
                 if has_unique_coordinates(algebra, f))


@config.memo()
def filter_automorphism(pair: GFilterPair) -> Automorphism:
    """The unique automorphism carrying one generating filter to the other.

    Built pointwise from the filter coordinates, then verified: it is an
    automorphism, maps f onto g, fixes every filter element up to
    equivalence, and is an involution.  Memoised on the pair's carrier, so
    each map is built and verified once per algebra.
    """
    algebra = pair.carrier
    tf = alpha_beta_table(algebra, pair.f)
    tg = alpha_beta_table(algebra, pair.g)
    beta_g = {x: tg[x][1] for x in algebra.elements()}
    perm = []
    for x in algebra.elements():
        af, bf = tf[x]
        perm.append(algebra.delta(beta_g[af], beta_g[bf]))
    phi = Automorphism(algebra, tuple(perm))
    if not is_automorphism(algebra, phi.perm):
        raise InvalidAlgebra("filter automorphism formula broke")
    if {phi.perm[x] for x in pair.f.members} != set(pair.g.members):
        raise InvalidAlgebra("filter automorphism misses the target filter")
    if not all(algebra.sim(x, phi.perm[x]) for x in pair.f.members):
        raise InvalidAlgebra("filter automorphism moves a filter class")
    if not phi.compose(phi).is_identity():
        raise InvalidAlgebra("filter automorphism is not an involution")
    return phi


# -- presentations over a generating filter ----------------------------------------

@dataclass(frozen=True)
class FPresentation:
    """Coordinates of an algebra over one of its generating filters."""

    algebra: CubicAlgebra
    filter: Filter
    impl: ImplicationAlgebra
    hom: CubicHom

    @property
    def target(self) -> CubicAlgebra:
        return self.hom.target

    def inverse_hom(self) -> CubicHom:
        inv = [0] * len(self.hom.map)
        for i, v in enumerate(self.hom.map):
            inv[v] = i
        return CubicHom(self.target, self.algebra, tuple(inv))


@config.memo()
def f_presentation(algebra: CubicAlgebra, filt: Filter) -> FPresentation:
    """The isomorphism onto the pair algebra of a generating filter.

    x goes to the pair of joins of x and its mirror with the inner filter
    coordinate of x; on the filter itself this is the natural embedding.
    The pair algebra is built unchecked: the filter's implication algebra
    is validated, so its pair algebra is cubic by the pair construction
    theorem, and the isomorphism check that follows carries the axioms
    over from ``algebra`` besides.
    """
    if not is_gfilter(filt):
        raise NotGFilter("presentation needs a generating filter")
    members = filt.sorted_members
    impl = implication_subalgebra(algebra, members,
                                  name=f"{algebra.algebra_id}^F{len(members)}")
    index = {m: i for i, m in enumerate(members)}
    target = _pair_algebra(impl)
    idx = pair_index(impl)
    table = alpha_beta_table(algebra, filt)
    one = algebra.one
    out = []
    for x in algebra.elements():
        beta = table[x][1]
        first = algebra.join(algebra.delta(one, x), beta)
        second = algebra.join(x, beta)
        out.append(idx[(index[first], index[second])])
    hom = CubicHom(algebra, target, tuple(out))
    if not is_isomorphism(algebra, target, out):
        raise InvalidAlgebra("filter presentation is not an isomorphism")
    for x in filt.members:
        if hom.map[x] != idx[(impl.one, index[x])]:
            raise InvalidAlgebra("presentation disagrees with the embedding")
    return FPresentation(algebra=algebra, filter=filt, impl=impl, hom=hom)


def Xi(algebra: CubicAlgebra, filt: Filter, alpha: ImplicationHom) -> ImplicationHom:
    """Transport an automorphism of the collapse to the filter.

    Conjugates through the filter presentation and the canonical
    collapse isomorphism of its pair algebra.
    """
    q = quotient_C(algebra)
    if alpha.source != q.algebra or alpha.target != q.algebra:
        raise ValueError("alpha must be an automorphism of the collapse")
    pres = f_presentation(algebra, filt)
    emb = iota(pres.impl)
    emb_inv = {c: x for x, c in enumerate(emb.map)}
    c_phi = functor_C_hom(pres.hom)
    c_phi_inv = functor_C_hom(pres.inverse_hom())
    out = tuple(
        emb_inv[c_phi.map[alpha.map[c_phi_inv.map[emb.map[t]]]]]
        for t in pres.impl.elements()
    )
    chi = ImplicationHom(pres.impl, pres.impl, out)
    if not (chi.is_bijective() and check_impl_hom(chi).passed):
        raise InvalidAlgebra("transported map is not an automorphism")
    return chi


def extend_base_automorphism(algebra: CubicAlgebra, filt: Filter,
                             chi: ImplicationHom) -> Automorphism:
    """Extend an automorphism of a generating filter to the whole algebra
    by conjugating its pair-algebra lift through the presentation."""
    pres = f_presentation(algebra, filt)
    lifted = functor_I_hom(chi)
    whole = pres.inverse_hom().compose(lifted).compose(pres.hom)
    return Automorphism(algebra, whole.map)


def factor_automorphism(algebra: CubicAlgebra, filt: Filter,
                        phi: Automorphism) -> tuple[Filter, ImplicationHom]:
    """Split an automorphism into a filter automorphism and a base part.

    Returns the image filter and the transported collapse action; the
    factorization is re-verified before returning.
    """
    image = as_filter(algebra, (phi.perm[x] for x in _bits(filt.mask)))
    chi = Xi(algebra, filt, functor_C_hom(phi.as_hom()))
    rebuilt = filter_automorphism(GFilterPair(filt, image)).compose(
        extend_base_automorphism(algebra, filt, chi))
    if rebuilt.perm != phi.perm:
        raise InvalidAlgebra("factorization failed to rebuild the automorphism")
    return image, chi


# -- fixed and antifixed sets ------------------------------------------------------

@config.memo()
def fixed_set(algebra: CubicAlgebra, phi: Automorphism) -> frozenset:
    """Fixed points of an inner automorphism: an upward-closed MR-subalgebra."""
    if not is_inner(algebra, phi):
        raise NotInner("fixed-set analysis needs an inner automorphism")
    fixed = frozenset(x for x in algebra.elements() if phi.perm[x] == x)
    if not is_upward_closed(algebra, fixed):
        raise InvalidAlgebra("fixed set is not upward closed")
    sub = Subalgebra(algebra, fixed)
    if not check_mr_axiom(sub.algebra).passed:
        raise InvalidAlgebra("fixed set is not an MR-subalgebra")
    for x in algebra.elements():
        if algebra.join(x, phi.perm[x]) not in fixed:
            raise InvalidAlgebra("join with the image escapes the fixed set")
    return fixed


@config.memo()
def d_set(algebra: CubicAlgebra, phi: Automorphism) -> frozenset:
    """The mirror side of an inner automorphism, read off the collapse."""
    if not is_inner(algebra, phi):
        raise NotInner("mirror-set analysis needs an inner automorphism")
    q = quotient_C(algebra)
    fixed = fixed_set(algebra, phi)
    fixed_classes = as_filter(q.algebra, (q.eta[x] for x in fixed))
    complement = impl_elem(fixed_classes, improper_filter(q.algebra))
    members = frozenset(x for x in algebra.elements() if q.eta[x] in complement)
    one = algebra.one
    for z in members:
        if algebra.delta(one, z) not in members:
            raise InvalidAlgebra("mirror set is not reflection closed")
        if phi.perm[z] != algebra.delta(one, z):
            raise InvalidAlgebra("inner automorphism is not the mirror there")
    for x in algebra.elements():
        if algebra.join(algebra.delta(one, x), phi.perm[x]) not in members:
            raise InvalidAlgebra("mirror join escapes the mirror set")
    return members


def decompose(algebra: CubicAlgebra, phi: Automorphism, z,
              verify: bool = True) -> tuple[int, int]:
    """Split z into its fixed and mirror components.

    With ``verify`` the uniqueness of the split is confirmed by scanning
    the full component product.
    """
    z = as_index(algebra, z)
    if not is_inner(algebra, phi):
        raise NotInner("decomposition needs an inner automorphism")
    one = algebra.one
    z0 = algebra.join(z, phi.perm[z])
    z1 = algebra.join(z, algebra.delta(one, phi.perm[z]))
    fixed = fixed_set(algebra, phi)
    mirror = d_set(algebra, phi)
    if z0 not in fixed or z1 not in mirror or algebra.meet(z0, z1) != z:
        raise InvalidAlgebra(f"decomposition formulas failed at {z}")
    if verify:
        hits = [(a, b) for a in fixed for b in mirror
                if algebra.meet(a, b) == z]
        if hits != [(z0, z1)] and set(hits) != {(z0, z1)}:
            raise InvalidAlgebra(f"decomposition of {z} is not unique: {hits}")
    return z0, z1


def recover(algebra: CubicAlgebra, phi: Automorphism, z) -> int:
    """Rebuild the image of z from its split: fixed part meet mirrored part."""
    z = as_index(algebra, z)
    z0, z1 = decompose(algebra, phi, z, verify=False)
    value = algebra.meet(z0, algebra.delta(algebra.one, z1))
    if value != phi.perm[z]:
        raise InvalidAlgebra(f"recovery disagrees with the automorphism at {z}")
    return value


# -- recovery from Boolean filters ----------------------------------------------

def phi_from_boolean_filter(algebra: CubicAlgebra, filt: Filter) -> Automorphism:
    """The inner automorphism whose fixed classes are the given filter.

    The filter must be Boolean relative to the whole collapse; every
    element then splits uniquely over the preimages of the filter and its
    complement, and the map meets the fixed part with the mirrored
    complement part.
    """
    q = quotient_C(algebra)
    if filt.carrier != q.algebra:
        raise ValueError("filter must live in the collapse of the algebra")
    whole = improper_filter(q.algebra)
    if not is_F_boolean(filt, whole):
        raise NotBoolean("filter is not Boolean in the collapse")
    complement = impl_elem(filt, whole)
    s1 = frozenset(x for x in algebra.elements() if q.eta[x] in filt)
    s2 = frozenset(x for x in algebra.elements() if q.eta[x] in complement)
    one = algebra.one
    if s1 & s2 != {one}:
        raise SplitFailure("component sets overlap beyond the top",
                           witness=tuple(sorted((s1 & s2) - {one})))
    splits = {}  # x -> the pairs (u, v) in s1 x s2 whose meet is x
    for u in s1:
        for v in s2:
            splits.setdefault(algebra._meet_table[u][v], []).append((u, v))
    perm = []
    for x in algebra.elements():
        hits = splits.get(x, [])
        if len(hits) != 1:
            raise SplitFailure(f"element {x} has {len(hits)} splits",
                               witness=(x,))
        u, v = hits[0]
        value = algebra.meet(u, algebra.delta(one, v))
        if value is None:
            raise SplitFailure(f"mirrored meet missing at {x}", witness=(x,))
        perm.append(value)
    phi = Automorphism(algebra, tuple(perm))
    if not is_automorphism(algebra, phi.perm):
        raise InvalidAlgebra("recovered map is not an automorphism")
    if not is_inner(algebra, phi):
        raise InvalidAlgebra("recovered map is not inner")
    if fixed_set(algebra, phi) != s1:
        raise InvalidAlgebra("recovered map fixes the wrong set")
    return phi


@dataclass(frozen=True)
class IntervalTranslation:
    """Translation between the intervals above two equivalent elements,
    with its extension to the whole localization."""

    algebra: CubicAlgebra
    a: int
    b: int
    localization: Localization
    interval_map: dict
    extension: dict

    def sub_automorphism(self) -> Automorphism:
        sub = self.localization.subalgebra
        perm = tuple(sub.to_sub(self.extension[sub.to_parent(i)])
                     for i in range(sub.algebra.size))
        return Automorphism(sub.algebra, perm)


def f_ab(algebra: CubicAlgebra, a, b) -> IntervalTranslation:
    """Map the interval above a onto the interval above b (for equivalent
    a, b) and extend it to an inner automorphism of the localization."""
    a = as_index(algebra, a)
    b = as_index(algebra, b)
    if not algebra.sim(a, b):
        raise NotSim(f"{a} and {b} are not reflection equivalent")
    one = algebra.one
    interval_a = sorted(algebra.up_set(a))
    interval_b = set(algebra.up_set(b))

    def base_map(w):
        value = algebra.meet(algebra.join(w, b),
                             algebra.join(algebra.delta(one, w), b))
        if value is None:
            raise InvalidAlgebra(f"interval translation undefined at {w}")
        return value

    interval_map = {w: base_map(w) for w in interval_a}
    if set(interval_map.values()) != interval_b:
        raise InvalidAlgebra("interval translation is not onto")
    if len(set(interval_map.values())) != len(interval_a):
        raise InvalidAlgebra("interval translation is not injective")

    loc = localize(algebra, a)
    extension = {}
    for z in loc.members:
        t = algebra.implies(algebra.join(algebra.delta(one, z), a), a)
        mirrored = algebra.delta(one, algebra.implies(base_map(t), b))
        value = algebra.meet(base_map(algebra.join(z, a)), mirrored)
        if value is None:
            raise InvalidAlgebra(f"extension undefined at {z}")
        extension[z] = value
    result = IntervalTranslation(algebra=algebra, a=a, b=b, localization=loc,
                                 interval_map=interval_map, extension=extension)
    sub_phi = result.sub_automorphism()
    if not is_automorphism(sub_phi.algebra, sub_phi.perm):
        raise InvalidAlgebra("extension is not an automorphism")
    if not is_inner(sub_phi.algebra, sub_phi):
        raise InvalidAlgebra("extension is not inner on the localization")
    return result


# -- the filter side of the inner group --------------------------------------------

def omega(algebra: CubicAlgebra) -> tuple[tuple[Automorphism, Filter], ...]:
    """The bijection between inner automorphisms and Boolean filters of
    the collapse, verified to be a group isomorphism for the filter sum."""
    config.check_carrier(algebra.size, "omega")
    q = quotient_C(algebra)
    pairs = [(phi, as_filter(q.algebra,
                             (q.eta[x] for x in fixed_set(algebra, phi))))
             for phi in inner_group(algebra)]
    masks = {f.mask for _, f in pairs}
    if len(masks) != len(pairs):
        raise InvalidAlgebra("filter images collide")
    if masks != {f.mask for f in boolean_subfilters(improper_filter(q.algebra))}:
        raise InvalidAlgebra("filter images miss a Boolean filter")
    by_perm = {phi.perm: f for phi, f in pairs}
    for phi1, f1 in pairs:
        for phi2, f2 in pairs:
            image = by_perm.get(phi1.compose(phi2).perm)
            if image is None:
                raise InvalidAlgebra("inner automorphisms do not compose")
            if boolean_filter_sum(f1, f2, q.algebra).mask != image.mask:
                raise InvalidAlgebra("filter sum disagrees with composition")
    return tuple(pairs)


# -- localization closure ------------------------------------------------------------

@dataclass(frozen=True)
class LocalClosure:
    """An upward-closed MR-subalgebra containing a seed set and closed
    under a group of automorphisms."""

    subalgebra: Subalgebra
    seeds: tuple[int, ...]
    generators: tuple[Automorphism, ...]


@config.memo()
def _caret_rows(algebra: CubicAlgebra) -> tuple:
    """Bit rows of the caret and of its transpose."""
    rows = bit_rows(algebra.size, algebra.caret)
    return rows, tuple(zip(*rows))


def localize_closure(algebra: CubicAlgebra, seeds, autos) -> LocalClosure:
    """Close a seed set under the signed meet and the group generated by
    ``autos``, then take everything above the result in the reflection
    order.

    The result is verified upward closed, MR, containing the seeds, and
    preserved by the group, both on the generators alone: each inverse is
    a power, and a restriction of a product is the product of the
    restrictions.
    """
    seeds = tuple(sorted({as_index(algebra, x) for x in seeds}))
    autos = tuple(autos)
    orbits = tuple(tuple(1 << y for y in phi.perm) for phi in autos)
    z = tuple(_bits(close_mask(sum(1 << x for x in seeds) or 1 << algebra.one,
                               orbits, _caret_rows(algebra))))
    members = list(_bits(reduce(or_, (preceq_mask(algebra, t) for t in z))))
    sub = Subalgebra(algebra, members)
    if not all(x in set(members) for x in seeds):
        raise InvalidAlgebra("closure lost a seed element")
    if not is_upward_closed(algebra, members):
        raise InvalidAlgebra("closure is not upward closed")
    if not check_mr_axiom(sub.algebra).passed:
        raise InvalidAlgebra("closure is not an MR-subalgebra")
    if not presentation_check(sub.algebra, [sub.to_sub(t) for t in z]):
        raise InvalidAlgebra("closure is not presented by its core")
    for phi in autos:
        if {phi.perm[x] for x in members} != set(members):
            raise InvalidAlgebra("closure is not preserved by the group")
        perm = tuple(sub.to_sub(phi.perm[sub.to_parent(i)])
                     for i in range(sub.algebra.size))
        if not is_automorphism(sub.algebra, perm):
            raise InvalidAlgebra("restriction is not an automorphism")
    return LocalClosure(subalgebra=sub, seeds=seeds, generators=autos)
