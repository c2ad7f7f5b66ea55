"""Automorphism groups and the inner-automorphism machinery.

An automorphism group is built from a stabiliser chain (Seress,
*Permutation Group Algorithms*, 2003).  Base points are taken in the
isomorphism search's branch order, each the first point that pinning the
earlier ones does not force through joins and reflections.  One partial
map holds the pins and is undone a level at a time, so each level
propagates its pins once; an image outside the orbit that the
generators found so far already reach (Sims 1970) is tried on it by one
pinned extension.  Propagation works a row at a time: each pair
assigned reads its order and table rows, and their transposes, at
everything assigned before.  Each map found is checked against the
tables and becomes a generator, and the group is every product of one
orbit transversal element per level.  Everything downstream (filter
automorphisms, presentations, fixed/antifixed sets, recovery from
Boolean filters) is formula-driven with construction-time verification.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import compress
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
    _Record,
    _getter,
    as_index,
    caret_rows,
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
    _require_same,
    all_filters,
    as_filter,
    boolean_filter_sum,
    boolean_subfilters,
    impl_elem,
    improper_filter,
    is_F_boolean,
)
from .functors import (
    CubicHom,
    ImplicationHom,
    _pulled,
    check_hom,
    functor_C_hom,
    functor_I_hom,
    iota,
    quotient_C,
)


# -- groups ---------------------------------------------------------------------

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


def is_isomorphism(a, b, m) -> bool:
    """Whether the index array m is an isomorphism a -> b, two algebras
    of one kind; algebras of two kinds give False.

    This accepts the bijections :func:`check_hom` passes; both compare
    m's sides under ``functors._pulled``.  On cubic algebras joins and
    injectivity give the order both ways, hence the reflection's domain,
    and joins with reflections give the equivalence.
    """
    m = tuple(m)
    return (type(a) is type(b) and a.size == b.size
            and sorted(m) == list(range(a.size))
            and _verify_map(_struct(a), _struct(b), m))


@config.memo()
def is_automorphism(algebra, perm: tuple[int, ...]) -> bool:
    """Whether the tuple ``perm`` is an automorphism, memoised per algebra."""
    return is_isomorphism(algebra, algebra, perm)


# -- isomorphism search and the stabiliser chain --------------------------------

class _Struct:
    """Order plus operation tables prepared for the search.  The search
    signatures, branch order and transposed rows are built on first use,
    so a struct that only checks maps (:func:`_verify_map`) never pays
    for them.  ``totals[0]`` is the join; ``transposes`` returns the
    transposes of the other tables, built from them when not given."""

    def __init__(self, n, order, up, down, totals, partials, consts,
                 transposes=None):
        # order: 0/1 rows, order[x][y] is 1 iff x <= y; up/down: their masks
        self.n, self.order, self.up, self.down = n, order, up, down
        self.totals, self.partials, self.consts = totals, partials, consts
        self._transposes = transposes or (lambda: tuple(
            tuple(zip(*t)) for t in totals[1:] + partials))

    @cached_property
    def sigs(self):
        # per x: the sizes of its down- and up-set, and the sorted down-set
        # sizes of the elements below and above it
        up, down = self.up, self.down
        pop = [d.bit_count() for d in down]
        return [(pop[x], up[x].bit_count(),
                 tuple(sorted(map(pop.__getitem__, _bits(down[x])))),
                 tuple(sorted(map(pop.__getitem__, _bits(up[x])))))
                for x in range(self.n)]

    @cached_property
    def classes(self):
        # signature -> the elements that have it, ascending
        classes = {}
        for v, sig in enumerate(self.sigs):
            classes.setdefault(sig, []).append(v)
        return classes

    @cached_property
    def branch(self):
        # the minimal elements first, each part in index order
        return sorted(range(self.n), key=lambda x: self.down[x] != 1 << x)

    @cached_property
    def order_t(self):
        return tuple(zip(*self.order))

    @cached_property
    def reads(self):
        # (table, partial) per row read at an assignment: every table, and
        # the transpose of each but the join, which commutes
        kinds = (False,) * len(self.totals) + (True,) * len(self.partials)
        return tuple(zip(self.totals + self.partials + self._transposes(),
                         kinds + kinds[1:]))


@config.memo()
def _struct(a) -> _Struct:
    # the join total for both kinds; the reflection partial for a cubic
    # algebra, the implication total for an implication algebra
    if isinstance(a, CubicAlgebra):
        return _Struct(a.size, a.leq_table, a._up, a._down, (a.join_table,),
                       (a.delta_table,), (a.one,),
                       lambda: (a._delta_transpose,))
    return _Struct(a.size, a.leq_table, a._up, a._down,
                   (a.join_table, a.implies_table), (), (a.one,))


class _Partial:
    """A partial map src -> dst grown by propagation.  Each pair (a, b)
    assigned is checked a row at a time: the order rows of a and b and
    their transposes, read at the assigned elements and at their images,
    must agree, and so must where each partial row is defined; the pairs
    the table rows then give are assigned in turn.  What is assigned is
    the closure of the pairs given, whatever order it is built in."""

    def __init__(self, src: _Struct, dst: _Struct):
        self.src, self.dst = src, dst
        self.mapping = [-1] * src.n
        self.used = [False] * dst.n
        self.assigned: list[int] = []
        self.images: list[int] = []

    def assign(self, x, v) -> bool:
        src, dst, mapping, used = self.src, self.dst, self.mapping, self.used
        assigned, images = self.assigned, self.images
        reads = tuple(zip(src.reads, dst.reads))
        queue = [(x, v)]
        while queue:
            a, b = queue.pop()
            if mapping[a] != -1:
                if mapping[a] != b:
                    return False
                continue
            if used[b] or dst.sigs[b] != src.sigs[a]:
                return False
            mapping[a] = b
            used[b] = True
            assigned.append(a)
            images.append(b)
            at, to = _getter(assigned), _getter(images)
            if (at(src.order[a]) != to(dst.order[b])
                    or at(src.order_t[a]) != to(dst.order_t[b])):
                return False
            for (ts, partial), (td, _) in reads:
                r, rv = at(ts[a]), to(td[b])
                if partial:
                    defined = tuple(map(UNDEFINED.__ne__, r))
                    if defined != tuple(map(UNDEFINED.__ne__, rv)):
                        return False
                    queue.extend(compress(zip(r, rv), defined))
                else:
                    queue.extend(zip(r, rv))
        return True

    def undo(self, depth):
        while len(self.assigned) > depth:
            self.used[self.images.pop()] = False
            self.mapping[self.assigned.pop()] = -1


def _extend(part: _Partial, pairs) -> tuple[int, ...] | None:
    """The first map, in branch order, that extends ``part`` by ``pairs``
    and passes :func:`_verify_map`; None if there is none.  ``part`` is
    left as it was given."""
    src, dst, mapping = part.src, part.dst, part.mapping
    depth, found = len(part.assigned), None
    if all(part.assign(x, v) for x, v in pairs):
        x = next((t for t in src.branch if mapping[t] == -1), None)
        if x is None:
            m = tuple(mapping)
            found = m if _verify_map(src, dst, m) else None
        else:
            for v in dst.classes[src.sigs[x]]:
                if not part.used[v] and (found := _extend(part, ((x, v),))):
                    break
    part.undo(depth)
    return found


def _search(src: _Struct, dst: _Struct) -> tuple[int, ...] | None:
    """The first isomorphism src -> dst in branch order that passes
    :func:`_verify_map`; None if there is none."""
    if src.n != dst.n or sorted(src.sigs) != sorted(dst.sigs):
        return None
    return _extend(_Partial(src, dst), zip(src.consts, dst.consts))


def _verify_map(src: _Struct, dst: _Struct, m: tuple[int, ...]) -> bool:
    """Whether the permutation m of the carrier is an isomorphism src -> dst.

    m must carry the constants onto dst's, pull dst's order back onto
    src's, and give each table pair two equal sides under
    :func:`~mrkit.functors._pulled`, undefined entries included: so a
    partial table's domain must map onto dst's as well.
    """
    at = _getter(m)
    return (all(m[c] == d for c, d in zip(src.consts, dst.consts))
            and tuple(map(at, at(dst.order))) == src.order
            and all(lhs == rhs for lhs, rhs in _pulled(m, zip(
                src.totals + src.partials, dst.totals + dst.partials))))


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
    base ends when only the identity fixes it.  One partial map holds
    the pins, extended a base point at a time and undone a level at a
    time, so each level propagates its pins once.  The levels are filled
    from the deepest up (Sims 1970), so every generator found so far
    fixes base points 0..i-1.  Each signature-compatible image of base
    point i outside its orbit under them costs one pinned extension: a
    map found is a new generator, and a failed one puts the image
    outside the stabiliser's orbit.  Level i is the orbit's transversal
    and the group is every product u1...uk of one map per level.  Only
    the generators are verified against the tables, at the leaf of
    :func:`_extend`; products of automorphisms are automorphisms, so
    only their distinctness is checked.
    """
    n, part = struct.n, _Partial(struct, struct)
    for x in struct.consts:
        part.assign(x, x)  # the identity extends every identity pin
    base, depths = [], []
    while (b := next((x for x in struct.branch if part.mapping[x] == -1),
                     None)) is not None:
        base.append(b)
        depths.append(len(part.assigned))
        part.assign(b, b)
    generators, levels = [], []
    for i in reversed(range(len(base))):
        b = base[i]
        part.undo(depths[i])  # the constants and base[:i] pinned
        transversal = {b: tuple(range(n))}
        _orbit(transversal, generators)
        for v in struct.classes[struct.sigs[b]]:
            if v not in transversal and (u := _extend(part, ((b, v),))):
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
def enumerate_aut(algebra) -> Group:
    """The full automorphism group of a cubic or an implication algebra,
    sorted by permutation array: ``CubicHom``s or ``ImplicationHom``s."""
    group = _group(_struct(algebra))
    hom = CubicHom if isinstance(algebra, CubicAlgebra) else ImplicationHom
    return Group((hom(algebra, algebra, p) for p in group), group.levels,
                 group.generators)


@config.memo()
def orbit_representatives(algebra: CubicAlgebra, masks) -> tuple[int, ...]:
    """The first member of each orbit of a tuple of element masks under
    the automorphism group, in the tuple's order; memoised on the algebra.

    Orbits are closed under the chain's generators alone: each was
    verified against the tables, and they generate the group.  A
    generator that maps a member outside the family raises
    :class:`InvalidAlgebra`, since a scan of the representatives is exact
    only for a family the group keeps; for every filter of
    :func:`all_filters` this checks that each orbit was found whole.
    """
    family, seen, reps = set(masks), set(), []
    generators = enumerate_aut(algebra).generators
    for mask in masks:
        if mask in seen:
            continue
        reps.append(mask)
        seen.add(mask)
        stack = [mask]
        while stack:
            members = tuple(_bits(stack.pop()))
            at = _getter(members)
            for g in generators:
                m = sum(1 << y for y in at(g))
                if m not in seen:
                    if m not in family:
                        raise InvalidAlgebra(
                            f"an automorphism maps {list(members)} outside "
                            "the family")
                    seen.add(m)
                    stack.append(m)
    return tuple(reps)


def find_isomorphism(a, b) -> tuple[int, ...] | None:
    """An isomorphism between two algebras of one kind, or None; algebras
    of two kinds give None before any search."""
    config.check_carrier(max(a.size, b.size), "find_isomorphism")
    return _search(_struct(a), _struct(b)) if type(a) is type(b) else None


# -- inner automorphisms --------------------------------------------------------

def is_inner(phi: CubicHom) -> bool:
    """Inner means the collapse of the map is the identity: every element
    is reflection-equivalent to its image, x ~ phi(x), that is
    delta(x v phi(x), x) = phi(x).  A map into another algebra is a
    ValueError, here and so in :func:`fixed_set`, the memoised gate that
    :func:`d_set`, :func:`decompose` and :func:`recover` pass first."""
    algebra = phi.source
    if phi.target is not algebra and phi.target != algebra:
        raise ValueError("the map's target is another algebra")
    join, delta = algebra.join_table, algebra.delta_table
    return all(delta[join[x][y]][x] == y for x, y in enumerate(phi.map))


@config.memo()
def inner_group(algebra: CubicAlgebra) -> tuple[CubicHom, ...]:
    """The inner automorphisms, verified to be an abelian normal
    2-torsion subgroup.  Normality is checked against the generators of
    the whole group: conjugation by a generating set keeping a subgroup
    means every element keeps it."""
    auts = enumerate_aut(algebra)
    inner = tuple(phi for phi in auts if is_inner(phi))
    maps, identity = {phi.map for phi in inner}, tuple(range(algebra.size))
    if identity not in maps:
        raise InvalidAlgebra("inner automorphisms miss the identity")
    inverses = [sorted(identity, key=g.__getitem__) for g in auts.generators]
    for p in (phi.map for phi in inner):
        after = _getter(p)  # after(q) is q after p, as q.compose(p) reads
        if after(p) != identity:
            raise InvalidAlgebra("inner automorphism is not an involution")
        for psi in inner:
            if (pq := _getter(psi.map)(p)) not in maps:
                raise InvalidAlgebra("inner automorphisms not closed")
            if pq != after(psi.map):
                raise InvalidAlgebra("inner automorphisms not commutative")
        for g, inverse in zip(auts.generators, inverses):
            if _getter(inverse)(after(g)) not in maps:  # g after p after g^-1
                raise InvalidAlgebra("inner automorphisms not normal")
    return inner


# -- filter coordinates -----------------------------------------------------------

@config.memo()
def alpha_beta_table(filt: Filter) -> dict:
    """For each element the unique filter pair (alpha, beta) whose
    reflection gives it back.  One sweep over the member pairs b <= a,
    in ascending order, buckets each pair by its reflection."""
    algebra, table, buckets = filt.carrier, {}, {}
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


def _coordinates(filt: Filter) -> dict:
    """:func:`alpha_beta_table`, a filter without unique coordinates
    refused as :class:`NotGFilter`."""
    try:
        return alpha_beta_table(filt)
    except NoDecomposition as exc:
        raise NotGFilter(f"{sorted(filt.members)}: {exc}") from None


def has_unique_coordinates(filt: Filter) -> bool:
    """Whether every element decomposes uniquely over the filter: whether
    reflection maps the member pairs b <= a one to one onto the carrier,
    so the table is built only when there are n such pairs.  Generating
    alone does not guarantee this (the improper filter generates but
    decomposes nothing uniquely); the filters the automorphism theory
    quantifies over are the ones passing this test.
    """
    mask, down = filt.mask, filt.carrier._down
    if sum((mask & down[a]).bit_count() for a in _bits(mask)) != len(down):
        return False
    try:
        alpha_beta_table(filt)
    except NoDecomposition:
        return False
    return True


@config.memo()
def coordinate_gfilters(algebra: CubicAlgebra) -> tuple[Filter, ...]:
    """Generating filters whose coordinate map is a bijection."""
    return tuple(f for f in all_filters(algebra) if has_unique_coordinates(f))


@config.memo()
def filter_automorphism(f: Filter, g: Filter) -> CubicHom:
    """The unique automorphism carrying one generating filter to the other.

    Both filters must live in one algebra (ValueError otherwise) and have
    unique coordinates (:class:`NotGFilter` otherwise).  That makes them
    generating: every element is then some delta(a, b) of members a, b.
    The map is built pointwise from the filter coordinates, then
    verified: it is an automorphism, maps f onto g, fixes every filter
    element up to equivalence, and is an involution.  Memoised on the
    filters' algebra, so each pair is validated, built and verified once
    per algebra.
    """
    algebra = _require_same(f, g)
    tf, tg = map(_coordinates, (f, g))
    perm = tuple(algebra.delta_table[tg[a][1]][tg[b][1]]
                 for a, b in map(tf.__getitem__, algebra.elements()))
    if UNDEFINED in perm:  # the reflection names the entry off its domain
        algebra.delta(*(tg[v][1] for v in tf[perm.index(UNDEFINED)]))
    if not is_automorphism(algebra, perm):
        raise InvalidAlgebra("filter automorphism formula broke")
    if {perm[x] for x in f.members} != g.members:
        raise InvalidAlgebra("filter automorphism misses the target filter")
    if not all(algebra.sim(x, perm[x]) for x in f.members):
        raise InvalidAlgebra("filter automorphism moves a filter class")
    if _getter(perm)(perm) != tuple(range(algebra.size)):
        raise InvalidAlgebra("filter automorphism is not an involution")
    return CubicHom(algebra, algebra, perm)


# -- presentations over a generating filter ----------------------------------------

class FPresentation(_Record):
    """Coordinates of an algebra, ``filter.carrier``, over one of its
    generating filters."""

    filter: Filter
    impl: ImplicationAlgebra
    hom: CubicHom

    @property
    def target(self) -> CubicAlgebra:
        return self.hom.target


@config.memo()
def f_presentation(filt: Filter) -> FPresentation:
    """The isomorphism of the filter's algebra onto the pair algebra of
    the filter, which must have unique coordinates (:class:`NotGFilter`
    otherwise, as in :func:`filter_automorphism`).

    x goes to the pair of joins of x and its mirror with the inner filter
    coordinate of x; on the filter itself this is the natural embedding.
    The pair algebra is built unchecked: the filter's implication algebra
    is validated, so its pair algebra is cubic by the pair construction
    theorem, and the isomorphism check that follows carries the axioms
    over from the filter's algebra besides.
    """
    table = _coordinates(filt)
    algebra, members = filt.carrier, filt.sorted_members
    impl = implication_subalgebra(algebra, members,
                                  name=f"{algebra.algebra_id}^F{len(members)}")
    index = {m: i for i, m in enumerate(members)}
    target = _pair_algebra(impl)
    idx = pair_index(impl)
    mirror, jt = algebra.delta_table[algebra.one], algebra.join_table
    out = tuple(idx[(index[jt[mirror[x]][beta]], index[jt[x][beta]])]
                for x, (_, beta) in sorted(table.items()))
    hom = CubicHom(algebra, target, out)
    if not is_isomorphism(algebra, target, out):
        raise InvalidAlgebra("filter presentation is not an isomorphism")
    for x in filt.members:
        if hom.map[x] != idx[(impl.one, index[x])]:
            raise InvalidAlgebra("presentation disagrees with the embedding")
    return FPresentation(filter=filt, impl=impl, hom=hom)


def Xi(filt: Filter, alpha: ImplicationHom) -> ImplicationHom:
    """Transport an automorphism of the collapse of the filter's algebra
    to the filter.

    Conjugates through the filter presentation and the canonical
    collapse isomorphism of its pair algebra.
    """
    q = quotient_C(filt.carrier)
    if alpha.source != q.algebra or alpha.target != q.algebra:
        raise ValueError("alpha must be an automorphism of the collapse")
    pres = f_presentation(filt)
    emb = iota(pres.impl)
    chi = emb.inverse().compose(functor_C_hom(pres.hom)).compose(
        alpha).compose(functor_C_hom(pres.hom.inverse())).compose(emb)
    if not (chi.is_bijective() and check_hom(chi).passed):
        raise InvalidAlgebra("transported map is not an automorphism")
    return chi


def extend_base_automorphism(filt: Filter, chi: ImplicationHom) -> CubicHom:
    """Extend an automorphism of a generating filter to the whole algebra
    by conjugating its pair-algebra lift through the presentation."""
    pres = f_presentation(filt)
    return pres.hom.inverse().compose(functor_I_hom(chi)).compose(pres.hom)


def factor_automorphism(filt: Filter,
                        phi: CubicHom) -> tuple[Filter, ImplicationHom]:
    """Split an automorphism of the filter's algebra into a filter
    automorphism and a base part; a map from another algebra is a
    ValueError.

    Returns the image filter and the transported collapse action; the
    factorization is re-verified before returning.
    """
    algebra = _require_same(filt, phi)
    image = as_filter(algebra, (phi.map[x] for x in _bits(filt.mask)))
    chi = Xi(filt, functor_C_hom(phi))
    rebuilt = filter_automorphism(filt, image).compose(
        extend_base_automorphism(filt, chi))
    if rebuilt.map != phi.map:
        raise InvalidAlgebra("factorization failed to rebuild the automorphism")
    return image, chi


# -- fixed and antifixed sets ------------------------------------------------------

@config.memo()
def fixed_set(phi: CubicHom) -> frozenset:
    """Fixed points of an inner automorphism: an upward-closed MR-subalgebra.
    The innerness gate of :func:`d_set`, :func:`decompose` and
    :func:`recover`: a map that is not inner is :class:`NotInner`."""
    algebra = phi.source
    if not is_inner(phi):
        raise NotInner("fixed-set analysis needs an inner automorphism")
    fixed = frozenset(x for x in algebra.elements() if phi.map[x] == x)
    if not is_upward_closed(algebra, fixed):
        raise InvalidAlgebra("fixed set is not upward closed")
    sub = Subalgebra(algebra, fixed)
    if not check_mr_axiom(sub.algebra).passed:
        raise InvalidAlgebra("fixed set is not an MR-subalgebra")
    for x in algebra.elements():
        if algebra.join(x, phi.map[x]) not in fixed:
            raise InvalidAlgebra("join with the image escapes the fixed set")
    return fixed


@config.memo()
def d_set(phi: CubicHom) -> frozenset:
    """The mirror side of an inner automorphism, read off the collapse."""
    algebra = phi.source
    fixed = fixed_set(phi)
    q = quotient_C(algebra)
    fixed_classes = as_filter(q.algebra, (q.eta[x] for x in fixed))
    complement = impl_elem(fixed_classes, improper_filter(q.algebra))
    members = frozenset(x for x in algebra.elements() if q.eta[x] in complement)
    one = algebra.one
    for z in members:
        if algebra.delta(one, z) not in members:
            raise InvalidAlgebra("mirror set is not reflection closed")
        if phi.map[z] != algebra.delta(one, z):
            raise InvalidAlgebra("inner automorphism is not the mirror there")
    for x in algebra.elements():
        if algebra.join(algebra.delta(one, x), phi.map[x]) not in members:
            raise InvalidAlgebra("mirror join escapes the mirror set")
    return members


def decompose(phi: CubicHom, z, verify: bool = True) -> tuple[int, int]:
    """Split z into its fixed and mirror components.

    With ``verify`` the uniqueness of the split is confirmed by scanning
    the full component product.
    """
    algebra = phi.source
    z = as_index(algebra, z)
    fixed = fixed_set(phi)
    mirror = d_set(phi)
    one = algebra.one
    z0 = algebra.join(z, phi.map[z])
    z1 = algebra.join(z, algebra.delta(one, phi.map[z]))
    if z0 not in fixed or z1 not in mirror or algebra.meet(z0, z1) != z:
        raise InvalidAlgebra(f"decomposition formulas failed at {z}")
    if verify:
        hits = [(a, b) for a in fixed for b in mirror
                if algebra.meet(a, b) == z]
        if hits != [(z0, z1)]:
            raise InvalidAlgebra(f"decomposition of {z} is not unique: {hits}")
    return z0, z1


def recover(phi: CubicHom, z) -> int:
    """Rebuild the image of z from its split: fixed part meet mirrored part."""
    algebra = phi.source
    z = as_index(algebra, z)
    z0, z1 = decompose(phi, z, verify=False)
    value = algebra.meet(z0, algebra.delta(algebra.one, z1))
    if value != phi.map[z]:
        raise InvalidAlgebra(f"recovery disagrees with the automorphism at {z}")
    return value


# -- recovery from Boolean filters ----------------------------------------------

def phi_from_boolean_filter(algebra: CubicAlgebra, filt: Filter) -> CubicHom:
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
    phi = CubicHom(algebra, algebra, tuple(perm))
    if not is_automorphism(algebra, phi.map):
        raise InvalidAlgebra("recovered map is not an automorphism")
    if not is_inner(phi):
        raise InvalidAlgebra("recovered map is not inner")
    if fixed_set(phi) != s1:
        raise InvalidAlgebra("recovered map fixes the wrong set")
    return phi


class IntervalTranslation(_Record):
    """Translation between the intervals above two equivalent elements of
    ``localization.base``, with its extension to the whole localization."""

    a: int
    b: int
    localization: Localization
    interval_map: dict
    extension: dict

    def sub_automorphism(self) -> CubicHom:
        sub = self.localization.subalgebra
        m = tuple(sub.to_sub(self.extension[sub.to_parent(i)])
                  for i in range(sub.algebra.size))
        return CubicHom(sub.algebra, sub.algebra, m)


def f_ab(algebra: CubicAlgebra, a, b) -> IntervalTranslation:
    """Map the interval above a onto the interval above b (for equivalent
    a, b) and extend it to an inner automorphism of the localization."""
    a = as_index(algebra, a)
    b = as_index(algebra, b)
    if not algebra.sim(a, b):
        raise NotSim(f"{a} and {b} are not reflection equivalent")
    one = algebra.one
    interval_map = {w: algebra.meet(algebra.join(w, b),
                                    algebra.join(algebra.delta(one, w), b))
                    for w in sorted(algebra.up_set(a))}
    undefined = [w for w, value in interval_map.items() if value is None]
    if undefined:
        raise InvalidAlgebra(f"interval translation undefined at {undefined[0]}")
    if set(interval_map.values()) != algebra.up_set(b):
        raise InvalidAlgebra("interval translation is not onto")
    if len(set(interval_map.values())) != len(interval_map):
        raise InvalidAlgebra("interval translation is not injective")

    # t and z v a lie above a, so the interval map holds their images
    loc = localize(algebra, a)
    extension = {}
    for z in loc.members:
        t = algebra.implies(algebra.join(algebra.delta(one, z), a), a)
        mirrored = algebra.delta(one, algebra.implies(interval_map[t], b))
        value = algebra.meet(interval_map[algebra.join(z, a)], mirrored)
        if value is None:
            raise InvalidAlgebra(f"extension undefined at {z}")
        extension[z] = value
    result = IntervalTranslation(a=a, b=b, localization=loc,
                                 interval_map=interval_map, extension=extension)
    sub_phi = result.sub_automorphism()
    if not is_automorphism(sub_phi.source, sub_phi.map):
        raise InvalidAlgebra("extension is not an automorphism")
    if not is_inner(sub_phi):
        raise InvalidAlgebra("extension is not inner on the localization")
    return result


# -- the filter side of the inner group --------------------------------------------

def omega(algebra: CubicAlgebra) -> tuple[tuple[CubicHom, Filter], ...]:
    """The bijection between inner automorphisms and Boolean filters of
    the collapse, verified to be a group isomorphism for the filter sum."""
    config.check_carrier(algebra.size, "omega")
    q = quotient_C(algebra)
    pairs = [(phi, as_filter(q.algebra,
                             (q.eta[x] for x in fixed_set(phi))))
             for phi in inner_group(algebra)]
    masks = {f.mask for _, f in pairs}
    if len(masks) != len(pairs):
        raise InvalidAlgebra("filter images collide")
    if masks != {f.mask for f in boolean_subfilters(improper_filter(q.algebra))}:
        raise InvalidAlgebra("filter images miss a Boolean filter")
    by_map = {phi.map: f for phi, f in pairs}
    for phi1, f1 in pairs:
        for phi2, f2 in pairs:
            image = by_map.get(_getter(phi2.map)(phi1.map))  # phi1 after phi2
            if image is None:
                raise InvalidAlgebra("inner automorphisms do not compose")
            if boolean_filter_sum(f1, f2).mask != image.mask:
                raise InvalidAlgebra("filter sum disagrees with composition")
    return tuple(pairs)


# -- localization closure ------------------------------------------------------------

class LocalClosure(_Record):
    """An upward-closed MR-subalgebra containing a seed set and closed
    under a group of automorphisms."""

    subalgebra: Subalgebra
    seeds: tuple[int, ...]
    generators: tuple[CubicHom, ...]


@config.memo()
def _caret_rows(algebra: CubicAlgebra) -> tuple:
    """The caret as an index table (:func:`caret_rows`) and its transpose:
    the caret does not commute, so :func:`close_mask` needs both."""
    rows = tuple(caret_rows(algebra))
    return rows, tuple(zip(*rows))


def localize_closure(algebra: CubicAlgebra, seeds, autos) -> LocalClosure:
    """Close a seed set under the signed meet and the group generated by
    ``autos``, then take everything above the result in the reflection
    order.

    The result is verified upward closed, MR, containing the seeds, and
    preserved by the group, both on the generators alone: each inverse is
    a power, and a restriction of a product is the product of the
    restrictions.  A generator of another algebra is a ValueError.
    """
    seeds = tuple(sorted({as_index(algebra, x) for x in seeds}))
    autos = tuple(autos)
    for phi in autos:
        if phi.source is not algebra and phi.source != algebra:
            raise ValueError("a generator is a map of another algebra")
    orbits = tuple(tuple(1 << y for y in phi.map) for phi in autos)
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
        if {phi.map[x] for x in members} != set(members):
            raise InvalidAlgebra("closure is not preserved by the group")
        m = tuple(sub.to_sub(phi.map[sub.to_parent(i)])
                  for i in range(sub.algebra.size))
        if not is_automorphism(sub.algebra, m):
            raise InvalidAlgebra("restriction is not an automorphism")
    return LocalClosure(subalgebra=sub, seeds=seeds, generators=autos)
