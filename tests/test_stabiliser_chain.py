"""The stabiliser-chain group and the row verifier against the plain
backtracking enumeration and entry-by-entry check they replaced."""

import random
from math import prod

import pytest

from mrkit import automorphisms
from mrkit.automorphisms import (
    _extend,
    _getter,
    _Partial,
    _search,
    _struct,
    _Struct,
    _verify_map,
    enumerate_aut,
    find_isomorphism,
    is_automorphism,
    is_isomorphism,
)
from mrkit.constructions import boolean_algebra, build_I, face_poset
from mrkit.corpus import b2, b3, b4, c1, c2, c3, cubic_corpus, i3, n5
from mrkit.cubic import UNDEFINED, CubicAlgebra
from mrkit.functors import CubicHom, ImplicationHom, check_hom, quotient_C

from conftest import fresh, generated_group, relabel


# -- references ----------------------------------------------------------------

def reference_verify(src, dst, m):
    """Every table entry checked one at a time."""
    n = src.n
    for x in range(n):
        for y in range(n):
            if (src.up[x] >> y & 1) != (dst.up[m[x]] >> m[y] & 1):
                return False
            for ts, td in zip(src.totals, dst.totals):
                if m[ts[x][y]] != td[m[x]][m[y]]:
                    return False
            for ps, pd in zip(src.partials, dst.partials):
                r, rv = ps[x][y], pd[m[x]][m[y]]
                if (r == -1) != (rv == -1) or (r != -1 and m[r] != rv):
                    return False
    return all(m[c] == d for c, d in zip(src.consts, dst.consts))


def reference_sigs(struct):
    """The search signatures as first written: each up- and down-set read
    by scanning all n elements."""
    n, up, down = struct.n, struct.up, struct.down
    pop = [bin(d).count("1") for d in down]
    sigs = []
    for x in range(n):
        below = tuple(sorted(pop[y] for y in range(n) if down[x] >> y & 1))
        above = tuple(sorted(pop[y] for y in range(n) if up[x] >> y & 1))
        sigs.append((pop[x], bin(up[x]).count("1"), below, above))
    return sigs


class ReferencePartial:
    """The propagation the search used before rows: one assigned pair at
    a time, each checked against every pair before it entry by entry.
    ``assign`` returns None on success, else the reason it rejects."""

    def __init__(self, src, dst):
        self.src, self.dst = src, dst
        self.mapping = [-1] * src.n
        self.used = [False] * dst.n
        self.assigned = []

    def assign(self, x, v):
        src, dst, mapping, used = self.src, self.dst, self.mapping, self.used
        assigned = self.assigned
        queue = [(x, v)]
        while queue:
            a, b = queue.pop()
            if mapping[a] != -1:
                if mapping[a] != b:
                    return "image"
                continue
            if used[b]:
                return "used"
            if dst.sigs[b] != src.sigs[a]:
                return "signature"
            for c in assigned:
                w = mapping[c]
                if (src.up[a] >> c & 1) != (dst.up[b] >> w & 1):
                    return "order"
                if (src.up[c] >> a & 1) != (dst.up[w] >> b & 1):
                    return "order"
            mapping[a] = b
            used[b] = True
            assigned.append(a)
            for c in list(assigned):
                w = mapping[c]
                for ts, td in zip(src.totals, dst.totals):
                    queue.append((ts[a][c], td[b][w]))
                    queue.append((ts[c][a], td[w][b]))
                for ps, pd in zip(src.partials, dst.partials):
                    for r, rv in ((ps[a][c], pd[b][w]), (ps[c][a], pd[w][b])):
                        if (r == -1) != (rv == -1):
                            return "domain"
                        if r != -1:
                            queue.append((r, rv))
        return None

    def undo(self, depth):
        while len(self.assigned) > depth:
            a = self.assigned.pop()
            self.used[self.mapping[a]] = False
            self.mapping[a] = -1


def reference_maps(src, dst, pins=()):
    """Every isomorphism src -> dst sending each pinned x to its v, by
    plain backtracking in branch order (the minimal elements first)."""
    n = src.n
    if n != dst.n or sorted(src.sigs) != sorted(dst.sigs):
        return
    candidates = [[v for v in range(n) if dst.sigs[v] == src.sigs[x]]
                  for x in range(n)]
    part = ReferencePartial(src, dst)
    minimals = [x for x in range(n) if src.down[x] == 1 << x]
    order = minimals + [x for x in range(n) if x not in set(minimals)]
    for x, v in (*zip(src.consts, dst.consts), *pins):
        if part.assign(x, v) is not None:
            return

    def search():
        x = next((t for t in order if part.mapping[t] == -1), None)
        if x is None:
            if reference_verify(src, dst, part.mapping):
                yield tuple(part.mapping)
            return
        for v in candidates[x]:
            if part.used[v]:
                continue
            depth = len(part.assigned)
            if part.assign(x, v) is None:
                yield from search()
            part.undo(depth)

    yield from search()


def reference_search(src, dst):
    """Every isomorphism src -> dst, sorted."""
    return sorted(reference_maps(src, dst))


def reference_first(src, dst, pins=()):
    """The search before rows: the first isomorphism in branch order."""
    return next(reference_maps(src, dst, pins), None)


def reference_chain(struct):
    """The chain before orbits: base points taken top-down, one pinned
    search per signature-compatible image, and every product of one
    representative per level.  Returns the base, the levels and the
    sorted products."""
    n, base, levels = struct.n, [], []
    while True:
        fixed = ReferencePartial(struct, struct)
        for x in (*struct.consts, *base):
            fixed.assign(x, x)
        b = next((x for x in struct.branch if fixed.mapping[x] == -1), None)
        if b is None:
            break
        pins = [(x, x) for x in base]
        reps = (reference_first(struct, struct, pins + [(b, v)])
                for v in range(n) if struct.sigs[v] == struct.sigs[b])
        levels.append(tuple(u for u in reps if u is not None))
        base.append(b)
    elements = [tuple(range(n))]
    for level in reversed(levels):
        elements = [_getter(g)(u) for u in level for g in elements]
    return base, levels, sorted(elements)


ONE = build_I(boolean_algebra(0))
C4 = build_I(b4())
CUBIC = [*cubic_corpus(), ("face2", face_poset(2)), ("C3~7", relabel(c3(), 7)),
         ("one", ONE)]


def chain_algebra(n):
    """The n-element chain, its reflection defined below the diagonal."""
    return CubicAlgebra.from_tables(
        [[int(x <= y) for y in range(n)] for x in range(n)],
        [[max(x, y) for y in range(n)] for x in range(n)],
        [[y if y <= x else UNDEFINED for y in range(n)] for x in range(n)],
        n - 1, strict=False)


# -- the groups ------------------------------------------------------------------

@pytest.mark.parametrize("name,alg", CUBIC, ids=[name for name, _ in CUBIC])
def test_enumerate_aut_matches_the_full_search(name, alg):
    struct = _struct(alg)
    assert [phi.map for phi in enumerate_aut(alg)] == \
        reference_search(struct, struct)


@pytest.mark.parametrize("name,alg", CUBIC, ids=[name for name, _ in CUBIC])
def test_enumerate_impl_aut_matches_the_full_search_on_the_collapse(name, alg):
    q = quotient_C(alg).algebra
    struct = _struct(q)
    assert [h.map for h in enumerate_aut(q)] == \
        reference_search(struct, struct)


@pytest.mark.parametrize("name,struct", [
    ("C3", lambda: _struct(c3())),
    ("C4", lambda: _struct(C4)),
    ("C4~5", lambda: _struct(relabel(C4, 5))),
    ("collapse-C4", lambda: _struct(quotient_C(C4).algebra)),
], ids=["C3", "C4", "C4~5", "collapse-C4"])
def test_signatures_match_the_full_scan(name, struct):
    struct = struct()
    assert struct.sigs == reference_sigs(struct)


FOUND = [*CUBIC, ("C4", C4)]


@pytest.mark.parametrize("name,alg", FOUND, ids=[name for name, _ in FOUND])
def test_found_isomorphisms_pass_the_verifier(name, alg):
    # the same map the search before rows and pinned partials returned
    for seed in (11, 12):
        other = relabel(alg, seed)
        src, dst = _struct(alg), _struct(other)
        m = find_isomorphism(alg, other)
        assert m is not None and _verify_map(src, dst, m)
        assert m == reference_first(src, dst)
        q, qo = quotient_C(alg).algebra, quotient_C(other).algebra
        src, dst = _struct(q), _struct(qo)
        m = find_isomorphism(q, qo)
        assert m is not None and _verify_map(src, dst, m)
        assert m == reference_first(src, dst)


IMPLICATION = [("collapse-C3", quotient_C(c3()).algebra),
               ("collapse-C4", quotient_C(C4).algebra),
               ("collapse-C4~5", quotient_C(relabel(C4, 5)).algebra),
               ("B3", b3()), ("I3", i3())]


@pytest.mark.parametrize("name,alg", IMPLICATION,
                         ids=[name for name, _ in IMPLICATION])
def test_the_searches_take_an_implication_algebra(name, alg):
    # the plain search, chain and entry check on the join and implication
    # tables, as the implication-algebra twins of enumerate_aut,
    # find_isomorphism and is_isomorphism ran them
    struct = _struct(alg)
    assert (struct.totals, struct.partials) == (
        (alg.join_table, alg.implies_table), ())
    group = enumerate_aut(alg)
    assert all(type(h) is ImplicationHom and h.source is h.target is alg
               for h in group)
    maps = [h.map for h in group]
    assert maps == reference_search(struct, struct) == \
        reference_chain(struct)[2]
    assert find_isomorphism(alg, alg) == reference_first(struct, struct)
    rng, verdicts = random.Random(name), set()
    for m in maps:
        i, j = rng.sample(range(alg.size), 2)
        swap = list(m)
        swap[i], swap[j] = m[j], m[i]
        for candidate in (m, tuple(swap)):
            verdict = is_isomorphism(alg, alg, candidate)
            assert verdict == reference_verify(struct, struct, candidate)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_algebras_of_two_kinds_are_never_isomorphic(monkeypatch):
    # C2 with B2, and C1 with I3 (three elements each, so only the kind
    # tells them apart), both ways: no search and no check is run
    def no_search(*args):
        raise AssertionError("search started")

    monkeypatch.setattr(automorphisms, "_search", no_search)
    monkeypatch.setattr(automorphisms, "_verify_map", no_search)
    for a, b in ((c2(), b2()), (c1(), i3())):
        for src, dst in ((a, b), (b, a)):
            assert find_isomorphism(src, dst) is None
            assert is_isomorphism(src, dst, range(src.size)) is False


GENERATED = [*cubic_corpus(), ("C4~5", relabel(C4, 5))]


@pytest.mark.parametrize("name,alg", GENERATED,
                         ids=[name for name, _ in GENERATED])
def test_chain_generators_generate_the_group(name, alg):
    group = enumerate_aut(alg)
    gens = [CubicHom(alg, alg, p) for p in group.generators]
    assert [phi.map for phi in generated_group(alg, gens)] == \
        [phi.map for phi in group]
    assert prod(map(len, group.levels)) == len(group)


def reference_products(struct, group):
    """The check the chain once ran on every product: each element
    verified against the tables."""
    return all(_verify_map(struct, struct, g) for g in group)


VERIFIED = [*cubic_corpus(), GENERATED[-1]]


@pytest.mark.parametrize("name,alg", VERIFIED,
                         ids=[name for name, _ in VERIFIED])
def test_every_product_is_an_automorphism(name, alg):
    # only the representatives are verified in the chain; products follow
    struct = _struct(alg)
    perms = [phi.map for phi in enumerate_aut(alg)]
    assert reference_products(struct, perms)
    assert all(reference_verify(struct, struct, p) for p in perms)


def test_only_the_representatives_are_verified(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return _verify_map(*args)

    alg = fresh(build_I(b4()))  # a copy with no memo entries
    monkeypatch.setattr(automorphisms, "_verify_map", counted)
    group = enumerate_aut(alg)
    # a search runs only outside the orbit, so each verified map is new
    assert len(calls) == 4 == len(group.generators)
    assert sorted(calls) == list(group.generators)
    assert len(group) == 384


def test_pinned_searches_run_only_outside_the_orbit(monkeypatch):
    # one extension per image outside the orbit; the outermost calls are
    # those _group makes, the rest are the extension's own recursion
    found, depth = [], [0]

    def counted(*args):
        depth[0] += 1
        try:
            u = _extend(*args)
        finally:
            depth[0] -= 1
        if not depth[0]:
            found.append(u)
        return u

    monkeypatch.setattr(automorphisms, "_extend", counted)
    automorphisms._group(_struct(C4))
    assert (len(found), sum(u is not None for u in found)) == (43, 4)


def test_each_level_propagates_its_pins_once(monkeypatch):
    # the top and each base point are assigned once for the whole chain,
    # then one assign per candidate image and per branch of its search
    # (195 when every pinned search propagated its pins afresh)
    calls = []
    assign = _Partial.assign

    def counted(self, x, v):
        calls.append((x, v))
        return assign(self, x, v)

    monkeypatch.setattr(_Partial, "assign", counted)
    automorphisms._group(_struct(C4))
    assert len(calls) == 56


def test_chain_work_counts():
    # deterministic: base points, searches and orbits follow the branch order
    for alg, levels, generators in ((c3(), [8, 3, 2], 3),
                                    (C4, [16, 4, 3, 2], 4)):
        group = enumerate_aut(alg)
        assert [len(level) for level in group.levels] == levels
        assert len(group.generators) == generators


CHAINS = [*CUBIC, ("C4~5", relabel(C4, 5))]


@pytest.mark.parametrize("kind", ["cubic", "impl"])
@pytest.mark.parametrize("name,alg", CHAINS, ids=[name for name, _ in CHAINS])
def test_orbit_chain_matches_the_chain_it_replaced(name, alg, kind):
    struct = _struct(alg if kind == "cubic" else quotient_C(alg).algebra)
    base, levels, elements = reference_chain(struct)
    group = automorphisms._group(struct)
    assert list(group) == elements
    assert [len(level) for level in group.levels] == list(map(len, levels))
    for i, (level, reps) in enumerate(zip(group.levels, levels)):
        images = [u[base[i]] for u in level]
        assert images == [u[base[i]] for u in reps] == sorted(images)
        for u in level:
            assert all(u[x] == x for x in base[:i])


def test_c5_group(monkeypatch):
    monkeypatch.setenv("MRKIT_MAX_CARRIER", "243")
    group = enumerate_aut(build_I(boolean_algebra(5)))
    assert len(group) == 3840
    assert [len(level) for level in group.levels] == [32, 5, 4, 3, 2]
    assert len(group.generators) == 5


def test_single_element_group():
    group = enumerate_aut(ONE)
    assert [phi.map for phi in group] == [(0,)]
    assert group.levels == () and group.generators == ()


# -- the verifier -------------------------------------------------------------------

def _both(src, dst, m):
    verdict = _verify_map(src, dst, m)
    assert verdict == reference_verify(src, dst, m), m
    return verdict


@pytest.mark.parametrize("alg", [c2(), c3(), n5()], ids=["C2", "C3", "N5"])
def test_row_verifier_agrees_on_automorphisms_and_swaps(alg):
    struct = _struct(alg)
    rng = random.Random(3)
    for phi in enumerate_aut(alg):
        assert _both(struct, struct, phi.map)
        for _ in range(5):
            m = list(phi.map)
            i, j = rng.sample(range(alg.size), 2)
            m[i], m[j] = m[j], m[i]
            _both(struct, struct, tuple(m))


def test_is_isomorphism_accepts_the_bijections_check_hom_passes():
    # the claim of is_isomorphism's docstring, over every group element
    # of the corpus, three single-swap mutants of each of the first 20
    # elements per algebra, and 30 seeded permutations per algebra
    rng = random.Random("is-isomorphism")
    maps = []
    for _, alg in cubic_corpus():
        group = [phi.map for phi in enumerate_aut(alg)]
        maps += [(alg, m) for m in group]
        for m in group[:20]:
            for _ in range(3):
                i, j = rng.sample(range(alg.size), 2)
                swap = list(m)
                swap[i], swap[j] = m[j], m[i]
                maps.append((alg, tuple(swap)))
        maps += [(alg, tuple(rng.sample(range(alg.size), alg.size)))
                 for _ in range(30)]
    verdicts = [is_isomorphism(a, a, m) for a, m in maps]
    assert verdicts == [check_hom(CubicHom(a, a, m)).passed for a, m in maps]
    assert len(maps) == 400 and 76 < sum(verdicts) < 400


def _with(struct, order=None, partials=None, consts=None):
    """``struct`` with some tables replaced."""
    order = order or struct.order
    up = tuple(sum(v << y for y, v in enumerate(row)) for row in order)
    return _Struct(struct.n, order, up, struct.down, struct.totals,
                   partials or struct.partials, consts or struct.consts)


@pytest.mark.parametrize("alg", [c2(), c3(), n5()], ids=["C2", "C3", "N5"])
def test_row_verifier_rejects_a_change_of_order_alone(alg):
    struct = _struct(alg)
    order = [list(row) for row in alg.leq_table]
    x, y = next((x, y) for x in range(alg.size) for y in range(alg.size)
                if not order[x][y])
    order[x][y] = 1
    wider = _with(struct, order=tuple(map(tuple, order)))
    ident = tuple(range(alg.size))
    assert not _both(struct, wider, ident)
    assert not _both(wider, struct, ident)


@pytest.mark.parametrize("alg", [c2(), c3(), n5()], ids=["C2", "C3", "N5"])
def test_row_verifier_rejects_a_change_of_delta_domain_alone(alg):
    struct = _struct(alg)
    ident = tuple(range(alg.size))
    delta = [list(row) for row in alg.delta_table]
    x, y = next((x, y) for x in range(alg.size) for y in range(alg.size)
                if delta[x][y] == UNDEFINED)
    delta[x][y] = y
    wider = _with(struct, partials=(tuple(map(tuple, delta)),))
    assert not _both(struct, wider, ident)
    assert not _both(wider, struct, ident)


@pytest.mark.parametrize("alg", [c2(), c3(), n5()], ids=["C2", "C3", "N5"])
def test_row_verifier_rejects_moving_only_the_top(alg):
    struct = _struct(alg)
    m = list(range(alg.size))
    m[alg.one] = 0 if alg.one else 1
    assert not _both(struct, struct, tuple(m))
    other = _with(struct, consts=(m[alg.one],))
    assert not _both(struct, other, tuple(range(alg.size)))


def test_row_verifier_on_one_element():
    struct = _struct(ONE)
    assert _both(struct, struct, (0,))
    assert is_automorphism(ONE, (0,))
    assert not _both(struct, _with(struct, partials=(((UNDEFINED,),),)), (0,))


# -- the row propagation -------------------------------------------------------------

def differential(src, dst, seed, trials=40, pins=4):
    """Seeded random pin sequences through :meth:`_Partial.assign` and
    the reference: the verdicts must agree, and on acceptance the maps.
    A pin is the identity, an image of the same signature or any image,
    a third of the time each.  Returns the reasons the reference gave
    for its rejections."""
    rng, reasons = random.Random(seed), set()
    for _ in range(trials):
        part, ref = _Partial(src, dst), ReferencePartial(src, dst)
        for _ in range(pins):
            x, kind = rng.randrange(src.n), rng.randrange(3)
            same = dst.classes.get(src.sigs[x], [])
            v = (x if kind == 0 else rng.choice(same) if kind == 1 and same
                 else rng.randrange(dst.n))
            depth = len(ref.assigned)
            reason = ref.assign(x, v)
            assert part.assign(x, v) == (reason is None), (x, v, reason)
            if reason is not None:
                reasons.add(reason)
                part.undo(depth)
                ref.undo(depth)
            assert part.mapping == ref.mapping
            assert part.used == ref.used
            assert sorted(part.assigned) == sorted(ref.assigned)
            assert [part.mapping[a] for a in part.assigned] == part.images
    return reasons


@pytest.mark.parametrize("kind", ["cubic", "impl"])
@pytest.mark.parametrize("name,alg", CHAINS, ids=[name for name, _ in CHAINS])
def test_row_propagation_matches_the_reference(name, alg, kind):
    struct = _struct(alg if kind == "cubic" else quotient_C(alg).algebra)
    differential(struct, struct, seed=len(name) + alg.size)


def test_row_propagation_matches_the_reference_on_every_rejection(C2):
    # a wider order, a wider reflection domain and a chain of the same
    # size, each both ways, reach the rejections an automorphism cannot
    struct = _struct(C2)
    order = [list(row) for row in C2.leq_table]
    x, y = next((x, y) for x in range(C2.size) for y in range(C2.size)
                if not order[x][y])
    order[x][y] = 1
    delta = [list(row) for row in C2.delta_table]
    x, y = next((x, y) for x in range(C2.size) for y in range(C2.size)
                if delta[x][y] == UNDEFINED)
    delta[x][y] = y
    chain = _struct(chain_algebra(C2.size))
    reasons = set()
    for other in (_with(struct, order=tuple(map(tuple, order))),
                  _with(struct, partials=(tuple(map(tuple, delta)),)),
                  chain, struct):
        reasons |= differential(struct, other, seed=5)
        reasons |= differential(other, struct, seed=6)
    assert reasons == {"image", "used", "signature", "order", "domain"}


@pytest.mark.parametrize("alg", [c2(), c3(), n5()], ids=["C2", "C3", "N5"])
def test_row_propagation_checks_the_order_both_ways(alg):
    # one order entry x <= y added, and the signatures kept, so that only
    # the order tells the structs apart: pinning x then y is refused by
    # the transposed order row alone, y then x by the order row
    struct = _struct(alg)
    order = [list(row) for row in alg.leq_table]
    x, y = next((x, y) for x in range(alg.size) for y in range(alg.size)
                if not order[x][y] and not order[y][x])
    order[x][y] = 1
    wider = _with(struct, order=tuple(map(tuple, order)))
    wider.sigs = struct.sigs
    for src, dst in ((struct, wider), (wider, struct)):
        for pins in (((x, x), (y, y)), ((y, y), (x, x))):
            part, ref = _Partial(src, dst), ReferencePartial(src, dst)
            verdicts = [(part.assign(*pin), ref.assign(*pin)) for pin in pins]
            assert verdicts == [(True, None), (False, "order")]


# -- edge cases ----------------------------------------------------------------------

def test_signature_mismatch_returns_before_any_search(C2, monkeypatch):
    # a nine-element chain: same size as C2, but one minimal element
    chain = chain_algebra(C2.size)

    def no_search(*args):
        raise AssertionError("search started")

    monkeypatch.setattr(automorphisms, "_Partial", no_search)
    assert _search(_struct(C2), _struct(chain)) is None
    assert find_isomorphism(C2, chain) is None
