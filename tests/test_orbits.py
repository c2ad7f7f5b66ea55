"""Symmetry reduction: lem:kl, lem:intComp and the interval claims scan
one point, lem:gen one filter, thm:incl and cor:restrict one
upward-closed subalgebra, and the seven generating-filter claims one
coordinate generating filter per automorphism orbit.

The helper's representatives are checked against orbits read off every
element of the group, and are computed once per family and algebra.
Each reduced claim is checked against its full loop, kept here as the
reference, on the corpus and on C4 relabelled, and under a defect that
the group keeps, which the reduced scan must still catch with the full
loop's witness (or, for an error no claim catches, the full loop's
error).  A seeded relabelling must not change a verdict, a group order
or a filter count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrkit.claims
from mrkit.automorphisms import (
    coordinate_gfilters,
    enumerate_aut,
    inner_group,
    orbit_representatives,
)
from mrkit.claims import CLAIMS, VerifyContext, run_claims
from mrkit.constructions import build_I
from mrkit.corpus import b4, c1, c2, c3, fa1, fa2, n5
from mrkit.cubic import _bits, is_mr
from mrkit.errors import InvalidAlgebra, MrkitError
from mrkit.filters import Filter, all_filters
from mrkit.functors import (
    _sub_classes,
    functor_C_hom,
    inclusion_collapse,
    quotient_C,
    upward_closed_subalgebras,
)

from conftest import fresh, relabel, relabelling
from test_claims import interval_agreement_reference

C4 = build_I(b4())
ALGEBRAS = {"C1": c1(), "C2": c2(), "C3": c3(), "FA1": fa1(), "FA2": fa2(),
            "N5": n5(), "C4": C4, "C4~5": relabel(C4, 5),
            "C4~11": relabel(C4, 11)}


def points(alg):
    return tuple(1 << a for a in alg.elements())


def filter_masks(alg):
    return tuple(f.mask for f in all_filters(alg))


def memo_entries(alg):
    """The masks tuples whose orbits are memoised on ``alg``."""
    slot = "_memo.mrkit.automorphisms.orbit_representatives"
    return [args[0] for _, args, _ in alg.__dict__.get(slot, {})]


def image(g, mask):
    return sum(1 << g[x] for x in _bits(mask))


def least_of_each_orbit(alg, masks):
    """The member of each orbit that comes first in ``masks``, the orbit
    read off every element of the group rather than its generators."""
    position = {m: i for i, m in enumerate(masks)}
    group = [phi.map for phi in enumerate_aut(alg)]
    least, seen = [], set()
    for m in masks:
        if m not in seen:
            orbit = {image(g, m) for g in group}
            seen |= orbit
            least.append(min(orbit, key=position.__getitem__))
    return tuple(sorted(least, key=position.__getitem__))


def middle_orbits(alg, masks):
    """Every member of the orbits of the two middle representatives: a
    defect there fails two orbits, so a scan out of order names the
    wrong one."""
    reps = least_of_each_orbit(alg, masks)
    group = [phi.map for phi in enumerate_aut(alg)]
    return {image(g, m) for m in reps[len(reps) // 2 - 1:][:2] for g in group}


def first_orbits(alg, masks):
    """Every member of the orbits of the first two representatives: on
    the algebras here the three least of them lie in both orbits."""
    reps = least_of_each_orbit(alg, masks)
    group = [phi.map for phi in enumerate_aut(alg)]
    return {image(g, m) for m in reps[:2] for g in group}


# -- the helper -------------------------------------------------------------------

@pytest.mark.parametrize("name", ["C3", "C4", "C4~5"])
@pytest.mark.parametrize("family", [points, filter_masks],
                         ids=["points", "filters"])
def test_representatives_are_the_least_of_each_orbit(name, family):
    alg = ALGEBRAS[name]
    masks = family(alg)
    assert orbit_representatives(alg, masks) == \
        least_of_each_orbit(alg, masks)


@pytest.mark.parametrize("name,family,count", [
    ("C2", points, 3), ("C3", points, 4), ("C4", points, 5),
    ("C3", filter_masks, 10), ("N5", filter_masks, 6),
    ("C4", filter_masks, 15)])
def test_orbit_counts(name, family, count):
    alg = ALGEBRAS[name]
    assert len(orbit_representatives(alg, family(alg))) == count


@pytest.mark.parametrize("family", [points, filter_masks],
                         ids=["points", "filters"])
def test_a_family_the_group_does_not_keep_is_refused(family):
    # dropping the last member of an orbit of more than one leaves a
    # member whose image is missing; the refusal leaves no memo entry, so
    # asking again refuses again
    alg = fresh(ALGEBRAS["C3"])  # no memo entries of its own
    masks = family(alg)
    last = next(m for m in reversed(masks)
                if len({image(phi.map, m) for phi in enumerate_aut(alg)}) > 1)
    kept = tuple(m for m in masks if m != last)
    for _ in range(2):
        with pytest.raises(InvalidAlgebra, match="outside the family"):
            orbit_representatives(alg, kept)
    assert not memo_entries(alg)


def test_each_familys_orbits_are_computed_once_per_algebra():
    # the reduced claims share four families on C4; each partition is
    # computed on its first scan and read back from the memo after
    alg = fresh(C4)  # no memo entries of its own
    ids = ["lem:kl", "lem:intComp", "eq:oneAA", "eq:twoAA", "lem:gen",
           "thm:incl", "cor:restrict"] + GFILTER_CLAIMS
    before = orbit_representatives.cache_info()
    results = run_claims(VerifyContext(algebras=(("C4", alg),)), ids)
    assert {r.status for r in results} == {"pass"}
    after = orbit_representatives.cache_info()
    families = {points(alg), filter_masks(alg),
                tuple(f.mask for f in coordinate_gfilters(alg)),
                tuple(upward_closed_subalgebras(alg))}
    assert set(memo_entries(alg)) == families
    # 13 scans: lem:kl, lem:intComp and eq:oneAA (eq:twoAA reads its
    # memo) on the points, lem:gen on the filters, thm:incl and
    # cor:restrict on the subalgebras, and the seven on the generating
    # filters
    assert (after.misses - before.misses, after.hits - before.hits) == (4, 9)


# -- the full loops, as references --------------------------------------------------

def kl_reference(alg):
    """lem:kl over every point: the first point whose localization raises,
    with the message."""
    for a in alg.elements():
        try:
            mrkit.claims.localize(alg, a)
        except MrkitError as exc:
            return False, (a, str(exc))
    return True, None


def gen_reference(alg):
    """lem:gen over every filter: the first whose generated set differs
    from its closure under join and reflection."""
    bad = [sorted(f.members) for f in all_filters(alg)
           if mrkit.claims.generated_subalgebra(f)
           != mrkit.claims.subalgebra_closure(alg, f.members)]
    return not bad, bad[:1] or None


def interval_reference(alg):
    want = interval_agreement_reference(alg, 1)
    return want is None, want


def int_comp_reference(alg):
    """lem:intComp over every point: the first three (a, g, z) whose
    recovery joins do not meet at z."""
    meet = alg._meet_table
    bad = [(a, g, z) for a in alg.elements()
           for g, members, z1s, z2s in mrkit.claims._recovery_joins(alg, a)
           for z, z1, z2 in zip(members, z1s, z2s) if meet[z1][z2] != z]
    return not bad, bad[:3] or None


def incl_reference(alg):
    """thm:incl over every upward-closed subalgebra: the first whose
    classes are not traces of the ambient ones, with its violations."""
    subs = upward_closed_subalgebras(alg)
    bad = [(list(_bits(m)), list(rep.violations)) for m in subs
           if not (rep := inclusion_collapse(alg, _bits(m))).passed]
    return not bad, bad[:1] or {"subalgebras": len(subs)}


def restrict_reference(alg):
    """cor:restrict over every upward-closed subalgebra: each automorphism
    collapsed, then the first subalgebra with a class that meets two
    ambient classes, the first automorphism and the least stray member."""
    eta = quotient_C(alg).eta
    auts = enumerate_aut(alg)
    for phi in auts:
        functor_C_hom(phi)
    bad = []
    for mask in upward_closed_subalgebras(alg):
        stray = [x for c in _sub_classes(alg, mask) for x in _bits(c)
                 if eta[x] != eta[next(_bits(c))]]
        if stray:
            bad.append((list(_bits(mask)), auts[0].map, min(stray)))
    return not bad, bad[:1] or None


def verdict(bad, k):
    return not bad, bad[:k] or None


def lots_reference(alg):
    """thm:lots over every pair of coordinate generating filters (f, h)
    and every Boolean subfilter g of f: the first three faults."""
    c = mrkit.claims
    bad = []
    gfs = coordinate_gfilters(alg)
    for f in gfs:
        for h in gfs:
            g = c.filter_intersect(f, h)
            if not c.is_F_boolean(g, f):
                bad.append(("boolean", sorted(f.members), sorted(h.members)))
                continue
            if c.delta_filter(g, f).mask != h.mask:
                bad.append(("recover-h", sorted(f.members), sorted(h.members)))
        for g in c.boolean_subfilters(f):
            h = c.delta_filter(g, f)
            if not c.is_gfilter(h):
                bad.append(("gfilter", sorted(g.members), sorted(f.members)))
            elif f.mask & h.mask != g.mask:
                bad.append(("recover-g", sorted(g.members), sorted(f.members)))
    return verdict(bad, 3)


def boolean_reference(alg):
    """thm:Boolean over every f, Boolean subfilter g of f and h >= g."""
    gfs = coordinate_gfilters(alg)
    return verdict([(sorted(g.members), sorted(f.members), sorted(h.members))
                    for f in gfs for g in mrkit.claims.boolean_subfilters(f)
                    for h in gfs if not g.mask & ~h.mask
                    and not mrkit.claims.is_F_boolean(g, h)], 1)


def local_boolean_full_loop(alg):
    """lem:localBoolean over every f, Boolean subfilter g and subfilter h
    of f."""
    c, bad = mrkit.claims, []
    for f in coordinate_gfilters(alg):
        subs = [h for h in all_filters(alg) if not h.mask & ~f.mask]
        bad += [(sorted(g.members), sorted(h.members))
                for g in c.boolean_subfilters(f) for h in subs
                if not c.is_F_boolean(c.filter_intersect(g, h), h)]
    return verdict(bad, 1)


def local_princ_reference(alg):
    """lem:localPrincBool over every f, Boolean subfilter g and point of f."""
    bad = []
    for f in coordinate_gfilters(alg):
        for g in mrkit.claims.boolean_subfilters(f):
            for point in f.members:
                piece = g.mask & alg._up[point]
                if not piece:
                    bad.append((sorted(g.members), point, "empty"))
                elif all(piece & ~alg._up[m] for m in _bits(piece)):
                    bad.append((sorted(g.members), point, "no-minimum"))
    return verdict(bad, 1)


def fixed_reference(alg):
    """lem:fixed over every pair of coordinate generating filters."""
    c, gfs = mrkit.claims, coordinate_gfilters(alg)
    return verdict([(sorted(f.members), sorted(g.members))
                    for f in gfs for g in gfs
                    if c.fixed_set(c.filter_automorphism(f, g))
                    != c.generated_subalgebra(c.filter_intersect(f, g))], 1)


def delta_fixed_reference(alg):
    """lem:DeltaFixed over every pair of coordinate generating filters."""
    c, one, bad = mrkit.claims, alg.one, []
    gfs = coordinate_gfilters(alg)
    for f in gfs:
        for g in gfs:
            phi = c.filter_automorphism(f, g)
            comp = c.impl_elem(c.filter_intersect(f, g), f)
            mirror = {alg.delta(one, x) for x in g.members} & f.members
            if mirror != comp.members:
                bad.append(("mirror-identity", sorted(f.members),
                            sorted(g.members)))
                continue
            anti = frozenset(x for x in alg.elements()
                             if phi.map[x] == alg.delta(one, x))
            if anti != c.generated_subalgebra(comp):
                bad.append(("antifixed", sorted(f.members), sorted(g.members)))
    return verdict(bad, 1)


def phi_e_reference(alg):
    """lem:phiE over every coordinate generating filter: the first whose
    presentation raises, with the message."""
    for f in coordinate_gfilters(alg):
        try:
            mrkit.claims.f_presentation(f)
        except MrkitError as exc:
            return False, [(sorted(f.members), str(exc))]
    return True, None


REFERENCES = {"lem:kl": kl_reference, "lem:gen": gen_reference,
              "eq:oneAA": interval_reference, "eq:twoAA": interval_reference,
              "lem:intComp": int_comp_reference, "thm:incl": incl_reference,
              "cor:restrict": restrict_reference, "thm:lots": lots_reference,
              "thm:Boolean": boolean_reference,
              "lem:localBoolean": local_boolean_full_loop,
              "lem:localPrincBool": local_princ_reference,
              "lem:fixed": fixed_reference,
              "lem:DeltaFixed": delta_fixed_reference,
              "lem:phiE": phi_e_reference}
GFILTER_CLAIMS = ["thm:lots", "thm:Boolean", "lem:localBoolean",
                  "lem:localPrincBool", "lem:fixed", "lem:DeltaFixed",
                  "lem:phiE"]


def full_loop(cid, alg):
    """The reference's verdict, or the error result of the first package
    error it raises, as run_claims reports one."""
    try:
        return REFERENCES[cid](alg)
    except MrkitError as exc:
        return False, str(exc)


def claimed(alg, cid):
    [result] = run_claims(VerifyContext(algebras=(("A", alg),)), [cid])
    return result.status == "pass", result.witness


@pytest.mark.parametrize("cid,name", [
    (cid, name) for cid in ["lem:kl", "lem:gen", "eq:oneAA", "lem:intComp",
                            "thm:incl", "cor:restrict"] + GFILTER_CLAIMS
    for name, alg in ALGEBRAS.items()
    if is_mr(alg) or not CLAIMS[cid].requires_mr])
def test_a_reduced_claim_matches_its_full_loop(cid, name):
    alg = ALGEBRAS[name]
    want = REFERENCES[cid](alg)
    assert want[0] is True
    assert claimed(alg, cid) == want


# -- defects the group keeps ---------------------------------------------------------

def broken_localization(monkeypatch, alg):
    """localize raises at every point of two orbits."""
    bad, real = middle_orbits(alg, points(alg)), mrkit.claims.localize

    def localize(algebra, a):
        if 1 << a in bad:
            raise InvalidAlgebra(f"coordinate maps collide at {a}")
        return real(algebra, a)

    monkeypatch.setattr(mrkit.claims, "localize", localize)


def short_closure(monkeypatch, alg):
    """The closure of every filter in two orbits loses its top."""
    bad = middle_orbits(alg, filter_masks(alg))
    real = mrkit.claims.subalgebra_closure

    def closure(algebra, seed):
        members = real(algebra, seed)
        if sum(1 << x for x in seed) in bad:
            return members - {algebra.one}
        return members

    monkeypatch.setattr(mrkit.claims, "subalgebra_closure", closure)


def mirrored_extension(monkeypatch, alg):
    """Every translation from a point in two orbits mirrors its
    extension; the mirror commutes with automorphisms."""
    bad, real = middle_orbits(alg, points(alg)), mrkit.claims.f_ab

    def f_ab(algebra, a, b):
        t = real(algebra, a, b)
        if 1 << a not in bad:
            return t
        one = algebra.one
        return fresh(t, extension={
            z: algebra.delta(one, v) for z, v in t.extension.items()})

    monkeypatch.setattr(mrkit.claims, "f_ab", f_ab)


def one_mirrored_entry(monkeypatch, alg):
    """At every point a of the first two orbits, the translation from a to
    itself mirrors its value at a alone: one fault per point, so the
    claims report one fault at the first failing a, not three."""
    bad, real = first_orbits(alg, points(alg)), mrkit.claims.f_ab

    def f_ab(algebra, a, b):
        t = real(algebra, a, b)
        if 1 << a not in bad or b != algebra.delta(a, a):
            return t
        mirrored = algebra.delta(algebra.one, t.extension[a])
        return fresh(t, extension={**t.extension, a: mirrored})

    monkeypatch.setattr(mrkit.claims, "f_ab", f_ab)


def wrong_recovery_join(monkeypatch, alg):
    """At every point a of the first two orbits, the recovery join of a at
    g = a is the top, so a alone fails there: one fault per point, and the
    first three span both orbits."""
    bad, real = first_orbits(alg, points(alg)), mrkit.claims._recovery_joins

    def recovery_joins(algebra, a):
        for g, members, z1s, z2s in real(algebra, a):
            if g == a and 1 << a in bad:
                z1s = [algebra.one if z == a else z1
                       for z, z1 in zip(members, z1s)]
            yield g, members, z1s, z2s

    monkeypatch.setattr(mrkit.claims, "_recovery_joins", recovery_joins)


def gfilter_size(alg):
    """The size of every coordinate generating filter, which the group
    keeps: a defect at that size is in every orbit that has the size."""
    return len(coordinate_gfilters(alg)[0].members)


def refused_boolean(monkeypatch, alg):
    """No filter as large as a coordinate generating filter is Boolean
    relative to one.  thm:lots then fails once per f, at (f, f), so its
    first three faults span three generating filters of one orbit."""
    size, real = gfilter_size(alg), mrkit.claims.is_F_boolean
    monkeypatch.setattr(mrkit.claims, "is_F_boolean", lambda g, f: len(
        g.members) != size and real(g, f))


def short_generated_set(monkeypatch, alg):
    """The generated set of every filter as large as a coordinate
    generating filter loses the top."""
    size, real = gfilter_size(alg), mrkit.claims.generated_subalgebra
    monkeypatch.setattr(mrkit.claims, "generated_subalgebra", lambda filt: (
        real(filt) - {alg.one} if len(filt.members) == size else real(filt)))


def topless_boolean_subfilters(monkeypatch, alg):
    """Each generating filter, among its Boolean subfilters, hands itself
    back without the top, so its piece above the top is empty."""
    size, real = gfilter_size(alg), mrkit.claims.boolean_subfilters
    monkeypatch.setattr(mrkit.claims, "boolean_subfilters", lambda f: tuple(
        Filter(g.carrier, g.mask & ~(1 << alg.one))
        if len(g.members) == size else g for g in real(f)))


def refused_presentation(monkeypatch, alg):
    """Every generating filter's presentation raises, naming the filter."""
    def f_presentation(filt):
        raise InvalidAlgebra(f"no presentation of {sorted(filt.members)}")

    monkeypatch.setattr(mrkit.claims, "f_presentation", f_presentation)


def refused_diagonal(monkeypatch, alg):
    """The filter automorphism from each generating filter to itself
    raises, naming the filter: an error no claim catches, so the first f
    in family order names the error result."""
    real = mrkit.claims.filter_automorphism

    def filter_automorphism(f, g):
        if f.mask == g.mask:
            raise InvalidAlgebra(f"no automorphism fixes {sorted(f.members)}")
        return real(f, g)

    monkeypatch.setattr(mrkit.claims, "filter_automorphism",
                        filter_automorphism)


@pytest.mark.parametrize("name", ["C3", "C4", "C4~11"])
@pytest.mark.parametrize("cid,defect", [
    ("lem:kl", broken_localization), ("lem:gen", short_closure),
    ("eq:oneAA", mirrored_extension), ("eq:twoAA", mirrored_extension),
    ("eq:oneAA", one_mirrored_entry), ("eq:twoAA", one_mirrored_entry),
    ("lem:intComp", wrong_recovery_join),
    ("thm:lots", refused_boolean), ("thm:Boolean", refused_boolean),
    ("lem:localBoolean", refused_boolean),
    ("lem:fixed", short_generated_set),
    ("lem:DeltaFixed", short_generated_set),
    ("lem:localPrincBool", topless_boolean_subfilters),
    ("lem:phiE", refused_presentation),
    ("lem:fixed", refused_diagonal), ("lem:DeltaFixed", refused_diagonal)],
    ids=["kl", "gen", "oneAA", "twoAA", "oneAA-sparse", "twoAA-sparse",
         "intComp", "lots", "Boolean", "localBoolean", "fixed", "DeltaFixed",
         "localPrincBool", "phiE", "fixed-error", "DeltaFixed-error"])
def test_a_reduced_claim_fails_with_the_full_loops_witness(
        monkeypatch, cid, defect, name):
    alg = fresh(ALGEBRAS[name])  # no memo entries of its own
    defect(monkeypatch, alg)
    want = full_loop(cid, alg)
    assert want[0] is False
    assert claimed(alg, cid) == want


# -- the relabelling guard -------------------------------------------------------------

EACH = [cid for cid, spec in CLAIMS.items() if spec.scope == "each"]


def strict_reading_counterexamples(alg):
    """Every x that remark:mirror-join's witness draws its least three from."""
    one, found = alg.one, set()
    for phi in inner_group(alg):
        fixed = mrkit.claims.fixed_set(phi)
        found |= {x for x in alg.elements() if not phi.is_identity()
                  and alg.join(x, alg.delta(one, phi.map[x])) in fixed
                  and x != one}
    return found


def transported(alg, perm, result):
    """The witness ``result`` would carry on the relabelled copy.  Only
    remark:mirror-join names elements in a pass witness: the least three
    of a set, which the relabelling maps as a set."""
    if result.claim_id == "remark:mirror-join" and result.witness:
        moved = sorted(perm[x] for x in strict_reading_counterexamples(alg))
        return {"strict-reading-counterexamples": moved[:3]}
    return result.witness


def assert_relabelling_keeps(alg, seed, ids):
    copy = relabel(alg, seed)
    perm = relabelling(alg.size, seed)
    ctx = VerifyContext(algebras=(("A", alg),))
    before = run_claims(ctx, ids)
    after = run_claims(fresh(ctx, algebras=(("A", copy),)), ids)
    assert [(r.claim_id, r.status) for r in after] == \
        [(r.claim_id, r.status) for r in before]
    assert [r.witness for r in after] == \
        [transported(alg, perm, r) for r in before]
    for count in (enumerate_aut, inner_group, all_filters):
        assert len(count(copy)) == len(count(alg)), count.__name__
    for family in (points, filter_masks):
        assert len(orbit_representatives(copy, family(copy))) == \
            len(orbit_representatives(alg, family(alg)))


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_relabelling_c3_keeps_every_each_verdict(seed):
    assert_relabelling_keeps(ALGEBRAS["C3"], seed, EACH)


@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_relabelling_c4_keeps_the_reduced_verdicts(seed):
    assert_relabelling_keeps(C4, seed,
                             ["lem:kl", "lem:gen", "eq:oneAA", "eq:twoAA",
                              "lem:intComp", "thm:incl", "cor:restrict"]
                             + GFILTER_CLAIMS)
