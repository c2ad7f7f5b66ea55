"""The per-claim verification harness.

Every registered claim re-checks one stated result on finite instances,
exhaustively up to automorphism where it quantifies over elements or filters.
Claims either apply to each algebra in the context ("each") or to the
fixed corpus and builders ("global").  A body returns verdicts and never
builds a result: an "each" body is ``(ctx, alg) -> (passed, witness)``
for one algebra, and a "global" body is ``ctx -> iterable of (instance,
passed, witness)`` that names its own instances.  ``passed`` is None for
a skip.  The run that :func:`claim` registers is the one place a verdict
becomes a :class:`ClaimResult`; for "each" it walks ``ctx.algebras`` in
order.  Results are deterministic given (input, seed): all iteration is
over sorted structures and randomness comes only from the seeded corpus
generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

from . import config
from .automorphisms import (
    Xi,
    coordinate_gfilters,
    d_set,
    decompose,
    enumerate_aut,
    f_ab,
    f_presentation,
    factor_automorphism,
    filter_automorphism,
    find_isomorphism,
    fixed_set,
    inner_group,
    is_inner,
    is_isomorphism,
    localize_closure,
    omega,
    orbit_representatives,
    phi_from_boolean_filter,
    recover,
)
from .constructions import (
    boolean_algebra,
    build_I,
    embed_e_index,
    face_interval_isomorphism,
    face_poset,
    gfilter_from_presentation,
    implication_subalgebra,
    pair_carrier,
    pair_index,
    presentation_check,
)
from .corpus import b2, b3, fa1, fa2, i3, seeded_implication_algebras
from .cubic import (
    CubicAlgebra,
    Subalgebra,
    _bits,
    _cubic_report,
    _Record,
    caret_total,
    check_cubic_axioms,
    check_mr_axiom,
    is_cubic,
    is_mr,
    is_upward_closed,
    localize,
    replay_witness,
)
from .errors import MrkitError
from .filters import (
    all_filters,
    boolean_subfilters,
    delta_filter,
    filter_intersect,
    generated_subalgebra,
    impl_elem,
    impl_join,
    impl_sup,
    improper_filter,
    is_F_boolean,
    is_gfilter,
    subalgebra_closure,
)
from .functors import (
    ImplicationHom,
    _sub_classes,
    check_hom,
    functor_C_hom,
    functor_I_hom,
    inclusion_collapse,
    iota,
    kappa,
    quotient_C,
    upward_closed_subalgebras,
)


class ClaimResult(_Record):
    claim_id: str
    instance: str
    status: str  # "pass" | "fail" | "skip"
    witness: object = None

    def as_dict(self) -> dict:
        out = {"claim_id": self.claim_id, "instance": self.instance,
               "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class VerifyContext(_Record):
    """Instances and knobs a verification run works with."""

    algebras: tuple[tuple[str, CubicAlgebra], ...]
    seed: int = 42
    witness_policy: str = "first"


# the one record that stays a dataclass: the benchmark's tracer rebinds
# each claim's run with dataclasses.replace
@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    scope: str  # "each" | "global"
    run: Callable[[VerifyContext], Iterable[ClaimResult]]
    # run sees only the MR instances; the others skip with "not MR"
    requires_mr: bool = False


CLAIMS: dict[str, Claim] = {}


def claim(claim_id: str, description: str, scope: str = "each", *,
          requires_mr: bool = False):
    """Register the body as ``claim_id``; run binds the id, so it is
    written once.  This is the only loop over the instances of an "each"
    claim, and the one place a verdict (instance, passed, witness) becomes
    a result: pass, fail, or skip when passed is None."""
    def register(fn):
        def run(ctx):
            verdicts = fn(ctx) if scope == "global" else (
                (name, *fn(ctx, alg)) for name, alg in ctx.algebras)
            for name, passed, witness in verdicts:
                status = ("skip" if passed is None
                          else "pass" if passed else "fail")
                yield ClaimResult(claim_id, name, status, witness)
        CLAIMS[claim_id] = Claim(claim_id, description, scope, run,
                                 requires_mr)
        return fn
    return register


def _verdict(bad, k, witness=None):
    """Pass with ``witness``, or fail with the first k faults of ``bad``."""
    return not bad, bad[:k] or witness


def _errors(fn, *args):
    """The message of the package error ``fn(*args)`` raises, as a list."""
    try:
        fn(*args)
    except MrkitError as exc:
        return [str(exc)]
    return []


def _guard(fn):
    """Run a self-verifying construction; any package error is a failure."""
    bad = _errors(fn)
    return not bad, bad[0] if bad else None


def _orbit_scan(alg, family, faults):
    """The faults of every member of ``family``, in its order, or none
    when the first member of each automorphism orbit has none.

    ``family`` maps element masks that the group permutes to the members
    ``faults`` reads.  An automorphism carries the tables onto themselves,
    so whatever ``faults`` reads off them at a member it reads at the
    member's image: a member fails iff its orbit's first member does
    (Emerson and Sistla; Ip and Dill, FMSD 9, 1996).  A pass thus reads one
    member per orbit, and a fail is the full loop's.
    """
    if any(faults(family[m])
           for m in orbit_representatives(alg, tuple(family))):
        return [fault for member in family.values() for fault in faults(member)]
    return []


def _points(alg):
    """Each point, keyed by its one-element mask."""
    return {1 << a: a for a in alg.elements()}


def _gfilters(alg):
    """Each coordinate generating filter, keyed by its mask."""
    return {f.mask: f for f in coordinate_gfilters(alg)}


# -- axioms -----------------------------------------------------------------

@claim("axioms:cubic", "the cubic axioms hold on the instance")
def _axioms_cubic(ctx, alg):
    # the memoised first-witness report, which the gates of the other
    # claims read too; only a failure under "all" is checked again
    rep = _cubic_report(alg)
    if not rep.passed and ctx.witness_policy == "all":
        rep = check_cubic_axioms(alg, "all")
    return rep.passed, None if rep.passed else list(rep.violations)


@claim("axioms:mr", "the meet-existence check is consistent and replayable")
def _axioms_mr(ctx, alg):
    rep = check_mr_axiom(alg, "all")
    bad = [v for v in rep.violations if not replay_witness(alg, *v)]
    return (False, bad) if bad else (True, {"mr": rep.passed})


@claim("lem:caretTotal", "the signed meet is total exactly on MR instances")
def _caret_total(ctx, alg):
    return caret_total(alg) == is_mr(alg), None


@claim("mr:complement-meets",
       "in an MR instance complementary pairs meet after mirroring",
       requires_mr=True)
def _complement_meets(ctx, alg):
    one = alg.one
    return _verdict([(x, y) for x in alg.elements() for y in alg.elements()
                     if alg.join(x, y) == one
                     and alg.meet(x, alg.delta(one, y)) is None], 3)


# -- order-level facts --------------------------------------------------------

@claim("prop:triv", "reflection-below plus an existing meet forces order")
def _prop_triv(ctx, alg):
    return _verdict([(p, q) for p in alg.elements() for q in alg.elements()
                     if alg.preceq(p, q) and alg.meet(p, q) is not None
                     and not alg.leq(p, q)], 3)


@claim("cor:triv", "equivalence plus an existing meet forces equality")
def _cor_triv(ctx, alg):
    return _verdict([(p, q) for p in alg.elements() for q in alg.elements()
                     if alg.sim(p, q) and alg.meet(p, q) is not None
                     and p != q], 3)


@claim("lem:preceq-char",
       "reflection-below matches the two-join meet characterization")
def _preceq_char(ctx, alg):
    one = alg.one
    # a meet that does not exist (None) is never b
    return _verdict([(a, b) for a in alg.elements() for b in alg.elements()
                     if alg.preceq(a, b) != (b == alg.meet(
                         alg.join(b, a), alg.join(b, alg.delta(one, a))))], 3)


@claim("lem:sim-congruence",
       "equivalence respects the signed operations classwise")
def _sim_congruence(ctx, alg):
    """``quotient_C`` returns only when ~ partitions the carrier, so u ~ v
    iff eta[u] == eta[v], and its class join of (c, d) is the class of
    star at their first members.  So star(x, y) ~ star(x2, y2) for all
    x ~ x2, y ~ y2 iff eta[star(x, y)] is the class join of (eta[x],
    eta[y]) for all x, y: take x2, y2 the first members.  It also raises
    unless each defined caret(x, y) lies in the class meet, which is the
    caret law and the read here.  A failure is (op, x, y).
    """
    q = quotient_C(alg)
    eta, join, meet = q.eta, q.algebra.join_table, q.algebra._meet_table
    every = alg.elements()
    bad = [("sym", x, y) for x in every for y in every
           if alg.sim(x, y) != alg.sim(y, x)]
    for x in every:
        for y in every:
            c = alg.caret(x, y)
            if c is not None and eta[c] != meet[eta[x]][eta[y]]:
                bad.append(("caret", x, y))
            if eta[alg.star(x, y)] != join[eta[x]][eta[y]]:
                bad.append(("star", x, y))
    return _verdict(bad, 3)


# -- localization --------------------------------------------------------------

@claim("lem:kl", "localizations carry valid interval coordinates everywhere")
def _lem_kl(ctx, alg):
    def faults(a):
        return [(a, message) for message in _errors(localize, alg, a)]
    bad = _orbit_scan(alg, _points(alg), faults)
    return not bad, bad[0] if bad else None


def _recovery_joins(alg, a):
    """For each g >= a in ascending order: g, the members z of the
    localization at a, and the recovery joins z1 = z v delta(g v z, g) and
    z2 = z v delta(h v z, h), h = g -> a, one per member, read from rows.
    """
    jt, dt = alg.join_table, alg._delta_transpose
    members = localize(alg, a).members
    for g in _bits(alg._up[a]):
        h = alg.implies(g, a)
        yield (g, members, [jt[z][dt[g][jt[g][z]]] for z in members],
               [jt[z][dt[h][jt[h][z]]] for z in members])


@claim("lem:intComp",
       "the two-sided reflection decomposition recovers every element",
       requires_mr=True)
def _int_comp(ctx, alg):
    meet = alg._meet_table

    def faults(a):
        return [(a, g, z) for g, members, z1s, z2s in _recovery_joins(alg, a)
                for z, z1, z2 in zip(members, z1s, z2s) if meet[z1][z2] != z]
    return _verdict(_orbit_scan(alg, _points(alg), faults), 3)


# registered bottom-up: eq:oneAA runs first and fills the memo
@claim("eq:twoAA", "interval translations agree with recovery joins (side 2)",
       requires_mr=True)
@claim("eq:oneAA", "interval translations agree with recovery joins (side 1)",
       requires_mr=True)
def _interval_agreement(ctx, alg):
    return _verdict(_interval_faults(alg), 3)


@config.memo()
def _interval_faults(alg):
    """The (a, g, z), a <= g and z in the localization at a, where the
    extension of f_ab(a, b), b = delta(g, a), differs from phi_g(z) =
    meet(z1, delta(1, z2)), undefined included: every one at the first a
    that has any.

    Side k states ext v anchor = phi_g v anchor, with anchor b (k = 1) or
    delta(1, b) (k = 2), once ext = phi_g.  A z with ext = phi_g satisfies
    that for any anchor, and one with ext != phi_g is a fault before the
    anchor is read, so both sides have this fault list and eq:oneAA and
    eq:twoAA coincide on every instance; the memo lets them share it.
    """
    meet, mirror = alg._meet_table, alg.delta_table[alg.one]

    def faults(a):
        bad = []
        for g, members, z1s, z2s in _recovery_joins(alg, a):
            ext = f_ab(alg, a, alg.delta(g, a)).extension
            bad += [(a, g, z) for z, z1, z2 in zip(members, z1s, z2s)
                    if ext[z] != meet[z1][mirror[z2]]]
        return bad
    bad = _orbit_scan(alg, _points(alg), faults)
    return [fault for fault in bad if fault[0] == bad[0][0]]


# -- counting and shape ----------------------------------------------------------

@claim("count:interval", "pair algebras over powersets have size 3^n", "global")
def _count_interval(ctx):
    sizes = {n: build_I(boolean_algebra(n)).size for n in (1, 2, 3, 4)}
    yield "global", all(sizes[n] == 3 ** n for n in sizes), sizes


@claim("iso:face", "face algebras match pair algebras dimensionwise", "global")
def _iso_face(ctx):
    for n in (1, 2, 3, 4):
        faces = face_poset(n)
        interval = build_I(boolean_algebra(n))
        ok = is_isomorphism(faces, interval, face_interval_isomorphism(n))
        if ok and n <= 3:
            ok = find_isomorphism(faces, interval) is not None
        yield f"n={n}", ok, None


@claim("iso:filter-device",
       "pair algebras of principal Boolean filters embed upward-closed",
       "global")
def _filter_device(ctx):
    for atoms, inst, fa in ((2, "FA1", fa1()), (3, "FA2", fa2())):
        base = boolean_algebra(atoms)
        filt = {x for x in base.elements() if base.leq(1, x)}
        ambient = build_I(base)
        idx = pair_index(base)
        inside = sorted(idx[(p, q)] for p in filt for q in filt
                        if base.join(p, q) == base.one)
        sub = Subalgebra(ambient, inside)
        ok = (is_upward_closed(ambient, inside)
              and check_mr_axiom(sub.algebra).passed
              and check_mr_axiom(fa).passed
              and find_isomorphism(sub.algebra, fa) is not None)
        yield inst, ok, None


# -- groups ------------------------------------------------------------------------

_EXPECTED_ORDERS = {
    "C1": (2, 2), "C2": (8, 4), "C3": (48, 8), "FA1": (2, 2), "FA2": (8, 4),
}


@claim("grp:aut-order", "full automorphism group orders match 2^n n!", "global")
def _aut_orders(ctx):
    return _group_orders(ctx, enumerate_aut, 0)


@claim("grp:inn-order", "inner automorphism group orders match 2^n", "global")
def _inn_orders(ctx):
    return _group_orders(ctx, inner_group, 1)


def _group_orders(ctx, group, column):
    for name, alg in ctx.algebras:
        if name in _EXPECTED_ORDERS:
            got, want = len(group(alg)), _EXPECTED_ORDERS[name][column]
            yield name, got == want, {"got": got, "want": want}


@claim("thm:TwoTorsion", "every inner automorphism is an involution",
       requires_mr=True)
def _two_torsion(ctx, alg):
    return _verdict([phi.map for phi in inner_group(alg)
                     if not phi.compose(phi).is_identity()], 1)


@claim("grp:inn-structure", "inner automorphisms form an abelian normal subgroup",
       requires_mr=True)
def _inn_structure(ctx, alg):
    return _guard(lambda: inner_group(alg))


@claim("thm:kerFilter",
       "inner automorphisms are exactly the kernel of the collapse",
       requires_mr=True)
def _ker_filter(ctx, alg):
    kernel = {phi.map for phi in enumerate_aut(alg)
              if functor_C_hom(phi).is_identity()}
    return kernel == {phi.map for phi in inner_group(alg)}, None


# -- filter calculus ----------------------------------------------------------------

@claim("lem:gen",
       "the one-sweep generated set equals the join/reflection closure")
def _lem_gen(ctx, alg):
    def faults(filt):
        same = generated_subalgebra(filt) == subalgebra_closure(alg, filt.members)
        return [] if same else [sorted(filt.members)]
    filts = {f.mask: f for f in all_filters(alg)}
    return _verdict(_orbit_scan(alg, filts, faults), 1)


@claim("lem:twoThreeSame", "the three filter implications coincide", "global")
def _two_three_same(ctx):
    ambients = []
    for name, alg in ctx.algebras:
        if name == "C2":
            ambients.append((f"{name}-collapse", quotient_C(alg).algebra))
            ambients.append((name, alg))
    ambients += [(impl.name, impl)
                 for impl in seeded_implication_algebras(ctx.seed, 6)]
    pairs_checked = 0
    bad = []
    for label, ambient in ambients:
        filts = all_filters(ambient)
        for f in filts:
            for g in filts:
                if g.mask & ~f.mask:
                    continue
                pairs_checked += 1
                if not impl_sup(g, f) == impl_join(g, f) == impl_elem(g, f):
                    bad.append((label, sorted(g.members), sorted(f.members)))
    if pairs_checked < 100:
        bad.append(("coverage", pairs_checked))
    yield "global", *_verdict(bad, 3, {"pairs": pairs_checked})


@claim("thm:lots", "filter reflection round-trips generating filter pairs",
       requires_mr=True)
def _thm_lots(ctx, alg):
    def faults(f):
        bad = []
        for h in coordinate_gfilters(alg):
            g = filter_intersect(f, h)
            if not is_F_boolean(g, f):
                bad.append(("boolean", sorted(f.members), sorted(h.members)))
                continue
            if delta_filter(g, f).mask != h.mask:
                bad.append(("recover-h", sorted(f.members), sorted(h.members)))
        for g in boolean_subfilters(f):
            h = delta_filter(g, f)
            if not is_gfilter(h):
                bad.append(("gfilter", sorted(g.members), sorted(f.members)))
            elif f.mask & h.mask != g.mask:
                bad.append(("recover-g", sorted(g.members), sorted(f.members)))
        return bad
    return _verdict(_orbit_scan(alg, _gfilters(alg), faults), 3)


@claim("thm:Boolean", "Boolean relative to one generating filter means all",
       requires_mr=True)
def _thm_boolean(ctx, alg):
    def faults(f):
        return [(sorted(g.members), sorted(f.members), sorted(h.members))
                for g in boolean_subfilters(f) for h in coordinate_gfilters(alg)
                if not g.mask & ~h.mask and not is_F_boolean(g, h)]
    return _verdict(_orbit_scan(alg, _gfilters(alg), faults), 1)


@claim("lem:localBoolean", "Boolean subfilters trace Boolean on subfilters",
       requires_mr=True)
def _local_boolean(ctx, alg):
    def faults(f):
        subs = [h for h in all_filters(alg) if not h.mask & ~f.mask]
        return [(sorted(g.members), sorted(h.members))
                for g in boolean_subfilters(f) for h in subs
                if not is_F_boolean(filter_intersect(g, h), h)]
    return _verdict(_orbit_scan(alg, _gfilters(alg), faults), 1)


@claim("lem:localPrincBool", "Boolean subfilters cut principal pieces",
       requires_mr=True)
def _local_princ(ctx, alg):
    def faults(f):
        bad = []
        for g in boolean_subfilters(f):
            for point in f.members:
                piece = g.mask & alg._up[point]
                if not piece:
                    bad.append((sorted(g.members), point, "empty"))
                    continue
                # a minimum is a member of the piece below all of it
                if all(piece & ~alg._up[m] for m in _bits(piece)):
                    bad.append((sorted(g.members), point, "no-minimum"))
        return bad
    return _verdict(_orbit_scan(alg, _gfilters(alg), faults), 1)


# -- inner automorphism theory ---------------------------------------------------

@claim("lem:fixed", "fixed sets of filter automorphisms are generated traces",
       requires_mr=True)
def _lem_fixed(ctx, alg):
    def faults(f):
        return [(sorted(f.members), sorted(g.members))
                for g in coordinate_gfilters(alg)
                if fixed_set(filter_automorphism(f, g))
                != generated_subalgebra(filter_intersect(f, g))]
    return _verdict(_orbit_scan(alg, _gfilters(alg), faults), 1)


@claim("lem:DeltaFixed",
       "antifixed sets are generated complement traces", requires_mr=True)
def _lem_delta_fixed(ctx, alg):
    one = alg.one

    def faults(f):
        bad = []
        for g in coordinate_gfilters(alg):
            phi = filter_automorphism(f, g)
            comp = impl_elem(filter_intersect(f, g), f)
            mirror = {alg.delta(one, x) for x in g.members} & f.members
            if mirror != comp.members:
                bad.append(("mirror-identity", sorted(f.members),
                            sorted(g.members)))
                continue
            anti = frozenset(x for x in alg.elements()
                             if phi.map[x] == alg.delta(one, x))
            if anti != generated_subalgebra(comp):
                bad.append(("antifixed", sorted(f.members), sorted(g.members)))
        return bad
    return _verdict(_orbit_scan(alg, _gfilters(alg), faults), 1)


@claim("cor:intersect", "fixed and mirror sets meet only at the top",
       requires_mr=True)
def _cor_intersect(ctx, alg):
    return _verdict([phi.map for phi in inner_group(alg)
                     if fixed_set(phi) & d_set(phi) != {alg.one}], 1)


@claim("cor:metsExist", "fixed elements meet mirrored mirror-set elements",
       requires_mr=True)
def _cor_mets_exist(ctx, alg):
    one = alg.one
    bad = []
    for phi in inner_group(alg):
        mirror = d_set(phi)
        bad += [(phi.map, x, y) for x in fixed_set(phi) for y in mirror
                if alg.meet(x, alg.delta(one, y)) is None]
    return _verdict(bad, 1)


@claim("lem:repsMD", "every element splits uniquely over fixed and mirror",
       requires_mr=True)
def _reps_md(ctx, alg):
    return _verdict([(phi.map, z, message) for phi in inner_group(alg)
                     for z in alg.elements()
                     for message in _errors(decompose, phi, z)], 1)


@claim("lem:gotIt", "the split rebuilds the automorphism pointwise",
       requires_mr=True)
def _got_it(ctx, alg):
    return _verdict([(phi.map, z, message) for phi in inner_group(alg)
                     for z in alg.elements()
                     for message in _errors(recover, phi, z)], 1)


@claim("remark:mirror-join",
       "the mirror join lands in the fixed set only at the top",
       requires_mr=True)
def _mirror_join(ctx, alg):
    one = alg.one
    bad = []
    strict_reading_fails = []
    for phi in inner_group(alg):
        fixed = fixed_set(phi)
        for x in alg.elements():
            value = alg.join(x, alg.delta(one, phi.map[x]))
            if value in fixed and value != one:
                bad.append((phi.map, x))
            if not phi.is_identity() and value in fixed and x != one:
                strict_reading_fails.append(x)
    if bad:
        return False, bad[:1]
    if strict_reading_fails:
        return True, {"strict-reading-counterexamples":
                      sorted(set(strict_reading_fails))[:3]}
    return True, None


@claim("thm:MPhiIsGood", "distinct inner automorphisms have distinct fixed sets",
       requires_mr=True)
def _mphi_good(ctx, alg):
    inner = inner_group(alg)
    return len({fixed_set(phi) for phi in inner}) == len(inner), None


@claim("thm:recoveryII",
       "every Boolean filter of the collapse recovers an inner automorphism",
       requires_mr=True)
def _recovery(ctx, alg):
    bad = []
    for g in boolean_subfilters(improper_filter(quotient_C(alg).algebra)):
        try:
            phi = phi_from_boolean_filter(alg, g)
            if not phi.compose(phi).is_identity():
                bad.append((sorted(g.members), "not involution"))
        except MrkitError as exc:
            bad.append((sorted(g.members), str(exc)))
    return _verdict(bad, 1)


@claim("thm:isoGroups",
       "inner automorphisms biject with Boolean filters as a group",
       requires_mr=True)
def _iso_groups(ctx, alg):
    def run():
        omega(alg)
        mirror = build_I(quotient_C(alg).algebra)
        if len(inner_group(mirror)) != len(inner_group(alg)):
            raise MrkitError("inner group sizes differ across the mirror")
    return _guard(run)


@claim("roundtrip:omega", "recovery and the filter map invert each other",
       requires_mr=True)
def _roundtrip_omega(ctx, alg):
    bad = [sorted(filt.members) for phi, filt in omega(alg)
           if phi_from_boolean_filter(alg, filt).map != phi.map]
    q = quotient_C(alg)
    for g in boolean_subfilters(improper_filter(q.algebra)):
        phi = phi_from_boolean_filter(alg, g)
        if frozenset(q.eta[x] for x in fixed_set(phi)) != g.members:
            bad.append(sorted(g.members))
    return _verdict(bad, 1)


# -- presentations and factoring ---------------------------------------------------

@claim("lem:phiE", "filter presentations restrict to the natural embedding",
       requires_mr=True)
def _phi_e(ctx, alg):
    def faults(f):
        return [(sorted(f.members), message)
                for message in _errors(f_presentation, f)]
    return _verdict(_orbit_scan(alg, _gfilters(alg), faults), 1)


@claim("thm:factoring",
       "every automorphism factors through a filter automorphism",
       requires_mr=True)
def _factoring(ctx, alg):
    base = coordinate_gfilters(alg)[0]
    bad = []
    for phi in enumerate_aut(alg):
        try:
            image, chi = factor_automorphism(base, phi)
            if is_inner(phi) and not chi.is_identity():
                bad.append((phi.map, "inner with nontrivial base part"))
        except MrkitError as exc:
            bad.append((phi.map, str(exc)))
    return _verdict(bad, 1)


@claim("xi:group-iso", "the transport to the filter is a group isomorphism",
       requires_mr=True)
def _xi_group(ctx, alg):
    q = quotient_C(alg)
    base = coordinate_gfilters(alg)[0]
    quotient_autos = enumerate_aut(q.algebra)
    images = {alpha.map: Xi(base, alpha).map for alpha in quotient_autos}
    bad = []
    if len(set(images.values())) != len(images):
        bad.append("not injective")
    for a1 in quotient_autos:
        for a2 in quotient_autos:
            composed = tuple(a1.map[v] for v in a2.map)
            chi1, chi2 = images[a1.map], images[a2.map]
            if images[composed] != tuple(chi1[v] for v in chi2):
                bad.append(("hom", a1.map, a2.map))
    return _verdict(bad, 2)


@claim("thm:present", "descent along presentations yields generating filters",
       requires_mr=True)
def _thm_present(ctx, alg):
    minimal = alg.minimal_elements
    seqs = [(a,) for a in minimal]
    seqs += [(a, b) for a in minimal for b in minimal if a != b]
    threes = [e for e in alg.elements() if alg._down[e].bit_count() == 3]
    seqs += [(a, e) for a in minimal for e in threes]
    bad = []
    for seq in seqs:
        if not presentation_check(alg, seq):
            continue
        try:
            if not is_gfilter(gfilter_from_presentation(alg, seq)):
                bad.append(seq)
        except MrkitError as exc:
            bad.append((seq, str(exc)))
    return _verdict(bad, 2)


@claim("thm:localization",
       "seeded closures are preserved, presented, upward-closed MR",
       "global")
def _thm_localization(ctx):
    target = next((alg for name, alg in ctx.algebras if name == "C3"), None)
    if target is None:
        yield "global", None, "no C3 instance in context"
        return
    rng = random.Random(ctx.seed)
    autos = enumerate_aut(target)
    bad = []
    for i in range(10):
        xs = rng.sample(range(target.size), rng.randint(1, 2))
        gens = [autos[rng.randrange(len(autos))]
                for _ in range(rng.randint(0, 2))]
        bad += [(i, xs, message)
                for message in _errors(localize_closure, target, xs, gens)]
    yield "global", *_verdict(bad, 2, {"instances": 10})


# -- functors --------------------------------------------------------------------

@claim("thm:isoIota", "the collapse of the pair algebra is the base", "global")
def _iso_iota(ctx):
    instances = [("B2", b2()), ("B3", b3()), ("I3", i3())]
    instances += [(impl.name, impl)
                  for impl in seeded_implication_algebras(ctx.seed, 5)]
    for name, impl in instances:
        yield name, *_guard(lambda: iota(impl))


@claim("nat:e", "the base embedding commutes with lifted maps", "global")
def _nat_e(ctx):
    bad = []
    checked = 0
    for name, impl in (("B2", b2()), ("B3", b3()), ("I3", i3())):
        for alpha in enumerate_aut(impl):
            lifted = functor_I_hom(alpha)
            for x in impl.elements():
                checked += 1
                if lifted.map[embed_e_index(impl, x)] != embed_e_index(
                        impl, alpha.map[x]):
                    bad.append((name, x))
    base = b2()
    sub = implication_subalgebra(base, {1, 3}, name="[p,1]")
    incl = ImplicationHom(sub, base, tuple(sorted({1, 3})))
    lifted = functor_I_hom(incl)
    for i in sub.elements():
        checked += 1
        if lifted.map[embed_e_index(sub, i)] != embed_e_index(base, incl.map[i]):
            bad.append(("inclusion", i))
    yield "global", *_verdict(bad, 3, {"checked": checked})


@claim("nat:eta", "the collapse projection commutes with maps")
def _nat_eta(ctx, alg):
    eta = quotient_C(alg).eta
    bad = []
    for phi in enumerate_aut(alg):
        collapsed = functor_C_hom(phi)
        bad += [(phi.map, x) for x in alg.elements()
                if collapsed.map[eta[x]] != eta[phi.map[x]]]
    return _verdict(bad, 1)


@claim("eq:iotaKappa", "collapsing the pair unit gives the canonical map")
def _iota_kappa(ctx, alg):
    return _guard(lambda: kappa(alg))


@claim("kappa:not-iso", "the pair unit fails to be an isomorphism somewhere",
       "global")
def _kappa_witness(ctx):
    witnesses = []
    for name, alg in ctx.algebras:
        k = kappa(alg)
        if not is_isomorphism(k.source, k.target, k.map):
            witnesses.append(name)
    yield "global", bool(witnesses), witnesses


@claim("e:embedding", "the pair embedding preserves join, implication, mirror",
       "global")
def _e_embedding(ctx):
    bad = []
    for name, impl in (("B2", b2()), ("B3", b3()), ("I3", i3())):
        interval = build_I(impl)
        idx = pair_index(impl)
        e = ImplicationHom(impl, interval, tuple(
            idx[(impl.one, x)] for x in impl.elements()))
        bad += [(name, law, *w)
                for law, w in check_hom(e, "all").violations]
        for i, p in enumerate(pair_carrier(impl)):
            if interval.delta(interval.one, i) != idx[(p.second, p.first)]:
                bad.append((name, "mirror", i))
    yield "global", *_verdict(bad, 3)


@claim("quotient:shape", "collapses have the expected implication shape",
       "global")
def _quotient_shape(ctx):
    targets = {"C1": None, "C2": b2(), "C3": b3(), "N5": i3()}
    for name, alg in ctx.algebras:
        if name not in targets or targets[name] is None:
            continue
        q = quotient_C(alg)
        ok = find_isomorphism(q.algebra, targets[name]) is not None
        yield name, ok, None


@claim("quotient:not-implies-congruence",
       "the equivalence is not a congruence for the implication term",
       "global")
def _quotient_regression(ctx):
    alg = next((a for n, a in ctx.algebras if n == "C2"), None)
    if alg is None:
        yield "global", None, "no C2 instance in context"
        return
    for x in alg.elements():
        for x2 in alg.elements():
            if not alg.sim(x, x2):
                continue
            for y in alg.elements():
                if not alg.sim(alg.implies(x, y), alg.implies(x2, y)):
                    yield "global", True, {"witness": (x, x2, y)}
                    return
    yield "global", False, "no counterexample found"


@claim("thm:incl", "collapse commutes with upward-closed inclusions")
def _thm_incl(ctx, alg):
    def faults(mask):
        rep = inclusion_collapse(alg, _bits(mask), ctx.witness_policy)
        return [] if rep.passed else [(list(_bits(mask)), list(rep.violations))]
    subs = upward_closed_subalgebras(alg)
    return _verdict(_orbit_scan(alg, {m: m for m in subs}, faults), 1,
                    {"subalgebras": len(subs)})


@claim("cor:restrict", "collapse of a restriction is the restricted collapse")
def _cor_restrict(ctx, alg):
    """For each upward-closed subalgebra S and automorphism phi, class of
    i in C(S) -> eta(phi(i)) is well defined and equals C(phi).
    ``functor_C_hom`` raises unless eta(phi(x)) = C(phi)(eta(x)) for all x
    (a), and C(phi) is injective, C(phi^-1) being its inverse.  So, for
    every phi alike, the statement holds on S iff eta is constant on each
    class of C(S) (b).  In the order S, phi, member x of S, the first
    failure is at the first failing S, the first automorphism and the
    first x whose ambient class differs from that of its class's first.
    """
    eta = quotient_C(alg).eta
    auts = enumerate_aut(alg)
    for phi in auts:
        functor_C_hom(phi)

    def faults(mask):
        stray = [x for c in _sub_classes(alg, mask) for x in _bits(c)
                 if eta[x] != eta[next(_bits(c))]]
        return [(list(_bits(mask)), auts[0].map, min(stray))] if stray else []
    subs = upward_closed_subalgebras(alg)
    return _verdict(_orbit_scan(alg, {m: m for m in subs}, faults), 1)


@claim("lem:collapseDewt",
       "upward-closed subalgebras are determined by their collapses")
def _collapse_dewt(ctx, alg):
    """Distinct subalgebras fail together exactly when they have the same
    classes.  Bucketed by classes in order, the first subalgebra with a
    mate opens its bucket, and its first mate is the bucket's second entry.
    """
    eta = quotient_C(alg).eta
    subs = upward_closed_subalgebras(alg)
    buckets = {}
    for mask in subs:
        buckets.setdefault(frozenset(eta[x] for x in _bits(mask)),
                           []).append(mask)
    bad = [(list(_bits(b[0])), list(_bits(b[1])))
           for b in buckets.values() if len(b) > 1]
    return _verdict(bad, 1, {"subalgebras": len(subs)})


# -- corpus profile -----------------------------------------------------------------

@claim("corpus:mr-profile", "named corpus instances have the expected verdicts",
       "global")
def _corpus_profile(ctx):
    expected = {"C1": True, "C2": True, "C3": True,
                "FA1": True, "FA2": True, "N5": False}
    for name, alg in ctx.algebras:
        if name not in expected:
            continue
        ok = is_cubic(alg) and is_mr(alg) == expected[name]
        if name == "N5" and ok:
            rep = check_mr_axiom(alg, "all")
            pair = (alg.labels.index("<1,p>"), alg.labels.index("<1,q>"))
            hits = [(x, a, b) for _, (x, a, b) in rep.violations
                    if (a, b) == pair]
            ok = bool(hits) and all(
                replay_witness(alg, "mr", w) for w in hits)
        yield name, ok, None


def run_claims(ctx: VerifyContext,
               claim_ids: list[str] | None = None) -> list[ClaimResult]:
    """Run each selected claim once (all by default); sort the results."""
    if claim_ids is None:
        selected = list(CLAIMS)
    else:
        unknown = [c for c in claim_ids if c not in CLAIMS]
        if unknown:
            raise KeyError(f"unknown claim ids: {unknown}")
        selected = list(dict.fromkeys(claim_ids))
    results: list[ClaimResult] = []
    for cid in selected:
        spec = CLAIMS[cid]
        # run sees only the instances passing every gate; the others skip
        gates = [] if cid == "axioms:cubic" else [("not cubic", is_cubic)]
        if spec.requires_mr:
            gates.append(("not MR", is_mr))
        algebras = ctx.algebras
        for reason, holds in gates:
            results.extend(ClaimResult(cid, name, "skip", reason)
                           for name, alg in algebras if not holds(alg))
            algebras = tuple((name, alg) for name, alg in algebras
                             if holds(alg))
        try:
            results.extend(spec.run(
                VerifyContext(algebras, ctx.seed, ctx.witness_policy)))
        except MrkitError as exc:
            results.append(ClaimResult(cid, "error", "fail", str(exc)))
    results.sort(key=lambda r: (r.claim_id, r.instance))
    return results
