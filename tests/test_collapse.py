"""The collapse and the inclusion claims against the code they replaced.

The references below are the earlier ``quotient_C``, which read classes,
order, joins and carets element by element, the earlier
``inclusion_collapse``, which built a subalgebra and its collapse per call
and compared each member's class as a set, and the quantifier nests of
``lem:sim-congruence``, ``cor:restrict`` and ``lem:collapseDewt``, kept
unchanged but for reading subalgebras as masks.  Collapses and inclusion
reports must be equal; ``thm:incl``, ``cor:restrict`` and
``lem:collapseDewt`` must name the same first witness and
``lem:sim-congruence`` reach the same verdict, also on monkeypatched
wrong collapses that make the claims fail.  ``thm:incl`` and
``cor:restrict`` read one subalgebra per automorphism orbit, so a wrong
sub-collapse they must see is given to whole orbits; given to one
subalgebra alone, only the loops must fail.
"""

import random
from types import SimpleNamespace

import pytest

import mrkit.claims as claims
import mrkit.functors as functors
from mrkit.claims import VerifyContext, run_claims
from mrkit.constructions import ImplicationAlgebra, build_I
from mrkit.corpus import b4, c2, c3, cubic_corpus
from mrkit.cubic import (
    UNDEFINED,
    CubicAlgebra,
    Subalgebra,
    _bits,
    _down_masks,
    _report,
    is_upward_closed,
)
from mrkit.errors import (
    DeltaUndefined,
    InvalidAlgebra,
    MrkitError,
    NotUpwardClosed,
)
from mrkit.functors import (
    QuotientAlgebra,
    inclusion_collapse,
    quotient_C,
    upward_closed_subalgebras,
)

from conftest import _extreme, fresh, mutate, relabel

# a copy: build_I(b4()) is shared, and other modules count the work done
# on it while nothing is memoised there
C4 = fresh(build_I(b4()))
C4_RELABELLED = relabel(C4, 5)


# -- references ----------------------------------------------------------------

def reference_quotient_C(algebra):
    """The collapse as first written: classes, order, joins and the caret
    check read element by element through the algebra's methods."""
    n = algebra.size
    seen = [-1] * n
    classes: list[list[int]] = []
    for x in range(n):
        if seen[x] != -1:
            continue
        cls = [y for y in range(n) if algebra.sim(x, y)]
        for y in cls:
            seen[y] = len(classes)
        classes.append(sorted(cls))
    eta = tuple(seen)
    k = len(classes)
    top = eta[algebra.one]
    if classes[top] != [algebra.one]:
        raise InvalidAlgebra("class of the top is not a singleton")

    leq = [[0] * k for _ in range(k)]
    for c, cx in enumerate(classes):
        for d, cy in enumerate(classes):
            if any(algebra.leq(x, y) for x in cx for y in cy):
                leq[c][d] = 1
    jn = [[0] * k for _ in range(k)]
    for c, cx in enumerate(classes):
        for d, cy in enumerate(classes):
            jn[c][d] = eta[algebra.star(cx[0], cy[0])]

    down = _down_masks(leq)

    def class_meet(c, d):
        return _extreme(down[c] & down[d], down)

    for c in range(k):
        for d in range(k):
            m = class_meet(c, d)
            for x in classes[c]:
                for y in classes[d]:
                    cr = algebra.caret(x, y)
                    if cr is not None and (m == UNDEFINED or eta[cr] != m):
                        raise InvalidAlgebra(
                            f"class meet disagrees with the signed meet at ({x},{y})"
                        )

    imp = [[0] * k for _ in range(k)]
    for c in range(k):
        for d in range(k):
            z = jn[c][d]
            candidates = [w for w in range(k)
                          if leq[d][w] and jn[w][z] == top and class_meet(w, z) == d]
            if len(candidates) != 1:
                raise InvalidAlgebra(
                    f"relative complement not unique for classes ({c},{d})"
                )
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
    return QuotientAlgebra(source=algebra, classes=tuple(map(tuple, classes)),
                           algebra=quotient, eta=eta)


def reference_inclusion_collapse(algebra, members, witness_policy="first"):
    """inclusion_collapse as first written: a subalgebra and its collapse
    per call, each member's class compared with its ambient class as sets.
    The sub-collapse runs where ``inclusion_collapse`` runs it, in
    ``functors``, so a patched collapse reaches both."""
    members = sorted(set(members))
    if not is_upward_closed(algebra, members):
        raise NotUpwardClosed(f"{members} is not upward closed")
    sub = functors.Subalgebra(algebra, members)
    q_sub = functors.quotient_C(sub.algebra)
    q_amb = functors.quotient_C(algebra)

    def violations():
        for i in sub.algebra.elements():
            x = sub.to_parent(i)
            local = {sub.to_parent(j) for j in q_sub.classes[q_sub.eta[i]]}
            ambient = set(q_amb.classes[q_amb.eta[x]]) & set(members)
            if local != ambient:
                yield "class", (x,)

    return _report(violations(), witness_policy)


def reference_thm_incl(alg):
    """thm:incl over every subalgebra, through the reference report."""
    bad = []
    for mask in claims.upward_closed_subalgebras(alg):
        members = list(_bits(mask))
        rep = reference_inclusion_collapse(alg, members)
        if not rep.passed:
            bad.append((sorted(members), list(rep.violations)))
    return bad[:1]


def reference_sim_congruence(alg):
    """The violations of lem:sim-congruence, one per quadruple."""
    q = claims.quotient_C(alg)
    bad = []
    for x in alg.elements():
        for y in alg.elements():
            if alg.sim(x, y) != alg.sim(y, x):
                bad.append(("sym", x, y))
    for c1 in q.classes:
        for c2 in q.classes:
            for x in c1:
                for y in c2:
                    for x2 in c1:
                        for y2 in c2:
                            u, v = alg.caret(x, y), alg.caret(x2, y2)
                            if u is not None and v is not None and not alg.sim(u, v):
                                bad.append(("caret", x, y, x2, y2))
                            if not alg.sim(alg.star(x, y), alg.star(x2, y2)):
                                bad.append(("star", x, y, x2, y2))
    return bad[:3]


def reference_cor_restrict(alg):
    """cor:restrict over every subalgebra, automorphism and member."""
    q = claims.quotient_C(alg)
    auts = claims.enumerate_aut(alg)
    collapsed = [claims.functor_C_hom(phi).map for phi in auts]
    bad = []
    for mask in claims.upward_closed_subalgebras(alg):
        members = list(_bits(mask))
        sub = functors.Subalgebra(alg, members)
        q_sub = functors.quotient_C(sub.algebra)
        for phi, collapsed_map in zip(auts, collapsed):
            restricted = {}
            for i, x in enumerate(sub.members):
                image = q.eta[phi.map[x]]
                value = restricted.setdefault(q_sub.eta[i], image)
                if value != image or value != collapsed_map[q.eta[x]]:
                    bad.append((sorted(members), phi.map, x))
    return bad[:1]


def reference_collapse_dewt(alg):
    """lem:collapseDewt over every pair of subalgebras."""
    q = claims.quotient_C(alg)
    subs = claims.upward_closed_subalgebras(alg)
    bad = []
    for m1 in subs:
        c1 = {q.eta[x] for x in _bits(m1)}
        for m2 in subs:
            c2 = {q.eta[x] for x in _bits(m2)}
            if (m1 == m2) != (c1 == c2):
                bad.append((sorted(_bits(m1)), sorted(_bits(m2))))
    return bad[:1]


REFERENCES = {"thm:incl": reference_thm_incl,
              "lem:sim-congruence": reference_sim_congruence,
              "cor:restrict": reference_cor_restrict,
              "lem:collapseDewt": reference_collapse_dewt}


def claim_outcome(cid, alg):
    """The claim's result on ``alg``: ``"pass"``, or the instance and the
    witness of a failure, where an error has instance ``"error"`` and its
    message as the witness."""
    [r] = run_claims(VerifyContext(algebras=(("A", alg),)), [cid])
    return "pass" if r.status == "pass" else (r.instance, r.witness)


def reference_outcome(cid, alg):
    try:
        bad = REFERENCES[cid](alg)
    except MrkitError as exc:
        return "error", str(exc)
    return "pass" if not bad else ("A", bad)


def result(fn, alg):
    """What ``fn(alg)`` returns, or the type and message it raises."""
    try:
        return fn(alg)
    except MrkitError as exc:
        return type(exc), str(exc)


def is_equivalence(alg):
    every = alg.elements()
    sim = [[alg.sim(x, y) for y in every] for x in every]
    return all(sim[x][x] for x in every) and all(
        sim[y][x] and all(sim[x][z] for z in every if sim[y][z])
        for x in every for y in every if sim[x][y])


# -- the collapse ------------------------------------------------------------------

COLLAPSED = [*cubic_corpus(),
             *((f"I(C({name}))", build_I(quotient_C(alg).algebra))
               for name, alg in cubic_corpus()),
             ("C4", C4), ("C4~5", C4_RELABELLED)]


@pytest.mark.parametrize("name,alg", COLLAPSED,
                         ids=[name for name, _ in COLLAPSED])
def test_collapse_matches_the_reference(name, alg):
    assert quotient_C(alg) == reference_quotient_C(alg)


@pytest.mark.parametrize("alg", [c3(), C4], ids=["C3", "C4"])
def test_collapse_matches_the_reference_on_every_subalgebra(alg):
    subs = [Subalgebra(alg, _bits(m)).algebra
            for m in upward_closed_subalgebras(alg)]
    assert len(subs) == {27: 19, 81: 167}[alg.size]
    for sub in subs:
        assert quotient_C(sub) == reference_quotient_C(sub)


def test_a_non_equivalence_is_refused(C2):
    # delta(1, 1) = 0 takes 1 out of its own row; the reference still
    # returned a collapse
    delta = [list(row) for row in C2.delta_table]
    delta[1][1] = 0
    alg = CubicAlgebra.from_tables(C2.leq_table, C2.join_table, delta,
                                   C2.one, strict=False)
    assert not is_equivalence(alg)
    assert isinstance(reference_quotient_C(alg), QuotientAlgebra)
    with pytest.raises(InvalidAlgebra, match="^reflection equivalence is not"):
        quotient_C(alg)


def delta_mutations(alg):
    """Every copy of ``alg`` with one in-domain delta entry changed."""
    for x in alg.elements():
        for y in _bits(alg._down[x]):
            for v in alg.elements():
                if v != alg.delta_table[x][y]:
                    delta = [list(row) for row in alg.delta_table]
                    delta[x][y] = v
                    yield CubicAlgebra.from_tables(
                        alg.leq_table, alg.join_table, delta, alg.one,
                        strict=False)


def test_every_delta_mutation_of_c2_is_refused():
    # each single delta change breaks ~ somewhere; the reference returned
    # a collapse on 79 of them
    mutants = list(delta_mutations(c2()))
    assert not any(map(is_equivalence, mutants))
    silent = [alg for alg in mutants if isinstance(
        result(reference_quotient_C, alg), QuotientAlgebra)]
    assert (len(mutants), len(silent)) == (200, 79)
    for alg in mutants:
        with pytest.raises(InvalidAlgebra,
                           match="^reflection equivalence is not"):
            quotient_C(alg)


def test_mutations_agree_with_the_reference_on_an_equivalence():
    # a changed join can leave delta(x v y, x) or delta(x v y, y)
    # undefined, which the collapse refuses before anything else; past
    # that, it refuses a non-equivalence and otherwise agrees, result or
    # message, with the reference
    seen = set()
    for seed in range(200):
        alg = mutate(c3(), random.Random(seed))
        got = result(quotient_C, alg)
        if isinstance(got, tuple) and got[0] is DeltaUndefined:
            seen.add("undefined")
        elif is_equivalence(alg):
            seen.add("equivalence")
            assert got == result(reference_quotient_C, alg), seed
        else:
            seen.add("refused")
            assert got[0] is InvalidAlgebra
            assert got[1].startswith("reflection equivalence is not")
    assert seen == {"undefined", "equivalence", "refused"}


# -- the three inclusion claims ------------------------------------------------------

INSTANCES = [*cubic_corpus(), ("C4", C4), ("C4~5", C4_RELABELLED)]


@pytest.mark.parametrize("cid", sorted(REFERENCES))
@pytest.mark.parametrize("name,alg", INSTANCES,
                         ids=[name for name, _ in INSTANCES])
def test_claim_matches_its_loop(cid, name, alg):
    want = reference_outcome(cid, alg)
    assert want == "pass"
    assert claim_outcome(cid, alg) == want


def fake_collapse(alg, key):
    """A collapse of ``alg`` along the classes of ``key(x)``, numbered by
    first element, with class joins and meets read at the first members
    as ``quotient_C`` reads them."""
    index, eta = {}, []
    for x in alg.elements():
        eta.append(index.setdefault(key(x), len(index)))
    classes = tuple(tuple(x for x in alg.elements() if eta[x] == c)
                    for c in range(len(index)))
    reps = [c[0] for c in classes]
    meet = [[UNDEFINED if (z := alg.caret(r, s)) is None else eta[z]
             for s in reps] for r in reps]
    table = SimpleNamespace(
        size=len(classes), _meet_table=meet,
        join_table=[[eta[alg.star(r, s)] for s in reps] for r in reps])
    return QuotientAlgebra(alg, classes, table, tuple(eta))


def discrete(alg, q):
    return fake_collapse(alg, lambda x: x)


def top_and_rest(alg, q):
    return fake_collapse(alg, lambda x: x == alg.one)


def two_merged(alg, q):
    # the first two classes other than the top's become one
    a, b = [c for c in range(len(q.classes)) if c != q.eta[alg.one]][:2]
    return fake_collapse(alg, lambda x: a if q.eta[x] == b else q.eta[x])


WRONG = {"discrete": discrete, "top_and_rest": top_and_rest,
         "two_merged": two_merged}


def status(outcome):
    return outcome if outcome == "pass" else \
        "error" if outcome[0] == "error" else "fail"


def compared(cid, alg):
    """The claim's and its loop's (status, outcome); for
    lem:sim-congruence, whose witness changed form, the status alone."""
    got, want = claim_outcome(cid, alg), reference_outcome(cid, alg)
    if cid == "lem:sim-congruence":
        return (status(got),), (status(want),)
    return (status(got), got), (status(want), want)


ALGEBRAS = {"C2": c2(), "C3": c3(), "C4": C4}

INCLUSION_CASES = [*((name, None) for name in ("C3", "C4", "C4~5")),
                   *(("C3", wrong) for wrong in WRONG)]


@pytest.mark.parametrize("policy", ["first", "all"])
@pytest.mark.parametrize("name,wrong", INCLUSION_CASES,
                         ids=[f"{name}-{wrong}" for name, wrong in INCLUSION_CASES])
def test_inclusion_collapse_matches_the_reference(name, wrong, policy,
                                                  monkeypatch):
    # on every upward-closed subalgebra, with the real ambient collapse or
    # a wrong one, whose reports fail
    alg = {**ALGEBRAS, "C4~5": C4_RELABELLED}[name]
    if wrong:
        real = functors.quotient_C
        fake = WRONG[wrong](alg, real(alg))
        monkeypatch.setattr(functors, "quotient_C",
                            lambda a: fake if a is alg else real(a))
    reports = [(inclusion_collapse(alg, _bits(m), policy),
                reference_inclusion_collapse(alg, _bits(m), policy))
               for m in upward_closed_subalgebras(alg)]
    assert all(got == want for got, want in reports)
    assert any(not got.passed for got, _ in reports) == bool(wrong)


# (claim, instance, wrong collapse, expected outcome); the other pairings
# on C4 run the reference loops for seconds
AMBIENT_CASES = [
    *(("thm:incl", name, wrong, "fail") for name in ("C3", "C4")
      for wrong in WRONG),
    ("cor:restrict", "C3", "discrete", "fail"),
    ("cor:restrict", "C3", "top_and_rest", "pass"),
    ("cor:restrict", "C3", "two_merged", "error"),
    ("cor:restrict", "C4", "two_merged", "error"),
    *(("lem:collapseDewt", name, wrong, outcome) for name in ("C3", "C4")
      for wrong, outcome in [("discrete", "pass"), ("top_and_rest", "fail"),
                             ("two_merged", "fail")]),
    ("lem:sim-congruence", "C2", "discrete", "pass"),
    ("lem:sim-congruence", "C2", "top_and_rest", "fail"),
    ("lem:sim-congruence", "C2", "two_merged", "fail"),
    ("lem:sim-congruence", "C3", "discrete", "pass"),
    ("lem:sim-congruence", "C3", "two_merged", "fail"),
]


@pytest.mark.parametrize("cid,name,wrong,outcome", AMBIENT_CASES,
                         ids=["-".join(case) for case in AMBIENT_CASES])
def test_a_wrong_ambient_collapse_fails_alike(cid, name, wrong, outcome,
                                              monkeypatch):
    # functor_C_hom collapses the automorphisms along the same wrong
    # classes, so both modules see the fake
    alg, real = ALGEBRAS[name], functors.quotient_C
    fake = WRONG[wrong](alg, real(alg))
    collapse = lambda a: fake if a is alg else real(a)  # noqa: E731
    monkeypatch.setattr(claims, "quotient_C", collapse)
    monkeypatch.setattr(functors, "quotient_C", collapse)
    got, want = compared(cid, alg)
    assert got == want
    assert got[0] == outcome


def wrong_sub_outcomes(cid, name, wrong, where, monkeypatch):
    """The claim's and its loop's outcomes with the wrong collapse given to
    every subalgebra with at least three classes, to those of the orbit of
    the middle one of the sweep, or to the middle one alone.  The
    sub-collapse is memoised on the algebra, so this runs on a copy that
    has no real one to serve."""
    alg = fresh(ALGEBRAS[name])
    subs = upward_closed_subalgebras(alg)
    middle = subs[len(subs) // 2]
    # the orbit read off every element of the group: a defect the group
    # keeps, which the claims' one-per-orbit scan must see
    orbit = {sum(1 << phi.map[x] for x in _bits(middle))
             for phi in claims.enumerate_aut(alg)}
    chosen = {"every": set(subs), "middle": orbit, "alone": {middle}}[where]
    real, build = functors.quotient_C, functors.Subalgebra
    picked = []

    def subalgebra(parent, members):
        sub = build(parent, members)
        if sum(1 << x for x in sub.members) in chosen:
            picked.append(sub.algebra)
        return sub

    def collapse(a):
        q = real(a)
        if len(q.classes) >= 3 and any(a is p for p in picked):
            return WRONG[wrong](a, q)
        return q

    monkeypatch.setattr(functors, "Subalgebra", subalgebra)
    monkeypatch.setattr(functors, "quotient_C", collapse)
    return compared(cid, alg)


SUB_CASES = [("C3", "discrete", "every", "pass"),
             ("C3", "discrete", "middle", "pass"),
             ("C3", "two_merged", "every", "fail"),
             ("C3", "two_merged", "middle", "fail"),
             ("C4", "two_merged", "middle", "fail")]


@pytest.mark.parametrize("name,wrong,where,outcome", SUB_CASES,
                         ids=["-".join(case) for case in SUB_CASES])
def test_a_wrong_sub_collapse_fails_cor_restrict_alike(name, wrong, where,
                                                       outcome, monkeypatch):
    got, want = wrong_sub_outcomes("cor:restrict", name, wrong, where,
                                   monkeypatch)
    assert got == want
    assert got[0] == outcome


INCL_SUB_CASES = [("C3", "discrete", "every", "fail"),
                  ("C3", "discrete", "middle", "fail"),
                  ("C3", "two_merged", "every", "fail"),
                  ("C3", "two_merged", "middle", "fail"),
                  ("C4", "discrete", "middle", "fail"),
                  ("C4", "two_merged", "middle", "fail")]


@pytest.mark.parametrize("name,wrong,where,outcome", INCL_SUB_CASES,
                         ids=["-".join(case) for case in INCL_SUB_CASES])
def test_a_wrong_sub_collapse_fails_thm_incl_alike(name, wrong, where,
                                                   outcome, monkeypatch):
    got, want = wrong_sub_outcomes("thm:incl", name, wrong, where,
                                   monkeypatch)
    assert got == want
    assert got[0] == outcome


ALONE_CASES = [("cor:restrict", "C3", "two_merged"),
               ("cor:restrict", "C4", "two_merged"),
               *(("thm:incl", name, wrong) for name in ("C3", "C4")
                 for wrong in ("discrete", "two_merged"))]


@pytest.mark.parametrize("cid,name,wrong", ALONE_CASES,
                         ids=["-".join(case) for case in ALONE_CASES])
def test_a_wrong_collapse_of_one_subalgebra_fails_the_loops(cid, name, wrong,
                                                            monkeypatch):
    # a defect in one subalgebra is not one the group keeps: the claims
    # read one subalgebra per orbit and need not see it, the loops must
    _, want = wrong_sub_outcomes(cid, name, wrong, "alone", monkeypatch)
    assert want[0] == "fail"


# -- work counts --------------------------------------------------------------------

def test_sim_congruence_reads_star_once_per_pair(monkeypatch):
    alg = fresh(c3())  # a copy with no memo entries
    calls = []
    star = CubicAlgebra.star
    monkeypatch.setattr(CubicAlgebra, "star",
                        lambda self, x, y: calls.append(x) or star(self, x, y))
    assert claim_outcome("lem:sim-congruence", alg) == "pass"
    assert len(calls) == alg.size ** 2 == 729
    calls.clear()
    # the loop read star twice for each of its 15,625 quadruples
    assert reference_sim_congruence(alg) == []
    assert len(calls) == 2 * 15_625


def test_cor_restrict_builds_one_subalgebra_per_member_set(monkeypatch):
    # one Subalgebra and one sub-collapse per orbit of upward-closed
    # subalgebras (29 of 167), shared with thm:incl, and one collapsed map
    # per automorphism; nothing per pair of the two.  A copy: the
    # sub-collapse is memoised
    alg = fresh(C4)
    built, collapsed, sub_collapses = [], [], []
    build, collapse, real = (functors.Subalgebra, claims.functor_C_hom,
                             functors.quotient_C)
    monkeypatch.setattr(functors, "Subalgebra",
                        lambda *a: built.append(a) or build(*a))
    monkeypatch.setattr(claims, "functor_C_hom",
                        lambda f: collapsed.append(f) or collapse(f))

    def quotient(a):
        if a is not alg:
            sub_collapses.append(a)
        return real(a)

    monkeypatch.setattr(functors, "quotient_C", quotient)
    assert claim_outcome("cor:restrict", alg) == "pass"
    assert (len(built), len(sub_collapses), len(collapsed)) == (29, 29, 384)
    assert claim_outcome("thm:incl", alg) == "pass"
    assert (len(built), len(sub_collapses)) == (29, 29)
