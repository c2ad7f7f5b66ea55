import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrkit.cubic
from mrkit.constructions import build_I, implication_subalgebra
from mrkit.corpus import b2, b4, c2, c3, cubic_corpus, seeded_implication_algebras
from mrkit.cubic import (
    CubicAlgebra,
    ElementRef,
    Localization,
    Subalgebra,
    _bits,
    _glb_table,
    as_index,
    canonical_json,
    caret_total,
    check_cubic_axioms,
    check_mr_axiom,
    from_json_dict,
    is_upward_closed,
    localize,
    replay_witness,
    to_json_dict,
)
from mrkit.errors import (
    DeltaUndefined,
    InvalidAlgebra,
    MalformedTable,
    MrkitError,
    NotClosed,
)
from mrkit.filters import as_filter, principal_filter
from mrkit.functors import inclusion_collapse, quotient_C

from conftest import _extreme, fresh, lab, relabel

C4 = build_I(b4())


# -- independent oracles -------------------------------------------------------
#
# These recompute order-theoretic values straight from the definitions,
# on a different code path from the library (no bitmasks, no caching).

def brute_glb(alg, x, y):
    lower = [z for z in alg.elements() if alg.leq(z, x) and alg.leq(z, y)]
    best = [z for z in lower if all(alg.leq(w, z) for w in lower)]
    assert len(best) <= 1
    return best[0] if best else None


def brute_lub(alg, x, y):
    upper = [z for z in alg.elements() if alg.leq(x, z) and alg.leq(y, z)]
    best = [z for z in upper if all(alg.leq(z, w) for w in upper)]
    assert len(best) == 1
    return best[0]


# Pair arithmetic over the two-atom powerset, evaluated with raw bit ops:
# an independent route to the construction formulas on the 9-element
# square algebra.

B2_MASKS = {"0": 0, "p": 1, "q": 2, "1": 3}
B2_NAMES = {v: k for k, v in B2_MASKS.items()}


def pair_of(alg, index):
    a, b = alg.labels[index][1:-1].split(",")
    return B2_MASKS[a], B2_MASKS[b]


def index_of_pair(alg, a, b):
    return alg.labels.index(f"<{B2_NAMES[a]},{B2_NAMES[b]}>")


def oracle_join(p, q):
    return (p[0] | q[0], p[1] | q[1])


def oracle_delta(p, q):
    # reflection of q through p: (a ^ (b -> d), b ^ (a -> c)) in bit ops
    a, b = p
    c, d = q
    return (a & ((3 ^ b) | d), b & ((3 ^ a) | c))


class TestElementOps:
    def test_c2_carrier(self, C2):
        assert C2.size == 9
        assert C2.labels == ('<0,1>', '<p,q>', '<p,1>', '<q,p>', '<q,1>',
                             '<1,0>', '<1,p>', '<1,q>', '<1,1>')
        assert C2.label(C2.one) == "<1,1>"

    def test_join_worked_examples(self, C2, C1):
        assert C2.join(lab(C2, "<1,p>"), lab(C2, "<1,q>")) == lab(C2, "<1,1>")
        assert C1.join(lab(C1, "<1,0>"), lab(C1, "<0,1>")) == lab(C1, "<1,1>")
        for x in C2.elements():
            assert C2.join(x, x) == x

    def test_join_is_least_upper_bound(self, corpus):
        for _, alg in corpus:
            for x in alg.elements():
                for y in alg.elements():
                    assert alg.join(x, y) == brute_lub(alg, x, y)

    def test_join_matches_pair_oracle(self, C2):
        for i in C2.elements():
            for j in C2.elements():
                expect = oracle_join(pair_of(C2, i), pair_of(C2, j))
                assert C2.join(i, j) == index_of_pair(C2, *expect)

    def test_meet_worked_examples(self, C2, N5):
        got = C2.meet(lab(C2, "<1,q>"), lab(C2, "<1,p>"))
        assert got == lab(C2, "<1,0>")
        assert got == brute_glb(C2, lab(C2, "<1,q>"), lab(C2, "<1,p>"))
        assert N5.meet(lab(N5, "<1,p>"), lab(N5, "<q,1>")) is None
        for x in C2.elements():
            assert C2.meet(x, C2.one) == x

    def test_meet_matches_brute_force(self, corpus):
        for _, alg in corpus:
            for x in alg.elements():
                for y in alg.elements():
                    assert alg.meet(x, y) == brute_glb(alg, x, y)

    def test_meet_table_matches_the_extreme_scan(self):
        # the meet read off the down masks by lookup against the scan for
        # the greatest element of down[x] & down[y] it replaced
        relabelled = [relabel(c3(), 7), relabel(C4, 5)]
        algebras = [alg for _, alg in cubic_corpus()] + relabelled + \
            [quotient_C(alg).algebra for alg in relabelled] + \
            seeded_implication_algebras(12, 15) + \
            [localize(alg, a).subalgebra.algebra
             for alg in (c3(), C4) for a in alg.elements()]
        assert len(algebras) == 6 + 2 + 2 + 15 + 27 + 81
        for alg in algebras:
            down = alg._down
            assert alg._meet_table == tuple(
                tuple(_extreme(dx & dy, down) for dy in down) for dx in down)

    def test_a_repeated_down_set_gives_the_first_element(self):
        # quotient_C builds its class meets with this rule, and a broken
        # class order (0 <= 1 <= 0 here) repeats a down set: the first
        # element wins, as the ascending scan picks it
        down = (0b011, 0b011, 0b111)
        assert _glb_table(down) == ((0, 0, 0), (0, 0, 0), (0, 0, 2)) == \
            tuple(tuple(_extreme(dx & dy, down) for dy in down) for dx in down)

    def test_delta_worked_examples(self, C2, C1):
        one = C2.one
        assert C2.delta(one, lab(C2, "<1,p>")) == lab(C2, "<p,1>")
        assert C1.delta(C1.one, lab(C1, "<1,0>")) == lab(C1, "<0,1>")
        for x in C2.elements():
            assert C2.delta(x, x) == x

    def test_delta_matches_pair_oracle(self, C2):
        for i in C2.elements():
            for j in C2.elements():
                if not C2.leq(j, i):
                    continue
                expect = oracle_delta(pair_of(C2, i), pair_of(C2, j))
                assert C2.delta(i, j) == index_of_pair(C2, *expect)

    def test_delta_mirrors_pairs_at_top(self, C2):
        # reflection through the top swaps coordinates
        for i in C2.elements():
            a, b = pair_of(C2, i)
            assert C2.delta(C2.one, i) == index_of_pair(C2, b, a)

    def test_delta_undefined(self, C2):
        with pytest.raises(DeltaUndefined):
            C2.delta(lab(C2, "<1,p>"), lab(C2, "<1,q>"))

    def test_implies_worked_examples(self, C2):
        for x in C2.elements():
            assert C2.implies(x, x) == C2.one
            assert C2.implies(C2.one, x) == x
        assert C2.implies(lab(C2, "<1,p>"), lab(C2, "<1,q>")) == lab(C2, "<1,q>")

    def test_caret_worked_examples(self, C2, N5):
        assert C2.caret(lab(C2, "<1,p>"), lab(C2, "<1,q>")) == lab(C2, "<q,p>")
        for x in C2.elements():
            assert C2.caret(x, x) == x
        assert N5.caret(lab(N5, "<1,p>"), lab(N5, "<1,q>")) is None

    def test_star_worked_examples(self, C2, C1):
        assert C2.star(lab(C2, "<1,p>"), lab(C2, "<1,q>")) == C2.one
        # reflecting the opposite vertex through the top lands back on x,
        # so the signed join of a vertex with its mirror is the vertex
        assert C1.star(lab(C1, "<1,0>"), lab(C1, "<0,1>")) == lab(C1, "<1,0>")
        for x in C2.elements():
            assert C2.star(x, x) == x

    def test_star_term_evaluation(self, corpus):
        for _, alg in corpus:
            for x in alg.elements():
                for y in alg.elements():
                    j = alg.join(x, y)
                    assert alg.star(x, y) == alg.join(x, alg.delta(j, y))

    def test_sim_worked_examples(self, C2):
        assert C2.sim(lab(C2, "<q,p>"), lab(C2, "<p,q>"))
        for x in C2.elements():
            assert C2.sim(x, x)
        assert not C2.sim(lab(C2, "<1,0>"), lab(C2, "<1,p>"))

    def test_preceq_vertex_below_everything(self, C2):
        # dual route: the reflection order relation must coincide with
        # membership in the localization at the point
        v = lab(C2, "<1,0>")
        members = set(localize(C2, v).members)
        for x in C2.elements():
            assert C2.preceq(v, x) == (x in members)
        # in particular the vertex sits below the edge through it
        assert C2.preceq(v, lab(C2, "<1,p>"))

    def test_index_errors(self, C2):
        with pytest.raises(IndexError):
            as_index(C2, 9)
        with pytest.raises(IndexError):
            as_index(C2, -1)

    @pytest.mark.parametrize("x", [2.7, 1.0, "3", True, False, None],
                             ids=repr)
    def test_only_ints_and_references_are_indices(self, C2, x):
        # no float truncated, no string parsed, no bool read as 0 or 1
        with pytest.raises(TypeError, match="not an int or an ElementRef"):
            as_index(C2, x)

    def test_entry_points_refuse_a_non_integer_element(self, C2):
        with pytest.raises(TypeError):
            principal_filter(C2, 1.9)
        with pytest.raises(TypeError):
            localize(C2, "0")


@st.composite
def corpus_element_pairs(draw):
    alg = draw(st.sampled_from([a for _, a in cubic_corpus()]))
    x = draw(st.integers(0, alg.size - 1))
    y = draw(st.integers(0, alg.size - 1))
    return alg, x, y


class TestAxiomProperties:
    @given(corpus_element_pairs())
    def test_reflection_join_and_involution(self, drawn):
        alg, x, y = drawn
        if alg.leq(x, y):
            d = alg.delta(y, x)
            assert alg.join(d, x) == y
            assert alg.delta(y, d) == x

    @given(corpus_element_pairs(), st.integers(0, 80))
    def test_reflection_monotone(self, drawn, raw_z):
        alg, x, y = drawn
        z = raw_z % alg.size
        if alg.leq(x, y) and alg.leq(y, z):
            assert alg.leq(alg.delta(z, x), alg.delta(z, y))
            lhs = alg.delta(z, alg.delta(y, x))
            rhs = alg.delta(alg.delta(z, y), alg.delta(z, x))
            assert lhs == rhs

    @given(corpus_element_pairs())
    def test_implication_absorption(self, drawn):
        alg, x, y = drawn
        assert alg.implies(alg.implies(x, y), y) == alg.join(x, y)

    @settings(max_examples=60)
    @given(corpus_element_pairs(), st.integers(0, 80))
    def test_implication_exchange(self, drawn, raw_z):
        alg, x, y = drawn
        z = raw_z % alg.size
        assert alg.implies(x, alg.implies(y, z)) == \
            alg.implies(y, alg.implies(x, z))

    @given(corpus_element_pairs())
    def test_sim_symmetric(self, drawn):
        alg, x, y = drawn
        assert alg.sim(x, y) == alg.sim(y, x)


class TestCheckers:
    def test_corpus_is_cubic(self, corpus):
        for name, alg in corpus:
            assert check_cubic_axioms(alg).passed, name

    def test_single_element_algebra(self):
        alg = CubicAlgebra.from_tables([[1]], [[0]], [[0]], 0)
        assert check_cubic_axioms(alg).passed
        assert check_mr_axiom(alg).passed
        assert caret_total(alg)

    def test_patched_delta_breaks_involution(self, C2):
        one = C2.one
        e = lab(C2, "<1,p>")
        delta = [list(row) for row in C2.delta_table]
        delta[one][e] = one
        broken = CubicAlgebra(size=C2.size, leq_table=C2.leq_table,
                              join_table=C2.join_table,
                              delta_table=tuple(map(tuple, delta)), one=one)
        report = check_cubic_axioms(broken, witness_policy="all")
        assert not report.passed
        assert "c" in report.ids()
        for violation in report.violations:
            assert replay_witness(broken, *violation)

    def test_strict_construction_rejects_broken_tables(self, C2):
        one = C2.one
        delta = [list(row) for row in C2.delta_table]
        delta[one][lab(C2, "<1,p>")] = one
        with pytest.raises(InvalidAlgebra):
            CubicAlgebra.from_tables(C2.leq_table, C2.join_table, delta, one)

    def test_mr_check_verdicts(self, corpus):
        expected = {"C1": True, "C2": True, "C3": True,
                    "FA1": True, "FA2": True, "N5": False}
        for name, alg in corpus:
            assert check_mr_axiom(alg).passed == expected[name], name
            assert caret_total(alg) == expected[name], name

    def test_n5_witness_is_the_incomparable_pair(self, N5):
        report = check_mr_axiom(N5, witness_policy="all")
        pair = (lab(N5, "<1,p>"), lab(N5, "<1,q>"))
        hits = [w for _, w in report.violations if (w[1], w[2]) == pair]
        assert hits and all(replay_witness(N5, "mr", w) for w in hits)
        first = check_mr_axiom(N5).violations[0]
        assert first == min(report.violations)

    def test_mr_replay_checks_only_in_domain_triples(self, N5):
        violations = check_mr_axiom(N5, witness_policy="all").violations
        assert violations and all(replay_witness(N5, *v) for v in violations)
        x, a, _ = violations[0][1]
        # (x, a, a) is in the domain and holds by axiom a
        assert not replay_witness(N5, "mr", (x, a, a))
        # off the domain a, b < x the bare condition can fail, e.g. (x, x, b)
        els = N5.elements()
        outside = [(u, v, w) for u in els for v in els if N5.leq(v, u)
                   for w in els if v == u or w == u or not N5.leq(w, u)
                   if (N5.join(N5.delta(u, v), w) != u)
                   != (N5.meet(v, w) is None)]
        assert outside
        assert not any(replay_witness(N5, "mr", t) for t in outside)
        for triple in ((N5.size, a, a), (x, -1, a), (x, a, N5.size), (x, a)):
            assert not replay_witness(N5, "mr", triple)

    def test_witness_policy(self, N5):
        assert len(check_mr_axiom(N5, "first").violations) == 1
        assert len(check_mr_axiom(N5, "all").violations) > 1
        with pytest.raises(ValueError):
            check_mr_axiom(N5, "some")

    @pytest.mark.parametrize("mutation", ["shape", "reflexive", "domain",
                                          "top", "range"])
    def test_malformed_tables(self, mutation):
        leq = [[1, 1], [0, 1]]
        join = [[0, 1], [1, 1]]
        delta = [[0, -1], [1, 1]]
        if mutation == "shape":
            leq = [[1, 1]]
        elif mutation == "reflexive":
            leq = [[0, 1], [0, 1]]
        elif mutation == "domain":
            delta = [[0, 0], [1, 1]]
        elif mutation == "top":
            leq = [[1, 0], [0, 1]]
        elif mutation == "range":
            join = [[0, 5], [1, 1]]
        with pytest.raises(MalformedTable):
            CubicAlgebra(size=2, leq_table=tuple(map(tuple, leq)),
                         join_table=tuple(map(tuple, join)),
                         delta_table=tuple(map(tuple, delta)), one=1)


_ORDER_DEFECTS = {
    "reflexive": "not reflexive",
    "antisymmetric": "not antisymmetric",
    "transitive": "not transitive",
    "top": "not a maximum",
    "labels": "labels length",
}


@pytest.mark.parametrize("kind", ["cubic", "implication"])
@pytest.mark.parametrize("defect", sorted(_ORDER_DEFECTS))
def test_malformed_order_in_either_table_algebra(kind, defect):
    # a 4-chain 0 < 1 < 2 < 3 with one order defect; every other table is
    # well-formed, so the shared order validation is what must object
    from mrkit.constructions import ImplicationAlgebra

    n, top = 4, 3
    leq = [[int(x <= y) for y in range(n)] for x in range(n)]
    labels = None
    if defect == "reflexive":
        leq[1][1] = 0
    elif defect == "antisymmetric":
        leq[2][1] = 1
    elif defect == "transitive":
        leq[0][2] = 0
    elif defect == "top":
        leq[0] = [1, 0, 0, 0]
    else:
        labels = ("a",)
    table = lambda rows: tuple(map(tuple, rows))
    constant = table([[top] * n] * n)
    if kind == "cubic":
        delta = [[x if leq[y][x] else -1 for y in range(n)] for x in range(n)]
        build = lambda: CubicAlgebra(
            size=n, leq_table=table(leq), join_table=constant,
            delta_table=table(delta), one=top, labels=labels)
    else:
        build = lambda: ImplicationAlgebra(
            size=n, leq_table=table(leq), join_table=constant,
            implies_table=constant, one=top, labels=labels)
    with pytest.raises(MalformedTable, match=_ORDER_DEFECTS[defect]):
        build()


def coordinates(algebra, a, y):
    """The coordinates (k, l) that localize checks for a member y at a."""
    one = algebra.one
    return (algebra.implies(algebra.join(algebra.delta(one, y), a), a),
            algebra.join(y, a))


class TestLocalization:
    def test_vertex_localization_covers_everything(self, C2):
        vertex = lab(C2, "<1,0>")
        loc = localize(C2, vertex)
        assert len(loc.members) == 9
        # closed forms at the vertex: k flips the first coordinate into the
        # second slot, l keeps the second coordinate
        comp = {"0": "1", "1": "0", "p": "q", "q": "p"}
        for m in loc.members:
            a, b = C2.labels[m][1:-1].split(",")
            k, l = coordinates(C2, vertex, m)
            assert C2.label(k) == f"<1,{comp[a]}>"
            assert C2.label(l) == f"<1,{b}>"

    def test_top_localization_is_trivial(self, corpus):
        for _, alg in corpus:
            assert localize(alg, alg.one).members == (alg.one,)

    def test_edge_localization(self, C2):
        loc = localize(C2, lab(C2, "<1,p>"))
        assert sorted(C2.label(m) for m in loc.members) == \
            ["<1,1>", "<1,p>", "<p,1>"]

    def test_membership_routes_agree(self, C3):
        # members via reflections of comparable pairs above the point,
        # recomputed here, must match the reflection-order route
        for a in C3.elements():
            via_delta = {
                C3.delta(y, x)
                for x in C3.elements() if C3.leq(a, x)
                for y in C3.elements() if C3.leq(x, y)
            }
            assert via_delta == set(localize(C3, a).members)

    def test_coordinates_are_bijective(self, C2):
        for a in C2.elements():
            loc = localize(C2, a)
            pairs = {coordinates(C2, a, m)[::-1] for m in loc.members}
            assert len(pairs) == len(loc.members)
            for p in C2.elements():
                for q in C2.elements():
                    if C2.leq(a, q) and C2.leq(q, p):
                        assert (p, q) in pairs

    def test_localized_subalgebra_is_mr(self, N5):
        # localizations are MR even inside a non-MR algebra
        for a in N5.elements():
            sub = localize(N5, a).subalgebra
            assert check_mr_axiom(sub.algebra).passed


def localize_reference(algebra, a):
    """localize as it was written first: set loops over ``leq`` calls."""
    a = as_index(algebra, a)
    via_delta = set()
    for x in algebra.elements():
        if not algebra.leq(a, x):
            continue
        for y in algebra.elements():
            if algebra.leq(x, y):
                via_delta.add(algebra.delta(y, x))
    via_rel = set(_bits(mrkit.cubic.preceq_mask(algebra, a)))
    if via_delta != via_rel:
        raise InvalidAlgebra(
            f"localization routes disagree at {a}: "
            f"{sorted(via_delta ^ via_rel)}"
        )
    members = tuple(sorted(via_delta))
    seen = {}
    for y in members:
        k, l = coordinates(algebra, a, y)
        if not (algebra.leq(a, k) and algebra.leq(k, l)):
            raise InvalidAlgebra(f"coordinate maps out of order at {y}")
        if (l, k) in seen:
            raise InvalidAlgebra(f"coordinate maps collide: {seen[(l, k)]}, {y}")
        seen[(l, k)] = y
    expected_pairs = {
        (p, q)
        for p in algebra.elements() if algebra.leq(a, p)
        for q in algebra.elements() if algebra.leq(a, q) and algebra.leq(q, p)
    }
    if set(seen) != expected_pairs:
        raise InvalidAlgebra(f"coordinate maps miss pairs at {a}")
    loc = Localization(base=algebra, a=a, members=members)
    sub = loc.subalgebra.algebra
    if not check_mr_axiom(sub).passed:
        raise InvalidAlgebra(f"localization at {a} is not an MR-algebra")
    minimal = set(sub.minimal_elements)
    for x in sub.elements():
        if x not in minimal and not any(sub.leq(m, x) for m in minimal):
            raise InvalidAlgebra(f"localization at {a} is not atomic")
    return loc


def _outcomes(fn, alg):
    """Per point: the members, or the error raised."""
    out = []
    for a in alg.elements():
        try:
            loc = fn(alg, a)
        except MrkitError as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append(loc.members)
    return out


def _delta_mutant(alg, seed):
    """A raw copy with one in-domain delta entry changed."""
    rng = random.Random(seed)
    delta = [list(row) for row in alg.delta_table]
    x = rng.randrange(alg.size)
    y = rng.choice(list(_bits(alg._down[x])))
    delta[x][y] = rng.choice([v for v in range(alg.size) if v != delta[x][y]])
    return CubicAlgebra.from_tables(alg.leq_table, alg.join_table, delta,
                                    alg.one, strict=False)


class TestLocalizeOnMasks:
    """localize against the loops it replaced, on every point; each run
    goes to a fresh copy, so neither reads the other's memo entries."""

    @pytest.mark.parametrize("name", ["C2", "C3", "C4", "N5", "FA1", "FA2",
                                      "C3~7"])
    def test_matches_the_reference(self, name):
        algebras = dict(cubic_corpus(), C4=C4, **{"C3~7": relabel(c3(), 7)})
        alg = algebras[name]
        got = _outcomes(localize, fresh(alg))
        assert got == _outcomes(localize_reference, fresh(alg))
        assert all(not isinstance(o[0], type) for o in got)

    def test_a_dropped_member_fails_alike(self, monkeypatch):
        preceq_mask = mrkit.cubic.preceq_mask

        def dropping(alg, a):  # forget the highest member above the point
            mask = preceq_mask(alg, a)
            rest = mask & ~(1 << a)
            return mask & ~(1 << rest.bit_length() - 1) if rest else mask

        monkeypatch.setattr(mrkit.cubic, "preceq_mask", dropping)
        alg = c2()
        got = _outcomes(localize, fresh(alg))
        assert got == _outcomes(localize_reference, fresh(alg))
        for a, outcome in zip(alg.elements(), got):
            if a != alg.one:
                assert outcome[0] is InvalidAlgebra
                assert outcome[1].startswith(
                    f"localization routes disagree at {a}: [")

    @pytest.mark.parametrize("seed", range(12))
    def test_delta_mutations_fail_alike(self, seed):
        alg = _delta_mutant(c3(), seed)
        got = _outcomes(localize, alg)
        assert got == _outcomes(localize_reference, fresh(alg))


class TestModuleLevelOps:
    def test_wrappers_accept_ints_and_refs(self, C2):
        import mrkit

        e = lab(C2, "<1,p>")
        f = lab(C2, "<1,q>")
        assert mrkit.join(C2, e, C2.ref(f)) == C2.one
        assert mrkit.meet(C2, C2.ref(e), f) == lab(C2, "<1,0>")
        assert mrkit.delta(C2, C2.one, e) == lab(C2, "<p,1>")
        assert mrkit.implies(C2, e, f) == f
        assert mrkit.caret(C2, e, f) == lab(C2, "<q,p>")
        assert mrkit.star(C2, e, f) == C2.one
        assert mrkit.sim(C2, lab(C2, "<q,p>"), C2.ref(lab(C2, "<p,q>")))
        assert mrkit.preceq(C2, lab(C2, "<1,0>"), e)

    def test_wrappers_validate_indices(self, C2):
        import mrkit

        with pytest.raises(IndexError):
            mrkit.join(C2, 0, 99)


class TestRefsAndSerialization:
    def test_element_ref_resolution(self, C2, C3):
        ref = C2.ref(3)
        assert ref.resolve(C2) == 3
        assert as_index(C2, ref) == 3
        with pytest.raises(ValueError):
            ref.resolve(C3)
        with pytest.raises(IndexError):
            ElementRef(C2.algebra_id, 99).resolve(C2)

    def test_json_round_trip(self, corpus):
        for _, alg in corpus:
            doc = to_json_dict(alg)
            back = from_json_dict(doc)
            assert back == alg
            assert back.labels == alg.labels
            assert canonical_json(doc) == canonical_json(to_json_dict(back))

    def test_from_json_rejects_garbage(self):
        with pytest.raises(MalformedTable):
            from_json_dict({"carrier": 2})
        with pytest.raises(MalformedTable):
            from_json_dict({"carrier": 1, "one": 0, "leq": [[1], [1]],
                            "join": [[0]], "delta": [[0]]})

    def test_raw_load_keeps_broken_structures(self, C2):
        doc = to_json_dict(C2)
        doc["delta"][C2.one][lab(C2, "<1,p>")] = C2.one
        loaded = from_json_dict(doc, strict=False)
        assert not check_cubic_axioms(loaded).passed
        with pytest.raises(InvalidAlgebra):
            from_json_dict(doc, strict=True)


BAD_MEMBERS = [(is_upward_closed, c2, [8, -1], -1),
               (Subalgebra, c2, [8, -1], -1),
               (inclusion_collapse, c2, [8, -1], -1),
               (inclusion_collapse, c2, [9], 9),
               (as_filter, c2, [8, 99], 99),
               (as_filter, c2, [8, -1], -1),
               (implication_subalgebra, b2, [3, 7], 7)]


@pytest.mark.parametrize(
    "entry,algebra,members,bad", BAD_MEMBERS,
    ids=[f"{e.__name__}-{'_'.join(map(str, m))}" for e, _, m, _ in BAD_MEMBERS])
def test_member_indices_are_checked(entry, algebra, members, bad):
    # -1 used to alias the last element, and an index past the end raised
    # a bare IndexError or a misleading table error
    with pytest.raises(IndexError, match=f"^element index {bad} out of range$"):
        entry(algebra(), members)


class TestSubalgebra:
    def test_not_closed_witnesses(self, C2):
        with pytest.raises(NotClosed):
            Subalgebra(C2, [lab(C2, "<1,p>"), lab(C2, "<1,q>"), C2.one])
        with pytest.raises(NotClosed):
            Subalgebra(C2, [lab(C2, "<1,p>")])

    def test_both_inducers_induce_the_same_order_and_join(self, C2):
        # the whole carrier is closed under join, delta and implies
        cubic = Subalgebra(C2, C2.elements()).algebra
        impl = implication_subalgebra(C2, C2.elements())
        assert cubic.leq_table == impl.leq_table == C2.leq_table
        assert cubic.join_table == impl.join_table == C2.join_table
        assert cubic.labels == impl.labels == C2.labels

    @pytest.mark.parametrize("induce,members,message,witness", [
        (Subalgebra, ("<0,1>", "<1,1>"), "not closed under delta",
         ("<1,1>", "<0,1>")),
        (Subalgebra, ("<0,1>", "<p,q>", "<1,1>"), "not closed under join",
         ("<0,1>", "<p,q>")),
        (implication_subalgebra, ("<0,1>", "<p,q>", "<1,1>"),
         "subset not closed under join", ("<0,1>", "<p,q>")),
        (implication_subalgebra, ("<0,1>", "<p,1>", "<1,1>"),
         "subset not closed under implication", ("<p,1>", "<0,1>")),
    ])
    def test_not_closed_names_the_operation_and_first_pair(
            self, C2, induce, members, message, witness):
        with pytest.raises(NotClosed, match=f"^{message}$") as info:
            induce(C2, [lab(C2, m) for m in members])
        assert info.value.witness == tuple(lab(C2, w) for w in witness)

    def test_an_empty_member_set_is_refused(self, C2):
        with pytest.raises(NotClosed, match="^subalgebra must be nonempty$"):
            Subalgebra(C2, [])

    def test_induced_tables(self, C2):
        members = [lab(C2, "<1,p>"), lab(C2, "<p,1>"), C2.one]
        sub = Subalgebra(C2, members)
        assert sub.algebra.size == 3
        assert check_cubic_axioms(sub.algebra).passed
        for i in sub.algebra.elements():
            for j in sub.algebra.elements():
                assert sub.to_parent(sub.algebra.join(i, j)) == \
                    C2.join(sub.to_parent(i), sub.to_parent(j))
