import random

import pytest

from mrkit import automorphisms, filters
from mrkit.automorphisms import coordinate_gfilters
from mrkit.constructions import build_I, implication_subalgebra
from mrkit.corpus import b4, c3
from mrkit.cubic import _bits
from mrkit.errors import InvalidAlgebra, NotAFilter, NotSubfilter
from mrkit.filters import (
    Filter,
    all_filters,
    as_filter,
    boolean_filter_sum,
    boolean_subfilters,
    delta_filter,
    filter_from,
    filter_intersect,
    filter_join,
    generated_subalgebra,
    impl_elem,
    impl_join,
    impl_sup,
    improper_filter,
    is_F_boolean,
    is_gfilter,
    principal_filter,
    subalgebra_closure,
)
from mrkit.functors import quotient_C

from conftest import gfilters, lab, relabel, trivial_filter


def members_by_label(alg, *labels):
    return frozenset(lab(alg, x) for x in labels)


def reference_as_filter(algebra, members):
    """as_filter before element references were coerced up front."""
    members = frozenset(members)
    up = algebra._up
    mask = sum(1 << x for x in members)
    if not members:
        raise NotAFilter("filter must be nonempty")
    if algebra.one not in members:
        raise NotAFilter("filter must contain the top")
    if filters._closure_mask(algebra, mask) != mask:
        for x in members:
            if up[x] & ~mask:
                raise NotAFilter(f"not upward closed at {x}")
        for x in members:
            for y in members:
                m = algebra.meet(x, y)
                if m is not None and m not in members:
                    raise NotAFilter(f"meet of {x},{y} escapes the filter")
    return filters.Filter(algebra, mask)


def fault(build, algebra, members):
    try:
        return build(algebra, members).mask
    except NotAFilter as exc:
        return str(exc)


class TestFilterValidity:
    def test_rejects_empty_and_topless(self, C2):
        with pytest.raises(NotAFilter):
            as_filter(C2, frozenset())
        with pytest.raises(NotAFilter):
            as_filter(C2, members_by_label(C2, "<1,p>"))

    def test_rejects_open_sets(self, C2):
        with pytest.raises(NotAFilter):
            as_filter(C2, members_by_label(C2, "<1,0>", "<1,1>"))

    def test_rejects_meet_escapes(self, C2):
        with pytest.raises(NotAFilter):
            as_filter(C2, members_by_label(C2, "<1,p>", "<1,q>", "<1,1>"))

    def test_parallel_edges_form_a_filter(self, C2):
        filt = as_filter(C2, members_by_label(C2, "<1,p>", "<p,1>", "<1,1>"))
        assert len(filt) == 3

    def test_element_references_are_members(self, C2):
        def refs(*labels):
            return [C2.ref(x) for x in members_by_label(C2, *labels)]

        assert as_filter(C2, [C2.ref(C2.one)]).mask == 1 << C2.one
        edge = refs("<1,p>", "<p,1>", "<1,1>")
        assert as_filter(C2, edge) == as_filter(C2, [r.index for r in edge])
        with pytest.raises(NotAFilter, match="not upward closed"):
            as_filter(C2, refs("<1,0>", "<1,1>"))
        with pytest.raises(NotAFilter, match="escapes the filter"):
            as_filter(C2, refs("<1,p>", "<1,q>", "<1,1>"))
        with pytest.raises(NotAFilter, match="contain the top"):
            as_filter(C2, refs("<1,p>"))

    @pytest.mark.parametrize("kind", [set, frozenset, list])
    def test_int_members_keep_their_messages(self, C3, kind):
        # the first fault named follows the iteration order of
        # frozenset(members), which coercing must not change
        rng = random.Random(7)
        for _ in range(300):
            members = rng.sample(range(C3.size), rng.randint(1, C3.size))
            members = kind(members + [C3.one] * rng.randint(0, 1))
            assert fault(as_filter, C3, members) == \
                fault(reference_as_filter, C3, members)


class TestGenerated:
    def test_vertex_filter_generates(self, C2):
        filt = principal_filter(C2, lab(C2, "<1,0>"))
        assert generated_subalgebra(filt) == frozenset(C2.elements())
        assert is_gfilter(filt)

    def test_trivial_filter_generates_only_top(self, C2):
        assert generated_subalgebra(trivial_filter(C2)) == {C2.one}

    def test_single_element_algebra(self):
        from mrkit.constructions import boolean_algebra, build_I
        one = build_I(boolean_algebra(0))
        assert is_gfilter(trivial_filter(one))

    def test_edge_filter_generates_three_elements(self, C2):
        filt = principal_filter(C2, lab(C2, "<1,p>"))
        got = generated_subalgebra(filt)
        assert got == members_by_label(C2, "<1,p>", "<p,1>", "<1,1>")
        assert not is_gfilter(filt)

    def test_generated_matches_closure_route(self, C2, C3):
        for alg in (C2, C3):
            for filt in all_filters(alg):
                assert generated_subalgebra(filt) == \
                    subalgebra_closure(alg, filt.members)


class TestElementInputs:
    # element arguments are coerced as as_filter coerces its members: a
    # negative or too large index is refused, a reference resolves

    def test_principal_filter_refuses_a_negative_index(self, C2):
        with pytest.raises(IndexError, match="element index -1 out of range"):
            principal_filter(C2, -1)

    def test_principal_filter_resolves_a_reference(self, C2):
        x = lab(C2, "<1,p>")
        assert principal_filter(C2, C2.ref(x)) == principal_filter(C2, x)

    def test_subalgebra_closure_refuses_a_negative_index(self, C2):
        with pytest.raises(IndexError, match="element index -1 out of range"):
            subalgebra_closure(C2, [-1])

    def test_subalgebra_closure_refuses_an_index_past_the_carrier(self, C2):
        with pytest.raises(IndexError, match="element index 99 out of range"):
            subalgebra_closure(C2, [99])

    def test_subalgebra_closure_resolves_a_reference(self, C2):
        seed = members_by_label(C2, "<1,p>", "<1,q>")
        assert subalgebra_closure(C2, [C2.ref(x) for x in seed]) == \
            subalgebra_closure(C2, seed)


class TestFilterJoin:
    def test_identity_and_idempotence(self, C2):
        g = principal_filter(C2, lab(C2, "<1,p>"))
        assert filter_join(g, trivial_filter(C2)).members == g.members
        assert filter_join(g, g).members == g.members

    def test_edges_join_to_vertex_filter(self, C2):
        g = principal_filter(C2, lab(C2, "<1,p>"))
        h = principal_filter(C2, lab(C2, "<1,q>"))
        assert filter_join(g, h).members == \
            principal_filter(C2, lab(C2, "<1,0>")).members


class TestImplications:
    def test_elementwise_example(self, C2):
        g = principal_filter(C2, lab(C2, "<1,p>"))
        f = principal_filter(C2, lab(C2, "<1,0>"))
        assert impl_elem(g, f).members == members_by_label(C2, "<1,q>", "<1,1>")
        assert impl_elem(trivial_filter(C2), f).members == f.members
        assert impl_elem(f, f).members == {C2.one}

    def test_three_routes_coincide_on_the_square(self, C2):
        filts = all_filters(C2)
        for f in filts:
            for g in filts:
                if not g.members <= f.members:
                    continue
                a = impl_sup(g, f).members
                b = impl_join(g, f).members
                c = impl_elem(g, f).members
                assert a == b == c

    def test_sup_worked_example(self, C2):
        g = principal_filter(C2, lab(C2, "<1,p>"))
        f = principal_filter(C2, lab(C2, "<1,0>"))
        assert impl_sup(g, f).members == principal_filter(C2, lab(C2, "<1,q>")).members
        assert impl_sup(f, f).members == {C2.one}
        assert impl_sup(trivial_filter(C2), f).members == f.members

    def test_requires_subfilter(self, C2):
        f = principal_filter(C2, lab(C2, "<1,p>"))
        g = principal_filter(C2, lab(C2, "<q,p>"))
        with pytest.raises(NotSubfilter):
            impl_sup(g, f)


class TestBooleanFilters:
    def test_examples(self, C2):
        f = principal_filter(C2, lab(C2, "<1,0>"))
        g = as_filter(C2, members_by_label(C2, "<1,p>", "<1,1>"))
        assert is_F_boolean(g, f)
        assert is_F_boolean(trivial_filter(C2), f)
        assert is_F_boolean(f, f)

    def test_boolean_implies_weakly_boolean(self, C2):
        # weakly F-Boolean: g -> f -> f gives g back
        for f in gfilters(C2):
            for g in all_filters(C2):
                if g.members <= f.members and is_F_boolean(g, f):
                    assert impl_elem(impl_elem(g, f), f) == g

    def test_delta_filter_examples(self, C2):
        f = principal_filter(C2, lab(C2, "<1,0>"))
        g = as_filter(C2, members_by_label(C2, "<1,p>", "<1,1>"))
        assert delta_filter(g, f).members == \
            principal_filter(C2, lab(C2, "<q,p>")).members
        assert delta_filter(f, f).members == f.members
        # trivial subfilter: the mirror of the whole filter
        mirrored = delta_filter(trivial_filter(C2), f)
        assert mirrored.members == principal_filter(C2, lab(C2, "<0,1>")).members


class TestBooleanFilterSum:
    def test_group_structure_on_the_two_atom_powerset(self, B2):
        whole = improper_filter(B2)
        filts = list(all_filters(B2))
        assert len(filts) == 4
        for g in filts:
            assert boolean_filter_sum(g, whole).members == g.members
            assert boolean_filter_sum(g, g).members == whole.members
            for h in filts:
                assert boolean_filter_sum(g, h).members == \
                    boolean_filter_sum(h, g).members
                for k in filts:
                    left = boolean_filter_sum(boolean_filter_sum(g, h), k)
                    right = boolean_filter_sum(g, boolean_filter_sum(h, k))
                    assert left.members == right.members

    def test_atom_filters_sum_to_the_trivial_filter(self, B2):
        gp = principal_filter(B2, 1)
        gq = principal_filter(B2, 2)
        assert boolean_filter_sum(gp, gq).members == {B2.one}

    def test_sum_with_trivial_is_the_complement(self, B2):
        gp = principal_filter(B2, 1)
        got = boolean_filter_sum(gp, trivial_filter(B2))
        assert got.members == impl_elem(gp, improper_filter(B2)).members

    def test_every_small_filter_is_relatively_boolean(self, B3):
        # observed at desk scale: every filter of every implication
        # subalgebra of the three-atom powerset is Boolean relative to the
        # improper filter, so the rejection path stays defensive
        ambient = implication_subalgebra(B3, set(range(1, B3.size)))
        for g in all_filters(ambient):
            assert is_F_boolean(g, improper_filter(ambient))
        atom = principal_filter(ambient, 0)
        assert boolean_filter_sum(atom, atom).members == \
            improper_filter(ambient).members


def reference_impl_elem(g, f) -> frozenset:
    """Members of f joining every member of g to the top, one join at a time."""
    algebra, one = g.carrier, g.carrier.one
    return frozenset(h for h in f.members
                     if all(algebra.join(h, x) == one for x in g.members))


def reference_is_F_boolean(g, f) -> bool:
    """Unmemoised, with the filter join rebuilt from the member sets."""
    return filter_from(g.carrier, g.members | reference_impl_elem(g, f)).members \
        == f.members


class TestMaskCalculus:
    def test_mask_is_the_field(self, C2, C3):
        f = principal_filter(C2, lab(C2, "<q,p>"))
        assert Filter._fields == ("carrier", "mask")
        assert f.members == frozenset(_bits(f.mask)) == {3, 4, 6, 8}
        # eq and hash agree across the trusted and the validating routes
        same = as_filter(C2, set(f.members))
        assert same == f and hash(same) == hash(f) and same is not f
        assert f != Filter(C3, f.mask) and f != principal_filter(C2, C2.one)
        assert repr(f) == "Filter(I(B2), (3, 4, 6, 8))"

    @pytest.mark.parametrize("collapse", [False, True], ids=["C3", "C3/sim"])
    def test_memo_and_masks_match_the_frozenset_versions(self, C3, collapse):
        alg = quotient_C(C3).algebra if collapse else C3
        filts = all_filters(alg)
        pairs = [(g, f) for f in filts for g in filts if g.members <= f.members]
        booleans = 0
        for g, f in pairs:
            assert impl_elem(g, f).members == reference_impl_elem(g, f)
            expected = reference_is_F_boolean(g, f)
            assert is_F_boolean(g, f) == expected
            assert is_F_boolean(as_filter(alg, g.members), f) == expected  # a hit
            booleans += expected
        # as on every finite instance tried (C1-C3, N5, implication
        # subalgebras of B3 and B4), every pair g <= f is Boolean here
        assert booleans == len(pairs) == (729 if not collapse else 27)

    @pytest.mark.parametrize("make", [lambda: relabel(c3(), 13),
                                      lambda: relabel(build_I(b4()), 17)],
                             ids=["C3~13", "C4~17"])
    def test_closed_masks_pass_the_validating_constructor(self, make,
                                                          monkeypatch):
        # filter_from, filter_join, filter_intersect, principal_filter,
        # improper_filter and all_filters hand Filter their masks without
        # validating them; every mask they hand over must be one the
        # validating entry accepts as it is
        handed, trusted = [], filters.Filter

        def recording(algebra, mask):
            handed.append(mask)
            return trusted(algebra, mask)

        monkeypatch.setattr(filters, "Filter", recording)
        alg = make()  # fresh: all_filters has nothing memoised on it
        filts = all_filters(alg)
        assert len(handed) == len(filts)
        rng = random.Random(5)
        for _ in range(200):
            g, h = rng.sample(filts, 2)
            filter_join(g, h)
            filter_intersect(g, h)
            filter_from(alg, rng.sample(range(alg.size), 2))
            principal_filter(alg, rng.randrange(alg.size))
            improper_filter(alg)
        assert len(handed) == len(filts) + 1000
        monkeypatch.undo()  # as_filter builds through Filter too
        for mask in handed:
            assert as_filter(alg, _bits(mask)).mask == mask

    def test_the_calculus_builds_no_member_sets(self):
        alg = relabel(c3(), 29)  # fresh: no filter of it has been read
        filts = all_filters(alg)
        assert len(boolean_subfilters(improper_filter(alg))) == len(filts)
        assert not [f for f in filts if "members" in f.__dict__]

    @pytest.mark.parametrize("make,refs", [
        (c3, all_filters),
        (lambda: quotient_C(c3()).algebra, all_filters),
        (lambda: relabel(build_I(b4()), 23),
         lambda alg: coordinate_gfilters(alg) + (improper_filter(alg),)),
    ], ids=["C3", "C3/sim", "C4~23"])
    def test_boolean_subfilters_match_the_inline_loop(self, make, refs):
        alg = make()
        for f in refs(alg):
            want = [g for g in all_filters(alg)
                    if g.members <= f.members and is_F_boolean(g, f)]
            assert list(boolean_subfilters(f)) == want
            assert boolean_subfilters(f) is boolean_subfilters(f)  # a hit

    def test_omega_still_checks_every_sum(self, C2, monkeypatch):
        monkeypatch.setattr(automorphisms, "boolean_filter_sum",
                            lambda g1, g2: improper_filter(g1.carrier))
        with pytest.raises(InvalidAlgebra,
                           match="filter sum disagrees with composition"):
            automorphisms.omega(C2)


class TestEnumeration:
    def test_square_filter_census_matches_brute_force(self, C2):
        brute = set()
        for mask in range(1, 1 << C2.size):
            members = frozenset(x for x in C2.elements() if mask >> x & 1)
            try:
                as_filter(C2, members)
            except NotAFilter:
                continue
            brute.add(members)
        assert {f.members for f in all_filters(C2)} == brute
        assert len(brute) == 16

    def test_cube_counts(self, C3):
        assert len(all_filters(C3)) == 64
        assert len(gfilters(C3)) == 27

    def test_cap_override(self, C2, monkeypatch):
        monkeypatch.setenv("MRKIT_MAX_CARRIER", "5")
        from mrkit.errors import CapExceeded
        with pytest.raises(CapExceeded):
            all_filters(C2)
