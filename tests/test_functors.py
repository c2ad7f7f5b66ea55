import pytest

from mrkit.automorphisms import enumerate_aut, find_isomorphism
from mrkit.constructions import (
    boolean_algebra,
    build_I,
    implication_subalgebra,
)
from mrkit.cubic import Subalgebra, _bits, localize
from mrkit.errors import InvalidAlgebra, NotUpwardClosed
from mrkit.functors import (
    CubicHom,
    ImplicationHom,
    check_hom,
    functor_C_hom,
    functor_I_hom,
    inclusion_collapse,
    iota,
    kappa,
    quotient_C,
    upward_closed_subalgebras,
)

from conftest import lab


class TestQuotient:
    def test_square_collapses_to_four_classes(self, C2, B2):
        q = quotient_C(C2)
        sizes = sorted(len(c) for c in q.classes)
        assert sizes == [1, 2, 2, 4]
        assert find_isomorphism(q.algebra, B2) is not None
        # vertices are one class; each edge pairs with its mirror
        vertex_class = {lab(C2, s) for s in ("<1,0>", "<0,1>", "<p,q>", "<q,p>")}
        assert vertex_class in [set(c) for c in q.classes]

    def test_n5_collapses_to_i3(self, N5, I3):
        q = quotient_C(N5)
        assert q.algebra.size == 3
        assert find_isomorphism(q.algebra, I3) is not None

    def test_one_element_quotient(self):
        one = build_I(boolean_algebra(0))
        assert quotient_C(one).algebra.size == 1

    def test_top_class_is_singleton(self, corpus):
        for _, alg in corpus:
            q = quotient_C(alg)
            assert q.classes[q.eta[alg.one]] == (alg.one,)

    def test_class_join_is_signed_join(self, C2):
        q = quotient_C(C2)
        for x in C2.elements():
            for y in C2.elements():
                assert q.algebra.join(q.eta[x], q.eta[y]) == \
                    q.eta[C2.star(x, y)]

    def test_class_meet_agrees_with_signed_meet(self, C3):
        q = quotient_C(C3)
        impl = q.algebra
        for x in C3.elements():
            for y in C3.elements():
                c = C3.caret(x, y)
                if c is not None:
                    assert impl.meet(q.eta[x], q.eta[y]) == q.eta[c]

    def test_implication_not_induced_elementwise(self, C2):
        # the equivalence is not a congruence for the implication term;
        # the quotient implication has to come from relative complements
        q = quotient_C(C2)
        broken = []
        for x in C2.elements():
            for x2 in C2.elements():
                if not C2.sim(x, x2):
                    continue
                for y in C2.elements():
                    if q.eta[C2.implies(x, y)] != q.eta[C2.implies(x2, y)]:
                        broken.append((x, x2, y))
        assert broken


class TestHomChecks:
    def test_identity_passes(self, C2):
        hom = CubicHom(C2, C2, tuple(range(C2.size)))
        assert check_hom(hom).passed

    def test_mirror_map_is_a_hom(self, C2):
        mirror = CubicHom(C2, C2,
                          tuple(C2.delta(C2.one, x) for x in C2.elements()))
        assert check_hom(mirror).passed

    def test_single_swap_fails_with_join_witness(self, C2):
        m = list(range(C2.size))
        m[lab(C2, "<1,p>")] = lab(C2, "<1,q>")
        report = check_hom(CubicHom(C2, C2, tuple(m)), witness_policy="all")
        assert not report.passed
        assert "join" in report.ids()

    def test_map_shape_validation(self, C2, C3):
        with pytest.raises(ValueError):
            CubicHom(C2, C3, (0,) * 5)
        with pytest.raises(ValueError):
            CubicHom(C2, C2, (99,) * 9)

    @pytest.mark.parametrize("m", [(0, 1), (0, 1, 2, 9), (0, 1, 2, -1)],
                             ids=["short", "past-the-end", "negative"])
    def test_implication_map_shape_validation(self, B2, m):
        # every hom is one map record, which checks its shape when built
        with pytest.raises(ValueError):
            ImplicationHom(B2, B2, m)

    def test_an_automorphism_is_a_hom_hashed_by_its_map(self, C3):
        phi = next(p for p in enumerate_aut(C3) if p.inverse() != p)
        assert type(phi) is CubicHom and phi.source is phi.target is C3
        assert hash(phi) == hash(phi.map)
        assert phi.inverse().compose(phi).is_identity()
        assert not phi.compose(phi).is_identity()


class TestFunctorOnMaps:
    def test_lift_of_identity(self, B2, C2):
        ident = ImplicationHom(B2, B2, tuple(range(B2.size)))
        lifted = functor_I_hom(ident)
        assert lifted.map == tuple(range(C2.size))

    def test_lift_of_atom_swap(self, B2, C2):
        swap = ImplicationHom(B2, B2, (0, 2, 1, 3))
        lifted = functor_I_hom(swap)
        assert check_hom(lifted).passed and lifted.is_bijective()
        # swapping atoms swaps the two coordinates of every pair label
        assert lifted.map[lab(C2, "<1,p>")] == lab(C2, "<1,q>")
        assert lifted.map[lab(C2, "<p,1>")] == lab(C2, "<q,1>")
        assert lifted.map[lab(C2, "<q,p>")] == lab(C2, "<p,q>")

    def test_lift_of_inclusion_embeds(self, B2):
        sub = implication_subalgebra(B2, {1, 3})
        incl = ImplicationHom(sub, B2, (1, 3))
        lifted = functor_I_hom(incl)
        assert check_hom(lifted).passed
        assert len(set(lifted.map)) == lifted.source.size == 3

    def test_lift_rejects_non_homs(self, B2):
        broken = ImplicationHom(B2, B2, (0, 1, 1, 3))
        with pytest.raises(InvalidAlgebra):
            functor_I_hom(broken)

    def test_collapse_of_mirror_is_identity(self, C2):
        mirror = CubicHom(C2, C2,
                          tuple(C2.delta(C2.one, x) for x in C2.elements()))
        collapsed = functor_C_hom(mirror)
        assert collapsed.map == tuple(range(collapsed.source.size))

    def test_collapse_of_coordinate_swap_is_atom_swap(self, C2):
        q = quotient_C(C2)
        swap = functor_I_hom(ImplicationHom(
            quotient_C(C2).algebra, quotient_C(C2).algebra, (0, 2, 1, 3)))
        # build the swap on the square directly instead: relabel via pairs
        perm = []
        for i in C2.elements():
            a, b = C2.labels[i][1:-1].split(",")
            flip = {"0": "0", "1": "1", "p": "q", "q": "p"}
            perm.append(lab(C2, f"<{flip[a]},{flip[b]}>"))
        collapsed = functor_C_hom(CubicHom(C2, C2, tuple(perm)))
        assert check_hom(collapsed).passed
        assert collapsed.map != tuple(range(q.algebra.size))

    def test_collapse_preserves_composition(self, C2):
        auts = enumerate_aut(C2)
        for phi in auts[:4]:
            for psi in auts[:4]:
                left = functor_C_hom(phi.compose(psi))
                right = functor_C_hom(phi).compose(functor_C_hom(psi))
                assert left.map == right.map


class TestIota:
    def test_square_example(self, B2, C2):
        hom = iota(B2)
        q = quotient_C(C2)
        assert hom.map[1] == q.eta[lab(C2, "<1,p>")]
        assert hom.is_bijective()

    def test_one_element(self):
        assert iota(boolean_algebra(0)).map == (0,)

    def test_naturality(self, B2):
        swap = ImplicationHom(B2, B2, (0, 2, 1, 3))
        emb = iota(B2)
        lifted_collapse = functor_C_hom(functor_I_hom(swap))
        for x in B2.elements():
            assert lifted_collapse.map[emb.map[x]] == emb.map[swap.map[x]]


class TestKappa:
    def test_not_a_hom_on_the_segment(self, C1):
        k = kappa(C1)
        report = check_hom(k, witness_policy="all")
        assert not report.passed
        assert "join" in report.ids()

    def test_collapses_mirror_pairs(self, N5):
        k = kappa(N5)
        assert k.map[lab(N5, "<1,p>")] == k.map[lab(N5, "<p,1>")]
        assert len(set(k.map)) == 3

    def test_naturality(self, C2):
        for phi in enumerate_aut(C2):
            k = kappa(C2)
            lifted = functor_I_hom(functor_C_hom(phi))
            for x in C2.elements():
                assert lifted.map[k.map[x]] == k.map[phi.map[x]]


class TestInclusion:
    def test_whole_algebra(self, C2):
        assert inclusion_collapse(C2, range(C2.size)).passed

    def test_generated_edge_class(self, C2):
        members = [lab(C2, "<1,p>"), lab(C2, "<p,1>"), C2.one]
        assert inclusion_collapse(C2, members).passed

    def test_localization_of_the_cube(self, C3):
        vertex = C3.minimal_elements[0]
        assert inclusion_collapse(C3, localize(C3, vertex).members).passed

    def test_rejects_open_subsets(self, C2):
        with pytest.raises(NotUpwardClosed):
            inclusion_collapse(C2, [lab(C2, "<1,0>"), C2.one])

    def test_element_references_are_members(self, C2, C3):
        for alg in (C2, C3):
            for mask in upward_closed_subalgebras(alg):
                members = list(_bits(mask))
                refs = [alg.ref(x) for x in members]
                assert inclusion_collapse(alg, refs, "all") == \
                    inclusion_collapse(alg, members, "all")
                assert Subalgebra(alg, refs).members == tuple(members)
        open_set = [lab(C2, "<1,0>"), C2.one]
        with pytest.raises(NotUpwardClosed, match=rf"^\{sorted(open_set)}"):
            inclusion_collapse(C2, [C2.ref(x) for x in open_set])

    def test_census_of_upward_closed_subalgebras(self, C2):
        subs = upward_closed_subalgebras(C2)
        assert len(subs) == 5
        assert (1 << C2.size) - 1 in subs
        assert 1 << C2.one in subs

    def test_collapse_determines_the_subalgebra(self, C2):
        q = quotient_C(C2)
        subs = upward_closed_subalgebras(C2)
        for m1 in subs:
            for m2 in subs:
                assert (m1 == m2) == ({q.eta[x] for x in _bits(m1)}
                                      == {q.eta[x] for x in _bits(m2)})

    def test_restriction_collapse_square(self, C2):
        q = quotient_C(C2)
        for mask in upward_closed_subalgebras(C2):
            sub = Subalgebra(C2, _bits(mask))
            q_sub = quotient_C(sub.algebra)
            for phi in enumerate_aut(C2):
                restricted = CubicHom(sub.algebra, C2,
                                      tuple(phi.map[x] for x in sub.members))
                via_sub = functor_C_hom(restricted)
                via_amb = functor_C_hom(phi)
                for i in sub.algebra.elements():
                    x = sub.to_parent(i)
                    assert via_sub.map[q_sub.eta[i]] == via_amb.map[q.eta[x]]
