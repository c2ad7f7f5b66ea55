import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrkit.constructions import (
    boolean_algebra,
    build_I,
    embed_e_index,
    face_interval_isomorphism,
    face_poset,
    filter_algebra,
    gfilter_from_presentation,
    implication_subalgebra,
    pair_carrier,
    presentation_check,
)
from mrkit.cubic import (
    CubicAlgebra,
    as_index,
    check_cubic_axioms,
    check_mr_axiom,
    preceq_mask,
)
from mrkit.errors import (
    CapExceeded,
    InvalidAlgebra,
    NotAFilter,
    NotAPresentation,
    NotClosed,
)
from mrkit.filters import principal_filter
from mrkit.functors import CubicHom, check_hom

from conftest import lab, relabel


def is_lattice(algebra):
    """Every pair of elements has a greatest lower bound."""
    return all(algebra.meet(x, y) is not None
               for x in range(algebra.size) for y in range(algebra.size))


class TestBooleanAlgebra:
    def test_sizes_and_atoms(self):
        assert boolean_algebra(0).size == 1
        assert boolean_algebra(2).size == 4
        b3 = boolean_algebra(3)
        # the atoms are the one-bit masks, the elements covering 0
        assert b3.size == 8 and [
            x for x in b3.elements() if x and b3._down[x] == 1 | 1 << x
        ] == [1, 2, 4]

    def test_labels(self, B2):
        assert [B2.label(x) for x in B2.elements()] == ["0", "p", "q", "1"]

    def test_cap(self, monkeypatch):
        monkeypatch.delenv("MRKIT_MAX_CARRIER", raising=False)
        for n in (7, 17):
            with pytest.raises(CapExceeded) as info:
                boolean_algebra(n)
            for part in ("boolean_algebra", "cap of 81", "--max-carrier",
                         "MRKIT_MAX_CARRIER"):
                assert part in str(info.value)
        with pytest.raises(CapExceeded, match="atom count -1 is negative"):
            boolean_algebra(-1)

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_de_morgan(self, x, y):
        b = boolean_algebra(4)

        def complement(z):
            return b.implies(z, 0)
        assert complement(b.join(x, y)) == \
            b.meet(complement(x), complement(y))
        assert complement(complement(x)) == x

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_implication_is_residuation(self, x, y):
        b = boolean_algebra(3)
        assert b.implies(x, y) == b.join(b.implies(x, 0), y)
        assert (b.join(x, y) == b.one) == (b.implies(x, y) == y)


class TestImplicationSubalgebra:
    def test_i3_shape(self, I3, B2):
        assert I3.size == 3
        assert I3.labels == ("p", "q", "1")
        p, q = 0, 1
        assert I3.implies(p, q) == q
        assert I3.implies(q, p) == p
        assert I3.meet(p, q) is None
        assert not is_lattice(I3)

    def test_whole_carrier(self, B2):
        full = implication_subalgebra(B2, range(B2.size))
        assert full.size == B2.size
        assert is_lattice(full)

    def test_requires_top(self, B2):
        with pytest.raises(NotClosed):
            implication_subalgebra(B2, {0, 1})

    def test_closure_violations_report_witness(self, B2):
        # p -> 0 is the other atom, so {0, p, 1} is not implication closed
        with pytest.raises(NotClosed) as exc:
            implication_subalgebra(B2, {0, 1, 3})
        assert exc.value.witness is not None

    def test_principal_filter_subalgebra(self, B2):
        sub = implication_subalgebra(B2, {1, 3})
        assert sub.size == 2 and is_lattice(sub)


class TestBuildI:
    def test_sizes(self, B1, B2, I3):
        assert build_I(B1).size == 3
        assert build_I(B2).size == 9
        assert build_I(I3).size == 5

    def test_i3_pairs_exclude_meetless(self, I3):
        labels = build_I(I3).labels
        assert "<p,q>" not in labels and "<q,p>" not in labels
        assert set(labels) == {"<p,1>", "<q,1>", "<1,p>", "<1,q>", "<1,1>"}

    def test_carrier_is_lexicographic(self, B2):
        pairs = pair_carrier(B2)
        assert [(p.first, p.second) for p in pairs] == \
            sorted((p.first, p.second) for p in pairs)

    def test_counts_are_powers_of_three(self):
        for n in range(5):
            assert build_I(boolean_algebra(n)).size == 3 ** n

    def test_mr_iff_lattice(self, B2, B3, I3):
        # every implication-closed subset of the two- and three-atom
        # powersets, plus the three-element algebra: the pair algebra is
        # MR exactly for the lattices among them
        candidates = [I3]
        for base in (B2, B3):
            for mask in range(1, 1 << base.size):
                subset = {x for x in base.elements() if mask >> x & 1}
                if base.one not in subset:
                    continue
                if any(base.join(x, y) not in subset
                       or base.implies(x, y) not in subset
                       for x in subset for y in subset):
                    continue
                candidates.append(implication_subalgebra(base, subset))
        assert len(candidates) > 30
        lattices = non_lattices = 0
        for impl in candidates:
            interval = build_I(impl)
            assert check_cubic_axioms(interval).passed
            flag = is_lattice(impl)
            lattices += flag
            non_lattices += not flag
            assert check_mr_axiom(interval).passed == flag
        assert lattices and non_lattices

    def test_embed_e(self, B2, I3):
        def embed_e(algebra, a):  # the pair a -> (1, a) lands on
            return pair_carrier(algebra)[embed_e_index(algebra, a)]

        assert embed_e(B2, B2.one) == embed_e(B2, 3)
        assert embed_e(B2, 1).first == B2.one and embed_e(B2, 1).second == 1
        c2 = build_I(B2)
        for x in B2.elements():
            for y in B2.elements():
                if B2.leq(x, y):
                    assert c2.leq(embed_e_index(B2, x), embed_e_index(B2, y))
        assert embed_e(I3, 1).second == 1


class TestFacePoset:
    def test_sizes(self):
        assert face_poset(1).size == 3
        assert face_poset(2).size == 9
        assert face_poset(3).size == 27

    def test_zero_dimensional_cube(self):
        assert face_poset(0).size == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            face_poset(5)

    def test_reflection_through_square(self):
        faces = face_poset(2)
        squares = faces.labels.index("**")
        assert faces.delta(squares, faces.labels.index("++")) == \
            faces.labels.index("--")
        assert faces.delta(squares, faces.labels.index("+*")) == \
            faces.labels.index("-*")
        edge = faces.labels.index("+*")
        assert faces.delta(edge, faces.labels.index("++")) == \
            faces.labels.index("+-")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_constructed_isomorphism(self, n):
        faces = face_poset(n)
        interval = build_I(boolean_algebra(n))
        iso = CubicHom(faces, interval, face_interval_isomorphism(n))
        assert iso.is_bijective()
        assert check_hom(iso).passed


class TestFilterAlgebra:
    def test_principal_filter_of_b2(self, B2, C1):
        fa = filter_algebra(B2, {1, 3})
        assert fa.size == 3
        assert check_mr_axiom(fa).passed
        from mrkit.automorphisms import find_isomorphism
        assert find_isomorphism(fa, C1) is not None

    def test_whole_carrier_gives_the_pair_algebra(self, B2, C2):
        fa = filter_algebra(B2, range(B2.size))
        from mrkit.automorphisms import find_isomorphism
        assert find_isomorphism(fa, C2) is not None

    def test_ultrafilter_device(self, B3, C2):
        # the two-atom powerset is a principal ultrafilter inside the
        # three-atom one; its pair algebra is the square algebra
        fa = filter_algebra(B3, {x for x in B3.elements() if B3.leq(1, x)})
        assert fa.size == 9
        from mrkit.automorphisms import find_isomorphism
        assert find_isomorphism(fa, C2) is not None

    def test_rejects_non_filters(self, B2):
        with pytest.raises(NotAFilter):
            filter_algebra(B2, {1})  # not upward closed (misses 3)
        with pytest.raises(NotAFilter):
            filter_algebra(B2, set())


def presentation_check_reference(algebra, points) -> bool:
    """``presentation_check`` as a loop: every element lies above some
    point in the reflection order."""
    points = [as_index(algebra, p) for p in points]
    return all(any(algebra.preceq(a, x) for a in points)
               for x in algebra.elements())


def present_sequences(alg):
    """The point sequences the ``thm:present`` claim tries."""
    minimal = alg.minimal_elements
    seqs = [(a,) for a in minimal]
    seqs += [(a, b) for a in minimal for b in minimal if a != b]
    seqs += [(a, e) for a in minimal for e in alg.elements()
             if len(alg.down_set(e)) == 3]
    return seqs


class TestPresentations:
    def test_presentation_check_examples(self, C2, N5):
        examples = [(C2, [lab(C2, "<1,0>")], True), (C2, [C2.one], False),
                    (N5, [lab(N5, "<1,p>"), lab(N5, "<1,q>")], True)]
        for alg, points, want in examples:
            assert presentation_check(alg, points) is want
            assert presentation_check_reference(alg, points) is want

    @pytest.mark.parametrize("name,counts", [
        ("C2", (36, 5)), ("C3", (168, 19)), ("C4", (784, 65)), ("N5", (8, 13))])
    def test_presentation_check_matches_the_loop(self, name, counts, request):
        alg = build_I(boolean_algebra(4)) if name == "C4" else \
            request.getfixturevalue(name)
        # the claim's sequences start at a minimal element; single points
        # anywhere in the carrier also give the False verdict
        seqs = present_sequences(alg) + [(x,) for x in alg.elements()]
        verdicts = [presentation_check(alg, seq) for seq in seqs]
        assert verdicts == [presentation_check_reference(alg, seq)
                            for seq in seqs]
        assert (verdicts.count(True), verdicts.count(False)) == counts

    def test_presentation_check_reads_only_the_points_asked(self, C3):
        alg = relabel(C3, 11)
        points = [alg.minimal_elements[0], alg.one, alg.minimal_elements[0]]
        before = preceq_mask.cache_info()
        assert presentation_check(alg, points)
        after = preceq_mask.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (2, 1)

    def test_vertex_presentation(self, C2):
        filt = gfilter_from_presentation(C2, [lab(C2, "<1,0>")])
        assert filt.members == principal_filter(C2, lab(C2, "<1,0>")).members

    def test_two_edge_descent(self, C2):
        # the signed meet of the two edges is a vertex; its up-set results
        filt = gfilter_from_presentation(
            C2, [lab(C2, "<1,p>"), lab(C2, "<1,q>")])
        caret = C2.caret(lab(C2, "<1,p>"), lab(C2, "<1,q>"))
        assert caret == lab(C2, "<q,p>")
        assert filt.members == principal_filter(C2, caret).members

    def test_single_element_algebra(self):
        one = build_I(boolean_algebra(0))
        filt = gfilter_from_presentation(one, [0])
        assert filt.members == {0}

    def test_a_caret_that_does_not_descend_is_refused(self, C2, monkeypatch):
        # a caret that climbs back to the top: the chain's up-sets make
        # the vertex filter, which generates, but not the up-set of the top
        monkeypatch.setattr(CubicAlgebra, "caret", lambda self, x, y: self.one)
        with pytest.raises(InvalidAlgebra, match="does not descend"):
            gfilter_from_presentation(C2, [lab(C2, "<1,0>"), lab(C2, "<1,p>")])

    def test_rejects_non_generating_sequences(self, C2):
        with pytest.raises(NotAPresentation):
            gfilter_from_presentation(C2, [C2.one])
        with pytest.raises(NotAPresentation):
            gfilter_from_presentation(C2, [])
