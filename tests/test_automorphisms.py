import random

import pytest

from mrkit.automorphisms import (
    Xi,
    alpha_beta_table,
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
    _struct,
    has_unique_coordinates,
    inner_group,
    is_automorphism,
    is_inner,
    is_isomorphism,
    localize_closure,
    omega,
    phi_from_boolean_filter,
    recover,
)
from mrkit.constructions import boolean_algebra, build_I, face_poset
from mrkit.corpus import b4, c2, c3, cubic_corpus
from mrkit.cubic import UNDEFINED, localize
from mrkit.errors import (
    CapExceeded,
    InvalidAlgebra,
    MrkitError,
    NoDecomposition,
    NotGFilter,
    NotBoolean,
    NotInner,
    NotSim,
    SplitFailure,
)
from mrkit.filters import (
    all_filters,
    impl_elem,
    improper_filter,
    is_F_boolean,
    is_gfilter,
    principal_filter,
)
from mrkit.functors import CubicHom, quotient_C

from conftest import fresh, generated_group, lab, relabel, trivial_filter
from test_collapse import delta_mutations


def members_by_label(alg, *labels):
    return frozenset(lab(alg, s) for s in labels)


def translation(C2):
    """The inner automorphism carrying the base vertex to <q,p>."""
    f = principal_filter(C2, lab(C2, "<1,0>"))
    g = principal_filter(C2, lab(C2, "<q,p>"))
    return filter_automorphism(f, g)


class TestGroupEnumeration:
    @pytest.mark.parametrize("maker,order,inner", [
        ("C1", 2, 2), ("C2", 8, 4), ("C3", 48, 8),
    ])
    def test_orders(self, maker, order, inner, request):
        alg = request.getfixturevalue(maker)
        assert len(enumerate_aut(alg)) == order
        assert len(inner_group(alg)) == inner

    def test_single_element(self):
        one = build_I(boolean_algebra(0))
        assert len(enumerate_aut(one)) == 1

    def test_segment_automorphisms(self, C1):
        auts = enumerate_aut(C1)
        assert auts[0].is_identity()
        swap = auts[1]
        assert swap.map[lab(C1, "<1,0>")] == lab(C1, "<0,1>")

    def test_deterministic_order(self, C2):
        perms = [phi.map for phi in enumerate_aut(C2)]
        assert perms == sorted(perms)
        assert perms[0] == tuple(range(C2.size))

    def test_group_closure(self, C2):
        perms = {phi.map for phi in enumerate_aut(C2)}
        for phi in enumerate_aut(C2):
            assert phi.inverse().map in perms
            for psi in enumerate_aut(C2):
                assert phi.compose(psi).map in perms

    def test_cap_guard(self, C2, monkeypatch):
        monkeypatch.setenv("MRKIT_MAX_CARRIER", "4")
        with pytest.raises(CapExceeded):
            enumerate_aut(C2)

    def test_find_isomorphism(self, C2, C3):
        assert find_isomorphism(face_poset(2), C2) is not None
        assert find_isomorphism(C2, C3) is None

    def test_impl_aut_of_quotient(self, C2):
        assert len(enumerate_aut(quotient_C(C2).algebra)) == 2


class TestInner:
    def test_identity_and_mirror_are_inner(self, C2):
        assert is_inner(CubicHom.identity(C2))
        mirror = CubicHom(C2, C2, tuple(C2.delta(C2.one, x)
                                            for x in C2.elements()))
        assert is_inner(mirror)

    def test_coordinate_swap_is_not_inner(self, C2):
        flip = {"0": "0", "1": "1", "p": "q", "q": "p"}
        perm = []
        for i in C2.elements():
            a, b = C2.labels[i][1:-1].split(",")
            perm.append(lab(C2, f"<{flip[a]},{flip[b]}>"))
        assert not is_inner(CubicHom(C2, C2, tuple(perm)))

    def test_translation_is_inner(self, C2):
        assert is_inner(translation(C2))

    @pytest.mark.parametrize("fn", [
        is_inner, fixed_set, d_set,
        lambda phi: decompose(phi, phi.source.one),
        lambda phi: recover(phi, phi.source.one)],
        ids=["is_inner", "fixed_set", "d_set", "decompose", "recover"])
    def test_a_map_from_another_algebra_is_refused(self, C2, C3, fn):
        # a map whose target is not its source is no automorphism, though
        # a C2 map into C3 has in-range entries that compare as inner
        into_c3 = CubicHom(C2, C3, tuple(range(C2.size)))
        into_c2 = CubicHom(C3, C2, tuple(x % C2.size for x in C3.elements()))
        for phi in (into_c3, into_c2):
            with pytest.raises(ValueError, match="another algebra"):
                fn(phi)

    def test_a_map_from_an_equal_algebra_is_accepted(self, C3):
        copy = fresh(C3)
        phi = inner_group(C3)[1]
        twin = CubicHom(copy, C3, phi.map)
        assert copy is not C3 and is_inner(twin)
        assert fixed_set(twin) == fixed_set(phi)


def reference_alpha_beta_table(filt):
    """The element-by-element rescan of every member pair."""
    algebra, table = filt.carrier, {}
    members = sorted(filt.members)
    for x in algebra.elements():
        found = [(a, b) for a in members for b in members
                 if algebra.leq(b, a) and algebra.delta(a, b) == x]
        if len(found) != 1:
            raise NoDecomposition(
                f"element {x} has {len(found)} filter decompositions; "
                "filter is not generating" if not found else
                f"element {x} has {len(found)} filter decompositions"
            )
        table[x] = found[0]
    return table


def _table_or_error(fn, filt):
    try:
        return fn(filt)
    except NoDecomposition as exc:
        return str(exc)


class TestFilterCoordinates:
    @pytest.mark.parametrize("seed", [None, 3], ids=["C3", "C4~3"])
    def test_one_sweep_matches_the_rescan_on_every_filter(self, seed):
        alg = c3() if seed is None else relabel(build_I(b4()), seed)
        outcomes = []
        for filt in all_filters(alg):
            got = _table_or_error(alpha_beta_table, filt)
            assert got == _table_or_error(reference_alpha_beta_table, filt)
            outcomes.append("table" if isinstance(got, dict)
                            else "generating" in got)
        # unique coordinates, missing ones and repeated ones are all reached
        assert outcomes.count("table") == (8 if seed is None else 16)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("name", ["corpus", "C4~3", "C2-delta",
                                      "C3-delta"])
    def test_the_pair_count_agrees_with_the_table(self, name):
        # unique coordinates need exactly n member pairs b <= a; a filter
        # with n pairs can still decompose some element twice
        if name == "corpus":
            algebras = [alg for _, alg in cubic_corpus()]
        elif name == "C4~3":
            algebras = [relabel(build_I(b4()), 3)]
        else:
            algebras = list(delta_mutations(c2() if name == "C2-delta"
                                            else c3()))
            if name == "C3-delta":
                algebras = random.Random(name).sample(algebras, 150)
        seen = set()
        for alg in algebras:
            for filt in all_filters(alg):
                pairs = sum((filt.mask & alg._down[a]).bit_count()
                            for a in filt.sorted_members)
                unique = isinstance(_table_or_error(alpha_beta_table, filt),
                                    dict)
                assert has_unique_coordinates(filt) == unique
                seen.add((pairs == alg.size, unique))
        assert (True, True) in seen and (False, False) in seen
        if name.endswith("-delta"):
            assert (True, False) in seen

    def test_alpha_beta_examples(self, C2):
        f = principal_filter(C2, lab(C2, "<q,p>"))
        for x in f.members:
            assert alpha_beta_table(f)[x] == (x, x)
        assert alpha_beta_table(f)[lab(C2, "<p,q>")] == \
            (C2.one, lab(C2, "<q,p>"))
        assert alpha_beta_table(f)[C2.one] == (C2.one, C2.one)

    def test_improper_filter_has_no_unique_coordinates(self, C2):
        # generating alone is not enough: the improper filter reaches
        # every element but never uniquely
        whole = improper_filter(C2)
        assert is_gfilter(whole)
        assert not has_unique_coordinates(whole)
        with pytest.raises(NoDecomposition):
            alpha_beta_table(whole)

    def test_coordinate_gfilters_are_the_vertex_filters(self, C2):
        expected = {
            frozenset(principal_filter(C2, v).members)
            for v in (lab(C2, "<1,0>"), lab(C2, "<0,1>"),
                      lab(C2, "<p,q>"), lab(C2, "<q,p>"))
        }
        assert {f.members for f in coordinate_gfilters(C2)} == expected

    def test_gfilter_pair_rejects_bad_filters(self, C2, C3):
        # filters of two algebras, a filter that does not generate, and
        # the improper filter, which generates without unique coordinates
        vertex = principal_filter(C2, lab(C2, "<1,0>"))
        with pytest.raises(ValueError, match="different algebras"):
            filter_automorphism(vertex, coordinate_gfilters(C3)[0])
        with pytest.raises(NotGFilter, match="not generating"):
            filter_automorphism(principal_filter(C2, lab(C2, "<1,p>")), vertex)
        with pytest.raises(NotGFilter, match="decompositions"):
            filter_automorphism(vertex, improper_filter(C2))

    def test_unique_coordinates_imply_generating(
            self, C1, C2, C3, FA1, FA2, N5):
        # every element is some delta(a, b) of members when the
        # coordinates are unique, so filter_automorphism asks only that
        counts = []
        for alg in (C1, C2, C3, FA1, FA2, N5, C4):
            filters = all_filters(alg)
            unique = [f for f in filters if has_unique_coordinates(f)]
            assert all(is_gfilter(f) for f in unique)
            counts.append((len(filters), len(unique)))
        assert sum(n for n, _ in counts) == 376
        assert [u for _, u in counts] == [2, 4, 8, 2, 4, 4, 16]


class TestFilterAutomorphism:
    def test_equal_filters_give_identity(self, C2):
        f = principal_filter(C2, lab(C2, "<1,0>"))
        assert filter_automorphism(f, f).is_identity()

    def test_translation_worked_example(self, C2):
        phi = translation(C2)
        images = {C2.label(x): C2.label(phi(x)) for x in C2.elements()}
        assert images["<1,0>"] == "<q,p>"
        assert images["<1,p>"] == "<1,p>"   # on the shared edge
        assert images["<1,q>"] == "<q,1>"
        assert images["<1,1>"] == "<1,1>"

    def test_translation_is_the_unique_filter_automorphism(self, C2):
        f = principal_filter(C2, lab(C2, "<1,0>"))
        g = principal_filter(C2, lab(C2, "<q,p>"))
        matching = [
            phi for phi in enumerate_aut(C2)
            if {phi.map[x] for x in f.members} == set(g.members)
            and all(C2.sim(x, phi.map[x]) for x in f.members)
        ]
        assert [phi.map for phi in matching] == [translation(C2).map]

    def test_self_inverse(self, C2):
        phi = translation(C2)
        assert phi.compose(phi).is_identity()


class TestFixedSets:
    def test_identity_fixes_everything(self, C2):
        ident = CubicHom.identity(C2)
        assert fixed_set(ident) == frozenset(C2.elements())
        assert d_set(ident) == {C2.one}

    def test_translation_sets(self, C2):
        phi = translation(C2)
        assert fixed_set(phi) == members_by_label(
            C2, "<1,1>", "<1,p>", "<p,1>")
        assert d_set(phi) == members_by_label(
            C2, "<1,1>", "<1,q>", "<q,1>")

    def test_requires_inner(self, C2):
        flip = {"0": "0", "1": "1", "p": "q", "q": "p"}
        perm = tuple(
            lab(C2, "<{},{}>".format(*(flip[c] for c in
                                       C2.labels[i][1:-1].split(","))))
            for i in C2.elements())
        # fixed_set is the one gate, so each analysis refuses with its words
        for fn in (fixed_set, d_set, lambda phi: decompose(phi, C2.one),
                   lambda phi: recover(phi, C2.one)):
            with pytest.raises(NotInner, match="^fixed-set analysis needs "
                               "an inner automorphism$"):
                fn(CubicHom(C2, C2, perm))

    def test_decompose_and_recover(self, C2):
        phi = translation(C2)
        z = lab(C2, "<1,0>")
        z0, z1 = decompose(phi, z)
        assert (C2.label(z0), C2.label(z1)) == ("<1,p>", "<1,q>")
        assert recover(phi, z) == phi(z) == lab(C2, "<q,p>")

    def test_decompose_on_the_components(self, C2):
        phi = translation(C2)
        for z in fixed_set(phi):
            assert decompose(phi, z) == (z, C2.one)
            assert recover(phi, z) == z
        for z in d_set(phi):
            assert decompose(phi, z) == (C2.one, z)
            assert recover(phi, z) == C2.delta(C2.one, z)


class TestRecoveryFromFilters:
    def test_trivial_filter_recovers_the_mirror(self, C2):
        q = quotient_C(C2)
        phi = phi_from_boolean_filter(C2, trivial_filter(q.algebra))
        assert phi.map == tuple(C2.delta(C2.one, x) for x in C2.elements())

    def test_improper_filter_recovers_the_identity(self, C2):
        q = quotient_C(C2)
        phi = phi_from_boolean_filter(C2, improper_filter(q.algebra))
        assert phi.is_identity()

    def test_edge_class_filter_recovers_a_translation(self, C2):
        q = quotient_C(C2)
        edge_class = q.eta[lab(C2, "<1,p>")]
        phi = phi_from_boolean_filter(C2, principal_filter(q.algebra, edge_class))
        assert fixed_set(phi) == members_by_label(
            C2, "<1,1>", "<1,p>", "<p,1>")

    def test_rejects_foreign_filters(self, C2, B2):
        with pytest.raises(ValueError):
            phi_from_boolean_filter(C2, improper_filter(B2))

    def test_omega_counts(self, C1, C2, C3):
        assert len(omega(C1)) == 2
        assert len(omega(C2)) == 4
        assert len(omega(C3)) == 8

    def test_omega_round_trip(self, C2):
        for phi, filt in omega(C2):
            assert phi_from_boolean_filter(C2, filt).map == phi.map


def phi_from_boolean_filter_reference(algebra, filt):
    """phi_from_boolean_filter as it was written first: one pass over
    s1 x s2 for every element."""
    q = quotient_C(algebra)
    if filt.carrier != q.algebra:
        raise ValueError("filter must live in the collapse of the algebra")
    whole = improper_filter(q.algebra)
    if not is_F_boolean(filt, whole):
        raise NotBoolean("filter is not Boolean in the collapse")
    complement = impl_elem(filt, whole)
    s1 = frozenset(x for x in algebra.elements() if q.eta[x] in filt.members)
    s2 = frozenset(x for x in algebra.elements()
                   if q.eta[x] in complement.members)
    one = algebra.one
    if s1 & s2 != {one}:
        raise SplitFailure("component sets overlap beyond the top",
                           witness=tuple(sorted((s1 & s2) - {one})))
    perm = []
    for x in algebra.elements():
        hits = [(u, v) for u in s1 for v in s2 if algebra.meet(u, v) == x]
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


def _recovered(fn, alg, filt):
    try:
        return fn(alg, filt).map
    except MrkitError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


class TestRecoveryInOneSweep:
    @pytest.mark.parametrize("alg", [c3(), relabel(build_I(b4()), 3)],
                             ids=["C3", "C4~3"])
    def test_matches_the_reference_on_every_filter(self, alg):
        filters = all_filters(quotient_C(alg).algebra)
        got = [_recovered(phi_from_boolean_filter, alg, f) for f in filters]
        assert got == [_recovered(phi_from_boolean_filter_reference, alg, f)
                       for f in filters]
        # every Boolean filter recovers a map, every other one is refused
        assert sum(isinstance(g, tuple) and isinstance(g[0], int)
                   for g in got) == len(omega(alg))

    @pytest.mark.parametrize("splits", [0, 2])
    def test_a_bad_meet_table_names_the_same_first_element(
            self, monkeypatch, splits):
        # on a fresh copy of C3: x has no split when its one pair's meet
        # is removed, and two when the pair of a later element is moved
        # onto it
        alg = fresh(c3())
        q = quotient_C(alg)
        filt = next(f for f in all_filters(q.algebra)
                    if 1 < len(f.members) < q.algebra.size
                    and is_F_boolean(f, improper_filter(q.algebra)))
        phi_from_boolean_filter(alg, filt)
        comp = impl_elem(filt, improper_filter(q.algebra))
        pairs = {alg.meet(u, v): (u, v)
                 for u in alg.elements() if q.eta[u] in filt.members
                 for v in alg.elements() if q.eta[v] in comp.members}
        x, later = 0, alg.size - 1
        meets = [list(row) for row in alg._meet_table]
        if splits == 0:
            u, v = pairs[x]
            meets[u][v] = UNDEFINED
        else:
            u, v = pairs[later]
            meets[u][v] = x
        monkeypatch.setitem(alg.__dict__, "_meet_table",
                            tuple(map(tuple, meets)))
        got = _recovered(phi_from_boolean_filter, alg, filt)
        assert got == _recovered(phi_from_boolean_filter_reference, alg, filt)
        assert got == (SplitFailure, f"element {x} has {splits} splits", (x,))


class TestPresentationMachinery:
    def test_presentation_embeds_the_filter(self, C2):
        f = principal_filter(C2, lab(C2, "<1,0>"))
        pres = f_presentation(f)
        assert pres.hom.is_bijective()
        assert pres.target.size == C2.size
        # every filter element presents as its own natural embedding
        top = pres.impl.label(pres.impl.one)
        for x in f.members:
            idx = pres.hom.map[x]
            assert pres.target.labels[idx] == f"<{top},{C2.label(x)}>"

    def test_checking_a_map_builds_no_search_signatures(self, C2):
        # is_isomorphism reads only the rows: the pair algebra that
        # f_presentation builds and checks gets a struct without the
        # signatures, branch order or transposed rows; a search builds
        # them once, the reflection's transpose being the algebra's own
        pres = f_presentation(principal_filter(C2, lab(C2, "<1,0>")))
        target, lazy = pres.target, {"sigs", "classes", "branch",
                                     "order_t", "reads"}
        struct = _struct(target)
        assert not lazy & vars(struct).keys()
        ident = tuple(range(target.size))
        assert is_isomorphism(target, target, ident)
        assert not lazy & vars(struct).keys()
        assert "_delta_transpose" not in vars(target)
        assert find_isomorphism(target, target) is not None
        built = {name: getattr(struct, name) for name in lazy}
        assert find_isomorphism(target, target) is not None
        assert all(getattr(struct, name) is built[name] for name in lazy)
        assert struct.reads[-1][0] is target._delta_transpose

    def test_presentation_requires_generation(self, C2):
        with pytest.raises(NotGFilter):
            f_presentation(principal_filter(C2, lab(C2, "<1,p>")))

    # generating filters without unique coordinates, the improper filter
    # among them
    NON_COORDINATE = {"C1": 1, "C2": 5, "C3": 19, "FA1": 1, "FA2": 5,
                      "N5": 5}

    @pytest.mark.parametrize("name", sorted(NON_COORDINATE))
    def test_presentation_refuses_as_the_filter_automorphism(self, name,
                                                             request):
        # f_presentation succeeds exactly when filter_automorphism(f, f)
        # does; otherwise both raise the same NotGFilter
        def refusal(fn, filt):
            try:
                fn(filt)
            except NotGFilter as exc:
                return str(exc)
            return None

        alg = request.getfixturevalue(name)
        refused = []
        for filt in all_filters(alg):
            want = refusal(lambda f: filter_automorphism(f, f), filt)
            assert refusal(f_presentation, filt) == want
            if want is not None and is_gfilter(filt):
                refused.append(filt)
        assert len(refused) == self.NON_COORDINATE[name]
        assert improper_filter(alg) in refused

    def test_xi_identity(self, C2):
        q = quotient_C(C2)
        f = principal_filter(C2, lab(C2, "<1,0>"))
        ident = enumerate_aut(q.algebra)[0]
        assert ident.map == tuple(range(q.algebra.size))
        assert Xi(f, ident).map == tuple(range(f.members.__len__()))

    def test_xi_transports_the_atom_swap(self, C2):
        q = quotient_C(C2)
        f = principal_filter(C2, lab(C2, "<1,0>"))
        swap = next(a for a in enumerate_aut(q.algebra)
                    if a.map != tuple(range(q.algebra.size)))
        chi = Xi(f, swap)
        impl = chi.source
        by_label = {impl.label(i): impl.label(chi.map[i])
                    for i in impl.elements()}
        assert by_label["<1,p>"] == "<1,q>"
        assert by_label["<1,q>"] == "<1,p>"
        assert by_label["<1,1>"] == "<1,1>"

    def test_factoring(self, C2):
        f = principal_filter(C2, lab(C2, "<1,0>"))
        ident = tuple(range(quotient_C(C2).algebra.size))
        for phi in enumerate_aut(C2):
            image, chi = factor_automorphism(f, phi)
            assert {phi.map[x] for x in f.members} == set(image.members)
            if is_inner(phi):
                assert chi.map == ident

    def test_a_map_of_another_algebra_is_refused(self, C2, C3):
        # the automorphism and the collapse automorphism must be of the
        # filter's own algebra; a larger one's entries run off its carrier
        f = principal_filter(C2, lab(C2, "<1,0>"))
        with pytest.raises(ValueError, match="different algebras"):
            factor_automorphism(f, enumerate_aut(C3)[1])
        alpha = enumerate_aut(quotient_C(C3).algebra)[1]
        with pytest.raises(ValueError, match="automorphism of the collapse"):
            Xi(f, alpha)

    def test_factoring_identity(self, C2):
        f = principal_filter(C2, lab(C2, "<1,0>"))
        image, chi = factor_automorphism(f, CubicHom.identity(C2))
        assert image.members == f.members
        assert chi.map == tuple(range(len(f.members)))


class TestIntervalTranslations:
    def test_identity_translation(self, C2):
        v = lab(C2, "<1,0>")
        res = f_ab(C2, v, v)
        assert all(res.extension[z] == z for z in res.extension)

    def test_vertex_translation(self, C2):
        a, b = lab(C2, "<1,0>"), lab(C2, "<q,p>")
        res = f_ab(C2, a, b)
        assert res.interval_map[a] == b
        assert res.interval_map[C2.one] == C2.one
        assert set(res.interval_map.values()) == set(C2.up_set(b))
        phi = res.sub_automorphism()
        assert is_inner(phi)

    def test_rejects_inequivalent_points(self, C2):
        with pytest.raises(NotSim):
            f_ab(C2, lab(C2, "<1,p>"), lab(C2, "<1,q>"))


def reference_f_ab(algebra, a, b):
    """f_ab as it was: the extension loop calls the base map again where
    the interval map already holds its value."""
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
    return interval_map, extension


C4 = build_I(b4())


@pytest.mark.parametrize("name", ["C3", "C4", "C4~5"])
def test_f_ab_reads_its_interval_map(name):
    alg = {"C3": c3(), "C4": C4, "C4~5": relabel(C4, 5)}[name]
    pairs = 0
    for a in alg.elements():
        for g in alg.up_set(a):
            res = f_ab(alg, a, alg.delta(g, a))
            assert (res.interval_map, res.extension) == \
                reference_f_ab(alg, a, alg.delta(g, a))
            pairs += 1
    assert pairs == {"C3": 125, "C4": 625, "C4~5": 625}[name]


class TestLocalizeClosure:
    def test_top_seed(self, C2):
        closed = localize_closure(C2, [C2.one], [])
        assert closed.subalgebra.members == (C2.one,)

    def test_vertex_seed_reaches_everything(self, C3):
        closed = localize_closure(C3, [C3.minimal_elements[0]], [])
        assert closed.subalgebra.algebra.size == C3.size

    def test_edge_seed_with_automorphism(self, C3):
        edge = next(x for x in C3.elements() if len(C3.down_set(x)) == 3)
        phi = enumerate_aut(C3)[5]
        closed = localize_closure(C3, [edge], [phi])
        members = set(closed.subalgebra.members)
        assert edge in members
        assert {phi.map[x] for x in members} == members

    def test_a_generator_of_another_algebra_is_refused(self, C2, C3):
        # the generators must be maps of the algebra itself; another
        # algebra's entries index the wrong carrier
        for alg, other in ((C2, C3), (C3, C2)):
            with pytest.raises(ValueError, match="another algebra"):
                localize_closure(alg, [alg.one], [enumerate_aut(other)[1]])

    def test_generated_group(self, C2):
        auts = enumerate_aut(C2)
        group = generated_group(C2, auts[:2])
        perms = {phi.map for phi in group}
        for phi in group:
            for psi in group:
                assert phi.compose(psi).map in perms
