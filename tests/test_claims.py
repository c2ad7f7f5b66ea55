import dataclasses
import json
from pathlib import Path

import pytest

import mrkit.claims
import mrkit.cubic
from mrkit import automorphisms
from mrkit.automorphisms import (
    coordinate_gfilters,
    filter_automorphism,
    is_automorphism,
    is_isomorphism,
    orbit_representatives,
)
from mrkit.claims import CLAIMS, ClaimResult, VerifyContext, claim, run_claims
from mrkit.constructions import build_I
from mrkit.corpus import b4, c3
from mrkit.errors import MrkitError
from mrkit.filters import all_filters, as_filter, is_F_boolean
from mrkit.functors import CubicHom, ImplicationHom

from conftest import fresh, relabel

VERDICTS = Path(__file__).resolve().parent.parent / "perfbench" / \
    "corpus_verdicts.json"


class TestRequiresMr:
    def test_flag_marks_exactly_the_claims_that_skip_n5(self):
        skips = json.loads(VERDICTS.read_text())["skip"]
        want = {cid for cid, instances in skips.items() if "N5" in instances}
        assert len(want) == 26
        assert {cid for cid, spec in CLAIMS.items() if spec.requires_mr} == want

    def test_each_skips_a_non_mr_instance_once(self, N5, C1):
        ids = sorted(cid for cid, spec in CLAIMS.items() if spec.requires_mr)
        ctx = VerifyContext(algebras=(("N5", N5), ("C1", C1)))
        results = run_claims(ctx, ids)
        for cid in ids:
            mine = [r for r in results if r.claim_id == cid]
            skipped = [r for r in mine if r.status == "skip"]
            assert [(r.instance, r.witness) for r in skipped] == \
                [("N5", "not MR")], cid
            assert [r.instance for r in mine if r.status == "pass"] == ["C1"]

    def test_run_sees_only_mr_instances(self, N5, C1, monkeypatch):
        seen = []

        def probe(ctx):
            seen.extend(name for name, _ in ctx.algebras)
            return []

        cid = "thm:TwoTorsion"
        monkeypatch.setitem(CLAIMS, cid,
                            dataclasses.replace(CLAIMS[cid], run=probe))
        run_claims(VerifyContext(algebras=(("N5", N5), ("C1", C1))), [cid])
        assert seen == ["C1"]


class TestEachHarness:
    """The run that ``claim`` registers: for an "each" body one result per
    instance in context order, for a "global" body one per verdict in the
    order yielded; "pass", "fail", or "skip" for None, with the witness."""

    def run(self, monkeypatch, body, C1, C2, scope="each"):
        monkeypatch.setattr(mrkit.claims, "CLAIMS", {})
        assert claim(f"test:{scope}", "a synthetic claim", scope)(body) \
            is body
        ctx = VerifyContext(algebras=(("A", C1), ("B", C2)))
        return run_claims(ctx, [f"test:{scope}"])

    @pytest.mark.parametrize("passed,witness", [
        (True, None), (True, {"n": 1}), (False, [(0, 1)]), (False, None)],
        ids=["pass", "pass-witness", "fail-witness", "fail"])
    def test_each_instance_gets_the_body_verdict(self, passed, witness,
                                                 monkeypatch, C1, C2):
        seen = []

        def body(ctx, alg):
            seen.append(alg)
            return passed, witness

        status = "pass" if passed else "fail"
        assert self.run(monkeypatch, body, C1, C2) == [
            ClaimResult("test:each", "A", status, witness),
            ClaimResult("test:each", "B", status, witness)]
        assert seen == [C1, C2]

    def test_an_error_keeps_the_earlier_instances(self, monkeypatch, C1, C2):
        def body(ctx, alg):
            if alg is C2:
                raise MrkitError("broken at B")
            return True, None

        assert self.run(monkeypatch, body, C1, C2) == [
            ClaimResult("test:each", "A", "pass"),
            ClaimResult("test:each", "error", "fail", "broken at B")]

    def test_global_verdicts_become_results_in_order(self, monkeypatch, C1,
                                                     C2):
        seen = []

        def body(ctx):
            seen.append([name for name, _ in ctx.algebras])
            yield "z", True, {"n": 1}
            yield "y", False, [(0, 1)]
            yield "x", None, "no such instance"
            yield "w", True, None

        self.run(monkeypatch, body, C1, C2, "global")
        assert seen == [["A", "B"]]
        ctx = VerifyContext(algebras=())
        assert list(mrkit.claims.CLAIMS["test:global"].run(ctx)) == [
            ClaimResult("test:global", "z", "pass", {"n": 1}),
            ClaimResult("test:global", "y", "fail", [(0, 1)]),
            ClaimResult("test:global", "x", "skip", "no such instance"),
            ClaimResult("test:global", "w", "pass")]

    def test_a_global_error_keeps_the_earlier_results(self, monkeypatch, C1,
                                                      C2):
        def body(ctx):
            yield "first", True, None
            yield "second", None, "skipped"
            raise MrkitError("broken after two")

        assert self.run(monkeypatch, body, C1, C2, "global") == [
            ClaimResult("test:global", "error", "fail", "broken after two"),
            ClaimResult("test:global", "first", "pass"),
            ClaimResult("test:global", "second", "skip", "skipped")]


def test_a_repeated_claim_id_runs_once(C2, C3):
    # each claim runs once, at its first mention, however often it is named
    ctx = VerifyContext(algebras=(("C2", C2), ("C3", C3)))
    once = run_claims(ctx, ["lem:kl", "axioms:cubic"])
    assert run_claims(ctx, ["lem:kl", "axioms:cubic", "lem:kl"]) == once
    assert len(once) == 4


def test_axioms_mr_checks_each_instance_once(corpus, monkeypatch):
    # replaying a witness evaluates its one triple, not the whole checker
    calls = []
    check = mrkit.cubic.check_mr_axiom

    def counted(algebra, *args, **kwargs):
        calls.append(algebra)
        return check(algebra, *args, **kwargs)

    monkeypatch.setattr(mrkit.cubic, "check_mr_axiom", counted)
    monkeypatch.setattr(mrkit.claims, "check_mr_axiom", counted)
    results = run_claims(VerifyContext(algebras=tuple(corpus)), ["axioms:mr"])
    assert [r.status for r in results] == ["pass"] * len(corpus)
    assert [r.witness for r in results if r.instance == "N5"] == \
        [{"mr": False}]
    assert calls == [alg for _, alg in corpus]


# -- filter automorphisms and Boolean traces on C4 ------------------------------

C4 = build_I(b4())


def test_filter_automorphisms_are_built_once_per_pair(monkeypatch):
    # the 16 coordinate generating filters of C4 form one automorphism
    # orbit, so on a pass lem:fixed reads the first of them only and builds
    # its 16 filter automorphisms, one per pair (first, g); lem:DeltaFixed
    # reads every one of them back from the memo.  The 16 maps are
    # distinct permutations, and is_automorphism verifies each once.  The
    # group the orbit scan reads is searched before the count starts
    automorphisms.enumerate_aut(C4)
    verified = []
    check = automorphisms._verify_map
    monkeypatch.setattr(automorphisms, "_verify_map",
                        lambda *args: verified.append(args) or check(*args))
    filter_automorphism.cache_clear()
    is_automorphism.cache_clear()
    ctx = VerifyContext(algebras=(("C4", C4),))
    for cid in ("lem:fixed", "lem:DeltaFixed"):
        assert [r.status for r in run_claims(ctx, [cid])] == ["pass"]
    info = filter_automorphism.cache_info()
    assert (info.misses, info.hits, info.currsize) == (16, 16, 16)
    assert len(verified) == len({m for _, _, m in verified}) == 16
    info = is_automorphism.cache_info()
    assert (info.misses, info.hits) == (16, 0)


def test_a_two_point_swap_is_rejected_when_asked_again():
    # the memo keys on the permutation: a key that dropped it would hand
    # the identity's verdict, asked first, to the swap
    alg = fresh(c3())  # a fresh copy, with no memo entries
    identity = tuple(range(alg.size))
    swap = list(identity)
    swap[0], swap[1] = swap[1], swap[0]
    swap = tuple(swap)
    is_automorphism.cache_clear()
    assert is_automorphism(alg, identity)
    assert not is_automorphism(alg, swap)
    assert not is_automorphism(alg, swap)
    assert not is_isomorphism(alg, alg, swap)
    info = is_automorphism.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def local_boolean_reference(alg):
    """lem:localBoolean as it was written first: every intersection built
    through the validating entry.  The first failing pair, or None."""
    is_boolean = mrkit.claims.is_F_boolean
    for f in coordinate_gfilters(alg):
        booleans = [g for g in all_filters(alg)
                    if g.members <= f.members and is_boolean(g, f)]
        subs = [h for h in all_filters(alg) if h.members <= f.members]
        for g in booleans:
            for h in subs:
                if not is_boolean(as_filter(alg, g.members & h.members), h):
                    return (sorted(g.members), sorted(h.members))
    return None


def local_boolean(alg):
    [result] = run_claims(VerifyContext(algebras=(("A", alg),)),
                          ["lem:localBoolean"])
    return result


@pytest.mark.parametrize("alg", [c3(), C4], ids=["C3", "C4"])
def test_local_boolean_matches_the_validating_loop(alg):
    assert local_boolean_reference(alg) is None
    assert local_boolean(alg).status == "pass"


@pytest.mark.parametrize("alg", [c3(), C4], ids=["C3", "C4"])
def test_local_boolean_names_the_same_first_failure(alg, monkeypatch):
    # a wrong verdict on one (g & h, h) pair, deep in the loop, fails the
    # claim; both routes name the same first (g, h)
    f = coordinate_gfilters(alg)[1]
    subs = [h for h in all_filters(alg) if h.members < f.members]
    booleans = [g for g in all_filters(alg)
                if g.members <= f.members and is_F_boolean(g, f)]
    h = subs[len(subs) // 2]
    target = (booleans[len(booleans) // 2].members & h.members, h.members)
    real = is_F_boolean
    monkeypatch.setattr(mrkit.claims, "is_F_boolean", lambda g, f: real(g, f)
                        and (g.members, f.members) != target)
    want = local_boolean_reference(alg)
    assert want is not None
    result = local_boolean(alg)
    assert (result.status, result.witness) == ("fail", [want])


# -- eq:oneAA and eq:twoAA ------------------------------------------------------


def interval_agreement_reference(alg, side):
    """eq:oneAA (side 1) and eq:twoAA (side 2) as first written: after the
    extension test, the joins of both values with the anchor are compared.
    The claim's witness: the first three faults, or None."""
    f_ab = mrkit.claims.f_ab
    one = alg.one
    bad = []
    for a in alg.elements():
        for g in alg.elements():
            if not alg.leq(a, g):
                continue
            h = alg.implies(g, a)
            b = alg.delta(g, a)
            translation = f_ab(alg, a, b)
            for z in translation.localization.members:
                z1 = alg.join(z, alg.delta(alg.join(g, z), g))
                z2 = alg.join(z, alg.delta(alg.join(h, z), h))
                phi_g = alg.meet(z1, alg.delta(one, z2))
                ext = translation.extension[z]
                if phi_g is None or ext != phi_g:
                    bad.append((a, g, z))
                    continue
                anchor = b if side == 1 else alg.delta(one, b)
                if alg.join(ext, anchor) != alg.join(phi_g, anchor):
                    bad.append((a, g, z))
        if bad:
            break
    return bad[:3] or None


def interval_agreement(alg):
    ctx = VerifyContext(algebras=(("A", alg),))
    return run_claims(ctx, ["eq:oneAA", "eq:twoAA"])


@pytest.mark.parametrize("alg", [c3(), C4, relabel(C4, 11)],
                         ids=["C3", "C4", "C4~11"])
def test_interval_agreement_matches_both_sides(alg):
    assert interval_agreement_reference(alg, 1) is None
    assert interval_agreement_reference(alg, 2) is None
    assert [r.status for r in interval_agreement(alg)] == ["pass", "pass"]


def test_both_sides_name_the_same_first_fault(monkeypatch):
    # one wrong extension entry of one translation, deep in the loop,
    # fails both claims at the same first (a, g, z); eq:twoAA reads the
    # fault list eq:oneAA computed.  The claims scan the first point of
    # each automorphism orbit, so a is one of those
    alg = fresh(c3())  # a fresh copy, with no memo entries
    reps = orbit_representatives(alg, tuple(1 << a for a in alg.elements()))
    pairs = [(a, g) for a in (m.bit_length() - 1 for m in reps)
             for g in alg.elements() if alg.leq(a, g) and a != g]
    a, g = pairs[len(pairs) // 2]
    b = alg.delta(g, a)
    real = mrkit.claims.f_ab
    z = sorted(real(alg, a, b).localization.members)[1]

    def wrong(algebra, x, y):
        t = real(algebra, x, y)
        if (x, y) != (a, b):
            return t
        value = (t.extension[z] + 1) % algebra.size
        return fresh(t, extension={**t.extension, z: value})

    monkeypatch.setattr(mrkit.claims, "f_ab", wrong)
    want = interval_agreement_reference(alg, 1)
    assert want == interval_agreement_reference(alg, 2)
    assert want[0][0] == a and want[0][2] == z
    faults = mrkit.claims._interval_faults
    before = faults.cache_info()
    one, two = interval_agreement(alg)
    assert (one.status, one.witness) == (two.status, two.witness) == \
        ("fail", want)
    after = faults.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


# -- falsifiers of the map-layer claims ----------------------------------------

def lift_the_identity(monkeypatch):
    """The base part of every factorization lifts the identity, not chi."""
    real = automorphisms.extend_base_automorphism
    monkeypatch.setattr(
        automorphisms, "extend_base_automorphism", lambda filt, chi:
        real(filt, ImplicationHom.identity(chi.source)))


def identity_kappa(monkeypatch):
    monkeypatch.setattr(mrkit.claims, "kappa", CubicHom.identity)


def swap_two_embedded_pairs(monkeypatch):
    """Swap the indices of (1, x) and (1, y), x and y the first two
    elements below the top."""
    real = mrkit.claims.pair_index

    def swapped(impl):
        idx = dict(real(impl))
        p, q = [(impl.one, x) for x in impl.elements() if x != impl.one][:2]
        idx[p], idx[q] = idx[q], idx[p]
        return idx

    monkeypatch.setattr(mrkit.claims, "pair_index", swapped)


@pytest.mark.parametrize("cid,defect", [
    ("thm:factoring", lift_the_identity),
    ("kappa:not-iso", identity_kappa),
    ("e:embedding", swap_two_embedded_pairs),
], ids=["factoring", "kappa", "embedding"])
def test_a_map_layer_claim_fails_with_its_defect(monkeypatch, C2, C3, cid,
                                                 defect):
    ctx = VerifyContext(algebras=(("C2", C2), ("C3", C3)))
    assert {r.status for r in run_claims(ctx, [cid])} == {"pass"}
    defect(monkeypatch)
    assert {r.status for r in run_claims(ctx, [cid])} == {"fail"}
