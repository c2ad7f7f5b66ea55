"""The trusted constructor against the validating one, and the unchecked
pair build against the strict walk it replaced.

``cubic._trusted`` skips ``CubicAlgebra.__post_init__`` for the induced
subalgebras and the pair algebras of validated implication algebras.
Every algebra it builds here must be accepted by ``CubicAlgebra(**fields)``
and compare equal to what that builds; every pair algebra must equal the
one ``reference_pair_algebra``, the strict element-by-element walk, builds.
A wrong pair reflection must still make the claims that build pair algebras
unchecked fail.
"""

import json
import random

import pytest

import mrkit.automorphisms as automorphisms
import mrkit.claims as claims
import mrkit.constructions as constructions
import mrkit.cubic as cubic
import mrkit.functors as functors
from mrkit.automorphisms import coordinate_gfilters, fixed_set, inner_group
from mrkit.claims import VerifyContext, run_claims
from mrkit.constructions import (
    ImplicationAlgebra,
    _pair_algebra,
    boolean_algebra,
    build_I,
    implication_subalgebra,
    pair_carrier,
    pair_index,
)
from mrkit.cli import main
from mrkit.corpus import b2, b3, b4, c2, c3, cubic_corpus, i3
from mrkit.cubic import (
    UNDEFINED,
    CubicAlgebra,
    Subalgebra,
    _bits,
    from_json_dict,
    is_cubic,
    localize,
    to_json_dict,
)
from mrkit.errors import InvalidAlgebra
from mrkit.functors import CubicHom, quotient_C, upward_closed_subalgebras

from conftest import fresh, relabel


def reference_pair_algebra(algebra) -> CubicAlgebra:
    """The strict pair walk: every entry from the base's operations, pair
    by pair, then the validating constructor and the cubic axioms."""
    carrier = pair_carrier(algebra)
    n = len(carrier)
    idx = pair_index(algebra)
    leq = [[0] * n for _ in range(n)]
    jn = [[0] * n for _ in range(n)]
    dl = [[UNDEFINED] * n for _ in range(n)]
    for i, p in enumerate(carrier):
        for j, q in enumerate(carrier):
            if algebra.leq(p.first, q.first) and algebra.leq(p.second, q.second):
                leq[i][j] = 1
            jn[i][j] = idx[(algebra.join(p.first, q.first),
                            algebra.join(p.second, q.second))]
    for i, p in enumerate(carrier):
        for j, q in enumerate(carrier):
            if not leq[j][i]:
                continue
            a, b = p.first, p.second
            c, d = q.first, q.second
            u = algebra.meet(a, algebra.implies(b, d))
            v = algebra.meet(b, algebra.implies(a, c))
            if u is None or v is None or (u, v) not in idx:
                raise InvalidAlgebra(
                    f"pair reflection undefined at ({i},{j}); defect in base"
                )
            dl[i][j] = idx[(u, v)]
    labels = tuple(f"<{algebra.label(p.first)},{algebra.label(p.second)}>"
                   for p in carrier)
    return CubicAlgebra.from_tables(
        leq, jn, dl, idx[(algebra.one, algebra.one)],
        labels=labels, name=f"I({algebra.algebra_id})",
    )


@pytest.fixture
def trusted(monkeypatch):
    """Every algebra ``_trusted`` builds while the test runs."""
    built = []
    make = cubic._trusted

    def record(**fields):
        built.append(make(**fields))
        return built[-1]

    for module in (cubic, constructions):
        monkeypatch.setattr(module, "_trusted", record)
    return built


def assert_validated_equal(built):
    for algebra in built:
        assert fresh(algebra) == algebra


C4 = build_I(b4())
CUBES = {"C3": c3(), "C4": C4, "C4~11": relabel(C4, 11)}


@pytest.mark.parametrize("name", sorted(CUBES))
def test_localization_subalgebras(name, trusted):
    alg = fresh(CUBES[name])
    subs = [localize(alg, a).subalgebra.algebra for a in alg.elements()]
    assert trusted == subs and len(subs) == alg.size
    assert_validated_equal(trusted)


@pytest.mark.parametrize("name,count", [("C3", 19), ("C4", 167)])
def test_upward_closed_subalgebras(name, count, trusted):
    alg = CUBES[name]
    subs = [Subalgebra(alg, _bits(m)).algebra
            for m in upward_closed_subalgebras(alg)]
    assert trusted == subs and len(subs) == count
    assert_validated_equal(trusted)


def test_fixed_sets(trusted):
    # the identity fixes the whole carrier and reads the algebra's own MR
    # verdict; each other inner automorphism induces its fixed set
    alg = fresh(C4)
    inner = inner_group(alg)
    [identity] = [phi for phi in inner if phi.is_identity()]
    assert fixed_set(identity) == frozenset(alg.elements())
    assert trusted == []
    others = [phi for phi in inner if phi is not identity]
    fixed = [fixed_set(phi) for phi in others]
    assert len(trusted) == len(others) == 15
    assert [set(sub.labels) for sub in trusted] == \
        [{alg.label(x) for x in f} for f in fixed]
    assert_validated_equal(trusted)


def test_the_identity_fixed_set_keeps_the_mr_refusal(N5):
    # N5 is cubic but not MR, so its identity's fixed set, the whole
    # carrier, is refused as the induced copy was
    with pytest.raises(InvalidAlgebra,
                       match="fixed set is not an MR-subalgebra"):
        fixed_set(CubicHom.identity(fresh(N5)))


def pair_bases():
    """Bases whose pair algebras the package builds, each a fresh
    instance: the cubes' Boolean algebras, the corpus bases, the
    collapses of the corpus and of C4, and the implication algebras of
    C4's coordinate generating filters."""
    bases = [fresh(boolean_algebra(n)) for n in (1, 2, 3, 4)]
    bases += [fresh(b2()), fresh(b3()), fresh(i3())]
    bases += [quotient_C(fresh(alg)).algebra
              for _, alg in cubic_corpus() + [("C4", C4)]]
    bases += [implication_subalgebra(C4, f.sorted_members)
              for f in coordinate_gfilters(C4)]
    return bases


def test_pair_builds(trusted):
    bases = pair_bases()
    assert len(bases) == 4 + 3 + 7 + 16
    trusted.clear()  # the corpus builds its instances on first use
    for base in bases:
        pair = _pair_algebra(base)
        assert trusted[-1] is pair
        assert pair == reference_pair_algebra(base)
    assert len(trusted) == len(bases)
    assert_validated_equal(trusted)


def test_build_I_is_the_pair_build_checked():
    base = fresh(boolean_algebra(3))
    assert build_I(base) is _pair_algebra(base)


# defects of B2, whose 0, p, q, 1 are 0, 1, 2, 3, in its implication and
# meet tables

def no_exchange(imp, meet):
    imp[:] = [list(range(4))] * 4  # x -> y = y


def one_wrong_implication(imp, meet):
    imp[1][0] ^= 1  # p -> 0 = 1, not q


def one_missing_meet(imp, meet):
    meet[1][2] = UNDEFINED  # p ^ q undefined, q ^ p = 0


DEFECTS = {"NoExchange": no_exchange,
           "OneWrongImplication": one_wrong_implication,
           "OneMissingMeet": one_missing_meet}


def bent(defect):
    """B2 named "bent" with one defect in its tables, created without the
    validation that would refuse it."""
    b2 = boolean_algebra(2)
    imp, meet = map(lambda t: [list(row) for row in t],
                    (b2.implies_table, b2._meet_table))
    DEFECTS[defect](imp, meet)
    alg = object.__new__(ImplicationAlgebra)
    alg.__dict__.update(
        {name: getattr(b2, name) for name in b2._fields},
        name="bent", implies_table=tuple(map(tuple, imp)),
        _meet_table=tuple(map(tuple, meet)))
    return alg


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_build_I_keeps_its_errors(defect):
    with pytest.raises(InvalidAlgebra) as want:
        reference_pair_algebra(bent(defect))
    with pytest.raises(InvalidAlgebra) as got:
        build_I(bent(defect))
    assert str(got.value) == str(want.value)
    assert got.value.report == want.value.report


# -- a wrong pair reflection must not pass ------------------------------------

UNCHECKED = ("eq:iotaKappa", "xi:group-iso", "lem:phiE")


def wrong_reflection(seed):
    """The private pair build with one in-domain reflection entry changed."""
    build = constructions._pair_algebra

    def mutant(base):
        pair = build(base)
        rng = random.Random(seed)
        x = rng.randrange(pair.size)
        y = rng.choice(list(_bits(pair._down[x])))
        delta = [list(row) for row in pair.delta_table]
        delta[x][y] = rng.choice([v for v in range(pair.size)
                                  if v != delta[x][y]])
        return fresh(pair, delta_table=tuple(map(tuple, delta)))
    return mutant


@pytest.mark.parametrize("seed", range(6))
def test_wrong_pair_reflection_fails_the_claims(seed, monkeypatch):
    mutant = wrong_reflection(seed)
    for module in (functors, automorphisms):
        monkeypatch.setattr(module, "_pair_algebra", mutant)
    results = run_claims(VerifyContext(algebras=(("C4", fresh(C4)),)),
                         list(UNCHECKED))
    assert sorted(r.claim_id for r in results) == sorted(UNCHECKED)
    assert {r.status for r in results} == {"fail"}


# -- one cubic verdict per algebra ---------------------------------------------

@pytest.fixture
def checks(monkeypatch):
    """The ids of the algebras ``check_cubic_axioms`` runs on while the
    test runs."""
    seen = []
    check = cubic.check_cubic_axioms
    monkeypatch.setattr(cubic, "check_cubic_axioms", lambda alg, *args:
                        seen.append(id(alg)) or check(alg, *args))
    return seen


def test_strict_loads_share_the_verdict_with_the_gate(checks):
    doc = to_json_dict(c3())
    alg = from_json_dict(doc)
    assert checks == [id(alg)]
    run_claims(VerifyContext(algebras=(("C3", alg),)), ["lem:kl"])
    assert is_cubic(alg) and checks == [id(alg)]
    raw = from_json_dict(doc, strict=False)
    run_claims(VerifyContext(algebras=(("C3", raw),)), ["lem:kl"])
    assert checks == [id(alg), id(raw)]


def test_build_I_shares_the_verdict_with_the_gate(checks):
    cubes = [(f"C{n}", build_I(fresh(boolean_algebra(n))))
             for n in (1, 2, 3)]
    assert checks == [id(alg) for _, alg in cubes]
    results = run_claims(VerifyContext(algebras=tuple(cubes)),
                         ["lem:kl", "eq:iotaKappa"])
    assert {r.status for r in results} == {"pass"}
    assert checks == [id(alg) for _, alg in cubes]


@pytest.mark.parametrize("policy", ["first", "all"])
def test_a_passing_suite_checks_each_algebra_once(monkeypatch, tmp_path,
                                                  capsys, policy):
    # axioms:cubic called check_cubic_axioms itself, and the is_cubic gate
    # of the next claim checked the input again; now the claim reads the
    # gate's report.  The algebras are kept, so no two share an id
    seen = []
    for module in (cubic, claims):
        check = module.check_cubic_axioms
        monkeypatch.setattr(module, "check_cubic_axioms", lambda alg, *args,
                            check=check: seen.append(alg) or check(alg, *args))
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(to_json_dict(build_I(b4()))))
    assert main(["verify", "--witness", policy, "-i", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    # the input, and two pair algebras the claims build strictly: over the
    # collapse, I(C(I(B4))), and over a filter, I(I(B4)^F16)
    assert len(seen) == len({id(alg) for alg in seen}) == 3


@pytest.mark.parametrize("policy", ["first", "all"])
def test_a_failing_axioms_claim_keeps_its_witnesses(checks, policy):
    # C2 with delta(1, 0) made the top breaks several laws at once
    doc = to_json_dict(c2())
    doc["delta"][doc["one"]][0] = doc["one"]
    alg = from_json_dict(doc, strict=False)
    want = list(cubic.check_cubic_axioms(
        from_json_dict(doc, strict=False), policy).violations)
    assert (len(want) == 1) if policy == "first" else (len(want) > 1)
    [result] = run_claims(VerifyContext(algebras=(("bad", alg),),
                                        witness_policy=policy),
                          ["axioms:cubic"])
    assert (result.status, result.witness) == ("fail", want)
