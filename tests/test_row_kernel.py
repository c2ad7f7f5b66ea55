"""The row-wise law kernel against the entry-by-entry checkers it replaced.

The references below are the earlier ``check_cubic_axioms``,
``replay_witness``, ``ImplicationAlgebra`` law checks, ``check_hom`` and
``check_impl_hom`` (``check_hom`` on an ``ImplicationHom`` today), kept
unchanged.  Verdicts, violation lists (under
both witness policies) and error messages must match exactly.
"""

import random
import re
from types import SimpleNamespace

import pytest

from mrkit import cubic
from mrkit.automorphisms import enumerate_aut
from mrkit.constructions import (
    ImplicationAlgebra,
    boolean_algebra,
    build_I,
    implication_subalgebra,
    pair_index,
)
from mrkit.corpus import (
    b2,
    b3,
    b4,
    c2,
    c3,
    cubic_corpus,
    seeded_implication_algebras,
)
from mrkit.cubic import (
    UNDEFINED,
    AxiomReport,
    CubicAlgebra,
    _bits,
    _Laws,
    _report,
    check_cubic_axioms,
    check_mr_axiom,
    replay_witness,
)
from mrkit.errors import InvalidAlgebra
from mrkit.functors import (
    CubicHom,
    ImplicationHom,
    _hom_faults,
    check_hom,
    functor_C_hom,
    functor_I_hom,
    iota,
    kappa,
    quotient_C,
)

from conftest import _extreme, mutate


# -- references ----------------------------------------------------------------

class _Witnesses:
    """Collects violations respecting the first/all witness policy."""

    def __init__(self, policy: str):
        if policy not in ("first", "all"):
            raise ValueError(f"unknown witness policy {policy!r}")
        self.policy = policy
        self.items: list[tuple[str, tuple[int, ...]]] = []

    def add(self, axiom_id: str, witness: tuple[int, ...]) -> bool:
        """Record a violation; returns True when scanning should stop."""
        self.items.append((axiom_id, witness))
        return self.policy == "first"

    @property
    def stop(self) -> bool:
        return self.policy == "first" and bool(self.items)

    def report(self) -> AxiomReport:
        return AxiomReport(tuple(self.items))


def reference_check_cubic_axioms(algebra, witness_policy="first"):
    n = algebra.size
    leq = algebra.leq_table
    jn = algebra.join_table
    dl = algebra.delta_table
    one = algebra.one
    up = algebra._up
    out = _Witnesses(witness_policy)

    def d(x, y):
        # guarded reflection: None when outside the order domain
        return dl[x][y] if leq[y][x] else None

    def imp(x, y):
        t = d(jn[x][y], y)
        if t is None:
            return None
        t = d(one, t)
        if t is None:
            return None
        return jn[t][y]

    for x in range(n):
        for y in range(n):
            if jn[x][y] != _extreme(up[x] & up[y], up):
                if out.add("join-lub", (x, y)):
                    return out.report()

    for x in range(n):
        for y in range(n):
            if not leq[x][y]:
                continue
            if jn[dl[y][x]][x] != y:
                if out.add("a", (x, y)):
                    return out.report()
            t = d(y, dl[y][x])
            if t is None or t != x:
                if out.add("c", (x, y)):
                    return out.report()

    for x in range(n):
        for y in range(n):
            if not leq[x][y]:
                continue
            for z in range(n):
                if not leq[y][z]:
                    continue
                lhs = d(z, dl[y][x])
                r = d(z, x)
                s = d(z, y)
                rhs = d(s, r) if (r is not None and s is not None) else None
                if lhs is None or rhs is None or lhs != rhs:
                    if out.add("b", (x, y, z)):
                        return out.report()
                if r is None or s is None or not leq[r][s]:
                    if out.add("d", (x, y, z)):
                        return out.report()

    for x in range(n):
        for y in range(n):
            t = imp(x, y)
            u = imp(t, y) if t is not None else None
            if u is None or u != jn[x][y]:
                if out.add("e", (x, y)):
                    return out.report()

    for x in range(n):
        for y in range(n):
            for z in range(n):
                yz = imp(y, z)
                xz = imp(x, z)
                lhs = imp(x, yz) if yz is not None else None
                rhs = imp(y, xz) if xz is not None else None
                if lhs is None or rhs is None or lhs != rhs:
                    if out.add("f", (x, y, z)):
                        return out.report()

    return out.report()


def _mr_failures(algebra, x, a, bs):
    """The b in ``bs`` at which (x, a, b), with a, b < x, breaks the axiom."""
    row = algebra.join_table[algebra.delta_table[x][a]]
    meets = algebra._meet_table[a]
    return [b for b in bs if (row[b] != x) != (meets[b] == UNDEFINED)]


def reference_check_mr_axiom(algebra, witness_policy="first"):
    out = _Witnesses(witness_policy)
    for x in algebra.elements():
        below = algebra._down[x] & ~(1 << x)
        for a in _bits(below):
            for b in _mr_failures(algebra, x, a, _bits(below)):
                if out.add("mr", (x, a, b)):
                    return out.report()
    return out.report()


def reference_replay_witness(algebra, axiom_id, witness):
    # reference_check_cubic_axioms is memoised per algebra in the replay test
    if axiom_id == "mr":
        if len(witness) != 3 or not all(0 <= v < algebra.size for v in witness):
            return False
        x, a, b = witness
        below = algebra._down[x] & ~(1 << x)
        in_domain = below >> a & 1 and below >> b & 1
        return bool(in_domain and _mr_failures(algebra, x, a, [b]))
    report = reference_check_cubic_axioms(algebra, witness_policy="all")
    return (axiom_id, tuple(witness)) in report.violations


def reference_implication_laws(self):
    """The law checks of the ImplicationAlgebra constructor, after the
    order validation they follow."""
    n, jn, imp, up = self.size, self.join_table, self.implies_table, self._up
    for x in range(n):
        for y in range(n):
            if jn[x][y] != _extreme(up[x] & up[y], up):
                raise InvalidAlgebra(f"join({x},{y}) is not the least upper bound")
            if imp[imp[x][y]][y] != jn[x][y]:
                raise InvalidAlgebra(f"(x->y)->y = x v y fails at ({x},{y})")
            if (jn[x][y] == self.one) != (imp[x][y] == y):
                raise InvalidAlgebra(f"x v y = 1 iff x->y = y fails at ({x},{y})")
        if imp[x][x] != self.one:
            raise InvalidAlgebra(f"x->x = 1 fails at {x}")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if imp[x][imp[y][z]] != imp[y][imp[x][z]]:
                    raise InvalidAlgebra(f"exchange law fails at ({x},{y},{z})")


def reference_check_hom(f, witness_policy="first"):
    src, dst, m = f.source, f.target, f.map
    out = _Witnesses(witness_policy)
    if m[src.one] != dst.one:
        out.add("one", (src.one,))
        if out.stop:
            return out.report()
    for x in src.elements():
        for y in src.elements():
            if m[src.join(x, y)] != dst.join(m[x], m[y]):
                if out.add("join", (x, y)):
                    return out.report()
            if src.leq(y, x):
                if not dst.leq(m[y], m[x]) or m[src.delta(x, y)] != dst.delta(m[x], m[y]):
                    if out.add("delta", (x, y)):
                        return out.report()
            if src.sim(x, y) and not dst.sim(m[x], m[y]):
                if out.add("sim", (x, y)):
                    return out.report()
    return out.report()


def reference_check_impl_hom(f, witness_policy="first"):
    src, dst, m = f.source, f.target, f.map
    out = _Witnesses(witness_policy)
    if m[src.one] != dst.one:
        out.add("one", (src.one,))
        if out.stop:
            return out.report()
    for x in src.elements():
        for y in src.elements():
            if m[src.join(x, y)] != dst.join(m[x], m[y]):
                if out.add("join", (x, y)):
                    return out.report()
            if m[src.implies(x, y)] != dst.implies(m[x], m[y]):
                if out.add("implies", (x, y)):
                    return out.report()
    return out.report()


# -- instances -------------------------------------------------------------------

SEEDS = (1, 7, 42)


def seeded_bases():
    return [impl for seed in SEEDS
            for impl in seeded_implication_algebras(seed, 5)]


def one_point():
    return build_I(boolean_algebra(0))


def clean_instances():
    named = [(name, alg) for name, alg in cubic_corpus()]
    named.append(("one-point", one_point()))
    named += [(impl.name, build_I(impl)) for impl in seeded_bases()]
    return named


def mutated_instances():
    out = []
    for name, alg, count in (("C2", c2(), 60), ("C3", c3(), 25)):
        rng = random.Random(f"{name}-mutations")
        out += [(f"{name}~{k}", mutate(alg, rng)) for k in range(count)]
    return out


@pytest.fixture(scope="module")
def C4():
    return build_I(b4())


# -- the axiom checker and witness replay ------------------------------------------

@pytest.mark.parametrize("policy", ["first", "all"])
def test_checker_matches_reference_on_clean_instances(policy):
    for name, alg in clean_instances():
        got = check_cubic_axioms(alg, policy)
        assert got.passed, name
        assert got == reference_check_cubic_axioms(alg, policy), name


@pytest.mark.parametrize("policy", ["first", "all"])
def test_checker_matches_reference_on_mutations(policy):
    failing = 0
    for name, alg in mutated_instances():
        got = check_cubic_axioms(alg, policy)
        assert got == reference_check_cubic_axioms(alg, policy), name
        failing += not got.passed
    # single-entry changes break almost every instance
    assert failing > 70


@pytest.mark.parametrize("policy", ["first", "all"])
def test_mr_checker_matches_reference(C4, policy):
    verdicts = set()
    for name, alg in clean_instances() + mutated_instances() + [("C4", C4)]:
        got = check_mr_axiom(alg, policy)
        assert got == reference_check_mr_axiom(alg, policy), name
        verdicts.add(got.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("policy", ["first", "all"])
def test_checker_matches_reference_on_c4(C4, policy):
    rng = random.Random("C4-mutations")
    for alg in (C4, mutate(C4, rng), mutate(C4, rng)):
        assert (check_cubic_axioms(alg, policy)
                == reference_check_cubic_axioms(alg, policy))


def test_every_law_is_reported_on_some_mutation():
    ids = set()
    for _, alg in mutated_instances():
        ids |= set(check_cubic_axioms(alg, "all").ids())
    assert ids == {"join-lub", "a", "b", "c", "d", "e", "f"}


def test_mutations_reach_the_diagonal_of_the_exchange_law():
    # where x -> z is undefined, x -> (x -> z) = x -> (x -> z) fails; the
    # comparisons above must include such an instance
    assert any(law == "f" and w[0] == w[1]
               for _, alg in mutated_instances()
               for law, w in reference_check_cubic_axioms(alg, "all").violations)


def test_replay_matches_reference(monkeypatch):
    reports, reference = {}, reference_check_cubic_axioms

    def memoised(alg, witness_policy="first"):
        if (id(alg), witness_policy) not in reports:
            reports[id(alg), witness_policy] = reference(alg, witness_policy)
        return reports[id(alg), witness_policy]

    monkeypatch.setitem(globals(), "reference_check_cubic_axioms", memoised)
    for name, alg in clean_instances()[:7] + mutated_instances()[:40]:
        n = alg.size
        violations = (memoised(alg, "all").violations
                      + reference_check_mr_axiom(alg, "all").violations)
        rng = random.Random(name)
        probes = list(violations)
        for law in ("join-lub", "a", "c", "e", "b", "d", "f", "mr"):
            arity = 3 if law in ("b", "d", "f", "mr") else 2
            probes += [(law, tuple(rng.randrange(n) for _ in range(arity)))
                       for _ in range(15)]
            probes += [(law, (0,) * (arity - 1)), (law, (0,) * (arity + 1)),
                       (law, (n,) * arity), (law, (-1,) * arity)]
        probes.append(("nonsense", (0, 0)))
        for law, witness in probes:
            assert replay_witness(alg, law, witness) == \
                reference_replay_witness(alg, law, witness), (name, law, witness)


def test_the_check_leaves_no_derived_table_on_the_algebra(C4):
    # the encoded rows live on the _Laws of one check; the algebra keeps
    # only its implication table, which the laws encode
    rng = random.Random("C4-tables")
    for alg in (mutate(C4, rng), mutate(C4, rng), c3()):
        raw = CubicAlgebra.from_tables(alg.leq_table, alg.join_table,
                                       alg.delta_table, alg.one, strict=False)
        before = set(vars(raw))
        check_cubic_axioms(raw, "all")
        assert set(vars(raw)) - before <= {"implies_table"}


# -- the two row encodings ---------------------------------------------------------

def chain(n):
    """The n-element chain 0 < ... < n-1 with the in-domain reflection
    delta(x, y) = (x + y) mod n, y <= x: law a fails at most x <= y, and
    law c both at a wrong value and where delta(y, x) leaves the domain."""
    every = range(n)
    return CubicAlgebra.from_tables(
        [[int(x <= y) for y in every] for x in every],
        [[max(x, y) for y in every] for x in every],
        [[(x + y) % n if y <= x else UNDEFINED for y in every] for x in every],
        n - 1, strict=False)


def reference_ac_faults(algebra):
    """The a and c loop of :func:`reference_check_cubic_axioms`, policy all."""
    n, leq = algebra.size, algebra.leq_table
    jn, dl = algebra.join_table, algebra.delta_table
    out = []
    for x in range(n):
        for y in range(n):
            if leq[x][y]:
                if jn[dl[y][x]][x] != y:
                    out.append(("a", (x, y)))
                t = dl[y][x]
                if not leq[t][y] or dl[y][t] != x:
                    out.append(("c", (x, y)))
    return out


@pytest.mark.parametrize("n, seq", [(255, bytes), (256, tuple)])
def test_the_carrier_size_picks_the_encoding(n, seq):
    # 255 elements are the most that byte rows hold beside the sentinel
    alg = chain(n)
    laws = _Laws(alg)
    assert laws.seq is seq and len(laws.D[0]) == (256 if seq is bytes else n + 1)
    got = list(laws.faults("a", "c"))
    assert {law for law, _ in got} == {"a", "c"}
    assert got == reference_ac_faults(alg)


@pytest.fixture(params=["tuple-rows", "short-runs"])
def layout(request, monkeypatch):
    """Tuple rows, which carriers above ``_BYTE_CARRIER`` elements read:
    every instance here is smaller, so that private bound is lowered to 0
    as a test hook.  Or the rows of law f cut into runs of a few y, as on
    a carrier whose f rows pass ``_RUN`` entries: with ``_RUN`` lowered
    to 100, a run is every row on C2, 3 rows on C3 and 1 on C4."""
    if request.param == "tuple-rows":
        monkeypatch.setattr(cubic, "_BYTE_CARRIER", 0)
        assert _Laws(c2()).seq is tuple
    else:
        monkeypatch.setattr(cubic, "_RUN", 100)
        assert _Laws(c3()).span == 3


@pytest.mark.usefixtures("layout")
class TestRowLayouts:
    """The differential tests above on the other row layouts."""

    @pytest.mark.parametrize("policy", ["first", "all"])
    def test_clean_instances(self, policy):
        test_checker_matches_reference_on_clean_instances(policy)

    @pytest.mark.parametrize("policy", ["first", "all"])
    def test_mutations(self, policy):
        test_checker_matches_reference_on_mutations(policy)

    @pytest.mark.parametrize("policy", ["first", "all"])
    def test_c4(self, C4, policy):
        test_checker_matches_reference_on_c4(C4, policy)

    def test_replay(self, monkeypatch):
        test_replay_matches_reference(monkeypatch)

    def test_implication_constructor(self):
        test_implication_constructor_matches_reference()


# -- the implication-algebra constructor ---------------------------------------------

def impl_bases():
    bases = seeded_bases()
    bases += [quotient_C(alg).algebra for _, alg in cubic_corpus()]
    bases.append(quotient_C(one_point()).algebra)
    return bases


def construction_error(fields):
    try:
        ImplicationAlgebra(**fields)
    except InvalidAlgebra as exc:
        return str(exc)
    return None


def reference_error(fields):
    up = tuple(sum(v << y for y, v in enumerate(row))
               for row in fields["leq_table"])
    try:
        reference_implication_laws(SimpleNamespace(_up=up, **fields))
    except InvalidAlgebra as exc:
        return str(exc)
    return None


def test_implication_constructor_matches_reference():
    laws = set()  # the messages, numbers masked
    for impl in impl_bases():
        n = impl.size
        tables = {"join_table": impl.join_table,
                  "implies_table": impl.implies_table}
        fields = dict(size=n, leq_table=impl.leq_table, one=impl.one)
        assert reference_error({**fields, **tables}) is None
        rng = random.Random(impl.algebra_id)
        for _ in range(16 if n > 1 else 0):
            # one or two entries of the implication table, sometimes one
            # of the join table, each set to another carrier index
            changed = {key: [list(row) for row in t]
                       for key, t in tables.items()}
            for _ in range(rng.choice((1, 1, 2))):
                t = changed[rng.choice(("implies_table",) * 5 + ("join_table",))]
                x, y = rng.randrange(n), rng.randrange(n)
                t[x][y] = rng.choice([v for v in range(n) if v != t[x][y]])
            mutated = {**fields, **{key: tuple(map(tuple, t))
                                    for key, t in changed.items()}}
            got = construction_error(mutated)
            assert got == reference_error(mutated), (impl.algebra_id, changed)
            laws.add(got and re.sub(r"\d+", "N", got))
    assert laws == {None, "join(N,N) is not the least upper bound",
                    "(x->y)->y = x v y fails at (N,N)",
                    "x v y = N iff x->y = y fails at (N,N)",
                    "x->x = N fails at N", "exchange law fails at (N,N,N)"}


# -- the hom checks --------------------------------------------------------------------

def swaps(perm, rng, count):
    out = []
    for _ in range(count):
        i, j = rng.sample(range(len(perm)), 2)
        m = list(perm)
        m[i], m[j] = m[j], m[i]
        out.append(tuple(m))
    return out


def cubic_homs():
    homs = []
    rng = random.Random("cubic-homs")
    for _, alg in cubic_corpus() + [("one-point", one_point())]:
        for phi in enumerate_aut(alg):
            homs.append(phi)
            if alg.size > 1:
                homs += [CubicHom(alg, alg, m) for m in swaps(phi.map, rng, 2)]
        homs.append(CubicHom(alg, alg, (alg.one,) * alg.size))
        homs.append(kappa(alg))
    base = b2()
    sub = implication_subalgebra(base, {1, 3}, name="[p,1]")
    homs.append(functor_I_hom(ImplicationHom(sub, base, (1, 3))))
    return homs


def impl_homs():
    homs = []
    rng = random.Random("impl-homs")
    for _, alg in cubic_corpus():
        for phi in enumerate_aut(alg):
            homs.append(functor_C_hom(phi))
        q = quotient_C(alg).algebra
        for alpha in enumerate_aut(q):
            homs.append(alpha)
            homs += [ImplicationHom(q, q, m) for m in swaps(alpha.map, rng, 2)]
    for base in (b2(), b3(), *seeded_bases()[:5]):
        homs.append(iota(base))
        for alpha in enumerate_aut(base):
            homs += [ImplicationHom(base, base, m)
                     for m in swaps(alpha.map, rng, 1)]
        homs.append(ImplicationHom(base, base, (base.one,) * base.size))
    base = b2()
    sub = implication_subalgebra(base, {1, 3}, name="[p,1]")
    homs += [ImplicationHom(sub, base, (1, 3)), ImplicationHom(sub, base, (3, 1))]
    return homs


@pytest.mark.parametrize("policy", ["first", "all"])
def test_check_hom_matches_reference(policy):
    verdicts = set()
    for hom in cubic_homs():
        got = check_hom(hom, policy)
        assert got == reference_check_hom(hom, policy), hom.map
        verdicts.add(got.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("policy", ["first", "all"])
def test_check_impl_hom_matches_reference(policy):
    verdicts = set()
    for hom in impl_homs():
        got = check_hom(hom, policy)
        assert got == reference_check_impl_hom(hom, policy), hom.map
        verdicts.add(got.passed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("policy", ["first", "all"])
def test_check_hom_on_implication_homs_is_the_old_check_impl_hom(policy):
    # the implication-algebra twin check_hom replaced, its body unchanged;
    # the embeddings e into a pair algebra map into a cubic algebra
    def check_impl_hom(f, witness_policy="first"):
        s, t = f.source, f.target
        return _report(_hom_faults(f, ("join", "implies"), (
            (s.join_table, t.join_table), (s.implies_table, t.implies_table))),
            witness_policy)

    homs = impl_homs()
    for base in (b2(), b3(), *seeded_bases()[:3]):
        index = pair_index(base)
        homs.append(ImplicationHom(base, build_I(base), tuple(
            index[(base.one, x)] for x in base.elements())))
    verdicts = set()
    for hom in homs:
        got = check_hom(hom, policy)
        assert got == check_impl_hom(hom, policy), hom.map
        verdicts.add(got.passed)
    assert verdicts == {True, False}


def test_hom_check_ids_cover_every_law():
    ids = set()
    for hom in cubic_homs():
        ids |= set(check_hom(hom, "all").ids())
    assert ids == {"one", "join", "delta", "sim"}
    ids = set()
    for hom in impl_homs():
        ids |= set(check_hom(hom, "all").ids())
    assert ids == {"one", "join", "implies"}


def test_checkers_refuse_an_unknown_witness_policy():
    alg = c2()
    hom = enumerate_aut(alg)[0]
    for check in (lambda p: check_cubic_axioms(alg, p),
                  lambda p: check_mr_axiom(alg, p),
                  lambda p: check_hom(hom, p),
                  lambda p: check_hom(functor_C_hom(hom), p)):
        with pytest.raises(ValueError, match="unknown witness policy"):
            check("some")
