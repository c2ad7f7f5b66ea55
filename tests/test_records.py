"""Every record but ``claims.Claim`` is a ``cubic._Record`` and keeps the
behaviour of the frozen dataclass it was; the row-at-a-time load checks
name the fault that the entry-at-a-time loops named; and the caret rows
are the entry-by-entry caret."""

import dataclasses
import itertools

import pytest

import mrkit.cubic as cubic
from mrkit.automorphisms import (
    FPresentation,
    IntervalTranslation,
    LocalClosure,
    _caret_rows,
    coordinate_gfilters,
    enumerate_aut,
    f_ab,
    f_presentation,
    localize_closure,
)
from mrkit.claims import ClaimResult, VerifyContext
from mrkit.constructions import (
    ImplicationAlgebra,
    PairElement,
    boolean_algebra,
)
from mrkit.corpus import c2, cubic_corpus
from mrkit.cubic import (
    UNDEFINED,
    AxiomReport,
    CubicAlgebra,
    ElementRef,
    Localization,
    _down_masks,
    caret_rows,
    caret_total,
    check_mr_axiom,
    from_json_dict,
    is_mr,
    localize,
    to_json_dict,
)
from mrkit.errors import MalformedTable
from mrkit.filters import Filter
from mrkit.functors import (
    CubicHom,
    ImplicationHom,
    QuotientAlgebra,
    _IndexMap,
    quotient_C,
)

MAP = ("source", "target", "map")

# each record's fields in order, with the defaults the dataclass had
FIELDS = {
    ElementRef: ("algebra_id", "index"),
    AxiomReport: ("violations",),
    CubicAlgebra: ("size", "leq_table", "join_table", "delta_table", "one",
                   ("labels", None), ("name", "")),
    Localization: ("base", "a", "members"),
    FPresentation: ("filter", "impl", "hom"),
    IntervalTranslation: ("a", "b", "localization", "interval_map",
                          "extension"),
    LocalClosure: ("subalgebra", "seeds", "generators"),
    ClaimResult: ("claim_id", "instance", "status", ("witness", None)),
    VerifyContext: ("algebras", ("seed", 42), ("witness_policy", "first")),
    ImplicationAlgebra: ("size", "leq_table", "join_table", "implies_table",
                         "one", ("labels", None), ("name", "")),
    PairElement: ("first", "second"),
    Filter: ("carrier", "mask"),
    _IndexMap: MAP,
    CubicHom: MAP,
    ImplicationHom: MAP,
    QuotientAlgebra: ("source", "classes", "algebra", "eta"),
}

# what the record base adds to a class; the rest is the record's own
BASE_ATTRIBUTES = {"_fields", "_astuple", "__annotations__"}


def names(record):
    return tuple(f if isinstance(f, str) else f[0] for f in FIELDS[record])


def copy(alg, **changes):
    """``alg`` rebuilt through the constructor with ``changes``."""
    fields = {f: getattr(alg, f) for f in names(CubicAlgebra)}
    return CubicAlgebra(**{**fields, **changes})


def dataclass_of(record):
    """The frozen dataclass ``record`` was: the same name, fields,
    defaults, other bases and own methods.  A record that annotates
    nothing was a plain subclass of its base's dataclass."""
    own = {k: v for k, v in vars(record).items() if k not in BASE_ATTRIBUTES}
    bases = tuple(dataclass_of(b) if b in FIELDS else b
                  for b in record.__bases__ if b is not cubic._Record)
    if "__annotations__" not in vars(record):
        return type(record.__name__, bases, own)
    fields = [(f, object) if isinstance(f, str)
              else (f[0], object, dataclasses.field(default=f[1]))
              for f in FIELDS[record]]
    return dataclasses.make_dataclass(record.__name__, fields, bases=bases,
                                      namespace=own, frozen=True)


def samples():
    """(record, field values) pairs, two values of each record, the first
    of each taking the defaults."""
    alg, b2 = c2(), boolean_algebra(2)
    loc = localize(alg, alg.minimal_elements[0])
    pres = f_presentation(coordinate_gfilters(alg)[0])
    a = alg.minimal_elements[0]
    shift = f_ab(alg, a, a)
    closure = localize_closure(alg, [a], enumerate_aut(alg)[1:2])
    quotient = quotient_C(alg)
    identity = tuple(range(alg.size))
    swap = enumerate_aut(alg)[1].map
    b2_tables = (b2.size, b2.leq_table, b2.join_table, b2.implies_table,
                 b2.one)
    return [
        (ElementRef, ("C2", 3)),
        (ElementRef, ("I(B2)", 0)),
        (AxiomReport, ((),)),
        (AxiomReport, ((("a", (1, 2)), ("f", (0, 1, 2))),)),
        (Localization, (alg, loc.a, loc.members)),
        (Localization, (alg, 0, ())),
        (FPresentation, (pres.filter, pres.impl, pres.hom)),
        (FPresentation, ("filter", "impl", "hom")),
        (IntervalTranslation, (shift.a, shift.b, shift.localization,
                               shift.interval_map, shift.extension)),
        (IntervalTranslation, (0, 0, loc, {}, {})),
        (LocalClosure, (closure.subalgebra, closure.seeds,
                        closure.generators)),
        (LocalClosure, (None, (), ())),
        (ClaimResult, ("axioms:mr", "C2", "pass")),
        (ClaimResult, ("lem:kl", "C3", "fail", ((1, 2), "x"))),
        (VerifyContext, ((("C2", alg),),)),
        (VerifyContext, ((), 7, "all")),
        (ImplicationAlgebra, b2_tables),
        (ImplicationAlgebra, (*b2_tables, b2.labels, "B2")),
        (PairElement, (0, 1)),
        (PairElement, (3, 2)),
        (Filter, (alg, alg._up[a])),
        (Filter, (b2, (1 << b2.size) - 1)),
        (_IndexMap, (alg, alg, identity)),
        (_IndexMap, (b2, b2, (0, 2, 1, 3))),
        (CubicHom, (alg, alg, swap)),
        (CubicHom, (alg, alg, identity)),
        (ImplicationHom, (b2, b2, (0, 2, 1, 3))),
        (ImplicationHom, (quotient.algebra, b2, (3,) * quotient.algebra.size)),
        (QuotientAlgebra, (quotient.source, quotient.classes,
                           quotient.algebra, quotient.eta)),
        (QuotientAlgebra, (alg, (), b2, ())),
    ]


def test_the_fields_are_the_dataclass_fields():
    for record in FIELDS:
        assert record._fields == names(record)


@pytest.mark.parametrize("record,values", samples(),
                         ids=lambda v: getattr(v, "__name__", ""))
def test_repr_eq_and_hash_are_the_dataclasses(record, values):
    reference = dataclass_of(record)
    got, want = record(*values), reference(*values)
    assert repr(got) == repr(want)
    assert got == record(*values) and not got != record(*values)
    assert got != want and got != values  # another class is never equal
    # a set of records iterates in hash order, so the hash is pinned too
    try:
        want_hash = hash(want)
    except TypeError:  # an interval translation holds dicts
        with pytest.raises(TypeError):
            hash(got)
    else:
        assert hash(got) == want_hash


def test_the_defaults_are_the_dataclass_defaults():
    assert ClaimResult("lem:kl", "C3", "skip").witness is None
    assert ClaimResult("lem:kl", "C3", "skip").as_dict() == {
        "claim_id": "lem:kl", "instance": "C3", "status": "skip"}
    ctx = VerifyContext(())
    assert (ctx.seed, ctx.witness_policy) == (42, "first")
    assert VerifyContext((), witness_policy="all").seed == 42
    b2 = boolean_algebra(2)
    bare = ImplicationAlgebra(b2.size, b2.leq_table, b2.join_table,
                              b2.implies_table, b2.one)
    assert (bare.labels, bare.name, bare.algebra_id) == (None, "", "impl4")


def test_a_verify_context_is_now_frozen():
    # the one change: the context was a mutable dataclass, which took an
    # assignment and had no hash; a run now builds a new context instead
    fields = [("algebras", object),
              ("seed", int, dataclasses.field(default=42)),
              ("witness_policy", str, dataclasses.field(default="first"))]
    was = dataclasses.make_dataclass("VerifyContext", fields)(())
    was.seed = 7
    with pytest.raises(TypeError):
        hash(was)
    ctx = VerifyContext(())
    with pytest.raises(AttributeError):
        ctx.seed = 7
    assert ctx.seed == 42
    assert hash(ctx) == hash(dataclass_of(VerifyContext)(()))


def test_fields_accumulate_along_the_bases():
    # as dataclasses collects them: the bases' fields first, then the
    # class's own; a field annotated again keeps its place
    class Pair(cubic._Record):
        first: int
        second: int = 2

    class Same(Pair):
        """Annotates nothing, as CubicHom and ImplicationHom."""

    class Triple(Pair):
        third: int = 3

    class Moved(Triple):
        first: int = 0

    @dataclasses.dataclass(frozen=True)
    class PairWas:
        first: int
        second: int = 2

    class SameWas(PairWas):
        pass

    @dataclasses.dataclass(frozen=True)
    class TripleWas(PairWas):
        third: int = 3

    @dataclasses.dataclass(frozen=True)
    class MovedWas(TripleWas):
        first: int = 0

    for record, was in ((Pair, PairWas), (Same, SameWas),
                        (Triple, TripleWas), (Moved, MovedWas)):
        assert record._fields == tuple(f.name for f in dataclasses.fields(was))
    assert vars(Same(1)) == vars(SameWas(1)) == {"first": 1, "second": 2}
    assert Same(1) == Same(1, 2) == Same(second=2, first=1)
    assert Same(1) != Pair(1) and hash(Same(1)) == hash(Pair(1))
    assert vars(Triple(1, third=4)) == vars(TripleWas(1, third=4)) == {
        "first": 1, "second": 2, "third": 4}
    assert vars(Moved()) == vars(MovedWas()) == {
        "first": 0, "second": 2, "third": 3}
    assert repr(Same(1)).endswith("Same(first=1, second=2)")
    with pytest.raises(TypeError):
        Same(1, 2, 3)
    # the map records are such subclasses
    assert CubicHom._fields == ImplicationHom._fields == MAP


def test_an_algebra_is_equal_over_all_seven_fields():
    alg = c2()
    assert copy(alg) == alg and hash(copy(alg)) == hash(alg)
    assert hash(alg) == hash(tuple(getattr(alg, f)
                                   for f in names(CubicAlgebra)))
    for changes in ({"labels": None}, {"name": "other"},
                    {"labels": tuple(reversed(alg.labels))}):
        twin = copy(alg, **changes)
        assert twin.leq_table == alg.leq_table and twin != alg
    assert repr(alg) == "CubicAlgebra(I(B2), size=9)"


@pytest.mark.parametrize("record,values", samples()[::2],
                         ids=lambda v: getattr(v, "__name__", ""))
def test_a_record_is_frozen(record, values):
    got, want = record(*values), dataclass_of(record)(*values)
    for name in (*names(record), "other"):
        for act in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
            with pytest.raises(AttributeError) as err:
                act(got)
            try:
                act(want)
            except dataclasses.FrozenInstanceError as ref:
                assert str(err.value) == str(ref)
            else:
                # a plain subclass of a frozen dataclass took a name that
                # is no field; the map records now refuse it too
                assert name == "other" and record in (CubicHom, ImplicationHom)
    assert got == record(*values)


def test_construction_by_position_and_keyword():
    violations = (("mr", (3, 1, 2)),)
    report = AxiomReport(violations)
    assert report == AxiomReport(violations=violations)
    assert report.first() == ("mr", (3, 1, 2)) and not report.passed
    alg = c2()
    tables = dict(size=alg.size, leq_table=alg.leq_table,
                  join_table=alg.join_table, delta_table=alg.delta_table,
                  one=alg.one)
    bare = CubicAlgebra(**tables)
    assert (bare.labels, bare.name) == (None, "")
    assert bare == CubicAlgebra(*tables.values())
    assert bare.label(0) == "0" and bare.algebra_id == "cubic9"
    for args, kwargs in (((1, 2, 3), {}), ((), {"algebra_id": "C2"}),
                         (("C2",), {"algebra_id": "C2", "index": 0}),
                         (("C2", 0), {"other": 1})):
        with pytest.raises(TypeError):
            ElementRef(*args, **kwargs)


def test_construction_runs_the_classs_post_init(monkeypatch):
    validated = []
    validate = CubicAlgebra.__post_init__
    monkeypatch.setattr(CubicAlgebra, "__post_init__", lambda self:
                        validated.append(self) or validate(self))
    built = copy(c2())
    assert validated == [built]
    # the trusted path builds an equal algebra without it
    trusted = cubic._trusted(**{f: getattr(built, f)
                                for f in names(CubicAlgebra)})
    assert validated == [built] and trusted == built


def test_derived_values_are_written_to_the_instance():
    alg = copy(c2())
    assert "minimal_elements" not in vars(alg)
    assert alg.minimal_elements == vars(alg)["minimal_elements"]
    assert is_mr(alg) and is_mr.cache_info().currsize >= 1
    assert any(k.startswith("_memo.") for k in vars(alg))  # config.memo
    assert check_mr_axiom(alg) == AxiomReport(())


# -- the load checks, against the entry-at-a-time loops ------------------------

def _is_int(value) -> bool:
    return type(value) is int


def loop_json_types(data):
    """The type check of the entry-at-a-time ``from_json_dict``."""
    for key in ("leq", "join", "delta"):
        table = data[key]
        if not (isinstance(table, list) and all(
                isinstance(row, list) and all(map(_is_int, row))
                for row in table)):
            return f"{key} must be a list of rows of integers"
    return None


def loop_tables(n, leq, join, delta):
    """The range and domain loops of the entry-at-a-time
    ``_validate_order`` and ``CubicAlgebra.__post_init__``, for tables
    whose order laws hold."""
    for x, row in enumerate(leq):
        if not {0, 1}.issuperset(row):
            y = next(y for y, v in enumerate(row) if v not in (0, 1))
            return f"leq({x},{y}) = {row[y]} is not 0 or 1"
    for x in range(n):
        for label, tab in (("join", join),):
            for y, v in enumerate(tab[x]):
                if not 0 <= v < n:
                    return f"{label}({x},{y}) out of range"
    down = _down_masks(leq)
    for x in range(n):
        for y, d in enumerate(delta[x]):
            if down[x] >> y & 1:
                if not 0 <= d < n:
                    return f"delta({x},{y}) must be defined"
            elif d != UNDEFINED:
                return f"delta({x},{y}) defined off-domain"
    return None


def corruptions(alg):
    """(table, x, y, value) single-entry corruptions of ``alg``: values
    out of range, the reflection defined off its domain or undefined on
    it, and each entry's value as a bool and as a float."""
    n = alg.size
    for key in ("leq", "join", "delta"):
        table = getattr(alg, f"{key}_table")
        for x in range(n):
            for y in range(n):
                v = table[x][y]
                values = [float(v), v + 0.5]
                if key == "leq":
                    values += [2, -1, bool(v)]
                elif key == "join":
                    values += [n, -1, bool(v)] if v in (0, 1) else [n, -1]
                elif alg.leq_table[y][x]:
                    values += [n, -2, UNDEFINED]
                    values += [bool(v)] if v in (0, 1) else []
                else:
                    values += [0, n - 1]
                for value in values:
                    yield key, x, y, value


def message(build):
    try:
        build()
    except MalformedTable as exc:
        return str(exc)
    return None


def test_row_checks_name_the_loops_first_fault():
    alg = c2()
    n, seen = alg.size, set()
    for key, x, y, value in corruptions(alg):
        doc = to_json_dict(alg)
        doc[key][x][y] = value
        tables = [tuple(map(tuple, doc[k])) for k in ("leq", "join", "delta")]
        want = loop_tables(n, *tables)
        if (key == "delta" and alg.leq_table[y][x] and value != UNDEFINED
                and not 0 <= value < n):
            # the one message changed: an in-domain reflection outside
            # the carrier is out of range, as a join entry is
            assert want == f"delta({x},{y}) must be defined"
            want = f"delta({x},{y}) out of range"
        got = message(lambda: CubicAlgebra(n, *tables, alg.one))
        assert got == want, (key, x, y, value)
        loaded = message(lambda: from_json_dict(doc, strict=False))
        assert loaded == (loop_json_types(doc) or want), (key, x, y, value)
        seen.add(got and got.split(" ", 1)[1])
    assert seen >= {None, "out of range", "must be defined",
                    "defined off-domain", "= 2 is not 0 or 1"}


# -- the caret rows, against the entry-by-entry caret -------------------------

def reference_caret(algebra, x, y) -> int:
    """caret(x, y), or UNDEFINED where y is not below x v y (only non-cubic
    input has such a pair) or the meet fails."""
    if not algebra.leq_table[y][algebra.join_table[x][y]]:
        return UNDEFINED
    value = algebra.caret(x, y)
    return UNDEFINED if value is None else value


def reference_caret_total(algebra) -> bool:
    """The entry-by-entry ``caret_total`` the rows replaced."""
    leq, jn = algebra.leq_table, algebra.join_table
    return all(
        leq[y][jn[x][y]] and algebra.caret(x, y) is not None
        for x in range(algebra.size)
        for y in range(algebra.size)
    )


def mutations(alg):
    """Every single-entry change of a join entry or an in-domain reflection
    entry of ``alg`` to another element: the tables stay well formed, so
    the algebra loads unchecked and only the axioms can notice."""
    n = alg.size
    for key in ("join", "delta"):
        for x, y in itertools.product(range(n), repeat=2):
            if key == "delta" and not alg.leq_table[y][x]:
                continue
            for value in range(n):
                doc = to_json_dict(alg)
                if doc[key][x][y] != value:
                    doc[key][x][y] = value
                    yield from_json_dict(doc, strict=False)


def test_caret_rows_are_the_entry_by_entry_caret():
    algebras = [alg for _, alg in cubic_corpus()] + list(mutations(c2()))
    totals = set()
    for alg in algebras:
        want = [tuple(reference_caret(alg, x, y) for y in alg.elements())
                for x in alg.elements()]
        assert list(caret_rows(alg)) == want
        assert caret_total(alg) == reference_caret_total(alg)
        totals.add(caret_total(alg))
    assert totals == {True, False}
    # the localization closure reads the same rows and their transpose
    for _, alg in cubic_corpus():
        rows = tuple(caret_rows(alg))
        assert _caret_rows(alg) == (rows, tuple(zip(*rows)))
