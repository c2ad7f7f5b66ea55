"""The four records of the table module keep the behaviour of the frozen
dataclasses they were, and the row-at-a-time load checks name the fault
that the entry-at-a-time loops named."""

import dataclasses

import pytest

import mrkit.cubic as cubic
from mrkit.corpus import c2
from mrkit.cubic import (
    UNDEFINED,
    AxiomReport,
    CubicAlgebra,
    ElementRef,
    Localization,
    _down_masks,
    check_mr_axiom,
    from_json_dict,
    is_mr,
    localize,
    to_json_dict,
)
from mrkit.errors import MalformedTable

# each record's fields in order, with the defaults the dataclass had
FIELDS = {
    ElementRef: ("algebra_id", "index"),
    AxiomReport: ("violations",),
    CubicAlgebra: ("size", "leq_table", "join_table", "delta_table", "one",
                   ("labels", None), ("name", "")),
    Localization: ("base", "a", "members", "k_map", "l_map"),
}


def names(record):
    return tuple(f if isinstance(f, str) else f[0] for f in FIELDS[record])


def copy(alg, **changes):
    """``alg`` rebuilt through the constructor with ``changes``."""
    fields = {f: getattr(alg, f) for f in names(CubicAlgebra)}
    return CubicAlgebra(**{**fields, **changes})


def dataclass_of(record):
    """The frozen dataclass ``record`` was: same name, fields and
    defaults."""
    fields = [(f, object) if isinstance(f, str)
              else (f[0], object, dataclasses.field(default=f[1]))
              for f in FIELDS[record]]
    return dataclasses.make_dataclass(record.__name__, fields, frozen=True)


def samples():
    """(record, field values) pairs, two values of each record."""
    alg = c2()
    loc = localize(alg, alg.minimal_elements[0])
    return [
        (ElementRef, ("C2", 3)),
        (ElementRef, ("I(B2)", 0)),
        (AxiomReport, ((),)),
        (AxiomReport, ((("a", (1, 2)), ("f", (0, 1, 2))),)),
        (Localization, (alg, loc.a, loc.members, loc.k_map, loc.l_map)),
        (Localization, (alg, 0, (), {}, {})),
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
    try:
        want_hash = hash(want)
    except TypeError:  # a Localization holds its maps as dicts
        with pytest.raises(TypeError):
            hash(got)
    else:
        assert hash(got) == want_hash


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
            with pytest.raises(dataclasses.FrozenInstanceError) as ref:
                act(want)
            assert str(err.value) == str(ref.value)
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
