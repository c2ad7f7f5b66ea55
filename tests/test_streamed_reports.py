"""The streamed canonical JSON and the built-in sha256 against the
whole-text encoding and ``hashlib`` they replace.

``cubic.canonical_chunks`` yields a report in pieces, ``cli._write``
writes them as they come and ``cli._input_digest`` hashes them as they
come, so no command holds its report or its input's table text whole and
none loads ``hashlib``.
"""

import hashlib
import json
import random
import sys
import tracemalloc
from argparse import Namespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrkit import cli
from mrkit.automorphisms import enumerate_aut, inner_group, omega
from mrkit.cli import _input_digest, _write, main
from mrkit.constructions import build_I
from mrkit.corpus import b4, cubic_corpus
from mrkit.cubic import canonical_chunks, canonical_json, is_mr, to_json_dict

from conftest import mutate, relabel


def reference_json(data) -> str:
    """The canonical text as one ``json.dumps`` call."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


def reference_digest(algebra) -> str:
    """The input digest through ``hashlib`` over the whole text."""
    return hashlib.sha256(
        reference_json(to_json_dict(algebra)).encode()).hexdigest()[:16]


SCALARS = (st.none() | st.booleans() | st.floats()
           | st.integers(min_value=-2 ** 80, max_value=2 ** 80) | st.text())
# each dict takes keys of one type: json cannot sort mixed str and int keys
VALUES = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=4)
    | st.dictionaries(st.booleans(), inner, max_size=2)),
    max_leaves=20)


class TestCanonicalChunks:
    @settings(max_examples=300, deadline=None)
    @given(VALUES)
    def test_any_value_joins_to_the_reference(self, value):
        assert "".join(canonical_chunks(value)) == reference_json(value)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(), VALUES, max_size=5))
    def test_a_report_shaped_dict_joins_to_the_reference(self, value):
        # a str-keyed dict is the streamed case: key by key, and element by
        # element of each list under it
        assert "".join(canonical_chunks(value)) == reference_json(value)

    @pytest.mark.parametrize("value", [
        {}, [], {"a": []}, {"a": {}}, {"a": [[]]}, {"": [{}, []]},
        {"é": ["ü", " "]}, {1: "a", 2: ["b"]}, {True: 1, False: 2}, {None: [1]},
        {"x": float("nan"), "y": [float("inf"), -0.0]}, {"n": [2 ** 100]},
        {"b": (1, 2), "a": ({"z": 1, "y": 2},)}, "top", 7, None,
    ])
    def test_edge_values(self, value):
        assert canonical_json(value) == reference_json(value)

    def test_a_list_is_one_piece_per_element(self):
        chunks = list(canonical_chunks({"maps": [[0, 1], [1, 0]], "n": 2}))
        assert chunks == ['{"maps":', "[[0,1]", ",[1,0]", "]", ',"n":', "2",
                          "}\n"]

    def test_int_keys_are_encoded_whole(self):
        # count:interval's witness: json sorts int keys as numbers, before
        # it converts them; sorted as strings, "10" would come first
        value = {10: "a", 9: "b"}
        assert list(canonical_chunks(value)) == ['{"9":"b","10":"a"}\n']


C4 = build_I(b4())
ALGEBRAS = [*cubic_corpus(), ("C4", C4), ("C4~5", relabel(C4, 5)),
            ("C4-mutant", mutate(C4, random.Random(1)))]


class TestInputDigest:
    @pytest.mark.parametrize("name,alg", ALGEBRAS,
                             ids=[name for name, _ in ALGEBRAS])
    def test_the_digest_is_hashlib_sha256_of_the_text(self, name, alg):
        assert _input_digest(alg) == reference_digest(alg)

    @pytest.mark.parametrize("name,alg", ALGEBRAS,
                             ids=[name for name, _ in ALGEBRAS])
    def test_without_a_built_in_module_hashlib_serves(self, monkeypatch,
                                                      name, alg):
        # a None entry in sys.modules makes the import raise ImportError
        for module in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, module, None)
        assert _input_digest(alg) == reference_digest(alg)


def test_writing_the_c4_aut_report_holds_less_than_the_report(tmp_path,
                                                               monkeypatch):
    # the whole text was built before it was written, and the encoder's
    # per-number strings took over 20 times the text at its peak
    monkeypatch.delenv("MRKIT_MAX_CARRIER", raising=False)
    source, target = tmp_path / "c4.json", tmp_path / "aut.json"
    source.write_text(json.dumps(to_json_dict(C4)))
    assert main(["aut", "-i", str(source), "-o", str(target)]) == 0
    report = json.loads(target.read_text())
    length = len(target.read_bytes())
    tracemalloc.start()
    try:
        _write(Namespace(output=str(target)), canonical_chunks(report))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(target.read_bytes()) == length > 90_000
    assert peak < length, (peak, length)


def test_the_c4_listing_holds_the_group_maps_themselves(tmp_path,
                                                        monkeypatch):
    # the aut report lists the group's own map tuples: with the group,
    # the inner maps and omega built at load, the report handed to _write
    # holds 15 KB; a list copy of each of the 384 maps held 312 KB
    monkeypatch.delenv("MRKIT_MAX_CARRIER", raising=False)
    source, target = tmp_path / "c4.json", tmp_path / "aut.json"
    source.write_text(json.dumps(to_json_dict(C4)))
    load, write, held = cli._load, cli._write, []

    def warmed(path, strict):
        algebra = load(path, strict=strict)
        enumerate_aut(algebra), inner_group(algebra), is_mr(algebra)
        omega(algebra)
        held.append(tracemalloc.get_traced_memory()[0])
        return algebra

    def measured(args, chunks):
        held.append(tracemalloc.get_traced_memory()[0])
        write(args, chunks)

    monkeypatch.setattr(cli, "_load", warmed)
    monkeypatch.setattr(cli, "_write", measured)
    tracemalloc.start()
    try:
        assert main(["aut", "-i", str(source), "-o", str(target)]) == 0
    finally:
        tracemalloc.stop()
    assert len(json.loads(target.read_text())["automorphisms"]) == 384
    assert held[1] - held[0] < 64_000, held
