import hashlib
import json
import os
import random
import time

import pytest

import mrkit.automorphisms
import mrkit.claims
from mrkit.claims import VerifyContext, run_claims
from mrkit.cli import _load, main
from mrkit.constructions import build_I, face_poset
from mrkit.cubic import from_json_dict, to_json_dict
from mrkit.corpus import b3, b4, c1, c2, n5
from mrkit.errors import CapExceeded

from conftest import lab, mutate
from test_tooling import assigned


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuild:
    @pytest.mark.parametrize("argv,size", [
        (("build", "--kind", "face", "--n", "2"), 9),
        (("build", "--kind", "interval", "--atoms", "3"), 27),
        (("build", "--kind", "pairs", "--base", "I3"), 5),
        (("build", "--kind", "filter", "--base", "B2", "--min", "p"), 3),
    ])
    def test_builds(self, capsys, argv, size):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["carrier"] == size
        assert len(doc["labels"]) == size
        from_json_dict(doc)  # strict reload succeeds

    def test_build_to_file(self, capsys, tmp_path):
        target = tmp_path / "c2.json"
        code, _, _ = run(capsys, "build", "--kind", "interval",
                         "--atoms", "2", "-o", str(target))
        assert code == 0 and json.loads(target.read_text())["carrier"] == 9

    def test_unknown_base(self, capsys):
        for kind in (("pairs",), ("filter", "--min", "p")):
            code, out, err = run(capsys, "build", "--kind", *kind,
                                 "--base", "XX")
            assert (code, out) == (2, "")
            assert err == ("error: unknown base 'XX'; "
                           "choices: ['B1', 'B2', 'B3', 'B4', 'I3']\n")

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "build", "--kind", "interval")
        assert code == 2
        assert err == ("error: --kind interval needs --atoms and reads none "
                       "of --n --base --min\n")

    @pytest.mark.parametrize("argv,err", [
        (("face", "--n", "1", "--atoms", "3", "--base", "B9", "--min", "zz"),
         "face needs --n and reads none of --atoms --base --min"),
        (("interval", "--atoms", "2", "--n", "1"),
         "interval needs --atoms and reads none of --n --base --min"),
        (("filter", "--base", "B2", "--min", "p", "--atoms", "2"),
         "filter needs --base --min and reads none of --atoms --n"),
    ], ids=["face", "interval", "filter"])
    def test_an_option_the_kind_does_not_read_is_a_usage_error(
            self, capsys, argv, err):
        # each kind takes only its own options: face never reads --base,
        # so B9, which names no base, would otherwise go unnoticed
        code, out, got = run(capsys, "build", "--kind", *argv)
        assert (code, out, got) == (2, "", f"error: --kind {err}\n")

    def test_negative_dimension_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "build", "--kind", "face", "--n", "-1")
        assert (code, out) == (2, "")
        assert err == "error: --kind face needs --n >= 0\n"
        with pytest.raises(CapExceeded, match="dimension -1 is negative"):
            face_poset(-1)


@pytest.mark.parametrize("argv", [
    ("build", "--kind", "face", "--n", "1", "--format", "text"),
    ("build", "--kind", "face", "--n", "1", "--witness", "all"),
    ("aut", "-i", "{c2}", "--witness", "all"),
], ids=["build-format", "build-witness", "aut-witness"])
def test_an_option_the_command_ignores_is_a_usage_error(capsys, tmp_path,
                                                       argv):
    # build wrote JSON under --format text; the flags were dropped unread
    target = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([*(a.format(c2=_c2_file(tmp_path)) for a in argv),
              "-o", str(target)])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and not target.exists()
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err


class TestCheck:
    def test_valid_algebra(self, capsys, tmp_path):
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(to_json_dict(c2())))
        code, out, _ = run(capsys, "check", "-i", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["cubic"]["passed"] and doc["mr"]["passed"]
        assert doc["consistent"]

    def test_non_mr_algebra_still_passes(self, capsys, tmp_path):
        path = tmp_path / "n5.json"
        path.write_text(json.dumps(to_json_dict(n5())))
        code, out, _ = run(capsys, "check", "-i", str(path), "--format", "text")
        assert code == 0
        assert "cubic axioms: pass" in out
        assert "meet-existence axiom: FAIL" in out

    def test_broken_algebra_fails(self, capsys, tmp_path):
        alg = c2()
        doc = to_json_dict(alg)
        doc["delta"][alg.one][lab(alg, "<1,p>")] = alg.one
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", "-i", str(path))
        assert code == 1
        assert not json.loads(out)["cubic"]["passed"]

    def test_caret_is_not_total_where_a_reflection_leaves_its_domain(
            self, capsys, tmp_path):
        # 0 is not below the mutated join 0 v 0 = 1, so caret(0, 0) would
        # read the UNDEFINED entry delta(1, 0) as an index
        alg = c2()
        assert not alg.leq(0, 1)
        doc = to_json_dict(alg)
        doc["join"][0][0] = 1
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", "-i", str(path))
        assert code == 1
        report = json.loads(out)
        assert not report["cubic"]["passed"]
        assert report["caret_total"] is False

    def test_schema_error(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"nope\": 1}")
        code, _, err = run(capsys, "check", "-i", str(path))
        assert code == 2 and "schema error" in err

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "-i", str(tmp_path / "missing.json"))
        assert code == 2

    @pytest.mark.parametrize("x,y,value", [(0, 2, 2), (1, 1, 7), (0, 1, -1)])
    def test_order_entries_are_0_or_1(self, capsys, tmp_path, x, y, value):
        # a schema error at load, not a cubic-axiom or order-law failure
        doc = to_json_dict(c2())
        doc["leq"][x][y] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "-i", str(path))
        assert (code, out) == (2, "")
        assert err == f"schema error: leq({x},{y}) = {value} is not 0 or 1\n"

    @pytest.mark.parametrize("x,y,value,fault", [
        (2, 2, 9, "out of range"),
        (2, 2, -2, "out of range"),
        (2, 2, -1, "must be defined"),
        (0, 1, 0, "defined off-domain"),
    ])
    def test_reflection_entries_are_named_by_their_fault(
            self, capsys, tmp_path, x, y, value, fault):
        # an in-domain entry outside the carrier is out of range, as a
        # join entry is; only -1 there is undefined
        doc = to_json_dict(c1())
        doc["delta"][x][y] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "-i", str(path))
        assert (code, out) == (2, "")
        assert err == f"schema error: delta({x},{y}) {fault}\n"

    @pytest.mark.parametrize("field,value", [
        ("leq[0][0]", "a"),
        ("leq[0][0]", True),
        ("leq[0]", 1),
        ("leq", 5),
        ("labels", 5),
        ("labels", "abcdefghi"),
        ("labels[0]", ["x"]),
        ("name", ["x"]),
    ])
    def test_bad_values_are_schema_errors(self, capsys, tmp_path, field,
                                          value):
        doc = to_json_dict(c2())
        if field == "leq[0][0]":
            doc["leq"][0][0] = value
        elif field == "leq[0]":
            doc["leq"][0] = value
        elif field == "labels[0]":
            doc["labels"] = [value] + doc["labels"][1:]
        else:
            doc[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for command in ("check", "aut", "verify"):
            code, _, err = run(capsys, command, "-i", str(path))
            assert code == 2 and "schema error" in err, (command, err)


class TestAut:
    def test_group_report(self, capsys, tmp_path):
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(to_json_dict(c2())))
        code, out, _ = run(capsys, "aut", "-i", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 8 and doc["inner_order"] == 4
        assert len(doc["omega"]) == 4

    def test_inner_only_text(self, capsys, tmp_path):
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(to_json_dict(c2())))
        code, out, _ = run(capsys, "aut", "-i", str(path), "--inner",
                           "--format", "text")
        assert code == 0
        assert "inner subgroup order 4" in out


class TestVerify:
    QUICK = "axioms:cubic,lem:caretTotal,corpus:mr-profile,grp:inn-order"

    def test_corpus_subset(self, capsys):
        code, out, _ = run(capsys, "verify", "--corpus",
                           "--claims", self.QUICK)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"]
        assert all(r["status"] != "fail" for r in doc["results"])

    def test_reports_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "verify", "--corpus", "--claims", self.QUICK,
                   "--seed", "7", "-o", str(a))[0] == 0
        assert run(capsys, "verify", "--corpus", "--claims", self.QUICK,
                   "--seed", "7", "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_a_repeated_claim_id_runs_once(self, capsys):
        # lem:kl named twice ran twice: 12 results for the 6 instances
        once = run(capsys, "verify", "--corpus", "--claims", "lem:kl")
        twice = run(capsys, "verify", "--corpus", "--claims", "lem:kl,lem:kl")
        assert once[0] == 0 and twice == once
        assert len(json.loads(once[1])["results"]) == 6

    def test_unknown_claim(self, capsys):
        code, _, err = run(capsys, "verify", "--corpus", "--claims", "nope")
        assert code == 2 and "unknown claim ids" in err

    @pytest.mark.parametrize("claims", ["", " , ", ",", " "])
    def test_a_selection_of_no_claim_is_a_usage_error(self, capsys, tmp_path,
                                                      claims):
        # it ran no claim and reported a pass, or ("") ran every claim
        for source in (("-i", _c2_file(tmp_path)), ("--corpus",)):
            code, out, err = run(capsys, "verify", *source, "--claims", claims)
            assert (code, out) == (2, "")
            assert err == f"error: --claims {claims!r} names no claim id\n"

    def test_needs_an_input(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_corpus_and_input_exclude_each_other(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--corpus", "-i", _c2_file(tmp_path)])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "argument -i/--input: not allowed with argument --corpus" \
            in out.err

    def test_single_algebra(self, capsys, tmp_path):
        path = tmp_path / "n5.json"
        path.write_text(json.dumps(to_json_dict(n5())))
        code, out, _ = run(capsys, "verify", "-i", str(path),
                           "--claims", "axioms:cubic,lem:caretTotal,lem:kl")
        assert code == 0
        doc = json.loads(out)
        assert {r["instance"] for r in doc["results"]} == {"n5"}

    def test_single_algebra_failure(self, capsys, tmp_path):
        alg = c2()
        doc = to_json_dict(alg)
        doc["delta"][alg.one][lab(alg, "<1,p>")] = alg.one
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "-i", str(path),
                           "--claims", "axioms:cubic")
        assert code == 1
        assert not json.loads(out)["passed"]

    def test_claims_skip_a_non_cubic_instance(self, capsys, tmp_path):
        # C2 with join(0,0) = 1 loads raw and fails join-lub; every claim
        # but axioms:cubic skips it instead of reading past its tables
        doc = to_json_dict(c2())
        doc["join"][0][0] = 1
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        claims = "prop:triv,cor:triv,lem:preceq-char,lem:sim-congruence"
        code, out, _ = run(capsys, "verify", "-i", str(path),
                           "--claims", "axioms:cubic," + claims)
        assert code == 1
        results = {r["claim_id"]: r for r in json.loads(out)["results"]}
        assert results.pop("axioms:cubic")["witness"] == [["join-lub", [0, 0]]]
        assert sorted(results) == sorted(claims.split(","))
        for r in results.values():
            assert (r["instance"], r["status"], r["witness"]) == (
                "broken", "skip", "not cubic")

    @pytest.mark.parametrize("claims", ["count:interval",
                                        "lem:kl,count:interval"])
    def test_one_file_refuses_a_global_claim(self, capsys, tmp_path,
                                             monkeypatch, claims):
        # it ran no claim and printed {"passed":true,"results":[]}
        calls = []
        monkeypatch.setattr(mrkit.claims, "run_claims",
                            lambda *a: calls.append(a))
        path = tmp_path / "c4.json"
        path.write_text(json.dumps(to_json_dict(build_I(b4()))))
        code, out, err = run(capsys, "verify", "-i", str(path),
                             "--claims", claims)
        assert (code, out, calls) == (2, "", [])
        assert err == ("error: global claims ['count:interval'] run only "
                       "with --corpus\n")

    def test_one_file_refuses_a_seed(self, capsys, tmp_path, monkeypatch):
        # the seed only went into the report: every claim that reads it is
        # global, and none of those runs on a file.  Unasked, the report
        # still names the default seed
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(to_json_dict(c2())))
        code, out, _ = run(capsys, "verify", "-i", str(path),
                           "--claims", "lem:kl")
        assert code == 0 and json.loads(out)["seed"] == 42
        calls = []
        monkeypatch.setattr(mrkit.claims, "run_claims",
                            lambda *a: calls.append(a))
        code, out, err = run(capsys, "verify", "-i", str(path),
                             "--seed", "7")
        assert (code, out, calls) == (2, "", [])
        assert err == ("error: --seed is read only by global claims, which "
                       "run only with --corpus\n")

    def test_run_claims_runs_a_global_claim_it_is_handed(self):
        # the scope is the CLI's choice: the library runs the ids it gets
        ctx = VerifyContext(algebras=(("C2", c2()),))
        [result] = run_claims(ctx, ["count:interval"])
        assert (result.claim_id, result.instance, result.status) == (
            "count:interval", "global", "pass")

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--corpus",
                           "--claims", "axioms:cubic", "--format", "text")
        assert code == 0
        assert "PASS axioms:cubic [C2]" in out


def _c2_file(tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(to_json_dict(c2())))
    return str(path)


@pytest.mark.parametrize("command", ["check", "aut", "verify"])
def test_too_deep_a_document_is_a_schema_error(capsys, tmp_path, command):
    # the parser's RecursionError was a traceback with exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, command, "-i", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"schema error: cannot read {path}: ")


@pytest.mark.parametrize("argv", [
    ("build", "--kind", "face", "--n", "1"),
    ("check", "-i", "{c2}"),
    ("aut", "-i", "{c2}"),
    ("verify", "-i", "{c2}", "--claims", "axioms:cubic"),
    ("verify", "--corpus", "--claims", "count:interval"),
], ids=["build", "check", "aut", "verify", "verify-corpus"])
@pytest.mark.parametrize("target", ["missing-parent", "directory"])
def test_an_unwritable_output_is_a_usage_error(capsys, tmp_path, monkeypatch,
                                               argv, target):
    # the path is refused before the work: verify runs no claim, aut
    # searches no group
    calls = []

    def counted(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a: calls.append(name) or real(*a))

    counted(mrkit.claims, "run_claims")
    counted(mrkit.automorphisms, "enumerate_aut")
    c2_path = _c2_file(tmp_path)
    path = tmp_path / "missing" / "x.json" if target == "missing-parent" \
        else tmp_path
    code, out, err = run(capsys, *(a.format(c2=c2_path) for a in argv),
                         "-o", str(path))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith(f"error: cannot write {path}: ")


class TestSizeGuards:
    def _assert_cap_message(self, err, guard, limit):
        for part in (guard, f"cap of {limit}", "--max-carrier",
                     "MRKIT_MAX_CARRIER"):
            assert part in err, (part, err)

    def test_cap_does_not_leak_between_calls(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.delenv("MRKIT_MAX_CARRIER", raising=False)
        path = _c2_file(tmp_path)
        before = dict(os.environ)
        assert run(capsys, "aut", "-i", path)[0] == 0
        code, _, err = run(capsys, "aut", "--max-carrier", "5", "-i", path)
        assert code == 2
        self._assert_cap_message(err, "from_json_dict", 5)
        assert dict(os.environ) == before

    def test_environment_overrides_the_flag(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("MRKIT_MAX_CARRIER", "9")
        assert run(capsys, "aut", "--max-carrier", "5", "-i",
                   _c2_file(tmp_path))[0] == 0
        assert os.environ["MRKIT_MAX_CARRIER"] == "9"

    def test_non_integer_environment_cap_is_a_usage_error(self, capsys,
                                                          monkeypatch):
        monkeypatch.setenv("MRKIT_MAX_CARRIER", "abc")
        code, out, err = run(capsys, "build", "--kind", "face", "--n", "1")
        assert code == 2 and out == "" and "MRKIT_MAX_CARRIER" in err

    def test_check_refuses_input_above_the_cap(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.delenv("MRKIT_MAX_CARRIER", raising=False)
        code, out, err = run(capsys, "check", "--max-carrier", "5", "-i",
                             _c2_file(tmp_path))
        assert code == 2 and out == ""
        self._assert_cap_message(err, "from_json_dict", 5)

    def test_build_refuses_a_pair_carrier_above_the_cap(self, capsys,
                                                       monkeypatch):
        monkeypatch.delenv("MRKIT_MAX_CARRIER", raising=False)
        code, out, err = run(capsys, "build", "--kind", "interval",
                             "--atoms", "5")
        assert code == 2 and out == ""
        self._assert_cap_message(err, "build_I", 81)

    @pytest.mark.parametrize("argv,guard", [
        (("--kind", "face", "--n", "9013"), "face_poset"),
        (("--kind", "face", "--n", "1000000000"), "face_poset"),
        (("--kind", "interval", "--atoms", "1000000000"), "boolean_algebra"),
    ], ids=["face-9013", "face-1e9", "interval-1e9"])
    def test_build_refuses_an_exponential_carrier_at_once(
            self, capsys, monkeypatch, argv, guard):
        # 3^9013 has more digits than Python prints; the carrier is
        # refused on its exponent, neither computed nor printed
        monkeypatch.delenv("MRKIT_MAX_CARRIER", raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, "build", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and err.count("\n") == 1
        assert len(err) < 200 and f"^{argv[-1]} exceeds" in err
        self._assert_cap_message(err, guard, 81)

    def test_c4_loads_at_the_default_cap(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MRKIT_MAX_CARRIER", raising=False)
        path = tmp_path / "c4.json"
        path.write_text(json.dumps(to_json_dict(build_I(b4()))))
        assert _load(str(path), strict=False).size == 81


def test_corpus_report_bytes_are_pinned(capsys, tmp_path):
    # the behavioural contract: refactors keep this report byte-identical;
    # it changed when thm:incl and lem:collapseDewt went from 8 sampled to
    # all 19 upward-closed subalgebras of C3
    target = tmp_path / "corpus.json"
    assert run(capsys, "verify", "--corpus", "--seed", "42",
               "-o", str(target))[0] == 0
    digest = hashlib.md5(target.read_bytes()).hexdigest()
    assert digest == "de765990c00600d95bfdbc2488e6c9fd"


@pytest.mark.parametrize("command,digest", [
    (("aut",), "298a9e0ad0d2d221dcec3204e960b87b"),
    (("check",), "8741c887e6bf544872245decb8222683"),
    (("verify", "--claims", ",".join(assigned("run.py", "CLAIMS_C4"))),
     "1b6c00e8a569d93009601518ad46c2d0"),
    (("verify",), "4030f0b306789c6cb46cb7b0607536da"),
], ids=["aut", "check", "verify-claims-c4", "verify-all-claims"])
def test_c4_report_bytes_are_pinned(capsys, tmp_path, monkeypatch, command,
                                    digest):
    # filter and omega bytes at 81 elements, beyond the corpus pin's 27;
    # every claim runs in the last case, lem:fixed, grp:inn-structure,
    # roundtrip:omega and thm:isoGroups among them; the instance is named
    # after the file, so the file is c4.json
    monkeypatch.delenv("MRKIT_MAX_CARRIER", raising=False)
    path = tmp_path / "c4.json"
    assert run(capsys, "build", "--kind", "interval", "--atoms", "4",
               "-o", str(path))[0] == 0
    code, out, _ = run(capsys, command[0], "-i", str(path), *command[1:])
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_build_and_witness_bytes_are_pinned(capsys, tmp_path, monkeypatch):
    # a table document, and a report of 292 witnesses: the streamed writer
    # splits both by list element
    monkeypatch.delenv("MRKIT_MAX_CARRIER", raising=False)
    code, out, _ = run(capsys, "build", "--kind", "interval", "--atoms", "4")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == \
        "6f525b7b687e58022a69f1f710b24e32"
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(to_json_dict(
        mutate(build_I(b4()), random.Random(1)))))
    code, out, _ = run(capsys, "check", "--witness", "all", "-i", str(path))
    assert code == 1
    assert hashlib.md5(out.encode()).hexdigest() == \
        "81117276c4cc3cf3d355d94234a9bf4b"


@pytest.mark.parametrize("argv", [
    ("build", "--kind", "interval", "--atoms", "3"),
    ("build", "--kind", "filter", "--base", "B3", "--min", "p"),
    ("check", "-i", "{c3}"),
    ("check", "--witness", "all", "-i", "{mutant}"),
    ("check", "--format", "text", "--witness", "all", "-i", "{mutant}"),
    ("aut", "-i", "{c3}"),
    ("aut", "--inner", "--format", "text", "-i", "{c3}"),
    ("verify", "--claims", "axioms:cubic,lem:kl,thm:lots", "-i", "{c3}"),
    ("verify", "--witness", "all", "--claims", "axioms:cubic,lem:kl",
     "-i", "{mutant}"),
    ("verify", "--format", "text", "--claims", "lem:kl", "-i", "{c3}"),
    ("verify", "--corpus", "--claims", "count:interval,lem:kl"),
], ids=["build", "build-filter", "check", "check-all", "check-text", "aut",
        "aut-text", "verify", "verify-fail", "verify-text", "verify-corpus"])
def test_the_output_file_holds_the_stdout_bytes(capsys, tmp_path, argv):
    # _write has two sinks, stdout and -o FILE
    c3 = tmp_path / "c3.json"
    c3.write_text(json.dumps(to_json_dict(build_I(b3()))))
    mutant = tmp_path / "mutant.json"
    mutant.write_text(json.dumps(to_json_dict(
        mutate(build_I(b3()), random.Random(3)))))
    argv = [a.format(c3=c3, mutant=mutant) for a in argv]
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "out"
    assert run(capsys, *argv, "-o", str(target)) == (code, "", "")
    assert target.read_bytes() == out.encode() and out
