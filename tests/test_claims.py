import dataclasses
import json
from pathlib import Path

import mrkit.claims
import mrkit.cubic
from mrkit.claims import CLAIMS, VerifyContext, run_claims

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
        ctx = VerifyContext(algebras=(("N5", N5), ("C1", C1)),
                            include_global=False)
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


def test_axioms_mr_checks_each_instance_once(corpus, monkeypatch):
    # replaying a witness evaluates its one triple, not the whole checker
    calls = []
    check = mrkit.cubic.check_mr_axiom

    def counted(algebra, *args, **kwargs):
        calls.append(algebra)
        return check(algebra, *args, **kwargs)

    monkeypatch.setattr(mrkit.cubic, "check_mr_axiom", counted)
    monkeypatch.setattr(mrkit.claims, "check_mr_axiom", counted)
    results = run_claims(VerifyContext(algebras=tuple(corpus),
                                       include_global=False), ["axioms:mr"])
    assert [r.status for r in results] == ["pass"] * len(corpus)
    assert [r.witness for r in results if r.instance == "N5"] == \
        [{"mr": False}]
    assert calls == [alg for _, alg in corpus]
