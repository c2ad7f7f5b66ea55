"""Output oracle for the benchmark, independent of the code under test.

The evaluator below re-states the axioms the ``check`` command reports, one
instance at a time, on the raw tables of the input document.  Reflections
are guarded: delta(x, y) is defined only when y <= x, and an instance whose
terms leave that domain is a violation, as it is for the program.  The
implication is x -> y = delta(1, delta(x v y, y)) v y.  Each ``verify_*``
function returns ``None`` when an output is right and a reason otherwise.
"""

from __future__ import annotations

import json
from operator import itemgetter

AUT_ORDER = 384    # 2**4 * 4! for C4
INNER_ORDER = 16   # 2**4


class Tables:
    """The operation tables of one algebra document."""

    def __init__(self, doc: dict):
        self.n = doc["carrier"]
        self.leq = doc["leq"]
        self.join = doc["join"]
        self.delta = doc["delta"]
        self.one = doc["one"]
        n = self.n
        self.up = [sum(1 << y for y in range(n) if self.leq[x][y])
                   for x in range(n)]
        self.down = [sum(1 << y for y in range(n) if self.leq[y][x])
                     for x in range(n)]
        self._by_up = {m: x for x, m in enumerate(self.up)}
        self._by_down = {m: x for x, m in enumerate(self.down)}

    def d(self, x, y):
        return self.delta[x][y] if self.leq[y][x] else None

    def imp(self, x, y):
        t = self.d(self.join[x][y], y)
        return None if t is None else self.join[self.d(self.one, t)][y]

    def lub(self, x, y):
        # the least upper bound is the element whose up-set is the set of
        # common upper bounds
        return self._by_up.get(self.up[x] & self.up[y])

    def meet(self, a, b):
        return self._by_down.get(self.down[a] & self.down[b])

    def below(self, *chain) -> bool:
        return all(self.leq[p][q] for p, q in zip(chain, chain[1:]))


def violates(t: Tables, axiom: str, w) -> bool:
    """Whether ``w`` is an instance of ``axiom`` that fails on ``t``."""
    n = t.n
    if not all(isinstance(v, int) and 0 <= v < n for v in w):
        return False
    if axiom == "join-lub" and len(w) == 2:
        x, y = w
        return t.join[x][y] != t.lub(x, y)
    if axiom in ("a", "c") and len(w) == 2 and t.below(*w):
        x, y = w
        if axiom == "a":
            return t.join[t.delta[y][x]][x] != y
        return t.d(y, t.delta[y][x]) != x
    if axiom in ("b", "d") and len(w) == 3 and t.below(*w):
        x, y, z = w
        r, s = t.delta[z][x], t.delta[z][y]
        if axiom == "b":
            lhs = t.d(z, t.delta[y][x])
            return lhs is None or lhs != t.d(s, r)
        return not t.leq[r][s]
    if axiom == "e" and len(w) == 2:
        x, y = w
        u = t.imp(x, y)
        return u is None or t.imp(u, y) != t.join[x][y]
    if axiom == "f" and len(w) == 3:
        x, y, z = w
        yz, xz = t.imp(y, z), t.imp(x, z)
        lhs = None if yz is None else t.imp(x, yz)
        rhs = None if xz is None else t.imp(y, xz)
        return lhs is None or lhs != rhs
    if axiom == "mr" and len(w) == 3:
        # for a, b < x: delta(x, a) v b is strictly below x iff a ^ b fails;
        # a, b <= x puts the join below x, so "strictly below" is "not x"
        x, a, b = w
        if a == x or b == x or not (t.leq[a][x] and t.leq[b][x]):
            return False
        return (t.join[t.delta[x][a]][b] != x) != (t.meet(a, b) is None)
    return False


def first_failure(t: Tables):
    """The first failing axiom instance of ``t``, or None if all hold."""
    n = range(t.n)
    pairs = [(x, y) for x in n for y in n]
    chains = [(x, y, z) for x, y in pairs if t.leq[x][y]
              for z in n if t.leq[y][z]]
    for axiom, witnesses in (("join-lub", pairs), ("a", pairs), ("c", pairs),
                             ("b", chains), ("d", chains), ("e", pairs)):
        for w in witnesses:
            if violates(t, axiom, w):
                return axiom, w
    imp = [[t.imp(x, y) for y in n] for x in n]
    if any(None in row for row in imp):
        return "e", None
    # x -> (y -> z) = y -> (x -> z), a row of z values at a time
    rows = [itemgetter(*row) for row in imp]
    for x in n:
        for y in n:
            if rows[y](imp[x]) != rows[x](imp[y]):
                return "f", (x, y)
    for x in n:
        below = [a for a in n if t.leq[a][x] and a != x]
        for a in below:
            for b in below:
                if violates(t, "mr", (x, a, b)):
                    return "mr", (x, a, b)
    return None


def preserves(t: Tables, perm) -> bool:
    """Whether ``perm`` is an automorphism of the tables of ``t``."""
    if sorted(perm) != list(range(t.n)) or perm[t.one] != t.one:
        return False
    on_perm = itemgetter(*perm)
    ext = list(perm) + [-1]  # an undefined reflection stays undefined
    for x in range(t.n):
        px = perm[x]
        if on_perm(t.leq[px]) != tuple(t.leq[x]):
            return False
        if on_perm(t.join[px]) != itemgetter(*t.join[x])(perm):
            return False
        if on_perm(t.delta[px]) != itemgetter(*t.delta[x])(ext):
            return False
    return True


def _report(out: bytes):
    try:
        return json.loads(out)
    except ValueError:
        return None


def verify_check_clean(code, out, truth):
    """A clean relabelling of C4: both axioms pass; ``truth`` is
    :func:`first_failure` of the document."""
    if truth is not None:
        return f"generator produced a non-cubic file: {truth}"
    rep = _report(out)
    if code != 0 or rep is None:
        return f"exit {code} on a clean file"
    if not (rep["cubic"]["passed"] and rep["mr"]["passed"]
            and rep["caret_total"] and rep["consistent"]):
        return "clean file reported as failing"
    if rep["cubic"]["violations"] or rep["mr"]["violations"]:
        return "violations listed for a clean file"
    return None


def verify_check_mutated(code, out, t: Tables, policy: str):
    """A mutated file: exit 1 and every listed violation is genuine."""
    rep = _report(out)
    if code != 1 or rep is None:
        return f"exit {code} on a mutated file"
    if rep["carrier"] != t.n or rep["cubic"]["passed"]:
        return "mutated file reported as cubic"
    for part in ("cubic", "mr"):
        found = rep[part]["violations"]
        if rep[part]["passed"] != (not found):
            return f"{part} verdict disagrees with its violations"
        if policy == "first" and len(found) > 1:
            return f"{len(found)} {part} witnesses under --witness first"
        for axiom, w in found:
            if not violates(t, axiom, tuple(w)):
                return f"reported {axiom} at {w} does not violate it"
    return None


def verify_aut(code, out, t: Tables):
    rep = _report(out)
    if code != 0 or rep is None:
        return f"exit {code} from aut"
    if rep["order"] != AUT_ORDER or rep["inner_order"] != INNER_ORDER:
        return f"orders {rep['order']}, {rep['inner_order']}"
    auts = {tuple(p) for p in rep["automorphisms"]}
    inner = {tuple(p) for p in rep["inner"]}
    if len(auts) != AUT_ORDER or len(inner) != INNER_ORDER:
        return "automorphism lists hold repeats"
    if not inner <= auts:
        return "an inner automorphism is missing from the group"
    bad = sum(not preserves(t, p) for p in auts)
    if bad:
        return f"{bad} listed maps are not automorphisms"
    omega = rep.get("omega", [])
    if len(omega) != INNER_ORDER or \
            {tuple(row["inner"]) for row in omega} != inner:
        return "omega does not pair every inner automorphism once"
    return None


def verify_claims(code, out, claim_ids, instance):
    rep = _report(out)
    if code != 0 or rep is None or not rep["passed"]:
        return f"exit {code} from the claim suite"
    got = sorted((r["claim_id"], r["instance"], r["status"])
                 for r in rep["results"])
    want = sorted((c, instance, "pass") for c in claim_ids)
    return None if got == want else "claim verdicts differ from all-pass"


def expected_corpus(spec: dict, seed: int) -> list:
    """Sorted (claim, instance, status) triples of ``verify --corpus``."""
    groups = {g: [i.replace("{seed}", str(seed)) for i in members]
              for g, members in spec["groups"].items()}
    out = [(cid, inst, "pass") for cid, group in spec["pass"].items()
           for inst in groups[group]]
    out += [(cid, inst, "skip") for cid, insts in spec["skip"].items()
            for inst in insts]
    return sorted(out)


def verify_corpus(code, out, expected, seed):
    rep = _report(out)
    if code != 0 or rep is None or not rep["passed"]:
        return f"exit {code} from verify --corpus"
    if rep["seed"] != seed or rep["input"] != "corpus":
        return "report names another seed or input"
    got = sorted((r["claim_id"], r["instance"], r["status"])
                 for r in rep["results"])
    if got != expected:
        diff = sorted(set(got) ^ set(expected))[:3]
        return f"corpus verdicts differ from the expected file: {diff}"
    return None
