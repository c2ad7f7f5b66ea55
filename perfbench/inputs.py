"""Seeded input generator: relabelled C4 tables and single-entry mutations.

C4 is the cubic algebra of complementary pairs over the Boolean algebra on
four atoms, built here from its definition so that the benchmark owns its
inputs.  Its elements are pairs (a, b) of atom bitmasks with a | b = 1111,
3**4 = 81 of them; order and join are coordinatewise, and the reflection of
(c, d) through (a, b), defined when (c, d) <= (a, b), is
(a & (~b | d), b & (~a | c)).

A relabelling applies a seeded permutation to the carrier.  A mutation
changes one ``join`` entry or one in-domain ``delta`` entry to another
carrier index, so the tables stay well-formed (shapes, ranges, order and
reflection domain untouched) and only the axioms can notice.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

UNDEFINED = -1
ATOMS = 4
FULL = (1 << ATOMS) - 1


def _label(mask: int) -> str:
    if mask == FULL:
        return "1"
    if mask == 0:
        return "0"
    return "|".join("pqrs"[i] for i in range(ATOMS) if mask >> i & 1)


def c4_tables() -> dict:
    """C4 as an algebra document, elements in lexicographic pair order."""
    pairs = [(a, b) for a in range(FULL + 1) for b in range(FULL + 1)
             if a | b == FULL]
    index = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)
    leq = [[int(a & ~c == 0 and b & ~d == 0) for (c, d) in pairs]
           for (a, b) in pairs]
    join = [[index[(a | c, b | d)] for (c, d) in pairs] for (a, b) in pairs]
    delta = [[index[(a & (FULL & ~b | d), b & (FULL & ~a | c))]
              if leq[j][i] else UNDEFINED
              for j, (c, d) in enumerate(pairs)]
             for i, (a, b) in enumerate(pairs)]
    return {"carrier": n, "one": index[(FULL, FULL)], "leq": leq,
            "join": join, "delta": delta,
            "labels": [f"<{_label(a)},{_label(b)}>" for a, b in pairs]}


def relabel(doc: dict, perm: list[int], name: str) -> dict:
    """The same algebra with element i renamed perm[i]."""
    n = doc["carrier"]
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    ext = perm + [UNDEFINED]  # index -1 maps UNDEFINED to itself

    def table(old, value):
        return [[value(old[inv[x]][inv[y]]) for y in range(n)]
                for x in range(n)]

    return {"carrier": n, "one": perm[doc["one"]],
            "leq": table(doc["leq"], int),
            "join": table(doc["join"], ext.__getitem__),
            "delta": table(doc["delta"], ext.__getitem__),
            "labels": [doc["labels"][inv[x]] for x in range(n)],
            "name": name}


def mutate(doc: dict, rng: random.Random, name: str) -> dict:
    """Copy of ``doc`` with one join or in-domain delta entry changed."""
    n = doc["carrier"]
    out = dict(doc, join=[row[:] for row in doc["join"]],
               delta=[row[:] for row in doc["delta"]], name=name)
    if rng.random() < 0.5:
        table = out["join"]
        x, y = rng.randrange(n), rng.randrange(n)
    else:
        table = out["delta"]
        x = rng.randrange(n)
        y = rng.choice([y for y in range(n) if doc["leq"][y][x]])
    old = table[x][y]
    table[x][y] = rng.choice([v for v in range(n) if v != old])
    return out


def generate(seed: int, count: int, directory: Path) -> dict:
    """Write ``count`` relabelled C4 files and one mutation of each.

    Returns the documents and paths: ``{"clean": [(path, doc)],
    "mutated": [(path, doc)]}``.  The same seed gives the same files.
    """
    rng = random.Random(seed)
    base = c4_tables()
    directory.mkdir(parents=True, exist_ok=True)
    out = {"clean": [], "mutated": []}
    for k in range(count):
        perm = list(range(base["carrier"]))
        rng.shuffle(perm)
        clean = relabel(base, perm, f"c4_{seed}_{k}")
        bad = mutate(clean, rng, f"c4_{seed}_{k}_mut")
        for kind, doc in (("clean", clean), ("mutated", bad)):
            path = directory / f"{doc['name']}.json"
            path.write_text(json.dumps(doc, separators=(",", ":")))
            out[kind].append((path, doc))
    return out
