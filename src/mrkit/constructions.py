"""Builders for the concrete algebras the toolkit studies.

Everything here produces immutable structures with deterministic element
numbering: Boolean algebra elements are atom bitmasks in ascending order,
pair carriers are sorted lexicographically by coordinate index, and cube
faces follow the per-coordinate sign-code order.
"""

from __future__ import annotations

import itertools
from functools import cache, reduce
from operator import and_, or_

from . import config
from .cubic import (
    UNDEFINED,
    CubicAlgebra,
    _Record,
    _TableCore,
    _at,
    _induce,
    _Laws,
    _require_cubic,
    _trusted,
    as_index,
    preceq_mask,
)
from .errors import (
    CapExceeded,
    CaretUndefined,
    InvalidAlgebra,
    NotAPresentation,
)
from .filters import as_filter, is_gfilter, principal_filter

class ImplicationAlgebra(_Record, _TableCore):
    """Finite implication algebra given by order, join and implication tables.

    Meets are partial and order-theoretic.  Construction always validates:
    the order must be a bounded-above partial order, the join table its
    least upper bound, and the implication table must satisfy

    * (x -> y) -> y = x v y
    * x -> (y -> z) = y -> (x -> z)
    * x -> x = 1
    * x v y = 1  iff  x -> y = y
    """

    size: int
    leq_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    implies_table: tuple[tuple[int, ...], ...]
    one: int
    # like the cubic tables, labels and name take part in equality:
    # differently-labelled views are different algebras
    labels: tuple[str, ...] | None = None
    name: str = ""

    def __post_init__(self):
        self._validate_order(("implies", self.implies_table))
        laws = _Laws(self)
        for law, w in itertools.chain(laws.faults("join-lub", "e", "iff", "xx"),
                                      laws.faults("f")):
            raise InvalidAlgebra(_LAW_MESSAGES[law].format(*w))

    def implies(self, x: int, y: int) -> int:
        return self.implies_table[x][y]

    @property
    def algebra_id(self) -> str:
        return self.name or f"impl{self.size}"

    def __repr__(self):
        return f"ImplicationAlgebra({self.algebra_id}, size={self.size})"


_LAW_MESSAGES = {
    "join-lub": "join({0},{1}) is not the least upper bound",
    "e": "(x->y)->y = x v y fails at ({0},{1})",
    "iff": "x v y = 1 iff x->y = y fails at ({0},{1})",
    "xx": "x->x = 1 fails at {0}",
    "f": "exchange law fails at ({0},{1},{2})",
}


_ATOM_NAMES = "pqrstuvw"


def boolean_algebra(n: int) -> ImplicationAlgebra:
    """Powerset algebra B_n of n atoms, elements as atom bitmasks in
    ascending order; one instance per n, refused above the carrier cap."""
    if n < 0:
        raise CapExceeded(f"boolean_algebra: atom count {n} is negative")
    return _boolean_algebra(config.check_power(2, n, "boolean_algebra"), n)


@cache
def _boolean_algebra(size: int, n: int) -> ImplicationAlgebra:
    one, every = size - 1, range(size)
    atoms = _ATOM_NAMES[:n] if n <= len(_ATOM_NAMES) else \
        [f"a{i}" for i in range(n)]
    labels = tuple("1" if x == one else "0" if x == 0 else
                   "|".join(a for i, a in enumerate(atoms) if x >> i & 1)
                   for x in every)
    return ImplicationAlgebra(
        size=size, one=one, labels=labels, name=f"B{n}",
        leq_table=tuple(tuple(int(x & ~y == 0) for y in every) for x in every),
        join_table=tuple(tuple(x | y for y in every) for x in every),
        implies_table=tuple(tuple(one & ~x | y for y in every) for x in every))


def implication_subalgebra(base, subset, *, name: str = "") -> ImplicationAlgebra:
    """The implication algebra induced on a join/implication-closed subset.

    ``base`` may be an implication or a cubic algebra (a filter of a cubic
    algebra induces its implication algebra); the subset must contain the
    top.  Meets are re-derived from the restricted order, so they may
    be strictly more partial than in ``base``.
    """
    *_, imp, fields = _induce(
        base, subset, "implication", "implies",
        ("subset must contain the top element", "subset not closed under {}"),
        name)
    return ImplicationAlgebra(implies_table=imp, **fields)


# -- the pair construction ---------------------------------------------------

class PairElement(_Record):
    """A complementary pair of implication-algebra elements."""

    first: int
    second: int


@config.memo()
def pair_carrier(algebra) -> tuple[PairElement, ...]:
    """All pairs (a, b) with a v b = 1 whose meet exists, in lex order."""
    every, jt, mt = algebra.elements(), algebra.join_table, algebra._meet_table
    return tuple(PairElement(a, b) for a in every for b in every
                 if jt[a][b] == algebra.one and mt[a][b] != UNDEFINED)


@config.memo()
def pair_index(algebra) -> dict:
    return {(p.first, p.second): i for i, p in enumerate(pair_carrier(algebra))}


def _pair_count(base) -> int:
    # every (1, a) is a pair: a base over the cap is refused on its own
    # size, before the quadratic pair walk
    return base.size if base.size > config.max_carrier() \
        else len(pair_carrier(base))


@config.memo(guard="build_I", size=_pair_count)
def _pair_algebra(base) -> CubicAlgebra:
    """The pair algebra of ``base`` (see :func:`build_I`), unchecked.

    Sound for a validated :class:`ImplicationAlgebra`: its pair algebra is
    cubic by theorem.  The walk reads the base's tables.
    """
    pairs, idx = pair_carrier(base), pair_index(base)
    leq, join, meet, imp = (base.leq_table, base.join_table,
                            base._meet_table, base.implies_table)
    over = tuple(zip(*leq))  # over[a][c] = c <= a
    firsts = tuple(p.first for p in pairs)
    seconds = tuple(p.second for p in pairs)
    lt, jt, dt = [], [], []
    for i, (a, b) in enumerate(zip(firsts, seconds)):
        lt.append(tuple(map(and_, _at(leq[a], firsts), _at(leq[b], seconds))))
        jt.append(_at(idx, tuple(zip(_at(join[a], firsts),
                                     _at(join[b], seconds)))))
        # (c, d) <= (a, b) goes to (a ^ (b -> d), b ^ (a -> c))
        below = tuple(itertools.compress(range(len(pairs)), map(
            and_, _at(over[a], firsts), _at(over[b], seconds))))
        us = _at(meet[a], _at(imp[b], _at(seconds, below)))
        vs = _at(meet[b], _at(imp[a], _at(firsts, below)))
        row = [UNDEFINED] * len(pairs)
        for j, k in zip(below, map(idx.get, zip(us, vs))):
            if k is None:  # an undefined meet, or a meet that is no pair
                raise InvalidAlgebra(
                    f"pair reflection undefined at ({i},{j}); defect in base")
            row[j] = k
        dt.append(tuple(row))
    return _trusted(size=len(pairs), leq_table=tuple(lt),
                    join_table=tuple(jt), delta_table=tuple(dt),
                    one=idx[(base.one, base.one)],
                    labels=tuple(f"<{base.label(a)},{base.label(b)}>"
                                 for a, b in zip(firsts, seconds)),
                    name=f"I({base.algebra_id})")


@config.memo(guard="build_I", size=_pair_count)
def build_I(algebra) -> CubicAlgebra:
    """The cubic algebra of complementary pairs over an implication algebra.

    Order and join are coordinatewise; the reflection of (c, d) through
    (a, b) is (a ^ (b -> d), b ^ (a -> c)) with ^ the partial meet.  The
    algebra is the one :func:`_pair_algebra` builds, checked here for
    well-formedness and the cubic axioms; the verdict is the one
    ``is_cubic`` reads.
    """
    pair = _pair_algebra(algebra)
    pair.__post_init__()  # the well-formedness checks _trusted skips
    _require_cubic(pair)
    return pair


def embed_e_index(algebra, a) -> int:
    return pair_index(algebra)[(algebra.one, a)]


# -- cube face posets ---------------------------------------------------------

_PLUS, _MINUS, _SPAN = 1, 2, 3


@cache
def _face_codes(n: int) -> tuple[tuple[int, ...], ...]:
    # lexicographic in the per-coordinate code order +, -, *
    return tuple(itertools.product((_PLUS, _MINUS, _SPAN), repeat=n))


def _face_encode(code: tuple[int, ...]) -> int:
    word = 0
    for i, c in enumerate(code):
        word |= c << (2 * i)
    return word


def face_poset(n: int) -> CubicAlgebra:
    """The face algebra of the n-cube on sign vectors over {+, -, *}.

    A face is below another when its vertex set is contained in it
    (bitwise: its two-bit code is a submask); join is bitwise or; the
    reflection through a face flips the signs of the coordinates that
    face spans.
    """
    if n < 0:
        raise CapExceeded(f"face_poset: dimension {n} is negative")
    config.check_power(3, n, "face_poset")
    codes = _face_codes(n)
    words = [_face_encode(c) for c in codes]
    index = {w: i for i, w in enumerate(words)}
    low = sum(_PLUS << (2 * i) for i in range(n))
    high = sum(_MINUS << (2 * i) for i in range(n))
    size = len(codes)
    leq = [[0] * size for _ in range(size)]
    jn = [[0] * size for _ in range(size)]
    dl = [[UNDEFINED] * size for _ in range(size)]
    for i, f in enumerate(words):
        for j, g in enumerate(words):
            if f | g == g:
                leq[i][j] = 1
            jn[i][j] = index[f | g]
    for i, g in enumerate(words):
        span = (g & low) & ((g & high) >> 1)
        span_mask = span | (span << 1)
        for j, f in enumerate(words):
            if not leq[j][i]:
                continue
            flipped = ((f & low) << 1) | ((f & high) >> 1)
            dl[i][j] = index[(flipped & span_mask) | (f & ~span_mask)]
    sign = {_PLUS: "+", _MINUS: "-", _SPAN: "*"}
    labels = tuple("".join(sign[c] for c in code) for code in codes) \
        if n else ("()",)
    return CubicAlgebra.from_tables(
        leq, jn, dl, index[_face_encode(tuple([_SPAN] * n))],
        labels=labels, name=f"face{n}",
    )


def face_interval_isomorphism(n: int) -> tuple[int, ...]:
    """The coordinate map face_poset(n) -> build_I(boolean_algebra(n)).

    A sign vector goes to the pair (complement of its plus-set, union of
    its plus- and span-sets).
    """
    base = boolean_algebra(n)
    idx = pair_index(base)
    out = []
    for code in _face_codes(n):
        lo = sum(1 << i for i, c in enumerate(code) if c == _PLUS)
        hi = sum(1 << i for i, c in enumerate(code) if c != _MINUS)
        out.append(idx[(base.one & ~lo, hi)])
    return tuple(out)


# -- filter algebras -----------------------------------------------------------

def filter_algebra(base, members, *, name: str = "") -> CubicAlgebra:
    """The pair algebra over a filter of a Boolean algebra.

    The filter (a Filter or a member set) must be upward closed, meet
    closed and contain the top; the result is the pair construction over
    the induced implication algebra, and embeds upward-closed into the pair
    algebra of ``base``.
    """
    filt = as_filter(base, getattr(members, "members", members))
    impl = implication_subalgebra(base, filt.members,
                                  name=name or f"{base.algebra_id}^")
    return build_I(impl)


# -- presentations ---------------------------------------------------------------

def presentation_check(algebra: CubicAlgebra, points) -> bool:
    """Whether every element lies in the localization at some given point:
    the ORed :func:`preceq_mask` rows of the points, memoised on the
    algebra and computed only for the points asked, cover the carrier."""
    points = [as_index(algebra, p) for p in points]
    covered = reduce(or_, (preceq_mask(algebra, a) for a in points), 0)
    return covered == (1 << algebra.size) - 1


def gfilter_from_presentation(algebra: CubicAlgebra, seq):
    """Generating filter obtained by signed-meet descent along a sequence.

    Folds the sequence with the caret, takes the up-closure of the chain,
    and checks that the resulting filter generates the whole algebra.
    """
    seq = [as_index(algebra, a) for a in seq]
    if not seq:
        raise NotAPresentation("empty sequence")
    b = seq[0]
    chain = [b]
    for a in seq[1:]:
        nxt = algebra.caret(b, a)
        if nxt is None:
            raise CaretUndefined(f"caret({b},{a}) undefined; algebra not MR?")
        b = nxt
        chain.append(b)
    # the caret descends, so the up-closure of the chain is the up-set of
    # its last element; anything else is a broken caret
    if reduce(or_, (algebra._up[c] for c in chain)) != algebra._up[b]:
        raise InvalidAlgebra(f"caret chain {chain} does not descend to {b}")
    filt = principal_filter(algebra, b)
    if not is_gfilter(filt):
        raise NotAPresentation(
            f"sequence {seq} does not generate the whole algebra"
        )
    return filt
