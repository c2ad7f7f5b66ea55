"""Finite cubic implication algebras stored as explicit operation tables.

The carrier of an algebra is ``range(size)``.  Order, join and the
reflection operation are explicit tables, so a structure can be checked,
serialized and replayed without trusting any derived code path.  Algebras
are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property
from operator import attrgetter, eq, itemgetter, ne
from typing import Iterator

from . import config
from .errors import (
    DeltaUndefined,
    InvalidAlgebra,
    MalformedTable,
    NotClosed,
)

UNDEFINED = -1


class _Record:
    """A frozen record, as a frozen dataclass would build it, without
    loading :mod:`dataclasses` (and through it ``inspect``, ``ast``,
    ``dis`` and ``tokenize``), which every command would pay for at start.

    The fields are the base record's fields, then the names the class
    annotates, in order, as :mod:`dataclasses` collects them; a class
    attribute of a field's name is its default.  Construction takes the
    fields by position or keyword, writes them to the instance ``__dict__``
    and runs ``__post_init__``, if the class has one.  Equality and the
    hash read the field tuple through one ``attrgetter`` per class, the
    repr lists the fields, and assignment and deletion raise AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = names = tuple(dict.fromkeys(
            [*cls._fields, *vars(cls).get("__annotations__", ())]))
        # read through the class; attrgetter gives no tuple for one name
        cls._astuple = attrgetter(*names) if len(names) > 1 else \
            lambda self: tuple(getattr(self, name) for name in names)

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} "
                            f"arguments but {len(args)} were given")
        values = self.__dict__
        for name, value in zip(names, args):
            values[name] = value
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif hasattr(cls, name):
                values[name] = getattr(cls, name)
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                            f"argument {next(iter(kwargs))!r}")
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __eq__(self, other):
        cls = self.__class__
        if other.__class__ is cls:
            return self is other or cls._astuple(self) == cls._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.__class__._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ElementRef(_Record):
    """Address of a carrier element of a named algebra."""

    algebra_id: str
    index: int

    def resolve(self, algebra: "CubicAlgebra") -> int:
        if self.algebra_id != algebra.algebra_id:
            raise ValueError(
                f"reference into {self.algebra_id!r} used with {algebra.algebra_id!r}"
            )
        if not 0 <= self.index < algebra.size:
            raise IndexError(f"element index {self.index} out of range")
        return self.index


def as_index(algebra: "CubicAlgebra", x) -> int:
    """Check an int (not a bool) or resolve an ElementRef as a carrier
    index; anything else is a TypeError."""
    if isinstance(x, ElementRef):
        return x.resolve(algebra)
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"element {x!r} is not an int or an ElementRef")
    if not 0 <= x < algebra.size:
        raise IndexError(f"element index {x} out of range")
    return x


class AxiomReport(_Record):
    """Outcome of a model check: empty violation list means all laws hold."""

    violations: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def first(self):
        return self.violations[0] if self.violations else None

    def ids(self) -> tuple[str, ...]:
        return tuple(sorted({axiom_id for axiom_id, _ in self.violations}))


def _report(violations, witness_policy: str) -> AxiomReport:
    """The report of a lazy stream of (id, witness) violations: its first
    one under the ``first`` witness policy, all of them under ``all``."""
    if witness_policy not in ("first", "all"):
        raise ValueError(f"unknown witness policy {witness_policy!r}")
    limit = 1 if witness_policy == "first" else None
    return AxiomReport(tuple(itertools.islice(violations, limit)))


class _TableCore:
    """Order core shared by every algebra.

    Subclasses are frozen records that supply ``size``, ``leq_table``,
    ``join_table``, ``one`` and ``labels``.  The core derives the up/down-set
    masks and the partial meet from the order table and validates shapes,
    ranges and the partial-order laws in O(n^2) mask operations.
    """

    def _validate_order(self, *totals):
        """Check shapes and the order; ``totals`` are extra (label, table)
        pairs of total operations, range-checked like the join table."""
        n = self.size
        ops = (("join", self.join_table),) + totals
        for label, tab in (("leq", self.leq_table),) + ops:
            if len(tab) != n or any(len(row) != n for row in tab):
                raise MalformedTable(f"{label} table is not {n}x{n}")
        for x, row in enumerate(self.leq_table):
            if not {0, 1}.issuperset(row):
                y = next(y for y, v in enumerate(row) if v not in (0, 1))
                raise MalformedTable(f"leq({x},{y}) = {row[y]} is not 0 or 1")
        if not 0 <= self.one < n:
            raise MalformedTable("top index out of range")
        if self.labels is not None and len(self.labels) != n:
            raise MalformedTable("labels length mismatch")
        up, down, carrier = self._up, self._down, frozenset(range(n))
        for x in range(n):
            bit = 1 << x
            if not up[x] & bit:
                raise MalformedTable(f"order not reflexive at {x}")
            if not up[x] >> self.one & 1:
                raise MalformedTable(f"{self.one} is not a maximum (misses {x})")
            twins = up[x] & down[x] & ~bit
            if twins:
                raise MalformedTable(
                    f"order not antisymmetric at ({x},{next(_bits(twins))})")
            for y in _bits(up[x]):
                if up[y] & ~up[x]:
                    raise MalformedTable(f"order not transitive through ({x},{y})")
            for label, tab in ops:
                if carrier.issuperset(tab[x]):
                    continue  # the common case: the row holds elements only
                for y, v in enumerate(tab[x]):
                    if not 0 <= v < n:
                        raise MalformedTable(f"{label}({x},{y}) out of range")

    @cached_property
    def _up(self) -> tuple[int, ...]:
        return tuple(sum(1 << y for y, v in enumerate(row) if v)
                     for row in self.leq_table)

    @cached_property
    def _down(self) -> tuple[int, ...]:
        return _down_masks(self.leq_table)

    @cached_property
    def _meet_table(self) -> tuple[tuple[int, ...], ...]:
        return _glb_table(self._down)

    @cached_property
    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.size) if self._down[x] == 1 << x)

    def elements(self) -> range:
        return range(self.size)

    def leq(self, x: int, y: int) -> bool:
        return bool(self.leq_table[x][y])

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def meet(self, x: int, y: int) -> int | None:
        """Order-theoretic greatest lower bound, or None when it fails."""
        z = self._meet_table[x][y]
        return None if z == UNDEFINED else z

    def label(self, x: int) -> str:
        if self.labels is not None:
            return self.labels[x]
        return str(x)


class CubicAlgebra(_Record, _TableCore):
    """Finite join semilattice with top and a partial reflection table.

    ``leq_table[x][y]`` is 1 iff x <= y.  ``delta_table[x][y]`` is the
    reflection of y through x, defined exactly when y <= x (``UNDEFINED``
    elsewhere).  Well-formedness (partial order, table shapes, reflection
    domain, unique maximum) is enforced on every construction but one:
    :func:`_trusted`, the internal path behind the subalgebra inducer and
    the pair build, whose tables are well formed by construction.  The
    cubic axioms themselves are enforced by :func:`CubicAlgebra.from_tables`
    unless it is asked for a raw structure for the model checker.
    """

    size: int
    leq_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    delta_table: tuple[tuple[int, ...], ...]
    one: int
    # labels and name take part in equality: two same-table algebras with
    # different labels are different views
    labels: tuple[str, ...] | None = None
    name: str = ""

    def __post_init__(self):
        self._validate_order()
        n, dl = self.size, self.delta_table
        if len(dl) != n or any(len(row) != n for row in dl):
            raise MalformedTable(f"delta table is not {n}x{n}")
        # the common case: row x is defined exactly on the down set of x
        # and holds UNDEFINED or elements only; the entries name a fault
        down, entries = self._down, frozenset(range(UNDEFINED, n))
        bits = tuple(1 << y for y in range(n))
        for x, row in enumerate(dl):
            defined = itertools.compress(
                bits, map(ne, row, itertools.repeat(UNDEFINED)))
            if sum(defined) == down[x] and entries.issuperset(row):
                continue
            for y, d in enumerate(row):
                if not down[x] >> y & 1:
                    if d != UNDEFINED:
                        raise MalformedTable(f"delta({x},{y}) defined off-domain")
                elif d == UNDEFINED:
                    raise MalformedTable(f"delta({x},{y}) must be defined")
                elif not 0 <= d < n:
                    raise MalformedTable(f"delta({x},{y}) out of range")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_tables(cls, leq, join, delta, one, *, labels=None, name="",
                    strict=True) -> "CubicAlgebra":
        """Build an algebra from tables, checking the cubic axioms by default.

        With ``strict=False`` only well-formedness is enforced, which is the
        entry point for feeding deliberately broken structures to the
        checkers.
        """
        tidy = lambda t: tuple(tuple(map(int, row)) for row in t)
        algebra = cls(
            size=len(leq),
            leq_table=tidy(leq),
            join_table=tidy(join),
            delta_table=tidy(delta),
            one=int(one),
            labels=tuple(labels) if labels is not None else None,
            name=name,
        )
        if strict:
            _require_cubic(algebra)
        return algebra

    # -- element operations ----------------------------------------------

    def delta(self, x: int, y: int) -> int:
        """Reflection of y through x; defined exactly when y <= x."""
        if not self.leq_table[y][x]:
            raise DeltaUndefined(f"delta({x},{y}) needs {y} <= {x}")
        return self.delta_table[x][y]

    def _reflected(self, op: str, x: int, y: int, z: int) -> int:
        """delta(x v y, z); non-cubic input can leave z outside its domain."""
        d = self.delta_table[self.join_table[x][y]][z]
        if d < 0:
            raise DeltaUndefined(f"{op}({x},{y}) needs {z} <= {x} v {y}")
        return d

    def implies(self, x: int, y: int) -> int:
        d = self._reflected("implies", x, y, y)
        return self.join_table[self.delta_table[self.one][d]][y]

    @cached_property
    def implies_table(self) -> tuple[tuple[int, ...], ...]:
        """The cubic implication, UNDEFINED where :meth:`implies` raises."""
        top = (*self.delta_table[self.one], UNDEFINED)
        # column y: x -> y = delta(1, delta(x v y, y)) v y over x
        return tuple(zip(*(_at((*jt, UNDEFINED), _at(top, _at(dt, jt)))
                           for jt, dt in zip(zip(*self.join_table),
                                             zip(*self.delta_table)))))

    @cached_property
    def _delta_transpose(self) -> tuple[tuple[int, ...], ...]:
        """Entry [y][x] is delta(x, y), UNDEFINED off the domain."""
        return tuple(zip(*self.delta_table))

    def caret(self, x: int, y: int) -> int | None:
        """Signed meet: the meet of x with y reflected through x v y."""
        return self.meet(x, self._reflected("caret", x, y, y))

    def star(self, x: int, y: int) -> int:
        """Signed join: x joined with y reflected through x v y."""
        return self.join_table[x][self._reflected("star", x, y, y)]

    def preceq(self, x: int, y: int) -> bool:
        return bool(self.leq_table[self._reflected("preceq", x, y, x)][y])

    def sim(self, x: int, y: int) -> bool:
        return self._reflected("sim", x, y, x) == y

    # -- presentation ------------------------------------------------------

    @property
    def algebra_id(self) -> str:
        return self.name or f"cubic{self.size}"

    def ref(self, index: int) -> ElementRef:
        if not 0 <= index < self.size:
            raise IndexError(f"element index {index} out of range")
        return ElementRef(self.algebra_id, index)

    def up_set(self, x: int) -> frozenset[int]:
        return frozenset(_bits(self._up[x]))

    def down_set(self, x: int) -> frozenset[int]:
        return frozenset(_bits(self._down[x]))

    def __repr__(self):
        tag = self.name or "?"
        return f"CubicAlgebra({tag}, size={self.size})"


def _trusted(**fields) -> CubicAlgebra:
    """A :class:`CubicAlgebra` of tuple tables, without ``__post_init__``,
    for tables well formed by construction: a :class:`Subalgebra` of a
    validated parent, the pair algebra of a validated implication algebra
    (``constructions._pair_algebra``)."""
    algebra = object.__new__(CubicAlgebra)
    algebra.__dict__.update(fields)
    return algebra


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _down_masks(leq) -> tuple[int, ...]:
    """Down-set masks of an order table: bit y of entry x means y <= x."""
    n = len(leq)
    return tuple(sum(1 << y for y in range(n) if leq[y][x]) for x in range(n))


def _glb_table(down: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The meet table of an order given by its down-set masks: the glb of
    x and y is the z whose down set is down[x] & down[y], UNDEFINED where
    no z has it.  Where down sets repeat (a broken order) the first z wins."""
    glb = {d: z for z, d in reversed(tuple(enumerate(down)))}.get
    return tuple(tuple(glb(dx & dy, UNDEFINED) for dy in down) for dx in down)


def close_mask(mask: int, unary=(), binary=(), closed=0, stop=0) -> int:
    """The least superset of the element mask closed under the ops.

    A unary op is a tuple whose entry x is the mask of what x yields; a
    binary op is an index table, entry [x][y] the element op(x, y) or
    UNDEFINED where the op is undefined: an algebra's own table or a
    transpose of one.  Each round is semi-naive: only the elements new
    since the last round are expanded, their rows read at every member, so
    op(old, new) is never read and an op that does not commute must be
    passed together with its transpose.  A round's reads go into one set,
    so each distinct element is ORed in once; ``closed``, a closed submask
    of ``mask``, counts as expanded.  The loop stops once the mask holds
    all n bits (n the length of the first op's row), closed under every
    op, or meets ``stop``: a stopped result is a subset of the closure.
    """
    ops = unary or binary
    full = (1 << len(ops[0])) - 1 if ops else -1
    done, members = closed, list(_bits(closed))
    while mask != done and mask != full and not mask & stop:
        new, done = list(_bits(mask & ~done)), mask
        members += new
        get, hits = _getter(tuple(members)), set()
        for x in new:
            for op in unary:
                mask |= op[x]
            for table in binary:
                hits.update(get(table[x]))
        hits.discard(UNDEFINED)
        mask |= sum(1 << z for z in hits)
    return mask


# -- spec-level operation surface (accepts ints or ElementRefs) -----------

def join(algebra: CubicAlgebra, x, y) -> int:
    return algebra.join(as_index(algebra, x), as_index(algebra, y))


def meet(algebra: CubicAlgebra, x, y) -> int | None:
    return algebra.meet(as_index(algebra, x), as_index(algebra, y))


def delta(algebra: CubicAlgebra, x, y) -> int:
    return algebra.delta(as_index(algebra, x), as_index(algebra, y))


def implies(algebra: CubicAlgebra, x, y) -> int:
    return algebra.implies(as_index(algebra, x), as_index(algebra, y))


def caret(algebra: CubicAlgebra, x, y) -> int | None:
    return algebra.caret(as_index(algebra, x), as_index(algebra, y))


def star(algebra: CubicAlgebra, x, y) -> int:
    return algebra.star(as_index(algebra, x), as_index(algebra, y))


def preceq(algebra: CubicAlgebra, x, y) -> bool:
    return algebra.preceq(as_index(algebra, x), as_index(algebra, y))


def sim(algebra: CubicAlgebra, x, y) -> bool:
    return algebra.sim(as_index(algebra, x), as_index(algebra, y))


# -- the row kernel --------------------------------------------------------

def _getter(indices):
    """``itemgetter(*indices)``, returning a tuple for one index or none."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda seq: tuple(seq[i] for i in indices)


def _at(seq, indices) -> tuple:
    """``seq`` read at ``indices``."""
    return _getter(indices)(seq)


def _row_faults(checks, undefined):
    """The sorted (column, check index) pairs at which ``checks`` fail.

    A check is (columns, lhs, rhs), two rows read at the same columns; an
    entry fails where they differ or lhs is ``undefined``, the sentinel of
    the rows' encoding.  Only a check whose rows differ or hold the
    sentinel is scanned.
    """
    return sorted((c, k) for k, (cols, lhs, rhs) in enumerate(checks)
                  if lhs != rhs or undefined in lhs
                  for c, u, v in zip(cols, lhs, rhs)
                  if u != v or u == undefined)


# the largest carrier read as byte rows: its elements and the sentinel 255
# fit a byte, and a row padded to 256 entries is a translate table
_BYTE_CARRIER = 255
# law f compares the rows y >= x of an x in runs of about this many
# entries, which stay in the CPU cache
_RUN = 8192


class _Laws:
    """The laws of an algebra, each read a row at a time.

    A law is a method from a row key to a check of :func:`_row_faults`
    whose columns are the law's witnesses; ``_LAWS`` gives the method
    yielding its row keys and the positions of the key in a witness.

    The laws read the reflection table ``D``, the implication table
    ``I``, the transposes ``DT``, ``IT`` and ``JT`` (of the join) and the
    order ``leq`` as padded rows, each encoded on first use: an
    implication algebra has no reflection, and its laws are join-lub, e,
    f, iff and xx.  join-lub and iff read the join table itself, whose
    entries index the up masks.

    The carrier size n picks the encoding.  Up to ``_BYTE_CARRIER``
    elements a row is ``bytes``: UNDEFINED becomes the sentinel 255 and
    the row is padded with 255 to 256 entries, so ``read(indices, row)``,
    the row read at indices, is one ``indices.translate(row)``, and a
    read at the sentinel stays undefined.  Above, a row is a tuple read
    with ``itemgetter``, and its trailing UNDEFINED pad plays the same
    role.  ``reader(indices)`` reads rows at fixed indices, and
    ``concat`` joins rows end to end.
    """

    def __init__(self, a):
        self.algebra, self.n, self.one = a, a.size, a.one
        self.up, self.down, self.every = a._up, a._down, range(a.size)
        self.span = max(1, _RUN // self.n)
        if self.n <= _BYTE_CARRIER:
            pad = b"\xff" * (256 - self.n)
            self.seq, self.undefined, self.concat = bytes, 255, b"".join
            self.read = bytes.translate
            self.reader = lambda indices: indices.translate
            self._pad = lambda row: row + pad
            self._row = lambda row: (bytes(row) if UNDEFINED not in row else
                                     bytes(map((255).__and__, row))) + pad
        else:
            self.seq, self.undefined, self.concat = tuple, UNDEFINED, _joined
            self.read = lambda indices, row: _getter(indices)(row)
            self.reader = _getter
            self._row = self._pad = lambda row: (*row, UNDEFINED)

    def cols(self, mask):
        """The elements of ``mask``, as indices to read a row at."""
        return self.seq(_bits(mask))

    def between(self, x, z):
        """The y with x <= y <= z, as :meth:`cols`."""
        return self.cols(self.up[x] & self.down[z])

    def _encode(self, table):
        return tuple(map(self._row, table))

    def _transpose(self, rows):
        """Encoded rows transposed: column y is read off the unpadded
        rows end to end in steps of n."""
        n = self.n
        flat = self.concat(row[:n] for row in rows)
        return tuple(self._pad(flat[y::n]) for y in range(n))

    D = cached_property(lambda self: self._encode(self.algebra.delta_table))
    DT = cached_property(lambda self: self._transpose(self.D))
    I = cached_property(lambda self: self._encode(self.algebra.implies_table))
    IT = cached_property(lambda self: self._transpose(self.I))
    JT = cached_property(
        lambda self: self._encode(zip(*self.algebra.join_table)))
    leq = cached_property(lambda self: self._encode(self.algebra.leq_table))
    # the rows of I unpadded, as indices
    I_cols = cached_property(lambda self: tuple(r[:self.n] for r in self.I))

    def join_lub(self, x):  # up[x v y] = up[x] & up[y], as flags
        up = self.up
        return (itertools.product((x,), self.every), (True,) * self.n,
                tuple(map(eq, _at(up, self.algebra.join_table[x]),
                          map(up[x].__and__, up))))

    def a(self, x):  # delta(y,x) v x = y for y >= x
        ys, read = self.cols(self.up[x]), self.read
        return (itertools.product((x,), ys),
                read(read(ys, self.DT[x]), self.JT[x]), ys)

    def c(self, y):  # delta(y, delta(y,x)) = x for x <= y
        xs, row, read = self.cols(self.down[y]), self.D[y], self.read
        return itertools.product(xs, (y,)), read(read(xs, row), row), xs

    def b(self, x, z):  # as in check_cubic_axioms, for x <= y <= z
        ys, row, read = self.between(x, z), self.D[z], self.read
        return (itertools.product((x,), ys, (z,)),
                read(read(ys, self.DT[x]), row),
                read(read(ys, row), self.DT[row[x]]))

    def d(self, x, z):  # delta(z,x) <= delta(z,y) for x <= y <= z
        ys, row, read = self.between(x, z), self.D[z], self.read
        return (itertools.product((x,), ys, (z,)),
                read(read(ys, row), self.leq[row[x]]),
                self.seq((1,)) * len(ys))

    def e(self, y):  # (x -> y) -> y = x v y
        col, n = self.IT[y], self.n
        return (itertools.product(self.every, (y,)), self.read(col[:n], col),
                self.JT[y][:n])

    def f(self, x, y):  # x -> (y -> z) = y -> (x -> z), y over a run from y
        ix, ys = self.I[x], range(y, min(y + self.span, self.n))
        return (itertools.product((x,), ys, self.every),
                self.concat(map(self.read, self.I_cols[y:ys.stop],
                                itertools.repeat(ix))),
                self.concat(map(self.reader(ix[:self.n]), self.I[y:ys.stop])))

    def iff(self, x):  # x v y = 1 iff x -> y = y
        every = self.every
        return (itertools.product((x,), every),
                tuple(map(self.one.__eq__, self.algebra.join_table[x])),
                tuple(map(eq, self.I[x], every)))

    def xx(self, x):  # x -> x = 1, witnessed after row x as (x, n)
        return ((x, self.n),), (self.I[x][x],), (self.one,)

    def elements(self):
        return ((x,) for x in range(self.n))

    def chains(self):  # x <= z
        return ((x, z) for x in range(self.n) for z in _bits(self.up[x]))

    def runs(self):  # x <= y, y starting each run of span
        return ((x, y) for x in range(self.n)
                for y in range(x, self.n, self.span))

    def faults(self, *laws):
        """Yield the violations of ``laws``, sorted by witness and, at one
        witness, in the order of ``laws``.

        The rows of f read each pair x <= y once: at (y, x, z) the law has
        the sides of (x, y, z) swapped, so it fails alike.  The pair x = y
        stays, as it fails where an implication is undefined.
        """
        found, undefined = [], self.undefined
        for k, law in enumerate(laws):
            rows, keys, _ = _LAWS[law]
            for key in keys(self):
                _, lhs, rhs = check = rows(self, *key)
                if lhs == rhs and undefined not in lhs:
                    continue  # the common case: the row holds
                for w, _ in _row_faults((check,), undefined):
                    found.append((w, k))
                    if law == "f" and w[0] != w[1]:
                        found.append(((w[1], w[0], w[2]), k))
        yield from ((laws[k], w) for w, k in sorted(found))


def _joined(rows) -> list:
    """Tuple rows end to end."""
    out = []
    for row in rows:
        out += row
    return out


# law id -> (the law's method, the method yielding its row keys, the
# positions of the row key in a witness)
_LAWS = {"join-lub": (_Laws.join_lub, _Laws.elements, (0,)),
         "a": (_Laws.a, _Laws.elements, (0,)),
         "c": (_Laws.c, _Laws.elements, (1,)),
         "b": (_Laws.b, _Laws.chains, (0, 2)),
         "d": (_Laws.d, _Laws.chains, (0, 2)),
         "e": (_Laws.e, _Laws.elements, (1,)),
         "f": (_Laws.f, _Laws.runs, (0, 1)),
         "iff": (_Laws.iff, _Laws.elements, (0,)),
         "xx": (_Laws.xx, _Laws.elements, (0,))}


# -- model checking --------------------------------------------------------

def check_cubic_axioms(algebra: CubicAlgebra,
                       witness_policy: str = "first") -> AxiomReport:
    """Exhaustively check the join-semilattice law and the cubic axioms.

    Axiom ids in the report:

    * ``join-lub`` - the join table is the least upper bound of the order
    * ``a`` - for x <= y: delta(y,x) v x = y
    * ``b`` - for x <= y <= z: delta(z, delta(y,x)) = delta(delta(z,y), delta(z,x))
    * ``c`` - for x <= y: delta(y, delta(y,x)) = x
    * ``d`` - for x <= y <= z: delta(z,x) <= delta(z,y)
    * ``e`` - (x -> y) -> y = x v y
    * ``f`` - x -> (y -> z) = y -> (x -> z)

    A witness is the tuple of quantified elements.  Violations come in
    the order above, a with c and b with d interleaved, each group in
    ascending witness order, so the first witness is deterministic.
    """
    laws = _Laws(algebra)
    groups = (("join-lub",), ("a", "c"), ("b", "d"), ("e",), ("f",))
    return _report(itertools.chain.from_iterable(
        laws.faults(*group) for group in groups), witness_policy)


@config.memo()
def _cubic_report(algebra: CubicAlgebra) -> AxiomReport:
    """The first-witness cubic report, once per algebra: the one verdict
    that :func:`is_cubic`, strict construction and ``build_I`` share."""
    return check_cubic_axioms(algebra)


def is_cubic(algebra: CubicAlgebra) -> bool:
    """Whether the join-semilattice law and the cubic axioms hold."""
    return _cubic_report(algebra).passed


def _require_cubic(algebra: CubicAlgebra) -> None:
    """Raise InvalidAlgebra, with the report, unless the cubic axioms hold."""
    report = _cubic_report(algebra)
    if not report.passed:
        raise InvalidAlgebra(f"cubic axioms fail: {report.first()}",
                             report=report)


def _mr_failures(algebra: CubicAlgebra, x: int, a: int, bs) -> list[int]:
    """The b in ``bs`` at which (x, a, b), with a, b < x, breaks the axiom."""
    row = algebra.join_table[algebra.delta_table[x][a]]
    meets = algebra._meet_table[a]
    return [b for b in bs if (row[b] != x) != (meets[b] == UNDEFINED)]


def check_mr_axiom(algebra: CubicAlgebra,
                   witness_policy: str = "first") -> AxiomReport:
    """Check the meet-existence axiom: for a,b < x,
    delta(x,a) v b < x iff the meet of a and b does not exist.

    Witnesses are (x, a, b) triples; the algebra is assumed to already
    pass :func:`check_cubic_axioms`.
    """
    def violations():
        for x in algebra.elements():
            below = tuple(_bits(algebra._down[x] & ~(1 << x)))
            for a in below:
                for b in _mr_failures(algebra, x, a, below):
                    yield "mr", (x, a, b)

    return _report(violations(), witness_policy)


@config.memo()
def is_mr(algebra: CubicAlgebra) -> bool:
    """Whether the meet-existence axiom holds."""
    return check_mr_axiom(algebra).passed


def caret_rows(algebra: CubicAlgebra) -> Iterator[tuple[int, ...]]:
    """The signed meet a row at a time: row x holds meet(x, delta(x v y, y))
    over y, UNDEFINED where the reflection leaves its domain (y not below
    x v y, which only non-cubic input allows) or where the meet fails."""
    meet, dl = algebra._meet_table, algebra.delta_table
    for x, joins in enumerate(algebra.join_table):
        # the padding reads a reflection off its domain (-1) as UNDEFINED
        row = (*meet[x], UNDEFINED)
        yield tuple([row[dl[j][y]] for y, j in enumerate(joins)])


def caret_total(algebra: CubicAlgebra) -> bool:
    """Whether :func:`caret_rows` hold no UNDEFINED entry."""
    return not any(UNDEFINED in row for row in caret_rows(algebra))


def replay_witness(algebra: CubicAlgebra, axiom_id: str,
                   witness: tuple[int, ...]) -> bool:
    """Re-run one axiom instance; True means the witness really violates
    it.  The law is read on the one row that holds the witness."""
    arity = 3 if axiom_id in ("mr", "b", "d", "f") else 2
    if len(witness) != arity or not all(0 <= v < algebra.size for v in witness):
        return False
    if axiom_id == "mr":
        x, a, b = witness
        below = algebra._down[x] & ~(1 << x)
        in_domain = below >> a & 1 and below >> b & 1
        return bool(in_domain and _mr_failures(algebra, x, a, [b]))
    if axiom_id not in _LAWS or axiom_id in ("iff", "xx"):
        return False
    if axiom_id in ("b", "d") and not algebra.leq_table[witness[0]][witness[2]]:
        return False  # rows (x, z) are the chains x <= z
    if axiom_id == "f":  # the rows of x hold (x, y, z) for y >= x
        witness = (*sorted(witness[:2]), witness[2])
    rows, _, at = _LAWS[axiom_id]
    laws = _Laws(algebra)
    faults = _row_faults((rows(laws, *(witness[i] for i in at)),),
                         laws.undefined)
    return tuple(witness) in [w for w, _ in faults]


# -- subalgebras -----------------------------------------------------------

def _rows_at(parent, op, members) -> list[tuple]:
    """Op ``op`` of ``parent`` on the members: row x of its table read at
    the members, for each member x."""
    table, get = getattr(parent, f"{op}_table"), _getter(members)
    return [get(table[x]) for x in members]


def _induce(parent, members, label, op, messages, name):
    """Reindex a subset of ``parent`` holding the top and closed under join
    and the op named ``op`` (UNDEFINED where its table is undefined).
    Returns the sorted members, their index, the op's table and the fields
    every table algebra shares.  ``messages`` are the NotClosed message
    for a missing top and the format for a failed closure, whose witness
    is the first failing pair, the join before ``label`` at a pair."""
    members = tuple(sorted({as_index(parent, m) for m in members}))
    if parent.one not in members:
        raise NotClosed(messages[0])
    index = {m: i for i, m in enumerate(members)}
    # an entry's new index, None off the members, UNDEFINED at UNDEFINED
    at = [None] * parent.size + [UNDEFINED]
    for i, m in enumerate(members):
        at[m] = i
    join, table = (tuple(tuple(map(at.__getitem__, row))
                         for row in _rows_at(parent, o, members))
                   for o in ("join", op))
    for x, join_row, op_row in zip(members, join, table):
        if None in join_row or None in op_row:
            y, j = next((y, j) for y, j, o in zip(members, join_row, op_row)
                        if None in (j, o))
            raise NotClosed(messages[1].format("join" if j is None else label),
                            witness=(x, y))
    return members, index, table, dict(
        size=len(members), join_table=join,
        leq_table=tuple(_rows_at(parent, "leq", members)),
        one=index[parent.one],
        labels=tuple(parent.label(m) for m in members),
        name=name or f"{parent.algebra_id}|{len(members)}")


class Subalgebra:
    """A join- and reflection-closed subset reindexed as its own algebra.

    The induced algebra is built unchecked (:func:`_trusted`), as it
    inherits from its validated parent what ``CubicAlgebra.__post_init__``
    checks: the order laws; the ranges, as the closure checks here keep
    every join and reflection a member; the reflection domain y <= x; and
    the top, a member.
    """

    def __init__(self, parent: CubicAlgebra, members, *, name: str = ""):
        members = set(members)
        if not members:
            raise NotClosed("subalgebra must be nonempty")
        self.parent = parent
        self.members, self.index, table, fields = _induce(
            parent, members, "delta", "delta",
            ("subalgebra must contain the top element", "not closed under {}"),
            name)
        self.algebra = _trusted(delta_table=table, **fields)

    def to_parent(self, i: int) -> int:
        return self.members[i]

    def to_sub(self, x: int) -> int:
        return self.index[x]

    def __repr__(self):
        return f"Subalgebra({self.parent.algebra_id}, |members|={len(self.members)})"


def is_upward_closed(algebra: CubicAlgebra, members) -> bool:
    mask = sum(1 << x for x in {as_index(algebra, m) for m in members})
    return all(algebra._up[x] & ~mask == 0 for x in _bits(mask))


# -- localization -----------------------------------------------------------

class Localization(_Record):
    """The part of an algebra reachable above a point by reflections.

    ``members`` is both the set of reflections of elements above ``a`` and
    the set of elements that dominate ``a`` in the reflection order.
    :func:`localize` checks that the coordinates k(y) = (delta(1, y) v a)
    -> a and l(y) = y v a place the members one to one onto the pairs
    l >= k >= a of the interval above ``a``.
    """

    base: CubicAlgebra
    a: int
    members: tuple[int, ...]

    @cached_property
    def subalgebra(self) -> Subalgebra:
        return Subalgebra(self.base, self.members,
                          name=f"{self.base.algebra_id}@{self.a}")


@config.memo()
def preceq_mask(algebra: CubicAlgebra, a: int) -> int:
    """Mask of the x with a preceq x: the members of the localization at a."""
    return sum(1 << x for x in algebra.elements() if algebra.preceq(a, x))


@config.memo(guard="localize")
def localize(algebra: CubicAlgebra, a) -> Localization:
    """Compute the localization at ``a`` and verify all its laws, on masks.
    The coordinate pairs lie in {(p, q) : p >= q >= a} (the order check)
    and are distinct (the collision check), so counting them is enough."""
    a = as_index(algebra, a)
    up, dl = algebra._up, algebra.delta_table
    via_delta = 0
    for x in _bits(up[a]):
        for y in _bits(up[x]):
            via_delta |= 1 << dl[y][x]
    via_rel = preceq_mask(algebra, a)
    if via_delta != via_rel:
        raise InvalidAlgebra(
            f"localization routes disagree at {a}: "
            f"{list(_bits(via_delta ^ via_rel))}"
        )
    members = tuple(_bits(via_delta))
    one = algebra.one
    seen = {}
    for y in members:
        k = algebra.implies(algebra.join(algebra.delta(one, y), a), a)
        l = algebra.join(y, a)
        if not (up[a] >> k & 1 and up[k] >> l & 1):
            raise InvalidAlgebra(f"coordinate maps out of order at {y}")
        if (l, k) in seen:
            raise InvalidAlgebra(f"coordinate maps collide: {seen[(l, k)]}, {y}")
        seen[(l, k)] = y
    if len(seen) != sum(up[q].bit_count() for q in _bits(up[a])):
        raise InvalidAlgebra(f"coordinate maps miss pairs at {a}")
    loc = Localization(base=algebra, a=a, members=members)
    sub = loc.subalgebra.algebra
    if not check_mr_axiom(sub).passed:
        raise InvalidAlgebra(f"localization at {a} is not an MR-algebra")
    minimal = sum(1 << m for m in sub.minimal_elements)
    if not all(d & minimal for d in sub._down):
        raise InvalidAlgebra(f"localization at {a} is not atomic")
    return loc


# -- serialization -----------------------------------------------------------

def to_json_dict(algebra: CubicAlgebra) -> dict:
    data = {
        "carrier": algebra.size,
        "one": algebra.one,
        "leq": [list(row) for row in algebra.leq_table],
        "join": [list(row) for row in algebra.join_table],
        "delta": [list(row) for row in algebra.delta_table],
    }
    if algebra.labels is not None:
        data["labels"] = list(algebra.labels)
    if algebra.name:
        data["name"] = algebra.name
    return data


def _is_int(value) -> bool:
    # JSON true/false load as bool, an int subclass, but are not integers
    return type(value) is int


def from_json_dict(data: dict, *, strict: bool = True) -> CubicAlgebra:
    """Load an algebra document, rejecting bad values with MalformedTable
    and carriers above the cap with CapExceeded."""
    try:
        n, one = data["carrier"], data["one"]
        leq, jn, dl = data["leq"], data["join"], data["delta"]
    except (KeyError, TypeError) as exc:
        raise MalformedTable(f"bad algebra document: {exc}") from exc
    if not (_is_int(n) and _is_int(one)):
        raise MalformedTable("carrier and one must be integers")
    for key, table in (("leq", leq), ("join", jn), ("delta", dl)):
        if not (isinstance(table, list) and all(
                isinstance(row, list) and set(map(type, row)) <= {int}
                for row in table)):
            raise MalformedTable(f"{key} must be a list of rows of integers")
    labels = data.get("labels")
    if labels is not None and not (
            isinstance(labels, list) and all(isinstance(t, str) for t in labels)):
        raise MalformedTable("labels must be a list of strings")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise MalformedTable("name must be a string")
    if len(leq) != n:
        raise MalformedTable("carrier size does not match tables")
    config.check_carrier(n, "from_json_dict")
    return CubicAlgebra.from_tables(leq, jn, dl, one, labels=labels,
                                    name=name, strict=strict)


def canonical_chunks(data) -> Iterator[str]:
    """The canonical JSON of ``data`` in pieces, so no caller holds it
    whole: a str-keyed dict a key at a time and each list element under
    it in one encoder call; any other value, a dict with non-str keys
    too, in one call, so json's key conversion and sort apply."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              ensure_ascii=True).encode
    if not (isinstance(data, dict) and data
            and all(type(key) is str for key in data)):
        yield encode(data) + "\n"
        return
    for i, (key, value) in enumerate(sorted(data.items())):
        yield ("," if i else "{") + encode(key) + ":"
        if isinstance(value, (list, tuple)) and value:
            for j, item in enumerate(value):
                yield ("," if j else "[") + encode(item)
            yield "]"
        else:
            yield encode(value)
    yield "}\n"


def canonical_json(data) -> str:
    """Deterministic byte-for-byte serialization used by the CLI."""
    return "".join(canonical_chunks(data))
