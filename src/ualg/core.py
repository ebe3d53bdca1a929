"""Finite signatures and algebras.

An algebra is a carrier {0..n-1} together with one flat operation table per
symbol of its signature.  Tables are row-major: the tuple (a1, .., ak) of a
k-ary operation on a size-n carrier lives at index a1*n^(k-1) + .. + ak.
Every FiniteAlgebra is well formed: each k-ary table holds n^k entries, all
in 0..n-1.  The constructor enforces this, raising InvalidTablesError with
every violation, so the rest of the package indexes tables raw.
Everything is immutable and safe to share.

Public constructors (algebra, FiniteAlgebra(...), homs.CarrierMap(...))
and everything fileio and cli build validate their input.  An output that
a kernel has already shown well formed may skip that through a private
trusted constructor of its class (FiniteAlgebra._trusted,
CarrierMap._trusted): the hom search's maps (after the leaf re-check),
products, generated subalgebras (subalgebra_generate's and
hsp_certificate_check's), free algebras, find_models' models (re-checked
by mod_check), quotients, inclusions, natural maps, and
find_isomorphism's inverse (a permutation).

The module also holds the one index codec on int tables (mapped_cells and
_decode_mixed) and the one byte-lane kernel (lane_plan, lane_pointwise),
which term columns, the class checks of eqlogic.mod_failures,
closure.generate and the hom search's leaf re-check share; products read
no lanes.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, NoReturn, Sequence


class UalgError(Exception):
    """Base class for all errors raised by this package."""


class UnknownSymbolError(UalgError):
    pass


class ArityMismatchError(UalgError):
    pass


class OutOfRangeError(UalgError):
    pass


class SignatureMismatchError(UalgError):
    pass


def _bad_application(symbol: str, arity: int | None = None, got: int = 0) -> NoReturn:
    """Raise UnknownSymbolError when symbol has no arity, else ArityMismatchError."""
    if arity is None:
        raise UnknownSymbolError(f"unknown operation symbol {symbol!r}")
    raise ArityMismatchError(f"op {symbol} expects {arity} arguments, got {got}")


class CapExceededError(UalgError):
    """A configured resource cap was hit; never a silent truncation."""


class SearchCapError(CapExceededError):
    """The hom search's cap, caps.search, was hit."""


@dataclass(frozen=True)
class Caps:
    """The resource limits and the rules that apply them, tripped by check.

    carrier and cells admit every algebra a product or closure.generate
    builds, and the free algebra's generator tuples, by one rule, admit:
    n elements need n <= carrier, n * w <= cells for tuples of width w,
    and sum n^arity table cells <= cells (one application each in close,
    so this bounds work).  cells also bounds environment spaces
    (check_env_space), each term layer, refused before it is built, a
    model search's work (cells assigned plus relabellings tried; in
    search_proof's countermodel step, cells at most the node budget) and
    one algebra's congruences; search bounds a hom search's work, the
    target values at its branch points, tried or pruned (only the hom-search
    API searches homs).  Every CLI command reads UALG_CAPS and passes them to
    every capped call it makes; validate, hom, factor and entail-check make
    none.
    """

    carrier: int = 4096
    cells: int = 1_000_000
    search: int = 1_000_000

    def check(self, key: str, amount: int, what: str) -> None:
        """Raise CapExceededError (SearchCapError for search), naming what,
        once amount exceeds the cap key; hot loops compare first.  An amount
        past 256 bits reads 2^k or more (its digits may pass int's text limit)."""
        cap = getattr(self, key)
        if amount > cap:
            error = SearchCapError if key == "search" else CapExceededError
            shown = amount if amount.bit_length() <= 256 else f"2^{amount.bit_length() - 1} or more"
            raise error(f"{what}: {shown} exceeds cap {key}={cap}; raise it with UALG_CAPS={key}=N")

    def admit(self, sig: Signature, width: int, what: str) -> Callable[[int], None]:
        """close's admit(n) for an algebra of width-w tuples (w = 0 for a
        product), checked on every call: the first of n <= carrier,
        n * w <= cells and sum n^arity <= cells that fails trips check."""
        arities = [arity for _, arity in sig.ops]

        def admit(n: int) -> None:
            if n > self.carrier or n * width > self.cells or sum([n**r for r in arities]) > self.cells:
                self.check("carrier", n, f"{what} carrier")
                self.check("cells", n * width, f"{what} tuple cells")
                self.check("cells", sum([n**r for r in arities]), f"{what} table cells")

        return admit

    def check_env_space(self, size: int, variables: Sequence[str]) -> None:
        """At most cells environments; one comparison within the cap."""
        if (space := size ** len(variables)) > self.cells:
            self.check("cells", space, f"environment space {size}^{len(variables)}")

    @staticmethod
    def from_env(environ: Mapping[str, str] | None = None) -> "Caps":
        """Read overrides from UALG_CAPS, e.g. "carrier=512,cells=10000"."""
        environ = os.environ if environ is None else environ
        raw = environ.get("UALG_CAPS", "")
        values = {}
        for part in filter(None, (p.strip() for p in raw.split(","))):
            key, _, num = part.partition("=")
            if key not in ("carrier", "cells", "search") or (value := decimal(num)) is None:
                raise UalgError(f"bad UALG_CAPS entry: {part!r}")
            values[key] = value
        return Caps(**values)


def decimal(text: str) -> int | None:
    """A numeral of ASCII digits as an int, else None: the one reader of
    integers in outside input.  str.isdigit also takes ² and ٣, which int
    rejects or misreads, and int refuses a numeral past its conversion limit
    (sys.get_int_max_str_digits) with a bare ValueError."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:
        return None


DEFAULT_CAPS = Caps()


@dataclass(frozen=True, slots=True)
class Signature:
    """Ordered operation symbols with finite arities.

    The sequence order is the canonical symbol order used for every
    deterministic enumeration downstream.
    """

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.ops]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate operation symbols in {names}")
        for name, arity in self.ops:
            if arity < 0:
                raise ValueError(f"negative arity for {name}")

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ops)

    def arity(self, symbol: str) -> int:
        for name, arity in self.ops:
            if name == symbol:
                return arity
        _bad_application(symbol)

    def constants(self) -> tuple[str, ...]:
        return tuple(name for name, arity in self.ops if arity == 0)


def signature(*ops: tuple[str, int]) -> Signature:
    return Signature(tuple(ops))


@dataclass(frozen=True)
class Violation:
    """One invariant failure, naming the offending symbol and table index."""

    symbol: str
    index: int | None
    message: str

    def __str__(self) -> str:
        where = f" index {self.index}" if self.index is not None else ""
        return f"op {self.symbol}{where}: {self.message}"


class InvalidTablesError(OutOfRangeError):
    """The tables given for an algebra are ill formed; violations lists all."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("invalid tables: " + "; ".join(map(str, violations)))


def _table_length(size: int, arity: int, got: int) -> int | str:
    """size^arity, as text once arity passes got's bit length (then it exceeds got)."""
    if size > 1 and arity > got.bit_length():
        return f"{size}^{arity}"
    return size**arity


def _violations(sig: Signature, size: int, tables: Sequence[Sequence[int]]) -> list[Violation]:
    """Every wrong table length and out-of-range entry, in signature order."""
    out = []
    for (name, arity), table in zip(sig.ops, tables):
        expected = _table_length(size, arity, len(table))
        if len(table) != expected:
            out.append(Violation(name, None, f"expected {expected} entries, got {len(table)}"))
            continue
        for i, entry in enumerate(table):
            if not 0 <= entry < size:
                bound = "< 0" if entry < 0 else f"≥ size {size}"
                out.append(Violation(name, i, f"entry {entry} {bound}"))
    return out


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite algebra: carrier {0..size-1} plus one table per symbol.

    tables[i] belongs to sig.ops[i] and holds size**arity row-major entries,
    each in 0..size-1; construction raises InvalidTablesError otherwise.
    """

    sig: Signature
    size: int
    tables: tuple[tuple[int, ...], ...]
    _ops: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("carrier must be nonempty")
        if len(self.tables) != len(self.sig.ops):
            raise ValueError(
                f"expected {len(self.sig.ops)} tables, got {len(self.tables)}"
            )
        index = {}
        for (name, arity), table in zip(self.sig.ops, self.tables):
            length = len(table)
            if length != _table_length(self.size, arity, length) or min(table) < 0 or max(table) >= self.size:
                raise InvalidTablesError(_violations(self.sig, self.size, self.tables))
            index[name] = (arity, table)
        object.__setattr__(self, "_ops", index)

    @classmethod
    def _trusted(cls, sig: Signature, size: int, tables: tuple[tuple[int, ...], ...]) -> FiniteAlgebra:
        """An algebra built without validation, for kernel outputs already
        well formed.  The fields are set in field order, as __init__ sets
        them, so the instance keeps the class's shared-key dict."""
        alg = object.__new__(cls)
        object.__setattr__(alg, "sig", sig)
        object.__setattr__(alg, "size", size)
        object.__setattr__(alg, "tables", tables)
        object.__setattr__(alg, "_ops", {name: (arity, table) for (name, arity), table in zip(sig.ops, tables)})
        return alg

    @cached_property
    def _lanes(self) -> dict[str, tuple[tuple[bytes, ...], bytes]] | None:
        """lane_plan([self]), built on first use and kept: every
        term_columns call on this algebra, every closure.generate on it
        alone and every hom search onto it reads the same byte views of its
        tables (products read none)."""
        return lane_plan([self], self.sig)


def algebra(sig: Signature, size: int, tables: Mapping[str, Sequence[int]]) -> FiniteAlgebra:
    """Build a FiniteAlgebra from a symbol->table mapping."""
    missing = [name for name, _ in sig.ops if name not in tables]
    if missing:
        raise ValueError(f"missing tables for {missing}")
    extra = [name for name in tables if name not in sig.symbols]
    if extra:
        raise UnknownSymbolError(f"tables for symbols not in signature: {extra}")
    return FiniteAlgebra(sig, size, tuple(tuple(tables[n]) for n, _ in sig.ops))


def mapped_cells(image: Sequence[int], size: int, arity: int) -> list[int]:
    """For each cell of an arity-ary table over range(len(image)), in
    row-major order, the cell of a size-element table reading the same
    arguments mapped through image: the one whole-table index fold."""
    cells = [0]
    for _ in range(arity):
        cells = [c * size + x for c in cells for x in image]
    return cells


_IDENTITY = bytes(range(256))


def lane_plan(K: Sequence[FiniteAlgebra], sig: Signature) -> dict[str, tuple[tuple[bytes, ...], bytes]] | None:
    """Per symbol, the byte-lane kernel's step tables and final table over
    the members K, or None when they do not fit in byte lanes: their sizes
    must sum to at most 256, and so must their r-th powers for each arity r,
    and no arity may pass 8 (past 8 only one-element members would fit).

    Member k's lanes hold its values shifted by off_k = |A_0| + .. + |A_k-1|.
    After j arguments of an r-ary symbol, they hold start(k, j) plus the
    row-major index of those arguments, where start(k, j) is
    |A_0|^j + .. + |A_k-1|^j.  Step j maps start(k, j) + p to
    start(k, j+1) - off_k + p*|A_k|, so adding the next argument's lane
    gives start(k, j+1) + p*|A_k| + v, below 256 with no carry.  The final
    table maps start(k, r) + i to off_k plus entry i of member k's table (a
    constant reads start(k, 0) = k).  With one member there is no shift:
    each step multiplies by its size and the final table is its own.  The
    step tables and shifts depend only on the sizes and the largest arity,
    so _lane_frame keeps them per shape; only the final tables are built
    per call.

    Several members share a plan in closure.generate (the members a
    generated subalgebra's coordinates read) and in eqlogic.mod_failures
    (consecutive algebras checked against equations in one batch); every
    other caller reads one algebra's cached plan, FiniteAlgebra._lanes.
    """
    sizes = tuple([alg.size for alg in K])
    # n^j <= n^top for 1 <= j <= top: the largest arity, at least 1, decides
    top = max([1] + [arity for _, arity in sig.ops])
    if top > 8 or sum([n**top for n in sizes]) > 256:
        return None
    steps, lifts = _lane_frame(sizes, top)
    plan = {}
    for pos, (name, arity) in enumerate(sig.ops):
        final = b"".join([bytes(alg.tables[pos]) for alg in K])
        if lifts[arity]:  # member k's entries plus off_k, in one carry-free add
            final = (int.from_bytes(final, "little") + lifts[arity]).to_bytes(len(final), "little")
        plan[name] = (steps[: max(arity - 1, 0)], final.ljust(256, b"\0"))
    return plan


@functools.lru_cache(maxsize=32)
def _lane_frame(sizes: tuple[int, ...], top: int) -> tuple[tuple[bytes, ...], tuple[int, ...]]:
    """lane_plan's step tables 1 .. top - 1 and, per arity r <= top, the
    members' offsets off_k each repeated over member k's |A_k|^r table
    entries, read as one little-endian int.  Kept per shape since they
    depend only on the sizes: every symbol of every plan of that shape
    shares them, so they are tuples."""
    offsets = list(itertools.accumulate(sizes, initial=0))
    lifts = tuple([int.from_bytes(b"".join([bytes((off,)) * n**r for n, off in zip(sizes, offsets)]), "little")
                   for r in range(top + 1)])
    # Member k's block of every table starts at start(k, j), right after
    # member k-1's: each table is the members' blocks joined, padded to 256.
    steps = []
    for j in range(1, top):
        blocks, start = [], 0  # start(k, j+1)
        for n, off in zip(sizes, offsets):
            blocks.append(_IDENTITY[start - off : start - off + n ** (j + 1) : n])
            start += n ** (j + 1)
        steps.append(b"".join(blocks).ljust(256, b"\0"))
    return tuple(steps), lifts


def lane_pointwise(
    plan: dict[str, tuple[tuple[bytes, ...], bytes]], members: bytes
) -> Callable[..., bytes]:
    """The byte-lane kernel: apply(symbol, argument lanes) under a lane_plan.

    A value column is a bytes string, one lane per coordinate; an r-ary
    application is r - 1 translates through the step tables, carry-free
    big-int adds and one translate through the final table, whatever the
    width.  A constant reads members, each coordinate's member index, so its
    column is as wide as members.  apply(symbol, args, m, last) applies a
    row: the last argument is m columns joined and last is it read as an
    int; the prefix is folded once, then repeated m times before last is added.
    """
    from_bytes = int.from_bytes

    def apply(name: str, args: Sequence[bytes], m: int = 1, last: int | None = None) -> bytes:
        steps, final = plan[name]
        if not steps:  # a constant or a unary symbol: one translate
            return (args[0] if args else members).translate(final)
        z, y = args[0], args[-1]
        if len(args) > 2:  # the prefix's other lanes, each through its step
            for step, x in zip(steps, args[1:-1]):
                z = (from_bytes(z.translate(step), "little") + from_bytes(x, "little")).to_bytes(len(x), "little")
        z = from_bytes(z.translate(steps[-1]) * m, "little") + (from_bytes(y, "little") if last is None else last)
        return z.to_bytes(len(y), "little").translate(final)

    return apply


def _decode_mixed(sizes: Sequence[int], index: int) -> tuple[int, ...]:
    """The coordinates of a mixed-radix row-major index, coordinate 0 most
    significant."""
    out = [0] * len(sizes)
    for pos in range(len(sizes) - 1, -1, -1):
        index, out[pos] = divmod(index, sizes[pos])
    return tuple(out)


def apply_op(alg: FiniteAlgebra, symbol: str, args: Sequence[int]) -> int:
    """Look up one operation value, checking symbol, arity and ranges."""
    entry = alg._ops.get(symbol)
    if entry is None or len(args) != entry[0]:
        _bad_application(symbol, entry and entry[0], len(args))
    table, n = entry[1], alg.size
    idx = 0
    for a in args:
        if not 0 <= a < n:
            raise OutOfRangeError(f"argument {a} out of range for size {n}")
        idx = idx * n + a
    return table[idx]


def same_signature(*algebras: FiniteAlgebra) -> Signature:
    """Return the shared signature or raise SignatureMismatchError."""
    sig = algebras[0].sig
    for alg in algebras[1:]:
        if alg.sig != sig:
            raise SignatureMismatchError(
                f"signatures differ: {sig.ops} vs {alg.sig.ops}"
            )
    return sig
