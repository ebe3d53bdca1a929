"""Finite signatures and algebras.

An algebra is a carrier {0..n-1} together with one flat operation table per
symbol of its signature.  Tables are row-major: the tuple (a1, .., ak) of a
k-ary operation on a size-n carrier lives at index a1*n^(k-1) + .. + ak.
Every FiniteAlgebra is well formed: each k-ary table holds n^k entries, all
in 0..n-1.  The constructor enforces this, raising InvalidTablesError with
every violation, so the rest of the package indexes tables raw.
Everything is immutable and safe to share.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping, Sequence


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


class CapExceededError(UalgError):
    """A configured resource cap was hit; never a silent truncation."""


@dataclass(frozen=True)
class Caps:
    """The resource limits: every capped function takes one Caps.

    carrier bounds product and free-algebra carrier sizes; cells bounds
    table cells, environment spaces, term counts, a model search's work
    (cells assigned plus relabellings tried) and the congruences found
    for one algebra (at most Bell(size)); search bounds a hom search's
    work, the target values it tries at its branch points.  Only
    the hom-search API (find_homs, find_isomorphism, check_leq, the
    hom-find command) searches homs; neither Birkhoff direction does.
    Every CLI command reads its caps from UALG_CAPS and passes them to
    every stage, both Birkhoff pipelines included.
    """

    carrier: int = 4096
    cells: int = 1_000_000
    search: int = 1_000_000

    @staticmethod
    def from_env(environ: Mapping[str, str] | None = None) -> "Caps":
        """Read overrides from UALG_CAPS, e.g. "carrier=512,cells=10000"."""
        environ = os.environ if environ is None else environ
        raw = environ.get("UALG_CAPS", "")
        values = {}
        for part in filter(None, (p.strip() for p in raw.split(","))):
            key, _, num = part.partition("=")
            if key not in ("carrier", "cells", "search") or not num.isdigit():
                raise UalgError(f"bad UALG_CAPS entry: {part!r}")
            values[key] = int(num)
        return Caps(**values)


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
        raise UnknownSymbolError(f"unknown operation symbol {symbol!r}")

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


def _violations(sig: Signature, size: int, tables: Sequence[Sequence[int]]) -> list[Violation]:
    """Every wrong table length and out-of-range entry, in signature order."""
    out = []
    for (name, arity), table in zip(sig.ops, tables):
        expected = size**arity
        if len(table) != expected:
            out.append(Violation(name, None, f"expected {expected} entries, got {len(table)}"))
            continue
        for i, entry in enumerate(table):
            if not 0 <= entry < size:
                out.append(Violation(name, i, f"entry {entry} ≥ size {size}"))
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
            if len(table) != self.size**arity or min(table) < 0 or max(table) >= self.size:
                raise InvalidTablesError(_violations(self.sig, self.size, self.tables))
            index[name] = (arity, table)
        object.__setattr__(self, "_ops", index)


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
    if entry is None:
        raise UnknownSymbolError(f"unknown operation symbol {symbol!r}")
    arity, table = entry
    if len(args) != arity:
        raise ArityMismatchError(
            f"op {symbol} expects {arity} arguments, got {len(args)}"
        )
    n = alg.size
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
