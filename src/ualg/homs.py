"""Homomorphisms between finite algebras.

A carrier map is just the image list of a function between carriers; the
classifier decides whether it commutes with every basic operation and
whether it is injective/surjective.  find_homs enumerates all maps passing
the classifier by backtracking with compatibility pruning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import (
    DEFAULT_CAPS,
    CapExceededError,
    Caps,
    FiniteAlgebra,
    UalgError,
    row_major_index,
    same_signature,
)


class NotAHomError(UalgError):
    def __init__(self, witness: tuple[str, tuple[int, ...]]):
        self.witness = witness
        super().__init__(f"map is not a homomorphism at {witness[0]}{witness[1]}")


class NotSurjectiveError(UalgError):
    def __init__(self, missing: int):
        self.missing = missing
        super().__init__(f"map is not surjective: {missing} has no preimage")


class KernelInclusionError(UalgError):
    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"kernel inclusion fails at pair {pair}")


class SearchCapError(CapExceededError):
    pass


@dataclass(frozen=True)
class CarrierMap:
    """A function src -> dst given by its image list."""

    src: FiniteAlgebra
    dst: FiniteAlgebra
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.image) != self.src.size:
            raise ValueError(
                f"image length {len(self.image)} != source size {self.src.size}"
            )
        for a, b in enumerate(self.image):
            if not 0 <= b < self.dst.size:
                raise ValueError(f"image[{a}] = {b} outside target carrier")

    def __call__(self, a: int) -> int:
        return self.image[a]


def identity_map(alg: FiniteAlgebra) -> CarrierMap:
    return CarrierMap(alg, alg, tuple(range(alg.size)))


@dataclass(frozen=True)
class HomClassification:
    is_hom: bool
    witness: tuple[str, tuple[int, ...]] | None
    injective: bool
    surjective: bool


def hom_violation(m: CarrierMap) -> tuple[str, tuple[int, ...]] | None:
    """First (symbol, args) where the map fails to commute, else None."""
    same_signature(m.src, m.dst)
    image, size = m.image, m.dst.size
    for (name, arity), src_table, dst_table in zip(m.src.sig.ops, m.src.tables, m.dst.tables):
        for at, args in enumerate(itertools.product(range(m.src.size), repeat=arity)):
            mapped = 0
            for a in args:
                mapped = mapped * size + image[a]
            if image[src_table[at]] != dst_table[mapped]:
                return (name, args)
    return None


def classify(m: CarrierMap) -> HomClassification:
    witness = hom_violation(m)
    values = set(m.image)
    return HomClassification(
        is_hom=witness is None,
        witness=witness,
        injective=len(values) == m.src.size,
        surjective=len(values) == m.dst.size,
    )


def compose(g: CarrierMap, h: CarrierMap) -> CarrierMap:
    """h after g: first apply g, then h."""
    if g.dst != h.src:
        raise UalgError("compose: middle algebras differ")
    return CarrierMap(g.src, h.dst, tuple(h.image[b] for b in g.image))


def kernel_pairs(m: CarrierMap) -> set[tuple[int, int]]:
    """All pairs of source elements the map identifies (incl. diagonal)."""
    return {
        (x, y)
        for x in range(m.src.size)
        for y in range(m.src.size)
        if m.image[x] == m.image[y]
    }


def hom_factor(g: CarrierMap, h: CarrierMap) -> CarrierMap:
    """Given homs g, h from a common source with h surjective and
    ker h <= ker g, return phi with g = phi o h.

    phi sends c to g(least h-preimage of c); kernel inclusion makes the
    choice of preimage irrelevant.
    """
    if g.src != h.src:
        raise UalgError("hom_factor: sources differ")
    for m in (g, h):
        witness = hom_violation(m)
        if witness is not None:
            raise NotAHomError(witness)
    preimage: dict[int, int] = {}
    for a in range(h.src.size):
        preimage.setdefault(h.image[a], a)
    for c in range(h.dst.size):
        if c not in preimage:
            raise NotSurjectiveError(c)
    for (x, y) in sorted(kernel_pairs(h)):
        if g.image[x] != g.image[y]:
            raise KernelInclusionError((x, y))
    return CarrierMap(h.dst, g.dst, tuple(g.image[preimage[c]] for c in range(h.dst.size)))


def iter_homs(
    src: FiniteAlgebra,
    dst: FiniteAlgebra,
    surjective: bool | None = None,
    injective: bool | None = None,
    fixed: Mapping[int, int] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> Iterator[CarrierMap]:
    """Yield every hom src -> dst meeting the constraints, in lexicographic
    image order.  fixed pins chosen source elements to target values."""
    same_signature(src, dst)
    fixed = dict(fixed or {})
    for a, b in fixed.items():
        if not 0 <= a < src.size or not 0 <= b < dst.size:
            raise ValueError(f"fixed assignment {a}->{b} out of range")
    free = src.size - len(fixed)
    if dst.size**free > caps.search:
        raise SearchCapError(f"search space {dst.size}^{free} exceeds cap {caps.search}")
    ops = list(zip(src.sig.ops, src.tables, dst.tables))
    return _extend(src, dst, ops, [-1] * src.size, 0, fixed, surjective, injective)


def _extend(src, dst, ops, image, a, fixed, surjective, injective) -> Iterator[CarrierMap]:
    """Homs agreeing with image[:a], in lexicographic image order; every
    complete image is re-checked by classify."""
    n, m = src.size, dst.size
    if a == n:
        cm = CarrierMap(src, dst, tuple(image))
        cls = classify(cm)
        wanted = surjective in (None, cls.surjective) and injective in (None, cls.injective)
        if cls.is_hom and wanted:
            yield cm
        return
    if a in fixed:
        candidates = [fixed[a]]
    elif injective:
        candidates = [b for b in range(m) if b not in image]
    else:
        candidates = range(m)
    for b in candidates:
        image[a] = b
        if _compatible(ops, n, m, image, a):
            if not (surjective and m - len(set(image) - {-1}) > n - a - 1):
                yield from _extend(src, dst, ops, image, a + 1, fixed, surjective, injective)
        image[a] = -1


def _compatible(ops, n: int, m: int, image: list[int], v: int) -> bool:
    # check every op tuple that involves v and is otherwise decided
    for (name, arity), src_table, dst_table in ops:
        if arity == 0:
            res = src_table[0]
            if image[res] >= 0 and dst_table[0] != image[res]:
                return False
            continue
        for args in itertools.product(
            [a for a in range(n) if image[a] >= 0], repeat=arity
        ):
            res = src_table[row_major_index(n, args)]
            if image[res] < 0:
                continue
            if v in args or res == v:
                mapped = row_major_index(m, [image[a] for a in args])
                if dst_table[mapped] != image[res]:
                    return False
    return True


def find_homs(
    src: FiniteAlgebra,
    dst: FiniteAlgebra,
    surjective: bool | None = None,
    injective: bool | None = None,
    fixed: Mapping[int, int] | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> list[CarrierMap]:
    return list(iter_homs(src, dst, surjective, injective, fixed, caps))


def find_isomorphism(
    a: FiniteAlgebra, b: FiniteAlgebra, caps: Caps = DEFAULT_CAPS
) -> tuple[CarrierMap, CarrierMap] | None:
    """A mutually inverse pair of homs a -> b and b -> a, if any."""
    if a.size != b.size:
        return None
    for f in iter_homs(a, b, surjective=True, injective=True, caps=caps):
        inverse = [0] * b.size
        for x, y in enumerate(f.image):
            inverse[y] = x
        g = CarrierMap(b, a, tuple(inverse))
        if hom_violation(g) is None:
            return f, g
    return None


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> bool:
    return find_isomorphism(a, b, caps) is not None
