"""Homomorphisms between finite algebras.

A carrier map is just the image list of a function between carriers; the
classifier decides whether it commutes with every basic operation and
whether it is injective/surjective.  find_homs enumerates the homs by
backtracking over the images of a generating set only: propagation along
the operation tables forces every other value or finds a conflict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import (
    DEFAULT_CAPS,
    Caps,
    FiniteAlgebra,
    SearchCapError,  # re-exported: the hom search trips it through Caps.check
    UalgError,
    _decode_mixed,
    mapped_cells,
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
    """First (symbol, args) where the map fails to commute, else None; each
    table is compared whole, mapped through the image."""
    same_signature(m.src, m.dst)
    image = m.image
    for (name, arity), src_table, dst_table in zip(m.src.sig.ops, m.src.tables, m.dst.tables):
        mapped = [image[x] for x in src_table]
        target = [dst_table[j] for j in mapped_cells(image, m.dst.size, arity)]
        if mapped != target:
            at = next(i for i, (a, b) in enumerate(zip(mapped, target)) if a != b)
            return (name, _decode_mixed((m.src.size,) * arity, at))
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
    # per h-class: its least element p and, if any, its first q with g(q) != g(p)
    preimage: dict[int, int] = {}
    failures: dict[int, tuple[int, int]] = {}
    for a, c in enumerate(h.image):
        p = preimage.setdefault(c, a)
        if g.image[a] != g.image[p]:
            failures.setdefault(c, (p, a))
    for c in range(h.dst.size):
        if c not in preimage:
            raise NotSurjectiveError(c)
    if failures:
        # the least pair of ker h that g separates has the least such p
        raise KernelInclusionError(min(failures.values()))
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
    image order.  fixed pins chosen source elements to target values.

    Homs agreeing on a generating set agree everywhere, so the search only
    branches on each least element outside the subalgebra generated by the
    constants, the fixed elements and the earlier branch points.  caps.search
    bounds the values tried at them: iterating past it raises SearchCapError.
    """
    same_signature(src, dst)
    fixed = dict(fixed or {})
    for a, b in fixed.items():
        if not 0 <= a < src.size or not 0 <= b < dst.size:
            raise ValueError(f"fixed assignment {a}->{b} out of range")
    seeds = [(s[0], d[0]) for (_, k), s, d in zip(src.sig.ops, src.tables, dst.tables) if not k]
    seeds += fixed.items()
    search = _Search(src, dst, surjective, injective, caps)
    return search.homs() if search.assign(seeds) else iter(())


class _Search:
    """A partial image src -> dst, -1 marking the undecided elements."""

    def __init__(self, src, dst, surjective: bool | None, injective: bool | None, caps: Caps):
        self.src, self.dst, self.surjective, self.injective = src, dst, surjective, injective
        self.ops = [(k, s, d) for (_, k), s, d in zip(src.sig.ops, src.tables, dst.tables) if k]
        self.image = [-1] * src.size
        self.caps, self.cap, self.tried = caps, caps.search, 0

    def assign(self, todo: list[tuple[int, int]]) -> bool:
        """Send a to b for each (a, b) in todo, checking each newly decided x
        against the operation tuples over decided elements that contain x and
        forcing undecided results.  False on a conflict: an element sent to
        two values, or under injective two elements sent to one."""
        image, n, m = self.image, self.src.size, self.dst.size
        decided = [a for a in range(n) if image[a] >= 0]
        while todo:
            x, b = todo.pop()
            if image[x] == b:
                continue
            if image[x] >= 0 or (self.injective and b in image):
                return False
            image[x] = b
            decided.append(x)
            for arity, src_table, dst_table in self.ops:
                for head in itertools.product(decided, repeat=arity - 1):
                    s = d = 0
                    for a in head:
                        s, d = (s + a) * n, (d + image[a]) * m
                    for y in decided if x in head else (x,):
                        res, val = src_table[s + y], dst_table[d + image[y]]
                        if image[res] != val:
                            if image[res] >= 0:
                                return False
                            todo.append((res, val))
        return True

    def homs(self) -> Iterator[CarrierMap]:
        """The homs extending the image, each re-checked by classify: branch on
        the least undecided element, target values ascending."""
        image = self.image
        if self.surjective and self.dst.size - len(set(image) - {-1}) > image.count(-1):
            return  # more values unused than elements undecided
        if -1 not in image:
            cls = classify(m := CarrierMap(self.src, self.dst, tuple(image)))
            sur, inj = self.surjective, self.injective
            if cls.is_hom and sur in (None, cls.surjective) and inj in (None, cls.injective):
                yield m
            return
        a, saved = image.index(-1), image[:]
        for b in range(self.dst.size):
            self.tried += 1
            if self.tried > self.cap:
                self.caps.check("search", self.tried, "hom search values tried at branch points")
            if self.assign([(a, b)]):
                yield from self.homs()
            image[:] = saved


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
    """The first bijective hom a -> b and its inverse, or None.  The inverse
    of a bijective hom is a hom; a re-check raises UalgError if not."""
    if a.size != b.size:
        return None
    f = next(iter_homs(a, b, surjective=True, injective=True, caps=caps), None)
    if f is None:
        return None
    g = CarrierMap(b, a, tuple(sorted(range(b.size), key=f.image.__getitem__)))
    witness = hom_violation(g)
    if witness is not None:
        raise UalgError(f"inverse of {f.image} is not a hom at {witness[0]}{witness[1]}")
    return f, g


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> bool:
    return find_isomorphism(a, b, caps) is not None
