"""Homomorphisms between finite algebras.

A carrier map is just the image list of a function between carriers; the
classifier decides whether it commutes with every basic operation and
whether it is injective/surjective.  find_homs enumerates the homs by
backtracking, in one depth-first loop, over the images of a generating set
only: propagation along the operation tables forces every other value or
finds a conflict.  A branch point scans its tuples once for all its values,
keeping as a bitmask the values that pass them (forward checking), and
propagates only from those.  Each complete image is re-checked, on the
target's byte lanes when they fit, each buffer of at most 256 // |src|
images in one lane pass, one application per table, and by hom_violation
past them or where they fail.  One that is not a hom raises UalgError; the
homs are yielded through CarrierMap._trusted, without validation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from .core import (
    DEFAULT_CAPS,
    Caps,
    FiniteAlgebra,
    SearchCapError,  # re-exported: the hom search trips it through Caps.check
    UalgError,
    _decode_mixed,
    lane_pointwise,
    mapped_cells,
    same_signature,
)
from .terms import environment_columns


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
        if not 0 <= min(self.image) <= max(self.image) < self.dst.size:  # src.size >= 1
            a, b = next((a, b) for a, b in enumerate(self.image) if not 0 <= b < self.dst.size)
            raise ValueError(f"image[{a}] = {b} outside target carrier")

    @classmethod
    def _trusted(cls, src: FiniteAlgebra, dst: FiniteAlgebra, image: tuple[int, ...]) -> CarrierMap:
        """A map built without validation, for kernel outputs already shown
        to be in range.  The fields are set in field order, as __init__
        sets them, so the instance keeps the class's shared-key dict."""
        m = object.__new__(cls)
        object.__setattr__(m, "src", src)
        object.__setattr__(m, "dst", dst)
        object.__setattr__(m, "image", image)
        return m

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
    bounds the values at them, each counted whether tried or pruned by the
    branch point's mask: iterating past it raises SearchCapError.
    A complete image that is not a hom (propagation missed a conflict) raises
    UalgError; only the flags filter complete images.
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
    """A partial image src -> dst, -1 marking the undecided elements, with
    trail, the decided elements in the order decided (an undo trail: a node
    is undone by cutting it back), uses, each target value's preimage count
    (for injective and the surjective prune), and masks, per operation the
    _passing masks built so far, one per (d, c, v) a scanned tuple needed,
    so that their memory grows with the tuples scanned.  leaves() walks
    the complete images in one loop, and homs() re-checks them by
    _recheck, which shares no code with assign or branch."""

    def __init__(self, src, dst, surjective: bool | None, injective: bool | None, caps: Caps):
        self.src, self.dst, self.surjective, self.injective = src, dst, surjective, injective
        self.ops = [(k, s, d) for (_, k), s, d in zip(src.sig.ops, src.tables, dst.tables) if k]
        self.image, self.trail, self.uses = [-1] * src.size, [], [0] * dst.size
        self.masks = [{} for _ in self.ops]
        self.caps, self.cap = caps, caps.search

    def assign(self, todo: list[tuple[int, int]]) -> bool:
        """Send a to b for each (a, b) in todo, checking each newly decided x
        against the operation tuples over decided elements that contain x and
        forcing undecided results.  False on a conflict: an element sent to
        two values, or under injective two elements sent to one."""
        image, trail, uses, n, m = self.image, self.trail, self.uses, self.src.size, self.dst.size
        while todo:
            x, b = todo.pop()
            if image[x] == b:
                continue
            if image[x] >= 0 or (self.injective and uses[b]):
                return False
            image[x] = b
            uses[b] += 1
            trail.append(x)
            for arity, src_table, dst_table in self.ops:
                for head in itertools.product(trail, repeat=arity - 1):
                    s = d = 0
                    for a in head:
                        s, d = (s + a) * n, (d + image[a]) * m
                    for y in trail if x in head else (x,):
                        res, val = src_table[s + y], dst_table[d + image[y]]
                        if image[res] != val:
                            if image[res] >= 0:
                                return False
                            todo.append((res, val))
        return True

    def branch(self, a: int) -> tuple[int, list[tuple[int, Sequence[int], int, int]]]:
        """The scan assign would make on sending the undecided a anywhere,
        made once for every value: over the tuples of decided elements and
        a that contain a, whose target index is d + b * c for a's value b.
        Returns the mask of the values b that pass every tuple whose result
        is decided or a itself (under injective, b unused too), and a
        forcing entry (res, dst_table, d, c) per other tuple, in assign's
        order."""
        image, trail, n, m = self.image, self.trail, self.src.size, self.dst.size
        allowed = (1 << m) - 1
        if self.injective:
            for x in trail:
                allowed &= ~(1 << image[x])
        forced = []
        image[a] = 0  # a's part of a target index is kept apart, in c
        trail.append(a)
        try:
            for (arity, src_table, dst_table), masks in zip(self.ops, self.masks):
                size = len(dst_table)
                for head in itertools.product(trail, repeat=arity - 1):
                    s = d = c = 0
                    for x in head:
                        s, d, c = (s + x) * n, (d + image[x]) * m, (c + (x == a)) * m
                    for y in trail if c else (a,):
                        res, dy, cy = src_table[s + y], d + image[y], c + (y == a)
                        if image[res] < 0:
                            forced.append((res, dst_table, dy, cy))
                            continue
                        v = m if res == a else image[res]
                        if (mask := masks.get(key := (dy + cy * size) * (m + 1) + v)) is None:
                            mask = masks[key] = _passing(dst_table, dy, cy, v, m)
                        allowed &= mask
                        if not allowed:
                            return 0, []
        finally:
            image[a] = -1
            trail.pop()
        return allowed, forced

    def homs(self) -> Iterator[CarrierMap]:
        """The homs extending the image: each buffer leaves() hands over is
        re-checked by _recheck, and the maps the flags keep, read off their
        distinct values, are yielded; an image that is not a hom raises
        UalgError after the maps before it."""
        src, dst, sur, inj, n, m = self.src, self.dst, self.surjective, self.injective, self.src.size, self.dst.size
        trusted, recheck, every = CarrierMap._trusted, None, sur is None and inj is None
        for leaves in self.leaves():
            recheck = recheck or _recheck(src, dst)
            failure = recheck(leaves)
            for leaf in leaves[: failure[0]] if failure else leaves:
                if every or (sur in (None, (k := len(set(leaf))) == m) and inj in (None, k == n)):
                    yield trusted(src, dst, leaf)
            if failure:
                i, (name, args) = failure
                raise UalgError(f"hom search reached {leaves[i]}, not a hom at {name}{args}")

    def leaves(self) -> Iterator[list[tuple[int, ...]]]:
        """The complete images extending the image, in one depth-first
        loop, handed over in buffers.  The loop branches on the least
        undecided element a, trying the values that pass branch's scan in
        ascending order, each by assign on its forcing entries.  stack holds
        the open branch points: a, len(trail) before it, the values left to
        try, the forcing entries and the least value not yet counted.  Every
        value at a branch point counts against caps.search, pruned or not:
        the values up to each one tried, and the rest when none is left.
        The first complete image is handed over alone (all a first-map
        caller needs); after it the buffer is handed over when it holds
        256 // |src| (one lane pass), at the end and before the cap trips."""
        image, trail, uses, n, m = self.image, self.trail, self.uses, self.src.size, self.dst.size
        sur, cap, assign, tried = self.surjective, self.cap, self.assign, 0
        leaves, full = [], 1
        stack = [[-1, len(trail), 1, [], 0]]  # the root: one try, assigning nothing
        while stack:
            top = stack[-1]
            a, mark, allowed, forced, start = top
            b = (allowed & -allowed).bit_length() - 1 if allowed else m - 1
            if a >= 0:
                tried += b + 1 - start
                if tried > cap:
                    break  # the buffer is handed over first
            if not allowed:
                stack.pop()
                continue
            top[2], top[4] = allowed & (allowed - 1), b + 1
            while len(trail) > mark:  # undo down to the branch point
                x = trail.pop()
                uses[image[x]] -= 1
                image[x] = -1
            if a >= 0:
                image[a] = b
                uses[b] += 1
                trail.append(a)
                if forced and not assign([(res, table[d + b * c]) for res, table, d, c in forced]):
                    continue
            if sur and uses.count(0) > n - len(trail):
                continue  # more values unused than elements undecided
            if len(trail) < n:
                a = image.index(-1)
                stack.append([a, len(trail), *self.branch(a), 0])
                continue
            leaves.append(tuple(image))
            if len(leaves) < full:
                continue
            yield leaves
            leaves, full = [], max(256 // n, 1)
        if leaves:
            yield leaves
        if tried > cap:
            self.caps.check("search", cap + 1, "hom search values tried at branch points")


def _passing(table: Sequence[int], d: int, c: int, v: int, m: int) -> int:
    """The values b < m with table[d + b * c] = v, or = b when v = m, as a
    bitmask."""
    return sum(1 << b for b in range(m) if table[d + b * c] == (b if v == m else v))


def _recheck(
    src: FiniteAlgebra, dst: FiniteAlgebra
) -> Callable[[Sequence[Sequence[int]]], tuple[int, tuple[str, tuple[int, ...]]] | None]:
    """hom_violation as a function of one hand-over of images src -> dst,
    sharing no code with _Search.assign or branch: the index of the first
    image that is not a hom and hom_violation's witness for it, or None.

    Within lane_plan's fit rule and |src| <= 256, a hand-over of at most
    256 // |src| images is checked in one lane pass (a longer one raises
    ValueError or OverflowError: its shifts pass a byte).  The images,
    joined, make one translation table, and per table dst's lane_pointwise
    runs once on src's argument columns, shifted by i * |src| for image i
    and joined, against src's table shifted and joined alike, both
    translated through it.  The lanes only decide whether the hand-over
    passes: one that fails them, and every image past the fit rule, is
    checked by hom_violation in turn, which gives the index and the
    witness.  Lanes that fail what hom_violation passes raise UalgError.
    The columns come from _lane_columns; the joined tables are built once
    per length."""
    n, plan = src.size, dst._lanes

    def each(images: Sequence[Sequence[int]]) -> tuple[int, tuple[str, tuple[int, ...]]] | None:
        for i, image in enumerate(images):
            if (witness := hom_violation(CarrierMap(src, dst, tuple(image)))) is not None:
                return i, witness
        return None

    if plan is None or n > 256:
        return each
    kernels = {}

    def kernel(width: int) -> tuple[Callable[[str, Sequence[bytes]], bytes], list]:
        """lane_pointwise over width images, and src's tables joined alike."""
        ops = []
        for (name, arity), table in zip(src.sig.ops, src.tables):
            columns, shift = _lane_columns(n, arity, width)
            ops.append((name, columns, (int.from_bytes(bytes(table) * width, "little") + shift).to_bytes(len(table) * width, "little")))
        kernels[width] = lane_pointwise(plan, bytes(width)), ops
        return kernels[width]

    def batch(images: Sequence[Sequence[int]]) -> tuple[int, tuple[str, tuple[int, ...]]] | None:
        apply, ops = kernels.get(len(images)) or kernel(len(images))
        h = b"".join(map(bytes, images)).ljust(256, b"\0")
        for name, columns, table in ops:  # a loop, not any(): no generator per hand-over
            if apply(name, [c.translate(h) for c in columns]) != table.translate(h):
                if (failure := each(images)) is None:
                    raise UalgError("hom re-check: the lanes fail a hand-over that hom_violation passes")
                return failure
        return None

    return batch


@functools.lru_cache(maxsize=64)
def _lane_columns(n: int, arity: int, copies: int) -> tuple[tuple[bytes, ...], int]:
    """_recheck's argument columns for an arity-ary table of an n-element
    source over copies images: environment_columns, image i's shifted by
    i * n and joined in image order, and that shift as a number to add to a
    table repeated copies times.  They depend only on the shape, so they are
    kept per shape."""
    cells = n**arity
    shift = int.from_bytes(b"".join([bytes((i * n,)) * cells for i in range(copies)]), "little")
    columns = environment_columns(range(arity), n).values()
    return tuple([(int.from_bytes(c * copies, "little") + shift).to_bytes(cells * copies, "little") for c in columns]), shift


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
    """The first bijective hom a -> b and its inverse, or None; algebras of
    different signatures raise SignatureMismatchError, whatever their sizes.
    The inverse of a bijective hom is a hom (built unvalidated, as a
    permutation); a re-check raises UalgError if not."""
    same_signature(a, b)
    if a.size != b.size:
        return None
    f = next(iter_homs(a, b, surjective=True, injective=True, caps=caps), None)
    if f is None:
        return None
    g = CarrierMap._trusted(b, a, tuple(sorted(range(b.size), key=f.image.__getitem__)))
    witness = hom_violation(g)
    if witness is not None:
        raise UalgError(f"inverse of {f.image} is not a hom at {witness[0]}{witness[1]}")
    return f, g


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> bool:
    return find_isomorphism(a, b, caps) is not None
