"""The H, S, P constructions on finite algebras.

Products are carried by mixed-radix flat indices (factor 0 most
significant), generated subalgebras by a deterministic worklist closure,
and homomorphic images by restricting the target to the image set.  An
HSP certificate packages one concrete product -> subalgebra -> image
pipeline witnessing membership in V of a finite class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .core import (
    CapExceededError,
    FiniteAlgebra,
    UalgError,
    apply_op,
    same_signature,
)
from .homs import (
    CarrierMap,
    NotAHomError,
    find_isomorphism,
    hom_violation,
    iter_homs,
)


class EmptyCarrierError(UalgError):
    pass


@dataclass(frozen=True)
class ProductAlgebra:
    """A product together with its flat-index codec."""

    alg: FiniteAlgebra
    sizes: tuple[int, ...]

    def encode(self, tup: Sequence[int]) -> int:
        if len(tup) != len(self.sizes):
            raise ValueError(f"expected {len(self.sizes)} coordinates")
        for value, size in zip(tup, self.sizes):
            if not 0 <= value < size:
                raise ValueError(f"coordinate {value} outside factor of size {size}")
        return _encode_mixed(self.sizes, tup)

    def decode(self, index: int) -> tuple[int, ...]:
        return _decode_mixed(self.sizes, index)


def product(
    factors: Sequence[FiniteAlgebra],
    size_cap: int = 4096,
    cells_cap: int = 1_000_000,
) -> ProductAlgebra:
    """Componentwise product of a nonempty list of same-signature algebras."""
    if not factors:
        raise ValueError("product requires at least one factor")
    sig = same_signature(*factors)
    sizes = tuple(a.size for a in factors)
    n = 1
    for s in sizes:
        n *= s
    if n > size_cap:
        raise CapExceededError(f"product size {n} exceeds cap {size_cap}")
    cells = sum(n**arity for _, arity in sig.ops)
    if cells > cells_cap:
        raise CapExceededError(f"product tables need {cells} cells, cap {cells_cap}")

    coords = [_decode_mixed(sizes, a) for a in range(n)]
    tables = []
    for name, arity in sig.ops:
        table = []
        for args in itertools.product(range(n), repeat=arity):
            value = [
                apply_op(f, name, [coords[a][i] for a in args])
                for i, f in enumerate(factors)
            ]
            table.append(_encode_mixed(sizes, value))
        tables.append(tuple(table))
    return ProductAlgebra(FiniteAlgebra(sig, n, tuple(tables)), sizes)


def _encode_mixed(sizes: Sequence[int], tup: Sequence[int]) -> int:
    idx = 0
    for value, size in zip(tup, sizes):
        idx = idx * size + value
    return idx


def _decode_mixed(sizes: Sequence[int], index: int) -> tuple[int, ...]:
    out = [0] * len(sizes)
    for pos in range(len(sizes) - 1, -1, -1):
        index, out[pos] = divmod(index, sizes[pos])
    return tuple(out)


def closure_list(alg: FiniteAlgebra, seeds: Sequence[int]) -> list[int]:
    """Least subset containing the seeds and closed under all operations.

    Discovery order: the seeds in the given order, then repeated passes
    applying the symbols in signature order to already-discovered elements
    in label order.  Nullary operations enter on the first pass.
    """
    elements = list(dict.fromkeys(seeds))
    index = set(elements)
    while True:
        base = len(elements)
        for name, arity in alg.sig.ops:
            for args in itertools.product(elements[:base], repeat=arity):
                value = apply_op(alg, name, args)
                if value not in index:
                    index.add(value)
                    elements.append(value)
        if len(elements) == base:
            return elements


def subalgebra_generate(
    alg: FiniteAlgebra, gens: Sequence[int]
) -> tuple[FiniteAlgebra, CarrierMap]:
    """Subalgebra generated by gens, relabeled by discovery order, plus the
    inclusion map back into alg (an injective hom)."""
    seeds = sorted(set(gens))
    for g in seeds:
        if not 0 <= g < alg.size:
            raise ValueError(f"generator {g} outside carrier")
    if not seeds and not alg.sig.constants():
        raise EmptyCarrierError(
            "empty generating set and no constants: empty carrier not representable"
        )
    elements = closure_list(alg, seeds)
    label = {orig: i for i, orig in enumerate(elements)}
    tables = []
    for name, arity in alg.sig.ops:
        table = tuple(
            label[apply_op(alg, name, [elements[a] for a in args])]
            for args in itertools.product(range(len(elements)), repeat=arity)
        )
        tables.append(table)
    sub = FiniteAlgebra(alg.sig, len(elements), tuple(tables))
    return sub, CarrierMap(sub, alg, tuple(elements))


def hom_image(
    alg: FiniteAlgebra, m: CarrierMap
) -> tuple[FiniteAlgebra, CarrierMap]:
    """Image algebra of a hom, relabeled canonically (ascending target
    values), plus the corestricted surjection onto it."""
    if m.src != alg:
        raise UalgError("hom_image: map source differs from algebra")
    witness = hom_violation(m)
    if witness is not None:
        raise NotAHomError(witness)
    values = sorted(set(m.image))
    label = {v: i for i, v in enumerate(values)}
    tables = []
    for name, arity in m.dst.sig.ops:
        table = tuple(
            label[apply_op(m.dst, name, [values[a] for a in args])]
            for args in itertools.product(range(len(values)), repeat=arity)
        )
        tables.append(table)
    img = FiniteAlgebra(m.dst.sig, len(values), tuple(tables))
    onto = CarrierMap(alg, img, tuple(label[b] for b in m.image))
    return img, onto


def check_leq(
    a: FiniteAlgebra, b: FiniteAlgebra, cap: int = 1_000_000
) -> CarrierMap | None:
    """First injective hom a -> b in canonical order, or None."""
    return next(iter_homs(a, b, injective=True, cap=cap), None)


@dataclass(frozen=True)
class HspCertificate:
    """Witness that some algebra B lies in H(S(P K)).

    factors lists (index into K, power >= 1) pairs; their expansion is the
    product stage.  gens are flat indices into that product; image lists a
    target value per subalgebra element and must be a surjective hom onto B.
    """

    factors: tuple[tuple[int, int], ...]
    gens: tuple[int, ...]
    image: tuple[int, ...]


def trivial_certificate(k_index: int, alg: FiniteAlgebra) -> HspCertificate:
    """A ∈ V{..A..}: unary product, full generating set, identity image."""
    return HspCertificate(
        factors=((k_index, 1),),
        gens=tuple(range(alg.size)),
        image=tuple(range(alg.size)),
    )


@dataclass(frozen=True)
class CertCheckResult:
    ok: bool
    stage: str | None = None
    detail: str = ""


def hsp_certificate_check(
    K: Sequence[FiniteAlgebra],
    B: FiniteAlgebra,
    cert: HspCertificate,
    size_cap: int = 4096,
    search_cap: int = 1_000_000,
) -> CertCheckResult:
    """Replay product -> generated subalgebra -> image and test the result
    is isomorphic to B; report the first failing stage otherwise."""
    factor_list: list[FiniteAlgebra] = []
    for k_index, power in cert.factors:
        if not 0 <= k_index < len(K):
            return CertCheckResult(False, "product", f"factor index {k_index} outside class")
        if power < 1:
            return CertCheckResult(False, "product", f"factor power {power} < 1")
        factor_list.extend([K[k_index]] * power)
    if not factor_list:
        return CertCheckResult(False, "product", "no factors")
    try:
        same_signature(*factor_list, B)
        prod = product(factor_list, size_cap=size_cap)
    except UalgError as e:
        return CertCheckResult(False, "product", str(e))

    for g in cert.gens:
        if not 0 <= g < prod.alg.size:
            return CertCheckResult(False, "subalgebra", f"generator {g} outside product carrier")
    try:
        sub, _ = subalgebra_generate(prod.alg, cert.gens)
    except UalgError as e:
        return CertCheckResult(False, "subalgebra", str(e))

    if len(cert.image) != sub.size:
        return CertCheckResult(
            False, "image", f"image length {len(cert.image)} != subalgebra size {sub.size}"
        )
    if any(not 0 <= b < B.size for b in cert.image):
        return CertCheckResult(False, "image", "image values outside target carrier")
    m = CarrierMap(sub, B, cert.image)
    witness = hom_violation(m)
    if witness is not None:
        return CertCheckResult(False, "image", f"not a hom at {witness[0]}{witness[1]}")

    img, _ = hom_image(sub, m)
    if find_isomorphism(img, B, cap=search_cap) is None:
        return CertCheckResult(
            False, "isomorphism", f"image (size {img.size}) is not isomorphic to target"
        )
    return CertCheckResult(True)
