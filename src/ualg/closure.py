"""The H, S, P constructions on finite algebras.

Products are carried by mixed-radix flat indices (factor 0 most
significant).  Generated subalgebras, homomorphic images and free algebras
all come from one deterministic pass closure, `close`, which also yields
the operation tables.  An HSP certificate packages one concrete
product -> subalgebra -> image pipeline witnessing membership in V of a
finite class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterable, Sequence

from .core import (
    CapExceededError,
    FiniteAlgebra,
    Signature,
    UalgError,
    _decode_mixed,
    _encode_mixed,
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


def close(
    sig: Signature,
    seeds: Iterable[Hashable],
    apply: Callable[[str, tuple], Hashable],
    admit: Callable[[int], None] | None = None,
) -> tuple[list, list, tuple[tuple[int, ...], ...]]:
    """Least set containing the seeds and closed under apply(symbol, args).

    Returns the elements in discovery order (the seeds, then passes applying
    the symbols in signature order to the elements found before the pass,
    in label order), their origins (None for a seed, else the first
    (symbol, argument labels) producing it) and the operation tables: the
    last pass finds nothing and visits every label tuple in row-major order.
    admit(n) runs before the n-th element is added and may raise.
    """
    elements: list = []
    origins: list = []
    label: dict = {}

    def add(value: Hashable, origin) -> int:
        if admit is not None:
            admit(len(elements) + 1)
        label[value] = len(elements)
        elements.append(value)
        origins.append(origin)
        return label[value]

    for value in seeds:
        if value not in label:
            add(value, None)
    while True:
        base = len(elements)
        tables = []
        for name, arity in sig.ops:
            row = []
            for args in itertools.product(elements[:base], repeat=arity):
                value = apply(name, args)
                at = label.get(value)
                if at is None:
                    at = add(value, (name, tuple([label[v] for v in args])))
                row.append(at)
            tables.append(row)
        if len(elements) == base:
            return elements, origins, tuple([tuple(row) for row in tables])


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
    elements, _, tables = close(alg.sig, seeds, partial(apply_op, alg))
    sub = FiniteAlgebra(alg.sig, len(elements), tables)
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
    # The image of a hom is closed: close() discovers nothing and tabulates.
    values, _, tables = close(m.dst.sig, sorted(set(m.image)), partial(apply_op, m.dst))
    img = FiniteAlgebra(m.dst.sig, len(values), tables)
    label = {v: i for i, v in enumerate(values)}
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
