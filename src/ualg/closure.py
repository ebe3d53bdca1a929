"""The H, S, P constructions on finite algebras.

Products are carried by mixed-radix flat indices (factor 0 most
significant), and built by outer sums on int tables, with no lanes.  Generated
subalgebras, free algebras and certificates close tuples by one routine,
`generate`, which never builds the product; it runs `close`, the one
deterministic pass closure, which also yields the operation tables and
applies a whole table row per call: one kernel call per row, not per
argument tuple (on the lanes: its prefix folded once, its pass's lasts
joined and read once, the result cut apart in C).
Homomorphic images are built only as quotients A/theta, by congruences
each a union-find closed under translations.  An HSP certificate, a
product -> subalgebra -> image pipeline witnessing membership in V of a
finite class, is checked with no hom search.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .core import (
    DEFAULT_CAPS,
    Caps,
    FiniteAlgebra,
    Signature,
    UalgError,
    _decode_mixed,
    apply_op,
    lane_plan,
    lane_pointwise,
    mapped_cells,
    same_signature,
)
from .homs import CarrierMap, hom_violation, iter_homs


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
        index = 0
        for value, size in zip(tup, self.sizes):
            if not 0 <= value < size:
                raise ValueError(f"coordinate {value} outside factor of size {size}")
            index = index * size + value
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        return _decode_mixed(self.sizes, index)


def product(factors: Sequence[FiniteAlgebra], caps: Caps = DEFAULT_CAPS) -> ProductAlgebra:
    """Componentwise product of a nonempty list of same-signature algebras:
    A0 x (A1 x (.. x Am)) by two-factor outer sums (_outer_sum), the caps
    admitted once on the final size.  The result is built unvalidated
    (FiniteAlgebra._trusted): outer sums of well-formed tables are well
    formed, each entry a * q + b with a < p and b < q."""
    if not factors:
        raise ValueError("product requires at least one factor")
    sig = same_signature(*factors)
    sizes = tuple(a.size for a in factors)
    caps.admit(sig, 0, "product")(math.prod(sizes))
    tables, q = factors[-1].tables, sizes[-1]
    for f in reversed(factors[:-1]):
        tables = [_outer_sum(a, f.size, b, q, arity) for (_, arity), a, b in zip(sig.ops, f.tables, tables)]
        q *= f.size
    return ProductAlgebra(FiniteAlgebra._trusted(sig, q, tuple(tables)), sizes)


def _outer_sum(a: Sequence[int], p: int, b: Sequence[int], q: int, arity: int) -> tuple[int, ...]:
    """The table of A x B from the tables a of A (p elements) and b of B (q
    elements), x in A x B being (x // q, x % q).  The row at heads (x1, ..,
    x_{r-1}) is A's row at their first coordinates, scaled by q with each
    value repeated q times, plus B's row at their second coordinates tiled
    p times: for each entry v of A's row, the run B's row plus v * q."""
    if arity == 0:
        return (a[0] * q + b[0],)
    rows = len(b) // q
    firsts, seconds, shifts = _shape(p, q, arity)
    runs = list(zip(*[map(operator.add, b * p, shifts)] * q))  # run v * rows + j: B's row j plus v * q
    a_rows = list(zip(*[map(rows.__mul__, a)] * p))  # A's rows, scaled to run indices
    at = map(operator.add, itertools.chain.from_iterable(map(a_rows.__getitem__, firsts)), seconds)
    return tuple(itertools.chain.from_iterable(map(runs.__getitem__, at)))


@functools.lru_cache(maxsize=16)
def _shape(p: int, q: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """_outer_sum's index lists, kept per shape since they depend only on the
    sizes: per head, A's row at its first coordinates and, once per entry of
    that row, B's row at its second ones; and each cell's v * q, run by run."""
    firsts = mapped_cells([x // q for x in range(p * q)], p, arity - 1)
    seconds = [j for j in mapped_cells([x % q for x in range(p * q)], q, arity - 1) for _ in range(p)]
    return tuple(firsts), tuple(seconds), tuple([v for v in range(0, p * q, q) for _ in range(q**arity)])


def close(
    sig: Signature,
    seeds: Iterable[Hashable],
    apply: Callable[[str, tuple, Sequence], Sequence[Hashable]],
    admit: Callable[[int], None] | None = None,
) -> tuple[list, list, tuple[tuple[int, ...], ...]]:
    """Least set containing the seeds and closed under the operations,
    applied a row at a time: apply(symbol, prefix, lasts) returns the values
    of symbol(*prefix, last) for each last in lasts, in order.  A constant
    is a row of one cell: apply(symbol, (), ()) returns its one value.

    Returns the elements in discovery order (the seeds, then passes applying
    the symbols in signature order to the elements found before the pass,
    in label order), their origins (None for a seed, else the first
    (symbol, argument labels) producing it) and the operation tables.  The
    passes are semi-naive: each applies, in row-major order, only the label
    tuples with an argument found by the previous pass (constants only in the
    first), one row (a head of all arguments but the last, and the lasts not
    yet applied) per call.  A pass's rows share two lists of lasts, one
    object each: all elements found before it, for a head new in it, and
    those the previous pass found, for an earlier head.  No other tuple can
    find anything, so the discovery order is the naive one and every tuple
    is applied once, filling the tables.  admit(n) runs before the n-th
    element is added and may raise.
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
    # per symbol: head (argument labels but the last) -> its row, in row-major order
    rows: list[dict] = [{} for _ in sig.ops]
    base = 0
    while True:  # an earlier head's row holds all lasts found before the previous pass
        older, base = base, len(elements)
        fresh, newer = elements[:base], elements[older:base]
        for pos, (name, arity) in enumerate(sig.ops):
            if arity == 0:  # a constant: first pass only
                if not rows[pos]:
                    [value] = apply(name, (), ())
                    rows[pos] = {(): [label[value] if value in label else add(value, (name, ()))]}
                continue
            old_rows, rows[pos] = rows[pos], {}
            heads = itertools.product(range(base), repeat=arity - 1)
            for head, prefix in zip(heads, itertools.product(fresh, repeat=arity - 1)):
                row = rows[pos][head] = old_rows.get(head) or []
                lasts = newer if row else fresh
                if not lasts:  # a unary symbol's first pass over no seeds
                    continue
                values = apply(name, prefix, lasts)
                at = list(map(label.get, values))
                if None in at:  # cell by cell, so a value new earlier in the row is found again
                    at = [label[value] if value in label else add(value, (name, (*head, label[last])))
                          for value, last in zip(values, lasts)]
                row += at
        if len(elements) == base:
            return elements, origins, tuple([
                tuple(itertools.chain.from_iterable(op_rows.values())) for op_rows in rows
            ])


def generate(
    K: Sequence[FiniteAlgebra],
    members: Sequence[int],
    seeds: Iterable[tuple[int, ...]],
    sig: Signature,
    admit: Callable[[int], None] | None = None,
) -> tuple[list[tuple[int, ...]], list, tuple[tuple[int, ...], ...]]:
    """The subalgebra of the product of K[k] over k in members generated by
    the int-tuple seeds, without building the product: close's elements as
    int tuples, their origins and tables.  It closes on the lane kernel when
    the members used fit it (one member on its cached plan, several with
    their values shifted apart), one kernel call per row of close, else on
    int tuples."""
    seeds = list(seeds)
    if not seeds and not sig.constants():
        raise EmptyCarrierError("empty generating set and no constants: empty carrier not representable")
    used = sorted(set(members))
    plan = K[used[0]]._lanes if len(used) == 1 else lane_plan([K[k] for k in used], sig)
    if plan is None:
        return close(sig, seeds, _tuple_pointwise(K, sig, members), admit)
    if len(used) == 1:  # one member: no shift (see core.lane_plan)
        apply = _lane_rows(lane_pointwise(plan, bytes(len(members))), len(members))
        elements, origins, tables = close(sig, list(map(bytes, seeds)), apply, admit)
        return list(map(tuple, elements)), origins, tables
    offsets = dict(zip(used, itertools.accumulate([K[k].size for k in used], initial=0)))
    unshift = bytes(itertools.chain.from_iterable(range(K[k].size) for k in used)).ljust(256, b"\0")
    shift = bytes(map(offsets.get, members))
    apply = _lane_rows(lane_pointwise(plan, bytes(map({k: r for r, k in enumerate(used)}.get, members))), len(members))
    elements, origins, tables = close(sig, [bytes(map(operator.add, tup, shift)) for tup in seeds], apply, admit)
    return [tuple(e.translate(unshift)) for e in elements], origins, tables


def _lane_rows(apply, width: int):
    """close's row contract on the lane kernel: one application per row, on
    its prefix lanes and its lasts, joined and read as an int once per list."""
    joined: dict[int, tuple] = {}  # id(lasts) -> _joined(lasts), for the two lists of the latest pass

    def row(name: str, prefix: tuple[bytes, ...], lasts: Sequence[bytes]) -> Sequence[bytes]:
        m = len(lasts)
        if m <= 1:  # a constant or a one-last row: a direct call costs less than join and cut
            return [apply(name, (*prefix, *lasts))]
        if (lane := joined.get(id(lasts))) is None:
            if len(joined) == 2:  # the oldest list is from an earlier pass
                del joined[next(iter(joined))]
            lane = joined[id(lasts)] = _joined(lasts)
        return _cut(width, m)(apply(name, (*prefix, lane[1]), m, lane[2]))

    return row


def _joined(lasts: Sequence[bytes]) -> tuple[Sequence[bytes], bytes, int]:
    """The lasts (kept, so their id stays theirs), joined, and read as an int."""
    return lasts, (lane := b"".join(lasts)), int.from_bytes(lane, "little")


@functools.lru_cache(maxsize=4)
def _cut(width: int, m: int) -> Callable[[bytes], tuple[bytes, ...]]:
    """The unpack cutting m width-byte lanes apart; few are kept, each holding about 32 bytes a lane."""
    return struct.Struct(f"{width}s" * m).unpack


def _tuple_pointwise(K, sig, members):
    """The fallback kernel on int tuples: raw row-major lookups, one per
    coordinate, the prefix's part of each index computed once per row."""
    columns = {name: [(K[k].tables[pos], K[k].size) for k in members]
               for pos, (name, _) in enumerate(sig.ops)}

    def pointwise(name: str, prefix: tuple, lasts: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
        cells = columns[name]
        if not lasts:  # a constant
            return [tuple([table[0] for table, _ in cells])]
        at = [0] * len(cells)
        for tup in prefix:
            at = [i * n + a for i, (_, n), a in zip(at, cells, tup)]
        at = [(table, i * n) for i, (table, n) in zip(at, cells)]
        # tuple([...]), not tuple(generator): see terms._fingerprints.
        return [tuple([table[i + a] for (table, i), a in zip(at, last)]) for last in lasts]

    return pointwise


def subalgebra_generate(
    alg: FiniteAlgebra, gens: Sequence[int]
) -> tuple[FiniteAlgebra, CarrierMap]:
    """Subalgebra generated by gens, relabeled by discovery order, plus the
    inclusion map back into alg (an injective hom), both unvalidated:
    close labels every cell with an element it found."""
    seeds = sorted(set(gens))
    for g in seeds:
        if not 0 <= g < alg.size:
            raise ValueError(f"generator {g} outside carrier")
    elements, _, tables = generate([alg], [0], [(g,) for g in seeds], alg.sig)
    sub = FiniteAlgebra._trusted(alg.sig, len(elements), tables)
    return sub, CarrierMap._trusted(sub, alg, tuple([e for (e,) in elements]))


def subuniverses(alg: FiniteAlgebra, start: int = 1) -> Iterator[tuple[tuple[int, ...], FiniteAlgebra, CarrierMap]]:
    """Each distinct subuniverse of alg once, as (the first generator subset
    of size >= start reaching it, in size-then-combinations order, its
    subalgebra, the inclusion).  A subset is not closed when dropping one
    generator g leaves a subset whose subuniverse holds g: both generate
    the same subuniverse, first reached by the smaller one."""
    seen: set[frozenset[int]] = set()
    within: dict[tuple[int, ...], frozenset[int]] = {}  # each subset of one size -> its subuniverse
    for r in range(start, alg.size + 1):
        below, within = within, {}  # a subset less one generator is one size down
        for gens in itertools.combinations(range(alg.size), r):
            rests = (below.get(gens[:i] + gens[i + 1:], ()) for i in range(r))
            universe = next((rest for rest, g in zip(rests, gens) if g in rest), None)
            if universe is None:
                sub, inclusion = subalgebra_generate(alg, gens)
                universe = frozenset(inclusion.image)
                if universe not in seen:
                    seen.add(universe)
                    yield gens, sub, inclusion
            within[gens] = universe


def _join(start: Sequence[int], pairs: Iterable[tuple[int, int]], translations) -> tuple[int, ...]:
    """The least equivalence above start holding pairs and closed under the
    translations, each partition given as its labelling (every element
    mapped to the least element of its block).  A union-find whose roots are
    least elements; each merge queues the translations of the merged pair."""
    parent = list(start)

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    queue = list(pairs)
    while queue:
        a, b = queue.pop()
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            queue.extend((t[a], t[b]) for t in translations)
    return tuple(map(find, range(len(parent))))


def congruences(alg: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """Con(alg), each congruence as its labelling (every element mapped to
    the least element of its block), in ascending order: 1_A first, 0_A last.

    Each principal congruence Cg(a, b) closes a union-find under the
    non-constant unary translations x -> f(c1, .., x, .., ck) of the basic
    operations; Con(alg) is 0_A plus the closure of the principal
    congruences under joins.  Raises CapExceededError once more than
    caps.cells congruences are found (there are at most Bell(size)).
    """
    n = alg.size
    translations = set()
    for (_, arity), table in zip(alg.sig.ops, alg.tables):
        for pos in range(arity):
            # the cells with argument pos at 0 are the runs [base, base + stride)
            stride = n ** (arity - 1 - pos)
            for base in range(0, len(table), n * stride):
                for at in range(base, base + stride):
                    t = table[at : at + n * stride : stride]
                    if min(t) != max(t):
                        translations.add(t)
    zero = tuple(range(n))
    principals = {_join(zero, [pair], translations) for pair in itertools.combinations(zero, 2)}
    found = {zero} | principals
    frontier = list(principals)
    while len(found) <= caps.cells and frontier:
        theta = frontier.pop()
        for psi in principals:
            joined = _join(theta, zip(zero, psi), ())
            if joined not in found:
                found.add(joined)
                frontier.append(joined)
    caps.check("cells", len(found), f"congruences found in a size-{n} algebra")
    return sorted(found)


def _blocks_text(theta: Sequence[int]) -> str:
    """A labelling's blocks in ascending order of least element, e.g. {0,2}|{1}."""
    blocks: dict[int, list[str]] = {}
    for x, r in enumerate(theta):
        blocks.setdefault(r, []).append(str(x))
    return "|".join("{" + ",".join(b) + "}" for _, b in sorted(blocks.items()))


def quotient(alg: FiniteAlgebra, theta: Sequence[int]) -> tuple[FiniteAlgebra, CarrierMap]:
    """alg/theta, plus the natural map onto it.  theta is a labelling as
    congruences returns it (every element mapped to the least element of
    its block); each block is labelled by its rank among the least elements.
    The quotient reads alg's tables at the least elements; theta is a
    congruence exactly when the natural map is then a hom, which is checked:
    a labelling that is ill formed or not a congruence raises UalgError.
    Both are built unvalidated: every entry is a block's rank."""
    n = alg.size
    theta = tuple(theta)
    if len(theta) != n or any(not 0 <= r <= x or theta[r] != r for x, r in enumerate(theta)):
        raise UalgError(f"{theta} does not map each element to the least of its block")
    reps = sorted(set(theta))
    nat = tuple(map(reps.index, theta))
    quo = FiniteAlgebra._trusted(alg.sig, len(reps), tuple(
        tuple([nat[table[j]] for j in mapped_cells(reps, n, arity)])
        for (_, arity), table in zip(alg.sig.ops, alg.tables)
    ))
    natural = CarrierMap._trusted(alg, quo, nat)
    witness = hom_violation(natural)
    if witness is not None:
        name, args = witness
        least = tuple(theta[a] for a in args)
        raise UalgError(
            f"{_blocks_text(theta)} is not a congruence: {name}{args} = {apply_op(alg, name, args)} "
            f"and {name}{least} = {apply_op(alg, name, least)} lie in different blocks"
        )
    return quo, natural


def check_leq(a: FiniteAlgebra, b: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> CarrierMap | None:
    """First injective hom a -> b in canonical order, or None."""
    return next(iter_homs(a, b, injective=True, caps=caps), None)


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


def trivial_certificate(
    k_index: int, alg: FiniteAlgebra, caps: Caps = DEFAULT_CAPS
) -> HspCertificate:
    """A ∈ V{..A..}: unary product, identity image, and the first subset that
    subuniverses yields (from size 0 when there are constants) generating the
    whole carrier, a least-size generating set.  Each size up to its size
    yields, and each is admitted first: a size r that build_free would refuse
    on r variables over any class containing alg raises CapExceededError."""
    for gens, sub, inclusion in subuniverses(alg, 0 if alg.sig.constants() else 1):
        r = len(gens)
        caps.admit(alg.sig, alg.size**r * max(1, r), "free")(1)  # as build_free admits its generators
        if sub.size == alg.size:
            return HspCertificate(((k_index, 1),), gens, inclusion.image)


@dataclass(frozen=True)
class CertCheckResult:
    ok: bool
    stage: str | None = None
    detail: str = ""


def hsp_certificate_check(
    K: Sequence[FiniteAlgebra],
    B: FiniteAlgebra,
    cert: HspCertificate,
    caps: Caps = DEFAULT_CAPS,
) -> CertCheckResult:
    """Replay product -> generated subalgebra -> image and test the result
    is isomorphic to B, that is, covers B (a hom image in B is a subalgebra
    of B); report the first failing stage otherwise.  The product is never
    built: generate closes the generators, bounded as build_free's are."""
    for k_index, power in cert.factors:
        if not 0 <= k_index < len(K):
            return CertCheckResult(False, "product", f"factor index {k_index} outside class")
        if power < 1:
            return CertCheckResult(False, "product", f"factor power {power} < 1")
    if not cert.factors:
        return CertCheckResult(False, "product", "no factors")
    try:
        sig = same_signature(*[K[k] for k, _ in cert.factors], B)
    except UalgError as e:
        return CertCheckResult(False, "product", str(e))
    # the generator block is admitted whole, as build_free's is, before the factors are expanded or any generator decoded
    width, distinct = sum(power for _, power in cert.factors), sorted(set(cert.gens))
    caps.admit(sig, width * max(1, len(distinct)), "subalgebra")(1)

    members = [k for k, power in cert.factors for _ in range(power)]
    sizes = [K[k].size for k in members]
    n = math.prod(sizes)
    for g in cert.gens:
        if not 0 <= g < n:
            return CertCheckResult(False, "subalgebra", f"generator {g} outside product carrier")
    seeds = [_decode_mixed(sizes, g) for g in distinct]
    try:
        elements, _, tables = generate(K, members, seeds, sig, caps.admit(sig, width, "subalgebra"))
    except EmptyCarrierError as e:
        return CertCheckResult(False, "subalgebra", str(e))
    sub = FiniteAlgebra._trusted(sig, len(elements), tables)

    if len(cert.image) != sub.size:
        return CertCheckResult(
            False, "image", f"image length {len(cert.image)} != subalgebra size {sub.size}"
        )
    if any(not 0 <= b < B.size for b in cert.image):
        return CertCheckResult(False, "image", "image values outside target carrier")
    witness = hom_violation(CarrierMap(sub, B, cert.image))
    if witness is not None:
        return CertCheckResult(False, "image", f"not a hom at {witness[0]}{witness[1]}")
    covered = len(set(cert.image))
    if covered != B.size:
        return CertCheckResult(
            False, "isomorphism", f"image (size {covered}) is not isomorphic to target"
        )
    return CertCheckResult(True)
