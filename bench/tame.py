"""Tame algebras, seeded relabelling, and the benchmark's own oracles.

Every algebra here has one binary operation `f` and is a flat row-major
table over the carrier {0..n-1}.  Nothing in this module imports ualg: the
tables are written out as `.alg` text for ualg to parse, and the brute-force
routines below decide the expected answers independently of it.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Sequence

Table = tuple[int, ...]
Alg = tuple[int, Table]  # (size, table)


def tame(name: str) -> Alg:
    """`C5`, `Z3`, `L4`: a chain under min (C2 is the two-element
    semilattice), a cyclic group under +, or a left-zero band."""
    kind, n = name[0], int(name[1:])
    op = {"C": min, "Z": lambda a, b: (a + b) % n, "L": lambda a, b: a}[kind]
    return n, tuple(op(a, b) for a in range(n) for b in range(n))


def relabel(alg: Alg, perm: Sequence[int]) -> Alg:
    """The copy of alg whose element a is called perm[a]."""
    n, tab = alg
    out = [0] * (n * n)
    for a in range(n):
        for b in range(n):
            out[perm[a] * n + perm[b]] = perm[tab[a * n + b]]
    return n, tuple(out)


def shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def seeded(rng: random.Random, name: str) -> Alg:
    n, _ = alg = tame(name)
    return relabel(alg, shuffled(rng, n))


def decode(sizes: Sequence[int], index: int) -> tuple[int, ...]:
    out = [0] * len(sizes)
    for pos in range(len(sizes) - 1, -1, -1):
        index, out[pos] = divmod(index, sizes[pos])
    return tuple(out)


def encode(sizes: Sequence[int], tup: Sequence[int]) -> int:
    idx = 0
    for value, size in zip(tup, sizes):
        idx = idx * size + value
    return idx


def product(factors: Sequence[Alg]) -> Alg:
    """Direct product, flat mixed-radix index with factor 0 most significant."""
    sizes = [n for n, _ in factors]
    size = math.prod(sizes)
    coords = [decode(sizes, a) for a in range(size)]
    tab = tuple(
        encode(sizes, [t[x * n + y] for (n, t), x, y in zip(factors, coords[a], coords[b])])
        for a in range(size)
        for b in range(size)
    )
    return size, tab


def closure(alg: Alg, seeds: Sequence[int]) -> list[int]:
    """Subuniverse generated by seeds, in discovery order: the seeds, then
    passes over (a, b) drawn lexicographically from the elements found
    before the pass.  This is the order a certificate's image refers to."""
    n, tab = alg
    elements = list(dict.fromkeys(seeds))
    seen = set(elements)
    while True:
        base = len(elements)
        for a in elements[:base]:
            for b in elements[:base]:
                v = tab[a * n + b]
                if v not in seen:
                    seen.add(v)
                    elements.append(v)
        if len(elements) == base:
            return elements


def is_hom(src: Alg, dst: Alg, image: Sequence[int]) -> bool:
    (n, s), (m, d) = src, dst
    return len(image) == n and all(0 <= v < m for v in image) and all(
        image[s[a * n + b]] == d[image[a] * m + image[b]] for a in range(n) for b in range(n)
    )


def is_iso_pair(a: Alg, b: Alg, forward: Sequence[int], backward: Sequence[int]) -> bool:
    return (
        is_hom(a, b, forward)
        and is_hom(b, a, backward)
        and all(backward[forward[x]] == x for x in range(a[0]))
        and all(forward[backward[y]] == y for y in range(b[0]))
    )


def certified_member(
    rng: random.Random, K: Sequence[Alg], factors: Sequence[tuple[int, int]], size: int
) -> tuple[list[int], list[int], Alg]:
    """A seeded member B of V(K) with an HSP certificate: B is the image of
    the subalgebra of the product generated by gens under a coordinate
    projection, relabelled.  Returns (gens, image, B)."""
    expanded = [K[k] for k, power in factors for _ in range(power)]
    prod = product(expanded)
    sizes = [n for n, _ in expanded]
    for _ in range(10_000):
        gens = sorted(rng.sample(range(prod[0]), rng.randint(1, min(3, prod[0]))))
        elements = closure(prod, gens)
        coord = rng.randrange(len(expanded))
        values = sorted({decode(sizes, e)[coord] for e in elements})
        if len(values) != size:
            continue
        perm = shuffled(rng, size)
        rank = {v: perm[i] for i, v in enumerate(values)}
        n, tab = expanded[coord]
        image = [rank[decode(sizes, e)[coord]] for e in elements]
        member = [0] * (size * size)
        for a in values:
            for b in values:
                member[rank[a] * size + rank[b]] = rank[tab[a * n + b]]
        B = (size, tuple(member))
        if not is_hom((len(elements), _restrict(prod, elements)), B, image):
            raise AssertionError("generator built an invalid certificate")
        return gens, image, B
    raise RuntimeError(f"no member of size {size} found for factors {factors}")


def _restrict(alg: Alg, elements: Sequence[int]) -> Table:
    n, tab = alg
    label = {e: i for i, e in enumerate(elements)}
    return tuple(label[tab[a * n + b]] for a in elements for b in elements)


def alg_text(named: Sequence[tuple[str, Alg]]) -> str:
    blocks = ["signature\nop f 2\nend"]
    for name, (n, tab) in named:
        blocks.append(f"algebra {name}\nsize {n}\nop f {' '.join(map(str, tab))}\nend")
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------- terms
# A term is a variable name (str) or a pair (left, right) meaning f(left, right).


def term_text(t) -> str:
    if isinstance(t, str):
        return f"?{t}"
    return f"f({term_text(t[0])},{term_text(t[1])})"


def term_vars(t, out: list[str] | None = None) -> list[str]:
    out = [] if out is None else out
    if isinstance(t, str):
        if t not in out:
            out.append(t)
    else:
        term_vars(t[0], out)
        term_vars(t[1], out)
    return out


def rename(t, names: dict[str, object]):
    """Substitute names[v] for each variable v."""
    if isinstance(t, str):
        return names[t]
    return rename(t[0], names), rename(t[1], names)


def evaluate(alg: Alg, t, env: dict[str, int]) -> int:
    if isinstance(t, str):
        return env[t]
    n, tab = alg
    return tab[evaluate(alg, t[0], env) * n + evaluate(alg, t[1], env)]


def holds(alg: Alg, eq) -> bool:
    names = term_vars(eq[1], term_vars(eq[0]))
    return all(
        evaluate(alg, eq[0], env) == evaluate(alg, eq[1], env)
        for env in (dict(zip(names, vs)) for vs in itertools.product(range(alg[0]), repeat=len(names)))
    )


def all_algebras(size: int) -> list[Alg]:
    return [(size, tab) for tab in itertools.product(range(size), repeat=size * size)]


def terms_upto(variables: Sequence[str], depth: int) -> list:
    """Every term of depth <= depth (no constants: the signature is {f/2})."""
    layers = [list(variables)]
    for _ in range(depth):
        below = [t for layer in layers for t in layer]
        top = set(layers[-1])
        layers.append([(p, q) for p in below for q in below if p in top or q in top])
    return [t for layer in layers for t in layer]


def theory_size(K: Sequence[Alg], nvars: int, depth: int) -> int:
    """Number of ordered pairs (p, q) of terms of depth <= depth over nvars
    variables that every algebra of K identifies."""
    variables = [f"v{i}" for i in range(nvars)]
    envs = [
        (alg, dict(zip(variables, vs)))
        for alg in K
        for vs in itertools.product(range(alg[0]), repeat=nvars)
    ]
    classes: dict[tuple, int] = {}
    for t in terms_upto(variables, depth):
        key = tuple(evaluate(alg, t, env) for alg, env in envs)
        classes[key] = classes.get(key, 0) + 1
    return sum(c * c for c in classes.values())


def free_size(K: Sequence[Alg], nvars: int) -> int:
    """Size of the free algebra of V(K) on nvars generators: close the
    variable projections under f, one coordinate per (member, environment)."""
    coords = [(alg, vs) for alg in K for vs in itertools.product(range(alg[0]), repeat=nvars)]
    ops = [(n, tab) for (n, tab), _ in coords]
    found = {tuple(vs[i] for _, vs in coords) for i in range(nvars)}
    frontier = list(found)
    while frontier:
        old = list(found)
        fresh = []
        for x in frontier:
            for y in old:
                for t in (
                    tuple(tab[a * n + b] for (n, tab), a, b in zip(ops, x, y)),
                    tuple(tab[a * n + b] for (n, tab), a, b in zip(ops, y, x)),
                ):
                    if t not in found:
                        found.add(t)
                        fresh.append(t)
        frontier = fresh
    return len(found)
