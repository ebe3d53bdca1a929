"""Brute-force reference paths kept as differential oracles.

Each is the pair-by-pair, point-by-point or pass-by-pass form that a
faster or shared path in ualg replaced: every equation of a bounded theory
decided by its own class_satisfies call, every coordinate of an
evaluation tuple by its own evaluate call, every term's value column by
one table lookup per environment (the list kernel), every closure with
its own naive pass loop followed by a separate pass that tabulates the
operations,
every product cell by one checked apply_op call per factor, every hom
check cell by two checked apply_op calls, hom_factor's kernel
inclusion scanning every kernel pair, the hom search branching on every
source element in place of the generators, the hom search running its
propagation once per value at a branch point, the hom search's leaf
re-check run on one complete image at a time, the models of E found by
filtering every table and deduplicated by trying every relabelling, the
congruences of an algebra found by trying every set partition, every
quotient cell by one apply_op call after a cell-by-cell congruence check,
every algebra the easy direction derives by its own mod_check call or
its own term_columns calls, every pool algebra of the soundness audit by
its own mod_check call, the
hard direction's free algebra built on one variable per element of B, a
hom's image closed as a subalgebra of its target (hom_image), the HSP
certificate check comparing that image with B by an isomorphism search,
the trivial certificate closing every generator subset in turn,
term enumeration keeping every term's depth in a list beside it, the
byte-lane plan rebuilding its step tables on every call, a theory's
text rendered by str one equation at a time, and the proof search run
through every depth with no countermodel step.
Table indices here come from enumerating itertools.product (_positions),
never from the package's index codec, so a fault in the codec cannot
show on both sides of a differential test.
"""

import functools
import itertools
from typing import Iterator

import ualg.birkhoff as birkhoff
import ualg.closure as closure
import ualg.entail as entail
from ualg import (
    App,
    CapExceededError,
    Caps,
    CarrierMap,
    Equation,
    FiniteAlgebra,
    Var,
    apply_op,
    class_satisfies,
    enumerate_terms,
    evaluate,
    build_free,
    classify,
    find_homs,
    find_isomorphism,
    product,
    infer_signature,
    mod_check,
    satisfies,
    subalgebra_generate,
)
from ualg.birkhoff import PipelineReport, Stage, _models_theory
from ualg.closure import CertCheckResult, HspCertificate, ProductAlgebra
from ualg.core import Caps, UalgError, lane_pointwise, same_signature
from ualg.free import FreeAlgebra, UniversalMapFailure, universal_map
from ualg.homs import KernelInclusionError, NotAHomError, NotSurjectiveError, hom_violation, kernel_pairs
from ualg.eqlogic import find_models
from ualg.terms import all_environments, environment_columns, equation_vars, term_columns


@functools.lru_cache(maxsize=None)
def _positions(sizes):
    """Each coordinate tuple of the mixed-radix space with these sizes
    mapped to its position in itertools.product order: the row-major
    index, found by enumeration rather than by the package's arithmetic."""
    return {args: i for i, args in enumerate(itertools.product(*map(range, sizes)))}


def _cell(sizes, args):
    return _positions(tuple(sizes))[tuple(args)]


def enumerate_terms_depths(sig, variables, max_depth, caps=Caps()):
    """enumerate_terms keeping each term's depth in a list beside it: layer
    d keeps the child tuples whose deepest child, looked up there, has
    depth d-1.  Each layer is refused before it is built when the terms
    within depth d-1 and the tuples reaching it (within^r - below^r per
    r-ary symbol, below counting depths under d-1) pass the cap; the
    per-term check can then trip only if that count is short."""
    terms = [Var(v) for v in variables] + [App(c) for c in sig.constants()]
    depths = [0] * len(terms)
    caps.check("cells", len(terms), "terms enumerated")
    for d in range(1, max_depth + 1):
        base = len(terms)
        below = sum(1 for depth in depths if depth < d - 1)
        caps.check("cells", base + sum(base**arity - below**arity for _, arity in sig.ops if arity), "terms enumerated")
        for name, arity in sig.ops:
            if arity == 0:
                continue
            for combo in itertools.product(range(base), repeat=arity):
                if max(depths[i] for i in combo) == d - 1:
                    terms.append(App(name, tuple([terms[i] for i in combo])))
                    depths.append(d)
                    caps.check("cells", len(terms), "terms enumerated")
        if len(terms) == base:
            break
    return terms


def theory_upto_pairwise(K, variables, max_depth, term_cap=1_000_000, env_cap=1_000_000):
    """Every ordered pair of enumerated terms that K satisfies, one
    class_satisfies call per pair, in (p index, q index) order."""
    if not K:
        raise ValueError("theory_upto needs a nonempty class to fix the signature")
    terms = enumerate_terms(same_signature(*K), variables, max_depth, Caps(cells=term_cap))
    return [
        Equation(p, q)
        for p, q in itertools.product(terms, repeat=2)
        if class_satisfies(K, Equation(p, q), Caps(cells=env_cap)).holds
    ]


def theory_text_oracle(theory):
    """The text of theory.equations(), each equation rendered on its own by str."""
    return "".join(str(eq) + "\n" for eq in theory.equations())


def models_theory_pairwise(K, B, depth):
    """The models-theory stage of var_to_eqcl_check as one satisfies call
    per equation of the theory of K."""
    theory = theory_upto_pairwise(K, ["x", "y"], depth)
    for eq in theory:
        res = satisfies(B, eq)
        if not res.holds:
            return Stage("models-theory", False, f"{eq} fails at {res.counterexample}")
    return Stage("models-theory", True, f"{len(theory)} equations")


def evaluation_tuple(free, t):
    """t's value at each (class member, environment) coordinate of free."""
    return tuple(
        evaluate(free.k_algebras[ki], t, dict(zip(free.variables, env)))
        for ki, env in free.index
    )


def nat_epi_pointwise(free, t):
    return free.lookup(evaluation_tuple(free, t))


def universal_map_pointwise(free, B, assign):
    same_signature(free.alg, B)
    for name in free.variables:
        if name not in assign:
            raise ValueError(f"assignment misses variable {name}")
    image = tuple(evaluate(B, term, assign) for term in free.reprs)
    candidate = CarrierMap(free.alg, B, image)
    witness = hom_violation(candidate)
    if witness is not None:
        return UniversalMapFailure("hom", image, symbol=witness[0], args=witness[1])
    for b in range(B.size):
        if b not in set(image):
            return UniversalMapFailure("surjectivity", image, unreached=b)
    return candidate


def hom_violation_apply_op(m):
    """First (symbol, args) where m fails to commute, one checked apply_op
    call on each side per cell (no table range checks)."""
    same_signature(m.src, m.dst)
    for name, arity in m.src.sig.ops:
        for args in itertools.product(range(m.src.size), repeat=arity):
            mapped = [m.image[a] for a in args]
            if m.image[apply_op(m.src, name, args)] != apply_op(m.dst, name, mapped):
                return (name, args)
    return None


def hom_factor_pairwise(g, h):
    """hom_factor scanning every pair of ker h in sorted order for the first
    one g separates."""
    for m in (g, h):
        witness = hom_violation(m)
        if witness is not None:
            raise NotAHomError(witness)
    preimage = {}
    for a in range(h.src.size):
        preimage.setdefault(h.image[a], a)
    for c in range(h.dst.size):
        if c not in preimage:
            raise NotSurjectiveError(c)
    for x, y in sorted(kernel_pairs(h)):
        if g.image[x] != g.image[y]:
            raise KernelInclusionError((x, y))
    return CarrierMap(h.dst, g.dst, tuple(g.image[preimage[c]] for c in range(h.dst.size)))


def iter_homs_elementwise(src, dst, surjective=None, injective=None, fixed=None):
    """The hom search that branches on every source element in index order,
    checking at each node every operation tuple over the decided elements
    that involves the element just assigned; every complete image is
    re-checked by classify.  Homs in lexicographic image order."""
    same_signature(src, dst)
    ops = list(zip(src.sig.ops, src.tables, dst.tables))
    return _extend(src, dst, ops, [-1] * src.size, 0, dict(fixed or {}), surjective, injective)


def _extend(src, dst, ops, image, a, fixed, surjective, injective):
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


def _compatible(ops, n, m, image, v):
    for (name, arity), src_table, dst_table in ops:
        if arity == 0:
            res = src_table[0]
            if image[res] >= 0 and dst_table[0] != image[res]:
                return False
            continue
        decided = [a for a in range(n) if image[a] >= 0]
        for args in itertools.product(decided, repeat=arity):
            res = src_table[_cell((n,) * arity, args)]
            if image[res] < 0:
                continue
            if v in args or res == v:
                mapped = _cell((m,) * arity, [image[a] for a in args])
                if dst_table[mapped] != image[res]:
                    return False
    return True


def iter_homs_pervalue(src, dst, surjective=None, injective=None, fixed=None, caps=Caps()):
    """iter_homs with assign run on every (branch element, target value)
    pair: the per-value search that a branch point's one scan and its mask
    of passing values replaced.  The same branch points, values counted
    against caps.search, leaf re-check and image order."""
    same_signature(src, dst)
    fixed = dict(fixed or {})
    for a, b in fixed.items():
        if not 0 <= a < src.size or not 0 <= b < dst.size:
            raise ValueError(f"fixed assignment {a}->{b} out of range")
    seeds = [(s[0], d[0]) for (_, k), s, d in zip(src.sig.ops, src.tables, dst.tables) if not k]
    seeds += fixed.items()
    search = _PerValueSearch(src, dst, surjective, injective, caps)
    return search.homs() if search.assign(seeds) else iter(())


class _PerValueSearch:
    """A partial image src -> dst, -1 marking the undecided elements, with
    trail, the decided elements in the order decided (an undo trail: a node
    is undone by cutting it back), and uses, each target value's preimage
    count (for injective and the surjective prune)."""

    def __init__(self, src, dst, surjective: bool | None, injective: bool | None, caps: Caps):
        self.src, self.dst, self.surjective, self.injective = src, dst, surjective, injective
        self.ops = [(k, s, d) for (_, k), s, d in zip(src.sig.ops, src.tables, dst.tables) if k]
        self.image, self.trail, self.uses = [-1] * src.size, [], [0] * dst.size
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

    def homs(self) -> Iterator[CarrierMap]:
        """The homs extending the image, in one depth-first loop: branch on
        the least undecided element, target values ascending.  stack holds
        the open branch points: element, len(trail) before it, values left.
        Each complete image is re-checked by recheck_single, built at the
        first."""
        image, trail, uses, n, m = self.image, self.trail, self.uses, self.src.size, self.dst.size
        sur, inj, assign, recheck, tried = self.surjective, self.injective, self.assign, None, 0
        stack = [(-1, len(trail), iter((0,)))]  # the root: one try, assigning nothing
        while stack:
            a, mark, values = stack[-1]
            for b in values:
                if len(trail) > mark:  # undo down to the branch point
                    for x in trail[mark:]:
                        uses[image[x]] -= 1
                        image[x] = -1
                    del trail[mark:]
                if a >= 0:
                    tried += 1
                    if tried > self.cap:
                        self.caps.check("search", tried, "hom search values tried at branch points")
                    if not assign([(a, b)]):
                        continue
                if sur and uses.count(0) > n - len(trail):
                    continue  # more values unused than elements undecided
                if len(trail) < n:
                    stack.append((image.index(-1), len(trail), iter(range(m))))
                    break
                recheck = recheck or recheck_single(self.src, self.dst)
                if (witness := recheck(image)) is not None:
                    raise UalgError(f"hom search reached {tuple(image)}, not a hom at {witness[0]}{witness[1]}")
                if sur in (None, not uses.count(0)) and inj in (None, m - uses.count(0) == n):
                    yield CarrierMap(self.src, self.dst, tuple(image))
            else:
                stack.pop()


def recheck_single(src, dst):
    """homs._recheck one image at a time, as it was before complete images
    were re-checked in batches: per table, dst's lane_pointwise on src's
    argument columns mapped through the image against src's table mapped
    through it; hom_violation itself when dst fails lane_plan's fit rule or
    |src| > 256.  The witness's arguments are found by enumeration."""
    n, plan = src.size, dst._lanes
    if plan is None or n > 256:
        return lambda image: hom_violation(CarrierMap(src, dst, tuple(image)))
    apply, ops = lane_pointwise(plan, b"\0"), []
    for (name, arity), table in zip(src.sig.ops, src.tables):
        ops.append((name, arity, list(environment_columns(range(arity), n).values()), bytes(table)))

    def violation(image):
        h = bytes(image).ljust(256, b"\0")
        for name, arity, columns, table in ops:
            if (target := apply(name, [c.translate(h) for c in columns])) != (mapped := table.translate(h)):
                at = next(i for i, x in enumerate(target) if x != mapped[i])
                return name, next(itertools.islice(itertools.product(range(n), repeat=arity), at, None))
        return None

    return violation


def lane_plan_uncached(K, sig):
    """core.lane_plan as it was before its step tables and shifts were kept
    per shape: every call rebuilds them from the sizes."""
    identity = bytes(range(256))
    sizes = [alg.size for alg in K]
    top = max([1] + [arity for _, arity in sig.ops])
    if top > 8 or sum([n**top for n in sizes]) > 256:
        return None
    offsets = list(itertools.accumulate(sizes, initial=0))
    steps = []
    for j in range(1, top):
        blocks, start = [], 0
        for n, off in zip(sizes, offsets):
            blocks.append(identity[start - off : start - off + n ** (j + 1) : n])
            start += n ** (j + 1)
        steps.append(b"".join(blocks).ljust(256, b"\0"))
    shifts = [identity[off:] + identity[:off] for off in offsets]
    plan = {}
    for pos, (name, arity) in enumerate(sig.ops):
        final = b"".join([bytes(alg.tables[pos]).translate(shift) for alg, shift in zip(K, shifts)])
        plan[name] = (steps[: max(arity - 1, 0)], final.ljust(256, b"\0"))
    return plan


def term_columns_lists(alg, terms, columns):
    """The list kernel that the byte lanes replaced: each term's value
    column as a list, one table lookup per environment, each cell found by
    enumeration."""
    width = len(next(iter(columns.values()), (0,)))
    tables = dict(zip(alg.sig.symbols, alg.tables))
    done = {}

    def column(t):
        if type(t) is Var:
            return list(columns[t.name])
        if id(t) not in done:
            table, args = tables[t.symbol], [column(c) for c in t.children]
            sizes = (alg.size,) * len(args)
            done[id(t)] = [table[_cell(sizes, cell)] for cell in zip(*args)] if args else [table[0]] * width
        return done[id(t)]

    return [column(t) for t in terms]


def product_cellwise(factors, size_cap=4096, cells_cap=1_000_000):
    """The product with one apply_op call per factor per cell."""
    if not factors:
        raise ValueError("product requires at least one factor")
    sig = same_signature(*factors)
    sizes = tuple(a.size for a in factors)
    n = 1
    for s in sizes:
        n *= s
    caps = Caps(carrier=size_cap, cells=cells_cap)
    caps.check("carrier", n, "product carrier")
    caps.check("cells", sum(n**arity for _, arity in sig.ops), "product table cells")

    coords = list(_positions(sizes))
    tables = []
    for name, arity in sig.ops:
        table = []
        for args in itertools.product(range(n), repeat=arity):
            value = [
                apply_op(f, name, [coords[a][i] for a in args])
                for i, f in enumerate(factors)
            ]
            table.append(_cell(sizes, value))
        tables.append(tuple(table))
    return ProductAlgebra(FiniteAlgebra(sig, n, tuple(tables)), sizes)


def closure_list(alg, seeds):
    """Seeds in order, then passes applying the symbols in signature order
    to the already-discovered elements in label order."""
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


def _tabulate(alg, elements):
    """One more pass over every label tuple: the relabelled tables."""
    label = {orig: i for i, orig in enumerate(elements)}
    return tuple(
        tuple(
            label[apply_op(alg, name, [elements[a] for a in args])]
            for args in itertools.product(range(len(elements)), repeat=arity)
        )
        for name, arity in alg.sig.ops
    )


def subalgebra_generate_passes(alg, gens):
    """Generated subalgebra and its inclusion map (no error checks)."""
    elements = closure_list(alg, sorted(set(gens)))
    sub = FiniteAlgebra(alg.sig, len(elements), _tabulate(alg, elements))
    return sub, CarrierMap(sub, alg, tuple(elements))


def hom_image(alg, m):
    """Image algebra of a hom, relabeled canonically (ascending target
    values), plus the corestricted surjection onto it."""
    if m.src != alg:
        raise UalgError("hom_image: map source differs from algebra")
    witness = hom_violation(m)
    if witness is not None:
        raise NotAHomError(witness)
    # The image of a hom is closed: it generates itself, in ascending order.
    img, inclusion = subalgebra_generate(m.dst, m.image)
    label = {v: i for i, v in enumerate(inclusion.image)}
    return img, CarrierMap(alg, img, tuple(label[b] for b in m.image))


def hom_image_passes(alg, m):
    """Image of a hom on the ascending image values, and the map onto it."""
    values = sorted(set(m.image))
    img = FiniteAlgebra(m.dst.sig, len(values), _tabulate(m.dst, values))
    label = {v: i for i, v in enumerate(values)}
    return img, CarrierMap(alg, img, tuple(label[b] for b in m.image))


def build_free_passes(K, variables, caps=Caps(), sig=None):
    """The free algebra with its own pass loop and table pass, representatives
    built as elements are found (no empty-carrier or invariant checks)."""
    if K:
        sig = same_signature(*K)
    variables = list(variables)
    index = [
        (ki, tuple(env.values()))
        for ki, alg in enumerate(K)
        for env in all_environments(variables, alg.size)
    ]
    width = len(index)
    caps.check("cells", width * max(1, len(variables)), "free tuple cells")
    elements, reprs, label, gens = [], [], {}, {}

    def add(tup, term):
        count = len(elements) + 1
        caps.check("carrier", count, "free carrier")
        caps.check("cells", count * width, "free tuple cells")
        caps.check("cells", sum(count**arity for _, arity in sig.ops), "free table cells")
        label[tup] = len(elements)
        elements.append(tup)
        reprs.append(term)
        return label[tup]

    for pos, name in enumerate(variables):
        tup = tuple(env[pos] for _, env in index)
        gens[name] = label[tup] if tup in label else add(tup, Var(name))

    def pointwise(name, arg_labels):
        return tuple(
            apply_op(K[ki], name, [elements[a][j] for a in arg_labels])
            for j, (ki, _) in enumerate(index)
        )

    while True:
        base = len(elements)
        for name, arity in sig.ops:
            for args in itertools.product(range(base), repeat=arity):
                tup = pointwise(name, args)
                if tup not in label:
                    add(tup, App(name, tuple(reprs[a] for a in args)))
        if len(elements) == base:
            break
    tables = tuple(
        tuple(
            label[pointwise(name, args)]
            for args in itertools.product(range(len(elements)), repeat=arity)
        )
        for name, arity in sig.ops
    )
    return FreeAlgebra(
        alg=FiniteAlgebra(sig, len(elements), tables),
        k_algebras=tuple(K),
        variables=tuple(variables),
        index=tuple(index),
        tuples=tuple(elements),
        reprs=tuple(reprs),
        gens=gens,
    )


@functools.cache
def models_bruteforce(sig, E, size):
    """(representatives, count) for the equation tuple E: every table of
    the size, in itertools.product order, filtered by mod_check; a model is
    a representative unless an earlier model is one of its relabellings."""
    spaces = [itertools.product(range(size), repeat=size**arity) for _, arity in sig.ops]
    seen, reps, count = set(), [], 0
    for tables in itertools.product(*spaces):
        alg = FiniteAlgebra(sig, size, tables)
        if not mod_check(alg, E).holds:
            continue
        count += 1
        if tables not in seen:
            reps.append(alg)
            seen.update(_relabellings(sig, size, tables))
    return tuple(reps), count


def _relabellings(sig, size, tables):
    for perm in itertools.permutations(range(size)):
        out = []
        for (_, arity), table in zip(sig.ops, tables):
            new = [0] * len(table)
            for i, args in enumerate(itertools.product(range(size), repeat=arity)):
                new[_cell([size] * arity, [perm[a] for a in args])] = perm[table[i]]
            out.append(tuple(new))
        yield tuple(out)


def congruences_bruteforce(alg):
    """Every set partition of the carrier compatible with every operation:
    a_i ~ b_i for all i implies f(a) ~ f(b), tried for every argument tuple
    a and every b drawn from the blocks of a's entries.  Each as its
    labelling (every element mapped to the least element of its block), in
    ascending order."""
    n = alg.size
    out = []
    for theta in _set_partitions(n):
        block = {r: [x for x in range(n) if theta[x] == r] for r in theta}
        if all(
            theta[table[_cell([n] * arity, a)]] == theta[table[_cell([n] * arity, b)]]
            for (_, arity), table in zip(alg.sig.ops, alg.tables)
            for a in itertools.product(range(n), repeat=arity)
            for b in itertools.product(*(block[theta[x]] for x in a))
        ):
            out.append(theta)
    return sorted(out)


def quotient_apply_op(alg, theta):
    """alg/theta for a least-element labelling theta, checked cell by cell:
    in signature order and row-major order, the first operation tuple whose
    value and the value at its tuple of least elements lie in different
    blocks raises UalgError.  Each cell of the quotient is one apply_op
    call at the least elements of its blocks."""
    n = alg.size
    for name, arity in alg.sig.ops:
        for args in itertools.product(range(n), repeat=arity):
            least = tuple(theta[a] for a in args)
            value, at_least = apply_op(alg, name, args), apply_op(alg, name, least)
            if theta[value] != theta[at_least]:
                blocks = "|".join(
                    "{" + ",".join(str(x) for x in range(n) if theta[x] == r) + "}"
                    for r in sorted(set(theta))
                )
                raise UalgError(
                    f"{blocks} is not a congruence: {name}{args} = {value} and "
                    f"{name}{least} = {at_least} lie in different blocks"
                )
    reps = sorted(set(theta))
    nat = tuple(reps.index(r) for r in theta)
    quo = FiniteAlgebra(alg.sig, len(reps), tuple(
        tuple(
            nat[apply_op(alg, name, [reps[i] for i in args])]
            for args in itertools.product(range(len(reps)), repeat=arity)
        )
        for name, arity in alg.sig.ops
    ))
    return quo, CarrierMap(alg, quo, nat)


def _set_partitions(n):
    """Each partition of range(n) once, as its least-element labelling:
    every element joins the block of a smaller one or starts its own."""
    labellings = [()]
    for x in range(n):
        labellings = [
            (*theta, r) for theta in labellings for r in sorted({*theta, x})
        ]
    return labellings


def eqcl_to_var_check_permodel(E, pool_size_bound, product_size_cap=4096, search_cap=1_000_000):
    """The easy direction over brute-force models, one mod_check call per
    derived algebra, every nonempty generator subset of every model closed
    and checked.  Products and generated subalgebras come from
    birkhoff.product and closure.subalgebra_generate, so a test can patch
    them on both paths at once."""
    sig = infer_signature(E)
    models, count = [], 0
    for size in range(1, pool_size_bound + 1):
        reps, n = models_bruteforce(sig, tuple(E), size)
        models.extend(reps)
        count += n
    stages = [Stage("enumerate-models", True, f"{count} models of {len(E)} equations")]

    def check(derived, how):
        res = mod_check(derived, E)
        if res.holds:
            return None
        return Stage("closure", False, f"{how} breaks equation {res.failing_index} at {res.counterexample}")

    for a, b in itertools.combinations_with_replacement(models, 2):
        if a.size * b.size > product_size_cap:
            continue
        bad = check(birkhoff.product([a, b]).alg, "product")
        if bad is not None:
            return PipelineReport((*stages, bad))
    stages.append(Stage("products-closed", True))

    for alg in models:
        for r in range(1, alg.size + 1):
            for gens in itertools.combinations(range(alg.size), r):
                sub, _ = closure.subalgebra_generate(alg, gens)
                bad = check(sub, f"subalgebra from {gens}")
                if bad is not None:
                    return PipelineReport((*stages, bad))
    stages.append(Stage("subalgebras-closed", True))

    for src, dst in itertools.product(models, repeat=2):
        for m in find_homs(src, dst, caps=Caps(search=search_cap)):
            img, _ = hom_image(src, m)
            bad = check(img, f"hom image {m.image}")
            if bad is not None:
                return PipelineReport((*stages, bad))
    stages.append(Stage("hom-images-closed", True))
    return PipelineReport(tuple(stages))


def eqcl_to_var_check_peralgebra(E, pool_size_bound, caps=Caps()):
    """The easy direction on find_models' representatives with every
    derived algebra checked on its own: each equation's value columns by
    one term_columns call, environment columns cached per (equation,
    size), a failure replayed through satisfies.  Products, subuniverses,
    quotients and congruences come from the names birkhoff binds, so a test
    can patch them on both paths at once."""
    sig = infer_signature(E)
    models, count = [], 0
    for size in range(1, pool_size_bound + 1):
        reps, n = find_models(sig, E, size, caps)
        models.extend(reps)
        count += n
    stages = [Stage("enumerate-models", True, f"{count} models of {len(E)} equations")]
    envs = {}
    closures = [
        ("products-closed", ((birkhoff.product([a, b], caps).alg, "product")
                             for a, b in itertools.combinations_with_replacement(models, 2))),
        ("subalgebras-closed", ((sub, f"subalgebra from {gens}")
                                for alg in models for gens, sub, _ in birkhoff.subuniverses(alg))),
        ("hom-images-closed", ((birkhoff.quotient(alg, theta)[0], f"quotient by {birkhoff._blocks_text(theta)}")
                               for alg in models
                               for theta in birkhoff.congruences(alg, caps)
                               if 1 < len(set(theta)) < alg.size)),
    ]
    for name, derived in closures:
        for alg, how in derived:
            for i, eq in enumerate(E):
                columns = envs.get((i, alg.size))
                if columns is None:
                    names = equation_vars(eq)
                    caps.check_env_space(alg.size, names)
                    columns = envs[i, alg.size] = environment_columns(names, alg.size)
                lhs, rhs = term_columns(alg, (eq.lhs, eq.rhs), columns)
                if lhs != rhs:
                    res = satisfies(alg, eq, caps)
                    if res.holds:
                        raise UalgError(f"value columns fail {eq}, but satisfies finds no counterexample")
                    bad = Stage("closure", False, f"{how} breaks equation {i} at {res.counterexample}")
                    return PipelineReport((*stages, bad))
        stages.append(Stage(name, True))
    return PipelineReport(tuple(stages))


def soundness_audit_peralgebra(sig, axioms, proofs, model_pool):
    """soundness_audit with one mod_check call per pool algebra and one
    satisfies call per (model, conclusion)."""
    conclusions = [entail.check_proof(sig, axioms, p) for p in proofs]
    model_indices = [i for i, alg in enumerate(model_pool) if mod_check(alg, axioms).holds]
    entries = [entail.AuditEntry(i, eq, satisfies(model_pool[i], eq).holds)
               for i in model_indices for eq in conclusions]
    return entail.AuditReport(tuple(entries), tuple(model_indices))


def trivial_certificate_every_subset(k_index, alg, caps=Caps()):
    """trivial_certificate closing every generator subset in combinations
    order, size by size from 0 when the signature has constants, and
    admitting each size r, as build_free would admit r variables, before
    trying it."""
    for r in range(0 if alg.sig.constants() else 1, alg.size + 1):
        caps.admit(alg.sig, alg.size**r * max(1, r), "free")(1)
        for gens in itertools.combinations(range(alg.size), r):
            sub, inclusion = subalgebra_generate(alg, gens)
            if sub.size == alg.size:
                return HspCertificate(((k_index, 1),), gens, inclusion.image)


def hsp_certificate_check_isosearch(K, B, cert, caps=Caps()):
    """The certificate check with the image built by hom_image and compared
    with B by find_isomorphism, in place of a coverage test."""
    factor_list = []
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
        prod = product(factor_list, caps)
    except CapExceededError:
        raise
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
    try:
        img, _ = hom_image(sub, CarrierMap(sub, B, cert.image))
    except NotAHomError as e:
        return CertCheckResult(False, "image", f"not a hom at {e.witness[0]}{e.witness[1]}")
    if find_isomorphism(img, B, caps) is None:
        return CertCheckResult(
            False, "isomorphism", f"image (size {img.size}) is not isomorphic to target"
        )
    return CertCheckResult(True)


def var_to_eqcl_check_allvars(K, B, cert, theory_depth=2):
    """The hard direction with the free algebra on |B| generators, the
    universal map sending generator i to element i, and the certificate
    checked by hsp_certificate_check_isosearch."""
    stages = []
    cert_res = hsp_certificate_check_isosearch(K, B, cert)
    if not cert_res.ok:
        stages.append(
            Stage("certificate", False, f"{cert_res.stage}: {cert_res.detail}")
        )
        return PipelineReport(tuple(stages))
    stages.append(Stage("certificate", True))

    variables = [f"v{i}" for i in range(B.size)]
    free = build_free(K, variables)
    stages.append(
        Stage("free-build", True, f"{free.alg.size} elements over {len(free.index)} coordinates")
    )

    result = universal_map(free, B, {v: i for i, v in enumerate(variables)})
    if isinstance(result, UniversalMapFailure):
        if result.kind == "hom":
            detail = f"hom check failed at {result.symbol}{result.args}"
        else:
            detail = f"surjectivity failed: {result.unreached} unreached"
        stages.append(Stage("universal-map", False, detail))
        return PipelineReport(tuple(stages))
    stages.append(Stage("universal-map", True, f"image {result.image}"))

    stages.append(_models_theory(K, B, theory_depth, Caps()))
    return PipelineReport(tuple(stages))


def search_proof_proofonly(sig, axioms, goal, limits=entail.SearchLimits()):
    """search_proof without its countermodel step: "exhausted" once every
    depth up to max_depth is searched without a proof."""
    if limits.max_depth < 1 or limits.node_budget < 1:
        raise ValueError("limits must be positive")
    swapped = [Equation(a.rhs, a.lhs) for a in axioms]
    search = entail._Search(axioms, swapped, limits.max_term_size, limits.node_budget, {})
    try:
        for depth in range(1, limits.max_depth + 1):
            search.failed.clear()
            proof = entail._prove(search, goal, depth)
            if proof is not None:
                if entail.check_proof(sig, axioms, proof) != goal:
                    raise UalgError(f"search_proof built a proof that does not conclude {goal}")
                return entail.SearchOutcome("found", proof)
    except entail._BudgetExhausted:
        return entail.SearchOutcome("budget")
    return entail.SearchOutcome("exhausted")
