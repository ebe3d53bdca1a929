"""The one closure routine, close, and the constructions built on it, each
against the naive pass loop plus table pass it replaced, and product
against its cell-by-cell form (see oracles.py)."""

import gc
import itertools
import random
import sys

import pytest

import ualg.closure
import ualg.free
from ualg import (
    App,
    Caps,
    CarrierMap,
    Equation,
    FiniteAlgebra,
    SearchLimits,
    Var,
    algebra,
    apply_op,
    build_free,
    check_leq,
    classify,
    eqcl_to_var_check,
    find_homs,
    find_isomorphism,
    product,
    search_proof,
    soundness_audit,
    subalgebra_generate,
    verify_invariance,
)
from ualg.birkhoff import HomImageWitness
from ualg.closure import EmptyCarrierError, close, generate
from ualg.core import CapExceededError, OutOfRangeError
from ualg.entail import Hyp
from ualg.homs import hom_violation

from oracles import (
    build_free_passes,
    closure_list,
    hom_image,
    hom_image_passes,
    hom_violation_apply_op,
    product_cellwise,
    subalgebra_generate_passes,
)
from samples import (
    SIG_CONST,
    SIG_F,
    SIG_FE,
    SIG_G,
    chain3_median,
    chain_median,
    constants_only,
    mixed_arities,
    mul3_with_unit,
    semilattice2,
    semilattice2_with_top,
    z2_xor,
    z3_add,
    z3_malcev,
    z4_add,
    z5_successor,
    z_add,
    z_successor,
)

SAMPLES = [z2_xor(), semilattice2(SIG_F), z3_add(), z4_add()]


def left_zero(size):
    return algebra(SIG_F, size, {"f": [a for a in range(size) for _ in range(size)]})


# Signatures beyond one binary symbol: close keeps a unary symbol's table as
# one row, a ternary one's as rows under two-label heads, and applies a
# constant in the first pass only.
ARITY_ALGEBRAS = {
    "unary": z5_successor,
    "ternary-malcev": z3_malcev,
    "ternary-median": chain3_median,
    "constants-only": constants_only,
    "mixed-arities": mixed_arities,
}


def assert_same_free(got, want):
    assert got.alg == want.alg
    assert got.index == want.index
    assert got.tuples == want.tuples
    assert got.reprs == want.reprs
    assert got.gens == want.gens
    assert list(got.gens) == list(want.gens)


FREE_CASES = [
    *[(f"SL-{k}", [semilattice2(SIG_F)], "abcde"[:k]) for k in range(1, 6)],
    *[(f"Z2-{k}", [z2_xor()], "xyz"[:k]) for k in range(1, 4)],
    *[(f"Z3-{k}", [z3_add()], "xy"[:k]) for k in range(1, 3)],
    ("left-zero-3", [left_zero(3)], "xyz"),
    ("mixed", [semilattice2(SIG_F), z2_xor(), z3_add()], "xy"),
    ("constants-no-variables", [mul3_with_unit()], ""),
    ("constants-and-variables", [mul3_with_unit()], "x"),
    ("one-element", [algebra(SIG_F, 1, {"f": [0]})], "xyz"),
    *[(f"unary-{k}", [z5_successor()], "xyz"[:k]) for k in range(1, 4)],
    *[(f"ternary-malcev-{k}", [z3_malcev()], "xyz"[:k]) for k in range(1, 4)],
    *[(f"ternary-median-{k}", [chain3_median()], "xyz"[:k]) for k in range(1, 4)],
    *[(f"constants-only-{k}", [constants_only()], "xyz"[:k]) for k in range(4)],
    *[(f"mixed-arities-{k}", [mixed_arities()], "x"[:k]) for k in range(2)],
    # Either side of the byte-lane fit rule: the lanes need sum |A| <= 256
    # and sum |A|^r <= 256 for each arity r; past it the tuple path runs.
    ("lanes-Z16-1", [z_add(16)], "x"),  # sum n^2 = 256
    ("lanes-Z11+Z11-1", [z_add(11), z_add(11)], "x"),  # 242
    ("lanes-median6-2", [chain_median(6)], "xy"),  # sum n^3 = 216
    ("lanes-median6-3", [chain_median(6)], "xyz"),
    ("lanes-Z2+Z2-2", [z2_xor(), z2_xor()], "xy"),
    ("lanes-pool-2", [z2_xor(), z3_add(), z4_add(), semilattice2(SIG_F)], "xy"),
    ("tuples-Z17-1", [z_add(17)], "x"),  # 289
    ("tuples-Z12+Z11-1", [z_add(12), z_add(11)], "x"),  # 265
    ("tuples-median7-2", [chain_median(7)], "xy"),  # 343
]


@pytest.mark.parametrize("K, variables", [c[1:] for c in FREE_CASES], ids=[c[0] for c in FREE_CASES])
def test_build_free_matches_the_pass_oracle(K, variables):
    assert_same_free(build_free(K, list(variables)), build_free_passes(K, list(variables)))


PATH_CASES = [c for c in FREE_CASES if c[0].startswith(("lanes-", "tuples-"))]


@pytest.mark.parametrize(
    "path, K", [(c[0].split("-")[0], c[1]) for c in PATH_CASES], ids=[c[0] for c in PATH_CASES]
)
def test_build_free_takes_the_path_its_case_names(path, K):
    assert (ualg.core.lane_plan(K, K[0].sig) is not None) == (path == "lanes")


def test_build_free_empty_class_matches_the_pass_oracle():
    assert_same_free(
        build_free([], ["x", "y"], sig=SIG_F), build_free_passes([], ["x", "y"], sig=SIG_F)
    )


def _error(fn):
    try:
        fn()
    except CapExceededError as e:
        return str(e)
    return None


@pytest.mark.parametrize("K, variables", [
    ([semilattice2(SIG_F)], "abc"),
    ([z2_xor(), semilattice2(SIG_F)], "xy"),
    ([algebra(SIG_F, 1, {"f": [0]})], "xyz"),
])
def test_build_free_caps_trip_where_the_oracle_trips(K, variables):
    free = build_free(K, list(variables))
    width = len(free.index)

    def both(caps):
        got = _error(lambda: build_free(K, list(variables), caps=caps))
        assert got == _error(lambda: build_free_passes(K, list(variables), caps=caps))
        return got

    for c in range(1, free.alg.size + 2):
        assert (both(Caps(carrier=c)) is not None) == (c < free.alg.size)
    for c in range(width * len(variables) - 1, width * (free.alg.size + 1) + 1):
        assert (both(Caps(cells=c)) is not None) == (c < width * max(free.alg.size, len(variables)))


def sl_cube():
    return product([semilattice2(SIG_F)] * 3).alg


def z2_times_z3():
    return product([z2_xor(), z3_add()]).alg


def with_constant():
    return product([mul3_with_unit(), mul3_with_unit()]).alg


@pytest.mark.parametrize("alg", [sl_cube(), z2_times_z3(), with_constant()], ids=["SL^3", "Z2xZ3", "M3^2"])
def test_subalgebra_generate_matches_the_pass_oracle_on_every_subset(alg):
    for r in range(alg.size + 1):
        for gens in itertools.combinations(range(alg.size), r):
            if not gens and not alg.sig.constants():
                with pytest.raises(EmptyCarrierError):
                    subalgebra_generate(alg, gens)
                continue
            sub, inc = subalgebra_generate(alg, gens)
            want_sub, want_inc = subalgebra_generate_passes(alg, gens)
            assert sub == want_sub
            assert inc.image == want_inc.image


def test_hom_image_matches_the_pass_oracle_on_every_hom():
    for src, dst in itertools.product(SAMPLES, repeat=2):
        for m in find_homs(src, dst):
            img, onto = hom_image(src, m)
            want_img, want_onto = hom_image_passes(src, m)
            assert img == want_img
            assert onto.image == want_onto.image


def rowwise(apply):
    """close's row contract over a per-tuple apply(symbol, args): one value
    per last, a constant's row being its one cell."""

    def row(name, prefix, lasts):
        if not lasts:
            return [apply(name, ())]
        return [apply(name, (*prefix, last)) for last in lasts]

    return row


def lookup_in(alg):
    return rowwise(lambda name, args: apply_op(alg, name, args))


def test_close_keeps_discovery_order_origins_and_tables():
    alg = with_constant()
    sig = alg.sig
    for gens in [(), (4,), (2, 7), (8, 0, 8)]:
        elements, origins, tables = close(sig, gens, lookup_in(alg))
        assert elements == closure_list(alg, gens)
        for e, origin in enumerate(origins):
            if e < len(dict.fromkeys(gens)):
                assert origin is None
                continue
            symbol, args = origin
            assert all(a < e for a in args)
            assert apply_op(alg, symbol, [elements[a] for a in args]) == elements[e]
        for (name, arity), table in zip(sig.ops, tables):
            assert table == tuple(
                elements.index(apply_op(alg, name, [elements[a] for a in args]))
                for args in itertools.product(range(len(elements)), repeat=arity)
            )


def test_close_admit_sees_every_count_and_can_stop():
    alg = z2_times_z3()
    seen = []
    close(alg.sig, [1], lookup_in(alg), seen.append)
    assert seen == list(range(1, len(seen) + 1))

    def stop(count):
        if count > 2:
            raise CapExceededError("stop")

    with pytest.raises(CapExceededError, match="stop"):
        close(alg.sig, [1], lookup_in(alg), stop)


def test_close_labels_a_value_repeated_within_its_row_once():
    # g's one row over the seeds 0, 1 finds 2 at both cells: the second
    # cell must find the label the first one gave, not add 2 again
    alg = algebra(SIG_G, 3, {"g": [2, 2, 2]})
    rows = {
        "per tuple": lookup_in(alg),
        "int tuples": ualg.closure._tuple_pointwise([alg], alg.sig, [0]),
    }
    for name, apply in rows.items():
        seeds = [0, 1] if name == "per tuple" else [(0,), (1,)]
        elements, origins, tables = close(alg.sig, seeds, apply)
        assert len(elements) == 3, name
        assert origins == [None, None, ("g", (0,))], name
        assert tables == ((2, 2, 2),), name
    elements, origins, tables = generate([alg], [0, 0], [(0, 1), (1, 0)], alg.sig)  # on byte lanes
    assert elements == [(0, 1), (1, 0), (2, 2)]
    assert origins == [None, None, ("g", (0,))]
    assert tables == ((2, 2, 2),)


PRODUCT_POOLS = [SAMPLES, [mul3_with_unit(), semilattice2_with_top()]]


@pytest.mark.parametrize("pool", PRODUCT_POOLS, ids=["f", "f-e"])
@pytest.mark.parametrize("count", [2, 3])
def test_product_matches_the_cellwise_oracle(pool, count):
    for factors in itertools.product(pool, repeat=count):
        got, want = product(list(factors)), product_cellwise(list(factors))
        assert got.alg == want.alg
        assert got.sizes == want.sizes


# Products by shape, each a fold of two-factor outer sums: the factor sizes
# (a 1 is a one-element factor, which the fold scales by 1 and tiles once)
# and, past one binary symbol, the signature.
PRODUCT_CASES = [
    ("16x16", [z_add(16), z_add(16)]),
    ("17x16", [z_add(17), z_add(16)]),
    ("17", [z_add(17)]),
    ("3x1x2", [z3_add(), z_add(1), z2_xor()]),
    ("1x4x1", [z_add(1), z4_add(), z_add(1)]),
    ("unary-5x3", [z5_successor(), z_successor(3)]),
    ("unary-5x1x3", [z5_successor(), z_successor(1), z_successor(3)]),
    ("ternary-3x3", [z3_malcev(), chain3_median()]),
    ("ternary-7", [chain_median(7)]),
    ("ternary-3x1x2", [z3_malcev(), chain_median(1), chain_median(2)]),
    ("constants-3x2", [constants_only(), constants_only(2)]),
    ("constants-300", [constants_only(300)]),
    ("constants-3x1x2", [constants_only(), constants_only(1), constants_only(2)]),
    ("mixed-4x4", [mixed_arities(), mixed_arities()]),
    ("mixed-2x1x3", [mixed_arities(2), mixed_arities(1), mixed_arities(3)]),
]


@pytest.mark.parametrize("factors", [c[1] for c in PRODUCT_CASES], ids=[c[0] for c in PRODUCT_CASES])
def test_product_matches_the_cellwise_oracle_by_shape(factors):
    assert product(factors) == product_cellwise(factors)


@pytest.mark.parametrize("factors", [c[1] for c in PRODUCT_CASES], ids=[c[0] for c in PRODUCT_CASES])
def test_product_is_built_unvalidated_and_equals_a_validated_rebuild(factors, monkeypatch):
    """product builds its algebra through FiniteAlgebra._trusted, with no
    validation; it equals the algebra validating its tables builds, down to
    the operation index and the size of the instance dict."""
    validated = []
    real = FiniteAlgebra.__post_init__
    monkeypatch.setattr(FiniteAlgebra, "__post_init__", lambda self: validated.append(self) or real(self))
    got = product(factors).alg
    assert validated == []
    want = FiniteAlgebra(got.sig, got.size, got.tables)
    assert validated == [want]
    assert got == want and got._ops == want._ops
    assert sys.getsizeof(vars(got)) == sys.getsizeof(vars(want))


@pytest.mark.parametrize("factors", [c[1] for c in PRODUCT_CASES], ids=[c[0] for c in PRODUCT_CASES])
def test_product_reads_no_lane_plan(factors):
    fresh = [FiniteAlgebra(f.sig, f.size, f.tables) for f in factors]
    product(fresh)
    assert all("_lanes" not in f.__dict__ for f in fresh)


@pytest.mark.parametrize("factors", [[z4_add(), z3_add()], [mul3_with_unit()] * 3])
def test_product_caps_trip_where_the_oracle_trips(factors):
    n = product(factors).alg.size
    cells = sum(n**arity for _, arity in factors[0].sig.ops)
    for size_cap, cells_cap in itertools.product((n - 1, n), (cells - 1, cells)):
        got = _error(lambda: product(factors, Caps(carrier=size_cap, cells=cells_cap)))
        want = _error(lambda: product_cellwise(factors, size_cap=size_cap, cells_cap=cells_cap))
        assert got == want
        assert (got is None) == (size_cap == n and cells_cap == cells)


@pytest.mark.parametrize("make", ARITY_ALGEBRAS.values(), ids=ARITY_ALGEBRAS.keys())
def test_subalgebra_generate_beyond_binary_matches_the_pass_oracle(make):
    factor = make()
    square = product([factor, factor]).alg
    every_subset = itertools.chain.from_iterable(
        itertools.combinations(range(factor.size), r) for r in range(1, factor.size + 1)
    )
    for alg, gen_sets in [(factor, every_subset), (square, itertools.combinations(range(square.size), 2))]:
        for gens in gen_sets:
            sub, inc = subalgebra_generate(alg, gens)
            want_sub, want_inc = subalgebra_generate_passes(alg, gens)
            assert sub == want_sub
            assert inc.image == want_inc.image


# Either side of the byte-lane fit rule, which counts only the members the
# coordinates use: the untouched Z17 below keeps its case on the lanes.
GENERATE_CASES = [
    ("lanes-Z2xZ3xZ3", [z2_xor(), z3_add()], (0, 1, 1)),
    ("lanes-SL^3", [semilattice2(SIG_F)], (0, 0, 0)),
    ("lanes-unary", [z5_successor(), z_successor(3)], (0, 1, 0)),
    ("lanes-ternary", [z3_malcev(), chain3_median()], (1, 0)),
    ("lanes-constants", [constants_only(), constants_only(2)], (0, 1)),
    ("lanes-constants^2", [constants_only()], (0, 0)),
    ("lanes-mixed", [mixed_arities()], (0, 0)),
    ("lanes-unused-Z17", [z_add(17), z2_xor(), z3_add()], (2, 1)),
    ("tuples-Z17^2", [z_add(17)], (0, 0)),  # 17^2 > 256
    ("tuples-ternary-median7", [chain_median(7)], (0,)),  # 7^3 > 256
    ("tuples-constants-300", [constants_only(300)], (0,)),
    ("tuples-mixed-7", [mixed_arities(7)], (0, 0)),
]


@pytest.mark.parametrize(
    "path, K, members", [(c[0].split("-")[0], *c[1:]) for c in GENERATE_CASES], ids=[c[0] for c in GENERATE_CASES]
)
def test_generate_takes_the_path_its_case_names_and_matches_the_materialized_oracle(path, K, members, monkeypatch):
    tuple_closures = []
    real = ualg.closure._tuple_pointwise
    monkeypatch.setattr(ualg.closure, "_tuple_pointwise", lambda *args: tuple_closures.append(args) or real(*args))
    prod = product_cellwise([K[k] for k in members]).alg
    coords = list(itertools.product(*[range(K[k].size) for k in members]))  # flat index order
    flat = {tup: i for i, tup in enumerate(coords)}
    pairs = list(itertools.combinations(range(prod.size), 2))
    # fewer pairs on larger products, where the oracle's closure is slower
    for gens in [(), *itertools.combinations(range(prod.size), 1), *pairs[:: len(pairs) * prod.size // 600 + 1]]:
        if not gens and not K[0].sig.constants():
            with pytest.raises(EmptyCarrierError):
                generate(K, members, [], K[0].sig)
            continue
        elements, _, tables = generate(K, members, [coords[g] for g in gens], K[0].sig)
        want_sub, want_inc = subalgebra_generate_passes(prod, gens)
        assert [flat[e] for e in elements] == list(want_inc.image)
        assert tables == want_sub.tables
    assert bool(tuple_closures) == (path == "tuples")


def _naive_last_pass(sig, elements, apply):
    label = {value: i for i, value in enumerate(elements)}
    return tuple(
        tuple(
            label[apply(name, tuple([elements[a] for a in args]))]
            for args in itertools.product(range(len(elements)), repeat=arity)
        )
        for name, arity in sig.ops
    )


@pytest.mark.parametrize("k", range(1, 6))
def test_close_tables_equal_the_naive_last_pass_on_free_semilattices(k):
    free = build_free([semilattice2(SIG_F)], list("abcde"[:k]))
    sl = semilattice2(SIG_F)

    def pointwise(name, args):
        return tuple(apply_op(sl, name, column) for column in zip(*args))

    seeds = [free.tuples[free.gens[v]] for v in free.variables]
    elements, _, tables = close(SIG_F, seeds, rowwise(pointwise))
    assert elements == list(free.tuples)
    assert tables == _naive_last_pass(SIG_F, elements, pointwise) == free.alg.tables


@pytest.mark.parametrize("alg", [z2_times_z3(), mixed_arities()], ids=["Z2xZ3", "mixed-arities"])
def test_close_tables_equal_the_naive_last_pass_on_every_subset(alg):
    def lookup(name, args):
        return apply_op(alg, name, args)

    for r in range(alg.size + 1):
        for gens in itertools.combinations(range(alg.size), r):
            elements, _, tables = close(alg.sig, gens, rowwise(lookup))
            assert elements == closure_list(alg, gens)
            assert tables == _naive_last_pass(alg.sig, elements, lookup)


@pytest.mark.parametrize("alg, gens", [
    (with_constant(), (4,)),
    (z2_times_z3(), (1,)),
    (mixed_arities(), (1,)),
    (product([mixed_arities(), mixed_arities()]).alg, (2, 7)),
])
def test_close_applies_each_tuple_once(alg, gens):
    calls = []
    lookup = lookup_in(alg)

    def row(name, prefix, lasts):  # records every tuple a row hands over
        calls.extend([(name, (*prefix, last)) for last in lasts] if lasts else [(name, ())])
        return lookup(name, prefix, lasts)

    elements, _, _ = close(alg.sig, gens, row)
    assert sorted(calls) == sorted(
        (name, args)
        for name, arity in alg.sig.ops
        for args in itertools.product(elements, repeat=arity)
    )


# The lane row against the kernel's column form: plans over one member and
# over several shifted apart, arities 0-3, one-byte and wide lanes.
ROW_PLANS = {
    "constants": ([constants_only()], [0] * 7),
    "unary": ([z5_successor()], [0] * 30),
    "binary-width-1": ([z3_add()], [0]),
    "binary-wide": ([z3_add()], [0] * 45),
    "binary-shifted-width-1": ([z2_xor(), z3_add(), z4_add()], [2]),
    "binary-shifted-wide": ([z2_xor(), z3_add(), z4_add()], [0, 1, 2] * 15 + [2, 1]),
    "ternary": ([z3_malcev()], [0] * 27),
    "ternary-shifted": ([z3_malcev(), chain3_median()], [1, 0] * 13),
    "mixed-arities": ([mixed_arities()], [0] * 16),
    "mixed-arities-shifted": ([mixed_arities(3), mixed_arities(4)], [1, 0, 1] * 6),
}


@pytest.mark.parametrize("K, members", ROW_PLANS.values(), ids=ROW_PLANS.keys())
def test_lane_rows_match_the_kernel_on_the_repeated_prefix(K, members):
    rng = random.Random(len(members))
    plan = ualg.core.lane_plan(K, K[0].sig)
    apply = ualg.core.lane_pointwise(plan, bytes(members))
    offsets = list(itertools.accumulate([alg.size for alg in K], initial=0))
    width = len(members)

    def lane():  # one element: each coordinate a value of its member, shifted by its offset
        return bytes([offsets[k] + rng.randrange(K[k].size) for k in members])

    row = ualg.closure._lane_rows(apply, width)
    full = list(dict.fromkeys(lane() for _ in range(60)))  # a pass's lasts: every element found so far
    passes = [[lane()], [lane(), lane()], full[:2], full]  # m = 1, 2, 2 again (another list) and a full pass
    for name, arity in K[0].sig.ops:
        if arity == 0:  # m = 0: a constant's one cell
            assert row(name, (), ()) == [apply(name, ())] == [bytes(members).translate(plan[name][1])]
            continue
        for _ in range(3):  # the rows of a pass share their lasts: the same list again
            for lasts in passes:
                prefix = tuple([lane() for _ in range(arity - 1)])
                m = len(lasts)
                whole = apply(name, [x * m for x in prefix] + [b"".join(lasts)])
                assert list(row(name, prefix, lasts)) == [whole[i : i + width] for i in range(0, m * width, width)]
                assert list(row(name, prefix, lasts)) == [apply(name, (*prefix, last)) for last in lasts]


@pytest.mark.parametrize("K, variables", [
    ([semilattice2(SIG_F)], "abcd"),
    ([z2_xor(), z3_add(), semilattice2(SIG_F)], "xy"),
    ([z3_malcev()], "xyz"),  # ternary heads interleave old rows and new ones
    ([mixed_arities()], "xy"),
    ([mixed_arities(3), mixed_arities(4)], "xy"),
], ids=["SL-4", "Z2+Z3+SL-2", "malcev-3", "mixed-arities-2", "mixed-arities-shifted-2"])
def test_each_pass_joins_each_lasts_list_once(K, variables, monkeypatch):
    seen, joined = {}, []  # id -> each lasts list a row reads, kept alive so ids stay unique
    real_rows, real_joined = ualg.closure._lane_rows, ualg.closure._joined

    def rows(apply, width):
        row = real_rows(apply, width)

        def recorded(name, prefix, lasts):
            if len(lasts) > 1:
                seen[id(lasts)] = lasts
            return row(name, prefix, lasts)

        return recorded

    monkeypatch.setattr(ualg.closure, "_lane_rows", rows)
    monkeypatch.setattr(ualg.closure, "_joined", lambda lasts: joined.append(lasts) or real_joined(lasts))
    assert_same_free(build_free(K, list(variables)), build_free_passes(K, list(variables)))
    assert sorted(map(id, joined)) == sorted(seen)  # each list joined once, and only lists rows read
    # one list per (start, base): no two read lists hold the same lasts
    assert len({tuple(lasts) for lasts in seen.values()}) == len(seen) > 1


HOM_PAIRS = {
    "binary": (z3_add(), product([z3_add(), z2_xor()]).alg),
    "unary": (z5_successor(), algebra(SIG_G, 2, {"g": [0, 1]})),
    "ternary": (z3_malcev(), chain3_median()),
    "constant": (mul3_with_unit(), algebra(SIG_FE, 2, {"f": [0, 0, 0, 1], "e": [1]})),
    "constants-only": (constants_only(), algebra(SIG_CONST, 2, {"c": [1], "d": [1]})),
    "mixed": (mixed_arities(), mixed_arities()),
}


@pytest.mark.parametrize("pair", HOM_PAIRS.values(), ids=HOM_PAIRS.keys())
def test_hom_violation_matches_the_apply_op_oracle(pair):
    homs = 0
    for src, dst in itertools.permutations(pair):
        maps = itertools.product(range(dst.size), repeat=src.size)
        for image in itertools.islice(maps, 2000):
            m = CarrierMap(src, dst, image)
            witness = hom_violation(m)
            assert witness == hom_violation_apply_op(m)
            homs += witness is None
    assert homs > 0


def _corrupt_table(table, bad, size):
    """table with its first entry out of range, or one entry short or long."""
    if bad == "short":
        return table[:-1]
    if bad == "long":
        return (*table, 0)
    return (size if bad == "size" else -1, *table[1:])


CORRUPT_CASES = {
    "binary": z3_add,
    "unary": z5_successor,
    "ternary": z3_malcev,
    "constant": mul3_with_unit,
    "constants-only": constants_only,
}


# Every construction reads tables raw (product, close, hom search, free
# algebras), so the one guard is FiniteAlgebra itself: an ill-formed table
# never reaches them.
@pytest.mark.parametrize("make", CORRUPT_CASES.values(), ids=CORRUPT_CASES.keys())
@pytest.mark.parametrize("bad", ["size", "negative", "short", "long"])
def test_out_of_range_entries_raise(make, bad):
    alg = make()
    first, *rest = alg.tables
    tables = dict(zip(alg.sig.symbols, [_corrupt_table(first, bad, alg.size), *rest]))
    with pytest.raises(OutOfRangeError) as info:
        algebra(alg.sig, alg.size, tables)
    (violation,) = info.value.violations
    assert violation.symbol == alg.sig.symbols[0]
    assert violation.index == (0 if bad in ("size", "negative") else None)
    # the caps trip first, at the same point
    n = alg.size**2
    with pytest.raises(
        CapExceededError,
        match=f"^product carrier: {n} exceeds cap carrier={n - 1}; raise it with UALG_CAPS=carrier=N$",
    ):
        product([alg, alg], Caps(carrier=n - 1))


def _hom_searches(src, dst):
    identity = CarrierMap(src, dst, tuple(range(src.size)))
    return (
        find_homs(src, dst),
        find_homs(src, dst, injective=True, fixed={0: 0}),
        classify(identity),
        hom_violation(identity),
        find_isomorphism(src, dst),
        check_leq(src, dst),
    )


# The hom search reads both tables raw: the source's entries index the
# image, the target's are compared with its values.  A corrupt table on
# either side stops the search where that side is built.
@pytest.mark.parametrize("make", CORRUPT_CASES.values(), ids=CORRUPT_CASES.keys())
@pytest.mark.parametrize("bad", ["size", "negative"])
@pytest.mark.parametrize("side", ["source", "target"])
def test_hom_search_range_checks_both_tables(make, bad, side):
    alg = make()
    first, *rest = alg.tables
    good = dict(zip(alg.sig.symbols, alg.tables))
    corrupt = dict(zip(alg.sig.symbols, [_corrupt_table(first, bad, alg.size), *rest]))
    src_tables, dst_tables = (corrupt, good) if side == "source" else (good, corrupt)
    with pytest.raises(OutOfRangeError) as info:
        _hom_searches(algebra(alg.sig, alg.size, src_tables), algebra(alg.sig, alg.size, dst_tables))
    (violation,) = info.value.violations
    assert (violation.symbol, violation.index) == (alg.sig.symbols[0], 0)
    # the well-formed pair reaches every search, and the identity passes it
    homs, pinned, identity, witness, iso, leq = _hom_searches(alg, alg)
    assert tuple(range(alg.size)) in {h.image for h in homs}
    assert tuple(range(alg.size)) in {h.image for h in pinned}
    assert identity.is_hom and witness is None
    assert iso is not None and leq is not None


def _cyclic_garbage(fn):
    fn()  # warm up module-level caches
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


X, Y = Var("x"), Var("y")


def f(a, b):
    return App("f", (a, b))


COMM = Equation(f(X, Y), f(Y, X))
GC_CASES = {
    "find_homs": lambda: find_homs(z2_xor(), z2_xor()),
    "find_homs-surjective": lambda: find_homs(z4_add(), z2_xor(), surjective=True),
    "build_free": lambda: build_free([semilattice2(SIG_F), z2_xor()], ["x", "y"]),
    "subalgebra_generate": lambda: subalgebra_generate(z2_times_z3(), [1]),
    # hom images are built as quotients by the kernel
    "hom_image": lambda: verify_invariance(z4_add(), COMM, HomImageWitness(find_homs(z4_add(), z2_xor())[1])),
    "search_proof-found": lambda: search_proof(SIG_F, [COMM], Equation(f(f(X, Y), X), f(X, f(Y, X)))),
    "search_proof-refuted": lambda: search_proof(SIG_F, [COMM], Equation(f(X, Y), X), SearchLimits(max_depth=3)),
    # the class checks read their derived algebras and pools in batches
    "eqcl_to_var_check": lambda: eqcl_to_var_check([COMM], 2),
    "soundness_audit": lambda: soundness_audit(SIG_F, [COMM], [Hyp(0)], [z2_xor(), semilattice2(SIG_F), z3_add()]),
}


@pytest.mark.parametrize("name", GC_CASES)
def test_leaves_no_cyclic_garbage(name):
    assert _cyclic_garbage(GC_CASES[name]) == 0


def test_the_refuted_gc_case_takes_the_countermodel_path():
    assert GC_CASES["search_proof-refuted"]().countermodel is not None
