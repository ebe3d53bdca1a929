"""The term-column kernel and the paths built on it, each against the
pointwise or pair-by-pair oracle it replaced (see oracles.py)."""

import dataclasses
import functools
import io
import itertools
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ualg.birkhoff
import ualg.cli
import ualg.closure
import ualg.core
import ualg.entail
import ualg.eqlogic
import ualg.terms
from ualg import (
    App,
    Equation,
    Var,
    algebra,
    build_free,
    enumerate_terms,
    eqcl_to_var_check,
    evaluate,
    infer_signature,
    mod_check,
    nat_epi,
    search_proof,
    signature,
    soundness_audit,
    theory_upto,
    universal_map,
)
from ualg.closure import generate
from ualg.entail import Hyp, Refl
from ualg.core import ArityMismatchError, CapExceededError, Caps, OutOfRangeError, UalgError, UnknownSymbolError, lane_plan
from ualg.eqlogic import SatResult, theory_partition
from ualg.fileio import parse_algebra_file
from ualg.terms import (
    UnboundVariableError,
    all_environments,
    environment_columns,
    term_columns,
)

from oracles import (
    eqcl_to_var_check_peralgebra,
    eqcl_to_var_check_permodel,
    lane_plan_uncached,
    models_bruteforce,
    models_theory_pairwise,
    nat_epi_pointwise,
    product_cellwise,
    soundness_audit_peralgebra,
    subalgebra_generate_passes,
    term_columns_lists,
    theory_upto_pairwise,
    universal_map_pointwise,
)
from samples import (
    EASY_LAW_SETS,
    EASY_NON_CONSEQUENCES,
    SIG_F,
    SIG_FE,
    all_binary_size2,
    chain_median,
    constants_only,
    easy_laws,
    mixed_arities,
    semilattice2,
    semilattice2_with_top,
    z2_xor,
    z3_add,
    z3_malcev,
    z4_add,
    z_add,
    z_successor,
)

ROOT = Path(__file__).resolve().parent.parent
DEMO_DATA = sorted((ROOT / "demos" / "data").glob("*.alg"))
X, Y = Var("x"), Var("y")

SIG_MIXED = signature(("c", 0), ("g", 1), ("f", 2), ("t", 3))
SIG_FG = signature(("f", 2), ("g", 1))


def random_algebra(rng, sig, size):
    return algebra(
        sig, size, {name: [rng.randrange(size) for _ in range(size**arity)] for name, arity in sig.ops}
    )


def assert_columns_match_evaluate(alg, terms, variables):
    columns = term_columns(alg, terms, environment_columns(variables, alg.size))
    envs = list(all_environments(variables, alg.size))
    assert len(columns) == len(terms)
    for t, col in zip(terms, columns):
        assert list(col) == [evaluate(alg, t, rho) for rho in envs]


@pytest.mark.parametrize("size", [1, 2, 3])
def test_columns_match_evaluate_over_arities_0_to_3(size):
    rng = random.Random(size)
    terms = enumerate_terms(SIG_MIXED, ["x"], 2)
    assert len(terms) > 4000
    for _ in range(2):
        assert_columns_match_evaluate(random_algebra(rng, SIG_MIXED, size), terms, ["x"])


def test_columns_match_evaluate_at_depth_3():
    rng = random.Random(7)
    terms = enumerate_terms(SIG_FG, ["x", "y"], 3)
    for size in (2, 3):
        assert_columns_match_evaluate(random_algebra(rng, SIG_FG, size), terms, ["x", "y"])
    # variables the terms do not use only widen the columns
    shallow = enumerate_terms(SIG_FG, ["x", "y"], 1)
    assert_columns_match_evaluate(random_algebra(rng, SIG_FG, 2), shallow, ["x", "y", "z"])


def test_columns_without_variables_have_one_environment():
    mul3 = algebra(SIG_FE, 3, {"f": [(a * b) % 3 for a in range(3) for b in range(3)], "e": [2]})
    terms = enumerate_terms(SIG_FE, [], 2)
    columns = term_columns(mul3, terms, {})
    assert [list(c) for c in columns] == [[evaluate(mul3, t, {})] for t in terms]


def test_columns_under_one_given_environment():
    alg = z3_add()
    terms = enumerate_terms(SIG_F, ["x", "y"], 2)
    rho = {"x": 2, "y": 1}
    columns = term_columns(alg, terms, {name: [value] for name, value in rho.items()})
    assert [col[0] for col in columns] == [evaluate(alg, t, rho) for t in terms]


@pytest.mark.parametrize(
    "bad, error",
    [
        (App("h", (X,)), UnknownSymbolError),
        (App("f", (X,)), ArityMismatchError),
        (App("f", (X, Var("z"))), UnboundVariableError),
        # the first fault of a pre-order walk wins
        (App("f", (Var("z"), App("h", ()))), UnboundVariableError),
        (App("f", (App("f", (X,)), Var("z"))), ArityMismatchError),
    ],
)
def test_columns_raise_what_evaluate_raises(bad, error):
    alg = z2_xor()
    with pytest.raises(error) as from_evaluate:
        evaluate(alg, bad, {"x": 0, "y": 0})
    good = App("f", (X, Y))
    with pytest.raises(error) as from_kernel:
        term_columns(alg, [good, bad, App("g", ())], environment_columns(["x", "y"], 2))
    assert str(from_kernel.value) == str(from_evaluate.value)


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("bad", ["size", "negative"])
def test_columns_match_evaluate_over_out_of_range_entries(arity, size, bad):
    """An entry of size, or of -1, in a table is refused when the algebra is
    built, so neither the kernel nor the walk ever indexes by one; on the
    same random tables made valid, the kernel gives what the walk gives."""
    sig = signature(("t", arity))
    variables = ["x", "y"] if arity < 3 else ["x"]
    terms = enumerate_terms(sig, variables, 2)
    envs = list(all_environments(variables, size))
    rng = random.Random(arity * 10 + size)
    for at in rng.sample(range(size**arity), min(4, size**arity)):
        table = [rng.randrange(size) for _ in range(size**arity)]
        entry, table[at] = table[at], size if bad == "size" else -1
        with pytest.raises(OutOfRangeError) as info:
            algebra(sig, size, {"t": table})
        assert [v.index for v in info.value.violations] == [at]
        table[at] = entry
        alg = algebra(sig, size, {"t": table})
        columns = term_columns(alg, terms, environment_columns(variables, size))
        for t, col in zip(terms, columns):
            assert list(col) == [evaluate(alg, t, rho) for rho in envs], (table, str(t))


# Either side of the byte-lane fit rule for one algebra: its size, and its
# size to the power of each arity, at most 256; past it the list kernel runs.
COLUMN_CASES = [
    ("lanes-unary", z_successor(5), "xy", 3),
    ("lists-unary-257", z_successor(257), "x", 3),
    ("lanes-ternary-malcev", z3_malcev(), "xy", 2),
    ("lanes-ternary-median6", chain_median(6), "xy", 2),  # 6^3 = 216
    ("lists-ternary-median7", chain_median(7), "xy", 2),  # 7^3 = 343
    ("lanes-constants", constants_only(), "x", 1),
    ("lanes-constants-no-variables", constants_only(), "", 1),
    ("lists-constants-300", constants_only(300), "x", 1),
    ("lanes-mixed", mixed_arities(), "x", 2),
    ("lanes-binary-16", z_add(16), "xy", 2),  # 16^2 = 256
    ("lists-binary-17", z_add(17), "xy", 2),  # 17^2 = 289
]


@pytest.mark.parametrize(
    "path, alg, variables, depth", [(c[0].split("-")[0], *c[1:]) for c in COLUMN_CASES], ids=[c[0] for c in COLUMN_CASES]
)
def test_columns_match_the_list_kernel_oracle_either_side_of_the_fit_rule(path, alg, variables, depth):
    terms = enumerate_terms(alg.sig, list(variables), depth)
    columns = environment_columns(list(variables), alg.size)
    got = term_columns(alg, terms, columns)
    assert {type(c) for c in got} == {bytes if path == "lanes" else list}
    assert [list(c) for c in got] == term_columns_lists(alg, terms, columns)


def sum_mod(arity, size):
    """(x1 + .. + xk) mod size for one k-ary symbol h, beside a successor g."""
    sig = signature(("h", arity), ("g", 1))
    h = [sum(args) % size for args in itertools.product(range(size), repeat=arity)]
    return algebra(sig, size, {"h": h, "g": [(a + 1) % size for a in range(size)]})


# Past arity 8 only one-element members fit in byte lanes (2^9 > 256), and
# their plan would be one step table per arity: lane_plan declines them.
@pytest.mark.parametrize("arity, size, fits", [(8, 1, True), (8, 2, True), (9, 1, False)])
def test_lane_plan_declines_arities_past_8_and_both_paths_match_the_oracles(arity, size, fits):
    alg = sum_mod(arity, size)
    assert (lane_plan([alg], alg.sig) is not None) == fits
    assert (lane_plan([alg, alg], alg.sig) is not None) == (fits and size == 1)
    terms = enumerate_terms(alg.sig, ["x", "y"], 1)
    columns = environment_columns(["x", "y"], size)
    got = term_columns(alg, terms, columns)
    assert {type(c) for c in got} == {bytes if fits else list}
    assert [list(c) for c in got] == term_columns_lists(alg, terms, columns)
    for members in ([0], [0, 0]):
        prod = product_cellwise([alg] * len(members)).alg
        coords = list(itertools.product(range(size), repeat=len(members)))
        for g in range(prod.size):
            elements, _, tables = generate([alg], members, [coords[g]], alg.sig)
            want_sub, want_inc = subalgebra_generate_passes(prod, [g])
            assert [coords.index(e) for e in elements] == list(want_inc.image)
            assert tables == want_sub.tables


# (arities of the signature, member sizes): classes of 1-4 members of these
# sizes fit the byte lanes or not, by the size sum (200 + 57 > 256), the sum
# of squares or cubes, or an arity past 8
LANE_PLAN_CASES = [
    ((0,), (1, 2, 3, 9, 200, 57)),
    ((1,), (1, 2, 3, 9, 200, 57)),
    ((2,), (1, 2, 3, 9)),
    ((3,), (1, 2, 3, 5)),
    ((0, 1, 2, 3), (1, 2, 3, 5)),
    ((9,), (1, 2)),
]


@pytest.mark.parametrize("arities, sizes", LANE_PLAN_CASES, ids=["arities-" + "-".join(map(str, a)) for a, _ in LANE_PLAN_CASES])
def test_lane_plan_matches_the_uncached_plan(arities, sizes):
    """Step tables and shifts kept per shape give the plan that rebuilding
    them gives, on a first and a repeated call, and None past the fit rule.
    The kept steps are tuples, so no caller can mutate what later plans
    share."""
    rng = random.Random(len(sizes) * 10 + arities[-1])
    sig = signature(*[(f"s{r}", r) for r in arities])
    members = {n: random_algebra(rng, sig, n) for n in sizes}
    fits = set()
    for count in range(1, 5):
        for shape in itertools.product(sizes, repeat=count):
            K = [members[n] for n in shape]
            want = lane_plan_uncached(K, sig)
            fits.add(want is not None)
            for _ in range(2):
                got = lane_plan(K, sig)
                if want is None:
                    assert got is None
                    continue
                assert got == {name: (tuple(steps), final) for name, (steps, final) in want.items()}
                assert all(type(steps) is tuple for steps, _ in got.values())
    assert fits == ({False} if 9 in arities else {True, False})


THEORY_CASES = [
    ("Z2", [z2_xor()], ["x", "y"], 2),
    ("SL", [semilattice2(SIG_F)], ["x", "y"], 2),
    ("Z2+Z3 mixed sizes", [z2_xor(), z3_add()], ["x", "y"], 1),
    ("SL+Z4 mixed sizes", [semilattice2(SIG_F), z4_add()], ["x"], 3),
    ("one variable", [z3_add()], ["x"], 2),
    ("three variables", [z2_xor(), semilattice2(SIG_F)], ["x", "y", "z"], 1),
    (
        "constant",
        [algebra(SIG_FE, 3, {"f": [(a * b) % 3 for a in range(3) for b in range(3)], "e": [1]})],
        ["x"],
        2,
    ),
    (
        "constant, mixed sizes",
        [
            algebra(SIG_FE, 2, {"f": [0, 1, 1, 0], "e": [0]}),
            algebra(SIG_FE, 3, {"f": [max(a, b) for a in range(3) for b in range(3)], "e": [2]}),
        ],
        ["x", "y"],
        1,
    ),
]


@pytest.mark.parametrize("label, K, variables, depth", THEORY_CASES, ids=[c[0] for c in THEORY_CASES])
def test_theory_upto_matches_pairwise_oracle(label, K, variables, depth):
    expected = theory_upto_pairwise(K, variables, depth)
    assert theory_upto(K, variables, depth) == expected
    partition = theory_partition(K, variables, depth)
    assert partition.pair_count == len(expected)
    # classes partition the term indices, each ascending, by least member
    members = [i for cls in partition.classes for i in cls]
    assert sorted(members) == list(range(len(partition.terms)))
    assert all(cls == sorted(cls) for cls in partition.classes)
    assert [cls[0] for cls in partition.classes] == sorted(cls[0] for cls in partition.classes)


def test_theory_env_cap_is_checked_before_any_work():
    # depth 0 over three variables: no pair uses all three, so the old
    # pair-by-pair check never tripped; the cap now bounds |A|^|variables|
    with pytest.raises(
        CapExceededError,
        match=r"^environment space 2\^3: 8 exceeds cap cells=7; raise it with UALG_CAPS=cells=N$",
    ):
        theory_upto([z2_xor()], ["x", "y", "z"], 0, Caps(cells=7))
    # every member counts, not only those a failing pair happens to reach
    with pytest.raises(
        CapExceededError,
        match=r"^environment space 4\^2: 16 exceeds cap cells=10; raise it with UALG_CAPS=cells=N$",
    ):
        theory_upto([semilattice2(SIG_F), z4_add()], ["x", "y"], 1, Caps(cells=10))
    # before term enumeration, whose own cap would also trip here
    with pytest.raises(
        CapExceededError,
        match=r"^environment space 2\^2: 4 exceeds cap cells=3; raise it with UALG_CAPS=cells=N$",
    ):
        theory_upto([z2_xor()], ["x", "y"], 3, Caps(cells=3))
    # inclusive: 2 terms and 2^2 environments fit a cap of 4
    assert theory_upto([z2_xor()], ["x", "y"], 0, Caps(cells=4)) == theory_upto_pairwise(
        [z2_xor()], ["x", "y"], 0
    )


@pytest.mark.parametrize("depth", [1, 2])
def test_models_theory_witness_matches_pairwise_oracle(depth):
    K, B = [semilattice2(SIG_F)], z2_xor()
    stage = ualg.birkhoff._models_theory(K, B, depth, Caps())
    assert not stage.passed
    assert stage == models_theory_pairwise(K, B, depth)
    for K, B in (([z2_xor()], z2_xor()), ([z2_xor(), semilattice2(SIG_F)], semilattice2(SIG_F))):
        assert ualg.birkhoff._models_theory(K, B, depth, Caps()) == models_theory_pairwise(K, B, depth)


def test_free_maps_match_pointwise_oracles():
    for K, variables in (
        ([semilattice2(SIG_F)], ["v0", "v1"]),
        ([z2_xor(), semilattice2(SIG_F)], ["v0", "v1"]),
        ([z3_add()], ["v0"]),
    ):
        free = build_free(K, variables)
        for t in enumerate_terms(SIG_F, variables, 2):
            assert nat_epi(free, t) == nat_epi_pointwise(free, t)
        for B in (z2_xor(), semilattice2(SIG_F), z3_add()):
            for values in itertools.product(range(B.size), repeat=len(variables)):
                assign = dict(zip(variables, values))
                assert universal_map(free, B, assign) == universal_map_pointwise(free, B, assign)
            # a value outside B's carrier is refused as evaluate refuses it
            for bad in (B.size, 300, -1):
                assign = {name: bad for name in variables}
                with pytest.raises(OutOfRangeError) as got:
                    universal_map(free, B, assign)
                with pytest.raises(OutOfRangeError) as want:
                    universal_map_pointwise(free, B, assign)
                assert str(got.value) == str(want.value)


def test_mod_check_reports_a_class_sat_result():
    idem = Equation(App("f", (X, X)), X)
    res = mod_check(z2_xor(), [Equation(X, X), idem])
    assert res == SatResult(False, res.counterexample, 1)
    assert res.counterexample.assoc == {"x": 1}


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = ualg.cli.run_cli(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("path", DEMO_DATA, ids=[p.name for p in DEMO_DATA])
def test_cli_theory_matches_pairwise_oracle(path):
    _, named = parse_algebra_file(path.read_text(), file=str(path))
    K = [alg for _, alg in named]
    for depth, nvars in ((1, 1), (1, 3), (2, 2)):
        code, out, err = _cli(["theory", "--depth", str(depth), "--vars", str(nvars), str(path)])
        variables = [f"v{i}" for i in range(nvars)]
        expected = "".join(f"{eq}\n" for eq in theory_upto_pairwise(K, variables, depth))
        assert (code, out, err) == (0, expected, "")


def _pairwise_partition(K, variables, depth, caps):
    """The pairwise oracle's theory, read as birkhoff-demo reads a partition."""
    pairs = theory_upto_pairwise(K, variables, depth, caps.cells, caps.cells)
    return types.SimpleNamespace(pair_count=len(pairs), equations=lambda: iter(pairs))


@pytest.mark.parametrize("name", ["semilattice2.alg", "z2_xor.alg", "pool.alg"])
def test_cli_birkhoff_demo_matches_old_path(name, monkeypatch):
    argv = ["birkhoff-demo", "--vars", "2", str(ROOT / "demos" / "data" / name)]
    new = _cli(argv)
    monkeypatch.setattr(ualg.cli, "theory_partition", _pairwise_partition)
    monkeypatch.setattr(ualg.birkhoff, "_models_theory", lambda K, B, depth, caps: models_theory_pairwise(K, B, depth))
    monkeypatch.setattr(ualg.birkhoff, "universal_map", universal_map_pointwise)
    old = _cli(argv)
    assert new == old
    assert new[1].endswith("RESULT pass\n")


@pytest.mark.parametrize("laws, pool", [(laws, 2) for laws in EASY_LAW_SETS] + [(("assoc",), 3), (("lq",), 3)])
def test_easy_direction_matches_the_permodel_oracle(laws, pool):
    E = easy_laws(laws)
    got = eqcl_to_var_check(E, pool).lines()
    assert got == eqcl_to_var_check_permodel(E, pool).lines() == eqcl_to_var_check_peralgebra(E, pool).lines()


@pytest.mark.parametrize("laws", EASY_LAW_SETS)
def test_easy_direction_at_pool_3_matches_the_peralgebra_oracle(laws):
    E = easy_laws(laws)
    assert eqcl_to_var_check(E, 3).lines() == eqcl_to_var_check_peralgebra(E, 3).lines()


@pytest.mark.parametrize("laws", [("comm",), ("idem", "comm"), ("assoc",), ("leftproj",)])
def test_easy_direction_failure_witness_matches_the_permodel_oracle(laws, monkeypatch):
    """A product with one corrupted cell: the first failing product, its
    failing equation and its counterexample are the per-model path's."""
    real = ualg.birkhoff.product

    def corrupted(factors, *caps):
        prod = real(factors, *caps)
        alg = prod.alg
        if alg.size < 2:
            return prod
        table = list(alg.tables[0])
        table[1] = (table[1] + 1) % alg.size
        return dataclasses.replace(prod, alg=dataclasses.replace(alg, tables=(tuple(table),)))

    monkeypatch.setattr(ualg.birkhoff, "product", corrupted)
    E = easy_laws(laws)
    got = eqcl_to_var_check(E, 2).lines()
    assert got == eqcl_to_var_check_permodel(E, 2).lines() == eqcl_to_var_check_peralgebra(E, 2).lines()
    assert got[-1].startswith("STAGE closure FAIL product breaks equation ")


@pytest.mark.parametrize("laws", EASY_LAW_SETS)
def test_easy_direction_quotient_failure_matches_the_peralgebra_oracle(laws, monkeypatch):
    """Each quotient from the third on has one corrupted cell: the first
    failing quotient, in a batch after two that pass, is the
    one-at-a-time path's."""
    real = ualg.birkhoff.quotient
    E = easy_laws(laws)
    got = []
    for check in (eqcl_to_var_check, eqcl_to_var_check_peralgebra):
        built = itertools.count()

        def corrupted(alg, theta):
            quo, nat = real(alg, theta)
            if next(built) < 2:
                return quo, nat
            table = list(quo.tables[0])
            table[1] = (table[1] + 1) % quo.size
            return dataclasses.replace(quo, tables=(tuple(table),)), nat

        monkeypatch.setattr(ualg.birkhoff, "quotient", corrupted)
        got.append(check(E, 3).lines())
    assert got[0] == got[1]
    assert got[0][-1].startswith("STAGE closure FAIL quotient by ")


def _outcome(failures):
    """What a consumer reading failures to the end sees: the (label,
    equation index) pairs yielded, then the error raised, if any."""
    got = []
    try:
        for _, label, i in failures:
            got.append((label, i))
    except UalgError as e:
        return got, (type(e), str(e))
    return got, None


def _mod_check_each(labelled, E, caps):
    """mod_failures' oracle: one mod_check call per algebra."""
    for alg, label in labelled:
        res = mod_check(alg, E, caps)
        if not res.holds:
            yield alg, label, res.failing_index


SIG_CFGT = signature(("c", 0), ("g", 1), ("f", 2), ("t", 3))


@pytest.mark.parametrize("sig, sizes", [
    (SIG_F, (1, 2, 3, 4, 9, 16, 17)),
    (SIG_CFGT, (1, 2, 3, 6, 7)),
    (signature(("g", 1), ("c", 0)), (1, 2, 5, 30, 200)),
], ids=["binary", "arities-0-3", "unary"])
def test_mod_failures_matches_mod_check_one_algebra_at_a_time(sig, sizes):
    """Random streams of mixed sizes, either side of the lane fit rule, under
    caps that trip some environment spaces and not others: the failing
    algebras, their first failing equations and the first error are
    mod_check's, algebra by algebra."""
    rng = random.Random(len(sizes))
    variables = ["x", "y", "z"]
    terms = enumerate_terms(sig, variables, 1 if sig.ops[-1][1] == 3 else 2)
    pool = [random_algebra(rng, sig, n) for n in sizes for _ in range(3)]
    for trial in range(40):
        E = [Equation(X, X)] + [Equation(rng.choice(terms), rng.choice(terms)) for _ in range(rng.randint(0, 3))]
        rng.shuffle(E)
        stream = [(rng.choice(pool), k) for k in range(rng.randint(1, 40))]
        for caps in (Caps(), Caps(cells=rng.choice([8, 30, 300]))):
            want = _outcome(_mod_check_each(stream, E, caps))
            assert _outcome(ualg.eqlogic.mod_failures(stream, E, caps)) == want, (trial, caps)
            assert _outcome(ualg.eqlogic.mod_failures(iter(stream), E, caps)) == want


def test_mod_failures_raises_a_symbol_error_only_where_mod_check_reaches_it():
    """Equation 1 names a symbol z2's signature lacks: only an algebra that
    holds equation 0 reaches it, so a stream whose algebras all fail
    equation 0 raises nothing.  Algebras of another signature start a batch
    of their own.  Past cells 4, equation 1's 2^3 environments trip the cap
    before its symbol is read."""
    idem = Equation(App("f", (X, X)), X)
    stray = Equation(App("h", (X,)), App("f", (Y, Var("z"))))
    E = [idem, stray]
    failing = [(z2_xor(), 0), (z3_add(), 1), (z2_xor(), 2)]
    assert _outcome(ualg.eqlogic.mod_failures(failing, E)) == ([(0, 0), (1, 0), (2, 0)], None)
    for caps, error in ((Caps(), UnknownSymbolError), (Caps(cells=4), CapExceededError)):
        # the one-element algebra's 1^3 environments pass the cap: the batch reads equation 1
        for stream in (failing + [(semilattice2(SIG_F), 3), (z2_xor(), 4), (z_add(1), 5)],
                       failing + [(semilattice2_with_top(), 3)],
                       [(z_successor(3), 0)] + failing):
            want = _outcome(_mod_check_each(stream, E, caps))
            # Z3's successor has no f at all: idempotence alone raises
            assert want[1][0] is (error if stream[0][0].sig == SIG_F else UnknownSymbolError)
            assert _outcome(ualg.eqlogic.mod_failures(stream, E, caps)) == want


def test_mod_failures_raises_an_error_of_the_stream_after_the_algebras_before_it():
    """An error the stream raises at algebra j comes after the failures of
    the algebras before j, which share j's batch: a consumer that stops at
    the first failure never sees it."""
    idem = Equation(App("f", (X, X)), X)

    def stream(fail_first):
        yield semilattice2(SIG_F), 0
        yield (z2_xor() if fail_first else semilattice2(SIG_F)), 1
        raise CapExceededError("the stream's own cap")

    first = next(ualg.eqlogic.mod_failures(stream(True), [idem]))
    assert first[1:] == (1, 0)
    assert _outcome(ualg.eqlogic.mod_failures(stream(True), [idem])) == (
        [(1, 0)], (CapExceededError, "the stream's own cap"))
    assert _outcome(ualg.eqlogic.mod_failures(stream(False), [idem])) == (
        [], (CapExceededError, "the stream's own cap"))


def test_mod_failures_batches_within_the_fit_rule(monkeypatch):
    """The sum of n^top, at most 256, decides the batches: 64 binary
    algebras of size 2 share one plan, and a 65th starts the next."""
    plans = []
    real = ualg.core.lane_plan

    def recorded(K, sig):
        plans.append([alg.size for alg in K])
        return real(K, sig)

    monkeypatch.setattr(ualg.terms, "lane_plan", recorded)
    idem = Equation(App("f", (X, X)), X)
    stream = [(semilattice2(SIG_F), 0)] * 65 + [(z4_add(), 1)] * 17 + [(z_add(9), 2)] * 4 + [(z_add(16), 3)]
    got = _outcome(ualg.eqlogic.mod_failures(stream, [idem]))
    assert got == ([(1, 0)] * 17 + [(2, 0)] * 4 + [(3, 0)], None)
    # Z16 (16^2 = 256) is a batch of one, on its cached plan
    assert plans == [[2] * 64, [2] + [4] * 15, [4, 4, 9, 9], [9, 9]]
    # 12 variables, 2^12 environments each: 8 members fill the 2^15 lanes a batch joins
    wide = App("f", (Var("v0"), Var("v1")))
    for k in range(2, 12):
        wide = App("f", (wide, Var(f"v{k}")))
    plans.clear()
    assert _outcome(ualg.eqlogic.mod_failures(stream[:64], [Equation(wide, wide)])) == ([], None)
    assert plans == [[2] * 8] * 8


def test_every_batch_fits_its_plan_and_holds_one_signature():
    """Streams of sizes 1-17 in runs under two signatures, one of arities
    0-1 given as two equal objects and one of arities 0-9: every batch has
    one signature and at most _BATCH_WIDTH environments, a batch of two or
    more has a lane plan, and a batch is cut only where the next algebra
    has another signature or would leave the plan or the width."""
    rng = random.Random(7)
    for trial in range(60):
        ops = [[(f"{p}{k}", rng.randint(0, top)) for k in range(rng.randint(1, 3))] for p, top in (("a", 1), ("b", 9))]
        sigs = [signature(*ops[0]), signature(*ops[0]), signature(*ops[1])]
        span = trial % 4  # 17^3 environments fit _BATCH_WIDTH
        stream = []
        for sig in rng.choices(sigs, k=8):
            top = max([1] + [arity for _, arity in sig.ops])
            for n in rng.choices(range(1, 18), k=rng.randint(1, 12)):
                # past the fit rule by its size alone, no plan reads its tables
                alg = random_algebra(rng, sig, n) if n**top <= 4096 else types.SimpleNamespace(sig=sig, size=n)
                stream += [(alg, len(stream))] * rng.randint(1, 4)
        batches = list(ualg.eqlogic._batches(stream, span))
        assert [item for batch in batches for item in batch] == stream
        for batch, after in zip(batches, batches[1:] + [None]):
            K = [alg for alg, _ in batch]
            assert all(alg.sig == K[0].sig for alg in K), trial
            assert sum([alg.size**span for alg in K]) <= ualg.eqlogic._BATCH_WIDTH, trial
            assert len(K) == 1 or lane_plan(K, K[0].sig) is not None, trial
            if after is not None and after[0][0].sig == K[0].sig:  # cut by the plan or the width
                K.append(after[0][0])
                wide = sum([alg.size**span for alg in K]) > ualg.eqlogic._BATCH_WIDTH
                assert wide or lane_plan(K, K[0].sig) is None, trial


@pytest.mark.parametrize("sizes", [(1, 2, 3), (2, 2, 2, 2), (5, 3, 1, 9)])
def test_joined_columns_are_each_members_columns_shifted(sizes):
    rng = random.Random(sum(sizes))
    K = [random_algebra(rng, SIG_F, n) for n in sizes]
    terms = enumerate_terms(SIG_F, ["x", "y"], 2)
    columns = [environment_columns(["x", "y"], n) for n in sizes]
    joined = ualg.terms.joined_columns(K, terms, columns, ualg.terms.members_plan(K))
    want = [b"" for _ in terms]
    for k, (alg, cols) in enumerate(zip(K, columns)):
        off = sum(sizes[:k])
        want = [w + bytes([v + off for v in col]) for w, col in zip(want, term_columns_lists(alg, terms, cols))]
    assert joined == want
    with pytest.raises(ValueError, match="^the members do not fit one lane plan$"):
        wide = [z_add(16), z2_xor()]
        ualg.terms.joined_columns(wide, terms, [environment_columns(["x", "y"], n) for n in (16, 2)], ualg.terms.members_plan(wide))


# The easy-direction bench's audit pool, every binary algebra of sizes 1
# and 2, and the same pool with its one-element algebra last.
AUDIT_POOLS = {
    "bench": [algebra(SIG_F, 1, {"f": [0]})] + all_binary_size2(),
    "trivial-last": all_binary_size2() + [algebra(SIG_F, 1, {"f": [0]})],
}


@pytest.mark.parametrize("pool", AUDIT_POOLS, ids=list(AUDIT_POOLS))
@pytest.mark.parametrize("laws", EASY_LAW_SETS)
def test_soundness_audit_matches_the_peralgebra_oracle(laws, pool, monkeypatch):
    E = easy_laws(laws)
    proofs = [Hyp(i) for i in range(len(E))] + [Refl(App("f", (X, Y)))]
    got = soundness_audit(SIG_F, E, proofs, AUDIT_POOLS[pool])
    assert got == soundness_audit_peralgebra(SIG_F, E, proofs, AUDIT_POOLS[pool])
    assert got.clean and got.model_indices
    # conclusions that do not follow, as from a faulty proof checker: each
    # model's entries after its first failing conclusion are still recorded
    wrong = easy_laws([EASY_NON_CONSEQUENCES[laws], "idem", "leftproj", "comm"])
    monkeypatch.setattr(ualg.entail, "check_proof", lambda sig, axioms, proof: wrong[proof.index])
    proofs = [Hyp(i) for i in range(len(wrong))]
    got = soundness_audit(SIG_F, E, proofs, AUDIT_POOLS[pool])
    assert got == soundness_audit_peralgebra(SIG_F, E, proofs, AUDIT_POOLS[pool])
    assert not got.clean


def test_soundness_audit_raises_the_peralgebra_errors():
    """An unknown symbol and an environment space past the default caps
    raise at the algebra that reaches them first, with the same text."""
    comm = easy_laws(["comm"])
    pool = all_binary_size2() + [z_successor(3)] + all_binary_size2()
    deep = Var("v0")
    for k in range(1, 21):  # 21 variables: 2^21 environments on two elements
        deep = App("f", (deep, Var(f"v{k}")))
    for axioms, proofs, pool in ((comm, [Hyp(0)], pool), (comm, [Hyp(0), Refl(deep)], all_binary_size2())):
        with pytest.raises(UalgError) as want:
            soundness_audit_peralgebra(SIG_F, axioms, proofs, pool)
        with pytest.raises(UalgError) as got:
            soundness_audit(SIG_F, axioms, proofs, pool)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    assert str(got.value).startswith("environment space 2^21: ")


def _corrupt_one_subuniverse(E, pool):
    """A subalgebra_generate that corrupts one subuniverse's subalgebra, the
    one of two or more elements that the most generator subsets of one model
    reach (the first on ties): the first cell f(a, b) and value c of it,
    in model elements, whose change breaks E.  The corrupted subalgebra is
    the same algebra up to labels whichever subset reaches it, as a failure
    found in a subalgebra must be."""
    real = ualg.closure.subalgebra_generate
    reached = {}  # (model index, subuniverse) -> generator subsets
    models = [m for size in range(1, pool + 1) for m in models_bruteforce(infer_signature(E), tuple(E), size)[0]]
    for i, alg in enumerate(models):
        for r in range(1, alg.size + 1):
            for gens in itertools.combinations(range(alg.size), r):
                universe = frozenset(real(alg, gens)[1].image)
                if len(universe) > 1:
                    reached.setdefault((i, universe), []).append(gens)
    (i, universe), subsets = max(reached.items(), key=lambda item: len(item[1]))
    target = models[i]

    def corrupt(alg, gens, cell):
        sub, inclusion = real(alg, gens)
        if alg != target or frozenset(inclusion.image) != universe:
            return sub, inclusion
        label = {e: k for k, e in enumerate(inclusion.image)}
        a, b, c = cell  # f(a, b) := c
        table = list(sub.tables[0])
        table[label[a] * sub.size + label[b]] = label[c]
        return dataclasses.replace(sub, tables=(tuple(table),)), inclusion

    members = sorted(universe)
    for cell in itertools.product(members, repeat=3):
        if not mod_check(corrupt(target, subsets[0], cell)[0], E).holds:
            return functools.partial(corrupt, cell=cell)
    raise AssertionError(f"no one-cell change of {members} breaks {E}")


@pytest.mark.parametrize("laws", EASY_LAW_SETS)
def test_easy_direction_subalgebra_failure_matches_the_permodel_oracle(laws, monkeypatch):
    """One subuniverse's subalgebra corrupted: the subalgebra stage, which
    checks each subuniverse once, fails at the first generator subset,
    failing equation and counterexample of the every-subset path."""
    E = easy_laws(laws)
    monkeypatch.setattr(ualg.closure, "subalgebra_generate", _corrupt_one_subuniverse(E, 3))
    got = eqcl_to_var_check(E, 3).lines()
    assert got == eqcl_to_var_check_permodel(E, 3).lines() == eqcl_to_var_check_peralgebra(E, 3).lines()
    assert got[-1].startswith("STAGE closure FAIL subalgebra from (")


def test_search_proof_rechecks_the_countermodel(monkeypatch):
    """A model search that returns a non-model: Z2 fails idempotence, and
    also the goal, so only the re-check by mod_check can catch it."""
    monkeypatch.setattr(ualg.entail, "find_models", lambda sig, E, size, caps: ((z2_xor(),), 1))
    axioms = easy_laws(["idem"])
    with pytest.raises(UalgError, match="countermodel"):
        search_proof(SIG_F, axioms, easy_laws(["leftproj"])[0])


CORRUPTED_FREE = """
import dataclasses
import sys
from ualg import Equation, SearchLimits, UalgError, Var, build_free, search_proof, signature
import ualg.core
import ualg.entail
import ualg.free
import ualg.homs
from ualg.core import algebra

assert False, "this interpreter keeps asserts"  # stripped under -O
sl = algebra(signature(("m", 2)), 2, {"m": [0, 0, 0, 1]})
free = build_free([sl], ["x", "y"])
broken = {
    "duplicate tuple": dataclasses.replace(free, tuples=(free.tuples[0],) * len(free.tuples)),
    "swapped representatives": dataclasses.replace(free, reprs=free.reprs[::-1]),
    "wrong generator": dataclasses.replace(free, gens={"x": free.gens["y"], "y": free.gens["y"]}),
}
for label, bad in broken.items():
    try:
        ualg.free._check_invariants(bad)
    except UalgError:
        print("raised", label)
real = {"lane_plan": ualg.core.lane_plan, "lane_pointwise": ualg.core.lane_pointwise}


def corrupted_plan(K, sig):
    plan = real["lane_plan"](K, sig)
    steps, final = plan["m"]  # the one member's m(1, 1) = 1 sits at entry 3
    plan["m"] = (steps, final[:3] + bytes([0]) + final[4:])
    return plan


rows = []  # m per kernel application: close's rows reach it with 2 or more lasts


def corrupted_pointwise(plan, members):
    apply = real["lane_pointwise"](plan, members)

    def corrupted(name, args, m=1, last=None):  # the last lane reads the first: one lane is wrong
        rows.append(m)
        lanes = apply(name, args, m, last)
        return lanes[:-1] + lanes[:1]

    return corrupted


def patch(name, value):  # in every module that binds the name
    for module in [m for m in sys.modules.values() if m.__name__.startswith("ualg.")]:
        if hasattr(module, name):
            setattr(module, name, value)


# The lanes are corrupted everywhere, term columns included, on an algebra
# whose plan is not cached yet: a re-check on the lanes would agree with the
# corrupted closure, so only one on the list kernel raises.  On 3 variables
# the closure's rows reach the corrupted kernel with several lasts each.
for name, fault in [("lane_plan", corrupted_plan), ("lane_pointwise", corrupted_pointwise)]:
    patch(name, fault)
    try:
        build_free([algebra(signature(("m", 2)), 2, {"m": [0, 0, 0, 1]})], ["x", "y", "z"])
    except UalgError as e:
        if "does not evaluate to its tuple" in str(e):
            print("raised corrupted", name)
    patch(name, real[name])
if max(rows) >= 2:
    print("corrupted rows of 2 or more lasts")
ualg.entail.check_proof = lambda sig, axioms, proof: Equation(Var("x"), Var("x"))
goal = Equation(Var("y"), Var("y"))
try:
    search_proof(signature(("m", 2)), [], goal, SearchLimits(max_depth=1))
except UalgError:
    print("raised search_proof")
# the model search returns Z2, which fails the idempotence axiom
ualg.entail.find_models = lambda sig, E, size, caps: ((algebra(sig, 2, {"m": [0, 1, 1, 0]}),), 1)
m = lambda a, b: ualg.App("m", (a, b))
try:
    search_proof(signature(("m", 2)), [Equation(m(Var("x"), Var("x")), Var("x"))], Equation(m(Var("x"), Var("y")), Var("x")))
except UalgError:
    print("raised countermodel")
real_init = ualg.homs._Search.__init__


def no_propagation(self, *args):  # every map Z3 -> Z3 is a leaf: the re-check must catch the non-homs
    real_init(self, *args)
    self.ops = []


ualg.homs._Search.__init__ = no_propagation
z3 = algebra(signature(("f", 2)), 3, {"f": [(a + b) % 3 for a in range(3) for b in range(3)]})
try:
    ualg.homs.find_homs(z3, z3)
except UalgError:
    print("raised hom search")
"""


def test_soundness_checks_survive_python_O():
    result = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_FREE],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "raised duplicate tuple",
        "raised swapped representatives",
        "raised wrong generator",
        "raised corrupted lane_plan",
        "raised corrupted lane_pointwise",
        "corrupted rows of 2 or more lasts",
        "raised search_proof",
        "raised countermodel",
        "raised hom search",
    ]
