import itertools

import pytest

from ualg import (
    App,
    Environment,
    Equation,
    SatResult,
    Var,
    algebra,
    class_satisfies,
    evaluate,
    find_homs,
    find_models,
    find_isomorphism,
    mod_check,
    product,
    satisfies,
    subalgebra_generate,
    theory_upto,
)
from ualg.core import CapExceededError, Caps
from ualg.eqlogic import theory_partition
from ualg.fileio import parse_equation

from oracles import hom_image, models_bruteforce
from samples import (
    EASY_LAW_SETS,
    SIG_CONST,
    SIG_F,
    SIG_G,
    SIG_MIXED,
    SIG_T,
    easy_laws,
    semilattice2,
    z2_xor,
    z3_add,
)

X, Y, Z = Var("x"), Var("y"), Var("z")
COMM = Equation(App("f", (X, Y)), App("f", (Y, X)))
IDEM = Equation(App("f", (X, X)), X)


def test_satisfies_commutativity():
    assert satisfies(z2_xor(), COMM).holds


def test_satisfies_reports_first_counterexample():
    res = satisfies(z2_xor(), IDEM)
    assert not res.holds
    assert res.counterexample.assoc == {"x": 1}
    # the counterexample replays
    rho = res.counterexample.assoc
    assert evaluate(z2_xor(), IDEM.lhs, rho) != evaluate(z2_xor(), IDEM.rhs, rho)


def test_satisfies_reflexive_equations():
    t = App("f", (X, App("f", (Y, X))))
    assert satisfies(z3_add(), Equation(t, t)).holds


def test_satisfies_cap():
    with pytest.raises(CapExceededError):
        satisfies(z3_add(), COMM, Caps(cells=8))


def test_class_satisfies():
    assert class_satisfies([z2_xor(), z3_add()], COMM).holds
    left_proj = algebra(SIG_F, 2, {"f": [0, 0, 1, 1]})
    res = class_satisfies([z2_xor(), left_proj], COMM)
    assert not res.holds
    assert res.failing_index == 1
    assert res.counterexample.assoc == {"x": 0, "y": 1}
    assert class_satisfies([], COMM).holds


def test_theory_upto_examples():
    m = semilattice2()
    th1 = theory_upto([m], ["x"], 1)
    assert Equation(App("m", (X, X)), X) in th1
    assert all(Equation(t, t) in th1 for t in (X, App("m", (X, X))))

    th2 = theory_upto([z2_xor()], ["x", "y"], 1)
    assert COMM in th2


def test_theory_upto_needs_a_class():
    with pytest.raises(ValueError):
        theory_upto([], ["x"], 1)


def test_empty_class_error_names_neither_function():
    # theory_upto calls theory_partition, and the CLI calls theory_partition
    # directly: the one message must fit both callers
    messages = set()
    for theory in (theory_partition, theory_upto):
        with pytest.raises(ValueError) as info:
            theory([], ["x"], 1)
        messages.add(str(info.value))
    assert messages == {"a theory needs a nonempty class to fix the signature"}


def test_mod_check():
    assert mod_check(z2_xor(), [COMM]).holds
    m = semilattice2(SIG_F)
    assert mod_check(m, [IDEM, COMM]).holds
    res = mod_check(z2_xor(), [IDEM])
    assert not res.holds and res.failing_index == 0
    assert res.counterexample.assoc == {"x": 1}


def test_the_three_satisfaction_checks_return_one_result_type():
    ce = Environment(z2_xor(), {"x": 1})
    assert satisfies(z2_xor(), IDEM) == SatResult(False, ce, None)
    assert class_satisfies([semilattice2(SIG_F), z2_xor()], IDEM) == SatResult(False, ce, 1)
    assert mod_check(z2_xor(), [COMM, IDEM]) == SatResult(False, ce, 1)
    for res in (
        satisfies(z2_xor(), COMM),
        class_satisfies([z2_xor(), z3_add()], COMM),
        class_satisfies([], IDEM),
        mod_check(z2_xor(), [COMM]),
        mod_check(z2_xor(), []),
    ):
        assert res == SatResult(True)


def test_class_checks_stop_at_the_first_failure():
    # under cells=4 an environment space past 4 raises; the checks never reach it
    caps = Caps(cells=4)
    proj = Equation(App("f", (X, Y)), X)  # Z2 fails it at x=0 y=1; Z3 has 9 environments
    assoc = Equation(App("f", (X, App("f", (Y, Z)))), App("f", (App("f", (X, Y)), Z)))
    with pytest.raises(CapExceededError):
        mod_check(z2_xor(), [assoc], caps)
    with pytest.raises(CapExceededError):
        class_satisfies([z3_add()], proj, caps)
    ce = Environment(z2_xor(), {"x": 0, "y": 1})
    assert mod_check(z2_xor(), [proj, assoc], caps) == SatResult(False, ce, 0)
    assert class_satisfies([z2_xor(), z3_add()], proj, caps) == SatResult(False, ce, 0)


def _theory_pairs(alg, depth=2):
    return theory_upto([alg], ["x", "y"], depth)


def test_satisfaction_invariant_under_isomorphism():
    twisted = algebra(SIG_F, 2, {"f": [1, 0, 0, 1]})
    pair = find_isomorphism(z2_xor(), twisted)
    assert pair is not None
    for eq in _theory_pairs(z2_xor(), depth=1):
        assert satisfies(twisted, eq).holds


def test_satisfaction_invariant_under_hom_images():
    for alg in (z2_xor(), semilattice2(SIG_F)):
        theory = _theory_pairs(alg, depth=1)
        for m in find_homs(alg, alg):
            img, _ = hom_image(alg, m)
            for eq in theory:
                assert satisfies(img, eq).holds


def test_satisfaction_invariant_under_subalgebras_and_sid2():
    for alg in (z2_xor(), semilattice2(SIG_F), z3_add()):
        theory = _theory_pairs(alg, depth=1)
        subs = []
        for r in range(1, alg.size + 1):
            for gens in itertools.combinations(range(alg.size), r):
                sub, _ = subalgebra_generate(alg, gens)
                subs.append(sub)
        for eq in theory:
            assert all(satisfies(sub, eq).holds for sub in subs)
        # S-id2: adding all subalgebras to the class changes no verdict
        terms_theory = theory_upto([alg] + subs, ["x", "y"], 1)
        assert terms_theory == theory


def test_satisfaction_invariant_under_products():
    for a, b in itertools.product([z2_xor(), semilattice2(SIG_F)], repeat=2):
        p = product([a, b]).alg
        for eq in _theory_pairs(a, depth=1):
            if satisfies(b, eq).holds:
                assert satisfies(p, eq).holds


def test_counterexample_order_is_lexicographic():
    # first failing env in lex order over (x, y)
    left_proj = algebra(SIG_F, 2, {"f": [0, 0, 1, 1]})
    res = satisfies(left_proj, COMM)
    assert res.counterexample.assoc == {"x": 0, "y": 1}


OTHER_SIGNATURE_LAWS = [
    (SIG_G, []),
    (SIG_G, ["g(g(?x)) = ?x"]),
    (SIG_G, ["g(g(?x)) = g(?x)"]),
    (SIG_G, ["?x = ?y"]),
    (SIG_T, []),
    (SIG_T, ["t(?x,?x,?y) = ?y", "t(?x,?y,?y) = ?x"]),
    (SIG_T, ["t(?x,?y,?z) = t(?y,?x,?z)"]),
    (SIG_CONST, []),
    (SIG_CONST, ["c = d"]),
    (SIG_MIXED, []),
    (SIG_MIXED, ["g(g(?x)) = ?x", "t(?x,?x,?y) = ?y"]),
    (SIG_MIXED, ["g(e) = e", "t(e,?x,?y) = g(?x)"]),
]


def _assert_models_match_brute_force(sig, E, size):
    reps, count = find_models(sig, E, size)
    brute_reps, brute_count = models_bruteforce(sig, tuple(E), size)
    assert [a.tables for a in reps] == [a.tables for a in brute_reps]
    assert count == brute_count


@pytest.mark.parametrize("laws", EASY_LAW_SETS)
@pytest.mark.parametrize("size", [1, 2, 3])
def test_find_models_matches_brute_force_on_the_easy_law_sets(laws, size):
    _assert_models_match_brute_force(SIG_F, easy_laws(laws), size)


@pytest.mark.parametrize("case", range(len(OTHER_SIGNATURE_LAWS)))
@pytest.mark.parametrize("size", [1, 2])
def test_find_models_matches_brute_force_on_other_signatures(case, size):
    sig, texts = OTHER_SIGNATURE_LAWS[case]
    _assert_models_match_brute_force(sig, [parse_equation(t) for t in texts], size)


def test_find_models_counts_work_against_the_cells_cap():
    E = easy_laws(["assoc"])
    with pytest.raises(
        CapExceededError,
        match=r"^model search work at size 3 \(cells assigned plus relabellings tried\): "
        r"101 exceeds cap cells=100; raise it with UALG_CAPS=cells=N$",
    ):
        find_models(SIG_F, E, 3, Caps(cells=100))
    assert len(find_models(SIG_F, E, 3, Caps(cells=5000))[0]) == 24
    with pytest.raises(
        CapExceededError,
        match=r"^environment space 3\^3: 27 exceeds cap cells=20; raise it with UALG_CAPS=cells=N$",
    ):
        find_models(SIG_F, E, 3, Caps(cells=20))
    with pytest.raises(
        CapExceededError,
        match="^model search table cells at size 5: 125 exceeds cap cells=100; raise it with UALG_CAPS=cells=N$",
    ):
        find_models(SIG_T, [], 5, Caps(cells=100))
