import itertools

import pytest

from ualg import (
    App,
    Equation,
    Var,
    algebra,
    class_satisfies,
    evaluate,
    find_homs,
    find_isomorphism,
    hom_image,
    mod_check,
    product,
    satisfies,
    subalgebra_generate,
    theory_upto,
)
from ualg.core import CapExceededError, Caps

from samples import SIG_F, semilattice2, z2_xor, z3_add

X, Y = Var("x"), Var("y")
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


def test_mod_check():
    assert mod_check(z2_xor(), [COMM]).holds
    m = semilattice2(SIG_F)
    assert mod_check(m, [IDEM, COMM]).holds
    res = mod_check(z2_xor(), [IDEM])
    assert not res.holds and res.failing_index == 0
    assert res.counterexample.assoc == {"x": 1}


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
