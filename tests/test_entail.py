import random
from dataclasses import replace

import pytest

from ualg import (
    Caps,
    Equation,
    SearchLimits,
    Substitution,
    Var,
    check_proof,
    evaluate,
    mod_check,
    satisfies,
    search_proof,
    signature,
    soundness_audit,
    substitute,
)
from ualg.entail import (
    App as PApp,
    BadHypothesisError,
    Hyp,
    ProofArityError,
    Refl,
    Sub,
    Sym,
    Trans,
    TransMismatchError,
    collect_proof_arities,
    match_equation,
)
from ualg.terms import App, enumerate_terms

from oracles import search_proof_proofonly
from samples import EASY_LAW_SETS, EASY_NON_CONSEQUENCES, SIG_F, all_binary_size2, easy_laws, z2_xor

X, Y, Z, W = Var("x"), Var("y"), Var("z"), Var("w")


def f(*children):
    return App("f", tuple(children))


COMM = Equation(f(X, Y), f(Y, X))
AXIOMS = [COMM]


def test_check_refl():
    assert check_proof(SIG_F, AXIOMS, Refl(X)) == Equation(X, X)


def test_check_sym_of_hyp():
    assert check_proof(SIG_F, AXIOMS, Sym(Hyp(0))) == Equation(f(Y, X), f(X, Y))


def test_check_sub_example():
    sigma = Substitution({"x": Y, "y": f(X, X)})
    conclusion = check_proof(SIG_F, AXIOMS, Sub(Hyp(0), sigma))
    assert conclusion == Equation(f(Y, f(X, X)), f(f(X, X), Y))


def test_check_app_congruence():
    proof = PApp("f", (Hyp(0), Refl(Z)))
    conclusion = check_proof(SIG_F, AXIOMS, proof)
    assert conclusion == Equation(f(f(X, Y), Z), f(f(Y, X), Z))


def test_check_trans():
    # f(x,y) = f(y,x) = f(x,y): silly but well-formed
    proof = Trans(Hyp(0), Sym(Hyp(0)))
    assert check_proof(SIG_F, AXIOMS, proof) == Equation(f(X, Y), f(X, Y))


def test_check_errors_are_distinct():
    with pytest.raises(BadHypothesisError):
        check_proof(SIG_F, AXIOMS, Hyp(3))
    with pytest.raises(TransMismatchError) as exc:
        check_proof(SIG_F, AXIOMS, Trans(Hyp(0), Hyp(0)))
    assert exc.value.left_middle == f(Y, X)
    assert exc.value.right_middle == f(X, Y)
    with pytest.raises(ProofArityError):
        check_proof(SIG_F, AXIOMS, PApp("f", (Hyp(0),)))


def test_sub_after_sub_composes():
    sigma = Substitution({"x": f(X, Y)})
    tau = Substitution({"x": Z, "y": f(Z, Z)})
    base = Hyp(0)
    nested = check_proof(SIG_F, AXIOMS, Sub(Sub(base, sigma), tau))
    from ualg import substitute

    composed = {name: substitute(tau, term) for name, term in sigma.assoc.items()}
    for name, term in tau.assoc.items():
        composed.setdefault(name, term)
    flat = check_proof(SIG_F, AXIOMS, Sub(base, Substitution(composed)))
    assert nested == flat


def test_match_equation():
    goal = Equation(f(f(X, X), Y), f(Y, f(X, X)))
    sigma = match_equation(COMM, goal)
    assert sigma is not None
    assert sigma.assoc == {"x": f(X, X), "y": Y}
    assert match_equation(COMM, Equation(f(X, Y), f(X, Y))) is None


def test_search_finds_refl_and_hyp():
    t = f(X, f(Y, X))
    out = search_proof(SIG_F, AXIOMS, Equation(t, t))
    assert out.status == "found" and out.proof == Refl(t)
    out = search_proof(SIG_F, AXIOMS, COMM)
    assert out.status == "found" and out.proof == Hyp(0)


def test_search_finds_substitution_instances():
    goal = Equation(f(f(X, X), Y), f(Y, f(X, X)))
    out = search_proof(SIG_F, AXIOMS, goal, SearchLimits(max_depth=2))
    assert out.status == "found"
    assert check_proof(SIG_F, AXIOMS, out.proof) == goal


def test_search_congruence_goals():
    goal = Equation(f(f(X, Y), Z), f(f(Y, X), Z))
    out = search_proof(SIG_F, AXIOMS, goal, SearchLimits(max_depth=3))
    assert out.status == "found"
    assert check_proof(SIG_F, AXIOMS, out.proof) == goal


def test_search_is_deterministic():
    goal = Equation(f(f(X, X), Y), f(Y, f(X, X)))
    first = search_proof(SIG_F, AXIOMS, goal)
    second = search_proof(SIG_F, AXIOMS, goal)
    assert first == second


def test_search_budget_vs_refuted():
    impossible = Equation(X, Y)
    out = search_proof(SIG_F, [], impossible, SearchLimits(max_depth=3))
    assert out.status == "refuted"
    starved = search_proof(
        SIG_F,
        AXIOMS,
        Equation(f(f(X, Y), f(X, Y)), f(f(Y, X), f(Y, Y))),
        SearchLimits(max_depth=4, node_budget=5),
    )
    assert starved.status == "budget"


def _agrees_with_the_proof_only_search(sig, axioms, goal, limits, caps=Caps()):
    """search_proof against the oracle: the same outcome without a
    countermodel; with one, a goal the oracle never proves, failing in a
    model of the axioms under exactly the environment given."""
    got = search_proof(sig, axioms, goal, limits, caps)
    want = search_proof_proofonly(sig, axioms, goal, limits)
    if got.countermodel is None:
        assert replace(got, model_step=None) == want
    else:
        assert (got.status, got.proof) == ("refuted", None)
        assert want.status in ("exhausted", "budget")
        env = got.countermodel
        assert mod_check(env.alg, axioms).holds
        assert satisfies(env.alg, goal).counterexample == env
        assert evaluate(env.alg, goal.lhs, env) != evaluate(env.alg, goal.rhs, env)
    return got


def _bench_style_goals(laws, rng):
    """The easy-direction benchmark's three goals on a law set: the first
    law under a substitution of pairs, the last law flipped and put in a
    context, and the law that does not follow."""
    axioms = easy_laws(laws)
    names = [Var(name) for name in "abuvw"]
    first, last = axioms[0], axioms[-1]
    pairs = Substitution({v: f(rng.choice(names), rng.choice(names)) for v in "xyz"})
    renamed = Substitution({v: rng.choice(names) for v in "xyz"})
    context = f(rng.choice(names), rng.choice(names))
    return axioms, [
        Equation(substitute(pairs, first.lhs), substitute(pairs, first.rhs)),
        Equation(f(substitute(renamed, last.rhs), context), f(substitute(renamed, last.lhs), context)),
        easy_laws([EASY_NON_CONSEQUENCES[laws]])[0],
    ]


@pytest.mark.parametrize("laws", EASY_LAW_SETS, ids="+".join)
def test_search_matches_the_proof_only_search_on_the_bench_law_sets(laws):
    axioms, goals = _bench_style_goals(laws, random.Random(7))
    for depth in range(1, 5):
        limits = SearchLimits(max_depth=depth, node_budget=20_000)
        outcomes = [_agrees_with_the_proof_only_search(SIG_F, axioms, goal, limits) for goal in goals]
        if depth >= 2:
            assert [o.status for o in outcomes[:2]] == ["found", "found"]
        # every non-consequence is decided by a checked countermodel
        assert outcomes[2].countermodel is not None


def test_search_matches_the_proof_only_search_on_criterion_6s_random_axioms():
    rng = random.Random(404)  # criterion 6's axiom sets and goals
    terms2 = enumerate_terms(SIG_F, ["x", "y"], 2)
    limits = SearchLimits(max_depth=3, node_budget=4000)
    statuses = []
    for _ in range(50):
        axioms = [Equation(rng.choice(terms2), rng.choice(terms2)) for _ in range(rng.randrange(1, 3))]
        for _ in range(6):
            goal = Equation(rng.choice(terms2), rng.choice(terms2))
            outcome = _agrees_with_the_proof_only_search(SIG_F, axioms, goal, limits)
            statuses.append((outcome.status, outcome.countermodel is not None))
    assert ("found", False) in statuses and ("refuted", True) in statuses


SEMILATTICE = easy_laws(["idem", "comm", "assoc"])


def test_a_countermodel_refutes_where_the_proof_search_runs_out_of_budget():
    goal = Equation(f(X, Y), X)
    limits = SearchLimits(max_depth=7)
    assert search_proof_proofonly(SIG_F, SEMILATTICE, goal, limits).status == "budget"
    out = search_proof(SIG_F, SEMILATTICE, goal, limits)
    assert out.status == "refuted"
    # the meet semilattice on {0, 1}: f(0, 1) = 0 != 1
    assert out.countermodel.alg.tables == ((0, 0, 0, 1),)
    assert str(out.countermodel) == "x=1 y=0"


def test_caps_bound_the_model_search():
    goal = Equation(f(X, Y), X)
    limits = SearchLimits(max_depth=3)
    # a size-2 table of f has 4 cells: cells=3 stops the model search, not the proof search
    out = _agrees_with_the_proof_only_search(SIG_F, SEMILATTICE, goal, limits, Caps(cells=3))
    assert (out.status, out.countermodel, out.model_step) == ("exhausted", None, "capped")
    # the medial law follows from comm and assoc, so no model fails it, at any cap
    assoc = Equation(f(f(X, Y), Z), f(X, f(Y, Z)))
    medial = Equation(f(f(X, Y), f(Z, W)), f(f(X, Z), f(Y, W)))
    out = _agrees_with_the_proof_only_search(SIG_F, [COMM, assoc], medial, SearchLimits(max_depth=4))
    assert (out.status, out.countermodel, out.model_step) == ("exhausted", None, "complete")
    # the node budget lowers cells: x = y has 2^2 environments at size 2
    for budget, found in [(3, False), (4, True)]:
        limits = SearchLimits(max_depth=1, node_budget=budget)
        out = _agrees_with_the_proof_only_search(SIG_F, [], Equation(X, Y), limits)
        assert (out.countermodel is not None) == found


def test_the_model_search_reads_the_symbols_of_the_axioms_and_goal():
    # sig names only m: the model search interprets f and m from their uses
    sig = signature(("m", 2))
    goals = [Equation(f(X, Y), X), Equation(f(X, Y), f(Y, X)), Equation(App("m", (X, Y)), X)]
    outcomes = [_agrees_with_the_proof_only_search(sig, [COMM], goal, SearchLimits()) for goal in goals]
    assert [o.status for o in outcomes] == ["refuted", "found", "refuted"]
    assert outcomes[0].countermodel is not None and outcomes[2].countermodel is not None


def test_a_symbol_at_two_arities_skips_the_model_search():
    goal = Equation(App("f", (X,)), X)
    out = _agrees_with_the_proof_only_search(SIG_F, [COMM], goal, SearchLimits(max_depth=3))
    assert (out.status, out.countermodel, out.model_step) == ("exhausted", None, "arities")


def test_search_rejects_bad_limits():
    with pytest.raises(ValueError):
        search_proof(SIG_F, AXIOMS, COMM, SearchLimits(max_depth=0))


def test_soundness_audit_commutativity_pool():
    pool = all_binary_size2()
    report = soundness_audit(SIG_F, AXIOMS, [Hyp(0)], pool)
    assert len(report.model_indices) == 8
    assert report.clean
    assert len(report.entries) == 8


def test_soundness_audit_vacuous_and_refl():
    pool = all_binary_size2()
    assert soundness_audit(SIG_F, AXIOMS, [], pool).clean
    assert soundness_audit(SIG_F, AXIOMS, [Refl(f(X, Y))], pool).clean


def test_soundness_audit_aborts_on_bad_proof():
    with pytest.raises(BadHypothesisError):
        soundness_audit(SIG_F, AXIOMS, [Hyp(9)], [z2_xor()])


def test_soundness_on_randomized_axioms_and_searched_goals():
    rng = random.Random(11)
    pool = all_binary_size2()
    terms = enumerate_terms(SIG_F, ["x", "y"], 2)
    for _ in range(10):
        axioms = [
            Equation(rng.choice(terms), rng.choice(terms)) for _ in range(2)
        ]
        goals = [
            Equation(rng.choice(terms), rng.choice(terms)) for _ in range(5)
        ]
        proofs = []
        for goal in goals:
            out = search_proof(SIG_F, axioms, goal, SearchLimits(max_depth=3))
            if out.status == "found":
                proofs.append(out.proof)
        report = soundness_audit(SIG_F, axioms, proofs, pool)
        assert report.clean


def test_collect_proof_arities():
    arities: dict[str, int] = {}
    collect_proof_arities(Sub(PApp("f", (Refl(X), Refl(X))), Substitution({"x": f(X, Y)})), arities)
    assert arities == {"f": 2}
