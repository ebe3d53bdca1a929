"""Equational entailment as checkable proof objects.

The calculus has six constructors: hypothesis, reflexivity, symmetry,
transitivity, congruence, and substitution.  Congruence is simultaneous
over all argument positions (one subproof per position); rewriting a
single argument takes Refl proofs on the untouched positions.  check_proof
synthesizes the conclusion of a proof tree bottom-up; search_proof looks
for a proof by iterative deepening and, once no proof of depth 2 exists,
for a model of the axioms of size 2 that fails the goal: by soundness such
a countermodel refutes the goal at every depth, and without one the
search makes no completeness claim; soundness_audit replays conclusions
against every model of the axioms in a pool and must never find a
violation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence, Union

from .core import DEFAULT_CAPS, CapExceededError, Caps, FiniteAlgebra, Signature, UalgError
from .terms import (
    App as TApp,
    Environment,
    Equation,
    Substitution,
    Term,
    Var,
    collect_arities,
    infer_signature,
    subterms,
    substitute,
    term_size,
    term_vars,
)
from .eqlogic import find_models, mod_check, mod_failures, satisfies


class ProofCheckError(UalgError):
    pass


class BadHypothesisError(ProofCheckError):
    pass


class TransMismatchError(ProofCheckError):
    def __init__(self, left_middle: Term, right_middle: Term):
        self.left_middle = left_middle
        self.right_middle = right_middle
        super().__init__(
            f"transitivity middles differ: {left_middle} vs {right_middle}"
        )


class ProofArityError(ProofCheckError):
    pass


@dataclass(frozen=True)
class Hyp:
    index: int


@dataclass(frozen=True)
class Refl:
    term: Term


@dataclass(frozen=True)
class Sym:
    body: "Proof"


@dataclass(frozen=True)
class Trans:
    left: "Proof"
    right: "Proof"


@dataclass(frozen=True)
class App:
    symbol: str
    children: tuple["Proof", ...]


@dataclass(frozen=True)
class Sub:
    body: "Proof"
    sigma: Substitution


Proof = Union[Hyp, Refl, Sym, Trans, App, Sub]


def check_proof(sig: Signature, axioms: Sequence[Equation], p: Proof) -> Equation:
    """Synthesize the conclusion of p, or raise a ProofCheckError."""
    kind = type(p)
    if kind is Hyp:
        if not 0 <= p.index < len(axioms):
            raise BadHypothesisError(
                f"hypothesis index {p.index} outside axioms[0..{len(axioms) - 1}]"
            )
        return axioms[p.index]
    if kind is Refl:
        return Equation(p.term, p.term)
    if kind is Sym:
        inner = check_proof(sig, axioms, p.body)
        return Equation(inner.rhs, inner.lhs)
    if kind is Trans:
        left = check_proof(sig, axioms, p.left)
        right = check_proof(sig, axioms, p.right)
        if left.rhs != right.lhs:
            raise TransMismatchError(left.rhs, right.lhs)
        return Equation(left.lhs, right.rhs)
    if kind is App:
        arity = sig.arity(p.symbol)
        if len(p.children) != arity:
            raise ProofArityError(
                f"congruence at {p.symbol} needs {arity} subproofs, got {len(p.children)}"
            )
        parts = [check_proof(sig, axioms, c) for c in p.children]
        return Equation(
            TApp(p.symbol, tuple(e.lhs for e in parts)),
            TApp(p.symbol, tuple(e.rhs for e in parts)),
        )
    if kind is Sub:
        inner = check_proof(sig, axioms, p.body)
        return Equation(
            substitute(p.sigma, inner.lhs), substitute(p.sigma, inner.rhs)
        )
    raise ProofCheckError(f"not a proof node: {p!r}")


def match_term(pattern: Term, target: Term, binding: dict[str, Term]) -> bool:
    """One-way matching: extend binding so that substituting it into the
    pattern yields the target."""
    if type(pattern) is Var:
        bound = binding.get(pattern.name)
        if bound is None:
            binding[pattern.name] = target
            return True
        return bound == target
    if type(target) is not TApp or pattern.symbol != target.symbol:
        return False
    if len(pattern.children) != len(target.children):
        return False
    return all(
        match_term(pc, tc, binding)
        for pc, tc in zip(pattern.children, target.children)
    )


def match_equation(axiom: Equation, goal: Equation) -> Substitution | None:
    binding: dict[str, Term] = {}
    if match_term(axiom.lhs, goal.lhs, binding) and match_term(
        axiom.rhs, goal.rhs, binding
    ):
        return Substitution(binding)
    return None


@dataclass(frozen=True)
class SearchLimits:
    max_depth: int = 4
    max_term_size: int = 24
    node_budget: int = 50_000


@dataclass(frozen=True)
class SearchOutcome:
    """status is "found", with its proof; "refuted", with its countermodel,
    an environment in a model of the axioms under which the goal's sides
    differ, so the goal follows at no depth; "exhausted": no proof within
    the limits and no countermodel, so the goal may still follow by a
    deeper or larger proof; or "budget": the node budget ran out first.

    model_step says why the size-2 countermodel step, once it has run
    without refuting, found no countermodel: "complete" (no size-2 model
    of the axioms fails the goal), "capped" (caps stopped it, so raising
    them may still refute the goal) or "arities" (a symbol is used at two
    arities, so no algebra interprets them all).  It is None when the
    search ended before the step or refuted.
    """

    status: str
    proof: Proof | None = None
    countermodel: Environment | None = None
    model_step: str | None = None


class _BudgetExhausted(Exception):
    pass


@dataclass(slots=True)
class _Search:
    """The state of one search_proof call.  Its helpers take it as an
    argument: recursive closures would be reference cycles, left to the
    cyclic collector after every call."""

    axioms: Sequence[Equation]
    swapped: list[Equation]
    max_term_size: int
    budget: int
    failed: dict[Equation, int]


def search_proof(
    sig: Signature,
    axioms: Sequence[Equation],
    goal: Equation,
    limits: SearchLimits = SearchLimits(),
    caps: Caps = DEFAULT_CAPS,
) -> SearchOutcome:
    """Iterative-deepening search for a proof of the goal.

    Deterministic for fixed limits and caps; sound by construction (every
    proof and every countermodel re-checks).  After the pass at depth
    min(2, max_depth) finds no proof, a countermodel of size 2 ends the
    search as "refuted" at once; else the deeper passes run, and when they
    find no proof either the search is "exhausted", never "refuted".
    """
    if limits.max_depth < 1 or limits.node_budget < 1:
        raise ValueError("limits must be positive")
    swapped = [Equation(a.rhs, a.lhs) for a in axioms]
    search = _Search(axioms, swapped, limits.max_term_size, limits.node_budget, {})
    model_step = None
    try:
        for depth in range(1, limits.max_depth + 1):
            search.failed.clear()
            proof = _prove(search, goal, depth)
            if proof is not None:
                if check_proof(sig, axioms, proof) != goal:
                    raise UalgError(f"search_proof built a proof that does not conclude {goal}")
                return SearchOutcome("found", proof, model_step=model_step)
            if depth == min(2, limits.max_depth):
                bounded = replace(caps, cells=min(caps.cells, limits.node_budget))
                countermodel, model_step = _countermodel(axioms, goal, bounded)
                if countermodel is not None:
                    return SearchOutcome("refuted", countermodel=countermodel)
    except _BudgetExhausted:
        return SearchOutcome("budget", model_step=model_step)
    return SearchOutcome("exhausted", model_step=model_step)


def _countermodel(axioms: Sequence[Equation], goal: Equation, caps: Caps) -> tuple[Environment | None, str | None]:
    """The goal's first counterexample in the first size-2 model of the
    axioms, in ascending table order, that fails it, and None; or None and
    why there is none, as SearchOutcome.model_step reads it.  Size 1 is
    never tried: the trivial algebra satisfies every equation."""
    try:
        sig = infer_signature([*axioms, goal])
    except UalgError:  # one symbol at two arities: no algebra interprets both
        return None, "arities"
    try:
        for model in find_models(sig, axioms, 2, caps)[0]:
            res = satisfies(model, goal, caps)
            if not res.holds:
                failing = mod_check(model, axioms, caps).failing_index
                if failing is not None:
                    raise UalgError(f"countermodel {model.tables} fails axiom {failing}")
                return res.counterexample, None
    except CapExceededError:
        return None, "capped"
    return None, "complete"


def _prove(search: _Search, g: Equation, depth: int) -> Proof | None:
    search.budget -= 1
    if search.budget < 0:
        raise _BudgetExhausted
    failed = search.failed
    if failed.get(g, 0) >= depth:
        return None
    if g.lhs == g.rhs:
        return Refl(g.lhs)
    for i, (a, swapped) in enumerate(zip(search.axioms, search.swapped)):
        if a == g:
            return Hyp(i)
        if swapped == g:
            return Sym(Hyp(i))
        sigma = match_equation(a, g)
        if sigma is not None:
            return Sub(Hyp(i), sigma)
        sigma = match_equation(swapped, g)
        if sigma is not None:
            return Sub(Sym(Hyp(i)), sigma)
    if depth > 1:
        if (
            type(g.lhs) is TApp
            and type(g.rhs) is TApp
            and g.lhs.symbol == g.rhs.symbol
            and len(g.lhs.children) == len(g.rhs.children)
        ):
            parts = []
            for lc, rc in zip(g.lhs.children, g.rhs.children):
                part = _prove(search, Equation(lc, rc), depth - 1)
                if part is None:
                    break
                parts.append(part)
            else:
                return App(g.lhs.symbol, tuple(parts))
        flipped = _prove(search, Equation(g.rhs, g.lhs), depth - 1)
        if flipped is not None:
            return Sym(flipped)
        for r in _middles(search, g.lhs, g.rhs):
            left = _prove(search, Equation(g.lhs, r), depth - 1)
            if left is None:
                continue
            right = _prove(search, Equation(r, g.rhs), depth - 1)
            if right is not None:
                return Trans(left, right)
    failed[g] = max(failed.get(g, 0), depth)
    return None


def _middles(search: _Search, p: Term, q: Term) -> list[Term]:
    """Candidate bridging terms: subterms of both sides and of the axioms,
    plus single root rewrites of either side."""
    out: list[Term] = []
    seen: set[Term] = set()
    pool: list[Term] = []
    pool.extend(subterms(p))
    pool.extend(subterms(q))
    for a in search.axioms:
        pool.extend((a.lhs, a.rhs))
    for side in (p, q):
        for a in itertools.chain(search.axioms, search.swapped):
            binding: dict[str, Term] = {}
            if match_term(a.lhs, side, binding) and all(
                v in binding for v in term_vars(a.rhs)
            ):
                pool.append(substitute(Substitution(binding), a.rhs))
    for t in pool:
        if t not in seen and t != p and t != q:
            if term_size(t) <= search.max_term_size:
                seen.add(t)
                out.append(t)
    return out


def collect_proof_arities(p: Proof, arities: dict[str, int]) -> None:
    """Record symbol arities used anywhere in a proof tree."""
    kind = type(p)
    if kind is Refl:
        collect_arities(p.term, arities)
    elif kind is Sym:
        collect_proof_arities(p.body, arities)
    elif kind is Trans:
        collect_proof_arities(p.left, arities)
        collect_proof_arities(p.right, arities)
    elif kind is App:
        known = arities.setdefault(p.symbol, len(p.children))
        if known != len(p.children):
            raise ProofArityError(
                f"symbol {p.symbol} used with arities {known} and {len(p.children)}"
            )
        for c in p.children:
            collect_proof_arities(c, arities)
    elif kind is Sub:
        collect_proof_arities(p.body, arities)
        for t in p.sigma.assoc.values():
            collect_arities(t, arities)


@dataclass(frozen=True)
class AuditEntry:
    algebra_index: int
    conclusion: Equation
    holds: bool


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]
    model_indices: tuple[int, ...]

    @property
    def clean(self) -> bool:
        return all(e.holds for e in self.entries)

    def violations(self) -> list[AuditEntry]:
        return [e for e in self.entries if not e.holds]


def soundness_audit(
    sig: Signature,
    axioms: Sequence[Equation],
    proofs: Sequence[Proof],
    model_pool: Sequence[FiniteAlgebra],
) -> AuditReport:
    """Check every proof, then test each conclusion in every pool algebra
    that models the axioms.  Any failing entry is an artifact bug.

    Both tests run in batches, cut as eqlogic.mod_failures states: over
    the pool for the axioms, then over its models for the conclusions.  A
    model that fails a conclusion gets the conclusions after it from
    satisfies, so the entries, and the error raised on an unknown symbol or
    an environment space past the default caps, are those of mod_check and
    satisfies run algebra by algebra."""
    conclusions = [check_proof(sig, axioms, p) for p in proofs]
    failing = {i for _, i, _ in mod_failures(((alg, i) for i, alg in enumerate(model_pool)), axioms)}
    model_indices = [i for i in range(len(model_pool)) if i not in failing]
    holds = {}
    for alg, i, k in mod_failures(((model_pool[i], i) for i in model_indices), conclusions):
        holds[i] = [True] * k + [False] + [satisfies(alg, eq).holds for eq in conclusions[k + 1 :]]
    entries = [AuditEntry(i, eq, h) for i in model_indices
               for eq, h in zip(conclusions, holds.get(i, itertools.repeat(True)))]
    return AuditReport(tuple(entries), tuple(model_indices))
