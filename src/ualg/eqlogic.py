"""Satisfaction of term identities by finite algebras and classes.

An algebra satisfies lhs = rhs when both sides evaluate equally under
every environment over the equation's variables; the search order is
lexicographic with variables in first-occurrence order, so the reported
counterexample is reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import DEFAULT_CAPS, CapExceededError, Caps, FiniteAlgebra, same_signature
from .terms import (
    Environment,
    Equation,
    Term,
    _walk,
    enumerate_terms,
    environment_columns,
    equation_vars,
    fingerprints,
    term_columns,
)

def _check_env_space(alg: FiniteAlgebra, variables: Sequence[str], caps: Caps) -> None:
    if alg.size ** len(variables) > caps.cells:
        raise CapExceededError(
            f"environment space {alg.size}^{len(variables)} exceeds cap {caps.cells}"
        )


@dataclass(frozen=True)
class SatResult:
    holds: bool
    counterexample: Environment | None = None


def satisfies(alg: FiniteAlgebra, eq: Equation, caps: Caps = DEFAULT_CAPS) -> SatResult:
    """Decide alg |= eq by checking every environment over its variables."""
    names = equation_vars(eq)
    _check_env_space(alg, names, caps)
    ops, n = alg._ops, alg.size
    # every environment binds the equation's variables to carrier elements,
    # so the tree walk needs none of evaluate's binding checks
    for values in itertools.product(range(n), repeat=len(names)):
        rho = dict(zip(names, values))
        if _walk(eq.lhs, rho, ops, n) != _walk(eq.rhs, rho, ops, n):
            return SatResult(False, Environment(alg, rho))
    return SatResult(True)


@dataclass(frozen=True)
class ClassSatResult:
    holds: bool
    failing_index: int | None = None
    counterexample: Environment | None = None


def class_satisfies(
    K: Sequence[FiniteAlgebra], eq: Equation, caps: Caps = DEFAULT_CAPS
) -> ClassSatResult:
    """Conjunction of satisfies over K; empty classes hold vacuously."""
    for i, alg in enumerate(K):
        res = satisfies(alg, eq, caps)
        if not res.holds:
            return ClassSatResult(False, i, res.counterexample)
    return ClassSatResult(True)


def mod_check(
    alg: FiniteAlgebra, E: Sequence[Equation], caps: Caps = DEFAULT_CAPS
) -> ClassSatResult:
    """Membership of alg in the model class of the finite equation list E;
    failing_index names the first equation of E that alg fails."""
    for i, eq in enumerate(E):
        res = satisfies(alg, eq, caps)
        if not res.holds:
            return ClassSatResult(False, i, res.counterexample)
    return ClassSatResult(True)


@dataclass(frozen=True)
class TheoryPartition:
    """The enumerated terms, partitioned by the kernel of the natural map
    onto the free algebra: two terms share a class exactly when every
    member of the class K gives them the same value column (their
    fingerprints, the columns joined across K, are equal), which is when K
    satisfies their identity.  Each class lists term indices ascending;
    classes are ordered by their least member."""

    variables: tuple[str, ...]
    terms: list[Term]
    classes: list[list[int]]

    @property
    def pair_count(self) -> int:
        """Number of equations in the theory: the sum of |class|^2."""
        return sum(len(c) ** 2 for c in self.classes)

    def equations(self) -> Iterator[Equation]:
        """Every pair (p, q) within a class, by p ascending and then q
        ascending: the lexicographic order of the term indices."""
        class_of = {i: cls for cls in self.classes for i in cls}
        terms = self.terms
        for p, t in enumerate(terms):
            for q in class_of[p]:
                yield Equation(t, terms[q])

    def first_failure(self, alg: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> Equation | None:
        """The first equation, in equations() order, that alg fails, if any.

        That is the first class alg's value columns do not keep constant,
        with its least member p and the first member whose column differs
        from p's: every p' below p lies in a class alg keeps constant.
        """
        _check_env_space(alg, self.variables, caps)
        columns = term_columns(
            alg, self.terms, environment_columns(self.variables, alg.size)
        )
        for cls in self.classes:
            p = columns[cls[0]]
            for q in cls[1:]:
                if columns[q] != p:
                    return Equation(self.terms[cls[0]], self.terms[q])
        return None


def theory_partition(
    K: Sequence[FiniteAlgebra],
    variables: Sequence[str],
    max_depth: int,
    caps: Caps = DEFAULT_CAPS,
) -> TheoryPartition:
    """Group the terms of depth <= max_depth over the variables by their
    fingerprint in K.  Raises CapExceededError before any work when some
    member A of K has more than caps.cells environments |A|^|variables|,
    and when there are more than caps.cells terms."""
    if not K:
        raise ValueError("theory_upto needs a nonempty class to fix the signature")
    sig = same_signature(*K)
    for alg in K:
        _check_env_space(alg, variables, caps)
    terms = enumerate_terms(sig, variables, max_depth, caps)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(fingerprints(K, terms, variables)):
        groups.setdefault(key, []).append(i)
    return TheoryPartition(tuple(variables), terms, list(groups.values()))


def theory_upto(
    K: Sequence[FiniteAlgebra],
    variables: Sequence[str],
    max_depth: int,
    caps: Caps = DEFAULT_CAPS,
) -> list[Equation]:
    """The depth- and variable-bounded equational theory of K.

    All ordered pairs (p, q) of enumerated terms that every member of K
    satisfies, in lexicographic (p index, q index) order; the diagonal is
    always included.  See theory_partition for the caps.
    """
    return list(theory_partition(K, variables, max_depth, caps).equations())
