"""Satisfaction of term identities by finite algebras and classes.

An algebra satisfies lhs = rhs when both sides evaluate equally under
every environment over the equation's variables; the search order is
lexicographic with variables in first-occurrence order, so the reported
counterexample is reproducible.  mod_failures checks a stream of
algebras in batches on shared byte lanes; a batch decides only which
members fail, and a batch that raises is answered by mod_check, one
algebra at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TypeVar

from .core import (
    DEFAULT_CAPS,
    Caps,
    FiniteAlgebra,
    Signature,
    UalgError,
    same_signature,
)
from .terms import (
    Environment,
    Equation,
    Term,
    Var,
    _walk,
    check_term,
    enumerate_terms,
    environment_columns,
    equation_vars,
    fingerprints,
    joined_columns,
    members_plan,
    term_columns,
)

L = TypeVar("L")


@dataclass(frozen=True)
class SatResult:
    """Whether the identity holds and, when it fails, the first refuting
    environment; class_satisfies and mod_check also give the index of the
    first failing member or equation."""

    holds: bool
    counterexample: Environment | None = None
    failing_index: int | None = None


def satisfies(alg: FiniteAlgebra, eq: Equation, caps: Caps = DEFAULT_CAPS) -> SatResult:
    """Decide alg |= eq by checking every environment over its variables."""
    names = equation_vars(eq)
    caps.check_env_space(alg.size, names)
    ops, n = alg._ops, alg.size
    # every environment binds the equation's variables to carrier elements,
    # so the tree walk needs none of evaluate's binding checks
    for values in itertools.product(range(n), repeat=len(names)):
        rho = dict(zip(names, values))
        if _walk(eq.lhs, rho, ops, n) != _walk(eq.rhs, rho, ops, n):
            return SatResult(False, Environment(alg, rho))
    return SatResult(True)


def class_satisfies(
    K: Sequence[FiniteAlgebra], eq: Equation, caps: Caps = DEFAULT_CAPS
) -> SatResult:
    """Conjunction of satisfies over K; empty classes hold vacuously."""
    for i, alg in enumerate(K):
        res = satisfies(alg, eq, caps)
        if not res.holds:
            return SatResult(False, res.counterexample, i)
    return SatResult(True)


def mod_check(alg: FiniteAlgebra, E: Sequence[Equation], caps: Caps = DEFAULT_CAPS) -> SatResult:
    """Membership of alg in the model class of the finite equation list E;
    failing_index names the first equation of E that alg fails."""
    for i, eq in enumerate(E):
        res = satisfies(alg, eq, caps)
        if not res.holds:
            return SatResult(False, res.counterexample, i)
    return SatResult(True)


# The most environments a batch of mod_failures joins for one equation:
# past it, sharing a plan saves no per-node work and only holds more memory.
_BATCH_WIDTH = 1 << 15


def mod_failures(
    labelled: Iterable[tuple[FiniteAlgebra, L]],
    E: Sequence[Equation],
    caps: Caps = DEFAULT_CAPS,
) -> Iterator[tuple[FiniteAlgebra, L, int]]:
    """mod_check over a stream of (algebra, label) pairs: each algebra that
    fails E, in order, with its label and the index of the first equation
    it fails (satisfies replays it for a witness).

    Consecutive algebras of one signature are checked in batches on one
    lane plan, while the sizes' n^top (top the largest arity) sum to at
    most 256, core.lane_plan's fit rule, and while each equation has at
    most _BATCH_WIDTH environments over the batch.  Each equation's two
    sides are computed once per batch on the members' environment columns,
    shifted and joined (terms.joined_columns), and each member's slices
    compared.  A batch of one is the same routine on the algebra's cached
    plan, or on lists past the fit rule.  The plan is built once per batch
    (terms.members_plan).

    A batch that raises any UalgError is checked again by mod_check, one
    algebra at a time: its failures before the error are yielded, then
    mod_check's own error is raised.  An error from labelled itself comes
    only after the algebras before it are checked.  So a consumer that
    stops at the first failure sees mod_check's first failure, whatever
    follows.  labelled is read lazily, at most one algebra past each batch.
    """
    envs: dict = {}  # (equation index, size) -> environment columns
    names = [equation_vars(eq) for eq in E]
    span = max([len(v) for v in names], default=0)
    for batch in _batches(labelled, span):
        try:
            first = _first_failures([alg for alg, _ in batch], E, names, caps, envs)
        except UalgError:  # replayed below by mod_check, which raises its own error
            first = None
        for j, (alg, label) in enumerate(batch):
            i = mod_check(alg, E, caps).failing_index if first is None else first[j]
            if i is not None:
                yield alg, label, i


def _batches(labelled: Iterable[tuple[FiniteAlgebra, L]], span: int) -> Iterator[list[tuple[FiniteAlgebra, L]]]:
    """labelled cut into runs of one signature that fit one lane plan, with
    at most _BATCH_WIDTH environments of span variables.  An error that
    labelled raises comes after the run before it is yielded."""
    batch: list = []
    sig = None
    try:
        for item in labelled:
            alg = item[0]
            if alg.sig is not sig and alg.sig != sig:
                sig, top = alg.sig, max([1] + [arity for _, arity in alg.sig.ops])
                if batch:
                    yield batch
                    batch = []
            # past arity 8 no plan fits (see core.lane_plan): runs of one
            cost, count = alg.size**top if top <= 8 else 257, alg.size**span
            if batch and weight + cost <= 256 and width + count <= _BATCH_WIDTH:
                batch.append(item)
                weight, width = weight + cost, width + count
                continue
            if batch:
                yield batch
            batch, weight, width = [item], cost, count
    except UalgError:  # labelled's own, raised once the run before it is checked
        if batch:
            yield batch
        raise
    if batch:
        yield batch


def _first_failures(
    K: list[FiniteAlgebra], E: Sequence[Equation], names: list, caps: Caps, envs: dict
) -> list[int | None]:
    """Each member's first failing equation of E, or None, read from the
    joined columns; raises the first UalgError any member meets."""
    first: list = [None] * len(K)
    plan = members_plan(K)
    for i, eq in enumerate(E):
        columns = []
        for alg in K:
            cols = envs.get((i, alg.size))
            if cols is None:
                caps.check_env_space(alg.size, names[i])
                cols = envs[i, alg.size] = environment_columns(names[i], alg.size)
            columns.append(cols)
        lhs, rhs = joined_columns(K, (eq.lhs, eq.rhs), columns, plan)
        if lhs != rhs:
            at = 0
            for j, alg in enumerate(K):
                end = at + alg.size ** len(names[i])
                if first[j] is None and lhs[at:end] != rhs[at:end]:
                    first[j] = i
                at = end
    return first


def find_models(
    sig: Signature, E: Sequence[Equation], size: int, caps: Caps = DEFAULT_CAPS
) -> tuple[tuple[FiniteAlgebra, ...], int]:
    """The models of E on the carrier {0..size-1}, up to isomorphism: the
    least table of each class, in ascending table order, and the number of
    all models, the sum of size!/|Aut| over the classes.

    The table cells are filled op by op, row-major, values ascending, so
    the leaves come in ascending table order.  An equation instance (one
    equation under one environment) waits on the first undecided cell it
    reads and is re-evaluated only when that cell is assigned; a branch
    stops at the first instance whose sides disagree.  A leaf is kept when
    no relabelling of the carrier gives a smaller table: the least table of
    its class.  Every kept table is re-checked by mod_check.  Raises
    CapExceededError when the tables have more than caps.cells cells, when
    an equation has more than caps.cells environments, and when cells
    assigned plus relabellings tried pass caps.cells.
    """
    if size < 1:
        raise ValueError("carrier must be nonempty")
    offsets, widths = {}, []
    for name, arity in sig.ops:
        offsets[name] = sum(widths)
        widths.append(size**arity)
    n_cells = sum(widths)
    # checked before the per-cell lists are built
    caps.check("cells", n_cells, f"model search table cells at size {size}")
    instances = []
    for eq in E:
        names = equation_vars(eq)
        caps.check_env_space(size, names)
        pos = {name: i for i, name in enumerate(names)}
        sides = []
        for side in (eq.lhs, eq.rhs):
            check_term(sig, side)
            sides.append(_compile(side, pos, offsets))
        instances.extend(
            (*sides, env) for env in itertools.product(range(size), repeat=len(names))
        )

    cells = [-1] * n_cells  # -1: undecided
    waiting: list[list] = [[] for _ in range(n_cells)]
    if _propagate(instances, cells, size, waiting) is None:
        return (), 0
    args_of = {
        arity: list(itertools.product(range(size), repeat=arity)) for _, arity in sig.ops
    }
    spans = [(offsets[name], args_of[arity]) for name, arity in sig.ops]
    reps, count, work, cap = [], 0, 0, caps.cells
    what = f"model search work at size {size} (cells assigned plus relabellings tried)"
    tried = [0] * n_cells  # next value to try at each cell
    added: list = [None] * n_cells  # cells whose waiting lists each cell appended to
    d = 0
    while d >= 0:
        if d == n_cells:  # every cell decided and every instance holds
            aut = 1
            for perm in itertools.islice(itertools.permutations(range(size)), 1, None):
                work += 1
                if work > cap:
                    caps.check("cells", work, what)
                order = _relabel_order(cells, spans, perm, size)
                if order < 0:
                    break
                aut += order == 0
            else:
                rep = _model(sig, widths, cells, size)
                res = mod_check(rep, E, caps)
                if not res.holds:
                    raise UalgError(
                        f"model search: {rep.tables} fails equation {res.failing_index}"
                    )
                reps.append(rep)
                count += math.factorial(size) // aut
            d -= 1
            continue
        for c in added[d] or ():
            waiting[c].pop()
        value = tried[d]
        if value == size:
            cells[d], tried[d], added[d] = -1, 0, None
            d -= 1
            continue
        work += 1
        if work > cap:
            caps.check("cells", work, what)
        cells[d], tried[d] = value, value + 1
        added[d] = _propagate(waiting[d], cells, size, waiting)
        if added[d] is not None:
            d += 1
    return tuple(reps), count


def _compile(t: Term, pos: dict[str, int], offsets: dict[str, int]):
    """A variable as its environment position; an application as its
    op's first cell and its compiled children."""
    if type(t) is Var:
        return pos[t.name]
    return (offsets[t.symbol], tuple([_compile(c, pos, offsets) for c in t.children]))


def _partial_value(node, env: tuple[int, ...], cells: list[int], n: int) -> int:
    """The node's value, or -1 - c for the first undecided cell c it reads."""
    if type(node) is int:
        return env[node]
    offset, children = node
    idx = 0
    for c in children:
        v = env[c] if type(c) is int else _partial_value(c, env, cells, n)
        if v < 0:
            return v
        idx = idx * n + v
    v = cells[offset + idx]
    return v if v >= 0 else -1 - offset - idx


def _propagate(instances, cells: list[int], n: int, waiting: list[list]) -> list[int] | None:
    """Evaluate the instances: None at the first whose sides disagree, else
    the cells whose waiting lists got the instances still pending."""
    added = []
    for inst in instances:
        lhs = _partial_value(inst[0], inst[2], cells, n)
        if lhs >= 0:
            rhs = _partial_value(inst[1], inst[2], cells, n)
            if rhs >= 0:
                if lhs != rhs:
                    for c in reversed(added):
                        waiting[c].pop()
                    return None
                continue
            lhs = rhs
        waiting[-1 - lhs].append(inst)
        added.append(-1 - lhs)
    return added


def _relabel_order(cells: list[int], spans, perm: tuple[int, ...], n: int) -> int:
    """-1, 0 or 1 as the tables relabelled by perm are less than, equal to
    or greater than the tables themselves, cell by cell."""
    inv = [0] * n
    for a, b in enumerate(perm):
        inv[b] = a
    for offset, args in spans:
        for j, tup in enumerate(args):
            i = 0
            for b in tup:
                i = i * n + inv[b]
            v, w = perm[cells[offset + i]], cells[offset + j]
            if v != w:
                return -1 if v < w else 1
    return 0


def _model(sig: Signature, widths: list[int], cells: list[int], n: int) -> FiniteAlgebra:
    tables, start = [], 0
    for width in widths:
        tables.append(tuple(cells[start : start + width]))
        start += width
    return FiniteAlgebra._trusted(sig, n, tuple(tables))


@dataclass(frozen=True)
class TheoryPartition:
    """The enumerated terms, partitioned by the kernel of the natural map
    onto the free algebra: two terms share a class exactly when every
    member of the class K gives them the same value column (their
    fingerprints, the columns joined across K, are equal), which is when K
    satisfies their identity.  Each class lists term indices ascending;
    classes are ordered by their least member.  fileio.theory_text_rows
    writes the pairs as text, each term rendered once, one row per term."""

    variables: tuple[str, ...]
    terms: list[Term]
    classes: list[list[int]]

    @property
    def pair_count(self) -> int:
        """Number of equations in the theory: the sum of |class|^2."""
        return sum(len(c) ** 2 for c in self.classes)

    def rows(self) -> Iterator[tuple[int, list[int]]]:
        """Each term index p, ascending, with its class (q ascending): the
        one pairing order, lexicographic in (p, q), that equations() and
        fileio.theory_text_rows both read."""
        class_of = {i: cls for cls in self.classes for i in cls}
        for p in range(len(self.terms)):
            yield p, class_of[p]

    def equations(self) -> Iterator[Equation]:
        """Every pair (p, q) within a class, in rows() order."""
        terms = self.terms
        for p, cls in self.rows():
            t = terms[p]
            for q in cls:
                yield Equation(t, terms[q])

    def first_failure(self, alg: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> Equation | None:
        """The first equation, in equations() order, that alg fails, if any.

        That is the first class alg's value columns do not keep constant,
        with its least member p and the first member whose column differs
        from p's: every p' below p lies in a class alg keeps constant.
        """
        caps.check_env_space(alg.size, self.variables)
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
        raise ValueError("a theory needs a nonempty class to fix the signature")
    sig = same_signature(*K)
    for alg in K:
        caps.check_env_space(alg.size, variables)
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
