"""Terms over a signature: substitution, evaluation, and enumeration.

A term is a finite tree of variables and operation applications.  Depth
counts operation layers above the leaves; applications of nullary symbols
are leaves (depth 0), so depth-0 terms are exactly the generator layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence, Union

from .core import (
    DEFAULT_CAPS,
    Caps,
    FiniteAlgebra,
    OutOfRangeError,
    Signature,
    UalgError,
    _bad_application,
    apply_op,
    lane_plan,
    lane_pointwise,
)


class UnboundVariableError(UalgError):
    pass


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True, slots=True)
class App:
    symbol: str
    children: tuple["Term", ...] = ()

    def __str__(self) -> str:
        """Canonical surface form: no spaces, nullary symbols written bare."""
        if not self.children:
            return self.symbol
        return f"{self.symbol}({','.join(map(str, self.children))})"


Term = Union[Var, App]


def depth(t: Term) -> int:
    if type(t) is Var or not t.children:
        return 0
    return 1 + max(depth(c) for c in t.children)


def term_size(t: Term) -> int:
    """Number of tree nodes."""
    if type(t) is Var:
        return 1
    return 1 + sum(term_size(c) for c in t.children)


def subterms(t: Term) -> Iterator[Term]:
    """t and all its subterms, pre-order."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        if type(node) is App:
            stack.extend(reversed(node.children))


def term_vars(t: Term) -> list[str]:
    """Variable names in order of first occurrence."""
    seen: dict[str, None] = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if type(node) is Var:
            seen.setdefault(node.name, None)
        else:
            stack.extend(reversed(node.children))
    return list(seen)


def check_term(sig: Signature, t: Term) -> None:
    """Raise unless every application matches its symbol's arity, for the
    first bad one in pre-order."""
    for node in subterms(t):
        if type(node) is App and len(node.children) != (arity := sig.arity(node.symbol)):
            _bad_application(node.symbol, arity, len(node.children))


@dataclass(frozen=True)
class Substitution:
    """Maps variable names to terms; unlisted variables map to themselves."""

    assoc: Mapping[str, Term]

    def lookup(self, name: str) -> Term:
        image = self.assoc.get(name)
        return Var(name) if image is None else image


def substitute(sigma: Substitution, t: Term) -> Term:
    return _substitute(sigma.assoc, t)


def _substitute(assoc: Mapping[str, Term], t: Term) -> Term:
    if type(t) is Var:
        image = assoc.get(t.name)
        return t if image is None else image
    return App(t.symbol, tuple([_substitute(assoc, c) for c in t.children]))


@dataclass
class Environment:
    """An assignment of carrier values to variables, tied to an algebra."""

    alg: FiniteAlgebra
    assoc: dict[str, int]

    def __post_init__(self) -> None:
        for name, value in self.assoc.items():
            if not 0 <= value < self.alg.size:
                raise ValueError(f"binding {name}={value} outside carrier")

    def __str__(self) -> str:
        return " ".join(f"{name}={value}" for name, value in self.assoc.items())


def _checked_bindings(rho: Environment | Mapping[str, int], n: int) -> Mapping[str, int]:
    """rho's bindings; OutOfRangeError unless each lies in the carrier 0..n-1."""
    bindings = rho.assoc if isinstance(rho, Environment) else rho
    for name, value in bindings.items():
        if not 0 <= value < n:
            raise OutOfRangeError(f"binding {name}={value} outside carrier 0..{n - 1}")
    return bindings


def evaluate(alg: FiniteAlgebra, t: Term, rho: Environment | Mapping[str, int]) -> int:
    """Interpret t in alg under the variable bindings of rho."""
    bindings = _checked_bindings(rho, alg.size)
    try:
        return _walk(t, bindings, alg._ops, alg.size)
    except KeyError as e:  # only binding lookups raise it
        raise UnboundVariableError(f"unbound variable ?{e.args[0]}") from None


def _walk(node: Term, bindings: Mapping[str, int], ops: dict, n: int) -> int:
    # Module-level rather than a closure per call: a recursive closure is a
    # reference cycle, so each call would also leave garbage for the collector.
    if type(node) is Var:
        return bindings[node.name]
    entry = ops.get(node.symbol)
    if entry is None or len(node.children) != entry[0]:
        _bad_application(node.symbol, entry and entry[0], len(node.children))
    idx = 0
    for c in node.children:  # a variable child is read here, not by a call
        idx = idx * n + (bindings[c.name] if type(c) is Var else _walk(c, bindings, ops, n))
    return entry[1][idx]


def environment_columns(variables: Sequence[str], size: int) -> dict[str, Sequence[int]]:
    """Each variable's value over all_environments(variables, size), in
    order: byte lanes when size <= 256, else lists.  Variable i repeats each
    value size^(k-1-i) times and tiles that run size^i times."""
    k = len(variables)
    if size <= 256:
        return {v: b"".join([bytes((a,)) * size ** (k - 1 - i) for a in range(size)]) * size**i
                for i, v in enumerate(variables)}
    envs = list(itertools.product(range(size), repeat=k))
    return {name: [env[pos] for env in envs] for pos, name in enumerate(variables)}


def term_columns(
    alg: FiniteAlgebra, terms: Sequence[Term], columns: Mapping[str, Sequence[int]]
) -> list[Sequence[int]]:
    """Each term's value column: its values in alg under a list of
    environments, given as one column of values per variable (see
    environment_columns); with no variables there is one environment.

    Works bottom-up and computes each distinct subterm object once, one
    application of the lane kernel (lane_pointwise) per node when alg fits
    in byte lanes, else of a list comprehension: so the children that
    enumerate_terms and build_free's representatives share are never walked
    twice.  The columns are bytes on the lanes and lists otherwise.  Raises
    what evaluate raises, for the first term on which evaluate would raise.
    Columns are shared (a variable's is the one passed in, a repeated
    subterm's is computed once): treat them as read-only.
    """
    return joined_columns([alg], terms, [columns], alg._lanes)


def members_plan(K: Sequence[FiniteAlgebra]) -> dict[str, tuple[tuple[bytes, ...], bytes]] | None:
    """joined_columns' plan for the members K: one member's cached plan,
    else core.lane_plan over them all (None past its fit rule)."""
    return K[0]._lanes if len(K) == 1 else lane_plan(K, K[0].sig)


def joined_columns(
    K: Sequence[FiniteAlgebra],
    terms: Sequence[Term],
    columns: Sequence[Mapping[str, Sequence[int]]],
    plan: dict[str, tuple[tuple[bytes, ...], bytes]] | None,
) -> list[Sequence[int]]:
    """term_columns on members of one signature at once: each term's value
    columns in K[0], K[1], .. joined, member k's over its environment
    columns columns[k].  The members share one lane plan, members_plan(K),
    so each node is one kernel application for all of them, and member k's
    lanes hold its values plus |K[0]| + .. + |K[k-1]|: two columns agree on
    a member's slice exactly when its values do.  One member past the
    plan's fit rule runs on lists (term_columns' path); several raise
    ValueError.
    """
    if plan is None:
        if len(K) > 1:
            raise ValueError("the members do not fit one lane plan")
        return _list_columns(K[0], terms, columns[0])
    if len(K) == 1:  # no shift
        (columns,) = columns
        lanes = {name: bytes(col) for name, col in columns.items()}
        members = bytes(_width(columns))
    else:
        members = b"".join([bytes((k,)) * _width(cols) for k, cols in enumerate(columns)])
        # one carry-free add shifts each member's lanes by its offset
        offsets = bytes(itertools.accumulate([alg.size for alg in K[:-1]], initial=0)).ljust(256, b"\0")
        shift = int.from_bytes(members.translate(offsets), "little")
        lanes = {}
        for name in columns[0]:
            lane = b"".join([bytes(cols[name]) for cols in columns])
            lanes[name] = (int.from_bytes(lane, "little") + shift).to_bytes(len(lane), "little")
    apply = lane_pointwise(plan, members)
    done: dict[int, Sequence[int]] = {}
    return [_column(t, done, lanes, K[0]._ops, apply) for t in terms]


def _list_columns(
    alg: FiniteAlgebra, terms: Sequence[Term], columns: Mapping[str, Sequence[int]]
) -> list[list[int]]:
    """term_columns on lists alone, sharing no code with the lane kernel."""
    table_of, n, width = alg._ops, alg.size, _width(columns)

    def apply(name: str, args: Sequence[Sequence[int]]) -> list[int]:
        table = table_of[name][1]
        if not args:
            return [table[0]] * width
        # row-major indices a column at a time: no call per cell
        idx = args[0]
        for c in args[1:]:
            idx = [i * n + v for i, v in zip(idx, c)]
        return [table[i] for i in idx]

    lists = {name: list(col) for name, col in columns.items()}
    done: dict[int, Sequence[int]] = {}
    return [_column(t, done, lists, table_of, apply) for t in terms]


def _width(columns: Mapping[str, Sequence[int]]) -> int:
    return len(next(iter(columns.values()), (0,)))


def _column(
    node: Term,
    done: dict[int, Sequence[int]],
    columns: Mapping[str, Sequence[int]],
    ops: dict,
    apply: Callable[[str, Sequence], Sequence[int]],
) -> Sequence[int]:
    # done is keyed by id: every node stays reachable from terms during the call
    if type(node) is Var:
        try:
            return columns[node.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable ?{node.name}") from None
    col = done.get(id(node))
    if col is not None:
        return col
    entry = ops.get(node.symbol)
    if entry is None or len(node.children) != entry[0]:
        _bad_application(node.symbol, entry and entry[0], len(node.children))
    col = done[id(node)] = apply(
        node.symbol, [_column(c, done, columns, ops, apply) for c in node.children]
    )
    return col


def fingerprints(
    K: Sequence[FiniteAlgebra], terms: Sequence[Term], variables: Sequence[str]
) -> list[tuple[int, ...]]:
    """Each term's value columns in the members of K over all environments
    of the variables, joined in class order: its evaluation tuple at the
    (member, environment) coordinates of the free algebra of V(K)."""
    return _fingerprints(K, terms, variables, term_columns)


def _list_fingerprints(
    K: Sequence[FiniteAlgebra], terms: Sequence[Term], variables: Sequence[str]
) -> list[tuple[int, ...]]:
    """fingerprints on the list kernel alone, for the free algebra's
    soundness re-check: it shares no code with the lanes it checks."""
    return _fingerprints(K, terms, variables, _list_columns)


def _fingerprints(K, terms, variables, columns_of) -> list[tuple[int, ...]]:
    per_alg = [columns_of(alg, terms, environment_columns(variables, alg.size)) for alg in K]
    if not per_alg:
        return [() for _ in terms]
    out = []
    for columns in zip(*per_alg):
        joined: list[int] = []
        for col in columns:
            joined += col
        # Built from a list, so the tuple is allocated at its final size.
        # A tuple built from a generator is resized as it grows; once freed
        # it goes to a free list that such builds never draw from, and only
        # a full garbage collection empties it.
        out.append(tuple(joined))
    return out


def free_lift(
    alg: FiniteAlgebra, h: Environment | Mapping[str, int], t: Term
) -> int:
    """Extend the variable assignment h to the whole term tree.

    Same value as evaluate(alg, t, h); computed by an explicit post-order
    so the agreement is a meaningful test rather than shared code.
    """
    h = _checked_bindings(h, alg.size)
    out: dict[int, int] = {}
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if type(node) is Var:
            if node.name not in h:
                raise UnboundVariableError(f"unbound variable ?{node.name}")
            out[id(node)] = h[node.name]
        elif expanded:
            out[id(node)] = apply_op(
                alg, node.symbol, [out[id(c)] for c in node.children]
            )
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
    return out[id(t)]


@dataclass(frozen=True)
class Equation:
    """An ordered pair of terms read as the identity lhs = rhs."""

    lhs: Term
    rhs: Term

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


def equation_vars(eq: Equation) -> list[str]:
    """Variables of both sides, in first-occurrence order (lhs first)."""
    return list(dict.fromkeys(term_vars(eq.lhs) + term_vars(eq.rhs)))


def collect_arities(t: Term, arities: dict[str, int]) -> None:
    """Record symbol arities from usage; raise on conflicting use."""
    for node in subterms(t):
        if type(node) is App:
            known = arities.setdefault(node.symbol, len(node.children))
            if known != len(node.children):
                raise UalgError(
                    f"symbol {node.symbol} used with arities {known} "
                    f"and {len(node.children)}"
                )


def infer_signature(equations: Sequence[Equation]) -> Signature:
    """Signature implied by the symbols of the equations, in name order."""
    arities: dict[str, int] = {}
    for eq in equations:
        collect_arities(eq.lhs, arities)
        collect_arities(eq.rhs, arities)
    return Signature(tuple(sorted(arities.items())))


def enumerate_terms(
    sig: Signature, variables: Sequence[str], max_depth: int, caps: Caps = DEFAULT_CAPS
) -> list[Term]:
    """All distinct terms of depth <= max_depth, deterministically ordered.

    Layer 0 is variables (in the given order) then nullary symbols (in
    signature order); layer d applies each symbol of arity >= 1, in
    signature order, to child tuples drawn lexicographically by index from
    the layers below, keeping tuples whose deepest child has depth d-1.
    A layer is refused before it is built, naming the total, when base terms
    and its base^r - start^r tuples per r-ary symbol pass caps.cells.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if len(set(variables)) != len(variables):
        raise ValueError("variable names must be distinct")
    terms: list[Term] = [Var(v) for v in variables]
    terms.extend(App(c) for c in sig.constants())
    caps.check("cells", len(terms), "terms enumerated")
    start = 0  # the last layer is terms[start:base]; each new term has a child there
    for _ in range(max_depth):
        base = len(terms)
        caps.check("cells", base + sum([base**r - start**r for _, r in sig.ops if r]), "terms enumerated")
        terms += [App(name, tuple([terms[i] for i in combo]))
                  for name, arity in sig.ops if arity
                  for combo in itertools.product(range(base), repeat=arity) if max(combo) >= start]
        if len(terms) == base:
            break
        start = base
    return terms


def all_environments(
    variables: Sequence[str], size: int
) -> Iterator[dict[str, int]]:
    """Environments over the variables in lexicographic value order."""
    for values in itertools.product(range(size), repeat=len(variables)):
        yield dict(zip(variables, values))
