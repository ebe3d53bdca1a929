"""Text formats: algebra files, equations, proof s-expressions, certificates.

All formats are line- or token-oriented UTF-8.  Emission is canonical
(single spaces, signature order, trailing newline) so that emit after
parse is idempotent and parse after emit is the identity.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

from .core import FiniteAlgebra, InvalidTablesError, Signature, UalgError, Violation, decimal
from .closure import HspCertificate
from .eqlogic import TheoryPartition
from .terms import App, Equation, Substitution, Term, Var
from . import entail
from .free import FreeAlgebra

T = TypeVar("T")


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    col_start: int
    col_end: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col_start}-{self.col_end}"


class ParseError(UalgError):
    def __init__(self, message: str, span: SourceSpan):
        self.span = span
        super().__init__(f"{span}: {message}")


class AlgebraValidationError(UalgError):
    """Raised when a parsed algebra fails its table invariants."""

    def __init__(self, failures: list[tuple[str, Violation]]):
        self.failures = failures
        detail = "; ".join(f"{name}: {v}" for name, v in failures)
        super().__init__(f"validation failed: {detail}")


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>[#;][^\n]*)
    | (?P<lparen>\() | (?P<rparen>\)) | (?P<comma>,) | (?P<equals>=)
    | (?P<var>\?[A-Za-z0-9_]+)
    | (?P<int>[0-9]+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)
_OP_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: SourceSpan


class _Tokenizer:
    """Shared scanner for terms, equations and proof s-expressions."""

    def __init__(self, text: str, file: str = "<string>", first_line: int = 1):
        self.tokens: list[Token] = []
        self.pos = 0
        line, col = first_line, 1
        i = 0
        while i < len(text):
            m = _TOKEN_RE.match(text, i)
            if m is None:
                span = SourceSpan(file, line, col, col)
                raise ParseError(f"unexpected character {text[i]!r}", span)
            kind = m.lastgroup
            chunk = m.group()
            if kind not in ("ws", "comment"):
                span = SourceSpan(file, line, col, col + len(chunk) - 1)
                self.tokens.append(Token(kind, chunk, span))
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                col = len(chunk) - chunk.rfind("\n")
            else:
                col += len(chunk)
            i = m.end()
        self.eof_span = SourceSpan(file, line, col, col)

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect: str | None = None) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(
                f"unexpected end of input (wanted {expect or 'a token'})",
                self.eof_span,
            )
        if expect is not None and tok.kind != expect:
            raise ParseError(f"expected {expect}, found {tok.text!r}", tok.span)
        self.pos += 1
        return tok


def _parse_whole(read: Callable[[_Tokenizer], T], tz: _Tokenizer) -> T:
    """read(tz), refusing any input left after it."""
    value = read(tz)
    if (tok := tz.peek()) is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.span)
    return value


def _int(text: str, span: SourceSpan) -> int | None:
    """decimal(text), except that ASCII digits past int's conversion limit
    are a ParseError at span saying so, for a token as for an .alg line."""
    value = decimal(text)
    if value is None and text.isascii() and text.isdigit():
        raise ParseError(f"{len(text)}-digit integer, past the limit of {sys.get_int_max_str_digits()}", span)
    return value


def _parse_term(tz: _Tokenizer) -> Term:
    tok = tz.next()
    if tok.kind == "var":
        return Var(tok.text[1:])
    if tok.kind != "name":
        raise ParseError(f"expected a term, found {tok.text!r}", tok.span)
    nxt = tz.peek()
    if nxt is None or nxt.kind != "lparen":
        return App(tok.text)
    tz.next("lparen")
    if tz.peek() is not None and tz.peek().kind == "rparen":
        tz.next("rparen")
        return App(tok.text)
    children = [_parse_term(tz)]
    while True:
        sep = tz.next()
        if sep.kind == "rparen":
            return App(tok.text, tuple(children))
        if sep.kind != "comma":
            raise ParseError(f"expected ',' or ')', found {sep.text!r}", sep.span)
        children.append(_parse_term(tz))


def _parse_equation(tz: _Tokenizer) -> Equation:
    lhs = _parse_term(tz)
    tz.next("equals")
    return Equation(lhs, _parse_term(tz))


def parse_term(text: str, file: str = "<string>", first_line: int = 1) -> Term:
    return _parse_whole(_parse_term, _Tokenizer(text, file, first_line))


def parse_equation(text: str, file: str = "<string>", first_line: int = 1) -> Equation:
    return _parse_whole(_parse_equation, _Tokenizer(text, file, first_line))


def parse_equation_file(text: str, file: str = "<equations>") -> list[Equation]:
    """One `term = term` per line; '#' or ';' comments; lines without
    tokens ignored.  Spans count columns as the line is written."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tz = _Tokenizer(raw, file, lineno)
        if tz.tokens:
            out.append(_parse_whole(_parse_equation, tz))
    return out


def _parse_proof(tz: _Tokenizer) -> entail.Proof:
    tz.next("lparen")
    head = tz.next("name")
    kind = head.text
    if kind == "hyp":
        tok = tz.next("int")
        node = entail.Hyp(_int(tok.text, tok.span))
    elif kind == "refl":
        node = entail.Refl(_parse_term(tz))
    elif kind == "sym":
        node = entail.Sym(_parse_proof(tz))
    elif kind == "trans":
        node = entail.Trans(_parse_proof(tz), _parse_proof(tz))
    elif kind == "app":
        symbol = tz.next("name")
        children = []
        while tz.peek() is not None and tz.peek().kind == "lparen":
            children.append(_parse_proof(tz))
        node = entail.App(symbol.text, tuple(children))
    elif kind == "sub":
        body = _parse_proof(tz)
        tz.next("lparen")
        bindings: dict[str, Term] = {}
        while True:
            tok = tz.next()
            if tok.kind == "rparen":
                break
            if tok.kind != "lparen":
                raise ParseError(
                    f"expected a (var term) binding, found {tok.text!r}", tok.span
                )
            var_tok = tz.next()
            if var_tok.kind == "var":
                var_name = var_tok.text[1:]
            elif var_tok.kind == "name":
                var_name = var_tok.text
            else:
                raise ParseError(
                    f"expected a variable, found {var_tok.text!r}", var_tok.span
                )
            term = _parse_term(tz)
            tz.next("rparen")
            if var_name in bindings:
                raise ParseError(f"duplicate binding for {var_name}", var_tok.span)
            bindings[var_name] = term
        node = entail.Sub(body, Substitution(bindings))
    else:
        raise ParseError(f"unknown proof constructor {kind!r}", head.span)
    tz.next("rparen")
    return node


def parse_proof(text: str, file: str = "<proof>") -> entail.Proof:
    return _parse_whole(_parse_proof, _Tokenizer(text, file))


def _term_texts(terms: Sequence[Term]) -> list[str]:
    """[str(t) for t in terms] without recursion: enumerate_terms and free
    representatives list each child before its parent, so each application
    is printed once from its children's texts (any other child by str)."""
    done: dict[int, str] = {}  # keyed by id: terms keeps every node alive
    for t in terms:
        parts = [done.get(id(c)) or str(c) for c in t.children] if type(t) is App else ()
        done[id(t)] = f"{t.symbol}({','.join(parts)})" if parts else str(t)
    return [done[id(t)] for t in terms]


def theory_text_rows(theory: TheoryPartition) -> Iterator[str]:
    """The text of theory.equations(), one row per term p: the lines
    `p = q` for each q in p's class, in equations() order, so the rows
    joined are str(eq) + "\n" over the equations.  Each term is rendered
    once, by _term_texts; a row holds one class's lines, so a caller that
    writes each row with one write never holds the whole text."""
    texts = _term_texts(theory.terms)
    for p, cls in theory.rows():
        lhs = texts[p] + " = "
        yield lhs + ("\n" + lhs).join([texts[q] for q in cls]) + "\n"


def proof_to_text(p: entail.Proof) -> str:
    kind = type(p)
    if kind is entail.Hyp:
        return f"(hyp {p.index})"
    if kind is entail.Refl:
        return f"(refl {p.term})"
    if kind is entail.Sym:
        return f"(sym {proof_to_text(p.body)})"
    if kind is entail.Trans:
        return f"(trans {proof_to_text(p.left)} {proof_to_text(p.right)})"
    if kind is entail.App:
        parts = " ".join(proof_to_text(c) for c in p.children)
        return f"(app {p.symbol} {parts})" if parts else f"(app {p.symbol})"
    if kind is entail.Sub:
        bindings = " ".join(
            f"({name} {term})" for name, term in p.sigma.assoc.items()
        )
        return f"(sub {proof_to_text(p.body)} ({bindings}))"
    raise ValueError(f"not a proof node: {p!r}")


def _parse_certificate(tz: _Tokenizer) -> HspCertificate:
    def opens(name: str) -> None:
        tz.next("lparen")
        label = tz.next("name")
        if label.text != name:
            raise ParseError(f"expected '{name}', found {label.text!r}", label.span)

    def ints() -> tuple[int, ...]:
        """The integers up to the closing paren of the open section."""
        out = []
        while (tok := tz.next()).kind != "rparen":
            if tok.kind != "int":
                raise ParseError(f"expected an integer or ')', found {tok.text!r}", tok.span)
            out.append(_int(tok.text, tok.span))
        return tuple(out)

    opens("cert")
    opens("factors")
    factors = []
    while (tok := tz.peek()) is not None and tok.kind == "lparen":
        tz.next()
        pair = ints()
        if len(pair) != 2:
            raise ParseError("factors want (index power) pairs", tok.span)
        factors.append(pair)
    tz.next("rparen")
    opens("gens")
    gens = ints()
    opens("image")
    image = ints()
    tz.next("rparen")
    return HspCertificate(tuple(factors), gens, image)


def parse_certificate(text: str, file: str = "<certificate>") -> HspCertificate:
    """(cert (factors (i power)*) (gens n*) (image n*))"""
    return _parse_whole(_parse_certificate, _Tokenizer(text, file))


def certificate_to_text(cert: HspCertificate) -> str:
    factors = " ".join(f"({i} {p})" for i, p in cert.factors)
    gens = " ".join(str(g) for g in cert.gens)
    image = " ".join(str(b) for b in cert.image)
    return f"(cert (factors {factors}) (gens {gens}) (image {image}))"


def parse_algebra_file(
    text: str, file: str = "<algebra>"
) -> tuple[Signature, list[tuple[str, FiniteAlgebra]]]:
    """Parse a signature block followed by named algebra blocks.

    Raises ParseError on syntax problems and AlgebraValidationError when a
    table breaks the size/range invariants.
    """
    numbered = enumerate((raw.split("#", 1)[0].split() for raw in text.splitlines()), start=1)
    lines = ((lineno, words) for lineno, words in numbered if words)
    last_line = len(text.splitlines()) or 1

    def span(lineno: int) -> SourceSpan:
        return SourceSpan(file, lineno, 1, 1)

    def take() -> tuple[int, list[str]]:
        if (line := next(lines, None)) is None:
            raise ParseError("missing 'end'", span(last_line))
        return line

    lineno, words = take()
    if words != ["signature"]:
        raise ParseError("file must start with a 'signature' block", span(lineno))
    ops: list[tuple[str, int]] = []
    while True:
        lineno, words = take()
        if words == ["end"]:
            break
        if len(words) != 3 or words[0] != "op" or (arity := _int(words[2], span(lineno))) is None:
            raise ParseError("expected 'op <name> <arity>' or 'end'", span(lineno))
        if not _OP_NAME.fullmatch(words[1]):
            raise ParseError(f"bad operation name {words[1]!r}", span(lineno))
        if words[1] in [name for name, _ in ops]:
            raise ParseError(f"duplicate operation name {words[1]!r}", span(lineno))
        ops.append((words[1], arity))
    sig = Signature(tuple(ops))

    algebras: list[tuple[str, FiniteAlgebra]] = []
    failures: list[tuple[str, Violation]] = []
    names: set[str] = set()
    for lineno, words in lines:
        if len(words) != 2 or words[0] != "algebra":
            raise ParseError("expected 'algebra <name>'", span(lineno))
        name = words[1]
        if name in names:
            raise ParseError(f"duplicate algebra name {name!r}", span(lineno))
        names.add(name)
        lineno, words = take()
        if len(words) != 2 or words[0] != "size" or (size := _int(words[1], span(lineno))) is None:
            raise ParseError("expected 'size <n>'", span(lineno))
        if size < 1:
            raise ParseError("size must be at least 1", span(lineno))
        tables: dict[str, tuple[int, ...]] = {}
        while True:
            lineno, words = take()
            if words == ["end"]:
                break
            if len(words) < 2 or words[0] != "op":
                raise ParseError("expected 'op <name> <entries...>' or 'end'", span(lineno))
            symbol = words[1]
            if symbol not in sig.symbols:
                raise ParseError(f"unknown operation symbol {symbol!r}", span(lineno))
            if symbol in tables:
                raise ParseError(f"duplicate table for {symbol!r}", span(lineno))
            values = [decimal(e.removeprefix("-")) for e in words[2:]]
            if None in values:  # the first bad entry: too long, or not a numeral
                _int(words[2 + values.index(None)].removeprefix("-"), span(lineno))
                raise ParseError("table entries must be integers", span(lineno))
            # one leading minus is a negative entry, which validation refuses
            tables[symbol] = tuple([-v if e[0] == "-" else v for v, e in zip(values, words[2:])])
        missing = [s for s in sig.symbols if s not in tables]
        if missing:
            raise ParseError(f"algebra {name} misses tables for {missing}", span(lineno))
        try:
            alg = FiniteAlgebra(sig, size, tuple(tables[s] for s in sig.symbols))
            algebras.append((name, alg))
        except InvalidTablesError as e:
            failures.extend((name, violation) for violation in e.violations)
    if failures:
        raise AlgebraValidationError(failures)
    return sig, algebras


def emit_algebra_file(
    sig: Signature, algebras: Sequence[tuple[str, FiniteAlgebra]]
) -> str:
    """Canonical text: single spaces, signature order, trailing newline.
    ValueError names the first name parse_algebra_file would not read back:
    an op name not _OP_NAME, an algebra name empty, repeated or holding
    whitespace or '#'."""
    for symbol in sig.symbols:
        if not _OP_NAME.fullmatch(symbol):
            raise ValueError(f"operation name {symbol!r} would not read back")
    names: set[str] = set()
    for name, _ in algebras:
        if name.split() != [name] or "#" in name or name in names:
            raise ValueError(f"algebra name {name!r} would not read back")
        names.add(name)
    blocks = []
    sig_lines = ["signature"]
    sig_lines.extend(f"op {name} {arity}" for name, arity in sig.ops)
    sig_lines.append("end")
    blocks.append("\n".join(sig_lines))
    for name, alg in algebras:
        lines = [f"algebra {name}", f"size {alg.size}"]
        for (symbol, _), table in zip(sig.ops, alg.tables):
            lines.append(f"op {symbol} {' '.join(str(v) for v in table)}")
        lines.append("end")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def emit_free_sidecar(free: FreeAlgebra) -> str:
    """One `elem <i> repr <term>` line per element, with `gen <vars...>`
    appended on elements that carry variable projections."""
    by_element: dict[int, list[str]] = {}
    for name in free.variables:
        by_element.setdefault(free.gens[name], []).append(name)
    lines = []
    for i, text in enumerate(_term_texts(free.reprs)):
        line = f"elem {i} repr {text}"
        if i in by_element:
            line += " gen " + " ".join(by_element[i])
        lines.append(line)
    return "\n".join(lines) + "\n"
