import random
import re
from pathlib import Path

import pytest

from ualg import App, Equation, Substitution, Var, algebra, build_free, enumerate_terms, signature
from ualg.closure import HspCertificate
from ualg.eqlogic import theory_partition
from ualg.entail import Hyp, Refl, Sub, Sym, Trans, App as PApp
from ualg.fileio import (
    AlgebraValidationError,
    ParseError,
    SourceSpan,
    certificate_to_text,
    emit_algebra_file,
    _term_texts,
    emit_free_sidecar,
    parse_algebra_file,
    parse_certificate,
    parse_equation,
    parse_equation_file,
    parse_proof,
    parse_term,
    proof_to_text,
    theory_text_rows,
)

from oracles import theory_text_oracle
from samples import semilattice2, z2_xor

X, Y = Var("x"), Var("y")

Z2_FILE = """\
signature
op f 2
end

algebra Z2
size 2
op f 0 1 1 0
end
"""


def test_parse_z2_file():
    sig, algebras = parse_algebra_file(Z2_FILE)
    assert sig.ops == (("f", 2),)
    assert algebras == [("Z2", z2_xor())]


def test_emit_is_canonical_and_round_trips():
    sig, algebras = parse_algebra_file(Z2_FILE)
    assert emit_algebra_file(sig, algebras) == Z2_FILE
    messy = "signature\n   op   f   2\nend\nalgebra   Z2\n size 2\nop f 0 1 1 0 # comment\nend\n"
    sig2, algs2 = parse_algebra_file(messy)
    assert emit_algebra_file(sig2, algs2) == Z2_FILE


def test_parse_missing_end():
    text = "signature\nop f 2\nend\nalgebra A\nsize 2\nop f 0 1 1 0\n"
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text)
    assert "missing 'end'" in str(exc.value)
    assert exc.value.span.line == 6


def test_parse_validation_failure():
    text = "signature\nop f 2\nend\nalgebra A\nsize 2\nop f 0 1 2 0\nend\n"
    with pytest.raises(AlgebraValidationError) as exc:
        parse_algebra_file(text)
    (name, violation), = exc.value.failures
    assert name == "A" and violation.symbol == "f" and violation.index == 2


def test_parse_algebra_file_errors():
    with pytest.raises(ParseError):
        parse_algebra_file("algebra A\nsize 2\nend\n")  # no signature block
    with pytest.raises(ParseError):
        parse_algebra_file("signature\nop f 2\nend\nalgebra A\nsize 2\nop g 0\nend\n")
    with pytest.raises(ParseError):
        parse_algebra_file("signature\nop f 2\nend\nalgebra A\nsize 2\nend\n")


@pytest.mark.parametrize("text, message", [
    ("signature\nop 2f 2\nend\n", "2:1-1: bad operation name '2f'"),
    ("signature\nop f 2\nop f 1\nend\n", "3:1-1: duplicate operation name 'f'"),
    ("signature\nop f 1\nend\nalgebra A\nsize 2\nop f 0 1\nop f 1 0\nend\n", "7:1-1: duplicate table for 'f'"),
    ("signature\nop f 1\nend\nalgebra A\nsize 0\nend\n", "5:1-1: size must be at least 1"),
    ("signature\nop f 1\nend\nsize 2\nop f 0 1\nend\n", "4:1-1: expected 'algebra <name>'"),
    ("signature\nop f 1\nend\nalgebra A\nsize 1\nop f 0\nend\nalgebra A\nsize 1\nop f 0\nend\n",
     "8:1-1: duplicate algebra name 'A'"),
    # a name is taken even by a block whose tables fail validation
    ("signature\nop f 1\nend\nalgebra A\nsize 1\nop f 1\nend\nalgebra A\nsize 1\nop f 0\nend\n",
     "8:1-1: duplicate algebra name 'A'"),
], ids=["bad-op-name", "duplicate-op-name", "duplicate-table", "size-0", "missing-algebra-line",
        "duplicate-algebra-name", "duplicate-algebra-name-after-a-bad-table"])
def test_parse_algebra_file_error_texts(text, message):
    with pytest.raises(ParseError, match=f"^a\\.alg:{message}$"):
        parse_algebra_file(text, "a.alg")


def test_parse_equation_file_refuses_an_unexpected_character():
    with pytest.raises(ParseError, match=r"^laws:2:6-6: unexpected character '\$'$"):
        parse_equation_file("f(?x) = ?x\nf(?x,$) = ?x\n", "laws")


def test_parse_equation_file_spans_count_columns_as_written():
    # the line is tokenized as it stands, so its indent counts
    with pytest.raises(ParseError, match=r"^laws:2:10-10: expected a term, found '='$"):
        parse_equation_file("?x = ?y\n    ?x = = ?y\n", "laws")
    with pytest.raises(ParseError, match=r"^laws:3:8-8: unexpected character '\$'$"):
        parse_equation_file("# c\n\t; c\n\t\t?x = $\n", "laws")


def test_parse_algebra_file_refuses_a_huge_arity_without_taking_the_power():
    # 3^4000000 has 1.9 million digits: its power took seconds and its text
    # passes int's string-conversion limit; the length check needs neither
    text = "signature\nop f 4000000\nend\nalgebra A\nsize 3\nop f 0\nend\n"
    with pytest.raises(AlgebraValidationError) as info:
        parse_algebra_file(text)
    (name, violation), = info.value.failures
    assert (name, str(violation)) == ("A", "op f: expected 3^4000000 entries, got 1")
    # an ordinary length mismatch keeps its count
    with pytest.raises(AlgebraValidationError, match="^validation failed: A: op f: expected 4 entries, got 3$"):
        parse_algebra_file("signature\nop f 2\nend\nalgebra A\nsize 2\nop f 0 1 1\nend\n")


@pytest.mark.parametrize(
    "text, line, message",
    [
        # str.isdigit accepts these; int rejects the superscript and reads
        # the Arabic-Indic digit as 3, while the tokenizer takes only 0-9
        ("signature\nop f ²\nend\n", 2, "expected 'op <name> <arity>' or 'end'"),
        ("signature\nop f 2\nend\nalgebra A\nsize ²\nend\n", 5, "expected 'size <n>'"),
        ("signature\nop f 2\nend\nalgebra A\nsize ٣\nend\n", 5, "expected 'size <n>'"),
        ("signature\nop f 1\nend\nalgebra A\nsize 2\nop f 0 --1\nend\n", 6, "table entries must be integers"),
        ("signature\nop f 1\nend\nalgebra A\nsize 2\nop f 0 ¹\nend\n", 6, "table entries must be integers"),
    ],
    ids=["arity-superscript", "size-superscript", "size-arabic-indic", "entry-double-minus", "entry-superscript"],
)
def test_parse_algebra_file_takes_only_ascii_digits(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text)
    assert str(exc.value).endswith(f": {message}")
    assert exc.value.span.line == line


# 5,001 digits: past int's default string-conversion limit of 4,300
BIG = "1" + "0" * 5000


@pytest.mark.parametrize(
    "text, line, message",
    [
        # each line kind says the number is too long, as the tokens do, at its line
        (f"signature\nop f {BIG}\nend\n", 2, "5001-digit integer, past the limit of 4300"),
        (f"signature\nop f 2\nend\nalgebra A\nsize {BIG}\nend\n", 5, "5001-digit integer, past the limit of 4300"),
        (f"signature\nop f 1\nend\nalgebra A\nsize 2\nop f 0 {BIG}\nend\n", 6, "5001-digit integer, past the limit of 4300"),
        (f"signature\nop f 1\nend\nalgebra A\nsize 2\nop f 0 -{BIG}\nend\n", 6, "5001-digit integer, past the limit of 4300"),
        # a line of the wrong shape keeps its syntax message
        (f"signature\nop f 2 {BIG}\nend\n", 2, "expected 'op <name> <arity>' or 'end'"),
        (f"signature\nop f 2\nend\nalgebra A\nsize {BIG} 1\nend\n", 5, "expected 'size <n>'"),
    ],
    ids=["arity", "size", "entry", "negative-entry", "op-line-shape", "size-line-shape"],
)
def test_parse_algebra_file_refuses_numerals_past_the_int_limit_with_a_span(text, line, message):
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text, "big.alg")
    assert str(exc.value) == f"big.alg:{line}:1-1: {message}"


def test_parse_proof_refuses_a_hyp_index_past_the_int_limit_with_a_span():
    with pytest.raises(ParseError) as exc:
        parse_proof(f"(sym (hyp {BIG}))", "big.proof")
    assert exc.value.span == SourceSpan("big.proof", 1, 11, 5011)
    assert str(exc.value).endswith(": 5001-digit integer, past the limit of 4300")


@pytest.mark.parametrize("text, col", [
    (f"(cert (factors (0 {BIG})) (gens 1) (image 0))", 19),
    (f"(cert (factors (0 1)) (gens {BIG}) (image 0))", 29),
    (f"(cert (factors (0 1)) (gens 1) (image 0 {BIG}))", 41),
], ids=["factors", "gens", "image"])
def test_parse_certificate_refuses_integers_past_the_int_limit_with_a_span(text, col):
    with pytest.raises(ParseError) as exc:
        parse_certificate(text)
    assert exc.value.span == SourceSpan("<certificate>", 1, col, col + 5000)


def test_parse_algebra_file_reads_a_negative_entry_as_a_validation_failure():
    # one leading minus is an integer, out of range for the carrier
    with pytest.raises(AlgebraValidationError) as exc:
        parse_algebra_file("signature\nop f 1\nend\nalgebra A\nsize 2\nop f 0 -1\nend\n")
    assert str(exc.value) == "validation failed: A: op f index 1: entry -1 < 0"


SIG_ODD_OPS = signature(("end", 1), ("op", 0), ("_F_1", 2))


@pytest.mark.parametrize("sig, names", [
    (SIG_ODD_OPS, ["A", "end", "signature", "algebra", "size", "Z_2.x", "?x", "-1", "a;b", "ä", "A\u200bB"]),
    (signature(), ["A", "B"]),
], ids=["odd-names", "no-ops"])
def test_every_emitted_name_reads_back(sig, names):
    algebras = [(name, algebra(sig, 2, {s: [i % 2 for i in range(2**r)] for s, r in sig.ops})) for name in names]
    text = emit_algebra_file(sig, algebras)
    assert parse_algebra_file(text) == (sig, algebras)


@pytest.mark.parametrize("ops, names, refused", [
    ((("f g", 2),), ["A"], "operation name 'f g'"),
    ((("1f", 2),), ["A"], "operation name '1f'"),
    ((("f-g", 2),), ["A"], "operation name 'f-g'"),
    ((("", 2),), ["A"], "operation name ''"),
    ((("f", 2), ("g#", 1)), ["A"], "operation name 'g#'"),
    ((("f", 2),), [""], "algebra name ''"),
    ((("f", 2),), ["A B"], "algebra name 'A B'"),
    ((("f", 2),), ["#x"], "algebra name '#x'"),
    ((("f", 2),), ["A#1"], "algebra name 'A#1'"),
    ((("f", 2),), ["A\tB"], "algebra name 'A\\tB'"),
    ((("f", 2),), ["A\u2028"], "algebra name 'A\\u2028'"),
    ((("f", 2),), ["A", "B", "A"], "algebra name 'A'"),
], ids=["space-op", "digit-op", "dash-op", "empty-op", "hash-op", "empty", "space", "hash", "trailing-hash",
        "tab", "line-separator", "repeat"])
def test_emit_refuses_names_that_would_not_read_back(ops, names, refused):
    sig = signature(*ops)
    alg = algebra(sig, 1, {s: [0] for s, _ in sig.ops})
    with pytest.raises(ValueError, match=f"^{re.escape(refused)} would not read back$"):
        emit_algebra_file(sig, [(name, alg) for name in names])


def test_multiple_algebras_round_trip():
    sig, algebras = parse_algebra_file(Z2_FILE)
    text = emit_algebra_file(sig, [("A", z2_xor()), ("B", z2_xor())])
    sig2, algs2 = parse_algebra_file(text)
    assert [name for name, _ in algs2] == ["A", "B"]
    assert emit_algebra_file(sig2, algs2) == text


def test_parse_term_examples():
    t = parse_term("f(?x, f(?y, e))")
    assert t == App("f", (X, App("f", (Y, App("e")))))
    assert parse_term("e") == App("e")
    assert parse_term("e()") == App("e")
    assert parse_term("?abc_1") == Var("abc_1")


def test_parse_term_errors_carry_spans():
    with pytest.raises(ParseError) as exc:
        parse_term("f(?x = ?y")
    assert exc.value.span.line == 1
    with pytest.raises(ParseError):
        parse_term("f(?x,)")
    with pytest.raises(ParseError):
        parse_term("")
    with pytest.raises(ParseError):
        parse_term("f(?x) ?y")


def test_parse_equation_and_file():
    eq = parse_equation("f(?x,?y) = f(?y,?x)")
    assert eq == Equation(App("f", (X, Y)), App("f", (Y, X)))
    # a ';' comment, like a '#' one, may fill a line or end one
    text = "# axioms\n; c\nf(?x,?y) = f(?y,?x)  ; commutativity\n\n  ;\nf(?x,?x) = ?x  # idempotence\n"
    eqs = parse_equation_file(text)
    assert eqs == [eq, Equation(App("f", (X, X)), X)]


def test_parse_proof_spec_example():
    p = parse_proof("(sub (hyp 0) ((x ?y)))")
    assert p == Sub(Hyp(0), Substitution({"x": Y}))


def test_proof_round_trips():
    proofs = [
        Hyp(0),
        Refl(App("f", (X, Y))),
        Sym(Hyp(1)),
        Trans(Hyp(0), Sym(Hyp(0))),
        PApp("f", (Hyp(0), Refl(X))),
        PApp("e", ()),
        Sub(Sym(Hyp(0)), Substitution({"x": App("f", (Y, Y)), "y": X})),
    ]
    for p in proofs:
        assert parse_proof(proof_to_text(p)) == p


def test_parse_proof_whitespace_and_comments():
    text = "; derived by hand\n(trans (hyp 0)  # axiom 0\n  (sym (hyp 0)))  ; end\n"
    assert parse_proof(text) == Trans(Hyp(0), Sym(Hyp(0)))


@pytest.mark.parametrize("text, message", [
    ("(hyp 0", "1:7-7: unexpected end of input (wanted rparen)"),
    ("(hyp 0 1)", "1:8-8: expected rparen, found '1'"),
    ("(refl ?x", "1:9-9: unexpected end of input (wanted rparen)"),
    ("(refl ?x ?y)", "1:10-11: expected rparen, found '?y'"),
    ("(sym (hyp 0)", "1:13-13: unexpected end of input (wanted rparen)"),
    ("(sym (hyp 0) (hyp 1))", "1:14-14: expected rparen, found '('"),
    ("(trans (hyp 0) (hyp 1)", "1:23-23: unexpected end of input (wanted rparen)"),
    ("(trans (hyp 0) (hyp 1) (hyp 2))", "1:24-24: expected rparen, found '('"),
    ("(trans (hyp 0))", "1:15-15: expected lparen, found ')'"),
    ("(app f (hyp 0)", "1:15-15: unexpected end of input (wanted rparen)"),
    ("(app f (hyp 0) x)", "1:16-16: expected rparen, found 'x'"),
    ("(sub (hyp 0) ((x ?y))", "1:22-22: unexpected end of input (wanted rparen)"),
    ("(sub (hyp 0) ((x ?y)) x)", "1:23-23: expected rparen, found 'x'"),
    ("(sub (hyp 0) ((x ?y ?z)))", "1:21-22: expected rparen, found '?z'"),
    ("(sub (hyp 0) x)", "1:14-14: expected lparen, found 'x'"),
    ("(sub (hyp 0) (x))", "1:15-15: expected a (var term) binding, found 'x'"),
    ("(sub (hyp 0) ((3 ?y)))", "1:16-16: expected a variable, found '3'"),
    ("(sub (hyp 0) ((x ?y) (x ?y)))", "1:23-23: duplicate binding for x"),
    ("(sub (hyp 0) ((?x ?y) (x ?z)))", "1:24-24: duplicate binding for x"),
    ("(flip (hyp 0))", "1:2-5: unknown proof constructor 'flip'"),
    ("(hyp x)", "1:6-6: expected int, found 'x'"),
    ("", "1:1-1: unexpected end of input (wanted lparen)"),
    ("(hyp 0) (hyp 1)", "1:9-9: trailing input '('"),
    ("(hyp 0)\n\n  x", "3:3-3: trailing input 'x'"),
], ids=[
    "hyp-missing-rparen", "hyp-extra", "refl-missing-rparen", "refl-extra",
    "sym-missing-rparen", "sym-extra", "trans-missing-rparen", "trans-extra", "trans-one-premise",
    "app-missing-rparen", "app-extra", "sub-missing-rparen", "sub-extra", "binding-extra",
    "bindings-not-a-list", "binding-not-a-list", "binding-name-not-a-variable",
    "duplicate-binding", "duplicate-binding-mixed-spelling",
    "unknown-constructor", "hyp-not-an-int", "empty", "trailing", "trailing-on-a-later-line",
])
def test_parse_proof_errors(text, message):
    with pytest.raises(ParseError) as exc:
        parse_proof(text, "p")
    assert str(exc.value) == f"p:{message}"


def test_term_and_equation_text_are_canonical():
    t = App("f", (X, App("f", (Y, App("e")))))
    assert str(t) == "f(?x,f(?y,e))"
    assert parse_term(str(t)) == t
    eq = Equation(t, X)
    assert str(eq) == "f(?x,f(?y,e)) = ?x"
    assert parse_equation(str(eq)) == eq


def _term_text_recursive(t):
    """The surface form written out by its own recursion."""
    if type(t) is Var:
        return f"?{t.name}"
    if not t.children:
        return t.symbol
    return f"{t.symbol}({','.join(_term_text_recursive(c) for c in t.children)})"


def test_term_and_equation_text_are_the_str_forms():
    # every term of depth <= 2 over f/2, g/1, e/0 and m/3 on two variables
    sig = signature(("f", 2), ("g", 1), ("e", 0), ("m", 3))
    terms = enumerate_terms(sig, ["x", "y"], 2)
    assert len(terms) == 75_897
    texts = [str(t) for t in terms]
    assert texts == [_term_text_recursive(t) for t in terms]
    # _term_texts prints children listed earlier from their texts and falls
    # back to str for the rest: whole lists, reversed ones and strided slices
    assert _term_texts(terms) == texts
    assert _term_texts(terms[::-1]) == texts[::-1]
    assert _term_texts(terms[5::7]) == texts[5::7]
    assert _term_texts(enumerate_terms(sig, [], 2)) == [str(t) for t in enumerate_terms(sig, [], 2)]
    for p, q in zip(terms[::97], terms[::-89]):
        eq = Equation(p, q)
        text = str(eq)
        assert text == f"{_term_text_recursive(p)} = {_term_text_recursive(q)}"
        assert parse_equation(text) == eq


@pytest.mark.parametrize("path", sorted(Path(__file__).parent.parent.glob("demos/data/*.alg")), ids=lambda p: p.name)
def test_term_texts_of_free_representatives_are_their_str(path):
    _, named = parse_algebra_file(path.read_text())
    for variables in (["x"], ["x", "y"]):
        reprs = build_free([alg for _, alg in named], variables).reprs
        assert _term_texts(reprs) == [str(t) for t in reprs]


# (signature, {variable count: deepest depth}): the largest theory here, on
# 183 terms, has at most 183^2 pairs even when every member is trivial
THEORY_TEXT_CASES = [
    (signature(("f", 2)), {1: 3, 2: 2}),
    (signature(("c", 0), ("u", 1), ("f", 2)), {0: 3, 1: 2, 2: 1}),
    (signature(("t", 3)), {1: 2, 2: 1}),
]


@pytest.mark.parametrize("sig, depths", THEORY_TEXT_CASES, ids=["f2", "c0u1f2", "t3"])
def test_theory_text_rows_are_str_of_each_equation(sig, depths):
    # classes of 1-3 random algebras of 1-3 elements: one row per term, whose
    # lines are that term's equations, and all rows are the str of each equation
    rng = random.Random(len(sig.ops))
    for n_vars, deepest in depths.items():
        variables = ["x", "y"][:n_vars]
        for max_depth in range(deepest + 1):
            for _ in range(4):
                K = []
                for _ in range(rng.randint(1, 3)):
                    n = rng.randint(1, 3)
                    K.append(algebra(sig, n, {f: [rng.randrange(n) for _ in range(n**r)] for f, r in sig.ops}))
                theory = theory_partition(K, variables, max_depth)
                rows = list(theory_text_rows(theory))
                assert len(rows) == len(theory.terms)
                for t, row in zip(theory.terms, rows):
                    assert all(line.startswith(f"{t} = ") for line in row.splitlines())
                assert "".join(rows) == theory_text_oracle(theory)


def test_certificate_round_trip():
    cert = HspCertificate(factors=((0, 2), (1, 1)), gens=(1, 2), image=(0, 1, 0))
    text = certificate_to_text(cert)
    assert text == "(cert (factors (0 2) (1 1)) (gens 1 2) (image 0 1 0))"
    assert parse_certificate(text) == cert
    assert parse_certificate("(cert (factors) (gens) (image))") == HspCertificate((), (), ())


@pytest.mark.parametrize("text, message", [
    ("(cert (factors (0)) (gens) (image))", "1:16-16: factors want (index power) pairs"),
    ("(cert (factors (0 1)) (gens (1)) (image 0))", "1:29-29: expected an integer or ')', found '('"),
    ("(cert (factors (0 1)) (gens 1) (image 0)) x", "1:43-43: trailing input 'x'"),
    ("(cert (factors (0 1)) (gens 1) (image 0)", "1:41-41: unexpected end of input (wanted rparen)"),
    ("(cert (gens 1) (factors (0 1)) (image 0))", "1:8-11: expected 'factors', found 'gens'"),
], ids=["short-pair", "nested-gens", "trailing", "missing-paren", "section-order"])
def test_certificate_parse_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_certificate(text)
    assert str(info.value) == f"<certificate>:{message}"


def test_free_sidecar_format():
    free = build_free([semilattice2()], ["x", "y"])
    sidecar = emit_free_sidecar(free)
    assert sidecar.splitlines() == [
        "elem 0 repr ?x gen x",
        "elem 1 repr ?y gen y",
        "elem 2 repr m(?x,?y)",
    ]


def test_source_span_str():
    span = SourceSpan("file.alg", 3, 5, 9)
    assert str(span) == "file.alg:3:5-9"
    assert span.col_end >= span.col_start >= 1
