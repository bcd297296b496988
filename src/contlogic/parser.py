"""Textual syntax for restricted formulas and group-algebra elements; see
docs/grammar.md.

The grammar is LL(1) and ASCII-safe: truncated subtraction is spelled "-.",
halving "half(...)", rounded combinations "comb(lam, t, mu, s)" with
Gaussian-rational scalars "a/b+c/di".  `print_formula` emits a canonical form
(nested "-." fully parenthesized, scalars with explicit imaginary part) and
`parse_formula(print_formula(f)) == f` holds structurally.  `parse_element`
reads element expressions "c1*w1 + c2*w2 - ..." with the same lexer and the
same scalar productions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, NoReturn

from . import formulas as F
from . import groups as G
from .gaussian import ContlogicError, GaussianRational, gr

KEYWORDS = {"sup", "inf", "half", "comb"}
_CCONST = re.compile(r"c[1-9][0-9]*")  # the fresh constants c1, c2, ...


class ParseError(ContlogicError):
    """Parse failure with 1-based position; `kind` is machine-readable."""

    def __init__(self, kind: str, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.kind = kind
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # IDENT NAT LPAREN RPAREN COMMA DOT DOTMINUS SLASH PLUS MINUS STAR CARET EOF
    text: str
    line: int
    col: int


# The token table of docs/grammar.md, ASCII only; "-." comes before "-" and
# ".", and the last group catches any other character.
_TOKEN = re.compile(r"""
    (?P<NEWLINE>\n) | (?P<SPACE>[ \t\r]+) | (?P<DOTMINUS>-\.)
  | (?P<NAT>[0-9]+) | (?P<IDENT>[A-Za-z][A-Za-z0-9_]*)
  | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,) | (?P<DOT>\.) | (?P<SLASH>/)
  | (?P<PLUS>\+) | (?P<MINUS>-) | (?P<STAR>\*) | (?P<CARET>\^) | (?P<OTHER>.)
""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, col = match.lastgroup, match.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
        elif kind == "OTHER":
            raise ParseError("syntax", f"unexpected character {match.group()!r}", line, col)
        elif kind != "SPACE":
            tokens.append(Token(kind, match.group(), line, col))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], sig: F.Signature | None = None):
        self.tokens = tokens
        self.pos = 0
        self.sig = sig

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        if self.peek().kind != kind:
            self.fail("syntax", f"expected {what}, found {self.peek().text or 'end of input'!r}")
        return self.next()

    def fail(self, kind: str, message: str, tok: Token | None = None) -> NoReturn:
        """Raise the ParseError `kind` at `tok`, by default the next token."""
        tok = tok or self.peek()
        raise ParseError(kind, message, tok.line, tok.col)

    # -- formulas -------------------------------------------------------------

    def formula(self) -> F.Formula:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text in ("sup", "inf"):
            self.next()
            var = self.expect("IDENT", "a variable name")
            if var.text in KEYWORDS or _CCONST.fullmatch(var.text):
                self.fail("syntax", f"{var.text!r} cannot be a bound variable", var)
            self.expect("DOT", "'.' after the quantified variable")
            body = self.formula()
            cls = F.Sup if tok.text == "sup" else F.Inf
            return cls(var.text, body)
        left = self.primary()
        if self.peek().kind == "DOTMINUS":
            self.next()
            right = self.formula()
            return F.DotMinus(left, right)
        return left

    def primary(self) -> F.Formula:
        tok = self.peek()
        if tok.kind == "NAT":
            self.next()
            if tok.text == "0":
                return F.Zero()
            if tok.text == "1":
                return F.One()
            self.fail("syntax", "only the constants 0 and 1 are formulas", tok)
        if tok.kind == "LPAREN":
            self.next()
            inner = self.formula()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "IDENT" and tok.text == "half":
            self.next()
            self.expect("LPAREN", "'(' after half")
            body = self.formula()
            self.expect("RPAREN", "')'")
            return F.Half(body)
        if tok.kind == "IDENT":
            if tok.text in ("sup", "inf"):
                self.next()
                self.fail("syntax", "quantifier needs parentheses here", tok)
            return self.atomic()
        self.fail("syntax", f"expected a formula, found {tok.text or 'end of input'!r}", tok)

    def atomic(self) -> F.Formula:
        name = self.expect("IDENT", "a predicate name")
        arity = self.sig.predicates.get(name.text)
        if arity is None:
            self.fail("unknown-symbol", f"unknown predicate {name.text!r}", name)
        return F.Atomic(name.text, self.arguments(name, arity, "predicate"))

    def arguments(self, name: Token, arity: int, what: str) -> tuple[F.Term, ...]:
        """The parenthesized argument list of the symbol `name`."""
        self.expect("LPAREN", f"'(' after {what} {name.text}")
        args = [self.term()]
        while self.peek().kind == "COMMA":
            self.next()
            args.append(self.term())
        self.expect("RPAREN", "')'")
        if len(args) != arity:
            self.fail("arity-mismatch", f"{name.text} expects {arity} arguments, got {len(args)}",
                      name)
        return tuple(args)

    # -- terms ----------------------------------------------------------------

    def term(self) -> F.Term:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail("syntax", f"expected a term, found {tok.text or 'end of input'!r}", tok)
        if tok.text == "comb":
            return self.comb_term()
        arity = self.sig.functions.get(tok.text)
        if arity is not None:
            name = self.next()
            return F.App(name.text, self.arguments(name, arity, "function"))
        self.next()
        if _CCONST.fullmatch(tok.text):
            return F.CConst(int(tok.text[1:]))
        if tok.text in KEYWORDS:
            self.fail("syntax", f"{tok.text!r} cannot be a term", tok)
        return F.Var(tok.text)

    def comb_term(self) -> F.Term:
        start = self.next()  # 'comb'
        if not self.sig.allow_comb:
            self.fail(
                "unknown-symbol",
                f"rounded combinations not available in signature {self.sig.name}",
                start,
            )
        self.expect("LPAREN", "'(' after comb")
        lam = self.gaussian()
        self.expect("COMMA", "','")
        left = self.term()
        self.expect("COMMA", "','")
        mu = self.gaussian()
        self.expect("COMMA", "','")
        right = self.term()
        self.expect("RPAREN", "')'")
        if not F.rounded_bound_ok(lam, mu):
            self.fail("rounded-bound", f"|{lam}| + |{mu}| > 1 in rounded combination", start)
        return F.Comb(lam, mu, left, right)

    def rational(self) -> Fraction:
        sign = 1
        if self.peek().kind == "MINUS":
            self.next()
            sign = -1
        num_tok = self.expect("NAT", "a rational number")
        if self.peek().kind == "DOT":
            self.fail("scalar-not-gaussian-rational",
                      "decimal literals are not Gaussian rationals; write a/b", num_tok)
        num = int(num_tok.text)
        if self.peek().kind == "SLASH":
            self.next()
            den_tok = self.expect("NAT", "a denominator")
            den = int(den_tok.text)
            if den == 0:
                self.fail("scalar-not-gaussian-rational", "zero denominator", den_tok)
        else:
            den = 1
        return Fraction(sign * num, den)

    def gaussian(self) -> GaussianRational:
        real = self.rational()
        tok = self.peek()
        if tok.kind in ("PLUS", "MINUS"):
            sign = 1 if tok.kind == "PLUS" else -1
            self.next()
            im_mag = self.rational()
            i_tok = self.expect("IDENT", "'i' after the imaginary part")
            if i_tok.text != "i":
                self.fail("scalar-not-gaussian-rational", f"expected 'i', found {i_tok.text!r}",
                          i_tok)
            return GaussianRational(real, sign * im_mag)
        return GaussianRational(real, Fraction(0))

    # -- group-algebra elements -------------------------------------------------

    def element(self) -> list[tuple[GaussianRational, G.Word]]:
        sign = 1
        if self.peek().kind == "MINUS":
            self.next()
            sign = -1
        terms = [self.element_term(sign)]
        while self.peek().kind in ("PLUS", "MINUS"):
            sign = 1 if self.next().kind == "PLUS" else -1
            terms.append(self.element_term(sign))
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail("syntax", f"unexpected {tok.text!r} in an element", tok)
        return terms

    def element_term(self, sign: int) -> tuple[GaussianRational, G.Word]:
        coeff = gr(sign)
        kind = self.peek().kind
        if kind == "LPAREN":
            self.next()
            coeff = coeff * self.gaussian()
            self.expect("RPAREN", "')'")
        elif kind in ("NAT", "MINUS"):
            coeff = coeff * gr(self.rational())
        else:
            return coeff, self.word()
        if self.peek().kind != "STAR":
            return coeff, G.IDENTITY  # a bare coefficient times the identity
        self.next()
        return coeff, self.word()

    def word(self) -> G.Word:
        letters = [self.letter()]
        while self.peek().kind == "STAR":
            self.next()
            letters.append(self.letter())
        return tuple(letters)

    def letter(self) -> tuple[str, int]:
        name = self.expect("IDENT", "a generator").text
        if self.peek().kind != "CARET":
            return name, 1
        self.next()
        sign = 1
        if self.peek().kind == "MINUS":
            self.next()
            sign = -1
        return name, sign * int(self.expect("NAT", "an exponent").text)


def parse_formula(text: str, sig: F.Signature) -> F.Formula:
    """Parse `text` into a formula over `sig`; first error wins, with position."""
    parser = _Parser(_tokenize(text), sig)
    formula = parser.formula()
    if parser.peek().kind != "EOF":
        parser.fail("syntax", f"unexpected trailing input {parser.peek().text!r}")
    F.validate(formula, sig)
    return formula


def parse_element(text: str, spec: G.GroupSpec) -> G.AlgebraElement:
    """Parse an element expression of the group algebra of `spec`.

    A word is generators joined by '*' with optional ^exponents ("u*v^-1");
    a coefficient alone ("1", "(1/2+1/4i)") multiplies the identity.
    Coefficients are the formula grammar's rationals "3/4" or Gaussian
    rationals in parentheses "(1/2+1/4i)", followed by '*'.
    """
    return G.element(spec, _Parser(_tokenize(text)).element())


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _print_term(t: F.Term) -> str:
    if isinstance(t, F.Var):
        return t.name
    if isinstance(t, F.CConst):
        return f"c{t.index}"
    if isinstance(t, F.App):
        return f"{t.func}({', '.join(_print_term(a) for a in t.args)})"
    if isinstance(t, F.Comb):
        return (
            f"comb({t.lam}, {_print_term(t.left)}, {t.mu}, {_print_term(t.right)})"
        )
    raise F.FormulaError(f"not a term: {t!r}")


def print_formula(formula: F.Formula) -> str:
    if isinstance(formula, F.Zero):
        return "0"
    if isinstance(formula, F.One):
        return "1"
    if isinstance(formula, F.Half):
        return f"half({print_formula(formula.body)})"
    if isinstance(formula, F.DotMinus):
        # quantifier bodies are greedy, so quantified operands need parens
        def operand(f: F.Formula) -> str:
            text = print_formula(f)
            return f"({text})" if isinstance(f, (F.Sup, F.Inf)) else text

        return f"({operand(formula.left)} -. {operand(formula.right)})"
    if isinstance(formula, F.Sup):
        return f"sup {formula.var} . {print_formula(formula.body)}"
    if isinstance(formula, F.Inf):
        return f"inf {formula.var} . {print_formula(formula.body)}"
    if isinstance(formula, F.Atomic):
        return f"{formula.pred}({', '.join(_print_term(a) for a in formula.args)})"
    raise F.FormulaError(f"not a formula: {formula!r}")
