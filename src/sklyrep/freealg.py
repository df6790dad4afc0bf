"""Free-algebra terms and noncommutative polynomials over C.

A polynomial is a finite sum  coef * word  where a word is a product of
named generators (represented as a tuple of 0-based generator indices;
the empty word is the multiplicative identity) and a coefficient is a
commutative polynomial in declared scalar parameters with complex
constants.  Parameters stay symbolic until a polynomial is evaluated at
a tuple of square matrices together with a parameter environment.

The text grammar accepted by :func:`parse_ncpoly` uses ``+ - * ^`` with
nonnegative integer exponents, parentheses, decimal literals (a literal
may carry a trailing ``i`` for an imaginary value, e.g. ``2i`` or
``0.5i``), and identifiers naming generators or parameters.  ``^``
binds tighter than ``*``; unary minus is allowed; whitespace is
insignificant.  Powers of sums are always expanded.

All values here are treated as immutable after construction; arithmetic
returns fresh objects, so they are safe to share between threads.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = [
    "ParseError",
    "EvalError",
    "Coef",
    "NcPoly",
    "parse_ncpoly",
    "eval_ncpoly",
]

Word = tuple  # tuple of int generator indices

# A coefficient monomial: tuple of (param_name, exponent), sorted by name.
Monomial = tuple


class ParseError(ValueError):
    """Malformed polynomial text; carries the 0-based offset of the problem."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ValueError):
    """Evaluation failed (unbound parameter or dimension mismatch)."""


def _fmt_float(x: float) -> str:
    # repr round-trips doubles exactly, which the print/parse tests rely on
    return repr(float(x))


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt_float(z.real)
    if z.real == 0.0:
        return _fmt_float(z.imag) + "i"
    sign = "+" if z.imag > 0 or z.imag != z.imag else "-"
    return f"({_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}i)"


class Coef:
    """Polynomial in the declared parameters with complex constants.

    Stored canonically as monomial -> complex with no zero entries, so two
    coefficients are equal iff their dicts are equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = complex(c)
                if c != 0:
                    self.terms[mono] = c

    @classmethod
    def const(cls, value):
        return cls({(): complex(value)})

    @classmethod
    def param(cls, name):
        return cls({((name, 1),): 1.0 + 0j})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0j) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return Coef.__new__(Coef)._with(out)

    def _with(self, terms):
        self.terms = terms
        return self

    def __neg__(self):
        return Coef.__new__(Coef)._with({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                s = out.get(mono, 0j) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return Coef.__new__(Coef)._with(out)

    def __eq__(self, other):
        return isinstance(other, Coef) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, env) -> complex:
        total = 0j
        for mono, c in self.terms.items():
            v = c
            for name, exp in mono:
                if name not in env:
                    raise EvalError(f"unbound parameter {name!r}")
                v *= complex(env[name]) ** exp
            total += v
        return total

    def __str__(self):
        if not self.terms:
            return "0.0"
        parts = []
        for mono in sorted(self.terms, key=_mono_key):
            c = self.terms[mono]
            factors = [_fmt_complex(c)]
            for name, exp in mono:
                factors.append(name if exp == 1 else f"{name}^{exp}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    exps = {}
    for name, e in m1 + m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mono_key(mono: Monomial):
    return (sum(e for _, e in mono), mono)


class NcPoly:
    """Noncommutative polynomial in named generators, in canonical form.

    ``terms`` maps words (tuples of generator indices) to nonzero
    :class:`Coef` values.  Arithmetic keeps the canonical form: duplicate
    words are merged and zero coefficients dropped, so exact cancellation
    such as ``p + (-p)`` yields the empty term map.
    """

    __slots__ = ("gens", "params", "terms")

    def __init__(self, gens, params=(), terms=None):
        self.gens = tuple(gens)
        self.params = tuple(params)
        self.terms = {}
        if terms:
            for word, coef in terms.items():
                if isinstance(coef, (int, float, complex)):
                    coef = Coef.const(coef)
                if not coef.is_zero():
                    self.terms[tuple(word)] = coef

    @classmethod
    def one(cls, gens, params=()):
        return cls(gens, params, {(): Coef.const(1.0)})

    @classmethod
    def generator(cls, gens, index, params=()):
        return cls(gens, params, {(index,): Coef.const(1.0)})

    def _like(self, terms):
        p = NcPoly.__new__(NcPoly)
        p.gens = self.gens
        p.params = self.params
        p.terms = terms
        return p

    def _check(self, other):
        if self.gens != other.gens:
            raise ValueError("polynomials over different generator lists")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for word, coef in other.terms.items():
            s = out[word] + coef if word in out else coef
            if s.is_zero():
                out.pop(word, None)
            else:
                out[word] = s
        return self._like(out)

    def __neg__(self):
        return self._like({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            other = self._like({(): Coef.const(other)})
        self._check(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                c = c1 * c2
                s = out[word] + c if word in out else c
                if s.is_zero():
                    out.pop(word, None)
                else:
                    out[word] = s
        return self._like(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = NcPoly.one(self.gens, self.params)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, NcPoly)
            and self.gens == other.gens
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.gens, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def words(self):
        return sorted(self.terms, key=lambda w: (len(w), w))

    def _word_str(self, word):
        if not word:
            return ""
        runs = []
        for g in word:
            if runs and runs[-1][0] == g:
                runs[-1][1] += 1
            else:
                runs.append([g, 1])
        return "*".join(
            self.gens[g] if e == 1 else f"{self.gens[g]}^{e}" for g, e in runs
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for word in self.words():
            coef = f"({self.terms[word]})"
            ws = self._word_str(word)
            parts.append(f"{coef}*{ws}" if ws else coef)
        return " + ".join(parts)

    def __repr__(self):
        return f"NcPoly({self})"


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()])"
    r")"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup == "number":
            lit = m.group("number")
            if lit.endswith("i"):
                tokens.append(("number", complex(0.0, float(lit[:-1])), m.start("number")))
            else:
                tokens.append(("number", complex(float(lit)), m.start("number")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := ('-'|'+')* atom ('^' integer)?
    atom   := number | identifier | '(' expr ')'
    """

    def __init__(self, text, gens, params):
        self.tokens = _tokenize(text)
        self.i = 0
        self.gens = tuple(gens)
        self.params = tuple(params)
        self.gen_index = {g: k for k, g in enumerate(self.gens)}
        self.param_set = set(self.params)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        p = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return p

    def expr(self):
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                if val == "-":
                    sign = -sign
            else:
                break
        p = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, pos = self.next()
            if kind != "number" or val.imag != 0 or val.real != int(val.real) or val.real < 0:
                raise ParseError("exponent must be a nonnegative integer", pos)
            p = p ** int(val.real)
        return p if sign == 1 else -p

    def atom(self):
        kind, val, pos = self.next()
        if kind == "number":
            return NcPoly(self.gens, self.params, {(): Coef.const(val)})
        if kind == "ident":
            if val in self.gen_index:
                return NcPoly.generator(self.gens, self.gen_index[val], self.params)
            if val in self.param_set:
                return NcPoly(self.gens, self.params, {(): Coef.param(val)})
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError("expected a number, identifier or '('", pos)


def parse_ncpoly(text, generators, params=()):
    """Parse ``text`` into a canonical :class:`NcPoly`.

    Printing the result with ``str`` and reparsing yields an equal
    polynomial.
    """
    return _Parser(text, generators, params).parse()


def eval_ncpoly(p: NcPoly, matrices, env=None):
    """Evaluate ``p`` at one square matrix per generator.

    ``matrices`` follows the order of ``p.gens``; all matrices must share
    one dimension.  ``env`` supplies values for every parameter occurring
    in the coefficients.  Evaluation is an algebra homomorphism.
    """
    env = {} if env is None else env
    if len(matrices) != len(p.gens):
        raise EvalError(
            f"expected {len(p.gens)} matrices, got {len(matrices)}"
        )
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise EvalError("polynomial has no generators")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape != (n, n):
            raise EvalError(f"dimension mismatch: {m.shape} vs ({n}, {n})")
    out = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for word, coef in p.terms.items():
        prod = eye
        for g in word:
            prod = prod @ mats[g]
        out += coef.evaluate(env) * prod
    return out
