"""Noncommutative polynomials over C as data, and their evaluation at matrices.

A polynomial is its generator names plus a map from words to nonzero
complex coefficients.  A word is a tuple of 0-based generator indices;
the empty word is the identity.  Parameters such as ``c`` are bound to
numbers when a polynomial is built, so coefficients are plain complex
numbers.

:func:`parse_ncpoly` reads a sum of monomials.  A monomial is an optional
sign, then an optional real or imaginary decimal coefficient (``2``,
``0.5``, ``1.5i``), then generator factors ``g`` or ``g^k`` joined by
``*``; a coefficient and the factors after it are joined by ``*`` too,
e.g. ``x*y - 2*z^2 + 1.5i*x``.  Repeated words are merged.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = [
    "ParseError",
    "EvalError",
    "NcPoly",
    "parse_ncpoly",
    "eval_ncpoly",
]


class ParseError(ValueError):
    """Malformed polynomial text; carries the 0-based offset of the problem."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ValueError):
    """Evaluation failed (wrong number of matrices or dimension mismatch)."""


class NcPoly:
    """Noncommutative polynomial: ``terms`` maps words to nonzero complex
    coefficients over the generator names ``gens``."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens, terms):
        self.gens = tuple(gens)
        self.terms = {tuple(w): complex(c) for w, c in terms.items() if c != 0}

    def __eq__(self, other):
        return (
            isinstance(other, NcPoly)
            and self.gens == other.gens
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"NcPoly({self.gens!r}, {self.terms!r})"


_SIGN_RE = re.compile(r"\s*([+-]?)\s*")
_COEF_RE = re.compile(r"((?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)(i?)\s*")
_FACTOR_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\^\s*(\d*)\s*)?")
_STAR_RE = re.compile(r"\*\s*")


def parse_ncpoly(text, generators) -> NcPoly:
    """Parse a sum of monomials over ``generators`` (grammar in the module
    docstring); repeated words are merged and cancelled words dropped."""
    index = {g: k for k, g in enumerate(generators)}
    terms = {}
    pos = 0
    while True:
        m = _SIGN_RE.match(text, pos)
        if pos and not m.group(1):
            if m.end() < len(text):
                raise ParseError("expected '+' or '-'", m.end())
            return NcPoly(generators, terms)
        coef = -1.0 if m.group(1) == "-" else 1.0
        pos = m.end()
        word = []
        m = _COEF_RE.match(text, pos)
        if m:
            value = float(m.group(1))
            coef *= complex(0.0, value) if m.group(2) else value
        while True:
            if m is None:
                m = _FACTOR_RE.match(text, pos)
                if m is None or m.group(1) not in index:
                    what = f"unknown generator {m.group(1)!r}" if m else "expected a generator"
                    raise ParseError(what, pos)
                if m.group(2) == "":
                    raise ParseError("exponent must be a nonnegative integer", m.end())
                word += [index[m.group(1)]] * int(m.group(2) or 1)
            pos = m.end()
            m = _STAR_RE.match(text, pos)
            if m is None:
                break
            pos, m = m.end(), None
        word = tuple(word)
        terms[word] = terms.get(word, 0j) + coef


def eval_ncpoly(p: NcPoly, matrices):
    """Evaluate ``p`` at one square matrix per generator.

    ``matrices`` follows the order of ``p.gens``; all matrices must share
    one shape, ``(n, n)`` or a stack ``(..., n, n)`` evaluated matrix by
    matrix.  Evaluation is an algebra homomorphism.
    """
    if len(matrices) != len(p.gens):
        raise EvalError(
            f"expected {len(p.gens)} matrices, got {len(matrices)}"
        )
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise EvalError("polynomial has no generators")
    shape = mats[0].shape
    for m in mats:
        if m.ndim < 2 or m.shape != shape or shape[-1] != shape[-2]:
            raise EvalError(f"dimension mismatch: {m.shape} vs {shape}")
    out = np.zeros(shape, dtype=complex)
    for word, coef in p.terms.items():
        if not word:
            out += coef * np.eye(shape[-1])
            continue
        prod = mats[word[0]]
        for g in word[1:]:
            prod = prod @ mats[g]
        out += coef * prod
    return out
