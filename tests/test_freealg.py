import numpy as np
import pytest

from sklyrep.freealg import (
    EvalError,
    NcPoly,
    ParseError,
    eval_ncpoly,
    parse_ncpoly,
)

GENS = ("x", "y", "z")


def test_parse_sklyanin_style_relation():
    p = parse_ncpoly("x*y + y*x + 2*z^2", GENS)
    assert p.gens == GENS
    assert p.terms == {(0, 1): 1.0, (1, 0): 1.0, (2, 2): 2.0}
    assert all(type(c) is complex for c in p.terms.values())
    assert p == NcPoly(GENS, {(0, 1): 1, (1, 0): 1, (2, 2): 2, (0,): 0})


def test_parse_zero_and_cancellation():
    assert parse_ncpoly("0", GENS).terms == {}
    p = parse_ncpoly("x*y - y*x + y*x - x*y", GENS)
    assert p.terms == {}
    # repeated words are merged, in the order they first appear
    p = parse_ncpoly("y*x + 2*x^2 - 0.5*y*x + x*x", GENS)
    assert list(p.terms.items()) == [((1, 0), 0.5), ((0, 0), 3.0)]


def test_power_binds_tighter_than_mul_and_unary_minus():
    p = parse_ncpoly("-2*x^2", ("x",))
    assert p.terms == {(0, 0): -2.0}
    assert parse_ncpoly("- x + x", ("x",)).terms == {}
    assert parse_ncpoly("x^0 - 3", ("x",)).terms == {(): -2.0}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="unknown generator 'w'") as err:
        parse_ncpoly("x*y + w", GENS)
    assert err.value.pos == 6
    with pytest.raises(ParseError):
        parse_ncpoly("x*", GENS)
    with pytest.raises(ParseError):
        parse_ncpoly("x^(2)", GENS)  # exponent must be a literal integer
    with pytest.raises(ParseError):
        parse_ncpoly("x + ?", GENS)
    with pytest.raises(ParseError):
        parse_ncpoly("(x+y)^2", ("x", "y"))  # only sums of monomials


def _random_poly(rng, gens):
    terms = {}
    for _ in range(int(rng.integers(1, 7))):
        word = tuple(int(g) for g in rng.integers(0, len(gens), size=int(rng.integers(0, 5))))
        terms[word] = complex(rng.standard_normal(), rng.standard_normal())
    return NcPoly(gens, terms)


def _merge(pairs):
    out = {}
    for word, coef in pairs:
        out[word] = out.get(word, 0j) + coef
    return out


def test_eval_is_a_homomorphism(rng):
    for _ in range(200):
        p = _random_poly(rng, GENS)
        q = _random_poly(rng, GENS)
        pq = NcPoly(GENS, _merge(
            (w1 + w2, c1 * c2) for w1, c1 in p.terms.items() for w2, c2 in q.terms.items()
        ))
        p_plus_q = NcPoly(GENS, _merge([*p.terms.items(), *q.terms.items()]))
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in GENS]
        lhs = eval_ncpoly(pq, mats)
        ep, eq = eval_ncpoly(p, mats), eval_ncpoly(q, mats)
        bound = 1e-10 * (1.0 + np.linalg.norm(ep) * np.linalg.norm(eq))
        assert np.linalg.norm(lhs - ep @ eq) <= bound
        assert np.linalg.norm(
            eval_ncpoly(p_plus_q, mats) - (ep + eq)
        ) <= 1e-10 * (1.0 + np.linalg.norm(ep) + np.linalg.norm(eq))


def test_eval_examples():
    zero2 = np.zeros((2, 2))
    p = parse_ncpoly("x*y + y*x", ("x", "y"))
    assert np.linalg.norm(eval_ncpoly(p, [zero2, zero2])) == 0.0
    # anti-commuting pair: x diagonal anti-symmetric, y anti-diagonal
    alpha, beta = 0.7 - 0.2j, 1.3 + 0.4j
    x = np.diag([-alpha, alpha])
    y = np.array([[0.0, 1.0], [beta, 0.0]])
    assert np.linalg.norm(eval_ncpoly(p, [x, y])) <= 1e-15
    # squared nilpotent
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.linalg.norm(eval_ncpoly(parse_ncpoly("x^2", ("x",)), [n])) == 0.0


def test_eval_dimension_mismatch():
    p = parse_ncpoly("x*y", ("x", "y"))
    with pytest.raises(EvalError):
        eval_ncpoly(p, [np.eye(2), np.eye(3)])
    with pytest.raises(EvalError):
        eval_ncpoly(p, [np.eye(2)])


def test_complex_literal_coefficients_round_trip(rng):
    p = parse_ncpoly("2.5*x - 0.75i*x + 1.5i*y - 1e-3i", ("x", "y"))
    assert p.terms == {(0,): 2.5 - 0.75j, (1,): 1.5j, (): -0.001j}
    # a real and an imaginary literal written with repr parse back exactly
    for _ in range(200):
        z = complex(*rng.standard_normal(2) * 10.0 ** rng.integers(-8, 9, size=2))
        text = "%s%r*y %s %ri*y" % (
            "-" if z.real < 0 else "", abs(z.real), "-" if z.imag < 0 else "+", abs(z.imag)
        )
        assert parse_ncpoly(text, ("x", "y")).terms == {(1,): z}, text
