"""Sparse multivariate polynomials over the rationals.

Coefficients throughout the package are elements of Q[c, d, u, v, t0, t1, ...]
(any string is accepted as a variable name).  A polynomial is a dict mapping
monomials to nonzero coefficients, where a monomial is a sorted tuple of
(variable, exponent) pairs with positive exponents; the empty tuple is the
constant monomial.  Zero coefficients are never stored; every coefficient,
like every weight coordinate, is stored as `exact` makes it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

Scalar = Union[int, Fraction]
Monomial = tuple  # tuple[tuple[str, int], ...]

_ONE_MONO: Monomial = ()


def exact(x) -> Scalar:
    """The one canonical form of an exact scalar: an int when x is
    integral, else a Fraction; TypeError on a float or any other type."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an exact scalar: {x!r}")


class Poly:
    """A polynomial over Q in named commuting variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        self.terms: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coef in terms.items():
                coef = exact(coef)
                if coef:
                    self.terms[mono] = coef

    @staticmethod
    def const(x: Scalar) -> "Poly":
        return Poly({_ONE_MONO: x})

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return Poly.const(1)
        return Poly({((name, exp),): 1})

    @staticmethod
    def coerce(x) -> "Poly":
        return x if isinstance(x, Poly) else Poly.const(x)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == _ONE_MONO for m in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get(_ONE_MONO, 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its value (see __eq__), so it hashes as one
        if self.is_constant():
            return hash(self.terms.get(_ONE_MONO, 0))
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        other = Poly.coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Poly)):
            return NotImplemented
        return self + (-Poly.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return Poly.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly({m: v * other for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * Fraction(1, other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, values: Mapping[str, "Poly | Scalar"]) -> "Poly":
        """Replace variables by polynomials or scalars; others are kept."""
        out = Poly()
        for mono, coef in self.terms.items():
            term = Poly.const(coef)
            for name, exp in mono:
                if name in values:
                    term = term * (Poly.coerce(values[name]) ** exp)
                else:
                    term = term * Poly.var(name, exp)
            out = out + term
        return out

    def linear_parts(self) -> dict[str, Scalar]:
        """For a polynomial that is homogeneous linear in its variables,
        return {variable: coefficient}.  Raises if any term is nonlinear or
        constant."""
        out: dict[str, Scalar] = {}
        for mono, coef in self.terms.items():
            if len(mono) != 1 or mono[0][1] != 1:
                raise ValueError(f"not homogeneous linear: {self}")
            out[mono[0][0]] = coef
        return out

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (sum(e for _, e in m), m)):
            coef = self.terms[mono]
            factors = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in mono
            )
            if not factors:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(factors)
            elif coef == -1:
                parts.append(f"-{factors}")
            else:
                parts.append(f"{coef}*{factors}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for name, e in m2:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


ONE = Poly.const(1)
