"""PBW normal-form engine for the skew enveloping algebra of sl2^n.

Monomials are f^a h^b e^c per tensor factor (in that order), factors in
index order, one group permutation on the right; coefficients are exact
polynomials in named parameters.  The rank-1 product is the closed form
of the divided-power commutation formula of Kostant's Z-form (Humphreys,
Introduction to Lie Algebras and Representation Theory, 26.2)

    e^c f^A = sum_{t <= min(c, A)} binom(c, t) binom(A, t) t!
              f^{A-t} prod_{s < t} (h - c - A + 2t - s) e^{c-t},

with h^b f^k = f^k (h - 2k)^b and e^k h^B = (h - 2k)^B e^k moving the
outer powers of h inward.  Different factors commute, and gamma a =
gamma(a) gamma moves the group to the right.  The normal form is the PBW
basis, which the associativity self-tests exercise.

Every structure constant is an integer (binomials, t! and the
coefficients of products of linear factors h + r with integer r), so
`_mul_rank1` and the products work in plain ints; a denominator enters a
coefficient only from an input, such as the 1/2 in the Casimir.  A product
forms p1 * p2 once per pair of terms and collects each output monomial's
coefficient in one dict; coefficients are stored as Polys, whose integral
scalars are ints (poly.exact).

The Harish-Chandra projection keeps the pure-h monomials; everything about
central characters is built on top of it.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from . import linalg
from .cato_a import s_sets_A
from .poly import ONE, Poly
from .weights import (
    GammaSpec,
    InternalConsistencyError,
    Perm,
    Weight,
    as_weight,
    canonical_orbit_rep,
    gamma_cells,
    parse_rational,
    perm_act,
    perm_compose,
    perm_inverse,
)

FactorExp = tuple  # (a, b, c): exponents of f, h, e
Monomial = tuple  # (factors: tuple[FactorExp, ...], perm: Perm)


def _times_linear(poly: list, r: int) -> None:
    """Multiply the coefficient list poly (poly[k] of h^k) by h + r in place."""
    poly.append(0)
    for k in range(len(poly) - 1, 0, -1):
        poly[k] = poly[k - 1] + r * poly[k]
    poly[0] *= r


@lru_cache(maxsize=None)
def _mul_rank1(m1: FactorExp, m2: FactorExp):
    """Normal form of (f^a h^b e^c)(f^A h^B e^C) as {(a,b,c): int}.

    Term t of e^c f^A moves h^b right past f^{A-t} and h^B left past
    e^{c-t}; its h-part is the product of the linear factors h + r below.
    The keys differ in t or in the power of h, so nothing collects.
    """
    a, b, c = m1
    A, B, C = m2
    out: dict[FactorExp, int] = {}
    scale = 1  # binom(c, t) binom(A, t) t!
    for t in range(min(c, A) + 1):
        if t:
            scale = scale * (c - t + 1) * (A - t + 1) // t
        h = [1]
        for _ in range(b):
            _times_linear(h, -2 * (A - t))
        for r in range(2 * t - c - A, t - c - A, -1):
            _times_linear(h, r)
        for _ in range(B):
            _times_linear(h, -2 * (c - t))
        for k, coef in enumerate(h):
            if coef:
                out[(a + A - t, k, c - t + C)] = scale * coef
    return out


def _accumulate(acc: dict, mono: Monomial, coef_terms: dict, scale: int) -> None:
    """Add coef * scale into acc[mono], a {poly monomial: coefficient} dict;
    coef is given by its terms."""
    slot = acc.get(mono)
    if slot is None:
        slot = acc[mono] = {}
    for pm, c in coef_terms.items():
        slot[pm] = slot.get(pm, 0) + c * scale


class Algebra:
    """Context object fixing the rank; elements are built through it.

    gamma, when given, is only checked against the rank: the algebra's
    elements carry their own group parts, so contexts compare by rank.
    """

    def __init__(self, n: int, gamma: GammaSpec | None = None):
        if n < 1:
            raise ValueError("rank must be >= 1")
        if gamma is not None and gamma.n != n:
            raise ValueError("gamma rank mismatch")
        self.n = n

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.n == other.n

    def __hash__(self):
        return hash(self.n)

    # -- constructors

    def zero(self) -> "Element":
        return Element(self, {})

    def scalar(self, value) -> "Element":
        poly = Poly.coerce(value)
        if poly.is_zero():
            return self.zero()
        return Element(self, {self._unit_monomial(): poly})

    def one(self) -> "Element":
        return self.scalar(1)

    def gen(self, kind: str, i: int) -> "Element":
        """Generator f_i, h_i or e_i (0-based factor index)."""
        if not 0 <= i < self.n:
            raise ValueError(f"factor index {i} out of range")
        slot = {"f": 0, "h": 1, "e": 2}[kind]
        factors = [(0, 0, 0)] * self.n
        exps = [0, 0, 0]
        exps[slot] = 1
        factors[i] = tuple(exps)
        return Element(self, {(tuple(factors), self._id_perm()): ONE})

    def e(self, i: int) -> "Element":
        return self.gen("e", i)

    def f(self, i: int) -> "Element":
        return self.gen("f", i)

    def h(self, i: int) -> "Element":
        return self.gen("h", i)

    def group_element(self, perm: Perm) -> "Element":
        if len(perm) != self.n or sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {perm}")
        factors = tuple([(0, 0, 0)] * self.n)
        return Element(self, {(factors, tuple(perm)): ONE})

    def transposition(self, i: int, j: int) -> "Element":
        perm = list(range(self.n))
        perm[i], perm[j] = perm[j], perm[i]
        return self.group_element(tuple(perm))

    def _id_perm(self) -> Perm:
        return tuple(range(self.n))

    def _unit_monomial(self) -> Monomial:
        return (tuple([(0, 0, 0)] * self.n), self._id_perm())

    def casimir(self, i: int) -> "Element":
        """Omega_i = 2 f_i e_i + h_i + h_i^2 / 2."""
        fi, hi, ei = self.f(i), self.h(i), self.e(i)
        return fi * ei * 2 + hi + hi * hi * Fraction(1, 2)

    def symmetric_center_gen(self, k: int) -> "Element":
        """p_k = sum_i Omega_i^k."""
        if k < 1:
            raise ValueError("k must be >= 1")
        total = self.zero()
        for i in range(self.n):
            total = total + self.casimir(i) ** k
        return total


_SCALARS = (int, Fraction, Poly)


class Element:
    """An element in PBW normal form: {(factors, perm): Poly}."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: dict):
        self.algebra = algebra
        self.terms: dict[Monomial, Poly] = {
            m: p for m, p in terms.items() if not p.is_zero()
        }

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other)
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def _check(self, other: "Element") -> None:
        if self.algebra != other.algebra:
            raise ValueError("elements from different algebra contexts")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = self.algebra.scalar(other)
        elif not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for m, p in other.terms.items():
            s = out.get(m, Poly()) + p
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return Element(self.algebra, out)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.algebra, {m: -p for m, p in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = self.algebra.scalar(other)
        elif not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return self.algebra.scalar(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            coef = Poly.coerce(other)
            return Element(
                self.algebra, {m: p * coef for m, p in self.terms.items()}
            )
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        n = self.algebra.n
        acc: dict[Monomial, dict] = {}
        for (fac1, perm1), p1 in self.terms.items():
            inv1 = perm_inverse(perm1)
            for (fac2, perm2), p2 in other.terms.items():
                coef = (p1 * p2).terms
                perm = perm_compose(perm1, perm2)
                per_factor = [
                    _mul_rank1(fac1[i], fac2[inv1[i]]).items() for i in range(n)
                ]
                for combo in itertools.product(*per_factor):
                    scale = 1
                    for _, v in combo:
                        scale *= v
                    _accumulate(acc, (tuple(k for k, _ in combo), perm), coef, scale)
        return Element(self.algebra, {m: Poly(s) for m, s in acc.items()})

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = self.algebra.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def substitute(self, values) -> "Element":
        return Element(
            self.algebra,
            {m: p.substitute(values) for m, p in self.terms.items()},
        )

    def coefficient(self, monomial: Monomial) -> Poly:
        return self.terms.get(monomial, Poly())

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_mono_sort_key):
            coef = self.terms[mono]
            text = _mono_str(mono)
            cs = str(coef)
            if cs == "1" and text:
                parts.append(text)
            elif text:
                wrap = f"({cs})" if ("+" in cs or "-" in cs[1:]) else cs
                parts.append(f"{wrap}*{text}")
            else:
                parts.append(f"({cs})" if "+" in cs else cs)
        return " + ".join(parts)


def _mono_sort_key(mono: Monomial):
    factors, perm = mono
    return (sum(sum(t) for t in factors), factors, perm)


def _mono_str(mono: Monomial) -> str:
    factors, perm = mono
    bits = []
    for i, (a, b, c) in enumerate(factors):
        for name, exp in (("f", a), ("h", b), ("e", c)):
            if exp == 1:
                bits.append(f"{name}{i + 1}")
            elif exp > 1:
                bits.append(f"{name}{i + 1}^{exp}")
    if perm != tuple(range(len(factors))):
        bits.append("g[" + ",".join(str(p + 1) for p in perm) + "]")
    return "*".join(bits)


def commutator(a: Element, b: Element) -> Element:
    return a * b - b * a


def anti_involution(a: Element) -> Element:
    """The anti-automorphism exchanging e and f, fixing h, inverting Gamma."""
    alg = a.algebra
    out = alg.zero()
    for (factors, perm), coef in a.terms.items():
        swapped = tuple((c, b, ax) for (ax, b, c) in factors)
        inv = perm_inverse(perm)
        conjugated = tuple(swapped[inv[i]] for i in range(alg.n))
        mono = (conjugated, inv)
        out = out + Element(alg, {mono: coef})
    return out


def gamma_twist(a: Element, perm: Perm) -> Element:
    """The automorphism gamma(.): conjugation by a group element."""
    alg = a.algebra
    g = alg.group_element(perm)
    ginv = alg.group_element(perm_inverse(perm))
    return g * a * ginv


# ---------------------------------------------------------------------------
# Harish-Chandra projection and central characters


def hc_projection(a: Element) -> Element:
    """Keep exactly the monomials with no e or f part (group parts stay)."""
    kept = {
        mono: coef
        for mono, coef in a.terms.items()
        if all(t[0] == 0 and t[2] == 0 for t in mono[0])
    }
    return Element(a.algebra, kept)


def _eval_h_monomial(lam, factors) -> "Poly | int | Fraction":
    result = 1
    for coord, (a, b, c) in zip(lam, factors):
        if a or c:
            raise ValueError("not a pure h monomial")
        if b:
            result *= coord**b
    return result


def central_character(gamma: GammaSpec, lam: Weight, r: Element) -> dict:
    """chi_lam(r): for each group part fixing lam, evaluate lam on the
    Harish-Chandra projection of its coefficient.

    Returns {perm: value}; values are Polys, constant unless the input has
    symbolic coefficients or the weight has symbolic coordinates.  gamma is
    not read: the group parts come from r itself, so callers may pass None.
    """
    alg = r.algebra
    if alg.n != len(lam):
        raise ValueError("rank mismatch")
    numeric = all(isinstance(c, (int, Fraction)) for c in lam)
    out: dict[Perm, object] = {}
    xi = hc_projection(r)
    for (factors, perm), coef in xi.terms.items():
        if numeric and perm_act(perm, lam) != lam:
            continue
        term = coef * _eval_h_monomial(lam, factors)
        prev = out.get(perm)
        out[perm] = term if prev is None else prev + term
    return {perm: val for perm, val in out.items() if val}


def central_character_numeric(gamma: GammaSpec, lam: Weight, r: Element) -> dict:
    """Like central_character but requiring parameter-free coefficients."""
    numeric = {}
    for perm, val in central_character(gamma, lam, r).items():
        if not val.is_constant():
            raise ValueError(
                "symbolic parameters present; supply evaluation values"
            )
        numeric[perm] = val.constant_value()
    return numeric


def group_algebra_conjugate(values: dict, beta: Perm) -> dict:
    """beta (sum c_g g) beta^{-1} in the group algebra."""
    binv = perm_inverse(beta)
    return {
        perm_compose(perm_compose(beta, g), binv): v for g, v in values.items()
    }


# ---------------------------------------------------------------------------
# central character equality (dual evidence)


def _t_value(c: int | Fraction) -> Fraction:
    """The flip-invariant coordinate c + c^2/2 (the rank-1 HC value)."""
    return c + Fraction(c * c, 2)


def _separating_invariants(gamma: GammaSpec, t: Weight) -> tuple:
    """Values of a Gamma-orbit-separating family of symmetric invariants.

    For symmetric factors, power sums of the t-values per factor; for cyclic
    blocks, orbit sums of all monomials up to degree m (the Noether bound),
    which generate the invariant ring and hence separate orbits.  Every
    entry is homogeneous in t: p_k has degree k, a cyclic orbit sum the
    degree of its monomial, and a trivial cell's value degree 1.
    """
    out = []
    for kind, span in gamma_cells(gamma):
        vals = t[span.start : span.stop]
        m = len(vals)
        if kind == "S":
            out.append(tuple(sum(v**k for v in vals) for k in range(1, m + 1)))
        elif kind == "C":
            sums = []
            for total in range(1, m + 1):
                for expo in itertools.combinations_with_replacement(range(m), total):
                    mono = [0] * m
                    for i in expo:
                        mono[i] += 1
                    s = 0
                    for r in range(m):
                        term = 1
                        for i in range(m):
                            term *= vals[(i + r) % m] ** mono[i]
                        s += term
                    sums.append(s)
            out.append(tuple(sums))
        else:
            out.extend((v,) for v in vals)
    return tuple(out)


def cc_equal(gamma: GammaSpec, lam: Weight, mu: Weight) -> dict:
    """Do lam and mu share a central character?  Dual evidence:

    orbit test: mu in Gamma . (W-dot orbit of lam); invariant test: equality
    of a Gamma-separating family of symmetric functions in the rank-1 values
    c + c^2/2.  The two must concur (InternalConsistencyError otherwise).

    The invariant test runs in integers: both t-tuples are scaled by L, the
    lcm of their denominators.  Each invariant is homogeneous, so its value
    on the scaled tuple is L^deg times its value on t, and since L > 0 the
    two families agree after scaling exactly when they agree before.
    """
    if len(lam) != len(mu) or len(lam) != gamma.n:
        raise ValueError("rank mismatch")
    lam = as_weight(lam)
    mu = as_weight(mu)
    mu_rep = canonical_orbit_rep(gamma, mu)
    orbit_test = any(canonical_orbit_rep(gamma, w) == mu_rep for w in s_sets_A(lam, 4))
    t_lam = tuple(_t_value(c) for c in lam)
    t_mu = tuple(_t_value(c) for c in mu)
    scale = lcm(*(t.denominator for t in t_lam + t_mu))
    invariant_test = _separating_invariants(
        gamma, tuple(t.numerator * (scale // t.denominator) for t in t_lam)
    ) == _separating_invariants(
        gamma, tuple(t.numerator * (scale // t.denominator) for t in t_mu)
    )
    if orbit_test != invariant_test:
        raise InternalConsistencyError(
            f"orbit test {orbit_test} disagrees with invariants for {lam},{mu}"
        )
    return {
        "equal": orbit_test,
        "orbit_test": orbit_test,
        "invariant_test": invariant_test,
        "t_lambda": t_lam,
        "t_mu": t_mu,
    }


# ---------------------------------------------------------------------------
# coproduct and antipode calculus


def coproduct_pair(a: Element) -> Element:
    """The coproduct of a rank-1 element into the rank-2 algebra, via the
    primitive images x -> x_1 + x_2 of the generators.

    The two legs commute, so each power expands binomially and
    Delta(f^a h^b e^c) is the sum over a1 + a2 = a, b1 + b2 = b, c1 + c2 = c
    of C(a,a1) C(b,b1) C(c,c1) (f^a1 h^b1 e^c1) x (f^a2 h^b2 e^c2), each
    term already a PBW monomial."""
    alg = a.algebra
    if alg.n != 1:
        raise ValueError("coproduct_pair takes a rank-1 element")
    acc: dict[Monomial, dict] = {}
    for (factors, perm), coef in a.terms.items():
        if perm != (0,):
            raise ValueError("group parts have no coproduct here")
        av, bv, cv = factors[0]
        terms = coef.terms
        for a1, b1, c1 in itertools.product(
            range(av + 1), range(bv + 1), range(cv + 1)
        ):
            legs = ((a1, b1, c1), (av - a1, bv - b1, cv - c1))
            scale = comb(av, a1) * comb(bv, b1) * comb(cv, c1)
            _accumulate(acc, (legs, (0, 1)), terms, scale)
    return Element(Algebra(2), {m: Poly(s) for m, s in acc.items()})


@lru_cache(maxsize=None)
def _antipode_rank1(m: FactorExp) -> dict:
    """S(f^a h^b e^c) = (-1)^{a+b+c} e^c h^b f^a in normal form, as
    {(a,b,c): int}."""
    a, b, c = m
    sign = (-1) ** (a + b + c)
    out: dict[FactorExp, int] = {}
    for key, coef in _mul_rank1((0, b, 0), (a, 0, 0)).items():
        for k2, c2 in _mul_rank1((0, 0, c), key).items():
            out[k2] = out.get(k2, 0) + sign * coef * c2
    return {k: v for k, v in out.items() if v}


def m_one_S_delta(a: Element, i: int, j: int, n: int | None = None) -> Element:
    """(m (1 x S) Delta_{ij}) applied to a rank-1 element, inside rank n.

    The antipode S negates the generators and reverses products; the j-leg
    of each coproduct term is rebuilt as e^c h^b f^a with sign (-1)^{a+b+c}.
    The i-leg is already in normal form and the two legs lie in different
    factors, so each term is the i-leg placed beside the normal form of the
    j-leg, with no product of elements.
    """
    if i == j:
        raise ValueError("legs must be distinct")
    if n is None:
        n = max(i, j) + 1
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("leg index out of range")
    big = Algebra(n)
    identity = big._id_perm()
    acc: dict[Monomial, dict] = {}
    for (legs, _), coef in coproduct_pair(a).terms.items():
        factors = [(0, 0, 0)] * n
        factors[i] = legs[0]
        terms = coef.terms
        for key, scale in _antipode_rank1(legs[1]).items():
            factors[j] = key
            _accumulate(acc, (tuple(factors), identity), terms, scale)
    return Element(big, {m: Poly(s) for m, s in acc.items()})


def mixed_term(n: int, i: int, j: int) -> Element:
    """e_i f_j + f_i e_j + h_i h_j / 2."""
    alg = Algebra(n)
    return (
        alg.e(i) * alg.f(j)
        + alg.f(i) * alg.e(j)
        + alg.h(i) * alg.h(j) * Fraction(1, 2)
    )


# ---------------------------------------------------------------------------
# center computation at desk scale


def enveloping_monomials(n: int, dmax: int):
    """The PBW monomials of U(sl2)^n of degree <= dmax, as tuples of
    per-factor exponents (a, b, c) of f^a h^b e^c.

    The order is that of itertools.product over the single-factor
    monomials sorted by degree, keeping the tuples within the bound: those
    of degree <= d are the first C(d+3, 3) singles, so each position
    ranges over the prefix that the remaining budget allows."""
    singles = [
        (a, b, c)
        for total in range(dmax + 1)
        for a in range(total + 1)
        for b in range(total - a + 1)
        for c in (total - a - b,)
    ]

    def extend(prefix: tuple, budget: int, left: int):
        if not left:
            yield prefix
            return
        for single in singles[: comb(budget + 3, 3)]:
            yield from extend(prefix + (single,), budget - sum(single), left - 1)

    yield from extend((), dmax, n)


def monomial_basis(alg: Algebra, dmax: int, perms: list[Perm]) -> list[Monomial]:
    return [
        (factors, p) for factors in enveloping_monomials(alg.n, dmax) for p in perms
    ]


def center_basis_up_to_degree(
    n: int, dmax: int, gamma: GammaSpec | None = None
) -> list[Element]:
    """Exact basis of the center of Gamma x| U(sl2)^n within bounded PBW degree.

    Gamma x| U is a free left U-module on Gamma, and U = U(sl2)^n is a
    domain.  For z = sum_g X_g g the leading symbol of [h_i, z] at g is
    sigma(X_g) (h_i - h_{g(i)}), so X_g = 0 for each g != 1 (it moves some
    i), and X_1 has ad-h weight zero: equal f- and e-exponents in every
    factor.  The center is Z(U)^Gamma (Harish-Chandra).  So the unknowns are
    the weight-zero monomials with identity group part, which the h_i
    commute with; the commutators with e_i, f_i and the group generators
    give the equations, solved by ``linalg.nullspace``.  Every null vector
    of the ansatz over all monomials and group elements vanishes on the
    dropped columns, and the kept ones keep their order, so the basis is
    the same.  The range stays capped at n <= 2, dmax <= 4; the largest
    system (dmax = 4, a group of order 2) has 30 unknowns and 90 equations.
    """
    if n > 2 or dmax > 4:
        raise ValueError("center computation capped at n <= 2, dmax <= 4")
    alg = Algebra(n, gamma)
    basis = [
        mono
        for mono in monomial_basis(alg, dmax, [alg._id_perm()])
        if all(a == c for a, _, c in mono[0])
    ]
    gens = [alg.gen(kind, i) for i in range(n) for kind in "ef"]
    if gamma:
        gens += [alg.group_element(p) for p in gamma.group().generators()]
    by_equation: dict = {}
    for k, mono in enumerate(basis):
        elem = Element(alg, {mono: ONE})
        for g_idx, g in enumerate(gens):
            for out_mono, coef in commutator(elem, g).terms.items():
                eq = by_equation.setdefault((out_mono, g_idx), {})
                eq[k] = coef.constant_value()
    mat = []
    for eq in by_equation.values():
        row = [0] * len(basis)  # int zeros: linalg skips them cheaply
        for k, val in eq.items():
            row[k] = val
        mat.append(row)
    return [
        Element(alg, {basis[k]: Poly.const(v) for k, v in enumerate(vec) if v})
        for vec in linalg.nullspace(mat, len(basis))
    ]


# ---------------------------------------------------------------------------
# expression parser (CLI surface)

_TOKEN = re.compile(
    r"\s*(?:(?P<gen>[efh]\d+)|(?P<param>t\d+|[cduv]\b)|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<swap>s\(\d+,\d+\))|(?P<cyc>cyc\(\d+\.\.\d+\))"
    r"|(?P<op>[-+*^()\[\],]))"
)


def tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(
                f"parse error at position {pos}: unexpected {text[pos:pos+8]!r}"
            )
        for kind in ("gen", "param", "num", "swap", "cyc", "op"):
            val = m.group(kind)
            if val is not None:
                out.append((kind, val))
                break
        pos = m.end()
    out.append(("end", ""))
    return out


class ExprParser:
    """Recursive descent over: expr = term (+|- term)*; term = power
    (* power)*; power = atom (^ int)*; atom = gen | number | parameter |
    group atom | ( expr ) | [ expr , expr ]."""

    def __init__(self, text: str, alg: Algebra):
        self.tokens = tokenize(text)
        self.pos = 0
        self.alg = alg

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val = self.next()
        if val != value:
            raise ValueError(
                f"parse error at token {self.pos - 1}: expected {value!r}, got {val!r}"
            )

    def parse(self) -> Element:
        out = self.expr()
        kind, val = self.next()
        if kind != "end":
            raise ValueError(f"parse error: trailing input at {val!r}")
        return out

    def expr(self) -> Element:
        sign = 1
        kind, val = self.peek()
        if val in ("+", "-"):
            self.next()
            sign = -1 if val == "-" else 1
        total = self.term() * sign
        while True:
            kind, val = self.peek()
            if val == "+":
                self.next()
                total = total + self.term()
            elif val == "-":
                self.next()
                total = total - self.term()
            else:
                return total

    def term(self) -> Element:
        total = self.power()
        while self.peek()[1] == "*":
            self.next()
            total = total * self.power()
        return total

    def power(self) -> Element:
        base = self.atom()
        while self.peek()[1] == "^":
            self.next()
            kind, val = self.next()
            if kind != "num" or "/" in val:
                raise ValueError("exponent must be a nonnegative integer")
            base = base ** int(val)
        return base

    def _factor(self, what: str, i: int) -> int:
        """The 0-based index of the factor written as i (1-based)."""
        if not 1 <= i <= self.alg.n:
            raise ValueError(f"{what} out of range (1..{self.alg.n})")
        return i - 1

    def atom(self) -> Element:
        kind, val = self.next()
        if kind == "gen":
            i = self._factor(f"generator {val}", int(val[1:]))
            return self.alg.gen(val[0], i)
        if kind == "num":
            return self.alg.scalar(parse_rational(val))
        if kind == "param":
            return self.alg.scalar(Poly.var(val))
        if kind == "swap":
            i, j = (
                self._factor(f"transposition {val}", int(x))
                for x in val[2:-1].split(",")
            )
            return self.alg.transposition(i, j)
        if kind == "cyc":
            lo, hi = (
                self._factor(f"cycle {val}", int(x)) for x in val[4:-1].split("..")
            )
            if lo > hi:
                raise ValueError(
                    f"cycle {val} runs backwards (expected cyc(a..b), a <= b)"
                )
            perm = list(range(self.alg.n))
            for k in range(lo, hi):
                perm[k] = k + 1
            perm[hi] = lo
            return self.alg.group_element(tuple(perm))
        if val == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if val == "[":
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect("]")
            return commutator(left, right)
        raise ValueError(f"parse error: unexpected token {val!r}")


def parse_expr(text: str, alg: Algebra) -> Element:
    return ExprParser(text, alg).parse()


def element_from_json(data: list, alg: Algebra) -> Element:
    out = alg.zero()
    for entry in data:
        factors = tuple(tuple(t) for t in entry["monomial"]["factors"])
        perm = tuple(int(p) - 1 for p in entry["monomial"]["group"].split(","))
        if len(factors) != alg.n or any(
            len(t) != 3 or any(type(x) is not int or x < 0 for x in t) for t in factors
        ):
            raise ValueError(f"not {alg.n} factors of three exponents: {factors}")
        if sorted(perm) != list(range(alg.n)):
            raise ValueError(f"not a permutation of 1..{alg.n}: {entry['monomial']['group']}")
        coef_elem = parse_expr(entry["coef"], alg)
        coef = coef_elem.terms.get(alg._unit_monomial())
        if coef is None:
            raise ValueError(f"coefficient is not scalar: {entry['coef']!r}")
        out = out + Element(alg, {(factors, perm): coef})
    return out


def element_to_json(a: Element) -> list:
    out = []
    for (factors, perm), coef in sorted(a.terms.items(), key=lambda kv: _mono_sort_key(kv[0])):
        out.append(
            {
                "monomial": {
                    "factors": [list(t) for t in factors],
                    "group": ",".join(str(p + 1) for p in perm),
                },
                "coef": str(coef),
            }
        )
    return out
