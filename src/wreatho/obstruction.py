"""Mechanized no-go check for the deformed cross relations.

The deformation ansatz replaces the commutators [Y_i, X_j] of the doubled
generators by

    i = j:  f(Omega_i) + sum_{l != i} (c s_{il} + d) * M_{il}
    i != j: u s_{ij} + v s_{ij} * M_{ij} + w_{ij},

where M_{il} is the engine value of (m (1 x S) Delta_{il}) applied to the
Casimir and w_{ij} ranges over the plain enveloping algebra.  Compatibility
with a triangular decomposition forces every parameter to vanish: the
commutator of e_k with the diagonal relations must vanish (it kills c via a
single witness monomial, then d), the off-diagonal relations must be ad-h
weight vectors of weight eta_j - eta_i, which kills u and v, and that weight
lies outside the even lattice of enveloping-algebra weights, which kills
w_{ij} monomial by monomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from . import linalg
from .pbw import (
    Algebra,
    Element,
    commutator,
    enveloping_monomials,
    m_one_S_delta,
    mixed_term,
)
from .poly import Poly
from .weights import InternalConsistencyError


@dataclass
class DeformationSpec:
    """Parameters of the deformation: rank, the polynomial f as coefficient
    list (rationals or symbolic Polys such as t0, t1), and the degree bound
    for the generic w_{ij}."""

    n: int
    f_coeffs: list = field(default_factory=list)
    w_degree: int = 4

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("the cross relations need n >= 2")
        if self.w_degree < 0:
            raise ValueError(f"w_degree must be >= 0, got {self.w_degree}")


def f_of_casimir(alg: Algebra, i: int, f_coeffs) -> Element:
    """sum_k f_k Omega_i^k, one multiplication by Omega_i per degree up to
    the last nonzero coefficient."""
    polys = [Poly.coerce(coef) for coef in f_coeffs]
    while polys and polys[-1].is_zero():
        polys.pop()
    total = alg.zero()
    omega = alg.casimir(i)
    power = alg.one()
    for k, poly in enumerate(polys):
        if k:
            power = power * omega
        if not poly.is_zero():
            total = total + power * poly
    return total


def build_deformed_rhs(spec: DeformationSpec) -> dict:
    """The right sides of the deformed relations, keyed by (i, j), with c, d,
    u, v symbolic.

    s_ij and M_ij are built once per ordered pair: the diagonal relation of
    i reads M_il for every l != i, the off-diagonal relation (i, j) reads M_ij.
    """
    alg = Algebra(spec.n)
    c, d = Poly.var("c"), Poly.var("d")
    u, v = Poly.var("u"), Poly.var("v")
    omega = Algebra(1).casimir(0)
    pairs = list(permutations(range(spec.n), 2))
    s = {p: alg.transposition(*p) for p in pairs}
    m = {p: m_one_S_delta(omega, *p, spec.n) for p in pairs}
    out = {}
    for i in range(spec.n):
        rhs = f_of_casimir(alg, i, spec.f_coeffs)
        for l in range(spec.n):
            if l != i:
                rhs = rhs + (s[i, l] * c + alg.one() * d) * m[i, l]
        out[(i, i)] = rhs
    for p in pairs:
        out[p] = s[p] * u + (s[p] * m[p]) * v
    return out


def obstruction_ek(spec: DeformationSpec, k: int) -> Element:
    """[e_k, sum_i RHS(i,i)], normal-formed; linear in c and d."""
    if not 0 <= k < spec.n:
        raise ValueError("k out of range")
    alg = Algebra(spec.n)
    return commutator(alg.e(k), _diagonal_sum(build_deformed_rhs(spec), alg))


def _diagonal_sum(rhs: dict, alg: Algebra) -> Element:
    total = alg.zero()
    for i in range(alg.n):
        total = total + rhs[(i, i)]
    return total


def _weight_defects(a: Element, eta) -> list:
    """[h_l, a] - eta_l a for every l: all vanish iff a has ad-h weight eta."""
    alg = a.algebra
    if len(eta) != alg.n:
        raise ValueError("rank mismatch")
    return [commutator(alg.h(l), a) - a * eta[l] for l in range(alg.n)]


def weight_vector_check(a: Element, eta) -> bool:
    """True iff [h_i, a] = eta_i * a exactly, for every i."""
    return all(defect.is_zero() for defect in _weight_defects(a, eta))


def witness_monomial(spec: DeformationSpec, i: int, k: int):
    """Normal form of s_{ik} f_i e_i^2: the group element moves left past the
    monomial, relabeling i to k."""
    factors = [(0, 0, 0)] * spec.n
    factors[k] = (1, 0, 2)
    perm = list(range(spec.n))
    perm[i], perm[k] = perm[k], perm[i]
    return (tuple(factors), tuple(perm))


def ad_h_weight(factors) -> tuple:
    """ad h_i eigenvalue of a PBW monomial: 2(c_i - a_i) per factor."""
    return tuple(2 * (c - a) for (a, b, c) in factors)


def _linear_system(elements, unknowns):
    """Rows of coefficients of `unknowns` across all monomial coefficients."""
    rows = []
    for elem in elements:
        for coef in elem.terms.values():
            parts = coef.linear_parts()
            stray = set(parts) - set(unknowns)
            if stray:
                raise ValueError(f"unexpected parameters {stray}")
            rows.append([parts.get(unk, 0) for unk in unknowns])
    return rows


def verify_no_go(spec: DeformationSpec) -> dict:
    """Assemble every constraint and solve; the expected outcome is that the
    solution space is exactly {c = d = u = v = 0, w = 0}.

    A nonzero solution space is reported, not raised: it would be a finding
    that fails acceptance.
    """
    if spec.n not in (2, 3):
        raise ValueError("verify_no_go supports n in {2, 3}")
    alg = Algebra(spec.n)
    report: dict = {}

    # sign and scale of the engine mixed term against e_i f_j + f_i e_j + h_i h_j/2
    m_engine = m_one_S_delta(Algebra(1).casimir(0), 0, 1, spec.n)
    residual = m_engine - alg.casimir(0) - alg.casimir(1)
    m_ref = mixed_term(spec.n, 0, 1)
    scale = _proportionality(residual, m_ref)
    report["sign_of_mij"] = "-" if scale is not None and scale < 0 else "+"
    report["mixed_scale"] = None if scale is None else str(abs(scale))
    if scale is None:
        raise InternalConsistencyError("mixed term not proportional to the reference")

    # the deformed right sides, built once for the diagonal and off-diagonal checks
    rhs = build_deformed_rhs(spec)

    # diagonal obstruction: c first (single witness), then d
    diagonal = _diagonal_sum(rhs, alg)
    obstructions = [commutator(alg.e(k), diagonal) for k in range(spec.n)]
    wit = witness_monomial(spec, i=1, k=0)
    wit_coef = obstructions[0].coefficient(wit)
    wit_parts = wit_coef.linear_parts()
    report["witnesses"] = {
        "c_monomial": "s(i,k)*f_i*e_i^2 normal form",
        "c_coefficient": str(wit_coef),
    }
    c_forced = set(wit_parts) == {"c"} and wit_parts["c"] != 0
    cd_rows = _linear_system(obstructions, ["c", "d"])
    cd_rank = linalg.rank(cd_rows)
    d_forced_after_c = linalg.in_row_space(cd_rows, [0, 1])

    # off-diagonal: RHS(i,j) must have ad-h weight eta_j - eta_i, linear in u, v
    targets = {
        (i, j): tuple(int(l == j) - int(l == i) for l in range(spec.n))
        for i, j in permutations(range(spec.n), 2)
    }
    uv_elements = []
    for p, eta in targets.items():
        uv_elements.extend(_weight_defects(rhs[p], eta))
    uv_rows = _linear_system(uv_elements, ["u", "v"])
    uv_rank = linalg.rank(uv_rows)

    # w_{ij}: exact lattice check; every bounded-degree monomial has even
    # ad-h weight, no target eta_j - eta_i is even
    lattice_targets = set(targets.values())
    w_bad = None
    for factors in enveloping_monomials(spec.n, spec.w_degree):
        if ad_h_weight(factors) in lattice_targets:
            w_bad = factors
    w_all_forced = w_bad is None
    report["w_lattice_check"] = {
        "degree_bound": spec.w_degree,
        "all_weights_even": w_all_forced,
        "counterexample": w_bad,
    }

    forced = []
    if c_forced:
        forced.append("c")
    if d_forced_after_c:
        forced.append("d")
    if uv_rank == 2:
        forced.extend(["u", "v"])
    if w_all_forced:
        forced.append("w")
    solution_dim = (2 - cd_rank) + (2 - uv_rank) + (0 if w_all_forced else 1)
    report["forced_zero"] = forced
    report["solution_space_dim"] = solution_dim
    report["implications"] = {
        "c_from_single_monomial": c_forced,
        "d_after_c": d_forced_after_c,
        "uv_from_weight_condition": uv_rank == 2,
        "w_from_lattice_parity": w_all_forced,
    }
    return report


def _proportionality(a: Element, b: Element):
    """The scalar s with a = s * b, or None; constants only."""
    if a.is_zero() and b.is_zero():
        return 0
    if set(a.terms) != set(b.terms):
        return None
    ratio = None
    for mono, coef in a.terms.items():
        ca = coef.constant_value()
        cb = b.terms[mono].constant_value()
        if cb == 0:
            return None
        r = Fraction(ca, cb)
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio
