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


def build_deformed_rhs(spec: DeformationSpec, w=None) -> dict:
    """The right sides of the deformed relations, keyed by (i, j).

    c, d, u, v enter symbolically; w (optional {(i,j): Element}) defaults to
    zero and is otherwise added verbatim to the off-diagonal entries.
    """
    alg = Algebra(spec.n)
    c, d = Poly.var("c"), Poly.var("d")
    u, v = Poly.var("u"), Poly.var("v")
    out = {}
    for i in range(spec.n):
        rhs = f_of_casimir(alg, i, spec.f_coeffs)
        for l in range(spec.n):
            if l == i:
                continue
            m_il = m_one_S_delta(alg_rank1_casimir(), i, l, spec.n)
            s_il = alg.transposition(i, l)
            rhs = rhs + (s_il * c + alg.one() * d) * m_il
        out[(i, i)] = rhs
    for i in range(spec.n):
        for j in range(spec.n):
            if i == j:
                continue
            s_ij = alg.transposition(i, j)
            m_ij = m_one_S_delta(alg_rank1_casimir(), i, j, spec.n)
            rhs = s_ij * u + (s_ij * m_ij) * v
            if w and (i, j) in w:
                rhs = rhs + w[(i, j)]
            out[(i, j)] = rhs
    return out


def alg_rank1_casimir() -> Element:
    return Algebra(1).casimir(0)


def obstruction_ek(spec: DeformationSpec, k: int) -> Element:
    """[e_k, sum_i RHS(i,i)], normal-formed; linear in c and d."""
    if not 0 <= k < spec.n:
        raise ValueError("k out of range")
    return _obstruction_ek(build_deformed_rhs(spec), Algebra(spec.n), k)


def _obstruction_ek(rhs: dict, alg: Algebra, k: int) -> Element:
    total = alg.zero()
    for i in range(alg.n):
        total = total + rhs[(i, i)]
    return commutator(alg.e(k), total)


def weight_vector_check(a: Element, eta) -> bool:
    """True iff [h_i, a] = eta_i * a exactly, for every i."""
    alg = a.algebra
    if len(eta) != alg.n:
        raise ValueError("rank mismatch")
    for i in range(alg.n):
        lhs = commutator(alg.h(i), a)
        if not (lhs - a * eta[i]).is_zero():
            return False
    return True


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
    m_engine = m_one_S_delta(alg_rank1_casimir(), 0, 1, spec.n)
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
    obstructions = [_obstruction_ek(rhs, alg, k) for k in range(spec.n)]
    i_wit = 1 if spec.n >= 2 else 0
    wit = witness_monomial(spec, i=i_wit, k=0)
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

    # off-diagonal: weight-vector conditions in u, v
    uv_elements = []
    for i in range(spec.n):
        for j in range(spec.n):
            if i == j:
                continue
            target = [0] * spec.n
            target[j] += 1
            target[i] -= 1
            r = rhs[(i, j)]
            for l in range(spec.n):
                uv_elements.append(commutator(alg.h(l), r) - r * target[l])
    uv_rows = _linear_system(uv_elements, ["u", "v"])
    uv_rank = linalg.rank(uv_rows)

    # w_{ij}: exact lattice check; every bounded-degree monomial has even
    # ad-h weight, the target eta_j - eta_i does not
    w_all_forced = True
    w_bad = None
    for factors in enveloping_monomials(spec.n, spec.w_degree):
        wt = ad_h_weight(factors)
        for i in range(spec.n):
            for j in range(spec.n):
                if i == j:
                    continue
                target = tuple(
                    (1 if l == j else 0) - (1 if l == i else 0)
                    for l in range(spec.n)
                )
                if wt == target:
                    w_all_forced = False
                    w_bad = factors
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
