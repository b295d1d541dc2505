import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_strategies import CHAR_COORD, gamma_specs, pooled_weights
from oracles import (
    center_basis_full_ansatz,
    coproduct_pair_by_products,
    enveloping_monomials_by_filtering,
    identity_matrix,
    is_canonical_scalar,
    m_one_S_delta_by_products,
    matrix_product,
    mul_rank1_by_peeling,
    representation_matrix,
    separating_invariants,
)
from wreatho.linalg import in_row_space
from wreatho.pbw import (
    Algebra,
    Element,
    _mul_rank1,
    _t_value,
    anti_involution,
    cc_equal,
    center_basis_up_to_degree,
    central_character,
    central_character_numeric,
    commutator,
    coproduct_pair,
    element_from_json,
    element_to_json,
    enveloping_monomials,
    gamma_twist,
    group_algebra_conjugate,
    hc_projection,
    m_one_S_delta,
    mixed_term,
    parse_expr,
)
from wreatho.poly import Poly
from wreatho.weights import flip_coord, parse_gamma, perm_act, perm_inverse


def rand_element(alg, rng, with_group=False, length=3):
    out = alg.zero()
    for _ in range(length):
        term = alg.one() * F(rng.randint(-3, 3))
        for _ in range(rng.randint(1, 3)):
            term = term * alg.gen(rng.choice("efh"), rng.randrange(alg.n))
        if with_group and rng.random() < 0.5 and alg.n >= 2:
            i, j = rng.sample(range(alg.n), 2)
            term = term * alg.transposition(i, j)
        out = out + term
    return out


FACTOR_EXP = st.tuples(*[st.integers(0, 2)] * 3)
SMALL_FACTOR_EXP = st.tuples(*[st.integers(0, 1)] * 3)
FRACTIONS = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def elements(draw, n, symbolic=False, max_terms=3, exps=FACTOR_EXP):
    """An element of rank n with up to max_terms terms, per-factor exponents
    drawn from exps, random group parts and Fraction coefficients, some of
    them symbolic in t0..t2 when symbolic is set."""
    alg = Algebra(n)
    out = alg.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        factors = tuple(draw(st.lists(exps, min_size=n, max_size=n)))
        perm = tuple(draw(st.permutations(range(n))))
        coef = Poly.const(draw(FRACTIONS))
        if symbolic and draw(st.booleans()):
            coef = coef + Poly.var(f"t{draw(st.integers(0, 2))}") * draw(FRACTIONS)
        out = out + Element(alg, {(factors, perm): coef})
    return out


class TestRewriting:
    def test_defining_relations(self):
        alg = Algebra(1)
        e, f, h = alg.e(0), alg.f(0), alg.h(0)
        assert commutator(e, f) == h
        assert commutator(h, e) == e * 2
        assert commutator(h, f) == f * (-2)

    def test_skew_relation(self):
        alg = Algebra(2)
        s = alg.transposition(0, 1)
        assert s * alg.e(0) == alg.e(1) * s
        assert s * alg.f(1) == alg.f(0) * s
        assert s * s == alg.one()

    def test_cross_factors_commute(self):
        alg = Algebra(2)
        assert commutator(alg.e(0), alg.f(1)).is_zero()
        assert commutator(alg.h(0), alg.e(1)).is_zero()

    def test_associativity_200_products(self):
        rng = random.Random(41)
        alg = Algebra(2)
        for _ in range(200):
            a = rand_element(alg, rng, with_group=True, length=2)
            b = rand_element(alg, rng, with_group=True, length=2)
            c = rand_element(alg, rng, with_group=True, length=2)
            assert (a * b) * c == a * (b * c)

    def test_power_normal_form_stable(self):
        alg = Algebra(1)
        x = alg.e(0) * alg.f(0)
        assert x * x == x**2

    def test_rank1_product_matches_peeling_below_4(self):
        exps = list(itertools.product(range(4), repeat=3))
        for m1 in exps:
            for m2 in exps:
                assert _mul_rank1(m1, m2) == mul_rank1_by_peeling(m1, m2), (m1, m2)

    @given(*[st.tuples(*[st.integers(0, 8)] * 3)] * 2)
    @settings(max_examples=200)
    def test_rank1_product_matches_peeling(self, m1, m2):
        assert _mul_rank1(m1, m2) == mul_rank1_by_peeling(m1, m2)

    @pytest.mark.parametrize("c", [1, 2, 10, 700, 1024])
    def test_e_power_times_f(self, c):
        # e^c f = f e^c + c h e^(c-1) - c(c-1) e^(c-1)
        expected = {(1, 0, c): 1, (0, 1, c - 1): c}
        if c > 1:
            expected[(0, 0, c - 1)] = -c * (c - 1)
        assert _mul_rank1((0, 0, c), (1, 0, 0)) == expected


class TestAntiInvolution:
    def test_generators(self):
        alg = Algebra(1)
        assert anti_involution(alg.e(0)) == alg.f(0)
        assert anti_involution(alg.f(0)) == alg.e(0)
        assert anti_involution(alg.h(0)) == alg.h(0)

    def test_group_inverse(self):
        alg = Algebra(3)
        cyc = parse_expr("cyc(1..3)", alg)
        assert anti_involution(cyc) * cyc == alg.one()

    def test_properties_random(self):
        rng = random.Random(42)
        alg = Algebra(2)
        for _ in range(40):
            a = rand_element(alg, rng, with_group=True)
            b = rand_element(alg, rng, with_group=True)
            assert anti_involution(anti_involution(a)) == a
            assert anti_involution(a * b) == anti_involution(b) * anti_involution(a)

    def test_commutes_with_gamma(self):
        rng = random.Random(43)
        alg = Algebra(2)
        for _ in range(20):
            a = rand_element(alg, rng)
            for perm in ((1, 0), (0, 1)):
                assert anti_involution(gamma_twist(a, perm)) == gamma_twist(
                    anti_involution(a), perm
                )


class TestHC:
    def test_casimir_projection(self):
        alg = Algebra(1)
        xi = hc_projection(alg.casimir(0))
        assert xi == alg.h(0) + alg.h(0) ** 2 * F(1, 2)

    def test_fe_killed(self):
        alg = Algebra(1)
        assert hc_projection(alg.f(0) * alg.e(0)).is_zero()

    def test_pure_h_kept(self):
        alg = Algebra(2)
        hh = alg.h(0) * alg.h(1)
        assert hc_projection(hh) == hh

    def test_gamma_equivariance(self):
        # xi(gamma(a)) = gamma(xi(a))
        rng = random.Random(44)
        alg = Algebra(3)
        for _ in range(25):
            a = rand_element(alg, rng)
            perm = tuple(rng.sample(range(3), 3))
            assert hc_projection(gamma_twist(a, perm)) == gamma_twist(
                hc_projection(a), perm
            )


class TestCentralCharacter:
    def test_rank_one_value(self):
        alg = Algebra(1)
        gamma = parse_gamma("1:1")
        assert central_character_numeric(gamma, (F(1),), alg.casimir(0)) == {
            (0,): F(3, 2)
        }

    def test_twisted_monomial(self):
        alg = Algebra(2)
        gamma = parse_gamma("S:2")
        r = alg.casimir(0) * alg.transposition(0, 1)
        assert central_character_numeric(gamma, (F(2), F(2)), r) == {(1, 0): F(4)}
        assert central_character_numeric(gamma, (F(2), F(0)), r) == {}

    def test_symbolic_rejected_in_numeric(self):
        alg = Algebra(1)
        gamma = parse_gamma("1:1")
        r = alg.h(0) * Poly.var("c")
        with pytest.raises(ValueError):
            central_character_numeric(gamma, (F(1),), r)

    def test_formal_dot_invariance(self):
        alg = Algebra(1)
        gamma = parse_gamma("1:1")
        L = Poly.var("L")
        om = alg.casimir(0)
        lhs = central_character(gamma, (L,), om)
        rhs = central_character(gamma, (-L - Poly.const(2),), om)
        assert lhs == rhs
        assert lhs[(0,)] == L + L * L * F(1, 2)

    def test_multiplicative_on_center(self):
        rng = random.Random(45)
        alg = Algebra(2)
        gamma = parse_gamma("S:2")
        p = [alg.symmetric_center_gen(k) for k in (1, 2)]
        ident = (0, 1)
        for _ in range(12):
            lam = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3), rng.choice([1, 2])))
            vals = [
                central_character_numeric(gamma, lam, pk).get(ident, F(0)) for pk in p
            ]
            for a in range(2):
                for b in range(2):
                    prod = central_character_numeric(gamma, lam, p[a] * p[b])
                    assert prod.get(ident, F(0)) == vals[a] * vals[b]

    def test_equivariance(self):
        rng = random.Random(46)
        alg = Algebra(2)
        gamma = parse_gamma("S:2")
        for _ in range(30):
            lam = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
            beta = rng.choice([(0, 1), (1, 0)])
            r = rand_element(alg, rng, with_group=True)
            binv = perm_inverse(beta)
            beta_lam = tuple(lam[binv[i]] for i in range(2))
            lhs = central_character_numeric(gamma, beta_lam, r)
            rhs_inner = central_character_numeric(
                gamma, lam, gamma_twist(r, binv)
            )
            assert lhs == group_algebra_conjugate(rhs_inner, beta)


class TestCasimirs:
    def test_casimir_central(self):
        alg = Algebra(2)
        om = alg.casimir(0)
        for g in (alg.e(0), alg.f(0), alg.h(0)):
            assert commutator(g, om).is_zero()

    def test_disjoint_factor(self):
        alg = Algebra(2)
        assert commutator(alg.e(0), alg.casimir(1)).is_zero()

    def test_power_sum_commutes_with_group(self):
        alg = Algebra(2)
        p1 = alg.symmetric_center_gen(1)
        assert commutator(alg.transposition(0, 1), p1).is_zero()


class TestCoproduct:
    def test_primitive(self):
        alg = Algebra(1)
        a2 = Algebra(2)
        assert coproduct_pair(alg.e(0)) == a2.e(0) + a2.e(1)

    def test_square_of_primitive(self):
        alg = Algebra(1)
        a2 = Algebra(2)
        assert coproduct_pair(alg.h(0) ** 2) == (
            a2.h(0) ** 2 + a2.h(0) * a2.h(1) * 2 + a2.h(1) ** 2
        )

    def test_casimir(self):
        # Delta(Omega) = Om_1 + Om_2 + 2(e1 f2 + f1 e2 + h1 h2/2) for the
        # standard Casimir 2fe + h + h^2/2
        alg = Algebra(1)
        a2 = Algebra(2)
        delta = coproduct_pair(alg.casimir(0))
        assert delta == a2.casimir(0) + a2.casimir(1) + mixed_term(2, 0, 1) * 2

    def test_higher_rank_rejected(self):
        # rank-1 inputs cannot carry a nontrivial group part; anything of
        # higher rank (where group parts live) is rejected outright
        with pytest.raises(ValueError):
            coproduct_pair(Algebra(2).e(0))
        with pytest.raises(ValueError):
            coproduct_pair(Algebra(2).transposition(0, 1))


class TestDirectCoproduct:
    """The binomial coproduct and the antipode calculus built without
    products agree with the product-built oracles."""

    @given(elements(1, symbolic=True, max_terms=4))
    @settings(max_examples=60)
    def test_coproduct_matches_products(self, a):
        assert coproduct_pair(a) == coproduct_pair_by_products(a)

    @given(
        elements(1, symbolic=True, max_terms=4),
        st.sampled_from([(0, 1, 2), (1, 0, 2), (0, 2, 3), (2, 1, 3), (1, 2, 3)]),
    )
    @settings(max_examples=60)
    def test_antipode_calculus_matches_products(self, a, legs):
        i, j, n = legs
        assert m_one_S_delta(a, i, j, n) == m_one_S_delta_by_products(a, i, j, n)

    def test_casimir_matches_products(self):
        omega = Algebra(1).casimir(0)
        assert coproduct_pair(omega) == coproduct_pair_by_products(omega)
        assert m_one_S_delta(omega, 2, 0, 3) == m_one_S_delta_by_products(
            omega, 2, 0, 3
        )


class TestEnvelopingMonomials:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("dmax", range(6))
    def test_order_of_filtered_product(self, n, dmax):
        assert list(enveloping_monomials(n, dmax)) == (
            enveloping_monomials_by_filtering(n, dmax)
        )


class TestRepresentationOracle:
    """rho: U(sl2)^n x| S_n -> End(V(d)^n) is a homomorphism, checked with
    explicit sl2 matrices and tensor-factor permutations."""

    @given(
        st.integers(1, 3).flatmap(lambda n: st.tuples(elements(n), elements(n))),
        st.sampled_from([2, 3]),
    )
    @settings(max_examples=60)
    def test_products(self, pair, d):
        a, b = pair
        assert representation_matrix(a * b, d) == matrix_product(
            representation_matrix(a, d), representation_matrix(b, d)
        )

    @given(
        st.integers(1, 3).flatmap(
            lambda n: elements(n, max_terms=2, exps=SMALL_FACTOR_EXP)
        ),
        st.integers(0, 3),
        st.sampled_from([2, 3]),
    )
    @settings(max_examples=30)
    def test_powers(self, a, k, d):
        rho = representation_matrix(a, d)
        expected = identity_matrix(a.algebra.n, d)
        for _ in range(k):
            expected = matrix_product(expected, rho)
        assert representation_matrix(a**k, d) == expected

    def test_defining_relations(self):
        alg = Algebra(2)
        e, f, h = alg.e(0), alg.f(0), alg.h(0)
        for d in (2, 3, 4):
            rho = dict(zip("efh", (representation_matrix(x, d) for x in (e, f, h))))
            ef = matrix_product(rho["e"], rho["f"])
            fe = matrix_product(rho["f"], rho["e"])
            bracket = {k: ef.get(k, 0) - fe.get(k, 0) for k in set(ef) | set(fe)}
            assert {k: v for k, v in bracket.items() if v} == rho["h"]


class TestCoefficientTypes:
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                elements(n, symbolic=True, max_terms=2, exps=SMALL_FACTOR_EXP),
                elements(n, symbolic=True, max_terms=2, exps=SMALL_FACTOR_EXP),
            )
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=40)
    def test_products_and_powers_store_canonical_scalars(self, pair, k):
        a, b = pair
        for x in (a * b, a**k, b * F(1, 2), a * 3, a * F(4, 2), (b * F(1, 2)) * 2):
            for poly in x.terms.values():
                assert all(is_canonical_scalar(c) for c in poly.terms.values())

    @pytest.mark.parametrize(
        "n,dmax,gamma",
        [(1, 4, None), (2, 2, None), (2, 4, None), (2, 4, "S:2"), (2, 3, "C:2")],
    )
    def test_center_basis_stores_canonical_scalars(self, n, dmax, gamma):
        basis = center_basis_up_to_degree(n, dmax, parse_gamma(gamma) if gamma else None)
        assert basis
        for z in basis:
            for poly in z.terms.values():
                assert all(is_canonical_scalar(c) for c in poly.terms.values())

    @pytest.mark.parametrize(
        "lam", [(F(1, 2),), (3,), (F(4, 2), -1), (F(-3, 4), F(5, 2)), (1, 1, F(-1, 3))]
    )
    def test_central_character_values_are_canonical(self, lam):
        alg = Algebra(len(lam))
        for k in (1, 2, 3):
            pk = alg.symmetric_center_gen(k)
            for val in central_character(None, lam, pk).values():
                assert all(is_canonical_scalar(c) for c in val.terms.values())
            for val in central_character_numeric(None, lam, pk).values():
                assert is_canonical_scalar(val)
        t = Poly.var("t0")
        for val in central_character(None, (t,) + lam[1:], alg.casimir(0)).values():
            assert all(is_canonical_scalar(c) for c in val.terms.values())

    @given(FACTOR_EXP, FACTOR_EXP)
    @settings(max_examples=100)
    def test_structure_constants_are_ints(self, m1, m2):
        assert all(type(v) is int for v in _mul_rank1(m1, m2).values())


class TestScalarOperands:
    @pytest.mark.parametrize("other", [0.5, "x"])
    def test_non_exact_operands_raise_type_error(self, other):
        x = Algebra(1).e(0)
        for op in (
            lambda: x * other,
            lambda: other * x,
            lambda: x + other,
            lambda: other + x,
            lambda: x - other,
            lambda: other - x,
        ):
            with pytest.raises(TypeError):
                op()

    def test_exact_operands_on_both_sides(self):
        alg = Algebra(1)
        x = alg.e(0)
        half = F(1, 2)
        assert half * x == x * half
        assert 2 + x == x + 2
        assert 1 - x == -(x - 1)
        t = Poly.var("t0")
        assert t * x == x * t
        assert t + x == x + t
        assert t - x == -(x - t)


class TestAntipodeCalculus:
    def test_primitive(self):
        alg = Algebra(1)
        a2 = Algebra(2)
        assert m_one_S_delta(alg.e(0), 0, 1) == a2.e(0) - a2.e(1)

    def test_unit(self):
        alg = Algebra(1)
        assert m_one_S_delta(alg.one(), 0, 1) == Algebra(2).one()

    def test_casimir_minus_sign(self):
        alg = Algebra(1)
        a2 = Algebra(2)
        got = m_one_S_delta(alg.casimir(0), 0, 1)
        assert got == a2.casimir(0) + a2.casimir(1) - mixed_term(2, 0, 1) * 2

    def test_equal_legs_rejected(self):
        with pytest.raises(ValueError):
            m_one_S_delta(Algebra(1).e(0), 1, 1)


class TestCenterBasis:
    def test_rank_one(self):
        basis = center_basis_up_to_degree(1, 2)
        assert len(basis) == 2
        alg = Algebra(1)
        vecs = [_coeff_vector(b, alg, 2, [(0,)]) for b in basis]
        assert in_row_space(vecs, _coeff_vector(alg.one(), alg, 2, [(0,)]))
        assert in_row_space(vecs, _coeff_vector(alg.casimir(0), alg, 2, [(0,)]))

    def test_s2_center(self):
        gamma = parse_gamma("S:2")
        basis = center_basis_up_to_degree(2, 2, gamma)
        assert len(basis) == 2
        for b in basis:
            for (factors, perm), _ in b.terms.items():
                assert perm == (0, 1), "no nontrivial group part in the center"
        alg = Algebra(2, gamma)
        perms = gamma.group().elements()
        vecs = [_coeff_vector(b, alg, 2, perms) for b in basis]
        one = _coeff_vector(alg.one(), alg, 2, perms)
        omsum = _coeff_vector(alg.casimir(0) + alg.casimir(1), alg, 2, perms)
        assert in_row_space(vecs, one)
        assert in_row_space(vecs, omsum)

    def test_tensor_center(self):
        basis = center_basis_up_to_degree(2, 2, parse_gamma("1:2"))
        assert len(basis) == 3

    def test_cap(self):
        with pytest.raises(ValueError):
            center_basis_up_to_degree(3, 2)

    @pytest.mark.parametrize("spec", ["S:2", "C:2"])
    def test_degree_four_with_group(self, spec):
        # the Casimir monomials of degree <= 4 up to the swap:
        # 1, Om0 + Om1, Om0^2 + Om1^2 and Om0 Om1
        gamma = parse_gamma(spec)
        basis = center_basis_up_to_degree(2, 4, gamma)
        assert len(basis) == 4
        alg = Algebra(2, gamma)
        gens = [alg.gen(kind, i) for i in range(2) for kind in "efh"]
        gens += [alg.group_element(p) for p in gamma.group().generators()]
        for z in basis:
            assert not z.is_zero()
            for g in gens:
                assert commutator(z, g).is_zero()
        om0, om1 = alg.casimir(0), alg.casimir(1)
        perms = gamma.group().elements()
        vecs = [_coeff_vector(b, alg, 4, perms) for b in basis]
        for known in (alg.one(), om0 + om1, om0 * om0 + om1 * om1, om0 * om1):
            assert in_row_space(vecs, _coeff_vector(known, alg, 4, perms))

    @pytest.mark.parametrize(
        "n,dmax,spec",
        [(1, d, None) for d in range(5)]
        + [(2, d, spec) for d in range(5) for spec in (None, "S:2")]
        + [(2, 4, "C:2"), (2, 4, "1:2")],
    )
    def test_matches_full_ansatz(self, n, dmax, spec):
        gamma = parse_gamma(spec) if spec else None
        got = center_basis_up_to_degree(n, dmax, gamma)
        want = center_basis_full_ansatz(n, dmax, gamma)
        assert [element_to_json(z) for z in got] == [
            element_to_json(z) for z in want
        ]


def _coeff_vector(elem, alg, dmax, perms):
    from wreatho.pbw import monomial_basis

    basis = monomial_basis(alg, dmax, perms)
    index = {m: i for i, m in enumerate(basis)}
    vec = [F(0)] * len(basis)
    for mono, coef in elem.terms.items():
        vec[index[mono]] = coef.constant_value()
    return vec


class TestCCEqual:
    def test_rank_one_flip(self):
        assert cc_equal(parse_gamma("1:1"), (F(1, 2),), (F(-5, 2),))["equal"]

    def test_flip_both_then_swap(self):
        assert cc_equal(parse_gamma("S:2"), (F(3), F(0)), (F(-2), F(-5)))["equal"]

    def test_different(self):
        out = cc_equal(parse_gamma("1:1"), (F(1),), (F(2),))
        assert not out["equal"]
        assert out["t_lambda"] == (F(3, 2),)
        assert out["t_mu"] == (F(4),)

    def test_methods_concur_on_randoms(self):
        rng = random.Random(47)
        gammas = [parse_gamma(s) for s in ("S:2", "C:3", "S:2;1:1", "C:2")]
        for _ in range(100):
            gamma = rng.choice(gammas)
            n = gamma.n
            lam = tuple(F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n))
            if rng.random() < 0.5:
                mu = tuple(
                    c if rng.random() < 0.5 else -c - 2 for c in lam
                )
                mu = tuple(rng.sample(mu, n)) if rng.random() < 0.5 else mu
            else:
                mu = tuple(F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n))
            cc_equal(gamma, lam, mu)  # InternalConsistencyError on divergence

    def test_permuted_but_ungrouped_weights_differ(self):
        # the swap is not in Gamma here, so the values must separate
        gamma = parse_gamma("1:2")
        out = cc_equal(gamma, (F(1), F(2)), (F(2), F(1)))
        assert not out["equal"]

    def test_cyclic_necklace_order_matters(self):
        gamma = parse_gamma("C:4")
        lam = (F(1), F(2), F(3), F(4))
        mu = (F(1), F(2), F(4), F(3))  # same multiset, different necklace
        assert not cc_equal(gamma, lam, mu)["equal"]
        rotated = (F(3), F(4), F(1), F(2))
        assert cc_equal(gamma, lam, rotated)["equal"]


def _oracle_invariant_test(gamma, lam, mu):
    t_lam = [c + c * c / 2 for c in lam]
    t_mu = [c + c * c / 2 for c in mu]
    return separating_invariants(gamma, t_lam) == separating_invariants(gamma, t_mu)


# cyclic blocks first; thirds make t's denominators 18 next to the 8 of halves
_CC_BLOCKS = [("C", 2), ("C", 3), ("C", 4), ("S", (2,)), ("S", (1,)), ("1", 1)]
_CC_COORD = st.one_of(CHAR_COORD, st.sampled_from([F(1, 3), F(-2, 3), F(4, 3), F(-5, 3)]))


@st.composite
def _cc_cases(draw):
    gamma = draw(gamma_specs(kinds=_CC_BLOCKS))
    lam = draw(pooled_weights(gamma, coords=_CC_COORD))
    if draw(st.booleans()):
        # a Gamma-permuted dot flip of lam: same central character
        flips = draw(st.lists(st.booleans(), min_size=gamma.n, max_size=gamma.n))
        flipped = tuple(flip_coord(c) if f else c for c, f in zip(lam, flips))
        mu = perm_act(draw(st.sampled_from(gamma.group().elements())), flipped)
    else:
        mu = draw(pooled_weights(gamma, coords=_CC_COORD))
    return gamma, lam, mu


class TestTValue:
    def test_int_coordinate_gives_an_exact_value(self):
        for c, expected in ((3, F(15, 2)), (1, F(3, 2)), (0, 0), (-2, 0), (F(1, 2), F(5, 8))):
            t = _t_value(c)
            assert not isinstance(t, float) and t == expected

    def test_cc_on_int_weights(self):
        out = cc_equal(parse_gamma("S:2"), (3, 0), (-2, -5))
        assert out["equal"] is True
        assert out["t_lambda"] == (F(15, 2), 0)
        assert not any(isinstance(t, float) for t in out["t_lambda"] + out["t_mu"])


class TestCCInvariantOracle:
    @settings(max_examples=200)
    @given(_cc_cases())
    def test_integer_invariants_match_fraction_oracle(self, case):
        gamma, lam, mu = case
        out = cc_equal(gamma, lam, mu)
        assert out["invariant_test"] == _oracle_invariant_test(gamma, lam, mu)
        assert out["t_lambda"] == tuple(c + c * c / 2 for c in lam)

    def test_cyclic_six(self):
        gamma = parse_gamma("C:6")
        lam = (F(3), F(0)) * 3
        rotated_flipped = (F(0), F(-5), F(-2), F(3), F(0), F(3))
        necklace = (F(3), F(3), F(0), F(0), F(3), F(0))  # same multiset
        for mu, expected in ((rotated_flipped, True), (necklace, False)):
            out = cc_equal(gamma, lam, mu)
            assert out["invariant_test"] is expected
            assert out["equal"] is expected
            assert _oracle_invariant_test(gamma, lam, mu) is expected


class TestParser:
    def test_defining_relation(self):
        assert parse_expr("[e1,f1]-h1", Algebra(1)).is_zero()

    def test_group_atoms(self):
        alg = Algebra(3)
        assert parse_expr("s(1,2)*e1-e2*s(1,2)", alg).is_zero()
        assert parse_expr("cyc(1..3)^3", alg) == alg.one()

    def test_parameters(self):
        alg = Algebra(1)
        out = parse_expr("c*e1 + 3/2*t0*f1", alg)
        assert out.coefficient(((  (0, 0, 1),), (0,))) == Poly.var("c")

    def test_errors_carry_position(self):
        alg = Algebra(1)
        with pytest.raises(ValueError, match="position"):
            parse_expr("e1 + $", alg)
        with pytest.raises(ValueError, match="expected"):
            parse_expr("[e1,f1", alg)
        with pytest.raises(ValueError):
            parse_expr("e1 ^ -2", alg)

    def test_json_round_trip(self):
        rng = random.Random(48)
        alg = Algebra(2)
        for _ in range(15):
            a = rand_element(alg, rng, with_group=True)
            a = a + alg.one() * Poly.var("c") * Poly.var("t1")
            data = element_to_json(a)
            assert element_from_json(data, alg) == a

    @pytest.mark.parametrize(
        "factors, group",
        [
            ([[0, 0, 1]], "2"),
            ([[0, 0, 1]], "1,1"),
            ([[0, -1, 1]], "1"),
            ([[0, 0]], "1"),
            ([[0, 0, 1.0]], "1"),
            ([[0, 0, 1], [0, 0, 0]], "1"),
        ],
        ids=["group-2", "group-1,1", "negative", "two-exponents", "float", "two-factors"],
    )
    def test_json_malformed_monomial_refused(self, factors, group):
        data = [{"monomial": {"factors": factors, "group": group}, "coef": "1"}]
        with pytest.raises(ValueError):
            element_from_json(data, Algebra(1))
