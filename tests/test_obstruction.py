from fractions import Fraction as F

import pytest

from oracles import is_canonical_scalar, m_one_S_delta_by_products
from wreatho.obstruction import (
    DeformationSpec,
    _linear_system,
    _proportionality,
    build_deformed_rhs,
    f_of_casimir,
    obstruction_ek,
    verify_no_go,
    weight_vector_check,
    witness_monomial,
)
from wreatho.pbw import Algebra, commutator, m_one_S_delta, mixed_term
from wreatho.poly import Poly


class TestDeformedRHS:
    def test_diagonal_without_cross_terms(self):
        spec = DeformationSpec(n=2, f_coeffs=[F(3), F(1)])
        rhs = build_deformed_rhs(spec)
        zeroed = rhs[(0, 0)].substitute({"c": 0, "d": 0})
        alg = Algebra(2)
        assert zeroed == f_of_casimir(alg, 0, [F(3), F(1)])

    def test_off_diagonal_vanishes_at_zero(self):
        spec = DeformationSpec(n=2)
        rhs = build_deformed_rhs(spec)
        assert rhs[(0, 1)].substitute({"u": 0, "v": 0}).is_zero()

    def test_diagonal_assembly(self):
        spec = DeformationSpec(n=2, f_coeffs=[Poly.var("t0"), Poly.var("t1")])
        rhs = build_deformed_rhs(spec)
        alg = Algebra(2)
        c, d = Poly.var("c"), Poly.var("d")
        m01 = m_one_S_delta(Algebra(1).casimir(0), 0, 1, 2)
        expected = (
            f_of_casimir(alg, 0, [Poly.var("t0"), Poly.var("t1")])
            + (alg.transposition(0, 1) * c + alg.one() * d) * m01
        )
        assert rhs[(0, 0)] == expected

    def test_every_relation_from_the_definition_n3(self):
        # each relation written out with M_ij from the product oracle; M_01
        # and M_02 differ, so reading the wrong pair fails
        f = [Poly.var("t0"), Poly.var("t1")]
        rhs = build_deformed_rhs(DeformationSpec(n=3, f_coeffs=f))
        alg = Algebra(3)
        c, d = Poly.var("c"), Poly.var("d")
        u, v = Poly.var("u"), Poly.var("v")
        omega = Algebra(1).casimir(0)
        assert set(rhs) == {(i, j) for i in range(3) for j in range(3)}
        for (i, j), got in rhs.items():
            if i == j:
                expected = f_of_casimir(alg, i, f)
                for l in range(3):
                    if l != i:
                        m_il = m_one_S_delta_by_products(omega, i, l, 3)
                        s_il = alg.transposition(i, l)
                        expected = expected + (s_il * c + alg.one() * d) * m_il
            else:
                m_ij = m_one_S_delta_by_products(omega, i, j, 3)
                s_ij = alg.transposition(i, j)
                expected = s_ij * u + (s_ij * m_ij) * v
            assert got == expected, (i, j)


class TestFOfCasimir:
    @pytest.mark.parametrize(
        "coeffs",
        [
            [],
            [F(0)],
            [F(3)],
            [F(5), F(-2), F(1)],
            [0, 0, 0, F(1, 2)],
            [Poly.var("t0"), 0, Poly.var("t2") + 1, 0, 0],
        ],
    )
    def test_matches_powers_of_omega(self, coeffs):
        alg = Algebra(2)
        omega = alg.casimir(1)
        expected = alg.zero()
        for k, coef in enumerate(coeffs):
            expected = expected + (omega**k) * Poly.coerce(coef)
        assert f_of_casimir(alg, 1, coeffs) == expected


class TestObstruction:
    def test_witness_coefficient_multiple_of_c(self):
        spec = DeformationSpec(n=2, f_coeffs=[F(0), F(1)])
        ob = obstruction_ek(spec, 0)
        coef = ob.coefficient(witness_monomial(spec, i=1, k=0))
        parts = coef.linear_parts()
        assert set(parts) == {"c"} and parts["c"] == 4

    def test_central_when_zero(self):
        spec = DeformationSpec(n=2, f_coeffs=[F(2)])
        ob = obstruction_ek(spec, 1)
        assert ob.substitute({"c": 0, "d": 0}).is_zero()

    def test_eh_terms_match_display(self):
        # the d-part is a multiple of (e_i h_k - h_i e_k)
        spec = DeformationSpec(n=2)
        ob = obstruction_ek(spec, 0)
        alg = Algebra(2)
        d_part = ob.substitute({"c": 0})
        e0h1 = ((((0, 0, 1), (0, 1, 0))), (0, 1))
        h0e1 = ((((0, 1, 0), (0, 0, 1))), (0, 1))
        ce = d_part.coefficient(e0h1).linear_parts()
        ch = d_part.coefficient(h0e1).linear_parts()
        assert ce == {"d": F(4)} and ch == {"d": F(-4)}

    @pytest.mark.parametrize("n", [2, 3])
    def test_commutator_with_the_diagonal_sum(self, n):
        spec = DeformationSpec(n=n, f_coeffs=[Poly.var("t0"), 1])
        rhs = build_deformed_rhs(spec)
        alg = Algebra(n)
        total = alg.zero()
        for i in range(n):
            total = total + rhs[(i, i)]
        for k in range(n):
            assert obstruction_ek(spec, k) == commutator(alg.e(k), total)


class TestWeightVectors:
    def test_root_vector(self):
        alg = Algebra(2)
        assert weight_vector_check(alg.e(0), (2, 0))
        assert not weight_vector_check(alg.e(0), (0, 2))

    def test_twisted_element_never_weight_vector(self):
        alg = Algebra(2)
        u, v = Poly.var("u"), Poly.var("v")
        s = alg.transposition(0, 1)
        a = s * u + (s * mixed_term(2, 0, 1)) * v
        for eta in ((0, 0), (-1, 1), (2, -2)):
            assert not weight_vector_check(a, eta)
        assert weight_vector_check(a.substitute({"u": 0, "v": 0}), (7, -7))

    def test_zero_is_always_weight_vector(self):
        alg = Algebra(2)
        assert weight_vector_check(alg.zero(), (3, 5))


class TestSpec:
    def test_negative_w_degree(self):
        with pytest.raises(ValueError, match="w_degree"):
            DeformationSpec(n=2, w_degree=-1)

    def test_zero_w_degree_allowed(self):
        assert DeformationSpec(n=2, w_degree=0).w_degree == 0


class TestNoGo:
    def test_n2_symbolic_f(self):
        spec = DeformationSpec(n=2, f_coeffs=[Poly.var("t0"), Poly.var("t1")])
        report = verify_no_go(spec)
        assert report["solution_space_dim"] == 0
        assert set(report["forced_zero"]) == {"c", "d", "u", "v", "w"}
        assert report["implications"]["c_from_single_monomial"]
        assert report["implications"]["d_after_c"]
        assert report["implications"]["uv_from_weight_condition"]
        assert report["implications"]["w_from_lattice_parity"]

    def test_n3_zero_f(self):
        report = verify_no_go(DeformationSpec(n=3))
        assert report["solution_space_dim"] == 0
        assert set(report["forced_zero"]) == {"c", "d", "u", "v", "w"}

    def test_degenerate_prezeroed(self):
        # with everything already zero the constraints hold vacuously
        spec = DeformationSpec(n=2)
        rhs = build_deformed_rhs(spec)
        zeros = {"c": 0, "d": 0, "u": 0, "v": 0}
        alg = Algebra(2)
        for i in range(2):
            for j in range(2):
                fixed = rhs[(i, j)].substitute(zeros)
                if i == j:
                    assert commutator(alg.e(0), fixed).is_zero()
                else:
                    target = tuple(
                        (1 if l == j else 0) - (1 if l == i else 0) for l in range(2)
                    )
                    assert weight_vector_check(fixed, target)

    def test_f_independence(self):
        r1 = verify_no_go(DeformationSpec(n=2, f_coeffs=[]))
        r2 = verify_no_go(DeformationSpec(n=2, f_coeffs=[F(5), F(-2), F(1)]))
        assert r1["solution_space_dim"] == r2["solution_space_dim"] == 0
        assert r1["forced_zero"] == r2["forced_zero"]
        alg = Algebra(2)
        felem = f_of_casimir(alg, 0, [F(5), F(-2), F(1)])
        for k in range(2):
            assert commutator(alg.e(k), felem).is_zero()

    def test_mixed_term_identity_recorded(self):
        spec = DeformationSpec(n=2)
        report = verify_no_go(spec)
        assert report["sign_of_mij"] == "-"
        assert report["mixed_scale"] == "2"
        engine = m_one_S_delta(Algebra(1).casimir(0), 0, 1, 2)
        alg = Algebra(2)
        assert engine - alg.casimir(0) - alg.casimir(1) == mixed_term(2, 0, 1) * (-2)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("w_degree", range(7))
    def test_no_monomial_hits_a_target(self, n, w_degree):
        check = verify_no_go(DeformationSpec(n=n, w_degree=w_degree))["w_lattice_check"]
        assert check == {
            "degree_bound": w_degree,
            "all_weights_even": True,
            "counterexample": None,
        }

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            verify_no_go(DeformationSpec(n=4))
        with pytest.raises(ValueError):
            DeformationSpec(n=1)


def _walk(value):
    """Every leaf of a nested report."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _walk(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _walk(v)
    else:
        yield value


class TestCanonicalScalars:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "f", [[], [0, 1], [F(1, 2), 3], [Poly.var("t0"), Poly.var("t1")]]
    )
    def test_no_go_systems_hold_canonical_scalars(self, n, f):
        spec = DeformationSpec(n=n, f_coeffs=f)
        rhs = build_deformed_rhs(spec)
        obstructions = [obstruction_ek(spec, k) for k in range(n)]
        for elem in list(rhs.values()) + obstructions:
            for poly in elem.terms.values():
                assert all(is_canonical_scalar(c) for c in poly.terms.values())
        for row in _linear_system(obstructions, ["c", "d"]):
            assert all(is_canonical_scalar(c) for c in row)
        report = verify_no_go(spec)
        assert report["solution_space_dim"] == 0
        assert not any(isinstance(leaf, float) for leaf in _walk(report))

    def test_proportionality_divides_exactly(self):
        # ints divided with / would give a float
        e = Algebra(1).e(0)
        for a, b, expected in ((e * 3, e * 2, F(3, 2)), (e * 4, e * -2, -2)):
            scale = _proportionality(a, b)
            assert type(scale) is not float and scale == expected
        assert _proportionality(e * 3, e * 2 + Algebra(1).f(0)) is None
