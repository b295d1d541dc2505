from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_canonical_scalar
from wreatho.poly import Poly, exact

# ints and Fractions, integral ones (4/2) among them
SCALARS = st.one_of(
    st.integers(-4, 4), st.builds(F, st.integers(-4, 4), st.integers(1, 4))
)
VARS = ("t0", "t1", "t2")


@st.composite
def polys(draw, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.dictionaries(st.sampled_from(VARS), st.integers(1, 2), max_size=2))
        terms[tuple(sorted(exps.items()))] = draw(SCALARS)
    return Poly(terms)


def canonical(p: Poly) -> bool:
    return all(is_canonical_scalar(c) for c in p.terms.values())


class TestHash:
    @pytest.mark.parametrize("value", [0, 3, -7, F(1, 2), F(-5, 3)])
    def test_constant_hashes_as_its_value(self, value):
        p = Poly.const(value)
        assert p == value
        assert hash(p) == hash(p.constant_value()) == hash(value)

    def test_zero(self):
        assert Poly() == 0
        assert hash(Poly()) == hash(Poly().constant_value()) == hash(0)

    def test_constants_collide_with_values_in_a_set(self):
        assert {Poly.const(3), 3} == {3}
        assert len({Poly(), 0, F(0)}) == 1

    def test_equal_polynomials_hash_alike(self):
        t = Poly.var("t0")
        assert hash(t * 2 + 1) == hash(1 + t + t)


class TestOperands:
    @pytest.mark.parametrize("other", [0.5, "x"])
    def test_non_exact_operands_raise_type_error(self, other):
        t = Poly.var("t0")
        for op in (
            lambda: t + other,
            lambda: other + t,
            lambda: t - other,
            lambda: other - t,
            lambda: t * other,
            lambda: other * t,
        ):
            with pytest.raises(TypeError):
                op()


class TestExact:
    @pytest.mark.parametrize(
        "value,expected",
        [(3, 3), (F(4, 2), 2), (F(-6, 3), -2), (F(1, 3), F(1, 3)), (True, 1)],
    )
    def test_canonical_form(self, value, expected):
        out = exact(value)
        assert out == expected and is_canonical_scalar(out)

    @pytest.mark.parametrize("value", [0.5, 2.0, "1/2", None])
    def test_refuses_inexact_and_other_types(self, value):
        with pytest.raises(TypeError):
            exact(value)

    def test_poly_refuses_floats(self):
        t = Poly.var("t0")
        for op in (
            lambda: Poly.const(2.0),
            lambda: Poly({(): 0.5}),
            lambda: Poly({(("t0", 1),): 1.0}),
            lambda: t / 0.5,
            lambda: t.substitute({"t0": 0.5}),
        ):
            with pytest.raises(TypeError):
                op()

    def test_division_is_exact(self):
        t = Poly.var("t0")
        assert (t * 3) / 3 == t
        assert (t / 2).terms == {(("t0", 1),): F(1, 2)}
        assert (t * 4 / F(2)).terms == {(("t0", 1),): 2}
        with pytest.raises(ZeroDivisionError):
            t / 0


class TestCanonicalScalars:
    @given(polys(), polys(), SCALARS, st.integers(0, 3))
    @settings(max_examples=100)
    def test_arithmetic(self, p, q, c, k):
        for r in (p + q, p - q, p * q, -p, p**k, p + c, c + p, p - c, c - p, p * c, c * p):
            assert canonical(r)
        if c:
            assert canonical(p / c)
            assert (p / c) * c == p

    @given(polys(), polys(), SCALARS)
    @settings(max_examples=60)
    def test_substitute(self, p, q, c):
        assert canonical(p.substitute({"t0": q, "t1": c}))
        assert canonical(p.substitute({"t0": c, "t1": c, "t2": c}))

    @given(st.lists(SCALARS, min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_linear_parts(self, coeffs):
        p = Poly()
        for name, c in zip(VARS, coeffs):
            p = p + Poly.var(name) * c
        parts = p.linear_parts()
        assert parts == {name: c for name, c in zip(VARS, coeffs) if c}
        assert all(is_canonical_scalar(v) for v in parts.values())
