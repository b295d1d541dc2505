from fractions import Fraction as F

import pytest

from wreatho.poly import Poly


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
