import itertools
import random
from fractions import Fraction as F

import pytest

from oracles import truncated_sl2_factors
from wreatho.cato_a import (
    CharacterVB,
    ch_simple_A,
    ch_verma,
    dim_simple_A,
    is_weight_sl2,
    length_Z_A,
    s_sets_A,
    verma_factors_A,
    verma_factors_sl2,
)
from wreatho.weights import parse_gamma, perm_act


def w(*coords):
    return tuple(F(c) for c in coords)


class TestRankOne:
    def test_dominant(self):
        assert verma_factors_sl2(F(3)) == [(F(3), 1), (F(-5), 1)]

    def test_generic(self):
        assert verma_factors_sl2(F(1, 2)) == [(F(1, 2), 1)]

    def test_minus_one(self):
        assert verma_factors_sl2(F(-1)) == [(F(-1), 1)]

    def test_against_truncated_oracle(self):
        # integers and halves up to |6|; depth 10 is enough for any flip here,
        # and weight parity rules out singular vectors off the integer case
        values = [F(k) for k in range(-6, 7)]
        values += [F(k, 2) for k in range(-11, 12, 2)]
        for lam in values:
            assert verma_factors_sl2(lam) == truncated_sl2_factors(lam, depth=10)


class TestProducts:
    def test_zero_zero(self):
        out = verma_factors_A(w(0, 0))
        assert out == {w(0, 0): 1, w(-2, 0): 1, w(0, -2): 1, w(-2, -2): 1}

    def test_mixed(self):
        assert verma_factors_A(w(F(1, 2), 5)) == {
            w(F(1, 2), 5): 1,
            w(F(1, 2), -7): 1,
        }

    def test_antidominant(self):
        assert verma_factors_A(w(-3)) == {w(-3): 1}


class TestSSets:
    def test_s3_examples(self):
        assert s_sets_A(w(5), 3) == {w(5), w(-7)}
        assert s_sets_A(w(F(1, 2)), 3) == {w(F(1, 2))}

    def test_s4_strictly_larger(self):
        s3 = s_sets_A(w(F(1, 2)), 3)
        s4 = s_sets_A(w(F(1, 2)), 4)
        assert s4 == {w(F(1, 2)), w(F(-5, 2))}
        assert s3 < s4

    def test_s1_downward(self):
        assert s_sets_A(w(0, 0), 1) == {w(0, 0), w(-2, 0), w(0, -2), w(-2, -2)}

    def test_s1_keeps_only_below(self):
        # -5 is linked to 3 but sits above nothing: S1(-5) = {-5}
        assert s_sets_A(w(-5), 3) == {w(-5), w(3)}
        assert s_sets_A(w(-5), 1) == {w(-5)}

    def test_equivariance(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(2, 4)
            gamma = parse_gamma(f"S:{n}")
            lam = tuple(F(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n))
            for g in gamma.group().generators():
                for m in (1, 2, 3, 4):
                    lhs = {perm_act(g, mu) for mu in s_sets_A(lam, m)}
                    assert lhs == s_sets_A(perm_act(g, lam), m)

    def test_product_law(self):
        rng = random.Random(22)
        for _ in range(30):
            n1, n2 = rng.randint(1, 2), rng.randint(1, 2)
            lam1 = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n1))
            lam2 = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n2))
            for m in (1, 2, 3, 4):
                product = {
                    a + b
                    for a in s_sets_A(lam1, m)
                    for b in s_sets_A(lam2, m)
                }
                assert s_sets_A(lam1 + lam2, m) == product

    def test_s3_inside_s4(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 3)
            lam = tuple(F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(n))
            s3, s4 = s_sets_A(lam, 3), s_sets_A(lam, 4)
            assert s3 <= s4
            integral = all(c.denominator == 1 for c in lam)
            assert (s3 == s4) == integral


class TestCharacters:
    def test_simple_character_inclusion_exclusion(self):
        ch = ch_simple_A(w(0, 0))
        assert ch.terms == {
            w(0, 0): 1,
            w(-2, 0): -1,
            w(0, -2): -1,
            w(-2, -2): 1,
        }
        # weight-count oracle: the trivial module has total dimension 1
        total = sum(
            ch.evaluate(w(-2 * a, -2 * b)) for a in range(8) for b in range(8)
        )
        assert total == 1

    def test_simple_verma(self):
        assert ch_simple_A(w(F(1, 2))) == ch_verma(w(F(1, 2)))

    def test_verma_evaluation(self):
        assert ch_verma(w(3)).evaluate(w(-3)) == 1
        assert ch_verma(w(3)).evaluate(w(2)) == 0
        assert ch_verma(w(3)).evaluate(w(5)) == 0

    def test_rank_one_weights_match_verma_sums(self):
        tops = [F(k) for k in range(-4, 5)] + [F(k, 2) for k in range(-5, 6, 2)]
        for c in tops:
            for y in (c - k for k in range(-2, 14)):
                assert is_weight_sl2(y, c, True) == (ch_simple_A((c,)).evaluate((y,)) == 1)
                assert is_weight_sl2(y, c, False) == (ch_verma((c,)).evaluate((y,)) == 1)

    def test_character_consistency_to_depth_12(self):
        # ch Z(lam) = sum over factors of ch V, weight-wise
        halves = [F(k, 2) for k in range(-6, 7)]
        for lam_val in halves:
            lam = (lam_val,)
            verma = ch_verma(lam)
            total = CharacterVB(1)
            for mu, mult in verma_factors_A(lam).items():
                total = total + ch_simple_A(mu).scale(mult)
            for k in range(13):
                nu = (lam_val - 2 * k,)
                assert verma.evaluate(nu) == total.evaluate(nu)

    def test_character_consistency_rank_two(self):
        values = [F(-3), F(-1), F(0), F(2), F(3), F(1, 2), F(-5, 2)]
        for a in values:
            for b in values:
                lam = (a, b)
                verma = ch_verma(lam)
                total = CharacterVB(2)
                for mu, mult in verma_factors_A(lam).items():
                    total = total + ch_simple_A(mu).scale(mult)
                for k1, k2 in itertools.product(range(0, 13, 3), repeat=2):
                    if k1 + k2 > 12:
                        continue
                    nu = (a - 2 * k1, b - 2 * k2)
                    assert verma.evaluate(nu) == total.evaluate(nu)

    def test_concat_product(self):
        ch1 = ch_simple_A(w(1))
        ch2 = ch_simple_A(w(0, 2))
        product = ch1.concat_product(ch2)
        for nu1 in (w(1), w(-1)):
            for nu2 in (w(0, 2), w(0, 0), w(-2, -2)):
                assert product.evaluate(nu1 + nu2) == ch1.evaluate(nu1) * ch2.evaluate(nu2)

    def test_json_round_trip(self):
        ch = ch_simple_A(w(2, F(1, 2)))
        assert CharacterVB.from_json(ch.to_json()) == ch

    def test_fractional_multiplicity_refused(self):
        with pytest.raises(ValueError, match="not an integer"):
            CharacterVB(1, {(0,): F(3, 2)})

    def test_float_multiplicity_refused(self):
        with pytest.raises(TypeError):
            CharacterVB(1, {(0,): 1.9})

    def test_scale_refuses_a_fractional_multiplicity(self):
        with pytest.raises(ValueError, match="not an integer"):
            CharacterVB(1, {(0,): 3}).scale(F(1, 2))
        halved = CharacterVB(1, {(0,): 2}).scale(F(1, 2))
        assert halved.terms == {(0,): 1} and type(halved.terms[(0,)]) is int

    def test_from_json_refuses_a_float_coefficient(self):
        data = {"basis": "verma", "terms": [{"hw": ["0"], "coef": 1.5}]}
        with pytest.raises(TypeError):
            CharacterVB.from_json(data)


class TestDims:
    def test_two_dim(self):
        assert dim_simple_A(w(1, 0)) == 2

    def test_trivial(self):
        assert dim_simple_A(w(0, 0, 0)) == 1

    def test_infinite(self):
        assert dim_simple_A(w(F(1, 2))) is None
        assert dim_simple_A(w(-2)) is None

    def test_matches_character_sum(self):
        rng = random.Random(24)
        for _ in range(15):
            n = rng.randint(1, 3)
            lam = tuple(F(rng.randint(0, 3)) for _ in range(n))
            ch = ch_simple_A(lam)
            boxes = itertools.product(*(range(int(c) + 1) for c in lam))
            total = sum(
                ch.evaluate(tuple(c - 2 * k for c, k in zip(lam, combo)))
                for combo in boxes
            )
            assert total == dim_simple_A(lam)

    def test_length(self):
        assert length_Z_A(w(0, 0)) == 4
        assert length_Z_A(w(F(1, 2), 3)) == 2
        assert length_Z_A(w(-1, -4)) == 1
