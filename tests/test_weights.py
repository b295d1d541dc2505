import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_strategies import CHAR_COORD, gamma_specs, pooled_weights
from oracles import kostant_enumeration
from wreatho.cato_a import CharacterVB
from wreatho.clifford import classify_X_over, weight_mult
from wreatho.weights import (
    CycF,
    _kostant_count,
    as_weight,
    coord,
    SymF,
    canonical_orbit_rep,
    flip_subset,
    gamma_cells,
    kostant_p,
    leq,
    orbit_of,
    parse_gamma,
    parse_weight,
    perm_act,
    format_weight,
    simple_roots,
    stabilizer,
)


def w(*coords):
    return tuple(F(c) for c in coords)


class TestOrder:
    def test_alpha2_step(self):
        assert leq(w(0, -2), w(0, 0))

    def test_odd_difference(self):
        assert not leq(w(1, 0), w(0, 1))

    def test_reflexive(self):
        rng = random.Random(1)
        for _ in range(20):
            lam = tuple(F(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(3))
            assert leq(lam, lam)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            leq(w(1), w(1, 2))

    def test_gamma_preserves_order(self):
        rng = random.Random(2)
        for _ in range(40):
            n = rng.randint(2, 5)
            gamma = parse_gamma(f"S:{n}")
            mu = tuple(F(rng.randint(-4, 4)) for _ in range(n))
            lam = tuple(m + 2 * rng.randint(0, 2) for m in mu)
            assert leq(mu, lam)
            for g in gamma.group().generators():
                assert leq(perm_act(g, mu), perm_act(g, lam))


class TestActions:
    def test_swap(self):
        assert perm_act((1, 0), w(3, 0)) == w(0, 3)

    def test_identity(self):
        lam = w(5, -1, F(1, 2))
        assert perm_act((0, 1, 2), lam) == lam

    def test_three_cycle(self):
        cyc = parse_gamma("C:3").group().generators()[0]
        assert perm_act(cyc, w(1, 2, 3)) == w(3, 1, 2)

    @settings(max_examples=150)
    @given(st.data())
    def test_flips_commute_with_gamma(self, data):
        """g . flip_T(lam) = flip_{g(T)}(g . lam): the flip layers of an
        orbit are permuted by Gamma."""
        gamma = data.draw(gamma_specs(max_rank=5))
        lam = data.draw(pooled_weights(gamma))
        t = data.draw(st.sets(st.integers(0, gamma.n - 1)))
        for g in gamma.group().generators():
            assert perm_act(g, flip_subset(lam, t)) == flip_subset(
                perm_act(g, lam), {g[i] for i in t}
            )


class TestOrbits:
    def test_s2_regular(self):
        gamma, lam = parse_gamma("S:2"), w(1, 0)
        assert orbit_of(gamma, lam) == [w(0, 1), w(1, 0)]
        assert stabilizer(gamma, lam).order == 1

    def test_s2_fixed(self):
        gamma, lam = parse_gamma("S:2"), w(3, 3)
        assert orbit_of(gamma, lam) == [w(3, 3)]
        stab = stabilizer(gamma, lam)
        assert stab.order == 2 and isinstance(stab.factors[0], SymF)

    def test_cyclic_constant(self):
        gamma, lam = parse_gamma("C:3"), w(4, 4, 4)
        assert len(orbit_of(gamma, lam)) == 1
        stab = stabilizer(gamma, lam)
        assert stab.order == 3 and isinstance(stab.factors[0], CycF)

    def test_counting(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(1, 5)
            kind = rng.choice(["S", "C"])
            gamma = parse_gamma(f"{kind}:{n}")
            lam = tuple(F(rng.randint(0, 2)) for _ in range(n))
            orbit = orbit_of(gamma, lam)
            assert len(orbit) * stabilizer(gamma, lam).order == gamma.group().order

    def test_canonical_rep_is_minimal(self):
        gamma = parse_gamma("S:2;C:3")
        lam = w(2, -1, 5, 0, 5)
        assert canonical_orbit_rep(gamma, lam) == orbit_of(gamma, lam)[0]


@st.composite
def _wrong_rank_cases(draw):
    """A spec and a weight of rank n - 1 or n + 1."""
    gamma = draw(gamma_specs())
    rank = gamma.n + draw(st.sampled_from([-1, 1]))
    return gamma, tuple(draw(CHAR_COORD) for _ in range(rank))


class TestRankMismatch:
    @settings(max_examples=100)
    @given(_wrong_rank_cases())
    def test_orbit_functions_refuse_a_wrong_rank(self, case):
        gamma, lam = case
        for fn in (canonical_orbit_rep, orbit_of, stabilizer):
            with pytest.raises(ValueError, match="rank mismatch"):
                fn(gamma, lam)

    def test_weight_mult_refuses_a_wrong_rank(self):
        gamma = parse_gamma("S:2")
        x = classify_X_over(gamma, w(0, 0))[0]
        with pytest.raises(ValueError, match="rank mismatch"):
            weight_mult(gamma, x, w(1))


@st.composite
def _walker_cases(draw):
    """A spec and a pooled weight of Fractions or of small integers (the
    marked weights of the flip layers)."""
    gamma = draw(gamma_specs(max_rank=5))
    coords = draw(st.sampled_from([CHAR_COORD, st.integers(0, 3)]))
    return gamma, draw(pooled_weights(gamma, coords))


class TestCellWalker:
    @settings(max_examples=150)
    @given(_walker_cases())
    def test_against_elements(self, case):
        gamma, lam = case
        elements = gamma.group().elements()
        assert canonical_orbit_rep(gamma, lam) == min(perm_act(g, lam) for g in elements)
        fixing = [g for g in elements if perm_act(g, lam) == lam]
        assert sorted(stabilizer(gamma, lam).elements()) == sorted(fixing)

    @settings(max_examples=100)
    @given(gamma_specs(max_rank=5))
    def test_group_order(self, gamma):
        expected = 1
        for kind, data in gamma.blocks:
            if kind == "S":
                expected *= math.prod(math.factorial(size) for size in data)
            elif kind == "C":
                expected *= data
        group = gamma.group()
        assert group.order == expected
        assert len(set(group.elements())) == expected
        cells = [i for _, span in gamma_cells(gamma) for i in span]
        assert cells == list(range(gamma.n))


class TestKostant:
    def test_unique(self):
        assert kostant_p(w(2, 0), [w(2, 0), w(0, 2)]) == 1

    def test_parity(self):
        assert kostant_p(w(1, 0), [w(2, 0), w(0, 2)]) == 0

    def test_three_roots(self):
        # frozen from the bounded-exponent enumeration oracle
        roots = [w(2, 0), w(0, 2), w(2, 2)]
        assert kostant_enumeration(w(4, 2), roots, bound=4) == 2
        assert kostant_p(w(4, 2), roots) == 2

    def test_rejects_unbounded(self):
        with pytest.raises(ValueError):
            kostant_p(w(0, 0), [w(1, 0), w(-1, 0)])
        with pytest.raises(ValueError):
            kostant_p(w(2), [w(0)])

    def test_sl2_simple_roots_are_01(self):
        rng = random.Random(5)
        for _ in range(80):
            n = rng.randint(1, 3)
            roots = simple_roots(n)
            theta = tuple(F(rng.randint(-3, 8)) for _ in range(n))
            value = kostant_p(theta, roots)
            expected = int(all(t >= 0 and t % 2 == 0 for t in theta))
            assert value == expected

    def test_matches_enumeration(self):
        rng = random.Random(6)
        roots = [w(2, 0), w(0, 2), w(2, 2)]
        for _ in range(25):
            theta = w(2 * rng.randint(0, 6), 2 * rng.randint(0, 6))
            assert kostant_p(theta, roots) == kostant_enumeration(theta, roots, bound=8)

    def test_int_input_counts_exactly(self):
        # the number of multiples of a root that fit is an exact floor division
        roots = ((2, 0), (0, 2), (2, 2))
        for theta, expected in (((4, 2), 2), ((6, 6), 4), ((3, 0), 0)):
            count = _kostant_count(roots, theta, 0)
            assert type(count) is int and count == expected
            assert count == kostant_enumeration(theta, roots, bound=8)
        assert _kostant_count(roots, (-1, 0), 0) == 0


class TestParsing:
    def test_weight_round_trip(self):
        lam = parse_weight("3,0,-1/2")
        assert lam == w(3, 0, F(-1, 2))
        assert parse_weight(format_weight(lam)) == lam

    def test_coordinates_are_canonical(self):
        lam = parse_weight("3,0,-1/2,4/2, -6/3")
        assert lam == (3, 0, F(-1, 2), 2, -2)
        assert [type(c) for c in lam] == [int, int, F, int, int]
        assert [type(c) for c in as_weight([F(6, 3), "5/2", 7, F(-1, 3)])] == [int, F, int, F]
        assert type(coord(F(4, 2))) is int and type(coord("1/3")) is F
        # int and Fraction coordinates are interchangeable as keys
        assert {lam: 1}[(F(3), F(0), F(-1, 2), F(2), F(-2))] == 1

    def test_floats_are_refused(self):
        # a float is not an exact rational, even when it is integral
        for bad in (0.1, 2.0):
            with pytest.raises(TypeError):
                coord(bad)
        with pytest.raises(TypeError):
            as_weight([0.5, 2.0])
        with pytest.raises(TypeError):
            CharacterVB(1, {(0.5,): 1})
        with pytest.raises(TypeError):
            kostant_p((2.0,), [(2,)])

    def test_weight_errors(self):
        for bad in ("", "1,,2", "a,b", "1/0"):
            with pytest.raises(ValueError):
                parse_weight(bad)

    def test_gamma_specs(self):
        g = parse_gamma("S:2;C:3;1:2")
        assert g.n == 7
        assert g.group().order == 6
        assert str(g) == "S:2;C:3;1:2"
        g2 = parse_gamma("S:2,3")
        assert g2.n == 5 and g2.group().order == 12

    def test_gamma_errors(self):
        for bad in ("", "Q:2", "S:0", "S:2;;C:3", "C:x"):
            with pytest.raises(ValueError):
                parse_gamma(bad)
