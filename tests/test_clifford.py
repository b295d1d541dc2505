import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_strategies import gamma_specs, pooled_weights
from wreatho.clifford import (
    SimpleX,
    classify_X_over,
    concat_simplex,
    decompose_induced,
    dim_m,
    duality_F,
    simplex_from_json,
    simplex_to_json,
    validate_simplex,
    weight_mult,
)
from wreatho.symchars import irrep_dim
from wreatho.weights import GroupDesc, orbit_of, parse_gamma


def w(*coords):
    return tuple(F(c) for c in coords)


class TestClassify:
    def test_regular_orbit(self):
        xs = classify_X_over(parse_gamma("S:2"), w(1, 0))
        assert len(xs) == 1
        assert xs[0].stab.factors == ()
        assert dim_m(parse_gamma("S:2"), xs[0]) == 2

    def test_fixed_weight(self):
        gamma = parse_gamma("S:2")
        xs = classify_X_over(gamma, w(3, 3))
        assert [x.irrep for x in xs] == [((2,),), ((1, 1),)]
        assert [dim_m(gamma, x) for x in xs] == [1, 1]

    def test_trivial_group(self):
        gamma = parse_gamma("1:3")
        xs = classify_X_over(gamma, w(5, -1, F(1, 2)))
        assert len(xs) == 1 and dim_m(gamma, xs[0]) == 1

    def test_orbit_invariance(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 4)
            gamma = parse_gamma(rng.choice([f"S:{n}", f"C:{n}"]))
            lam = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            base = classify_X_over(gamma, lam)
            for mu in orbit_of(gamma, lam):
                assert classify_X_over(gamma, mu) == base

    def test_dimension_accounting(self):
        # sum over x of dim(irrep) * dimM = |Gamma|, per orbit
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(1, 4)
            gamma = parse_gamma(rng.choice([f"S:{n}", f"C:{n}", "S:2,2" if n == 4 else f"S:{n}"]))
            lam = tuple(F(rng.randint(0, 2)) for _ in range(gamma.n))
            xs = classify_X_over(gamma, lam)
            total = sum(irrep_dim(x.stab, x.irrep) * dim_m(gamma, x) for x in xs)
            assert total == gamma.group().order


class TestWeightMult:
    def test_on_orbit(self):
        gamma = parse_gamma("S:2")
        x = classify_X_over(gamma, w(1, 0))[0]
        assert weight_mult(gamma, x, w(0, 1)) == 1
        assert weight_mult(gamma, x, w(1, 0)) == 1

    def test_off_orbit(self):
        gamma = parse_gamma("S:2")
        x = classify_X_over(gamma, w(1, 0))[0]
        assert weight_mult(gamma, x, w(5, 5)) == 0

    def test_two_dimensional(self):
        gamma = parse_gamma("S:3")
        xs = classify_X_over(gamma, w(2, 2, 2))
        x21 = next(x for x in xs if x.irrep == ((2, 1),))
        assert weight_mult(gamma, x21, w(2, 2, 2)) == 2


class TestDuality:
    def test_sign_self_dual(self):
        gamma = parse_gamma("S:2")
        x = classify_X_over(gamma, w(3, 3))[1]
        assert x.irrep == ((1, 1),)
        assert duality_F(x) == x

    def test_cyclic_conjugate(self):
        gamma = parse_gamma("C:3")
        xs = classify_X_over(gamma, w(4, 4, 4))
        by_res = {x.irrep[0]: x for x in xs}
        assert duality_F(by_res[1]) == by_res[2]
        assert duality_F(by_res[0]) == by_res[0]

    def test_trivial_group_identity(self):
        gamma = parse_gamma("1:2")
        x = classify_X_over(gamma, w(1, 7))[0]
        assert duality_F(x) == x

    def test_involution_and_orbit_fixed(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(1, 4)
            gamma = parse_gamma(rng.choice([f"S:{n}", f"C:{n}"]))
            lam = tuple(F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n))
            for x in classify_X_over(gamma, lam):
                assert duality_F(duality_F(x)) == x
                assert duality_F(x).orbit_rep == x.orbit_rep


class TestDecomposeInduced:
    def test_regular_s2(self):
        gamma = parse_gamma("S:2")
        lam = w(4, 4)
        trivial = GroupDesc(2, ())
        out = decompose_induced(gamma, lam, trivial, ())
        xs = classify_X_over(gamma, lam)
        assert out == {xs[0]: 1, xs[1]: 1}

    def test_identity_decomposition(self):
        gamma = parse_gamma("S:3")
        lam = w(1, 1, 1)
        xs = classify_X_over(gamma, lam)
        full = xs[0].stab
        for x in xs:
            out = decompose_induced(gamma, lam, full, x.irrep)
            assert out == {x: 1}

    def test_regular_cyclic(self):
        gamma = parse_gamma("C:3")
        lam = w(2, 2, 2)
        out = decompose_induced(gamma, lam, GroupDesc(3, ()), ())
        assert sorted(m for m in out.values()) == [1, 1, 1]
        assert len(out) == 3

    def test_containment_checked(self):
        gamma = parse_gamma("S:2")
        lam = w(1, 0)  # trivial stabilizer
        s2 = GroupDesc(2, (parse_gamma("S:2").group().factors[0],))
        with pytest.raises(ValueError):
            decompose_induced(gamma, lam, s2, ((2,),))


class TestProducts:
    def test_product_law_matches_direct(self):
        rng = random.Random(14)
        for _ in range(20):
            specs = []
            lams = []
            for _ in range(rng.randint(2, 3)):
                n = rng.randint(1, 3)
                kind = rng.choice(["S", "C", "1"])
                specs.append(parse_gamma(f"{kind}:{n}"))
                lams.append(tuple(F(rng.randint(-2, 2)) for _ in range(n)))
            per_block = [classify_X_over(g, lam) for g, lam in zip(specs, lams)]
            product = sorted(
                (
                    concat_simplex(specs, list(combo))
                    for combo in itertools.product(*per_block)
                ),
                key=SimpleX.sort_key,
            )
            big_gamma = parse_gamma(";".join(str(g) for g in specs))
            big_lam = tuple(itertools.chain.from_iterable(lams))
            assert product == classify_X_over(big_gamma, big_lam)


class TestJson:
    def test_round_trip(self):
        rng = random.Random(15)
        for _ in range(20):
            n = rng.randint(1, 4)
            gamma = parse_gamma(rng.choice([f"S:{n}", f"C:{n}", "S:1," + str(max(1, n - 1))]))
            lam = tuple(F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(gamma.n))
            for x in classify_X_over(gamma, lam):
                data = simplex_to_json(gamma, x)
                assert simplex_from_json(gamma, data) == x


    @pytest.mark.parametrize(
        "spec, coords, labels",
        [
            ("C:3", ["0", "0", "0"], ["j=7"]),
            ("C:3", ["0", "0", "0"], ["j=-1"]),
            ("C:3", ["0", "0", "0"], ["7"]),
            ("C:3", ["0", "0", "0"], ["k=1"]),
            ("S:2", ["0", "0"], ["3"]),
            ("S:2", ["0", "0"], ["1"]),
            ("S:2", ["0", "0"], ["2", "2"]),
            ("S:2", ["1", "0"], ["2"]),
        ],
    )
    def test_rejects_labels_naming_no_irrep(self, spec, coords, labels):
        with pytest.raises(ValueError):
            simplex_from_json(parse_gamma(spec), {"orbit_rep": coords, "irrep": labels})

    @pytest.mark.parametrize(
        "data",
        [
            {"orbit_rep": ["0", "0"], "irrep": [2]},
            {"orbit_rep": ["0", "0"], "irrep": "2"},
            {"orbit_rep": ["0", "0"], "irrep": None},
            {"orbit_rep": "00", "irrep": ["2"]},
        ],
    )
    def test_rejects_fields_of_the_wrong_shape(self, data):
        with pytest.raises(ValueError):
            simplex_from_json(parse_gamma("S:2"), data)

    def test_validate_rejects_hand_built_labels(self):
        gamma = parse_gamma("S:2")
        x = classify_X_over(gamma, w(0, 0))[0]
        for bad in [((3,),), ((1,),), (2,), ()]:
            with pytest.raises(ValueError):
                validate_simplex(gamma, SimpleX(x.orbit_rep, x.stab, bad))
        validate_simplex(gamma, x)


def _generated_hash(obj):
    """The hash a frozen dataclass generates: of the tuple of its fields."""
    return hash(tuple(getattr(obj, f.name) for f in dataclasses.fields(obj)))


@st.composite
def _spec_and_weight(draw):
    gamma = draw(gamma_specs())
    return gamma, draw(pooled_weights(gamma))


class TestHashOnce:
    @settings(max_examples=100)
    @given(_spec_and_weight())
    def test_hash_equals_generated(self, case):
        gamma, lam = case
        for x in classify_X_over(gamma, lam):
            for obj in (x, x.stab, gamma):
                assert hash(obj) == _generated_hash(obj)
                assert hash(obj) == _generated_hash(obj)  # the stored value
            # built apart from x, from equal but distinct parts
            stab = GroupDesc(x.stab.n, tuple(x.stab.factors))
            rebuilt = SimpleX(tuple(F(c) for c in x.orbit_rep), stab, tuple(x.irrep))
            assert rebuilt == x and hash(rebuilt) == hash(x)
            assert stab == x.stab and hash(stab) == hash(x.stab)
        again = parse_gamma(str(gamma))
        assert again == gamma and hash(again) == hash(gamma)
