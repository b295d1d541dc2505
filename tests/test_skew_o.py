import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_strategies import CHAR_COORD, MIXED_COORD, gamma_specs, pooled_weights
from oracles import block_by_decomposition, char_rows_by_evaluation, oracle_decompose
from wreatho.cato_a import CharacterVB, ch_simple_A, length_Z_A
from wreatho.clifford import (
    SimpleX,
    classify_X_over,
    dim_m,
    duality_F,
    simplex_from_json,
)
from wreatho.skew_o import (
    _flip_layer_choices,
    block_matrices,
    ch_simple_skew,
    ch_verma_skew,
    dim_simple_skew,
    partial_order_X,
    s3_component,
    s3_product_cover,
    s_prime_component,
    s3_skew,
    s4_skew,
    simples_over_four_setups,
    verma_decompose_skew,
    weight_dims_skew,
)
from wreatho.symchars import irrep_dim
from wreatho.weights import (
    gamma_cells,
    integral_flip_positions,
    orbit_of,
    parse_gamma,
    parse_weight,
    perm_act,
    stabilizer,
)


def w(*coords):
    return tuple(F(c) for c in coords)


S2 = parse_gamma("S:2")
C3 = parse_gamma("C:3")
TRIV1 = parse_gamma("1:1")


class TestPartialOrder:
    def test_strictly_below(self):
        x_high = classify_X_over(S2, w(1, 0))[0]
        x_low = classify_X_over(S2, w(-3, 0))[0]
        assert partial_order_X(S2, x_high, x_low) == "greater"
        assert partial_order_X(S2, x_low, x_high) == "less"

    def test_same_orbit_ties(self):
        a, b = classify_X_over(S2, w(3, 3))
        assert partial_order_X(S2, a, a) == "equal"
        assert partial_order_X(S2, a, b) == "incomparable"

    def test_non_integral_difference(self):
        x1 = classify_X_over(S2, w(F(1, 2), 0))[0]
        x2 = classify_X_over(S2, w(1, 0))[0]
        assert partial_order_X(S2, x1, x2) == "incomparable"


class TestVermaDecompose:
    def test_s2_triv_over_00(self):
        xs = classify_X_over(S2, w(0, 0))
        out = verma_decompose_skew(S2, xs[0])
        mid = classify_X_over(S2, w(-2, 0))[0]
        bottom_triv = classify_X_over(S2, w(-2, -2))[0]
        assert out == {xs[0]: 1, mid: 1, bottom_triv: 1}

    def test_s2_sign_over_00(self):
        xs = classify_X_over(S2, w(0, 0))
        out = verma_decompose_skew(S2, xs[1])
        mid = classify_X_over(S2, w(-2, 0))[0]
        bottom_sign = classify_X_over(S2, w(-2, -2))[1]
        assert out == {xs[1]: 1, mid: 1, bottom_sign: 1}

    def test_result_is_a_fresh_copy(self):
        xs = classify_X_over(S2, w(0, 0))
        first = verma_decompose_skew(S2, xs[0])
        expected = dict(first)
        first[xs[1]] = 7
        first[xs[0]] = 5
        assert verma_decompose_skew(S2, xs[0]) == expected

    def test_rejects_a_label_naming_no_irrep(self):
        # a hand-built simple on C:3 at 0,0,0 with residue 7
        x = classify_X_over(C3, w(0, 0, 0))[0]
        with pytest.raises(ValueError):
            verma_decompose_skew(C3, SimpleX(x.orbit_rep, x.stab, (7,)))

    def test_simple_verma(self):
        x = classify_X_over(S2, w(-3, F(-1, 2)))[0]
        out = verma_decompose_skew(S2, x)
        assert out == {x: 1}

    def test_restriction_accounting(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 4)
            gamma = parse_gamma(rng.choice([f"S:{n}", f"C:{n}", f"1:{n}"]))
            lam = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n))
            for x in classify_X_over(gamma, lam):
                out = verma_decompose_skew(gamma, x)  # internal check runs too
                total = sum(
                    m * (gamma.group().order // y.stab.order) * irrep_dim(y.stab, y.irrep)
                    for y, m in out.items()
                )
                assert total == dim_m(gamma, x) * length_Z_A(lam)

    def test_against_truncated_module_oracle(self):
        # explicit group action on singular vectors, one-dimensional irreps
        cases = [
            (S2, w(0, 0)),
            (S2, w(1, 0)),
            (S2, w(2, 2)),
            (S2, w(0, -3)),
            (parse_gamma("C:2"), w(1, 1)),
            (parse_gamma("S:2;1:1"), w(0, 0, 1)),
        ]
        for gamma, lam in cases:
            for x in classify_X_over(gamma, lam):
                if irrep_dim(x.stab, x.irrep) != 1:
                    continue
                depth = int(2 * max(max(c for c in mu) for mu in orbit_of(gamma, lam)) + 2 * gamma.n + 2)
                got = oracle_decompose(gamma, x, depth=max(depth, 4))
                assert got == verma_decompose_skew(gamma, x), (gamma, x)

    def test_positivity_matches_plain_factors(self):
        # some x' over mu occurs in Z(x) iff mu occurs in some plain Verma
        # over the orbit of lam
        from wreatho.cato_a import verma_factors_A
        from wreatho.weights import canonical_orbit_rep

        rng = random.Random(36)
        for _ in range(15):
            n = rng.randint(1, 3)
            gamma = parse_gamma(rng.choice([f"S:{n}", f"C:{n}"]))
            lam = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n))
            for x in classify_X_over(gamma, lam):
                skew_orbits = {
                    y.orbit_rep for y in verma_decompose_skew(gamma, x)
                }
                plain_orbits = set()
                for mu_top in orbit_of(gamma, lam):
                    for mu in verma_factors_A(mu_top):
                        plain_orbits.add(canonical_orbit_rep(gamma, mu))
                assert skew_orbits == plain_orbits

    def test_s3_higher_dim_irrep(self):
        gamma = parse_gamma("S:3")
        xs = classify_X_over(gamma, w(1, 1, 1))
        x21 = next(x for x in xs if x.irrep == ((2, 1),))
        out = verma_decompose_skew(gamma, x21)
        # the middle layers see both restrictions of the 2-dim irrep
        mids = classify_X_over(gamma, w(-3, 1, 1))
        for mid in mids:
            assert out[mid] == 1
        bottom21 = next(
            x for x in classify_X_over(gamma, w(-3, -3, -3)) if x.irrep == ((2, 1),)
        )
        assert out[bottom21] == 1

    def test_against_regular_module_oracle(self):
        # aggregate identity over the full group algebra: works for every
        # group, including cyclic factors whose characters are irrational
        from oracles import TruncatedRegularVerma
        from wreatho.weights import canonical_orbit_rep

        cases = [
            (parse_gamma("C:3"), w(0, 0, 0), 5),
            (parse_gamma("C:3"), w(1, 0, 0), 6),
            (parse_gamma("S:3"), w(1, 1, 1), 7),
            (parse_gamma("C:4"), w(1, 1, 1, 1), 6),
            (parse_gamma("C:4"), w(1, 0, 1, 0), 6),
            (parse_gamma("S:4"), w(0, 0, -3, -3), 4),
            (parse_gamma("S:2,2"), w(0, 0, 0, 0), 5),
            (parse_gamma("S:2;C:2"), w(2, 0, 1, 1), 7),
            (parse_gamma("C:6"), w(1, 0, 1, 0, 1, 0), 4),
        ]
        for gamma, lam, depth in cases:
            # predicted singular dimension at each weight, summed over all
            # simples above lam with regular-representation multiplicities
            predicted: dict = {}
            for x in classify_X_over(gamma, lam):
                reg_mult = irrep_dim(x.stab, x.irrep)
                for y, mult in verma_decompose_skew(gamma, x).items():
                    dim_y = irrep_dim(y.stab, y.irrep)
                    for mu in orbit_of(gamma, y.orbit_rep):
                        predicted[mu] = (
                            predicted.get(mu, 0) + reg_mult * mult * dim_y
                        )
            module = TruncatedRegularVerma(gamma, lam, depth)
            got = module.singular_dims_by_weight()
            for wgt, dim in got.items():
                assert predicted.get(wgt, 0) == dim, (gamma, lam, wgt)
            # every predicted weight within the truncation must be found
            for wgt, dim in predicted.items():
                depths = [
                    sum((a - b) / 2 for a, b in zip(mu, wgt))
                    for mu in orbit_of(gamma, lam)
                ]
                if any(
                    d.denominator == 1 and 0 <= d <= depth for d in depths
                ):
                    assert got.get(wgt, 0) == dim, (gamma, lam, wgt)

    def test_randomized_one_dim_oracle_stress(self):
        rng = random.Random(39)
        done = 0
        while done < 10:
            n = rng.randint(1, 3)
            gamma = parse_gamma(
                rng.choice([f"S:{n}", f"C:{min(n, 2)}" + (f";1:{n-2}" if n > 2 else ""), f"1:{n}"])
            )
            if gamma.n != n:
                continue
            lam = tuple(F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n))
            flips = [c for c in lam if c.denominator == 1 and c >= 0]
            depth = int(sum(c + 1 for c in flips)) + 1
            if depth > 9:
                continue
            for x in classify_X_over(gamma, lam):
                if irrep_dim(x.stab, x.irrep) != 1:
                    continue
                got = oracle_decompose(gamma, x, depth=depth)
                assert got == verma_decompose_skew(gamma, x), (gamma, lam, x)
            done += 1

    def test_duality_equivariance_of_decomposition(self):
        rng = random.Random(37)
        for _ in range(15):
            n = rng.randint(1, 4)
            gamma = parse_gamma(rng.choice([f"S:{n}", f"C:{n}"]))
            lam = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n))
            for x in classify_X_over(gamma, lam):
                direct = verma_decompose_skew(gamma, duality_F(x))
                twisted = {
                    duality_F(y): m
                    for y, m in verma_decompose_skew(gamma, x).items()
                }
                assert direct == twisted

    def test_order_compatible_with_decomposition(self):
        rng = random.Random(38)
        for _ in range(10):
            n = rng.randint(1, 3)
            gamma = parse_gamma(rng.choice([f"S:{n}", f"C:{n}"]))
            lam = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n))
            for x in classify_X_over(gamma, lam):
                for y in verma_decompose_skew(gamma, x):
                    assert partial_order_X(gamma, x, y) in ("greater", "equal", "incomparable")
                    assert partial_order_X(gamma, y, x) != "greater"


def _check_flip_layers(gamma, lam):
    """Brute force over Gamma's elements: each stab_T is the stabilizer of T
    in Stab(lam), the yielded T lie in distinct Stab(lam)-orbits, and the
    orbit sizes add up to the 2^|I(lam)| subsets of I(lam)."""
    stab = [g for g in gamma.group().elements() if perm_act(g, lam) == lam]
    flips = integral_flip_positions(lam)
    seen = set()
    total = 0
    for t_set, stab_t in _flip_layer_choices(gamma, lam):
        assert t_set <= set(flips)
        fixing_t = [g for g in stab if frozenset(g[i] for i in t_set) == t_set]
        assert sorted(stab_t.elements()) == sorted(fixing_t)
        orbit = {frozenset(g[i] for i in t_set) for g in stab}
        assert not orbit & seen, (t_set, seen)
        seen |= orbit
        total += len(stab) // stab_t.order
    assert total == 2 ** len(flips)


@st.composite
def _flip_cases(draw):
    gamma = draw(gamma_specs())
    return gamma, draw(pooled_weights(gamma))


class TestFlipLayers:
    @pytest.mark.parametrize(
        "spec, weight", [("C:3", "0,0,3"), ("C:4", "1,1,1,1"), ("S:2,2", "0,0,0,0")]
    )
    def test_examples(self, spec, weight):
        _check_flip_layers(parse_gamma(spec), parse_weight(weight))

    @settings(max_examples=150)
    @given(_flip_cases())
    def test_against_brute_force(self, case):
        _check_flip_layers(*case)


class TestLinkageSets:
    def test_five_element_set(self):
        xs = classify_X_over(S2, w(0, 0))
        got = s3_skew(S2, xs[0])
        assert len(got) == 5

    def test_trivial_gamma(self):
        x = classify_X_over(TRIV1, w(5))[0]
        got = s3_skew(TRIV1, x)
        assert sorted(y.orbit_rep for y in got) == [w(-7), w(5)]

    def test_half_weights(self):
        x = classify_X_over(S2, w(F(1, 2), F(1, 2)))[0]
        got = s3_skew(S2, x)
        assert len(got) == 2
        assert all(y.orbit_rep == w(F(1, 2), F(1, 2)) for y in got)

    def test_s4_dot_orbit(self):
        x = classify_X_over(TRIV1, w(F(1, 2)))[0]
        got = s4_skew(TRIV1, x)
        assert sorted(y.orbit_rep for y in got) == [w(F(-5, 2)), w(F(1, 2))]

    def test_s4_integral_equals_s3(self):
        x = classify_X_over(S2, w(0, 0))[0]
        assert set(s3_skew(S2, x)) == set(s4_skew(S2, x))

    def test_s4_non_integral(self):
        # orbits (1/2,1/2), (-5/2,1/2), (-5/2,-5/2): 2 + 1 + 2 simples
        x = classify_X_over(S2, w(F(1, 2), F(1, 2)))[0]
        got = s4_skew(S2, x)
        assert len(got) == 5
        reps = sorted({y.orbit_rep for y in got})
        assert reps == [w(F(-5, 2), F(-5, 2)), w(F(-5, 2), F(1, 2)), w(F(1, 2), F(1, 2))]

    def test_s3_inside_s4_iff_integral(self):
        rng = random.Random(32)
        for _ in range(25):
            n = rng.randint(1, 3)
            gamma = parse_gamma(rng.choice([f"S:{n}", f"C:{n}"]))
            lam = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n))
            x = classify_X_over(gamma, lam)[0]
            s3 = set(s3_skew(gamma, x))
            s4 = set(s4_skew(gamma, x))
            assert s3 <= s4
            assert (s3 == s4) == all(c.denominator == 1 for c in lam)

    def test_component_splits_saturation(self):
        # over a non-integral S2 weight, the strict classes are singletons
        xs = classify_X_over(S2, w(F(1, 2), F(1, 2)))
        for x in xs:
            assert s3_component(S2, x) == [x]
        # over the cyclic non-integral constant, chi1 and chi2 pair up
        xs = classify_X_over(C3, w(F(1, 2), F(1, 2), F(1, 2)))
        assert s3_component(C3, xs[0]) == [xs[0]]
        assert s3_component(C3, xs[1]) == [xs[1], xs[2]]


class TestBlockMatrices:
    def test_worked_s2_block(self):
        xs = classify_X_over(S2, w(0, 0))
        bd = block_matrices(S2, xs[0])
        assert [x.orbit_rep for x in bd.order] == [
            w(0, 0),
            w(0, 0),
            w(-2, 0),
            w(-2, -2),
            w(-2, -2),
        ]
        assert bd.D == [
            [1, 0, 1, 1, 0],
            [0, 1, 1, 0, 1],
            [0, 0, 1, 1, 1],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ]
        assert bd.F == [[int(i == j) for j in range(5)] for i in range(5)]
        assert bd.C == [
            [1, 0, 1, 1, 0],
            [0, 1, 1, 0, 1],
            [1, 1, 3, 2, 2],
            [1, 0, 2, 3, 1],
            [0, 1, 2, 1, 3],
        ]
        assert bd.Cprime == bd.C

    def test_rank_one_integral(self):
        x = classify_X_over(TRIV1, w(3))[0]
        bd = block_matrices(TRIV1, x)
        assert bd.D == [[1, 1], [0, 1]]
        assert bd.F == [[1, 0], [0, 1]]
        assert bd.C == [[1, 1], [1, 2]]

    def test_cyclic_half_block(self):
        # D = I (simple Vermas); C = I and C' = F by the reciprocity formulas
        xs = classify_X_over(C3, w(F(1, 2), F(1, 2), F(1, 2)))
        bd = block_matrices(C3, xs[0])
        eye = [[int(i == j) for j in range(3)] for i in range(3)]
        swap = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        assert bd.D == eye
        assert bd.F == swap
        assert bd.C == eye
        assert bd.Cprime == swap

    def test_random_blocks_symmetric(self):
        rng = random.Random(33)
        for _ in range(8):
            n = rng.randint(1, 3)
            gamma = parse_gamma(rng.choice([f"S:{n}", f"C:{n}", f"1:{n}"]))
            lam = tuple(F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n))
            bd = block_matrices(gamma, classify_X_over(gamma, lam)[0])
            k = len(bd.order)
            assert all(bd.D[i][i] == 1 for i in range(k))
            assert all(bd.D[i][j] == 0 for i in range(k) for j in range(i))
            assert all(
                bd.Cprime[i][j] == bd.Cprime[j][i] for i in range(k) for j in range(k)
            )

    def test_equivariance_under_relabeling(self):
        # swapping the two S:2 blocks maps the block data onto itself
        gamma = parse_gamma("S:2;S:2")
        lam = w(0, 0, 2, 2)
        swapped = w(2, 2, 0, 0)
        bd1 = block_matrices(gamma, classify_X_over(gamma, lam)[0])
        bd2 = block_matrices(gamma, classify_X_over(gamma, swapped)[0])

        def relabel(x):
            rep = x.orbit_rep[2:] + x.orbit_rep[:2]
            matches = [
                y
                for y in classify_X_over(gamma, rep)
                if tuple(sorted(y.irrep)) == tuple(sorted(x.irrep))
            ]
            assert len(matches) >= 1
            return matches[0] if len(matches) == 1 else None

        index2 = {y: i for i, y in enumerate(bd2.order)}
        mapping = {}
        for i, x in enumerate(bd1.order):
            y = relabel(x)
            if y is not None:
                mapping[i] = index2[y]
        for i, pi in mapping.items():
            for j, pj in mapping.items():
                assert bd1.D[i][j] == bd2.D[pi][pj]
                assert bd1.C[i][j] == bd2.C[pi][pj]

    def test_block_well_defined_from_any_member(self):
        for gamma, lam in (
            (S2, w(0, 0)),
            (C3, w(F(1, 2), F(1, 2), F(1, 2))),
            (TRIV1, w(3)),
        ):
            base = block_matrices(gamma, classify_X_over(gamma, lam)[0])
            for member in base.order:
                again = block_matrices(gamma, member)
                assert again.order == base.order
                assert again.D == base.D and again.Cprime == base.Cprime

    @pytest.mark.parametrize(
        "gamma_text, weight_text",
        [
            ("S:2,2,2", "0,0,1,1,2,3"),
            ("C:3", "1,1,1"),
            ("S:3;C:2", "4,4,4,4,4"),
            ("C:6", "0,1,0,1,0,1"),
            ("S:2;C:3;1:1", "0,0,1,2,3,1/2"),
            ("S:4", "1/2,1/2,0,0"),
        ],
    )
    def test_block_does_not_depend_on_the_irrep(self, gamma_text, weight_text):
        # the rows are the Gamma-saturated S^3 set of the orbit, which is the
        # union of the linkage classes of every simple over the orbit
        gamma, lam = parse_gamma(gamma_text), parse_weight(weight_text)
        xs = classify_X_over(gamma, lam)
        assert len(xs) > 1
        blocks = [block_matrices(gamma, x) for x in xs]
        assert all(bd.to_json() == blocks[0].to_json() for bd in blocks)
        linked = set().union(*(s3_component(gamma, x) for x in xs))
        assert set(blocks[0].order) == linked

    def test_dot_export(self):
        xs = classify_X_over(S2, w(0, 0))
        dot = block_matrices(S2, xs[0]).to_dot()
        assert dot.count('label="X[') == 5
        solid = [l for l in dot.splitlines() if "->" in l and "dashed" not in l]
        assert len(solid) == 6


def _assert_block_matches_oracle(gamma, x):
    bd = block_matrices(gamma, x)
    oracle = block_by_decomposition(gamma, x)
    assert bd.order == oracle.order
    assert bd.D == oracle.D
    assert bd.F == oracle.F
    assert bd.C == oracle.C
    assert bd.Cprime == oracle.Cprime
    for y in bd.order:
        assert s3_component(gamma, y) == oracle.s3[y], y
        assert s_prime_component(gamma, y) == oracle.s_prime[y], y


@st.composite
def _multi_cell_cases(draw):
    gamma = draw(gamma_specs().filter(lambda g: len(gamma_cells(g)) > 1))
    return gamma, classify_X_over(gamma, draw(pooled_weights(gamma)))[0]


class TestProductLaw:
    # over several cells of Gamma the block is the Kronecker product of the
    # cell blocks; the oracle decomposes every simple of it directly

    @settings(max_examples=60, deadline=None)
    @given(_multi_cell_cases())
    def test_kronecker_block_matches_direct_decomposition(self, case):
        _assert_block_matches_oracle(*case)

    @pytest.mark.parametrize(
        "gamma_text, weight_text, size",
        [
            ("S:2;S:2", "0,0,1,1", 25),
            ("S:3;C:2", "4,4,4,4,4", 50),
            ("S:2;C:3;1:1", "0,0,1,2,3,1/2", 40),
            # duality pairs the residues 1 and 2 of C:3, so classes join
            ("C:3;S:2", "1/2,1/2,1/2,0,0", 15),
        ],
    )
    def test_product_blocks_match_direct_decomposition(
        self, gamma_text, weight_text, size
    ):
        gamma = parse_gamma(gamma_text)
        xs = classify_X_over(gamma, parse_weight(weight_text))
        assert len(block_matrices(gamma, xs[0]).order) == size
        for x in xs:
            _assert_block_matches_oracle(gamma, x)

    def test_young_block_equals_product_of_its_factors(self):
        lam = w(0, 0, 1, 1)
        young, product = parse_gamma("S:2,2"), parse_gamma("S:2;S:2")
        a = block_matrices(young, classify_X_over(young, lam)[0])
        b = block_matrices(product, classify_X_over(product, lam)[0])
        assert a.order == b.order
        assert a.D == b.D


class TestSharedBlock:
    def test_mutating_a_returned_block_leaves_the_next_one_unchanged(self):
        gamma = parse_gamma("S:2;C:3;1:1")
        x = classify_X_over(gamma, parse_weight("0,0,1,2,3,1/2"))[0]
        first = block_matrices(gamma, x)
        expected = json.dumps(first.to_json())
        first.D[0][0] = 7
        first.D[1].clear()
        first.order.reverse()
        first.C[0][1] += 1
        first.C.pop()
        assert json.dumps(block_matrices(gamma, x).to_json()) == expected
        component = s3_component(gamma, x)
        component.clear()
        assert s3_component(gamma, x)

    def test_product_block_decomposes_only_its_cells(self, monkeypatch):
        import wreatho.skew_o as so

        calls = []

        def counting(gamma, x):
            calls.append((gamma, x))
            return verma_decompose_skew(gamma, x)

        so._orbit_block.cache_clear()
        so._verma_decompose_terms.cache_clear()
        monkeypatch.setattr(so, "verma_decompose_skew", counting)
        gamma = parse_gamma("S:2,2,2,2")
        x = classify_X_over(gamma, parse_weight("0,0,1,1,2,2,3,3"))[0]
        assert len(block_matrices(gamma, x).order) == 625
        # 4 cells x 5 simples; decomposing every simple would take 625
        assert len(calls) <= 20


class TestInvalidSimples:
    # the block is shared per orbit, so each reader validates its simple first

    def test_non_canonical_orbit_rep(self):
        lam = w(1, 0)
        x = SimpleX(lam, stabilizer(S2, lam), ())
        with pytest.raises(ValueError):
            s3_component(S2, x)

    def _bogus_cyclic(self):
        x = classify_X_over(C3, w(0, 0, 0))[0]
        return SimpleX(x.orbit_rep, x.stab, (7,))

    @pytest.mark.parametrize("reader", [s3_component, s_prime_component])
    def test_label_naming_no_irrep_in_components(self, reader):
        with pytest.raises(ValueError):
            reader(C3, self._bogus_cyclic())

    def test_label_naming_no_irrep_in_block(self):
        with pytest.raises(ValueError):
            block_matrices(C3, self._bogus_cyclic())


class TestCharactersAndDims:
    def test_dim_over_10(self):
        gamma = S2
        x = classify_X_over(gamma, w(1, 0))[0]
        assert dim_simple_skew(gamma, x) == 4

    def test_tensor_power_dim(self):
        for n, lam_val in ((2, 1), (3, 2)):
            gamma = parse_gamma(f"S:{n}")
            lam = tuple(F(lam_val) for _ in range(n))
            xs = classify_X_over(gamma, lam)
            triv = xs[0]
            assert triv.irrep == ((n,),)
            assert dim_simple_skew(gamma, triv) == (lam_val + 1) ** n

    def test_infinite(self):
        x = classify_X_over(S2, w(F(1, 2), F(1, 2)))[0]
        assert dim_simple_skew(S2, x) is None

    def test_ch_verma_equals_D_times_ch_simple(self):
        rng = random.Random(34)
        for _ in range(10):
            n = rng.randint(1, 3)
            gamma = parse_gamma(rng.choice([f"S:{n}", f"C:{n}"]))
            lam = tuple(F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n))
            for x in classify_X_over(gamma, lam):
                lhs = ch_verma_skew(gamma, x)
                rhs = CharacterVB(gamma.n)
                for y, mult in verma_decompose_skew(gamma, x).items():
                    rhs = rhs + ch_simple_skew(gamma, y).scale(mult)
                assert lhs == rhs


@st.composite
def _char_cases(draw, coords=CHAR_COORD):
    gamma = draw(gamma_specs())
    lam = draw(pooled_weights(gamma, coords=coords))
    simples = classify_X_over(gamma, lam)
    x = simples[draw(st.integers(0, len(simples) - 1))]
    return gamma, x, draw(st.sampled_from(["V", "Z"])), draw(st.integers(0, 4))


@st.composite
def _finite_cases(draw):
    gamma = draw(gamma_specs(max_rank=3))
    lam = tuple(F(draw(st.integers(0, 2))) for _ in range(gamma.n))
    simples = classify_X_over(gamma, lam)
    x = simples[draw(st.integers(0, len(simples) - 1))]
    return gamma, x, int(sum(lam)) + draw(st.integers(0, 1))


@st.composite
def _simple_cases(draw):
    gamma = draw(gamma_specs())
    simples = classify_X_over(gamma, draw(pooled_weights(gamma)))
    return gamma, simples[draw(st.integers(0, len(simples) - 1))]


class TestVermaCharacter:
    @settings(max_examples=80)
    @given(_simple_cases())
    def test_ch_verma_is_D_row_times_ch_simple(self, case):
        # ch Z(x) = sum_y D[x][y] ch V(y), on multi-block specs as well
        gamma, x = case
        rhs = CharacterVB(gamma.n)
        for y, mult in verma_decompose_skew(gamma, x).items():
            rhs = rhs + ch_simple_skew(gamma, y).scale(mult)
        assert ch_verma_skew(gamma, x) == rhs


class TestWeightDims:
    @settings(max_examples=150)
    @given(_char_cases())
    def test_matches_verma_sums(self, case):
        gamma, x, module, depth = case
        character, rows = weight_dims_skew(gamma, x, module, depth)
        mult = irrep_dim(x.stab, x.irrep)
        orbit_sum = CharacterVB(gamma.n)
        for mu in orbit_of(gamma, x.orbit_rep):
            term = ch_simple_A(mu) if module == "V" else CharacterVB(gamma.n, {mu: 1})
            orbit_sum = orbit_sum + term.scale(mult)
        assert character == orbit_sum
        assert rows == char_rows_by_evaluation(character, depth)

    @settings(max_examples=40)
    @given(_finite_cases())
    def test_finite_simple_sums_to_its_dimension(self, case):
        gamma, x, depth = case
        character, rows = weight_dims_skew(gamma, x, "V", depth)
        assert rows == char_rows_by_evaluation(character, depth)
        assert sum(d for _, d in rows) == dim_simple_skew(gamma, x)

    @pytest.mark.parametrize(
        "spec, coords, module, depth",
        [
            ("S:2;1:1", (F(1, 3), F(1, 3), F(5, 2)), "V", 5),
            ("S:2;1:1", (F(1, 3), F(5, 2), 0), "Z", 4),
            ("S:2;1:1", (F(-2, 3), F(1, 2), F(4, 3)), "V", 6),
            ("S:2", (0, F(5, 2)), "V", 6),
        ],
    )
    def test_row_order_with_mixed_denominators(self, spec, coords, module, depth):
        # one orbit coordinate, or one weight, mixes denominators 1, 2 and 3;
        # the oracle sorts by the Fraction key (-sum(nu), nu)
        gamma = parse_gamma(spec)
        for x in classify_X_over(gamma, coords):
            character, rows = weight_dims_skew(gamma, x, module, depth)
            assert len(rows) > 1
            assert rows == char_rows_by_evaluation(character, depth)

    @settings(max_examples=80)
    @given(_char_cases(coords=MIXED_COORD))
    def test_rows_match_evaluation_over_thirds(self, case):
        gamma, x, module, depth = case
        character, rows = weight_dims_skew(gamma, x, module, depth)
        assert rows == char_rows_by_evaluation(character, depth)

    def test_unknown_module(self):
        x = classify_X_over(S2, w(1, 0))[0]
        with pytest.raises(ValueError):
            weight_dims_skew(S2, x, "M", 1)


class TestFourSetups:
    def test_trivial_blocks(self):
        gamma = parse_gamma("S:1;S:1")
        lams, per_block, big, product = simples_over_four_setups(
            gamma, [w(3), w(F(1, 2))]
        )
        assert [len(p) for p in per_block] == [1, 1]
        assert len(product) == 1

    def test_mixed_blocks(self):
        gamma = parse_gamma("S:2;C:3")
        lams, per_block, big, product = simples_over_four_setups(
            gamma, [w(3, 3), w(4, 4, 4)]
        )
        assert [len(p) for p in per_block] == [2, 3]
        assert len(product) == 6

    def test_single_block(self):
        gamma = parse_gamma("S:2")
        lams, per_block, big, product = simples_over_four_setups(gamma, [w(1, 0)])
        assert len(per_block[0]) == 1 and len(product) == 1


class TestCover:
    def test_trivial_blocks_coincide(self):
        gamma = parse_gamma("1:1;1:1")
        xs = [
            classify_X_over(parse_gamma("1:1"), w(3))[0],
            classify_X_over(parse_gamma("1:1"), w(0))[0],
        ]
        report = s3_product_cover(gamma, xs)
        assert report.hypothesis_holds and report.equality and report.chain_ok
        assert set(report.cover[(0, 0)]) == set(report.product_set)

    def test_young_blocks_identity_eps(self):
        gamma = parse_gamma("S:2;S:2")
        block = parse_gamma("S:2")
        xs = [
            classify_X_over(block, w(0, 0))[0],
            classify_X_over(block, w(2, 2))[1],
        ]
        report = s3_product_cover(gamma, xs)
        assert report.hypothesis_holds and report.equality
        assert set(report.cover[(0, 0)]) == set(report.product_set)

    def test_cyclic_blocks_need_nonzero_eps(self):
        gamma = parse_gamma("C:3;C:3")
        block = C3
        half = w(F(1, 2), F(1, 2), F(1, 2))
        chi1 = classify_X_over(block, half)[1]
        report = s3_product_cover(gamma, [chi1, chi1])
        assert report.hypothesis_holds and report.equality and report.chain_ok
        assert len(report.product_set) == 4
        zero_part = set(report.cover[(0, 0)])
        assert any(
            set(comp) - zero_part for eps, comp in report.cover.items() if eps != (0, 0)
        )


class TestConcurrency:
    def test_parallel_block_computation_matches_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        jobs = []
        for text, lam in (
            ("S:2", w(0, 0)),
            ("S:2", w(1, 0)),
            ("C:3", w(0, 0, 0)),
            ("C:3", w(F(1, 2), F(1, 2), F(1, 2))),
            ("S:3", w(1, 1, 1)),
            ("1:2", w(2, 0)),
            ("S:2;1:1", w(0, 0, 1)),
            ("C:2", w(3, 3)),
        ):
            gamma = parse_gamma(text)
            jobs.append((gamma, classify_X_over(gamma, lam)[0]))
        serial = [block_matrices(g, x).to_json() for g, x in jobs]
        import wreatho.skew_o as so
        import wreatho.symchars as sc

        so._orbit_block.cache_clear()
        so._verma_decompose_terms.cache_clear()
        sc.restricted_inner_product.cache_clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda job: block_matrices(*job).to_json(), jobs)
            )
        assert parallel == serial

    def test_parallel_kostant_cold_cache_matches_serial(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        import wreatho.weights as wt

        roots = [w(2, 0), w(0, 2), w(2, 2)]
        thetas = [w(a, b) for a in range(-2, 13, 2) for b in range(-2, 13, 2)]
        serial = [wt.kostant_p(theta, roots) for theta in thetas]
        wt._separating_functional.cache_clear()
        wt._kostant_count.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                parallel = list(
                    pool.map(lambda theta: wt.kostant_p(theta, roots), thetas, timeout=60)
                )
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial


class TestJsonRoundTrip:
    def test_block_json(self):
        xs = classify_X_over(S2, w(0, 0))
        bd = block_matrices(S2, xs[0])
        data = bd.to_json()
        assert data["symmetric_Cprime"] is True
        rebuilt = [simplex_from_json(S2, entry) for entry in data["order"]]
        assert rebuilt == bd.order
