"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Run with -s to see the per-criterion pass lines; every expected value is
either frozen from an independent oracle or recomputed by one here.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cycle_type_rep,
    oracle_decompose,
    specht_character,
    truncated_sl2_factors,
)
from wreatho.cato_a import CharacterVB, s_sets_A, verma_factors_sl2
from wreatho.clifford import (
    classify_X_over,
    concat_gammas,
    concat_simplex,
    dim_m,
    duality_F,
)
from wreatho.linalg import in_row_space
from wreatho.pbw import (
    Algebra,
    cc_equal,
    center_basis_up_to_degree,
    central_character,
    central_character_numeric,
    gamma_twist,
    group_algebra_conjugate,
    monomial_basis,
)
from wreatho.obstruction import (
    DeformationSpec,
    obstruction_ek,
    verify_no_go,
    witness_monomial,
)
from wreatho.poly import Poly
from wreatho.skew_o import (
    block_matrices,
    ch_simple_skew,
    ch_verma_skew,
    dim_simple_skew,
    s3_product_cover,
    s3_skew,
    s4_skew,
    simples_over_four_setups,
)
from wreatho.symchars import char_value, irrep_dim, partitions_of
from wreatho.weights import (
    GammaSpec,
    kostant_p,
    orbit_of,
    parse_gamma,
    perm_act,
    perm_inverse,
    simple_roots,
)


def w(*coords):
    return tuple(F(c) for c in coords)


def _random_gamma(rng, n):
    kind = rng.choice(["sym", "young", "cyclic"])
    if kind == "sym" or n == 1:
        return parse_gamma(f"S:{n}")
    if kind == "cyclic":
        return parse_gamma(f"C:{n}")
    sizes = []
    left = n
    while left:
        s = rng.randint(1, left)
        sizes.append(str(s))
        left -= s
    return parse_gamma("S:" + ",".join(sizes))


def _random_weight(rng, n):
    return tuple(
        F(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(n)
    )


@pytest.fixture(scope="module")
def random_blocks():
    rng = random.Random(20240907)
    blocks = []
    while len(blocks) < 25:
        n = rng.randint(1, 4)
        gamma = _random_gamma(rng, n)
        lam = _random_weight(rng, n)
        x = classify_X_over(gamma, lam)[0]
        blocks.append((gamma, lam, block_matrices(gamma, x)))
    return blocks


def _transpose(m):
    return [list(r) for r in zip(*m)]


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _symmetric(m):
    return all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(len(m)))


def test_criterion_01_bgg_reciprocity_symmetry(random_blocks):
    trivial_seen = 0
    for gamma, lam, bd in random_blocks:
        F_, D = bd.F, bd.D
        assert bd.C == _matmul(_matmul(_matmul(F_, _transpose(D)), F_), D)
        assert bd.Cprime == _matmul(bd.C, F_)
        assert _symmetric(bd.Cprime)
        if gamma.group().order == 1:
            trivial_seen += 1
            assert bd.C == _matmul(_transpose(D), D)
            assert _symmetric(bd.C)
    # make sure the trivial clause is also exercised explicitly
    for lam in (w(3), w(0, 2), w(1, F(1, 2), 4)):
        gamma = parse_gamma("S:" + ",".join("1" * len(lam)))
        bd = block_matrices(gamma, classify_X_over(gamma, lam)[0])
        assert bd.C == _matmul(_transpose(bd.D), bd.D)
        assert _symmetric(bd.C)
    print("ACCEPTANCE 1: C' = F D^T F D F symmetric on 25 random blocks ... PASS")


_COORD = st.sampled_from([F(c) for c in (-2, -1, 0, 1, 2)] + [F(1, 2), F(-1, 3)])


@st.composite
def _cyclic_blocks(draw):
    """A simple x over a GammaSpec with a C:3 or C:4 block.

    The weight is constant on that block, so the rotations fix it and
    duality moves the simples with a nontrivial rotation character: the
    permutation sigma of block_matrices is not the identity.
    """
    m = draw(st.sampled_from([3, 4]))
    blocks = [(("C", m), [draw(_COORD)] * m)]
    extra = draw(
        st.sampled_from([("1", 1), ("S", (1,)), ("S", (2,)), ("S", (1, 1)), ("C", 2)])
    )
    width = sum(extra[1]) if extra[0] == "S" else extra[1]
    if draw(st.booleans()) and m + width <= 5:
        blocks.append((extra, [draw(_COORD) for _ in range(width)]))
        if draw(st.booleans()):
            blocks.reverse()
    gamma = GammaSpec(tuple(b for b, _ in blocks))
    lam = tuple(c for _, coords in blocks for c in coords)
    simples = classify_X_over(gamma, lam)
    return gamma, simples[draw(st.integers(0, len(simples) - 1))]


@settings(max_examples=40)
@given(_cyclic_blocks())
def test_block_matrices_against_dense_products(case):
    gamma, x = case
    bd = block_matrices(gamma, x)
    F_, D, xs = bd.F, bd.D, bd.order
    assert F_ == [[int(y == duality_F(z)) for z in xs] for y in xs]
    assert any(duality_F(y) != y for y in xs), "sigma must move some simple"
    assert bd.C == _matmul(_matmul(_matmul(F_, _transpose(D)), F_), D)
    assert bd.Cprime == _matmul(bd.C, F_)


def test_criterion_02_worked_block_via_oracle():
    gamma = parse_gamma("S:2")
    xs = classify_X_over(gamma, w(0, 0))
    bd = block_matrices(gamma, xs[0])
    expected_D = [
        [1, 0, 1, 1, 0],
        [0, 1, 1, 0, 1],
        [0, 0, 1, 1, 1],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]
    expected_C = [
        [1, 0, 1, 1, 0],
        [0, 1, 1, 0, 1],
        [1, 1, 3, 2, 2],
        [1, 0, 2, 3, 1],
        [0, 1, 2, 1, 3],
    ]
    assert bd.D == expected_D and bd.C == expected_C
    # independent derivation: truncated modules with the explicit group
    # action on singular vectors, depth 6
    index = {x: i for i, x in enumerate(bd.order)}
    oracle_D = [[0] * 5 for _ in range(5)]
    for i, x in enumerate(bd.order):
        for y, mult in oracle_decompose(gamma, x, depth=6).items():
            oracle_D[i][index[y]] = mult
    assert oracle_D == expected_D
    print("ACCEPTANCE 2: worked 5x5 block equals the truncated-module oracle ... PASS")


def test_criterion_03_restriction_accounting(random_blocks):
    for gamma, lam, bd in random_blocks:
        order = gamma.group().order
        for i, x in enumerate(bd.order):
            flips = sum(
                1 for c in x.orbit_rep if c.denominator == 1 and c >= 0
            )
            total = sum(
                bd.D[i][j]
                * (order // y.stab.order)
                * irrep_dim(y.stab, y.irrep)
                for j, y in enumerate(bd.order)
            )
            assert total == dim_m(gamma, x) * 2**flips
    print("ACCEPTANCE 3: restriction length accounting exact on all blocks ... PASS")


def test_criterion_04_character_identities(random_blocks):
    rng = random.Random(11)
    for gamma, lam, bd in random_blocks[:12]:
        for i, x in enumerate(bd.order):
            lhs = ch_verma_skew(gamma, x)
            rhs = CharacterVB(gamma.n)
            for j, y in enumerate(bd.order):
                if bd.D[i][j]:
                    rhs = rhs + ch_simple_skew(gamma, y).scale(bd.D[i][j])
            assert lhs == rhs  # exact equality of Verma-basis coefficients
            for _ in range(25):  # weight-wise evaluation down to depth 12
                hw = rng.choice(list(lhs.terms))
                drop = [rng.randint(0, 12) for _ in range(gamma.n)]
                while sum(drop) > 12:
                    drop[rng.randrange(gamma.n)] = 0
                nu = tuple(h - 2 * k for h, k in zip(hw, drop))
                assert lhs.evaluate(nu) == rhs.evaluate(nu)
    # tensor factorization: ch of a product simple multiplies
    rng2 = random.Random(12)
    for _ in range(5):
        specs, lams = [], []
        for _ in range(rng2.randint(2, 3)):
            n = rng2.randint(1, 2)
            specs.append(_random_gamma(rng2, n))
            lams.append(_random_weight(rng2, n))
        xs = [classify_X_over(g, l)[0] for g, l in zip(specs, lams)]
        big_gamma = concat_gammas(specs)
        big_x = concat_simplex(specs, xs)
        product_ch = None
        for g, xj in zip(specs, xs):
            chj = ch_simple_skew(g, xj)
            product_ch = chj if product_ch is None else product_ch.concat_product(chj)
        assert ch_simple_skew(big_gamma, big_x) == product_ch
    print("ACCEPTANCE 4: ch Z = D . ch V to depth 12 and ch multiplies ... PASS")


def test_criterion_05_dimension_formula():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 3)
        gamma = _random_gamma(rng, n)
        lam = tuple(F(rng.randint(0, 3)) for _ in range(n))
        for x in classify_X_over(gamma, lam):
            expected = dim_m(gamma, x)
            for c in x.orbit_rep:
                expected *= int(c) + 1
            assert dim_simple_skew(gamma, x) == expected
            # cross-check: full character summation over the weight boxes
            ch = ch_simple_skew(gamma, x)
            points = set()
            for mu in orbit_of(gamma, x.orbit_rep):
                for combo in itertools.product(
                    *(range(int(c) + 1) for c in mu)
                ):
                    points.add(tuple(c - 2 * k for c, k in zip(mu, combo)))
            total = sum(ch.evaluate(nu) for nu in points)
            assert total == expected
    print("ACCEPTANCE 5: dim V(x) = dimM(x) * prod(lam_i + 1) on 20 orbits ... PASS")


def test_criterion_06_functoriality():
    rng = random.Random(14)
    for _ in range(50):
        n = rng.randint(1, 4)
        gamma = _random_gamma(rng, n)
        lam = _random_weight(rng, n)
        gens = gamma.group().generators() or [tuple(range(n))]
        g = rng.choice(gens)
        for m in (1, 2, 3, 4):
            assert {perm_act(g, mu) for mu in s_sets_A(lam, m)} == s_sets_A(
                perm_act(g, lam), m
            )
        split = rng.randint(1, max(1, n - 1)) if n > 1 else 1
        lam1, lam2 = lam[:split], lam[split:]
        if lam1 and lam2:
            for m in (1, 2, 3, 4):
                prod = {
                    a + b for a in s_sets_A(lam1, m) for b in s_sets_A(lam2, m)
                }
                assert s_sets_A(lam, m) == prod
    rng2 = random.Random(15)
    for _ in range(20):
        specs, lams = [], []
        for _ in range(rng2.randint(2, 3)):
            n = rng2.randint(1, 3)
            specs.append(_random_gamma(rng2, n))
            lams.append(_random_weight(rng2, n))
        gamma = concat_gammas(specs)
        _, per_block, _, product = simples_over_four_setups(gamma, lams)
        size = 1
        for p in per_block:
            size *= len(p)
        assert len(product) == size  # equality with the direct list is internal
    print("ACCEPTANCE 6: S-set functoriality and the X product law ... PASS")


def test_criterion_07_s3_s4_and_cover():
    rng = random.Random(16)
    for _ in range(30):
        n = rng.randint(1, 3)
        gamma = _random_gamma(rng, n)
        lam = _random_weight(rng, n)
        x = classify_X_over(gamma, lam)[0]
        s3 = set(s3_skew(gamma, x))
        s4 = set(s4_skew(gamma, x))
        assert s3 <= s4
        assert (s3 == s4) == all(c.denominator == 1 for c in lam)
    half = w(F(1, 2), F(1, 2), F(1, 2))
    third3 = w(F(1, 3), F(1, 3), F(1, 3))
    quarter4 = w(F(1, 4), F(1, 4), F(1, 4), F(1, 4))
    cover_cases = [
        (["1:1", "1:1"], [w(3), w(0)], False),
        (["S:2", "S:2"], [w(0, 0), w(2, 2)], False),
        (["S:2", "1:1"], [w(1, 0), w(F(1, 2))], False),
        (["C:3", "C:3"], [half, half], True),
        (["C:3", "C:3"], [half, third3], True),
        (["C:4", "C:4"], [quarter4, quarter4], True),
        (["C:3", "1:1"], [half, w(2)], True),
        (["S:2", "C:3"], [w(0, 0), half], True),
        (["C:2", "C:2"], [w(F(1, 3), F(1, 3)), w(F(1, 3), F(1, 3))], False),
        (["S:2", "S:2", "1:1"], [w(1, 1), w(0, 0), w(F(1, 2))], False),
    ]
    nonzero_eps_seen = 0
    for spec_texts, lams, cyclic_case in cover_cases:
        specs = [parse_gamma(s) for s in spec_texts]
        gamma = concat_gammas(specs)
        xs = []
        for g, lam in zip(specs, lams):
            options = classify_X_over(g, lam)
            xs.append(options[1] if cyclic_case and len(options) > 1 else options[0])
        report = s3_product_cover(gamma, xs)
        assert report.hypothesis_holds, (spec_texts, lams)
        assert report.equality and report.chain_ok
        zero_part = set(report.cover[tuple([0] * len(specs))])
        if any(
            set(comp) - zero_part
            for eps, comp in report.cover.items()
            if any(eps)
        ):
            nonzero_eps_seen += 1
    assert nonzero_eps_seen >= 2, "cyclic cases must need nonzero eps"
    print("ACCEPTANCE 7: S3 in S4 (equality iff integral); E3 cover on 10 cases ... PASS")


def test_criterion_08_central_characters():
    rng = random.Random(17)
    # multiplicativity on products of the symmetric center generators
    for n in (1, 2, 3):
        alg = Algebra(n)
        gamma = parse_gamma(f"S:{n}")
        ident = tuple(range(n))
        p = [alg.symmetric_center_gen(k) for k in range(1, n + 1)]
        for _ in range(6):
            lam = _random_weight(rng, n)
            vals = [
                central_character_numeric(gamma, lam, pk).get(ident, F(0))
                for pk in p
            ]
            for a in range(n):
                for b in range(n):
                    got = central_character_numeric(gamma, lam, p[a] * p[b])
                    assert got.get(ident, F(0)) == vals[a] * vals[b]
    # equivariance on 50 random (lam, beta, r)
    alg2 = Algebra(2)
    gamma2 = parse_gamma("S:2")
    for _ in range(50):
        lam = (F(rng.randint(-3, 3)), F(rng.randint(-3, 3)))
        beta = rng.choice([(0, 1), (1, 0)])
        r = alg2.zero()
        for _ in range(3):
            t = alg2.gen(rng.choice("efh"), rng.randrange(2)) * F(rng.randint(-2, 2))
            if rng.random() < 0.5:
                t = t * alg2.transposition(0, 1)
            r = r + t
        binv = perm_inverse(beta)
        beta_lam = tuple(lam[binv[i]] for i in range(2))
        lhs = central_character_numeric(gamma2, beta_lam, r)
        rhs = group_algebra_conjugate(
            central_character_numeric(gamma2, lam, gamma_twist(r, binv)), beta
        )
        assert lhs == rhs
    # orbit test and invariant evaluation concur on 100 random pairs
    gammas = [parse_gamma(s) for s in ("S:2", "C:3", "S:2;C:2", "1:2")]
    agree = 0
    for _ in range(100):
        gamma = rng.choice(gammas)
        lam = _random_weight(rng, gamma.n)
        if rng.random() < 0.5:
            mu = tuple(c if rng.random() < 0.5 else -c - 2 for c in lam)
            perm = rng.choice(gamma.group().elements())
            mu = perm_act(perm, mu)
        else:
            mu = _random_weight(rng, gamma.n)
        out = cc_equal(gamma, lam, mu)  # raises on any divergence
        agree += out["equal"]
    assert agree >= 30  # the biased half guarantees plenty of equal pairs
    # rank-1 identity as a formal polynomial
    L = Poly.var("L")
    alg1 = Algebra(1)
    val = central_character(parse_gamma("1:1"), (L,), alg1.casimir(0))
    assert val[(0,)] == L * L * F(1, 2) + L
    print("ACCEPTANCE 8: central characters multiplicative/equivariant/concurring ... PASS")


def test_criterion_09_center_desk_scale():
    gamma = parse_gamma("S:2")
    basis = center_basis_up_to_degree(2, 2, gamma)
    assert len(basis) == 2
    alg = Algebra(2, gamma)
    perms = gamma.group().elements()
    monos = monomial_basis(alg, 2, perms)
    index = {m: i for i, m in enumerate(monos)}

    def vec(elem):
        out = [F(0)] * len(monos)
        for mono, coef in elem.terms.items():
            out[index[mono]] = coef.constant_value()
        return out

    ident = (0, 1)
    for b in basis:
        assert all(perm == ident for (_, perm) in b.terms)
    rows = [vec(b) for b in basis]
    assert in_row_space(rows, vec(alg.one()))
    assert in_row_space(rows, vec(alg.casimir(0) + alg.casimir(1)))
    assert not in_row_space(rows, vec(alg.casimir(0)))
    print("ACCEPTANCE 9: center at (n=2, d<=2) = span{1, Om1+Om2}, inside A ... PASS")


def test_criterion_10_appendix_no_go():
    for n in (2, 3):
        for coeffs in ([], [Poly.var("t0"), Poly.var("t1")]):
            report = verify_no_go(DeformationSpec(n=n, f_coeffs=coeffs))
            assert report["solution_space_dim"] == 0
            assert set(report["forced_zero"]) == {"c", "d", "u", "v", "w"}
    # the single-monomial implication: coefficient of s_{ik} f_i e_i^2
    spec = DeformationSpec(n=2, f_coeffs=[])
    ob = obstruction_ek(spec, 0)
    parts = ob.coefficient(witness_monomial(spec, i=1, k=0)).linear_parts()
    assert set(parts) == {"c"} and parts["c"] != 0
    print("ACCEPTANCE 10: deformation space is exactly zero (n = 2, 3) ... PASS")


def test_criterion_11_oracles():
    # Kostant vs bounded-exponent enumeration, rank <= 3, coordinates <= 20
    # (the oracle sweeps all exponent tuples once and tabulates)
    rank3 = [tuple(int(c) for c in r) for r in simple_roots(3)] + [(2, 2, 0)]
    for roots in ([(2,)], [(2, 0), (0, 2), (2, 2)], rank3):
        n = len(roots[0])
        bound = 10
        table = {}
        for combo in itertools.product(range(bound + 1), repeat=len(roots)):
            theta = tuple(
                sum(c * r[k] for c, r in zip(combo, roots)) for k in range(n)
            )
            if all(t <= 20 for t in theta):
                table[theta] = table.get(theta, 0) + 1
        step = 1 if n <= 2 else 2
        grid = itertools.product(range(0, 21, step), repeat=n)
        for theta in grid:
            expected = table.get(theta, 0)
            assert kostant_p(tuple(F(t) for t in theta), [w(*r) for r in roots]) == expected
    # Murnaghan-Nakayama vs brute-force Specht traces, n <= 4
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert char_value(lam, mu) == specht_character(
                    lam, cycle_type_rep(mu, n)
                )
    # rank-1 composition series vs the truncated singular-vector oracle
    values = [F(k) for k in range(-6, 7)]
    values += [F(k, 2) for k in range(-11, 12, 2)]
    for lam in values:
        assert verma_factors_sl2(lam) == truncated_sl2_factors(lam, depth=10)
    print("ACCEPTANCE 11: all three oracles agree exactly ... PASS")
