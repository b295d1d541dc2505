"""Seeded invariant suites runnable from the CLI.

Each check is fast and exact; the heavy independent oracles (truncated
modules, brute-force traces) live in the test suite instead.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .clifford import classify_X_over, duality_F
from .pbw import (
    Algebra,
    anti_involution,
    cc_equal,
    central_character_numeric,
)
from .skew_o import (
    block_matrices,
    ch_simple_skew,
    ch_verma_skew,
    s3_skew,
    s4_skew,
    verma_decompose_skew,
)
from .symchars import char_table, dim_irrep, partitions_of
from .weights import (
    GammaSpec,
    InternalConsistencyError,
    flip_subset,
    gamma_cells,
    kostant_p,
    leq,
    orbit_of,
    parse_gamma,
    perm_act,
    stabilizer,
)


def _require(ok: bool) -> None:
    """Fail a check by an explicit raise, which python -O keeps."""
    if not ok:
        raise InternalConsistencyError("the checked identity does not hold")


def _random_weight(rng: random.Random, n: int):
    coords = []
    for _ in range(n):
        num = rng.randint(-4, 4)
        den = 1
        if rng.random() < 0.4:
            den = rng.choice([2, 3])
        coords.append(Fraction(num, den))
    return tuple(coords)


def _random_gamma(rng: random.Random, n: int) -> GammaSpec:
    blocks = []
    left = n
    while left:
        width = rng.randint(1, min(4, left))
        kind = rng.choice(["S", "C", "1"])
        if kind == "S":
            sizes = []
            w = width
            while w:
                s = rng.randint(1, w)
                sizes.append(s)
                w -= s
            blocks.append(("S", tuple(sizes)))
        else:
            blocks.append((kind, width))
        left -= width
    return GammaSpec(tuple(blocks))


def run_selftest(seed: int = 20240901) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    results = []

    def check(name: str, fn):
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    def order_preserved():
        for _ in range(30):
            n = rng.randint(1, 4)
            gamma = _random_gamma(rng, n)
            mu = _random_weight(rng, n)
            delta = tuple(2 * rng.randint(0, 2) for _ in range(n))
            lam = tuple(m + d for m, d in zip(mu, delta))
            _require(leq(mu, lam))
            for g in gamma.group().generators() or [tuple(range(n))]:
                _require(leq(perm_act(g, mu), perm_act(g, lam)))

    def flips_commute_with_gamma():
        for _ in range(40):
            n = rng.randint(1, 4)
            gamma = _random_gamma(rng, n)
            lam = _random_weight(rng, n)
            t = {i for i in range(n) if rng.random() < 0.5}
            for g in gamma.group().generators():
                _require(
                    perm_act(g, flip_subset(lam, t))
                    == flip_subset(perm_act(g, lam), {g[i] for i in t})
                )

    def orbit_stabilizer_count():
        for _ in range(25):
            n = rng.randint(1, 5)
            gamma = _random_gamma(rng, n)
            lam = _random_weight(rng, n)
            orbit_size = len(orbit_of(gamma, lam))
            _require(orbit_size * stabilizer(gamma, lam).order == gamma.group().order)

    def kostant_small():
        roots = [(2, 0), (0, 2), (2, 2)]
        for a in range(0, 9, 2):
            for b in range(0, 9, 2):
                theta = (Fraction(a), Fraction(b))
                count = 0
                for n1 in range(5):
                    for n2 in range(5):
                        for n3 in range(5):
                            if (
                                2 * n1 + 2 * n3 == a
                                and 2 * n2 + 2 * n3 == b
                            ):
                                count += 1
                _require(kostant_p(theta, roots) == count)

    def char_orthogonality():
        for n in range(2, 6):
            char_table(n).validate()
            squares = sum(dim_irrep(p) ** 2 for p in partitions_of(n))
            _require(squares == math.factorial(n))

    def duality_involution():
        for _ in range(25):
            n = rng.randint(1, 4)
            gamma = _random_gamma(rng, n)
            for x in classify_X_over(gamma, _random_weight(rng, n)):
                _require(duality_F(duality_F(x)) == x)
                _require(duality_F(x).orbit_rep == x.orbit_rep)

    def blocks_symmetric():
        for _ in range(6):
            n = rng.randint(1, 3)
            gamma = _random_gamma(rng, n)
            lam = _random_weight(rng, n)
            x = classify_X_over(gamma, lam)[0]
            bd = block_matrices(gamma, x)  # raises if C' is not symmetric
            k = len(bd.order)
            for i in range(k):
                _require(bd.D[i][i] == 1)
                _require(all(bd.D[i][j] == 0 for j in range(i)))

    def s_set_nesting():
        for _ in range(10):
            n = rng.randint(1, 3)
            gamma = _random_gamma(rng, n)
            lam = _random_weight(rng, n)
            x = classify_X_over(gamma, lam)[0]
            s3 = set(s3_skew(gamma, x))
            s4 = set(s4_skew(gamma, x))
            _require(s3 <= s4)
            integral = all(c.denominator == 1 for c in lam)
            _require((s3 == s4) == integral)

    def character_identity():
        for _ in range(5):
            n = rng.randint(1, 2)
            gamma = _random_gamma(rng, n)
            lam = _random_weight(rng, n)
            x = classify_X_over(gamma, lam)[0]
            lhs = ch_verma_skew(gamma, x)
            rhs = None
            for y, mult in verma_decompose_skew(gamma, x).items():
                term = ch_simple_skew(gamma, y).scale(mult)
                rhs = term if rhs is None else rhs + term
            _require(lhs == rhs)

    def pbw_assoc():
        alg = Algebra(2)
        for _ in range(30):
            elems = []
            for _ in range(3):
                t = alg.one()
                for _ in range(rng.randint(1, 3)):
                    kind = rng.choice("efh")
                    t = t * alg.gen(kind, rng.randrange(2))
                elems.append(t * Fraction(rng.randint(-3, 3)))
            a, b, c = elems
            _require((a * b) * c == a * (b * c))

    def involution_props():
        alg = Algebra(2)
        s = alg.transposition(0, 1)
        for _ in range(20):
            a = alg.one()
            b = alg.one()
            for _ in range(3):
                a = a * alg.gen(rng.choice("efh"), rng.randrange(2))
                b = b * alg.gen(rng.choice("efh"), rng.randrange(2))
            if rng.random() < 0.5:
                a = a * s
            _require(anti_involution(anti_involution(a)) == a)
            _require(anti_involution(a * b) == anti_involution(b) * anti_involution(a))

    def central_char_props():
        gamma = parse_gamma("S:2")
        alg = Algebra(2)
        p1 = alg.symmetric_center_gen(1)
        p2 = alg.symmetric_center_gen(2)
        idp = (0, 1)
        for _ in range(10):
            lam = _random_weight(rng, 2)
            c1 = central_character_numeric(gamma, lam, p1).get(idp, Fraction(0))
            c2 = central_character_numeric(gamma, lam, p2).get(idp, Fraction(0))
            c12 = central_character_numeric(gamma, lam, p1 * p2).get(idp, Fraction(0))
            _require(c12 == c1 * c2)
        for _ in range(20):
            lam = _random_weight(rng, 2)
            mu = _random_weight(rng, 2)
            cc_equal(gamma, lam, mu)  # raises if the two methods disagree

    def block_product_law():
        # over several cells the block is a Kronecker product of cell
        # blocks; each of its D rows must still be the Verma decomposition
        for _ in range(4):
            gamma = _random_gamma(rng, rng.randint(2, 3))
            while len(gamma_cells(gamma)) < 2:
                gamma = _random_gamma(rng, rng.randint(2, 3))
            x = classify_X_over(gamma, _random_weight(rng, gamma.n))[0]
            bd = block_matrices(gamma, x)
            for y, row in zip(bd.order, bd.D):
                found = {z: m for z, m in zip(bd.order, row) if m}
                _require(found == verma_decompose_skew(gamma, y))

    check("gamma preserves the order", order_preserved)
    check("flips commute with Gamma", flips_commute_with_gamma)
    check("orbit x stabilizer = |Gamma|", orbit_stabilizer_count)
    check("kostant matches enumeration", kostant_small)
    check("character tables orthogonal", char_orthogonality)
    check("duality is an involution", duality_involution)
    check("blocks unitriangular, C' symmetric", blocks_symmetric)
    check("S3 inside S4, equality iff integral", s_set_nesting)
    check("ch Z = sum D ch V", character_identity)
    check("pbw multiplication associative", pbw_assoc)
    check("anti-involution properties", involution_props)
    check("central characters multiplicative and dual-tested", central_char_props)
    check("block D rows of a product are Verma decompositions", block_product_law)
    return results
