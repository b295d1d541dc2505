"""Category O over the skew group ring: Verma composition multiplicities,
linkage sets, block matrices with reciprocity, and characters.

The decomposition algorithm works layer by layer.  Maximal vectors of the
Verma over a simple x = (orbit of lam, stab, N) sit at flip levels: for each
stab-orbit [T] of subsets T of I(lam) = {i : lam_i in Z>=0}, the vectors
obtained by applying prod_{i in T} f_i^{lam_i+1} to the top span a copy of
Ind_{stab_T}^{Gamma} (Res N), graded over the orbit of the flipped weight.
The group permutes these monomial vectors with no character twist (they are
plain monomials in commuting tensor factors), so the multiplicity of
x' = (orbit of flip_T(lam), N') is the exact integer
<Ind_{stab_T}^{Stab(flip_T(lam))} Res N, N'>.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cato_a import CharacterVB, ch_simple_A, is_weight_sl2, length_Z_A, s_sets_A
from .clifford import (
    CObject,
    SimpleX,
    classify_X_over,
    concat_simplex,
    concat_weights,
    dim_m,
    duality_F,
    orbit_size,
    transport_irrep,
    validate_simplex,
)
from .symchars import irrep_dim, list_irreps, restricted_inner_product
from .weights import (
    CycF,
    GammaSpec,
    GroupDesc,
    InternalConsistencyError,
    SymF,
    Weight,
    canonical_orbit_rep,
    flip_subset,
    group_desc,
    integral_flip_positions,
    is_dominant_integral,
    leq,
    orbit_of,
    stabilizer,
)


# ---------------------------------------------------------------------------
# the partial order on simples


def partial_order_X(gamma: GammaSpec, x1: SimpleX, x2: SimpleX) -> str:
    """Compare two simples: "less", "greater", "equal" or "incomparable".

    x < x' when some orbit members satisfy a strict coordinate relation;
    distinct simples over one orbit are order-ties and compare incomparable.
    """
    if x1 == x2:
        return "equal"
    orb1 = orbit_of(gamma, x1.orbit_rep)
    orb2 = orbit_of(gamma, x2.orbit_rep)
    if any(leq(a, b) and a != b for a in orb1 for b in orb2):
        return "less"
    if any(leq(b, a) and a != b for a in orb1 for b in orb2):
        return "greater"
    return "incomparable"


def _block_sort_key(gamma: GammaSpec):
    """Sort key realizing "x_i >= x_j implies i <= j".

    Coordinate sums strictly decrease along the strict order and are
    orbit-invariant, so descending sum is a valid linear extension; ties
    break by the canonical SimpleX key.
    """

    def key(x: SimpleX):
        total = sum(x.orbit_rep, Fraction(0))
        return (-total, x.sort_key())

    return key


# ---------------------------------------------------------------------------
# flip layers and Verma decomposition


def _flip_layer_choices(gamma: GammaSpec, lam: Weight, stab: GroupDesc):
    """Orbit representatives of subsets T of I(lam) under the stabilizer.

    Yields (T, stab_T) with T a canonical representative and stab_T the
    stabilizer of T inside `stab`, again structural.  Positions of I(lam)
    not moved by `stab` contribute free binary choices.
    """
    flips = set(integral_flip_positions(lam))
    covered = set()
    per_factor = []
    for f in stab.factors:
        pos = list(f.positions)
        covered.update(pos)
        if isinstance(f, SymF):
            in_i = flips.issuperset(pos)
            choices = []
            if in_i:
                size = len(pos)
                for t in range(size + 1):
                    chosen = tuple(pos[:t])
                    subfactors = []
                    if t >= 2:
                        subfactors.append(SymF(tuple(pos[:t])))
                    if size - t >= 2:
                        subfactors.append(SymF(tuple(pos[t:])))
                    choices.append((chosen, subfactors))
            else:
                choices = [((), [SymF(tuple(pos))])]
            per_factor.append(choices)
        else:
            block_flips = [p for p in pos if p in flips]
            choices = []
            seen = set()
            for mask in itertools.product((0, 1), repeat=len(block_flips)):
                subset = frozenset(
                    p for p, bit in zip(block_flips, mask) if bit
                )
                canon = _canonical_cyclic_subset(f, subset)
                if canon in seen:
                    continue
                seen.add(canon)
                stab_order = _cyclic_subset_stab_order(f, subset)
                sub = [CycF(f.positions, stab_order)] if stab_order >= 2 else []
                choices.append((tuple(sorted(subset)), sub))
            per_factor.append(choices)
    free = sorted(flips - covered)
    free_choices = [
        (tuple(chosen), [])
        for r in range(len(free) + 1)
        for chosen in itertools.combinations(free, r)
    ]
    per_factor.append(free_choices)
    for combo in itertools.product(*per_factor):
        t_set = set()
        factors = []
        for chosen, subfactors in combo:
            t_set.update(chosen)
            factors.extend(subfactors)
        yield frozenset(t_set), group_desc(gamma.n, factors)


def _canonical_cyclic_subset(f: CycF, subset: frozenset) -> tuple:
    m = len(f.positions)
    index = {p: t for t, p in enumerate(f.positions)}
    marks = frozenset(index[p] for p in subset)
    best = None
    for r in range(f.order):
        shift = r * f.step
        image = tuple(sorted((t + shift) % m for t in marks))
        if best is None or image < best:
            best = image
    return best


def _cyclic_subset_stab_order(f: CycF, subset: frozenset) -> int:
    m = len(f.positions)
    index = {p: t for t, p in enumerate(f.positions)}
    marks = frozenset(index[p] for p in subset)
    count = 0
    for r in range(f.order):
        shift = r * f.step
        if frozenset((t + shift) % m for t in marks) == marks:
            count += 1
    return count


def verma_decompose_skew(gamma: GammaSpec, x: SimpleX) -> CObject:
    """Composition multiplicities [Z(x) : V(x')] via the flip-layer count.

    The built-in restriction check equates the total restricted length with
    dimM(x) * length of the plain Verma; a mismatch raises.  Each call
    returns a fresh CObject, so callers may mutate it.
    """
    return CObject(dict(_verma_decompose_terms(gamma, x)))


@lru_cache(maxsize=None)
def _verma_decompose_terms(gamma: GammaSpec, x: SimpleX) -> tuple:
    validate_simplex(gamma, x)
    lam = x.orbit_rep
    out = CObject()
    for t_set, stab_t in _flip_layer_choices(gamma, lam, x.stab):
        nu = flip_subset(lam, t_set)
        stab_nu = stabilizer(gamma, nu)
        for n_prime in list_irreps(stab_nu):
            mult = restricted_inner_product(
                stab_t, x.stab, x.irrep, stab_nu, n_prime
            )
            if mult:
                out.add(transport_irrep(gamma, nu, stab_nu, n_prime), mult)
    expected = dim_m(gamma, x) * length_Z_A(lam)
    actual = sum(
        m * orbit_size(gamma, y) * irrep_dim(y.stab, y.irrep)
        for y, m in out.terms.items()
    )
    if actual != expected:
        raise InternalConsistencyError(
            f"restricted length {actual} != {expected} for {x}"
        )
    return tuple(out.terms.items())


# ---------------------------------------------------------------------------
# linkage sets


def _saturated_simples(gamma: GammaSpec, x: SimpleX, m: int) -> list[SimpleX]:
    """All simples over the Gamma-saturation of the plain S^m set of x."""
    reps = {canonical_orbit_rep(gamma, mu) for mu in s_sets_A(x.orbit_rep, m)}
    out = [y for rep in sorted(reps) for y in classify_X_over(gamma, rep)]
    out.sort(key=SimpleX.sort_key)
    return out


def s3_skew(gamma: GammaSpec, x: SimpleX) -> list[SimpleX]:
    """All simples over the Gamma-saturation of the plain S^3 set.

    This is the union of the linkage classes of the simples over the weight
    orbit; block matrices are computed over it (they decompose into the
    strict classes, see s3_component).
    """
    return _saturated_simples(gamma, x, 3)


def s4_skew(gamma: GammaSpec, x: SimpleX) -> list[SimpleX]:
    """Central character twins: all simples over the saturated dot orbit."""
    return _saturated_simples(gamma, x, 4)


def _closure(gamma: GammaSpec, x: SimpleX, with_duality: bool) -> set[SimpleX]:
    universe = s3_skew(gamma, x)
    decomps = {y: verma_decompose_skew(gamma, y) for y in universe}
    adjacency: dict[SimpleX, set[SimpleX]] = {y: set() for y in universe}
    for y, dec in decomps.items():
        for z in dec.terms:
            if z != y:
                adjacency[y].add(z)
                adjacency[z].add(y)
    if with_duality:
        for y in universe:
            adjacency[y].add(duality_F(y))
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for z in adjacency[y]:
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return seen


def s3_component(gamma: GammaSpec, x: SimpleX) -> list[SimpleX]:
    """The strict linkage class: equivalence closure of x under the Verma
    subquotient relation and duality."""
    return sorted(_closure(gamma, x, True), key=SimpleX.sort_key)


def s_prime_component(gamma: GammaSpec, x: SimpleX) -> list[SimpleX]:
    """Closure under the subquotient relation only (no duality edges)."""
    return sorted(_closure(gamma, x, False), key=SimpleX.sort_key)


# ---------------------------------------------------------------------------
# block matrices


@dataclass
class BlockData:
    gamma: GammaSpec
    order: list  # SimpleX, sorted highest first
    D: list  # decomposition matrix [Z(x_i) : V(x_j)]
    F: list  # duality permutation matrix
    C: list  # Cartan matrix F D^T F D
    Cprime: list  # modified Cartan matrix C F; always symmetric

    def to_json(self) -> dict:
        from .clifford import simplex_to_json

        return {
            "gamma": str(self.gamma),
            "order": [simplex_to_json(self.gamma, x) for x in self.order],
            "D": self.D,
            "F": self.F,
            "C": self.C,
            "Cprime": self.Cprime,
            "symmetric_Cprime": _is_symmetric(self.Cprime),
        }

    def to_dot(self) -> str:
        """Linkage graph: solid edges for subquotients, dashed for duality."""
        lines = ["digraph block {"]
        for i, x in enumerate(self.order):
            lines.append(f'  n{i} [label="{x!r}"];')
        for i in range(len(self.order)):
            for j in range(len(self.order)):
                if i != j and self.D[i][j]:
                    lines.append(f"  n{i} -> n{j};")
        for j, x in enumerate(self.order):
            i = self.order.index(duality_F(x))
            if i < j:
                lines.append(f"  n{i} -> n{j} [style=dashed, dir=none];")
        lines.append("}")
        return "\n".join(lines)


def _is_symmetric(a) -> bool:
    return all(
        a[i][j] == a[j][i] for i in range(len(a)) for j in range(len(a))
    )


def block_matrices(gamma: GammaSpec, x: SimpleX) -> BlockData:
    """D, F, C, C' over the linkage set of x, sorted highest first.

    Duality permutes the simples: F is the matrix of the involution sigma
    with F[sigma(j)][j] = 1.  So reciprocity C = F D^T F D reads
    C[i][j] = sum_r D[r][sigma(i)] D[sigma(r)][j], a sum over the nonzero
    entries of D, and C' = C F is the column permutation
    C'[i][j] = C[i][sigma(j)].  D must be unitriangular, sigma an involution
    and C' exactly symmetric; otherwise an InternalConsistencyError is raised.
    """
    xs = sorted(s3_skew(gamma, x), key=_block_sort_key(gamma))
    index = {y: i for i, y in enumerate(xs)}
    k = len(xs)
    D = [[0] * k for _ in range(k)]
    for i, y in enumerate(xs):
        for z, mult in verma_decompose_skew(gamma, y).terms.items():
            D[i][index[z]] = mult
    for i in range(k):
        if D[i][i] != 1:
            raise InternalConsistencyError("D must be unitriangular")
        for j in range(i):
            if D[i][j]:
                raise InternalConsistencyError("D must vanish below the diagonal")
    sigma = [index[duality_F(y)] for y in xs]
    if any(sigma[s] != i for i, s in enumerate(sigma)):
        raise InternalConsistencyError(f"duality is not an involution for {x}")
    F = [[1 if j == s else 0 for j in range(k)] for s in sigma]
    support = [[(j, v) for j, v in enumerate(row) if v] for row in D]
    C = [[0] * k for _ in range(k)]
    for r, row in enumerate(support):
        for c, v in row:
            target = C[sigma[c]]
            for j, u in support[sigma[r]]:
                target[j] += v * u
    Cprime = [[row[s] for s in sigma] for row in C]
    if not _is_symmetric(Cprime):
        raise InternalConsistencyError(f"C' not symmetric for {x}")
    return BlockData(gamma, xs, D, F, C, Cprime)


# ---------------------------------------------------------------------------
# characters and dimensions


def ch_verma_skew(gamma: GammaSpec, x: SimpleX) -> CharacterVB:
    """ch Z(x): plain Verma characters over the orbit, dim(irrep) each."""
    mult = irrep_dim(x.stab, x.irrep)
    return CharacterVB(gamma.n, {mu: mult for mu in orbit_of(gamma, x.orbit_rep)})


def ch_simple_skew(gamma: GammaSpec, x: SimpleX) -> CharacterVB:
    """ch V(x) = dim(irrep) * sum over the orbit of the simple characters
    of the plain algebra (every orbit point has weight multiplicity
    dim(irrep))."""
    mult = irrep_dim(x.stab, x.irrep)
    terms: dict[Weight, int] = {}
    for mu in orbit_of(gamma, x.orbit_rep):
        for hw, coef in ch_simple_A(mu).terms.items():
            terms[hw] = terms.get(hw, 0) + mult * coef
    return CharacterVB(gamma.n, terms)


def weight_dims_skew(gamma: GammaSpec, x: SimpleX, module: str, depth: int):
    """The character of V(x) (module "V") or Z(x) ("Z") and its nonzero
    weight spaces among the weights hw - 2k, hw in the character's Verma
    support, k >= 0 with sum(k) <= depth.

    The plain simple factorizes, ch L_A(mu) = prod_i ch L(mu_i), so
    dim V(x)_nu = dim(irrep) * #{mu in orbit : each nu_i is a weight of
    L(mu_i)}, and likewise for Z(x) with the rank-1 Vermas.  Per
    coordinate, each candidate value maps to the bitmask of the orbit
    points whose rank-1 factor has it as a weight; a weight's count is the
    popcount of the AND of its masks, and a zero prefix prunes the
    descent.  Returns (character, rows), rows [(nu, dim)] sorted by
    descending coordinate sum, then nu.
    """
    if module not in ("V", "Z"):
        raise ValueError(f"module must be V or Z, not {module!r}")
    simple = module == "V"
    character = ch_simple_skew(gamma, x) if simple else ch_verma_skew(gamma, x)
    orbit = orbit_of(gamma, x.orbit_rep)
    support = character.support()
    n = gamma.n
    values, masks, steps = [], [], []
    for i in range(n):
        tops = {hw[i] for hw in support}
        vals = sorted({c - 2 * k for c in tops for k in range(depth + 1)})
        index = {v: t for t, v in enumerate(vals)}
        orbit_bits: dict[Fraction, int] = {}
        for j, mu in enumerate(orbit):
            orbit_bits[mu[i]] = orbit_bits.get(mu[i], 0) | 1 << j
        table = []
        for v in vals:
            mask = 0
            for c, bits in orbit_bits.items():
                if is_weight_sl2(v, c, simple):
                    mask |= bits
            table.append(mask)
        values.append(vals)
        masks.append(table)
        steps.append({c: [index[c - 2 * k] for k in range(depth + 1)] for c in tops})

    found: dict[tuple, int] = {}

    def descend(hw, i, left, mask, key):
        if not mask:
            return
        if i == n:
            found[key] = mask
            return
        table = masks[i]
        for k, t in enumerate(steps[i][hw[i]][: left + 1]):
            descend(hw, i + 1, left - k, mask & table[t], key + (t,))

    everyone = (1 << len(orbit)) - 1
    for hw in support:
        descend(hw, 0, depth, everyone, ())
    mult = irrep_dim(x.stab, x.irrep)
    rows = [
        (tuple(values[i][t] for i, t in enumerate(key)), mult * mask.bit_count())
        for key, mask in found.items()
    ]
    rows.sort(key=lambda r: (-sum(r[0]), r[0]))
    return character, rows


def dim_simple_skew(gamma: GammaSpec, x: SimpleX):
    """dimM(x) * prod(lam_i + 1) on dominant integral orbits, else None."""
    if not is_dominant_integral(x.orbit_rep):
        return None
    d = dim_m(gamma, x)
    for c in x.orbit_rep:
        d *= int(c) + 1
    return d


# ---------------------------------------------------------------------------
# products of blocks


def split_by_blocks(gamma: GammaSpec):
    """One single-block GammaSpec per block, with its coordinate span."""
    out = []
    for (kind, data), span in zip(gamma.blocks, gamma.block_spans()):
        out.append((GammaSpec(((kind, data),)), span))
    return out


def simples_over_four_setups(gamma: GammaSpec, lams: list[Weight]):
    """The four answers over per-block weights: the weights themselves, the
    per-block simple lists, the concatenated weight, and the product simple
    list (verified against direct classification of the concatenation)."""
    blocks = split_by_blocks(gamma)
    if len(lams) != len(blocks):
        raise ValueError("one weight per block required")
    per_block_gammas = []
    per_block_simples = []
    for (g, span), lam in zip(blocks, lams):
        if len(lam) != span[1] - span[0]:
            raise ValueError("weight width does not match block")
        per_block_gammas.append(g)
        per_block_simples.append(classify_X_over(g, lam))
    big_weight = concat_weights(lams)
    product_list = [
        concat_simplex(per_block_gammas, list(combo))
        for combo in itertools.product(*per_block_simples)
    ]
    product_list.sort(key=SimpleX.sort_key)
    direct = classify_X_over(gamma, big_weight)
    if product_list != direct:
        raise InternalConsistencyError("X product law failed")
    return lams, per_block_simples, big_weight, product_list


def _apply_f_eps(gamma: GammaSpec, x: SimpleX, eps: tuple) -> SimpleX:
    """Blockwise duality twist F^eps on a simple over the concatenation."""
    spans = gamma.block_spans()
    labels = []
    for f, label in zip(x.stab.factors, x.irrep):
        block = next(
            b for b, (lo, hi) in enumerate(spans) if lo <= f.positions[0] < hi
        )
        if eps[block] and isinstance(f, CycF):
            labels.append((-label) % f.order)
        else:
            labels.append(label)
    return SimpleX(x.orbit_rep, x.stab, tuple(labels))


@dataclass
class CoverReport:
    hypothesis_holds: bool
    product_set: list  # prod_j S^3_j(x_j), as simples over the concatenation
    union_set: list
    cover: dict  # eps -> component (only when the hypothesis holds)
    chain_ok: bool  # S'(x) in prod S'_j in S^3(x) in prod S^3_j
    equality: bool

    def to_json(self) -> dict:
        return {
            "hypothesis_holds": self.hypothesis_holds,
            "equality": self.equality,
            "chain_ok": self.chain_ok,
            "product_size": len(self.product_set),
            "union_size": len(self.union_set),
            "cover_sizes": {str(k): len(v) for k, v in self.cover.items()},
        }


def s3_product_cover(gamma: GammaSpec, xs: list[SimpleX]) -> CoverReport:
    """Verify the duality cover: the product of per-block linkage classes is
    the union of the classes of the blockwise duality twists of x.

    Requires the hypothesis F(S'_j(x_j)) = S'_j(F(x_j)) per block; when it
    fails the report says so instead of reporting an equality failure.
    """
    blocks = split_by_blocks(gamma)
    gammas = [g for g, _ in blocks]
    if len(xs) != len(gammas):
        raise ValueError("one simple per block required")
    for g, xj in zip(gammas, xs):
        validate_simplex(g, xj)
    hypothesis = True
    for g, xj in zip(gammas, xs):
        for y in classify_X_over(g, xj.orbit_rep):
            lhs = {duality_F(z) for z in s_prime_component(g, y)}
            rhs = set(s_prime_component(g, duality_F(y)))
            if lhs != rhs:
                hypothesis = False
    per_block_s3 = [s3_component(g, xj) for g, xj in zip(gammas, xs)]
    product_set = sorted(
        (
            concat_simplex(gammas, list(combo))
            for combo in itertools.product(*per_block_s3)
        ),
        key=SimpleX.sort_key,
    )
    big_x = concat_simplex(gammas, xs)
    n_blocks = len(gammas)
    cover = {}
    union: set[SimpleX] = set()
    for eps in itertools.product((0, 1), repeat=n_blocks):
        if eps and eps[0] == 1:
            continue  # quotient by the diagonal flip
        twisted = _apply_f_eps(gamma, big_x, eps)
        comp = s3_component(gamma, twisted)
        cover[eps] = comp
        union.update(comp)
    union_sorted = sorted(union, key=SimpleX.sort_key)
    s_prime_big = set(s_prime_component(gamma, big_x))
    per_block_sprime = [
        s_prime_component(g, xj) for g, xj in zip(gammas, xs)
    ]
    prod_sprime = {
        concat_simplex(gammas, list(combo))
        for combo in itertools.product(*per_block_sprime)
    }
    s3_big = set(s3_component(gamma, big_x))
    chain_ok = (
        s_prime_big <= prod_sprime
        and prod_sprime <= s3_big
        and s3_big <= set(product_set)
    )
    equality = hypothesis and union_sorted == product_set
    return CoverReport(
        hypothesis_holds=hypothesis,
        product_set=product_set,
        union_set=union_sorted,
        cover=cover if hypothesis else {},
        chain_ok=chain_ok,
        equality=equality,
    )
