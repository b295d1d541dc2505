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
<Ind_{stab_T}^{Stab(flip_T(lam))} Res N, N'>: each layer is one
clifford.decompose_induced.

A block depends only on the weight orbit, so it is built once per
(Gamma, canonical orbit rep) and every reader shares it: block_matrices
copies its matrices, and s3_component and s_prime_component read the
connected components of its graph.  Over one cell of Gamma (a Young
factor, a cyclic block or a trivial block) the rows of D are the Verma
decompositions above.  Gamma is the product of its cells' groups, so the
skew ring is the tensor product of the cells' skew rings, and over
several cells the block is the product of the cell blocks: D is their
Kronecker product, D[(i_1..i_m), (j_1..j_m)] = prod_c D_c[i_c][j_c], with
the simples matched by concat_simplex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import lcm
from types import MappingProxyType

from .cato_a import (
    CharacterVB,
    ch_simple_A,
    dim_simple_A,
    is_weight_sl2,
    length_Z_A,
    s_sets_A,
)
from .clifford import (
    SimpleX,
    classify_X_over,
    concat_simplex,
    decompose_induced,
    dim_m,
    duality_F,
    simplex_to_json,
    validate_simplex,
)
from .symchars import irrep_dim
from .weights import (
    GammaSpec,
    InternalConsistencyError,
    Weight,
    canonical_orbit_rep,
    flip_subset,
    format_weight,
    integral_flip_positions,
    leq,
    orbit_of,
    split_by_blocks,
    split_by_cells,
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


def _block_sort_key(x: SimpleX):
    """Sort key realizing "x_i >= x_j implies i <= j".

    Coordinate sums strictly decrease along the strict order and are
    orbit-invariant, so descending sum is a valid linear extension; ties
    break by the canonical SimpleX key.
    """
    return (-sum(x.orbit_rep), x.sort_key())


# ---------------------------------------------------------------------------
# flip layers and Verma decomposition


def _flip_layer_choices(gamma: GammaSpec, lam: Weight):
    """Stab(lam)-orbit representatives T of subsets of I(lam), with stab_T.

    Each T is encoded as a marked weight: coordinate i gets 2 * rank(lam_i)
    among the distinct values of lam, plus 1 when i is in T.  An element of
    Gamma that maps one marked weight to another preserves the ranks, so it
    fixes lam and maps T to T'.  Hence the canonical orbit representative
    of the marked weight names the Stab(lam)-orbit of T, and the stabilizer
    of the marked weight is stab_T = {g in Stab(lam) : g(T) = T}, again
    structural.  Yields (T, stab_T), the first T of each orbit.
    """
    rank = {c: r for r, c in enumerate(sorted(set(lam)))}
    base = [2 * rank[c] for c in lam]
    flips = integral_flip_positions(lam)
    seen = set()
    for size in range(len(flips) + 1):
        for t_set in itertools.combinations(flips, size):
            marked = list(base)
            for i in t_set:
                marked[i] += 1
            marked = tuple(marked)
            key = canonical_orbit_rep(gamma, marked)
            if key not in seen:
                seen.add(key)
                yield frozenset(t_set), stabilizer(gamma, marked)


def verma_decompose_skew(gamma: GammaSpec, x: SimpleX) -> dict[SimpleX, int]:
    """Composition multiplicities [Z(x) : V(x')] via the flip-layer count,
    as {x': multiplicity} with nonzero multiplicities only.

    The built-in restriction check equates the total restricted length with
    dimM(x) * length of the plain Verma; a mismatch raises.  Each call
    returns a fresh dict, so callers may mutate it.
    """
    validate_simplex(gamma, x)
    lam = x.orbit_rep
    out: dict[SimpleX, int] = {}
    for t_set, stab_t in _flip_layer_choices(gamma, lam):
        nu = flip_subset(lam, t_set)
        for y, mult in decompose_induced(gamma, nu, stab_t, x.stab, x.irrep).items():
            out[y] = out.get(y, 0) + mult
    expected = dim_m(gamma, x) * length_Z_A(lam)
    actual = sum(m * dim_m(gamma, y) for y, m in out.items())
    if actual != expected:
        raise InternalConsistencyError(
            f"restricted length {actual} != {expected} for {x}"
        )
    return out


# ---------------------------------------------------------------------------
# linkage sets


def _saturated_simples(gamma: GammaSpec, lam: Weight, m: int) -> list[SimpleX]:
    """All simples over the Gamma-saturation of the plain S^m set of lam."""
    reps = {canonical_orbit_rep(gamma, mu) for mu in s_sets_A(lam, m)}
    out = [y for rep in sorted(reps) for y in classify_X_over(gamma, rep)]
    out.sort(key=SimpleX.sort_key)
    return out


def s3_skew(gamma: GammaSpec, x: SimpleX) -> list[SimpleX]:
    """All simples over the Gamma-saturation of the plain S^3 set.

    This is the union of the linkage classes of the simples over the weight
    orbit; block matrices are computed over it (they decompose into the
    strict classes, see s3_component).
    """
    return _saturated_simples(gamma, x.orbit_rep, 3)


def s4_skew(gamma: GammaSpec, x: SimpleX) -> list[SimpleX]:
    """Central character twins: all simples over the saturated dot orbit."""
    return _saturated_simples(gamma, x.orbit_rep, 4)


def s3_component(gamma: GammaSpec, x: SimpleX) -> list[SimpleX]:
    """The strict linkage class: equivalence closure of x under the Verma
    subquotient relation and duality, read off the block of x's orbit."""
    validate_simplex(gamma, x)
    return list(_orbit_block(gamma, x.orbit_rep).classes[x])


def s_prime_component(gamma: GammaSpec, x: SimpleX) -> list[SimpleX]:
    """Closure under the subquotient relation only (no duality edges)."""
    validate_simplex(gamma, x)
    return list(_orbit_block(gamma, x.orbit_rep).sub_classes[x])


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
        index = {x: i for i, x in enumerate(self.order)}
        for j, x in enumerate(self.order):
            i = index[duality_F(x)]
            if i < j:
                lines.append(f"  n{i} -> n{j} [style=dashed, dir=none];")
        lines.append("}")
        return "\n".join(lines)


def _is_symmetric(a) -> bool:
    return a == [list(column) for column in zip(*a)]


def block_matrices(gamma: GammaSpec, x: SimpleX) -> BlockData:
    """D, F, C, C' over s3_skew(x), sorted highest first.

    The block depends only on x.orbit_rep: the rows are the Gamma-saturated
    S^3 set of the orbit, the union of the linkage classes of every simple
    over it, so every simple over the orbit gives the same block.  It is
    computed once per orbit (see _orbit_block); each call returns fresh
    lists, so callers may mutate them.

    Over one cell of Gamma the rows of D are Verma decompositions.  Over
    several cells Gamma is the product of its cells' groups, the skew ring
    is the tensor product of theirs, and so is the block: D is the
    Kronecker product of the cell blocks' D, with the simples matched by
    concat_simplex and sorted highest first.

    Duality permutes the simples: F is the matrix of the involution sigma
    with F[sigma(j)][j] = 1.  So reciprocity C = F D^T F D reads
    C[i][j] = sum_r D[r][sigma(i)] D[sigma(r)][j], a sum over the nonzero
    entries of D, and C' = C F is the column permutation
    C'[i][j] = C[i][sigma(j)].  D must be unitriangular, sigma an involution
    and C' exactly symmetric; otherwise an InternalConsistencyError is raised.
    """
    validate_simplex(gamma, x)
    shared = _orbit_block(gamma, x.orbit_rep)
    k = len(shared.order)
    D = [[0] * k for _ in range(k)]
    for target, row in zip(D, shared.rows):
        for j, v in row:
            target[j] = v
    F = [[0] * k for _ in range(k)]
    for row, s in zip(F, shared.sigma):
        row[s] = 1
    C = [list(row) for row in shared.C]
    Cprime = [[row[s] for s in shared.sigma] for row in C]
    return BlockData(gamma, list(shared.order), D, F, C, Cprime)


@dataclass(frozen=True)
class _OrbitBlock:
    """The block over one weight orbit, shared by every reader.

    rows[i] lists (j, D[i][j]) over the nonzero entries of row i, j
    ascending; order[sigma[i]] = duality_F(order[i]); C is the Cartan
    matrix.  classes and sub_classes map each simple to its linkage class
    with and without duality edges, sorted by SimpleX.sort_key.
    """

    order: tuple
    rows: tuple
    sigma: tuple
    C: tuple
    classes: MappingProxyType
    sub_classes: MappingProxyType


@lru_cache(maxsize=None)
def _orbit_block(gamma: GammaSpec, rep: Weight) -> _OrbitBlock:
    """The block over the orbit of the canonical rep, with its checks."""
    cells = split_by_cells(gamma)
    if len(cells) == 1:
        order = sorted(_saturated_simples(gamma, rep, 3), key=_block_sort_key)
        index = {y: i for i, y in enumerate(order)}
        rows = [
            sorted((index[z], m) for z, m in verma_decompose_skew(gamma, y).items())
            for y in order
        ]
    else:
        order, rows = _product_block(cells, rep)
        index = {y: i for i, y in enumerate(order)}
    k = len(order)
    for i, row in enumerate(rows):
        if row and row[0][0] < i:
            raise InternalConsistencyError("D must vanish below the diagonal")
        if not row or row[0] != (i, 1):
            raise InternalConsistencyError("D must be unitriangular")
    where = f"the orbit of {format_weight(rep)} under {gamma}"
    sigma = [index[duality_F(y)] for y in order]
    if any(sigma[s] != i for i, s in enumerate(sigma)):
        raise InternalConsistencyError(f"duality is not an involution over {where}")
    C = [[0] * k for _ in range(k)]
    for r, row in enumerate(rows):
        for c, v in row:
            target = C[sigma[c]]
            for j, u in rows[sigma[r]]:
                target[j] += v * u
    if any(C[i][sigma[j]] != C[j][sigma[i]] for i in range(k) for j in range(i)):
        raise InternalConsistencyError(f"C' not symmetric over {where}")
    return _OrbitBlock(
        tuple(order),
        tuple(map(tuple, rows)),
        tuple(sigma),
        tuple(map(tuple, C)),
        _linkage_classes(order, rows, enumerate(sigma)),
        _linkage_classes(order, rows, ()),
    )


def _product_block(cells, rep: Weight):
    """(order, sparse D rows) over several cells, given as split_by_cells
    gives them: the Kronecker product of the cell blocks, relabeled by
    concat_simplex and sorted highest first."""
    parts = [_orbit_block(g, rep[span.start : span.stop]) for g, span in cells]
    xs = list(map(concat_simplex, itertools.product(*(part.order for part in parts))))
    kron = reduce(_kron, (part.rows for part in parts))
    ranked = sorted(range(len(xs)), key=lambda t: _block_sort_key(xs[t]))
    position = [0] * len(ranked)
    for i, t in enumerate(ranked):
        position[t] = i
    order = [xs[t] for t in ranked]
    rows = [sorted((position[j], v) for j, v in kron[t]) for t in ranked]
    return order, rows


def _kron(a, b) -> list:
    """Kronecker product of sparse matrices given as rows of (column, value);
    row and column (p, q) of the product is p * len(b) + q."""
    kb = len(b)
    return [
        [(p * kb + q, u * v) for p, u in row_a for q, v in row_b]
        for row_a in a
        for row_b in b
    ]


def _linkage_classes(order, rows, pairs) -> MappingProxyType:
    """Each simple's connected component of the block's graph, whose edges
    are the nonzero entries of D and the given index pairs."""
    parent = list(range(len(order)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    entries = ((i, j) for i, row in enumerate(rows) for j, _ in row)
    for i, j in itertools.chain(entries, pairs):
        parent[find(i)] = find(j)
    members: dict[int, list] = {}
    for i, y in enumerate(order):
        members.setdefault(find(i), []).append(y)
    out = {}
    for group in members.values():
        component = tuple(sorted(group, key=SimpleX.sort_key))
        for y in component:
            out[y] = component
    return MappingProxyType(out)


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

    The sort runs on integers.  A weight is found as its key, the tuple of
    its candidate indices t_i; values[i] ascends, so keys sort as their
    weights do, and with den the lcm of every candidate's denominator
    (a coordinate may mix 0 and 5/2), sum(nu) * den is the int
    sum_i values[i][t_i] * den.  The rows are built after the sort.
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
        orbit_bits = {}
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
    den = lcm(*(v.denominator for vals in values for v in vals))
    scaled = [[v.numerator * (den // v.denominator) for v in vals] for vals in values]
    order = sorted(
        found, key=lambda key: (-sum(map(list.__getitem__, scaled, key)), key)
    )
    mult = irrep_dim(x.stab, x.irrep)
    rows = [
        (tuple(map(list.__getitem__, values, key)), mult * found[key].bit_count())
        for key in order
    ]
    return character, rows


def dim_simple_skew(gamma: GammaSpec, x: SimpleX):
    """dimM(x) * prod(lam_i + 1) on dominant integral orbits, else None."""
    d = dim_simple_A(x.orbit_rep)
    return None if d is None else dim_m(gamma, x) * d


# ---------------------------------------------------------------------------
# products of blocks


def simples_over_four_setups(gamma: GammaSpec, lams: list[Weight]):
    """The four answers over per-block weights: the weights themselves, the
    per-block simple lists, the concatenated weight, and the product simple
    list (verified against direct classification of the concatenation)."""
    blocks = split_by_blocks(gamma)
    if len(lams) != len(blocks):
        raise ValueError("one weight per block required")
    per_block_simples = [classify_X_over(g, lam) for (g, _), lam in zip(blocks, lams)]
    big_weight = tuple(itertools.chain.from_iterable(lams))
    product_list = sorted(
        map(concat_simplex, itertools.product(*per_block_simples)),
        key=SimpleX.sort_key,
    )
    direct = classify_X_over(gamma, big_weight)
    if product_list != direct:
        raise InternalConsistencyError("X product law failed")
    return lams, per_block_simples, big_weight, product_list


@dataclass
class CoverReport:
    hypothesis_holds: bool
    product_set: list  # prod_j S^3_j(x_j), as simples over the concatenation
    union_set: list
    cover: dict  # eps -> component (only when the hypothesis holds)
    chain_ok: bool  # S'(x) in prod S'_j in S^3(x) in prod S^3_j
    equality: bool


def s3_product_cover(gamma: GammaSpec, xs: list[SimpleX]) -> CoverReport:
    """Verify the duality cover: the product of per-block linkage classes is
    the union of the classes of the blockwise duality twists of x.

    Requires the hypothesis F(S'_j(x_j)) = S'_j(F(x_j)) per block; when it
    fails the report says so instead of reporting an equality failure.
    """
    gammas = [g for g, _ in split_by_blocks(gamma)]
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
        map(concat_simplex, itertools.product(*per_block_s3)), key=SimpleX.sort_key
    )
    big_x = concat_simplex(xs)
    cover = {}
    union: set[SimpleX] = set()
    for eps in itertools.product((0, 1), repeat=len(gammas)):
        if eps and eps[0] == 1:
            continue  # quotient by the diagonal flip
        twisted = concat_simplex(duality_F(xj) if e else xj for e, xj in zip(eps, xs))
        comp = s3_component(gamma, twisted)
        cover[eps] = comp
        union.update(comp)
    union_sorted = sorted(union, key=SimpleX.sort_key)
    s_prime_big = set(s_prime_component(gamma, big_x))
    per_block_sprime = [
        s_prime_component(g, xj) for g, xj in zip(gammas, xs)
    ]
    prod_sprime = set(map(concat_simplex, itertools.product(*per_block_sprime)))
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
