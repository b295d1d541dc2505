"""Independent oracles used by the test suite.

These deliberately avoid the package's computational paths: characters come
from explicit Specht-module traces, Verma structure from truncated modules
with explicit generator matrices, and Kostant counts from bounded
enumeration.  Only plain rational linear algebra is shared forensically
(reimplemented here).  Two exceptions check a choice, not the arithmetic:
the center over the full ansatz checks the choice of unknowns (it
multiplies with the PBW engine and solves with wreatho.linalg), and the
Verma-sum weight dimensions check the factorized count and its candidate
weights (they evaluate the package's CharacterVB)."""

from __future__ import annotations

import itertools
from fractions import Fraction

from wreatho.weights import (
    GammaSpec,
    canonical_orbit_rep,
    perm_act,
    perm_compose,
    perm_inverse,
    stabilizer,
)
from wreatho.clifford import SimpleX
from wreatho.linalg import nullspace
from wreatho.pbw import Algebra, Element, commutator
from wreatho.poly import Poly
from wreatho.weights import SymF

# ---------------------------------------------------------------------------
# rational kernels (local, minimal)


def kernel_basis(rows, ncols):
    """Solution basis of rows . x = 0 over Q."""
    mat = [list(map(Fraction, r)) for r in rows if any(r)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][free]
        basis.append(vec)
    return basis


def solve_in_span(basis_vectors, target):
    """Coefficients expressing target in the given (independent) vectors."""
    if not basis_vectors:
        return None if any(target) else []
    ncols = len(basis_vectors)
    nrows = len(target)
    aug = [[basis_vectors[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    coeffs = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        coeffs[pc] = aug[i][ncols]
    # verify (the target must lie in the span)
    for i in range(nrows):
        s = sum((coeffs[j] * basis_vectors[j][i] for j in range(ncols)), Fraction(0))
        if s != target[i]:
            return None
    return coeffs


# ---------------------------------------------------------------------------
# Kostant partition by bounded enumeration


def kostant_enumeration(theta, roots, bound=25):
    """Count representations theta = sum n_i roots_i with n_i in 0..bound."""
    theta = tuple(Fraction(t) for t in theta)
    count = 0
    for combo in itertools.product(range(bound + 1), repeat=len(roots)):
        total = [Fraction(0)] * len(theta)
        for n_i, root in zip(combo, roots):
            for k in range(len(theta)):
                total[k] += n_i * Fraction(root[k])
        if tuple(total) == theta:
            count += 1
    return count


# ---------------------------------------------------------------------------
# symmetric group characters from explicit Specht modules


def _tabloid(tableau):
    return tuple(frozenset(row) for row in tableau)


def _tableaux(lam, entries):
    """All fillings of shape lam by the distinct entries."""
    n = len(entries)
    for perm in itertools.permutations(entries):
        rows = []
        k = 0
        for row_len in lam:
            rows.append(tuple(perm[k : k + row_len]))
            k += row_len
        yield rows


def _column_group(lam):
    """Permutations (as entry position maps) of each column, with signs."""
    cols = []
    for c in range(lam[0]):
        col = [r for r in range(len(lam)) if lam[r] > c]
        cols.append([(r, c) for r in col])
    groups = []
    for col in cols:
        perms = []
        for images in itertools.permutations(range(len(col))):
            sign = _perm_sign(images)
            perms.append((images, sign))
        groups.append((col, perms))
    return groups


def _perm_sign(images):
    sign = 1
    images = list(images)
    for i in range(len(images)):
        while images[i] != i:
            j = images[i]
            images[i], images[j] = images[j], images[i]
            sign = -sign
    return sign


def specht_character(lam, g):
    """chi^lam(g) by tracing g on the span of all polytabloids.

    g is a permutation tuple acting on 0..n-1 (images).
    """
    lam = tuple(lam)
    n = sum(lam)
    tabloids = sorted(
        {_tabloid(t) for t in _tableaux(lam, tuple(range(n)))}
    )
    index = {t: i for i, t in enumerate(tabloids)}
    groups = _column_group(lam)

    def polytabloid(tableau):
        vec = [Fraction(0)] * len(tabloids)
        cells = {(r, c): tableau[r][c] for r in range(len(lam)) for c in range(lam[r])}
        col_choices = [
            [(images, sign) for images, sign in perms] for _, perms in groups
        ]
        col_cells = [col for col, _ in groups]
        for combo in itertools.product(*col_choices):
            sign = 1
            new_cells = dict(cells)
            for (col, _), (images, s) in zip(groups, combo):
                sign *= s
                orig = [cells[pos] for pos in col]
                for pos, src in zip(col, images):
                    new_cells[pos] = orig[src]
            rows = []
            for r in range(len(lam)):
                rows.append(tuple(new_cells[(r, c)] for c in range(lam[r])))
            vec[index[_tabloid(rows)]] += sign
        return vec

    polys = [polytabloid(t) for t in _tableaux(lam, tuple(range(n)))]
    # span basis
    basis = []
    for v in polys:
        if solve_in_span(basis, v) is None:
            basis.append(v)
    # action of g on tabloids
    def act(vec):
        out = [Fraction(0)] * len(tabloids)
        for i, t in enumerate(tabloids):
            if not vec[i]:
                continue
            moved = tuple(frozenset(g[e] for e in row) for row in t)
            out[index[moved]] += vec[i]
        return out

    trace = Fraction(0)
    for j, b in enumerate(basis):
        coeffs = solve_in_span(basis, act(b))
        assert coeffs is not None, "Specht span not g-stable"
        trace += coeffs[j]
    assert trace.denominator == 1
    return int(trace)


def cycle_type_rep(mu, n):
    """A permutation of 0..n-1 with the given cycle type."""
    images = list(range(n))
    pos = 0
    for part in mu:
        cycle = list(range(pos, pos + part))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
        pos += part
    return tuple(images)


def standard_tableaux_count(lam):
    """Number of standard Young tableaux, by direct enumeration."""
    lam = tuple(lam)
    n = sum(lam)
    count = 0
    for t in _tableaux(lam, tuple(range(n))):
        ok = True
        for r, row in enumerate(t):
            for c in range(len(row)):
                if c + 1 < len(row) and row[c] > row[c + 1]:
                    ok = False
                if r + 1 < len(t) and len(t[r + 1]) > c and t[r][c] > t[r + 1][c]:
                    ok = False
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# truncated rank-1 Verma


def truncated_sl2_factors(lam, depth=10):
    """Composition data of the rank-1 Verma from an explicit truncation.

    Basis f^k v for k <= depth; a singular vector is a kernel vector of the
    raising matrix below the top.  Returns [(weight, 1)] entries.
    """
    lam = Fraction(lam)
    factors = [(lam, 1)]
    for k in range(1, depth + 1):
        # e f^k v = k (lam - k + 1) f^{k-1} v
        if k * (lam - k + 1) == 0:
            factors.append((lam - 2 * k, 1))
    return factors


# ---------------------------------------------------------------------------
# truncated skew Verma with explicit group action


def one_dim_char_value(stab, irrep, h):
    """Value of a one-dimensional stabilizer irrep at h (rational only)."""
    value = Fraction(1)
    for f, label in zip(stab.factors, irrep):
        if isinstance(f, SymF):
            if label == (len(f.positions),):
                continue
            if label == tuple([1] * len(f.positions)):
                images = [f.positions.index(h[p]) for p in f.positions]
                value *= _perm_sign(tuple(images))
            else:
                raise ValueError("irrep is not one-dimensional")
        else:
            if f.order > 2:
                raise ValueError("cyclic order > 2 needs irrational values")
            # rotation index of h on the block
            m = len(f.positions)
            zero_img = h[f.positions[0]]
            shift = f.positions.index(zero_img)
            assert shift % f.step == 0
            s = shift // f.step
            value *= Fraction((-1) ** (label * s))
    return value


class TruncatedSkewVerma:
    """Explicit truncation of the skew Verma over a simple with a
    one-dimensional rational stabilizer irrep."""

    def __init__(self, gamma: GammaSpec, x: SimpleX, depth: int):
        self.gamma = gamma
        self.x = x
        self.depth = depth
        self.n = gamma.n
        self.lam = x.orbit_rep
        elements = gamma.group().elements()
        stab_set = {
            g for g in elements if perm_act(g, self.lam) == self.lam
        }
        reps = []
        seen = set()
        for g in sorted(elements):
            if g in seen:
                continue
            reps.append(g)
            for h in stab_set:
                seen.add(perm_compose(g, h))
        self.coset_reps = reps
        self.elements = elements
        self.monos = [
            m
            for m in itertools.product(range(depth + 1), repeat=self.n)
            if sum(m) <= depth
        ]
        self.basis = [(m, c) for m in self.monos for c in range(len(reps))]
        self.index = {b: i for i, b in enumerate(self.basis)}

    def weight_of(self, b):
        m, c = b
        mu = perm_act(self.coset_reps[c], self.lam)
        return tuple(w - 2 * k for w, k in zip(mu, m))

    def act_e(self, i, vec):
        out = [Fraction(0)] * len(self.basis)
        for idx, coef in enumerate(vec):
            if not coef:
                continue
            m, c = self.basis[idx]
            if m[i] == 0:
                continue
            mu = perm_act(self.coset_reps[c], self.lam)
            scale = m[i] * (mu[i] - m[i] + 1)
            if scale:
                m2 = tuple(k - (1 if j == i else 0) for j, k in enumerate(m))
                out[self.index[(m2, c)]] += coef * scale
        return out

    def act_gamma(self, g, vec):
        out = [Fraction(0)] * len(self.basis)
        for idx, coef in enumerate(vec):
            if not coef:
                continue
            m, c = self.basis[idx]
            p = perm_compose(g, self.coset_reps[c])
            # find coset rep and stabilizer part
            for c2, rep in enumerate(self.coset_reps):
                h = perm_compose(perm_inverse(rep), p)
                if perm_act(h, self.lam) == self.lam:
                    break
            else:
                raise AssertionError("no coset found")
            chi = one_dim_char_value(self.x.stab, self.x.irrep, h)
            m2 = perm_act(g, m)
            out[self.index[(m2, c2)]] += coef * chi
        return out

    def singular_vectors_by_weight(self):
        """Kernel of all raising operators, grouped by weight (weight != top
        weights are genuinely new maximal vectors)."""
        by_weight: dict = {}
        for idx, b in enumerate(self.basis):
            by_weight.setdefault(self.weight_of(b), []).append(idx)
        out = {}
        for w, idxs in by_weight.items():
            cols = len(idxs)
            mat_rows = []
            for i in range(self.n):
                images = []
                for idx in idxs:
                    vec = [Fraction(0)] * len(self.basis)
                    vec[idx] = Fraction(1)
                    images.append(self.act_e(i, vec))
                for target in range(len(self.basis)):
                    row = [images[j][target] for j in range(cols)]
                    if any(row):
                        mat_rows.append(row)
            kern = kernel_basis(mat_rows, cols)
            if kern:
                lifted = []
                for k in kern:
                    vec = [Fraction(0)] * len(self.basis)
                    for local_j, idx in enumerate(idxs):
                        vec[idx] = k[local_j]
                    lifted.append(vec)
                out[w] = lifted
        return out


class TruncatedRegularVerma:
    """Truncation of the Verma induced from the full group algebra.

    Basis (f-exponents, group element); no irrep is realized, so this works
    for every group, including cyclic factors with irrational characters.
    The singular-space dimension at a weight nu must match
    sum_x dim(N_x) * sum_{x' over orbit(nu)} [Z(x):V(x')] * dim(N_{x'}).
    """

    def __init__(self, gamma: GammaSpec, lam, depth: int):
        self.gamma = gamma
        self.lam = lam
        self.n = gamma.n
        self.depth = depth
        self.elements = gamma.group().elements()
        self.monos = [
            m
            for m in itertools.product(range(depth + 1), repeat=self.n)
            if sum(m) <= depth
        ]
        self.basis = [(m, g) for m in self.monos for g in self.elements]
        self.index = {b: i for i, b in enumerate(self.basis)}

    def weight_of(self, b):
        m, g = b
        mu = perm_act(g, self.lam)
        return tuple(c - 2 * k for c, k in zip(mu, m))

    def e_image(self, i, idx):
        """e_i on the basis vector idx: (target index, coefficient) or None."""
        m, g = self.basis[idx]
        if m[i] == 0:
            return None
        mu = perm_act(g, self.lam)
        scale = m[i] * (mu[i] - m[i] + 1)
        if not scale:
            return None
        m2 = tuple(k - (1 if j == i else 0) for j, k in enumerate(m))
        return self.index[(m2, g)], scale

    def singular_dims_by_weight(self):
        by_weight: dict = {}
        for idx, b in enumerate(self.basis):
            by_weight.setdefault(self.weight_of(b), []).append(idx)
        out = {}
        for wgt, idxs in by_weight.items():
            mat_rows = []
            for i in range(self.n):
                # each basis vector has one image, so build only the
                # nonzero rows: target index -> {local column: coefficient}
                rows: dict = {}
                for col, idx in enumerate(idxs):
                    image = self.e_image(i, idx)
                    if image:
                        target, scale = image
                        rows.setdefault(target, {})[col] = Fraction(scale)
                for target in sorted(rows):
                    row = [Fraction(0)] * len(idxs)
                    for col, value in rows[target].items():
                        row[col] = value
                    mat_rows.append(row)
            dim = len(kernel_basis(mat_rows, len(idxs)))
            if dim:
                out[wgt] = dim
        return out


def oracle_decompose(gamma: GammaSpec, x: SimpleX, depth: int):
    """[Z(x) : V(x')] from the truncated module.

    Clifford theory over an orbit: a weight-graded group module supported on
    one orbit is induced from the stabilizer module on the representative
    weight space, so the multiplicity of (orbit, N') is the plain character
    multiplicity of N' in the singular subspace at the representative weight
    under its stabilizer.  Requires a one-dimensional rational irrep on x
    and rational stabilizer characters (no cyclic factor of order > 2).
    """
    module = TruncatedSkewVerma(gamma, x, depth)
    singular = module.singular_vectors_by_weight()
    result: dict[SimpleX, int] = {}
    for w, vecs in singular.items():
        rep = canonical_orbit_rep(gamma, w)
        if rep != w:
            continue  # each orbit is read off at its representative
        stab = stabilizer(gamma, rep)
        stab_elems = [
            g for g in module.elements if perm_act(g, rep) == rep
        ]
        traces = {}
        for h in stab_elems:
            tr = Fraction(0)
            for j, v in enumerate(vecs):
                moved = module.act_gamma(h, v)
                coeffs = solve_in_span(vecs, moved)
                assert coeffs is not None, "singular space not stabilizer stable"
                tr += coeffs[j]
            traces[h] = tr
        from wreatho.symchars import list_irreps

        for irrep in list_irreps(stab):
            mult = Fraction(0)
            for h in stab_elems:
                mult += traces[h] * _stab_char_value(stab, irrep, perm_inverse(h))
            mult /= len(stab_elems)
            assert mult.denominator == 1 and mult >= 0
            if mult:
                result[SimpleX(rep, stab, irrep)] = int(mult)
    return result


def _stab_char_value(stab, irrep, h):
    """Rational character value of a stabilizer irrep at h in the stabilizer."""
    value = Fraction(1)
    for f, label in zip(stab.factors, irrep):
        if isinstance(f, SymF):
            local = tuple(f.positions.index(h[p]) for p in f.positions)
            value *= specht_character(label, local)
        else:
            if f.order > 2:
                raise ValueError("cyclic order > 2 not supported by this oracle")
            m = len(f.positions)
            shift = f.positions.index(h[f.positions[0]])
            assert shift % f.step == 0
            value *= Fraction((-1) ** (label * (shift // f.step)))
    return value


# ---------------------------------------------------------------------------
# the center over the full ansatz


def center_basis_full_ansatz(n, dmax, gamma=None):
    """Basis of {z : [z, generators] = 0} within PBW degree dmax, solving for
    every monomial times every group element against every e_i, f_i, h_i
    and group generator: no structure of the center is assumed.

    Unknowns are ordered by total degree, then per-factor f- and h-exponent,
    then group element, the order the package uses, so the reduced null
    basis is comparable vector for vector.  The products are the PBW
    engine's; the solve is ``wreatho.linalg.nullspace``, which
    test_linalg checks against kernel_basis (too slow at 420 unknowns).
    """
    alg = Algebra(n, gamma)
    singles = [
        (a, b, total - a - b)
        for total in range(dmax + 1)
        for a in range(total + 1)
        for b in range(total - a + 1)
    ]
    perms = gamma.group().elements() if gamma else [tuple(range(n))]
    basis = [
        (factors, p)
        for factors in itertools.product(singles, repeat=n)
        if sum(map(sum, factors)) <= dmax
        for p in perms
    ]
    gens = [alg.gen(kind, i) for i in range(n) for kind in "efh"]
    if gamma:
        gens += [alg.group_element(p) for p in gamma.group().generators()]
    equations: dict = {}
    for k, mono in enumerate(basis):
        elem = Element(alg, {mono: Poly.const(1)})
        for g_idx, g in enumerate(gens):
            for out_mono, coef in commutator(elem, g).terms.items():
                eq = equations.setdefault((out_mono, g_idx), {})
                eq[k] = coef.constant_value()
    rows = []
    for eq in equations.values():
        row = [0] * len(basis)
        for k, value in eq.items():
            row[k] = value
        rows.append(row)
    return [
        Element(alg, {basis[k]: Poly.const(v) for k, v in enumerate(vec) if v})
        for vec in nullspace(rows, len(basis))
    ]


# ---------------------------------------------------------------------------
# weight-space dimensions by Verma sums


def down_weights_by_filtering(hw, depth):
    """The weights hw - 2k with sum(k) <= depth: every k in the
    (total+1)^n box kept when it sums to total."""
    n = len(hw)
    for total in range(depth + 1):
        for combo in itertools.product(range(total + 1), repeat=n):
            if sum(combo) == total:
                yield tuple(h - 2 * k for h, k in zip(hw, combo))


def char_rows_by_evaluation(character, depth):
    """The nonzero weight spaces of a character in the Verma basis among
    the weights down_weights_by_filtering(hw, depth), hw in its support:
    CharacterVB.evaluate on each, sorted as ``wreatho char`` prints them."""
    rows = []
    seen = set()
    for hw in character.support():
        for nu in down_weights_by_filtering(hw, depth):
            if nu in seen:
                continue
            seen.add(nu)
            d = character.evaluate(nu)
            if d:
                rows.append((nu, d))
    rows.sort(key=lambda r: (-sum(r[0]), r[0]))
    return rows
