"""Weight lattice Q^n for sl2^n, group actions, orbits and Kostant counting.

Weights are plain tuples of rational coordinates; the rank is the tuple
length.  A coordinate is an int when it is integral and a Fraction
otherwise, never a float (coord stores what poly.exact makes, as Poly
does with its coefficients): the two hash, compare and print alike, and
the lattice arithmetic (c - 2k, -c - 2) keeps an int an int, so integral
weights run on machine integers.  The i-th simple root is 2*e_i, so
mu <= lam iff every difference lam_i - mu_i is a nonnegative even integer.

The acting group Gamma is a product of "blocks" on consecutive coordinates:
Young blocks S_{a} x S_{b} x ... (each size gets its own symmetric factor)
and cyclic blocks Z/m (rotation of m consecutive coordinates).  Stabilizers
of weights, and stabilizers of flip-subsets inside them, stay within the
same class: products of symmetric groups on position sets and rotation
subgroups of cyclic blocks.  That closure property is what GroupDesc below
encodes.

gamma_cells walks Gamma's layout once: one cell per Young factor, cyclic
block and trivial block.  The group, canonical orbit representatives and
stabilizers are all read off those cells, and other modules use the cells
instead of walking the blocks themselves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from . import linalg
from .poly import exact

Weight = tuple  # tuple[int | Fraction, ...], each coordinate as coord makes it
Perm = tuple  # tuple[int, ...]; p[i] is the image of coordinate i


class InternalConsistencyError(RuntimeError):
    """A structural identity the implementation guarantees has failed."""


# ---------------------------------------------------------------------------
# weights and the partial order


def coord(c) -> int | Fraction:
    """The canonical coordinate of c, an int, a Fraction or a rational
    string: poly.exact of it, so an int when it is integral, else a
    Fraction.  A float, even an integral one, raises TypeError."""
    return exact(parse_rational(c) if isinstance(c, str) else c)


def parse_rational(text: str) -> Fraction:
    """Fraction(text), with a zero denominator raised as ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_weight(text: str) -> Weight:
    """Parse "3,0,-1/2" into a tuple of canonical coordinates (3, 0, -1/2)."""
    parts = [p.strip() for p in text.split(",")]
    out = []
    for k, part in enumerate(parts):
        if not part:
            raise ValueError(
                f"malformed weight {text!r}: empty entry at position {k + 1}, "
                "expected a rational like 3 or -1/2"
            )
        try:
            out.append(coord(part))
        except ValueError:
            raise ValueError(
                f"malformed weight {text!r}: bad entry {part!r} at position "
                f"{k + 1}, expected a rational like 3 or -1/2"
            ) from None
    return tuple(out)


def format_weight(lam: Weight) -> str:
    return ",".join(str(c) for c in lam)


def as_weight(coords: Iterable) -> Weight:
    lam = tuple(coord(c) for c in coords)
    if not lam:
        raise ValueError("rank must be >= 1")
    return lam


def check_same_rank(lam: Weight, mu: Weight) -> None:
    if len(lam) != len(mu):
        raise ValueError(f"rank mismatch: {len(lam)} vs {len(mu)}")


def is_even_nonneg_int(x: Fraction) -> bool:
    return x.denominator == 1 and x >= 0 and x.numerator % 2 == 0


def leq(mu: Weight, lam: Weight) -> bool:
    """mu <= lam iff lam - mu lies in Z>=0 * {simple roots}."""
    check_same_rank(mu, lam)
    return all(is_even_nonneg_int(l - m) for m, l in zip(mu, lam))


def simple_roots(n: int) -> list[Weight]:
    """The simple roots of sl2^n: alpha_i = 2 e_i."""
    roots = []
    for i in range(n):
        v = [0] * n
        v[i] = 2
        roots.append(tuple(v))
    return roots


def is_dominant_integral(lam: Weight) -> bool:
    return all(c.denominator == 1 and c >= 0 for c in lam)


def flip_coord(c: Fraction) -> Fraction:
    """The rank-1 dot reflection c -> -c-2 (fixed point at -1)."""
    return -c - 2


def flip_subset(lam: Weight, t: frozenset | set) -> Weight:
    return tuple(flip_coord(c) if i in t else c for i, c in enumerate(lam))


def integral_flip_positions(lam: Weight) -> tuple[int, ...]:
    """I(lam): coordinates with a nontrivial Verma subquotient, lam_i in Z>=0."""
    return tuple(
        i for i, c in enumerate(lam) if c.denominator == 1 and c >= 0
    )


def perm_compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_act(p: Perm, lam: Weight) -> Weight:
    """Coordinate permutation: (p . lam)_{p(i)} = lam_i."""
    out = [None] * len(lam)
    for i, c in enumerate(lam):
        out[p[i]] = c
    return tuple(out)


# ---------------------------------------------------------------------------
# Gamma and structural subgroups


@dataclass(frozen=True)
class SymF:
    """Full symmetric group on a set of coordinate positions."""

    positions: tuple  # sorted tuple[int, ...], len >= 2

    @property
    def order(self) -> int:
        return math.factorial(len(self.positions))

    def elements(self) -> list[dict]:
        out = []
        for images in itertools.permutations(self.positions):
            out.append(dict(zip(self.positions, images)))
        return out

    def generators(self) -> list[dict]:
        ps = self.positions
        gens = []
        for a, b in zip(ps, ps[1:]):
            gens.append({a: b, b: a})
        return gens


@dataclass(frozen=True)
class CycF:
    """Cyclic rotation subgroup of order `order` on a block of positions.

    positions are in block order; the subgroup is generated by the rotation
    moving positions[t] to positions[(t + m/order) % m], m = len(positions).
    """

    positions: tuple
    order: int

    @property
    def step(self) -> int:
        return len(self.positions) // self.order

    def rotation(self, r: int) -> dict:
        m = len(self.positions)
        shift = (r * self.step) % m
        return {
            self.positions[t]: self.positions[(t + shift) % m]
            for t in range(m)
        }

    def elements(self) -> list[dict]:
        return [self.rotation(r) for r in range(self.order)]

    def generators(self) -> list[dict]:
        if self.order == 1:
            return []
        return [self.rotation(1)]


def hash_once(self) -> int:
    """``__hash__`` for a frozen dataclass used as a cache key.

    The value is the one the dataclass would generate, hash((field1,
    field2, ...)), so set and dict orders do not change; it is computed on
    first use and stored on the instance, since rehashing a tuple of
    Fractions on every lookup dominates the block computations.  A class
    opts in with ``__hash__ = hash_once`` in its body (the dataclass then
    keeps generating only ``__eq__``).
    """
    try:
        return self._hash
    except AttributeError:
        value = hash(tuple(getattr(self, name) for name in self.__match_args__))
        object.__setattr__(self, "_hash", value)
        return value


@dataclass(frozen=True)
class GroupDesc:
    """A product of SymF and CycF factors on disjoint position sets.

    Used both for Gamma itself and for every stabilizer that shows up.
    Factors of order one are never stored.  The hash is computed once and
    equals the generated value (see hash_once).
    """

    n: int
    factors: tuple

    __hash__ = hash_once

    @property
    def order(self) -> int:
        o = 1
        for f in self.factors:
            o *= f.order
        return o

    def generators(self) -> list[Perm]:
        gens = []
        for f in self.factors:
            for g in f.generators():
                gens.append(_mapping_to_perm(g, self.n))
        return gens

    def elements(self) -> list[Perm]:
        """All elements as permutation tuples.  Desk scale only."""
        perms = [tuple(range(self.n))]
        for f in self.factors:
            fac = [_mapping_to_perm(m, self.n) for m in f.elements()]
            perms = [perm_compose(p, q) for p in perms for q in fac]
        return perms

    def key(self) -> tuple:
        return tuple(
            ("S", f.positions) if isinstance(f, SymF) else ("C", f.positions, f.order)
            for f in self.factors
        )


def _mapping_to_perm(mapping: dict, n: int) -> Perm:
    return tuple(mapping.get(i, i) for i in range(n))


def group_desc(n: int, factors: Iterable) -> GroupDesc:
    kept = sorted((f for f in factors if f.order > 1), key=lambda f: f.positions[0])
    return GroupDesc(n, tuple(kept))


def is_subgroup(sub: GroupDesc, sup: GroupDesc) -> bool:
    """Structural containment: every sub-factor embeds in a sup-factor."""
    for f in sub.factors:
        parent = _parent_factor(f, sup)
        if parent is None:
            return False
    return True


def _parent_factor(f, sup: GroupDesc):
    """The sup-factor containing f, or None.

    SymF fits in a SymF with a superset of positions; CycF fits in a CycF on
    the identical block with order divisible by its own.
    """
    pos = set(f.positions)
    for g in sup.factors:
        gpos = set(g.positions)
        if isinstance(f, SymF) and isinstance(g, SymF) and pos <= gpos:
            return g
        if (
            isinstance(f, CycF)
            and isinstance(g, CycF)
            and f.positions == g.positions
            and g.order % f.order == 0
        ):
            return g
    return None


# ---------------------------------------------------------------------------
# GammaSpec parsing and construction


@dataclass(frozen=True)
class GammaSpec:
    """The acting group, as typed blocks on consecutive coordinates.

    blocks: tuple of ("S", sizes) or ("C", m) or ("1", m).  Text format:
    blocks separated by ";", each "S:a,b,c" / "C:m" / "1:m".  The hash is
    computed once and equals the generated value, hash((blocks,)) (see
    hash_once).
    """

    blocks: tuple

    __hash__ = hash_once

    @property
    def n(self) -> int:
        total = 0
        for kind, data in self.blocks:
            total += sum(data) if kind == "S" else data
        return total

    @lru_cache(maxsize=None)
    def group(self) -> GroupDesc:
        """Gamma as a GroupDesc, built once per spec."""
        return group_desc(
            self.n,
            (
                SymF(tuple(span)) if kind == "S" else CycF(tuple(span), len(span))
                for kind, span in gamma_cells(self)
                if kind != "1"
            ),
        )

    def block_spans(self) -> list[tuple[int, int]]:
        """Half-open coordinate spans, one per block."""
        spans = []
        pos = 0
        for kind, data in self.blocks:
            width = sum(data) if kind == "S" else data
            spans.append((pos, pos + width))
            pos += width
        return spans

    def __str__(self) -> str:
        parts = []
        for kind, data in self.blocks:
            if kind == "S":
                parts.append("S:" + ",".join(str(s) for s in data))
            else:
                parts.append(f"{kind}:{data}")
        return ";".join(parts)


def parse_gamma(text: str) -> GammaSpec:
    """Parse "S:2;C:3;1:2" into a GammaSpec."""
    blocks = []
    for raw in text.split(";"):
        raw = raw.strip()
        if not raw:
            raise ValueError(f"empty block in gamma spec {text!r}")
        if ":" not in raw:
            raise ValueError(f"malformed block {raw!r} (expected KIND:ARGS)")
        kind, args = raw.split(":", 1)
        kind = kind.strip()
        if kind == "S":
            sizes = tuple(int(a) for a in args.split(","))
            if not sizes or any(s < 1 for s in sizes):
                raise ValueError(f"bad Young sizes in {raw!r}")
            blocks.append(("S", sizes))
        elif kind in ("C", "1"):
            m = int(args)
            if m < 1:
                raise ValueError(f"bad block width in {raw!r}")
            blocks.append((kind, m))
        else:
            raise ValueError(f"unknown block kind {kind!r} in {raw!r}")
    return GammaSpec(tuple(blocks))


@lru_cache(maxsize=None)
def gamma_cells(gamma: GammaSpec) -> tuple:
    """Gamma's cells in coordinate order, as (kind, range of positions).

    ("S", span) for each Young factor, ("C", span) for each cyclic block and
    ("1", span) for each trivial block.  Gamma is the product of the full
    symmetric groups on the S cells and the rotation groups of the C cells.
    """
    cells = []
    pos = 0
    for kind, data in gamma.blocks:
        for width in data if kind == "S" else (data,):
            cells.append((kind, range(pos, pos + width)))
            pos += width
    return tuple(cells)


# ---------------------------------------------------------------------------
# orbits and stabilizers


def _min_rotation(values: tuple) -> tuple:
    return min(values[r:] + values[:r] for r in range(len(values)))


def canonical_orbit_rep(gamma: GammaSpec, lam: Weight) -> Weight:
    """Lexicographically minimal element of the Gamma-orbit of lam.

    Coordinates need only be hashable and totally ordered, so integer tuples
    (such as the marked weights of skew_o) work as well as Fractions.
    """
    out = list(lam)
    for kind, span in gamma_cells(gamma):
        cell = slice(span.start, span.stop)
        if kind == "S":
            out[cell] = sorted(out[cell])
        elif kind == "C":
            out[cell] = _min_rotation(tuple(out[cell]))
    return tuple(out)


def orbit_of(gamma: GammaSpec, lam: Weight) -> list[Weight]:
    """The Gamma-orbit, sorted lexicographically."""
    orbit = {lam}
    frontier = [lam]
    gens = gamma.group().generators()
    while frontier:
        new = []
        for mu in frontier:
            for g in gens:
                nu = perm_act(g, mu)
                if nu not in orbit:
                    orbit.add(nu)
                    new.append(nu)
        frontier = new
    return sorted(orbit)


def stabilizer(gamma: GammaSpec, lam: Weight) -> GroupDesc:
    """Structural stabilizer of lam in Gamma.

    Young factors split into symmetric groups on equal-value position sets;
    cyclic blocks contribute the rotation subgroup fixing the value necklace.
    Coordinates need only be hashable and totally ordered.
    """
    if len(lam) != gamma.n:
        raise ValueError("rank mismatch")
    factors = []
    for kind, span in gamma_cells(gamma):
        if kind == "S":
            by_value: dict = {}
            for i in span:
                by_value.setdefault(lam[i], []).append(i)
            factors.extend(SymF(tuple(c)) for c in by_value.values() if len(c) >= 2)
        elif kind == "C":
            d = _necklace_symmetry_order(tuple(lam[span.start : span.stop]))
            if d >= 2:
                factors.append(CycF(tuple(span), d))
    return group_desc(gamma.n, factors)


def _necklace_symmetry_order(values: tuple) -> int:
    m = len(values)
    for period in range(1, m + 1):
        if m % period:
            continue
        if all(values[t] == values[(t + period) % m] for t in range(m)):
            return m // period
    return 1


# ---------------------------------------------------------------------------
# Kostant partition function


def kostant_p(theta: Sequence, roots: Sequence[Weight]) -> int:
    """Number of ways to write theta as a Z>=0 combination of `roots`.

    The root multiset must lie in an open half-space (otherwise counts could
    be infinite); this is checked exactly and violations raise ValueError.
    The recursion state (residual, root index) does not depend on theta, so
    its memo is shared across calls with the same root tuple.
    """
    theta = as_weight(theta)
    roots = tuple(as_weight(r) for r in roots)
    if any(all(c == 0 for c in r) for r in roots):
        raise ValueError("roots must be nonzero")
    for r in roots:
        check_same_rank(theta, r)
    if _dot(_separating_functional(roots), theta) < 0:
        return 0
    return _kostant_count(roots, theta, 0)


@lru_cache(maxsize=None)
def _kostant_count(roots: tuple, residual: Weight, idx: int) -> int:
    """Ways to write residual with roots[idx:]; roots admit a functional."""
    if all(c == 0 for c in residual):
        return 1
    if idx == len(roots):
        return 0
    w = _separating_functional(roots)
    root = roots[idx]
    step = _dot(w, root)
    nmax = _dot(w, residual) // step if step > 0 else 0
    total = 0
    cur = residual
    for _ in range(nmax + 1):
        total += _kostant_count(roots, cur, idx + 1)
        cur = tuple(a - b for a, b in zip(cur, root))
    return total


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def _separating_functional(roots: tuple) -> Weight:
    """An exact w with w . r >= 1 for all roots; ValueError if none exists.

    The feasible set, restricted to the span of the roots, is pointed, so a
    vertex (cut out by dim-many tight constraints) exists whenever the set is
    nonempty; we enumerate candidate vertex systems and check them.
    """
    n = len(roots[0])
    basis = [list(r) for r in roots]
    dim = len(linalg.rref(basis))
    if dim == 0:
        raise ValueError("roots are not contained in an open half-space")
    for subset in itertools.combinations(range(len(roots)), dim):
        # solve sum_j x_j basis_j . roots[s] = 1 for s in subset; the system
        # is regular iff its reduced form has a pivot in every unknown
        aug = [
            [_dot(basis[j], roots[s]) for j in range(dim)] + [1]
            for s in subset
        ]
        if linalg.rref(aug) != list(range(dim)):
            continue
        w = tuple(
            sum(aug[j][dim] * basis[j][i] for j in range(dim))
            for i in range(n)
        )
        if all(_dot(w, r) >= 1 for r in roots):
            return w
    raise ValueError("roots are not contained in an open half-space")
