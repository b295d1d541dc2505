"""Exact character theory for symmetric and cyclic groups.

Everything is integer arithmetic: symmetric group characters via the
Murnaghan-Nakayama rule (https://en.wikipedia.org/wiki/Murnaghan-Nakayama_rule),
dimensions via hook lengths, and induction/restriction multiplicities via
Frobenius reciprocity as exact class sums.  Cyclic group characters are
never materialized over a cyclotomic field: restrictions along chains of
cyclic subgroups reduce to residue matching, and those are the only cyclic
multiplicities this package needs.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Sequence

from .weights import CycF, GroupDesc, InternalConsistencyError, SymF, is_subgroup

Partition = tuple  # weakly decreasing tuple of positive ints; () allowed

MAX_TABLE_N = 8


def check_partition(lam: Sequence[int]) -> Partition:
    lam = tuple(int(p) for p in lam)
    if any(p < 1 for p in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple:
    """All partitions of n, in descending lexicographic order ((n) first)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out = []

    def build(remaining: int, cap: int, prefix: tuple):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            build(remaining - part, part, prefix + (part,))

    build(n, n, ())
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def dim_irrep(lam: Partition) -> int:
    """Hook length formula: n! / prod(hooks)."""
    lam = check_partition(lam)
    n = sum(lam)
    conj = conjugate(lam)
    d = math.factorial(n)
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            if d % hook:
                raise InternalConsistencyError(f"hook {hook} does not divide {d}")
            d //= hook
    return d


def _border_strips(lam: Partition, k: int):
    """All removable border strips of size k; yields (new_partition, height).

    For a fixed topmost row the strip hugging the rim is unique, so we scan
    start rows and take greedily, then validate the leftover shape.
    """
    rows = len(lam)
    for start in range(rows):
        strip = [0] * rows
        for r in range(start, rows):
            take = k - sum(strip)
            if take <= 0:
                break
            if r + 1 != rows:
                take = min(take, lam[r] - lam[r + 1] + 1)
            strip[r] = take
        if sum(strip) != k:
            continue
        new = [lam[r] - strip[r] for r in range(rows)]
        if any(x < 0 for x in new):
            continue
        if any(new[r] < new[r + 1] for r in range(rows - 1)):
            continue
        height = sum(1 for x in strip if x > 0) - 1
        yield tuple(p for p in new if p > 0), height


@lru_cache(maxsize=None)
def char_value(lam: Partition, mu: Partition) -> int:
    """Irreducible character of S_n: chi^lam at the class of cycle type mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    if not lam:
        return 1
    k = mu[0]
    rest = mu[1:]
    total = 0
    for stripped, height in _border_strips(lam, k):
        total += (-1) ** height * char_value(stripped, rest)
    return total


def class_size(mu: Partition) -> int:
    """Size of the conjugacy class of cycle type mu in S_{|mu|}."""
    n = sum(mu)
    z = 1
    counts: dict[int, int] = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    for k, m in counts.items():
        z *= k**m * math.factorial(m)
    return math.factorial(n) // z


def merge_cycle_types(types: Iterable[Partition]) -> Partition:
    """Cycle type of a block-diagonal permutation: sorted union of parts."""
    parts = []
    for t in types:
        parts.extend(t)
    return tuple(sorted(parts, reverse=True))


# ---------------------------------------------------------------------------
# full character tables


class CharTable:
    """The full character table of S_n.

    rows: partitions of n in descending lex order ((n), the trivial rep,
    first); columns: cycle types in ascending lex order (identity class
    first); values: exact integers.
    """

    def __init__(self, n: int, partitions, classes, values):
        self.n = n
        self.partitions = [check_partition(p) for p in partitions]
        self.classes = [check_partition(c) for c in classes]
        self.values = [[int(v) for v in row] for row in values]

    @staticmethod
    def compute(n: int) -> "CharTable":
        rows = list(partitions_of(n))
        cols = sorted(partitions_of(n))
        values = [[char_value(lam, mu) for mu in cols] for lam in rows]
        return CharTable(n, rows, cols, values)

    def validate(self) -> None:
        """Check hook dimensions and row orthogonality; raises on failure."""
        n = self.n
        if sorted(self.partitions, reverse=True) != list(self.partitions):
            raise ValueError("rows out of order")
        id_col = self.classes.index(tuple([1] * n))
        for i, lam in enumerate(self.partitions):
            if self.values[i][id_col] != dim_irrep(lam):
                raise ValueError(f"dimension mismatch in row {lam}")
        sizes = [class_size(mu) for mu in self.classes]
        fact = math.factorial(n)
        for i in range(len(self.partitions)):
            for j in range(i, len(self.partitions)):
                dot = sum(
                    sizes[k] * self.values[i][k] * self.values[j][k]
                    for k in range(len(self.classes))
                )
                if dot != (fact if i == j else 0):
                    raise ValueError(f"rows {i},{j} not orthogonal")


def char_table(n: int, max_n: int = MAX_TABLE_N) -> CharTable:
    """The validated character table of S_n, computed from `char_value`.

    Not memoized: its entries come from `char_value`'s cache.
    """
    if not 1 <= n <= max_n:
        raise ValueError(f"n={n} outside supported range 1..{max_n}")
    table = CharTable.compute(n)
    table.validate()
    return table


# ---------------------------------------------------------------------------
# irreps of structural groups (products of SymF and CycF factors)

Irrep = tuple  # one label per factor: Partition for SymF, residue for CycF


def list_irreps(desc: GroupDesc) -> list[Irrep]:
    """All irreps of a GroupDesc, in canonical order.

    Symmetric factors are labeled by partitions in descending lex order
    (trivial first, sign last); cyclic factors by residues 0..d-1.
    """
    choices = []
    for f in desc.factors:
        if isinstance(f, SymF):
            choices.append(list(partitions_of(len(f.positions))))
        else:
            choices.append(list(range(f.order)))
    return [tuple(c) for c in itertools.product(*choices)]


def irrep_dim(desc: GroupDesc, irrep: Irrep) -> int:
    d = 1
    for f, label in zip(desc.factors, irrep):
        if isinstance(f, SymF):
            d *= dim_irrep(label)
    return d


def irrep_sort_key(desc: GroupDesc, irrep: Irrep) -> tuple:
    key = []
    for f, label in zip(desc.factors, irrep):
        if isinstance(f, SymF):
            key.append(tuple(-p for p in label))
        else:
            key.append((label,))
    return tuple(key)


def dual_irrep(desc: GroupDesc, irrep: Irrep) -> Irrep:
    """Contragredient: partitions are self-dual, cyclic residues negate."""
    out = []
    for f, label in zip(desc.factors, irrep):
        if isinstance(f, SymF):
            out.append(label)
        else:
            out.append((-label) % f.order)
    return tuple(out)


# ---------------------------------------------------------------------------
# restricted inner products


@lru_cache(maxsize=None)
def restricted_inner_product(
    sub: GroupDesc,
    g1: GroupDesc,
    irrep1: Irrep,
    g2: GroupDesc,
    irrep2: Irrep,
) -> int:
    """<Res_sub irrep1, Res_sub irrep2> for a common structural subgroup.

    By Frobenius reciprocity this is also <Ind_sub^{g2} Res_sub irrep1,
    irrep2>.  Cyclic factors contribute residue-match 0/1 multipliers; the
    symmetric part is an exact integer class sum over the product of sub's
    symmetric factors plus singleton cells for the positions sub does not
    move, divided by |sub|.  Memoized: a block computation asks for the
    same few products many times.
    """
    if not (is_subgroup(sub, g1) and is_subgroup(sub, g2)):
        raise ValueError("sub must be a structural subgroup of both groups")
    for f in sub.factors:
        if isinstance(f, CycF):
            r1 = _cyclic_residue(f, g1, irrep1)
            r2 = _cyclic_residue(f, g2, irrep2)
            if (r1 - r2) % f.order:
                return 0

    sym_cells, cell_owner1, cell_owner2 = _sym_cells(sub, g1, g2)
    if not sym_cells:
        return 1
    cell_sizes = [len(c) for c in sym_cells]
    movable = [i for i, c in enumerate(sym_cells) if _is_sub_cell(sub, sym_cells[i])]
    total = 0
    order = 1
    for i in movable:
        order *= math.factorial(cell_sizes[i])
    assignments = []
    for i, size in enumerate(cell_sizes):
        if i in movable:
            assignments.append(list(partitions_of(size)))
        else:
            assignments.append([tuple([1] * size)])
    for combo in itertools.product(*assignments):
        weight = 1
        for i in movable:
            weight *= class_size(combo[i])
        v1 = _product_char_value(g1, irrep1, cell_owner1, combo)
        v2 = _product_char_value(g2, irrep2, cell_owner2, combo)
        total += weight * v1 * v2
    if total % order or total < 0:
        raise InternalConsistencyError(f"inner product {total}/{order} not in Z>=0")
    return total // order


def _cyclic_residue(sub_factor: CycF, g: GroupDesc, irrep: Irrep) -> int:
    """Residue of the restriction of g's label on sub_factor's block."""
    for f, label in zip(g.factors, irrep):
        if isinstance(f, CycF) and f.positions == sub_factor.positions:
            if f.order % sub_factor.order:
                raise ValueError("not a cyclic subgroup")
            return label % sub_factor.order
    raise ValueError("cyclic sub-factor has no parent factor")


def _sym_cells(sub: GroupDesc, g1: GroupDesc, g2: GroupDesc):
    """Common refinement cells of the symmetric parts.

    Cells are sub's SymF position sets plus singletons for every position
    that g1 or g2 moves but sub does not.  Returns (cells, owner1, owner2)
    where owner maps a cell index to the index of the parent factor in g1/g2
    (or None when that group does not move the cell).
    """
    sub_sym = [set(f.positions) for f in sub.factors if isinstance(f, SymF)]
    covered = set().union(*sub_sym) if sub_sym else set()
    singles = set()
    for g in (g1, g2):
        for f in g.factors:
            if isinstance(f, SymF):
                singles.update(p for p in f.positions if p not in covered)
    cells = [tuple(sorted(c)) for c in sub_sym]
    cells += [(p,) for p in sorted(singles)]
    owner1 = [_sym_owner(g1, cell) for cell in cells]
    owner2 = [_sym_owner(g2, cell) for cell in cells]
    return cells, owner1, owner2


def _sym_owner(g: GroupDesc, cell: tuple):
    for idx, f in enumerate(g.factors):
        if isinstance(f, SymF) and set(cell) <= set(f.positions):
            return idx
        if isinstance(f, CycF) and set(cell) & set(f.positions):
            if len(cell) > 1:
                raise ValueError("symmetric cell inside a cyclic block")
            return None
    return None


def _is_sub_cell(sub: GroupDesc, cell: tuple) -> bool:
    return any(
        isinstance(f, SymF) and f.positions == cell for f in sub.factors
    )


def _product_char_value(g: GroupDesc, irrep: Irrep, owners, combo) -> int:
    """chi_{irrep restricted}(class) for the symmetric part of g.

    combo assigns a cycle type to each cell; cells owned by the same g-factor
    merge their types, and the g-factor's partition character is evaluated
    there.  Unowned cells are fixed points of g and contribute 1.
    """
    by_factor: dict[int, list] = {}
    for cell_idx, owner in enumerate(owners):
        if owner is not None:
            by_factor.setdefault(owner, []).append(combo[cell_idx])
    value = 1
    for idx, f in enumerate(g.factors):
        if not isinstance(f, SymF):
            continue
        types = by_factor.get(idx, [])
        merged = merge_cycle_types(types)
        missing = len(f.positions) - sum(merged)
        if missing:
            merged = merge_cycle_types([merged, tuple([1] * missing)])
        value *= char_value(irrep[idx], merged)
    return value


def induce_restrict_mult(
    sub: GroupDesc, sub_irrep: Irrep, sup: GroupDesc, sup_irrep: Irrep
) -> int:
    """<Ind_sub^sup sub_irrep, sup_irrep>, by Frobenius reciprocity."""
    if not is_subgroup(sub, sup):
        raise ValueError(f"{sub} is not a structural subgroup of {sup}")
    return restricted_inner_product(sub, sub, sub_irrep, sup, sup_irrep)
