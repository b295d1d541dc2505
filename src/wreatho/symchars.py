"""Exact character theory for symmetric and cyclic groups, and the one
place that knows how an irrep of a stabilizer (a GroupDesc) is labeled.

An irrep carries one label per factor: a partition for a SymF, a residue
for a CycF.  This module lists, orders, dualizes, prints and parses those
labels; other modules pass them through unchanged.

Everything is integer arithmetic: symmetric group characters via the
Murnaghan-Nakayama rule (https://en.wikipedia.org/wiki/Murnaghan-Nakayama_rule),
dimensions via hook lengths, and induction/restriction multiplicities via
Frobenius reciprocity as exact class sums over the subgroup's own factors.
Cyclic group characters are never materialized over a cyclotomic field:
restrictions along chains of cyclic subgroups reduce to residue matching,
and those are the only cyclic multiplicities this package needs.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

from .weights import (
    CycF,
    GroupDesc,
    InternalConsistencyError,
    SymF,
)

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


def char_table(n: int) -> CharTable:
    """The validated character table of S_n, computed from `char_value`.

    Not memoized: its entries come from `char_value`'s cache.
    """
    if not 1 <= n <= MAX_TABLE_N:
        raise ValueError(f"n={n} outside supported range 1..{MAX_TABLE_N}")
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


def irrep_labels(desc: GroupDesc, irrep: Irrep) -> list[str]:
    """One text label per factor: "2,1" for a partition, "j=1" for a residue."""
    return [
        ",".join(str(p) for p in label) if isinstance(f, SymF) else f"j={label}"
        for f, label in zip(desc.factors, irrep)
    ]


def check_irrep(desc: GroupDesc, irrep: Irrep) -> Irrep:
    """Return irrep if it names an irrep of desc: one label per factor, a
    partition of the factor's size or a residue in 0..order-1.  Raises
    ValueError otherwise."""
    if len(irrep) != len(desc.factors):
        raise ValueError(f"{len(irrep)} irrep labels for {len(desc.factors)} factors")
    for f, label in zip(desc.factors, irrep):
        if isinstance(f, SymF):
            allowed = partitions_of(len(f.positions))
        else:
            allowed = range(f.order)
        if label not in allowed:
            raise ValueError(f"irrep label {label!r} names no irrep of {f}")
    return irrep


def parse_irrep_labels(desc: GroupDesc, texts: Sequence[str]) -> Irrep:
    """Inverse of `irrep_labels`; raises ValueError on malformed text and on
    labels that name no irrep of desc."""
    if len(texts) != len(desc.factors):
        raise ValueError(f"{len(texts)} irrep labels for {len(desc.factors)} factors")
    labels = []
    for f, text in zip(desc.factors, texts):
        if isinstance(f, SymF):
            labels.append(tuple(int(p) for p in text.split(",")))
        elif text.startswith("j="):
            labels.append(int(text[2:]))
        else:
            raise ValueError(f"cyclic irrep label {text!r} is not j=<residue>")
    return check_irrep(desc, tuple(labels))


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
    irrep2>.  The sum runs over sub's own factors, each matched to its
    parent factor in g1 and g2 (ValueError when one has none): a cyclic
    factor contributes a residue-match 0/1 multiplier, and the symmetric
    factors an exact integer class sum over their product, divided by its
    order.  Positions sub does not move are fixed points, which
    `_product_char_value` pads in.  Memoized: a block computation asks for
    the same few products many times.
    """
    parents = [(f, _parent_factor(f, g1), _parent_factor(f, g2)) for f in sub.factors]
    if any(i1 is None or i2 is None for _, i1, i2 in parents):
        raise ValueError("sub must be a structural subgroup of both groups")
    sizes, owners1, owners2 = [], [], []
    for f, i1, i2 in parents:
        if isinstance(f, CycF):
            if (irrep1[i1] - irrep2[i2]) % f.order:
                return 0
        else:
            sizes.append(len(f.positions))
            owners1.append(i1)
            owners2.append(i2)
    total = 0
    order = 1
    for size in sizes:
        order *= math.factorial(size)
    for combo in itertools.product(*(partitions_of(size) for size in sizes)):
        weight = 1
        for mu in combo:
            weight *= class_size(mu)
        v1 = _product_char_value(g1, irrep1, owners1, combo)
        v2 = _product_char_value(g2, irrep2, owners2, combo)
        total += weight * v1 * v2
    if total % order or total < 0:
        raise InternalConsistencyError(f"inner product {total}/{order} not in Z>=0")
    return total // order


def _parent_factor(f, sup: GroupDesc):
    """The index of the sup-factor containing f, or None.

    SymF fits in a SymF with a superset of positions; CycF fits in a CycF on
    the identical block with order divisible by its own.
    """
    pos = set(f.positions)
    for i, g in enumerate(sup.factors):
        if isinstance(f, SymF) and isinstance(g, SymF) and pos <= set(g.positions):
            return i
        if (
            isinstance(f, CycF)
            and isinstance(g, CycF)
            and f.positions == g.positions
            and g.order % f.order == 0
        ):
            return i
    return None


def _product_char_value(g: GroupDesc, irrep: Irrep, owners, combo) -> int:
    """chi_{irrep restricted}(class) for the symmetric part of g.

    combo assigns a cycle type to each symmetric factor of the subgroup, and
    owners the index of its parent factor in g; the cycle types inside one
    g-factor merge, the positions they leave are fixed points, and the
    g-factor's partition character is evaluated there.
    """
    parts_by_factor: dict[int, list] = {}
    for owner, mu in zip(owners, combo):
        parts_by_factor.setdefault(owner, []).extend(mu)
    value = 1
    for idx, (f, label) in enumerate(zip(g.factors, irrep)):
        if isinstance(f, SymF):
            parts = sorted(parts_by_factor.get(idx, ()), reverse=True)
            parts += [1] * (len(f.positions) - sum(parts))
            value *= char_value(label, tuple(parts))
    return value
