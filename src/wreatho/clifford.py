"""Classification of the simple finite-dimensional weight-semisimple modules
over the degree-zero part of the skew ring.

A simple is a triple (Gamma-orbit of a weight, stabilizer, stabilizer irrep);
its dimension and weight multiplicities follow from character theory alone,
so no module is ever materialized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from . import symchars
from .symchars import (
    Irrep,
    check_irrep,
    dual_irrep,
    irrep_dim,
    irrep_labels,
    irrep_sort_key,
    list_irreps,
    parse_irrep_labels,
)
from .weights import (
    GammaSpec,
    GroupDesc,
    InternalConsistencyError,
    SymF,
    Weight,
    as_weight,
    canonical_orbit_rep,
    format_weight,
    gamma_cells,
    group_desc,
    hash_once,
    is_subgroup,
    stabilizer,
)


@dataclass(frozen=True)
class SimpleX:
    """A simple object: canonical orbit representative, stabilizer, irrep.

    The hash is computed once and equals the generated value (see
    weights.hash_once).
    """

    orbit_rep: Weight
    stab: GroupDesc
    irrep: Irrep

    __hash__ = hash_once

    def sort_key(self):
        return (self.orbit_rep, self.stab.key(), irrep_sort_key(self.stab, self.irrep))

    def __repr__(self):
        labels = irrep_labels(self.stab, self.irrep)
        irr = "(" + "|".join(labels) + ")" if labels else "(triv)"
        return f"X[{format_weight(self.orbit_rep)};{irr}]"


def validate_simplex(gamma: GammaSpec, x: SimpleX) -> None:
    check_irrep(x.stab, x.irrep)  # first: the messages below print the labels
    if x.orbit_rep != canonical_orbit_rep(gamma, x.orbit_rep):
        raise ValueError(f"{x} orbit representative is not canonical")
    if x.stab != stabilizer(gamma, x.orbit_rep):
        raise ValueError(f"{x} carries the wrong stabilizer")


def orbit_size(gamma: GammaSpec, x: SimpleX) -> int:
    return gamma.group().order // x.stab.order


def dim_m(gamma: GammaSpec, x: SimpleX) -> int:
    """dim of the underlying simple: [Gamma : stab] * dim(irrep)."""
    return orbit_size(gamma, x) * irrep_dim(x.stab, x.irrep)


def classify_X_over(gamma: GammaSpec, lam: Weight) -> list[SimpleX]:
    """All simples whose orbit contains lam: one per stabilizer irrep."""
    rep = canonical_orbit_rep(gamma, lam)
    stab = stabilizer(gamma, rep)
    out = [SimpleX(rep, stab, irr) for irr in list_irreps(stab)]
    out.sort(key=SimpleX.sort_key)
    return out


def weight_mult(gamma: GammaSpec, x: SimpleX, mu: Weight) -> int:
    """dim of the mu weight space: dim(irrep) on the orbit, 0 off it."""
    if canonical_orbit_rep(gamma, mu) == x.orbit_rep:
        return irrep_dim(x.stab, x.irrep)
    return 0


def duality_F(x: SimpleX) -> SimpleX:
    """Contragredient twist: same orbit and stabilizer, dual irrep."""
    return SimpleX(x.orbit_rep, x.stab, dual_irrep(x.stab, x.irrep))


def transport_irrep(
    gamma: GammaSpec, src_weight: Weight, src_stab: GroupDesc, irrep: Irrep
) -> SimpleX:
    """The SimpleX with canonical data matching (src_weight, irrep).

    Conjugating a stabilizer onto the canonical representative's stabilizer
    matches factors by enclosing Gamma-factor and weight value (symmetric
    case) or by block (cyclic case); partition labels and residues carry
    over unchanged.
    """
    rep = canonical_orbit_rep(gamma, src_weight)
    dst_stab = stabilizer(gamma, rep)
    if src_weight == rep:
        if src_stab != dst_stab:
            raise InternalConsistencyError(f"stabilizer mismatch at {rep}")
        return SimpleX(rep, dst_stab, irrep)
    src_by_key = {}
    for f, label in zip(src_stab.factors, irrep):
        src_by_key[_factor_key(gamma, src_weight, f)] = label
    out = []
    for f in dst_stab.factors:
        key = _factor_key(gamma, rep, f)
        if key not in src_by_key:
            raise ValueError("stabilizers do not correspond")
        out.append(src_by_key[key])
    return SimpleX(rep, dst_stab, tuple(out))


def _factor_key(gamma: GammaSpec, weight: Weight, f) -> tuple:
    """Conjugation-invariant identity of a stabilizer factor."""
    cell = next(span for _, span in gamma_cells(gamma) if f.positions[0] in span)
    if isinstance(f, SymF):
        return ("S", cell, weight[f.positions[0]], len(f.positions))
    return ("C", cell, f.order)


def decompose_induced(
    gamma: GammaSpec, lam: Weight, from_stab: GroupDesc, carried: Irrep
) -> dict[SimpleX, int]:
    """Decompose Ind_{from_stab}^{Stab(lam)}(carried) into simples over the
    orbit of lam: {simple: multiplicity}, nonzero multiplicities only.

    This is Clifford theory's statement that a simple over the orbit is
    named by an irrep of the stabilizer, with the multiplicities given by
    Frobenius reciprocity.
    """
    stab = stabilizer(gamma, lam)
    if not is_subgroup(from_stab, stab):
        raise ValueError("from_stab is not contained in the weight stabilizer")
    out = {}
    for irr in list_irreps(stab):
        mult = symchars.induce_restrict_mult(from_stab, carried, stab, irr)
        if mult:
            out[transport_irrep(gamma, lam, stab, irr)] = mult
    return out


# ---------------------------------------------------------------------------
# products across blocks


def concat_weights(lams: list[Weight]) -> Weight:
    return tuple(itertools.chain.from_iterable(lams))


def concat_gammas(gammas: list[GammaSpec]) -> GammaSpec:
    blocks = []
    for g in gammas:
        blocks.extend(g.blocks)
    return GammaSpec(tuple(blocks))


def concat_simplex(gammas: list[GammaSpec], xs: list[SimpleX]) -> SimpleX:
    """The product simple over the concatenated spec ("X = prod X_j")."""
    big = concat_gammas(gammas)
    rep = []
    factors = []
    labels = []
    offset = 0
    for g, x in zip(gammas, xs):
        rep.extend(x.orbit_rep)
        for f, label in zip(x.stab.factors, x.irrep):
            factors.append(replace(f, positions=tuple(p + offset for p in f.positions)))
            labels.append(label)
        offset += g.n
    stab = group_desc(big.n, factors)
    order = sorted(range(len(factors)), key=lambda i: factors[i].positions[0])
    return SimpleX(tuple(rep), stab, tuple(labels[i] for i in order))


def simplex_to_json(gamma: GammaSpec, x: SimpleX) -> dict:
    stab_parts = [
        f"S:{len(f.positions)}" if isinstance(f, SymF) else f"C:{f.order}"
        for f in x.stab.factors
    ]
    return {
        "orbit_rep": [str(c) for c in x.orbit_rep],
        "stab": "|".join(stab_parts) if stab_parts else "1",
        "irrep": irrep_labels(x.stab, x.irrep),
    }


def simplex_from_json(gamma: GammaSpec, data: dict) -> SimpleX:
    """Rebuild a SimpleX; the orbit rep is made canonical, the stabilizer is
    rederived from it and the labels are checked against it.  Both fields
    must be lists (orbit_rep of coordinates, irrep of label strings), else
    ValueError."""
    rep, labels = data["orbit_rep"], data["irrep"]
    if not isinstance(rep, (list, tuple)):
        raise ValueError(f"orbit_rep must be a list of coordinates, not {rep!r}")
    if not isinstance(labels, (list, tuple)) or not all(
        isinstance(text, str) for text in labels
    ):
        raise ValueError(f"irrep must be a list of label strings, not {labels!r}")
    rep = canonical_orbit_rep(gamma, as_weight(rep))
    stab = stabilizer(gamma, rep)
    return SimpleX(rep, stab, parse_irrep_labels(stab, labels))
