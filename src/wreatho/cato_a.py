"""Category O over the plain tensor factor (trivial group): rank-1 Verma
composition series, their products, linkage sets, and formal characters in
the Verma basis.

A formal character is stored as a finite integer combination of Verma
characters; evaluating at a weight nu sums Kostant counts, which for sl2^n
are 0/1 (all coordinate differences even nonnegative integers).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .poly import exact
from .weights import (
    Weight,
    as_weight,
    coord,
    flip_coord,
    flip_subset,
    integral_flip_positions,
    is_dominant_integral,
    is_even_nonneg_int,
    leq,
    weight_from_json,
)


def verma_factors_sl2(lam: Fraction) -> list[tuple[Fraction, int]]:
    """Composition factors of the rank-1 Verma with highest weight lam.

    [(lam,1)] when lam is not a nonnegative integer, else the extra factor
    at the flipped weight -lam-2.
    """
    lam = coord(lam)
    if lam.denominator == 1 and lam >= 0:
        return [(lam, 1), (flip_coord(lam), 1)]
    return [(lam, 1)]


def is_weight_sl2(y: Fraction, c: Fraction, simple: bool) -> bool:
    """Is y a weight of the rank-1 simple L(c) (simple) or Verma Z(c)?

    Z(c) has the weights c, c-2, c-4, ...  L(c) is the finite string
    c, c-2, ..., -c when c is a nonnegative integer, and Z(c) otherwise.
    """
    if not is_even_nonneg_int(c - y):
        return False
    return not (simple and c.denominator == 1 and c >= 0) or y >= -c


def verma_factors_A(lam: Weight) -> dict[Weight, int]:
    """Composition factors of the rank-n Verma: products of rank-1 series."""
    lam = as_weight(lam)
    per_coord = [verma_factors_sl2(c) for c in lam]
    out: dict[Weight, int] = {}
    for combo in itertools.product(*per_coord):
        w = tuple(c for c, _ in combo)
        m = 1
        for _, k in combo:
            m *= k
        out[w] = out.get(w, 0) + m
    return out


def s_sets_A(lam: Weight, m: int) -> set[Weight]:
    """The linkage sets S^1..S^4 of a weight for the plain tensor algebra.

    S^3 is the equivalence closure of the rank-1 subquotient relation (per
    coordinate {c, -c-2} when c is an integer); S^4 is the full dot orbit
    {c, -c-2} regardless; S^2 = S^3; S^1 truncates S^3 below lam.
    """
    lam = as_weight(lam)
    if m not in (1, 2, 3, 4):
        raise ValueError("m must be 1..4")
    if m == 4:
        per = [{c, flip_coord(c)} for c in lam]
        return set(itertools.product(*per))
    per = [
        {c, flip_coord(c)} if c.denominator == 1 else {c} for c in lam
    ]
    s3 = set(itertools.product(*per))
    if m == 1:
        return {mu for mu in s3 if leq(mu, lam)}
    return s3


class CharacterVB:
    """A formal character as an integer combination of Verma characters."""

    def __init__(self, rank: int, terms=None):
        self.rank = rank
        self.terms: dict[Weight, int] = {}
        if terms:
            for hw, coef in dict(terms).items():
                coef = exact(coef)
                if type(coef) is not int:
                    raise ValueError(f"multiplicity {coef} is not an integer")
                self._bump(as_weight(hw), coef)

    def _bump(self, hw: Weight, coef: int) -> None:
        if len(hw) != self.rank:
            raise ValueError("rank mismatch")
        new = self.terms.get(hw, 0) + coef
        if new:
            self.terms[hw] = new
        else:
            self.terms.pop(hw, None)

    def __add__(self, other: "CharacterVB") -> "CharacterVB":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = CharacterVB(self.rank, self.terms)
        for hw, coef in other.terms.items():
            out._bump(hw, coef)
        return out

    def scale(self, k: int) -> "CharacterVB":
        return CharacterVB(self.rank, {hw: k * c for hw, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, CharacterVB)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def evaluate(self, nu: Weight) -> int:
        """Dimension of the nu weight space: sum of Kostant counts."""
        nu = as_weight(nu)
        if len(nu) != self.rank:
            raise ValueError("rank mismatch")
        total = 0
        for hw, coef in self.terms.items():
            if all(is_even_nonneg_int(h - x) for h, x in zip(hw, nu)):
                total += coef
        return total

    def concat_product(self, other: "CharacterVB") -> "CharacterVB":
        """Product of characters living on disjoint coordinate groups."""
        out = CharacterVB(self.rank + other.rank)
        for hw1, c1 in self.terms.items():
            for hw2, c2 in other.terms.items():
                out._bump(hw1 + hw2, c1 * c2)
        return out

    def support(self) -> list[Weight]:
        return sorted(self.terms)

    def to_json(self) -> dict:
        return {
            "basis": "verma",
            "terms": [
                {"hw": [str(c) for c in hw], "coef": coef}
                for hw, coef in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "CharacterVB":
        if data.get("basis") != "verma":
            raise ValueError("unknown character basis")
        terms = {}
        rank = None
        for t in data["terms"]:
            hw, coef = weight_from_json(t["hw"], "hw"), t["coef"]
            if isinstance(coef, bool):
                raise ValueError(f"coef must be an integer, not {coef!r}")
            if hw in terms:
                raise ValueError(f"two terms with hw {t['hw']!r}")
            rank = len(hw)
            terms[hw] = coef
        if rank is None:
            raise ValueError("empty character needs an explicit rank")
        return CharacterVB(rank, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        from .weights import format_weight

        parts = []
        for hw in sorted(self.terms):
            c = self.terms[hw]
            sign = "+" if c >= 0 else "-"
            mag = abs(c)
            coef = "" if mag == 1 else f"{mag}*"
            parts.append(f"{sign} {coef}Z({format_weight(hw)})")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


def ch_verma(lam: Weight) -> CharacterVB:
    lam = as_weight(lam)
    return CharacterVB(len(lam), {lam: 1})


def ch_simple_A(lam: Weight) -> CharacterVB:
    """Character of the simple quotient, by inclusion-exclusion over flips."""
    lam = as_weight(lam)
    flips = integral_flip_positions(lam)
    out = CharacterVB(len(lam))
    for r in range(len(flips) + 1):
        for subset in itertools.combinations(flips, r):
            out._bump(flip_subset(lam, set(subset)), (-1) ** r)
    return out


def dim_simple_A(lam: Weight):
    """prod(lam_i + 1) for dominant integral weights, else None (infinite)."""
    lam = as_weight(lam)
    if not is_dominant_integral(lam):
        return None
    d = 1
    for c in lam:
        d *= int(c) + 1
    return d


def length_Z_A(lam: Weight) -> int:
    """Length of the rank-n Verma: 2 per coordinate with a flip."""
    return 2 ** len(integral_flip_positions(as_weight(lam)))
