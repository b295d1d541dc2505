"""Seeded operation lists for the four workloads.

Each workload runs a fixed list of operation templates in a fixed order,
so every seed costs about the same (the cost envelope) and warms the
caches in the same order.  The seed chooses the concrete weight values,
the irreps, the mu of each cc, the expressions and their coefficients; the
cost of a template depends on its shape, not on the values chosen for it.

An operation is a dict:
  id       stable text naming the complete input (key of digests.json)
  kind     "cli" (args for the wreatho entry point, run in-process) or one
           of the API kinds "s3_component", "center", "no_go",
           "central_character"
  args     CLI argument list, or keyword arguments of the API kind
  product  (blocks only) True for a multi-factor group spec
  expect   facts known from construction that the output check uses
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("blocks", "center", "nogo", "char")

# ---------------------------------------------------------------------------
# weight shapes
#
# A shape names each coordinate by a symbol.  Letters a-f stand for distinct
# nonnegative integers, h and i for distinct positive half-integers; equal
# symbols give equal coordinates.  Flips c -> -c-2 of nonnegative integers
# are negative, so no two symbols can become equal under the dot action:
# the linkage structure (and so the cost) is fixed by the shape alone.

_INTS = range(0, 6)
# h and i differ by an odd integer, so they never share a parity class
_HALVES = {
    "h": (Fraction(1, 2), Fraction(5, 2), Fraction(9, 2)),
    "i": (Fraction(3, 2), Fraction(7, 2), Fraction(11, 2)),
}


def _instantiate(shape: str, rng: random.Random) -> list[Fraction]:
    symbols = shape.split(",")
    ints = [s for s in dict.fromkeys(symbols) if s in "abcdef"]
    value = dict(zip(ints, rng.sample(_INTS, len(ints))))
    value.update((s, rng.choice(_HALVES[s])) for s in symbols if s in _HALVES)
    return [Fraction(value[s]) if s in value else Fraction(s) for s in symbols]


def fmt_weight(lam) -> str:
    return ",".join(str(c) for c in lam)


# ---------------------------------------------------------------------------
# group specs: independent orbit enumeration (used by the generator and by
# the output checks, never by the program)


def parse_spec(text: str) -> list[tuple[str, tuple]]:
    """[(kind, data)] with kind "S" (Young sizes), "C" or "1" (width)."""
    out = []
    for raw in text.split(";"):
        kind, args = raw.split(":")
        if kind == "S":
            out.append(("S", tuple(int(a) for a in args.split(","))))
        else:
            out.append((kind, (int(args),)))
    return out


def spec_factors(text: str) -> list[tuple[str, list[int]]]:
    """Coordinate groups moved by one factor: ("S", positions) or ("C", ...)."""
    out = []
    pos = 0
    for kind, data in parse_spec(text):
        if kind == "S":
            for size in data:
                out.append(("S", list(range(pos, pos + size))))
                pos += size
        else:
            width = data[0]
            out.append((kind, list(range(pos, pos + width))))
            pos += width
    return out


def orbit(text: str, lam) -> set[tuple]:
    """The Gamma-orbit of lam, by brute-force enumeration of the factors."""
    import itertools

    points = {tuple(lam)}
    for kind, pos in spec_factors(text):
        if kind == "1" or len(pos) < 2:
            continue
        new = set()
        for mu in points:
            vals = [mu[p] for p in pos]
            if kind == "S":
                arrangements = set(itertools.permutations(vals))
            else:
                arrangements = {tuple(vals[r:] + vals[:r]) for r in range(len(vals))}
            for arr in arrangements:
                nu = list(mu)
                for p, v in zip(pos, arr):
                    nu[p] = v
                new.add(tuple(nu))
        points = new
    return points


def is_product_spec(text: str) -> bool:
    """More than one factor (Young factor or block): the block is a tensor
    product of smaller blocks."""
    return len(spec_factors(text)) > 1


# ---------------------------------------------------------------------------
# blocks: block for every simple over lam, s3_component per simple, and cc
# against a seeded mu.

# Templates are fixed; the seed picks the values and mu.  Single-factor
# specs (S:n, C:m) bypass the tensor factorization of blocks, multi-factor
# ones use it.  The first two are the dense anchors, 100-simple blocks over a
# multi-factor and a single-factor group, so the Cartan products of 100+
# blocks stay visible; their eight block calls are the tail cluster.  The
# round's median falls among some twenty s3_component calls of 20-26 ms
# (S:5, C:6, S:3;C:2, ...), not on the slope between them and the cheap
# small-group calls below, where it would follow single operations.
_BLOCK_TEMPLATES = [
    ("S:2,2,2", "a,a,b,b,c,d"),
    ("S:6", "a,a,b,b,c,d"),
    ("S:5", "a,a,b,b,c"),
    ("C:6", "a,b,a,b,a,b"),
    ("S:6", "a,b,c,d,e,f"),
    ("S:4", "a,a,b,c"),
    ("S:4", "h,h,a,a"),
    ("C:4", "a,b,c,d"),
    ("S:3;C:2", "a,a,a,a,a"),
    ("S:2;C:3;1:1", "a,a,b,c,d,h"),
    ("S:2,2", "a,a,a,a"),
    ("S:2,2,2", "a,b,c,c,d,h"),
    ("S:3;C:2", "a,a,b,c,a"),
    ("C:3;C:3", "a,b,c,a,b,h"),
    ("S:2;S:2;1:1", "a,a,b,b,h"),
]


def _count_simples(spec: str, lam) -> int:
    """Number of stabilizer irreps: product over factors of the irreps of
    the stabilizer's pieces (Young factors split by equal values, cyclic
    factors by their rotation symmetry)."""
    total = 1
    for kind, pos in spec_factors(spec):
        vals = [lam[p] for p in pos]
        if kind == "S":
            for v in set(vals):
                total *= _partition_count(vals.count(v))
        elif kind == "C":
            m = len(vals)
            period = next(
                d for d in range(1, m + 1) if m % d == 0 and vals == vals[d:] + vals[:d]
            )
            total *= m // period
    return total


def _partition_count(k: int) -> int:
    table = [1] + [0] * k
    for part in range(1, k + 1):
        for s in range(part, k + 1):
            table[s] += table[s - part]
    return table[k]


def _flip_perm_mu(spec: str, lam, rng: random.Random, equal: bool):
    """A mu with the same central character as lam (Gamma-permuted dot
    flips), or a shifted one with a different central character."""
    if not equal:
        mu = list(lam)
        mu[rng.randrange(len(mu))] += 1
        return mu
    mu = [(-c - 2 if rng.random() < 0.5 else c) for c in lam]
    return list(rng.choice(sorted(orbit(spec, mu))))


def _blocks_group(spec, shape, rng):
    product = is_product_spec(spec)
    lam = _instantiate(shape, rng)
    w = fmt_weight(lam)
    ops = []
    for i in range(_count_simples(spec, lam)):
        ops.append(
            dict(
                id=f"block {spec} {w} {i}",
                kind="cli",
                args=["block", "--gamma", spec, "--weight", w, "--irrep", str(i)],
                product=product,
            )
        )
        ops.append(
            dict(
                id=f"s3_component {spec} {w} {i}",
                kind="s3_component",
                args=dict(gamma=spec, weight=w, irrep=i),
                product=product,
            )
        )
    equal = rng.random() < 0.5
    mu = fmt_weight(_flip_perm_mu(spec, lam, rng, equal))
    ops.append(
        dict(
            id=f"cc {spec} {w} {mu}",
            kind="cli",
            args=["cc", "--gamma", spec, "--weight", w, "--mu", mu],
            product=product,
            expect=dict(equal=equal),
        )
    )
    return ops


def _blocks(rng: random.Random) -> list[dict]:
    return [op for spec, shape in _BLOCK_TEMPLATES for op in _blocks_group(spec, shape, rng)]


# ---------------------------------------------------------------------------
# center: the whole desk-scale range except n=2, dmax=4 with a nontrivial
# group (13-19 s alone).  There is nothing to draw: every seed runs the
# same thirteen systems.

_CENTER_CASES = [(1, d, None) for d in (2, 3, 4)] + [
    (2, d, g)
    for d in (2, 3, 4)
    for g in (None, "S:2", "C:2", "1:2")
    if not (d == 4 and g in ("S:2", "C:2"))
]


def _center(rng: random.Random) -> list[dict]:
    return [
        dict(
            id=f"center {n} {d} {g or '-'}",
            kind="center",
            args=dict(n=n, dmax=d, gamma=g),
        )
        for n, d, g in _CENTER_CASES
    ]


# ---------------------------------------------------------------------------
# nogo: the deformation obstruction, PBW products and powers with symbolic
# coefficients, and central characters of the power sums p_k.


def _rational(rng: random.Random) -> Fraction:
    """A nonzero rational: zero coefficients would drop terms and cost."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))


def _f_coeffs(rng: random.Random, degree: int, symbolic: int) -> list[str]:
    """Coefficients of f of the given degree, `symbolic` of them t0..t2."""
    coeffs = [str(_rational(rng)) for _ in range(degree + 1)]
    for k in rng.sample(range(degree + 1), symbolic):
        coeffs[k] = f"t{rng.randrange(3)}"
    return coeffs


# PBW products and powers: (rank, [(factor, power)], group element).  The
# algebra is symmetric under relabelling the tensor factors, so the seed
# permutes the indices {i},{j},{k} and draws the coefficients {q} (rational)
# and {t} (rational times t0..t2) without changing the cost.  The three
# quartic powers of a linear form and the rank-3 fifth power cost about the
# same and hold the round's median latency.
_PBW_TEMPLATES = [
    (2, [("{q}*e{i} + {t}*f{i} + {q}*h{j}", 4)], None),
    (2, [("{q}*f{i} + {t}*e{j} + {q}*h{i}", 4)], None),
    (2, [("{q}*e{i} + {q}*{t}*f{j} + {q}*h{i}*h{j}", 4)], None),
    (2, [("{q}*e{i}*f{j} + {t}*h{i} + {q}", 5)], None),
    (2, [("{q}*e{i}*f{i} + {t}*h{j} + c", 3), ("{q}*f{j} + {q}*e{j}", 3)], None),
    (2, [("{q}*h{i} + {t}*e{i} + {q}*f{j}", 4)], None),
    (
        2,
        [
            ("{q}*e{i} + {t}*f{j}", 1),
            ("{q}*f{i} + {q}*h{j}", 1),
            ("{t}*e{j} + {q}*h{i}", 1),
            ("{q}*f{j}*e{i} + {t}", 1),
        ],
        "s(1,2)",
    ),
    (3, [("{q}*e{i} + {t}*f{i} + {q}*h{k}", 5)], None),
    (3, [("{q}*e{i} + {t}*f{j} + {q}*h{k}", 5)], None),
    (3, [("{q}*e{i}*f{j} + {q}*e{j}*f{k} + {t}*h{i}", 4)], "cyc(1..3)"),
]


def _pbw_factor(pattern: str, rng: random.Random, index: dict) -> str:
    out = pattern
    for name, value in index.items():
        out = out.replace("{" + name + "}", str(value))
    while "{q}" in out:
        out = out.replace("{q}", str(Fraction(rng.randint(1, 5), rng.randint(1, 4))), 1)
    while "{t}" in out:
        q = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        out = out.replace("{t}", f"{q}*t{rng.randrange(3)}", 1)
    return out


def _pbw_op(rng: random.Random, template) -> dict:
    n, factors, group = template
    index = dict(zip("ijk", rng.sample(range(1, n + 1), n)))
    factors = [[_pbw_factor(f, rng, index), k] for f, k in factors]
    if group:
        factors.append([group, 1])
    expr = "*".join(f"({f})^{k}" if k > 1 else f"({f})" for f, k in factors)
    return dict(
        id=f"pbw {n} {expr}",
        kind="cli",
        args=["pbw", "--n", str(n), "--expr", expr, "--format", "json"],
        expect=dict(n=n, factors=factors),
    )


# (n, degree of f, symbolic coefficients); rational f goes through the CLI,
# symbolic f through the API (the CLI takes rationals only).
_NO_GO_TEMPLATES = [(2, 1, 0), (2, 3, 0), (3, 3, 0), (2, 2, 2), (3, 3, 2)]


def _nogo(rng: random.Random) -> list[dict]:
    ops = []
    for n, degree, symbolic in _NO_GO_TEMPLATES:
        f = _f_coeffs(rng, degree, symbolic)
        if symbolic:
            ops.append(
                dict(id=f"no_go {n} {','.join(f)}", kind="no_go", args=dict(n=n, f=f))
            )
        else:
            ops.append(
                dict(
                    id=f"appendix {n} {','.join(f)}",
                    kind="cli",
                    args=["appendix", "--n", str(n), "--f", ",".join(f)],
                )
            )
    for template in _PBW_TEMPLATES:
        ops.append(_pbw_op(rng, template))
    for n, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
        lam = [_rational(rng) for _ in range(n)]
        w = fmt_weight(lam)
        ops.append(
            dict(
                id=f"central_character {n} {k} {w}",
                kind="central_character",
                args=dict(n=n, k=k, weight=w),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# char: weight-space dimensions of V and Z modules.  The templates mix
# finite simples (dominant integral weights, depth covering the whole
# module) with infinite ones.

# (module, spec, shape, depth); depth None means "the whole finite module".
# Integral coordinates are fixed, so the flips and the overlaps of the cones
# below the support (and with them the cost) do not depend on the seed; the
# seed draws the half-integers h, i and the irrep.  The first is the
# anchor: V over S:6 at 0^6, one weight space found among thousands of
# weights enumerated.  The next three cost about the same, so the tail
# percentile falls inside their cluster rather than between two operations.
# Likewise the median: eight operations cost more than the three finite C:3
# modules of weight sum 3 (about 50 ms each, whatever the seed), eight cost
# less, so the round's median is the middle one of the three.
_CHAR_TEMPLATES = [
    ("V", "S:6", "0,0,0,0,0,0", 3),
    ("V", "S:6", "0,0,0,0,0,0", 2),
    ("V", "S:4", "1,1,0,0", None),
    ("Z", "S:4", "h,i,0,1", 5),
    ("V", "C:4", "0,1,0,1", 4),
    ("V", "S:3", "0,1,2", None),
    ("Z", "S:2,2", "1,1,0,h", 6),
    ("V", "S:2;1:2", "1,1,h,2", 5),
    ("V", "S:2", "1,0", None),
    ("V", "S:3", "1,1,1", None),
    ("V", "C:3", "2,1,0", None),
    ("V", "C:3", "0,1,2", None),
    ("V", "C:3", "3,0,0", None),
    ("V", "C:3", "3,1,0", None),
    ("Z", "S:3", "0,1,h", 4),
    ("Z", "C:4", "1,1,0,0", 3),
    ("V", "S:2;1:1", "1,1,h", 5),
    ("Z", "S:6", "0,0,0,0,0,0", 3),
    ("V", "S:2,2", "1,1,0,0", None),
]


def _char_op(rng, module, spec, shape, depth):
    lam = _instantiate(shape, rng)
    finite = module == "V" and all(c.denominator == 1 and c >= 0 for c in lam)
    if depth is None:
        depth = int(sum(lam))
    irrep = rng.randrange(_count_simples(spec, lam))
    w = fmt_weight(lam)
    return dict(
        id=f"char {module} {spec} {w} {irrep} {depth}",
        kind="cli",
        args=[
            "char", "--module", module, "--gamma", spec, "--weight", w,
            "--irrep", str(irrep), "--depth", str(depth), "--format", "json",
        ],
        expect=dict(finite=finite and depth >= sum(lam)),
    )


def _char(rng: random.Random) -> list[dict]:
    return [_char_op(rng, *template) for template in _CHAR_TEMPLATES]


_BUILDERS = {"blocks": _blocks, "center": _center, "nogo": _nogo, "char": _char}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The fixed operation list of one run of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    ids = [op["id"] for op in ops]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate operation ids in {workload} seed {seed}")
    return ops
