"""Output checks, run outside the timed region on a round's outputs.

check(op, text, blocks) returns None when the output is right, else a
reason.
The checks recompute what they can in plain integers and rationals
(block reciprocity, orbits, weight multiplicities, p_k eigenvalues, known
nullities).  Where they need the algebra itself (commutators, products)
they multiply in a different order than the program did.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from fractions import Fraction
from math import factorial

import workloads

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def check(op: dict, text: str, blocks: dict) -> str | None:
    """blocks collects the block outputs of the round, keyed by (gamma,
    weight); each s3_component output is checked against its block."""
    try:
        if op["kind"] == "cli":
            return _CLI_CHECKS[op["args"][0]](op, text, blocks)
        return _API_CHECKS[op["kind"]](op, text, blocks)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


# ---------------------------------------------------------------------------
# blocks


def _block(op, text, blocks):
    data = json.loads(text)
    D, F, C, Cp = data["D"], data["F"], data["C"], data["Cprime"]
    k = len(data["order"])
    if not all(len(m) == k and all(len(r) == k for r in m) for m in (D, F, C, Cp)):
        return "matrix shapes differ from the number of simples"
    for i in range(k):
        if D[i][i] != 1 or any(D[i][j] for j in range(i)):
            return "D is not unitriangular"
    perm = []
    for j in range(k):
        col = [F[i][j] for i in range(k)]
        if sorted(col) != [0] * (k - 1) + [1]:
            return "F is not a permutation matrix"
        perm.append(col.index(1))
    if sorted(perm) != list(range(k)) or any(perm[perm[j]] != j for j in range(k)):
        return "F is not an involutive permutation"
    # C = F D^T F D with F the involution perm: (F M)[i][j] = M[perm[i]][j]
    DT = [list(r) for r in zip(*D)]
    FDT = [DT[perm[i]] for i in range(k)]
    FDTF = [[row[perm[j]] for j in range(k)] for row in FDT]
    expected = [
        [sum(a * D[m][j] for m, a in enumerate(row) if a) for j in range(k)]
        for row in FDTF
    ]
    if expected != C:
        return "C differs from F D^T F D"
    if Cp != [[row[perm[j]] for j in range(k)] for row in C]:
        return "C' differs from C F"
    if any(Cp[i][j] != Cp[j][i] for i in range(k) for j in range(i)):
        return "C' is not symmetric"
    gamma, weight, irrep = op["args"][2], op["args"][4], int(op["args"][6])
    if x_json(gamma, weight, irrep) not in data["order"]:
        return "the block does not contain its simple"
    blocks[(gamma, weight)] = data
    return None


def x_json(gamma: str, weight: str, irrep: int) -> dict:
    """The simple number irrep over weight, as the program labels it."""
    from wreatho import classify_X_over, parse_gamma, parse_weight
    from wreatho.clifford import simplex_to_json

    g = parse_gamma(gamma)
    return simplex_to_json(g, classify_X_over(g, parse_weight(weight))[irrep])


def _s3_component(op, text, blocks):
    comp = json.loads(text)
    a = op["args"]
    block = blocks.get((a["gamma"], a["weight"]))
    if block is None:
        return "no block output to compare the component with"
    order = block["order"]
    try:
        members = {order.index(y) for y in comp}
    except ValueError:
        return "component leaves the block"
    if order.index(x_json(a["gamma"], a["weight"], a["irrep"])) not in members:
        return "component misses its simple"
    D, F = block["D"], block["F"]
    k = len(order)
    for i in members:
        for j in range(k):
            linked = D[i][j] or D[j][i] or F[i][j]
            if linked and j not in members:
                return "component is not closed under subquotients and duality"
    return None


def _cc(op, text, blocks):
    data = json.loads(text)
    if data["orbit_test"] != data["invariant_test"] or data["equal"] != data["orbit_test"]:
        return "orbit and invariant tests disagree"
    if data["equal"] != op["expect"]["equal"]:
        return f"equal is {data['equal']}, constructed as {op['expect']['equal']}"
    return None


# ---------------------------------------------------------------------------
# center


def _known_nullity(n: int, dmax: int, gamma: str | None) -> int:
    """Monomials in the Casimirs Omega_i (degree 2 each) of degree <= dmax,
    up to the permutations of Gamma."""
    exps = [e for e in itertools.product(range(dmax // 2 + 1), repeat=n) if 2 * sum(e) <= dmax]
    if gamma is None:
        return len(exps)
    return len({min(workloads.orbit(gamma, e)) for e in exps})


def _center(op, text, blocks):
    from wreatho.pbw import Algebra, commutator, element_from_json
    from wreatho.weights import parse_gamma

    a = op["args"]
    gamma = parse_gamma(a["gamma"]) if a["gamma"] else None
    alg = Algebra(a["n"], gamma)
    basis = [element_from_json(z, alg) for z in json.loads(text)]
    expected = _known_nullity(a["n"], a["dmax"], a["gamma"])
    if len(basis) != expected:
        return f"nullity {len(basis)}, known {expected}"
    gens = [alg.gen(kind, i) for i in range(a["n"]) for kind in "efh"]
    if gamma:
        gens += [alg.group_element(p) for p in gamma.group().generators()]
    for z in basis:
        if z.is_zero():
            return "zero basis element"
        for g in gens:
            if not commutator(z, g).is_zero():
                return "a basis element does not commute with a generator"
    return None


# ---------------------------------------------------------------------------
# nogo


def _no_go(op, text, blocks):
    """appendix and the API no-go both print the verify_no_go report."""
    report = json.loads(text)
    if report["solution_space_dim"] != 0:
        return f"solution space dimension {report['solution_space_dim']}"
    if report["forced_zero"] != ["c", "d", "u", "v", "w"]:
        return f"forced zero {report['forced_zero']}"
    return None


def _central_character(op, text, blocks):
    a = op["args"]
    lam = [Fraction(c) for c in a["weight"].split(",")]
    expected = sum((c + c * c / 2) ** a["k"] for c in lam)
    identity = ",".join(str(i) for i in range(a["n"]))
    got = json.loads(text)
    if expected == 0:
        return None if got == {} else f"chi = {got}, expected 0"
    if set(got) != {identity} or Fraction(got[identity]) != expected:
        return f"chi = {got}, expected {expected}"
    return None


def _pbw(op, text, blocks):
    from wreatho.pbw import Algebra, element_from_json, parse_expr

    e = op["expect"]
    alg = Algebra(e["n"])
    got = element_from_json(json.loads(text), alg)
    expected = alg.one()
    for factor, power in reversed(e["factors"]):
        value = parse_expr(factor, alg)
        for _ in range(power):
            expected = value * expected
    if got != expected:
        return "differs from the right-to-left product of its factors"
    return None


# ---------------------------------------------------------------------------
# char


def _partition_dim(label: str) -> int:
    """Hook length formula."""
    parts = [int(p) for p in label.split(",")]
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])]
    hooks = 1
    for i, p in enumerate(parts):
        for j in range(p):
            hooks *= (p - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(parts)) // hooks


def _char(op, text, blocks):
    args = dict(zip(op["args"][1::2], op["args"][2::2]))
    data = json.loads(text)
    lam = [Fraction(c) for c in args["--weight"].split(",")]
    x = x_json(args["--gamma"], args["--weight"], int(args["--irrep"]))
    irrep_dim = 1
    for label in x["irrep"]:
        if not label.startswith("j="):
            irrep_dim *= _partition_dim(label)
    orb = workloads.orbit(args["--gamma"], lam)
    depth = int(args["--depth"])

    def below(mu, nu):
        return all((m - v).denominator == 1 and m - v >= 0 and (m - v) % 2 == 0
                   for m, v in zip(mu, nu))

    rows = {tuple(Fraction(c) for c in r["weight"].split(",")): r["dim"] for r in data["dims"]}
    if any(d <= 0 for d in rows.values()):
        return "a listed weight space has dimension <= 0"
    for nu, d in rows.items():
        z_dim = irrep_dim * sum(1 for mu in orb if below(mu, nu))
        if args["--module"] == "Z" and d != z_dim:
            return f"Z weight {nu}: dim {d}, expected {z_dim}"
        if args["--module"] == "V" and d > z_dim:
            return f"V weight {nu}: dim {d} exceeds the Verma's {z_dim}"
    if args["--module"] == "Z":
        n = len(lam)
        reach = {
            tuple(m - 2 * s for m, s in zip(mu, steps))
            for mu in orb
            for total in range(depth + 1)
            for steps in _compositions(total, n)
        }
        if set(rows) != reach:
            return "Z weights differ from the orbit's cones down to the depth"
    if op["expect"]["finite"]:
        expected = len(orb) * irrep_dim
        for c in lam:
            expected *= int(c) + 1
        if sum(rows.values()) != expected:
            return f"finite V dimensions sum to {sum(rows.values())}, expected {expected}"
    return None


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


_CLI_CHECKS = {
    "block": _block,
    "cc": _cc,
    "appendix": _no_go,
    "pbw": _pbw,
    "char": _char,
}
_API_CHECKS = {
    "s3_component": _s3_component,
    "center": _center,
    "no_go": _no_go,
    "central_character": _central_character,
}
