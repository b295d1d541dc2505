"""Command line interface.

Commands: simples, block, matrices, char, cc, pbw, appendix, selftest.
Exit code 0 iff every requested verification passed; on failure a machine
readable JSON payload goes to stderr.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii

import click

from .clifford import classify_X_over, dim_m, simplex_to_json
from .obstruction import DeformationSpec, verify_no_go
from .pbw import Algebra, cc_equal, element_to_json, parse_expr
from .skew_o import (
    block_matrices,
    dim_simple_skew,
    simples_over_four_setups,
    weight_dims_skew,
)
from .weights import (
    format_weight,
    parse_gamma,
    parse_rational,
    parse_weight,
    split_by_blocks,
)


def _fail(message: str, **extra):
    payload = {"error": message}
    payload.update(extra)
    click.echo(json.dumps(payload), err=True)
    sys.exit(1)


class _Integer(click.ParamType):
    """An integer option whose bad value fails through _fail, not click's
    usage error."""

    name = "integer"

    def convert(self, value, param, ctx):
        try:
            return int(value)
        except ValueError:
            _fail(f"bad {param.opts[0]}: {value!r} is not an integer", input=value)


_INTEGER = _Integer()


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _dumps(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, for dicts with str keys,
    lists, tuples, str, int, bool and None; TypeError on anything else,
    floats included.  json.dumps indents with its pure-Python encoder; here
    a list whose items are all scalars of one type is joined in one
    str.join, which is what the block matrices are."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = indent + "  "
    if type(obj) is dict:
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [
            encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in obj.items()
        ]
        brackets = "{}"
    elif type(obj) in (list, tuple):
        kinds = set(map(type, obj))
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, obj) if scalar else [_dumps(v, inner) for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")
    if not obj:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _parse_inputs(gamma_text: str, weight_text: str):
    try:
        gamma = parse_gamma(gamma_text)
    except ValueError as exc:
        _fail(f"bad --gamma: {exc}", input=gamma_text)
    try:
        weight = parse_weight(weight_text)
    except ValueError as exc:
        _fail(f"bad --weight: {exc}", input=weight_text)
    if len(weight) != gamma.n:
        _fail(
            f"weight rank {len(weight)} does not match gamma rank {gamma.n}",
            weight=weight_text,
            gamma=gamma_text,
        )
    return gamma, weight


@click.group()
def main():
    """Exact category-O combinatorics for wreath-type skew group rings."""


@main.command()
@click.option("--gamma", "gamma_text", required=True, help='group spec, e.g. "S:2;C:3"')
@click.option("--weight", "weight_text", required=True, help='weight, e.g. "3,0,-1/2"')
@click.option("--format", "fmt", default="text", type=click.Choice(["text", "json"]))
def simples(gamma_text, weight_text, fmt):
    """Classify the simples over a weight; multi-block specs also report the
    per-block and product lists."""
    gamma, weight = _parse_inputs(gamma_text, weight_text)
    xs = classify_X_over(gamma, weight)
    simples_out = []
    for x in xs:
        dim_v = dim_simple_skew(gamma, x)
        simples_out.append(
            dict(
                simplex_to_json(gamma, x),
                dimM=dim_m(gamma, x),
                dimV=dim_v if dim_v is not None else "infinite",
            )
        )
    payload = {
        "gamma": str(gamma),
        "weight": format_weight(weight),
        "simples": simples_out,
    }
    pieces = split_by_blocks(gamma)
    if len(pieces) > 1:
        lams = [weight[span.start : span.stop] for _, span in pieces]
        _, per_block, _, product = simples_over_four_setups(gamma, lams)
        payload["four_setups"] = {
            "per_block_weights": [format_weight(l) for l in lams],
            "per_block_counts": [len(xs_j) for xs_j in per_block],
            "product_count": len(product),
        }
    if fmt == "json":
        click.echo(_dumps(payload))
    else:
        for entry in payload["simples"]:
            click.echo(
                f"orbit {','.join(entry['orbit_rep'])}  stab {entry['stab']}"
                f"  irrep {entry['irrep']}  dimM {entry['dimM']}  dimV {entry['dimV']}"
            )
        if "four_setups" in payload:
            fs = payload["four_setups"]
            click.echo(
                f"blocks: {fs['per_block_counts']} -> product {fs['product_count']}"
            )


_BLOCK_IRREP_HELP = (
    "index of a simple over the weight; every index gives the same block, "
    "since the block depends only on the weight's orbit"
)


def _simple_at(gamma, weight, irrep_index):
    """The --irrep-th simple over the weight, in classify_X_over order."""
    xs = classify_X_over(gamma, weight)
    if not 0 <= irrep_index < len(xs):
        _fail(f"--irrep {irrep_index} out of range (0..{len(xs) - 1})")
    return xs[irrep_index]


@main.command()
@click.option("--gamma", "gamma_text", required=True)
@click.option("--weight", "weight_text", required=True)
@click.option("--irrep", "irrep_index", default=0, show_default=True, type=_INTEGER,
              help=_BLOCK_IRREP_HELP)
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "dot", "text"]))
def block(gamma_text, weight_text, irrep_index, fmt):
    """Linkage class and D/F/C/C' matrices of the block over a weight."""
    gamma, weight = _parse_inputs(gamma_text, weight_text)
    bd = block_matrices(gamma, _simple_at(gamma, weight, irrep_index))
    if fmt == "dot":
        click.echo(bd.to_dot())
    elif fmt == "json":
        click.echo(_dumps(bd.to_json()))
    else:
        for x in bd.order:
            click.echo(repr(x))
        for name, mat in (("D", bd.D), ("F", bd.F), ("C", bd.C), ("C'", bd.Cprime)):
            click.echo(f"{name} = {mat}")


@main.command()
@click.option("--gamma", "gamma_text", required=True)
@click.option("--weight", "weight_text", required=True)
@click.option("--irrep", "irrep_index", default=0, show_default=True, type=_INTEGER,
              help=_BLOCK_IRREP_HELP)
@click.option("--format", "fmt", default="csv", type=click.Choice(["csv", "json"]))
def matrices(gamma_text, weight_text, irrep_index, fmt):
    """The four block matrices only."""
    gamma, weight = _parse_inputs(gamma_text, weight_text)
    bd = block_matrices(gamma, _simple_at(gamma, weight, irrep_index))
    if fmt == "json":
        data = bd.to_json()
        click.echo(_dumps({k: data[k] for k in ("D", "F", "C", "Cprime")}))
    else:
        for name, mat in (("D", bd.D), ("F", bd.F), ("C", bd.C), ("Cprime", bd.Cprime)):
            for row in mat:
                click.echo(name + "," + ",".join(str(v) for v in row))


@main.command()
@click.option("--module", "which", type=click.Choice(["V", "Z"]), required=True)
@click.option("--gamma", "gamma_text", required=True)
@click.option("--weight", "weight_text", required=True)
@click.option("--irrep", "irrep_index", default=0, show_default=True, type=_INTEGER)
@click.option("--depth", default=12, show_default=True, type=_INTEGER)
@click.option("--format", "fmt", default="text", type=click.Choice(["text", "json", "csv"]))
def char(which, gamma_text, weight_text, irrep_index, depth, fmt):
    """Weight-space dimensions of a simple (V) or Verma (Z) character.

    Lists the nonzero dimensions at the weights hw - 2k, hw a highest
    weight of the character in the Verma basis and sum(k) <= depth.  By
    Clifford theory and ch L_A(mu) = prod_i ch L(mu_i),
    dim V(x)_nu = dim(irrep) * #{mu in orbit : nu_i is a weight of L(mu_i)
    for all i}; Z(x) is the same count with the rank-1 Vermas Z(mu_i).
    """
    if depth < 0:
        _fail("--depth must be >= 0")
    gamma, weight = _parse_inputs(gamma_text, weight_text)
    x = _simple_at(gamma, weight, irrep_index)
    character, rows = weight_dims_skew(gamma, x, which, depth)
    if fmt == "json":
        click.echo(
            _dumps(
                {
                    "module": which,
                    "dims": [
                        {"weight": format_weight(w), "dim": d} for w, d in rows
                    ],
                    "character": character.to_json(),
                }
            )
        )
    elif fmt == "csv":
        for w, d in rows:
            click.echo(f"{format_weight(w)},{d}")
    else:
        for w, d in rows:
            click.echo(f"{format_weight(w)}: {d}")


def _down_weights(hw, depth):
    """The weights hw - 2k with sum(k) <= depth, k running over the
    compositions of each total in lexicographic order.

    `char` no longer calls this; perfbench/tracing.py still hooks it by
    name when it installs.
    """
    import itertools

    n = len(hw)
    for total in range(depth + 1):
        for bars in itertools.combinations(range(total + n - 1), n - 1):
            ends = (-1,) + bars + (total + n - 1,)
            yield tuple(h - 2 * (b - a - 1) for h, a, b in zip(hw, ends, ends[1:]))


@main.command()
@click.option("--gamma", "gamma_text", required=True)
@click.option("--weight", "weight_text", required=True)
@click.option("--mu", "mu_text", required=True)
def cc(gamma_text, weight_text, mu_text):
    """Central character equality of two weights (orbit and invariant tests)."""
    gamma, weight = _parse_inputs(gamma_text, weight_text)
    try:
        mu = parse_weight(mu_text)
    except ValueError as exc:
        _fail(f"bad --mu: {exc}", input=mu_text)
    if len(mu) != gamma.n:
        _fail(
            f"mu rank {len(mu)} does not match gamma rank {gamma.n}",
            mu=mu_text,
            gamma=gamma_text,
        )
    result = cc_equal(gamma, weight, mu)
    click.echo(
        json.dumps(
            {
                "equal": result["equal"],
                "orbit_test": result["orbit_test"],
                "invariant_test": result["invariant_test"],
            }
        )
    )


@main.command()
@click.option("--n", "rank", required=True, type=_INTEGER)
@click.option("--expr", required=True)
@click.option("--format", "fmt", default="text", type=click.Choice(["text", "json"]))
def pbw(rank, expr, fmt):
    """Normal form of an expression in the skew enveloping algebra."""
    if rank < 1:
        _fail("--n must be >= 1")
    alg = Algebra(rank)
    try:
        value = parse_expr(expr, alg)
    except ValueError as exc:
        _fail(str(exc), expr=expr)
    except RecursionError:
        # the expression parser recurses once per nesting level
        _fail("expression too large", expr=expr)
    if fmt == "json":
        click.echo(json.dumps(element_to_json(value)))
    else:
        click.echo(repr(value))


@main.command()
@click.option("--n", "rank", required=True, type=_INTEGER)
@click.option("--f", "f_text", default="", help='coefficients of f, e.g. "0,1"')
@click.option("--wdeg", default=4, show_default=True, type=_INTEGER)
def appendix(rank, f_text, wdeg):
    """Deformation obstruction report; exit 0 iff only the zero deformation
    survives."""
    coeffs = []
    if f_text.strip():
        try:
            coeffs = [parse_rational(c) for c in f_text.split(",")]
        except ValueError as exc:
            _fail(f"bad --f: {exc}", input=f_text)
    try:
        spec = DeformationSpec(n=rank, f_coeffs=coeffs, w_degree=wdeg)
        report = verify_no_go(spec)
    except ValueError as exc:
        _fail(str(exc))
    click.echo(_dumps(report))
    if report["solution_space_dim"] != 0:
        _fail("nonzero deformation space", report=report)


@main.command()
@click.option("--seed", default=20240901, show_default=True, type=_INTEGER)
def selftest(seed):
    """Run the seeded invariant suites."""
    # imported here so that other commands do not load the suites
    from .selftest import run_selftest

    results = run_selftest(seed)
    failed = [r for r in results if not r[1]]
    for name, ok, detail in results:
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    if failed:
        _fail(
            "selftest failures",
            failures=[{"name": n, "detail": d} for n, ok, d in failed],
        )


if __name__ == "__main__":
    main()
