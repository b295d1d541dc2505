"""The package carries no public code that nothing calls, and makes
Fractions in only the places listed.

Every public top-level function and class in src/wreatho, and every public
method of a top-level class, must either be referenced somewhere in src/
outside its own definition (__init__.py's re-exports and selftest.py's
checks do not count) or be listed below with the reason it stays.  A new
public name with no caller fails here until it is used, deleted or listed.

poly.exact alone decides how an exact scalar is stored, so every
Fraction(...) call in src/wreatho outside selftest.py is listed in
FRACTION_CALLS with the reason it is not a conversion.

Every memo in src/wreatho is a functools.lru_cache, and each is listed in
CACHES with the reason it stays, so a new memo, or one left behind after
its reader moved, fails here until it is listed or removed.

Gamma's layout is cut in weights.py alone: no other module reads an
attribute named blocks, so GammaSpec.blocks is walked in one place.
"""

import ast
import pathlib
from collections import Counter

import wreatho

SRC = pathlib.Path(wreatho.__file__).parent
NOT_CALLERS = {"__init__.py", "selftest.py"}

_CLICK = "a click command, reached through cli.main"
_ORACLE = "acceptance criterion 11 checks it against an enumeration oracle"
ALLOWED = {
    "cli.simples": _CLICK,
    "cli.block": _CLICK,
    "cli.matrices": _CLICK,
    "cli.char": _CLICK,
    "cli.cc": _CLICK,
    "cli.pbw": _CLICK,
    "cli.appendix": _CLICK,
    "cli.selftest": _CLICK,
    "cli._Integer.convert": "click's ParamType hook, which click calls to "
    "parse each integer option",
    "weights.kostant_p": _ORACLE,
    "weights.simple_roots": _ORACLE,
    "weights.GroupDesc.elements": "the brute-force reference that the "
    "stabilizer and restriction tests enumerate",
    "skew_o.partial_order_X": "test_order_compatible_with_decomposition checks "
    "that no Verma subquotient lies above its top",
    "cato_a.CharacterVB.evaluate": "perfbench/tracing.py hooks it; the test "
    "oracle char_rows_by_evaluation reads weight dimensions through it",
    "cato_a.CharacterVB.concat_product": "the tensor-factorization formula "
    "for characters of a product (acceptance criterion 04)",
    "cato_a.CharacterVB.scale": "ch Z = sum D ch V, which selftest and "
    "test_skew_o sum with it",
    "cato_a.CharacterVB.from_json": "inverse of to_json, which char prints",
    "cato_a.verma_factors_A": "Verma composition factors over the plain "
    "algebra, which test_skew_o compares the skew decompositions with",
    "cato_a.ch_verma": "the plain-algebra Verma character; test_cato_a "
    "checks ch Verma = sum of simple characters with it",
    "clifford.weight_mult": "Clifford theory: weight multiplicities of a simple",
    "clifford.simplex_from_json": "inverse of simplex_to_json, which "
    "simples and block print",
    "obstruction.obstruction_ek": "the e_k obstruction of the no-go "
    "(acceptance criterion 10); perfbench/tracing.py hooks it",
    "obstruction.weight_vector_check": "[h_i, a] = eta_i a, which "
    "test_obstruction checks on the deformed relations",
    "pbw.Algebra.symmetric_center_gen": "the central elements p_k; "
    "perfbench/worker.py and acceptance criterion 08 build them",
    "pbw.Element.substitute": "parameter substitution, used by "
    "test_obstruction; perfbench/tracing.py hooks Poly.substitute",
    "pbw.anti_involution": "the anti-involution exchanging e and f; "
    "selftest and test_pbw check its properties",
    "pbw.gamma_twist": "Gamma-equivariance of central characters "
    "(acceptance criterion 08)",
    "pbw.group_algebra_conjugate": "Gamma-equivariance of central "
    "characters (acceptance criterion 08)",
    "pbw.central_character_numeric": "central characters with numeric "
    "values (acceptance criterion 08)",
    "pbw.center_basis_up_to_degree": "the center solver (acceptance "
    "criterion 09); the center workload of perfbench runs it",
    "pbw.element_from_json": "inverse of element_to_json, which pbw prints; "
    "perfbench/checks.py reads pbw output with it",
    "skew_o.s3_skew": "the linkage set S3 (acceptance criterion 07); the "
    "cached block reads the same set by orbit rep through _saturated_simples",
    "skew_o.s4_skew": "the linkage set S4 (acceptance criterion 07)",
    "skew_o.s3_product_cover": "the duality cover of a product "
    "(acceptance criterion 07)",
    "symchars.char_table": "full character tables, whose orthogonality "
    "selftest and test_symchars check",
}


def _definitions(tree):
    """(qualified name, node) of each public top-level function and class
    and each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _name_counts(tree) -> Counter:
    """How often each name is read in tree, as a Name or an attribute;
    type annotations do not count, nor does a Name that an enclosing
    function binds as a parameter or an assignment target (a local of the
    same name is not a caller)."""
    hints = set()
    for node in ast.walk(tree):
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if hint is not None:
                hints.update(map(id, ast.walk(hint)))
    counts = Counter()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | _bound_names(node)
        if id(node) not in hints:
            if isinstance(node, ast.Name) and node.id not in local:
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return counts


def _bound_names(func) -> set:
    """The parameters of func and the names it assigns."""
    args = func.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return {a.arg for a in params if a is not None} | {
        node.id
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }


def _uncalled_public_names(src=SRC) -> set:
    trees = {p.name: ast.parse(p.read_text()) for p in src.glob("*.py")}
    reads = Counter()
    for fname, tree in trees.items():
        if fname not in NOT_CALLERS:
            reads += _name_counts(tree)
    out = set()
    for fname, tree in trees.items():
        for qual, node in _definitions(tree):
            name = qual.rsplit(".", 1)[-1]
            own = _name_counts(node) if fname not in NOT_CALLERS else Counter()
            if reads[name] == own[name]:
                out.add(f"{fname[:-3]}.{qual}")
    return out


def test_every_public_name_has_a_caller_or_a_reason():
    assert _uncalled_public_names() == set(ALLOWED)


def test_scan_sees_a_new_uncalled_function(tmp_path):
    # a function that only calls itself has no caller either
    for p in SRC.glob("*.py"):
        (tmp_path / p.name).write_text(p.read_text())
    with open(tmp_path / "weights.py", "a") as fh:
        fh.write("\n\ndef orphan():\n    return orphan()\n")
    assert _uncalled_public_names(tmp_path) == set(ALLOWED) | {"weights.orphan"}


def test_scan_does_not_count_a_local_of_the_same_name(tmp_path):
    # a parameter named orphan is not a caller of the function orphan
    for p in SRC.glob("*.py"):
        (tmp_path / p.name).write_text(p.read_text())
    with open(tmp_path / "weights.py", "a") as fh:
        fh.write("\n\ndef orphan():\n    return 0\n")
        fh.write("\n\ndef _reader(orphan):\n    return orphan\n")
    assert _uncalled_public_names(tmp_path) == set(ALLOWED) | {"weights.orphan"}


_HALF = "the 1/2 of the definition, an input"
FRACTION_CALLS = {
    "weights.parse_rational": "parses a rational from text; coord canonicalizes it",
    "poly.Poly.__truediv__": "exact division: the inverse of the divisor",
    "linalg._echelon": "exact division: the inverse of the pivot",
    "obstruction._proportionality": "exact division of two constants, "
    "which / would make a float when both are ints",
    "pbw.Algebra.casimir": _HALF,
    "pbw.mixed_term": _HALF,
    "pbw._t_value": "c^2/2, exact when c is an int",
}


def _fraction_calls(src=SRC) -> list:
    """module.qualname of the scope of each Fraction(...) call, once per
    call, in every module but selftest.py."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Fraction":
                    out.append(".".join(scope))
            visit(child, scope)

    for p in sorted(src.glob("*.py")):
        if p.name != "selftest.py":
            visit(ast.parse(p.read_text()), [p.stem])
    return sorted(out)


def test_every_fraction_call_is_listed_once():
    assert _fraction_calls() == sorted(FRACTION_CALLS)


def test_scan_sees_a_new_fraction_call(tmp_path):
    for p in SRC.glob("*.py"):
        (tmp_path / p.name).write_text(p.read_text())
    with open(tmp_path / "pbw.py", "a") as fh:
        fh.write("\n\ndef _as_fraction(x):\n    return Fraction(x)\n")
    assert _fraction_calls(tmp_path) == sorted([*FRACTION_CALLS, "pbw._as_fraction"])


_ONE_PER_SPEC = "one value per GammaSpec, read on every orbit and stabilizer call"
CACHES = {
    "skew_o._orbit_block": "the one block per (Gamma, orbit rep) that "
    "block_matrices, s3_component and s_prime_component read",
    "symchars.restricted_inner_product": "each Verma multiplicity; the flip "
    "layers of a block meet the same stabilizer pairs again",
    "symchars.char_value": "character table entries, summed over classes by "
    "restricted_inner_product; perfbench/tracing.py reads its cache_info",
    "symchars.partitions_of": "the irreps of a symmetric factor, listed for "
    "every stabilizer",
    "weights.GammaSpec.group": _ONE_PER_SPEC,
    "weights.gamma_cells": _ONE_PER_SPEC,
    "weights._kostant_count": "the recursion memo of kostant_p, shared by "
    "every theta over the same roots",
    "weights._separating_functional": "one functional per root tuple, read at "
    "every step of _kostant_count",
    "pbw._mul_rank1": "the rank-1 product, met again for every pair of "
    "factors of Element.__mul__; perfbench/tracing.py reads its cache_info",
    "pbw._antipode_rank1": "the rank-1 antipode, read per monomial by "
    "m_one_S_delta",
}
_MEMO_DECORATORS = {"lru_cache", "cache", "cached_property"}


def _memoized(src=SRC) -> list:
    """module.qualname of each function in src decorated by a memo."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in child.decorator_list:
                    func = deco.func if isinstance(deco, ast.Call) else deco
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in _MEMO_DECORATORS:
                        out.append(".".join(scope + [child.name]))
                visit(child, scope + [child.name])

    for p in sorted(src.glob("*.py")):
        visit(ast.parse(p.read_text()), [p.stem])
    return sorted(out)


def test_every_cache_is_listed_once():
    assert _memoized() == sorted(CACHES)


def test_scan_sees_a_new_cache(tmp_path):
    for p in SRC.glob("*.py"):
        (tmp_path / p.name).write_text(p.read_text())
    with open(tmp_path / "skew_o.py", "a") as fh:
        fh.write("\n\n@functools.lru_cache(maxsize=None)\ndef _memo(x):\n    return x\n")
    assert _memoized(tmp_path) == sorted([*CACHES, "skew_o._memo"])


def _blocks_readers(src=SRC) -> list:
    """Each module but weights.py that reads an attribute named blocks."""
    return sorted(
        p.stem
        for p in src.glob("*.py")
        if p.name != "weights.py"
        and any(
            isinstance(node, ast.Attribute) and node.attr == "blocks"
            for node in ast.walk(ast.parse(p.read_text()))
        )
    )


def test_only_weights_reads_gamma_blocks():
    assert _blocks_readers() == []


def test_scan_sees_a_new_blocks_read(tmp_path):
    for p in SRC.glob("*.py"):
        (tmp_path / p.name).write_text(p.read_text())
    with open(tmp_path / "skew_o.py", "a") as fh:
        fh.write("\n\ndef _width(gamma):\n    return len(gamma.blocks)\n")
    assert _blocks_readers(tmp_path) == ["skew_o"]
