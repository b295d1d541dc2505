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
    "skew_o.partial_order_X": "test_order_compatible_with_decomposition checks "
    "that no Verma subquotient lies above its top",
    "cato_a.CharacterVB.evaluate": "perfbench/tracing.py hooks it; the test "
    "oracle char_rows_by_evaluation reads weight dimensions through it",
    "cato_a.CharacterVB.concat_product": "the tensor-factorization formula "
    "for characters of a product (acceptance criterion 04)",
    "cato_a.CharacterVB.from_json": "inverse of to_json, which char prints",
    "cato_a.verma_factors_A": "Verma composition factors over the plain "
    "algebra, which test_skew_o compares the skew decompositions with",
    "cato_a.ch_verma": "the plain-algebra Verma character; test_cato_a "
    "checks ch Verma = sum of simple characters with it",
    "clifford.weight_mult": "Clifford theory: weight multiplicities of a simple",
    "clifford.decompose_induced": "Clifford theory: decomposition of an "
    "induced stabilizer representation",
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
    type annotations do not count."""
    hints = set()
    for node in ast.walk(tree):
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if hint is not None:
                hints.update(map(id, ast.walk(hint)))
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in hints
    )


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
