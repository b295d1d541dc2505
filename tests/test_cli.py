import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gamma_strategies import MIXED_COORD, gamma_specs, pooled_weights
from oracles import char_rows_by_evaluation, down_weights_by_filtering
import wreatho.cli
from wreatho.cato_a import CharacterVB
from wreatho.cli import _down_weights, _dumps, main
from wreatho.clifford import simplex_from_json, simplex_to_json
from wreatho.pbw import Algebra, element_from_json, parse_expr
from wreatho.skew_o import block_matrices, ch_verma_skew
from wreatho.clifford import classify_X_over
from wreatho.obstruction import DeformationSpec, verify_no_go
from wreatho.weights import as_weight, format_weight, parse_gamma, parse_weight


def run(*args):
    return CliRunner().invoke(main, list(args))


class TestSimples:
    def test_regular(self):
        r = run("simples", "--gamma", "S:2", "--weight", "1,0", "--format", "json")
        assert r.exit_code == 0
        data = json.loads(r.output)
        assert len(data["simples"]) == 1
        assert data["simples"][0]["dimM"] == 2
        assert data["simples"][0]["dimV"] == 4

    def test_infinite_dimension_rendered(self):
        r = run("simples", "--gamma", "S:2", "--weight", "1/2,1/2", "--format", "json")
        data = json.loads(r.output)
        assert all(entry["dimV"] == "infinite" for entry in data["simples"])

    def test_trivial(self):
        r = run("simples", "--gamma", "1:1", "--weight", "5")
        assert r.exit_code == 0
        assert "dimM 1" in r.output

    def test_malformed_weight(self):
        r = run("simples", "--gamma", "S:2;C:3", "--weight", "3,3,a,b,c")
        assert r.exit_code == 1
        err = json.loads(r.stderr)
        assert "weight" in err["error"]

    def test_rank_mismatch(self):
        r = run("simples", "--gamma", "S:2", "--weight", "1")
        assert r.exit_code == 1
        assert "rank" in json.loads(r.stderr)["error"]


class TestBlock:
    def test_json_five_simples(self):
        r = run("block", "--gamma", "S:2", "--weight", "0,0", "--format", "json")
        assert r.exit_code == 0
        data = json.loads(r.output)
        assert len(data["order"]) == 5
        assert data["symmetric_Cprime"] is True
        assert data["D"][0] == [1, 0, 1, 1, 0]

    def test_singleton(self):
        r = run("block", "--gamma", "1:1", "--weight", "1/2", "--format", "json")
        data = json.loads(r.output)
        assert data["D"] == [[1]]

    def test_dot(self):
        r = run("block", "--gamma", "S:2", "--weight", "0,0", "--format", "dot")
        assert r.exit_code == 0
        lines = r.output.splitlines()
        assert sum(1 for l in lines if "label=" in l) == 5
        solid = [l for l in lines if "->" in l and "dashed" not in l]
        assert len(solid) == 6

    def test_round_trip(self):
        r = run("block", "--gamma", "S:2", "--weight", "0,0", "--format", "json")
        data = json.loads(r.output)
        gamma = parse_gamma(data["gamma"])
        rebuilt = [simplex_from_json(gamma, e) for e in data["order"]]
        direct = block_matrices(gamma, classify_X_over(gamma, parse_weight("0,0"))[0])
        assert rebuilt == direct.order
        assert data["D"] == direct.D and data["Cprime"] == direct.Cprime


class TestMatrices:
    def test_csv(self):
        r = run("matrices", "--gamma", "1:1", "--weight", "3")
        assert r.exit_code == 0
        assert "D,1,1" in r.output
        assert "C,1,1" in r.output


class TestChar:
    def test_tensor_square(self):
        r = run(
            "char", "--module", "V", "--gamma", "1:2", "--weight", "1,1",
            "--depth", "4", "--format", "json",
        )
        assert r.exit_code == 0
        data = json.loads(r.output)
        dims = {entry["weight"]: entry["dim"] for entry in data["dims"]}
        assert dims == {"1,1": 1, "1,-1": 1, "-1,1": 1, "-1,-1": 1}

    def test_depth_zero(self):
        r = run("char", "--module", "V", "--gamma", "1:1", "--weight", "3", "--depth", "0")
        assert r.output.strip() == "3: 1"

    def test_verma_kostant_counts(self):
        r = run(
            "char", "--module", "Z", "--gamma", "1:2", "--weight", "0,0",
            "--depth", "3", "--format", "json",
        )
        data = json.loads(r.output)
        assert all(entry["dim"] == 1 for entry in data["dims"])
        assert len(data["dims"]) == 10  # pairs (a,b) with a+b <= 3

    def test_character_json_round_trip(self):
        r = run(
            "char", "--module", "V", "--gamma", "S:2", "--weight", "1,0",
            "--depth", "2", "--format", "json",
        )
        data = json.loads(r.output)
        ch = CharacterVB.from_json(data["character"])
        assert ch.to_json() == data["character"]


    def test_down_weights_match_filtered_products(self):
        for hw in ([F(1)], [F(0), F(-1, 2)], [F(3), F(0), F(-2)], [F(1)] * 4):
            for depth in range(5):
                assert list(_down_weights(hw, depth)) == list(
                    down_weights_by_filtering(hw, depth)
                )


# JSON-like values: every kind _dumps takes, nested; strings with quotes,
# backslashes, control characters, non-ASCII and astral characters
_JSON_STRINGS = st.one_of(
    st.text(),
    st.sampled_from(["", '"\\', "\x00\x1f\n\t\x7f", "caf\u00e9", "\u2028", "\U0001f600"]),
)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(2**200), 2**200), _JSON_STRINGS
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.dictionaries(_JSON_STRINGS, inner, max_size=6),
    ),
    max_leaves=40,
)


class TestDumps:
    @settings(max_examples=400)
    @given(_JSON_VALUES)
    @example([])
    @example({"a": {}, "b": ()})
    @example([1, True, None, "x"])
    @example([[1, 2], [-3], [True, False]])
    def test_same_bytes_as_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value", [1.5, F(1, 2), [1, 2.0], {"a": [F(3)]}, {1: 2}, {"a": {1, 2}}]
    )
    def test_rejects_what_is_not_json_here(self, value):
        with pytest.raises(TypeError):
            _dumps(value)

    @pytest.mark.parametrize(
        "spec, weight",
        [("S:2,2,2", "1,1,2,2,3,5"), ("S:3;C:2", "4,4,4,4,4"), ("C:6", "0,1,0,1,0,1")],
    )
    def test_block_prints_what_json_dumps_prints(self, spec, weight):
        r = run("block", "--gamma", spec, "--weight", weight)
        assert r.exit_code == 0
        gamma = parse_gamma(spec)
        bd = block_matrices(gamma, classify_X_over(gamma, parse_weight(weight))[0])
        assert r.output == json.dumps(bd.to_json(), indent=2) + "\n"

    def test_char_prints_the_evaluated_rows_as_json_dumps(self):
        # the heavy Verma of the char benchmark: 3024 rows
        spec, weight, depth = "S:4", "5/2,3/2,0,1", 5
        r = run(
            "char", "--module", "Z", "--gamma", spec, "--weight", weight,
            "--depth", str(depth), "--format", "json",
        )
        assert r.exit_code == 0
        gamma = parse_gamma(spec)
        character = ch_verma_skew(gamma, classify_X_over(gamma, parse_weight(weight))[0])
        rows = char_rows_by_evaluation(character, depth)
        assert len(rows) == 3024
        expected = {
            "module": "Z",
            "dims": [{"weight": format_weight(nu), "dim": d} for nu, d in rows],
            "character": character.to_json(),
        }
        assert r.output == json.dumps(expected, indent=2) + "\n"


def _no_float(text):
    raise AssertionError(f"float {text} in the output")


@st.composite
def _mixed_cases(draw):
    gamma = draw(gamma_specs())
    return gamma, draw(pooled_weights(gamma, coords=MIXED_COORD))


class TestIntegersThroughout:
    # an integral coordinate is an int, a matrix entry is an int, and no
    # float reaches the JSON the commands print

    @settings(max_examples=100)
    @given(_mixed_cases())
    def test_entry_paths_give_canonical_coordinates(self, case):
        gamma, lam = case
        for weight in (parse_weight(format_weight(lam)), as_weight(lam)):
            assert weight == lam
            assert [type(c) for c in weight] == [
                int if c.denominator == 1 else F for c in lam
            ]
        for x in classify_X_over(gamma, lam):
            rep = simplex_from_json(gamma, simplex_to_json(gamma, x)).orbit_rep
            assert rep == x.orbit_rep
            assert all(type(c) is (int if c.denominator == 1 else F) for c in rep)

    @settings(max_examples=30)
    @given(_mixed_cases(), st.sampled_from(["V", "Z"]), st.integers(0, 3))
    def test_matrices_and_outputs_hold_no_float(self, case, module, depth):
        gamma, lam = case
        x = classify_X_over(gamma, lam)[0]
        bd = block_matrices(gamma, x)
        for mat in (bd.D, bd.F, bd.C, bd.Cprime):
            assert all(type(v) is int for row in mat for v in row)
        common = ("--gamma", str(gamma), "--weight", format_weight(lam))
        for args in (
            ("block",),
            ("char", "--module", module, "--depth", str(depth), "--format", "json"),
            ("simples", "--format", "json"),
        ):
            r = run(*args, *common)
            assert r.exit_code == 0, (args, r.output)
            json.loads(r.output, parse_float=_no_float)


PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def _load_tracing():
    """perfbench/tracing.py, loaded by path (perfbench is not a package)."""
    path = os.path.join(PERFBENCH, "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestTracerHooks:
    # perfbench/tracing.py wraps these attributes and reads these caches
    # when --trace 1 installs; a rename in the program must fail here first

    def test_every_hooked_name_resolves(self):
        tracing = _load_tracing()
        pairs = [pair for pairs in tracing.LAYERS.values() for pair in pairs]
        pairs.append((wreatho.cli, "_down_weights"))
        for owner, name in pairs:
            assert callable(owner.__dict__[name]), (owner, name)

    def test_every_cache_has_cache_info(self):
        tracing = _load_tracing()
        assert tracing.CACHES
        for name, fn in tracing.CACHES.items():
            info = fn.cache_info()
            assert info.hits >= 0 and info.misses >= 0, name


class TestBenchmarkImports:
    # perfbench/*.py import these from the package; a name dropped from
    # wreatho must fail here first, not as outputs_incorrect in a run

    def _imports(self):
        for fname in sorted(os.listdir(PERFBENCH)):
            if fname.endswith(".py"):
                with open(os.path.join(PERFBENCH, fname)) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        yield fname, node

    def test_every_imported_name_resolves(self):
        seen = 0
        for fname, node in self._imports():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "wreatho":
                        importlib.import_module(alias.name)
                        seen += 1
            elif node.level == 0 and (node.module or "").split(".")[0] == "wreatho":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    # `from package import x` falls back to the submodule x
                    assert hasattr(module, alias.name) or importlib.util.find_spec(
                        f"{node.module}.{alias.name}"
                    ), (fname, node.module, alias.name)
                    seen += 1
        assert seen


class TestCC:
    def test_equal(self):
        r = run("cc", "--gamma", "S:2", "--weight", "3,0", "--mu", "-2,-5")
        assert r.exit_code == 0
        assert json.loads(r.output)["equal"] is True

    def test_not_equal(self):
        r = run("cc", "--gamma", "1:1", "--weight", "1", "--mu", "2")
        assert json.loads(r.output)["equal"] is False

    def test_mu_rank_mismatch_names_both_ranks(self):
        r = run("cc", "--gamma", "S:2", "--weight", "3,0", "--mu", "1,2,3")
        assert r.exit_code == 1
        err = json.loads(r.stderr)
        assert err["error"] == "mu rank 3 does not match gamma rank 2"
        assert err["mu"] == "1,2,3" and err["gamma"] == "S:2"


class TestIrrepIndex:
    def test_out_of_range_in_every_command(self):
        # S:2 at 0,0 has two simples: indices 0 and 1
        for args in (
            ("block",),
            ("matrices",),
            ("char", "--module", "V", "--depth", "1"),
        ):
            r = run(*args, "--gamma", "S:2", "--weight", "0,0", "--irrep", "2")
            assert r.exit_code == 1, args
            assert json.loads(r.stderr)["error"] == "--irrep 2 out of range (0..1)"

    def test_picks_the_same_simple(self):
        gamma = parse_gamma("S:2")
        x = classify_X_over(gamma, parse_weight("0,0"))[1]
        r = run(
            "block", "--gamma", "S:2", "--weight", "0,0", "--irrep", "1",
            "--format", "json",
        )
        assert r.exit_code == 0
        direct = json.dumps(block_matrices(gamma, x).to_json(), indent=2)
        assert r.output.strip() == direct


class TestPbw:
    def test_zero(self):
        r = run("pbw", "--n", "1", "--expr", "[e1,f1]-h1")
        assert r.exit_code == 0
        assert r.output.strip() == "0"

    def test_json_round_trip(self):
        r = run("pbw", "--n", "2", "--expr", "s(1,2)*(e1+c*f2)^2", "--format", "json")
        assert r.exit_code == 0
        data = json.loads(r.output)
        alg = Algebra(2)
        rebuilt = element_from_json(data, alg)
        assert rebuilt == parse_expr("s(1,2)*(e1+c*f2)^2", alg)

    def test_parse_error(self):
        r = run("pbw", "--n", "1", "--expr", "e1 + @")
        assert r.exit_code == 1
        assert "position" in json.loads(r.stderr)["error"]

    def test_generator_zero_named_as_typed(self):
        r = run("pbw", "--n", "1", "--expr", "e0")
        assert r.exit_code == 1
        assert json.loads(r.stderr)["error"] == "generator e0 out of range (1..1)"

    def test_generator_above_rank_named_as_typed(self):
        r = run("pbw", "--n", "1", "--expr", "e5")
        assert r.exit_code == 1
        assert json.loads(r.stderr)["error"] == "generator e5 out of range (1..1)"

    def test_group_atoms_out_of_range(self):
        for expr, message in (
            ("s(0,1)", "transposition s(0,1) out of range (1..2)"),
            ("s(1,5)", "transposition s(1,5) out of range (1..2)"),
            ("cyc(1..5)", "cycle cyc(1..5) out of range (1..2)"),
        ):
            r = run("pbw", "--n", "2", "--expr", expr)
            assert r.exit_code == 1
            assert json.loads(r.stderr)["error"] == message

    @pytest.mark.parametrize(
        "expr, printed",
        [
            ("e1^700*f1", "-489300*e1^699 + 700*h1*e1^699 + f1*e1^700"),
            ("e1^1024", "e1^1024"),
        ],
        ids=["e1^700*f1", "e1^1024"],
    )
    def test_deep_products_compute(self, expr, printed):
        r = run("pbw", "--n", "1", "--expr", expr)
        assert r.exit_code == 0
        assert r.output == printed + "\n"

    def test_too_deep_fails_with_json(self):
        # the expression parser recurses once per nesting level
        expr = "(" * 2000 + "e1" + ")" * 2000
        r = run("pbw", "--n", "1", "--expr", expr)
        assert r.exit_code == 1
        assert type(r.exception) is SystemExit
        assert "Traceback" not in r.output
        assert json.loads(r.stderr) == {"error": "expression too large", "expr": expr}


class TestAppendix:
    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("f_text, coeffs", [("0,1", [0, 1]), ("1/2,3", [F(1, 2), 3])])
    def test_prints_what_json_dumps_prints(self, rank, f_text, coeffs):
        r = run("appendix", "--n", str(rank), "--f", f_text)
        assert r.exit_code == 0
        report = verify_no_go(DeformationSpec(n=rank, f_coeffs=[F(c) for c in coeffs]))
        assert r.stdout == json.dumps(report, indent=2) + "\n"

    def test_no_go(self):
        r = run("appendix", "--n", "2", "--f", "0,1")
        assert r.exit_code == 0
        data = json.loads(r.output)
        assert data["solution_space_dim"] == 0
        assert set(data["forced_zero"]) == {"c", "d", "u", "v", "w"}

    def test_negative_wdeg_rejected(self):
        # a negative degree bound leaves no w monomials to check
        r = run("appendix", "--n", "2", "--wdeg", "-1")
        assert r.exit_code == 1
        assert json.loads(r.stderr)["error"] == "w_degree must be >= 0, got -1"
        assert r.stdout == ""


_S2 = ("--gamma", "S:2", "--weight")


class TestBadInput:
    @pytest.mark.parametrize(
        "args",
        [
            ("simples", "--gamma", "S:x", "--weight", "1,0"),
            ("simples", *_S2, "1,a"),
            ("simples", *_S2, "1/0,1"),
            ("simples", *_S2, "1"),
            ("block", "--gamma", "Q:2", "--weight", "0,0"),
            ("block", *_S2, "0,,0"),
            ("matrices", *_S2, "1/0,0"),
            ("matrices", "--gamma", ";", "--weight", "0"),
            ("char", "--module", "V", *_S2, "0,0", "--depth", "-1"),
            ("char", "--module", "Z", *_S2, "0,0,0"),
            ("cc", *_S2, "1,0", "--mu", "1/0,0"),
            ("cc", *_S2, "1,0", "--mu", "1,0,0"),
            ("pbw", "--n", "2", "--expr", "1/0"),
            ("pbw", "--n", "2", "--expr", "e1 +"),
            ("pbw", "--n", "0", "--expr", "e1"),
            ("appendix", "--n", "2", "--f", "1/0"),
            ("appendix", "--n", "2", "--f", "0,x"),
            ("appendix", "--n", "1"),
            ("block", *_S2, "0,0", "--irrep", "x"),
            ("char", "--module", "V", *_S2, "0,0", "--depth", "x"),
            ("pbw", "--n", "x", "--expr", "e1"),
            ("appendix", "--n", "2", "--wdeg", "x"),
            ("selftest", "--seed", "x"),
        ],
    )
    def test_json_error_and_exit_1(self, args):
        r = run(*args)
        assert r.exit_code == 1
        # an uncaught exception (a traceback outside the test runner) is
        # not a SystemExit
        assert type(r.exception) is SystemExit
        assert "Traceback" not in r.output
        assert "error" in json.loads(r.stderr)


class TestSelftest:
    def test_runs_green(self):
        r = run("selftest", "--seed", "7")
        assert r.exit_code == 0, r.output
        assert "FAIL" not in r.output

    def test_broken_check_fails_under_optimize(self):
        # python -O strips assert statements; the checks must still fail
        code = (
            "import wreatho.selftest as st\n"
            "st.leq = lambda a, b: False\n"
            "print([ok for name, ok, _ in st.run_selftest(7)"
            " if name == 'gamma preserves the order'])\n"
        )
        src = os.path.dirname(os.path.dirname(wreatho.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        assert out.stdout.strip() == "[False]"
