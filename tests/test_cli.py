import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction as F

from click.testing import CliRunner

from oracles import down_weights_by_filtering
import wreatho.cli
from wreatho.cato_a import CharacterVB
from wreatho.cli import _down_weights, main
from wreatho.clifford import simplex_from_json
from wreatho.pbw import Algebra, element_from_json, parse_expr
from wreatho.skew_o import block_matrices
from wreatho.clifford import classify_X_over
from wreatho.weights import parse_gamma, parse_weight


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


class TestTracerHooks:
    def test_every_hooked_name_resolves(self):
        # perfbench/tracing.py wraps these attributes when --trace 1
        # installs; a rename in the program must fail here first
        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "perfbench", "tracing.py",
        )
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        pairs = [pair for pairs in tracing.LAYERS.values() for pair in pairs]
        pairs.append((wreatho.cli, "_down_weights"))
        for owner, name in pairs:
            assert callable(owner.__dict__[name]), (owner, name)


class TestCC:
    def test_equal(self):
        r = run("cc", "--gamma", "S:2", "--weight", "3,0", "--mu", "-2,-5")
        assert r.exit_code == 0
        assert json.loads(r.output)["equal"] is True

    def test_not_equal(self):
        r = run("cc", "--gamma", "1:1", "--weight", "1", "--mu", "2")
        assert json.loads(r.output)["equal"] is False


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


class TestAppendix:
    def test_no_go(self):
        r = run("appendix", "--n", "2", "--f", "0,1")
        assert r.exit_code == 0
        data = json.loads(r.output)
        assert data["solution_space_dim"] == 0
        assert set(data["forced_zero"]) == {"c", "d", "u", "v", "w"}


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
