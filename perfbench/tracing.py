"""Outside-in spans around calls into each wreatho layer.

The tracer wraps public functions of the program from the benchmark's own
files.  Modules bind names with ``from .x import y``, so a wrapped
function is rebound in every wreatho module that holds it; methods are
wrapped on their class.  ``_mul_rank1`` and ``char_value`` are recursive
``lru_cache`` functions, so their ``cache_info()`` is read around each
operation instead of wrapping them.

Each span is (layer, start, end, parent span, operation index), kept in
memory and written out at the end.  A layer's self time is its spans'
duration minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from wreatho import cato_a, cli, clifford, linalg, obstruction, pbw, poly, skew_o, symchars, weights

# layer -> list of (owner, attribute name); owner is a module or a class
LAYERS = {
    "weights": [
        (weights, "stabilizer"),
        (weights, "orbit_of"),
        (weights, "canonical_orbit_rep"),
        (weights.GammaSpec, "group"),
    ],
    "clifford": [
        (clifford, "classify_X_over"),
        (clifford, "transport_irrep"),
        (clifford, "dim_m"),
    ],
    "symchars.rip": [(symchars, "restricted_inner_product")],
    "skew_o.decompose": [(skew_o, "verma_decompose_skew")],
    "skew_o.block": [(skew_o, "block_matrices")],
    "skew_o.closure": [(skew_o, "s3_component"), (skew_o, "s_prime_component")],
    "linalg": [
        (linalg, "rref"),
        (linalg, "nullspace"),
        (linalg, "rank"),
        (linalg, "in_row_space"),
    ],
    "pbw.center": [(pbw, "center_basis_up_to_degree")],
    "pbw.mul": [(pbw.Element, "__mul__")],
    "poly": [
        (poly.Poly, name)
        for name in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__neg__", "__truediv__", "__pow__", "substitute", "linear_parts",
        )
    ],
    "obstruction": [
        (obstruction, "verify_no_go"),
        (obstruction, "obstruction_ek"),
        (obstruction, "build_deformed_rhs"),
    ],
    "cato_a.evaluate": [(cato_a.CharacterVB, "evaluate")],
}

CACHES = {
    "symchars.char_value": symchars.char_value,
    "pbw.mul_rank1": pbw._mul_rank1,
}


def _nonzero_share(rows) -> tuple[int, int]:
    cells = sum(len(r) for r in rows)
    return sum(1 for r in rows for v in r if v), cells


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # layer of each span, set when it opens
        self.spans: list = []  # (start, end, parent, op), set when it closes
        self.stack: list[int] = []
        self.op = -1
        self.op_meta: dict = {}
        # counters measured at the layer boundaries
        self.rip_nonzero = 0
        self.decompose_seen: set = set()
        self.decompose_repeats = 0
        self.block_sizes: list[int] = []
        self.block_product: dict[int, bool] = {}  # span -> multi-factor spec
        self.linalg_inputs: list = []  # matrices passed in from outside linalg
        self.center_systems: list = []  # (equations, unknowns)
        self.char_terms = 0
        self.char_nonzero = 0
        self.weights_enumerated = 0
        self.rhs_builds = 0
        self.cache_deltas = {name: [0, 0] for name in CACHES}
        self._cache_before: dict = {}

    # -- spans ------------------------------------------------------------

    def _open(self, layer: str) -> int:
        idx = len(self.names)
        self.names.append(layer)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _wrap(self, layer, fn, after=None):
        names, spans, stack, clock = self.names, self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(names)
            names.append(layer)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (t0, t1, parent, self.op)
            if after is not None:
                after(idx, parent, args, result)
            return result

        return wrapper

    def _count_down_weights(self, fn):
        @functools.wraps(fn)
        def wrapper(hw, depth):
            n = len(hw)
            self.weights_enumerated += sum((t + 1) ** n for t in range(depth + 1))
            return fn(hw, depth)

        return wrapper

    def install(self) -> None:
        hooks = {
            "symchars.rip": self._after_rip,
            "skew_o.decompose": self._after_decompose,
            "skew_o.block": self._after_block,
            "linalg": self._after_linalg,
            "cato_a.evaluate": self._after_evaluate,
        }
        hooks_by_name = {"build_deformed_rhs": self._after_rhs}
        targets = [
            (
                owner,
                name,
                self._wrap(
                    layer,
                    owner.__dict__[name],
                    hooks_by_name.get(name, hooks.get(layer)),
                ),
            )
            for layer, pairs in LAYERS.items()
            for owner, name in pairs
        ]
        targets.append(
            (cli, "_down_weights", self._count_down_weights(cli._down_weights))
        )
        modules = [
            m for name, m in sys.modules.items()
            if name == "wreatho" or name.startswith("wreatho.")
        ]
        for owner, name, wrapped in targets:
            original = owner.__dict__[name]
            setattr(owner, name, wrapped)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def begin_op(self, index: int, op: dict) -> None:
        self.op = index
        self.op_meta[index] = op
        self._cache_before = {n: f.cache_info() for n, f in CACHES.items()}
        # the operation's root span: CLI parsing, enumeration and output
        # formatting plus the program code no layer wraps (cc_equal,
        # parse_expr, ...), or the benchmark's glue around an API call
        self._root = self._open("cli" if op["kind"] == "cli" else "api")
        self._root_t0 = time.perf_counter()

    def end_op(self) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans[self._root] = (self._root_t0, t1, -1, self.op)
        for name, fn in CACHES.items():
            after, before = fn.cache_info(), self._cache_before[name]
            self.cache_deltas[name][0] += after.hits - before.hits
            self.cache_deltas[name][1] += after.misses - before.misses

    # -- counters at the boundaries ---------------------------------------

    def _layer_of(self, idx: int):
        return self.names[idx] if idx >= 0 else None

    def _after_rip(self, idx, parent, args, result):
        if result:
            self.rip_nonzero += 1

    def _after_decompose(self, idx, parent, args, result):
        key = (args[0], args[1])
        if key in self.decompose_seen:
            self.decompose_repeats += 1
        self.decompose_seen.add(key)

    def _after_block(self, idx, parent, args, result):
        self.block_sizes.append(len(result.order))
        self.block_product[idx] = bool(self.op_meta[self.op].get("product"))

    def _after_linalg(self, idx, parent, args, result):
        if self._layer_of(parent) == "linalg":
            return
        # density is computed after the round, outside every span;
        # nullspace, rank and in_row_space eliminate on a copy, so the rows
        # are unchanged by then
        self.linalg_inputs.append(args[0])
        if self._layer_of(parent) == "pbw.center":
            self.center_systems.append((len(args[0]), args[1]))

    def _after_rhs(self, idx, parent, args, result):
        self.rhs_builds += 1

    def _after_evaluate(self, idx, parent, args, result):
        self.char_terms += len(args[0].terms)
        if result:
            self.char_nonzero += 1

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [t1 - t0 - c for (t0, t1, _, _), c in zip(self.spans, child)]

    def metrics(self) -> dict:
        self_s = self.self_times()
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        outer_calls: dict[str, int] = {}
        for idx, layer in enumerate(self.names):
            calls[layer] = calls.get(layer, 0) + 1
            busy[layer] = busy.get(layer, 0.0) + self_s[idx]
            if self._layer_of(self.spans[idx][2]) != layer:
                outer_calls[layer] = outer_calls.get(layer, 0) + 1
        block_single = sum(
            self_s[i] for i, prod in self.block_product.items() if not prod
        )
        block_product = sum(self_s[i] for i, prod in self.block_product.items() if prod)
        # pbw.center.build_s: center spans minus the linalg time below them
        linalg_under_center = 0.0
        for idx, layer in enumerate(self.names):
            if layer == "linalg" and self._layer_of(self.spans[idx][2]) == "pbw.center":
                t0, t1, _, _ = self.spans[idx]
                linalg_under_center += t1 - t0
        center_total = sum(
            self.spans[i][1] - self.spans[i][0]
            for i, layer in enumerate(self.names)
            if layer == "pbw.center"
        )
        nonzero = cells = 0
        for rows in self.linalg_inputs:
            nz, c = _nonzero_share(rows)
            nonzero += nz
            cells += c
        char_value = self.cache_deltas["symchars.char_value"]
        rank1 = self.cache_deltas["pbw.mul_rank1"]
        evaluate_calls = calls.get("cato_a.evaluate", 0)
        rip_calls = calls.get("symchars.rip", 0)
        decompose_calls = calls.get("skew_o.decompose", 0)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "weights.calls": (calls.get("weights", 0), "count"),
            "weights.self_s": (busy.get("weights", 0.0), "s"),
            "clifford.calls": (calls.get("clifford", 0), "count"),
            "clifford.self_s": (busy.get("clifford", 0.0), "s"),
            "symchars.rip.calls": (rip_calls, "count"),
            "symchars.rip.self_s": (busy.get("symchars.rip", 0.0), "s"),
            "symchars.rip.nonzero_ratio": (ratio(self.rip_nonzero, rip_calls), "ratio"),
            "symchars.char_value.hit_ratio": (ratio(char_value[0], sum(char_value)), "ratio"),
            "symchars.char_value.misses": (char_value[1], "count"),
            "skew_o.decompose.calls": (decompose_calls, "count"),
            "skew_o.decompose.self_s": (busy.get("skew_o.decompose", 0.0), "s"),
            "skew_o.decompose.repeat_ratio": (
                ratio(self.decompose_repeats, decompose_calls), "ratio"),
            "skew_o.block.self_s": (busy.get("skew_o.block", 0.0), "s"),
            "skew_o.block.self_s.single": (block_single, "s"),
            "skew_o.block.self_s.product": (block_product, "s"),
            "skew_o.block.k_max": (max(self.block_sizes, default=0), "count"),
            "skew_o.block.k_sum": (sum(self.block_sizes), "count"),
            "skew_o.closure.self_s": (busy.get("skew_o.closure", 0.0), "s"),
            "linalg.calls": (outer_calls.get("linalg", 0), "count"),
            "linalg.self_s": (busy.get("linalg", 0.0), "s"),
            "linalg.density": (ratio(nonzero, cells), "ratio"),
            "pbw.center.build_s": (center_total - linalg_under_center, "s"),
            "pbw.center.unknowns": (sum(u for _, u in self.center_systems), "count"),
            "pbw.center.equations": (sum(e for e, _ in self.center_systems), "count"),
            "pbw.mul.calls": (calls.get("pbw.mul", 0), "count"),
            "pbw.mul.self_s": (busy.get("pbw.mul", 0.0), "s"),
            "pbw.mul_rank1.hit_ratio": (ratio(rank1[0], sum(rank1)), "ratio"),
            "pbw.mul_rank1.misses": (rank1[1], "count"),
            "poly.ops": (calls.get("poly", 0), "count"),
            "poly.self_s": (busy.get("poly", 0.0), "s"),
            "obstruction.rhs_builds": (self.rhs_builds, "count"),
            "obstruction.self_s": (busy.get("obstruction", 0.0), "s"),
            "cato_a.evaluate.calls": (evaluate_calls, "count"),
            "cato_a.evaluate.self_s": (busy.get("cato_a.evaluate", 0.0), "s"),
            "cato_a.char_terms": (self.char_terms, "count"),
            "cli.char.weights_enumerated": (self.weights_enumerated, "count"),
            "cli.char.useful_ratio": (ratio(self.char_nonzero, evaluate_calls), "ratio"),
            "cli.self_s": (busy.get("cli", 0.0), "s"),
        }
        return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}

    def write_spans(self, path: str) -> None:
        """One JSON line per span: layer, start, end, parent, operation."""
        with open(path, "w") as fh:
            for layer, (t0, t1, parent, op) in zip(self.names, self.spans):
                fh.write(json.dumps([layer, t0, t1, parent, op]) + "\n")
