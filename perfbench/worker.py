"""One round of a workload in a fresh, single-threaded interpreter.

Reads {"ops": [...], "trace": bool, "outputs": bool, "spans": path|null}
as JSON on stdin and writes one JSON result on stdout.  With --probe it
only imports wreatho and wreatho.cli and reports when that finished.

CLI operations call the click entry point in-process with stdout captured;
API operations call the public functions.  Only the call itself is timed:
parsing the round, serializing results and hashing them happen outside.
"""

import sys
import time

import wreatho
import wreatho.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (timed set-up ends at the wreatho imports)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

from wreatho import clifford, obstruction, pbw, skew_o  # noqa: E402
from wreatho.poly import Poly  # noqa: E402
from wreatho.weights import parse_gamma, parse_weight  # noqa: E402

# API calls go through the module attributes, so the tracer's rebinding of
# the public functions applies to them too.


def _cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        wreatho.cli.main.main(args=list(args), standalone_mode=False)
    return buf.getvalue()


def _s3_component(gamma, weight, irrep):
    g = parse_gamma(gamma)
    x = clifford.classify_X_over(g, parse_weight(weight))[irrep]
    return g, skew_o.s3_component(g, x)


def _center(n, dmax, gamma):
    return pbw.center_basis_up_to_degree(n, dmax, parse_gamma(gamma) if gamma else None)


def _coeff(text):
    return Poly.var(text) if text.startswith("t") else Fraction(text)


def _no_go(n, f):
    spec = obstruction.DeformationSpec(n=n, f_coeffs=[_coeff(c) for c in f])
    return obstruction.verify_no_go(spec)


def _central_character(n, k, weight):
    pk = pbw.Algebra(n).symmetric_center_gen(k)
    return pbw.central_character(None, parse_weight(weight), pk)


RUN = {
    "cli": _cli,
    "s3_component": lambda a: _s3_component(**a),
    "center": lambda a: _center(**a),
    "no_go": lambda a: _no_go(**a),
    "central_character": lambda a: _central_character(**a),
}


def serialize(kind, result) -> str:
    """Canonical text of an operation's result (the CLI's own output for
    CLI operations)."""
    if kind == "cli":
        return result
    if kind == "s3_component":
        g, xs = result
        return json.dumps([clifford.simplex_to_json(g, x) for x in xs])
    if kind == "center":
        return json.dumps([pbw.element_to_json(z) for z in result])
    if kind == "no_go":
        return json.dumps(result, indent=2, default=str)
    if kind == "central_character":
        return json.dumps({",".join(map(str, p)): str(v) for p, v in sorted(result.items())})
    raise ValueError(f"unknown operation kind {kind!r}")


def run_round(ops, tracer=None):
    """Run the operation list once; returns (records, results, loop wall)."""
    records, results = [], []
    clock = time.perf_counter
    start = clock()
    for index, op in enumerate(ops):
        call = RUN[op["kind"]]
        args = op["args"]
        error = None
        result = None
        if tracer is not None:
            tracer.begin_op(index, op)
        t0 = clock()
        try:
            result = call(args)
        except SystemExit as exc:  # the CLI's failure exit
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # noqa: BLE001  every failure is counted
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
        records.append({"ms": (t1 - t0) * 1000.0, "error": error})
        results.append(result)
    return records, results, clock() - start


def main():
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps({"ready": READY}))
        return
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.abspath(wreatho.__file__).startswith(os.path.join(root, "src")):
        raise SystemExit(f"wreatho imported from {wreatho.__file__}, not this checkout")
    job = json.load(sys.stdin)
    ops = job["ops"]
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    records, results, wall = run_round(ops, tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outputs = {}
    for op, rec, result in zip(ops, records, results):
        if rec["error"] is None:
            text = serialize(op["kind"], result)
            rec["digest"] = hashlib.sha256(text.encode()).hexdigest()
            if job["outputs"]:
                outputs[op["id"]] = text
    out = {
        "ready": READY,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "records": records,
        "outputs": outputs,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
