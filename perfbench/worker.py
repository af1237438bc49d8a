"""Child process of the benchmark; curvebound must be importable (PYTHONPATH=src).

    worker.py cli PASS ARGV...          run cli.main(ARGV) with every layer traced;
                                        stdout is the CLI's, and the last line of
                                        stderr is the trace summary as JSON
    worker.py library SEED SECONDS [--trace]
                                        the library-warm loop; one JSON line on
                                        stdout: the first pass's results, later
                                        results that differ from them, and each
                                        call's fastest wall and CPU time
"""

from __future__ import annotations

import importlib
import json
import signal
import sys
import time
from fractions import Fraction

import spans
from inputs import library_inputs

LAYERS = ("perm", "permgroup", "classical", "ramification", "bounds", "fppoly", "prank", "cli")

# A library call running longer than this is stopped and counted as failed.
# The slowest call on the unchanged code takes about 0.015 s.
CALL_LIMIT_S = 2.0


def _traced():
    modules = [importlib.import_module(f"curvebound.{name}") for name in LAYERS]
    tracer = spans.Tracer()
    start = time.perf_counter()
    spans.install(tracer, modules)
    return tracer, time.perf_counter() - start


def run_cli(pass_id, argv):
    tracer, install_s = _traced()
    from curvebound import cli

    tracer.pass_id = pass_id
    try:
        status = cli.main(argv)
    finally:
        sys.stdout.flush()
        start = time.perf_counter()
        summary = tracer.summary()
        summary_s = time.perf_counter() - start
        record = {"install_s": install_s, "summary_s": summary_s, "passes": summary}
        sys.stderr.write("\n" + json.dumps(record) + "\n")
    return status


class CallTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CallTimeout(f"over the {CALL_LIMIT_S} s call limit")


def library_calls(inputs, parents):
    """The calls of one pass, as (label, thunk) pairs; each thunk returns plain data."""
    from curvebound import bounds, fppoly, perm, prank

    calls = []
    built = {}
    for i, spec in enumerate(inputs["groups"]):
        def build(i=i, spec=spec):
            built[i] = parents[spec["parent"]].subgroup([perm.Permutation(w) for w in spec["gens"]])
            return built[i].order()

        calls.append(("build", build))
        for probe in spec["probes"]:
            calls.append(("member", lambda i=i, probe=probe: perm.Permutation(probe) in built[i]))
        calls.append(("stabilizer", lambda i=i, pt=spec["point"]: built[i].point_stabilizer(pt).order()))
    for order, g in inputs["classify"]:
        calls.append(("classify", lambda order=order, g=g: sorted(bounds.classify(order, g))))

    def power_bound(b):
        return bounds.PowerBound(Fraction(*b["coeff"]), b["shift"], b["num"], b["den"], b["mult"])

    for pair in inputs["dominates"]:
        def dominates(pair=pair):
            rep = bounds.dominates(power_bound(pair["b1"]), power_bound(pair["b2"]),
                                   pair["g_min"], pair["g_max"])
            return [rep.verdict, rep.witness]

        calls.append(("dominates", dominates))
    for poly in inputs["polys"]:
        def positive(poly=poly):
            rep = bounds.poly_positive_from(poly["coeffs"], poly["start"])
            return [rep.verdict, rep.witness]

        calls.append(("poly_positive", positive))

    def audit():
        return [[cid, i, r.verdict, r.witness] for cid, reps in bounds.audit_all().items()
                for i, r in enumerate(reps)]

    calls += [("audit_all", audit)] * inputs["audits"]

    def model(spec):
        return prank.CurveModel(spec["m"], fppoly.FpPoly(spec["p"], spec["f"]), spec["p"])

    for spec in inputs["cartier"]:
        calls.append(("cartier", lambda spec=spec: prank.stable_rank(prank.cartier_matrix(model(spec)))))
    for spec in inputs["counts"]:
        calls.append(("count_points", lambda spec=spec: prank.count_points(model(spec), spec["r"])))
    return calls


def run_library(seed, seconds, traced):
    from curvebound import permgroup

    parents = {name: permgroup.load_group(name) for name in ("alt7", "m11")}
    tracer = _traced()[0] if traced else None
    calls = library_calls(library_inputs(seed), parents)
    signal.signal(signal.SIGALRM, _alarm)
    first, changed, n_passes, trace = None, [], 0, {}
    best_wall = [float("inf")] * len(calls)
    best_cpu = [float("inf")] * len(calls)
    # Passes while the next one, as long as the last, ends within ``seconds``.
    begin = last = time.perf_counter()
    step = 0.0
    while not n_passes or last + step - begin < seconds:
        if tracer is not None:
            tracer.pass_id = n_passes
        results = []
        for i, (_, thunk) in enumerate(calls):
            cpu0, wall0 = time.process_time(), time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
            try:
                value = thunk()
            except Exception as exc:  # every failure is reported with its cause
                value = {"error": f"{type(exc).__name__}: {exc}"}
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if wall > CALL_LIMIT_S and not isinstance(value, dict):
                value = {"error": f"took {wall:.3f} s, over the {CALL_LIMIT_S} s call limit"}
            best_wall[i] = min(best_wall[i], wall)
            best_cpu[i] = min(best_cpu[i], cpu)
            results.append(value)
        if first is None:
            first = results
        changed += [[n_passes, i, r] for i, r in enumerate(results) if r != first[i]]
        n_passes += 1
        if tracer is not None:
            trace.update(tracer.summary())
        now = time.perf_counter()
        step, last = now - last, now
    out = {"labels": [label for label, _ in calls], "passes": n_passes, "first": first,
           "changed": changed, "wall": best_wall, "cpu": best_cpu, "trace": trace}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def main(argv):
    if argv[:1] == ["cli"]:
        return run_cli(int(argv[1]), argv[2:])
    if argv[:1] == ["library"]:
        return run_library(int(argv[1]), float(argv[2]), "--trace" in argv[3:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
