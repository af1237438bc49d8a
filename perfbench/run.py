"""curvebound benchmark: time to correct verdicts, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; curvebound is imported from ./src.
One curvebound process runs at a time.  With --trace 0 the end-to-end
metrics are printed; with --trace 1 a traced run gives the per-layer
metrics and the tracing overhead.  The last line of stdout is a JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refs
from inputs import INPUTS, library_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = str(HERE / "worker.py")
PY = sys.executable

SETUP_BURST = 3
LIBRARY_SEGMENTS = 6
CLI_CALL_LIMIT_S = 60.0

SETUP_CODE = {
    "cold": "import curvebound.cli",
    "library-warm": "from curvebound import bounds, permgroup, prank\n"
                    "permgroup.load_group('alt7'); permgroup.load_group('m11')",
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("slowest_call_s", "s"), ("peak_rss_mb", "MB"))


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("CURVEBOUND_DATA", None)
    return env


def run_child(argv, limit):
    """Run one child to completion: (status, stdout, stderr, wall s, cpu s, max RSS MB).

    status is None when the child was killed at the time limit.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            left = start + limit - time.perf_counter()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(timeout=None if killed else left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out, err = b"".join(chunks[out_fd]), b"".join(chunks[err_fd])
    return (None if killed else proc.returncode, out, err, wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def setups_of(kind, n=SETUP_BURST):
    """Wall times of ``n`` cold set-ups made back to back."""
    walls = []
    for _ in range(n):
        status, _, err, wall, _, _ = run_child([PY, "-c", SETUP_CODE[kind]], CLI_CALL_LIMIT_S)
        if status != 0:
            raise SystemExit("error: curvebound does not import from ./src:\n" + err.decode())
        walls.append(wall)
    return walls


def warm_up(kind):
    """One untimed set-up, which compiles the bytecode."""
    setups_of(kind, 1)


# -- cold workloads ----------------------------------------------------------------


def cold_calls(workload, inputs):
    """(argv, check) per CLI invocation of one pass."""
    if workload == "sporadic-audit":
        return [(c + ["--format", "json"], lambda out, c=c: refs.check_sporadic(c, out))
                for c in inputs["commands"]]
    return [(["prank", "--p", str(m["p"]), "--curve", m["curve"], "--oracle", "--format", "json"],
             lambda out, m=m: refs.check_oracle(m, out)) for m in inputs["models"]]


def cold_pass(calls, pass_id, traced, failures):
    """One pass; returns per-invocation records (wall, cpu, rss, stdout, trace record)."""
    records = []
    for argv, check in calls:
        if traced:
            child = [PY, WORKER, "cli", str(pass_id)] + argv
        else:
            child = [PY, "-m", "curvebound.cli"] + argv
        status, out, err, wall, cpu, rss = run_child(child, CLI_CALL_LIMIT_S)
        if status is None:
            problems = [f"over the {CLI_CALL_LIMIT_S} s call limit"]
        elif status != 0:
            problems = [f"exit status {status}: {err.decode(errors='replace').strip()[-300:]}"]
        else:
            try:
                problems = check(out)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
        if problems:
            failures.append(f"pass {pass_id} {' '.join(argv)}: {'; '.join(problems)}")
        trace = None
        if traced and status == 0:
            trace = json.loads(err.decode().rstrip("\n").rsplit("\n", 1)[-1])
        records.append({"wall": wall, "cpu": cpu, "rss": rss, "out": out, "trace": trace})
    return records


def run_cold(workload, inputs, seconds, traced, failures, setups=None):
    """Passes while the next one, as long as the last, ends within ``seconds``.

    With ``setups``, a burst of set-ups follows each pass.
    """
    calls = cold_calls(workload, inputs)
    passes = []
    begin = last = time.perf_counter()
    step = 0.0
    while not passes or last + step - begin < seconds:
        passes.append(cold_pass(calls, len(passes), traced, failures))
        if setups is not None:
            setups += setups_of("cold")
        now = time.perf_counter()
        step, last = now - last, now
    return passes, len(calls) * len(passes)


# -- library-warm -------------------------------------------------------------------


def run_library(seed, seconds, traced, failures, segment=0):
    """Passes of one warm worker, checked against the references; also the child's max RSS."""
    argv = [PY, WORKER, "library", str(seed), str(seconds)] + (["--trace"] if traced else [])
    status, out, err, _, _, rss = run_child(argv, seconds + 120)
    if status != 0:
        raise SystemExit(f"error: library worker failed ({status}):\n{err.decode()[-2000:]}")
    data = json.loads(out)
    checks = refs.library_checks(library_inputs(seed))
    if [label for label, _ in checks] != data["labels"]:
        raise SystemExit("error: worker and checker disagree on the call sequence")
    first = data["first"]
    verdicts = []
    for (label, check), result in zip(checks, first):
        if isinstance(result, dict):
            verdicts.append(result["error"])
            continue
        try:
            verdicts.append(check(result))
        except (TypeError, IndexError, KeyError, ValueError) as exc:
            verdicts.append(f"unreadable result {result!r}: {exc!r}")
    changed = {(k, i): result for k, i, result in data["changed"]}
    for k in range(data["passes"]):
        for i, label in enumerate(data["labels"]):
            problem = verdicts[i]
            if (k, i) in changed:
                problem = f"result changed between passes: {changed[k, i]!r}"
            if problem:
                failures.append(f"segment {segment} pass {k} call {i} ({label}): {problem}")
    return data, len(checks) * data["passes"], rss


# -- metrics ----------------------------------------------------------------------


def fastest(passes, key):
    """Each invocation's fastest time over the passes of a cold run."""
    return [min(p[i][key] for p in passes) for i in range(len(passes[0]))]


def run_library_segments(seed, seconds, failures, setups):
    """The warm loop split over LIBRARY_SEGMENTS workers, with a burst of set-ups before each.

    Segment k ends (k + 1) / LIBRARY_SEGMENTS of the way through ``seconds``.
    Each call's time is its fastest over every pass of every segment.
    """
    walls, cpus, n_passes, attempted, rss = None, None, 0, 0, 0.0
    begin = time.perf_counter()
    for segment in range(LIBRARY_SEGMENTS):
        setups += setups_of("library-warm")
        left = begin + seconds * (segment + 1) / LIBRARY_SEGMENTS - time.perf_counter()
        data, n, seg_rss = run_library(seed, max(left, 0.0), False, failures, segment)
        walls = data["wall"] if walls is None else list(map(min, walls, data["wall"]))
        cpus = data["cpu"] if cpus is None else list(map(min, cpus, data["cpu"]))
        n_passes += data["passes"]
        attempted += n
        rss = max(rss, seg_rss)
    return walls, cpus, n_passes, attempted, rss


def end_to_end(workload, seed, seconds, failures):
    """Set-ups and passes, interleaved, for ``seconds``.

    Interference from other tenants of a shared machine only ever adds
    time, and it comes in waves several seconds long, so each call is timed
    at its fastest over the run's passes; pass time is the sum of those.
    Set-ups are spread over the run in short bursts between passes, and
    ``setup_s`` is the median of all of them.
    """
    setups = []
    if workload == "library-warm":
        warm_up("library-warm")
        walls, cpus, n_passes, attempted, rss = run_library_segments(seed, seconds, failures, setups)
    else:
        warm_up("cold")
        setups += setups_of("cold")
        passes, attempted = run_cold(workload, INPUTS[workload](seed), seconds, False, failures, setups)
        walls, cpus, n_passes = fastest(passes, "wall"), fastest(passes, "cpu"), len(passes)
        rss = max(r["rss"] for p in passes for r in p)
    values = {"setup_s": statistics.median(setups), "wall_s": sum(walls), "cpu_s": sum(cpus),
              "slowest_call_s": max(walls), "peak_rss_mb": rss}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, attempted, n_passes


def _merge(into, record):
    for name, row in record["spans"].items():
        acc = into["spans"].setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += row[i]
    for key in ("counts", "extras"):
        for name, value in record[key].items():
            into[key][name] = into[key].get(name, 0) + value


def _empty():
    return {"spans": {}, "counts": {}, "extras": {}, "cli_process_s": 0.0, "agrees": 0, "oracle_calls": 0}


def _calls(s, *names):
    return sum(s["spans"].get(n, [0])[0] for n in names)


def _incl(s, *names):
    return sum(s["spans"].get(n, [0, 0.0])[1] for n in names)


def _layer_self(s, layer):
    return sum(row[2] for name, row in s["spans"].items() if name.split(".", 1)[0] == layer)


def _ratio(a, b):
    return a / b if b else 0.0


PG = "permgroup.PermGroup."
PER_LAYER = (
    ("perm.ops", "count", lambda s: sum(s["counts"].get(f"perm.Permutation.{m}", 0)
                                        for m in ("__mul__", "inverse", "conjugate"))),
    ("perm.constructed", "count", lambda s: s["counts"].get("perm.Permutation.__init__", 0)),
    ("permgroup.self_s", "s", lambda s: _layer_self(s, "permgroup")),
    ("permgroup.normalizer_s", "s", lambda s: _incl(s, PG + "normalizer")),
    ("permgroup.normalizer_calls", "count", lambda s: _calls(s, PG + "normalizer")),
    ("permgroup.normalizer_yield", "ratio", lambda s: _ratio(s["extras"].get("normalizer_found", 0),
                                                             s["extras"].get("normalizer_scanned", 0))),
    ("permgroup.elements_materialized", "count", lambda s: s["extras"].get("elements_materialized", 0)),
    ("permgroup.elements_s", "s", lambda s: _incl(s, PG + "elements")),
    ("permgroup.sylow_s", "s", lambda s: _incl(s, PG + "sylow_subgroup")),
    ("permgroup.class_reps_s", "s", lambda s: _incl(s, PG + "conjugacy_class_reps")),
    ("permgroup.max_solvable_s", "s", lambda s: _incl(s, "permgroup.max_solvable_with_cyclic_complement")),
    ("permgroup.p_subgroup_reps_s", "s", lambda s: _incl(s, "permgroup.p_subgroup_class_reps")),
    ("permgroup.bsgs_builds", "count", lambda s: _calls(s, PG + "__init__")),
    ("permgroup.build_s", "s", lambda s: _incl(s, PG + "__init__")),
    ("permgroup.sift_calls", "count", lambda s: _calls(s, PG + "sift")),
    ("permgroup.sift_s", "s", lambda s: _incl(s, PG + "sift")),
    ("classical.sporadic_facts_s", "s", lambda s: _incl(s, "classical.sporadic_facts")),
    ("classical.self_s", "s", lambda s: _layer_self(s, "classical")),
    ("ramification.enumerate_s", "s", lambda s: _incl(s, "ramification.enumerate_case_iii")),
    ("ramification.candidates", "count", lambda s: s["extras"].get("candidates", 0)),
    ("bounds.audit_all_s", "s", lambda s: _incl(s, "bounds.audit_all")),
    ("bounds.steps_audited", "count", lambda s: s["extras"].get("steps_audited", 0)),
    ("bounds.dominates_s", "s", lambda s: _incl(s, "bounds.dominates")),
    ("bounds.poly_positive_s", "s", lambda s: _incl(s, "bounds.poly_positive_from")),
    ("bounds.classify_s", "s", lambda s: _incl(s, "bounds.classify")),
    ("fppoly.extfield_mul", "count", lambda s: _calls(s, "fppoly.ExtField.mul")),
    ("fppoly.extfield_mul_s", "s", lambda s: _incl(s, "fppoly.ExtField.mul")),
    ("fppoly.self_s", "s", lambda s: _layer_self(s, "fppoly")),
    ("prank.count_points_s", "s", lambda s: _incl(s, "prank.count_points")),
    ("prank.points_counted", "count", lambda s: s["extras"].get("points_counted", 0)),
    ("prank.s_per_point", "s/point", lambda s: _ratio(_incl(s, "prank.count_points"),
                                                      s["extras"].get("points_counted", 0))),
    ("prank.cartier_s", "s", lambda s: _incl(s, "prank.cartier_matrix", "prank.stable_rank")),
    ("prank.cartier_calls", "count", lambda s: _calls(s, "prank.cartier_matrix")),
    ("prank.oracle_agree_ratio", "ratio", lambda s: _ratio(s["agrees"], s["oracle_calls"])),
    ("cli.process_s", "s", lambda s: s["cli_process_s"]),
    ("cli.emit_s", "s", lambda s: _incl(s, "cli.Report.emit")),
)


def per_layer(workload, seed, seconds, failures):
    """Untraced passes for half the time, then traced passes.

    Layer metrics are medians over the traced passes; the overhead compares
    fastest-call sums of the two halves, as ``end_to_end`` times them.
    """
    half = seconds / 2
    if workload == "library-warm":
        plain, n_plain, _ = run_library(seed, half, False, failures)
        traced, n_traced, _ = run_library(seed, half, True, failures)
        plain_s, traced_s = sum(plain["wall"]), sum(traced["wall"])
        summaries = []
        for k in range(traced["passes"]):
            s = _empty()
            _merge(s, traced["trace"].get(str(k), {"spans": {}, "counts": {}, "extras": {}}))
            summaries.append(s)
    else:
        warm_up("cold")
        inputs = INPUTS[workload](seed)
        plain, n_plain = run_cold(workload, inputs, half, False, failures)
        traced, n_traced = run_cold(workload, inputs, half, True, failures)
        plain_s, traced_s = sum(fastest(plain, "wall")), sum(fastest(traced, "wall"))
        summaries = []
        for records in traced:
            s = _empty()
            for r in records:
                if r["trace"] is None:
                    continue
                (record,) = r["trace"]["passes"].values()
                _merge(s, record)
                main_s = record["spans"].get("cli.main", [0, 0.0])[1]
                s["cli_process_s"] += r["wall"] - main_s - r["trace"]["install_s"] - r["trace"]["summary_s"]
                if workload == "prank-oracle":
                    s["oracle_calls"] += 1
                    rows = json.loads(r["out"])["rows"]
                    s["agrees"] += any(row["verdict"] == "agrees" for row in rows)
            summaries.append(s)
    metrics = {name: {"value": statistics.median(fn(s) for s in summaries), "unit": unit}
               for name, unit, fn in PER_LAYER}
    metrics["trace.overhead_ratio"] = {"value": traced_s / plain_s, "unit": "ratio"}
    return metrics, n_plain + n_traced, len(summaries)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "curvebound" / "__init__.py").is_file():
        print(f"error: no curvebound sources under {SRC}", file=sys.stderr)
        return 2
    print("inputs " + json.dumps(INPUTS[args.workload](args.seed), sort_keys=True))
    failures = []
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, n_passes = measure(args.workload, args.seed, args.seconds, failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {n_passes}  "
          f"attempted {attempted}  failed {len(failures)}")
    for failure in failures[:20]:
        print("FAILED " + failure)
    if len(failures) > 20:
        print(f"FAILED ... and {len(failures) - 20} more")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_share':34s} {len(failures) / attempted:.6g} ratio")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
