#!/usr/bin/env python3
"""whitdim benchmark: wall time to a verified verdict on fixed CLI suites.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload identity --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Load model: a closed loop with one client.  Each pass runs the workload's
``python -m whitdim.cli ...`` invocations one at a time (PYTHONPATH=src,
whatever backend ``whitdim.BACKEND`` selects), and the next starts only after
the previous one exits.  The seed permutes the order of the invocations and
of their --q lists; the set of parameters, and so the work, stays fixed.

Every record is checked against references computed in check.py without
whitdim.  A non-zero exit, a timeout, or a missing, extra, false or wrong
record is a failed check.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it runs untraced passes, then one pass through
trace_child.py, and reports the per-layer metrics.  The last line of
standard output is the JSON result; lines starting with '#' before it carry
run metadata and a readable summary.  The exit code is 0 only if every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from check import Invocation, check_output
from trace_child import SPANS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

WORKLOADS = {
    # the incremental (k, m, l) walker and the sparse (1 - q^j) kernels on
    # big-integer polynomials; one large canonicalisation per n, no GF(q) work
    "identity": (Invocation("verify", 1, 16), Invocation("lemma1", 1, 12)),
    # thousands of small canonicalisations (many on the gcd path), dense
    # products in the cross-checks that rebuild each term, q-series products
    "chains": (Invocation("chain", 1, 10),),
    # exhaustive GF(q) enumeration, then many small counting records.  n stops
    # at 2: the 2^27 triples at n=3, q=2 take tens of minutes on the pure backend
    "oracles": (Invocation("brute", 1, 2, (2, 3)), Invocation("counts", qs=(2, 3))),
}

INVOCATION_TIMEOUT_S = 60    # about 8x the slowest invocation here
RUN_LIMIT_S = 165            # every run ends inside the 180 s the harness may take
SETUP_PER_PASS = 3
SETUP_CODE = "import whitdim.cli, whitdim, time; print(time.monotonic(), whitdim.BACKEND)"

CHAIN_STEPS = (
    "simplify-factorial-signs", "simplify-long-range", "simplify-k-tail",
    "simplify-m-tail", "simplify-regrouped-sum", "conclusion-group-by-k",
    "conclusion-reindex-outer", "conclusion-coefficient-extraction",
)
SPAN_CALLS = (
    "laurent.times_one_minus_q", "laurent.div_one_minus_q", "laurent.mul",
    "laurent.add", "laurent.poly_exact_div", "laurent.poly_gcd",
    "rational.canonicalise", "qseries.series_mul", "kernels.count_by_rank",
    "kernels.count_by_rank_trace", "kernels.count_triples_by_rank_bucket",
)
KERNELS = SPAN_CALLS[-3:]


class Harness:
    """One benchmark run: a working directory, the child environment, a deadline."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.backend = None

    def spawn(self, argv, name):
        """Run argv to completion; returns (exit code or None on timeout, max RSS KB, wall s)."""
        timeout = max(0.0, min(INVOCATION_TIMEOUT_S, self.deadline - time.monotonic()))
        fired = []

        def kill():
            fired.append(True)
            os.kill(proc.pid, signal.SIGKILL)

        with open(self.workdir / (name + ".out"), "wb") as out, \
                open(self.workdir / (name + ".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, kill)
            timer.start()
            # WNOWAIT leaves the child unreaped, so a late kill cannot hit another process
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (None if fired else proc.returncode), usage.ru_maxrss, wall

    def output(self, name) -> str:
        return (self.workdir / (name + ".out")).read_text()

    def setup_sample(self) -> float:
        """Seconds from spawning a fresh interpreter until `import whitdim.cli` is done."""
        t0 = time.monotonic()
        code, _, _ = self.spawn([sys.executable, "-c", SETUP_CODE], "setup")
        if code != 0:
            raise SystemExit("error: `import whitdim.cli` failed:\n"
                             + (self.workdir / "setup.err").read_text())
        ready, self.backend = self.output("setup").split()
        return float(ready) - t0

    def run_pass(self, invocations, traced=False):
        """Run each invocation once, timed as one pass, then check every output."""
        runs = []
        t0 = time.perf_counter()
        for i, inv in enumerate(invocations):
            name = "inv%d" % i
            if traced:
                argv = [sys.executable, str(HERE / "trace_child.py"),
                        str(self.workdir / (name + ".spans")), *inv.argv()]
            else:
                argv = [sys.executable, "-m", "whitdim.cli", *inv.argv()]
            runs.append((inv, name) + self.spawn(argv, name))
        wall = time.perf_counter() - t0
        result = {"wall": wall, "rss_kb": max(r[3] for r in runs), "expected": 0,
                  "verified": 0, "failed": 0, "problems": [], "texts": [],
                  "spans": []}
        for inv, name, code, _, _ in runs:
            text = self.output(name)
            outcome = check_output(inv, text, code)
            result["expected"] += outcome.expected
            result["verified"] += outcome.verified
            result["failed"] += outcome.failed
            result["problems"] += ["%s: %s" % (" ".join(inv.argv()), p) for p in outcome.problems]
            if code not in (0, None):
                tail = (self.workdir / (name + ".err")).read_text()[-2000:]
                result["problems"].append("stderr of %s: %s" % (" ".join(inv.argv()), tail))
            result["texts"].append(text)
            if traced:
                spans = self.workdir / (name + ".spans")
                result["spans"].append(json.loads(spans.read_text()) if spans.exists() else None)
        return result

    def passes(self, workload, rng, budget_s, between=None):
        """Passes while the next one is expected to fit in budget_s (at least one).

        between() runs after each pass, inside the budget but outside pass timing.
        """
        out = []
        start = time.monotonic()
        while True:
            out.append(self.run_pass(shuffled(WORKLOADS[workload], rng)))
            if between is not None:
                between()
            elapsed = time.monotonic() - start
            typical = statistics.median(p["wall"] for p in out)
            if out[-1]["failed"] or elapsed + typical > budget_s:
                return out

    def parity(self):
        """Pure/compiled kernel parity on the bench_backends.py cases, if compiled is built."""
        if self.backend != "compiled":
            return {"status": "not run: backend is %s, compiled kernel not built" % self.backend,
                    "cases": 0, "failed": 0}
        code, _, _ = self.spawn([sys.executable, str(HERE / "parity.py")], "parity")
        try:
            report = json.loads(self.output("parity"))
        except ValueError:
            report = {"cases": 1, "mismatches": ["parity.py exit %r" % code]}
        failed = len(report["mismatches"]) or (code != 0)
        return {"status": "mismatch: %s" % report["mismatches"] if failed else "agree",
                "cases": max(report["cases"], 1), "failed": int(failed)}


def shuffled(invocations, rng):
    order = rng.sample(invocations, len(invocations))
    return [Invocation(i.command, i.n_lo, i.n_hi, tuple(rng.sample(i.qs, len(i.qs))))
            for i in order]


def git_revision() -> str:
    """HEAD from .git in the checkout, without running git (which would search upwards)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown (%s)" % ref


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(harness, workload, rng, seconds):
    harness.setup_sample()                      # fills the bytecode cache, learns the backend

    def sample_setup():
        setup_samples.extend(harness.setup_sample() for _ in range(SETUP_PER_PASS))

    # set-up samples are spread over the run, so one slow moment cannot move them all
    setup_samples = []
    sample_setup()
    runs = harness.passes(workload, rng, seconds, between=sample_setup)
    walls = [p["wall"] for p in runs]
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "checks_per_s": metric(statistics.median(p["verified"] / p["wall"] for p in runs), "1/s"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": metric(statistics.median(p["rss_kb"] / 1024.0 for p in runs), "MB"),
    }
    detail = {"pass_walls_s": walls, "setup_samples_s": setup_samples}
    return runs, metrics, detail


def per_layer(harness, workload, rng, seconds):
    untraced = harness.passes(workload, rng, seconds / 2)
    if untraced[-1]["failed"]:
        return untraced, {}, [], {}
    traced = harness.run_pass(shuffled(WORKLOADS[workload], rng), traced=True)
    runs = untraced + [traced]
    missing = set()                             # layers the tracer could not find
    calls, self_s = {}, {}
    counters = {"rational.max_input_bits": 0, "kernels.candidates": 0, "gfield.rank.calls": 0}
    hits = misses = 0
    gcd_path = 0
    edges = {}
    for dump in traced["spans"]:
        if dump is None:
            continue
        missing.update(dump["absent"])
        for e in dump["edges"]:
            calls[e["name"]] = calls.get(e["name"], 0) + e["calls"]
            self_s[e["name"]] = self_s.get(e["name"], 0.0) + e["self_s"]
            key = "%s > %s" % (e["parent"], e["name"])
            edges[key] = edges.get(key, 0.0) + e["self_s"]
            if e["parent"] == "rational.canonicalise" and e["name"] == "laurent.poly_gcd":
                gcd_path += e["calls"]          # _reduce tries the gcd at most once
        counters["rational.max_input_bits"] = max(counters["rational.max_input_bits"],
                                                  dump["counters"]["rational.max_input_bits"])
        counters["kernels.candidates"] += dump["counters"]["kernels.candidates"]
        counters["gfield.rank.calls"] += dump["counters"].get("gfield.rank.calls", 0)
        if dump["qq_cache"]:
            hits += dump["qq_cache"][0]
            misses += dump["qq_cache"][1]
    metrics = {}
    for name, _, _ in SPANS:
        if name in SPAN_CALLS:
            metrics[name + ".calls"] = metric(calls.get(name, 0), "count")
        metrics[name + ".self_s"] = metric(self_s.get(name, 0.0), "s")

    absent = set()

    def ratio(name, num, den, unit="ratio"):
        if not den:
            absent.add(name)
        metrics[name] = metric(num / den if den else 0.0, unit)

    canon = calls.get("rational.canonicalise", 0)
    metrics["rational.gcd_path.calls"] = metric(gcd_path, "count")
    ratio("rational.exact_path_ratio", canon - gcd_path, canon)
    metrics["rational.max_input_bits"] = metric(counters["rational.max_input_bits"], "bits")
    ratio("qseries.qq.hit_ratio", hits, hits + misses)
    metrics["gfield.rank.calls"] = metric(counters["gfield.rank.calls"], "count")
    metrics["kernels.candidates"] = metric(counters["kernels.candidates"], "count")
    ratio("kernels.candidates_per_s", counters["kernels.candidates"],
          sum(self_s.get(k, 0.0) for k in KERNELS), "1/s")
    # chain step times come from the reports of the untraced passes
    for step in CHAIN_STEPS:
        per_pass = [sum(r["elapsed_ms"] for r in records(p) if r.get("identity") == step)
                    for p in untraced]
        if not any(per_pass):
            absent.add("chain.%s.ms" % step)
        metrics["chain.%s.ms" % step] = metric(statistics.median(per_pass), "ms")
    first = untraced[0]
    metrics["cli.output_bytes"] = metric(sum(len(t.encode()) for t in first["texts"]), "bytes")
    metrics["cli.records"] = metric(len(records(first)), "count")
    traced_wall = traced["wall"]
    metrics["trace.overhead_s"] = metric(
        traced_wall - statistics.median(p["wall"] for p in untraced), "s")
    metrics["trace.unattributed_s"] = metric(traced_wall - sum(self_s.values()), "s")
    if "laurent.poly_gcd" in missing:
        missing.update(("rational.gcd_path", "rational.exact_path_ratio"))
    absent |= {m for m in metrics for layer in missing if m == layer or m.startswith(layer + ".")}
    top = sorted(edges.items(), key=lambda kv: -kv[1])[:12]
    detail = {"untraced_walls_s": [p["wall"] for p in untraced], "traced_wall_s": traced_wall,
              "top_self_s": {k: round(v, 4) for k, v in top}}
    return runs, metrics, sorted(absent), detail


def records(run_pass):
    out = []
    for text in run_pass["texts"]:
        for line in text.splitlines():
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and ("equal" in rec or "agree" in rec):
                out.append(rec)
    return out


def run_workload(workload, seed, seconds, trace):
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        harness = Harness(workdir)
        rng = random.Random(seed)
        meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                "python": platform.python_version(), "git": git_revision(),
                "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "loadavg": os.getloadavg()}
        if trace:
            harness.setup_sample()                  # learns the backend, warms the bytecode cache
            runs, metrics, absent, detail = per_layer(harness, workload, rng, seconds)
        else:
            runs, metrics, detail = end_to_end(harness, workload, rng, seconds)
            absent = []
        meta["backend"] = harness.backend
        attempted = sum(p["expected"] for p in runs)
        failed = sum(p["failed"] for p in runs)
        if workload == "oracles":
            parity = harness.parity()
            meta["parity"] = parity["status"]
            attempted += parity["cases"]
            failed += parity["failed"]
        print("# meta " + json.dumps(meta))
        for p in runs:
            for line in p["problems"][:20]:
                print("# FAIL " + line)
        print("# %s detail %s" % (workload, json.dumps(detail)))
        if absent:
            print("# %s absent (reported as 0): %s" % (workload, ", ".join(absent)))
        summary = " | ".join("%s %.6g %s" % (k, v["value"], v["unit"]) for k, v in metrics.items())
        print("# %s: %s | fail_ratio %.6g ratio (%d of %d checks, %d passes)"
              % (workload, summary, failed / max(attempted, 1), failed, attempted, len(runs)))
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "whitdim" / "cli.py").is_file():
        print("error: %s holds no whitdim sources (src/whitdim/cli.py); run from a checkout"
              % ROOT, file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            one = run_workload(name, args.seed, args.seconds, args.trace)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update({"%s.%s" % (name, k): v for k, v in one["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
