"""Command-line front end: run verification suites, stream machine-readable reports.

CHECKS maps each command to its list of work units: one per n for verify,
lemma1 and chain, one per (n, q) for brute and one per q for counts; `all`
concatenates the other five commands' units.  A unit is a zero-argument
callable that yields its records.  run reads each record's verdict from its
"equal" field (a dimension record's "agree") and sets the exit code.

A process loads only the modules its command runs.  Importing this module
loads counting and gfield alone, for the parser's feasibility default and
RunConfig's q check.  A command's table entry imports the rest once, here,
before any fork: verify, lemma1 and chain load engine with the q-polynomial
stack (laurent, rational, qseries); counts loads kernels; brute loads
dimension, which needs both.  csv is imported only under --format csv.

The units are independent exact computations, so run spreads them over
w = min(CPUs this process may use, units) worker processes.  With w = 1 (one
usable CPU, as under `taskset -c 0`, or other threads running) they run
in-process.  Otherwise w workers are forked; unit i goes to worker 0, 1, ..,
w-1, w-1, .., 0, 0, .. in turn, and each worker sends every unit's records
back down its own pipe as one length-prefixed marshal frame.  This process
only relays: it reads the frames in unit order and writes, checks and exits
exactly as the in-process run does, so the stream does not depend on w.  A
unit's failure is raised at its place in the stream.  Every worker is killed
and reaped however the run ends, and ends by itself if this process is
killed first.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage error
or unwritable output (an unopenable --output, or a stdout closed early as by
`| head -1`: one stderr line, no traceback), 3 an enumeration exceeded the
feasibility limit and no earlier check failed.  The stream stops at the first
infeasible enumeration with an "infeasible" error line; a check that failed
before it still makes the exit code 1.
Reports are emitted one JSON object per line (or CSV rows with --format csv)
in a deterministic order with stable keys; only the elapsed_ms field varies
between runs.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import sys
from functools import partial
from typing import Optional

from .counting import FEASIBILITY_LIMIT, FeasibilityError
from .gfield import SUPPORTED_Q

COMMANDS = ("verify", "lemma1", "chain", "brute", "counts", "all")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


class UsageError(ValueError):
    pass


class RunConfig:
    """One run's settings, checked when it is built: a bad one raises UsageError."""

    def __init__(
        self,
        command: str,
        n_min: int = 1,
        n_max: int = 1,
        k: Optional[int] = None,
        q_list: Optional[list] = None,
        feasibility_limit: int = FEASIBILITY_LIMIT,
        output: Optional[str] = None,
        format: str = "json",
    ):
        self.command = command
        self.n_min = n_min
        self.n_max = n_max
        self.k = k
        self.q_list = [2, 3] if q_list is None else q_list
        self.feasibility_limit = feasibility_limit
        self.output = output
        self.format = format
        if self.command not in COMMANDS:
            raise UsageError("unknown command %r" % self.command)
        if self.n_min > self.n_max:
            raise UsageError("empty n range %d..%d" % (self.n_min, self.n_max))
        if self.n_min < 1:
            raise UsageError("n must be >= 1")
        if not self.q_list:
            raise UsageError("empty q list")
        bad = [q for q in self.q_list if q not in SUPPORTED_Q]
        if bad:
            raise UsageError("unsupported q values %r (supported: %r)" % (bad, SUPPORTED_Q))
        if self.format not in ("json", "csv"):
            raise UsageError("format must be json or csv")
        if self.feasibility_limit < 0:
            raise UsageError("--limit must be >= 0")
        if self.k is not None and not 0 <= self.k <= self.n_min:
            raise UsageError("k=%d out of range 0..%d" % (self.k, self.n_min))


def _parse_range(text: str):
    if ".." in text:
        lo, _, hi = text.partition("..")
    else:
        lo = hi = text
    try:
        return int(lo), int(hi)
    except ValueError:
        raise UsageError("bad n range %r (expected N or A..B)" % text) from None


def _parse_q(values):
    out = []
    for chunk in values:
        for piece in str(chunk).split(","):
            piece = piece.strip()
            if piece:
                try:
                    out.append(int(piece))
                except ValueError:
                    raise UsageError("bad q value %r" % piece) from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitdim",
        description="Exact verification of the dimension identity, its proof "
        "chain, and the finite-field counting oracles.",
    )
    # counts reads no --n, and only lemma1 and all read --k; elsewhere each is a usage error
    parser.set_defaults(n=None, k=None)
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "verify": "main identity: closed product vs raw dimension sum",
        "lemma1": "inner double sum vs its closed form, per k",
        "chain": "every rewrite step of the derivation",
        "brute": "brute-force / mid-derivation / closed dimension agreement",
        "counts": "matrix-counting enumerations vs closed formulas",
        "all": "union of every other command's checks",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        if name != "counts":
            p.add_argument("--n", "--n-range", dest="n", default=None,
                           help="single n or inclusive range A..B")
        if name in ("lemma1", "all"):
            p.add_argument("--k", type=int, default=None,
                           help="restrict lemma1 to one k (default: all 0..n)")
        p.add_argument("--q", action="append", default=None,
                       help="field sizes, comma-separated or repeated")
        p.add_argument("--limit", type=int, default=FEASIBILITY_LIMIT,
                       help="enumeration feasibility limit (candidates)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write reports to PATH")
    return parser


def config_from_args(args) -> RunConfig:
    if args.n is None and args.command != "counts":
        raise UsageError("--n is required for %r" % args.command)
    n_min, n_max = _parse_range(args.n) if args.n is not None else (1, 1)
    q_list = _parse_q(args.q) if args.q else [2, 3]
    return RunConfig(
        command=args.command,
        n_min=n_min,
        n_max=n_max,
        k=args.k,
        q_list=q_list,
        feasibility_limit=args.limit,
        output=args.output,
        format=args.format,
    )


# ---------------------------------------------------------------------------
# the check table: each command maps a RunConfig to its list of work units
# ---------------------------------------------------------------------------


def _n_range(cfg: RunConfig):
    return range(cfg.n_min, cfg.n_max + 1)


def _counting_cases(counting):
    """(kind, enumeration-vs-formula oracle, its arguments but q) per counts record."""
    for s in range(1, 4):
        for t in range(1, 4):
            for k in range(min(s, t) + 1):
                yield "rect-rank", counting.count_rect_by_rank, {"s": s, "t": t, "k": k}
    for size in range(0, 4):
        for k in range(size + 1):
            yield "trace-delta", counting.prasad_delta, {"m": size - k, "k": k}
    for n in range(1, 5):
        for m in range(n + 1):
            yield "grassmann", counting.grassmann_count, {"n": n, "m": m}


# A work unit is a zero-argument callable that yields its records.  Each
# command's table entry imports the modules its units run, once, in this
# process and before any fork, and binds each unit to its module.  The engine
# and oracle functions are looked up in that module when a unit runs, not
# when the table is built, so they can be replaced at run time.


def _verify_unit(engine, n: int):
    yield engine.verify_main(n).to_json_dict()


def _lemma1_unit(engine, n: int, k: Optional[int]):
    for j in [k] if k is not None else range(n + 1):
        yield engine.verify_inner_sum(n, j).to_json_dict()


def _chain_unit(engine, n: int):
    for rep in engine.simplification_chain(n) + engine.conclusion_chain(n):
        yield rep.to_json_dict()


def _brute_unit(dimension, n: int, q: int, limit: int):
    yield dimension.dimension_report(n, q, limit)


def _counts_unit(counting, q: int, limit: int):
    # one unit per q, so each (q, shape) enumeration is memoised in one process
    for kind, oracle, params in _counting_cases(counting):
        enum, formula = oracle(**params, q=q, limit=limit)
        yield {
            "params": {"kind": kind, **params, "q": q},
            "enumerated": enum,
            "formula": formula,
            "equal": enum == formula,
        }


def _engine_units(unit, cfg: RunConfig, *args) -> list:
    from . import engine

    return [partial(unit, engine, n, *args) for n in _n_range(cfg)]


def _brute_units(cfg: RunConfig) -> list:
    from . import dimension

    return [
        partial(_brute_unit, dimension, n, q, cfg.feasibility_limit)
        for n in _n_range(cfg)
        for q in cfg.q_list
    ]


def _counts_units(cfg: RunConfig) -> list:
    # kernels runs counting's tables: load it here, before any fork
    from . import counting, kernels  # noqa: F401

    return [partial(_counts_unit, counting, q, cfg.feasibility_limit) for q in cfg.q_list]


CHECKS = {
    "verify": lambda cfg: _engine_units(_verify_unit, cfg),
    "lemma1": lambda cfg: _engine_units(_lemma1_unit, cfg, cfg.k),
    "chain": lambda cfg: _engine_units(_chain_unit, cfg),
    "brute": _brute_units,
    "counts": _counts_units,
    "all": lambda cfg: [unit for command in COMMANDS[:-1] for unit in CHECKS[command](cfg)],
}


# ---------------------------------------------------------------------------
# the runner: units spread over forked workers, records relayed in unit order
# ---------------------------------------------------------------------------


class UnitError(RuntimeError):
    """A work unit raised in a worker process; the message is its traceback."""


def _worker_count(units: int) -> int:
    """One worker per CPU this process may run on, at most one per unit.

    fork copies only the calling thread, so a process running other threads
    gets one worker: the units then run in-process.  So does a platform
    without os.sched_getaffinity, such as macOS or Windows.
    """
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), units)


def _owner(unit: int, workers: int) -> int:
    """The worker of a unit, in boustrophedon order: 0, 1, .., w-1, w-1, .., 0, 0, ..

    Units whose cost grows with their index are dealt out evenly.
    """
    lap, place = divmod(unit, workers)
    return workers - 1 - place if lap % 2 else place


def _frame(unit) -> tuple:
    """(records, failure) for one unit; failure is None, or says how it stopped."""
    records = []
    try:
        for record in unit():
            records.append(record)
    except FeasibilityError as exc:
        return records, ("infeasible", exc.candidates, exc.limit)
    except Exception:
        import traceback

        return records, ("error", traceback.format_exc())
    return records, None


def _work(units, fd: int, lifeline: int):
    """A worker's loop: one length-prefixed marshal frame per unit, down fd.

    It stops after the first unit that failed.  The parent holds the only
    write end of the lifeline, so a read of it returns only once the parent
    is gone, killed or not; a watcher thread then ends the worker at once,
    even in the middle of a unit.
    """
    import threading

    threading.Thread(target=_exit_on_eof, args=(lifeline,), daemon=True).start()
    with os.fdopen(fd, "wb") as out:
        for unit in units:
            frame = _frame(unit)
            data = marshal.dumps(frame)
            out.write(len(data).to_bytes(8, "little") + data)
            out.flush()
            if frame[1] is not None:
                return


def _exit_on_eof(fd: int):
    os.read(fd, 1)
    os._exit(1)


def _read_frame(reader, unit: int) -> tuple:
    size = int.from_bytes(reader.read(8), "little")
    data = reader.read(size)
    if not size or len(data) < size:
        raise RuntimeError("a worker exited before sending work unit %d" % unit)
    return marshal.loads(data)


def _records(units):
    """Every unit's records, in unit order, computed over the CPUs this process may use.

    With one worker the units run in-process.  Otherwise each worker is
    forked with its own pipe and runs its units in order; this process only
    relays their frames, in unit order.  A unit's failure is raised here, at
    its place in the stream, after the records the unit made before it.
    Every worker is killed and reaped however the stream ends, and ends by
    itself if this process dies first.
    """
    workers = _worker_count(len(units))
    if workers <= 1:
        for unit in units:
            yield from unit()
        return
    pids, readers = [], []
    lifeline, parent_end = os.pipe()
    try:
        for w in range(workers):
            r, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # the worker leaves only through os._exit, so it never returns
                # into the caller and flushes no stream buffer it inherited
                try:
                    os.close(r)
                    os.close(parent_end)
                    for reader in readers:
                        reader.close()
                    mine = [u for i, u in enumerate(units) if _owner(i, workers) == w]
                    _work(mine, wfd, lifeline)
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(wfd)
            readers.append(os.fdopen(r, "rb"))
        for i in range(len(units)):
            records, failure = _read_frame(readers[_owner(i, workers)], i)
            yield from records
            if failure is None:
                continue
            if failure[0] == "infeasible":
                raise FeasibilityError(*failure[1:])
            raise UnitError(failure[1])
    finally:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()
        os.close(lifeline)
        os.close(parent_end)


def _passed(record: dict) -> bool:
    """A record's verdict: its "equal" field, or "agree" for a dimension record."""
    return bool(record.get("equal", record.get("agree")))


def _csv_row(report: dict):
    check = report.get("identity") or report.get("params", {}).get("kind") or "dimension"
    detail = {
        key: value
        for key, value in report.items()
        if key not in ("identity", "equal", "agree", "elapsed_ms")
    }
    return [
        check,
        report.get("n", detail.get("params", {}).get("n", "")),
        report.get("k", detail.get("params", {}).get("k", "")),
        report.get("q", detail.get("params", {}).get("q", "")),
        "true" if _passed(report) else "false",
        json.dumps(detail, separators=(",", ":")),
    ]


def run(cfg: RunConfig, stream) -> int:
    """Execute the configured suite, writing reports to the stream."""
    all_ok = True
    writer = None
    if cfg.format == "csv":
        import csv

        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["check", "n", "k", "q", "ok", "detail"])
    records = _records(CHECKS[cfg.command](cfg))
    try:
        for report in records:
            all_ok = all_ok and _passed(report)
            if writer is not None:
                writer.writerow(_csv_row(report))
            else:
                stream.write(json.dumps(report, separators=(", ", ": ")) + "\n")
    except FeasibilityError as exc:
        msg = {"error": "infeasible", "detail": str(exc), "candidates": exc.candidates}
        stream.write(json.dumps(msg) + "\n")
        # a failed proof step outranks "too large to enumerate"
        return EXIT_INFEASIBLE if all_ok else EXIT_FAILED
    finally:
        records.close()  # stops the workers if the stream ends early
    return EXIT_OK if all_ok else EXIT_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if cfg.output:
        try:
            fh = open(cfg.output, "w", newline="")
        except OSError as exc:
            print("error: cannot write --output %s: %s" % (cfg.output, exc.strerror),
                  file=sys.stderr)
            return EXIT_USAGE
        with fh:
            return run(cfg, fh)
    try:
        code = run(cfg, sys.stdout)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet exit flush
        print("error: stdout was closed before the run finished", file=sys.stderr)
        return EXIT_USAGE
    return code


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
