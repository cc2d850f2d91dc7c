"""Command-line front end: run verification suites, stream machine-readable reports.

COMMANDS is the one table of commands: each name maps to its help line, the
options it reads besides --format and --output, and its units builder (one
unit per n for verify, lemma1 and chain, per (n, q) for brute, per q for
counts); `all` reads the other five's options and runs their units in turn.
An option not given is absent from the parsed arguments, so RunConfig, built
from them alone, holds every default.  A unit is a zero-argument callable
that yields its records, plain dicts built by the module that owns the check.
run reads each record's verdict from its "equal" field (a dimension record's
"agree") and sets the exit code.

A process loads only the modules its command runs.  Importing this module
loads no other whitdim module (the feasibility limit and error are the
package's own), and RunConfig loads gfield only to check a --q list.  A
command's units builder imports the rest once, here, before any fork: verify,
lemma1 and chain load engine with the q-polynomial stack (laurent, rational,
qseries); counts loads counting and kernels; brute loads dimension with
counting and kernels, and no q-polynomial code.  csv is imported only under
--format csv.

The units are independent exact computations, so run spreads them over
w = min(CPUs this process may use, units) worker processes.  With w = 1 (one
usable CPU, as under `taskset -c 0`, or other threads running) they run
in-process.  Otherwise w workers are forked, and worker w places itself on
the w-th CPU of this process's affinity, so no two share a core: in a cpuset
with load balancing off, the kernel leaves a forked child on its parent's
CPU, and two unplaced workers each took twice their CPU time in wall time.  A
CPU the kernel refuses leaves its worker unplaced; placement changes only the
speed.  Unit i goes to worker 0, 1, .., w-1, w-1, .., 0, 0, .. in turn, and
each worker sends every unit's records back down its own pipe as one marshal
frame.  This process only relays: it reads the frames in unit order and
writes, checks and exits exactly as the in-process run does, so the stream
does not depend on w.  A unit's failure is raised at its place in the stream.
Every worker is killed and reaped however the run ends, and ends by itself if
this process is killed first.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage error
or unwritable output (an unopenable --output, or a stdout closed early as by
`| head -1`: one stderr line, no traceback), 3 an enumeration exceeded the
feasibility limit and no earlier check failed.  The stream stops at the first
infeasible enumeration with an "infeasible" error line (under --format csv, a
row whose check is "infeasible", with an empty ok column and the error object
as its detail); a check that failed before it still makes the exit code 1.

A process ends as soon as its output is out.  main returns the exit code, and
in-process callers keep their interpreter.  main_entry (the console script,
also run by `python -m whitdim.cli`) flushes stdout and stderr and leaves
through os._exit, as the workers do, so it skips the interpreter's teardown.
An exception from main, argparse's SystemExit among them, propagates as
usual, with its traceback and exit code.

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

from . import FEASIBILITY_LIMIT, FeasibilityError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


class UsageError(ValueError):
    pass


class RunConfig:
    """One run's settings, checked when it is built: a bad one raises UsageError.

    The keyword arguments are the options' dests, so n is the --n text and q
    the list of --q texts.  Every default is here; a command that reads --n needs it.
    """

    def __init__(
        self,
        command: str,
        n: Optional[str] = None,
        k: Optional[int] = None,
        q=("2,3",),
        limit: int = FEASIBILITY_LIMIT,
        output: Optional[str] = None,
        format: str = "json",
    ):
        if command not in COMMANDS:
            raise UsageError("unknown command %r" % command)
        reads = COMMANDS[command][1]
        if n is None and "--n" in reads:
            raise UsageError("--n is required for %r" % command)
        n_min, n_max = _parse_range("1" if n is None else n)
        self.command = command
        self.n_range = range(n_min, n_max + 1)
        self.k = k
        self.q_list = _parse_q(q)
        self.limit = limit
        self.output = output
        self.format = format
        if n_min > n_max:
            raise UsageError("empty n range %d..%d" % (n_min, n_max))
        if n_min < 1:
            raise UsageError("n must be >= 1")
        if "--q" in reads:
            from .gfield import SUPPORTED_Q

            if not self.q_list:
                raise UsageError("empty q list")
            bad = [value for value in self.q_list if value not in SUPPORTED_Q]
            if bad:
                raise UsageError("unsupported q values %r (supported: %r)" % (bad, SUPPORTED_Q))
            repeated = sorted({value for value in self.q_list if self.q_list.count(value) > 1})
            if repeated:
                raise UsageError("repeated q values %r" % repeated)
        if format not in ("json", "csv"):
            raise UsageError("format must be json or csv")
        if limit < 0:
            raise UsageError("--limit must be >= 0")
        if k is not None and not 0 <= k <= n_min:
            raise UsageError("k=%d out of range 0..%d" % (k, n_min))


def _parse_range(text: str):
    lo, dots, hi = text.partition("..")
    try:
        return int(lo), int(hi if dots else lo)
    except ValueError:
        raise UsageError("bad n range %r (expected N or A..B)" % text) from None


def _parse_q(texts) -> list:
    out = []
    for piece in map(str.strip, ",".join(texts).split(",")):
        if piece:
            try:
                out.append(int(piece))
            except ValueError:
                raise UsageError("bad q value %r" % piece) from None
    return out


# ---------------------------------------------------------------------------
# the command table: help line, options read and units builder of each command
# ---------------------------------------------------------------------------

# A units builder imports the modules its units run, once, in this process and
# before any fork, and binds each unit to its module.  The engine and dimension
# checks, and the oracles counts_report runs, are looked up in their module
# when a unit runs, so they can be replaced at run time.


def _verify_unit(engine, n: int):
    yield engine.verify_main(n)


def _lemma1_unit(engine, n: int, k: Optional[int]):
    for j in [k] if k is not None else range(n + 1):
        yield engine.verify_inner_sum(n, j)


def _chain_unit(engine, n: int):
    yield from engine.simplification_chain(n) + engine.conclusion_chain(n)


def _brute_unit(dimension, n: int, q: int, limit: int):
    yield dimension.dimension_report(n, q, limit)


def _engine_units(unit, cfg: RunConfig, *args) -> list:
    from . import engine

    return [partial(unit, engine, n, *args) for n in cfg.n_range]


def _brute_units(cfg: RunConfig) -> list:
    # kernels runs dimension's table: load it here, before any fork
    from . import dimension, kernels  # noqa: F401

    return [
        partial(_brute_unit, dimension, n, q, cfg.limit)
        for n in cfg.n_range
        for q in cfg.q_list
    ]


def _counts_units(cfg: RunConfig) -> list:
    # kernels runs counting's tables: load it here, before any fork
    from . import counting, kernels  # noqa: F401

    # one unit per q, so each (q, shape) enumeration is memoised in one process
    return [partial(counting.counts_report, q, cfg.limit) for q in cfg.q_list]


COMMANDS = {
    "verify": ("main identity: closed product vs raw dimension sum", {"--n"},
               partial(_engine_units, _verify_unit)),
    "lemma1": ("inner double sum vs its closed form, per k", {"--n", "--k"},
               lambda cfg: _engine_units(_lemma1_unit, cfg, cfg.k)),
    "chain": ("every rewrite step of the derivation", {"--n"},
              partial(_engine_units, _chain_unit)),
    "brute": ("brute-force / mid-derivation / closed dimension agreement",
              {"--n", "--q", "--limit"}, _brute_units),
    "counts": ("matrix-counting enumerations vs closed formulas", {"--q", "--limit"},
               _counts_units),
}
_PARTS = tuple(COMMANDS.values())
COMMANDS["all"] = (
    "union of every other command's checks",
    set().union(*(reads for _, reads, _ in _PARTS)),
    lambda cfg: [unit for _, _, units in _PARTS for unit in units(cfg)],
)

# every option a command may read, keyed by its flags, in the order of its help
OPTIONS = {
    ("--n", "--n-range"): dict(help="single n or inclusive range A..B"),
    ("--k",): dict(type=int, help="restrict lemma1 to one k (default: all 0..n)"),
    ("--q",): dict(action="append", help="field sizes, comma-separated or repeated"),
    ("--limit",): dict(type=int, help="enumeration feasibility limit (candidates)"),
    ("--format",): dict(choices=("json", "csv")),
    ("--output",): dict(help="write reports to PATH"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitdim",
        description="Exact verification of the dimension identity, its proof "
        "chain, and the finite-field counting oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, reads, _) in COMMANDS.items():
        # an option not given is absent from the namespace: RunConfig's default holds
        p = sub.add_parser(name, help=help_line, argument_default=argparse.SUPPRESS)
        for flags, kwargs in OPTIONS.items():
            if flags[0] in reads or flags[0] in ("--format", "--output"):
                p.add_argument(*flags, **kwargs)
    return parser


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
    """A worker's loop: one marshal frame per unit, down fd.

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
            marshal.dump(frame, out)
            out.flush()
            if frame[1] is not None:
                return


def _exit_on_eof(fd: int):
    os.read(fd, 1)
    os._exit(1)


def _records(units):
    """Every unit's records, in unit order, computed over the CPUs this process may use.

    With one worker the units run in-process.  Otherwise each worker is
    forked with its own pipe, places itself on its own CPU of this process's
    affinity (or stays unplaced if the kernel refuses that CPU) and runs its
    units in order; this process only relays their frames, in unit order.
    A unit's failure is raised here, at its place in the stream, after the
    records the unit made before it.  Every worker is killed and reaped
    however the stream ends, and ends by itself if this process dies first.
    """
    workers = _worker_count(len(units))
    if workers <= 1:
        for unit in units:
            yield from unit()
        return
    cpus = sorted(os.sched_getaffinity(0))
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
                    try:
                        os.sched_setaffinity(0, {cpus[w]})
                    except OSError:
                        pass  # a CPU the kernel refuses: the worker stays unplaced
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
            try:
                records, failure = marshal.load(readers[_owner(i, workers)])
            except EOFError:
                raise RuntimeError("a worker exited before sending work unit %d" % i) from None
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
    records = _records(COMMANDS[cfg.command][2](cfg))
    try:
        for report in records:
            all_ok = all_ok and _passed(report)
            if writer is not None:
                writer.writerow(_csv_row(report))
            else:
                stream.write(json.dumps(report, separators=(", ", ": ")) + "\n")
    except FeasibilityError as exc:
        msg = {"error": "infeasible", "detail": str(exc), "candidates": exc.candidates}
        if writer is not None:
            writer.writerow(["infeasible", "", "", "", "", json.dumps(msg, separators=(",", ":"))])
        else:
            stream.write(json.dumps(msg) + "\n")
        # a failed proof step outranks "too large to enumerate"
        return EXIT_INFEASIBLE if all_ok else EXIT_FAILED
    finally:
        records.close()  # stops the workers if the stream ends early
    return EXIT_OK if all_ok else EXIT_FAILED


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
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
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # quiet exit flush
        try:
            print("error: stdout was closed before the run finished", file=sys.stderr)
        except BrokenPipeError:  # stderr shares the closed pipe (2>&1)
            os.dup2(devnull, sys.stderr.fileno())
        return EXIT_USAGE
    return code


def main_entry():
    """The console script: run main, flush both streams, and end the process there.

    os._exit skips the interpreter's teardown, which runs no whitdim code: run
    has already reaped every worker, and an --output file is closed.  An
    exception from main, argparse's SystemExit among them, propagates as from
    any Python program.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main_entry()
