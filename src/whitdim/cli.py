"""Command-line front end: run verification suites, stream machine-readable reports.

CHECKS maps each command to the records it streams; `all` streams the other
five commands' records in turn.  run reads each record's verdict from its
"equal" field (a dimension record's "agree") and sets the exit code.

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
import csv
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

from . import engine
from .counting import (
    FEASIBILITY_LIMIT,
    FeasibilityError,
    count_rect_by_rank,
    grassmann_count,
    prasad_delta,
)
from .dimension import dimension_report
from .gfield import SUPPORTED_Q

COMMANDS = ("verify", "lemma1", "chain", "brute", "counts", "all")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    n_min: int = 1
    n_max: int = 1
    k: Optional[int] = None
    q_list: list = field(default_factory=lambda: [2, 3])
    feasibility_limit: int = FEASIBILITY_LIMIT
    output: Optional[str] = None
    format: str = "json"

    def __post_init__(self):
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
        p.add_argument("--n", "--n-range", dest="n", default=None,
                       help="single n or inclusive range A..B")
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
    needs_n = args.command in ("verify", "lemma1", "chain", "brute", "all")
    if args.n is None and needs_n:
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
# the check table: each command maps a RunConfig to its stream of records
# ---------------------------------------------------------------------------


def _n_range(cfg: RunConfig):
    return range(cfg.n_min, cfg.n_max + 1)


def _counting_cases():
    """(kind, enumeration-vs-formula oracle, its arguments but q) per counts record."""
    for s in range(1, 4):
        for t in range(1, 4):
            for k in range(min(s, t) + 1):
                yield "rect-rank", count_rect_by_rank, {"s": s, "t": t, "k": k}
    for size in range(0, 4):
        for k in range(size + 1):
            yield "trace-delta", prasad_delta, {"m": size - k, "k": k}
    for n in range(1, 5):
        for m in range(n + 1):
            yield "grassmann", grassmann_count, {"n": n, "m": m}


def _count_records(cfg: RunConfig):
    for q in cfg.q_list:
        for kind, oracle, params in _counting_cases():
            enum, formula = oracle(**params, q=q, limit=cfg.feasibility_limit)
            yield {
                "params": {"kind": kind, **params, "q": q},
                "enumerated": enum,
                "formula": formula,
                "equal": enum == formula,
            }


# The engine and oracle functions are looked up when a command runs, not
# when this table is built, so they can be replaced at run time.
CHECKS = {
    "verify": lambda cfg: (engine.verify_main(n).to_json_dict() for n in _n_range(cfg)),
    "lemma1": lambda cfg: (
        engine.verify_inner_sum(n, k).to_json_dict()
        for n in _n_range(cfg)
        for k in ([cfg.k] if cfg.k is not None else range(n + 1))
    ),
    "chain": lambda cfg: (
        rep.to_json_dict()
        for n in _n_range(cfg)
        for rep in engine.simplification_chain(n) + engine.conclusion_chain(n)
    ),
    "brute": lambda cfg: (
        dimension_report(n, q, cfg.feasibility_limit)
        for n in _n_range(cfg)
        for q in cfg.q_list
    ),
    "counts": _count_records,
    "all": lambda cfg: (
        record for command in COMMANDS[:-1] for record in CHECKS[command](cfg)
    ),
}


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
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["check", "n", "k", "q", "ok", "detail"])
    try:
        for report in CHECKS[cfg.command](cfg):
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
