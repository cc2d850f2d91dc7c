#!/usr/bin/env python3
"""Sample mutants of one whitdim module and run its tests against each one.

Usage:
    python bench/mutate.py src/whitdim/engine.py [--workdir DIR]

A mutant changes one site of the module's syntax tree:
  + <-> -  (binary operators and augmented assignments),
  < <-> <=  and  > <-> >=  (comparisons),
  an int constant c -> c + 1.
COUNT sites are drawn.  Each site is ranked by a SHA-256 hash of SEED, its
function, its operator and its mutated line, and the COUNT lowest ranks are
drawn.  A site's rank does not depend on the rest of the file, so two
versions of a module draw the same mutant at every site whose line they
share (unless new sites outrank it), and their scores compare like with
like.  The edit is made in the source text at the site's position; the rest
of the file is left as it is.

Each mutant is written into a scratch copy of src/ and tests/ and the
module's non-slow tests (the TESTS map below) run against it with pytest -x.
The mutant is killed when they fail or run past the timeout (five times the
unmutated run, at least 30 s), and survives when they pass.  Each test run
has a session of its own, killed whole when it ends.  A survivor
named in EQUIVALENT cannot change any result and is reported as equivalent
instead.  Each EQUIVALENT entry is pinned to its mutated line and to a hash
of the source of the function that encloses it; an entry whose id no longer
names that line in that same function source (the code moved, or the
function changed) is listed as stale and judges nothing until it is checked
again and re-pinned.  The unmutated copy must pass first, or nothing is run.

Prints one JSON object: the mutants killed, survived and equivalent, the
stale EQUIVALENT entries, and the score killed / (sampled - equivalent).
Progress goes to stderr.  Uses only the standard library.  This is a
measurement, not part of the test suite and not a gate.

A mutant's id is module:function:operator:ordinal, the ordinal counting the
sites of that operator within the function in syntax-tree order; its "text"
is the mutated source line, stripped, and its "func_sha" the first 12 hex
digits of the SHA-256 of the unmutated source of its innermost enclosing
function or class (the whole module for module-level sites).
"""

import argparse
import ast
import bisect
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0
COUNT = 30

# module -> the test files that exercise it
TESTS = {
    "cli.py": ["tests/test_cli.py", "tests/test_imports.py"],
    "counting.py": [
        "tests/test_counting.py", "tests/test_acceptance.py", "tests/test_imports.py",
    ],
    "dimension.py": [
        "tests/test_dimension.py", "tests/test_acceptance.py", "tests/test_imports.py",
    ],
    "engine.py": [
        "tests/test_engine.py", "tests/test_cli.py", "tests/test_acceptance.py",
        "tests/test_imports.py",
    ],
    "gfield.py": ["tests/test_gfield.py", "tests/test_counting.py"],
    "kernels.py": ["tests/test_counting.py", "tests/test_dimension.py"],
    "laurent.py": [
        "tests/test_laurent.py", "tests/test_rational.py", "tests/test_imports.py",
    ],
    "qseries.py": ["tests/test_qseries.py", "tests/test_engine.py"],
    "rational.py": [
        "tests/test_rational.py", "tests/test_laurent.py", "tests/test_imports.py",
    ],
}

# mutant id -> (its mutated line, its func_sha, why no input can tell it
# from the original)
EQUIVALENT = {
    "cli.py:config_from_args:const+1:1": (
        "n_min, n_max = _parse_range(args.n) if args.n is not None else (1, 2)",
        "19c3ddc20363",
        "only counts runs without --n, and counts reads neither n_min nor n_max",
    ),
    "cli.py:_exit_on_eof:const+1:0": (
        "os.read(fd, 2)",
        "9b5b30ffa1e0",
        "nothing is ever written to the lifeline, so a read of any size "
        "returns only at end of file",
    ),
    "cli.py:_exit_on_eof:const+1:1": (
        "os._exit(2)",
        "9b5b30ffa1e0",
        "a worker's exit status is never read: its parent is already gone",
    ),
    "cli.py:_records:const+1:2": (
        "os._exit(1)",
        "7140e19bd078",
        "a worker's exit status is never read: the parent judges a worker by "
        "its frames, and reaps it after a SIGKILL",
    ),
    "counting.py:grassmann_count:const+1:4": (
        "if m == 1 or GFMatrix.from_rows(field, rows).rank() == m:",
        "a5394bcd1516",
        "a reduced echelon basis always has rank m: at m = 0 the empty 0 x 0 "
        "matrix ranks 0, and at m = 1 the one row has a 1 at its pivot",
    ),
    "gfield.py:GFq.__init__:const+1:9": (
        "inv = [1] * q",
        "9c92aff217c8",
        "sets inv_table[0] to 1; no code reads it: inv(0) raises first, and "
        "_rank_rows and kernels._extensions invert only a nonzero pivot",
    ),
    "gfield.py:GFq.__init__:>->>=:0": (
        "if self.deg >= 1:",
        "9c92aff217c8",
        "also verifies the axioms of the prime fields, which hold, so it only "
        "adds time at construction",
    ),
    "gfield.py:GFq._poly_mul:const+1:6": (
        "prod[i] = 1",
        "3992b4b49179",
        "the reduction runs i downward and only writes below i, so prod[i] is "
        "never read again, and only prod[:deg] is encoded",
    ),
    "engine.py:_conclusion_steps:const+1:26": (
        "for k in range(n + 2)",
        "45560f0c1466",
        "widens the k range of the cross-multiplied Pochhammer rewrite in "
        "conclusion-pochhammer-split to n + 1; both sides are (q;q)_(n+k-1), so "
        "it holds for every k >= 0",
    ),
    "engine.py:_conclusion_steps:-->+:3": (
        "reindexed = reindexed - outer if (n + k) % 2 else reindexed + outer",
        "45560f0c1466",
        "(n - k) % 2 -> (n + k) % 2 has the same parity",
    ),
    "engine.py:_simplification_steps.long_range:+->-:0": (
        "sign = -1 if (n + k + m - 1) % 2 else 1",
        "540ad945c07b",
        "(n + k + m + 1) % 2 -> (n + k + m - 1) % 2 has the same parity",
    ),
    "engine.py:_simplification_steps.long_range:+->-:1": (
        "sign = -1 if (n + k - m + 1) % 2 else 1",
        "540ad945c07b",
        "(n + k + m + 1) % 2 -> (n + k - m + 1) % 2 has the same parity",
    ),
    "laurent.py:LaurentPoly.div_one_minus_q:const+1:1": (
        "out = [1] * n",
        "afe1bd1231af",
        "the j residue-class slices out[r::j] overwrite every entry of out",
    ),
    "laurent.py:LaurentPoly.__str__:const+1:3": (
        'parts.append(("-" if c < 1 else "") + term)',
        "64cb3be866b9",
        "zero coefficients are skipped, so the int c is < 1 iff it is < 0",
    ),
    "laurent.py:LaurentPoly.__str__:<-><=:1": (
        'parts.append(("- " if c <= 0 else "+ ") + term)',
        "64cb3be866b9",
        "zero coefficients are skipped, so c <= 0 iff c < 0",
    ),
    "laurent.py:PolyAccumulator.add_shifted:<-><=:0": (
        "if start <= self.min_exp:",
        "99cdc282e010",
        "at start == min_exp it prepends zero zeros and sets min_exp to itself",
    ),
    "rational.py:_reduce:>->>=:0": (
        "if c >= 1:",
        "b9369fc9e7a5",
        "c is the gcd of the contents of a nonzero denominator, so c >= 1, and "
        "dividing by c = 1 changes nothing",
    ),
    "rational.py:_reduce:<-><=:0": (
        "if den.leading_coeff <= 0:",
        "b9369fc9e7a5",
        "the denominator is nonzero, so its leading coefficient is never 0",
    ),
    "rational.py:_reduce:const+1:1": (
        "if den.leading_coeff < 1:",
        "b9369fc9e7a5",
        "the leading coefficient of a nonzero denominator is a nonzero int, so "
        "< 1 iff < 0",
    ),
}

# operator -> (its text, the text it is replaced with)
SWAPS = {
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
}


def _offsets(source: bytes):
    """Byte offset of the start of each line (1-based line numbers), then
    the end of the file."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _operator_offset(gap: bytes, op: bytes):
    """Offset of op in the text between two operands, skipping comments."""
    i = 0
    while i < len(gap):
        if gap[i:i + 1] == b"#":
            i = gap.find(b"\n", i)
            if i < 0:
                return None
        elif gap.startswith(op, i):
            return i
        i += 1
    return None


def find_sites(source: bytes, module: str):
    """Every mutable site: its id, byte span, old and new text, and line."""
    tree = ast.parse(source)
    starts = _offsets(source)

    def pos(line, col):
        return starts[line] + col

    def end_of(node):
        return pos(node.end_lineno, node.end_col_offset)

    def start_of(node):
        return pos(node.lineno, node.col_offset)

    sites = []
    ordinals = {}

    def add(scope, kind, start, end, old, new):
        func, func_sha = scope
        key = (func, kind)
        ordinal = ordinals.get(key, 0)
        ordinals[key] = ordinal + 1
        line = bisect.bisect_right(starts, start) - 1
        text = (source[starts[line]:start] + new.encode()
                + source[end:starts[line + 1]]).decode().strip()
        sites.append({
            "id": "%s:%s:%s:%d" % (module, func, kind, ordinal),
            "func": func, "func_sha": func_sha, "kind": kind,
            "start": start, "end": end,
            "old": old, "new": new, "line": line, "text": text,
        })

    def operator_between(scope, left, right, op):
        swap = SWAPS.get(type(op))
        if swap is None:
            return
        old, new = swap
        lo, hi = end_of(left), start_of(right)
        at = _operator_offset(source[lo:hi], old.encode())
        if at is None:
            return
        add(scope, "%s->%s" % (old, new), lo + at, lo + at + len(old), old, new)

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            func = node.name if scope[0] == "<module>" else "%s.%s" % (scope[0], node.name)
            scope = (func, _sha(source[start_of(node):end_of(node)]))
        if isinstance(node, ast.BinOp):
            operator_between(scope, node.left, node.right, node.op)
        elif isinstance(node, ast.AugAssign):
            operator_between(scope, node.target, node.value, node.op)
        elif isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                operator_between(scope, left, right, op)
                left = right
        elif (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and node.end_lineno == node.lineno
        ):
            start, end = start_of(node), end_of(node)
            add(scope, "const+1", start, end, source[start:end].decode(),
                str(node.value + 1))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ("<module>", _sha(source)))
    return sites


def _sha(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()[:12]


def draw(sites):
    """The COUNT sites of lowest rank, in file order.  A site's rank hashes
    SEED, its function, operator and mutated line, and how many sites
    before it in the file share all three."""
    seen = {}
    ranked = []
    for site in sites:
        key = "%d:%s:%s:%s" % (SEED, site["func"], site["kind"], site["text"])
        repeat = seen.get(key, 0)
        seen[key] = repeat + 1
        rank = hashlib.sha256(("%s:%d" % (key, repeat)).encode()).digest()
        ranked.append((rank, site["start"], site))
    ranked.sort(key=lambda r: r[:2])
    return sorted((r[2] for r in ranked[:COUNT]), key=lambda s: s["start"])


def stale_equivalents(sites, module):
    """EQUIVALENT ids of this module that no longer name their mutated line
    in the function source they were pinned to."""
    pins = {site["id"]: (site["text"], site["func_sha"]) for site in sites}
    return sorted(
        mutant for mutant, (text, func_sha, _) in EQUIVALENT.items()
        if mutant.startswith(module + ":") and pins.get(mutant) != (text, func_sha)
    )


def apply(source: bytes, site) -> bytes:
    return source[: site["start"]] + site["new"].encode() + source[site["end"] :]


def run_tests(workdir, tests, timeout):
    """(passed, seconds) for the non-slow tests in the scratch copy.

    pytest runs in a session of its own, and every process still in it
    afterwards is killed: a mutant of the cli's runner can leave forked
    workers behind, or signal its whole process group.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(workdir, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-m", "not slow", *tests]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return code == 0, time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("module", help="path of the module, e.g. src/whitdim/engine.py")
    parser.add_argument("--workdir", default=None,
                        help="where to make the scratch copy (default: a temp dir)")
    args = parser.parse_args()

    module_path = os.path.abspath(args.module)
    module = os.path.basename(module_path)
    if module not in TESTS:
        parser.error("no tests mapped for %s (known: %s)"
                     % (module, ", ".join(sorted(TESTS))))
    rel = os.path.relpath(module_path, REPO)
    if rel.startswith(os.pardir):
        parser.error("%s is not inside %s" % (args.module, REPO))
    with open(module_path, "rb") as fh:
        source = fh.read()
    sites = find_sites(source, module)
    sample = draw(sites)
    stale = stale_equivalents(sites, module)

    workdir = tempfile.mkdtemp(prefix="whitdim-mutate-", dir=args.workdir)
    try:
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(REPO, name), os.path.join(workdir, name),
                            ignore=ignore)
        shutil.copy(os.path.join(REPO, "pyproject.toml"), workdir)
        target = os.path.join(workdir, rel)
        tests = TESTS[module]

        ok, base_s = run_tests(workdir, tests, None)
        if not ok:
            sys.exit("the unmutated module fails its tests; nothing to measure")
        timeout = max(30.0, 5 * base_s)

        result = {"module": rel, "seed": SEED, "sites": len(sites),
                  "sampled": len(sample), "tests": tests,
                  "baseline_s": round(base_s, 2), "timeout_s": round(timeout, 1),
                  "killed": [], "survived": [], "equivalent": [], "stale": stale}
        for i, site in enumerate(sample, 1):
            with open(target, "wb") as fh:
                fh.write(apply(source, site))
            passed, _ = run_tests(workdir, tests, timeout)
            entry = {"id": site["id"], "line": site["line"],
                     "change": "%s -> %s" % (site["old"], site["new"]),
                     "text": site["text"], "func_sha": site["func_sha"]}
            if not passed:
                verdict = "killed"
            elif site["id"] in EQUIVALENT and site["id"] not in stale:
                verdict = "equivalent"
                entry["reason"] = EQUIVALENT[site["id"]][2]
            else:
                verdict = "survived"
            result[verdict].append(entry)
            print("[%d/%d] %s %s" % (i, len(sample), verdict, site["id"]),
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    judged = len(sample) - len(result["equivalent"])
    result["score"] = "%d/%d killed" % (len(result["killed"]), judged)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
