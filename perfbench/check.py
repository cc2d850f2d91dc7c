"""Independent references for whitdim's report records, and the record checker.

Nothing here imports whitdim.  Every expected value is computed from its
definition with plain Python integers, so a defect in whitdim's arithmetic
cannot hide in its own check:

* ``verify``: both sides equal q^(n(n-1)/2) * prod_{i=1}^{n-1} (q^n - q^i);
* ``lemma1``: both sides equal (q^(k+1);q)_(n-1) * (-1)^n * q^((k+n)n + C(n,2));
* ``chain``: the closed values each step must reach, the parameter-tuple
  counts of the quantified steps, and the exponent totals;
* ``brute``: brute = middle = closed = the product at q, with buckets
  constant on gamma != 0 whose gap S_0 - S_1 is q^(3n^2) times that value;
* ``counts``: enumerated = formula = a rank count, Gaussian binomial or
  signed q^C(k,2) Gaussian binomial computed here.

Records are keyed on (check, n, k, q, other parameters); the set of keys must
equal the expected set.  Records without a verdict (no ``equal`` or
``agree`` field), such as a header, are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

# ---------------------------------------------------------------------------
# polynomials in q as {exponent: coefficient}, zero coefficients dropped
# ---------------------------------------------------------------------------

ONE = {0: 1}


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poch(lo: int, length: int) -> dict:
    """(q^lo; q)_length = prod_{j=0}^{length-1} (1 - q^(lo+j))."""
    out = ONE
    for j in range(length):
        out = pmul(out, {0: 1, lo + j: -1})
    return out


def closed_poly(n: int) -> dict:
    """q^(n(n-1)/2) * prod_{i=1}^{n-1} (q^n - q^i)."""
    out = {comb(n, 2): 1}
    for i in range(1, n):
        out = pmul(out, {n: 1, i: -1})
    return out


def inner_rhs_poly(n: int, k: int) -> dict:
    """(q^(k+1);q)_(n-1) * (-1)^n * q^((k+n)n + C(n,2))."""
    sign = -1 if n % 2 else 1
    return pmul(poch(k + 1, n - 1), {(k + n) * n + comb(n, 2): sign})


def parse_poly(d: dict) -> dict:
    e0 = int(d["min_exp"])
    return {e0 + i: int(c) for i, c in enumerate(d["coeffs"]) if int(c)}


def same_value(d: dict, num: dict, den: dict = ONE) -> bool:
    """A serialized polynomial or rational function equals num/den."""
    if "num" in d:
        rnum, rden = parse_poly(d["num"]), parse_poly(d["den"])
    else:
        rnum, rden = parse_poly(d), ONE
    if not rden:
        return False
    if rden == den:
        return rnum == num
    return pmul(rnum, den) == pmul(num, rden)


# ---------------------------------------------------------------------------
# integer references over GF(q)
# ---------------------------------------------------------------------------


def closed_at(n: int, q: int) -> int:
    out = q ** comb(n, 2)
    for i in range(1, n):
        out *= q ** n - q ** i
    return out


def gauss(n: int, m: int, q: int) -> int:
    """Gaussian binomial [n choose m]_q: m-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(m):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    quo, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("inexact Gaussian binomial")
    return quo


def rank_count(s: int, t: int, k: int, q: int) -> int:
    """s x t matrices of rank k: a row space times a full-rank s x k factor."""
    out = gauss(t, k, q)
    for i in range(k):
        out *= q ** s - q ** i
    return out


def trace_delta(m: int, k: int, q: int) -> int:
    """Y^1 - Y^0 = (-1)^(k-1) q^C(k,2) [m+k choose m]_q."""
    sign = 1 if k % 2 else -1
    return sign * q ** comb(k, 2) * gauss(m + k, m, q)


# ---------------------------------------------------------------------------
# expected records per CLI invocation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    """One ``whitdim`` CLI call: a command over an n range and a q list."""

    command: str
    n_lo: int = 0
    n_hi: int = 0
    qs: tuple = ()

    def argv(self) -> list:
        out = [self.command]
        if self.n_hi:
            out += ["--n", "%d..%d" % (self.n_lo, self.n_hi)]
        if self.qs:
            out += ["--q", ",".join(map(str, self.qs))]
        return out

    def expected(self) -> dict:
        """{record key: function(record) -> list of problems}."""
        build = _EXPECTED[self.command]
        if self.command == "counts":
            return build(self.qs)
        return {key: fn for n in range(self.n_lo, self.n_hi + 1)
                for key, fn in build(n, self.qs)}


def _key(check, n=None, k=None, q=None, **extra):
    return (check, n, k, q, tuple(sorted(extra.items())))


def record_key(rec: dict):
    params = rec.get("params") or {}
    check = rec.get("identity") or params.get("kind") or "dimension"
    extra = {a: b for a, b in params.items() if a not in ("kind", "n", "k", "q")}
    return _key(check, rec.get("n", params.get("n")), rec.get("k", params.get("k")),
                rec.get("q", params.get("q")), **extra)


def _sides_equal(num, den=ONE):
    def check(rec):
        return [side + " value differs from the reference"
                for side in ("lhs", "rhs") if not same_value(rec[side], num, den)]
    return check


def _sides_are(value):
    def check(rec):
        return [] if rec["lhs"] == rec["rhs"] == value else [
            "sides %r, %r; expected %r" % (rec["lhs"], rec["rhs"], value)]
    return check


def _tuples(count):
    def check(rec):
        want = "verified for %d parameter tuples" % count
        return [] if rec["lhs"] == want else ["lhs %r; expected %r" % (rec["lhs"], want)]
    return check


def _verdict_only(rec):
    return []


def _verify(n, qs):
    yield _key("main", n), _sides_equal(closed_poly(n))


def _lemma1(n, qs):
    for k in range(n + 1):
        yield _key("inner-sum", n, k), _sides_equal(inner_rhs_poly(n, k))


def _chain(n, qs):
    pole = {0: 1, n: -1}                       # 1 - q^n
    admissible = sum(n - max(k, m) + 1 for k in range(n + 1) for m in range(n + 1))
    lit = ONE
    for i in range(1, n):
        lit = pmul(lit, {n: 1, i: -1})
    normalized = {3 * n * n + 2 * comb(n, 2): 1}
    ksum_exp = n * n + comb(n, 2)
    steps = {
        "simplify-q-power": _sides_equal({comb(n, 2): 1}),
        "simplify-closed-product": _sides_equal(lit),
        "simplify-monomial-merge": _tuples((n + 1) ** 2),
        "simplify-factorial-signs": _tuples((n + 1) ** 2),
        "simplify-l-power": _tuples(n + 1),
        "simplify-long-range": _tuples(admissible),
        "simplify-k-tail": _tuples(admissible),
        "simplify-m-tail": _tuples(admissible),
        "simplify-regrouped-sum": _sides_equal(normalized, pole),
        "simplify-normalized-lhs": _sides_equal(normalized, pole),
        "simplify-exponent-total": _sides_are(4 * n * n - n),
        "conclusion-group-by-k": _verdict_only,
        "conclusion-reindex-outer": _verdict_only,
        "conclusion-plug-closed-form": _verdict_only,
        "conclusion-normalize-power": _sides_equal({ksum_exp: 1}, pole),
        "conclusion-pochhammer-split": _sides_equal({ksum_exp: 1}, pole),
        "conclusion-coefficient-extraction": _sides_equal({ksum_exp: 1}, poch(1, n)),
        "conclusion-telescoped-series": _verdict_only,
        "conclusion-exponent-identity": _sides_are(ksum_exp),
    }
    for name, fn in steps.items():
        yield _key(name, n), fn


def _brute(n, qs):
    for q in qs:
        yield _key("dimension", n, q=q), _dimension_check(n, q)


def _dimension_check(n, q):
    dim = closed_at(n, q)

    def check(rec):
        problems = ["%s = %r, expected %d" % (f, rec[f], dim)
                    for f in ("brute", "middle", "closed") if rec[f] != dim]
        buckets = rec["buckets"]
        if sorted(buckets) != sorted(str(g) for g in range(q)):
            return problems + ["bucket keys %r" % sorted(buckets)]
        if len({buckets[str(g)] for g in range(1, q)}) != 1:
            problems.append("buckets not constant on gamma != 0")
        if buckets["0"] - buckets["1"] != dim * q ** (3 * n * n):
            problems.append("bucket gap is not q^(3n^2) * dimension")
        return problems
    return check


def _counted(value):
    def check(rec):
        return [] if rec["enumerated"] == rec["formula"] == value else [
            "enumerated %r, formula %r, expected %d" % (rec["enumerated"], rec["formula"], value)]
    return check


def _counts(qs):
    out = {}
    for q in qs:
        for s in range(1, 4):
            for t in range(1, 4):
                for k in range(min(s, t) + 1):
                    out[_key("rect-rank", k=k, q=q, s=s, t=t)] = _counted(rank_count(s, t, k, q))
        for size in range(4):
            for k in range(size + 1):
                out[_key("trace-delta", k=k, q=q, m=size - k)] = _counted(
                    trace_delta(size - k, k, q))
        for n in range(1, 5):
            for m in range(n + 1):
                out[_key("grassmann", n, q=q, m=m)] = _counted(gauss(n, m, q))
    return out


_EXPECTED = {"verify": _verify, "lemma1": _lemma1, "chain": _chain,
             "brute": _brute, "counts": _counts}


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    expected: int        # checks the invocation should report
    verified: int        # records that matched their reference
    failed: int          # failed checks: false, wrong, missing or extra records
    problems: list       # one line per failure, for the log


def check_output(inv: Invocation, text: str, exit_code) -> Outcome:
    """Check one invocation's JSONL output against the references.

    exit_code is the process exit code, or None after a timeout; any
    non-zero exit fails every check the invocation should have reported.
    """
    expected = inv.expected()
    seen, problems, failed, wrong = set(), [], 0, 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            problems.append("unparsable line %.80r" % line)
            failed += 1
            continue
        if not isinstance(rec, dict) or ("equal" not in rec and "agree" not in rec):
            continue
        key = record_key(rec)
        fn = expected.get(key)
        if fn is None or key in seen:
            problems.append("%s record %r" % ("unexpected" if fn is None else "duplicate", key))
            failed += 1
            continue
        seen.add(key)
        if rec.get("equal", rec.get("agree")) is not True:
            why = ["verdict is not true"]
        else:
            try:
                why = fn(rec)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                why = ["malformed record: %r" % exc]
        if why:
            problems.append("%r: %s" % (key, "; ".join(why)))
            wrong += 1
    missing = expected.keys() - seen
    problems += ["missing record %r" % (key,) for key in sorted(missing, key=repr)]
    failed += wrong + len(missing)
    verified = len(seen) - wrong
    if exit_code != 0:
        problems.insert(0, "timed out" if exit_code is None else "exit code %r" % exit_code)
        failed, verified = max(failed, len(expected)), 0
    return Outcome(len(expected), verified, failed, problems)
