"""The record checker accepts whitdim's real reports and rejects tampered ones.

Run from the checkout root:
    python3 -m pytest -q perfbench/test_check.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from check import Invocation, check_output, closed_at, gauss, rank_count, trace_delta

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "verify": Invocation("verify", 1, 4),
    "lemma1": Invocation("lemma1", 1, 3),
    "chain": Invocation("chain", 1, 3),
    "brute": Invocation("brute", 1, 1, (2, 3)),
    "counts": Invocation("counts", qs=(2,)),
}


@pytest.fixture(scope="module")
def outputs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for name, inv in SMALL.items():
        proc = subprocess.run([sys.executable, "-m", "whitdim.cli", *inv.argv()], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out[name] = proc.stdout
    return out


def _edit(text, index, change):
    lines = text.splitlines()
    rec = json.loads(lines[index])
    change(rec)
    lines[index] = json.dumps(rec)
    return "\n".join(lines) + "\n"


def _bump_first_coeff(poly):
    poly["coeffs"][0] = str(int(poly["coeffs"][0]) + 1)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_real_reports_pass(outputs, name):
    outcome = check_output(SMALL[name], outputs[name], 0)
    assert outcome.problems == []
    assert outcome.failed == 0
    assert outcome.verified == outcome.expected > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_flipped_verdict_is_rejected(outputs, name):
    def flip(rec):
        field = "equal" if "equal" in rec else "agree"
        rec[field] = not rec[field]

    outcome = check_output(SMALL[name], _edit(outputs[name], -1, flip), 0)
    assert outcome.failed == 1
    assert outcome.verified == outcome.expected - 1


@pytest.mark.parametrize("name, change", [
    ("verify", lambda rec: _bump_first_coeff(rec["lhs"]["num"])),
    ("verify", lambda rec: _bump_first_coeff(rec["rhs"]["num"])),
    ("lemma1", lambda rec: _bump_first_coeff(rec["rhs"]["num"])),
    ("chain", lambda rec: _bump_first_coeff(rec["lhs"])),          # simplify-q-power
    ("brute", lambda rec: rec.update(middle=rec["middle"] + 1)),
    ("brute", lambda rec: rec["buckets"].update({"0": rec["buckets"]["0"] + 1})),
    ("counts", lambda rec: rec.update(enumerated=rec["enumerated"] + 1,
                                      formula=rec["formula"] + 1)),
])
def test_altered_value_is_rejected(outputs, name, change):
    index = 0 if name == "chain" else -1
    outcome = check_output(SMALL[name], _edit(outputs[name], index, change), 0)
    assert outcome.failed == 1, outcome.problems


def test_missing_extra_and_duplicate_records_fail(outputs):
    text = outputs["lemma1"]
    lines = text.splitlines()
    assert check_output(SMALL["lemma1"], "\n".join(lines[1:]), 0).failed == 1
    assert check_output(SMALL["lemma1"], text + lines[-1] + "\n", 0).failed == 1
    extra = _edit(lines[-1], 0, lambda rec: rec.update(k=rec["k"] + 7))
    assert check_output(SMALL["lemma1"], text + extra, 0).failed == 1


def test_records_without_verdict_are_ignored(outputs):
    header = json.dumps({"header": {"version": "x", "backend": "pure"}}) + "\n"
    outcome = check_output(SMALL["verify"], header + outputs["verify"], 0)
    assert outcome.failed == 0 and outcome.verified == outcome.expected


def test_bad_exit_or_timeout_fails_every_check(outputs):
    for code in (1, 3, None):
        outcome = check_output(SMALL["counts"], outputs["counts"], code)
        assert outcome.failed == outcome.expected and outcome.verified == 0


def test_integer_references():
    # hand-checked small values
    assert [gauss(4, m, 2) for m in range(5)] == [1, 15, 35, 15, 1]
    assert sum(rank_count(2, 3, k, 3) for k in range(3)) == 3 ** 6
    assert trace_delta(0, 0, 2) == -1          # only the zero matrix, of trace 0
    assert closed_at(2, 3) == 18
