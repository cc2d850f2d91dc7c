import io
import json

import pytest

from whitdim.cli import RunConfig, UsageError, build_parser, main, run

# The exit codes are compared with the literals that the cli docstring and the
# README document (0 pass, 1 failed check, 2 usage, 3 infeasible), not with the
# EXIT_* constants, so a changed constant fails here.


def run_text(argv):
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_text(argv)
    return code, [json.loads(line) for line in text.splitlines() if line]


class TestVerifyCommand:
    def test_range(self):
        code, reports = run_json(["verify", "--n", "1..4"])
        assert code == 0
        assert len(reports) == 4
        assert all(r["equal"] for r in reports)
        assert [r["n"] for r in reports] == [1, 2, 3, 4]

    def test_single_n(self):
        code, reports = run_json(["verify", "--n", "2"])
        assert code == 0 and len(reports) == 1

    @pytest.mark.slow
    def test_n32(self):
        # the stretch size of the packed walker: about 1 s
        code, reports = run_json(["verify", "--n", "32"])
        assert code == 0 and len(reports) == 1
        assert reports[0]["equal"] is True and reports[0]["n"] == 32


class TestLemma1Command:
    def test_all_k(self):
        code, reports = run_json(["lemma1", "--n", "3"])
        assert code == 0
        assert len(reports) == 4
        assert [r["k"] for r in reports] == [0, 1, 2, 3]
        assert all(r["equal"] for r in reports)

    def test_fixed_k(self):
        code, reports = run_json(["lemma1", "--n", "3", "--k", "2"])
        assert code == 0 and len(reports) == 1 and reports[0]["k"] == 2


class TestChainCommand:
    def test_chain_n2(self):
        code, reports = run_json(["chain", "--n", "2"])
        assert code == 0
        assert all(r["equal"] for r in reports)
        idents = {r["identity"] for r in reports}
        assert "simplify-exponent-total" in idents
        assert "conclusion-telescoped-series" in idents

    @pytest.mark.slow
    def test_n24(self):
        # the stretch size of the chains decided at X: about 0.7-0.9 s and
        # 27 MB peak RSS as a CLI process on a 2-core container
        code, reports = run_json(["chain", "--n", "24"])
        assert code == 0 and len(reports) == 19
        assert all(r["equal"] is True and r["n"] == 24 for r in reports)


class TestBruteCommand:
    def test_brute_2_2(self):
        code, reports = run_json(["brute", "--n", "2", "--q", "2"])
        assert code == 0
        (rep,) = reports
        assert rep["brute"] == rep["middle"] == rep["closed"] == 4
        assert rep["agree"] is True

    def test_feasibility_exit(self):
        import contextlib

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["brute", "--n", "3", "--q", "3", "--limit", "1000"])
        assert code == 3
        (line,) = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert line["error"] == "infeasible"


class TestCountsCommand:
    def test_counts_pass(self):
        # the exact case list: dropping or adding a case, or running one
        # twice, changes it
        expected = []
        for q in (2, 3):
            expected += [("rect-rank", q, (("k", k), ("s", s), ("t", t)))
                         for s in range(1, 4) for t in range(1, 4)
                         for k in range(min(s, t) + 1)]
            expected += [("trace-delta", q, (("k", k), ("m", size - k)))
                         for size in range(4) for k in range(size + 1)]
            expected += [("grassmann", q, (("m", m), ("n", n)))
                         for n in range(1, 5) for m in range(n + 1)]
        code, reports = run_json(["counts"])  # the default q list is 2, 3
        assert code == 0
        assert all(r["equal"] for r in reports)
        got = []
        for r in reports:
            params = dict(r["params"])
            kind, q = params.pop("kind"), params.pop("q")
            got.append((kind, q, tuple(sorted(params.items()))))
        assert sorted(got) == sorted(expected)

    def test_counts_over_gf4_and_gf5(self):
        code, reports = run_json(["counts", "--q", "4,5"])
        assert code == 0
        assert len(reports) == 2 * 47
        assert all(r["equal"] is True for r in reports)

    @pytest.mark.slow
    def test_counts_over_gf7_gf8_and_gf9(self):
        code, reports = run_json(["counts", "--q", "7,8,9"])
        assert code == 0
        assert [r["params"]["q"] for r in reports] == [7] * 47 + [8] * 47 + [9] * 47
        assert all(r["equal"] is True for r in reports)


class TestUsage:
    def test_missing_n(self):
        assert main(["verify"]) == 2

    def test_bad_range(self):
        assert main(["verify", "--n", "3..1"]) == 2
        assert main(["verify", "--n", "0"]) == 2
        assert main(["verify", "--n", "x..y"]) == 2

    def test_bad_q(self):
        assert main(["brute", "--n", "1", "--q", "6"]) == 2

    def test_empty_q_list(self, capsys):
        # a q list with no values would run zero checks and pass
        assert main(["brute", "--n", "1", "--q", ","]) == 2
        assert main(["counts", "--q", ","]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        with pytest.raises(UsageError):
            RunConfig(command="counts", q=[])

    @pytest.mark.parametrize("argv", [
        ["brute", "--n", "1", "--q", "2,2"],
        ["counts", "--q", "2", "--q", "2"],
        ["all", "--n", "1", "--q", "3,2", "--q", "3"],
    ])
    def test_repeated_q(self, argv, capsys):
        # a repeated q would write each of its records twice
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_k_out_of_range(self, capsys):
        assert main(["lemma1", "--n", "3", "--k", "5"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        # k must fit the smallest n of the range
        assert main(["lemma1", "--n", "2..4", "--k", "3"]) == 2
        assert main(["lemma1", "--n", "3", "--k", "-1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "2", "--k", "1"],
        ["brute", "--n", "1", "--q", "2", "--k", "1"],
        ["counts", "--q", "2", "--k", "0"],
        ["chain", "--n", "1", "--k", "1"],
        ["verify", "--n", "2", "--q", "6"],
        ["verify", "--n", "2", "--limit", "0"],
        ["lemma1", "--n", "2", "--q", "2"],
        ["lemma1", "--n", "2", "--limit", "1"],
        ["chain", "--n", "1", "--q", "3"],
        ["chain", "--n", "1", "--limit", "1"],
    ])
    def test_k_is_rejected_where_it_is_not_read(self, argv, capsys):
        # only lemma1 and all read --k, and only brute, counts and all read
        # --q and --limit; elsewhere argparse rejects the flag, the last but one
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("command, reads", [
        ("verify", {"--n"}),
        ("chain", {"--n"}),
        ("lemma1", {"--n", "--k"}),
        ("brute", {"--n", "--q", "--limit"}),
        ("counts", {"--q", "--limit"}),
        ("all", {"--n", "--k", "--q", "--limit"}),
    ])
    def test_each_command_accepts_exactly_its_options(self, command, reads, capsys):
        values = {"--n": "1", "--k": "0", "--q": "2", "--limit": "9"}
        parsed = {"--n": "1", "--k": 0, "--q": ["2"], "--limit": 9}
        own = [arg for flag in sorted(reads) for arg in (flag, values[flag])]
        args = build_parser().parse_args([command, *own, "--format", "csv", "--output", "o"])
        for flag in reads:
            assert getattr(args, flag[2:]) == parsed[flag]
        assert (args.format, args.output) == ("csv", "o")
        for flag in sorted(set(values) - reads):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, *own, flag, values[flag]])
            assert exc.value.code == 2
            assert "unrecognized arguments: %s" % flag in capsys.readouterr().err

    def test_n_is_rejected_on_counts(self, capsys):
        # counts reads no n, so --n is not silently ignored there
        with pytest.raises(SystemExit) as exc:
            main(["counts", "--q", "2", "--n", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n" in capsys.readouterr().err

    def test_each_config_has_its_own_default_q_list(self):
        first, second = RunConfig("counts"), RunConfig("counts")
        first.q_list.append(5)
        assert second.q_list == [2, 3]

    def test_k_range_bounds_are_accepted(self):
        # --k may be any of 0..n_min
        assert main(["lemma1", "--n", "2..3", "--k", "0"]) == 0
        assert main(["lemma1", "--n", "2..3", "--k", "2"]) == 0

    def test_zero_limit_is_accepted(self):
        # accepted, then every enumeration is over the limit
        code, rows = run_json(["brute", "--n", "1", "--q", "2", "--limit", "0"])
        assert code == 3 and rows[-1]["error"] == "infeasible"

    def test_negative_limit(self, capsys):
        assert main(["brute", "--n", "1", "--limit", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_config_defaults(self):
        cfg = RunConfig(command="verify", n="1")
        assert (cfg.n_range, cfg.k, cfg.q_list) == (range(1, 2), None, [2, 3])
        assert (cfg.limit, cfg.output, cfg.format) == (10 ** 9, None, "json")

    def test_config_validation(self):
        with pytest.raises(UsageError):
            RunConfig(command="verify", n="2..1")
        with pytest.raises(UsageError):
            RunConfig(command="nope")
        # as on the command line, a command that reads --n needs it
        with pytest.raises(UsageError, match="--n is required for 'verify'"):
            RunConfig(command="verify")


class TestOutputModes:
    def test_output_file(self, tmp_path):
        path = tmp_path / "out.json"
        code = main(["verify", "--n", "1..2", "--output", str(path)])
        assert code == 0
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(rows) == 2 and all(r["equal"] for r in rows)

    def test_unopenable_output_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        assert main(["verify", "--n", "1", "--output", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_csv_format(self, tmp_path):
        path = tmp_path / "out.csv"
        code = main(["lemma1", "--n", "2", "--format", "csv", "--output", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "check,n,k,q,ok,detail"
        assert len(lines) == 4  # header + k = 0, 1, 2
        assert all(",true," in l for l in lines[1:])

    def test_csv_to_stdout_has_the_output_file_bytes(self, tmp_path):
        import os
        import subprocess
        import sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
        argv = [sys.executable, "-m", "whitdim.cli", "lemma1", "--n", "2", "--format", "csv"]
        path = tmp_path / "out.csv"
        stdout = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
        subprocess.run(argv + ["--output", str(path)], env=env, check=True)
        assert stdout.startswith(b"check,n,k,q,ok,detail\n")
        assert stdout == path.read_bytes()

    def test_closed_stdout_is_a_usage_error(self):
        # `whitdim verify --n 1..12 | head -1`: the reader is gone before the
        # records are flushed, so not every check was reported
        import os
        import subprocess
        import sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
        argv = [sys.executable, "-m", "whitdim.cli", "verify", "--n", "1..3"]
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read().decode()
        assert proc.wait() == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_closed_pipe_shared_by_stdout_and_stderr_is_a_usage_error(self):
        # `whitdim chain --n 2 2>&1 | head -1`: the error message cannot be
        # written either, and the exit code must still say so
        import os
        import subprocess
        import sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
        argv = [sys.executable, "-m", "whitdim.cli", "chain", "--n", "2"]
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        proc.stdout.close()
        assert proc.wait() == 2

    def test_determinism_modulo_elapsed(self):
        def snap():
            cfg = RunConfig(command="verify", n="1..3")
            buf = io.StringIO()
            assert run(cfg, buf) == 0
            rows = [json.loads(l) for l in buf.getvalue().splitlines()]
            return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows]

        assert snap() == snap()

    def test_all_union(self):
        code, reports = run_json(["all", "--n", "1", "--q", "2"])
        assert code == 0
        idents = set()
        for r in reports:
            idents.add(r.get("identity") or r.get("params", {}).get("kind") or "dimension")
        assert {"main", "inner-sum", "dimension", "rect-rank", "grassmann"} <= idents


class TestFailurePath:
    def test_failed_check_exits_1(self, monkeypatch):
        from whitdim import engine

        def broken(n):
            return {"identity": "main", "n": n, "equal": False, "lhs": "x", "rhs": "y",
                    "elapsed_ms": 0.0}

        monkeypatch.setattr(engine, "verify_main", broken)
        buf = io.StringIO()
        cfg = RunConfig(command="verify", n="1..2")
        code = run(cfg, buf)
        assert code == 1
        rows = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert len(rows) == 2 and all(r["equal"] is False for r in rows)

    def test_failed_check_outranks_a_later_infeasible_enumeration(self, monkeypatch):
        from whitdim import engine

        def broken(n):
            return {"identity": "main", "n": n, "equal": False, "lhs": "x", "rhs": "y",
                    "elapsed_ms": 0.0}

        monkeypatch.setattr(engine, "verify_main", broken)
        code, rows = run_json(["all", "--n", "3", "--q", "3"])
        assert code == 1
        assert rows[0]["identity"] == "main" and rows[0]["equal"] is False
        assert rows[-1]["error"] == "infeasible"
        assert not any("params" in r for r in rows)  # the stream stopped there


CHAIN_STEPS = [
    "simplify-q-power",
    "simplify-closed-product",
    "simplify-monomial-merge",
    "simplify-factorial-signs",
    "simplify-l-power",
    "simplify-long-range",
    "simplify-k-tail",
    "simplify-m-tail",
    "simplify-regrouped-sum",
    "simplify-normalized-lhs",
    "simplify-exponent-total",
    "conclusion-group-by-k",
    "conclusion-reindex-outer",
    "conclusion-plug-closed-form",
    "conclusion-normalize-power",
    "conclusion-pochhammer-split",
    "conclusion-coefficient-extraction",
    "conclusion-telescoped-series",
    "conclusion-exponent-identity",
]


def without_elapsed(reports):
    return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in reports]


class TestRecordStream:
    def test_chain_steps_in_order(self):
        code, reports = run_json(["chain", "--n", "1..2"])
        assert code == 0
        assert [(r["n"], r["identity"]) for r in reports] == [
            (n, step) for n in (1, 2) for step in CHAIN_STEPS
        ]

    def test_all_is_the_concatenation_of_the_commands(self):
        n, q = ["--n", "1..2"], ["--q", "2"]
        code, reports = run_json(["all"] + n + q)
        assert code == 0
        parts = []
        # counts reads no n, and only brute and counts read q
        for argv in (["verify"] + n, ["lemma1"] + n, ["chain"] + n, ["brute"] + n + q,
                     ["counts"] + q):
            part_code, part = run_json(argv)
            assert part_code == 0
            parts += part
        assert without_elapsed(reports) == without_elapsed(parts)

    def test_each_record_type_keeps_its_key_order(self):
        code, reports = run_json(["all", "--n", "1", "--q", "2"])
        assert code == 0
        first = {}
        for r in reports:
            first.setdefault(r.get("identity") or r.get("params", {}).get("kind")
                             or "dimension", r)
        step = ["identity", "n", "equal", "lhs", "rhs", "elapsed_ms"]
        assert list(first["main"]) == step
        assert list(first["inner-sum"]) == ["identity", "n", "k", "equal", "lhs", "rhs",
                                            "elapsed_ms"]
        for identity in CHAIN_STEPS:
            assert list(first[identity]) == step, identity
        assert list(first["dimension"]) == ["n", "q", "brute", "middle", "closed", "buckets",
                                            "agree"]
        shapes = {"rect-rank": ["s", "t", "k"], "trace-delta": ["m", "k"],
                  "grassmann": ["n", "m"]}
        for kind, shape in shapes.items():
            assert list(first[kind]) == ["params", "enumerated", "formula", "equal"], kind
            assert list(first[kind]["params"]) == ["kind", *shape, "q"], kind


def set_cpus(monkeypatch, count):
    """Make the runner see `count` usable CPUs, and count its forks."""
    import os

    real_fork = os.fork
    forks = []

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def strip_elapsed(text):
    out = []
    for line in text.splitlines():
        if line.startswith("{"):
            row = json.loads(line)
            row.pop("elapsed_ms", None)
            line = json.dumps(row)
        out.append(line)
    return out


class TestParallelRunner:
    @pytest.fixture(autouse=True)
    def no_worker_is_left(self):
        import os

        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "1..6"],
        ["lemma1", "--n", "1..5"],
        ["chain", "--n", "1..4"],
        ["brute", "--n", "1..2", "--q", "2,3"],
        ["counts", "--q", "2,3"],
        ["all", "--n", "1..2", "--q", "2"],
    ])
    def test_two_workers_write_the_one_worker_stream(self, monkeypatch, argv, fmt):
        argv = argv + ["--format", fmt]
        with monkeypatch.context() as patch:
            forks = set_cpus(patch, 1)
            one = run_text(argv)
            assert forks == []
        forks = set_cpus(monkeypatch, 2)
        two = run_text(argv)
        assert len(forks) == 2
        assert one[0] == two[0] == 0
        assert strip_elapsed(one[1]) == strip_elapsed(two[1])
        assert len(one[1].splitlines()) > 1

    def test_infeasible_unit_stops_the_stream(self, monkeypatch):
        forks = set_cpus(monkeypatch, 2)
        code, rows = run_json(["brute", "--n", "1..3", "--q", "2", "--limit", "1000"])
        assert len(forks) == 2
        assert code == 3
        assert [r.get("n") for r in rows] == [1, None]
        assert rows[1]["error"] == "infeasible" and rows[1]["candidates"] == 2 ** 12

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_csv_infeasible_row_has_every_column(self, monkeypatch, cpus):
        import csv

        forks = set_cpus(monkeypatch, cpus)
        code, text = run_text(["all", "--n", "1", "--q", "2", "--limit", "8",
                               "--format", "csv"])
        assert len(forks) == (cpus if cpus > 1 else 0)
        assert code == 3
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) > 2 and all(len(row) == 6 for row in rows)
        assert rows[-1][:5] == ["infeasible", "", "", "", ""]
        error = json.loads(rows[-1][5])
        assert error["error"] == "infeasible" and error["candidates"] == 16

    def test_failed_check_before_an_infeasible_unit_exits_1(self, monkeypatch):
        from whitdim import engine

        def broken(n):
            return {"identity": "main", "n": n, "equal": False, "lhs": "x", "rhs": "y",
                    "elapsed_ms": 0.0}

        monkeypatch.setattr(engine, "verify_main", broken)
        forks = set_cpus(monkeypatch, 2)
        code, rows = run_json(["all", "--n", "3", "--q", "3"])
        assert len(forks) == 2
        assert code == 1
        assert rows[0]["equal"] is False and rows[-1]["error"] == "infeasible"
        assert not any("params" in r for r in rows)

    def test_worker_exception_is_raised_after_the_records_before_it(self, monkeypatch):
        from whitdim import cli, engine

        real = engine.verify_main

        def failing(n):
            if n == 3:
                raise ValueError("unit three failed")
            return real(n)

        monkeypatch.setattr(engine, "verify_main", failing)
        cfg = RunConfig(command="verify", n="1..5")
        for cpus, error in ((1, ValueError), (2, cli.UnitError)):
            with monkeypatch.context() as patch:
                forks = set_cpus(patch, cpus)
                buf = io.StringIO()
                with pytest.raises(error, match="unit three failed"):
                    run(cfg, buf)
                assert len(forks) == (cpus if cpus > 1 else 0)
            assert [json.loads(l)["n"] for l in buf.getvalue().splitlines()] == [1, 2]

    def test_worker_that_dies_is_an_error(self, monkeypatch):
        import os

        from whitdim import engine

        real = engine.verify_main

        def dying(n):
            if n == 2:
                os._exit(0)
            return real(n)

        monkeypatch.setattr(engine, "verify_main", dying)
        set_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="before sending work unit 1"):
            run(RunConfig(command="verify", n="1..2"), io.StringIO())

    def test_closed_stream_stops_the_workers(self, monkeypatch):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        forks = set_cpus(monkeypatch, 2)
        with pytest.raises(BrokenPipeError):
            run(RunConfig(command="verify", n="1..12"), Closed())
        assert len(forks) == 2

    def test_workers_end_when_the_parent_is_killed(self, tmp_path):
        # SIGKILL runs no cleanup in the parent, so each worker must notice by
        # itself, even in the middle of a unit
        import os
        import signal
        import subprocess
        import sys
        import time

        def alive(pid):
            try:
                with open("/proc/%d/stat" % pid) as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] not in "ZX"
            except FileNotFoundError:
                return False

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
        script = (
            "import os, sys, time\n"
            "from whitdim import cli, engine\n"
            "def stuck(n):\n"
            "    open(os.path.join(sys.argv[1], str(os.getpid())), 'w').close()\n"
            "    time.sleep(60)\n"
            "engine.verify_main = stuck\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "cli.main(['verify', '--n', '1..2'])\n"
        )
        proc = subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=env)
        try:
            deadline = time.monotonic() + 30
            while len(os.listdir(tmp_path)) < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            workers = [int(name) for name in os.listdir(tmp_path)]
            assert len(workers) == 2 and proc.pid not in workers
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        deadline = time.monotonic() + 10
        while any(map(alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(alive, workers))

    def test_one_cpu_affinity_runs_in_process(self):
        # as under `taskset -c 0`: the process's own affinity, not a patched one
        import os
        import subprocess
        import sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
        script = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from whitdim import cli\n"
            "def no_fork():\n"
            "    raise AssertionError('forked under a one-CPU affinity')\n"
            "os.fork = no_fork\n"
            "sys.exit(cli.main(['verify', '--n', '1..3']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        assert len(proc.stdout.splitlines()) == 3

    def test_each_worker_runs_on_its_own_cpu(self):
        # the process's own affinity, not a patched one: worker w runs on its w-th CPU
        import os
        import subprocess
        import sys

        from whitdim.cli import _owner

        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("placement needs two usable CPUs; this process may use one")
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
        script = (
            "import json, os, sys\n"
            "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-2:])\n"
            "from whitdim import cli, engine\n"
            "def where(n):\n"
            "    return {'n': n, 'equal': True, 'cpus': sorted(os.sched_getaffinity(0))}\n"
            "engine.verify_main = where\n"
            "code = cli.main(['verify', '--n', '1..4'])\n"
            "print(json.dumps({'parent': sorted(os.sched_getaffinity(0))}))\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        *rows, parent = [json.loads(line) for line in proc.stdout.splitlines()]
        cpus = sorted(os.sched_getaffinity(0))[-2:]
        assert parent["parent"] == cpus
        assert [row["n"] for row in rows] == [1, 2, 3, 4]
        assert [row["cpus"] for row in rows] == [[cpus[_owner(i, 2)]] for i in range(4)]

    def test_refused_placement_leaves_the_worker_unplaced(self, monkeypatch):
        import os

        def refused(pid, cpus):
            raise OSError(22, "Invalid argument")

        argv = ["all", "--n", "1..2", "--q", "2"]
        with monkeypatch.context() as patch:
            set_cpus(patch, 1)
            one = run_text(argv)
        monkeypatch.setattr(os, "sched_setaffinity", refused)
        forks = set_cpus(monkeypatch, 2)
        two = run_text(argv)
        assert len(forks) == 2
        assert one[0] == two[0] == 0
        assert strip_elapsed(one[1]) == strip_elapsed(two[1])

    def test_one_cpu_never_forks(self, monkeypatch):
        import os

        def forbidden():
            raise AssertionError("forked with one CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", forbidden)
        code, rows = run_json(["all", "--n", "1..2", "--q", "2"])
        assert code == 0 and len(rows) > 1

    def test_worker_count(self, monkeypatch):
        import os
        import threading

        from whitdim.cli import _worker_count

        set_cpus(monkeypatch, 2)
        assert [_worker_count(u) for u in (1, 2, 5)] == [1, 2, 2]
        set_cpus(monkeypatch, 4)
        assert [_worker_count(u) for u in (3, 4, 9)] == [3, 4, 4]
        with monkeypatch.context() as patch:
            patch.delattr(os, "sched_getaffinity")
            assert _worker_count(9) == 1
        # fork copies only the calling thread: another thread means in-process
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert _worker_count(9) == 1
        finally:
            release.set()
            other.join()

    def test_boustrophedon_owner(self):
        from whitdim.cli import _owner

        assert [_owner(i, 2) for i in range(8)] == [0, 1, 1, 0, 0, 1, 1, 0]
        assert [_owner(i, 3) for i in range(9)] == [0, 1, 2, 2, 1, 0, 0, 1, 2]
        assert [_owner(i, 1) for i in range(3)] == [0, 0, 0]



def cli_process(argv, script=None):
    """Run the command line in a fresh interpreter: `python -m whitdim.cli argv`,
    or, given a script, `python -c script argv`."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    head = ["-m", "whitdim.cli"] if script is None else ["-c", script]
    return subprocess.run([sys.executable, *head, *argv], env=env, capture_output=True)


class TestProcessExit:
    """A process ends through main_entry: both streams flushed, then os._exit
    with main's code.  Anything main raises propagates as before."""

    @pytest.mark.parametrize("argv", [
        ["all", "--n", "1..2", "--q", "2,3"],
        ["lemma1", "--n", "2", "--format", "csv"],
    ])
    def test_piped_stream_is_the_in_process_stream(self, argv):
        proc = cli_process(argv)
        assert proc.returncode == 0, proc.stderr.decode()
        code, text = run_text(argv)
        assert code == 0 and text.count("\n") > 3
        assert strip_elapsed(proc.stdout.decode()) == strip_elapsed(text)

    def test_output_file_is_the_in_process_stream(self, tmp_path):
        argv = ["all", "--n", "1..2", "--q", "2,3"]
        path = tmp_path / "out.json"
        proc = cli_process(argv + ["--output", str(path)])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == b"" == proc.stderr
        assert strip_elapsed(path.read_text()) == strip_elapsed(run_text(argv)[1])

    def test_passed_checks_exit_0(self):
        proc = cli_process(["verify", "--n", "1..3"])
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 3

    def test_usage_error_exits_2_with_its_message(self):
        proc = cli_process(["brute", "--n", "1", "--q", "6"])
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr.startswith(b"error: unsupported q values [6]")

    def test_infeasible_enumeration_exits_3_after_its_error_line(self):
        proc = cli_process(["brute", "--n", "2", "--limit", "1"])
        assert proc.returncode == 3
        assert json.loads(proc.stdout.splitlines()[-1])["error"] == "infeasible"

    def test_failed_check_exits_1_after_its_records(self):
        script = (
            "from whitdim import cli, engine\n"
            "def broken(n):\n"
            "    return {'identity': 'main', 'n': n, 'equal': False, 'lhs': 'x', 'rhs': 'y',\n"
            "            'elapsed_ms': 0.0}\n"
            "engine.verify_main = broken\n"
            "cli.main_entry()\n"
        )
        proc = cli_process(["verify", "--n", "1..2"], script=script)
        assert proc.returncode == 1, proc.stderr.decode()
        rows = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [r["equal"] for r in rows] == [False, False]

    def test_argparse_exits_as_before(self):
        proc = cli_process(["--help"])
        assert proc.returncode == 0 and proc.stdout.startswith(b"usage: whitdim")
        proc = cli_process([])
        assert proc.returncode == 2 and proc.stdout == b""
        assert proc.stderr.startswith(b"usage: whitdim")

    def test_returned_code_leaves_through_os_exit(self, monkeypatch):
        import os

        from whitdim import cli

        exits = []
        monkeypatch.setattr(os, "_exit", exits.append)
        monkeypatch.setattr(cli, "main", lambda: 3)
        cli.main_entry()
        assert exits == [3]

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), SystemExit(2)])
    def test_exception_from_main_is_raised_not_exited(self, monkeypatch, exc):
        import os

        from whitdim import cli

        exits = []

        def broken():
            raise exc

        monkeypatch.setattr(os, "_exit", exits.append)
        monkeypatch.setattr(cli, "main", broken)
        with pytest.raises(type(exc)) as info:
            cli.main_entry()
        assert info.value is exc and exits == []
