import io
import json

import pytest

from whitdim.cli import RunConfig, UsageError, main, run

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
            RunConfig(command="counts", q_list=[])

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
    ])
    def test_k_is_rejected_where_it_is_not_read(self, argv, capsys):
        # only lemma1 and all read --k; elsewhere argparse rejects it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --k" in capsys.readouterr().err

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
        assert main(["verify", "--n", "1", "--limit", "0"]) == 0
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
        cfg = RunConfig(command="verify")
        assert (cfg.n_min, cfg.n_max, cfg.k, cfg.q_list) == (1, 1, None, [2, 3])
        assert (cfg.feasibility_limit, cfg.output, cfg.format) == (10 ** 9, None, "json")

    def test_config_validation(self):
        with pytest.raises(UsageError):
            RunConfig(command="verify", n_min=2, n_max=1)
        with pytest.raises(UsageError):
            RunConfig(command="nope")


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

    def test_determinism_modulo_elapsed(self):
        def snap():
            cfg = RunConfig(command="verify", n_min=1, n_max=3)
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
            return engine.VerificationReport("main", n, None, False, "x", "y", 0.0)

        monkeypatch.setattr(engine, "verify_main", broken)
        buf = io.StringIO()
        cfg = RunConfig(command="verify", n_min=1, n_max=2)
        code = run(cfg, buf)
        assert code == 1
        rows = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert len(rows) == 2 and all(r["equal"] is False for r in rows)

    def test_failed_check_outranks_a_later_infeasible_enumeration(self, monkeypatch):
        from whitdim import engine

        def broken(n):
            return engine.VerificationReport("main", n, None, False, "x", "y", 0.0)

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
        args = ["--n", "1..2", "--q", "2"]
        code, reports = run_json(["all"] + args)
        assert code == 0
        parts = []
        for command in ("verify", "lemma1", "chain", "brute", "counts"):
            # counts reads no n, and takes no --n
            part_code, part = run_json([command] + (args[2:] if command == "counts" else args))
            assert part_code == 0
            parts += part
        assert without_elapsed(reports) == without_elapsed(parts)


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

    def test_failed_check_before_an_infeasible_unit_exits_1(self, monkeypatch):
        from whitdim import engine

        def broken(n):
            return engine.VerificationReport("main", n, None, False, "x", "y", 0.0)

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
        cfg = RunConfig(command="verify", n_min=1, n_max=5)
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
            run(RunConfig(command="verify", n_min=1, n_max=2), io.StringIO())

    def test_closed_stream_stops_the_workers(self, monkeypatch):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        forks = set_cpus(monkeypatch, 2)
        with pytest.raises(BrokenPipeError):
            run(RunConfig(command="verify", n_min=1, n_max=12), Closed())
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

