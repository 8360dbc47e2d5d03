"""Command-line contract: output channels, exit codes, env fallbacks."""

import io
import os
import subprocess
import sys
from decimal import Decimal

import pytest

import pbtally
from _helpers import load_report
from pbtally import (brute_count, count_models, gen_auction, gen_knapsack, parse_opb,
                     parse_opb_file)
from pbtally.cli import _decimal_digits, main

SMALL = "* #variable= 3 #constraint= 2\n+1 x1 +1 x2 >= 1 ;\n+2 x2 +1 x3 <= 2 ;\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestCount:
    def test_stdout_carries_only_the_count(self, tmp_path, capsys):
        path = write(tmp_path, "small.opb", SMALL)
        code, out, err = run_cli(["count", path], capsys)
        assert code == 0
        want = brute_count(parse_opb(SMALL)).count
        assert out == "s mc %d\n" % want
        payload = load_report(err)
        assert payload["status"] == "counted"
        assert payload["count"] == want
        assert payload["num_vars"] == 3
        assert payload["config"]["heuristic"] == "vcis"
        assert payload["config"]["saturate_keys"] is True
        assert "stats" not in payload

    @pytest.mark.parametrize("bits", [0, 2047, 2048, 2049, 4097, 20003, 100001])
    def test_decimal_digits_of_long_counts(self, bits):
        # Decimal converts an int without str(), so it checks the split-and-join
        for n in ((1 << bits) - 1, 1 << bits, 7 ** (bits // 3 + 1), 3 << bits | 0x5bd1e995):
            assert _decimal_digits(n) == str(Decimal(n))

    def test_reads_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(SMALL))
        code, out, _ = run_cli(["count", "-"], capsys)
        assert code == 0
        assert out.startswith("s mc ")

    def test_stats_flag_adds_search_counters(self, tmp_path, capsys):
        path = write(tmp_path, "small.opb", SMALL)
        code, _, err = run_cli(["count", "--stats", path], capsys)
        assert code == 0
        stats = load_report(err)["stats"]
        assert "decisions" in stats and "cache_hits" in stats
        # one component of three variables and two constraints: enumerated
        assert stats["leaf_counts"] == 1 and stats["decisions"] == 0

    def test_flags_reach_the_config(self, tmp_path, capsys):
        path = write(tmp_path, "small.opb", SMALL)
        code, _, err = run_cli(
            ["count", "--heuristic", "baseline", "--no-key-saturation",
             "--max-cache-mb", "1.5", path], capsys)
        assert code == 0
        config = load_report(err)["config"]
        assert config["heuristic"] == "baseline"
        assert config["saturate_keys"] is False
        assert config["max_cache_bytes"] == int(1.5 * (1 << 20))
        assert set(config) == {"heuristic", "saturate_keys", "max_cache_bytes",
                               "max_memory_bytes", "timeout_s"}

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.opb", "+1 x1 frog 1 ;\n")
        code, out, err = run_cli(["count", path], capsys)
        assert code == 2
        assert out == ""
        assert load_report(err)["status"] == "error"

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["count", str(tmp_path / "absent.opb")], capsys)
        assert code == 2
        assert load_report(err)["status"] == "error"

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["count", "verify"])
    def test_seed_flag_is_gone(self, tmp_path, capsys, command):
        path = write(tmp_path, "small.opb", SMALL)
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "3", path])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--heuristic", "bogus"], ["--heuristic", "vcis"],
                                       ["--no-key-saturation"]])
    def test_verify_config_flags_are_gone(self, tmp_path, capsys, flags):
        # verify always recounts under every configuration
        path = write(tmp_path, "small.opb", SMALL)
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flags, path])
        assert exc.value.code == 2

    def test_static_only_flag_is_gone(self, tmp_path, capsys):
        path = write(tmp_path, "small.opb", SMALL)
        with pytest.raises(SystemExit) as exc:
            main(["count", "--vcis-static-only", path])
        assert exc.value.code == 2

    def test_timeout_exits_10(self, tmp_path, capsys):
        path = write(tmp_path, "slow.opb",
                     gen_knapsack(items=30, dims=2, max_coeff=9,
                                  capacity_fraction=0.5, seed=3))
        code, out, err = run_cli(["count", "--timeout", "1e-6", path], capsys)
        assert code == 10
        assert out == ""
        assert load_report(err)["status"] == "timeout"

    def test_memory_budget_exits_20(self, tmp_path, capsys):
        path = write(tmp_path, "slow.opb",
                     gen_knapsack(items=30, dims=2, max_coeff=9,
                                  capacity_fraction=0.5, seed=3))
        code, out, err = run_cli(
            ["count", "--max-memory-mb", "0.001", path], capsys)
        assert code == 20
        assert out == ""
        assert load_report(err)["status"] == "memout"

    @pytest.mark.parametrize("flags", [
        ["--timeout", "nan"], ["--timeout", "0"], ["--timeout", "-1"],
        ["--max-cache-mb", "-5"], ["--max-memory-mb", "-1"],
        ["--max-cache-mb", "inf"], ["--max-memory-mb", "inf"], ["--timeout", "inf"],
    ])
    def test_out_of_range_budget_exits_2(self, tmp_path, capsys, flags):
        path = write(tmp_path, "small.opb", SMALL)
        code, out, err = run_cli(["count", *flags, path], capsys)
        assert code == 2
        assert out == ""
        assert load_report(err)["status"] == "error"

    def test_reports_are_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, "inst.opb", gen_knapsack(items=11, seed=4))
        payloads = []
        for _ in range(2):
            code, out, err = run_cli(["count", "--stats", path], capsys)
            assert code == 0
            payload = load_report(err)
            del payload["elapsed_s"]
            payloads.append((out, payload))
        assert payloads[0] == payloads[1]


class TestVerify:
    def test_pass_on_sound_counter(self, tmp_path, capsys):
        path = write(tmp_path, "inst.opb",
                     gen_knapsack(items=12, dims=2, seed=5))
        code, out, err = run_cli(["verify", path], capsys)
        assert code == 0
        payload = load_report(err)
        assert payload["status"] == "pass"
        counts = payload["counts"]
        assert set(counts) == {"search_only", "vcis_saturated", "vcis_raw",
                               "baseline_saturated", "baseline_raw",
                               "exhaustive"}
        assert len(set(counts.values())) == 1
        assert out == "s verify PASS mc %d\n" % counts["exhaustive"]

    def test_corrupted_cache_is_caught(self, tmp_path, capsys):
        path = write(tmp_path, "inst.opb",
                     gen_knapsack(items=12, dims=2, max_coeff=9,
                                  capacity_fraction=0.5, seed=5))
        code, out, err = run_cli(
            ["verify", "--corrupt-cache-after", "0", path], capsys)
        assert code == 1
        assert out == "s verify FAIL\n"
        payload = load_report(err)
        assert payload["status"] == "fail"
        assert len(set(payload["counts"].values())) > 1

    @pytest.mark.parametrize("flags", [
        ["--timeout", "inf"], ["--max-cache-mb", "inf"],
    ])
    def test_out_of_range_budget_exits_2(self, tmp_path, capsys, flags):
        path = write(tmp_path, "small.opb", SMALL)
        code, out, err = run_cli(["verify", *flags, path], capsys)
        assert code == 2
        assert out == ""
        assert load_report(err)["status"] == "error"

    def test_too_many_variables_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "big.opb", gen_knapsack(items=25, seed=1))
        code, _, err = run_cli(["verify", path], capsys)
        assert code == 2
        assert load_report(err)["status"] == "error"


class TestGenerate:
    def test_stdout_matches_library_call(self, capsys):
        code, out, _ = run_cli(
            ["generate", "knapsack", "--items", "10", "--dims", "3",
             "--max-coeff", "7", "--capacity-fraction", "0.4",
             "--seed", "6"], capsys)
        assert code == 0
        assert out == gen_knapsack(items=10, dims=3, max_coeff=7,
                                   capacity_fraction=0.4, seed=6)

    def test_auction_item_flag_maps_through(self, capsys):
        code, out, _ = run_cli(
            ["generate", "auction", "--bids", "9", "--items", "5",
             "--seed", "2"], capsys)
        assert code == 0
        assert out == gen_auction(bids=9, items=5, seed=2)

    def test_output_file_then_count_pipeline(self, tmp_path, capsys):
        path = str(tmp_path / "gen.opb")
        code, out, _ = run_cli(
            ["generate", "sensor", "--sensors", "8", "--targets", "9",
             "--seed", "3", "-o", path], capsys)
        assert code == 0
        assert out == ""
        code, out, _ = run_cli(["count", path], capsys)
        assert code == 0
        f = parse_opb_file(path)
        assert out == "s mc %d\n" % brute_count(f).count

    def test_bad_parameters_exit_2(self, capsys):
        code, _, err = run_cli(
            ["generate", "knapsack", "--items", "0"], capsys)
        assert code == 2
        assert load_report(err)["status"] == "error"

    def test_unwritable_output_exits_2_with_report(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "x.opb")
        code, out, err = run_cli(["generate", "knapsack", "-o", path], capsys)
        assert code == 2
        assert out == ""
        report = load_report(err)
        assert report["status"] == "error" and report["command"] == "generate"
        assert "x.opb" in report["error"]


class TestEnvironment:
    def test_env_sets_defaults(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "small.opb", SMALL)
        monkeypatch.setenv("PBTALLY_HEURISTIC", "baseline")
        monkeypatch.setenv("PBTALLY_MAX_CACHE_MB", "2")
        code, _, err = run_cli(["count", path], capsys)
        assert code == 0
        config = load_report(err)["config"]
        assert config["heuristic"] == "baseline"
        assert config["max_cache_bytes"] == 2 << 20

    def test_explicit_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "small.opb", SMALL)
        monkeypatch.setenv("PBTALLY_HEURISTIC", "baseline")
        code, _, err = run_cli(["count", "--heuristic", "vcis", path], capsys)
        assert code == 0
        assert load_report(err)["config"]["heuristic"] == "vcis"

    def test_unparseable_env_value_aborts(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "small.opb", SMALL)
        monkeypatch.setenv("PBTALLY_TIMEOUT", "soon")
        code, out, err = run_cli(["count", path], capsys)
        assert code == 2
        assert out == ""
        payload = load_report(err)
        assert payload["status"] == "error"
        assert "PBTALLY_TIMEOUT" in payload["error"]

    @pytest.mark.parametrize("value", ["", "random"])
    def test_empty_or_unknown_env_heuristic_exits_2(self, tmp_path, capsys, monkeypatch,
                                                    value):
        path = write(tmp_path, "small.opb", SMALL)
        monkeypatch.setenv("PBTALLY_HEURISTIC", value)
        code, out, err = run_cli(["count", path], capsys)
        assert code == 2
        assert out == ""
        payload = load_report(err)
        assert payload["status"] == "error"
        assert "PBTALLY_HEURISTIC" in payload["error"]

    def test_infinite_env_budget_exits_2(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "small.opb", SMALL)
        monkeypatch.setenv("PBTALLY_MAX_CACHE_MB", "inf")
        code, out, err = run_cli(["count", path], capsys)
        assert code == 2
        assert out == ""
        assert load_report(err)["status"] == "error"


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(pbtally.__file__)))


def run_module(args, extra_env=None, **kwargs):
    """Run ``python -m pbtally ARGS`` in a child that imports this same
    package, with ``extra_env`` added to this process's environment."""
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "pbtally", *args], env=env,
                          capture_output=True, timeout=60, **kwargs)


class TestInstalledEntryPoint:
    def test_script_maps_to_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as handle:
            project = tomllib.load(handle)["project"]
        assert project["scripts"] == {"pbtally": "pbtally.cli:main"}

    def test_generate_pipe_count(self, tmp_path):
        gen = run_module(["generate", "knapsack", "--items", "10", "--seed", "3"],
                         text=True)
        assert gen.returncode == 0
        cnt = run_module(["count", "-"], input=gen.stdout, text=True)
        assert cnt.returncode == 0
        want = count_models(parse_opb(gen.stdout)).count
        assert cnt.stdout == "s mc %d\n" % want

    def test_count_beyond_the_int_string_limit_prints_in_full(self, tmp_path):
        # 3 * 2**14998 has 4,516 digits, more than the 4,300 that str() and
        # int() accept by default; the child gets that default whatever this
        # process runs under, and the digits are read back through Decimal,
        # which has no such limit
        path = write(tmp_path, "wide.opb", "* #variable= 15000\n1 x1 +1 x2 >= 1 ;\n")
        run = run_module(["count", path], extra_env={"PYTHONINTMAXSTRDIGITS": "4300"},
                         text=True)
        assert run.returncode == 0, run.stderr
        want = Decimal(3 << 14998)
        assert run.stdout.startswith("s mc ") and run.stdout.endswith("\n")
        digits = run.stdout[len("s mc "):-1]
        assert len(digits) == 4516 and Decimal(digits) == want
        report = load_report(run.stderr, parse_int=Decimal)
        assert report["status"] == "counted"
        assert report["count"] == want

    def test_reports_are_identical_across_processes(self, tmp_path):
        # string hashing is salted per process; nothing the count reports
        # may depend on it
        path = str(tmp_path / "auction.opb")
        with open(path, "w") as handle:
            handle.write(gen_auction(bids=29, items=20, revenue_fraction=0.15, seed=1))
        runs = []
        for hash_seed in ("0", "1"):
            run = run_module(["count", "--stats", path],
                             extra_env={"PYTHONHASHSEED": hash_seed}, text=True)
            assert run.returncode == 0
            report = load_report(run.stderr)
            assert report["stats"]["conflicts"] > 0
            del report["elapsed_s"]
            runs.append((run.stdout, report))
        assert runs[0] == runs[1]

    def test_verify_exit_codes(self, tmp_path):
        path = str(tmp_path / "inst.opb")
        with open(path, "w") as handle:
            handle.write(gen_knapsack(items=12, dims=2, max_coeff=9,
                                      capacity_fraction=0.5, seed=5))
        ok = run_module(["verify", path])
        assert ok.returncode == 0
        bad = run_module(["verify", "--corrupt-cache-after", "0", path])
        assert bad.returncode == 1
