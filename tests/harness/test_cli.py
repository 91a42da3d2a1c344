"""Tests for the `python -m repro` command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert name in out


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_parser_accepts_every_command():
    parser = build_parser()
    for name in COMMANDS:
        args = parser.parse_args([name])
        assert args.command == name


def test_parser_client_lists():
    parser = build_parser()
    args = parser.parse_args(["fig6", "--clients", "2,4,8"])
    assert args.clients == "2,4,8"


def test_table2_command_runs(capsys):
    assert main(["table2", "--writes", "150"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "speedup" in out


def test_fig12_command_runs(capsys):
    assert main(["fig12", "--lookups", "400"]) == 0
    out = capsys.readouterr().out
    assert "Figure 12" in out
    assert "no-EBP" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["not-a-figure"])


def test_chaos_parser_wiring():
    parser = build_parser()
    args = parser.parse_args(["chaos", "--seed", "11", "--short"])
    assert args.command == "chaos"
    assert args.seed == 11
    assert args.short is True
    args = parser.parse_args(["chaos"])
    assert args.seed == 7
    assert args.short is False


def test_chaos_command_prints_report_and_exit_codes(capsys, monkeypatch):
    import json

    from repro.harness import soak

    calls = []

    def fake_soak(seed, short):
        calls.append((seed, short))
        ok = seed != 99
        return {
            "seed": seed, "short": short, "ok": ok,
            "violations": [] if ok else ["district (1,1): lost update"],
        }

    monkeypatch.setattr(soak, "run_chaos_soak", fake_soak)
    assert main(["chaos", "--seed", "5", "--short"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["seed"] == 5 and report["short"] is True
    assert calls == [(5, True)]

    assert main(["chaos", "--seed", "99"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is False
    assert "invariant violation" in captured.err


def test_perf_out_writes_all_reports_beside_it(tmp_path, monkeypatch):
    """``perf --out X`` leaves the committed reports alone but still
    gates against them; the columnar and mux reports land next to X."""
    import json
    import os

    from repro.harness import perfbench

    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    digest = "0" * 64
    stubs = {
        "bench_kernel": {"events": 1, "median_events_per_sec": 1,
                         "best_events_per_sec": 1, "sim_to_wall": 1.0},
        "bench_tpcc_slice": {"events": 1, "wall_s": 1.0,
                             "events_per_sec": 1},
        "bench_serve_micro": {"statements": 1, "wall_s": 1.0,
                              "statements_per_sec": 1,
                              "parse_cache_hits": 0,
                              "parse_cache_misses": 0},
        "bench_ch_slice": {"queries": [], "row_wall_s": 1.0,
                           "batch_pq_wall_s": 1.0, "speedup": 1.0,
                           "pushdown_fragments": 0,
                           "hash_build_fragments": 0,
                           "deterministic": True, "parity_ok": True,
                           "digest": digest, "digest_rerun": digest},
        "bench_chaos_slice": {"wall_s": 1.0, "digest": digest},
        "bench_serve_slice": {"wall_s": 100.0, "events_per_sec": 1,
                              "digest": digest},
        "bench_mux": {"statements": 1, "wall_s": 1.0,
                      "statements_per_sec": 1, "lanes": 4,
                      "digest": digest, "fair": True},
    }
    for name, report in stubs.items():
        monkeypatch.setattr(perfbench, name,
                            lambda *args, _report=report, **kw: dict(_report))
    def read_committed():
        contents = []
        for path in (perfbench.COMMITTED_WALLCLOCK,
                     perfbench.COMMITTED_COLUMNAR, perfbench.COMMITTED_MUX):
            with open(path, "rb") as fh:
                contents.append(fh.read())
        return contents

    before = read_committed()

    out_dir = tmp_path / "reports"
    # The stub numbers fail every regression gate against the committed
    # baselines, which is how this test sees those baselines were read.
    assert main(["perf", "--quick", "--out",
                 str(out_dir / "BENCH_wallclock.json")]) == 1
    assert read_committed() == before

    def load(name):
        with open(str(out_dir / name)) as fh:
            return json.load(fh)

    prior = [json.loads(data) for data in before]
    wallclock = load("BENCH_wallclock.json")
    columnar = load("BENCH_columnar.json")
    mux = load("BENCH_mux.json")
    assert wallclock["serve_regression_gate"]["baseline_wall_s"] == round(
        prior[0]["current"]["serve_slice"]["wall_s"], 3)
    assert columnar["ch_regression_gate"]["baseline_speedup"] == round(
        prior[1]["ch_slice"]["speedup"], 3)
    assert mux["mux_gate"]["baseline_statements_per_sec"] == round(
        prior[2]["current"]["mux"]["statements_per_sec"])
    assert mux["baseline"] == prior[2]["baseline"]
