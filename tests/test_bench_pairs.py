"""The pure parts of bench_pairs.py: seed lists, the pair summary, and how a
run's output is read."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def pair(parent, change, correct=(True, True)):
    keys = ("ops_per_s", "peak_rss_mb")
    return {"parent": dict(zip(keys, parent)), "change": dict(zip(keys, change)),
            "parent_outcome": {"correct": correct[0]},
            "change_outcome": {"correct": correct[1]}}


@pytest.mark.parametrize("text,seeds", [
    ("7", [7]),
    ("301-304", [301, 302, 303, 304]),
    ("1,4,9", [1, 4, 9]),
    ("104,104,104", [104, 104, 104]),
    ("1-3,10,12-13", [1, 2, 3, 10, 12, 13]),
])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["", "10-1", "-3", "3,-1", "1,,2", "4-", "x"])
def test_parse_seeds_rejects_empty_descending_and_negative(text):
    with pytest.raises(bench_pairs.argparse.ArgumentTypeError):
        bench_pairs.parse_seeds(text)


@pytest.mark.parametrize("flag", ["--seeds", "--trace-seeds"])
@pytest.mark.parametrize("text", ["10-1", "-3", ""])
def test_main_bad_seed_list_is_usage_error(tmp_path, monkeypatch, capsys, flag, text):
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    args = ["--parent", str(tmp_path), "--change", str(tmp_path), "--workload", "w",
            "--out", str(tmp_path / "bench.json"), "--seeds", "1", f"{flag}={text}"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(args)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_summarize_wins_ties_and_lower_is_better():
    pairs = [pair((4.0, 200.0), (5.0, 190.0)),   # change wins both
             pair((4.0, 200.0), (4.0, 200.0)),   # ties count for neither side
             pair((5.0, 180.0), (4.5, 210.0)),   # parent wins both
             pair((4.0, 220.0), (6.0, 230.0))]   # ops won, rss lost
    out = bench_pairs.summarize(pairs, METRICS)
    ops, rss = out["ops_per_s"], out["peak_rss_mb"]
    assert ops["change_wins"] == 2 and rss["change_wins"] == 1
    assert ops["pairs"] == rss["pairs"] == 4
    assert ops["parent"]["median"] == 4.0 and ops["change"]["median"] == 4.75
    assert ops["median_change_rel"] == pytest.approx(0.1875)
    assert rss["parent"]["median"] == 200.0 and rss["change"]["median"] == 205.0
    assert rss["median_change_rel"] == pytest.approx(0.025)
    assert (ops["parent"]["q1"], ops["parent"]["q3"]) == (4.0, 4.25)
    assert (ops["better"], ops["bound"]) == ("higher", 0.25)
    assert (rss["better"], rss["bound"]) == ("lower", 0.1)



PARENT_RSS = [100.0 + 2 * i for i in range(10)]  # median 109, q3 - q1 = 9


def rss_pairs(drop: float, losses: int = 1):
    """Ten pairs whose change is `drop` MB lower than the parent, except the
    last `losses` pairs, where it is 1 MB higher."""
    return [pair((4.0, p), (4.0, p - drop if i < 10 - losses else p + 1.0))
            for i, p in enumerate(PARENT_RSS)]


@pytest.mark.parametrize("drop,losses,resolved", [
    (2.0, 1, False),   # 9/10 wins, but the medians differ by less than the IQR
    (12.0, 1, True),   # the same wins, with the medians more than an IQR apart
    (12.0, 2, False),  # medians far apart, but only 8/10 wins
    (12.0, 0, True),
])
def test_summarize_gain_resolved_needs_nine_wins_beyond_parent_iqr(drop, losses, resolved):
    rss = bench_pairs.summarize(rss_pairs(drop, losses), METRICS)["peak_rss_mb"]
    assert rss["change_wins"] == 10 - losses
    assert rss["gain_resolved"] is resolved
    assert rss["beyond_bound"] is False
    line = bench_pairs.verdict_line("w", "peak_rss_mb", rss)
    assert line.startswith("w peak_rss_mb: parent 109 -> change ")
    assert line.endswith("gain resolved" if resolved else "within bound, no gain resolved")


@pytest.mark.parametrize("ops,rss,flags", [
    (3.0, 200.0, (False, False)),   # -25% ops is at its bound, not beyond it
    (2.9, 225.0, (True, True)),     # -27.5% ops, +12.5% rss
    (5.0, 219.0, (False, False)),   # ops better, rss +9.5% inside its 0.1 bound
])
def test_summarize_flags_a_regression_beyond_the_bound(ops, rss, flags):
    pairs = [pair((4.0, 200.0), (ops, rss))] * 10
    out = bench_pairs.summarize(pairs, METRICS)
    assert (out["ops_per_s"]["beyond_bound"], out["peak_rss_mb"]["beyond_bound"]) == flags
    if flags[0]:
        assert bench_pairs.verdict_line("w", "ops_per_s", out["ops_per_s"]).endswith(
            "BEYOND BOUND (0.25)")


# fusion_train setup_s in BENCH_24.json: the parent's IQR is 58% of its median.
WIDE_PARENT = [0.0612, 0.0426, 0.0419, 0.042, 0.0418, 0.0703, 0.0697, 0.044, 0.0764, 0.0431]
WIDE_CHANGE = [0.0599, 0.0696, 0.0454, 0.0637, 0.0412, 0.0458, 0.0429, 0.0441, 0.0648, 0.0772]


@pytest.mark.parametrize("parent,change,unresolved,verdict", [
    (WIDE_PARENT, WIDE_CHANGE, True, "unresolved (parent IQR wider than the bound 0.25)"),
    # The same parent spread, but every change run beats every parent run.
    (WIDE_PARENT, [0.04] * 10, False, "gain resolved"),
    # A narrow spread: IQR 2% of the median.
    ([0.050, 0.051, 0.049, 0.050, 0.052, 0.048, 0.050, 0.051, 0.049, 0.050],
     [0.051, 0.050, 0.050, 0.052, 0.049, 0.051, 0.050, 0.049, 0.051, 0.050],
     False, "within bound, no gain resolved"),
])
def test_summarize_spread_wider_than_the_bound_is_unresolved(parent, change, unresolved,
                                                              verdict):
    setup = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.25}]  # setup_s's bound
    pairs = [pair((4.0, p), (4.0, c)) for p, c in zip(parent, change)]
    m = bench_pairs.summarize(pairs, setup)["peak_rss_mb"]
    assert m["unresolved"] is unresolved and m["beyond_bound"] is False
    assert bench_pairs.verdict_line("w", "peak_rss_mb", m).endswith(verdict)


def test_incorrect_runs_counted_per_side():
    pairs = [pair((4.0, 200.0), (5.0, 190.0)),
             pair((4.0, 200.0), (5.0, 190.0), correct=(True, False)),
             pair((4.0, 200.0), (5.0, 190.0), correct=(False, False))]
    assert bench_pairs.incorrect_runs(pairs) == {"parent": 1, "change": 2}
    assert bench_pairs.incorrect_runs(pairs[:1]) == {"parent": 0, "change": 0}


def test_main_records_checkouts_and_fails_on_incorrect_runs(tmp_path, monkeypatch):
    names = [m["name"] for m in bench_pairs.json.loads(
        (bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run_once(checkout, workload, seed, seconds, trace):
        return {"correct": not (checkout.endswith("change") and seed == 2),
                "attempted": 3, "failed": 0,
                "metrics": {name: {"value": 1.0} for name in names},
                "info": [{"sizes": {}, "nproc": 2, "blas_threads": 1,
                          "python": "3", "numpy": "2", "scipy": "1", "blas": "x"}]}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "w", "--out", str(out)]
    assert bench_pairs.main(args + ["--seeds", "1"]) == 0
    assert bench_pairs.main(args + ["--seeds", "1-2"]) == 1
    entry = bench_pairs.json.loads(out.read_text())["workloads"]["w"]
    assert entry["incorrect_runs"] == {"parent": 0, "change": 1}
    assert entry["checkouts"]["parent"] == {"head": None, "dirty": None}


def test_main_keeps_each_runs_setup_times(tmp_path, monkeypatch):
    names = [m["name"] for m in bench_pairs.json.loads(
        (bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run_once(checkout, workload, seed, seconds, trace):
        side = 1.0 if checkout.endswith("change") else 0.0
        info = [{"sizes": {}, "nproc": 2, "blas_threads": 1,
                 "python": "3", "numpy": "2", "scipy": "1", "blas": "x"}]
        if not trace:  # a traced run sets up once and prints no setup_s_each
            info.append({"units": 4, "setup_s_each": [seed + side + k / 10 for k in range(5)]})
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {name: {"value": 1.0} for name in names}, "info": info}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"), "--workload", "w",
                             "--out", str(out), "--seeds", "3-4", "--trace-seeds", "7"]) == 0
    entry = bench_pairs.json.loads(out.read_text())["workloads"]["w"]
    for pair in entry["pairs"]:
        seed = pair["seed"]
        assert pair["parent_setup_s_each"] == [seed + k / 10 for k in range(5)]
        assert pair["change_setup_s_each"] == [seed + 1.0 + k / 10 for k in range(5)]
    (traced,) = entry["traced"]["pairs"]
    assert traced["parent_setup_s_each"] is None and traced["change_setup_s_each"] is None


@pytest.mark.parametrize("stdout", ["", "# {}\nTraceback (most recent call last)\n",
                                    "[1, 2]\n"])
def test_run_once_without_json_result_names_checkout_exit_and_stderr(monkeypatch, stdout):
    def fake_run(cmd, cwd, capture_output, text):
        return bench_pairs.subprocess.CompletedProcess(
            cmd, 3, stdout=stdout, stderr="start\nValueError: bad workload\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(RuntimeError) as exc:
        bench_pairs.run_once("/src/change", "lm_pretrain", 7, 1.0, False)
    message = str(exc.value)
    assert "/src/change" in message and "exit 3" in message
    assert message.endswith("ValueError: bad workload")


def test_run_once_reads_result_and_info_lines(monkeypatch):
    stdout = '# {"nproc": 2}\nnoise\n{"correct": true, "metrics": {}}\n'

    def fake_run(cmd, cwd, capture_output, text):
        assert cwd == "/src/parent" and cmd[-2:] == ["--trace", "1"]
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    result = bench_pairs.run_once("/src/parent", "lm_pretrain", 7, 1.0, True)
    assert result == {"correct": True, "metrics": {}, "info": [{"nproc": 2}]}
