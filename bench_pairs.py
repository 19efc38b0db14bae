"""Interleaved parent/change runs of the repo benchmark, written to a BENCH file.

    python3 bench_pairs.py --parent DIR --change DIR --workload lm_pretrain \\
        --seeds 301-310 --seconds 20 --trace-seeds 104,104,104 --out BENCH_6.json

DIR is the root of a checkout. Each pair runs `perfbench/run.py` once in each
checkout on one seed, with the same settings, and alternates which side runs
first. For every end-to-end metric that BENCHMARK.json lists, the summary
gives each side's median and quartiles, how many pairs the change won (ties
count for neither side), the relative change of the medians, and the
gate's verdicts, printed one line per metric: `gain_resolved` (the change
won at least 9/10 of the pairs and the medians differ in its favour by more
than the parent's q3 - q1) and `beyond_bound` (the change's median is worse
than the parent's by more than the metric's bound). With
--trace-seeds, traced runs follow, also in alternating pairs, one pair per
listed seed; each side's per-layer metrics are recorded run by run and as
medians. The workload's entry is merged into --out, so one file can hold
every workload of a change.

The entry records each checkout's `git rev-parse HEAD` and whether its tree
was dirty, and counts each side's runs that reported `correct: false`; the
script exits 1 when there are any, since their metrics entered the medians.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """Comma-separated seeds and inclusive ranges lo-hi, in the given order.
    An empty part, a descending range or a negative seed is an argparse
    type error, so the command line exits 2 before anything runs."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        try:
            first = int(lo)
            last = int(hi) if dash else first
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"seed list {text!r}: {part!r} is not a seed >= 0 or a range lo-hi"
            ) from None
        if last < first:
            raise argparse.ArgumentTypeError(
                f"seed list {text!r}: range {part!r} is descending")
        seeds += list(range(first, last + 1))
    return seeds


def checkout_state(checkout: str) -> dict:
    """The commit a checkout is at and whether its tree differs from it;
    head is None when the directory is not a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                              text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return {"head": None, "dirty": None}
    return {"head": head.stdout.strip(),
            "dirty": bool(git("status", "--porcelain").stdout.strip())}


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    """One benchmark run; returns its result object plus the run's
    description lines (`info`). A run whose last stdout line is not a JSON
    result raises RuntimeError naming the checkout, the exit code and the
    tail of stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        raise RuntimeError(f"{checkout}: no JSON result (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    result["info"] = [json.loads(l[2:]) for l in lines[:-1] if l.startswith("# ")]
    return result


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(checkouts: dict[str, str], workload: str, seeds: list[int],
              seconds: float, trace: bool) -> tuple[list[dict], dict]:
    """One pair per seed, alternating which side runs first. Returns the
    pairs and the description of the last run (sizes, versions, threads)."""
    pairs, info = [], {}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result = run_once(checkouts[side], workload, seed, seconds, trace)
            info = result["info"][0]
            pair[side] = values(result)
            pair[f"{side}_outcome"] = {k: result[k] for k in ("correct", "attempted", "failed")}
            print(f"{workload} seed {seed} {side} trace {int(trace)}: "
                  f"{json.dumps(pair[side])}", flush=True)
        pairs.append(pair)
    return pairs, info


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change
    won, the relative change of the medians, and the gate's two verdicts.

    `gain_resolved`: the change won at least 9/10 of the pairs and its
    median is better than the parent's by more than the parent's q3 - q1.
    `beyond_bound`: the change's median is worse than the parent's by more
    than the metric's relative bound."""
    out = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        side = {s: np.array([p[s][name] for p in pairs]) for s in SIDES}
        diff = side["change"] - side["parent"]
        wins = int(((diff > 0) if higher else (diff < 0)).sum())
        stats = {s: {"median": float(np.median(v)),
                     "q1": float(np.percentile(v, 25)),
                     "q3": float(np.percentile(v, 75))} for s, v in side.items()}
        med = {s: stats[s]["median"] for s in SIDES}
        rel = (med["change"] - med["parent"]) / med["parent"] if med["parent"] else None
        gain = med["change"] - med["parent"] if higher else med["parent"] - med["change"]
        out[name] = {
            **stats,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change_rel": rel,
            "better": metric["better"],
            "bound": metric["bound"],
            "gain_resolved": bool(wins >= 0.9 * len(pairs)
                                  and gain > stats["parent"]["q3"] - stats["parent"]["q1"]),
            "beyond_bound": bool(rel is not None
                                 and (-rel if higher else rel) > metric["bound"]),
        }
    return out


def verdict_line(workload: str, name: str, m: dict) -> str:
    """One line per metric: medians, wins, the parent's IQR and the verdict."""
    rel = "n/a" if m["median_change_rel"] is None else f"{m['median_change_rel']:+.1%}"
    if m["beyond_bound"]:
        verdict = f"BEYOND BOUND ({m['bound']:g})"
    elif m["gain_resolved"]:
        verdict = "gain resolved"
    else:
        verdict = "within bound, no gain resolved"
    return (f"{workload} {name}: parent {m['parent']['median']:.4g} -> change "
            f"{m['change']['median']:.4g} ({rel}), change won "
            f"{m['change_wins']}/{m['pairs']}, parent IQR "
            f"{m['parent']['q3'] - m['parent']['q1']:.4g}: {verdict}")


def incorrect_runs(pairs: list[dict]) -> dict[str, int]:
    """How many of each side's runs reported `correct: false`."""
    return {s: sum(not p[f"{s}_outcome"]["correct"] for p in pairs) for s in SIDES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="e.g. 301-310 or 1,4,9")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace-seeds", type=parse_seeds,
                        help="seeds of traced pairs, e.g. 104,104,104")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    pairs, info = run_pairs(checkouts, args.workload, args.seeds, args.seconds, False)
    entry = {
        "checkouts": {side: checkout_state(path) for side, path in checkouts.items()},
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seed N --seconds {args.seconds:g} --trace 0",
        "seeds": args.seeds,
        "sizes": info["sizes"],
        "nproc": info["nproc"],
        "blas_threads": info["blas_threads"],
        "versions": {k: info[k] for k in ("python", "numpy", "scipy", "blas")},
        "summary": summarize(pairs, end_to_end),
        "incorrect_runs": incorrect_runs(pairs),
        "pairs": pairs,
    }
    traced = []
    if args.trace_seeds:
        traced, _ = run_pairs(checkouts, args.workload, args.trace_seeds,
                              args.seconds, True)
        entry["traced"] = {
            "median": {side: {name: float(np.median([p[side][name] for p in traced]))
                              for name in traced[0][side]} for side in SIDES},
            "incorrect_runs": incorrect_runs(traced),
            "pairs": traced,
        }
    for name, m in entry["summary"].items():
        print(verdict_line(args.workload, name, m), flush=True)
    out = Path(args.out)
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("workloads", {})[args.workload] = entry
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    bad = incorrect_runs(pairs + traced)
    if any(bad.values()):
        print(f"{args.workload}: runs with correct: false: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
