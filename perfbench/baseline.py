"""Record a baseline: every workload on several seeds, one run at a time.

    python3 perfbench/baseline.py --label NAME

Runs each workload untraced on seeds 1 to 10 and traced on seed 1, and
writes perfbench/baseline/NAME.json with each run's result and context
and, per workload, the median of each metric. It also prints each
end-to-end metric's spread: the distance between the first and third
quartiles over the seeds, as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNTRACED_SEEDS = range(1, 11)
TRACED_SEEDS = (1,)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["context"] = json.loads(lines[-2])["context"]
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for name in names:
        entry = {}
        for trace, seeds in ((0, UNTRACED_SEEDS), (1, TRACED_SEEDS)):
            runs = []
            for seed in seeds:
                runs.append(run_once(name, seed, seconds, trace))
                r = runs[-1]
                print(f"{name} trace={trace} seed={seed} correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)
            metrics = runs[0]["metrics"]
            entry[f"trace{trace}"] = {
                "median": {m: statistics.median(r["metrics"][m]["value"] for r in runs)
                           for m in metrics},
                "units": {m: v["unit"] for m, v in metrics.items()},
                "runs": runs,
            }
            if trace == 0:
                for m in metrics:
                    values = [r["metrics"][m]["value"] for r in runs]
                    print(f"  {m:12s} median {statistics.median(values):.6g} "
                          f"spread {spread(values):.4f}", flush=True)
        out["workloads"][name] = entry
    path = HERE / "baseline" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
