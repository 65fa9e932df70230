"""wpstrata benchmark: time to a certified bracket, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop with one client: the next
op starts when the previous one returns. The inputs come from --seed
alone. Set-up time is measured in fresh interpreter processes, run one
at a time between slices of the timed phase, with its clock stopped.
Every op's output is checked against seed-commit data or an independent
reference, outside the timed phase. `attempted` and `failed` count one
pass of the seed's inputs, so they depend on the seed alone. With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1, half the time runs
untraced and half traced, and the object holds the per-layer metrics.
The lines before it print every metric by name with its unit, and the
run's context. The traced run also writes its spans to
.perfbench/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("constants", "delta11-l10", "h-sweep", "verify-all")
# Printed by every untraced run. BENCHMARK.json bounds only the steady
# ones; it lists op_s.p50, ops_per_s and failed_ratio under per_layer,
# which the traced run reports, the first two from its untraced half.
END_TO_END = ("setup_s", "op_s.p50", "op_s.tail", "ops_per_s", "width.gmean",
              "peak_rss_mb", "failed_ratio")
# The timed phase runs in SLICES slices. A set-up probe runs before each
# slice and one after the last, so the probes sample the machine's speed
# across the whole run rather than at one moment.
SLICES = 6
SETUP_RUNS = SLICES + 1
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0.0:
        p.error("--seconds must be positive")
    return args


def setup_probe(workload: str) -> int:
    """Child process: cold imports plus a first op on the workload's fixed
    set-up input, so that set-up time does not depend on the seed."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import wpstrata  # noqa: F401

    t2 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[workload]
    w.op(w.SETUP_INPUT)
    print(json.dumps({"numpy_s": t1 - t0, "wpstrata_s": t2 - t0}))
    return 0


class Setup:
    """Set-up probes: fresh processes, one at a time, none while timing."""

    def __init__(self, workload: str) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload]
        self.wall: list[float] = []
        self.numpy_s: list[float] = []
        self.wpstrata_s: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        self.wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        got = json.loads(proc.stdout.splitlines()[-1])
        self.numpy_s.append(got["numpy_s"])
        self.wpstrata_s.append(got["wpstrata_s"])

    def medians(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.wall),
            "import.numpy_s": statistics.median(self.numpy_s),
            "import.wpstrata_s": statistics.median(self.wpstrata_s),
        }


def python_probe_s() -> float:
    """Fixed pure-Python work, timed. Context only, never a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wpstrata").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD's commit when the tree is a git checkout, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Loop:
    """Closed loop over a workload's inputs, one client, no threads."""

    def __init__(self, w, inputs: list) -> None:
        self.w = w
        self.inputs = inputs
        self.done: list[tuple[int, object]] = []  # (input index, summary)
        self.next = 0

    def run_one(self, op) -> float:
        k = self.next % len(self.inputs)
        x = self.inputs[k]
        t0 = time.perf_counter()
        try:
            out = op(x)
        except Exception as exc:  # a raising op is a failed op, not a crash
            t1 = time.perf_counter()
            self.done.append((k, exc))
        else:
            t1 = time.perf_counter()
            self.done.append((k, self.w.summary(x, out)))
        self.next += 1
        return t1 - t0

    def timed(self, seconds: float, slices: int, between, op=None,
              on_op=None) -> tuple[list[float], float]:
        """Ops for `seconds` of timed work, in `slices` slices with
        `between()` run untimed before each; returns latencies and the
        timed seconds."""
        op = op or self.w.op
        lat: list[float] = []
        elapsed = 0.0
        for _ in range(slices):
            between()
            start = time.perf_counter()
            deadline = start + seconds / slices
            while True:
                if on_op is not None:
                    on_op(len(lat))
                lat.append(self.run_one(op))
                if time.perf_counter() >= deadline:
                    break
            elapsed += time.perf_counter() - start
        return lat, elapsed

    def complete_pass(self) -> None:
        """Run, untimed, every input the loop has not reached yet."""
        while self.next < len(self.inputs):
            self.run_one(self.w.op)

    def first_summaries(self) -> list:
        first: dict[int, object] = {}
        for k, s in self.done:
            first.setdefault(k, s)
        return [first[k] for k in range(len(self.inputs))]


def tail(lat: list[float]) -> tuple[float, float]:
    """Highest-percentile latency with TAIL_BEYOND ops above it, and that
    percentile. With too few ops, the slowest op and 100."""
    n = len(lat)
    if n <= TAIL_BEYOND:
        return max(lat), 100.0
    return sorted(lat)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def gmean(values: list[float]) -> float:
    if not values or any(v <= 0.0 or not math.isfinite(v) for v in values):
        return math.nan
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_trace(path: Path, context: dict, tracer) -> None:
    base = min((s[1] for s in tracer.spans), default=0.0)
    spans = [[n, round(t0 - base, 9), round(t1 - base, 9), parent, op]
             for n, t0, t1, parent, op in tracer.spans]
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"context": context,
                   "fields": ["name", "start_s", "end_s", "parent", "op"],
                   "spans": spans}, fh)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "wpstrata" / "__init__.py").is_file():
        print(f"perfbench: no wpstrata sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    import numpy
    import wpstrata

    if not Path(wpstrata.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported wpstrata from {wpstrata.__file__}", file=sys.stderr)
        return 2
    import workloads

    w = workloads.WORKLOADS[args.workload]
    inputs = w.inputs(args.seed)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "python_probe_s": python_probe_s(),
        "setup_runs": SETUP_RUNS,
        "inputs_per_pass": len(inputs),
    }

    probes = Setup(args.workload)
    loop = Loop(w, inputs)
    loop.run_one(w.op)  # warm-up: lazy caches fill before timing
    values: dict[str, float] = {}
    if args.trace:
        import layers

        # Both halves start at the same input, so the overhead compares
        # the same ops. Each half has half the slices and probes.
        half = 0.5 * args.seconds
        start = loop.next
        lat_u, el_u = loop.timed(half, SLICES // 2, probes.probe)
        loop.next = start
        tracer = layers.Tracer()
        with layers.installed(tracer):
            root = tracer.span("op", w.op)
            lat_t, _ = loop.timed(half, SLICES - SLICES // 2, probes.probe, root,
                                  on_op=lambda i: setattr(tracer, "op", i))
        probes.probe()
        setup = probes.medians()
        loop.complete_pass()
        values.update(layers.layer_metrics(tracer, len(lat_t)))
        values.update(layers.microbenchmarks())
        values["import.numpy_s"] = setup["import.numpy_s"]
        values["import.wpstrata_s"] = setup["import.wpstrata_s"]
        m = min(len(lat_u), len(lat_t))
        values["trace.overhead"] = 1.0 - sum(lat_u[:m]) / sum(lat_t[:m])
        context["ops_untraced"] = len(lat_u)
        context["ops_traced"] = len(lat_t)
        context["spans"] = len(tracer.spans)
        lat, elapsed = lat_u, el_u
    else:
        lat, elapsed = loop.timed(args.seconds, SLICES, probes.probe)
        probes.probe()
        setup = probes.medians()
        loop.complete_pass()
        values["peak_rss_mb"] = peak_rss_mb()
        values["setup_s"] = setup["setup_s"]

    first = loop.first_summaries()
    widths = [x for k, s in enumerate(first) if not isinstance(s, Exception)
              for x in w.widths(inputs[k], s)]
    refs = w.references(inputs)

    def verdict(k: int, s) -> str:
        return workloads.WRONG if isinstance(s, Exception) else w.check(inputs[k], s, refs[k])

    # Every op is checked; repeats of an input must agree with its first
    # run. The counts cover one pass, the first run of each input, so a
    # seed gives the same counts however many ops the timed phase ran.
    verdicts = [verdict(k, s) for k, s in loop.done]
    per_input = [verdict(k, s) for k, s in enumerate(first)]
    attempted = len(per_input)
    failed = sum(v != workloads.OK for v in per_input)
    wrong = sum(v == workloads.WRONG for v in verdicts)
    wrong += sum(v != per_input[k] for (k, _), v in zip(loop.done, verdicts))

    tail_s, tail_pct = tail(lat)
    values.update({
        "op_s.p50": statistics.median(lat),
        "op_s.tail": tail_s,
        "ops_per_s": len(lat) / elapsed,
        "width.gmean": gmean(widths),
        "failed_ratio": failed / attempted,
    })
    context.update({
        "ops_timed": len(lat),
        "tail_percentile": tail_pct,
        "tail_ops_beyond": min(TAIL_BEYOND, len(lat) - 1),
        "misses": sum(v == workloads.MISS for v in per_input),
        "wrong": wrong,
        "setup_s": setup["setup_s"],
    })
    if args.trace:
        write_trace(OUT_DIR / f"trace-{args.workload}-{args.seed}.json", context, tracer)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = [m["name"] for m in wanted] if args.trace else END_TO_END
    for name in shown:
        print(f"{name} = {values[name]!r} {units[name]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"# op_s.tail is p{tail_pct:.2f} of {len(lat)} timed ops; "
          f"{failed} of {attempted} inputs failed ({context['misses']} bracket misses)")
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": wrong == 0 and all(math.isfinite(v) for v in values.values()),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
