"""plumesense benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload {cli-figures,oracle-validation,lib-research}
                             --seed N --seconds S --trace {0,1}

Runs from the root of a checkout and builds nothing: the program is the
checkout's src/plumesense.  With --trace 0 it prints the end-to-end metrics;
with --trace 1 the same operations run in this process with spans around the
program's public functions, and it prints the per-layer metrics.  The last
line of standard output is one JSON object; everything above it is the run
record.  Work files go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (used for repeated set-ups)")
    return parser.parse_args(argv)


def _missing_program():
    for needed in (ROOT / "src" / "plumesense" / "cli.py", ROOT / "scenarios" / "field.json"):
        if not needed.is_file():
            return f"no plumesense checkout here: {needed.relative_to(ROOT)} is missing"
    return None


def measure(ops, ctx, seconds):
    """Whole passes over every operation until the next pass would end past
    ``seconds``.  Untraced, machine_probe() runs before each operation and
    after the last, and each operation's time is also scaled to the
    reference speed by the mean of the probes around it.  Returns (op times
    by metric, pass times, reference-speed pass times, per-pass rss,
    per-pass layer totals)."""
    tracer = ctx.tracer
    probe = None if tracer else workloads.machine_probe
    op_times, pass_times, pass_walls, pass_rss, pass_layers = {}, [], [], [], []
    pass_refs = []
    start = time.perf_counter()
    index = 0
    while not pass_walls or (time.perf_counter() - start
                             + statistics.median(pass_walls) <= seconds):
        wall = time.perf_counter()
        first_span = len(tracer.spans) if tracer else 0
        total, rss, timed = 0.0, [], []
        probes = [probe()] if probe else []
        for op in ops:
            span = tracer.open(f"op.{op.metric}") if tracer else None
            began = time.perf_counter()
            try:
                attempt = op.execute(ctx, index)
            except Exception as exc:  # an operation that raises has failed; keep going
                attempt = workloads.Attempt()
                attempt.error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - began
            if tracer:
                tracer.close(span)
            if probe:
                probes.append(probe())
            op.observe(ctx, index, attempt)
            op_times.setdefault(op.metric, []).append(elapsed)
            total += elapsed
            timed.append(elapsed)
            if attempt.rss_kb is not None:
                rss.append(attempt.rss_kb)
        pass_times.append(total)
        if probe:
            pass_refs.append(sum(
                t * workloads.PROBE_REFERENCE_S / (0.5 * (probes[i] + probes[i + 1]))
                for i, t in enumerate(timed)))
        pass_walls.append(time.perf_counter() - wall)
        pass_rss.append(max(rss) if rss else None)
        if tracer:
            pass_layers.append(tracer.layer_totals(first_span, len(tracer.spans)))
        index += 1
    return op_times, pass_times, pass_refs, pass_rss, pass_layers


def import_metrics(ctx, repeats=3):
    """Import times of plumesense.cli, each from a fresh interpreter: the
    whole import, and the self time of numpy, scipy and plumesense modules
    from -X importtime."""
    whole, parts = [], {"numpy": [], "scipy": [], "plumesense": []}
    code = ("import time; t = time.perf_counter(); import plumesense.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=ctx.env, cwd=ctx.work,
                             capture_output=True, text=True, check=True)
        whole.append(float(out.stdout.strip()))
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import plumesense.cli"],
                             env=ctx.env, cwd=ctx.work, capture_output=True, text=True,
                             check=True)
        sums = dict.fromkeys(parts, 0.0)
        for line in out.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = (cell.strip() for cell in line[len("import time:"):].split("|"))
            top = name.split(".")[0]
            if top in sums:
                sums[top] += int(self_us) * 1e-6
        for top, value in sums.items():
            parts[top].append(value)
    out = {"cli.import_s": statistics.median(whole)}
    out.update({f"cli.import.{top}_s": statistics.median(v) for top, v in parts.items()})
    return out


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref:"):
        return ref
    name = ref.split(None, 1)[1]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _source_digest():
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src" / "plumesense").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()[:16]


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def run_record(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "interpreter": f"{platform.python_implementation()} "
                                           f"{platform.python_version()}",
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": _commit(), "src_sha256": _source_digest(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None):
    args = _parse_args(argv)
    missing = _missing_program()
    if missing:
        print(missing, file=sys.stderr)
        return 2
    ctx = workloads.Context(ROOT, WORK / args.workload, args.seed, bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](ctx)

    if args.setup_only:
        elapsed, probe = workloads.timed_setup(workload.setup)
        print(json.dumps({"setup_s": elapsed, "probe_s": probe}))
        return 0

    setups = []
    if args.trace:
        import tracing
        ctx.tracer = tracing.Tracer()
    else:
        setups = [workload.repeat_setup() for _ in range(workloads.SETUP_REPEATS - 1)]
    setups.append(workloads.timed_setup(workload.setup))

    op_times, pass_times, pass_refs, pass_rss, pass_layers = measure(
        workload.ops, ctx, args.seconds)
    own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted = failed = 0
    correct = True
    problems = {}
    for op in workload.ops:
        for per_attempt in op.verify(ctx):
            attempted += 1
            failed += bool(per_attempt)
            for kind, message in per_attempt:
                correct &= kind != "wrong"
                key = f"{op.name}: [{kind}] {message}"
                problems[key] = problems.get(key, 0) + 1

    record = run_record(args)
    record.update(passes=len(pass_times), attempted=attempted, failed=failed,
                  correct=correct, problems=problems,
                  setup_runs_s=[s for s, _ in setups], setup_probes_s=[p for _, p in setups],
                  pass_runs_s=pass_times, pass_runs_reference_s=pass_refs,
                  op_median_s={m: statistics.median(t) for m, t in sorted(op_times.items())},
                  op_samples={m: len(t) for m, t in sorted(op_times.items())})
    if args.trace:
        import tracing
        layers = tracing.median_over_passes(pass_layers)
        layers.update(import_metrics(ctx))
        # estimated tracing overhead per pass: spans per pass x cost of one span
        layers["trace.overhead_s"] = layers["trace.spans"] * ctx.tracer.span_cost()
        units = tracing.metric_units()
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        record["traced_op_median_s"] = {k: v for k, v in layers.items() if k.startswith("op.")}
        record["trace_residual_s"] = max(p["trace.residual_s"] for p in pass_layers)
        with open(WORK / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(ctx.tracer.spans, fh)
    else:
        rss = [r for r in pass_rss if r is not None]
        peak_kb = statistics.median(rss) if rss else own_peak_kb
        values = {"setup_s": statistics.median(
                      s * workloads.PROBE_REFERENCE_S / p for s, p in setups),
                  "pass_s": statistics.median(pass_refs),
                  "peak_rss_mb": peak_kb / 1024.0}
        record["raw_setup_s"] = statistics.median(s for s, _ in setups)
        record["raw_pass_s"] = statistics.median(pass_times)
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
                   for name in END_TO_END_UNITS}
    record["metrics"] = metrics
    with open(WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# plumesense benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    for key in ("interpreter", "numpy", "scipy", "nproc", "usable_cpus", "commit",
                "src_sha256", "passes", "attempted", "failed", "correct", "trace_residual_s"):
        if key in record:
            print(f"#   {key}: {record[key]}")
    for name, value in record["op_median_s"].items():
        print(f"#   op {name}_s: {value:.6f} s (median of {record['op_samples'][name]})")
    for name, metric in metrics.items():
        print(f"#   {name}: {metric['value']:.6g} {metric['unit']}")
    for key, count in problems.items():
        print(f"#   x{count} {key}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
