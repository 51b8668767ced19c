#!/usr/bin/env python3
"""dspkit benchmark: four seeded CLI workloads, end to end and layer by layer.

Run from the root of a dspkit checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's job list through ``python -m dspkit.cli`` in
fresh subprocesses, pass after pass until ``--seconds`` is used up, and
reports the end-to-end metrics (medians over passes, with times scaled by
the host speed sampled between jobs; see ``bench_speed``).  ``--trace 1`` calls
``dspkit.cli.main`` in this process on the same inputs, alternating untraced
and traced passes, and reports the per-layer metrics.  ``--workload all``
runs every workload in turn.  ``--smoke`` swaps in tiny inputs.

The last line of stdout is one JSON object:
``{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}``.
Lines before it give every metric with quartiles and sample count, the seed,
the run metadata and each job's output digest; the same detail is written to
``.perfbench-work/results/``.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import bench_speed
import bench_trace
import bench_workloads

#: Named for confirming a claimed gain on inputs not used while writing the
#: change; do not tune against it.
HELD_OUT_SEED = 7919

MIN_PASSES = 2
SETUP_SAMPLES_FIRST = 5
SETUP_SAMPLES_PER_PASS = 3
WORKDIR = ".perfbench-work"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Runs jobs and keeps the run's totals: attempts, failures, problems and
    the stdout digest of every job, which must not change between passes."""

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.speed = bench_speed.HostSpeed()
        self._spawner = None

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait(timeout=60)
            self._spawner.stdout.close()

    def cli_subprocess(self, argv: list[str]):
        """(stdout, exit code, wall s, cpu s, max rss MB) of one fresh CLI process.
        CPU and memory come from wait4, so they include reaped pool workers."""
        if self._spawner is None:
            self._spawner = subprocess.Popen(
                [sys.executable, os.path.join(os.path.dirname(__file__), "bench_spawn.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        self._spawner.stdin.write(json.dumps({
            "argv": [sys.executable, "-m", "dspkit.cli", *argv], "env": self.env,
            "cwd": self.root, "out": out_path, "err": err_path}) + "\n")
        self._spawner.stdin.flush()
        rep = json.loads(self._spawner.stdout.readline())
        with open(out_path, "rb") as handle:
            out = handle.read()
        if rep["code"]:
            with open(err_path, "rb") as handle:
                tail = handle.read()[-400:].decode("utf-8", "replace")
            self.problems.append(f"{argv[0]}: exit {rep['code']}: {tail}")
        return (out.decode("utf-8"), rep["code"], rep["wall"], rep["cpu"],
                rep["maxrss_kb"] / 1024.0)

    def cli_inprocess(self, argv: list[str]):
        """(stdout, exit code, wall s) of ``dspkit.cli.main(argv)`` in this process."""
        import dspkit.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = dspkit.cli.main(argv)
            wall = time.perf_counter() - t0
        return out.getvalue(), code, wall

    def settle(self, job, stdout: str, code: int) -> int:
        """Check one job's output; count the attempt; return its items."""
        self.attempted += 1
        if job.save_as:
            with open(job.save_as, "w", encoding="utf-8") as handle:
                handle.write(stdout)
        try:
            problems, items = job.check(stdout)
        except Exception as exc:  # malformed output fails the job, not the run
            problems, items = [f"unreadable output: {exc!r}"], 0
        if code != 0:
            problems = [f"exit code {code}", *problems]
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        first = self.digests.setdefault(job.id, digest)
        if first != digest:
            problems.append("stdout differs from the first pass")
        if problems:
            self.failed += 1
            self.problems += [f"{job.id}: {p}" for p in problems[:5]]
        return items

    def setup_sample(self) -> float:
        out, code, wall, _, _ = self.cli_subprocess(["--help"])
        self.attempted += 1
        if code != 0 or "usage: dspkit" not in out:
            self.failed += 1
            self.problems.append("--help: no usage text")
        return wall

    def setup_samples(self, count: int) -> tuple[list[float], list[float]]:
        """(scaled, raw) wall times of ``count`` fresh ``--help`` processes,
        bracketed by host-speed samples."""
        before = self.speed.last()
        raw = [self.setup_sample() for _ in range(count)]
        factor = self.speed.factor(before, self.speed.sample())
        return [s * factor for s in raw], raw

    def subprocess_pass(self, workload) -> dict:
        """One pass of the job list.  Jobs run in groups of about
        ``bench_speed.SAMPLE_EVERY_S`` between host-speed samples, and each
        group's times are scaled by the speed around it."""
        wall = cpu = raw_wall = raw_cpu = rss = 0.0
        items = 0
        group: list[tuple[float, float]] = []
        before = self.speed.last()
        for number, job in enumerate(workload.jobs):
            out, code, w, c, r = self.cli_subprocess(job.argv)
            group.append((w, c))
            rss = max(rss, r)
            items += self.settle(job, out, code)
            if number == len(workload.jobs) - 1 or self.speed.due():
                after = self.speed.sample()
                factor = self.speed.factor(before, after)
                for w, c in group:
                    raw_wall += w
                    raw_cpu += c
                    wall += w * factor
                    cpu += c * factor
                group, before = [], after
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                "items_per_s": items / wall, "items": items,
                "raw_wall_s": raw_wall, "raw_cpu_s": raw_cpu}

    def inprocess_pass(self, workload, tracer=None) -> float:
        wall = 0.0
        for number, job in enumerate(workload.jobs):
            if tracer is not None:
                tracer.job = number
            out, code, w = self.cli_inprocess(job.argv)
            wall += w
            self.settle(job, out, code)
        return wall


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "dspkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()


def _commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(root: str) -> dict:
    return {
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def run_end_to_end(runner: Runner, workload, seconds: float) -> tuple[dict, dict]:
    """Subprocess passes until the time is used; medians of per-pass values,
    with times scaled to the nominal host speed (see ``bench_speed``)."""
    deadline = time.perf_counter() + seconds
    runner.setup_sample()  # warm the bytecode cache; not recorded
    runner.speed.sample()  # the first host-speed sample
    setup, raw_setup = runner.setup_samples(SETUP_SAMPLES_FIRST)
    passes, lengths = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(runner.subprocess_pass(workload))
        scaled, raw = runner.setup_samples(SETUP_SAMPLES_PER_PASS)
        setup += scaled
        raw_setup += raw
        lengths.append(time.perf_counter() - t0)
        # stop when the next pass would end more than half a pass late
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() + statistics.median(lengths) / 2 > deadline):
            break
    stats = {"setup_s": _quartiles(setup)}
    for key in ("wall_s", "cpu_s", "items_per_s", "peak_rss_mb"):
        stats[key] = _quartiles([p[key] for p in passes])
    stats["fail_ratio"] = {"median": runner.failed / runner.attempted, "n": runner.attempted}
    metrics = {k: {"value": stats[k]["median"], "unit": u} for k, u in END_TO_END_UNITS.items()}
    raw = {"setup_s": _quartiles(raw_setup),
           "wall_s": _quartiles([p["raw_wall_s"] for p in passes]),
           "cpu_s": _quartiles([p["raw_cpu_s"] for p in passes])}
    return metrics, {"passes": len(passes), "items_per_pass": passes[0]["items"],
                     "stats": stats, "raw_stats": raw,
                     "reference_s": _quartiles(runner.speed.samples)}


def run_traced(runner: Runner, workload, seconds: float, spans_stem: str,
               parallel_workload=None) -> tuple[dict, dict]:
    """Alternating untraced and traced in-process passes until the time is
    used; per-layer metrics are medians over the traced passes."""
    deadline = time.perf_counter() + seconds
    untraced, traced, layers, counts = [], [], [], []
    tracer = None
    while True:
        t0 = time.perf_counter()
        untraced.append(runner.inprocess_pass(workload))
        tracer = bench_trace.Tracer()
        with tracer.installed():
            traced.append(runner.inprocess_pass(workload, tracer))
        layers.append(bench_trace.layer_metrics(tracer))
        counts.append(tracer.counts())
        if time.perf_counter() + (time.perf_counter() - t0) / 2 > deadline:
            break
    tracer.write(spans_stem)
    if parallel_workload is not None:
        # the same jobs with worker processes must print the same bytes
        runner.subprocess_pass(parallel_workload)
    if any(c != counts[0] for c in counts):
        runner.problems.append("counts differ between traced passes")
        runner.failed += 1
    layers[0]["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics = {}
    for key in sorted(layers[0]):
        if key.endswith((".calls", ".items", ".steps")):
            # counts repeat exactly, so any pass gives them
            metrics[key] = {"value": layers[0][key], "unit": "count"}
        else:
            unit = "s" if key.endswith(("_s", ".s")) else "ratio"
            value = (layers[0][key] if key == "trace.overhead_ratio"
                     else statistics.median(m[key] for m in layers))
            metrics[key] = {"value": value, "unit": unit}
    return metrics, {"passes": len(traced), "counts_repeat": len(counts) > 1,
                     "untraced_wall_s": _quartiles(untraced),
                     "traced_wall_s": _quartiles(traced), "counts": counts[0],
                     "spans": spans_stem + ".bin"}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 root: str, workdir: str) -> dict:
    meta = metadata(root)
    with Runner(root, workdir) as runner:
        if trace:
            workload = bench_workloads.build(name, seed, workdir, jobs=1, smoke=smoke)
            workload.jobs += bench_workloads.probe(workdir)
            parallel = (bench_workloads.build(name, seed, workdir, jobs=2, smoke=smoke)
                        if name == "sweep" else None)
            stem = os.path.join(workdir, f"spans-{name}-{seed}")
            metrics, info = run_traced(runner, workload, seconds, stem, parallel)
        else:
            workload = bench_workloads.build(name, seed, workdir, jobs=2, smoke=smoke)
            metrics, info = run_end_to_end(runner, workload, seconds)
    meta["loadavg_end"] = os.getloadavg()
    return {
        "workload": name, "seed": seed, "held_out_seed": HELD_OUT_SEED, "trace": int(trace),
        "smoke": smoke, "seconds": seconds, "meta": meta, "notes": workload.notes,
        "jobs": [{"id": j.id, "argv": j.argv} for j in workload.jobs],
        "digests": runner.digests, "problems": runner.problems[:50], **info,
        "result": {"correct": runner.failed == 0 and not runner.problems,
                   "attempted": runner.attempted, "failed": runner.failed,
                   "metrics": metrics},
    }


def _print_table(detail: dict) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"passes {detail['passes']}  held-out seed {detail['held_out_seed']}")
    stats = detail.get("stats", {})
    for key, m in detail["result"]["metrics"].items():
        s = stats.get(key)
        spread = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}" if s else ""
        print(f"  {key:48s} {m['value']:14.6g} {m['unit']:6s}{spread}")
    for key, s in detail.get("raw_stats", {}).items():
        print(f"  {'unscaled ' + key:48s} {s['median']:14.6g} s       "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    if "reference_s" in detail:
        s = detail["reference_s"]
        print(f"  {'reference task':48s} {s['median']:14.6g} s       "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}  "
              f"(nominal {bench_speed.REF_SECONDS} s)")
    if "fail_ratio" in stats:
        print(f"  {'fail_ratio':48s} {stats['fail_ratio']['median']:14.6g} ratio   "
              f"of {stats['fail_ratio']['n']} jobs")
    for p in detail["problems"]:
        print(f"  problem: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dspkit benchmark")
    parser.add_argument("--workload", required=True, choices=[*bench_workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dspkit", "cli.py")):
        print("error: src/dspkit not found; run from the root of a dspkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import dspkit

    if not os.path.abspath(dspkit.__file__).startswith(os.path.join(root, "src")):
        print(f"error: imported dspkit from {dspkit.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, WORKDIR)
    os.makedirs(os.path.join(workdir, "results"), exist_ok=True)

    names = bench_workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        detail = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke,
                              root, workdir)
        path = os.path.join(workdir, "results",
                            f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(detail, handle, indent=1, sort_keys=True)
        _print_table(detail)
        print("detail: " + json.dumps({k: v for k, v in detail.items() if k != "result"},
                                      sort_keys=True))
        results.append(detail)
    if len(results) == 1:
        final = results[0]["result"]
    else:
        final = {"correct": all(d["result"]["correct"] for d in results),
                 "attempted": sum(d["result"]["attempted"] for d in results),
                 "failed": sum(d["result"]["failed"] for d in results),
                 "metrics": {f"{d['workload']}.{k}": v for d in results
                             for k, v in d["result"]["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
