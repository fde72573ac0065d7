#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload tune-cold|sim-sweep|serve-mixed \\
        --seed N --seconds S --trace 0|1 [--bless]

Run from the repository root (or any checkout of it).  The runner builds
the gpurf library, gpurfd and the benchmark driver from source with the
CMake package in perfbench/ (build directory: $CARGO_TARGET_DIR, else
.bench_build), primes its own precision-map cache, then runs the workload
in fresh driver processes for about --seconds:

  --trace 0  end-to-end metrics from untraced runs (medians over the runs);
  --trace 1  per-layer metrics from a traced run, next to an untraced run
             for trace.overhead_ratio.  The spans are also written as a
             Chrome trace-event file (open it in Perfetto).

Each driver process times its workload as a sequence of ops with the
driver's host-speed probe (a fixed computation with no gpurf code, on the
program's compute threads) before the first op and after every op.  wall_ref_s sums the ops'
wall seconds scaled by PROBE_REF_WALL_S over the median probe wall time,
and cpu_ref_s their CPU seconds by PROBE_REF_CPU_S over the median probe
CPU time: seconds at a reference host speed, so a shared host's slow and
fast spells do not move them while a faster program does.  The report
keeps the raw seconds and every probe time.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The line before it is the
full report (host context, sample counts, percentiles, failures), which is
also kept under <build dir>/reports/.  --bless rewrites the reference
values in perfbench/reference/ from the current program instead of checking
them.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("tune-cold", "sim-sweep", "serve-mixed")
# Nominal length of one driver process on a 4-vCPU host: a run makes
# seconds // REP_SECONDS of them.  serve-mixed runs one process, whose rate
# ladder and closed-loop batch are sized from --seconds.
REP_SECONDS = {"tune-cold": 7.5, "sim-sweep": 14.5}
# Extra set-up-only driver processes per run of an in-process workload, so
# setup_s is a median of several set-ups.
SETUP_REPS = 15
# serve-mixed: job latency limit of the rate ladder, and the rung whose
# latencies serve.job_p50_ms / serve.job_tail_ms report (the lowest, 9
# jobs/s, which a 4-vCPU host sustains in nearly every run).
LATENCY_LIMIT_MS = 1000.0
REFERENCE_RUNG = 0
# Nominal wall and per-thread CPU time of one host-speed probe (about their
# medians on a quiet 4-vCPU x86-64 host); they only set the scale of
# wall_ref_s and cpu_ref_s.
PROBE_REF_WALL_S = 0.07
PROBE_REF_CPU_S = 0.07
# Upper bound on one driver process, well inside the 180 s a run may take.
DRIVER_TIMEOUT_S = 170
VALIDATION_NOTE = ("Simulated statistics (cycles, IPC, stalls) come from the "
                   "repository's own timing model and are not validated "
                   "against hardware; no error figure is given.")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def nproc():
    return os.cpu_count() or 1


# ------------------------------------------------------------------ build

def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                      "-j", str(nproc())])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))
    return (os.path.join(cmake_dir, "perfbench_driver"),
            os.path.join(cmake_dir, "gpurf", "gpurfd"))


# ----------------------------------------------------------------- driver

class Driver:
    def __init__(self, exe, gpurfd, work_dir, seed, seconds):
        self.exe, self.gpurfd, self.work_dir = exe, gpurfd, work_dir
        self.seed, self.seconds = seed, seconds
        self.stderr = open(os.path.join(work_dir, "driver.log"), "a")

    def run(self, workload, traced=False, setup_only=False, bless=False,
            spans=None):
        cmd = [self.exe, "--workload", workload, "--seed", str(self.seed),
               "--seconds", repr(float(self.seconds)),
               "--work-dir", self.work_dir,
               "--ref-dir", os.path.relpath(os.path.join(HERE, "reference")),
               "--gpurfd", self.gpurfd]
        if traced:
            cmd += ["--trace", "--spans", spans]
        if setup_only:
            cmd.append("--setup-only")
        if bless:
            cmd.append("--bless")
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)],
                              stdout=subprocess.PIPE, stderr=self.stderr,
                              timeout=DRIVER_TIMEOUT_S, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail("driver failed (exit %d) on %s; see %s" % (
                proc.returncode, workload,
                os.path.join(self.work_dir, "driver.log")))
        return json.loads(lines[-1])


def host_cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def program_digest(paths):
    """Digest of the built program's files: the work directory (and the
    precision-map cache primed in it) belongs to one build, so a checkout
    of another commit never simulates maps its own tuner did not make."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()[:16]


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# ---------------------------------------------------------------- metrics

def span_durations(spans, name, scale):
    return [(s["end_us"] - s["start_us"]) * scale for s in spans
            if s["name"] == name]


def per_layer(workload, rep, spans, untraced_walls):
    """Per-layer metrics of one traced driver process."""
    out = dict(rep["layers"])
    samples = rep["samples"]
    selfs = stats.self_times(spans)

    def span_median(metric, name, scale):
        ds = span_durations(spans, name, scale)
        if ds:
            out[metric] = stats.median(ds)

    def sample_median(metric, key, scale=1.0):
        if samples.get(key):
            out[metric] = stats.median(samples[key]) * scale

    probe = span_durations(spans, "tuning.probe", 1e-6)
    if probe:
        out["tuning.probe_s"] = sum(probe)
        out["tuning.self_s"] = sum(selfs[s["id"]] * 1e-6 for s in spans
                                   if s["name"] == "tuning.tune_precision")
    span_median("analysis.ranges_ms", "analysis.analyze_ranges", 1e-3)
    span_median("analysis.mem_proofs_ms", "analysis.mem_proofs", 1e-3)
    span_median("analysis.report_ms", "analysis.report", 1e-3)
    span_median("alloc.allocate_ms", "alloc.allocate_slices", 1e-3)
    span_median("workloads.instance_ms", "workloads.make_instance", 1e-3)
    span_median("workloads.pmap_load_ms", "workloads.load_pmap_cache", 1e-3)
    for kind in ("ssim", "deviation", "binary"):
        span_median("quality.%s_score_ms" % kind, "quality.score." + kind,
                    1e-3)
    if samples.get("exec.run_s"):
        out["exec.replay_mtinst_per_s"] = (
            sum(samples["exec.thread_insts"]) / sum(samples["exec.run_s"])
            / 1e6)
    sample_median("api.ping_us", "api.ping_us")
    sample_median("api.status_us", "api.status_us")
    sample_median("api.analyze_ms", "api.analyze_us", 1e-3)
    sample_median("api.submit_ack_ms", "api.submit_ack_ms")
    sample_median("api.queue_wait_ms", "api.queue_wait_ms")
    sample_median("api.exec_ms", "api.exec_ms")
    sample_median("api.serialize_us", "api.serialize_us")
    if samples.get("harness.late_ms"):
        t = stats.tail(samples["harness.late_ms"])
        out["harness.gen_late_ms"] = (t["value"] if t else
                                      max(samples["harness.late_ms"]))
    if workload == "serve-mixed":
        out.update(serve_metrics(rep)["metrics"])
    out["common.cpu_util"] = rep["host"]["cpu_util"]
    out["common.cpus_used"] = float(len(rep["host"]["cpus_used"]))
    out["harness.probe_ms"] = stats.median(samples["probe.wall_s"]) * 1e3
    if untraced_walls:
        out["trace.overhead_ratio"] = (rep["wall_ref_s"]
                                       / stats.median(untraced_walls))
    return out


def serve_metrics(rep):
    """Latency percentiles, rung verdicts and the highest sustained rate of
    one serve-mixed process, from its raw samples."""
    s = rep["samples"]
    ok = [v == 1.0 for v in s.get("job.ok", [])]
    due, done = s.get("job.due_s", []), s.get("job.done_s", [])
    latency, _ = stats.open_loop(due, s.get("job.sent_s", []),
                                 stats.done_or_none(done, ok))
    verdicts = [stats.rung_verdict(rate, a, b, due, done, ok,
                                   LATENCY_LIMIT_MS)
                for rate, a, b in zip(s["ladder.rate"], s["ladder.start_s"],
                                      s["ladder.end_s"])]
    ref = verdicts[REFERENCE_RUNG]
    ctl = stats.summary(s.get("ctl.latency_ms", []))
    metrics = {"serve.max_jobs_per_s": stats.max_rate(verdicts)}
    if ref["p50_ms"] is not None:
        metrics["serve.job_p50_ms"] = ref["p50_ms"]
    if ref["tail"]:
        metrics["serve.job_tail_ms"] = ref["tail"]["value"]
    if "p50" in ctl:
        metrics["serve.ctl_p50_ms"] = ctl["p50"]
    if "tail" in ctl:
        metrics["serve.ctl_tail_ms"] = ctl["tail"]["value"]
    return {"metrics": metrics, "rungs": verdicts,
            "reference_rung": REFERENCE_RUNG,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "batch": {"jobs": int(s["batch.jobs"][0]),
                      "wall_s": rep["wall_s"]},
            "job_latency_ms": stats.summary(
                [x * 1e3 for x in latency if x != float("inf")]),
            "ctl_latency_ms": ctl,
            "generator_late_ms": stats.summary(s.get("harness.late_ms", []))}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    # The contract allows only name/unit/better on a per_layer entry, so
    # where each metric applies lives in layers.json; the two must agree.
    names = {m["name"] for m in bench["per_layer"]}
    listed = set(layers) - {"_doc"}
    if names != listed:
        fail("perfbench/layers.json and BENCHMARK.json per_layer differ: "
             + ", ".join(sorted(names ^ listed)))
    return bench, layers


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bless", action="store_true")
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", "src/api/engine.hpp", "tools/gpurfd.cpp",
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not inside a gpurf checkout: %s is missing" % needed)
    os.chdir(ROOT)
    bench, layers = load_benchmark()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(build_dir, exist_ok=True)
    exe, gpurfd = build(build_dir)
    # One work directory per built program.  Relative paths keep the
    # daemon's socket path short.
    work_dir = os.path.relpath(os.path.join(
        build_dir, "work", program_digest([exe, gpurfd])))
    report_dir = os.path.join(build_dir, "reports")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(report_dir, exist_ok=True)
    driver = Driver(exe, gpurfd, work_dir, args.seed, args.seconds)

    # sim-sweep and serve-mixed start from tuned precision maps; tuning
    # them happens once per build, outside any measurement.
    if args.workload != "tune-cold":
        primed = driver.run("prime")
        if primed["failed"]:
            fail("priming the precision-map cache failed: %s"
                 % primed["failures"])

    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    spans_path = os.path.join(work_dir, tag + ".spans")
    # A fixed number of fresh driver processes per --seconds, so every
    # commit measured does the same work; a traced run alternates untraced
    # and traced processes and has at least one of each.
    count = (1 if args.workload == "serve-mixed" else
             max(1, int(args.seconds // REP_SECONDS[args.workload])))
    if args.trace:
        count = max(2, count)
    ticks0 = host_cpu_ticks()
    reps = [driver.run(args.workload, traced=bool(args.trace) and i % 2 == 1,
                       bless=args.bless, spans=spans_path)
            for i in range(count)]
    ticks1 = host_cpu_ticks()
    for r in reps:
        s = r["samples"]
        r["wall_ref_s"] = stats.ref_seconds(s["op.wall_s"],
                                            s["probe.wall_s"],
                                            PROBE_REF_WALL_S)
        r["cpu_ref_s"] = stats.ref_seconds(s["op.cpu_s"], s["probe.cpu_s"],
                                           PROBE_REF_CPU_S)
    # Share of the host's CPU time the hypervisor gave to other guests
    # while the workload ran: the noise a rerun on a quiet host would lose.
    steal = (None if not (ticks0 and ticks1) or ticks1[1] <= ticks0[1] else
             (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]))
    untraced = [r for r in reps if not r["traced"]]

    traced_reps = [r for r in reps if r["traced"]]

    setups = []
    for r in untraced:
        setups += r["samples"].get("setup_s", [r["setup_s"]])
    if args.workload != "serve-mixed":
        for _ in range(SETUP_REPS):
            setups.append(driver.run(args.workload, setup_only=True)
                          ["setup_s"])

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": {"nproc": reps[0]["host"]["nproc"],
                 "allowed_cpus": reps[0]["host"]["allowed_cpus"],
                 "cpus_used": [r["host"]["cpus_used"] for r in reps],
                 "cpu_util": [r["host"]["cpu_util"] for r in reps],
                 "steal_share": steal},
        "probe_ref_s": {"wall": PROBE_REF_WALL_S, "cpu": PROBE_REF_CPU_S},
        "runs": [{"traced": r["traced"], "wall_s": r["wall_s"],
                  "cpu_s": r["cpu_s"], "wall_ref_s": r["wall_ref_s"],
                  "cpu_ref_s": r["cpu_ref_s"],
                  "op_wall_s": r["samples"]["op.wall_s"],
                  "op_cpu_s": r["samples"]["op.cpu_s"],
                  "probe_wall_s": r["samples"]["probe.wall_s"],
                  "probe_cpu_s": r["samples"]["probe.cpu_s"],
                  "peak_rss_mb": r["peak_rss_mb"],
                  "attempted": r["attempted"], "failed": r["failed"],
                  "layers": r["layers"]} for r in reps],
        "setup_samples": setups,
        "failures": [f for r in reps for f in r["failures"]],
        "note": VALIDATION_NOTE,
    }
    if args.workload == "serve-mixed":
        report["serve"] = [serve_metrics(r) for r in untraced]

    if args.trace:
        rep = traced_reps[0]
        spans = read_spans(spans_path)
        got = per_layer(args.workload, rep, spans,
                        [r["wall_ref_s"] for r in untraced])
        trace_path = os.path.join(report_dir, tag + ".trace.json")
        with open(trace_path, "w") as f:
            json.dump(stats.chrome_trace(spans, os.getpid()), f)
        report["trace_file"] = trace_path
        metrics = {}
        missing = []
        for m in bench["per_layer"]:
            name = m["name"]
            on_path = args.workload in layers[name]["on"]
            if on_path and name not in got:
                missing.append(name)
            metrics[name] = {"value": got.get(name, 0.0) if on_path else 0.0,
                             "unit": m["unit"]}
        if missing:
            fail("traced run did not produce: " + ", ".join(missing))
    else:
        med = stats.median
        values = {"setup_s": med(setups),
                  "wall_ref_s": med([r["wall_ref_s"] for r in untraced]),
                  "cpu_ref_s": med([r["cpu_ref_s"] for r in untraced]),
                  "peak_rss_mb": med([r["peak_rss_mb"] for r in untraced])}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    report["metrics"] = metrics
    with open(os.path.join(report_dir, tag + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
