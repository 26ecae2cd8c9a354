#!/usr/bin/env python3
"""qauthlab benchmark: wall-clock time per verified report.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload uc-s3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in its own process as a closed loop with one client: the
job list (see ``workloads.py``) runs back to back, pass after pass, until the
next pass would end past ``--seconds``; at least one pass always runs. Every
job's report goes through the correctness gate (``gate.py``). Job times are
calibrated to a speed probe run between jobs (``speed.py``).

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it wraps each layer's entry points (``tracer.py``), runs untraced and traced
passes for half the time each, and prints the per-layer metrics, including the
tracing overhead. The last line of output is one JSON object with the keys
correct, attempted, failed and metrics. Results, the environment and, when
traced, all spans are also written under ``perfbench-out/``.
"""

from __future__ import annotations

import os
import sys

# fixed before numpy loads: one BLAS thread, and no process pool, whose
# scheduling-dependent last float bit would break the reference comparison
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QAUTHLAB_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from speed import calibrate, probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / "perfbench-out"
REFERENCE_DIR = HERE / "reference"
SETUP_SAMPLES = 9
TAIL_BEYOND = 10

# the metric names and units, in the order they are printed
_CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in _CATALOGUE["end_to_end"]]
# per-layer metrics cover the traced passes, normalised to one pass, except
# codes.encoding_unitary.* and approx_psqa.sample_cipher.s, which cover set-up
PER_LAYER = [(m["name"], m["unit"]) for m in _CATALOGUE["per_layer"]]


def import_program():
    """Import qauthlab from ``src/`` of this checkout, and nowhere else."""
    package = ROOT / "src" / "qauthlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no qauthlab sources under {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import qauthlab

    if Path(qauthlab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"qauthlab imported from {qauthlab.__file__}, not from {package}")
    return qauthlab


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # the layout of numpy's build report differs by version
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def load_references(workload: str, seed: int, jobs) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path) as fh:
        stored = json.load(fh)
    reports = stored["reports"]
    missing = [job.name for job in jobs if job.name not in reports]
    if missing:
        raise SystemExit(f"{path} has no reference for {missing}")
    return {
        job.name: reports[job.name]
        for job in jobs
        if not job.seed_dependent or seed == stored["seed"]
    }


def run_pass(jobs, refs, tracer=None, job_base=0):
    """Run the job list once; (calibrated job seconds, raw job seconds, probes, failures)."""
    probes, raw, failures = [probe()], [], []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = job_base + i
        t0 = perf_counter()
        try:
            code, report = job.run()
        except Exception:
            code, report = None, None
            failures.append((job.name, [traceback.format_exc(limit=3)]))
        raw.append(perf_counter() - t0)
        probes.append(probe())
        if code is not None:
            problems = gate.check(job, code, report, refs.get(job.name))
            if problems:
                failures.append((job.name, problems[:5]))
    return calibrate(raw, probes), raw, probes, failures


def timed_passes(jobs, refs, seconds, tracer=None, first_pass=0):
    """Passes until the next one would end past ``seconds``; at least one.
    Returns (calibrated job seconds per pass, raw ones and probes per pass, failures)."""
    passes, raw_passes, failures = [], [], []
    begin = perf_counter()
    while True:
        base = (first_pass + len(passes)) * len(jobs)
        times, raw, probes, fails = run_pass(jobs, refs, tracer, base)
        passes.append(times)
        raw_passes.append({"job_s": raw, "probe_s": probes})
        failures += fails
        elapsed = perf_counter() - begin
        if elapsed + elapsed / len(passes) > seconds:
            return passes, raw_passes, failures


def tail(times: list[float]) -> float:
    """The highest order statistic with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def measure_setup(workload: str, seed: int) -> tuple[list[float], dict]:
    """Calibrated seconds from spawning a fresh process to the end of its
    set-up; and the raw seconds and probes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    probes, raw = [probe()], []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        raw.append(perf_counter() - t0)
        probes.append(probe())
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
    return calibrate(raw, probes), {"job_s": raw, "probe_s": probes}


def end_to_end(workload, seed, seconds, jobs, refs):
    setup, raw_setup = measure_setup(workload, seed)
    passes, raw, failures = timed_passes(jobs, refs, seconds)
    metrics = {
        "wall_s": statistics.median(sum(p) for p in passes),
        "job_s_p50": statistics.median(statistics.median(p) for p in passes),
        "job_s_tail": statistics.median(tail(p) for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"setup_samples_s": setup, "raw_setup": raw_setup, "pass_job_s": passes,
              "raw_passes": raw, "raw_wall_s": statistics.median(sum(p["job_s"]) for p in raw)}
    return metrics, passes, failures, detail


def per_layer(workload, seed, seconds, refs_for):
    from tracer import PROTOCOL_RUNS, SETUP_JOB, Tracer

    tracer = Tracer()
    tracer.install()
    jobs = workloads.make_jobs(workload, seed)
    tracer.uninstall()
    refs = refs_for(jobs)
    plain, _, failures = timed_passes(jobs, refs, seconds / 2)
    tracer.install()
    traced, _, fails = timed_passes(jobs, refs, seconds / 2, tracer, first_pass=len(plain))
    tracer.uninstall()
    failures += fails

    n_pass, n_job = len(traced), len(jobs)
    ids = range(len(plain) * n_job, (len(plain) + n_pass) * n_job)
    table = tracer.span_table(ids)
    setup_table = tracer.span_table([SETUP_JOB])

    def span(name, key, source=table, per=n_pass):
        return source.get(name, {}).get(key, 0.0) / per

    def group(prefix, key):
        return sum(v[key] for k, v in table.items() if k.startswith(prefix)) / n_pass

    protocol_calls = sum(span(name, "calls") for name in PROTOCOL_RUNS)
    verify_s = span("codes.verify_ptc", "s")
    paulis = tracer.counter("codes.paulis_checked", ids) / n_pass
    metrics = {
        "protocols.useful_run_ratio": (
            tracer.useful_runs(ids) / n_pass / protocol_calls if protocol_calls else 0.0
        ),
        "hybrid.HybridState.calls": tracer.counter("hybrid.HybridState.calls", ids) / n_pass,
        "hybrid.ops.calls": group("hybrid.ops.", "calls"),
        "hybrid.ops.self_s": group("hybrid.ops.", "self_s"),
        "hybrid.branches_finalized": tracer.counter("hybrid.branches_finalized", ids) / n_pass,
        "hybrid.max_vector_dim": tracer.maximum("hybrid.max_vector_dim", ids),
        "codes.encoding_unitary.calls": span("codes.encoding_unitary", "calls", setup_table, 1),
        "codes.encoding_unitary.s": span("codes.encoding_unitary", "s", setup_table, 1),
        "codes.paulis_checked": paulis,
        "codes.paulis_per_s": paulis / verify_s if verify_s else 0.0,
        "approx_psqa.sample_cipher.s": span("approx_psqa.sample_cipher", "s", setup_table, 1),
        "trace_overhead_s": statistics.median(sum(p) for p in traced)
        - statistics.median(sum(p) for p in plain),
    }
    for name, _ in PER_LAYER:
        if name not in metrics and not name.endswith(".per_job"):
            base, _, key = name.rpartition(".")
            metrics[name] = span(base, key)
    for name, _ in PER_LAYER:
        if name.endswith(".per_job"):
            metrics[name] = metrics[name.removesuffix(".per_job")] / n_job
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
    detail = {"untraced_pass_job_s": plain, "traced_pass_job_s": traced,
              "spans": table}
    return metrics, plain + traced, failures, detail, jobs


def pin_to_one_cpu() -> int:
    """Keep this process and the set-up processes it spawns on one CPU, the
    one the speed probes measure: on a shared host each CPU's speed drifts on
    its own."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(args) -> int:
    qauthlab = import_program()
    if args.setup_only:
        workloads.make_jobs(args.workload, args.seed)
        return 0
    env = environment(args.seed)
    env["qauthlab"] = qauthlab.__version__
    env["pinned_cpu"] = pin_to_one_cpu()
    if args.write_reference:
        return write_reference(args)

    def refs_for(jobs):
        return load_references(args.workload, args.seed, jobs)

    if args.trace:
        metrics, passes, failures, detail, jobs = per_layer(
            args.workload, args.seed, args.seconds, refs_for
        )
        catalogue = PER_LAYER
    else:
        jobs = workloads.make_jobs(args.workload, args.seed)
        metrics, passes, failures, detail = end_to_end(
            args.workload, args.seed, args.seconds, jobs, refs_for(jobs)
        )
        catalogue = END_TO_END

    # negative control: the gate must reject a report one step off its reference
    stored = json.loads((REFERENCE_DIR / f"{args.workload}.json").read_text())["reports"]
    control = gate.negative_control(jobs, stored)
    control_ok = all(caught for _, caught in control.values())

    attempted = sum(len(p) for p in passes)
    failed = len(failures)
    result = {
        "correct": failed == 0 and control_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in catalogue},
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs {attempted} ({len(jobs)} per pass)")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print("gate negative control: " + ", ".join(
        f"{label} on {job} {'caught' if caught else 'MISSED'}"
        for label, (job, caught) in control.items()))
    for name, problems in failures[:10]:
        print(f"FAILED {name}: {problems}")
    for name, unit in catalogue:
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<40} {failed / attempted:>14.6g} ({failed}/{attempted} jobs)")
    if not args.trace:
        print(f"  (timings are calibrated seconds, medians over passes; raw wall_s "
              f"{detail['raw_wall_s']:.6g} s; job_s_tail is order statistic "
              f"{len(jobs) - TAIL_BEYOND} of {len(jobs)} per pass)")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "env": env, "seconds": args.seconds,
              "trace": args.trace, "result": result, "negative_control": control,
              "failures": failures, "jobs": [job.name for job in jobs], **detail}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


def write_reference(args) -> int:
    """Record every job's report at the default seed as the stored reference."""
    if args.seed != workloads.DEFAULT_SEED:
        raise SystemExit(f"references are recorded at seed {workloads.DEFAULT_SEED}")
    jobs = workloads.make_jobs(args.workload, args.seed)
    reports = {}
    for job in jobs:
        code, report = job.run()
        problems = gate.check(job, code, report, None)
        if problems:
            raise SystemExit(f"{job.name} fails its own checks: {problems}")
        reports[job.name] = report
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps({"seed": args.seed, "reports": reports}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} references to {path.relative_to(ROOT)}")
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the reports of one pass at the default seed")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
