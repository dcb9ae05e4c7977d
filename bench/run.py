"""gaussgem benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs it traced and reports the per-layer metrics (see
bench/README.md).  Every metric is printed by name and unit, a full report
with provenance and output digests goes to .bench-out/, and the last line of
stdout is the result as one JSON object.  Exit status is non-zero, with no
result printed, when the package or a worker cannot be run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("scan-grid", "graph-dense", "lattice-field", "cli-cold")

#: Fresh-process set-ups per timed run; setup_s is their median.
SETUP_RUNS = 5
#: Child runs per startup.* figure; each figure is their median.
STARTUP_RUNS = 5
#: A run ends, killing what is left, this long after it starts.
RUN_LIMIT_S = 170.0
#: Probes taken on each side of an op whose median speed sets its scale.
PROBE_WINDOW = 5
#: latency_ms_tail leaves this many samples beyond it.
TAIL_BEYOND = 10

#: Throughput unit per workload, for the printed report.
OP_UNITS = {
    "scan-grid": "grid points/s",
    "graph-dense": "states/s",
    "lattice-field": "sweeps/s",
    "cli-cold": "runs/s",
}


class BenchError(Exception):
    """The benchmark could not run the workload."""


def child_env() -> dict:
    """Environment for every child: the checkout's src/ first, one BLAS thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread keeps a shared 2-core machine's noise out of the timings.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def pin_to_one_cpu() -> int:
    """Keep this process and every child on one CPU.

    The workloads are single-threaded, and the speed probe only tracks the
    speed of the CPU the ops run on when both share it.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Watchdog:
    """Runs children with the time left before the run's limit; kills them at it."""

    def __init__(self, limit_s: float):
        self.deadline = time.monotonic() + limit_s

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def run(self, cmd: list[str], env: dict) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{cmd[1:3]} did not finish in time") from exc

    def worker(self, env: dict, args: list[str]) -> tuple[float, dict]:
        """Start a worker; return its set-up time (spawn to READY) and its result."""
        cmd = [sys.executable, str(BENCH / "worker.py"), *args]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(self.remaining(), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if ready.strip() != "READY" or code != 0:
            raise BenchError(f"worker {' '.join(args[:4])} exited with code {code}")
        return setup_s, json.loads(rest)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples beyond it.

    The rank moves by one per sample, so the figure has no jumps as the
    sample count varies between runs; with too few samples it is the maximum.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return 100.0 * rank / n, ordered[rank - 1]


def p50_by_kind(samples: list[tuple[str, float]]) -> float:
    """Mean over op kinds of each kind's median.

    Ops of different kinds (scan-grid alternates two commands) form separate
    clusters; a median over all of them would jump between the clusters with
    the parity of the op count.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, value in samples:
        by_kind.setdefault(kind, []).append(value)
    return statistics.fmean(statistics.median(values) for values in by_kind.values())


def end_to_end(workload: str, setups: list[tuple[float, float]], raw: dict) -> tuple[dict, dict, dict]:
    """End-to-end metrics, every timing scaled to the reference machine speed.

    An op's times are multiplied by the median speed (worker.SpeedProbe) probed
    around it, PROBE_WINDOW probes on each side; a set-up time by the speed
    its worker probed right after set-up.  Returns the metrics, summary
    figures for the report (unscaled ones among them) and the per-op samples.
    """
    speeds = raw["speed"]
    ok = [i for i, good in enumerate(raw["ok"]) if good]
    if not ok:
        raise BenchError("no op succeeded, so no latency can be reported")
    scale = [
        statistics.median(speeds[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW])
        for i in range(len(raw["ok"]))
    ]
    kinds = raw["kind"]
    lat = [raw["latency_s"][i] * scale[i] for i in ok]
    gem = [(kinds[i], g * scale[i]) for i in ok for g in raw["gem_s"][i]]
    setup = [s * speed for s, speed in setups]
    tail_p, tail_s = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput": sum(raw["units"][i] for i in ok) / sum(lat),
        "latency_ms_p50": p50_by_kind(zip((kinds[i] for i in ok), lat)) * 1e3,
        "latency_ms_tail": tail_s * 1e3,
        "gem_ms_p50": p50_by_kind(gem) * 1e3,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    raw_lat = [raw["latency_s"][i] for i in ok]
    extra = {
        "failed_frac": raw["failed"] / raw["attempted"],
        "throughput_unit": OP_UNITS[workload],
        "latency_samples": len(lat),
        "latency_tail_percentile": tail_p,
        "gem_samples": len(gem),
        "speed_scale_median": statistics.median(scale),
        "unscaled_setup_s": statistics.median(s for s, _ in setups),
        "unscaled_throughput": sum(raw["units"][i] for i in ok) / sum(raw_lat),
        "unscaled_latency_ms_p50": p50_by_kind(zip((kinds[i] for i in ok), raw_lat)) * 1e3,
        "unscaled_gem_ms_p50": p50_by_kind((kinds[i], g) for i in ok for g in raw["gem_s"][i]) * 1e3,
    }
    samples = {"kind": [kinds[i] for i in ok], "latency_ms": [x * 1e3 for x in lat],
               "scale": [scale[i] for i in ok]}
    return metrics, extra, samples


def importtime_cumulative_us(stderr: str) -> dict:
    """Cumulative microseconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            out.setdefault(fields[2].strip(), int(fields[1]))
    return out


def startup(watchdog: Watchdog, env: dict) -> dict:
    """Interpreter start, ``import gaussgem`` and its scipy.linalg share, in child processes."""
    interp, imp, scipy_linalg = [], [], []
    for _ in range(STARTUP_RUNS):
        t0 = time.perf_counter()
        watchdog.run([sys.executable, "-c", "pass"], env)
        interp.append((time.perf_counter() - t0) * 1e3)
        proc = watchdog.run([sys.executable, "-X", "importtime", "-c", "import gaussgem"], env)
        if proc.returncode != 0:
            raise BenchError(f"import gaussgem failed: {proc.stderr.strip()[-400:]}")
        cumulative = importtime_cumulative_us(proc.stderr)
        imp.append(cumulative["gaussgem"] / 1e3)
        scipy_linalg.append(cumulative.get("scipy.linalg", 0) / 1e3)
    return {
        "startup.interpreter_ms": statistics.median(interp),
        "startup.import_ms": statistics.median(imp),
        "startup.scipy_linalg_ms": statistics.median(scipy_linalg),
    }


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def provenance(args, load1: float, cpu: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_1min_at_start": load1,
    }


def run(args) -> dict:
    if not (ROOT / "src" / "gaussgem" / "__init__.py").is_file():
        raise BenchError(f"no gaussgem package under {ROOT / 'src'}; run from a full checkout")
    units = declared_units(args.trace)
    watchdog = Watchdog(RUN_LIMIT_S)
    load1 = os.getloadavg()[0]
    cpu = pin_to_one_cpu()
    compileall.compile_dir(ROOT / "src", quiet=2)
    env = child_env()
    out_dir = ROOT / ".bench-out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"provenance": provenance(args, load1, cpu)}
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        base = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--work", work]
        if args.trace:
            _, raw = watchdog.worker(env, base + ["--mode", "trace",
                                                  "--spans", str(out_dir / f"{stem}-spans.npz")])
            metrics = dict(raw.pop("per_layer"))
            metrics.update(startup(watchdog, env))
            ops = raw["traced_ops"]
            overhead_s = raw["traced_s"] - raw["untraced_s"]
            metrics["trace.ops"] = ops
            metrics["trace.overhead_ms_per_op"] = overhead_s * 1e3 / ops
            metrics["trace.overhead_pct"] = 100.0 * overhead_s / raw["untraced_s"]
            report["extra"] = {"failed_frac": raw["failed"] / raw["attempted"],
                               "missing_functions": raw.pop("missing")}
        else:
            setups = []
            for _ in range(SETUP_RUNS - 1):
                setup_s, probed = watchdog.worker(env, base + ["--mode", "setup"])
                setups.append((setup_s, probed["speed"]))
            setup_s, raw = watchdog.worker(env, base + ["--mode", "measure"])
            setups.append((setup_s, statistics.median(raw["speed"][:PROBE_WINDOW])))
            metrics, report["extra"], report["samples"] = end_to_end(args.workload, setups, raw)
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    report["metrics"] = {name: (metrics[name], unit) for name, unit in units.items()}
    prov = report["provenance"]
    prov.update({k: raw[k] for k in ("gaussgem_file", "numpy", "scipy", "blas", "blas_threads")})
    prov["blas_threads_within_nproc"] = prov["blas_threads"] is None or prov["blas_threads"] <= prov["nproc"]
    report.update({k: raw[k] for k in ("attempted", "failed", "errors", "digests")})
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    report["path"] = out_dir / f"{stem}.json"
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        report = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    prov = report["provenance"]
    print(f"gaussgem benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']} "
          f"scipy={prov['scipy']} blas={prov['blas']} blas_threads={prov['blas_threads']} "
          f"load1={prov['loadavg_1min_at_start']:.2f} commit={prov['git_commit']}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, value in report["extra"].items():
        print(f"  {name:<44} {value}")
    print(f"  ops attempted={report['attempted']} failed={report['failed']} "
          f"errors={report['errors']}")
    print(f"  report: {report['path'].relative_to(ROOT)}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
