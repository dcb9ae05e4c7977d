"""One benchmark process: set up a workload, signal readiness, then measure it.

Started by run.py with PYTHONPATH pointing at the checkout's src/:

    python bench/worker.py --workload W --seed S --seconds T --mode MODE --work DIR [--spans F]

MODE is ``setup`` (set up and exit), ``measure`` (timed untraced ops) or
``trace`` (each op untraced, then the same op traced).
Protocol on stdout: the line READY once set-up (import, first input, warm-up)
is done, then one JSON line with the raw per-op samples (for MODE setup,
only the probed speed after set-up).
Anything the program prints goes to stderr.  Inputs derive from (seed, op
index) only, so the same seed replays the same op stream.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gaussgem
from gaussgem import cli, lattice
from gaussgem.graphs import GraphSpec
from tracing import Tracer, concat_spans, load_spans, missing_functions, save_spans, summarize

clock = time.perf_counter

#: Op index of the first untimed warm-up op; real ops count up from 0.
WARM_UP = 1_000_000

#: Tolerances the tests already state.
SELF_TEST_REL, SELF_TEST_ABS = 1e-8, 1e-12  # cli --self-test
ROUTE_GEM_TOL, ROUTE_METRIC_TOL = 1e-9, 1e-10  # acceptance criterion 3
FIELD_GEM_TOL, BOGOLIUBOV_TOL = 1e-9, 1e-10  # criteria 8 and 7
REDUCED_DET_TOL = 1e-10  # reduced_det_from_xy against the mode-sum bracket
LEGENDRE_TOL = 1e-9


@dataclass
class OpResult:
    latency_s: float
    units: int
    ok: bool
    digest: str
    gem_s: list = field(default_factory=list)
    error: str | None = None


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _span(rng: np.random.Generator, lo: tuple, hi: tuple) -> tuple[float, float]:
    """Range with its lower end drawn from ``lo`` and upper end from ``hi``."""
    return float(rng.uniform(*lo)), float(rng.uniform(*hi))


def _flag(bounds: tuple[float, float]) -> str:
    return f"{bounds[0]!r}:{bounds[1]!r}"


def _grid(bounds: tuple[float, float], steps: int) -> list[float]:
    lo, hi = bounds
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=SELF_TEST_REL, abs_tol=SELF_TEST_ABS)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _timed_gem(spec: GraphSpec) -> tuple[float, float]:
    """gem of a graph state by the covariance + purity route, and its time."""
    t0 = clock()
    value = gaussgem.gem_from_purity(gaussgem.graph_state_covariance(spec))
    return value, clock() - t0


def _xy_specs(x: float, y: float) -> tuple[GraphSpec, GraphSpec]:
    triangle = GraphSpec(3, ((1, 2, 1j * x), (2, 3, 1j * y), (1, 3, 1.0 + 0j)))
    path = GraphSpec(3, ((1, 2, 1j * x), (2, 3, 1j * y)))
    return triangle, path


class Workload:
    """An in-process workload; ``untraced`` wraps the benchmark's own checks."""

    rss_of = resource.RUSAGE_SELF
    untraced = staticmethod(contextlib.nullcontext)
    #: Small warm-up ops run during set-up, enough to reach every code path.
    warm_up_ops = 1
    #: Whether the ops are dominated by large BLAS products (see SpeedProbe).
    dense_probe = False

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    @contextlib.contextmanager
    def tracing(self, tracer: Tracer):
        tracer.install()
        self.untraced = tracer.paused
        try:
            yield
        finally:
            tracer.uninstall()
            del self.untraced

    def spans(self, tracer: Tracer) -> dict:
        return tracer.arrays()

    def kind(self, index: int) -> str:
        """Which of the workload's alternating op kinds op ``index`` is."""
        return "op"


class ScanGrid(Workload):
    """In-process ``cli.main``: scan2 61x61 and scan3 --family xy 41x41 in turn.

    Op: one command.  Throughput counts grid points.  The gem samples time
    the covariance + purity recomputation of checked rows.
    """

    warm_up_ops = 2  # one of each command

    def kind(self, index: int) -> str:
        return ("scan2", "scan3-xy")[index % 2]

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.out = work / "scan.csv"

    def op(self, index: int, small: bool = False) -> OpResult:
        rng = _rng(self.seed, index)
        scan2 = index % 2 == 0
        if scan2:
            steps = 5 if small else 61
            a, b = _span(rng, (-2, -1), (1, 2)), _span(rng, (-2, -1), (1, 2))
            argv = ["scan2"]
        else:
            steps = 5 if small else 41
            a, b = _span(rng, (0, 0.5), (3.5, 4)), _span(rng, (0, 0.5), (3.5, 4))
            argv = ["scan3", "--family", "xy"]
        argv += ["--re-range", _flag(a), "--im-range", _flag(b), "--steps", str(steps),
                 "--self-test", "--out", str(self.out)]
        t0 = clock()
        code = cli.main(argv)
        latency = clock() - t0
        data = self.out.read_bytes()
        with self.untraced():
            ok, gem_s = self._check(data, scan2, a, b, steps, rng)
        return OpResult(latency, steps * steps, ok and code == 0, _sha(data), gem_s)

    @staticmethod
    def _check(data, scan2, a, b, steps, rng) -> tuple[bool, list]:
        """Parse the CSV and recompute a seeded sample of rows at the --self-test tolerance."""
        lines = data.decode("utf-8").split("\n")
        header = ["re_w", "im_w", "gem", "log_gem", "logneg"] if scan2 else \
            ["x", "y", "gem_g1", "gem_g2", "ratio_g2_g1"]
        rows = [line.split(",") for line in lines[1:-1]]
        if lines[0].split(",") != header or lines[-1] != "" or len(rows) != steps * steps:
            return False, []
        ga, gb = _grid(a, steps), _grid(b, steps)
        ok, gem_s = True, []
        for idx in rng.choice(steps * steps, size=8, replace=False):
            ia, ib = divmod(int(idx), steps)
            row = [float(v) for v in rows[idx]]
            ok &= _close(row[0], ga[ia]) and _close(row[1], gb[ib])
            specs = [GraphSpec(2, ((1, 2, complex(ga[ia], gb[ib])),))] if scan2 else \
                list(_xy_specs(ga[ia], gb[ib]))
            for column, spec in enumerate(specs, start=2):
                want, seconds = _timed_gem(spec)
                gem_s.append(seconds)
                ok &= _close(row[column], want)
        return ok, gem_s


class GraphDense(Workload):
    """Random graphs, N = 96 modes, average degree 4, weights N(0, 0.3^2) + i N(0, 0.3^2).

    Op: one state through the purity route (what ``gem`` does, timed as the
    gem sample) and the three cross-check routes.
    """

    MODES, DEGREE, SIGMA = 96, 4.0, 0.3

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.pairs = np.triu_indices(self.MODES, 1)

    def spec(self, index: int) -> GraphSpec:
        rng = _rng(self.seed, index)
        keep = rng.random(self.pairs[0].size) < self.DEGREE / (self.MODES - 1)
        weights = rng.normal(0.0, self.SIGMA, size=(int(keep.sum()), 2))
        edges = zip(self.pairs[0][keep] + 1, self.pairs[1][keep] + 1, weights)
        return GraphSpec(self.MODES, tuple((int(i), int(j), complex(re, im)) for i, j, (re, im) in edges))

    def op(self, index: int, small: bool = False) -> OpResult:
        spec = self.spec(index)
        t0 = clock()
        gamma = gaussgem.graph_state_covariance(spec)
        by_purity = gaussgem.gem_from_purity(gamma)
        t1 = clock()
        by_metric = gaussgem.gem_from_metric(gamma)
        by_h = gaussgem.killing_contraction(gaussgem.metric_h(gamma))
        assembled = gaussgem.metric_from_moments(gaussgem.moments_from_covariance(gamma))
        by_moments = gaussgem.killing_contraction(assembled) - self.MODES / 8.0
        t2 = clock()
        gems = [by_purity, by_metric, by_h, by_moments]
        ok = max(abs(g - by_purity) for g in gems) < ROUTE_GEM_TOL
        if index % 4 == 0:  # entrywise metric check on every fourth state
            with self.untraced():
                direct = gaussgem.metric_g(gamma).matrix
            ok &= float(np.max(np.abs(direct - assembled.matrix))) < ROUTE_METRIC_TOL
        digest = _sha(json.dumps([repr(g) for g in gems]).encode())
        return OpResult(t2 - t0, 1, ok, digest, [t1 - t0])


class LatticeField(Workload):
    """Sweep over N = 101, 201, 401, 801, then exact vs asymptotic up to n = 10^6.

    Op: one sweep.  The gem sample is the summed time of the dense pipeline
    route (field covariance + purity) over the sweep's sizes.
    """

    SIZES = (50, 100, 200, 400)
    dense_probe = True
    LOG_NS = tuple(int(n) for n in np.unique(np.round(np.logspace(0, 6, 25)).astype(int)))

    def op(self, index: int, small: bool = False) -> OpResult:
        rng = _rng(self.seed, index)
        tau = rng.uniform(0.5, 2.0)
        mass = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        radius = tau / mass
        sizes, log_ns = (self.SIZES[:1], self.LOG_NS[:13]) if small else (self.SIZES, self.LOG_NS)
        dense, series, pipeline_s = [], [], 0.0
        t0 = clock()
        for n in sizes:
            cfg = lattice.LatticeFieldConfig(n=n, mass=mass, radius=radius)
            exact = lattice.gem_field_exact(cfg)
            tp = clock()
            pipeline = lattice.gem_field_pipeline(cfg)
            pipeline_s += clock() - tp
            b = lattice.bogoliubov_matrices(cfg)
            residual = max(lattice.bogoliubov_residuals(b).values())
            det = lattice.reduced_det_from_xy(b, 1)
            dense.append((cfg.num_modes, exact, pipeline, residual, det))
        for n in log_ns:
            cfg = lattice.LatticeFieldConfig(n=n, mass=mass, radius=radius)
            u = (2.0 * n / (math.pi * cfg.tau)) ** 2
            series.append((
                n,
                u,
                lattice.gem_field_exact(cfg),
                lattice.gem_field_asymptotic(n, cfg.tau, 0),
                lattice.complete_elliptic("K", -u),
                lattice.complete_elliptic("E", -u),
            ))
        latency = clock() - t0
        with self.untraced():
            ok = self._check(dense, series)
        digest = _sha(json.dumps([[repr(v) for v in row] for row in dense + series]).encode())
        return OpResult(latency, 1, ok, digest, [pipeline_s])

    @staticmethod
    def _check(dense, series) -> bool:
        ok = True
        for num_modes, exact, pipeline, residual, det in dense:
            ok &= abs(pipeline - exact) < FIELD_GEM_TOL and residual < BOGOLIUBOV_TOL
            # exact = (N/8)(det - 1/4) by translation invariance.
            ok &= abs(det - (8.0 * exact / num_modes + 0.25)) < REDUCED_DET_TOL
        rels = []
        for n, u, exact, asymptotic, k_neg, e_neg in series:
            if n >= 10:  # the asymptotic error shrinks monotonically from here on
                rels.append(abs(asymptotic - exact) / exact)
            # Legendre's relation E K' + E' K - K K' = pi/2 at m = u/(1+u),
            # where K(m) = sqrt(1+u) K(-u) and E(m) = E(-u)/sqrt(1+u).
            root = math.sqrt(1.0 + u)
            k_m, e_m = k_neg * root, e_neg / root
            k_c = lattice.complete_elliptic("K", 1.0 / (1.0 + u))
            e_c = lattice.complete_elliptic("E", 1.0 / (1.0 + u))
            ok &= abs(e_m * k_c + e_c * k_m - k_m * k_c - math.pi / 2.0) < LEGENDRE_TOL
        return ok and all(x >= y for x, y in zip(rels, rels[1:]))


class CliCold(Workload):
    """Sequential ``python -m gaussgem.cli`` runs cycling through four small commands.

    Op: one subprocess run; every run pays interpreter start and import.  The
    gem samples are the runs of the ``gem`` command.
    """

    rss_of = resource.RUSAGE_CHILDREN

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.traced = False
        self.span_files: list[tuple[int, Path]] = []

    def kind(self, index: int) -> str:
        return ("gem", "scan2", "scan3", "field")[index % 4]

    def argv(self, index: int) -> list[str]:
        rng = _rng(self.seed, index)
        kind = index % 4
        if kind == 0:
            pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
            edges = [
                {"i": i, "j": j, "re": float(rng.normal(0, 0.5)), "im": float(rng.normal(0, 0.5))}
                for (i, j), keep in zip(pairs, rng.random(len(pairs)) < 0.6) if keep
            ] or [{"i": 1, "j": 2, "re": 0.0, "im": 0.5}]
            path = self.work / f"spec-{index}.json"
            path.write_text(json.dumps({"modes": 4, "edges": edges}), encoding="utf-8")
            return ["gem", str(path)]
        if kind == 1:
            a, b = _span(rng, (-2, -1), (1, 2)), _span(rng, (-2, -1), (1, 2))
            return ["scan2", "--re-range", _flag(a), "--im-range", _flag(b), "--steps", "5"]
        if kind == 2:
            a, b = _span(rng, (-1.5, -0.5), (0.5, 1.5)), _span(rng, (-1.5, -0.5), (0.5, 1.5))
            return ["scan3", "--family", "equal", "--re-range", _flag(a), "--im-range", _flag(b),
                    "--steps", "21"]
        mass = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        radius = rng.uniform(0.5, 2.0) / mass
        return ["field", "--n-list", "1,10,100", "--mass", repr(mass), "--radius", repr(radius),
                "--self-test"]

    def op(self, index: int, small: bool = False) -> OpResult:
        argv = self.argv(index)
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            want_code = cli.main(argv)
        if self.traced:
            spans = self.work / f"spans-{index}.npz"
            self.span_files.append((index, spans))
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "gaussgem.cli", *argv]
        t0 = clock()
        proc = subprocess.run(cmd, capture_output=True, cwd=self.work, timeout=60)
        latency = clock() - t0
        ok = proc.returncode == 0 and want_code == 0 and proc.stdout == sink_out.getvalue().encode()
        return OpResult(latency, 1, ok, _sha(proc.stdout), [latency] if index % 4 == 0 else [])

    @contextlib.contextmanager
    def tracing(self, tracer: Tracer):
        self.traced = True
        try:
            yield
        finally:
            self.traced = False

    def spans(self, tracer: Tracer) -> dict:
        parts = []
        for index, path in self.span_files:
            part = load_spans(path)
            part["op"] = np.full_like(part["op"], index)
            parts.append(part)
        return concat_spans(parts)


WORKLOADS = {
    "scan-grid": ScanGrid,
    "graph-dense": GraphDense,
    "lattice-field": LatticeField,
    "cli-cold": CliCold,
}


def run_op(workload: Workload, index: int) -> OpResult:
    try:
        return workload.op(index)
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        return OpResult(math.nan, 0, False, "", error=f"{type(exc).__name__}: {exc}")


class SpeedProbe:
    """Fixed work without gaussgem whose time tracks the CPU's current speed.

    The shared host's speed swings by up to half within minutes.  Probes taken
    between ops let run.py put every timing on one reference speed.  A call
    returns the speed: the probe's reference time over its measured time.
    The dense probe, one 801x801 matrix product, tracks BLAS-bound ops; the
    default mixes interpreter loops, 6x6 array calls and 200x200 products.
    """

    def __init__(self, dense: bool):
        rng = np.random.default_rng(0)
        self.dense = dense
        self.reference_s = 0.020 if dense else 0.005
        self.small = rng.normal(size=(6, 6))
        self.matrix = rng.normal(size=(801, 801) if dense else (200, 200))

    def __call__(self) -> float:
        t0 = clock()
        if self.dense:
            self.matrix @ self.matrix
        else:
            total = 0
            for i in range(20000):
                total += i * i % 7
            {i: str(i) for i in range(5000)}
            for _ in range(300):
                np.linalg.det(self.small @ self.small)
            for _ in range(3):
                self.matrix @ self.matrix
        return self.reference_s / (clock() - t0)


def run_timed(workload: Workload, seconds: float, probe: SpeedProbe) -> tuple[list, list]:
    """Closed loop: op i+1 starts when op i is done; at least one op.

    Returns the ops and the probed speeds around them (one more than ops).
    """
    results, probes = [], [probe()]
    deadline = clock() + seconds
    while not results or clock() < deadline:
        results.append(run_op(workload, len(results)))
        probes.append(probe())
    return results, probes


def run_traced(workload: Workload, seconds: float, tracer: Tracer) -> tuple[list, list]:
    """Each op untraced, then again traced; pairing keeps drift out of the overhead."""
    untraced, traced = [], []
    deadline = clock() + seconds
    while not traced or clock() < deadline:
        index = len(traced)
        untraced.append(run_op(workload, index))
        tracer.op_id = index
        with workload.tracing(tracer):
            traced.append(run_op(workload, index))
    return untraced, traced


def blas_provenance() -> dict:
    """BLAS name and configured thread count of the BLAS numpy links."""
    info = {"blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            cdll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(cdll, symbol, None)
            if getter is not None:
                info["blas_threads"] = int(getter())
                return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    proto, sys.stdout = sys.stdout, sys.stderr

    workload = WORKLOADS[args.workload](args.seed, args.work)
    for index in range(WARM_UP, WARM_UP + workload.warm_up_ops):
        warm = workload.op(index, small=True)
        if not warm.ok:
            print(f"warm-up op failed: {warm}", file=sys.stderr)
            return 1
    proto.write("READY\n")
    proto.flush()
    probe = SpeedProbe(workload.dense_probe)
    if args.mode == "setup":
        proto.write(json.dumps({"speed": statistics.median(probe() for _ in range(5))}) + "\n")
        return 0

    report = {"gaussgem_file": gaussgem.__file__, "numpy": np.__version__}
    report["scipy"] = sys.modules["scipy"].__version__ if "scipy" in sys.modules else None
    report.update(blas_provenance())
    if args.mode == "measure":
        results, report["speed"] = run_timed(workload, args.seconds, probe)
        indices = list(range(len(results)))
        report["peak_rss_kb"] = resource.getrusage(workload.rss_of).ru_maxrss
    else:
        tracer = Tracer()
        untraced, traced = run_traced(workload, args.seconds, tracer)
        spans = workload.spans(tracer)
        if args.spans is not None:
            save_spans(args.spans, spans)
        report["per_layer"] = summarize(spans, len(traced))
        report["missing"] = missing_functions()
        report["traced_ops"] = len(traced)
        report["untraced_s"] = sum(r.latency_s for r in untraced if r.ok)
        report["traced_s"] = sum(r.latency_s for r in traced if r.ok)
        results = untraced + traced
        indices = list(range(len(traced))) * 2
    report["kind"] = [workload.kind(i) for i in indices]
    report["ok"] = [r.ok for r in results]
    report["latency_s"] = [r.latency_s for r in results]
    report["units"] = [r.units for r in results]
    report["gem_s"] = [r.gem_s for r in results]
    report["attempted"] = len(results)
    report["failed"] = sum(not r.ok for r in results)
    report["errors"] = [r.error for r in results if r.error][:5]
    report["digests"] = [r.digest for r in results]
    proto.write(json.dumps(report) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
