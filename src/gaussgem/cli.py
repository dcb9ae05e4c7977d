"""Command-line front end.

Subcommands:
    gem    -- measure of a single graph state from a JSON spec file
    scan2  -- two-mode complex-weight grid as CSV
    scan3  -- three-mode topology comparison grids as CSV
    field  -- lattice field scaling run as CSV plus coefficient summary

Graph JSON format (1-indexed modes, matching the usual figure labels):

    {"modes": 3, "edges": [{"i": 1, "j": 2, "re": 0.0, "im": 1.0}, ...]}

CSV is emitted with an LF-terminated header row, one row per grid point in
grid order, floats at 9 significant digits, "nan"/"-inf" sentinels for
undefined ratios and logs of zero.  Exit codes: 0 success, 2 input error
(including an unwritable --out), 3 numerical or physical error.

Each command computes its whole result and runs its --self-test before
returning the text; ``main`` then writes it through ``_write``.  A command
that fails therefore writes nothing and leaves an existing --out untouched.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import lattice
from .errors import GaussGemError, InvalidArgumentError
from .graphs import (
    GraphSpec,
    PolarCoupling,
    gem_three_mode_g1,
    gem_three_mode_g2,
    gem_two_mode_closed,
    graph_state_covariance,
    graph_state_covariances,
    log_negativity_two_mode,
)
from .measure import gem_from_metric, gem_from_purity, mode_purities

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

THREE_MODE_TRIANGLE = ((1, 2), (2, 3), (1, 3))
THREE_MODE_PATH = ((1, 2), (2, 3))


def _log_or_neginf(x: float) -> float:
    return math.log(x) if x > 0.0 else float("-inf")


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidArgumentError(f"range must look like a:b, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise InvalidArgumentError(f"non-numeric range bound in {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidArgumentError(f"range bounds must be finite, got {text!r}")
    return lo, hi


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 2:
        raise InvalidArgumentError(f"steps must be >= 2, got {steps}")
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def _load_graph_spec(path: str) -> GraphSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict) or "modes" not in doc:
        raise InvalidArgumentError(f"{path}: top level must be an object with a 'modes' field")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise InvalidArgumentError(f"{path}: 'edges' must be a list")
    triples = []
    for entry in edges:
        if not isinstance(entry, dict) or not {"i", "j"} <= set(entry):
            raise InvalidArgumentError(f"{path}: each edge needs 'i' and 'j' fields, got {entry!r}")
        try:
            weight = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
        except (TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"{path}: edge weights must be numeric, got {entry!r}") from exc
        triples.append((entry["i"], entry["j"], weight))
    return GraphSpec(doc["modes"], tuple(triples))


def _csv(header: list[str], rows) -> str:
    """CSV text: the header line, then one line per row tuple of floats at 9 significant digits.

    Python already prints non-finite floats as the sentinels nan, inf and -inf.
    """
    line = ",".join(["%.9g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join([line % row for row in rows])


def _write(document: str, summary: str, out_path: str | None) -> None:
    """The CLI's one output path: ``document`` to ``out_path`` or stdout, ``summary`` to the other.

    ``out_path`` is opened only here, after the command has finished; an
    unwritable path is an input error.
    """
    if not out_path:
        sys.stdout.write(document)
        sys.stderr.write(summary)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(document)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {out_path}: {exc}") from exc
    sys.stdout.write(summary)


def _self_test(column, reference, label: str) -> None:
    """Check every row of ``column`` against ``reference``, the same rows by an independent route.

    A row passes when math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-12)
    holds.  A None entry of ``reference`` marks a row that route does not
    cover; it is skipped rather than trivially compared.
    """
    want = np.asarray(reference)
    rows = np.flatnonzero(want != None)  # noqa: E711 -- elementwise: the rows the route covers
    got, want = np.asarray(column, dtype=float)[rows], want[rows].astype(float)
    # math.isclose on whole columns: equal values pass, an infinite difference never does.
    with np.errstate(invalid="ignore"):  # inf - inf
        diff = np.abs(got - want)
    bound = np.maximum(1e-8 * np.maximum(np.abs(got), np.abs(want)), 1e-12)
    close = (got == want) | (np.isfinite(diff) & (diff <= bound))
    if not close.all():
        k = np.argmin(close)
        raise GaussGemError(
            f"self-test failed for {label} at row {rows[k]}: "
            f"column {float(got[k])!r} vs library {float(want[k])!r}"
        )


def cmd_gem(args) -> tuple[str, str]:
    spec = _load_graph_spec(args.spec)
    gamma = graph_state_covariance(spec)
    purities = mode_purities(gamma)
    report = {"modes": spec.num_modes, "purities": purities}
    if args.measure == "gem":
        report["gem"] = gem_from_purity(gamma)
    else:
        if spec.num_modes != 2:
            raise InvalidArgumentError("logneg is defined here for two-mode states only")
        report["logneg"] = log_negativity_two_mode(gamma)
    return json.dumps(report, sort_keys=True) + "\n", ""


def _scan_grid(args) -> np.ndarray:
    """The scan's grid points a + ib as one complex array; a (from --re-range) varies slowest."""
    ranges = [_parse_range(args.re_range), _parse_range(args.im_range)]
    a_grid, b_grid = (_grid(lo, hi, args.steps) for lo, hi in ranges)
    return np.array([complex(a, b) for a in a_grid for b in b_grid])


def cmd_scan2(args) -> tuple[str, str]:
    points = _scan_grid(args)
    covs = graph_state_covariances(2, ((1, 2),), points[:, None])
    lognegs = log_negativity_two_mode(covs).tolist()
    gems = [gem_two_mode_closed(PolarCoupling.from_complex(w)) for w in points.tolist()]
    if args.self_test:
        _self_test(gems, gem_from_purity(covs), "scan2 gem")
    rows = [(w.real, w.imag, gem, _log_or_neginf(gem), logneg)
            for w, gem, logneg in zip(points.tolist(), gems, lognegs)]
    return _csv(["re_w", "im_w", "gem", "log_gem", "logneg"], rows), ""


def cmd_scan3(args) -> tuple[str, str]:
    """Triangle (g1) against path (g2) on one weight array; the path carries its first two weights.

    ``equal`` puts w = a + ib on every edge and takes the closed forms, checked
    against the purity pipeline.  ``xy`` puts (i x, i y, 1) on edges (12, 23, 13)
    and takes the purity pipeline, checked against the metric route.
    """
    points = _scan_grid(args)
    topologies = (THREE_MODE_TRIANGLE, THREE_MODE_PATH)
    if args.family == "equal":
        weights = np.repeat(points[:, None], 3, axis=1)
        couplings = [PolarCoupling.from_complex(w) for w in points.tolist()]
        columns = [[gem(c) for c in couplings] for gem in (gem_three_mode_g1, gem_three_mode_g2)]
    else:
        weights = np.column_stack([1j * points.real, 1j * points.imag, np.ones(points.size)])
        stacks = [graph_state_covariances(3, pairs, weights[:, : len(pairs)]) for pairs in topologies]
        columns = [gem_from_purity(stack).tolist() for stack in stacks]
    if args.self_test:
        for col, pairs in enumerate(topologies):
            if args.family == "equal":
                reference = gem_from_purity(graph_state_covariances(3, pairs, weights[:, : len(pairs)]))
            else:
                reference = gem_from_metric(stacks[col])
            _self_test(columns[col], reference, f"scan3 gem_g{col + 1}")
    rows = [(w.real, w.imag, g1, g2, g2 / g1 if g1 > 0.0 else float("nan"))
            for w, g1, g2 in zip(points.tolist(), *columns)]
    header = ["re_w", "im_w"] if args.family == "equal" else ["x", "y"]
    return _csv(header + ["gem_g1", "gem_g2", "ratio_g2_g1"], rows), ""


def cmd_field(args) -> tuple[str, str]:
    if args.n_list is not None:
        ns = _parse_int_list(args.n_list, "n-list")
        configs = [lattice.LatticeFieldConfig(n=n, mass=args.mass, radius=args.radius) for n in ns]
    else:
        modes = _parse_int_list(args.modes_list, "modes-list")
        configs = [
            lattice.LatticeFieldConfig.from_modes(N, mass=args.mass, radius=args.radius) for N in modes
        ]
    tau = configs[0].tau if configs else args.mass * args.radius
    coeffs = lattice.asymptotic_coefficients(tau, args.asymptotic_p)
    rows = []
    for cfg in configs:
        exact = lattice.gem_field_exact(cfg)
        asym = lattice.gem_field_asymptotic(cfg.n, cfg.tau, args.asymptotic_p) if cfg.n >= 1 else float("nan")
        rel = abs(asym - exact) / abs(exact) if exact != 0.0 and not math.isnan(asym) else float("nan")
        rows.append((float(cfg.n), exact, asym, rel))
    if args.self_test:
        # The dense pipeline route is only sensible up to a few hundred
        # sites; larger rows have no independent check and are skipped.
        pipeline = [lattice.gem_field_pipeline(cfg) if cfg.num_modes <= 401 else None for cfg in configs]
        _self_test([row[1] for row in rows], pipeline, "field gem_exact")
    summary = (
        f"# asymptotic coefficients (p={coeffs.p}, tau={coeffs.tau:.9g})\n"
        f"# kappa1 = {coeffs.kappa1:.9g}\n"
        f"# kappa2 = {coeffs.kappa2:.9g}\n"
        f"# kappa3 = {coeffs.kappa3:.9g}\n"
        f"# kappa4 = {coeffs.kappa4:.9g}\n"
    )
    return _csv(["n", "gem_exact", "gem_asymptotic", "rel_error"], rows), summary


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InvalidArgumentError(f"--{flag} must be comma-separated integers, got {text!r}") from exc
    if not values:
        raise InvalidArgumentError(f"--{flag} is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussgem",
        description="Entanglement measure for multimode pure Gaussian states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gem = sub.add_parser("gem", help="measure of a single graph state (JSON report)")
    p_gem.add_argument("spec", help="path to a graph JSON file")
    p_gem.add_argument("--measure", choices=("gem", "logneg"), default="gem")
    p_gem.set_defaults(func=cmd_gem, out=None)

    p_scan2 = sub.add_parser("scan2", help="two-mode complex-weight grid (CSV)")
    p_scan2.add_argument("--re-range", required=True, help="a:b range of Re(w)")
    p_scan2.add_argument("--im-range", required=True, help="a:b range of Im(w)")
    p_scan2.add_argument("--steps", type=int, required=True, help="grid points per axis (>= 2)")
    p_scan2.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_scan2.add_argument("--self-test", action="store_true", help="spot-check rows against the library")
    p_scan2.set_defaults(func=cmd_scan2)

    p_scan3 = sub.add_parser("scan3", help="three-mode topology comparison (CSV)")
    p_scan3.add_argument("--family", choices=("equal", "xy"), required=True)
    p_scan3.add_argument("--re-range", required=True,
                         help="a:b range of Re(w) (equal family) or x (xy family)")
    p_scan3.add_argument("--im-range", required=True,
                         help="a:b range of Im(w) (equal family) or y (xy family)")
    p_scan3.add_argument("--steps", type=int, required=True)
    p_scan3.add_argument("--out", default=None)
    p_scan3.add_argument("--self-test", action="store_true")
    p_scan3.set_defaults(func=cmd_scan3)

    p_field = sub.add_parser("field", help="lattice field scaling run (CSV + summary)")
    size = p_field.add_mutually_exclusive_group(required=True)
    size.add_argument("--n-list", default=None, help="comma-separated n values (N = 2n + 1)")
    size.add_argument("--modes-list", default=None, help="comma-separated site counts N (odd)")
    p_field.add_argument("--mass", type=float, required=True)
    p_field.add_argument("--radius", type=float, required=True)
    p_field.add_argument("--asymptotic-p", type=int, choices=(0, 1), default=0)
    p_field.add_argument("--out", default=None)
    p_field.add_argument("--self-test", action="store_true")
    p_field.set_defaults(func=cmd_field)

    return parser


def _normalize_argv(argv) -> list:
    """Join range flags with their value so negative bounds parse cleanly.

    argparse would read the "-1:1" in "--re-range -1:1" as an unknown option;
    folding the pair into "--re-range=-1:1" sidesteps that.
    """
    range_flags = {"--re-range", "--im-range"}
    out = []
    it = iter(argv)
    for token in it:
        if token in range_flags:
            value = next(it, None)
            out.append(token if value is None else f"{token}={value}")
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(sys.argv[1:] if argv is None else argv))
    try:
        _write(*args.func(args), args.out)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GaussGemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
