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

Each command computes its whole result as float columns and runs its
--self-test before ``_csv`` formats the table in one step; ``main`` then
writes the text through ``_write``.  A command that fails therefore writes
nothing and leaves an existing --out untouched.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import lattice
from .core import _is_number
from .errors import GaussGemError, InvalidArgumentError
from .graphs import (
    GraphSpec,
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


def _grid(lo: float, hi: float, steps: int) -> np.ndarray:
    if steps < 2:
        raise InvalidArgumentError(f"steps must be >= 2, got {steps}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing span, checked below
        grid = lo + (hi - lo) * np.arange(steps) / (steps - 1)
    if not np.isfinite(grid).all():  # finite bounds whose span overflows
        raise InvalidArgumentError(f"range {lo:g}:{hi:g} in {steps} steps has points past double precision")
    return grid


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
        parts = entry.get("re", 0.0), entry.get("im", 0.0)
        # JSON numbers only, as GraphSpec judges weights: float() would also parse "0.5" and read true as 1.0.
        if not all(map(_is_number, parts)):
            raise InvalidArgumentError(f"{path}: edge weights must be JSON numbers, got {entry!r}")
        try:
            weight = complex(*map(float, parts))
        except OverflowError as exc:  # an integer beyond double range
            raise InvalidArgumentError(
                f"{path}: edge ({entry['i']}, {entry['j']}) weight is out of double range"
            ) from exc
        triples.append((entry["i"], entry["j"], weight))
    return GraphSpec(doc["modes"], tuple(triples))


def _csv(header: list[str], columns) -> str:
    """CSV text: the header line, then the float ``columns`` side by side at 9 significant digits.

    Python already prints non-finite floats as the sentinels nan, inf and -inf.
    The table is one bytes ``%``, which prints floats as str ``%`` does: a
    str ``%`` this large left the heap growing over repeated in-process calls.
    """
    table = np.column_stack(columns)
    line = ",".join(["%.9g"] * len(header)).encode() + b"\n"
    return ",".join(header) + "\n" + ((line * len(table)) % tuple(table.ravel().tolist())).decode()


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
    state = graph_state_covariance(spec)  # the one purity gate of the command, run by the builder
    purities = mode_purities(state)
    report = {"modes": spec.num_modes, "purities": purities}
    if args.measure == "gem":
        report["gem"] = gem_from_purity(state)
    else:
        if spec.num_modes != 2:
            raise InvalidArgumentError("logneg is defined here for two-mode states only")
        report["logneg"] = log_negativity_two_mode(state)
    return json.dumps(report, sort_keys=True) + "\n", ""


def _scan_grid(args) -> np.ndarray:
    """The scan's grid points a + ib as one complex array; a (from --re-range) varies slowest."""
    ranges = [_parse_range(args.re_range), _parse_range(args.im_range)]
    a_grid, b_grid = (_grid(lo, hi, args.steps) for lo, hi in ranges)
    points = np.empty((a_grid.size, b_grid.size), dtype=complex)
    points.real, points.imag = a_grid[:, None], b_grid  # a + 1j * b would turn a -0.0 real part into 0.0
    return points.ravel()


def cmd_scan2(args) -> tuple[str, str]:
    """Both columns from the closed form; only --self-test builds the states, as the independent route."""
    points = _scan_grid(args)
    gems = gem_two_mode_closed(points)
    # For a pure two-mode state, logneg = arcsinh(2 sqrt(-det Gamma_12)) = arcsinh(4 sqrt(gem)).
    lognegs = np.arcsinh(4.0 * np.sqrt(gems))
    if args.self_test:
        state = graph_state_covariances(2, ((1, 2),), points[:, None])  # the one purity gate, run by the builder
        _self_test(gems, gem_from_purity(state), "scan2 gem")
        _self_test(lognegs, log_negativity_two_mode(state), "scan2 logneg")
    log_gems = np.log(gems, out=np.full_like(gems, -np.inf), where=gems > 0.0)
    return _csv(["re_w", "im_w", "gem", "log_gem", "logneg"],
                [points.real, points.imag, gems, log_gems, lognegs]), ""


def cmd_scan3(args) -> tuple[str, str]:
    """Triangle (g1) against path (g2) on one weight array; the path carries its first two weights.

    ``equal`` puts w = a + ib on every edge and takes the closed forms, checked
    against the purity pipeline.  ``xy`` puts (i x, i y, 1) on edges (12, 23, 13)
    and takes the purity pipeline, checked against the metric route.
    """
    points = _scan_grid(args)
    topologies = (THREE_MODE_TRIANGLE, THREE_MODE_PATH)
    if args.family == "equal":
        g1, g2 = gem_three_mode_g1(points), gem_three_mode_g2(points)
    else:
        weights = np.column_stack([1j * points.real, 1j * points.imag, np.ones(points.size)])
        # One purity gate per topology, run by the builder.
        states = [graph_state_covariances(3, pairs, weights[:, : len(pairs)]) for pairs in topologies]
        g1, g2 = (gem_from_purity(state) for state in states)
    if args.self_test:
        for col, (column, pairs) in enumerate(zip((g1, g2), topologies)):
            if args.family == "equal":
                equal_weights = np.repeat(points[:, None], len(pairs), axis=1)
                reference = gem_from_purity(graph_state_covariances(3, pairs, equal_weights))
            else:
                reference = gem_from_metric(states[col])
            _self_test(column, reference, f"scan3 gem_g{col + 1}")
    ratio = np.divide(g2, g1, out=np.full_like(g1, np.nan), where=g1 > 0.0)
    header = ["re_w", "im_w"] if args.family == "equal" else ["x", "y"]
    return _csv(header + ["gem_g1", "gem_g2", "ratio_g2_g1"], [points.real, points.imag, g1, g2, ratio]), ""


def cmd_field(args) -> tuple[str, str]:
    if args.n_list is not None:
        sizes, config = _parse_int_list(args.n_list, "n-list"), lattice.LatticeFieldConfig
    else:
        sizes, config = _parse_int_list(args.modes_list, "modes-list"), lattice.LatticeFieldConfig.from_modes
    configs = [config(size, mass=args.mass, radius=args.radius) for size in sizes]
    coeffs = lattice.asymptotic_coefficients(configs[0].tau, args.asymptotic_p)
    # One pass over the configs, exact before asymptotic, so errors come in config order.
    ns, exact, asym = np.array([
        (float(cfg.n), lattice.gem_field_exact(cfg),
         lattice.gem_field_asymptotic(cfg.n, cfg.tau, args.asymptotic_p) if cfg.n >= 1 else np.nan)
        for cfg in configs
    ]).T
    with np.errstate(over="ignore"):  # a relative error past double range prints as inf
        rel = np.divide(abs(asym - exact), abs(exact), out=np.full_like(exact, np.nan), where=exact != 0.0)
    if args.self_test:
        # The pipeline holds a dense 2N x 2N covariance, 32 N^2 bytes (0.5 GB
        # at N = 4001), and the documented contract checks rows up to
        # N = 401 only; larger rows have no independent check and are skipped.
        pipeline = [lattice.gem_field_pipeline(cfg) if cfg.num_modes <= 401 else None for cfg in configs]
        _self_test(exact, pipeline, "field gem_exact")
    summary = (
        f"# asymptotic coefficients (p={coeffs.p}, tau={coeffs.tau:.9g})\n"
        f"# kappa1 = {coeffs.kappa1:.9g}\n"
        f"# kappa2 = {coeffs.kappa2:.9g}\n"
        f"# kappa3 = {coeffs.kappa3:.9g}\n"
        f"# kappa4 = {coeffs.kappa4:.9g}\n"
    )
    return _csv(["n", "gem_exact", "gem_asymptotic", "rel_error"], [ns, exact, asym, rel]), summary


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
    p_gem.set_defaults(out=None)

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--re-range", required=True, help="a:b range of Re(w), or of x for scan3 --family xy")
    grid.add_argument("--im-range", required=True, help="a:b range of Im(w), or of y for scan3 --family xy")
    grid.add_argument("--steps", type=int, required=True, help="grid points per axis (>= 2)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write the CSV here instead of stdout")
    output.add_argument("--self-test", action="store_true", help="check every row against an independent route "
                        "(field: the rows with N <= 401) and exit 3 on a mismatch")

    sub.add_parser("scan2", parents=[grid, output], help="two-mode complex-weight grid (CSV)")

    p_scan3 = sub.add_parser("scan3", parents=[grid, output], help="three-mode topology comparison (CSV)")
    p_scan3.add_argument("--family", choices=("equal", "xy"), required=True)

    p_field = sub.add_parser("field", parents=[output], help="lattice field scaling run (CSV + summary)")
    size = p_field.add_mutually_exclusive_group(required=True)
    size.add_argument("--n-list", default=None, help="comma-separated n values (N = 2n + 1)")
    size.add_argument("--modes-list", default=None, help="comma-separated site counts N (odd)")
    p_field.add_argument("--mass", type=float, required=True)
    p_field.add_argument("--radius", type=float, required=True)
    p_field.add_argument("--asymptotic-p", type=int, choices=(0, 1), default=0)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process, built on the first.

    Building it takes about ten times as long as one parse (0.63 against
    0.05 ms on one Xeon core), and parsing leaves an argparse parser
    unchanged, so one serves every call.
    """
    return build_parser()


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
    args = _shared_parser().parse_args(_normalize_argv(sys.argv[1:] if argv is None else argv))
    # Looked up on each call, not stored in the shared parser, so a rebound cmd_* takes effect.
    command = {"gem": cmd_gem, "scan2": cmd_scan2, "scan3": cmd_scan3, "field": cmd_field}[args.command]
    try:
        _write(*command(args), args.out)
    except GaussGemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, InvalidArgumentError) else EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
