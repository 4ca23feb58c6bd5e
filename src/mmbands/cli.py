"""Command-line front end: parameter ingestion and file emission.

Subcommands::

    homogenize   effective macroscopic constants            -> JSON
    cutoffs      k = 0 frequencies per block                 -> JSON
    disperse     dispersion branches of all blocks           -> CSV
    modes        mode markers along one named branch         -> CSV
    gaps         band-gap report                             -> JSON
    sweep-param  gap counts over a scalar parameter range    -> CSV
    plot         three-panel dispersion diagram              -> SVG

Parameters are read from a flat ``key = value`` config file (``#`` starts a
comment) and/or command-line flags, in the engineering units of the usual
material tables: MPa for moduli, mm for the characteristic length, kg/m^3
for the density, kg/m for the inertiae.  Frequencies are emitted in rad/s
(``--hertz`` divides by 2*pi).  Identical inputs produce byte-identical
outputs.

Exit codes: 0 success, 2 config/usage error, 3 parameter validation
failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat

from .assembly import BlockLeakageError
from .bandgap import (COMPLETE, FrequencyAxisError, default_omega_ceiling,
                      detect_gaps)
from .core import (ElasticParams, InertiaParams, ModelKind, WaveBlock,
                   homogenize, validate, PA_PER_MPA)
from .dispersion import (DEFAULT_GRID_POINTS, DegenerateGridError, KGrid,
                         cutoffs, default_grid, sweep)
from .eigensolve import EigenSolveError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

_ELASTIC_KEYS = ("mu_e", "lambda_e", "mu_c", "mu_micro", "lambda_micro", "L_c")
_INERTIA_KEYS = ("rho", "eta", "eta_bar_1", "eta_bar_2", "eta_bar_3")
_FLOAT_KEYS = _ELASTIC_KEYS + _INERTIA_KEYS + (
    "k_max", "omega_ceiling", "delta_omega", "min_gap_width")
_INT_KEYS = ("grid_points",)
_BOOL_KEYS = ("include_uncoupled",)
_STR_KEYS = ("model",)
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _BOOL_KEYS + _STR_KEYS

_BLOCK_ORDER = (WaveBlock.UNCOUPLED, WaveBlock.LONGITUDINAL,
                WaveBlock.TRANSVERSE)


class ConfigError(Exception):
    """Malformed or incomplete run configuration."""


@dataclass
class RunConfig:
    """Merged configuration of one CLI invocation (values in input units)."""

    values: dict

    def require(self, keys):
        missing = [k for k in keys if self.values.get(k) is None]
        if missing:
            raise ConfigError("missing parameter(s): " + ", ".join(missing))

    def elastic(self) -> ElasticParams:
        self.require(_ELASTIC_KEYS)
        return ElasticParams.from_engineering(
            *(self.values[key] for key in _ELASTIC_KEYS))

    def inertia(self) -> InertiaParams:
        self.require(("rho", "eta"))
        v = self.values
        return InertiaParams(rho=v["rho"], eta=v["eta"], **{
            key: v.get(key) or 0.0 for key in _INERTIA_KEYS[2:]})

    def model(self) -> ModelKind:
        name = self.values.get("model")
        if name is None:
            raise ConfigError("missing parameter(s): model")
        try:
            return ModelKind(name)
        except ValueError:
            choices = ", ".join(m.value for m in ModelKind)
            raise ConfigError(f"unknown model {name!r} (choose from {choices})")

    def grid(self, elastic: ElasticParams, inertia: InertiaParams) -> KGrid:
        points = self.values.get("grid_points")
        points = DEFAULT_GRID_POINTS if points is None else points
        k_max = self.values.get("k_max")
        if k_max is None:
            return default_grid(elastic, inertia, points=points)
        return KGrid.linear(k_max, points=points)

    def gap_options(self) -> dict:
        keys = ("omega_ceiling", "delta_omega", "min_gap_width")
        return {key: self.values.get(key) for key in keys} | {
            "include_uncoupled": bool(self.values.get("include_uncoupled"))}


def _parse_scalar(key: str, raw: str):
    if key in _STR_KEYS:
        return raw
    if key in _BOOL_KEYS:
        low = raw.lower()
        if low in ("true", "1", "yes", "on", "false", "0", "no", "off"):
            return low in ("true", "1", "yes", "on")
        raise ConfigError(f"key {key}: expected a boolean, got {raw!r}")
    try:
        return (int if key in _INT_KEYS else float)(raw)
    except ValueError:
        raise ConfigError(f"key {key}: expected a number, got {raw!r}")


def parse_config_file(path: str) -> dict:
    """Read a flat key = value file; unknown keys are rejected."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_scalar(key, raw)
    return values


def build_config(args) -> RunConfig:
    values = dict.fromkeys(_ALL_KEYS)
    if args.config:
        values.update(parse_config_file(args.config))
    values.update({key: flag for key in _ALL_KEYS
                   if (flag := getattr(args, key, None)) is not None})
    return RunConfig(values=values)


def _check_validation(elastic, inertia, out) -> bool:
    report = validate(elastic, inertia)
    for failure in report.failures():
        print(f"invalid parameters: {failure.name}"
              + (f" ({failure.message})" if failure.message else ""),
              file=out)
    return report.ok


def _omega_scale(args) -> tuple[float, str]:
    if getattr(args, "hertz", False):
        return 1.0 / (2.0 * math.pi), "Hz"
    return 1.0, "rad/s"


def _write_output(text: str, args) -> None:
    path = getattr(args, "output", None)
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows whose cells are all ``str`` (else
    ``TypeError``).  No cell (float reprs, ``inf``, block, branch and DOF
    names, ``a:b;c:d`` gap lists, the empty gaps cell) holds a comma, quote
    or line break, so ``csv.writer`` would quote nothing: a join is exact."""
    return "\n".join(map(",".join, chain([header], rows))) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_homogenize(cfg: RunConfig, args, err) -> int:
    elastic = cfg.elastic()
    try:
        inertia = cfg.inertia()
    except ConfigError:
        # homogenization needs no inertia; a passing placeholder lets the
        # elastic invariants still be checked
        inertia = InertiaParams(rho=1.0, eta=1.0)
    if not _check_validation(elastic, inertia, err):
        return EXIT_VALIDATION
    macro = homogenize(elastic)
    payload = {f"{name}_mpa": getattr(macro, name) / PA_PER_MPA
               for name in ("mu_macro", "lambda_macro", "e_macro")}
    payload["nu_macro"] = macro.nu_macro
    _write_output(_json_dumps(payload), args)
    return EXIT_OK


def _cmd_cutoffs(cfg: RunConfig, args, err) -> int:
    model, elastic, inertia = cfg.model(), cfg.elastic(), cfg.inertia()
    if not _check_validation(elastic, inertia, err):
        return EXIT_VALIDATION
    scale, unit = _omega_scale(args)
    table = cutoffs(model, elastic, inertia)
    payload = {"model": model.value, "unit": unit, "blocks": {
        block.value: [{"omega": c.omega * scale, "acoustic": c.acoustic,
                       "mode": c.mode} for c in cuts]
        for block, cuts in table.items()}}
    _write_output(_json_dumps(payload), args)
    return EXIT_OK


def _sweep_all_blocks(cfg: RunConfig):
    model, elastic, inertia = cfg.model(), cfg.elastic(), cfg.inertia()
    grid = cfg.grid(elastic, inertia)
    return {block: sweep(model, elastic, inertia, block, grid)
            for block in _BLOCK_ORDER}, grid


def _branch_columns(branch, scale):
    """omega, dominant_mode and ratio cells of one branch, as strings."""
    return (map(repr, (branch.omegas * scale).tolist()),
            branch.dominant.tolist(), map(repr, branch.ratio.tolist()))


def _cmd_disperse(cfg: RunConfig, args, err) -> int:
    elastic, inertia = cfg.elastic(), cfg.inertia()
    if not _check_validation(elastic, inertia, err):
        return EXIT_VALIDATION
    scale, _ = _omega_scale(args)
    curves, grid = _sweep_all_blocks(cfg)
    ks = list(map(repr, grid.values.tolist()))  # formatted once, not per row
    rows = chain.from_iterable(
        zip(ks, repeat(block.value), repeat(branch.label),
            *_branch_columns(branch, scale))
        for block in _BLOCK_ORDER for branch in curves[block].branches)
    _write_output(_csv_text(["k", "block", "branch_label", "omega",
                             "dominant_mode", "ratio"], rows), args)
    return EXIT_OK


def _cmd_modes(cfg: RunConfig, args, err) -> int:
    elastic, inertia = cfg.elastic(), cfg.inertia()
    if not _check_validation(elastic, inertia, err):
        return EXIT_VALIDATION
    block = WaveBlock(args.block)  # argparse admits WaveBlock values only
    model = cfg.model()
    grid = cfg.grid(elastic, inertia)
    curve = sweep(model, elastic, inertia, block, grid)
    branch = next((b for b in curve.branches if b.label == args.branch), None)
    if branch is None:
        names = ", ".join(b.label for b in curve.branches)
        raise ConfigError(f"no branch {args.branch!r} in block "
                          f"{block.value} (have: {names})")
    scale, _ = _omega_scale(args)
    rows = zip(map(repr, grid.values.tolist()),
               *_branch_columns(branch, scale))
    _write_output(_csv_text(["k", "omega", "dominant_mode", "ratio"], rows),
                  args)
    return EXIT_OK


def _gap_report_payload(report, scale, unit):
    return {
        "model": report.model.value,
        "scope": report.scope,
        "blocks": list(report.blocks),
        "unit": unit,
        "omega_ceiling": report.omega_ceiling * scale,
        "delta_omega": report.delta_omega * scale,
        "min_gap_width": report.min_gap_width * scale,
        "n_gaps": len(report.gaps),
        "gaps": [{"omega_lo": g.omega_lo * scale,
                  "omega_hi": g.omega_hi * scale} for g in report.gaps],
    }


def _cmd_gaps(cfg: RunConfig, args, err) -> int:
    model, elastic, inertia = cfg.model(), cfg.elastic(), cfg.inertia()
    if not _check_validation(elastic, inertia, err):
        return EXIT_VALIDATION
    scope = COMPLETE if args.block is None else WaveBlock(args.block)
    grid = cfg.grid(elastic, inertia)
    report = detect_gaps(model, elastic, inertia, scope, grid=grid,
                         **cfg.gap_options())
    scale, unit = _omega_scale(args)
    _write_output(_json_dumps(_gap_report_payload(report, scale, unit)), args)
    return EXIT_OK


def _cmd_sweep_param(cfg: RunConfig, args, err) -> int:
    if args.param not in _FLOAT_KEYS:
        raise ConfigError(f"--param must be one of: {', '.join(_FLOAT_KEYS)}")
    if args.values:
        try:
            values = [float(v) for v in args.values.split(",")]
        except ValueError:
            raise ConfigError(f"--values: expected comma-separated numbers")
    elif args.range:
        try:
            lo, hi, count = args.range.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise ConfigError("--range: expected lo:hi:count")
        if count < 2:
            raise ConfigError("--range: count must be >= 2")
        step = (hi - lo) / (count - 1)
        values = [lo + i * step for i in range(count)]
    else:
        raise ConfigError("sweep-param needs --values or --range")

    scale, _ = _omega_scale(args)
    rows = []
    for value in values:
        run = RunConfig(values={**cfg.values, args.param: value})
        model, elastic, inertia = run.model(), run.elastic(), run.inertia()
        if not _check_validation(elastic, inertia, err):
            return EXIT_VALIDATION
        report = detect_gaps(model, elastic, inertia, COMPLETE,
                             grid=run.grid(elastic, inertia),
                             **run.gap_options())
        joined = ";".join(f"{g.omega_lo * scale!r}:{g.omega_hi * scale!r}"
                          for g in report.gaps)
        rows.append([repr(float(value)), str(len(report.gaps)), joined])
    _write_output(_csv_text(["param_value", "n_gaps", "gaps"], rows), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# SVG plotting


def _svg_polyline(points, color) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>')


def _clip_to_ceiling(ks, omegas, ceiling):
    """Split one branch into polyline segments inside [0, ceiling].

    Crossing points are interpolated so branches leave the panel at the
    right slope instead of being clamped flat.
    """
    points = list(zip(ks.tolist(), omegas.tolist()))
    segments, current = [], []
    for prev, (k, w) in zip([None, *points], points):
        if w <= ceiling:
            if prev is not None and prev[1] > ceiling:
                t = (ceiling - w) / (prev[1] - w)
                current.append((k + t * (prev[0] - k), ceiling))
            current.append((k, w))
        elif current:
            t = (ceiling - prev[1]) / (w - prev[1])
            current.append((prev[0] + t * (k - prev[0]), ceiling))
            segments.append(current)
            current = []
    if current:
        segments.append(current)
    return segments


def render_dispersion_svg(curves, grid, ceiling, scale=1.0,
                          unit="rad/s") -> str:
    """Three-panel standalone SVG of the block dispersion diagrams."""
    panel_w, panel_h = 300.0, 300.0
    margin_l, margin_b, margin_t, gap = 64.0, 42.0, 26.0, 34.0
    width = margin_l + 3 * panel_w + 2 * gap + 12.0
    height = margin_t + panel_h + margin_b
    colors = ("#1f77b4", "#d62728", "#2ca02c")
    k_max = grid.k_max

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    for p, block in enumerate(_BLOCK_ORDER):
        curve = curves[block]
        x0 = margin_l + p * (panel_w + gap)
        y0 = margin_t

        def to_xy(k, w):
            return (x0 + k / k_max * panel_w,
                    y0 + panel_h - (w / ceiling) * panel_h)

        parts.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{panel_w:.2f}" '
                     f'height="{panel_h:.2f}" fill="none" stroke="#444444"/>')
        parts.append(f'<text x="{x0 + panel_w / 2:.2f}" y="{y0 - 8:.2f}" '
                     f'font-family="sans-serif" font-size="13" '
                     f'text-anchor="middle">{block.value}</text>')
        # y ticks
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            w = frac * ceiling
            _, y = to_xy(0.0, w)
            parts.append(f'<line x1="{x0 - 4:.2f}" y1="{y:.2f}" '
                         f'x2="{x0:.2f}" y2="{y:.2f}" stroke="#444444"/>')
            if p == 0:
                parts.append(f'<text x="{x0 - 7:.2f}" y="{y + 3.5:.2f}" '
                             f'font-family="sans-serif" font-size="10" '
                             f'text-anchor="end">{w * scale:.3g}</text>')
        # x ticks
        for frac in (0.0, 0.5, 1.0):
            k = frac * k_max
            x, y = to_xy(k, 0.0)
            parts.append(f'<line x1="{x:.2f}" y1="{y:.2f}" x2="{x:.2f}" '
                         f'y2="{y + 4:.2f}" stroke="#444444"/>')
            parts.append(f'<text x="{x:.2f}" y="{y + 16:.2f}" '
                         f'font-family="sans-serif" font-size="10" '
                         f'text-anchor="middle">{k:.3g}</text>')
        for idx, branch in enumerate(curve.branches):
            for seg in _clip_to_ceiling(grid.values, branch.omegas, ceiling):
                pts = [to_xy(k, w) for k, w in seg]
                parts.append(_svg_polyline(pts, colors[idx]))
            # branch name near its k = 0 end
            w0 = min(float(branch.omegas[0]), ceiling * 0.98)
            x, y = to_xy(0.02 * k_max, w0)
            parts.append(f'<text x="{x:.2f}" y="{y - 4:.2f}" '
                         f'font-family="sans-serif" font-size="10" '
                         f'fill="{colors[idx]}">{branch.label}</text>')

    parts.append(f'<text x="{margin_l / 2:.0f}" y="{margin_t + panel_h / 2:.0f}" '
                 f'font-family="sans-serif" font-size="11" '
                 f'transform="rotate(-90 {margin_l / 2:.0f} '
                 f'{margin_t + panel_h / 2:.0f})" text-anchor="middle">'
                 f'omega [{unit}]</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 8:.0f}" '
                 f'font-family="sans-serif" font-size="11" '
                 f'text-anchor="middle">k [rad/m]</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def _cmd_plot(cfg: RunConfig, args, err) -> int:
    model, elastic, inertia = cfg.model(), cfg.elastic(), cfg.inertia()
    if not _check_validation(elastic, inertia, err):
        return EXIT_VALIDATION
    if not args.output:
        raise ConfigError("plot requires --output")
    curves, grid = _sweep_all_blocks(cfg)
    ceiling = cfg.values.get("omega_ceiling")
    if ceiling is None:
        ceiling = default_omega_ceiling(model, elastic, inertia)
    scale, unit = _omega_scale(args)
    svg = render_dispersion_svg(curves, grid, ceiling, scale=scale, unit=unit)
    _write_output(svg, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing / dispatch


def _add_common_flags(sub):
    sub.add_argument("--config", help="flat key = value parameter file")
    sub.add_argument("--model", choices=[m.value for m in ModelKind])
    for key in _FLOAT_KEYS:
        sub.add_argument("--" + key.replace("_", "-").lower(),
                         dest=key, type=float)
    sub.add_argument("--grid-points", dest="grid_points", type=int)
    sub.add_argument("--include-uncoupled", dest="include_uncoupled",
                     action="store_const", const=True)
    sub.add_argument("--hertz", action="store_true",
                     help="emit frequencies in Hz instead of rad/s")
    sub.add_argument("--output", help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    # one shared parent holds the common flags: built once, not per subcommand
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common)
    parser = argparse.ArgumentParser(
        prog="mmbands",
        description="Dispersion curves, cut-offs and band-gaps of isotropic "
                    "micromorphic media")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, handler, helptext in (
            ("homogenize", _cmd_homogenize,
             "effective macroscopic constants (JSON)"),
            ("cutoffs", _cmd_cutoffs, "k = 0 frequencies per block (JSON)"),
            ("disperse", _cmd_disperse,
             "dispersion branches of all blocks (CSV)"),
            ("gaps", _cmd_gaps, "band-gap report (JSON)"),
            ("modes", _cmd_modes, "mode markers along one branch (CSV)"),
            ("sweep-param", _cmd_sweep_param,
             "gap counts over a parameter range (CSV)"),
            ("plot", _cmd_plot, "three-panel dispersion diagram (SVG)")):
        sub = subs.add_parser(name, help=helptext, parents=[common])
        sub.set_defaults(handler=handler)
        if name == "gaps":
            sub.add_argument("--block", choices=[b.value for b in WaveBlock],
                             help="restrict to one block (default: complete)")
        if name == "modes":
            sub.add_argument("--block", required=True,
                             choices=[b.value for b in WaveBlock])
            sub.add_argument("--branch", required=True,
                             help="branch label, e.g. LA or LO1")
        if name == "sweep-param":
            sub.add_argument("--param", required=True,
                             help="config key to sweep")
            sub.add_argument("--values", help="comma-separated values")
            sub.add_argument("--range", help="lo:hi:count")
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching our contract
        return int(exc.code or 0)
    err = sys.stderr
    try:
        cfg = build_config(args)
        return args.handler(cfg, args, err)
    except (ConfigError, DegenerateGridError, FrequencyAxisError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_CONFIG
    except (EigenSolveError, BlockLeakageError) as exc:
        print(f"numerical failure: {exc}", file=err)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
