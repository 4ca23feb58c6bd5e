"""Command-line front end: parameter ingestion and file emission.

The subcommands and their JSON, CSV or SVG outputs are listed in
``build_parser`` (``mmbands --help``).  Parameters are read from a flat
``key = value`` config file (``#`` starts a comment) and/or command-line
flags, in the engineering units of the usual material tables: MPa for
moduli, mm for the characteristic length, kg/m^3 for the density, kg/m for
the inertiae.  Frequencies are emitted in rad/s (``--hertz`` divides by
2*pi).  Identical inputs produce byte-identical outputs.

Each ``_cmd_*`` handler returns its output text; ``run`` alone writes it
and maps errors to exit codes: 0 success, 2 config/usage error (also an
unreadable config file, an unwritable ``--output`` or a grid too large to
allocate), 3 parameter validation failure, 4 numerical failure.  The first
failure in a run's one check order sets the code: the model, then the
parameters read (``homogenize``: the elastic constants only), the grid.
"""

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from itertools import chain, repeat

from .assembly import BlockLeakageError
from .bandgap import (COMPLETE, FrequencyAxisError, _check_axis,
                      default_omega_ceiling, detect_gaps, gap_reports)
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
_ALL_KEYS = _FLOAT_KEYS + ("grid_points", "include_uncoupled", "model")

_BLOCK_ORDER = (WaveBlock.UNCOUPLED, WaveBlock.LONGITUDINAL,
                WaveBlock.TRANSVERSE)


class ConfigError(Exception):
    """Malformed or incomplete run configuration."""


class ValidationError(Exception):
    """Parameters that fail ``validate``, one line per failed invariant."""


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
        self.require(["model"])
        name = self.values["model"]
        try:
            return ModelKind(name)
        except ValueError:
            choices = ", ".join(m.value for m in ModelKind)
            raise ConfigError(f"unknown model {name!r} (choose from {choices})")

    def checked_run(self):
        """``(model, elastic, inertia)``, the model read before the parameters
        are validated: the one place a handler reads either."""
        return self.model(), *_validated(self.elastic(), self.inertia())

    def grid(self, model: ModelKind, elastic: ElasticParams,
             inertia: InertiaParams) -> KGrid:
        points = self.values.get("grid_points")
        points = DEFAULT_GRID_POINTS if points is None else points
        k_max = self.values.get("k_max")
        if k_max is None:
            return default_grid(elastic, inertia, points, model)
        return KGrid.linear(k_max, points=points)

    def gap_run(self, scope):
        checked = self.checked_run()
        return *checked, scope, {
            "grid": self.grid(*checked),
            **{key: self.values.get(key) for key in (
                "omega_ceiling", "delta_omega", "min_gap_width")},
            "include_uncoupled": bool(self.values.get("include_uncoupled"))}


def _parse_scalar(key: str, raw: str):
    if key == "model":
        return raw
    if key == "include_uncoupled":
        low = raw.lower()
        if low in ("true", "1", "yes", "on", "false", "0", "no", "off"):
            return low in ("true", "1", "yes", "on")
        raise ConfigError(f"key {key}: expected a boolean, got {raw!r}")
    try:
        return (int if key == "grid_points" else float)(raw)
    except ValueError:
        raise ConfigError(f"key {key}: expected a number, got {raw!r}")


def parse_config_file(path: str) -> dict:
    """Read a flat key = value file; unknown keys are rejected."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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


def _validated(elastic: ElasticParams, inertia: InertiaParams):
    """The pair if it passes ``validate``, else ValidationError."""
    if failures := validate(elastic, inertia).failures():
        raise ValidationError("\n".join(
            f"invalid parameters: {failure.name}"
            + (f" ({failure.message})" if failure.message else "")
            for failure in failures))
    return elastic, inertia


def _omega_scale(args) -> tuple[float, str]:
    return (1.0 / (2.0 * math.pi), "Hz") if args.hertz else (1.0, "rad/s")


def _write_output(text: str, path) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows whose cells are all ``str`` (else
    ``TypeError``).  No cell (float reprs, ``inf``, block, branch and DOF
    names, ``a:b;c:d`` gap lists, the empty gaps cell) holds a comma, quote
    or line break, so ``csv.writer`` would quote nothing: a join is exact."""
    return "\n".join(map(",".join, chain([header], rows))) + "\n"


def _cmd_homogenize(cfg: RunConfig, args) -> str:
    # reads no inertia: a passing placeholder leaves only elastic checks
    elastic, _ = _validated(cfg.elastic(), InertiaParams(rho=1.0, eta=1.0))
    macro = homogenize(elastic)
    return _json_dumps({f"{name}_mpa": getattr(macro, name) / PA_PER_MPA
                        for name in ("mu_macro", "lambda_macro", "e_macro")}
                       | {"nu_macro": macro.nu_macro})


def _cmd_cutoffs(cfg: RunConfig, args) -> str:
    model, elastic, inertia = cfg.checked_run()
    scale, unit = _omega_scale(args)
    return _json_dumps({"model": model.value, "unit": unit, "blocks": {
        block.value: [{"omega": c.omega * scale, "acoustic": c.acoustic,
                       "mode": c.mode} for c in cuts]
        for block, cuts in cutoffs(model, elastic, inertia).items()}})


def _sweeps(cfg: RunConfig, checked, blocks=_BLOCK_ORDER):
    """Sweeps of a ``checked_run`` by block, and the grid they share."""
    grid = cfg.grid(*checked)
    return {block: sweep(*checked, block, grid) for block in blocks}, grid


def _cells(column, memo: dict) -> list:
    """``repr`` of each float of a column, made once per distinct column
    bytes in ``memo``, and once in all where every int64 bit pattern is
    equal (a flat branch; 0.0 and -0.0, or two nan payloads, differ)."""
    if (key := column.tobytes()) not in memo:
        bits, first = column.view("i8"), repr(float(column[0]))
        memo[key] = ([first] * column.size if (bits == bits[0]).all()
                     else list(map(repr, column.tolist())))
    return memo[key]


def _branch_columns(branch, scale, memo: dict):
    """omega, dominant_mode and ratio cells of one branch, as strings."""
    return (_cells(branch.omegas * scale, memo), branch.dominant.tolist(),
            _cells(branch.ratio, memo))


def _cmd_disperse(cfg: RunConfig, args) -> str:
    curves, grid = _sweeps(cfg, cfg.checked_run())
    scale, _ = _omega_scale(args)
    ks = list(map(repr, grid.values.tolist()))  # each k once, not per row
    rows = chain.from_iterable(
        zip(ks, repeat(block.value), repeat(branch.label),
            *_branch_columns(branch, scale, memo))
        for block in _BLOCK_ORDER for memo in [{}]  # one memo per block
        for branch in curves[block].branches)
    return _csv_text(["k", "block", "branch_label", "omega",
                      "dominant_mode", "ratio"], rows)


def _cmd_modes(cfg: RunConfig, args) -> str:
    block = WaveBlock(args.block)  # argparse admits WaveBlock values only
    curves, grid = _sweeps(cfg, cfg.checked_run(), [block])
    branches = {b.label: b for b in curves[block].branches}
    if args.branch not in branches:
        raise ConfigError(f"no branch {args.branch!r} in block "
                          f"{block.value} (have: {', '.join(branches)})")
    scale, _ = _omega_scale(args)
    rows = zip(map(repr, grid.values.tolist()),
               *_branch_columns(branches[args.branch], scale, {}))
    return _csv_text(["k", "omega", "dominant_mode", "ratio"], rows)


def _cmd_gaps(cfg: RunConfig, args) -> str:
    *run, options = cfg.gap_run(
        COMPLETE if args.block is None else WaveBlock(args.block))
    report = detect_gaps(*run, **options)
    scale, unit = _omega_scale(args)
    return _json_dumps({
        "model": report.model.value, "scope": report.scope,
        "blocks": list(report.blocks), "unit": unit,
        **{key: getattr(report, key) * scale for key in (
            "omega_ceiling", "delta_omega", "min_gap_width")},
        "n_gaps": len(report.gaps),
        "gaps": [{"omega_lo": g.omega_lo * scale,
                  "omega_hi": g.omega_hi * scale} for g in report.gaps]})


def _cmd_sweep_param(cfg: RunConfig, args) -> str:
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
        values = [lo + i * ((hi - lo) / (count - 1)) for i in range(count)]
    else:
        raise ConfigError("sweep-param needs --values or --range")

    scale, _ = _omega_scale(args)
    # lazy: a value's config and solver errors come before the next value's
    runs = (RunConfig(values={**cfg.values, args.param: value}).gap_run(
        COMPLETE) for value in values)
    rows = ([repr(float(value)), str(len(report.gaps)), ";".join(
        f"{g.omega_lo * scale!r}:{g.omega_hi * scale!r}" for g in report.gaps)]
        for value, report in zip(values, gap_reports(runs)))
    return _csv_text(["param_value", "n_gaps", "gaps"], rows)


def _clip_to_ceiling(ks, omegas, ceiling):
    """Split one branch into polyline segments inside [0, ceiling], each
    crossing interpolated so that it leaves the panel at the right slope."""
    points = list(zip(ks.tolist(), omegas.tolist()))
    segments, current = [], []
    for prev, point in zip([None, *points], points):
        inside = point[1] <= ceiling
        if prev is not None and inside != (prev[1] <= ceiling):
            (k, w), (k_out, w_out) = (point, prev) if inside else (prev, point)
            t = (ceiling - w) / (w_out - w)
            current.append((k + t * (k_out - k), ceiling))
        if inside:
            current.append(point)
        elif current:
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

    parts = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{width:.0f}" height="{height:.0f}" '
             f'viewBox="0 0 {width:.0f} {height:.0f}">',
             '<rect width="100%" height="100%" fill="white"/>']

    def text(x, y, size, body, attrs='text-anchor="middle"', fmt=".2f"):
        parts.append(f'<text x="{x:{fmt}}" y="{y:{fmt}}" font-family='
                     f'"sans-serif" font-size="{size}" {attrs}>{body}</text>')

    for p, block in enumerate(_BLOCK_ORDER):
        x0, y0 = margin_l + p * (panel_w + gap), margin_t

        def to_xy(k, w):
            return (x0 + k / k_max * panel_w,
                    y0 + panel_h - (w / ceiling) * panel_h)

        parts.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{panel_w:.2f}" '
                     f'height="{panel_h:.2f}" fill="none" stroke="#444444"/>')
        text(x0 + panel_w / 2, y0 - 8, 13, block.value)
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            w = frac * ceiling
            _, y = to_xy(0.0, w)
            parts.append(f'<line x1="{x0 - 4:.2f}" y1="{y:.2f}" '
                         f'x2="{x0:.2f}" y2="{y:.2f}" stroke="#444444"/>')
            if p == 0:
                text(x0 - 7, y + 3.5, 10, f"{w * scale:.3g}",
                     'text-anchor="end"')
        for frac in (0.0, 0.5, 1.0):
            k = frac * k_max
            x, y = to_xy(k, 0.0)
            parts.append(f'<line x1="{x:.2f}" y1="{y:.2f}" x2="{x:.2f}" '
                         f'y2="{y + 4:.2f}" stroke="#444444"/>')
            text(x, y + 16, 10, f"{k:.3g}")
        for idx, branch in enumerate(curves[block].branches):
            for seg in _clip_to_ceiling(grid.values, branch.omegas, ceiling):
                points = [to_xy(k, w) for k, w in seg]
                coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
                parts.append(f'<polyline fill="none" stroke="{colors[idx]}" '
                             f'stroke-width="1.5" points="{coords}"/>')
            w0 = min(float(branch.omegas[0]), ceiling * 0.98)
            x, y = to_xy(0.02 * k_max, w0)
            text(x, y - 4, 10, branch.label, f'fill="{colors[idx]}"')

    x, y = margin_l / 2, margin_t + panel_h / 2
    text(x, y, 11, f"omega [{unit}]", f'transform="rotate(-90 {x:.0f} '
         f'{y:.0f})" text-anchor="middle"', ".0f")
    text(width / 2, height - 8, 11, "k [rad/m]", fmt=".0f")
    return "\n".join(parts + ["</svg>"]) + "\n"


def _cmd_plot(cfg: RunConfig, args) -> str:
    if not args.output:
        raise ConfigError("plot requires --output")
    curves, grid = _sweeps(cfg, cfg.checked_run())
    ceiling = cfg.values.get("omega_ceiling")
    if ceiling is None:  # detect_gaps' rule, on the k = 0 rows just solved
        ceiling = default_omega_ceiling(
            [b.omegas[0] for b in c.branches] for c in curves.values())
    _check_axis("omega_ceiling", ceiling)
    return render_dispersion_svg(curves, grid, ceiling, *_omega_scale(args))


@functools.cache  # parse_args leaves it unchanged: one parser per process
def build_parser() -> argparse.ArgumentParser:
    # one shared parent holds the common flags: built once, not per subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value parameter file")
    common.add_argument("--model", choices=[m.value for m in ModelKind])
    for key in _FLOAT_KEYS:
        common.add_argument("--" + key.replace("_", "-").lower(),
                            dest=key, type=float)
    common.add_argument("--grid-points", dest="grid_points", type=int)
    common.add_argument("--include-uncoupled", dest="include_uncoupled",
                        action="store_const", const=True)
    common.add_argument("--hertz", action="store_true",
                        help="emit frequencies in Hz instead of rad/s")
    common.add_argument("--output",
                        help="write to this path instead of stdout")
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
        # argparse reads "-1e2", "-inf" or "-1,-2" as options: take as values
        sub._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching our contract
        return int(exc.code or 0)
    try:
        _write_output(args.handler(build_config(args), args), args.output)
    except ValidationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (ConfigError, DegenerateGridError, FrequencyAxisError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EigenSolveError, BlockLeakageError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
