"""Experiment runner: reproducible, config-driven subcommands over all modules.

Every subcommand resolves its parameters from (defaults < config file < CLI
flags), validates them, and embeds the resolved configuration into each output
artifact — a "config" object in JSON reports and a leading '#' line in CSV —
so any artifact can be re-run bit-identically from its own header.  Output
paths and thread counts are deliberately left out of the echo: they locate or
schedule the run without affecting a single output number, and their absence
is what makes reruns byte-identical across output directories and --threads
settings.  The one input path, ``project --input``, is echoed, so a project
artifact reruns byte-identically only from the same input path.

Each subcommand declares its parameters once, in the table passed to
``_subcommand``; that table yields both the argparse flags and the resolve
order, which is also the key order of the echoed configuration.

``projected_ratio`` is the ratio report of the ``ratio`` and ``scan``
subcommands and acceptance criterion 7.  Its estimate is
``density.smoothed_marginal``, the one sample -> project -> KDE step that
``mtilde`` reads too; it takes a body spec, a count and seeds, never a batch,
projects the sample tile by tile as it is drawn and smooths by the kernel,
drawing no noise.  ``projected_ratio`` lives here rather than in
``density.py`` because it looks up ``ratio_to_gaussian`` as an attribute of
this module, where the benchmark's tracer (``perfbench/tracing.py``) wraps
it; moved, it would lose that span.
``thinshell`` and ``scan`` keep only the sample norms.

Exit codes: 0 success, 1 validation error, 2 acceptance-threshold failure in
`suite` (and argparse usage errors).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from .errors import InvalidSpec, ProjCltError, RangeError
from .model import (
    BodySpec, ConvolutionSchedule, _as_positive_float, _as_positive_int, to_jsonable,
)
from .samplers import (
    SCHEMA_VERSION,
    SampleBatch,
    _require_memory,
    _seed_seq,
    atomic_open,
    convolve_and_rescale,  # no caller here; the benchmark's tracer looks it up at this module
    load_batch,
    read_batch_sidecar,
    read_json_object,
    sample_body,
    save_batch,
    save_batch_csv,
    save_sample,
    write_csv,
)
from .grassmann import project, random_subspace
from .spherical import gaussian_density, psi_gaussian_ratio_scan
from .radial import norm_column, thin_shell_fraction
from .density import (
    body_and_basis_seeds,
    check_kde_size,
    estimate_density,  # no caller here; the benchmark's tracer looks it up at this module
    m_tilde_profile,
    radial_points,
    ratio_to_gaussian,
    smoothed_marginal,
)
from .deconvolution import (
    BODIES_1D, SANDWICH_MATRIX, DeconvCertificate, DeconvParams, sandwich_margins, verify_sandwich,
)

_REQUIRED = object()


class Param(NamedTuple):
    """One subcommand parameter: its resolve default and its command-line flag.

    ``echo`` is False for sinks and schedulers (output paths, ``threads``),
    which never change an output number.  The flag is ``--`` plus the name
    with dashes unless ``flag`` says otherwise.  ``type=str`` marks a string
    parameter whose handler validates it, so a config-file value for it is
    passed through unchecked.
    """

    name: str
    default: object = _REQUIRED
    type: type | None = None
    echo: bool = True
    flag: str | None = None
    help: str | None = None
    choices: tuple | None = None
    action: str | None = None


_SUBCOMMANDS: dict[str, tuple] = {}


def _subcommand(name: str, help: str, params: list[Param]):
    """Register a handler ``(resolved, echo) -> exit code`` with its parameter table."""

    def deco(func):
        _SUBCOMMANDS[name] = (func, help, params)
        return func

    return deco


def _check_config_type(p: Param, value) -> None:
    """Reject a config value the flag would not accept; accepted values stay as read.

    A value must be one of ``p.choices`` when those are given.  Bools are
    rejected, int parameters need integral numbers, float parameters numbers
    and untyped ones strings; each element of a repeatable parameter's list
    (a single value is read as a list of one, an empty list is refused) is
    checked.  A ``str`` parameter is left to its handler.
    """
    if p.action == "append" and not value:
        raise InvalidSpec(f"config parameter '{p.name}' must list at least one value")
    if p.type is str:
        return
    for v in value if p.action == "append" else [value]:
        if p.choices is not None and v not in p.choices:
            allowed = ", ".join(map(repr, p.choices))
            raise InvalidSpec(f"config parameter '{p.name}' must be one of {allowed}, got {v!r}")
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if p.type is int and not (number and (isinstance(v, int) or v.is_integer())):
            raise InvalidSpec(f"config parameter '{p.name}' must be an integer, got {v!r}")
        if p.type is float and not number:
            raise InvalidSpec(f"config parameter '{p.name}' must be a number, got {v!r}")
        if p.type is None and not isinstance(v, str):
            raise InvalidSpec(f"config parameter '{p.name}' must be a string, got {v!r}")


def _resolve(args, params: list[Param]):
    """Merge defaults < config file < explicit flags; returns (resolved, echo)."""
    cfg = read_json_object(args.config, "config file") if args.config else {}
    unknown = sorted(set(cfg) - {p.name for p in params})
    if unknown:
        raise InvalidSpec(f"config file sets unknown parameters: {', '.join(unknown)}")
    resolved = {}
    for p in params:
        value = getattr(args, p.name)
        if value is None:
            value = cfg.get(p.name)
            if value is not None:
                if p.action == "append" and not isinstance(value, list):
                    value = [value]
                _check_config_type(p, value)
        if value is None:
            if p.default is _REQUIRED:
                raise InvalidSpec(f"missing required parameter '{p.name}'")
            value = p.default
        resolved[p.name] = value
    echo = {"subcommand": args.subcommand}
    echo.update({p.name: resolved[p.name] for p in params if p.echo})
    return resolved, echo


def usable_cores() -> int:
    """The number of CPUs this process may run on, the default thread count.

    ``os.cpu_count()`` where the affinity mask cannot be read.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _dump_json(path: str | None, echo: dict, **body) -> None:
    """Write the schema version, the echoed config and ``body`` as JSON (stdout if no path)."""
    payload = {"schema_version": SCHEMA_VERSION, "config": echo, **body}
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with atomic_open(path) as f:
            f.write(text)


def _write_csv(path: str, echo: dict, columns, rows) -> None:
    write_csv(path, {"schema_version": SCHEMA_VERSION, "config": echo}, columns, rows)


def projected_ratio(spec: BodySpec, count: int, body_seed, l: int, basis_seed,
                    max_radius: float, grid_points: int, direction_count: int = 16,
                    schedule: ConvolutionSchedule | None = None, threads: int = 1):
    """A body's smoothed projected density on a Haar l-subspace and its ratio to the gaussian.

    The estimate is ``density.smoothed_marginal`` of ``count`` samples of
    ``spec`` from ``body_seed`` on the subspace drawn from ``basis_seed``,
    smoothed at variance v as ``mtilde``'s is, and it is read against the
    gaussian of variance 1 + v: v is the ``schedule``'s ambient variance
    v(n), or without one v(N, l) = N^(-2/(l+4)), Scott's h^2 at the unit
    variance of every catalog projection.  The KDE grid is ``grid_points``
    points on [-max_radius, max_radius] for l = 1, else as many radii on
    [0, max_radius] times ``direction_count`` directions; it, l and the
    sample size are checked before anything is drawn.
    """
    max_radius = _as_positive_float(max_radius, "max_radius", RangeError)
    grid_points = _as_positive_int(grid_points, "grid_points")
    check_kde_size(count, l)
    if l == 1:
        points = np.linspace(-max_radius, max_radius, grid_points)[:, None]
    else:
        points = radial_points(np.linspace(0.0, max_radius, grid_points), l, direction_count)
    v = count ** (-2.0 / (l + 4)) if schedule is None else schedule.noise_variance(spec.dimension)
    est = smoothed_marginal(spec, count, body_seed, basis_seed, points, v, threads)
    return est, ratio_to_gaussian(est, 1.0 + v, max_radius)


_BODY = Param("body")
_N = Param("n", type=int)
_L = Param("l", type=int)
_SAMPLES = Param("samples", type=int)
_SEED = Param("seed", type=int)
_FORMAT = Param("format", "bin", choices=("bin", "csv"))
_DIRECTIONS = Param("directions", 16, int)
_CORES = usable_cores()
_THREADS = Param(
    "threads", _CORES, int, echo=False,
    help=f"worker threads (default: the {_CORES} usable cores); "
         "the artifact's bytes do not depend on it",
)
_OUTPUT = Param("output", echo=False)
_OPTIONAL_OUTPUT = Param("output", None, echo=False)
_ALPHA = Param("alpha", None, float, help="smooth at the schedule's v(n), not at N^(-2/(l+4))")
_MAX_RADIUS = Param("max_radius", 2.0, float)
_GRID_POINTS = Param("grid_points", 81, int)
_SANDWICH_GRID_POINTS = Param("grid_points", 2001, int)
_DECONV_PARAMS = [
    _N,
    Param("alpha", type=float),
    Param("beta", type=float),
    Param("epsilon", type=float),
    Param("R", type=float),
    Param("c0", 1e-2, float),
]


@_subcommand("sample", "draw a batch from a catalog body", [
    _BODY, _N, _SAMPLES, _SEED, _FORMAT, _THREADS, _OUTPUT,
])
def _cmd_sample(resolved, echo) -> int:
    spec = BodySpec(resolved["body"], int(resolved["n"]))
    count, threads = int(resolved["samples"]), int(resolved["threads"])
    # Child 0 of the seed, the body seed ``sample`` has always drawn from.
    body_seed = _seed_seq(int(resolved["seed"])).spawn(1)[0]
    if resolved["format"] == "bin":
        save_sample(spec, count, body_seed, resolved["output"], config=echo, threads=threads)
    else:
        save_batch_csv(sample_body(spec, count, body_seed, threads=threads), resolved["output"],
                       config=echo)
    return 0


@_subcommand("project", "project a saved batch onto a Haar subspace", [
    Param("input"), _L, _SEED, _FORMAT,
    Param("basis_out", None, echo=False, help="write the basis as JSON here"),
    Param("threads", 1, int, echo=False,
          help="accepted and ignored: the batch is read and projected one block of rows "
               "at a time, which a second thread did not make faster"),
    _OUTPUT,
])
def _cmd_project(resolved, echo) -> int:
    _as_positive_int(int(resolved["threads"]), "threads")
    path = resolved["input"]
    sidecar = read_batch_sidecar(path)
    basis = random_subspace(sidecar["dimension"], int(resolved["l"]), int(resolved["seed"]))

    def reduce(block):
        return project(SampleBatch(data=block, seed=None, source={}), basis).data

    data = load_batch(path, reduce=reduce).data
    source = {"draw": "projected", "of": sidecar["source"], "subspace_dim": basis.subspace_dim}
    save = save_batch_csv if resolved["format"] == "csv" else save_batch
    save(SampleBatch(data=data, seed=sidecar["seed"], source=source), resolved["output"],
         config=echo)
    if resolved["basis_out"]:
        _dump_json(resolved["basis_out"], echo, basis=to_jsonable(basis))
    return 0


def _drop_directions_at_l1(resolved, echo) -> None:
    """Echo ``directions`` only at l >= 2: the l = 1 KDE grid has no directions to count."""
    if int(resolved["l"]) == 1:
        del echo["directions"]


def _resolved_ratio(resolved, spec: BodySpec, seed: int, direction_count: int = 16):
    """``(body_seed, estimate, report)`` of ``projected_ratio`` at the resolved parameters."""
    alpha = resolved["alpha"]
    body_seed, basis_seed = body_and_basis_seeds(seed)
    return body_seed, *projected_ratio(
        spec, int(resolved["samples"]), body_seed, int(resolved["l"]), basis_seed,
        float(resolved["max_radius"]), int(resolved["grid_points"]), direction_count,
        None if alpha is None else ConvolutionSchedule(float(alpha)), int(resolved["threads"]),
    )


@_subcommand("ratio", "projected-density to gaussian ratio report", [
    _BODY, _N, _L, _SAMPLES, _SEED, _ALPHA, _MAX_RADIUS, _GRID_POINTS,
    _DIRECTIONS, _THREADS, _OUTPUT,
    Param("csv", None, echo=False, help="also write (point, ratio, stderr) rows here"),
])
def _cmd_ratio(resolved, echo) -> int:
    spec = BodySpec(resolved["body"], int(resolved["n"]))
    _drop_directions_at_l1(resolved, echo)
    _, est, report = _resolved_ratio(resolved, spec, int(resolved["seed"]),
                                     int(resolved["directions"]))
    _dump_json(resolved["output"], echo, report=to_jsonable(report))
    if resolved["csv"]:
        ref = gaussian_density(est.dim, report.meta["variance"], report.radius_grid)
        rows = zip(
            report.radius_grid.tolist(),
            report.per_point_ratios.tolist(),
            (est.stderr / ref).tolist(),
        )
        _write_csv(resolved["csv"], echo, ("point", "ratio", "stderr"), rows)
    return 0


@_subcommand("thinshell", "off-shell mass fractions", [
    _BODY, _N, _SAMPLES, _SEED,
    Param("epsilon", None, float, action="append", help="repeatable; default n^(-1/15)"),
    _THREADS, _OUTPUT,
])
def _cmd_thinshell(resolved, echo) -> int:
    n = int(resolved["n"])
    epsilons = resolved["epsilon"]
    if epsilons is None:
        epsilons = [n ** (-1.0 / 15.0)]
    echo["epsilon"] = epsilons = [_as_positive_float(e, "epsilon", RangeError) for e in epsilons]
    spec = BodySpec(resolved["body"], n)
    count = int(resolved["samples"])
    _require_memory(f"a column of {count} norms", 16 * count)
    norms = sample_body(
        spec, count, int(resolved["seed"]), threads=int(resolved["threads"]), reduce=norm_column,
    )
    rows = []
    for eps in epsilons:
        frac = thin_shell_fraction(norms, eps, dimension=n)
        rows.append((eps, frac.fraction, frac.stderr))
    _write_csv(resolved["output"], echo, ("epsilon", "fraction", "stderr"), rows)
    return 0


_SCAN_BODIES = ("cube", "ball", "simplex", "product_laplace")


@_subcommand("scan", "ratio and thin-shell sweep over bodies, one CSV", [
    Param("body", _SCAN_BODIES, action="append",
          help=f"repeatable; default {', '.join(_SCAN_BODIES)}"),
    _N, _L, _SAMPLES, _SEED, _ALPHA, _MAX_RADIUS, _GRID_POINTS, _THREADS, _OUTPUT,
])
def _cmd_scan(resolved, echo) -> int:
    """Each body's ``ratio`` rows, and the off-shell fraction of its sample at n^(-1/15).

    Body i is drawn from seed + i.  Every name is checked before a body is
    drawn, and the rows are written once, at the end.
    """
    n, count, threads = int(resolved["n"]), int(resolved["samples"]), int(resolved["threads"])
    specs = [BodySpec(body, n) for body in resolved["body"]]
    rows = []
    for i, (body, spec) in enumerate(zip(resolved["body"], specs)):
        body_seed, _, report = _resolved_ratio(resolved, spec, int(resolved["seed"]) + i)
        norms = sample_body(spec, count, body_seed, threads=threads, reduce=norm_column)
        shell = thin_shell_fraction(norms, n ** (-1.0 / 15.0), dimension=n).fraction
        sup = report.sup_abs_deviation
        rows += [(body, point, ratio, sup, shell) for point, ratio in
                 zip(report.radius_grid.tolist(), report.per_point_ratios.tolist())]
    _write_csv(resolved["output"], echo,
               ("body", "point", "ratio", "sup_abs_deviation", "shell_fraction"), rows)
    return 0


@_subcommand("psi-scan", "sphere-marginal vs gaussian scan", [
    _N, _L, Param("tmax", type=float), Param("points", 200, int), _OUTPUT,
])
def _cmd_psi_scan(resolved, echo) -> int:
    n, l = int(resolved["n"]), int(resolved["l"])
    report = psi_gaussian_ratio_scan(n, l, float(resolved["tmax"]), int(resolved["points"]))
    ref = gaussian_density(l, 1.0, report.radius_grid)
    rows = zip(
        report.radius_grid.tolist(),
        (report.per_point_ratios * ref).tolist(),
        ref.tolist(),
        report.per_point_ratios.tolist(),
    )
    _write_csv(resolved["output"], echo, ("t", "psi", "gaussian", "ratio"), rows)
    return 0


@_subcommand("mtilde", "rotation-averaged smoothed radial profile", [
    _BODY, _N, _L,
    Param("alpha", 10.0, float),
    Param("t_max", 2.0, float),
    Param("t_points", 9, int),
    Param("subspaces", 32, int),
    Param("samples_per_subspace", 125_000, int),
    _DIRECTIONS, _SEED, _THREADS, _OUTPUT,
    Param("csv", None, echo=False),
])
def _cmd_mtilde(resolved, echo) -> int:
    spec = BodySpec(resolved["body"], int(resolved["n"]))
    _drop_directions_at_l1(resolved, echo)
    report = m_tilde_profile(
        spec,
        ConvolutionSchedule(float(resolved["alpha"])),
        l=int(resolved["l"]),
        radii=np.linspace(0.0, float(resolved["t_max"]), int(resolved["t_points"])),
        subspace_count=int(resolved["subspaces"]),
        samples_per_subspace=int(resolved["samples_per_subspace"]),
        seed=int(resolved["seed"]),
        direction_count=int(resolved["directions"]),
        threads=int(resolved["threads"]),
    )
    _dump_json(resolved["output"], echo, report=to_jsonable(report))
    if resolved["csv"]:
        rows = zip(report.radius_grid.tolist(), report.per_point_ratios.tolist())
        _write_csv(resolved["csv"], echo, ("t", "profile"), rows)
    return 0


def _deconv_params(resolved) -> DeconvParams:
    return DeconvParams(
        n=int(resolved["n"]),
        alpha=float(resolved["alpha"]),
        beta=float(resolved["beta"]),
        epsilon=float(resolved["epsilon"]),
        hypothesis_radius=float(resolved["R"]),
        c0=float(resolved["c0"]),
    )


@_subcommand("deconv", "compute the sandwich admissibility certificate", [
    *_DECONV_PARAMS, _OPTIONAL_OUTPUT,
])
def _cmd_deconv(resolved, echo) -> int:
    cert = DeconvCertificate(_deconv_params(resolved))
    _dump_json(resolved["output"], echo, certificate=to_jsonable(cert))
    return 0


@_subcommand("deconv-verify", "run the 1-d sandwich and emit margins", [
    _BODY, *_DECONV_PARAMS, _SANDWICH_GRID_POINTS, _OUTPUT,
    Param("json_out", None, echo=False, flag="--json", help="also write the report as JSON here"),
])
def _cmd_deconv_verify(resolved, echo) -> int:
    report, rows = sandwich_margins(
        resolved["body"], _deconv_params(resolved), grid_points=int(resolved["grid_points"])
    )
    _write_csv(resolved["output"], echo, ("region", "x", "density", "bound", "margin"), rows)
    if resolved["json_out"]:
        _dump_json(resolved["json_out"], echo, report=to_jsonable(report))
    return 0


@_subcommand("deconv-matrix", "run the 1-d sandwich over the sandwich matrix, one CSV", [
    _SANDWICH_GRID_POINTS, _OUTPUT,
])
def _cmd_deconv_matrix(resolved, echo) -> int:
    """One row per 1-d body and row of ``SANDWICH_MATRIX``; an empty cell is a vacuous margin."""
    rows = []
    for p in SANDWICH_MATRIX:
        for body in BODIES_1D:
            rep = verify_sandwich(body, p, grid_points=int(resolved["grid_points"]))
            rows.append((body, p.n, p.alpha, p.beta, p.epsilon, p.hypothesis_radius, rep.status,
                         rep.hypothesis_sup, rep.lower_margin_min, rep.upper_margin_min))
    columns = ("body", "n", "alpha", "beta", "epsilon", "R", "status", "hypothesis_sup",
               "lower_margin_min", "upper_margin_min")
    _write_csv(resolved["output"], echo, columns, rows)
    return 0


def _criterion_indices(value) -> list | None:
    """``suite --only`` as criterion indices, from a comma-separated string or a list of ints."""
    if value is None or (isinstance(value, list) and all(type(i) is int for i in value)):
        return value
    if isinstance(value, str):
        try:
            return [int(tok) for tok in value.split(",") if tok.strip()]
        except ValueError:
            pass
    raise InvalidSpec(
        f"parameter 'only' must be comma-separated integers or a list of integers, got {value!r}"
    )


@_subcommand("suite", "run the acceptance criteria and print a table", [
    Param("profile", "desk", choices=("desk", "quick")),
    Param("only", None, str, help="comma-separated criterion indices"),
    _OPTIONAL_OUTPUT,
])
def _cmd_suite(resolved, echo) -> int:
    from . import suite  # loads scipy.stats; no other subcommand needs it

    only = _criterion_indices(resolved["only"])
    results = suite.run_all(profile=resolved["profile"], only=only)
    for result in results:
        print(result.line())
    failed = [r.index for r in results if not r.passed]
    total = sum(r.seconds for r in results)
    print(
        f"{len(results) - len(failed)}/{len(results)} criteria passed in {total:.1f}s"
        + (f"; failed: {failed}" if failed else "")
    )
    if resolved["output"]:
        fields = ("index", "title", "passed", "detail", "seconds")
        _dump_json(
            resolved["output"], echo, results=[{k: getattr(r, k) for k in fields} for r in results]
        )
    return 0 if not failed else 2


@functools.cache  # parse_args leaves the tree as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projclt",
        description="Numerical experiments on gaussian behavior of projected isotropic samples.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, help_text, params) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for p in params:
            sub.add_argument(
                p.flag or "--" + p.name.replace("_", "-"),
                dest=p.name, type=p.type, choices=p.choices, action=p.action, help=p.help,
            )
        sub.add_argument("--config", help="JSON file of parameter defaults (flags win)")
        sub.set_defaults(func=func, params=params)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(*_resolve(args, args.params))
    except ProjCltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
