"""Command line front end.

Subcommands: the experiments slln, clt and degen (vmstat.mc), and the
analyses decompose, variance, spectrum, growth, check-conditions and
mixing, each with --config and the options its handler reads (COMMANDS).
Every command reads one JSON config shape, a system block and a kernel
block plus the experiment fields; the schema is closed: unknown
fields are rejected with their path.  Exit code 0 means success (and a
passing test for experiments and growth), 2 a failed test, 1 an
operational or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import MAX_N
from .fourier import FourierPoly
from .hoeffding import symmetric_parts
from .kernels import (
    CircleBase,
    KernelTerm,
    MarkovBase,
    SeparableKernel,
    diag_restrict,
    summability_certificate,
)
from .markov import MarkovChain, StateFunction, mixing_coefficients
from .martingale import (
    LimitLaw,
    clt_variance,
    growth_bound,
    growth_ratios,
    martingale_coboundary_d2,
    spectral_decompose,
)
from .mc import (
    MODES,
    ExperimentConfig,
    canonical_json_bytes,
    run_experiment,
    write_replicas_csv,
    write_summary_csv,
)

MAX_MODE = 2 ** 53  # largest |mode index| that float64 holds exactly


class ConfigError(ValueError):
    pass


def _check_keys(d: dict, path: str, required: set, optional: set = frozenset()):
    if not isinstance(d, dict):
        raise ConfigError(f"expected an object at {path or 'top level'}")
    allowed = required | optional
    for k in d:
        if k not in allowed:
            raise ConfigError(f"unknown field '{k}' at {path or 'top level'}")
    for k in sorted(required):
        if k not in d:
            raise ConfigError(f"missing field '{k}' at {path or 'top level'}")


def _number(value, path: str) -> float:
    # NaN fails the comparison; Python compares a huge int exactly
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"expected a finite number at {path}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer at {path}")
    return value


def _length(value, path: str, least: int = 1) -> int:
    n = _integer(value, path)
    if not least <= n <= MAX_N:
        raise ConfigError(f"expected a length between {least} and {MAX_N} at {path}")
    return n


def _numbers(value, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"expected a list at {path}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _build(make, path: str):
    """Call a validating constructor; report its ValueError at path."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(f"{exc} at {path}") from exc


def _chain(value, path: str) -> MarkovChain:
    if not isinstance(value, list):
        raise ConfigError(f"expected a list of rows at {path}")
    rows = [_numbers(row, f"{path}[{i}]") for i, row in enumerate(value)]
    if any(len(row) != len(rows) for row in rows):
        raise ConfigError(f"expected a square matrix at {path}")
    return _build(lambda: MarkovChain(np.array(rows)), path)


def _kind(d, path: str) -> str:
    if not isinstance(d, dict):
        raise ConfigError(f"expected an object at {path}")
    if d.get("kind") not in ("circle", "markov"):
        raise ConfigError(f"kind must be 'circle' or 'markov' at {path}.kind")
    return d["kind"]


def _parse_system(d, path: str):
    """The base and the trajectory window a system block names (64 on a chain)."""
    if _kind(d, path) == "circle":
        _check_keys(d, path, {"kind"}, {"m", "window"})
        m = _integer(d.get("m", 2), f"{path}.m")
        window = _integer(d.get("window", 64), f"{path}.window")
        _build(lambda: CircleBase(m).system(64), f"{path}.m")
        base = CircleBase(m)
        _build(lambda: base.system(window), f"{path}.window")
        return base, window
    _check_keys(d, path, {"kind", "Q"})
    return MarkovBase(_chain(d["Q"], f"{path}.Q")), 64


def _parse_base(d, path: str):
    """The exact shape CircleBase/MarkovBase.to_json_dict write."""
    if _kind(d, path) == "circle":
        _check_keys(d, path, {"kind", "m"})
        return _build(lambda: CircleBase(_integer(d["m"], f"{path}.m")), f"{path}.m")
    _check_keys(d, path, {"kind", "chain"})
    _check_keys(d["chain"], f"{path}.chain", {"Q"})
    return MarkovBase(_chain(d["chain"]["Q"], f"{path}.chain.Q"))


def _parse_factor(d, path: str):
    if not isinstance(d, dict):
        raise ConfigError(f"expected an object at {path}")
    if "modes" in d:
        _check_keys(d, path, {"modes"})
        modes = d["modes"]
        if not isinstance(modes, list):
            raise ConfigError(f"expected a list at {path}.modes")
        coeffs = {}
        for i, entry in enumerate(modes):
            if not isinstance(entry, list) or len(entry) != 3:
                raise ConfigError(f"expected [k, re, im] at {path}.modes[{i}]")
            k = _integer(entry[0], f"{path}.modes[{i}][0]")
            if abs(k) > MAX_MODE:
                raise ConfigError(f"mode index beyond 2**53 at {path}.modes[{i}][0]")
            re = _number(entry[1], f"{path}.modes[{i}][1]")
            im = _number(entry[2], f"{path}.modes[{i}][2]")
            coeffs[k] = coeffs.get(k, 0.0) + complex(re, im)
        return FourierPoly(coeffs)
    if "values" in d:
        _check_keys(d, path, {"values"})
        return StateFunction(np.array(_numbers(d["values"], f"{path}.values")))
    raise ConfigError(f"factor at {path} needs either 'modes' or 'values'")


def _parse_kernel(d, path: str, base) -> SeparableKernel:
    _check_keys(d, path, {"arity", "terms"}, {"base"})
    arity = _integer(d["arity"], f"{path}.arity")
    if "base" in d and _parse_base(d["base"], f"{path}.base") != base:
        raise ConfigError(f"kernel base at {path}.base does not match the system")
    terms_d = d["terms"]
    if not isinstance(terms_d, list):
        raise ConfigError(f"expected a list at {path}.terms")
    terms = []
    for i, td in enumerate(terms_d):
        tpath = f"{path}.terms[{i}]"
        _check_keys(td, tpath, {"coeff", "factors"})
        coeff = _number(td["coeff"], f"{tpath}.coeff")
        factors_d = td["factors"]
        if not isinstance(factors_d, list) or len(factors_d) != arity:
            raise ConfigError(f"expected {arity} factors at {tpath}.factors")
        factors = tuple(_parse_factor(fd, f"{tpath}.factors[{j}]") for j, fd in enumerate(factors_d))
        terms.append(KernelTerm(coeff, factors))
    return _build(lambda: SeparableKernel(arity, base, tuple(terms)), path)


def _parse_comparison(d, path: str):
    if d == "auto":
        return None
    if not isinstance(d, dict):
        raise ConfigError(f"comparison must be 'auto' or a law object at {path}")
    kind = d.get("kind")
    if kind == "gaussian":
        _check_keys(d, path, {"kind", "variance"})
        variance = _number(d["variance"], f"{path}.variance")
        return _build(lambda: LimitLaw.gaussian(variance), f"{path}.variance")
    if kind == "wcs":
        _check_keys(d, path, {"kind", "lambdas"})
        return LimitLaw.weighted_chi_square(_numbers(d["lambdas"], f"{path}.lambdas"))
    raise ConfigError(f"law kind must be 'gaussian' or 'wcs' at {path}")


def parse_config(data: dict):
    """Parse a config object into ("experiment", fields).

    fields are the ExperimentConfig fields the config sets; the system
    block gives the kernel's base and the window.  The constant first
    item stays only for the benchmark harness, which unpacks the pair.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(
        data,
        "",
        {"system", "kernel"},
        {"mode", "n", "replicas", "seed", "alpha", "comparison"},
    )
    base, window = _parse_system(data["system"], "system")
    out = {"kernel": _parse_kernel(data["kernel"], "kernel", base), "window": window}
    if "mode" in data:
        if data["mode"] not in MODES:
            raise ConfigError(f"mode must be one of {MODES} at mode")
        out["mode"] = data["mode"]
    for key, read in (("n", _length), ("replicas", _integer), ("seed", _integer),
                      ("alpha", _number), ("comparison", _parse_comparison)):
        if key in data:
            out[key] = read(data[key], key)
    return "experiment", out


def _load(path: str) -> dict:
    """Read and parse a config file into its ExperimentConfig fields."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    return parse_config(data)[1]


def _emit(obj) -> None:
    sys.stdout.write(canonical_json_bytes(obj).decode())


def _cmd_experiment(args) -> int:
    fields = _load(args.config)
    if fields.setdefault("mode", args.command) != args.command:
        raise ConfigError(
            f"config mode '{fields['mode']}' does not match command '{args.command}'"
        )
    if args.n is not None:
        fields["n"] = _length(args.n, "n")
    for key in ("replicas", "seed"):
        if getattr(args, key, None) is not None:
            fields[key] = getattr(args, key)
    if "n" not in fields:
        raise ConfigError("field 'n' is required (config or --n)")
    result = run_experiment(ExperimentConfig(**fields), workers=max(1, args.workers or 1))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "result.json").write_bytes(result.to_json_bytes())
        write_replicas_csv(result, out / "replicas.csv")
        write_summary_csv(result, out / "summary.csv")
    t = result.test
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{t['name']}: statistic={t['statistic']:.6g} threshold={t['threshold']:.6g} {status}"
    )
    for name, row in result.summary.items():
        print(f"{name}: {row['value']:.6g} (stderr {row['stderr']:.3g})")
    print(f"elapsed: {result.timing:.2f}s", file=sys.stderr)
    return 0 if result.passed else 2


def _cmd_decompose(args) -> int:
    parts = symmetric_parts(_load(args.config)["kernel"])
    _emit(parts.to_json_dict())
    return 0


def _cmd_variance(args) -> int:
    kernel = _load(args.config)["kernel"]
    parts = symmetric_parts(kernel)
    sigma2 = clt_variance(parts.levels[0])
    d = kernel.arity
    _emit({"sigma_squared": sigma2, "statistic_variance": d * d * sigma2})
    return 0


def _cmd_spectrum(args) -> int:
    kernel = _load(args.config)["kernel"]
    if kernel.arity != 2:
        raise ConfigError("spectrum is defined for arity-2 kernels")
    target = martingale_coboundary_d2(kernel).martingale
    pairs = spectral_decompose(target)
    lambdas = [lam for lam, _ in pairs]
    trace = float(target.base.mean(diag_restrict(target)).real)
    _emit({"lambdas": lambdas, "sum": float(sum(lambdas)), "diag_mean": trace})
    return 0


def _cmd_growth(args) -> int:
    fields = _load(args.config)
    n = _length(args.n if args.n is not None else fields.get("n", 1024), "n")
    ratios = growth_ratios(fields["kernel"], max_exponent=max(1, n.bit_length() - 1))
    stat = max(r for _, r in ratios)
    bound = growth_bound(fields["kernel"])
    _emit({"name": "growth_bound", "statistic": stat, "threshold": bound,
           "ratios": ratios, "pass": stat <= bound})
    return 0 if stat <= bound else 2


def _cmd_check_conditions(args) -> int:
    report = summability_certificate(_load(args.config)["kernel"])
    _emit(
        {
            "exponent": report.exponent,
            "orbit_lengths": {str(k): v for k, v in report.orbit_lengths.items()},
            "certificate": report.certificate,
            "converges": report.converges,
            "skipped_mass": report.skipped_mass,
        }
    )
    return 0


def _cmd_mixing(args) -> int:
    base = _load(args.config)["kernel"].base
    if base.kind != "markov":
        raise ConfigError("mixing needs a markov chain config")
    n_max = _length(args.n if args.n is not None else 20, "n", least=0)
    table = mixing_coefficients(base.chain, n_max)
    lines = ["n,phi,psi"]
    for n, phi, psi in table:
        lines.append(f"{int(n)},{float(phi)!r},{float(psi)!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "mixing.csv").write_text(text)
    else:
        sys.stdout.write(text)
    return 0


_EXPERIMENT_OPTIONS = ("--out", "--seed", "--replicas", "--n", "--workers")

#: name: (help, handler, options besides --config); an option is a name from
#: OPTIONS or a (name, help) pair that replaces the shared help text
COMMANDS = {
    "decompose": ("symmetric Hoeffding decomposition of the kernel", _cmd_decompose, ()),
    "variance": ("asymptotic variance of the normalized statistic", _cmd_variance, ()),
    "spectrum": ("eigenvalues of the martingale part of an arity-2 kernel", _cmd_spectrum, ()),
    "slln": ("law-of-large-numbers experiment", _cmd_experiment, _EXPERIMENT_OPTIONS),
    "clt": ("Gaussian-limit experiment", _cmd_experiment, _EXPERIMENT_OPTIONS),
    "degen": ("degenerate weighted-chi-square experiment", _cmd_experiment, _EXPERIMENT_OPTIONS),
    "growth": ("diagonal growth-ratio diagnostic", _cmd_growth,
               (("--n", "largest n of the growth ratios (default: the config's n, else 1024)"),)),
    "check-conditions": ("summability certificate for the kernel", _cmd_check_conditions, ()),
    "mixing": ("phi/psi mixing coefficient table of a chain", _cmd_mixing,
               ("--out", ("--n", "last lag of the table (default 20)"))),
}

OPTIONS = {
    "--out": {"help": "directory for result files"},
    "--seed": {"type": int, "help": "override the master seed"},
    "--replicas": {"type": int, "help": "override the replica count"},
    "--n": {"type": int, "help": "override the trajectory length"},
    "--workers": {"type": int, "help": "parallel workers (default 1); never changes results"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmstat",
        description="V-statistics of measure-preserving systems: decompositions, "
        "limit laws and Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="JSON config path")
        for entry in options:
            option, help_text = (entry, None) if isinstance(entry, str) else entry
            settings = OPTIONS[option]
            p.add_argument(option, **{**settings, "help": help_text or settings["help"]})
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return 1 if exc.code else 0
    try:
        return args.handler(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
