"""Command line front end.

Subcommands: decompose, variance, spectrum, slln, clt, degen, growth,
check-conditions, mixing.  Every command reads a JSON config file.  The
schema is closed: unknown fields are rejected with their path.  Exit
code 0 means success (and a passing test for experiment commands), 2 a
failed statistical test, 1 an operational error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .fourier import FourierPoly, integral
from .hoeffding import symmetric_parts
from .kernels import (
    CircleBase,
    KernelTerm,
    MarkovBase,
    SeparableKernel,
    diag_restrict,
    same_base,
    summability_certificate,
)
from .markov import MarkovChain, StateFunction, green_kubo_variance, mixing_coefficients
from .martingale import (
    LimitLaw,
    clt_variance,
    martingale_coboundary_d2,
    spectral_decompose,
)
from .mc import (
    CircleSystem,
    ExperimentConfig,
    MarkovSystem,
    canonical_json_bytes,
    run_experiment,
    write_replicas_csv,
    write_summary_csv,
)

EXPERIMENT_COMMANDS = ("slln", "clt", "degen", "growth")


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
    if _kind(d, path) == "circle":
        _check_keys(d, path, {"kind"}, {"m", "window"})
        m = _integer(d.get("m", 2), f"{path}.m")
        window = _integer(d.get("window", 64), f"{path}.window")
        _build(lambda: CircleBase(m), f"{path}.m")
        return _build(lambda: CircleSystem(m, window), f"{path}.window")
    _check_keys(d, path, {"kind", "Q"})
    return MarkovSystem(_chain(d["Q"], f"{path}.Q"))


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
    if "base" in d and not same_base(_parse_base(d["base"], f"{path}.base"), base):
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
        return LimitLaw.gaussian(_number(d["variance"], f"{path}.variance"))
    if kind == "wcs":
        _check_keys(d, path, {"kind", "lambdas"})
        return LimitLaw.weighted_chi_square(_numbers(d["lambdas"], f"{path}.lambdas"))
    raise ConfigError(f"law kind must be 'gaussian' or 'wcs' at {path}")


def parse_config(data: dict):
    """Parse a config object into its typed pieces.

    Two shapes are accepted: a bare chain object {"Q": ..., "f": ...}
    for chain-only commands, and the experiment shape with system and
    kernel blocks.  Returns ("chain", chain, f | None) or
    ("experiment", dict).
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if "Q" in data:
        _check_keys(data, "", {"Q"}, {"f"})
        chain = _chain(data["Q"], "Q")
        f = None
        if "f" in data:
            vals = _numbers(data["f"], "f")
            if len(vals) != chain.n_states:
                raise ConfigError("field 'f' must list one value per state")
            f = StateFunction(np.array(vals))
        return "chain", chain, f
    _check_keys(
        data,
        "",
        {"system", "kernel"},
        {"mode", "n", "replicas", "seed", "alpha", "comparison"},
    )
    system = _parse_system(data["system"], "system")
    kernel = _parse_kernel(data["kernel"], "kernel", system.base())
    out = {"system": system, "kernel": kernel}
    if "mode" in data:
        if data["mode"] not in EXPERIMENT_COMMANDS:
            raise ConfigError(f"mode must be one of {EXPERIMENT_COMMANDS} at mode")
        out["mode"] = data["mode"]
    if "n" in data:
        out["n"] = _integer(data["n"], "n")
    if "replicas" in data:
        out["replicas"] = _integer(data["replicas"], "replicas")
    if "seed" in data:
        out["seed"] = _integer(data["seed"], "seed")
    if "alpha" in data:
        out["alpha"] = _number(data["alpha"], "alpha")
    if "comparison" in data:
        out["comparison"] = _parse_comparison(data["comparison"], "comparison")
    return "experiment", out


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")


def _emit(obj) -> None:
    sys.stdout.write(canonical_json_bytes(obj).decode())


def _resolve_workers(args) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    env = os.environ.get("VMSTAT_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"VMSTAT_WORKERS must be an integer, got {env!r}")
    return 1


def _experiment_config(args, parsed: dict) -> ExperimentConfig:
    if "mode" in parsed and parsed["mode"] != args.command:
        raise ConfigError(
            f"config mode '{parsed['mode']}' does not match command '{args.command}'"
        )
    n = args.n if args.n is not None else parsed.get("n")
    if n is None:
        if args.command == "growth":
            n = 1024
        else:
            raise ConfigError("field 'n' is required (config or --n)")
    kwargs = {
        "system": parsed["system"],
        "kernel": parsed["kernel"],
        "mode": args.command,
        "n": n,
    }
    if args.replicas is not None:
        kwargs["replicas"] = args.replicas
    elif "replicas" in parsed:
        kwargs["replicas"] = parsed["replicas"]
    if args.seed is not None:
        kwargs["seed"] = args.seed
    elif "seed" in parsed:
        kwargs["seed"] = parsed["seed"]
    if "alpha" in parsed:
        kwargs["alpha"] = parsed["alpha"]
    if "comparison" in parsed:
        kwargs["comparison"] = parsed["comparison"]
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_experiment(args) -> int:
    kind, *rest = _load_and_parse(args)
    if kind != "experiment":
        raise ConfigError("experiment commands need a config with system and kernel")
    cfg = _experiment_config(args, rest[0])
    result = run_experiment(cfg, workers=_resolve_workers(args))
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


def _load_and_parse(args):
    data = _load_config_file(args.config)
    parsed = parse_config(data)
    return parsed


def _cmd_decompose(args) -> int:
    kind, *rest = _load_and_parse(args)
    if kind != "experiment":
        raise ConfigError("decompose needs a config with system and kernel")
    parts = symmetric_parts(rest[0]["kernel"])
    _emit(parts.to_json_dict())
    return 0


def _cmd_variance(args) -> int:
    parsed = _load_and_parse(args)
    if parsed[0] == "chain":
        _, chain, f = parsed
        if f is None:
            raise ConfigError("variance on a chain config needs the field 'f'")
        centered = StateFunction(f.values - chain.mean(f))
        sigma2 = green_kubo_variance(chain, centered)
        _emit({"sigma_squared": sigma2})
        return 0
    kernel = parsed[1]["kernel"]
    parts = symmetric_parts(kernel)
    sigma2 = clt_variance(parts.levels[0])
    d = kernel.arity
    _emit({"sigma_squared": sigma2, "statistic_variance": d * d * sigma2})
    return 0


def _cmd_spectrum(args) -> int:
    kind, *rest = _load_and_parse(args)
    if kind != "experiment":
        raise ConfigError("spectrum needs a config with system and kernel")
    kernel = rest[0]["kernel"]
    if kernel.arity != 2:
        raise ConfigError("spectrum is defined for arity-2 kernels")
    if isinstance(kernel.base, CircleBase):
        parts = martingale_coboundary_d2(kernel)
        target = parts.martingale
    else:
        target = kernel
    pairs = spectral_decompose(target)
    lambdas = [lam for lam, _ in pairs]
    diag = diag_restrict(target)
    if isinstance(diag, FourierPoly):
        trace = float(integral(diag).real)
    else:
        trace = target.base.chain.mean(diag)
    _emit({"lambdas": lambdas, "sum": float(sum(lambdas)), "diag_mean": trace})
    return 0


def _cmd_check_conditions(args) -> int:
    kind, *rest = _load_and_parse(args)
    if kind != "experiment":
        raise ConfigError("check-conditions needs a config with system and kernel")
    report = summability_certificate(rest[0]["kernel"])
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
    parsed = _load_and_parse(args)
    if parsed[0] == "chain":
        chain = parsed[1]
    else:
        system = parsed[1]["system"]
        if not isinstance(system, MarkovSystem):
            raise ConfigError("mixing needs a markov chain config")
        chain = system.chain
    n_max = args.n if args.n is not None else 20
    table = mixing_coefficients(chain, n_max)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmstat",
        description="V-statistics of measure-preserving systems: decompositions, "
        "limit laws and Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "decompose": "symmetric Hoeffding decomposition of the kernel",
        "variance": "asymptotic variance of the normalized statistic",
        "spectrum": "eigenvalues of the martingale part of an arity-2 kernel",
        "slln": "law-of-large-numbers experiment",
        "clt": "Gaussian-limit experiment",
        "degen": "degenerate weighted-chi-square experiment",
        "growth": "diagonal growth-ratio diagnostic",
        "check-conditions": "summability certificate for the kernel",
        "mixing": "phi/psi mixing coefficient table of a chain",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="directory for result files")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--replicas", type=int, help="override the replica count")
        p.add_argument("--n", type=int, help="override the trajectory length")
        p.add_argument(
            "--workers",
            type=int,
            help="parallel workers (default: VMSTAT_WORKERS or 1); never changes results",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in EXPERIMENT_COMMANDS:
            return _cmd_experiment(args)
        handler = {
            "decompose": _cmd_decompose,
            "variance": _cmd_variance,
            "spectrum": _cmd_spectrum,
            "check-conditions": _cmd_check_conditions,
            "mixing": _cmd_mixing,
        }[args.command]
        return handler(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
