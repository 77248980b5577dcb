"""Command line interface: config schema, outputs, exit codes."""

from __future__ import annotations

import argparse
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from vmstat.cli import build_parser, main, parse_config
from vmstat.dynamics import MAX_N, gen_madic_trajectory
from vmstat.mc import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def parser_options() -> dict:
    """Each subcommand of the parser and the options it takes, help aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")}
            for name, p in sub.choices.items()}


def write_config(tmp_path, data, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def circle_system() -> dict:
    return {"kind": "circle", "m": 2}


def clt_config(n=256, replicas=200, seed=5) -> dict:
    e1 = {"modes": [[1, 1.0, 0.0], [-1, 1.0, 0.0]]}
    one = {"modes": [[0, 1.0, 0.0]]}
    return {
        "system": circle_system(),
        "kernel": {
            "arity": 2,
            "terms": [
                {"coeff": 1.0, "factors": [e1, one]},
                {"coeff": 1.0, "factors": [one, e1]},
            ],
        },
        "mode": "clt",
        "n": n,
        "replicas": replicas,
        "seed": seed,
    }


def degen_config(n=256, replicas=200, seed=5) -> dict:
    e1 = {"modes": [[1, 1.0, 0.0]]}
    em1 = {"modes": [[-1, 1.0, 0.0]]}
    return {
        "system": circle_system(),
        "kernel": {
            "arity": 2,
            "terms": [
                {"coeff": 1.0, "factors": [e1, em1]},
                {"coeff": 1.0, "factors": [em1, e1]},
            ],
        },
        "mode": "degen",
        "n": n,
        "replicas": replicas,
        "seed": seed,
    }


def markov_config() -> dict:
    return {
        "system": {"kind": "markov", "Q": [[0.75, 0.25], [0.25, 0.75]]},
        "kernel": {
            "arity": 1,
            "terms": [{"coeff": 1.0, "factors": [{"values": [1.0, -1.0]}]}],
        },
    }


class TestSchema:
    def test_unknown_top_level_field_named(self, tmp_path, capsys):
        data = clt_config()
        data["sigma"] = 1.0
        rc = main(["clt", "--config", write_config(tmp_path, data)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "sigma" in err

    def test_unknown_nested_field_has_path(self, tmp_path, capsys):
        data = clt_config()
        data["kernel"]["terms"][0]["weight"] = 2.0
        rc = main(["clt", "--config", write_config(tmp_path, data)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "weight" in err and "terms[0]" in err

    def test_missing_required_field(self, tmp_path, capsys):
        data = clt_config()
        del data["kernel"]["arity"]
        rc = main(["clt", "--config", write_config(tmp_path, data)])
        assert rc == 1
        assert "arity" in capsys.readouterr().err

    def test_mode_command_mismatch(self, tmp_path, capsys):
        rc = main(["degen", "--config", write_config(tmp_path, clt_config())])
        assert rc == 1
        assert "mode" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["clt", "--config", str(tmp_path / "absent.json")])
        assert rc == 1

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc = main(["clt", "--config", str(p)])
        assert rc == 1

    def test_wrong_factor_length_markov(self, tmp_path, capsys):
        data = {
            "system": {"kind": "markov", "Q": [[0.5, 0.5], [0.5, 0.5]]},
            "kernel": {
                "arity": 1,
                "terms": [{"coeff": 1.0, "factors": [{"values": [1.0, -1.0, 0.0]}]}],
            },
            "mode": "clt",
            "n": 64,
        }
        rc = main(["clt", "--config", write_config(tmp_path, data)])
        assert rc == 1

    def test_bool_not_accepted_as_number(self, tmp_path, capsys):
        data = clt_config()
        data["kernel"]["terms"][0]["coeff"] = True
        rc = main(["clt", "--config", write_config(tmp_path, data)])
        assert rc == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400],
                             ids=["nan", "inf", "huge_int"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, value):
        data = clt_config()
        data["kernel"]["terms"][0]["coeff"] = value
        rc = main(["clt", "--config", write_config(tmp_path, data)])
        assert rc == 1
        assert "kernel.terms[0].coeff" in capsys.readouterr().err

    def test_string_in_transition_matrix(self, tmp_path, capsys):
        data = markov_config()
        data["system"]["Q"][0][1] = "0.25"
        rc = main(["variance", "--config", write_config(tmp_path, data)])
        assert rc == 1
        assert "system.Q[0][1]" in capsys.readouterr().err

    def test_ragged_transition_matrix(self, tmp_path, capsys):
        data = markov_config()
        data["system"]["Q"][1] = [1.0]
        rc = main(["variance", "--config", write_config(tmp_path, data)])
        assert rc == 1
        assert "square matrix at system.Q" in capsys.readouterr().err

    def test_unknown_field_in_kernel_base_chain(self, tmp_path, capsys):
        data = markov_config()
        data["kernel"]["base"] = {
            "kind": "markov", "chain": {"Q": [[0.75, 0.25], [0.25, 0.75]], "junk": 1}}
        rc = main(["variance", "--config", write_config(tmp_path, data)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "junk" in err and "kernel.base.chain" in err

    def test_kernel_base_chain_not_an_object(self, tmp_path, capsys):
        data = markov_config()
        data["kernel"]["base"] = {"kind": "markov", "chain": 5}
        rc = main(["variance", "--config", write_config(tmp_path, data)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "kernel.base.chain" in err

    def test_chain_values_must_be_numbers(self, tmp_path, capsys):
        data = markov_config()
        data["kernel"]["terms"][0]["factors"][0]["values"] = [True, "2"]
        rc = main(["variance", "--config", write_config(tmp_path, data)])
        assert rc == 1
        assert "kernel.terms[0].factors[0].values[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["variance", "mixing"])
    def test_bare_chain_shape_rejected(self, tmp_path, capsys, command):
        # a chain is a markov system with an arity-1 kernel, not a second shape
        data = {"Q": [[0.75, 0.25], [0.25, 0.75]], "f": [1.0, -1.0]}
        assert main([command, "--config", write_config(tmp_path, data)]) == 1
        assert "unknown field 'Q' at top level" in capsys.readouterr().err

    def test_negative_comparison_variance_has_path(self, tmp_path, capsys):
        data = clt_config()
        data["comparison"] = {"kind": "gaussian", "variance": -1.0}
        assert main(["clt", "--config", write_config(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert "nonnegative" in err and "comparison.variance" in err

    @pytest.mark.parametrize("command", ["decompose", "clt"])
    @pytest.mark.parametrize("k", [2**53 + 1, 2**1100], ids=["2^53+1", "2^1100"])
    def test_mode_index_beyond_float_range(self, tmp_path, capsys, command, k):
        data = clt_config(n=64, replicas=20)
        data["kernel"]["terms"][0]["factors"][0]["modes"][0][0] = k
        rc = main([command, "--config", write_config(tmp_path, data)])
        assert rc == 1
        assert "kernel.terms[0].factors[0].modes[0][0]" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_length_beyond_max_n(self, tmp_path, capsys, monkeypatch, where):
        generated = []
        monkeypatch.setattr("vmstat.dynamics.gen_madic_trajectory",
                            lambda *args: generated.append(args))
        data, extra = clt_config(), []
        if where == "config":
            data["n"] = MAX_N + 1
        else:
            extra = ["--n", str(MAX_N + 1)]
        assert main(["clt", "--config", write_config(tmp_path, data)] + extra) == 1
        assert f"between 1 and {MAX_N} at n" in capsys.readouterr().err
        assert generated == []

    def test_circle_window_checked_at_parse(self, tmp_path, capsys):
        # a circle system has no window field, not even the old default 64
        data = clt_config()
        data["system"]["window"] = 64
        for command in ("variance", "clt"):
            assert main([command, "--config", write_config(tmp_path, data)]) == 1
            assert "unknown field 'window' at system" in capsys.readouterr().err

    @pytest.mark.parametrize("m, rc", [(256, 0), (257, 1)])
    def test_circle_base_bounded_at_256(self, tmp_path, capsys, monkeypatch, m, rc):
        # digits are drawn as uint8, so the reader stops m > 256 at its path
        points = []
        def traced(*args):
            traj = gen_madic_trajectory(*args)
            points.append(traj.points)
            return traj
        monkeypatch.setattr("vmstat.dynamics.gen_madic_trajectory", traced)
        data = clt_config(n=128, replicas=40)
        data["system"]["m"] = m
        assert main(["clt", "--config", write_config(tmp_path, data), "--workers", "1"]) == rc
        if rc:
            assert "between 2 and 256 at system.m" in capsys.readouterr().err
            assert points == []
        else:
            assert len(points) == 40
            assert all(len(p) == 128 and 0 <= p.min() and p.max() < 1 for p in points)


class TestOptions:
    def test_each_command_takes_only_the_options_it_reads(self):
        experiment = {"--config", "--out", "--seed", "--replicas", "--n", "--workers"}
        want = {
            **{c: experiment for c in ("slln", "clt", "degen")},
            "growth": {"--config", "--n"},
            "mixing": {"--config", "--out", "--n"},
            **{c: {"--config"} for c in ("decompose", "variance", "spectrum")},
        }
        got = parser_options()
        assert got == want
        assert sum(map(len, got.values())) == 26

    def test_readme_table_matches_parser(self):
        # each row of the README's command table: `a`, `b` | `--config ...` (notes)
        lines = (ROOT / "README.md").read_text().splitlines()
        start = lines.index("| commands | options |") + 2
        documented = {}
        for row in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
            commands, options = row.strip("|").split("|")
            for name in re.findall(r"`([^`]+)`", commands):
                assert name not in documented, f"{name} listed twice"
                documented[name] = set(re.match(r"\s*`([^`]+)`", options).group(1).split())
        assert documented == parser_options()

    def test_readme_examples_parse(self):
        # every `vmstat ...` line of the README's sh blocks parses, on a shipped config
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
        examples = [line.split()[1:] for block in blocks for line in block.splitlines()
                    if line.startswith("vmstat ")]
        assert len(examples) >= 10
        for argv in examples:
            args = build_parser().parse_args(argv)
            assert (ROOT / args.config).is_file(), args.config

    @pytest.mark.parametrize("argv", [
        ["clt", "--bogus"],
        ["decompose", "--seed", "7"],
        ["mixing", "--workers", "2"],
        ["growth", "--seed", "1"],
    ], ids=["unknown", "decompose_seed", "mixing_workers", "growth_seed"])
    def test_usage_error_exits_one(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, clt_config())
        assert main(argv[:1] + ["--config", cfg] + argv[1:]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_mixing_n_is_the_last_lag(self, capsys):
        assert main(["mixing", "--help"]) == 0
        assert "last lag of the table" in capsys.readouterr().out
        assert main(["clt", "--help"]) == 0
        assert "last lag" not in capsys.readouterr().out

    def test_missing_config_exits_one_and_help_zero(self, capsys):
        assert main(["clt"]) == 1
        assert main(["clt", "--help"]) == 0
        assert "--replicas" in capsys.readouterr().out


class TestExperimentCommands:
    def test_clt_pass_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["clt", "--config", write_config(tmp_path, clt_config()),
                   "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "PASS" in stdout
        result = json.loads((out / "result.json").read_text())
        assert result["law"]["kind"] == "gaussian"
        assert result["law"]["variance"] == pytest.approx(8.0, abs=1e-9)
        assert result["test"]["pass"] is True
        assert len(result["values"]) == 200
        assert (out / "replicas.csv").exists()
        assert (out / "summary.csv").exists()

    def test_statistical_failure_exits_two(self, tmp_path, capsys):
        data = clt_config()
        data["comparison"] = {"kind": "gaussian", "variance": 100.0}
        rc = main(["clt", "--config", write_config(tmp_path, data)])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    def test_clt_rejects_weighted_chi_square_comparison(self, tmp_path, capsys):
        data = clt_config()
        data["comparison"] = {"kind": "wcs", "lambdas": [1.0, 1.0]}
        rc = main(["clt", "--config", write_config(tmp_path, data)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "comparison" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["slln"])
    def test_comparison_rejected_where_no_test_reads_it(self, tmp_path, capsys, command):
        data = clt_config()
        data["mode"] = command
        data["comparison"] = {"kind": "wcs", "lambdas": [5.0]}
        out = tmp_path / "out"
        rc = main([command, "--config", write_config(tmp_path, data), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "comparison" in err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")
                                            if "mode" in json.loads(p.read_text())))
    def test_result_config_reads_back(self, tmp_path, capsys, name):
        # the config block of result.json, system block included, is a config
        data = json.loads((CONFIGS / f"{name}.json").read_text())
        data.update(n=64, replicas=8)
        out = tmp_path / "out"
        assert main([data["mode"], "--config", write_config(tmp_path, data),
                     "--out", str(out)]) in (0, 2)
        written = json.loads((out / "result.json").read_text())["config"]
        kind, fields = parse_config(written)
        assert kind == "experiment"
        assert ExperimentConfig(**fields).to_json_dict() == written

    def test_degen_runs(self, tmp_path, capsys):
        rc = main(["degen", "--config", write_config(tmp_path, degen_config())])
        assert rc == 0
        assert "ks_two_sample" in capsys.readouterr().out

    def test_growth_default_n(self, tmp_path, capsys):
        data = json.loads((CONFIGS / "growth_doubling.json").read_text())
        del data["n"]
        rc = main(["growth", "--config", write_config(tmp_path, data)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["name"] == "growth_bound" and out["pass"] is True
        assert [n for n, _ in out["ratios"]] == [2 ** e for e in range(1, 11)]

    def test_flag_overrides(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_config(tmp_path, clt_config(seed=5))
        assert main(["clt", "--config", cfg, "--out", str(out_a),
                     "--replicas", "50"]) == 0
        assert main(["clt", "--config", cfg, "--out", str(out_b),
                     "--replicas", "50", "--seed", "6"]) == 0
        ra = json.loads((out_a / "result.json").read_text())
        rb = json.loads((out_b / "result.json").read_text())
        assert len(ra["values"]) == 50
        assert ra["config"]["seed"] == 5 and rb["config"]["seed"] == 6
        assert ra["values"] != rb["values"]

    def test_workers_flag_reproducible(self, tmp_path):
        cfg = write_config(tmp_path, clt_config(n=128, replicas=64))
        out_a, out_b = tmp_path / "w1", tmp_path / "w4"
        assert main(["clt", "--config", cfg, "--out", str(out_a),
                     "--workers", "1"]) == 0
        assert main(["clt", "--config", cfg, "--out", str(out_b),
                     "--workers", "4"]) == 0
        assert ((out_a / "result.json").read_bytes()
                == (out_b / "result.json").read_bytes())

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, monkeypatch, workers):
        ran = []
        monkeypatch.setattr("vmstat.cli.run_experiment", lambda *args, **kw: ran.append(args))
        cfg = write_config(tmp_path, clt_config(n=128, replicas=8))
        assert main(["clt", "--config", cfg, "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
        assert ran == []


class TestAnalysisCommands:
    def test_growth_n_from_flag_then_config(self, tmp_path, capsys):
        data = json.loads((CONFIGS / "growth_doubling.json").read_text())
        data["n"] = 100
        cfg = write_config(tmp_path, data)
        for argv, last in (([], 64), (["--n", "2"], 2), (["--n", "256"], 256)):
            assert main(["growth", "--config", cfg, *argv]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["ratios"][-1][0] == last
            assert out["statistic"] == max(r for _, r in out["ratios"])
        # the first ratio is at n = 2, so a smaller n names no ratio
        for argv in (["--n", "0"], ["--n", "1"]):
            assert main(["growth", "--config", cfg, *argv]) == 1
            assert "between 2 and" in capsys.readouterr().err
        data["n"] = 1
        assert main(["growth", "--config", write_config(tmp_path, data)]) == 1
        assert f"between 2 and {MAX_N} at n" in capsys.readouterr().err

    def test_growth_ignores_experiment_fields(self, tmp_path, capsys):
        # like the other analyses, growth reads only the kernel and n
        assert main(["growth", "--config", str(CONFIGS / "growth_doubling.json")]) == 0
        plain = capsys.readouterr().out
        data = json.loads((CONFIGS / "growth_doubling.json").read_text())
        data.update(mode="clt", seed=-1, replicas=3, comparison={"kind": "wcs", "lambdas": [5.0]})
        assert main(["growth", "--config", write_config(tmp_path, data)]) == 0
        assert capsys.readouterr().out == plain
        data["mode"] = "growth"
        assert main(["growth", "--config", write_config(tmp_path, data)]) == 1
        assert "mode must be one of" in capsys.readouterr().err

    def test_growth_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("vmstat.cli.growth_bound", lambda f: 1.0)
        assert main(["growth", "--config", str(CONFIGS / "growth_doubling.json")]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is False and out["threshold"] == 1.0 and out["statistic"] == 2.0

    def test_spectrum_rejects_chain(self, tmp_path, capsys):
        # spectrum's weights are those of the martingale part, and growth's
        # partial sums those of the transfer orbits, both derived on the
        # circle only; f's own spectrum is not the limit law on a chain
        data = json.loads((CONFIGS / "clt_markov.json").read_text())
        u = {"values": [1.0, -1.0]}
        data["kernel"] = {"arity": 2, "terms": [{"coeff": 1.0, "factors": [u, u]}]}
        cfg = write_config(tmp_path, data)
        for command in ("spectrum", "growth"):
            assert main([command, "--config", cfg]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "defined on the circle base" in captured.err

    def test_overflow_prints_no_json(self, tmp_path, capsys):
        # a statistic and bound that overflow to inf are not JSON; the command
        # prints nothing rather than "Infinity" beside "pass": true
        data = json.loads((CONFIGS / "degen_doubling.json").read_text())
        for term in data["kernel"]["terms"]:
            term["coeff"] = 1e300
            for factor in term["factors"]:
                factor["modes"] = [[k, re * 1e10, im * 1e10] for k, re, im in factor["modes"]]
        assert main(["growth", "--config", write_config(tmp_path, data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "not JSON compliant" in captured.err

    def test_huge_coefficients_exit_without_traceback(self, tmp_path, capsys):
        # |c|^2 of a 1e308 coefficient overflows; its L2 norm is inf, which the
        # JSON output refuses, so the command reports an error, not a traceback
        data = json.loads((CONFIGS / "degen_doubling.json").read_text())
        for term in data["kernel"]["terms"]:
            for factor in term["factors"]:
                factor["modes"] = [[k, re * 1e308, im] for k, re, im in factor["modes"]]
        assert main(["growth", "--config", write_config(tmp_path, data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_json_refusal_names_the_field(self, tmp_path, capsys):
        # the two terms cancel on the diagonal, so the statistic is 0 while the
        # bound, which adds their sizes, overflows
        data = json.loads((CONFIGS / "degen_doubling.json").read_text())
        for term, sign in zip(data["kernel"]["terms"], (1, -1)):
            term["coeff"] = sign * 1e150
            for factor in term["factors"]:
                factor["modes"] = [[k, re * 1e150, im] for k, re, im in factor["modes"]]
        assert main(["growth", "--config", write_config(tmp_path, data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: output field threshold: ")

    def test_decompose(self, tmp_path, capsys):
        rc = main(["decompose", "--config", write_config(tmp_path, clt_config())])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["R0"] == 0.0
        assert len(out["parts"]) == 2

    def test_variance_kernel_config(self, tmp_path, capsys):
        rc = main(["variance", "--config", write_config(tmp_path, clt_config())])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["sigma_squared"] - 2.0) < 1e-9
        assert abs(out["statistic_variance"] - 8.0) < 1e-9

    def test_variance_chain_config(self, tmp_path, capsys):
        rc = main(["variance", "--config", write_config(tmp_path, markov_config())])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["sigma_squared"] - 3.0) < 1e-12
        assert out["statistic_variance"] == out["sigma_squared"]

    def test_spectrum(self, tmp_path, capsys):
        rc = main(["spectrum", "--config", write_config(tmp_path, degen_config())])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert np.allclose(out["lambdas"], [1.0, 1.0], atol=1e-9)
        assert abs(out["sum"] - out["diag_mean"]) < 1e-10

    def test_mixing_stdout(self, tmp_path, capsys):
        rc = main(["mixing", "--config", write_config(tmp_path, markov_config()),
                   "--n", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,phi,psi"
        assert len(lines) == 6
        row = lines[2].split(",")
        assert row[0] == "1"
        assert abs(float(row[2]) - 0.5) < 1e-12
        assert abs(float(row[1]) - 0.25) < 1e-12

    def test_mixing_accepts_markov_system_config(self, tmp_path, capsys):
        out = tmp_path / "mix"
        rc = main(["mixing", "--config", write_config(tmp_path, markov_config()),
                   "--out", str(out), "--n", "3"])
        assert rc == 0
        text = (out / "mixing.csv").read_text()
        assert text.splitlines()[0] == "n,phi,psi"

    @pytest.mark.parametrize("n", [-1, MAX_N + 1])
    def test_mixing_n_bounded_before_the_table(self, tmp_path, capsys, monkeypatch, n):
        calls = []
        monkeypatch.setattr("vmstat.cli.mixing_coefficients",
                            lambda *args: calls.append(args) or [])
        cfg = write_config(tmp_path, markov_config())
        assert main(["mixing", "--config", cfg, "--n", str(n)]) == 1
        assert capsys.readouterr().err.rstrip().endswith("at n")
        assert calls == []

    def test_mixing_n_zero_is_one_row(self, tmp_path, capsys):
        assert main(["mixing", "--config", write_config(tmp_path, markov_config()),
                     "--n", "0"]) == 0
        assert capsys.readouterr().out == "n,phi,psi\n0,0.5,1.0\n"

    def test_mixing_rejects_circle_config(self, tmp_path, capsys):
        rc = main(["mixing", "--config", write_config(tmp_path, clt_config())])
        assert rc == 1
