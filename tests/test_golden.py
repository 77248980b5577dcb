"""Golden sha256 digests of the CLI's output bytes on the shipped configs,
and of the exact algebra on the corpora of acceptance criteria 02 and 09.

Each experiment config gives result.json at --n 256 --replicas 40; every
config gives the stdout of each analysis command that accepts it.  A
change to any of these bytes must be deliberate: it updates the digest
here and is recorded in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from vmstat.cli import main
from vmstat.hoeffding import symmetric_parts
from vmstat.kernels import diag_restrict
from vmstat.martingale import martingale_coboundary_d2, spectral_decompose
from vmstat.mc import canonical_json_bytes

from helpers import c02_kernels, c09_kernels

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RESULT_DIGESTS = {
    ("clt_doubling", "clt"): "46a922fded511a442c9ce4953f3215b4650ac8632b3f4078f8655bda65980f5d",
    ("clt_markov", "clt"): "ebdce869423abe4b8c5cd0b94ccada23425bbb1df74f132654f574401652aea8",
    ("degen_doubling", "degen"): "00999332897dee17b9e79e07a50b09ec7ce67a272ba0d273dfaf1ae83133cdf7",
    ("slln_doubling", "slln"): "bd10d2b629341023077e94f740ff856e388eef2769c94b32f56032bc02cecb21",
}

STDOUT_DIGESTS = {
    ("clt_doubling", "decompose"): "d1af36ac3a15862d644af4a9b2b36a6c7b90cc899be54ad5a22b890b893a6f83",
    ("clt_doubling", "variance"): "bcc81aca6ddfdf5d1270e074e94beab7fb200d77b922e2527dd0bf92513bf3a3",
    ("clt_markov", "decompose"): "e8240efe483b8e3c085234b7d2a41ca8d7b1828b68602b00d4ae9f46a121ad37",
    ("clt_markov", "variance"): "57d2102ffb08461f9e0ce04d0bb095cfcaa904faef3f01cac596a79014f0a586",
    ("clt_markov", "mixing"): "bfe3c2442406a7319108f885bcac1d496a5a49b105294c45e05e12c45bff2f7a",
    ("degen_doubling", "decompose"): "9c27c102ee3686e79b7bf4b54995834e91fd5fc9677d80f6b4f4bf9f61dbb52f",
    ("degen_doubling", "variance"): "7a564c8eed4da3e754342976363c2e648b0e20d1b5b4cdc957c7846e391a5caf",
    ("degen_doubling", "spectrum"): "701580a841c9a7c2ecded8a9804d49b39afb9f688d1a70b2f9498990476770dd",
    ("growth_doubling", "decompose"): "9cd284b53b6bf76d5b9a4e044dda3ca07cd9fddc9adbbc045c0edbc4cc576285",
    ("growth_doubling", "growth"): "5a45a4917e08f851bbce21751927619313f4a69fb1004e50850d8c7569a0667f",
    ("growth_doubling", "variance"): "7a564c8eed4da3e754342976363c2e648b0e20d1b5b4cdc957c7846e391a5caf",
    ("growth_doubling", "spectrum"): "701580a841c9a7c2ecded8a9804d49b39afb9f688d1a70b2f9498990476770dd",
    ("slln_doubling", "decompose"): "e8952513c770732fe2db46c1474540ab2a55cddae3e1b3ea60fa423fae210d7b",
    ("slln_doubling", "variance"): "7a564c8eed4da3e754342976363c2e648b0e20d1b5b4cdc957c7846e391a5caf",
}

#: each c02 kernel's symmetric_parts JSON, then each c09 martingale part's
#: [eigenvalues, diagonal mean], as canonical JSON in corpus order
ALGEBRA_DIGEST = "613797f983f56e7d53e9d391c355f836eddc2b816a9a0bb27e4802af446f2a33"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_config_is_pinned():
    shipped = {p.stem for p in CONFIGS.glob("*.json")}
    pinned = {name for name, _ in RESULT_DIGESTS} | {name for name, _ in STDOUT_DIGESTS}
    assert pinned == shipped


@pytest.mark.parametrize("name,mode", sorted(RESULT_DIGESTS))
def test_result_json_digest(name, mode, tmp_path, capsys):
    assert main([mode, "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path),
                 "--n", "256", "--replicas", "40", "--workers", "1"]) == 0
    assert _sha256((tmp_path / "result.json").read_bytes()) == RESULT_DIGESTS[name, mode]


@pytest.mark.parametrize("name,command", sorted(STDOUT_DIGESTS))
def test_stdout_digest(name, command, capsys):
    assert main([command, "--config", str(CONFIGS / f"{name}.json")]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == STDOUT_DIGESTS[name, command]


def test_exact_algebra_digest():
    digest = hashlib.sha256()
    for f in c02_kernels():
        digest.update(canonical_json_bytes(symmetric_parts(f).to_json_dict()))
    for f in c09_kernels():
        g0 = martingale_coboundary_d2(f).martingale
        lambdas = [lam for lam, _ in spectral_decompose(g0)]
        digest.update(canonical_json_bytes([lambdas, float(diag_restrict(g0).coeff(0).real)]))
    assert digest.hexdigest() == ALGEBRA_DIGEST
