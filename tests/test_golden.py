"""Golden sha256 digests of the CLI's output bytes on the shipped configs.

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

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RESULT_DIGESTS = {
    ("clt_doubling", "clt"): "d1868afd07cde5988a82cf07e3b2fcfc19496c19afb50170a94ca1d8f264db98",
    ("clt_markov", "clt"): "ebdce869423abe4b8c5cd0b94ccada23425bbb1df74f132654f574401652aea8",
    ("degen_doubling", "degen"): "0106faaa3d65da22d4786104958d0e17946e5b0148b7a18fb8aa391e874183de",
    ("slln_doubling", "slln"): "0e6f39b52372e2ce0fcdc51dd81f7a6a11707c3af30beb41c470af49432447a4",
}

STDOUT_DIGESTS = {
    ("clt_doubling", "decompose"): "d1af36ac3a15862d644af4a9b2b36a6c7b90cc899be54ad5a22b890b893a6f83",
    ("clt_doubling", "variance"): "bcc81aca6ddfdf5d1270e074e94beab7fb200d77b922e2527dd0bf92513bf3a3",
    ("clt_doubling", "check-conditions"): "6a191a47e6300b7290159988b6afa5befd0988cc1b644a45b99df692ae24ff5f",
    ("clt_markov", "decompose"): "e8240efe483b8e3c085234b7d2a41ca8d7b1828b68602b00d4ae9f46a121ad37",
    ("clt_markov", "variance"): "57d2102ffb08461f9e0ce04d0bb095cfcaa904faef3f01cac596a79014f0a586",
    ("clt_markov", "mixing"): "bfe3c2442406a7319108f885bcac1d496a5a49b105294c45e05e12c45bff2f7a",
    ("degen_doubling", "decompose"): "9c27c102ee3686e79b7bf4b54995834e91fd5fc9677d80f6b4f4bf9f61dbb52f",
    ("degen_doubling", "variance"): "7a564c8eed4da3e754342976363c2e648b0e20d1b5b4cdc957c7846e391a5caf",
    ("degen_doubling", "spectrum"): "701580a841c9a7c2ecded8a9804d49b39afb9f688d1a70b2f9498990476770dd",
    ("degen_doubling", "check-conditions"): "d6602dc9701db9e74d8dc685d31e81998f5c6b18f0976aa5cd2aebf2dc0ee92d",
    ("growth_doubling", "decompose"): "9cd284b53b6bf76d5b9a4e044dda3ca07cd9fddc9adbbc045c0edbc4cc576285",
    ("growth_doubling", "growth"): "5a45a4917e08f851bbce21751927619313f4a69fb1004e50850d8c7569a0667f",
    ("growth_doubling", "variance"): "7a564c8eed4da3e754342976363c2e648b0e20d1b5b4cdc957c7846e391a5caf",
    ("growth_doubling", "spectrum"): "701580a841c9a7c2ecded8a9804d49b39afb9f688d1a70b2f9498990476770dd",
    ("growth_doubling", "check-conditions"): "813efdf8da70b74f7b93693e3f2b88f4438dbdde9069ef69dde0676f83e4696a",
    ("slln_doubling", "decompose"): "e8952513c770732fe2db46c1474540ab2a55cddae3e1b3ea60fa423fae210d7b",
    ("slln_doubling", "variance"): "7a564c8eed4da3e754342976363c2e648b0e20d1b5b4cdc957c7846e391a5caf",
    ("slln_doubling", "check-conditions"): "3f5f5036c57a1c8323813a0751d1f782b7d36640d2787f7d062edc6d1040ab7b",
}


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
