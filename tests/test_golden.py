"""Golden artifact digests: small fixed `run`, `table2`, `bi` and
`landscape` commands must write byte-for-byte the files recorded in
golden_sha256.json.

A change that keeps the random stream leaves every digest unchanged.
A change that alters the stream on purpose regenerates the manifest,
and says so, with:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_sha256.json
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from blockbench.cli import main
from blockbench.soea import VARIANTS

MANIFEST = Path(__file__).with_name("golden_sha256.json")


def _run_variant(algo):
    def go(tmp):
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({"problem": "F5", "n": 16, "m": 4,
                                   "algo": algo, "runs": 3, "budget": 2000,
                                   "seed": 7}), encoding="utf-8")
        return ["run", "-c", str(cfg), "-o", str(tmp / "out")]
    return go


def _bi(tmp):
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"problem": "BF4", "n": 16, "m": 4, "runs": 1,
                               "seed": 5}), encoding="utf-8")
    return ["bi", "-c", str(cfg), "-o", str(tmp / "out")]


def _table2(tmp):
    return ["table2", "--n", "16", "--m", "4", "--runs", "2", "--seed", "3",
            "--budget", "2000", "-o", str(tmp / "out")]


def _landscape(tmp):
    (tmp / "out").mkdir()
    return ["landscape", "--problem", "F10", "--axis", "ones", "--n", "16",
            "--m", "4", "-o", str(tmp / "out" / "ones.csv"),
            "--svg", str(tmp / "out" / "ones.svg")]


CASES = {f"run-{v}": _run_variant(v) for v in VARIANTS}
CASES.update({"table2": _table2, "bi-BF4": _bi, "landscape-F10": _landscape})


def digest(case: str, tmp: Path) -> str:
    """SHA-256 over the relative paths and bytes of every output file."""
    assert main(CASES[case](tmp)) == 0
    out = tmp / "out"
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(out).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case, tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert digest(case, tmp_path) == expected[case]


if __name__ == "__main__":
    got = {}
    with contextlib.redirect_stdout(sys.stderr):
        for case in sorted(CASES):
            with tempfile.TemporaryDirectory() as d:
                got[case] = digest(case, Path(d))
    print(json.dumps(got, indent=2, sort_keys=True))
