"""Golden artifact digests: small fixed `run` (suite and inline
instances), `table2`, `bi` and `landscape` commands must write
byte-for-byte the files recorded in golden_sha256.json.

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


def _run_variant(algo, **extra):
    def go(tmp):
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({"problem": "F5", "n": 16, "m": 4,
                                   "algo": algo, "runs": 3, "budget": 2000,
                                   **extra, "seed": 7}), encoding="utf-8")
        return ["run", "-c", str(cfg), "-o", str(tmp / "out")]
    return go


def _blk(family, k=None, nu=None):
    return {"family": family, "k": k, "nu": nu}


# non-monotone inline instances: no closed-form optimum, so the target
# comes from the exact fallback for small n
INLINE = {
    # gates on the DAG 0->1, 0->2, 1->3, 2->3; block 1 opens block 3 only
    # while it stays at or below 3 ("le"); a negative constant on block 3
    "gcp-le": {
        "kind": "GCP", "n": 16, "m": 4,
        "blocks": [_blk("jump", k=2), _blk("onemax"), _blk("leadingones"),
                   _blk("epistasis", nu=2)],
        "weights": [1, 1.5, 1, 2], "constants": [0, 1, 0, -1],
        "dependencies": [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1],
                         [0, 0, 0, 0]],
        "thresholds": [2, 3, 1, 0], "gate_dirs": ["ge", "le", "ge", "ge"]},
    # additive with a negative product between blocks 1 and 0
    "dbp-neg": {
        "kind": "DBP", "n": 16, "m": 4,
        "blocks": [_blk("leadingones"), _blk("onemax"), _blk("jump", k=2),
                   _blk("epistasis", nu=2)],
        "weights": [1, 2, 1, 0.5], "constants": [0, 0, 1, 0],
        "dependencies": [[0, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0.25, 0]],
        "thresholds": None, "gate_dirs": None},
}


def _run_inline(name, algo, seed):
    def go(tmp):
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({"problem": INLINE[name], "algo": algo,
                                   "runs": 3, "budget": 2000, "seed": seed}),
                       encoding="utf-8")
        return ["run", "-c", str(cfg), "-o", str(tmp / "out")]
    return go


def _bi(problem, seed, **extra):
    def go(tmp):
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps({"problem": problem, "n": 16, "m": 4,
                                   "runs": 1, **extra, "seed": seed}),
                       encoding="utf-8")
        return ["bi", "-c", str(cfg), "-o", str(tmp / "out")]
    return go


def _table2(tmp):
    return ["table2", "--n", "16", "--m", "4", "--runs", "2", "--seed", "3",
            "--budget", "2000", "-o", str(tmp / "out")]


def _landscape(tmp):
    (tmp / "out").mkdir()
    return ["landscape", "--problem", "F10", "--axis", "ones", "--n", "16",
            "--m", "4", "-o", str(tmp / "out" / "ones.csv"),
            "--svg", str(tmp / "out" / "ones.svg")]


def _distance(tmp):
    (tmp / "out").mkdir()
    return ["landscape", "--problem", "F9", "--axis", "distance", "--n", "16",
            "--m", "4", "-o", str(tmp / "out" / "distance.csv")]


CASES = {f"run-{v}": _run_variant(v) for v in VARIANTS}
CASES.update({"table2": _table2, "bi-BF4": _bi("BF4", 5),
              # pop_size 8 truncates the critical front in most generations,
              # and the LeadingOnes blocks of BF5 give fronts full of ties
              "bi-BF5-pop8": _bi("BF5", 11, pop_size=8),
              # negative weights with constants (BF1/2), and a backward
              # chain of "le" gates at threshold 0 (BF2/2)
              "bi-BF1": _bi("BF1", 17), "bi-BF2": _bi("BF2", 19),
              "landscape-F10": _landscape,
              # far-pair protection: the tie list and its uniform draw
              "run-mu_ga-diversity": _run_variant("mu_ga", diversity=True),
              "run-ea-gcp-le": _run_inline("gcp-le", "ea", 11),
              "run-two_rate-dbp-neg": _run_inline("dbp-neg", "two_rate", 13),
              "landscape-F9-distance": _distance})


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
