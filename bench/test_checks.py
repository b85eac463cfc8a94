"""Each output check passes on healthy small outputs and rejects a
hand-corrupted copy.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q bench
"""

import csv
import json
import random
import shutil

import pytest

import checks
import reference
import run
from blockbench.cli import main as cli

F3 = reference.suite("F3", 40, 4)
BF4 = reference.bf4(8, 4)


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.fixture(scope="module")
def healthy(tmp_path_factory):
    base = tmp_path_factory.mktemp("healthy")
    files = {}
    cmds = (run.so_suite_round(7, base / "cfg", base / "so", files)
            + run.oracle_round(7, base / "cfg", base / "oracle", files))
    for path, text in files.items():
        (base / "cfg").mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    # the mu_ga run and the two oracle runs at their benchmark sizes
    for c in cmds[1:4]:
        assert cli(c.argv) == 0
    assert cli(["bi", "-c", _bi_config(base), "-o", str(base / "bi"),
                "--workers", "1"]) == 0
    assert cli(["table2", "--n", "16", "--m", "4", "--runs", "1",
                "--budget", "2000", "--seed", "3", "-o",
                str(base / "table2")]) == 0
    assert cli(["landscape", "--problem", "F10", "--axis", "ones", "--n",
                "16", "--m", "4", "-o", str(base / "ones.csv"), "--svg",
                str(base / "ones.svg")]) == 0
    assert cli(["landscape", "--problem", "F9", "--axis", "distance", "--n",
                "16", "--m", "4", "-o", str(base / "dist.csv")]) == 0
    return base


def _bi_config(base):
    path = base / "bi.json"
    path.write_text('{"problem": "BF4", "n": 8, "m": 4, "algos": ["gsemo", '
                    '"nsga2"], "runs": 2, "budget": 600, "pop_size": 8, '
                    '"seed": 5}\n')
    return str(path)


@pytest.fixture
def copy(healthy, tmp_path):
    def make(name):
        dest = tmp_path / name
        if (healthy / name).is_dir():
            shutil.copytree(healthy / name, dest)
        else:
            shutil.copy(healthy / name, dest)
        return dest
    return make


def check_mu(path):
    return checks.check_run_dir(path, F3, run.MU_BUDGET, run.MU_RUNS)


def check_bi(path):
    return checks.check_bi_dir(path, BF4, ("gsemo", "nsga2"), 2, 600)


def test_run_dirs_pass_when_healthy(healthy):
    fails, evals = check_mu(healthy / "so" / "mu_ga")
    assert fails == {} and evals == run.MU_RUNS * run.MU_BUDGET
    for name, spec in run.ORACLE_SPECS.items():
        fails, evals = checks.check_run_dir(healthy / "oracle" / name, spec,
                                            run.ORACLE_BUDGET,
                                            run.ORACLE_RUNS)
        assert fails == {} and 0 < evals <= run.ORACLE_RUNS * run.ORACLE_BUDGET


def test_target_off_by_one_is_rejected(copy):
    d = copy("oracle")
    meta = d / "oracle-gcp" / "runs_meta.csv"
    rows = _read(meta)
    col = rows[0].index("target")
    rows[2][col] = str(float(rows[2][col]) + 1)
    _write(meta, rows)
    fails, _ = checks.check_run_dir(d / "oracle-gcp",
                                    run.ORACLE_SPECS["oracle-gcp"],
                                    run.ORACLE_BUDGET, run.ORACLE_RUNS)
    assert list(fails) == ["run#1"] and "target" in fails["run#1"]


def test_best_f_disagreeing_with_block_values_is_rejected(copy):
    d = copy("so") / "mu_ga"
    log = d / "run_0001.csv"
    rows = _read(log)
    v1 = rows[0].index("v1")
    rows[1][v1] = str(int(rows[1][v1]) + 1)
    _write(log, rows)
    fails, _ = check_mu(d)
    assert list(fails) == ["run#1"] and "aggregate" in fails["run#1"]


def test_bi_dir_passes_when_healthy(healthy):
    fails, evals = check_bi(healthy / "bi")
    assert fails == {} and evals == 4 * 600


def test_dominated_archive_row_is_rejected(copy):
    d = copy("bi")
    arch = d / "nsga2" / "archive_0000.csv"
    rows = _read(arch)
    points = [(float(r[1]), float(r[2])) for r in rows[1:]]
    rnd = random.Random(1)
    while True:
        x = "".join(rnd.choice("01") for _ in range(8))
        y = (reference.evaluate(BF4[0], x), reference.evaluate(BF4[1], x))
        if any(reference.dominates(p, y) for p in points):
            break
    _write(arch, rows + [[x, repr(y[0]), repr(y[1])]])
    fails, _ = check_bi(d)
    assert list(fails) == ["nsga2#0"] and "dominates" in fails["nsga2#0"]


def test_falling_hv_column_is_rejected(copy):
    d = copy("bi")
    log = d / "gsemo" / "run_0001.csv"
    rows = _read(log)
    hv = rows[0].index("hv")
    assert len(rows) > 3
    rows[1][hv] = str(float(rows[2][hv]) + 1)
    _write(log, rows)
    fails, _ = check_bi(d)
    assert list(fails) == ["gsemo#1"] and "falls" in fails["gsemo#1"]


def test_table2_ranks(healthy, copy):
    fails, evals = checks.check_table2(healthy / "table2", 1, 2000)
    assert fails == {} and evals > 0
    d = copy("table2")
    data = json.loads((d / "table2.json").read_text())
    a, b = data["cells"]["OneMax/ea"], data["cells"]["OneMax/fga"]
    a["rank"], b["rank"] = b["rank"], a["rank"]
    (d / "table2.json").write_text(json.dumps(data))
    fails, _ = checks.check_table2(d, 1, 2000)
    assert set(fails) == {f"OneMax/{a}#0" for a in run.T2_ALGOS}


def test_landscape_exports(healthy, copy):
    f10, f9 = reference.suite("F10", 16, 4), reference.suite("F9", 16, 4)
    assert checks.check_landscape_ones(healthy / "ones.csv", f10,
                                       healthy / "ones.svg") == ({}, 0)
    assert checks.check_landscape_distance(healthy / "dist.csv", f9) == ({}, 0)
    svg = copy("ones.svg")
    svg.write_text(svg.read_text()[:-20])
    fails, _ = checks.check_landscape_ones(healthy / "ones.csv", f10, svg)
    assert "export" in fails
    dist = copy("dist.csv")
    rows = _read(dist)
    zero = next(r for r in rows[1:] if set(r[:4]) == {"0"})
    zero[-1] = str(float(zero[-1]) - 1)
    _write(dist, rows)
    fails, _ = checks.check_landscape_distance(dist, f9)
    assert "distance-0" in fails["export"]
