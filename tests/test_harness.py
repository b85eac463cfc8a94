"""Experiment harness: config parsing, checkpoint schedules, CSV and
JSON outputs, aggregation, rerun determinism, and the CLI surface."""

import json

import pytest

from blockbench import harness
from blockbench.cli import main
from blockbench.harness import (ConfigError, aggregate_runs,
                                checkpoint_schedule, cmd_bi, cmd_run,
                                load_config, resolve_bi, resolve_instance,
                                resolve_workers)
from blockbench.moea import MULTI_RUNNERS


def write_config(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")
    return path


# -- checkpoint schedule -------------------------------------------------------


def test_checkpoint_schedule_shape():
    cps = checkpoint_schedule(1000)
    assert cps[0] == 1
    assert cps[-1] == 1000
    assert list(cps) == sorted(set(cps))
    assert all(1 <= c <= 1000 for c in cps)
    # log spacing: consecutive ratios never exceed the growth factor much
    # (integer rounding makes tiny checkpoints jumpier, so check from 10 up)
    for a, b in zip(cps[1:], cps[2:]):
        if a >= 10:
            assert b / a < 1.40


def test_checkpoint_schedule_small():
    assert checkpoint_schedule(1) == (1,)
    assert checkpoint_schedule(2) == (1, 2)
    with pytest.raises(ValueError):
        checkpoint_schedule(0)


def test_checkpoint_schedule_matches_construction():
    budget = 500
    pts = {1, budget}
    v = 1.0
    while v < budget:
        v *= 1.15
        if round(v) <= budget:
            pts.add(round(v))
    assert checkpoint_schedule(budget) == tuple(sorted(pts))


# -- config loading --------------------------------------------------------------


def test_load_config_roundtrip(tmp_path):
    p = write_config(tmp_path, problem="F3", n=20, m=2, algo="two_rate",
                     runs=3, budget=4000, seed=9)
    cfg = load_config(p)
    assert cfg.problem == "F3"
    assert (cfg.n, cfg.m, cfg.algo, cfg.runs) == (20, 2, "two_rate", 3)
    assert cfg.so.variant == "two_rate"
    assert cfg.raw_text == p.read_text(encoding="utf-8")
    # m defaults to 1; budget to 100 000 for run and to n^3 for bi
    so = load_config(write_config(tmp_path, "so.json", problem="F1", n=8,
                                  runs=1, out=str(tmp_path / "so")))
    assert so.m == 1 and so.budget is None
    assert cmd_run(so) == 0
    summary = json.loads((tmp_path / "so" / "summary.json").read_text())
    assert summary["budget"] == 100_000
    bi = load_config(write_config(tmp_path, "bi.json", problem="BF1", n=4,
                                  runs=1, algos=["semo"],
                                  out=str(tmp_path / "bi")))
    assert bi.m == 1 and bi.budget is None
    assert cmd_bi(bi) == 0
    top = json.loads((tmp_path / "bi" / "bi_summary.json").read_text())
    assert top["budget"] == 4 ** 3


def test_load_config_bad_json_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "problem": "F1",\n  "n": 20,\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert "broken.json:4:1" in str(exc.value)


def test_load_config_unknown_keys(tmp_path):
    p = write_config(tmp_path, problem="F1", n=10, generations=5)
    with pytest.raises(ConfigError, match="unknown keys: generations"):
        load_config(p)


def test_load_config_unknown_problem_lists_ids(tmp_path):
    p = write_config(tmp_path, problem="F99", n=10)
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    msg = str(exc.value)
    assert "F99" in msg and "F10" in msg and "BF5" in msg


def test_load_config_divisibility_error(tmp_path):
    p = write_config(tmp_path, problem="F1", n=10, m=4)
    with pytest.raises(ConfigError):
        load_config(p)


def test_load_config_algo_checks(tmp_path):
    p = write_config(tmp_path, problem="F1", n=10, algo="sa")
    with pytest.raises(ConfigError, match="unknown algo"):
        load_config(p)
    p2 = write_config(tmp_path, "two.json", problem="F1", n=10,
                      algo="two_rate", lam=5)
    with pytest.raises(ConfigError, match="even lam"):
        load_config(p2)
    p3 = write_config(tmp_path, "bi.json", problem="BF1", n=10,
                      algos=["gsemo", "annealer"])
    with pytest.raises(ConfigError, match="unknown multi-objective algo"):
        load_config(p3)
    # every field is type-checked, and bool is not an integer
    for fields, message in (
            ({"lam": "10"}, "lam must be an integer"),
            ({"lam": 1.5}, "lam must be an integer"),
            ({"lam": True}, "lam must be an integer"),
            ({"runs": True}, "runs must be a positive integer"),
            ({"n": True}, "n and m must be integers"),
            ({"m": 1.0}, "n and m must be integers"),
            ({"seed": False}, "seed must be an integer"),
            ({"budget": "1000"}, "budget must be a positive integer"),
            ({"p": "0.1"}, "p must be a number or null"),
            ({"beta": float("nan")}, "beta must be a finite number"),
            ({"diversity": 1}, "diversity must be true or false"),
            ({"algos": "gsemo"}, "algos must be a list"),
            ({"checkpoints": 5}, "checkpoints must be"),
            ({"checkpoints": [1, True]}, "checkpoints must be"),
            ({"out": 3}, "out must be a string"),
            ({"algo": "oll_ga", "f_oll": 0}, "f_oll must be > 0"),
            ({"algo": "oll_ga", "f_oll": -1.5}, "f_oll must be > 0"),
            ({"algo": "var_ea", "f_var": -1}, "f_var must be > 0"),
            ({"algo": "var_ea", "f_var": 0.0}, "f_var must be > 0")):
        p4 = write_config(tmp_path, "typed.json",
                          **{"problem": "F1", "n": 10, **fields})
        with pytest.raises(ConfigError, match=message):
            load_config(p4)


def test_load_config_inline_problem(tmp_path):
    inline = {
        "kind": "DBP", "n": 8, "m": 2,
        "blocks": [{"family": "onemax", "k": None, "nu": None}] * 2,
        "weights": [1.0, 1.0], "constants": [0.0, 0.0],
        "dependencies": [[0.0, 0.0], [0.0, 0.0]],
        "thresholds": None, "gate_dirs": None,
    }
    p = write_config(tmp_path, problem=inline, runs=2)
    cfg = load_config(p)
    assert cfg.n == 8 and cfg.m == 2
    spec = resolve_instance(cfg)
    assert spec.n == 8


def test_load_config_checkpoint_validation(tmp_path):
    p = write_config(tmp_path, problem="F1", n=10, checkpoints=[5, 5, 10])
    with pytest.raises(ConfigError, match="checkpoints"):
        load_config(p)


def test_resolve_mismatches(tmp_path):
    so_cfg = load_config(write_config(tmp_path, "a.json", problem="F1", n=8))
    bi_cfg = load_config(write_config(tmp_path, "b.json", problem="BF1", n=8))
    with pytest.raises(ConfigError):
        resolve_bi(so_cfg)
    with pytest.raises(ConfigError):
        resolve_instance(bi_cfg)


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("BLOCKBENCH_THREADS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(4) == 4
    for bad in (0, -3):
        with pytest.raises(ConfigError, match="--workers must be >= 1"):
            resolve_workers(bad)
    monkeypatch.setenv("BLOCKBENCH_THREADS", "2")
    assert resolve_workers(8) == 2
    assert resolve_workers(1) == 1
    for bad in ("zounds", "0", "-2"):
        monkeypatch.setenv("BLOCKBENCH_THREADS", bad)
        with pytest.raises(ConfigError, match="BLOCKBENCH_THREADS"):
            resolve_workers(3)


# -- single-objective batch outputs ----------------------------------------------


@pytest.fixture
def so_outdir(tmp_path):
    cfg_path = write_config(tmp_path, problem="F1", n=12, m=2, algo="ea",
                            runs=3, budget=800, seed=4,
                            out=str(tmp_path / "out"))
    cfg = load_config(cfg_path)
    assert cmd_run(cfg) == 0
    return tmp_path / "out"


def test_run_outputs_exist(so_outdir):
    names = {p.name for p in so_outdir.iterdir()}
    assert {"run_0000.csv", "run_0001.csv", "run_0002.csv",
            "runs_meta.csv", "summary.json", "config.json"} <= names


def test_run_csv_schema(so_outdir):
    lines = (so_outdir / "run_0001.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "run,evals,best_f,v1,v2"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    evals = [int(line.split(",")[1]) for line in lines[1:]]
    assert evals == sorted(evals)
    fs = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b >= a for a, b in zip(fs, fs[1:]))
    # block columns track the incumbent, so they sum to at most best_f here
    for line in lines[1:]:
        c = line.split(",")
        assert float(c[3]) + float(c[4]) == float(c[2])


def test_run_meta_and_summary(so_outdir):
    meta = (so_outdir / "runs_meta.csv").read_text(encoding="utf-8").splitlines()
    assert meta[0] == "run,evaluations,best_f,hit,hit_index,target"
    assert len(meta) == 4
    summary = json.loads((so_outdir / "summary.json").read_text())
    assert summary["runs"] == 3
    assert summary["target"] == 12.0
    assert summary["config"]["problem"] == "F1"
    assert "out" not in summary["config"]
    assert summary["checkpoints"][0] == 1
    assert len(summary["mean_best_f"]) == len(summary["checkpoints"])
    assert len(summary["block_means"]) == 2
    raw = (so_outdir / "summary.json").read_text(encoding="utf-8")
    assert raw == json.dumps(summary, indent=2, sort_keys=True) + "\n"


def test_config_echoed_verbatim(so_outdir, tmp_path):
    echoed = (so_outdir / "config.json").read_text(encoding="utf-8")
    original = (tmp_path / "cfg.json").read_text(encoding="utf-8")
    assert echoed == original


def test_rerun_is_byte_identical(tmp_path):
    outs = []
    for sub in ("A", "B"):
        cfg_path = write_config(tmp_path, f"{sub}.json", problem="F5", n=16,
                                m=4, algo="fga", runs=2, budget=500, seed=11,
                                out=str(tmp_path / sub))
        assert cmd_run(load_config(cfg_path)) == 0
        outs.append(tmp_path / sub)
    a_files = sorted(p.name for p in outs[0].iterdir())
    b_files = sorted(p.name for p in outs[1].iterdir())
    assert a_files == b_files
    for name in a_files:
        if name == "config.json":
            continue  # configs differ in their out field only
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# -- aggregation -----------------------------------------------------------------


def test_aggregate_synthetic_logs(tmp_path):
    d = tmp_path / "logs"
    d.mkdir()
    (d / "run_0000.csv").write_text(
        "run,evals,best_f,v1\n0,1,2,2\n0,100,6,6\n", encoding="utf-8")
    (d / "run_0001.csv").write_text(
        "run,evals,best_f,v1\n1,1,4,4\n1,50,8,8\n", encoding="utf-8")
    (d / "runs_meta.csv").write_text(
        "run,evaluations,best_f,hit,hit_index,target\n"
        "0,100,6,0,,8\n1,50,8,1,50,8\n", encoding="utf-8")
    agg = aggregate_runs(d)
    assert agg["runs"] == 2
    assert agg["target"] == 8.0
    assert agg["success_count"] == 1
    # miss counts its full 100 evaluations, hit counts its hitting index
    assert agg["mean_evals_to_target"] == 75.0
    assert agg["checkpoints"] == [1, 50, 100]
    assert agg["mean_best_f"] == [3.0, 5.0, 7.0]
    assert agg["median_best_f"] == [3.0, 5.0, 7.0]
    assert agg["success_rate"] == [0.0, 0.5, 0.5]
    assert agg["block_means"] == [[3.0, 5.0, 7.0]]


def test_aggregate_requires_logs(tmp_path):
    with pytest.raises(ValueError, match="no run logs"):
        aggregate_runs(tmp_path)


def test_aggregate_rejects_mixed_headers(tmp_path):
    d = tmp_path / "logs"
    d.mkdir()
    (d / "run_0000.csv").write_text("run,evals,best_f,v1\n0,1,1,1\n")
    (d / "run_0001.csv").write_text("run,evals,best_f,v1,v2\n1,1,1,1,1\n")
    with pytest.raises(ValueError, match="header differs"):
        aggregate_runs(d)


# -- bi-objective batch ------------------------------------------------------------


def test_bi_outputs(tmp_path):
    cfg_path = write_config(tmp_path, problem="BF2", n=12, m=2, runs=2,
                            budget=600, seed=5, algos=["gsemo", "moead"],
                            out=str(tmp_path / "bi"))
    cfg = load_config(cfg_path)
    assert cmd_bi(cfg) == 0
    out = tmp_path / "bi"
    top = json.loads((out / "bi_summary.json").read_text())
    assert set(top["algos"]) == {"gsemo", "moead"}
    assert top["budget"] == 600 and top["pop_size"] == 12
    for algo in ("gsemo", "moead"):
        adir = out / algo
        lines = (adir / "run_0000.csv").read_text().splitlines()
        assert lines[0] == "run,evals,best_f,v1,v2,y1,y2,hv"
        cols = lines[-1].split(",")
        assert cols[2] == cols[-1]  # best_f mirrors the hypervolume
        arc = (adir / "archive_0000.csv").read_text().splitlines()
        assert arc[0] == "x,y1,y2"
        if len(arc) > 2:
            y1s = [float(r.split(",")[1]) for r in arc[1:]]
            assert y1s == sorted(y1s, reverse=True)
        meta = (adir / "runs_meta.csv").read_text().splitlines()
        assert meta[0] == "run,evaluations,final_hv,archive_size"
        summary = json.loads((adir / "summary.json").read_text())
        assert summary["mean_hv"] == summary["mean_best_f"]
        hv_series = summary["mean_hv"]
        assert all(b >= a for a, b in zip(hv_series, hv_series[1:]))
        assert len(top["algos"][algo]["final_hv"]) == 2


def test_workers_do_not_change_results(tmp_path):
    outs = []
    for sub, workers in (("w1", 1), ("w2", 2)):
        cfg_path = write_config(tmp_path, f"{sub}.json", problem="F1", n=12,
                                m=2, algo="ea", runs=4, budget=400, seed=6,
                                out=str(tmp_path / sub))
        assert cmd_run(load_config(cfg_path), workers=workers) == 0
        outs.append(tmp_path / sub)
    for name in ("run_0000.csv", "run_0003.csv", "runs_meta.csv",
                 "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_table2_smoke(tmp_path, capsys):
    from blockbench.harness import cmd_table2
    out = tmp_path / "grid"
    assert cmd_table2(n=16, m=4, runs=2, seed=3, budget=3000,
                      out=str(out)) == 0
    lines = (out / "table2.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "problem,oll_ga,ea,two_rate,var_ea,fga"
    assert len(lines) == 7  # header + six comparison problems
    assert lines[1].startswith("OneMax,")
    payload = json.loads((out / "table2.json").read_text())
    assert payload["runs"] == 2
    cell = payload["cells"]["OneMax/ea"]
    assert set(cell) == {"mean_fes", "success_count", "rank"}
    assert 1 <= cell["rank"] <= 5
    # every row assigns each rank exactly once
    for label in ("OneMax", "LeadingOnes", "Jump_3", "Epistasis",
                  "DBP (F5)", "GCP (F10)"):
        ranks = sorted(payload["cells"][f"{label}/{a}"]["rank"]
                       for a in ("oll_ga", "ea", "two_rate", "var_ea", "fga"))
        assert ranks == [1, 2, 3, 4, 5]
    assert "OneMax" in capsys.readouterr().out


def test_table2_counts_hit_on_last_evaluation(tmp_path):
    from blockbench.harness import cmd_table2
    out = tmp_path / "grid"
    # with seed 1 and one run, ea reaches OneMax's optimum at n=12 on its
    # 52nd evaluation, so a budget of 52 ends on the hit
    assert cmd_table2(n=12, m=1, runs=1, seed=1, budget=52,
                      out=str(out)) == 0
    cell = json.loads((out / "table2.json").read_text())["cells"]["OneMax/ea"]
    assert cell["mean_fes"] == 52
    assert cell["success_count"] == 1


def test_target_certified_once_per_command(tmp_path, monkeypatch):
    from blockbench import soea
    from blockbench.blocks import onemax
    from blockbench.harness import cmd_table2
    from blockbench.problems import make_dbp, spec_to_dict

    calls = []
    real = harness.known_optimum

    def counting(spec):
        calls.append(spec)
        return real(spec)

    def refuse(spec):
        raise AssertionError("run_single recomputed the target")

    monkeypatch.setattr(harness, "known_optimum", counting)
    monkeypatch.setattr(soea, "known_optimum", refuse)
    # a negative weight: the target comes from the exact fallback
    spec = make_dbp(8, (onemax(), onemax()), weights=(1, -1))
    cfg = write_config(tmp_path, problem=spec_to_dict(spec), runs=5,
                       budget=200, seed=4, out=str(tmp_path / "run"))
    assert cmd_run(load_config(cfg)) == 0
    assert calls == [spec]
    meta = (tmp_path / "run" / "runs_meta.csv").read_text().splitlines()
    assert len(meta) == 6 and all(r.endswith(",4") for r in meta[1:])
    calls.clear()
    assert cmd_table2(n=16, m=4, runs=2, seed=1, budget=50,
                      out=str(tmp_path / "grid")) == 0
    assert len(calls) == len(harness.TABLE2_ROWS)  # once per row


def test_table2_composite_rows_use_m(tmp_path, monkeypatch):
    from blockbench.harness import cmd_table2

    calls = []
    real = harness.make_suite_instance

    def recording(pid, n, m):
        calls.append((pid, n, m))
        return real(pid, n, m)

    monkeypatch.setattr(harness, "make_suite_instance", recording)
    out = tmp_path / "grid"
    assert cmd_table2(n=40, m=8, runs=1, seed=1, budget=10,
                      out=str(out)) == 0
    assert calls == [("F1", 40, 1), ("F2", 40, 1), ("F3", 40, 1),
                     ("F4", 40, 1), ("F5", 40, 8), ("F10", 40, 8)]
    assert json.loads((out / "table2.json").read_text())["m"] == 8


# -- CLI ----------------------------------------------------------------------------


def test_cli_run_and_plot(tmp_path, capsys):
    cfg = write_config(tmp_path, problem="F1", n=10, runs=2, budget=300,
                       seed=2)
    out = tmp_path / "res"
    assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0
    svg = tmp_path / "curve.svg"
    assert main(["plot", str(out / "run_0000.csv"),
                 str(out / "run_0001.csv"), "--kind", "lines", "--logx",
                 "-o", str(svg)]) == 0
    text = svg.read_text(encoding="utf-8")
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_cli_landscape(tmp_path):
    csv_path = tmp_path / "ones.csv"
    svg_path = tmp_path / "ones.svg"
    assert main(["landscape", "--problem", "F3", "--axis", "ones",
                 "--n", "12", "--m", "2", "-o", str(csv_path),
                 "--svg", str(svg_path)]) == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,f"
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    ks = {k for k, _ in rows}
    assert ks == set(range(13))  # one row per attainable value per count
    assert (12, 18) in rows  # all-ones hits the known optimum
    assert svg_path.read_text(encoding="utf-8").startswith("<svg")


def test_cli_error_paths(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "nope.json"
    assert main(["run", "-c", str(missing)]) == 2
    bad = write_config(tmp_path, "bad.json", problem="F1")  # n missing
    assert main(["run", "-c", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "'n' is required" in err

    def expect(argv, code, message):
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert message in err and message not in out

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    so = write_config(tmp_path, "so.json", problem="F1", n=8, runs=1)
    monkeypatch.setattr(harness, "run_single", boom)
    expect(["run", "-c", str(so), "-o", str(tmp_path / "so")], 1,
           "run failed: boom")
    bi = write_config(tmp_path, "bi.json", problem="BF1", n=4, runs=1,
                      algos=["gsemo"])
    monkeypatch.setitem(MULTI_RUNNERS, "gsemo", boom)
    expect(["bi", "-c", str(bi), "-o", str(tmp_path / "bi")], 1,
           "bi run failed: boom")
    expect(["landscape", "--problem", "F99", "--axis", "ones", "--n", "8",
            "-o", str(tmp_path / "scan.csv")], 2, "unknown instance id 'F99'")
    expect(["plot", str(tmp_path / "absent.csv"), "-o",
            str(tmp_path / "p.svg")], 2, "plot:")
    # bad arguments and knob values exit 2 before any run starts
    oll = write_config(tmp_path, "oll.json", problem="F1", n=8, runs=1,
                       algo="oll_ga", f_oll=0)
    expect(["run", "-c", str(oll)], 2, "f_oll must be > 0")
    for workers in ("0", "-3"):
        expect(["run", "-c", str(so), "--workers", workers], 2,
               "--workers must be >= 1")
    grid = str(tmp_path / "grid")
    for argv, message in ((["--runs", "0"], "runs must be >= 1"),
                          (["--budget", "0"], "budget must be >= 1"),
                          (["--n", "10", "--m", "4"],
                           "dimension 10 not divisible into 4 equal blocks"),
                          (["--n", "16", "--m", "8"],
                           "jump gap k=3 must be below block length 2"),
                          (["--workers", "0"], "--workers must be >= 1")):
        # small defaults, so that a missing check cannot start a long run
        expect(["table2", "--n", "8", "--runs", "1", "--budget", "10",
                "-o", grid] + argv, 2, message)
    assert not (tmp_path / "grid").exists()
    # inline instances: every spec number is type-checked before use
    gcp = {"kind": "GCP", "n": 8, "m": 2,
           "blocks": [{"family": "onemax"}, {"family": "jump", "k": 1}],
           "weights": [1, 1], "constants": [0, 0],
           "dependencies": [[0, 1], [0, 0]], "thresholds": [1, 1],
           "gate_dirs": ["ge", "ge"]}
    for patch, message in (
            ({"weights": ["1", 1]}, "weights must be finite numbers, got '1'"),
            ({"weights": [True, 1]}, "weights must be finite numbers, got True"),
            ({"constants": [0, None]}, "constants must be finite numbers"),
            ({"thresholds": [1, "2"]}, "thresholds must be finite numbers"),
            ({"dependencies": [[0, "1"], [0, 0]]},
             "dependencies must be finite numbers"),
            ({"n": 8.0}, "n and m must be integers"),
            ({"blocks": [{"family": "onemax"}, {"family": "jump", "k": 1.5}]},
             "jump needs an integer k >= 1, got 1.5"),
            ({"blocks": [{"family": "onemax"}, {"family": "jump", "k": True}]},
             "jump needs an integer k >= 1, got True"),
            ({"blocks": [{"family": "onemax"},
                         {"family": "epistasis", "nu": "2"}]},
             "epistasis needs an integer nu >= 2, got '2'")):
        cfg = write_config(tmp_path, "inline.json", problem={**gcp, **patch},
                           runs=1, budget=10)
        expect(["run", "-c", str(cfg), "-o", str(tmp_path / "inline")], 2,
               message)
    assert not (tmp_path / "inline").exists()
    monkeypatch.setenv("BLOCKBENCH_THREADS", "zounds")
    expect(["run", "-c", str(so), "--workers", "2"], 2,
           "BLOCKBENCH_THREADS must be a positive integer")


def test_cli_list(capsys):
    assert main(["list"]) == 0
    text = capsys.readouterr().out
    for token in ("F1", "F10", "BF5", "two_rate", "moead"):
        assert token in text
