import csv
import re
import statistics
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import shiftkrylov.harness as harness
from shiftkrylov import (CollinearityError, ConfigError, ShiftedFamily,
                         SparseMatrix, generate_convection_diffusion, sbfom,
                         sbgmres, sfom, sgmres)
from shiftkrylov.cli import main
from shiftkrylov.harness import (_CONFIG_KEYS, ExperimentConfig, RunUnit,
                                 build_rhs,
                                 load_config, run_experiment,
                                 run_smooth_parameter_protocol,
                                 run_variability_study,
                                 solution_subspace_dimension, smooth_rhs,
                                 write_joint_csv, write_manifest,
                                 write_method_csv)
from shiftkrylov.report import SolveReport, SolverConfig

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _write_config(path, extra=""):
    path.write_text(f"""
[problem]
source = generate
grid_m = 8
convection = 20.0

[shifts]
values = 1e-3, 1e-2

[rhs]
mode = unrelated-random
seed = 7

[methods]
names = sbgmres

[solver]
cycle_length = 12
tolerance = 1e-8
max_cycles = 60
seed = 11

[recycle]
k = 4

[run]
group_size = 8
multiplier = 3.3
{extra}
""", encoding="ascii")
    return path


def test_load_config_and_defaults(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini"))
    assert cfg.grid_m == 8
    assert cfg.shifts == (1e-3, 1e-2)
    assert cfg.methods == ("sbgmres",)
    assert cfg.solver.cycle_length == 12
    assert cfg.multiplier == 3.3


def test_load_config_per_method_override(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini",
                                    "[solver.sbgmres]\ncycle_length = 5\n"))
    assert cfg.solver_for("sbgmres").cycle_length == 5
    assert cfg.solver_for("seq-gmres").cycle_length == 12


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    bad = _write_config(tmp_path / "bad.ini")
    bad.write_text(bad.read_text().replace("names = sbgmres",
                                           "names = nonsense"))
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=())
    with pytest.raises(ConfigError):
        ExperimentConfig(multiplier=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(shifts=())
    with pytest.raises(ConfigError, match="group_size"):
        ExperimentConfig(group_size=0)


def _set_key(path, section, key, value):
    """The test config with ``key = value`` in ``section``, in place of
    the key's line there if it has one."""
    text = _write_config(path).read_text()
    head = f"[{section}]\n"
    line = f"{key} = {value}\n"
    if head not in text:
        text += head
    before, after = text.split(head)
    body, bracket, rest = after.partition("[")
    body = re.sub(rf"^{key} = .*\n", "", body, flags=re.M)
    path.write_text(before + head + line + body + bracket + rest,
                    encoding="ascii")
    return path


@pytest.mark.parametrize("section, key, field, typo, known", [
    ("solver", "strategy", "strategy", "gmres-cycel", "fom-random-block"),
    ("recycle", "mode", "recycle_mode", "ritz-larg",
     "harmonic-ritz-smallest"),
    ("smooth", "seed_method", "smooth_seed_method", "sbgmress", "sbgmres"),
])
def test_unknown_names_are_config_errors_naming_the_key(
        tmp_path, section, key, field, typo, known):
    path = tmp_path / "c.ini"
    assert getattr(load_config(_set_key(path, section, key, known)),
                   field) == known
    _set_key(path, section, key, typo)
    with pytest.raises(ConfigError,
                       match=rf"^\[{section}\] {key}: unknown value '{typo}'"):
        load_config(path)
    # caught before any solve: a mistyped recycle mode used to run as k = 0
    assert main(["inspect", "--config", str(path)]) == 1
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, key, value", [
    ("recycle", "source", "augmented"),     # removed: one extraction per mode
    ("solver", "m_init", "4"),              # removed: the cycle length rules
    ("solver", "cycle_lenght", "5"),
    ("solver.sbgmres", "strategy", "random-x0"),
    ("problem", "grid", "8"),
])
def test_unknown_keys_are_config_errors_naming_the_key(tmp_path, section, key,
                                                       value, capsys):
    path = _set_key(tmp_path / "c.ini", section, key, value)
    with pytest.raises(ConfigError,
                       match=rf"^\[{section}\] {key}: unknown key"):
        load_config(path)
    assert main(["inspect", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("[solvr]\ncycle_length = 5\n", r"unknown section \[solvr\]"),
    ("[solver.sbgmress]\ncycle_length = 5\n",
     r"unknown section \[solver.sbgmress\]"),
    ("[DEFAULT]\nseed = 3\n", r"unknown section \[DEFAULT\]"),
    ("[solver]\nseed = 3\n", "cannot parse.*'solver' already exists"),
    ("[smooth]\ncount = 2\ncount = 3\n",
     "cannot parse.*'count'.*already exists"),
], ids=["section", "method-section", "default-section", "duplicate-section",
        "duplicate-key"])
def test_malformed_config_files_are_config_errors(tmp_path, text, message):
    path = _write_config(tmp_path / "c.ini", text)
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    assert main(["inspect", "--config", str(path)]) == 1
    path.write_text("cycle_length = 5\n" + path.read_text())
    with pytest.raises(ConfigError, match="cannot parse.*no section header"):
        load_config(path)


@pytest.mark.parametrize("section, key, value, message", [
    ("solver", "cycle_length", "0", "cycle_length must be >= 1"),
    ("solver.sbgmres", "cycle_length", "0", "cycle_length must be >= 1"),
    ("solver", "tolerance", "0", "tolerance must be positive and finite"),
    ("solver.sbgmres", "tolerance", "nan",
     "tolerance must be positive and finite"),
    ("solver", "max_cycles", "0", "max_cycles must be >= 1"),
    ("solver", "seed", "-1", "seed must be >= 0"),
    ("run", "multiplier", "nan", "multiplier must be positive and finite"),
    ("problem", "convection", "inf", "convection must be finite"),
    ("problem", "grid_m", "1", "grid_m must be >= 2"),
    ("shifts", "values", "1e-3, nan", "values must be given and finite"),
    ("rhs", "seed", "-1", "seed must be >= 0"),
    ("recycle", "k", "-1", "k must be >= 0"),
    ("smooth", "n_seed", "-1", "n_seed must be >= 0"),
    ("smooth", "count", "0", "count must be >= 1"),
    ("smooth", "interval", "1, inf", "interval must be finite"),
])
def test_out_of_range_values_are_config_errors_naming_the_key(
        tmp_path, section, key, value, message):
    path = _set_key(tmp_path / "c.ini", section, key, value)
    with pytest.raises(ConfigError, match=rf"^\[{section}\] .*{message}"):
        load_config(path)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_a_negative_seed_override_is_a_config_error(tmp_path, capsys):
    path = _write_config(tmp_path / "c.ini")
    assert main(["inspect", "--config", str(path), "--seed", "-1"]) == 1
    assert "config error: seed must be >= 0" in capsys.readouterr().err


_SOLVER_KEYS = [(s, f.name) for s in ("solver", "solver.sbgmres")
                for f in fields(SolverConfig)]


@SETTINGS
@given(st.sampled_from(sorted(_CONFIG_KEYS) + _SOLVER_KEYS),
       st.sampled_from(["0", "-1", "nan", "inf", ""]))
def test_inspect_never_raises_on_an_edge_value(section_key, value):
    section, key = section_key
    with tempfile.TemporaryDirectory() as tmp:
        path = _set_key(Path(tmp) / "c.ini", section, key, value)
        assert main(["inspect", "--config", str(path)]) in (0, 1)


def test_smooth_interval_parsing(tmp_path):
    path = tmp_path / "c.ini"
    cfg = load_config(_set_key(path, "smooth", "interval", "0.5, 3"))
    assert cfg.smooth_interval == (0.5, 3.0)
    for bad in ("1, 2, 3", "1"):
        with pytest.raises(ConfigError,
                           match=r"\[smooth\] interval: expected 'low, high'"):
            load_config(_set_key(path, "smooth", "interval", bad))


@pytest.mark.parametrize("section", ["solver", "solver.sbgmres"])
def test_boolean_keys_accept_only_boolean_words(tmp_path, section):
    path = tmp_path / "c.ini"
    for word, value in [("yes", True), ("OFF", False), ("0", False)]:
        cfg = load_config(_set_key(path, section, "relative", word))
        assert cfg.solver_for("sbgmres").relative is value
    with pytest.raises(ConfigError, match=rf"\[{section}\] relative"):
        load_config(_set_key(path, section, "relative", "Flase"))


def test_rhs_modes():
    cfg = ExperimentConfig(rhs_mode="shared-random", rhs_seed=3)
    a = generate_convection_diffusion(5, 0.0)
    shifts = np.array([0.1, 0.2])
    b = build_rhs(cfg, a, shifts)
    assert np.array_equal(b[:, 0], b[:, 1])
    assert np.linalg.norm(b[:, 0]) == pytest.approx(1.0)
    cfg = ExperimentConfig(rhs_mode="unrelated-random", rhs_seed=3)
    b2 = build_rhs(cfg, a, shifts)
    assert not np.array_equal(b2[:, 0], b2[:, 1])
    cfg = ExperimentConfig(rhs_mode="smooth-parameter")
    b3 = build_rhs(cfg, a, shifts)
    assert np.allclose(b3[:, 0], smooth_rhs(25, 0.1))


def test_run_experiment_artifacts(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini"))
    out = tmp_path / "out"
    cfg = ExperimentConfig(**{**vars(cfg), "out_dir": str(out),
                              "methods": ("sbgmres", "seq-gmres")})
    results, failures = run_experiment(cfg)
    assert failures == []
    for name in ("sbgmres.csv", "seq-gmres.csv", "sbgmres_joint.csv",
                 "summary.txt", "manifest.txt"):
        assert (out / name).exists()
    with open(out / "sbgmres.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    unit = results[0].units[0]
    assert len(rows) == 1 + len(unit.report.rows)
    # final recorded residual is below tolerance
    finals = [float(r[6]) for r in rows[1:]]
    assert min(finals) <= 1e-8
    # summary numbers re-derivable from the per-iteration CSV
    max_mv = max(int(r[4]) for r in rows[1:])
    assert max_mv == results[0].matvecs


def test_multiplier_unit_identity(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini"))
    cfg = ExperimentConfig(**{**vars(cfg), "out_dir": str(tmp_path / "o"),
                              "multiplier": 1.0})
    results, _ = run_experiment(cfg)
    text = (tmp_path / "o" / "summary.txt").read_text()
    line = [ln for ln in text.splitlines() if ln.startswith("sbgmres")][0]
    cols = line.split()
    assert float(cols[4]) == float(cols[3])  # block_mv * 1.0 == block_mv


def test_run_experiment_deterministic(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini"))
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    run_experiment(ExperimentConfig(**{**vars(cfg), "out_dir": str(out1)}))
    run_experiment(ExperimentConfig(**{**vars(cfg), "out_dir": str(out2)}))
    assert (out1 / "sbgmres.csv").read_bytes() == \
        (out2 / "sbgmres.csv").read_bytes()
    assert (out1 / "sbgmres_joint.csv").read_bytes() == \
        (out2 / "sbgmres_joint.csv").read_bytes()


def test_sgmres_failure_recorded_not_fatal(tmp_path):
    # unrelated right-hand sides make sgmres inapplicable; the harness
    # records the failure and keeps running other methods
    cfg = load_config(_write_config(tmp_path / "c.ini"))
    cfg = ExperimentConfig(**{**vars(cfg), "out_dir": str(tmp_path / "o"),
                              "methods": ("sgmres", "sbgmres")})
    results, failures = run_experiment(cfg)
    assert len(failures) == 1 and failures[0][0] == "sgmres"
    assert results[0].error is not None
    assert results[1].error is None
    assert (tmp_path / "o" / "sbgmres.csv").exists()


def test_variability_stats_recomputable(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini"))
    cfg = ExperimentConfig(**{**vars(cfg), "out_dir": str(tmp_path / "v"),
                              "strategy": "fom-random-block",
                              "rhs_mode": "shared-random",
                              "methods": ("sbfom",)})
    stats = run_variability_study(cfg, trials=12)
    with open(tmp_path / "v" / "variability.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    counts = [int(r["matvecs"]) for r in rows if r["matvecs"]]
    assert abs(stats["mean"] - statistics.fmean(counts)) <= 1e-12
    assert abs(stats["median"] - statistics.median(counts)) <= 1e-12
    assert abs(stats["stddev"] - statistics.stdev(counts)) <= 1e-12
    assert stats["trials"] == 12
    # different random companion blocks really spread the counts, and
    # every trial still converges
    assert stats["stddev"] > 0.0
    assert stats["failures"] == 0
    assert all(r["converged"] == "1" for r in rows)


def test_variability_trial_t_runs_at_the_configured_seed_plus_t(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini"))
    cfg = ExperimentConfig(**{**vars(cfg), "out_dir": str(tmp_path / "v"),
                              "strategy": "fom-random-block",
                              "rhs_mode": "shared-random",
                              "methods": ("sbfom",)})
    run_variability_study(cfg, trials=3)
    with open(tmp_path / "v" / "variability.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    a = generate_convection_diffusion(cfg.grid_m, cfg.convection)
    family = ShiftedFamily(a, cfg.shifts, build_rhs(cfg, a, cfg.shifts),
                           None)
    base = cfg.solver_for("sbfom")
    for t, row in enumerate(rows):
        solver = replace(base, seed=base.seed + t)
        _, rep = sbfom(family, solver, cfg.strategy)
        assert int(row["seed"]) == solver.seed
        assert int(row["matvecs"]) == rep.matvecs


def test_variability_trial_that_raises_is_a_failure_row(tmp_path,
                                                        monkeypatch, capsys):
    # trial 2 raises: the study goes on, counts it as a failure and writes
    # its row at its own seed with no counts; the CLI then exits 2
    calls = []

    def flaky(family, solver, strategy, _original=harness.sbgmres):
        calls.append(solver.seed)
        if len(calls) == 3:
            raise CollinearityError("residuals remain collinear")
        return _original(family, solver, strategy)

    monkeypatch.setattr(harness, "sbgmres", flaky)
    path = tmp_path / "c.ini"
    path.write_text(_write_config(path).read_text()
                    .replace("mode = unrelated-random", "mode = shared-random")
                    .replace("seed = 11", "seed = 11\nstrategy = random-x0"),
                    encoding="ascii")
    cfg = replace(load_config(path), out_dir=str(tmp_path / "v"))
    seed = cfg.solver_for("sbgmres").seed
    stats = run_variability_study(cfg, trials=4)
    assert stats["failures"] == 1
    with open(tmp_path / "v" / "variability.csv", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert rows[2] == ["2", str(seed + 2), "", "", "0"]
    assert [int(row[1]) for row in rows] == [seed + t for t in range(4)]
    calls.clear()
    assert main(["variability", "--config", str(path), "--out",
                 str(tmp_path / "cli"), "--trials", "3"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_variability_requires_random_strategy(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini"))
    with pytest.raises(ConfigError):
        run_variability_study(cfg, trials=3)
    cfg = ExperimentConfig(**{**vars(cfg), "strategy": "random-x0"})
    with pytest.raises(ConfigError):
        run_variability_study(cfg, trials=1)


def test_smooth_protocol_all_seeded(tmp_path):
    cfg = ExperimentConfig(out_dir=str(tmp_path / "s"), grid_m=6,
                           convection=10.0, smooth_count=6, smooth_n_seed=6,
                           smooth_interval=(1.0, 2.0),
                           solver=SolverConfig(cycle_length=12,
                                               tolerance=1e-8,
                                               max_cycles=60))
    outcome = run_smooth_parameter_protocol(cfg)
    assert outcome["mean_block_iters_augmented"] == 0.0
    assert outcome["n_seed"] == 6


def test_smooth_protocol_sbgmres_seed_solve(tmp_path):
    solver = SolverConfig(cycle_length=12, tolerance=1e-8, max_cycles=60)
    outcome = {
        method: run_smooth_parameter_protocol(ExperimentConfig(
            out_dir=str(tmp_path / method), grid_m=6, convection=10.0,
            smooth_count=8, smooth_n_seed=4, group_size=4, solver=solver,
            smooth_seed_method=method))
        for method in ("seq-gmres", "sbgmres")}
    # the four seed systems solved together by one sbgmres call
    a = generate_convection_diffusion(6, 10.0)
    shifts = np.random.default_rng(7).uniform(1.0, 2.0, 8)[:4]
    rhs = np.column_stack([smooth_rhs(36, s) for s in shifts])
    _, rep = sbgmres(ShiftedFamily(a, shifts, rhs, None), solver)
    assert outcome["sbgmres"]["seed_matvecs"] == rep.matvecs
    assert rep.matvecs != outcome["seq-gmres"]["seed_matvecs"]
    assert outcome["sbgmres"]["recycle_dim"] == 4


def test_smooth_protocol_subspace_dimension_oracle(tmp_path):
    cfg = ExperimentConfig(out_dir=str(tmp_path / "s"), grid_m=8,
                           convection=10.0, smooth_count=12, smooth_n_seed=4,
                           group_size=4,
                           solver=SolverConfig(cycle_length=15,
                                               tolerance=1e-8,
                                               max_cycles=60))
    outcome = run_smooth_parameter_protocol(cfg)
    # independent oracle recomputation
    a = generate_convection_diffusion(8, 10.0)
    rng = np.random.default_rng(cfg.rhs_seed)
    shifts = rng.uniform(1.0, 2.0, 12)
    rhs = np.column_stack([smooth_rhs(64, s) for s in shifts])
    ad = a.to_dense()
    sols = np.column_stack([
        np.linalg.solve(ad + s * np.eye(64), rhs[:, i])
        for i, s in enumerate(shifts)])
    svals = np.linalg.svd(sols, compute_uv=False)
    dim = int(np.count_nonzero(svals > 1e-10 * svals[0]))
    assert outcome["solution_subspace_dimension"] == dim
    assert dim == solution_subspace_dimension(a, shifts.astype(complex), rhs)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = _write_config(tmp_path / "c.ini")
    out = tmp_path / "cli_out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "summary.txt").exists()
    assert main(["inspect", "--config", str(cfg_path)]) == 0
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[methods]\nnames = bogus\n", encoding="ascii")
    assert main(["run", "--config", str(bad)]) == 1


def test_cli_rejects_zero_group_size(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "c.ini")
    cfg_path.write_text(cfg_path.read_text().replace("group_size = 8",
                                                     "group_size = 0"))
    code = main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "group_size" in err and "Traceback" not in err


def test_cli_solver_failure_exit_code(tmp_path):
    cfg_path = _write_config(tmp_path / "c.ini")
    out = tmp_path / "cli_fail"
    code = main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--method", "sgmres"])
    assert code == 2


def test_cli_io_error_exit_code(tmp_path):
    cfg_path = _write_config(tmp_path / "c.ini")
    text = cfg_path.read_text().replace("source = generate",
                                        "source = matrix-market\n"
                                        "path = /nonexistent/m.mtx")
    cfg_path.write_text(text, encoding="ascii")
    code = main(["run", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o")])
    assert code == 3


def test_cli_exit_codes_of_errors_raised_during_run(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "3 3 1\n1 x 2.0\n", encoding="ascii")
    cfg_path = _write_config(tmp_path / "c.ini")
    text = cfg_path.read_text()
    out = ["--out", str(tmp_path / "o")]
    cfg_path.write_text(text.replace(
        "source = generate", f"source = matrix-market\npath = {bad}"))
    assert main(["run", "--config", str(cfg_path), *out]) == 3
    assert "input error: line 3" in capsys.readouterr().err
    # matrix-market without a path: a ConfigError raised by the run
    cfg_path.write_text(text.replace("source = generate",
                                     "source = matrix-market"))
    assert main(["run", "--config", str(cfg_path), *out]) == 1
    assert "config error: [problem] path" in capsys.readouterr().err


def test_cli_method_and_multiplier_overrides(tmp_path):
    cfg_path = _write_config(tmp_path / "c.ini")
    out = tmp_path / "ovr"
    code = main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--method", "seq-fom", "--multiplier", "2.0"])
    assert code == 0
    assert (out / "seq-fom.csv").exists()
    assert not (out / "sbgmres.csv").exists()


def test_block_methods_grouped_by_group_size(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini"))
    cfg = ExperimentConfig(**{**vars(cfg), "out_dir": str(tmp_path / "g"),
                              "shifts": (1e-3, 2e-3, 3e-3, 4e-3, 5e-3),
                              "group_size": 2})
    results, failures = run_experiment(cfg)
    assert failures == []
    assert [len(u.shift_indices) for u in results[0].units] == [2, 2, 1]


def test_manifest_matvec_identity(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini"))
    cfg = ExperimentConfig(**{**vars(cfg), "out_dir": str(tmp_path / "m")})
    run_experiment(cfg)
    text = (tmp_path / "m" / "manifest.txt").read_text()
    assert "method.sbgmres.matvec_identity = ok" in text
    assert "config.rhs_seed = 7" in text


def _identity_run(tmp_path):
    """sbgmres and sbfom on a shared right-hand side, decollinearized by
    the default gmres-cycle strategy."""
    cfg = ExperimentConfig(out_dir=str(tmp_path / "m"), grid_m=10,
                           shifts=(1e-3, 0.1, 1.0), rhs_mode="shared-random",
                           methods=("sbgmres", "sbfom"),
                           solver=SolverConfig(cycle_length=10))
    results, failures = run_experiment(cfg)
    assert failures == []
    return cfg, results


def test_manifest_matvec_identity_counts_strategy_products(tmp_path):
    cfg, results = _identity_run(tmp_path)
    # the strategy's cycle 1 deflates the rank-one block of three columns
    # to one at step 0: its products are width-one block products
    for res in results:
        rep = res.units[0].report
        assert "decollinearized with gmres-cycle" in rep.notes
        assert [c[:2] for c in rep.replacements[:2]] == [(1, 0), (1, 0)]
        first = next(row for row in rep.rows if row[1] == 1)
        assert first[3:5] == (1, 1)
    text = (tmp_path / "m" / "manifest.txt").read_text()
    assert "method.sbgmres.matvec_identity = ok\n" in text
    assert "method.sbfom.matvec_identity = ok\n" in text


def test_manifest_matvec_identity_flags_inconsistent_counters(tmp_path):
    cfg, results = _identity_run(tmp_path)
    results[1].units[0].report.matvecs += 1
    write_manifest(tmp_path / "manifest.txt", cfg, results, 0.0)
    text = (tmp_path / "manifest.txt").read_text()
    assert "method.sbgmres.matvec_identity = ok\n" in text
    assert "method.sbfom.matvec_identity = mismatch" in text


def test_manifest_matvec_identity_counts_deflated_columns(tmp_path):
    # smooth-parameter right-hand sides give start blocks with dependent
    # columns: each deflated column is skipped by the block products after
    # the step that dropped it, and counters that disagree are flagged
    cfg = ExperimentConfig(out_dir=str(tmp_path / "m"), grid_m=10,
                           shifts=tuple(1.0 + 0.01 * i for i in range(8)),
                           rhs_mode="smooth-parameter",
                           methods=("sbgmres", "sbfom"),
                           solver=SolverConfig(cycle_length=10))
    results, failures = run_experiment(cfg)
    assert failures == []
    assert all(u.report.replacements for res in results for u in res.units)
    text = (tmp_path / "m" / "manifest.txt").read_text()
    assert "method.sbgmres.matvec_identity = ok\n" in text
    assert "method.sbfom.matvec_identity = ok\n" in text
    # a deflated column that was not recorded, and a product too many
    results[0].units[0].report.replacements.pop(0)
    results[1].units[0].report.matvecs += 1
    write_manifest(tmp_path / "manifest.txt", cfg, results, 0.0)
    text = (tmp_path / "manifest.txt").read_text()
    assert "method.sbgmres.matvec_identity = mismatch" in text
    assert "method.sbfom.matvec_identity = mismatch" in text


def test_manifest_matvec_identity_follows_the_narrowing_block(tmp_path):
    # unrelated right-hand sides whose shifts converge cycles apart: a
    # cycle's block holds only its unconverged shifts, so the identity
    # must count each block product at its cycle's recorded width
    cfg = ExperimentConfig(out_dir=str(tmp_path / "m"), grid_m=10,
                           shifts=(1e-3, 0.1, 10.0),
                           rhs_mode="unrelated-random",
                           methods=("sbgmres", "sbfom"),
                           solver=SolverConfig(cycle_length=5))
    results, failures = run_experiment(cfg)
    assert failures == []
    widths = [w for u in results[0].units for w in u.report.block_widths]
    assert min(widths) < 3
    text = (tmp_path / "m" / "manifest.txt").read_text()
    assert "method.sbgmres.matvec_identity = ok\n" in text
    assert "method.sbfom.matvec_identity = ok\n" in text


def test_from_file_rhs_and_matrix_market_problem(tmp_path):
    import numpy as np
    import scipy.io
    from shiftkrylov import generate_convection_diffusion
    a = generate_convection_diffusion(6, 15.0)
    scipy.io.mmwrite(tmp_path / "a.mtx", a._csr)
    rng = np.random.default_rng(3)
    b = rng.standard_normal((36, 2))
    scipy.io.mmwrite(tmp_path / "b.mtx", b)
    (tmp_path / "c.ini").write_text(f"""
[problem]
source = matrix-market
path = {tmp_path / 'a.mtx'}

[shifts]
values = 1e-3, 1e-2

[rhs]
mode = from-file
path = {tmp_path / 'b.mtx'}

[methods]
names = sbgmres

[solver]
cycle_length = 12
tolerance = 1e-8
max_cycles = 60
seed = 2
""", encoding="ascii")
    cfg = load_config(tmp_path / "c.ini")
    cfg = ExperimentConfig(**{**vars(cfg), "out_dir": str(tmp_path / "o")})
    results, failures = run_experiment(cfg)
    assert failures == []
    assert results[0].converged_count == 2


def test_summary_residual_rederivable_from_csv(tmp_path):
    cfg = load_config(_write_config(tmp_path / "c.ini"))
    cfg = ExperimentConfig(**{**vars(cfg), "out_dir": str(tmp_path / "d")})
    results, _ = run_experiment(cfg)
    with open(tmp_path / "d" / "sbgmres.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    finals = {}
    for row in rows:
        finals[row["shift"]] = float(row["resid_norm"])  # last wins
    assert max(finals.values()) == results[0].worst_residual


def _reference_method_csv(path, method, units, shifts):
    """The per-row formatter the method CSV is pinned to."""
    def fmt(v):
        if isinstance(v, complex):
            return repr(v.real) if v.imag == 0.0 else repr(v)
        if isinstance(v, float):
            return repr(v)
        return str(v)

    with open(path, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL,
                            lineterminator="\n")
        writer.writerow(["method", "shift", "cycle", "iteration", "matvecs",
                         "block_matvecs", "resid_norm", "converged"])
        mv_off = bmv_off = 0
        for unit in units:
            rep = unit.report
            for (si, cyc, it, mv, bmv, res, conv) in rep.rows:
                writer.writerow([
                    method, fmt(complex(shifts[unit.shift_indices[si]])),
                    cyc, it, mv + mv_off, bmv + bmv_off, fmt(res),
                    int(conv)])
            mv_off += rep.matvecs
            bmv_off += rep.block_matvecs


def _reference_joint_csv(path, method, units):
    """The row-wise joint writer the joint CSV is pinned to: per sorted
    (cycle, iteration) point the latest residual of every shift, summed
    in shift order."""
    with open(path, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL,
                            lineterminator="\n")
        writer.writerow(["method", "unit", "cycle", "iteration",
                         "joint_resid_frob"])
        for uidx, unit in enumerate(units):
            rep = unit.report
            bnorm = float(np.linalg.norm(rep.rhs_norms))
            points = {}
            for (si, cyc, it, _mv, _bmv, res, _c) in rep.rows:
                points.setdefault((cyc, it), {})[si] = res
            last = [None] * rep.n_shifts
            for (cyc, it) in sorted(points):
                for si, res in points[(cyc, it)].items():
                    last[si] = res
                if any(v is None for v in last):
                    continue
                joint = float(np.sqrt(sum(v * v for v in last)))
                writer.writerow([method, uidx, cyc, it,
                                 repr(joint / bnorm if bnorm else joint)])


def test_method_csv_bytes_match_reference_formatter(tmp_path):
    shifts = np.array([1e-3, 0.5 - 0.25j, 2.0])
    units = []
    for idx in ([2, 0], [1]):
        rep = SolveReport("sbgmres", shifts[idx], np.ones(len(idx)))
        for step in range(3):
            rep.matvecs += len(idx)
            rep.block_matvecs += 1
            res = np.full(len(idx), 1e-300) if step == 2 \
                else 0.1 / (step + 1) + np.arange(len(idx))
            rep.record_step(1, step, res, np.full(len(idx), step == 2))
        units.append(RunUnit(idx, rep))
    write_method_csv(tmp_path / "new.csv", "sbgmres", units, shifts)
    _reference_method_csv(tmp_path / "ref.csv", "sbgmres", units, shifts)
    text = (tmp_path / "new.csv").read_bytes()
    assert text == (tmp_path / "ref.csv").read_bytes()
    assert b"(0.5-0.25j)" in text and b"1e-300" in text and b",2.0," in text


def _collinear_family(shifts):
    a = generate_convection_diffusion(6, 10.0)
    b = np.random.default_rng(3).standard_normal((a.n_rows, 1))
    return ShiftedFamily(a, shifts, np.tile(b, (1, len(shifts))), None)


def _skip_family():
    # shift -2 has no collinear iterate at cycle 1 (sgmres) and shift 0 a
    # singular Galerkin system at cycle 2 (sfom)
    a = SparseMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 0.0]]))
    b = np.array([[1.0, 1.0], [0.0, 0.0]])
    return ShiftedFamily(a, [0.0, -2.0], b, None)


def _unit(rep):
    return RunUnit(list(range(rep.n_shifts)), rep)


def _csv_case(name):
    """(units, shifts) of one report layout the CSV writers must handle,
    after a check that the layout is really there."""
    cfg = SolverConfig(cycle_length=6, tolerance=1e-8, max_cycles=30, seed=4)
    if name == "decollinearized-complex":
        # cycle 1 decollinearizes by width-one steps, one product each
        fam = _collinear_family([1e-3, 0.5 - 0.25j, 2.0])
        _, rep = sbgmres(fam, cfg)
        assert "decollinearized with gmres-cycle" in rep.notes
        assert all(r[2:5] == (r[2], r[2], r[2]) for r in rep.rows
                   if r[1] == 1)
        return [_unit(rep)], fam.shifts
    if name == "repeated-point":
        fam = _collinear_family([1e-2, 0.3])
        _, rep = sbgmres(fam, cfg, "random-x0")
        points = [(r[1], r[2]) for r in rep.rows if r[0] == 0]
        assert len(set(points)) < len(points)
        return [_unit(rep)], fam.shifts
    if name in ("sgmres-alone", "sfom-alone"):
        fam = _skip_family()
        run = sgmres if name == "sgmres-alone" else sfom
        _, rep = run(fam, replace(cfg, cycle_length=1, tolerance=1e-6,
                                  max_cycles=45))
        assert any("left the shared family" in note for note in rep.notes)
        return [_unit(rep)], fam.shifts
    if name == "no-units":
        return [], np.array([0.1, 1.0])
    if name == "cycle-0-only":
        # an initial guess that already solves every system: the solve
        # records its cycle-0 point and stops
        fam = _collinear_family([1e-3, 0.5 - 0.25j])
        a = fam.matrix.to_dense()
        x0 = np.column_stack([np.linalg.solve(a + s * np.eye(len(a)),
                                              fam.rhs[:, i])
                              for i, s in enumerate(fam.shifts)])
        fam = ShiftedFamily(fam.matrix, fam.shifts, fam.rhs, x0)
        _, rep = sbgmres(fam, cfg)
        assert {(r[1], r[2]) for r in rep.rows} == {(0, 0)}
        return [_unit(rep)], fam.shifts
    if name == "point-recording-none":
        shifts = np.array([0.1, 1.0])
        rep = SolveReport("sgmres", shifts, np.ones(2))
        rep.record_step(0, 0, [1.0, 0.5], [False, False])
        rep.matvecs += 1
        rep.record_step(1, 1, [0.3, 0.2], [False, False], [False, False])
        rep.matvecs += 1
        rep.record_step(1, 2, [0.1, 1e-300], [False, True])
        assert not rep.steps.recorded[1].any()
        return [_unit(rep)], shifts
    assert name == "unrecorded-shift"
    fam = _collinear_family([1e-3, 0.2, 0.7])
    _, solved = sbgmres(fam, cfg)
    never = SolveReport("sbgmres", fam.shifts, np.ones(3))
    for step in range(3):
        never.matvecs += 2
        never.record_step(1, step, [0.5 / (step + 1), 7.0, 1e-300],
                          [False, False, step == 2], [True, False, True])
    assert not any(r[0] == 1 for r in never.rows)
    return [_unit(solved), _unit(never)], fam.shifts


@pytest.mark.parametrize("name", ["decollinearized-complex",
                                  "repeated-point", "sgmres-alone",
                                  "sfom-alone", "unrecorded-shift",
                                  "no-units", "cycle-0-only",
                                  "point-recording-none"])
def test_csv_bytes_match_row_wise_reference(tmp_path, name):
    units, shifts = _csv_case(name)
    write_method_csv(tmp_path / "new.csv", "m", units, shifts)
    _reference_method_csv(tmp_path / "ref.csv", "m", units, shifts)
    assert (tmp_path / "new.csv").read_bytes() \
        == (tmp_path / "ref.csv").read_bytes()
    write_joint_csv(tmp_path / "new_joint.csv", "m", units)
    _reference_joint_csv(tmp_path / "ref_joint.csv", "m", units)
    joint = (tmp_path / "new_joint.csv").read_bytes()
    assert joint == (tmp_path / "ref_joint.csv").read_bytes()
    # a method with no units writes only the header
    assert joint.count(b"\n") > 1 or not units


def test_report_steps_built_once_per_set_of_points():
    # the harness reads steps for every output it writes: the arrays are
    # built once, read-only, and rebuilt after a new point or absorbed
    # sub-report
    rep = SolveReport("sgmres", np.array([0.1, 1.0]), np.ones(2))
    rep.record_step(0, 0, [1.0, 2.0], [False, False])
    first = rep.steps
    assert rep.steps is first
    with pytest.raises(ValueError):
        first.resid[0, 0] = 0.0
    rep.record_step(1, 1, [0.5, 0.25], [False, True], [True, False])
    assert rep.steps is not first and len(rep.steps.cycle) == 2
    assert np.isnan(rep.steps.resid[1, 1])
    sub = SolveReport("gmres", np.array([1.0]), np.ones(1))
    sub.record_step(0, 0, [0.25], [False])
    second = rep.steps
    rep.absorb(sub, 1, 1, 1)
    assert rep.steps is not second
    assert rep.steps.iteration.tolist() == [0, 1, 1]
    assert rep.steps.recorded[2].tolist() == [False, True]
