"""Config loading, run dispatch, output formats, and exit codes."""

import copy
import json
import math
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import laddernoise.cli as cli_module
import laddernoise.noise as noise_module
import laddernoise.perturbation as perturbation_module
from laddernoise import ConfigError, Evaluator, detunings_for
from laddernoise.cli import (
    COMMON_DETUNING_PARAMETER,
    config_digest,
    load_config,
    main,
    run_experiment,
)

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")


def minimal_config(**overrides):
    cfg = {
        "system": {"energies": [0.0, 60.0, 174.0], "dipoles": [1.0, 1.0]},
        "field": {
            "envelope": {"kind": "gaussian", "tau": 1.0},
            "components": [
                {"amplitude": 1.0, "phase": 0.0, "frequency": 60.0},
                {"amplitude": 1.0, "phase": 0.0, "frequency": 114.0},
            ],
        },
        "evaluator": "closed-form",
        "run": {"type": "shot"},
        "output": {"path": "out.csv", "format": "csv"},
    }
    cfg.update(overrides)
    return cfg


# an optimize run small enough for the Monte Carlo observable
OPTIMIZE_RUN = {
    "type": "optimize",
    "target_yield": 0.1,
    "fluence_weight": 1e-3,
    "init": [0.5, 0.5],
    "mc_samples": 2,
    "max_evals": 6,
    "seed": 3,
}


SCAN_RUN = {"type": "scan", "parameter": COMMON_DETUNING_PARAMETER, "grid": [1.0, 2.0]}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# values that replace one site of an example config in the exit-code tests
MALFORMED = ("x", -1, 0, 0.5, None, [], {}, True)


def mutation_bases():
    """The docs examples with every optional block written out, so it is mutated too."""
    bases = []
    for name in sorted(os.listdir(DOCS)):
        with open(os.path.join(DOCS, name)) as fh:
            cfg = json.load(fh)
        cfg["tolerances"] = {
            "tdse_rel_tol": 1e-10,
            "tdse_abs_tol": 1e-12,
            "time_quad_tol": 1e-9,
            "closed_form_tol": 1e-7,
        }
        cfg["target"] = len(cfg["system"]["dipoles"])
        if cfg["run"]["type"] == "optimize":
            # an "observable": "mc" mutation would otherwise run the default
            # 2000-sample ensemble per objective evaluation
            cfg["run"]["mc_samples"] = 4
        bases.append(cfg)
    return bases


def sites(node, path=()):
    """Paths to ``node`` and to every object, list and leaf below it."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from sites(child, path + (key,))


def replaced(cfg, path, value):
    if not path:
        return value
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


MUTATION_SITES = [(cfg, path) for cfg in mutation_bases() for path in sites(cfg)]


class TestLoadConfig:
    def test_minimal_round_trip(self, tmp_path):
        raw = minimal_config()
        path = write_config(tmp_path, raw)
        cfg = load_config(path)
        assert cfg.digest == config_digest(raw)
        assert cfg.system.n_transitions == 2
        assert cfg.tolerances.tdse_rel_tol == 1e-10  # defaults filled
        # digest is stable across loads
        assert load_config(path).digest == cfg.digest

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"system": }')
        with pytest.raises(ConfigError, match=r"line 1, column"):
            load_config(str(path))

    def test_all_violations_listed(self, tmp_path):
        cfg = minimal_config()
        cfg["system"]["energies"] = [0.0, 2.0, 1.0]  # non-increasing
        cfg["system"]["dipoles"] = [1.0, 0.0]  # zero dipole
        cfg["run"] = {"type": "warp"}  # unknown run type
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        text = str(info.value)
        assert "strictly increasing" in text
        assert "nonzero" in text
        assert "run.type" in text
        assert len(info.value.violations) >= 3

    def test_clamp_warning_recorded(self, tmp_path):
        cfg = minimal_config(
            noise={
                "components": [
                    {"amplitude": {"dist": "uniform", "half_width": 1.5}},
                    {},
                ]
            },
            run={"type": "ensemble", "samples": 10, "seed": 3},
        )
        path = write_config(tmp_path, cfg)
        loaded = load_config(path)
        assert any("clamped" in w for w in loaded.warnings)

    def test_seed_required_with_active_noise(self, tmp_path):
        cfg = minimal_config(
            noise={
                "components": [
                    {"amplitude": {"dist": "uniform", "half_width": 0.1}},
                    {},
                ]
            },
            run={"type": "ensemble", "samples": 10},
        )
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path, cfg))

    def test_closed_form_requires_one_component_per_transition(self, tmp_path):
        cfg = minimal_config()
        cfg["field"]["components"] = cfg["field"]["components"][:1]
        with pytest.raises(ConfigError, match="M = N"):
            load_config(write_config(tmp_path, cfg))
        # the exact propagator accepts the same field
        cfg["evaluator"] = "tdse"
        cfg["target"] = 1
        load_config(write_config(tmp_path, cfg, "ok.json"))

    def test_closed_form_observable_requires_one_component_per_transition(self, tmp_path):
        cfg = minimal_config(
            evaluator="tdse",
            run={
                "type": "optimize",
                "target_yield": 0.1,
                "fluence_weight": 1e-3,
                "init": [0.5],
            },
        )
        cfg["field"]["components"] = cfg["field"]["components"][:1]
        with pytest.raises(ConfigError, match="observable analytic needs the closed-form evaluator"):
            load_config(write_config(tmp_path, cfg))

    def test_scan_path_must_exist(self, tmp_path):
        cfg = minimal_config(
            run={"type": "scan", "parameter": "field.nonsense", "grid": [0, 1]}
        )
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(write_config(tmp_path, cfg))

    def test_short_grid_rejected(self, tmp_path):
        cfg = minimal_config(
            run={
                "type": "scan",
                "parameter": "field.components[0].amplitude",
                "grid": [1.0],
            }
        )
        with pytest.raises(ConfigError, match="length >= 2"):
            load_config(write_config(tmp_path, cfg))

    def test_non_numeric_grid_and_init_rejected(self, tmp_path):
        cfg = minimal_config(
            run={
                "type": "scan",
                "parameter": "field.components[0].amplitude",
                "grid": [1.0, "two"],
            }
        )
        with pytest.raises(ConfigError, match="run.grid"):
            load_config(write_config(tmp_path, cfg))
        cfg = minimal_config(
            run={
                "type": "optimize",
                "target_yield": 0.1,
                "fluence_weight": 1e-3,
                "init": ["a", 0.5],
            }
        )
        with pytest.raises(ConfigError, match="run.init"):
            load_config(write_config(tmp_path, cfg, "o.json"))

    def test_bad_scan_point_is_listed_beside_other_violations(self, tmp_path):
        cfg = minimal_config(
            tolerances={"time_quad_tol": -1}, run=dict(SCAN_RUN, grid=[0.0, -100.0])
        )
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, cfg))
        text = str(info.value)
        assert "time_quad_tol" in text and "scan point -100.0" in text

    def test_unassignable_scan_path_is_listed_once(self, tmp_path):
        run = dict(SCAN_RUN, parameter="field.envelope.kind[0]", grid=[0.0, 1.0, 2.0])
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, minimal_config(run=run)))
        assert len(info.value.violations) == 1
        assert info.value.violations[0].startswith("scan point 0.0: run.parameter: ")

    def test_path_scan_copies_only_system_and_field(self, tmp_path, monkeypatch):
        copied = []
        real = cli_module.copy.deepcopy
        monkeypatch.setattr(
            cli_module.copy, "deepcopy", lambda x, *a: copied.append(x) or real(x, *a)
        )
        run = dict(SCAN_RUN, parameter="field.components[0].frequency", grid=[59.0, 61.0])
        record = run_experiment(load_config(write_config(tmp_path, minimal_config(run=run))))
        assert len(record.rows) == 2 and copied
        assert not any(isinstance(x, dict) and "run" in x for x in copied)

    def test_docs_examples_validate(self):
        for name in (
            "resonant_shot.json",
            "antiresonance_scan.json",
            "noise_cooperation_optimize.json",
        ):
            cfg = load_config(os.path.join(DOCS, name))
            assert cfg.digest

    @pytest.mark.parametrize(
        "name,method",
        [
            ("resonant_shot.json", "resonant-closed-form"),
            ("antiresonance_scan.json", "rect-equal"),
            ("noise_cooperation_optimize.json", None),  # the optimizer trace has no method
        ],
    )
    def test_docs_examples_run(self, tmp_path, name, method):
        path = os.path.join(DOCS, name)
        with open(path) as fh:
            command = json.load(fh)["run"]["type"]
        out = str(tmp_path / "out.csv")
        assert main([command, "--config", path, "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            header, *rows = [line for line in fh.read().splitlines() if not line.startswith("#")]
        columns = header.split(",")
        assert rows
        for row in rows:
            cells = dict(zip(columns, row.split(",")))
            numbers = [float(v) for k, v in cells.items() if k != "method" and v]
            assert all(math.isfinite(x) for x in numbers)
            assert cells.get("method") == method


class TestRunExperiment:
    def test_shot_row(self, tmp_path):
        cfg = load_config(write_config(tmp_path, minimal_config()))
        record = run_experiment(cfg)
        assert record.columns[0] == "yield"
        row = dict(zip(record.columns, record.rows[0]))
        assert row["yield"] == pytest.approx(0.25, rel=1e-12)
        assert row["method"] == "resonant-closed-form"

    def test_antiresonance_scan_row(self, tmp_path):
        cfg_raw = minimal_config(
            field={
                "envelope": {"kind": "rectangular", "duration": 1.0},
                "components": [
                    {"amplitude": 1.0, "phase": 0.0, "frequency": 60.0},
                    {"amplitude": 1.0, "phase": 0.0, "frequency": 114.0},
                ],
            },
            run={
                "type": "scan",
                "parameter": COMMON_DETUNING_PARAMETER,
                "grid": [k * math.pi / 2 for k in range(9)],
            },
        )
        cfg = load_config(write_config(tmp_path, cfg_raw))
        record = run_experiment(cfg)
        rows = [dict(zip(record.columns, r)) for r in record.rows]
        at_2pi = [r for r in rows if abs(r["value"] - 2 * math.pi) < 1e-12]
        assert len(at_2pi) == 1
        assert at_2pi[0]["yield"] < 1e-24
        assert rows[0]["yield"] == pytest.approx(0.25, rel=1e-9)

    def test_common_detuning_is_one_float_on_every_leg(self, tmp_path):
        # transition frequencies 60, 114 and 162, a grid as dense as a benchmark scan
        rng = random.Random(1)
        grid = [-3.5, 0.0, 3.5] + [rng.uniform(-3.5, 3.5) for _ in range(997)]
        cfg_raw = minimal_config(
            system={"energies": [0.0, 60.0, 174.0, 336.0], "dipoles": [1.0, 1.0, 1.0]},
            field={
                "envelope": {"kind": "gaussian", "tau": 1.0},
                "components": [{"amplitude": 1.0, "phase": 0.0, "frequency": w}
                               for w in (60.0, 114.0, 162.0)],
            },
            run={"type": "scan", "parameter": COMMON_DETUNING_PARAMETER, "grid": grid},
        )
        cfg = load_config(write_config(tmp_path, cfg_raw))
        for _, system, fld in cfg.run.points:
            assert len(set(detunings_for(system, fld).deltas)) == 1
        # the value column echoes the grid, not the rounded detuning
        assert [row[0] for row in run_experiment(cfg).rows] == grid

    def test_scan_plain_path(self, tmp_path):
        cfg_raw = minimal_config(
            run={
                "type": "scan",
                "parameter": "field.components[0].amplitude",
                "grid": [0.5, 1.0, 2.0],
            }
        )
        cfg = load_config(write_config(tmp_path, cfg_raw))
        ys = [r[1] for r in run_experiment(cfg).rows]
        assert ys[1] / ys[0] == pytest.approx(4.0, rel=1e-12)

    def test_scan_builds_nothing_at_run_time(self, tmp_path, monkeypatch):
        run = dict(SCAN_RUN, parameter="field.components[0].frequency", grid=[59.0, 61.0])
        config = load_config(write_config(tmp_path, minimal_config(run=run)))
        calls = []
        real = cli_module._build_field
        monkeypatch.setattr(
            cli_module, "_build_field", lambda *a: calls.append(a) or real(*a)
        )
        assert [r[0] for r in run_experiment(config).rows] == [59.0, 61.0]
        assert calls == []

    def test_tdse_shot_with_intermediate_target(self, tmp_path):
        cfg_raw = minimal_config(
            system={"energies": [0.0, 25.0, 59.0], "dipoles": [1.0, 1.0]},
            field={
                "envelope": {"kind": "rectangular", "duration": 3.0},
                "components": [
                    {"amplitude": 0.05, "phase": 0.0, "frequency": 25.0},
                    {"amplitude": 0.05, "phase": 0.0, "frequency": 34.0},
                ],
            },
            evaluator="tdse",
            target=1,
        )
        cfg = load_config(write_config(tmp_path, cfg_raw))
        record = run_experiment(cfg)
        row = dict(zip(record.columns, record.rows[0]))
        assert 0.0 < row["yield"] < 1.0
        assert row["method"] == "tdse"
        # amplitude columns hold the level-1 coefficient
        assert row["amplitude_re"] ** 2 + row["amplitude_im"] ** 2 == pytest.approx(
            row["yield"], rel=1e-12
        )

    def test_scan_over_system_energy(self, tmp_path):
        # moving the top level changes the detuning of component 2, so the
        # yield must respond; the rebuilt system has to reach the evaluator
        cfg_raw = minimal_config(
            run={
                "type": "scan",
                "parameter": "system.energies[2]",
                "grid": [174.0, 175.0, 176.0],
            }
        )
        cfg = load_config(write_config(tmp_path, cfg_raw))
        record = run_experiment(cfg)
        ys = [r[1] for r in record.rows]
        assert ys[0] == pytest.approx(0.25, rel=1e-9)  # resonant reference
        assert ys[1] < ys[0] and ys[2] < ys[1]

    def test_phase_noise_ensemble_mean_equals_shot(self, tmp_path):
        shot = run_experiment(load_config(write_config(tmp_path, minimal_config())))
        shot_yield = shot.rows[0][0]
        cfg_raw = minimal_config(
            noise={
                "components": [
                    {"phase": {"dist": "uniform", "half_width": 1.0}},
                    {"phase": {"dist": "uniform", "half_width": 2.0}},
                ]
            },
            run={"type": "ensemble", "samples": 64, "seed": 5},
        )
        record = run_experiment(load_config(write_config(tmp_path, cfg_raw, "e.json")))
        row = dict(zip(record.columns, record.rows[0]))
        assert row["mean"] == shot_yield  # bit-identical
        assert row["std_error"] < 1e-12

    def test_ensemble_uses_configured_time_quad_tol(self, tmp_path):
        # off resonance, a loose quadrature tolerance moves the yield in the
        # 12th digit; a quiet ensemble must reproduce the shot at that tolerance
        field = minimal_config()["field"]
        field["components"][1]["frequency"] = 115.0
        shot_raw = minimal_config(
            field=field,
            evaluator="perturb-time",
            tolerances={"time_quad_tol": 1e-4},
        )
        shot = run_experiment(load_config(write_config(tmp_path, shot_raw)))
        ens_raw = dict(shot_raw, run={"type": "ensemble", "samples": 2})
        ens = run_experiment(load_config(write_config(tmp_path, ens_raw, "e.json")))
        assert ens.rows[0][0] == shot.rows[0][0]  # bit-identical

    def test_mc_optimizer_uses_configured_closed_form_tol(self, tmp_path, monkeypatch):
        seen = []
        real = noise_module.closed_form_amplitude

        def spy(system, field, tol=1e-7):
            seen.append(tol)
            return real(system, field, tol=tol)

        monkeypatch.setattr(noise_module, "closed_form_amplitude", spy)
        cfg_raw = minimal_config(
            noise={
                "components": [
                    {"amplitude": {"dist": "uniform", "half_width": 0.1}},
                    {},
                ]
            },
            tolerances={"closed_form_tol": 1e-5},
            run={
                "type": "optimize",
                "target_yield": 0.1,
                "fluence_weight": 1e-3,
                "observable": "mc",
                "mc_samples": 4,
                "init": [0.5, 0.5],
                "max_evals": 6,
                "seed": 3,
            },
        )
        run_experiment(load_config(write_config(tmp_path, cfg_raw)))
        assert seen and set(seen) == {1e-5}

    def test_closed_form_fallback_uses_configured_closed_form_tol(
        self, tmp_path, monkeypatch
    ):
        # the Gaussian delay integral covers 2..4 rungs; six fall back to the
        # time quadrature, which must run at the configured tolerance
        seen = []
        real = perturbation_module.amplitude_time_quadrature

        def spy(system, field, tol=1e-9):
            seen.append(tol)
            return real(system, field, tol=tol)

        monkeypatch.setattr(perturbation_module, "amplitude_time_quadrature", spy)
        energies = [0.0, 60.0, 174.0, 336.0, 536.0, 786.0, 1096.0]
        gaps = [b - a for a, b in zip(energies, energies[1:])]
        deltas = [0.1, 0.3, 0.0, -0.2, 0.1, 0.2]
        cfg_raw = minimal_config(
            system={"energies": energies, "dipoles": [1.0] * 6},
            field={
                "envelope": {"kind": "gaussian", "tau": 1.0},
                "components": [
                    {"amplitude": 1.0, "phase": 0.0, "frequency": g + d}
                    for g, d in zip(gaps, deltas)
                ],
            },
            tolerances={"closed_form_tol": 1e-4},
        )
        record = run_experiment(load_config(write_config(tmp_path, cfg_raw)))
        assert seen == [1e-4]
        assert record.rows[0][-1] == "time-quadrature"

    def test_mc_optimizer_uses_configured_evaluator(self, tmp_path, monkeypatch):
        seen = []
        real = noise_module.single_shot

        def spy(system, field, evaluator, target_index, tolerances):
            seen.append((evaluator, target_index))
            return real(system, field, evaluator, target_index, tolerances)

        monkeypatch.setattr(noise_module, "single_shot", spy)
        cfg_raw = minimal_config(
            evaluator="perturb-time",
            noise={
                "components": [
                    {"amplitude": {"dist": "uniform", "half_width": 0.1}},
                    {},
                ]
            },
            run=dict(OPTIMIZE_RUN, observable="mc"),
        )
        run_experiment(load_config(write_config(tmp_path, cfg_raw)))
        assert seen and set(seen) == {(Evaluator.PERTURB_TIME, 2)}

    def test_tdse_mc_optimizer_accepts_fewer_components_than_transitions(self, tmp_path):
        cfg_raw = minimal_config(
            system={"energies": [0.0, 25.0, 59.0], "dipoles": [1.0, 1.0]},
            field={
                "envelope": {"kind": "rectangular", "duration": 3.0},
                "components": [{"amplitude": 0.5, "phase": 0.0, "frequency": 25.0}],
            },
            evaluator="tdse",
            run=dict(OPTIMIZE_RUN, observable="mc", init=[0.5]),
        )
        record = run_experiment(load_config(write_config(tmp_path, cfg_raw)))
        final = dict(zip(record.columns, record.rows[-1]))
        assert final["final"] == 1 and "amp_1" not in final
        assert 0.0 <= final["amp_0"] and math.isfinite(final["objective"])

    def test_optimize_rows_trace_and_final(self, tmp_path):
        cfg = load_config(os.path.join(DOCS, "noise_cooperation_optimize.json"))
        record = run_experiment(cfg)
        rows = [dict(zip(record.columns, r)) for r in record.rows]
        finals = [r for r in rows if r["final"] == 1]
        assert len(finals) == 1
        assert finals[0]["condition_residual"] < 1e-4
        assert finals[0]["converged"] == 1
        objectives = [r["objective"] for r in rows]
        # improvements only, up to the 1e-14 tie-break window at the end
        assert all(b <= a + 1e-13 for a, b in zip(objectives, objectives[1:]))


class TestMain:
    def run_main(self, args):
        return main(args)

    def test_validate_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        assert self.run_main(["validate", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["system"]["energies"] = [0.0, 2.0, 1.0]
        path = write_config(tmp_path, cfg)
        assert self.run_main(["validate", "--config", path]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_threads_flag_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        out = str(tmp_path / "o.csv")
        with pytest.raises(SystemExit) as info:
            self.run_main(["shot", "--config", path, "--out", out, "--threads", "4"])
        assert info.value.code == 2

    def test_subcommand_run_type_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        out = str(tmp_path / "o.csv")
        assert self.run_main(["ensemble", "--config", path, "--out", out]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = minimal_config(
            noise={
                "components": [
                    {"frequency": {"dist": "gaussian", "std": 500.0}},
                    {},
                ]
            },
            run={"type": "ensemble", "samples": 200, "seed": 1},
        )
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o.csv")
        assert self.run_main(["ensemble", "--config", path, "--out", out]) == 3
        assert "sample" in capsys.readouterr().err

    def test_quadrature_grid_beyond_node_cap_exit_code(self, tmp_path, capsys):
        # the starting grid of a detuning of 1e6 is past the node cap, so the
        # quadrature gives up before it builds anything
        cfg = minimal_config(evaluator="perturb-time")
        cfg["field"]["components"][1]["frequency"] = 114.0 + 1e6
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o.csv")
        assert self.run_main(["shot", "--config", path, "--out", out]) == 3
        err = capsys.readouterr().err
        assert "time-ordered quadrature did not converge" in err
        assert "Traceback" not in err

    def test_scan_to_nonpositive_frequency_exit_code(self, tmp_path, capsys):
        cfg = minimal_config(
            run={
                "type": "scan",
                "parameter": COMMON_DETUNING_PARAMETER,
                "grid": [0.0, -100.0],
            }
        )
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o.csv")
        assert self.run_main(["scan", "--config", path, "--out", out]) == 2
        assert "scan point -100.0" in capsys.readouterr().err

    def test_validate_lists_a_bad_scan_point(self, tmp_path, capsys):
        cfg = minimal_config(run=dict(SCAN_RUN, grid=[0.0, -100.0]))
        assert self.run_main(["validate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "scan point -100.0" in err

    def test_unwritable_output_exit_code(self, tmp_path, capsys, monkeypatch):
        shots = []
        real = cli_module.single_shot
        monkeypatch.setattr(
            cli_module, "single_shot", lambda *a: shots.append(a) or real(*a)
        )
        path = write_config(tmp_path, minimal_config())
        out = str(tmp_path / "missing" / "o.csv")
        assert self.run_main(["shot", "--config", path, "--out", out]) == 2
        assert "cannot write the output" in capsys.readouterr().err
        assert shots == []  # refused before the run

    @pytest.mark.parametrize(
        "config_path,flag",
        [("", []), ("", ["--out", ""]), (None, ["--out", ""])],
        ids=["config", "both", "flag"],
    )
    def test_empty_output_path_exits_before_the_run(
        self, tmp_path, capsys, monkeypatch, config_path, flag
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli_module, "run_experiment", refuse)
        path = write_config(tmp_path, minimal_config(output={"path": config_path}))
        assert self.run_main(["shot", "--config", path, *flag]) == 2
        assert "no output path" in capsys.readouterr().err

    def test_optimizer_non_convergence_exit_code(self, tmp_path, capsys):
        cfg = minimal_config(
            run={
                "type": "optimize",
                "target_yield": 0.1,
                "fluence_weight": 1e-3,
                "observable": "analytic",
                "init": [0.5, 0.5],
                "max_evals": 12,  # far too few to shrink the simplex
            }
        )
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o.csv")
        assert self.run_main(["optimize", "--config", path, "--out", out]) == 4
        assert "timing converged" not in capsys.readouterr().err
        # the best point found is still written
        body = [ln for ln in Path(out).read_text(encoding="utf-8").splitlines()
                if not ln.startswith("#")]
        assert body[0].startswith("eval_index")
        assert body[-1].split(",")[-2] == "0"  # converged column

    def test_same_seed_reproduces_output_bit_exactly(self, tmp_path):
        cfg = minimal_config(
            noise={
                "components": [
                    {"amplitude": {"dist": "uniform", "half_width": 0.2}},
                    {"amplitude": {"dist": "uniform", "half_width": 0.2}},
                ]
            },
            run={"type": "ensemble", "samples": 500, "seed": 12},
        )
        path = write_config(tmp_path, cfg)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert self.run_main(["ensemble", "--config", path, "--out", out1]) == 0
        assert self.run_main(["ensemble", "--config", path, "--out", out2]) == 0
        a = Path(out1).read_text(encoding="utf-8").replace("a.csv", "X")
        b = Path(out2).read_text(encoding="utf-8").replace("b.csv", "X")
        assert a == b
        assert "# config_digest=" in a and "# seed=12" in a

    def test_seed_override_changes_rows(self, tmp_path):
        cfg = minimal_config(
            noise={
                "components": [
                    {"amplitude": {"dist": "uniform", "half_width": 0.2}},
                    {},
                ]
            },
            run={"type": "ensemble", "samples": 200, "seed": 12},
        )
        path = write_config(tmp_path, cfg)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        self.run_main(["ensemble", "--config", path, "--out", out1])
        self.run_main(["ensemble", "--config", path, "--out", out2, "--seed", "13"])
        mean1 = Path(out1).read_text(encoding="utf-8").splitlines()[-1].split(",")[0]
        mean2 = Path(out2).read_text(encoding="utf-8").splitlines()[-1].split(",")[0]
        assert mean1 != mean2

    def test_csv_floats_use_17_significant_digits(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        out = str(tmp_path / "o.csv")
        assert self.run_main(["shot", "--config", path, "--out", out]) == 0
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        header = [ln for ln in lines if ln.startswith("yield")][0]
        row = lines[lines.index(header) + 1].split(",")
        assert row[0] == format(0.25, ".17g")
        assert any(ln.startswith("# version=") for ln in lines)
        assert any(ln.startswith("# reproduce=laddernoise shot") for ln in lines)

    def test_json_output_mirrors_rows(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        out = str(tmp_path / "o.json")
        code = self.run_main(
            ["shot", "--config", path, "--out", out, "--format", "json"]
        )
        assert code == 0
        doc = json.loads(Path(out).read_text(encoding="utf-8"))
        assert doc["metadata"]["config_digest"]
        assert doc["metadata"]["tolerances"]["tdse_rel_tol"] == 1e-10
        assert doc["rows"][0]["yield"] == pytest.approx(0.25, rel=1e-12)

    def test_docs_scan_example_end_to_end(self, tmp_path):
        out = str(tmp_path / "scan.csv")
        code = self.run_main(
            [
                "scan",
                "--config",
                os.path.join(DOCS, "antiresonance_scan.json"),
                "--out",
                out,
            ]
        )
        assert code == 0
        body = [
            ln for ln in Path(out).read_text(encoding="utf-8").splitlines()
            if not ln.startswith("#")
        ]
        assert body[0].split(",")[0] == "value"
        assert len(body) == 10  # header + 9 grid points


class TestExitCodes:
    @given(site=st.sampled_from(MUTATION_SITES), value=st.sampled_from(MALFORMED))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_malformed_value_gives_a_documented_exit_code(self, site, value):
        cfg, path = site
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "cfg.json")
            with open(config, "w") as fh:
                json.dump(replaced(cfg, path, value), fh)
            out = os.path.join(tmp, "out.csv")
            assert main([cfg["run"]["type"], "--config", config, "--out", out]) in (
                0, 2, 3, 4,
            )

    @pytest.mark.parametrize(
        "overrides,named",
        [
            ({"run": dict(OPTIMIZE_RUN, observable="tdse-mc")}, "run.observable"),
            ({"evaluator": "tdse", "run": OPTIMIZE_RUN}, "observable analytic"),
            (
                {"evaluator": "tdse", "target": 1, "run": dict(OPTIMIZE_RUN, observable="mc")},
                "target: optimize",
            ),
            (
                {
                    "noise": {"components": [{"frequency": {"dist": "gaussian", "std": 3.0}}, {}]},
                    "run": OPTIMIZE_RUN,
                },
                "run.observable",
            ),
            (
                {
                    "noise": {
                        "components": [{"frequency": {"dist": "uniform", "half_width": 100.0}}, {}]
                    },
                    "run": {"type": "ensemble", "samples": 2, "seed": 1},
                },
                "noise.components[0]",
            ),
            # a scan point rebuilds only the system and the field
            (
                {
                    "tolerances": {"time_quad_tol": 1e-9},
                    "run": dict(SCAN_RUN, parameter="tolerances.time_quad_tol", grid=[1e-9, 1e-3]),
                },
                "run.parameter",
            ),
            ({"run": dict(SCAN_RUN, parameter="evaluator")}, "run.parameter"),
            ({"target": 2, "run": dict(SCAN_RUN, parameter="target")}, "run.parameter"),
            ({"run": dict(SCAN_RUN, parameter="run.grid[0]")}, "run.parameter"),
        ],
    )
    def test_rule_violation_is_listed(self, tmp_path, capsys, overrides, named):
        cfg = minimal_config(**overrides)
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o.csv")
        assert main([cfg["run"]["type"], "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and named in err

    @pytest.mark.parametrize(
        "overrides,named",
        [
            ({"noise": 5}, "noise"),
            ({"target": "top"}, "target"),
            ({"output": "x.csv"}, "output"),
            ({"tolerances": {"time_quad_tol": "x"}}, "time_quad_tol"),
            ({"tolerances": {"time_quad_tol": -1}}, "time_quad_tol"),
            ({"evaluator": "tdse", "tolerances": {"tdse_rel_tol": 0.5}}, "tdse_rel_tol"),
        ],
    )
    def test_malformed_value_is_a_listed_violation(self, tmp_path, capsys, overrides, named):
        # off resonance, so that a negative quadrature tolerance used to end in
        # a numerical failure (exit 3) instead of a configuration error
        field = minimal_config()["field"]
        field["components"][1]["frequency"] = 114.5
        cfg = minimal_config(**{"field": field, "evaluator": "perturb-time", **overrides})
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o.csv")
        assert main(["shot", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and named in err

    def test_envelope_truncation_is_not_a_setting(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["field"]["envelope"]["truncation_halfwidths"] = 8.0
        path = write_config(tmp_path, cfg)
        assert main(["shot", "--config", path, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert "field.envelope" in err and "truncation_halfwidths" in err

    def test_misspelled_noise_key_is_listed(self, tmp_path, capsys):
        # read as a component without noise, it moved the optimum amp_1 from 0.523 to 0.560
        with open(os.path.join(DOCS, "noise_cooperation_optimize.json")) as fh:
            cfg = json.load(fh)
        component = cfg["noise"]["components"][1]
        component["amplitud"] = component.pop("amplitude")
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o.csv")
        assert main(["optimize", "--config", path, "--out", out]) == 2
        assert "noise.components[1]: unknown key 'amplitud'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_noise_is_checked_without_a_field(self, tmp_path, capsys):
        with open(os.path.join(DOCS, "noise_cooperation_optimize.json")) as fh:
            cfg = json.load(fh)
        cfg["field"]["envelope"]["tau"] = "x"
        cfg["noise"]["components"][0]["bogus"] = 1
        cfg["noise"]["components"][1]["amplitude"]["half_width"] = -1
        assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "field.envelope: need a number, got 'x'" in err
        assert "noise.components[0]: unknown key 'bogus'" in err
        assert "noise.components[1]: half_width must be nonnegative" in err

    @pytest.mark.parametrize(
        "site,named",
        [
            ((), "top level"),
            (("system",), "system"),
            (("field",), "field"),
            (("field", "envelope"), "field.envelope"),
            (("field", "components", 1), "field.components[1]"),
            (("noise",), "noise"),
            (("noise", "components", 0), "noise.components[0]"),
            # a distribution's own keys are listed under its component
            (("noise", "components", 0, "frequency"), "noise.components[0]"),
            (("run",), "run"),
            (("output",), "output"),
            (("tolerances",), "tolerances"),
        ],
    )
    def test_unknown_key_is_listed(self, tmp_path, capsys, site, named):
        cfg = minimal_config(
            noise={"components": [{"frequency": {"dist": "gaussian", "std": 0.5}}, {}]},
            run={"type": "ensemble", "samples": 2, "seed": 1},
            tolerances={"closed_form_tol": 1e-7},
        )
        node = cfg
        for key in site:
            node = node[key]
        node["extra"] = 1.0
        assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and f"{named}: unknown key 'extra'" in err

    @pytest.mark.parametrize("value", [[], 0, False, ""], ids=repr)
    @pytest.mark.parametrize("key", ["tolerances", "output"])
    def test_section_that_is_not_an_object_is_listed(self, tmp_path, capsys, key, value):
        # only an absent key or null means the defaults
        cfg = minimal_config(**{key: value})
        assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and f"{key}: need an object" in err

    @pytest.mark.parametrize("key", ["tolerances", "output"])
    def test_null_section_takes_the_defaults(self, tmp_path, capsys, key):
        cfg = minimal_config(**{key: None})
        assert main(["validate", "--config", write_config(tmp_path, cfg)]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "run,key",
        [
            ({"type": "shot", "samples": 10}, "samples"),
            (dict(SCAN_RUN, init=[0.5, 0.5]), "init"),
            ({"type": "ensemble", "samples": 2, "seed": 1, "observable": "mc"}, "observable"),
            (dict(OPTIMIZE_RUN, observabel="mc"), "observabel"),
            (dict(OPTIMIZE_RUN, grid=[1.0, 2.0]), "grid"),
        ],
    )
    def test_run_keys_are_checked_per_run_type(self, tmp_path, capsys, run, key):
        path = write_config(tmp_path, minimal_config(run=run))
        assert main(["validate", "--config", path]) == 2
        assert f"run: unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "site,literal,named",
        [
            (("field", "envelope", "tau"), "Infinity", "field.envelope.tau"),
            (
                ("field", "components", 1, "frequency"),
                "Infinity",
                "field.components[1].frequency",
            ),
            # json reads an overflowing literal as inf
            (("system", "energies", 2), "1e999", "system.energies[2]"),
            (("system", "dipoles", 0), "NaN", "system.dipoles[0]"),
            (("field", "components", 0, "phase"), "NaN", "field.components[0].phase"),
            (("run", "grid", 1), "Infinity", "run.grid[1]"),
        ],
    )
    def test_non_finite_number_is_listed(self, tmp_path, capsys, site, literal, named):
        cfg = replaced(minimal_config(run=SCAN_RUN), site, "@nonfinite@")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg).replace('"@nonfinite@"', literal))
        out = str(tmp_path / "o.csv")
        assert main(["scan", "--config", str(path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert f"{named}: " in err and "not a finite number" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "overrides,site,value,named",
        [
            ({}, ("field", "envelope", "tau"), "inf", "field.envelope"),
            ({}, ("system", "dipoles", 1), "Infinity", "system.dipoles"),
            ({}, ("field", "components", 0, "phase"), "nan", "field.components[0]"),
            ({}, ("field", "components", 1, "frequency"), "1e999", "field.components[1]"),
            ({}, ("field", "components", 0, "amplitude"), "1.0", "field.components[0]"),
            ({}, ("field", "components", 0, "amplitude"), True, "field.components[0]"),
            ({}, ("system", "energies", 1), "60", "system.energies"),
            # json reads this literal as an int that no double holds
            ({}, ("system", "energies", 2), 10**400, "system.energies"),
            ({"run": SCAN_RUN}, ("run", "grid", 1), "2", "run.grid"),
            ({"run": OPTIMIZE_RUN}, ("run", "init", 0), "0.5", "run.init"),
            ({"run": OPTIMIZE_RUN}, ("run", "target_yield"), "0.1", "run: "),
            (
                {
                    "noise": {
                        "components": [{"amplitude": {"dist": "uniform", "half_width": 0.1}}, {}]
                    },
                    "run": {"type": "ensemble", "samples": 2, "seed": 1},
                },
                ("noise", "components", 0, "amplitude", "half_width"),
                "0.1",
                "noise.components[0]",
            ),
        ],
        ids=[
            "tau-inf",
            "dipole-Infinity",
            "phase-nan",
            "frequency-1e999",
            "amplitude-string",
            "amplitude-true",
            "energy-string",
            "energy-int-overflow",
            "grid-string",
            "init-string",
            "target_yield-string",
            "half_width-string",
        ],
    )
    def test_number_must_be_a_json_number(
        self, tmp_path, capsys, overrides, site, value, named
    ):
        cfg = replaced(minimal_config(**overrides), site, value)
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o.csv")
        assert main([cfg["run"]["type"], "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and named in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "base,changes",
        [
            ("three-rung", {("field", "components", 0, "amplitude"): 1e200}),  # the yield
            # the first panel count of the propagator is past the node cap
            ("three-rung", {("field", "components", 0, "amplitude"): 1e30,
                            ("field", "components", 1, "amplitude"): 1e30,
                            ("field", "components", 2, "amplitude"): 1e30,
                            ("evaluator",): "tdse"}),
            ("three-rung", {("field", "envelope", "tau"): 1e120}),  # s^N
            ("three-rung", {("field", "envelope"): {"kind": "rectangular", "duration": 1e120}}),
            # the quadrature floor tau^N / N!
            ("three-rung", {("field", "envelope", "tau"): 1e120, ("evaluator",): "perturb-time"}),
            ("scan", {("field", "envelope", "duration"): 1e200}),
            # sigma^2 underflows to 0 on resonance
            ("two-rung", {("field", "envelope", "tau"): 1e300}),
            # the phase omega*T of the equal-detuning spectrum is -inf
            ("two-rung", {("field", "envelope"): {"kind": "rectangular", "duration": 1e308},
                          ("field", "components", 0, "frequency"): 70.0,
                          ("field", "components", 1, "frequency"): 124.0}),
            # the residue sum's phases are infinite, so the amplitude is nan
            ("two-rung", {("field", "envelope"): {"kind": "rectangular", "duration": 1e308},
                          ("field", "components", 0, "frequency"): 70.0,
                          ("field", "components", 1, "frequency"): 117.0}),
        ],
        ids=["amplitude", "tdse-amplitude", "tau", "duration", "perturb-time", "scan",
             "resonant-tau", "rect-equal-duration", "rect-distinct-duration"],
    )
    def test_finite_huge_value_is_a_numerical_failure(self, tmp_path, capsys, base, changes):
        command = "scan" if base == "scan" else "shot"
        if base == "scan":
            with open(os.path.join(DOCS, "antiresonance_scan.json")) as fh:
                cfg = json.load(fh)
        else:
            cfg = minimal_config()
        if base == "three-rung":
            # so that s^N, T^N and tau^N overflow before the yield
            cfg["system"] = {"energies": [0.0, 60.0, 174.0, 336.0], "dipoles": [1.0] * 3}
            cfg["field"]["components"].append({"amplitude": 1.0, "phase": 0.0, "frequency": 162.0})
        for site, value in changes.items():
            cfg = replaced(cfg, site, value)
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o.csv")
        assert main([command, "--config", path, "--out", out]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "run,evaluator",
        [
            ({"type": "shot"}, "closed-form"),
            (SCAN_RUN, "closed-form"),
            (SCAN_RUN, "perturb-time"),
            ({"type": "ensemble", "samples": 4, "seed": 1}, "closed-form"),
        ],
        ids=["shot", "scan-closed-form", "scan-perturb-time", "ensemble"],
    )
    @pytest.mark.parametrize("rungs", [2, 3])
    def test_huge_dipoles_are_a_numerical_failure(self, tmp_path, capsys, run, evaluator, rungs):
        # on three rungs the product of the dipoles 1e120 is inf, which used to
        # give inf, nan rows; on two its square overflows in the yield
        gaps = [60.0, 114.0, 162.0][:rungs]
        cfg = minimal_config(run=run, evaluator=evaluator)
        cfg["system"] = {"energies": [0.0, 60.0, 174.0, 336.0][:rungs + 1],
                         "dipoles": [1e120] * rungs}
        cfg["field"]["components"] = [
            {"amplitude": 1.0, "phase": 0.0, "frequency": gap + 0.3} for gap in gaps
        ]
        cfg["noise"] = {"components": [{"frequency": {"dist": "gaussian", "std": 0.1}}] * rungs}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o.csv")
        assert main([run["type"], "--config", path, "--out", out]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "not finite" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "run,named",
        [
            ({"type": "ensemble", "samples": 2, "seed": -1}, "run.seed"),
            ({"type": "ensemble", "samples": 2, "seed": 2**64}, "run.seed"),
            ({"type": "shot", "seed": 2**64}, "run.seed"),
            (dict(OPTIMIZE_RUN, max_evals=2), "run.max_evals"),
            (dict(OPTIMIZE_RUN, observable="mc", max_evals=0), "run.max_evals"),
            # past the largest (samples, M, 3) offset table numpy can index
            ({"type": "ensemble", "samples": 2**70, "seed": 1}, "run.samples"),
            (dict(OPTIMIZE_RUN, observable="mc", mc_samples=2**70), "run.mc_samples"),
        ],
    )
    def test_out_of_range_run_value_is_listed(self, tmp_path, capsys, run, named):
        path = write_config(tmp_path, minimal_config(run=run))
        out = str(tmp_path / "o.csv")
        assert main([run["type"], "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and named in err

    @pytest.mark.parametrize("command", ["shot", "scan", "ensemble", "optimize", "validate"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
    def test_out_of_range_seed_flag_exits_2(self, tmp_path, capsys, command, seed):
        path = write_config(tmp_path, minimal_config())
        out = str(tmp_path / "o.csv")
        with pytest.raises(SystemExit) as info:
            main([command, "--config", path, "--out", out, "--seed", seed])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("seed", [-5, 2**64])
    def test_run_experiment_refuses_an_out_of_range_seed_override(self, tmp_path, seed):
        # a shot ignores the seed, but the output would record it for reproduction
        config = load_config(write_config(tmp_path, minimal_config()))
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            run_experiment(config, seed_override=seed)

    def test_largest_seed_runs(self, tmp_path):
        cfg = minimal_config(
            noise={"components": [{"phase": {"dist": "uniform", "half_width": 0.1}}] * 2},
            run={"type": "ensemble", "samples": 2, "seed": 2**64 - 1},
        )
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o.csv")
        assert main(["ensemble", "--config", path, "--out", out, "--seed", str(2**64 - 1)]) == 0
        with open(out, encoding="utf-8") as fh:
            assert f"# seed={2**64 - 1}" in fh.read()
