"""End-to-end tests for the ``popcode-mi`` command-line runner."""

import json
import math
import os
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from popcode_mi import cli
from popcode_mi.cli import _build_parser, _resolve, main
from popcode_mi.fisher import GridPrior
from popcode_mi.mc import MCConfig, mc_mutual_information

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def write_patch_file(path, patches):
    m, k = patches.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", m, k))
        fh.write(np.ascontiguousarray(patches, dtype="<f4").tobytes())
    return str(path)


def read_rows(path):
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


TINY_FIG1 = {
    "n_list": [2, 3],
    "j_max": 300,
    "m": 50,
    "repeats": 2,
}

TINY_CAPACITY = {"n": 5, "m": 50}

TINY = {
    "fig1": TINY_FIG1,
    "fig2": {"widths": [2], "n_list": [200]},
    "optimize": {"k1": 3, "n": 8, "m": 80, "tol": 1e-6},
    "capacity": TINY_CAPACITY,
}


class TestExitCodes:
    def test_success_returns_zero_and_prints_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cap.json", TINY_CAPACITY)
        out = tmp_path / "cap.csv"
        assert main(["capacity", "--config", cfg, "--out", str(out)]) == 0
        assert "capacity" in capsys.readouterr().out
        assert out.exists() and out.with_suffix(".csv.json").exists()

    def test_missing_config_file_is_a_config_error(self, tmp_path, capsys):
        rc = main(["capacity", "--config", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_json_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["capacity", "--config", str(cfg)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"n": 5, "m": 50, "note": "\xff"}')
        assert main(["capacity", "--config", str(cfg)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["absent/cap.csv", "cap\0.csv"])
    def test_unwritable_output_is_a_config_error(self, name, tmp_path, capsys):
        cfg = write_config(tmp_path / "cap.json", dict(TINY_CAPACITY, out=str(tmp_path / name)))
        assert main(["capacity", "--config", cfg]) == 2
        assert "configuration error: cannot write output" in capsys.readouterr().err

    def test_non_object_config_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["capacity", "--config", str(cfg)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"n": 5, "m": 50, "bogus": 1})
        assert main(["capacity", "--config", cfg]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_bad_value_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"n": 5, "m": 50, "width": -1.0})
        assert main(["capacity", "--config", cfg]) == 2
        assert "width" in capsys.readouterr().err

    def test_overflowing_prior_width_is_named(self, tmp_path, capsys):
        # 1e-200 overflows the concentration, 0.01 the normalizer's I_0.
        for width in (1e-200, 0.01):
            cfg = write_config(tmp_path / "cfg.json", dict(TINY_CAPACITY, prior_width=width))
            assert main(["capacity", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 3
            assert (f"numerical failure: width {width!r} is too small for period"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("experiment", ["fig1", "optimize", "capacity"])
    def test_one_node_grid_is_a_config_error(self, experiment, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dict(TINY[experiment], m=1))
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "configuration error: m must be at least 2, got 1" in capsys.readouterr().err

    def test_amplitude_2e8_runs(self, tmp_path):
        """Rates above 100 come from numpy's sampler, up to its own limit."""
        cfg = write_config(tmp_path / "cfg.json", dict(TINY_FIG1, amplitude=2e8))
        assert main(["fig1", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 0
        header, rows = read_rows(tmp_path / "o.csv")
        assert len(rows) == 2 and all(math.isfinite(float(r[header.index("I_MC")])) for r in rows)

    def test_amplitude_past_numpys_largest_rate_names_the_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dict(TINY_FIG1, amplitude=1e19))
        assert main(["fig1", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
        assert re.search(r"numerical failure: Poisson rates must be at most "
                         r"9\.223e\+18, numpy's limit: node \d+, neuron \d+ has rate ",
                         capsys.readouterr().err)
        assert not list(tmp_path.glob("*.csv*"))

    @pytest.mark.parametrize("experiment, key", [
        ("fig2", "amplitude"), ("fig2", "period"), ("optimize", "peak_power"),
        ("optimize", "center_span"), ("capacity", "paper_scale"), ("capacity", "i_max"),
    ])
    def test_key_the_run_does_not_read_is_unknown(self, experiment, key, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dict(TINY[experiment], **{key: 5}))
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"unknown config keys for {experiment}: ['{key}']" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv*"))

    def test_retired_fig1_i_max_is_ignored_with_a_note(self, tmp_path, capsys):
        """fig1's retired bootstrap count: one stderr line, and the CSV, config
        and hash of the run without it."""
        plain, retired = tmp_path / "plain.csv", tmp_path / "retired.csv"
        assert main(["fig1", "--config", write_config(tmp_path / "plain.json", TINY_FIG1),
                     "--out", str(plain)]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path / "retired.json", dict(TINY_FIG1, i_max=20))
        assert main(["fig1", "--config", cfg, "--out", str(retired)]) == 0
        assert capsys.readouterr().err == ("popcode-mi fig1: config key i_max is ignored: "
                                           "I_std is the bootstrap's closed-form limit\n")
        assert retired.read_bytes() == plain.read_bytes()
        configs = [json.loads(Path(f"{path}.json").read_text())["config"] for path in (plain, retired)]
        assert configs[1] == dict(configs[0], out=str(retired))

    def test_retired_fig1_i_max_is_still_checked(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dict(TINY_FIG1, i_max=0))
        assert main(["fig1", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "i_max must be a positive integer, got 0" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv*"))

    def test_paper_scale_flag_is_fig1_only(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig2", "--paper-scale"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --paper-scale" in capsys.readouterr().err

    def test_experiment_mismatch_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           dict(TINY_CAPACITY, experiment="fig1"))
        assert main(["capacity", "--config", cfg]) == 2
        assert "'fig1'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, payload", [
        ("widths", {"widths": [True]}),
        ("n_list", {"n_list": [True, 50]}),
        ("workers", {"workers": True}),
        ("seed", {"seed": True}),
        ("amplitude", {"amplitude": True}),
        ("amplitude", {"amplitude": math.inf}),
        ("width", {"width": math.inf}),
        ("period", {"period": math.inf}),
        ("avg_power", {"avg_power": math.inf}),
        ("tol", {"tol": math.inf}),
        ("bits", {"bits": "no"}),
        ("paper_scale", {"paper_scale": "false"}),
        ("out", {"out": 7}),
        ("out", {"out": ""}),
        ("bits", {"bits": 1}),
    ])
    def test_json_booleans_are_not_numbers(self, key, payload, tmp_path, capsys):
        """JSON ``true`` and ``Infinity`` are rejected where a number is expected,
        and anything but a boolean where a flag is, or a path string for ``out``;
        each key on an experiment that reads it."""
        experiment = {"amplitude": "fig1", "width": "fig1", "period": "fig1", "paper_scale": "fig1",
                      "avg_power": "optimize", "tol": "optimize"}.get(key, "fig2")
        cfg = write_config(tmp_path / "cfg.json", dict(TINY[experiment], **payload))
        out = [] if key == "out" else ["--out", str(tmp_path / "o.csv")]
        assert main([experiment, "--config", cfg] + out) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv*"))

    @pytest.mark.parametrize("experiment, key, payload", [
        ("fig1", "n_list", dict(TINY_FIG1, n_list=[3, 3])),
        ("fig2", "widths", {"widths": [2, 4, 2], "n_list": [50]}),
        ("fig2", "n_list", {"widths": [2], "n_list": [50, 50]}),
    ])
    def test_repeated_list_values_are_rejected(self, experiment, key, payload, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert f"{key} must be free of repeated values" in capsys.readouterr().err

    def test_negative_seed_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cap.json", TINY_CAPACITY)
        assert main(["capacity", "--config", cfg, "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_capacity_that_is_not_positive_names_n_amplitude_and_width(self, tmp_path, capsys):
        """Not redundancy's "capacity must be positive and finite": the keys at fault."""
        cfg = write_config(tmp_path / "cap.json", dict(TINY_CAPACITY, amplitude=0.01))
        assert main(["capacity", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 3
        err = capsys.readouterr().err
        assert re.search(r"^popcode-mi: numerical failure: the asymptotic capacity is -1\.8796\d* nats, "
                         r"not positive, so the redundancy is undefined: n = 5, amplitude = 0\.01 "
                         r"and width = 0\.5 give too little Fisher information$", err.strip())
        assert not list(tmp_path.glob("c.csv*"))

    def test_infeasible_power_budget_is_a_numerical_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "opt.json",
                           {"k1": 3, "n": 8, "m": 80, "avg_power": 1e-4})
        rc = main(["optimize", "--config", cfg,
                   "--out", str(tmp_path / "opt.csv")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


    def test_budget_at_the_domain_edge_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        """Only the cheapest class meets the budget, and its vertex has I = -inf."""
        from popcode_mi import cli
        from popcode_mi.fisher import GridPrior
        from popcode_mi.optimize import build_problem

        thetas = np.array([-0.45, 0.0, 0.40])
        monkeypatch.setattr(cli, "_centers", lambda k1, span: thetas)
        cost = build_problem(thetas, GridPrior.von_mises(m=300), n=8, avg_power=1e9).power_cost
        cfg = write_config(tmp_path / "opt.json",
                           {"k1": 3, "n": 8, "m": 300, "avg_power": float(cost.min()) + 1e-4})
        assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "opt.csv")]) == 3
        assert "numerical failure: power multiplier search failed" in capsys.readouterr().err


class _Reads(dict):
    """A config that records which keys are read from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("experiment", sorted(TINY))
def test_every_accepted_key_is_read(experiment, tmp_path):
    """An experiment accepts the run keys (``seed``, ``out``, ``bits``, ``workers``)
    and only keys its runner reads, plus ``paper_scale`` where it picks scaled
    defaults: a key that changes nothing cannot change the config hash."""
    cfg = write_config(tmp_path / "cfg.json", TINY[experiment])
    resolved = _resolve(experiment, _build_parser().parse_args([experiment, "--config", cfg]))
    reads = _Reads(resolved)
    cli._RUNNERS[experiment](reads)
    scaled = any(isinstance(default, cli._Scaled)
                 for default, *_ in cli._EXPERIMENT_KEYS[experiment].values())
    unread = set(resolved) - reads.read - {"seed", "out", "bits", "workers"}
    assert sorted(unread - ({"paper_scale"} if scaled else set())) == []


class TestReproducibility:
    def test_identical_config_and_seed_reproduce_csv_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "fig1.json", TINY_FIG1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["fig1", "--config", cfg, "--seed", "11", "--out", str(a)]) == 0
        assert main(["fig1", "--config", cfg, "--seed", "11", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fig1_csv_bytes_do_not_depend_on_workers(self, tmp_path):
        # M = 4096 gives 256-row likelihood chunks, so j_max = 700 spans three;
        # n_list is not sorted, so largest-first submission reorders the runs.
        outputs = set()
        for workers in (1, 3):
            cfg = write_config(tmp_path / f"w{workers}.json",
                               {"n_list": [2, 5, 3], "j_max": 700, "m": 4096,
                                "repeats": 2, "workers": workers})
            out = tmp_path / f"w{workers}.csv"
            assert main(["fig1", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    def test_different_seed_changes_monte_carlo_columns_only(self, tmp_path):
        cfg = write_config(tmp_path / "fig1.json", TINY_FIG1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["fig1", "--config", cfg, "--seed", "11", "--out", str(a)])
        main(["fig1", "--config", cfg, "--seed", "12", "--out", str(b)])
        header, rows_a = read_rows(a)
        _, rows_b = read_rows(b)
        i_mc, i_g_col = header.index("I_MC"), header.index("I_G")
        assert [r[i_mc] for r in rows_a] != [r[i_mc] for r in rows_b]
        assert [r[i_g_col] for r in rows_a] == [r[i_g_col] for r in rows_b]

    def test_default_output_name_is_the_experiment(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cap.json", TINY_CAPACITY)
        assert main(["capacity", "--config", cfg]) == 0
        assert (tmp_path / "capacity.csv").exists()
        assert (tmp_path / "capacity.csv.json").exists()


class TestSidecar:
    @pytest.fixture()
    def sidecar(self, tmp_path):
        cfg = write_config(tmp_path / "cap.json", TINY_CAPACITY)
        out = tmp_path / "cap.csv"
        assert main(["capacity", "--config", cfg, "--seed", "3",
                     "--out", str(out)]) == 0
        with open(str(out) + ".json") as fh:
            return json.load(fh)

    def test_provenance_fields_are_present(self, sidecar):
        for key in ("experiment", "config", "config_hash", "seed",
                    "units", "version", "wall_time_s"):
            assert key in sidecar
        assert sidecar["experiment"] == "capacity"
        assert sidecar["seed"] == 3
        assert sidecar["units"] == "nats"
        assert sidecar["wall_time_s"] >= 0.0

    def test_environment_is_recorded(self, sidecar):
        env = sidecar["environment"]
        assert set(env) == {"python", "numpy", "blas", "workers", "blas_threads"}
        assert env["python"] == sys.version.split()[0]
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"} and env["blas"]["name"]
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        assert env["workers"] == cpus
        assert env["blas_threads"] == 1

    def test_config_is_fully_resolved(self, sidecar):
        assert sidecar["config"]["n"] == 5
        assert sidecar["config"]["amplitude"] == 20.0
        assert sidecar["config"]["period"] == pytest.approx(math.pi)

    def test_hash_ignores_seed_but_not_science(self, tmp_path):
        hashes = {}
        for name, experiment, seed, payload in (
                ("a", "capacity", "1", TINY_CAPACITY),
                ("b", "capacity", "2", TINY_CAPACITY),
                ("c", "capacity", "1", dict(TINY_CAPACITY, amplitude=25.0)),
                ("d", "capacity", "1", dict(TINY_CAPACITY, workers=1)),
                ("e", "fig1", "1", dict(TINY_FIG1, paper_scale=True)),
                ("f", "fig1", "1", dict(TINY_FIG1, paper_scale=False)),
                ("g", "fig1", "1", TINY_FIG1)):
            path = write_config(tmp_path / f"{name}.json", payload)
            out = tmp_path / f"{name}.csv"
            assert main([experiment, "--config", path, "--seed", seed, "--out", str(out)]) == 0
            with open(str(out) + ".json") as fh:
                hashes[name] = json.load(fh)["config_hash"]
        assert hashes["a"] == hashes["b"] == hashes["d"]
        assert hashes["e"] == hashes["f"] == hashes["g"]
        assert hashes["a"] != hashes["c"]
        assert len(hashes["a"]) == 16


class TestUnits:
    # Outputs measured in information units; every other column and key is
    # unit-free (relative errors, densities, Fisher values) or provenance.
    INFO_COLUMNS = {"I_MC", "I_std", "I_G", "I_G+", "I_F", "dI_F", "gradient"}
    INFO_KEYS = {"objective", "objective_trace", "capacity", "i_g", "duality_gap", "kkt"}

    def test_bits_flag_divides_by_ln2(self, tmp_path):
        for experiment, payload in TINY.items():
            cfg = write_config(tmp_path / f"{experiment}.json", payload)
            csvs, sides = {}, {}
            for label, extra in (("nats", []), ("bits", ["--bits"])):
                out = tmp_path / f"{experiment}_{label}.csv"
                assert main([experiment, "--config", cfg, "--seed", "4",
                             "--out", str(out)] + extra) == 0
                csvs[label] = read_rows(out)
                with open(str(out) + ".json") as fh:
                    sides[label] = json.load(fh)
                assert sides[label]["units"] == label
            header, nats = csvs["nats"]
            assert csvs["bits"][0] == header
            for row_n, row_b in zip(nats, csvs["bits"][1], strict=True):
                for name, n, b in zip(header, row_n, row_b):
                    if name in self.INFO_COLUMNS:
                        assert float(b) == float(n) / math.log(2.0), (experiment, name)
                    elif name != "config_hash":  # the hash covers the bits key
                        assert b == n, (experiment, name)
            side_n, side_b = sides["nats"], sides["bits"]
            assert side_n.keys() == side_b.keys()
            for key in side_n.keys() - {"units", "config", "config_hash", "wall_time_s"}:
                if key == "objective_trace":
                    assert side_b[key] == [v / math.log(2.0) for v in side_n[key]]
                elif key == "kkt":
                    assert side_b[key] == {k: v / math.log(2.0) for k, v in side_n[key].items()}
                elif key in self.INFO_KEYS:
                    assert side_b[key] == side_n[key] / math.log(2.0), (experiment, key)
                else:
                    assert side_b[key] == side_n[key], (experiment, key)


class TestFlagPrecedence:
    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "cap.json", dict(TINY_CAPACITY, seed=5))
        out = tmp_path / "cap.csv"
        assert main(["capacity", "--config", cfg, "--seed", "9",
                     "--out", str(out)]) == 0
        with open(str(out) + ".json") as fh:
            assert json.load(fh)["seed"] == 9

    def test_paper_scale_flag_resolves_full_sample_counts(self):
        args = _build_parser().parse_args(["fig1", "--paper-scale"])
        cfg = _resolve("fig1", args)
        assert cfg["j_max"] == 500_000
        assert cfg["m"] == 1000
        assert cfg["n_list"][-1] == 1000

    def test_desk_scale_is_the_default(self):
        args = _build_parser().parse_args(["fig1"])
        cfg = _resolve("fig1", args)
        assert cfg["j_max"] == 50_000
        assert cfg["m"] == 500
        assert cfg["n_list"][-1] == 100

    @pytest.mark.parametrize("experiment", ["fig1", "fig2", "optimize", "capacity"])
    def test_bundled_config_is_the_defaults(self, experiment):
        """``scripts/configs/<experiment>.json`` resolves to exactly the no-config
        values, types included (they enter the config hash through JSON)."""
        config = CONFIGS / f"{experiment}.json"
        bundled = _resolve(experiment, _build_parser().parse_args(
            [experiment, "--config", str(config)]))
        default = _resolve(experiment, _build_parser().parse_args([experiment]))
        assert json.dumps(bundled, sort_keys=True) == json.dumps(default, sort_keys=True)

    def test_explicit_config_beats_stored_paper_scale(self, tmp_path):
        cfg = write_config(tmp_path / "f.json", {"paper_scale": True, "j_max": 123})
        args = _build_parser().parse_args(["fig1", "--config", cfg])
        resolved = _resolve("fig1", args)
        assert resolved["j_max"] == 123
        assert resolved["m"] == 1000

    def test_paper_scale_flag_beats_the_config(self, tmp_path):
        cfg = write_config(tmp_path / "f.json", dict(TINY_FIG1, paper_scale=False))
        args = _build_parser().parse_args(["fig1", "--config", cfg, "--paper-scale"])
        resolved = _resolve("fig1", args)
        assert resolved["paper_scale"] is True
        assert (resolved["j_max"], resolved["m"]) == (500_000, 1000)
        assert resolved["n_list"][-1] == 1000
        assert resolved["repeats"] == TINY_FIG1["repeats"]


class TestFig2:
    def test_synthetic_gap_is_negative(self, tmp_path):
        cfg = write_config(tmp_path / "f2.json",
                           {"widths": [2], "n_list": [200]})
        out = tmp_path / "f2.csv"
        assert main(["fig2", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out)
        row = dict(zip(header, rows[0]))
        assert float(row["dI_F"]) < 0.0
        assert float(row["I_F"]) < float(row["I_G"])
        with open(str(out) + ".json") as fh:
            assert json.load(fh)["source"] == "synthetic_power_law"

    def test_patch_file_spectrum_reports_divergent_fisher(self, tmp_path):
        rng = np.random.default_rng(0)
        patches = write_patch_file(tmp_path / "p.bin", rng.normal(size=(400, 4)))
        cfg = write_config(tmp_path / "f2.json",
                           {"widths": [2], "n_list": [200], "patch_file": patches})
        out = tmp_path / "f2.csv"
        assert main(["fig2", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out)
        row = dict(zip(header, rows[0]))
        # Per-patch mean removal zeroes one covariance direction, so the
        # Fisher-based entropy diverges while I_G stays finite.
        assert math.isfinite(float(row["I_G"])) and float(row["I_G"]) > 0.0
        assert float(row["I_F"]) == -math.inf
        assert float(row["DI_F"]) == -math.inf
        with open(str(out) + ".json") as fh:
            assert json.load(fh)["source"] == "patch_file"

    def test_patch_width_mismatch_is_a_config_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        patches = write_patch_file(tmp_path / "p.bin", rng.normal(size=(50, 4)))
        cfg = write_config(tmp_path / "f2.json",
                           {"widths": [3], "n_list": [100], "patch_file": patches})
        assert main(["fig2", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "w^2 = K" in capsys.readouterr().err

    def test_csv_bytes_do_not_depend_on_workers(self, tmp_path):
        # N = 9000 spans three column blocks, so pool threads share cells.
        outputs = set()
        for workers in (1, 3):
            cfg = write_config(tmp_path / f"w{workers}.json",
                               {"widths": [2, 4], "n_list": [100, 9000], "workers": workers})
            out = tmp_path / f"w{workers}.csv"
            assert main(["fig2", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    def test_csv_bytes_do_not_depend_on_workers_with_shared_prefixes(self, tmp_path):
        # Unsorted widths and n_list; N = 3700 splits the second 2,500-column
        # block and N = 7500 ends the third.
        outputs = set()
        for workers in (1, 2, 5):
            cfg = write_config(tmp_path / f"w{workers}.json",
                               {"widths": [3, 2], "n_list": [7500, 3700, 40], "workers": workers})
            out = tmp_path / f"w{workers}.csv"
            assert main(["fig2", "--config", cfg, "--seed", "8", "--out", str(out)]) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    def test_truncated_patch_file_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "trunc.bin"
        path.write_bytes(struct.pack("<II", 10, 4) + b"\x00" * 7)
        cfg = write_config(tmp_path / "f2.json",
                           {"widths": [2], "n_list": [100], "patch_file": str(path)})
        assert main(["fig2", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "cannot ingest patch file" in capsys.readouterr().err

    def test_unusable_patch_values_are_a_config_error(self, tmp_path, capsys):
        patches = np.random.default_rng(0).normal(size=(50, 4))
        patches[7, 2] = math.nan
        csv_path = tmp_path / "nan.csv"
        np.savetxt(csv_path, patches, delimiter=",")
        empty = write_patch_file(tmp_path / "empty.bin", np.zeros((0, 4)))
        for path, reason in ((str(csv_path), "non-finite value nan at row 7, column 2"),
                             (empty, "holds no patch values")):
            cfg = write_config(tmp_path / "f2.json",
                               {"widths": [2], "n_list": [100], "patch_file": path})
            assert main(["fig2", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
            err = capsys.readouterr().err
            assert "configuration error: cannot ingest patch file" in err and reason in err


class TestOptimizeAndFig1Runs:
    def test_optimize_emits_certificate_and_density(self, tmp_path):
        cfg = write_config(tmp_path / "opt.json",
                           {"k1": 3, "n": 8, "m": 80, "tol": 1e-6})
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out)
        alphas = [float(dict(zip(header, r))["alpha"]) for r in rows]
        assert sum(alphas) == pytest.approx(1.0, abs=1e-12)
        with open(str(out) + ".json") as fh:
            side = json.load(fh)
        assert side["converged"] is True
        assert side["kkt"]["inequality_violation"] <= 1e-6
        assert side["power_slack"] is None

    def test_binding_budget_reports_certificate_and_multiplier(self, tmp_path):
        cfg = write_config(tmp_path / "opt.json", {"k1": 10, "avg_power": 10.33})
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        with open(str(out) + ".json") as fh:
            side = json.load(fh)
        assert side["converged"] is True
        assert side["duality_gap"] < 1e-8
        assert side["kkt"]["power_multiplier"] > 0.0
        assert side["kkt"]["equality_violation"] < 1e-6
        assert 0.0 <= side["power_slack"] <= 1e-6 * 10.33

    def test_unconverged_run_says_so_on_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "opt.json",
                           {"k1": 3, "n": 8, "m": 80, "max_iters": 2})
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "not converged within max_iters = 2" in err[0]
        with open(str(out) + ".json") as fh:
            side = json.load(fh)
        assert side["converged"] is False
        assert f"{side['duality_gap']:.3g}" in err[0]

    def test_fig1_relative_errors_are_consistent(self, tmp_path):
        cfg = write_config(tmp_path / "fig1.json", TINY_FIG1)
        out = tmp_path / "f1.csv"
        assert main(["fig1", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out)
        for raw in rows:
            row = {k: float(v) for k, v in zip(header, raw) if k != "config_hash"}
            assert row["DI_G"] == pytest.approx(
                (row["I_G"] - row["I_MC"]) / row["I_MC"], rel=1e-12)
            assert row["DI_std"] == pytest.approx(
                row["I_std"] / row["I_MC"], rel=1e-12)

    def test_fig1_relative_errors_are_nan_when_i_mc_is_not_resolved(self, tmp_path, capsys):
        """A flat population carries no information: where |I_MC| <= 3 I_std
        (N = 2 at seed 1) the relative errors are nan, not -1e16, and one
        stderr line names N, width and amplitude."""
        cfg = write_config(tmp_path / "fig1.json", dict(TINY_FIG1, width=1e9))
        out = tmp_path / "f1.csv"
        assert main(["fig1", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        unresolved = []
        for raw in rows:
            row = {k: float(v) for k, v in zip(header, raw) if k != "config_hash"}
            nan = [math.isnan(row[k]) for k in ("DI_G", "DI_G+", "DI_F", "DI_std")]
            assert math.isfinite(row["I_MC"]) and math.isfinite(row["I_std"])
            if abs(row["I_MC"]) <= 3.0 * row["I_std"]:
                assert all(nan)
                unresolved.append(int(row["N"]))
            else:
                assert not any(nan)
        assert unresolved == [2]
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["popcode-mi fig1: I_MC is within 3 I_std of 0 at N = 2 "
                       "(width 1000000000.0, amplitude 20.0), so DI_G, DI_G+, DI_F and DI_std are nan"]

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_fig1_sidecar_compares_repeat_scatter_with_the_bar(self, tmp_path, repeats):
        """For each N, the std of the repeats' I_MC (ddof 1) over their mean
        I_std, from the runs themselves; null for a single repeat."""
        payload = dict(TINY_FIG1, repeats=repeats)
        out = tmp_path / "f1.csv"
        assert main(["fig1", "--config", write_config(tmp_path / "fig1.json", payload),
                     "--seed", "8", "--out", str(out)]) == 0
        with open(str(out) + ".json") as fh:
            block = json.load(fh)["mc"]
        header, rows = read_rows(out)
        assert header[:10] == ["N", "I_MC", "I_std", "I_G", "I_G+", "I_F",
                               "DI_G", "DI_G+", "DI_F", "DI_std"]
        seeds = np.random.default_rng(8).integers(0, 2**63, size=(2, repeats))
        prior = GridPrior.von_mises(math.pi, math.pi / 4, payload["m"])
        tuning = {"amplitude": 20.0, "width": 0.5, "period": math.pi, "center_span": 1.0}
        want = {}
        for n, row_seeds, row in zip(payload["n_list"], seeds, rows, strict=True):
            pop = cli._ring_population(tuning, n)
            runs = [mc_mutual_information(pop, prior, MCConfig(payload["j_max"], payload["m"], int(s)))
                    for s in row_seeds]
            i_std = float(np.mean([r.i_std for r in runs]))
            assert float(row[2]) == i_std
            want[str(n)] = (float(np.std([r.i_mc for r in runs], ddof=1)) / i_std
                            if repeats > 1 else None)
        assert block == {"repeat_std_over_i_std": want}


def run_module(module, argv, **env):
    """``python -m module *argv`` in a subprocess that imports this checkout's package."""
    import subprocess

    import popcode_mi

    src = os.path.dirname(os.path.dirname(popcode_mi.__file__))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=600)


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["popcode_mi", "popcode_mi.cli"])
    def test_python_dash_m_runs_the_experiment(self, module, tmp_path):
        cfg = write_config(tmp_path / "cap.json", TINY_CAPACITY)
        out = tmp_path / "cap.csv"
        proc = run_module(module, ["capacity", "--config", cfg, "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("popcode-mi capacity: 50 rows")
        header, rows = read_rows(out)
        assert header[:2] == ["x", "p_star"] and len(rows) == 50


class TestBlasThreads:
    @pytest.mark.parametrize("experiment, payload", [
        ("fig1", {"n_list": [30, 4], "j_max": 3000, "m": 500, "repeats": 2}),
        # K = 196: OpenBLAS splits this width's products and Choleskys by thread.
        ("fig2", {"widths": [14, 3], "n_list": [5000, 700]}),
    ])
    def test_csv_bytes_do_not_depend_on_openblas_threads(self, experiment, payload, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", dict(payload, workers=2))
        outputs = set()
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.csv"
            proc = run_module("popcode_mi", [experiment, "--config", cfg, "--seed", "3",
                                             "--out", str(out)], OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    def test_unreachable_openblas_warns_once_and_records_null(self, tmp_path, monkeypatch):
        from popcode_mi import cli

        monkeypatch.setattr(cli.os, "listdir", lambda path: [])
        cli._openblas.cache_clear()
        try:
            cfg = write_config(tmp_path / "cap.json", TINY_CAPACITY)
            with pytest.warns(UserWarning, match="OpenBLAS is not reachable") as caught:
                for name in ("a", "b"):
                    assert main(["capacity", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            assert len(caught) == 1
            with open(tmp_path / "b.json") as fh:
                assert json.load(fh)["environment"]["blas_threads"] is None
        finally:
            cli._openblas.cache_clear()
