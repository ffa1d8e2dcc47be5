import argparse
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from krylovgrowth.algebra import LiouvillianSpec, build_liouvillian
from krylovgrowth.coherent import (
    autocorrelator_t,
    closed_form_params,
    phi_series,
    schrodinger_complexity_t,
)
from krylovgrowth.fock import FockVector, OperatorMatrix, TruncationConfig
from krylovgrowth.lanczos import chain_complexity, lanczos_tridiagonalize, propagate_chain
from krylovgrowth import cli
from krylovgrowth.cli import (
    MODES,
    SweepConfig,
    figure_data,
    main,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    verify,
)


class TestSweepConfig:
    def test_defaults_valid(self):
        cfg = SweepConfig()
        assert cfg.mode == "complexity"
        assert len(cfg.t_grid()) == cfg.steps

    @pytest.mark.parametrize(
        "kwargs",
        [dict(t_min=2.0, t_max=1.0), dict(steps=0), dict(mode="nope"), dict(tol=0.0), dict(dim=2),
         dict(alpha=math.nan), dict(beta=math.inf), dict(t_min=math.nan), dict(t_max=math.inf),
         dict(tol=math.inf)],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)


class TestRunSweep:
    def test_complexity_regimes(self):
        # two-photon-dominated growth overtakes displacement-dominated growth
        red = run_sweep(SweepConfig(alpha=0.01, beta=1.0, t_min=0.0, t_max=5.0, steps=26))
        black = run_sweep(SweepConfig(alpha=1.0, beta=0.01, t_min=0.0, t_max=5.0, steps=26))
        K_red = [r["values"]["K"] for r in red]
        K_black = [r["values"]["K"] for r in black]
        assert all(k2 >= k1 for k1, k2 in zip(K_red, K_red[1:]))  # monotone
        assert K_red[-1] > K_black[-1]
        # near-quadratic regime stays close to alpha^2 t^2
        assert K_black[-1] == pytest.approx(25.0, rel=0.05)

    def test_variance_rows(self):
        rows = run_sweep(SweepConfig(alpha=0.5, beta=0.5, t_min=0.5, t_max=1.0, steps=2, mode="variance"))
        for row in rows:
            assert set(row["values"]) == {"K", "sigma2"}
            assert row["values"]["sigma2"] >= 0.0
            assert row["method"] == "closed_form"

    def test_distribution_rows_are_each_times_own_series(self):
        # t = 0, where the amplitudes hold signed zeros, negative times, and
        # series from 65 to 1025 terms in one sweep
        cfg = SweepConfig(alpha=0.8, beta=0.7, t_min=-2.8, t_max=2.8, steps=17, mode="distribution")
        spec = cfg.spec()
        rows = run_sweep(cfg)
        assert 0.0 in [row["t"] for row in rows]
        assert {len(row["values"]) for row in rows} == {65, 129, 257, 513, 1025}
        for row in rows:
            series = phi_series(closed_form_params(spec, row["t"]), cfg.tol)
            assert list(row["values"]) == [f"p{k}" for k in range(series.k_max + 1)]
            assert (np.array(list(row["values"].values())).tobytes()
                    == (np.abs(series.phi) ** 2).tobytes())
            assert np.array(row["amplitudes"]).tobytes() == series.phi.view(float).tobytes()

    def test_distribution_parity(self):
        rows = run_sweep(SweepConfig(alpha=0.0, beta=1.0, t_min=1.0, t_max=1.0, steps=1,
                                     mode="distribution"))
        (row,) = rows
        odd = [v for k, v in row["values"].items() if int(k[1:]) % 2 == 1]
        assert max(odd) < 1e-12
        assert len(row["amplitudes"]) == len(row["values"])

    def test_autocorrelator_rows(self):
        rows = run_sweep(SweepConfig(alpha=1.0, beta=1.0, t_min=0.0, t_max=1.0, steps=3,
                                     mode="autocorrelator"))
        assert rows[0]["values"]["autocorrelator"] == 1.0
        assert all(0.0 < r["values"]["autocorrelator"] <= 1.0 for r in rows)

    def test_lanczos_mode(self):
        rows = run_sweep(SweepConfig(alpha=1.0, beta=1.0, t_min=0.0, t_max=1.0, steps=3,
                                     dim=128, mode="lanczos"))
        assert rows[0]["values"]["K_chain"] <= 1e-12
        assert rows[-1]["values"]["K_chain"] > 1.0
        assert rows[0]["method"] == "lanczos_chain"

    def test_numerical_error_carries_context(self):
        from krylovgrowth.errors import KrylovGrowthError

        cfg = SweepConfig(alpha=1.0, beta=1.0, t_min=0.0, t_max=12.0, steps=5,
                          dim=16, mode="lanczos")
        with pytest.raises(KrylovGrowthError) as err:
            run_sweep(cfg)
        # the chain sizes itself: the run's dim is no part of the failure
        assert "dim" not in err.value.context
        assert "alpha" in err.value.context and err.value.context["m"] == 1024

    @pytest.mark.parametrize(
        "kwargs, t",
        [
            # the first grid time whose series exceeds the cap
            (dict(mode="distribution", t_min=2.0, t_max=3.5, steps=4), 3.0),
            # the time the EdgeLeak names
            (dict(mode="lanczos", t_max=12.0, steps=5, dim=16), 3.0),
            # a chain failure happens before any grid time: no t
            (dict(mode="lanczos", alpha=0.0, beta=0.0, t_max=1.0, steps=3), None),
            # a float-range overflow: the grid time it occurred at
            (dict(t_max=800.0, steps=3), 400.0),
        ],
    )
    def test_numerical_error_names_its_grid_time(self, kwargs, t):
        from krylovgrowth.errors import KrylovGrowthError

        with pytest.raises(KrylovGrowthError) as err:
            run_sweep(SweepConfig(**kwargs))
        if t is None:
            assert "t" not in err.value.context
        else:
            assert err.value.context["t"] == t

    def test_determinism(self):
        cfg = SweepConfig(alpha=0.7, beta=0.3, steps=7, mode="variance")
        a = rows_to_csv(run_sweep(cfg))
        b = rows_to_csv(run_sweep(cfg))
        assert a == b


# (t_max, widest row) of (alpha, beta) = (0.8, 0.7) on 3 points from t = 0
WIDE_DISTRIBUTIONS = [(0.8, 65), (1.3, 129), (1.8, 257), (2.3, 513), (2.8, 1025)]


def pad_distribution(cfg, rows):
    """A distribution sweep's rows as one zero-padded table: each row as
    wide as the widest, 0.0 for each probability and [0.0, 0.0] for each
    amplitude past its own series. The rows of any other mode as they are."""
    if cfg.mode != "distribution" or not rows:
        return rows
    width = max(len(row["values"]) for row in rows)
    return [{"t": row["t"],
             "values": {**row["values"],
                        **{f"p{k}": 0.0 for k in range(len(row["values"]), width)}},
             "method": row["method"],
             "amplitudes": row["amplitudes"] + [[0.0, 0.0]] * (width - len(row["amplitudes"]))}
            for row in rows]


class TestFormats:
    def test_csv_schema_and_digits(self):
        rows = [{"t": 1.0 / 3.0, "values": {"K": 2.0 / 3.0}, "method": "closed_form"}]
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "t,K"
        tval, kval = lines[1].split(",")
        assert tval == "0.333333333333"  # 12 significant digits
        assert kval == "0.666666666667"

    def test_csv_cells_are_the_per_cell_format(self):
        # values are looked up by row 0's keys, whatever order a row lists them in
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 7]
        keys = [f"v{i}" for i in range(len(special))]
        rows = [
            {"t": -0.0, "values": dict(zip(keys, special)), "method": "m"},
            {"t": 5e-324, "values": dict(zip(keys[::-1], special)), "method": "m"},
            {"t": 3, "values": {k: 1.0 / (i + 3) for i, k in enumerate(keys[3:] + keys[:3])},
             "method": "m"},
        ]
        lines = ["t," + ",".join(keys)] + [
            ",".join(format(x, ".12g") for x in [row["t"], *[row["values"][k] for k in keys]])
            for row in rows
        ]
        assert rows_to_csv(rows) == "\n".join(lines) + "\n"
        assert lines[1] == "-0,nan,inf,-inf,-0,4.94065645841e-324,1e+300,7"
        assert rows_to_csv([{"t": 0.5, "values": {}, "method": "m"}]) == "t,\n0.5\n"
        assert rows_to_csv([]) == "t,\n"

    @pytest.mark.parametrize("t_max, width", WIDE_DISTRIBUTIONS)
    def test_wide_distribution_rows_are_the_padded_table(self, t_max, width):
        cfg = SweepConfig(alpha=0.8, beta=0.7, t_max=t_max, steps=3, mode="distribution")
        rows = run_sweep(cfg)
        table = pad_distribution(cfg, rows)
        keys = list(table[0]["values"])
        assert len(keys) == width
        lines = ["t," + ",".join(keys)] + [
            ",".join(format(x, ".12g") for x in [row["t"], *[row["values"][k] for k in keys]])
            for row in table
        ]
        assert rows_to_csv(rows) == "\n".join(lines) + "\n"

    def test_json_schema(self):
        cfg = SweepConfig(steps=2, t_max=1.0)
        rows = run_sweep(cfg)
        payload = json.loads(rows_to_json(cfg, rows))
        assert payload["config"]["alpha"] == 1.0
        assert len(payload["rows"]) == 2
        assert set(payload["rows"][0]) == {"t", "values", "method"}


def reference_json(cfg, rows):
    """The JSON document by the pure-Python indented encoder, a distribution
    sweep's rows padded to the widest."""
    rows = pad_distribution(cfg, rows)
    payload = {
        "config": asdict(cfg),
        "rows": [
            {"t": row["t"], "values": row["values"], "method": row["method"],
             **({"amplitudes": [[float(re), float(im)] for re, im in row["amplitudes"]]}
                if "amplitudes" in row else {})}
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def assert_same_tokens(cfg, rows):
    """The writer's one-line document parses to the tokens the pure-Python
    indented encoder writes."""
    text = rows_to_json(cfg, rows)
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.dumps(json.loads(text), indent=2) + "\n" == reference_json(cfg, rows)
    return text


class TestJsonWriter:
    # every sweep mode; L = 0 has no Lanczos chain (Breakdown)
    @pytest.mark.parametrize("mode, alpha, beta", [
        (mode, alpha, beta)
        for mode in ("complexity", "variance", "distribution", "autocorrelator", "lanczos")
        for alpha, beta in ((0.7, 0.9), (0.0, 0.9), (0.7, 0.0), (0.0, 0.0))
        if (mode, alpha, beta) != ("lanczos", 0.0, 0.0)
    ])
    def test_sweep_rows_byte_identical(self, mode, alpha, beta):
        # the grid starts at t = 0, where the amplitudes hold signed zeros
        cfg = SweepConfig(alpha=alpha, beta=beta, t_min=0.0, t_max=1.0, steps=3, mode=mode)
        assert_same_tokens(cfg, run_sweep(cfg))

    @pytest.mark.parametrize("mode", ["complexity", "variance", "distribution",
                                      "autocorrelator", "lanczos"])
    def test_writer_is_dumps_of_the_dataclass_config(self, mode):
        cfg = SweepConfig(alpha=0.7, beta=0.9, t_min=-0.5, t_max=1.0, steps=4, dim=128, mode=mode)
        rows = run_sweep(cfg)
        assert rows_to_json(cfg, rows) == json.dumps(
            {"config": asdict(cfg), "rows": pad_distribution(cfg, rows)}) + "\n"

    @pytest.mark.parametrize("mode", ["variance", "distribution"])
    def test_single_step_byte_identical(self, mode):
        cfg = SweepConfig(t_min=0.4, t_max=0.4, steps=1, mode=mode)
        assert_same_tokens(cfg, run_sweep(cfg))

    def test_non_finite_and_signed_zero_tokens(self):
        amps = [[math.nan, -0.0], [math.inf, -math.inf], [0.5, 0.0]]
        rows = [
            {"t": -0.0, "values": {"a": math.nan, "b": math.inf, "c": -math.inf, "d": -0.0},
             "method": "x", "amplitudes": amps},
            {"t": 1.0, "values": {}, "method": "closed_form"},
            {"t": 2.0, "values": {"p0": 1.0}, "method": "closed_form", "amplitudes": []},
        ]
        cfg = SweepConfig()
        text = assert_same_tokens(cfg, rows)
        assert "NaN" in text and "-Infinity" in text and "-0.0" in text
        assert_same_tokens(cfg, [])

    @pytest.mark.parametrize("t_max, width", WIDE_DISTRIBUTIONS)
    def test_wide_distribution_rows_byte_identical(self, t_max, width):
        cfg = SweepConfig(alpha=0.8, beta=0.7, t_max=t_max, steps=3, mode="distribution")
        rows = run_sweep(cfg)
        assert len(rows[-1]["values"]) == width
        assert_same_tokens(cfg, rows)

    def test_empty_and_non_empty_values_interleaved(self):
        rows = [
            {"t": t, "values": values, "method": method} for t, values, method in [
                (0.0, {}, "a"),
                (0.5, {}, "a"),
                (1.0, {"K": 1.0, "sigma2": 0.25}, "b"),
                (1.5, {"K": 2.0}, "b"),
                (2.0, {}, "a"),
                (2.5, {"p0": 0.5}, "b"),
                (3.0, {}, "a"),
            ]
        ]
        cfg = SweepConfig()
        assert_same_tokens(cfg, rows)
        assert_same_tokens(cfg, rows[:1])

    def test_values_keys_that_look_like_row_boundaries(self):
        # encoded strings escape the newline: the document stays one line
        keys = ["}", "{", "a,b", "x\ny", "},\n        {", '"},\n        {"']
        rows = [{"t": float(i), "values": {k: float(j) for j, k in enumerate(keys)}, "method": "m,\n}"}
                for i in range(3)]
        text = assert_same_tokens(SweepConfig(), rows)
        assert json.loads(text)["rows"][2]["values"] == rows[2]["values"]

    @pytest.mark.parametrize("mode", ["complexity", "variance", "distribution",
                                      "autocorrelator", "lanczos"])
    def test_json_and_csv_of_one_run_agree(self, mode, capsys):
        argv = ["--mode", mode, "--alpha", "0.6", "--beta", "0.8", "--tmin", "-0.5",
                "--tmax", "1.2", "--steps", "6", "--dim", "128"]
        assert main(argv + ["--format", "csv"]) == 0
        csv_lines = capsys.readouterr().out.splitlines()
        assert main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert csv_lines[0] == ",".join(["t", *rows[0]["values"]])
        assert csv_lines[1:] == [",".join(f"{x:.12g}" for x in [row["t"], *row["values"].values()])
                                 for row in rows]


class TestFigureData:
    def test_fig1_parity_and_pairing(self, tmp_path):
        path = figure_data("fig1", tmp_path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,schrodinger_prob,sl2r_prob"
        rows = [line.split(",") for line in lines[1:]]
        for cells in rows:
            k, schro, _ = int(cells[0]), float(cells[1]), float(cells[2])
            if k % 2 == 1:
                assert schro < 1e-12
        # pairwise equal but shifted: schro prob at k=2n equals sl2r prob at n
        probs = {int(c[0]): (float(c[1]), float(c[2])) for c in rows}
        for n in range(0, 20):
            assert probs[2 * n][0] == pytest.approx(probs[n][1], abs=1e-10)

    def test_fig2_growth_separation(self, tmp_path):
        path = figure_data("fig2", tmp_path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,K_alpha_0.01_beta_1,K_alpha_1_beta_0.01"
        for line in lines[1:]:
            t, k_red, k_black = (float(x) for x in line.split(","))
            if t >= 3.0:
                assert k_red > k_black

    def test_fig3_columns(self, tmp_path):
        path = figure_data("fig3", tmp_path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,auto_alpha_1_beta_0,auto_alpha_0_beta_1,auto_alpha_1_beta_1"
        for line in lines[1:]:
            t, hw, sl, mixed = (float(x) for x in line.split(","))
            assert 0.0 < hw <= 1.0 and 0.0 < sl <= 1.0 and 0.0 < mixed <= 1.0
            assert mixed <= sl + 1e-15  # holds against the two-photon curve

    @pytest.mark.parametrize("which, t_max, steps, closed_form, curves", [
        ("fig2", 5.0, 101, schrodinger_complexity_t, [(0.01, 1.0), (1.0, 0.01)]),
        ("fig3", 3.0, 121, autocorrelator_t, [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),
    ])
    def test_sweep_figures_are_the_closed_forms(self, which, t_max, steps, closed_form, curves,
                                                tmp_path):
        # every cell, as printed, of the closed form at the figure's grid times
        figure_data(which, tmp_path)
        lines = (tmp_path / f"{which}.csv").read_text().splitlines()
        ts = np.linspace(0.0, t_max, steps).tolist()
        assert len(lines) == steps + 1
        for line, t in zip(lines[1:], ts):
            cells = [t] + [closed_form(LiouvillianSpec(a, b), t) for a, b in curves]
            assert line == ",".join(f"{x:.12g}" for x in cells)

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(ValueError):
            figure_data("fig9", tmp_path)


class TestVerify:
    def test_one_eigendecomposition_per_dim(self, monkeypatch):
        # the oracle at --dim, whose truncation estimate reuses its eigenvectors
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        cfg = SweepConfig(t_max=1.0, steps=5, dim=64, mode="verify")
        report = verify(cfg)
        assert calls == [(64, 64)]
        assert list(report["config"].items()) == list(asdict(cfg).items())

    def test_passes_with_truncation_skips(self):
        cfg = SweepConfig(alpha=1.0, beta=1.0, t_min=0.0, t_max=2.0, steps=5,
                          dim=256, mode="verify")
        report = verify(cfg)
        assert report["pass"] is True
        oracle = report["oracle_vs_closed_form"]
        assert oracle["pass"]
        assert oracle["max_amplitude_deviation"] <= 1e-8
        # t = 2 is not representable at dim=256: reported, not failed
        assert 2.0 in oracle["skipped_truncation_limited_t"]
        assert report["normalization"]["pass"]
        assert report["limit_recovery"]["max_residual"] == 0.0
        disc = report["documented_discrepancies"]
        assert disc["variance_alt_form_first_term"]["deviation"] == pytest.approx(2.0, abs=1e-9)
        assert len(disc["autocorrelator_alt_form"]) == 3
        assert disc["late_time_exponent"]["measured_over_t_4_to_6"] == pytest.approx(2.0, abs=0.02)


# Inputs that once ended in a traceback, and the exit code each documents.
EXIT_CASES = (
    # non-finite inputs are invalid configurations
    [(["--mode", "lanczos", "--alpha", "nan"], 1), (["--tmin", "nan"], 1), (["--tmax", "inf"], 1)]
    # results beyond the float range are numerical failures
    + [(["--mode", mode, "--tmax", "800"], 2)
       for mode in ("complexity", "variance", "distribution", "autocorrelator")]
    + [(["--mode", mode, "--alpha", "1e200"], 2)
       for mode in ("complexity", "variance", "distribution", "autocorrelator", "lanczos", "verify")]
    + [(["--mode", "autocorrelator", "--tmax", "4.8", "--alpha", "0.2", "--beta", "1.4"], 2)]
    # negative times are valid in every mode
    + [(["--mode", "lanczos", "--tmin", "-1", "--tmax", "1"], 0)]
)


# Sizes numpy refuses before it touches memory: 10**17 float64 values are
# 711 PiB, beyond any 64-bit user address space, and 10**30 is beyond the
# array index range. Only verify reads --dim.
HUGE_CASES = (
    [(["--mode", mode, "--steps", str(10**17)], "Unable to allocate")
     for mode in ("complexity", "verify", "lanczos")]
    + [(["--mode", "verify", "--dim", str(10**17)], "Unable to allocate")]
    + [(["--mode", mode, "--steps", str(10**30)], "Maximum allowed size exceeded")
       for mode in ("complexity", "verify", "lanczos")]
    + [(["--mode", "verify", "--dim", str(10**30)], "Maximum allowed size exceeded")]
)


class TestMain:
    def test_sweep_to_file_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["--alpha", "0.5", "--beta", "0.5", "--tmax", "1", "--steps", "5", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("t,K\n")

    def test_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        code = main(["--mode", "autocorrelator", "--steps", "3", "--tmax", "1",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["mode"] == "autocorrelator"

    def test_defaults_come_from_sweep_config(self, tmp_path):
        out = tmp_path / "rows.json"
        assert main(["--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"] == asdict(SweepConfig())

    def test_distribution_json_carries_amplitudes(self, tmp_path):
        out = tmp_path / "rows.json"
        code = main(["--mode", "distribution", "--alpha", "0.5", "--beta", "0.8",
                     "--tmin", "0.2", "--tmax", "1.4", "--steps", "3",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        width = len(rows[0]["values"])
        lengths = []
        for row in rows:
            series = phi_series(closed_form_params(LiouvillianSpec(0.5, 0.8), row["t"]), tol=1e-10)
            lengths.append(series.k_max + 1)
            expected = np.zeros(width, dtype=complex)
            expected[: series.k_max + 1] = series.phi
            pairs = row["amplitudes"]
            assert len(pairs) == width
            assert [complex(re, im) for re, im in pairs] == list(expected)
        assert min(lengths) < width  # the early rows are zero-padded

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha = 2.0\nbeta = 0  # pure displacement\nsteps = 3\ntmax = 1\n")
        out = tmp_path / "o.csv"
        assert main(["--config", str(cfgfile), "--alpha", "1.0", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        # alpha overridden to 1: K(1) = 1, not 4
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0)

    def test_invalid_flag_exit_code(self):
        assert main(["--mode", "bogus"]) == 1

    def test_invalid_config_exit_code(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("unknown_key = 3\n")
        assert main(["--config", str(cfgfile)]) == 1

    def test_invalid_config_format_exit_code(self, tmp_path, capsys):
        # a config-file format gets the same check as the --format flag
        cfgfile = tmp_path / "xml.cfg"
        cfgfile.write_text("format = xml\nsteps = 2\n")
        out = tmp_path / "o.txt"
        assert main(["--config", str(cfgfile), "--out", str(out)]) == 1
        assert "format" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["complexity", "verify"])
    @pytest.mark.parametrize("where", ["missing-dir/x.csv", "."], ids=["missing dir", "a directory"])
    def test_unwritable_out_is_invalid_configuration(self, mode, where, tmp_path, capsys):
        # the write of --out fails after the run: one line, exit 1, no
        # traceback (in process, an escaping OSError would fail the test)
        assert main(["--mode", mode, "--steps", "2", "--out", str(tmp_path / where)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid configuration: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, reason", HUGE_CASES,
                             ids=[" ".join(argv) for argv, _ in HUGE_CASES])
    def test_size_too_large_to_allocate_is_invalid(self, argv, reason, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("invalid configuration: ") and reason in line

    def test_numerical_failure_exit_code(self, capsys):
        code = main(["--mode", "lanczos", "--dim", "16", "--tmax", "12", "--steps", "4"])
        assert code == 2
        err = capsys.readouterr().err
        # the message names the chain the run used, not the --dim it never read
        assert "m=1024" in err and "dim=" not in err

    def test_chain_escalation_is_logged_and_not_printed(self, caplog, capsys):
        caplog.set_level(logging.DEBUG, logger="krylovgrowth")
        assert main(["--mode", "lanczos", "--tmax", "1.5", "--alpha", "1.5", "--beta", "1.0"]) == 0
        assert capsys.readouterr().err == ""
        (record,) = caplog.records
        assert record.name == "krylovgrowth" and record.levelno == logging.DEBUG
        assert record.getMessage().startswith("EdgeLeak at size 128, trying 256: {'m': 128, ")

    def test_failure_that_ends_the_run_is_logged_and_printed_once(self, caplog, capsys):
        caplog.set_level(logging.DEBUG, logger="krylovgrowth")
        argv = ["--mode", "autocorrelator", "--tmax", "4.8", "--alpha", "0.2", "--beta", "1.4"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        (record,) = caplog.records
        assert record.name == "krylovgrowth" and record.levelno == logging.DEBUG
        message = record.getMessage()
        assert message.startswith("KrylovGrowthError ends the run: result beyond the float "
                                  "range: a factor of the product form of phi_0")
        assert captured.out == ""
        assert captured.err == f"numerical failure: {message.partition(': ')[2]}\n"

    def test_series_cap_names_its_time(self, capsys):
        code = main(["--mode", "distribution", "--format", "json", "--steps", "41",
                     "--tmax", "3.5", "--alpha", "0.5", "--beta", "1.0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "numerical failure: series tail 2.263e-09 still above tol 1.0e-10 at cap "
            "k_max=4096 [alpha=0.5, beta=1.0, k_max=4096, t=2.9749999999999996, "
            "tail=2.262662390783987e-09]\n"
        )

    @pytest.mark.parametrize(
        "argv, code", EXIT_CASES, ids=[" ".join(argv) for argv, _ in EXIT_CASES]
    )
    def test_documented_exit_code_without_traceback(self, argv, code, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            kind = "invalid configuration" if code == 1 else "numerical failure"
            assert captured.err.splitlines()[-1].startswith(kind)
        if code == 2:
            # only verify reads --dim, and only its messages name it
            assert "alpha=" in captured.err
            assert ("dim=" in captured.err) == ("verify" in argv)

    @pytest.mark.parametrize("flags", [
        ["--alpha", "1e200"], ["--beta", "1e200"], ["--alpha", "1e308", "--beta", "1e308"],
    ], ids=["--alpha", "--beta", "--alpha --beta 1e308"])
    def test_chain_overflow_prints_one_line(self, flags, capsys):
        # a numpy RuntimeWarning would raise here instead of reaching stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--mode", "lanczos", *flags])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:")
        assert "t=" not in lines[0]

    def test_lanczos_overflowing_coefficient_of_l_is_named(self, capsys):
        # (beta/2) sqrt(k-1) sqrt(k) overflows at k = 37 of the 288 levels
        # the first chain size builds
        code = main(["--mode", "lanczos", "--alpha", "0", "--beta", "1e307"])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["numerical failure: result beyond the float range: coefficient "
                         "<35|L|37> = inf is beyond the float range [alpha=0.0, beta=1e+307]"]

    def test_verify_overflowing_eigendecomposition_is_named(self, capsys):
        # L's bands are finite at dim 256, its eigenvalues are not
        code = main(["--mode", "verify", "--alpha", "1e307"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:")
        assert "eigendecomposition of the 256-level operator" in lines[0]
        assert "t=" not in lines[0]

    def test_lanczos_overflowing_phase_names_its_time(self, capsys):
        # t * eigenvalue overflows at t = 5e307 and 1e308: no nan row and no
        # numpy warning, and the error names the first such time, not the
        # last one the grid drew
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--mode", "lanczos", "--tmin", "0", "--tmax", "1e308", "--steps", "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:")
        assert "float range" in lines[0] and lines[0].endswith("t=5e+307]")

    def test_lanczos_overflow_after_a_leak_is_raised_at_the_first_size(self, caplog, capsys):
        # t = 4 leaks out of the 128-site chain and t = 1e308 overflows its
        # phases: the overflow ends the run at m = 128, with no escalation
        caplog.set_level(logging.DEBUG, logger="krylovgrowth")
        code = main(["--mode", "lanczos", "--tmin", "4", "--tmax", "1e308", "--steps", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:")
        assert "float range" in lines[0] and lines[0].endswith("t=1e+308]")
        (record,) = caplog.records
        assert record.getMessage().startswith("KrylovGrowthError ends the run")

    @pytest.mark.parametrize("mode", ["lanczos", "verify"])
    def test_norm_drift_names_its_time(self, mode, monkeypatch, capsys):
        # eigenvectors 1e-7 longer than unit scale every evolved squared norm
        # by about 1 + 4e-7, past the exponential's 1e-10: the first time,
        # t = 0, fails
        eigh = OperatorMatrix._eigh.func
        monkeypatch.setattr(OperatorMatrix, "_eigh",
                            property(lambda op: (eigh(op)[0], eigh(op)[1] * (1 + 1e-7))))
        assert main(["--mode", mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("numerical failure: unitarity lost: norm drift ")
        assert " at t=0.0 [" in line and line.endswith("t=0.0]")

    def test_verify_overflowing_phase_names_its_time(self, capsys):
        # t * eigenvalue overflows in the dense evolution at t = -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--mode", "verify", "--tmin=-1e308", "--tmax=1e308", "--steps", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:")
        assert "float range" in lines[0] and "t=-1e+308" in lines[0]

    @pytest.mark.parametrize("mode", MODES)
    def test_overflowing_grid_span_is_invalid(self, mode, capsys):
        # t_max - t_min = inf: the grid would read [nan, inf, 1e308], after
        # two numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--mode", mode, "--tmin=-1e308", "--tmax=1e308", "--steps", "3"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid configuration: grid span")
        # a single grid point has no span
        assert SweepConfig(t_min=-1e308, t_max=1e308, steps=1).t_grid().tolist() == [-1e308]

    def test_grid_span_at_the_float_range_does_not_warn(self, capsys):
        # the last product of np.linspace overflows here, and numpy replaces
        # it by t_max: the rows are finite, with no warning on stderr
        tmax = 1.7976931348623157e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--mode", "complexity", "--alpha", "0", "--beta", "0",
                         "--tmax", repr(tmax), "--steps", "7"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = captured.out.splitlines()
        assert len(rows) == 8 and rows[-1] == f"{tmax:.12g},0"

    @pytest.mark.parametrize("mode, flags, row", [
        # t^2 is subnormal: alpha^2 t^2 read 2.49997216796e-13
        ("complexity", ["--alpha", "1e154", "--beta", "1e-5", "--tmax", "1e-160"],
         "5e-161,2.5e-13"),
        # alpha^2 is beyond the float range, alpha t = 5e9 is not
        ("complexity", ["--alpha", "1e200", "--beta", "0.5", "--tmax", "1e-190"],
         "5e-191,2.5e+19"),
        ("autocorrelator", ["--alpha", "1e200", "--beta", "0.5", "--tmax", "1e-190"],
         "5e-191,0,0"),
        # sigma2 = |v|^2 (1 + 4 sinh^2(beta t)) + ..., and sinh^2(beta t) underflows
        ("variance", ["--alpha", "1e154", "--beta", "1e-5", "--tmax", "1e-160"],
         "5e-161,2.5e-13,2.5e-13"),
        ("variance", ["--alpha", "1e200", "--beta", "0.5", "--tmax", "1e-190"],
         "5e-191,2.5e+19,2.5e+19"),
    ])
    def test_alpha_t_is_squared_as_one_number(self, mode, flags, row, capsys):
        assert main(["--mode", mode, *flags, "--steps", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[2] == row
        assert captured.err == ""

    def test_lanczos_prints_zero_at_t0(self, capsys):
        code = main(["--mode", "lanczos", "--dim", "64", "--tmax", "0.5", "--steps", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["t,K_chain", "0,0"]

    def test_default_lanczos_exits_0_with_a_converged_chain(self, caplog, capsys):
        caplog.set_level(logging.DEBUG, logger="krylovgrowth")
        assert main(["--mode", "lanczos"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        # every chain fits inside its L and passes the Gram check on its
        # local run: one run per size, the two escalations and no rerun
        assert [record.getMessage().split(": ")[0] for record in caplog.records] == [
            "EdgeLeak at size 128, trying 256",
            "EdgeLeak at size 256, trying 512",
        ]
        t, K = captured.out.splitlines()[-1].split(",")
        # the 768-site chain, one step of the ladder past the 512 sites the
        # grid to t = 2 needs
        L = build_liouvillian(LiouvillianSpec(1.0, 1.0), TruncationConfig(dim=1568))
        chain = lanczos_tridiagonalize(L, FockVector.basis_state(1568, 0), 768)
        (want,) = chain_complexity(propagate_chain(chain, [2.0]))
        assert t == "2" and float(K) == pytest.approx(want, rel=1e-11)

    def test_lanczos_reads_no_dim(self, capsys):
        outs = []
        for dim in ("16", "1152"):
            assert main(["--mode", "lanczos", "--dim", dim]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode, row", [("complexity", "0,0"), ("variance", "0,0,0"),
                                           ("autocorrelator", "0,1,1")])
    def test_t0_needs_no_power_of_alpha(self, mode, row, capsys):
        # K = sigma2 = 0 and both autocorrelator forms are 1 at t = 0, whatever alpha
        argv = ["--mode", mode, "--alpha", "1e200"]
        assert main(argv + ["--tmin", "0", "--tmax", "0", "--steps", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == row
        assert main(argv) == 2
        assert capsys.readouterr().err.rstrip().endswith("t=0.05]")

    @pytest.mark.parametrize("mode", ["complexity", "variance", "autocorrelator"])
    def test_overflowing_beta_t_exits_2(self, mode, capsys):
        # beta t = 1e154 * 5e307 overflows; the rows would read inf or nan
        assert main(["--mode", mode, "--beta", "1e154", "--tmax", "1e308", "--steps", "3"]) == 2
        assert "beta t = inf is beyond the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, t", [
        # alpha^2 is a normal float and the product overflowed to inf rows
        (["--mode", "complexity", "--alpha", "1e150", "--beta", "50",
          "--tmin", "4", "--tmax", "6", "--steps", "3"], "4.0"),
        # alpha^2 is not: alpha t was squared with ** and raised an errno pair
        (["--mode", "complexity", "--alpha", "1e155", "--beta", "1",
          "--tmin", "4", "--tmax", "6", "--steps", "3"], "4.0"),
        (["--mode", "verify", "--alpha", "1e155", "--beta", "1"], "0.5"),
        # beta t is finite, but sinh(beta t / 2) is beyond the float range
        (["--mode", "complexity", "--beta", "300", "--tmin", "6", "--tmax", "6",
          "--steps", "1"], "6.0"),
    ], ids=["complexity 1e150 50", "complexity 1e155 1", "verify 1e155 1", "complexity 1 300"])
    def test_complexity_beyond_the_float_range_names_k(self, argv, t, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:")
        assert f"complexity K(t) overflows at t={t}" in lines[0]
        assert "Numerical result out of range" not in lines[0]

    @pytest.mark.parametrize("argv", [
        ["--mode", "autocorrelator", "--tmax", "4.8", "--alpha", "0.2", "--beta", "1.4"],
        ["--mode", "verify", "--beta", "20", "--dim", "64", "--steps", "3"],
    ], ids=["autocorrelator 0.2 1.4", "verify 1 20"])
    def test_phi_zero_overflow_names_its_product_form(self, argv, capsys):
        # a factor of the product overflows although |phi_0| <= 1: the sweep
        # ends with exit 2, while verify's probe reports it and passes
        code = main(argv)
        captured = capsys.readouterr()
        if "verify" in argv:
            assert code == 0
            rows = json.loads(captured.out)["documented_discrepancies"]["autocorrelator_alt_form"]
            messages = [row["error"] for row in rows if "error" in row]
        else:
            assert code == 2 and captured.out == ""
            messages = captured.err.splitlines()
            assert len(messages) == 1 and messages[0].startswith("numerical failure:")
        assert messages
        for message in messages:
            assert "product form of phi_0" in message and "math range error" not in message

    def test_probe_failures_never_set_the_exit(self, monkeypatch, capsys):
        # at (1, 20) phi_0's product form overflows from t = 0.4, and here the
        # late-time exponent is made to overflow too: each probe keeps its
        # keys, with null values and the message, and the authoritative
        # checks alone set the exit
        def overflow(spec):
            raise OverflowError("late-time exponent beyond the float range")

        monkeypatch.setattr(cli, "late_time_growth_exponent", overflow)
        assert main(["--mode", "verify", "--beta", "20", "--tmax", "0.05", "--steps", "3"]) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"{name}: PASS" for name in cli._AUTHORITATIVE]
        probes = json.loads(out)["documented_discrepancies"]
        rows = probes["autocorrelator_alt_form"]
        assert [row["t"] for row in rows] == [0.1, 0.2, 0.4]
        assert "error" not in rows[0] and rows[0]["deviation"] > 0
        assert rows[2]["authoritative"] is None and rows[2]["deviation"] is None
        assert rows[2]["alt_form"] == 0.0
        assert "product form of phi_0" in rows[2]["error"] and "t=0.4" in rows[2]["error"]
        assert probes["late_time_exponent"] == {
            "measured_over_t_4_to_6": None, "candidate_beta": 20.0, "candidate_two_beta": 40.0,
            "error": "result beyond the float range: late-time exponent beyond the float range "
                     "[alpha=1.0, beta=20.0, dim=256]",
        }

    @pytest.mark.parametrize("mode", ["variance", "distribution", "autocorrelator"])
    def test_float_power_overflow_prints_no_errno_pair(self, mode, capsys):
        # abs(v) ** 2 raises OverflowError((34, 'Numerical result out of
        # range')): the line says what happened and where, not the pair
        assert main(["--mode", mode, "--alpha", "1e155", "--steps", "3"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["numerical failure: result beyond the float range "
                         "[alpha=1e+155, beta=1.0, t=1.0]"]

    @pytest.mark.parametrize("alpha", ["1", "0"])
    def test_variance_has_no_series_ceiling(self, alpha, capsys):
        # summing the series to a 1e-13 tail within 8192 terms stopped at
        # t = 3.04 (alpha 1) and 3.20 (alpha 0) with NonConvergent
        assert main(["--mode", "variance", "--alpha", alpha, "--tmax", "3.3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [[float(x) for x in line.split(",")] for line in captured.out.splitlines()[1:]]
        assert len(rows) == 41 and all(math.isfinite(x) for row in rows for x in row)
        assert rows[-1][0] == 3.3 and rows[-1][2] > rows[-1][1] > 0

    @pytest.mark.parametrize("flags", [
        # sigma2 ~ e^{4 beta t} / 8 leaves the float range near beta t = 178, and
        # K ~ e^{2 beta t} / 4 does not; beta t = 180 at t = 2
        ["--alpha", "0", "--beta", "90"],
        ["--alpha", "1", "--beta", "90"],
        # sinh^2(beta t) is inf and |v|^2 = 0: 0 * inf would be nan
        ["--alpha", "0", "--beta", "200"],
        ["--alpha", "1e-300", "--beta", "150"],
    ], ids=["0 90", "1 90", "0 200", "1e-300 150"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_variance_beyond_the_float_range_prints_one_line(self, flags, fmt, capsys):
        argv = ["--mode", "variance", *flags, "--tmax", "2", "--steps", "2", "--format", fmt]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"numerical failure: result beyond the float range "
                                f"[alpha={float(flags[1])}, beta={float(flags[3])}, t=2.0]\n")
        if flags[3] == "90":  # K itself is still in range there
            assert main(["--mode", "complexity", *flags, "--tmin", "2", "--tmax", "2",
                         "--steps", "1"]) == 0
            assert "inf" not in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        [], ["--alpha", "0.394", "--beta", "1.188", "--tmax", "0.915", "--steps", "101"],
        ["--alpha", "1.4", "--beta", "0.3", "--tmin=-1.7", "--tmax", "1.7", "--steps", "101"],
        ["--alpha", "0", "--beta", "1.3", "--tmax", "1.5"],
        ["--alpha", "1.2", "--beta", "0", "--tmax", "2"],
        ["--alpha", "0.9", "--beta", "1e-200", "--tmax", "2.5", "--steps", "7"],
    ])
    def test_variance_prints_the_complexity_modes_k(self, flags, capsys):
        # one K for two modes: the variance sweep's K column is the bytes of
        # the complexity sweep's, in CSV and JSON
        def column(mode, fmt):
            assert main(["--mode", mode, "--format", fmt, *flags]) == 0
            out = capsys.readouterr().out
            if fmt == "csv":
                return [line.split(",")[1] for line in out.splitlines()]
            return [json.dumps(row["values"]["K"]) for row in json.loads(out)["rows"]]

        for fmt in ("csv", "json"):
            assert column("variance", fmt) == column("complexity", fmt)

    @pytest.mark.parametrize("beta", ["1e-200", "1e-160", "5e-324"])
    @pytest.mark.parametrize("mode", ["complexity", "variance", "distribution", "autocorrelator"])
    def test_tiny_beta_rows_are_the_beta_zero_rows(self, mode, beta, tmp_path, capsys):
        # beta^2 and sinh(beta t) - beta t underflow and (alpha/beta)^2
        # overflows here; every row is the beta -> 0 limit
        def rows(b):
            out = tmp_path / f"{b}.json"
            assert main(["--mode", mode, "--beta", b, "--tmax", "2", "--steps", "5",
                         "--format", "json", "--out", str(out)]) == 0
            return json.loads(out.read_text())["rows"]

        for tiny, zero in zip(rows(beta), rows("0")):
            assert tiny["values"] == pytest.approx(zero["values"], rel=1e-12, abs=1e-12)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("beta", ["1e-200", "1e-160"])
    def test_tiny_beta_verifies_as_beta_zero(self, beta, tmp_path, capsys):
        def report(b):
            out = tmp_path / f"{b}.json"
            assert main(["--mode", "verify", "--beta", b, "--dim", "64", "--tmax", "2",
                         "--steps", "3", "--out", str(out)]) == 0
            return json.loads(out.read_text())

        tiny, zero = report(beta), report("0")
        assert tiny["pass"] is True
        # approx compares flat sections: the nested estimate on its own
        tiny_estimate, zero_estimate = (r["oracle_vs_closed_form"].pop("truncation_estimate")
                                        for r in (tiny, zero))
        assert tiny_estimate["dims"] == zero_estimate["dims"]
        assert tiny_estimate["per_t"] == pytest.approx(zero_estimate["per_t"], rel=1e-12, abs=1e-12)
        for check in ("oracle_vs_closed_form", "normalization", "complexity_closed_vs_direct",
                      "variance_closed_vs_direct", "limit_recovery"):
            assert tiny[check] == pytest.approx(zero[check], rel=1e-12, abs=1e-12)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["1.2345e-158", "3e-155"])
    def test_limit_recovery_where_alpha_squared_is_subnormal(self, alpha, capsys):
        # the beta = 0 limit squares alpha t as one number here, and so
        # does the reference it is held to exactly
        assert main(["--mode", "verify", "--alpha", alpha, "--beta", "0", "--dim", "64",
                     "--tmax", "1", "--steps", "3", "--out", "/dev/null"]) == 0
        assert "limit_recovery: PASS" in capsys.readouterr().err

    def test_verify_at_tiny_parameters_reports_the_exponent(self, capsys):
        # K(t) underflows to 0 over t in [4, 6]: the exponent is the slope
        # of 2 log t, with no log warning on stderr
        assert main(["--mode", "verify", "--alpha", "0", "--beta", "1e-200"]) == 0
        out, err = capsys.readouterr()
        exponent = json.loads(out)["documented_discrepancies"]["late_time_exponent"]
        assert abs(exponent["measured_over_t_4_to_6"] - 0.403419112479455) <= 1e-12
        assert err.splitlines() == [
            f"{name}: PASS" for name in ("oracle_vs_closed_form", "normalization",
                                         "complexity_closed_vs_direct",
                                         "variance_closed_vs_direct", "limit_recovery")
        ]

    @pytest.mark.parametrize("beta", ["61", "100", "177"])
    def test_verify_of_a_pure_squeeze_reports_the_exponent(self, beta, capsys):
        # sinh^2(beta t) overflows on part of t in [4, 6], but not at t <= 2,
        # where the limit recovery evaluates K: the exponent is the 50-digit
        # slope of 2 log sinh(beta t), 2 beta + O(beta e^{-8 beta}), which
        # rounds to 2 beta here
        assert main(["--mode", "verify", "--alpha", "0", "--beta", beta]) == 0
        out, err = capsys.readouterr()
        exponent = json.loads(out)["documented_discrepancies"]["late_time_exponent"]
        assert exponent["measured_over_t_4_to_6"] == pytest.approx(2.0 * float(beta),
                                                                   rel=1e-12, abs=0)
        assert err.splitlines() == [
            f"{name}: PASS" for name in ("oracle_vs_closed_form", "normalization",
                                         "complexity_closed_vs_direct",
                                         "variance_closed_vs_direct", "limit_recovery")
        ]

    def test_figure_flag(self, tmp_path):
        assert main(["--figure", "fig2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig2.csv").exists()

    def test_verify_exit_three_when_dim_cannot_meet_bar(self, tmp_path):
        # dim=16 holds none of the times in [1, 1.5]: with no time checked
        # the oracle check fails, an authoritative failure distinct from the
        # numerical-failure exit
        out = tmp_path / "report.json"
        code = main(["--mode", "verify", "--tmin", "1", "--tmax", "1.5", "--steps", "4",
                     "--dim", "16", "--out", str(out)])
        assert code == 3
        oracle = json.loads(out.read_text())["oracle_vs_closed_form"]
        assert oracle["checked_t"] == [] and len(oracle["skipped_truncation_limited_t"]) == 4

    def test_verify_at_default_flags_exits_zero(self, tmp_path):
        # a time is checked exactly where its truncation estimate is within
        # the 1e-8 bar; the late times the default dim cannot hold are skipped
        out = tmp_path / "report.json"
        assert main(["--mode", "verify", "--out", str(out)]) == 0
        oracle = json.loads(out.read_text())["oracle_vs_closed_form"]
        estimate = oracle["truncation_estimate"]
        assert estimate["dims"] == [256]
        ts = SweepConfig().t_grid().tolist()
        by_t = dict(zip(ts, estimate["per_t"]))
        assert oracle["checked_t"] == [t for t in ts if by_t[t] <= 1e-8]
        assert oracle["skipped_truncation_limited_t"] == [t for t in ts if by_t[t] > 1e-8]
        assert oracle["checked_t"] and oracle["skipped_truncation_limited_t"]
        assert oracle["max_amplitude_deviation"] <= oracle["tolerance"] == 1e-8

    def test_verify_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["--mode", "verify", "--tmax", "1.5", "--steps", "4",
                     "--dim", "256", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True


class TestConfigFile:
    @pytest.fixture
    def run(self, tmp_path, capsys):
        """main() with a config file of ``text`` and the flags: the exit code,
        stdout, stderr lines and the file's path."""
        cfgfile = tmp_path / "run.cfg"

        def run(text, *flags):
            cfgfile.write_text(text.format(tmp=tmp_path))
            code = main(["--config", str(cfgfile), *flags])
            captured = capsys.readouterr()
            return code, captured.out, captured.err.splitlines(), cfgfile

        return run

    def test_comment_and_blank_lines_are_skipped(self, run, capsys):
        code, out, err, _ = run("# a comment\n\n   \n  # indented\nsteps = 2  # two points\ntmax = 1\n")
        assert (code, err) == (0, [])
        assert main(["--steps", "2", "--tmax", "1"]) == 0
        assert out == capsys.readouterr().out

    def test_hash_inside_a_value_is_no_comment(self, run, tmp_path):
        code, out, err, _ = run("out = {tmp}/rows#1.csv  # the file\nsteps = 2\t# two points\n")
        assert (code, out, err) == (0, "", [])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows#1.csv", "run.cfg"]
        assert (tmp_path / "rows#1.csv").read_text() == "t,K\n0,0\n2,33.9379578719\n"

    def test_line_without_equals_sign(self, run):
        code, out, err, cfgfile = run("# header\nsteps 2\n")
        assert (code, out) == (1, "")
        assert err == [f"invalid configuration: {cfgfile}:2: expected key=value, got 'steps 2'"]

    def test_format_and_out_in_the_file(self, run, tmp_path):
        code, out, err, _ = run("mode = variance\nformat = json\nsteps = 3\nout = {tmp}/rows.json\n")
        assert (code, out, err) == (0, "", [])
        payload = json.loads((tmp_path / "rows.json").read_text())
        assert payload["config"]["mode"] == "variance" and len(payload["rows"]) == 3

    def test_figure_and_out_in_the_file(self, run, tmp_path):
        code, out, err, _ = run("figure = fig2\nout = {tmp}/figs\n")
        assert (code, out, err) == (0, f"{tmp_path / 'figs' / 'fig2.csv'}\n", [])
        assert (tmp_path / "figs" / "fig2.csv").read_text().startswith("t,K_alpha_0.01_beta_1,")

    def test_config_key_in_the_file_is_unknown(self, run):
        code, out, err, _ = run("config = other.cfg\n")
        assert (code, out, err) == (1, "", ["invalid configuration: unknown config key 'config'"])

    @pytest.mark.parametrize("text, value", [("steps = abc\n", "abc"), ("dim = 3.5\n", "3.5")])
    def test_integer_key_that_is_no_integer(self, run, text, value):
        code, out, err, _ = run(text)
        assert (code, out) == (1, "")
        assert err == [f"invalid configuration: invalid literal for int() with base 10: {value!r}"]


class TestParser:
    def test_defaults_are_the_sweep_config(self):
        assert vars(cli._PARSER.parse_args([])) == {
            **asdict(SweepConfig()), "format": "csv", "out": None, "config": None, "figure": None,
        }

    @pytest.mark.parametrize("argv, code", [
        (["-h"], 0), (["--alpha", "x"], 1), (["--mode", "bogus"], 1), (["--bogus"], 1),
        (["--alp", "2"], 0), (["--steps=3"], 0),
    ])
    def test_exit_code_and_stream_of_each_answer(self, argv, code, capsys):
        answers = [(main(argv), capsys.readouterr()) for _ in range(2)]
        assert answers[0] == answers[1]
        got, captured = answers[0]
        assert got == code
        if argv == ["-h"]:
            assert captured.out.startswith("usage: krylov-growth") and captured.err == ""
        elif code:
            assert captured.out == ""
            assert captured.err.splitlines()[-1].startswith("krylov-growth: error:")
        else:
            assert captured.out.startswith("t,K\n") and captured.err == ""

    def test_one_parser_per_process_and_no_config_left_behind(self, tmp_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("alpha = 2\n")
        assert main(["--config", str(cfgfile), "--steps", "2"]) == 0
        with_file = capsys.readouterr().out
        assert main(["--steps", "2"]) == 0
        after = capsys.readouterr().out
        assert main(["-h"]) == 0 and main(["--bogus"]) == 1
        capsys.readouterr()
        assert built == []
        # a fresh interpreter prints the rows of the default alpha
        src = Path(cli.__file__).resolve().parents[1]
        fresh = subprocess.run([sys.executable, "-m", "krylovgrowth.cli", "--steps", "2"],
                               env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                               text=True, check=True)
        assert after == fresh.stdout != with_file

    def test_negative_exponent_form_is_attached_with_equals(self, capsys):
        # a separate -1e-3 reads as a flag, as argparse takes only -N and -N.N for numbers
        assert main(["--tmin", "-1e-3", "--tmax", "0", "--steps", "2"]) == 1
        assert "expected one argument" in capsys.readouterr().err
        assert main(["--tmin=-1e-3", "--tmax", "0", "--steps", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,K" and lines[1].split(",")[0] == "-0.001"
