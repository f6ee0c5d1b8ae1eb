import json
from pathlib import Path

import numpy as np
import pytest

from cuspcal.cli import (
    RunConfig,
    load_config,
    main,
    parse_config,
    read_projector,
    write_csv,
    write_projector,
)
from cuspcal.errors import SchemaError
from cuspcal.fibre import FibreExtension

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def strip_config_text():
    return (CONFIG_DIR / "strip_laplacian.json").read_text()


class TestParseConfig:
    def test_strip_roundtrip(self):
        cfg, op = parse_config(strip_config_text())
        assert op.geometry == "StripHyperbolic"
        assert op.order == 2
        assert op.fibre.kind == "interval"
        assert cfg.ns == 128
        # serialize -> parse again gives the same operator data
        doc = json.loads(strip_config_text())
        cfg2, op2 = parse_config(json.dumps(doc))
        assert op2.coefficients.keys() == op.coefficients.keys()

    def test_missing_leading_coefficient(self):
        doc = json.loads(strip_config_text())
        doc["coefficients"] = [c for c in doc["coefficients"] if c["k"] != 2]
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert "coefficients" in str(err.value)

    def test_bad_poly_term_path(self):
        doc = json.loads(strip_config_text())
        doc["coefficients"][0]["poly"] = [[0, 0, 1.0]]
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert "coefficients[0].poly[0]" in str(err.value)

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_config("not json {")

    def test_weight_recorded_but_inert(self):
        # weight_c is validated and then ignored: any integer, or none,
        # gives the same normal operator
        from cuspcal.fibre import normal_operator

        doc = json.loads(strip_config_text())
        assert doc["weight_c"] == 1
        values = []
        for weight in (1, 0, 5, None):
            if weight is None:
                del doc["weight_c"]
            else:
                doc["weight_c"] = weight
            _, op = parse_config(json.dumps(doc))
            assert not hasattr(op, "weight_c")
            values.append(np.stack(normal_operator(op, (1.0,)).coeff_values(0.5)))
        assert values[0][2][0, 0] == pytest.approx(1.0)
        for other in values[1:]:
            np.testing.assert_array_equal(other, values[0])
        doc["weight_c"] = "1"
        with pytest.raises(SchemaError, match="weight_c"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("idx,field,value",
                             [(0, "k", 2.7), (1, "beta", True), (1, "beta", "2")])
    def test_non_integer_index_is_input_error(self, tmp_path, idx, field, value):
        # each of these used to be read as a nearby integer, exiting 0
        doc = json.loads(strip_config_text())
        doc["coefficients"][idx][field] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["normal", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("term", [[0.5, 0, 1.0, 0.0], [0, 1.5, 1.0, 0.0]])
    def test_non_integer_degree_is_input_error(self, tmp_path, term):
        doc = json.loads(strip_config_text())
        doc["coefficients"][0]["poly"] = [term]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["normal", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_integral_float_index_accepted(self):
        doc = json.loads(strip_config_text())
        doc["coefficients"][0]["k"] = float(doc["coefficients"][0]["k"])
        doc["coefficients"][0]["poly"][0][:2] = [0.0, 0.0]
        _, op = parse_config(json.dumps(doc))
        _, ref = parse_config(strip_config_text())
        assert op.coefficients.keys() == ref.coefficients.keys()

    def test_tolerances_positive(self):
        with pytest.raises(SchemaError):
            RunConfig(tol_overrides={"probe": -1.0})


class TestArtifacts:
    def test_projector_roundtrip(self, tmp_path):
        m = np.array([[1.0 + 2j, 0.5], [-0.25j, 0.0]])
        path = write_projector(tmp_path / "p.txt", m, "test")
        back = read_projector(path)
        np.testing.assert_allclose(back, m)
        assert path.read_text().startswith("# cuspcal projector 2 2")

    def test_csv_build_column(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [{"a": 1, "b": 2.5}])
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[-1] == "build"
        assert len(lines) == 2


class TestMain:
    def test_symbol_subcommand(self, tmp_path):
        out = tmp_path / "out"
        status = main(["symbol", "--config",
                       str(CONFIG_DIR / "strip_laplacian.json"),
                       "--out", str(out), "--xi", "0.5,1"])
        assert status == 0
        text = (out / "symbol.csv").read_text()
        assert "idem_defect" in text and "dn" in text

    def test_normal_subcommand(self, tmp_path):
        out = tmp_path / "out"
        status = main(["normal", "--config",
                       str(CONFIG_DIR / "strip_laplacian.json"),
                       "--out", str(out), "--tau-min", "0.5",
                       "--tau-max", "1.5", "--tau-steps", "3"])
        assert status == 0
        assert (out / "normal.csv").exists()
        assert (out / "normal_failures.csv").exists()

    def test_normal_sweep_certified_above_tau_12(self, tmp_path):
        # every tau up to MU_CAP gives a certified projector, none fails
        out = tmp_path / "out"
        status = main(["normal", "--config",
                       str(CONFIG_DIR / "strip_laplacian.json"),
                       "--out", str(out), "--tau-min", "12",
                       "--tau-max", "14", "--tau-steps", "3"])
        assert status == 0
        assert len((out / "normal.csv").read_text().splitlines()) == 1 + 3
        failures = (out / "normal_failures.csv").read_text().splitlines()
        assert failures == ["tau,gap,reason,build"]

    def test_normal_gap_is_direct_sum_gap(self, tmp_path):
        from cuspcal.fibre import (boundary_data_space, minus_boundary_data_space,
                                   normal_operator)
        from cuspcal.linalg import direct_sum_check

        out = tmp_path / "out"
        assert main(["normal", "--config", str(CONFIG_DIR / "strip_laplacian.json"),
                     "--out", str(out), "--tau-min", "0.5", "--tau-max", "1.5",
                     "--tau-steps", "3"]) == 0
        lines = (out / "normal.csv").read_text().splitlines()
        col = lines[0].split(",").index("gap")
        _, op = load_config(CONFIG_DIR / "strip_laplacian.json")
        ext = FibreExtension.with_default_bump(op.fibre.length)
        for tau, line in zip((0.5, 1.0, 1.5), lines[1:]):
            bp = boundary_data_space(normal_operator(op, (tau,)))
            bm = minus_boundary_data_space(ext, op, (tau,))
            assert float(line.split(",")[col]) == direct_sum_check(bp, bm).gap

    @pytest.mark.parametrize("edit,argv", [
        (None, ["discrete", "--ns", "63"]),  # ns // 4 < 16 nodes
        (lambda doc: doc["run"].update(S=3), ["discrete"]),
        (lambda doc: doc.update(system_size=0), ["symbol"]),
        (lambda doc: doc["coefficients"][1]["poly"][0].__setitem__(2, float("nan")),
         ["symbol"]),
        (lambda doc: doc["coefficients"][1]["poly"][0].__setitem__(1, -1), ["symbol"]),
        (None, ["symbol", "--xi", "0"]),
        (None, ["symbol", "--xi", "one"]),
        (None, ["symbol", "--tol-override", "probe=small"]),
        (None, ["normal", "--tau-steps", "-1"]),
        (lambda doc: doc["run"].update(nz=100.5), ["discrete"]),
        (lambda doc: doc["run"].update(nz="64"), ["discrete"]),
        (lambda doc: doc["run"].update(seed="abc"), ["verify"]),
        (lambda doc: doc["run"].update(seed=1.5), ["verify"]),
        (None, ["verify", "--seed", "-1"]),
        (lambda doc: doc["run"].update(xi=2.0), ["symbol"]),
        (None, ["symbol", "--xi", ""]),
        (lambda doc: doc["run"].update(tol_overrides={"dn": "x"}), ["symbol"]),
        (lambda doc: doc["run"].update(tol_overrides=[1]), ["symbol"]),
    ], ids=["ns-63", "S-3", "system-size-0", "nan-coefficient", "negative-degree",
            "xi-0", "xi-not-a-number", "tol-not-a-number", "tau-steps-negative",
            "nz-fraction", "nz-string", "seed-string", "seed-fraction", "seed-negative",
            "xi-scalar", "xi-empty", "tol-string", "tol-list"])
    def test_input_edge_is_input_error(self, tmp_path, capsys, edit, argv):
        doc = json.loads(strip_config_text())
        if edit is not None:
            edit(doc)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        status = main(argv + ["--config", str(path), "--out", str(tmp_path / "o")])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_tau_beyond_mu_cap_is_input_error(self, tmp_path, capsys):
        status = main(["normal", "--config", str(CONFIG_DIR / "strip_laplacian.json"),
                       "--out", str(tmp_path / "o"), "--tau-max", "17"])
        assert status == 2
        err = capsys.readouterr().err
        assert "tau_max" in err and "Traceback" not in err

    def test_symbol_dn_matches_dn_symbol(self, tmp_path):
        from cuspcal.discrete import _frozen_interface_symbol
        from cuspcal.symbols import dn_symbol

        out = tmp_path / "out"
        assert main(["symbol", "--config", str(CONFIG_DIR / "strip_laplacian.json"),
                     "--out", str(out), "--xi", "0.5,1"]) == 0
        lines = (out / "symbol.csv").read_text().splitlines()
        col = lines[0].split(",").index("dn")
        _, op = load_config(CONFIG_DIR / "strip_laplacian.json")
        sym = _frozen_interface_symbol(op, 0.0)
        for xi, line in zip((0.5, 1.0), lines[1:]):
            assert complex(line.split(",")[col]) == dn_symbol(sym, (xi,), 1)

    def test_discrete_toy_subcommand(self, tmp_path):
        out = tmp_path / "out"
        status = main(["discrete", "--config",
                       str(CONFIG_DIR / "halfline_toy.json"),
                       "--out", str(out), "--ns", "256", "--S", "6"])
        assert status == 0
        table = (out / "discrete_toy.csv").read_text()
        assert "path_gap" in table
        proj = read_projector(out / "projector_spaces.txt")
        assert proj.shape == (2, 2)

    def test_missing_config_is_input_error(self, tmp_path):
        status = main(["normal", "--out", str(tmp_path / "o")])
        assert status == 2

    def test_strip_discrete_needs_interval_fibre(self, tmp_path):
        status = main(["discrete", "--config",
                       str(CONFIG_DIR / "exterior_toy.json"),
                       "--out", str(tmp_path / "o")])
        assert status == 2

    def test_corrupted_config_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        status = main(["verify", "--config", str(bad), "--out",
                       str(tmp_path / "o")])
        assert status == 2

    def test_verify_single_suite(self, tmp_path):
        out = tmp_path / "out"
        status = main(["verify", "--suite", "2", "--out", str(out)])
        assert status == 0
        assert (out / "summary.csv").exists()
        assert (out / "suite_02_calderon-symbol-closed-form.csv").exists()

    def test_verify_suite_group_alias(self, tmp_path):
        out = tmp_path / "out"
        status = main(["verify", "--suite", "lab", "--out", str(out)])
        assert status == 0
        assert (out / "suite_05_projection-perturbation-lemma.csv").exists()
        assert (out / "suite_06_augment-modify-complement.csv").exists()

    def test_verify_unknown_suite(self, tmp_path):
        status = main(["verify", "--suite", "nope", "--out",
                       str(tmp_path / "o")])
        assert status == 2

    def test_determinism_of_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["verify", "--suite", "1,2", "--out", str(out),
                         "--seed", "777"]) == 0
        for name in sorted(p.name for p in out1.glob("*.csv")):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(SchemaError):
        load_config(tmp_path / "nope.json")
