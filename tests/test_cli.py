"""CLI surface: exit codes, output formats, determinism."""

import json

import numpy as np
import pytest

from bifrac import GridFunction, GridSpec, read_grid_file, write_grid_file
from bifrac.cli import main


@pytest.fixture()
def grids(tmp_path):
    spec = GridSpec(1, 4.0, 64)
    one = GridFunction.constant(spec, 1.0)
    rng = np.random.default_rng(6)
    f = GridFunction(spec, rng.uniform(0.1, 1.0, 64), nonnegative=True)
    p_one = tmp_path / "one.grid"
    p_f = tmp_path / "f.grid"
    write_grid_file(p_one, one)
    write_grid_file(p_f, f)
    return {"one": p_one, "f": p_f, "dir": tmp_path}


class TestExitCodes:
    def test_missing_input_is_config_error(self, tmp_path):
        rc = main(
            [
                "apply",
                "--op",
                "frac-int",
                "--input",
                str(tmp_path / "absent.grid"),
                "--output",
                str(tmp_path / "out.grid"),
            ]
        )
        assert rc == 2

    def test_bad_profile_is_config_error(self, grids):
        rc = main(
            [
                "verify",
                "--tag",
                "T1.1",
                "--profile-file",
                str(grids["dir"] / "missing.json"),
            ]
        )
        assert rc == 2

    def test_invalid_relations_are_config_error(self, grids, tmp_path):
        prof = tmp_path / "bad_profile.json"
        prof.write_text(
            json.dumps(dict(tag="T1.1", n=1, alpha=0.5, p1=4, p2=4, r=2, s=2, p0=2, a=1.25))
        )
        rc = main(["verify", "--profile-file", str(prof)])
        assert rc == 2

    def test_unknown_family_cap_is_config_error(self, grids, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family_caps": {"cubes": 4096, "pairs": 1000}}))
        args = ["constants", "--config", str(cfg), "--weight", str(grids["f"]), "--constant", "ap"]
        assert main(args) == 2


class TestConstantsCommand:
    def test_unit_weight_json(self, grids, tmp_path, capsys):
        out = tmp_path / "c.json"
        rc = main(
            [
                "constants",
                "--weight",
                str(grids["one"]),
                "--weight2",
                str(grids["one"]),
                "--constant",
                "ap",
                "multiple-apq",
                "iida",
                "--p",
                "2",
                "--q",
                "2",
                "--p1",
                "2",
                "--p2",
                "2",
                "--q0",
                "4",
                "--out-json",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert all(row["value"] == 1.0 for row in payload["constants"])

    def test_csv_mode(self, grids, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(
            [
                "constants",
                "--weight",
                str(grids["f"]),
                "--constant",
                "ap",
                "--p",
                "2",
                "--format",
                "csv",
                "--out-csv",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "constant,value,witness,family_size"
        assert lines[1].startswith("ap,")

    def test_pair_family_is_exact_at_n128(self, tmp_path):
        # every nested pair of the 8256 intervals counts: sum over outer
        # widths W of (129 - W) W (W + 1) / 2
        spec = GridSpec(1, 4.0, 128)
        path = tmp_path / "w.grid"
        write_grid_file(path, GridFunction(spec, np.random.default_rng(3).uniform(0.5, 2.0, 128)))
        out = tmp_path / "c.json"
        args = ["constants", "--weight", str(path), "--weight2", str(path)]
        rc = main(args + ["--constant", "iida", "--out-json", str(out)])
        assert rc == 0
        (row,) = json.loads(out.read_text())["constants"]
        assert row["family_size"] == 11716640


class TestApplyCommand:
    def test_frac_int_roundtrip(self, grids, tmp_path):
        out = tmp_path / "out.grid"
        rc = main(
            [
                "apply",
                "--op",
                "frac-int",
                "--alpha",
                "0.5",
                "--input",
                str(grids["f"]),
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        g = read_grid_file(out)
        assert g.spec.cells_per_axis == 64
        assert np.all(g.samples > 0)

    def test_bi_frac_two_inputs(self, grids, tmp_path):
        out = tmp_path / "out2.grid"
        rc = main(
            [
                "apply",
                "--op",
                "bi-frac",
                "--alpha",
                "0.5",
                "--input",
                str(grids["f"]),
                str(grids["f"]),
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        assert read_grid_file(out).samples.max() > 0


class TestDecomposeCommand:
    def test_flat_empty_levels(self, grids, tmp_path):
        out = tmp_path / "d.json"
        rc = main(
            [
                "decompose",
                "--f",
                str(grids["one"]),
                "--g",
                str(grids["one"]),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["levels"] == {}


class TestVerifyCommand:
    def test_verify_t11_all_pass(self, tmp_path):
        csv = tmp_path / "v.csv"
        js = tmp_path / "v.json"
        rc = main(
            [
                "verify",
                "--tag",
                "T1.1",
                "--kind",
                "random-steps",
                "--seed",
                "7",
                "--n-cal",
                "4",
                "--n-eval",
                "6",
                "--out-csv",
                str(csv),
                "--out-json",
                str(js),
            ]
        )
        assert rc == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "id,lhs,rhs,constant,ratio,bound,pass"
        assert len(lines) == 7
        assert all(line.endswith(",true") for line in lines[1:])
        assert json.loads(js.read_text())["failures"] == 0

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            csv = tmp_path / f"{run}.csv"
            rc = main(
                [
                    "verify",
                    "--tag",
                    "C5.3",
                    "--kind",
                    "spikes",
                    "--seed",
                    "19",
                    "--n-cal",
                    "3",
                    "--n-eval",
                    "4",
                    "--out-csv",
                    str(csv),
                ]
            )
            assert rc == 0
            outs.append(csv.read_bytes())
        assert outs[0] == outs[1]

    def test_structural_mode(self, tmp_path):
        csv = tmp_path / "s.csv"
        rc = main(["verify", "--tag", "structural", "--seed", "3", "--out-csv", str(csv)])
        assert rc == 0

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "kind": "random-steps",
                    "profile": dict(
                        tag="C5.3", n=1, alpha=0.25, q1=6, q2=6, p1=3, p2=3, r=2
                    ),
                }
            )
        )
        csv1 = tmp_path / "v1.csv"
        rc = main(
            [
                "verify",
                "--config",
                str(cfg),
                "--seed",
                "9",
                "--n-cal",
                "3",
                "--n-eval",
                "3",
                "--out-csv",
                str(csv1),
            ]
        )
        assert rc == 0
        # the flag seed (9073...) overrides the config seed in scenario ids
        assert "-9-" in csv1.read_text()


class TestGridConfig:
    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_a_grid_other_than_the_harness_grid_is_refused(self, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 2, "L": 2.0, "N": 32}, "profile": {"tag": "structural"}}))
        assert main([command, "--config", str(cfg)]) == 2
        assert "ConfigInvalid" in capsys.readouterr().err

    def test_the_harness_grid_spelled_out_runs_as_without_it(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n": 1, "L": 4.0, "N": 64}}))
        plain, spelled = tmp_path / "plain.csv", tmp_path / "spelled.csv"
        args = ["verify", "--tag", "structural", "--seed", "3", "--out-csv"]
        assert main(args + [str(plain)]) == 0
        assert main(args + [str(spelled), "--config", str(cfg)]) == 0
        assert spelled.read_bytes() == plain.read_bytes()


class TestSweepCommand:
    @staticmethod
    def _tiny_weight_on(monkeypatch, indices):
        # a 1e-300 cell makes w1^{-p1'} overflow, so the item's constant is +inf
        import dataclasses

        import bifrac.cli as cli

        real = cli.corpus

        def corpus_with_tiny_weights(seed, kind, count=5, **kw):
            items = real(seed, kind, count=count, **kw)
            for i in indices:
                w1 = items[i].w1.samples.copy()
                w1[7] = 1e-300
                tiny = GridFunction(items[i].spec, w1, nonnegative=True)
                items[i] = dataclasses.replace(items[i], w1=tiny)
            return items

        monkeypatch.setattr(cli, "corpus", corpus_with_tiny_weights)

    def test_summary_counts_skipped_scenarios(self, tmp_path, monkeypatch):
        self._tiny_weight_on(monkeypatch, [1])
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"seed": 3, "sweep": {"tag": "T1.1", "alphas": [0.25, 1.0 / 3.0], "count": 3}}))
        docs = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.json"
            assert main(["sweep", "--config", str(cfg), "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(out)]) == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]
        summary = json.loads(docs[0])
        assert summary["skipped"] == 2
        assert summary["failures"] == 0

    def test_a_row_with_every_scenario_skipped_has_no_max_ratio(self, tmp_path, monkeypatch):
        self._tiny_weight_on(monkeypatch, [0, 1])
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"seed": 3, "sweep": {"tag": "T1.1", "alphas": [0.25], "count": 2}}))
        csv, out = tmp_path / "s.csv", tmp_path / "s.json"
        assert main(["sweep", "--config", str(cfg), "--out-csv", str(csv), "--out-json", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert summary["skipped"] == 2
        assert summary["failures"] == 0
        assert summary["rows"][0]["max_ratio"] is None
        assert csv.read_text().splitlines()[1].split(",")[3] == ""

    def test_summary_rows(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "sweep": {
                        "tag": "T1.1",
                        "alphas": [0.25, 1.0 / 3.0],
                        "betas": [0.1, 0.3],
                        "count": 2,
                    },
                }
            )
        )
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", str(cfg), "--out-csv", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 2x2 grid
        # ap constants grow toward the class boundary
        import csv as csvmod

        rows = list(csvmod.DictReader(lines))
        by_beta = {}
        for row in rows:
            by_beta.setdefault(float(row["beta"]), set()).add(row["ap_constant"])
        assert len(by_beta) == 2
        lo = float(next(iter(by_beta[0.1])))
        hi = float(next(iter(by_beta[0.3])))
        assert hi > lo

    def test_empty_ranges(self, tmp_path):
        cfg = tmp_path / "sweep0.json"
        cfg.write_text(json.dumps({"sweep": {"tag": "T1.1", "alphas": [], "betas": []}}))
        out = tmp_path / "s0.csv"
        rc = main(["sweep", "--config", str(cfg), "--out-csv", str(out)])
        assert rc == 0
        assert out.read_text().strip().splitlines() == [
            "id,alpha,beta,max_ratio,bound,ap_constant"
        ]


def test_norms_vector_mode(grids, tmp_path):
    out = tmp_path / "n.json"
    rc = main(
        [
            "norms",
            "--input",
            str(grids["f"]),
            str(grids["f"]),
            "--p0",
            "2",
            "--p1",
            "2",
            "--p2",
            "2",
            "--out-json",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["value"] > 0
