"""CLI surface: exit codes, output formats, determinism."""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bifrac import (
    Cube,
    DyadicGrid,
    GridFunction,
    GridSpec,
    MorreyParams,
    WeightVector,
    apq_constant,
    cz_decompose,
    frac_maximal,
    maximal,
    morrey_norm_witness,
    multi_frac_int,
    multi_maximal,
    read_grid_file,
    two_weight_constant,
    write_grid_file,
)
from bifrac.cli import build_parser, check_config_keys, main
from bifrac.families import default_family, nested_pairs
from bifrac.harness import PROFILE_CATALOG, make_profile, witness_text


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


# The flags each subcommand reads, and no other.
FLAGS = {
    "decompose": ["--f", "--g", "--r", "--s", "--a", "--root", "--out-json"],
    "apply": ["--op", "--input", "--output", "--alpha", "--p", "--r1", "--r2"],
    "constants": [
        "--weight", "--weight2", "--v", "--constant", "--p", "--q", "--p1", "--p2", "--q0", "--r0", "--epsilon",
        "--format", "--out-csv", "--out-json",
    ],
    "norms": ["--input", "--p0", "--q", "--p1", "--p2", "--out-json"],
    "verify": ["--config", "--seed", "--out-csv", "--out-json", "--tag", "--profile-file", "--kind", "--n-cal", "--n-eval"],
    "sweep": ["--config", "--seed", "--out-csv", "--out-json"],
}

_VALID = {
    "decompose": ["decompose", "--f", "f.grid", "--g", "g.grid"],
    "apply": ["apply", "--op", "frac-int", "--input", "f.grid", "--output", "out.grid"],
    "constants": ["constants", "--weight", "w.grid", "--constant", "ap"],
    "norms": ["norms", "--input", "f.grid", "--p0", "2"],
    "verify": ["verify", "--tag", "T1.1"],
    "sweep": ["sweep"],
}


class TestFlags:
    def test_each_subcommand_holds_exactly_the_flags_it_reads(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: [s for a in p._actions if a.dest != "help" for s in a.option_strings]
            for name, p in sub.choices.items()
        }
        assert {name: sorted(flags) for name, flags in got.items()} == {
            name: sorted(flags) for name, flags in FLAGS.items()
        }

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("apply", ["--config", "missing.json"]),
            ("apply", ["--seed", "3"]),
            ("apply", ["--format", "csv"]),
            ("apply", ["--out-csv", "x.csv"]),
            ("apply", ["--out-json", "x.json"]),
            ("decompose", ["--out", "a.json"]),
            ("decompose", ["--config", "cfg.json"]),
            ("decompose", ["--seed", "3"]),
            ("decompose", ["--out-csv", "d.csv"]),
            ("decompose", ["--format", "json"]),
            ("constants", ["--config", "cfg.json"]),
            ("constants", ["--seed", "3"]),
            ("norms", ["--format", "csv"]),
            ("norms", ["--out-csv", "n.csv"]),
            ("norms", ["--config", "cfg.json"]),
            ("norms", ["--seed", "3"]),
            ("verify", ["--format", "csv"]),
            ("sweep", ["--format", "csv"]),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_a_removed_flag_is_a_usage_error(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*_VALID[command], *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv, count, needs",
        [
            (["apply", "--op", "bi-frac"], 1, "apply --op bi-frac reads 2 --input files, got 1"),
            (["apply", "--op", "multi-maximal"], 3, "apply --op multi-maximal reads 2 --input files, got 3"),
            (["apply", "--op", "frac-int"], 2, "apply --op frac-int reads 1 --input file, got 2"),
            (["apply", "--op", "maximal"], 2, "apply --op maximal reads 1 --input file, got 2"),
            (["norms", "--p0", "2"], 3, "norms reads 1 --input file (a Morrey norm) or 2 (a vector Morrey norm), got 3"),
        ],
        ids=["apply-bi-frac-1", "apply-multi-maximal-3", "apply-frac-int-2", "apply-maximal-2", "norms-3"],
    )
    def test_an_input_count_the_mode_does_not_read_is_config_error(self, grids, capsys, argv, count, needs):
        out = grids["dir"] / "out.grid"
        rc = main([*argv, "--input", *[str(grids["f"])] * count] + (["--output", str(out)] if argv[0] == "apply" else []))
        assert rc == 2
        assert capsys.readouterr().err == f"ConfigInvalid: {needs}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["constants", "--constant", "ap", "--p", "nan"], "POutOfRange"),
            (["constants", "--constant", "reverse-holder", "--epsilon", "nan"], "ValueError"),
            (["decompose", "--a", "nan"], "ValueError"),
            (["apply", "--op", "p-maximal", "--p", "nan"], "POutOfRange"),
        ],
        ids=["ap-p", "reverse-holder-epsilon", "decompose-a", "p-maximal-p"],
    )
    def test_a_nan_exponent_is_an_input_error(self, grids, capsys, argv, error):
        out = grids["dir"] / "out"
        inputs = {
            "constants": ["--weight", str(grids["f"]), "--out-json", str(out)],
            "decompose": ["--f", str(grids["f"]), "--g", str(grids["f"]), "--out-json", str(out)],
            "apply": ["--input", str(grids["f"]), "--output", str(out)],
        }
        assert main([*argv, *inputs[argv[0]]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{error}: ") and "Traceback" not in err
        assert not out.exists()

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

    def test_a_profile_of_another_dimension_is_an_input_error(self, tmp_path, capsys):
        # a 2D profile on the 1D harness grid ran and exited 0 before
        prof = tmp_path / "n2.json"
        prof.write_text(json.dumps({"tag": "T1.1", **PROFILE_CATALOG["T1.1"][0], "n": 2}))
        assert main(["verify", "--profile-file", str(prof), "--n-cal", "2", "--n-eval", "2"]) == 2
        assert capsys.readouterr().err.startswith("SpecMismatch: a T1.1 profile with n = 2 on the 1D item ")

    def test_invalid_relations_are_config_error(self, grids, tmp_path):
        prof = tmp_path / "bad_profile.json"
        prof.write_text(
            json.dumps(dict(tag="T1.1", n=1, alpha=0.5, p1=4, p2=4, r=2, s=2, p0=2, a=1.25))
        )
        rc = main(["verify", "--profile-file", str(prof)])
        assert rc == 2

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"seeds": 9, "kinds": "spikes"}, "kinds"),
            ({"seed": 9, "out-csv": "v.csv"}, "out-csv"),
            ({"sweep": {"tag": "T1.1", "alpha": [0.25]}}, "alpha"),
        ],
    )
    def test_a_misspelt_config_key_is_config_error(self, doc, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["sweep"] if "sweep" in doc else ["verify", "--tag", "C5.3"]
        assert main([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid:")
        assert repr(key) in err

    def test_readme_config_examples_hold_only_known_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"Example (\w+) config:\n\n```json\n(.*?)```", readme, re.S)
        assert sorted(command for command, _ in blocks) == ["sweep", "verify"]
        assert len(blocks) == len(re.findall(r"```json\n", readme))
        for command, block in blocks:
            check_config_keys(json.loads(block), command)

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            ("verify", {"sweep": {"tag": "T1.1", "alphas": [0.25]}}, "sweep"),
            ("verify", {"format": "csv"}, "format"),
            ("sweep", {"profile": {"tag": "T1.1"}}, "profile"),
            ("sweep", {"kind": "spikes"}, "kind"),
            ("sweep", {"format": "csv"}, "format"),
            # both run on the harness grid, so neither reads a grid, even that one
            ("verify", {"grid": {"n": 1, "L": 4.0, "N": 64}}, "grid"),
            ("sweep", {"grid": {"n": 1, "L": 4.0, "N": 64}}, "grid"),
        ],
    )
    def test_a_config_key_the_command_does_not_read_is_config_error(self, command, doc, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["verify", "--tag", "structural"] if command == "verify" else ["sweep"]
        assert main([*argv, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: unknown keys") and repr(key) in err

    @pytest.mark.parametrize(
        "flags, doc, key",
        [
            (["--kind", "spikes"], None, "kind"),
            ([], {"kind": "spikes"}, "kind"),
            (["--n-cal", "5"], None, "--n-cal"),
            (["--n-eval", "5"], None, "--n-eval"),
        ],
    )
    def test_structural_refuses_the_corpus_settings(self, flags, doc, key, tmp_path, capsys):
        argv = ["verify", "--tag", "structural", *flags]
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid: the structural checks") and repr(key) in err


    _C53 = dict(tag="C5.3", n=1, alpha=0.25, q1=6, q2=6, p1=3, p2=3, r=2)

    @pytest.mark.parametrize(
        "profile, named",
        [
            ({**{k: v for k, v in _C53.items() if k != "alpha"}, "alhpa": 0.25}, ["'alpha'", "'alhpa'"]),
            (5, ["'profile'"]),
            ({**_C53, "s": 9}, ["'s'"]),
            ({"tag": "structural", "alpha": 0.25}, ["'alpha'"]),
        ],
        ids=["misspelt-key", "not-an-object", "unknown-key", "structural-with-keys"],
    )
    def test_a_bad_config_profile_is_config_error(self, profile, named, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": profile}))
        assert main(["verify", "--config", str(cfg), "--n-cal", "2", "--n-eval", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid:")
        assert all(key in err for key in named)

    def test_a_profile_file_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        prof = tmp_path / "profile.json"
        prof.write_text("[1, 2]")
        assert main(["verify", "--tag", "C5.3", "--profile-file", str(prof)]) == 2
        assert capsys.readouterr().err.startswith("ConfigInvalid:")

    @pytest.mark.parametrize(
        "sweep, named",
        [
            ({"tag": "C5.3", "base": {"q1": 6, "q2": 6, "p1": 3, "p2": 3, "s": 9}, "alphas": [0.25]}, "'s'"),
            ({"tag": "C5.3", "base": {"q1": 6, "q2": 6, "p1": 3}, "alphas": [0.25]}, "'p2'"),
            ({"tag": "T9.9", "alphas": [0.25]}, "'T9.9'"),
        ],
        ids=["unknown-key", "missing-key", "unknown-tag"],
    )
    def test_a_bad_sweep_base_is_config_error(self, sweep, named, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": sweep}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid:")
        assert named in err

    @pytest.mark.parametrize(
        "sweep, key",
        [
            ({"alphas": 0.3}, "alphas"),
            ({"alphas": [0.25], "betas": 0.1}, "betas"),
            ({"alphas": ["x"]}, "alphas"),
            ({"alphas": [0.25], "betas": [True]}, "betas"),
            ({"alphas": [0.25], "count": 2.7}, "count"),
            ({"alphas": [0.25], "count": 0}, "count"),
            ({"alphas": [0.25], "count": True}, "count"),
        ],
    )
    def test_a_bad_sweep_value_is_config_error(self, sweep, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"tag": "T1.1", **sweep}}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ConfigInvalid: config sweep {key!r}")

    def test_an_unknown_verify_tag_is_config_error(self, capsys):
        assert main(["verify", "--tag", "T9.9"]) == 2
        assert capsys.readouterr().err.startswith("ConfigInvalid:")

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"seed": "abc"}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"format": "xml"}, "format"),
            ({"kind": "foo"}, "kind"),
            ({"out_csv": 2}, "out_csv"),
            ({"out_json": ["v.json"]}, "out_json"),
        ],
    )
    def test_a_bad_config_value_is_config_error(self, doc, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["verify", "--tag", "C5.3", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid:")
        assert repr(key) in err

    @pytest.mark.parametrize(
        "flags, key",
        [(["--kind", "foo"], "kind"), (["--n-cal", "0"], "--n-cal"), (["--n-eval", "0"], "--n-eval")],
    )
    def test_a_bad_verify_flag_is_config_error(self, flags, key, capsys):
        assert main(["verify", "--tag", "T1.1", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigInvalid:")
        assert repr(key) in err

    def test_readme_verify_profile_holds_the_keys_of_its_tag(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        profiles = [json.loads(b).get("profile") for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
        profiles = [dict(p) for p in profiles if p]
        assert profiles
        for profile in profiles:
            make_profile(profile.pop("tag"), **profile)


class TestUnreadFlags:
    @pytest.mark.parametrize(
        "argv, inputs, named",
        [
            (["apply", "--op", "maximal", "--alpha", "9", "--p", "7"], 1, "apply --op maximal does not read --alpha, --p"),
            (["apply", "--op", "bi-frac", "--r1", "2"], 2, "apply --op bi-frac does not read --r1"),
            (["apply", "--op", "p-maximal", "--alpha", "0.5"], 1, "apply --op p-maximal does not read --alpha"),
            (
                ["constants", "--constant", "ap", "--q0", "-3", "--epsilon", "-1", "--r0", "0"],
                0,
                "constants --constant ap does not read --epsilon, --q0, --r0",
            ),
            (["constants", "--constant", "ap", "apq", "--p1", "3"], 0, "constants --constant ap apq does not read --p1"),
            (["constants", "--constant", "ap", "--weight2", "w2"], 0, "constants --constant ap does not read --weight2"),
            (["norms", "--p0", "2", "--p1", "-5"], 1, "norms with 1 --input file does not read --p1"),
            (["norms", "--p0", "2", "--q", "2"], 2, "norms with 2 --input files does not read --q"),
        ],
        ids=["apply-maximal", "apply-bi-frac", "apply-p-maximal", "constants-ap", "constants-ap-apq",
             "constants-weight2", "norms-1", "norms-2"],
    )
    def test_a_flag_the_mode_does_not_read_is_config_error(self, grids, capsys, argv, inputs, named):
        # each of these exited 0 before, ignoring the flag
        out = grids["dir"] / "out"
        files = ["--input", *[str(grids["f"])] * inputs] if inputs else ["--weight", str(grids["f"])]
        more = ["--output", str(out)] if argv[0] == "apply" else ["--out-json", str(out)]
        assert main([*argv, *files, *more]) == 2
        assert capsys.readouterr().err == f"ConfigInvalid: {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["apply", "--op", "frac-maximal"], lambda f: frac_maximal(f, 0.5)),
            (["apply", "--op", "frac-maximal", "--alpha", "0.25"], lambda f: frac_maximal(f, 0.25)),
            (["apply", "--op", "multi-maximal", "--r2", "2"], lambda f: multi_maximal(f, f, 0.5, 1.0, 2.0)),
            (["apply", "--op", "maximal"], maximal),
        ],
        ids=["defaults", "alpha", "r2", "no-flags"],
    )
    def test_the_table_defaults_are_the_operator_inputs(self, grids, argv, want):
        out = grids["dir"] / "out.grid"
        count = 2 if argv[2] == "multi-maximal" else 1
        assert main([*argv, "--input", *[str(grids["f"])] * count, "--output", str(out)]) == 0
        assert np.array_equal(read_grid_file(out).samples, want(read_grid_file(grids["f"])).samples)

    def test_the_constants_table_defaults_are_the_constant_inputs(self, grids, tmp_path):
        out = tmp_path / "c.json"
        argv = ["constants", "--weight", str(grids["f"]), "--weight2", str(grids["one"]), "--v", str(grids["f"])]
        assert main([*argv, "--constant", "apq", "two-weight", "--r0", "8", "--out-json", str(out)]) == 0
        apq, two = json.loads(out.read_text())["constants"]
        f, one = read_grid_file(grids["f"]), read_grid_file(grids["one"])
        assert apq["value"] == apq_constant(f, 2.0, 3.0, default_family(f.spec)).value
        pairs = nested_pairs(default_family(f.spec))
        assert two["value"] == two_weight_constant(f, WeightVector(f, one), 4.0, 3.0, 2.0, 2.0, pairs, r0=8.0).value


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

    @pytest.mark.parametrize("fmt, unread", [("json", "--out-csv"), ("csv", "--out-json")])
    def test_an_output_file_of_the_other_format_is_a_config_error(self, grids, tmp_path, capsys, fmt, unread):
        out = tmp_path / "c.out"
        argv = ["constants", "--weight", str(grids["f"]), "--constant", "ap", "--format", fmt, unread, str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"ConfigInvalid: constants --format {fmt} writes no {unread!r} file\n"
        assert not out.exists()

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


    @pytest.mark.parametrize(
        "name, given, flag",
        [
            ("iida", [], "--weight2"),
            ("multiple-apq", [], "--weight2"),
            ("two-weight", [], "--weight2 and --v"),
            ("two-weight", ["--weight2"], "--v"),
        ],
    )
    def test_a_constant_without_its_input_files_is_a_config_error(self, grids, capsys, name, given, flag):
        argv = ["constants", "--weight", str(grids["f"]), "--constant", "ap", name]
        for key in given:
            argv += [key, str(grids["f"])]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"ConfigInvalid: constant {name!r} needs {flag}"]

    @pytest.mark.parametrize("flag", ["--weight", "--weight2", "--v"])
    def test_an_empty_input_path_is_an_input_error(self, grids, capsys, flag):
        paths = {"--weight": str(grids["f"]), "--weight2": str(grids["f"]), "--v": str(grids["f"]), flag: ""}
        argv = ["constants", "--constant", "two-weight", *(x for item in paths.items() for x in item)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("InputUnreadable: ")

    def test_names_are_checked_before_any_constant_is_computed(self, grids, monkeypatch, capsys):
        import bifrac.cli as cli

        monkeypatch.setattr(cli, "ap_constant", lambda *a: pytest.fail("ap computed before the names were checked"))
        assert main(["constants", "--weight", str(grids["f"]), "--constant", "ap", "bogus"]) == 2
        assert capsys.readouterr().err.startswith("ConfigInvalid: unknown constant 'bogus'")

    def test_an_exponent_out_of_range_names_the_constant(self, grids, capsys):
        argv = ["constants", "--weight", str(grids["f"]), "--constant", "ap", "apq", "--p", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("POutOfRange: constant 'apq': need 1 < p < q")

    def test_pairs_are_built_only_for_the_pair_constants(self, grids, monkeypatch, tmp_path):
        import bifrac.cli as cli

        monkeypatch.setattr(cli, "nested_pairs", lambda family: pytest.fail("pairs built for single-cube constants"))
        argv = ["constants", "--weight", str(grids["f"]), "--weight2", str(grids["f"])]
        argv += ["--constant", "ap", "apq", "multiple-apq", "reverse-holder", "--out-json", str(tmp_path / "c.json")]
        assert main(argv) == 0

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_product_weight_past_the_float_range_is_an_input_error(self, dim, tmp_path, capsys):
        spec = GridSpec(dim, 1.0, 8)
        path = tmp_path / "big.grid"
        write_grid_file(path, GridFunction(spec, np.full(spec.shape, 1e200)))
        argv = ["constants", "--weight", str(path), "--weight2", str(path), "--constant", "multiple-apq"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("AverageOverflow: ") and "w1 * w2" in err[0]


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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_multi_frac_int_writes_the_operator_output(self, dim, tmp_path):
        spec = GridSpec(dim, 1.0, 16 if dim == 1 else 8)
        rng = np.random.default_rng(dim)
        paths = [tmp_path / "f1.grid", tmp_path / "f2.grid"]
        for path in paths:
            write_grid_file(path, GridFunction(spec, rng.uniform(-1.0, 1.0, spec.shape)))
        out = tmp_path / "out.grid"
        argv = ["apply", "--op", "multi-frac-int", "--alpha", "1.3", "--input", *map(str, paths), "--output", str(out)]
        assert main(argv) == 0
        want = multi_frac_int(read_grid_file(paths[0]), read_grid_file(paths[1]), 1.3)
        got = read_grid_file(out)
        assert got.spec == spec and np.array_equal(got.samples, want.samples)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_maximal_average_past_the_float_range_is_an_input_error(self, dim, tmp_path, capsys):
        # the 2.5-th power of the 1e200 cell leaves the float range
        spec = GridSpec(dim, 1.0, 8)
        arr = np.zeros(spec.shape)
        arr[(3,) * dim] = 1e200
        path, out = tmp_path / "big.grid", tmp_path / "out.grid"
        write_grid_file(path, GridFunction(spec, arr))
        argv = ["apply", "--op", "p-maximal", "--p", "2.5", "--input", str(path), "--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("AverageOverflow: ") and "p = 2.5" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("op", ["bi-frac", "multi-frac-int"])
    def test_a_kernel_sum_past_the_float_range_is_an_input_error(self, op, tmp_path, capsys):
        # every product of two 1e200 cells leaves the float range
        paths, out = [tmp_path / "f.grid", tmp_path / "g.grid"], tmp_path / "out.grid"
        for path in paths:
            write_grid_file(path, GridFunction(GridSpec(1, 1.0, 16), np.full(16, 1e200)))
        argv = ["apply", "--op", op, "--alpha", "0.5", "--input", *map(str, paths), "--output", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("AverageOverflow: ") and "alpha = 0.5" in err[0]
        assert not out.exists()


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
                "--out-json",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["levels"] == {}

    @pytest.mark.parametrize("dim", [1, 2])
    def test_spiky_levels_equal_the_library(self, dim, tmp_path):
        # the default root: HARNESS_Q0 on the 1D harness grid, [0, L)^n otherwise
        spec = GridSpec(1, 4.0, 64) if dim == 1 else GridSpec(2, 2.0, 16)
        rng = np.random.default_rng(40 + dim)
        paths = []
        for name, site in (("f", 0), ("g", 1)):
            arr = rng.uniform(0.0, 0.05, spec.shape)
            arr[(spec.cells_per_axis // 2 + 3 + site,) * dim] = 40.0 if dim == 1 else 100.0
            arr[(spec.cells_per_axis - 2,) * dim] = 25.0
            paths.append(tmp_path / f"{name}.grid")
            write_grid_file(paths[-1], GridFunction(spec, arr))
        out = tmp_path / "d.json"
        assert main(["decompose", "--f", str(paths[0]), "--g", str(paths[1]), "--out-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        f, g = (read_grid_file(p) for p in paths)
        root = Cube((0.0,) * dim, spec.half_width)
        fam = cz_decompose(f, g, 2.0, 2.0, root, DyadicGrid((0.0,) * dim))
        want = {
            str(k): [
                {"cube": sc.cube.serialize(), "m_value": sc.m_value, "e_measure": sc.e_count * fam.cell_measure}
                for sc in scs
            ]
            for k, scs in fam.levels.items()
        }
        assert len(fam.levels) >= 2 and payload["levels"] == want
        assert (payload["root"], payload["root_average"], payload["e0_measure"]) == (
            root.serialize(),
            fam.root_m,
            fam.e0_measure,
        )

    def test_an_average_past_the_float_range_is_an_input_error(self, tmp_path, capsys):
        # the defaults r = s = 2 square the 1e200 cell past the float range
        arr = np.zeros(64)
        arr[10] = 1e200
        path = tmp_path / "big.grid"
        write_grid_file(path, GridFunction(GridSpec(1, 4.0, 64), arr))
        assert main(["decompose", "--f", str(path), "--g", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("AverageOverflow: ") and "r = 2.0, s = 2.0" in err
        assert "root cube 0.0 4.0" in err and "Traceback" not in err


    @pytest.mark.parametrize("root", ["0 inf", "x 1", "0 nan", "0 -1", "0", "0 1 1", "inf 1", "nan 1"])
    def test_a_root_that_is_not_a_cube_is_config_error(self, grids, capsys, root):
        assert main(["decompose", "--f", str(grids["one"]), "--g", str(grids["one"]), "--root", root]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ConfigInvalid: --root {root!r}: ") and "Traceback" not in err

    def test_a_root_leaving_the_box_is_out_of_box(self, grids, capsys):
        # [4, 8) is a cube of the grid, past the box [-4, 4)
        assert main(["decompose", "--f", str(grids["one"]), "--g", str(grids["one"]), "--root", "4.0 4.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("OutOfBox: ") and "Traceback" not in err


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

    def test_structural_bytes_are_pinned_across_commits(self, tmp_path):
        # structural is the tag whose bytes do not follow the host's SIMD
        # dispatch of array powers.
        csv, js = tmp_path / "s.csv", tmp_path / "s.json"
        assert main(["verify", "--tag", "structural", "--seed", "7", "--out-csv", str(csv), "--out-json", str(js)]) == 0
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == "cd8810ed1eda96b1a40617061806816b1c7708cf27a61136f9cd5b2ac1299882"
        assert hashlib.sha256(js.read_bytes()).hexdigest() == "b782cbea390bea2ec5197a016fa00ad079c78a8083a715f93794ef5aca20948c"

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


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestSweepCommand:
    @staticmethod
    def _tiny_weight_on(monkeypatch, indices):
        # a 1e-300 cell makes w1^{-p1'} overflow, so the item's constant is +inf;
        # the calibration and held-out corpora both get it on `indices`
        import dataclasses

        import bifrac.harness as harness

        real = harness.corpus

        def corpus_with_tiny_weights(seed, kind, count=5, **kw):
            items = real(seed, kind, count=count, **kw)
            for i in indices:
                w1 = items[i].w1.samples.copy()
                w1[7] = 1e-300
                tiny = GridFunction(items[i].spec, w1, nonnegative=True)
                items[i] = dataclasses.replace(items[i], w1=tiny)
            return items

        monkeypatch.setattr(harness, "corpus", corpus_with_tiny_weights)

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
        summary = json.loads(docs[0], parse_constant=_refuse_constant)
        assert summary["skipped"] == 2
        assert [[it["ratio"] is None for it in row["items"]] for row in summary["rows"]] == [[False, True, False]] * 2
        assert summary["failures"] == 0

    def test_a_row_with_every_scenario_skipped_has_no_max_ratio(self, tmp_path, monkeypatch):
        self._tiny_weight_on(monkeypatch, [0, 1])
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"seed": 3, "sweep": {"tag": "T1.1", "alphas": [0.25], "count": 2}}))
        csv, out = tmp_path / "s.csv", tmp_path / "s.json"
        assert main(["sweep", "--config", str(cfg), "--out-csv", str(csv), "--out-json", str(out)]) == 0
        summary = json.loads(out.read_text(), parse_constant=_refuse_constant)
        assert summary["skipped"] == 2
        assert summary["failures"] == 0
        assert summary["rows"][0]["max_ratio"] is None
        assert csv.read_text().splitlines()[1].split(",")[3] == ""

    def test_a_row_calibrates_on_its_own_beta_weighted_items(self, tmp_path):
        import dataclasses

        from bifrac.families import default_family, nested_pairs
        from bifrac.harness import HARNESS_SPEC, _grid_fn, catalog_profiles, protocol_corpora
        from bifrac.harness import evaluate_inequality_item

        cfg = tmp_path / "sweep.json"
        sweep = {"tag": "T1.1", "alphas": [1.0 / 3.0], "betas": [0.1, 0.3], "count": 2}
        cfg.write_text(json.dumps({"seed": 3, "sweep": sweep}))
        out = tmp_path / "s.json"
        assert main(["sweep", "--config", str(cfg), "--out-csv", str(tmp_path / "s.csv"), "--out-json", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        fam = default_family(HARNESS_SPEC)
        prs = nested_pairs(fam)
        prof = catalog_profiles("T1.1")[0]  # alpha = 1/3
        cal_items, _ = protocol_corpora(3, "power-weights", n_eval=2)
        for row, beta in zip(rows, (0.1, 0.3)):
            w = _grid_fn(HARNESS_SPEC, [("power", 2.0, beta)])
            ratios = []
            for item in cal_items:
                weighted = dataclasses.replace(item, w1=w, w2=w)
                lhs, rhs, const = evaluate_inequality_item(prof, weighted, fam, prs)
                ratios.append(lhs / (const.value * rhs))
            assert row["bound"] == 2.0 * max(r for r in ratios if math.isfinite(r))
        assert rows[0]["bound"] != rows[1]["bound"]

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


# Modes of main whose output no other test compares with the library: per
# mode, its argv (the file paths as format fields) and the library's result
# as the command writes it (a grid, or the JSON payload).
_LIBRARY_MODES = {
    "apply-maximal": (
        ["apply", "--op", "maximal", "--input", "{f}", "--output", "{out}"],
        lambda f, g, v, family: maximal(f),
    ),
    "apply-frac-maximal": (
        ["apply", "--op", "frac-maximal", "--alpha", "0.4", "--input", "{f}", "--output", "{out}"],
        lambda f, g, v, family: frac_maximal(f, 0.4),
    ),
    "apply-multi-maximal": (
        ["apply", "--op", "multi-maximal", "--alpha", "0.4", "--r1", "1.5", "--r2", "1.2", "--input", "{f}", "{g}", "--output", "{out}"],
        lambda f, g, v, family: multi_maximal(f, g, 0.4, 1.5, 1.2),
    ),
    "constants-two-weight": (
        ["constants", "--weight", "{f}", "--weight2", "{g}", "--v", "{v}", "--constant", "two-weight", "--out-json", "{out}"],
        lambda f, g, v, family: _two_weight_payload(two_weight_constant(v, WeightVector(f, g), 4.0, 3.0, 2.0, 2.0, nested_pairs(family))),
    ),
    "norms-morrey": (
        ["norms", "--input", "{f}", "--p0", "3", "--q", "2", "--out-json", "{out}"],
        lambda f, g, v, family: _morrey_payload(*morrey_norm_witness(f, MorreyParams(3.0, 2.0), family)),
    ),
}


def _two_weight_payload(rep):
    row = {"constant": "two-weight", "value": rep.value, "witness": witness_text(rep.witness), "family_size": rep.family_size}
    return {"schema": 1, "constants": [row]}


def _morrey_payload(value, witness):
    return {"schema": 1, "value": value, "witness": witness.serialize()}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", list(_LIBRARY_MODES))
def test_a_mode_writes_the_library_result_bit_for_bit(mode, dim, tmp_path):
    spec = GridSpec(dim, 1.0, 16 if dim == 1 else 8)
    rng = np.random.default_rng(dim)
    paths = {name: tmp_path / f"{name}.grid" for name in ("f", "g", "v")}
    for path in paths.values():
        write_grid_file(path, GridFunction(spec, rng.uniform(0.2, 1.5, spec.shape)))
    out = tmp_path / "out"
    template, library = _LIBRARY_MODES[mode]
    assert main([arg.format(out=out, **paths) for arg in template]) == 0
    want = library(*(read_grid_file(paths[name]) for name in ("f", "g", "v")), default_family(spec))
    if isinstance(want, GridFunction):
        got = read_grid_file(out)
        assert got.spec == spec and np.array_equal(got.samples.view(np.int64), want.samples.view(np.int64))
    else:
        # the JSON text holds each float's repr, so equal text is equal bits
        assert out.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_python_m_bifrac_runs_the_cli_from_a_checkout(tmp_path):
    # the package's __main__ calls cli.main, with its exit code and streams
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def bifrac(*argv):
        return subprocess.run(
            [sys.executable, "-m", "bifrac", *argv], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120
        )

    write_grid_file(tmp_path / "one.grid", GridFunction.constant(GridSpec(1, 1.0, 8), 1.0))
    run = bifrac("apply", "--op", "maximal", "--input", "one.grid", "--output", "m.grid")
    assert run.returncode == 0, run.stderr
    assert np.array_equal(read_grid_file(tmp_path / "m.grid").samples, np.ones(8))
    run = bifrac("apply", "--op", "maximal", "--input", "missing.grid", "--output", "x.grid")
    assert run.returncode == 2 and len(run.stderr.splitlines()) == 1
