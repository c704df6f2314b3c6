"""Command-line front end: decompose, apply, constants, norms, verify, sweep.

Each subcommand takes only the flags it reads.  verify and sweep also read a
JSON document (--config) holding only the keys they read; explicit flags
override its fields.  Exit codes: 0 success, 1 verification failures present,
2 configuration or input errors (an unknown flag is argparse's usage error).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace

from .errors import BifracError, ConfigInvalid, InputUnreadable, POutOfRange
from .families import default_family, nested_pairs
from .geometry import Cube, DyadicGrid
from .harness import (
    CORPUS_KINDS,
    HARNESS_SPEC,
    TAGS,
    _grid_fn,
    check_profile_contract,
    make_profile,
    protocol_corpora,
    run_verify,
    tag_rule,
    verify_calibrated,
    verify_structural,
    witness_text,
)
from .lattice import read_grid_file, write_grid_file
from .morrey import MorreyParams, morrey_norm_witness, vector_morrey_norm
from .operators import (
    bi_frac,
    frac_int,
    frac_maximal,
    maximal,
    multi_frac_int,
    multi_maximal,
    p_maximal,
)
from .sparse import cz_decompose
from .weights import (
    WeightVector,
    ap_constant,
    apq_constant,
    iida_constant,
    multiple_apq_constant,
    reverse_holder_probe,
    two_weight_constant,
)

# The keys a config document may hold for each command that reads one, at the
# top level (None) and in its `sweep` object; any other key is a
# ConfigInvalid.  Both commands run on the harness grid, so neither reads a
# `grid`.  A `profile` object, and a sweep `base` (alpha supplied), hold the
# keys of their tag, which harness.check_profile_contract checks.
CONFIG_KEYS = {
    "verify": {
        None: ("profile", "seed", "kind", "out_csv", "out_json"),
    },
    "sweep": {
        None: ("sweep", "seed", "out_csv", "out_json"),
        "sweep": ("tag", "base", "alphas", "betas", "count"),
    },
}


@dataclass
class RunConfig:
    """Validated run configuration; built from config JSON plus flag overrides."""

    profile: dict = field(default_factory=dict)
    seed: int = 7
    kind: str | None = None
    out_csv: str | None = None
    out_json: str | None = None
    sweep: dict = field(default_factory=dict)


def _fmt(x) -> str:
    if isinstance(x, (float, int)) or hasattr(x, "dtype"):
        x = float(x)
        if math.isnan(x):
            return "nan"
        return repr(x)
    return str(x)


def _write_csv(path, header: str, rows) -> None:
    """Write a CSV table of already formatted fields to `path`, or to stdout without a path."""
    _write_text(path, "".join(line + "\n" for line in [header, *(",".join(row) for row in rows)]))


def _write_text(path, text: str) -> None:
    """Write `text` to the file at `path` as ascii, or to stdout without a path."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit_json(path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def check_config_keys(doc, command: str) -> None:
    """Raise ConfigInvalid unless `doc` is an object holding only keys that `command` reads."""
    for section, known in CONFIG_KEYS[command].items():
        part = doc if section is None else doc.get(section, {})
        where = "config document" if section is None else f"config {section!r}"
        if not isinstance(part, dict):
            raise ConfigInvalid(f"{where} must be a JSON object")
        unknown = sorted(set(part) - set(known))
        if unknown:
            raise ConfigInvalid(f"unknown keys {unknown} in {where}; known keys are {list(known)}")
    if not isinstance(doc.get("profile", {}), dict):
        raise ConfigInvalid("config 'profile' must be a JSON object")


def _load_config(args) -> RunConfig:
    """The config of `verify` or `sweep`: the --config document, then the flags over it."""
    base: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputUnreadable(f"config {args.config}: {exc}") from exc
        check_config_keys(base, args.command)
    cfg = RunConfig()
    for key in ("profile", "sweep"):
        if key in base:
            setattr(cfg, key, dict(base[key]))
    if "seed" in base and type(base["seed"]) is not int:  # a bool is not a seed
        raise ConfigInvalid(f"config 'seed' must be an integer, got {base['seed']!r}")
    for key in ("out_csv", "out_json"):
        if key in base and not isinstance(base[key], str):
            raise ConfigInvalid(f"config {key!r} must be a file path string, got {base[key]!r}")
    for key in ("seed", "kind", "out_csv", "out_json"):
        if key in base:
            setattr(cfg, key, base[key])
    # flags override config fields; only verify has --kind
    for key in ("seed", "kind"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if cfg.kind is not None and cfg.kind not in CORPUS_KINDS:
        raise ConfigInvalid(f"'kind' must be one of {list(CORPUS_KINDS)}, got {cfg.kind!r}")
    if args.out_csv:
        cfg.out_csv = args.out_csv
    if args.out_json:
        cfg.out_json = args.out_json
    return cfg


def _parse_root(text: str, dim: int) -> Cube:
    """The --root cube `corner... side`: dim + 1 numbers, a finite corner and a positive finite side."""
    try:
        vals = [float(t) for t in text.split()]
        if len(vals) != dim + 1 or not all(map(math.isfinite, vals[:-1])):
            raise ValueError(f"needs {dim + 1} numbers `corner... side` with a finite corner")
        return Cube(tuple(vals[:-1]), vals[-1])
    except ValueError as exc:
        raise ConfigInvalid(f"--root {text!r}: {exc}") from exc


def cmd_decompose(args) -> int:
    f, g = read_grid_file(args.f), read_grid_file(args.g)
    spec = f.spec
    if args.root:
        q0 = _parse_root(args.root, spec.dim)
    else:
        q0 = Cube((0.0,) * spec.dim, spec.half_width)
    grid = DyadicGrid((0.0,) * spec.dim)
    fam = cz_decompose(f, g, args.r, args.s, q0, grid, a=args.a)
    payload = {
        "schema": 1,
        "root": fam.root.serialize(),
        "a": fam.base_constant,
        "root_average": fam.root_m,
        "e0_measure": fam.e0_measure,
        "levels": {
            str(k): [
                {
                    "cube": sc.cube.serialize(),
                    "m_value": sc.m_value,
                    "e_measure": sc.e_count * fam.cell_measure,
                }
                for sc in scs
            ]
            for k, scs in sorted(fam.levels.items())
        },
    }
    _emit_json(args.out_json, payload)
    return 0


def _flag_values(args, mode: str, every, reads: dict) -> dict:
    """The flags `reads` (name -> default) with their values, from args where
    given.  A flag of `every` that was given and is not in `reads` is a
    ConfigInvalid naming it and the mode."""
    unread = [f"--{key}" for key in sorted(set(every) - set(reads)) if getattr(args, key) is not None]
    if unread:
        raise ConfigInvalid(f"{mode} does not read {', '.join(unread)}")
    return {key: default if getattr(args, key) is None else getattr(args, key) for key, default in reads.items()}


# Per op: the number of --input files it reads, the flags it reads with their
# defaults, and the operator (argparse takes the ops from here).
_APPLY = {
    "bi-frac": (2, {"alpha": 0.5}, bi_frac),
    "frac-int": (1, {"alpha": 0.5}, frac_int),
    "multi-frac-int": (2, {"alpha": 0.5}, multi_frac_int),
    "maximal": (1, {}, maximal),
    "frac-maximal": (1, {"alpha": 0.5}, frac_maximal),
    "p-maximal": (1, {"p": 2.0}, p_maximal),
    "multi-maximal": (2, {"alpha": 0.5, "r1": 1.0, "r2": 1.0}, multi_maximal),
}


def cmd_apply(args) -> int:
    op, (need, flags, operator) = args.op, _APPLY[args.op]
    if len(args.input) != need:
        files = "files" if need > 1 else "file"
        raise ConfigInvalid(f"apply --op {op} reads {need} --input {files}, got {len(args.input)}")
    values = _flag_values(args, f"apply --op {op}", {key for _, fl, _ in _APPLY.values() for key in fl}, flags)
    write_grid_file(args.output, operator(*[read_grid_file(p) for p in args.input], **values))
    return 0


# Per constant: the input files it reads besides --weight, the flags it reads
# with their defaults, and its value on (w1, WeightVector(w1, w2), v, family,
# pairs, flag values): a ConstantReport, or the reverse-Hoelder probe's number.
_CONSTANTS = {
    "ap": ((), {"p": 2.0}, lambda w, wv, v, fam, prs, x: ap_constant(w, family=fam, **x)),
    "apq": ((), {"p": 2.0, "q": 3.0}, lambda w, wv, v, fam, prs, x: apq_constant(w, family=fam, **x)),
    "multiple-apq": (("weight2",), {"p1": 2.0, "p2": 2.0, "q": 3.0},
                     lambda w, wv, v, fam, prs, x: multiple_apq_constant(wv, family=fam, **x)),
    "iida": (("weight2",), {"q0": 4.0, "q": 3.0, "p1": 2.0, "p2": 2.0},
             lambda w, wv, v, fam, prs, x: iida_constant(wv, pairs=prs, **x)),
    "two-weight": (("weight2", "v"), {"q0": 4.0, "q": 3.0, "p1": 2.0, "p2": 2.0, "r0": None},
                   lambda w, wv, v, fam, prs, x: two_weight_constant(v, wv, pairs=prs, **x)),
    "reverse-holder": ((), {"epsilon": 0.5}, lambda w, wv, v, fam, prs, x: reverse_holder_probe(w, family=fam, **x)),
}


def cmd_constants(args) -> int:
    flag, unread = ("--out-json", args.out_json) if args.format == "csv" else ("--out-csv", args.out_csv)
    if unread:
        raise ConfigInvalid(f"constants --format {args.format} writes no {flag!r} file")
    reads = {}
    for name in args.constant:
        if name not in _CONSTANTS:
            raise ConfigInvalid(f"unknown constant {name!r}; known constants are {list(_CONSTANTS)}")
        files, flags, _ = _CONSTANTS[name]
        missing = [f"--{key}" for key in files if getattr(args, key) is None]
        if missing:
            raise ConfigInvalid(f"constant {name!r} needs {' and '.join(missing)}")
        reads.update(dict.fromkeys(files), **flags)
    every = {key for files, flags, _ in _CONSTANTS.values() for key in (*files, *flags)}
    values = _flag_values(args, f"constants --constant {' '.join(args.constant)}", every, reads)
    w1 = read_grid_file(args.weight)
    w2 = read_grid_file(args.weight2) if args.weight2 is not None else None
    v = read_grid_file(args.v) if args.v is not None else None
    wv = WeightVector(w1, w2) if w2 is not None else None  # --weight2 is given only if a constant reads it
    family = default_family(w1.spec)
    pairs = nested_pairs(family) if {"iida", "two-weight"} & set(args.constant) else None
    results = []
    for name in args.constant:
        _, flags, constant = _CONSTANTS[name]
        try:
            rep = constant(w1, wv, v, family, pairs, {key: values[key] for key in flags})
        except POutOfRange as exc:
            raise POutOfRange(f"constant {name!r}: {exc}") from exc
        if name == "reverse-holder":  # a bare number: no witness
            results.append({"constant": name, "value": rep, "witness": "", "family_size": family.size})
        else:
            row = {"value": rep.value, "witness": witness_text(rep.witness), "family_size": rep.family_size}
            results.append({"constant": name, **row})
    if args.format == "csv":
        _write_csv(
            args.out_csv,
            "constant,value,witness,family_size",
            ([row["constant"], _fmt(row["value"]), f"\"{row['witness']}\"", str(row["family_size"])] for row in results),
        )
    else:
        _emit_json(args.out_json, {"schema": 1, "constants": results})
    return 0


# Per number of --input files (a Morrey norm, a vector Morrey norm): the flags
# it reads besides --p0, with their defaults.
_NORMS = {1: {"q": 1.0}, 2: {"p1": 2.0, "p2": 2.0}}


def cmd_norms(args) -> int:
    if len(args.input) > 2:
        count = len(args.input)
        raise ConfigInvalid(f"norms reads 1 --input file (a Morrey norm) or 2 (a vector Morrey norm), got {count}")
    mode = f"norms with {len(args.input)} --input file" + ("s" if len(args.input) > 1 else "")
    values = _flag_values(args, mode, {key for flags in _NORMS.values() for key in flags}, _NORMS[len(args.input)])
    fns = [read_grid_file(p) for p in args.input]
    family = default_family(fns[0].spec)
    if len(fns) == 1:
        value, witness = morrey_norm_witness(fns[0], MorreyParams(args.p0, values["q"]), family)
        payload = {"schema": 1, "value": value, "witness": witness.serialize()}
    else:
        value = vector_morrey_norm(fns[0], fns[1], args.p0, values["p1"], values["p2"], family)
        payload = {"schema": 1, "value": value, "witness": ""}
    _emit_json(args.out_json, payload)
    return 0


def _profile_from_cfg(cfg: RunConfig, args) -> tuple[str, dict]:
    """The verify tag and the profile keys given for it (config, then
    --profile-file, then --tag)."""
    raw = dict(cfg.profile)
    if args.profile_file:
        try:
            with open(args.profile_file, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputUnreadable(f"profile {args.profile_file}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigInvalid(f"profile {args.profile_file} must be a JSON object")
        raw.update(loaded)
    if args.tag:
        raw["tag"] = args.tag
    tag = raw.pop("tag", None)
    if not tag:
        raise ConfigInvalid("verify needs a profile tag")
    return tag, raw


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    tag, raw = _profile_from_cfg(cfg, args)
    if tag == "structural":
        if raw:
            raise ConfigInvalid(f"the structural checks read no profile keys, got {sorted(raw)}")
        settings = (("kind", cfg.kind), ("--n-cal", args.n_cal), ("--n-eval", args.n_eval))
        given = [key for key, val in settings if val is not None]
        if given:
            raise ConfigInvalid(f"the structural checks read no corpus settings, got {given}")
        reports = verify_structural(cfg.seed)
        summary = {
            "schema": 1,
            "tag": "structural",
            "seed": cfg.seed,
            "max_ratio": max(r.ratio for r in reports),
            "failures": sum(0 if r.passed else 1 for r in reports),
        }
    else:
        # with no keys given, the tag's first catalog profile
        profile = make_profile(tag, **(raw or tag_rule(tag).catalog[0]))
        # only the given counts: protocol_corpora holds the defaults
        counts = {key: val for key, val in (("n_cal", args.n_cal), ("n_eval", args.n_eval)) if val is not None}
        for key, count in counts.items():
            if count < 1:
                flag = "--" + key.replace("_", "-")
                raise ConfigInvalid(f"{flag!r} must be at least 1, got {count}")
        reports, summary = run_verify(profile, cfg.kind or "random-steps", cfg.seed, **counts)
    _write_csv(
        cfg.out_csv,
        "id,lhs,rhs,constant,ratio,bound,pass",
        (
            [r.scenario, *map(_fmt, (r.lhs, r.rhs, r.constant, r.ratio, r.bound)), "true" if r.passed else "false"]
            for r in reports
        ),
    )
    if cfg.out_json:
        _emit_json(cfg.out_json, summary)
    return 0 if summary["failures"] == 0 else 1


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    sweep = dict(cfg.sweep)
    alphas = sweep.get("alphas", [])
    betas = sweep.get("betas", [])
    for key, vals in (("alphas", alphas), ("betas", betas)):
        if not isinstance(vals, list) or any(type(v) not in (int, float) for v in vals):  # a bool is not a number
            raise ConfigInvalid(f"config sweep {key!r} must be a list of real numbers, got {vals!r}")
    count = sweep.get("count", 3)
    if type(count) is not int or count < 1:
        raise ConfigInvalid(f"config sweep 'count' must be an integer at least 1, got {count!r}")
    tag = sweep.get("tag", "T1.1")
    base = sweep["base"] if "base" in sweep else tag_rule(tag).catalog[0]
    if not isinstance(base, dict):
        raise ConfigInvalid("config sweep 'base' must be a JSON object")
    check_profile_contract(tag, {**base, "alpha": None})  # each row supplies alpha
    rows = []
    failures = 0
    skipped = 0
    fam = default_family(HARNESS_SPEC)
    corpora = protocol_corpora(cfg.seed, "power-weights", n_eval=count)
    for alpha in alphas:
        profile = make_profile(tag, **{**base, "alpha": alpha})
        for beta in betas if betas else [None]:
            cal_items, items = corpora
            ap_val = ""
            if beta is not None:
                w = _grid_fn(HARNESS_SPEC, [("power", 2.0, float(beta))])
                cal_items, items = ([replace(it, w1=w, w2=w) for it in c] for c in corpora)
                ap_val = _fmt(ap_constant(w, 2.0, fam).value)
            reports, result = verify_calibrated(profile, cal_items, items, fam)
            failures += result["failures"]
            skipped += result["skipped"]
            rows.append(
                {
                    "id": f"{tag}-a{alpha:g}" + (f"-b{beta:g}" if beta is not None else ""),
                    "alpha": alpha,
                    "beta": beta if beta is not None else "",
                    "max_ratio": result["max_ratio"],
                    "bound": result["bound"],
                    "ap_constant": ap_val,
                    "items": [
                        {
                            "id": r.scenario,
                            "ratio": r.ratio if math.isfinite(r.ratio) else None,
                            "pass": r.passed,
                        }
                        for r in reports
                    ],
                }
            )
    _write_csv(
        cfg.out_csv,
        "id,alpha,beta,max_ratio,bound,ap_constant",
        (
            [
                row["id"],
                _fmt(float(row["alpha"])),
                _fmt(float(row["beta"])) if row["beta"] != "" else "",
                _fmt(row["max_ratio"]) if row["max_ratio"] is not None else "",
                _fmt(row["bound"]),
                str(row["ap_constant"]),
            ]
            for row in rows
        ),
    )
    if cfg.out_json:
        _emit_json(
            cfg.out_json, {"schema": 1, "rows": rows, "failures": failures, "skipped": skipped}
        )
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand, holding only the flags that its command reads."""
    ap = argparse.ArgumentParser(prog="bifrac", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, text):
        # no abbreviations: a removed flag such as `decompose --out` must not
        # resolve to a longer one that is still there
        return sub.add_parser(name, help=text, allow_abbrev=False)

    def config_flags(p):
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-csv", dest="out_csv")
        p.add_argument("--out-json", dest="out_json")

    p = add("decompose", "stopping-time cube decomposition")
    p.add_argument("--f", required=True, help="grid file for f")
    p.add_argument("--g", required=True, help="grid file for g")
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--root", help="root cube `corner... side`")
    p.add_argument("--out-json", dest="out_json", help="output JSON path (default stdout)")
    p.set_defaults(fn=cmd_decompose)

    p = add("apply", "apply an operator to grid files")
    p.add_argument("--op", required=True, choices=tuple(_APPLY))
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--output", required=True)
    # the defaults of these and of the flags below are in _APPLY, _CONSTANTS and _NORMS
    for key in ("--alpha", "--p", "--r1", "--r2"):
        p.add_argument(key, type=float)
    p.set_defaults(fn=cmd_apply)

    p = add("constants", "weight-class constants")
    p.add_argument("--weight", required=True)
    p.add_argument("--weight2")
    p.add_argument("--v")
    p.add_argument("--constant", nargs="+", required=True)
    for key in ("--p", "--q", "--p1", "--p2", "--q0", "--r0", "--epsilon"):
        p.add_argument(key, type=float)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out-csv", dest="out_csv")
    p.add_argument("--out-json", dest="out_json")
    p.set_defaults(fn=cmd_constants)

    p = add("norms", "Morrey norms of grid files")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--p0", type=float, required=True)
    for key in ("--q", "--p1", "--p2"):
        p.add_argument(key, type=float)
    p.add_argument("--out-json", dest="out_json")
    p.set_defaults(fn=cmd_norms)

    p = add("verify", "calibrated ratio verification")
    config_flags(p)
    p.add_argument("--tag", help=" ".join(TAGS) + " or structural")
    p.add_argument("--profile-file", dest="profile_file")
    p.add_argument("--kind", default=None, help="corpus kind (default random-steps)")
    p.add_argument("--n-cal", dest="n_cal", type=int, default=None, help="calibration items")
    p.add_argument("--n-eval", dest="n_eval", type=int, default=None, help="held-out items")
    p.set_defaults(fn=cmd_verify)

    p = add("sweep", "profile/parameter sweep with summary table")
    config_flags(p)
    p.set_defaults(fn=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BifracError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
