"""Command-line front end: decompose, apply, constants, norms, verify, sweep.

Configuration may come from a JSON document (--config); explicit flags
override config fields.  Exit codes: 0 success, 1 verification failures
present, 2 configuration or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .errors import BifracError, ConfigInvalid, InputUnreadable
from .families import default_family, nested_pairs
from .geometry import Cube, DyadicGrid
from .harness import (
    HARNESS_Q0,
    HARNESS_SPEC,
    PROFILE_CATALOG,
    SKIPPED_NOTE,
    Report,
    corpus,
    make_profile,
    run_verify,
    verify_structural,
)
from .lattice import GridSpec, read_grid_file, write_grid_file
from .morrey import MorreyParams, morrey_norm_witness
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

CSV_HEADER = "id,lhs,rhs,constant,ratio,bound,pass"


@dataclass
class RunConfig:
    """Validated run configuration; built from config JSON plus flag overrides."""

    subcommand: str
    grid: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    profile: dict = field(default_factory=dict)
    seed: int = 7
    kind: str = "random-steps"
    family_caps: dict = field(default_factory=dict)
    out_csv: str | None = None
    out_json: str | None = None
    format: str = "json"
    sweep: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def spec(self) -> GridSpec:
        g = self.grid
        try:
            return GridSpec(
                int(g.get("n", 1)), float(g.get("L", 4.0)), int(g.get("N", 64))
            )
        except ValueError as exc:
            raise ConfigInvalid(f"bad grid spec: {exc}") from exc


def _require_harness_grid(cfg: RunConfig) -> None:
    """verify and sweep run on the harness grid; a config naming another grid is refused."""
    spec = cfg.spec()
    if spec != HARNESS_SPEC:
        raise ConfigInvalid(f"{cfg.subcommand} runs on the harness grid {HARNESS_SPEC}, not on {spec}")


def _fmt(x) -> str:
    if isinstance(x, (float, int)) or hasattr(x, "dtype"):
        x = float(x)
        if math.isnan(x):
            return "nan"
        return repr(x)
    return str(x)


def _write_reports_csv(path, reports: list[Report]) -> None:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            ",".join(
                [
                    r.scenario,
                    _fmt(r.lhs),
                    _fmt(r.rhs),
                    _fmt(r.constant),
                    _fmt(r.ratio),
                    _fmt(r.bound),
                    "true" if r.passed else "false",
                ]
            )
        )
    text = "\n".join(lines) + "\n"
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
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(args) -> RunConfig:
    base: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputUnreadable(f"config {args.config}: {exc}") from exc
        if not isinstance(base, dict):
            raise ConfigInvalid("config document must be a JSON object")
    cfg = RunConfig(subcommand=args.command)
    for key in ("grid", "profile", "family_caps", "sweep", "inputs"):
        if key in base:
            setattr(cfg, key, dict(base[key]))
    unknown_caps = sorted(set(cfg.family_caps) - {"cubes"})
    if unknown_caps:
        raise ConfigInvalid(f"unknown family_caps keys {unknown_caps}; only 'cubes' is a cap")
    for key in ("seed", "kind", "out_csv", "out_json", "format"):
        if key in base:
            setattr(cfg, key, base[key])
    # flags override config fields
    for key in ("seed", "kind", "format"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "out_csv", None):
        cfg.out_csv = args.out_csv
    if getattr(args, "out_json", None):
        cfg.out_json = args.out_json
    for dim_flag, name in (("n", "n"), ("L", "L"), ("N", "N")):
        val = getattr(args, dim_flag, None)
        if val is not None:
            cfg.grid[name] = val
    return cfg


def _read_inputs(paths) -> list:
    fns = []
    for p in paths:
        if not p or not os.path.exists(p):
            raise InputUnreadable(f"input file {p!r} not found")
        fns.append(read_grid_file(p))
    return fns


def _parse_cube(text: str, dim: int) -> Cube:
    vals = [float(t) for t in text.split()]
    if len(vals) != dim + 1:
        raise ConfigInvalid(f"cube needs {dim + 1} numbers `corner... side`")
    return Cube(tuple(vals[:-1]), vals[-1])


def cmd_decompose(args) -> int:
    cfg = _load_config(args)
    f, g = _read_inputs([args.f, args.g])
    spec = f.spec
    if args.root:
        q0 = _parse_cube(args.root, spec.dim)
    elif spec == HARNESS_SPEC:
        q0 = HARNESS_Q0
    else:
        half = spec.half_width
        q0 = Cube((0.0,) * spec.dim, half)
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
    _emit_json(cfg.out_json or args.out, payload)
    return 0


_APPLY_OPS = ("bi-frac", "frac-int", "multi-frac-int", "maximal", "frac-maximal", "p-maximal", "multi-maximal")


def cmd_apply(args) -> int:
    inputs = _read_inputs(args.input)
    op = args.op
    if op == "bi-frac":
        out = bi_frac(inputs[0], inputs[1], args.alpha)
    elif op == "frac-int":
        out = frac_int(inputs[0], args.alpha)
    elif op == "multi-frac-int":
        out = multi_frac_int(inputs[0], inputs[1], args.alpha)
    elif op == "maximal":
        out = maximal(inputs[0])
    elif op == "frac-maximal":
        out = frac_maximal(inputs[0], args.alpha)
    elif op == "p-maximal":
        out = p_maximal(inputs[0], args.p)
    elif op == "multi-maximal":
        out = multi_maximal(inputs[0], inputs[1], args.alpha, args.r1, args.r2)
    else:
        raise ConfigInvalid(f"op must be one of {_APPLY_OPS}")
    write_grid_file(args.output, out)
    return 0


def _witness_fields(witness) -> str:
    if isinstance(witness, tuple):
        return " | ".join(c.serialize() for c in witness)
    return witness.serialize()


def cmd_constants(args) -> int:
    cfg = _load_config(args)
    w1 = _read_inputs([args.weight])[0]
    spec = w1.spec
    family = default_family(spec, cap=int(cfg.family_caps.get("cubes", 4096)))
    pairs = nested_pairs(family)
    w2 = _read_inputs([args.weight2])[0] if args.weight2 else None
    v = _read_inputs([args.v])[0] if args.v else None
    results = []
    for name in args.constant:
        if name == "ap":
            rep = ap_constant(w1, args.p, family)
        elif name == "apq":
            rep = apq_constant(w1, args.p, args.q, family)
        elif name == "multiple-apq":
            rep = multiple_apq_constant(WeightVector(w1, w2), args.p1, args.p2, args.q, family)
        elif name == "iida":
            rep = iida_constant(WeightVector(w1, w2), args.q0, args.q, args.p1, args.p2, pairs)
        elif name == "two-weight":
            rep = two_weight_constant(
                v, WeightVector(w1, w2), args.q0, args.q, args.p1, args.p2, pairs, r0=args.r0
            )
        elif name == "reverse-holder":
            val = reverse_holder_probe(w1, args.epsilon, family)
            results.append({"constant": name, "value": val, "witness": "", "family_size": family.size})
            continue
        else:
            raise ConfigInvalid(f"unknown constant {name!r}")
        results.append(
            {
                "constant": name,
                "value": rep.value,
                "witness": _witness_fields(rep.witness),
                "family_size": rep.family_size,
            }
        )
    if cfg.format == "csv":
        lines = ["constant,value,witness,family_size"]
        for row in results:
            lines.append(
                ",".join(
                    [row["constant"], _fmt(row["value"]), f"\"{row['witness']}\"", str(row["family_size"])]
                )
            )
        text = "\n".join(lines) + "\n"
        if cfg.out_csv:
            with open(cfg.out_csv, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        _emit_json(cfg.out_json, {"schema": 1, "constants": results})
    return 0


def cmd_norms(args) -> int:
    cfg = _load_config(args)
    fns = _read_inputs(args.input)
    family = default_family(fns[0].spec, cap=int(cfg.family_caps.get("cubes", 4096)))
    if len(fns) == 1:
        value, witness = morrey_norm_witness(
            fns[0], MorreyParams(args.p0, args.q), family
        )
        payload = {"schema": 1, "value": value, "witness": witness.serialize()}
    else:
        from .morrey import vector_morrey_norm

        value = vector_morrey_norm(fns[0], fns[1], args.p0, args.p1, args.p2, family)
        payload = {"schema": 1, "value": value, "witness": ""}
    _emit_json(cfg.out_json, payload)
    return 0


def _profile_from_cfg(cfg: RunConfig, args) -> dict:
    raw = dict(cfg.profile)
    if getattr(args, "profile_file", None):
        try:
            with open(args.profile_file, "r", encoding="utf-8") as fh:
                raw.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise InputUnreadable(f"profile {args.profile_file}: {exc}") from exc
    if getattr(args, "tag", None):
        raw["tag"] = args.tag
    if not raw.get("tag"):
        raise ConfigInvalid("verify needs a profile tag")
    tag = raw.pop("tag")
    if not raw and tag != "structural":
        raw = dict(PROFILE_CATALOG[tag][0])
    raw["tag"] = tag
    return raw


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    _require_harness_grid(cfg)
    raw = _profile_from_cfg(cfg, args)
    tag = raw.pop("tag")
    if tag == "structural":
        reports = verify_structural(cfg.seed)
        summary = {
            "schema": 1,
            "tag": "structural",
            "seed": cfg.seed,
            "max_ratio": max(r.ratio for r in reports),
            "failures": sum(0 if r.passed else 1 for r in reports),
        }
    else:
        profile = make_profile(tag, **raw)
        reports, summary = run_verify(
            profile, cfg.kind, cfg.seed, n_cal=args.n_cal, n_eval=args.n_eval
        )
    _write_reports_csv(cfg.out_csv, reports)
    if cfg.out_json:
        _emit_json(cfg.out_json, summary)
    return 0 if summary["failures"] == 0 else 1


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    _require_harness_grid(cfg)
    sweep = dict(cfg.sweep)
    alphas = sweep.get("alphas", [])
    betas = sweep.get("betas", [])
    tag = sweep.get("tag", "T1.1")
    base = dict(sweep.get("base", PROFILE_CATALOG[tag][0]))
    count = int(sweep.get("count", 3))
    rows = []
    failures = 0
    skipped = 0
    fam = default_family(HARNESS_SPEC)
    prs = nested_pairs(fam)
    for alpha in alphas:
        raw = dict(base)
        raw["alpha"] = alpha
        profile = make_profile(tag, **raw)
        for beta in betas if betas else [None]:
            items = corpus(cfg.seed, "power-weights", count=count)
            if beta is not None:
                from .harness import _grid_fn  # deterministic power weight rebuild

                pieces = [("power", 2.0, float(beta))]
                w = _grid_fn(HARNESS_SPEC, pieces)
                items = [
                    type(it)(
                        item_id=it.item_id,
                        kind=it.kind,
                        spec=it.spec,
                        descriptors=it.descriptors,
                        f=it.f,
                        g=it.g,
                        w1=w,
                        w2=w,
                        v=it.v,
                        hfun=it.hfun,
                    )
                    for it in items
                ]
            from .harness import verify_inequality, calibrate_inequality

            c_cal = calibrate_inequality(profile, "power-weights", cfg.seed, fam, prs)
            reports = verify_inequality(profile, items, fam, prs, 2.0 * c_cal)
            max_ratio = max((r.ratio for r in reports if math.isfinite(r.ratio)), default=None)
            ap_val = ""
            if beta is not None:
                ap_val = _fmt(ap_constant(items[0].w1, 2.0, fam).value)
            failures += sum(0 if r.passed else 1 for r in reports)
            skipped += sum(r.note == SKIPPED_NOTE for r in reports)
            rows.append(
                {
                    "id": f"{tag}-a{alpha:g}" + (f"-b{beta:g}" if beta is not None else ""),
                    "alpha": alpha,
                    "beta": beta if beta is not None else "",
                    "max_ratio": max_ratio,
                    "bound": 2.0 * c_cal,
                    "ap_constant": ap_val,
                    "items": [
                        {"id": r.scenario, "ratio": r.ratio, "pass": r.passed}
                        for r in reports
                    ],
                }
            )
    lines = ["id,alpha,beta,max_ratio,bound,ap_constant"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    row["id"],
                    _fmt(float(row["alpha"])),
                    _fmt(float(row["beta"])) if row["beta"] != "" else "",
                    _fmt(row["max_ratio"]) if row["max_ratio"] is not None else "",
                    _fmt(row["bound"]),
                    str(row["ap_constant"]),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if cfg.out_csv:
        with open(cfg.out_csv, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if cfg.out_json:
        _emit_json(
            cfg.out_json, {"schema": 1, "rows": rows, "failures": failures, "skipped": skipped}
        )
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bifrac", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-csv", dest="out_csv")
        p.add_argument("--out-json", dest="out_json")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("decompose", help="stopping-time cube decomposition")
    common(p)
    p.add_argument("--f", required=True, help="grid file for f")
    p.add_argument("--g", required=True, help="grid file for g")
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--root", help="root cube `corner... side`")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("apply", help="apply an operator to grid files")
    common(p)
    p.add_argument("--op", required=True, choices=_APPLY_OPS)
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--r2", type=float, default=1.0)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("constants", help="weight-class constants")
    common(p)
    p.add_argument("--weight", required=True)
    p.add_argument("--weight2")
    p.add_argument("--v")
    p.add_argument("--constant", nargs="+", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=3.0)
    p.add_argument("--p1", type=float, default=2.0)
    p.add_argument("--p2", type=float, default=2.0)
    p.add_argument("--q0", type=float, default=4.0)
    p.add_argument("--r0", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("norms", help="Morrey norms of grid files")
    common(p)
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--p0", type=float, required=True)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--p1", type=float, default=2.0)
    p.add_argument("--p2", type=float, default=2.0)
    p.set_defaults(fn=cmd_norms)

    p = sub.add_parser("verify", help="calibrated ratio verification")
    common(p)
    p.add_argument("--tag", help="T1.1 C1.4 T4.1 T4.2 T5.1 T5.2 C5.3 or structural")
    p.add_argument("--profile-file", dest="profile_file")
    p.add_argument("--kind", default=None)
    p.add_argument("--n-cal", dest="n_cal", type=int, default=10)
    p.add_argument("--n-eval", dest="n_eval", type=int, default=30)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="profile/parameter sweep with summary table")
    common(p)
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
