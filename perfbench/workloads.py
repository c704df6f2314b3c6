"""The benchmark's four workloads.

Each workload builds its inputs from the seed in `setup` (the timed
set-up a CLI user pays on every invocation), lists its ops, runs one op
in `run`, and checks an op's result in `check` against an oracle from
`oracles.py`.  Package functions are always looked up through their
module at call time, so the tracer's wrappers see every call.

Why these four: each layer that the planned rewrites in ROADMAP.md (an
exact pair-constant DP, one vectorised cube-statistics engine) would touch
does most of the work in one workload and little or none in another.
verify-1d leans on pair constants and Morrey norms, domination-1d on
the per-cube maximal sweeps, grid-2d on the 2D kernel, shifted cubes and
the stopping-time tree (and never builds pairs), constants-1d on the
nested-pair build past the pair cap.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import oracles as O

# Failure kinds that are known defects of the package at the commit this
# benchmark was written against.  They are counted as failed ops like any
# other failure; they are named so that any *other* failure marks the run
# as incorrect.
KNOWN_MORREY_NAN = "known:morrey-2d-sat-nan"
KNOWN_PAIR_CAP = "known:pair-cap-subsampled"
KNOWN_DEFECTS = (KNOWN_MORREY_NAN, KNOWN_PAIR_CAP)


def _seeds(rng, count):
    return [int(x) for x in rng.integers(0, 2**31, count)]


def _substituted(profile, with_a=False):
    r, s, p1, p2 = profile.r, profile.s, profile.p1, profile.p2
    a = profile.a if with_a else 1.0
    return s * p1 / (a * s + p1), r * p2 / (a * r + p2)


def _root_block(spec, cube):
    h = spec.h
    lo = tuple(round((c + spec.half_width) / h) for c in cube.corner)
    return lo, round(cube.side / h)


class Workload:
    """Shared plumbing: oracle memo, digest of inputs, result comparison."""

    name = ""

    def __init__(self, bifrac, seed: int):
        self.B = bifrac
        self.seed = seed
        self.infinite_skipped = 0
        # calibrated verdicts: a held-out ratio above 2 * max calibration
        # ratio is an outcome of the protocol, reported but not an op failure
        self.verdicts: dict = {}  # label -> [held-out ops judged, above bound]
        self._oracle: dict = {}
        self._index = None

    def oracle(self, idx):
        if idx not in self._oracle:
            self._oracle[idx] = self.compute_oracle(self.op_list[idx])
        return self._oracle[idx]

    def oracle_of(self, op):
        if self._index is None:
            self._index = {o: i for i, o in enumerate(self.op_list)}
        return self.oracle(self._index[op])

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.op_list).encode())
        for arr in self.input_arrays():
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def check(self, idx, runs):
        """None when every (result, error) run of op `idx` is right, else
        (failure kind, detail).  Repeated runs must agree bit for bit."""
        op = self.op_list[idx]
        (first, err), *rest = runs
        if err is not None:
            return "raised", f"{op}: {err}"
        for obs, err in rest:
            if err is not None or not _same(first, obs):
                return "nondeterministic", f"{op}: {obs!r} ({err}) != first run {first!r}"
        return self.compare(idx, op, first)

    def judged(self, label, passed: bool):
        tally = self.verdicts.setdefault(label, [0, 0])
        tally[0] += 1
        tally[1] += not passed

    def compare_verdict(self, op, obs, want):
        """Ratio, and for held-out ops bound and verdict, against the oracle's."""
        if not O.close(obs[1], want[1]):
            return _mismatch(op, obs[1], want[1])
        if len(obs) == 4:
            if not O.close(obs[2], want[2]) or obs[3] != want[3]:
                return "mismatch", f"{op}: verdict {obs[2:]!r}, oracle {want[2:]!r}"
            self.judged(op[-2 if op[0] == "eval" else -1], obs[3])
        return None


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, (tuple, list)):
        return (
            isinstance(b, (tuple, list))
            and len(a) == len(b)
            and all(_same(x, y) for x, y in zip(a, b))
        )
    return a == b


def _mismatch(op, got, want):
    nonfinite = isinstance(got, float) and not math.isfinite(got)
    kind = "nonfinite" if nonfinite and isinstance(want, float) and math.isfinite(want) else "mismatch"
    return kind, f"{op}: got {got!r}, oracle {want!r}"


# ---------------------------------------------------------------------------
# verify-1d
# ---------------------------------------------------------------------------


class Verify1D(Workload):
    """`bifrac verify`: calibrate then hold out, first catalog profile per tag.

    Op = one scenario verdict (calibration ratio or held-out ratio against
    the bound 2 * max calibration ratio) or one `verify_structural` call.
    """

    name = "verify-1d"
    N_CAL, N_EVAL, ROUNDS = 5, 15, 1
    STRUCTURAL_EVERY = 28

    def setup(self):
        B = self.B
        H = B.harness
        rng = np.random.default_rng(self.seed)
        self.spec = H.HARNESS_SPEC
        self.profiles = {tag: B.catalog_profiles(tag)[0] for tag in H.TAGS}
        self.family = B.default_family(self.spec)
        self.pairs = B.nested_pairs(self.family)
        for alpha in sorted({p.alpha for p in self.profiles.values()}):
            B.kernel_table(self.spec, alpha)
        self.items = {}
        ops = []
        for rnd in range(self.ROUNDS):
            cal_seed, eval_seed = _seeds(rng, 2)
            self.items["cal", rnd] = B.corpus(cal_seed, "random-steps", count=self.N_CAL)
            self.items["eval", rnd] = B.corpus(eval_seed, "random-steps", count=self.N_EVAL)
            for phase, count in (("cal", self.N_CAL), ("eval", self.N_EVAL)):
                ops += [(phase, rnd, tag, i) for i in range(count) for tag in H.TAGS]
        self.op_list = []
        struct_seeds = iter(_seeds(rng, len(ops) // self.STRUCTURAL_EVERY + 1))
        for k, op in enumerate(ops):
            if k % self.STRUCTURAL_EVERY == self.STRUCTURAL_EVERY // 2:
                self.op_list.append(("structural", next(struct_seeds)))
            self.op_list.append(op)
        self.cal_max = {}

    def input_arrays(self):
        for items in self.items.values():
            for it in items:
                yield from (it.f.samples, it.g.samples, it.w1.samples, it.w2.samples, it.v.samples, it.hfun.samples)

    def run(self, op):
        B = self.B
        if op[0] == "structural":
            reports = B.harness.verify_structural(op[1])
            return tuple((r.scenario, r.lhs, r.rhs, r.ratio, r.passed) for r in reports)
        phase, rnd, tag, i = op
        item = self.items[phase, rnd][i]
        lhs, rhs, const = B.harness.evaluate_inequality_item(
            self.profiles[tag], item, self.family, self.pairs
        )
        if not math.isfinite(const.value):
            # run_verify counts a scenario whose constant is infinite as skipped
            self.infinite_skipped += 1
            return ("skipped",)
        ratio = lhs / (const.value * rhs) if rhs > 0 and const.value > 0 else math.inf
        key = (rnd, tag)
        if phase == "cal":
            if i == 0:
                self.cal_max.pop(key, None)
            if math.isfinite(ratio):
                self.cal_max[key] = max(ratio, self.cal_max.get(key, 0.0))
            return ("cal", ratio)
        bound = 2.0 * self.cal_max[key]
        return ("eval", ratio, bound, ratio <= bound)

    # -- oracle -------------------------------------------------------------

    def scenario_ratio(self, tag, item) -> float:
        p = self.profiles[tag]
        h = self.spec.h
        f, g = item.f.samples, item.g.samples
        w1, w2, v, hf = item.w1.samples, item.w2.samples, item.v.samples, item.hfun.samples
        nu = w1 * w2
        out = O.bilinear_1d(f, g, O.kernel_masses_1d(len(f), h, p.alpha))
        const = 1.0
        if tag == "T1.1":
            s1, s2 = _substituted(p)
            lhs = O.morrey_1d(out * nu, p.q0, p.q, h)
            rhs = O.vector_morrey_1d(f * w1, g * w2, p.p0, p.p1, p.p2, h)
            const = O.pair_constant_1d(nu, w1, w2, p.a * p.q0, p.q, s1, s2, h)
        elif tag == "C1.4":
            s1, s2 = _substituted(p)
            lhs = O.lp_1d(out * nu, p.q, h)
            rhs = O.lp_1d(f * w1, p.p1, h) * O.lp_1d(g * w2, p.p2, h)
            const = O.multiple_apq_1d(w1, w2, s1, s2, p.q, h)
        elif tag in ("T4.1", "T4.2"):
            s1, s2 = _substituted(p, with_a=True)
            second = p.a * p.q if p.q > 1.0 else p.q
            lhs = O.morrey_1d(out * v, p.q0, p.q, h)
            rhs = O.vector_morrey_1d(f * w1, g * w2, p.p0, p.p1, p.p2, h)
            r0 = p.r0 if tag == "T4.2" else None
            const = O.pair_constant_1d(v, w1, w2, p.a * p.q0, second, s1, s2, h, r0)
        elif tag in ("T5.1", "T5.2"):
            lhs = O.morrey_1d(out * hf, p.q0, p.q, h)
            rhs = (
                O.morrey_1d(hf, p.r0, p.r1, h)
                * O.morrey_1d(f, p.q1, p.p1, h)
                * O.morrey_1d(g, p.q2, p.p2, h)
            )
        else:  # C5.3
            lhs = O.morrey_1d(out, p.q0, p.q, h)
            rhs = O.morrey_1d(f, p.q1, p.p1, h) * O.morrey_1d(g, p.q2, p.p2, h)
        return lhs / (const * rhs) if rhs > 0 and const > 0 else math.inf

    def compute_oracle(self, op):
        if op[0] == "structural":
            return self.structural_oracle(op[1])
        phase, rnd, tag, i = op
        ratio = self.scenario_ratio(tag, self.items[phase, rnd][i])
        if phase == "cal":
            return ("cal", ratio)
        cal = [self.oracle_of(("cal", rnd, tag, j))[1] for j in range(self.N_CAL)]
        bound = 2.0 * max(x for x in cal if math.isfinite(x))
        return ("eval", ratio, bound, ratio <= bound)

    def structural_oracle(self, seed):
        """Local-domination ratios of the items verify_structural builds."""
        B = self.B
        H = B.harness
        items = B.corpus(seed, "spikes", count=2) + B.corpus(seed, "random-steps", count=2)
        lo, w = _root_block(self.spec, H.HARNESS_Q0)
        return {
            f"local-domination-{it.item_id}": O.local_part_ratio_1d(
                it.f.samples, it.g.samples, H.STRUCTURAL_ALPHA, self.spec.h, lo[0], w
            )
            for it in items
        }

    def compare(self, idx, op, obs):
        want = self.oracle(idx)
        if op[0] == "structural":
            return self.compare_structural(op, obs, want)
        if obs[0] == "skipped":
            return "mismatch", f"{op}: skipped for an infinite constant, oracle {want!r}"
        return self.compare_verdict(op, obs, want)

    def compare_structural(self, op, reports, local_ratios):
        if len(reports) != 1 + 3 * len(local_ratios):
            return "mismatch", f"{op}: {len(reports)} reports"
        for name, lhs, rhs, ratio, passed in reports:
            if name.startswith("local-domination"):
                # calibrated: the value must match, the verdict is an outcome
                want = local_ratios.get(name)
                if want is None or not O.close(lhs, want):
                    return _mismatch(op, lhs, want)
                if passed != (lhs <= 2.0 * rhs):
                    return "mismatch", f"{op}: report {name} verdict {passed} for lhs={lhs!r}, C={rhs!r}"
                self.judged("local-domination", passed)
                continue
            if name.startswith("one-third"):
                ok = lhs <= 6.0 * (1 + 1e-9)
            elif name.startswith("stopping-time"):
                ok = lhs == 0.0
            else:  # power-scaling
                ok = abs(lhs - rhs) <= 1e-12 * abs(rhs)
            if not (ok and passed):
                return "mismatch", f"{op}: exact check {name} failed (lhs={lhs!r}, rhs={rhs!r})"
        return None


# ---------------------------------------------------------------------------
# domination-1d
# ---------------------------------------------------------------------------


class Domination1D(Workload):
    """The pointwise-domination protocol (acceptance test c07) at N = 64.

    Op = one `local_part_ratio` or one `domination_ratio` call in one of
    the four modes; calibration items fix 2 * max ratio per check, and
    held-out items are judged against it.
    """

    name = "domination-1d"
    CHECKS = ("local-sum", "weighted", "small-exponent", "two-weight", "two-weight-decay")
    N_CAL, N_HOLD = 2, 4

    def setup(self):
        B = self.B
        H = B.harness
        rng = np.random.default_rng(self.seed)
        self.spec = H.HARNESS_SPEC
        self.prof11 = B.catalog_profiles("T1.1")[0]
        self.prof42 = B.catalog_profiles("T4.2")[0]
        self.family = B.default_family(self.spec)
        self.pairs = B.nested_pairs(self.family)
        B.kernel_table(self.spec, H.STRUCTURAL_ALPHA)
        self.items = {}
        for phase, count in (("cal", self.N_CAL), ("hold", self.N_HOLD)):
            # kinds alternate by position, so every seed has the same mix
            self.items[phase] = [
                B.corpus(s, ("spikes", "random-steps")[j % 2], count=1)[0]
                for j, s in enumerate(_seeds(rng, count))
            ]
        self.op_list = [
            (phase, i, check)
            for phase, count in (("cal", self.N_CAL), ("hold", self.N_HOLD))
            for i in range(count)
            for check in self.CHECKS
        ]
        self.cal_max = {}

    def input_arrays(self):
        for items in self.items.values():
            for it in items:
                yield from (it.f.samples, it.g.samples, it.w1.samples, it.w2.samples, it.v.samples)

    def profile_for(self, check):
        return self.prof11 if check in ("weighted", "small-exponent") else self.prof42

    def run(self, op):
        H = self.B.harness
        phase, i, check = op
        item = self.items[phase][i]
        if check == "local-sum":
            ratio = H.local_part_ratio(item)
        else:
            ratio = H.domination_ratio(self.profile_for(check), item, check, self.family, self.pairs)
        if phase == "cal":
            if i == 0:
                self.cal_max.pop(check, None)
            self.cal_max[check] = max(ratio, self.cal_max.get(check, 0.0))
            return ("cal", ratio)
        bound = 2.0 * self.cal_max[check]
        return ("hold", ratio, bound, ratio <= bound)

    def check_ratio(self, item, check) -> float:
        H = self.B.harness
        h = self.spec.h
        f, g = item.f.samples, item.g.samples
        w1, w2, v = item.w1.samples, item.w2.samples, item.v.samples
        if check == "local-sum":
            lo, w = _root_block(self.spec, H.HARNESS_Q0)
            return O.local_part_ratio_1d(f, g, H.STRUCTURAL_ALPHA, h, lo[0], w)
        p = self.profile_for(check)
        a, r, s, alpha = p.a, p.r, p.s, p.alpha
        if check in ("weighted", "small-exponent"):
            q = p.q if check == "weighted" else H.SMALL_EXPONENT_Q
            qexp = a * p.q if check == "weighted" else H.SMALL_EXPONENT_Q
            s1, s2 = _substituted(p)
            lhs = O.weighted_bilinear_maximal_1d(f, g, w1 * w2, alpha, r, s, qexp, h)
            const = O.pair_constant_1d(w1 * w2, w1, w2, a * p.q0, q, s1, s2, h)
            rhs_alpha = alpha
        else:
            qexp = a * p.q if p.q > 1.0 else p.q
            s1, s2 = _substituted(p, with_a=True)
            lhs = O.weighted_bilinear_maximal_1d(f, g, v, alpha, r, s, qexp, h)
            decay = check == "two-weight-decay"
            const = O.pair_constant_1d(
                v, w1, w2, a * p.q0, qexp, s1, s2, h, p.r0 if decay else None
            )
            rhs_alpha = alpha - p.n / p.r0 if decay else alpha
        rhs = O.multi_maximal_1d(f * w1, g * w2, rhs_alpha, p.p1 / a, p.p2 / a, h)
        return O.pointwise_ratio(lhs, rhs * const)

    def compute_oracle(self, op):
        phase, i, check = op
        ratio = self.check_ratio(self.items[phase][i], check)
        if phase == "cal":
            return ("cal", ratio)
        cal = [self.oracle_of(("cal", j, check))[1] for j in range(self.N_CAL)]
        bound = 2.0 * max(cal)
        return ("hold", ratio, bound, ratio <= bound)

    def compare(self, idx, op, obs):
        return self.compare_verdict(op, obs, self.oracle(idx))


# ---------------------------------------------------------------------------
# grid-2d
# ---------------------------------------------------------------------------


class Grid2D(Workload):
    """One-shot 2D requests on the harness's 2D spec, GridSpec(2, 2.0, 32).

    Op = one of bi_frac (two kernel exponents per input), maximal,
    cz_decompose, ap_constant p=2, ap_constant p=1, morrey_norm.  Seven
    kinds with equal weight keep the median inside one kind's latencies.
    """

    name = "grid-2d"
    N_INPUTS = 8
    ALPHAS = (0.5, 1.0, 1.5)
    MORREY = ((4.0, 2.0), (3.0, 1.5), (6.0, 3.0))
    KINDS = ("bi_frac_a", "bi_frac_b", "maximal", "cz_decompose", "ap2", "ap1", "morrey")
    SAMPLE_CELLS = 12

    def setup(self):
        B = self.B
        H = B.harness
        rng = np.random.default_rng(self.seed)
        self.spec = H.HARNESS_SPEC_2D
        self.family = B.default_family(self.spec)
        for alpha in self.ALPHAS:
            B.kernel_table(self.spec, alpha)
        half = self.N_INPUTS // 2
        seed_a, seed_b = _seeds(rng, 2)
        steps = B.corpus(seed_a, "random-steps", spec=self.spec, count=half)
        spikes = B.corpus(seed_b, "spikes", spec=self.spec, count=half)
        # alternate kinds, so every prefix of the op list (a trace pass) has both
        self.items = [it for pair in zip(steps, spikes) for it in pair]
        n = self.spec.cells_per_axis
        self.weights = []
        for _ in range(self.N_INPUTS):
            w = 0.4 + 0.1 * rng.random((n, n))
            for _ in range(3):
                i0, j0 = rng.integers(0, n - 4, 2)
                di, dj = rng.integers(2, n // 2, 2)
                w[i0 : i0 + di, j0 : j0 + dj] += rng.uniform(0.0, 1.5)
            self.weights.append(B.GridFunction(self.spec, w, nonnegative=True))
        self.cells = [
            [tuple(int(c) for c in rng.integers(0, n, 2)) for _ in range(self.SAMPLE_CELLS)]
            for _ in range(self.N_INPUTS)
        ]
        self.op_list = [(kind, k) for k in range(self.N_INPUTS) for kind in self.KINDS]
        self._cover = None

    def input_arrays(self):
        for it, w in zip(self.items, self.weights):
            yield from (it.f.samples, it.g.samples, w.samples)
        yield np.array(self.cells)

    def alpha(self, kind, k):
        return self.ALPHAS[(k + (kind == "bi_frac_b")) % len(self.ALPHAS)]

    def run(self, op):
        B = self.B
        H = B.harness
        kind, k = op
        item = self.items[k]
        if kind.startswith("bi_frac"):
            return B.operators.bi_frac(item.f, item.g, self.alpha(kind, k)).samples
        if kind == "maximal":
            return B.operators.maximal(item.f, self.family).samples
        if kind == "cz_decompose":
            sf = B.sparse.cz_decompose(item.f, item.g, 2.0, 2.0, H.HARNESS_Q0_2D, H.HARNESS_GRID_2D)
            levels = tuple(
                (lvl, tuple((_root_block(self.spec, sc.cube), sc.m_value, sc.e_count) for sc in scs))
                for lvl, scs in sorted(sf.levels.items())
            )
            return (levels, len(sf.e0_cells))
        if kind in ("ap2", "ap1"):
            return B.weights.ap_constant(self.weights[k], 2.0 if kind == "ap2" else 1.0, self.family).value
        p0, q = self.MORREY[k % len(self.MORREY)]
        return B.morrey.morrey_norm(item.f, B.MorreyParams(p0, q), self.family)

    @property
    def cover(self):
        if self._cover is None:
            self._cover = O.CubeCover2D(self.spec.half_width, self.spec.cells_per_axis, self.family.cubes)
        return self._cover

    def compute_oracle(self, op):
        B = self.B
        H = B.harness
        kind, k = op
        f, g = self.items[k].f.samples, self.items[k].g.samples
        if kind.startswith("bi_frac"):
            alpha = self.alpha(kind, k)
            table = B.operators.kernel_table(self.spec, alpha).weights
            # the sampled sums read the package's kernel table, so the table is
            # checked too: symmetric, positive, and of the right total mass
            mass = O.kernel_total_2d(self.spec.cells_per_axis, self.spec.h, alpha)
            kernel_ok = (
                bool(np.all(table > 0) and np.array_equal(table, table.T))
                and np.array_equal(table, table[::-1, ::-1])
                and O.close(math.fsum(table.ravel()), mass)
            )
            return kernel_ok, [O.bilinear_2d_at(f, g, table, c) for c in self.cells[k]]
        if kind == "maximal":
            return O.maximal_2d(self.cover, f)
        if kind == "cz_decompose":
            lo, w = _root_block(self.spec, H.HARNESS_Q0_2D)
            return O.stopping_time(f, g, 2.0, 2.0, self.spec.h, lo, w, 2.0 ** (2 * 2 + 1))
        if kind in ("ap2", "ap1"):
            return O.ap_2d(self.cover, self.weights[k].samples, 2.0 if kind == "ap2" else 1.0)
        p0, q = self.MORREY[k % len(self.MORREY)]
        return O.morrey_2d(self.cover, f, p0, q)

    def compare(self, idx, op, obs):
        want = self.oracle(idx)
        kind, k = op
        if kind.startswith("bi_frac"):
            kernel_ok, cells = want
            if not kernel_ok:
                return "mismatch", f"{op}: kernel table not symmetric, positive and of the quadrature's total mass"
            got = [float(obs[c]) for c in self.cells[k]]
            if not np.all(np.isfinite(obs)) or not all(O.close(a, b, 1e-10) for a, b in zip(got, cells)):
                return "mismatch", f"{op}: sampled cells {got!r}, oracle {cells!r}"
            return None
        if kind == "maximal":
            err = np.max(np.abs(obs - want) / np.maximum(np.abs(want), 1e-300))
            return None if err <= 1e-9 else ("mismatch", f"{op}: max relative error {err:.3g}")
        if kind == "cz_decompose":
            return self.compare_cz(op, obs, want)
        if O.close(obs, want):
            return None
        if kind == "morrey" and math.isnan(obs) and math.isfinite(want) and self.sat_goes_negative(k):
            return KNOWN_MORREY_NAN, f"{op}: NaN, oracle {want!r}; a summed-area difference is negative"
        return _mismatch(op, obs, want)

    def compare_cz(self, op, obs, want):
        levels, e0 = obs
        if want["near_tie"]:
            return None  # an m value sits on a threshold; either selection is right
        got = {lvl: sorted(b for b, _, _ in scs) for lvl, scs in levels}
        if got != want["levels"]:
            return "mismatch", f"{op}: selected blocks differ from the stopping-time oracle"
        for lvl, scs in levels:
            order = sorted(range(len(scs)), key=lambda j: scs[j][0])
            if [scs[j][2] for j in order] != want["e_counts"][lvl]:
                return "mismatch", f"{op}: difference sets differ at level {lvl}"
            for b, m, _ in scs:
                if not O.close(m, want["m"][b]):
                    return _mismatch(op, m, want["m"][b])
        if e0 != want["e0"]:
            return "mismatch", f"{op}: |E_0| {e0} != {want['e0']}"
        return None

    def sat_goes_negative(self, k) -> bool:
        """The NaN mechanism: a summed-area-table cube difference dips below 0."""
        p0, q = self.MORREY[k % len(self.MORREY)]
        pw = np.abs(self.items[k].f.samples) ** q
        sat = np.zeros((pw.shape[0] + 1,) * 2)
        sat[1:, 1:] = np.cumsum(np.cumsum(pw, axis=0), axis=1)
        fam = self.family
        ali = fam.aligned
        a0, a1 = fam.lo[ali, 0], fam.lo[ali, 1]
        b0, b1 = fam.hi[ali, 0], fam.hi[ali, 1]
        diff = sat[b0, b1] - sat[a0, b1] - sat[b0, a1] + sat[a0, a1]
        return bool(np.any(diff < 0.0))


# ---------------------------------------------------------------------------
# constants-1d
# ---------------------------------------------------------------------------


class Constants1D(Workload):
    """`bifrac constants` at N = 128 with the CLI's default exponents.

    Op = one of the seven constants on one seeded weight vector.  N = 128
    is past the default pair cap, so this is the workload where the pair
    family is not exact.
    """

    name = "constants-1d"
    N_VECTORS = 8
    CONSTANTS = ("iida", "two-weight", "multiple-apq", "ap2", "ap1", "apq", "reverse-holder")
    # CLI defaults of `bifrac constants`
    P, Q, P1, P2, Q0, EPS = 2.0, 3.0, 2.0, 2.0, 4.0, 0.5

    def setup(self):
        B = self.B
        rng = np.random.default_rng(self.seed)
        self.spec = B.GridSpec(1, 4.0, 128)
        self.family = B.default_family(self.spec)
        self.pairs = B.nested_pairs(self.family)
        half = self.N_VECTORS // 2
        seed_a, seed_b = _seeds(rng, 2)
        steps = B.corpus(seed_a, "random-steps", spec=self.spec, count=half)
        # power-weights item 0 always has unit weights, so it is skipped
        powers = B.corpus(seed_b, "power-weights", spec=self.spec, count=half + 1)[1:]
        self.items = [it for pair in zip(steps, powers) for it in pair]
        self.op_list = [(c, k) for k in range(self.N_VECTORS) for c in self.CONSTANTS]

    def input_arrays(self):
        for it in self.items:
            yield from (it.w1.samples, it.w2.samples, it.v.samples)

    def run(self, op):
        B = self.B
        W = B.weights
        name, k = op
        it = self.items[k]
        if name == "iida":
            wv = W.WeightVector(it.w1, it.w2)
            return W.iida_constant(wv, self.Q0, self.Q, self.P1, self.P2, self.pairs).value
        if name == "two-weight":
            wv = W.WeightVector(it.w1, it.w2)
            return W.two_weight_constant(it.v, wv, self.Q0, self.Q, self.P1, self.P2, self.pairs).value
        if name == "multiple-apq":
            wv = W.WeightVector(it.w1, it.w2)
            return W.multiple_apq_constant(wv, self.P1, self.P2, self.Q, self.family).value
        if name in ("ap2", "ap1"):
            return W.ap_constant(it.w1, self.P if name == "ap2" else 1.0, self.family).value
        if name == "apq":
            return W.apq_constant(it.w1, self.P, self.Q, self.family).value
        return W.reverse_holder_probe(it.w1, self.EPS, self.family)

    def pair_tables(self, name, it):
        w1, w2 = it.w1.samples, it.w2.samples
        lead = w1 * w2 if name == "iida" else it.v.samples
        return O.pair_tables(lead, w1, w2, self.Q0, self.Q, self.P1, self.P2, self.spec.h)

    def compute_oracle(self, op):
        name, k = op
        it = self.items[k]
        h = self.spec.h
        w1, w2 = it.w1.samples, it.w2.samples
        if name in ("iida", "two-weight"):
            return O.nested_max(*self.pair_tables(name, it))
        if name == "multiple-apq":
            return O.multiple_apq_1d(w1, w2, self.P1, self.P2, self.Q, h)
        if name in ("ap2", "ap1"):
            return O.ap_1d(w1, self.P if name == "ap2" else 1.0, h)
        if name == "apq":
            return O.apq_1d(w1, self.P, self.Q, h)
        return O.reverse_holder_1d(w1, self.EPS, h)

    def compare(self, idx, op, obs):
        want = self.oracle(idx)
        if O.close(obs, want):
            return None
        name, k = op
        if name in ("iida", "two-weight") and obs < want:
            fam, pairs = self.family, self.pairs
            lo, hi = fam.lo[:, 0], fam.hi[:, 0]
            exists = O.nested_pair_count(hi - lo)
            on_kept = O.pair_constant_on_pairs(
                self.pair_tables(name, self.items[k]), lo, hi, pairs.inner, pairs.outer
            )
            if pairs.size < exists and O.close(obs, on_kept):
                return KNOWN_PAIR_CAP, (
                    f"{op}: {obs!r} < exact {want!r}; it is the maximum over the "
                    f"{pairs.size} of {exists} pairs the capped family keeps"
                )
        return _mismatch(op, obs, want)


WORKLOADS = {w.name: w for w in (Verify1D, Domination1D, Grid2D, Constants1D)}
