"""The benchmark's three workloads, each a closed loop of calls into narrowlab.

A workload object is built from the seed (that is the set-up: seeded inputs
only) and then runs whole passes.  Every call into the package goes through
``Tracer.call``; every output is checked against ``reference`` or against a
property the method must have, outside the timed calls and right after the
call it checks.  Reference values are computed once per run and reused by
later passes.
"""

import hashlib
import math
import os
from fractions import Fraction

import numpy as np

from narrowlab import aplab, conditions, cutoff, linforms, majorant, numtheory, singular

import reference as ref


class Checker:
    """Collects failed checks.

    A failed check is charged to the timed call made last, which is the call
    whose output it checks (or, for a check over several calls, the last of
    them); ``failed_calls`` holds each such call once.  The one known fault
    is counted apart.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.failures = []
        self.failed_calls = set()
        self.known_faults = 0

    def check(self, ok, detail):
        if not ok:
            self.failures.append(detail)
            self.failed_calls.add(self.tracer.calls)

    def close(self, got, want, rel, detail):
        self.check(math.isclose(got, want, rel_tol=rel), f"{detail}: {got!r} vs {want!r}")

    def known_fault(self, ok):
        if not ok:
            self.known_faults += 1


class Workload:
    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._refs = {}

    def ref(self, key, compute):
        """Reference value `key`, computed on first use and kept for later passes."""
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]


def _forms(system):
    return [(f.coeffs, f.constant) for f in system.forms]


def _digest(arr):
    return hashlib.blake2b(memoryview(np.ascontiguousarray(arr))).hexdigest()


# ------------------------------------------------------------ sieve-ladder

LADDER = (10 ** 5 + 3, 10 ** 6 + 3, 10 ** 7 + 19)
W_SMALL, B_RESIDUE = 3, 1
SIEVE_TOP = 6 * LADDER[-1] + B_RESIDUE          # W N' + b at the top rung, W = 6
R_EXPONENT = 0.45
PAIR_SHIFTS = (2, 6, 30)
NARROW_LADDER = (10 ** 5, 10 ** 6, 10 ** 7)
GALLAGHER_BOX = ((1, 500), (1, 500))
GALLAGHER_W = (2, 3, 5, 7)


class SieveLadder(Workload):
    """The paper's sieve half at the north-star scale."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.spf_sample = rng.integers(2, SIEVE_TOP + 1, size=4000)
        self.nu_sample = {N: rng.integers(0, N, size=40) for N in LADDER}
        self.sieve_path = os.path.join(workdir, "sieve.napsv")
        self.table_path = os.path.join(workdir, "majorant.napmv")
        self.rule = aplab.SubsetRule(modulus=8, classes=(1, 3))

    def run_pass(self, tr, ck):
        with tr.stage("sieve"):
            sieve = tr.call("numtheory.build_factor_sieve", numtheory.build_factor_sieve,
                            SIEVE_TOP, work=SIEVE_TOP + 1)
            digest = _digest(sieve.spf)
            tr.call("numtheory.save_sieve", numtheory.save_sieve, sieve, self.sieve_path)
            size = os.path.getsize(self.sieve_path)
            tr.counters["numtheory.sieve_file_mb"] = size / 2 ** 20
            ck.check(size == 14 + 4 * (SIEVE_TOP + 1), f"sieve file has {size} bytes")
            del sieve
            sieve = tr.call("numtheory.load_sieve", numtheory.load_sieve, self.sieve_path,
                            peak=True)
            ck.check(sieve.limit == SIEVE_TOP and _digest(sieve.spf) == digest,
                     "reloaded sieve differs from the saved one")
            got = sieve.spf[self.spf_sample].astype(np.int64)
            want = self.ref("spf", lambda: ref.smallest_factors(self.spf_sample))
            ck.check(np.array_equal(got, want), "sampled spf entries differ from trial division")
            mask = tr.call("numtheory.prime_mask", sieve.prime_mask, peak=True)
            count = int(np.count_nonzero(mask))
            del mask
            ck.check(count == self.ref("pi", lambda: ref.prime_count(SIEVE_TOP)),
                     f"prime count {count}")

        chi = tr.call("cutoff.make_cutoff", cutoff.make_cutoff, "cosine")
        for N in LADDER:
            with tr.stage(f"rung {N}"):
                self._rung(tr, ck, sieve, chi, N)

        with tr.stage("counts"):
            self._counts(tr, ck, sieve)
        del sieve

        with tr.stage("sieve factors"):
            for m in (1, 2, 3):
                rep = tr.call("cutoff.sieve_factor", cutoff.sieve_factor_report, chi, m)
                ck.check(rep.imag_residual <= 1e-9 and rep.tail_estimate <= 1e-2,
                         f"m={m} residual {rep.imag_residual} tail {rep.tail_estimate}")
                if m == 1:   # c_1 = -chi'(0) = 0 for the cosine cutoff
                    ck.check(abs(rep.value) <= 2 * rep.tail_estimate, f"c_1 = {rep.value}")
                if m == 2:   # the normalisation of every cutoff
                    ck.check(abs(rep.value - 1.0) <= 1e-3, f"c_2 = {rep.value}")
                if m == 3:
                    ck.check(0.0 < rep.value < 1.0, f"c_3 = {rep.value}")

        with tr.stage("gallagher"):
            for w in GALLAGHER_W:
                W = math.prod(int(p) for p in ref.small_primes(w))
                rep = tr.call("singular.gallagher_average", singular.gallagher_average,
                              "GW", GALLAGHER_BOX, W=W)
                ck.check(rep.mode == "exact", f"w={w} mode {rep.mode}")
                ck.close(rep.mean, self.ref(("gallagher", W), lambda: _gallagher_mean(W)),
                         1e-9, f"w={w} Gallagher mean")

    def _rung(self, tr, ck, sieve, chi, N):
        ctx = tr.call("numtheory.primorial_context", numtheory.primorial_context,
                      W_SMALL, B_RESIDUE, N)
        R = float(ctx.W * N) ** R_EXPONENT
        table = tr.call("majorant.build_majorant", majorant.build_majorant, ctx, R, chi, sieve)
        idx = self.nu_sample[N]
        want = self.ref(("nu", N), lambda: np.array(
            [ref.majorant_value(int(n), ctx.W, ctx.b, R) for n in idx]))
        ck.check(np.allclose(table.values[idx], want, rtol=1e-9, atol=1e-12),
                 f"N'={N}: sampled majorant values differ from the divisor sums")
        low = tr.call("majorant.check_minorization", majorant.check_minorization, table, sieve)
        ck.check(low == 0, f"N'={N}: {low} values below the floor")
        for h in PAIR_SHIFTS:
            want_series = self.ref(("series", h), lambda: ref.progression_series([h], 2, W=ctx.W)[0])
            series = tr.call("singular.singular_series", singular.singular_series,
                             (0, h), W=ctx.W)
            ck.close(series.value, want_series, 1e-9, f"h={h} singular series")
            pair = tr.call("majorant.pair_correlation", majorant.majorant_pair_correlation,
                           table, h)
            own = float(np.dot(table.values[:-h], table.values[h:])
                        + np.dot(table.values[-h:], table.values[:h])) / N
            ck.close(pair.empirical, own, 1e-9, f"N'={N} h={h} pair average")
            ck.close(pair.predicted, want_series, 1e-9, f"h={h} pair prediction")
            if h == 6:   # the band the acceptance suite holds every rung to
                ck.check(0.5 <= pair.ratio <= 2.0, f"N'={N} h={h} pair ratio {pair.ratio}")
        tr.call("majorant.save_majorant", majorant.save_majorant, table, self.table_path)
        back = tr.call("majorant.load_majorant", majorant.load_majorant, self.table_path, chi)
        ck.check(back.context == table.context and back.R == table.R
                 and np.array_equal(back.values, table.values)
                 and np.array_equal(back.lambda_values, table.lambda_values),
                 f"N'={N}: reloaded majorant differs")

    def _counts(self, tr, ck, sieve):
        N, k, d = 10 ** 7, 3, 6
        count = tr.call("aplab.count_aps", aplab.count_aps_with_difference, N, k, d, sieve)
        want_count, want_min = self.ref("scans", self._scans)
        ck.check(count == want_count, f"AP count at 10^7: {count} vs {want_count}")
        pred = tr.call("aplab.hl_prediction", aplab.hl_prediction, N, k, d)
        want_pred = ref.progression_series([d], k)[0] * ref.log_integral(N, k)
        ck.close(pred.value, want_pred, 1e-7, "prediction at 10^7")
        ck.check(abs(count / pred.value - 1.0) <= 0.10, f"count/prediction {count / pred.value}")
        for label, rule, delta in (("all", None, 0.0), ("mod 8", self.rule, 0.4)):
            rep = tr.call("aplab.narrowness_report", aplab.narrowness_report,
                          NARROW_LADDER, 3, delta, rule, sieve)
            got = [row.min_d for row in rep.rows]
            ck.check(got == want_min[label], f"{label} min_d {got} vs {want_min[label]}")
            ck.check(all(1 <= row.min_d <= row.log_pow_high for row in rep.rows),
                     f"{label} min_d above (log N)^2")

    @staticmethod
    def _scans():
        """AP count at 10^7 and min_d per narrowness rung, by boolean scans."""
        cap = math.ceil(math.log(NARROW_LADDER[-1]) ** 2)
        flags = ref.prime_flags(0, NARROW_LADDER[-1] + 2 * cap + 1)
        count = ref.ap_count(flags, 10 ** 7, 3, 6)
        mod8 = flags & np.isin(np.arange(flags.size) % 8, (1, 3))
        mins = {}
        for label, f in (("all", flags), ("mod 8", mod8)):
            mins[label] = [next(d for d in range(1, cap + 1) if ref.ap_count(f, N, 3, d))
                           for N in NARROW_LADDER]
        return count, mins


def _gallagher_mean(W):
    """Mean of G_W((0, x - y)) over the Gallagher box, grouped by |x - y|."""
    (lo, hi), _ = GALLAGHER_BOX
    n = hi - lo + 1
    diffs = np.arange(n)
    weight = np.where(diffs == 0, n, 2 * (n - diffs))
    return float(weight @ ref.progression_series(diffs, 2, W=W)) / n ** 2


# ------------------------------------------------------------ progressions

SIGNAL_MODULUS = 10 ** 5 + 3
D_K3 = math.ceil(math.log(SIGNAL_MODULUS) ** 4)      # 17,570
D_K4 = 2000
DENSE_D = 2000
COUNT_N = 10 ** 6
COUNT_DS = range(1, 301)


class Progressions(Workload):
    """Lambda_D sweeps and many small AP counts; the sieve is tiny."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.dense = [rng.uniform(0.0, 1.0, SIGNAL_MODULUS) for _ in range(3)]

    def run_pass(self, tr, ck):
        N = SIGNAL_MODULUS
        with tr.stage("prime signal"):
            sieve = tr.call("numtheory.build_factor_sieve", numtheory.build_factor_sieve,
                            COUNT_N + 2 * COUNT_DS[-1], work=COUNT_N + 2 * COUNT_DS[-1] + 1)
            f = tr.call("aplab.prime_signal", aplab.prime_signal, sieve, N)
            flags = self.ref("signal flags", self._signal_flags)
            ck.check(np.array_equal(f, np.where(flags, math.log(N), 0.0)),
                     "prime signal is not log N' on the primes in [sqrt N', N')")
            for k, D in ((3, D_K3), (4, D_K4)):
                got = tr.call("aplab.lambda_D", aplab.lambda_D, [f] * k, D, work=N * D * (k - 1))
                count = self.ref(("cyclic", k), lambda: ref.cyclic_progressions(flags, D, k))
                ck.close(got, math.log(N) ** k * count / (N * D), 1e-9, f"Lambda_D k={k}")

        with tr.stage("dense"):
            got = tr.call("aplab.lambda_D_dense", aplab.lambda_D, self.dense, DENSE_D,
                          work=N * DENSE_D * 2)
            ck.close(got, self.ref("dense", lambda: ref.cyclic_sweep(self.dense, DENSE_D)),
                     1e-9, "dense Lambda_D")

        with tr.stage("counts"):
            want_counts = self.ref("counts", self._counts)
            want_series = self.ref("series", lambda: ref.progression_series(COUNT_DS, 3))
            integral = self.ref("integral", lambda: ref.log_integral(COUNT_N, 3))
            for i, d in enumerate(COUNT_DS):
                c = tr.call("aplab.count_aps", aplab.count_aps_with_difference, COUNT_N, 3, d, sieve)
                ck.check(c == want_counts[i], f"d={d}: count {c} vs {want_counts[i]}")
                ck.check(d % 2 == 0 or c == 0, f"odd d={d} has {c} progressions")
                ck.check(d % 3 == 0 or c <= 1, f"d={d} prime to 3 has {c} progressions")
                g = tr.call("singular.singular_series", singular.singular_series, (0, d, 2 * d))
                ck.close(g.value, want_series[i], 1e-9, f"d={d} singular series")
                p = tr.call("aplab.hl_prediction", aplab.hl_prediction, COUNT_N, 3, d)
                ck.check(p.singular_value == g.value, f"d={d} prediction uses {p.singular_value}")
                ck.check(math.isclose(p.value, g.value * integral, rel_tol=1e-7, abs_tol=1e-9),
                         f"d={d} prediction {p.value}")

    @staticmethod
    def _signal_flags():
        N = SIGNAL_MODULUS
        flags = ref.prime_flags(0, N)
        flags[:math.isqrt(N - 1) + 1] = False
        return flags

    @staticmethod
    def _counts():
        flags = ref.prime_flags(0, COUNT_N + 2 * COUNT_DS[-1] + 1)
        return [ref.ap_count(flags, COUNT_N, 3, d) for d in COUNT_DS]


# ------------------------------------------- collision-threshold: collisions

RANDOM_DIMS = (2, 3, 4)
RANDOM_SIZES = (2, 3, 4, 5, 6)
RANDOM_PER_SHAPE = 7                                   # 105 systems
# The systems are drawn from this fixed seed, so the work of a pass does not
# depend on --seed; the run's seed only orders the calls.
RANDOM_SYSTEMS_SEED = 1509
# min_distinct_on_codim queries (k, codim) on first(k).  first(4) at codim 2
# is left out: that one call takes 13 s, longer than a pass of everything
# else, so a run could not hold the repeated passes that steady its time.
MIN_DISTINCT = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1))


def _random_system(rng, d, t):
    forms = set()
    while len(forms) < t:
        coeffs = tuple(int(v) for v in rng.integers(-3, 4, size=d))
        forms.add((coeffs, int(rng.integers(-2, 3))))
    return linforms.LinearSystem(d=d, forms=tuple(
        linforms.LinearForm(coeffs=c, constant=b) for c, b in sorted(forms)))


class CollisionLattice(Workload):
    """Exact rational row reduction in linforms; no sieve at all."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        fams = [(f"first({k})", linforms.first_family(k), (k - 1) * 2 ** (k - 2)) for k in (2, 3)]
        fams += [(f"second({k})", linforms.second_family(k), 2 ** (k - 1)) for k in (2, 3, 4)]
        fams += [(f"third({k},{j})", linforms.third_family(k, j), k - 1)
                 for k in (3, 4) for j in range(1, k + 1)]
        self.families = fams
        rng = np.random.default_rng(RANDOM_SYSTEMS_SEED)
        systems = [_random_system(rng, d, t) for d in RANDOM_DIMS for t in RANDOM_SIZES
                   for _ in range(RANDOM_PER_SHAPE)]
        order = np.random.default_rng(seed).permutation(len(systems))
        self.random = [systems[i] for i in order]
        self.first = {k: linforms.first_family(k) for k in (2, 3, 4)}

    def run_pass(self, tr, ck):
        explored = 0
        with tr.stage("families"):
            for name, system, index in self.families:
                res = tr.call("linforms.lindex", linforms.lindex, system)
                explored += res.subspaces_explored
                ck.check(res.value == index, f"{name}: index {res.value}, paper gives {index}")
                codim = ref.partition_codim(_forms(system), [list(a) for a in res.witness.atoms])
                ck.check(codim == res.codim and codim
                         and Fraction(system.t - res.witness.size, codim) == res.value,
                         f"{name}: witness does not attain {res.value}")
        with tr.stage("random systems"):
            want = self.ref("random", lambda: [ref.collision_index(_forms(s)) for s in self.random])
            for i, system in enumerate(self.random):
                res = tr.call("linforms.lindex", linforms.lindex, system)
                explored += res.subspaces_explored
                ck.check(res.value == want[i], f"system {i}: lindex {res.value} vs {want[i]}")
        tr.counters["linforms.subspaces_explored"] = explored
        with tr.stage("min distinct"):
            for k, c in MIN_DISTINCT:
                system = self.first[k]
                bound = (k + 1) * 2 ** (k - 2) if c == 1 else 2 ** (k - 1)
                res = tr.call("linforms.min_distinct", linforms.min_distinct_on_codim, system, c)
                rows = res.witness.rows
                ck.check(res.count >= bound, f"first({k}) codim {c}: {res.count} < {bound}")
                ck.check(ref.rank(rows) == c == ref.rank([r[:-1] for r in rows]),
                         f"first({k}) codim {c}: witness is not a codim-{c} subspace")
                recount = ref.distinct_on_subspace(_forms(system), rows)
                ck.check(recount == res.count,
                         f"first({k}) codim {c}: {res.count} forms, witness gives {recount}")


# -------------------------------------------- collision-threshold: thresholds

FIT_ALPHAS = (0.3, 0.2, 0.1)
DEVIATION_ALPHA = 0.1
DEVIATION_WIDTHS = (10 ** 3, 10 ** 4, 10 ** 5)
# count_hyperplane_points loses exactness here (float64 boxcar sums); the
# first(3) fit at alpha = 0.05 reaches this width.  Counted as `failed`.
FAULT_QUERY = ((1, 1, -1, -1), 244038)
MC_ALPHA = 0.3
MC_MODULUS = 10007
MC_WIDTH = 2
MC_SAMPLES = 10 ** 6


class ThresholdFit(Workload):
    """Random-model deviations and exact hyperplane counts in conditions."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.fits = [
            ("third(3,1)", linforms.third_family(3, 1), 2, 0.2),
            ("third(3,2)", linforms.third_family(3, 2), 2, 0.2),
            ("second(2)", linforms.second_family(2), 2, 0.2),
            ("first(3)", linforms.first_family(3), 4, 0.3),
        ]
        self.first3 = linforms.first_family(3)
        self.hyperplanes = ref.collision_hyperplanes(_forms(self.first3))
        self.first2 = linforms.first_family(2)
        self.box = conditions.symmetric_box(self.first2.d, MC_WIDTH)

    def run_pass(self, tr, ck):
        with tr.stage("fits"):
            for name, system, index, tol in self.fits:
                fit = tr.call("conditions.width_threshold_fit", conditions.width_threshold_fit,
                              system, FIT_ALPHAS)
                ck.check(abs(fit.slope - index) <= tol, f"{name}: slope {fit.slope}")
                ck.check(all(row.dominant_ratio == index for row in fit.rows),
                         f"{name}: dominant ratios {[row.dominant_ratio for row in fit.rows]}")

        exact = self.ref("counts", lambda: {S: [ref.hyperplane_count(a, S, rhs)
                                                for a, rhs in self.hyperplanes]
                                            for S in DEVIATION_WIDTHS})
        with tr.stage("deviations"):
            totals = []
            for S in DEVIATION_WIDTHS:
                dev = tr.call("conditions.random_model_deviation",
                              conditions.random_model_deviation, self.first3, DEVIATION_ALPHA, S)
                got = sorted(t.box_fraction for t in dev.terms if t.codim == 1)
                want = sorted(c / (2 * S + 1) ** self.first3.d for c in exact[S])
                ck.check(len(got) == len(want) and np.allclose(got, want, rtol=1e-12, atol=0),
                         f"S={S}: hyperplane fractions differ from exact counts")
                ck.close(dev.total, math.fsum(t.contribution for t in dev.terms), 1e-9,
                         f"S={S}: total")
                totals.append(dev.total)
            ck.check(totals == sorted(totals, reverse=True), f"deviation not decreasing: {totals}")

        with tr.stage("hyperplane counts"):
            for S in DEVIATION_WIDTHS:
                for (a, rhs), want in zip(self.hyperplanes, exact[S]):
                    got = tr.call("conditions.count_hyperplane_points",
                                  conditions.count_hyperplane_points, list(a), S, rhs=rhs)
                    ck.check(got == want, f"S={S} {a}: {got} vs {want}")
            coeffs, S = FAULT_QUERY
            got = tr.call("conditions.count_hyperplane_points",
                          conditions.count_hyperplane_points, list(coeffs), S)
            ck.known_fault(got == self.ref("fault", lambda: ref.hyperplane_count(coeffs, S)))

        with tr.stage("monte carlo"):
            model = tr.call("conditions.random_model", conditions.WeightModel.random,
                            MC_ALPHA, self.seed, MC_MODULUS)
            est = tr.call("conditions.lfc_average_mc", conditions.lfc_average_mc, model,
                          self.first2, None, self.box, MC_SAMPLES, seed=self.seed,
                          work=MC_SAMPLES)
            exact_mean = self.ref("mc exact", lambda: ref.linear_forms_average(
                model.values, _forms(self.first2), MC_WIDTH))
            ck.check(abs(est.estimate - exact_mean) <= 5 * est.stderr,
                     f"MC {est.estimate} +- {est.stderr} vs exact {exact_mean}")


class CollisionThreshold(Workload):
    """The collision half, then the threshold half, in one pass.

    Both halves are pure-Python work, whose speed drifts with the shared
    machine over stretches of 10-40 s.  As one workload their runs span
    twice as long a stretch as either half alone would in the same time.
    """

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.halves = (CollisionLattice(seed, workdir), ThresholdFit(seed, workdir))

    def run_pass(self, tr, ck):
        for half in self.halves:
            half.run_pass(tr, ck)


WORKLOADS = {
    "sieve-ladder": SieveLadder,
    "progressions": Progressions,
    "collision-threshold": CollisionThreshold,
}
