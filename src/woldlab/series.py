"""The branch-ratio series: partial sums, convergence verdicts and hyper-range
vectors.

The series attached to a vertex v sums, over the shells A(v, n), the squared
ratios of n-step moments against the moment of v itself.  Convergence of this
series is the pivot the decomposition verdict turns on.  Numerically a series
has three possible answers, not two; verdicts carry their evidence and an
honest method tag.  Exact answers exist only where structure provides them:
kernels that certify finite generations, and builtin families whose term laws
are verified in-run before being extrapolated.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice
from operator import add

from .errors import DivergentSeriesError, ResourceCapError, UndecidedSeriesError
from .numerics import NeumaierSum, quadratic_tail_integral, quadratic_tail_sum
from .operator import SparseVector, apply_shift
from .tree_core import (Budget, TqbKernel, TreeKernel, BilateralPath, bind_budget,
                        bound_budget, descend, operation, unbind_budget)
from .weights import (ConstantWeights, Prop51Weights, WeightSystem, family_root,
                      shift_norm_sq)

THRESHOLD = 1e6         # partial-sum divergence cutoff
WINDOW = 50             # nonzero terms used for ratio fitting
DELTA = 0.05            # dead zone around ratio 1
TERM_FLOOR = 1e-2       # lower bound that certifies divergence
ANALYTIC_TERMS = 2000   # closed-form terms summed by plugins
PREMISE_TOL = 1e-9      # closed-form agreement required of plugins


@dataclass(frozen=True)
class SeriesConfig:
    n_max: int = 10_000          # generations examined by the heuristic
    use_plugins: bool = True


# ---------------------------------------------------------------------------
# term stream and partial sums


def generation_stream(ws: WeightSystem, kernel: TreeKernel, v, build_from: int = 0):
    """Yield (n, t_n, base_log, members) for n = 0, 1, 2, ...

    t_n is the n-th term of the series, the sum over the shell A(v, n) of
    (lambda^(n)(u) / lambda^(n)(v))^2; base_log is the log moment of v at
    order n, and members the shell as its list of (u, log moment) pairs,
    so that acc - base_log is the log of the moment ratio for each pair
    (u, acc).  Each term is summed where the stream produces the shell, as
    exp(2 (acc - base_log)) over the members in order, with inf past
    exponent 700.  A(v, n) and its pairs depend on v only through
    top = par^(n-1)(v), so each shell is memoized per top and n, in the
    operation's memos for (ws, kernel), and shared by every
    same-generation vertex; memo hits are free.  The list yielded is that
    memo entry itself: readers must not change it.

    Shells under one top form a ladder: A(v, n) = Chi^(n-j)(A(par^(n-j)(v), j)),
    with the logs accumulating in the same order.  A miss takes one rung:
    the deepest stored j < n, or else the top's first level, the children
    of par(top) other than top, weighted and charged as `shell` does it
    and not stored unless it is the shell itself (n = 1).  A one-vertex
    rung folds its unary ray here, the only fold there is: one `kernel.ray`
    call for at most one vertex past the cap, one `ws.ray_log_weights`
    call, the weights added to the rung's log in ray order, and one charge
    for the chain, so floats, trip points and the error a bad weight
    raises are the level loop's.  A wider rung, and a rung whose kernel
    gives no ray (the tqb spine, kernels with no closed form), take
    `descend`'s level loop.  A stream at par(v) run before the one at v
    thus leaves v one level per generation to walk.  The up-step
    of a top, (log_weight(top), par(top)), is memoized beside the shells,
    so streams through one top take its weight and parent once per
    operation.

    Generations before `build_from` are not built: they yield
    (n, None, base_log, None), and only the top and v's base log moment
    advance through them.  The stream takes the current budget, or one of
    its own outside any operation, with its memos, when generation 1 is
    first asked for.  Each miss is taken with that budget current: it is
    bound for the miss whenever another budget or none is current (a
    stream resumed outside its operation, or inside another), so a dual
    weight's sibling charges and ray rows land in it too, and the cap
    bounds the whole stream, in an operation or out of one.  A cap tripped
    here names the generation being walked.
    """
    yield (0, 1.0, 0.0, [(v, 0.0)]) if build_from <= 0 else (0, None, 0.0, None)
    budget = Budget.current()
    memos = budget.memos
    ladders = memos.setdefault(("shells", ws, kernel), {})    # top -> {n: A(v, n)}
    steps = memos.setdefault(("steps", ws, kernel), {})       # top -> (log weight, parent)
    log_weight, children, charge = ws.log_weight, kernel.children, budget.charge
    exp, inf = math.exp, math.inf
    top = v          # par^(n-1)(v) while producing generation n
    base_log = 0.0   # log moment of v at order n, updated incrementally
    n = 1
    try:
        while True:
            step = steps.get(top)
            members = None
            miss = False
            if n >= build_from:
                ladder = ladders.get(top)
                if ladder is None:
                    ladder = ladders[top] = {}
                members = ladder.get(n)
                miss = members is None
            if step is None or miss:
                # sibling charges of dual misses and ray rows read the
                # current budget: make it this stream's
                token = bind_budget(budget) if bound_budget() is not budget else None
                try:
                    if step is None:
                        step = steps[top] = (log_weight(top), kernel.parent(top))
                    if miss:
                        charge()
                        j = 0
                        for k in ladder:
                            if j < k < n:
                                j = k
                        if j:
                            rung = ladder[j]
                        else:
                            rung = [(c, log_weight(c)) for c in children(step[1]) if c != top]
                            charge(len(rung))
                            j = 1
                        if j == n:
                            members = rung
                        elif len(rung) == 1:
                            # fold the ray, asking for at most one vertex
                            # past the cap, so the charge trips where the
                            # level loop does
                            (u, acc), = rung
                            chain = kernel.ray(u, min(n - j, budget.cap - budget.used + 1))
                            if chain is not None:
                                # reduce is the level loop's left fold (sum
                                # compensates from Python 3.12)
                                acc = reduce(add, ws.ray_log_weights(chain), acc)
                                charge(chain.stop - chain.start)
                                members = [(chain.last, acc)]
                        if members is None:
                            members = descend(kernel, rung, n - j, ws)
                        ladder[n] = members
                finally:
                    if token is not None:
                        unbind_budget(token)
            lw, top = step
            base_log += lw
            if members is None:
                yield n, None, base_log, None
            else:
                total = 0.0
                for _, acc in members:
                    e = 2.0 * (acc - base_log)
                    total += inf if e > 700.0 else exp(e)
                yield n, total, base_log, members
            n += 1
    except ResourceCapError as exc:
        raise ResourceCapError(
            f"{exc} while walking generation {n} of the series term stream "
            "(WOLDLAB_MAX_VERTICES sets the cap)") from None


@dataclass
class AlphaPartial:
    """Terms and partial sums of the series at v, up to generation N."""

    v: object
    N: int
    terms: list
    partials: list

    def to_rows(self):
        return [(n, self.terms[n], self.partials[n]) for n in range(self.N + 1)]


def _first_terms(ws: WeightSystem, kernel: TreeKernel, v, upto: int,
                 build_from: int = 0) -> list:
    """t_0, ..., t_upto, None before `build_from`; generation upto + 1 is
    never walked."""
    return [t for _, t, _, _ in islice(generation_stream(ws, kernel, v, build_from), upto + 1)]


@operation()
def alpha_partial(ws: WeightSystem, kernel: TreeKernel, v, N: int) -> AlphaPartial:
    if N < 0:
        raise ValueError("N must be nonnegative")
    terms = _first_terms(ws, kernel, v, N)
    partials = list(map(NeumaierSum().add, terms))
    return AlphaPartial(v, N, terms, partials)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class SeriesVerdict:
    vertex: object
    kind: str                    # "converged" | "diverged" | "inconclusive"
    method: str                  # "analytic" | "heuristic"
    value: float | None = None
    tail_bound: float | None = None
    evidence: dict = field(default_factory=dict)
    n_used: int = 0

    @classmethod
    def converged(cls, vertex, value, tail_bound, method, evidence, n_used):
        if tail_bound is None or tail_bound < 0:
            raise ValueError("a convergence verdict needs a nonnegative tail bound")
        return cls(vertex, "converged", method, value, tail_bound, evidence, n_used)

    @classmethod
    def diverged(cls, vertex, method, evidence, n_used):
        if not evidence:
            raise ValueError("a divergence verdict needs explicit evidence")
        return cls(vertex, "diverged", method, None, None, evidence, n_used)

    @classmethod
    def inconclusive(cls, vertex, evidence, n_used):
        return cls(vertex, "inconclusive", "heuristic", None, None, evidence, n_used)

    @property
    def definitive(self) -> bool:
        return self.kind != "inconclusive" and self.method == "analytic"

    def to_json(self, kernel: TreeKernel) -> dict:
        return {
            "vertex": kernel.format_vertex(self.vertex),
            "verdict": self.kind,
            "value": self.value,
            "tail_bound": self.tail_bound,
            "evidence": {**self.evidence, "n_used": self.n_used},
            "method": self.method,
        }


@operation()
def alpha_verdict(ws: WeightSystem, kernel: TreeKernel, v,
                  config: SeriesConfig | None = None) -> SeriesVerdict:
    """Three-valued convergence decision for the series at v.

    Resolution order: structural finite-generation bounds (exact), then
    family plugins (exact laws, verified in-run against the term stream and
    abandoned on mismatch), then the sampling heuristic.
    """
    cfg = config or SeriesConfig()
    # one decision per vertex and config in an operation: decomposition_report
    # asks again at path vertices its wold_verdict has decided
    key = ("alpha", ws, kernel, v, cfg)
    memos = Budget.current().memos
    if key not in memos:
        memos[key] = _decide(ws, kernel, v, cfg)
    return memos[key]


def _decide(ws, kernel, v, cfg: SeriesConfig) -> SeriesVerdict:
    span = kernel.generation_span(v)
    if span is not None:
        return _finite_generation_verdict(ws, kernel, v, span)
    if cfg.use_plugins:
        for plugin in PLUGINS:
            out = plugin(ws, kernel, v)
            if out is not None:
                return out
    return _heuristic_verdict(ws, kernel, v, cfg.n_max)


def _finite_generation_verdict(ws, kernel, v, span) -> SeriesVerdict:
    acc = NeumaierSum()
    acc.extend(_first_terms(ws, kernel, v, span))
    evidence = {"rule": "finite-generation", "span": span}
    return SeriesVerdict.converged(v, acc.value, acc.error_bound, "analytic",
                                   evidence, span)


def _heuristic_verdict(ws, kernel, v, n_max: int) -> SeriesVerdict:
    """The sampling heuristic: stops taken inside the term stream, then, past
    the insufficient-terms guard, the first of TAIL_RULES that decides."""
    acc = NeumaierSum()
    recent: deque = deque(maxlen=WINDOW)   # (n, t) for nonzero t
    add, keep, isfinite = acc.add, recent.append, math.isfinite
    empty_run = 0
    n_seen = 0
    for n, t, _, _ in generation_stream(ws, kernel, v):
        n_seen = n
        if not isfinite(t):
            return SeriesVerdict.diverged(
                v, "heuristic", {"rule": "overflow", "n": n}, n)
        partial = add(t)
        if partial > THRESHOLD:
            return SeriesVerdict.diverged(
                v, "heuristic",
                {"rule": "threshold", "partial": partial, "threshold": THRESHOLD, "n": n}, n)
        if t == 0.0:
            empty_run += 1
            if empty_run >= WINDOW:
                # A window-long run of empty generations with a finite total:
                # treated as an exhausted (finite) generation.  Kernels that
                # can actually certify exhaustion never reach this code path,
                # so the tag stays heuristic.
                return SeriesVerdict.converged(
                    v, partial, acc.error_bound, "heuristic",
                    {"rule": "empty-run", "run": empty_run, "n": n}, n)
        else:
            empty_run = 0
            keep((n, t))
        if n >= n_max:
            break

    if len(recent) < WINDOW:
        return SeriesVerdict.inconclusive(
            v, {"rule": "insufficient-terms", "nonzero_terms": len(recent)}, n_seen)

    pairs = list(recent)
    slopes = [(math.log(t1) - math.log(t0)) / (n1 - n0)
              for (n0, t0), (n1, t1) in zip(pairs, pairs[1:])]
    mean = math.fsum(slopes) / len(slopes)
    sigma = math.sqrt(math.fsum((s - mean) ** 2 for s in slopes) / len(slopes))
    for rule in TAIL_RULES:
        out = rule(v, acc, mean, sigma, pairs, n_seen)
        if out is not None:
            return out


# Tail rules: each takes the vertex, the stream's sum, the mean and spread of
# the log-term slopes over the last WINDOW nonzero terms, those (n, t) pairs
# and the last generation read, and returns a verdict or None.


def _tail_growth(v, acc, mean, sigma, pairs, n):
    ratio = math.exp(mean)
    if ratio > 1.0 + DELTA:
        return SeriesVerdict.diverged(
            v, "heuristic", {"rule": "growth", "ratio": ratio, "sigma": sigma}, n)
    return None


def _tail_geometric(v, acc, mean, sigma, pairs, n):
    ratio = math.exp(mean)
    if ratio < 1.0 - DELTA:
        t_last = pairs[-1][1]
        r_hi = min(math.exp(mean + 2.0 * sigma), 1.0 - DELTA / 2.0)
        r_lo = max(math.exp(mean - 2.0 * sigma), 0.0)
        tail = t_last * ratio / (1.0 - ratio)
        spread = t_last * (r_hi / (1.0 - r_hi) - r_lo / (1.0 - r_lo))
        return SeriesVerdict.converged(
            v, acc.value + tail, abs(spread) + acc.error_bound, "heuristic",
            {"rule": "geometric-ratio", "ratio": ratio, "sigma": sigma, "tail": tail}, n)
    return None


def _tail_floor(v, acc, mean, sigma, pairs, n):
    floor = min(t for _, t in pairs)
    if floor >= TERM_FLOOR:
        return SeriesVerdict.diverged(
            v, "heuristic", {"rule": "term-floor", "floor": floor}, n)
    return None


def _tail_undecided(v, acc, mean, sigma, pairs, n):
    return SeriesVerdict.inconclusive(
        v, {"rule": "undecided", "ratio": math.exp(mean), "sigma": sigma}, n)


TAIL_RULES = (_tail_growth, _tail_geometric, _tail_floor, _tail_undecided)


# ---------------------------------------------------------------------------
# analytic plugins: exact term laws, verified against the stream before use


def _fit_k(root: Prop51Weights, v, terms: list, lo: int, upto: int, dual: bool):
    """(k_fit, rel_resid) of t_l / p_mu(l-1), or t_l * p_mu(l-1) on the dual, over the
    sampled generations lo..upto; None if non-finite, nonpositive or over PREMISE_TOL."""
    n0, m0 = v
    ps = root.p_row(m0 + lo - n0, lo - 1, upto + 1 - lo)
    ks = [terms[l] * p if dual else terms[l] / p for l, p in zip(range(lo, upto + 1), ps)]
    k_fit = math.fsum(ks) / len(ks)
    if k_fit <= 0.0 or not math.isfinite(k_fit):
        return None
    rel_resid = max(abs(k - k_fit) for k in ks) / k_fit
    if rel_resid > PREMISE_TOL:
        return None
    return k_fit, rel_resid


def _plugin_prop51(ws, kernel, v):
    """Term laws for the polynomial family on the quasi-Brownian tree.

    Primal: terms grow like the quadratic p itself; divergence.  Dual: past
    the vertex's ray depth the terms obey t_l = K / p_{mu(l)}(l-1) with a
    constant K; the plugin fits K, verifies constancy, sums the closed form
    up to l = n_terms, and brackets the rest by an integral.  The closed
    form is summed term by term from one `p_row` only until both coefficient
    rules have settled to their defaults; from there to n_terms it is one
    block K * (S(x_s) - S(n_terms)) of `quadratic_tail_sum`, whose certified
    error bounds K * (R(x_s) + R(n_terms)) join `tail_bound`.
    """
    if not isinstance(kernel, TqbKernel):
        return None
    root, depth = family_root(ws)
    if not isinstance(root, Prop51Weights) or depth > 1:
        return None
    n0, m0 = v
    upto = max(60 if depth else 40, n0 + 24)
    lo = max(n0 + 1, upto - 16)     # the fit reads the last 17 generations
    # the primal verdict reads the fitted terms only, the dual's sums them all
    terms = _first_terms(ws, kernel, v, upto, 0 if depth else lo)
    fit = _fit_k(root, v, terms, lo, upto, depth == 1)
    if fit is None:
        return None
    k_fit, rel_resid = fit
    if depth == 0:
        evidence = {"rule": "quadratic-minorant", "K": k_fit,
                    "fit_residual": rel_resid, "sampled_upto": upto}
        return SeriesVerdict.diverged(v, "analytic", evidence, upto)

    # Dual layer: extrapolate the fitted tail law.
    a_tail, b_tail = root.a.default, root.b.default
    settled = [s + n0 - m0 + 10 for s in (root.a.settled_after(), root.b.settled_after())
               if s is not None]
    n_terms = max(ANALYTIC_TERMS, upto + 10, *settled)
    # t_l = K / p(m0 + l - n0, x) with x = l - 1, for x = upto, ..., n_terms - 1:
    # one by one below x_s, where a table entry may still be read, and as
    # one block from x_s on, where both rules give their defaults
    x_s = max([upto + 1, *settled])

    acc = NeumaierSum()
    acc.extend(terms)
    acc.extend(k_fit / q for q in root.p_row(m0 + upto + 1 - n0, upto, x_s - upto))
    s_from, r_from = quadratic_tail_sum(a_tail, b_tail, x_s)
    s_past, r_past = quadratic_tail_sum(a_tail, b_tail, n_terms)
    acc.add(k_fit * (s_from - s_past))

    lower = k_fit * quadratic_tail_integral(a_tail, b_tail, n_terms)
    upper = k_fit * quadratic_tail_integral(a_tail, b_tail, n_terms - 1)
    value = acc.value + 0.5 * (upper + lower)
    tail_bound = (0.5 * (upper - lower) + acc.error_bound + k_fit * (r_from + r_past)
                  + rel_resid * value)
    evidence = {"rule": "polynomial-tail", "K": k_fit, "fit_residual": rel_resid,
                "terms": n_terms, "tail_window": [lower, upper]}
    return SeriesVerdict.converged(v, value, tail_bound, "analytic", evidence, n_terms)


def _plugin_constant(ws, kernel, v):
    """Constant weights on the quasi-Brownian tree.

    Primal terms count the singleton shells (eventually exactly 1 per
    generation); the dual terms grow by a factor 4 per generation whatever
    the constant is.  Both diverge.
    """
    if not isinstance(kernel, TqbKernel):
        return None
    root, depth = family_root(ws)
    if not isinstance(root, ConstantWeights) or depth > 1:
        return None
    n0, _ = v
    upto = max(30, n0 + 12)
    # both verdicts read the terms past the vertex's ray depth only
    terms = _first_terms(ws, kernel, v, upto, n0 + 1)
    tail = terms[n0 + 1:]

    if depth == 0:
        if not tail or any(abs(t - 1.0) > PREMISE_TOL for t in tail):
            return None
        evidence = {"rule": "counting", "term": 1.0, "sampled_upto": upto}
        return SeriesVerdict.diverged(v, "analytic", evidence, upto)

    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0.0]
    if len(ratios) < 6 or any(abs(r - 4.0) > 4.0 * PREMISE_TOL for r in ratios):
        return None
    evidence = {"rule": "geometric-growth", "ratio": 4.0, "sampled_upto": upto}
    return SeriesVerdict.diverged(v, "analytic", evidence, upto)


PLUGINS = (_plugin_prop51, _plugin_constant)


# ---------------------------------------------------------------------------
# hyper-range vectors


@dataclass
class HyperRangeVector:
    """Truncation of the basis vector spanning the m-th hyper-range line."""

    m: int
    vertex: object
    vector: SparseVector
    N: int
    gen_support: list
    tail_mass: float
    alpha_value: float | None
    verdict: SeriesVerdict

    @property
    def is_zero(self) -> bool:
        return len(self.vector) == 0


@operation()
def g_vector(ws: WeightSystem, kernel: TreeKernel, path: BilateralPath, m: int,
             N: int, config: SeriesConfig | None = None) -> HyperRangeVector:
    """Truncated coefficients of g_m along the path, with a tail-mass bound.

    When the series at v_m diverges the vector is zero by definition; an
    inconclusive verdict refuses to guess.
    """
    v = path[m]
    verdict = alpha_verdict(ws, kernel, v, config)
    if verdict.kind == "diverged":
        return HyperRangeVector(m, v, SparseVector({}), N, [], 0.0, None, verdict)
    if verdict.kind == "inconclusive":
        raise UndecidedSeriesError(
            f"series verdict at {v!r} is inconclusive; cannot build g_{m}")
    entries: dict = {}
    gen_support = []
    for _, _, base_log, members in islice(generation_stream(ws, kernel, v), N + 1):
        gen_support.append(tuple(u for u, _ in members))
        for u, acc in members:
            entries[u] = math.exp(acc - base_log)
    vector = SparseVector(entries)
    # the mass of the vector actually returned, after SparseVector's pruning
    tail_mass = max(verdict.value - vector.norm_sq(), 0.0) + verdict.tail_bound
    return HyperRangeVector(m, v, vector, N, gen_support, tail_mass,
                            verdict.value, verdict)


@dataclass
class RecurrenceReport:
    m: int
    residual: float
    tail_allowance: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol + self.tail_allowance


def hyperrange_recurrence_check(ws: WeightSystem, kernel: TreeKernel,
                                g_m: HyperRangeVector, g_next: HyperRangeVector,
                                tol: float = 1e-10) -> RecurrenceReport:
    """Residual of S g_m = lambda_{v_{m+1}} g_{m+1} on the common truncation,
    for g_next the path's next vector after g_m.

    The shifted vector reaches one generation past g_{m+1}'s truncation;
    the comparison drops that frontier and budgets both tails.
    """
    if g_m.is_zero or g_next.is_zero:
        raise DivergentSeriesError("recurrence check needs finite series on the path")
    lam = ws.weight(g_next.vertex)
    shifted = apply_shift(ws, kernel, g_m.vector)
    common = set()
    for gen in g_next.gen_support:
        common.update(gen)
    diff = shifted.add(g_next.vector, -lam).restrict(common)
    s_sup = math.sqrt(shift_norm_sq(ws, kernel, g_m.vertex, 1))
    allowance = s_sup * math.sqrt(g_m.tail_mass) + lam * math.sqrt(g_next.tail_mass)
    return RecurrenceReport(g_m.m, diff.norm(), allowance, tol)
