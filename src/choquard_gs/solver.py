"""Limited-memory BFGS over the Nehari manifold, in the problem's own norm, with
translation as a move of its own.

The initial inverse Hessian is P = (sqrt(-Laplacian + m^2) - m + inf V)^-1, the
inverse of the constant-coefficient part of B, whose quadratic form
Q(u) = <Bu, u> is the squared norm of the space the energy is minimized in: Pg
is the gradient in that inner product when V is constant (a Sobolev gradient).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .energy import (
    EnergyContext,
    b_values,
    direction_and_b,
    energy_from_qdg,
    gamma_values,
    grad_values,
    nonlocal_terms,
)
from .grid import Field, Translations, dft, gaussian_field, row_dots
from .nehari import NehariProjectionError, nehari_t_from_qdg

MEMORY = 5                  # curvature pairs behind an L-BFGS direction
GRAD_TOL = 1e-8             # stop at this fraction of the start's residual,
ROUND_OFF = 1e-12           # or at this fraction of |Bu| at the start, its round-off
STEP_INIT = 1.0             # first trial tau of every line search
SHRINK = 0.5                # backtracking factor
SUFFICIENT_DECREASE = 1e-4  # Armijo's delta
MAX_BACKTRACKS = 60
RECENTER_EVERY = 25         # iterations between translation checkpoints
INIT_NOISE = 1e-3           # amplitude of random_initial's second bump
MINIMA_RTOL = 1e-10         # converged levels closer than this, relative, are one minimum


class SolveFailure(RuntimeError):
    """No run of a multistart batch converged."""


@dataclass
class SolverConfig:
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(eq=False)
class SolverResult:
    """Converged state plus one record per iterate.

    history holds one dict per iterate, the row trace.ndjson writes, keyed in
    this order: iter; energy; residual, the gradient's norm; t_star, the Nehari
    scaling; step, the accepted tau; trials, the line-search trials; pairs, the
    L-BFGS pairs behind the direction (0: the plain Pg); accept, 'armijo' or
    'derivative' (None, with step, trials and pairs 0, at the start); t_s,
    seconds since solve started; shift, the displacement in cells, a list of
    floats, of the translation move behind the iterate or, on the last row, of
    the roll home at exit (else None); qnorm, sqrt(Q).

    status is 'converged' (the last residual met the threshold), 'max_iters'
    (the iteration budget ran out), 'stalled' (a line search accepted no
    trial step) or 'projection_failed' (the start has no Nehari scaling).
    """

    u_final: Field
    history: list[dict]
    status: str
    iterations: int
    threshold: float                 # max(GRAD_TOL * res_0, ROUND_OFF * |Bu_0|) at the projected start

    @property
    def energy_trace(self) -> np.ndarray:
        return np.array([row["energy"] for row in self.history])

    @property
    def shifts_applied(self) -> list[np.ndarray]:
        return [np.array(row["shift"]) for row in self.history if row["shift"] is not None]


def _onto_manifold(ctx: EnergyContext, u: np.ndarray, spec: np.ndarray | None = None):
    """Fresh cached terms at u from four transforms (three given spec, the dft
    of u), then the Nehari scaling t: returns t, t*u, B(t*u), the gradient at
    t*u, Q(t*u) and the energy.

    Raises NehariProjectionError when no scaling reaches the manifold.
    """
    bu = b_values(ctx, u, spec)
    phi, d = nonlocal_terms(ctx, u)
    q = ctx.grid.cell_volume * row_dots(bu, u, ctx.grid.N)
    gam = gamma_values(ctx, u)
    t = nehari_t_from_qdg(q, d, gam, ctx.params.p, ctx.params.q)
    u = t * u
    bu *= t
    phi *= t ** ctx.params.p
    return (t, u, bu, grad_values(ctx, u, bu, phi), t * t * q,
            energy_from_qdg(ctx, q, d, gam, t))


def _translation_move(ctx: EnergyContext, tr: Translations, u: np.ndarray, grad: np.ndarray,
                      e: float):
    """The translation move of a checkpoint: the displacement a, in cells, and the
    state _onto_manifold gives at S_a u, for the trial of least energy below e;
    None when no trial lowers the energy.

    A, I_alpha, V_p and Gamma commute with lattice translations, so without V_l
    a = r + lam*s, where the lattice roll r brings the peak of |u| home and
    s = -grad_a E/|grad_a E| with grad_a E = -<grad E, d_i u>, exact for the
    projected energy, which is stationary along the fiber. lam is h/8, then the
    root of the quadratic through E(u), the slope and that trial, capped at L/2.
    V_l breaks the lattice symmetry: the roll is then a trial of its own, taken
    whenever it lowers the energy, and the search starts from u. A trial counts
    as lower only by more than the line search's round-off margin,
    1e-14*(1 + |e|). One trial's arrays are alive at a time; an earlier winner
    is evaluated again.
    """
    cv = ctx.grid.cell_volume
    spec = dft(u)
    bar = e - 1e-14 * (1.0 + abs(e))

    def trial(a):
        try:
            return _onto_manifold(ctx, *tr.shifted(spec, a))
        except NehariProjectionError:
            return None

    r = tr.home(u)
    if ctx.has_vl:
        if np.any(r):
            rolled = trial(r)
            if rolled is not None and rolled[-1] < bar:
                return r, rolled
            del rolled
        r = np.zeros_like(r)
    grad_a = -cv * tr.slope(spec, dft(grad))
    norm = float(np.sqrt(grad_a @ grad_a))
    if not norm > 0.0:
        return None
    s = -grad_a / norm
    lam1 = 0.125
    first = trial(r + lam1 * s)
    e1 = np.inf if first is None else first[-1]
    del first
    curv = 2.0 * (e1 - e + norm * lam1) / lam1**2
    lam2 = min(norm / curv if curv > 0.0 else np.inf, 0.25 * ctx.grid.n)
    second = trial(r + lam2 * s)
    if second is not None and second[-1] < min(bar, e1):
        return r + lam2 * s, second
    if e1 < bar:
        return r + lam1 * s, trial(r + lam1 * s)
    return None


def _quasi_newton(ctx: EnergyContext, grad: np.ndarray, pairs: list):
    """L-BFGS direction d = Hg, Bd, the slope <g, d> and the number of pairs behind d.

    The two-loop recursion (Nocedal & Wright, Alg. 7.4) over pairs, oldest
    first, each (s, y, Bs, 1/<s, y>) of an accepted step, with H0 = P and no
    scaling: its middle is direction_and_b on the modified gradient q, so
    Bd = B(Pq) + sum c_i Bs_i costs no transform. When <g, d> is not positive
    the memory is cleared and d is the plain Pg.
    """
    cv = ctx.grid.cell_volume
    if pairs:
        tmp = np.empty_like(grad)
        q = grad
        alphas = []
        for s, y, _, rho in reversed(pairs):
            alphas.append(rho * cv * float(np.vdot(s, q)))
            if q is grad:
                # the first pair writes q = g - alpha*y into a new array: g stays as it is
                q = np.multiply(alphas[-1], y)
                np.subtract(grad, q, out=q)
            else:
                q -= np.multiply(alphas[-1], y, out=tmp)
        d, bd = direction_and_b(ctx, q)    # for constant V, bd is q, our own array
        del q
        for (s, y, bs, rho), a in zip(pairs, reversed(alphas)):
            c = a - rho * cv * float(np.vdot(y, d))
            d += np.multiply(c, s, out=tmp)
            bd += np.multiply(c, bs, out=tmp)
        slope = cv * float(np.vdot(grad, d))
        if slope > 0.0:
            return d, bd, slope, len(pairs)
        pairs.clear()
    d, bd = direction_and_b(ctx, grad)
    return d, bd, cv * float(np.vdot(grad, d)), 0


# overflow shows as a non-finite Q, D or G, which fails the projection or the trial
@np.errstate(over="ignore", invalid="ignore")
def solve(ctx: EnergyContext, init: Field, cfg: SolverConfig | None = None) -> SolverResult:
    """Minimize the energy over the manifold from one initial field.

    Step: limited-memory BFGS with H0 = P = (A - m + inf V)^-1, A =
    sqrt(-Laplacian + m^2) (_quasi_newton), a line search on
    phi(tau) = E(t*(u - tau*d)) with the Nehari scaling t as the retraction,
    and, every RECENTER_EVERY iterations, a translation move of the bump
    (_translation_move), which descent alone would crawl along the faint
    landscape that the grid and V leave in the translations. Without V_l the
    last iterate is rolled home once more at exit, by whole lattice vectors,
    so where a start ends does not depend on whether it reached a checkpoint
    and its recorded energy is still its own. Each accepted step stores the
    pair s = u+ - u, y = g+ - g with Bs = Bu+ - Bu, unless <s, y> <= 0 or y is
    lost in round-off; a translation move clears the memory, so the step after
    it, like the first, is the plain preconditioned gradient. Every line
    search starts at tau = STEP_INIT and halves. A trial is accepted on Armijo
    or, with the energy within round-off, on the approximate-Wolfe bound
    phi'(tau) <= -(1 - 2*delta)*phi'(0) (Hager & Zhang 2005). The energy is
    stationary along the fiber on the manifold, so phi'(tau) = -t<grad E, d>
    at the trial, whose gradient is the next one once accepted. The residual
    must fall to GRAD_TOL times the start's, or to the gradient's round-off
    ROUND_OFF * |Bu_0|, where a converged start stops instead of wandering.

    The loop runs on arrays and caches Bu per iterate, and phi until the
    iterate's gradient is formed, so a gradient needs no transform, a
    direction one forward and one inverse and a trial only the Riesz pair:
    Q(u - tau*d) = Q(u) - 2 tau <Bu, d> + tau^2 <Bd, d> exactly.
    B(Pq) = q + (V - inf V) Pq costs no transform beyond Pq, and the stored Bs
    carry the rest of Bd (B is linear). An accepted move rebuilds the cache
    from its trial's fresh evaluation on the manifold, so the recurrences
    restart from exact terms.
    """
    t_start = time.perf_counter()
    cfg = cfg or SolverConfig()
    g = ctx.grid
    cv = g.cell_volume
    p, qe = ctx.params.p, ctx.params.q
    delta = SUFFICIENT_DECREASE
    tr = Translations(g)
    history: list[dict] = []

    try:
        t_star, u, bu, grad, q, e = _onto_manifold(ctx, init.values)
    except NehariProjectionError:
        return SolverResult(init, history, "projection_failed", 0, 0.0)

    step, n_trials, n_pairs, accept, shift = 0.0, 0, 0, None, None
    pairs: list[tuple] = []
    threshold = max(GRAD_TOL * math.sqrt(cv * float(np.vdot(grad, grad))),
                    ROUND_OFF * math.sqrt(cv * float(np.vdot(bu, bu))))
    status = "max_iters"
    it = 0
    for it in range(cfg.max_iters + 1):
        res = math.sqrt(cv * float(np.vdot(grad, grad)))
        history.append({"iter": it, "energy": float(e), "residual": res, "t_star": float(t_star),
                        "step": float(step), "trials": n_trials, "pairs": n_pairs,
                        "accept": accept, "t_s": time.perf_counter() - t_start,
                        "shift": shift, "qnorm": math.sqrt(max(q, 0.0))})
        shift = None
        if res <= threshold:
            status = "converged"
            break
        if it == cfg.max_iters:
            break

        direction, b_dir, slope, n_pairs = _quasi_newton(ctx, grad, pairs)
        bu_dir = cv * float(np.vdot(bu, direction))
        bdir_dir = cv * float(np.vdot(b_dir, direction))
        tau = STEP_INIT
        cand = np.empty_like(u)    # every trial's u - tau*d, the accepted one's t*(u - tau*d)
        for bt in range(MAX_BACKTRACKS):
            np.subtract(u, np.multiply(direction, tau, out=cand), out=cand)
            qc = q - 2.0 * tau * bu_dir + tau * tau * bdir_dir
            phi_c, dc = nonlocal_terms(ctx, cand)
            gc = gamma_values(ctx, cand)
            try:
                t_c = nehari_t_from_qdg(qc, dc, gc, p, qe)
            except NehariProjectionError:
                tau *= SHRINK
                continue
            e_new = energy_from_qdg(ctx, qc, dc, gc, t_c)
            armijo = e_new <= e - delta * tau * slope
            if armijo or e_new <= e + 1e-14 * (1.0 + abs(e)):
                # the trial's arrays, scaled in place, become the iterate's
                u_c = np.multiply(cand, t_c, out=cand)
                bu_c = np.multiply(b_dir, tau)
                np.subtract(bu, bu_c, out=bu_c)
                bu_c *= t_c
                phi_c *= t_c**p
                grad_c = grad_values(ctx, u_c, bu_c, phi_c)
                # the approximate-Wolfe slope phi'(tau), only when Armijo fails
                if armijo or (-t_c * cv * float(np.vdot(grad_c, direction))
                              <= (1.0 - 2.0 * delta) * slope):
                    accept = "armijo" if armijo else "derivative"
                    break
            tau *= SHRINK
        else:  # no trial accepted
            status = "stalled"
            break
        del cand, direction, b_dir
        # s and y, and Bs if the pair is kept, take the arrays of the iterate
        # they replace, which nothing else holds
        s_new, y_new = np.subtract(u_c, u, out=u), np.subtract(grad_c, grad, out=grad)
        sy = cv * float(np.vdot(s_new, y_new))
        # y must stand above the gradient's round-off, ~1e-12 |Bu|: pairs of
        # noise would feed the errors of the cached Bu back into Bd, where they
        # grow geometrically until the recorded energy is wrong
        if sy > 0.0 and np.vdot(y_new, y_new) > 1e-24 * np.vdot(bu_c, bu_c):
            if len(pairs) == MEMORY:
                del pairs[0]    # before the new pair's Bs exists
            pairs.append((s_new, y_new, np.subtract(bu_c, bu, out=bu), 1.0 / sy))
        u, bu, grad = u_c, bu_c, grad_c
        # the iterate's names and the memory alone keep its arrays
        del s_new, y_new, u_c, bu_c, phi_c, grad_c
        q, e, t_star, step, n_trials = t_c**2 * qc, e_new, t_c, tau, bt + 1

        if (it + 1) % RECENTER_EVERY == 0:
            move = _translation_move(ctx, tr, u, grad, e)
            if move is not None:
                a, (t, u, bu, grad, q, e) = move
                del move    # it would keep these arrays alive past the next step
                t_star *= t
                pairs.clear()
                shift = a.tolist()
    if not ctx.has_vl:
        # a start that stops between checkpoints ends home too; without V_l
        # the roll leaves the energy and the residual unchanged
        r = tr.home(u)
        if np.any(r):
            u = np.roll(u, r.astype(int), axis=tuple(range(g.N)))
            history[-1]["shift"] = r.tolist()
    return SolverResult(Field(g, u), history, status, it, threshold)


def random_initial(ctx: EnergyContext, rng: np.random.Generator) -> Field:
    """Randomized smooth bump: Gaussian with random width/center plus small noise."""
    g = ctx.grid
    center = rng.uniform(-g.L / 2.0, g.L / 2.0, size=g.N)
    width = rng.uniform(0.8, max(1.6, g.L / 6.0))
    u = gaussian_field(g, center, width)
    bump = gaussian_field(g, rng.uniform(-g.L, g.L, size=g.N), width).values
    return Field(g, u.values + INIT_NOISE * bump)


def best_converged(results: list[SolverResult]) -> SolverResult:
    """The converged run with the lowest final energy; the first one on a tie."""
    converged = [r for r in results if r.status == "converged"]
    if not converged:
        raise SolveFailure(f"none of {len(results)} starts converged")
    return min(converged, key=lambda r: r.energy_trace[-1])


def enough_starts(results: list[SolverResult]) -> bool:
    """The Boender-Rinnooy Kan stopping rule (Math. Program. 37 (1987) 59) after
    the starts in results.

    With j starts run and w distinct minima among the converged ones, the
    posterior estimate of the number of minima is w(j - 1)/(j - w - 2); the
    rule holds once j > w + 2 and the estimate falls below w + 1/2. A level is
    a new minimum when it differs from every kept one by more than MINIMA_RTOL
    relative. A start that did not converge counts in j and finds no minimum;
    with none found the rule never holds. One minimum takes j = 8, two j = 17.
    """
    minima: list[float] = []
    for e in (float(r.energy_trace[-1]) for r in results if r.status == "converged"):
        if all(abs(e - m) > MINIMA_RTOL * abs(m) for m in minima):
            minima.append(e)
    j, w = len(results), len(minima)
    # w(j-1)/(j-w-2) < w + 1/2, times 2(j-w-2) > 0
    return w > 0 and j > w + 2 and 2 * w * (j - 1) < (2 * w + 1) * (j - w - 2)


def multistart(ctx: EnergyContext, k: int,
               cfg: SolverConfig | None = None) -> tuple[SolverResult, list[SolverResult]]:
    """Seeded runs, one after another, until enough_starts holds or k have run;
    best converged final energy wins.

    Start i runs from random_initial(ctx, default_rng([cfg.seed, i])), so the
    starts that run are the first ones of a k-start batch. A cap of 7 or less
    runs every start.
    """
    if k < 1:
        raise ValueError("need at least one start")
    cfg = cfg or SolverConfig()
    results: list[SolverResult] = []
    for i in range(k):
        results.append(solve(ctx, random_initial(ctx, np.random.default_rng([cfg.seed, i])), cfg))
        if enough_starts(results):
            break
    return best_converged(results), results
