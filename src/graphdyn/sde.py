"""Reflected Euler-Maruyama integration of the kernel-valued diffusion.

The diffusion moves an r x r symmetric density matrix by a closed-form drift,
adds one Brownian increment per unordered pair (mirrored), and reflects at
the faces of [0, 1] by clamping, accumulating the clipped mass as discrete
local times.  The closed-form drift and its finite-matrix counterpart are
exposed separately, together with the explicit Skorokhod map used in tests.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# erfc and erfcx are imported where they are used: scipy.special takes about
# 0.3 s to load, and a run without the diffusion never needs it
from ._drive import drive, horizon_steps
from .hamiltonian import Hamiltonian
from .stepkernel import StepKernel, _finite_entries, l2_norm

# one-step clamp displacement above this fraction of the box suggests dt is
# too coarse for the drift magnitude
DT_STABILITY_FRACTION = 0.1


def gaussian_tail(x: float) -> float:
    """Upper tail P(Z > x) of a standard Gaussian."""
    from scipy.special import erfc

    return 0.5 * erfc(x / math.sqrt(2.0))


@np.errstate(over="ignore", invalid="ignore")  # the guards name an overflow
def drift_b(h, x: np.ndarray, beta: float) -> np.ndarray:
    """Closed-form drift at kernel values x: a negative multiple of the gradient.

    -beta erfcx(beta |g|_2 / r) g, with g the gradient, |.|_2 the
    normalized l2 norm and r the block count.  erfcx(x) = 2 exp(x^2)
    tail(sqrt(2) x) stays finite where exp(x^2) overflows.
    """
    from scipy.special import erfcx

    g = h.frechet_derivative(x)
    norm, r = l2_norm(g), len(x)
    arg = beta * norm / r
    # erfcx(inf) = 0 would make the drift a silent zero; erfcx(x) overflows
    # below x = -26.6
    if not (math.isfinite(arg) and math.isfinite(pref := erfcx(arg))):
        raise FloatingPointError(f"non-finite drift prefactor erfcx(beta |g|_2 / r) at "
                                 f"beta = {beta}, |g|_2 = {norm}, r = {r}")
    return _finite_entries(-beta * pref * g)


@np.errstate(over="ignore", invalid="ignore")  # the guards name an overflow
def limit_drift(h, x: np.ndarray, beta: float) -> np.ndarray:
    """Large-r limit of drift_b: -beta times the gradient."""
    return _finite_entries(-beta * h.frechet_derivative(x))


def explicit_drift_formula(v: np.ndarray, t: float) -> np.ndarray:
    """E[Y exp(-t <v, Y>_F^+)] for a symmetric Gaussian Y, in closed form.

    Y carries one N(0,1) per off-diagonal unordered pair (mirrored) and
    N(0,2) on the diagonal, so that <v, Y>_F has variance 2 |v|_F^2; the
    expectation is then -2 t v exp(t^2 |v|_F^2) tail(sqrt(2) t |v|_F),
    which is -t erfcx(t |v|_F) v.
    """
    from scipy.special import erfcx

    v = np.asarray(v, dtype=float)
    if t <= 0:
        raise ValueError("t must be positive")
    fro = math.sqrt(float((v * v).sum()))
    return -t * erfcx(t * fro) * v


def skorokhod_1d(path, lo: float, hi: float):
    """Two-sided Skorokhod map on [lo, hi], stepped by projection.

    Returns (reflected, l_lo, l_hi) with cumulative local times: each step's
    unconstrained value y is projected onto [lo, hi], and the overshoot past a
    face is added to that face's local time.  The reflected path never leaves
    [lo, hi], however far y lands outside it.
    """
    path = np.asarray(path, dtype=float)
    if not lo < hi:
        raise ValueError("need lo < hi")
    if not lo <= path[0] <= hi:
        raise ValueError("path must start inside [lo, hi]")
    p = path.tolist()
    x, l_lo, l_hi = [p[0]], [0.0], [0.0]
    for prev, cur in zip(p, p[1:]):
        y = x[-1] + cur - prev
        x.append(min(max(y, lo), hi))
        l_lo.append(l_lo[-1] + max(0.0, lo - y))
        l_hi.append(l_hi[-1] + max(0.0, y - hi))
    return np.array(x, dtype=float), np.array(l_lo), np.array(l_hi)


@dataclass
class SdeConfig:
    r: int
    beta: float
    sigma: float
    dt: float
    h: Hamiltonian
    seed: int = 0
    horizon_t: float = 1.0
    # "closed_form" evaluates drift_b at the current state; "limit" uses the
    # large-r drift -beta * gradient (the two differ at small r)
    drift: str = "closed_form"

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"r must be at least 1, got {self.r}")
        for name in ("beta", "sigma", "dt", "horizon_t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.drift not in ("closed_form", "limit"):
            raise ValueError(f"unknown drift {self.drift!r}")

    @property
    def steps(self) -> int:
        """Euler-Maruyama steps to reach the horizon."""
        return horizon_steps(self.dt, self.horizon_t)

    def drift_kernel(self, x: np.ndarray) -> np.ndarray:
        if self.drift == "closed_form":
            return drift_b(self.h, x, self.beta)
        return limit_drift(self.h, x, self.beta)


@dataclass
class SdeState:
    x: np.ndarray  # one (r, r) kernel's values, or an (R, r, r) stack of replicas
    l0: np.ndarray
    l1: np.ndarray
    t: float = 0.0

    @classmethod
    def initial(cls, init: StepKernel) -> "SdeState":
        return cls(init.values, np.zeros((init.r, init.r)), np.zeros((init.r, init.r)), 0.0)


@lru_cache(maxsize=None)
def _strict_lower(r: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(r, -1)


def _fill_symmetric_noise(streams, out: np.ndarray) -> np.ndarray:
    """Fill each r x r slice of out from its own stream with one standard
    normal per unordered pair, mirrored across the diagonal; return out."""
    for g, buf in zip(streams, out):
        g.standard_normal(out=buf)
    lo, hi = _strict_lower(out.shape[-1])
    out[..., lo, hi] = out[..., hi, lo]
    return out


def em_step(state: SdeState, cfg: SdeConfig, drift: np.ndarray,
            noise: np.ndarray | None) -> SdeState:
    """One projected Euler-Maruyama step with local-time bookkeeping.

    x moves by the given (r, r) drift and, when sigma > 0, by the given
    symmetric noise, which has the state's shape: one kernel's (r, r) or a
    replica stack's (R, r, r), so that each replica moves by its own draw.
    The result is clipped onto [0, 1] and the clipped overshoot is added to
    the local times.
    """
    if cfg.sigma and (shape := getattr(noise, "shape", None)) != state.x.shape:
        raise ValueError(f"sigma = {cfg.sigma} needs a noise of the state's shape "
                         f"{state.x.shape}, got {shape}")
    y = state.x + drift * cfg.dt
    if cfg.sigma:
        y = y + cfg.sigma * math.sqrt(cfg.dt) * noise
    below = np.maximum(0.0, -y)
    above = np.maximum(0.0, y - 1.0)
    # symmetric and in [0, 1] by construction: x, drift and noise are symmetric
    return SdeState(np.clip(y, 0.0, 1.0), state.l0 + below, state.l1 + above, state.t + cfg.dt)


@np.errstate(over="ignore", invalid="ignore")  # run_sde's guard names an overflow
def _fro_norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) of a C-contiguous array, bit for bit, without its
    call overhead or its overflow warning."""
    x = x.ravel()
    return math.sqrt(float(x.dot(x)))


@dataclass(frozen=True)
class SdeRecord:
    step: int
    t: float
    x: StepKernel
    energy: float
    l0_norm: float
    l1_norm: float


def run_sde(
    cfg: SdeConfig,
    init: StepKernel,
    observers=(),
    replicas: int = 1,
    record_every: int = 1,
) -> list[SdeRecord]:
    """Integrate to the horizon; with replicas > 1, report the replica mean.

    Replicas start from the same init, receive independent noise from streams
    split off cfg.seed, and share the drift evaluated at their entrywise mean
    state (the finite-sample stand-in for the law-coupled drift).  They move
    as one (R, r, r) stack, one em_step per time step.  Recorded kernels are
    the replica means.  A numeric guard tripped inside a step names the step.
    The first step with dt * max|drift| above DT_STABILITY_FRACTION warns,
    once per run.
    """
    if init.r != cfg.r:
        raise ValueError("init block count differs from config r")
    init = StepKernel(init.values)  # a start outside [0, 1] is refused
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(replicas)]
    shape = (replicas, cfg.r, cfg.r)

    def mean(stack: np.ndarray) -> np.ndarray:
        return stack.sum(axis=0) / replicas

    def states():
        state = SdeState(np.broadcast_to(init.values, shape).copy(), np.zeros(shape),
                         np.zeros(shape))
        noise = np.empty(shape) if cfg.sigma else None
        warned = False
        for k in itertools.count(1):  # the step being made
            x_mean = mean(state.x)
            yield state, x_mean
            drift = cfg.drift_kernel(x_mean)
            if not warned and (reach := np.abs(drift).max() * cfg.dt) > DT_STABILITY_FRACTION:
                warned = True
                warnings.warn(f"dt * max|drift| = {reach:.3g} at step {k} exceeds "
                              f"{DT_STABILITY_FRACTION}; step size is coarse for this drift "
                              f"(warned once per run)")
            state = em_step(state, cfg, drift,
                            _fill_symmetric_noise(streams, noise) if cfg.sigma else None)

    def record(k: int, run) -> SdeRecord:
        state, x_mean = run
        x = StepKernel._trusted(x_mean)
        norms = [_fro_norm(mean(local)) for local in (state.l0, state.l1)]
        for name, norm in zip(("L0_fro", "L1_fro"), norms):
            if not math.isfinite(norm):
                raise FloatingPointError(f"step {k}: local-time norm {name} = {norm} is not finite")
        return SdeRecord(k, state.t, x, cfg.h.evaluate(x), *norms)

    return drive(cfg.steps, states(), record, observers, record_every)
