"""Closed-form consequences of a skewed post-selected channel.

A noisy channel deselects its mismatch outcomes only partially, which boosts
the odds of the selected outcome by a fixed factor Omega (the skew).  All the
quantities here are functions of that single factor: boosted success odds,
inconclusive-outcome suppression, entropy changes of a skewed ensemble,
work extraction, error-correction fidelity, and the recursion for chains of
parity-coupled channels.  Entropies are in nats and temperature factors are
set to one throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import with_reference
from .engine import _DELTA_FORM, Classical, ExactBell, NoisyBell, _hermitian, _real, _unit_interval
from .errors import ConfigError, InfiniteSkew, LabelError, ParadoxError, _shown
from .states import DensityOperator, complex_array, unit_vector


def skew_factor(model):
    """Odds boost Omega of the selected outcome for a noise model.

    NoisyBell(lam): Omega = 4/lam - 3.  Classical(k): Omega = 1/k - 1, for k <= 1/2:
    past 1/2 a flip is likelier than a keep, and Omega < 1 is no skew factor.
    Zero noise means perfect post-selection and a diverging skew, signalled
    with InfiniteSkew; a parameter the model's run rejects is a ConfigError.
    """
    if isinstance(model, NoisyBell):
        lam = model._params(None)
        if lam == 0.0:
            raise InfiniteSkew("noiseless pair projection has unbounded skew")
        return 4.0 / lam - 3.0
    if isinstance(model, Classical):
        k = model._params(None)
        if k == 0.0:
            raise InfiniteSkew("error-free classical channel has unbounded skew")
        if k > 0.5:
            raise ConfigError("a classical skew factor needs flip rate k <= 1/2, got %r" % (k,))
        return 1.0 / k - 1.0
    if isinstance(model, ExactBell):
        raise InfiniteSkew("exact post-selection has unbounded skew")
    raise ConfigError("no skew factor defined for %s" % _shown(model))


def compose_skew(omegas):
    """Skew of independent channels applied in series: the product (InfiniteSkew past floats)."""
    try:
        return _check_skew(math.prod(map(_check_skew, omegas), start=1.0))
    except TypeError:  # not iterable
        raise ConfigError("skew factors must be a list, got %s" % _shown(omegas)) from None


def boosted_success(p, omega):
    """Post-selected success probability of a trial with raw probability p."""
    p = _unit_interval(p, "probability")
    omega = _check_skew(omega)
    return omega * p / (omega * p + 1.0 - p)


def povm_inconclusive(p_inconclusive, omega):
    """Skewed probability of the inconclusive POVM outcome.

    The conclusive outcomes are the selected ones, so the inconclusive rate
    is suppressed: p / (p + Omega * (1 - p)).
    """
    p_inconclusive = _unit_interval(p_inconclusive, "probability")
    omega = _check_skew(omega)
    return p_inconclusive / (p_inconclusive + omega * (1.0 - p_inconclusive))


def discrimination_stats(overlap, theta, omega):
    """Unambiguous state discrimination of |a>, |b> with a skewed retry loop.

    overlap is Re<a|b>; the optimal single-shot inconclusive rate is that
    overlap.  Pre-rotating both states by theta trades conclusive rate for
    inconclusive rate as p_n(theta) = 4 p_n cos^2(theta) / (2 + 2*overlap),
    and the expected number of discarded copies per conclusive event is
    w(theta) = 1 - p_n(theta) + skewed p_n(theta).
    """
    p_n = _unit_interval(overlap, "probability")
    omega = _check_skew(omega)
    theta = _real(theta, "rotation angle theta")
    if not math.isfinite(theta):
        raise ConfigError("rotation angle theta must be finite, got %r" % (theta,))
    p_theta = 4.0 * p_n * math.cos(theta) ** 2 / (2.0 + 2.0 * p_n)
    p_bar = povm_inconclusive(p_theta, omega)
    return {
        "p_inconclusive": p_theta,
        "p_inconclusive_skewed": p_bar,
        "waste": 1.0 - p_theta + p_bar,
    }


def entropy_skew(a, s0, omega):
    """Entropy change when one ensemble member's odds are boosted by Omega.

    The member has weight a; the ensemble entropy before skewing is s0 (nats).
    Z' = (Omega - 1) a + 1 is the acceptance factor.  Omega = 1 gives exactly
    zero.
    """
    a, s0 = _real(a, "member weight a"), _real(s0, "ensemble entropy s0")
    if not 0.0 < a < 1.0:
        raise ConfigError("member weight a must lie in (0, 1)")
    if not math.isfinite(s0):
        raise ConfigError("ensemble entropy s0 must be finite, got %r" % (s0,))
    omega = _check_skew(omega)
    if omega == 1.0:
        return 0.0
    zp = (omega - 1.0) * a + 1.0
    return (
        (1.0 / zp - 1.0) * (s0 + math.log(a))
        + math.log(zp)
        - (a / zp) * omega * math.log(omega)
    )


def entropy_skew_max(omega):
    """Member weight at which selection reduces the ensemble entropy the most.

    Returns (a_max, z_max, delta_s_max) for a member drawn from a uniform
    ensemble (s0 = -ln a); delta_s_max <= 0 is the deepest entropy change.
    At Omega = 1 everything degenerates smoothly to (1/2, 1, 0).
    """
    omega = _check_skew(omega)
    if omega == 1.0:
        return 0.5, 1.0, 0.0
    z_max = omega / (omega - 1.0) * math.log(omega)
    a_max = (z_max - 1.0) / (omega - 1.0)  # no (omega - 1)^2, which overflows past 1e154
    delta_s_max = math.log(z_max) - z_max + 1.0
    return a_max, z_max, delta_s_max


def szilard_work(x, omega):
    """Expected work (in units of k_B T) of a single-particle engine cycle.

    The partition sits at position x; the channel skews the odds of finding
    the particle on the left.  Without skew (Omega = 1, x = 1/2) the cycle
    extracts nothing.  The skewed channel itself can deliver at most
    ln(Omega) per use, returned as the second element.
    """
    x = _real(x, "partition position x")
    if not 0.0 < x < 1.0:
        raise ConfigError("partition position must lie in (0, 1)")
    omega = _check_skew(omega)
    p_left = omega * x / ((omega - 1.0) * x + 1.0)
    work = -p_left * math.log(x) - (1.0 - p_left) * math.log(1.0 - x) - math.log(2.0)
    return work, math.log(omega)


def ec_fidelity(eps, n):
    """Fidelity of the parity error-correcting loop with n + 1 carrier qubits.

    Each carrier flips independently with probability eps; the loop deselects
    odd-parity histories, leaving the all-good amplitude against the
    n-fold error amplitude: 1 / (1 + r), r = eps^n / (1-eps)^(n+1) taken in logs.
    """
    eps, n = _unit_interval(eps, "probability"), _real(n, "redundant qubit count n")
    if n < 1 or not n.is_integer():
        raise ConfigError("need at least one redundant qubit" if n < 1 else
                          "redundant qubit count n must be a whole number, got %r" % (n,))
    if eps in (0.0, 1.0):
        return 1.0 - eps
    log_ratio = n * (math.log(eps) - math.log1p(-eps)) - math.log1p(-eps)
    return 0.0 if log_ratio > 709.0 else 1.0 / (1.0 + math.exp(log_ratio))


def parity_recursion(alphas):
    """Signal/noise recursion for a chain of parity-coupled channels.

    Channel m is driven by a control with weight alpha_m^2 on the preserving
    branch.  E^2 tracks the even-parity (signal) weight:
        E^2_{m+1} = E^2_m a^2_{m+1} + D^2_m (1 - a^2_{m+1}),   D^2 = 1 - E^2.
    The chain behaves like a classical channel with effective flip rate
    k_eff = D^2, and the bias eps_m = E^2_m - 1/2 obeys
    eps_m = (2 a^2_m - 1) eps_{m-1}.  Returns a dict with the trajectories.
    """
    try:
        alphas = [_real(a, "control amplitude") for a in alphas]
    except TypeError:  # not iterable
        raise ConfigError("control weights must be a list, got %s" % _shown(alphas)) from None
    if not alphas:
        raise ConfigError("need at least one control weight")
    e2 = 1.0
    e2_path, bias_path = [], []
    for a in alphas:
        a2 = a * a
        if not 0.0 <= a2 <= 1.0 + 1e-12:
            raise ConfigError("control amplitudes must satisfy |alpha| <= 1")
        e2 = e2 * a2 + (1.0 - e2) * (1.0 - a2)
        e2_path.append(e2)
        bias_path.append(e2 - 0.5)
    return {
        "e2": e2,
        "d2": 1.0 - e2,
        "k_eff": 1.0 - e2,
        "e2_path": e2_path,
        "bias_path": bias_path,
    }


def search_error_rates(p0, boost_rate, t, gamma, p_step):
    """Residual error rates of a skew-boosted search against a Chernoff bound.

    A candidate with prior p0 is amplified for time t at exponential rate
    boost_rate; the probability that the channel settled on a wrong candidate
    is about half the inverse boosted odds.  A classical repetition test with
    per-step success p_step > 1/2 and rate gamma decays by the Chernoff
    exponent instead.  Returns (eps_skew, eps_chernoff).
    """
    p0, p_step = _unit_interval(p0, "probability"), _unit_interval(p_step, "probability")
    if not 0.0 < p0 < 1.0:
        raise ConfigError("prior must lie strictly in (0, 1)")
    boost_rate, t, gamma = map(_real, (boost_rate, t, gamma), ("boost rate", "time t", "gamma"))
    if not (math.isfinite(boost_rate) and 0.0 <= t < math.inf and 0.0 <= gamma < math.inf):
        raise ConfigError("boost rate must be finite, time t and rate gamma finite and >= 0, "
                          "got %r, %r, %r" % (boost_rate, t, gamma))
    log_odds = boost_rate * t + math.log(p0 / (1.0 - p0))  # e^709 is near the float maximum
    eps_skew = 0.0 if log_odds > 709.0 else 0.5 / (math.exp(log_odds) + 1.0)
    eps_chernoff = math.exp(-2.0 * (p_step - 0.5) ** 2 * gamma * t)
    return eps_skew, eps_chernoff


def weak_average(op, state_pre, state_post, omega):
    """Skewed weak value of `op` between pre- and post-selected states.

    Mixes the matched and orthogonal post-selections with relative weight
    Omega on the matched branch: (Omega <f|A|i> + <f_perp|A|i>) / (Omega + 1).
    """
    omega = _check_skew(omega)
    op = complex_array(op, 2, "operator")
    pre = unit_vector(state_pre, "pre-selected state")
    post = unit_vector(state_post, "post-selected state")
    # any unit vector orthogonal to the post-selected state (d = 2 only)
    if (op.shape, pre.shape, post.shape) != ((2, 2), (2,), (2,)):
        raise ConfigError("weak averages implemented for single qubits")
    perp = np.array([-post[1].conj(), post[0].conj()])
    return (omega * np.vdot(post, op @ pre) + np.vdot(perp, op @ pre)) / (omega + 1.0)


def flip_probability(result, channel_a, channel_b=None):
    """Probability that two recorder channels disagree (or that one reads 1).

    Reads the diagonal of the result's external density operator.  With one
    channel given, returns P(channel = 1).
    """
    rho = getattr(result, "rho", None)
    if not isinstance(rho, DensityOperator):
        raise ConfigError("flip_probability needs a run result, got %s" % _shown(result))
    n = rho.n_qubits
    diag = np.real(np.diag(rho.mat))

    def bits(label):
        if not isinstance(label, str) or label not in rho.labels:  # an array compares elementwise
            raise LabelError("no external channel labeled %s" % _shown(label))
        return (np.arange(2**n) >> (n - 1 - rho.labels.index(label))) & 1

    if channel_b is None:
        return float(diag[bits(channel_a) == 1].sum())
    return float(diag[bits(channel_a) != bits(channel_b)].sum())


def input_bias(circuit, channel, model, nodes=64):
    """Acceptance-weighted average input state of one external channel.

    The exact average of the channel's input |psi><psi| over the flat measure
    (polar angle on [0, pi], phase on [0, 2*pi]), weighted by the model's
    acceptance rate Z(psi); an unbiased channel gives I/2.  A model without a
    `run` method is a ConfigError.  `nodes` is read by nothing: the average
    needs no grid, and the keyword stays only for callers that still pass it.

    Z(psi) = psi^dagger M psi, as the circuit is linear in psi and every Z is a
    weighted sum of squared norms.  One run, with the channel in a Bell pair with
    a fresh reference qubit (circuit.with_reference), fixes M = 2 Z rho_ref^T; when
    it is a paradox, so is every input.  M is contracted with the moments _DELTA_FORM.
    """
    if not callable(getattr(model, "run", None)):
        raise ConfigError("input_bias needs a channel model with a run method, got %s"
                          % _shown(model))
    try:
        result = model.run(with_reference(circuit, channel))
    except ParadoxError:
        raise ParadoxError("every input state of channel %r is a paradox"
                           % (channel,)) from None
    return DensityOperator(_flat_average(result), (channel,))


def _reference_form(probe_result):
    """rho_ref^T = M / (2 Z) of a with_reference probe's run: its trailing qubit."""
    d = len(probe_result.rho.mat) // 2
    return np.einsum("iaib->ba", probe_result.rho.mat.reshape(d, 2, d, 2))


def _flat_average(probe_result):
    """The flat average of |psi><psi| weighted by Z(psi) = psi^dagger M psi, trace 1."""
    # as (2, 2, 2, 2), _DELTA_FORM holds the moments int c_a c_b* c_c* c_d
    num = (_DELTA_FORM @ _reference_form(probe_result).reshape(-1)).reshape(2, 2)
    return _hermitian(num, np.trace(num).real)


def _check_skew(omega):
    """`omega` as a float, else ConfigError unless >= 1 (nan is not); inf is InfiniteSkew."""
    value = _real(omega, "skew factor")
    if not value >= 1.0:
        raise ConfigError("skew factors are >= 1, got %r" % (omega,))
    if value == math.inf:
        raise InfiniteSkew("skew factor %r is unbounded" % (omega,))
    return value

