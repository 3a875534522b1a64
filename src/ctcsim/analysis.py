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
import numbers

import numpy as np

from .circuit import with_init
from .engine import Classical, ExactBell, NoisyBell, _check_grid, _flat_moments, _hermitian
from .errors import ConfigError, InfiniteSkew, LabelError, NumericsError, ParadoxError
from .states import DensityOperator


def skew_factor(model):
    """Odds boost Omega of the selected outcome for a noise model.

    NoisyBell(lam): Omega = 4/lam - 3.  Classical(k): Omega = 1/k - 1.
    Zero noise means perfect post-selection and a diverging skew, signalled
    with InfiniteSkew.
    """
    if isinstance(model, NoisyBell):
        if model.lam <= 0:
            raise InfiniteSkew("noiseless pair projection has unbounded skew")
        return 4.0 / model.lam - 3.0
    if isinstance(model, Classical):
        if model.k <= 0:
            raise InfiniteSkew("error-free classical channel has unbounded skew")
        return 1.0 / model.k - 1.0
    if isinstance(model, ExactBell):
        raise InfiniteSkew("exact post-selection has unbounded skew")
    raise ConfigError("no skew factor defined for %r" % (model,))


def compose_skew(omegas):
    """Skew of independent channels applied in series: the product."""
    out = 1.0
    for om in omegas:
        if om < 1.0:
            raise ConfigError("skew factors are >= 1")
        out *= om
    return out


def boosted_success(p, omega):
    """Post-selected success probability of a trial with raw probability p."""
    _check_prob(p)
    return omega * p / (omega * p + 1.0 - p)


def povm_inconclusive(p_inconclusive, omega):
    """Skewed probability of the inconclusive POVM outcome.

    The conclusive outcomes are the selected ones, so the inconclusive rate
    is suppressed: p / (p + Omega * (1 - p)).
    """
    _check_prob(p_inconclusive)
    return p_inconclusive / (p_inconclusive + omega * (1.0 - p_inconclusive))


def discrimination_stats(overlap, theta, omega):
    """Unambiguous state discrimination of |a>, |b> with a skewed retry loop.

    overlap is Re<a|b>; the optimal single-shot inconclusive rate is that
    overlap.  Pre-rotating both states by theta trades conclusive rate for
    inconclusive rate as p_n(theta) = 4 p_n cos^2(theta) / (2 + 2*overlap),
    and the expected number of discarded copies per conclusive event is
    w(theta) = 1 - p_n(theta) + skewed p_n(theta).
    """
    p_n = float(overlap)
    _check_prob(p_n)
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
    if not 0.0 < a < 1.0:
        raise ConfigError("member weight a must lie in (0, 1)")
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
    if omega < 1.0:
        raise ConfigError("skew factors are >= 1")
    if omega == 1.0:
        return 0.5, 1.0, 0.0
    a_max = (1.0 - omega + omega * math.log(omega)) / (omega - 1.0) ** 2
    z_max = omega * math.log(omega) / (omega - 1.0)
    delta_s_max = math.log(z_max) - z_max + 1.0
    return a_max, z_max, delta_s_max


def szilard_work(x, omega):
    """Expected work (in units of k_B T) of a single-particle engine cycle.

    The partition sits at position x; the channel skews the odds of finding
    the particle on the left.  Without skew (Omega = 1, x = 1/2) the cycle
    extracts nothing.  The skewed channel itself can deliver at most
    ln(Omega) per use, returned as the second element.
    """
    if not 0.0 < x < 1.0:
        raise ConfigError("partition position must lie in (0, 1)")
    p_left = omega * x / ((omega - 1.0) * x + 1.0)
    work = -p_left * math.log(x) - (1.0 - p_left) * math.log(1.0 - x) - math.log(2.0)
    return work, math.log(omega)


def ec_fidelity(eps, n):
    """Fidelity of the parity error-correcting loop with n + 1 carrier qubits.

    Each carrier flips independently with probability eps; the loop deselects
    odd-parity histories, leaving the all-good amplitude against the
    n-fold error amplitude: (1-eps)^(n+1) / ((1-eps)^(n+1) + eps^n).
    """
    _check_prob(eps)
    if n < 1:
        raise ConfigError("need at least one redundant qubit")
    good = (1.0 - eps) ** (n + 1)
    return good / (good + eps**n)


def parity_recursion(alphas):
    """Signal/noise recursion for a chain of parity-coupled channels.

    Channel m is driven by a control with weight alpha_m^2 on the preserving
    branch.  E^2 tracks the even-parity (signal) weight:
        E^2_{m+1} = E^2_m a^2_{m+1} + D^2_m (1 - a^2_{m+1}),   D^2 = 1 - E^2.
    The chain behaves like a classical channel with effective flip rate
    k_eff = D^2, and the bias eps_m = E^2_m - 1/2 obeys
    eps_m = (2 a^2_m - 1) eps_{m-1}.  Returns a dict with the trajectories.
    """
    alphas = [float(a) for a in alphas]
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
    _check_prob(p0)
    if not 0.0 < p0 < 1.0:
        raise ConfigError("prior must lie strictly in (0, 1)")
    eps_skew = 0.5 / (math.exp(boost_rate * t) * p0 / (1.0 - p0) + 1.0)
    eps_chernoff = math.exp(-2.0 * (p_step - 0.5) ** 2 * gamma * t)
    return eps_skew, eps_chernoff


def weak_average(op, state_pre, state_post, omega):
    """Skewed weak value of `op` between pre- and post-selected states.

    Mixes the matched and orthogonal post-selections with relative weight
    Omega on the matched branch: (Omega <f|A|i> + <f_perp|A|i>) / (Omega + 1).
    """
    op = np.asarray(op, dtype=complex)
    pre = np.asarray(state_pre, dtype=complex)
    post = np.asarray(state_post, dtype=complex)
    post = post / np.linalg.norm(post)
    pre = pre / np.linalg.norm(pre)
    # any unit vector orthogonal to the post-selected state (d = 2 only)
    if post.shape != (2,):
        raise ConfigError("weak averages implemented for single qubits")
    perp = np.array([-post[1].conj(), post[0].conj()])
    return (omega * np.vdot(post, op @ pre) + np.vdot(perp, op @ pre)) / (omega + 1.0)


def flip_probability(result, channel_a, channel_b=None):
    """Probability that two recorder channels disagree (or that one reads 1).

    Reads the diagonal of the result's external density operator.  With one
    channel given, returns P(channel = 1).
    """
    rho = result.rho
    n = rho.n_qubits
    diag = np.real(np.diag(rho.mat))

    def bits(label):
        if label not in rho.labels:
            raise LabelError("no external channel labeled %r" % (label,))
        return (np.arange(2**n) >> (n - 1 - rho.labels.index(label))) & 1

    if channel_b is None:
        return float(diag[bits(channel_a) == 1].sum())
    return float(diag[bits(channel_a) != bits(channel_b)].sum())


def input_bias(circuit, channel, model, nodes=64):
    """Acceptance-weighted average input state of one external channel.

    Scans the channel's input over the flat single-qubit measure (polar angle
    on [0, pi], phase on [0, 2*pi]) and averages |psi><psi| weighted by the
    model's acceptance rate Z(psi).  A channel that deselects nothing returns
    the unbiased I/2.  Inputs that make the circuit a paradox weigh 0; when
    every input does, ParadoxError.  Halving the node count must agree to
    1e-6, otherwise NumericsError; the average is of degree 4 in the input's
    amplitudes, which the flat-measure grid integrates exactly from 3 nodes,
    so any `nodes` from 6 passes.  A `nodes` that is not a whole number, is
    below 2 or makes a grid past the 2**20 cap is a ConfigError before any
    model run.

    The circuit is linear in the channel's amplitudes and every model's Z is
    a weighted sum of squared norms, so Z(psi) = psi^dagger M psi: four runs,
    on |0>, |1>, |+> and |+i>, fix the 2x2 form M, and the average is M
    contracted with the grid's cached degree-4 moments, as in the delta model.
    """
    if isinstance(nodes, numbers.Real) and nodes < 2:
        raise ConfigError("input_bias needs at least 2 nodes, got %r" % (nodes,))
    _check_grid(nodes, nodes)  # a non-number is named here, before any model run
    h = 2**-0.5
    z0, z1, zp, zi = (_acceptance(circuit, channel, model, amps)
                      for amps in ((1, 0), (0, 1), (h, h), (h, 1j * h)))
    # Z(a|0> + b|1>) = z0 |a|^2 + z1 |b|^2 + 2 Re(conj(a) b m01)
    m01 = zp - (z0 + z1) / 2 - 1j * (zi - (z0 + z1) / 2)
    form = np.array([[z0, m01], [np.conj(m01), z1]])
    fine = _input_bias_once(form, channel, nodes)
    coarse = _input_bias_once(form, channel, nodes // 2)
    if np.max(np.abs(fine - coarse)) > 1e-6:
        raise NumericsError("input-bias quadrature did not converge at %d nodes" % nodes)
    return DensityOperator(fine, (channel,))


def _acceptance(circuit, channel, model, amps):
    """Z of the circuit with `channel` started in `amps`; 0 for a paradox."""
    try:
        return model.run(with_init(circuit, channel, amps)).z
    except ParadoxError:
        return 0.0


def _input_bias_once(form, channel, nodes):
    num = _hermitian((_flat_moments(nodes, nodes)[0] @ form.reshape(-1)).reshape(2, 2))
    den = np.trace(num).real
    if den == 0.0:
        raise ParadoxError("every input state of channel %r is a paradox" % (channel,))
    return num / den


def _check_prob(p):
    if not 0.0 <= p <= 1.0:
        raise ConfigError("probability out of range: %r" % (p,))
