"""Post-selection engine for circuits with looped (time-machine) channels.

The exact model appends one maximally entangled reference pair per looped
channel, runs the gate list (which never touches the reference qubits), and
projects every pair back onto the same entangled state.  The squared norm of
the surviving amplitude is the acceptance rate Z = N^2; a vanishing norm is a
paradox.  The other models relax the projection:

* noisy pairs -- each pair is projected onto the full entangled basis and the
  four outcomes are mixed with weights (1 - 3*lam/4) on the matched outcome
  and lam/4 on each of the three others, independently per channel;
* classical channel -- the loop register is replaced by classical histories
  over computational eigenstates, weight (1-k) per preserved bit and k per
  flipped bit (product over loop qubits), or a flat k/d floor over diagonal
  histories when floor=True;
* weight matrix -- arbitrary nonnegative weights over (emerging, entering)
  eigenstate pairs, with flat / quad / delta built-ins;
* delta quadrature -- the continuous single-qubit loop boundary condition
  |phi> = cos(theta)|0> + e^{i xi} sin(theta)|1>, integrated over the flat
  measure d(theta) d(xi) on [0, pi] x [0, 2*pi] (not the Haar measure; the
  flat measure is what the closed forms in the catalog assume).  The grid is
  a midpoint rule in theta and a periodic trapezoid in xi; every integrand is
  a low-degree trigonometric polynomial, so both rules are exact from a few
  nodes on.  Z, rho and rho_loop see the nodes only through fixed moments,
  each a theta-sum times a xi-sum, which are built once per grid and cached.

One evolution feeds every model: by channel-state duality (Lloyd et al.,
arXiv:1007.2615) the evolved pair state holds every pair-basis outcome and
every eigenstate history, and a custom boundary pair is the Bell pair with a
local operator on its loop wire.  A 4x4 change of basis along each pair axis
gives the projection table; regrouping reference and loop bits gives the
history tensor.  The evolution is one call of the raw-array gate kernel
`states.apply_gates`, which checks labels and finiteness once, on the evolved
state; `circuit.compile_unitary` shares none of it and stays the independent
oracle.  Each model is then one contraction of these arrays into a weighted,
unnormalized operator on the externals.  Every runner, the loop-free
`run_conditional` included, finishes in `_post_select`: Z is its trace, Z
(exact model: the survival amplitude) below the tolerance is a paradox in the
model's own words with its own pair table, and rho and rho_loop are divided by Z.

Z conventions: exact/noisy values include the 2^-m normalization of the m
reference pairs; weight-matrix weights are normalized to sum d except for the
delta built-in, which carries the flat-measure constant so that it equals the
quadrature Z exactly; classical product weights carry no extra constant.
Reported density operators are always trace-1, with Z separate.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .circuit import REF_SUFFIX, evolve
from .errors import ConfigError, NoCtcError, ParadoxError, UnsupportedError
from .gates import make_gate
from .states import (
    DEFAULT_PARADOX_TOL,
    DensityOperator,
    PureState,
    apply_gate,
    complex_array,
    normalized_amplitudes,
)

TOLERANCE_ENV_VAR = "CTC_SIM_TOLERANCE"

_SQ2 = 2**-0.5
# Orthonormal basis of a reference pair, keyed by outcome label.  "B" is the
# matched (consistent-history) outcome; "-" flips the relative phase; "N"
# negates the bit; "-N" does both.
PAIR_BASIS = {
    "B": np.array([_SQ2, 0, 0, _SQ2], dtype=complex),
    "-": np.array([_SQ2, 0, 0, -_SQ2], dtype=complex),
    "N": np.array([0, _SQ2, _SQ2, 0], dtype=complex),
    "-N": np.array([0, _SQ2, -_SQ2, 0], dtype=complex),
}
PAIR_LABELS = ("B", "-", "N", "-N")
# rows are the conjugated basis vectors: contracting a pair axis with this
# matrix projects the pair onto all four outcomes at once
_PAIR_BRAS = np.array([PAIR_BASIS[label] for label in PAIR_LABELS]).conj()


def resolve_tolerance(tol=None):
    """Paradox tolerance: explicit argument, else environment, else 1e-12.

    A tolerance that is not a finite positive number would switch the paradox
    check off, so it raises ConfigError wherever it comes from.
    """
    where = "tolerance"
    if tol is None:
        tol = os.environ.get(TOLERANCE_ENV_VAR)
        if not tol:
            return DEFAULT_PARADOX_TOL
        where = "%s value" % TOLERANCE_ENV_VAR
    try:
        value = float(tol)
    except (TypeError, ValueError):
        raise ConfigError("bad %s %r" % (where, tol)) from None
    if not 0.0 < value < math.inf:
        raise ConfigError("%s %r is not a finite positive number" % (where, tol))
    return value


def _real(value, what):
    """float(value), else ConfigError naming `what`."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("%s must be a real number, got %r" % (what, value)) from None


@dataclass(frozen=True)
class ProjectionEntry:
    label: str  # comma-joined per-channel outcome labels, e.g. "B" or "B,N"
    state: PureState  # unnormalized surviving state on the external channels
    weight: float  # squared norm of that state


@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """Labelled outcomes, one row of surviving external amplitudes each.

    Labels and ProjectionEntry objects are built on first read; `[label]`
    builds only the entry it returns.
    """

    amps: np.ndarray  # (outcomes, 2^e) unnormalized external amplitudes
    weights: np.ndarray  # (outcomes,) weight of each outcome
    make_labels: object  # zero-argument callable: outcome labels in row order
    channel_order: tuple  # looped channel labels, declaration order
    ext_labels: tuple  # external qubits of each row, declaration order

    @functools.cached_property
    def labels(self):
        return tuple(self.make_labels())

    @functools.cached_property
    def entries(self):
        return tuple(map(self._entry, range(len(self.weights))))

    def _entry(self, i):
        return ProjectionEntry(self.labels[i], PureState(self.amps[i], self.ext_labels),
                               float(self.weights[i]))

    def __getitem__(self, label):
        if label not in self.labels:
            raise KeyError(label)
        return self._entry(self.labels.index(label))

    @property
    def total_weight(self):
        return float(self.weights.sum())


@dataclass(frozen=True)
class PostSelectionResult:
    model: str
    z: float
    rho: DensityOperator  # trace-1, on the external channels (declaration order)
    n: float = None  # survival amplitude norm, exact model only
    rho_loop: DensityOperator = None  # loop-register state, where defined
    projections: ProjectionSet = None
    metadata: dict = field(default_factory=dict)


def _require_loops(circuit):
    loops = circuit.loop_labels
    if not loops:
        raise NoCtcError("circuit has no looped channel")
    return loops


def pair_out_state(circuit):
    """Bell pairs (reference, loop) per loop, then the externals, as one outer product."""
    loops, ext = _require_loops(circuit), circuit.initial_external_state()
    amps = functools.reduce(np.multiply.outer, [PAIR_BASIS["B"]] * len(loops) + [ext.amps])
    labels = [label for loop in loops for label in (loop + REF_SUFFIX, loop)]
    return PureState(amps.reshape(-1), (*labels, *ext.labels))


def _evolved_pairs(circuit):
    """The one evolution of a run: amplitudes of shape (4,)*m + (2^e,).

    Axis q indexes pair q as 2 * reference bit + loop bit; the last axis is the
    external register in declaration order.
    """
    state = evolve(pair_out_state(circuit), circuit)
    return state.amps.reshape((4,) * len(circuit.loop_labels) + (-1,))


def _history_tensor(t):
    """A[i, j]: unnormalized external state of the loop history e_i -> e_j.

    `t` is the evolved pair tensor.  Its reference pair records the emerging
    eigenstate e_i, so A[i, j] = sqrt(d) * <ref = i, loop = j| evolved pair state.
    """
    m = t.ndim - 1
    d = 2**m
    # (ref_1, loop_1, ..., ref_m, loop_m, ext) -> (ref bits, loop bits, ext)
    t = t.reshape((2,) * (2 * m) + (-1,))
    t = t.transpose(tuple(range(0, 2 * m, 2)) + tuple(range(1, 2 * m, 2)) + (2 * m,))
    # dividing by the pair amplitude 1/sqrt(2) per pair, rather than multiplying
    # by sqrt(d), cancels its rounding in the consistent histories
    return t.reshape(d, d, -1) / _SQ2**m


def _hermitian(num):  # a product that is Hermitian only to rounding, made exactly so
    return (num + num.conj().T) / 2


def _mix(rows, form):
    """sum_kl form[k, l] |rows[k]><rows[l]|, exactly Hermitian, for a Hermitian
    form; a vector of weights stands for the diagonal form."""
    return _hermitian((rows.T @ form if form.ndim == 2 else rows.T * form) @ rows.conj())


def _post_select(circuit, model, num, tol, paradox, table=None, n=None, loop=None,
                 pairs=None, **metadata):
    """Finish any run from its weighted operator `num` on the externals.

    Z = tr(num).  `n` (exact model), else Z, below the tolerance raises
    ParadoxError with the `paradox` wording (a %-format over n, z and tol) and
    `table`, or else the pair table of the evolved tensor `pairs` (history
    models); rho and `loop` are divided by Z, and the tolerance ends the metadata.
    rho is exactly [[1]] on a circuit without externals.
    """
    tol = resolve_tolerance(tol)
    z = float(np.trace(num).real)
    if (z if n is None else n) < tol:
        if pairs is not None:  # a history model tables its own evolution
            table = _pair_table(circuit, pairs)
        raise ParadoxError(paradox % {"n": n, "z": z, "tol": tol}, projections=table)
    ext = circuit.external_labels
    return PostSelectionResult(
        model=model, z=z, rho=DensityOperator(num / z if ext else [[1.0]], ext), n=n,
        rho_loop=None if loop is None else DensityOperator(loop / z, circuit.loop_labels),
        projections=table, metadata={**metadata, "tolerance": tol},
    )


def projection_table(circuit):
    """Project the evolved state onto the full pair basis of every loop.

    Returns a ProjectionSet with one entry per outcome label combination
    (4^m entries for m looped channels).  For unitary circuits the weights
    sum to 1 (resolution of the identity on the reference pairs).
    """
    return _pair_table(circuit, _evolved_pairs(circuit))


def _pair_table(circuit, t):
    """The projection table of the evolved pair tensor `t` of `circuit`."""
    loops = circuit.loop_labels
    for _ in loops:  # contract each pair axis with the four outcome bras
        t = np.tensordot(t, _PAIR_BRAS, axes=(0, 1))
    amps = np.ascontiguousarray(np.moveaxis(t, 0, -1)).reshape(4 ** len(loops), -1)
    weights = (amps.real**2 + amps.imag**2).sum(axis=1)
    combos = functools.partial(itertools.product, PAIR_LABELS, repeat=len(loops))
    return ProjectionSet(amps, weights, lambda: map(",".join, combos()), loops,
                         circuit.external_labels)


def run_exact_bell(circuit, tol=None, pair_states=None):
    """Exact post-selected evolution: keep only the matched-pair outcome.

    `pair_states` maps loop labels to custom (reference, loop) pair amplitudes
    chi = (I x K)|B>.  Each runs as the Bell pair with K = sqrt(2) chi.reshape(2, 2).T
    on its loop wire before the gates and K^dagger after them, and reports no table.
    """
    before, after = [], []
    for label in _require_loops(circuit):
        if pair_states and label in pair_states:
            chi = normalized_amplitudes(pair_states[label], 2, "pair state for %r" % (label,))
            k = chi.reshape(2, 2).T / _SQ2
            before.append(make_gate("CUSTOM", (label,), matrix=k))
            after.append(make_gate("CUSTOM", (label,), matrix=k.conj().T))
    table = projection_table(
        replace(circuit, gates=(*before, *circuit.gates, *after)) if before else circuit)
    matched = table.amps[0]  # the all-"B" row
    return _post_select(
        circuit, "exact_bell", np.outer(matched, matched.conj()), tol,
        "matched-pair amplitude %(n).3e below tolerance %(tol).3e: no consistent history",
        None if before else table, n=float(np.linalg.norm(matched)))


def run_noisy_bell(circuit, lam, tol=None):
    """Depolarized pair projection: mix all 4^m outcomes with product weights."""
    lam = _real(lam, "noise parameter lam")
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("noise parameter lam must lie in [0, 1]")
    table = projection_table(circuit)
    per_pair = np.array([1.0 - 0.75 * lam] + [0.25 * lam] * 3)
    w = functools.reduce(np.kron, [per_pair] * len(table.channel_order))
    return _post_select(circuit, "noisy_bell", _mix(table.amps, w), tol,
                        "acceptance rate %(z).3e below tolerance", table, lam=lam)


def loop_histories(circuit):
    """Amplitudes of eigenstate loop histories.

    histories[(i, j)] is the unnormalized external state when the loop
    register emerges as |e_i>, evolves with the externals, and is projected
    onto |e_j> at the end.  Consistent histories are the diagonal i == j.
    """
    a, ext = _history_tensor(_evolved_pairs(circuit)), circuit.external_labels
    d = len(a)
    return {(i, j): PureState(a[i, j], ext) for i in range(d) for j in range(d)}, d


def run_classical(circuit, k, floor=False, tol=None):
    """Classical loop register with bit-flip error rate k.

    floor=False: every (emerging, entering) history (i, j) gets weight
    (1-k)^(#preserved bits) * k^(#flipped bits).  floor=True: only diagonal
    histories carry signal weight (1-k), plus a flat floor k/d of random
    reemission per eigenstate (external register traced over the entering
    state), the convention some closed forms in the catalog use.
    At k = 1/2 (floor=False) the channel is fully unskewed: Z is independent
    of every external input.
    """
    k = _real(k, "flip rate k")
    if not 0.0 <= k <= 1.0:
        raise ConfigError("flip rate k must lie in [0, 1]")
    loops, pairs = circuit.loop_labels, _evolved_pairs(circuit)
    a = _history_tensor(pairs)
    d = len(a)
    rows = a.reshape(d * d, -1)
    if floor:
        # The k/d term is an unconditional random reemission: the loop comes
        # out in |j> regardless of history, so the external register sees the
        # circuit with the entering state traced out rather than matched.
        w = (1.0 - k) * np.eye(d) + k / d
    else:
        flip = np.array([[1.0 - k, k], [k, 1.0 - k]])
        w = functools.reduce(np.kron, [flip] * len(loops))
    hist = w * (a.real**2 + a.imag**2).sum(axis=2)  # weighted history norms
    result = _post_select(circuit, "classical", _mix(rows, w.reshape(-1)), tol,
                          "classical acceptance rate %(z).3e below tolerance", pairs=pairs,
                          loop=np.diag(hist.sum(axis=1)), k=k, floor=bool(floor))
    # the history table rides on the result, the pair table on a paradox;
    # floor=True reports each diagonal history with the weight of its whole row
    keep = np.arange(d) * (d + 1) if floor else np.arange(d * d)
    weights = hist.sum(axis=1) if floor else hist.reshape(-1)
    return replace(result, projections=ProjectionSet(
        rows[keep], weights, lambda: ("%d|%d" % divmod(i, d) for i in keep), loops,
        circuit.external_labels))


_MAX_GRID_NODES = 2**20  # largest n_theta * n_xi of a flat-measure grid
# the one-loop delta form over the histories (00, 01, 10, 11): the flat-measure integral
# of coef coef^dagger, coef = (c_i conj(c_j)), which every grid from 3 x 3 nodes reproduces
_DELTA_FORM = np.pi**2 / 4.0 * np.array([[3.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0],
                                         [0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 3.0]])


def _builtin_omega(name, d):
    if name == "flat":
        return np.full((d, d), 1.0 / d)
    if name == "quad":
        return (2.0 * np.eye(d) + 1.0) / (d + 2.0)
    if name == "delta":
        return np.eye(d)
    raise ConfigError("unknown weight-matrix built-in %r" % (name,))


def run_weight_matrix(circuit, omega="flat", tol=None):
    """Eigenstate-history channel with a weight matrix over history pairs.

    omega[i, j] weighs the history "loop emerges as e_i, returns as e_j".
    Built-ins: "flat" (all histories equal), "quad" (diagonal weighted 3:1),
    "delta" (diagonal only).  Custom matrices are normalized to sum d.

    The delta built-in on a single loop qubit uses the closed form of the
    continuous flat-measure boundary integral, which keeps the coherent cross
    terms between diagonal histories; its Z and rho match run_delta_quadrature
    exactly (measure constant 1).  On larger loop registers delta falls back
    to the incoherent diagonal sum.
    """
    pairs = _evolved_pairs(circuit)
    a = _history_tensor(pairs)
    d = len(a)
    name = omega if isinstance(omega, str) else "custom"
    coherent_delta = name == "delta" and d == 2
    if isinstance(omega, str):
        mat = _builtin_omega(omega, d)
    else:
        try:
            mat = np.asarray(omega, dtype=complex)  # a float cast would drop imaginary parts
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("weight matrix entries must be real numbers") from None
        if mat.shape != (d, d):
            raise ConfigError("weight matrix must be %d x %d" % (d, d))
        if not np.isfinite(mat).all():
            raise ConfigError("weight matrix entries must be finite")
        if mat.imag.any():
            raise ConfigError("weight matrix entries must be real numbers")
        mat = mat.real
        if np.any(mat < 0):
            raise ConfigError("weight matrix entries must be nonnegative")
        # scaling by a power of two is exact and keeps the sum from overflowing
        mat = np.ldexp(mat, -np.frexp(mat.max())[1])
        total = mat.sum()
        if total <= 0:
            raise ConfigError("weight matrix must have positive total weight")
        mat = mat * (d / total)

    if coherent_delta:
        num = _mix(a.reshape(4, -1), _DELTA_FORM)
    else:
        num = _mix(a.reshape(d * d, -1), mat.reshape(-1))
    return _post_select(circuit, "weight_matrix", num, tol,
                        "weighted acceptance rate %(z).3e below tolerance", pairs=pairs,
                        omega=name, coherent_delta=coherent_delta,
                        quadrature_measure_constant=1.0 if coherent_delta else None)


def _check_grid(n_theta, n_xi):
    """The counts as ints; ConfigError unless they are whole, of 1 to 2**20 nodes in all."""
    try:
        whole = n_theta == int(n_theta) and n_xi == int(n_xi)
    except (TypeError, ValueError, OverflowError):  # not a number, nan, +-inf
        whole = False
    if not whole:
        raise ConfigError("quadrature node counts must be whole numbers, got %r and %r"
                          % (n_theta, n_xi))
    if n_theta < 1 or n_xi < 1:
        raise ConfigError("quadrature node counts must be positive")
    n_theta, n_xi = int(n_theta), int(n_xi)
    if n_theta * n_xi > _MAX_GRID_NODES:
        raise ConfigError("quadrature grid n_theta * n_xi exceeds %d nodes" % _MAX_GRID_NODES)
    return n_theta, n_xi


def flat_measure_nodes(n_theta, n_xi):
    """Nodes/weights for the flat measure on [0, pi] x [0, 2*pi].

    Midpoint rule in the polar angle, theta_k = (k + 1/2) * pi / n_theta with
    weight pi / n_theta; uniform (periodic trapezoid) in the phase.  Total
    weight is 2*pi^2.  An integrand of degree D/2 in (c_0, c_1) and D/2 in
    their conjugates is a trigonometric polynomial of frequency at most D/2
    in 2*theta and in xi, which both rules integrate exactly once each node
    count exceeds D/2: from 3 nodes for the delta model's Z and rho (D = 4),
    4 for its rho_loop (D = 6).  At most 2**20 nodes in all.
    """
    n_theta, n_xi = _check_grid(n_theta, n_xi)
    theta = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    w_theta = np.full(n_theta, np.pi / n_theta)
    xi = np.arange(n_xi) * (2.0 * np.pi / n_xi)
    w_xi = np.full(n_xi, 2.0 * np.pi / n_xi)
    return theta, w_theta, xi, w_xi


def _flat_moments(n_theta, n_xi):
    """Read-only (form, kernel) of the grid, cached once its counts pass `_check_grid`.

    kernel[a, b, c, d] = sum_k w_k c_a conj(c_b) coef_c conj(coef_d), coef = (c_i conj(c_j))
    of node k's state (c_0, c_1), gives rho_loop; its trace over (a, b) is the 4x4 form
    of Z and rho, as (2, 2, 2, 2) the moments sum_k w_k c_i c_j* c_k* c_l."""
    return _grid_moments(*_check_grid(n_theta, n_xi))


def _powers(v, k, first=1.0):  # rows first * v**p for p = 0..k
    out = np.full((k + 1, len(v)), first, dtype=v.dtype)
    for p in range(k):
        np.multiply(out[p], v, out=out[p + 1])
    return out


@functools.lru_cache(maxsize=16)
def _grid_moments(n_theta, n_xi):
    theta, w_theta, xi, w_xi = flat_measure_nodes(n_theta, n_xi)
    # c_0 = cos(theta), c_1 = e^{i xi} sin(theta): an entry with q factors c_1 or c_1*, r
    # more of them plain than conjugated, is t[q] * x[r] = sum w cos^(6-q) sin^q * sum w e^{irxi}
    t = (_powers(np.cos(theta), 6, w_theta) @ _powers(np.sin(theta), 6).T)[::-1].diagonal()
    x = _powers(np.exp(1j * xi), 3, w_xi).sum(axis=1)
    x = np.concatenate([x, x[:0:-1].conj()])  # r = 0..3, then -3..-1: exactly Hermitian
    idx = np.indices((2,) * 6)  # factor order c_a, c_b*, c_c, c_d*, c_e*, c_f
    q, r = idx.sum(axis=0), np.tensordot([1, -1, 1, -1, -1, 1], idx, axes=1)
    kernel = (t[q] * x[r]).reshape(2, 2, 4, 4)
    form = np.trace(kernel)  # |c_0|^2 + |c_1|^2 = 1 at every node
    form.flags.writeable = kernel.flags.writeable = False
    return form, kernel


def run_delta_quadrature(circuit, n_theta=64, n_xi=64, tol=None):
    """Continuous boundary condition on a single loop qubit, by quadrature.

    The loop emerges and returns as the same pure qubit state
    |phi> = cos(theta)|0> + e^{i xi} sin(theta)|1>, integrated over the flat
    measure.  Returns Z, the external density operator, and the loop-register
    density operator rho_loop = Z^-1 * integral of w(phi) |phi><phi|.  The grid,
    checked before the evolution, enters only through its cached moments.
    """
    loops = _require_loops(circuit)
    if len(loops) != 1:
        raise UnsupportedError("the delta model integrates one looped qubit, not %d; use "
                               "model weight_matrix with omega='delta'" % len(loops))
    form, kernel = _flat_moments(n_theta, n_xi)
    pairs = _evolved_pairs(circuit)
    rows = _history_tensor(pairs).reshape(4, -1)  # (emerge, enter) major
    # node k's state rows.T @ coef_k has squared norm coef_k^T G conj(coef_k), G = rows rows^dagger
    loop = _hermitian(np.einsum("abcd,cd->ab", kernel, rows @ rows.conj().T))
    return _post_select(circuit, "delta_quadrature", _mix(rows, form), tol,
                        "quadrature acceptance rate %(z).3e below tolerance", pairs=pairs,
                        loop=loop, n_theta=int(n_theta), n_xi=int(n_xi),
                        measure="flat theta-xi on [0, pi] x [0, 2*pi]")


def run_conditional(circuit, condition, deselect, mode, tol=None):
    """Conditional projection on the branch where a power condition holds.

    `condition` is a sequence of (channel, bit) pairs over external channels;
    the projection acts only on the branch matching all of them.  `deselect`
    is (labels, amplitudes): the component along that state is removed from
    the conditioned branch.  mode "coupled" renormalizes the whole
    wavefunction afterwards (the deselected weight is redistributed across
    both branches); mode "insulated" restores the conditioned branch to its
    pre-projection weight first, so the branch odds are untouched.
    """
    tol = resolve_tolerance(tol)
    if circuit.loop_labels:
        raise UnsupportedError("conditional projection on a circuit with looped channels "
                               "is not defined")
    if mode not in ("coupled", "insulated"):
        raise ConfigError("mode must be 'coupled' or 'insulated'")
    try:
        condition = [(label, bit) for label, bit in condition]
    except (TypeError, ValueError):
        raise ConfigError("condition must be a list of (label, bit) pairs, got %r"
                          % (condition,)) from None
    for label, bit in condition:
        if bit not in (0, 1):
            raise ConfigError("condition bit of %r must be 0 or 1, got %r" % (label, bit))
    try:
        d_labels, d_amps = deselect
    except (TypeError, ValueError):
        raise ConfigError("deselect must be a (labels, amplitudes) pair") from None
    d_amps = complex_array(d_amps, 1, "deselect direction").view(float)  # [re, im] pairs
    if not (np.isfinite(d_amps).all() and d_amps.any()):
        raise ConfigError("deselect direction must be a nonzero finite vector, got %r"
                          % (deselect[1],))
    # scaling by a power of two is exact and keeps the norm from under- or overflowing
    d_amps = np.ldexp(d_amps, -np.frexp(np.abs(d_amps).max())[1]).view(complex)
    d_amps = d_amps / np.linalg.norm(d_amps)
    state = evolve(circuit.initial_external_state(), circuit)
    n = state.n_qubits
    mask = np.ones(2**n, dtype=bool)
    for label, bit in condition:
        ax = state.axis(label)
        mask &= ((np.arange(2**n) >> (n - 1 - ax)) & 1) == bit
    on, off = np.where(mask, state.amps, 0.0), np.where(mask, 0.0, state.amps)
    w_on, w_off = float(np.linalg.norm(on))**2, float(np.linalg.norm(off))**2

    proj = np.eye(len(d_amps), dtype=complex) - np.outer(d_amps, d_amps.conj())
    kept = apply_gate(PureState(on, state.labels), proj, tuple(d_labels)).amps
    if mode == "insulated" and w_on > tol:
        norm = float(np.linalg.norm(kept))
        if norm**2 < tol:
            raise ParadoxError("insulated branch of weight %.3e has no surviving amplitude"
                               % w_on)
        kept = kept * (np.sqrt(w_on) / norm)
    final = off + kept
    return _post_select(circuit, "conditional", np.outer(final, final.conj()), tol,
                        "conditional projection removed all amplitude",
                        mode=mode, branch_weight_on=w_on, branch_weight_off=w_off)


# ---------------------------------------------------------------------------
# Model descriptors, the one table of models (MODELS).  Each names its
# document `type` and report `name`; a field whose document key differs from
# its attribute name keeps the key in its metadata.  The CLI reads documents
# through these fields.


class _Model:
    def describe(self):
        return {"name": self.name, **asdict(self)}


@dataclass(frozen=True)
class ExactBell(_Model):
    type = name = "exact_bell"

    def run(self, circuit, tol=None):
        return run_exact_bell(circuit, tol=tol)


@dataclass(frozen=True)
class NoisyBell(_Model):
    type = name = "noisy_bell"
    lam: float = field(metadata={"key": "lambda"})

    def run(self, circuit, tol=None):
        return run_noisy_bell(circuit, self.lam, tol=tol)


@dataclass(frozen=True)
class Classical(_Model):
    type = name = "classical"
    k: float
    floor: bool = False

    def run(self, circuit, tol=None):
        return run_classical(circuit, self.k, floor=self.floor, tol=tol)


@dataclass(frozen=True)
class WeightMatrix(_Model):
    type = name = "weight_matrix"
    omega: object = "flat"  # a built-in name or a d x d matrix

    def run(self, circuit, tol=None):
        return run_weight_matrix(circuit, self.omega, tol=tol)

    def describe(self):
        name = self.omega if isinstance(self.omega, str) else "custom"
        return {"name": self.name, "omega": name}


@dataclass(frozen=True)
class DeltaQuadrature(_Model):
    type, name = "delta", "delta_quadrature"
    n_theta: int = field(default=64, metadata={"key": "nodes_theta"})
    n_xi: int = field(default=64, metadata={"key": "nodes_xi"})

    def run(self, circuit, tol=None):
        return run_delta_quadrature(circuit, self.n_theta, self.n_xi, tol=tol)


# document type -> descriptor class
MODELS = {cls.type: cls for cls in (ExactBell, NoisyBell, Classical, WeightMatrix,
                                    DeltaQuadrature)}
