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
  flat measure is what the closed forms in the catalog assume).

One evolution feeds every model: by channel-state duality (Lloyd et al.,
arXiv:1007.2615) the evolved pair state holds every pair-basis outcome and
every eigenstate history.  A 4x4 change of basis along each pair axis gives
the projection table; regrouping reference and loop bits gives the history
tensor.  Each model is then one contraction of these arrays.

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
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .circuit import REF_SUFFIX, evolve
from .errors import (
    ConfigError,
    NoCtcError,
    ParadoxError,
    UnsupportedError,
)
from .states import (
    DEFAULT_PARADOX_TOL,
    DensityOperator,
    PureState,
    _permute_density,
    apply_gate,
    tensor_all,
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


@dataclass(frozen=True)
class ProjectionEntry:
    label: str  # comma-joined per-channel outcome labels, e.g. "B" or "B,N"
    state: PureState  # unnormalized surviving state on the external channels
    weight: float  # squared norm of that state


@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """Labelled outcomes, one row of surviving external amplitudes each.

    ProjectionEntry objects are built only when `entries`, `[label]` or
    `to_dict` reads them.
    """

    amps: np.ndarray  # (outcomes, 2^e) unnormalized external amplitudes
    weights: np.ndarray  # (outcomes,) weight of each outcome
    make_labels: object  # zero-argument callable: outcome labels in row order
    channel_order: tuple  # looped channel labels, declaration order
    ext_labels: tuple  # external qubits of each row

    @functools.cached_property
    def labels(self):
        return tuple(self.make_labels())

    @property
    def entries(self):
        return _Entries(self)

    def __getitem__(self, label):
        if label not in self.labels:
            raise KeyError(label)
        return self.entries[self.labels.index(label)]

    @property
    def total_weight(self):
        return float(self.weights.sum())

    def to_dict(self):
        return {
            "channel_order": list(self.channel_order),
            "entries": [
                {"label": e.label, "weight": e.weight,
                 "amplitudes": [[z.real, z.imag] for z in e.state.amps]}
                for e in self.entries
            ],
        }


class _Entries(Sequence):
    """Read-only view of a ProjectionSet that builds each entry on access."""

    def __init__(self, table):
        self._table = table

    def __len__(self):
        return len(self._table.weights)

    def __getitem__(self, i):
        t = self._table
        i = range(len(self))[i]
        return ProjectionEntry(t.labels[i], PureState(t.amps[i], t.ext_labels),
                               float(t.weights[i]))


@dataclass(frozen=True)
class PostSelectionResult:
    model: str
    z: float
    rho: DensityOperator  # trace-1, on the external channels (declaration order)
    n: float = None  # survival amplitude norm, exact model only
    rho_loop: DensityOperator = None  # loop-register state, where defined
    projections: ProjectionSet = None
    metadata: dict = field(default_factory=dict)

    @property
    def acceptance(self):
        """Acceptance rate of the post-selection; alias for `z`."""
        return self.z


def _require_loops(circuit):
    loops = circuit.loop_labels
    if not loops:
        raise NoCtcError("circuit has no looped channel")
    return loops


def pair_out_state(circuit, pair_states=None):
    """Initial state with one entangled (reference, loop) pair per looped channel.

    Pairs come first in declaration order, each as (reference, loop), then the
    external register.  `pair_states` optionally overrides the matched pair
    state per channel label (used for twisted / re-phased boundary pairs).
    """
    loops = _require_loops(circuit)
    factors = []
    for label in loops:
        amps = PAIR_BASIS["B"]
        if pair_states and label in pair_states:
            amps = np.asarray(pair_states[label], dtype=complex)
            if amps.shape != (4,) or abs(np.linalg.norm(amps) - 1.0) > 1e-9:
                raise ConfigError("pair state for %r must be a normalized 2-qubit state"
                                  % (label,))
        factors.append(PureState(amps, (label + REF_SUFFIX, label)))
    ext = circuit.initial_external_state()
    if ext.n_qubits:
        factors.append(ext)
    return tensor_all(factors)


def _evolved_pairs(circuit, pair_states=None):
    """The one evolution of a run: amplitudes of shape (4,)*m + (2^e,), ext labels.

    Axis q indexes pair q as 2 * reference bit + loop bit.
    """
    m = len(_require_loops(circuit))
    state = evolve(pair_out_state(circuit, pair_states), circuit)
    return state.amps.reshape((4,) * m + (-1,)), state.labels[2 * m:]


def _project_pairs(t, bras):
    """Contract pair axis q of `t` with bras[q] (rows: conjugated pair states)."""
    for bra in bras:
        t = np.tensordot(t, bra, axes=(0, 1))
    return np.ascontiguousarray(np.moveaxis(t, 0, -1))


def _history_tensor(circuit):
    """A[i, j]: unnormalized external state of the loop history e_i -> e_j.

    The reference pair of the evolved state records the emerging eigenstate
    e_i, so A[i, j] = sqrt(d) * <ref = i, loop = j| evolved pair state.
    """
    t, ext = _evolved_pairs(circuit)
    m = t.ndim - 1
    d = 2**m
    # (ref_1, loop_1, ..., ref_m, loop_m, ext) -> (ref bits, loop bits, ext)
    t = t.reshape((2,) * (2 * m) + (-1,))
    t = t.transpose(tuple(range(0, 2 * m, 2)) + tuple(range(1, 2 * m, 2)) + (2 * m,))
    # dividing by the pair amplitude 1/sqrt(2) per pair, rather than multiplying
    # by sqrt(d), cancels its rounding in the consistent histories
    return t.reshape(d, d, -1) / _SQ2**m, ext


def _mix(rows, weights):
    """sum_k weights[k] |rows[k]><rows[k]| (exactly Hermitian) and its trace."""
    num = (rows.T * weights) @ rows.conj()
    num = (num + num.conj().T) / 2  # the product alone is Hermitian only to rounding
    return float(np.trace(num).real), num


def _rho_from_matrix(mat, labels, circuit):
    if not labels:
        return DensityOperator(np.array([[1.0]], dtype=complex), ())
    rho = DensityOperator(mat, labels)
    order = tuple(l for l in circuit.external_labels if l in labels)
    if order != labels:
        rho = _permute_density(rho, order)
    return rho


def projection_table(circuit):
    """Project the evolved state onto the full pair basis of every loop.

    Returns a ProjectionSet with one entry per outcome label combination
    (4^m entries for m looped channels).  For unitary circuits the weights
    sum to 1 (resolution of the identity on the reference pairs).
    Custom pair states replace only the matched ("B") basis vector, so they
    run through run_exact_bell, which projects onto that vector alone.
    """
    loops = _require_loops(circuit)
    t, ext = _evolved_pairs(circuit)
    amps = _project_pairs(t, [_PAIR_BRAS] * len(loops)).reshape(4 ** len(loops), -1)
    weights = (amps.real**2 + amps.imag**2).sum(axis=1)
    combos = functools.partial(itertools.product, PAIR_LABELS, repeat=len(loops))
    return ProjectionSet(amps, weights, lambda: map(",".join, combos()), loops, ext)


def run_exact_bell(circuit, tol=None, pair_states=None):
    """Exact post-selected evolution: keep only the matched-pair outcome."""
    tol = resolve_tolerance(tol)
    loops = _require_loops(circuit)
    if pair_states:
        t, ext = _evolved_pairs(circuit, pair_states)
        bras = [np.asarray(pair_states.get(label, PAIR_BASIS["B"]),
                           dtype=complex).conj()[None] for label in loops]
        matched = _project_pairs(t, bras).reshape(-1)
        table = None
    else:
        table = projection_table(circuit)
        matched, ext = table.amps[0], table.ext_labels  # the all-"B" row
    n = float(np.linalg.norm(matched))
    if n < tol:
        raise ParadoxError(
            "matched-pair amplitude %.3e below tolerance %.3e: no consistent history"
            % (n, tol),
            projections=table,
        )
    unit = matched / n
    rho = _rho_from_matrix(np.outer(unit, unit.conj()), ext, circuit)
    return PostSelectionResult(
        model="exact_bell", z=n**2, rho=rho, n=n, projections=table,
        metadata={"tolerance": tol},
    )


def run_noisy_bell(circuit, lam, tol=None):
    """Depolarized pair projection: mix all 4^m outcomes with product weights."""
    tol = resolve_tolerance(tol)
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("noise parameter lam must lie in [0, 1]")
    table = projection_table(circuit)
    per_pair = np.array([1.0 - 0.75 * lam] + [0.25 * lam] * 3)
    w = functools.reduce(np.kron, [per_pair] * len(table.channel_order))
    z, num = _mix(table.amps, w)
    if z < tol:
        raise ParadoxError("acceptance rate %.3e below tolerance" % z, projections=table)
    rho = _rho_from_matrix(num / z, table.ext_labels, circuit)
    return PostSelectionResult(
        model="noisy_bell", z=z, rho=rho, projections=table,
        metadata={"lam": lam,
                  "mixture_weights": dict(zip(table.labels, w.tolist())),
                  "tolerance": tol},
    )


def loop_histories(circuit):
    """Amplitudes of eigenstate loop histories.

    histories[(i, j)] is the unnormalized external state when the loop
    register emerges as |e_i>, evolves with the externals, and is projected
    onto |e_j> at the end.  Consistent histories are the diagonal i == j.
    """
    a, ext = _history_tensor(circuit)
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
    tol = resolve_tolerance(tol)
    k = float(k)
    if not 0.0 <= k <= 1.0:
        raise ConfigError("flip rate k must lie in [0, 1]")
    loops = circuit.loop_labels
    a, ext = _history_tensor(circuit)
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
    z, num = _mix(rows, w.reshape(-1))
    if z < tol:
        raise ParadoxError("classical acceptance rate %.3e below tolerance" % z)
    # floor=True reports each diagonal history with the weight of its whole row
    keep = np.arange(d) * (d + 1) if floor else np.arange(d * d)
    weights = hist.sum(axis=1) if floor else hist.reshape(-1)
    table = ProjectionSet(rows[keep], weights,
                          lambda: ("%d|%d" % divmod(i, d) for i in keep), loops, ext)
    rho = _rho_from_matrix(num / z, ext, circuit)
    return PostSelectionResult(
        model="classical", z=z, rho=rho,
        rho_loop=DensityOperator(np.diag(hist.sum(axis=1)) / z, loops),
        projections=table,
        metadata={"k": k, "floor": bool(floor), "tolerance": tol},
    )


_FLAT_MEASURE = np.pi**2 / 4.0  # integral of |c_0|^2 |c_1|^2 over the flat measure


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
    tol = resolve_tolerance(tol)
    a, ext = _history_tensor(circuit)
    d = len(a)
    name = omega if isinstance(omega, str) else "custom"
    coherent_delta = name == "delta" and d == 2
    if isinstance(omega, str):
        mat = _builtin_omega(omega, d)
    else:
        mat = np.asarray(omega, dtype=float)
        if mat.shape != (d, d):
            raise ConfigError("weight matrix must be %d x %d" % (d, d))
        if np.any(mat < 0):
            raise ConfigError("weight matrix entries must be nonnegative")
        total = mat.sum()
        if total <= 0:
            raise ConfigError("weight matrix must have positive total weight")
        mat = mat * (d / total)

    if coherent_delta:
        # diagonal histories weigh 2, off-diagonal 1, plus the coherent sum of
        # the diagonal ones, all times the flat-measure constant
        rows = np.concatenate([a.reshape(4, -1), (a[0, 0] + a[1, 1])[None]])
        z, num = _mix(rows, _FLAT_MEASURE * np.array([2.0, 1.0, 1.0, 2.0, 1.0]))
    else:
        z, num = _mix(a.reshape(d * d, -1), mat.reshape(-1))
    if z < tol:
        raise ParadoxError("weighted acceptance rate %.3e below tolerance" % z)
    rho = _rho_from_matrix(num / z, ext, circuit)
    return PostSelectionResult(
        model="weight_matrix", z=z, rho=rho,
        metadata={
            "omega": name,
            "coherent_delta": coherent_delta,
            "quadrature_measure_constant": 1.0 if coherent_delta else None,
            "tolerance": tol,
        },
    )


def flat_measure_nodes(n_theta, n_xi):
    """Nodes/weights for the flat measure on [0, pi] x [0, 2*pi].

    Gauss-Legendre in the polar angle, uniform (periodic trapezoid) in the
    phase.  Total weight is 2*pi^2.
    """
    if int(n_theta) < 1 or int(n_xi) < 1:
        raise ConfigError("quadrature node counts must be positive")
    x, w = np.polynomial.legendre.leggauss(int(n_theta))
    theta = (x + 1.0) * (np.pi / 2.0)
    w_theta = w * (np.pi / 2.0)
    xi = np.arange(int(n_xi)) * (2.0 * np.pi / int(n_xi))
    w_xi = np.full(int(n_xi), 2.0 * np.pi / int(n_xi))
    return theta, w_theta, xi, w_xi


def run_delta_quadrature(circuit, n_theta=64, n_xi=64, tol=None):
    """Continuous boundary condition on a single loop qubit, by quadrature.

    The loop emerges and returns as the same pure qubit state
    |phi> = cos(theta)|0> + e^{i xi} sin(theta)|1>, integrated over the flat
    measure.  Returns Z, the external density operator, and the loop-register
    density operator rho_loop = Z^-1 * integral of w(phi) |phi><phi|.
    """
    tol = resolve_tolerance(tol)
    loops = _require_loops(circuit)
    if len(loops) != 1:
        raise UnsupportedError(
            "continuous boundary quadrature supports exactly one loop qubit"
        )
    a, ext = _history_tensor(circuit)  # shape (emerge, enter, ext)
    theta, w_theta, xi, w_xi = flat_measure_nodes(n_theta, n_xi)
    c0 = np.cos(theta)[:, None] * np.ones_like(xi)[None, :]
    c1 = np.sin(theta)[:, None] * np.exp(1j * xi)[None, :]
    phi = np.stack([c0, c1])  # (2, n_theta, n_xi)
    # history (i, j) carries amplitude c_i * conj(c_j) (emerge i, project j)
    coef = phi[:, None, :, :] * phi.conj()[None, :, :, :]
    psi = np.tensordot(coef, a, axes=([0, 1], [0, 1]))  # (n_theta, n_xi, ext)
    wgrid = w_theta[:, None] * w_xi[None, :]
    dens = (psi.real**2 + psi.imag**2).sum(axis=2)
    z, num = _mix(psi.reshape(-1, psi.shape[2]), wgrid.reshape(-1))
    if z < tol:
        raise ParadoxError("quadrature acceptance rate %.3e below tolerance" % z)
    rho = _rho_from_matrix(num / z, ext, circuit)
    loop_num = np.einsum("atx,btx,tx->ab", phi, phi.conj(), wgrid * dens)
    rho_loop = DensityOperator(loop_num / z, loops)
    return PostSelectionResult(
        model="delta_quadrature", z=z, rho=rho, rho_loop=rho_loop,
        metadata={
            "n_theta": int(n_theta), "n_xi": int(n_xi),
            "measure": "flat theta-xi on [0, pi] x [0, 2*pi]",
            "tolerance": tol,
        },
    )


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
        raise UnsupportedError(
            "conditional projection on a circuit with looped channels is not defined"
        )
    if mode not in ("coupled", "insulated"):
        raise ConfigError("mode must be 'coupled' or 'insulated'")
    state = evolve(circuit.initial_external_state(), circuit)
    n = state.n_qubits
    mask = np.ones(2**n, dtype=bool)
    for label, bit in condition:
        ax = state.axis(label)
        idx = (np.arange(2**n) >> (n - 1 - ax)) & 1
        mask &= idx == int(bit)
    on = PureState(np.where(mask, state.amps, 0.0), state.labels)
    off = PureState(np.where(mask, 0.0, state.amps), state.labels)
    w_on, w_off = on.norm**2, off.norm**2

    d_labels, d_amps = deselect
    d_amps = np.asarray(d_amps, dtype=complex)
    d_amps = d_amps / np.linalg.norm(d_amps)
    proj = np.eye(len(d_amps), dtype=complex) - np.outer(d_amps, d_amps.conj())
    on_sel = apply_gate(on, proj, tuple(d_labels))

    if mode == "coupled":
        final = PureState(off.amps + on_sel.amps, state.labels)
        z = final.norm**2
        if z < tol:
            raise ParadoxError("conditional projection removed all amplitude")
        unit = final.amps / final.norm
    else:
        if w_on > tol and on_sel.norm**2 < tol:
            raise ParadoxError(
                "insulated branch of weight %.3e has no surviving amplitude" % w_on
            )
        scaled = on_sel.amps * (np.sqrt(w_on) / on_sel.norm) if w_on > tol else on_sel.amps
        final = PureState(off.amps + scaled, state.labels)
        z = final.norm**2
        unit = final.amps / final.norm
    rho = _rho_from_matrix(np.outer(unit, unit.conj()), state.labels, circuit)
    return PostSelectionResult(
        model="conditional", z=z, rho=rho,
        metadata={"mode": mode, "branch_weight_on": w_on, "branch_weight_off": w_off,
                  "tolerance": tol},
    )


# ---------------------------------------------------------------------------
# Model descriptors, the one table of models (MODELS).  Each names its
# document `type` and report `name`; a field whose document key differs from
# its attribute name keeps the key in its metadata.  The CLI reads documents
# through these fields.


class _Model:
    def describe(self):
        return {"name": self.name, **asdict(self)}

    def check_circuit(self, circuit):
        """Raise before any run when the model cannot handle this circuit."""


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

    def check_circuit(self, circuit):
        if len(circuit.loop_labels) != 1:
            raise UnsupportedError(
                "the delta model integrates a single looped qubit; this circuit "
                "has %d. Use model weight_matrix with omega='delta', or reduce "
                "to one looped channel." % len(circuit.loop_labels)
            )


# document type -> descriptor class
MODELS = {cls.type: cls for cls in (ExactBell, NoisyBell, Classical, WeightMatrix,
                                    DeltaQuadrature)}


def run(circuit, model, tol=None):
    return model.run(circuit, tol=tol)
