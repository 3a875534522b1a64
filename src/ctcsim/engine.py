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
  flat measure is what the closed forms in the catalog assume).  Each
  integrand is a polynomial of degree at most 6 in the boundary state, so Z
  and rho read the constant form _DELTA_FORM and rho_loop the constant kernel
  _DELTA_KERNEL: the exact integrals, with no grid to choose.

One evolution feeds every model: by channel-state duality (Lloyd et al.,
arXiv:1007.2615) the evolved pair state holds every pair-basis outcome and
every eigenstate history, and the matched outcome of any other boundary pair
chi is the Bell evolution read against the Gram matrix sqrt(2) chi^dagger chi.
A 4x4 change of basis along each (reference, loop) pair gives the projection
table: its bras are real, so the C-ordered real and imaginary planes are contracted
apart, externals-major, into one (externals, outcomes) array whose transpose is the
table and whose weights sum over the externals; the reference register read against
the loop register gives the (d^2, 2^e) history rows every history reader takes.
The evolution is `circuit.evolve` of `pair_out_state`: one pass of the gate
kernel, `states.apply_gates`, the package's one way to run a circuit, which
checks finiteness once.  `_evolved_pairs` is the one place an evolution is
made: it evolves a circuit once and keeps the read-only result on the circuit
for every later run, so any number of models, custom pairs and
`run_conditional` included, share it; a loop-free circuit is its m = 0 case,
the evolved external register.  A pickled or copied circuit
keeps none and evolves afresh.  A descriptor's `run` (so each `run_*`) is the
one sequence of a model run: it turns a loop-free circuit away (NoCtcError),
checks the parameters and, with overflow warnings off, reads that tensor into
rows of external amplitudes and a Hermitian form over them.  Every run, the
loop-free `run_conditional` (one row) included, has one finish, `_post_select`:
Z is the trace of one product, a 2Z that is not finite is a NumericsError, Z
(exact model: the survival amplitude) below the tolerance is a paradox in the
model's `paradox` words with a pair table, chosen there alone: the run's own if it
is one, else the evolution's.  Tables hold only data, so results and paradoxes
pickle.  Only then does `_hermitian` make the product exactly Hermitian over Z, in
place in cache-sized tiles, and rho_loop is divided by Z.

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
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field

import numpy as np

from .circuit import REF_SUFFIX, checked_circuit, evolve
from .errors import (ConfigError, LabelError, NoCtcError, NumericsError, ParadoxError,
                     UnsupportedError, _shown)
from .states import (
    DEFAULT_PARADOX_TOL,
    DensityOperator,
    PureState,
    apply_gate,
    normalized_amplitudes,
    unit_vector,
)

TOLERANCE_ENV_VAR = "CTC_SIM_TOLERANCE"
CONDITIONAL_MAX_BYTES = 2**30  # run_conditional's largest 2^e x 2^e complex operator: e = 13

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
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float range
        raise ConfigError("bad %s %s" % (where, _shown(tol))) from None
    if not 0.0 < value < math.inf:
        raise ConfigError("%s %r is not a finite positive number" % (where, tol))
    return value


def _real(value, what):
    """float(value), else ConfigError naming `what`."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("%s must be a real number, got %s" % (what, _shown(value))) from None


def _unit_interval(value, what):
    """_real(value, what), else ConfigError unless it lies in [0, 1] (nan does not)."""
    value = _real(value, what)
    if not 0.0 <= value <= 1.0:
        raise ConfigError("%s must lie in [0, 1]" % what)
    return value


@dataclass(frozen=True, eq=False)
class ProjectionSet:
    """Labelled outcomes, one row of surviving external amplitudes each.

    Row i is outcome labels[i].  A table holds only data, so it pickles; its labels are
    built on first read from that data: step 0 is a pair table, whose 4^m outcomes join
    PAIR_LABELS per loop, step s every s-th (emerging, entering) history "i|j".  A pair
    table's amps is F-ordered: its transpose is the externals-major (2^e, 4^m) array the
    contraction leaves, and its weights are summed over that array's externals axis.
    """

    amps: np.ndarray  # (outcomes, 2^e) unnormalized external amplitudes, declaration order
    weights: np.ndarray  # (outcomes,) weight of each outcome
    channel_order: tuple  # looped channel labels, declaration order
    step: int = 0  # 0: a pair table; s > 0: every s-th eigenstate history

    @functools.cached_property
    def labels(self):
        m = len(self.channel_order)
        if not self.step:
            return tuple(map(",".join, itertools.product(PAIR_LABELS, repeat=m)))
        return tuple("%d|%d" % divmod(i, 2**m) for i in range(0, 4**m, self.step))

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


def pair_out_state(circuit):
    """The start state of a run: externals, loops, then reference qubits.

    Labels: the external channels, the looped channels (each in declaration
    order), then "<loop>.ref" per loop in loop order.  Each (reference, loop)
    pair starts as the Bell pair PAIR_BASIS["B"] and the externals in their inits;
    with no loop (m = 0) it is the external register.  No gate touches a reference
    qubit, so the gate kernel moves the trailing reference register in contiguous runs.
    """
    loops = checked_circuit(circuit).loop_labels
    ext = circuit.initial_external_state()
    d = 2 ** len(loops)
    pairs = np.zeros(d * d, dtype=complex)
    # loop bits equal reference bits; the pair amplitudes multiply as in an outer product
    pairs[:: d + 1] = _SQ2 ** len(loops)
    refs = (loop + REF_SUFFIX for loop in loops)
    return PureState(np.multiply.outer(ext.amps, pairs).reshape(-1), (*ext.labels, *loops, *refs))


def _evolved_pairs(circuit):
    """The one evolution of a circuit, kept on it: read-only amplitudes (2^e, 2^m, 2^m).

    The axes are the external, loop and reference registers, each in declaration
    order (pair_out_state's labels); m may be 0.  A failed evolution keeps nothing.
    """
    pairs = getattr(checked_circuit(circuit), "_pairs", None)
    if pairs is None:
        d = 2 ** len(circuit.loop_labels)
        pairs = evolve(pair_out_state(circuit), circuit).amps.reshape(-1, d, d)
        pairs.flags.writeable = False
        object.__setattr__(circuit, "_pairs", pairs)  # a frozen Circuit takes it this way
    return pairs


def _history_rows(t):
    """Row i * d + j: unnormalized external state of the loop history e_i -> e_j.

    `t` is the evolved pair tensor (2^e, d, d).  Its reference register records the
    emerging eigenstate e_i, so row i * d + j = sqrt(d) * <ref = i, loop = j| evolved
    pair state; the (d^2, 2^e) rows are the one history layout every reader takes.
    """
    # times the reciprocal of pair_out_state's amplitude _SQ2**m (numpy's complex / real
    # does the same), which cancels it exactly for every m <= 7 the qubit cap allows
    m = t.shape[1].bit_length() - 1
    return np.multiply(t.transpose(2, 1, 0), 1.0 / _SQ2**m, order="C").reshape(-1, len(t))


_TILE = 64  # numpy buffers up to 3 tiles of a transposed operand: 0.3 MB here, 0.9 at 128


def _hermitian(num, z=1.0):
    """(num + num^dagger) / 2 / z bit for bit, over `num`: in each off-diagonal pair of
    _TILE-square tiles (x, y), x + y^dagger goes to a temporary before y += x^dagger, so
    no conjugate copy is made; then one multiply by 0.5 / z on the float view (numpy's
    complex / real multiplies by the reciprocal; halving is exact)."""
    for i in range(0, len(num), _TILE):
        x = num[i:i + _TILE, i:i + _TILE]
        x += x.conj().T
        for j in range(i + _TILE, len(num), _TILE):
            x, y = num[i:i + _TILE, j:j + _TILE], num[j:j + _TILE, i:i + _TILE]
            t = x + y.conj().T
            y += x.conj().T
            x[...] = t
    parts = num.view(float)
    parts *= 0.5 / z
    return num


def _post_select(circuit, model, rows, form, tol, paradox, pairs=None, table=None, n=None,
                 loop=None, **metadata):
    """Finish any run from its `rows` of external amplitudes and their Hermitian `form`.

    Z is the trace of sum_kl form[k, l] |rows[k]><rows[l]| (a weight vector is a
    diagonal form), one product; a 2Z or `n` that is not finite raises NumericsError.
    `n` (exact model), else Z, below the resolved `tol` raises ParadoxError with the
    `paradox` wording (a %-format over n, z and tol) and a pair table, chosen here only:
    the run's `table` (which a result reports) if it is one, else that of a loop run's
    evolved tensor `pairs`.  Only then is the product made rho by _hermitian and `loop`
    divided by Z, and the tolerance ends the metadata.
    rho is exactly [[1]] on a circuit without externals.
    """
    num = (rows.T @ form if form.ndim == 2 else rows.T * form) @ rows.conj()
    z = 2 * float(np.trace(num).real) / 2  # the symmetrized sum's: inf where 2Z overflows
    if not (math.isfinite(z) and math.isfinite(n or 0.0)):
        raise NumericsError("%s acceptance rate Z = %r is not finite" % (model, z))
    if (z if n is None else n) < tol:
        if pairs is not None and (table is None or table.step):  # a history table is no pair table
            table = _pair_table(circuit, pairs)
        raise ParadoxError(paradox % {"n": n, "z": z, "tol": tol}, projections=table)
    ext, unchecked = circuit.external_labels, DensityOperator._unchecked
    return PostSelectionResult(
        model=model, z=z, rho=unchecked(_hermitian(num, z) if ext else [[1.0]], ext), n=n,
        rho_loop=None if loop is None else unchecked(loop / z, circuit.loop_labels),
        projections=table, metadata={**metadata, "tolerance": tol},
    )


def projection_table(circuit):
    """Project the evolved state onto the full pair basis of every loop.

    Returns a ProjectionSet with one row per outcome label combination
    (4^m rows for m looped channels).  For unitary circuits the weights
    sum to 1 (resolution of the identity on the reference pairs).
    """
    return _pair_table(circuit, _evolved_pairs(circuit))


def _pair_table(circuit, t):
    """The projection table of the evolved pair tensor `t` of `circuit`."""
    loops = circuit.loop_labels
    m = len(loops)
    # (externals, loop bits, reference bits) -> (ref_1, loop_1, ..., ref_m, loop_m, externals)
    t = t.reshape((-1,) + (2,) * (2 * m))
    t = t.transpose([a for q in range(1, m + 1) for a in (q + m, q)] + [0])
    x = np.array((t.real, t.imag))  # C-ordered planes, contracted apart by the real bras
    for _ in loops:  # contract the leading pair axis with the four outcome bras, append them
        x = x.reshape(2, 4, -1).transpose(0, 2, 1) @ _PAIR_BRAS.real.T
    x = x.reshape(2, -1, 4**m)  # (planes, externals, outcomes)
    amps = np.empty((4**m, x.shape[1]), dtype=complex, order="F")  # externals-major: no transpose
    amps.T.real, amps.T.imag = x
    x *= x  # squared planes, summed over the externals: no temporary the size of a plane
    return ProjectionSet(amps, np.add(*x, out=x[0]).sum(axis=0), loops)


def _pair_gram(circuit, pair_states):
    """ExactBell's G, flat; None without custom pairs, ConfigError for a bad one."""
    loops = circuit.loop_labels
    if not isinstance(pair_states, (Mapping, type(None))):
        raise ConfigError("pair_states must be a mapping, got %s" % _shown(pair_states))
    if not pair_states:
        return None
    for key in pair_states:
        if key not in loops:
            raise ConfigError("pair_states key %s names no looped channel" % _shown(key))
    grams = [_SQ2 * np.eye(2)] * len(loops)
    for i, label in enumerate(loops):
        if label in pair_states:
            chi = normalized_amplitudes(pair_states[label], 2, "pair state for %r" % (label,))
            grams[i] = 2**0.5 * chi.reshape(2, 2).conj().T @ chi.reshape(2, 2)
    return functools.reduce(_kron, grams).reshape(-1)


def _kron(a, b):  # np.kron(a, b) of two matrices: its products, in its order, in one product
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def loop_histories(circuit):
    """Amplitudes of eigenstate loop histories.

    histories[(i, j)] is the unnormalized external state when the loop
    register emerges as |e_i>, evolves with the externals, and is projected
    onto |e_j> at the end.  Consistent histories are the diagonal i == j.
    """
    rows, d = _history_rows(_evolved_pairs(circuit)), 2 ** len(circuit.loop_labels)
    return {divmod(i, d): PureState(row, circuit.external_labels) for i, row in enumerate(rows)}, d


# the one-loop delta form over the histories (00, 01, 10, 11): the flat-measure integral
# of coef coef^dagger, coef = (c_i conj(c_j)) of the boundary state (c_0, c_1)
_DELTA_FORM = np.pi**2 / 4.0 * np.array([[3.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0],
                                         [0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 3.0]])
# rho_loop's kernel [a, b, c, d] = int c_a c_b* coef_c coef_d*.  Bit f_i picks c_0 or c_1 in
# factor c_a, c_b*, c_c, c_d*, c_e*, c_f: with q factors c_1 or c_1*, r more plain than
# conjugated, the entry is 2 pi [r = 0] int_0^pi cos^(6-q) sin^q; its trace is _DELTA_FORM
_DELTA_KERNEL = np.reshape([np.pi**2 / 8.0 * (5, 0, 1, 0, 1, 0, 5)[sum(f)]
                            * (f[0] - f[1] + f[2] - f[3] - f[4] + f[5] == 0)
                            for f in itertools.product((0, 1), repeat=6)], (2, 2, 4, 4))
_DELTA_FORM.flags.writeable = _DELTA_KERNEL.flags.writeable = False


def _builtin_omega(name, d):  # as weights over the d*d histories
    if name == "flat":
        return np.full(d * d, 1.0 / d)
    if name == "quad":
        return ((2.0 * np.eye(d) + 1.0) / (d + 2.0)).reshape(-1)
    if name == "delta":
        return np.eye(d).reshape(-1)
    raise ConfigError("unknown weight-matrix built-in %r" % (name,))


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
    if checked_circuit(circuit).loop_labels:
        raise UnsupportedError("conditional projection on a circuit with looped channels "
                               "is not defined")
    if 16 * 4 ** len(circuit.external_labels) > CONDITIONAL_MAX_BYTES:  # before any allocation
        raise UnsupportedError("conditional projection needs a %d-byte operator, over %d bytes"
                               % (16 * 4 ** len(circuit.external_labels), CONDITIONAL_MAX_BYTES))
    if not isinstance(mode, str) or mode not in ("coupled", "insulated"):
        raise ConfigError("mode must be 'coupled' or 'insulated'")
    try:
        condition = [(label, bit) for label, bit in condition]
    except (TypeError, ValueError):
        raise ConfigError("condition must be a list of (label, bit) pairs, got %s"
                          % _shown(condition)) from None
    for label, bit in condition:
        if getattr(bit, "ndim", 0) or bit not in (0, 1):  # an array bit has no truth value
            raise ConfigError("condition bit of %s must be 0 or 1, got %s"
                              % (_shown(label), _shown(bit)))
    try:
        d_labels, d_amps = deselect
    except (TypeError, ValueError):
        raise ConfigError("deselect must be a (labels, amplitudes) pair") from None
    try:
        if isinstance(d_labels, str):  # one string is not a sequence of labels
            raise TypeError
        d_labels = tuple(d_labels)
        hash(d_labels)  # a label that is itself a list names no channel
    except TypeError:
        raise ConfigError("deselect labels must be a sequence of channel labels, got %s"
                          % _shown(d_labels)) from None
    d_amps = unit_vector(d_amps, "deselect direction")
    if len(d_amps) != 2 ** len(d_labels) or len(d_labels) > len(circuit.external_labels):
        raise LabelError("deselect direction of length %d does not fit %d of the %d externals"
                         % (len(d_amps), len(d_labels), len(circuit.external_labels)))
    state = PureState(_evolved_pairs(circuit).reshape(-1), circuit.external_labels)
    n = state.n_qubits
    mask = np.ones(2**n, dtype=bool)
    for label, bit in condition:
        ax = state.axis(label)
        mask &= ((np.arange(2**n) >> (n - 1 - ax)) & 1) == bit
    on, off = np.where(mask, state.amps, 0.0), np.where(mask, 0.0, state.amps)
    w_on, w_off = float(np.linalg.norm(on))**2, float(np.linalg.norm(off))**2

    proj = np.eye(len(d_amps), dtype=complex) - d_amps[:, None] * d_amps.conj()
    kept = apply_gate(PureState(on, state.labels), proj, d_labels).amps
    if mode == "insulated" and w_on > tol:
        norm = float(np.linalg.norm(kept))
        if norm**2 < tol:
            raise ParadoxError("insulated branch of weight %.3e has no surviving amplitude"
                               % w_on)
        kept = kept * (np.sqrt(w_on) / norm)
    final = off + kept
    return _post_select(circuit, "conditional", final[None], np.ones(1), tol,
                        "conditional projection removed all amplitude",
                        mode=mode, branch_weight_on=w_on, branch_weight_off=w_off)


# ---------------------------------------------------------------------------
# Model descriptors, the one table of models (MODELS).  Each names its
# document `type`, report `name` and `paradox` wording; a field whose document
# key differs from its attribute name keeps the key in its metadata.  The CLI
# reads documents through these fields.


class _Model:
    def describe(self):
        return {"name": self.name, **asdict(self)}

    def run(self, circuit, tol=None, **options):
        if not checked_circuit(circuit).loop_labels:
            raise NoCtcError("circuit has no looped channel")
        # _contract returns rows, form and _post_select's keywords (what the result reports)
        params, tol = self._params(circuit, **options), resolve_tolerance(tol)
        with np.errstate(over="ignore", invalid="ignore"):  # _post_select catches overflow
            pairs = _evolved_pairs(circuit)
            rows, form, report = self._contract(circuit, pairs, params)
            return _post_select(circuit, self.name, rows, form, tol, self.paradox, pairs, **report)


@dataclass(frozen=True)
class ExactBell(_Model):
    """Exact post-selection: keep only the matched-pair outcome, reported with its table.

    `run`'s `pair_states` maps looped channels to custom (reference, loop) pair
    amplitudes chi = (I x K)|B>, the Bell pair with K on its loop wire before the
    gates and K^dagger after.  Moved onto the Bell evolution t, the matched row is
    t.reshape(len(t), -1) @ G, G the Kronecker product over loops of sqrt(2)
    chi^dagger chi (chi as its reference-by-loop 2x2 matrix, so I/sqrt(2) for a
    Bell pair).  Such a run reports a pair table only with its ParadoxError.
    """

    type = name = "exact_bell"
    paradox = "matched-pair amplitude %(n).3e below tolerance %(tol).3e: no consistent history"

    def _params(self, circuit, pair_states=None):
        return _pair_gram(circuit, pair_states)

    def _contract(self, circuit, pairs, gram):
        table = _pair_table(circuit, pairs) if gram is None else None
        matched = table.amps[0] if gram is None else pairs.reshape(len(pairs), -1) @ gram
        return matched[None], np.ones(1), dict(table=table, n=float(np.linalg.norm(matched)))


@dataclass(frozen=True)
class NoisyBell(_Model):
    """Depolarized pair projection: mix all 4^m outcomes with product weights."""

    type = name = "noisy_bell"
    paradox = "acceptance rate %(z).3e below tolerance"
    lam: float = field(metadata={"key": "lambda"})

    def _params(self, circuit):
        return _unit_interval(self.lam, "noise parameter lam")

    def _contract(self, circuit, pairs, lam):
        table = _pair_table(circuit, pairs)
        per_pair = np.array([1.0 - 0.75 * lam] + [0.25 * lam] * 3)
        w = functools.reduce(np.multiply.outer, [per_pair] * len(table.channel_order)).reshape(-1)
        return table.amps, w, dict(table=table, lam=lam)


@dataclass(frozen=True)
class Classical(_Model):
    """Classical loop register with bit-flip error rate k.

    floor=False: every (emerging, entering) history (i, j) gets weight
    (1-k)^(#preserved bits) * k^(#flipped bits).  floor=True: only diagonal
    histories carry signal weight (1-k), plus a flat floor k/d of random
    reemission per eigenstate (external register traced over the entering
    state), the convention some closed forms in the catalog use.
    At k = 1/2 (floor=False) the channel is fully unskewed: Z is independent
    of every external input.
    """

    type = name = "classical"
    paradox = "classical acceptance rate %(z).3e below tolerance"
    k: float
    floor: bool = False

    def _params(self, circuit):
        if not isinstance(self.floor, (bool, np.bool_)):  # "no" and [0] are truthy too
            raise ConfigError("floor must be true or false, got %s" % _shown(self.floor))
        return _unit_interval(self.k, "flip rate k")

    def _contract(self, circuit, pairs, k):
        loops, floor, d = circuit.loop_labels, bool(self.floor), pairs.shape[1]
        rows = _history_rows(pairs)
        if floor:
            # The k/d term is an unconditional random reemission: the loop comes
            # out in |j> regardless of history, so the external register sees the
            # circuit with the entering state traced out rather than matched.
            w = (1.0 - k) * np.eye(d) + k / d
        else:
            flip = np.array([[1.0 - k, k], [k, 1.0 - k]])
            w = functools.reduce(_kron, [flip] * len(loops))
        # weighted history norms, summed over the externals of the evolution as it lies
        hist = w * (pairs.real**2 + pairs.imag**2).sum(axis=0).T * (1.0 / _SQ2**len(loops))**2
        # the history table rides on the result (_post_select tables a paradox's pairs);
        # floor=True reports each diagonal history with the weight of its whole row
        step = d + 1 if floor else 1  # rows[::step] is a view of the rows, not a copy
        weights = hist.sum(axis=1) if floor else hist.reshape(-1)
        table = ProjectionSet(rows[::step], weights, loops, step)
        return rows, w.reshape(-1), dict(table=table, loop=np.diag(hist.sum(axis=1)), k=k,
                                         floor=floor)


@dataclass(frozen=True)
class WeightMatrix(_Model):
    """Eigenstate-history channel with a weight matrix over history pairs.

    omega[i, j] weighs the history "loop emerges as e_i, returns as e_j".
    Built-ins: "flat" (all histories equal), "quad" (diagonal weighted 3:1),
    "delta" (diagonal only).  Custom matrices are normalized to sum d.

    The delta built-in on a single loop qubit uses the closed form of the
    continuous flat-measure boundary integral, which keeps the coherent cross
    terms between diagonal histories; its Z and rho match the delta model
    exactly (measure constant 1).  On larger loop registers delta falls back
    to the incoherent diagonal sum.
    """

    type = name = "weight_matrix"
    paradox = "weighted acceptance rate %(z).3e below tolerance"
    omega: object = "flat"  # a built-in name or a d x d matrix

    def describe(self):
        name = self.omega if isinstance(self.omega, str) else "custom"
        return {"name": self.name, "omega": name}

    def _params(self, circuit):
        """(name, form over the d*d histories) of omega, else ConfigError."""
        d = 2 ** len(circuit.loop_labels)
        if isinstance(self.omega, str):
            coherent_delta = self.omega == "delta" and d == 2
            return self.omega, _DELTA_FORM if coherent_delta else _builtin_omega(self.omega, d)
        try:
            mat = np.asarray(self.omega, dtype=complex)  # a float cast drops imaginary parts
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
        return "custom", (mat * (d / total)).reshape(-1)

    def _contract(self, circuit, pairs, named_form):
        name, form = named_form
        coherent_delta = form is _DELTA_FORM
        return _history_rows(pairs), form, dict(
            omega=name, coherent_delta=coherent_delta,
            quadrature_measure_constant=1.0 if coherent_delta else None)


@dataclass(frozen=True)
class DeltaQuadrature(_Model):
    """Continuous boundary condition on a single loop qubit, integrated in closed form.

    The loop emerges and returns as the same pure qubit state
    |phi> = cos(theta)|0> + e^{i xi} sin(theta)|1>, integrated over the flat
    measure.  Returns Z, the external density operator, and the loop-register
    density operator rho_loop = Z^-1 * integral of w(phi) |phi><phi|: the exact
    integrals, from _DELTA_FORM and _DELTA_KERNEL.
    """

    type, name = "delta", "delta_quadrature"
    paradox = "quadrature acceptance rate %(z).3e below tolerance"

    def _params(self, circuit):
        loops = circuit.loop_labels
        if len(loops) != 1:
            raise UnsupportedError("the delta model integrates one looped qubit, not %d; use "
                                   "model weight_matrix with omega='delta'" % len(loops))

    def _contract(self, circuit, pairs, _):
        rows = _history_rows(pairs)  # (emerge, enter) major
        # the state rows.T @ coef has squared norm coef^T G conj(coef), G = rows rows^dagger
        loop = _hermitian(np.einsum("abcd,cd->ab", _DELTA_KERNEL, rows @ rows.conj().T))
        return rows, _DELTA_FORM, dict(loop=loop, measure="flat theta-xi on [0, pi] x [0, 2*pi]")


# the runners: each is its descriptor's run
def run_exact_bell(circuit, tol=None, pair_states=None):
    """Exact post-selected evolution: keep only the matched-pair outcome.

    `pair_states` maps looped channels to custom (reference, loop) pair amplitudes;
    see ExactBell.  A bad pair is a ConfigError before the evolution.
    """
    return ExactBell().run(circuit, tol, pair_states=pair_states)


def run_noisy_bell(circuit, lam, tol=None):
    return NoisyBell(lam).run(circuit, tol)


def run_classical(circuit, k, floor=False, tol=None):
    return Classical(k, floor).run(circuit, tol)


def run_weight_matrix(circuit, omega="flat", tol=None):
    return WeightMatrix(omega).run(circuit, tol)


def run_delta_quadrature(circuit, tol=None):
    return DeltaQuadrature().run(circuit, tol)


# document type -> descriptor class
MODELS = {cls.type: cls for cls in (ExactBell, NoisyBell, Classical, WeightMatrix,
                                    DeltaQuadrature)}
