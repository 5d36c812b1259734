from dataclasses import astuple

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spingate import (
    GcnPatternError,
    GcnPhases,
    PulseSpec,
    build_generator,
    cn_matrix,
    extract_gcn_phases,
    frame_phase_factors,
    gate_fidelity,
    gcn_matrix,
    tomography,
)
from spingate.config import EQ21_AMPS
from spingate.core import wrap_angle
from spingate.gates import GCN_LEAK_TOL, GCN_PATTERN

_angles = st.floats(min_value=-np.pi + 1e-6, max_value=np.pi)


def _numpy_readout(gate: np.ndarray) -> tuple[float, ...]:
    """The phase readout in numpy: np.abs, np.argmax, np.angle and wrap_angle."""
    moduli = np.abs(gate)
    off = moduli.copy()
    for i, j in GCN_PATTERN:
        off[i, j] = 0.0
    worst = np.unravel_index(np.argmax(off), off.shape)
    if off[worst] > GCN_LEAK_TOL:
        indices = (int(worst[0]), int(worst[1]))
        raise GcnPatternError("", max_leak=float(off[worst]), indices=indices)
    for i, j in GCN_PATTERN:
        if moduli[i, j] < 1.0 - GCN_LEAK_TOL:
            raise GcnPatternError("", max_leak=float(1.0 - moduli[i, j]), indices=(i, j))
    ref = np.angle(gate[0, 0])
    return (0.0, *(wrap_angle(np.angle(gate[i, j]) - ref) for i, j in ((1, 1), (3, 2), (2, 3))))


@st.composite
def _leaky_gcn(draw) -> np.ndarray:
    """A phased CN times one to three Givens rotations; sin(theta) spans GCN_LEAK_TOL."""
    gate = gcn_matrix(GcnPhases(*(draw(_angles) for _ in range(4))))
    for _ in range(draw(st.integers(1, 3))):
        p, q = draw(st.sampled_from([(p, q) for p in range(4) for q in range(p + 1, 4)]))
        theta = draw(st.floats(0.0, 3.0 * GCN_LEAK_TOL))
        phi = draw(_angles)
        rotation = np.eye(4, dtype=complex)
        rotation[p, p] = rotation[q, q] = np.cos(theta)
        rotation[p, q] = -np.exp(-1j * phi) * np.sin(theta)
        rotation[q, p] = np.exp(1j * phi) * np.sin(theta)
        gate = gate @ rotation
    return gate


class TestCnMatrix:
    def test_swaps_conditional_amplitudes(self):
        # the amplitude arriving in the 10 slot is the former c11 and vice versa
        psi = np.array(EQ21_AMPS, dtype=complex)
        out = cn_matrix() @ psi
        assert out[0] == psi[0] and out[1] == psi[1]
        assert out[2] == psi[3] and out[3] == psi[2]

    def test_involution(self):
        assert np.array_equal(cn_matrix() @ cn_matrix(), np.eye(4, dtype=complex))

    def test_columns_orthonormal(self):
        g = cn_matrix()
        assert np.array_equal(g.conj().T @ g, np.eye(4, dtype=complex))


class TestGcnMatrix:
    def test_zero_phases_reduce_to_cn(self):
        assert np.array_equal(gcn_matrix(GcnPhases(0, 0, 0, 0)), cn_matrix())

    def test_index_crossing_pinned(self):
        # dphi11 lands on the |10><11| entry, dphi10 on |11><10|
        g = gcn_matrix(GcnPhases(dphi00=0.1, dphi01=0.2, dphi10=0.3, dphi11=0.4))
        assert g[2, 3] == np.exp(0.4j)
        assert g[3, 2] == np.exp(0.3j)
        assert g[0, 0] == np.exp(0.1j)
        assert g[1, 1] == np.exp(0.2j)

    def test_quarter_phase_gate(self):
        g = gcn_matrix(GcnPhases(0, 0, np.pi / 2, np.pi / 2))
        expected = cn_matrix()
        expected[2, 3] = expected[3, 2] = 1j
        assert np.max(np.abs(g - expected)) < 1e-15

    @given(a=_angles, b=_angles, c=_angles, d=_angles)
    @settings(max_examples=50, deadline=None)
    def test_always_unitary(self, a, b, c, d):
        g = gcn_matrix(GcnPhases(a, b, c, d))
        assert np.max(np.abs(g.conj().T @ g - np.eye(4))) < 1e-15


class TestExtractGcnPhases:
    def test_cn_gives_zero_phases(self):
        assert astuple(extract_gcn_phases(cn_matrix())) == (0.0, 0.0, 0.0, 0.0)

    def test_quarter_phase_gate(self):
        phases = extract_gcn_phases(gcn_matrix(GcnPhases(0, 0, np.pi / 2, np.pi / 2)))
        assert phases.dphi00 == 0.0
        assert phases.dphi01 == pytest.approx(0.0, abs=1e-15)
        assert phases.dphi10 == pytest.approx(np.pi / 2)
        assert phases.dphi11 == pytest.approx(np.pi / 2)

    def test_global_phase_subtracted(self):
        phases = extract_gcn_phases(1j * cn_matrix())
        assert astuple(phases) == (0.0, 0.0, 0.0, 0.0)

    @given(a=_angles, b=_angles, c=_angles, d=_angles)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_up_to_global_phase(self, a, b, c, d):
        original = gcn_matrix(GcnPhases(a, b, c, d))
        phases = extract_gcn_phases(original)
        assert phases.dphi00 == 0.0
        for phi in astuple(phases):
            assert -np.pi < phi <= np.pi
        rebuilt = gcn_matrix(phases)
        # equal up to one global phase: realign on the (0, 0) entry
        realigned = rebuilt * original[0, 0]
        assert np.max(np.abs(realigned - original)) < 1e-12

    def test_identity_violates_pattern(self):
        with pytest.raises(GcnPatternError) as excinfo:
            extract_gcn_phases(np.eye(4, dtype=complex))
        err = excinfo.value
        # tied leaks: the first in row-major order is reported
        assert err.indices == (2, 2)
        assert err.max_leak == pytest.approx(1.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^gate must be 4x4, got \(3, 3\)$"):
            extract_gcn_phases(np.eye(3))

    def test_patterned_deficit_always_leaks_past_tolerance(self):
        # a column of a gate unitary to 1e-6 has norm^2 >= 1 - 1e-6; with its patterned
        # entry below 1 - GCN_LEAK_TOL, its three off-pattern entries share the rest
        floor = np.sqrt((1.0 - 1e-6 - (1.0 - GCN_LEAK_TOL) ** 2) / 3.0)
        assert floor > GCN_LEAK_TOL
        # so the leak check alone rejects such a gate, with an off-pattern entry
        delta = np.arccos(1.0 - 1.5 * GCN_LEAK_TOL)
        g = cn_matrix()
        g[2, 2] = g[3, 3] = np.sin(delta)
        g[2, 3], g[3, 2] = np.cos(delta), -np.cos(delta)
        with pytest.raises(GcnPatternError) as excinfo:
            extract_gcn_phases(g)
        assert excinfo.value.indices not in GCN_PATTERN
        assert excinfo.value.max_leak >= floor

    def test_small_leak_within_tolerance_accepted(self):
        delta = 5e-3
        g = cn_matrix()
        g[2, 2] = g[3, 3] = np.sin(delta)
        g[2, 3] = g[3, 2] = np.cos(delta)
        g[3, 2] = -g[3, 2]  # keep it unitary (reflection block)
        phases = extract_gcn_phases(g)
        assert phases.dphi10 == pytest.approx(np.pi, abs=1e-6)

    def test_leak_above_tolerance_reported(self):
        delta = 5e-2
        g = cn_matrix()
        g[2, 2] = g[3, 3] = np.sin(delta)
        g[2, 3] = g[3, 2] = np.cos(delta)
        g[3, 2] = -g[3, 2]
        with pytest.raises(GcnPatternError) as excinfo:
            extract_gcn_phases(g)
        assert excinfo.value.max_leak == pytest.approx(np.sin(delta))
        assert excinfo.value.indices == (2, 2)

    @given(gate=_leaky_gcn())
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_readout(self, gate):
        try:
            want = _numpy_readout(gate)
        except GcnPatternError as expected:
            with pytest.raises(GcnPatternError) as excinfo:
                extract_gcn_phases(gate)
            assert excinfo.value.indices == expected.indices
            assert excinfo.value.max_leak == expected.max_leak
            return
        got = astuple(extract_gcn_phases(gate))
        assert got[0] == 0.0
        # math.atan2 and np.angle may differ by an ulp; compared on the circle so a phase
        # at the +-pi cut counts as the same angle
        for g, w in zip(got, want):
            assert abs(wrap_angle(g - w)) <= 1e-15

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            extract_gcn_phases(0.5 * cn_matrix())

    def test_nan_gate_rejected(self):
        # a nan defect compares false against any tolerance
        with pytest.raises(ValueError, match=r"not unitary within 1e-6 \(defect nan\)"):
            extract_gcn_phases(np.full((4, 4), np.nan))


class TestGateFidelity:
    def test_self_fidelity_is_one(self):
        assert gate_fidelity(cn_matrix(), cn_matrix()) == pytest.approx(1.0)

    def test_global_phase_invariance(self):
        assert gate_fidelity(1j * cn_matrix(), cn_matrix()) == pytest.approx(1.0)

    def test_quarter_phase_gate_vs_cn_is_inv_sqrt2(self):
        fid = gate_fidelity(gcn_matrix(GcnPhases(0, 0, np.pi / 2, np.pi / 2)), cn_matrix())
        # trace is 2 + 2i: |2 + 2i| / 4 = 1 / sqrt(2)
        assert abs(fid - 1.0 / np.sqrt(2.0)) < 1e-12

    @given(alpha=_angles, beta=_angles)
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_phase_invariant(self, alpha, beta):
        u = gcn_matrix(GcnPhases(0.3, -0.4, 1.1, 0.2))
        v = cn_matrix()
        base = gate_fidelity(u, v)
        assert gate_fidelity(v, u) == pytest.approx(base, abs=1e-12)
        assert gate_fidelity(np.exp(1j * alpha) * u, np.exp(1j * beta) * v) == pytest.approx(
            base, abs=1e-12
        )

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            gate_fidelity(np.eye(3, dtype=complex), cn_matrix())

    @given(gate=_leaky_gcn(), target=_leaky_gcn())
    @settings(max_examples=50, deadline=None)
    def test_matches_trace_of_product(self, gate, target):
        # vdot sums the sixteen products in another order than the trace of the product
        want = abs(np.trace(target.conj().T @ gate)) / 4.0
        assert abs(gate_fidelity(gate, target) - want) <= 1e-15


class TestTomography:
    def test_zero_duration_gives_identity(self, params12):
        pulse = PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=0.0)
        gate = tomography(params12, pulse, frame="primed")
        assert np.max(np.abs(gate - np.eye(4))) < 1e-15
        with pytest.raises(GcnPatternError):
            extract_gcn_phases(gate)

    def test_unitary_within_tolerance(self, params12, pulse12):
        for frame in ("raw", "primed"):
            gate = tomography(params12, pulse12, frame=frame)
            assert np.max(np.abs(gate.conj().T @ gate - np.eye(4))) < 1e-8

    def test_decoupled_exact_iswap_block(self, params12):
        # a1 = 0 and a2 * t = pi: the {10,11} block is an exact i-swap
        pulse = PulseSpec(carrier=95.0, a1=0.0, a2=0.1, duration=np.pi / 0.1)
        gate = tomography(params12, pulse, frame="primed")
        assert abs(gate[2, 3] - 1j) < 1e-10
        assert abs(gate[3, 2] - 1j) < 1e-10
        assert abs(gate[2, 2]) < 1e-10 and abs(gate[3, 3]) < 1e-10
        # the {00,01} block mixes only through the off-resonant a2 coupling
        assert abs(gate[0, 0]) > 0.999 and abs(gate[1, 1]) > 0.999
        assert abs(gate[0, 1]) < 1e-2 and abs(gate[1, 0]) < 1e-2
        # and the two blocks do not talk to each other at all
        for i, j in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)):
            assert abs(gate[i, j]) == 0.0

    def test_benchmark_pulse_implements_quarter_phase_gate(self, params12, pulse12):
        gate = tomography(params12, pulse12, frame="primed")
        target = gcn_matrix(GcnPhases(0, 0, np.pi / 2, np.pi / 2))
        # measured max entry deviation is 1.26e-2, dominated by the slow
        # second-order phase drift of the 00 amplitude
        assert np.max(np.abs(gate - target)) < 2e-2

    def test_frame_consistency(self, params12, pulse12):
        raw = tomography(params12, pulse12, frame="raw")
        primed = tomography(params12, pulse12, frame="primed")
        gen = build_generator(params12, pulse12)
        lifted = np.diag(frame_phase_factors(gen, pulse12.duration)) @ raw
        assert np.max(np.abs(primed - lifted)) < 1e-12

    def test_columns_are_basis_images(self, params12, pulse12):
        # column j must be the final state of digital basis state j, here propagated by
        # scipy's expm rather than the eigensystem; the phases 0.5 * lam * tau reach about
        # 1.3e4 rad, and the two paths agree to about 1.4e-11
        from spingate import digital_state
        from spingate.core import BASIS_LABELS

        gate = tomography(params12, pulse12, frame="raw")
        b = build_generator(params12, pulse12).matrix_b
        propagator = scipy.linalg.expm(0.5j * b * pulse12.duration)
        for j, label in enumerate(BASIS_LABELS):
            column = propagator @ digital_state(label).amps
            assert np.max(np.abs(gate[:, j] - column)) < 1e-10

    def test_bad_frame_rejected(self, params12, pulse12):
        with pytest.raises(ValueError):
            tomography(params12, pulse12, frame="lab")
