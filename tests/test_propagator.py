import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import spingate.core
import spingate.propagator
from spingate import (
    CalibrationError,
    Generator,
    PulseSpec,
    SystemParams,
    build_generator,
    calibrate_pi_duration,
    digital_state,
    evolve_rk4,
    frame_phase_factors,
    run_timeseries,
    superposition_state,
    tomography,
)
from spingate.config import EQ21_AMPS
from spingate.core import check_param


@pytest.fixture(scope="module")
def gen12(params12, pulse12):
    return build_generator(params12, pulse12)


class TestBuildGenerator:
    def test_coefficients(self, params12, pulse12):
        b = build_generator(params12, pulse12).matrix_b
        # -2(100 - 500 - 10) = 820 and -2(100 - 500) = 800 on the diagonal
        assert b[0, 0] == 820.0
        assert b[1, 1] == 800.0
        assert b[2, 2] == 0.0 and b[3, 3] == 0.0
        assert b[0, 1] == 0.1 and b[1, 0] == 0.1
        assert b[0, 2] == 0.5 and b[2, 0] == 0.5
        assert b[1, 3] == 0.5 and b[3, 1] == 0.5
        assert b[2, 3] == 0.1 and b[3, 2] == 0.1
        assert b[0, 3] == 0.0 and b[3, 0] == 0.0
        assert b[1, 2] == 0.0 and b[2, 1] == 0.0

    def test_exactly_symmetric(self, params12, pulse12):
        b = build_generator(params12, pulse12).matrix_b
        assert np.array_equal(b, b.T)

    def test_zero_drive_is_diagonal(self, params12):
        pulse = PulseSpec(carrier=95.0, a1=0.0, a2=0.0, duration=1.0)
        b = build_generator(params12, pulse).matrix_b
        assert np.array_equal(b, np.diag([820.0, 800.0, 0.0, 0.0]))


def _spin_operators():
    """I1z, I2z, I1x, I2x, I1y, I2y over (00, 01, 10, 11), with Iz|0> = +|0>/2, in sympy."""
    half = sp.Rational(1, 2)
    z = sp.diag(half, -half)
    x = sp.Matrix([[0, half], [half, 0]])
    y = sp.Matrix([[0, -sp.I * half], [sp.I * half, 0]])
    return tuple(
        op for m in (z, x, y)
        for op in (sp.kronecker_product(m, sp.eye(2)), sp.kronecker_product(sp.eye(2), m))
    )


class TestDetunedCarrier:
    """A carrier omega = omega2 - J + delta enters B as diag(-2 delta, 0, 0, +2 delta).

    The lab Hamiltonian of a circularly polarized pulse is
    H(t) = -omega1 I1z - omega2 I2z - 2J I1z I2z - sum_n a_n (cos wt Inx - sin wt Iny).
    """

    def test_rotating_frame_hamiltonian_is_minus_half_b(self):
        # psi = exp(-i R t) c with R = -omega (I1z + I2z) gives i dc/dt = (F H F^dag - R) c,
        # F = exp(i R t); that is -B/2 up to a multiple of the identity, at any delta
        omega1, omega2, j, a1, a2, t, delta = sp.symbols("omega1 omega2 J a1 a2 t delta", real=True)
        omega = omega2 - j + delta
        i1z, i2z, i1x, i2x, i1y, i2y = _spin_operators()
        lab = (
            -omega1 * i1z - omega2 * i2z - 2 * j * i1z * i2z
            - a1 * (sp.cos(omega * t) * i1x - sp.sin(omega * t) * i1y)
            - a2 * (sp.cos(omega * t) * i2x - sp.sin(omega * t) * i2y)
        )
        r = -omega * (i1z + i2z)
        f = sp.diag(*[sp.exp(sp.I * r[k, k] * t) for k in range(4)])
        b = sp.Matrix([
            [-2 * (omega2 - omega1 - 2 * j) - 2 * delta, a2, a1, 0],
            [a2, -2 * (omega2 - omega1), 0, a1],
            [a1, 0, 0, a2],
            [0, a1, a2, 2 * delta],
        ])
        rest = (f * lab * f.conjugate() - r + b / 2).applyfunc(
            lambda entry: sp.simplify(entry.rewrite(sp.exp))
        )
        assert rest == rest[0, 0] * sp.eye(4)
        assert not rest[0, 0].has(delta, t, a1, a2)
        # the package's B is that matrix, entry for entry (the values are exact in binary)
        point = {omega1: 500.0, omega2: 100.0, j: 5.0, a1: 0.5, a2: 0.125}
        for d in (0.25, -0.375):
            gen = Generator(500.0, 100.0, 5.0, 95.0 + d, 0.5, 0.125)
            expected = np.array(b.subs({**point, delta: d}), dtype=float)
            assert np.array_equal(gen.matrix_b, expected)

    @pytest.mark.parametrize("delta", [0.0, 0.03, -0.07])
    def test_gate_matches_lab_frame_propagator(self, delta):
        # the lab-frame Schrodinger equation integrated by DOP853, independent of B; the
        # frequencies are lowered from params12 so the solve takes about a second
        omega1, omega2, j, a1, a2 = 50.0, 10.0, 1.0, 0.05, 0.1
        carrier, tau = omega2 - j + delta, 0.93 * np.pi / a2
        i1z, i2z, i1x, i2x, i1y, i2y = (np.array(op, dtype=complex) for op in _spin_operators())
        h0 = -omega1 * i1z - omega2 * i2z - 2.0 * j * i1z @ i2z
        hx, hy = -(a1 * i1x + a2 * i2x), -(a1 * i1y + a2 * i2y)

        def rhs(t, u):
            h = h0 + math.cos(carrier * t) * hx - math.sin(carrier * t) * hy
            return (-1j * h @ u.reshape(4, 4)).ravel()

        solved = solve_ivp(rhs, (0.0, tau), np.eye(4, dtype=complex).ravel(),
                           method="DOP853", rtol=1e-12, atol=1e-12)
        lab = solved.y[:, -1].reshape(4, 4)
        # the primed frame is the interaction picture of the drift h0, up to a global phase
        interaction = np.exp(1j * np.diag(h0) * tau)[:, None] * lab

        def misses(gen):
            moduli = float(np.max(np.abs(np.abs(gen.gate(tau)) - np.abs(lab))))
            overlap = abs(np.trace(gen.gate(tau, "primed").conj().T @ interaction)) / 4.0
            return moduli, 1.0 - overlap

        # measured: moduli within 2.7e-11 to 6.9e-11, infidelity 1.2e-11
        moduli, infidelity = misses(Generator(omega1, omega2, j, carrier, a1, a2))
        assert moduli <= 1e-9 and infidelity <= 1e-10
        if delta:
            # the resonant B(0) and the sign-flipped B(-delta) miss by 2.2e-2 or more
            for wrong in (omega2 - j, omega2 - j - delta):
                assert misses(Generator(omega1, omega2, j, wrong, a1, a2))[0] > 1e-2

    @pytest.mark.parametrize("ratio", [-0.5, -0.2, 0.2, 0.5, 0.7, 0.9])
    def test_pi_duration_closed_form(self, ratio):
        # the 10/11 pair: transfer a2^2 / (a2^2 + delta^2) at tau = pi / hypot(a2, delta),
        # up to the a1 couplings to the far-detuned levels (measured 3.5e-5 and 2.5e-5)
        a2 = 0.1
        delta = ratio * a2
        gen = Generator(500.0, 100.0, 5.0, 95.0 + delta, 0.5, a2)
        tau = gen.pi_duration()
        assert tau == pytest.approx(np.pi / math.hypot(a2, delta), rel=1e-4)
        assert gen.transfer(tau) == pytest.approx(a2**2 / (a2**2 + delta**2), abs=1e-4)

    @pytest.mark.parametrize("ratio", [1.1, 1.5])
    def test_no_inversion_past_a2(self, ratio):
        gen = Generator(500.0, 100.0, 5.0, 95.0 + ratio * 0.1, 0.5, 0.1)
        with pytest.raises(CalibrationError, match="^no population inversion "):
            gen.pi_duration()


class TestEvolveExact:
    """The exact exponential: `gen.gate(t) @ amps` is the state at time t."""

    def test_t0_is_identity(self, gen12):
        state = superposition_state(EQ21_AMPS)
        out = gen12.gate(0.0) @ state.amps
        assert np.allclose(out, state.amps, atol=1e-15)

    def test_decoupled_pi_pulse_analytic(self, params12):
        # with a1 = 0 the {10,11} block closes: c10(t) = i sin(a2 t / 2) c11(0)
        pulse = PulseSpec(carrier=95.0, a1=0.0, a2=0.1, duration=0.0)
        gen = build_generator(params12, pulse)
        out = gen.gate(np.pi / 0.1) @ digital_state("11").amps
        assert np.max(np.abs(out - np.array([0, 0, 1j, 0]))) < 1e-10

    def test_decoupled_partial_rotation_analytic(self, params12):
        pulse = PulseSpec(carrier=95.0, a1=0.0, a2=0.1, duration=0.0)
        gen = build_generator(params12, pulse)
        for t in (3.0, 11.7, 25.0):
            _, _, c10, c11 = gen.gate(t) @ digital_state("11").amps
            assert abs(c10 - 1j * np.sin(0.05 * t)) < 1e-10
            assert abs(c11 - np.cos(0.05 * t)) < 1e-10

    def test_matches_scipy_expm(self, gen12):
        # independent library cross-check of the eigendecomposition path
        state = superposition_state(EQ21_AMPS)
        for t in (0.37, 5.0, 31.4):
            expected = scipy.linalg.expm(0.5j * gen12.matrix_b * t) @ state.amps
            out = gen12.gate(t) @ state.amps
            assert np.max(np.abs(out - expected)) < 1e-11

    def test_negative_time_rejected(self, gen12):
        with pytest.raises(ValueError, match="duration must be finite and >= 0"):
            gen12.gate(-1.0)

    def test_numpy_scalar_duration_printed_as_number(self, gen12):
        with pytest.raises(ValueError, match=r"^duration must be finite and >= 0, got -1\.0$"):
            gen12.gate(np.float64(-1.0))

    @pytest.mark.parametrize("t", [-1e-300, np.inf, np.nan])
    @pytest.mark.parametrize("frame", ["raw", "primed"])
    def test_nonfinite_or_negative_duration_rejected(self, gen12, t, frame):
        with pytest.raises(ValueError, match="duration must be finite and >= 0"):
            gen12.gate(t, frame)

    def test_nonfinite_generator_rejected(self):
        # B[00,00] = -2 (100 - 1e308 - 10) overflows to inf
        with pytest.raises(ValueError, match="generator contains non-finite entries"):
            Generator(1e308, 100.0, 5.0, 95.0, 0.5, 0.1)

    @pytest.mark.parametrize(
        "point, overflowing",
        [((1.0, 1.0, -1e308, 1e308, 0.5, 0.1), 0), ((1.0, 1e308, 5e307, 5e307, 0.5, 0.1), 1)],
        ids=["d0_only", "d1_only"],
    )
    def test_each_nonfinite_detuning_rejected(self, point, overflowing):
        # B[11,11] = 2 delta is finite whenever B[00,00] = ... - 2 delta is, so two are checked
        omega1, omega2, coupling_j, carrier, _, _ = point
        delta = carrier - (omega2 - coupling_j)
        detunings = [
            -2.0 * (omega2 - omega1 - 2.0 * coupling_j) - 2.0 * delta, -2.0 * (omega2 - omega1)
        ]
        assert [math.isfinite(d) for d in detunings] == [overflowing != k for k in (0, 1)]
        with pytest.raises(ValueError, match="^generator contains non-finite entries$"):
            Generator(*point)

    @pytest.mark.parametrize(
        "name, value",
        [("omega1", 0.0), ("omega1", -500.0), ("omega2", 0.0), ("omega2", -100.0),
         ("coupling_j", np.inf), ("coupling_j", np.nan), ("a1", -0.5), ("a1", np.inf),
         ("a2", -0.1), ("a2", np.nan)],
    )
    def test_out_of_range_inputs_rejected_like_the_dataclasses(self, name, value):
        point = dict(_POINT12)
        point[name] = value
        with pytest.raises(ValueError) as dataclass_error:
            SystemParams(point["omega1"], point["omega2"], point["coupling_j"])
            PulseSpec(carrier=point["carrier"], a1=point["a1"], a2=point["a2"], duration=0.0)
        with pytest.raises(ValueError) as generator_error:
            Generator(**point)
        assert str(generator_error.value) == str(dataclass_error.value)
        assert str(generator_error.value).startswith(f"{name} must be")

    @given(t=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_unitarity(self, gen12, t):
        out = gen12.gate(t) @ superposition_state(EQ21_AMPS).amps
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-12

    @given(
        t1=st.floats(min_value=0.0, max_value=40.0),
        t2=st.floats(min_value=0.0, max_value=40.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_group_property(self, gen12, t1, t2):
        two_step = gen12.gate(t2) @ gen12.gate(t1)
        one_step = gen12.gate(t1 + t2)
        assert np.max(np.abs(two_step - one_step)) < 1e-10


def _pi_calibration_points(n=20, seed=20261017):
    """(omega1, omega2, J, a1, a2, tau) drawn from the pi-calibration benchmark ranges."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        j = 5.0 * rng.uniform(0.96, 1.04)
        omega1 = 500.0 * rng.uniform(0.98, 1.02)
        omega2 = 100.0 * rng.uniform(0.98, 1.02)
        a2 = j * rng.uniform(0.012, 0.018)
        a1 = 0.5 * rng.uniform(0.8, 1.2)
        tau = np.pi / a2 * rng.uniform(0.8, 1.2)
        points.append((omega1, omega2, j, a1, a2, tau))
    return points


def _numpy_transfer(gen, tau):
    """The transfer as one numpy dot: the oracle for the scalar probe."""
    return float(abs(np.dot(gen.v[2] * gen.v[3], np.exp(0.5j * gen.lam * tau))) ** 2)


def _golden_section_max(f, lo, hi, tol):
    """Midpoint of a golden-section bracket of f's maximum, narrowed below tol."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    f_c, f_d = f(c), f(d)
    while b - a > tol:
        if f_c > f_d:
            b, d, f_d = d, c, f_c
            c = b - inv_phi * (b - a)
            f_c = f(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + inv_phi * (b - a)
            f_d = f(d)
    return 0.5 * (a + b)


#: the pi_calibration benchmark ranges, with a2 / J widened from [0.012, 0.018]
_POINTS = st.tuples(
    st.floats(480.0, 520.0),  # omega1
    st.floats(96.0, 104.0),  # omega2
    st.floats(4.8, 5.2),  # J
    st.floats(0.4, 0.6),  # a1
    st.floats(0.002, 0.1),  # a2 / J
)


class TestSpectralKernel:
    """Closed forms read off one eigensystem, checked against scipy's expm."""

    @pytest.mark.parametrize("point", _pi_calibration_points())
    def test_transfer_and_gates_match_expm(self, point):
        omega1, omega2, j, a1, a2, tau = point
        params = SystemParams(omega1, omega2, j)
        pulse = PulseSpec(carrier=params.resonant_carrier, a1=a1, a2=a2, duration=tau)
        # B and the primed phases written out independently of the package
        b = np.array(
            [
                [-2.0 * (omega2 - omega1 - 2.0 * j), a2, a1, 0.0],
                [a2, -2.0 * (omega2 - omega1), 0.0, a1],
                [a1, 0.0, 0.0, a2],
                [0.0, a1, a2, 0.0],
            ]
        )
        raw = scipy.linalg.expm(0.5j * b * tau)
        rates = np.array([omega2 - omega1 - 2.0 * j, omega2 - omega1, 0.0, 0.0])
        primed = np.exp(1j * rates * tau)[:, None] * raw
        gen = build_generator(params, pulse)
        # the phases reach max|lam| tau / 2 ~ 2e4 rad, so an ulp of lam or of
        # the phase argument moves an entry by ~eps max|lam| tau / 2 ~ 4e-12;
        # against a 40-digit mpmath expm the eigh path measured up to 2.0e-11
        # (about 5 such units) and scipy's expm up to 4.4e-12 at these ranges
        tol = 16.0 * np.finfo(float).eps * np.max(np.abs(gen.lam)) * tau / 2.0
        errors = {
            "transfer": abs(gen.transfer(tau) - abs(raw[2, 3]) ** 2),
            "raw gate": float(np.max(np.abs(tomography(params, pulse, frame="raw") - raw))),
            "primed gate": float(
                np.max(np.abs(tomography(params, pulse, frame="primed") - primed))
            ),
        }
        assert max(errors.values()) <= tol, f"errors vs expm {errors} exceed {tol:.3e}"

    def test_transfer_matches_gate(self, gen12, tau12):
        for t in (0.0, 7.3, tau12, 45.0):
            final = gen12.gate(t) @ digital_state("11").amps
            assert gen12.transfer(t) == pytest.approx(abs(final[2]) ** 2, abs=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(point=_POINTS, fraction=st.floats(0.0, 1.5))
    def test_transfer_matches_numpy_dot(self, point, fraction):
        # the scalar sum runs left to right, numpy's dot with fused
        # multiply-adds; seeded runs put them at most 3 ulp apart
        omega1, omega2, j, a1, ratio = point
        a2 = ratio * j
        gen = Generator(omega1, omega2, j, omega2 - j, a1, a2)
        tau = fraction * np.pi / a2
        assert abs(gen.transfer(tau) - _numpy_transfer(gen, tau)) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(
        point=_POINTS,
        detuning=st.floats(-0.999, 0.999),  # delta / a2
        fraction=st.floats(0.0, 1.0),  # tau / (1e4 pi / a2)
    )
    def test_objective_matches_gate_readout(self, point, detuning, fraction):
        # the weighted phase sum against the four entries of the gate it stands for
        omega1, omega2, j, a1, ratio = point
        a2 = ratio * j
        gen = Generator(omega1, omega2, j, omega2 - j + detuning * a2, a1, a2)
        tau = fraction * 1e4 * np.pi / a2
        g = gen.gate(tau)
        readout = 1.0 - abs(g[0, 0] + g[1, 1] + g[3, 2] + g[2, 3]) / 4.0
        assert abs(gen.objective(tau) - readout) <= 1e-15

    @settings(max_examples=50, deadline=None)
    @given(point=_POINTS)
    def test_pi_duration_matches_numpy_golden_section(self, point):
        omega1, omega2, j, a1, ratio = point
        a2 = ratio * j
        gen = Generator(omega1, omega2, j, omega2 - j, a1, a2)
        tau_nominal = np.pi / a2
        tol = 1e-6 * tau_nominal
        oracle = _golden_section_max(
            lambda tau: _numpy_transfer(gen, tau), 0.8 * tau_nominal, 1.2 * tau_nominal, tol
        )
        assert abs(gen.pi_duration() - oracle) <= tol

    @settings(max_examples=300, deadline=None)
    @given(
        omega1=st.floats(450.0, 550.0),
        omega2=st.floats(90.0, 110.0),
        j=st.floats(2.5, 7.5),
        a1=st.floats(0.0, 1.0),
        ratio=st.floats(0.3, 0.999),  # a2 / J
    )
    def test_pi_duration_is_grid_maximum_as_a2_nears_j(self, omega1, omega2, j, a1, ratio):
        # as a2 nears J the drive also reaches the omega2 + J line; the timing
        # must still land on the bracket's highest transfer, not a side peak
        a2 = ratio * j
        gen = Generator(omega1, omega2, j, omega2 - j, a1, a2)
        tau = gen.pi_duration()
        reached = gen.transfer(tau)
        tau_nominal = np.pi / a2
        grid = np.linspace(0.8 * tau_nominal, 1.2 * tau_nominal, 2001).tolist()
        best = max(gen.transfer(t) for t in grid)
        gap = best - reached
        assert reached >= 0.5 and gap <= 1e-9, (
            f"transfer {reached!r} at tau {tau!r}: below 1/2 or short of the "
            f"2001-point grid maximum {best!r} by {gap:.3e} (bound 1e-9)"
        )

    @pytest.mark.parametrize("a1_per_a2", [0.0, 5.0])
    @pytest.mark.parametrize("ratio", [1e-6, 1e-5, 1e-4])  # a2 / J, below _POINTS' 0.002
    def test_tiny_a2_edges(self, ratio, a1_per_a2):
        a2 = ratio * 5.0
        gen = Generator(500.0, 100.0, 5.0, 95.0, a1_per_a2 * a2, a2)
        tau_nominal = np.pi / a2
        tau = gen.pi_duration()
        assert abs(tau - tau_nominal) <= 1e-6 * tau_nominal, f"pi timing {tau!r}"
        g = gen.gate(tau)
        assert gen.transfer(tau) == pytest.approx(abs(g[2, 3]) ** 2, abs=1e-14)
        readout = 1.0 - abs(g[0, 0] + g[1, 1] + g[3, 2] + g[2, 3]) / 4.0
        assert abs(gen.objective(tau) - readout) <= 1e-15
        # the phases reach max|lam| tau / 2 ~ 3e8 rad at a2 / J = 1e-6; measured up to 0.14 of tol
        tol = 16.0 * np.finfo(float).eps * np.max(np.abs(gen.lam)) * tau / 2.0
        error = float(np.max(np.abs(g - scipy.linalg.expm(0.5j * gen.matrix_b * tau))))
        assert error <= tol, f"error vs expm {error:.3e} exceeds {tol:.3e}"

    def test_pi_timing_rejects_a_tiny_a2_that_a1_detunes(self):
        # at a1 = 0.5 the a1-dressed 10/11 detuning, about 3.8e-6, rivals a2 = 5e-6: the
        # transfer peaks at 0.632 on the bracket's lower edge, outside it
        gen = Generator(500.0, 100.0, 5.0, 95.0, 0.5, 5e-6)
        with pytest.raises(CalibrationError, match="no interior transfer maximum"):
            gen.pi_duration()

    @pytest.mark.parametrize(
        "point, tau",
        [
            ((500.0, 100.0, 5.0, 95.0, 0.5, 0.1), 31.41592653589793),
            ((500.06, 100.0, 5.0, 95.0, 0.10016 * 500.06 / 100.0, 0.10016), 31.36581613646792),
            ((500.0, 100.0, 5.0, 95.0, 0.5, 0.08), 39.269172766857494),
            ((500.0, 100.0, 5.0, 95.0, 0.5, 0.04), 78.53981633974482),
            ((500.0, 100.0, 5.0, 95.0, 0.5, 0.025), 125.66370614359172),
        ],
        ids=["params12", "params24", "a2=0.08", "a2=0.04", "a2=0.025"],
    )
    def test_pi_duration_bits(self, point, tau):
        # the durations of the numpy-probe search, which the goldens print
        assert Generator(*point).pi_duration() == tau

    def test_pi_duration_probes_without_numpy(self, gen12, monkeypatch):
        calls = {"exp": 0, "dot": 0}

        def counting(name):
            original = getattr(np, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np, name, counting(name))
        gen12.pi_duration()
        assert calls == {"exp": 0, "dot": 0}

    @pytest.mark.parametrize("frame", ["raw", "primed"])
    def test_tomography_diagonalizes_once(self, params12, pulse12, frame, eigh_calls):
        tomography(params12, pulse12, frame=frame)
        assert len(eigh_calls) == 1


_EDGES = (0.0, -0.0, -1.0, 1e-300, 1e308, np.inf, -np.inf, np.nan)
_POINT12 = {
    "omega1": 500.0, "omega2": 100.0, "coupling_j": 5.0, "carrier": 95.0, "a1": 0.5, "a2": 0.1,
}


def _first_error(*calls) -> str | None:
    """The message of the first call that raises a ValueError or RuntimeError, or None."""
    with np.errstate(over="ignore", invalid="ignore"):
        for call in calls:
            try:
                call()
            except (ValueError, RuntimeError) as exc:
                return str(exc)
    return None


class TestInlineRangeChecks:
    """`Generator` and `gate` restate core's range rules as comparison chains, for speed.

    At each edge value a chain must fail exactly when some `check_param` raises:
    then the `check_param` calls after it raise the same message.  A chain that
    failed on values the rules accept would go on silently, so the calls are
    recorded.  An in-range value may still fail only for the reasons named here.
    """

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []

        def recorded(name, value):
            calls.append(name)
            check_param(name, value)

        # `Generator`'s fallback reaches core's through the records it builds
        for module in (spingate.core, spingate.propagator):
            monkeypatch.setattr(module, "check_param", recorded)
        return calls

    @pytest.mark.parametrize("value", _EDGES)
    @pytest.mark.parametrize("name", list(_POINT12))
    def test_generator_chain_matches_check_param(self, fallbacks, name, value):
        expected = _first_error(lambda: check_param(name, value))
        got = _first_error(lambda: Generator(**{**_POINT12, name: value}))
        if expected is None:
            assert fallbacks == []
            # 1e308 for anything but a1 or a2 overflows a detuning of B
            assert got in (None, "generator contains non-finite entries")
        else:
            assert got == expected

    @pytest.mark.parametrize("frame", ["raw", "primed", "lab", "", "Raw"])
    @pytest.mark.parametrize("tau", _EDGES)
    def test_gate_chain_matches_check_param(self, gen12, fallbacks, tau, frame):
        expected = _first_error(
            lambda: check_param("duration", tau), lambda: check_param("frame", frame)
        )
        got = _first_error(lambda: gen12.gate(tau, frame))
        if expected is None:
            assert fallbacks == []
            # at tau = 1e308 the phases lam * tau / 2 overflow
            assert got in (None, "gate at tau=1e+308 is not unitary (defect nan)")
        else:
            assert got == expected


class TestUnitarityGuard:
    def test_overflowing_phases_raise_instead_of_returning_nan(self, gen12):
        # lam tau / 2 overflows; the check runs on Python floats before numpy could warn
        # (the suite turns a warning into an error), with the message a nan defect had;
        # a numpy scalar duration prints as a plain number
        message = r"^gate at tau=1e\+308 is not unitary \(defect nan\)$"
        for tau in (1e308, np.float64(1e308)):
            for frame in ("raw", "primed"):
                with pytest.raises(RuntimeError, match=message):
                    gen12.gate(tau, frame)
            for readout in (gen12.transfer, gen12.objective):
                with pytest.raises(RuntimeError, match=message):
                    readout(tau)

    @pytest.mark.parametrize(
        "tau, error",
        [(-1.0, ValueError), (math.nan, ValueError), (math.inf, ValueError), (1e308, RuntimeError)],
    )
    def test_transfer_rejects_a_bad_duration_as_objective_does(self, gen12, tau, error):
        with pytest.raises(error) as expected:
            gen12.objective(tau)
        with pytest.raises(error) as got:
            gen12.transfer(tau)
        assert got.type is expected.type
        assert str(got.value) == str(expected.value)

    def test_overflowing_time_series_and_frame_raise_without_warning(self, gen12):
        message = r"^frame phases overflow at t = 1e\+308$"
        for number in (float, np.float64):
            with pytest.raises(ValueError, match="^times and amplitudes must be finite$"):
                gen12.timeseries(digital_state("11"), number(1e308), number(2e307), "raw")
            for t in (number(1e308), np.array([[0.0], [1e308]])):
                with pytest.raises(ValueError, match=message):
                    frame_phase_factors(gen12, t)
        # the largest |B_kk| / 2 is about 410, so 1e305 is still finite
        assert np.isfinite(frame_phase_factors(gen12, 1e305)).all()

    @staticmethod
    def _skew(monkeypatch, scale):
        """Make every `eigh` return its eigenvectors times `scale`."""
        original = np.linalg.eigh

        def skewed(b):
            lam, v = original(b)
            return lam, v * scale

        monkeypatch.setattr(np.linalg, "eigh", skewed)

    def test_skewed_eigenvectors_raise_with_the_defect(self, monkeypatch, params12):
        self._skew(monkeypatch, 1.0 + 1e-6)
        # V V^T scales by (1 + 1e-6)^2, so V V^T - I = ((1 + 1e-6)^2 - 1) I: defect 2.000e-06
        defect = (1.0 + 1e-6) ** 2 - 1.0
        message = rf"^eigenvectors of B are not orthonormal \(defect {defect:.3e}\)$"
        with pytest.raises(RuntimeError, match=message):
            Generator(500.0, 100.0, 5.0, 95.0, 0.5, 0.1)
        # pi timing has no guard of its own: it cannot run on these eigenvectors
        with pytest.raises(RuntimeError, match=message):
            calibrate_pi_duration(params12, PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=0.0))

    def test_eigenvector_bound_keeps_every_gate_unitary(self, monkeypatch):
        # V (1 + s) has defect (1 + s)^2 - 1 ~ 2s: 9.8e-10 builds, 1.2e-9 does not
        self._skew(monkeypatch, 1.0 + 4.9e-10)
        gen = Generator(500.0, 100.0, 5.0, 95.0, 0.5, 0.1)
        rng = np.random.default_rng(20261020)
        for tau in rng.uniform(0.0, 1e4 * gen.pi_duration(), 50).tolist():
            gate = gen.gate(tau)
            assert np.abs(gate.conj().T @ gate - np.eye(4)).max() <= 1e-8
        monkeypatch.undo()  # so the next scale applies to eigh's own eigenvectors
        self._skew(monkeypatch, 1.0 + 6e-10)
        with pytest.raises(RuntimeError, match="^eigenvectors of B are not orthonormal"):
            Generator(500.0, 100.0, 5.0, 95.0, 0.5, 0.1)


class TestEvolveRk4:
    def test_single_step_matches_hand_stages(self, gen12):
        state = superposition_state(EQ21_AMPS)
        h = 1e-4
        a = 0.5j * gen12.matrix_b
        c = state.amps
        k1 = a @ c
        k2 = a @ (c + 0.5 * h * k1)
        k3 = a @ (c + 0.5 * h * k2)
        k4 = a @ (c + h * k3)
        expected = c + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out = evolve_rk4(state, gen12, h, h)
        assert np.max(np.abs(out - expected)) < 1e-13

    def test_agrees_with_exact_at_fine_step(self, gen12, tau12):
        state = superposition_state(EQ21_AMPS)
        exact = gen12.gate(tau12) @ state.amps
        approx = evolve_rk4(state, gen12, tau12, tau12 / 1e7)
        assert np.max(np.abs(approx - exact)) < 1e-8

    def test_fourth_order_convergence(self, gen12, tau12):
        # halving the step cuts the error by ~2^4; measured in the regime
        # where the per-step phase rho(B)/2 * dt is small
        state = superposition_state(EQ21_AMPS)
        exact = gen12.gate(tau12) @ state.amps
        err = lambda n: np.max(
            np.abs(evolve_rk4(state, gen12, tau12, tau12 / n) - exact)
        )
        ratio = err(2 * 10**6) / err(4 * 10**6)
        assert 13.0 < ratio < 19.0

    def test_coarse_step_fails_loudly_outside_precondition(self, gen12, tau12):
        # dt * rho(B)/2 = 1.29 here: far outside the integrator's validity,
        # the norm decays visibly and the unphysical result is rejected
        state = superposition_state(EQ21_AMPS)
        with pytest.raises(ValueError, match="norm"):
            evolve_rk4(state, gen12, tau12, tau12 / 1e4)

    @pytest.mark.parametrize("dt", [0.0, -1.0, 2.0])
    def test_bad_step_rejected(self, gen12, dt):
        with pytest.raises(ValueError):
            evolve_rk4(digital_state("00"), gen12, 1.0, dt)


class TestFrameTransforms:
    @pytest.fixture(scope="class")
    def gen0(self, params12):
        # zero drive: pure free evolution
        return build_generator(params12, PulseSpec(carrier=95.0, a1=0.0, a2=0.0, duration=1.0))

    def test_free_evolution_phases(self, gen0):
        state = superposition_state(EQ21_AMPS)
        t = 0.731
        c00, c01, c10, c11 = frame_phase_factors(gen0, t) * state.amps
        assert abs(c00 - state.c00 * np.exp(+1j * (100 - 500 - 10) * t)) < 1e-15
        assert abs(c01 - state.c01 * np.exp(+1j * (100 - 500) * t)) < 1e-15
        assert c10 == state.c10 and c11 == state.c11

    def test_10_is_stationary(self, gen0):
        out = frame_phase_factors(gen0, 17.3) * digital_state("10").amps
        assert np.array_equal(out, digital_state("10").amps)

    @given(t=st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=40, deadline=None)
    def test_primed_inverts_free_evolution(self, gen0, t):
        # without drive the primed frame is frozen at the initial state
        state = superposition_state(EQ21_AMPS)
        back = gen0.gate(t, "primed") @ state.amps
        assert np.max(np.abs(back - state.amps)) < 1e-12

    @given(t=st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=40, deadline=None)
    def test_phase_only_moduli_preserved(self, gen0, t):
        state = superposition_state(EQ21_AMPS)
        out = frame_phase_factors(gen0, t) * state.amps
        assert np.max(np.abs(np.abs(out) - np.abs(state.amps))) < 1e-15

    def test_matches_exact_with_zero_drive(self, gen0):
        # the raw zero-drive evolution is the inverse frame transform
        state = superposition_state(EQ21_AMPS)
        for t in (0.1, 3.7, 31.4):
            via_gen = gen0.gate(t) @ state.amps
            via_phases = state.amps / frame_phase_factors(gen0, t)
            assert np.max(np.abs(via_gen - via_phases)) < 1e-12

    def test_t0_identity(self, gen0):
        state = superposition_state(EQ21_AMPS)
        assert np.array_equal(frame_phase_factors(gen0, 0.0) * state.amps, state.amps)

    def test_frame_phase_factors_diagonal(self, gen0):
        t = 2.5
        factors = frame_phase_factors(gen0, t)
        state = superposition_state(EQ21_AMPS)
        assert np.max(np.abs(np.diag(factors) @ state.amps - factors * state.amps)) < 1e-15

    def test_frame_phase_factors_broadcast_over_times(self, gen0):
        ts = np.array([0.0, 0.731, 2.5, 31.4])
        rows = frame_phase_factors(gen0, ts[:, None])
        assert rows.shape == (4, 4)
        for t, row in zip(ts, rows):
            assert np.array_equal(row, frame_phase_factors(gen0, t))

    def test_negative_time_rejected(self, gen12):
        with pytest.raises(ValueError, match="duration must be finite and >= 0"):
            gen12.timeseries(digital_state("00"), -1.0, 0.1)


class TestResonantSwapEndpoints:
    def test_pi_pulse_sends_11_to_i_10(self, params12, pulse12, tau12):
        gen = build_generator(params12, pulse12)
        final = gen.gate(tau12, "primed") @ digital_state("11").amps
        assert abs(final[2] - 1j) < 1e-2

    def test_pi_pulse_sends_10_to_i_11(self, params12, pulse12, tau12):
        gen = build_generator(params12, pulse12)
        final = gen.gate(tau12, "primed") @ digital_state("10").amps
        assert abs(final[3] - 1j) < 1e-2

    def test_superposition_swap(self, params12, pulse12, tau12):
        gen = build_generator(params12, pulse12)
        initial = superposition_state(EQ21_AMPS)
        _, _, c10, c11 = gen.gate(tau12, "primed") @ initial.amps
        assert abs(c11 - 1j * initial.c10) < 1e-2
        assert abs(c10 - 1j * initial.c11) < 1e-2


class TestNonresonantBehavior:
    """Measured leakage of the undriven states under the benchmark pulse.

    The 00 <-> 01 pair is coupled by a2 = 0.1 at detuning 2J = 10, so the
    partner amplitude oscillates up to a2/sqrt(a2^2 + 4J^2) ~ 1e-2, and the
    populated amplitude's phase drifts by ~4e-4 rad per unit time from
    second-order level repulsion.  The regression bounds pin that scale
    from both sides.
    """

    @pytest.mark.parametrize("label", ["00", "01"])
    def test_componentwise_deviation_scale(self, params12, pulse12, tau12, label):
        series = run_timeseries(
            params12, pulse12, digital_state(label), sample_dt=tau12 / 2000, frame="primed"
        )
        initial = digital_state(label).amps
        deviation = np.max(np.abs(series.amps - initial[None, :]))
        assert deviation < 1.5e-2
        assert deviation > 5e-3  # genuinely 1e-2-scale, not 1e-3

    @pytest.mark.parametrize("label", ["00", "01"])
    def test_populated_modulus_survives(self, params12, pulse12, tau12, label):
        series = run_timeseries(
            params12, pulse12, digital_state(label), sample_dt=tau12 / 2000, frame="primed"
        )
        idx = int(np.argmax(np.abs(digital_state(label).amps)))
        moduli = np.abs(series.amps[:, idx])
        assert np.min(moduli) > 1.0 - 2e-4


class TestRunTimeseries:
    def test_sampling_grid_contract(self, params12, pulse12):
        series = run_timeseries(
            params12, pulse12, digital_state("11"), sample_dt=1.0, frame="raw"
        )
        assert series.t[0] == 0.0
        assert series.t[-1] == pulse12.duration
        assert np.all(np.diff(series.t) > 0)
        interior = series.t[:-1]
        assert np.allclose(interior, np.arange(len(interior)) * 1.0)

    @pytest.mark.parametrize("duration", [None, 1.0, 10.0])
    def test_exact_subdivision_ends_on_duration(self, params12, pulse12, duration):
        # n * (duration / n) rounds to within an ulp of the duration, which
        # from ~2^14 samples on is below any fixed tolerance in units of
        # sample_dt; that point is the pulse end, not an interior row.
        pulse = pulse12 if duration is None else replace(pulse12, duration=duration)
        series = run_timeseries(
            params12, pulse, digital_state("00"), sample_dt=pulse.duration / 20000
        )
        assert np.all(np.diff(series.t) > 0)
        assert series.t[-1] == pulse.duration
        assert len(series) == 20001

    def test_coarse_sampling_gives_two_rows(self, params12, pulse12):
        series = run_timeseries(
            params12, pulse12, digital_state("11"), sample_dt=10 * pulse12.duration
        )
        assert len(series) == 2
        assert series.t[0] == 0.0 and series.t[-1] == pulse12.duration

    def test_zero_duration_one_row(self, params12):
        pulse = PulseSpec(carrier=95.0, a1=0.5, a2=0.1, duration=0.0)
        series = run_timeseries(params12, pulse, digital_state("11"), sample_dt=0.5)
        assert len(series) == 1
        assert series.t[0] == 0.0
        # V V^T is the identity to rounding
        assert np.max(np.abs(series.amps[0] - digital_state("11").amps)) <= 1e-15

    def test_norm_column_is_unit(self, params12, pulse12):
        series = run_timeseries(
            params12, pulse12, digital_state("11"), sample_dt=pulse12.duration / 500
        )
        assert np.max(np.abs(series.norm - 1.0)) < 1e-12

    def test_monotonic_swap_curves(self, params12, pulse12):
        series = run_timeseries(
            params12, pulse12, digital_state("11"),
            sample_dt=pulse12.duration / 1000, frame="primed",
        )
        re_c11 = series.amps[:, 3].real
        im_c10 = series.amps[:, 2].imag
        assert re_c11[0] == pytest.approx(1.0)
        assert abs(re_c11[-1]) < 1e-2
        assert im_c10[0] == pytest.approx(0.0)
        assert im_c10[-1] > 1.0 - 1e-2
        assert np.all(np.diff(re_c11) <= 0)
        assert np.all(np.diff(im_c10) >= 0)

    def test_bad_sample_dt(self, params12, pulse12):
        with pytest.raises(ValueError):
            run_timeseries(params12, pulse12, digital_state("11"), sample_dt=0.0)

    @pytest.mark.parametrize("sample_dt", [np.inf, np.nan])
    def test_nonfinite_sample_dt_rejected(self, params12, pulse12, sample_dt):
        # inf once gave a one-row series without t = 0, nan an int conversion error
        with pytest.raises(ValueError, match="sample_dt must be positive and finite"):
            run_timeseries(params12, pulse12, digital_state("11"), sample_dt=sample_dt)

    def test_bad_frame(self, params12, pulse12):
        with pytest.raises(ValueError):
            run_timeseries(params12, pulse12, digital_state("11"), sample_dt=1.0, frame="lab")

    @pytest.mark.parametrize("duration", [np.inf, np.nan])
    def test_nonfinite_duration_rejected(self, gen12, duration):
        with pytest.raises(ValueError, match="duration must be finite and >= 0"):
            gen12.timeseries(digital_state("11"), duration, 1.0)
