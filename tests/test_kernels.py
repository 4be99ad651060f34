"""Property tests for the potential-field control kernels."""

import numpy as np
import pytest

from kernel_oracle import sigma_norm
from uavswarm.kernels import (
    _cell_pairs,
    _pair_indices,
    _sigma_grads,
    bump,
    control_input,
    f_term,
    flocking_goal_term,
    g_term,
    h_term,
    pair_potential,
    phi_sigmoid,
    sigma_norm_scalar,
)
from uavswarm.model import FLOCKING_MODE, QOS_MODE, ControlGains
from uavswarm.radio import geometry

KP = ControlGains()


def _control(positions, velocities, loads, alive, serving, user_pos, rates,
             targets, premium, p, mode=QOS_MODE):
    """control_input with the relations and centroid a tick would give it
    at these positions."""
    centroid = user_pos.mean(axis=0) if len(user_pos) else np.zeros(3)
    return control_input(
        positions, velocities, loads, alive, serving, user_pos, rates,
        targets, premium, p, mode, _cell_pairs(positions, alive, p),
        _pair_indices(geometry(positions, user_pos).dist <= p.r), centroid)


class TestBump:
    def test_flat_region(self):
        assert bump(0.0, 0.2) == 1.0
        assert bump(0.1, 0.2) == 1.0
        assert bump(0.2, 0.2) == 1.0

    def test_cutoff(self):
        assert bump(1.0, 0.2) == 0.0
        assert bump(7.3, 0.2) == 0.0

    def test_negative_argument_clamps_to_one(self):
        assert bump(-0.5, 0.2) == 1.0

    def test_gamma_zero_form(self):
        # taper spans the whole unit interval
        assert bump(0.0, 0.0) == 1.0
        assert bump(0.5, 0.0) == pytest.approx(0.5)
        assert bump(1.0, 0.0) == 0.0

    def test_range_and_monotone(self):
        zs = np.linspace(-0.5, 1.5, 401)
        vals = np.array([bump(z, 0.2) for z in zs])
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_continuity_at_joints(self):
        for joint in (0.2, 1.0):
            lo = bump(joint - 1e-7, 0.2)
            hi = bump(joint + 1e-7, 0.2)
            assert abs(hi - lo) < 1e-6


class TestSigmaNorm:
    def test_scalar_at_zero(self):
        assert sigma_norm_scalar(0.0, 0.1) == 0.0

    def test_vector_matches_scalar_of_magnitude(self):
        v = np.array([3.0, -4.0, 12.0])
        assert sigma_norm(v, 0.1) == pytest.approx(
            sigma_norm_scalar(13.0, 0.1), rel=1e-12)

    def test_gradient_against_finite_differences(self):
        """The controller's sigma-gradient is the exact gradient of the
        sigma-norm."""
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(50):
            z = rng.normal(scale=30.0, size=3)
            g = _sigma_grads(z, 0.1)[0]
            for k in range(3):
                zp, zm = z.copy(), z.copy()
                zp[k] += h
                zm[k] -= h
                num = (sigma_norm(zp, 0.1) - sigma_norm(zm, 0.1)) / (2 * h)
                assert abs(num - g[k]) <= 1e-6

    def test_gradient_bounded(self):
        # the sigma-gradient stays below 1/sqrt(eps) whatever the input size
        g = _sigma_grads(np.array([1e6, 0.0, 0.0]), 0.1)[0]
        assert np.linalg.norm(g) < 1.0 / np.sqrt(0.1) + 1e-9


class TestPhi:
    def test_zero_at_zero_exactly(self):
        assert phi_sigmoid(0.0, KP) == 0.0

    def test_zero_at_zero_uneven_gains(self):
        p = ControlGains(a=4.0, b=6.0)
        assert phi_sigmoid(0.0, p) == pytest.approx(0.0, abs=1e-15)

    def test_odd_bounded(self):
        assert phi_sigmoid(3.0, KP) == pytest.approx(-phi_sigmoid(-3.0, KP))
        assert abs(phi_sigmoid(1e9, KP)) <= (KP.a + KP.b) / 2 + 1e-9
        assert phi_sigmoid(1e9, KP) > 0  # deficit pulls toward the user


class TestPairPotential:
    def test_zero_at_rest_distance(self):
        assert pair_potential(KP.d_sig, KP) == 0.0

    def test_zero_at_and_beyond_range(self):
        assert pair_potential(KP.r_sig, KP) == 0.0
        assert pair_potential(KP.r_sig * 1.7, KP) == 0.0

    def test_sign_structure(self):
        closer = sigma_norm_scalar(40.0, KP.eps)
        apart = sigma_norm_scalar(150.0, KP.eps)
        assert pair_potential(closer, KP) < 0.0
        assert pair_potential(apart, KP) > 0.0


def _pair_state(spacing, load0=5, load1=5):
    positions = np.array([[0.0, 0.0, 100.0], [spacing, 0.0, 100.0]])
    loads = np.array([load0, load1])
    alive = np.array([True, True])
    return positions, loads, alive


class TestFTerm:
    def test_newton_pair_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            offset = rng.uniform(-200.0, 200.0, size=3)
            offset[2] = 0.0
            positions = np.array([[0.0, 0.0, 100.0], [0.0, 0.0, 100.0] + offset])
            loads = np.array([12, 12])
            alive = np.array([True, True])
            if np.linalg.norm(offset) < 1.0:
                continue
            fi, fj = f_term(positions, loads, KP,
                            _cell_pairs(positions, alive, KP))
            assert np.array_equal(fi, -fj)

    def test_zero_at_rest_distance(self):
        positions, loads, alive = _pair_state(KP.d)
        assert np.array_equal(
            f_term(positions, loads, KP, _cell_pairs(positions, alive, KP))[0],
            np.zeros(3))

    def test_dead_and_out_of_range_ignored(self):
        positions, loads, alive = _pair_state(150.0)
        dead = np.array([True, False])
        assert np.array_equal(
            f_term(positions, loads, KP, _cell_pairs(positions, dead, KP))[0],
            np.zeros(3))
        positions, loads, alive = _pair_state(KP.r + 1.0)
        assert np.array_equal(
            f_term(positions, loads, KP, _cell_pairs(positions, alive, KP))[0],
            np.zeros(3))

    def test_overloaded_neighbor_attracts_assistance(self):
        # pair force is zero at rest spacing, so only the crowd term acts
        positions, loads, alive = _pair_state(KP.d)
        crowded = np.array([0, KP.n_max + 40])
        pairs = _cell_pairs(positions, alive, KP)
        f = f_term(positions, crowded, KP, pairs)[0]
        assert f[0] > 0.0  # neighbor sits at +x
        assert np.array_equal(f_term(positions, np.array([0, KP.n_max]), KP,
                                     pairs)[0], np.zeros(3))


class TestGTerm:
    def test_matched_velocities_give_zero(self):
        positions, _, alive = _pair_state(150.0)
        velocities = np.array([[3.0, -1.0, 0.0], [3.0, -1.0, 0.0]])
        assert np.array_equal(
            g_term(positions, velocities, KP,
                   _cell_pairs(positions, alive, KP))[0], np.zeros(3))

    def test_points_toward_neighbor_velocity(self):
        positions, _, alive = _pair_state(150.0)
        velocities = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        g = g_term(positions, velocities, KP,
                   _cell_pairs(positions, alive, KP))[0]
        assert g[0] > 0.0 and g[1] == 0.0


class TestHTerm:
    """Gate structure of the user-coupling force."""

    def _single_user(self, rate, connected=True, premium=True, offset=80.0):
        uav = np.array([[0.0, 0.0, 100.0]])
        users = np.array([[offset, 0.0, 0.0]])
        rates = np.array([rate])
        targets = np.array([300e6 if premium else 100e6])
        return h_term(uav, np.array([0 if connected else -1]), users, rates,
                      targets, np.array([premium]), KP,
                      _pair_indices(geometry(uav, users).dist <= KP.r))[0]

    def test_connected_at_target_is_exactly_zero(self):
        assert np.array_equal(self._single_user(300e6), np.zeros(3))

    def test_connected_above_gate_is_exactly_zero(self):
        # beta * target closes the bump gate
        assert np.array_equal(self._single_user(450e6), np.zeros(3))
        assert np.array_equal(self._single_user(600e6), np.zeros(3))

    def test_connected_deficit_attracts(self):
        h = self._single_user(200e6)
        assert h[0] > 0.0  # user sits at +x

    def test_connected_slight_surplus_repels(self):
        h = self._single_user(310e6)
        assert h[0] < 0.0

    def test_premium_gain_outweighs_regular(self):
        hp = self._single_user(200e6, premium=True)
        uav, user = np.array([[0.0, 0.0, 100.0]]), np.array([[80.0, 0.0, 0.0]])
        hr = h_term(uav, np.array([0]), user, np.array([50e6]),
                    np.array([100e6]), np.array([False]), KP,
                    _pair_indices(geometry(uav, user).dist <= KP.r))[0]
        assert hp[0] > hr[0] > 0.0

    def test_non_connected_deficient_repels(self):
        h = self._single_user(100e6, connected=False)
        assert h[0] < 0.0

    def test_non_connected_satisfied_is_zero(self):
        assert np.array_equal(self._single_user(300e6, connected=False),
                              np.zeros(3))

    def test_non_connected_out_of_range_is_zero(self):
        assert np.array_equal(
            self._single_user(0.0, connected=False, offset=KP.r + 50.0),
            np.zeros(3))


class TestControlInput:
    def test_equilibrium_fixed_point_is_exact(self):
        """Two UAVs at rest spacing, matched velocities, all users satisfied."""
        gains = ControlGains()
        positions = np.array([[0.0, 0.0, 100.0], [gains.d, 0.0, 100.0]])
        velocities = np.array([[2.0, 1.0, 0.0], [2.0, 1.0, 0.0]])
        loads = np.array([1, 1])
        alive = np.array([True, True])
        user_pos = np.array([[10.0, 5.0, 0.0], [gains.d - 10.0, -5.0, 0.0]])
        rates = np.array([450e6, 450e6])     # at beta * target: gates closed
        targets = np.array([300e6, 300e6])
        premium = np.array([True, True])
        serving = np.array([0, 1])
        u = _control(positions, velocities, loads, alive, serving, user_pos,
                     rates, targets, premium, gains)
        assert np.array_equal(u, np.zeros((2, 3)))

    def test_z_component_always_zero(self):
        positions = np.array([[0.0, 0.0, 100.0], [40.0, 10.0, 100.0]])
        velocities = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        u = _control(positions, velocities, np.array([0, 0]),
                     np.array([True, True]), np.zeros(0, dtype=int),
                     np.zeros((0, 3)), np.zeros(0), np.zeros(0),
                     np.zeros(0, dtype=bool), KP)
        assert np.array_equal(u[:, 2], np.zeros(2))

    def test_norm_clamped_to_u_max(self):
        # 40 m spacing drives a strong repulsion
        positions = np.array([[0.0, 0.0, 100.0], [40.0, 0.0, 100.0]])
        velocities = np.zeros((2, 3))
        u = _control(positions, velocities, np.array([0, 0]),
                     np.array([True, True]), np.zeros(0, dtype=int),
                     np.zeros((0, 3)), np.zeros(0), np.zeros(0),
                     np.zeros(0, dtype=bool), ControlGains(u_max=2.0))
        assert np.linalg.norm(u[0]) == pytest.approx(2.0, rel=1e-12)

    def test_flocking_mode_ignores_rates(self):
        positions = np.array([[0.0, 0.0, 100.0]])
        velocities = np.zeros((1, 3))
        user_pos = np.array([[500.0, 0.0, 0.0]])
        args = (positions, velocities, np.array([1]), np.array([True]),
                np.array([0]), user_pos)
        tail = (np.array([300e6]), np.array([True]), KP)
        starved = _control(*args, np.array([0.0]), *tail, mode=FLOCKING_MODE)
        sated = _control(*args, np.array([450e6]), *tail, mode=FLOCKING_MODE)
        assert np.array_equal(starved, sated)
        assert starved[0, 0] > 0.0  # pulled toward the user centroid

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            _control(np.zeros((1, 3)), np.zeros((1, 3)), np.array([0]),
                     np.array([True]), np.zeros(0, dtype=int),
                     np.zeros((0, 3)), np.zeros(0), np.zeros(0),
                     np.zeros(0, dtype=bool), KP, mode="hover")


def test_flocking_goal_pulls_toward_centroid():
    users = np.array([[100.0, 0.0, 0.0], [300.0, 0.0, 0.0]])
    g, g_at = flocking_goal_term(
        np.array([[0.0, 0.0, 100.0], [200.0, 0.0, 0.0]]), users, KP,
        users.mean(axis=0))
    assert g[0] > 0.0
    assert np.array_equal(g_at, np.zeros(3))


def test_gains_sigma_images_match_sigma_norm():
    """The sigma images on ControlGains carry sigma_norm_scalar's bits."""
    rng = np.random.default_rng(12)
    for _ in range(500):
        d = float(rng.uniform(1.0, 500.0))
        gains = ControlGains(eps=float(rng.uniform(1e-3, 2.0)), d=d,
                             r=d + float(rng.uniform(1.0, 500.0)),
                             n_max=int(rng.integers(1, 1000)))
        assert gains.r_sig == sigma_norm_scalar(gains.r, gains.eps)
        assert gains.d_sig == sigma_norm_scalar(gains.d, gains.eps)
        assert gains.n_max_sig == sigma_norm_scalar(gains.n_max, gains.eps)
    assert KP.c_sig == 0.0  # a == b by default
    assert ControlGains(a=4.0, b=6.0).c_sig == pytest.approx(2.0 / 96 ** 0.5)
