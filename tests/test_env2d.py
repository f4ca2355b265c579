import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from proxymanip import demogen, env2d, retarget
from proxymanip.env2d import (
    Phase, ProxyAction, WorldConfig, builtin_catalogue, get_task, grasp_world,
    is_success, nearest_grasp, observe, reset, step,
)
from proxymanip.numcore import ConfigurationError


def kinetic_energy(state, obj) -> float:
    """Kinetic energy of the unit-mass proxy and the object, for the energy
    invariants."""
    ke = 0.5 * float(np.dot(state.proxy_vel, state.proxy_vel))
    if obj.kind == env2d.FREE_BODY:
        ke += 0.5 * obj.inertia * float(np.dot(state.object_qdot[:2], state.object_qdot[:2]))
        ke += 0.5 * obj.rot_inertia * float(state.object_qdot[2] ** 2)
    else:
        ke += 0.5 * obj.inertia * float(state.object_qdot[0] ** 2)
    return ke


@pytest.fixture
def drawer():
    return get_task("open-drawer")


@pytest.fixture
def config(drawer):
    return drawer.world_config()


class TestReset:
    def test_drawer_defaults(self, drawer, config):
        s = reset(config, drawer, seed=0)
        assert s.object_q[0] == 0.0
        assert np.array_equal(s.proxy_pos, [-0.3, 0.0])
        assert s.phase == Phase.EXPLORATION
        assert s.attachment is None

    def test_same_seed_bitwise_identical(self, drawer):
        cfg = drawer.world_config(start_jitter=0.1)
        a = reset(cfg, drawer, seed=42)
        b = reset(cfg, drawer, seed=42)
        assert np.array_equal(a.proxy_pos, b.proxy_pos)
        assert np.array_equal(a.object_q, b.object_q)

    def test_free_body_origin_zero_twist(self):
        task = get_task("move-box")
        s = reset(task.world_config(), task, seed=1)
        assert np.array_equal(s.object_q, [0.0, 0.0, 0.0])
        assert np.array_equal(s.object_qdot, [0.0, 0.0, 0.0])


class TestStep:
    def test_pd_equilibrium_leaves_state(self, drawer, config):
        s = reset(config, drawer, seed=0)
        act = ProxyAction(tuple(s.proxy_pos), (0.0, 0.0))
        nxt, _ = step(s, act, config, drawer)
        assert nxt.time_step == 1
        assert np.array_equal(nxt.proxy_pos, s.proxy_pos)
        assert np.array_equal(nxt.proxy_vel, s.proxy_vel)
        assert np.array_equal(nxt.object_q, s.object_q)

    def test_pd_force_formula(self, drawer, config):
        s = reset(config, drawer, seed=0)
        # proxy rests at (-0.3, 0) in free space; command 0.1 m to its right
        nxt, _ = step(s, ProxyAction((-0.2, 0.0), (0.0, 0.0)), config, drawer)
        force = nxt.proxy_vel / env2d.DT
        assert force[0] == pytest.approx(env2d.PD_KP * 0.1, abs=1e-12)
        assert force[1] == pytest.approx(0.0, abs=1e-12)

    def test_interaction_semi_implicit_euler(self):
        obj = env2d.ObjectModel(
            kind=env2d.PRISMATIC, extents=(0.2, 0.1), origin=(0.0, 0.0),
            axis=(1.0, 0.0), limits=(-1.0, 1.0), inertia=1.0, friction=0.0,
            grasp_points=(env2d.GraspPoint((-0.12, 0.0), 0.0),))
        task = env2d.TaskSpec("t", obj, (-0.3, 0.0), (0.0,), (0.5,), 0.05)
        cfg = task.world_config()
        s = reset(cfg, task, seed=0)
        s.phase = Phase.INTERACTION
        s.attachment = 0
        nxt, _ = step(s, ProxyAction((0.0, 0.0), (5.0, 0.0)), cfg, task)
        assert nxt.object_qdot[0] == pytest.approx(0.1, abs=1e-12)
        assert nxt.object_q[0] == pytest.approx(0.002, abs=1e-12)

    def test_interaction_slaves_proxy_to_grasp(self):
        task = get_task("open-drawer")
        cfg = task.world_config()
        s = reset(cfg, task, seed=0)
        s.phase = Phase.INTERACTION
        s.attachment = 0
        nxt, _ = step(s, ProxyAction((0.0, 0.0), (10.0, 0.0)), cfg, task)
        x, y, _ = grasp_world(task.object, nxt.object_q.tolist(), 0)
        assert np.allclose(nxt.proxy_pos, (x, y))

    def test_limit_clamp_emits_event(self):
        task = get_task("close-drawer")
        cfg = task.world_config()
        s = reset(cfg, task, seed=0)
        s.phase = Phase.INTERACTION
        s.attachment = 0
        events_seen = []
        for _ in range(400):
            s, ev = step(s, ProxyAction((0.0, 0.0), (-20.0, 0.0)), cfg, task)
            events_seen.extend(ev)
        assert s.object_q[0] == 0.0
        assert any(e[0] == "limit_hit" for e in events_seen)

    def test_collision_projects_proxy_out(self, drawer, config):
        s = reset(config, drawer, seed=0)
        # drawer rectangle spans x in [-0.02, 0.22]; command the proxy into it
        s.proxy_pos = np.array([-0.06, 0.0])
        for _ in range(50):
            s, _ = step(s, ProxyAction((0.1, 0.0), (0.0, 0.0)), config, drawer)
            if s.phase == Phase.INTERACTION:
                break
            *_, d = env2d.closest_on_rect(
                *s.proxy_pos.tolist(),
                *env2d.rect_center(drawer.object, s.object_q.tolist()),
                drawer.object.extents)
            assert d >= env2d.PROXY_RADIUS - 1e-12

    def test_nonfinite_step_names_the_clamped_action(self, drawer, config):
        s = reset(config, drawer, seed=0)
        with pytest.raises(FloatingPointError, match=re.escape(
                "step produced non-finite state at t=1: proxy=[nan, ") + ".*"
                + re.escape("from the clamped action desired_pos=[nan, 0.0], "
                            "force=[20.0, -3.0]")):
            step(s, ProxyAction((math.nan, 0.0), (50.0, -3.0)), config, drawer)

    def test_nonfinite_state_raises(self, drawer, config):
        s = reset(config, drawer, seed=0)
        s.proxy_pos = np.array([np.nan, 0.0])
        with pytest.raises(FloatingPointError):
            step(s, ProxyAction((0.0, 0.0), (0.0, 0.0)), config, drawer)


def step_in_place(task, pos, cfg):
    """One step from rest at ``pos``, commanding the proxy to stay there: the
    PD force is zero, so only the attach rule can change the state. ``pos``
    lies outside the contact band, where contact leaves the proxy alone."""
    s = reset(cfg, task, seed=0)
    s.proxy_pos = np.array(pos)
    nxt, _ = step(s, ProxyAction(tuple(pos), (0.0, 0.0)), cfg, task)
    assert nxt.proxy_pos.tolist() == list(pos)
    return nxt


class TestPhaseTransition:
    def test_fires_inside_radius(self, drawer):
        x, y, _ = grasp_world(drawer.object, [0.0], 0)
        out = step_in_place(drawer, (x - 0.09, y), drawer.world_config())
        assert out.phase == Phase.INTERACTION
        assert out.attachment == 0

    def test_silent_outside_radius(self, drawer):
        x, y, _ = grasp_world(drawer.object, [0.0], 0)
        out = step_in_place(drawer, (x - 0.11, y), drawer.world_config())
        assert out.phase == Phase.EXPLORATION
        assert out.attachment is None

    def test_equidistant_tie_breaks_to_lowest_index(self):
        task = get_task("move-box")
        # the two grasp points sit at (-0.08, 0) and (0.08, 0): equidistant
        # from the box's centre line, which leaves the box at y = 0.06
        out = step_in_place(task, (0.0, 0.1),
                            task.world_config(interact_radius=0.15))
        assert out.phase == Phase.INTERACTION
        assert out.attachment == 0


class TestNearestGrasp:
    """Move-box's grasp points sit at (-0.08, 0) and (0.08, 0) in the box
    frame, so every point on the box's vertical centre line is a tie."""

    @staticmethod
    def _distances(obj, q, px, py):
        return [math.hypot(px - x, py - y)
                for x, y, _ in (grasp_world(obj, q, i)
                                for i in range(len(obj.grasp_points)))]

    def test_tie_goes_to_lowest_index(self):
        task = get_task("move-box")
        q = [float(v) for v in task.start_q]
        d = self._distances(task.object, q, 0.0, 0.05)
        assert d[0] == d[1]
        assert nearest_grasp(task.object, q, 0.0, 0.05) == (0, d[0])

    def test_returns_nearest_and_its_distance(self):
        task = get_task("move-box")
        q = [0.1, -0.2, 0.5]
        d = self._distances(task.object, q, 0.3, -0.1)
        assert nearest_grasp(task.object, q, 0.3, -0.1) == (int(np.argmin(d)), min(d))

    def test_expert_transition_and_replay_agree_on_a_tie(self, monkeypatch):
        task = get_task("move-box")
        cfg = task.world_config(interact_radius=0.15)
        state = reset(cfg, task, seed=0)
        state.proxy_pos = np.array([0.0, 0.1])
        x0, y0, _ = grasp_world(task.object, state.object_q.tolist(), 0)
        assert demogen.scripted_expert(task)(state).desired_pos == (x0, y0)
        assert step_in_place(task, (0.0, 0.1), cfg).attachment == 0

        # replay attaches at the first interaction row: put the box so that
        # the arm's end effector lies on its centre line
        arm = retarget.default_arm()
        joints = np.array([-1.2, 1.0, 0.2])
        ee, _ = retarget.forward_kinematics(arm, joints)
        tied = replace(task, start_q=(float(ee[0]), float(ee[1]) - 0.05, 0.0))
        d = self._distances(task.object, list(tied.start_q), *ee.tolist())
        assert d[0] == d[1]
        finals = []
        monkeypatch.setattr(env2d, "is_success",
                            lambda s, t: finals.append(s) or True)
        row = {"phase": 1, "joints": joints.tolist()}
        out = retarget.RetargetedTrajectory(tied.name, [joints], [], [row])
        assert retarget.replay_retargeted(out, tied, arm)
        assert finals[0].attachment == 0


def zero_fill_observe(state):
    """The observation as a zeroed 12-slot row filled by slice writes, the
    reference ``observe`` must match bit for bit."""
    out = np.zeros(env2d.OBS_DIM)
    out[0:2] = state.proxy_pos
    out[2:4] = state.proxy_vel
    nq = state.object_q.shape[0]
    out[4:4 + nq] = state.object_q
    out[7:7 + nq] = state.object_qdot
    out[10] = 1.0 if state.phase == Phase.INTERACTION else 0.0
    out[11] = 0.0 if state.attachment is None else 1.0
    return out


class TestObserve:
    def test_exploration_flags(self, drawer, config):
        s = reset(config, drawer, seed=0)
        obs = observe(s, drawer.object)
        assert obs.shape == (12,)
        assert obs[10] == 0.0 and obs[11] == 0.0

    def test_interaction_flags(self, drawer, config):
        s = reset(config, drawer, seed=0)
        s.phase = Phase.INTERACTION
        s.attachment = 0
        obs = observe(s, drawer.object)
        assert obs[10] == 1.0 and obs[11] == 1.0

    def test_configuration_padding(self):
        box = get_task("move-box")
        s = reset(box.world_config(), box, seed=0)
        s.object_q = np.array([0.1, 0.2, 0.3])
        obs = observe(s, box.object)
        assert np.array_equal(obs[4:7], [0.1, 0.2, 0.3])
        drawer = get_task("open-drawer")
        sd = reset(drawer.world_config(), drawer, seed=0)
        sd.object_q = np.array([0.25])
        od = observe(sd, drawer.object)
        assert od[4] == 0.25 and od[5] == 0.0 and od[6] == 0.0

    @pytest.mark.parametrize("name", sorted(builtin_catalogue()))
    def test_matches_zero_fill_bit_for_bit(self, name):
        task = get_task(name)
        cfg = task.world_config(start_jitter=0.1, episode_horizon=300)
        states = demogen.run_expert_episode(task, cfg, 1, noise_scale=0.05).states
        # signed zeros too: negated velocities turn each rest value into -0.0
        picked = states[::7] + [replace(s, proxy_vel=-s.proxy_vel,
                                        object_qdot=-s.object_qdot)
                                for s in states[::29]]
        for state in picked:
            for phase, attachment in itertools.product(Phase, (None, 0)):
                s = replace(state, phase=phase, attachment=attachment)
                obs = observe(s, task.object)
                assert obs.dtype == np.float64 and obs.shape == (env2d.OBS_DIM,)
                assert obs.tobytes() == zero_fill_observe(s).tobytes()


class TestSuccess:
    def test_open_drawer_inside_tolerance(self, drawer, config):
        s = reset(config, drawer, seed=0)
        s.object_q = np.array([0.26])
        assert is_success(s, drawer)

    def test_open_drawer_outside_tolerance(self, drawer, config):
        s = reset(config, drawer, seed=0)
        s.object_q = np.array([0.20])
        assert not is_success(s, drawer)

    def test_move_box_zero_error(self):
        task = get_task("move-box")
        s = reset(task.world_config(), task, seed=0)
        s.object_q = np.array([task.target_q[0], task.target_q[1], 0.7])
        assert is_success(s, task)


class TestInvariants:
    @pytest.mark.parametrize("name", sorted(builtin_catalogue()))
    def test_random_rollout_invariants(self, name):
        task = get_task(name)
        cfg = task.world_config()
        rng = np.random.Generator(np.random.PCG64(99))
        s = reset(cfg, task, seed=3)
        seen_interaction = False
        for _ in range(3000):
            act = ProxyAction(tuple(rng.uniform(-1, 1, 2)),
                              tuple(rng.uniform(-20, 20, 2)))
            s, _ = step(s, act, cfg, task)
            if task.object.kind == env2d.FREE_BODY:
                (xlo, xhi), (ylo, yhi) = task.object.limits
                assert xlo <= s.object_q[0] <= xhi
                assert ylo <= s.object_q[1] <= yhi
            else:
                lo, hi = task.object.limits
                assert lo <= s.object_q[0] <= hi
            if seen_interaction:
                assert s.phase == Phase.INTERACTION
            seen_interaction = seen_interaction or s.phase == Phase.INTERACTION
            assert (s.attachment is not None) == (s.phase == Phase.INTERACTION)

    def test_energy_nonincreasing_without_drive(self):
        task = get_task("open-drawer")
        cfg = task.world_config()
        s = reset(cfg, task, seed=0)
        s.proxy_vel = np.array([0.8, -0.4])
        s.object_qdot = np.array([0.5])
        prev = kinetic_energy(s, task.object)
        for _ in range(200):
            act = ProxyAction(tuple(s.proxy_pos), (0.0, 0.0))
            s, _ = step(s, act, cfg, task)
            ke = kinetic_energy(s, task.object)
            assert ke <= prev + 1e-12
            prev = ke

    def test_energy_nonincreasing_interaction(self):
        task = get_task("move-box")
        cfg = task.world_config()
        s = reset(cfg, task, seed=0)
        s.phase = Phase.INTERACTION
        s.attachment = 0
        s.object_qdot = np.array([0.6, -0.3, 0.4])
        s.proxy_pos = np.array(grasp_world(task.object, s.object_q.tolist(), 0)[:2])
        prev = None
        for _ in range(200):
            s, _ = step(s, ProxyAction((0.0, 0.0), (0.0, 0.0)), cfg, task)
            ke = kinetic_energy(s, task.object)
            if prev is not None:
                assert ke <= prev + 1e-12
            prev = ke

    def test_trajectory_determinism(self, drawer):
        cfg = drawer.world_config(start_jitter=0.05)

        def run():
            rng = np.random.Generator(np.random.PCG64(7))
            s = reset(cfg, drawer, seed=11)
            trace = []
            for _ in range(100):
                act = ProxyAction(tuple(rng.uniform(-1, 1, 2)),
                                  tuple(rng.uniform(-20, 20, 2)))
                s, _ = step(s, act, cfg, drawer)
                trace.append((s.proxy_pos.tobytes(), s.object_q.tobytes()))
            return trace

        assert run() == run()


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("arena_half", 0.0), ("arena_half", -0.5), ("force_max", -1.0),
        ("episode_horizon", 0),
    ])
    def test_rejects_naming_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            WorldConfig(**{field: value})

    @pytest.mark.parametrize("field", ["arena_half", "interact_radius",
                                       "force_max"])
    def test_rejects_infinite_naming_field(self, field):
        qualifier = "non-negative" if field == "force_max" else "positive"
        with pytest.raises(ConfigurationError,
                           match=f"{field} must be finite and {qualifier}, "
                                 "got inf"):
            WorldConfig(**{field: math.inf})

    @pytest.mark.parametrize("value", [-0.1, math.nan, math.inf])
    def test_rejects_bad_start_jitter(self, value):
        with pytest.raises(ConfigurationError,
                           match="start_jitter must be finite and non-negative"):
            WorldConfig(start_jitter=value)

    @pytest.mark.parametrize("value", [0.01, env2d.PROXY_RADIUS])
    def test_rejects_interact_radius_inside_the_proxy(self, value):
        with pytest.raises(ConfigurationError, match=re.escape(
                "interact_radius must be above the proxy radius "
                f"{env2d.PROXY_RADIUS}, got {value}")):
            WorldConfig(interact_radius=value)

    def test_least_valid_values_accepted(self, drawer):
        cfg = WorldConfig(force_max=0.0, episode_horizon=1, arena_half=1e-3,
                          interact_radius=math.nextafter(env2d.PROXY_RADIUS,
                                                         math.inf))
        s, _ = step(reset(cfg, drawer, seed=0),
                    ProxyAction((1.0, 1.0), (5.0, 5.0)), cfg, drawer)
        assert s.time_step == 1


class TestCatalogueIO:
    def test_unknown_task_rejected(self):
        with pytest.raises(Exception):
            get_task("juggle-swords")


# ---------------------------------------------------------------------------
# Numpy oracle: the step as it was before it moved to Python floats, each
# 2-vector an array and each rotation a 2x2 matrix product.
# ---------------------------------------------------------------------------

def _np_rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _np_object_frame(obj, q):
    if obj.kind == env2d.PRISMATIC:
        return np.asarray(obj.origin) + np.asarray(obj.axis) * q[0], 0.0
    if obj.kind == env2d.REVOLUTE:
        return np.asarray(obj.origin, dtype=float), float(q[0])
    return np.array([q[0], q[1]]), float(q[2])


def _np_rect_center(obj, q):
    origin, theta = _np_object_frame(obj, q)
    if obj.kind == env2d.REVOLUTE:
        return origin + _np_rot(theta) @ np.array([obj.extents[0] / 2.0, 0.0]), theta
    return origin, theta


def _np_grasp_point_world(obj, q, index):
    gp = obj.grasp_points[index]
    origin, theta = _np_object_frame(obj, q)
    if obj.kind == env2d.PRISMATIC:
        return origin + np.asarray(gp.position), gp.angle
    return origin + _np_rot(theta) @ np.asarray(gp.position), gp.angle + theta


def _np_closest_point_on_rect(point, center, theta, extents):
    hw, hh = extents[0] / 2.0, extents[1] / 2.0
    rot = _np_rot(theta)
    local = rot.T @ (point - center)
    lx, ly = float(local[0]), float(local[1])
    cx = min(max(lx, -hw), hw)
    cy = min(max(ly, -hh), hh)
    if cx != lx or cy != ly:
        closest_local = np.array([cx, cy])
        delta = local - closest_local
        dist = float(np.hypot(delta[0], delta[1]))
        normal_local = delta / dist
    else:
        dx = hw - abs(lx)
        dy = hh - abs(ly)
        if dx <= dy:
            sx = 1.0 if lx >= 0 else -1.0
            closest_local = np.array([sx * hw, ly])
            normal_local = np.array([sx, 0.0])
            dist = -dx
        else:
            sy = 1.0 if ly >= 0 else -1.0
            closest_local = np.array([lx, sy * hh])
            normal_local = np.array([0.0, sy])
            dist = -dy
    return center + rot @ closest_local, rot @ normal_local, dist


def _np_nearest_grasp(obj, q, point):
    best, best_d = 0, math.inf
    for i in range(len(obj.grasp_points)):
        gp, _ = _np_grasp_point_world(obj, q, i)
        d = float(np.hypot(*(point - gp)))
        if d < best_d:
            best, best_d = i, d
    return best, best_d


def _np_object_free_dynamics(state, task, gen_force, events):
    obj = task.object
    dt = env2d.DT
    damping = obj.friction
    q = state.object_q
    qd = state.object_qdot
    if obj.kind == env2d.FREE_BODY:
        m = obj.inertia
        lin_acc = (np.asarray(gen_force, dtype=float)
                   + m * np.asarray(task.gravity)
                   - damping * qd[:2]) / m
        ang_acc = -(damping / m) * qd[2]
        qd_new = qd + dt * np.array([lin_acc[0], lin_acc[1], ang_acc])
        (xlo, xhi), (ylo, yhi) = obj.limits
        bounds = ((0, xlo, xhi), (1, ylo, yhi))
    else:
        acc = (float(gen_force) - damping * qd[0]) / obj.inertia
        qd_new = qd + dt * np.array([acc])
        lo, hi = obj.limits
        bounds = ((0, lo, hi),)
    q_new = q + dt * qd_new
    for axis, lo, hi in bounds:
        if q_new[axis] < lo:
            q_new[axis] = lo
            if qd_new[axis] < 0:
                qd_new[axis] = 0.0
            events.append(("limit_hit", axis, "lo"))
        elif q_new[axis] > hi:
            q_new[axis] = hi
            if qd_new[axis] > 0:
                qd_new[axis] = 0.0
            events.append(("limit_hit", axis, "hi"))
    return q_new, qd_new


def _np_generalized_force(obj, at_point, force):
    if obj.kind == env2d.PRISMATIC:
        return float(np.dot(np.asarray(obj.axis), force))
    if obj.kind == env2d.REVOLUTE:
        r = at_point - np.asarray(obj.origin)
        return float(r[0] * force[1] - r[1] * force[0])
    return force


def numpy_step(state, action, config, task):
    obj = task.object
    if not np.all(np.isfinite(state.proxy_pos)) or not np.all(np.isfinite(state.object_q)):
        raise FloatingPointError("non-finite state")
    a_p = np.clip(np.asarray(action.desired_pos, dtype=float),
                  -config.arena_half, config.arena_half)
    a_f = np.clip(np.asarray(action.force, dtype=float),
                  -config.force_max, config.force_max)
    events = []
    dt = env2d.DT
    nxt = state.copy()
    if state.phase == Phase.INTERACTION:
        gp_old, _ = _np_grasp_point_world(obj, state.object_q, state.attachment)
        gen_force = _np_generalized_force(obj, gp_old, a_f)
        nxt.object_q, nxt.object_qdot = _np_object_free_dynamics(
            state, task, gen_force, events)
        gp_new, _ = _np_grasp_point_world(obj, nxt.object_q, state.attachment)
        nxt.proxy_pos = gp_new
        nxt.proxy_vel = (gp_new - state.proxy_pos) / dt
    else:
        force = (env2d.PD_KP * (a_p - state.proxy_pos)
                 - env2d.PD_KD * state.proxy_vel)
        vel = state.proxy_vel + dt * force
        pos = state.proxy_pos + dt * vel
        center, theta = _np_rect_center(obj, state.object_q)
        closest, normal, dist = _np_closest_point_on_rect(pos, center, theta, obj.extents)
        in_contact = dist < env2d.PROXY_RADIUS
        if in_contact:
            pos = closest + normal * env2d.PROXY_RADIUS
            vn = float(np.dot(vel, normal))
            if vn < 0.0:
                vel = vel - vn * normal
            events.append(("contact",))
        nxt.proxy_pos = pos
        nxt.proxy_vel = vel
        gen_force = np.zeros(2) if obj.kind == env2d.FREE_BODY else 0.0
        if not config.two_phase and in_contact:
            gen_force = _np_generalized_force(obj, closest, a_f)
        nxt.object_q, nxt.object_qdot = _np_object_free_dynamics(
            state, task, gen_force, events)
    nxt.time_step = state.time_step + 1
    if nxt.phase == Phase.EXPLORATION and config.two_phase:
        index, dist = _np_nearest_grasp(obj, nxt.object_q, nxt.proxy_pos)
        if dist <= config.interact_radius:
            nxt.phase = Phase.INTERACTION
            nxt.attachment = index
            events.append(("phase_transition", index))
    if not np.all(np.isfinite(nxt.proxy_pos)) or not np.all(np.isfinite(nxt.object_q)):
        raise FloatingPointError("step produced non-finite state")
    return nxt, events


STATE_FIELDS = ("proxy_pos", "proxy_vel", "object_q", "object_qdot")


def _random_action(rng, task, state):
    """Three times in ten a desired position near a grasp point, so episodes
    attach; otherwise anywhere in the arena. Forces span past the clamp."""
    if rng.uniform() < 0.3:
        x, y, _ = grasp_world(task.object, state.object_q.tolist(),
                              int(rng.integers(len(task.object.grasp_points))))
        desired = np.array([x, y]) + rng.normal(0.0, 0.05, 2)
    else:
        desired = rng.uniform(-1.2, 1.2, 2)
    return ProxyAction(tuple(desired), tuple(rng.uniform(-25.0, 25.0, 2)))


def _random_start(rng, task, config, seed):
    """A reset state moved to a random proxy position and object
    configuration (boxes at any rotation) with random velocities, so
    episodes start near limits and moving towards them."""
    s = reset(config, task, seed)
    s.proxy_pos = rng.uniform(-0.8, 0.8, 2)
    s.proxy_vel = rng.uniform(-1.0, 1.0, 2)
    s.object_qdot = rng.uniform(-3.0, 3.0, len(task.start_q))
    if task.object.kind == env2d.FREE_BODY:
        (xlo, xhi), (ylo, yhi) = task.object.limits
        s.object_q = np.array([rng.uniform(xlo, xhi), rng.uniform(ylo, yhi),
                               rng.uniform(-math.pi, math.pi)])
    else:
        s.object_q = np.array([rng.uniform(*task.object.limits)])
    return s


class TestNumpyOracle:
    """The float step against the numpy step it replaced, one step at a
    time from the same state along random-action episodes."""

    @pytest.mark.parametrize("name", sorted(builtin_catalogue()))
    def test_step_matches_oracle(self, name):
        task = get_task(name)
        rng = np.random.Generator(np.random.PCG64(17))
        seen = {(kind, two_phase): 0 for kind in ("contact", "limit_hit", "phase_transition")
                for two_phase in (True, False)}
        worst = 0.0
        for two_phase in (True, False):
            cfg = task.world_config(two_phase=two_phase)
            for episode in range(16):
                s = _random_start(rng, task, cfg, episode)
                for _ in range(120):
                    act = _random_action(rng, task, s)
                    got, events = step(s, act, cfg, task)
                    want, want_events = numpy_step(s, act, cfg, task)
                    assert events == want_events
                    assert (got.time_step, got.phase, got.attachment) == (
                        want.time_step, want.phase, want.attachment)
                    for f in STATE_FIELDS:
                        a, b = getattr(got, f), getattr(want, f)
                        assert a.dtype == b.dtype and a.shape == b.shape
                        worst = max(worst, float(np.max(np.abs(a - b))))
                    for e in events:
                        seen[e[0], two_phase] += 1
                    s = got
        assert worst <= 1e-13
        # the episodes reach every branch of the step
        assert seen["contact", True] + seen["contact", False] > 0
        assert seen["limit_hit", True] + seen["limit_hit", False] > 0
        assert seen["phase_transition", True] > 0
        assert seen["phase_transition", False] == 0

    def test_nan_desired_position_while_exploring_raises(self, drawer, config):
        s = reset(config, drawer, seed=0)
        with pytest.raises(FloatingPointError):
            step(s, ProxyAction((math.nan, 0.0), (0.0, 0.0)), config, drawer)

    @pytest.mark.parametrize("name", ["open-drawer", "open-door", "move-box"])
    def test_nan_force_while_interacting_raises(self, name):
        task = get_task(name)
        cfg = task.world_config()
        s = reset(cfg, task, seed=0)
        s.phase, s.attachment = Phase.INTERACTION, 0
        s.proxy_pos = np.array(grasp_world(task.object, s.object_q.tolist(), 0)[:2])
        with pytest.raises(FloatingPointError):
            step(s, ProxyAction((0.0, 0.0), (0.0, math.nan)), cfg, task)


def test_grasp_point_world_rotates_with_door():
    task = get_task("open-door")
    x, y, angle = grasp_world(task.object, [math.pi / 3], 0)
    gp = task.object.grasp_points[0]
    c, s_ = math.cos(math.pi / 3), math.sin(math.pi / 3)
    expected = np.array(task.object.origin) + np.array([
        gp.position[0] * c - gp.position[1] * s_,
        gp.position[0] * s_ + gp.position[1] * c,
    ])
    assert np.allclose((x, y), expected)
    assert angle == pytest.approx(gp.angle + math.pi / 3)
