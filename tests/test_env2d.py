import math
from dataclasses import replace

import numpy as np
import pytest

from proxymanip import demogen, env2d, retarget
from proxymanip.env2d import (
    Phase, ProxyAction, WorldConfig, builtin_catalogue, check_phase_transition,
    get_task, grasp_point_world, is_success, kinetic_energy, nearest_grasp,
    observe, reset, step,
)


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

    def test_pd_force_formula(self, drawer):
        cfg = drawer.world_config(pd_kp=100.0, pd_kd=10.0)
        s = reset(cfg, drawer, seed=0)
        # proxy rests at (-0.3, 0) in free space; command 0.1 m to its right
        nxt, _ = step(s, ProxyAction((-0.2, 0.0), (0.0, 0.0)), cfg, drawer)
        force = nxt.proxy_vel * cfg.proxy_mass / cfg.dt
        assert force[0] == pytest.approx(10.0, abs=1e-12)
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
        gp, _ = grasp_point_world(task.object, nxt.object_q, 0)
        assert np.allclose(nxt.proxy_pos, gp)

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
            c, n, d = env2d.closest_point_on_rect(
                s.proxy_pos, *env2d.rect_center(drawer.object, s.object_q),
                drawer.object.extents)
            assert d >= config.proxy_radius - 1e-12

    def test_nonfinite_state_raises(self, drawer, config):
        s = reset(config, drawer, seed=0)
        s.proxy_pos = np.array([np.nan, 0.0])
        with pytest.raises(FloatingPointError):
            step(s, ProxyAction.zero(), config, drawer)


class TestPhaseTransition:
    def _state_at(self, task, pos):
        cfg = task.world_config()
        s = reset(cfg, task, seed=0)
        s.proxy_pos = np.array(pos)
        return s, cfg

    def test_fires_inside_radius(self, drawer):
        gp, _ = grasp_point_world(drawer.object, np.array([0.0]), 0)
        s, cfg = self._state_at(drawer, gp + np.array([0.09, 0.0]))
        out = check_phase_transition(s, drawer.object, cfg)
        assert out.phase == Phase.INTERACTION
        assert out.attachment == 0

    def test_silent_outside_radius(self, drawer):
        gp, _ = grasp_point_world(drawer.object, np.array([0.0]), 0)
        s, cfg = self._state_at(drawer, gp + np.array([0.11, 0.0]))
        out = check_phase_transition(s, drawer.object, cfg)
        assert out.phase == Phase.EXPLORATION
        assert out.attachment is None

    def test_equidistant_tie_breaks_to_lowest_index(self):
        task = get_task("move-box")
        cfg = task.world_config()
        s = reset(cfg, task, seed=0)
        # the two grasp points sit at (-0.08, 0) and (0.08, 0): equidistant from origin
        s.proxy_pos = np.array([0.0, 0.05])
        out = check_phase_transition(s, task.object, cfg)
        assert out.phase == Phase.INTERACTION
        assert out.attachment == 0


class TestNearestGrasp:
    """Move-box's grasp points sit at (-0.08, 0) and (0.08, 0) in the box
    frame, so every point on the box's vertical centre line is a tie."""

    @staticmethod
    def _distances(obj, q, point):
        return [float(np.hypot(*(point - grasp_point_world(obj, q, i)[0])))
                for i in range(len(obj.grasp_points))]

    def test_tie_goes_to_lowest_index(self):
        task = get_task("move-box")
        q = np.array(task.start_q, dtype=float)
        point = np.array([0.0, 0.05])
        d = self._distances(task.object, q, point)
        assert d[0] == d[1]
        assert nearest_grasp(task.object, q, point) == (0, d[0])

    def test_returns_nearest_and_its_distance(self):
        task = get_task("move-box")
        q = np.array([0.1, -0.2, 0.5])
        point = np.array([0.3, -0.1])
        d = self._distances(task.object, q, point)
        assert nearest_grasp(task.object, q, point) == (int(np.argmin(d)), min(d))

    def test_expert_transition_and_replay_agree_on_a_tie(self, monkeypatch):
        task = get_task("move-box")
        cfg = task.world_config()
        state = reset(cfg, task, seed=0)
        state.proxy_pos = np.array([0.0, 0.05])
        gp0, _ = grasp_point_world(task.object, state.object_q, 0)
        assert demogen.scripted_expert(task)(state).desired_pos == tuple(gp0)
        assert check_phase_transition(state, task.object, cfg).attachment == 0

        # replay attaches at the first interaction row: put the box so that
        # the arm's end effector lies on its centre line
        arm = retarget.default_arm()
        joints = np.array([-1.2, 1.0, 0.2])
        ee, _ = retarget.forward_kinematics(arm, joints)
        tied = replace(task, start_q=(float(ee[0]), float(ee[1]) - 0.05, 0.0))
        d = self._distances(task.object, np.array(tied.start_q), ee)
        assert d[0] == d[1]
        finals = []
        monkeypatch.setattr(env2d, "is_success",
                            lambda s, t: finals.append(s) or True)
        row = {"phase": 1, "joints": joints.tolist()}
        out = retarget.RetargetedTrajectory(tied.name, [joints], [], [], [row])
        assert retarget.replay_retargeted(out, tied, arm)
        assert finals[0].attachment == 0


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
        cfg = task.world_config(object_damping=1.0, proxy_damping=0.5)
        s = reset(cfg, task, seed=0)
        s.proxy_vel = np.array([0.8, -0.4])
        s.object_qdot = np.array([0.5])
        prev = kinetic_energy(s, task.object, cfg)
        for _ in range(200):
            act = ProxyAction(tuple(s.proxy_pos), (0.0, 0.0))
            s, _ = step(s, act, cfg, task)
            ke = kinetic_energy(s, task.object, cfg)
            assert ke <= prev + 1e-12
            prev = ke

    def test_energy_nonincreasing_interaction(self):
        task = get_task("move-box")
        cfg = task.world_config()
        s = reset(cfg, task, seed=0)
        s.phase = Phase.INTERACTION
        s.attachment = 0
        s.object_qdot = np.array([0.6, -0.3, 0.4])
        gp, _ = grasp_point_world(task.object, s.object_q, 0)
        s.proxy_pos = gp
        prev = None
        for _ in range(200):
            s, _ = step(s, ProxyAction((0.0, 0.0), (0.0, 0.0)), cfg, task)
            ke = kinetic_energy(s, task.object, cfg)
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


class TestCatalogueIO:
    def test_round_trip(self, tmp_path):
        cat = builtin_catalogue()
        path = tmp_path / "catalogue.json"
        env2d.save_catalogue(path, cat)
        loaded = env2d.load_catalogue(path)
        assert sorted(loaded) == sorted(cat)
        for name in cat:
            assert loaded[name] == cat[name]

    def test_unknown_task_rejected(self):
        with pytest.raises(Exception):
            get_task("juggle-swords")


def test_grasp_point_world_rotates_with_door():
    task = get_task("open-door")
    q = np.array([math.pi / 3])
    pos, angle = grasp_point_world(task.object, q, 0)
    gp = task.object.grasp_points[0]
    c, s_ = math.cos(math.pi / 3), math.sin(math.pi / 3)
    expected = np.array(task.object.origin) + np.array([
        gp.position[0] * c - gp.position[1] * s_,
        gp.position[0] * s_ + gp.position[1] * c,
    ])
    assert np.allclose(pos, expected)
    assert angle == pytest.approx(gp.angle + math.pi / 3)
