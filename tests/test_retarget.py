import math

import numpy as np
import pytest

from proxymanip import demogen, env2d, retarget
from proxymanip.env2d import Phase, builtin_catalogue, get_task
from proxymanip.numcore import ConfigurationError
from proxymanip.retarget import (
    ArmModel, IkConvergenceError, InfeasiblePoseError, OutOfReachError,
    default_arm, feasibility_margin, forward_kinematics, inverse_kinematics,
    replay_retargeted, retarget_trajectory,
)

TWO_LINK = ArmModel(base_position=(0.0, 0.0), link_lengths=(1.0, 1.0),
                    joint_limits=((-2.967, 2.967), (-2.967, 2.967)))


class TestForwardKinematics:
    def test_straight_arm(self):
        pos, ori = forward_kinematics(TWO_LINK, [0.0, 0.0])
        assert np.allclose(pos, [2.0, 0.0])
        assert ori == 0.0

    def test_right_angle_base(self):
        pos, ori = forward_kinematics(TWO_LINK, [math.pi / 2, 0.0])
        assert np.allclose(pos, [0.0, 2.0], atol=1e-12)
        assert ori == pytest.approx(math.pi / 2)

    def test_thirty_onetwenty(self):
        pos, _ = forward_kinematics(TWO_LINK, [math.radians(30), math.radians(120)])
        assert np.allclose(pos, [0.0, 1.0], atol=1e-12)

    def test_base_offset(self):
        arm = ArmModel(base_position=(1.0, -2.0), link_lengths=(0.5, 0.5),
                       joint_limits=((-3, 3), (-3, 3)))
        pos, _ = forward_kinematics(arm, [0.0, 0.0])
        assert np.allclose(pos, [2.0, -2.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_cumulative_sum_reference(self, seed):
        # the chain written with array cumulative sums, bit for bit
        arm = default_arm()
        q = np.random.Generator(np.random.PCG64(seed)).uniform(-3, 3, 3)
        cum = np.cumsum(q)
        pos = np.asarray(arm.base_position, dtype=float).copy()
        cols = []
        for l, c in zip(arm.link_lengths, cum):
            pos = pos + l * np.array([math.cos(c), math.sin(c)])
        for j in range(arm.n_joints):
            dx = dy = 0.0
            for i in range(j, arm.n_joints):
                dx -= arm.link_lengths[i] * math.sin(cum[i])
                dy += arm.link_lengths[i] * math.cos(cum[i])
            cols.append((dx, dy))
        got_pos, got_ori = forward_kinematics(arm, q)
        assert got_pos.tolist() == pos.tolist()
        assert got_ori == float(cum[-1])
        jac = retarget.jacobian(arm, q, with_orientation=True)
        assert jac.tolist() == np.vstack([np.array(cols).T, np.ones(3)]).tolist()


class TestInverseKinematics:
    def test_full_extension(self):
        q = inverse_kinematics(TWO_LINK, (2.0, 0.0), initial_guess=[0.0, 0.0])
        assert np.allclose(q, [0.0, 0.0], atol=1e-6)

    def test_elbow_down_branch(self):
        q = inverse_kinematics(TWO_LINK, (0.0, 1.0),
                               initial_guess=[0.4, 1.8])
        assert q[0] == pytest.approx(math.radians(30), abs=1e-4)
        assert q[1] == pytest.approx(math.radians(120), abs=1e-4)
        pos, _ = forward_kinematics(TWO_LINK, q)
        assert np.hypot(*(pos - np.array([0.0, 1.0]))) < 1e-6

    def test_elbow_up_branch_preserved_by_warm_start(self):
        q = inverse_kinematics(TWO_LINK, (0.0, 1.0),
                               initial_guess=[2.2, -1.6])
        assert q[1] == pytest.approx(-math.radians(120), abs=1e-4)

    def test_out_of_reach(self):
        with pytest.raises(OutOfReachError):
            inverse_kinematics(TWO_LINK, (2.5, 0.0))

    def test_orientation_constrained(self):
        arm = default_arm()
        target = np.array([0.1, 0.1])
        q = inverse_kinematics(arm, target, target_orientation=0.5,
                               initial_guess=[1.2, -0.8, -0.4])
        pos, ori = forward_kinematics(arm, q)
        assert np.hypot(*(pos - target)) < 1e-6
        assert abs(retarget.wrap_angle(0.5 - ori)) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_fk_ik_round_trip_random_targets(self, seed):
        arm = default_arm()
        rng = np.random.Generator(np.random.PCG64(seed))
        guess = np.array([1.2, -0.8, -0.4])
        for _ in range(200):
            radius = rng.uniform(0.15, arm.reach * 0.98)
            angle = rng.uniform(0, 2 * math.pi)
            target = np.asarray(arm.base_position) + radius * np.array(
                [math.cos(angle), math.sin(angle)])
            q = inverse_kinematics(arm, target, initial_guess=guess)
            pos, _ = forward_kinematics(arm, q)
            assert float(np.hypot(*(pos - target))) < 1e-6
            lo = np.array([l for l, _ in arm.joint_limits])
            hi = np.array([h for _, h in arm.joint_limits])
            assert np.all(q >= lo) and np.all(q <= hi)


class TestInfeasiblePose:
    """Orientation-constrained poses outside the joint-limited workspace are
    proven infeasible in closed form, not left to stall the iteration."""

    OLD_MOUNT = ArmModel(base_position=(0.0, -0.45))

    @pytest.fixture
    def no_iteration(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("infeasible pose reached the DLS iteration")
        monkeypatch.setattr(retarget, "_dls_solve", fail)

    def test_box_snap_from_old_mount_names_joint_and_margin(self, no_iteration):
        task = get_task("move-box")
        pos, ang = env2d.grasp_point_world(
            task.object, np.array(task.start_q), 0)
        with pytest.raises(InfeasiblePoseError,
                           match=r"joint 2 needs -2\.974 rad, "
                                 r"0\.007 past limit -2\.967"):
            inverse_kinematics(self.OLD_MOUNT, pos, ang)

    def test_wrist_beyond_inner_links_says_so(self, no_iteration):
        arm = default_arm()
        # gripper pointing back at the base: the wrist lands 1.1 m out
        target = np.asarray(arm.base_position) + np.array([0.9, 0.0])
        with pytest.raises(InfeasiblePoseError, match="wrist"):
            inverse_kinematics(arm, target, math.pi)

    def test_is_an_out_of_reach_error_with_frame_index(self):
        task, traj = expert_trajectory("move-box")
        with pytest.raises(OutOfReachError, match=r"frame 9: .*joint 2") as info:
            retarget_trajectory(traj, self.OLD_MOUNT, task.object)
        assert info.type is InfeasiblePoseError


class TestSnapToGrasp:
    """The IK target of a recorded frame. The first interaction frame's
    target is the grasp pose the end effector snaps to."""

    @staticmethod
    def target(task, state, index=0):
        return retarget._frame_target(index, env2d.state_record(state, task.object),
                                      task.object)

    def test_drawer_handle_direct_read(self):
        task = get_task("open-drawer")
        cfg = task.world_config()
        s = env2d.reset(cfg, task, seed=0)
        s.phase = Phase.INTERACTION
        s.attachment = 0
        pos, ang = self.target(task, s)
        assert np.allclose(pos, [-0.04, 0.0])
        assert ang == 0.0

    def test_door_grasp_rotates_with_door(self):
        task = get_task("open-door")
        cfg = task.world_config()
        s = env2d.reset(cfg, task, seed=0)
        s.phase = Phase.INTERACTION
        s.attachment = 0
        s.object_q = np.array([0.7])
        _, ang = self.target(task, s)
        assert ang == pytest.approx(task.object.grasp_points[0].angle + 0.7)

    def test_missing_attachment_fatal(self):
        task = get_task("open-drawer")
        s = env2d.reset(task.world_config(), task, seed=0)
        s.phase = Phase.INTERACTION
        with pytest.raises(ConfigurationError, match="frame 7: .*None"):
            self.target(task, s, index=7)

    def test_attachment_index_consistency(self):
        task = get_task("move-box")
        cfg = task.world_config()
        s = env2d.reset(cfg, task, seed=0)
        s.proxy_pos = np.array([0.12, 0.0])  # nearest to grasp point 1
        s2 = env2d.check_phase_transition(s, task.object, cfg)
        assert s2.attachment == 1
        pos, _ = self.target(task, s2)
        expected, _ = env2d.grasp_point_world(task.object, s2.object_q, 1)
        assert np.allclose(pos, expected)

    @pytest.mark.parametrize("attachment", [None, 5, -1])
    @pytest.mark.parametrize("first", [True, False])
    def test_bad_attachment_names_frame(self, attachment, first):
        # the first interaction frame is the snap; a later one is tracked
        task, traj = expert_trajectory("open-drawer")
        start = next(i for i, f in enumerate(traj["frames"])
                     if f["phase"] == int(Phase.INTERACTION))
        index = start if first else start + 3
        traj["frames"][index]["attachment"] = attachment
        with pytest.raises(ConfigurationError, match=rf"^frame {index}: .*attachment"):
            retarget_trajectory(traj, default_arm(), task.object)


def expert_trajectory(task_name, seed=0):
    task = get_task(task_name)
    episode = demogen.run_expert_episode(task, task.world_config(), seed=seed)
    return task, env2d.trajectory_record(task, episode)


class TestRetargetTrajectory:
    def test_stationary_proxy_constant_joints(self):
        task = get_task("open-drawer")
        frames = [{"t": t, "proxy_pos": [-0.3, 0.0], "phase": 0,
                   "attachment": None, "object_q": [0.0]} for t in range(5)]
        traj = {"task": task.name, "frames": frames, "events": []}
        out = retarget_trajectory(traj, default_arm(), task.object)
        assert out.n_frames == 5
        first = out.joint_angles[0]
        for q in out.joint_angles[1:]:
            assert np.allclose(q, first, atol=1e-9)
        assert out.discontinuities() == []

    def test_expert_open_drawer_retargets_cleanly(self):
        task, traj = expert_trajectory("open-drawer")
        out = retarget_trajectory(traj, default_arm(), task.object)
        assert out.discontinuities() == []
        assert len(out.phase_markers) == 1

    def test_fk_reproduces_demanded_pose(self):
        task, traj = expert_trajectory("open-drawer", seed=1)
        arm = default_arm()
        out = retarget_trajectory(traj, arm, task.object)
        for row in out.frames:
            pos, _ = forward_kinematics(arm, np.asarray(row["joints"]))
            assert float(np.hypot(pos[0] - row["proxy_pos"][0],
                                  pos[1] - row["proxy_pos"][1])) < 1e-5

    def test_unreachable_frame_names_index(self):
        task = get_task("open-drawer")
        frames = [
            {"t": 0, "proxy_pos": [-0.3, 0.0], "phase": 0,
             "attachment": None, "object_q": [0.0]},
            {"t": 1, "proxy_pos": [5.0, 5.0], "phase": 0,
             "attachment": None, "object_q": [0.0]},
        ]
        traj = {"task": task.name, "frames": frames, "events": []}
        with pytest.raises(OutOfReachError, match="frame 1"):
            retarget_trajectory(traj, default_arm(), task.object)

    @pytest.mark.parametrize("name", ["open-drawer", "close-drawer", "move-box",
                                      "open-door", "close-door", "lift-box"])
    def test_replay_reproduces_success(self, name):
        task, traj = expert_trajectory(name, seed=2)
        arm = default_arm()
        out = retarget_trajectory(traj, arm, task.object)
        assert replay_retargeted(out, task, arm)

    @pytest.mark.parametrize("name", sorted(builtin_catalogue()))
    def test_default_mount_keeps_expert_grasps_feasible(self, name):
        # the criterion the default mount was chosen by: every grasp pose an
        # expert episode demands clears every joint limit by 0.1 rad
        task, traj = expert_trajectory(name)
        arm = default_arm()
        poses = [env2d.grasp_point_world(task.object,
                                         np.asarray(f["object_q"]),
                                         f["attachment"])
                 for f in traj["frames"] if f["phase"] == int(Phase.INTERACTION)]
        assert poses
        for pos, ang in poses:
            assert feasibility_margin(arm, pos, retarget.wrap_angle(ang)) >= 0.1

    def test_round_trip_json(self, tmp_path):
        task, traj = expert_trajectory("open-drawer")
        arm = default_arm()
        out = retarget_trajectory(traj, arm, task.object)
        doc = retarget.retargeted_to_dict(out, arm)
        path = tmp_path / "retargeted.json"
        retarget.save_trajectory(path, doc)
        loaded = retarget.load_trajectory(path)
        assert loaded["task"] == "open-drawer"
        assert loaded["frames"][0]["joints"] == doc["frames"][0]["joints"]
        assert retarget.arm_from_dict(loaded["arm"]) == arm
