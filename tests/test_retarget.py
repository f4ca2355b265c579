import itertools
import json
import math

import numpy as np
import pytest

from proxymanip import demogen, env2d, retarget
from proxymanip.env2d import Phase, builtin_catalogue, get_task
from proxymanip.numcore import ConfigurationError
from proxymanip.retarget import (
    ArmModel, IkConvergenceError, InfeasiblePoseError, OutOfReachError,
    closed_form_solutions, default_arm, feasibility_margin, forward_kinematics,
    inverse_kinematics, replay_retargeted, retarget_trajectory,
)

TWO_LINK = ArmModel(base_position=(0.0, 0.0), link_lengths=(1.0, 1.0),
                    joint_limits=((-2.967, 2.967), (-2.967, 2.967)))


# ---------------------------------------------------------------------------
# Oracle: damped least squares on numpy arrays, the method that once solved
# every frame. It meets an orientation-constrained target by iterating with
# a third Jacobian row, to within IK_ORI_TOL, where inverse_kinematics now
# takes the closed form; position-only targets differ only by the 2x2 solve.
# ---------------------------------------------------------------------------

def oracle_jacobian(arm, q, with_orientation):
    links = [(l * math.sin(c), l * math.cos(c)) for l, c in
             zip(arm.link_lengths, itertools.accumulate(q.tolist()))]
    cols = []
    for j in range(arm.n_joints):
        dx = dy = 0.0
        for sin_term, cos_term in links[j:]:
            dx -= sin_term
            dy += cos_term
        cols.append((dx, dy))
    jac = np.array(cols).T
    if with_orientation:
        jac = np.vstack([jac, np.ones(arm.n_joints)])
    return jac


def oracle_dls_solve(arm, target, target_orientation, q0):
    lo, hi = np.array(arm.joint_limits, dtype=float).T
    q = np.clip(q0, lo, hi)
    with_ori = target_orientation is not None
    damping = retarget.IK_DAMPING * retarget.IK_DAMPING * np.eye(3 if with_ori else 2)
    for _ in range(retarget.IK_MAX_ITERS):
        pos, ori = forward_kinematics(arm, q)
        err = target - pos
        pos_ok = float(np.hypot(*err)) < retarget.IK_POS_TOL
        if with_ori:
            err_ori = retarget.wrap_angle(target_orientation - ori)
            if pos_ok and abs(err_ori) < retarget.IK_ORI_TOL:
                return q
            err = np.array([err[0], err[1], err_ori])
        elif pos_ok:
            return q
        jac = oracle_jacobian(arm, q, with_ori)
        dq = jac.T @ np.linalg.solve(jac @ jac.T + damping, err)
        biggest = float(np.abs(dq).max())
        if biggest > retarget.IK_STEP_CAP:
            dq *= retarget.IK_STEP_CAP / biggest
        q = np.clip(q + dq, lo, hi)
    return None


def oracle_inverse_kinematics(arm, target_position, target_orientation=None,
                              initial_guess=None):
    target = np.asarray(target_position, dtype=float)
    rel = target - np.asarray(arm.base_position)
    heading = math.atan2(rel[1], rel[0])
    guesses = [np.zeros(arm.n_joints) if initial_guess is None
               else np.asarray(initial_guess, dtype=float)]
    guesses += [np.array([heading, elbow] + [0.0] * (arm.n_joints - 2))
                for elbow in (0.7, -0.7, 1.8, -1.8)]
    for guess in guesses:
        q = oracle_dls_solve(arm, target, target_orientation, guess)
        if q is not None:
            return q
    raise IkConvergenceError("oracle: no convergence from any start")


@pytest.fixture
def no_iteration(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("orientation-constrained pose reached the DLS iteration")
    monkeypatch.setattr(retarget, "_dls_solve", fail)


class TestArmModel:
    @pytest.mark.parametrize("fields, message", [
        ({"link_lengths": (0.4, math.nan, 0.2)},
         r"link_lengths must be finite and positive, got \(0\.4, nan, 0\.2\)"),
        ({"link_lengths": (0.4, -0.4, 0.2)}, "link_lengths must be finite and positive"),
        ({"link_lengths": (0.4, 0.0, 0.2)}, "link_lengths must be finite and positive"),
        ({"link_lengths": (math.inf, 0.4, 0.2)}, "link_lengths must be finite and positive"),
        ({"base_position": (math.nan, 0.25)},
         r"base_position must be finite, got \(nan, 0\.25\)"),
        ({"base_position": (-0.4, -math.inf)}, "base_position must be finite"),
        ({"joint_limits": ((-2.9, 2.9), (-math.inf, 2.9), (-2.9, 2.9))},
         "joint_limits must be finite"),
        ({"joint_limits": ((-2.9, 2.9), (-2.9, 2.9), (-2.9, math.nan))},
         "joint_limits must be finite"),
        ({"base_position": (0.0,)}, r"base_position must be 2 values, got \(0\.0,\)"),
        ({"base_position": (0.0, 0.0, 5.0)}, "base_position must be 2 values"),
        ({"joint_limits": ((0, 1, 2),) * 3},
         r"joint_limits must be pairs of 2 values, got \(\(0, 1, 2\),"),
        ({"joint_limits": ((-2.9, 2.9), (-2.9,), (-2.9, 2.9))},
         "joint_limits must be pairs of 2 values"),
    ])
    def test_rejects_bad_geometry_by_name(self, fields, message):
        with pytest.raises(ConfigurationError, match=message):
            ArmModel(**fields)
        with pytest.raises(ConfigurationError, match=message):
            retarget.arm_from_dict({**retarget.arm_to_dict(default_arm()), **fields})

    def test_arm_data_round_trip(self):
        arm = ArmModel(base_position=(0.1, -0.2), link_lengths=(0.5, 0.3, 0.2))
        doc = json.loads(json.dumps(retarget.arm_to_dict(arm)))
        assert retarget.arm_from_dict(doc) == arm

    def test_reach_is_the_link_sum(self):
        arm = ArmModel(link_lengths=(0.5, 0.3, 0.2))
        assert (arm.reach, arm.inner_reach) == (1.0, 0.0)
        arm = ArmModel(link_lengths=(1.0, 0.3, 0.2))
        assert (arm.reach, arm.inner_reach) == (1.5, 0.5)


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
        assert retarget.jacobian(arm, q.tolist()) == cols


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

    def test_warm_start_picks_its_elbow_branch(self, no_iteration):
        arm = default_arm()
        pos, ori = forward_kinematics(arm, [0.2, 1.1, -0.7])
        branches = closed_form_solutions(arm, pos, ori)
        assert branches[0][1] == pytest.approx(1.1)
        assert branches[1][1] == pytest.approx(-1.1)
        for branch in branches:
            guess = np.array(branch) + [0.1, -0.1, 0.1]
            q = inverse_kinematics(arm, pos, ori, initial_guess=guess)
            assert tuple(q.tolist()) == branch

    def test_tied_branches_go_to_the_first(self, no_iteration):
        # the inner links straight: the two elbow branches mirror each other
        # about the guess, so both are exactly as near to it
        arm = default_arm()
        guess = [0.5, 0.0, -0.5]
        pos, ori = forward_kinematics(arm, guess)
        first, second = closed_form_solutions(arm, pos, ori)
        assert first != second
        assert (max(abs(a - g) for a, g in zip(first, guess))
                == max(abs(a - g) for a, g in zip(second, guess)))
        q = inverse_kinematics(arm, pos, ori, initial_guess=guess)
        assert tuple(q.tolist()) == first

    @pytest.mark.parametrize("overshoot", [5e-5, -5e-5])
    def test_joint_limits_are_hard(self, overshoot, no_iteration):
        # the elbow-up branch puts joint 2 ``overshoot`` past its upper
        # limit; the elbow-down branch is 0.049 rad past one
        arm = default_arm()
        hi = arm.joint_limits[2][1]
        pos, ori = forward_kinematics(arm, [0.0, 0.3, hi + overshoot])
        if overshoot > 0:
            with pytest.raises(InfeasiblePoseError,
                               match=r"joint 2 needs 2\.967 rad, 5\.0e-05 past "
                                     r"limit 2\.967"):
                inverse_kinematics(arm, pos, ori)
        else:
            q = inverse_kinematics(arm, pos, ori)
            assert q == pytest.approx([0.0, 0.3, hi + overshoot], abs=1e-12)

    @pytest.mark.parametrize("position, orientation, message", [
        ((math.nan, 0.1), None, "target position"),
        ((0.1, math.inf), None, "target position"),
        ((-math.inf, 0.1), 0.5, "target position"),
        ((0.3, 0.2), math.nan, "target orientation"),
        ((0.3, 0.2), -math.inf, "target orientation"),
    ])
    def test_non_finite_target(self, position, orientation, message,
                               no_iteration):
        with pytest.raises(ConfigurationError, match=f"{message} .* not finite"):
            inverse_kinematics(default_arm(), position, orientation)

    @pytest.mark.parametrize("orientation", [None, 0.0])
    @pytest.mark.parametrize("guess", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0],
                                       np.array([0.0, 0.0, -math.inf])])
    def test_non_finite_guess(self, guess, orientation):
        with pytest.raises(ConfigurationError, match=r"initial guess .* is not finite"):
            inverse_kinematics(default_arm(), (0.2, 0.1), orientation,
                               initial_guess=guess)

    @pytest.mark.parametrize("orientation", [None, 0.5])
    def test_guess_of_wrong_length(self, orientation):
        with pytest.raises(ConfigurationError, match="expected 3 joint angles"):
            inverse_kinematics(default_arm(), (0.1, 0.1), orientation,
                               initial_guess=[1.2, -0.8])

    def test_orientation_needs_three_links(self):
        with pytest.raises(ConfigurationError, match="three-link"):
            inverse_kinematics(TWO_LINK, (1.0, 1.0), 0.5)


class TestInfeasiblePose:
    """Orientation-constrained poses outside the joint-limited workspace are
    proven infeasible in closed form, not left to stall the iteration."""

    OLD_MOUNT = ArmModel(base_position=(0.0, -0.45))

    def test_box_snap_from_old_mount_names_joint_and_margin(self, no_iteration):
        task = get_task("move-box")
        x, y, ang = env2d.grasp_world(task.object, list(task.start_q), 0)
        with pytest.raises(InfeasiblePoseError,
                           match=r"joint 2 needs -2\.974 rad, "
                                 r"0\.007 past limit -2\.967"):
            inverse_kinematics(self.OLD_MOUNT, (x, y), ang)

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
        # at rest and told to stay, clear of the box: only the attach rule acts
        s2, _ = env2d.step(s, env2d.ProxyAction((0.12, 0.0), (0.0, 0.0)),
                           cfg, task)
        assert s2.proxy_pos.tolist() == [0.12, 0.0]
        assert s2.attachment == 1
        pos, _ = self.target(task, s2)
        x, y, _ = env2d.grasp_world(task.object, s2.object_q.tolist(), 1)
        assert np.allclose(pos, (x, y))

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

    @pytest.mark.parametrize("name, key, value, phase", [
        ("open-drawer", "proxy_pos", math.nan, Phase.EXPLORATION),
        ("open-drawer", "proxy_pos", math.inf, Phase.INTERACTION),
        ("open-drawer", "object_q", math.nan, Phase.INTERACTION),
        ("open-door", "object_q", math.inf, Phase.INTERACTION),
        ("move-box", "object_q", -math.inf, Phase.EXPLORATION),
    ])
    def test_non_finite_input_names_frame(self, name, key, value, phase):
        task, traj = expert_trajectory(name)
        index = 2 + next(i for i, f in enumerate(traj["frames"])
                         if f["phase"] == int(phase))
        traj["frames"][index][key][0] = value
        with pytest.raises(ConfigurationError,
                           match=rf"^frame {index}: {key} .* is not finite"):
            retarget_trajectory(traj, default_arm(), task.object)


def expert_trajectory(task_name, seed=0, jitter=0.0, noise=0.0):
    task = get_task(task_name)
    episode = demogen.run_expert_episode(
        task, task.world_config(start_jitter=jitter), seed=seed, noise_scale=noise)
    return task, env2d.trajectory_record(task, episode)


class TestMatchesOracle:
    """The closed form and the float DLS against the numpy DLS oracle, over
    jittered, noisy expert episodes."""

    @pytest.mark.parametrize("name", sorted(builtin_catalogue()))
    def test_joints_match_numpy_dls(self, name, monkeypatch):
        arm = default_arm()
        calls = []

        def oracle(*args):
            calls.append(args)
            return oracle_inverse_kinematics(*args)

        for seed in range(4):
            task, traj = expert_trajectory(name, seed, jitter=0.1, noise=0.05)
            got = retarget_trajectory(traj, arm, task.object)
            with monkeypatch.context() as m:
                m.setattr(retarget, "inverse_kinematics", oracle)
                want = retarget_trajectory(traj, arm, task.object)
            # one solve per input frame: the snap frame is not solved twice
            assert len(calls) == len(traj["frames"])
            calls.clear()
            assert len(got.phase_markers) == 1
            assert got.n_frames == want.n_frames == len(traj["frames"]) + 1
            for g, w, row in zip(got.joint_angles, want.joint_angles, got.frames):
                tol = 1e-5 if row["phase"] == 1 else 1e-12
                assert float(np.abs(g - w).max()) <= tol

    @pytest.mark.parametrize("name", sorted(builtin_catalogue()))
    def test_grasp_frames_never_iterate(self, name, no_iteration):
        # the expert's interaction frames alone: every target is
        # orientation constrained, so no frame may reach the iteration
        task, traj = expert_trajectory(name, 1, jitter=0.1, noise=0.05)
        traj["frames"] = [f for f in traj["frames"]
                          if f["phase"] == int(Phase.INTERACTION)]
        arm = default_arm()
        out = retarget_trajectory(traj, arm, task.object)
        assert out.phase_markers == [0]
        assert out.discontinuities() == []
        assert replay_retargeted(out, task, arm)


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

    def test_replay_rejects_row_of_wrong_joint_count(self):
        task, traj = expert_trajectory("open-drawer")
        arm = default_arm()
        out = retarget_trajectory(traj, arm, task.object)
        out.frames[4]["joints"] = out.frames[4]["joints"][:2]
        with pytest.raises(ConfigurationError,
                           match="row 4: expected 3 joint angles, got 2"):
            replay_retargeted(out, task, arm)

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
        poses = [env2d.grasp_world(task.object, f["object_q"], f["attachment"])
                 for f in traj["frames"] if f["phase"] == int(Phase.INTERACTION)]
        assert poses
        for x, y, ang in poses:
            assert feasibility_margin(arm, (x, y), retarget.wrap_angle(ang)) >= 0.1
