"""Golden pins: fixed-seed artefacts of the pipeline, recorded so that a
refactor which claims "same behaviour" can be checked against them.

Two kinds of pin:

* **Exact** (sha256 of the bytes): the dataset directory, ``env2d.step``
  episodes, scripted-expert episodes, retargeted trajectories with their
  replay results (the expert episodes, plus inputs that flag
  discontinuities and restart the IK solve), and checkpoint and
  state-blob files written from fixed weights. The world
  steps on Python floats, so episodes and the dataset's states pass no float
  through a BLAS product and their bits depend only on the code. The
  retargeter's IK runs on Python floats too (closed form for grasp poses,
  a 2x2 damped least-squares solve by Cramer's rule for the rest), so its
  pin is BLAS-free like the episodes. ``test_exact_pins_blas_kernel_free``
  re-runs the exact pins under another OpenBLAS kernel to keep it so.
* **Tolerance** (stored values, ``rtol=BLAS_RTOL``): the encoder loss curve,
  rollout batches and the states of policy episodes, which run through
  ``numpy`` matrix products. OpenBLAS
  picks its kernel by CPU and by the number of rows, and a 1-row product can
  round differently from a larger one, so the stored values are compared
  with a relative tolerance. Each such pin fixes its batch sizes and seeds,
  so on one machine it is reproduced bit for bit; the tolerance only absorbs
  a different BLAS kernel's last-bit rounding.

A failing pin prints the observed value as a Python assignment. When a change
moves a pin on purpose, paste that line over the stored constant and say in
the change description which pin moved and by how much.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import pprint
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from proxymanip import demogen, env2d, numcore, reprlearn, retarget, skillrl
from proxymanip.env2d import ProxyAction, builtin_catalogue, get_task

BLAS_RTOL = 1e-9
BLAS_ATOL = 1e-12

EPISODE_STEPS = 300
DATASET_TASKS = ("open-door", "move-box")


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def _repin(name: str, observed) -> str:
    return (f"{name} moved; if on purpose, paste over the stored value:\n"
            f"{name} = {pprint.pformat(observed, width=88, compact=True, sort_dicts=False)}")


def _assert_exact(name: str, observed, expected) -> None:
    assert observed == expected, _repin(name, observed)


def _assert_close(name: str, observed: dict, expected: dict) -> None:
    ok = expected is not None and observed.keys() == expected.keys() and all(
        np.shape(observed[k]) == np.shape(expected[k])
        and np.allclose(observed[k], expected[k], rtol=BLAS_RTOL, atol=BLAS_ATOL)
        for k in expected)
    assert ok, _repin(name, observed)


def _floats(a) -> list[float]:
    return [float(v) for v in np.asarray(a).reshape(-1)]


# ---------------------------------------------------------------------------
# Exact pins
# ---------------------------------------------------------------------------

DATASET_DIGEST = '427d7e9d6088ca4adab154965240993dab42f74bd7c38d2210466d9aa95106bf'

ENV_EPISODE_DIGESTS = {'close-door/two_phase': '91435d336e6cc34b2cf512b48cebc4a285f019ad2e08ca65725cad8aaf42c272',
 'close-door/flat': '9ff652df241618f05746b9aa3db6580281086e10ae73fbb0de2e2da37596b4be',
 'close-drawer/two_phase': '484ca9673138338313066ac17c3f4081014ab074092405d78f46a800b4f693f7',
 'close-drawer/flat': '84e097bc2baa5fe0febf71a113023bdf9126f0ae5c945e778bd543442ee2c409',
 'lift-box/two_phase': '7756c14a194ee7ce5b81646e94b2ba830f37ae7decbdb95dbdeaf336f38ff8cc',
 'lift-box/flat': '2953976086376c25dcce80185ca490f60765ad577a08e2c29864d7e60ef45823',
 'move-box/two_phase': 'ccfcfb52b73ad5e7e8f7bcb8be5a8c00426fda95e996f07b1c0dc8f24c3965f2',
 'move-box/flat': '0a1de3ab3120e8acedddf1e6a32b08005ac5d977b20ea3d960e0e904874d279b',
 'open-door/two_phase': 'cf77a3bc223ad083f73a75e23ae1ba3dfcaf2ddfab5844ec10284b3fa06ec3ac',
 'open-door/flat': '97305bdf4a349605e7f3074b54c209a39454b620a22f07d223d602517be78c2e',
 'open-drawer/two_phase': 'fd66b9c5e8b5859df16664b14884a9184ead39fd1295e608865ff85f7dc244b6',
 'open-drawer/flat': '6e9806ac383e35072572fc89e907287a3acc1d95b7da1506b05c94a168310be9',
 'move-box/tie': 'f578b62272e5b88b5a9542339a884b3921be23a698a120814631b1fb444ba864'}

RETARGET_DIGESTS = {'close-door': ('05f9bd83639ce0dc92db3b4272ecc51c6b77b9e8613a0f786287e87c7b4720ac',
                True),
 'close-drawer': ('fe33709a13df9a744dde89c9284df1f5a61330286a58c97511b277ff240b517f',
                  True),
 'lift-box': ('504741f231c76d71e1151fac72ba1b69261263b707fe43c3fd76beffd6da6037', True),
 'move-box': ('b009a73bf6a184696e49777ede00900d30beb218bd9216f28711a47fe597a268', True),
 'open-door': ('3287912b6f5d599a8fac5193b443c7489e197bbcc3e0ab7cc67e4d2cd3dd1bb9',
               True),
 'open-drawer': ('9e9dbde095f57d69ff5704661c10094177150265ecbdaf8faf80665e41d23d68',
                 True),
 'close-drawer/low-mount/2': ('6239a709719ad7742919b3e58b141871d312fffd38bd063ca82e6feda77349ef',
                              True),
 'close-drawer/low-mount/3': ('a1b508257888496334a18e58e1a0d6001d76060e032d91f293235be1248285a9',
                              True),
 'circle': ('e8d9aa5a6aa40137d6b99a08c82f0698baa602ca454282692b9c9c4e73543d69', False)}

EXPERT_EPISODE_DIGESTS = {'close-door/0.0': 'f018bdf5a09bef1782e3acda22b3dae288faca4edb2f5f64987f5e2623a19a28',
 'close-door/0.05': 'c38a4d040a9ae812bf4d2157e3bda7106c958773d88bf73b3506158d8c4e55cd',
 'close-drawer/0.0': '2c06837b58260a25a3a417749667cbb89c45d72e14d88c39e82c235ffb2ad44d',
 'close-drawer/0.05': 'd7996e7e49fa523f5dff7e807835b600fc7f3689191a34ba60e97fb9b2a85118',
 'lift-box/0.0': '863e24547e3bfd322b86feb820116d1b107e4807ae476bdd3db2d27246dfe58f',
 'lift-box/0.05': '38efa256cd9f3025bc220607f759a4b10f90094cefae8bdcb916c7c4a0583da9',
 'move-box/0.0': 'ff6fc71483560092f348473f52093ecc4e1b57098577dd0d93858b4755713f27',
 'move-box/0.05': '852b8f9e37b2f89301b501bbd504da6b858646dce90d189c6c9b9bc74409ec0b',
 'open-door/0.0': 'd3735dedc54948ccd3e82b0f2d1e47908c43807d31a3315f48f3834aefa970c6',
 'open-door/0.05': '3803d56b5bfde8a41f7d1429cedccd156695234fb423f91891a5376b34a82460',
 'open-drawer/0.0': 'e9c98561b48ed4fbf395395839ac6c8fa62ef3c8ee5f3b0da63f4810b8a065f2',
 'open-drawer/0.05': 'a5c651cb90ef2b3470f63d4e99cf89467f890aee949515f04aad805d1036a8e9'}

CHECKPOINT_DIGESTS = {'policy/actor.ckpt': 'a45d51fc7683d491fc9be787968a56eaf0731faf99c070b45c8f14ad8d7d0cdd',
 'policy/critic.ckpt': 'a31f3a25f8f0c3abc458ff76ee96fc63365db699dd9c4a2ef0906eb7768cd3d1',
 'policy/policy.json': 'edf288e9333498b0ea41148606d39f8c7d39d7c5624f2447bfb41336c8e5b83e',
 'encoder.ckpt': '04ccb7f2ae0229fa9f2ef65e8b434c60c6ca247a008f0ff9555029875a0abd93'}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    cat = builtin_catalogue()
    out = tmp_path_factory.mktemp("golden") / "dataset"
    dataset = demogen.generate_dataset([cat[n] for n in DATASET_TASKS],
                                       clips_per_task=2, noise_scale=0.05,
                                       style="none", seed=5, out_dir=out)
    return out, dataset


def test_dataset_directory_digest(dataset_dir):
    root, _ = dataset_dir
    chunks = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        chunks += [path.relative_to(root).as_posix().encode(), path.read_bytes()]
    _assert_exact("DATASET_DIGEST", _sha(*chunks), DATASET_DIGEST)


def _state_bytes(s: env2d.WorldState) -> bytes:
    return (repr((s.time_step, int(s.phase), s.attachment)).encode()
            + s.proxy_pos.tobytes() + s.proxy_vel.tobytes()
            + s.object_q.tobytes() + s.object_qdot.tobytes())


def _episode_digest(task, config, seed: int, actions) -> str:
    state = env2d.reset(config, task, seed)
    chunks = [_state_bytes(state)]
    for _ in range(EPISODE_STEPS):
        state, events = env2d.step(state, actions(state), config, task)
        chunks += [_state_bytes(state), repr(events).encode()]
    return _sha(*chunks)


def _noisy_expert(task, seed: int):
    """The scripted expert with seeded noise on both heads, so episodes
    see contacts, limit hits and (two-phase) transitions."""
    expert = demogen.scripted_expert(task)
    rng = np.random.Generator(np.random.PCG64(seed))

    def act(state):
        a = expert(state)
        p = np.asarray(a.desired_pos) + rng.normal(0.0, 0.05, 2)
        f = np.asarray(a.force) + rng.normal(0.0, 4.0, 2)
        return ProxyAction(tuple(p), tuple(f))
    return act


def _tie_episode() -> str:
    """Move-box with the proxy descending on the box's vertical centre line,
    so it enters the interactable ball exactly equidistant from both grasp
    points; grasp 0 must attach."""
    task = replace(get_task("move-box"), proxy_start=(0.0, 0.3))
    config = task.world_config(interact_radius=0.15)

    def act(state):
        if state.phase == env2d.Phase.EXPLORATION:
            return ProxyAction((0.0, 0.0), (0.0, 0.0))
        return ProxyAction((0.0, 0.0), (6.0, 3.0))
    return _episode_digest(task, config, 0, act)


def test_env_episode_digests():
    observed = {}
    for ti, (name, task) in enumerate(sorted(builtin_catalogue().items())):
        for two_phase in (True, False):
            config = task.world_config(start_jitter=0.1, two_phase=two_phase)
            seed = 40 + ti
            key = f"{name}/{'two_phase' if two_phase else 'flat'}"
            observed[key] = _episode_digest(task, config, seed,
                                            _noisy_expert(task, seed))
    observed["move-box/tie"] = _tie_episode()
    _assert_exact("ENV_EPISODE_DIGESTS", observed, ENV_EPISODE_DIGESTS)


def _action_bytes(a: ProxyAction) -> bytes:
    return np.array([*a.desired_pos, *a.force], dtype=float).tobytes()


def test_expert_episode_digests():
    """Scripted-expert episodes as ``demogen`` rolls them, with and without
    action noise: every state and every action taken."""
    observed = {}
    for ti, (name, task) in enumerate(sorted(builtin_catalogue().items())):
        config = task.world_config(start_jitter=0.1)
        for noise in (0.0, 0.05):
            episode = demogen.run_expert_episode(task, config, 80 + ti,
                                                 noise_scale=noise)
            observed[f"{name}/{noise}"] = _sha(
                *map(_state_bytes, episode.states),
                *map(_action_bytes, episode.actions))
    _assert_exact("EXPERT_EPISODE_DIGESTS", observed, EXPERT_EPISODE_DIGESTS)


def _record_expert(task, seed: int) -> dict:
    config = task.world_config(start_jitter=0.1)
    episode = demogen.run_expert_episode(task, config, seed, noise_scale=0.05)
    return env2d.trajectory_record(task, episode)


def _json_leaves(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _json_leaves(v)
    elif isinstance(value, list):
        for v in value:
            yield from _json_leaves(v)
    else:
        yield value


def _circle_record(arm, n_frames=80, radius=0.25) -> dict:
    """Position-only frames once round a circle about the arm's base."""
    bx, by = arm.base_position
    frames = [{"t": i, "phase": 0, "attachment": None, "object_q": [0.0],
               "proxy_pos": [bx + radius * math.cos(2.0 * math.pi * i / n_frames),
                             by + radius * math.sin(2.0 * math.pi * i / n_frames)]}
              for i in range(n_frames)]
    return {"task": "open-drawer", "frames": frames, "events": []}


def test_retargeted_expert_digests(monkeypatch):
    """The six expert episodes on the default arm, plus paths they never
    reach: close-drawer from a lower mount flags discontinuities, and a circle
    about the base needs a restart of the damped least-squares solve."""
    restarts = []
    restart_guesses = retarget._restart_guesses

    def counted(*args):
        for guess in restart_guesses(*args):
            restarts.append(guess)
            yield guess
    monkeypatch.setattr(retarget, "_restart_guesses", counted)

    arm = retarget.default_arm()
    low_mount = retarget.ArmModel(base_position=(-0.4, 0.0))
    drawer = get_task("close-drawer")
    runs = [(name, task, arm, _record_expert(task, 60 + ti)) for ti, (name, task)
            in enumerate(sorted(builtin_catalogue().items()))]
    runs += [(f"close-drawer/low-mount/{seed}", drawer, low_mount,
              _record_expert(drawer, seed)) for seed in (2, 3)]
    runs.append(("circle", get_task("open-drawer"), arm, _circle_record(arm)))
    observed = {}
    for name, task, run_arm, record in runs:
        out = retarget.retarget_trajectory(record, run_arm, task.object)
        replayed = retarget.replay_retargeted(out, task, run_arm)
        # json.dumps takes numpy scalars too, so the digest alone misses one
        leaves = list(_json_leaves(out.frames))
        assert {type(v) for v in leaves} <= {float, int, type(None)}, name
        digest = _sha(
            np.stack(out.joint_angles).tobytes(),
            repr([(np.array(row["ee_pose"][:2]).tobytes(), row["ee_pose"][2])
                  for row in out.frames]).encode(),
            json.dumps([out.phase_markers, out.frames, out.events],
                       sort_keys=True).encode())
        observed[name] = (digest, replayed)
    assert len(restarts) == 1
    _assert_exact("RETARGET_DIGESTS", observed, RETARGET_DIGESTS)


def test_checkpoint_file_digests(tmp_path):
    policy = skillrl.init_policy(3)
    policy.log_std = np.array([-0.25, -0.5, 0.75, 0.125])
    skillrl.save_policy(tmp_path / "policy", policy, seed=3, step_count=11)
    reprlearn.save_encoder(tmp_path / "encoder.ckpt", reprlearn.init_encoder(4),
                           seed=4, step_count=9)
    files = ["policy/actor.ckpt", "policy/critic.ckpt", "policy/policy.json",
             "encoder.ckpt"]
    observed = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in files}
    _assert_exact("CHECKPOINT_DIGESTS", observed, CHECKPOINT_DIGESTS)


EXACT_PIN_TESTS = ("test_dataset_directory_digest", "test_env_episode_digests",
                   "test_expert_episode_digests", "test_retargeted_expert_digests",
                   "test_checkpoint_file_digests")


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_exact_pins_blas_kernel_free():
    """The exact pins hold under OpenBLAS's generic SSE3 kernel, which any
    x86-64 CPU runs: no exact pin depends on which BLAS kernel is picked."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(f"tests/test_golden.py::{name}" for name in EXACT_PIN_TESTS)],
        cwd=root, env=dict(os.environ, OPENBLAS_CORETYPE="Prescott"),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


# ---------------------------------------------------------------------------
# Tolerance pins (BLAS)
# ---------------------------------------------------------------------------

ENCODER_LOSS_CURVE = {'total': [3.303710652854937, 2.9720673721549726, 2.8557172377124216,
           2.6205601409307318, 2.425915657400341, 2.2361487006827137, 2.178630996823512,
           2.088107381820918, 2.041038017995218, 1.9738993819310182, 1.9220455427172793,
           1.8603136889762173, 1.8424546697494317, 1.724338833774254,
           1.7170490632667832, 1.692738344197776, 1.6324334098858269,
           1.6201807361215868, 1.588195233305951, 1.5664857178466818],
 'tcn': [1.0735285122341345, 1.0431352740902704, 1.0825813428155648, 1.0924739295761672,
         1.0677216085838743, 1.090938023527826, 1.0722435503363963, 1.0828648304836108,
         1.0944500211548207, 1.079263152598907, 1.0931879911137925, 1.0951167055670912,
         1.0936264062765928, 1.091382380310939, 1.0845121857642916, 1.1025651829185155,
         1.0850897568673745, 1.0973397451460487, 1.0929963416311188,
         1.0950321762581228],
 'reg': [2.2301821406208022, 1.9289320980647022, 1.7731358948968567, 1.5280862113545646,
         1.3581940488164665, 1.1452106771548878, 1.1063874464871155, 1.0052425513373069,
         0.9465879968403975, 0.8946362293321114, 0.8288575516034868, 0.7651969834091261,
         0.7488282634728389, 0.632956453463315, 0.6325368775024915, 0.5901731612792606,
         0.5473436530184522, 0.522840990975538, 0.4951988916748322, 0.471453541588559]}

ROLLOUT_BATCH = {'obs': [-5.61839480365125, 0.8883683417155603, 58.030892949340334, -7.982950393190528,
         3.1263482819627084, -0.42844955901800374, 0.0, 27.06621216609993,
         -4.7623441736089775, 0.0, 27.0, 27.0, -8.22837999170083, -1.4596650539384286,
         35.969166686203145, -4.539404906942588, 0.7464150099151333,
         -0.004263090078536477, 0.0, 8.594718893457234, -0.40009758013973407, 0.0, 17.0,
         17.0, -9.85765894373246, 1.2428619601066278, 24.918569017325993,
         2.1177059512097114, 0.48525044499498243, -0.15182867903021438, 0.0,
         7.456682940618561, -2.1126375047747326, 0.0, 8.0, 8.0, -3.2580207024140293,
         -1.4544879492158185, 56.7826930459182, -10.080144042128046, 3.8950322551680245,
         -1.171216723057352, 0.0, 34.48482890860006, -9.548030627161806, 0.0, 30.0,
         30.0],
 'actions': [1.4209165288161965, 0.2068551252558532, 359.7292944789779,
             -73.65017837120794, -2.5696566979405673, -2.3594486144720848,
             134.67830702883728, -17.527057607242156, -5.367518209046265,
             1.5204040615601393, 123.93274608349621, -31.079419056008092,
             -0.6041295443910847, -2.5211702444085633, 391.34261472320026,
             -116.51104642424013],
 'masks': [21.0, 21.0, 27.0, 27.0, 31.0, 31.0, 17.0, 17.0, 40.0, 40.0, 8.0, 8.0, 18.0,
           18.0, 30.0, 30.0],
 'log_probs': [-162.90921890698502, -125.1027823427862, -87.72801335702077,
               -172.57878364063075],
 'advantages': [-10.645630123455211, -22.661637157277674, -16.998100724371756,
                -12.173142539180725],
 'returns': [-7.419365936969208, -21.75122544891557, -18.27951620918856,
             -7.522800301479595],
 'episode_returns': [-1.062511447535364, -1.616449241066848, 0.0, 0.04796645230130159,
                     0.14520903284180164, -0.6609781334716898, -1.5442495655304636,
                     -1.6957728323569379],
 'episode_successes': [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}

PPO_UPDATE = {'stats': [0.029320658251035064, 0.06770833333333333, 2.8895023558689084,
           0.2147639009261478, 3.0, 0.0, 0.01922214943601241, 0.4488735500976489],
 'log_std': [-0.7006422106791546, -0.7007384688019948, 1.0, 0.9995259964119364],
 'actor': [2.1408467975082166, 0.004197293251331719, 3.433038674840229,
           0.002330462819509326, -0.6308115661786342, -0.0008907491901463207],
 'critic': [-0.23567820631954173, -0.0010547634646961472, 3.478513002776165,
            -0.008405059810503377, 2.384992728742951, -0.0008424942483101515],
 'after_obs': [-5.839235136505698, 1.7287663182774495, 36.101759511917166,
               -4.364650591471204, 3.09177157019966, -0.9272391227191968, 0.0,
               24.63431220839174, -6.8563853513779565, 0.0, 19.0, 19.0,
               -7.114150848968575, -1.0511115648015728, 33.94860824441003,
               -4.233194930194128, 1.2074155656489707, -0.6205769963055573, 0.0,
               14.372588696856798, -5.339218699674403, 0.0, 21.0, 21.0,
               -6.8775323014315655, -0.6559869045048013, 48.692950081358255,
               -5.332937861721742, 1.2164583917970202, -0.40378000294817323, 0.0,
               17.38797254321051, -4.851801812616525, 0.0, 26.0, 26.0,
               -4.686124372856485, -1.8823877382116738, 47.523845811563085,
               -2.4763518144094627, 1.8236672987157556, -0.6321517677804898, 0.0,
               20.541600373221907, -6.175288828297856, 0.0, 27.0, 27.0],
 'after_actions': [-4.777745079069376, 2.38048210606927, 247.98404386834343,
                   -77.2682892693287, -3.091968798481737, -0.7674931116089324,
                   212.1372885870731, -46.36960200194895, 0.5166153937448725,
                   -1.0464819004558001, 287.5695646380128, -67.27083608924197,
                   -0.1981190818649997, -1.9083269746654596, 290.94227550315543,
                   -97.57316504681305],
 'after_masks': [29.0, 29.0, 19.0, 19.0, 27.0, 27.0, 21.0, 21.0, 22.0, 22.0, 26.0, 26.0,
                 21.0, 21.0, 27.0, 27.0],
 'after_log_probs': [-136.5019072154626, -137.53051249101372, -146.90336863994403,
                     -163.04477152392874],
 'after_advantages': [-15.621800963029845, -24.853427097741573, -40.02669110700412,
                      -21.70684147457897],
 'after_returns': [-17.19400309717197, -25.30418163998642, -40.93018356514718,
                   -21.563198942595836],
 'after_episode_returns': [-1.8612179708044567, -3.9968028886505635e-15,
                           -1.7170259030765584, -0.26390759767687566,
                           -0.7962297535724316, -1.1871260780530648,
                           -1.3584491256743667, -1.4624157088978331],
 'after_episode_successes': [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]}


POLICY_EPISODE_SEEDS = range(5)

POLICY_EPISODE_OUTCOMES = {'close-door/0': [False, 400, 0, None, 400],
 'close-door/1': [False, 400, 1, 0, 400],
 'close-door/2': [False, 400, 0, None, 400],
 'close-door/3': [False, 400, 1, 0, 400],
 'close-door/4': [True, 96, 1, 0, 96],
 'close-drawer/0': [False, 400, 0, None, 400],
 'close-drawer/1': [False, 400, 0, None, 400],
 'close-drawer/2': [False, 400, 0, None, 400],
 'close-drawer/3': [True, 58, 1, 0, 58],
 'close-drawer/4': [False, 400, 0, None, 400],
 'lift-box/0': [False, 400, 0, None, 400],
 'lift-box/1': [False, 400, 0, None, 400],
 'lift-box/2': [False, 400, 0, None, 400],
 'lift-box/3': [False, 400, 0, None, 400],
 'lift-box/4': [False, 400, 0, None, 400],
 'move-box/0': [False, 400, 1, 0, 400],
 'move-box/1': [False, 400, 1, 0, 400],
 'move-box/2': [False, 400, 1, 0, 400],
 'move-box/3': [False, 400, 1, 0, 400],
 'move-box/4': [False, 400, 1, 0, 400],
 'open-door/0': [False, 400, 1, 0, 400],
 'open-door/1': [False, 400, 0, None, 400],
 'open-door/2': [False, 400, 0, None, 400],
 'open-door/3': [False, 400, 0, None, 400],
 'open-door/4': [False, 400, 0, None, 400],
 'open-drawer/0': [True, 85, 1, 0, 85],
 'open-drawer/1': [False, 400, 1, 0, 400],
 'open-drawer/2': [True, 39, 1, 0, 39],
 'open-drawer/3': [False, 400, 1, 0, 400],
 'open-drawer/4': [False, 400, 1, 0, 400]}

POLICY_EPISODE_STATES = {'close-door/0': [-0.5651113591077879, 0.24272276922697641, -2.0788746137477328e-09,
                  -4.4513511266155077e-10, 2.094, 0.0, -119.81247924124128,
                  -28.153171499467227, 837.6000000000001, 0.0],
 'close-door/1': [-0.09592757398155986, 0.35636478024489315, 0.0, 0.0, 2.094, 0.0,
                  104.25658203668746, -1.7895662919642925, 837.5259830087593,
                  -0.3984336146939337],
 'close-door/2': [-0.2043247795382652, -0.3128041957088891, 9.89777850568567e-09,
                  -2.5829079196559565e-09, 2.094, 0.0, -204.89251993061686,
                  -36.15696515067491, 837.6000000000001, 0.0],
 'close-door/3': [-0.09592757398155986, 0.35636478024489315, 0.0, 0.0, 2.094, 0.0,
                  104.10035084692346, 3.909561944468044, 837.6000000000001, 0.0],
 'close-door/4': [0.27356554707602343, 0.0906784414931824, -0.0037442101760820634,
                  -0.8048786379455712, 0.1310875410934349, -2.940927579025985,
                  39.21107572737919, 3.4402811365266457, 131.6082172427357,
                  -98.14562294532827],
 'close-drawer/0': [-0.10947892850533877, 0.04013773453315917, 2.511756863076631e-06,
                    -6.810300693859006e-08, 0.3, 0.0, -33.36685520267733,
                    11.999198295964403, 119.99999999999997, 0.0],
 'close-drawer/1': [0.03486728621296086, -0.02805618775667397, 5.662497706473338e-15,
                    5.205754490692659e-15, 0.3, 0.0, 3.3127993042253894,
                    13.029128317683382, 119.99999999999997, 0.0],
 'close-drawer/2': [-0.031744848950386935, -0.05218690159920667, 1.0060729665186967e-07,
                    -2.491193023446377e-08, 0.3, 0.0, -38.99082619725764,
                    13.002896084203122, 119.99999999999997, 0.0],
 'close-drawer/3': [0.007610052732426181, 0.0, -1.0151896096058612, 0.0,
                    0.047610052732426196, -1.0151896096058617, 5.44437565587108,
                    18.76820426792269, 15.439230459196928, -12.619497363378688],
 'close-drawer/4': [-0.01628384978240926, -0.04901237365331007, 5.1231396321143454e-08,
                    -7.876775640542807e-08, 0.3, 0.0, -27.878125736588853,
                    9.46327053628039, 119.99999999999997, 0.0],
 'lift-box/0': [-0.019480187661642955, 0.10499328407568508, -1.2250594662218296e-07,
                4.245790827135106e-09, 0.0, -0.34, 0.0, 0.0, 0.0, 0.0,
                35.007583658650596, -5.258087184724511, -136.0, 0.0],
 'lift-box/1': [0.032224925572953374, -0.013488146563284733, 2.332051836166321e-14,
                1.039446606493148e-14, 0.0, -0.34, 0.0, 0.0, 0.0, 0.0,
                14.27538431534127, -11.374587654647524, -136.0, 0.0],
 'lift-box/2': [0.06378926579092933, 0.029216211703537696, 6.480000310298807e-08,
                -1.6011442433408153e-08, 0.0, -0.34, 0.0, 0.0, 0.0, 0.0,
                35.36184900179896, -3.150242513593852, -136.0, 0.0],
 'lift-box/3': [-0.10282121842760165, -0.08518224438470062, -1.2603297090758739e-16,
                7.080503983623022e-17, 0.0, -0.34, 0.0, 0.0, 0.0, 0.0,
                -72.06261589567558, -16.012471509313727, -136.0, 0.0],
 'lift-box/4': [-0.07161776304122894, 0.09408394374957485, -9.596570589284352e-09,
                1.492765925016983e-08, 0.0, -0.34, 0.0, 0.0, 0.0, 0.0,
                11.884128224002994, -11.14860925651635, -136.0, 0.0],
 'move-box/0': [0.52, -0.6, 0.0, 0.0, 0.6, -0.6, 0.0, 0.0, 0.0, 0.0, -82.1522659082822,
                11.466257994573379, -47.81103731849396, 0.5435892714245316],
 'move-box/1': [-0.6799999999999999, 0.6, 0.0, 0.0, -0.6, 0.6, 0.0, 0.0, 0.0, 0.0,
                -32.55169331225779, 8.688573394869042, -0.030483848786093448,
                0.8248268983266458],
 'move-box/2': [0.52, -0.6, 0.0, 0.0, 0.6, -0.6, 0.0, 0.0, 0.0, 0.0, -33.15158804287721,
                13.199483611682808, 0.6537259297499092, -0.20750673815158094],
 'move-box/3': [-0.6799999999999999, 0.6, 0.0, 0.0, -0.6, 0.6, 0.0, 0.0, 0.0, 0.0,
                -62.14643206262549, 14.387701631301374, -28.612002563010375,
                0.8092996571982125],
 'move-box/4': [0.19871750842145863, -0.266971777630502, 0.012935691363927249,
                0.0017174076275772165, 0.27871750842145865, -0.266971777630502, 0.0,
                0.012935691363928038, 0.001717407627577403, 0.0, -40.39976305223031,
                9.315368247614185, -7.506033876767986, 0.5872865395478242],
 'open-door/0': [0.27, 0.05500000000000001, 0.0, 0.0, 0.0, 0.0, 128.09923149863585,
                 11.716257994573379, 0.0013440083910804344, 0.06720041955402171],
 'open-door/1': [3.116242761946307e-15, 1.372453534744505e-15, -1.0317747245043315e-14,
                 -7.103597178160429e-15, 0.0, 0.0, -2.723330012583105,
                 -7.311426605130737, 0.0, 0.0],
 'open-door/2': [7.86048572648837e-08, -1.9422842404386007e-08, -1.5397418735716644e-07,
                 3.804620324293572e-08, 0.0, 0.0, 5.412370595675736, -2.800513429216454,
                 0.0, 0.0],
 'open-door/3': [1.046069161287673e-23, -8.394030866763275e-24, -1.8119915745946506e-22,
                 8.812809739291376e-23, 0.0, 0.0, 0.07155707549540315,
                 -1.61229836869862, 0.0, 0.0],
 'open-door/4': [4.5564794430465855e-08, -7.094148129773672e-08, -8.988802689182523e-08,
                 1.3994980412970362e-07, 0.0, 0.0, 0.5354403010710306,
                 -7.27191956076799, 0.0, 0.0],
 'open-drawer/0': [0.2120153751440319, 0.0, 0.21812186996175154, 0.0,
                   0.25201537514403194, 0.21812186996175345, -0.13830186018025525,
                   26.06702675177497, 7.117980240587894, 12.626036082121942],
 'open-drawer/1': [-0.04000000000000001, 0.0, 0.0, 0.0, 0.0, 0.0, -16.80509663864749,
                   10.688573394869039, 0.0022443563098315062, 0.04815016259470774],
 'open-drawer/2': [0.21796093619949108, 0.0, 0.8353470595513002, 0.0,
                   0.2579609361994911, 0.8353470595512998, -2.0317260558014585,
                   28.09753042165736, 2.3175564641216666, 12.898046809974558],
 'open-drawer/3': [-0.04000000000000001, 0.0, 0.0, 0.0, 0.0, 0.0, -18.144017206262976,
                   16.387701631301375, 0.0, 0.0],
 'open-drawer/4': [-0.04000000000000001, 0.0, 0.0, 0.0, 0.0, 0.0, -17.55542695498584,
                   10.728081708066355, 0.0, 0.0]}


def _policy_episodes(monkeypatch) -> tuple[dict, dict]:
    """Deterministic-mean episodes of untrained policies over the six tasks:
    per episode the exact outcome, and the final state followed by per-field
    sums over every state the episode stepped into."""
    visited: list = []
    real_step = env2d.step

    def recording_step(*args, **kwargs):
        state, events = real_step(*args, **kwargs)
        visited.append(state)
        return state, events

    monkeypatch.setattr(env2d, "step", recording_step)
    outcomes, states = {}, {}
    for name, task in sorted(builtin_catalogue().items()):
        config = skillrl.SkillOptions().world_config(task)
        for seed in POLICY_EPISODE_SEEDS:
            visited.clear()
            res = skillrl.run_policy_episode(skillrl.init_policy(seed), task,
                                             config, seed)
            end = res.final_state
            key = f"{name}/{seed}"
            outcomes[key] = [res.success, res.steps, int(end.phase),
                             end.attachment, len(visited)]
            fields = ("proxy_pos", "proxy_vel", "object_q", "object_qdot")
            states[key] = ([v for f in fields for v in _floats(getattr(end, f))]
                           + [float(np.sum([getattr(s, f) for s in visited]))
                              for f in fields])
    return outcomes, states


def test_policy_episodes(monkeypatch):
    outcomes, states = _policy_episodes(monkeypatch)
    _assert_exact("POLICY_EPISODE_OUTCOMES", outcomes, POLICY_EPISODE_OUTCOMES)
    _assert_close("POLICY_EPISODE_STATES", states, POLICY_EPISODE_STATES)


def test_encoder_loss_curve(dataset_dir):
    _, dataset = dataset_dir
    config = reprlearn.ReprTrainConfig(total_steps=20, batch_size=16, lr=3e-4,
                                       seed=7)
    _, log = reprlearn.train_encoder(dataset, config)
    observed = {k: [float(row[k]) for row in log] for k in ("total", "tcn", "reg")}
    _assert_close("ENCODER_LOSS_CURVE", observed, ENCODER_LOSS_CURVE)


def _rollout_setup():
    task = get_task("move-box")
    encoder = reprlearn.init_encoder(5)
    options = skillrl.SkillOptions(episode_horizon=20)
    ppo = skillrl.PpoConfig(rollout_envs=4, horizon=48, epochs=1,
                            minibatch_size=64, seed=6)
    goal = skillrl.make_goal(task, options.camera, encoder)
    slots = skillrl.make_env_slots(task, options, encoder, goal,
                                   ppo.rollout_envs, ppo.seed)
    rng = np.random.Generator(np.random.PCG64(9))
    return task, encoder, options, ppo, goal, slots, rng


def _batch_summary(batch: dict, n_envs: int) -> dict:
    """Per-env sums (rows are step-major) plus the finished episodes."""
    def per_env(key):
        a = batch[key].reshape(-1, n_envs, *batch[key].shape[1:])
        return _floats(a.sum(axis=0))
    return {
        "obs": per_env("obs"),
        "actions": per_env("actions"),
        "masks": per_env("masks"),
        "log_probs": per_env("log_probs"),
        "advantages": per_env("advantages"),
        "returns": per_env("returns"),
        "episode_returns": _floats(batch["episode_returns"]),
        "episode_successes": _floats(batch["episode_successes"]),
    }


def test_rollout_batch_from_initial_policy():
    _, encoder, options, ppo, goal, slots, rng = _rollout_setup()
    policy = skillrl.init_policy(ppo.seed)
    batch = skillrl.collect_rollouts(policy, slots, encoder, goal, ppo, options,
                                     rng)
    _assert_close("ROLLOUT_BATCH", _batch_summary(batch, ppo.rollout_envs),
                  ROLLOUT_BATCH)


def test_ppo_update_then_rollout():
    """One PPO update moves ``log_std`` off its initial values; the next
    rollout's log-probs then depend on how the Gaussian log-prob is formed."""
    _, encoder, options, ppo, goal, slots, rng = _rollout_setup()
    policy = skillrl.init_policy(ppo.seed)
    adam = numcore.adam_init(policy.parameters(), lr=skillrl.PPO_LR)
    batch = skillrl.collect_rollouts(policy, slots, encoder, goal, ppo, options,
                                     rng)
    stats = skillrl.ppo_update(policy, batch, ppo, adam, rng)
    after = skillrl.collect_rollouts(policy, slots, encoder, goal, ppo, options,
                                     rng)
    observed = {
        "stats": [float(stats[k]) for k in sorted(stats)],
        "log_std": _floats(policy.log_std),
        "actor": [float(p.sum()) for p in policy.actor.parameters()],
        "critic": [float(p.sum()) for p in policy.critic.parameters()],
        **{f"after_{k}": v for k, v in
           _batch_summary(after, ppo.rollout_envs).items()},
    }
    _assert_close("PPO_UPDATE", observed, PPO_UPDATE)


AWR_FIT = {'actor': [-1.431438695798695, -0.011183689221281176, -0.9111799810227375,
                     0.006848633208353237, -0.7186256647084511, -0.004133576287770557],
           'means': [3.434677988828612, -3.2644701048874496, 48.08457431277232,
                     57.374361437087735]}


def test_awr_fit_from_expert_clips(dataset_dir):
    """Advantage-weighted regression on the golden dataset's move-box clips,
    weighted by masked goal progress; the fitted actor and its action means
    on the clips' observations."""
    _, dataset = dataset_dir
    task = get_task("move-box")
    clips = [dataset.clips[i] for i in dataset.index["move-box"]]
    encoder = reprlearn.init_encoder(5)
    goal = skillrl.make_goal(task, "front", encoder)
    policy = skillrl.awr_fit(clips, encoder, goal, temperature=0.05, epochs=3,
                             seed=4, minibatch_size=32)
    obs = np.stack([np.array(s["obs"]) for clip in clips for s in clip.states])
    means, _, _ = skillrl.action_means(policy, obs)
    observed = {
        "actor": [float(p.sum()) for p in policy.actor.parameters()],
        "means": _floats(means.sum(axis=0)),
    }
    _assert_close("AWR_FIT", observed, AWR_FIT)
