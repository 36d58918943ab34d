"""Seeded workload generators for the hnbody benchmark.

Each workload turns a seed into the list of CLI operations of one pass.  The
program under test only ever receives the generated JSON configurations;
the generators use the package's own geometry (``random_unimodular``,
``apply_mobius``, ``mobius_derivative``, ``hyperbolic_distance``) to build
isometric images and separated clusters.

Every workload runs every operation kind, because every end-to-end metric
is reported on every workload.  The kinds a workload does not focus on
come from ``control_ops``: small canonical operations whose inputs do not
depend on the seed, so they add the same fixed work to every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hnbody.clifford import random_unimodular
from hnbody.geometry import apply_mobius, from_disk, hyperbolic_distance, mobius_derivative

import gates

KINDS = ("simulate", "find", "invariance", "vlasov", "certify", "flow", "verdict")

# README bound orbit; from rest the same positions collide head-on at t* = 0.34009.
README_BODIES = ((1j, 0.6 + 0j), (2j, -0.6 + 0j))
HEAD_ON_BODIES = ((1j, 0j), (2j, 0j))
VERDICT_TIME = 0.34009
IMAGES = 3  # seeded images per collision pass (NOTES.md: cost spread between images)

# Box that keeps isometric images at the scale of the canonical pair: below |w| = 1 the
# singularity floor stops scaling and verdicts come early (NOTES.md).
BOX_RE, BOX_IM, BOX_ABS = 3.0, (0.5, 5.0), 1.0

# Gate bounds; NOTES.md records the values measured on the parent commit for the calibrated ones.
INVARIANCE_ACCEPTANCE = 1e-8   # equal-mass pairs of acceptance criterion 7
INVARIANCE_SEEDED_RATIO = 5e-8  # elliptic pair at a seeded mass ratio (measured up to 1.7e-8)
INVARIANCE_CLUSTER = 1e-4      # n = 128 cluster under the elliptic rotation (measured up to 1.6e-5)
ENERGY_DRIFT = 1e-7
VLASOV = 1e-6
VLASOV_CLUSTER = 1e-3          # n = 128 cluster at 201 points (measured up to 1.7e-4)
FIND_RESIDUAL = 1e-10
FLOW_DEFECT = 1e-6


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``hnbody <command...> --config <file> --out <dir>``.

    ``config`` is a document, or a function that builds it from the output
    directories of the operations run before it in the pass (a pipeline
    step such as ``invariance`` on a state that ``find`` solved).
    """

    name: str
    kind: str
    command: tuple
    config: dict | Callable
    expect: int
    gate: Callable


def _rows(bodies) -> list:
    return [[w.real, w.imag, v.real, v.imag] for w, v in bodies]


def _system(bodies, masses, t_end, tol, max_step=None, seed=None) -> dict:
    integrator = {"t_end": t_end, "tol": tol}
    if max_step is not None:
        integrator["max_step"] = max_step
    doc = {"R": 1.0, "masses": [float(m) for m in masses], "bodies": _rows(bodies),
           "integrator": integrator}
    if seed is not None:
        doc["seed"] = seed
    return doc


def isometric_image(A, bodies):
    """Push positions through the Mobius map of A and velocities through its derivative."""
    return tuple((apply_mobius(A, w), mobius_derivative(A, w) * v) for w, v in bodies)


def boxed_isometry(rng):
    """Draw unimodular matrices until the image of the canonical pair lies in the box.

    ANK spread 0.5 rather than 1 narrows the spread of verdict costs between
    images (coefficient of variation 15% instead of 22%, NOTES.md).
    """
    while True:
        A = random_unimodular(rng, spread=0.5)
        image = isometric_image(A, HEAD_ON_BODIES)
        if all(abs(w.real) <= BOX_RE and BOX_IM[0] <= w.imag <= BOX_IM[1] and abs(w) >= BOX_ABS
               for w, _ in image):
            return A


def cluster_bodies(seed: int, n: int, radius: float = 3.0, min_separation: float = 0.5):
    """n bodies uniform in the hyperbolic disk of ``radius`` about i, pairwise >= min_separation.

    Rejection sampling; masses uniform on [0.5, 2], velocities of hyperbolic
    speed about 0.05 in seeded directions.
    """
    rng = np.random.default_rng([seed, n])
    positions = []
    while len(positions) < n:
        r = math.acosh(rng.uniform(1.0, math.cosh(radius)))  # uniform in hyperbolic area
        phi = rng.uniform(0.0, 2.0 * math.pi)
        w = from_disk(math.tanh(r / 2.0) * complex(math.cos(phi), math.sin(phi)), 1.0)
        if all(hyperbolic_distance(w, q, 1.0) >= min_separation for q in positions):
            positions.append(w)
    masses = rng.uniform(0.5, 2.0, n)
    speed = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    bodies = tuple((w, s * w.imag) for w, s in zip(positions, speed))
    return bodies, masses


def _find_op(name, cls, masses, ansatz, symmetry):
    doc = {"R": 1.0, "masses": list(masses), "bodies": [[w.real, w.imag] + [0.0, 0.0] for w in ansatz],
           "equilibria": {"class": cls, "symmetry": symmetry}}
    return Op(name, "find", ("equilibria", "find"), doc, 0, gates.find(FIND_RESIDUAL))


def _solved_state(outputs, find_name) -> dict:
    return gates.read_json(outputs[find_name], "equilibrium.json")["state"]


def _invariance_on(name, find_name, invariance, bound):
    """Invariance of the state that operation ``find_name`` solved (acceptance criterion 7 settings)."""

    def build(outputs):
        return {**_solved_state(outputs, find_name),
                "integrator": {"t_end": 1.0, "tol": 1e-12, "max_step": 0.004}, "invariance": invariance}

    return Op(name, "invariance", ("invariance",), build, 0, gates.invariance(bound))


def _vlasov_on(name, find_name, t_end, num_points):
    """Weak-form check on the orbit of a solved pair (acceptance criterion 5 integrator settings)."""

    def build(outputs):
        return {**_solved_state(outputs, find_name),
                "integrator": {"t_end": t_end, "tol": 1e-12, "max_step": 0.005},
                "vlasov": {"num_points": num_points}}

    return Op(name, "vlasov", ("vlasov",), build, 0, gates.vlasov(VLASOV))


def _certify_op(name, cls, n, samples, seed):
    doc = {"seed": seed, "certify": {"class": cls, "n": n, "samples": samples}}
    return Op(name, "certify", ("certify",), doc, 0, gates.certify(samples))


def _flow_op(name, sigma, points):
    doc = {"flow": {"kind": "rotation", "sigma": sigma, "points": [[w.real, w.imag] for w in points],
                    "t_min": -0.5, "t_max": 0.5, "num": 129}}
    return Op(name, "flow", ("flow",), doc, 0, gates.flow(FLOW_DEFECT))


def _verdict_op(name, bodies):
    return Op(name, "verdict", ("simulate",), _system(bodies, (1.0, 1.0), 2.0, 1e-8), 2,
              gates.verdict(VERDICT_TIME, 0.02))


def control_ops() -> dict:
    """One small canonical operation list per kind, independent of the seed.

    A single find takes about 7 ms, so the control finds solve equal-mass
    elliptic-cyclic axis chains of 2, 3 and 4 bodies to reduce timing noise.
    """
    short_orbit = _system(README_BODIES, (1.0, 1.0), 1.0, 1e-10)
    chains = {2: (2j, 0.5j), 3: (3j, 1.5j, 0.5j), 4: (4j, 2j, 1j, 0.5j)}
    return {
        "simulate": [Op("control.simulate", "simulate", ("simulate",), short_orbit, 0,
                        gates.simulate(ENERGY_DRIFT))],
        "find": [_find_op("control.find" if n == 2 else f"control.find.{n}", "elliptic-cyclic", (1.0,) * n,
                          ansatz, "axis") for n, ansatz in chains.items()],
        "invariance": [_invariance_on("control.invariance", "control.find",
                                      {"kind": "rotation", "sigma": -1, "group_time": 0.7}, INVARIANCE_ACCEPTANCE)],
        "vlasov": [_vlasov_on("control.vlasov", "control.find", 1.0, 201)],
        "certify": [_certify_op("control.certify", "parabolic-cyclic", 3, 1000, 7)],
        "flow": [_flow_op("control.flow", -1, tuple(complex(0.00625 * k - 0.3, 0.2 + 0.005 * k) for k in range(96)))],
        "verdict": [_verdict_op("control.verdict", HEAD_ON_BODIES)],
    }


def _with_controls(ops: list, controls: dict) -> list:
    """Append the control operations of every kind ``ops`` lacks.

    KINDS lists find before invariance, so the control find runs before the
    control invariance that consumes its output.
    """
    have = {op.kind for op in ops}
    return list(ops) + [op for kind in KINDS if kind not in have for op in controls[kind]]


def orbit(seed: int) -> list:
    """The two-body pipeline of a paper user at n = 2."""
    rng = np.random.default_rng([seed, 2])
    A = boxed_isometry(rng)
    moved = isometric_image(A, README_BODIES)
    ratio = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    orbit_doc = _system(moved, (1.0, 1.0), 10.0, 1e-10, seed=seed)
    flow_points = tuple(complex(x, y) for x, y in zip(rng.uniform(-0.3, 0.3, 16), rng.uniform(0.2, 0.7, 16)))
    ops = [
        Op("orbit.simulate", "simulate", ("simulate",), orbit_doc, 0, gates.simulate(ENERGY_DRIFT)),
        _find_op("orbit.find.elliptic", "elliptic-cyclic", (1.0, ratio), (2j, 0.5j), "axis"),
        _find_op("orbit.find.normal", "hyperbolic-normal", (1.0, 1.0), (0.9 + 1j, -0.9 + 1j), "mirror"),
        _invariance_on("orbit.invariance.elliptic", "orbit.find.elliptic",
                       {"kind": "rotation", "sigma": -1, "group_time": 0.7}, INVARIANCE_SEEDED_RATIO),
        _invariance_on("orbit.invariance.normal", "orbit.find.normal",
                       {"kind": "normal", "group_time": 0.8}, INVARIANCE_ACCEPTANCE),
        # The README orbit itself is not resolved by the 1001-point weak-form grid (NOTES.md).
        _vlasov_on("orbit.vlasov", "orbit.find.elliptic", 2.0, 1001),
    ]
    for cls in ("parabolic-cyclic", "hyperbolic-cyclic"):
        for n in (2, 3, 4):
            ops.append(_certify_op(f"orbit.certify.{cls}.{n}", cls, n, 1000, seed))
    for sigma in (-1, 0, 1):
        ops.append(_flow_op(f"orbit.flow.{sigma}", sigma, flow_points))
    return _with_controls(ops, control_ops())


def cluster(seed: int) -> list:
    """The O(n^2) pair kernel at n = 128, over a fixed count of about 200 steps."""
    bodies, masses = cluster_bodies(seed, 128)
    doc = _system(bodies, masses, 0.1, 1e-10, max_step=5e-4, seed=seed)
    ops = [
        Op("cluster.simulate", "simulate", ("simulate",), doc, 0, gates.simulate(ENERGY_DRIFT)),
        Op("cluster.invariance", "invariance", ("invariance",),
           {**doc, "invariance": {"kind": "rotation", "sigma": -1, "group_time": 0.7}}, 0,
           gates.invariance(INVARIANCE_CLUSTER)),
        Op("cluster.vlasov", "vlasov", ("vlasov",), {**doc, "vlasov": {"num_points": 201}}, 0,
           gates.vlasov(VLASOV_CLUSTER)),
    ]
    return _with_controls(ops, control_ops())


def collision(seed: int) -> list:
    """Head-on collisions that must end in a singularity verdict: the canonical
    pair from rest, then seeded isometric images of it."""
    rng = np.random.default_rng([seed, 3])
    controls = control_ops()
    ops = [controls["verdict"][0]] + [
        _verdict_op(f"collision.image.{k}", isometric_image(boxed_isometry(rng), HEAD_ON_BODIES))
        for k in range(IMAGES)
    ]
    return _with_controls(ops, controls)


WORKLOADS = {"orbit": orbit, "cluster": cluster, "collision": collision}
