"""Seeded operation lists for the three benchmark workloads.

Every operation is one scenario run through the command line entry point,
except ``positivity-scan``, which has no CLI scenario and is called through
the public ``positivity_scan`` function.  All inputs, dense matrices
included, come from ``numpy.random.default_rng(seed)``; sizes and step
counts never depend on the seed, so the cost of a pass does not either.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("presets", "dense", "structured")

# Scenario -> the end-to-end class its time is summed into.
SCENARIO_CLASS = {
    "solve-parabolic": "parabolic",
    "solve-elliptic": "elliptic",
    "solve-linear": "stationary",
    "lambda-sweep": "stationary",
    "check-condition": "estimators",
    "mikhlin": "estimators",
    "rbound": "estimators",
    "positivity-scan": "estimators",
    "norms-report": "other",
}
CLASSES = ("parabolic", "elliptic", "stationary", "estimators")

PRESETS_FILE = Path(__file__).with_name("presets.json")
# Runs per pass of the presets under 0.1 s, about 0.1 s per pass each, and
# of problem-4.6, the only elliptic preset.
PRESET_REPEATS = {
    "example-4.3-condition": 20,
    "example-4.3-sweep": 12,
    "norms-gaussian": 12,
    "problem-3.7": 10,
    "example-4.3-mikhlin": 5,
    "example-4.3-rbound": 3,
    "scalar-resolvent": 3,
    "example-4.3": 2,
    "problem-4.6": 2,
}


@dataclass
class Op:
    """One benchmark operation: a CLI scenario run or a positivity scan."""

    name: str
    scenario: str
    config: dict
    # Extra oracle expectations that the config alone does not imply.
    expect: dict = field(default_factory=dict)
    # Back-to-back runs per pass.  Ops of a few milliseconds run several
    # times so that their time rests on as many samples as the long ones.
    repeat: int = 1
    # Whether the op's time is scaled to the reference host speed (see
    # hostspeed.py).  False for an op whose time does not follow the
    # calibration kernel.
    host_scaled: bool = True

    @property
    def klass(self) -> str:
        return SCENARIO_CLASS[self.scenario]


def _c(z: complex):
    return [float(z.real), float(z.imag)]


def _dense_matrix(rng, d: int) -> list:
    """Non-normal complex d x d matrix with eigenvalues 1..2 + i[-1, 1].

    A random unitary similarity of an upper-triangular matrix: the spectrum
    is fixed by the diagonal, the strictly upper part makes it non-normal,
    and the similarity hides the triangular structure from LAPACK.
    """
    diag = 1.0 + rng.random(d) + 1j * rng.uniform(-1.0, 1.0, d)
    upper = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), 1)
    t = np.diag(diag) + upper / np.sqrt(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    a = q @ t @ q.conj().T
    return [[_c(v) for v in row] for row in a]


def _symbols(rng) -> dict:
    """Second-order symbols with the presets' odd exponential kernel.

    The phase of eta stays below atan(amplitude / rate) < pi / 2, so every
    draw is admissible.  (The even ``exponential-standard`` and ``gaussian``
    kinds are avoided: their scalar-xi transform crashes ``rbound``.)
    """
    return {
        "l": 2,
        "b": [float(rng.uniform(0.5, 1.5)), 0.0, -1.0],
        "nu": 1.0,
        "a_kernels": {
            "2": {
                "kind": "exponential-paper",
                "rate": float(rng.uniform(0.5, 2.0)),
                "amplitude": float(rng.uniform(0.2, 1.0)),
            }
        },
    }


def _weights(rng, d: int) -> list:
    return [_c(complex(rng.uniform(0.5, 1.0), rng.uniform(-0.5, 0.5))) for _ in range(d)]


def _gaussian(rng, weights, amplitude=1.0) -> dict:
    return {
        "type": "gaussian",
        "width": float(rng.uniform(1.0, 2.0)),
        "amplitude": amplitude,
        "weights": weights,
    }


def _problem(symbols, operator, half_width, n) -> dict:
    return {
        "symbols": symbols,
        "operator": operator,
        "grid": {"half_width": half_width, "n": n},
        "p": 2.0,
    }


def _laplacian(rng, n_side) -> dict:
    return {
        "kind": "dirichlet-laplacian-2d",
        "n_y": n_side,
        "n_z": n_side,
        "c": float(rng.uniform(0.5, 2.0)),
    }


def _bc(f1, f2) -> dict:
    return {"alpha1": 1.0, "beta1": 0.0, "alpha2": 0.0, "beta2": 1.0, "f1": f1, "f2": f2}


def presets_ops(rng) -> list:
    """The built-in presets as frozen when the benchmark was written."""
    presets = json.loads(PRESETS_FILE.read_text())
    ops = []
    for name in sorted(presets):
        config = presets[name]
        # u' = u^2 + eps from u = 1 blows up at t = 1.
        expect = {"halts_between": [0.9, 1.0]} if name == "blowup-ode" else {}
        ops.append(Op(name, config["scenario"], config, expect,
                      PRESET_REPEATS.get(name, 1)))
    return ops


def dense_ops(rng) -> list:
    ops = []
    for d, n in ((24, 256), (16, 1024)):
        sym = _symbols(rng)
        operator = {"kind": "dense-matrix", "matrix": _dense_matrix(rng, d)}
        ops.append(
            Op(
                f"parabolic-d{d}-n{n}",
                "solve-parabolic",
                {
                    "scenario": "solve-parabolic",
                    "problem": _problem(sym, operator, 16.0, n),
                    "solve-parabolic": {
                        "t_final": 0.2,
                        "dt": 0.01,
                        "initial": _gaussian(rng, _weights(rng, d)),
                    },
                },
                # At d=24 the per-frequency expm loop is dominated by hand-offs
                # between the 2 OpenBLAS threads.  That time does not follow the
                # pure-Python kernel: in five 30 s runs it was 1.18 s in the
                # one whose kernel was fastest (4.7 ms) and 0.96-1.06 s in the
                # four whose kernel took 6.0-6.3 ms.
                host_scaled=d != 24,
            )
        )
    d = 6
    operator = {"kind": "dense-matrix", "matrix": _dense_matrix(rng, d)}
    ops.append(
        Op(
            "elliptic-d6-n128",
            "solve-elliptic",
            {
                "scenario": "solve-elliptic",
                "problem": _problem(_symbols(rng), operator, 16.0, 128),
                "solve-elliptic": {
                    "t_final": 0.5,
                    "m": 48,
                    "bc": _bc(
                        _gaussian(rng, _weights(rng, d), 0.5),
                        _gaussian(rng, _weights(rng, d), 0.25),
                    ),
                    "forcing": {"space": _gaussian(rng, _weights(rng, d))},
                },
            },
        )
    )
    # One d=32, n=1024 problem shared by the stationary solve, the sweep
    # and the R-bound estimate: the same A + eta + lambda families recur.
    d = 32
    shared = _problem(
        _symbols(rng), {"kind": "dense-matrix", "matrix": _dense_matrix(rng, d)}, 16.0, 1024
    )
    forcing = _gaussian(rng, _weights(rng, d))
    lambdas = sorted(float(v) for v in rng.uniform(0.5, 50.0, 4))
    ops.append(
        Op(
            "linear-d32-n1024",
            "solve-linear",
            {
                "scenario": "solve-linear",
                "problem": shared,
                "solve-linear": {"lambda": lambdas[0], "forcing": forcing},
            },
        )
    )
    ops.append(
        Op(
            "sweep-d32-n1024",
            "lambda-sweep",
            {
                "scenario": "lambda-sweep",
                "problem": shared,
                "lambda-sweep": {"forcing": forcing, "lambdas": lambdas},
            },
        )
    )
    ops.append(
        Op(
            "rbound-d32",
            "rbound",
            {
                "scenario": "rbound",
                "problem": shared,
                "rbound": {
                    "xi_samples": sorted(float(v) for v in rng.uniform(0.1, 10.0, 4)),
                    "lambdas": lambdas,
                    "trials": 1000,
                },
            },
        )
    )
    return ops


def structured_ops(rng) -> list:
    ops = []
    mode = {"type": "operator-mode", "index": int(rng.integers(0, 4))}
    ops.append(
        Op(
            "parabolic-lap16-n128",
            "solve-parabolic",
            {
                "scenario": "solve-parabolic",
                "problem": _problem(_symbols(rng), _laplacian(rng, 16), 8.0, 128),
                "solve-parabolic": {
                    "t_final": 0.2,
                    "dt": 0.001,
                    "initial": {"type": "gaussian", "width": 2.0, "weights": mode},
                    "store_every": 50,
                },
            },
        )
    )
    psl = {"kind": "periodic-sturm-liouville", "b": float(rng.uniform(0.5, 2.0)), "n": 128}
    ops.append(
        Op(
            "semilinear-psl128-n128",
            "solve-parabolic",
            {
                "scenario": "solve-parabolic",
                "problem": _problem(_symbols(rng), psl, 8.0, 128),
                "solve-parabolic": {
                    "t_final": 0.1,
                    "dt": 0.001,
                    "initial": {
                        "type": "gaussian",
                        "width": 2.0,
                        "amplitude": float(rng.uniform(0.2, 0.5)),
                        "weights": {"type": "operator-mode", "index": 0},
                    },
                    "nonlinearity": {
                        "kind": "polynomial",
                        "arity": 0,
                        "terms": [{"powers": [3], "coeff": -1.0}],
                    },
                    "store_every": 25,
                },
            },
        )
    )
    mode8 = {"type": "operator-mode", "index": int(rng.integers(0, 4))}
    ops.append(
        Op(
            "elliptic-lap8-n64",
            "solve-elliptic",
            {
                "scenario": "solve-elliptic",
                "problem": _problem(_symbols(rng), _laplacian(rng, 8), 8.0, 64),
                "solve-elliptic": {
                    "t_final": 0.5,
                    "m": 32,
                    "bc": _bc(
                        {"type": "gaussian", "width": 2.0, "amplitude": 0.5, "weights": mode8},
                        {"type": "gaussian", "width": 1.5, "amplitude": 0.25, "weights": mode8},
                    ),
                    "forcing": {"space": {"type": "gaussian", "width": 1.0, "weights": mode8}},
                },
            },
        )
    )
    # Stationary solve and sweep on the 16x16 Laplacian: every workload
    # reports every end-to-end class, so this one needs a stationary op.
    stationary = _problem(_symbols(rng), _laplacian(rng, 16), 8.0, 128)
    forcing = _gaussian(rng, _weights(rng, 256))
    lambdas = sorted(float(v) for v in rng.uniform(0.5, 50.0, 4))
    ops.append(
        Op(
            "linear-lap16-n128",
            "solve-linear",
            {
                "scenario": "solve-linear",
                "problem": stationary,
                "solve-linear": {"lambda": lambdas[0], "forcing": forcing},
            },
            repeat=2,
        )
    )
    ops.append(
        Op(
            "sweep-lap16-n128",
            "lambda-sweep",
            {
                "scenario": "lambda-sweep",
                "problem": stationary,
                "lambda-sweep": {"forcing": forcing, "lambdas": lambdas},
            },
            repeat=3,
        )
    )
    ops.append(
        Op(
            "rbound-lap16",
            "rbound",
            {
                "scenario": "rbound",
                "problem": _problem(_symbols(rng), _laplacian(rng, 16), 8.0, 32),
                "rbound": {
                    "xi_samples": sorted(float(v) for v in rng.uniform(0.1, 10.0, 2)),
                    "lambdas": sorted(float(v) for v in rng.uniform(0.5, 50.0, 2)),
                    "trials": 200,
                },
            },
        )
    )
    ops.append(
        Op(
            "positivity-psl128",
            "positivity-scan",
            {
                "operator": {
                    "kind": "periodic-sturm-liouville",
                    "b": float(rng.uniform(0.5, 2.0)),
                    "n": 128,
                },
                "sector_angle": float(rng.uniform(0.5, 1.5)),
                # 24 moduli on each of the sector's three rays: 72 samples.
                "n_moduli": 24,
            },
            # Vectorized eigenvalue work: over 21 passes its log time rose
            # only 0.21 per unit of log kernel time (correlation 0.44).
            host_scaled=False,
        )
    )
    return ops


_GENERATORS = {"presets": presets_ops, "dense": dense_ops, "structured": structured_ops}


def build_ops(workload: str, seed: int) -> list:
    """The workload's operations, generated from ``seed`` alone."""
    return _GENERATORS[workload](np.random.default_rng(seed))


def write_configs(ops, directory: Path) -> dict:
    """Write each op's config as JSON; returns op name -> config path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        path = directory / f"{op.name}.json"
        path.write_text(json.dumps(op.config))
        paths[op.name] = path
    return paths
