"""Typed schemas and object construction for scenario configs.

Configs are JSON documents.  Every object in them, from ``problem`` to each
scenario section, is read through one schema: a table giving each key its
type (number, integer, complex, a nonempty list of those, or a nested
object) and its default, or marking it REQUIRED.  Unknown keys, wrong types
and broken cross-key rules raise ``ConfigError`` naming the innermost dotted
path of the offender, and so do the range limits the library would reject
later (``m >= 1``, ``trials >= 100``, ``xi_points_per_side >= 2``,
``max_mode`` below half the grid, ``max_iter >= 1``, positive tolerances,
norm exponents, multiplier family indices, a strip F of arity <= 1 with
nondegenerate boundary rows, and lambdas inside the sector every solve and
estimate is gated on).  Complex scalars are plain numbers or [re, im] pairs;
a null value counts as absent.  Randomized constructs (band-limited fields,
R-bound trials, which run only for p != 2) draw from a generator seeded by
the run seed only.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np

from .bvp import is_degenerate
from .errors import ConfigError, InvalidArgumentError
from .evolution import DEFAULT_BLOWUP_THRESHOLD, DEFAULT_STEP_TOL, Nonlinearity, step_count
from .grids import Field, Grid, band_limited_random
from .kernels import KERNEL_KINDS, Kernel
from .operators import OperatorRealization, make_operator
from .solver import DiscretizedProblem
from .symbols import DEFAULT_LAMBDA_SECTOR, Sector, SymbolSet

REQUIRED = object()  # schema default of a key that must be given


def _object(v, path) -> dict:
    if not isinstance(v, dict):
        raise ConfigError("expected an object", path)
    return v


def _is_num(v) -> bool:  # finite; an int must also fit a float
    return isinstance(v, (float, int)) and not isinstance(v, bool) and (
        abs(v) <= sys.float_info.max
    )


def _num(v, path) -> float:
    if not _is_num(v):
        raise ConfigError("expected a finite number", path)
    return float(v)


def _pos(v, path) -> float:
    x = _num(v, path)
    if not x > 0:
        raise ConfigError("expected a positive number", path)
    return x


def _num_above(lo, strict=False):
    def parse(v, path):
        x = _num(v, path)
        if not (x > lo if strict else x >= lo):
            raise ConfigError(f"expected a number {'>' if strict else '>='} {lo:g}", path)
        return x

    return parse


def _int(v, path) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError("expected an integer", path)
    return v


def _int_from(lo):
    def parse(v, path):
        if _int(v, path) < lo:
            raise ConfigError(f"expected an integer >= {lo}", path)
        return v

    return parse


def _str(v, path) -> str:
    if not isinstance(v, str):
        raise ConfigError("expected a string", path)
    return v


def _cnum(v, path) -> complex:
    re, im = v if isinstance(v, list) and len(v) == 2 else (v, 0.0)
    if not (_is_num(re) and _is_num(im)):
        raise ConfigError("expected a number or [re, im] pair", path)
    return complex(re, im)


def _lam(v, path) -> complex:  # in the sector every solve and estimate is gated on
    z = _cnum(v, path)
    if not DEFAULT_LAMBDA_SECTOR.contains(z):
        raise ConfigError(f"expected a lambda with |arg| <= {DEFAULT_LAMBDA_SECTOR.angle:g}", path)
    return z


def _list_of(item):
    def parse(v, path):
        if not isinstance(v, list) or not v:
            raise ConfigError("expected a nonempty list", path)
        return [item(x, f"{path}[{i}]") for i, x in enumerate(v)]

    return parse


def _choice(*options):
    def parse(v, path):
        if not isinstance(v, str) or v not in options:
            got = f", got {v!r}" if isinstance(v, str) else ""
            raise ConfigError(f"expected one of {', '.join(options)}{got}", path)
        return v

    return parse


def _obj(keys):
    """Parser of an object with exactly ``keys``: key -> (parser, default).

    Returns a dict of typed values.  An absent or null key takes its
    default, parsed like a given value; a None default stays None.
    """
    required = {k for k, (_, default) in keys.items() if default is REQUIRED}

    def parse(v, path):
        prefix = f"{path}." if path else ""
        if not keys.keys() >= _object(v, path).keys():
            key = next(k for k in v if k not in keys)
            raise ConfigError(f"unknown key {key!r}", prefix + key)
        if not v.keys() >= required:
            key = next(k for k in keys if k in required and k not in v)
            raise ConfigError(f"missing required key {key!r}", path)
        typed = {}
        for key, (parser, default) in keys.items():
            raw = v.get(key)
            if raw is None:
                raw = default  # a null required key fails in its parser
            typed[key] = None if raw is None else parser(raw, prefix + key)
        return typed

    return parse


def _kinds(table):
    """Parser of an object whose ``kind``, a key of ``table``, selects its keys."""
    parsers = {kind: _obj({"kind": (_str, REQUIRED), **keys}) for kind, keys in table.items()}
    kind_of = _choice(*table)

    def parse(v, path):
        return parsers[kind_of(_object(v, path).get("kind"), f"{path}.kind")](v, path)

    return parse


def _then(parser, make):
    """``parser``, then ``make(value, path)``, which builds or checks.

    A library ValueError (or an unreadable file) from ``make`` becomes a
    ConfigError at ``path``.  ConfigError is a ValueError too; it passes
    through unchanged, so its path stays the innermost one.
    """

    def parse(v, path):
        value = parser(v, path)
        try:
            return make(value, path)
        except ConfigError:
            raise
        except (ValueError, OSError) as exc:
            raise ConfigError(str(exc), path) from None

    return parse


_cnum_list = _list_of(_cnum)


def _matrix(v, path):
    """Rows of complex entries: rectangular all-pair or all-number rows of finite floats and
    ints as one array (pairs viewed as complex128, keeping every bit), the rest entry by entry."""
    if isinstance(v, list) and v and all(isinstance(r, list) and r and len(r) == len(v[0]) for r in v):
        pairs = all(isinstance(e, list) and len(e) == 2 for r in v for e in r)
        flat = [x for r in v for e in r for x in e] if pairs else [e for r in v for e in r]
        kinds = set(map(type, flat))
        if kinds <= {float, int} and (int not in kinds or all(map(_is_num, flat))):
            values = np.array(flat, dtype=float)
            if np.isfinite(values).all():
                return (values.view(complex) if pairs else values.astype(complex)).reshape(len(v), -1)
    return _list_of(_cnum_list)(v, path)


# ---------------------------------------------------------------------------
# the problem: symbols, operator realization, grid
# ---------------------------------------------------------------------------

_KERNEL_KIND = _choice(*(k for k in KERNEL_KINDS if k != "custom-closed-form"))
_KERNEL = _then(
    _obj({"kind": (_KERNEL_KIND, REQUIRED), "rate": (_num, 1.0), "amplitude": (_cnum, 1.0)}),
    lambda s, path: Kernel(**s),
)


def _kernel_orders(v, path) -> dict:
    kernels = {}
    for key, spec in _object(v, path).items():
        try:
            order = int(key)
        except ValueError:
            raise ConfigError("kernel orders must be integer keys", f"{path}.{key}") from None
        kernels[order] = _KERNEL(spec, f"{path}.{key}")
    return kernels


def _operator(s, path) -> OperatorRealization:
    params = {k: v for k, v in s.items() if v is not None}
    if s["kind"] == "dense-matrix" and "matrix" not in params and "csv" not in params:
        raise ConfigError("dense-matrix needs a matrix", f"{path}.matrix")
    operator = make_operator(**params)  # a dense A checks its own spectrum
    if np.min(operator.eigenvalues().real) <= 0:
        raise ConfigError(
            f"{operator.kind} operator must have eigenvalues with positive real part", path)
    return operator


_SYMBOLS = _obj({
    "l": (_int, REQUIRED), "b": (_cnum_list, REQUIRED), "nu": (_cnum, REQUIRED),
    "a_kernels": (_kernel_orders, {}), "mu_kernel": (_KERNEL, None),
})
_OPERATOR = _kinds({
    "dense-matrix": {"matrix": (_matrix, None), "csv": (_str, None)},
    "periodic-sturm-liouville": {"b": (_num, None), "n": (_int, None)},
    "dirichlet-laplacian-2d": {"n_y": (_int, None), "n_z": (_int, None), "c": (_num, None)},
})
_GRID = _obj({"half_width": (_num, REQUIRED), "n": (_int, REQUIRED)})
_PROBLEM = _then(
    _obj({
        "symbols": (_then(_SYMBOLS, lambda s, path: SymbolSet(**s)), REQUIRED),
        "operator": (_then(_OPERATOR, _operator), REQUIRED),
        "grid": (_then(_GRID, lambda s, path: Grid(**s)), REQUIRED),
        "p": (_num, 2.0),
    }),
    lambda s, path: DiscretizedProblem(**s),
)


def build_problem(spec, path) -> DiscretizedProblem:
    return _PROBLEM(spec, path)


# ---------------------------------------------------------------------------
# fields: typed with their section, sampled once the grid is known
# ---------------------------------------------------------------------------


_MODE = _obj({"type": (_choice("operator-mode"), REQUIRED), "index": (_int, REQUIRED)})


def _weights(v, path):
    """A list of per-component weights, or an operator-mode object."""
    return _cnum_list(v, path) if isinstance(v, list) else _MODE(v, path)


# A parsed field spec is the pair (typed spec, path) that build_field takes.
_FIELD = _then(
    _obj({
        "type": (_choice("zero", "constant", "cos", "gaussian", "band-limited-random"), REQUIRED),
        "value": (_cnum, 1.0), "weights": (_weights, None), "amplitude": (_num, 1.0),
        "wavenumber": (_num, 1.0), "center": (_num, 0.0), "width": (_pos, 1.0),
        "max_mode": (_int, 8), "decay": (_num, 1.0),
    }),
    lambda s, path: (s, path),
)


def _component_weights(weights, path, operator):
    if weights is None:
        return np.ones(operator.dim)
    if isinstance(weights, list):
        if len(weights) != operator.dim:
            raise ConfigError(f"expected {operator.dim} component weights, got {len(weights)}", path)
        return np.asarray(weights, dtype=complex)
    idx = weights["index"]
    if not 0 <= idx < operator.dim:
        raise ConfigError("operator-mode index out of range", f"{path}.index")
    diag = operator.diagonalization()
    if diag is None:
        raise ConfigError("operator-mode weights need a well-conditioned eigenbasis", path)
    _, inv, eigs = diag
    k = np.argsort(eigs.real, kind="stable")[idx]  # ties keep eigenbasis order
    vec = inv(np.eye(1, operator.dim, k)[0])  # mode k: the inverse transform of e_k
    vec = vec / np.max(np.abs(vec))
    if np.max(np.abs(vec.imag)) < 1e-12:
        vec = vec.real
    return vec


def build_field(spec, path, grid: Grid, operator: OperatorRealization, rng) -> Field:
    """Sample a field spec, typed by its section's schema, on ``grid``."""
    weights = _component_weights(spec["weights"], f"{path}.weights", operator)
    weights = weights * spec["amplitude"]
    ftype = spec["type"]
    if ftype == "zero":
        return Field(grid, np.zeros((grid.n, operator.dim), dtype=complex))
    if ftype == "constant":
        return Field(grid, np.full((grid.n, 1), spec["value"]) * weights[None, :])
    if ftype == "cos":
        w = spec["wavenumber"]
        return Field.from_function(grid, lambda x: np.cos(w * x), weights)
    if ftype == "gaussian":
        c, s = spec["center"], spec["width"]
        return Field.from_function(grid, lambda x: np.exp(-(((x - c) / s) ** 2)), weights)
    if not 1 <= spec["max_mode"] < grid.n // 2:
        raise ConfigError(f"expected an integer in 1 .. {grid.n // 2 - 1}", f"{path}.max_mode")
    base = band_limited_random(grid, rng, max_mode=spec["max_mode"], dim=1, decay=spec["decay"])
    return Field(grid, base.values * weights[None, :])


# ---------------------------------------------------------------------------
# scenario sections
# ---------------------------------------------------------------------------


def _family(v, path):
    if v != "sigma" and _int(v, path) not in range(5):
        raise ConfigError('expected one of 0, 1, 2, 3, 4, "sigma"', path)
    return v


def _time_profile(s, path):
    """Scalar time factor (t, t_final) -> float of a forcing."""
    rate = s["rate"]
    return {
        "constant": lambda t, t_final: 1.0,
        "exp-decay": lambda t, t_final: float(np.exp(-rate * t)),
        "sin-pi": lambda t, t_final: float(np.sin(np.pi * t / t_final)),
    }[s["kind"]]


def _nonlinearity(s, path):
    """The semilinear term, or None for kind "none" (a linear run)."""
    if s["kind"] == "none":
        return None
    if s["terms"] is None:
        raise ConfigError("polynomial nonlinearity needs terms", f"{path}.terms")
    return Nonlinearity(kind="pointwise-polynomial", arity=s["arity"], terms=tuple(s["terms"]))


def _no_semilinear_forcing(s, path):
    if s["nonlinearity"] is not None and s["forcing"] is not None:
        raise ConfigError("semilinear runs take no forcing", f"{path}.forcing")
    return s


def _strip_rules(s, path):
    """The strip rules a config alone decides: the arity of F, the boundary determinant."""
    if s["nonlinearity"] is not None and s["nonlinearity"].arity > 1:
        raise ConfigError("strip nonlinearities take (u,) or (u, u_t)",
                          f"{path}.nonlinearity.arity")
    if is_degenerate(SimpleNamespace(**s["bc"])):
        raise ConfigError("boundary rows have vanishing determinant", f"{path}.bc")
    return _no_semilinear_forcing(s, path)


def _whole_steps(s, path):
    try:
        step_count(s["t_final"], s["dt"])
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc), f"{path}.t_final") from None
    return _no_semilinear_forcing(s, path)


_TIME_KIND = _choice("constant", "exp-decay", "sin-pi")
_TIME = _obj({"kind": (_TIME_KIND, "constant"), "rate": (_num, 1.0)})
_FORCING = _obj({"space": (_FIELD, {"type": "zero"}), "time": (_then(_TIME, _time_profile), {})})
_TERM = _obj({"powers": (_list_of(_int_from(0)), REQUIRED), "coeff": (_cnum, REQUIRED)})
_NONLINEARITY = _then(
    _obj({
        "kind": (_choice("none", "polynomial"), REQUIRED),
        "arity": (_int, 0),
        "terms": (_list_of(_then(_TERM, lambda s, path: (tuple(s["powers"]), s["coeff"]))), None),
    }),
    _nonlinearity,
)
_LAMBDAS = (_list_of(_lam), REQUIRED)
_EXPONENT = (_num_above(1.0), 2.0)  # p, q >= 1; the trace spaces need p > 1
_NORM = _kinds({
    "lp": {"p": _EXPONENT},
    "sobolev": {"l": (_int_from(0), None), "p": _EXPONENT},
    "besov": {"s": (_pos, 1.0), "q": _EXPONENT, "p": _EXPONENT},
    "trace": {
        "l": (_int_from(1), None), "p": (_num_above(1.0, strict=True), 2.0), "q": _EXPONENT,
    },
    "mixed": {"p": _EXPONENT, "q": _EXPONENT, "time_points": (_int_from(1), 64)},
})

# Scenario name -> parser of its section, in the CLI's order.
SECTIONS = {
    "check-condition": _obj({
        "sector_angle": (_then(_num, lambda v, path: Sector(v)), DEFAULT_LAMBDA_SECTOR.angle),
        "xi_points_per_side": (_int_from(2), 1200),
    }),
    "solve-linear": _obj({"forcing": (_FIELD, REQUIRED), "lambda": (_lam, 0.0)}),
    "lambda-sweep": _obj({"forcing": (_FIELD, REQUIRED), "lambdas": _LAMBDAS}),
    "mikhlin": _obj(
        {"lambdas": _LAMBDAS, "families": (_list_of(_family), [0, 1, 2, 3, 4, "sigma"])}
    ),
    "rbound": _obj({
        "xi_samples": (_list_of(_num), REQUIRED), "lambdas": _LAMBDAS,
        "trials": (_int_from(100), 200),
    }),
    "solve-parabolic": _then(_obj({
        "t_final": (_pos, REQUIRED), "dt": (_pos, REQUIRED), "initial": (_FIELD, REQUIRED),
        "forcing": (_FORCING, None), "nonlinearity": (_NONLINEARITY, None),
        "store_every": (_int_from(0), 0),
        "blowup_threshold": (_pos, DEFAULT_BLOWUP_THRESHOLD),
        "step_tol": (_pos, DEFAULT_STEP_TOL),
    }), _whole_steps),
    "solve-elliptic": _then(_obj({
        "t_final": (_pos, REQUIRED), "m": (_int_from(1), REQUIRED),
        "bc": (_obj({
            **{k: (_cnum, REQUIRED) for k in ("alpha1", "beta1", "alpha2", "beta2")},
            "f1": (_FIELD, REQUIRED), "f2": (_FIELD, REQUIRED),
        }), REQUIRED),
        "forcing": (_FORCING, None), "nonlinearity": (_NONLINEARITY, None),
        "max_iter": (_int_from(1), 30), "tol": (_pos, 1e-8),
        "max_t_halvings": (_int_from(0), 0),
    }), _strip_rules),
    "norms-report": _obj({"field": (_FIELD, REQUIRED), "norms": (_list_of(_NORM), REQUIRED)}),
}
SCENARIOS = tuple(SECTIONS)
_DOCUMENT = _obj({
    "scenario": (_choice(*SCENARIOS), REQUIRED), "problem": (_object, REQUIRED),
    "seed": (_int_from(0), 0), **{name: (_object, None) for name in SCENARIOS},
})


def parse_run(config, seed=None):
    """Check the document's top level; return its typed section and run seed.

    ``seed``, when given, overrides the document's seed (default 0).
    """
    doc = _DOCUMENT(config, "")
    scenario = doc["scenario"]
    for name in SCENARIOS:
        if name != scenario and doc[name] is not None:
            raise ConfigError(f"section {name!r} does not belong to scenario {scenario!r}", name)
    run_seed = doc["seed"] if seed is None else _int_from(0)(seed, "seed")
    section = SECTIONS[scenario]({} if doc[scenario] is None else doc[scenario], scenario)
    return section, run_seed


def validate_config(config) -> dict:
    """Validate the full document and return it (the library's check; no run calls it)."""
    parse_run(config)
    build_problem(config["problem"], "problem")  # structural validation
    return config
