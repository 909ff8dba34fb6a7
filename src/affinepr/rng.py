"""Deterministic, seeded generation of ensembles, signals, and noise.

Every random object is drawn from a stream derived from a ``SeedSpec``:
a 64-bit master seed plus an ordered tuple of labels naming the consumer.
Derivation is a splitmix64 avalanche over the label material, so disjoint
labels give independent streams and any object can be regenerated from its
recorded seed metadata alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import (
    COMPLEX,
    REAL,
    MeasurementEnsemble,
    ProblemInstance,
    _MASK64,
    _checked,
    _integer,
    _real,
    array_from_json,
    forward_model,
    lifted_intensity,
)

# The signal and noise laws of make_instance, as its seed metadata names them.
_MODELS = {"amplitude_model": "gaussian", "noise_model": "sphere"}


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _label_word(label) -> int:
    if isinstance(label, bool):
        raise TypeError("bool labels are ambiguous; use int or str")
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
    if isinstance(label, str):
        # FNV-1a over utf-8 bytes; stable across runs unlike hash().
        h = 0xCBF29CE484222325
        for byte in label.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & _MASK64
        return h
    raise TypeError(f"unsupported stream label type {type(label).__name__}")


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus stream labels identifying one consumer."""

    master_seed: int
    labels: tuple = ()

    def __post_init__(self):
        seed = _integer("master_seed", self.master_seed, 0, _MASK64)
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "labels", tuple(self.labels))

    def child(self, *labels) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.labels + labels)

    def derive(self) -> int:
        state = _splitmix64(self.master_seed)
        for label in self.labels:
            state = _splitmix64(state ^ _label_word(label))
        return state

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.derive())


def gen_real_gaussian_matrix(m: int, n: int, seed: SeedSpec) -> np.ndarray:
    """m x n matrix of i.i.d. N(0, 1/m) entries."""
    m, n = _integer("m", m, 1), _integer("n", n, 1)
    return seed.rng().normal(0.0, 1.0 / math.sqrt(m), size=(m, n))


def gen_complex_gaussian_matrix(m: int, n: int, seed: SeedSpec) -> np.ndarray:
    """m x n matrix with independent real/imag parts N(0, 1/2), E|a_jk|^2 = 1."""
    m, n = _integer("m", m, 1), _integer("n", n, 1)
    rng = seed.rng()
    re = rng.standard_normal((m, n))
    im = rng.standard_normal((m, n))
    return (re + 1j * im) / math.sqrt(2.0)


def gen_bias_real(m: int, c: float = 1.0) -> np.ndarray:
    """Constant bias c * 1_m / sqrt(m); its subset-norm band is (c*sqrt(ceil(m/2)/m), c)."""
    c, m = _real("c", c, positive=True), _integer("m", m, 1)
    return np.full(m, c / math.sqrt(m))


def gen_bias_complex(m: int, seed: SeedSpec) -> np.ndarray:
    """Length-m vector of i.i.d. standard complex Gaussian entries (E|b_j|^2 = 1)."""
    m = _integer("m", m, 1)
    rng = seed.rng()
    return (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)


def gen_sparse_signal(n: int, k: int, field: str, seed: SeedSpec) -> np.ndarray:
    """Exactly k-sparse signal with support uniform over k-subsets and standard
    normal amplitudes (real, or complex with E|x_j|^2 = 1), none of them zero."""
    n, k = _integer("n", n, 1), _integer("k", k, 1, n)
    rng = seed.rng()
    support = rng.choice(n, size=k, replace=False)
    if field == REAL:
        vals = rng.standard_normal(k)
    elif field == COMPLEX:
        vals = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2.0)
    else:
        raise ValueError(f"unknown field {field!r}")
    vals[vals == 0.0] = 1.0
    x = np.zeros(n, dtype=vals.dtype)
    x[support] = vals
    return x


def gen_noise(m: int, epsilon_budget: float, seed: SeedSpec) -> np.ndarray:
    """Real noise vector drawn uniformly on the sphere ||w||_2 = epsilon_budget."""
    epsilon_budget, m = _real("epsilon_budget", epsilon_budget), _integer("m", m, 1)
    if epsilon_budget == 0.0:
        return np.zeros(m)
    rng = seed.rng()
    g = rng.standard_normal(m)
    nrm = np.linalg.norm(g)
    if nrm == 0.0:
        g = np.zeros(m)
        g[0] = 1.0
        nrm = 1.0
    return g * (epsilon_budget / nrm)


def normalize_bias(field: str, bias, m: int) -> dict:
    """Canonical bias spec for ``m`` measurements, checked against the field.

    The one owner of the bias default and its spelling.  None picks the
    field default (constant c=1 for real, standard complex Gaussian for
    complex) and a number c means the constant spec, whose c is finite,
    stored as a float and, on the real field, positive; a bool is refused as
    either.  ``complex_gaussian`` needs a complex field, and a ``vector``
    spec's values (see ``model.array_to_json``) m finite entries, real ones
    on the real field.  A canonical spec comes back unchanged.
    """
    if bias is None:
        return {"kind": "constant", "c": 1.0} if field == REAL else {"kind": "complex_gaussian"}
    if isinstance(bias, (int, float)) and not isinstance(bias, bool):
        bias = {"kind": "constant", "c": bias}
    if not isinstance(bias, dict) or "kind" not in bias:
        raise ValueError(f"unsupported bias spec {bias!r}")
    kind = bias["kind"]
    if kind == "constant":
        c = bias.get("c")
        if isinstance(c, bool) or not (isinstance(c, numbers.Real) and math.isfinite(c)):
            raise ValueError("constant bias needs a finite number 'c'")
        if field == REAL and c <= 0:
            raise ValueError("constant bias on the real field needs a positive 'c'")
        return {"kind": "constant", "c": float(c)}
    if kind == "vector":
        values = _checked("bias vector", array_from_json(bias["values"]), (m,))
        if field == REAL and np.iscomplexobj(values):
            raise ValueError("a complex bias vector requires a complex ensemble")
        return {"kind": "vector", "values": bias["values"]}
    if kind == "complex_gaussian":
        if field == REAL:
            raise ValueError("complex_gaussian bias requires a complex ensemble")
        return {"kind": "complex_gaussian"}
    raise ValueError(f"unsupported bias kind {kind!r}")


def _make_bias(field: str, m: int, bias: dict, seed: SeedSpec):
    kind = bias["kind"]
    if kind == "vector":
        return array_from_json(bias["values"])
    if kind == "constant":
        if field == REAL:
            return gen_bias_real(m, bias["c"])
        return np.full(m, complex(bias["c"]) / math.sqrt(m))
    return gen_bias_complex(m, seed.child("bias"))


def make_ensemble(field: str, m: int, n: int, seed: SeedSpec, bias=None) -> MeasurementEnsemble:
    """Fresh measurement ensemble with self-describing seed metadata."""
    if field == REAL:
        A = gen_real_gaussian_matrix(m, n, seed.child("A"))
    elif field == COMPLEX:
        A = gen_complex_gaussian_matrix(m, n, seed.child("A"))
    else:
        raise ValueError(f"unknown field {field!r}")
    bias = normalize_bias(field, bias, m)
    b = _make_bias(field, m, bias, seed)
    meta = {
        "generator": "affinepr.ensemble.v1",
        "field": field,
        "m": m,
        "n": n,
        "master_seed": seed.master_seed,
        "labels": list(seed.labels),
        "bias": bias,
    }
    return MeasurementEnsemble(field=field, A=A, b=b, seed_meta=meta)


def make_instance(
    field: str,
    n: int,
    k: int,
    m: int,
    seed: SeedSpec,
    bias=None,
    epsilon: float = 0.0,
    with_intensity: bool = False,
) -> ProblemInstance:
    """Generate a full problem instance; regenerable from its seed_meta."""
    ens = make_ensemble(field, m, n, seed, bias=bias)
    x0 = gen_sparse_signal(n, k, field, seed.child("x0"))
    w = gen_noise(m, epsilon, seed.child("w"))
    y = forward_model(ens, x0, w)
    ytilde = lifted_intensity(ens, x0) + w if with_intensity else None
    # The ensemble is this call's own, so its metadata becomes the instance's.
    ens.seed_meta.update(
        {
            "generator": "affinepr.instance.v1",
            "k": k,
            "epsilon": float(epsilon),
            "with_intensity": bool(with_intensity),
            **_MODELS,
        }
    )
    return ProblemInstance(ensemble=ens, x0=x0, w=w, y=y, k=k, ytilde=ytilde)


def regenerate_instance(seed_meta: dict) -> ProblemInstance:
    """Rebuild a ProblemInstance from instance seed metadata alone."""
    if seed_meta.get("generator") != "affinepr.instance.v1":
        raise ValueError("seed_meta does not describe a generated instance")
    if any(seed_meta.get(key) != name for key, name in _MODELS.items()):
        raise ValueError(f"seed_meta names models other than the ones drawn here, {_MODELS}")
    seed = SeedSpec(seed_meta["master_seed"], tuple(seed_meta["labels"]))
    return make_instance(
        field=seed_meta["field"],
        n=seed_meta["n"],
        k=seed_meta["k"],
        m=seed_meta["m"],
        seed=seed,
        bias=seed_meta["bias"],
        epsilon=seed_meta["epsilon"],
        with_intensity=seed_meta["with_intensity"],
    )
