"""Parameter records for one- and two-sided tempered stable laws.

A one-sided law is determined by an intensity ``alpha > 0``, a stability
index ``beta in [0, 1)`` and a tempering rate ``lam > 0``; its jump
density is ``alpha * x**(-1-beta) * exp(-lam*x)`` on the positive axis.
A two-sided law glues together an upward leg and an independent downward
leg.  ``beta = 0`` is the Gamma boundary case and is handled exactly by
its own logarithmic branch throughout the library, never as a numerical
limit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError


@dataclass(frozen=True)
class OneSidedParams:
    """Parameters of a one-sided (subordinator) law."""

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf):
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0.0 <= self.beta < 1.0):
            raise DomainError(
                f"beta must lie in [0, 1), got {self.beta}; "
                "infinite-variation parameterizations are not supported"
            )
        if not (0.0 < self.lam < math.inf):
            raise DomainError(f"lambda must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class TemperedStableParams:
    """Two-sided law: independent upward (``plus``) and downward (``minus``) legs."""

    plus: OneSidedParams
    minus: OneSidedParams

    @classmethod
    def create(cls, alpha_plus, beta_plus, lambda_plus,
               alpha_minus, beta_minus, lambda_minus) -> "TemperedStableParams":
        return cls(OneSidedParams(alpha_plus, beta_plus, lambda_plus),
                   OneSidedParams(alpha_minus, beta_minus, lambda_minus))

    def as_tuple(self) -> tuple:
        p, m = self.plus, self.minus
        return (p.alpha, p.beta, p.lam, m.alpha, m.beta, m.lam)


@dataclass(frozen=True)
class MomentStats:
    """First four moment descriptors.  Kurtosis exceeds the normal 3 for
    every law, but near the normal limit it can round to exactly 3."""

    mean: float
    variance: float
    skewness: float
    kurtosis: float


@dataclass(frozen=True)
class CumulantVector:
    """First six cumulants of a law (population values)."""

    kappa: tuple

    def __post_init__(self):
        if len(self.kappa) != 6:
            raise DomainError("expected exactly 6 cumulants")


_TWO_SIDED_KEYS = ("alpha_plus", "beta_plus", "lambda_plus",
                   "alpha_minus", "beta_minus", "lambda_minus")
_ONE_SIDED_KEYS = ("alpha", "beta", "lambda")


def params_to_dict(p) -> dict:
    """JSON-ready dict for either parameter record."""
    if isinstance(p, TemperedStableParams):
        return dict(zip(_TWO_SIDED_KEYS, p.as_tuple()))
    if isinstance(p, OneSidedParams):
        return {"alpha": p.alpha, "beta": p.beta, "lambda": p.lam}
    raise DomainError(f"unsupported parameter object {type(p).__name__}")


def params_from_dict(d: dict):
    """Build a parameter record from a dict, validating all invariants.

    Two-sided files carry the six ``*_plus`` / ``*_minus`` keys; one-sided
    files carry ``alpha``, ``beta``, ``lambda``.
    """
    for keys, build in ((_TWO_SIDED_KEYS, TemperedStableParams.create),
                        (_ONE_SIDED_KEYS, OneSidedParams)):
        if all(k in d for k in keys):
            vals = []
            for k in keys:
                v = d[k]
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise DomainError(f"parameter {k} must be a number, got {v!r}")
                vals.append(float(v))
            return build(*vals)
    raise DomainError(
        "parameter file must provide alpha_plus..lambda_minus (two-sided) "
        "or alpha/beta/lambda (one-sided)"
    )


def load_params(path) -> "TemperedStableParams | OneSidedParams":
    """Load and validate a parameter file (JSON)."""
    try:
        with open(Path(path)) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read parameter file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError("parameter file must hold a JSON object")
    return params_from_dict(data)


def save_params(p, path) -> None:
    with open(Path(path), "w") as fh:
        json.dump(params_to_dict(p), fh, indent=2)
        fh.write("\n")
