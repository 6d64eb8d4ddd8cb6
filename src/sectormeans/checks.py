"""Catalog of machine-checkable inequalities and identities.

Every entry states a claim about matrices drawn from its hypothesis classes
("pd", "accretive", "sectorial") and evaluates to a slack margin: the claim
holds on a sampled instance when margin >= -tol * scale.

Every claim is a list of terms (lhs, rhs).  In an inequality each term means
lhs <= rhs: in the Loewner order for matrices (margin lambda_min(rhs - lhs))
and as plain numbers for floats (margin rhs - lhs).  The claim's margin is
the smallest term margin, and a reversed or flipped claim swaps the sides of
every term.  In an identity each term means lhs = rhs between two matrices,
the claim's margin is minus the largest relative distance between the two
sides, and the claim is neither reversed nor flipped.

A side that depends on the sector angle is a function of it, so its term is
measured twice: once at the angle the generator was asked for (the primary,
pass/fail margin) and once at the instance's realized angle (a strictly
harder variant, reported as a secondary statistic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .linalg import (
    PreconditionError,
    imag_part,
    inverse,
    loewner_margin,
    op_norm,
    real_part,
)
from .maps import PositiveUnitalMap, apply_map
from .means import (
    _congruence,
    _eigen_power,
    _finite,
    _resolvent_mean,
    arithmetic_mean,
    harmonic_mean,
)
from .norms import numerical_radius, ui_norm
from .quadrature import MAX_NODES, require_node_count

__all__ = [
    "Check",
    "Instance",
    "TrialEval",
    "EvalContext",
    "catalog",
    "informational_catalog",
    "check_by_id",
    "SUITE_NAMES",
    "suite_ids",
    "suite_checks",
]

R01 = (0.0, 1.0)
R12 = (1.0, 2.0)
RNEG = (-1.0, 0.0)


@dataclass(frozen=True)
class EvalContext:
    """Evaluation knobs shared by all checks.

    nodes is the node budget of every quadrature route: each sizes its rule
    from the spectrum it integrates over and refuses with NodeBudgetError
    when that needs more.  The budget is refused here, where it enters,
    unless it is an integer in MIN_NODES..MAX_NODES, as the checks hand it
    to the trusted kernel `means._resolvent_mean`.
    """

    nodes: int = MAX_NODES

    def __post_init__(self) -> None:
        require_node_count(self.nodes)


@dataclass
class Instance:
    """One sampled test case, fully determined by its seed and trial index."""

    dim: int
    seed: int
    trial: int
    A: np.ndarray
    B: Optional[np.ndarray] = None
    r: Optional[float] = None
    alpha: float = 0.0
    alpha_realized: float = 0.0
    phi: Optional[PositiveUnitalMap] = None
    norm_kind: Optional[str] = None
    norm_k: Optional[int] = None
    aux: tuple[float, ...] = ()


@dataclass(frozen=True)
class TrialEval:
    margin: float
    scale: float
    margin_strict: float


Value = Union[np.ndarray, float]
Side = Union[Value, Callable[[float], Value]]
Term = tuple[Side, Side]
TermsOf = Callable[[Instance, EvalContext], list[Term]]


@dataclass(frozen=True)
class Check:
    """One catalog entry, its claim carried as data.

    `terms` gives the claim's terms (lhs, rhs) on an instance, and
    `is_identity` says whether each term states lhs <= rhs or lhs = rhs.
    An inequality's `reverse` states each term with its sides swapped.
    `evaluate` measures either kind.
    """

    id: str
    name: str
    anchor: str
    args: tuple[str, ...]
    terms: TermsOf
    r_intervals: tuple[tuple[float, float], ...] = ()
    uses_map: bool = False
    uses_norm: bool = False
    informational: bool = False
    n_aux_uniform: int = 0
    reverse: bool = False
    is_identity: bool = False

    def __post_init__(self) -> None:
        if self.reverse and self.is_identity:
            raise PreconditionError(f"identity check {self.id} cannot be reversed")
        if not all(c in ("pd", "accretive", "sectorial") for c in self.args):
            raise PreconditionError(f"unknown argument class in {self.args}")
        for lo, hi in self.r_intervals:
            if not (-1.0 <= lo < hi <= 2.0):
                raise PreconditionError(f"r interval {(lo, hi)} out of the admissible range")

    @property
    def kind(self) -> str:
        """Read only by `perfbench/`; it goes with ROADMAP item 2's benchmark change."""
        return "identity" if self.is_identity else "inequality"

    def evaluate(self, inst: Instance, ctx: EvalContext, flip: bool) -> TrialEval:
        """Measure the claim on one instance; flip swaps the sides of every term.

        An identity's margin is minus the largest relative distance between
        the sides of a term, at scale 1.  An inequality's scale is the
        largest term scale.  At the realized angle only the terms with an
        angle-dependent side are measured again, and for their margin alone.
        """
        if self.is_identity and flip:
            raise PreconditionError(f"direction flip is undefined for identity check {self.id}")
        terms = self.terms(inst, ctx)
        if self.is_identity:
            rel = max(_rel(lhs, rhs) for lhs, rhs in terms)
            return TrialEval(-rel, 1.0, -rel)
        if flip != self.reverse:
            terms = [(rhs, lhs) for lhs, rhs in terms]
        sides = _sides_at(terms, inst.alpha)
        margins = [_margin(lhs, rhs) for lhs, rhs in sides]
        margin = min(margins)
        strict = margin
        if inst.alpha_realized != inst.alpha:
            strict = min(
                _margin(*at) if callable(lhs) or callable(rhs) else m
                for (lhs, rhs), at, m in zip(terms, _sides_at(terms, inst.alpha_realized), margins)
            )
        return TrialEval(margin, _scale(sides), strict)


# ---------------------------------------------------------------------------
# helpers


def _rel(X: np.ndarray, Y: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(X)), float(np.linalg.norm(Y)), 1e-300)
    return float(np.linalg.norm(X - Y)) / denom


# The sampler's certificates vouch for the instances, so the checks run the
# kernels of `geometric_mean` and `principal_power` on them without their
# validation: the quadrature kernel `_resolvent_mean`, the congruence
# `_congruence` and the eigen power `_eigen_power`.  A pair
# (None, A) is the power A^r; a claim that compares two means at one order
# passes both pairs in one call, so they share one rule.
def _mean(A: np.ndarray, B: np.ndarray, r: float, ctx: EvalContext) -> np.ndarray:
    return _resolvent_mean([(A, B)], r, ctx.nodes)[0]


def _sec(alpha: float) -> float:
    return 1.0 / math.cos(alpha)


def _branch_cos_exponent(r: float) -> float:
    """Power of cos(alpha) lost by the congruence route: 2 * dist(r, [0,1]).

    The sandwich (Re A)^{-1} <= sec^2(alpha) Re(A^{-1}) enters the lower
    bounds once, scaled by the mean's homogeneity weight |r - 1| on the
    branch (1,2) and |r| on (-1,0); inside [0,1] no factor is needed.
    """
    return 2.0 * max(r - 1.0, -r, 0.0)


# ---------------------------------------------------------------------------
# claims: each term (lhs, rhs) states lhs <= rhs


def _sides_at(terms: list[Term], alpha: float) -> list[tuple[Value, Value]]:
    """Every term's sides at alpha; a side that terms share is evaluated once."""
    distinct = {id(side): side for term in terms for side in term}
    values = {key: side(alpha) if callable(side) else side for key, side in distinct.items()}
    return [(values[id(lhs)], values[id(rhs)]) for lhs, rhs in terms]


# A term with a matrix side is a Loewner term, where 0.0 is the zero matrix.
def _margin(lhs: Value, rhs: Value) -> float:
    if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
        return loewner_margin(lhs, rhs)
    return float(rhs - lhs)


def _scale(sides: list[tuple[Value, Value]]) -> float:
    """The largest size of a side, each distinct side measured once."""
    distinct = {id(s): s for side in sides for s in side}
    return max(op_norm(s) if isinstance(s, np.ndarray) else abs(s) for s in distinct.values())


def _inv_real_sandwich(inst: Instance, ctx: EvalContext) -> list[Term]:
    re_of_inv = real_part(inverse(inst.A))
    inv_of_re = inverse(real_part(inst.A))
    return [(re_of_inv, inv_of_re), (inv_of_re, lambda alpha: _sec(alpha) ** 2 * re_of_inv)]


def _harmonic_real_lower(inst: Instance, ctx: EvalContext) -> list[Term]:
    lhs = real_part(harmonic_mean(real_part(inst.A), real_part(inst.B), inst.r))
    return [(lhs, real_part(harmonic_mean(inst.A, inst.B, inst.r)))]


def _norm_sandwich(inst: Instance, ctx: EvalContext) -> list[Term]:
    n_full = ui_norm(inst.A, inst.norm_kind, inst.norm_k)
    n_real = ui_norm(real_part(inst.A), inst.norm_kind, inst.norm_k)
    return [(lambda alpha: math.cos(alpha) * n_full, n_real), (n_real, n_full)]


def _radius_geo_upper(inst: Instance, ctx: EvalContext) -> list[Term]:
    w_a = numerical_radius(inst.A)
    w_b = numerical_radius(inst.B)
    w_mean = numerical_radius(_mean(inst.A, inst.B, inst.r, ctx))
    r = inst.r
    return [(w_mean, lambda alpha: _sec(alpha) ** 3 * w_a ** (1.0 - r) * w_b**r)]


def _radius_inverse_lower(inst: Instance, ctx: EvalContext) -> list[Term]:
    w_a = numerical_radius(inst.A)
    w_inv = numerical_radius(inverse(inst.A))
    return [(lambda alpha: math.cos(alpha) ** 3 / w_a, w_inv)]


def _map_schwarz(inst: Instance, ctx: EvalContext) -> list[Term]:
    phi = inst.phi
    phi_a, phi_b = apply_map(phi, inst.A), apply_map(phi, inst.B)
    lhs = phi_b @ inverse(phi_a) @ phi_b
    return [(lhs, apply_map(phi, inst.B @ inverse(inst.A) @ inst.B))]


def _power_real(inst: Instance, ctx: EvalContext) -> list[Term]:
    """Re(A^r) <= (Re A)^r."""
    powers = _resolvent_mean([(None, inst.A), (None, real_part(inst.A))], inst.r, ctx.nodes)
    re_of_power, power_of_re = (real_part(M) for M in powers)
    return [(re_of_power, power_of_re)]


def _geo_real(inst: Instance, ctx: EvalContext) -> list[Term]:
    """Re(A #_r B) <= Re(A) #_r Re(B)."""
    pairs = [(inst.A, inst.B), (real_part(inst.A), real_part(inst.B))]
    means = _resolvent_mean(pairs, inst.r, ctx.nodes)
    mixed, hermitian = (real_part(M) for M in means)
    return [(mixed, hermitian)]


def _map_geo(inst: Instance, ctx: EvalContext) -> list[Term]:
    """Phi(A #_r B) <= Phi(A) #_r Phi(B)."""
    phi = inst.phi
    pairs = [(inst.A, inst.B), (apply_map(phi, inst.A), apply_map(phi, inst.B))]
    mean, mean_of_maps = _resolvent_mean(pairs, inst.r, ctx.nodes)
    return [(apply_map(phi, mean), mean_of_maps)]


def _geo_real_cos_lower(inst: Instance, ctx: EvalContext) -> list[Term]:
    [(mixed, hermitian)] = _geo_real(inst, ctx)
    expo = _branch_cos_exponent(inst.r)
    return [(lambda alpha: math.cos(alpha) ** expo * hermitian, mixed)]


def _geo_real_sec2_upper(inst: Instance, ctx: EvalContext) -> list[Term]:
    [(mixed, hermitian)] = _geo_real(inst, ctx)
    return [(mixed, lambda alpha: _sec(alpha) ** 2 * hermitian)]


def _nabla_cos_lower(inst: Instance, ctx: EvalContext) -> list[Term]:
    mixed = real_part(_mean(inst.A, inst.B, inst.r, ctx))
    nabla = real_part(arithmetic_mean(inst.A, inst.B, inst.r))
    expo = _branch_cos_exponent(inst.r)
    return [(lambda alpha: math.cos(alpha) ** expo * nabla, mixed)]


def _map_real_cos_lower(inst: Instance, ctx: EvalContext) -> list[Term]:
    mapped, mean_of_maps = (real_part(M) for M in _map_geo(inst, ctx)[0])
    expo = _branch_cos_exponent(inst.r)
    return [(lambda alpha: math.cos(alpha) ** expo * mean_of_maps, mapped)]


def _map_norm_cos_lower(inst: Instance, ctx: EvalContext) -> list[Term]:
    n_mapped, n_mean = (ui_norm(M, inst.norm_kind, inst.norm_k) for M in _map_geo(inst, ctx)[0])
    return [(lambda alpha: math.cos(alpha) ** 2 * n_mean, n_mapped)]


def _radius_cos6_lower(base: str, literal_negated_order: bool = False) -> TermsOf:
    def terms(inst: Instance, ctx: EvalContext) -> list[Term]:
        A, B, r = inst.A, inst.B, inst.r
        w_a, w_b = numerical_radius(A), numerical_radius(B)
        Minv = inverse(B if base == "B" else A)
        w_inv_sq = numerical_radius(Minv @ Minv)
        order = -r if literal_negated_order else r
        w_mean = numerical_radius(_mean(A, B, order, ctx))
        if base == "B":
            coeff = w_a ** (1.0 - r) * w_b ** (r - 2.0)
        else:
            coeff = w_a ** (-(r + 1.0)) * w_b**r
        return [(lambda alpha: math.cos(alpha) ** 6 * coeff / w_inv_sq, w_mean)]

    return terms


def _amgm_chain(inst: Instance, ctx: EvalContext) -> list[Term]:
    A, B, r = inst.A, inst.B, inst.r
    geo = _mean(A, B, r, ctx)
    return [(harmonic_mean(A, B, r), geo), (geo, arithmetic_mean(A, B, r))]


def _nabla_reverse(inst: Instance, ctx: EvalContext) -> list[Term]:
    return [(arithmetic_mean(inst.A, inst.B, inst.r), _mean(inst.A, inst.B, inst.r, ctx))]


def _sector_closure(inst: Instance, ctx: EvalContext) -> list[Term]:
    """A #_r B in S_alpha: M = A #_r B is accretive and +-Im M <= tan(alpha) Re M."""
    M = _mean(inst.A, inst.B, inst.r, ctx)
    R, S = real_part(M), imag_part(M)

    def cone(alpha: float) -> np.ndarray:
        return math.tan(alpha) * R

    return [(0.0, M), (S, cone), (-S, cone)]


# ---------------------------------------------------------------------------
# identities: each term (lhs, rhs) states lhs = rhs


def _reflection(inst: Instance, ctx: EvalContext) -> list[Term]:
    """A #_r B = B (A #_{2-r} B)^{-1} B for r in (1, 2)."""
    A, B, r = inst.A, inst.B, inst.r
    return [(B @ inverse(_congruence(A, B, 2.0 - r)) @ B, _congruence(A, B, r))]


def _negation(inst: Instance, ctx: EvalContext) -> list[Term]:
    """A #_r B = A (A^{-1} #_{-r} B^{-1}) A for r in (-1, 0)."""
    A, B, r = inst.A, inst.B, inst.r
    return [(A @ _congruence(inverse(A), inverse(B), -r) @ A, _congruence(A, B, r))]


def _inverse_mean(inst: Instance, ctx: EvalContext) -> list[Term]:
    """(A #_r B)^{-1} = A^{-1} #_r B^{-1}."""
    A, B, r = inst.A, inst.B, inst.r
    return [(inverse(_congruence(A, B, r)), _congruence(inverse(A), inverse(B), r))]


def _integral_vs_congruence(inst: Instance, ctx: EvalContext) -> list[Term]:
    return [(_mean(inst.A, inst.B, inst.r, ctx), _congruence(inst.A, inst.B, inst.r))]


def _quad_vs_eigen(inst: Instance, ctx: EvalContext) -> list[Term]:
    return [(
        _resolvent_mean([(None, inst.A)], inst.r, ctx.nodes)[0],
        _finite(_eigen_power(inst.A, inst.r)),
    )]


def _resolvent_split(inst: Instance, ctx: EvalContext) -> list[Term]:
    A = inst.A
    eye = np.eye(len(A), dtype=np.complex128)
    terms = []
    for s in inst.aux:
        resolvent = inverse(s * eye + (1.0 - s) * A)
        harm = harmonic_mean(eye, A, s)
        terms += [
            (A @ A @ resolvent, A / (1.0 - s) - (s / (1.0 - s)) * harm),
            (resolvent, eye / s - ((1.0 - s) / s) * harm),
        ]
    return terms


# ---------------------------------------------------------------------------
# the catalog


def _build_catalog() -> tuple[list[Check], list[Check]]:
    main = [
        Check(
            id="C01", name="inv-real-sandwich", args=("sectorial",), terms=_inv_real_sandwich,
            anchor="Re(inv(A)) <= inv(Re(A)) <= sec(alpha)^2*Re(inv(A)) for A in S_alpha",
        ),
        Check(
            id="C02", name="harmonic-real-lower",
            args=("accretive", "accretive"), r_intervals=(R01,), terms=_harmonic_real_lower,
            anchor="Re(A !_r B) >= Re(A) !_r Re(B) for accretive A, B and r in (0,1)",
        ),
        Check(
            id="C03", name="norm-sandwich", args=("sectorial",),
            uses_norm=True, terms=_norm_sandwich,
            anchor="cos(alpha)*|||A||| <= |||Re(A)||| <= |||A||| for A in S_alpha",
        ),
        Check(
            id="C04", name="radius-geo-upper",
            args=("sectorial", "sectorial"), r_intervals=(R01,), terms=_radius_geo_upper,
            anchor="w(A #_r B) <= sec(alpha)^3 * w(A)^(1-r) * w(B)^r for A, B in S_alpha, r in [0,1]",
        ),
        Check(
            id="C05", name="radius-inverse-lower", args=("sectorial",),
            terms=_radius_inverse_lower,
            anchor="w(inv(A)) >= cos(alpha)^3 / w(A) for A in S_alpha",
        ),
        Check(
            id="C06", name="map-schwarz", args=("pd", "pd"),
            uses_map=True, terms=_map_schwarz,
            anchor="Phi(B) inv(Phi(A)) Phi(B) <= Phi(B inv(A) B) for A, B > 0",
        ),
        Check(
            id="C07", name="power-real-upper-12", args=("accretive",),
            r_intervals=(R12,), terms=_power_real,
            anchor="Re(A^r) <= (Re A)^r for accretive A, r in (1,2)",
        ),
        Check(
            id="C08", name="power-real-lower-01", args=("accretive",),
            r_intervals=(R01,), terms=_power_real, reverse=True,
            anchor="Re(A^r) >= (Re A)^r for accretive A, r in [0,1]",
        ),
        Check(
            id="C09", name="geo-real-upper-12",
            args=("accretive", "accretive"), r_intervals=(R12,), terms=_geo_real,
            anchor="Re(A #_r B) <= Re(A) #_r Re(B) for accretive A, B, r in (1,2)",
        ),
        Check(
            id="C10", name="map-geo-reverse-12-pd", args=("pd", "pd"),
            r_intervals=(R12,), uses_map=True, terms=_map_geo, reverse=True,
            anchor="Phi(A #_r B) >= Phi(A) #_r Phi(B) for A, B > 0, r in (1,2)",
        ),
        Check(
            id="C11", name="sector-closure-12",
            args=("sectorial", "pd"), r_intervals=(R12,), terms=_sector_closure,
            anchor="A #_r B in S_alpha for A in S_alpha, B > 0, r in (1,2)",
        ),
        Check(
            id="C12", name="geo-real-lower-12",
            args=("sectorial", "pd"), r_intervals=(R12,), terms=_geo_real_cos_lower,
            anchor="cos(alpha)^(2r-2)*(Re(A) #_r Re(B)) <= Re(A #_r B) for A in S_alpha, B > 0, r in (1,2)",
        ),
        Check(
            id="C13", name="nabla-lower-12",
            args=("sectorial", "pd"), r_intervals=(R12,), terms=_nabla_cos_lower,
            anchor="cos(alpha)^(2r-2)*Re((1-r)A + rB) <= Re(A #_r B) for A in S_alpha, B > 0, r in (1,2)",
        ),
        Check(
            id="C14", name="map-real-lower-12",
            args=("sectorial", "pd"), r_intervals=(R12,), uses_map=True, terms=_map_real_cos_lower,
            anchor="cos(alpha)^(2r-2)*Re(Phi(A) #_r Phi(B)) <= Re(Phi(A #_r B)) for A in S_alpha, B > 0, r in (1,2)",
        ),
        Check(
            id="C15", name="map-norm-lower-12",
            args=("sectorial", "pd"), r_intervals=(R12,), uses_map=True, uses_norm=True,
            terms=_map_norm_cos_lower,
            anchor="cos(alpha)^2*|||Phi(A) #_r Phi(B)||| <= |||Phi(A #_r B)||| for A in S_alpha, B > 0, r in (1,2)",
        ),
        Check(
            id="C16", name="radius-lower-12",
            args=("sectorial", "pd"), r_intervals=(R12,), terms=_radius_cos6_lower("B"),
            anchor="w(A #_r B) >= cos(alpha)^6 * w(A)^(1-r) * w(B)^(r-2) / w(inv(B)^2) for A in S_alpha, B > 0, r in (1,2)",
        ),
        Check(
            id="C17", name="geo-real-upper-neg",
            args=("accretive", "accretive"), r_intervals=(RNEG,), terms=_geo_real,
            anchor="Re(A #_r B) <= Re(A) #_r Re(B) for accretive A, B, r in (-1,0)",
        ),
        Check(
            id="C18", name="sector-closure-neg",
            args=("pd", "sectorial"), r_intervals=(RNEG,), terms=_sector_closure,
            anchor="A #_r B in S_alpha for A > 0, B in S_alpha, r in (-1,0)",
        ),
        Check(
            id="C19", name="geo-real-lower-neg",
            args=("pd", "sectorial"), r_intervals=(RNEG,), terms=_geo_real_cos_lower,
            anchor="cos(alpha)^(-2r)*(Re(A) #_r Re(B)) <= Re(A #_r B) for A > 0, B in S_alpha, r in (-1,0)",
        ),
        Check(
            id="C20", name="nabla-lower-neg",
            args=("pd", "sectorial"), r_intervals=(RNEG,), terms=_nabla_cos_lower,
            anchor="cos(alpha)^(-2r)*Re((1-r)A + rB) <= Re(A #_r B) for A > 0, B in S_alpha, r in (-1,0)",
        ),
        Check(
            id="C21", name="map-real-lower-neg",
            args=("pd", "sectorial"), r_intervals=(RNEG,), uses_map=True,
            terms=_map_real_cos_lower,
            anchor="cos(alpha)^(-2r)*Re(Phi(A) #_r Phi(B)) <= Re(Phi(A #_r B)) for A > 0, B in S_alpha, r in (-1,0)",
        ),
        Check(
            id="C22", name="map-norm-lower-neg",
            args=("pd", "sectorial"), r_intervals=(RNEG,), uses_map=True, uses_norm=True,
            terms=_map_norm_cos_lower,
            anchor="cos(alpha)^2*|||Phi(A) #_r Phi(B)||| <= |||Phi(A #_r B)||| for A > 0, B in S_alpha, r in (-1,0)",
        ),
        Check(
            id="C23", name="radius-lower-neg",
            args=("pd", "sectorial"), r_intervals=(RNEG,), terms=_radius_cos6_lower("A"),
            anchor="w(A #_r B) >= cos(alpha)^6 * w(A)^(-(r+1)) * w(B)^r / w(inv(A)^2) for A > 0, B in S_alpha, r in (-1,0)",
        ),
        Check(
            id="C24", name="amgm-chain-01", args=("pd", "pd"),
            r_intervals=(R01,), terms=_amgm_chain,
            anchor="A !_r B <= A #_r B <= (1-r)A + rB for A, B > 0, r in [0,1]",
        ),
        Check(
            id="C25", name="nabla-reverse-pd", args=("pd", "pd"),
            r_intervals=(R12, RNEG), terms=_nabla_reverse,
            anchor="(1-r)A + rB <= A #_r B for A, B > 0, r in (1,2) or r in (-1,0)",
        ),
        Check(
            id="C26", name="map-geo-forward-01-pd", args=("pd", "pd"),
            r_intervals=(R01,), uses_map=True, terms=_map_geo,
            anchor="Phi(A #_r B) <= Phi(A) #_r Phi(B) for A, B > 0, r in [0,1]",
        ),
        Check(
            id="C27", name="map-geo-reverse-neg-pd", args=("pd", "pd"),
            r_intervals=(RNEG,), uses_map=True, terms=_map_geo, reverse=True,
            anchor="Phi(A #_r B) >= Phi(A) #_r Phi(B) for A, B > 0, r in (-1,0)",
        ),
        Check(
            id="C28", name="geo-real-lower-01",
            args=("accretive", "accretive"), r_intervals=(R01,), terms=_geo_real, reverse=True,
            anchor="Re(A #_r B) >= Re(A) #_r Re(B) for accretive A, B, r in (0,1)",
        ),
        Check(
            id="C29", name="geo-real-sec2-upper-01",
            args=("sectorial", "sectorial"), r_intervals=(R01,), terms=_geo_real_sec2_upper,
            anchor="Re(A #_r B) <= sec(alpha)^2*(Re(A) #_r Re(B)) for A, B in S_alpha, r in [0,1]",
        ),
        Check(
            id="I01", name="reflection-identity",
            args=("accretive", "accretive"), r_intervals=(R12,), terms=_reflection,
            is_identity=True,
            anchor="A #_r B = B inv(A #_(2-r) B) B for accretive A, B, r in (1,2)",
        ),
        Check(
            id="I02", name="negation-identity",
            args=("accretive", "accretive"), r_intervals=(RNEG,), terms=_negation,
            is_identity=True,
            anchor="A #_r B = A (inv(A) #_(-r) inv(B)) A for accretive A, B, r in (-1,0)",
        ),
        Check(
            id="I03", name="inverse-mean-identity",
            args=("accretive", "accretive"), r_intervals=(R01, R12, RNEG), terms=_inverse_mean,
            is_identity=True,
            anchor="inv(A #_r B) = inv(A) #_r inv(B) for accretive A, B on every branch of r",
        ),
        Check(
            id="I04", name="integral-vs-congruence",
            args=("accretive", "accretive"), r_intervals=(R01, R12, RNEG),
            terms=_integral_vs_congruence, is_identity=True,
            anchor="integral form of A #_r B matches the congruence form on every branch of r",
        ),
        Check(
            id="I05", name="quad-vs-eigen",
            args=("accretive",), r_intervals=(R01, R12, RNEG), terms=_quad_vs_eigen,
            is_identity=True,
            anchor="quadrature power A^r matches eigendecomposition power on every branch of r",
        ),
        Check(
            id="I06", name="resolvent-split-identities",
            args=("accretive",), n_aux_uniform=10, terms=_resolvent_split,
            is_identity=True,
            anchor="A^2 inv(sI+(1-s)A) = A/(1-s) - s/(1-s)*(I !_s A) and inv(sI+(1-s)A) = I/s - (1-s)/s*(I !_s A)",
        ),
    ]
    informational = [
        Check(
            id="X23", name="radius-lower-neg-literal",
            args=("pd", "sectorial"), r_intervals=(RNEG,), informational=True,
            terms=_radius_cos6_lower("A", literal_negated_order=True),
            anchor="w(A #_(-r) B) >= cos(alpha)^6 * w(A)^(-(r+1)) * w(B)^r / w(inv(A)^2) for A > 0, B in S_alpha, r in (-1,0); statement-literal variant, no pass/fail weight",
        ),
    ]
    return main, informational


_MAIN, _INFORMATIONAL = _build_catalog()
_BY_ID = {c.id: c for c in _MAIN + _INFORMATIONAL}

SUITE_NAMES = ("all", "r01", "r12", "rneg", "identities")


def _branch_ids(interval: tuple[float, float]) -> tuple[str, ...]:
    """The inequalities of one r-branch; those without an interval go to r01."""
    return tuple(
        c.id for c in _MAIN
        if not c.is_identity
        and (interval in c.r_intervals or (interval == R01 and not c.r_intervals))
    )


_SUITE_IDS = {
    "r01": _branch_ids(R01),
    "r12": _branch_ids(R12),
    "rneg": _branch_ids(RNEG),
    "identities": tuple(c.id for c in _MAIN if c.is_identity),
    "all": tuple(c.id for c in _MAIN),
}


def catalog() -> list[Check]:
    """The full pass/fail catalog: 29 inequalities plus 6 identities."""
    return list(_MAIN)


def informational_catalog() -> list[Check]:
    """Extra margin-logging checks that carry no pass/fail weight."""
    return list(_INFORMATIONAL)


def check_by_id(check_id: str) -> Check:
    try:
        return _BY_ID[check_id]
    except KeyError:
        raise PreconditionError(
            f"unknown check id {check_id!r}; valid ids: {', '.join(sorted(_BY_ID))}"
        ) from None


def suite_ids(suite: str) -> tuple[str, ...]:
    if suite not in _SUITE_IDS:
        raise PreconditionError(
            f"unknown suite {suite!r}; valid suites: {', '.join(SUITE_NAMES)}"
        )
    return _SUITE_IDS[suite]


def suite_checks(suite: str) -> list[Check]:
    """The checks a suite runs, in report order.

    rneg and all also run the informational checks after their catalog
    entries; they are reported but never gate the outcome.
    """
    checks = [_BY_ID[i] for i in suite_ids(suite)]
    if suite in ("rneg", "all"):
        checks += _INFORMATIONAL
    return checks
