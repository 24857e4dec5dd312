"""Coupling parameters, phase-space domains and the three coordinate charts.

The model pair is parametrized by (mu, nu, kappa) with mu > 0 and
nu > |kappa| >= 0.  The equivalent Sutherland couplings are

    gamma  = mu**2,
    gamma1 = nu*kappa/2,
    gamma2 = (nu - kappa)**2 / 2,

which automatically satisfy gamma > 0, gamma2 > 0, 4*gamma1 + gamma2 > 0.
Three charts are used throughout:

* Sutherland chart (q, p):  pi/2 > q_1 > ... > q_n > 0, p in R^n.
* Dual angle chart (lambda, theta):  lambda in the thick-walled chamber
  lambda_a - lambda_{a+1} > 2*mu, lambda_n > nu, theta in T^n.
* Oscillator chart z in C^n, the global chart; the angle chart covers the
  open dense part where every z_k != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateChartError, DegenerateTorusError, DomainError,
                     ParameterError)

TWO_PI = 2.0 * math.pi

#: default tolerance band around the domain-defining inequalities and the
#: resonance hyperplanes of the strong-regularity gate
DOMAIN_MARGIN = 1e-9


def _as_real_vector(x, name):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d real vector")
    return v


def require_finite(v, name):
    """Raise DomainError naming the first entry of the vector ``v`` (called
    ``name``, entries name1, name2, ...) that is NaN or infinite."""
    values = np.asarray(v, dtype=float).tolist()
    if math.isfinite(sum(values)):  # never, if an entry is NaN or infinite
        return
    for i, x in enumerate(values):
        if not math.isfinite(x):
            raise DomainError(f"{name} must be finite, got {name}{i + 1} = {x!r}")


def canonical_angle(theta):
    """Map angles to the canonical representative in [0, 2*pi)."""
    t = np.asarray(theta, dtype=float) % TWO_PI
    # renormalize values that round up to 2*pi
    return np.where(t >= TWO_PI, 0.0, t)


@dataclass(frozen=True)
class CouplingParams:
    """Validated coupling constants and particle number.

    Construct via :func:`couplings_from_rsvd` or :func:`couplings_from_sutherland`;
    the constructor itself enforces mu > 0 and nu > |kappa| >= 0.
    """

    n: int
    mu: float
    nu: float
    kappa: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not self.mu > 0:
            raise ParameterError(f"constraint mu > 0 violated: mu = {self.mu}")
        if not self.nu > abs(self.kappa):
            raise ParameterError(
                f"constraint nu > |kappa| >= 0 violated: nu = {self.nu}, kappa = {self.kappa}"
            )

    @property
    def N(self) -> int:
        return 2 * self.n

    @property
    def kappa_sq(self) -> float:
        """kappa**2, rounded as Python's float power rounds it (``CouplingRows`` per row)."""
        return self.kappa**2

    @property
    def gamma(self) -> float:
        return self.mu**2

    @property
    def gamma1(self) -> float:
        return self.nu * self.kappa / 2.0

    @property
    def gamma2(self) -> float:
        return (self.nu - self.kappa) ** 2 / 2.0

    def to_dict(self):
        return {"n": int(self.n), "mu": self.mu, "nu": self.nu, "kappa": self.kappa}

    @classmethod
    def from_dict(cls, d):
        return cls(n=int(d["n"]), mu=float(d["mu"]), nu=float(d["nu"]), kappa=float(d["kappa"]))


def couplings_from_rsvd(mu, nu, kappa, n) -> CouplingParams:
    """Build parameters from the dual-side triple (mu, nu, kappa)."""
    return CouplingParams(n=n, mu=float(mu), nu=float(nu), kappa=float(kappa))


def couplings_from_sutherland(gamma, gamma1, gamma2, n) -> CouplingParams:
    """Invert (gamma, gamma1, gamma2) -> (mu, nu, kappa).

    The root with nu > |kappa| >= 0 is selected:  mu = sqrt(gamma),
    nu - kappa = sqrt(2*gamma2) and nu + kappa = sqrt(2*(4*gamma1 + gamma2)).
    """
    if not gamma > 0:
        raise ParameterError(f"constraint gamma > 0 violated: gamma = {gamma}")
    if not gamma2 > 0:
        raise ParameterError(f"constraint gamma2 > 0 violated: gamma2 = {gamma2}")
    if not 4 * gamma1 + gamma2 > 0:
        raise ParameterError(
            f"constraint 4*gamma1 + gamma2 > 0 violated: got {4 * gamma1 + gamma2}"
        )
    mu = math.sqrt(gamma)
    diff = math.sqrt(2.0 * gamma2)
    total = math.sqrt(2.0 * (4.0 * gamma1 + gamma2))
    nu = (total + diff) / 2.0
    kappa = (total - diff) / 2.0
    return CouplingParams(n=n, mu=mu, nu=nu, kappa=kappa)


class CouplingRows:
    """The couplings of a stack of points (B, n), one validated triple per row.

    ``mu``, ``nu``, ``kappa`` and ``kappa_sq`` are arrays (B, 1), so they broadcast
    against positions (B, n): a stack kernel reads them where it reads the floats of
    a :class:`CouplingParams`, and each row gets the bits its own triple gives.
    """

    def __init__(self, rows):
        self.rows = tuple(rows)
        self.n = self.rows[0].n
        self.mu, self.nu, self.kappa, self.kappa_sq = (
            np.array([[getattr(r, key)] for r in self.rows])
            for key in ("mu", "nu", "kappa", "kappa_sq"))


def row_params(params, bad) -> CouplingParams:
    """The couplings of the first row of a stack where the mask ``bad`` holds:
    ``params`` itself unless it is a :class:`CouplingRows`."""
    if isinstance(params, CouplingRows):
        return params.rows[int(np.flatnonzero(bad)[0])]
    return params


def _freeze(arr):
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SutherlandPoint:
    """Point (q, p) of the Sutherland chart. Arrays are stored read-only.

    A non-finite momentum raises DomainError; a non-finite q is left to the
    chamber check, which counts it as outside.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = _freeze(_as_real_vector(self.q, "q").copy())
        p = _freeze(_as_real_vector(self.p, "p").copy())
        require_finite(p, "p")
        if q.shape != p.shape:
            raise ValueError(f"q and p must have equal length, got {q.size} and {p.size}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.q.size

    def to_dict(self):
        return {"q": self.q.tolist(), "p": self.p.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(q=np.asarray(d["q"], float), p=np.asarray(d["p"], float))


@dataclass(frozen=True, eq=False)
class DualPoint:
    """Point (lambda, theta) of the dual angle chart.

    Angles are stored as their canonical representative in [0, 2*pi); a
    non-finite angle raises DomainError, a non-finite lambda is left to the
    chamber check, which counts it as outside.
    """

    lam: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        lam = _freeze(_as_real_vector(self.lam, "lambda").copy())
        theta = _as_real_vector(self.theta, "theta")
        require_finite(theta, "theta")
        theta = _freeze(canonical_angle(theta))
        if lam.shape != theta.shape:
            raise ValueError(
                f"lambda and theta must have equal length, got {lam.size} and {theta.size}"
            )
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "theta", theta)

    @property
    def n(self) -> int:
        return self.lam.size

    def to_dict(self):
        return {"lambda": self.lam.tolist(), "theta": self.theta.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(lam=np.asarray(d["lambda"], float), theta=np.asarray(d["theta"], float))


@dataclass(frozen=True, eq=False)
class OscillatorPoint:
    """Point z in C^n of the global oscillator chart. Any z is valid."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.ndim != 1 or z.size == 0:
            raise ValueError("z must be a nonempty 1-d complex vector")
        object.__setattr__(self, "z", _freeze(z.copy()))

    @property
    def n(self) -> int:
        return self.z.size

    def to_dict(self):
        return {"z": [[float(w.real), float(w.imag)] for w in self.z]}

    @classmethod
    def from_dict(cls, d):
        z = np.array([complex(re, im) for re, im in d["z"]])
        return cls(z=z)


def chart_slacks(pos: list, chart: str, params: CouplingParams) -> list:
    """The slacks of the chamber inequalities at positions given as a list of
    floats: pi/2 - q_1, q_a - q_(a+1), q_n for chart "qp" (``pos`` is q), and
    lambda_a - lambda_(a+1) - 2*mu, lambda_n - nu for chart "lambda_theta"
    (``pos`` is lambda; the wall is at nu since nu > |kappa|).  A move of h
    in one position moves each slack by at most h."""
    if chart == "qp":
        slacks = [math.pi / 2 - pos[0]] + [a - b for a, b in zip(pos, pos[1:])]
        slacks.append(pos[-1])
    else:
        slacks = [a - b - 2 * params.mu for a, b in zip(pos, pos[1:])]
        slacks.append(pos[-1] - params.nu)
    return slacks


def chart_membership(pos: list, chart: str, params: CouplingParams,
                     margin: float = DOMAIN_MARGIN) -> str:
    """:func:`domain_membership` on positions given as a list of floats, from
    the slacks of :func:`chart_slacks`.  A slack that is NaN or infinite
    counts as outside.  Plain float arithmetic, so hot loops need build no
    point.
    """
    status = "inside"
    for s in chart_slacks(pos, chart, params):
        if not -margin <= s < math.inf:  # below the band, or not finite
            return "outside"
        if not s > margin:
            status = "boundary"
    return status


def domain_membership(point, params: CouplingParams, margin: float = DOMAIN_MARGIN) -> str:
    """Classify a point as 'inside' / 'boundary' / 'outside' its chart domain.

    'inside' means every defining inequality holds with slack > margin,
    'boundary' that some slack falls within +-margin of zero.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if isinstance(point, SutherlandPoint):
        return chart_membership(point.q.tolist(), "qp", params, margin)
    if isinstance(point, DualPoint):
        return chart_membership(point.lam.tolist(), "lambda_theta", params, margin)
    raise TypeError("domain_membership expects a SutherlandPoint or DualPoint")


def require_inside(pos: list, chart: str, params: CouplingParams):
    """Raise DomainError, naming the failing inequality, unless the positions
    ``pos`` (as for :func:`chart_membership`) are inside their chart with
    slack > DOMAIN_MARGIN.  An action vector on the chamber wall raises the
    subclass DegenerateTorusError: the angle chart is undefined there."""
    status = chart_membership(pos, chart, params)
    if status == "inside":
        return
    error = DomainError
    if chart == "qp":
        rule, name = "q must satisfy pi/2 > q1 > ... > qn > 0", "q"
    else:
        rule, name = ("lambda must satisfy lambda_a - lambda_(a+1) > 2*mu and "
                      "lambda_n > nu"), "lambda"
        if status == "boundary":
            error = DegenerateTorusError
    raise error(f"{rule} with slack > {DOMAIN_MARGIN}; "
                f"point is {status} ({name} = {pos})")


def _slack_rows(pos, chart: str, params: CouplingParams) -> np.ndarray:
    """:func:`chart_slacks` over a stack (..., n) of positions, bit for bit per row;
    ``params`` may hold one coupling triple per row (:class:`CouplingRows`)."""
    gaps = pos[..., :-1] - pos[..., 1:]
    if chart == "qp":
        return np.concatenate((math.pi / 2 - pos[..., :1], gaps, pos[..., -1:]), -1)
    return np.concatenate((gaps - 2 * params.mu, pos[..., -1:] - params.nu), -1)


def _outside_rows(slack, margin: float = DOMAIN_MARGIN) -> np.ndarray:
    """The rows of a stack of chamber slacks (..., m) that are not inside
    within ``margin``: some slack at most the margin, or not finite."""
    return ~np.all((slack > margin) & (slack < math.inf), axis=-1)


def _inside_slack_rows(pos, chart: str, params: CouplingParams) -> np.ndarray:
    """:func:`_slack_rows`, each row checked: the first not inside raises its DomainError."""
    slack = _slack_rows(pos, chart, params)
    if not (slack.min() > DOMAIN_MARGIN and slack.max() < math.inf):
        bad = _outside_rows(slack)
        require_inside(pos[bad][0].tolist(), chart, row_params(params, bad))
    return slack


def require_inside_rows(lam, params: CouplingParams):
    """:func:`require_inside` on every row of a stack (..., n) of lambda vectors
    in one numpy pass; the first row that is not inside raises its error."""
    _inside_slack_rows(np.asarray(lam, dtype=float), "lambda_theta", params)


def strongly_regular(lam, params: CouplingParams, margin: float = DOMAIN_MARGIN) -> bool:
    """True iff lambda avoids every resonance hyperplane with slack > margin.

    Checks lambda_1 > ... > lambda_n > |kappa|, then |lambda_a +- lambda_b| != 2*mu
    for all pairs (including a == b for the sum) and
    (lambda_a - nu)(lambda_a - |2*mu - nu|) != 0.
    """
    lam = _as_real_vector(lam, "lambda")
    mu, nu, kappa = params.mu, params.nu, params.kappa
    if np.any(lam[:-1] - lam[1:] <= margin):
        return False
    if lam[-1] - abs(kappa) <= margin:
        return False
    diff = np.abs(lam[:, None] - lam[None, :])
    off = ~np.eye(lam.size, dtype=bool)
    if np.any(np.abs(diff[off] - 2 * mu) <= margin):
        return False
    total = lam[:, None] + lam[None, :]
    if np.any(np.abs(total - 2 * mu) <= margin):
        return False
    if np.any(np.abs(lam - nu) <= margin):
        return False
    if np.any(np.abs(lam - abs(2 * mu - nu)) <= margin):
        return False
    return True


def lambda_of_z(z, params: CouplingParams):
    """Positions lambda_k(z) = nu + 2*(n-k)*mu + sum_{j>=k} |z_j|^2 (k = 1..n).

    Smooth on all of C^n; the image is the closure of the dual chamber.
    """
    sq = (np.abs(np.asarray(z, dtype=complex)) ** 2).tolist()
    n = len(sq)
    lam, tail = [0.0] * n, 0.0
    for k in range(n - 1, -1, -1):  # the tail sums, accumulated from the end
        tail += sq[k]
        lam[k] = params.nu + 2.0 * (n - 1 - k) * params.mu + tail
    return np.array(lam)


def z_from_angles(dual: DualPoint, params: CouplingParams) -> OscillatorPoint:
    """Oscillator coordinates of an interior angle-chart point.

    z_j = sqrt(lambda_j - lambda_{j+1} - 2*mu) * prod_{a<=j} e^{i*theta_a} for
    j < n and z_n = sqrt(lambda_n - nu) * prod_{a<=n} e^{i*theta_a}.
    """
    return OscillatorPoint(z=z_from_angle_rows(dual.lam, dual.theta, params))


def z_from_angle_rows(lam, theta, params: CouplingParams) -> np.ndarray:
    """:func:`z_from_angles` over a stack (..., n) of positions and angles in
    one numpy pass, each row's z the bits that point alone gives when its
    angles are canonical (:func:`canonical_angle`).  The chamber slacks are
    computed once, checked and read as |z|^2 (:func:`_inside_slack_rows`)."""
    slack = _inside_slack_rows(np.asarray(lam, dtype=float), "lambda_theta", params)
    return np.sqrt(slack) * np.exp(1j * np.cumsum(theta, axis=-1))


def angles_from_z(osc: OscillatorPoint, params: CouplingParams) -> DualPoint:
    """Invert :func:`z_from_angles`; defined only where every z_k != 0."""
    z = osc.z
    if np.any(np.abs(z) == 0.0):
        raise DegenerateChartError(
            "degenerate chart: some z_k = 0, angles are undefined there"
        )
    lam = lambda_of_z(z, params)
    psi = np.angle(z)
    theta = np.empty_like(psi)
    theta[0] = psi[0]
    theta[1:] = psi[1:] - psi[:-1]
    return DualPoint(lam=lam, theta=canonical_angle(theta))
