"""Parameter types, validation and micro-to-macro homogenization.

All quantities are stored in SI units (Pa, m, kg, s, rad/s).  The
``from_engineering`` constructors accept the mixed engineering units that
material tables for metamaterials are usually given in (MPa for moduli,
mm for the characteristic length) and convert on ingestion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

PA_PER_MPA = 1.0e6
M_PER_MM = 1.0e-3


class ModelKind(Enum):
    """The five isotropic enriched-continuum model variants.

    The variants differ only in the curvature (higher-gradient) term of the
    micro-distortion balance:

    * ``RELAXED_CURL``      -- curvature built from Curl P
    * ``RELAXED_DIV_CURL``  -- curvature built from Div P and Curl P
    * ``RELAXED_DIV``       -- curvature built from Div P only
    * ``MINDLIN_ERINGEN``   -- curvature built from the full gradient of P
    * ``INTERNAL_VARIABLE`` -- no curvature term at all (L_c is ignored)
    """

    RELAXED_CURL = "relaxed-curl"
    RELAXED_DIV_CURL = "relaxed-div-curl"
    RELAXED_DIV = "relaxed-div"
    MINDLIN_ERINGEN = "mindlin-eringen"
    INTERNAL_VARIABLE = "internal-variable"


class WaveBlock(Enum):
    """The three kinds of 3-DOF plane-wave blocks for propagation along x1.

    The 12-field system decouples into one longitudinal block, two identical
    transverse blocks (axes x2 and x3) and one block that never couples to
    the displacement.
    """

    LONGITUDINAL = "longitudinal"
    TRANSVERSE = "transverse"
    UNCOUPLED = "uncoupled"


@dataclass(frozen=True)
class ElasticParams:
    """The six constitutive constants of the isotropic models (SI units).

    Attributes:
        mu_e: shear-like coupling modulus [Pa]
        lambda_e: first coupling modulus [Pa]
        mu_c: rotational (Cosserat) coupling modulus [Pa]
        mu_micro: micro shear modulus [Pa]
        lambda_micro: micro first modulus [Pa]
        L_c: characteristic length [m]
    """

    mu_e: float
    lambda_e: float
    mu_c: float
    mu_micro: float
    lambda_micro: float
    L_c: float

    @classmethod
    def from_engineering(cls, mu_e_mpa, lambda_e_mpa, mu_c_mpa,
                         mu_micro_mpa, lambda_micro_mpa, L_c_mm):
        """Build from MPa moduli and a characteristic length in mm."""
        return cls(
            mu_e=mu_e_mpa * PA_PER_MPA,
            lambda_e=lambda_e_mpa * PA_PER_MPA,
            mu_c=mu_c_mpa * PA_PER_MPA,
            mu_micro=mu_micro_mpa * PA_PER_MPA,
            lambda_micro=lambda_micro_mpa * PA_PER_MPA,
            L_c=L_c_mm * M_PER_MM,
        )

    def scaled(self, c: float) -> "ElasticParams":
        """Return a copy with all five moduli multiplied by ``c`` (L_c kept)."""
        return replace(self, **{name: c * getattr(self, name) for name in (
            "mu_e", "lambda_e", "mu_c", "mu_micro", "lambda_micro")})


@dataclass(frozen=True)
class InertiaParams:
    """Mass density and micro-inertia constants (SI units).

    Attributes:
        rho: macroscopic mass density [kg/m^3]
        eta: free micro-inertia [kg/m]
        eta_bar_1: gradient micro-inertia on the deviatoric-symmetric part [kg/m]
        eta_bar_2: gradient micro-inertia on the skew part [kg/m]
        eta_bar_3: gradient micro-inertia on the spherical part [kg/m]
    """

    rho: float
    eta: float
    eta_bar_1: float = 0.0
    eta_bar_2: float = 0.0
    eta_bar_3: float = 0.0

    def with_eta_bar(self, value: float) -> "InertiaParams":
        """Return a copy with all three gradient micro-inertiae set to ``value``."""
        return replace(self, eta_bar_1=value, eta_bar_2=value, eta_bar_3=value)


@dataclass(frozen=True)
class MacroParams:
    """Effective Lame/engineering constants of the equivalent Cauchy medium."""

    lambda_macro: float
    mu_macro: float
    e_macro: float
    nu_macro: float


@dataclass(frozen=True)
class InvariantCheck:
    """Outcome of a single parameter-admissibility inequality."""

    name: str
    passed: bool
    message: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail record for every admissibility inequality.

    Validation is report-style rather than constructor-enforced so that a
    caller (notably the CLI) can show all violations at once and then decide
    whether to abort.
    """

    checks: tuple[InvariantCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[InvariantCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate(elastic: ElasticParams, inertia: InertiaParams) -> ValidationReport:
    """Check every admissibility inequality on the two parameter sets.

    The strict positivity of mu_e, mu_micro, rho, eta and of the bulk-type
    combinations 3*lambda + 2*mu guarantees a positive-definite mass operator
    and nonnegative squared frequencies at k = 0.
    """
    checks = []

    def check(name, passed, detail=""):
        checks.append(InvariantCheck(name, passed, "" if passed else detail))

    check("mu_e > 0", elastic.mu_e > 0.0)
    check("mu_micro > 0", elastic.mu_micro > 0.0)
    check("mu_c >= 0", elastic.mu_c >= 0.0)
    check("L_c >= 0", elastic.L_c >= 0.0)
    check("3*lambda_e + 2*mu_e > 0",
          3.0 * elastic.lambda_e + 2.0 * elastic.mu_e > 0.0)
    check("3*lambda_micro + 2*mu_micro > 0",
          3.0 * elastic.lambda_micro + 2.0 * elastic.mu_micro > 0.0)
    check("rho > 0", inertia.rho > 0.0)
    check("eta > 0", inertia.eta > 0.0)
    bars = (inertia.eta_bar_1, inertia.eta_bar_2, inertia.eta_bar_3)
    bad = [i + 1 for i, v in enumerate(bars) if v < 0.0]
    check("eta_bar_i >= 0", not bad,
          f"eta_bar_{bad} negative" if bad else "")

    return ValidationReport(checks=tuple(checks))


def homogenize(elastic: ElasticParams) -> MacroParams:
    """Effective macroscopic Lame constants from the two-scale moduli.

    The shear moduli and the bulk-type combinations 2*mu + 3*lambda combine
    as harmonic means of the coupling-scale and micro-scale values; Young
    modulus and Poisson ratio follow by the usual isotropic conversions.
    """
    mu_sum = elastic.mu_e + elastic.mu_micro
    bulk_e = 2.0 * elastic.mu_e + 3.0 * elastic.lambda_e
    bulk_micro = 2.0 * elastic.mu_micro + 3.0 * elastic.lambda_micro
    bulk_sum = bulk_e + bulk_micro
    if mu_sum == 0.0 or bulk_sum == 0.0:
        # precluded by validate(); kept as a hard guard
        raise ZeroDivisionError("harmonic-mean denominator vanishes")

    mu_macro = elastic.mu_e * elastic.mu_micro / mu_sum
    bulk_macro = bulk_e * bulk_micro / bulk_sum
    lambda_macro = (bulk_macro - 2.0 * mu_macro) / 3.0

    e_macro = mu_macro * (3.0 * lambda_macro + 2.0 * mu_macro) / (lambda_macro + mu_macro)
    nu_macro = lambda_macro / (2.0 * (lambda_macro + mu_macro))
    return MacroParams(lambda_macro=lambda_macro, mu_macro=mu_macro,
                       e_macro=e_macro, nu_macro=nu_macro)
