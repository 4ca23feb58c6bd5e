"""Plane-wave dispersion, cut-offs and band-gaps for micromorphic media.

The package covers five isotropic enriched-continuum model variants, with
and without gradient micro-inertia: it assembles their 12-field plane-wave
systems, splits them into exact 3x3 blocks, sweeps wavenumber to build
labeled dispersion branches and reports per-block and complete band-gaps.
"""

from .assembly import (BlockLeakageError, BlockSystem, FullSystem,
                       assemble_full, block_basis, block_decompose,
                       block_for, model_blocks, DOF_NAMES)
from .bandgap import (COMPLETE, CoverageMap, FrequencyAxisError, Gap,
                      GapReport, InconsistentInputsError, coverage,
                      default_omega_ceiling, detect_gaps,
                      gaps_from_coverage)
from .core import (ElasticParams, InertiaParams, InvariantCheck, MacroParams,
                   ModelKind, ValidationReport, WaveBlock, homogenize,
                   validate)
from .dispersion import (Branch, Cutoff, DegenerateGridError,
                         DispersionCurve, KGrid, ZeroVectorError,
                         classify_mode_stack, cutoffs, default_grid,
                         detect_asymptote, sweep)
from .eigensolve import (EigenSolution, EigenSolveError,
                         NegativeEigenvalueError, NotHermitianError,
                         NotPositiveDefiniteError, general_eig,
                         general_eig_stack)

__version__ = "0.1.0"

__all__ = [
    "BlockLeakageError", "BlockSystem", "FullSystem", "assemble_full",
    "block_basis", "block_decompose", "block_for", "model_blocks",
    "DOF_NAMES",
    "COMPLETE", "CoverageMap", "FrequencyAxisError", "Gap", "GapReport",
    "InconsistentInputsError", "coverage", "default_omega_ceiling",
    "detect_gaps", "gaps_from_coverage",
    "ElasticParams", "InertiaParams", "InvariantCheck", "MacroParams",
    "ModelKind", "ValidationReport", "WaveBlock", "homogenize", "validate",
    "Branch", "Cutoff", "DegenerateGridError", "DispersionCurve", "KGrid",
    "ZeroVectorError", "classify_mode_stack", "cutoffs", "default_grid",
    "detect_asymptote", "sweep",
    "EigenSolution", "EigenSolveError", "NegativeEigenvalueError",
    "NotHermitianError", "NotPositiveDefiniteError", "general_eig",
    "general_eig_stack",
    "__version__",
]
