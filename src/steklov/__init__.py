"""Steklov and mixed Steklov-Neumann spectra on annuli and holed planar domains."""

from steklov.analysis import GridSpec, VerificationReport
from steklov.closed_form import (
    AnnulusSpec,
    RadialProfile,
    SpectralLine,
    enumerate_spectrum,
    multiplicity,
    radial_eval,
    sigma_21_closed,
    sn_eigenvalue,
    sn_profile,
    steklov_eigenvalue,
    steklov_profile,
)
from steklov.domains import Disk, DomainSpec, Ellipse, Rectangle
from steklov.experiments import (
    ConvergenceStudy,
    SweepResult,
    SweepSpec,
    TableArtifact,
    convergence_study,
    reproduce_table,
    run_sweep,
    verify_integral_lemmas,
    verify_lemmas,
)
from steklov.fem_solver import (
    EigenSolution,
    FemError,
    assemble_boundary_mass,
    assemble_stiffness,
    solve,
    solve_eigs,
    solve_on_mesh,
)
from steklov.golden import golden_table
from steklov.meshing import Mesh, MeshError, triangulate
from steklov.quadrature import boundary_rule, radial_grams, volume_rule

__all__ = [
    "AnnulusSpec",
    "ConvergenceStudy",
    "Disk",
    "DomainSpec",
    "EigenSolution",
    "Ellipse",
    "FemError",
    "GridSpec",
    "Mesh",
    "MeshError",
    "RadialProfile",
    "Rectangle",
    "SpectralLine",
    "SweepResult",
    "SweepSpec",
    "TableArtifact",
    "VerificationReport",
    "assemble_boundary_mass",
    "assemble_stiffness",
    "boundary_rule",
    "convergence_study",
    "enumerate_spectrum",
    "golden_table",
    "multiplicity",
    "radial_eval",
    "radial_grams",
    "reproduce_table",
    "run_sweep",
    "sigma_21_closed",
    "sn_eigenvalue",
    "sn_profile",
    "solve",
    "solve_eigs",
    "solve_on_mesh",
    "steklov_eigenvalue",
    "steklov_profile",
    "triangulate",
    "verify_integral_lemmas",
    "verify_lemmas",
    "volume_rule",
]
