"""Mesh-refinement study against the closed-form annulus values.

Solves both eigenvalue problems on the benchmark annulus at three mesh
sizes and prints the error table: the closed-form values make the annulus
an exact oracle, so the observed convergence order (about 2 for these
piecewise-linear elements) is measured, not assumed.
"""

from steklov import Disk, DomainSpec, convergence_study


def show_study(study):
    print(f"\n{study.problem}, first nonzero eigenvalue "
          f"(reference {study.reference:.10f}):")
    print(f"  {'h':>6}  {'value':>14}  {'abs error':>10}  {'order':>6}")
    for row in study.rows:
        order = f"{row.order:.2f}" if row.order is not None else "-"
        print(f"  {row.h:6.3f}  {row.eigenvalues[1]:14.10f}  "
              f"{row.error:10.2e}  {order:>6}")
    print(f"  observed order {study.observed_order:.3f}, "
          f"Richardson extrapolation {study.extrapolated:.10f}")


def main():
    spec = DomainSpec(Disk(5.0), (0.0, 0.0), 1.0)
    for problem in ("steklov", "steklov_neumann"):
        study = convergence_study(spec, problem, [0.5, 0.25, 0.125], k=3)
        show_study(study)


if __name__ == "__main__":
    main()
