"""Exact-arithmetic toolkit for deformed box sets, deformed Stanley-Reisner
cohomology, deformed Grothendieck-ring spectra, and Gamma-series solutions of
better-behaved GKZ systems on simplicial stacky fans.

The namespace is lazy (PEP 562): `import boxgamma` loads no submodule, and
each public name imports its home module on first access, so a caller pays
only for the stages it uses."""

import importlib

# each public name and the submodule it lives in, in __all__ order
_HOME = {
    name: module
    for module, names in (
        ("linalg", ("Fraction", "GaussianRational", "format_gaussian", "format_rational",
                    "parse_gaussian", "parse_rational")),
        ("fan", ("StackyFan", "ValidationReport", "normalized_volume", "validate",
                 "triangulate_from_heights")),
        ("box", ("BoxElement", "CollisionClass", "DeltaCorrespondence", "box_of_cone",
                 "box_of_fan", "collisions", "correspondence_at", "stabilize")),
        ("quotient", ("ModuleSpec", "QuotientAlgebra", "build_quotient", "graded_piece")),
        ("kring", ("KPoint", "WallRecord", "spectrum", "wall_report", "is_semisimple")),
        ("gkz", ("GkzInstance", "SeriesValue", "SolutionSystem", "build_gkz", "enumerate_L",
                 "gamma_series", "gamma_series_derivative", "reciprocal_gamma_jet",
                 "solution_system", "suggest_x", "verify_euler", "verify_term_shift")),
    )
    for name in names
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
