"""Semi-flat Calabi-Yau metric ansatze on torus fibrations.

Construction of the local models around Kodaira singular fibers and their
fiber products, pointwise evaluation of the semi-flat ansatz, and numeric
verification of its closed-form identities (Monge-Ampere, closedness,
flatness of the isotrivial quotients) and asymptotics (decay exponents,
volume growth, tangent cones).

Importing the package loads no submodule; import from the submodules,
e.g. ``from semiflat.metric import metric_at``:

    lattice         polarized families, Siegel normalization, fiber metric H
    kodaira         fiber-type catalog, local models, fiber products,
                    canonical coefficients, asymptotic classification
    metric          semi-flat metric assembly, periods, Christoffel symbols,
                    Monge-Ampere residual
    diffgeo         finite differences: closedness, Chern curvature,
                    Ricci flatness
    asymptotics     charts at infinity, decay fits, radial profiles,
                    volume growth, SOB clauses, tangent cones
    eguchi_hanson   EH potential/metric, smooth cutoff, gluing report
    weierstrass     wp / wp', g2/g3 q-series, Kodaira cubic, pullback ratio
    errors          the SemiflatError hierarchy
    rng             SplitMix64, the seeded sample generator
    scenario        JSON scenarios, check registry, reports, CSV emission
    cli             command-line entry point (``python -m semiflat.cli``)
"""

__version__ = "0.1.0"
