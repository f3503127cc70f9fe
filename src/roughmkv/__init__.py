"""Numerical laboratory for interacting particle systems sharing a rough signal.

The package is organised bottom-up:

``grids``          time grids everything lives on
``streams``        Philox random streams keyed by seed and tag
``tables``         the one CSV table layout every artifact uses
``roughpath``      level-2 signals: lifts, accumulation, geometricity checks
``measures``       empirical measures, flows, transport distances
``coefficients``   drift/diffusion/signal coefficient bundles with measure
                   derivatives
``simulate``       the one-step expansion scheme for particle ensembles
``weakcheck``      weak-form residuals of simulated flows and order scans
``backward``       sampled backward value functions and the duality probe
``scenario``       text scenario format for reproducible runs
``experiments``    the five runnable experiments
``cli``            the ``roughmkv`` command

The submodules are the API, each one's ``__all__`` its public surface.  This
file imports none of them, so ``import roughmkv`` loads it alone.
"""

__version__ = "0.1.0"
