"""Series builders shared by the tests, which the library does not use:
a generator of a free algebra by name, and p and h of an orbit system."""

from sftstring.algebra import GradedSeries


def generator(spec, name: str) -> GradedSeries:
    """The generator `name` of a bv.FreeAlgebraSpec, as a series."""
    return GradedSeries.generator(spec.symbol(name))


def series_p(sys, name: str) -> GradedSeries:
    """p of the orbit `name` of a weyl.OrbitSystem."""
    return GradedSeries.generator(sys.p[name])


def series_h(sys, power: int = 1, coeff=1) -> GradedSeries:
    """coeff h^power in a weyl.OrbitSystem."""
    return GradedSeries({((sys.hbar, power),): coeff}) if power \
        else GradedSeries.unit(coeff)
