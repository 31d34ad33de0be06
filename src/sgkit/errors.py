"""Errors with an exit code of their own, kept apart from the modules that
raise them so that ``sgkit.cli`` maps them without importing those modules."""


class RankDeficientFit(ValueError):
    """The affine fit design is rank deficient or under-determined."""
