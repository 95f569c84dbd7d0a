"""Exception types shared across the toolkit."""


class InvalidParamsError(ValueError):
    """Input violates a documented precondition (bounds, gcd, ordering)."""


class OracleInfeasibleError(RuntimeError):
    """A table would exceed the residue cap (SEMIGROUP_ORACLE_CAP).

    The one cap bounds every table the package builds: the residue classes
    of an Apery set, oracle or closed, the gaps of a listing, the cells of
    a change-making DP, the a values a verify sweep runs (not its count of
    points), and the records of the CLI's `family --n-range`.  This signals
    infeasibility of the requested table size, not a math error.
    """


class ConsistencyError(RuntimeError):
    """An internal exactness check failed, e.g. a corrupted Apery set."""
