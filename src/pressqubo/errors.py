"""Exception types shared across the package, and its one size guard."""

# Most entries an exhaustive computation (the assignment search, a full
# spectrum, a statevector) may hold; each calls ``check_size`` first.
SIZE_GUARD = 1 << 26


class PressQuboError(Exception):
    """Base class for package-specific failures."""


class TooLarge(PressQuboError):
    """An exhaustive computation would exceed its hard size guard."""


class Infeasible(PressQuboError):
    """The instance admits no assignment satisfying all constraints."""


class GenerationFailed(PressQuboError):
    """The instance generator could not produce a feasible instance."""


def check_size(what: str, entries: int, peak_bytes: int | None = None) -> None:
    """TooLarge naming ``what``, and the ``peak_bytes`` it would need if
    given, when ``entries`` exceeds :data:`SIZE_GUARD`."""
    if entries > SIZE_GUARD:
        needs = "" if peak_bytes is None else f" (it needs about {peak_bytes / 2**30:.1f} GiB)"
        raise TooLarge(f"{what} has {entries} entries, over the "
                       f"2^{SIZE_GUARD.bit_length() - 1} guard{needs}")
