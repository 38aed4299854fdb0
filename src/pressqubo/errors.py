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


class WorkerDied(PressQuboError):
    """A process of a pooled sweep died (for example, killed for memory),
    so the sweep has no records to return."""


def check_size(what: str, entries: int, peak_bytes: int | None = None) -> None:
    """TooLarge naming ``what``, and the ``peak_bytes`` it would need if
    given, when ``entries`` exceeds :data:`SIZE_GUARD`.

    Both numbers stay short for any declared size: from 2**53 on they
    are written as the power of two at or below them.
    """
    if entries > SIZE_GUARD:
        needs = "" if peak_bytes is None else f" (it needs about {_gib_text(peak_bytes)} GiB)"
        raise TooLarge(f"{what} has {_count_text(entries)} entries, over the "
                       f"2^{SIZE_GUARD.bit_length() - 1} guard{needs}")


def _count_text(count: int) -> str:
    if count < 2**53:
        return str(count)
    return f"{'' if count & (count - 1) == 0 else 'over '}2^{count.bit_length() - 1}"


def _gib_text(size: int) -> str:
    return f"{size / 2**30:.1f}" if size < 2**83 else f"2^{size.bit_length() - 31}"
