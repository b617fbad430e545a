"""Error taxonomy shared by the library and the CLI.

DomainError covers invalid inputs and validation failures (CLI exit 1).
CapabilityError covers requests outside implemented limits (CLI exit 2).
InternalError covers a broken invariant of the program itself (CLI exit 3).
"""


class CliqueHubError(Exception):
    """The CLI prints error:<kind>:<message> and exits with exit_code."""
    kind = "domain"
    exit_code = 1


class DomainError(CliqueHubError):
    pass


class DegeneracyError(DomainError):
    pass


class CapabilityError(CliqueHubError):
    kind = "capability"
    exit_code = 2


class InternalError(CliqueHubError):
    kind = "internal"
    exit_code = 3
