"""Error taxonomy shared by the library and the CLI.

DomainError covers invalid inputs and validation failures (CLI exit 1).
CapabilityError covers requests outside implemented limits (CLI exit 2).
InternalError covers a broken invariant of the program itself (CLI exit 3).
"""


class CliqueHubError(Exception):
    code = "INTERNAL"


class DomainError(CliqueHubError):
    code = "DOMAIN"


class DegeneracyError(DomainError):
    code = "DEGENERATE"


class CapabilityError(CliqueHubError):
    code = "CAPABILITY"


class InternalError(CliqueHubError):
    code = "INTERNAL"
