"""Error taxonomy shared by the library and the CLI.

Exit codes: 2 config validation, 3 data loading/shape, 4 numeric failure
(non-finite loss or activations), 5 artifact compatibility (a checkpoint that
does not fit its dataset, or a malformed file).  Anything else surfaces as 1.
"""


class ExtremecastError(Exception):
    exit_code = 1


class ConfigError(ExtremecastError):
    exit_code = 2


class DataError(ExtremecastError):
    exit_code = 3


class NumericError(ExtremecastError):
    exit_code = 4


class CompatibilityError(ExtremecastError):
    exit_code = 5
